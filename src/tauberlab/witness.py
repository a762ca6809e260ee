"""Witness functions and certified decay-floor certificates.

A witness is a modulated translate of a strip kernel: modulation by frequency
R moves the transform's concentration up the imaginary axis, translation by t
multiplies it by e^{-lam t}.  Its norm in the test class (L1 + W^{1,inf} + a
weighted transform supremum over the region to the right of the resolvent
boundary) is compared against a closed-form two-term bound; minimizing the
bound over admissible R yields a certificate with an implied lower bound on
any uniform decay rate valid across the whole class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ConstructionError, DomainError
from .growth import GrowthFunction, lower_rate_constant, m_k, m_log, rate_inverse
from .logscale import refine_log_scale
from .regions import LogWeightedModuli, banded_grid_sup
from .specialfn import StripKernel
from .xforms import SampledComplexFunction, laplace_many, nonzero_span

__all__ = [
    "Witness",
    "sampling_limit",
    "modulated_translate",
    "NormBreakdown",
    "x_norm",
    "x_norm_totals",
    "bound_rhs",
    "WitnessCertificate",
    "optimize_R",
    "SharpnessCurve",
    "sharpness_curve",
    "KappaCalibration",
    "calibrate_kappa",
]

_VARIANTS = ("plain", "derivative")
_N_CHECK = 8  # seeded points at which modulated_translate checks the transform identity
_CHECK_TOL = 1e-5  # allowed identity deviation, relative to max(1, |closed form|)
_CHECK_SEED = 0
_KAPPA_MARGIN = 1.5  # kappa = this margin times the worst calibration ratio
_LATTICE_SIZE = 8  # R values, and t values per R, of the calibration lattice
_NOT_LOCALIZED = "weighted supremum did not localize in the scanned band"


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ConfigurationError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _check_R_t(R: float, t: float) -> None:
    """A witness's modulation R and translation t are finite and >= 1."""
    if not (math.isfinite(R) and R >= 1.0):
        raise DomainError(f"modulation frequency R must be >= 1, got {R}")
    if not (math.isfinite(t) and t >= 1.0):
        raise DomainError(f"translation t must be >= 1, got {t}")


def check_R_max(R_max: float) -> None:
    """The top of a search range for the modulation R is finite and >= 1."""
    if not (math.isfinite(R_max) and R_max >= 1.0):
        raise DomainError(f"R_max must be a finite number >= 1, got {R_max}")


def effective_eps(eps: float, variant: str) -> float:
    """The derivative-weighted bound holds for a reduced decay frequency; we
    use half uniformly and record the value used in every certificate."""
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be a positive finite number, got {eps}")
    return eps if variant == "plain" else 0.5 * eps


@dataclass(frozen=True, eq=False)
class Witness:
    """Modulated translate of a kernel: values e^{iR(s-t)} * kernel(s-t)."""

    kernel: StripKernel
    R: float
    t: float
    samples: SampledComplexFunction
    check_residual: float

    def transform(self, lam) -> complex | np.ndarray:
        """Closed form e^{-lam t} * kernel_transform(lam - iR).  Overflows for
        strongly negative Re(lam)*t; x_norm's supremum works in log space."""
        arr = np.asarray(lam, dtype=complex)
        out = np.exp(-arr * self.t) * np.asarray(self.kernel.transform(arr - 1j * self.R))
        if arr.ndim == 0:
            return complex(out)
        return out


def sampling_limit(kernel: StripKernel) -> float:
    """The largest modulation R whose witness the kernel grid samples: its
    Nyquist frequency pi/step less the transform's 6/eps reach (about 616.9
    for the m0 = 1 kernel).  Above it the samples alias."""
    return math.pi / kernel.samples.step - 6.0 / kernel.epsilon


def modulated_translate(kernel: StripKernel, R: float, t: float) -> Witness:
    """Build the witness with modulation R and translation t (both >= 1, R
    at most sampling_limit(kernel); DomainError otherwise).

    The sampled values come from the kernel grid shifted by t, so the L1 and
    sup norms are exactly translation-invariant.  The closed-form transform
    identity is verified against quadrature at _N_CHECK seeded points on the
    imaginary axis (which lies in every weighting region); disagreement beyond
    _CHECK_TOL (relative to max(1, |closed|)) is a construction error.
    """
    _check_R_t(R, t)
    limit = sampling_limit(kernel)
    if R > limit:
        raise DomainError(
            f"modulation frequency R = {R:g} exceeds the kernel grid's sampling "
            f"limit pi/step - 6/eps = {limit:.6g}: the witness samples would alias")
    base = kernel.samples
    # modulate only the run between the first and last nonzero kernel
    # samples; outside it the witness is an exact (unsigned) zero
    lo, hi = nonzero_span(base.values)
    offsets = base.t0_grid + base.step * np.arange(lo, hi)  # base.t_grid[lo:hi]
    values = np.zeros(base.n, dtype=complex)
    values[lo:hi] = np.exp(1j * R * offsets) * base.values[lo:hi]
    samples = SampledComplexFunction(
        t0_grid=t + base.t0_grid,
        step=base.step,
        values=values,
        support="full",
        tail_bound=base.tail_bound,
        meta={"R": R, "t": t},
    )
    w = Witness(kernel=kernel, R=float(R), t=float(t), samples=samples, check_residual=math.nan)
    rng = np.random.default_rng(_CHECK_SEED)
    scale = 1.0 / kernel.epsilon
    n_band = (_N_CHECK + 1) // 2
    ys = np.concatenate([
        R + rng.uniform(-2.5, 2.5, n_band) * scale,
        rng.uniform(0.0, 4.0, _N_CHECK - n_band) * scale,
    ])
    lams = 1j * ys
    quad = laplace_many(samples, lams)
    closed = w.transform(lams)
    dev = np.abs(quad - closed)
    failed = dev > _CHECK_TOL * np.maximum(1.0, np.abs(closed))
    if np.any(failed):
        i = int(np.argmax(failed))
        raise ConstructionError(
            f"witness transform identity failed at lam = {complex(lams[i])}: "
            f"quadrature {complex(quad[i])} vs closed form {complex(closed[i])} "
            f"(|diff| = {dev[i]:.3e})"
        )
    return replace(w, check_residual=float(np.max(dev)))


@dataclass(frozen=True, eq=False)
class NormBreakdown:
    """The three norm parts and their sum; weighted_sup is a declared grid-sup."""

    l1: float
    w1inf: float
    weighted_sup: float
    variant: str
    total: float
    meta: dict = field(default_factory=dict)


def x_norm(
    kernel: StripKernel,
    R: float,
    t: float,
    m: GrowthFunction,
    *,
    k: GrowthFunction | None = None,
    variant: str = "plain",
) -> NormBreakdown:
    """Class norm of the witness f(s) = e^{iR(s-t)} kernel(s-t) (R, t >= 1):
    L1 + (sup + derivative sup) + weighted transform supremum, the last over
    the region |Re lam| < 1/M(|Im lam|) with weight k (default m).

    The witness is never sampled, so no transform check is run here.  The L1
    part and both uniform parts are exact modulation/translation identities
    on the kernel samples (|f| = |kernel|, |f'| = |iR kernel + kernel'|),
    which build_kernel's round trip checks; the weighted supremum uses the
    closed-form transform e^{-lam t} K(lam - iR) only, in log space, on a
    purpose-built banded grid whose parameters are recorded in the result's
    metadata.  So the norm holds at any R, also above the kernel grid's
    sampling limit pi/step, where modulated_translate's samples alias.
    The parts are x_norm_totals' for the one pair (R, t); DomainError where
    the supremum does not localize."""
    _check_variant(variant)
    _check_R_t(R, t)
    weight = k if k is not None else m
    l1, (w1inf,), log_sups, meta = _class_norm_parts(kernel, R, [t], m, k, variant)
    log_sup = float(log_sups[0])
    if log_sup == math.inf:
        raise DomainError(_NOT_LOCALIZED)
    sup = _exp_sup(log_sup)
    return NormBreakdown(
        l1=l1,
        w1inf=w1inf,
        weighted_sup=sup,
        variant=variant,
        total=l1 + w1inf + sup,
        meta={**meta, "weight": weight.label, "log_sup": log_sup},
    )


def x_norm_totals(
    kernel: StripKernel,
    pairs: Sequence[tuple[float, float]],
    m: GrowthFunction,
    *,
    k: GrowthFunction | None = None,
    variant: str = "plain",
) -> list[float]:
    """x_norm(kernel, R, t, m, k=k, variant=variant).total for every (R, t)
    of pairs, bit for bit, from one banded_grid_sup call with one grid per
    distinct R.  A pair x_norm refuses is refused here with the same
    DomainError, also where its supremum does not localize."""
    _check_variant(variant)
    for R, t in pairs:
        _check_R_t(R, t)
    if not pairs:
        return []
    l1, w1inf, log_sups, _ = _class_norm_parts(
        kernel, [R for R, _ in pairs], [t for _, t in pairs], m, k, variant)
    if np.any(log_sups == math.inf):
        raise DomainError(_NOT_LOCALIZED)
    return [l1 + w + _exp_sup(log_sup) for w, log_sup in zip(w1inf, log_sups.tolist())]


def _class_norm_parts(kernel: StripKernel, R, ts: Sequence[float], m: GrowthFunction,
                      k: GrowthFunction | None, variant: str) -> tuple[float, list, np.ndarray, dict]:
    """L1, and per t of ts: sup|f| + sup|f'| (|kernel|, and |iR kernel +
    kernel'| on all live kernel samples, from one witness_derivative_maxima
    call) and the log weighted sup, at modulation R (one number for every t,
    or one per t) on one banded_grid_sup call with one grid per distinct R,
    with the call's meta."""
    slice_R = np.broadcast_to(np.asarray(R, dtype=float), (len(ts),)).tolist()
    w1inf = [kernel.linf_norm + u for u in kernel.witness_derivative_maxima(slice_R, 0)]
    log_integrands = LogWeightedModuli(kernel, ts, lam=variant == "derivative", weight=k)
    log_sups, meta = banded_grid_sup(log_integrands, kernel.epsilon, slice_R, m)
    return kernel.l1_norm, w1inf, log_sups, meta


def _exp_sup(log_sup: float) -> float:
    """The weighted supremum exp(log_sup); inf where that overflows."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_sup))


def bound_rhs(
    m: GrowthFunction,
    R: float,
    t: float,
    eps: float,
    variant: str = "plain",
    k: GrowthFunction | None = None,
) -> tuple[float, bool]:
    """Two-term bound R + (1/W(R/2)) e^{t/M(R/2)} (derivative variant carries
    an extra factor R) together with the admissibility flag
    t <= M(0) exp(eps_eff R / 2), evaluated in log space.

    Exponent overflow yields an inf sentinel; the flag is still computed.
    """
    _check_variant(variant)
    _check_R_t(R, t)
    ok = admissible(m, R, t, effective_eps(eps, variant))
    m_half = m(R / 2.0)
    w_half = m_half if k is None else k(R / 2.0)
    expo = t / m_half
    if expo > 700.0:
        return math.inf, ok
    value = math.exp(expo) / w_half
    if variant == "derivative":
        value *= R
    return R + value, ok


def admissible(m: GrowthFunction, R: float, t: float, eps_eff: float) -> bool:
    """The admissibility flag t <= M(0) exp(eps_eff R / 2), in log space."""
    # a Python float product overflows to inf without a numpy warning
    return math.log(t) <= math.log(m.m0) + eps_eff * float(R) / 2.0


@dataclass(frozen=True)
class WitnessCertificate:
    """Numeric sharpness certificate at one translation t."""

    m_spec: str
    k_spec: str | None
    variant: str
    t: float
    epsilon: float
    R_star: float | None
    N: float | None
    admissible: bool
    implied_floor: float | None
    rate_comparison: float | None
    kappa: float | None = None
    calibration_grid_id: str | None = None
    prescribed_R: float | None = None
    prescribed_N: float | None = None
    prescribed_admissible: bool | None = None

    def to_json_dict(self) -> dict:
        out = {
            "m_spec": self.m_spec,
            "variant": self.variant,
            "t": self.t,
            "epsilon": self.epsilon,
            "R_star": self.R_star,
            "N": self.N,
            "admissible": self.admissible,
            "implied_floor": self.implied_floor,
            "rate_comparison": self.rate_comparison,
            "kappa": self.kappa,
            "calibration_grid_id": self.calibration_grid_id,
        }
        if self.k_spec is not None:
            out["k_spec"] = self.k_spec
        if self.prescribed_R is not None:
            out["prescribed_choice"] = {
                "R": self.prescribed_R,
                "N": self.prescribed_N,
                "admissible": self.prescribed_admissible,
            }
        return out


# optimize_R's closed form is cheap, so it refines to rounding: at t = 1e6
# the bound is flat to rounding over 1e-8 in R, where _BRENT_XTOL would stop
_OPTIMIZE_R_XTOL = (1e-15, 0.0)


def optimize_R(
    m: GrowthFunction,
    t: float,
    eps: float,
    *,
    k: GrowthFunction | None = None,
    variant: str = "plain",
    R_max: float = 1e6,
    prescribed_C: float | None = None,
) -> WitnessCertificate:
    """Minimize the two-term bound over admissible R in [1, R_max].

    Admissibility pins R >= (2/eps_eff) log(t / M(0)); the search runs a
    64-point log-spaced coarse grid over the admissible range followed by
    Brent's method on log R around the coarse minimum (refine_log_scale, at
    most 72 evaluations, to a relative x tolerance of 1e-15; the bound is
    smooth but multimodality is not excluded, hence the coarse grid).  The
    reported optimum is the best evaluated point; DomainError if the bound
    overflows at every one of them (naming the rate inverse where it lies
    above R_max, since a larger R_max may then certify t).  When
    prescribed_C is given, the explicit selection R = prescribed_C *
    rate_inverse(t) is also evaluated and recorded (with N = None and
    admissible False where its bound overflows).  A non-finite R_max or one
    below 1, and a non-finite or non-positive prescribed_C, are refused
    before any evaluation.  sharpness_curve at the one t.
    """
    return _certificates(m, [t], eps, k, variant, R_max, prescribed_C)[0]


def _certificates(m: GrowthFunction, ts: Sequence[float], eps: float,
                  k: GrowthFunction | None, variant: str, R_max: float,
                  prescribed_C: float | None) -> list[WitnessCertificate]:
    """optimize_R at every t of ts, in t order: every input is refused
    before any evaluation, each t is scanned on its own admissible range,
    and all the searches run in one refine_log_scale call (a search reads
    only its own values, so each certificate is bit for bit that of its t
    alone).  The bound is evaluated by the scalar bound_rhs, one call per
    (R, t): numpy's power differs from C pow by an ulp."""
    _check_variant(variant)
    ts = [float(t) for t in ts]
    for t in ts:
        if not (math.isfinite(t) and t >= 1.0):
            raise DomainError(f"translation t must be >= 1, got {t}")
    check_R_max(R_max)
    if prescribed_C is not None and not (math.isfinite(prescribed_C) and prescribed_C > 0):
        raise ConfigurationError(
            f"prescribed_C must be a finite positive number, got {prescribed_C}")
    eps_eff = effective_eps(eps, variant)
    rate = m_k(m, k) if k is not None else m_log(m)
    rate_invs = [rate_inverse(rate, t) for t in ts]
    gates = [2.0 * (math.log(t) - math.log(m.m0)) / eps_eff for t in ts]
    R_los = [gate * (1.0 + 1e-9) if gate > 1.0 else 1.0 for gate in gates]

    prescribed = []
    for t, (rate_inv, _) in zip(ts, rate_invs):
        fields: dict = {}
        if prescribed_C is not None:
            R, N, adm = None, None, False
            if rate_inv is not None and prescribed_C * rate_inv >= 1.0:
                R = prescribed_C * rate_inv
                N, adm = bound_rhs(m, R, t, eps, variant, k)
                if not math.isfinite(N):  # the overflow sentinel is no bound
                    N, adm = None, False
            fields = dict(prescribed_R=R, prescribed_N=N, prescribed_admissible=adm)
        prescribed.append(fields)

    searched = [i for i, R_lo in enumerate(R_los) if R_lo <= R_max]
    rows = []
    for i in searched:  # one coarse point where the admissible range is R_max alone
        coarse_R = np.geomspace(R_los[i], R_max, 64 if R_los[i] < R_max else 1)
        rows.append((coarse_R, np.array([bound_rhs(m, R, ts[i], eps, variant, k)[0]
                                         for R in coarse_R])))

    def bounds(Rs: list[float], js: list[int]) -> list[float]:
        return [bound_rhs(m, R, ts[searched[j]], eps, variant, k)[0] for R, j in zip(Rs, js)]

    best = dict(zip(searched, refine_log_scale(bounds, rows, 70, _OPTIMIZE_R_XTOL)))

    certs = []
    for i, (t, R_lo, (rate_inv, unbounded)) in enumerate(zip(ts, R_los, rate_invs)):
        base = dict(m_spec=m.label, k_spec=None if k is None else k.label,
                    variant=variant, t=t, epsilon=eps_eff, **prescribed[i])
        if i not in best:  # R_lo > R_max: no admissible R
            certs.append(WitnessCertificate(**base, R_star=None, N=None, admissible=False,
                                            implied_floor=None, rate_comparison=None))
            continue
        best_R, best_N = best[i]
        if not math.isfinite(best_N):
            where = (f"the two-term bound overflows at every evaluated admissible R in "
                     f"[{R_lo:.6g}, {R_max:.6g}] for t = {t:g}")
            if rate_inv is not None and rate_inv > R_max:
                raise DomainError(
                    f"{where}: the rate inverse {rate_inv:.6g} lies above R_max = "
                    f"{R_max:.6g}, so a larger R_max may certify this t")
            if unbounded:
                cap = f"2**60 > R_max = {R_max:.6g}" if R_max < 2.0**60 else "2**60"
                raise DomainError(
                    f"{where}: the rate inverse lies above {cap} (the rate does not "
                    f"reach t below 2**60), so a larger R_max may certify this t")
            raise DomainError(f"{where}: no finite certificate exists")
        certs.append(WitnessCertificate(
            **base, R_star=best_R, N=best_N, admissible=True,
            implied_floor=1.0 / best_N if best_N > 0 else None,
            rate_comparison=None if rate_inv is None or rate_inv <= 0 else best_N / rate_inv))
    return certs


@dataclass(frozen=True, eq=False)
class SharpnessCurve:
    """Per-translation certificates plus band diagnostics of N(t) against the
    inverse rate curve."""

    t_values: np.ndarray
    certificates: tuple[WitnessCertificate, ...]
    ratios: np.ndarray
    band_ratio: float
    c_ref: float
    variant: str
    all_feasible: bool
    prescribed_all_admissible: bool | None


def sharpness_curve(
    m: GrowthFunction,
    t_grid: Sequence[float],
    eps: float,
    *,
    k: GrowthFunction | None = None,
    variant: str = "plain",
    R_max: float = 1e6,
    prescribed_C: float | None = None,
) -> SharpnessCurve:
    """Optimized certificates along t_grid with N(t) / rate_inverse diagnostics.

    The plain variant compares against the inverse rate at t itself; the
    derivative variant compares at c*t with c = 1 + 1/beta taken from the
    growth function's declared lower envelope (a configuration error if that
    metadata is missing).  Every t, R_max and prescribed_C are refused as
    optimize_R refuses them, before any evaluation, and the searches of all
    the t run in one refine_log_scale call; each certificate is bit for bit
    optimize_R's at its t.
    """
    _check_variant(variant)
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size == 0 or np.any(ts < 1.0) or np.any(np.diff(ts) <= 0.0):
        raise DomainError("t_grid must be increasing with all entries >= 1")
    c_ref = lower_rate_constant(m) if variant == "derivative" else 1.0
    if c_ref is None:
        raise ConfigurationError(
            "derivative-variant diagnostics need the growth function's "
            "polynomial lower envelope (beta) to form c = 1 + 1/beta"
        )
    rate = m_k(m, k) if k is not None else m_log(m)

    certs = _certificates(m, ts, eps, k, variant, R_max, prescribed_C)
    ratios = []
    for t, cert in zip(ts, certs):
        if variant == "plain":  # optimize_R's comparison: N over the inverse rate at t
            ratio = cert.rate_comparison
        else:
            denom = rate_inverse(rate, c_ref * float(t))[0]
            ratio = None if cert.N is None or denom is None or denom <= 0 else cert.N / denom
        ratios.append(math.nan if ratio is None else ratio)
    ratios_arr = np.asarray(ratios)
    finite = ratios_arr[np.isfinite(ratios_arr)]
    band = float(np.max(finite) / np.min(finite)) if finite.size else math.inf
    prescribed_ok = None
    if prescribed_C is not None:
        prescribed_ok = all(c.prescribed_admissible for c in certs)
    return SharpnessCurve(
        t_values=ts,
        certificates=tuple(certs),
        ratios=ratios_arr,
        band_ratio=band,
        c_ref=c_ref,
        variant=variant,
        all_feasible=all(c.admissible for c in certs),
        prescribed_all_admissible=prescribed_ok,
    )


@dataclass(frozen=True, eq=False)
class KappaCalibration:
    """Frozen norm-domination constant: x_norm.total <= kappa * bound_rhs on
    the declared calibration lattice, with a recorded safety margin."""

    kappa: float
    grid_id: str
    max_ratio: float
    margin: float
    variant: str
    pairs: tuple[tuple[float, float], ...]
    ratios: np.ndarray


def t_cap(m: GrowthFunction, R: float, eps_eff: float) -> float:
    """Largest t the bound chain samples at modulation R: admissibility
    t <= M(0) exp(eps_eff R / 2) with margin 0.9, exponent finiteness
    t / M(R/2) <= 600 in bound_rhs, and an absolute roof of 1e6."""
    return min(
        0.9 * m.m0 * math.exp(min(eps_eff * R / 2.0, 600.0)),
        600.0 * m(R / 2.0),
        1e6,
    )


def calibration_lattice(
    m: GrowthFunction,
    eps: float,
    variant: str = "plain",
) -> list[tuple[float, float]]:
    """Declared admissible (R, t) lattice: log-spaced R, and per R a log-spaced
    t column from 1 to t_cap."""
    eps_eff = effective_eps(eps, variant)
    pairs = []
    for R in np.geomspace(8.0, 120.0, _LATTICE_SIZE):
        cap = t_cap(m, R, eps_eff)
        if cap < 1.0:
            continue
        for t in np.geomspace(1.0, cap, _LATTICE_SIZE):
            pairs.append((float(R), float(t)))
    return pairs


def calibrate_kappa(
    kernel: StripKernel,
    m: GrowthFunction,
    eps: float,
    *,
    k: GrowthFunction | None = None,
    variant: str = "plain",
) -> KappaCalibration:
    """Measure max x_norm.total / bound_rhs over the calibration lattice and
    freeze kappa = _KAPPA_MARGIN * that maximum.

    The lattice's 64 totals come from one x_norm_totals call, one
    banded_grid_sup call with one grid per lattice R that the 8 t of its
    column share, so every ratio is bit for bit x_norm's total over
    bound_rhs for its pair.  A pair whose supremum does not localize raises
    x_norm's DomainError; a total that overflows to inf leaves the maximum
    ratio not finite, and the call raises DomainError: no finite kappa."""
    _check_variant(variant)
    pairs = calibration_lattice(m, eps, variant)
    if not pairs:
        raise DomainError(
            f"the calibration lattice for {m.label} at eps = {eps:g} is empty: "
            f"no t >= 1 is admissible for any lattice R"
        )
    ratios = []
    for (R, t), total in zip(pairs, x_norm_totals(kernel, pairs, m, k=k, variant=variant)):
        value, ok = bound_rhs(m, R, t, eps, variant, k)
        if not ok:
            raise ConstructionError(
                f"calibration lattice produced an inadmissible pair (R={R}, t={t})"
            )
        ratios.append(total / value)
    ratios_arr = np.asarray(ratios)
    max_ratio = float(np.max(ratios_arr))
    if not math.isfinite(max_ratio):
        raise DomainError(
            f"calibration ratio x_norm / bound_rhs is not finite on the lattice for "
            f"{m.label} at eps = {eps:g}: no finite kappa"
        )
    grid_id = (
        f"{m.label}|{'' if k is None else k.label}|{variant}"
        f"|R:geom[8,120]x{_LATTICE_SIZE}|t:geom[1,cap]x{_LATTICE_SIZE}|margin{_KAPPA_MARGIN:g}|v1"
    )
    return KappaCalibration(
        kappa=_KAPPA_MARGIN * max_ratio,
        grid_id=grid_id,
        max_ratio=max_ratio,
        margin=_KAPPA_MARGIN,
        variant=variant,
        pairs=tuple(pairs),
        ratios=ratios_arr,
    )
