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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BelowRangeError,
    ConfigurationError,
    ConstructionError,
    DomainError,
    UnboundedSearchError,
)
from .growth import GrowthFunction, m_k, m_log, right_inverse
from .specialfn import StripKernel
from .xforms import SampledComplexFunction, laplace_many

__all__ = [
    "Witness",
    "modulated_translate",
    "NormBreakdown",
    "x_norm",
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


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ConfigurationError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _effective_eps(eps: float, variant: str) -> float:
    """The derivative-weighted bound holds for a reduced decay frequency; we
    use half uniformly and record the value used in every certificate."""
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
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
        strongly negative Re(lam)*t; suprema use log_modulus_transform."""
        arr = np.asarray(lam, dtype=complex)
        out = np.exp(-arr * self.t) * np.asarray(self.kernel.transform(arr - 1j * self.R))
        if arr.ndim == 0:
            return complex(out)
        return out

    def log_modulus_transform(self, lam) -> np.ndarray:
        arr = np.asarray(lam, dtype=complex)
        return -arr.real * self.t + self.kernel.log_modulus_transform(arr - 1j * self.R)


def modulated_translate(kernel: StripKernel, R: float, t: float) -> Witness:
    """Build the witness with modulation R and translation t (both >= 1).

    The sampled values come from the kernel grid shifted by t, so the L1 and
    sup norms are exactly translation-invariant.  The closed-form transform
    identity is verified against quadrature at _N_CHECK seeded points on the
    imaginary axis (which lies in every weighting region); disagreement beyond
    _CHECK_TOL (relative to max(1, |closed|)) is a construction error.
    """
    if not (math.isfinite(R) and R >= 1.0):
        raise DomainError(f"modulation frequency R must be >= 1, got {R}")
    if not (math.isfinite(t) and t >= 1.0):
        raise DomainError(f"translation t must be >= 1, got {t}")
    base = kernel.samples
    offsets = base.t_grid
    values = np.exp(1j * R * offsets) * base.values
    samples = SampledComplexFunction(
        t0_grid=t + base.t0_grid,
        step=base.step,
        values=values,
        support="full",
        tail_bound=base.tail_bound,
        meta={"R": R, "t": t},
    )
    rng = np.random.default_rng(_CHECK_SEED)
    scale = 1.0 / kernel.epsilon
    n_band = (_N_CHECK + 1) // 2
    ys = np.concatenate([
        R + rng.uniform(-2.5, 2.5, n_band) * scale,
        rng.uniform(0.0, 4.0, _N_CHECK - n_band) * scale,
    ])
    lams = 1j * ys
    quad = laplace_many(samples, lams)
    closed = np.exp(-lams * t) * kernel.transform(lams - 1j * R)
    dev = np.abs(quad - closed)
    failed = dev > _CHECK_TOL * np.maximum(1.0, np.abs(closed))
    if np.any(failed):
        i = int(np.argmax(failed))
        raise ConstructionError(
            f"witness transform identity failed at lam = {complex(lams[i])}: "
            f"quadrature {complex(quad[i])} vs closed form {complex(closed[i])} "
            f"(|diff| = {dev[i]:.3e})"
        )
    return Witness(kernel=kernel, R=float(R), t=float(t), samples=samples,
                   check_residual=float(np.max(dev)))


@dataclass(frozen=True, eq=False)
class NormBreakdown:
    """The three norm parts and their sum; weighted_sup is a declared grid-sup."""

    l1: float
    w1inf: float
    weighted_sup: float
    variant: str
    total: float
    meta: dict = field(default_factory=dict)


def _log_weighted_modulus(
    w: Witness,
    weight: GrowthFunction,
    pts: np.ndarray,
    variant: str,
) -> np.ndarray:
    """log of |transform| / W(|Im lam|), with the extra |lam| factor for the
    derivative weighting — evaluated entirely in log space so translations by
    huge t cannot overflow."""
    logv = w.log_modulus_transform(pts) - np.log(weight(np.abs(pts.imag)))
    if variant == "derivative":
        mod = np.abs(pts)
        with np.errstate(divide="ignore"):
            logv = logv + np.log(mod)
    return logv


def _row_fractions() -> np.ndarray:
    """Fractions of the half-width 1/M(|y|) at which each row is sampled.

    The weighted integrand on a row peaks against the open left boundary
    Re lam = -1/M(|y|) (where e^{-Re lam * t} is largest), so a geometric
    ladder accumulates there; a shorter ladder covers the right boundary and
    a uniform interior fill guards against weight-driven interior maxima.
    All fractions have modulus < 1, keeping every point strictly inside the
    region |Re lam| < 1/M(|Im lam|).
    """
    left = -(1.0 - np.exp2(-np.arange(41, dtype=float)))
    right = 1.0 - np.exp2(-np.arange(1.0, 13.0))
    interior = np.linspace(-0.9, 0.9, 13)
    return np.concatenate([left, right, interior])


def _row_points(width_of_y, y_rows: np.ndarray) -> np.ndarray:
    """Map row fractions to points; ``width_of_y`` returns the (left, right)
    pair of half-width arrays at the rows' heights."""
    left_w, right_w = width_of_y(np.abs(y_rows))
    fr = _row_fractions()[None, :]
    xs = np.where(fr < 0.0, left_w[:, None] * fr, right_w[:, None] * fr)
    return (xs + 1j * y_rows[:, None]).ravel()


def _banded_rows(eps: float, R: float) -> np.ndarray:
    half_band = 6.0 / eps
    rows = [np.linspace(R - half_band, R + half_band, 121)]
    rows.append(np.linspace(-4.0 / eps, 4.0 / eps, 13))
    lo, hi = 4.0 / eps, R - half_band
    if hi > lo * 1.01:
        rows.append(np.geomspace(lo, hi, 8))
    return np.unique(np.concatenate(rows))


def banded_grid_sup(log_integrand, eps: float, R: float, width_of_y) -> tuple[float, dict]:
    """Log of the grid-sup of a weighted transform modulus over the lens-shaped
    region with per-height (left, right) half-widths ``width_of_y``.

    Row layout: a dense band around Im lam = R where the modulated transform
    lives, sparse probe rows elsewhere, extended upward until the outermost
    rows contribute less than 1e-3 of the running supremum.  Within the region
    the transform's argument stays inside the window where its log-modulus
    decays like -2 cosh(eps (y - R)), so the supremum provably localizes near
    y = R.  ``log_integrand`` maps complex points to log-space values.
    """
    y_rows = _banded_rows(eps, R)
    pts = _row_points(width_of_y, y_rows)
    log_sup = float(np.max(log_integrand(pts)))
    meta = {
        "grid": "banded-ladder",
        "band_center": R,
        "band_half_width": 6.0 / eps,
        "ladder_depth": 41,
        "extensions": 0,
        "n_points": int(pts.size),
    }
    top = float(np.max(y_rows))
    for _ in range(60):
        extra_rows = np.linspace(top, top + 6.0 / eps, 7)[1:]
        extra_pts = _row_points(width_of_y, extra_rows)
        extra_log = float(np.max(log_integrand(extra_pts)))
        meta["n_points"] += int(extra_pts.size)
        if extra_log <= log_sup + math.log(1e-3):
            return log_sup, meta
        log_sup = max(log_sup, extra_log)
        top += 6.0 / eps
        meta["extensions"] += 1
    raise DomainError("weighted supremum did not localize in the scanned band")


def x_norm(
    w: Witness,
    m: GrowthFunction,
    k: GrowthFunction | None = None,
    variant: str = "plain",
) -> NormBreakdown:
    """Class norm of a witness: L1 + (sup + derivative sup) + weighted
    transform supremum, the last over the region |Re lam| < 1/M(|Im lam|).

    The L1 part and both uniform parts come from the kernel samples through
    exact modulation/translation identities; the weighted supremum uses the
    closed-form transform only (no quadrature), on a purpose-built banded grid
    whose parameters are recorded in the result's metadata.
    """
    _check_variant(variant)
    kernel = w.kernel
    weight = k if k is not None else m
    l1 = kernel.l1_norm
    deriv_mod = np.abs(1j * w.R * kernel.samples.values + kernel.derivative.values)
    w1inf = kernel.linf_norm + float(np.max(deriv_mod))

    def widths(ys: np.ndarray):
        half = 1.0 / np.asarray(m(ys))
        return half, half

    log_sup, meta = banded_grid_sup(
        lambda pts: _log_weighted_modulus(w, weight, pts, variant),
        w.kernel.epsilon,
        w.R,
        widths,
    )

    with np.errstate(over="ignore"):
        sup = float(np.exp(log_sup))
    return NormBreakdown(
        l1=l1,
        w1inf=w1inf,
        weighted_sup=sup,
        variant=variant,
        total=l1 + w1inf + sup,
        meta={**meta, "weight": weight.label, "log_sup": log_sup},
    )


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
    if not (math.isfinite(R) and R >= 1.0 and math.isfinite(t) and t >= 1.0):
        raise DomainError(f"bound requires R, t >= 1, got R={R}, t={t}")
    eps_eff = _effective_eps(eps, variant)
    admissible = math.log(t) <= math.log(m.m0) + eps_eff * R / 2.0
    weight = k if k is not None else m
    m_half = m(R / 2.0)
    w_half = weight(R / 2.0)
    expo = t / m_half
    if expo > 700.0:
        return math.inf, admissible
    value = math.exp(expo) / w_half
    if variant == "derivative":
        value *= R
    return R + value, admissible


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


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Golden-section minimum of fn on [lo, hi]; returns (arg, value)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_v = (c, fc) if fc <= fd else (d, fd)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
        x, v = (c, fc) if fc <= fd else (d, fd)
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


def minimize_log_scale(fn, lo: float, hi: float, n_points: int, iters: int) -> tuple[float, float]:
    """Minimum of fn between lo and hi (both positive): an n_points log-spaced
    coarse scan, then iters golden-section steps on log x between the
    neighbours of the coarse minimum.  Returns the best evaluated (x, fn(x))."""
    coarse_x = np.geomspace(lo, hi, n_points)
    coarse_v = np.array([fn(x) for x in coarse_x])
    i = int(np.argmin(coarse_v))
    best_x, best_v = float(coarse_x[i]), float(coarse_v[i])
    a = coarse_x[max(i - 1, 0)]
    b = coarse_x[min(i + 1, coarse_x.size - 1)]
    if b > a:
        g_x, g_v = _golden_min(lambda u: fn(math.exp(u)), math.log(a), math.log(b), iters)
        if g_v < best_v:
            best_x, best_v = math.exp(g_x), g_v
    return best_x, best_v


def _safe_rate_inverse(rate: GrowthFunction, t: float) -> float | None:
    try:
        return right_inverse(rate, t)
    except (BelowRangeError, UnboundedSearchError):
        return None


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
    golden-section refinement on log R around the coarse minimum (the bound is
    smooth but multimodality is not excluded, hence the seed).  The reported
    optimum is the best evaluated point; DomainError if the bound overflows at
    every one of them.  When prescribed_C is given, the explicit selection
    R = prescribed_C * rate_inverse(t) is also evaluated and recorded (with
    N = None and admissible False where its bound overflows).
    """
    _check_variant(variant)
    if not (math.isfinite(t) and t >= 1.0):
        raise DomainError(f"translation t must be >= 1, got {t}")
    if not R_max >= 1.0:
        raise DomainError(f"R_max must be >= 1, got {R_max}")
    eps_eff = _effective_eps(eps, variant)
    rate = m_k(m, k) if k is not None else m_log(m)
    rate_inv = _safe_rate_inverse(rate, t)

    R_lo = 1.0
    gate = 2.0 * (math.log(t) - math.log(m.m0)) / eps_eff
    if gate > R_lo:
        R_lo = gate * (1.0 + 1e-9)

    base = dict(
        m_spec=m.label,
        k_spec=None if k is None else k.label,
        variant=variant,
        t=float(t),
        epsilon=eps_eff,
    )
    prescribed_fields: dict = {}
    if prescribed_C is not None:
        if not prescribed_C > 0:
            raise ConfigurationError(f"prescribed_C must be positive, got {prescribed_C}")
        if rate_inv is not None and prescribed_C * rate_inv >= 1.0:
            prescribed_R = prescribed_C * rate_inv
            prescribed_N, prescribed_adm = bound_rhs(m, prescribed_R, t, eps, variant, k)
            if not math.isfinite(prescribed_N):  # the overflow sentinel is no bound
                prescribed_N, prescribed_adm = None, False
            prescribed_fields = dict(prescribed_R=prescribed_R, prescribed_N=prescribed_N,
                                prescribed_admissible=prescribed_adm)
        else:
            prescribed_fields = dict(prescribed_R=None, prescribed_N=None, prescribed_admissible=False)

    if R_lo > R_max:
        return WitnessCertificate(
            **base, R_star=None, N=None, admissible=False,
            implied_floor=None, rate_comparison=None, **prescribed_fields,
        )

    def objective(R: float) -> float:
        return bound_rhs(m, R, t, eps, variant, k)[0]

    if R_lo == R_max:
        best_R, best_N = R_lo, objective(R_lo)
    else:
        best_R, best_N = minimize_log_scale(objective, R_lo, R_max, 64, 70)
    if not math.isfinite(best_N):
        raise DomainError(
            f"the two-term bound overflows at every evaluated admissible R in "
            f"[{R_lo:.6g}, {R_max:.6g}] for t = {t:g}: no finite certificate exists"
        )

    floor = 1.0 / best_N if best_N > 0 else None
    comparison = None if rate_inv is None or rate_inv <= 0 else best_N / rate_inv
    return WitnessCertificate(
        **base,
        R_star=best_R,
        N=best_N,
        admissible=True,
        implied_floor=floor,
        rate_comparison=comparison,
        **prescribed_fields,
    )


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
    metadata is missing).
    """
    _check_variant(variant)
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size == 0 or np.any(ts < 1.0) or np.any(np.diff(ts) <= 0.0):
        raise DomainError("t_grid must be increasing with all entries >= 1")
    if variant == "derivative":
        env = m.envelope
        if env is None or not env.has_lower():
            raise ConfigurationError(
                "derivative-variant diagnostics need the growth function's "
                "polynomial lower envelope (beta) to form c = 1 + 1/beta"
            )
        c_ref = 1.0 + 1.0 / env.beta
    else:
        c_ref = 1.0
    rate = m_k(m, k) if k is not None else m_log(m)

    certs = []
    ratios = []
    for t in ts:
        cert = optimize_R(m, float(t), eps, k=k, variant=variant, R_max=R_max,
                          prescribed_C=prescribed_C)
        certs.append(cert)
        denom = _safe_rate_inverse(rate, c_ref * float(t))
        if cert.N is None or denom is None or denom <= 0:
            ratios.append(math.nan)
        else:
            ratios.append(cert.N / denom)
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


def calibration_lattice(
    m: GrowthFunction,
    eps: float,
    variant: str = "plain",
) -> list[tuple[float, float]]:
    """Declared admissible (R, t) lattice: log-spaced R, and per R a log-spaced
    t column capped by admissibility (with margin), by exponent finiteness,
    and by an absolute roof."""
    eps_eff = _effective_eps(eps, variant)
    pairs = []
    for R in np.geomspace(8.0, 120.0, _LATTICE_SIZE):
        t_cap = min(
            0.9 * m.m0 * math.exp(min(eps_eff * R / 2.0, 600.0)),
            600.0 * m(R / 2.0),
            1e6,
        )
        if t_cap < 1.0:
            continue
        for t in np.geomspace(1.0, t_cap, _LATTICE_SIZE):
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
    freeze kappa = _KAPPA_MARGIN * that maximum."""
    _check_variant(variant)
    pairs = calibration_lattice(m, eps, variant)
    ratios = []
    for R, t in pairs:
        w = modulated_translate(kernel, R, t)
        total = x_norm(w, m, k=k, variant=variant).total
        value, admissible = bound_rhs(m, R, t, eps, variant, k)
        if not admissible:
            raise ConstructionError(
                f"calibration lattice produced an inadmissible pair (R={R}, t={t})"
            )
        ratios.append(total / value)
    ratios_arr = np.asarray(ratios)
    max_ratio = float(np.max(ratios_arr))
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
