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

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    BelowRangeError,
    ConfigurationError,
    ConstructionError,
    DomainError,
    UnboundedSearchError,
)
from .growth import GrowthFunction, lower_rate_constant, m_k, m_log, right_inverse
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


def _check_R_t(R: float, t: float) -> None:
    """A witness's modulation R and translation t are finite and >= 1."""
    if not (math.isfinite(R) and R >= 1.0):
        raise DomainError(f"modulation frequency R must be >= 1, got {R}")
    if not (math.isfinite(t) and t >= 1.0):
        raise DomainError(f"translation t must be >= 1, got {t}")


def _check_R_max(R_max: float) -> None:
    """The top of a search range for the modulation R is finite and >= 1."""
    if not (math.isfinite(R_max) and R_max >= 1.0):
        raise DomainError(f"R_max must be a finite number >= 1, got {R_max}")


def _effective_eps(eps: float, variant: str) -> float:
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


def modulated_translate(kernel: StripKernel, R: float, t: float) -> Witness:
    """Build the witness with modulation R and translation t (both >= 1).

    The sampled values come from the kernel grid shifted by t, so the L1 and
    sup norms are exactly translation-invariant.  The closed-form transform
    identity is verified against quadrature at _N_CHECK seeded points on the
    imaginary axis (which lies in every weighting region); disagreement beyond
    _CHECK_TOL (relative to max(1, |closed|)) is a construction error.
    """
    _check_R_t(R, t)
    base = kernel.samples
    # modulate only the run between the first and last nonzero kernel
    # samples; outside it the witness is an exact (unsigned) zero
    nonzero = np.flatnonzero(base.values)
    lo, hi = nonzero[0], nonzero[-1] + 1
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


#: Fractions of the half-width 1/M(|y|) at which each row is sampled.
#: The weighted integrand on a row peaks against the open left boundary
#: Re lam = -1/M(|y|) (where e^{-Re lam * t} is largest), so a geometric
#: ladder accumulates there; a shorter ladder covers the right boundary and
#: a uniform interior fill guards against weight-driven interior maxima.
#: All fractions have modulus < 1, keeping every point strictly inside the
#: region |Re lam| < 1/M(|Im lam|).
_ROW_FRACTIONS = np.concatenate([
    -(1.0 - np.exp2(-np.arange(41, dtype=float))),
    1.0 - np.exp2(-np.arange(1.0, 13.0)),
    np.linspace(-0.9, 0.9, 13),
])
_LEFT_COLUMNS = _ROW_FRACTIONS < 0.0  # columns scaled by the left half-width
_BAND_STEPS = np.arange(121.0)  # aranges of the band, ladder and chunk rows
_LADDER_STEPS = np.arange(8.0)
_CHUNK_STEPS = np.arange(7.0)
_STOP_LOG = math.log(1e-3)  # a chunk below the running sup by this much stops the extension
_BOUND_RTOL = 1e-12  # relative rounding allowance of a row bound's non-monotone terms


def _linspace(start: float, stop: float, steps: np.ndarray) -> np.ndarray:
    """np.linspace(start, stop, steps.size), bit for bit: the same arithmetic
    (arange * step + start, then the end point set) over a cached arange."""
    out = steps * ((stop - start) / (steps.size - 1))
    out += start
    out[-1] = stop
    return out


def _geomspace(lo: float, hi: float, steps: np.ndarray) -> np.ndarray:
    """np.geomspace(lo, hi, steps.size) for 0 < lo < hi, bit for bit."""
    log_lo, log_hi = np.log10(np.array([lo, hi]))
    out = np.power(10.0, _linspace(log_lo, log_hi, steps))
    out[0], out[-1] = lo, hi
    return out


@functools.lru_cache(maxsize=16)
def _probe_rows(eps: float) -> np.ndarray:
    rows = np.linspace(-4.0 / eps, 4.0 / eps, 13)
    rows.flags.writeable = False
    return rows


def _banded_rows(eps: float, R: float) -> np.ndarray:
    """The sorted main rows: np.unique of the band linspace(R - 6/eps,
    R + 6/eps, 121), the probes linspace(-4/eps, 4/eps, 13) and, where
    R - 6/eps > 1.01 * 4/eps, the ladder geomspace(4/eps, R - 6/eps, 8).
    The ladder starts on the last probe and ends on the first band row, so
    where the band's step exceeds four ulps of its rows (they then strictly
    increase) the pieces are already sorted and unique and are joined
    without a sort."""
    half_band = 6.0 / eps
    band = _linspace(R - half_band, R + half_band, _BAND_STEPS)
    probe = _probe_rows(eps)
    lo, hi = 4.0 / eps, R - half_band
    separated = 4.0 * math.ulp(R + half_band) < half_band / 60.0
    if separated and hi > lo * 1.01:
        return np.concatenate([probe, _geomspace(lo, hi, _LADDER_STEPS)[1:-1], band])
    if separated and probe[-1] < band[0]:
        return np.concatenate([probe, band])
    rows = [band, probe]
    if hi > lo * 1.01:
        rows.append(_geomspace(lo, hi, _LADDER_STEPS))
    return np.unique(np.concatenate(rows))


def _chunk_rows(top: float, eps: float) -> np.ndarray:
    """The 6 extension rows above height top: linspace(top, top + 6/eps, 7)[1:]."""
    return _linspace(top, top + 6.0 / eps, _CHUNK_STEPS)[1:]


def _row_points(left, right, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map row fractions to a (rows, fractions) array of points at heights y,
    returned with the (rows, 1) column of their heights; left and right are
    the rows' half-widths, a right half-width that is one number for every
    row (the shift model's REGION_CAP) is scaled once."""
    xs = np.where(_LEFT_COLUMNS, np.multiply.outer(left, _ROW_FRACTIONS),
                  np.multiply.outer(right, _ROW_FRACTIONS))
    col = y[:, None]
    return xs + 1j * col, col


def _no_row_bound(left, right, y: np.ndarray, m_y: np.ndarray) -> np.ndarray:
    return np.full((1,) + y.shape, math.inf)  # broadcasts against any stack


def banded_grid_sup(log_integrand, eps: float, R: float, m: GrowthFunction,
                    right: float | None = None) -> tuple[np.ndarray, dict]:
    """Length-k array of the logs of the grid-sups of k weighted transform
    moduli over the region -1/M(|Im lam|) < Re lam < right of the growth
    function m (the lens |Re lam| < 1/M(|Im lam|) where right is None).
    M(|Im lam|) is evaluated once per row set (the main rows with the first
    chunk, then each later chunk); half-widths 1/M, row bounds and integrand
    read it.

    Row layout: a dense band around Im lam = R where the modulated transform
    lives, sparse probe rows elsewhere, extended upward in chunks of 6 rows
    until the outermost chunk contributes less than 1e-3 of the running
    supremum.  Within the region the transform's argument stays inside the
    window where its log-modulus decays like -2 cosh(eps (y - R)), so the
    supremum provably localizes near y = R.  ``log_integrand(pts, y, m_y)``
    maps a (rows, columns) array of complex points and the (rows, 1) columns
    of their heights Im lam and of M(|Im lam|) to a (k, rows, columns) stack
    of log-space values, forming factors of the height once per row.  Each
    value must depend on its own point alone.

    Row bounds: an integrand may carry ``row_bound(left, right, y, m_y)``,
    mapping the rows' half-widths, heights and M (1-d, right possibly one
    number) to a (k, rows) bound that is at least every value the integrand
    computes on that row, as computed: the bound carries its own rounding
    margin (_LogWeightedModuli raises each of its terms whose rounding is
    not monotone by 1e-12 of itself, and relies on the monotone rounding of
    +, - and * for the rest).  Only the rows whose bound is not below the
    running supremum are evaluated: first the rows of each slice's largest
    bound on the main rows, then every main row whose bound reaches the
    supremum those gave and every row of the first chunk whose bound reaches
    that supremum times 1e-3, and in each later chunk the rows whose bound
    reaches the stopping threshold of a slice that has not settled.  A
    skipped row holds no value at or above the level it missed, and that
    level is at most the final one, so every supremum and every stopping
    decision is bit for bit the one of the full grid.  A missing bound is
    +inf on every row, and so is any bound that never prunes: then, as
    before bounds existed, the main rows and the first chunk go to one
    integrand call and each later chunk to one call of its own; a nan bound
    also evaluates its row.

    The rows depend on R alone, so the slices share the grid (the shift
    model stacks one per time tau, x_norm and calibrate_kappa one per
    translation t), and each slice's supremum is bit for bit what a stack
    of that slice alone gets.  A call evaluates the union of the rows its
    slices need; a slice that has stopped ignores later chunks.  A slice
    that has not settled after 60 extensions has no certified supremum and
    gets +inf; the others keep theirs.  ``meta`` describes the shared grid:
    ``extensions`` is the largest extension count of any slice,
    ``n_points`` the points evaluated, (rows + 6 (1 + extensions)) times
    the 66 row fractions where no row is pruned.
    """
    row_bound = getattr(log_integrand, "row_bound", _no_row_bound)
    meta = {
        "grid": "banded-ladder",
        "band_center": R,
        "band_half_width": 6.0 / eps,
        "ladder_depth": 41,
        "extensions": 0,
        "n_points": 0,
    }

    def row_set(y):
        """M on the rows y, their left half-widths and their row bounds."""
        m_y = m(np.abs(y))
        left = 1.0 / m_y
        return m_y, left, row_bound(left, left if right is None else right, y, m_y)

    def row_maxima(y, m_y, left, rows):
        """The (k, rows) maxima of the integrand on the chosen rows."""
        left = left[rows]
        pts, col = _row_points(left, left if right is None else right, y[rows])
        meta["n_points"] += pts.size
        return log_integrand(pts, col, m_y[rows, None]).max(axis=-1)

    y_main = _banded_rows(eps, R)
    n_main = y_main.size
    top = float(y_main[-1])
    y = np.concatenate([y_main, _chunk_rows(top, eps)])
    m_y, left, bound = row_set(y)
    first = _reaching(bound, bound[:, :n_main].max(axis=-1))
    maxima = row_maxima(y, m_y, left, first)
    row_sup = np.full(maxima.shape[:-1] + y.shape, -math.inf)
    row_sup[:, first] = maxima
    log_sup = row_sup[:, :n_main].max(axis=-1)
    if not first.all():
        rest = np.concatenate([_reaching(bound[:, :n_main], log_sup),
                               _reaching(bound[:, n_main:], log_sup + _STOP_LOG)])
        rest &= ~first
        if rest.any():
            row_sup[:, rest] = row_maxima(y, m_y, left, rest)
            log_sup = row_sup[:, :n_main].max(axis=-1)
    extra_log = row_sup[:, n_main:].max(axis=-1)
    unsettled = np.ones(log_sup.shape, dtype=bool)  # slices whose sup may still grow
    for i in range(60):
        if i > 0:
            y = _chunk_rows(top, eps)
            m_y, left, bound = row_set(y)
            rows = _reaching(bound, log_sup + _STOP_LOG, unsettled)
            extra_log = np.full(log_sup.shape, -math.inf)
            if rows.any():
                extra_log = row_maxima(y, m_y, left, rows).max(axis=-1)
        unsettled &= ~(extra_log <= log_sup + _STOP_LOG)
        if not unsettled.any():
            return log_sup, meta
        log_sup = np.where(unsettled & (extra_log > log_sup), extra_log, log_sup)
        top += 6.0 / eps
        meta["extensions"] += 1
    return np.where(unsettled, math.inf, log_sup), meta


def _reaching(bound: np.ndarray, level: np.ndarray, active=None) -> np.ndarray:
    """The rows that some (active) slice must evaluate: those whose (k, rows)
    bound is not below that slice's level (a nan bound included)."""
    need = ~(bound < level[:, None])
    if active is not None:
        need &= active[:, None]
    return need.any(axis=0)


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
    The parts are calibrate_kappa's with ts = [t]; DomainError where the
    supremum does not localize."""
    _check_variant(variant)
    _check_R_t(R, t)
    weight = k if k is not None else m
    l1, w1inf, log_sups, meta = _class_norm_parts(kernel, R, [t], m, k, variant)
    log_sup = float(log_sups[0])
    if log_sup == math.inf:
        raise DomainError("weighted supremum did not localize in the scanned band")
    sup = _exp_sup(log_sup)
    return NormBreakdown(
        l1=l1,
        w1inf=w1inf,
        weighted_sup=sup,
        variant=variant,
        total=l1 + w1inf + sup,
        meta={**meta, "weight": weight.label, "log_sup": log_sup},
    )


def _class_norm_parts(kernel: StripKernel, R: float, ts: Sequence[float], m: GrowthFunction,
                      k: GrowthFunction | None, variant: str) -> tuple[float, float, np.ndarray, dict]:
    """L1, sup|f| + sup|f'| (|kernel| and |iR kernel + kernel'| on the kernel
    samples, for every t) and the log weighted sups, one per t of ts on one
    banded grid at modulation R, with the grid's meta."""
    w1inf = kernel.linf_norm + float(np.max(kernel.witness_derivative_moduli(R)))
    log_integrands = _LogWeightedModuli(kernel, R, ts, lam=variant == "derivative", weight=k)
    log_sups, meta = banded_grid_sup(log_integrands, kernel.epsilon, R, m)
    return kernel.l1_norm, w1inf, log_sups, meta


class _LogWeightedModuli:
    """banded_grid_sup integrand of a weighted transform supremum at
    modulation R, with its row bound: one (rows, columns) slice per
    translation t of the sequence ts, the log of |e^{-lam t} K(lam - iR)| /
    W(|Im lam|), so translations by huge t cannot overflow; W is
    ``weight``, or else the region's M, which banded_grid_sup hands in.  Two forms share it.  x_norm's (boundary None)
    adds log|lam| after the weight where ``lam`` is set (the derivative
    weighting).  The shift model's (``boundary`` one (log b, log |f(0)|)
    pair per t, ``lam`` set) bounds the transform of the half-line witness
    derivative, lam f_hat(lam) - f(0), termwise: log|lam| + the transform,
    logaddexp log|lam| + log b, logaddexp log|f(0)|, then the weight; a term
    of -inf is skipped, which leaves logaddexp unchanged to the bit.  What
    depends on R alone is formed once for every t; per t there remain -x*t
    and the sums, in the same order for every t, so each slice is bit for
    bit the integrand of ts = [t] alone.

    row_bound runs the same sums on per-row bounds of the terms, over the
    row's x in [-left, right]: -x*t <= left*t, the kernel term by
    StripKernel.log_modulus_transform_bound, log|lam| <= log hypot(max(left,
    right), y), and the weight itself.  Each bound is at least every value
    the row computes for its term: the first two and the weight exactly,
    log|lam| and each logaddexp once raised by _raised past their own
    rounding of a few ulps.  Rounded +, - and * by t > 0 are monotone, so
    the sums keep that order, and the bound is at least every computed value
    on the row."""

    def __init__(self, kernel: StripKernel, R: float, ts: Sequence[float], *, lam: bool,
                 weight: GrowthFunction | None = None,
                 boundary: Sequence[tuple[float, float]] | None = None):
        self.kernel, self.R, self.weight, self.lam = kernel, R, weight, lam
        self.ts = list(ts)
        self.boundary = boundary

    def __call__(self, pts: np.ndarray, y: np.ndarray, m_y: np.ndarray) -> np.ndarray:
        x = pts.real
        log_kt = self.kernel.log_modulus_transform_xy(x, y - self.R)
        log_lam = None
        if self.lam:
            with np.errstate(divide="ignore"):
                log_lam = np.log(np.abs(pts))
        return self._sums(-x, log_kt, log_lam, self._log_weight(y, m_y), np.logaddexp)

    def row_bound(self, left, right, y: np.ndarray, m_y: np.ndarray) -> np.ndarray:
        log_kt = self.kernel.log_modulus_transform_bound(np.negative(left), right, y - self.R)
        log_lam = _raised(np.log(np.hypot(np.maximum(left, right), y))) if self.lam else None
        with np.errstate(invalid="ignore"):  # inf - inf: a nan bound evaluates its row
            return self._sums(left, log_kt, log_lam, self._log_weight(y, m_y),
                              lambda a, b: _raised(np.logaddexp(a, b)))

    def _log_weight(self, y: np.ndarray, m_y: np.ndarray) -> np.ndarray:
        return np.log(m_y if self.weight is None else self.weight(np.abs(y)))

    def _sums(self, neg_x, log_kt, log_lam, log_w, logaddexp) -> np.ndarray:
        out = np.empty((len(self.ts),) + log_kt.shape)
        for i, (row, t) in enumerate(zip(out, self.ts)):
            if self.boundary is None:
                np.subtract(neg_x * t + log_kt, log_w, out=row)
                if log_lam is not None:
                    np.add(row, log_lam, out=row)
                continue
            log_b, log_f0 = self.boundary[i]
            total = log_lam + (neg_x * t + log_kt)
            if log_b > -math.inf:
                total = logaddexp(total, log_lam + log_b)
            if log_f0 > -math.inf:
                total = logaddexp(total, log_f0)
            np.subtract(total, log_w, out=row)
        return out


def _raised(v: np.ndarray) -> np.ndarray:
    """v raised past a rounding error of a few ulps of itself (finite, or +inf)."""
    return v + _BOUND_RTOL * (1.0 + np.abs(v))


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
    if not (math.isfinite(R) and R >= 1.0 and math.isfinite(t) and t >= 1.0):
        raise DomainError(f"bound requires R, t >= 1, got R={R}, t={t}")
    admissible = _admissible(m, R, t, _effective_eps(eps, variant))
    m_half = m(R / 2.0)
    w_half = m_half if k is None else k(R / 2.0)
    expo = t / m_half
    if expo > 700.0:
        return math.inf, admissible
    value = math.exp(expo) / w_half
    if variant == "derivative":
        value *= R
    return R + value, admissible


def _admissible(m: GrowthFunction, R: float, t: float, eps_eff: float) -> bool:
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


_CGOLD = 1.0 - (math.sqrt(5.0) - 1.0) / 2.0  # Brent's golden-section step fraction
# Brent's x tolerance on log x, (relative, absolute): tol = rel |x| + abs/3
_EPS = float(np.finfo(float).eps)
_BRENT_XTOL = (math.sqrt(_EPS), 1e-9)
# optimize_R's closed form is cheap, so it refines to rounding: at t = 1e6
# the bound is flat to rounding over 1e-8 in R, where _BRENT_XTOL would stop
_OPTIMIZE_R_XTOL = (1e-15, 0.0)


def _brent_min(fn, lo: float, hi: float, x: float, fx: float, max_evals: int,
               xtol: tuple[float, float]) -> tuple[float, float]:
    """Brent's bounded minimum of fn on [lo, hi] (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 5), started from x in [lo, hi]
    whose value fx is known.  Each step fits a parabola through the best
    point so far, the second best and the second best before it (Brent's
    x, w, v), and falls back to a golden-section step into the larger part
    of the bracket where the parabola is not trusted; an infinite value
    makes p or q inf or nan, which the acceptance test rejects (values are
    Python floats, so this raises no numpy warning).  Stops on Brent's
    tolerance, once the bracket [a, b] around x has |x - (a + b)/2| <=
    2 tol - (b - a)/2 with tol = rel |x| + abs/3 for xtol = (rel, abs), or
    after max_evals evaluations; fn is never evaluated outside [lo, hi].
    Returns the best (arg, value), x included."""
    rel, atol = xtol
    a, b = lo, hi
    w = v = x
    fw = fv = fx
    d = e = 0.0  # the last step, and the one before it
    for _ in range(max_evals):
        xm = 0.5 * (a + b)
        # floored at the resolution of exp(x) (near x = 0 with no absolute
        # part the tolerance would vanish and the test below never be met)
        tol1 = max(rel * abs(x) + atol / 3.0, _EPS)
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept the parabola's vertex only inside the bracket and for a
            # step under half the one before last (so the steps must shrink)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, xm - x)
                parabolic = True
        if not parabolic:
            e = (a if x >= xm else b) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = float(fn(u))
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def coarse_log_scan(fn, lo: float, hi: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The coarse stage of a log-scale search: fn at n_points log-spaced x
    from lo to hi (both positive), to be refined by refine_log_scale.
    Returns (x, values); when fn returns k values per x (k objectives that
    share the expensive part of one evaluation), values is (k, n_points),
    one row per objective."""
    coarse_x = np.geomspace(lo, hi, n_points)
    return coarse_x, np.array([fn(x) for x in coarse_x]).T


def refine_log_scale(fn, coarse_x: np.ndarray, coarse_v: np.ndarray, iters: int,
                     xtol: tuple[float, float] = _BRENT_XTOL) -> tuple[float, float]:
    """Refine the minimum of coarse_v (one row of coarse_log_scan) by Brent's
    method (_brent_min, x tolerance xtol) on log x between the coarse
    minimum's neighbours (the minimum itself at either end of the scan),
    started from the coarse minimum and its known value.  A smooth objective
    needs about ten evaluations at the default tolerance; iters + 2 is a
    hard cap.  Returns the best evaluated (x, fn(x)), the coarse minimum
    included, so the value never exceeds it."""
    i = int(np.argmin(coarse_v))
    best_x, best_v = float(coarse_x[i]), float(coarse_v[i])
    a = coarse_x[max(i - 1, 0)]
    b = coarse_x[min(i + 1, coarse_x.size - 1)]
    if b > a:
        u, fu = _brent_min(lambda u: fn(math.exp(u)), math.log(a), math.log(b),
                           math.log(best_x), best_v, iters + 2, xtol)
        if fu < best_v:
            best_x, best_v = math.exp(u), fu
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
    Brent's method on log R around the coarse minimum (refine_log_scale, at
    most 72 evaluations, to a relative x tolerance of 1e-15; the bound is
    smooth but multimodality is not excluded, hence the coarse grid).  The
    reported optimum is the best evaluated point; DomainError if the bound
    overflows at every one of them.  When prescribed_C is given, the explicit
    selection R = prescribed_C * rate_inverse(t) is also evaluated and
    recorded (with N = None and admissible False where its bound overflows).
    A non-finite R_max or one below 1, and a non-finite or non-positive
    prescribed_C, are refused before any evaluation.
    """
    _check_variant(variant)
    if not (math.isfinite(t) and t >= 1.0):
        raise DomainError(f"translation t must be >= 1, got {t}")
    _check_R_max(R_max)
    if prescribed_C is not None and not (math.isfinite(prescribed_C) and prescribed_C > 0):
        raise ConfigurationError(
            f"prescribed_C must be a finite positive number, got {prescribed_C}")
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
        coarse_R, coarse_N = coarse_log_scan(objective, R_lo, R_max, 64)
        best_R, best_N = refine_log_scale(objective, coarse_R, coarse_N, 70, _OPTIMIZE_R_XTOL)
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
    metadata is missing).  R_max and prescribed_C are refused as optimize_R
    refuses them, at its first call, before any evaluation.
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

    certs = []
    ratios = []
    for t in ts:
        cert = optimize_R(m, float(t), eps, k=k, variant=variant, R_max=R_max,
                          prescribed_C=prescribed_C)
        certs.append(cert)
        if variant == "plain":  # optimize_R's comparison: N over the inverse rate at t
            ratio = cert.rate_comparison
        else:
            denom = _safe_rate_inverse(rate, c_ref * float(t))
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
    eps_eff = _effective_eps(eps, variant)
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

    The lattice's t columns share their R, so each lattice R forms the norm
    parts of its whole t column on one banded grid (_class_norm_parts, as
    x_norm does for one t): 8 grids instead of 64, and every ratio is bit
    for bit x_norm's total over bound_rhs for its pair.  A slice whose
    supremum does not localize (where x_norm would raise DomainError) gets
    +inf, so the maximum ratio is not finite and the call raises
    DomainError: no finite kappa."""
    _check_variant(variant)
    pairs = calibration_lattice(m, eps, variant)
    if not pairs:
        raise DomainError(
            f"the calibration lattice for {m.label} at eps = {eps:g} is empty: "
            f"no t >= 1 is admissible for any lattice R"
        )
    ratios = []
    for R, group in itertools.groupby(pairs, key=lambda pair: pair[0]):
        ts = [t for _, t in group]
        l1, w1inf, log_sups, _ = _class_norm_parts(kernel, R, ts, m, k, variant)
        for t, log_sup in zip(ts, log_sups.tolist()):
            value, admissible = bound_rhs(m, R, t, eps, variant, k)
            if not admissible:
                raise ConstructionError(
                    f"calibration lattice produced an inadmissible pair (R={R}, t={t})"
                )
            ratios.append((l1 + w1inf + _exp_sup(log_sup)) / value)
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
