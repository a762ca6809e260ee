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

from .errors import (
    BelowRangeError,
    ConfigurationError,
    ConstructionError,
    DomainError,
    UnboundedSearchError,
)
from .growth import GrowthFunction, lower_rate_constant, m_k, m_log, right_inverse
from .logscale import refine_log_scale
from .specialfn import StripKernel
from .xforms import SampledComplexFunction, _nonzero_span, laplace_many

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
    lo, hi = _nonzero_span(base.values)
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
_BAND_STEPS = np.arange(121.0)  # aranges of the band, probe, ladder and chunk rows
_PROBE_STEPS = np.arange(13.0)
_LADDER_STEPS = np.arange(8.0)
_CHUNK_STEPS = np.arange(7.0)
_STOP_LOG = math.log(1e-3)  # a chunk below the running sup by this much stops the extension
_BOUND_RTOL = 1e-12  # relative rounding allowance of a row bound's non-monotone terms
_MAX_PAIRS = 512  # pairs per integrand call, to the end of a row: (pairs, 66) arrays of ~0.3 MB


def _linspace(start, stop, steps: np.ndarray) -> np.ndarray:
    """np.linspace(start, stop, steps.size), bit for bit: the same arithmetic
    (arange * step + start, then the end point set) over a cached arange.
    start and stop may also be (n, 1) columns: one linspace per row."""
    out = steps * ((stop - start) / (steps.size - 1))
    out += start
    out[..., -1:] = stop
    return out


def _geomspace(lo, hi, steps: np.ndarray) -> np.ndarray:
    """np.geomspace(lo, hi, steps.size) for 0 < lo < hi, bit for bit; hi
    may also be an (n, 1) column: one geomspace per row."""
    ends = np.empty(np.shape(hi) + (2,))
    ends[..., 0], ends[..., 1] = lo, hi
    np.log10(ends, out=ends)
    out = np.power(10.0, _linspace(ends[..., 0], ends[..., 1], steps))
    out[..., :1], out[..., -1:] = lo, hi
    return out


def _main_rows(eps: float, grid_R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the grids of the modulations grid_R (1-d), grid by grid
    in one flat array, with each grid's count of main rows: np.unique of its
    band, probes and ladder (copies of the last probe where banded_grid_sup
    lays no ladder), then its first chunk.  All grids take the same steps at
    once: their 142 rows sorted, each row equal to the one before dropped."""
    n, lo, half_band = grid_R.size, 4.0 / eps, 6.0 / eps
    R = grid_R[:, None]
    band = _linspace(R - half_band, R + half_band, _BAND_STEPS)
    probes = np.broadcast_to(_linspace(-lo, lo, _PROBE_STEPS), (n, _PROBE_STEPS.size))
    ladder = np.full((n, _LADDER_STEPS.size), lo)
    has_ladder = grid_R - half_band > lo * 1.01
    ladder[has_ladder] = _geomspace(lo, R[has_ladder] - half_band, _LADDER_STEPS)
    rows = np.sort(np.concatenate([band, probes, ladder], axis=1))
    rows = np.concatenate([rows, _chunk_rows(rows[:, -1], eps)], axis=1)
    keep = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 1:-6], rows[:, :-7], out=keep[:, 1:-6])
    return rows[keep], keep.sum(axis=1) - 6


def _chunk_rows(top, eps: float) -> np.ndarray:
    """The 6 extension rows above height top: linspace(top, top + 6/eps, 7)[1:];
    for a 1-d array of tops, one such row of 6 per top."""
    start = np.asarray(top, dtype=float)[..., None]
    return _linspace(start, start + 6.0 / eps, _CHUNK_STEPS)[..., 1:]


def _row_points(left, right, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map row fractions to a (rows, fractions) array of points at heights y,
    returned with the (rows, 1) column of their heights; left and right are
    the rows' half-widths, a right half-width that is one number for every
    row (the shift model's REGION_CAP) is scaled once."""
    xs = np.where(_LEFT_COLUMNS, np.multiply.outer(left, _ROW_FRACTIONS),
                  np.multiply.outer(right, _ROW_FRACTIONS))
    col = y[:, None]
    return xs + 1j * col, col


def _no_row_bound(left, right, y, m_y, r, rows, slices) -> np.ndarray:
    return np.full(rows.shape, math.inf)


def _pairs(slices: np.ndarray, slice_grid: np.ndarray, start: np.ndarray,
           count: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each of the slices with every row of its own grid, slice by slice
    (grid g's rows are start[g] to start[g] + count[g]): the pairs' row and
    slice indices, and the index of each slice's first pair."""
    grid = slice_grid[slices]
    lens = count[grid]
    begin = np.cumsum(lens) - lens
    rows = np.arange(int(lens.sum())) + np.repeat(start[grid] - begin, lens)
    return rows, np.repeat(slices, lens), begin


def _reaching(bound: np.ndarray, level: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """The rows that some pair must evaluate: those holding a pair whose
    bound is not below the pair's level (a nan bound included)."""
    need = np.zeros(n_rows, dtype=bool)
    need[rows[~(bound < level)]] = True
    return need


def banded_grid_sup(log_integrand, eps: float, R, m: GrowthFunction,
                    right: float | None = None) -> tuple[np.ndarray, dict]:
    """Length-k array of the logs of the grid-sups of k weighted transform
    moduli over the region -1/M(|Im lam|) < Re lam < right of the growth
    function m (the lens |Re lam| < 1/M(|Im lam|) where right is None).
    R holds each slice's modulation.  Slices with equal R share one grid,
    every distinct R has a grid of its own, and all grids are laid out and
    evaluated together, each numpy call once for all of them; a call for
    one grid is a batch of one.

    Row layout, one rule for every grid: the main rows are np.unique of a
    dense band linspace(R - 6/eps, R + 6/eps, 121) around Im lam = R, where
    the modulated transform lives, the probes linspace(-4/eps, 4/eps, 13)
    and, where R - 6/eps > 1.01 * 4/eps, the ladder geomspace(4/eps, R -
    6/eps, 8) between them; chunks of 6 rows extend them upward until the
    outermost chunk contributes less than 1e-3 of the running supremum.
    Within the region the transform's argument stays inside the window
    where its log-modulus decays like -2 cosh(eps (y - R)), so the supremum
    provably localizes near y = R.  M(|Im lam|) is evaluated once per row
    set (the main rows of every grid with their first chunks, then each
    round of later chunks); half-widths 1/M, row bounds and integrand read
    it.

    The integrand is evaluated on (slice, row) pairs, a slice only on the
    rows of its own grid: ``log_integrand(pts, y, m_y, r, rows, slices)``
    maps a (n, columns) array of complex points on n rows, the (n, 1)
    columns of their heights Im lam, of M(|Im lam|) and of their grid's
    modulation R, and the pairs' row indices (into the n rows) and slice
    indices to a (pairs, columns) array of log-space values, forming
    factors of the row once per row.  Each value must depend on its own
    point and slice alone.  Pairs go to the integrand row by row, in calls
    of whole rows of about 512 pairs (a call ends with the row that crosses
    512), so every row is handed in once per row set and no call builds a
    (pairs, columns) array much above 0.3 MB.

    Row bounds: an integrand may carry ``row_bound(left, right, y, m_y, r,
    rows, slices)``, mapping the rows' half-widths, heights, M and R (1-d,
    right possibly one number) and the pairs to one bound per pair that is
    at least every value the integrand computes for that pair, as computed:
    the bound carries its own rounding margin (_LogWeightedModuli raises
    each of its terms whose rounding is not monotone by 1e-12 of itself,
    and relies on the monotone rounding of +, - and * for the rest).  Only
    the rows whose bound is not below the running supremum are evaluated,
    for every slice of their grid: first the rows of each slice's largest
    bound on the main rows, then every main row whose bound reaches the
    supremum those gave and every row of the first chunk whose bound
    reaches that supremum times 1e-3, and in each later chunk the rows whose
    bound reaches the stopping threshold of a slice that has not settled.
    A skipped row holds no value at or above the level it missed, and that
    level is at most the final one, so every supremum and every stopping
    decision is bit for bit the one of the full grid.  A missing bound is
    +inf on every pair, and so is any bound that never prunes: then every
    row is evaluated; a nan bound also evaluates its row.

    Grids do not interact: each keeps its own rows, pruning, extension
    chunks and cap, so every slice's supremum, and each grid's points and
    extensions, are bit for bit those of a call for its grid alone, and
    within a grid those of a stack of that slice alone.  A slice that has
    stopped ignores later chunks.  A slice that has not settled after 60
    extensions of its grid has no certified supremum and gets +inf; the
    others keep theirs.  ``meta`` lists each grid's ``band_centers`` (its
    R, in the order R first names it), ``grid_n_points`` (the points
    evaluated, (rows + 6 (1 + extensions)) times the 66 row fractions where
    no row is pruned) and ``grid_extensions`` (the largest extension count
    of any of its slices), and gives the whole call's ``n_points`` and
    ``extensions``, their sums.
    """
    grid_of: dict[float, int] = {}  # the grids in order of first appearance
    slice_grid = np.array([grid_of.setdefault(R_j, len(grid_of))
                           for R_j in np.asarray(R, dtype=float).tolist()], dtype=int)
    grid_R = np.array(list(grid_of))
    log_sup, grid_points, grid_extensions = _grid_sups(log_integrand, eps, grid_R, slice_grid,
                                                       m, right)
    meta = {
        "grid": "banded-ladder",
        "band_centers": grid_R.tolist(),
        "band_half_width": 6.0 / eps,
        "ladder_depth": 41,
        "grid_n_points": grid_points.tolist(),
        "grid_extensions": grid_extensions.tolist(),
        "n_points": int(grid_points.sum()),
        "extensions": int(grid_extensions.sum()),
    }
    return log_sup, meta


def _grid_sups(log_integrand, eps: float, grid_R: np.ndarray, slice_grid: np.ndarray,
               m: GrowthFunction, right: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """banded_grid_sup on the grids of modulations grid_R: the log sups of
    the slices of the integrand (slice j on grid slice_grid[j]), and each
    grid's points and extensions."""
    row_bound = getattr(log_integrand, "row_bound", _no_row_bound)
    n_grids = grid_R.size
    grid_points = np.zeros(n_grids, dtype=int)
    grid_extensions = np.zeros(n_grids, dtype=int)

    def row_set(y, row_grid, start, count, slices):
        """The rows y (grid by grid, row_grid[i] the grid of row i) with M,
        their left half-widths and R, the pairs of the slices with their own
        grid's rows, and the pairs' row bounds."""
        m_y = m(np.abs(y))
        left = 1.0 / m_y
        r = grid_R[row_grid]
        pairs = _pairs(slices, slice_grid, start, count)
        bound = row_bound(left, left if right is None else right, y, m_y, r, *pairs[:2])
        return (y, row_grid, m_y, left, r), pairs, bound

    def maxima(rowset, pairs, chosen, out):
        """Store in out the maxima of the integrand on the pairs whose row is
        chosen.  The pairs go row by row, in calls of whole rows (all slices
        of a row in one call, so the integrand forms each row's terms once)
        that start a new call at the first row past every _MAX_PAIRS pairs."""
        y, row_grid, m_y, left, r = rowset
        rows, slices, _ = pairs
        np.add(grid_points, np.bincount(row_grid[chosen], minlength=n_grids) * _ROW_FRACTIONS.size,
               out=grid_points)
        on = np.flatnonzero(chosen[rows])
        on = on[np.argsort(rows[on], kind="stable")]
        on_rows = rows[on]
        new_row = np.diff(on_rows, prepend=-1) != 0
        firsts = np.flatnonzero(new_row)  # each chosen row's first pair
        at_all = on_rows[firsts]
        local = np.cumsum(new_row) - 1  # each pair's row among at_all
        cuts = firsts[np.diff(firsts // _MAX_PAIRS, prepend=-1) > 0].tolist() + [on.size]
        for lo, hi in zip(cuts, cuts[1:]):
            at = at_all[local[lo]:local[hi - 1] + 1]
            pts, col = _row_points(left[at], left[at] if right is None else right, y[at])
            values = log_integrand(pts, col, m_y[at, None], r[at, None], local[lo:hi] - local[lo],
                                   slices[on[lo:hi]])
            out[on[lo:hi]] = values.max(axis=-1)

    y, n_main = _main_rows(eps, grid_R)
    count = n_main + 6
    start = np.cumsum(count) - count
    top = y[start + n_main - 1]
    row_grid = np.repeat(np.arange(n_grids), count)
    rowset, pairs, bound = row_set(y, row_grid, start, count, np.arange(slice_grid.size))
    rows, slices, begin = pairs
    main = (np.arange(y.size) < (start + n_main)[row_grid])[rows]  # pairs on main rows

    def per_slice(values, on):
        """Each slice's largest value on its pairs where on."""
        return np.maximum.reduceat(np.where(on, values, -math.inf), begin)

    first = _reaching(bound, per_slice(bound, main)[slices], rows, y.size)
    row_sup = np.full(rows.size, -math.inf)
    maxima(rowset, pairs, first, row_sup)
    log_sup = per_slice(row_sup, main)
    level = log_sup[slices]
    rest = _reaching(bound, np.where(main, level, level + _STOP_LOG), rows, y.size)
    rest &= ~first
    if rest.any():
        maxima(rowset, pairs, rest, row_sup)
        log_sup = per_slice(row_sup, main)
    extra_log = per_slice(row_sup, ~main)
    unsettled = np.ones(log_sup.shape, dtype=bool)  # slices whose sup may still grow
    chunk = np.full(n_grids, 6)
    for i in range(60):
        if i > 0:
            live = np.flatnonzero(unsettled)
            grids = np.unique(slice_grid[live])
            start = np.zeros(n_grids, dtype=int)
            start[grids] = 6 * np.arange(grids.size)
            y = _chunk_rows(top[grids], eps).ravel()
            rowset, pairs, bound = row_set(y, np.repeat(grids, 6), start, chunk, live)
            rows, slices, begin = pairs
            row_sup = np.full(rows.size, -math.inf)
            maxima(rowset, pairs, _reaching(bound, log_sup[slices] + _STOP_LOG, rows, y.size),
                   row_sup)
            extra_log = np.full(log_sup.shape, -math.inf)
            extra_log[live] = np.maximum.reduceat(row_sup, begin)
        unsettled &= ~(extra_log <= log_sup + _STOP_LOG)
        if not unsettled.any():
            break
        log_sup = np.where(unsettled & (extra_log > log_sup), extra_log, log_sup)
        grids = np.unique(slice_grid[unsettled])
        top[grids] += 6.0 / eps
        grid_extensions[grids] += 1
    else:
        log_sup = np.where(unsettled, math.inf, log_sup)
    return log_sup, grid_points, grid_extensions


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
    """L1, and per t of ts: sup|f| + sup|f'| (|kernel| and |iR kernel +
    kernel'| on the kernel samples, formed once per distinct R) and the log
    weighted sup, at modulation R (one number for every t, or one per t) on
    one banded_grid_sup call with one grid per distinct R, with the call's
    meta."""
    slice_R = np.broadcast_to(np.asarray(R, dtype=float), (len(ts),)).tolist()
    w1inf = {R_j: kernel.linf_norm + float(np.max(kernel.witness_derivative_moduli(R_j)))
             for R_j in dict.fromkeys(slice_R)}
    log_integrands = _LogWeightedModuli(kernel, ts, lam=variant == "derivative", weight=k)
    log_sups, meta = banded_grid_sup(log_integrands, kernel.epsilon, slice_R, m)
    return kernel.l1_norm, [w1inf[R_j] for R_j in slice_R], log_sups, meta


class _LogWeightedModuli:
    """banded_grid_sup integrand of weighted transform suprema, with its row
    bound: one slice per translation t of the sequence ts, at its own
    grid's modulation R (banded_grid_sup hands in each row's R), the log of
    |e^{-lam t} K(lam - iR)| / W(|Im lam|), so translations by huge t cannot
    overflow; W is ``weight``, or else the region's M, which banded_grid_sup
    hands in.  Two forms share it.  x_norm's (boundary None) adds log|lam|
    after the weight where ``lam`` is set (the derivative weighting).  The
    shift model's (``boundary`` one (log b, log |f(0)|) pair per t, ``lam``
    set) bounds the transform of the half-line witness derivative,
    lam f_hat(lam) - f(0), termwise: log|lam| + the transform, logaddexp
    log|lam| + log b, logaddexp log|f(0)|, then the weight; a term of -inf
    is skipped, which leaves logaddexp unchanged to the bit.  What depends
    on the row alone (the kernel term at y - R, log|lam|, the weight) is
    formed once per row, for every slice on it; per (slice, row) pair there
    remain -x*t and the sums, in the same order for every pair, so each
    slice is bit for bit the integrand of ts = [t] alone on its grid.

    row_bound runs the same sums on per-row bounds of the terms, over the
    row's x in [-left, right]: -x*t <= left*t, the kernel term by
    StripKernel.log_modulus_transform_bound, log|lam| <= log hypot(max(left,
    right), y), and the weight itself.  Each bound is at least every value
    the row computes for its term: the first two and the weight exactly,
    log|lam| and each logaddexp once raised by _raised past their own
    rounding of a few ulps.  Rounded +, - and * by t > 0 are monotone, so
    the sums keep that order, and the bound is at least every computed value
    on the row."""

    def __init__(self, kernel: StripKernel, ts: Sequence[float], *, lam: bool,
                 weight: GrowthFunction | None = None,
                 boundary: Sequence[tuple[float, float]] | None = None):
        self.kernel, self.weight, self.lam = kernel, weight, lam
        self.ts = np.asarray(ts, dtype=float)
        self.boundary = None if boundary is None else np.asarray(boundary, dtype=float)

    def __call__(self, pts: np.ndarray, y: np.ndarray, m_y: np.ndarray, r: np.ndarray,
                 rows: np.ndarray, slices: np.ndarray) -> np.ndarray:
        x = pts.real
        log_kt = self.kernel.log_modulus_transform_xy(x, y - r)
        log_lam = None
        if self.lam:
            with np.errstate(divide="ignore"):
                log_lam = np.log(np.abs(pts))
        return self._sums(-x, log_kt, log_lam, self._log_weight(y, m_y), rows, slices,
                          np.logaddexp)

    def row_bound(self, left, right, y: np.ndarray, m_y: np.ndarray, r: np.ndarray,
                  rows: np.ndarray, slices: np.ndarray) -> np.ndarray:
        log_kt = self.kernel.log_modulus_transform_bound(np.negative(left), right, y - r)
        log_lam = None
        if self.lam:
            log_lam = np.maximum(left, right)
            np.hypot(log_lam, y, out=log_lam)
            log_lam = _raised(np.log(log_lam, out=log_lam), out=log_lam)
        with np.errstate(invalid="ignore"):  # inf - inf: a nan bound evaluates its row
            return self._sums(left, log_kt, log_lam, self._log_weight(y, m_y), rows, slices,
                              lambda a, b: _raised(np.logaddexp(a, b)))

    def _log_weight(self, y: np.ndarray, m_y: np.ndarray) -> np.ndarray:
        return np.log(m_y if self.weight is None else self.weight(np.abs(y)))

    def _sums(self, neg_x, log_kt, log_lam, log_w, rows, slices, logaddexp) -> np.ndarray:
        """The per-pair sums of the per-row terms: pair p is slice slices[p]
        on row rows[p]."""
        column = (-1,) + (1,) * (neg_x.ndim - 1)  # a slice's number against its row's columns
        total = neg_x[rows]
        np.multiply(total, self.ts[slices].reshape(column), out=total)
        np.add(total, log_kt[rows], out=total)
        if self.boundary is None:
            np.subtract(total, log_w[rows], out=total)
            if log_lam is not None:
                np.add(total, log_lam[rows], out=total)
            return total
        np.add(log_lam[rows], total, out=total)
        for log_c, times_lam in ((self.boundary[:, 0], True), (self.boundary[:, 1], False)):
            finite = log_c > -math.inf
            if finite.any():
                on = finite[slices]
                term = log_c[slices[on]].reshape(column)
                if times_lam:
                    term = log_lam[rows[on]] + term
                total[on] = logaddexp(total[on], term)
        np.subtract(total, log_w[rows], out=total)
        return total


def _raised(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v raised past a rounding error of a few ulps of itself (finite, or +inf),
    into out if given."""
    slack = np.abs(v)
    np.add(1.0, slack, out=slack)
    np.multiply(_BOUND_RTOL, slack, out=slack)
    return np.add(v, slack, out=out)


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


# optimize_R's closed form is cheap, so it refines to rounding: at t = 1e6
# the bound is flat to rounding over 1e-8 in R, where _BRENT_XTOL would stop
_OPTIMIZE_R_XTOL = (1e-15, 0.0)


def _rate_inverse(rate: GrowthFunction, t: float) -> tuple[float | None, bool]:
    """right_inverse(rate, t), or None where there is none, and whether the
    rate stays below t up to s = 2**60, where right_inverse stops searching
    (so the rate inverse lies above 2**60)."""
    try:
        return right_inverse(rate, t), False
    except BelowRangeError:
        return None, False
    except UnboundedSearchError:
        return None, True


def _safe_rate_inverse(rate: GrowthFunction, t: float) -> float | None:
    return _rate_inverse(rate, t)[0]


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
    _check_R_max(R_max)
    if prescribed_C is not None and not (math.isfinite(prescribed_C) and prescribed_C > 0):
        raise ConfigurationError(
            f"prescribed_C must be a finite positive number, got {prescribed_C}")
    eps_eff = _effective_eps(eps, variant)
    rate = m_k(m, k) if k is not None else m_log(m)
    rate_invs = [_rate_inverse(rate, t) for t in ts]
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
        value, admissible = bound_rhs(m, R, t, eps, variant, k)
        if not admissible:
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
