"""Regions of the complex plane: ``sample``, a uniform grid over a fixed
strip, and ``banded_grid_sup``, the supremum of a log integrand (the class
norm's ``LogWeightedModuli``) over the lens |Re lam| < 1/M(|Im lam|) of a
growth function M, searched on rows that follow the integrand."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError
from .growth import GrowthFunction
from .specialfn import StripKernel

__all__ = ["sample", "banded_grid_sup", "LogWeightedModuli"]


def sample(half_width: float, y_max: float, nx: int, ny: int) -> np.ndarray:
    """Uniform interior grid of the strip |Re lam| < half_width (1/M(0) for
    a growth function M) as a flat complex array: ny rows of heights in
    [-y_max, y_max], nx real parts per row, spanning (-half_width,
    half_width) inset by one half-step.  A separate object from the lens:
    the strip-decay check reads every point of a fixed strip, while
    banded_grid_sup places and prunes its rows to find a supremum.
    """
    if not (nx >= 1 and ny >= 1):
        raise DomainError("grid needs nx >= 1 and ny >= 1")
    if not y_max >= 0:
        raise DomainError(f"y_max must be non-negative, got {y_max}")
    ys = np.linspace(-y_max, y_max, ny) if ny > 1 else np.array([0.0])
    step = 2.0 * half_width / nx
    xs = -half_width + step * (0.5 + np.arange(nx))
    return (xs[None, :] + 1j * ys[:, None]).ravel()


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
    the bound carries its own rounding margin (LogWeightedModuli raises
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


class LogWeightedModuli:
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
