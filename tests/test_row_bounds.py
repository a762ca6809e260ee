"""banded_grid_sup's row pruning: the exact row layout, the soundness of every
integrand's row bound on full grids, and pruned suprema equal to unpruned
ones, on the inputs of verify, the kappa calibration and the shift model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberlab import checks, growth, regions, semigroup, specialfn, witness

EPS1 = math.pi / 6.0


def _layout_R(eps):
    """Modulations around every edge of the row layout: R = 1; the seven R
    nearest level + 6/eps, so that R - 6/eps falls just below, on (where a
    float R reaches it) and just above each level: 4/eps (the last probe)
    and 1.01 * 4/eps (the ladder's threshold); R in [2^47, 2^50] (the band's
    step under four ulps of its rows); a log-spaced sweep over [1, 1e6]."""
    edges = [1.0]
    for level in (4.0 / eps, 4.0 / eps * 1.01):
        R = level + 6.0 / eps
        edges += [R + k * np.spacing(R) for k in range(-3, 4)]
    return np.concatenate([edges, np.geomspace(2.0 ** 47, 2.0 ** 50, 40),
                           np.geomspace(1.0, 1e6, 300)])


@pytest.mark.parametrize("m0", [0.5, 1.0, 3.0])
def test_row_layout_is_numpys(m0):
    # the rows are built from cached aranges, bit for bit (signs of zero
    # included) what np.linspace, np.geomspace and np.unique give, grid by
    # grid, for one shuffled batch of grids as for each grid alone
    eps = specialfn.build_strip_function(m0).epsilon
    grid_R = _layout_R(eps)
    np.random.default_rng(0).shuffle(grid_R)
    for batch in [grid_R] + [grid_R[i:i + 1] for i in range(grid_R.size)]:
        y, n_main = regions._main_rows(eps, batch)
        assert y.dtype == np.float64 and n_main.shape == batch.shape
        expected, sizes = [], []
        for R in batch.tolist():
            main = _reference_rows(eps, R)
            top = float(main[-1])
            chunk = np.linspace(top, top + 6.0 / eps, 7)[1:]
            assert np.array_equal(regions._chunk_rows(top, eps), chunk)
            expected += [main, chunk]
            sizes.append(main.size)
        expected = np.concatenate(expected)
        assert np.array_equal(y, expected) and np.array_equal(np.signbit(y), np.signbit(expected))
        assert n_main.tolist() == sizes


def _captured_grids(monkeypatch, module, run):
    """Every (integrand, eps, R, m, right) that run() hands to banded_grid_sup
    through module."""
    grids = []
    real = regions.banded_grid_sup

    def capture(log_integrand, eps, R, m, right=None):
        grids.append((log_integrand, eps, R, m, right))
        return real(log_integrand, eps, R, m, right)

    monkeypatch.setattr(module, "banded_grid_sup", capture)
    run()
    monkeypatch.undo()
    return grids


def _check_bounds_and_pruning(grids):
    """(a) On every point of the full grids, each integrand value is at most
    its pair's row bound; (b) the pruned suprema equal the full grids';
    (c) the M values a pruned call gets are, bit for bit, M evaluated on its
    rows."""
    n_rows = [0, 0]
    for log_integrand, eps, R, m, right in grids:
        calls = []

        def unbounded(*args):  # no row_bound: banded_grid_sup evaluates every row
            calls.append(args)
            return log_integrand(*args)

        def pruned_rows(pts, y, m_y, r, rows, slices):
            # the rows' M, taken from M on their whole row set, is M on them alone
            assert np.array_equal(m_y, m(np.abs(y)))
            return log_integrand(pts, y, m_y, r, rows, slices)

        pruned_rows.row_bound = log_integrand.row_bound
        full, full_meta = regions.banded_grid_sup(unbounded, eps, R, m, right)
        pruned, meta = regions.banded_grid_sup(pruned_rows, eps, R, m, right)
        assert np.array_equal(pruned, full)
        assert meta["grid_extensions"] == full_meta["grid_extensions"]
        for pts, y, m_y, r, rows, slices in calls:
            left = 1.0 / m_y[:, 0]
            bound = log_integrand.row_bound(left, left if right is None else right,
                                            y[:, 0], m_y[:, 0], r[:, 0], rows, slices)
            assert np.all(log_integrand(pts, y, m_y, r, rows, slices) <= bound[:, None])
        n_rows[0] += meta["n_points"] // regions._ROW_FRACTIONS.size
        n_rows[1] += full_meta["n_points"] // regions._ROW_FRACTIONS.size
    return n_rows


def test_bounds_hold_on_verify_separation_grids(kernel, poly2, monkeypatch):
    # 3 coarse calls (a round of 8 R each, the pairs the uniform part
    # keeps; the later 3 rounds keep none), then one call per lockstep round
    # of the 41 Brent searches: 440 steps in 12 rounds
    taus = np.geomspace(1e3, 1e6, 41)
    grids = _captured_grids(monkeypatch, semigroup,
                            lambda: semigroup.shift_witness_lower(poly2, kernel, taus, EPS1))
    assert len(grids) == 3 + 12
    assert [len(set(np.asarray(g[2]).tolist())) for g in grids[:3]] == [8, 8, 8]
    assert sum(len(g[0].ts) for g in grids[3:]) == 440
    evaluated, full = _check_bounds_and_pruning(grids)
    assert evaluated < full / 10


def test_bounds_hold_on_the_kappa_check_draws(kernel, strip1, poly2, monkeypatch):
    # check group 5: the calibration lattice (64 pairs on 8 grids) and the
    # 200 x_norm draws, one call each
    ctx = checks.Context(0, poly2, EPS1, strip1, kernel)
    grids = _captured_grids(monkeypatch, witness, lambda: checks.bound_chain_calibration(ctx))
    assert [len(g[0].ts) for g in grids] == [64, 200]
    assert [len(set(g[2])) for g in grids] == [8, 200]
    _check_bounds_and_pruning(grids)


@pytest.mark.parametrize("beta", [1.85, 2.0, 2.1])
def test_bounds_hold_on_kappa_lattices(kernel, beta, monkeypatch):
    m = growth.poly(beta)

    def run():
        for variant in ("plain", "derivative"):
            witness.calibrate_kappa(kernel, m, EPS1, variant=variant)
        witness.calibrate_kappa(kernel, m, EPS1, k=growth.poly(1.0))

    grids = _captured_grids(monkeypatch, witness, run)
    assert [len(g[0].ts) for g in grids] == [64] * 3  # one call per lattice
    _check_bounds_and_pruning(grids)


def test_bounds_hold_where_the_boundary_terms_are_finite(kernel, poly2, monkeypatch):
    # below tau ~ 9 the dropped part b and f(0) are nonzero: both logaddexp terms
    taus = [2.0, 5.0, 10.0, 13.0, 20.0, 39.0]
    grids = _captured_grids(monkeypatch, semigroup,
                            lambda: semigroup.shift_witness_lower(poly2, kernel, taus, EPS1))
    finite = {(b > -math.inf, f > -math.inf) for g in grids for b, f in g[0].boundary}
    assert (True, True) in finite
    _check_bounds_and_pruning(grids)


def test_bounds_hold_outside_the_cosine_window(monkeypatch):
    # with M(0) = 2 the strip has half-width 1/2, while the shift model's
    # region reaches Re lam = 1 and x_norm's (weight poly(2), M(0) = 1)
    # Re lam = -1: there the cosine of the kernel exceeds -1/2
    kernel2 = specialfn.build_kernel(specialfn.build_strip_function(2.0))
    eps2 = kernel2.epsilon
    at_origin = kernel2.log_modulus_transform_bound(np.array([-1.0]), np.array([1.0]), np.zeros(1))
    assert at_origin[0] + math.log(abs(kernel2.scale)) > -2.0  # 4 cos > -2
    m = growth.logarithmic(2.0)

    def run():  # at R = 1 the sups do not localize: 60 extensions
        terms = [semigroup._shift_tau(kernel2, tau) for tau in (3.0, 5.0, 30.0, 1e3)]
        for R in (1.0, 4.0, 60.0, 1e3):
            for ts in (terms, terms[1:2]):
                uniform = semigroup._uniform_norms(kernel2, R, ts)
                semigroup._shift_derivative_norms(kernel2, m, R, ts, uniform)

    def norms():
        for R in (8.0, 30.0, 120.0):
            for variant in ("plain", "derivative"):
                witness.x_norm(kernel2, R, 100.0, growth.poly(2.0), variant=variant)

    grids = _captured_grids(monkeypatch, semigroup, run)
    grids += _captured_grids(monkeypatch, witness, norms)
    _check_bounds_and_pruning(grids)


_LOG_TERM = st.just(-math.inf) | st.floats(-40.0, 2.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    slices=st.lists(st.tuples(st.floats(0.0, math.log(2e4)), st.floats(0.0, math.log(1e6)),
                              _LOG_TERM, _LOG_TERM), min_size=1, max_size=5),
    lam=st.booleans(), k_beta=st.none() | st.floats(0.5, 3.0), shift=st.booleans(),
)
def test_pruning_equals_the_full_grid_on_random_integrands(kernel, poly2, slices, lam, k_beta,
                                                           shift):
    # one slice per (R, tau, log b, log f(0)): x_norm's form (log|lam| or
    # not, weight M or a drawn poly) on the lens, or the shift form (with
    # log|lam|, the boundary terms finite or -inf) on the region up to
    # REGION_CAP
    R = [math.exp(u) for u, _, _, _ in slices]
    taus = [math.exp(u) for _, u, _, _ in slices]
    weight = None if k_beta is None else growth.poly(k_beta)
    if shift:
        log_integrand = regions.LogWeightedModuli(
            kernel, taus, lam=True, weight=weight, boundary=[(b, f) for _, _, b, f in slices])
        grid = (log_integrand, kernel.epsilon, R, poly2, semigroup.REGION_CAP)
    else:
        grid = (regions.LogWeightedModuli(kernel, taus, lam=lam, weight=weight),
                kernel.epsilon, R, poly2, None)
    _check_bounds_and_pruning([grid])


def test_bound_of_an_overflowing_cosh_raises_no_warning(kernel):
    # rows far from R: cosh overflows, the bound is -inf (or +inf where the
    # cosine's maximum is positive), without a floating-point warning
    y = np.array([-1e4, 0.0, 1e4])
    lo = kernel.log_modulus_transform_bound(np.full(3, -1.0), np.full(3, 1.0), y)
    assert lo[0] == lo[2] == -math.inf and math.isfinite(lo[1])
    wide = kernel.log_modulus_transform_bound(np.full(3, -10.0), np.full(3, 10.0), y)
    assert wide[0] == wide[2] == math.inf


def _expression_bound(kernel, x_lo, x_hi, y):
    """log_modulus_transform_bound as one numpy expression per term."""
    s = kernel.strip
    u_lo = s.epsilon * (x_lo + s.x_center)
    u_hi = s.epsilon * (x_hi + s.x_center)
    holds_peak = np.floor(u_hi / specialfn._TWO_PI) * specialfn._TWO_PI >= u_lo
    cos_max = np.where(holds_peak, 1.0, np.maximum(np.cos(u_lo), np.cos(u_hi))) + specialfn._COS_SLACK
    with np.errstate(over="ignore", invalid="ignore"):
        val = 4.0 * cos_max * np.cosh(s.epsilon * y)
    return np.where(np.isnan(val), math.inf, val) - math.log(abs(kernel.scale))


@pytest.mark.parametrize("m0", [0.5, 1.0, 3.0])
def test_in_place_bound_terms_are_the_expression_forms(m0):
    # the row bound's terms are formed with out=; every bit stays that of
    # the expression forms, for an array or a scalar right end, on rows
    # whose interval holds a peak of the cosine and rows whose cosh overflows
    kernel = specialfn.build_kernel(specialfn.build_strip_function(m0))
    rng = np.random.default_rng(int(10 * m0))
    n = 2000
    x_lo = -rng.uniform(0.0, 4.0 / m0, n)
    y = np.concatenate([rng.uniform(-60.0, 60.0, n - 4), [-1e4, 0.0, 1e4, 3e3]]) / m0
    for x_hi in (-x_lo, rng.uniform(-1.0, 40.0, n) / m0, 0.5 / m0, 30.0 / m0):
        got = kernel.log_modulus_transform_bound(x_lo, x_hi, y)
        assert np.array_equal(got.view(np.int64), _expression_bound(kernel, x_lo, x_hi, y).view(np.int64))
    v = np.concatenate([rng.normal(0.0, 50.0, n), [0.0, -0.0, math.inf, -math.inf]])
    with np.errstate(invalid="ignore"):  # -inf + inf, as in row_bound
        expect = v + regions._BOUND_RTOL * (1.0 + np.abs(v))
        assert np.array_equal(regions._raised(v), expect, equal_nan=True)
        regions._raised(v, out=v)
    assert np.array_equal(v, expect, equal_nan=True)


def _reference_rows(eps, R):
    """The main rows of the grid of modulation R, from numpy alone."""
    pieces = [np.linspace(R - 6.0 / eps, R + 6.0 / eps, 121),
              np.linspace(-4.0 / eps, 4.0 / eps, 13)]
    if R - 6.0 / eps > 4.0 / eps * 1.01:
        pieces.append(np.geomspace(4.0 / eps, R - 6.0 / eps, 8))
    return np.unique(np.concatenate(pieces))


def _reference_grid_sup(stack, eps, R, m, right=None):
    """banded_grid_sup as written for one grid alone: stack(pts, y, m_y) is
    the (k, rows, columns) stack of the grid's k slices and, if present,
    stack.row_bound(left, right, y, m_y) their (k, rows) row bounds.
    Returns the k log sups, the points evaluated and the extensions."""
    def row_bound(left, right_, y, m_y):
        return getattr(stack, "row_bound", lambda *a: np.full((1,) + y.shape, math.inf))(
            left, right_, y, m_y)

    def reaching(bound, level, active=None):
        need = ~(bound < level[:, None])
        if active is not None:
            need &= active[:, None]
        return need.any(axis=0)

    def chunk_rows(top):
        return np.linspace(top, top + 6.0 / eps, 7)[1:]

    n_points = [0]

    def row_set(y):
        m_y = m(np.abs(y))
        left = 1.0 / m_y
        return m_y, left, row_bound(left, left if right is None else right, y, m_y)

    def row_maxima(y, m_y, left, rows):
        left = left[rows]
        pts, col = regions._row_points(left, left if right is None else right, y[rows])
        n_points[0] += pts.size
        return stack(pts, col, m_y[rows, None]).max(axis=-1)

    y_main = _reference_rows(eps, R)
    n_main = y_main.size
    top = float(y_main[-1])
    y = np.concatenate([y_main, chunk_rows(top)])
    m_y, left, bound = row_set(y)
    first = reaching(bound, bound[:, :n_main].max(axis=-1))
    maxima = row_maxima(y, m_y, left, first)
    row_sup = np.full(maxima.shape[:-1] + y.shape, -math.inf)
    row_sup[:, first] = maxima
    log_sup = row_sup[:, :n_main].max(axis=-1)
    if not first.all():
        rest = np.concatenate([reaching(bound[:, :n_main], log_sup),
                               reaching(bound[:, n_main:], log_sup + regions._STOP_LOG)])
        rest &= ~first
        if rest.any():
            row_sup[:, rest] = row_maxima(y, m_y, left, rest)
            log_sup = row_sup[:, :n_main].max(axis=-1)
    extra_log = row_sup[:, n_main:].max(axis=-1)
    unsettled = np.ones(log_sup.shape, dtype=bool)
    for i in range(60):
        if i > 0:
            y = chunk_rows(top)
            m_y, left, bound = row_set(y)
            rows = reaching(bound, log_sup + regions._STOP_LOG, unsettled)
            extra_log = np.full(log_sup.shape, -math.inf)
            if rows.any():
                extra_log = row_maxima(y, m_y, left, rows).max(axis=-1)
        unsettled &= ~(extra_log <= log_sup + regions._STOP_LOG)
        if not unsettled.any():
            return log_sup, n_points[0], i
        log_sup = np.where(unsettled & (extra_log > log_sup), extra_log, log_sup)
        top += 6.0 / eps
    return np.where(unsettled, math.inf, log_sup), n_points[0], 60


def _grid_stack(log_integrand, slices, R):
    """The slices of a pair integrand on the grid of modulation R, as the
    (k, rows, columns) stack _reference_grid_sup reads."""
    k = len(slices)

    def pairs(n):
        return np.tile(np.arange(n), k), np.repeat(np.asarray(slices), n)

    def stack(pts, y, m_y):
        n = y.shape[0]
        return log_integrand(pts, y, m_y, np.full(y.shape, R), *pairs(n)).reshape(k, n, -1)

    if hasattr(log_integrand, "row_bound"):
        def row_bound(left, right, y, m_y):
            n = y.size
            return log_integrand.row_bound(left, right, y, m_y, np.full(n, R),
                                           *pairs(n)).reshape(k, n)
        stack.row_bound = row_bound
    return stack


def _check_batch_against_grids(log_integrand, eps, R, m, right=None):
    """A batched call equals, slice by slice and grid by grid, both the
    reference for each grid alone and a batch of that one grid: every log
    sup with ==, each grid's points and extensions."""
    log_sups, meta = regions.banded_grid_sup(log_integrand, eps, R, m, right)
    R = np.asarray(R, dtype=float).tolist()
    assert meta["band_centers"] == list(dict.fromkeys(R))
    for g, R_g in enumerate(meta["band_centers"]):
        slices = [j for j, R_j in enumerate(R) if R_j == R_g]
        ref, ref_points, ref_extensions = _reference_grid_sup(
            _grid_stack(log_integrand, slices, R_g), eps, R_g, m, right)
        assert log_sups[slices].tolist() == ref.tolist()
        assert (meta["grid_n_points"][g], meta["grid_extensions"][g]) == (ref_points,
                                                                         ref_extensions)
        alone, alone_meta = regions.banded_grid_sup(_SliceSubset(log_integrand, slices), eps,
                                                    [R_g] * len(slices), m, right)
        assert alone.tolist() == ref.tolist()
        assert (alone_meta["n_points"], alone_meta["extensions"]) == (ref_points, ref_extensions)
    assert meta["n_points"] == sum(meta["grid_n_points"])
    assert meta["extensions"] == sum(meta["grid_extensions"])
    return log_sups, meta


class _SliceSubset:
    """The given slices of a pair integrand, renumbered from 0."""

    def __init__(self, log_integrand, slices):
        self.inner, self.slices = log_integrand, np.asarray(slices)
        if hasattr(log_integrand, "row_bound"):
            self.row_bound = lambda *a: log_integrand.row_bound(*a[:-1], self.slices[a[-1]])

    def __call__(self, pts, y, m_y, r, rows, slices):
        return self.inner(pts, y, m_y, r, rows, self.slices[slices])


def _shift_integrand(kernel, taus):
    terms = [semigroup._shift_tau(kernel, tau) for tau in taus]
    return regions.LogWeightedModuli(kernel, [t.tau for t in terms], lam=True,
                                     boundary=[(t.log_b, t.log_f0) for t in terms])


def test_batch_of_mixed_R_equals_each_grid_alone(kernel, poly2):
    # the shift form (boundary terms finite below tau ~ 9), both x_norm
    # forms, and the shift form without its row bound (every row evaluated)
    taus = [2.0, 5.0, 30.0, 1e3, 2e4, 1e6]
    R = [40.0, 300.0, 40.0, 2500.0, 300.0, 12.0]
    shift = _shift_integrand(kernel, taus)
    _check_batch_against_grids(shift, kernel.epsilon, R, poly2, semigroup.REGION_CAP)
    _check_batch_against_grids(lambda *a: shift(*a), kernel.epsilon, R, poly2,
                               semigroup.REGION_CAP)
    for lam, weight in ((False, None), (True, growth.poly(1.0))):
        norm = regions.LogWeightedModuli(kernel, taus, lam=lam, weight=weight)
        _check_batch_against_grids(norm, kernel.epsilon, R, poly2)


def _synthetic(*kinds):
    """A pair integrand without a row bound, one slice per kind, on the
    lens of M = 2 (half-width 1/2): "settles" peaks at its grid's R,
    "far" at R + 30/eps, reached only through extensions, "grows" rises
    with the height forever and never settles."""
    def value(kind, pts, y, r):
        if kind == "settles":
            return -((y - r) ** 2) - pts.real ** 2
        if kind == "far":
            return -np.abs(y - (r + 30.0 / EPS1)) + 0.0 * pts.real
        return y + 0.0 * pts.real

    def log_integrand(pts, y, m_y, r, rows, slices):
        out = np.empty((rows.size, pts.shape[1]))
        for j, kind in enumerate(kinds):
            on = slices == j
            out[on] = value(kind, pts, y, r)[rows[on]]
        return out

    return log_integrand


def test_batch_keeps_each_grid_s_extensions_and_non_localizing_slices():
    m = growth.constant(2.0)
    kinds = ["settles", "far", "settles", "grows", "far", "settles"]
    R = [20.0, 20.0, 50.0, 35.0, 80.0, 35.0]
    log_sups, meta = _check_batch_against_grids(_synthetic(*kinds), EPS1, R, m)
    # the grid of R = 35 never settles: its "grows" slice is +inf, its
    # "settles" slice keeps its sup; the grids of 20 and 80 extend to reach
    # their "far" bumps, the grid of 50 does not extend
    assert log_sups[3] == math.inf and math.isfinite(log_sups[5])
    assert np.all(np.isfinite(np.delete(log_sups, 3)))
    extensions = dict(zip(meta["band_centers"], meta["grid_extensions"]))
    assert extensions[35.0] == 60 and extensions[50.0] == 0
    assert 0 < extensions[20.0] == extensions[80.0] < 60


def test_batch_of_one_grid_is_the_one_grid_call(kernel, poly2):
    # one R for every slice: one grid, as the coarse scan and x_norm build
    taus = [1e3, 3e4, 1e6]
    _check_batch_against_grids(_shift_integrand(kernel, taus), kernel.epsilon, [700.0] * 3,
                               poly2, semigroup.REGION_CAP)
    _check_batch_against_grids(_synthetic("far"), EPS1, [20.0], growth.constant(2.0))


def test_batch_hands_in_whole_rows_once_in_calls_of_bounded_size(kernel, poly2):
    # without a row bound every row is evaluated: 12 grids of 140-146 rows
    # with 4 slices each, more pairs than one integrand call takes; every
    # call holds whole rows, and each evaluated row is in one call only
    ts = [10.0, 1e3, 1e5, 1e6]
    norm = regions.LogWeightedModuli(kernel, ts * 12, lam=False)
    calls = []

    def counted(pts, y, m_y, r, rows, slices):
        calls.append((rows.size, pts.shape[0], np.unique(rows).size))
        return norm(pts, y, m_y, r, rows, slices)

    R = np.repeat(np.geomspace(8.0, 120.0, 12), 4).tolist()
    batched, meta = regions.banded_grid_sup(counted, kernel.epsilon, R, poly2)
    assert len(calls) > 1
    assert all(n_rows == n_used and n_rows <= n_pairs < regions._MAX_PAIRS + 4
               for n_pairs, n_rows, n_used in calls)
    assert sum(n_rows for _, n_rows, _ in calls) * 66 == meta["n_points"]
    log_sups, _ = _check_batch_against_grids(lambda *a: norm(*a), kernel.epsilon, R, poly2)
    assert batched.tolist() == log_sups.tolist()


def test_batch_with_each_grid_s_slices_spread_over_it_equals_each_grid_alone(kernel, poly2):
    # 60 slices on 20 grids, each grid's slices 20 apart in the batch
    taus = np.geomspace(10.0, 1e6, 60)
    R = np.tile(np.geomspace(20.0, 5e3, 20), 3)
    _check_batch_against_grids(_shift_integrand(kernel, taus), kernel.epsilon, R, poly2,
                               semigroup.REGION_CAP)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    log_R=st.lists(st.floats(0.0, math.log(2e5)), min_size=1, max_size=4),
    picks=st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, math.log(1e6))),
                   min_size=1, max_size=8),
    shift=st.booleans(),
)
def test_batch_equals_each_grid_alone_on_random_R_and_taus(kernel, poly2, log_R, picks, shift):
    grid_R = [math.exp(u) for u in log_R]
    R = [grid_R[i % len(grid_R)] for i, _ in picks]
    taus = [math.exp(u) for _, u in picks]
    if shift:
        _check_batch_against_grids(_shift_integrand(kernel, taus), kernel.epsilon, R, poly2,
                                   semigroup.REGION_CAP)
    else:
        _check_batch_against_grids(regions.LogWeightedModuli(kernel, taus, lam=True),
                                   kernel.epsilon, R, poly2)
