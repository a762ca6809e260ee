"""banded_grid_sup's row pruning: the exact row layout, the soundness of every
integrand's row bound on full grids, and pruned suprema equal to unpruned
ones, on the inputs of verify, the kappa calibration and the shift model."""

import math

import numpy as np
import pytest

from tauberlab import checks, growth, semigroup, specialfn, witness

EPS1 = math.pi / 6.0


@pytest.mark.parametrize("m0", [0.5, 1.0, 3.0])
def test_row_layout_is_numpys(m0):
    # the rows are built from cached aranges, bit for bit what np.linspace,
    # np.geomspace and np.unique give
    eps = specialfn.build_strip_function(m0).epsilon
    for R in np.geomspace(1.0, 1e6, 300).tolist():
        half_band = 6.0 / eps
        pieces = [np.linspace(R - half_band, R + half_band, 121),
                  np.linspace(-4.0 / eps, 4.0 / eps, 13)]
        if R - half_band > 4.0 / eps * 1.01:
            pieces.append(np.geomspace(4.0 / eps, R - half_band, 8))
        rows = witness._banded_rows(eps, R)
        assert rows.dtype == np.float64
        assert np.array_equal(rows, np.unique(np.concatenate(pieces)))
        top = float(rows[-1])
        assert np.array_equal(witness._chunk_rows(top, eps),
                              np.linspace(top, top + 6.0 / eps, 7)[1:])


def _captured_grids(monkeypatch, module, run):
    """Every (integrand, eps, R, m, right) that run() hands to banded_grid_sup
    through module."""
    grids = []
    real = witness.banded_grid_sup

    def capture(log_integrand, eps, R, m, right=None):
        grids.append((log_integrand, eps, R, m, right))
        return real(log_integrand, eps, R, m, right)

    monkeypatch.setattr(module, "banded_grid_sup", capture)
    run()
    monkeypatch.undo()
    return grids


def _check_bounds_and_pruning(grids):
    """(a) On every point of the full grid, each integrand value is at most
    its row bound; (b) the pruned supremum equals the full grid's; (c) the M
    values a pruned call gets are, bit for bit, M evaluated on its rows."""
    n_rows = [0, 0]
    for log_integrand, eps, R, m, right in grids:
        calls = []

        def unbounded(pts, y, m_y):  # no row_bound: banded_grid_sup evaluates every row
            calls.append((pts, y, m_y))
            return log_integrand(pts, y, m_y)

        def pruned_rows(pts, y, m_y):
            # the rows' M, taken from M on their whole row set, is M on them alone
            assert np.array_equal(m_y, m(np.abs(y)))
            return log_integrand(pts, y, m_y)

        pruned_rows.row_bound = log_integrand.row_bound
        full, full_meta = witness.banded_grid_sup(unbounded, eps, R, m, right)
        pruned, meta = witness.banded_grid_sup(pruned_rows, eps, R, m, right)
        assert np.array_equal(pruned, full)
        assert meta["extensions"] == full_meta["extensions"]
        for pts, y, m_y in calls:
            left = 1.0 / m_y[:, 0]
            bound = log_integrand.row_bound(left, left if right is None else right,
                                            y[:, 0], m_y[:, 0])
            assert np.all(log_integrand(pts, y, m_y) <= bound[..., None])
        n_rows[0] += meta["n_points"] // witness._ROW_FRACTIONS.size
        n_rows[1] += full_meta["n_points"] // witness._ROW_FRACTIONS.size
    return n_rows


def test_bounds_hold_on_verify_separation_grids(kernel, poly2, monkeypatch):
    taus = np.geomspace(1e3, 1e6, 41)
    grids = _captured_grids(monkeypatch, semigroup,
                            lambda: semigroup.shift_witness_lower(poly2, kernel, taus, EPS1))
    assert sorted(len(g[0].ts) > 1 for g in grids) == [False] * 440 + [True] * 21
    evaluated, full = _check_bounds_and_pruning(grids)
    assert evaluated < full / 10


def test_bounds_hold_on_the_kappa_check_draws(kernel, strip1, poly2, monkeypatch):
    # check group 5: the calibration lattice (8 stacks) and 200 x_norm draws
    ctx = checks.Context(0, poly2, EPS1, strip1, kernel)
    grids = _captured_grids(monkeypatch, witness, lambda: checks.bound_chain_calibration(ctx))
    assert len(grids) == 8 + 200
    _check_bounds_and_pruning(grids)


@pytest.mark.parametrize("beta", [1.85, 2.0, 2.1])
def test_bounds_hold_on_kappa_lattices(kernel, beta, monkeypatch):
    m = growth.poly(beta)

    def run():
        for variant in ("plain", "derivative"):
            witness.calibrate_kappa(kernel, m, EPS1, variant=variant)
        witness.calibrate_kappa(kernel, m, EPS1, k=growth.poly(1.0))

    grids = _captured_grids(monkeypatch, witness, run)
    assert len(grids) == 3 * 8
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


def test_bound_of_an_overflowing_cosh_raises_no_warning(kernel):
    # rows far from R: cosh overflows, the bound is -inf (or +inf where the
    # cosine's maximum is positive), without a floating-point warning
    y = np.array([-1e4, 0.0, 1e4])
    lo = kernel.log_modulus_transform_bound(np.full(3, -1.0), np.full(3, 1.0), y)
    assert lo[0] == lo[2] == -math.inf and math.isfinite(lo[1])
    wide = kernel.log_modulus_transform_bound(np.full(3, -10.0), np.full(3, 10.0), y)
    assert wide[0] == wide[2] == math.inf
