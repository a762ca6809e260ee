"""Zero-point splitting of two-sided functions, half-plane transform bounds,
and the quadrature/closed-form agreement check."""

import numpy as np
import pytest

from tauberlab import truncate, witness, xforms
from tauberlab.errors import AlignmentError, DomainError


@pytest.fixture(scope="module")
def w2(kernel):
    return witness.modulated_translate(kernel, 8.0, 2.0)


@pytest.fixture(scope="module")
def pair(w2):
    return truncate.split(w2.samples)


def test_split_convention(w2, pair):
    g = w2.samples
    assert pair.g_plus.t0_grid == 0.0
    assert pair.g_plus.support == "half"
    assert pair.g_minus.t0_grid == g.t0_grid
    assert pair.g_plus.n + pair.g_minus.n == g.n
    assert np.array_equal(pair.reconstruct(), g.values)
    assert pair.parent_checksum


def test_split_requires_interior_zero():
    vals = np.ones(5, dtype=complex)
    with pytest.raises(DomainError):
        truncate.split(xforms.SampledComplexFunction(0.0, 0.5, vals))  # 0 at the edge
    with pytest.raises(AlignmentError):
        truncate.split(xforms.SampledComplexFunction(-1.05, 0.5, vals))  # 0 off-grid
    half = xforms.SampledComplexFunction(0.0, 0.5, vals, support="half")
    with pytest.raises(DomainError):
        truncate.split(half)


def test_halfplane_margins_nonnegative(pair, rng):
    lams = np.concatenate([
        rng.uniform(0.05, 2.5, 60) + 1j * rng.uniform(-30, 30, 60),
        -rng.uniform(0.05, 2.0, 60) + 1j * rng.uniform(-20, 20, 60),
    ])
    for variant in ("plain", "derivative"):
        hp = truncate.verify_halfplane_bounds(pair, lams, variant)
        assert hp.min_margin >= -1e-8
        assert hp.plus_points.size == 60 and hp.minus_points.size == 60


def test_halfplane_points_in_one_half_plane(pair, rng):
    lams = rng.uniform(0.05, 2.0, 30) + 1j * rng.uniform(-20, 20, 30)
    for pts, side in ((lams, "plus"), (-lams, "minus")):
        hp = truncate.verify_halfplane_bounds(pair, pts, "derivative")
        other = "minus" if side == "plus" else "plus"
        assert getattr(hp, f"{side}_margins").size == 30
        assert getattr(hp, f"{other}_points").size == 0
        assert getattr(hp, f"{other}_margins").size == 0
        assert hp.min_margin == np.min(getattr(hp, f"{side}_margins"))
        assert hp.min_margin >= -1e-8


def test_halfplane_rejects_axis_points(pair):
    with pytest.raises(DomainError):
        truncate.verify_halfplane_bounds(pair, np.array([0.0 + 1.0j]))
    with pytest.raises(DomainError):
        truncate.verify_halfplane_bounds(pair, np.array([]))
    with pytest.raises(DomainError):
        truncate.verify_halfplane_bounds(pair, np.array([1.0 + 0.0j]), "squared")


def test_halfplane_bound_is_tight_for_positive_function():
    # for a nonnegative function the bound is attained at lam -> 0+
    t = np.arange(-5.0, 5.0 + 1e-12, 0.01)
    g = xforms.SampledComplexFunction(-5.0, 0.01, np.exp(-np.abs(t)).astype(complex),
                                      tail_bound=np.exp(-5.0))
    pair = truncate.split(g)
    hp = truncate.verify_halfplane_bounds(pair, np.array([1e-9 + 0.0j]))
    assert hp.plus_margins[0] == pytest.approx(0.0, abs=1e-8)


def test_agreement_pins(kernel, poly2):
    w = witness.modulated_translate(kernel, 8.0, 10.0)
    xs = np.linspace(-0.35, -0.02, 5)
    ys = np.linspace(-0.5, 0.5, 5)
    grid = (xs[None, :] + 1j * ys[:, None]).ravel()
    ag = truncate.verify_agreement(w, poly2, grid)
    assert ag.residual == pytest.approx(3.1770006077421553e-11, rel=1e-3)
    assert ag.residual < 1e-5
    assert ag.cauchy_residual < 1e-8
    assert ag.n_points == 25


def _two_sided_exponential():
    t = np.arange(-40.0, 40.0 + 1e-12, 0.01)
    return xforms.SampledComplexFunction(
        -40.0, 0.01, np.exp(-np.abs(t)).astype(complex), tail_bound=np.exp(-40.0)
    )


def test_agreement_refinement_gain(poly2):
    # the kink at 0 makes the quadrature error grid-limited, so coarsening
    # by 2 must visibly inflate the residual
    g = _two_sided_exponential()
    grid = np.linspace(-0.3, -0.05, 4) + 0.25j
    exact = lambda lam: 2.0 / (1.0 - lam * lam)
    fine = truncate.verify_agreement(g, poly2, grid, transform=exact)
    coarse = truncate.verify_agreement(g, poly2, grid, transform=exact, coarsen=2)
    assert coarse.residual / fine.residual >= 2.0


def test_agreement_detects_wrong_transform(kernel, poly2):
    w = witness.modulated_translate(kernel, 8.0, 10.0)
    grid = np.linspace(-0.3, -0.05, 4) + 0.25j
    wrong = lambda lam: w.transform(lam) + 1e-3
    ag = truncate.verify_agreement(w, poly2, grid, transform=wrong)
    assert ag.residual > 5e-4


def test_agreement_requires_transform_source(poly2):
    g = _two_sided_exponential()
    from tauberlab.errors import UnsupportedInputError

    with pytest.raises(UnsupportedInputError):
        truncate.verify_agreement(g, poly2, np.array([-0.1 + 0.2j]))


def test_agreement_rejects_out_of_region_grid(kernel, poly2):
    w = witness.modulated_translate(kernel, 8.0, 10.0)
    with pytest.raises(DomainError):
        truncate.verify_agreement(w, poly2, np.array([0.1 + 0.0j]))  # right of axis
    with pytest.raises(DomainError):
        truncate.verify_agreement(w, poly2, np.array([-0.9 + 3.0j]))  # left of -1/M(3)
