"""The regions: the interior grid sample of a strip, and banded_grid_sup's
supremum over the lens |Re lam| < 1/M(|Im lam|)."""

import math

import numpy as np
import pytest

from tauberlab import growth, regions
from tauberlab.errors import DomainError

EPS1 = math.pi / 6.0


@pytest.fixture()
def m():
    return growth.poly(2.0)


def test_strip_interval_constant(m):
    grid = regions.sample(1.0 / m.m0, y_max=50.0, nx=5, ny=3)
    rows = grid.reshape(3, 5)
    assert np.array_equal(rows.real, np.tile(rows.real[0], (3, 1)))
    assert np.array_equal(rows.imag[:, 0], np.array([-50.0, 0.0, 50.0]))


def test_sample_grid_interior_and_shape():
    half_width = 1.0 / growth.constant(4.0).m0
    grid = regions.sample(half_width, y_max=5.0, nx=7, ny=11)
    assert grid.shape == (7 * 11,)
    assert np.all(np.abs(grid.real) < half_width)
    xs = np.unique(grid.real)
    assert xs.size == 7
    assert xs[0] + 0.25 == pytest.approx(0.5 * (xs[1] - xs[0]))  # inset half a step
    ys = np.unique(grid.imag)
    assert ys.min() >= -5.0 and ys.max() <= 5.0


def test_sample_validates_counts(m):
    w = 1.0 / m.m0
    with pytest.raises(DomainError):
        regions.sample(w, y_max=5.0, nx=0, ny=11)
    with pytest.raises(DomainError):
        regions.sample(w, y_max=-1.0, nx=5, ny=11)
    assert regions.sample(w, y_max=5.0, nx=1, ny=11).shape == (11,)


# M = 2 everywhere: the lens |Re lam| < 1/2, half-widths exactly 0.5
_BAND_M = growth.constant(2.0)


def _stacked(*fns):
    """The (rows, columns) integrands fns as a banded_grid_sup integrand of
    len(fns) slices on one grid: pair p is fns[slices[p]] on row rows[p]."""
    def log_integrand(pts, y, m_y, r, rows, slices):
        return np.stack([fn(pts, y, m_y) for fn in fns])[slices, rows]
    return log_integrand


def _one_slice(fn):
    """The (rows, columns) integrand fn as an integrand of one slice."""
    return _stacked(fn)


def test_banded_grid_sup_of_a_stack_matches_separate_calls():
    R = 20.0
    high = R + 30.0 / EPS1  # above the first grid: reached only by extensions

    def near(pts, y, m_y):  # stops on its own before it reaches its higher bump at `high`
        return np.maximum(-((y - R) ** 2), 5.0 - np.abs(y - high)) - pts.real ** 2

    def far(pts, y, m_y):  # climbs to `high` through extensions
        return -np.abs(y - high) + 0.0 * pts.real

    one_near, meta_near = regions.banded_grid_sup(_one_slice(near), EPS1, [R], _BAND_M)
    one_far, meta_far = regions.banded_grid_sup(_one_slice(far), EPS1, [R], _BAND_M)
    assert one_near.shape == one_far.shape == (1,)
    assert meta_near["extensions"] == 0 < meta_far["extensions"]
    both, meta = regions.banded_grid_sup(_stacked(near, far), EPS1, [R, R], _BAND_M)
    assert both.tolist() == one_near.tolist() + one_far.tolist()  # each keeps its own stopping rule
    assert meta["extensions"] == meta_far["extensions"]
    assert meta["n_points"] == meta_far["n_points"]


def test_banded_grid_sup_makes_one_integrand_call_per_grid():
    # the main rows and the first 6-row chunk go to one call; each later
    # chunk to one call of its own
    R = 20.0
    high = R + 30.0 / EPS1
    (rows,) = regions._main_rows(EPS1, np.array([R]))[1].tolist()
    columns = regions._ROW_FRACTIONS.size
    assert columns == 66

    def settles(pts, y, m_y):
        return -((y - R) ** 2) - pts.real ** 2

    def far(pts, y, m_y):
        return -np.abs(y - high) + 0.0 * pts.real

    for fn in (settles, far):
        shapes = []

        def counted(pts, y, m_y, r, rows, slices, fn=fn):
            shapes.append(pts.shape)
            return fn(pts, y, m_y)[rows]

        log_sup, meta = regions.banded_grid_sup(counted, EPS1, [R], _BAND_M)
        assert log_sup.shape == (1,)
        assert meta["n_points"] == (rows + 6 * (1 + meta["extensions"])) * 66
        assert shapes == [(rows + 6, columns)] + [(6, columns)] * meta["extensions"]
    assert meta["extensions"] > 0


def test_banded_grid_sup_without_localization_is_inf_alone_and_in_a_stack():
    def settles(pts, y, m_y):
        return -((y - 20.0) ** 2) - pts.real ** 2

    def grows(pts, y, m_y):  # rises with the height forever: never settles
        return y + 0.0 * pts.real

    never, never_meta = regions.banded_grid_sup(_one_slice(grows), EPS1, [20.0], _BAND_M)
    assert never.tolist() == [math.inf] and never_meta["extensions"] == 60
    alone, _ = regions.banded_grid_sup(_one_slice(settles), EPS1, [20.0], _BAND_M)
    both, meta = regions.banded_grid_sup(_stacked(settles, grows), EPS1, [20.0, 20.0], _BAND_M)
    assert both.tolist() == alone.tolist() + [math.inf]
    assert meta["extensions"] == 60
