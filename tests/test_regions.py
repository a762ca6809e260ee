"""The strip region and its interior grid sampling."""

import numpy as np
import pytest

from tauberlab import growth, regions
from tauberlab.errors import DomainError


@pytest.fixture()
def m():
    return growth.poly(2.0)


def test_strip_interval_constant(m):
    assert regions.strip(m).half_width == 1.0
    assert regions.strip(growth.constant(4.0)).half_width == 0.25
    grid = regions.sample(regions.strip(m), y_max=50.0, nx=5, ny=3)
    rows = grid.points.reshape(3, 5)
    assert np.array_equal(rows.real, np.tile(rows.real[0], (3, 1)))
    assert np.array_equal(rows.imag[:, 0], np.array([-50.0, 0.0, 50.0]))


def test_sample_grid_interior_and_shape():
    r = regions.strip(growth.constant(4.0))
    grid = regions.sample(r, y_max=5.0, nx=7, ny=11)
    assert grid.points.ndim == 1
    assert np.all(np.abs(grid.points.real) < r.half_width)
    xs = np.unique(grid.points.real)
    assert xs.size == 7
    assert xs[0] + 0.25 == pytest.approx(0.5 * (xs[1] - xs[0]))  # inset half a step
    ys = np.unique(grid.points.imag)
    assert ys.min() >= -5.0 and ys.max() <= 5.0
    assert grid.nx == 7 and grid.ny == 11


def test_sample_validates_counts(m):
    r = regions.strip(m)
    with pytest.raises(DomainError):
        regions.sample(r, y_max=5.0, nx=0, ny=11)
    with pytest.raises(DomainError):
        regions.sample(r, y_max=-1.0, nx=5, ny=11)
    assert regions.sample(r, y_max=5.0, nx=1, ny=11).points.shape == (11,)
