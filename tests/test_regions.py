"""The interior grid sample of a strip."""

import numpy as np
import pytest

from tauberlab import growth, regions
from tauberlab.errors import DomainError


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
