"""Quadrature, sampled functions, Laplace/Fourier transforms, and the
mean-value analyticity check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberlab import xforms
from tauberlab.errors import DomainError


def make_sampled(t0, step, values, **kw):
    return xforms.SampledComplexFunction(t0, step, np.asarray(values, dtype=complex), **kw)


def test_simpson_weights_basic():
    w = xforms.simpson_weights(5, 0.5)
    assert w == pytest.approx(np.array([1, 4, 2, 4, 1]) * 0.5 / 3.0)
    assert w.sum() == pytest.approx(4 * 0.5)  # integrates the constant 1 exactly
    w_even = xforms.simpson_weights(6, 0.5)  # trailing trapezoid panel
    assert w_even.sum() == pytest.approx(5 * 0.5)
    with pytest.raises(DomainError):
        xforms.simpson_weights(1, 0.5)


def test_quadrature_cubic_exact():
    # the Laplace transform at lam = 0 is the plain Simpson integral
    t = np.linspace(0.0, 2.0, 21)
    g = make_sampled(0.0, t[1] - t[0], t**3 - t + 2.0, support="half")
    got = xforms.laplace(g, 0.0)
    assert got == pytest.approx(2**4 / 4 - 2**2 / 2 + 4.0, rel=1e-14)


def test_l1_norm_exponential_tail():
    t = np.arange(0.0, 40.0 + 1e-12, 0.01)
    vals = np.exp(-t)
    got = xforms.l1_norm_samples(vals.astype(complex), 0.01)
    assert got == pytest.approx(-math.expm1(-40.0), rel=1e-10)


def test_l1_norm_kinked_function_halving():
    # |e^{-|t|}| has a kink at 0; the absolute-value-aware panels keep the
    # composite rule honest there, so halving still shrinks the error fast.
    def l1_of(step):
        t = np.arange(-20.0, 20.0 + 1e-12, step)
        return xforms.l1_norm_samples(np.exp(-np.abs(t)).astype(complex), step)

    exact = 2.0 * -math.expm1(-20.0)
    e1 = abs(l1_of(0.02) - exact)
    e2 = abs(l1_of(0.01) - exact)
    assert e2 < e1
    assert e1 / max(e2, 1e-300) > 8.0  # at least cubic-order shrinkage


def _abs_quadratic_integral(a, lo, hi):
    """Closed form of the integral of |x^2 - a| over [lo, hi]."""
    def anti(x):
        return x**3 / 3.0 - a * x

    cuts = [lo] + sorted(r for r in (-math.sqrt(a), math.sqrt(a)) if lo < r < hi) + [hi]
    return sum(abs(anti(b) - anti(c)) for c, b in zip(cuts[:-1], cuts[1:]))


def _abs_linear_cell(y0, y1, step):
    """Closed form of the integral of |linear| over one cell from y0 to y1."""
    if y0 * y1 < 0.0:
        # zero at the fraction |y0| / (|y0| + |y1|) of the cell: two triangles
        return 0.5 * step * (y0 * y0 + y1 * y1) / (abs(y0) + abs(y1))
    return 0.5 * step * (abs(y0) + abs(y1))


@pytest.mark.parametrize("a", [0.3, 0.7, 1.9])
def test_l1_norm_quadratic_exact_odd_n(a):
    # x^2 - a is its own Simpson interpolant, so the root-split panels are
    # exact; both roots fall strictly inside panels (off the dyadic grid)
    x = -2.0 + 0.125 * np.arange(33)
    got = xforms.l1_norm_samples((x * x - a).astype(complex), 0.125)
    assert got == pytest.approx(_abs_quadratic_integral(a, -2.0, 2.0), rel=1e-14)


def test_l1_norm_two_roots_in_one_panel():
    x = np.array([-1.0, 0.0, 1.0])
    got = xforms.l1_norm_samples((x * x - 0.25).astype(complex), 1.0)
    assert got == pytest.approx(_abs_quadratic_integral(0.25, -1.0, 1.0), rel=1e-15)


def test_l1_norm_linear_panel_sign_change():
    # x - 0.25 on (-1, 0, 1): the panel's quadratic coefficient is exactly 0
    x = np.array([-1.0, 0.0, 1.0])
    got = xforms.l1_norm_samples((x - 0.25).astype(complex), 1.0)
    assert got == pytest.approx((1.25**2 + 0.75**2) / 2.0, rel=1e-15)


@pytest.mark.parametrize("a", [0.72, 0.5])
def test_l1_norm_quadratic_even_n_trailing_cell(a):
    # 20 samples: 9 Simpson panels on [-1, 1.25], then one linear cell;
    # a = 0.72 puts a sign change inside that cell, a = 0.5 does not
    h = 0.125
    x = -1.0 + h * np.arange(20)
    y = x * x - a
    got = xforms.l1_norm_samples(y.astype(complex), h)
    expect = _abs_quadratic_integral(a, -1.0, x[-2]) + _abs_linear_cell(y[-2], y[-1], h)
    assert got == pytest.approx(expect, rel=1e-14)


def test_l1_norm_short_and_complex_inputs():
    # n = 2: trapezoid on |values|; n = 1 has no quadrature rule
    assert xforms.l1_norm_samples(np.array([-1.0, 3.0], dtype=complex), 0.5) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        xforms.l1_norm_samples(np.array([1.0 + 0.0j]), 0.5)
    # genuinely complex data: plain Simpson on the modulus x^2 + 1, exact
    x = -2.0 + 0.125 * np.arange(33)
    vals = (x * x + 1.0) * np.exp(3j * x)
    expect = 2.0 * (8.0 / 3.0 + 2.0)
    assert xforms.l1_norm_samples(vals, 0.125) == pytest.approx(expect, rel=1e-14)


def _l1_panel_loop(re, step):
    """Panel-by-panel reference for the Simpson part of l1_norm_samples."""
    total = 0.0
    for i in range(0, re.size - 2, 2):
        y0, y1, y2 = re[i : i + 3]
        c0, c1, c2 = y1, 0.5 * (y2 - y0), 0.5 * (y0 - 2.0 * y1 + y2)
        roots = []
        if abs(c2) > 1e-300:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc > 0.0:
                sq = math.sqrt(disc)
                roots = sorted(r for r in ((-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)) if -1 < r < 1)
        elif abs(c1) > 1e-300 and -1.0 < -c0 / c1 < 1.0:
            roots = [-c0 / c1]
        edges = [-1.0, *roots, 1.0]
        panel = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (a + b)
            sign = 1.0 if c0 + c1 * mid + c2 * mid * mid >= 0.0 else -1.0
            panel += sign * (c0 * (b - a) + 0.5 * c1 * (b * b - a * a) + c2 * (b**3 - a**3) / 3.0)
        total += abs(panel) * step
    return total


def test_l1_norm_matches_panel_loop(rng):
    # odd counts only: no trailing linear cell; rounded data adds exact zeros
    # and linear panels
    for n in (3, 5, 101, 1001):
        for vals in (rng.normal(size=n), np.round(rng.normal(size=n), 1)):
            got = xforms.l1_norm_samples(vals.astype(complex), 0.1)
            assert got == pytest.approx(_l1_panel_loop(vals, 0.1), rel=1e-13, abs=1e-300)


def test_l1_norm_decimation_stability():
    t = np.arange(-12.0, 12.0 + 1e-12, 0.005)
    vals = np.exp(-(t**2)).astype(complex)
    full = xforms.l1_norm_samples(vals, 0.005)
    half = xforms.l1_norm_samples(vals[::2], 0.01)
    assert abs(full - half) / full < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(-0.8, 0.8, allow_nan=False),
    im=st.floats(-25.0, 25.0, allow_nan=False),
)
def test_transform_triangle_inequality(re, im):
    # |quadrature of e^{-lam t} g| <= quadrature of |e^{-lam t} g| with the
    # same positive weights: the structural bound the half-plane checks use
    t = np.arange(0.0, 8.0 + 1e-12, 0.01)
    g = xforms.SampledComplexFunction(
        0.0, 0.01, (np.exp(1j * 3.0 * t) * np.exp(-t)).astype(complex), support="half"
    )
    value = xforms.laplace(g, complex(re, im))
    w = xforms.simpson_weights(g.n, g.step)
    envelope = float(w @ np.abs(np.exp(-complex(re, im) * t) * g.values))
    assert abs(value) <= envelope * (1.0 + 1e-12)


def test_derivative_samples_accuracy():
    t = np.arange(0.0, 2.0 + 1e-12, 0.001)
    g = make_sampled(0.0, 0.001, np.sin(t))
    d = xforms.derivative_samples(g)
    assert np.max(np.abs(d - np.cos(t))) < 5e-6


def test_laplace_gaussian_closed_form():
    t = np.arange(-12.0, 12.0 + 1e-12, 0.005)
    g = make_sampled(-12.0, 0.005, np.exp(-(t**2)), tail_bound=math.exp(-144.0))
    for lam in (0.3 + 2.0j, -0.1 - 1.0j, 0.5j):
        got = xforms.laplace(g, lam)
        expect = math.sqrt(math.pi) * np.exp(lam * lam / 4.0)
        assert abs(got - expect) < 1e-10


def test_laplace_tail_guard():
    t = np.arange(-12.0, 12.0 + 1e-12, 0.01)
    g = make_sampled(-12.0, 0.01, np.exp(-(t**2)), tail_bound=1e-3)
    with pytest.raises(DomainError):
        xforms.laplace(g, 5.0 + 0.0j)  # exp(|Re|*12) * 1e-3 >> tol


def test_laplace_many_matches_scalar(rng):
    # reference: the composite-Simpson sum written out point by point (a
    # trailing trapezoid cell for even n), over more points than one block holds
    h = 0.01
    lams = rng.uniform(-0.5, 0.5, 600) + 1j * rng.uniform(-10.0, 10.0, 600)
    for n in (401, 400):
        t = -2.0 + h * np.arange(n)
        vals = np.exp(-(t**2)) * np.exp(2j * t)
        g = make_sampled(-2.0, h, vals)
        assert lams.size > xforms.LAPLACE_BLOCK // n
        w = np.full(n, 2.0 * h / 3.0)
        odd = n if n % 2 == 1 else n - 1
        w[1:odd:2] = 4.0 * h / 3.0
        w[0] = w[odd - 1] = h / 3.0
        if odd < n:
            w[-2] += h / 2.0
            w[-1] = h / 2.0
        expect = np.array([np.sum(w * np.exp(-lam * t) * vals) for lam in lams])
        got = xforms.laplace_many(g, lams.reshape(20, 30))
        assert got.shape == (20, 30)
        assert np.max(np.abs(got.ravel() - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_laplace_many_overflow_is_a_domain_error():
    # exp(-lam t) overflows for lam = -30 at t = 40; no RuntimeWarning may escape
    t = np.arange(0.0, 40.0 + 1e-12, 0.01)
    g = make_sampled(0.0, 0.01, np.exp(-t), support="half")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            xforms.laplace_many(g, np.array([1.0 + 0.0j, -30.0 + 1.0j]))
        with pytest.raises(DomainError, match="overflows"):
            xforms.laplace(g, -30.0)


def test_fourier_invert_gaussian_spectrum():
    # spectrum exp(-u^2) inverts to exp(-t^2/4) / (2 sqrt(pi))
    out = xforms.fourier_invert(
        lambda u: np.exp(-(u**2)),
        eps_decay=0.5,
        tol=1e-10,
        out_grid=(-4.0, 0.05, 161),
    )
    t = out.t_grid
    expect = np.exp(-(t**2) / 4.0) / (2.0 * math.sqrt(math.pi))
    assert np.max(np.abs(out.values - expect)) < 1e-9
    assert out.meta["quad_err"] < 1e-10


@pytest.mark.parametrize("n_u, n_t, t0", [(9, 40, -1.3), (16, 40, 0.7), (101, 7, -3.1), (64, 257, 2.2)])
def test_chirpz_sum_matches_dense_sum(n_u, n_t, t0):
    rng = np.random.default_rng(n_u)
    w = rng.normal(size=n_u) + 1j * rng.normal(size=n_u)
    u0, du, dt = -2.7, 0.31, 0.05
    u = u0 + du * np.arange(n_u)
    t = t0 + dt * np.arange(n_t)
    dense = np.exp(1j * np.outer(t, u)) @ w
    got = xforms._chirpz_sum(w, u0, du, t0, dt, n_t)
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_fourier_invert_strip_refinement(kernel):
    # the m0 = 1 kernel's inversion: same spectral count as the dense sum gave
    meta = kernel.samples.meta
    assert meta["n_u"] == 2005
    assert meta["quad_err"] < meta["tol"]


def test_fourier_invert_validates():
    with pytest.raises(DomainError):
        xforms.fourier_invert(lambda u: np.exp(-(u**2)), eps_decay=-1.0, tol=1e-8,
                              out_grid=(-1.0, 0.1, 21))
    with pytest.raises(DomainError):
        xforms.fourier_invert(lambda u: np.exp(-(u**2)), eps_decay=1.0, tol=1e-8,
                              out_grid=(-1.0, 0.0, 21))


def test_cauchy_check_flags_non_analytic():
    contour = xforms.circle_sample(np.exp, 0.3 + 0.2j, 0.25)
    assert xforms.cauchy_check(contour, np.exp(0.3 + 0.2j)) < 1e-14
    bad = xforms.circle_sample(lambda z: np.abs(z), 0.3 + 0.2j, 0.25)
    assert xforms.cauchy_check(bad, abs(0.3 + 0.2j)) > 1e-3


def test_sampled_function_validation():
    with pytest.raises(DomainError):
        make_sampled(0.0, -0.1, [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        make_sampled(0.0, 0.1, [[1.0], [2.0]])
    g = make_sampled(-1.0, 0.5, [0.0, 1.0, 0.0])
    assert np.array_equal(g.t_grid, np.array([-1.0, -0.5, 0.0]))
    assert g.n == 3 and g.t_end == pytest.approx(0.0)
