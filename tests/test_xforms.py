"""Quadrature, sampled functions, Laplace/Fourier transforms, and the
mean-value analyticity check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberlab import specialfn, xforms
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
        assert lams.size > xforms.LAPLACE_BLOCK  # more than one block of points
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


def _direct_laplace_sum(t0, step, wv, lams):
    t = t0 + step * np.arange(wv.size)
    return np.array([np.sum(wv * np.exp(-lam * t)) for lam in lams])


def _assert_matches_direct(t0, step, wv, lams):
    got = xforms.laplace_sum(t0, step, wv, lams)
    expect = _direct_laplace_sum(t0, step, wv, lams)
    assert got.shape == lams.shape
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("n", [1, 2, 3, 7**2, 7**2 + 1, 400, 401])
@pytest.mark.parametrize("t0", [0.0, -3.7, 2.35])
def test_laplace_sum_matches_direct_sum(rng, n, t0):
    # |Im lam| * |t| reaches about 1e3 on a grid that need not start at 0,
    # over more points than one block holds
    step = 0.025
    wv = rng.normal(size=n) + 1j * rng.normal(size=n)
    t_max = max(abs(t0), abs(t0 + step * (n - 1)), 1.0)
    lams = rng.uniform(-0.3, 0.3, 300) + 1j * rng.uniform(-1e3, 1e3, 300) / t_max
    assert lams.size > xforms.LAPLACE_BLOCK
    _assert_matches_direct(t0, step, wv, lams)


def test_laplace_sum_trims_zero_weights(rng):
    n = 401
    wv = rng.normal(size=n) + 1j * rng.normal(size=n)
    wv[:37] = 0.0
    wv[-120:] = 0.0
    wv[200:210] = 0.0  # an interior run stays in the sum
    lams = rng.uniform(-0.5, 0.5, 50) + 1j * rng.uniform(-40.0, 40.0, 50)
    _assert_matches_direct(-5.0, 0.025, wv, lams)
    zero = xforms.laplace_sum(-5.0, 0.025, np.zeros(n, dtype=complex), lams)
    assert zero.shape == lams.shape and not np.any(zero)


def test_laplace_sum_span_edge_cases(rng):
    lams = rng.uniform(-0.5, 0.5, 50) + 1j * rng.uniform(-40.0, 40.0, 50)
    for wv in (np.zeros(0, dtype=complex), np.zeros(401, dtype=complex)):
        zero = xforms.laplace_sum(-5.0, 0.025, wv, lams)
        assert zero.shape == lams.shape and not np.any(zero)
    for k in (0, 400):  # a single nonzero entry at either end
        wv = np.zeros(401, dtype=complex)
        wv[k] = 1.5 - 0.5j
        _assert_matches_direct(-5.0, 0.025, wv, lams)
    # entries whose only nonzero part is imaginary stay in the span
    wv = np.zeros(401, dtype=complex)
    wv[0] = complex(-0.0, 2.0)
    wv[200] = 1.0
    wv[-1] = 3.0j
    _assert_matches_direct(-5.0, 0.025, wv, lams)
    # -0.0 at the ends counts as zero: the same span, so the same bits
    wv = rng.normal(size=401) + 1j * rng.normal(size=401)
    wv[:3] = 0.0
    wv[-3:] = 0.0
    signed = wv.copy()
    signed[0] = complex(-0.0, -0.0)
    signed[-1] = complex(-0.0, 0.0)
    got = xforms.laplace_sum(-5.0, 0.025, signed, lams)
    assert np.array_equal(got.view(float), xforms.laplace_sum(-5.0, 0.025, wv, lams).view(float))


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


_DENSE_CASES = [(9, 40, -1.3), (16, 40, 0.7), (101, 7, -3.1), (64, 257, 2.2)]


@pytest.mark.parametrize("n_u, n_t, t0", _DENSE_CASES)
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


def _kernel_inversion():
    """The fourier_invert arguments of the one inversion kernels are built
    from, the m0 = 1 strip's; every other m0 rescales that kernel."""
    strip = specialfn.build_strip_function(1.0)
    grid = specialfn._UNIT_GRID
    tol = max(specialfn._KERNEL_TOL / (4.0 * grid[1] * (grid[2] - 1)), 1e-15)
    return (lambda u: strip(1j * u)), strip.epsilon, tol, grid


def _kinked_spectrum(u):
    # Simpson converges only at second order across the kink, so tol = 1e-7
    # takes four refinements from the initial 513 points
    return np.exp(-np.abs(u - 0.1))


_REFINING = (_kinked_spectrum, 1.0, 1e-7, (-4.0, 0.05, 161))


def _counted(monkeypatch, inversion):
    """fourier_invert on inversion, counting its _chirpz_sum and spectrum calls."""
    spectrum, *rest = inversion
    chirpz_calls, spectrum_sizes = [], []
    chirpz = xforms._chirpz_sum

    def counted_chirpz(*args):
        chirpz_calls.append(args[0].size)
        return chirpz(*args)

    def counted_spectrum(u):
        spectrum_sizes.append(u.size)
        return spectrum(u)

    monkeypatch.setattr(xforms, "_chirpz_sum", counted_chirpz)
    out = xforms.fourier_invert(counted_spectrum, *rest)
    return out, chirpz_calls, spectrum_sizes


def _accepted_weights(inversion, out):
    """The Simpson-weighted spectrum and step of out's accepted level."""
    spectrum = inversion[0]
    U, n = out.meta["u_max"], out.meta["n_u"]
    du = 2.0 * U / (n - 1)
    return xforms.simpson_weights(n, du) * spectrum(np.linspace(-U, U, n)), U, du


@pytest.mark.parametrize("case", ["kernel m0=1", "refining"])
def test_fourier_invert_makes_one_chirpz_sum_and_one_spectrum_call_per_level(monkeypatch, case):
    inversion = _kernel_inversion() if case == "kernel m0=1" else _REFINING
    out, chirpz_calls, spectrum_sizes = _counted(monkeypatch, inversion)
    n_u = out.meta["n_u"]
    assert chirpz_calls == [n_u]
    # one spectrum call per level, each level's step half the last one's
    assert spectrum_sizes[-1] == n_u
    assert all(b == 2 * a - 1 for a, b in zip(spectrum_sizes, spectrum_sizes[1:]))
    assert len(spectrum_sizes) >= (2 if case == "kernel m0=1" else 3)
    assert out.meta["quad_err"] < out.meta["tol"]


def test_refined_inversion_is_the_chirpz_sum_at_the_accepted_level():
    out = xforms.fourier_invert(*_REFINING)
    assert out.meta["n_u"] == 16 * 512 + 1  # four halvings of the initial 513-point step
    wv, U, du = _accepted_weights(_REFINING, out)
    t_start, step, n_t = _REFINING[3]
    expect = xforms._chirpz_sum(wv, -U, du, t_start, step, n_t) / (2.0 * math.pi)
    assert np.array_equal(out.values.view(float), expect.view(float))


@pytest.mark.parametrize("m0, n_u", [(1.0, 2005)])
def test_kernel_inversion_spectral_counts(m0, n_u):
    # only the m0 = 1 strip is inverted; every kernel carries that inversion's count
    assert xforms.fourier_invert(*_kernel_inversion()).meta["n_u"] == n_u
    for scaled in (m0, 0.3, 11.0):
        kernel = specialfn.build_kernel(specialfn.build_strip_function(scaled))
        assert kernel.samples.meta["n_u"] == n_u


@pytest.mark.parametrize("case", ["kernel m0=1", "refining"])
def test_probe_sums_match_the_chirpz_sum_at_the_probes(case):
    inversion = _kernel_inversion() if case == "kernel m0=1" else _REFINING
    out = xforms.fourier_invert(*inversion)
    wv, U, du = _accepted_weights(inversion, out)
    t_start, step, n_t = inversion[3]
    probe_idx = np.unique(np.linspace(0, n_t - 1, 33).astype(int))
    probe = xforms.laplace_sum(-U, du, wv, -1j * (t_start + step * probe_idx)) / (2.0 * math.pi)
    assert np.max(np.abs(probe - out.values[probe_idx])) <= 1e-13 * np.max(np.abs(out.values))


def _chirp_grids():
    """(dt, du, n, n_t) of the kernel inversion and of the dense-sum cases."""
    inversion = _kernel_inversion()
    _, dt, n_t = inversion[3]
    out = xforms.fourier_invert(*inversion)
    yield dt, 2.0 * out.meta["u_max"] / (out.meta["n_u"] - 1), out.meta["n_u"], n_t
    for n_u, n_t, _ in _DENSE_CASES:
        yield 0.05, 0.31, n_u, n_t


def test_output_chirp_is_the_conjugate_of_the_convolution_chirp():
    # _chirpz_sum takes its output factor exp(i dt du k^2/2) as the conjugate
    # of the chirp exp(-i dt du m^2/2); this holds bit for bit only because
    # numpy's complex exp is odd in the phase, which this pins
    for dt, du, n, n_t in _chirp_grids():
        m = np.arange(max(n, n_t), dtype=float)
        k = np.arange(n_t, dtype=float)
        chirp = xforms._cis(dt, du, -0.5 * m * m)
        assert np.array_equal(np.conj(chirp[:n_t]), xforms._cis(dt, du, 0.5 * k * k))


def test_fourier_invert_validates():
    with pytest.raises(DomainError):
        xforms.fourier_invert(lambda u: np.exp(-(u**2)), eps_decay=-1.0, tol=1e-8,
                              out_grid=(-1.0, 0.1, 21))
    with pytest.raises(DomainError):
        xforms.fourier_invert(lambda u: np.exp(-(u**2)), eps_decay=1.0, tol=1e-8,
                              out_grid=(-1.0, 0.0, 21))


def test_cauchy_check_flags_non_analytic():
    assert max(xforms.cauchy_check(np.exp, [0.3 + 0.2j], 0.25)) < 1e-14
    assert min(xforms.cauchy_check(lambda z: np.abs(z), [0.3 + 0.2j], 0.25)) > 1e-3


def test_cauchy_check_of_three_centers_is_one_call_of_each_center_alone():
    # one residual per center, each bit for bit the center's own check; f
    # sees the centers, then 32 points of every circle, in one call
    centers = [0.3 + 0.2j, -0.1 + 1.5j, 2.0 - 0.7j]
    calls = []

    def f(z):
        calls.append(z.shape)
        return np.exp(z) + np.where(z.real > 1.9, np.abs(z), 0.0)  # kinked near the last

    residuals = xforms.cauchy_check(f, centers, 0.25)
    assert calls == [(3 + 3 * 32,)]
    assert residuals == [xforms.cauchy_check(f, [c], 0.25)[0] for c in centers]
    assert max(residuals[:2]) < 1e-14 < 1e-3 < residuals[2]


def test_sampled_function_validation():
    with pytest.raises(DomainError):
        make_sampled(0.0, -0.1, [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        make_sampled(0.0, 0.1, [[1.0], [2.0]])
    g = make_sampled(-1.0, 0.5, [0.0, 1.0, 0.0])
    assert np.array_equal(g.t_grid, np.array([-1.0, -0.5, 0.0]))
    assert g.n == 3 and g.t_end == pytest.approx(0.0)
