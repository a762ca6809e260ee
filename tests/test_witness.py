"""Witness construction, the three-part norm, certificate optimization, and
the frozen bound-chain constant."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauberlab import checks, growth, logscale, regions, witness, xforms
from tauberlab.errors import ConfigurationError, DomainError

EPS1 = math.pi / 6.0


def test_modulated_translate_peak_and_residual(kernel):
    w = witness.modulated_translate(kernel, 8.0, 1.0)
    peak = w.samples.values[kernel.peak_index]
    assert abs(abs(peak) - 1.0) < 1e-12
    assert w.check_residual < 1e-5
    # translation shifts the grid, modulation leaves the modulus untouched
    assert w.samples.t0_grid == pytest.approx(1.0 + kernel.samples.t0_grid)
    assert np.max(np.abs(np.abs(w.samples.values) - np.abs(kernel.samples.values))) < 1e-15


def test_modulated_translate_validates(kernel):
    with pytest.raises(DomainError):
        witness.modulated_translate(kernel, 0.5, 1.0)
    with pytest.raises(DomainError):
        witness.modulated_translate(kernel, 8.0, 0.0)


def test_witness_transform_closed_form(kernel):
    w = witness.modulated_translate(kernel, 8.0, 2.0)
    lam = 0.1 + 3.0j
    expect = np.exp(-lam * 2.0) * kernel.transform(lam - 8.0j)
    assert abs(w.transform(lam) - expect) < 1e-14 * abs(expect)
    # the log modulus x_norm's weighted supremum reads at (R, t) = (8, 2)
    lv = -lam.real * 2.0 + kernel.log_modulus_transform_xy(lam.real, lam.imag - 8.0)
    assert lv == pytest.approx(math.log(abs(expect)), rel=1e-12)


def test_x_norm_pin(kernel, poly2):
    nb = witness.x_norm(kernel, 8.0, 1.0, poly2)
    assert nb.total == pytest.approx(11.583293523347281, rel=1e-12)
    assert nb.total == pytest.approx(nb.l1 + nb.w1inf + nb.weighted_sup, rel=1e-15)
    assert nb.l1 == pytest.approx(kernel.l1_norm, rel=1e-12)  # translation invariant
    assert nb.variant == "plain"


def test_x_norm_derivative_variant_larger(kernel, poly2):
    plain = witness.x_norm(kernel, 8.0, 1.0, poly2)
    deriv = witness.x_norm(kernel, 8.0, 1.0, poly2, variant="derivative")
    assert deriv.total > plain.total  # the extra |lam| factor only inflates


def _x_norm_of_sampled_witness(kernel, R, t, m, k, variant):
    """Reference: the class norm computed through a sampled, checked
    witness, whose R and t feed the norm parts and its log modulus."""
    w = witness.modulated_translate(kernel, R, t)
    weight = k if k is not None else m

    def log_integrand(pts, y, m_y, r, rows, slices):  # one slice
        log_modulus = -pts.real * w.t + kernel.log_modulus_transform_xy(pts.real, y - w.R)
        logv = log_modulus - np.log(weight(np.abs(y)))
        if variant == "derivative":
            with np.errstate(divide="ignore"):
                logv = logv + np.log(np.abs(pts))
        return logv[rows]

    (log_sup,), _ = regions.banded_grid_sup(log_integrand, kernel.epsilon, [w.R], m)
    deriv_mod = np.abs(1j * w.R * kernel.samples.values
                       + xforms.derivative_samples(kernel.samples))
    l1 = kernel.l1_norm
    w1inf = kernel.linf_norm + float(np.max(deriv_mod))
    sup = float(np.exp(log_sup))
    return l1 + w1inf + sup, sup, log_sup


@pytest.mark.parametrize("variant", ["plain", "derivative"])
@pytest.mark.parametrize("k_beta", [None, 1.0])
def test_x_norm_matches_the_sampled_witness_path(kernel, poly2, variant, k_beta):
    k = None if k_beta is None else growth.poly(k_beta)
    pairs = witness.calibration_lattice(poly2, EPS1, variant)
    assert len(pairs) == 64
    for R, t in pairs:
        nb = witness.x_norm(kernel, R, t, poly2, k=k, variant=variant)
        total, sup, log_sup = _x_norm_of_sampled_witness(kernel, R, t, poly2, k, variant)
        assert (nb.total, nb.weighted_sup, nb.meta["log_sup"]) == (total, sup, log_sup)


def test_x_norm_raises_where_its_slice_does_not_localize(kernel):
    # M = 0.3 widens the lens past the kernel's strip: the weighted transform
    # grows with the height, so the one-t stack's slice is +inf
    m = growth.constant(0.3)
    parts = witness._class_norm_parts(kernel, 8.0, [2.0], m, None, "plain")
    assert parts[2].tolist() == [math.inf] and parts[3]["extensions"] == 60
    with pytest.raises(DomainError, match="did not localize"):
        witness.x_norm(kernel, 8.0, 2.0, m)


@pytest.mark.parametrize("bad", [0.5, math.nan, math.inf])
def test_x_norm_validates_R_and_t(kernel, poly2, bad):
    with pytest.raises(DomainError, match="modulation frequency R"):
        witness.x_norm(kernel, bad, 2.0, poly2)
    with pytest.raises(DomainError, match="translation t"):
        witness.x_norm(kernel, 8.0, bad, poly2)


def test_bound_chain_builds_no_sampled_witness(kernel, strip1, poly2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bound chain reads no witness samples")

    monkeypatch.setattr(witness, "modulated_translate", refuse)
    witness.calibrate_kappa(kernel, poly2, EPS1, k=growth.poly(1.0), variant="derivative")
    ctx = checks.Context(0, poly2, EPS1, strip1, kernel)
    assert all(c.ok for c in checks.bound_chain_calibration(ctx))


def test_bound_rhs_pin(poly2):
    val, admissible = witness.bound_rhs(poly2, 20.0, 100.0, EPS1)
    assert val == pytest.approx(20.018885813171853, rel=1e-12)
    assert admissible


def test_bound_rhs_inadmissible_when_t_dominates(poly2):
    # t far beyond the decay window for a small R cannot be certified
    _, admissible = witness.bound_rhs(poly2, 8.0, 1e9, EPS1)
    assert not admissible


@pytest.mark.parametrize("R, t, message", [
    (0.5, 100.0, "modulation frequency R must be >= 1, got 0.5"),
    (20.0, math.nan, "translation t must be >= 1, got nan"),
])
def test_bound_rhs_refuses_R_and_t_as_x_norm_does(kernel, poly2, R, t, message):
    # one validator: the bound and the norm it dominates refuse a pair alike
    for call in (lambda: witness.bound_rhs(poly2, R, t, EPS1),
                 lambda: witness.x_norm(kernel, R, t, poly2)):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message


def test_optimize_R_pins(poly2):
    cert = witness.optimize_R(poly2, 1000.0, EPS1)
    assert cert.R_star == pytest.approx(26.385681586045084, rel=1e-9)
    assert cert.N == pytest.approx(27.096642803878598, rel=1e-9)
    assert cert.implied_floor == pytest.approx(1.0 / cert.N, rel=1e-15)
    assert cert.rate_comparison == pytest.approx(2.54511558263352, rel=1e-9)
    assert cert.admissible


def test_optimize_R_large_t_pins(poly2):
    cert = witness.optimize_R(poly2, 1e6, EPS1)
    assert cert.R_star == pytest.approx(531.6036411408916, rel=1e-9)
    assert cert.N == pytest.approx(549.3333915162412, rel=1e-9)


@pytest.mark.parametrize("variant, t, R_star, N, n_calls", [
    ("plain", 1.0, 1.0, 1.693165998936347, 64 + 37),
    ("plain", 1e3, 26.385681586045084, 27.0966428038786, 64 + 33),
    ("plain", 1e6, 531.6036416601374, 549.3333915162412, 64 + 29),
    ("derivative", 1.0, 1.0, 1.693165998936347, 64 + 36),
    ("derivative", 1e3, 52.77136317209017, 53.03831284118231, 64 + 32),
    ("derivative", 1e6, 674.6990837706355, 711.3422350434128, 64 + 32),
])
def test_optimize_R_search_is_pinned_to_the_float(poly2, monkeypatch, variant, t, R_star, N,
                                                   n_calls):
    # the optimum and the bound_rhs calls of the search, exactly: the coarse
    # scan and Brent's steps on log R may be reorganised but not changed
    calls = []
    bound_rhs = witness.bound_rhs
    monkeypatch.setattr(witness, "bound_rhs", lambda *a, **k: calls.append(a) or bound_rhs(*a, **k))
    cert = witness.optimize_R(poly2, t, EPS1, variant=variant)
    assert (cert.R_star, cert.N, len(calls)) == (R_star, N, n_calls)


@pytest.mark.parametrize("t", [1e3, 1e6])
def test_optimize_R_refines_in_few_evaluations(poly2, monkeypatch, t):
    # 64 coarse R, then Brent's steps on log R: 33 at t = 1e3 and 29 at
    # t = 1e6 measured, against a cap of 72
    calls = []
    bound_rhs = witness.bound_rhs
    monkeypatch.setattr(witness, "bound_rhs", lambda *a, **k: calls.append(a) or bound_rhs(*a, **k))
    witness.optimize_R(poly2, t, EPS1)
    assert len(calls) <= 64 + 40


@pytest.mark.parametrize("spec, n_calls", [("poly:beta=2", 64 + 37), ("exp:alpha=1", 64 + 37),
                                           ("log:m0=1", 64 + 37), ("const:m0=1", 64 + 36)])
def test_optimize_R_at_t_1_stops_on_its_tolerance(monkeypatch, spec, n_calls):
    # at t = 1 the coarse minimum is R = 1, log R = 0, where the relative
    # x tolerance vanishes; floored at the resolution of R, Brent stops
    # well inside its cap of 72 steps (64 + 72 = 136 calls without the floor)
    calls = []
    bound_rhs = witness.bound_rhs
    monkeypatch.setattr(witness, "bound_rhs", lambda *a, **k: calls.append(a) or bound_rhs(*a, **k))
    cert = witness.optimize_R(growth.parse_growth_spec(spec), 1.0, EPS1)
    assert cert.R_star == 1.0
    assert len(calls) == n_calls


def test_certificate_json_shape(poly2):
    cert = witness.optimize_R(poly2, 1000.0, EPS1, prescribed_C=6.0)
    d = cert.to_json_dict()
    blob = json.dumps(d)  # must be serializable as-is
    assert json.loads(blob) == d
    assert d["m_spec"] == "poly:beta=2"
    assert d["prescribed_choice"]["admissible"] is True
    assert d["prescribed_choice"]["R"] > 0
    for key in ("R_star", "N", "implied_floor", "t", "epsilon", "variant"):
        assert key in d


def test_prescribed_choice_constant_matters(poly2):
    # C below the admissibility threshold max(2, 2 alpha/eps) = 12/pi ~ 3.82
    low = witness.optimize_R(poly2, 1000.0, EPS1, prescribed_C=2.5)
    high = witness.optimize_R(poly2, 1000.0, EPS1, prescribed_C=6.0)
    assert high.prescribed_admissible
    assert high.prescribed_R == pytest.approx(6.0 * growth.right_inverse(growth.m_log(poly2), 1000.0))
    assert low.prescribed_R < high.prescribed_R


@pytest.mark.parametrize("search", [
    lambda m, **kw: witness.optimize_R(m, 1e3, EPS1, **kw),
    lambda m, **kw: witness.sharpness_curve(m, [1e2, 1e3], EPS1, **kw),
], ids=["optimize_R", "sharpness_curve"])
@pytest.mark.parametrize("kwargs, error, message", [
    ({"R_max": math.inf}, DomainError, "R_max must be a finite number >= 1, got inf"),
    ({"R_max": math.nan}, DomainError, "R_max must be a finite number >= 1, got nan"),
    ({"R_max": 0.5}, DomainError, "R_max must be a finite number >= 1, got 0.5"),
    ({"prescribed_C": math.inf}, ConfigurationError,
     "prescribed_C must be a finite positive number, got inf"),
], ids=["R_max=inf", "R_max=nan", "R_max=0.5", "prescribed_C=inf"])
def test_searches_refuse_a_bad_range_or_choice_before_any_evaluation(poly2, monkeypatch, search,
                                                                     kwargs, error, message):
    # R_max = inf once warned in numpy and then failed on "R=inf", as did prescribed_C = inf
    monkeypatch.setattr(growth, "right_inverse", lambda *a: pytest.fail("rate inverted"))
    monkeypatch.setattr(witness, "bound_rhs", lambda *a: pytest.fail("bound evaluated"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            search(poly2, **kwargs)
    assert str(exc.value) == message


def test_optimize_R_infeasible_time(poly2):
    cert = witness.optimize_R(poly2, 1e12, EPS1, R_max=20.0)
    assert not cert.admissible


def test_sharpness_curve_small_grid(poly2):
    t_grid = np.geomspace(1e2, 1e4, 5)
    sc = witness.sharpness_curve(poly2, t_grid, EPS1)
    assert sc.all_feasible
    assert sc.band_ratio < 10.0
    assert len(sc.certificates) == 5
    assert np.all(np.asarray(sc.ratios) > 0)


@pytest.mark.parametrize("variant", ["plain", "derivative"])
def test_sharpness_ratios_invert_the_rate_once_per_comparison(poly2, monkeypatch, variant):
    # the plain ratio is optimize_R's rate comparison, N over the inverse
    # rate at t; the derivative one inverts the rate again, at c t.  At
    # t = 1e30 no R <= R_max is admissible, and the ratio is nan
    t_grid = [1e2, 1e3, 1e4, 1e30]
    targets = []
    right_inverse = growth.right_inverse
    monkeypatch.setattr(growth, "right_inverse",
                        lambda m, t: targets.append(t) or right_inverse(m, t))
    sc = witness.sharpness_curve(poly2, t_grid, EPS1, variant=variant, R_max=200.0)
    c = 1.0 if variant == "plain" else 1.5
    expect = [math.nan if cert.N is None else cert.N / right_inverse(growth.m_log(poly2), c * t)
              for cert, t in zip(sc.certificates, t_grid)]
    assert [cert.N is None for cert in sc.certificates] == [False] * 3 + [True]
    assert np.array_equal(sc.ratios, expect, equal_nan=True)
    assert len(targets) == (1 if variant == "plain" else 2) * len(t_grid)


@pytest.mark.parametrize("k_beta", [None, 1.0])
def test_bound_rhs_evaluates_each_growth_function_once_per_call(monkeypatch, k_beta):
    m = growth.poly(2.0)
    k = None if k_beta is None else growth.poly(k_beta)
    seen = []
    call = growth.GrowthFunction.__call__
    monkeypatch.setattr(growth.GrowthFunction, "__call__",
                        lambda self, s: seen.append((self.label, s)) or call(self, s))
    # M(0) for the admissibility flag is evaluated once per growth function
    first = [("poly:beta=2", 0.0)]
    for R in (20.0, 30.0):
        witness.bound_rhs(m, R, 100.0, EPS1, "plain", k)
        weight = [] if k is None else [(k.label, R / 2.0)]
        assert seen == first + [("poly:beta=2", R / 2.0)] + weight
        seen.clear()
        first = []


def test_an_overflow_with_the_rate_inverse_above_R_max_names_both():
    # sweep --m poly:beta=0.5 stops at the 24th of its 25 t: there the rate
    # inverse is 5.13e8, far above the default R_max = 1e6, and a larger
    # R_max certifies the point
    m = growth.poly(0.5)
    t = float(np.geomspace(1e2, 1e6, 25)[23])
    message = ("the two-term bound overflows at every evaluated admissible R in "
               "[51.3055, 1e+06] for t = 681292: the rate inverse 5.12878e+08 lies above "
               "R_max = 1e+06, so a larger R_max may certify this t")
    with pytest.raises(DomainError) as exc:
        witness.optimize_R(m, t, EPS1)
    assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:  # the curve stops at the same t, with the same text
        witness.sharpness_curve(m, np.geomspace(1e2, 1e6, 25), EPS1)
    assert str(exc.value) == message
    cert = witness.optimize_R(m, t, EPS1, R_max=1e12)
    assert cert.admissible and math.isfinite(cert.N) and 1e6 < cert.R_star < 1e12


def test_an_overflow_past_an_unbounded_rate_inverse_looks_the_inverse_up_once(monkeypatch):
    # log(1)'s rate stays below t = 1e4 up to s = 2**60: the one lookup per t
    # that found no inverse also says why, so the message needs no second search
    calls = []
    right_inverse = growth.right_inverse
    monkeypatch.setattr(growth, "right_inverse",
                        lambda f, t: calls.append(t) or right_inverse(f, t))
    with pytest.raises(DomainError, match=r"rate inverse lies above 2\*\*60 > R_max = 1e\+06"):
        witness.optimize_R(growth.logarithmic(1.0), 1e4, EPS1)
    assert calls == [1e4]


_GROWTH = st.one_of(
    st.floats(0.5, 3.0).map(growth.poly),
    st.floats(0.5, 2.0).map(growth.logarithmic),
    st.floats(0.5, 2.0).map(growth.constant),
    st.floats(0.5, 2.0).map(growth.exponential),
)


def _outcome(call):
    """call()'s value, or the text of the DomainError it raises."""
    try:
        return call()
    except DomainError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=_GROWTH, log_ts=st.lists(st.floats(0.0, 7.0), min_size=1, max_size=8),
       derivative=st.booleans(), k_beta=st.none() | st.floats(0.5, 2.0),
       prescribed_C=st.none() | st.floats(0.5, 10.0),
       R_max=st.sampled_from([1e6, 1e3, 40.0, 1.0, "R_lo"]))
@example(growth.poly(2.0), [2.0, 3.0, 4.0, 5.0, 6.0], False, None, 6.0, "R_lo")
@example(growth.poly(0.5), [2.0, 5.8, 6.0], True, 1.0, None, 1e6)  # overflows at 10^5.8
@example(growth.constant(1.0), [0.0, 1.0, 2.0, 3.0], False, None, 2.0, 1e6)  # overflows at 1e3
def test_sharpness_curve_certificates_are_optimize_R_at_each_t(m, log_ts, derivative, k_beta,
                                                               prescribed_C, R_max):
    # the curve's searches run side by side in one driver call; each
    # certificate is optimize_R's for its t alone, to the bit, and where some
    # t overflows the curve raises that of the first such t.  The derivative
    # variant's ratios need a polynomial lower envelope, which only poly has.
    variant = "derivative" if derivative and growth.lower_rate_constant(m) else "plain"
    ts = sorted({10.0 ** u for u in log_ts})
    k = None if k_beta is None else growth.poly(k_beta)
    eps = math.pi * m.m0 / 6.0
    if R_max == "R_lo":  # the admissible range of the middle t is the one point R_max
        t = ts[len(ts) // 2]
        gate = 2.0 * (math.log(t) - math.log(m.m0)) / witness.effective_eps(eps, variant)
        R_max = max(1.0, gate * (1.0 + 1e-9))
    kwargs = dict(k=k, variant=variant, R_max=R_max, prescribed_C=prescribed_C)
    singles = [_outcome(lambda t=t: witness.optimize_R(m, t, eps, **kwargs)) for t in ts]
    curve = _outcome(lambda: witness.sharpness_curve(m, ts, eps, **kwargs))
    failed = [text for text in singles if isinstance(text, str)]
    if failed:
        assert curve == failed[0]
    else:
        assert curve.certificates == tuple(singles)


def test_sharpness_curve_derivative_variant_needs_a_lower_envelope():
    # c = 1 + 1/beta comes from the declared lower envelope, which exp lacks
    with pytest.raises(ConfigurationError):
        witness.sharpness_curve(growth.exponential(0.5), [10.0], EPS1, variant="derivative")


def test_calibrate_kappa_pins(kernel, poly2):
    cal = witness.calibrate_kappa(kernel, poly2, EPS1)
    assert cal.kappa == pytest.approx(2.160623534359938, rel=1e-9)
    assert cal.max_ratio == pytest.approx(1.440415689573292, rel=1e-9)
    assert cal.kappa == pytest.approx(cal.margin * cal.max_ratio, rel=1e-15)
    assert cal.margin == 1.5
    assert len(cal.pairs) == len(cal.ratios) > 0


def test_calibration_lattice_is_admissible(poly2):
    pairs = witness.calibration_lattice(poly2, EPS1)
    assert len(pairs) > 0
    for R, t in pairs:
        _, admissible = witness.bound_rhs(poly2, R, t, EPS1)
        assert admissible


def test_calibrate_kappa_refuses_an_empty_or_non_finite_lattice(kernel, poly2):
    with pytest.raises(DomainError, match="lattice .* is empty"):
        witness.calibrate_kappa(kernel, poly2, 1e-300)  # no t >= 1 is admissible
    with pytest.raises(DomainError, match="no finite kappa"):
        witness.calibrate_kappa(kernel, growth.exponential(1.0), 1e3)  # x_norm overflows


@pytest.mark.parametrize("beta", [2.0, 1.9])
@pytest.mark.parametrize("variant, k_beta", [("plain", None), ("derivative", None), ("plain", 1.0)])
def test_calibrate_kappa_ratios_equal_the_per_pair_x_norm(kernel, beta, variant, k_beta):
    # one grid per lattice R, one integrand slice per t: each ratio is bit
    # for bit the one x_norm and bound_rhs give for its pair alone
    m = growth.poly(beta)
    k = None if k_beta is None else growth.poly(k_beta)
    cal = witness.calibrate_kappa(kernel, m, EPS1, k=k, variant=variant)
    assert len(cal.pairs) == 64
    expect = [witness.x_norm(kernel, R, t, m, k=k, variant=variant).total
              / witness.bound_rhs(m, R, t, EPS1, variant, k)[0] for R, t in cal.pairs]
    assert cal.ratios.tolist() == expect


def _scan(fn, lo, hi, n_points):
    """A coarse row: fn at n_points log-spaced x from lo to hi."""
    xs = np.geomspace(lo, hi, n_points)
    return xs, np.array([fn(x) for x in xs])


def _refine_alone(fn, xs, row, iters):
    """refine_log_scale of one row, a batch of one: fn evaluated per step."""
    return logscale.refine_log_scale(lambda points, _: [fn(points[0])], [(xs, row)], iters)[0]


def _counted(fn):
    """fn with a list of the x it was evaluated at."""
    seen = []

    def wrapped(x):
        seen.append(x)
        return fn(x)

    return wrapped, seen


def test_refine_log_scale_finds_a_smooth_minimum_in_few_evaluations():
    for centre in (0.7, 3.3, 8.9):
        def fn(x, c=centre):  # smooth and convex in log x, minimum 1 at log x = c
            return math.exp(math.log(x) - c) - (math.log(x) - c)

        xs, row = _scan(fn, 1.0, 1e4, 17)
        counted, seen = _counted(fn)
        x, v = _refine_alone(counted, xs, row, 40)
        assert abs(math.log(x) - centre) < 1e-7
        assert v == fn(x) and v <= float(np.min(row))
        assert len(seen) <= 12  # the cap is iters + 2 = 42


def test_refine_log_scale_caps_the_evaluations_at_iters_plus_two():
    def rough(x):  # many shallow local minima: the parabola keeps missing
        u = math.log(x)
        return abs(u - 4.321) ** 0.3 + 1e-3 * math.sin(1e4 * u)

    xs, row = _scan(rough, 1.0, 1e4, 17)
    for iters in (0, 1, 3, 10, 40):
        counted, seen = _counted(rough)
        _refine_alone(counted, xs, row, iters)
        assert 1 <= len(seen) <= iters + 2


def test_refine_log_scale_never_returns_more_than_the_coarse_minimum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coef = rng.normal(size=6)

        def fn(x):  # a random wiggly objective in log x
            u = math.log(x) / 4.0
            return float(sum(c * math.cos(k * u) for k, c in enumerate(coef)))

        xs, row = _scan(fn, 1.0, 1e4, 9)
        x, v = _refine_alone(fn, xs, row, 40)
        assert v <= float(np.min(row))
        assert v == fn(x)


def test_refine_log_scale_with_the_coarse_minimum_at_either_end():
    xs = np.geomspace(1.0, 1e4, 17)
    for fn, end, neighbour in ((lambda x: x, 0, 1), (lambda x: 1.0 / x, -1, -2)):
        counted, seen = _counted(fn)
        x, v = _refine_alone(counted, xs, np.array([fn(x) for x in xs]), 40)
        bracket = sorted((xs[end], xs[neighbour]))
        # the minimum sits on the end of the scan: Brent closes in on it
        # without evaluating outside the scan
        assert all(bracket[0] <= s <= bracket[1] for s in seen)
        assert abs(math.log(x) - math.log(xs[end])) < 1e-6
        assert v <= fn(xs[end])


def test_refine_log_scale_copes_with_inf_over_part_of_the_bracket():
    def past(u_max):  # overflows right of log x = u_max, like a norm at too large an R
        def fn(x):
            u = math.log(x)
            return np.float64(np.inf) if u > u_max else np.float64((u - u_max - 0.1) ** 2)
        return fn

    # coarse spacing 0.58 in log x: the first objective is finite on the
    # left part of its bracket, the second only next to the first coarse x,
    # so the first Brent step lands on inf
    for u_max in (2.4, 0.05):
        fn = past(u_max)
        xs, row = _scan(fn, 1.0, 1e4, 17)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            x, v = _refine_alone(fn, xs, row, 40)
        assert math.isfinite(v) and v <= float(np.min(row))
        assert abs(math.log(x) - u_max) < 1e-6


def test_modulated_translate_refuses_R_above_the_sampling_limit(kernel):
    # pi/step - 6/eps: above it the band of the transform, 6/eps wide,
    # reaches past the grid's Nyquist frequency and the samples alias
    limit = witness.sampling_limit(kernel)
    assert limit == math.pi / kernel.samples.step - 6.0 / kernel.epsilon
    assert limit == pytest.approx(616.859, abs=1e-3)
    for R in (limit - 1.0, math.nextafter(limit, 0.0), limit):
        assert witness.modulated_translate(kernel, R, 3.0).check_residual < 1e-5
    for R in (math.nextafter(limit, math.inf), limit + 1.0, 640.0, 25761.8):
        with pytest.raises(DomainError, match="sampling limit"):
            witness.modulated_translate(kernel, R, 3.0)


def test_x_norm_totals_equal_x_norm_and_refuse_as_it_does(kernel, poly2):
    rng = np.random.default_rng(11)
    pairs = [(float(R), float(t)) for R, t in zip(np.exp(rng.uniform(0.0, 7.0, 12)),
                                                  np.exp(rng.uniform(0.0, 6.0, 12)))]
    pairs.append(pairs[3])  # a repeated pair shares its grid
    for variant, k in (("plain", None), ("derivative", growth.poly(1.0))):
        totals = witness.x_norm_totals(kernel, pairs, poly2, k=k, variant=variant)
        assert totals == [witness.x_norm(kernel, R, t, poly2, k=k, variant=variant).total
                          for R, t in pairs]
    assert witness.x_norm_totals(kernel, [], poly2) == []
    with pytest.raises(DomainError, match="did not localize"):
        witness.x_norm_totals(kernel, [(8.0, 2.0), (30.0, 5.0)], growth.constant(0.3))
    with pytest.raises(DomainError, match="modulation frequency R"):
        witness.x_norm_totals(kernel, [(8.0, 2.0), (0.5, 5.0)], poly2)
