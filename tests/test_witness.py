"""Witness construction, the three-part norm, certificate optimization, and
the frozen bound-chain constant."""

import json
import math
import warnings

import numpy as np
import pytest

from tauberlab import checks, growth, witness
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

    def log_integrand(pts, y):
        log_modulus = -pts.real * w.t + kernel.log_modulus_transform_xy(pts.real, y - w.R)
        logv = log_modulus - np.log(weight(np.abs(y)))
        if variant == "derivative":
            with np.errstate(divide="ignore"):
                logv = logv + np.log(np.abs(pts))
        return logv

    def widths(ys):
        half = 1.0 / np.asarray(m(ys))
        return half, half

    log_sup, _ = witness.banded_grid_sup(log_integrand, kernel.epsilon, w.R, widths)
    deriv_mod = np.abs(1j * w.R * kernel.samples.values + kernel.derivative)
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


@pytest.mark.parametrize("t", [1e3, 1e6])
def test_optimize_R_refines_in_few_evaluations(poly2, monkeypatch, t):
    # 64 coarse R, then Brent's steps on log R: 33 at t = 1e3 and 29 at
    # t = 1e6 measured, against a cap of 72
    calls = []
    bound_rhs = witness.bound_rhs
    monkeypatch.setattr(witness, "bound_rhs", lambda *a, **k: calls.append(a) or bound_rhs(*a, **k))
    witness.optimize_R(poly2, t, EPS1)
    assert len(calls) <= 64 + 40


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


def _band_widths(ys):
    half = np.full(ys.shape, 0.5)
    return half, half


def test_banded_grid_sup_of_a_stack_matches_separate_calls():
    R = 20.0
    high = R + 30.0 / EPS1  # above the first grid: reached only by extensions

    def near(pts, y):  # stops on its own before it reaches its higher bump at `high`
        return np.maximum(-((y - R) ** 2), 5.0 - np.abs(y - high)) - pts.real ** 2

    def far(pts, y):  # climbs to `high` through extensions
        return -np.abs(y - high) + 0.0 * pts.real

    one_near, meta_near = witness.banded_grid_sup(near, EPS1, R, _band_widths)
    one_far, meta_far = witness.banded_grid_sup(far, EPS1, R, _band_widths)
    assert isinstance(one_near, float) and isinstance(one_far, float)
    assert meta_near["extensions"] == 0 < meta_far["extensions"]
    both, meta = witness.banded_grid_sup(
        lambda pts, y: np.stack([near(pts, y), far(pts, y)]), EPS1, R, _band_widths)
    assert both.tolist() == [one_near, one_far]  # each keeps its own stopping rule
    assert meta["extensions"] == meta_far["extensions"]
    assert meta["n_points"] == meta_far["n_points"]


def test_coarse_scan_of_several_objectives_matches_each_alone():
    def f(x):
        return (math.log(x) - 2.0) ** 2

    def g(x):
        return abs(math.log(x) - 5.0)

    xs, rows = witness.coarse_log_scan(lambda x: [f(x), g(x)], 1.0, 1e4, 17)
    for fn, row in ((f, rows[0]), (g, rows[1])):
        xs_alone, row_alone = witness.coarse_log_scan(fn, 1.0, 1e4, 17)
        assert xs.tolist() == xs_alone.tolist() and row.tolist() == row_alone.tolist()
        assert witness.refine_log_scale(fn, xs, row, 30) == witness.refine_log_scale(fn, xs_alone, row_alone, 30)


def test_banded_grid_sup_without_localization_raises_alone_and_is_inf_in_a_stack():
    def settles(pts, y):
        return -((y - 20.0) ** 2) - pts.real ** 2

    def grows(pts, y):  # rises with the height forever: never settles
        return y + 0.0 * pts.real

    with pytest.raises(DomainError, match="did not localize"):
        witness.banded_grid_sup(grows, EPS1, 20.0, _band_widths)
    alone, _ = witness.banded_grid_sup(settles, EPS1, 20.0, _band_widths)
    both, meta = witness.banded_grid_sup(
        lambda pts, y: np.stack([settles(pts, y), grows(pts, y)]), EPS1, 20.0, _band_widths)
    assert both.tolist() == [alone, math.inf]
    assert meta["extensions"] == 60


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

        xs, row = witness.coarse_log_scan(fn, 1.0, 1e4, 17)
        counted, seen = _counted(fn)
        x, v = witness.refine_log_scale(counted, xs, row, 40)
        assert abs(math.log(x) - centre) < 1e-7
        assert v == fn(x) and v <= float(np.min(row))
        assert len(seen) <= 12  # the cap is iters + 2 = 42


def test_refine_log_scale_caps_the_evaluations_at_iters_plus_two():
    def rough(x):  # many shallow local minima: the parabola keeps missing
        u = math.log(x)
        return abs(u - 4.321) ** 0.3 + 1e-3 * math.sin(1e4 * u)

    xs, row = witness.coarse_log_scan(rough, 1.0, 1e4, 17)
    for iters in (0, 1, 3, 10, 40):
        counted, seen = _counted(rough)
        witness.refine_log_scale(counted, xs, row, iters)
        assert 1 <= len(seen) <= iters + 2


def test_refine_log_scale_never_returns_more_than_the_coarse_minimum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coef = rng.normal(size=6)

        def fn(x):  # a random wiggly objective in log x
            u = math.log(x) / 4.0
            return float(sum(c * math.cos(k * u) for k, c in enumerate(coef)))

        xs, row = witness.coarse_log_scan(fn, 1.0, 1e4, 9)
        x, v = witness.refine_log_scale(fn, xs, row, 40)
        assert v <= float(np.min(row))
        assert v == fn(x)


def test_refine_log_scale_with_the_coarse_minimum_at_either_end():
    xs = np.geomspace(1.0, 1e4, 17)
    for fn, end, neighbour in ((lambda x: x, 0, 1), (lambda x: 1.0 / x, -1, -2)):
        counted, seen = _counted(fn)
        x, v = witness.refine_log_scale(counted, xs, np.array([fn(x) for x in xs]), 40)
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
        xs, row = witness.coarse_log_scan(fn, 1.0, 1e4, 17)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            x, v = witness.refine_log_scale(fn, xs, row, 40)
        assert math.isfinite(v) and v <= float(np.min(row))
        assert abs(math.log(x) - u_max) < 1e-6
