"""Diagonal (multiplication) semigroup decay, the shift-semigroup witness
lower bound, and the measured-versus-predicted rate comparison."""

import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauberlab import checks, growth, logscale, regions, semigroup, specialfn, witness
from tauberlab.errors import DomainError, FitError
from tauberlab.xforms import derivative_samples, simpson_weights

EPS1 = math.pi / 6.0


def test_geometric_frequencies_default():
    f = semigroup.geometric_frequencies()
    assert f.size == 20
    assert f[0] == 2.0 and f[-1] == 2.0**20
    assert np.all(np.diff(f) > 0)


def test_geometric_frequencies_validation():
    with pytest.raises(DomainError):
        semigroup.geometric_frequencies(count=1)
    with pytest.raises(DomainError):
        semigroup.geometric_frequencies(base=1.0)


def test_mult_semigroup_eigenvalues(poly2):
    spec = semigroup.mult_semigroup(poly2, np.array([2.0, 4.0]))
    assert spec.eigenvalues[0] == complex(-1.0 / 9.0, 2.0)
    assert spec.eigenvalues[1] == complex(-1.0 / 25.0, 4.0)
    with pytest.raises(DomainError):
        semigroup.mult_semigroup(poly2, np.array([4.0, 2.0]))  # not increasing
    with pytest.raises(DomainError):
        semigroup.mult_semigroup(poly2, np.array([2.0]))  # need at least two


def test_decay_norm_pins_and_monotonicity(poly2):
    spec = semigroup.mult_semigroup(poly2, semigroup.geometric_frequencies())
    assert semigroup.decay_norm(spec, 1e3) == pytest.approx(0.012475238132392178, rel=1e-13)
    assert semigroup.decay_norm(spec, 1e6) == pytest.approx(0.00038479304831837076, rel=1e-13)
    ts = np.geomspace(1.0, 1e7, 40)
    vals = np.array([semigroup.decay_norm(spec, t) for t in ts])
    assert np.all(np.diff(vals) <= 1e-18)
    with pytest.raises(DomainError):
        semigroup.decay_norm(spec, -1.0)
    with pytest.raises(DomainError):
        semigroup.decay_norm(spec, math.inf)


def test_decay_norm_dominates_every_mode(poly2):
    spec = semigroup.mult_semigroup(poly2, semigroup.geometric_frequencies())
    for t in (10.0, 1e4):
        total = semigroup.decay_norm(spec, t)
        per_mode = np.exp(-t / np.asarray(poly2(spec.frequencies))) / np.abs(spec.eigenvalues)
        assert np.all(total >= per_mode - 1e-18)
        assert total == pytest.approx(per_mode.max(), rel=1e-15)


def test_mult_report_and_measured_slope(poly2):
    spec = semigroup.mult_semigroup(poly2, semigroup.geometric_frequencies())
    t_grid = np.geomspace(1e2, 1e6, 25)
    report = semigroup.mult_decay_report(spec, t_grid)
    assert report.kind == "multiplication"
    assert np.all(report.admissible)
    params = growth.RateParams(c=1.5, C_choice=1.0)
    fitted = semigroup.compare_rates(report, poly2, params)
    assert fitted.slopes["measured"] == pytest.approx(-0.5077169598333806, rel=1e-10)
    assert abs(fitted.slopes["measured"] + 0.5) <= 0.05
    assert not fitted.slopes["non_decaying"]
    assert fitted.constants["d1"] == pytest.approx(0.13436590470607207, rel=1e-10)
    assert fitted.constants["d2"] == pytest.approx(0.41078277446510075, rel=1e-10)


def test_compare_rates_needs_enough_points(poly2):
    spec = semigroup.mult_semigroup(poly2, semigroup.geometric_frequencies())
    report = semigroup.mult_decay_report(spec, np.geomspace(10.0, 100.0, 3))
    with pytest.raises(FitError):
        semigroup.compare_rates(report, poly2, growth.RateParams(c=1.0, C_choice=1.0))


def test_compare_rates_flags_non_decaying(poly2):
    t_grid = np.geomspace(10.0, 1e4, 8)
    report = semigroup.DecayReport(
        kind="multiplication",
        m_spec="poly:beta=2",
        t_grid=t_grid,
        values=np.full(8, 0.5),
        admissible=np.ones(8, dtype=bool),
    )
    fitted = semigroup.compare_rates(report, poly2, growth.RateParams(c=1.0, C_choice=1.0))
    assert fitted.slopes["non_decaying"]


def test_report_csv_roundtrip(poly2, tmp_path):
    spec = semigroup.mult_semigroup(poly2, semigroup.geometric_frequencies())
    report = semigroup.mult_decay_report(spec, np.geomspace(1e2, 1e4, 6))
    fitted = semigroup.compare_rates(report, poly2, growth.RateParams(c=1.5, C_choice=1.0))
    csv_path = tmp_path / "report.csv"
    fitted.to_csv(csv_path)
    text = csv_path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "t,measured_or_lower,curve_mlog,curve_minv,admissible"
    parsed = np.genfromtxt(io.StringIO(text), delimiter=",", skip_header=1)
    assert parsed.shape == (6, 5)
    assert np.array_equal(parsed[:, 0], fitted.t_grid)
    assert np.array_equal(parsed[:, 1], fitted.values)
    assert np.array_equal(parsed[:, 2], fitted.curve_mlog)
    assert np.array_equal(parsed[:, 3], fitted.curve_minv)
    assert np.array_equal(parsed[:, 4].astype(bool), fitted.admissible)


def test_report_json_shape(poly2, tmp_path):
    spec = semigroup.mult_semigroup(poly2, semigroup.geometric_frequencies())
    report = semigroup.mult_decay_report(spec, np.geomspace(1e2, 1e4, 6))
    d = report.to_json_dict()
    json_path = tmp_path / "report.json"
    report.to_json(json_path)
    assert json.loads(json_path.read_text()) == json.loads(json.dumps(d))
    for key in ("kind", "m_spec", "n_points", "t_range", "n_admissible"):
        assert key in d


def test_report_json_writes_non_finite_values_as_null(tmp_path):
    # an infeasible shift time leaves nan in R_choices; a failed fit, nan constants
    report = semigroup.DecayReport(
        kind="shift-lower", m_spec="poly:beta=2", t_grid=np.array([0.5, 2.0]),
        values=np.array([math.nan, 0.5]), admissible=np.array([False, True]),
        constants={"d1": math.nan, "c": 1.5}, slopes={"measured": -math.inf},
        meta={"R_choices": [math.nan, 3.0]},
    )
    report.to_json(tmp_path / "report.json")
    d = json.loads((tmp_path / "report.json").read_text(),
                   parse_constant=lambda token: pytest.fail(f"non-standard JSON token {token}"))
    assert d["constants"] == {"d1": None, "c": 1.5}
    assert d["slopes"] == {"measured": None}
    assert d["meta"]["R_choices"] == [None, 3.0]


def test_shift_witness_lower_pins(kernel, poly2):
    t_grid = np.array([0.5, 1e3, 1e4, 1e5, 1e6])
    floors = semigroup.shift_witness_lower(poly2, kernel, t_grid, EPS1)
    assert floors.curve_mlog is None and floors.slopes == {} and floors.constants == {}
    # the fit is the caller's: c = 1 + 1/beta, as the semigroup subcommand defaults it
    report = semigroup.compare_rates(floors, poly2, growth.RateParams(c=1.0 + 1.0 / 2.0,
                                                                       C_choice=1.0))
    assert report.kind == "shift-lower"
    assert not report.admissible[0]  # tiny tau is declared infeasible
    assert np.isnan(report.values[0])
    assert np.all(report.admissible[1:])
    r_choices = np.asarray(report.meta["R_choices"], dtype=float)
    assert r_choices[1] == pytest.approx(17.521025257256955, rel=1e-6)
    assert r_choices[4] == pytest.approx(352.9854945849977, rel=1e-6)
    assert report.values[1] == pytest.approx(0.04974515, rel=1e-5)
    assert report.values[4] == pytest.approx(0.0026748, rel=1e-4)
    # lower bound grows against the raw growth inverse by ~ (log t)^{1/2}
    minv = np.array([growth.right_inverse(poly2, t) for t in t_grid[1:]])
    prod = report.values[1:] * minv
    assert prod[-1] / prod[0] == pytest.approx(1.7541296963232518, rel=1e-5)
    assert report.slopes["measured"] == pytest.approx(-0.4233735567574918, rel=1e-5)
    assert report.constants["d1"] == pytest.approx(0.7733594518150958, rel=1e-5)
    assert report.constants["d2"] == pytest.approx(2.4907006976421613, rel=1e-5)


@pytest.mark.parametrize("taus", [[1e3], [1e3, 1e5], [2.0, 1e3, 1e6]])
def test_shift_floors_at_fewer_than_four_times(kernel, poly2, taus):
    # the floors need no fit, so one to three times are enough
    reference = semigroup.shift_witness_lower(poly2, kernel, [2.0, 1e3, 1e5, 1e6], EPS1)
    floor_at = dict(zip(reference.t_grid.tolist(), reference.values.tolist()))
    assert floor_at[1e3] == 0.049745148093600956
    report = semigroup.shift_witness_lower(poly2, kernel, taus, EPS1)
    assert np.all(report.admissible)
    assert report.values.tolist() == [floor_at[tau] for tau in taus]


def test_verify_groups_fit_only_the_slope_they_read(kernel, poly2, strip1, monkeypatch):
    # groups 7 and 8 read values, admissibility and one log-log slope: no
    # rate comparison and no rate inverse
    ctx = checks.Context(0, poly2, EPS1, strip1, kernel)
    monkeypatch.setattr(semigroup, "compare_rates", lambda *a: pytest.fail("fitted"))
    monkeypatch.setattr(growth, "right_inverse", lambda *a: pytest.fail("rate inverse"))
    slope_dev = checks.mult_semigroup_slope(ctx)[0]
    assert all(c.ok for c in checks.separation_phenomenon(ctx))
    monkeypatch.undo()
    spec = semigroup.mult_semigroup(poly2)
    fitted = semigroup.compare_rates(
        semigroup.mult_decay_report(spec, np.geomspace(1e2, 1e6, 25)), poly2,
        growth.RateParams(c=1.5, C_choice=1.0))
    assert slope_dev.name == "mult_slope_dev"
    assert slope_dev.measured == abs(fitted.slopes["measured"] + 0.5)
    assert semigroup.loglog_slope(fitted.t_grid, fitted.values) == fitted.slopes["measured"]


@pytest.mark.parametrize("R_max", [math.inf, math.nan, 0.5])
def test_shift_refuses_a_bad_search_range_before_any_work(kernel, poly2, R_max, monkeypatch):
    monkeypatch.setattr(semigroup, "check_regularly_growing",
                        lambda *a: pytest.fail("evaluated before R_max was checked"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="R_max must be a finite number >= 1"):
            semigroup.shift_witness_lower(poly2, kernel, [1e3], EPS1, R_max=R_max)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_shift_refuses_a_bad_eps_before_any_work(kernel, poly2, eps, monkeypatch):
    monkeypatch.setattr(semigroup, "check_regularly_growing",
                        lambda *a: pytest.fail("evaluated before eps was checked"))
    with pytest.raises(DomainError, match="eps must be a positive finite number"):
        semigroup.shift_witness_lower(poly2, kernel, [1e3], eps)


def test_shift_checks_eps_once_per_call(kernel, poly2, monkeypatch):
    calls = []
    effective_eps = semigroup.effective_eps

    def counted(eps, variant):
        calls.append((eps, variant))
        return effective_eps(eps, variant)

    monkeypatch.setattr(semigroup, "effective_eps", counted)
    report = semigroup.shift_witness_lower(poly2, kernel, np.geomspace(1e3, 1e6, 8), EPS1)
    assert np.all(report.admissible)
    assert calls == [(EPS1, "derivative")]


def test_a_huge_finite_R_max_is_searched_without_warning(kernel, poly2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = witness.optimize_R(poly2, 1e3, EPS1, R_max=1e300)
        curve = witness.sharpness_curve(poly2, [1e2, 1e3], EPS1, R_max=1e300)
        floors = semigroup.shift_witness_lower(poly2, kernel, [1e3, 1e5], EPS1, R_max=1e300)
    assert cert.admissible and curve.all_feasible
    assert np.all(floors.admissible) and np.all(floors.values > 0)


def test_shift_witness_lower_validates(kernel, poly2):
    t_grid = np.array([1e3, 1e4, 1e5, 1e6])
    with pytest.raises(DomainError):
        semigroup.shift_witness_lower(poly2, kernel, t_grid, -1.0)
    mismatched = growth.constant(2.0)  # kernel was built for m0 = 1
    with pytest.raises(DomainError):
        semigroup.shift_witness_lower(mismatched, kernel, t_grid, math.pi / 3.0)


def test_semigroup_imports_the_witness_functions_by_name():
    # perfbench's tracer rebinds this name in semigroup; it must stay the same object
    assert semigroup.banded_grid_sup is witness.banded_grid_sup is regions.banded_grid_sup


def test_shift_witness_lower_builds_no_sampled_witness(kernel, poly2, monkeypatch):
    # the floor reads the closed-form transform and |iR h + h'|, never a sample
    def refuse(*args, **kwargs):
        raise AssertionError("the shift model reads no witness samples")

    monkeypatch.setattr(witness, "modulated_translate", refuse)
    assert not hasattr(semigroup, "modulated_translate")
    floors = semigroup.shift_witness_lower(poly2, kernel, [1e3, 1e6], EPS1)
    assert np.all(floors.admissible)


def test_shift_floors_hold_above_the_grid_sampling_limit(kernel):
    # poly(1.15) tunes R far above pi/step (about 628), where a sampled
    # witness aliases; the floors come from closed forms, so they stand
    floors = semigroup.shift_witness_lower(growth.poly(1.15), kernel,
                                           np.geomspace(1e5, 1e6, 4), EPS1)
    assert np.all(floors.admissible)
    r_choices = np.asarray(floors.meta["R_choices"])
    assert np.all(r_choices > math.pi / kernel.samples.step)
    assert r_choices[0] == pytest.approx(4294.403350761307, rel=1e-6)
    assert r_choices[-1] == pytest.approx(25761.84729178429, rel=1e-6)
    assert floors.values[0] == pytest.approx(2.0634511262541177e-4, rel=1e-6)
    assert floors.values[-1] == pytest.approx(3.524878282087905e-5, rel=1e-6)
    assert np.all(np.diff(floors.values) < 0)


def _refine_alone(fn, coarse_x, coarse_v, iters, xtol=logscale._BRENT_XTOL):
    """refine_log_scale of one row, a batch of one: fn evaluated per step."""
    return logscale.refine_log_scale(lambda points, _: [fn(points[0])], [(coarse_x, coarse_v)],
                                     iters, xtol)[0]


def _reference_shift_norm(kernel, m, tau):
    """The shift norm at one tau as a function of R, the long way: every
    R-dependent array rebuilt per call, both logaddexp terms always taken.
    Returns (norm, log b_minus, log |f(0)|)."""
    base = kernel.samples
    sigma = base.t_grid
    keep = sigma >= -tau
    values, deriv = base.values[keep], derivative_samples(base)[keep]
    live = (values != 0) | (deriv != 0)
    values, deriv = values[live], deriv[live]
    n_drop = int(base.n - np.sum(keep))
    if n_drop >= 2:
        absv = np.abs(base.values[:n_drop]) * np.exp(np.abs(sigma[:n_drop] + tau))
        b_minus = float(simpson_weights(n_drop, base.step) @ absv)
    elif n_drop == 1:
        b_minus = float(base.step * np.abs(base.values[0]))
    else:
        b_minus = 0.0
    if -tau < sigma[0]:
        f0_abs = 0.0
    else:
        j = min(max(int(math.floor((-tau - base.t0_grid) / base.step)), 0), base.n - 2)
        f0_abs = float(max(np.abs(base.values[j]), np.abs(base.values[j + 1])))
    log_b = math.log(b_minus) if b_minus > 0 else -math.inf
    log_f0 = math.log(f0_abs) if f0_abs > 0 else -math.inf

    def norm(R):
        f_inf = float(np.max(np.abs(1j * R * values + deriv), initial=0.0))

        def log_integrand(pts, y, m_y, r, rows, slices):  # one slice; evaluates M itself
            with np.errstate(divide="ignore"):
                log_lam = np.log(np.abs(pts))
            x = pts.real
            log_ghat = -x * tau + kernel.log_modulus_transform_xy(x, y - R)
            total = np.logaddexp(log_lam + log_ghat, log_lam + log_b)
            total = np.logaddexp(total, log_f0)
            return (total - np.log(np.asarray(m(np.abs(y)))))[rows]

        (log_sup,), _ = regions.banded_grid_sup(log_integrand, kernel.epsilon, [R], m, right=1.0)
        return math.inf if log_sup > 709.0 else f_inf + math.exp(log_sup)

    return norm, log_b, log_f0


def test_shared_coarse_scan_matches_per_tau_reference_exactly(kernel, poly2):
    # taus 2 and 5 sit inside the kernel window, where the dropped part and
    # f(0) are nonzero; from 10 on both vanish and their terms are skipped
    taus = np.array([2.0, 5.0, 10.0, 1e3, 1e5])
    report = semigroup.shift_witness_lower(poly2, kernel, taus, EPS1)
    R_ref, values_ref, gate_ref, regimes = [], [], [], set()
    for tau in taus:
        norm, log_b, log_f0 = _reference_shift_norm(kernel, poly2, tau)
        regimes.add((math.isfinite(log_b), math.isfinite(log_f0)))
        coarse_R = np.geomspace(1.0, 1e6, 48)
        coarse_v = np.array([norm(R) for R in coarse_R])
        best_R, best_v = _refine_alone(norm, coarse_R, coarse_v, 40)
        R_ref.append(best_R)
        values_ref.append(1.0 / best_v)
        gate_ref.append(math.log(tau) <= math.log(poly2.m0) + (EPS1 / 2.0) * best_R / 2.0)
    assert regimes == {(True, True), (False, False)}
    assert report.meta["R_choices"] == R_ref
    assert report.values.tolist() == values_ref
    assert report.meta["decay_gate_ok"] == gate_ref


def test_decay_gate_is_the_derivative_bound_admissibility(kernel, poly2):
    taus = np.geomspace(1e3, 1e6, 41)
    report = semigroup.shift_witness_lower(poly2, kernel, taus, EPS1)
    expect = [witness.bound_rhs(poly2, R, tau, EPS1, "derivative")[1]
              for R, tau in zip(report.meta["R_choices"], taus.tolist())]
    assert report.meta["decay_gate_ok"] == expect


def test_shift_tau_without_a_finite_norm_gets_no_witness(kernel, poly2):
    # at tau = 1e30 every coarse R overflows: no witness can be built there
    taus = np.array([1e3, 1e4, 1e5, 1e6, 1e30])
    report = semigroup.shift_witness_lower(poly2, kernel, taus, EPS1)
    assert report.admissible.tolist() == [True, True, True, True, False]
    assert math.isnan(report.values[-1]) and math.isnan(report.meta["R_choices"][-1])
    assert report.meta["n_no_finite_norm"] == 1
    assert np.all(report.values[:-1] > 0)


def _full_uniform_norm(kernel, R, first):
    """max|iR f + f'| the long way: on all 16,001 samples, those before the
    live sample first set to 0."""
    values = kernel.samples.values
    mod = np.abs(1j * R * values + derivative_samples(kernel.samples))
    mod[:np.searchsorted(kernel.samples.t_grid, kernel.live[0][first])] = 0.0
    return float(np.max(mod))


def _counted_maxima(monkeypatch, results=None):
    """Record the (R, first) pairs of every witness_derivative_maxima call,
    and in results (if given) each pair's maximum."""
    calls = []
    maxima = specialfn.StripKernel.witness_derivative_maxima

    def counted(self, Rs, firsts):
        R, first = np.broadcast_arrays(np.asarray(Rs, dtype=float), np.asarray(firsts))
        calls.append(list(zip(R.tolist(), first.tolist())))
        got = maxima(self, Rs, firsts)
        if results is not None:
            results.update(zip(calls[-1], got))
        return got

    monkeypatch.setattr(specialfn.StripKernel, "witness_derivative_maxima", counted)
    return calls


def test_uniform_norms_take_one_R_per_tau_in_one_maxima_call(kernel, monkeypatch):
    # R per tau gives, bit for bit, the norm of each (R, tau) alone and of
    # the full 16,001-sample formula, from one maxima call over the (R,
    # first) keys
    terms = [semigroup._shift_tau(kernel, tau) for tau in (1.5, 3.0, 30.0, 1e3, 1e5, 3.0)]
    Rs = [2.0, 2.0, 700.0, 40.0, 2.0, 40.0]
    alone = [semigroup._uniform_norms(kernel, R, [t])[0] for R, t in zip(Rs, terms)]
    assert alone == [_full_uniform_norm(kernel, R, t.first) for R, t in zip(Rs, terms)]
    calls = _counted_maxima(monkeypatch)
    assert semigroup._uniform_norms(kernel, Rs, terms) == alone
    keys = [(R, t.first) for R, t in zip(Rs, terms)]
    assert calls == [keys]
    assert [t.first for t in terms[2:5]] == [0, 0, 0]  # taus 30, 1e3, 1e5 keep every sample
    assert semigroup._uniform_norms(kernel, 40.0, terms) == [
        semigroup._uniform_norms(kernel, 40.0, [t])[0] for t in terms]
    assert len(calls) == 1 + 1 + len(terms)
    assert semigroup._uniform_norms(kernel, Rs[:0], []) == []


def test_shift_non_localizing_R_is_rejected_for_its_taus_only(kernel):
    m = growth.poly(1.85)
    taus = [1.5, 2e4, 3e4, 4e4]
    report = semigroup.shift_witness_lower(m, kernel, taus, EPS1)
    assert np.all(report.admissible) and np.all(report.values > 0)
    assert report.meta["n_no_finite_norm"] == 0
    # at this coarse R the weighted sup for tau = 1.5 does not localize
    terms = [semigroup._shift_tau(kernel, tau) for tau in taus]
    R = float(np.geomspace(1.0, 1e6, 48)[14])
    uniform = semigroup._uniform_norms(kernel, R, terms)
    norms = semigroup._shift_derivative_norms(kernel, m, R, terms, uniform)
    assert norms[0] == math.inf and all(math.isfinite(v) for v in norms[1:])


def test_shift_norm_evaluations_on_the_separation_check_inputs(kernel, poly2, monkeypatch):
    # verify's check 08: a shared coarse scan over 48 R in 6 rounds of 8,
    # then the 41 Brent searches in lockstep rounds.  The bounds are those of
    # the full scan (48 grids, measured 488 in all; golden section took
    # 48 + 41 x 42 = 1770); norm_evals counts the R evaluated: 24 coarse R
    # (in the last 3 rounds the uniform part rules out every tau, 1178 of the
    # 1968 pairs in all) and 440 Brent steps, on one banded_grid_sup call per
    # coarse round with a kept pair (3) and one per Brent round (12: the most
    # steps any search takes)
    taus = np.geomspace(1e3, 1e6, 41)
    calls = []
    grid_sup = regions.banded_grid_sup
    array_m_calls = []
    call_m = growth.GrowthFunction.__call__

    def counted_m(self, s):
        if not isinstance(s, float):
            array_m_calls.append(s)
        return call_m(self, s)

    def counted(*args):
        before = len(array_m_calls)
        log_sup, meta = grid_sup(*args)
        calls.append((args, meta, len(array_m_calls) - before))
        return log_sup, meta

    uniform = {}
    maxima_calls = _counted_maxima(monkeypatch, uniform)
    monkeypatch.setattr(semigroup, "banded_grid_sup", counted)
    monkeypatch.setattr(growth.GrowthFunction, "__call__", counted_m)
    report = semigroup.shift_witness_lower(poly2, kernel, taus, EPS1)
    monkeypatch.undo()
    assert np.all(report.admissible)
    assert 48 + 41 <= report.meta["norm_evals"] <= 48 + 41 * 16
    assert report.meta["norm_evals"] == 24 + 440
    assert report.meta["n_coarse_skipped"] == 1178
    assert len(calls) == 3 + 12
    # each coarse call holds the kept pairs of one round, R-major: the
    # first round keeps every pair, the next two some taus at each R
    coarse_R = np.geomspace(1.0, 1e6, 48).tolist()
    coarse = [args for args, _, _ in calls[:3]]
    assert [sorted(set(np.asarray(args[2]).tolist())) for args in coarse] == [
        coarse_R[k:k + 8] for k in (0, 8, 16)]
    assert [len(args[0].ts) for args in coarse] == [8 * 41, 8 * 41, 134]
    rounds = [args for args, _, _ in calls[3:]]
    assert [len(args[2]) for args in rounds] == [41] * 9 + [38, 24, 9]
    # the searches that start from one coarse minimum take the same first
    # golden-section steps: those taus share a grid (11 grids in round 1,
    # 17 in round 2), 386 grids for the 440 steps
    assert [len(meta["band_centers"]) for _, meta, _ in calls[3:5]] == [11, 17]
    assert sum(len(meta["band_centers"]) for _, meta, _ in calls[3:]) == 386
    # the row bounds prune the grids: with a grid per coarse R and one per
    # Brent step, as a call per coarse R and per step builds, 615 rows of 66
    # points are evaluated (166 coarse), where the 464 full grids hold about
    # 146 rows each; the shared grids evaluate their union of rows once,
    # 569 rows
    assert sum(meta["n_points"] for _, meta, _ in calls) == 569 * 66
    alone = 0
    for k, ((log_integrand, eps, R, m, right), meta, _) in enumerate(calls):
        slice_R = np.asarray(R).tolist()
        # a coarse call splits by R, a Brent round by step
        groups = ([[j for j, R_j in enumerate(slice_R) if R_j == R_c]
                   for R_c in sorted(set(slice_R))] if k < 3
                  else [[j] for j in range(len(slice_R))])
        for group in groups:
            one = regions.LogWeightedModuli(kernel, [log_integrand.ts[j] for j in group],
                                            lam=True,
                                            boundary=[log_integrand.boundary[j] for j in group])
            alone += grid_sup(one, eps, [slice_R[j] for j in group], m, right)[1]["n_points"]
    assert alone == 615 * 66
    # the uniform parts come from one maxima call per coarse round and one
    # per lockstep round, over one (R, first) key per coarse R and per
    # distinct R of a lockstep round, as the grids are (the coarse grids
    # reuse the uniform parts that decided the skips; every tau keeps every
    # live sample); each is the full 16,001-sample maximum, bit for bit
    assert len(maxima_calls) == 6 + 12
    assert all(first == 0 for call in maxima_calls for _, first in call)
    assert [len(set(call)) for call in maxima_calls[:6]] == [8] * 6
    assert sum(len(set(call)) for call in maxima_calls) == 48 + 386
    assert all(u == _full_uniform_norm(kernel, R, first) for (R, first), u in uniform.items())
    # M is evaluated as an array once per row set (the main rows with the
    # first chunk, then each later chunk; none of these grids extends), and
    # twice more by the regular-growth check
    assert all(n_m == 1 + meta["extensions"] for _, meta, n_m in calls)
    assert len(array_m_calls) == 3 + 12 + 2


@pytest.mark.parametrize("beta, n_taus", [(2.0, 41), (1.85, 8), (2.1, 8)])
def test_coarse_skip_keeps_every_floor_and_skips_only_ruled_out_pairs(kernel, beta, n_taus,
                                                                     monkeypatch):
    m = growth.poly(beta)
    taus = np.geomspace(1e3, 1e6, n_taus)
    terms = [semigroup._shift_tau(kernel, tau) for tau in taus]
    shift_norms = semigroup._shift_derivative_norms

    def full_norms(R, ts):
        return shift_norms(kernel, m, R, ts, semigroup._uniform_norms(kernel, R, ts))

    coarse_R = np.geomspace(1.0, 1e6, 48)
    full = np.array([full_norms(R, terms) for R in coarse_R]).T  # one row per tau

    # record which (R, tau) pairs the report's coarse scan evaluates: every
    # norm call before the lockstep refinement starts
    built, scanning = set(), [True]
    n_evals = [0]
    lockstep = semigroup.refine_log_scale

    def refine(*args):
        scanning[0] = False
        return lockstep(*args)

    def recorded(kernel_, m_, R, ts, uniform):
        slice_R = np.broadcast_to(np.asarray(R, dtype=float), (len(ts),)).tolist()
        if scanning[0]:
            n_evals[0] += len(set(slice_R))  # a coarse R counts once
            built.update((R_j, t.tau) for R_j, t in zip(slice_R, ts))
        else:
            n_evals[0] += len(ts)  # a Brent step per tau
        return shift_norms(kernel_, m_, R, ts, uniform)

    monkeypatch.setattr(semigroup, "refine_log_scale", refine)
    monkeypatch.setattr(semigroup, "_shift_derivative_norms", recorded)
    report = semigroup.shift_witness_lower(m, kernel, taus, EPS1)
    monkeypatch.undo()

    # the floors and R choices are those of a refine from the full matrix
    refined = [_refine_alone(lambda R, t=t: full_norms(R, [t])[0], coarse_R, row, 40)
               for t, row in zip(terms, full)]
    assert report.meta["R_choices"] == [R for R, _ in refined]
    assert report.values.tolist() == [1.0 / v for _, v in refined]

    # a skipped pair's uniform part exceeds its row's minimum, so it cannot
    # be the row's coarse argmin; norm_evals counts only grids built
    _, values, deriv = kernel.live
    skipped = [(j, i) for j, R in enumerate(coarse_R) for i, t in enumerate(terms)
               if (R, t.tau) not in built]
    assert len(skipped) == report.meta["n_coarse_skipped"] > 0
    for j, i in skipped:
        mod = np.abs(1j * coarse_R[j] * values + deriv)
        assert float(np.max(mod[terms[i].first:], initial=0.0)) > np.min(full[i])
    assert len({R for R, _ in built}) < 48
    assert report.meta["norm_evals"] == n_evals[0]  # one per R evaluated


def _coarse_rows_one_R_at_a_time(kernel, m, terms, coarse_R):
    """The coarse scan the long way: one norm call per R, in ascending
    order, skipping a pair whose uniform part exceeds its tau's smallest
    norm at the smaller R.  One row per tau."""
    rows = np.full((len(terms), coarse_R.size), math.inf)
    best = np.full(len(terms), math.inf)
    for k, R in enumerate(coarse_R):
        uniform = semigroup._uniform_norms(kernel, R, terms)
        kept = [j for j, u in enumerate(uniform) if not u > best[j]]
        rows[kept, k] = semigroup._shift_derivative_norms(
            kernel, m, R, [terms[j] for j in kept], [uniform[j] for j in kept])
        np.minimum(best, rows[:, k], out=best)
    return rows


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from([1.0, 1.15, 2.1]), st.floats(1.0, 2.1)),
       st.lists(st.floats(0.5, 6.0), min_size=1, max_size=37),
       st.lists(st.floats(-0.3, 0.0), max_size=3), st.booleans(), st.sampled_from([1e3, 1e6]))
@example(1.15, np.linspace(5.0, 6.0, 4).tolist(), [], False, 1e6)  # R* above pi/step
@example(2.0, np.linspace(0.5, 6.0, 37).tolist(), [-0.3, -0.1, 0.0], True, 1e6)  # 41 taus
def test_rounded_coarse_scan_matches_one_R_at_a_time(kernel, beta, log_taus, log_small, no_norm,
                                                     R_max):
    # taus from 3.16 to 1e6, up to 3 at or below M(0) = 1 (no witness) and
    # perhaps 1e30 (no finite norm); taus in (1, 3) are left out, where the
    # grid sups extend some 60 chunks and a tau costs up to 0.6 s
    m = growth.poly(beta)
    taus = sorted({10.0 ** e for e in log_taus + log_small} | ({1e30} if no_norm else set()))
    rounded = {}
    lockstep = semigroup.refine_log_scale

    def captured(fn, coarse_rows, iters):
        rounded["rows"] = coarse_rows
        return lockstep(fn, coarse_rows, iters)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup, "refine_log_scale", captured)
        report = semigroup.shift_witness_lower(m, kernel, taus, EPS1, R_max=R_max)

    # the reference: every tau above M(0) scanned one R at a time, then refined
    feasible = [i for i, tau in enumerate(taus) if tau > m.m0]
    terms = [semigroup._shift_tau(kernel, taus[i]) for i in feasible]
    coarse_R = np.geomspace(1.0, R_max, 48)
    rows = _coarse_rows_one_R_at_a_time(kernel, m, terms, coarse_R)
    searched = [j for j, row in enumerate(rows) if np.isfinite(row).any()]
    assert all(x.tolist() == coarse_R.tolist() for x, _ in rounded["rows"])
    assert [(int(np.argmin(row)), float(np.min(row))) for _, row in rounded["rows"]] == [
        (int(np.argmin(rows[j])), float(np.min(rows[j]))) for j in searched]

    def step_norms(Rs, js):
        ts = [terms[searched[j]] for j in js]
        return semigroup._shift_derivative_norms(kernel, m, Rs, ts,
                                                 semigroup._uniform_norms(kernel, Rs, ts))

    refined = lockstep(step_norms, [(coarse_R, rows[j]) for j in searched], 40)
    values = np.full(len(taus), math.nan)
    R_choices = [math.nan] * len(taus)
    for j, (best_R, best_v) in zip(searched, refined):
        values[feasible[j]], R_choices[feasible[j]] = 1.0 / best_v, best_R
    assert np.array_equal(report.values, values, equal_nan=True)
    assert json.dumps(report.meta["R_choices"]) == json.dumps(R_choices)
    assert report.admissible.tolist() == [v == v for v in values.tolist()]
    assert report.meta["n_no_finite_norm"] == len(terms) - len(searched)
    if no_norm:
        assert not report.admissible[-1]


def _refined_tau_by_tau(fn, coarse_rows, iters):
    """The searches of refine_log_scale run one after another, each a batch
    of one with a norm call of its own per Brent step."""
    return [_refine_alone(lambda x, j=j: fn([x], [j])[0], coarse_x, row, iters)
            for j, (coarse_x, row) in enumerate(coarse_rows)]


@pytest.mark.parametrize("beta, taus", [
    (2.0, np.geomspace(1e3, 1e6, 41)),  # verify's check 08
    (1.85, np.geomspace(1e3, 1e6, 8)),
    (2.1, np.geomspace(1e3, 1e6, 8)),
    (1.15, np.geomspace(1e5, 1e6, 4)),  # R* far above pi/step, about 628
    (2.0, np.array([2.0, 5.0, 13.0, 1e3, 1e30])),  # boundary terms, and a tau with no witness
])
def test_lockstep_refinement_equals_refining_tau_by_tau(kernel, beta, taus, monkeypatch):
    m = growth.poly(beta)
    report = semigroup.shift_witness_lower(m, kernel, taus, EPS1)
    monkeypatch.setattr(semigroup, "refine_log_scale", _refined_tau_by_tau)
    reference = semigroup.shift_witness_lower(m, kernel, taus, EPS1)
    assert np.array_equal(report.values, reference.values, equal_nan=True)
    assert np.array_equal(report.admissible, reference.admissible)
    assert json.dumps(report.meta) == json.dumps(reference.meta)  # R_choices, norm_evals, ...
    if beta == 1.15:
        assert min(report.meta["R_choices"]) > math.pi / kernel.samples.step


def test_lockstep_driver_keeps_the_cap_and_each_search_s_path():
    # rough objectives (shallow local minima everywhere): the parabola keeps
    # missing, so a search can run into the cap of iters + 2 evaluations
    def rough(c):
        def fn(x):
            u = math.log(x)
            return abs(u - c) ** 0.3 + 1e-3 * math.sin(1e4 * u)
        return fn

    objectives = [rough(c) for c in (1.234, 4.321, 6.5, 8.0)] + [lambda x: (math.log(x) - 3.0) ** 2]
    xs = np.geomspace(1.0, 1e4, 17)
    rows = [np.array([fn(x) for x in xs]) for fn in objectives]
    rounds, evals = [], [0] * len(objectives)

    def batch(points, js):
        rounds.append(len(points))
        for j in js:
            evals[j] += 1
        return [objectives[j](x) for x, j in zip(points, js)]

    results = logscale.refine_log_scale(batch, [(xs, row) for row in rows], 5)
    assert results == [_refine_alone(fn, xs, row, 5) for fn, row in zip(objectives, rows)]
    assert max(evals) == 7 and len(rounds) == 7  # the cap, and one round per step of the longest
    assert evals[-1] < 7  # the smooth search stops early
    assert rounds == [sum(n > i for n in evals) for i in range(7)]  # every running search, each round


def _log_objective(kind, c, freq):
    """An objective in u = log x: smooth (convex, minimum 1 at u = c), rough
    (shallow local minima of frequency freq everywhere) or inf right of
    u = c, as a norm that overflows at too large an R."""
    def fn(x):
        u = math.log(x)
        if kind == "smooth":
            return math.exp(u - c) - (u - c)
        if kind == "rough":
            return abs(u - c) ** 0.3 + 1e-3 * math.sin(freq * u)
        return math.inf if u > c else (u - c - 0.1) ** 2
    return fn


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(["smooth", "rough", "inf"]), st.floats(0.0, 9.2),
                          st.floats(1e2, 1e5), st.floats(0.0, 5.0)), min_size=1, max_size=6),
       st.integers(0, 40), st.integers(1, 33), st.sampled_from([logscale._BRENT_XTOL, (1e-15, 0.0)]))
def test_lockstep_driver_runs_each_search_as_alone_within_the_cap(specs, iters, n_points, xtol):
    # each row is scanned from its own lower end e^lo to 1e4, as each t of
    # a sharpness curve from its own admissible R_lo (one x: no step)
    objectives = [_log_objective(*spec[:3]) for spec in specs]
    coarse_xs = [np.geomspace(math.exp(spec[3]), 1e4, n_points) for spec in specs]
    rows = [np.array([fn(x) for x in xs]) for fn, xs in zip(objectives, coarse_xs)]
    seen = [[] for _ in objectives]

    def batch(points, js):
        for x, j in zip(points, js):
            seen[j].append(x)
        return [objectives[j](x) for x, j in zip(points, js)]

    results = logscale.refine_log_scale(batch, list(zip(coarse_xs, rows)), iters, xtol)
    assert results == [_refine_alone(fn, xs, row, iters, xtol)
                       for fn, xs, row in zip(objectives, coarse_xs, rows)]
    assert max(len(points) for points in seen) <= iters + 2
    for xs, points in zip(coarse_xs, seen):  # no search leaves its own scan
        assert all(xs[0] <= x <= xs[-1] for x in points)
    for (x, v), fn, row in zip(results, objectives, rows):
        assert v <= float(np.min(row)) and v == fn(x)
