"""Diagonal (multiplication) semigroup decay, the shift-semigroup witness
lower bound, and the measured-versus-predicted rate comparison."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from tauberlab import growth, semigroup
from tauberlab.errors import DomainError, FitError

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


def test_resolvent_norm_pins(poly2):
    one = growth.constant(1.0)
    spec = semigroup.mult_semigroup(one, np.array([1.0, 2.0]))
    assert semigroup.resolvent_norm(spec, 0.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    # on an eigenfrequency the resolvent distance is exactly 1/M there
    spec2 = semigroup.mult_semigroup(poly2, semigroup.geometric_frequencies())
    assert semigroup.resolvent_norm(spec2, 32.0) == pytest.approx(poly2(32.0), rel=1e-15)


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
    report = semigroup.shift_witness_lower(poly2, kernel, t_grid, EPS1)
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


def test_shift_witness_lower_validates(kernel, poly2):
    t_grid = np.array([1e3, 1e4, 1e5, 1e6])
    with pytest.raises(DomainError):
        semigroup.shift_witness_lower(poly2, kernel, t_grid, -1.0)
    mismatched = growth.constant(2.0)  # kernel was built for m0 = 1
    with pytest.raises(DomainError):
        semigroup.shift_witness_lower(mismatched, kernel, t_grid, math.pi / 3.0)
