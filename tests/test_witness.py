"""Witness construction, the three-part norm, certificate optimization, and
the frozen bound-chain constant."""

import json
import math

import numpy as np
import pytest

from tauberlab import growth, witness
from tauberlab.errors import DomainError

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
    lv = w.log_modulus_transform(np.array([lam]))[0]
    assert lv == pytest.approx(math.log(abs(expect)), rel=1e-12)


def test_x_norm_pin(kernel, poly2):
    w = witness.modulated_translate(kernel, 8.0, 1.0)
    nb = witness.x_norm(w, poly2)
    assert nb.total == pytest.approx(11.583293523347281, rel=1e-12)
    assert nb.total == pytest.approx(nb.l1 + nb.w1inf + nb.weighted_sup, rel=1e-15)
    assert nb.l1 == pytest.approx(kernel.l1_norm, rel=1e-12)  # translation invariant
    assert nb.variant == "plain"


def test_x_norm_derivative_variant_larger(kernel, poly2):
    w = witness.modulated_translate(kernel, 8.0, 1.0)
    plain = witness.x_norm(w, poly2)
    deriv = witness.x_norm(w, poly2, variant="derivative")
    assert deriv.total > plain.total  # the extra |lam| factor only inflates


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
