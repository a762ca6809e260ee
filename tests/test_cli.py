"""Command-line front end: output pins, exit codes, config files, artifact
files, and the plot-script emitter."""

import json
import math
import warnings

import numpy as np
import pytest

from tauberlab import cli, growth, semigroup, specialfn, witness
from tauberlab.errors import ConfigurationError, DomainError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_prints_pinned_values(capsys):
    code, out, _ = run(capsys, "rate", "--m", "poly:beta=2", "--t", "1000")
    assert code == 0
    assert "m_log_inverse(t=1000) = 10.64652740675956" in out
    assert "m_inverse(t=1000) = 30.622776601463556" in out


def test_rate_two_function_variant(capsys):
    code, out, _ = run(capsys, "rate", "--m", "poly:beta=2", "--k", "poly:beta=2",
                       "--t", "1000")
    assert code == 0
    assert "m_k_inverse(t=1000) = 10.64652740675956" in out  # m_k(m,m) == m_log


def test_rate_with_overflowing_value_exits_1(capsys):
    # (1 + s)^140 overflows at s = 1000: no inf may be printed as a result
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "rate", "--m", "poly:beta=140", "--t", "1000")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "m_log(s=1000) is not finite" in err


@pytest.mark.parametrize("argv, expect", [
    (("invert", "--m", "poly:beta=140", "--t", "1e300"),
     "m_inverse(t=1.0000000000000001e+300) = 137.94954943656921\n"),
    (("witness", "--m", "exp:alpha=50", "--t", "1000"), "R_star = 26.385681586045084\n"),
])
def test_overflowing_growth_values_print_no_warning(capsys, tmp_path, argv, expect):
    # M overflows inside the bracket search and the bound; inf is its value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert expect in out


def test_unknown_growth_spec_exits_2(capsys):
    code, _, err = run(capsys, "rate", "--m", "bogus:xyz", "--t", "10")
    assert code == 2
    assert "bogus" in err


def test_missing_required_flag_exits_2(capsys):
    code, _, err = run(capsys, "rate", "--m", "poly:beta=2")
    assert code == 2
    assert "--t" in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["rate", "--m", "poly:beta=2", "--t", "10", "--frobnicate"])
    assert exc.value.code == 2


def test_invert_below_range_exits_1(capsys):
    code, _, _ = run(capsys, "invert", "--m", "poly:beta=2", "--t", "0.5")
    assert code == 1


def test_config_file_supplies_and_yields_to_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample config\nm = poly:beta=2\nt = 1000\n")
    code, out, _ = run(capsys, "rate", "--config", str(cfg))
    assert code == 0
    assert "m_log_inverse(t=1000) = 10.64652740675956" in out
    # explicit flag beats the config value
    code, out, _ = run(capsys, "rate", "--config", str(cfg), "--t", "7")
    assert code == 0
    assert "m_log_inverse(t=7)" in out


def test_config_unknown_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = poly:beta=2\nt = 10\nfrobnicate = 3\n")
    code, _, err = run(capsys, "rate", "--config", str(cfg))
    assert code == 2
    assert "frobnicate" in err


@pytest.mark.parametrize("command, lines, key", [
    ("rate", "t = abc", "'t' expects float"),
    ("witness", "t = abc", "'t' expects float"),
    ("witness", "t = 1000\neps = abc", "'eps' expects float"),
    ("witness", "t = 1000\nprescribed-c = abc", "'prescribed_c' expects float"),
    ("witness", "t = 1000\nwith-kappa = maybe", "'with_kappa' expects a boolean"),
    ("witness", "t = 1000\nvariant = foo", "'variant' expects one of"),
    ("sweep", "t-count = 2.5", "'t_count' expects int"),
    ("rate", "t = 10\nk = 5", "unknown growth spec kind '5'"),
    ("semigroup", "kind = foo", "'kind' expects one of"),
    ("rate", "t = 10\nfunc = 3", "unknown config key 'func'"),
])
def test_config_value_of_the_wrong_type_exits_2(capsys, tmp_path, command, lines, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"m = poly:beta=2\n{lines}\n")
    code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert key in err


def test_config_flag_takes_boolean_words(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = poly:beta=2\nt = 1000\nwith-kappa = yes\nprescribed-c = 6\n")
    code, _, _ = run(capsys, "witness", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    blob = json.loads((tmp_path / "witness_certificate.json").read_text())
    assert blob["kappa"] is not None and blob["prescribed_choice"]["R"] is not None


def test_witness_json_matches_library(capsys, tmp_path):
    code, _, _ = run(capsys, "witness", "--m", "poly:beta=2", "--t", "1000",
                     "--out", str(tmp_path))
    assert code == 0
    blob = json.loads((tmp_path / "witness_certificate.json").read_text())
    cert = witness.optimize_R(growth.poly(2.0), 1000.0, math.pi / 6.0)
    expect = cert.to_json_dict()
    assert blob == json.loads(json.dumps(expect))


def test_witness_output_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "witness", "--m", "poly:beta=2", "--t", "1000", "--out", str(a))
    run(capsys, "witness", "--m", "poly:beta=2", "--t", "1000", "--out", str(b))
    assert (a / "witness_certificate.json").read_bytes() == \
        (b / "witness_certificate.json").read_bytes()


def test_witness_with_overflowing_bound_exits_1_without_certificate(capsys, tmp_path):
    # at t = 1e300 the two-term bound overflows for every admissible R
    with pytest.raises(DomainError):
        witness.optimize_R(growth.poly(2.0), 1e300, math.pi / 6.0)
    code, out, err = run(capsys, "witness", "--m", "poly:beta=2", "--t", "1e300",
                         "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "witness_certificate.json").exists()


def test_overflowing_prescribed_choice_is_not_admissible(capsys, tmp_path):
    code, _, _ = run(capsys, "witness", "--m", "poly:beta=2", "--t", "1e6",
                     "--prescribed-c", "0.01", "--out", str(tmp_path))
    assert code == 0
    blob = json.loads((tmp_path / "witness_certificate.json").read_text(),
                      parse_constant=_reject_constant)
    assert blob["prescribed_choice"]["N"] is None
    assert blob["prescribed_choice"]["admissible"] is False
    assert blob["admissible"] is True and math.isfinite(blob["N"])


def test_sweep_without_finite_ratio_writes_strict_json(capsys, tmp_path):
    # R_max = 2 lies below every admissible R: no certificate, no band ratio
    code, _, _ = run(capsys, "sweep", "--m", "poly:beta=2", "--r-max", "2",
                     "--t-count", "3", "--out", str(tmp_path))
    assert code == 0
    blob = json.loads((tmp_path / "sharpness.json").read_text(),
                      parse_constant=_reject_constant)
    assert blob["band_ratio"] is None and blob["all_feasible"] is False


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON token {token}")


def test_sweep_writes_csv_and_summary(capsys, tmp_path):
    code, out, _ = run(capsys, "sweep", "--m", "poly:beta=2", "--t-min", "100",
                       "--t-max", "10000", "--t-count", "5", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sharpness.csv").read_text().strip().splitlines()
    assert lines[0] == "t,R_star,N,implied_floor,rate_comparison,admissible"
    assert len(lines) == 6
    summary = json.loads((tmp_path / "sharpness.json").read_text())
    assert summary["n_points"] == 5
    assert summary["all_feasible"] is True
    assert summary["band_ratio"] < 10.0
    # every float in the CSV re-parses to exactly the certificate values
    cert0 = witness.optimize_R(growth.poly(2.0), 100.0, math.pi / 6.0)
    first = lines[1].split(",")
    assert float(first[1]) == cert0.R_star
    assert float(first[2]) == cert0.N


def test_semigroup_mult_artifacts(capsys, tmp_path):
    code, out, _ = run(capsys, "semigroup", "--m", "poly:beta=2", "--kind", "mult",
                       "--t-count", "6", "--t-max", "10000", "--out", str(tmp_path))
    assert code == 0
    csv_text = (tmp_path / "semigroup_mult.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "t,measured_or_lower,curve_mlog,curve_minv,admissible"
    assert len(lines) == 7
    plt_text = (tmp_path / "semigroup_mult.plt").read_text()
    assert "logscale" in plt_text and "semigroup_mult.csv" in plt_text
    assert json.loads((tmp_path / "semigroup_mult.json").read_text())["kind"] == "multiplication"
    # CSV columns re-parse bit-exactly against a fresh library computation
    spec = semigroup.mult_semigroup(growth.poly(2.0), semigroup.geometric_frequencies())
    report = semigroup.compare_rates(
        semigroup.mult_decay_report(spec, np.geomspace(1e2, 1e4, 6)),
        growth.poly(2.0),
        growth.RateParams(c=1.5, C_choice=1.0),
    )
    parsed = np.genfromtxt(tmp_path / "semigroup_mult.csv", delimiter=",", skip_header=1)
    assert np.array_equal(parsed[:, 0], report.t_grid)
    assert np.array_equal(parsed[:, 1], report.values)
    assert np.array_equal(parsed[:, 2], report.curve_mlog)
    assert np.array_equal(parsed[:, 3], report.curve_minv)


def test_semigroup_json_writes_non_finite_constants_as_null(capsys, tmp_path):
    # a constant M leaves no inverse-rate curve to fit: d1 and d2 are nan
    code, _, _ = run(capsys, "semigroup", "--m", "const:m0=1", "--kind", "mult",
                     "--out", str(tmp_path))
    assert code == 0
    blob = json.loads((tmp_path / "semigroup_mult.json").read_text(),
                      parse_constant=_reject_constant)
    assert blob["constants"]["d1"] is None and blob["constants"]["d2"] is None
    assert blob["constants"]["c"] == 1.0


def test_emit_plot_script_rejects_empty_report(tmp_path):
    empty = semigroup.DecayReport(
        kind="multiplication",
        m_spec="poly:beta=2",
        t_grid=np.array([]),
        values=np.array([]),
        admissible=np.array([], dtype=bool),
    )
    target = tmp_path / "empty"
    with pytest.raises(ConfigurationError):
        cli.emit_plot_script(empty, target)
    assert not target.with_suffix(".csv").exists()
    assert not target.with_suffix(".plt").exists()


def test_specialfn_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "specialfn", "--out", str(tmp_path))
    assert code == 0
    assert "verification: pass" in out
    assert (tmp_path / "kernel.tsv").exists()
    assert (tmp_path / "kernel.json").exists()
    report = json.loads((tmp_path / "specialfn_report.json").read_text())
    assert report["ok"] is True
    assert report["checks"]["strip_weighted_sup"] <= math.e


def test_truncate_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "truncate", "--m", "poly:beta=2", "--out", str(tmp_path))
    assert code == 0
    assert "verification: pass" in out
    report = json.loads((tmp_path / "truncate_report.json").read_text())
    assert report["ok"] is True
    assert report["min_margin_plain"] >= -1e-8
    assert report["agreement_residual"] < 1e-5


@pytest.mark.parametrize("r, code", [("600", 0), ("700", 2)])
def test_truncate_refuses_r_above_the_sampling_limit(capsys, tmp_path, r, code):
    # the m0 = 1 kernel grid aliases a modulation above pi/step - 6/eps ~ 616.9
    got, out, err = run(capsys, "truncate", "--m", "poly:beta=2", "--r", r, "--t", "3",
                        "--out", str(tmp_path))
    assert got == code
    if code == 0:
        assert "verification: pass" in out
    else:
        assert out == "" and not list(tmp_path.glob("*.json"))
        assert err.startswith("configuration error: r = 700 exceeds") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("truncate", "--m", "poly:beta=2"), ("verify",)])
def test_out_naming_a_file_exits_2_before_any_work(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setattr(specialfn, "build_kernel",
                        lambda *a, **k: pytest.fail("kernel built before --out was resolved"))
    afile = tmp_path / "afile"
    afile.write_text("keep")
    code, _, err = run(capsys, *argv, "--out", str(afile))
    assert code == 2
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert afile.read_text() == "keep"


@pytest.mark.parametrize("argv", [
    ("witness", "--m", "poly:beta=2", "--t", "1000"),
    ("sweep", "--m", "poly:beta=2", "--t-count", "3"),
    ("semigroup", "--m", "poly:beta=2", "--kind", "shift", "--t-count", "4"),
])
@pytest.mark.parametrize("r_max", ["nan", "inf", "0.5"])
def test_bad_r_max_exits_2(capsys, tmp_path, argv, r_max):
    code, out, err = run(capsys, *argv, "--r-max", r_max, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("configuration error:") and err.count("\n") == 1


def test_specialfn_with_oversized_grid_exits_1(capsys, tmp_path):
    # m0 = 1e300 would need ~1e278 spectral samples
    code, out, err = run(capsys, "specialfn", "--m0", "1e300", "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: spectral quadrature needs") and err.count("\n") == 1


@pytest.mark.parametrize("m0", ["1e308", "1e-308"])
def test_specialfn_with_out_of_range_m0_exits_1(capsys, tmp_path, m0):
    # eps = pi*m0/6 overflows at 1e308 and the strip centre 5/m0 at 1e-308
    code, out, err = run(capsys, "specialfn", "--m0", m0, "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: m0 = {float(m0)!r} is out of range") and err.count("\n") == 1


@pytest.mark.parametrize("argv, code, start", [
    (("verify", "--seed=-1"), 2, "configuration error: seed must be"),
    (("truncate", "--m", "poly:beta=2", "--seed=-1"), 2, "configuration error: seed must be"),
    (("truncate", "--m", "poly:beta=2", "--n-lambda=-1"), 2, "configuration error: n-lambda"),
    (("semigroup", "--m", "poly:beta=2", "--t-max", "inf"), 2, "configuration error: need 0 < t-min"),
    (("sweep", "--m", "poly:beta=2", "--t-max", "inf"), 2, "configuration error: need 0 < t-min"),
    (("semigroup", "--m", "poly:beta=2", "--freq-base", "1e300"), 1, "error: frequencies"),
    (("semigroup", "--m", "poly:beta=2", "--freq-base", "inf"), 1, "error: base must be"),
    (("semigroup", "--m", "exp:alpha=1e3", "--kind", "shift", "--t-count", "4"), 1,
     "error: growth function exp:alpha=1000 fails the regular-growth check"),
    (("witness", "--m", "poly:beta=2", "--t", "30", "--eps", "1e-300", "--with-kappa"), 1,
     "error: the calibration lattice"),
    (("witness", "--m", "exp:alpha=1", "--t", "2", "--eps", "1e3", "--with-kappa"), 1,
     "error: calibration ratio"),
    (("witness", "--m", "poly:beta=2", "--t", "30", "--eps", "inf"), 1,
     "error: eps must be a positive finite number"),
    (("semigroup", "--m", "exp:alpha=1", "--t-max", "1e300", "--c", "1e300"), 1,
     "error: target must be finite"),
    (("sweep", "--m", "log:m0=2", "--t-max", "1e300", "--eps", "1e300", "--r-max", "1e300"), 1,
     "error: the two-term bound overflows"),
])
def test_out_of_range_inputs_end_in_one_line_without_warning(capsys, tmp_path, argv, code, start):
    # each of these once ended in a traceback, a numpy warning or a multi-line message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert got == code and out == ""
    assert err.startswith(start) and err.count("\n") == 1
    assert not list(tmp_path.glob("*.json"))
