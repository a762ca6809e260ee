"""Command-line front end: output pins, exit codes, config files, artifact
files, and the plot-script emitter."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tauberlab
from tauberlab import checks, cli, growth, semigroup, specialfn, truncate, witness
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
def test_overflowing_growth_values_print_no_warning(capsys, tmp_path, monkeypatch, argv, expect):
    # M overflows inside the bracket search and the bound; inf is its value
    monkeypatch.chdir(tmp_path)  # invert takes no --out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
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


def test_unknown_flag_exits_2(capsys):
    code, out, err = run(capsys, "rate", "--m", "poly:beta=2", "--t", "10", "--frobnicate")
    assert code == 2 and out == ""
    assert err == "configuration error: unrecognized arguments: --frobnicate\n"


def test_help_exits_0(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: tauberlab" in capsys.readouterr().out


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
def test_config_value_of_the_wrong_type_exits_2(capsys, tmp_path, monkeypatch, command, lines,
                                                 key):
    monkeypatch.chdir(tmp_path)  # rate takes no --out
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"m = poly:beta=2\n{lines}\n")
    code, _, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize("config, reason", [
    ("missing.cfg", "No such file or directory"),
    (".", "Is a directory"),
    ("latin1.cfg", "'utf-8' codec can't decode byte 0xff in position 16: invalid start byte"),
])
def test_unreadable_config_exits_2_in_one_line(capsys, tmp_path, monkeypatch, config, reason):
    # each of these once ended in an OSError or UnicodeDecodeError traceback
    monkeypatch.chdir(tmp_path)  # rate takes no --out
    (tmp_path / "latin1.cfg").write_bytes(b"m = poly:beta=2\n\xff\n")
    code, out, err = run(capsys, "rate", "--config", config, "--m", "poly:beta=2", "--t", "10")
    assert (code, out) == (2, "")
    assert err == f"configuration error: cannot read --config {config}: {reason}\n"


# an artifact of each subcommand that writes, and an argv that writes it
ARTIFACT_ARGVS = {
    "specialfn_report.json": ("specialfn",),
    "kernel.tsv": ("specialfn",),
    "witness_certificate.json": ("witness", "--m", "poly:beta=2", "--t", "1000"),
    "sharpness.json": ("sweep", "--m", "poly:beta=2", "--t-count", "3"),
    "truncate_report.json": ("truncate", "--m", "poly:beta=2"),
    "semigroup_mult.json": ("semigroup", "--m", "poly:beta=2", "--kind", "mult"),
    "verify_report.txt": ("verify",),
}


@pytest.mark.parametrize("artifact", ARTIFACT_ARGVS)
def test_unwritable_artifact_exits_1_in_one_line(capsys, tmp_path, artifact):
    # a directory in the way of any artifact ends in one line, not an
    # IsADirectoryError traceback, and is refused before the first write
    (tmp_path / artifact).mkdir()
    code, out, err = run(capsys, *ARTIFACT_ARGVS[artifact], "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {tmp_path / artifact}: Is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == [artifact]


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


def test_main_builds_the_parser_once_per_process(capsys, tmp_path, monkeypatch):
    # parsing only reads the parser: a config file, and a usage error between
    # two identical calls, leave their outputs byte-identical
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    config = tmp_path / "w.cfg"
    config.write_text("variant = derivative\n")
    outputs = []
    for out in ("a", "b"):
        argv = ["witness", "--m", "poly:beta=2", "--t", "1000", "--config", str(config),
                "--out", str(tmp_path / out)]
        outputs.append(run(capsys, *argv) + ((tmp_path / out / "witness_certificate.json").read_bytes(),))
        assert run(capsys, "witness", "--variant", "sideways")[0] == 2
    cli._parser.cache_clear()
    assert built == [1]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert b'"variant": "derivative"' in outputs[0][3]


def test_witness_with_overflowing_bound_exits_1_without_certificate(capsys, tmp_path):
    # at t = 1e300 the two-term bound overflows for every admissible R
    with pytest.raises(DomainError):
        witness.optimize_R(growth.poly(2.0), 1e300, math.pi / 6.0)
    code, out, err = run(capsys, "witness", "--m", "poly:beta=2", "--t", "1e300",
                         "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "witness_certificate.json").exists()


def test_sweep_past_R_max_names_the_rate_inverse_and_a_larger_R_max_certifies(capsys, tmp_path):
    # poly(0.5) overflows at t = 681,292 below R_max = 1e6, where its rate
    # inverse is 5.13e8: the message says so, --out is not made, and
    # --r-max 1e12 certifies it
    code, _, err = run(capsys, "sweep", "--m", "poly:beta=0.5", "--out", str(tmp_path / "a"))
    assert code == 1 and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "a").exists()
    assert "for t = 681292: the rate inverse 5.12878e+08 lies above R_max = 1e+06" in err
    code, _, _ = run(capsys, "sweep", "--m", "poly:beta=0.5", "--r-max", "1e12",
                     "--out", str(tmp_path / "b"))
    assert code == 0


def test_sweep_past_an_unbounded_rate_inverse_says_a_larger_R_max_may_certify(capsys, tmp_path):
    # log(1)'s rate never reaches t = 1e4 below s = 2**60, so the rate
    # inverse is not found; R_max = 1e50 certifies t = 1e4 all the same
    code, _, err = run(capsys, "sweep", "--m", "log:m0=1", "--out", str(tmp_path / "a"))
    assert code == 1 and len(err.strip().splitlines()) == 1 and not (tmp_path / "a").exists()
    assert ("for t = 10000: the rate inverse lies above 2**60 > R_max = 1e+06" in err
            and "a larger R_max may certify this t" in err)
    assert "no finite certificate exists" not in err
    code, _, _ = run(capsys, "witness", "--m", "log:m0=1", "--t", "1e4", "--r-max", "1e50",
                     "--out", str(tmp_path / "b"))
    assert code == 0
    blob = json.loads((tmp_path / "b" / "witness_certificate.json").read_text(),
                      parse_constant=_reject_constant)
    assert blob["admissible"] is True and blob["R_star"] == pytest.approx(2.4456e42, rel=1e-3)


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


def test_truncate_verdict_at_the_threshold_is_the_registry_verdict(capsys, tmp_path, monkeypatch,
                                                                    kernel, poly2, strip1):
    # a Cauchy residual of exactly the threshold: the subcommand and verify's
    # witness_cauchy_residual check compare it the same way
    threshold = checks.CAUCHY_RESIDUAL_MAX[0]
    agreement = truncate.verify_agreement

    def at_threshold(*args, **kwargs):
        return dataclasses.replace(agreement(*args, **kwargs), cauchy_residual=threshold)

    monkeypatch.setattr(truncate, "verify_agreement", at_threshold)
    code, out, _ = run(capsys, "truncate", "--m", "poly:beta=2", "--out", str(tmp_path))
    ctx = checks.Context(0, poly2, math.pi / 6.0, strip1, kernel)
    registry = {c.name: c for c in checks.halfplane_suite(ctx)}["witness_cauchy_residual"]
    assert registry.measured == threshold and registry.ok
    assert code == 0 and "verification: pass" in out


@pytest.mark.parametrize("r, code", [("600", 0), ("700", 2)])
def test_truncate_refuses_r_above_the_sampling_limit(capsys, tmp_path, r, code):
    # the m0 = 1 kernel grid aliases a modulation above pi/step - 6/eps ~ 616.9;
    # such an r is refused before --out is made
    out_dir = tmp_path / "out"
    got, out, err = run(capsys, "truncate", "--m", "poly:beta=2", "--r", r, "--t", "3",
                        "--out", str(out_dir))
    assert got == code
    if code == 0:
        assert "verification: pass" in out
    else:
        assert out == "" and not out_dir.exists()
        assert err.startswith("configuration error: r = 700 exceeds") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("truncate", "--m", "poly:beta=2"),
    ("verify",),
    ("specialfn",),
    ("witness", "--m", "poly:beta=2", "--t", "1000", "--with-kappa"),
])
def test_out_naming_a_file_exits_2_before_any_work(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setattr(specialfn, "build_kernel",
                        lambda *a, **k: pytest.fail("kernel built before --out was resolved"))
    afile = tmp_path / "afile"
    afile.write_text("keep")
    code, out, err = run(capsys, *argv, "--out", str(afile))
    assert (code, out) == (2, "")
    assert err == ("configuration error: cannot create --out directory "
                   f"{afile}: a file is in the way\n")
    assert afile.read_text() == "keep"


@pytest.mark.parametrize("argv", [
    ("semigroup", "--kind", "shift", "--m", "poly:beta=2"),
    ("semigroup", "--kind", "mult", "--m", "poly:beta=2"),
    ("sweep", "--m", "poly:beta=2"),
])
def test_out_naming_a_file_exits_2_before_any_model_runs(capsys, tmp_path, monkeypatch, argv):
    # the semigroup models and the sweep run only once --out is known good
    runs = []
    for module, name in ((semigroup, "shift_witness_lower"), (semigroup, "mult_decay_report"),
                         (witness, "sharpness_curve"), (specialfn, "build_kernel")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: runs.append(name))
    afile = tmp_path / "afile"
    afile.write_text("keep")
    code, out, err = run(capsys, *argv, "--out", str(afile))
    assert code == 2 and out == "" and runs == []
    assert err.startswith("configuration error: cannot create --out directory") and err.count("\n") == 1
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


@pytest.mark.parametrize("argv, m0", [
    (("specialfn", "--m0", "12"), "12"),
    (("specialfn", "--m0", "1e300"), "1e+300"),
    (("semigroup", "--kind", "shift", "--m", "const:m0=20"), "20"),
    (("witness", "--m", "const:m0=20", "--t", "1000", "--with-kappa"), "20"),
    (("truncate", "--m", "const:m0=20"), "20"),
], ids=["specialfn-12", "specialfn-1e300", "shift-const-20", "witness-const-20",
        "truncate-const-20"])
def test_m0_beyond_the_supported_range_exits_2(capsys, tmp_path, monkeypatch, argv, m0):
    # a kernel's round trip reads m0 times the m0 = 1 kernel's 8.97e-10 and
    # must hold to 1e-8, so the range is worked out before any kernel is
    # built, and refused before --out is made or a certificate is searched
    monkeypatch.setattr(witness, "optimize_R", lambda *a, **k: pytest.fail("R searched"))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_dir))
    assert code == 2 and out == "" and not out_dir.exists()
    assert err.startswith(f"configuration error: m0 = {m0} is outside the supported range "
                          "0 < m0 <= 11.15: the kernel round trip") and err.count("\n") == 1


def test_in_process_verify_runs_give_the_fresh_process_digest(capsys, tmp_path):
    # every kernel of a process shares the m0 = 1 kernel's values, so a run
    # must leave nothing behind that a later run reads differently
    env = os.environ.copy()
    root = str(Path(tauberlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-m", "tauberlab.cli", "verify", "--seed", "0", "--out", "fresh"],
                   capture_output=True, cwd=tmp_path, env=env, check=True)

    def digest(name):
        return json.loads((tmp_path / name / "verify_report.json").read_text())["report_digest"]

    for i in range(3):
        assert run(capsys, "verify", "--seed", "0", "--out", str(tmp_path / f"in{i}"))[0] == 0
        assert digest(f"in{i}") == digest("fresh")


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
    (("semigroup", "--m", "poly:beta=2", "--kind", "bogus"), 2,
     "configuration error: argument --kind: invalid choice: 'bogus'"),
    (("witness", "--m", "poly:beta=2", "--t", "ten"), 2,
     "configuration error: argument --t: invalid float value: 'ten'"),
    (("verify", "--m", "poly:beta=3"), 2, "configuration error: unrecognized arguments: --m"),
    # --m is no abbreviation of --m0
    (("specialfn", "--m", "2"), 2, "configuration error: unrecognized arguments: --m"),
    # an abbreviation once escaped _apply_config: a config file's value beat it
    (("witness", "--m", "poly:beta=2", "--t", "30", "--var", "derivative"), 2,
     "configuration error: unrecognized arguments: --var"),
    # only truncate and verify draw random points; only commands that write take --out
    (("witness", "--m", "poly:beta=2", "--t", "30", "--seed", "1"), 2,
     "configuration error: unrecognized arguments: --seed 1"),
    (("rate", "--m", "poly:beta=2", "--t", "10", "--out", "x"), 2,
     "configuration error: unrecognized arguments: --out x"),
    # each semigroup kind refuses the flags only the other kind reads
    (("semigroup", "--m", "poly:beta=2", "--kind", "mult", "--eps", "1e-300"), 2,
     "configuration error: --kind mult does not read --eps"),
    (("semigroup", "--m", "poly:beta=2", "--kind", "mult", "--r-max", "0.5"), 2,
     "configuration error: --kind mult does not read --r-max"),
    (("semigroup", "--m", "poly:beta=2", "--kind", "shift", "--freq-count", "4"), 2,
     "configuration error: --kind shift does not read --freq-count"),
    (("semigroup", "--m", "poly:beta=2", "--kind", "shift", "--freq-base", "3"), 2,
     "configuration error: --kind shift does not read --freq-base"),
])
def test_out_of_range_inputs_end_in_one_line_without_warning(capsys, tmp_path, argv, code, start):
    # each of these once ended in a traceback, a numpy warning or a multi-line message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert got == code and out == ""
    assert err.startswith(start) and err.count("\n") == 1
    assert not list(tmp_path.glob("*.json"))


# a sane argv per subcommand, semigroup once per kind; --out is added where taken
SANE_ARGVS = [
    ("rate", "--m", "poly:beta=2", "--t", "1000"),
    ("invert", "--m", "poly:beta=2", "--t", "1000"),
    ("specialfn",),
    ("witness", "--m", "poly:beta=2", "--t", "1000"),
    ("sweep", "--m", "poly:beta=2", "--t-count", "3"),
    ("truncate", "--m", "poly:beta=2", "--n-lambda", "3"),
    ("semigroup", "--m", "poly:beta=2", "--kind", "mult"),
    ("semigroup", "--m", "poly:beta=2", "--kind", "shift", "--t-min", "1e3", "--t-max", "1e4",
     "--t-count", "4"),
    ("verify",),
]


def test_every_declared_flag_is_read_by_its_handler(capsys, tmp_path, monkeypatch):
    # a flag the handler never reads would be accepted and silently ignored,
    # so each one must be refused with exit 2 when set, on the command line
    # or in a config file; semigroup is checked per kind, as each reads
    # flags the other does not
    monkeypatch.setattr(checks, "GROUPS", [])  # verify's handler, without its suite
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = {}
    for argv in SANE_ARGVS:
        out = ["--out", str(tmp_path / argv[0])] if hasattr(parser.parse_args(argv), "out") else []
        args = parser.parse_args([*argv, *out])
        names = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                names.add(name)
                return super().__getattribute__(name)

        assert args.func(Recording(**vars(args)))[0] == 0, argv
        key = f"semigroup --kind {args.kind}" if args.command == "semigroup" else args.command
        # main reads --out, the handler only returns the artifacts
        unread[key] = sorted(set(vars(args)) - {"config", "command", "func", "out"} - names)
        actions = {a.dest: a for a in commands.choices[args.command]._actions}
        for name in unread[key]:
            flag = "--" + name.replace("_", "-")
            config = tmp_path / "flag.cfg"
            config.write_text(f"{name} = 1\n")
            given = [flag] if actions[name].nargs == 0 else [flag, "1"]
            for extra in (given, ["--config", str(config)]):
                assert cli.main([*argv, *out, *extra]) == 2, (argv, extra)
                assert capsys.readouterr().err.endswith(f"does not read {flag}\n")
    assert {key.split()[0] for key in unread} == set(commands.choices)
    assert unread == {key: [] for key in unread} | {
        "semigroup --kind mult": ["eps", "r_max"],
        "semigroup --kind shift": ["freq_base", "freq_count"],
    }


def test_closed_stdout_ends_in_one_line_not_a_traceback(tmp_path):
    # block-buffered output reaches the closed pipe only when flushed, and
    # the interpreter flushes once more as it exits
    env = os.environ.copy()
    env.pop("PYTHONUNBUFFERED", None)
    root = str(Path(tauberlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tauberlab.cli", "invert", "--m", "poly:beta=2", "--t", "10"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: standard output is closed\n"
