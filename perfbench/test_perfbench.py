"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times, top_level_seconds  # noqa: E402


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    spans = tracer.finished()
    assert [(s.name, s.parent) for s in spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert self_times(spans) == [6.0 - 2.0 - 0.5, 2.0, 0.5]
    assert top_level_seconds(spans) == 6.0


def test_install_rebinds_names_imported_elsewhere(monkeypatch):
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    home.f = lambda x: x + 1
    user.f = home.f  # as `from .home import f` leaves it
    for mod in (types.ModuleType("fakepkg"), home, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    original = home.f
    tracer = Tracer()
    tracer.install("fakepkg", [("home", "f", lambda result, args, kwargs: {"arg": args[0]})])
    assert user.f is home.f is not original
    assert user.f(2) == 3
    tracer.uninstall()
    assert user.f is home.f is original
    assert [s.name for s in tracer.finished()] == ["home.f"]
    assert tracer.counts == [{"arg": 2}]


def test_install_reaches_by_name_imports_in_the_package():
    import tauberlab
    from tauberlab import semigroup, specialfn, witness, xforms

    original = xforms.fourier_invert
    tracer = Tracer()
    tracer.install("tauberlab", layers.TARGETS)
    try:
        assert specialfn.fourier_invert is xforms.fourier_invert is tauberlab.fourier_invert
        assert specialfn.fourier_invert is not original
        assert semigroup.banded_grid_sup is witness.banded_grid_sup
        assert semigroup.modulated_translate is witness.modulated_translate
    finally:
        tracer.uninstall()
    assert specialfn.fourier_invert is original


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    generate = workloads.WORKLOADS[name].generate
    assert _plain(generate(7)) == _plain(generate(7))
    assert _plain(generate(7)) != _plain(generate(8))


def test_generators_stay_in_range():
    m0s = workloads.WORKLOADS["kernel"].generate(3)
    assert all(0.5 <= m0 < 3.0 for m0 in m0s)
    for beta, taus, sweep in workloads.WORKLOADS["certify"].generate(3):
        assert workloads.BETA_LO <= beta < workloads.BETA_HI
        assert np.all(np.diff(taus) > 0) and taus[0] >= 1e3 and taus[-1] < 1e6
        assert np.all(np.diff(sweep) > 0) and sweep[0] >= 1e2 and sweep[-1] < 1e6
    for R, t, lams in workloads.WORKLOADS["halfplane"].generate(3):
        assert 2.0 <= R < 40.0 and t == int(t) and 1 <= t <= 19
        assert lams.size == 200 and np.all(lams.real != 0.0)


def _fake_specialfn(argv):
    out = Path(argv[argv.index("--out") + 1])
    out.mkdir(parents=True)
    m0 = float(argv[argv.index("--m0") + 1])
    checks = {"roundtrip_max_dev": 1e-3 if m0 > 1.0 else 1e-9,  # above 1e-6 fails
              "reality_ratio": 0.0, "strip_weighted_sup": 1.0}
    (out / "kernel.json").write_text("{}")
    (out / "specialfn_report.json").write_text(json.dumps({"checks": checks, "ok": True}))
    return 0


def test_failed_check_counts_in_failed_frac(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.cli, "main", _fake_specialfn)
    res = run.run_passes(workloads.WORKLOADS["kernel"], None, [0.7, 2.0], tmp_path, 0.0, 1)
    assert len(res.op_seconds) == 2
    assert len(res.failures) == 1 and "round trip" in res.failures[0]


def test_non_strict_json_fails_the_operation(tmp_path):
    (tmp_path / "r.json").write_text('{"x": NaN}')
    with pytest.raises(workloads.CheckFailed):
        workloads.load_strict_json(tmp_path / "r.json")


def test_verify_digest_must_repeat(monkeypatch, tmp_path):
    digests = iter(["a", "a", "b"])

    def fake_verify(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        report = {"summary": {"n_checks": 22, "n_failed": 0}, "report_digest": next(digests)}
        (out / "verify_report.json").write_text(json.dumps(report))
        return 0

    monkeypatch.setattr(workloads.cli, "main", fake_verify)
    res = run.run_passes(workloads.WORKLOADS["verify"], {}, [5], tmp_path, 0.0, 3)
    assert len(res.op_seconds) == 3
    assert len(res.failures) == 1 and "digest" in res.failures[0]


def test_highest_percentile_keeps_ten_samples_beyond():
    assert run.highest_percentile([float(i) for i in range(64)]) == (84, 53.0)
    assert run.highest_percentile([1.0] * 8) is None
