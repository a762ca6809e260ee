"""Acceptance suite: ten headline properties at their stated tolerances.

Tests 01-09 run property groups 1-9 of `tauberlab.checks`, the registry that
`tauberlab verify` also runs; test 10 drives the CLI end to end.  Each test
emits one `ACCEPTANCE nn PASS/FAIL ...` line (echoed in a terminal summary
section via conftest, so it survives output capture) and asserts the
property. The whole file is budgeted to run in well under five minutes.
"""

import filecmp
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tauberlab
from tauberlab import checks

SEED = 0

RESULT_LINES: list[str] = []


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    RESULT_LINES.append(line)
    print(line, flush=True)
    assert ok, detail


@pytest.fixture(scope="module")
def ctx(strip1, kernel, poly2):
    return checks.Context(seed=SEED, m=poly2, eps=math.pi / 6.0, strip=strip1, kernel=kernel)


def _run_group(n: int, ctx) -> None:
    results = checks.GROUPS[n - 1](ctx)
    _report(n, all(c.ok for c in results), ", ".join(
        f"{c.name} {c.measured:.6g} {c.symbol} {c.threshold:.6g}" for c in results))


def test_01_modulus_identity(ctx):
    _run_group(1, ctx)


def test_02_strip_decay(ctx):
    _run_group(2, ctx)


def test_03_kernel_round_trip(ctx):
    _run_group(3, ctx)


def test_04_rate_calculus(ctx):
    _run_group(4, ctx)


def test_05_bound_chain_calibration(ctx):
    _run_group(5, ctx)


def test_06_sharpness_ratio(ctx):
    _run_group(6, ctx)


def test_07_mult_semigroup_slope(ctx):
    _run_group(7, ctx)


def test_08_separation_phenomenon(ctx):
    _run_group(8, ctx)


def test_09_halfplane_suite(ctx):
    _run_group(9, ctx)


def _run_cli(*argv, cwd, blas_threads=None):
    # The child runs from `cwd`, where a relative PYTHONPATH entry (`src`)
    # would not resolve; put the directory of the package under test first.
    # OpenBLAS uses its default thread count unless blas_threads is given.
    env = os.environ.copy()
    root = str(Path(tauberlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return subprocess.run([sys.executable, "-m", "tauberlab.cli", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env)


def _last_stderr_line(run) -> str:
    lines = run.stderr.strip().splitlines()
    return lines[-1] if lines else "<no stderr>"


# The interpreter itself exits 1 on a failed import or an uncaught exception,
# so an expected exit 1 counts only if stderr holds the program's own message.
LAUNCH_FAULTS = ("Traceback", "Error while finding module specification")


def test_10_determinism_and_exit_codes(tmp_path):
    d1, d2 = tmp_path / "v1", tmp_path / "v2"
    r1 = _run_cli("verify", "--out", str(d1), cwd=tmp_path)
    # the report may not depend on the BLAS thread count either
    r2 = _run_cli("verify", "--out", str(d2), cwd=tmp_path, blas_threads=1)
    identical = (
        r1.returncode == 0 and r2.returncode == 0
        and filecmp.cmp(d1 / "verify_report.json", d2 / "verify_report.json", shallow=False)
        and filecmp.cmp(d1 / "verify_report.txt", d2 / "verify_report.txt", shallow=False)
        and r1.stdout == r2.stdout
    )
    faults = [f"verify run {k} exit {r.returncode}: {_last_stderr_line(r)}"
              for k, r in ((1, r1), (2, r2)) if r.returncode != 0]
    scripted = [
        (("rate", "--m", "poly:beta=2", "--t", "1000"), 0),
        (("rate", "--m", "bogus:xyz", "--t", "10"), 2),
        (("rate", "--m", "poly:beta=2"), 2),
        (("invert", "--m", "poly:beta=2", "--t", "0.5"), 1),
        (("rate", "--m", "poly:beta=2", "--t", "10", "--frobnicate"), 2),
        (("truncate", "--m", "poly:beta=2", "--out", str(tmp_path / "tr")), 0),
    ]
    codes_ok = True
    clean = True
    seen = []
    for argv, expect in scripted:
        run = _run_cli(*argv, cwd=tmp_path)
        got = run.returncode
        seen.append(got)
        codes_ok = codes_ok and got == expect
        launch_fault = any(marker in run.stderr for marker in LAUNCH_FAULTS)
        clean = clean and not launch_fault
        if got != expect or launch_fault:
            faults.append(f"{' '.join(argv)} exit {got}: {_last_stderr_line(run)}")
    _report(10, identical and codes_ok and clean,
            f"two seeded verify runs (default and 1 BLAS thread) byte-identical: {identical}; "
            f"exit codes {seen} matched {[e for _, e in scripted]}; "
            f"no traceback or launch failure on stderr: {clean}"
            + "".join(f"; {f}" for f in faults))
