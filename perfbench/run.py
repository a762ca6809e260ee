"""Benchmark of the tauberlab pipeline, one workload per run.

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): kernel, certify, halfplane, verify.  A run
times the package import in fresh interpreters; ``certify`` and
``halfplane`` also build the m0 = 1 kernel several times in a child process
(fixture.py) and load the saved kernel.  The run then generates one pass of
inputs from ``--seed`` and runs passes over those inputs back to back, on one
thread, for about ``--seconds`` seconds.  Every operation's output is checked.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (median
pass wall time), ``op_p50_s`` (median operation time), ``setup_s`` (median
import time plus median kernel build time plus the load) and ``peak_rss_mb``
(peak resident set of the process, which never builds a kernel outside an
operation).  With ``--trace 1`` it runs an untraced warm-up pass, then
passes that run each operation traced and untraced, and reports the
per-layer metrics that BENCHMARK.json lists; the spans are written to
``.perfbench/<workload>-seed<seed>-spans.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with provenance, goes to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
BLAS runs on one thread, so the run keeps one core busy.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 15
FIXTURE_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import tauberlab; "
                "print(time.perf_counter() - t)")


@dataclass
class Passes:
    """Timings and failures of passes over one set of inputs; for traced
    passes, also the range of span indices each pass recorded."""

    op_seconds: list[float] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    span_bounds: list[tuple[int, int]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_op(workload, fixture, inp, workdir: Path, res: Passes, tracer=None) -> float:
    """One operation, recorded in ``res``.  Only ``workload.call`` is in the
    operation's time; the returned wall time also covers its check."""
    n = len(res.op_seconds)
    out = workdir / f"op{n}"
    if tracer:
        tracer.op = n
    t_op = perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            result = workload.call(fixture, inp, out)
        res.op_seconds.append(perf_counter() - t_op)
        workload.check(fixture, inp, out, result)
    except Exception as exc:  # a failed operation is counted and the run goes on
        if len(res.op_seconds) == n:
            res.op_seconds.append(perf_counter() - t_op)
        if not res.failures:
            traceback.print_exc(file=sys.stderr)
        res.failures.append(f"op {n}: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return perf_counter() - t_op


def run_passes(workload, fixture, inputs, workdir: Path, budget_s: float,
               min_passes: int) -> Passes:
    """Pass over ``inputs`` until another pass would end after ``budget_s``
    seconds, and at least ``min_passes`` times."""
    res = Passes()
    start = perf_counter()
    while True:
        t_pass = perf_counter()
        for inp in inputs:
            run_op(workload, fixture, inp, workdir, res)
        res.pass_seconds.append(perf_counter() - t_pass)
        elapsed = perf_counter() - start
        if len(res.pass_seconds) >= min_passes and elapsed + median(res.pass_seconds) > budget_s:
            return res


def run_traced(workload, fixture, inputs, workdir: Path, budget_s: float, targets):
    """An untraced warm-up pass, then passes in which every operation runs
    twice, traced and untraced, the two in alternating order, so that traced
    and untraced time are compared like with like and close together in
    time.  Stops when another pass would end after ``budget_s`` seconds, and
    makes at least one.  A traced or untraced pass's time is the sum of its
    operations' times."""
    start = perf_counter()
    warmup = run_passes(workload, fixture, inputs, workdir, 0.0, 1)
    traced, untraced, tracer = Passes(), Passes(), Tracer()
    traced_first = True
    while True:
        first_span = len(tracer.spans)
        traced_s = untraced_s = 0.0
        for inp in inputs:
            for on in (True, False) if traced_first else (False, True):
                if not on:
                    untraced_s += run_op(workload, fixture, inp, workdir, untraced)
                    continue
                tracer.install("tauberlab", targets)
                try:
                    traced_s += run_op(workload, fixture, inp, workdir, traced, tracer)
                finally:
                    tracer.uninstall()
            traced_first = not traced_first
        traced.pass_seconds.append(traced_s)
        untraced.pass_seconds.append(untraced_s)
        traced.span_bounds.append((first_span, len(tracer.spans)))
        if perf_counter() - start + traced_s + untraced_s > budget_s:
            return tracer, warmup, traced, untraced


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=os.environ,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def timed_setup(workload, workdir: Path):
    """Import the package in fresh interpreters, several times.  A workload
    that uses the m0 = 1 kernel has it built several times in a child
    process (fixture.py) and loads the saved kernel.  Returns the fixture,
    the import times, the build times and the load time."""
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    builds, load_s, kernel = [], 0.0, None
    if workload.uses_unit_kernel:
        from tauberlab import specialfn

        workdir.mkdir(parents=True, exist_ok=True)
        base = workdir / "unit-kernel"
        proc = subprocess.run([sys.executable, str(HERE / "fixture.py"), str(base),
                               str(FIXTURE_REPEATS)], cwd=ROOT, env=os.environ,
                              capture_output=True, text=True, timeout=150, check=True)
        builds = json.loads(proc.stdout.splitlines()[-1])
        t0 = perf_counter()
        kernel = specialfn.load_kernel(base)
        load_s = perf_counter() - t0
    return workload.setup(kernel), imports, builds, load_s


def highest_percentile(values: list[float], beyond: int = 10):
    """Nearest-rank percentile with at least ``beyond`` samples above it,
    or None when there are too few samples for it to lie above the median."""
    n = len(values)
    k = n - beyond
    if k < (n + 1) // 2:
        return None
    return math.floor(100.0 * k / n), sorted(values)[k - 1]


def git_commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git clone."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance() -> dict:
    import numpy as np
    import tauberlab

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    sources = hashlib.sha256()
    for path in sorted((SRC / "tauberlab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "tauberlab": tauberlab.__version__,
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tauberlab" / "__init__.py").is_file():
        print(f"error: no tauberlab package under {SRC}", file=sys.stderr)
        return 2
    # set before numpy loads: one BLAS thread, and children find the package
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    from layers import TARGETS, format_table, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{workload.name}-{args.seed}-{os.getpid()}"
    stem = f"{workload.name}-seed{args.seed}"
    try:
        fixture, imports, builds, load_s = timed_setup(workload, workdir)
        inputs = workload.generate(args.seed)
        if not args.trace:
            runs = [run_passes(workload, fixture, inputs, workdir, args.seconds,
                               workload.min_passes)]
            metrics = {
                "wall_s": (median(runs[0].pass_seconds), "s"),
                "op_p50_s": (median(runs[0].op_seconds), "s"),
                "setup_s": (median(imports) + (median(builds) if builds else 0.0) + load_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            tracer, *runs = run_traced(workload, fixture, inputs, workdir, args.seconds, TARGETS)
            _, traced, untraced = runs
            values = layer_metrics(tracer.finished(), tracer.counts, traced.span_bounds,
                                   traced.pass_seconds, untraced.pass_seconds)
            per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in per_layer}
            tracer.write_tsv(OUT / f"{stem}-spans.tsv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_seconds = [s for r in runs for s in r.op_seconds]
    failures = [f for r in runs for f in r.failures]
    attempted, failed = len(op_seconds), len(failures)
    record = {
        "workload": workload.name,
        "op_unit": workload.op_unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "op_seconds": op_seconds,
        "pass_seconds": [s for r in runs for s in r.pass_seconds],
        "setup_import_seconds": imports,
        "setup_kernel_build_seconds": builds,
        "setup_kernel_load_seconds": load_s,
        "python_threads_at_end": threading.active_count(),
        "provenance": provenance(),
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, allow_nan=False) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  op: {workload.op_unit}")
    print(f"ops {attempted} in {len(record['pass_seconds'])} passes  failed {failed}  "
          f"failed_frac {failed / attempted:.4g}")
    pct = highest_percentile(op_seconds)
    if pct is not None:
        print(f"op_p{pct[0]}_s {pct[1]:.6g} s  (highest percentile with >= 10 ops beyond it)")
    if args.trace:
        print(format_table(metrics))
    else:
        print("  ".join(f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
