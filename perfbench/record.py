"""Run every workload over several seeds and write a baseline record.

    python3 perfbench/record.py --seeds 10 --out perfbench/baseline.json

For each workload named in BENCHMARK.json: one untraced run per seed
(seeds 1 to ``--seeds``), then two traced runs with seed 1.  For every
end-to-end metric it reports the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound; it checks that the traced runs
report identical per-layer counts, and keeps the per-layer table of the first
traced run.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_RUNS = 2


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "provenance": detail["provenance"]}


def spread_table(results: list[dict], end_to_end: list[dict]) -> dict:
    table = {}
    for spec in end_to_end:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        q1, med, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med
        table[spec["name"]] = {
            "unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": spec["bound"], "within_third_of_bound": spread < spec["bound"] / 3,
            "values": values,
        }
    return table


def counts_of(metrics: dict) -> dict:
    """Per-layer values that count work rather than time it."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "ratio") and not k.startswith("bench.")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(1, args.seeds + 1))
    seconds = bench["run_seconds"]
    record = {"run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(bench["command"], name, seed, seconds, 0) for seed in seeds]
        results = [r["result"] for r in runs]
        entry = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "end_to_end": spread_table(results, bench["end_to_end"]),
        }
        record["provenance"] = runs[0]["provenance"]
        traced = [run_once(bench["command"], name, seeds[0], seconds, 1)["result"]
                  for _ in range(TRACED_RUNS)]
        entry["trace_counts_identical"] = all(
            counts_of(t["metrics"]) == counts_of(traced[0]["metrics"]) for t in traced)
        entry["traced_correct"] = all(t["correct"] for t in traced)
        entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        record["workloads"][name] = entry

        print(f"{name}: {entry['attempted']} ops, {entry['failed']} failed, "
              f"trace counts identical: {entry['trace_counts_identical']}")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<12} median {row['median']:.6g} {row['unit']:<3} "
                  f"spread {row['spread']:.4f} (bound {row['bound']}, "
                  f"{'<' if row['within_third_of_bound'] else '>='} a third)")
        sys.stdout.flush()

    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
