"""The layers the traced run measures, and the per-layer metrics it computes.

Layers are the modules of ``tauberlab``; each traced public function is a
span.  Every metric is given per pass over the workload's operations, so two
traced runs with the same seed report the same counts however many passes
their time allowed.  ``exp_evals`` is computed (n_u times output samples),
not counted.  BENCHMARK.json names the metrics a traced run reports, and
their units.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from statistics import median

from tracer import Span, ancestor_names, self_times, top_level_seconds


def _fourier_counts(result, args, kwargs) -> dict:
    n_u = int(result.meta["n_u"])
    return {"n_u": n_u, "exp_evals": n_u * int(result.n)}


def _kernel_counts(result, args, kwargs) -> dict:
    strip = args[0] if args else kwargs["strip"]
    return {"epsilon": float(strip.epsilon)}


def _band_counts(result, args, kwargs) -> dict:
    meta = result[1]
    return {"points": int(meta["n_points"]), "extensions": int(meta["extensions"])}


def _shift_counts(result, args, kwargs) -> dict:
    return {"taus": int(result.admissible.sum())}


# (module, public function, counter read from its return value)
TARGETS = [
    ("xforms", "fourier_invert", _fourier_counts),
    ("xforms", "l1_norm_samples", None),
    ("xforms", "laplace", None),
    ("xforms", "laplace_many", None),
    ("specialfn", "build_kernel", _kernel_counts),
    ("specialfn", "roundtrip_max_deviation", None),
    ("specialfn", "verify_strip_decay", None),
    ("specialfn", "save_kernel", None),
    ("witness", "banded_grid_sup", _band_counts),
    ("witness", "bound_rhs", None),
    ("witness", "optimize_R", None),
    ("witness", "sharpness_curve", None),
    ("witness", "modulated_translate", None),
    ("witness", "x_norm", None),
    ("witness", "calibrate_kappa", None),
    ("semigroup", "shift_witness_lower", _shift_counts),
    ("semigroup", "compare_rates", None),
    ("truncate", "split", None),
    ("truncate", "verify_halfplane_bounds", None),
    ("truncate", "verify_agreement", None),
    ("growth", "right_inverse", None),
    ("regions", "sample", None),
    ("cli", "main", None),
]

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls_under(spans: list[Span], child: str, ancestor: str) -> int:
    return sum(1 for i, s in enumerate(spans)
               if s.name == child and ancestor in ancestor_names(spans, i))


def layer_metrics(
    spans: list[Span],
    counts: list[dict | None],
    pass_bounds: list[tuple[int, int]],
    pass_seconds: list[float],
    untraced_pass_seconds: list[float],
) -> dict[str, float]:
    """Per-pass metrics from the spans of the traced passes.

    ``pass_bounds[i]`` is the span index range of traced pass i and
    ``pass_seconds[i]`` its wall time; ``untraced_pass_seconds`` are the wall
    times of passes over the same operations with tracing off, made in turn
    with the traced ones.
    """
    n = len(pass_bounds)
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    sums: defaultdict = defaultdict(float)
    epsilons = set()
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_s[s.name] += selfs[i]
        for key, value in (counts[i] or {}).items():
            if key == "epsilon":
                epsilons.add(value)
            else:
                sums[f"{s.name}.{key}"] += value

    values: dict[str, float] = {}
    for module, func, _ in TARGETS:
        name = f"{module}.{func}"
        values[f"{name}.calls"] = calls[name] / n
        values[f"{name}.self_s"] = self_s[name] / n
    fi = "xforms.fourier_invert"
    values[f"{fi}.n_u"] = _ratio(sums[f"{fi}.n_u"], calls[fi])
    values[f"{fi}.exp_evals"] = sums[f"{fi}.exp_evals"] / n
    values["specialfn.kernel_builds_per_m0"] = _ratio(
        calls["specialfn.build_kernel"] / n, len(epsilons))
    band = "witness.banded_grid_sup"
    values[f"{band}.points"] = sums[f"{band}.points"] / n
    values[f"{band}.extensions"] = sums[f"{band}.extensions"] / n
    values["witness.optimize_R.evals_per_call"] = _ratio(
        _calls_under(spans, "witness.bound_rhs", "witness.optimize_R"),
        calls["witness.optimize_R"])
    values["witness.modulated_translate.laplace_per_call"] = _ratio(
        _calls_under(spans, "xforms.laplace", "witness.modulated_translate"),
        calls["witness.modulated_translate"])
    shift = "semigroup.shift_witness_lower"
    values[f"{shift}.evals_per_tau"] = _ratio(
        _calls_under(spans, band, shift), sums[f"{shift}.taus"])
    values["bench.trace.overhead_s"] = median(pass_seconds) - median(untraced_pass_seconds)
    values["bench.trace.uncovered_s"] = sum(
        wall - top_level_seconds(spans[a:b]) for (a, b), wall in zip(pass_bounds, pass_seconds)
    ) / n
    return values


def format_table(metrics: dict[str, tuple[float, str]]) -> str:
    """The traced functions sorted by self time, one line each, with the
    other nonzero metrics after them."""
    rows = []
    total = sum(metrics[f"{module}.{func}.self_s"][0] for module, func, _ in TARGETS)
    for module, func, _ in sorted(TARGETS, key=lambda t: -metrics[f"{t[0]}.{t[1]}.self_s"][0]):
        name = f"{module}.{func}"
        calls = metrics[f"{name}.calls"][0]
        sec = metrics[f"{name}.self_s"][0]
        if calls:
            rows.append(f"  {name:<40} calls {calls:>10.0f}  self {sec:10.4f} s  {100 * _ratio(sec, total):5.1f}%")
    for key, (value, unit) in metrics.items():
        if not key.endswith((".calls", ".self_s")) and value and math.isfinite(value):
            rows.append(f"  {key:<40} {value:.6g} {unit}")
    return "\n".join(rows)
