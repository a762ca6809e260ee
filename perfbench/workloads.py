"""The four workloads: seeded input generators, operations and output checks.

Each workload is a closed loop on one thread: the next operation starts when
the previous one has returned.  ``generate(seed)`` gives the inputs of one
pass; the program sees only those inputs.  Draws are stratified (one draw in
each of n equal slices of the range, in shuffled order), so every pass covers
the whole range and a pass costs about the same under every seed.

Checks use only thresholds the program itself declares (the ``specialfn``,
``truncate`` and ``verify`` subcommands), and every JSON artifact is parsed
strictly: a ``NaN`` or ``Infinity`` token fails the operation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tauberlab import cli, growth, semigroup, truncate, witness

MARGIN_TOL = -1e-8  # truncate: half-plane margins
AGREEMENT_TOL = 1e-5  # truncate: continuation residual
CAUCHY_TOL = 1e-8  # truncate: circle-mean residual
BETA_LO, BETA_HI = 1.85, 2.1  # certify: poly:beta range, see _certify_inputs
VERIFY_MIN_CHECKS = 22  # checks in the verify report at the time of writing


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _reject_constant(token: str):
    raise CheckFailed(f"non-strict JSON token {token}")


def load_strict_json(path: Path):
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n numbers in [0, 1), one in each slice [i/n, (i+1)/n), shuffled."""
    return rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo * (hi / lo) ** u


@dataclass(frozen=True)
class Workload:
    name: str
    op_unit: str
    min_passes: int
    uses_unit_kernel: bool  # setup gets the m0 = 1 kernel (see fixture.py), else None
    generate: Callable[[int], list]  # seed -> inputs of one pass
    setup: Callable[[Any], Any]  # kernel or None -> fixture shared by the operations
    call: Callable[[Any, Any, Path], Any]  # timed: the program's work
    check: Callable[[Any, Any, Path, Any], None]  # raises CheckFailed


# --- kernel: `specialfn` builds, checks and writes one strip kernel


def _kernel_inputs(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    return [float(m0) for m0 in log_uniform(strata(rng, 4), 0.5, 3.0)]


def _kernel_call(fixture, m0: float, out: Path) -> int:
    return cli.main(["specialfn", "--m0", repr(m0), "--out", str(out)])


def _kernel_check(fixture, m0: float, out: Path, rc: int) -> None:
    require(rc == 0, f"specialfn --m0 {m0!r} exited {rc}")
    report = load_strict_json(out / "specialfn_report.json")
    load_strict_json(out / "kernel.json")
    checks = report["checks"]
    require(checks["roundtrip_max_dev"] <= 1e-6, f"round trip {checks['roundtrip_max_dev']}")
    require(checks["reality_ratio"] < 1e-8, f"reality ratio {checks['reality_ratio']}")
    require(checks["strip_weighted_sup"] <= math.e, f"strip sup {checks['strip_weighted_sup']}")
    require(report["ok"] is True, "report not ok")


# --- certify: shift-model floors, a certificate sweep and kappa for one growth rate


def _certify_inputs(seed: int) -> list[tuple[float, np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(seed)
    # Above ~2.15 check_regularly_growing(c=0.45) rejects the rate.  Below ~1.85
    # the R chosen at tau near 1e6 exceeds the kernel grid's Nyquist limit
    # pi/step ~ 628, the witness samples alias, and modulated_translate's
    # transform check fails for some betas (1.031, 1.15) and not others.
    betas = BETA_LO + (BETA_HI - BETA_LO) * strata(rng, 3)
    return [
        (float(beta),
         np.sort(log_uniform(strata(rng, 8), 1e3, 1e6)),
         np.sort(log_uniform(strata(rng, 8), 1e2, 1e6)))
        for beta in betas
    ]


def _certify_call(kernel, inp, out: Path):
    beta, taus, sweep_ts = inp
    m = growth.parse_growth_spec(f"poly:beta={beta!r}")
    eps = math.pi * m.m0 / 6.0  # the CLI's default epsilon
    report = semigroup.shift_witness_lower(m, kernel, taus, eps)
    curve = witness.sharpness_curve(m, sweep_ts, eps)
    cal = witness.calibrate_kappa(kernel, m, eps)
    return m, report, curve, cal


def _certify_check(kernel, inp, out: Path, result) -> None:
    m, report, curve, cal = result
    feasible = report.t_grid > m.m0
    values = report.values[feasible]
    require(bool(np.all(report.admissible[feasible])), "a tau > M(0) was not admissible")
    require(bool(np.all(np.isfinite(values)) and np.all(values > 0)), "non-finite or non-positive floor")
    require(curve.all_feasible, "sweep not all feasible")
    require(math.isfinite(cal.kappa) and cal.kappa > 0, f"kappa {cal.kappa}")


# --- halfplane: split one witness at zero and check both half-plane bounds


def _halfplane_lambdas(rng: np.random.Generator, count: int) -> np.ndarray:
    """Transform points drawn as the `truncate` subcommand draws them."""
    res = rng.uniform(0.05, 2.5, size=count)
    ims = rng.uniform(-30.0, 30.0, size=count)
    return res + 1j * ims


def _halfplane_inputs(seed: int) -> list[tuple[float, float, np.ndarray]]:
    rng = np.random.default_rng(seed)
    inputs = []
    for R in log_uniform(strata(rng, 16), 2.0, 40.0):
        t = float(rng.integers(1, 20))  # whole numbers sit on the kernel grid
        plus = _halfplane_lambdas(rng, 100)
        minus = -_halfplane_lambdas(rng, 100)
        inputs.append((float(R), t, np.concatenate([plus, minus])))
    return inputs


def _halfplane_setup(kernel):
    return kernel, growth.parse_growth_spec("poly:beta=2")


def _halfplane_call(fixture, inp, out: Path):
    kernel, m = fixture
    R, t, lams = inp
    w = witness.modulated_translate(kernel, R, t)
    pair = truncate.split(w.samples)
    plain = truncate.verify_halfplane_bounds(pair, lams, "plain")
    deriv = truncate.verify_halfplane_bounds(pair, lams, "derivative")
    width = 1.0 / float(m(0.5))
    xs = np.linspace(-0.9 * width, -0.02, 5)
    ys = np.linspace(-0.5, 0.5, 5)
    agreement = truncate.verify_agreement(w, m, (xs[None, :] + 1j * ys[:, None]).ravel())
    return plain, deriv, agreement


def _halfplane_check(fixture, inp, out: Path, result) -> None:
    plain, deriv, agreement = result
    require(plain.min_margin >= MARGIN_TOL, f"plain margin {plain.min_margin}")
    require(deriv.min_margin >= MARGIN_TOL, f"derivative margin {deriv.min_margin}")
    require(agreement.residual < AGREEMENT_TOL, f"agreement residual {agreement.residual}")
    require(agreement.cauchy_residual < CAUCHY_TOL, f"cauchy residual {agreement.cauchy_residual}")


# --- verify: the full property suite


def _verify_inputs(seed: int) -> list[int]:
    return [int(np.random.default_rng(seed).integers(0, 2**31 - 1))]


def _verify_call(digests, seed: int, out: Path) -> int:
    return cli.main(["verify", "--seed", str(seed), "--out", str(out)])


def _verify_check(digests: dict, seed: int, out: Path, rc: int) -> None:
    require(rc == 0, f"verify --seed {seed} exited {rc}")
    report = load_strict_json(out / "verify_report.json")
    summary = report["summary"]
    require(summary["n_failed"] == 0, f"{summary['n_failed']} verify checks failed")
    require(summary["n_checks"] >= VERIFY_MIN_CHECKS, f"only {summary['n_checks']} verify checks ran")
    digest = digests.setdefault(seed, report["report_digest"])
    require(digest == report["report_digest"], f"verify --seed {seed} report digest changed between repeats")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kernel",
            op_unit="one `specialfn --m0 x` CLI call",
            min_passes=1,
            uses_unit_kernel=False,
            generate=_kernel_inputs,
            setup=lambda kernel: None,
            call=_kernel_call,
            check=_kernel_check,
        ),
        Workload(
            name="certify",
            op_unit="shift floors on 8 taus + 8-point sweep + kappa for one poly:beta",
            min_passes=1,
            uses_unit_kernel=True,
            generate=_certify_inputs,
            setup=lambda kernel: kernel,
            call=_certify_call,
            check=_certify_check,
        ),
        Workload(
            name="halfplane",
            op_unit="split + both half-plane bound checks + agreement for one witness",
            min_passes=1,
            uses_unit_kernel=True,
            generate=_halfplane_inputs,
            setup=_halfplane_setup,
            call=_halfplane_call,
            check=_halfplane_check,
        ),
        Workload(
            name="verify",
            op_unit="one `verify --seed s` CLI call",
            min_passes=2,
            uses_unit_kernel=False,
            generate=_verify_inputs,
            setup=lambda kernel: {},
            call=_verify_call,
            check=_verify_check,
        ),
    )
}
