"""The property registry behind ``tauberlab verify`` and acceptance tests 01-09.

Nine property groups, numbered 1-9 in ``GROUPS`` like the acceptance tests.
Each group is a function from a shared ``Context`` to a list of ``Check``
records (measured value, threshold, comparison, verdict).  ``verify`` runs
every group in order; each acceptance test runs its own group on the same
objects.  Group seeds are ``[ctx.seed, n]``, so a report is a pure function
of the seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import growth, regions, semigroup, specialfn, truncate, witness, xforms

__all__ = ["Check", "Context", "GROUPS", "check", "verification_corpus"]

# Thresholds shared with the `specialfn` and `truncate` subcommands.
ROUNDTRIP_MAX_DEV = 1e-6
REALITY_RATIO_MAX = 1e-8
STRIP_SUP_MAX = math.e
HALFPLANE_MARGIN_MIN = -1e-8
AGREEMENT_RESIDUAL_MAX = 1e-5
CAUCHY_RESIDUAL_MAX = 1e-8

_COMPARISONS = {"le": (operator.le, "<="), "lt": (operator.lt, "<"), "ge": (operator.ge, ">=")}


@dataclass(frozen=True)
class Check:
    """One measured property against its threshold."""

    name: str
    measured: float
    threshold: float
    comparison: str  # "le", "lt" or "ge": measured <=, < or >= threshold
    ok: bool

    @property
    def symbol(self) -> str:
        return _COMPARISONS[self.comparison][1]


def check(name: str, measured: float, threshold: float, comparison: str = "le") -> Check:
    compare = _COMPARISONS[comparison][0]
    return Check(name, float(measured), float(threshold), comparison,
                 bool(compare(measured, threshold)))


@dataclass(frozen=True, eq=False)
class Context:
    """What every group runs on: M(s) = (1+s)^2, eps = pi/6 and the m0 = 1
    strip function with its kernel."""

    seed: int
    m: growth.GrowthFunction
    eps: float
    strip: specialfn.StripFunction
    kernel: specialfn.StripKernel

    @classmethod
    def build(cls, seed: int) -> Context:
        strip = specialfn.build_strip_function(1.0)
        return cls(seed, growth.poly(2.0), math.pi / 6.0, strip, specialfn.build_kernel(strip))


def verification_corpus(kernel: specialfn.StripKernel):
    """Five full-line sampled functions with 0 on the grid and closed-form
    transforms, exercising smooth, kinked, modulated, and compact shapes."""

    def sampled(t0, step, values, tail):
        return xforms.SampledComplexFunction(t0_grid=t0, step=step, values=values,
                                             support="full", tail_bound=tail, meta={})

    corpus = []

    t = np.arange(-12.0, 12.0 + 1e-12, 0.005)
    corpus.append((
        "gaussian",
        sampled(-12.0, 0.005, np.exp(-t * t).astype(complex), 0.0),
        lambda lam: math.sqrt(math.pi) * np.exp(lam * lam / 4.0),
    ))

    t = np.arange(-40.0, 40.0 + 1e-12, 0.01)
    corpus.append((
        "two-sided-exponential",
        sampled(-40.0, 0.01, np.exp(-np.abs(t)).astype(complex), math.exp(-40.0)),
        lambda lam: 2.0 / (1.0 - lam * lam),
    ))

    w = witness.modulated_translate(kernel, 8.0, 2.0)
    corpus.append(("witness", w.samples, w.transform))

    t = np.arange(-12.0, 12.0 + 1e-12, 0.005)
    mod = np.exp(3j * t) * np.exp(-t * t)
    corpus.append((
        "modulated-gaussian",
        sampled(-12.0, 0.005, mod.astype(complex), 0.0),
        lambda lam: math.sqrt(math.pi) * np.exp((lam - 3j) * (lam - 3j) / 4.0),
    ))

    t = np.arange(-6.0, 6.0 + 1e-12, 0.004)
    inside = np.abs(t) < 5.0
    bump = np.zeros(t.size, dtype=complex)
    bump[inside] = np.exp(-1.0 / (1.0 - (t[inside] / 5.0) ** 2))
    corpus.append(("compact-bump", sampled(-6.0, 0.004, bump, 0.0), None))

    return corpus


def modulus_identity(ctx: Context) -> list[Check]:
    """1. Modulus identity of the exponential comb, anchored at the origin."""
    eps = ctx.eps
    rng = np.random.default_rng([ctx.seed, 1])
    lam = rng.uniform(-6, 6, 1000) + 1j * rng.uniform(-5, 5, 1000)
    direct = np.abs(specialfn.exp_cosine(eps, lam))
    closed = np.exp(2.0 * np.cos(eps * lam.real)
                    * (np.exp(eps * lam.imag) + np.exp(-eps * lam.imag)))
    rel = np.max(np.abs(direct - closed) / closed)
    anchor = abs(complex(specialfn.exp_cosine(eps, 0.0)) - math.exp(4.0)) / math.exp(4.0)
    return [
        check("comb_modulus_identity_rel", rel, 1e-12),
        check("comb_origin_anchor_rel", anchor, 1e-12),
    ]


def strip_decay(ctx: Context) -> list[Check]:
    """2. Strip decay under a double-exponential weight, stable in grid extent."""
    grid12 = regions.sample(1.0 / ctx.m.m0, 12.0, 21, 241)
    grid16 = regions.sample(1.0 / ctx.m.m0, 16.0, 21, 321)
    sup12 = specialfn.verify_strip_decay(ctx.strip, ctx.eps, grid12)
    sup16 = specialfn.verify_strip_decay(ctx.strip, ctx.eps, grid16)
    return [
        check("strip_weighted_sup", sup12, STRIP_SUP_MAX),
        check("strip_sup_extent_stability", abs(sup16 - sup12) / sup12, 1e-6, "lt"),
    ]


def kernel_round_trip(ctx: Context) -> list[Check]:
    """3. Kernel round trip on a 20x20 grid, reality, and L1 stability under decimation."""
    kernel = ctx.kernel
    g = kernel.samples
    l1_half = xforms.l1_norm_samples(g.values[::2], 2.0 * g.step)
    return [
        check("kernel_roundtrip_dev", specialfn.roundtrip_max_deviation(kernel), ROUNDTRIP_MAX_DEV),
        check("kernel_reality_ratio", specialfn.reality_ratio(kernel), REALITY_RATIO_MAX, "lt"),
        check("kernel_l1_decimation_rel",
              abs(l1_half - kernel.l1_norm) / kernel.l1_norm, 1e-6, "lt"),
    ]


def rate_calculus(ctx: Context) -> list[Check]:
    """4. The rate inverse lands on the nose, never above the target, and the
    two-function rate m_k(M, M) equals m_log(M) exactly."""
    rate = growth.m_log(ctx.m)
    worst = 0.0
    for t in np.geomspace(10.0, 1e8, 50):
        s = growth.right_inverse(rate, t)
        worst = max(worst, (t - rate(s)) / t)
        if rate(s) > t:
            worst = math.inf
    ss = np.geomspace(1e-3, 1e6, 1000)
    mk = growth.m_k(ctx.m, ctx.m)
    return [
        check("rate_inverse_on_the_nose", worst, 1e-6),
        check("two_function_rate_identity", float(np.max(np.abs(mk(ss) - rate(ss)))), 0.0),
    ]


def bound_chain_calibration(ctx: Context) -> list[Check]:
    """5. The frozen kappa bound holds on 200 fresh admissible (R, t) pairs."""
    m, eps, kernel = ctx.m, ctx.eps, ctx.kernel
    cal = witness.calibrate_kappa(kernel, m, eps)
    rng = np.random.default_rng([ctx.seed, 5])
    checked = 0
    violations = 0
    worst_ratio = 0.0
    while checked < 200:
        R = math.exp(rng.uniform(math.log(8.0), math.log(120.0)))
        t_cap = 0.85 * witness.t_cap(m, R, eps)
        t = math.exp(rng.uniform(0.0, math.log(max(t_cap, 1.001))))
        value, admissible = witness.bound_rhs(m, R, t, eps)
        if not admissible:
            continue
        checked += 1
        total = witness.x_norm(kernel, R, t, m).total
        worst_ratio = max(worst_ratio, total / (cal.kappa * value))
        if total > cal.kappa * value:
            violations += 1
    return [
        check("kappa_violations", violations, 0.0),
        check("kappa_worst_ratio", worst_ratio, 1.0),
    ]


def sharpness_ratio(ctx: Context) -> list[Check]:
    """6. A 25-point sweep: all feasible, N(t) within a band of the inverse rate,
    and the explicit selection R = 6 m_log_inv(t) admissible everywhere."""
    curve = witness.sharpness_curve(ctx.m, np.geomspace(1e2, 1e6, 25), ctx.eps, prescribed_C=6.0)
    return [
        check("sharpness_band_ratio", curve.band_ratio, 10.0),
        check("sharpness_prescribed_admissible",
              1.0 if curve.prescribed_all_admissible else 0.0, 1.0, "ge"),
        check("sharpness_all_feasible", 1.0 if curve.all_feasible else 0.0, 1.0, "ge"),
    ]


def mult_semigroup_slope(ctx: Context) -> list[Check]:
    """7. Multiplication-model decay slope -1/2 and the per-frequency sup property."""
    m = ctx.m
    spec = semigroup.mult_semigroup(m)
    rep = semigroup.mult_decay_report(spec, np.geomspace(1e2, 1e6, 25))
    rep = semigroup.compare_rates(rep, m, growth.RateParams(c=1.5, C_choice=1.0))
    rng = np.random.default_rng([ctx.seed, 7])
    per_n_bad = 0
    for t in (10.0, 500.0, 2e4):
        d = semigroup.decay_norm(spec, t)
        for n in rng.integers(0, spec.frequencies.size, 5):
            per = math.exp(-t / float(m(spec.frequencies[n]))) / abs(spec.eigenvalues[n])
            if d < per - 1e-15:
                per_n_bad += 1
    return [
        check("mult_slope_dev", abs(rep.slopes["measured"] + 0.5), 0.05),
        check("mult_per_frequency_violations", per_n_bad, 0.0),
    ]


def separation_phenomenon(ctx: Context) -> list[Check]:
    """8. Shift-model lower bounds, all admissible, decay strictly slower than
    the diagonal model's norms (normalized at tau = 1e3)."""
    m = ctx.m
    taus = np.geomspace(1e3, 1e6, 41)
    sh = semigroup.shift_witness_lower(m, ctx.kernel, taus, ctx.eps)
    dense = semigroup.mult_semigroup(m, semigroup.geometric_frequencies(80, 2.0 ** 0.25))
    dvals = np.array([semigroup.decay_norm(dense, t) for t in taus])
    norm_ratio = (sh.values / sh.values[0]) / (dvals / dvals[0])
    return [
        check("separation_min_ratio", float(np.min(norm_ratio)), 1.0 - 1e-12, "ge"),
        check("separation_end_ratio_low", float(norm_ratio[-1]), 1.3, "ge"),
        check("separation_end_ratio_high", float(norm_ratio[-1]), 1.9),
        check("separation_all_admissible", 1.0 if np.all(sh.admissible) else 0.0, 1.0, "ge"),
    ]


def halfplane_suite(ctx: Context) -> list[Check]:
    """9. Half-plane bounds over the corpus, witness continuation agreement,
    and the agreement gain from refining a kinked function's grid."""
    m, kernel = ctx.m, ctx.kernel
    corpus = verification_corpus(kernel)
    rng = np.random.default_rng([ctx.seed, 9])
    min_margin = math.inf
    for _, g, _tf in corpus:
        pair = truncate.split(g)
        plus = rng.uniform(0.05, 2.0, 100) + 1j * rng.uniform(-20, 20, 100)
        minus = -rng.uniform(0.05, 2.0, 100) + 1j * rng.uniform(-20, 20, 100)
        for variant in ("plain", "derivative"):
            hp = truncate.verify_halfplane_bounds(pair, np.concatenate([plus, minus]), variant)
            min_margin = min(min_margin, hp.min_margin)

    w = witness.modulated_translate(kernel, 8.0, 10.0)
    xs = np.linspace(-0.35, -0.02, 5)
    ys = np.linspace(-0.5, 0.5, 5)
    agrid = (xs[None, :] + 1j * ys[:, None]).ravel()
    ag = truncate.verify_agreement(w, m, agrid)

    kinked = corpus[1][1]
    tf = corpus[1][2]
    fine = truncate.verify_agreement(kinked, m, agrid, transform=tf)
    coarse = truncate.verify_agreement(kinked, m, agrid, transform=tf, coarsen=2)
    return [
        check("halfplane_min_margin", min_margin, HALFPLANE_MARGIN_MIN, "ge"),
        check("witness_agreement_residual", ag.residual, AGREEMENT_RESIDUAL_MAX, "lt"),
        check("witness_cauchy_residual", ag.cauchy_residual, CAUCHY_RESIDUAL_MAX),
        check("agreement_refinement_gain", coarse.residual / fine.residual, 2.0, "ge"),
    ]


GROUPS = [
    modulus_identity,
    strip_decay,
    kernel_round_trip,
    rate_calculus,
    bound_chain_calibration,
    sharpness_ratio,
    mult_semigroup_slope,
    separation_phenomenon,
    halfplane_suite,
]
