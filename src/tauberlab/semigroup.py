"""Two semigroup models for decay-rate experiments.

A diagonal multiplication semigroup on a sup-normed sequence space places
eigenvalues -1/M(s_n) + i s_n, giving closed-form decay norms — these
realize the inverse-rate decay floor.  A left-shift model on a weighted
function space admits certified lower bounds on the damped orbit norm through
explicit witness vectors: the shifted witness has modulus 1 at the kernel
peak by construction, so the orbit norm is at least 1 / (norm of the witness
derivative), a norm bounded from closed forms alone (no witness is sampled).
The shift bounds decay strictly slower than the diagonal model's norms — the
separation the two constructions exist to exhibit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, FitError
from .growth import GrowthFunction, RateParams, check_regularly_growing, m_log, rate_inverse
from .logscale import refine_log_scale
from .regions import LogWeightedModuli, banded_grid_sup
from .specialfn import StripKernel, default_epsilon
from .witness import admissible, check_R_max, effective_eps
from .xforms import simpson_weights

__all__ = [
    "MultSemigroupSpec",
    "mult_semigroup",
    "geometric_frequencies",
    "decay_norm",
    "DecayReport",
    "mult_decay_report",
    "shift_witness_lower",
    "compare_rates",
    "loglog_slope",
]

#: real-part cap of the region over which the shift-space transform sup runs
REGION_CAP = 1.0
#: self-improvement constant of the regular-growth check shift_witness_lower requires
REGULAR_GROWTH_C = 0.45
#: coarse R per banded_grid_sup call in shift_witness_lower's coarse scan.  A
#: call's cost is mostly fixed, while a larger round keeps pairs that an
#: earlier R of the same round would have ruled out and holds more rows at
#: once: on 8 taus shift_witness_lower took 11.7 ms at 1 R per call, 7.8 ms at
#: 8, 7.4 ms at 12 and 8.8 ms at all 48, whose traced peak on 41 taus was
#: 16.8 MB against 2.8 MB at 8
_COARSE_ROUND = 8


@dataclass(frozen=True, eq=False)
class MultSemigroupSpec:
    """Diagonal generator with eigenvalues -1/M(s_n) + i s_n."""

    m: GrowthFunction
    frequencies: np.ndarray
    eigenvalues: np.ndarray


def geometric_frequencies(count: int = 20, base: float = 2.0) -> np.ndarray:
    """Frequencies base**k for k = 1..count (default 2, 4, ..., 2^20)."""
    if count < 2:
        raise DomainError("need at least two frequencies")
    if not 1.0 < base < math.inf:
        raise DomainError(f"base must be a finite number above 1, got {base}")
    with np.errstate(over="ignore"):
        freqs = base * base ** np.arange(count, dtype=float)
    if not math.isfinite(freqs[-1]):
        raise DomainError(f"frequencies {base}**k overflow for k up to {count}")
    return freqs


def mult_semigroup(m: GrowthFunction, frequencies=None) -> MultSemigroupSpec:
    """Build the diagonal model at the given frequencies (default geometric)."""
    freqs = geometric_frequencies() if frequencies is None else np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1 or freqs.size < 2:
        raise DomainError("frequency spec must yield at least two frequencies")
    if not np.all(np.isfinite(freqs)) or np.any(freqs <= 0) or np.any(np.diff(freqs) <= 0):
        raise DomainError("frequencies must be finite, positive and strictly increasing")
    eigenvalues = -1.0 / np.asarray(m(freqs)) + 1j * freqs
    return MultSemigroupSpec(m=m, frequencies=freqs, eigenvalues=eigenvalues)


def decay_norm(spec: MultSemigroupSpec, t: float) -> float:
    """sup-norm of (semigroup at time t) composed with the inverse generator."""
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"time must be a finite nonnegative real, got {t}")
    rates = 1.0 / np.asarray(spec.m(spec.frequencies))
    return float(np.max(np.exp(-t * rates) / np.abs(spec.eigenvalues)))


def _null_if_non_finite(value):
    """value for strict JSON: a non-finite float (also inside a list) becomes None."""
    if isinstance(value, list):
        return [_null_if_non_finite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True, eq=False)
class DecayReport:
    """Measured decay norms or certified lower bounds along a time grid and,
    once compare_rates has fitted it, inverse-rate curves and log-log fits.

    ``admissible`` marks points that carry a genuine value; infeasible points
    hold NaN and are excluded from all fits.  csv_text and json_text give
    the report's artifact texts; writing them is the caller's.
    """

    kind: str
    m_spec: str
    t_grid: np.ndarray
    values: np.ndarray
    admissible: np.ndarray
    curve_mlog: np.ndarray | None = None
    curve_minv: np.ndarray | None = None
    constants: dict = field(default_factory=dict)
    slopes: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    CSV_HEADER = "t,measured_or_lower,curve_mlog,curve_minv,admissible"

    def csv_text(self) -> str:
        """One 17-digit line per time under CSV_HEADER; a curve not yet fitted reads nan."""
        nan_col = np.full(self.t_grid.size, math.nan)
        mlog = self.curve_mlog if self.curve_mlog is not None else nan_col
        minv = self.curve_minv if self.curve_minv is not None else nan_col
        lines = [self.CSV_HEADER]
        for t, v, a, b, adm in zip(self.t_grid, self.values, mlog, minv, self.admissible):
            lines.append(f"{t:.17g},{v:.17g},{a:.17g},{b:.17g},{1 if adm else 0}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "m_spec": self.m_spec,
            "n_points": int(self.t_grid.size),
            "t_range": [float(self.t_grid[0]), float(self.t_grid[-1])],
            "n_admissible": int(np.sum(self.admissible)),
            "constants": {k: _null_if_non_finite(v) for k, v in self.constants.items()},
            "slopes": {k: _null_if_non_finite(v) for k, v in self.slopes.items()},
            "meta": {k: _null_if_non_finite(v) for k, v in self.meta.items()
                     if not isinstance(v, np.ndarray)},
        }

    def json_text(self) -> str:
        """to_json_dict as strict JSON text (a non-finite value is null)."""
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=True, allow_nan=False) + "\n"


def _validated_t_grid(t_grid) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if ts.size == 0 or np.any(~np.isfinite(ts)) or np.any(np.diff(ts) <= 0):
        raise DomainError("time grid must be finite and strictly increasing")
    return ts


def mult_decay_report(spec: MultSemigroupSpec, t_grid) -> DecayReport:
    ts = _validated_t_grid(t_grid)
    values = np.array([decay_norm(spec, t) for t in ts])
    return DecayReport(
        kind="multiplication",
        m_spec=spec.m.label,
        t_grid=ts,
        values=values,
        admissible=np.ones(ts.size, dtype=bool),
        meta={"n_frequencies": int(spec.frequencies.size),
              "frequency_range": [float(spec.frequencies[0]), float(spec.frequencies[-1])]},
    )


def loglog_slope(t, values) -> float:
    """Least-squares slope of log(values) against log(t)."""
    return float(np.polyfit(np.log(t), np.log(values), 1)[0])


def compare_rates(report: DecayReport, m: GrowthFunction, rate_params: RateParams) -> DecayReport:
    """Fit a report: attach d1/m_log_inverse(c t) and d2/m_inverse(C t) curves,
    c = rate_params.c and C = rate_params.C_choice (the models return unfitted reports).

    The constants d1 and d2 are least-squares fits in log space over the
    latter half of the admissible grid points; slopes are loglog_slope fits
    over all admissible points.  Fewer than 4 usable points is a FitError.
    """
    ts = report.t_grid
    if ts.size < 4:
        raise FitError("rate comparison needs at least 4 grid points")
    # a time with no inverse (None) becomes nan; Python floats overflow to inf
    # without a numpy warning, and right_inverse refuses an infinite target
    inv_mlog, inv_m = (np.array([rate_inverse(f, c * t)[0] for t in ts.tolist()], dtype=float)
                       for f, c in ((m_log(m), rate_params.c), (m, rate_params.C_choice)))

    mask = report.admissible & np.isfinite(report.values) & (report.values > 0)
    if np.sum(mask) < 4:
        raise FitError("rate comparison needs at least 4 admissible points")
    idx = np.flatnonzero(mask)
    latter = idx[idx.size // 2:]

    def fit_const(inv_curve: np.ndarray) -> float:
        ok = latter[np.isfinite(inv_curve[latter]) & (inv_curve[latter] > 0)]
        if ok.size == 0:
            return math.nan
        return float(np.exp(np.mean(np.log(report.values[ok]) + np.log(inv_curve[ok]))))

    d1 = fit_const(inv_mlog)
    d2 = fit_const(inv_m)
    with np.errstate(divide="ignore", invalid="ignore"):
        curve_mlog = d1 / inv_mlog
        curve_minv = d2 / inv_m

    slope_measured = loglog_slope(ts[mask], report.values[mask])
    slopes = {"measured": slope_measured,
              "non_decaying": bool(slope_measured > -1e-3)}
    for name, curve in (("curve_mlog", curve_mlog), ("curve_minv", curve_minv)):
        ok = mask & np.isfinite(curve) & (curve > 0)
        if np.sum(ok) >= 4:
            slopes[name] = loglog_slope(ts[ok], curve[ok])

    constants = {**report.constants, "d1": d1, "d2": d2,
                 "c": rate_params.c, "C": rate_params.C_choice}
    return replace(report, curve_mlog=curve_mlog, curve_minv=curve_minv,
                   constants=constants, slopes=slopes)


@dataclass(frozen=True)
class _ShiftTau:
    """What the shift norm needs of tau alone: the first of the live kernel
    samples the half-line keeps, and the logs of the dropped part's weighted
    L1 bound and of |f(0)| (-inf where they vanish)."""

    tau: float
    first: int
    log_b: float
    log_f0: float


def _shift_tau(kernel: StripKernel, tau: float) -> _ShiftTau:
    """The tau-only terms of the shift norm, formed once per tau.  The
    transform of the witness derivative is lam * f_hat(lam) - f(0); f_hat of
    the half-line restriction is bounded termwise by the two-sided transform
    plus a weighted L1 bound b_minus on the dropped negative part.  The
    dropped samples, those with abscissa t0_grid + j*step < -tau, are the
    first n_drop: the abscissae increase with j, so n_drop is found from the
    grid arithmetic and checked exactly at the indices beside it, and only
    the dropped abscissae are formed, bit for bit base.t_grid[:n_drop]."""
    base = kernel.samples
    t0, step, n = base.t0_grid, base.step, base.n
    n_drop = min(max(math.ceil((-tau - t0) / step), 0), n)
    while n_drop > 0 and t0 + step * (n_drop - 1) >= -tau:
        n_drop -= 1
    while n_drop < n and t0 + step * n_drop < -tau:
        n_drop += 1
    # |e^{-lam s}| <= e^{REGION_CAP |s|} for s < 0 anywhere in the region
    if n_drop >= 2:
        sigma = t0 + step * np.arange(n_drop)
        absv = np.abs(base.values[:n_drop]) * np.exp(REGION_CAP * np.abs(sigma + tau))
        b_minus = float(simpson_weights(n_drop, step) @ absv)
    elif n_drop == 1:
        b_minus = float(step * np.abs(base.values[0]))
    else:
        b_minus = 0.0

    if -tau < t0:
        f0_abs = 0.0  # witness vanishes at 0: the kernel window sits right of it
    else:
        j = min(max(int(math.floor((-tau - t0) / step)), 0), n - 2)
        f0_abs = float(max(np.abs(base.values[j]), np.abs(base.values[j + 1])))

    return _ShiftTau(
        tau=tau,
        first=int(np.searchsorted(kernel.live[0], -tau, side="left")),
        log_b=math.log(b_minus) if b_minus > 0 else -math.inf,
        log_f0=math.log(f0_abs) if f0_abs > 0 else -math.inf,
    )


def _shift_derivative_norms(kernel: StripKernel, m: GrowthFunction, R,
                            taus: list[_ShiftTau], uniform: list[float]) -> list[float]:
    """Upper bounds on the shift-space norm of the witness derivative, one
    per tau, at modulation R (one number for every tau, or one per tau):
    the uniform norm of the derivative samples on the retained half-line
    (``uniform``, from StripKernel.witness_derivative_maxima, 0 where it
    keeps none) plus the weighted transform grid-sup over the region
    {Re lam > -1/M(|Im lam|), |Re lam| < 1}.

    The terms of the transform bound are combined in log space, by the
    shift form of regions.LogWeightedModuli; an upper bound here keeps the
    certified bound 1/norm valid.  All taus go to one banded_grid_sup call,
    one grid per distinct R.  What depends on a grid row alone (log|lam|,
    the kernel's log-modulus transform at lam - iR, log M(|Im lam|) and the
    row bound's terms) is formed once per row, for every tau on that grid;
    per (tau, row) there remain -x*tau, the log-space sums and the maxima,
    on the rows that some tau's row bound keeps.  A log_b or log_f0 of
    -inf leaves its logaddexp unchanged to the bit, so that term is
    skipped.  Each norm is bit for bit the one of a call for its tau alone.
    """
    if not taus:
        return []
    log_integrands = LogWeightedModuli(kernel, [t.tau for t in taus], lam=True,
                                       boundary=[(t.log_b, t.log_f0) for t in taus])
    slice_R = np.broadcast_to(np.asarray(R, dtype=float), (len(taus),))
    log_sups, _ = banded_grid_sup(log_integrands, kernel.epsilon, slice_R, m, REGION_CAP)
    norms = []
    for u, log_sup in zip(uniform, log_sups):
        if log_sup > 709.0:  # exp would overflow; the optimizer rejects such R
            norms.append(math.inf)
        else:
            norms.append(u + math.exp(log_sup))
    return norms


def shift_witness_lower(
    m: GrowthFunction,
    kernel: StripKernel,
    t_grid,
    eps: float,
    *,
    R_max: float = 1e6,
) -> DecayReport:
    """Certified lower bounds on the shift model's damped orbit norm, one per
    time, unfitted: ``values``, ``admissible`` and ``meta`` (see compare_rates).

    For each time tau, the witness restricted to the positive half-line is an
    explicit vector whose left-shift by tau has modulus 1 at the kernel peak,
    by construction (no sample is read); the damped orbit norm is therefore
    at least 1 / (norm of the witness derivative), and the modulation R is
    tuned per tau to make that norm smallest.  The norm reads the closed-form
    transform and |iR h + h'| only, so a floor holds also for R above the
    kernel grid's sampling limit pi/step, as x_norm does.  Times tau <= M(0)
    are marked infeasible (no admissible witness below the kernel's own
    scale) and excluded from fits.  Requires M to pass the regular-growth
    check, the kernel to match M(0) and R_max to be a finite number >= 1.

    The 48 coarse R (log-spaced in [1, R_max]) are the same for every tau,
    so the coarse scan runs once, in ascending rounds of _COARSE_ROUND = 8
    R.  A round evaluates its kept (R, tau) pairs in one
    _shift_derivative_norms call, on one grid per distinct R (the data that
    depend on R alone are formed once per R; per tau there are a few
    scalars and -x*tau).  A pair is skipped, its coarse entry stored as
    +inf, when the uniform part U = max|iR f + f'| over the retained
    half-line is strictly greater than tau's smallest coarse norm in the
    earlier rounds; a round in which every pair is skipped makes no call.
    A round's U come from one StripKernel.witness_derivative_maxima call,
    which bounds blocks of live samples and evaluates only those that can
    hold a maximum, bit for bit the maximum over every retained sample.
    This is sound: the norm is computed as U + exp(log_sup), and rounding
    is monotone, so the computed norm is at least U and a skipped pair
    cannot be the coarse minimum of its row, which (with the row's R) is
    all a Brent search reads.  A round keeps every pair that a scan R by
    R would keep, and each pair it keeps beyond those has norm at least
    U > the row's minimum, so every row's argmin and minimum are those of
    the R-by-R scan.  Each tau is then refined by Brent steps on log R from
    its own coarse row, about ten norm evaluations per tau (at most 42), and
    the searches run in lockstep (refine_log_scale): each round
    takes the next step of every search still running and evaluates them
    all in one _shift_derivative_norms call, so one banded_grid_sup call
    with a grid per distinct R.  A search reads only its own tau's values,
    so every floor and R choice is bit for bit that of refining the taus
    one by one.  On verify's 41 taus that is 3 coarse calls (the last 3
    rounds keep no pair) and 12 Brent rounds, 15 banded_grid_sup calls for
    464 norm evaluations.  An R whose norm overflows, or whose weighted sup
    does not localize, has norm inf for that tau; a tau with no finite norm
    at any coarse R gets no witness and stays not admissible.  ``meta`` records
    ``norm_evals``, the R evaluated in the whole call (a coarse R counts
    once, and not at all where every tau is skipped; a Brent step counts
    once for its tau), ``n_coarse_skipped``, the (R, tau) pairs ruled out,
    and ``n_no_finite_norm``.
    """
    ts = _validated_t_grid(t_grid)
    check_R_max(R_max)
    gate_eps = effective_eps(eps, "derivative")  # the decay gate's eps; refuses a bad eps
    reg = check_regularly_growing(m, REGULAR_GROWTH_C, np.linspace(0.0, 100.0, 129))
    if not reg.ok:
        raise DomainError(
            f"growth function {m.label} fails the regular-growth check at c={REGULAR_GROWTH_C}"
        )
    expected_eps = default_epsilon(m.m0)
    if not math.isclose(kernel.epsilon, expected_eps, rel_tol=1e-9):
        raise DomainError(
            f"kernel frequency {kernel.epsilon} does not match the growth "
            f"function's M(0) = {m.m0} (expected {expected_eps})"
        )

    values = np.full(ts.size, math.nan)
    witnessed = np.zeros(ts.size, dtype=bool)
    R_choices = np.full(ts.size, math.nan)
    gate_ok = np.zeros(ts.size, dtype=bool)
    # times tau <= M(0) (or below 1) stay infeasible: no witness below the kernel scale
    feasible = [i for i, tau in enumerate(ts) if not (tau <= m.m0 or tau < 1.0)]
    terms = [_shift_tau(kernel, ts[i]) for i in feasible]
    n, n_evals, n_skipped = len(terms), 0, 0
    coarse_R = np.geomspace(1.0, R_max, 48)
    coarse_v = np.full((coarse_R.size, n), math.inf)  # column j is tau j's coarse row
    for start in range(0, coarse_R.size, _COARSE_ROUND):
        Rs = coarse_R[start:start + _COARSE_ROUND]
        # the round's (R, tau) pairs, R-major: pair p is (slice_R[p], terms[p % n])
        slice_R = np.repeat(Rs, n)
        uniform = kernel.witness_derivative_maxima(slice_R, [t.first for t in terms] * Rs.size)
        best = coarse_v[:start].min(axis=0, initial=math.inf)  # over the earlier rounds
        kept = [p for p, u in enumerate(uniform) if not u > best[p % n]]
        n_skipped += len(uniform) - len(kept)
        if kept:
            n_evals += len({p // n for p in kept})
            coarse_v[start:start + Rs.size].flat[kept] = _shift_derivative_norms(
                kernel, m, slice_R[kept], [terms[p % n] for p in kept], [uniform[p] for p in kept])
    # a tau with no finite norm at any coarse R gets no witness
    searched = [j for j in range(n) if np.isfinite(coarse_v[:, j]).any()]

    def step_norms(Rs: list[float], js: list[int]) -> list[float]:
        """One lockstep round: the next Brent step of every running search,
        all on one batched norm call (one grid per distinct R)."""
        nonlocal n_evals
        n_evals += len(Rs)
        taus = [terms[searched[j]] for j in js]
        uniform = kernel.witness_derivative_maxima(Rs, [t.first for t in taus])
        return _shift_derivative_norms(kernel, m, Rs, taus, uniform)

    refined = refine_log_scale(step_norms, [(coarse_R, coarse_v[:, j]) for j in searched], 40)
    for j, (best_R, best_v) in zip(searched, refined):
        i, t = feasible[j], terms[j]
        values[i] = 1.0 / best_v
        R_choices[i] = best_R
        witnessed[i] = True
        gate_ok[i] = admissible(m, best_R, t.tau, gate_eps)

    return DecayReport(
        kind="shift-lower",
        m_spec=m.label,
        t_grid=ts,
        values=values,
        admissible=witnessed,
        meta={"R_choices": R_choices.tolist(), "R_max": R_max,
              "kernel_t0": kernel.t0, "eps": eps,
              "decay_gate_ok": gate_ok.tolist(), "norm_evals": n_evals,
              "n_coarse_skipped": n_skipped, "n_no_finite_norm": len(terms) - len(searched)},
    )
