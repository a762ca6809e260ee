"""Two semigroup models for decay-rate experiments.

A diagonal multiplication semigroup on a sup-normed sequence space places
eigenvalues -1/M(s_n) + i s_n, giving closed-form resolvent and decay norms —
these realize the inverse-rate decay floor.  A left-shift model on a weighted
function space admits certified lower bounds on the damped orbit norm through
explicit witness vectors: the shifted witness evaluates to a unit-modulus
sample, so the orbit norm is at least 1 / (norm of the witness derivative).
The shift bounds decay strictly slower than the diagonal model's norms — the
separation the two constructions exist to exhibit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConstructionError, DomainError, FitError
from .growth import (
    GrowthFunction,
    RateParams,
    check_regularly_growing,
    m_log,
)
from .specialfn import StripKernel
from .witness import _safe_rate_inverse, banded_grid_sup, minimize_log_scale, modulated_translate
from .xforms import simpson_weights

__all__ = [
    "MultSemigroupSpec",
    "mult_semigroup",
    "geometric_frequencies",
    "resolvent_norm",
    "decay_norm",
    "DecayReport",
    "mult_decay_report",
    "shift_witness_lower",
    "compare_rates",
]

#: real-part cap of the region over which the shift-space transform sup runs
REGION_CAP = 1.0
#: self-improvement constant of the regular-growth check shift_witness_lower requires
REGULAR_GROWTH_C = 0.45


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
    if not base > 1.0:
        raise DomainError(f"base must exceed 1, got {base}")
    return base * base ** np.arange(count, dtype=float)


def mult_semigroup(m: GrowthFunction, frequencies=None) -> MultSemigroupSpec:
    """Build the diagonal model at the given frequencies (default geometric)."""
    freqs = geometric_frequencies() if frequencies is None else np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1 or freqs.size < 2:
        raise DomainError("frequency spec must yield at least two frequencies")
    if np.any(freqs <= 0) or np.any(np.diff(freqs) <= 0):
        raise DomainError("frequencies must be positive and strictly increasing")
    eigenvalues = -1.0 / np.asarray(m(freqs)) + 1j * freqs
    return MultSemigroupSpec(m=m, frequencies=freqs, eigenvalues=eigenvalues)


def resolvent_norm(spec: MultSemigroupSpec, s: float) -> float:
    """sup-norm of the resolvent at i s for the diagonal operator."""
    return float(np.max(1.0 / np.abs(1j * float(s) - spec.eigenvalues)))


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
    """Measured decay norms or certified lower bounds along a time grid,
    with inverse-rate comparison curves and log-log fit diagnostics.

    ``admissible`` marks points that carry a genuine value; infeasible points
    hold NaN and are excluded from all fits.
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

    def to_csv(self, path) -> None:
        nan_col = np.full(self.t_grid.size, math.nan)
        mlog = self.curve_mlog if self.curve_mlog is not None else nan_col
        minv = self.curve_minv if self.curve_minv is not None else nan_col
        lines = [self.CSV_HEADER]
        for t, v, a, b, adm in zip(self.t_grid, self.values, mlog, minv, self.admissible):
            lines.append(f"{t:.17g},{v:.17g},{a:.17g},{b:.17g},{1 if adm else 0}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

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

    def to_json(self, path) -> None:
        blob = json.dumps(self.to_json_dict(), indent=1, sort_keys=True, allow_nan=False)
        Path(path).write_text(blob + "\n")


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


def compare_rates(report: DecayReport, m: GrowthFunction, rate_params: RateParams) -> DecayReport:
    """Attach d1/m_log_inverse(c t) and d2/m_inverse(C t) comparison curves.

    The constants d1 and d2 are least-squares fits in log space over the
    latter half of the admissible grid points; slopes are log-log fits over
    all admissible points.  Fewer than 4 usable points is an error.
    """
    ts = report.t_grid
    if ts.size < 4:
        raise FitError("rate comparison needs at least 4 grid points")
    rate = m_log(m)
    # a time with no inverse (None) becomes nan
    inv_mlog = np.array([_safe_rate_inverse(rate, rate_params.c * t) for t in ts], dtype=float)
    inv_m = np.array([_safe_rate_inverse(m, rate_params.C_choice * t) for t in ts], dtype=float)

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

    logt = np.log(ts[mask])
    slope_measured = float(np.polyfit(logt, np.log(report.values[mask]), 1)[0])
    slopes = {"measured": slope_measured,
              "non_decaying": bool(slope_measured > -1e-3)}
    for name, curve in (("curve_mlog", curve_mlog), ("curve_minv", curve_minv)):
        ok = mask & np.isfinite(curve) & (curve > 0)
        if np.sum(ok) >= 4:
            slopes[name] = float(np.polyfit(np.log(ts[ok]), np.log(curve[ok]), 1)[0])

    constants = {**report.constants, "d1": d1, "d2": d2,
                 "c": rate_params.c, "C": rate_params.C_choice}
    return replace(report, curve_mlog=curve_mlog, curve_minv=curve_minv,
                   constants=constants, slopes=slopes)


def _shift_derivative_norm(kernel: StripKernel, m: GrowthFunction, tau: float):
    """The function R -> upper bound on the shift-space norm of the witness
    derivative at time tau: the uniform norm of the derivative samples on the
    retained half-line plus the weighted transform grid-sup over the region
    {Re lam > -1/M(|Im lam|), |Re lam| < 1}.

    The transform of the derivative is lam * f_hat(lam) - f(0), and f_hat of
    the half-line restriction is bounded termwise by the two-sided transform
    plus a weighted L1 bound on the dropped negative part (terms combined in
    log space); an upper bound here keeps the certified bound 1/norm valid.
    Everything that depends on tau alone is formed once, here.
    """
    base = kernel.samples
    sigma = base.t_grid
    keep = sigma >= -tau
    values, deriv = base.values[keep], kernel.derivative.values[keep]
    live = (values != 0) | (deriv != 0)  # a zero sample cannot raise the sup
    values, deriv = values[live], deriv[live]

    # |e^{-lam s}| <= e^{REGION_CAP |s|} for s < 0 anywhere in the region
    n_drop = int(base.n - np.sum(keep))
    if n_drop >= 2:
        absv = np.abs(base.values[:n_drop]) * np.exp(REGION_CAP * np.abs(sigma[:n_drop] + tau))
        b_minus = float(simpson_weights(n_drop, base.step) @ absv)
    elif n_drop == 1:
        b_minus = float(base.step * np.abs(base.values[0]))
    else:
        b_minus = 0.0

    if -tau < sigma[0]:
        f0_abs = 0.0  # witness vanishes at 0: the kernel window sits right of it
    else:
        pos = (-tau - base.t0_grid) / base.step
        j = min(max(int(math.floor(pos)), 0), base.n - 2)
        f0_abs = float(max(np.abs(base.values[j]), np.abs(base.values[j + 1])))

    log_b = math.log(b_minus) if b_minus > 0 else -math.inf
    log_f0 = math.log(f0_abs) if f0_abs > 0 else -math.inf

    def widths(ys: np.ndarray):
        left = 1.0 / np.asarray(m(ys))
        right = np.full_like(left, REGION_CAP)
        return left, right

    def norm(R: float) -> float:
        f_inf = float(np.max(np.abs(1j * R * values + deriv), initial=0.0))

        def log_integrand(pts: np.ndarray, y: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore"):
                log_lam = np.log(np.abs(pts))
            x = pts.real
            log_ghat = -x * tau + kernel.log_modulus_transform_xy(x, y - R)
            total = np.logaddexp(log_lam + log_ghat, log_lam + log_b)
            total = np.logaddexp(total, log_f0)
            return total - np.log(np.asarray(m(np.abs(y))))

        log_sup, _ = banded_grid_sup(log_integrand, kernel.epsilon, R, widths)
        if log_sup > 709.0:  # exp would overflow; the optimizer rejects such R
            return math.inf
        return f_inf + math.exp(log_sup)

    return norm


def shift_witness_lower(
    m: GrowthFunction,
    kernel: StripKernel,
    t_grid,
    eps: float,
    *,
    R_max: float = 1e6,
    rate_params: RateParams | None = None,
) -> DecayReport:
    """Certified lower bounds on the shift model's damped orbit norm.

    For each time tau, the witness restricted to the positive half-line is an
    explicit vector whose left-shift by tau has a unit-modulus sample at the
    kernel peak; the damped orbit norm is therefore at least 1 / (norm of the
    witness derivative), and the modulation R is tuned per tau to make that
    norm smallest.  Times tau <= M(0) are marked infeasible (no admissible
    witness below the kernel's own scale) and excluded from fits.  Requires M
    to pass the regular-growth check and the kernel to match M(0).
    """
    ts = _validated_t_grid(t_grid)
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    reg = check_regularly_growing(m, REGULAR_GROWTH_C, np.linspace(0.0, 100.0, 129))
    if not reg.ok:
        raise DomainError(
            f"growth function {m.label} fails the regular-growth check at c={REGULAR_GROWTH_C}"
        )
    expected_eps = math.pi * m.m0 / 6.0
    if not math.isclose(kernel.epsilon, expected_eps, rel_tol=1e-9):
        raise DomainError(
            f"kernel frequency {kernel.epsilon} does not match the growth "
            f"function's M(0) = {m.m0} (expected {expected_eps})"
        )

    values = np.full(ts.size, math.nan)
    admissible = np.zeros(ts.size, dtype=bool)
    R_choices = np.full(ts.size, math.nan)
    gate_ok = np.zeros(ts.size, dtype=bool)
    for i, tau in enumerate(ts):
        if tau <= m.m0 or tau < 1.0:
            continue  # infeasible: no witness at times below the kernel scale
        best_R, best_v = minimize_log_scale(
            _shift_derivative_norm(kernel, m, tau), 1.0, R_max, 48, 40
        )
        # construction re-verifies the transform identity at seeded points,
        # and the left-shift of the witness by tau reads the kernel peak:
        # a unit-modulus sample, so 1/best_v is a genuine norm-ratio bound
        w = modulated_translate(kernel, best_R, float(tau))
        peak = abs(w.samples.values[kernel.peak_index])
        if not abs(peak - 1.0) < 1e-12:
            raise ConstructionError(f"witness shifted by tau = {tau} reads {peak:.17g} at the peak")
        values[i] = 1.0 / best_v
        R_choices[i] = best_R
        admissible[i] = True
        gate_ok[i] = math.log(tau) <= math.log(m.m0) + (eps / 2.0) * best_R / 2.0

    env = m.envelope
    if rate_params is None:
        c = 1.0 + 1.0 / env.beta if env is not None and env.has_lower() else 1.0
        rate_params = RateParams(c=c, C_choice=1.0)
    report = DecayReport(
        kind="shift-lower",
        m_spec=m.label,
        t_grid=ts,
        values=values,
        admissible=admissible,
        meta={"R_choices": R_choices.tolist(), "R_max": R_max,
              "kernel_t0": kernel.t0, "eps": eps,
              "decay_gate_ok": gate_ok.tolist()},
    )
    return compare_rates(report, m, rate_params)
