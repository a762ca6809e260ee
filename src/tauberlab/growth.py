"""Growth-function calculus.

A growth function M maps frequencies s >= 0 to positive values and is
non-decreasing; it abstracts "how fast the resolvent may grow along the
imaginary axis".  This module provides the built-in families, the
log-augmented rate transforms

    m_log(M)(s) = M(s) * (log(1+s) + log(1+M(s)))
    m_k(M,K)(s) = M(s) * (log(1+s) + log(1+K(s)))

their numerical right-inverses, and the desk check for regular growth.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BelowRangeError,
    ConfigurationError,
    DomainError,
    UnboundedSearchError,
)

__all__ = [
    "Envelope",
    "GrowthFunction",
    "RateParams",
    "lower_rate_constant",
    "poly",
    "exponential",
    "constant",
    "logarithmic",
    "from_table",
    "parse_growth_spec",
    "m_log",
    "m_k",
    "right_inverse",
    "RegularGrowthReport",
    "check_regularly_growing",
]

_BRACKET_CAP = 2.0**60  # doubling search never expands past this abscissa
_INVERSE_TOL = 1e-9  # absolute bisection tolerance of right_inverse
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class Envelope:
    """Declared growth witnesses: b*s**beta <= M(s) <= C*exp(alpha*s) for s >= 0.

    Either side may be absent (None); checks use whatever is declared.
    """

    b: float | None = None
    beta: float | None = None
    C: float | None = None
    alpha: float | None = None

    def has_lower(self) -> bool:
        return self.b is not None and self.beta is not None


@dataclass(frozen=True)
class GrowthFunction:
    """A positive, non-decreasing function of s >= 0 with optional envelope metadata.

    Calling it evaluates fn on one of two paths, chosen by the input's type.
    A Python float takes a scalar path (Python arithmetic, no array round
    trip), which gives the same bits as a 0-d array; any other input is
    evaluated as an array.  For ``poly`` a 1-element array can differ from
    the scalar by one ulp, because numpy's vectorised ``power`` is not the C
    library's ``pow``; the array values themselves are elementwise, so M on
    a subset of rows equals the same rows of M on the whole set.  The scalar
    path stays because a scalar call takes a fraction of the time of a
    1-element array call (1.0-1.8 us against 3.7-3.9 us with numpy 2.4 on a
    2-core VM, and 0.19 us for ``poly``), and one certificate sweep makes
    thousands of them (``bound_rhs``, ``right_inverse``).  ``poly``'s fn is
    Python float arithmetic alone, whose power overflows by raising, so its
    scalar call enters no ``np.errstate`` (that context alone cost about
    0.8 us of its 1.0 us); every other kind calls numpy and keeps it.  M(0)
    is evaluated once per growth function (``m0``).
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    label: str
    envelope: Envelope | None = None

    def __call__(self, s):
        if isinstance(s, float):  # scalar fast path: no 0-d array round trip
            s = float(s)
            if not 0.0 <= s < math.inf:  # rejects nan too
                raise DomainError(f"growth functions are defined for finite s >= 0, got {s!r}")
            try:
                if self.kind == "poly":  # Python float arithmetic alone: no numpy state to set
                    return float(self.fn(s))
                with np.errstate(over="ignore"):  # an overflowing M is inf, silently
                    return float(self.fn(s))
            except OverflowError:  # a Python float power overflows by raising
                return math.inf
        arr = np.asarray(s, dtype=float)
        valid = (arr >= 0.0) & (arr < math.inf)  # rejects nan too
        if not valid.all():  # name one bad value: an array repr would span lines
            bad = float(arr[~valid].flat[0])
            raise DomainError(f"growth functions are defined for finite s >= 0, got {bad!r}")
        with np.errstate(over="ignore"):  # an overflowing M is inf, silently
            out = self.fn(arr)
        if arr.ndim == 0:
            return float(out)
        return out

    @functools.cached_property
    def m0(self) -> float:
        """Value at the origin, M(0), evaluated on first use."""
        return float(self(0.0))


def poly(beta: float) -> GrowthFunction:
    """M(s) = (1+s)**beta. Envelope: s**beta below, C*exp(s) above (C = max (1+s)^beta e^-s)."""
    if not (math.isfinite(beta) and beta > 0):
        raise DomainError(f"poly exponent must be finite and positive, got {beta}")
    # C = beta**beta * e**(1 - beta) in log space: beta**beta alone overflows above ~143
    log_c = beta * math.log(beta) + 1.0 - beta if beta >= 1.0 else 0.0
    if log_c > _LOG_FLOAT_MAX:
        raise DomainError(
            f"poly exponent {beta:g} is too large: its envelope constant "
            f"beta**beta * e**(1 - beta) overflows double precision"
        )
    upper_c = math.exp(log_c)
    env = Envelope(b=1.0, beta=beta, C=upper_c, alpha=1.0)
    return GrowthFunction("poly", lambda s: (1.0 + s) ** beta, f"poly:beta={beta:g}", env)


def exponential(alpha: float) -> GrowthFunction:
    """M(s) = exp(alpha*s).  No polynomial lower witness is declared by default."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"exponential rate must be finite and positive, got {alpha}")
    env = Envelope(C=1.0, alpha=alpha)
    return GrowthFunction("exp", lambda s: np.exp(alpha * s), f"exp:alpha={alpha:g}", env)


def constant(m0: float) -> GrowthFunction:
    """M(s) = m0 > 0."""
    if not (math.isfinite(m0) and m0 > 0):
        raise DomainError(f"constant growth level must be finite and strictly positive, got {m0}")
    env = Envelope(C=m0, alpha=1.0)
    return GrowthFunction("const", lambda s: np.full_like(s, float(m0)), f"const:m0={m0:g}", env)


def logarithmic(m0: float) -> GrowthFunction:
    """M(s) = m0 + log(1+s)."""
    if not (math.isfinite(m0) and m0 > 0):
        raise DomainError(f"logarithmic offset must be finite and strictly positive, got {m0}")
    env = Envelope(C=m0 + 1.0, alpha=1.0)
    return GrowthFunction("log", lambda s: m0 + np.log1p(s), f"log:m0={m0:g}", env)


def from_table(
    knots: Sequence[float],
    values: Sequence[float],
    label: str = "table",
    envelope: Envelope | None = None,
) -> GrowthFunction:
    """Piecewise-linear interpolation of (s, M(s)) pairs, constant beyond the ends."""
    s = np.asarray(knots, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.ndim != 1 or s.size < 2 or s.shape != v.shape:
        raise DomainError("table needs matching 1-d knot/value arrays of length >= 2")
    if not np.all(np.isfinite(s)) or np.any(s < 0) or np.any(np.diff(s) <= 0):
        raise DomainError("table knots must be finite, non-negative and strictly increasing")
    if not np.all(np.isfinite(v)) or np.any(v <= 0) or np.any(np.diff(v) < 0):
        raise DomainError("table values must be finite, positive and non-decreasing")
    return GrowthFunction("table", lambda x: np.interp(x, s, v), label, envelope)


def parse_growth_spec(text: str) -> GrowthFunction:
    """Parse the textual mini-language: poly:beta=2, exp:alpha=1, const:m0=1, log:m0=1, table:<path>."""
    head, sep, rest = text.partition(":")
    try:
        if head == "table":
            if not sep or not rest:
                raise ConfigurationError("table spec needs a path: table:<path>")
            data = np.loadtxt(rest, ndmin=2)
            if data.shape[1] < 2:
                raise ConfigurationError(f"table file {rest!r} needs two columns (s, M(s))")
            return from_table(data[:, 0], data[:, 1], label=text)
        makers = {
            "poly": ("beta", poly),
            "exp": ("alpha", exponential),
            "const": ("m0", constant),
            "log": ("m0", logarithmic),
        }
        if head not in makers:
            raise ConfigurationError(f"unknown growth spec kind {head!r} in {text!r}")
        pname, maker = makers[head]
        key, eq, val = rest.partition("=")
        if key != pname or not eq:
            raise ConfigurationError(f"growth spec {text!r} must look like {head}:{pname}=<value>")
        return maker(float(val))
    except (ValueError, OSError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"cannot parse growth spec {text!r}: {exc}") from exc


@dataclass(frozen=True)
class RateParams:
    """Constants of the decay-rate statements.

    c scales time inside the inverse-rate curve 1/m_log_inverse(c*t), and
    C_choice inside the growth-inverse curve 1/m_inverse(C_choice*t), the two
    comparison curves of semigroup.compare_rates.  Neither has a canonical
    value, so both are required inputs.
    """

    c: float
    C_choice: float

    def __post_init__(self):
        if not self.c > 0:
            raise DomainError(f"rate constant c must be positive, got {self.c}")
        if not self.C_choice > 0:
            raise DomainError(f"selection constant C_choice must be positive, got {self.C_choice}")


def lower_rate_constant(m: GrowthFunction) -> float | None:
    """The rate constant c = 1 + 1/beta from m's declared polynomial lower
    envelope, or None when m declares none."""
    env = m.envelope
    return 1.0 + 1.0 / env.beta if env is not None and env.has_lower() else None


def m_k(m: GrowthFunction, k: GrowthFunction) -> GrowthFunction:
    """Two-function rate transform s -> M(s) * (log(1+s) + log(1+K(s)))."""

    def fn(s: np.ndarray) -> np.ndarray:
        return m.fn(s) * (np.log1p(s) + np.log1p(k.fn(s)))

    return GrowthFunction("derived", fn, f"m_k({m.label},{k.label})")


def m_log(m: GrowthFunction) -> GrowthFunction:
    """Log-augmented rate transform; identical arithmetic to m_k(m, m)."""
    return m_k(m, m)


def right_inverse(m: GrowthFunction, t: float) -> float:
    """Smallest s with M(s) >= t, by bisection to absolute tolerance 1e-9.

    Returns the lower bisection endpoint, so the result undershoots the exact
    preimage by at most the tolerance and M(result) <= t; plateaus resolve to
    their left endpoint.  Raises BelowRangeError for t < M(0) and
    UnboundedSearchError if doubling past 2**60 never reaches t.
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"target must be finite, got {t}")
    m0 = m.m0
    if t < m0:
        raise BelowRangeError(f"target {t} is below M(0) = {m0}")
    if t <= m0:
        return 0.0
    lo, hi = 0.0, 1.0
    while m(hi) < t:
        lo = hi
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise UnboundedSearchError(
                f"M never reaches {t} below s = 2**60 (sup found: {m(_BRACKET_CAP)})"
            )
    while hi - lo > _INVERSE_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # bracket narrower than float spacing; tolerance unreachable here
        if m(mid) >= t:
            hi = mid
        else:
            lo = mid
    return lo


def rate_inverse(rate: GrowthFunction, t: float) -> tuple[float | None, bool]:
    """right_inverse(rate, t), or None where there is none, and whether the
    rate stays below t up to s = 2**60, where right_inverse stops searching
    (so the rate inverse lies above 2**60)."""
    try:
        return right_inverse(rate, t), False
    except BelowRangeError:
        return None, False
    except UnboundedSearchError:
        return None, True


@dataclass(frozen=True)
class RegularGrowthReport:
    """Grid evidence for the self-improvement inequality M(s) >= c*M(s + c/M(s))."""

    c: float
    grid: np.ndarray
    defects: np.ndarray  # M(s) - c*M(s + c/M(s)), negative entries are violations
    violations: np.ndarray  # grid points with negative defect

    @property
    def ok(self) -> bool:
        return self.violations.size == 0


def check_regularly_growing(m: GrowthFunction, c: float, grid) -> RegularGrowthReport:
    """Evaluate the self-improvement inequality on a grid; list violating points."""
    if not 0.0 < c < 1.0:
        raise DomainError(f"self-improvement constant must lie in (0, 1), got {c}")
    g = np.asarray(grid, dtype=float)
    vals = m(g)
    with np.errstate(invalid="ignore"):  # an overflowing M gives inf - inf
        defects = vals - c * m(g + c / vals)
    # a defect that cannot be evaluated (nan) is not verified: it counts as a violation
    return RegularGrowthReport(c=c, grid=g, defects=defects, violations=g[~(defects >= 0.0)])
