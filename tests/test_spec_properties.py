"""Property test of the library over growth specs: for poly, exp, log and
const growth and small monotone tables, at t from 1 to 1e12, the rate
inverses, the two-term bound, the optimized certificate and a two-point
sharpness curve return finite values (or their declared markers of no
value) or raise a TauberlabError subclass, and no numpy warning fires."""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberlab import growth, witness
from tauberlab.errors import TauberlabError

EPS1 = math.pi / 6.0


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def tables(draw):
    """A table of 2-4 knots: increasing knots, positive non-decreasing
    values (a zero step makes a plateau); no envelope is declared."""
    n = draw(st.integers(2, 4))
    knots = [draw(st.floats(0.0, 10.0))] + [draw(log_uniform(1e-3, 1e3)) for _ in range(n - 1)]
    values = [draw(log_uniform(0.1, 10.0))] + [draw(st.floats(0.0, 100.0)) for _ in range(n - 1)]
    return growth.from_table(np.cumsum(knots), np.cumsum(values))


SPECS = st.one_of(
    log_uniform(0.01, 10.0).map(growth.poly),
    log_uniform(0.01, 10.0).map(growth.exponential),
    log_uniform(0.1, 10.0).map(growth.logarithmic),
    log_uniform(0.1, 10.0).map(growth.constant),
    tables(),
)


def _finite_or_none(*values):
    return all(v is None or math.isfinite(v) for v in values)


def _certificate_is_finite(cert):
    return _finite_or_none(cert.t, cert.epsilon, cert.R_star, cert.N, cert.implied_floor,
                           cert.rate_comparison, cert.prescribed_R, cert.prescribed_N)


def _call(fn, *args, **kwargs):
    """fn's value, or None where it raised a TauberlabError; any other
    exception propagates, and any warning fails the test."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args, **kwargs)
        except TauberlabError:
            value = None
    assert not caught, [str(w.message) for w in caught]
    return value


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(m=SPECS, t=log_uniform(1.0, 1e12), R=log_uniform(1.0, 1e6), derivative=st.booleans())
def test_every_growth_spec_gives_finite_values_or_a_package_error(m, t, R, derivative):
    # the derivative curve reads c = 1 + 1/beta from a declared lower envelope
    has_lower = m.envelope is not None and m.envelope.has_lower()
    variant = "derivative" if derivative and has_lower else "plain"
    for f in (m, growth.m_log(m)):
        s = _call(growth.right_inverse, f, t)
        assert s is None or (math.isfinite(s) and s >= 0.0)
    bound = _call(witness.bound_rhs, m, R, t, EPS1, variant)
    if bound is not None:  # +inf is the declared overflow sentinel
        assert bound[0] > 0.0 and not math.isnan(bound[0]) and isinstance(bound[1], bool)
    cert = _call(witness.optimize_R, m, t, EPS1, variant=variant)
    assert cert is None or _certificate_is_finite(cert)
    curve = _call(witness.sharpness_curve, m, [t, 2.0 * t], EPS1, variant=variant)
    if curve is not None:
        assert all(_certificate_is_finite(c) for c in curve.certificates)
        # a NaN ratio marks a t without a rate comparison; the band spans the rest
        assert not np.any(np.isinf(curve.ratios))
        assert math.isfinite(curve.band_ratio) == bool(np.any(np.isfinite(curve.ratios)))
