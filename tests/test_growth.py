"""Growth-function calculus: constructors, rate augmentation, right inverses,
and the regular-growth self-consistency check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberlab import cli, growth
from tauberlab.errors import ConfigurationError, DomainError


def test_poly_values_and_m0():
    m = growth.poly(2.0)
    assert m(0.0) == 1.0
    assert m(2.0) == 9.0
    assert m.m0 == 1.0
    got = m(np.array([0.0, 1.0, 3.0]))
    assert np.array_equal(got, np.array([1.0, 4.0, 16.0]))


def test_m0_is_evaluated_once_per_growth_function(monkeypatch):
    seen = []
    call = growth.GrowthFunction.__call__
    monkeypatch.setattr(growth.GrowthFunction, "__call__",
                        lambda self, s: seen.append(s) or call(self, s))
    m = growth.poly(2.0)
    assert [m.m0, m.m0, m.m0] == [1.0, 1.0, 1.0]
    assert seen == [0.0]
    assert growth.poly(3.0).m0 == 1.0  # another growth function evaluates its own
    assert seen == [0.0, 0.0]


@pytest.mark.parametrize(
    "m",
    [growth.poly(2.7), growth.exponential(3.0), growth.constant(2.5), growth.logarithmic(1.5)],
    ids=lambda m: m.kind,
)
def test_scalar_call_matches_array_call(m):
    # a Python float skips the array round trip; its value must not change.
    # It is the 0-d array value bit for bit.  A 1-element array agrees bit for
    # bit too, except that numpy's vectorised power may differ from the C
    # library's pow (which 0-d and Python floats use) by one ulp
    ulps = 1 if m.kind == "poly" else 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in [0.0, 1e-3, 0.5, 3.7, 27.559113243068367, 123.456, 1e5, 1e200, 1e300]:
            got = m(s)
            assert type(got) is float
            assert got.hex() == m(np.array(s)).hex() == m(np.float64(s)).hex()
            one = float(m(np.array([s]))[0])
            assert abs(got - one) <= ulps * np.spacing(one) or got == one == math.inf
    if m.kind in ("poly", "exp"):
        assert m(1e300) == math.inf  # overflow is inf, silently


_POWER_POINTS = [0.0, 1e-3, 0.5, 3.7, 27.559113243068367, 123.456, 1e5, 1e100]


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.15, 2.0, 2.7, 7.3])
def test_scalar_poly_is_the_python_float_power(beta):
    m = growth.poly(beta)
    for s in _POWER_POINTS:
        try:
            expect = (1.0 + s) ** beta
        except OverflowError:
            expect = math.inf
        assert m(s).hex() == expect.hex()


def test_scalar_overflow_is_inf_without_a_warning():
    # poly's Python float power overflows by raising; exp's numpy exp under
    # the call's own errstate.  Neither warns, even with every numpy error
    # raised outside the call
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert growth.poly(2.0)(1e300) == math.inf
        assert growth.poly(150.0)(1e3) == math.inf
        assert growth.parse_growth_spec("exp:alpha=1")(1e3) == math.inf
        assert growth.m_log(growth.poly(2.0))(1e300) == math.inf


def test_scalar_poly_enters_no_errstate(monkeypatch):
    entered = []
    errstate = growth.np.errstate

    def counted(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(growth.np, "errstate", counted)
    m = growth.poly(2.0)
    for s in _POWER_POINTS + [1e300]:
        m(s)
    assert entered == []
    growth.exponential(1.0)(3.7)  # a kind whose fn calls numpy enters it once
    assert entered == [{"over": "ignore"}]


def test_negative_argument_rejected():
    m = growth.poly(2.0)
    with pytest.raises(DomainError):
        m(-0.5)
    with pytest.raises(DomainError):
        m(np.array([1.0, -1e-9]))
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(DomainError):
            m(bad)


def test_constructor_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            growth.poly(bad)
        with pytest.raises(DomainError):
            growth.exponential(bad)
        with pytest.raises(DomainError):
            growth.constant(bad)
        with pytest.raises(DomainError):
            growth.logarithmic(bad)


def test_poly_envelope_constant_in_log_space():
    # beta**beta alone overflows above beta ~ 143; the constant itself near 178
    c = growth.poly(150.0).envelope.C
    assert c == pytest.approx(math.exp(150.0 * math.log(150.0) - 149.0), rel=1e-12)
    with pytest.raises(DomainError):
        growth.poly(1e300)


@pytest.mark.parametrize(
    "spec",
    ["poly:beta=inf", "poly:beta=nan", "exp:alpha=inf", "const:m0=inf", "log:m0=nan",
     "poly:beta=1e300"],
)
def test_non_finite_growth_spec_exits_2(spec, capsys):
    with pytest.raises(ConfigurationError):
        growth.parse_growth_spec(spec)
    assert cli.main(["rate", "--m", spec, "--t", "1000"]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_envelopes_declared():
    m = growth.poly(2.0)
    assert m.envelope.has_lower() and m.envelope.C > 0  # both sides declared
    assert m.envelope.beta == 2.0 and m.envelope.alpha == 1.0
    e = growth.exponential(0.5)
    assert not e.envelope.has_lower()
    assert e.envelope.alpha == 0.5
    assert growth.lower_rate_constant(m) == 1.5  # c = 1 + 1/beta
    assert growth.lower_rate_constant(e) is None


def test_m_log_closed_form():
    m = growth.poly(2.0)
    rate = growth.m_log(m)
    s = 10.7
    expect = (1 + s) ** 2 * (math.log(1 + s) + math.log(1 + (1 + s) ** 2))
    assert rate(s) == pytest.approx(expect, rel=1e-15)
    assert rate(1000.0) == pytest.approx(20767738.592885394, rel=1e-15)


def test_two_function_rate_matches_single_bitwise():
    m = growth.poly(2.0)
    ss = np.geomspace(1e-3, 1e6, 1000)
    assert np.array_equal(growth.m_k(m, m)(ss), growth.m_log(m)(ss))


def test_right_inverse_pins():
    m = growth.poly(2.0)
    assert growth.right_inverse(m, 1000.0) == pytest.approx(30.622776601463556, rel=1e-13)
    rate = growth.m_log(m)
    assert growth.right_inverse(rate, 1000.0) == pytest.approx(10.64652740675956, rel=1e-13)
    assert growth.right_inverse(rate, 1e6) == pytest.approx(245.05832653865218, rel=1e-13)


def test_right_inverse_on_the_nose():
    m = growth.poly(2.0)
    rate = growth.m_log(m)
    for t in np.geomspace(10.0, 1e8, 50):
        s = growth.right_inverse(rate, t)
        assert t * (1 - 1e-6) <= rate(s) <= t


def test_right_inverse_below_range():
    from tauberlab.errors import BelowRangeError

    m = growth.poly(2.0)  # m(0) = 1, so t < 1 is below the attainable range
    with pytest.raises(BelowRangeError):
        growth.right_inverse(m, 0.5)
    assert growth.right_inverse(m, 1.0) == 0.0  # boundary target is attainable at s = 0


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(0.25, 4.0, allow_nan=False),
    t=st.floats(2.0, 1e5, allow_nan=False),
)
def test_right_inverse_never_overshoots(beta, t):
    rate = growth.m_log(growth.poly(beta))
    s = growth.right_inverse(rate, t)
    assert s >= 0.0
    assert rate(s) <= t  # right-inverse convention: never past the target


def test_right_inverse_bracket_cap():
    from tauberlab.errors import UnboundedSearchError

    # targets only attainable beyond s = 2**60 are refused rather than chased
    slow = growth.m_log(growth.poly(0.25))
    with pytest.raises(UnboundedSearchError):
        growth.right_inverse(slow, 1703480.0)


def test_regular_growth_check():
    m = growth.poly(2.0)
    grid = np.linspace(0.0, 100.0, 129)
    assert growth.check_regularly_growing(m, 0.45, grid).ok
    assert not growth.check_regularly_growing(m, 0.5, grid).ok
    with pytest.raises(DomainError):
        growth.check_regularly_growing(m, 1.0, grid)


def test_parse_growth_spec_roundtrip():
    m = growth.parse_growth_spec("poly:beta=2")
    assert m.label == "poly:beta=2"
    assert m(1.0) == 4.0
    e = growth.parse_growth_spec("exp:alpha=0.25")
    assert e(4.0) == pytest.approx(math.e, rel=1e-15)
    c = growth.parse_growth_spec("const:m0=3")
    assert c(17.0) == 3.0
    lg = growth.parse_growth_spec("log:m0=1")
    assert lg(math.e - 1.0) == pytest.approx(2.0, rel=1e-15)


def test_parse_growth_spec_rejects_unknown():
    with pytest.raises(ConfigurationError):
        growth.parse_growth_spec("bogus:xyz")
    with pytest.raises(ConfigurationError):
        growth.parse_growth_spec("poly:gamma=2")


def test_from_table_interpolates_and_validates(tmp_path):
    s = np.array([0.0, 1.0, 2.0, 4.0])
    v = np.array([1.0, 2.0, 5.0, 30.0])
    m = growth.from_table(s, v)
    assert m(1.0) == 2.0
    assert m(1.5) == pytest.approx(3.5)
    assert m(10.0) >= m(4.0)  # extension beyond the table stays non-decreasing
    with pytest.raises(DomainError):
        growth.from_table(s, np.array([1.0, 2.0, 1.5, 30.0]))  # not non-decreasing
    with pytest.raises(DomainError):
        growth.from_table(s, np.array([1.0, 2.0, 5.0, math.inf]))  # not finite


def test_rate_params_validation():
    p = growth.RateParams(c=1.5, C_choice=1.0)
    assert p.c == 1.5
    with pytest.raises(DomainError):
        growth.RateParams(c=0.0, C_choice=1.0)
    with pytest.raises(DomainError):
        growth.RateParams(c=1.0, C_choice=-2.0)


def test_regular_growth_check_counts_an_overflowing_defect_as_a_violation():
    # (1 + s)^140 overflows for s above ~157: inf - c*inf is no verified defect
    grid = np.array([1.0, 10.0, 200.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = growth.check_regularly_growing(growth.poly(140.0), 0.45, grid)
    assert report.violations.tolist() == [200.0]


def test_array_domain_error_names_one_value_on_one_line():
    with pytest.raises(DomainError) as exc:
        growth.poly(2.0)(np.array([1.0, np.inf, -1.0] * 20))
    assert str(exc.value) == "growth functions are defined for finite s >= 0, got inf"
