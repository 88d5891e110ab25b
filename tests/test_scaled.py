import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from struveint.scaled import ScaledReal

finite = st.floats(
    min_value=1e-280, max_value=1e280, allow_nan=False, allow_infinity=False
)
signed = st.one_of(finite, finite.map(lambda v: -v))
# pairs whose product/ratio stays inside double range
moderate = st.floats(
    min_value=1e-140, max_value=1e140, allow_nan=False, allow_infinity=False
)
signed_moderate = st.one_of(moderate, moderate.map(lambda v: -v))


def test_zero_canonical():
    z = ScaledReal.zero()
    assert z.is_zero and z.mantissa == 0.0 and z.exponent == 0.0
    assert z.to_float() == 0.0
    assert ScaledReal.from_float(0.0).is_zero
    # zero products, quotients and a negative zero normalize to the one +0.0 zero
    x = ScaledReal.from_float(-3.5)
    for value in (z * x, x * z, z / x, ScaledReal.from_float(-0.0)):
        assert value == ScaledReal(0.0, 0.0)
        assert value.mantissa.hex() == "0x0.0p+0" and value.exponent.hex() == "0x0.0p+0"


@given(signed)
def test_from_float_round_trip(v):
    s = ScaledReal.from_float(v)
    assert math.isclose(s.to_float(), v, rel_tol=1e-14)


@given(signed)
def test_normalized_form(v):
    s = ScaledReal.from_float(v)
    assert 1.0 <= abs(s.mantissa) < math.e
    assert s.exponent == round(s.exponent)  # integer-valued exponent


@given(signed_moderate, signed_moderate)
@settings(max_examples=200)
def test_mul_matches_floats(a, b):
    got = (ScaledReal.from_float(a) * ScaledReal.from_float(b)).to_float()
    assert math.isclose(got, a * b, rel_tol=1e-13)


# from_float rounds each input's base-e mantissa, v = m e^k, so a sum or
# difference carries a few units of 2^-52 in |a| + |b|: all of a
# near-cancelling result.  On 200,000 draws, half of them near-cancelling, the
# worst was 2.5 units (5.5e-16 (|a| + |b|)).
ADD_ROUNDING_UNITS = 4


@given(signed, signed)
@settings(max_examples=200)
@example(1e-280, -1.0000000000000001e-280)
@example(1e-280, 1.0000000000000001e-280)
def test_add_sub_match_floats(a, b):
    sa, sb = ScaledReal.from_float(a), ScaledReal.from_float(b)
    slack = ADD_ROUNDING_UNITS * 2.0**-52 * (abs(a) + abs(b))
    for got, want in (((sa + sb).to_float(), a + b), ((sa - sb).to_float(), a - b)):
        if want == 0.0:
            assert abs(got) <= 1e-13 * max(abs(a), abs(b))
        else:
            assert abs(got - want) <= 1e-12 * abs(want) + slack, (got, want)


@given(signed_moderate, signed_moderate)
def test_ratio_and_div(a, b):
    sa, sb = ScaledReal.from_float(a), ScaledReal.from_float(b)
    assert math.isclose(sa.ratio_to(sb), a / b, rel_tol=1e-13)
    assert math.isclose((sa / sb).to_float(), a / b, rel_tol=1e-13)


@given(st.floats(min_value=-600000.0, max_value=600000.0))
def test_from_log_consistency(lv):
    s = ScaledReal.from_log(lv)
    assert math.isclose(s.log_abs(), lv, rel_tol=1e-13, abs_tol=1e-10)
    assert 1.0 <= s.mantissa < math.e


def test_from_log_negative_sign():
    s = ScaledReal.from_log(2.0, sign=-1.0)
    assert s.sign == -1.0
    assert math.isclose(s.to_float(), -math.exp(2.0), rel_tol=1e-14)


def test_overflow_to_float():
    big = ScaledReal.from_log(1000.0)
    with pytest.raises(OverflowError):
        big.to_float()
    # but arithmetic above double range stays usable
    ratio = (big * big) / ScaledReal.from_log(1995.0)
    assert math.isclose(ratio.to_float(), math.exp(5.0), rel_tol=1e-12)


def test_to_float_overflow_edge():
    # ln of the largest double is 709.7827...; from_log(709.9) has exponent 709
    # and a mantissa above e^0.78, so the product overflows past the exponent
    # check and must raise rather than return inf
    below = ScaledReal.from_log(709.78)
    assert math.isfinite(below.to_float())
    assert math.isclose(below.to_float(), math.exp(709.78), rel_tol=1e-13)
    assert math.isclose(
        ScaledReal.from_log(709.78, sign=-1.0).to_float(), -math.exp(709.78), rel_tol=1e-13
    )
    for lv in (709.79, 709.9, 709.999):
        with pytest.raises(OverflowError):
            ScaledReal.from_log(lv).to_float()
        with pytest.raises(OverflowError):
            ScaledReal.from_log(lv, sign=-1.0).to_float()


def test_underflow_to_zero():
    tiny = ScaledReal.from_log(-1e5)
    assert tiny.to_float() == 0.0
    assert not tiny.is_zero  # representation keeps the magnitude


def test_add_with_huge_exponent_gap():
    a = ScaledReal.from_log(500.0)
    b = ScaledReal.from_log(-500.0)
    assert (a + b).log_abs() == pytest.approx(500.0)


def test_cancellation_to_zero():
    a = ScaledReal.from_float(3.0)
    assert (a - a).is_zero


def test_ordering():
    a, b = ScaledReal.from_float(2.0), ScaledReal.from_float(3.0)
    assert a < b and b > a and a <= a and b >= b
    assert ScaledReal.from_float(-5.0) < a


def test_scale_by_zero_and_division_by_zero():
    a = ScaledReal.from_float(4.0)
    assert a.scale(0.0).is_zero
    with pytest.raises(ZeroDivisionError):
        a / ScaledReal.zero()
    with pytest.raises(ZeroDivisionError):
        a.ratio_to(ScaledReal.zero())


def test_non_finite_rejected():
    with pytest.raises(OverflowError):
        ScaledReal.from_float(math.inf) * ScaledReal.from_float(2.0)


@pytest.mark.parametrize("k", (-700.0, -2.0, -1.0, 0.0, 1.0, 3.0, 700.0))
def test_from_log_normal_form_at_integer_edges(k):
    # exp of a fraction within an ulp of 1 rounds to e; the mantissa must
    # still land in [1, e) with an integer exponent
    edges = (k, math.nextafter(k, -math.inf), math.nextafter(k, math.inf),
             math.nextafter(k + 1.0, -math.inf))
    for lv in edges:
        for sign in (1.0, -1.0):
            s = ScaledReal.from_log(lv, sign=sign)
            assert 1.0 <= abs(s.mantissa) < math.e, (lv, s)
            assert s.exponent == round(s.exponent)
            assert math.copysign(1.0, s.mantissa) == sign
            assert math.isclose(s.log_abs(), lv, rel_tol=1e-15, abs_tol=1e-15)


def test_from_log_rejects_inf_and_nan():
    assert ScaledReal.from_log(-math.inf).is_zero
    with pytest.raises(OverflowError):
        ScaledReal.from_log(math.inf)
    with pytest.raises(ValueError):
        ScaledReal.from_log(math.nan)


def test_ratio_to_overflow_edge():
    # a gap of 709 passes the exponent check; with a mantissa ratio above
    # e^0.78 the quotient overflows and must raise rather than return inf
    one = ScaledReal.from_log(0.0)
    assert math.isclose(
        ScaledReal.from_log(709.0).ratio_to(one), math.exp(709.0), rel_tol=1e-13
    )
    assert math.isclose(
        ScaledReal.from_log(1000.0).ratio_to(ScaledReal.from_log(291.0)),
        math.exp(709.0),
        rel_tol=1e-12,
    )
    for num, den in ((709.9, 0.0), (1000.9, 291.0)):
        for sign in (1.0, -1.0):
            with pytest.raises(OverflowError):
                ScaledReal.from_log(num, sign=sign).ratio_to(ScaledReal.from_log(den))


def _from_log_by_init(log_value, sign):
    # from_log's arithmetic with the instance built by the public constructor
    if log_value == -math.inf:
        return ScaledReal(0.0, 0.0)
    k = math.floor(log_value)
    m = math.exp(log_value - k)
    if m >= math.e:
        m /= math.e
        k += 1
    return ScaledReal(math.copysign(m, sign), float(k))


_below_integers = st.integers(-1_000_000, 1_000_000).map(
    lambda k: math.nextafter(float(k), -math.inf)
)
# a fraction within an ulp of 1 rounds exp up to e: the m >= e branch
_tiny_negative = st.floats(min_value=-(2.0**-52), max_value=-5e-324)


@settings(max_examples=300)
@given(
    st.one_of(
        st.just(-math.inf),
        st.floats(min_value=-1e6, max_value=1e6),
        _below_integers,
        _tiny_negative,
    ),
    st.sampled_from((1.0, -1.0)),
)
@example(-math.inf, -1.0)
@example(-1e-300, 1.0)
@example(math.nextafter(1.0, -math.inf), -1.0)
def test_from_log_matches_public_constructor(lv, sign):
    built = ScaledReal.from_log(lv, sign)
    expected = _from_log_by_init(lv, sign)
    assert type(built) is ScaledReal
    assert built.mantissa.hex() == expected.mantissa.hex()
    assert built.exponent.hex() == expected.exponent.hex()
    assert built == expected
    assert hash(built) == hash(expected)


@pytest.mark.parametrize(
    "value",
    (
        ScaledReal(1.5, -3.0),
        ScaledReal.from_log(-1e-300, -1.0),
        ScaledReal.from_log(-math.inf),
        ScaledReal.from_float(2.0) * ScaledReal.from_float(3.0),
        ScaledReal.zero(),
    ),
)
def test_scaled_real_stays_frozen(value):
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.mantissa = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.exponent = 1.0
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize(
    "value",
    (
        ScaledReal(-1.5, 3.0),
        ScaledReal.from_log(1234.5, -1.0),
        ScaledReal.from_log(-math.inf),
        ScaledReal.from_float(2.0) * ScaledReal.from_float(3.0),
        ScaledReal.zero(),
    ),
)
def test_scaled_real_copy_and_pickle_round_trip(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert type(twin) is ScaledReal
        assert (twin.mantissa, twin.exponent) == (value.mantissa, value.exponent)
        assert twin == value and hash(twin) == hash(value)


def test_scaled_real_is_no_tuple():
    value = ScaledReal(1.0, 0.0)
    assert value != (1.0, 0.0) and (1.0, 0.0) != value
    assert ScaledReal.__match_args__ == ("mantissa", "exponent")
    match value:
        case ScaledReal(m, e):
            assert (m, e) == (1.0, 0.0)
    with pytest.raises(TypeError):
        len(value)
    with pytest.raises(TypeError):
        iter(value)


def test_scaled_real_fields_cannot_be_deleted():
    value = ScaledReal(1.5, -3.0)
    for name in ("mantissa", "exponent"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert (value.mantissa, value.exponent) == (1.5, -3.0)


@pytest.mark.parametrize("k", (-700.0, -2.0, -1.0, 0.0, 1.0, 2.0, 700.0))
def test_normalized_form_near_powers_of_e(k):
    # floor(ln |v|) one too low leaves |m| at e (v = 0.3678794411714423 on
    # CPython 3.11 / glibc), one too high leaves it below 1: both corrected
    for sign in (1.0, -1.0):
        v = sign * math.exp(k)
        lower, higher = math.nextafter(v, 0.0), math.nextafter(v, 2.0 * v)
        for u in (math.nextafter(lower, 0.0), lower, v, higher, math.nextafter(higher, 2.0 * v)):
            s = ScaledReal.from_float(u)
            assert 1.0 <= abs(s.mantissa) < math.e, (u, s)
            assert s.exponent == round(s.exponent)
            assert math.copysign(1.0, s.mantissa) == sign
            assert math.isclose(s.log_abs(), math.log(abs(u)), rel_tol=1e-15, abs_tol=1e-15)


def test_zero_and_range_branches():
    zero, a = ScaledReal.zero(), ScaledReal.from_float(-3.0)
    assert zero.log_abs() == -math.inf
    assert (a + zero) is a and (zero + a) is a
    negated = -zero
    assert negated.is_zero and negated.mantissa.hex() == "0x0.0p+0"
    # exact cancellation gives the canonical zero
    total = a + ScaledReal.from_float(3.0)
    assert total == ScaledReal(0.0, 0.0) and total.mantissa.hex() == "0x0.0p+0"
    # an operand more than e^746 smaller is dropped: the larger comes back
    big, small = ScaledReal.from_log(500.0, -1.0), ScaledReal.from_log(-300.0)
    assert (big + small) is big and (small + big) is big
    assert (small - big).log_abs() == big.log_abs()
    # ratio_to: a zero numerator, a signed zero below e^-746, overflow past e^709.78
    assert zero.ratio_to(a) == 0.0
    tiny = ScaledReal.from_log(-400.0).ratio_to(ScaledReal.from_log(400.0, -1.0))
    assert tiny == 0.0 and math.copysign(1.0, tiny) == -1.0
    assert math.copysign(1.0, small.ratio_to(-big)) == 1.0
    with pytest.raises(OverflowError, match="ratio exceeds double range"):
        ScaledReal.from_log(400.0).ratio_to(ScaledReal.from_log(-400.0))
