import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnold.laurent import INT64_MAX, INT64_MIN, LaurentPoly


def test_zero_coefficients_are_dropped():
    assert LaurentPoly({0: 0, 2: 1}) == LaurentPoly({2: 1})
    assert LaurentPoly().is_zero
    assert not LaurentPoly({1: 1}).is_zero
    assert not LaurentPoly({0: 0}) and LaurentPoly({-1: -1})


@pytest.mark.parametrize(
    "coeffs",
    [{0: 1.5}, {1.7: 2}, {0: 1.0}, {2.0: 1}, {0: True}, {0: "1"}, {"1": 1}],
)
def test_terms_that_are_not_ints_are_refused(coeffs):
    # 1.5 and 1.7 used to be truncated to 1 and t, which an exact table must not allow
    with pytest.raises(ValueError, match="needs an int exponent and an int coefficient"):
        LaurentPoly(coeffs)


@pytest.mark.parametrize("data", [{"0": 1.5}, {"1": "2"}, {"1.5": 1}])
def test_json_maps_with_non_int_terms_are_refused(data):
    with pytest.raises(ValueError):
        LaurentPoly.from_json_map(data)


def test_addition_and_subtraction():
    p = LaurentPoly({1: 1, 3: 1})
    q = LaurentPoly({1: -1, 2: 4})
    assert p + q == LaurentPoly({2: 4, 3: 1})
    assert p - p == LaurentPoly.zero()


def test_multiplication():
    p = LaurentPoly({0: 1, 2: 1})  # 1 + t^2
    assert p * p == LaurentPoly({0: 1, 2: 2, 4: 1})
    assert p * 3 == LaurentPoly({0: 3, 2: 3})
    assert 3 * p == p * 3


def test_shift_allows_negative_exponents():
    p = LaurentPoly({1: 2, 3: 5})
    assert p.shifted(-1) == LaurentPoly({0: 2, 2: 5})
    assert p.shifted(-2).exponents() == (-1, 1)


def test_derivative():
    p = LaurentPoly({0: 7, 1: 2, 3: 5})
    assert p.derivative() == LaurentPoly({0: 2, 2: 15})


def test_evaluation():
    p = LaurentPoly({0: 1, 2: 2})
    assert p(1) == 3
    assert p(2) == 9
    with pytest.raises(ValueError):
        LaurentPoly({-1: 1})(2)


def test_overflow_is_an_error():
    big = LaurentPoly({0: INT64_MAX})
    with pytest.raises(OverflowError):
        big + LaurentPoly({0: 1})
    with pytest.raises(OverflowError):
        big * 2


def test_overflowing_sum_names_the_coefficient():
    half = LaurentPoly({0: 2**62})
    with pytest.raises(OverflowError, match=r"^coefficient 9223372036854775808 exceeds 64-bit range$"):
        half + half


def test_json_roundtrip():
    p = LaurentPoly({0: 1, 2: 1})
    assert p.to_json_map() == {"0": 1, "2": 1}
    assert LaurentPoly.from_json_map(p.to_json_map()) == p


def test_json_roundtrip_with_negative_exponents():
    p = LaurentPoly({-3: 2, -1: -1, 0: 5, 4: 1})
    assert p.to_json_map() == {"-3": 2, "-1": -1, "0": 5, "4": 1}
    assert LaurentPoly.from_json_map(p.to_json_map()) == p


@pytest.mark.parametrize(
    "data, message",
    [
        ([3, 1], "[3, 1] is not an exponent map"),
        ({"1_0": 3}, "exponent key '1_0' is not written as an int"),  # was read as 3t^10
        ({" 2": 1}, "exponent key ' 2' is not written as an int"),  # was read as t^2
        ({"3": 7, "03": 1}, "exponent key '03' is not written as an int"),  # one term was lost
        ({"-0": 1}, "exponent key '-0' is not written as an int"),
        ({"+1": 1}, "exponent key '+1' is not written as an int"),
        ({"--1": 1}, "exponent key '--1' is not written as an int"),
        ({1: 1}, "exponent key 1 is not written as an int"),
    ],
)
def test_json_maps_that_to_json_map_does_not_write_are_refused(data, message):
    with pytest.raises(ValueError) as info:
        LaurentPoly.from_json_map(data)
    assert str(info.value) == message


def test_str_forms():
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({2: 1})) == "t^2"
    assert str(LaurentPoly({0: 5, 2: 28, 4: 24})) == "5 + 28t^2 + 24t^4"
    assert str(LaurentPoly({-1: 1, 1: 2})) == "t^-1 + 2t"


def test_hashable():
    assert len({LaurentPoly({2: 1}), LaurentPoly({2: 1}), LaurentPoly({1: 1})}) == 2


def test_every_operation_names_its_overflowing_coefficient():
    cases = [
        (lambda: LaurentPoly({0: INT64_MIN}) - LaurentPoly({0: 1}), -(2**63) - 1),
        (lambda: LaurentPoly({2: 2**62}).derivative(), 2**63),
        (lambda: LaurentPoly({1: 2**32}) * LaurentPoly({1: 2**31}), 2**63),
        # two in-range products summed at t^1
        (lambda: LaurentPoly({0: 2**62, 1: 2**62}) * LaurentPoly({0: 1, 1: 1}), 2**63),
    ]
    for compute, value in cases:
        with pytest.raises(OverflowError, match=rf"^coefficient {value} exceeds 64-bit range$"):
            compute()


def test_evaluation_outcome_ignores_insertion_order():
    # INT64_MAX + 1 - 1: the running sum leaves the range in one order only
    for coeffs in ({2: -1, 1: 1, 0: INT64_MAX}, {0: INT64_MAX, 1: 1, 2: -1}):
        assert LaurentPoly(coeffs)(1) == INT64_MAX


def test_product_outcome_ignores_insertion_order():
    # the t^0 coefficient is INT64_MAX + 1 - 1 in either order of its terms
    right = LaurentPoly({0: INT64_MAX, -5: 1, -9: -1})
    for left in ({9: 1, 5: 1, 0: 1}, {0: 1, 5: 1, 9: 1}):
        product = LaurentPoly(left) * right
        assert product.to_json_map() == {
            "-9": -1, "-5": 1, "-4": -1, "0": INT64_MAX, "4": 1, "5": INT64_MAX, "9": INT64_MAX
        }


def test_difference_is_checked_not_the_negated_operand():
    # -1 - (-2^63) fits, although -(-2^63) alone would not
    assert LaurentPoly({0: -1}) - LaurentPoly({0: INT64_MIN}) == LaurentPoly({0: INT64_MAX})


def test_cancelled_terms_leave_no_trace():
    p = LaurentPoly({-1: 3, 0: INT64_MAX, 4: -2})
    assert (p - p).is_zero
    assert hash(p - p) == hash(LaurentPoly())
    assert (p + p * -1).to_json_map() == {}
    assert (p * 0).is_zero
    product = LaurentPoly({0: 1, 1: 1}) * LaurentPoly({0: 1, 1: -1})
    assert product.to_json_map() == {"0": 1, "2": -1}
    assert (p + LaurentPoly({0: -INT64_MAX, 1: 5})).to_json_map() == {"-1": 3, "1": 5, "4": -2}


def test_repr_lists_exponents_in_order():
    a, b = LaurentPoly({2: 1, 0: 3}), LaurentPoly({5: 1, -1: 2})
    assert repr(a) == "LaurentPoly({0: 3, 2: 1})"
    assert repr(a + b) == repr(b + a) == "LaurentPoly({-1: 2, 0: 3, 2: 1, 5: 1})"


# Reference arithmetic: the plain formulas on exponent -> coefficient dicts,
# every result rebuilt through the validating constructor.

def _check(value):
    if not INT64_MIN <= value <= INT64_MAX:
        raise OverflowError(value)
    return value


def _ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return LaurentPoly(out)


# The product and evaluation check each term and the finished result, not
# their running sums.

def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + _check(c1 * c2)
    return LaurentPoly(out)


def _ref_eval(p, t):
    if any(e < 0 for e in p):
        raise ValueError(min(p))
    return _check(sum(_check(c * t**e) for e, c in p.items()))


def _outcome(compute):
    try:
        return compute()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_same(compute, reference):
    got, want = _outcome(compute), _outcome(reference)
    if isinstance(want, LaurentPoly):
        assert isinstance(got, LaurentPoly)
        assert got.to_json_map() == want.to_json_map()
        assert got == want
        assert hash(got) == hash(want)
    else:
        assert got == want


_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.integers(INT64_MAX - 3, INT64_MAX),
    st.integers(INT64_MIN, INT64_MIN + 3),
    st.integers(2**62 - 2, 2**62 + 2),
    st.integers(-(2**62) - 2, -(2**62) + 2),
    st.integers(-(2**33), 2**33),
)
_DICTS = st.dictionaries(st.integers(-3, 5), _COEFFS.filter(bool), max_size=5)


@settings(max_examples=300, deadline=None)
@given(p=_DICTS, q=_DICTS, k=_COEFFS, shift=st.integers(-4, 4), t=st.integers(-3, 3))
def test_operations_match_the_reference_formulas(p, q, k, shift, t):
    a, b = LaurentPoly(p), LaurentPoly(q)
    _assert_same(lambda: a + b, lambda: _ref_add(p, q))
    # the difference itself is range-checked, not the negated operand
    _assert_same(lambda: a - b, lambda: _ref_add(p, q, -1))
    _assert_same(lambda: (a - b) + b, lambda: _ref_add(dict(_ref_add(p, q, -1).items()), q))
    scaled = {e: c * k for e, c in p.items()}
    _assert_same(lambda: a * k, lambda: LaurentPoly(scaled))
    _assert_same(lambda: k * a, lambda: LaurentPoly(scaled))
    _assert_same(lambda: a * b, lambda: _ref_mul(p, q))
    moved = {e + shift: c for e, c in p.items()}
    _assert_same(lambda: a.shifted(shift), lambda: LaurentPoly(moved))
    _assert_same(a.derivative, lambda: LaurentPoly({e - 1: c * e for e, c in p.items()}))
    _assert_same(lambda: a(t), lambda: _ref_eval(p, t))
