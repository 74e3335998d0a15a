import pytest

from arnold.laurent import INT64_MAX, LaurentPoly


def test_zero_coefficients_are_dropped():
    assert LaurentPoly({0: 0, 2: 1}) == LaurentPoly({2: 1})
    assert LaurentPoly().is_zero
    assert not LaurentPoly({1: 1}).is_zero


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


def test_str_forms():
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({2: 1})) == "t^2"
    assert str(LaurentPoly({0: 5, 2: 28, 4: 24})) == "5 + 28t^2 + 24t^4"
    assert str(LaurentPoly({-1: 1, 1: 2})) == "t^-1 + 2t"


def test_hashable():
    assert len({LaurentPoly({2: 1}), LaurentPoly({2: 1}), LaurentPoly({1: 1})}) == 2
