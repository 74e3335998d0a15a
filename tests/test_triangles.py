from itertools import permutations

import pytest

from arnold.laurent import LaurentPoly
from arnold.triangles import (
    arnold_hoffman,
    arnold_numbers,
    check_hoffman_identities,
    entringer,
    euler_numbers,
    hoffman_pq,
)

TABLE1 = {
    1: ([1], [1]),
    2: ([0, 1], [1, 2]),
    3: ([0, 2, 3], [3, 4, 4]),
    4: ([0, 4, 8, 11], [11, 14, 16, 16]),
    5: ([0, 16, 32, 46, 57], [57, 68, 76, 80, 80]),
}


class TestEntringer:
    def test_base(self):
        assert entringer(1) == [(1,)]

    def test_row_four(self):
        assert entringer(4)[3] == (0, 1, 2, 2)

    def test_row_five_sum(self):
        assert sum(entringer(5)[4]) == 16

    def test_row_sums_are_euler_numbers(self):
        assert euler_numbers(8) == [1, 1, 2, 5, 16, 61, 272, 1385]

    def test_against_alternating_count_oracle(self):
        # brute enumeration of first-entry counts of down-up permutations
        for n in range(1, 7):
            row = entringer(n)[n - 1]
            for k in range(1, n + 1):
                count = sum(
                    1
                    for p in permutations(range(1, n + 1))
                    if p[0] == k
                    and all(
                        (p[i] > p[i + 1]) if i % 2 == 0 else (p[i] < p[i + 1])
                        for i in range(n - 1)
                    )
                )
                assert row[k - 1] == count

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            entringer(0)


class TestArnoldNumbers:
    def test_table_rows(self):
        rows = arnold_numbers(5)
        for row in rows:
            neg, pos = TABLE1[row.n]
            assert list(row.neg) == neg
            assert list(row.pos) == pos

    def test_top_negative_entry_is_zero(self):
        assert arnold_numbers(2)[1].value(-2) == 0

    def test_row_sums(self):
        rows = arnold_numbers(5)
        assert [sum(r.pos) for r in rows] == [1, 3, 11, 57, 361]
        assert [sum(r.neg) for r in rows] == [1, 1, 5, 23, 151]

    def test_value_indexing(self):
        row = arnold_numbers(3)[2]
        assert row.value(-1) == 3
        with pytest.raises(IndexError):
            row.value(0)
        with pytest.raises(IndexError):
            row.value(4)


class TestArnoldHoffman:
    def test_spot_values(self):
        rows = arnold_hoffman(5)
        assert rows[3].value(-3) == LaurentPoly({1: 2, 3: 2})
        assert rows[4].value(1) == LaurentPoly({2: 5, 4: 28, 6: 24})
        assert rows[1].value(2) == LaurentPoly({1: 1, 3: 1})
        assert rows[4].value(-2) == LaurentPoly({0: 5, 2: 23, 4: 18})

    def test_specializes_to_numbers(self):
        polys = arnold_hoffman(10)
        nums = arnold_numbers(10)
        for prow, nrow in zip(polys, nums):
            for k, poly in prow.entries():
                assert poly(1) == nrow.value(k)

    def test_exponents_nonnegative_with_row_parity(self):
        for row in arnold_hoffman(12):
            for _, poly in row.entries():
                for e in poly.exponents():
                    assert e >= 0
                    assert e % 2 == (row.n + 1) % 2

    def test_last_two_positive_entries_agree(self):
        # forced by the zero top entry of the previous row, so from n = 3 on
        for row in arnold_hoffman(8):
            if row.n >= 3:
                assert row.value(row.n) == row.value(row.n - 1)


class TestHoffmanPolynomials:
    def test_seeds(self):
        p1, q1 = hoffman_pq(1)[0]
        assert p1 == LaurentPoly({0: 1, 2: 1})
        assert q1 == LaurentPoly({1: 1})

    def test_third_derivatives(self):
        p3, q3 = hoffman_pq(3)[2]
        assert p3 == LaurentPoly({0: 2, 2: 8, 4: 6})
        assert q3 == LaurentPoly({1: 5, 3: 6})

    def test_q3_against_triangle_oracle(self):
        # independent route: one t-division of the positive-side row sum
        row3 = arnold_hoffman(3)[2]
        total = LaurentPoly.zero()
        for v in row3.pos:
            total = total + v
        assert hoffman_pq(3)[2][1] == total.shifted(-1)

    def test_identities_hold_to_ten(self):
        reports = check_hoffman_identities(10)
        assert all(r.ok for r in reports)
        assert reports[0].q_side_ok and reports[0].p_side_ok

    def test_row_three_positive_sum(self):
        row3 = arnold_hoffman(3)[2]
        total = LaurentPoly.zero()
        for v in row3.pos:
            total = total + v
        assert total == LaurentPoly({2: 5, 4: 6})


def test_overflow_refuses_large_rows():
    with pytest.raises(OverflowError):
        entringer(30)
    with pytest.raises(OverflowError):
        arnold_numbers(30)


@pytest.mark.parametrize(
    "fn, first_bad, message",
    [
        (entringer, 25, "triangle entry 9567364332938481664 exceeds 64-bit range"),
        (euler_numbers, 24, "triangle entry 9520846272267777721 exceeds 64-bit range"),
        (arnold_numbers, 20, "triangle entry 9389266118137054976 exceeds 64-bit range"),
        (arnold_hoffman, 21, "coefficient 11633834560661913600 exceeds 64-bit range"),
        (hoffman_pq, 20, "coefficient 26444634532872192000 exceeds 64-bit range"),
        (check_hoffman_identities, 20, "coefficient 26444634532872192000 exceeds 64-bit range"),
    ],
)
def test_first_overflowing_row_and_its_message(fn, first_bad, message):
    fn(first_bad - 1)
    with pytest.raises(OverflowError) as exc:
        fn(first_bad)
    assert str(exc.value) == message
