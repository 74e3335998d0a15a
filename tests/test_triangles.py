from itertools import permutations

import pytest

from arnold.laurent import LaurentPoly
from arnold.triangles import (
    IdentityReport,
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


# Reference rebuild: each value is a plain exponent -> coefficient dict
# turned into a LaurentPoly by the validating public constructor only.

def _ref_sum(*polys):
    out = {}
    for poly in polys:
        for e, c in poly.items():
            out[e] = out.get(e, 0) + c
    return LaurentPoly(out)


def _ref_shift(poly, s):
    return LaurentPoly({e + s: c for e, c in poly.items()})


def _ref_times_sec2(poly):
    # (1 + t^2) * poly
    return _ref_sum(poly, _ref_shift(poly, 2))


def _ref_derivative(poly):
    return LaurentPoly({e - 1: c * e for e, c in poly.items()})


def _arnold_hoffman_reference(n_max):
    """Rows as {k: V_{n,k}}, straight from the recurrence in the docstring."""
    rows = [{-1: LaurentPoly({0: 1}), 1: LaurentPoly({2: 1})}]
    for n in range(2, n_max + 1):
        prev, v = rows[-1], {-n: LaurentPoly({})}
        for k in range(n - 1, 0, -1):
            v[-k] = _ref_sum(v[-k - 1], _ref_shift(prev[k], -1))
        v[1] = _ref_shift(v[-1], 2)
        for k in range(2, n + 1):
            v[k] = _ref_sum(v[k - 1], _ref_shift(prev[-k + 1], 1))
        rows.append(v)
    return rows


def _hoffman_pq_reference(n_max):
    pairs = [(LaurentPoly({0: 1, 2: 1}), LaurentPoly({1: 1}))]
    for _ in range(n_max - 1):
        p, q = pairs[-1]
        pairs.append(
            (
                _ref_times_sec2(_ref_derivative(p)),
                _ref_sum(_ref_times_sec2(_ref_derivative(q)), _ref_shift(q, 1)),
            )
        )
    return pairs


def _assert_same_poly(got, want):
    assert got.to_json_map() == want.to_json_map()
    assert got == want
    assert hash(got) == hash(want)


class TestAgainstConstructorRebuild:
    def test_arnold_hoffman_to_twenty(self):
        rows = arnold_hoffman(20)
        reference = _arnold_hoffman_reference(20)
        assert len(rows) == 20
        for row, want in zip(rows, reference):
            assert [k for k, _ in row.entries()] == sorted(want)
            for k, poly in row.entries():
                _assert_same_poly(poly, want[k])

    def test_hoffman_pq_to_nineteen(self):
        pairs = hoffman_pq(19)
        assert len(pairs) == 19
        for (p, q), (want_p, want_q) in zip(pairs, _hoffman_pq_reference(19)):
            _assert_same_poly(p, want_p)
            _assert_same_poly(q, want_q)

    def test_hoffman_identities_to_nineteen(self):
        want = []
        for n, (row, (p, q)) in enumerate(
            zip(_arnold_hoffman_reference(19), _hoffman_pq_reference(19)), start=1
        ):
            tq = _ref_shift(q, 1)
            pos_sum = _ref_sum(*(row[k] for k in range(1, n + 1)))
            neg_sum = _ref_sum(*(row[-k] for k in range(1, n + 1)))
            p_minus_tq = _ref_sum(p, LaurentPoly({e: -c for e, c in tq.items()}))
            want.append(IdentityReport(n, tq == pos_sum, p_minus_tq == neg_sum))
        assert check_hoffman_identities(19) == want
        assert all(r.ok for r in want)


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
