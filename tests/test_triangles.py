import random
import threading
import time
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arnold import triangles
from arnold.laurent import INT64_MAX, LaurentPoly
from arnold.triangles import (
    ArnoldRow,
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

    def test_every_positive_entry_reaches_t_to_the_n_plus_one(self):
        for row in arnold_hoffman(20):
            assert all(max(v.exponents()) == row.n + 1 for v in row.pos)
            assert all(max(v.exponents(), default=0) <= row.n + 1 for v in row.neg)

    @pytest.mark.parametrize("side", ["neg", "pos"])
    @pytest.mark.parametrize("over", [0, 1])
    def test_a_grown_coefficient_may_reach_int64_max_and_no_further(self, monkeypatch, side, over):
        # a made-up row 2 whose step sums INT64_MAX - 1 and 1 + over into
        # one coefficient of row 3, on the negative or the positive side
        below, top, zero = LaurentPoly({1: INT64_MAX - 1}), LaurentPoly({1: 1 + over}), LaurentPoly()
        row2 = ArnoldRow(2, (zero, zero), (below, top)) if side == "neg" else ArnoldRow(2, (top, below), (zero, zero))
        monkeypatch.setattr(triangles, "_hoffman_rows", [triangles._hoffman_rows[0], row2])
        if over:
            for _ in range(2):
                with pytest.raises(OverflowError) as exc:
                    arnold_hoffman(3)
                assert str(exc.value) == f"coefficient {INT64_MAX + 1} exceeds 64-bit range"
            assert len(triangles._hoffman_rows) == 2
        else:
            row3 = arnold_hoffman(3)[2]
            assert getattr(row3, side)[-1] == LaurentPoly({0 if side == "neg" else 2: INT64_MAX})

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
        want = _reference_reports(19, _hoffman_pq_reference(19))
        assert check_hoffman_identities(19) == want
        assert all(r.ok for r in want)


def _reference_reports(n_max, pairs):
    """IdentityReports from the reference rows and the given (P_n, Q_n)."""
    want = []
    for n, (row, (p, q)) in enumerate(zip(_arnold_hoffman_reference(n_max), pairs), start=1):
        tq = _ref_shift(q, 1)
        pos_sum = _ref_sum(*(row[k] for k in range(1, n + 1)))
        neg_sum = _ref_sum(*(row[-k] for k in range(1, n + 1)))
        p_minus_tq = _ref_sum(p, LaurentPoly({e: -c for e, c in tq.items()}))
        want.append(IdentityReport(n, tq == pos_sum, p_minus_tq == neg_sum))
    return want


class TestPerturbedIdentities:
    """A pair that differs from the true one must be compared with the row
    sums, which must see a change of a coefficient of P_n, of Q_n or of
    both, whichever way it moves a coefficient of P_n - t*Q_n."""

    @pytest.mark.parametrize(
        "side, bump, want",
        [
            # P_4 = 16t + 40t^3 + 24t^5 and Q_4 = 5 + 28t^2 + 24t^4
            ("p", {1: 1}, (True, False)),
            ("p", {0: 1}, (True, False)),  # an exponent P_4 lacks
            ("p", {4: -1}, (True, False)),  # P_4 - t*Q_4 gets a negative coefficient
            ("q", {1: 1}, (False, False)),  # t*Q_4 gains t^2: a negative coefficient
            ("q", {4: -1}, (False, False)),
            # (P_4 bump, Q_4 bump): t*Q_4 and P_4 both gain 2t^3, so P_4 - t*Q_4 is unchanged
            ("both", ({3: 2}, {2: 2}), (False, True)),
            ("both", ({0: 1}, {0: 1}), (False, False)),  # P_4 - t*Q_4 gains 1 - t
            # exponents below the rows': t*Q_4 gains t^-2, P_4 - t*Q_4 gains t^-2
            ("q", {-3: 1}, (False, False)),
            ("p", {-2: 1}, (True, False)),
        ],
    )
    def test_a_perturbed_side_is_reported(self, monkeypatch, side, bump, want):
        true_pq = hoffman_pq

        def perturbed(n_max):
            pairs = true_pq(n_max)
            p, q = pairs[3]
            p_bump, q_bump = {"p": (bump, {}), "q": ({}, bump), "both": bump}[side]
            pairs[3] = (p + LaurentPoly(p_bump), q + LaurentPoly(q_bump))
            return pairs

        monkeypatch.setattr(triangles, "hoffman_pq", perturbed)
        reports = check_hoffman_identities(6)
        assert (reports[3].q_side_ok, reports[3].p_side_ok) == want
        assert all(r.ok for i, r in enumerate(reports) if i != 3)
        assert reports == _reference_reports(6, perturbed(6))

    @given(
        st.integers(0, 7),
        st.dictionaries(st.integers(-4, 10), st.integers(-3, 3), max_size=3),
        st.dictionaries(st.integers(-4, 10), st.integers(-3, 3), max_size=3),
    )
    def test_any_perturbed_pair_gets_the_reference_report(self, i, p_bump, q_bump):
        # exponents reach below the rows' and bumps may cancel each other
        pairs = hoffman_pq(8)
        p, q = pairs[i]
        pairs[i] = (p + LaurentPoly(p_bump), q + LaurentPoly(q_bump))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(triangles, "hoffman_pq", lambda n: pairs[:n])
            assert check_hoffman_identities(8) == _reference_reports(8, pairs)

    def test_value_equal_copies_are_answered_with_the_stored_report(self, monkeypatch):
        # distinct objects, their exponents listed lowest first
        copies = [
            (LaurentPoly.from_json_map(p.to_json_map()), LaurentPoly.from_json_map(q.to_json_map()))
            for p, q in hoffman_pq(19)
        ]
        monkeypatch.setattr(triangles, "hoffman_pq", lambda n: copies[:n])
        want = _reference_reports(19, _hoffman_pq_reference(19))
        for n in range(1, 20):
            reports = check_hoffman_identities(n)
            assert reports == want[:n]
            assert all(r is entry[-1] for r, entry in zip(reports, triangles._row_sums[:n], strict=True))

    def test_row_sums_are_range_checked(self, monkeypatch):
        # with P_20 and Q_20 out of the way, the positive row sum of row 20
        # is the first to leave the 64-bit range
        monkeypatch.setattr(triangles, "hoffman_pq", lambda n: [(LaurentPoly(), LaurentPoly())] * n)
        with pytest.raises(OverflowError) as exc:
            check_hoffman_identities(20)
        assert str(exc.value) == "coefficient 12419336669515776000 exceeds 64-bit range"


def test_overflow_refuses_large_rows():
    with pytest.raises(OverflowError):
        entringer(30)
    with pytest.raises(OverflowError):
        arnold_numbers(30)


FIRST_OVERFLOWS = [
    (entringer, 25, "triangle entry 9567364332938481664 exceeds 64-bit range"),
    (euler_numbers, 24, "triangle entry 9520846272267777721 exceeds 64-bit range"),
    (arnold_numbers, 20, "triangle entry 9389266118137054976 exceeds 64-bit range"),
    (arnold_hoffman, 21, "coefficient 11633834560661913600 exceeds 64-bit range"),
    (hoffman_pq, 20, "coefficient 26444634532872192000 exceeds 64-bit range"),
    (check_hoffman_identities, 20, "coefficient 26444634532872192000 exceeds 64-bit range"),
]


@pytest.mark.parametrize("fn, first_bad, message", FIRST_OVERFLOWS)
def test_first_overflowing_row_and_its_message(fn, first_bad, message):
    fn(first_bad - 1)
    with pytest.raises(OverflowError) as exc:
        fn(first_bad)
    assert str(exc.value) == message


# Row stores.  Each test below starts from stores cut back to row 1, so
# that the rows earlier tests stored cannot matter.

# store -> the rows the 64-bit range lets it hold
STORE_BOUNDS = {
    "_entringer_rows": 24,
    "_arnold_rows": 19,
    "_hoffman_rows": 20,
    "_pq_rows": 19,
    "_row_sums": 19,
}
PUBLIC = [entringer, euler_numbers, arnold_numbers, arnold_hoffman, hoffman_pq, check_hoffman_identities]


@pytest.fixture
def fresh_stores(monkeypatch):
    for name in STORE_BOUNDS:
        monkeypatch.setattr(triangles, name, getattr(triangles, name)[:1])


def _assert_reference_rows():
    rows = arnold_hoffman(20)
    for row, want in zip(rows, _arnold_hoffman_reference(20), strict=True):
        assert [k for k, _ in row.entries()] == sorted(want)
        for k, poly in row.entries():
            _assert_same_poly(poly, want[k])
    for (p, q), (want_p, want_q) in zip(hoffman_pq(19), _hoffman_pq_reference(19), strict=True):
        _assert_same_poly(p, want_p)
        _assert_same_poly(q, want_q)


@pytest.mark.parametrize("fn, first_bad, message", FIRST_OVERFLOWS)
def test_an_overflowing_row_is_not_stored(fresh_stores, fn, first_bad, message):
    for _ in range(2):
        with pytest.raises(OverflowError) as exc:
            fn(first_bad)
        assert str(exc.value) == message
    for name, bound in STORE_BOUNDS.items():
        assert len(getattr(triangles, name)) <= bound, name
    _assert_reference_rows()


def test_an_overflowing_row_sum_is_not_stored(fresh_stores, monkeypatch):
    monkeypatch.setattr(triangles, "hoffman_pq", lambda n: [(LaurentPoly(), LaurentPoly())] * n)
    for _ in range(2):
        with pytest.raises(OverflowError) as exc:
            check_hoffman_identities(20)
        assert str(exc.value) == "coefficient 12419336669515776000 exceeds 64-bit range"
    assert len(triangles._row_sums) == 19
    assert len(triangles._hoffman_rows) == 20


@pytest.mark.parametrize("fn", PUBLIC)
def test_a_returned_list_is_the_callers_own(fresh_stores, fn):
    want = list(fn(5))
    got = fn(5)
    got[3] = None
    got.append(None)
    del got[0]
    assert fn(5) == want
    assert fn(6)[:5] == want


def test_rows_asked_for_in_any_order_equal_the_reference(fresh_stores):
    sizes = list(range(1, 21))
    random.Random(23).shuffle(sizes)
    reference = _arnold_hoffman_reference(20)
    pq_reference = _hoffman_pq_reference(19)
    reports = _reference_reports(19, pq_reference)
    for n in sizes:
        for row, want in zip(arnold_hoffman(n), reference[:n], strict=True):
            assert dict(row.entries()) == want
        if n < 20:
            assert [list(row.entries()) for row in arnold_numbers(n)] == [
                [(k, want[k](1)) for k in sorted(want)] for want in reference[:n]
            ]
            assert hoffman_pq(n) == pq_reference[:n]
            assert check_hoffman_identities(n) == reports[:n]
    _assert_reference_rows()


def _assert_stored_reports(reports, n_max):
    assert reports == _reference_reports(n_max, _hoffman_pq_reference(n_max))
    assert all(r is entry[-1] for r, entry in zip(reports, triangles._row_sums[:n_max], strict=True))


def test_a_repeat_call_compares_no_polynomial(fresh_stores):
    check_hoffman_identities(19)
    compared = []
    real_eq = LaurentPoly.__eq__

    def spy(self, other):
        compared.append((self, other))
        return real_eq(self, other)

    sizes = (19, 5, 1, 12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LaurentPoly, "__eq__", spy)
        answers = [check_hoffman_identities(n) for n in sizes]
    assert compared == []
    for n, reports in zip(sizes, answers):
        _assert_stored_reports(reports, n)


@pytest.mark.parametrize("primed", [19, 1])
@pytest.mark.parametrize("n_max", [8, 19])
@pytest.mark.parametrize("i", [0, 10, 18])
def test_a_pair_bumped_after_the_store_is_primed_gets_the_reference_report(fresh_stores, primed, n_max, i):
    check_hoffman_identities(primed)
    pairs = hoffman_pq(19)
    p, q = pairs[i]
    pairs[i] = (p, q + LaurentPoly({1: 1}))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triangles, "hoffman_pq", lambda n: pairs[:n])
        for _ in range(2):  # a list holding a bumped pair is never answered from the kept pairs
            assert check_hoffman_identities(n_max) == _reference_reports(n_max, pairs)
    _assert_stored_reports(check_hoffman_identities(n_max), n_max)


def test_calls_that_grow_then_shrink_give_the_reference_reports(fresh_stores):
    for n in (5, 19, 7):
        _assert_stored_reports(check_hoffman_identities(n), n)


GROWERS = ["_next_entringer", "_next_arnold", "_next_hoffman", "_next_pq", "_next_row_sums"]


@pytest.mark.parametrize("fn", PUBLIC)
def test_rows_asked_for_from_several_threads_are_grown_once(fresh_stores, monkeypatch, fn):
    grown = {name: [] for name in GROWERS}
    for name, log in grown.items():

        def grow(rows, real=getattr(triangles, name), log=log):
            log.append(len(rows) + 1)
            time.sleep(0.001)  # widens the window in which another thread could grow the same row
            return real(rows)

        monkeypatch.setattr(triangles, name, grow)
    sizes = [16, 19, 17, 18]
    barrier, results = threading.Barrier(len(sizes), timeout=60), {}

    def ask(n):
        barrier.wait()
        results[n] = fn(n)

    threads = [threading.Thread(target=ask, args=(n,)) for n in sizes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert sorted(results) == sorted(sizes)
    for name, log in grown.items():
        assert log == sorted(set(log)), name
    for n, got in results.items():
        assert got == fn(n)
    _assert_reference_rows()


@pytest.mark.parametrize("fn", PUBLIC)
@pytest.mark.parametrize("n_max", [0, -1])
def test_n_max_below_one_is_refused(fresh_stores, fn, n_max):
    with pytest.raises(ValueError, match="^n_max must be at least 1$"):
        fn(n_max)
