"""Boustrophedon triangles: Entringer numbers, the signed Arnold double
triangle, its polynomial refinement, and the tangent/secant derivative
polynomials tied to it.

Each triangle row is the running sum (`itertools.accumulate`) of the
previous row read backwards, once per side for an Arnold row.  Arithmetic
is exact, and the operation that computes an entry or a coefficient
range-checks it: a row beyond the first overflow raises OverflowError
rather than wrapping.

Every row is built once per process.  Each triangle keeps one grow-only
store of its first rows: the Entringer rows, the numeric Arnold rows, the
`LaurentPoly` rows with their row sums, and the (P_n, Q_n) pairs.  Every
reader goes through `_first_rows`, which grows the rows a call asks for
beyond the stored ones, each one step from the row below, and returns a
fresh list of the first n_max.  A row that overflows raises before it is
stored, so asking for it again raises the same message; the 64-bit range
thus bounds the stores, at 24 Entringer rows, 19 numeric rows, 20
polynomial rows and 19 (P_n, Q_n) pairs.

The polynomial triangle takes the numeric step on `LaurentPoly` entries:
each side sums the other side of the row below, read backwards and
shifted by t^-1 or t.  The first overflowing row is 21, and its message
names 11633834560661913600.  `check_hoffman_identities` stores each row's
two row sums with the report of the stored pair (P_n, Q_n) on them, and
answers a call whose pairs equal the stored ones with the stored reports;
any other pair is compared with the row sums.

The derivative polynomials P_n, Q_n are defined by
    d^n/dx^n tan(x) = P_n(tan x)      and      d^n/dx^n sec(x) = Q_n(tan x) sec(x).
Differentiating once more and substituting t = tan(x) (so dt/dx = 1 + t^2)
gives the recurrences implemented here:
    P_{n+1}(t) = (1 + t^2) P_n'(t)
    Q_{n+1}(t) = (1 + t^2) Q_n'(t) + t Q_n(t)
seeded by P_1 = 1 + t^2 and Q_1 = t.
"""
from __future__ import annotations

import threading
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Callable, NamedTuple, TypeVar

from .laurent import INT64_MAX, INT64_MIN, LaurentPoly

V = TypeVar("V", int, LaurentPoly)


def _checked_add(a: int, b: int) -> int:
    s = a + b
    if s < INT64_MIN or s > INT64_MAX:
        raise OverflowError(f"triangle entry {s} exceeds 64-bit range")
    return s


class ArnoldRow(NamedTuple):
    """One row of the double triangle.

    neg holds v_{n,-n}..v_{n,-1} (that order), pos holds v_{n,1}..v_{n,n}.
    """

    n: int
    neg: tuple[V, ...]
    pos: tuple[V, ...]

    def value(self, k: int) -> V:
        if k == 0 or abs(k) > self.n:
            raise IndexError(f"k={k} out of range for row {self.n}")
        if k > 0:
            return self.pos[k - 1]
        return self.neg[self.n + k]

    def entries(self):
        yield from zip(range(-self.n, 0), self.neg)
        yield from zip(range(1, self.n + 1), self.pos)


_grow_lock = threading.RLock()


def _first_rows(rows: list, n_max: int, grow: Callable[[list], object]) -> list:
    """A fresh list of the first n_max rows of the store `rows`, row n at
    index n - 1.  The rows it lacks are appended in order, each as
    grow(rows) from the rows below it; a row whose growth raises is not
    stored.  The lock keeps two threads from appending the same row; it is
    reentrant, because growing a row's sums grows the polynomial rows."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if len(rows) < n_max:
        with _grow_lock:
            while len(rows) < n_max:
                rows.append(grow(rows))
    return rows[:n_max]


def _next_entringer(rows: list) -> tuple[int, ...]:
    return tuple(accumulate(reversed(rows[-1]), _checked_add, initial=0))


_entringer_rows: list[tuple[int, ...]] = [(1,)]


def entringer(n_max: int) -> list[tuple[int, ...]]:
    """Rows (E_{n,1},...,E_{n,n}) for n = 1..n_max.

    E_{1,1} = 1, E_{n,1} = 0 for n >= 2, and
    E_{n,k} = E_{n,k-1} + E_{n-1,n-k+1}.  Row sums are the Euler numbers.
    """
    return _first_rows(_entringer_rows, n_max, _next_entringer)


def euler_numbers(n_max: int) -> list[int]:
    """E_n = row sums of the Entringer triangle: 1, 1, 2, 5, 16, 61, ..."""
    return [reduce(_checked_add, row, 0) for row in entringer(n_max)]


def _next_arnold(rows: list) -> ArnoldRow[int]:
    prev = rows[-1]
    neg = tuple(accumulate(reversed(prev.pos), _checked_add, initial=0))
    pos = tuple(accumulate(reversed(prev.neg), _checked_add, initial=neg[-1]))
    return ArnoldRow(prev.n + 1, neg, pos)


_arnold_rows: list[ArnoldRow[int]] = [ArnoldRow(1, (1,), (1,))]


def arnold_numbers(n_max: int) -> list[ArnoldRow[int]]:
    """The signed double triangle, computed boustrophedon-style.

    Row order is fixed: v_{n,-n} = 0, then the negative side right-to-left
    via v_{n,-k} = v_{n,-k-1} + v_{n-1,k}, the bridge v_{n,1} = v_{n,-1},
    then the positive side via v_{n,k} = v_{n,k-1} + v_{n-1,-k+1}.
    """
    return _first_rows(_arnold_rows, n_max, _next_arnold)


def _next_hoffman(rows: list) -> ArnoldRow[LaurentPoly]:
    prev = rows[-1]
    neg = tuple(accumulate((v.shifted(-1) for v in reversed(prev.pos)), add, initial=LaurentPoly.zero()))
    pos = tuple(accumulate((v.shifted(1) for v in reversed(prev.neg)), add, initial=neg[-1].shifted(2)))
    return ArnoldRow(prev.n + 1, neg, pos)


_hoffman_rows: list[ArnoldRow[LaurentPoly]] = [ArnoldRow(1, (LaurentPoly({0: 1}),), (LaurentPoly({2: 1}),))]


def arnold_hoffman(n_max: int) -> list[ArnoldRow[LaurentPoly]]:
    """Polynomial refinement of the double triangle.

    V_{1,1} = t^2, V_{1,-1} = 1, V_{n,-n} = 0, and
        V_{n,-k} = V_{n,-k-1} + t^-1 V_{n-1,k}
        V_{n,1}  = t^2 V_{n,-1}
        V_{n,k}  = V_{n,k-1} + t V_{n-1,-k+1}.
    Every finished entry has nonnegative exponents of parity n+1.
    """
    return _first_rows(_hoffman_rows, n_max, _next_hoffman)


def _next_pq(rows: list) -> tuple[LaurentPoly, LaurentPoly]:
    p, q = rows[-1]
    dp, dq = p.derivative(), q.derivative()  # (1 + t^2) * f' as f' plus its shift by t^2
    return dp + dp.shifted(2), dq + dq.shifted(2) + q.shifted(1)


_pq_rows: list[tuple[LaurentPoly, LaurentPoly]] = [(LaurentPoly({0: 1, 2: 1}), LaurentPoly.t_power(1))]


def hoffman_pq(n_max: int) -> list[tuple[LaurentPoly, LaurentPoly]]:
    """Pairs (P_n, Q_n) for n = 1..n_max (see module docstring)."""
    return _first_rows(_pq_rows, n_max, _next_pq)


class IdentityReport(NamedTuple):
    n: int
    q_side_ok: bool  # t*Q_n == sum of positive-side polynomials
    p_side_ok: bool  # P_n - t*Q_n == sum of negative-side polynomials

    @property
    def ok(self) -> bool:
        return self.q_side_ok and self.p_side_ok


def _report(n: int, pair: tuple[LaurentPoly, LaurentPoly], pos_sum: LaurentPoly,
            neg_sum: LaurentPoly) -> IdentityReport:
    """The report of the pair (P_n, Q_n) against row n's two row sums."""
    p, q = pair
    tq = q.shifted(1)
    return IdentityReport(n, tq == pos_sum, p - tq == neg_sum)


def _next_row_sums(sums: list) -> tuple[LaurentPoly, LaurentPoly, IdentityReport]:
    """The positive and negative row sums of row n = len(sums) + 1 of
    `arnold_hoffman`, positive side first (the positive sum of row 20 is
    the first out of range), then the report of the stored (P_n, Q_n)."""
    n = len(sums) + 1
    row = arnold_hoffman(n)[n - 1]
    pos_sum, neg_sum = sum(row.pos, LaurentPoly.zero()), sum(row.neg, LaurentPoly.zero())
    return pos_sum, neg_sum, _report(n, _first_rows(_pq_rows, n, _next_pq)[-1], pos_sum, neg_sum)


_row_sums: list[tuple[LaurentPoly, LaurentPoly, IdentityReport]] = []


def check_hoffman_identities(n_max: int) -> list[IdentityReport]:
    """Check t*Q_n = sum_{k>0} V_{n,k} and P_n - t*Q_n = sum_{k>0} V_{n,-k}.

    P and Q are read through `hoffman_pq` on every call.  The row sums
    depend on the row alone, so they are stored as the rows are, each with
    the report of the stored pair (P_n, Q_n), compared once.  A call whose
    pairs equal the stored ones is answered with the stored reports: list
    equality tests each pair for identity before value, so the pairs
    `hoffman_pq` returns are compared with no polynomial.  Any other call
    compares each pair with the row sums."""
    arnold_hoffman(n_max)  # a row past the first overflow raises before P and Q
    pairs = hoffman_pq(n_max)
    sums = _first_rows(_row_sums, n_max, _next_row_sums)
    if pairs == _pq_rows[:n_max]:
        return [report for _, _, report in sums]
    return [_report(n, pair, pos_sum, neg_sum)
            for n, (pair, (pos_sum, neg_sum, _)) in enumerate(zip(pairs, sums), start=1)]
