"""Boustrophedon triangles: Entringer numbers, the signed Arnold double
triangle, its polynomial refinement, and the tangent/secant derivative
polynomials tied to it.

Each triangle row is the running sum of the previous row read backwards
(`_running_sums`), once per side for an Arnold row.  Arithmetic is exact,
and the operation that computes an entry or a coefficient range-checks it:
a row beyond the first overflow raises OverflowError rather than wrapping.

Every row is built once per process.  Each triangle keeps one grow-only
store of its first rows: the Entringer rows, the numeric Arnold rows, the
packed polynomial rows with their row sums, the `LaurentPoly` rows and the
(P_n, Q_n) pairs.  Every reader goes through `_first_rows`, which grows
the rows a call asks for beyond the stored ones, each one step from the
row below, and returns a fresh list of the first n_max.  A row that
overflows raises before it is stored, so asking for it again raises the
same message; the 64-bit range thus bounds the stores, at 24 Entringer
rows, 19 numeric rows, 20 polynomial rows and 19 (P_n, Q_n) pairs.

The polynomial triangle runs on packed integers (Kronecker substitution):
an entry V_{n,k}(t) is one int holding the coefficient of t^e in the 64-bit
slot e + 1, slot 0 holding t^-1.  Multiplying by t^-1 or t is a shift by
one slot, and each running-sum step is one int add.  Every V_{n,k} has
nonnegative coefficients, so two summands below 2^63 in every slot sum to
below 2^64 in every slot: no slot carries into the next, and the sum is in
range exactly when no slot has its bit 63 set, which one AND against a mask
of those bits tests.  An overflow names the highest coefficient out of
range, the one that adding the unpacked entries, whose exponents run from
the highest down, would name first: the first overflowing row is 21, and
its message names 11633834560661913600.  `arnold_hoffman` unpacks each
finished entry into a LaurentPoly once.  With each row's packed row sums,
`check_hoffman_identities` stores the pair (P_n, Q_n) that satisfies both
identities on them: a pair equal to it is answered without packing, and
any other pair is compared on the packed sides of the identities.

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


def _running_sums(start, terms, add):
    """(start, start+t1, start+t1+t2, ...) for terms t1, t2, ...

    >>> _running_sums(0, (1, 2, 3), lambda a, b: a + b)
    (0, 1, 3, 6)
    """
    out = [start]
    for t in terms:
        out.append(add(out[-1], t))
    return tuple(out)


_grow_lock = threading.RLock()


def _first_rows(rows: list, n_max: int, grow: Callable[[list], object]) -> list:
    """A fresh list of the first n_max rows of the store `rows`, row n at
    index n - 1.  The rows it lacks are appended in order, each as
    grow(rows) from the rows below it; a row whose growth raises is not
    stored.  The lock keeps two threads from appending the same row; it is
    reentrant, because growing an unpacked row grows the packed rows."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if len(rows) < n_max:
        with _grow_lock:
            while len(rows) < n_max:
                rows.append(grow(rows))
    return rows[:n_max]


def _next_entringer(rows: list) -> tuple[int, ...]:
    return _running_sums(0, reversed(rows[-1]), _checked_add)


_entringer_rows: list[tuple[int, ...]] = [(1,)]


def entringer(n_max: int) -> list[tuple[int, ...]]:
    """Rows (E_{n,1},...,E_{n,n}) for n = 1..n_max.

    E_{1,1} = 1, E_{n,1} = 0 for n >= 2, and
    E_{n,k} = E_{n,k-1} + E_{n-1,n-k+1}.  Row sums are the Euler numbers.
    """
    return _first_rows(_entringer_rows, n_max, _next_entringer)


def euler_numbers(n_max: int) -> list[int]:
    """E_n = row sums of the Entringer triangle: 1, 1, 2, 5, 16, 61, ..."""
    return [_running_sums(0, row, _checked_add)[-1] for row in entringer(n_max)]


def _next_arnold(rows: list) -> ArnoldRow[int]:
    prev = rows[-1]
    neg = _running_sums(0, reversed(prev.pos), _checked_add)
    pos = _running_sums(neg[-1], reversed(prev.neg), _checked_add)
    return ArnoldRow(prev.n + 1, neg, pos)


_arnold_rows: list[ArnoldRow[int]] = [ArnoldRow(1, (1,), (1,))]


def arnold_numbers(n_max: int) -> list[ArnoldRow[int]]:
    """The signed double triangle, computed boustrophedon-style.

    Row order is fixed: v_{n,-n} = 0, then the negative side right-to-left
    via v_{n,-k} = v_{n,-k-1} + v_{n-1,k}, the bridge v_{n,1} = v_{n,-1},
    then the positive side via v_{n,k} = v_{n,k-1} + v_{n-1,-k+1}.
    """
    return _first_rows(_arnold_rows, n_max, _next_arnold)


# ---------------------------------------------------------------------------
# packed polynomials: the coefficient of t^e in the 64-bit slot e + 1

_SLOT = 64
_DIGIT = (1 << _SLOT) - 1


def _pack(poly: LaurentPoly) -> int:
    """poly at t = 2^64, times 2^64.  One-to-one on coefficients in
    [-2^63, 2^63) and exponents from -1 up.

    >>> _pack(LaurentPoly({-1: 3, 1: -1})) == 3 - (1 << 128)
    True
    """
    return sum(c << (_SLOT * e + _SLOT) for e, c in poly.items())


def _unpack(x: int) -> LaurentPoly:
    """The polynomial of a packed x >= 0 whose slots are all below 2^63,
    read off from the top slot down, so its exponents run from the highest
    down."""
    coeffs = {}
    while x:
        k = (x.bit_length() - 1) // _SLOT * _SLOT
        coeffs[k // _SLOT - 1] = c = x >> k
        x -= c << k
    return LaurentPoly._wrap(coeffs)


def _packed_adder(slots: int):
    """Addition of packed polynomials with nonnegative coefficients in
    `slots` slots.  Summands below 2^63 in each slot sum below 2^64, so no
    slot carries and the sum is in range iff no slot has bit 63 set.  An
    overflow names the highest coefficient out of range, the one that
    adding the unpacked polynomials, exponents from the highest down, names
    first."""
    high = ((1 << _SLOT * slots) - 1) // _DIGIT << (_SLOT - 1)

    def add(a: int, b: int) -> int:
        s = a + b
        if s & high:
            slot = ((s & high).bit_length() - 1) // _SLOT
            raise OverflowError(f"coefficient {s >> _SLOT * slot & _DIGIT} exceeds 64-bit range")
        return s

    return add


def _next_packed(rows: list) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row n = len(rows) + 1 of `_packed_hoffman`.  t^-1 and t are shifts
    by one slot; a positive-side entry is a sum of left shifts, so its slot
    0 is empty and the right shift drops nothing.  Row n has exponents
    0..n+1, so it fits in n + 3 slots, which the range check covers."""
    n, (prev_neg, prev_pos) = len(rows) + 1, rows[-1]
    add = _packed_adder(n + 3)
    neg = _running_sums(0, (v >> _SLOT for v in reversed(prev_pos)), add)
    pos = _running_sums(neg[-1] << 2 * _SLOT, (v << _SLOT for v in reversed(prev_neg)), add)
    return neg, pos


_packed_rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((1 << _SLOT,), (1 << 3 * _SLOT,))]


def _packed_hoffman(n_max: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Rows (neg, pos) of `arnold_hoffman`, packed."""
    return _first_rows(_packed_rows, n_max, _next_packed)


def _next_hoffman(rows: list) -> ArnoldRow[LaurentPoly]:
    n = len(rows) + 1
    neg, pos = _packed_hoffman(n)[n - 1]
    return ArnoldRow(n, tuple(map(_unpack, neg)), tuple(map(_unpack, pos)))


_hoffman_rows: list[ArnoldRow[LaurentPoly]] = []


def arnold_hoffman(n_max: int) -> list[ArnoldRow[LaurentPoly]]:
    """Polynomial refinement of the double triangle.

    V_{1,1} = t^2, V_{1,-1} = 1, V_{n,-n} = 0, and
        V_{n,-k} = V_{n,-k-1} + t^-1 V_{n-1,k}
        V_{n,1}  = t^2 V_{n,-1}
        V_{n,k}  = V_{n,k-1} + t V_{n-1,-k+1}.
    Every finished entry has nonnegative exponents of parity n+1, and lists
    them from the highest down.  Each row is unpacked from `_packed_hoffman`
    once.
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


def _next_row_sums(sums: list) -> tuple[int, int, LaurentPoly, LaurentPoly, IdentityReport]:
    """The packed positive and negative row sums of row n = len(sums) + 1
    of `_packed_hoffman`, range-checked as its entries are (the positive
    sum of row 20 is the first out of range); then the pair that satisfies
    both identities on them, Q_n = pos_sum * t^-1 and P_n = pos_sum +
    neg_sum, and the report of that pair."""
    n = len(sums) + 1
    neg, pos = _packed_hoffman(n)[n - 1]
    add = _packed_adder(n + 3)
    pos_sum, neg_sum = _running_sums(0, pos, add)[-1], _running_sums(0, neg, add)[-1]
    tq = _unpack(pos_sum)
    return pos_sum, neg_sum, tq.shifted(-1), tq + _unpack(neg_sum), IdentityReport(n, True, True)


_row_sums: list[tuple[int, int, LaurentPoly, LaurentPoly, IdentityReport]] = []


def check_hoffman_identities(n_max: int) -> list[IdentityReport]:
    """Check t*Q_n = sum_{k>0} V_{n,k} and P_n - t*Q_n = sum_{k>0} V_{n,-k}.

    P and Q are read through `hoffman_pq` on every call.  A pair equal to
    the one stored with the row sums, which satisfies both identities, is
    answered with the stored report, packing nothing.  Any other pair is
    compared on packed sides: both sides of each identity are packed, which
    is exact because P_n - t*Q_n is range-checked and packing is one-to-one
    on coefficients in [-2^63, 2^63).  The row sums and the stored pair
    depend on the row alone, so they are stored as the rows are."""
    _packed_hoffman(n_max)  # a row past the first overflow raises before P and Q
    pairs = hoffman_pq(n_max)
    sums = _first_rows(_row_sums, n_max, _next_row_sums)
    reports = []
    for n, ((p, q), (pos_sum, neg_sum, q_want, p_want, report)) in enumerate(zip(pairs, sums), start=1):
        if q == q_want and p == p_want:
            reports.append(report)
        else:
            tq = q.shifted(1)
            reports.append(IdentityReport(n, _pack(tq) == pos_sum, _pack(p - tq) == neg_sum))
    return reports
