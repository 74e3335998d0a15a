"""Boustrophedon triangles: Entringer numbers, the signed Arnold double
triangle, its polynomial refinement, and the tangent/secant derivative
polynomials tied to it.

Each triangle row is the running sum of the previous row read backwards
(`_running_sums`), once per side for an Arnold row.  All arithmetic is
exact and 64-bit checked; asking for a row beyond the first overflow
raises OverflowError rather than wrapping.

The derivative polynomials P_n, Q_n are defined by
    d^n/dx^n tan(x) = P_n(tan x)      and      d^n/dx^n sec(x) = Q_n(tan x) sec(x).
Differentiating once more and substituting t = tan(x) (so dt/dx = 1 + t^2)
gives the recurrences implemented here:
    P_{n+1}(t) = (1 + t^2) P_n'(t)
    Q_{n+1}(t) = (1 + t^2) Q_n'(t) + t Q_n(t)
seeded by P_1 = 1 + t^2 and Q_1 = t.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add as _add
from typing import Generic, TypeVar

from .laurent import INT64_MAX, INT64_MIN, LaurentPoly

V = TypeVar("V", int, LaurentPoly)


def _checked_add(a: int, b: int) -> int:
    s = a + b
    if s < INT64_MIN or s > INT64_MAX:
        raise OverflowError(f"triangle entry {s} exceeds 64-bit range")
    return s


@dataclass(frozen=True)
class ArnoldRow(Generic[V]):
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


def entringer(n_max: int) -> list[tuple[int, ...]]:
    """Rows (E_{n,1},...,E_{n,n}) for n = 1..n_max.

    E_{1,1} = 1, E_{n,1} = 0 for n >= 2, and
    E_{n,k} = E_{n,k-1} + E_{n-1,n-k+1}.  Row sums are the Euler numbers.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows: list[tuple[int, ...]] = [(1,)]
    for _ in range(n_max - 1):
        rows.append(_running_sums(0, reversed(rows[-1]), _checked_add))
    return rows


def euler_numbers(n_max: int) -> list[int]:
    """E_n = row sums of the Entringer triangle: 1, 1, 2, 5, 16, 61, ..."""
    return [_running_sums(0, row, _checked_add)[-1] for row in entringer(n_max)]


def arnold_numbers(n_max: int) -> list[ArnoldRow[int]]:
    """The signed double triangle, computed boustrophedon-style.

    Row order is fixed: v_{n,-n} = 0, then the negative side right-to-left
    via v_{n,-k} = v_{n,-k-1} + v_{n-1,k}, the bridge v_{n,1} = v_{n,-1},
    then the positive side via v_{n,k} = v_{n,k-1} + v_{n-1,-k+1}.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows: list[ArnoldRow[int]] = [ArnoldRow(1, (1,), (1,))]
    for n in range(2, n_max + 1):
        prev = rows[-1]
        neg = _running_sums(0, reversed(prev.pos), _checked_add)
        pos = _running_sums(neg[-1], reversed(prev.neg), _checked_add)
        rows.append(ArnoldRow(n, neg, pos))
    return rows


def arnold_hoffman(n_max: int) -> list[ArnoldRow[LaurentPoly]]:
    """Polynomial refinement of the double triangle.

    V_{1,1} = t^2, V_{1,-1} = 1, V_{n,-n} = 0, and
        V_{n,-k} = V_{n,-k-1} + t^-1 V_{n-1,k}
        V_{n,1}  = t^2 V_{n,-1}
        V_{n,k}  = V_{n,k-1} + t V_{n-1,-k+1}.
    Every finished entry has nonnegative exponents of parity n+1.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows = [ArnoldRow(1, (LaurentPoly.one(),), (LaurentPoly.t_power(2),))]
    for n in range(2, n_max + 1):
        prev = rows[-1]
        neg = _running_sums(LaurentPoly.zero(), (v.shifted(-1) for v in reversed(prev.pos)), _add)
        pos = _running_sums(neg[-1].shifted(2), (v.shifted(1) for v in reversed(prev.neg)), _add)
        rows.append(ArnoldRow(n, neg, pos))
    return rows


def hoffman_pq(n_max: int) -> list[tuple[LaurentPoly, LaurentPoly]]:
    """Pairs (P_n, Q_n) for n = 1..n_max (see module docstring)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    sec2 = LaurentPoly({0: 1, 2: 1})
    p = sec2
    q = LaurentPoly.t_power(1)
    out = [(p, q)]
    for _ in range(n_max - 1):
        p = sec2 * p.derivative()
        q = sec2 * q.derivative() + q.shifted(1)
        out.append((p, q))
    return out


@dataclass(frozen=True)
class IdentityReport:
    n: int
    q_side_ok: bool  # t*Q_n == sum of positive-side polynomials
    p_side_ok: bool  # P_n - t*Q_n == sum of negative-side polynomials

    @property
    def ok(self) -> bool:
        return self.q_side_ok and self.p_side_ok


def check_hoffman_identities(n_max: int) -> list[IdentityReport]:
    """Check t*Q_n = sum_{k>0} V_{n,k} and P_n - t*Q_n = sum_{k>0} V_{n,-k}."""
    reports = []
    for row, (p, q) in zip(arnold_hoffman(n_max), hoffman_pq(n_max)):
        pos_sum = sum(row.pos, LaurentPoly.zero())
        neg_sum = sum(row.neg, LaurentPoly.zero())
        tq = q.shifted(1)
        reports.append(IdentityReport(row.n, tq == pos_sum, p - tq == neg_sum))
    return reports
