"""Exact integer Laurent polynomials in one variable t.

Coefficients are signed 64-bit integers.  The constructor range-checks
every result coefficient once (the product and evaluation also check their
intermediate sums), and a value that does not fit raises OverflowError.
Negative exponents are allowed so that t^-1 scaling used by the triangle
recurrences needs no special casing.
"""
from __future__ import annotations

from typing import Iterator, Mapping

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def _checked(value: int) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowError(f"coefficient {value} exceeds 64-bit range")
    return value


class LaurentPoly:
    """A Laurent polynomial with int64-checked integer coefficients.

    >>> p = LaurentPoly({2: 1}) + LaurentPoly({0: 1, 2: 1})
    >>> str(p)
    '1 + 2t^2'
    >>> str(p * LaurentPoly.t_power(-1))
    't^-1 + 2t'
    >>> p(1)
    3
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean = {}
        for exp, c in (coeffs or {}).items():
            if c != 0:
                clean[int(exp)] = _checked(int(c))
        self._coeffs = clean

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def t_power(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def coeff(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def exponents(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (other * -1)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = _checked(out.get(e, 0) + _checked(c1 * c2))
        return LaurentPoly(out)

    __rmul__ = __mul__

    def shifted(self, exp: int) -> "LaurentPoly":
        """Multiply by t^exp."""
        return LaurentPoly({e + exp: c for e, c in self._coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({e - 1: c * e for e, c in self._coeffs.items() if e != 0})

    def __call__(self, t: int) -> int:
        total = 0
        for e, c in self._coeffs.items():
            if e < 0:
                raise ValueError("cannot evaluate negative exponents over the integers")
            total = _checked(total + _checked(c * t**e))
        return total

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def to_json_map(self) -> dict[str, int]:
        """Exponent -> coefficient with string keys, e.g. {"0": 1, "2": 1}."""
        return {str(e): c for e, c in sorted(self._coeffs.items())}

    @classmethod
    def from_json_map(cls, data: Mapping[str, int]) -> "LaurentPoly":
        return cls({int(e): c for e, c in data.items()})

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items()):
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = f"{mag}t" if e == 1 else f"{mag}t^{e}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._coeffs!r})"
