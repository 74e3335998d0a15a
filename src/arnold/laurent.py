"""Exact integer Laurent polynomials in one variable t.

Coefficients are signed 64-bit integers.  The constructor refuses an
exponent or coefficient that is not an int with ValueError, so nothing is
truncated.  It range-checks its input, each operation only the
coefficients it computes, and the product and evaluation each term but no
running sum, raising OverflowError.
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
            if type(exp) is not int or type(c) is not int:
                raise ValueError(f"term {exp!r}: {c!r} needs an int exponent and an int coefficient")
            if c:
                clean[exp] = _checked(c)
        self._coeffs = clean

    @classmethod
    def _wrap(cls, clean: dict[int, int]) -> "LaurentPoly":
        """Adopt `clean`, whose coefficients are nonzero and range-checked."""
        poly = cls.__new__(cls)
        poly._coeffs = clean
        return poly

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def t_power(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def exponents(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            s = _checked(out.get(exp, 0) + sign * c)
            if s:
                out[exp] = s
            else:
                del out[exp]
        return LaurentPoly._wrap(out)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            scaled = {e: _checked(c * other) for e, c in self._coeffs.items()} if other else {}
            return LaurentPoly._wrap(scaled)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + _checked(c1 * c2)
        return LaurentPoly._wrap({e: _checked(c) for e, c in out.items() if c})

    __rmul__ = __mul__

    def shifted(self, exp: int) -> "LaurentPoly":
        """Multiply by t^exp."""
        return LaurentPoly._wrap({e + exp: c for e, c in self._coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly._wrap({e - 1: _checked(c * e) for e, c in self._coeffs.items() if e})

    def __call__(self, t: int) -> int:
        if any(e < 0 for e in self._coeffs):
            raise ValueError("cannot evaluate negative exponents over the integers")
        return _checked(sum(_checked(c * t**e) for e, c in self._coeffs.items()))

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
        """Inverse of `to_json_map`: ValueError unless data is a mapping whose
        every key is `str(e)` of an int e, so "03", " 3" or "1_0" is not misread."""
        if not isinstance(data, Mapping):
            raise ValueError(f"{data!r} is not an exponent map")
        for key in data:
            if not (isinstance(key, str) and key.removeprefix("-").isdecimal() and str(int(key)) == key):
                raise ValueError(f"exponent key {key!r} is not written as an int")
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
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))!r})"
