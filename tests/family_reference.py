"""Literal definitions that only the tests read, kept as their reference.

The package's generators build each family member by member and never call
these: perfect ranking of signed windows (`rank`, `unrank`), the prefix
flip that defines Knuth's flip classes (`flip`), and the snake membership
predicates.  The snake predicates are `arnold.families._is_window`, which
refuses what `from_window` refuses, before the literal snake rules of
`cycle_reference`, so each rule is written once.
"""
from __future__ import annotations

from math import factorial
from typing import Sequence

import cycle_reference as ref
from arnold.families import _candidates, _is_window
from arnold.signed_perm import SignedPerm


class IllegalFlipError(ValueError):
    pass


class RankOutOfRangeError(ValueError):
    pass


def rank(p: SignedPerm) -> int:
    """Position of the window in lexicographic order over all of size n."""
    n = p.n
    used: set[int] = set()
    r = 0
    for i, v in enumerate(p.window):
        cands = _candidates(n, used)
        block = factorial(n - 1 - i) * (1 << (n - 1 - i))
        r += cands.index(v) * block
        used.add(abs(v))
    return r


def unrank(r: int, n: int) -> SignedPerm:
    """Inverse of rank: unrank(0, n) is the lexicographically least window.

    >>> unrank(0, 2).window
    (-2, -1)
    """
    total = factorial(n) * (1 << n)
    if not 0 <= r < total:
        raise RankOutOfRangeError(f"rank {r} outside [0, {total})")
    used: set[int] = set()
    out = []
    for i in range(n):
        cands = _candidates(n, used)
        block = factorial(n - 1 - i) * (1 << (n - 1 - i))
        d, r = divmod(r, block)
        v = cands[d]
        out.append(v)
        used.add(abs(v))
    return SignedPerm(tuple(out))


def flip(obj, k: int):
    """Reverse the length-k prefix.  Legal when k = 1, k = n, or the entry
    after the prefix is smaller in absolute value than everything in it."""
    win = obj.window if isinstance(obj, SignedPerm) else tuple(obj)
    n = len(win)
    if not 1 <= k <= n:
        raise IllegalFlipError(f"k={k} outside 1..{n}")
    if 1 < k < n and abs(win[k]) >= min(abs(v) for v in win[:k]):
        raise IllegalFlipError(f"entry after prefix is not a new minimum (k={k})")
    out = tuple(reversed(win[:k])) + win[k:]
    return SignedPerm(out) if isinstance(obj, SignedPerm) else out


def is_snake_b(w: Sequence[int]) -> bool:
    return _is_window(w) and ref.is_snake_b(w)


def is_snake_d(w: Sequence[int]) -> bool:
    # the negation of a type-B snake, with w2 > |w1|
    return _is_window(w) and ref.is_snake_d(w)
