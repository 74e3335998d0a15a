"""Signed permutations, canonical cycle forms, and permutation statistics.

A signed permutation of size n is written in window notation: a tuple of n
nonzero integers whose absolute values are exactly 1..n.  It extends to a
bijection of {-n..-1, 1..n} via sigma(-i) = -sigma(i).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence


class InvalidWindowError(ValueError):
    """Input sequence is not the window of a signed permutation."""


class ZeroEntryError(InvalidWindowError):
    pass


class RepeatedAbsValueError(InvalidWindowError):
    pass


class AbsValueOutOfRangeError(InvalidWindowError):
    pass


class MalformedCudCycleFormError(ValueError):
    """Cycle form is not special-or-special-plus-final-bracket."""


@dataclass(frozen=True)
class SignedPerm:
    window: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        """Image of i, for i in {-n..-1, 1..n}."""
        if i > 0:
            return self.window[i - 1]
        return -self.window[-i - 1]

    def abs_window(self) -> tuple[int, ...]:
        return tuple(abs(v) for v in self.window)

    def to_json(self) -> list[int]:
        return list(self.window)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.window) + "]"


def from_window(ints: Iterable[int]) -> SignedPerm:
    """Validate a window and build a SignedPerm; the size is inferred.

    >>> from_window([2, -4, 3, 1]).n
    4
    """
    window = tuple(int(v) for v in ints)
    n = len(window)
    seen: set[int] = set()
    for v in window:
        if v == 0:
            raise ZeroEntryError("window entries must be nonzero")
        a = abs(v)
        if a in seen:
            raise RepeatedAbsValueError(f"absolute value {a} repeated")
        seen.add(a)
    if seen != set(range(1, n + 1)):
        raise AbsValueOutOfRangeError(f"absolute values must be 1..{n}")
    return SignedPerm(window)


@dataclass(frozen=True)
class Cycle:
    entries: tuple[int, ...]
    bracket: bool = False

    @property
    def leader(self) -> int:
        return self.entries[0]

    def __str__(self) -> str:
        body = ",".join(str(v) for v in self.entries)
        return f"[{body}]" if self.bracket else f"({body})"


@dataclass(frozen=True)
class CycleForm:
    cycles: tuple[Cycle, ...]

    @cached_property
    def n(self) -> int:
        return sum(len({abs(e) for e in c.entries}) for c in self.cycles)

    def leaders(self) -> tuple[int, ...]:
        return tuple(c.leader for c in self.cycles)

    def is_special(self) -> bool:
        return not any(c.bracket for c in self.cycles)

    def to_json(self) -> dict:
        return {
            "cycles": [
                {"entries": list(c.entries), "bracket": c.bracket} for c in self.cycles
            ]
        }

    def __str__(self) -> str:
        return "".join(str(c) for c in self.cycles)


def cycle_form(p: SignedPerm) -> CycleForm:
    """Canonical cycle form of a signed permutation.

    Each paired orbit is listed once, starting at the positive value of its
    minimal absolute entry.  An orbit that closes through negation (contains
    both x and -x) is stored in full with bracket=True.

    >>> str(cycle_form(from_window([-2, -4, 3, 1, -6, -7, 5])))
    '(1,-2,4)(3)(5,-6,7)'
    >>> str(cycle_form(from_window([-2, 4, -5, -1, 9, 6, 3, -8, 7])))
    '(1,-2,-4)[3,-5,-9,-7,-3,5,9,7](6)[8,-8]'
    """
    seen: set[int] = set()
    cycles = []
    for m in range(1, p.n + 1):
        if m in seen:
            continue
        orbit = [m]
        x = p(m)
        while x != m:
            orbit.append(x)
            x = p(x)
        if -m in orbit:
            cyc = Cycle(tuple(orbit), bracket=True)
        else:
            cyc = Cycle(tuple(orbit), bracket=False)
        seen.update(abs(e) for e in orbit)
        cycles.append(cyc)
    return CycleForm(tuple(cycles))


def window_of(cf: CycleForm) -> SignedPerm:
    """Rebuild the window from a canonical cycle form (inverse of cycle_form)."""
    n = cf.n
    window = [0] * n
    for c in cf.cycles:
        e = c.entries
        for j, x in enumerate(e):
            y = e[(j + 1) % len(e)]
            if x > 0:
                window[x - 1] = y
            else:
                window[-x - 1] = -y
    return from_window(window)


def is_special(cf: CycleForm) -> bool:
    """True iff no orbit closes through negation."""
    return cf.is_special()


def valleys(seq: Sequence[int]) -> frozenset[int]:
    """1-based valley positions: interior strict minima, plus position 1
    when the sequence starts ascending.  Empty for length 1."""
    n = len(seq)
    if n <= 1:
        return frozenset()
    out = set()
    if seq[0] < seq[1]:
        out.add(1)
    for i in range(1, n - 1):
        if seq[i - 1] > seq[i] < seq[i + 1]:
            out.add(i + 1)
    return frozenset(out)


def peaks(seq: Sequence[int]) -> frozenset[int]:
    """1-based peak positions: interior strict maxima, plus position n when
    the sequence ends ascending.  Empty for length 1."""
    n = len(seq)
    if n <= 1:
        return frozenset()
    out = set()
    if seq[n - 1] > seq[n - 2]:
        out.add(n)
    for i in range(1, n - 1):
        if seq[i - 1] < seq[i] > seq[i + 1]:
            out.add(i + 1)
    return frozenset(out)


def valley_values(seq: Sequence[int]) -> frozenset[int]:
    return frozenset(seq[i - 1] for i in valleys(seq))


def peak_values(seq: Sequence[int]) -> frozenset[int]:
    return frozenset(seq[i - 1] for i in peaks(seq))


def left_to_right_minima(seq: Sequence[int]) -> frozenset[int]:
    """Values that are strictly smaller than everything before them.

    >>> sorted(left_to_right_minima([7, 5, 1, 3, 4, 2, 6]))
    [1, 5, 7]
    """
    out = set()
    cur = None
    for v in seq:
        if cur is None or v < cur:
            out.add(v)
            cur = v
    return frozenset(out)


def stat_neg(p: SignedPerm) -> int:
    return sum(1 for v in p.window if v < 0)


def _check_cud_shape(cf: CycleForm) -> bool:
    """Validate special-or-special-plus-final-(k,-k) shape; return True when
    the final bracket is present."""
    brackets = [i for i, c in enumerate(cf.cycles) if c.bracket]
    if not brackets:
        return False
    if len(brackets) > 1:
        raise MalformedCudCycleFormError("more than one bracket cycle")
    i = brackets[0]
    c = cf.cycles[i]
    if i != len(cf.cycles) - 1:
        raise MalformedCudCycleFormError("bracket cycle is not last")
    if len(c.entries) != 2 or c.entries[1] != -c.entries[0]:
        raise MalformedCudCycleFormError("bracket cycle is not of the form (k,-k)")
    return True


@lru_cache(maxsize=1 << 16)
def leaf_values(seq: tuple[int, ...]) -> frozenset[int]:
    """Labels of the leaves of the min-split tree of a tuple of distinct
    integers, the tree that `bijections.algo1` builds.

    Each block is replaced by its complement when its maximum comes before
    its minimum, then split at its minimum; a block of one element is a
    leaf.

    >>> sorted(leaf_values((1, 4, 2, 3)))
    [4]
    >>> sorted(leaf_values((1, 5, 3, 4, 2)))
    [4, 5]
    """
    out = set()
    blocks = [seq]
    while blocks:
        s = blocks.pop()
        if len(s) <= 1:
            out.update(s)
            continue
        ordered = sorted(s)
        if s.index(ordered[-1]) < s.index(ordered[0]):
            swap = dict(zip(ordered, reversed(ordered)))
            s = tuple(swap[v] for v in s)
        i = s.index(ordered[0])
        blocks += (s[:i], s[i + 1 :])
    return frozenset(out)


def stat_npk(cf: CycleForm) -> int:
    """Negative-peak count of a cycle-up-down-type cycle form.

    Counts entries a < 0 whose absolute value labels a leaf of the
    min-split tree of its cycle's absolute values (see `leaf_values`); a
    final (k,-k) cycle contributes exactly 1.  These are the negative
    entries that the cycle-to-tree maps turn into labelled leaves, so a
    member of size n has a tree image with n + 1 - 2*npk empty leaves.

    >>> stat_npk(CycleForm((Cycle((1, 4, -2, -3)),)))
    0
    >>> stat_npk(CycleForm((Cycle((1, -4, -2, 3)),)))
    1
    """
    has_bracket = _check_cud_shape(cf)
    total = 1 if has_bracket else 0
    for c in cf.cycles:
        if c.bracket:
            continue
        leaves = leaf_values(tuple(map(abs, c.entries)))
        total += sum(1 for v in c.entries if v < 0 and -v in leaves)
    return total


def stat_spk(p: SignedPerm) -> int:
    """Signed peaks: negative entries that are absolute-value peaks, with
    zero padding at both ends of the window."""
    w = p.window
    n = len(w)
    count = 0
    for i in range(n):
        if w[i] >= 0:
            continue
        prev = abs(w[i - 1]) if i > 0 else 0
        nxt = abs(w[i + 1]) if i < n - 1 else 0
        if prev < abs(w[i]) > nxt:
            count += 1
    return count


def stat_smax(word: Sequence[int]) -> int:
    """Signed maximum of a word with pairwise-distinct absolute values.

    Recursive min-split: write word = L, m, R with |m| minimal.
    - both parts empty: m
    - one part empty: m if m > 0, else recurse into the nonempty part
    - both nonempty, m > 0: recurse into the side with the larger minimum
      absolute value
    - both nonempty, m < 0: recurse into the side with the smaller minimum
      absolute value

    >>> stat_smax([2, 7, -8, 1, 6, -9, -3, -4, 5])
    5
    >>> stat_smax([2, -1, 3, -4])
    2
    """
    w = tuple(word)
    if not w:
        raise ValueError("smax of empty word")
    if len({abs(v) for v in w}) != len(w):
        raise ValueError("absolute values must be distinct")
    i = min(range(len(w)), key=lambda j: abs(w[j]))
    m = w[i]
    left, right = w[:i], w[i + 1 :]
    if not left and not right:
        return m
    if not left:
        return m if m > 0 else stat_smax(right)
    if not right:
        return m if m > 0 else stat_smax(left)
    min_l = min(abs(v) for v in left)
    min_r = min(abs(v) for v in right)
    if m > 0:
        return stat_smax(left) if min_l > min_r else stat_smax(right)
    return stat_smax(left) if min_l < min_r else stat_smax(right)


def stat_report(p: SignedPerm) -> dict[str, int | None]:
    """All window statistics; npk is None when the cycle form is not of
    cycle-up-down shape."""
    cf = cycle_form(p)
    try:
        npk: int | None = stat_npk(cf)
    except MalformedCudCycleFormError:
        npk = None
    aw = p.abs_window()
    return {
        "neg": stat_neg(p),
        "npk": npk,
        "spk": stat_spk(p),
        "smax": stat_smax(p.window),
        "valleys": len(valleys(aw)),
        "peaks": len(peaks(aw)),
        "ltr_min": len(left_to_right_minima(aw)),
    }
