"""Signed permutations, canonical cycle forms, and permutation statistics.

A signed permutation of size n is written in window notation: a tuple of n
nonzero integers whose absolute values are exactly 1..n.  It extends to a
bijection of {-n..-1, 1..n} via sigma(-i) = -sigma(i).

`SignedPerm`, `Cycle` and `CycleForm` are NamedTuples, so they hash,
compare, iterate and order like the tuples of their fields: a SignedPerm
equals the tuple (window,), and `x._replace(...)` gives a changed copy.
`CycleForm.n` counts the labels on every read; nothing is cached.

`SignedPerm` validates nothing; `from_window` does.  `cycle_form` and
`stat_spk` refuse a window that `from_window` refuses, with
InvalidWindowError, instead of looping or miscounting.  `stat_report`
reads the window once for all its statistics, and takes the cycle form
from its caller when the caller already holds it.
"""
from __future__ import annotations

from functools import lru_cache
from operator import neg
from typing import Iterable, NamedTuple, Sequence

from .trees import block_code


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


class SignedPerm(NamedTuple):
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
        return tuple(map(abs, self.window))

    def to_json(self) -> list[int]:
        return list(self.window)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.window) + "]"


def from_window(ints: Iterable[int]) -> SignedPerm:
    """Validate a window of ints and build a SignedPerm; the size is inferred.

    >>> from_window([2, -4, 3, 1]).n
    4
    """
    window = tuple(ints)
    n = len(window)
    seen: set[int] = set()
    for v in window:
        if type(v) is not int:
            raise InvalidWindowError(f"window entry {v!r} is not an int")
        if v == 0:
            raise ZeroEntryError("window entries must be nonzero")
        a = abs(v)
        if a in seen:
            raise RepeatedAbsValueError(f"absolute value {a} repeated")
        seen.add(a)
    if seen != set(range(1, n + 1)):
        raise AbsValueOutOfRangeError(f"absolute values must be 1..{n}")
    return SignedPerm(window)


class Cycle(NamedTuple):
    entries: tuple[int, ...]
    bracket: bool = False

    @property
    def leader(self) -> int:
        return self.entries[0]

    def __str__(self) -> str:
        body = ",".join(str(v) for v in self.entries)
        return f"[{body}]" if self.bracket else f"({body})"


class CycleForm(NamedTuple):
    cycles: tuple[Cycle, ...]

    @property
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

    The orbits are walked on the window itself.  Raises InvalidWindowError
    exactly where `from_window` would refuse a window of ints: a step
    whose |x| leaves 1..n, or an orbit past 2n entries (one that never
    returns to its start), shows that the window is not a signed
    permutation, and a walk with neither is one.
    """
    w = p.window
    n = len(w)
    seen = [False] * (n + 1)
    cycles = []
    for m in range(1, n + 1):
        if seen[m]:
            continue
        orbit = [m]
        x = w[m - 1]
        while x != m:
            a = x if x > 0 else -x
            if not 0 < a <= n or len(orbit) == 2 * n:
                raise InvalidWindowError(f"{w} is not the window of a signed permutation")
            seen[a] = True
            orbit.append(x)
            x = w[a - 1] if x > 0 else -w[a - 1]
        cycles.append(Cycle(tuple(orbit), -m in orbit))
    return CycleForm(tuple(cycles))


def window_of(cf: CycleForm) -> SignedPerm:
    """Rebuild the window from a canonical cycle form (inverse of cycle_form).

    Raises ValueError unless the labels |x| are 1..n, each in one cycle:
    once in a plain cycle, and in a bracket cycle once in each half, the
    second half negating the first.  The halves are compared; the rest is
    one count and one zero test, as n plain and first-half entries must
    write all n slots (a label above n fails its write, and a label 0
    leaves the slot of its predecessor at 0).
    """
    n = cf.n
    window = [0] * n
    written = 0
    try:
        for c in cf.cycles:
            e = c.entries
            if c.bracket:
                half = len(e) // 2
                if len(e) % 2 or e[half:] != tuple(map(neg, e[:half])):
                    raise ValueError(f"bracket cycle {c} is not labels followed by their negatives")
                written += half
            else:
                written += len(e)
            for x, y in zip(e, e[1:] + e[:1]):
                if x > 0:
                    window[x - 1] = y
                else:
                    window[-x - 1] = -y
    except IndexError:
        written = -1
    if written != n or 0 in window:
        raise ValueError(f"labels of {cf} are not 1..{n}, each in one cycle once")
    return from_window(window)


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
    positive integers, the non-plane tree that `trees.block_code` writes.

    >>> sorted(leaf_values((1, 4, 2, 3)))
    [4]
    >>> sorted(leaf_values((1, 5, 3, 4, 2)))
    [4, 5]
    """
    code = block_code(seq)
    return frozenset(v for v in seq if not code[2 * v - 2])


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


def _abs_peaks(aw: Sequence[int]) -> list[int]:
    """0-based positions whose entry exceeds both neighbours, with zero
    padding at both ends.

    >>> _abs_peaks((2, 1, 3, 4))
    [0, 3]
    """
    padded = (0, *aw, 0)
    positions = []
    for i in range(len(aw)):
        if padded[i] < padded[i + 1] > padded[i + 2]:
            positions.append(i)
    return positions


def _negatives_at(w: Sequence[int], positions: Iterable[int]) -> int:
    """How many entries of w at the given positions are negative."""
    count = 0
    for i in positions:
        if w[i] < 0:
            count += 1
    return count


def stat_spk(p: SignedPerm) -> int:
    """Signed peaks: negative entries that are absolute-value peaks, with
    zero padding at both ends of the window; the count of the window's
    negatives (`_negatives_at`) at the peaks of |window| (`_abs_peaks`).
    Raises InvalidWindowError where `from_window` refuses the window."""
    from_window(p.window)
    return _negatives_at(p.window, _abs_peaks(p.abs_window()))


def stat_smax(word: Sequence[int]) -> int:
    """Signed maximum of a word with pairwise-distinct absolute values.

    Recursive min-split: write word = L, m, R with |m| minimal.
    - both parts empty: m
    - one part empty: m if m > 0, else recurse into the nonempty part
    - both nonempty, m > 0: recurse into the side with the larger minimum
      absolute value
    - both nonempty, m < 0: recurse into the side with the smaller minimum
      absolute value

    The word is validated here, then walked by `_smax_walk` in the order
    of its absolute values.

    >>> stat_smax([2, 7, -8, 1, 6, -9, -3, -4, 5])
    5
    >>> stat_smax([2, -1, 3, -4])
    2
    """
    w = tuple(word)
    if not w:
        raise ValueError("smax of empty word")
    a = [abs(v) for v in w]
    if len(set(a)) != len(a):
        raise ValueError("absolute values must be distinct")
    return _smax_walk(w, sorted(range(len(w)), key=a.__getitem__))


def _smax_walk(w: Sequence[int], order: Iterable[int]) -> int:
    """smax of a nonempty word w with distinct absolute values, given its
    positions `order` in increasing |entry|; the order depends on |w| only.

    >>> _smax_walk((2, -1, 3, -4), (1, 0, 2, 3))
    2
    """
    # Meet the positions in increasing |entry|.  The first one met inside the
    # block w[lo:hi] is its minimum m = w[i]; the next one met there is the
    # lesser of the two sides' minima, so m > 0 moves to the other side (and
    # stops if that side is empty) and m < 0 moves to this side.
    lo, hi, i, m = 0, len(w), -1, None
    for j in order:
        if not lo <= j < hi:
            continue
        if m is not None:
            lo, hi = (lo, i) if (j < i) != (m > 0) else (i + 1, hi)
            if m > 0:
                if lo == hi:
                    return m
                m = None
                continue
        i, m = j, w[j]
    return m


def stat_report(p: SignedPerm, cf: CycleForm | None = None) -> dict[str, int | None]:
    """All window statistics; npk is None when the cycle form is not of
    cycle-up-down shape.  `cf` is `cycle_form(p)`, computed here when not
    given, which refuses a non-window; the window is then read once.

    Valleys and peaks are the strict minima and maxima of |w| between
    +infinity and 0 (see `valleys` and `peaks`); spk's peaks pad with 0 on
    both sides, so they add position 1 when |w| falls from it.

    >>> stat_report(from_window([2, -1, 3, -4]))
    {'neg': 2, 'npk': None, 'spk': 1, 'smax': 2, 'valleys': 1, 'peaks': 1, 'ltr_min': 2}
    """
    if cf is None:
        cf = cycle_form(p)
    try:
        npk: int | None = stat_npk(cf)
    except MalformedCudCycleFormError:
        npk = None
    w = p.window
    if not w:
        raise ValueError("smax of empty word")
    n = len(w)
    aw = [abs(v) for v in w]
    neg = spk = n_valleys = n_peaks = ltr_min = 0
    prev = low = n + 1  # above every |entry|
    for v, cur, nxt in zip(w, aw, aw[1:] + [0]):
        if v < 0:
            neg += 1
        if cur < low:
            ltr_min += 1
            low = cur
        if cur > nxt:
            if prev < cur:
                n_peaks += 1
                if v < 0:
                    spk += 1
        elif prev > cur:
            n_valleys += 1
        prev = cur
    if w[0] < 0 and aw[0] > (aw[1] if n > 1 else 0):
        spk += 1
    return {
        "neg": neg,
        "npk": npk,
        "spk": spk,
        "smax": _smax_walk(w, sorted(range(n), key=aw.__getitem__)),
        "valleys": n_valleys,
        "peaks": n_peaks,
        "ltr_min": ltr_min,
    }
