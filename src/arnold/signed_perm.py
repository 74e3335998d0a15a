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
InvalidWindowError, instead of looping or miscounting.  Only `valleys`
and `peaks` find the turning points of a sequence, except `stat_report`:
it reads the window once for all its statistics, valleys and peaks among
them (through `valleys` and `peaks` it took 20-40% longer on the vs-b and
cud-b members at n = 4), and takes the cycle form from its caller when
the caller already holds it.

Cycles are read as plain (entries, bracket) pairs, which a `Cycle` is
too.  `_orbits` is the one orbit walk: `cycle_form` wraps its pairs, and
the cycle-up-down generator reads permutations' cycles with it.
`_window_entries` is the one write loop, run by `window_of` after its
checks and unchecked on a generated member's cycles.  `_cud_shape_error`
gives the verdict on the cycle-up-down shape that `stat_npk` raises and
`stat_report` reports as npk None, and `_npk` counts negative leaves
(building a min-split tree only for a plain cycle with a negative entry).
"""
from __future__ import annotations

from itertools import starmap
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
        return sum(len(set(map(abs, c.entries))) for c in self.cycles)

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


def _orbits(w: Sequence[int]) -> list[tuple[tuple[int, ...], bool]]:
    """The (entries, bracket) pair of each paired orbit of the window w, as
    `cycle_form` lists them.  InvalidWindowError as `cycle_form` gives it."""
    n = len(w)
    seen = [False] * (n + 1)
    orbits = []
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
        orbits.append((tuple(orbit), -m in orbit))
    return orbits


def cycle_form(p: SignedPerm) -> CycleForm:
    """Canonical cycle form of a signed permutation.

    Each paired orbit is listed once, starting at the positive value of its
    minimal absolute entry.  An orbit that closes through negation (contains
    both x and -x) is stored in full with bracket=True.

    >>> str(cycle_form(from_window([-2, -4, 3, 1, -6, -7, 5])))
    '(1,-2,4)(3)(5,-6,7)'
    >>> str(cycle_form(from_window([-2, 4, -5, -1, 9, 6, 3, -8, 7])))
    '(1,-2,-4)[3,-5,-9,-7,-3,5,9,7](6)[8,-8]'

    The orbits are walked on the window itself (`_orbits`).  Raises
    InvalidWindowError exactly where `from_window` would refuse a window
    of ints: a step whose |x| leaves 1..n, or an orbit past 2n entries
    (one that never returns to its start), shows that the window is not a
    signed permutation, and a walk with neither is one.
    """
    return CycleForm(tuple(starmap(Cycle, _orbits(p.window))))


def _window_entries(cycles: Iterable[tuple[Sequence[int], bool]], n: int) -> list[int]:
    """The window of size n that the (entries, bracket) cycles write, each
    entry x sending x to its successor in the cycle; `window_of` checks
    the cycles first, and a generated member's cycles need no check."""
    window = [0] * n
    for e, _ in cycles:
        for x, y in zip(e, e[1:] + e[:1]):
            if x > 0:
                window[x - 1] = y
            else:
                window[-x - 1] = -y
    return window


def window_of(cf: CycleForm) -> SignedPerm:
    """Rebuild the window from a canonical cycle form (inverse of cycle_form).

    Raises ValueError unless the labels |x| are 1..n, each in one cycle:
    once in a plain cycle, and in a bracket cycle once in each half, the
    second half negating the first.  The cycles are read in order, each
    bracket's halves first and then whether a label exceeds n, so of two
    faulty cycles the first is reported.  The rest is one count and one
    zero test after `_window_entries` writes the window, as n plain and
    first-half entries must write all n slots (a label 0 leaves the slot
    of its predecessor at 0).
    """
    n = cf.n
    written = 0
    for c in cf.cycles:
        e = c.entries
        labels = len(e) // 2 if c.bracket else len(e)
        if c.bracket and (len(e) % 2 or e[labels:] != tuple(map(neg, e[:labels]))):
            raise ValueError(f"bracket cycle {c} is not labels followed by their negatives")
        if max(map(abs, e), default=0) > n:
            break
        written += labels
    else:
        if written == n:
            window = _window_entries(cf.cycles, n)
            if 0 not in window:
                return from_window(window)
    raise ValueError(f"labels of {cf} are not 1..{n}, each in one cycle once")


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


def _cud_shape_error(cycles: Sequence[tuple[Sequence[int], bool]]) -> str | None:
    """Why the (entries, bracket) cycles are not special or special plus a
    final (k,-k) bracket, or None when they are."""
    brackets = [i for i, c in enumerate(cycles) if c[1]]
    if not brackets:
        return None
    if len(brackets) > 1:
        return "more than one bracket cycle"
    i = brackets[0]
    e = cycles[i][0]
    if i != len(cycles) - 1:
        return "bracket cycle is not last"
    if len(e) != 2 or e[1] != -e[0]:
        return "bracket cycle is not of the form (k,-k)"
    return None


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
    error = _cud_shape_error(cf.cycles)
    if error:
        raise MalformedCudCycleFormError(error)
    return _npk(cf.cycles)


def _npk(cycles: Iterable[tuple[Sequence[int], bool]]) -> int:
    """`stat_npk` of (entries, bracket) cycles of cycle-up-down shape: 1 for
    the bracket, and for each plain cycle its negative entries whose
    absolute value `leaf_values` finds, so a cycle with no negative entry
    builds no tree."""
    total = 0
    for e, bracket in cycles:
        if bracket:
            total += 1
            continue
        negatives = [-v for v in e if v < 0]
        if negatives:
            leaves = leaf_values(tuple(map(abs, e)))
            total += sum(1 for v in negatives if v in leaves)
    return total


def _abs_peaks(aw: Sequence[int]) -> list[int]:
    """0-based positions whose entry exceeds both neighbours, with zero
    padding at both ends: the `peaks` of (0, *aw), one place to the left.

    >>> _abs_peaks((2, 1, 3, 4))
    [0, 3]
    """
    return sorted(i - 2 for i in peaks((0, *aw)))


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
    cycle-up-down shape (`_cud_shape_error`), where `stat_npk` raises.
    `cf` is `cycle_form(p)`; when it is not given, the orbits of the
    window (`_orbits`, which refuses a non-window) are read as they are,
    with no form built.  The window is then read once.

    Valleys and peaks are the strict minima and maxima of |w| between
    +infinity and 0 (see `valleys` and `peaks`); spk's peaks pad with 0 on
    both sides, so they add position 1 when |w| falls from it.

    >>> stat_report(from_window([2, -1, 3, -4]))
    {'neg': 2, 'npk': None, 'spk': 1, 'smax': 2, 'valleys': 1, 'peaks': 1, 'ltr_min': 2}
    """
    w = p.window
    cycles = _orbits(w) if cf is None else cf.cycles
    npk = None if _cud_shape_error(cycles) else _npk(cycles)
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
