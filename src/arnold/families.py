"""Exhaustive enumerators for the combinatorial families, flip equivalence
classes, perfect ranking of signed permutations, and the one-step
recurrence maps between indexed families.

The enumerators are generators: each family is built member by member from
unsigned permutations (with the sign patterns its rules allow) or, for
snakes and alternating permutations, from prefixes that still obey the
snake rules, and comes out in window order.  `windows()` and the `is_*`
membership predicates are the literal definitions and serve as the test
oracle; each type-D predicate is its type-B rule with one more rule on the
head (a snake negated, w2 > |w1|; a valley head -k made k, with
0 < w2 < k; a final bracket).  The snake and valley predicates answer
False for a tuple that `from_window` refuses, and the cycle predicates end
with `is_canonical`.  The valley rules read `signed_perm.valleys` of |w|:
a valley at 1-based position i lets the entry at 0-based index i be
negative.  The cycle-up-down generator walks and writes with
`signed_perm._orbits` and `_window_entries`.
Flip classes of permutations are grown by flood fill; a signed flip class
is one of them with a set of values negated, and the 2^n over one unsigned
class are built leaves up from the signings of its tree's subtrees, once
per subtree.
The statistic distributions of the harness are counted per unsigned
permutation without building the members.  Every enumeration refuses a
size above the package cap (`trees.check_size`) before it starts.  The
one-step maps rewrite cycle forms and windows; the cycle split of
`psi_cud_b` takes one step of the block walk (`trees.split_block`) on
the cycle's word, so no tree is built here.  Each step `psi_*` is its
family's membership test and then its kernel `psi_*_kernel`;
`_recurrence_step`, whose members come from `enumerate_indexed`, returns
the kernels' `StepRecord`s as a plain tuple.  `FlipClass` and `StepRecord`
are NamedTuples, like the `signed_perm` types; a FlipClass keeps its
members in `stored`.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import groupby, permutations, product
from math import comb, factorial
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .signed_perm import (
    Cycle,
    CycleForm,
    InvalidWindowError,
    SignedPerm,
    _cud_shape_error,
    _orbits,
    _window_entries,
    cycle_form,
    from_window,
    leaf_values,
    stat_neg,
    stat_npk,
    stat_smax,  # not called here: perfbench/layers.py times it as families.stat_smax
    stat_spk,  # likewise, as families.stat_spk
    valleys,
    window_of,
)
from .trees import SizeCapExceededError, check_size, complement, split_block, split_code

FAMILIES = (
    "alternating",
    "snakes-b",
    "snakes-d",
    "cud-a",
    "cud-b",
    "cud-d",
    "vs-b",
    "vs-d",
    "fl-b",
    "fl-d",
)

class IllegalFlipError(ValueError):
    pass


class IndexOutOfRangeError(ValueError):
    pass


class RankOutOfRangeError(ValueError):
    pass


class UnknownFamilyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# window iteration and perfect ranking

def windows(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n * n! windows in lexicographic order of the integer tuple."""

    def extend(prefix: tuple[int, ...], used: frozenset[int]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        for a in range(n, 0, -1):
            if a not in used:
                yield from extend(prefix + (-a,), used | {a})
        for a in range(1, n + 1):
            if a not in used:
                yield from extend(prefix + (a,), used | {a})

    yield from extend((), frozenset())


def _candidates(n: int, used: set[int]) -> list[int]:
    neg = [-a for a in range(n, 0, -1) if a not in used]
    pos = [a for a in range(1, n + 1) if a not in used]
    return neg + pos


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


# ---------------------------------------------------------------------------
# membership predicates

def is_alternating(w: Sequence[int]) -> bool:
    """w1 > w2 < w3 > ...; the literal rule of the alternating family and
    of the snakes, so it reads order only and does not test that w is a
    window."""
    return len(w) < 2 or (w[0] > w[1] and _up_down(w[1:]))


def _up_down(seq: Sequence[int]) -> bool:
    # s1 < s2 > s3 < ...
    return all(
        (seq[i] < seq[i + 1]) if i % 2 == 0 else (seq[i] > seq[i + 1])
        for i in range(len(seq) - 1)
    )


# The snake, cycle and valley predicates refuse empty input: no family
# has a member of size 0.  The snake and valley predicates also refuse
# what `from_window` refuses.

def _is_window(w: Sequence[int]) -> bool:
    try:
        from_window(w)
    except InvalidWindowError:
        return False
    return True


def _snake_b(w: Sequence[int]) -> bool:
    return bool(w) and w[0] > 0 and is_alternating(w)


def is_snake_b(w: Sequence[int]) -> bool:
    return _is_window(w) and _snake_b(w)


def is_snake_d(w: Sequence[int]) -> bool:
    # the negation of a type-B snake, with w2 > |w1|
    return _is_window(w) and _snake_b(tuple(-v for v in w)) and (len(w) < 2 or w[1] > -w[0])


def _cycles_up_down(cf: CycleForm) -> bool:
    return all(_up_down([abs(e) for e in c.entries]) for c in cf.cycles if not c.bracket)


def is_canonical(cf: CycleForm) -> bool:
    """True iff cf is the `cycle_form` of a signed permutation; a form
    whose window cannot be built is not."""
    try:
        return cycle_form(window_of(cf)) == cf
    except ValueError:
        return False


def is_cud_b(cf: CycleForm) -> bool:
    return bool(cf.cycles) and cf.is_special() and _cycles_up_down(cf) and is_canonical(cf)


def is_cud_d(cf: CycleForm) -> bool:
    return (bool(cf.cycles) and cf.cycles[-1].bracket and not _cud_shape_error(cf.cycles)
            and _cycles_up_down(cf) and is_canonical(cf))


def is_vs_b(w: Sequence[int]) -> bool:
    if not w or not _is_window(w):
        return False
    signable = valleys([abs(v) for v in w])
    return all(i in signable for i, v in enumerate(w) if v < 0)


def is_vs_d(w: Sequence[int]) -> bool:
    # w1 < 0 and 0 < w2 < |w1|; the rest is the type-B rule with w1 made
    # positive, which refuses w where `from_window` does
    if not w or w[0] >= 0 or (len(w) >= 2 and not 0 < w[1] < -w[0]):
        return False
    return is_vs_b((-w[0], *w[1:]))


# ---------------------------------------------------------------------------
# flips and flip classes

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


class FlipClass(NamedTuple):
    """A signed flip class.  `stored` holds its sorted members as a tuple,
    or as a callable that `members` calls to build them on read; equality
    and repr show the members, not what is stored."""

    canon: tuple[int, ...]
    stored: tuple[tuple[int, ...], ...] | Callable[[], tuple[tuple[int, ...], ...]]
    smax: int
    spk: int

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        return self.stored() if callable(self.stored) else self.stored

    def __eq__(self, other: object) -> bool:
        key = attrgetter("canon", "smax", "spk", "members")
        return isinstance(other, FlipClass) and key(self) == key(other)

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's !=

    def __hash__(self) -> int:
        return hash(self.canon)

    def __repr__(self) -> str:
        return (f"FlipClass(canon={self.canon!r}, members={self.members!r}, "
                f"smax={self.smax!r}, spk={self.spk!r})")

    def to_json(self) -> dict:
        members = [list(m) for m in self.members]
        return {"window": list(self.canon), "members": members, "smax": self.smax, "spk": self.spk}


@lru_cache(maxsize=None)
def unsigned_flip_classes(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Flip classes of ordinary permutations, as sorted member tuples, grown
    by flood fill: each class walks its own member list, appending the
    unseen images of its legal flips (see `flip`; k = 1 is the identity).
    Starts come in lexicographic order, so each is the least member of its
    class and the classes come out sorted."""
    check_size(n)
    seen: set[tuple[int, ...]] = set()
    out = []
    for start in permutations(range(1, n + 1)):
        if start in seen:
            continue
        seen.add(start)
        group = [start]
        for w in group:
            images = [w[::-1]]
            low = w[0]
            for k in range(1, n):
                if w[k] < low:
                    low = w[k]
                    if k > 1:
                        images.append(w[k - 1 :: -1] + w[k:])
            for img in images:
                if img not in seen:
                    seen.add(img)
                    group.append(img)
        out.append(tuple(sorted(group)))
    return tuple(out)


def _member_windows(unsigned: tuple[tuple[int, ...], ...]) -> Callable:
    """signs -> the sorted signed windows of one unsigned class.  The first
    call builds one itemgetter per permutation u, mapping signs to
    (signs[u_1 - 1], ...); an itemgetter of one index returns a scalar, so
    size 1 keeps signs.  Classes whose members are never read build none."""
    getters: tuple[Callable, ...] = ()

    def members(signs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        nonlocal getters
        if not getters:
            if len(unsigned[0]) == 1:
                getters = (tuple,)
            else:
                getters = tuple(itemgetter(*(a - 1 for a in u)) for u in unsigned)
        return _signed_members(getters, signs)

    return members


def _signed_members(getters: tuple[Callable, ...], signs: tuple[int, ...]):
    return tuple(sorted(get(signs) for get in getters))


def _subtree_signings(v: int, kids: list[list]) -> list[tuple[tuple[int, ...], int, int, int]]:
    """(least reading, mask of negated labels, smax, spk) for each signing
    of the subtree at v, from those of its children's subtrees `kids`, in
    increasing label order.  Readings over disjoint labels differ at their
    first entry, so the least reading puts first the side whose first
    entry is smaller.  smax follows the `stat_smax` walk: a leaf gives ±v;
    one child gives +v, or under -v the child's smax; two children give the
    larger child's smax under +v and the smaller's under -v.  spk counts the
    negated leaves."""
    bit = 1 << (v - 1)
    if not kids:
        return [((v,), 0, v, 0), ((-v,), bit, -v, 1)]
    out = []
    if len(kids) == 1:
        for r, mask, smax, spk in kids[0]:
            out.append(((v,) + r if v < r[0] else r + (v,), mask, v, spk))
            out.append(((-v,) + r if -v < r[0] else r + (-v,), mask | bit, smax, spk))
        return out
    for x, xmask, xsmax, xspk in kids[0]:
        for y, ymask, ysmax, yspk in kids[1]:
            left, right = (x, y) if x[0] < y[0] else (y, x)
            mask, spk = xmask | ymask, xspk + yspk
            out.append((left + (v,) + right, mask, ysmax, spk))
            out.append((left + (-v,) + right, mask | bit, xsmax, spk))
    return out


@lru_cache(maxsize=None)
def flip_classes(n: int) -> tuple[FlipClass, ...]:
    """All flip equivalence classes of signed windows of size n, ordered by
    canonical (least) member.  Each is an unsigned class U, every reading of
    one non-plane min-split tree T, with one of the 2^n sets of values
    negated.  The 2^n signed classes over U come from one pass over T,
    leaves up: each node's signings are built once from its children's
    (`_subtree_signings`), which gives canon, smax (T walked as `stat_smax`
    walks a word) and spk (the negated leaves).  A class's signs tuple is
    looked up by its mask, one per negated set.  The harness checks smax
    and spk on every member."""
    signs_of = [tuple(-a if mask >> (a - 1) & 1 else a for a in range(1, n + 1))
                for mask in range(1 << n)]
    classes = []
    for unsigned in unsigned_flip_classes(n):
        windows_of = _member_windows(unsigned)
        code = split_code(unsigned[0])
        signings: list[list] = [[]] * (n + 1)
        for v in range(n, 0, -1):  # labels increase away from the root
            kids = sorted(filter(None, code[2 * v - 2 : 2 * v]))
            signings[v] = _subtree_signings(v, [signings[c] for c in kids])
        for canon, mask, smax, spk in signings[1]:
            classes.append(FlipClass(canon, partial(windows_of, signs_of[mask]), smax, spk))
    classes.sort(key=lambda c: c.canon)
    return tuple(classes)


# ---------------------------------------------------------------------------
# family generators: each builds only members, in window order

def _up_down_perms(n: int) -> Iterator[list[tuple[int, ...]]]:
    """The cycles (`_orbits`, each from its least entry) of each permutation
    of 1..n whose cycles are all up-down, in lexicographic order."""
    for p in permutations(range(1, n + 1)):
        cycles = [e for e, _ in _orbits(p)]
        if all(map(_up_down, cycles)):
            yield cycles


def _signings(cycle: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The 2^(len-1) signings of a cycle that keep it a paired orbit: the
    leader positive, every other entry of either sign."""
    head, *rest = cycle
    return [(head, *(s * v for s, v in zip(signs, rest)))
            for signs in product((1, -1), repeat=len(rest))]


def _cud_members(n: int, side: str) -> tuple[CycleForm, ...]:
    """Cycle-up-down members of type `side`: "a" keeps every entry
    positive, "b" signs each cycle as a paired orbit, and "d" also needs
    the cycle with the largest leader to be a fixed point k, which becomes
    the bracket (k,-k).  Each member's window is its sort key."""
    found = []
    for cycles in _up_down_perms(n):
        bracket: tuple[Cycle, ...] = ()
        if side == "d":
            if len(cycles[-1]) > 1:
                continue
            k = cycles.pop()[0]
            bracket = (Cycle((k, -k), bracket=True),)
        signings = [[c] for c in cycles] if side == "a" else map(_signings, cycles)
        for signed in product(*signings):
            form = tuple(map(Cycle, signed)) + bracket
            found.append((_window_entries(form, n), CycleForm(form)))
    found.sort(key=itemgetter(0))
    return tuple(cf for _, cf in found)


def _vs_members(n: int, side: str) -> tuple[SignedPerm, ...]:
    """Valley signed permutations of type `side`.  Type D negates p[0],
    which must exceed p[1], so p[0] is no valley and p[1] stays positive."""
    found = []
    for p in permutations(range(1, n + 1)):
        head = list(p)
        if side == "d":
            if n > 1 and p[0] < p[1]:
                continue
            head[0] = -p[0]
        signable = sorted(valleys(p))
        for signs in product((1, -1), repeat=len(signable)):
            w = head[:]
            for i, s in zip(signable, signs):
                w[i] *= s
            found.append(tuple(w))
    found.sort()
    return tuple(SignedPerm(w) for w in found)


def _snakes(n: int, side: str) -> tuple[SignedPerm, ...]:
    """Snakes of type `side`, "b" or "d", or for "a" the type-B snakes with
    no negative entry (the alternating permutations).  Prefixes grow in the
    candidate order of `windows`, so members come out in window order, and
    a prefix is dropped as soon as it breaks a rule."""
    found = []

    def extend(prefix: tuple[int, ...], used: frozenset[int]) -> None:
        i = len(prefix)
        if i == n:
            found.append(SignedPerm(prefix))
            return
        for v in _candidates(n, used):
            if i == 0:
                ok = (v > 0) == (side != "d")
            elif i == 1 and side == "d":
                ok = v > -prefix[0]
            else:
                ok = (prefix[-1] > v) == ((i % 2 == 1) == (side != "d"))
            if ok and (v > 0 or side != "a"):
                extend(prefix + (v,), used | {abs(v)})

    extend((), frozenset())
    return tuple(found)


@lru_cache(maxsize=None)
def _enumerate(family: str, n: int):
    if family == "alternating":
        return _snakes(n, "a")
    if family in ("fl-b", "fl-d"):
        return tuple(c for c in flip_classes(n) if (c.smax > 0) == (family == "fl-b"))
    kind, _, side = family.partition("-")
    generate = {"snakes": _snakes, "cud": _cud_members, "vs": _vs_members}[kind]
    return generate(n, side)


def enumerate_family(family: str, n: int):
    """Every member of the family, exactly once, ordered by canonical window."""
    if family not in FAMILIES:
        raise UnknownFamilyError(family)
    check_size(n)
    return _enumerate(family, n)


def family_index(family: str, obj) -> int:
    """The indexing statistic: last-cycle leader for cycle families, first
    window entry for window families, signed maximum for flip classes."""
    if family in ("cud-a", "cud-b", "cud-d"):
        return obj.cycles[-1].leader
    if family in ("alternating", "snakes-b", "vs-b"):
        return obj.window[0]
    if family in ("snakes-d", "vs-d"):
        return -obj.window[0]
    if family == "fl-b":
        return obj.smax
    if family == "fl-d":
        return -obj.smax
    raise UnknownFamilyError(family)


def enumerate_indexed(family: str, n: int, k: int):
    """Members with index k; the disjoint union over k = 1..n is the family."""
    if not 1 <= k <= n:
        raise IndexOutOfRangeError(f"index {k} outside 1..{n}")
    enumerate_family(family, n)  # refuses an unknown family or n above the cap
    return _index_slices(family, n).get(k, ())


@lru_cache(maxsize=None)
def _index_slices(family: str, n: int) -> dict[int, tuple]:
    """The family split by index; the sort is stable, so slices keep family order."""
    index = partial(family_index, family)
    return {k: tuple(g) for k, g in groupby(sorted(enumerate_family(family, n), key=index), index)}


# ---------------------------------------------------------------------------
# statistic distributions, counted per unsigned permutation without
# building the members

def _times_cycle(ways: list[int], cycle: tuple[int, ...]) -> list[int]:
    """Fold one cycle into `ways`, the number of signings of the cycles so
    far with each count of negative leaves.  A cycle of length m whose
    min-split tree has L leaves (L = 0 for a fixed point, whose one entry
    stays positive) has C(L, j) * 2^(m-1-L) paired-orbit signings with j
    negative leaves."""
    m = len(cycle)
    leaves = len(leaf_values(cycle)) if m > 1 else 0
    out = [0] * (len(ways) + leaves)
    for i, w in enumerate(ways):
        for j in range(leaves + 1):
            out[i + j] += w * comb(leaves, j) << (m - 1 - leaves)
    return out


def cud_distribution(n: int) -> Counter:
    """Counter over (side, index, npk) for both cycle-up-down families,
    side "b" or "d", index = last-cycle leader.  Signings multiply over the
    cycles; a type-D member needs a final fixed point k, whose bracket
    (k,-k) adds one to npk."""
    check_size(n)
    counts: Counter = Counter()
    for cycles in _up_down_perms(n):
        *body, last = cycles
        ways = [1]
        for c in body:
            ways = _times_cycle(ways, c)
        if len(last) == 1:
            for npk, w in enumerate(ways):
                counts[("d", last[0], npk + 1)] += w
        for npk, w in enumerate(_times_cycle(ways, last)):
            counts[("b", last[0], npk)] += w
    return counts


def vs_distribution(n: int) -> Counter:
    """Counter over (side, first-entry index, neg) for the valley families."""
    check_size(n)
    counts: Counter = Counter()
    for p in permutations(range(1, n + 1)):
        signable = len(valleys(p))
        for j in range(signable + 1):
            ways = comb(signable, j)
            counts[("b", p[0], j)] += ways
            if n == 1 or p[0] > p[1]:
                counts[("d", p[0], j + 1)] += ways
    return counts


# ---------------------------------------------------------------------------
# one-step recurrence maps between indexed families

class StepRecord(NamedTuple):
    source: object
    case: str
    target_family: str
    target_n: int
    target_index: int
    image: object
    stat_before: int
    stat_after: int


def _remove_shift(v: int, removed: int) -> int:
    if abs(v) < removed:
        return v
    return v - 1 if v > 0 else v + 1


def _swap_abs(v: int, a: int, b: int) -> int:
    if abs(v) == a:
        return b if v > 0 else -b
    if abs(v) == b:
        return a if v > 0 else -a
    return v


def psi_cud_d_kernel(cf: CycleForm) -> StepRecord:
    """One recurrence step on a type-D cycle-up-down member with final
    bracket (k,-k), k >= 2: either drop the bracket (when k-1 leads the
    previous cycle) or slide the bracket down to (k-1,-(k-1)).  The
    membership of cf is not tested; `psi_cud_d` tests it."""
    k = cf.cycles[-1].leader
    if k < 2:
        raise IndexOutOfRangeError("step needs k >= 2")
    body = cf.cycles[:-1]
    before = stat_npk(cf)
    if any(c.leader == k - 1 for c in body):
        new = tuple(Cycle(tuple(_remove_shift(v, k) for v in c.entries)) for c in body)
        image = CycleForm(new)
        return StepRecord(cf, "i", "cud-b", cf.n - 1, k - 1, image, before, stat_npk(image))
    new = tuple(Cycle(tuple(_swap_abs(v, k - 1, k) for v in c.entries)) for c in body)
    image = CycleForm(new + (Cycle((k - 1, -(k - 1)), bracket=True),))
    return StepRecord(cf, "ii", "cud-d", cf.n, k - 1, image, before, stat_npk(image))


def _split_cycle(entries: tuple[int, ...], k: int) -> tuple[Cycle, Cycle]:
    """Split a signed up-down cycle (k, ...) that holds ±(k+1) into the
    cycles led by k and k+1, read off the word.

    One step of the block walk cuts the entries after k at k+1 into two
    parts, taken with the smaller minimum first and an empty part last;
    these are X and Y, swapped when k+1 is negative.  A part's word is the
    part, or its complement when it starts with an ascent, so that the new
    cycle stays up-down; both have the same block tree.  Every value keeps
    its sign.

    >>> [str(c) for c in _split_cycle((1, -4, 2, 3), 1)]
    ['(1)', '(2,-4,3)']
    >>> [str(c) for c in _split_cycle((1, 4, -2, 3), 1)]
    ['(1,4,3)', '(2)']
    """
    negative = {-v for v in entries if v < 0}
    left, _, right = split_block(tuple(map(abs, entries[1:])))
    x, y = (left, right) if left and min(left) < min(right) else (right, left)
    if k + 1 in negative:
        x, y = y, x

    def word(part: tuple[int, ...]) -> tuple[int, ...]:
        if len(part) > 1 and part[0] < part[1]:
            part = complement(part)
        return tuple(-v if v in negative else v for v in part)

    return Cycle((k, *word(y))), Cycle((k + 1, *word(x)))


def psi_cud_b_kernel(cf: CycleForm) -> StepRecord:
    """One recurrence step on a type-B cycle-up-down member with last-cycle
    leader k < n.

    (i) A final (k,-(k+1)) becomes the bracket (k,-k) and k+1 is deleted.
    (ii) A last cycle holding ±(k+1) is split in two by `_split_cycle`.
    Its tree (see `bijections.algo2`) is k:(k+1:(X,Y), o), and the split
    cycles are the ones whose trees are k:(Y, o) and k+1:(X, o); grafted
    together they give k:(Y, k+1:(X, o)).  The sign of k+1 decides which
    child is X, so sign twins stay apart, and the tree keeps its empty
    leaves, so npk is unchanged.
    (iii) Otherwise the values k and k+1 swap.

    The membership of cf is not tested; `psi_cud_b` tests it.
    """
    k = cf.cycles[-1].leader
    n = cf.n
    if k >= n:
        raise IndexOutOfRangeError("step needs k < n")
    last = cf.cycles[-1]
    body = cf.cycles[:-1]
    before = stat_npk(cf)
    if last.entries == (k, -(k + 1)):
        new = tuple(Cycle(tuple(_remove_shift(v, k + 1) for v in c.entries)) for c in body)
        image = CycleForm(new + (Cycle((k, -k), bracket=True),))
        return StepRecord(cf, "i", "cud-d", n - 1, k, image, before, stat_npk(image))
    if k + 1 in (abs(v) for v in last.entries):
        image = CycleForm(body + _split_cycle(last.entries, k))
        return StepRecord(cf, "ii", "cud-b", n, k + 1, image, before, stat_npk(image))
    new = tuple(Cycle(tuple(_swap_abs(v, k, k + 1) for v in c.entries)) for c in cf.cycles)
    image = CycleForm(new)
    return StepRecord(cf, "iii", "cud-b", n, k + 1, image, before, stat_npk(image))


def psi_cud_b(cf: CycleForm) -> StepRecord:
    """`psi_cud_b_kernel` of a type-B cycle-up-down member; ValueError on
    any other cycle form."""
    if not is_cud_b(cf):
        raise ValueError("not a type-B cycle-up-down cycle form")
    return psi_cud_b_kernel(cf)


def psi_cud_d(cf: CycleForm) -> StepRecord:
    """`psi_cud_d_kernel` of a type-D cycle-up-down member; ValueError on
    any other cycle form."""
    if not is_cud_d(cf):
        raise ValueError("not a type-D cycle-up-down cycle form")
    return psi_cud_d_kernel(cf)


def psi_cud_bridge(cf: CycleForm) -> StepRecord:
    """Swap a final singleton (n) with the bracket (n,-n) and back.
    The membership of cf is not tested, only its last cycle."""
    n = cf.n
    before = stat_npk(cf)
    last = cf.cycles[-1:]
    if last == (Cycle((n, -n), bracket=True),):
        image = CycleForm(cf.cycles[:-1] + (Cycle((n,)),))
        return StepRecord(cf, "bridge", "cud-b", n, n, image, before, stat_npk(image))
    if last != (Cycle((n,)),):
        raise ValueError("bridge step needs last cycle (n) or (n,-n)")
    image = CycleForm(cf.cycles[:-1] + (Cycle((n, -n), bracket=True),))
    return StepRecord(cf, "bridge", "cud-d", n, n, image, before, stat_npk(image))


def psi_vs_d_kernel(p: SignedPerm) -> StepRecord:
    """One recurrence step on a type-D valley member starting -k, k >= 2.
    The membership of p is not tested; `psi_vs_d` tests it."""
    w = p.window
    k = -w[0]
    if k < 2:
        raise IndexOutOfRangeError("step needs k >= 2")
    before = stat_neg(p)
    if w[1] == k - 1:
        image = from_window(tuple(_remove_shift(v, k) for v in w[1:]))
        return StepRecord(p, "1", "vs-b", p.n - 1, k - 1, image, before, stat_neg(image))
    image = from_window(tuple(_swap_abs(v, k - 1, k) for v in w))
    return StepRecord(p, "2", "vs-d", p.n, k - 1, image, before, stat_neg(image))


def psi_vs_b_kernel(p: SignedPerm) -> StepRecord:
    """One recurrence step on a type-B valley member starting k < n.

    A window [k, -(k+1), x, ...] drops its head when 0 < x < k; when x > k
    the head pair is rewritten to [k+1, k, -x, ...] instead, which keeps the
    step invertible.  Any other window swaps the values k and k+1.  The
    membership of p is not tested; `psi_vs_b` tests it.
    """
    w = p.window
    k = w[0]
    if k >= p.n:
        raise IndexOutOfRangeError("step needs k < n")
    before = stat_neg(p)
    if len(w) >= 2 and w[1] == -(k + 1):
        if p.n == 2 or 0 < w[2] < k:
            image = from_window(tuple(_remove_shift(v, k) for v in w[1:]))
            return StepRecord(p, "1", "vs-d", p.n - 1, k, image, before, stat_neg(image))
        image = from_window((k + 1, k, -w[2]) + w[3:])
        return StepRecord(p, "1b", "vs-b", p.n, k + 1, image, before, stat_neg(image))
    image = from_window(tuple(_swap_abs(v, k, k + 1) for v in w))
    return StepRecord(p, "2", "vs-b", p.n, k + 1, image, before, stat_neg(image))


def psi_vs_b(p: SignedPerm) -> StepRecord:
    """`psi_vs_b_kernel` of a type-B valley member; ValueError on any
    other window."""
    if not is_vs_b(p.window):
        raise ValueError("not a type-B valley signed permutation")
    return psi_vs_b_kernel(p)


def psi_vs_d(p: SignedPerm) -> StepRecord:
    """`psi_vs_d_kernel` of a type-D valley member; ValueError on any
    other window."""
    if not is_vs_d(p.window):
        raise ValueError("not a type-D valley signed permutation")
    return psi_vs_d_kernel(p)


def psi_vs_bridge(p: SignedPerm) -> StepRecord:
    """Negate a leading n (type B, index n) to -n (type D, index n) or back.
    The membership of p is not tested, only its first entry."""
    w = p.window
    before = stat_neg(p)
    if w[:1] == (p.n,):
        image = from_window((-p.n,) + w[1:])
        return StepRecord(p, "bridge", "vs-d", p.n, p.n, image, before, stat_neg(image))
    if w[:1] == (-p.n,):
        image = from_window((p.n,) + w[1:])
        return StepRecord(p, "bridge", "vs-b", p.n, p.n, image, before, stat_neg(image))
    raise ValueError("bridge step needs first entry n or -n")


def _recurrence_step(kind: str, n: int, k: int, side: str, psi_b, psi_d) -> tuple[StepRecord, ...]:
    """The one-step kernel's records over the members of `kind`-`side` with
    index k; the members come from the generators, so none is tested again."""
    if side == "d":
        if not 1 < k <= n:
            raise IndexOutOfRangeError("type-D step needs 1 < k <= n")
        return tuple(psi_d(m) for m in enumerate_indexed(f"{kind}-d", n, k))
    if side == "b":
        if not 1 <= k < n:
            raise IndexOutOfRangeError("type-B step needs 1 <= k < n")
        return tuple(psi_b(m) for m in enumerate_indexed(f"{kind}-b", n, k))
    raise ValueError("side must be 'b' or 'd'")


def recurrence_step_cud(n: int, k: int, side: str) -> tuple[StepRecord, ...]:
    """Apply the cycle-family one-step map to every member of cud-`side`
    with index k."""
    return _recurrence_step("cud", n, k, side, psi_cud_b_kernel, psi_cud_d_kernel)


def recurrence_step_vs(n: int, k: int, side: str) -> tuple[StepRecord, ...]:
    """Apply the valley-family one-step map to every member of vs-`side`
    with index k."""
    return _recurrence_step("vs", n, k, side, psi_vs_b_kernel, psi_vs_d_kernel)
