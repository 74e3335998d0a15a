"""Exhaustive enumerators for the combinatorial families, flip equivalence
classes, perfect ranking of signed permutations, and the one-step
recurrence maps between indexed families.

The enumerators are generators: each family is built member by member from
unsigned permutations (with the sign patterns its rules allow) or, for
snakes, from prefixes that still obey the snake rules, and comes out in
window order.  `windows()` and the `is_*` membership predicates are the
literal definitions and serve as the test oracle.  Flip classes of
permutations are grown by flood fill, and each signed flip class is one of
them with a set of values negated.  The statistic
distributions used by the verification harness are counted per unsigned
permutation without building the members.  Every enumeration refuses a
size above the package cap (`trees.check_size`) before it starts.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial
from typing import Iterator, Sequence

from .signed_perm import (
    Cycle,
    CycleForm,
    SignedPerm,
    cycle_form,  # not called here: perfbench/layers.py times it as families.cycle_form
    from_window,
    leaf_values,
    stat_neg,
    stat_npk,
    stat_smax,
    stat_spk,
    valley_values,
)
from .trees import EMPTY, Node, SizeCapExceededError, check_size

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

def _down_up(seq: Sequence[int]) -> bool:
    # s1 > s2 < s3 > ...
    return all(
        (seq[i] > seq[i + 1]) if i % 2 == 0 else (seq[i] < seq[i + 1])
        for i in range(len(seq) - 1)
    )


def _up_down(seq: Sequence[int]) -> bool:
    # s1 < s2 > s3 < ...
    return all(
        (seq[i] < seq[i + 1]) if i % 2 == 0 else (seq[i] > seq[i + 1])
        for i in range(len(seq) - 1)
    )


def is_alternating(w: Sequence[int]) -> bool:
    return _down_up(w)


def is_snake_b(w: Sequence[int]) -> bool:
    return w[0] > 0 and _down_up(w)


def is_snake_d(w: Sequence[int]) -> bool:
    if w[0] >= 0:
        return False
    if len(w) >= 2 and not w[0] > -w[1]:
        return False
    return _up_down(w)


def _cycles_up_down(cf: CycleForm) -> bool:
    return all(_up_down([abs(e) for e in c.entries]) for c in cf.cycles if not c.bracket)


def is_cud_b(cf: CycleForm) -> bool:
    return cf.is_special() and _cycles_up_down(cf)


def is_cud_d(cf: CycleForm) -> bool:
    last = cf.cycles[-1]
    if not last.bracket or len(last.entries) != 2:
        return False
    if any(c.bracket for c in cf.cycles[:-1]):
        return False
    return _cycles_up_down(cf)


def is_vs_b(w: Sequence[int]) -> bool:
    vv = valley_values([abs(v) for v in w])
    for i, v in enumerate(w):
        if v < 0 and (i == 0 or abs(w[i - 1]) not in vv):
            return False
    return True


def is_vs_d(w: Sequence[int]) -> bool:
    if w[0] >= 0:
        return False
    if len(w) >= 2 and not (w[1] > 0 and -w[0] > w[1]):
        return False
    vv = valley_values([abs(v) for v in w])
    for i in range(2, len(w)):
        if w[i] < 0 and abs(w[i - 1]) not in vv:
            return False
    return True


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


@dataclass(frozen=True)
class FlipClass:
    canon: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    smax: int
    spk: int

    @property
    def n(self) -> int:
        return len(self.canon)

    def to_json(self) -> dict:
        return {
            "window": list(self.canon),
            "members": [list(m) for m in self.members],
            "smax": self.smax,
            "spk": self.spk,
        }


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


@lru_cache(maxsize=None)
def flip_classes(n: int) -> tuple[FlipClass, ...]:
    """All flip equivalence classes of signed windows of size n, each with
    its sorted member list.  Flip legality reads only |entries| and every
    entry keeps its sign as it moves, so each class is an unsigned class
    with one of the 2^n sets of values negated.  smax and spk are read off
    the canonical member; the harness checks them on every member."""
    classes = []
    for unsigned in unsigned_flip_classes(n):
        for signs in product(*((a, -a) for a in range(1, n + 1))):
            members = sorted(tuple([signs[a - 1] for a in u]) for u in unsigned)
            canon = members[0]
            smax, spk = stat_smax(canon), stat_spk(SignedPerm(canon))
            classes.append(FlipClass(canon, tuple(members), smax, spk))
    classes.sort(key=lambda c: c.canon)
    return tuple(classes)


# ---------------------------------------------------------------------------
# family generators: each builds only members, in window order

def _perm_cycles(p: tuple[int, ...]) -> list[list[int]]:
    """Cycles of an unsigned permutation, each read from its least entry,
    in increasing order of that entry."""
    n = len(p)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start - 1]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x - 1]
        cycles.append(cyc)
    return cycles


def _up_down_perms(n: int) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """(p, cycles of p) for each permutation of 1..n, in lexicographic
    order, whose cycles are all up-down."""
    for p in permutations(range(1, n + 1)):
        cycles = _perm_cycles(p)
        if all(_up_down(c) for c in cycles):
            yield p, cycles


def _signings(cycle: list[int]) -> list[tuple[int, ...]]:
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
    for p, cycles in _up_down_perms(n):
        w = list(p)
        bracket: tuple[Cycle, ...] = ()
        if side == "d":
            if len(cycles[-1]) > 1:
                continue
            k = cycles.pop()[0]
            w[k - 1] = -k
            bracket = (Cycle((k, -k), bracket=True),)
        signings = [[tuple(c)] for c in cycles] if side == "a" else map(_signings, cycles)
        for signed in product(*signings):
            for c in signed:
                for x, y in zip(c, c[1:] + c[:1]):
                    w[abs(x) - 1] = y if x > 0 else -y
            found.append((tuple(w), CycleForm(tuple(map(Cycle, signed)) + bracket)))
    found.sort(key=lambda m: m[0])
    return tuple(cf for _, cf in found)


def _valley_successors(p: tuple[int, ...]) -> list[int]:
    """Positions of p whose entry follows a valley value: the entries a
    valley signed permutation over p may negate."""
    vv = valley_values(p)
    return [i for i in range(1, len(p)) if p[i - 1] in vv]


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
        signable = _valley_successors(p)
        for signs in product((1, -1), repeat=len(signable)):
            w = head[:]
            for i, s in zip(signable, signs):
                w[i] *= s
            found.append(tuple(w))
    found.sort()
    return tuple(SignedPerm(w) for w in found)


def _snakes(n: int, side: str) -> tuple[SignedPerm, ...]:
    """Snakes of type `side`.  Prefixes grow in the candidate order of
    `windows`, so members come out in window order, and a prefix is dropped
    as soon as it breaks the alternation or the rule on its first entries."""
    found = []

    def extend(prefix: tuple[int, ...], used: frozenset[int]) -> None:
        i = len(prefix)
        if i == n:
            found.append(SignedPerm(prefix))
            return
        for v in _candidates(n, used):
            if i == 0:
                ok = (v > 0) == (side == "b")
            elif i == 1 and side == "d":
                ok = v > -prefix[0]
            else:
                ok = (prefix[-1] > v) == ((i % 2 == 1) == (side == "b"))
            if ok:
                extend(prefix + (v,), used | {abs(v)})

    extend((), frozenset())
    return tuple(found)


@lru_cache(maxsize=None)
def _enumerate(family: str, n: int):
    if family == "alternating":
        return tuple(SignedPerm(p) for p in permutations(range(1, n + 1)) if is_alternating(p))
    if family == "fl-b":
        return tuple(c for c in flip_classes(n) if c.smax > 0)
    if family == "fl-d":
        return tuple(c for c in flip_classes(n) if c.smax < 0)
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
    return tuple(obj for obj in enumerate_family(family, n) if family_index(family, obj) == k)


# ---------------------------------------------------------------------------
# statistic distributions, counted per unsigned permutation without
# building the members

def _times_cycle(ways: list[int], cycle: list[int]) -> list[int]:
    """Fold one cycle into `ways`, the number of signings of the cycles so
    far with each count of negative leaves.  A cycle of length m whose
    min-split tree has L leaves (L = 0 for a fixed point, whose one entry
    stays positive) has C(L, j) * 2^(m-1-L) paired-orbit signings with j
    negative leaves."""
    m = len(cycle)
    leaves = len(leaf_values(tuple(cycle))) if m > 1 else 0
    out = [0] * (len(ways) + leaves)
    for i, w in enumerate(ways):
        for j in range(leaves + 1):
            out[i + j] += w * comb(leaves, j) << (m - 1 - leaves)
    return out


@lru_cache(maxsize=None)
def cud_distribution(n: int) -> Counter:
    """Counter over (side, index, npk) for both cycle-up-down families,
    side "b" or "d", index = last-cycle leader.  Signings multiply over the
    cycles; a type-D member needs a final fixed point k, whose bracket
    (k,-k) adds one to npk."""
    check_size(n)
    counts: Counter = Counter()
    for _p, cycles in _up_down_perms(n):
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


@lru_cache(maxsize=None)
def vs_distribution(n: int) -> Counter:
    """Counter over (side, first-entry index, neg) for the valley families."""
    check_size(n)
    counts: Counter = Counter()
    for p in permutations(range(1, n + 1)):
        signable = len(_valley_successors(p))
        for j in range(signable + 1):
            ways = comb(signable, j)
            counts[("b", p[0], j)] += ways
            if n == 1 or p[0] > p[1]:
                counts[("d", p[0], j + 1)] += ways
    return counts


# ---------------------------------------------------------------------------
# one-step recurrence maps between indexed families

@dataclass(frozen=True)
class StepRecord:
    source: object
    case: str
    target_family: str
    target_n: int
    target_index: int
    image: object
    stat_before: int
    stat_after: int


@dataclass(frozen=True)
class StepReport:
    family: str
    side: str
    n: int
    k: int
    records: tuple[StepRecord, ...]


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


def psi_cud_d(cf: CycleForm) -> StepRecord:
    """One recurrence step on a type-D cycle-up-down member with final
    bracket (k,-k), k >= 2: either drop the bracket (when k-1 leads the
    previous cycle) or slide the bracket down to (k-1,-(k-1))."""
    if not is_cud_d(cf):
        raise ValueError("not a type-D cycle-up-down cycle form")
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


def psi_cud_b(cf: CycleForm) -> StepRecord:
    """One recurrence step on a type-B cycle-up-down member with last-cycle
    leader k < n.

    (i) A final (k,-(k+1)) becomes the bracket (k,-k) and k+1 is deleted.
    (ii) A last cycle holding ±(k+1) is split in two.  Its tree (see
    `bijections.algo2`) is k:(k+1:(X,Y), o), and the split cycles are the
    ones whose trees are k:(Y, o) and k+1:(X, o); grafted together they
    give k:(Y, k+1:(X, o)).  The sign of k+1 decides which child is X, so
    sign twins stay apart, and the tree keeps its empty leaves, so npk is
    unchanged.
    (iii) Otherwise the values k and k+1 swap.
    """
    if not is_cud_b(cf):
        raise ValueError("not a type-B cycle-up-down cycle form")
    k = cf.cycles[-1].leader
    if k >= cf.n:
        raise IndexOutOfRangeError("step needs k < n")
    last = cf.cycles[-1]
    body = cf.cycles[:-1]
    before = stat_npk(cf)
    if last.entries == (k, -(k + 1)):
        new = tuple(Cycle(tuple(_remove_shift(v, k + 1) for v in c.entries)) for c in body)
        image = CycleForm(new + (Cycle((k, -k), bracket=True),))
        return StepRecord(cf, "i", "cud-d", cf.n - 1, k, image, before, stat_npk(image))
    if k + 1 in (abs(v) for v in last.entries):
        from .bijections import algo2, algo2_inverse  # bijections imports this module

        x, y = algo2(last.entries).children[0].children
        first = Cycle(algo2_inverse(Node(k, (y, EMPTY))))
        second = Cycle(algo2_inverse(Node(k + 1, (x, EMPTY))))
        image = CycleForm(body + (first, second))
        return StepRecord(cf, "ii", "cud-b", cf.n, k + 1, image, before, stat_npk(image))
    new = tuple(Cycle(tuple(_swap_abs(v, k, k + 1) for v in c.entries)) for c in cf.cycles)
    image = CycleForm(new)
    return StepRecord(cf, "iii", "cud-b", cf.n, k + 1, image, before, stat_npk(image))


def psi_cud_bridge(cf: CycleForm) -> StepRecord:
    """Swap a final singleton (n) with the bracket (n,-n) and back."""
    n = cf.n
    last = cf.cycles[-1]
    before = stat_npk(cf)
    if last.bracket:
        image = CycleForm(cf.cycles[:-1] + (Cycle((n,)),))
        return StepRecord(cf, "bridge", "cud-b", n, n, image, before, stat_npk(image))
    if last.entries != (n,):
        raise ValueError("bridge step needs last cycle (n) or (n,-n)")
    image = CycleForm(cf.cycles[:-1] + (Cycle((n, -n), bracket=True),))
    return StepRecord(cf, "bridge", "cud-d", n, n, image, before, stat_npk(image))


def psi_vs_d(p: SignedPerm) -> StepRecord:
    """One recurrence step on a type-D valley member starting -k, k >= 2."""
    if not is_vs_d(p.window):
        raise ValueError("not a type-D valley signed permutation")
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


def psi_vs_b(p: SignedPerm) -> StepRecord:
    """One recurrence step on a type-B valley member starting k < n.

    A window [k, -(k+1), x, ...] drops its head when 0 < x < k; when x > k
    the head pair is rewritten to [k+1, k, -x, ...] instead, which keeps the
    step invertible.  Any other window swaps the values k and k+1.
    """
    if not is_vs_b(p.window):
        raise ValueError("not a type-B valley signed permutation")
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


def psi_vs_bridge(p: SignedPerm) -> StepRecord:
    """Negate a leading n (type B, index n) to -n (type D, index n) or back."""
    w = p.window
    before = stat_neg(p)
    if w[0] == p.n:
        image = from_window((-p.n,) + w[1:])
        return StepRecord(p, "bridge", "vs-d", p.n, p.n, image, before, stat_neg(image))
    if w[0] == -p.n:
        image = from_window((p.n,) + w[1:])
        return StepRecord(p, "bridge", "vs-b", p.n, p.n, image, before, stat_neg(image))
    raise ValueError("bridge step needs first entry n or -n")


def _recurrence_step(kind: str, n: int, k: int, side: str, psi_b, psi_d) -> StepReport:
    """Apply the one-step map to every member of the indexed family."""
    if side == "d":
        if not 1 < k <= n:
            raise IndexOutOfRangeError("type-D step needs 1 < k <= n")
        records = tuple(psi_d(m) for m in enumerate_indexed(f"{kind}-d", n, k))
    elif side == "b":
        if not 1 <= k < n:
            raise IndexOutOfRangeError("type-B step needs 1 <= k < n")
        records = tuple(psi_b(m) for m in enumerate_indexed(f"{kind}-b", n, k))
    else:
        raise ValueError("side must be 'b' or 'd'")
    return StepReport(kind, side, n, k, records)


def recurrence_step_cud(n: int, k: int, side: str) -> StepReport:
    """Apply the cycle-family one-step map to every member of cud-`side`
    with index k."""
    return _recurrence_step("cud", n, k, side, psi_cud_b, psi_cud_d)


def recurrence_step_vs(n: int, k: int, side: str) -> StepReport:
    """Apply the valley-family one-step map to every member of vs-`side`
    with index k."""
    return _recurrence_step("vs", n, k, side, psi_vs_b, psi_vs_d)
