"""Maps from cycle-up-down permutations, valley signed permutations, and
flip classes to complete increasing binary trees.

The cycle route: an up-down sequence becomes a non-plane complete
increasing tree (min-split after an optional complement whenever the
maximum precedes the minimum), the entry signs then orient each node's
children, and the per-cycle trees are chained along empty right children.

The window route: the classical min-split tree of the absolute window
(left factor mapped to the *right* subtree), with empty children removed
at the peak paired with each negated valley successor.

The flip route: a min-split on absolute values whose child orientation is
decided by the pivot sign together with which side holds the smaller
minimum, making the image constant on flip classes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .families import FlipClass, is_cud_b, is_cud_d, is_vs_b, is_vs_d
from .signed_perm import Cycle, CycleForm, SignedPerm, peaks, valleys
from .trees import EMPTY, Node, labels


class MalformedSequenceError(ValueError):
    pass


class MalformedCycleError(ValueError):
    pass


class NotInFamilyError(ValueError):
    pass


class MissingPeakError(AssertionError):
    pass


def double_bracket(seq: Sequence[int]) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """Split a sequence of distinct integers at its minimum entry.

    >>> double_bracket((7, 4, 9, 8))
    ((7,), 4, (9, 8))
    """
    s = tuple(seq)
    if not s:
        raise MalformedSequenceError("empty sequence")
    i = s.index(min(s))
    return s[:i], s[i], s[i + 1 :]


def complement(seq: Sequence[int]) -> tuple[int, ...]:
    """Replace the i-th smallest value by the i-th greatest, in place.

    >>> complement((2, 6, 3))
    (6, 2, 3)
    """
    s = tuple(seq)
    ordered = sorted(s)
    swap = {v: ordered[len(s) - 1 - i] for i, v in enumerate(ordered)}
    return tuple(swap[v] for v in s)


@dataclass(frozen=True)
class NPNode:
    """Non-plane node: two unordered child slots, canonically ordered with
    labelled children (by label) before empty ones."""

    label: int
    children: tuple[object, object]


def _np(label: int, a, b) -> NPNode:
    kids = sorted((a, b), key=lambda c: (c is EMPTY, getattr(c, "label", 0)))
    return NPNode(label, (kids[0], kids[1]))


def algo1(seq: Sequence[int]):
    """Map a sequence of distinct integers to a non-plane complete
    increasing tree; all its leaves are empty."""
    s = tuple(seq)
    if len(set(s)) != len(s):
        raise MalformedSequenceError("entries must be distinct")
    if not s:
        return EMPTY
    if s.index(max(s)) < s.index(min(s)):
        s = complement(s)
    left, pivot, right = double_bracket(s)
    return _np(pivot, algo1(left), algo1(right))


def algo2(cycle: Sequence[int]) -> Node:
    """Orient the non-plane tree of a signed up-down cycle.

    Negative entries pull their labelled child (or the smaller of two) to
    the right and drop empty-leaf pairs; positive entries do the mirror
    image.  The root is the cycle leader and keeps an empty right child.
    """
    entries = tuple(cycle)
    if not entries or entries[0] <= 0:
        raise MalformedCycleError("cycle leader must be positive")
    if len({abs(v) for v in entries}) != len(entries):
        raise MalformedCycleError("entries must have distinct absolute values")
    sign = {abs(v): v > 0 for v in entries}
    np_tree = algo1([abs(v) for v in entries])

    def orient(t) -> object:
        if t is EMPTY:
            return EMPTY
        a, b = t.children
        positive = sign[t.label]
        if a is EMPTY and b is EMPTY:
            return Node(t.label) if not positive else Node(t.label, (EMPTY, EMPTY))
        if b is EMPTY:
            child = orient(a)
            return Node(t.label, (child, EMPTY) if positive else (EMPTY, child))
        small, large = orient(a), orient(b)  # canonical order: smaller label first
        return Node(t.label, (small, large) if positive else (large, small))

    return orient(np_tree)


def algo2_inverse(t: Node) -> tuple[int, ...]:
    """The signed up-down cycle c with algo2(c) == t.

    Each node's sign is read off its orientation.  The absolute values are
    rebuilt block by block: the child holding the block's largest label
    lies right of the minimum, and the block was complemented exactly when
    the size of the part left of the minimum forces a starting direction
    other than the one the block must have.

    >>> algo2_inverse(algo2((1, -4, -2, 3)))
    (1, -4, -2, 3)
    """
    sign: dict[int, int] = {}

    def word(s) -> tuple[int, ...]:
        # the word on the labels of s that starts with a descent and whose
        # min-split tree has the shape of s; its complement starts with an
        # ascent and has the same tree
        if s is EMPTY:
            return ()
        if s.children is None:
            sign[s.label] = -1
            return (s.label,)
        a, b = s.children
        if a is EMPTY or b is EMPTY:
            sign[s.label] = 1 if b is EMPTY else -1
        else:
            sign[s.label] = 1 if a.label < b.label else -1
        kids = sorted((word(c) for c in (a, b) if c is not EMPTY), key=max)
        right = kids.pop() if kids else ()
        left = kids.pop() if kids else ()
        # the minimum ends a descent, so the block starts with a descent
        # exactly when an odd number of entries precede it
        if len(left) % 2:
            return left + (s.label,) + right
        return complement(complement(left) + (s.label,) + right)

    if t.children is not None and t.children[1] is not EMPTY:
        raise MalformedCycleError("the root of a cycle tree keeps an empty right child")
    return tuple(v * sign[v] for v in complement(word(t)))


def _graft_chain(parts: list[Node]) -> Node:
    def graft(t: Node, sub: Node) -> Node:
        left, right = t.children
        if right is EMPTY:
            return Node(t.label, (left, sub))
        return Node(t.label, (left, graft(right, sub)))

    out = parts[-1]
    for t in reversed(parts[:-1]):
        out = graft(t, out)
    return out


def phi_cud_b(cf: CycleForm) -> Node:
    """Tree image of a type-B cycle-up-down member; the rightmost leaf is
    empty and the rightmost label is the last cycle's leader."""
    if not is_cud_b(cf):
        raise NotInFamilyError("not a type-B cycle-up-down cycle form")
    parts = [algo2(c.entries) for c in cf.cycles]
    return _graft_chain(parts)


def phi_cud_d(cf: CycleForm) -> Node:
    """Tree image of a type-D cycle-up-down member; the final (k,-k) cycle
    becomes a labelled leaf, so the rightmost leaf is labelled k."""
    if not is_cud_d(cf):
        raise NotInFamilyError("not a type-D cycle-up-down cycle form")
    parts = [algo2(c.entries) for c in cf.cycles[:-1]]
    parts.append(Node(cf.cycles[-1].leader))
    return _graft_chain(parts)


def algo3(seq: Sequence[int]) -> Node:
    """Min-split tree of a sequence of distinct positive integers, with the
    left factor becoming the right subtree; all leaves are empty."""
    s = tuple(seq)
    left, pivot, right = double_bracket(s)
    right_sub = algo3(left) if left else EMPTY
    left_sub = algo3(right) if right else EMPTY
    return Node(pivot, (left_sub, right_sub))


def _remove_empty_pair(t: Node, label: int) -> Node:
    if t is EMPTY:
        raise MissingPeakError(f"label {label} not found")
    if t.label == label:
        if t.children != (EMPTY, EMPTY):
            raise MissingPeakError(f"node {label} does not carry two empty leaves")
        return Node(label)
    if t.children is None:
        raise MissingPeakError(f"label {label} not found")
    left, right = t.children
    if label in labels(left):
        return Node(t.label, (_remove_empty_pair(left, label), right))
    return Node(t.label, (left, _remove_empty_pair(right, label)))


def _paired_peaks(w: tuple[int, ...], start: int) -> list[int]:
    """For each valley position v >= start with a negated successor, the
    value of the unique peak before the next valley."""
    aw = [abs(v) for v in w]
    vpos = sorted(valleys(aw))
    ppos = sorted(peaks(aw))
    out = []
    for i, v in enumerate(vpos):
        upper = vpos[i + 1] if i + 1 < len(vpos) else len(w) + 1
        between = [p for p in ppos if v < p < upper]
        if len(between) != 1:
            raise MissingPeakError(f"no unique peak after valley position {v} in {w}")
        if v + 1 > start and w[v] < 0:  # w[v] is the successor entry, 0-indexed
            out.append(aw[between[0] - 1])
    return out


def phi_vs_b(p: SignedPerm) -> Node:
    """Tree image of a type-B valley member: min-split tree of the absolute
    window, then empty-leaf removal at the peak paired with each negated
    valley successor."""
    if not is_vs_b(p.window):
        raise NotInFamilyError("not a type-B valley signed permutation")
    tree = algo3(p.abs_window())
    for peak_value in _paired_peaks(p.window, start=1):
        tree = _remove_empty_pair(tree, peak_value)
    return tree


def phi_vs_d(p: SignedPerm) -> Node:
    """Type-D variant: additionally turn the node of |first entry| into a
    labelled leaf, which makes the rightmost leaf labelled."""
    if not is_vs_d(p.window):
        raise NotInFamilyError("not a type-D valley signed permutation")
    tree = algo3(p.abs_window())
    tree = _remove_empty_pair(tree, abs(p.window[0]))
    for peak_value in _paired_peaks(p.window, start=2):
        tree = _remove_empty_pair(tree, peak_value)
    return tree


def tau_flip(p: SignedPerm) -> Node:
    """Min-split tree of a signed window, oriented by pivot sign and the
    side minima; constant on flip equivalence classes."""

    def build(w: tuple[int, ...]):
        if not w:
            return EMPTY
        i = min(range(len(w)), key=lambda j: abs(w[j]))
        pivot = w[i]
        left, right = w[:i], w[i + 1 :]
        if not left and not right:
            return Node(abs(pivot)) if pivot < 0 else Node(abs(pivot), (EMPTY, EMPTY))
        min_l = min((abs(v) for v in left), default=None)
        min_r = min((abs(v) for v in right), default=None)
        lt, rt = build(left), build(right)
        # min(empty side) counts as +infinity
        left_is_smaller = min_r is None or (min_l is not None and min_l < min_r)
        if (pivot > 0) == left_is_smaller:
            return Node(abs(pivot), (lt, rt))
        return Node(abs(pivot), (rt, lt))

    return build(p.window)


def phi_f(cls: FlipClass) -> Node:
    """Tree of a flip class, computed from its canonical member."""
    return tau_flip(SignedPerm(cls.canon))
