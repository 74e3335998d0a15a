"""Reference trees built node by node, for the tests of the flat codes.

`arnold.trees` writes every tree as a flat code.  This module keeps the
recursive form the codes replaced: a `Node` per labelled node and `EMPTY`
for an empty leaf, the recursive generator, and the readers of a tree
written from the definitions.  The tests compare the code-valued functions
against it; `code_of` and `tree_of` convert between the two forms.
`scan_paired_peaks` is the one-pass valley and peak scan that the valley
maps used before they read `valleys` and `peaks`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from arnold.bijections import MissingPeakError
from arnold.signed_perm import peaks, valleys
from arnold.trees import TreeClass, complement


class _EmptyLeaf:
    __slots__ = ()

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = _EmptyLeaf()


@dataclass(frozen=True)
class Node:
    label: int
    children: tuple[object, object] | None = None  # None means labelled leaf


def _gen(labels: tuple[int, ...]) -> Iterator:
    if not labels:
        yield EMPTY
        return
    root = labels[0]
    rest = labels[1:]
    if not rest:
        yield Node(root)
        yield Node(root, (EMPTY, EMPTY))
        return
    m = len(rest)
    for mask in range(1 << m):
        left_labels = tuple(rest[i] for i in range(m) if mask >> i & 1)
        right_labels = tuple(rest[i] for i in range(m) if not mask >> i & 1)
        for lt in _gen(left_labels):
            for rt in _gen(right_labels):
                yield Node(root, (lt, rt))


def gen_trees(n: int) -> Iterator[Node]:
    """All complete increasing binary trees on labels 1..n, each once.

    Deterministic order: left-subtree label subsets by ascending bitmask.
    """
    yield from _gen(tuple(range(1, n + 1)))


def rightmost_path(t: Node) -> list:
    """Nodes from the root along right children, ending at the rightmost
    leaf (which may be EMPTY or a labelled leaf)."""
    path: list = [t]
    while isinstance(path[-1], Node) and path[-1].children is not None:
        path.append(path[-1].children[1])
    return path


def count_empty(t) -> int:
    if t is EMPTY:
        return 1
    if t.children is None:
        return 0
    return count_empty(t.children[0]) + count_empty(t.children[1])


def classify(t: Node) -> TreeClass:
    """Kind, rightmost label (deepest labelled node on the rightmost path),
    and the number of empty leaves."""
    path = rightmost_path(t)
    end = path[-1]
    if end is EMPTY:
        return TreeClass("o", path[-2].label, count_empty(t))
    return TreeClass("*", end.label, count_empty(t))


def labels(t) -> set[int]:
    if t is EMPTY:
        return set()
    out = {t.label}
    if t.children is not None:
        out |= labels(t.children[0])
        out |= labels(t.children[1])
    return out


def is_complete_increasing(t: Node, n: int) -> bool:
    """Structural invariants: label set 1..n, root label 1, labels increase
    along every path, every node has zero or two children."""

    def walk(s, lower: int) -> bool:
        if s is EMPTY:
            return True
        if not isinstance(s, Node) or s.label <= lower:
            return False
        if s.children is None:
            return True
        return walk(s.children[0], s.label) and walk(s.children[1], s.label)

    return labels(t) == set(range(1, n + 1)) and t.label == 1 and walk(t, 0)


def serialize(t) -> str:
    """Preorder string form; equality of strings is structural equality."""
    if t is EMPTY:
        return "."
    if t.children is None:
        return f"{t.label}"
    return f"{t.label}({serialize(t.children[0])},{serialize(t.children[1])})"


def to_json(t):
    """EMPTY -> null, labelled leaf -> {"label": k}, node -> with left/right."""
    if t is EMPTY:
        return None
    if t.children is None:
        return {"label": t.label}
    return {
        "label": t.label,
        "left": to_json(t.children[0]),
        "right": to_json(t.children[1]),
    }


def tree_of(code: Sequence[int], root: int = 1):
    """The tree a flat code describes, from `root` down.

    >>> serialize(tree_of((2, 0, -1, -1)))
    '1(2,.)'
    """

    def build(v: int):
        if not v:
            return EMPTY
        left, right = code[2 * v - 2], code[2 * v - 1]
        if left < 0:
            return Node(v)
        return Node(v, (build(left), build(right)))

    return build(root)


def code_of(t, size: int) -> tuple[int, ...]:
    """Flat code of a tree whose labels lie in 1..size, written from its
    nodes; the slots of absent labels stay 0.

    >>> code_of(Node(1, (Node(2), EMPTY)), 2)
    (2, 0, -1, -1)
    """
    code = [0] * (2 * size)

    def walk(s):
        i = 2 * s.label - 2
        if s.children is None:
            code[i] = code[i + 1] = -1
            return
        for j, child in enumerate(s.children):
            if child is not EMPTY:
                code[i + j] = child.label
                walk(child)

    walk(t)
    return tuple(code)


# ---------------------------------------------------------------------------
# The recursive tree maps that the flat-code kernels replaced: each builds
# its tree node by node from the definition.

def double_bracket(seq):
    """Split a sequence of distinct integers at its minimum entry."""
    s = tuple(seq)
    i = s.index(min(s))
    return s[:i], s[i], s[i + 1 :]


@dataclass(frozen=True)
class NPNode:
    """Non-plane node: two unordered child slots, canonically ordered with
    labelled children (by label) before empty ones."""

    label: int
    children: tuple[object, object]


def algo1(seq):
    s = tuple(seq)
    if not s:
        return EMPTY
    if s.index(max(s)) < s.index(min(s)):
        s = complement(s)
    left, pivot, right = double_bracket(s)
    kids = sorted(
        (algo1(left), algo1(right)),
        key=lambda c: (c is EMPTY, getattr(c, "label", 0)),
    )
    return NPNode(pivot, (kids[0], kids[1]))


def algo2(cycle):
    sign = {abs(v): v > 0 for v in cycle}

    def orient(t):
        if t is EMPTY:
            return EMPTY
        a, b = t.children
        positive = sign[t.label]
        if a is EMPTY and b is EMPTY:
            return Node(t.label) if not positive else Node(t.label, (EMPTY, EMPTY))
        if b is EMPTY:
            child = orient(a)
            return Node(t.label, (child, EMPTY) if positive else (EMPTY, child))
        small, large = orient(a), orient(b)
        return Node(t.label, (small, large) if positive else (large, small))

    return orient(algo1([abs(v) for v in cycle]))


def algo2_inverse(t):
    """The signed up-down cycle c with algo2(c) == t.

    Each node's sign is read off its orientation.  The absolute values are
    rebuilt block by block: the child holding the block's largest label
    lies right of the minimum, and the block was complemented exactly when
    the size of the part left of the minimum forces a starting direction
    other than the one the block must have.
    """
    sign = {}

    def word(s):
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

    return tuple(v * sign[v] for v in complement(word(t)))


def graft_chain(parts):
    def graft(t, sub):
        left, right = t.children
        if right is EMPTY:
            return Node(t.label, (left, sub))
        return Node(t.label, (left, graft(right, sub)))

    out = parts[-1]
    for t in reversed(parts[:-1]):
        out = graft(t, out)
    return out


def phi_cud(cf):
    if cf.cycles[-1].bracket:
        parts = [algo2(c.entries) for c in cf.cycles[:-1]]
        return graft_chain(parts + [Node(cf.cycles[-1].leader)])
    return graft_chain([algo2(c.entries) for c in cf.cycles])


def algo3(seq):
    left, pivot, right = double_bracket(seq)
    right_sub = algo3(left) if left else EMPTY
    left_sub = algo3(right) if right else EMPTY
    return Node(pivot, (left_sub, right_sub))


def remove_empty_pair(t, label):
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
        return Node(t.label, (remove_empty_pair(left, label), right))
    return Node(t.label, (left, remove_empty_pair(right, label)))


def paired_peaks(w, start):
    """The value at the least peak position above each valley position v of
    |w| with v >= start whose successor w[v] is negative, in valley order."""
    aw = [abs(v) for v in w]
    tops = peaks(aw)
    return [
        aw[min(q for q in tops if q > v) - 1]
        for v in sorted(valleys(aw))
        if v >= start and w[v] < 0
    ]


def scan_paired_peaks(w: tuple[int, ...]) -> list[int]:
    """The one-pass scan the valley maps used to pair peaks with: for each
    valley with a negated successor, the value of the unique peak before
    the next valley, reading |w| with +infinity before it and 0 after it."""
    aw = [abs(v) for v in w]
    out = []
    valley = 0  # the last valley position, until its peak is found
    prev, cur = float("inf"), aw[0]
    for i, nxt in enumerate(aw[1:] + [0], start=1):
        if prev > cur < nxt:
            if valley:
                raise MissingPeakError(f"no unique peak after valley position {valley} in {w}")
            valley = i
        elif prev < cur > nxt and valley:
            if w[valley] < 0:  # w[valley] is the successor entry
                out.append(cur)
            valley = 0
        prev, cur = cur, nxt
    if valley:
        raise MissingPeakError(f"no unique peak after valley position {valley} in {w}")
    return out


def phi_vs(p):
    tree = algo3(p.abs_window())
    start = 1
    if p.window[0] < 0:
        tree = remove_empty_pair(tree, abs(p.window[0]))
        start = 2
    for peak_value in paired_peaks(p.window, start=start):
        tree = remove_empty_pair(tree, peak_value)
    return tree


def tau_flip(p):
    def build(w):
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
        left_is_smaller = min_r is None or (min_l is not None and min_l < min_r)
        if (pivot > 0) == left_is_smaller:
            return Node(abs(pivot), (lt, rt))
        return Node(abs(pivot), (rt, lt))

    return build(p.window)


def leaf_labels(t):
    if t is EMPTY:
        return set()
    a, b = t.children
    if a is EMPTY and b is EMPTY:
        return {t.label}
    return leaf_labels(a) | leaf_labels(b)
