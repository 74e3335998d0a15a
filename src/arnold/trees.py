"""Complete increasing binary plane trees with empty leaves, and the
min-split walks that write them as flat codes.

A tree of size n uses labels exactly 1..n, labels increase away from the
root, and every node has either no children (a labelled leaf) or exactly
two child slots, each holding a subtree or an empty leaf.

The tree maps build a tree as a flat code: a tuple of length 2n in which
code[2v-2] and code[2v-1] hold the labels of the left and right children
of label v, 0 for an empty leaf, and a labelled leaf reads (-1, -1).  A
code hashes and compares as a plain tuple; `tree_of` turns it into
`Node`s.  For a label set other than 1..n the code has length 2*max and
the slots of absent labels stay 0.  Two min-split walks write codes:
`split_code`, the plain min-split (Cartesian tree) in one stack pass, and
`block_code`, the min-split with the per-block complement rule, one
`split_block` step per block.

`check_size` is the one size cap of the package: every enumeration, and
`harness.verify` for every check that enumerates, refuses a size above
`ARNOLD_MAX_N` (8 by default) before it starts.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence


class SizeCapExceededError(ValueError):
    pass


def check_size(n: int) -> None:
    """Refuse a size below 1 or above the cap `ARNOLD_MAX_N` (default 8),
    read at call time."""
    if n < 1:
        raise SizeCapExceededError("n must be at least 1")
    cap = int(os.environ.get("ARNOLD_MAX_N") or 8)
    if n > cap:
        raise SizeCapExceededError(f"n={n} exceeds the configured cap {cap}")


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
    check_size(n)
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


@dataclass(frozen=True)
class TreeClass:
    kind: str  # "o" when the rightmost leaf is empty, "*" when labelled
    rightmost_label: int
    emp: int


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


# ---------------------------------------------------------------------------
# flat codes

def split_code(values: Sequence[int]) -> list[int]:
    """Code of the min-split tree of distinct positive integers, with the
    part left of each minimum as its left child: every node's children
    are the minima of the parts beside it, so one stack pass over the
    values builds it (the stack holds the current rightmost path).

    >>> split_code((3, 1, 2))
    [3, 2, 0, 0, 0, 0]
    """
    code = [0] * (2 * max(values))
    stack: list[int] = []
    for v in values:
        below = 0
        while stack and stack[-1] > v:
            below = stack.pop()
        code[2 * v - 2] = below
        if stack:
            code[2 * stack[-1] - 1] = v
        stack.append(v)
    return code


def complement(seq: Sequence[int]) -> tuple[int, ...]:
    """Replace the i-th smallest value by the i-th greatest, in place.

    >>> complement((2, 6, 3))
    (6, 2, 3)
    """
    ordered = sorted(seq)
    swap = dict(zip(ordered, reversed(ordered)))
    return tuple(swap[v] for v in seq)


def split_block(s: tuple[int, ...]) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """One step of the block walk on a nonempty block of distinct integers:
    complement it when its maximum comes before its minimum, then split
    it at its minimum into (left, minimum, right).  Afterwards the maximum
    follows the minimum, so `right` is empty only for a block of one.

    >>> split_block((2, 4, 1, 3))
    ((3,), 1, (4, 2))
    >>> split_block((1, 5, 3, 4, 2))
    ((), 1, (5, 3, 4, 2))
    """
    low = min(s)
    if s.index(max(s)) < s.index(low):
        s = complement(s)
    i = s.index(low)
    return s[:i], low, s[i + 1 :]


@lru_cache(maxsize=1 << 16)
def block_code(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Code of the non-plane min-split tree of distinct positive integers:
    each block of two or more is cut by `split_block`, and its two parts
    are the next blocks.  A node's two slots hold its children in
    canonical order, the smaller label first and an empty leaf last; a
    block of one element is a node with two empty leaves.

    >>> block_code((1, 5, 3, 4, 2))
    (2, 0, 3, 0, 4, 5, 0, 0, 0, 0)
    """
    code = [0] * (2 * max(seq, default=0))
    blocks = [seq]
    while blocks:
        s = blocks.pop()
        if len(s) <= 1:
            continue
        left, low, right = split_block(s)
        kids = sorted((min(left), min(right))) if left else (min(right), 0)
        code[2 * low - 2], code[2 * low - 1] = kids
        blocks += (left, right)
    return tuple(code)


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


def classify_code(code: Sequence[int]) -> TreeClass:
    """`classify` of the tree a code describes (labels 1..n)."""
    v = 1
    while (right := code[2 * v - 1]) > 0:
        v = right
    return TreeClass("o" if right == 0 else "*", v, code.count(0))


def path_labels(code: Sequence[int]) -> frozenset[int]:
    """Labels on the rightmost path of the tree a code describes."""
    out = [1]
    while (right := code[2 * out[-1] - 1]) > 0:
        out.append(right)
    return frozenset(out)


def is_tree_code(code: Sequence[int], n: int) -> bool:
    """`is_complete_increasing` for a code: slots pair up as two children
    or (-1, -1), each child label exceeds its parent's, and the child
    labels are exactly 2..n, so that every label hangs below the root 1."""
    if len(code) != 2 * n:
        return False
    for i, c in enumerate(code):
        if c < 0 and (c != -1 or code[i ^ 1] != -1):
            return False
        if 0 < c <= i // 2 + 1:
            return False
    return sorted(c for c in code if c > 0) == list(range(2, n + 1))
