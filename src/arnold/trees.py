"""Complete increasing binary plane trees with empty leaves, and the
non-plane increasing 1-2 trees that index flip classes.

A tree of size n uses labels exactly 1..n, labels increase away from the
root, and every node has either no children (a labelled leaf) or exactly
two child slots, each holding a subtree or an empty leaf.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


TREE_CAP = 10


class SizeCapExceededError(ValueError):
    pass


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
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > TREE_CAP:
        raise SizeCapExceededError(f"n={n} exceeds tree generation cap {TREE_CAP}")
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


@dataclass(frozen=True)
class Tree12:
    """Non-plane increasing tree with 1 or 2 children per internal node;
    children kept sorted by label so values are canonical and hashable."""

    label: int
    children: tuple["Tree12", ...] = ()


def tree12_of(perm: Sequence[int]) -> Tree12:
    """Recursive min-split image of an unsigned permutation.

    >>> tree12_of([2, 1, 3]) == tree12_of([3, 1, 2])
    True
    """
    w = tuple(perm)
    if not w:
        raise ValueError("empty permutation")
    i = w.index(min(w))
    kids = []
    if i > 0:
        kids.append(tree12_of(w[:i]))
    if i + 1 < len(w):
        kids.append(tree12_of(w[i + 1 :]))
    kids.sort(key=lambda t: t.label)
    return Tree12(w[i], tuple(kids))
