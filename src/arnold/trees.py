"""Complete increasing binary plane trees with empty leaves, written as
flat codes, and the min-split walks that build them.

A tree of size n uses labels exactly 1..n, labels increase away from the
root, and every node has either no children (a labelled leaf) or exactly
two child slots, each holding a subtree or an empty leaf.

Every tree in the package is a flat code: a sequence of length 2n in
which code[2v-2] and code[2v-1] hold the labels of the left and right
children of label v, 0 for an empty leaf, and a labelled leaf reads
(-1, -1).  As a tuple a code hashes and compares like any other.  For a
label set other than 1..n the code has length 2*max and the slots of
absent labels stay 0; the functions that read a whole tree (`classify`,
`count_empty`, `rightmost_path`, `is_complete_increasing`, `to_json`)
take a tree on labels 1..n, rooted at 1.  Two min-split walks write
codes: `split_code`, the plain min-split (Cartesian tree) in one stack
pass, and `block_code`, the min-split with the per-block complement rule,
one `split_block` step per block.

`check_size` is the one size cap of the package: every enumeration, and
`harness.verify` for every check that enumerates, refuses a size above
`ARNOLD_MAX_N` (8 by default) before it starts.
"""
from __future__ import annotations

import os
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence


class SizeCapExceededError(ValueError):
    pass


def check_size(n: int) -> None:
    """Refuse a size below 1 or above the cap `ARNOLD_MAX_N` (default 8),
    read at call time; a cap that is not a positive integer is refused
    too."""
    if n < 1:
        raise SizeCapExceededError("n must be at least 1")
    raw = os.environ.get("ARNOLD_MAX_N") or "8"
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise SizeCapExceededError(f"ARNOLD_MAX_N={raw!r} is not a positive integer")
    if n > cap:
        raise SizeCapExceededError(f"n={n} exceeds the configured cap {cap}")


def _fill(code: list[int], labels: tuple[int, ...]) -> Iterator[None]:
    """Write each tree on the ascending `labels` in turn into their slots
    of `code`, yielding once per tree; the empty label set is the empty
    leaf."""
    if not labels:
        yield
        return
    root, rest = labels[0], labels[1:]
    i = 2 * root - 2
    if not rest:
        code[i] = code[i + 1] = -1
        yield
        code[i] = code[i + 1] = 0
        yield
        return
    for mask in range(1 << len(rest)):
        left = tuple(v for k, v in enumerate(rest) if mask >> k & 1)
        right = tuple(v for k, v in enumerate(rest) if not mask >> k & 1)
        code[i] = left[0] if left else 0
        code[i + 1] = right[0] if right else 0
        for _ in _fill(code, left):
            yield from _fill(code, right)


def gen_trees(n: int) -> Iterator[tuple[int, ...]]:
    """The codes of all complete increasing binary trees on labels 1..n,
    each once.

    Deterministic order: a labelled leaf before a node with two empty
    leaves, left-subtree label subsets by ascending bitmask over the
    labels below a node, then left subtrees before right ones.

    >>> list(gen_trees(1))
    [(-1, -1), (0, 0)]
    """
    check_size(n)
    code = [0] * (2 * n)
    for _ in _fill(code, tuple(range(1, n + 1))):
        yield tuple(code)


class TreeClass(NamedTuple):
    kind: str  # "o" when the rightmost leaf is empty, "*" when labelled
    rightmost_label: int
    emp: int


def classify(code: Sequence[int]) -> TreeClass:
    """Kind, rightmost label (deepest labelled node on the rightmost path),
    and the number of empty leaves of a tree."""
    v = 1
    while (right := code[2 * v - 1]) > 0:
        v = right
    return TreeClass("o" if right == 0 else "*", v, code.count(0))


def count_empty(code: Sequence[int]) -> int:
    """The number of empty leaves of a tree."""
    return code.count(0)


def rightmost_path(code: Sequence[int]) -> frozenset[int]:
    """Labels on the path from the root along right children."""
    out = [1]
    while (right := code[2 * out[-1] - 1]) > 0:
        out.append(right)
    return frozenset(out)


def is_complete_increasing(code: Sequence[int], n: int) -> bool:
    """Whether a code is a complete increasing tree on labels 1..n: slots
    pair up as two children or (-1, -1), each child label exceeds its
    parent's, and the child labels are exactly 2..n, so that every label
    hangs below the root 1."""
    if len(code) != 2 * n:
        return False
    for i, c in enumerate(code):
        if c < 0 and (c != -1 or code[i ^ 1] != -1):
            return False
        if 0 < c <= i // 2 + 1:
            return False
    return sorted(c for c in code if c > 0) == list(range(2, n + 1))


def to_json(code: Sequence[int], v: int = 1):
    """The subtree of label v (the whole tree by default) as JSON: an
    empty leaf is null, a labelled leaf {"label": v}, and a node adds its
    "left" and "right" subtrees.

    >>> to_json((2, 0, -1, -1))
    {'label': 1, 'left': {'label': 2}, 'right': None}
    """
    if not v:
        return None
    left, right = code[2 * v - 2], code[2 * v - 1]
    if left < 0:
        return {"label": v}
    return {"label": v, "left": to_json(code, left), "right": to_json(code, right)}


# ---------------------------------------------------------------------------
# min-split walks

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
