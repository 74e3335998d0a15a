"""Maps from cycle-up-down permutations, valley signed permutations, and
flip classes to complete increasing binary trees.

The cycle route: an up-down sequence becomes a non-plane complete
increasing tree (min-split after an optional complement whenever the
maximum precedes the minimum), the entry signs then orient each node's
children, and the per-cycle trees are chained along empty right children.

The window route: the classical min-split tree of the absolute window
(left factor mapped to the *right* subtree), with empty children removed
at the peak paired with each negated valley successor.  One builder makes
both valley codes from `valleys` and `peaks` of |w|; type D also makes the
node |w1| a labelled leaf.

The flip route: a min-split on absolute values whose child orientation is
decided by the pivot sign together with which side holds the smaller
minimum, making the image constant on flip classes.

Each map is computed as a flat code (see `trees`): a tuple where
code[2v-2] and code[2v-1] are the left and right child labels of label v,
0 is an empty leaf and (-1, -1) a labelled leaf.  The window and flip
routes start from `trees.split_code`, the cycle route from
`trees.block_code`; the sign rules then rewrite slot pairs in place.
Every map returns its code.

Each cycle and valley map is one checked map and one unchecked kernel.
`phi_*` runs the literal membership test of its family (a cycle test
includes that the form is canonical), raises NotInFamilyError on a
non-member (a valley map first refuses, with `from_window`, a tuple that
is not a window), and otherwise returns the code of its kernel `phi_*_kernel`,
which tests nothing.  `images` alone pairs a family with the map that runs
its generated members unguarded (a kernel, or `phi_f`), for the harness and
`arnold map`; the tests hold the generators equal to the literal filters.
"""
from __future__ import annotations

from typing import Iterator, Sequence

from . import families as fam
from .families import FlipClass, is_cud_b, is_cud_d, is_vs_b, is_vs_d
from .signed_perm import (
    CycleForm,
    SignedPerm,
    from_window,
    peaks,
    valleys,
)
from .trees import block_code, split_code


class MalformedSequenceError(ValueError):
    pass


class MalformedCycleError(ValueError):
    pass


class NotInFamilyError(ValueError):
    pass


class MissingPeakError(AssertionError):
    pass


def _orient_cycle(code: list[int], entries: Sequence[int]) -> None:
    """Write the tree of a signed up-down cycle into code: the non-plane
    tree of its absolute values, in canonical order under a positive
    entry; a negative entry puts its only child, or the smaller of two, on
    the right, and turns a pair of empty leaves into a labelled leaf."""
    kids = block_code(tuple(map(abs, entries)))
    for x in entries:
        i = 2 * abs(x) - 2
        small, large = kids[i], kids[i + 1]
        if x > 0:
            code[i], code[i + 1] = small, large
        elif small:
            code[i], code[i + 1] = large, small
        else:
            code[i] = code[i + 1] = -1


def algo2(cycle: Sequence[int]) -> tuple[int, ...]:
    """Code of the oriented non-plane tree of a signed up-down cycle, of
    length 2*max over the absolute values.

    Negative entries pull their labelled child (or the smaller of two) to
    the right and drop empty-leaf pairs; positive entries do the mirror
    image.  The root is the cycle leader and keeps an empty right child.
    """
    entries = tuple(cycle)
    if not entries or entries[0] <= 0:
        raise MalformedCycleError("cycle leader must be positive")
    values = [abs(v) for v in entries]
    if len(set(values)) != len(entries):
        raise MalformedCycleError("entries must have distinct absolute values")
    code = [0] * (2 * max(values))
    _orient_cycle(code, entries)
    return tuple(code)


def _chain_code(cycles: list[Sequence[int]]) -> tuple[int, ...]:
    """Code of the cycle trees chained along the leaders: the root of each
    cycle's tree is its leader, whose right child is empty until it takes
    the next cycle's tree."""
    code = [0] * (2 * sum(map(len, cycles)))
    for entries in cycles:
        _orient_cycle(code, entries)
    for this, following in zip(cycles, cycles[1:]):
        code[2 * this[0] - 1] = abs(following[0])
    return tuple(code)


def phi_cud_b_kernel(cf: CycleForm) -> tuple[int, ...]:
    """Flat code of `phi_cud_b` for a type-B cycle-up-down member, untested."""
    return _chain_code([c.entries for c in cf.cycles])


def phi_cud_d_kernel(cf: CycleForm) -> tuple[int, ...]:
    """Flat code of `phi_cud_d` for a type-D cycle-up-down member,
    untested: the final (k,-k) cycle is chained as the one-entry cycle
    (-k), whose tree is the labelled leaf k."""
    cycles = [c.entries for c in cf.cycles[:-1]]
    return _chain_code(cycles + [(-cf.cycles[-1].leader,)])


def phi_cud_b(cf: CycleForm) -> tuple[int, ...]:
    """Tree image of a type-B cycle-up-down member; the rightmost leaf is
    empty and the rightmost label is the last cycle's leader."""
    if not is_cud_b(cf):
        raise NotInFamilyError("not a type-B cycle-up-down cycle form")
    return phi_cud_b_kernel(cf)


def phi_cud_d(cf: CycleForm) -> tuple[int, ...]:
    """Tree image of a type-D cycle-up-down member; the final (k,-k) cycle
    becomes a labelled leaf, so the rightmost leaf is labelled k."""
    if not is_cud_d(cf):
        raise NotInFamilyError("not a type-D cycle-up-down cycle form")
    return phi_cud_d_kernel(cf)


def algo3(seq: Sequence[int]) -> list[int]:
    """Code of the min-split tree of a sequence of distinct positive
    integers, with the left factor becoming the right subtree; all leaves
    are empty.  It is a list, which the valley maps edit in place."""
    s = tuple(seq)
    if not s:
        raise MalformedSequenceError("empty sequence")
    code = split_code(s)
    code[::2], code[1::2] = code[1::2], code[::2]
    return code


def _make_leaf(code: list[int], label: int) -> None:
    i = 2 * label - 2
    if code[i] or code[i + 1]:
        raise MissingPeakError(f"node {label} does not carry two empty leaves")
    code[i] = code[i + 1] = -1


def _valley_code(p: SignedPerm, head: list[int]) -> tuple[int, ...]:
    """The min-split code of |w| with labelled leaves made at the labels of
    `head` and then at the peak paired with each valley whose successor
    (at 0-based index v for the valley at 1-based v) is negative.  On a
    window, the valleys and peaks of |w| alternate starting with a valley,
    so the i-th valley pairs with the i-th peak."""
    aw = p.abs_window()
    code = algo3(aw)
    pairs = zip(sorted(valleys(aw)), sorted(peaks(aw)))
    for label in head + [aw[q - 1] for v, q in pairs if p.window[v] < 0]:
        _make_leaf(code, label)
    return tuple(code)


def phi_vs_b_kernel(p: SignedPerm) -> tuple[int, ...]:
    """Flat code of `phi_vs_b` for a type-B valley member, untested."""
    return _valley_code(p, [])


def phi_vs_d_kernel(p: SignedPerm) -> tuple[int, ...]:
    """Flat code of `phi_vs_d` for a type-D valley member, untested: the
    code of `phi_vs_b_kernel` with the node |w1| made a labelled leaf too."""
    return _valley_code(p, [abs(p.window[0])])


def phi_vs_b(p: SignedPerm) -> tuple[int, ...]:
    """Tree image of a type-B valley member: min-split tree of the absolute
    window, then empty-leaf removal at the peak paired with each negated
    valley successor.  InvalidWindowError where `from_window` refuses the
    window, NotInFamilyError on any other non-member."""
    from_window(p.window)
    if not is_vs_b(p.window):
        raise NotInFamilyError("not a type-B valley signed permutation")
    return phi_vs_b_kernel(p)


def phi_vs_d(p: SignedPerm) -> tuple[int, ...]:
    """Type-D variant: additionally turn the node of |first entry| into a
    labelled leaf, which makes the rightmost leaf labelled.  Refuses a
    non-window or a non-member as `phi_vs_b` does."""
    from_window(p.window)
    if not is_vs_d(p.window):
        raise NotInFamilyError("not a type-D valley signed permutation")
    return phi_vs_d_kernel(p)


def orient_flip_code(split: Sequence[int], window: Sequence[int]) -> tuple[int, ...]:
    """`tau_flip` of a window from `split`, the `trees.split_code` of
    |window|.  Each child is the minimum of its side, so a node orients its
    children by comparing labels, an empty side counting as +infinity: a
    positive pivot puts the smaller on the left, a negative one on the
    right, and a negative pivot with two empty sides is a labelled leaf."""
    code = list(split)
    for x in window:
        if x > 0:
            i = 2 * x - 2
            left, right = code[i], code[i + 1]
            if right and not 0 < left < right:
                code[i], code[i + 1] = right, left
        else:
            i = -2 * x - 2
            left, right = code[i], code[i + 1]
            if not (left or right):
                code[i] = code[i + 1] = -1
            elif not right or 0 < left < right:
                code[i], code[i + 1] = right, left
    return tuple(code)


def tau_flip(p: SignedPerm) -> tuple[int, ...]:
    """Code of the min-split tree of a signed window, oriented by pivot
    sign and the side minima (see `orient_flip_code`); constant on flip
    equivalence classes.  MalformedSequenceError on an empty window, one
    whose absolute values are not distinct and positive, or one with an
    absolute value above its length n."""
    u = p.abs_window()
    if not u:
        raise MalformedSequenceError("empty window")
    if 0 in u or len(set(u)) != len(u):
        raise MalformedSequenceError("absolute values must be distinct and positive")
    if max(u) > len(u):
        raise MalformedSequenceError(f"absolute values must be 1..{len(u)}")
    return orient_flip_code(split_code(u), p.window)


def phi_f(cls: FlipClass) -> tuple[int, ...]:
    """Tree of a flip class, computed from its canonical member."""
    return tau_flip(SignedPerm(cls.canon))


_MAPS = {"cud-b": "phi_cud_b_kernel", "cud-d": "phi_cud_d_kernel", "vs-b": "phi_vs_b_kernel",
         "vs-d": "phi_vs_d_kernel", "fl-b": "phi_f", "fl-d": "phi_f"}


def images(family: str, n: int) -> Iterator[tuple[object, tuple[int, ...]]]:
    """(member, code) for every generated member of a cycle, valley or flip
    family, in family order.  The map and `families.enumerate_family` are
    looked up when the walk starts, so a replaced name is the one that runs.

    >>> [code for _, code in images("vs-b", 1)]
    [(0, 0)]
    """
    if family not in _MAPS:
        raise fam.UnknownFamilyError(f"{family} has no tree map")
    tree_map = globals()[_MAPS[family]]
    for m in fam.enumerate_family(family, n):
        yield m, tree_map(m)
