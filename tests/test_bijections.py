from dataclasses import dataclass
from itertools import permutations

import pytest

from arnold.bijections import (
    MalformedCycleError,
    MissingPeakError,
    NotInFamilyError,
    _make_leaf,
    _paired_peaks,
    algo2,
    algo3,
    algo3_code,
    phi_cud_b,
    phi_cud_b_kernel,
    phi_cud_d,
    phi_cud_d_kernel,
    phi_f,
    phi_vs_b,
    phi_vs_b_kernel,
    phi_vs_d,
    phi_vs_d_kernel,
    tau_flip,
    tau_flip_code,
)
from arnold.families import _up_down, enumerate_family, flip_classes, psi_cud_b, windows
from arnold.signed_perm import (
    Cycle,
    CycleForm,
    SignedPerm,
    from_window,
    leaf_values,
    peak_values,
    stat_npk,
)
from arnold.trees import (
    EMPTY,
    Node,
    block_code,
    classify,
    classify_code,
    complement,
    count_empty,
    gen_trees,
    is_complete_increasing,
    is_tree_code,
    labels,
    path_labels,
    rightmost_path,
    serialize,
    tree_of,
)


class TestDoubleBracket:
    def test_min_first(self):
        assert _double_bracket((1, 3, 2)) == ((), 1, (3, 2))

    def test_min_last(self):
        assert _double_bracket((9, 8)) == ((9,), 8, ())

    def test_min_interior(self):
        assert _double_bracket((7, 4, 9, 8)) == ((7,), 4, (9, 8))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _double_bracket(())


class TestComplement:
    def test_pair(self):
        assert complement((9, 8)) == (8, 9)

    def test_singleton_fixed(self):
        assert complement((5,)) == (5,)

    def test_three(self):
        assert complement((2, 6, 3)) == (6, 2, 3)

    def test_involution(self):
        for p in permutations((2, 5, 7, 9)):
            assert complement(complement(p)) == p


class TestAlgo1:
    def chain_labels(self, t):
        out = []
        while t is not EMPTY:
            out.append(t.label)
            kids = [c for c in t.children if c is not EMPTY]
            assert len(kids) <= 1
            t = kids[0] if kids else EMPTY
        return out

    def test_chain_132(self):
        assert self.chain_labels(_algo1_reference((1, 3, 2))) == [1, 2, 3]

    def test_chain_56(self):
        assert self.chain_labels(_algo1_reference((5, 6))) == [5, 6]

    def test_chain_798(self):
        assert self.chain_labels(_algo1_reference((7, 9, 8))) == [7, 8, 9]


class TestAlgo2:
    def test_single_positive_keeps_empty_leaves(self):
        assert serialize(algo2((4,))) == "4(.,.)"

    def test_negative_child_goes_right(self):
        assert serialize(algo2((1, -3, -2))) == "1(2(.,3),.)"

    def test_one_negative(self):
        assert serialize(algo2((5, -6))) == "5(6,.)"

    def test_leader_must_be_positive(self):
        with pytest.raises(MalformedCycleError):
            algo2((-1, 2))

    def test_root_right_child_is_empty(self):
        for cf in enumerate_family("cud-b", 4):
            for c in cf.cycles:
                t = algo2(c.entries)
                assert t.children is None or t.children[1] is EMPTY


class TestAlgo2Inverse:
    def test_round_trip_on_every_signed_cycle(self):
        count = 0
        for n in range(1, 7):
            for rest in permutations(range(2, n + 1)):
                if not _up_down((1,) + rest):
                    continue
                for signs in range(1 << len(rest)):
                    cycle = (1,) + tuple(
                        -v if signs >> i & 1 else v for i, v in enumerate(rest)
                    )
                    assert _algo2_inverse_reference(algo2(cycle)) == cycle
                    count += 1
        assert count == 1 + 2 + 4 + 16 + 80 + 512

    def test_examples(self):
        assert _algo2_inverse_reference(Node(4, (EMPTY, EMPTY))) == (4,)
        tree = Node(1, (Node(3, (Node(4), EMPTY)), EMPTY))
        assert _algo2_inverse_reference(tree) == (1, -4, 3)


class TestCycleMaps:
    def test_smallest_case(self):
        t = phi_cud_b(CycleForm((Cycle((1,)),)))
        assert serialize(t) == "1(.,.)"
        c = classify(t)
        assert (c.kind, c.rightmost_label) == ("o", 1)

    def test_type_b_worked_example(self):
        cf = CycleForm((Cycle((1, -3, -2)), Cycle((4,)), Cycle((5, -6)), Cycle((7, 9, -8))))
        c = classify(phi_cud_b(cf))
        assert (c.kind, c.rightmost_label, c.emp) == ("o", 7, 6)

    def test_type_d_worked_example(self):
        cf = CycleForm(
            (Cycle((1, -9, -2)), Cycle((3, 4)), Cycle((5, 8, -6)), Cycle((7, -7), bracket=True))
        )
        c = classify(phi_cud_d(cf))
        assert (c.kind, c.rightmost_label, c.emp) == ("*", 7, 6)

    def test_rejects_non_members(self):
        with pytest.raises(NotInFamilyError):
            phi_cud_b(CycleForm((Cycle((1, 2, 3)),)))  # not up-down
        with pytest.raises(NotInFamilyError):
            phi_cud_d(CycleForm((Cycle((1,)),)))

    def test_small_bijectivity(self):
        for n in range(1, 5):
            for fam_name, mapping, kind in (("cud-b", phi_cud_b, "o"), ("cud-d", phi_cud_d, "*")):
                members = enumerate_family(fam_name, n)
                images = {serialize(mapping(cf)) for cf in members}
                assert len(images) == len(members)
                for cf in members:
                    c = classify(mapping(cf))
                    assert c.kind == kind
                    assert c.rightmost_label == cf.cycles[-1].leader

    def test_empty_leaves_count_negative_peaks(self):
        for n in range(1, 5):
            for fam_name, mapping in (("cud-b", phi_cud_b), ("cud-d", phi_cud_d)):
                for cf in enumerate_family(fam_name, n):
                    assert count_empty(mapping(cf)) == n + 1 - 2 * stat_npk(cf)


class TestAlgo3:
    def test_orientation(self):
        t = algo3((7, 5, 1, 3, 4, 2, 6))
        assert t.label == 1
        assert serialize(t.children[1]) == serialize(algo3((7, 5)))
        assert serialize(t.children[0]) == serialize(algo3((3, 4, 2, 6)))

    def test_singleton(self):
        assert serialize(algo3((4,))) == "4(.,.)"

    def test_peak_nodes_have_two_empty_children(self):
        def double_empty_labels(t, acc):
            if t is EMPTY or t.children is None:
                return
            if t.children == (EMPTY, EMPTY):
                acc.add(t.label)
            double_empty_labels(t.children[0], acc)
            double_empty_labels(t.children[1], acc)

        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                found = set()
                double_empty_labels(algo3(p), found)
                assert found - {p[0]} == set(peak_values(p))


class TestValleyMaps:
    def test_type_b_worked_example(self):
        # two negated valley successors, so two empty-leaf pairs removed
        c = classify(phi_vs_b(from_window([7, 5, -6, 8, 9, 4, 1, -3, 2])))
        assert (c.kind, c.rightmost_label, c.emp) == ("o", 7, 6)

    def test_type_d_worked_example(self):
        c = classify(phi_vs_d(from_window([-7, 5, 8, 6, 3, 4, 1, -9, 2])))
        assert (c.kind, c.rightmost_label, c.emp) == ("*", 7, 6)

    def test_trivial_member(self):
        t = phi_vs_b(from_window([1]))
        assert serialize(t) == "1(.,.)"

    def test_only_a_pair_of_empty_leaves_becomes_a_labelled_leaf(self):
        code = [2, 0, 0, 0]
        with pytest.raises(MissingPeakError, match="^node 1 does not carry two empty leaves$"):
            _make_leaf(code, 1)
        _make_leaf(code, 2)
        assert code == [2, 0, -1, -1]
        with pytest.raises(MissingPeakError, match="^node 2 does not carry two empty leaves$"):
            _make_leaf(code, 2)

    def test_four_signings_of_51324(self):
        # the valley successors of 51324 carry the free signs
        members = [p for p in enumerate_family("vs-b", 5) if p.abs_window() == (5, 1, 3, 2, 4)]
        assert {p.window for p in members} == {
            (5, 1, 3, 2, 4),
            (5, 1, -3, 2, 4),
            (5, 1, 3, 2, -4),
            (5, 1, -3, 2, -4),
        }

    def test_rejects_non_members(self):
        with pytest.raises(NotInFamilyError):
            phi_vs_b(from_window([-1, 2]))
        with pytest.raises(NotInFamilyError):
            phi_vs_d(from_window([1, 2]))

    def test_small_bijectivity(self):
        for n in range(1, 5):
            for fam_name, mapping, kind in (("vs-b", phi_vs_b, "o"), ("vs-d", phi_vs_d, "*")):
                members = enumerate_family(fam_name, n)
                images = {serialize(mapping(p)) for p in members}
                assert len(images) == len(members)
                for p in members:
                    c = classify(mapping(p))
                    assert c.kind == kind
                    assert c.rightmost_label == abs(p.window[0])


class TestFlipMap:
    def test_explicit_tree(self):
        t = tau_flip(from_window([1, -2, 3]))
        assert serialize(t) == "1(2(.,3(.,.)),.)"
        assert count_empty(t) == 4
        all_members = [[1, -2, 3], [3, -2, 1], [-2, 3, 1], [1, 3, -2]]
        assert {serialize(tau_flip(from_window(w))) for w in all_members} == {serialize(t)}

    def test_four_element_class(self):
        members = [[-2, -4, 1, -3], [-3, 1, -2, -4], [-3, 1, -4, -2], [-4, -2, 1, -3]]
        trees = {serialize(tau_flip(from_window(w))) for w in members}
        assert len(trees) == 1
        c = classify(tau_flip(from_window(members[0])))
        assert (c.kind, c.rightmost_label) == ("*", 3)

    def test_negative_singleton(self):
        assert serialize(tau_flip(from_window([-1]))) == "1"

    def test_class_map_well_defined_small(self):
        for n in range(1, 5):
            for cls in flip_classes(n):
                trees = {serialize(tau_flip(from_window(w))) for w in cls.members}
                assert len(trees) == 1
                c = classify(phi_f(cls))
                assert c.kind == ("o" if cls.smax > 0 else "*")
                assert c.rightmost_label == abs(cls.smax)


# The recursive tree maps that the flat-code kernel replaced, kept as
# references: each builds its tree node by node from the definition.

def _double_bracket(seq):
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


def _algo1_reference(seq):
    s = tuple(seq)
    if not s:
        return EMPTY
    if s.index(max(s)) < s.index(min(s)):
        s = complement(s)
    left, pivot, right = _double_bracket(s)
    kids = sorted(
        (_algo1_reference(left), _algo1_reference(right)),
        key=lambda c: (c is EMPTY, getattr(c, "label", 0)),
    )
    return NPNode(pivot, (kids[0], kids[1]))


def _algo2_reference(cycle):
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

    return orient(_algo1_reference([abs(v) for v in cycle]))


def _algo2_inverse_reference(t):
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


def _graft_chain_reference(parts):
    def graft(t, sub):
        left, right = t.children
        if right is EMPTY:
            return Node(t.label, (left, sub))
        return Node(t.label, (left, graft(right, sub)))

    out = parts[-1]
    for t in reversed(parts[:-1]):
        out = graft(t, out)
    return out


def _phi_cud_reference(cf):
    if cf.cycles[-1].bracket:
        parts = [_algo2_reference(c.entries) for c in cf.cycles[:-1]]
        return _graft_chain_reference(parts + [Node(cf.cycles[-1].leader)])
    return _graft_chain_reference([_algo2_reference(c.entries) for c in cf.cycles])


def _algo3_reference(seq):
    left, pivot, right = _double_bracket(seq)
    right_sub = _algo3_reference(left) if left else EMPTY
    left_sub = _algo3_reference(right) if right else EMPTY
    return Node(pivot, (left_sub, right_sub))


def _remove_empty_pair_reference(t, label):
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
        return Node(t.label, (_remove_empty_pair_reference(left, label), right))
    return Node(t.label, (left, _remove_empty_pair_reference(right, label)))


def _phi_vs_reference(p):
    tree = _algo3_reference(p.abs_window())
    start = 1
    if p.window[0] < 0:
        tree = _remove_empty_pair_reference(tree, abs(p.window[0]))
        start = 2
    for peak_value in _paired_peaks(p.window, start=start):
        tree = _remove_empty_pair_reference(tree, peak_value)
    return tree


def _tau_flip_reference(p):
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


def _leaf_labels(t):
    if t is EMPTY:
        return set()
    a, b = t.children
    if a is EMPTY and b is EMPTY:
        return {t.label}
    return _leaf_labels(a) | _leaf_labels(b)


def _code_of(t, n):
    """Flat code of a tree on labels 1..n, written from its nodes."""
    code = [0] * (2 * n)

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


class TestReferenceOracles:
    def test_cycle_maps_match_the_recursive_maps(self):
        for n in range(1, 7):
            for family, mapping, kernel in (
                ("cud-b", phi_cud_b, phi_cud_b_kernel),
                ("cud-d", phi_cud_d, phi_cud_d_kernel),
            ):
                for cf in enumerate_family(family, n):
                    want = _phi_cud_reference(cf)
                    assert serialize(mapping(cf)) == serialize(want)
                    assert kernel(cf) == _code_of(want, n)

    def test_valley_maps_match_the_recursive_maps(self):
        for n in range(1, 7):
            for family, mapping, kernel in (
                ("vs-b", phi_vs_b, phi_vs_b_kernel),
                ("vs-d", phi_vs_d, phi_vs_d_kernel),
            ):
                for p in enumerate_family(family, n):
                    want = _phi_vs_reference(p)
                    assert serialize(mapping(p)) == serialize(want)
                    assert kernel(p) == _code_of(want, n)

    def test_flip_map_matches_the_recursive_map_on_every_window(self):
        for n in range(1, 7):
            for w in windows(n):
                want = _tau_flip_reference(SignedPerm(w))
                assert serialize(tau_flip(SignedPerm(w))) == serialize(want)
                assert tau_flip_code(w) == _code_of(want, n)

    def test_algo3_matches_the_recursive_split_on_every_permutation(self):
        for n in range(1, 8):
            for p in permutations(range(1, n + 1)):
                want = _algo3_reference(p)
                assert serialize(algo3(p)) == serialize(want)
                assert tuple(algo3_code(p)) == _code_of(want, n)

    def test_cycle_kernel_matches_the_recursive_block_walk(self):
        # block_code, leaf_values and algo2 read the same block walk; up-down
        # cycles of length <= 8 on 1..k, every signing for length <= 6
        count = 0
        for k in range(1, 9):
            for rest in permutations(range(2, k + 1)):
                cycle = (1,) + rest
                if not _up_down(cycle):
                    continue
                want = _algo1_reference(cycle)
                assert block_code(cycle) == _code_of(want, k)
                assert leaf_values(cycle) == _leaf_labels(want)
                if k <= 6:
                    for signs in range(1 << len(rest)):
                        signed = (1,) + tuple(
                            -v if signs >> i & 1 else v for i, v in enumerate(rest)
                        )
                        assert serialize(algo2(signed)) == serialize(_algo2_reference(signed))
                count += 1
        assert count == 1 + 1 + 1 + 2 + 5 + 16 + 61 + 272

    def test_cycle_split_matches_the_tree_round_trip(self):
        # case (ii) of psi_cud_b: the last cycle's tree is k:(k+1:(X,Y), o),
        # and the image cycles are the ones whose trees are k:(Y, o) and
        # k+1:(X, o)
        count = 0
        for n in range(2, 8):
            for cf in enumerate_family("cud-b", n):
                last = cf.cycles[-1].entries
                k = last[0]
                if k == n or last == (k, -(k + 1)) or k + 1 not in map(abs, last):
                    continue
                x, y = algo2(last).children[0].children
                want = (
                    _algo2_inverse_reference(Node(k, (y, EMPTY))),
                    _algo2_inverse_reference(Node(k + 1, (x, EMPTY))),
                )
                image = psi_cud_b(cf).image
                assert image.cycles[:-2] == cf.cycles[:-1]
                assert tuple(c.entries for c in image.cycles[-2:]) == want
                count += 1
        assert count == 1 + 5 + 25 + 147 + 1043 + 8617


class TestFlatCodes:
    def test_code_helpers_agree_with_the_tree_functions(self):
        for n in range(1, 6):
            for t in gen_trees(n):
                code = _code_of(t, n)
                assert tree_of(code) == t
                assert is_tree_code(code, n)
                assert classify_code(code) == classify(t)
                assert code.count(0) == count_empty(t)
                want = {s.label for s in rightmost_path(t) if s is not EMPTY}
                assert path_labels(code) == want

    @pytest.mark.parametrize(
        "code, n",
        [
            ((0, 0, 0), 2),  # odd length
            ((0, 0), 2),  # too short
            ((-1, 0), 1),  # half a labelled leaf
            ((-2, -2), 1),  # not a leaf mark
            ((0, 0, 0, 0), 2),  # label 2 hangs nowhere
            ((2, 2, 0, 0), 2),  # label 2 twice
            ((3, 0, 0, 0), 2),  # label outside 1..n
            ((2, 0, 1, 0), 2),  # child not above its parent
            ((0, 3, 2, 0, 0, 0), 3),  # decreasing along a path
        ],
    )
    def test_invalid_codes_are_refused(self, code, n):
        assert not is_tree_code(code, n)

    def test_acyclic_codes_agree_with_is_complete_increasing(self):
        for code, n in (
            ((2, 0, -1, -1), 2),
            ((-1, -1), 1),
            ((0, 0), 1),
            ((0, 0, 0, 0), 2),
            ((3, 0, 0, 0, 0, 0), 3),
            ((2, 3, 0, 0, 0, 0), 3),
        ):
            assert is_tree_code(code, n) == is_complete_increasing(tree_of(code), n)
