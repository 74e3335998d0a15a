from itertools import permutations

import pytest

from arnold.bijections import (
    MalformedCycleError,
    MalformedSequenceError,
    MissingPeakError,
    NotInFamilyError,
    _make_leaf,
    _valley_code,
    _valley_setup,
    algo2,
    algo3,
    images,
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
)
from arnold.families import UnknownFamilyError, _up_down, enumerate_family, flip_classes, psi_cud_b, windows
from arnold.signed_perm import (
    Cycle,
    CycleForm,
    InvalidWindowError,
    SignedPerm,
    from_window,
    leaf_values,
    peak_values,
    peaks,
    stat_npk,
    valleys,
)
from arnold.trees import (
    block_code,
    classify,
    complement,
    count_empty,
    is_complete_increasing,
    rightmost_path,
)
import tree_reference as ref
from tree_reference import EMPTY, Node, code_of, serialize, tree_of


class TestDoubleBracket:
    def test_min_first(self):
        assert ref.double_bracket((1, 3, 2)) == ((), 1, (3, 2))

    def test_min_last(self):
        assert ref.double_bracket((9, 8)) == ((9,), 8, ())

    def test_min_interior(self):
        assert ref.double_bracket((7, 4, 9, 8)) == ((7,), 4, (9, 8))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ref.double_bracket(())


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
        assert self.chain_labels(ref.algo1((1, 3, 2))) == [1, 2, 3]

    def test_chain_56(self):
        assert self.chain_labels(ref.algo1((5, 6))) == [5, 6]

    def test_chain_798(self):
        assert self.chain_labels(ref.algo1((7, 9, 8))) == [7, 8, 9]


class TestAlgo2:
    def test_single_positive_keeps_empty_leaves(self):
        assert serialize(tree_of(algo2((4,)), 4)) == "4(.,.)"

    def test_negative_child_goes_right(self):
        assert serialize(tree_of(algo2((1, -3, -2)))) == "1(2(.,3),.)"

    def test_one_negative(self):
        assert serialize(tree_of(algo2((5, -6)), 5)) == "5(6,.)"

    def test_leader_must_be_positive(self):
        with pytest.raises(MalformedCycleError):
            algo2((-1, 2))

    def test_root_right_child_is_empty(self):
        for cf in enumerate_family("cud-b", 4):
            for c in cf.cycles:
                # empty, or the -1 of a labelled leaf
                assert algo2(c.entries)[2 * c.leader - 1] in (0, -1)


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
                    assert ref.algo2_inverse(tree_of(algo2(cycle))) == cycle
                    count += 1
        assert count == 1 + 2 + 4 + 16 + 80 + 512

    def test_examples(self):
        assert ref.algo2_inverse(Node(4, (EMPTY, EMPTY))) == (4,)
        tree = Node(1, (Node(3, (Node(4), EMPTY)), EMPTY))
        assert ref.algo2_inverse(tree) == (1, -4, 3)


class TestCycleMaps:
    def test_smallest_case(self):
        t = phi_cud_b(CycleForm((Cycle((1,)),)))
        assert serialize(tree_of(t)) == "1(.,.)"
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
        with pytest.raises(NotInFamilyError):
            phi_cud_d(CycleForm((Cycle((1,)), Cycle((2, 3), bracket=True))))  # bracket not (k,-k)

    def test_small_bijectivity(self):
        for n in range(1, 5):
            for fam_name, mapping, kind in (("cud-b", phi_cud_b, "o"), ("cud-d", phi_cud_d, "*")):
                members = enumerate_family(fam_name, n)
                images = {mapping(cf) for cf in members}
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
        t = tree_of(algo3((7, 5, 1, 3, 4, 2, 6)))
        assert serialize(t.children[1]) == serialize(tree_of(algo3((7, 5)), 5))
        assert serialize(t.children[0]) == serialize(tree_of(algo3((3, 4, 2, 6)), 2))

    def test_singleton(self):
        assert serialize(tree_of(algo3((4,)), 4)) == "4(.,.)"

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
                double_empty_labels(tree_of(algo3(p)), found)
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
        assert serialize(tree_of(t)) == "1(.,.)"

    def test_only_a_pair_of_empty_leaves_becomes_a_labelled_leaf(self):
        code = [2, 0, 0, 0]
        with pytest.raises(MissingPeakError, match="^node 1 does not carry two empty leaves$"):
            _make_leaf(code, 1)
        _make_leaf(code, 2)
        assert code == [2, 0, -1, -1]
        with pytest.raises(MissingPeakError, match="^node 2 does not carry two empty leaves$"):
            _make_leaf(code, 2)

    def test_pairing_matches_the_former_scan_on_every_window(self):
        # pairing the i-th valley of |w| with its i-th peak makes the same
        # labelled leaves as the one-pass scan it replaced, members or not
        for n in range(1, 7):
            for w in windows(n):
                code = algo3([abs(v) for v in w])
                for label in ref.scan_paired_peaks(w):
                    _make_leaf(code, label)
                assert _valley_code(SignedPerm(w), []) == tuple(code), w

    def test_memo_holds_the_split_code_and_valley_peak_pairs_of_every_absolute_window(self):
        # the labels agree with the former scan on the signing whose every
        # valley successor is negated
        for n in range(1, 8):
            for aw in permutations(range(1, n + 1)):
                split, pairs = _valley_setup(aw)
                assert split == tuple(algo3(aw)), aw
                assert [v for v, _ in pairs] == sorted(valleys(aw)), aw
                assert [label for _, label in pairs] == [aw[q - 1] for q in sorted(peaks(aw))], aw
                assert [label for _, label in pairs] == ref.scan_paired_peaks(tuple(-v for v in aw)), aw
        assert _valley_setup.cache_info().maxsize == block_code.cache_info().maxsize == 1 << 16

    @pytest.mark.parametrize(
        "kernel, signed", [(phi_vs_b_kernel, (5, 1, -3, 2, -4)), (phi_vs_d_kernel, (-5, 1, -3, 2, 4))]
    )
    def test_a_signing_leaves_the_memo_unedited_for_its_twin(self, kernel, signed):
        # both members read one memo entry; the labelled leaves of the first
        # must not reach the plain min-split code of the second
        aw = (5, 1, 3, 2, 4)
        assert kernel(SignedPerm(signed)).count(-1) == 4
        assert phi_vs_b_kernel(SignedPerm(aw)) == tuple(algo3(aw))
        assert _valley_setup(aw)[0] == tuple(algo3(aw))
        assert _valley_setup.cache_info().misses == 1

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

    @pytest.mark.parametrize("mapping", [phi_vs_b, phi_vs_d])
    @pytest.mark.parametrize("window", [(2, 2), (1, 1, 3), (0,)])
    def test_rejects_non_windows(self, mapping, window):
        # phi_vs_b returned (0, 0, 2, 0) and (3, 0, 0, 0, 0, 0) for the first
        # two, and raised IndexError on (0,)
        with pytest.raises(InvalidWindowError):
            mapping(SignedPerm(window))

    def test_small_bijectivity(self):
        for n in range(1, 5):
            for fam_name, mapping, kind in (("vs-b", phi_vs_b, "o"), ("vs-d", phi_vs_d, "*")):
                members = enumerate_family(fam_name, n)
                images = {mapping(p) for p in members}
                assert len(images) == len(members)
                for p in members:
                    c = classify(mapping(p))
                    assert c.kind == kind
                    assert c.rightmost_label == abs(p.window[0])


class TestFlipMap:
    def test_explicit_tree(self):
        t = tau_flip(from_window([1, -2, 3]))
        assert serialize(tree_of(t)) == "1(2(.,3(.,.)),.)"
        assert count_empty(t) == 4
        all_members = [[1, -2, 3], [3, -2, 1], [-2, 3, 1], [1, 3, -2]]
        assert {tau_flip(from_window(w)) for w in all_members} == {t}

    def test_four_element_class(self):
        members = [[-2, -4, 1, -3], [-3, 1, -2, -4], [-3, 1, -4, -2], [-4, -2, 1, -3]]
        trees = {tau_flip(from_window(w)) for w in members}
        assert len(trees) == 1
        c = classify(tau_flip(from_window(members[0])))
        assert (c.kind, c.rightmost_label) == ("*", 3)

    def test_negative_singleton(self):
        assert serialize(tree_of(tau_flip(from_window([-1])))) == "1"

    @pytest.mark.parametrize(
        "window, message",
        [((2, 2), "distinct and positive"), ((2, -2), "distinct and positive"),
         ((0, 1), "distinct and positive"), ((), "empty window"),
         ((1, 3), r"must be 1\.\.2")],
    )
    def test_malformed_window_is_refused(self, window, message):
        with pytest.raises(MalformedSequenceError, match=message):
            tau_flip(SignedPerm(window))

    def test_class_map_well_defined_small(self):
        for n in range(1, 5):
            for cls in flip_classes(n):
                trees = {tau_flip(from_window(w)) for w in cls.members}
                assert len(trees) == 1
                c = classify(phi_f(cls))
                assert c.kind == ("o" if cls.smax > 0 else "*")
                assert c.rightmost_label == abs(cls.smax)


class TestImages:
    @pytest.mark.parametrize(
        "family, checked_map",
        [("cud-b", phi_cud_b), ("cud-d", phi_cud_d), ("vs-b", phi_vs_b), ("vs-d", phi_vs_d),
         ("fl-b", phi_f), ("fl-d", phi_f)],
    )
    def test_each_member_comes_with_its_checked_map_image(self, family, checked_map):
        for n in range(1, 5):
            want = [(m, checked_map(m)) for m in enumerate_family(family, n)]
            assert list(images(family, n)) == want

    @pytest.mark.parametrize("family", ["alternating", "snakes-b", "cud-a", "trees-o"])
    def test_a_family_without_a_tree_map_is_refused(self, family):
        with pytest.raises(UnknownFamilyError, match="has no tree map"):
            next(images(family, 2))

    def test_the_map_is_read_from_the_module_when_the_walk_starts(self, monkeypatch):
        import arnold.bijections as bijections

        monkeypatch.setattr(bijections, "phi_vs_d_kernel", lambda p: ("patched", p.window))
        assert list(images("vs-d", 2)) == [(p, ("patched", p.window)) for p in enumerate_family("vs-d", 2)]


class TestReferenceOracles:
    def test_cycle_maps_match_the_recursive_maps(self):
        for n in range(1, 7):
            for family, mapping, kernel in (
                ("cud-b", phi_cud_b, phi_cud_b_kernel),
                ("cud-d", phi_cud_d, phi_cud_d_kernel),
            ):
                for cf in enumerate_family(family, n):
                    want = code_of(ref.phi_cud(cf), n)
                    assert mapping(cf) == want
                    assert kernel(cf) == want

    def test_valley_maps_match_the_recursive_maps(self):
        for n in range(1, 7):
            for family, mapping, kernel in (
                ("vs-b", phi_vs_b, phi_vs_b_kernel),
                ("vs-d", phi_vs_d, phi_vs_d_kernel),
            ):
                for p in enumerate_family(family, n):
                    want = code_of(ref.phi_vs(p), n)
                    assert mapping(p) == want
                    assert kernel(p) == want

    def test_flip_map_matches_the_recursive_map_on_every_window(self):
        for n in range(1, 7):
            for w in windows(n):
                want = ref.tau_flip(SignedPerm(w))
                assert tau_flip(SignedPerm(w)) == code_of(want, n)

    def test_algo3_matches_the_recursive_split_on_every_permutation(self):
        for n in range(1, 8):
            for p in permutations(range(1, n + 1)):
                want = ref.algo3(p)
                assert tuple(algo3(p)) == code_of(want, n)

    def test_cycle_kernel_matches_the_recursive_block_walk(self):
        # block_code, leaf_values and algo2 read the same block walk; up-down
        # cycles of length <= 8 on 1..k, every signing for length <= 6
        count = 0
        for k in range(1, 9):
            for rest in permutations(range(2, k + 1)):
                cycle = (1,) + rest
                if not _up_down(cycle):
                    continue
                want = ref.algo1(cycle)
                assert block_code(cycle) == code_of(want, k)
                assert leaf_values(cycle) == ref.leaf_labels(want)
                if k <= 6:
                    for signs in range(1 << len(rest)):
                        signed = (1,) + tuple(
                            -v if signs >> i & 1 else v for i, v in enumerate(rest)
                        )
                        assert algo2(signed) == code_of(ref.algo2(signed), k)
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
                x, y = tree_of(algo2(last), k).children[0].children
                want = (
                    ref.algo2_inverse(Node(k, (y, EMPTY))),
                    ref.algo2_inverse(Node(k + 1, (x, EMPTY))),
                )
                image = psi_cud_b(cf).image
                assert image.cycles[:-2] == cf.cycles[:-1]
                assert tuple(c.entries for c in image.cycles[-2:]) == want
                count += 1
        assert count == 1 + 5 + 25 + 147 + 1043 + 8617


class TestFlatCodes:
    def test_code_helpers_agree_with_the_tree_functions(self):
        for n in range(1, 6):
            for t in ref.gen_trees(n):
                code = code_of(t, n)
                assert tree_of(code) == t
                assert is_complete_increasing(code, n)
                assert classify(code) == ref.classify(t)
                assert count_empty(code) == ref.count_empty(t)
                want = {s.label for s in ref.rightmost_path(t) if s is not EMPTY}
                assert rightmost_path(code) == want

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
        assert not is_complete_increasing(code, n)

    def test_acyclic_codes_agree_with_is_complete_increasing(self):
        for code, n in (
            ((2, 0, -1, -1), 2),
            ((-1, -1), 1),
            ((0, 0), 1),
            ((0, 0, 0, 0), 2),
            ((3, 0, 0, 0, 0, 0), 3),
            ((2, 3, 0, 0, 0, 0), 3),
        ):
            assert is_complete_increasing(code, n) == ref.is_complete_increasing(tree_of(code), n)
