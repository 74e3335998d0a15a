import json
import random
from collections import Counter
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycle_reference as ref
from test_signed_perm import small_forms
from arnold.families import (
    FAMILIES,
    FlipClass,
    IllegalFlipError,
    IndexOutOfRangeError,
    RankOutOfRangeError,
    SizeCapExceededError,
    UnknownFamilyError,
    _up_down,
    cud_distribution,
    enumerate_family,
    enumerate_indexed,
    family_index,
    flip,
    flip_classes,
    is_alternating,
    is_cud_b,
    is_cud_d,
    is_snake_b,
    is_snake_d,
    is_vs_b,
    is_vs_d,
    rank,
    unrank,
    unsigned_flip_classes,
    vs_distribution,
    windows,
)
from arnold.signed_perm import (
    Cycle,
    CycleForm,
    InvalidWindowError,
    SignedPerm,
    cycle_form,
    from_window,
    stat_smax,
    stat_spk,
)
from arnold.triangles import arnold_numbers, entringer

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "src/arnold/golden/small_families.json").read_text()
)

SPRINGER_B = [1, 3, 11, 57, 361]
SPRINGER_D = [1, 1, 5, 23, 151]


class TestWindows:
    def test_count_and_order(self):
        for n in range(1, 5):
            ws = list(windows(n))
            assert len(ws) == factorial(n) * 2**n
            assert ws == sorted(ws)
            assert ws[0] == tuple(range(-n, 0))

    def test_every_window_is_valid(self):
        for w in windows(3):
            from_window(w)


class TestRanking:
    def test_unrank_zero(self):
        assert unrank(0, 2).window == (-2, -1)

    def test_roundtrip_exhaustive(self):
        seen = set()
        for i in range(48):
            p = unrank(i, 3)
            assert rank(p) == i
            seen.add(p.window)
        assert len(seen) == 48

    def test_matches_lexicographic_iteration(self):
        assert [unrank(i, 3).window for i in range(48)] == list(windows(3))

    def test_out_of_range(self):
        with pytest.raises(RankOutOfRangeError):
            unrank(48, 3)
        with pytest.raises(RankOutOfRangeError):
            unrank(-1, 3)

    @given(st.integers(min_value=0, max_value=factorial(5) * 2**5 - 1))
    def test_roundtrip_random(self, i):
        assert rank(unrank(i, 5)) == i


class TestFlip:
    def test_unsigned_flip(self):
        assert flip((2, 1, 3), 3) == (3, 1, 2)

    def test_trivial_prefix(self):
        p = from_window([1, 2])
        assert flip(p, 1) == p

    def test_illegal_flip(self):
        with pytest.raises(IllegalFlipError):
            flip(from_window([2, -1, 3, -4]), 2)
        with pytest.raises(IllegalFlipError):
            flip((2, 1, 3), 5)

    def test_full_reversal(self):
        assert flip(from_window([2, -1, 3, -4]), 4).window == (-4, 3, -1, 2)


class TestEnumerate:
    def test_counts_match_springer(self):
        for f, want in [
            ("cud-b", SPRINGER_B),
            ("vs-b", SPRINGER_B),
            ("fl-b", SPRINGER_B),
            ("snakes-b", SPRINGER_B),
            ("cud-d", SPRINGER_D),
            ("vs-d", SPRINGER_D),
            ("fl-d", SPRINGER_D),
            ("snakes-d", SPRINGER_D),
        ]:
            assert [len(enumerate_family(f, n)) for n in range(1, 6)] == want

    def test_cud_b_golden_listing(self):
        for n in (1, 2, 3):
            got = {
                tuple(tuple(c.entries) for c in cf.cycles)
                for cf in enumerate_family("cud-b", n)
            }
            want = {tuple(tuple(c) for c in member) for member in GOLDEN["cud-b"][str(n)]}
            assert got == want

    def test_cud_d_golden_listing(self):
        for n in (1, 2, 3):
            got = {
                tuple(tuple(c.entries) for c in cf.cycles)
                for cf in enumerate_family("cud-d", n)
            }
            want = {tuple(tuple(c) for c in member) for member in GOLDEN["cud-d"][str(n)]}
            assert got == want

    def test_vs_golden_listings(self):
        for fam_name in ("vs-b", "vs-d"):
            for n in (1, 2, 3):
                got = {p.window for p in enumerate_family(fam_name, n)}
                want = {tuple(w) for w in GOLDEN[fam_name][str(n)]}
                assert got == want

    def test_fl_golden_representatives(self):
        for fam_name, key in (("fl-b", "fl-b-reps"), ("fl-d", "fl-d-reps")):
            for n in (1, 2, 3):
                classes = enumerate_family(fam_name, n)
                rep_classes = set()
                for rep in GOLDEN[key][str(n)]:
                    owners = [c for c in classes if tuple(rep) in c.members]
                    assert len(owners) == 1, rep
                    rep_classes.add(owners[0].canon)
                assert len(rep_classes) == len(classes)

    def test_alternating_n1(self):
        assert [p.window for p in enumerate_family("alternating", 1)] == [(1,)]

    def test_deterministic_window_order(self):
        members = enumerate_family("vs-b", 4)
        ws = [p.window for p in members]
        assert ws == sorted(ws)

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            enumerate_family("nope", 3)

    def test_size_cap(self):
        with pytest.raises(SizeCapExceededError):
            enumerate_family("vs-b", 9)
        with pytest.raises(SizeCapExceededError):
            enumerate_family("vs-b", 0)

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("ARNOLD_MAX_N", "3")
        with pytest.raises(SizeCapExceededError):
            enumerate_family("vs-b", 4)


class TestIndexed:
    def test_cud_d_by_last_leader(self):
        members = enumerate_indexed("cud-d", 3, 3)
        got = {tuple(tuple(c.entries) for c in cf.cycles) for cf in members}
        assert got == {
            ((1, 2), (3, -3)),
            ((1, -2), (3, -3)),
            ((1,), (2,), (3, -3)),
        }

    def test_vs_b_by_first_entry(self):
        assert {p.window for p in enumerate_indexed("vs-b", 2, 1)} == {(1, 2), (1, -2)}

    def test_fl_d_singleton(self):
        (cls,) = enumerate_indexed("fl-d", 1, 1)
        assert cls.canon == (-1,)

    def test_disjoint_union(self):
        for f in FAMILIES:
            for n in (1, 2, 3, 4):
                whole = list(enumerate_family(f, n))
                parts = [m for k in range(1, n + 1) for m in enumerate_indexed(f, n, k)]
                assert len(parts) == len(whole)
                assert set(map(str, parts)) == set(map(str, whole))

    def test_indexed_counts_match_triangle(self):
        rows = arnold_numbers(6)
        for n in range(1, 7):
            row = rows[n - 1]
            for k in range(1, n + 1):
                for f, value in (
                    ("cud-b", row.value(k)),
                    ("vs-b", row.value(k)),
                    ("fl-b", row.value(k)),
                    ("cud-d", row.value(-k)),
                    ("vs-d", row.value(-k)),
                    ("fl-d", row.value(-k)),
                ):
                    assert len(enumerate_indexed(f, n, n - k + 1)) == value, (f, n, k)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            enumerate_indexed("vs-b", 3, 4)


def _signed_flip_classes_reference(n):
    """Flip classes grown by flood fill over all 2^n * n! signed windows,
    comparing |entries| for legality, with smax and spk evaluated on every
    member and required constant on each class."""
    signed = (w for p in permutations(range(1, n + 1)) for w in product(*((a, -a) for a in p)))
    seen = set()
    classes = []
    for start in signed:
        if start in seen:
            continue
        seen.add(start)
        group = [start]
        for w in group:
            images = [w[::-1]]
            low = abs(w[0])
            for k in range(1, n):
                if abs(w[k]) < low:
                    low = abs(w[k])
                    if k > 1:
                        images.append(w[k - 1 :: -1] + w[k:])
            for img in images:
                if img not in seen:
                    seen.add(img)
                    group.append(img)
        group.sort()
        (smax,) = {stat_smax(m) for m in group}
        (spk,) = {stat_spk(SignedPerm(m)) for m in group}
        classes.append(FlipClass(group[0], tuple(group), smax, spk))
    classes.sort(key=lambda c: c.canon)
    return tuple(classes)


class TestFlipClasses:
    def test_classes_are_built_without_member_windows(self, monkeypatch):
        import arnold.families as families

        def refuse(*args):
            raise AssertionError("flip_classes read a member window")

        for name in ("_signed_members", "stat_smax", "stat_spk"):
            monkeypatch.setattr(families, name, refuse)
        flip_classes.cache_clear()
        try:
            classes = flip_classes(5)
        finally:
            flip_classes.cache_clear()
        assert len(classes) == 512
        for cls in classes:
            assert (cls.smax, cls.spk) == (stat_smax(cls.canon), stat_spk(SignedPerm(cls.canon)))

    def test_members_are_built_when_read(self):
        cls = FlipClass((1, 2), lambda: ((1, 2), (2, 1)), 1, 0)
        assert cls.members == ((1, 2), (2, 1))
        assert cls == FlipClass((1, 2), ((1, 2), (2, 1)), 1, 0)
        assert not cls != FlipClass((1, 2), ((1, 2), (2, 1)), 1, 0)
        assert cls != FlipClass((1, 2), ((1, 2),), 1, 0)
        assert cls.to_json()["members"] == [[1, 2], [2, 1]]

    def test_sixteen_classes_at_three(self):
        assert len(flip_classes(3)) == 16
        assert len(enumerate_family("fl-b", 3)) == 11
        assert len(enumerate_family("fl-d", 3)) == 5

    def test_members_partition_all_windows(self):
        for n in range(1, 7):
            classes = flip_classes(n)
            members = [w for c in classes for w in c.members]
            assert sorted(members) == list(windows(n))

    def test_classes_match_signed_flood_fill_reference(self):
        for n in range(1, 7):
            assert flip_classes(n) == _signed_flip_classes_reference(n), n

    def test_signed_classes_are_signed_unsigned_classes(self):
        for n in range(1, 7):
            unsigned = set(unsigned_flip_classes(n))
            for cls in flip_classes(n):
                negated = {frozenset(-v for v in w if v < 0) for w in cls.members}
                assert len(negated) == 1, cls.canon
                assert tuple(sorted(tuple(map(abs, w)) for w in cls.members)) in unsigned, cls.canon

    @staticmethod
    def _closure(start):
        """The class of `start` under the public `flip`, found by trying
        every prefix length on every window reached."""
        found = {start}
        todo = [start]
        while todo:
            w = todo.pop()
            for k in range(1, len(w) + 1):
                try:
                    img = flip(w, k)
                except IllegalFlipError:
                    continue
                if img not in found:
                    found.add(img)
                    todo.append(img)
        return tuple(sorted(found))

    def test_classes_are_closures_under_literal_flips(self):
        for n in range(1, 6):
            for cls in flip_classes(n):
                assert self._closure(cls.canon) == cls.members, cls.canon
            for members in unsigned_flip_classes(n):
                assert self._closure(members[0]) == members, members

    def test_sampled_classes_at_seven_are_literal_flip_closures(self):
        """One size past the flood-fill reference: the class of a sampled
        window w is its closure under `flip`, with the statistics of w."""
        by_canon = {cls.canon: cls for cls in flip_classes(7)}
        ranks = random.Random(30).sample(range(factorial(7) << 7), 40)
        for w in (unrank(r, 7).window for r in ranks):
            closure = self._closure(w)
            cls = by_canon[closure[0]]
            assert cls.members == closure, w
            assert (cls.smax, cls.spk) == (stat_smax(w), stat_spk(SignedPerm(w))), w

    def test_equal_classes_from_separate_fills_have_equal_reprs(self):
        flip_classes.cache_clear()
        try:
            first = flip_classes(3)
            flip_classes.cache_clear()
            second = flip_classes(3)
        finally:
            flip_classes.cache_clear()
        assert first == second and first[0] is not second[0]
        assert list(map(repr, first)) == list(map(repr, second))
        assert repr(first[0]) == (
            "FlipClass(canon=(-3, -2, -1), members=((-3, -2, -1), (-2, -3, -1), "
            "(-1, -3, -2), (-1, -2, -3)), smax=-3, spk=1)"
        )

    def test_class_of_smax_example(self):
        classes = flip_classes(4)
        (cls,) = [c for c in classes if (2, -1, 3, -4) in c.members]
        assert set(cls.members) == {(2, -1, 3, -4), (2, -1, -4, 3), (3, -4, -1, 2), (-4, 3, -1, 2)}
        assert cls.smax == 2

    def test_unsigned_classes_at_three(self):
        classes = {frozenset(c) for c in unsigned_flip_classes(3)}
        assert classes == {
            frozenset({(1, 2, 3), (3, 2, 1), (2, 3, 1), (1, 3, 2)}),
            frozenset({(2, 1, 3), (3, 1, 2)}),
        }

    @given(st.data())
    @settings(max_examples=60)
    def test_smax_and_spk_invariant_under_flips(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        i = data.draw(st.integers(min_value=0, max_value=factorial(n) * 2**n - 1))
        p = unrank(i, n)
        k = data.draw(st.integers(min_value=1, max_value=n))
        try:
            q = flip(p, k)
        except IllegalFlipError:
            return
        assert stat_smax(q.window) == stat_smax(p.window)
        assert stat_spk(q) == stat_spk(p)


class TestDistributionSweeps:
    def test_cud_sweep_agrees_with_enumeration(self):
        from arnold.signed_perm import stat_npk

        for n in range(1, 7):
            want = Counter()
            for side, f in (("b", "cud-b"), ("d", "cud-d")):
                for cf in enumerate_family(f, n):
                    want[(side, cf.cycles[-1].leader, stat_npk(cf))] += 1
            assert cud_distribution(n) == want

    def test_vs_sweep_agrees_with_enumeration(self):
        from arnold.signed_perm import stat_neg

        for n in range(1, 7):
            want = Counter()
            for side, f in (("b", "vs-b"), ("d", "vs-d")):
                for p in enumerate_family(f, n):
                    want[(side, abs(p.window[0]), stat_neg(p))] += 1
            assert vs_distribution(n) == want

    def test_family_index_values(self):
        cf = enumerate_family("cud-d", 2)[0]
        assert family_index("cud-d", cf) == 2
        p = from_window([-2, 1])
        assert family_index("vs-d", p) == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_generators_match_literal_filters(n):
    # the generated families equal, in order, the literal filter over all
    # signed windows; each window's cycle form is computed once
    ws = list(windows(n))
    cfs = [cycle_form(SignedPerm(w)) for w in ws]
    want = {
        "alternating": [SignedPerm(w) for w in ws if min(w) > 0 and is_alternating(w)],
        "snakes-b": [SignedPerm(w) for w in ws if is_snake_b(w)],
        "snakes-d": [SignedPerm(w) for w in ws if is_snake_d(w)],
        "cud-a": [cf for w, cf in zip(ws, cfs) if min(w) > 0 and is_cud_b(cf)],
        "cud-b": [cf for cf in cfs if is_cud_b(cf)],
        "cud-d": [cf for cf in cfs if is_cud_d(cf)],
        "vs-b": [SignedPerm(w) for w in ws if is_vs_b(w)],
        "vs-d": [SignedPerm(w) for w in ws if is_vs_d(w)],
    }
    for f, members in want.items():
        assert list(enumerate_family(f, n)) == members, f


def test_permutation_families_per_entry():
    # per-index counts of every generated family against the triangles:
    # snakes by first entry read the row left to right, the cycle and
    # valley families read it right to left, and cud-a gives Entringer
    # numbers one row down
    rows = arnold_numbers(7)
    ent = entringer(8)
    for n in range(1, 8):
        row = rows[n - 1]
        want = {
            "snakes-b": [row.value(k) for k in range(1, n + 1)],
            "snakes-d": [row.value(-k) for k in range(1, n + 1)],
            "cud-b": [row.value(n + 1 - k) for k in range(1, n + 1)],
            "cud-d": [row.value(-(n + 1 - k)) for k in range(1, n + 1)],
            "vs-b": [row.value(n + 1 - k) for k in range(1, n + 1)],
            "vs-d": [row.value(-(n + 1 - k)) for k in range(1, n + 1)],
            "cud-a": list(ent[n][1:]),
        }
        for f, counts in want.items():
            got = Counter(family_index(f, m) for m in enumerate_family(f, n))
            assert [got[k] for k in range(1, n + 1)] == counts, (f, n)


def test_unsigned_cycle_up_down_counts():
    # one size up the Euler ladder: 1, 2, 5, 16, 61
    from arnold.triangles import euler_numbers

    euler = euler_numbers(6)
    for n in range(1, 6):
        members = enumerate_family("cud-a", n)
        assert len(members) == euler[n]
        assert all(all(e > 0 for c in cf.cycles for e in c.entries) for cf in members)


def test_alternating_is_unsigned():
    for n in range(1, 5):
        for p in enumerate_family("alternating", n):
            assert all(v > 0 for v in p.window)
        assert len(enumerate_family("alternating", n)) == len(
            [
                p
                for p in permutations(range(1, n + 1))
                if all((p[i] > p[i + 1]) if i % 2 == 0 else (p[i] < p[i + 1]) for i in range(n - 1))
            ]
        )


@pytest.mark.parametrize("rule, old", [(is_alternating, ref.is_alternating), (_up_down, ref.up_down)])
def test_alternation_rules_equal_their_former_definitions(rule, old):
    # every int tuple of length 0..6 with entries in -3..3, as a tuple and as a list
    for n in range(7):
        for w in product(range(-3, 4), repeat=n):
            want = old(w)
            assert rule(w) is want, w
            assert rule(list(w)) is want, w


@pytest.mark.parametrize(
    "predicate, empty",
    [
        (is_snake_b, ()),
        (is_snake_d, ()),
        (is_vs_b, ()),
        (is_vs_d, ()),
        (is_cud_b, CycleForm(())),
        (is_cud_d, CycleForm(())),
    ],
)
def test_literal_predicates_refuse_empty_input(predicate, empty):
    # no family has a member of size 0
    assert predicate(empty) is False


@pytest.mark.parametrize(
    "predicate, old",
    [(is_snake_b, ref.is_snake_b), (is_snake_d, ref.is_snake_d),
     (is_vs_b, ref.is_vs_b), (is_vs_d, ref.is_vs_d)],
)
def test_literal_predicates_refuse_non_windows(predicate, old):
    # every int tuple of length 0..4 with entries in -5..5: False wherever
    # from_window refuses, the old predicate's answer elsewhere
    for n in range(5):
        for w in product(range(-5, 6), repeat=n):
            try:
                from_window(w)
            except InvalidWindowError:
                want = False
            else:
                want = old(w)
            assert predicate(w) is want, w


def test_valley_predicate_equals_its_former_definition_on_every_window():
    # is_vs_b reads valley positions where it read valley values; the sweep
    # above holds it to the same answer on the int tuples up to length 4
    for n in range(1, 7):
        for w in windows(n):
            assert is_vs_b(w) is ref.is_vs_b(w), w


@pytest.mark.parametrize(
    "predicate, window",
    [(is_vs_b, (2, 2)), (is_vs_b, (0,)), (is_vs_b, (1, 3)), (is_vs_d, (-2, 1, 1)),
     (is_snake_b, (3, 1)), (is_snake_d, (-2, 3, True))],
)
def test_literal_predicates_refuse_what_they_used_to_accept(predicate, window):
    assert predicate(window) is False


def test_is_cud_d_needs_a_final_bracket_of_the_form_k_minus_k():
    # the bracket rule that stat_npk reads: one bracket cycle, last, (k,-k)
    assert is_cud_d(CycleForm((Cycle((1,)), Cycle((2, -2), bracket=True)))) is True
    assert is_cud_d(CycleForm((Cycle((1,)), Cycle((2, 3), bracket=True)))) is False
    assert is_cud_d(CycleForm((Cycle((2, -2), bracket=True), Cycle((1,))))) is False


@pytest.mark.parametrize("family, is_member", [("cud-b", is_cud_b), ("cud-d", is_cud_d)])
def test_cycle_predicates_are_family_membership_on_small_forms(family, is_member):
    # a form the generator does not make, such as (1,3), (-1), (1,2)(1,2)
    # or (0), which are not the cycle form of any window, is refused
    members = {n: set(enumerate_family(family, n)) for n in range(1, 5)}
    for cf in small_forms():
        assert is_member(cf) is (cf in members.get(cf.n, ())), cf
