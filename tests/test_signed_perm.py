from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arnold.families import enumerate_family, is_canonical, windows
from arnold.signed_perm import (
    AbsValueOutOfRangeError,
    Cycle,
    CycleForm,
    InvalidWindowError,
    MalformedCudCycleFormError,
    RepeatedAbsValueError,
    SignedPerm,
    ZeroEntryError,
    cycle_form,
    from_window,
    leaf_values,
    left_to_right_minima,
    peak_values,
    peaks,
    stat_neg,
    stat_npk,
    stat_report,
    stat_smax,
    stat_spk,
    valley_values,
    valleys,
    window_of,
)


def _smax_reference(word):
    """The recursive min-split definition of smax, kept as the reference
    for `stat_smax`."""
    w = tuple(word)
    if not w:
        raise ValueError("smax of empty word")
    if len({abs(v) for v in w}) != len(w):
        raise ValueError("absolute values must be distinct")
    i = min(range(len(w)), key=lambda j: abs(w[j]))
    m = w[i]
    left, right = w[:i], w[i + 1 :]
    if not left and not right:
        return m
    if not left:
        return m if m > 0 else _smax_reference(right)
    if not right:
        return m if m > 0 else _smax_reference(left)
    min_l = min(abs(v) for v in left)
    min_r = min(abs(v) for v in right)
    if m > 0:
        return _smax_reference(left) if min_l > min_r else _smax_reference(right)
    return _smax_reference(left) if min_l < min_r else _smax_reference(right)


def signed_perms(max_n=6):
    return (
        st.integers(min_value=1, max_value=max_n)
        .flatmap(
            lambda n: st.tuples(
                st.permutations(list(range(1, n + 1))),
                st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
            )
        )
        .map(lambda t: SignedPerm(tuple(v * s for v, s in zip(t[0], t[1]))))
    )


class TestFromWindow:
    def test_valid_window(self):
        assert from_window([2, -4, 3, 1]).n == 4

    def test_paper_example_window(self):
        assert from_window([-2, 4, -5, -1, 9, 6, 3, -8, 7]).n == 9

    def test_zero_entry(self):
        with pytest.raises(ZeroEntryError):
            from_window([0, 1])

    def test_repeated_abs_value(self):
        with pytest.raises(RepeatedAbsValueError):
            from_window([1, 1])
        with pytest.raises(RepeatedAbsValueError):
            from_window([2, -2])

    def test_out_of_range(self):
        with pytest.raises(AbsValueOutOfRangeError):
            from_window([1, 3])

    @pytest.mark.parametrize("window", [[1.9, 2], ["2", "1"], [True], [2, 1.0]])
    def test_entries_that_are_not_ints_are_refused(self, window):
        # these were truncated or coerced to [1,2], [2,1], [1] and [2,1]
        with pytest.raises(InvalidWindowError, match="is not an int"):
            from_window(window)


class TestCycleForm:
    def test_special_example(self):
        cf = cycle_form(from_window([-2, -4, 3, 1, -6, -7, 5]))
        assert str(cf) == "(1,-2,4)(3)(5,-6,7)"
        assert cf.is_special()

    def test_bracket_example(self):
        cf = cycle_form(from_window([-2, 4, -5, -1, 9, 6, 3, -8, 7]))
        assert str(cf) == "(1,-2,-4)[3,-5,-9,-7,-3,5,9,7](6)[8,-8]"
        assert not cf.is_special()

    def test_identity(self):
        cf = cycle_form(from_window([1, 2, 3]))
        assert str(cf) == "(1)(2)(3)"
        assert cf.is_special()

    def test_roundtrip_exhaustive_small(self):
        for n in range(1, 6):
            for w in windows(n):
                p = SignedPerm(w)
                assert window_of(cycle_form(p)) == p

    def test_canonical_leaders_ascend_and_are_positive(self):
        for w in windows(4):
            cf = cycle_form(SignedPerm(w))
            leaders = cf.leaders()
            assert all(l > 0 for l in leaders)
            assert list(leaders) == sorted(leaders)

    def test_json_encoding(self):
        cf = cycle_form(from_window([2, 1]))
        assert cf.to_json() == {"cycles": [{"entries": [1, 2], "bracket": False}]}

    def test_window_of_bracket_form(self):
        cf = CycleForm((Cycle((1, -1), bracket=True), Cycle((2, -2), bracket=True)))
        assert window_of(cf).window == (-1, -2)

    def test_size_of_bracket_forms(self):
        for n in range(1, 5):
            for cf in enumerate_family("cud-d", n):
                assert cf.n == len(window_of(cf).window) == n


def _form(*cycles):
    """Cycles as tuples of entries; a list is a bracket cycle."""
    return CycleForm(tuple(Cycle(tuple(c), bracket=isinstance(c, list)) for c in cycles))


class TestWindowOfRefusals:
    @pytest.mark.parametrize(
        "form",
        [
            _form((1, 3)),  # a label above n
            _form((1,), (-3,)),
            _form((0,)),
            _form((0, 1)),
            _form((1, 1)),  # a label twice in a plain cycle
            _form((2, -2)),
            _form((1,), (1,)),  # a label in two cycles
            _form((1, 2), (1, 2)),
            _form([1, 1, -1, -1]),
        ],
        ids=str,
    )
    def test_labels_not_one_to_n_each_once(self, form):
        with pytest.raises(ValueError) as caught:
            window_of(form)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"labels of {form} are not 1..{form.n}, each in one cycle once"
        assert not is_canonical(form)

    @pytest.mark.parametrize(
        "form",
        [
            _form((1,), [2, -3]),  # holds neither -2 nor 3
            _form([2, -2, 2, -2]),
            _form([1, 2, -2, -1]),  # both k and -k, but not as a negated half
            _form([1, -2, 3]),
        ],
        ids=str,
    )
    def test_bracket_cycle_not_closed_by_negation(self, form):
        with pytest.raises(ValueError) as caught:
            window_of(form)
        bracket = next(c for c in form.cycles if c.bracket)
        assert str(caught.value) == f"bracket cycle {bracket} is not labels followed by their negatives"
        assert not is_canonical(form)

    def test_forms_that_are_not_canonical_still_have_a_window(self):
        # leaders out of order, or a cycle not read from its least entry
        assert window_of(_form((2,), (1,))).window == (1, 2)
        assert window_of(_form((2, 1))).window == (2, 1)
        assert window_of(_form([2, -1, -2, 1])).window == (2, -1)
        assert window_of(_form()).window == ()


class TestValleysPeaks:
    def test_positions_and_values(self):
        assert valleys((5, 1, 3, 2, 4)) == frozenset({2, 4})
        assert valley_values((5, 1, 3, 2, 4)) == frozenset({1, 2})

    def test_leading_valley(self):
        assert valleys((1, 2, 3)) == frozenset({1})

    def test_scan_oracle(self):
        # independent position scan of the definition
        def brute(seq):
            out = set()
            for i in range(1, len(seq) + 1):
                if i == 1 and len(seq) > 1 and seq[0] < seq[1]:
                    out.add(1)
                elif 2 <= i <= len(seq) - 1 and seq[i - 2] > seq[i - 1] < seq[i]:
                    out.add(i)
            return frozenset(out)

        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                assert valleys(p) == brute(p)

    def test_seven_element_scan(self):
        assert valley_values((7, 5, 1, 3, 4, 2, 6)) == frozenset({1, 2})
        assert peak_values((7, 5, 1, 3, 4, 2, 6)) == frozenset({4, 6})

    def test_trailing_peak(self):
        assert peaks((1, 2, 3)) == frozenset({3})

    def test_singleton_has_neither(self):
        assert valleys((1,)) == frozenset()
        assert peaks((1,)) == frozenset()

    def test_valleys_and_peaks_alternate(self):
        for n in range(2, 9):
            for p in permutations(range(1, n + 1)):
                marks = sorted(
                    [(i, "v") for i in valleys(p)] + [(i, "p") for i in peaks(p)]
                )
                kinds = [k for _, k in marks]
                assert all(a != b for a, b in zip(kinds, kinds[1:])), p
                # exactly one peak between consecutive valleys
                vs = sorted(valleys(p))
                ps = sorted(peaks(p))
                for a, b in zip(vs, vs[1:]):
                    assert sum(1 for q in ps if a < q < b) == 1


class TestStatistics:
    def test_neg(self):
        assert stat_neg(from_window([-7, 4, 2, 8, 1, -5, 3, -9, 10, 6])) == 3
        assert stat_neg(from_window([1, 2, 3])) == 0
        assert stat_neg(from_window([-1, -2])) == 2

    def test_npk_type_b(self):
        cf = CycleForm((Cycle((1, -3, -2)), Cycle((4,)), Cycle((5, -6)), Cycle((7, 9, -8))))
        assert stat_npk(cf) == 2

    def test_npk_type_d(self):
        cf = CycleForm(
            (Cycle((1, -9, -2)), Cycle((3, 4)), Cycle((5, 8, -6)), Cycle((7, -7), bracket=True))
        )
        assert stat_npk(cf) == 2

    def test_leaf_values(self):
        assert leaf_values((1, 4, 2, 3)) == {4}
        assert leaf_values((1, 5, 3, 4, 2)) == {4, 5}
        assert leaf_values((7,)) == {7}
        assert leaf_values(()) == frozenset()

    def test_npk_counts_negative_leaves_only(self):
        # -3 ends an ascent but 3 is not a leaf of the tree of (1,4,2,3)
        assert stat_npk(CycleForm((Cycle((1, 4, -2, -3)),))) == 0
        assert stat_npk(CycleForm((Cycle((1, -4, -2, 3)),))) == 1
        assert stat_npk(CycleForm((Cycle((1, -5, 3, 4, -2)),))) == 1
        assert stat_npk(CycleForm((Cycle((1, -5, 3, -4, 2)),))) == 2

    def test_npk_identity(self):
        assert stat_npk(cycle_form(from_window([1, 2, 3]))) == 0

    def test_npk_rejects_long_brackets(self):
        with pytest.raises(MalformedCudCycleFormError):
            stat_npk(cycle_form(from_window([2, -1])))

    def test_npk_rejects_non_final_bracket(self):
        cf = cycle_form(from_window([-1, 2]))  # bracket at position one of two
        with pytest.raises(MalformedCudCycleFormError):
            stat_npk(cf)

    def test_spk(self):
        assert stat_spk(from_window([2, -1, 3, -4])) == 1
        assert stat_spk(from_window([1, 2, 3])) == 0
        assert stat_spk(from_window([1, -2, 3])) == 0
        assert stat_spk(from_window([-1])) == 1

    def test_smax_worked_examples(self):
        assert stat_smax([2, 7, -8, 1, 6, -9, -3, -4, 5]) == 5
        assert stat_smax([2, -1, 3, -4]) == 2
        assert stat_smax([-1]) == -1

    def test_smax_rejects_bad_words(self):
        with pytest.raises(ValueError):
            stat_smax([])
        with pytest.raises(ValueError):
            stat_smax([1, -1])

    def test_smax_matches_recursive_definition(self):
        for n in range(1, 7):
            for w in windows(n):
                assert stat_smax(w) == _smax_reference(w), w
        for bad in ([], [1, -1], [2, 3, -2], (4, -1, 1)):
            with pytest.raises(ValueError) as want:
                _smax_reference(bad)
            with pytest.raises(ValueError) as got:
                stat_smax(bad)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_left_to_right_minima(self):
        assert left_to_right_minima((7, 5, 1, 3, 4, 2, 6)) == frozenset({7, 5, 1})
        assert left_to_right_minima((1, 2, 3)) == frozenset({1})
        assert left_to_right_minima((3, 2, 1)) == frozenset({3, 2, 1})

    def test_stat_report_fields(self):
        report = stat_report(from_window([2, -1, 3, -4]))
        assert set(report) == {"neg", "npk", "spk", "smax", "valleys", "peaks", "ltr_min"}
        assert report["neg"] == 2
        assert report["smax"] == 2
        assert report["npk"] is None  # not of cycle-up-down shape

    @given(signed_perms())
    def test_spk_at_most_neg(self, p):
        assert stat_spk(p) <= stat_neg(p) <= p.n

    @given(signed_perms())
    def test_cycle_form_roundtrip(self, p):
        assert window_of(cycle_form(p)) == p
