import os
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cycle_reference as ref
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
    _window_entries,
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

ROOT = Path(__file__).resolve().parents[1]


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


def _cycle_form_reference(p):
    """The orbit walk that `cycle_form` made through `SignedPerm.__call__`
    before it read the window directly.  It never returns on some
    non-windows, such as (2, 2), so it runs on windows only."""
    seen = set()
    cycles = []
    for m in range(1, p.n + 1):
        if m in seen:
            continue
        orbit = [m]
        x = p(m)
        while x != m:
            orbit.append(x)
            x = p(x)
        cycles.append(Cycle(tuple(orbit), bracket=-m in orbit))
        seen.update(abs(e) for e in orbit)
    return CycleForm(tuple(cycles))


def cycle_form_disagreements():
    """Every int tuple of length 0..4 with entries in -5..5 on which
    `cycle_form` disagrees with `from_window` followed by the reference
    walk: one raises InvalidWindowError and the other does not, or both
    return and the forms differ."""
    bad = []
    for n in range(5):
        for w in product(range(-5, 6), repeat=n):
            try:
                want = _cycle_form_reference(from_window(w))
            except InvalidWindowError:
                want = InvalidWindowError
            try:
                got = cycle_form(SignedPerm(w))
            except InvalidWindowError:
                got = InvalidWindowError
            if got != want:
                bad.append(w)
    return bad


def stats_one_by_one(p, cf):
    """The `stat_report` of window p with cycle form cf, built from the
    statistics one function at a time."""
    try:
        npk = stat_npk(cf)
    except MalformedCudCycleFormError:
        npk = None
    aw = p.abs_window()
    return {
        "neg": stat_neg(p),
        "npk": npk,
        "spk": stat_spk(p),
        "smax": stat_smax(p.window),
        "valleys": len(valleys(aw)),
        "peaks": len(peaks(aw)),
        "ltr_min": len(left_to_right_minima(aw)),
    }


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

    def test_refuses_exactly_the_non_windows(self):
        # The sweep runs in a child under CPU and memory limits, so that a
        # walk that never returns (the old one did on (2, 2)) fails this
        # test instead of hanging the suite.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_CPU, (30, 30))\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from test_signed_perm import cycle_form_disagreements\n"
            "print(cycle_form_disagreements())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "tests")))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

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


def small_forms() -> list[CycleForm]:
    """Every form of at most two cycles, each of at most two entries in
    -3..3, plain or bracket: 13,111 forms."""
    cycles = [Cycle(e, bracket)
              for k in range(3) for e in product(range(-3, 4), repeat=k)
              for bracket in (False, True)]
    forms = [CycleForm(())] + [CycleForm((c,)) for c in cycles]
    return forms + [CycleForm(pair) for pair in product(cycles, repeat=2)]


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


def _outcome(f, *args):
    """What f(*args) returns, a dict as its item list, or the type and
    message of what it raises."""
    try:
        result = f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return list(result.items()) if isinstance(result, dict) else result


# cycle forms that are not of cycle-up-down shape, or only just are
SHAPES = [
    _form(()),  # an empty cycle
    _form([]),
    _form((1,), ()),
    _form([1, -1], [2, -2]),  # two brackets
    _form((1,), [2, -2], [3, -3]),
    _form([1, -1], (2,)),  # a bracket that is not last
    _form((1, -3), [2, -2], (4,)),
    _form((1,), [2, -3, -2, 3]),  # a long bracket
    _form([1, -2, 3]),
    _form([2, 2]),
    _form((1, -3, -2), [4, -4]),  # cycle-up-down shapes
    _form((1, -3, 2), (4, -5)),
    _form(),
]


class TestSharedCycleReads:
    """The shared cycle reads (`_orbits`, `_cud_shape_error`, `_npk`,
    `_window_entries`) against the definitions they replaced, which
    `cycle_reference` keeps."""

    def test_npk_and_report_equal_the_old_definitions_on_every_window(self):
        for n in range(1, 6):
            for w in windows(n):
                p = SignedPerm(w)
                cf = cycle_form(p)
                assert _outcome(stat_npk, cf) == _outcome(ref.stat_npk, cf), w
                want = _outcome(ref.stat_report, p)
                assert _outcome(stat_report, p) == want, w
                assert _outcome(stat_report, p, cf) == want, w

    @pytest.mark.parametrize("cf", SHAPES, ids=str)
    def test_malformed_shapes_read_as_the_old_definitions(self, cf):
        assert cf.n == ref.form_size(cf)
        assert _outcome(stat_npk, cf) == _outcome(ref.stat_npk, cf)
        for w in [(), (1,), (2, -1, 3), (-3, 1, -2, 4)]:
            p = SignedPerm(w)
            assert _outcome(stat_report, p, cf) == _outcome(ref.stat_report, p, cf)

    def test_the_shapes_reach_every_refusal(self):
        # so that the comparison above covers each message
        assert {_outcome(ref.stat_npk, cf) for cf in SHAPES} >= {
            (MalformedCudCycleFormError, "more than one bracket cycle"),
            (MalformedCudCycleFormError, "bracket cycle is not last"),
            (MalformedCudCycleFormError, "bracket cycle is not of the form (k,-k)"),
        }

    def test_window_of_equals_the_old_definition_on_small_forms(self):
        # refusals keep their type and message, including which of two
        # faulty cycles is reported
        for cf in small_forms():
            assert _outcome(window_of, cf) == _outcome(ref.window_of, cf), cf

    @pytest.mark.parametrize("family", ["cud-a", "cud-b", "cud-d"])
    def test_write_loop_equals_window_of_on_generated_members(self, family):
        for n in range(1, 7):
            for cf in enumerate_family(family, n):
                window = _window_entries(cf.cycles, n)
                assert window == list(window_of(cf).window) == list(ref.window_of(cf).window), cf


class TestValleysPeaks:
    def test_positions_and_values(self):
        assert valleys((5, 1, 3, 2, 4)) == frozenset({2, 4})
        assert valley_values((5, 1, 3, 2, 4)) == frozenset({1, 2})

    def test_leading_valley(self):
        assert valleys((1, 2, 3)) == frozenset({1})

    def test_scan_oracle(self):
        # independent position scans of the two docstrings
        def brute_valleys(seq):
            out = set()
            for i in range(1, len(seq) + 1):
                if i == 1 and len(seq) > 1 and seq[0] < seq[1]:
                    out.add(1)
                elif 2 <= i <= len(seq) - 1 and seq[i - 2] > seq[i - 1] < seq[i]:
                    out.add(i)
            return frozenset(out)

        def brute_peaks(seq):
            out = set()
            for i in range(1, len(seq) + 1):
                if i == len(seq) and len(seq) > 1 and seq[-1] > seq[-2]:
                    out.add(i)
                elif 2 <= i <= len(seq) - 1 and seq[i - 2] < seq[i - 1] > seq[i]:
                    out.add(i)
            return frozenset(out)

        for marks, brute in ((valleys, brute_valleys), (peaks, brute_peaks)):
            for n in range(1, 7):
                for p in permutations(range(1, n + 1)):
                    assert marks(p) == brute(p), (marks.__name__, p)

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
                # the first mark is a valley and the last a peak (a falling
                # sequence has none), so the i-th valley pairs with the i-th peak
                assert not kinds or (kinds[0] == "v" and kinds[-1] == "p"), p
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

    @pytest.mark.parametrize("window", [(2, 2), (1, 1, 3), (0,)])
    def test_spk_refuses_non_windows(self, window):
        # each of these read 0 spk
        with pytest.raises(InvalidWindowError):
            stat_spk(SignedPerm(window))

    def test_spk_of_the_empty_window(self):
        assert stat_spk(SignedPerm(())) == 0

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

    def test_stat_report_is_the_statistics_one_by_one(self):
        for n in range(1, 6):
            for w in windows(n):
                p = SignedPerm(w)
                cf = cycle_form(p)
                want = list(stats_one_by_one(p, cf).items())
                assert list(stat_report(p).items()) == want, w
                assert list(stat_report(p, cf).items()) == want, w

    def test_stat_report_refuses_the_empty_window_as_stat_smax_does(self):
        for cf in (None, CycleForm(())):
            with pytest.raises(ValueError, match="^smax of empty word$"):
                stat_report(SignedPerm(()), cf)

    @given(signed_perms())
    def test_spk_at_most_neg(self, p):
        assert stat_spk(p) <= stat_neg(p) <= p.n

    @given(signed_perms())
    def test_cycle_form_roundtrip(self, p):
        assert window_of(cycle_form(p)) == p
