import json
import shutil
from pathlib import Path

import pytest

from arnold.families import SizeCapExceededError
from arnold.harness import CHECKS, UnknownCheckError, check_ids, verify, verify_all

GOLDEN_SRC = Path(__file__).resolve().parents[1] / "src/arnold/golden"

EXPECTED_IDS = (
    "table-arnold",
    "table-polys",
    "poly-at-1",
    "row-sums-springer",
    "hoffman-q",
    "hoffman-p",
    "entringer-alternating",
    "snakes-arnold",
    "thm-cud",
    "thm-vs",
    "thm-fl",
    "thm-trees",
    "bij-cud-b",
    "bij-cud-d",
    "bij-vs-b",
    "bij-vs-d",
    "bij-fl",
    "cor-rightmost-cycle-min",
    "cor-rightmost-ltr-min",
    "lemma-emp-spk",
    "lemma-peak-leaf",
    "knuth-flip-euler",
    "recstep-cud",
    "recstep-vs",
    "smax-well-defined",
    "spk-well-defined",
    "report-emp-npk-perobject",
)


def test_registry_is_complete():
    assert check_ids() == EXPECTED_IDS
    assert all(spec.claim for spec in CHECKS)
    # every registered claim is backed by an executable check
    assert all(callable(spec.run) for spec in CHECKS)


def test_unknown_check():
    with pytest.raises(UnknownCheckError):
        verify("no-such-check")


def test_table_checks_pass():
    assert verify("table-arnold", 5).status == "pass"
    assert verify("table-polys", 5).status == "pass"


def test_flip_theorem_check_passes_at_five():
    assert verify("thm-fl", 5).status == "pass"


def test_knuth_structure_at_three():
    assert verify("knuth-flip-euler", 3).status == "pass"


def test_verify_all_at_one_all_clean():
    results = verify_all(1)
    assert len(results) == len(EXPECTED_IDS)
    assert all(r.status != "fail" for r in results)


def test_verify_all_rejects_zero():
    with pytest.raises(SizeCapExceededError):
        verify_all(0)
    with pytest.raises(SizeCapExceededError):
        verify("thm-vs", 0)


def test_results_are_deterministic_and_independent():
    first = verify("thm-vs", 4)
    second = verify("thm-vs", 4)
    assert first.status == second.status == "pass"
    assert first.details == second.details


def test_npk_statistic_mismatch_is_reported_precisely():
    # npk counts the negative entries that label leaves of their cycle's
    # min-split tree; B n=4 k=4 is the first cell where counting negative
    # ascent tops instead gives a different polynomial
    from collections import Counter

    from arnold.families import enumerate_family, enumerate_indexed
    from arnold.harness import _compare_family_polys
    from arnold.laurent import LaurentPoly
    from arnold.signed_perm import stat_npk
    from arnold.triangles import arnold_hoffman

    cell = LaurentPoly({1: 2, 3: 8, 5: 6})
    assert arnold_hoffman(4)[3].value(4) == cell
    npks = Counter(stat_npk(cf) for cf in enumerate_indexed("cud-b", 4, 1))
    assert LaurentPoly({5 - 2 * s: c for s, c in npks.items()}) == cell
    assert verify("thm-cud", 4).status == "pass"

    def ascent_top_distribution(n):
        counts = Counter()
        for side, family in (("b", "cud-b"), ("d", "cud-d")):
            for cf in enumerate_family(family, n):
                tops = sum(
                    1
                    for c in cf.cycles
                    if not c.bracket
                    for a, b in zip(c.entries, c.entries[1:])
                    if b < 0 and -b >= abs(a)
                )
                counts[(side, cf.cycles[-1].leader, tops + (side == "d"))] += 1
        return counts

    for n in (1, 2, 3):
        assert list(_compare_family_polys(n, ascent_top_distribution(n), "cud B", "cud D")) == []
    details = list(_compare_family_polys(4, ascent_top_distribution(4), "cud B", "cud D"))
    assert "cud B n=4 k=4: 4t + 8t^3 + 4t^5 != 2t + 8t^3 + 6t^5" in details
    assert all("n=4 k=4" in d for d in details if "B n=" in d)


def test_report_only_check_never_fails():
    result = verify("report-emp-npk-perobject", 4)
    assert result.status == "report-only"
    assert result.ok
    assert any("n=4" in d for d in result.details)


def test_golden_dir_override_detects_tampering(tmp_path):
    for name in ("table1.json", "table2.json", "small_families.json"):
        shutil.copy(GOLDEN_SRC / name, tmp_path / name)
    data = json.loads((tmp_path / "table1.json").read_text())
    data["rows"][4]["pos"][0] = 58
    (tmp_path / "table1.json").write_text(json.dumps(data))
    assert verify("table-arnold", 5, golden_dir=str(tmp_path)).status == "fail"
    assert verify("table-arnold", 5).status == "pass"


def test_a_packaged_table_is_read_once_and_parsed_on_every_call():
    from arnold import harness

    harness._load_table("table1.json", 5, None)["rows"].clear()
    reads = harness._packaged_table_text.cache_info()
    table = harness._load_table("table1.json", 5, None)
    assert table == json.loads((GOLDEN_SRC / "table1.json").read_text())
    after = harness._packaged_table_text.cache_info()
    assert (after.hits, after.misses) == (reads.hits + 1, reads.misses)


@pytest.mark.parametrize(
    "check_id, table",
    [
        ("table-arnold", "table1.json"),
        ("table-polys", "table2.json"),
        ("row-sums-springer", "table1.json"),
    ],
)
def test_table_check_refuses_range_beyond_stored_rows(check_id, table):
    with pytest.raises(ValueError, match=f"{table} stores 5 rows, fewer than n_max=6") as info:
        verify(check_id, 6)
    assert not isinstance(info.value, SizeCapExceededError)


def test_verify_all_reports_short_golden_table_as_error(tmp_path):
    for name in ("table1.json", "table2.json", "small_families.json"):
        shutil.copy(GOLDEN_SRC / name, tmp_path / name)
    data = json.loads((tmp_path / "table2.json").read_text())
    del data["rows"][3:]
    (tmp_path / "table2.json").write_text(json.dumps(data))
    results = {r.check_id: r for r in verify_all(4, golden_dir=str(tmp_path))}
    assert results["table-polys"].status == "error"
    assert "table2.json stores 3 rows, fewer than n_max=4" in results["table-polys"].details[0]
    assert results["table-arnold"].status == "pass"


def test_verify_all_reports_non_integer_table1_numbers_as_errors(tmp_path):
    def edit(data):  # each equal to the int it replaces
        data["rows"][0]["neg"] = [True]
        data["rows"][1]["pos"] = [1.0, 2.0]
        data["springer_b"][0] = 1.0

    golden = _golden_copy(tmp_path, "table1.json", edit)
    clean = {r.check_id: _summary(r) for r in verify_all(4)}
    tampered = {r.check_id: _summary(r) for r in verify_all(4, golden_dir=golden)}
    message = "ValueError('table1.json row 1: neg holds True, not an int')"
    for check_id in ("table-arnold", "row-sums-springer"):
        assert tampered.pop(check_id) == (check_id, (1, 4), "error", (message,))
        del clean[check_id]
    assert tampered == clean


def test_verify_all_keeps_registry_order():
    results = verify_all(2)
    assert [r.check_id for r in results] == list(EXPECTED_IDS)
    assert all(r.status != "fail" for r in results)


def _replace_run(monkeypatch, check_id, run):
    """Put `run` in place of one registered check's; returns its registry index."""
    import arnold.harness as harness

    i = check_ids().index(check_id)
    patched = list(CHECKS)
    patched[i] = CHECKS[i]._replace(run=run)
    monkeypatch.setattr(harness, "CHECKS", patched)
    return i


def _crash(monkeypatch, check_id, exc):
    """Make one registered check raise `exc`; returns its registry index."""

    def run(*_args):
        raise exc

    return _replace_run(monkeypatch, check_id, run)


def _record(monkeypatch, check_id):
    """Record the arguments of every call of one registered check's run."""
    real, calls = CHECKS[check_ids().index(check_id)].run, []

    def run(*args):
        calls.append(args)
        return real(*args)

    _replace_run(monkeypatch, check_id, run)
    return calls


def test_verify_runs_a_capped_check_once_per_size_in_order(monkeypatch):
    monkeypatch.delenv("ARNOLD_MAX_N", raising=False)
    calls = _record(monkeypatch, "bij-vs-b")
    assert verify("bij-vs-b", 3).status == "pass"
    assert calls == [(1,), (2,), (3,)]
    calls.clear()
    with pytest.raises(SizeCapExceededError, match="n=9 exceeds the configured cap 8"):
        verify("bij-vs-b", 9)
    assert calls == []


def test_verify_runs_a_triangle_check_once_on_the_whole_range(monkeypatch):
    calls = _record(monkeypatch, "table-arnold")
    assert verify("table-arnold", 5).status == "pass"
    assert calls == [(5, None)]


def test_capped_check_raising_mid_sweep_is_one_error_row(monkeypatch):
    def run(n):
        if n == 2:
            raise RuntimeError("at n=2")
        yield f"n={n}: mismatch"

    i = _replace_run(monkeypatch, "thm-vs", run)
    result = verify_all(3)[i]
    assert (result.check_id, result.n_range, result.status) == ("thm-vs", (1, 3), "error")
    assert result.details == ("RuntimeError('at n=2')",)
    with pytest.raises(RuntimeError, match="at n=2"):
        verify("thm-vs", 3)


def test_every_capped_check_takes_one_size():
    import inspect

    params = {
        spec.check_id: len(inspect.signature(spec.run).parameters)
        for spec in CHECKS
        if spec.capped
    }
    assert params == dict.fromkeys(params, 1)


def test_crashing_check_is_reported_and_the_rest_still_run(monkeypatch):
    def summary(r):
        return (r.check_id, r.n_range, r.status, r.details)

    clean = [summary(r) for r in verify_all(2)]
    i = _crash(monkeypatch, "thm-vs", RuntimeError("injected"))
    results = verify_all(2)
    assert len(results) == len(EXPECTED_IDS) == 27
    assert summary(results[i]) == ("thm-vs", (1, 2), "error", ("RuntimeError('injected')",))
    assert not results[i].ok
    assert results[i].to_json()["status"] == "error"
    got = [summary(r) for r in results]
    assert got[:i] + got[i + 1 :] == clean[:i] + clean[i + 1 :]


def test_crashing_check_makes_verify_all_exit_one(monkeypatch, capsys):
    from arnold.cli import main

    _crash(monkeypatch, "thm-vs", ValueError("injected"))
    assert main(["verify", "--all", "--max-n", "2", "--format", "jsonl"]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["check"] for row in rows] == list(EXPECTED_IDS)
    assert [row["status"] for row in rows].count("error") == 1


def test_size_cap_still_aborts_verify_all(monkeypatch):
    _crash(monkeypatch, "table-arnold", SizeCapExceededError("cap"))
    with pytest.raises(SizeCapExceededError):
        verify_all(2)


def test_elapsed_is_recorded():
    result = verify("table-arnold", 5)
    assert result.elapsed >= 0
    assert result.n_range == (1, 5)
    payload = result.to_json()
    assert payload["check"] == "table-arnold"
    assert payload["status"] == "pass"


@pytest.mark.parametrize("n", range(1, 8))
def test_counted_trees_match_the_built_trees(n):
    # the counter against every tree built by gen_trees and read by classify
    from collections import Counter

    from arnold.harness import _tree_distribution
    from arnold.trees import classify, gen_trees

    want = Counter()
    for t in gen_trees(n):
        c = classify(t)
        want[("b" if c.kind == "o" else "d", c.rightmost_label, (n + 1 - c.emp) // 2)] += 1
    assert _tree_distribution(n) == want


def test_tree_count_refuses_a_size_above_the_cap(monkeypatch):
    from arnold.harness import _tree_distribution

    monkeypatch.delenv("ARNOLD_MAX_N", raising=False)
    with pytest.raises(SizeCapExceededError, match="n=9 exceeds the configured cap 8"):
        _tree_distribution(9)


def test_checks_run_no_membership_guard(monkeypatch):
    # every member a check maps or steps comes from a generator, so the
    # checks call the kernels and never the literal membership tests
    import arnold.bijections as bijections
    import arnold.families as families

    def guard(*args):
        raise AssertionError("a check ran a membership guard")

    for name in ("is_cud_b", "is_cud_d", "is_vs_b", "is_vs_d"):
        monkeypatch.setattr(bijections, name, guard)
        monkeypatch.setattr(families, name, guard)
    for check_id in (
        "bij-cud-b",
        "bij-cud-d",
        "bij-vs-b",
        "bij-vs-d",
        "cor-rightmost-cycle-min",
        "cor-rightmost-ltr-min",
        "recstep-cud",
        "recstep-vs",
        "report-emp-npk-perobject",
    ):
        assert verify(check_id, 4).status in ("pass", "report-only"), check_id


@pytest.mark.parametrize(
    "check_id, sides",
    [
        ("bij-cud-b", ["cud-b"]),
        ("bij-cud-d", ["cud-d"]),
        ("bij-vs-b", ["vs-b"]),
        ("bij-vs-d", ["vs-d"]),
        ("cor-rightmost-cycle-min", ["cud-b", "cud-d"]),
        ("cor-rightmost-ltr-min", ["vs-b", "vs-d"]),
        ("report-emp-npk-perobject", ["cud-b", "cud-d"]),
    ],
)
def test_member_tree_checks_read_images(monkeypatch, check_id, sides):
    # `bijections.images` is the one place that pairs a family with its map
    import arnold.bijections as bijections

    real, log = bijections.images, []

    def recorder(family, n):
        log.append((family, n))
        return real(family, n)

    monkeypatch.setattr(bijections, "images", recorder)
    assert verify(check_id, 3).status in ("pass", "report-only")
    assert log == [(family, n) for n in (1, 2, 3) for family in sides]


# Injected faults: each test breaks one function the harness calls and pins
# the details its check reports, so that checks sharing a driver keep
# their failure text.

@pytest.fixture
def fresh_tree_cache():
    import arnold.harness as harness

    def clear():
        cache_clear = getattr(harness._tree_distribution, "cache_clear", None)
        if cache_clear is not None:
            cache_clear()

    clear()
    yield
    clear()


def test_missing_tree_is_reported(monkeypatch, fresh_tree_cache):
    from math import comb

    import arnold.harness as harness

    # C(0, 0) off by one: the one plane tree of size 1 gives no tree on
    # either side, where it should give the labelled leaf and 1(.,.)
    monkeypatch.setattr(harness, "comb", lambda a, b: comb(a, b) - ((a, b) == (0, 0)))
    assert verify("thm-trees", 1).details == (
        "trees-o n=1 k=1: 0 != t^2",
        "trees-s n=1 k=1: 0 != 1",
    )
    assert verify("bij-fl", 1).details == ("fl n=1: 2 classes vs 0 trees",)
    assert verify("bij-cud-d", 1).details == ("cud-d n=1 k=1: 1 members vs 0 trees",)


def test_invalid_flip_class_image_is_reported(monkeypatch):
    import arnold.bijections as bijections

    monkeypatch.setattr(bijections, "orient_flip_code", lambda split, w: (-2, -2))
    assert verify("bij-fl", 1).details == (
        "fl n=1: invalid image tree for class (-1,)",
        "fl n=1: invalid image tree for class (1,)",
        "fl n=1: 0 classes vs 2 trees",
    )


def test_unknown_step_case_is_reported(monkeypatch):
    import arnold.families as families

    real = families.psi_vs_b_kernel

    def odd_case(p):
        rec = real(p)
        return rec._replace(case="zz") if p.window == (1, -2, 3) else rec

    monkeypatch.setattr(families, "psi_vs_b_kernel", odd_case)
    assert verify("recstep-vs", 3).details == (
        "vs-b n=3 k=1: unexpected case zz for [1,-2,3]",
        "vs-b n=3 k=1: target ('vs-b', 3, 2) covered with 1 missing, 0 extra",
    )


def test_mislabelled_step_target_is_reported(monkeypatch):
    import arnold.families as families

    real = families.psi_cud_d_kernel

    def wrong_index(cf):
        rec = real(cf)
        return rec._replace(target_index=rec.target_index + 1)

    monkeypatch.setattr(families, "psi_cud_d_kernel", wrong_index)
    details = verify("recstep-cud", 2).details
    assert details[0] == "cud-d n=2 k=2: (1)[2,-2] sent to (cud-b,1,2), expected (cud-b,1,1)"


def test_split_that_ignores_the_sign_of_k_plus_1_is_reported(monkeypatch):
    import arnold.families as families

    real = families._split_cycle

    def unsigned_pivot(entries, k):
        return real(tuple(k + 1 if v == -(k + 1) else v for v in entries), k)

    monkeypatch.setattr(families, "_split_cycle", unsigned_pivot)
    assert verify("recstep-cud", 3).details == (
        "cud-b n=3 k=1: image (1)(2,-3) hit twice",
        "cud-b n=3 k=1: image (1)(2,3) hit twice",
        "cud-b n=3 k=1: target ('cud-b', 3, 2) covered with 2 missing, 0 extra",
    )


def test_class_statistic_mismatch_is_reported(monkeypatch):
    import arnold.harness as harness

    real_smax = harness._smax_walk
    monkeypatch.setattr(harness, "_smax_walk", lambda w, order: abs(real_smax(w, order)))
    monkeypatch.setattr(harness, "_negatives_at", lambda w, peaks: 0)
    assert verify("smax-well-defined", 1).details == ("n=1: class (-1,) has smax values {1}",)
    assert verify("spk-well-defined", 1).details == ("n=1: class (-1,) has spk values {0}",)


def _golden_copy(tmp_path, name, edit):
    """A golden directory holding the shipped tables, with `edit` applied
    to the parsed `name`."""
    for table in ("table1.json", "table2.json", "small_families.json"):
        shutil.copy(GOLDEN_SRC / table, tmp_path / table)
    data = json.loads((tmp_path / name).read_text())
    edit(data)
    (tmp_path / name).write_text(json.dumps(data))
    return str(tmp_path)


def test_wrong_springer_numbers_are_reported(tmp_path):
    def edit(data):
        data["springer_b"][2] += 1
        data["springer_d"][3] += 1

    golden = _golden_copy(tmp_path, "table1.json", edit)
    assert verify("table-arnold", 5, golden_dir=golden).details == (
        "row 3: positive sum 11",
        "row 4: negative sum 23",
    )
    assert verify("row-sums-springer", 5, golden_dir=golden).details == (
        "n=3: positive row sum 11",
        "n=4: negative row sum 23",
    )


def test_wrong_stored_polynomial_is_reported(tmp_path):
    def edit(data):
        data["rows"][1]["pos"][0] = {"3": 2}

    golden = _golden_copy(tmp_path, "table2.json", edit)
    assert verify("table-polys", 5, golden_dir=golden).details == (
        "row 2 differs from the stored polynomials",
    )


def test_numeric_entry_off_from_its_polynomial_is_reported(monkeypatch):
    import arnold.harness as harness

    real = harness.arnold_numbers

    def bumped(n_max):
        return [r._replace(pos=(r.pos[0] + 1, *r.pos[1:])) if r.n == 3 else r for r in real(n_max)]

    monkeypatch.setattr(harness, "arnold_numbers", bumped)
    assert verify("poly-at-1", 4).details == ("V(3,1)(1) = 3 != 4",)


def _drop_members(monkeypatch, drop):
    """Make `families.enumerate_family` return drop(family, n, members)."""
    import arnold.families as families

    real = families.enumerate_family
    monkeypatch.setattr(families, "enumerate_family", lambda family, n: drop(family, n, real(family, n)))


def test_missing_alternating_permutation_is_reported(monkeypatch):
    _drop_members(monkeypatch, lambda f, n, ms: ms[:-1] if (f, n) == ("alternating", 3) else ms)
    assert verify("entringer-alternating", 3).details == ("n=3 k=3: 0 alternating vs entry 1",)


def test_missing_snakes_are_reported_on_both_sides(monkeypatch):
    _drop_members(monkeypatch, lambda f, n, ms: ms[1:] if f.startswith("snakes") else ms)
    assert verify("snakes-arnold", 2).details == (
        "n=1: 0 type-B snakes start 1, triangle 1",
        "n=1: 0 type-D snakes start -1, triangle 1",
        "n=2: 0 type-B snakes start 1, triangle 1",
        "n=2: 0 type-D snakes start -1, triangle 1",
    )


def _invalid_code(member):
    return (-2, -2)


def _bracket_as_fixed_point(cf):
    import arnold.bijections as bijections

    *body, bracket = (c.entries for c in cf.cycles)
    return bijections._chain_code([*body, (bracket[0],)])


def _without_the_head_leaf(p):
    import arnold.bijections as bijections

    return bijections.phi_vs_b_kernel(p)


@pytest.mark.parametrize(
    "family, kernel, fault, details",
    [
        (
            "cud-b",
            "phi_cud_b_kernel",
            _invalid_code,
            (
                "cud-b n=1: invalid image tree for (1)",
                "cud-b n=2: invalid image tree for (1,-2)",
                "cud-b n=2: invalid image tree for (1)(2)",
                "cud-b n=2: invalid image tree for (1,2)",
            ),
        ),
        (
            "vs-b",
            "phi_vs_b_kernel",
            _invalid_code,
            (
                "vs-b n=1: invalid image tree for [1]",
                "vs-b n=2: invalid image tree for [1,-2]",
                "vs-b n=2: invalid image tree for [1,2]",
                "vs-b n=2: invalid image tree for [2,1]",
            ),
        ),
        (
            "cud-d",
            "phi_cud_d_kernel",
            _bracket_as_fixed_point,
            (
                "cud-d n=1: [1,-1] lands at (o,1), expected (*,1)",
                "cud-d n=2: (1)[2,-2] lands at (o,2), expected (*,2)",
            ),
        ),
        (
            "vs-d",
            "phi_vs_d_kernel",
            _without_the_head_leaf,
            (
                "vs-d n=1: [-1] lands at (o,1), expected (*,1)",
                "vs-d n=2: [-2,1] lands at (o,2), expected (*,2)",
            ),
        ),
    ],
    ids=["cud-b-invalid", "vs-b-invalid", "cud-d-lands", "vs-d-lands"],
)
def test_wrong_member_image_is_reported(monkeypatch, family, kernel, fault, details):
    import arnold.bijections as bijections

    monkeypatch.setattr(bijections, kernel, fault)
    assert verify(f"bij-{family}", 2).details == details


def test_colliding_flip_class_images_are_reported(monkeypatch):
    _patched_classes(monkeypatch, lambda cs: cs + cs[:1])
    assert verify("bij-fl", 2).details == (
        "fl n=1: class images collide",
        "fl n=1: 3 classes vs 2 trees",
        "fl n=2: class images collide",
        "fl n=2: 5 classes vs 4 trees",
    )


def test_peaks_missing_from_the_double_empty_labels_are_reported_and_clipped(monkeypatch):
    import arnold.harness as harness

    monkeypatch.setattr(harness, "peak_values", lambda p: ())
    assert verify("lemma-peak-leaf", 4).details == (
        "n=2 perm (1, 2): double-empty labels [2]",
        "n=3 perm (1, 2, 3): double-empty labels [3]",
        "n=3 perm (1, 3, 2): double-empty labels [3]",
        "n=3 perm (2, 1, 3): double-empty labels [2, 3]",
        "n=3 perm (2, 3, 1): double-empty labels [3]",
        "n=3 perm (3, 1, 2): double-empty labels [2, 3]",
        "n=4 perm (1, 2, 3, 4): double-empty labels [4]",
        "n=4 perm (1, 2, 4, 3): double-empty labels [4]",
        "n=4 perm (1, 3, 2, 4): double-empty labels [3, 4]",
        "n=4 perm (1, 3, 4, 2): double-empty labels [4]",
        "n=4 perm (1, 4, 2, 3): double-empty labels [3, 4]",
        "n=4 perm (1, 4, 3, 2): double-empty labels [4]",
        "... and 17 more",
    )


def test_shifted_step_statistic_is_reported(monkeypatch):
    import arnold.families as families

    real = families.psi_vs_b_kernel

    def shifted(p):
        rec = real(p)
        return rec._replace(stat_after=rec.stat_after + 1) if p.window == (1, -2, 3) else rec

    monkeypatch.setattr(families, "psi_vs_b_kernel", shifted)
    assert verify("recstep-vs", 3).details == (
        "vs-b n=3 k=1: [1,-2,3] shifts stat by 1, expected 0",
    )


@pytest.mark.parametrize("kind, bridge", [("cud", "psi_cud_bridge"), ("vs", "psi_vs_bridge")])
def test_bridge_that_returns_its_source_is_reported(monkeypatch, kind, bridge):
    import arnold.families as families

    real = getattr(families, bridge)
    monkeypatch.setattr(families, bridge, lambda m: real(real(m).image))
    assert verify(f"recstep-{kind}", 2).details == (
        f"{kind} bridge n=1: images differ from the type-D family",
        f"{kind} bridge n=2: images differ from the type-D family",
    )


# Every check that sweeps families or permutations; thm-trees sweeps
# trees, and the rest read triangle tables only.
CAPPED_CHECKS = (
    "thm-fl",
    "bij-fl",
    "lemma-emp-spk",
    "knuth-flip-euler",
    "smax-well-defined",
    "spk-well-defined",
    "entringer-alternating",
    "snakes-arnold",
    "thm-cud",
    "thm-vs",
    "bij-cud-b",
    "bij-cud-d",
    "bij-vs-b",
    "bij-vs-d",
    "cor-rightmost-cycle-min",
    "cor-rightmost-ltr-min",
    "lemma-peak-leaf",
    "recstep-cud",
    "recstep-vs",
    "report-emp-npk-perobject",
)
TRIANGLE_CHECKS = (
    "table-arnold",
    "table-polys",
    "poly-at-1",
    "row-sums-springer",
    "hoffman-q",
    "hoffman-p",
)


def test_every_check_is_capped_or_reads_triangles_only():
    assert sorted(CAPPED_CHECKS + TRIANGLE_CHECKS + ("thm-trees",)) == sorted(EXPECTED_IDS)
    capped = sorted(spec.check_id for spec in CHECKS if spec.capped)
    assert capped == sorted(CAPPED_CHECKS + ("thm-trees",))


@pytest.fixture
def sweeps_forbidden(monkeypatch, fresh_tree_cache):
    import arnold.families as families
    import arnold.harness as harness
    import arnold.trees as trees

    def forbidden(*args):
        raise AssertionError(f"swept {args} before the cap was checked")

    monkeypatch.delenv("ARNOLD_MAX_N", raising=False)
    for name in (
        "flip_classes",
        "unsigned_flip_classes",
        "enumerate_family",
        "enumerate_indexed",
        "cud_distribution",
        "vs_distribution",
        "recurrence_step_cud",
        "recurrence_step_vs",
    ):
        monkeypatch.setattr(families, name, forbidden)
    monkeypatch.setattr(harness, "permutations", forbidden)
    monkeypatch.setattr(harness, "_tree_distribution", forbidden)
    monkeypatch.setattr(trees, "gen_trees", forbidden)


@pytest.mark.parametrize("check_id", CAPPED_CHECKS)
def test_flip_checks_refuse_ceiling_above_cap_up_front(check_id, sweeps_forbidden):
    with pytest.raises(SizeCapExceededError, match="n=9 exceeds the configured cap 8"):
        verify(check_id, 9)


def test_tree_check_refuses_ceiling_above_tree_cap_up_front(sweeps_forbidden):
    with pytest.raises(SizeCapExceededError, match="n=9 exceeds the configured cap 8"):
        verify("thm-trees", 9)


@pytest.mark.parametrize("check_id", ("lemma-peak-leaf", "entringer-alternating", "thm-trees"))
def test_permutation_checks_obey_a_lowered_cap(check_id, monkeypatch):
    monkeypatch.setenv("ARNOLD_MAX_N", "3")
    assert verify(check_id, 3).status == "pass"
    with pytest.raises(SizeCapExceededError, match="n=5 exceeds the configured cap 3"):
        verify(check_id, 5)


def test_cli_refuses_flip_ceiling_above_cap_with_exit_2(capsys, sweeps_forbidden):
    from arnold.cli import main

    assert main(["verify", "--check", "bij-fl", "--max-n", "9"]) == 2
    assert "exceeds the configured cap 8" in capsys.readouterr().err


def test_cli_refuses_family_ceiling_above_cap_with_exit_2(capsys, sweeps_forbidden):
    from arnold.cli import main

    assert main(["verify", "--check", "bij-vs-b", "--max-n", "9"]) == 2
    assert "exceeds the configured cap 8" in capsys.readouterr().err


@pytest.mark.parametrize("family", ("trees-o", "trees-s"))
def test_cli_refuses_tree_enumeration_above_cap_with_exit_2(family, capsys, sweeps_forbidden):
    from arnold.cli import main

    assert main(["enumerate", "--family", family, "--n", "9"]) == 2
    assert capsys.readouterr().err == "error: n=9 exceeds the configured cap 8\n"


def test_non_constant_class_statistic_names_it(monkeypatch):
    import arnold.harness as harness

    real = harness._negatives_at
    monkeypatch.setattr(harness, "_negatives_at", lambda w, peaks: real(w, peaks) + (w[0] == 2))
    assert verify("spk-well-defined", 2).details == (
        "n=2: class (-1, 2) has spk values {0, 1}",
        "n=2: class (1, 2) has spk values {0, 1}",
    )


# Faults injected on the input side of the tree-map checks, so that the
# failure text is pinned whatever form the maps take inside.

def _patched_classes(monkeypatch, edit):
    import arnold.families as families

    real = families.flip_classes
    monkeypatch.setattr(families, "flip_classes", lambda n: edit(real(n)))


def test_merged_flip_classes_are_reported(monkeypatch):
    from arnold.families import FlipClass

    def merge_first_two(classes):
        a, b = classes[:2]
        merged = FlipClass(a.canon, tuple(sorted(a.members + b.members)), a.smax, a.spk)
        return (merged,) + classes[2:]

    _patched_classes(monkeypatch, merge_first_two)
    assert verify("bij-fl", 2).details == (
        "fl n=1: members of (-1,) map to different trees",
        "fl n=1: 0 classes vs 2 trees",
        "fl n=2: members of (-2, -1) map to different trees",
        "fl n=2: 2 classes vs 4 trees",
    )


def test_negated_class_smax_is_reported(monkeypatch):
    _patched_classes(
        monkeypatch, lambda cs: (cs[0]._replace(smax=-cs[0].smax),) + cs[1:]
    )
    assert verify("bij-fl", 2).details == (
        "fl n=1: class (-1,) lands at (*,1), expected (o,1)",
        "fl n=2: class (-2, -1) lands at (*,2), expected (o,2)",
    )


def test_shifted_class_spk_is_reported(monkeypatch):
    _patched_classes(
        monkeypatch, lambda cs: (cs[0]._replace(spk=cs[0].spk + 1),) + cs[1:]
    )
    assert verify("lemma-emp-spk", 2).details == (
        "n=1: class (-1,) has emp 0, spk 2",
        "n=2: class (-2, -1) has emp 1, spk 2",
    )


# Faults on one member that is not its class's canonical window: the
# per-member sweeps must still see them, whatever flip_classes reads.
# (-2, 1, 3) and (3, 1, -2) make up one class at n=3.

def _statistic_off_on_one_member(monkeypatch, name):
    import arnold.harness as harness

    kernel = {"smax": "_smax_walk", "spk": "_negatives_at"}[name]
    real = getattr(harness, kernel)

    def off_by_one(w, setup):
        return real(w, setup) + (w == (3, 1, -2))

    monkeypatch.setattr(harness, kernel, off_by_one)


def _one_member_oriented_with_a_wrong_sign(monkeypatch):
    import arnold.bijections as bijections

    real = bijections.orient_flip_code

    def one_wrong_sign(split, w):
        return real(split, (3, 1, 2) if tuple(w) == (3, 1, -2) else w)

    monkeypatch.setattr(bijections, "orient_flip_code", one_wrong_sign)


@pytest.mark.parametrize("name", ("smax", "spk"))
def test_class_statistic_wrong_on_one_other_member_is_reported(monkeypatch, name):
    _statistic_off_on_one_member(monkeypatch, name)
    want = {"smax": "{3, 4}", "spk": "{1, 2}"}[name]
    assert verify(f"{name}-well-defined", 3).details == (
        f"n=3: class (-2, 1, 3) has {name} values {want}",
    )


def _spk_reference(w):
    """Signed peaks read literally: negative entries whose absolute value
    exceeds both neighbours', with zero padding at both ends."""
    a = (0, *map(abs, w), 0)
    return sum(w[i] < 0 and a[i] < a[i + 1] > a[i + 2] for i in range(len(w)))


@pytest.mark.parametrize("n", range(1, 7))
def test_the_flip_pass_reads_every_window_with_the_kernels(monkeypatch, n):
    # The pass reads smax by walking each member's own word, never off the
    # split code of |w| as `flip_classes` does, and spk at the peaks of |w|;
    # each reading must equal the literal statistic of that window.
    import arnold.harness as harness
    from arnold.families import windows
    from arnold.signed_perm import SignedPerm, stat_smax, stat_spk

    walked, counted = [], []

    def record(log, real):
        def read(w, setup):
            value = real(w, setup)
            log.append((w, setup, value))
            return value

        return read

    monkeypatch.setattr(harness, "_smax_walk", record(walked, harness._smax_walk))
    monkeypatch.setattr(harness, "_negatives_at", record(counted, harness._negatives_at))
    assert harness._flip_pass(n, ("smax", "spk")) == {"smax": (), "spk": ()}
    every = sorted(windows(n))
    assert sorted(w for w, _, _ in walked) == sorted(w for w, _, _ in counted) == every
    for w, order, smax in walked:
        assert list(order) == sorted(range(n), key=lambda i: abs(w[i]))
        assert smax == stat_smax(w), w
    for w, _, spk in counted:
        assert spk == stat_spk(SignedPerm(w)) == _spk_reference(w), w


def test_member_oriented_with_one_wrong_sign_is_reported(monkeypatch):
    _one_member_oriented_with_a_wrong_sign(monkeypatch)
    assert verify("bij-fl", 3).details == (
        "fl n=3: members of (-2, 1, 3) map to different trees",
        "fl n=3: 15 classes vs 16 trees",
    )


def test_merged_unsigned_classes_differ_from_the_tree_fibres(monkeypatch):
    import arnold.families as families

    real = families.unsigned_flip_classes

    def merge_first_two(n):
        classes = real(n)
        if len(classes) < 2:
            return classes
        return (tuple(sorted(classes[0] + classes[1])),) + classes[2:]

    monkeypatch.setattr(families, "unsigned_flip_classes", merge_first_two)
    assert verify("knuth-flip-euler", 3).details == (
        "n=3: 1 classes vs Euler number 2",
        "n=3: classes differ from the fibres of the non-plane tree",
        "n=3: class structure differs from the two known classes",
    )


def test_duplicated_member_is_reported(monkeypatch):
    import arnold.families as families

    real = families.enumerate_family

    def duplicate_first(family, n):
        members = real(family, n)
        return members + members[:1] if family == "vs-b" else members

    monkeypatch.setattr(families, "enumerate_family", duplicate_first)
    assert verify("bij-vs-b", 2).details == (
        "vs-b n=1: images collide",
        "vs-b n=1 k=1: 2 members vs 1 trees",
        "vs-b n=2: images collide",
        "vs-b n=2 k=1: 3 members vs 2 trees",
    )


def test_wrong_path_labels_are_reported(monkeypatch):
    import arnold.harness as harness

    monkeypatch.setattr(harness, "left_to_right_minima", lambda seq: frozenset())
    assert verify("cor-rightmost-ltr-min", 2).details == (
        "vs-b n=1: [1] path labels [1]",
        "vs-d n=1: [-1] path labels [1]",
        "vs-b n=2: [1,-2] path labels [1]",
        "vs-b n=2: [1,2] path labels [1]",
        "vs-b n=2: [2,1] path labels [1, 2]",
        "vs-d n=2: [-2,1] path labels [1, 2]",
    )


# The member checks of one verify_all run share one pass per (family, n),
# and the refined-family theorems one triangle row per size.  What a run
# shares must change no row, keep each crash to the checks that read the
# crashing part, and end with the run.

def _summary(r):
    return (r.check_id, r.n_range, r.status, r.details)


@pytest.mark.parametrize(
    "fault, failing",
    [
        (lambda mp: None, set()),
        (_one_member_oriented_with_a_wrong_sign, {"bij-fl"}),
        (lambda mp: _statistic_off_on_one_member(mp, "smax"), {"smax-well-defined"}),
        (lambda mp: _statistic_off_on_one_member(mp, "spk"), {"spk-well-defined"}),
    ],
    ids=["clean", "orient", "smax", "spk"],
)
def test_shared_and_solo_runs_agree(monkeypatch, fault, failing):
    fault(monkeypatch)
    shared = verify_all(4)
    assert {r.check_id for r in shared if r.status == "fail"} == failing
    for r in shared:
        assert _summary(r) == _summary(verify(r.check_id, 4))


def _always(*args):
    return True


@pytest.mark.parametrize(
    "owner, name, crashes_on, readers",
    [
        ("harness", "stat_npk", _always, {"report-emp-npk-perobject"}),
        ("trees", "rightmost_path", _always, {"cor-rightmost-cycle-min", "cor-rightmost-ltr-min"}),
        ("harness", "_smax_walk", _always, {"smax-well-defined"}),
        ("harness", "_abs_peaks", _always, {"spk-well-defined"}),
        ("bijections", "orient_flip_code", _always, {"bij-fl", "lemma-emp-spk"}),
        # not the canonical member of its class, whose code alone the lemma reads
        ("bijections", "orient_flip_code", lambda split, w: w == (3, 1, -2), {"bij-fl"}),
        # the flip trees are built from split codes; the statistics never read them
        ("trees", "split_code", _always, {"bij-fl", "lemma-emp-spk", "knuth-flip-euler"}),
        # the walks themselves: every reader of the pass errs
        ("bijections", "images", _always, {
            "bij-cud-b", "bij-cud-d", "bij-vs-b", "bij-vs-d", "cor-rightmost-cycle-min",
            "cor-rightmost-ltr-min", "report-emp-npk-perobject",
        }),
        ("families", "flip_classes", _always, {
            "thm-fl", "bij-fl", "lemma-emp-spk", "smax-well-defined", "spk-well-defined",
        }),
    ],
    ids=["npk", "path", "smax", "spk", "orient", "orient-one-member", "split", "images", "flip-classes"],
)
def test_a_crashing_part_errors_only_the_checks_that_read_it(
    monkeypatch, owner, name, crashes_on, readers
):
    import importlib

    clean = [_summary(r) for r in verify_all(3)]
    module = importlib.import_module(f"arnold.{owner}")
    real = getattr(module, name)

    def crash(*args):
        if crashes_on(*args):
            raise RuntimeError(f"{name} crashed")
        return real(*args)

    monkeypatch.setattr(module, name, crash)
    results = verify_all(3)
    assert [r.check_id for r in results] == list(EXPECTED_IDS)
    for r, want in zip(results, clean):
        if r.check_id in readers:
            with pytest.raises(RuntimeError) as info:
                verify(r.check_id, 3)
            assert (r.status, r.details) == ("error", (repr(info.value),))
        else:
            assert _summary(r) == want


def _recorded(monkeypatch, module, name):
    """Replace module.name by a recorder; returns the log of its calls,
    each logged as its one argument or the tuple of several."""
    real, log = getattr(module, name), []

    def recorder(*args):
        log.append(args[0] if len(args) == 1 else args)
        return real(*args)

    monkeypatch.setattr(module, name, recorder)
    return log


def test_one_run_walks_each_member_family_once_per_size(monkeypatch):
    import arnold.bijections as bijections
    import arnold.harness as harness

    log = _recorded(monkeypatch, bijections, "images")
    verify_all(3)
    families = ("cud-b", "cud-d", "vs-b", "vs-d")
    assert sorted(log) == sorted((family, n) for family in families for n in (1, 2, 3))
    assert harness._shared is None
    log.clear()
    assert verify("cor-rightmost-cycle-min", 3).status == "pass"
    assert log == [(family, n) for n in (1, 2, 3) for family in ("cud-b", "cud-d")]


def test_one_run_orients_and_reads_each_flip_member_once(monkeypatch):
    import arnold.bijections as bijections
    import arnold.families as families
    import arnold.harness as harness

    members = [w for n in (1, 2, 3) for cls in families.flip_classes(n) for w in cls.members]
    oriented = _recorded(monkeypatch, bijections, "orient_flip_code")
    smax = _recorded(monkeypatch, harness, "_smax_walk")
    spk = _recorded(monkeypatch, harness, "_negatives_at")
    verify_all(3)
    assert [w for _, w in oriented] == [w for w, _ in smax] == [w for w, _ in spk] == members


@pytest.mark.parametrize(
    "check_id, reads",
    [
        ("bij-fl", {"orient_flip_code", "classify"}),
        ("lemma-emp-spk", {"orient_flip_code"}),
        ("smax-well-defined", {"_smax_walk"}),
        ("spk-well-defined", {"_abs_peaks", "_negatives_at"}),
        ("cor-rightmost-cycle-min", {"rightmost_path"}),
        ("report-emp-npk-perobject", {"stat_npk"}),
    ],
)
def test_a_check_run_alone_computes_only_what_it_reads(monkeypatch, check_id, reads):
    import arnold.bijections as bijections
    import arnold.harness as harness
    import arnold.trees as trees

    logs = {
        "orient_flip_code": _recorded(monkeypatch, bijections, "orient_flip_code"),
        "_smax_walk": _recorded(monkeypatch, harness, "_smax_walk"),
        "_abs_peaks": _recorded(monkeypatch, harness, "_abs_peaks"),
        "_negatives_at": _recorded(monkeypatch, harness, "_negatives_at"),
        "rightmost_path": _recorded(monkeypatch, trees, "rightmost_path"),
        "stat_npk": _recorded(monkeypatch, harness, "stat_npk"),
        "classify": _recorded(monkeypatch, trees, "classify"),
    }
    verify(check_id, 3)
    assert {name for name, log in logs.items() if log} == reads


def test_each_refined_triangle_row_is_grown_once_per_process(monkeypatch):
    # the row stores of `triangles` start from row 1, and every row a later
    # check or run reads is the stored one
    import arnold.triangles as triangles

    monkeypatch.setattr(triangles, "_hoffman_rows", triangles._hoffman_rows[:1])
    grown = {"_next_hoffman": []}

    def count_rows(name):
        real, log = getattr(triangles, name), grown[name]

        def grow(rows):
            log.append(len(rows) + 1)
            return real(rows)

        monkeypatch.setattr(triangles, name, grow)

    count_rows("_next_hoffman")
    verify_all(3)
    assert verify("thm-trees", 2).status == "pass"
    assert verify("thm-cud", 3).status == "pass"
    assert grown == {"_next_hoffman": [2, 3]}


def test_what_a_run_shares_ends_with_a_run_that_raises(monkeypatch):
    import arnold.bijections as bijections
    import arnold.harness as harness

    _crash(monkeypatch, "recstep-cud", SizeCapExceededError("cap"))
    with pytest.raises(SizeCapExceededError):
        verify_all(3)
    assert harness._shared is None
    log = _recorded(monkeypatch, bijections, "images")
    assert verify("bij-cud-b", 3).status == "pass"
    assert log == [("cud-b", n) for n in (1, 2, 3)]
