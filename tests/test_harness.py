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
    from arnold.harness import _compare_family_polys, _poly_of_counts
    from arnold.laurent import LaurentPoly
    from arnold.signed_perm import stat_npk
    from arnold.triangles import arnold_hoffman

    cell = LaurentPoly({1: 2, 3: 8, 5: 6})
    assert arnold_hoffman(4)[3].value(4) == cell
    npks = Counter(stat_npk(cf) for cf in enumerate_indexed("cud-b", 4, 1))
    assert _poly_of_counts(npks, 4) == cell
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

    assert _compare_family_polys(3, ascent_top_distribution, "cud B", "cud D") == []
    details = _compare_family_polys(4, ascent_top_distribution, "cud B", "cud D")
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


def test_verify_all_keeps_registry_order():
    results = verify_all(2)
    assert [r.check_id for r in results] == list(EXPECTED_IDS)
    assert all(r.status != "fail" for r in results)


def _crash(monkeypatch, check_id, exc):
    """Make one registered check raise `exc`; returns its registry index."""
    from dataclasses import replace

    import arnold.harness as harness

    def run(*_args):
        raise exc

    i = check_ids().index(check_id)
    patched = list(CHECKS)
    patched[i] = replace(CHECKS[i], run=run)
    monkeypatch.setattr(harness, "CHECKS", patched)
    return i


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
    import arnold.trees as trees

    real = trees.gen_trees

    def drop_first(n):
        it = real(n)
        next(it)
        yield from it

    monkeypatch.setattr(trees, "gen_trees", drop_first)
    assert verify("thm-trees", 1).details[0].startswith("trees-s n=1 k=1: 0 != 1")
    assert verify("bij-fl", 1).details == ("fl n=1: 2 classes vs 1 trees",)
    assert verify("bij-cud-d", 1).details == ("cud-d n=1 k=1: 1 members vs 0 trees",)


def test_invalid_flip_class_image_is_reported(monkeypatch):
    import arnold.bijections as bijections

    monkeypatch.setattr(bijections, "tau_flip_code", lambda w: (-2, -2))
    assert verify("bij-fl", 1).details == (
        "fl n=1: invalid image tree for class (-1,)",
        "fl n=1: invalid image tree for class (1,)",
        "fl n=1: 0 classes vs 2 trees",
    )


def test_unknown_step_case_is_reported(monkeypatch):
    import dataclasses

    import arnold.families as families

    real = families.psi_vs_b

    def odd_case(p):
        rec = real(p)
        return dataclasses.replace(rec, case="zz") if p.window == (1, -2, 3) else rec

    monkeypatch.setattr(families, "psi_vs_b", odd_case)
    assert verify("recstep-vs", 3).details == (
        "vs-b n=3 k=1: unexpected case zz for [1,-2,3]",
        "vs-b n=3 k=1: target ('vs-b', 3, 2) covered with 1 missing, 0 extra",
    )


def test_mislabelled_step_target_is_reported(monkeypatch):
    import dataclasses

    import arnold.families as families

    real = families.psi_cud_d

    def wrong_index(cf):
        rec = real(cf)
        return dataclasses.replace(rec, target_index=rec.target_index + 1)

    monkeypatch.setattr(families, "psi_cud_d", wrong_index)
    details = verify("recstep-cud", 2).details
    assert details[0] == "cud-d n=2 k=2: (1)[2,-2] sent to (cud-b,1,2), expected (cud-b,1,1)"


def test_class_statistic_mismatch_is_reported(monkeypatch):
    import arnold.harness as harness

    real_smax = harness.stat_smax
    monkeypatch.setattr(harness, "stat_smax", lambda w: abs(real_smax(w)))
    monkeypatch.setattr(harness, "stat_spk", lambda p: 0)
    assert verify("smax-well-defined", 1).details == ("n=1: class (-1,) has smax values {1}",)
    assert verify("spk-well-defined", 1).details == ("n=1: class (-1,) has spk values {0}",)


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

    real = harness.stat_spk
    monkeypatch.setattr(harness, "stat_spk", lambda p: real(p) + (p.window[0] == 2))
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
    import dataclasses

    def merge_first_two(classes):
        a, b = classes[:2]
        merged = dataclasses.replace(a, members=tuple(sorted(a.members + b.members)))
        return (merged,) + classes[2:]

    _patched_classes(monkeypatch, merge_first_two)
    assert verify("bij-fl", 2).details == (
        "fl n=1: members of (-1,) map to different trees",
        "fl n=1: 0 classes vs 2 trees",
        "fl n=2: members of (-2, -1) map to different trees",
        "fl n=2: 2 classes vs 4 trees",
    )


def test_negated_class_smax_is_reported(monkeypatch):
    import dataclasses

    _patched_classes(
        monkeypatch, lambda cs: (dataclasses.replace(cs[0], smax=-cs[0].smax),) + cs[1:]
    )
    assert verify("bij-fl", 2).details == (
        "fl n=1: class (-1,) lands at (*,1), expected (o,1)",
        "fl n=2: class (-2, -1) lands at (*,2), expected (o,2)",
    )


def test_shifted_class_spk_is_reported(monkeypatch):
    import dataclasses

    _patched_classes(
        monkeypatch, lambda cs: (dataclasses.replace(cs[0], spk=cs[0].spk + 1),) + cs[1:]
    )
    assert verify("lemma-emp-spk", 2).details == (
        "n=1: class (-1,) has emp 0, spk 2",
        "n=2: class (-2, -1) has emp 1, spk 2",
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
