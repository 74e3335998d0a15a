"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact integer or polynomial equality; the stated
runtime budgets are asserted where the criterion names one.

Criterion 5 reads npk as the number of negative entries that label leaves
of their cycle's min-split tree (the entries the cycle-to-tree map turns
into labelled leaves), plus one for a final (k,-k).  Criterion 12 uses the
type-B split that moves the subtrees of node k+1 in the tree image, which
keeps the sign of k+1 and so keeps sign twins apart.
"""
import time

from arnold import families as fam
from arnold.families import (
    psi_cud_b,
    psi_cud_d,
    psi_vs_b,
    psi_vs_d,
)
from arnold.harness import verify
from arnold.signed_perm import Cycle, CycleForm, from_window
from arnold.triangles import arnold_hoffman, arnold_numbers, check_hoffman_identities


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:>2} [{status}] {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def test_criterion_01_numeric_table_reproduction():
    start = time.perf_counter()
    arnold_numbers(5)
    elapsed = time.perf_counter() - start
    result = verify("table-arnold", 5)
    _report(
        1,
        "numeric triangle matches the stored table in under 1 ms",
        result.status == "pass" and elapsed < 1e-3,
        f"{elapsed * 1e6:.0f} us",
    )


def test_criterion_02_polynomial_table_reproduction():
    start = time.perf_counter()
    arnold_hoffman(5)
    elapsed = time.perf_counter() - start
    result = verify("table-polys", 5)
    _report(
        2,
        "polynomial triangle matches the stored table in under 1 ms",
        result.status == "pass" and elapsed < 1e-3,
        f"{elapsed * 1e6:.0f} us",
    )


def test_criterion_03_specialization_at_one():
    result = verify("poly-at-1", 10)
    _report(3, "polynomials at t=1 equal the numeric triangle up to n=10", result.status == "pass")


def test_criterion_04_derivative_polynomial_identities():
    start = time.perf_counter()
    reports = check_hoffman_identities(10)
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in reports) and elapsed < 1e-2
    _report(4, "tangent/secant identities hold up to n=10 in under 10 ms", ok, f"{elapsed * 1e3:.1f} ms")


def test_criterion_05_cycle_family_polynomials():
    start = time.perf_counter()
    result = verify("thm-cud", 7)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"
    _report(
        5,
        "cycle-up-down npk polynomials equal the refined triangle up to n=7",
        result.status == "pass",
        "; ".join(result.details[:2]),
    )


def test_criterion_06_valley_family_polynomials():
    start = time.perf_counter()
    result = verify("thm-vs", 7)
    elapsed = time.perf_counter() - start
    ok = result.status == "pass" and elapsed < 60
    _report(6, "valley-family neg polynomials equal the refined triangle up to n=7", ok, f"{elapsed:.1f} s")


def test_criterion_07_flip_class_polynomials():
    fam.flip_classes.cache_clear()
    start = time.perf_counter()
    result = verify("thm-fl", 6)
    elapsed = time.perf_counter() - start
    ok = result.status == "pass" and elapsed < 60
    _report(7, "flip-class spk polynomials equal the refined triangle up to n=6", ok, f"{elapsed:.1f} s")


def test_criterion_08_tree_refinement():
    result = verify("thm-trees", 7)
    _report(8, "tree emp polynomials equal the refined triangle up to n=7", result.status == "pass")


def test_criterion_09_bijections():
    checks = ["bij-cud-b", "bij-cud-d", "bij-vs-b", "bij-vs-d", "bij-fl", "lemma-emp-spk"]
    failures = [c for c in checks if verify(c, 6).status != "pass"]
    _report(
        9,
        "all five tree maps are index-preserving bijections up to n=6 and the"
        " emp/spk identity holds on every class",
        not failures,
        ", ".join(failures),
    )


def test_criterion_10_rightmost_path_corollaries():
    failures = [
        c
        for c in ("cor-rightmost-cycle-min", "cor-rightmost-ltr-min")
        if verify(c, 6).status != "pass"
    ]
    _report(10, "rightmost-path labels match cycle minima and left-to-right minima", not failures)


def test_criterion_11_euler_counts():
    ok = (
        verify("knuth-flip-euler", 8).status == "pass"
        and verify("entringer-alternating", 8).status == "pass"
    )
    _report(11, "flip classes and alternating first entries are Euler/Entringer counted", ok)


def test_criterion_12_recurrence_step_bijections():
    # the six published one-step images, reproduced bit-exactly
    rec = psi_cud_d(
        CycleForm((Cycle((1, -5, -2)), Cycle((3, 4)), Cycle((6, 9, -8)), Cycle((7, -7), bracket=True)))
    )
    assert str(rec.image) == "(1,-5,-2)(3,4)(6,8,-7)" and rec.target_index == 6
    rec = psi_cud_d(
        CycleForm((Cycle((1, -5, -2)), Cycle((3, -6)), Cycle((4, 9, -8)), Cycle((7, -7), bracket=True)))
    )
    assert str(rec.image) == "(1,-5,-2)(3,-7)(4,9,-8)[6,-6]"
    rec = psi_cud_b(CycleForm((Cycle((1, -3, -2)), Cycle((4,)), Cycle((5, -6)), Cycle((7, 9, -8)))))
    assert str(rec.image) == "(1,-3,-2)(4)(5,-6)(7,9)(8)"
    rec = psi_cud_b(CycleForm((Cycle((1, -3, -2)), Cycle((4,)), Cycle((5, -8, -6)), Cycle((7, 9)))))
    assert str(rec.image) == "(1,-3,-2)(4)(5,-7,-6)(8,9)"
    rec = psi_vs_d(from_window([-7, 4, 2, 8, 1, -5, 3, -9, 10, 6]))
    assert rec.image.window == (-6, 4, 2, 8, 1, -5, 3, -9, 10, 7)
    rec = psi_vs_b(from_window([7, 9, 8, 5, -6, 4, 1, -3, 2]))
    assert rec.image.window == (8, 9, 7, 5, -6, 4, 1, -3, 2)

    vs_result = verify("recstep-vs", 6)
    cud_result = verify("recstep-cud", 6)
    ok = vs_result.status == "pass" and cud_result.status == "pass"
    _report(
        12,
        "one-step maps are exhaustively bijective with the stated shifts up to n=6",
        ok,
        "; ".join(cud_result.details[:2]),
    )


def test_criterion_13_snake_counts():
    result = verify("snakes-arnold", 5)
    _report(13, "snake counts by first entry reproduce the triangle up to n=5", result.status == "pass")
