"""Named, runnable checks: every identity the package claims is verified by
exhaustive enumeration at desk scale, against golden tables where the
expected values are fixed numbers.

Each check function is registered with `@check`, which fixes its id, claim
and default ceiling, and whether it enumerates (`capped`) or reads triangle
tables only.  `verify` refuses the ceiling of a capped check with
`trees.check_size` before the check starts, so that a request such as
n_max = 9 does not first sweep every size up to 8.  It wraps the check's
list of mismatch records in a CheckResult, and a pass/fail check fails
exactly when that list is not empty.  Report-only checks never fail: they
exist to record findings (currently, for how many members the per-object
tree/npk exponent identity holds at each size).  `verify_all` reports a
check that raises with status "error", so one crash does not hide the
other results.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import permutations
from pathlib import Path
from typing import Callable, Iterable

from . import bijections as bij
from . import families as fam
from . import trees as tr
from .trees import SizeCapExceededError
from .laurent import LaurentPoly
from .signed_perm import (
    SignedPerm,
    left_to_right_minima,
    peak_values,
    stat_npk,
    stat_smax,
    stat_spk,
)
from .triangles import arnold_hoffman, arnold_numbers, check_hoffman_identities, euler_numbers

MAX_DETAILS = 12


class UnknownCheckError(ValueError):
    pass


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    n_range: tuple[int, int]
    status: str  # "pass" | "fail" | "report-only" | "error"
    details: tuple[str, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.status not in ("fail", "error")

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "n_range": list(self.n_range),
            "status": self.status,
            "details": list(self.details),
            "elapsed": self.elapsed,
        }


@dataclass(frozen=True)
class RegisteredCheck:
    check_id: str
    claim: str
    default_max_n: int
    run: Callable[..., list[str]]
    report_only: bool = False
    capped: bool = True  # False only for checks that read triangle tables


CHECKS: list[RegisteredCheck] = []


def check(
    check_id: str, claim: str, default_max_n: int, report_only: bool = False, capped: bool = True
):
    """Register the decorated function as a check; the registry keeps
    definition order, which is the order `verify_all` reports in."""

    def register(fn: Callable[..., list[str]]) -> Callable[..., list[str]]:
        CHECKS.append(RegisteredCheck(check_id, claim, default_max_n, fn, report_only, capped))
        return fn

    return register


def _load_golden(name: str, golden_dir: str | None):
    if golden_dir is not None:
        return json.loads((Path(golden_dir) / name).read_text())
    return json.loads(resources.files("arnold.golden").joinpath(name).read_text())


def _load_table(name: str, key: str, n_max: int, golden_dir: str | None):
    """A stored table that covers n = 1..n_max; a shorter one is refused,
    so that a check never reports a range it did not compare."""
    golden = _load_golden(name, golden_dir)
    stored = len(golden[key])
    if n_max > stored:
        raise ValueError(f"{name} stores {stored} rows, fewer than n_max={n_max}")
    return golden


def _clip(details: list[str]) -> tuple[str, ...]:
    if len(details) > MAX_DETAILS:
        extra = len(details) - MAX_DETAILS
        return tuple(details[:MAX_DETAILS] + [f"... and {extra} more"])
    return tuple(details)


def _poly_of_counts(stat_counts: dict[int, int], n: int) -> LaurentPoly:
    """Generating polynomial sum of t^(n+1-2*s) over a statistic multiset."""
    coeffs: dict[int, int] = {}
    for s, c in stat_counts.items():
        e = n + 1 - 2 * s
        coeffs[e] = coeffs.get(e, 0) + c
    return LaurentPoly(coeffs)


# ---------------------------------------------------------------------------
# triangle and table checks

@check("table-arnold", "numeric double triangle matches the stored table", 5, capped=False)
def check_table_arnold(n_max: int, golden_dir: str | None = None) -> list[str]:
    golden = _load_table("table1.json", "rows", n_max, golden_dir)
    details = []
    for row, grow in zip(arnold_numbers(n_max), golden["rows"]):
        if list(row.neg) != grow["neg"] or list(row.pos) != grow["pos"]:
            details.append(f"row {row.n}: got neg={list(row.neg)} pos={list(row.pos)}")
        if sum(row.pos) != golden["springer_b"][row.n - 1]:
            details.append(f"row {row.n}: positive sum {sum(row.pos)}")
        if sum(row.neg) != golden["springer_d"][row.n - 1]:
            details.append(f"row {row.n}: negative sum {sum(row.neg)}")
    return details


@check("table-polys", "polynomial double triangle matches the stored table", 5, capped=False)
def check_table_polys(n_max: int, golden_dir: str | None = None) -> list[str]:
    golden = _load_table("table2.json", "rows", n_max, golden_dir)
    details = []
    for row, grow in zip(arnold_hoffman(n_max), golden["rows"]):
        want_neg = [LaurentPoly.from_json_map(m) for m in grow["neg"]]
        want_pos = [LaurentPoly.from_json_map(m) for m in grow["pos"]]
        if list(row.neg) != want_neg or list(row.pos) != want_pos:
            details.append(f"row {row.n} differs from the stored polynomials")
    return details


@check("poly-at-1", "polynomials evaluated at 1 give the numeric triangle", 10, capped=False)
def check_poly_at_1(n_max: int, golden_dir: str | None = None) -> list[str]:
    polys = arnold_hoffman(n_max)
    nums = arnold_numbers(n_max)
    details = []
    for prow, nrow in zip(polys, nums):
        for k, poly in prow.entries():
            if poly(1) != nrow.value(k):
                details.append(f"V({prow.n},{k})(1) = {poly(1)} != {nrow.value(k)}")
    return details


@check("row-sums-springer", "row sums give the Springer numbers", 5, capped=False)
def check_row_sums_springer(n_max: int, golden_dir: str | None = None) -> list[str]:
    golden = _load_table("table1.json", "springer_b", n_max, golden_dir)
    details = []
    for row in arnold_numbers(n_max):
        if sum(row.pos) != golden["springer_b"][row.n - 1]:
            details.append(f"n={row.n}: positive row sum {sum(row.pos)}")
        if sum(row.neg) != golden["springer_d"][row.n - 1]:
            details.append(f"n={row.n}: negative row sum {sum(row.neg)}")
    return details


@check("hoffman-q", "t*Q_n equals the positive-side row sum", 10, capped=False)
def check_hoffman_q(n_max: int, golden_dir: str | None = None) -> list[str]:
    return [
        f"n={r.n}: t*Q_n differs from the positive-side row sum"
        for r in check_hoffman_identities(n_max)
        if not r.q_side_ok
    ]


@check("hoffman-p", "P_n - t*Q_n equals the negative-side row sum", 10, capped=False)
def check_hoffman_p(n_max: int, golden_dir: str | None = None) -> list[str]:
    return [
        f"n={r.n}: P_n - t*Q_n differs from the negative-side row sum"
        for r in check_hoffman_identities(n_max)
        if not r.p_side_ok
    ]


@check("entringer-alternating", "triangle entries count alternating permutations by first entry", 8)
def check_entringer_alternating(n_max: int, golden_dir: str | None = None) -> list[str]:
    from .triangles import entringer

    details = []
    rows = entringer(n_max)
    for n in range(1, n_max + 1):
        counts = Counter(p.window[0] for p in fam.enumerate_family("alternating", n))
        for k in range(1, n + 1):
            if counts.get(k, 0) != rows[n - 1][k - 1]:
                details.append(
                    f"n={n} k={k}: {counts.get(k, 0)} alternating vs entry {rows[n - 1][k - 1]}"
                )
    return details


@check("snakes-arnold", "snake counts by first entry reproduce the triangle", 5)
def check_snakes_arnold(n_max: int, golden_dir: str | None = None) -> list[str]:
    details = []
    rows = arnold_numbers(n_max)
    for n in range(1, n_max + 1):
        row = rows[n - 1]
        b_counts = Counter(p.window[0] for p in fam.enumerate_family("snakes-b", n))
        d_counts = Counter(-p.window[0] for p in fam.enumerate_family("snakes-d", n))
        for k in range(1, n + 1):
            if b_counts.get(k, 0) != row.value(k):
                details.append(f"n={n}: {b_counts.get(k, 0)} type-B snakes start {k}, triangle {row.value(k)}")
            if d_counts.get(k, 0) != row.value(-k):
                details.append(f"n={n}: {d_counts.get(k, 0)} type-D snakes start -{k}, triangle {row.value(-k)}")
    return details


# ---------------------------------------------------------------------------
# refined-family theorems

def _compare_family_polys(
    n_max: int, dist_of_n: Callable[[int], Counter], b_label: str, d_label: str
) -> list[str]:
    """Compare a Counter over (side, index, statistic s) with the refined
    triangle, each member contributing t^(n+1-2s) to its cell."""
    details = []
    polys = arnold_hoffman(n_max)
    for n in range(1, n_max + 1):
        dist = dist_of_n(n)
        grouped: dict[tuple[str, int], dict[int, int]] = {}
        for (side, idx, s), c in dist.items():
            grouped.setdefault((side, idx), {}).setdefault(s, 0)
            grouped[(side, idx)][s] += c
        row = polys[n - 1]
        for k in range(1, n + 1):
            got_b = _poly_of_counts(grouped.get(("b", n - k + 1), {}), n)
            if got_b != row.value(k):
                details.append(f"{b_label} n={n} k={k}: {got_b} != {row.value(k)}")
            got_d = _poly_of_counts(grouped.get(("d", n - k + 1), {}), n)
            if got_d != row.value(-k):
                details.append(f"{d_label} n={n} k={k}: {got_d} != {row.value(-k)}")
    return details


@check("thm-cud", "cycle-up-down npk polynomials reproduce the refined triangle", 7)
def check_thm_cud(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _compare_family_polys(n_max, fam.cud_distribution, "cud B", "cud D")


@check("thm-vs", "valley-family neg polynomials reproduce the refined triangle", 8)
def check_thm_vs(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _compare_family_polys(n_max, fam.vs_distribution, "vs B", "vs D")


def _fl_distribution(n: int) -> Counter:
    counts: Counter = Counter()
    for cls in fam.flip_classes(n):
        side = "b" if cls.smax > 0 else "d"
        counts[(side, abs(cls.smax), cls.spk)] += 1
    return counts


@check("thm-fl", "flip-class spk polynomials reproduce the refined triangle", 6)
def check_thm_fl(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _compare_family_polys(n_max, _fl_distribution, "fl B", "fl D")


@lru_cache(maxsize=None)
def _tree_distribution(n: int) -> Counter:
    """Counter over (side, rightmost label, labelled leaves) of the trees of
    size n, side "b" for an empty rightmost leaf.  A tree with L labelled
    leaves has n + 1 - 2L empty ones."""
    counts: Counter = Counter()
    for t in tr.gen_trees(n):
        c = tr.classify(t)
        side = "b" if c.kind == "o" else "d"
        counts[(side, c.rightmost_label, (n + 1 - c.emp) // 2)] += 1
    return counts


@check("thm-trees", "tree emp polynomials reproduce the refined triangle", 7)
def check_thm_trees(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _compare_family_polys(n_max, _tree_distribution, "trees-o", "trees-s")


# ---------------------------------------------------------------------------
# bijection checks

def _check_bijection_into_trees(
    n_max: int, family: str, code_map: Callable, kind: str
) -> list[str]:
    side = "b" if kind == "o" else "d"
    details = []
    for n in range(1, n_max + 1):
        members = fam.enumerate_family(family, n)
        images = []
        for m in members:
            code = code_map(m)
            if not tr.is_tree_code(code, n):
                details.append(f"{family} n={n}: invalid image tree for {m}")
                continue
            c = tr.classify_code(code)
            index = fam.family_index(family, m)
            if c.kind != kind or c.rightmost_label != index:
                details.append(
                    f"{family} n={n}: {m} lands at ({c.kind},{c.rightmost_label}), "
                    f"expected ({kind},{index})"
                )
            images.append(code)
        if len(set(images)) != len(images):
            details.append(f"{family} n={n}: images collide")
        trees = _tree_distribution(n)
        by_index = Counter(fam.family_index(family, m) for m in members)
        for k in range(1, n + 1):
            n_trees = sum(cnt for (s, idx, _), cnt in trees.items() if (s, idx) == (side, k))
            if by_index.get(k, 0) != n_trees:
                details.append(
                    f"{family} n={n} k={k}: {by_index.get(k, 0)} members vs {n_trees} trees"
                )
    return details


@check("bij-cud-b", "type-B cycle map is an index-preserving bijection to empty-ended trees", 6)
def check_bij_cud_b(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _check_bijection_into_trees(n_max, "cud-b", bij.phi_cud_b_code, "o")


@check("bij-cud-d", "type-D cycle map is an index-preserving bijection to labelled-ended trees", 6)
def check_bij_cud_d(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _check_bijection_into_trees(n_max, "cud-d", bij.phi_cud_d_code, "*")


@check("bij-vs-b", "type-B valley map is an index-preserving bijection", 6)
def check_bij_vs_b(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _check_bijection_into_trees(n_max, "vs-b", bij.phi_vs_b_code, "o")


@check("bij-vs-d", "type-D valley map is an index-preserving bijection", 6)
def check_bij_vs_d(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _check_bijection_into_trees(n_max, "vs-d", bij.phi_vs_d_code, "*")


@check("bij-fl", "flip-class map is well defined and bijective", 6)
def check_bij_fl(n_max: int, golden_dir: str | None = None) -> list[str]:
    details = []
    for n in range(1, n_max + 1):
        classes = fam.flip_classes(n)
        images = []
        for cls in classes:
            member_codes = {bij.tau_flip_code(w) for w in cls.members}
            if len(member_codes) != 1:
                details.append(f"fl n={n}: members of {cls.canon} map to different trees")
                continue
            code = member_codes.pop()
            if not tr.is_tree_code(code, n):
                details.append(f"fl n={n}: invalid image tree for class {cls.canon}")
                continue
            c = tr.classify_code(code)
            want_kind = "o" if cls.smax > 0 else "*"
            if c.kind != want_kind or c.rightmost_label != abs(cls.smax):
                details.append(
                    f"fl n={n}: class {cls.canon} lands at ({c.kind},{c.rightmost_label}), "
                    f"expected ({want_kind},{abs(cls.smax)})"
                )
            images.append(code)
        if len(set(images)) != len(images):
            details.append(f"fl n={n}: class images collide")
        total_trees = sum(_tree_distribution(n).values())
        if len(images) != total_trees:
            details.append(f"fl n={n}: {len(images)} classes vs {total_trees} trees")
    return details


@check("cor-rightmost-cycle-min", "rightmost-path labels are the cycle minima", 6)
def check_cor_rightmost_cycle_min(n_max: int, golden_dir: str | None = None) -> list[str]:
    details = []
    for n in range(1, n_max + 1):
        for family, code_map in (("cud-b", bij.phi_cud_b_code), ("cud-d", bij.phi_cud_d_code)):
            for cf in fam.enumerate_family(family, n):
                want = frozenset(c.leader for c in cf.cycles)
                got = tr.path_labels(code_map(cf))
                if got != want:
                    details.append(f"{family} n={n}: {cf} path labels {sorted(got)}")
    return details


@check("cor-rightmost-ltr-min", "rightmost-path labels are the left-to-right minima", 6)
def check_cor_rightmost_ltr_min(n_max: int, golden_dir: str | None = None) -> list[str]:
    details = []
    for n in range(1, n_max + 1):
        for family, code_map in (("vs-b", bij.phi_vs_b_code), ("vs-d", bij.phi_vs_d_code)):
            for p in fam.enumerate_family(family, n):
                want = left_to_right_minima(p.abs_window())
                got = tr.path_labels(code_map(p))
                if got != want:
                    details.append(f"{family} n={n}: {p} path labels {sorted(got)}")
    return details


@check("lemma-emp-spk", "emp equals n - 2*spk + 1 on every flip class", 6)
def check_lemma_emp_spk(n_max: int, golden_dir: str | None = None) -> list[str]:
    details = []
    for n in range(1, n_max + 1):
        for cls in fam.flip_classes(n):
            emp = bij.tau_flip_code(cls.canon).count(0)
            if emp != n - 2 * cls.spk + 1:
                details.append(f"n={n}: class {cls.canon} has emp {emp}, spk {cls.spk}")
    return details


@check("lemma-peak-leaf", "double-empty nodes of the min-split tree are the peaks", 8)
def check_lemma_peak_leaf(n_max: int, golden_dir: str | None = None) -> list[str]:
    details = []
    for n in range(1, n_max + 1):
        labels = range(1, n + 1)
        for p in permutations(labels):
            code = bij.algo3_code(p)
            found = {v for v in labels if not (code[2 * v - 2] or code[2 * v - 1])}
            if found - {p[0]} != set(peak_values(p)):
                details.append(f"n={n} perm {p}: double-empty labels {sorted(found)}")
    return details


@check("knuth-flip-euler", "unsigned flip classes are counted by Euler numbers", 8)
def check_knuth_flip_euler(n_max: int, golden_dir: str | None = None) -> list[str]:
    details = []
    euler = euler_numbers(n_max)
    for n in range(1, n_max + 1):
        classes = fam.unsigned_flip_classes(n)
        if len(classes) != euler[n - 1]:
            details.append(f"n={n}: {len(classes)} classes vs Euler number {euler[n - 1]}")
    if n_max >= 3:
        classes3 = {frozenset(c) for c in fam.unsigned_flip_classes(3)}
        want = {
            frozenset({(1, 2, 3), (3, 2, 1), (2, 3, 1), (1, 3, 2)}),
            frozenset({(2, 1, 3), (3, 1, 2)}),
        }
        if classes3 != want:
            details.append("n=3: class structure differs from the two known classes")
    return details


# ---------------------------------------------------------------------------
# recurrence-step checks

def _verify_step_partition(
    records: Iterable[fam.StepRecord],
    expected: dict[str, tuple[str, int, int, int]],
    label: str,
) -> list[str]:
    """Check case targets and statistic shifts, then exact coverage of each
    indexed family the expected cases name, with no collisions."""
    details = []
    keys = dict.fromkeys(target[:3] for target in expected.values())
    target_sets = {key: set(fam.enumerate_indexed(*key)) for key in keys}
    seen: dict[tuple[str, int, int], set] = {key: set() for key in target_sets}
    for rec in records:
        if rec.case not in expected:
            details.append(f"{label}: unexpected case {rec.case} for {rec.source}")
            continue
        family, t_n, t_index, shift = expected[rec.case]
        if (rec.target_family, rec.target_n, rec.target_index) != (family, t_n, t_index):
            details.append(
                f"{label}: {rec.source} sent to ({rec.target_family},{rec.target_n},"
                f"{rec.target_index}), expected ({family},{t_n},{t_index})"
            )
            continue
        if rec.stat_after - rec.stat_before != shift:
            details.append(
                f"{label}: {rec.source} shifts stat by {rec.stat_after - rec.stat_before},"
                f" expected {shift}"
            )
        bucket = seen[(family, t_n, t_index)]
        if rec.image in bucket:
            details.append(f"{label}: image {rec.image} hit twice")
        bucket.add(rec.image)
    for key, want in target_sets.items():
        got = seen[key]
        if got != want:
            missing = len(want - got)
            extra = len(got - want)
            details.append(
                f"{label}: target {key} covered with {missing} missing, {extra} extra"
            )
    return details


def _check_recstep(
    n_max: int,
    kind: str,
    step: Callable[[int, int, str], fam.StepReport],
    bridge: Callable[[object], fam.StepRecord],
    d_cases: tuple[str, str],
    b_cases: tuple[str, ...],
) -> list[str]:
    """Check the one-step maps of a pair of indexed families.  `d_cases`
    names the type-D step's case that drops to size n-1, then the one that
    stays; `b_cases` names the type-B step's dropping case, then every case
    that stays at size n."""
    fb, fd = f"{kind}-b", f"{kind}-d"
    d_drop, d_stay = d_cases
    b_drop, *b_stay = b_cases
    details = []
    for n in range(2, n_max + 1):
        for k in range(2, n + 1):
            expected = {d_drop: (fb, n - 1, k - 1, -1), d_stay: (fd, n, k - 1, 0)}
            details += _verify_step_partition(
                step(n, k, "d").records, expected, f"{fd} n={n} k={k}"
            )
        for k in range(1, n):
            expected = {b_drop: (fd, n - 1, k, 0), **dict.fromkeys(b_stay, (fb, n, k + 1, 0))}
            details += _verify_step_partition(
                step(n, k, "b").records, expected, f"{fb} n={n} k={k}"
            )
        bridge_images = {bridge(m).image for m in fam.enumerate_indexed(fb, n, n)}
        if bridge_images != set(fam.enumerate_indexed(fd, n, n)):
            details.append(f"{kind} bridge n={n}: images differ from the type-D family")
    return details


@check("recstep-cud", "cycle-family one-step maps partition their targets", 6)
def check_recstep_cud(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _check_recstep(
        n_max, "cud", fam.recurrence_step_cud, fam.psi_cud_bridge, ("i", "ii"), ("i", "ii", "iii")
    )


@check("recstep-vs", "valley-family one-step maps partition their targets", 6)
def check_recstep_vs(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _check_recstep(
        n_max, "vs", fam.recurrence_step_vs, fam.psi_vs_bridge, ("1", "2"), ("1", "1b", "2")
    )


def _check_constant_on_classes(n_max: int, name: str, stat: Callable) -> list[str]:
    """Check that stat, applied to each member window, gives the value the
    flip class records under `name`.  `flip_classes` reads the statistics
    off the canonical member only, so this is the one test that they are
    constant on every member."""
    details = []
    for n in range(1, n_max + 1):
        for cls in fam.flip_classes(n):
            values = {stat(w) for w in cls.members}
            if values != {getattr(cls, name)}:
                details.append(f"n={n}: class {cls.canon} has {name} values {values}")
    return details


@check("smax-well-defined", "smax is constant on every flip class", 6)
def check_smax_well_defined(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _check_constant_on_classes(n_max, "smax", stat_smax)


@check("spk-well-defined", "spk is constant on every flip class", 6)
def check_spk_well_defined(n_max: int, golden_dir: str | None = None) -> list[str]:
    return _check_constant_on_classes(n_max, "spk", lambda w: stat_spk(SignedPerm(w)))


@check(
    "report-emp-npk-perobject",
    "where the per-object emp/npk exponent identity holds",
    6,
    report_only=True,
)
def check_report_emp_npk(n_max: int, golden_dir: str | None = None) -> list[str]:
    """Report-only: where does emp(tree image) equal n+1-2*npk per object?"""
    findings = []
    for n in range(1, n_max + 1):
        agree = 0
        total = 0
        for family, code_map in (("cud-b", bij.phi_cud_b_code), ("cud-d", bij.phi_cud_d_code)):
            for cf in fam.enumerate_family(family, n):
                emp = code_map(cf).count(0)
                total += 1
                if emp == n + 1 - 2 * stat_npk(cf):
                    agree += 1
        findings.append(f"n={n}: per-object identity holds for {agree}/{total} members")
    return findings


# ---------------------------------------------------------------------------
# running registered checks

def check_ids() -> tuple[str, ...]:
    return tuple(spec.check_id for spec in CHECKS)


def _spec(check_id: str) -> RegisteredCheck:
    for spec in CHECKS:
        if spec.check_id == check_id:
            return spec
    raise UnknownCheckError(f"unknown check {check_id!r}")


def verify(check_id: str, max_n: int | None = None, golden_dir: str | None = None) -> CheckResult:
    """Run one registered check up to max_n (its default ceiling if omitted)."""
    spec = _spec(check_id)
    n_max = spec.default_max_n if max_n is None else max_n
    if n_max < 1:
        raise SizeCapExceededError("max_n must be at least 1")
    if spec.capped:
        tr.check_size(n_max)
    start = time.perf_counter()
    details = spec.run(n_max, golden_dir)
    elapsed = time.perf_counter() - start
    if spec.report_only:
        status = "report-only"
    else:
        status = "fail" if details else "pass"
    return CheckResult(check_id, (1, n_max), status, _clip(details), elapsed)


def verify_all(max_n: int | None = None, golden_dir: str | None = None) -> list[CheckResult]:
    """Run every registered check, in registry order, at its default
    ceiling capped by max_n.  A check that raises anything but
    SizeCapExceededError is reported with status "error" and the
    exception in its details, and the remaining checks still run."""
    results = []
    for spec in CHECKS:
        n_max = spec.default_max_n if max_n is None else min(spec.default_max_n, max_n)
        start = time.perf_counter()
        try:
            results.append(verify(spec.check_id, n_max, golden_dir))
        except SizeCapExceededError:
            raise
        except Exception as exc:
            elapsed = time.perf_counter() - start
            results.append(CheckResult(spec.check_id, (1, n_max), "error", (repr(exc),), elapsed))
    return results
