"""Named, runnable checks: every identity the package claims is verified by
exhaustive enumeration at desk scale, against golden tables where the
expected values are fixed numbers.

Each check function is registered with `@check`, which fixes its id, claim
and default ceiling, and whether it enumerates (`capped`) or reads triangle
tables only.  A capped check is a check of one size n that yields its
mismatch records, and `verify` is the one place that sweeps the sizes: it
refuses the ceiling with `trees.check_size` before the first size runs, so
that a request such as n_max = 9 does not first sweep every size up to 8,
then collects the records of n = 1..n_max in order.  A triangle check
reads whole stored tables, so it takes the ceiling and returns its
records.  `verify` wraps the records in a CheckResult, and a pass/fail
check fails exactly when there are some.  Report-only checks never fail:
they exist to record findings (currently, for how many members the
per-object tree/npk exponent identity holds at each size).  `verify_all`
reports a check that raises with status "error", so one crash does not
hide the other results.

The tree side of `thm-trees` and of the bijection checks is counted by
`_tree_distribution` over the increasing plane trees, not generated; the
maps write flat codes (see `trees`), which the checks read through
`trees.classify` and `trees.rightmost_path`.  The cycle and valley member
checks read each member with its code from `bijections.images`, the flip
checks orient every member of `families.flip_classes`, and the step
checks read the records of `families.recurrence_step_*`; all of them run
the maps unguarded, on members of the family generators, which the tests
hold equal to the literal filters.

Within one `verify_all` run the eleven member checks share their walks:
one pass per (family, n), a walk of `bijections.images` for each of
`cud-b`, `cud-d`, `vs-b` and `vs-d` and a walk of the flip classes of size
n and their members, computes the results of every check that reads those
members (`_member_pass`, `_flip_pass`).  The flip walk reads each
member's smax and spk with the word-level kernels of `stat_smax` and
`stat_spk` (`_smax_walk`, and `_negatives_at` the `_abs_peaks` of |w|),
whose sort order and peak positions it sets up once per unsigned
permutation |w|.  The first check to read a pass pays for it, and each
result keeps its own exception, so that a crash fails only the checks
that read what crashed.  The cycle, valley and flip bijection checks map
onto the same complete increasing trees, so they also share one verdict
per tree code and size, `is_complete_increasing` then `classify`
(`_tree_verdicts`): a run judges each tree once, not once per family.
What a run shares lives in `_shared` until `verify_all` returns or
raises; `verify` on its own (`verify --check`) computes fresh only the
result its check reads, and judges every image itself.

The triangle rows and the min-split codes need no sharing here:
`triangles` builds each row once per process, and `trees.block_code` and
the valley maps (`bijections._valley_setup`) keep theirs in bounded
process-wide memos, keyed by a cycle's absolute values or by |w|.
Nothing keyed by a cycle form or a tree code outlives a run.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from functools import lru_cache, partial
from importlib import resources
from itertools import permutations
from math import comb
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from . import bijections as bij
from . import families as fam
from . import trees as tr
from .trees import SizeCapExceededError
from .laurent import LaurentPoly
from .signed_perm import (
    _abs_peaks,
    _negatives_at,
    _smax_walk,
    left_to_right_minima,
    peak_values,
    stat_npk,
    stat_smax,  # not called here: perfbench/layers.py times it as harness.stat_smax
    stat_spk,  # likewise, as harness.stat_spk
)
from .triangles import arnold_hoffman, arnold_numbers, check_hoffman_identities, euler_numbers

MAX_DETAILS = 12


class UnknownCheckError(ValueError):
    pass


class CheckResult(NamedTuple):
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


class RegisteredCheck(NamedTuple):
    check_id: str
    claim: str
    default_max_n: int
    run: Callable[..., Iterable[str]]  # run(n) if capped, else run(n_max, golden_dir)
    report_only: bool = False
    capped: bool = True  # False only for checks that read triangle tables


CHECKS: list[RegisteredCheck] = []


def check(
    check_id: str, claim: str, default_max_n: int, report_only: bool = False, capped: bool = True
):
    """Register the decorated function as a check; the registry keeps
    definition order, which is the order `verify_all` reports in."""

    def register(fn: Callable[..., Iterable[str]]) -> Callable[..., Iterable[str]]:
        CHECKS.append(RegisteredCheck(check_id, claim, default_max_n, fn, report_only, capped))
        return fn

    return register


# the per-n lists of each stored table
_TABLE_LISTS = {"table1.json": ("rows", "springer_b", "springer_d"), "table2.json": ("rows",)}


@lru_cache(maxsize=None)
def _packaged_table_text(name: str) -> str:
    """The text of a table shipped with the package, read once per process."""
    return resources.files("arnold").joinpath("golden", name).read_text()


def _load_table(name: str, n_max: int, golden_dir: str | None) -> dict:
    """A stored table whose every per-n list covers n = 1..n_max, each of
    those rows holding a `neg` and a `pos` list; a table with a list
    missing or shorter is refused, so that a check never crashes on it or
    reports a range it did not compare.  So is a table1 number in that
    range that is not an int: 1.0 and True compare equal to 1.  A
    packaged table's text is cached, but each call parses and checks it
    anew, so no caller shares a parsed table; a `golden_dir` table is
    read on every call."""
    if golden_dir is not None:
        golden = json.loads((Path(golden_dir) / name).read_text())
    else:
        golden = json.loads(_packaged_table_text(name))
    for key in _TABLE_LISTS[name]:
        stored = golden.get(key) if isinstance(golden, dict) else None
        if not isinstance(stored, list):
            raise ValueError(f"{name} has no list {key!r}")
        if n_max > len(stored):
            raise ValueError(f"{name} stores {len(stored)} {key}, fewer than n_max={n_max}")
    for n, row in enumerate(golden["rows"][:n_max], start=1):
        if not (isinstance(row, dict) and all(isinstance(row.get(k), list) for k in ("neg", "pos"))):
            raise ValueError(f"{name} row {n} has no list 'neg' or no list 'pos'")
        if name == "table1.json":
            for key in ("neg", "pos", "springer_b", "springer_d"):
                numbers = row[key] if key in ("neg", "pos") else golden[key][n - 1 : n]
                for value in numbers:
                    if type(value) is not int:
                        raise ValueError(f"{name} row {n}: {key} holds {value!r}, not an int")
    return golden


def _clip(details: list[str]) -> tuple[str, ...]:
    if len(details) > MAX_DETAILS:
        extra = len(details) - MAX_DETAILS
        return tuple(details[:MAX_DETAILS] + [f"... and {extra} more"])
    return tuple(details)


# ---------------------------------------------------------------------------
# results shared by the checks of one verify_all run

# What the running `verify_all` has computed, by key; None outside one.
_shared: dict | None = None


def _attempt(f: Callable, *args):
    """f(*args), or the exception that it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return exc


def _tree_verdicts(n: int) -> dict | None:
    """The verdicts of size n that `_verdict` reads and fills, tree code ->
    verdict, shared by the cycle, valley and flip bijection checks of a
    `verify_all` run, whose images are the same trees; None outside one,
    where a check keeps no verdict."""
    if _shared is None:
        return None
    return _shared.setdefault(("trees", n), {})


def _verdict(verdicts: dict | None, code: tuple[int, ...], n: int) -> tr.TreeClass | None:
    """`trees.classify` of a complete increasing tree of size n, None for
    any other code; read from `verdicts` if it holds the code, and kept
    there if it does not."""
    if verdicts is not None and code in verdicts:
        return verdicts[code]
    verdict = tr.classify(code) if tr.is_complete_increasing(code, n) else None
    if verdicts is not None:
        verdicts[code] = verdict
    return verdict


def _pass_result(family: str, n: int, name: str):
    """Result `name` of the pass over (family, n); raises the exception
    that computing it raised.  Within a `verify_all` run the pass computes
    all its results for their readers at once; outside one, only this one."""
    walk = _flip_pass if family == "fl" else partial(_member_pass, family)
    if _shared is None:
        results = walk(n, (name,))
    elif (family, n) in _shared:
        results = _shared[(family, n)]
    else:
        results = _shared[(family, n)] = walk(n, None)
    result = results[name]
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# triangle and table checks

@check("table-arnold", "numeric double triangle matches the stored table", 5, capped=False)
def check_table_arnold(n_max: int, golden_dir: str | None = None) -> list[str]:
    golden = _load_table("table1.json", n_max, golden_dir)
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
    golden = _load_table("table2.json", n_max, golden_dir)
    details = []
    for row, grow in zip(arnold_hoffman(n_max), golden["rows"]):
        try:
            want = [[LaurentPoly.from_json_map(m) for m in grow[side]] for side in ("neg", "pos")]
        except ValueError as exc:
            raise ValueError(f"table2.json row {row.n}: {exc}") from None
        if [list(row.neg), list(row.pos)] != want:
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
    golden = _load_table("table1.json", n_max, golden_dir)
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
def check_entringer_alternating(n: int) -> Iterator[str]:
    from .triangles import entringer

    row = entringer(n)[n - 1]
    counts = Counter(p.window[0] for p in fam.enumerate_family("alternating", n))
    for k in range(1, n + 1):
        if counts.get(k, 0) != row[k - 1]:
            yield (
                f"n={n} k={k}: {counts.get(k, 0)} alternating vs entry {row[k - 1]}"
            )


@check("snakes-arnold", "snake counts by first entry reproduce the triangle", 5)
def check_snakes_arnold(n: int) -> Iterator[str]:
    row = arnold_numbers(n)[n - 1]
    b_counts = Counter(p.window[0] for p in fam.enumerate_family("snakes-b", n))
    d_counts = Counter(-p.window[0] for p in fam.enumerate_family("snakes-d", n))
    for k in range(1, n + 1):
        if b_counts.get(k, 0) != row.value(k):
            yield f"n={n}: {b_counts.get(k, 0)} type-B snakes start {k}, triangle {row.value(k)}"
        if d_counts.get(k, 0) != row.value(-k):
            yield f"n={n}: {d_counts.get(k, 0)} type-D snakes start -{k}, triangle {row.value(-k)}"


# ---------------------------------------------------------------------------
# refined-family theorems

def _compare_family_polys(n: int, dist: Counter, b_label: str, d_label: str) -> Iterator[str]:
    """Compare a Counter over (side, index, statistic s) of the size-n
    members with row n of the refined triangle, each member contributing
    t^(n+1-2s) to its cell."""
    cells: dict[tuple[str, int], dict[int, int]] = {}
    for (side, idx, s), c in dist.items():
        cells.setdefault((side, idx), {})[n + 1 - 2 * s] = c
    row = arnold_hoffman(n)[n - 1]
    for k in range(1, n + 1):
        got_b = LaurentPoly(cells.get(("b", n - k + 1)))
        if got_b != row.value(k):
            yield f"{b_label} n={n} k={k}: {got_b} != {row.value(k)}"
        got_d = LaurentPoly(cells.get(("d", n - k + 1)))
        if got_d != row.value(-k):
            yield f"{d_label} n={n} k={k}: {got_d} != {row.value(-k)}"


@check("thm-cud", "cycle-up-down npk polynomials reproduce the refined triangle", 7)
def check_thm_cud(n: int) -> Iterator[str]:
    return _compare_family_polys(n, fam.cud_distribution(n), "cud B", "cud D")


@check("thm-vs", "valley-family neg polynomials reproduce the refined triangle", 8)
def check_thm_vs(n: int) -> Iterator[str]:
    return _compare_family_polys(n, fam.vs_distribution(n), "vs B", "vs D")


def _fl_distribution(n: int) -> Counter:
    counts: Counter = Counter()
    for cls in fam.flip_classes(n):
        side = "b" if cls.smax > 0 else "d"
        counts[(side, abs(cls.smax), cls.spk)] += 1
    return counts


@check("thm-fl", "flip-class spk polynomials reproduce the refined triangle", 6)
def check_thm_fl(n: int) -> Iterator[str]:
    return _compare_family_polys(n, _fl_distribution(n), "fl B", "fl D")


@lru_cache(maxsize=None)
def _tree_distribution(n: int) -> Counter:
    """Counter over (side, rightmost label, labelled leaves) of the complete
    increasing binary trees of size n, side "b" for an empty rightmost leaf.
    A tree with L labelled leaves has n + 1 - 2L empty ones.

    The trees are counted, not built.  Without its empty leaves a tree is
    an increasing plane tree, one of the n! made by inserting the labels
    2..n one by one into open child slots, and each childless node of that
    is a labelled leaf or carries two empty leaves.  The rightmost label is
    the end v of the plane tree's right spine, and the rightmost leaf is
    labelled exactly when v is childless and a labelled leaf.  So the plane
    trees are counted by state (free, end, bare): `end` is v, `bare` says
    whether v is childless, and `free` counts the other childless nodes,
    whose C(free, j) choices of j labelled leaves give the trees of a
    state."""
    tr.check_size(n)
    states = Counter({(0, 1, True): 1})
    for m in range(2, n + 1):  # m - 1 nodes leave m open slots for label m
        grown: Counter = Counter()
        for (free, end, bare), trees in states.items():
            grown[(free, m, True)] += trees  # the slot right of v
            if bare:
                grown[(free + 1, end, False)] += trees  # the slot left of v
            grown[(free, end, bare)] += 2 * free * trees  # below another childless node
            grown[(free + 1, end, bare)] += (m - 1 - bare - 2 * free) * trees  # beside a child
        states = +grown
    counts: Counter = Counter()
    for (free, end, bare), trees in states.items():
        for j in range(free + 1):
            ways = trees * comb(free, j)
            counts[("b", end, j)] += ways
            if bare:
                counts[("d", end, j + 1)] += ways
    return counts


@check("thm-trees", "tree emp polynomials reproduce the refined triangle", 8)
def check_thm_trees(n: int) -> Iterator[str]:
    return _compare_family_polys(n, _tree_distribution(n), "trees-o", "trees-s")


# ---------------------------------------------------------------------------
# bijection checks

def _bijection_details(family: str, n: int, items: list) -> tuple[str, ...]:
    """That the family maps bijectively, index to rightmost label, onto the
    trees of its side."""
    side = family[-1]
    kind = "o" if side == "b" else "*"
    details, codes = [], []
    by_index: Counter = Counter()
    verdicts = _tree_verdicts(n)
    for m, code in items:
        index = fam.family_index(family, m)
        by_index[index] += 1
        c = _verdict(verdicts, code, n)
        if c is None:
            details.append(f"{family} n={n}: invalid image tree for {m}")
            continue
        if c.kind != kind or c.rightmost_label != index:
            details.append(
                f"{family} n={n}: {m} lands at ({c.kind},{c.rightmost_label}), "
                f"expected ({kind},{index})"
            )
        codes.append(code)
    if len(set(codes)) != len(codes):
        details.append(f"{family} n={n}: images collide")
    trees = _tree_distribution(n)
    for k in range(1, n + 1):
        n_trees = sum(cnt for (s, idx, _), cnt in trees.items() if (s, idx) == (side, k))
        if by_index.get(k, 0) != n_trees:
            details.append(f"{family} n={n} k={k}: {by_index.get(k, 0)} members vs {n_trees} trees")
    return tuple(details)


def _path_details(family: str, n: int, items: list) -> tuple[str, ...]:
    """That the labels on each image's rightmost path are the cycle minima
    of a cycle member, the left-to-right minima of a valley member."""
    if family.startswith("cud"):
        want = lambda cf: frozenset(c.leader for c in cf.cycles)  # noqa: E731
    else:
        want = lambda p: left_to_right_minima(p.abs_window())  # noqa: E731
    details = []
    for m, code in items:
        got = tr.rightmost_path(code)
        if got != want(m):
            details.append(f"{family} n={n}: {m} path labels {sorted(got)}")
    return tuple(details)


def _emp_npk_counts(family: str, n: int, items: list) -> tuple[int, int]:
    """For how many members emp(image) = n + 1 - 2*npk, and of how many."""
    agree = sum(tr.count_empty(code) == n + 1 - 2 * stat_npk(cf) for cf, code in items)
    return agree, len(items)


def _member_pass(family: str, n: int, names: Iterable[str] | None) -> dict:
    """Results `names` (all if None) of one walk of
    `bijections.images(family, n)`: "bij" (the details of `bij-<family>`),
    "path" (its share of the `cor-rightmost-*` details) and, for a cycle
    family, "report" (its share of the report's counts).  An exception from
    the walk is the result of every one."""
    parts = {"bij": _bijection_details, "path": _path_details}
    if family.startswith("cud"):
        parts["report"] = _emp_npk_counts
    names = names or parts
    try:
        items = list(bij.images(family, n))
    except Exception as exc:
        return dict.fromkeys(names, exc)
    return {name: _attempt(parts[name], family, n, items) for name in names}


@check("bij-cud-b", "type-B cycle map is an index-preserving bijection to empty-ended trees", 6)
def check_bij_cud_b(n: int) -> tuple[str, ...]:
    return _pass_result("cud-b", n, "bij")


@check("bij-cud-d", "type-D cycle map is an index-preserving bijection to labelled-ended trees", 6)
def check_bij_cud_d(n: int) -> tuple[str, ...]:
    return _pass_result("cud-d", n, "bij")


@check("bij-vs-b", "type-B valley map is an index-preserving bijection", 6)
def check_bij_vs_b(n: int) -> tuple[str, ...]:
    return _pass_result("vs-b", n, "bij")


@check("bij-vs-d", "type-D valley map is an index-preserving bijection", 6)
def check_bij_vs_d(n: int) -> tuple[str, ...]:
    return _pass_result("vs-d", n, "bij")


def _flip_bijection_details(n: int, rows: list) -> tuple[str, ...]:
    """That every member of a class maps to one tree, and the classes
    bijectively, smax to rightmost label, onto the trees."""
    details, images = [], []
    verdicts = _tree_verdicts(n)
    for cls, trees in rows:
        if isinstance(trees, Exception):
            raise trees
        if len(trees) != 1:
            details.append(f"fl n={n}: members of {cls.canon} map to different trees")
            continue
        (code,) = trees
        c = _verdict(verdicts, code, n)
        if c is None:
            details.append(f"fl n={n}: invalid image tree for class {cls.canon}")
            continue
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
    return tuple(details)


def _constant_details(name: str, n: int, rows: list) -> tuple[str, ...]:
    """That the statistic `name`, applied to each member window, gives the
    value the flip class records.  `flip_classes` builds the statistics
    from the class's non-plane tree only, so this is the one test that
    they are constant on every member."""
    details = []
    for cls, values in rows:
        if isinstance(values, Exception):
            raise values
        if values != {getattr(cls, name)}:
            details.append(f"n={n}: class {cls.canon} has {name} values {values}")
    return tuple(details)


def _emp_spk_details(n: int, rows: list) -> tuple[str, ...]:
    """That the tree of each class, that of its canonical member, has
    n - 2*spk + 1 empty leaves."""
    details = []
    for cls, code in rows:
        if isinstance(code, Exception):
            raise code
        emp = tr.count_empty(code)
        if emp != n - 2 * cls.spk + 1:
            details.append(f"n={n}: class {cls.canon} has emp {emp}, spk {cls.spk}")
    return tuple(details)


def _flip_pass(n: int, names: Iterable[str] | None) -> dict:
    """Results `names` (all if None) of one walk of the flip classes of
    size n, in canon order, which reads each class's members once: "bij",
    "smax", "spk" and "emp", the details of `bij-fl`, `smax-well-defined`,
    `spk-well-defined` and `lemma-emp-spk`.  For each class the walk keeps
    the set of its members' trees, its canonical member's tree and the
    sets of its members' smax and spk, each replaced by the exception that
    computing it raised, if one did; an exception from the walk itself is
    the result of every one.

    What a member's tree and statistics need of it beyond its signs depends
    only on u = |w|, so the walk sets it up once per u, with one lookup per
    member, and only the parts that the results asked for read: u's split
    code for the trees, its positions in increasing value for smax, its
    peak positions (`_abs_peaks`) for spk.  smax is then `_smax_walk` over
    the member's own word and spk `_negatives_at` those peaks, the kernels
    of `stat_smax` and `stat_spk`.  A part whose making raised holds that
    exception; its reader fails on it, and the part's exception is
    reported in place of the reader's, so that it fails only the results
    that read it.  smax is never read off the split code: `flip_classes`
    builds it from the signings of the tree's subtrees, so that would test
    nothing."""
    parts = {
        "bij": _flip_bijection_details,
        "smax": lambda n, rows: _constant_details("smax", n, rows),
        "spk": lambda n, rows: _constant_details("spk", n, rows),
        "emp": _emp_spk_details,
    }
    rows: dict[str, list] = {name: [] for name in names or parts}
    oriented = "bij" in rows or "emp" in rows
    every = rows.keys() != {"emp"}  # "emp" alone reads the canonical member only
    makes = (
        tr.split_code if oriented else None,
        (lambda u: sorted(range(n), key=u.__getitem__)) if "smax" in rows else None,
        _abs_peaks if "spk" in rows else None,
    )
    stats = [
        (name, read, k)
        for name, read, k in (("smax", _smax_walk, 1), ("spk", _negatives_at, 2))
        if name in rows
    ]
    setups: dict[tuple[int, ...], tuple] = {}
    orient = bij.orient_flip_code
    try:
        for cls in fam.flip_classes(n):
            members = cls.members if every else (cls.canon,)
            pairs = []
            for w in members:
                u = tuple(map(abs, w))
                setup = setups.get(u)
                if setup is None:
                    setup = setups[u] = tuple(make and _attempt(make, u) for make in makes)
                pairs.append((w, setup))
            codes, error = [], None
            for w, setup in pairs if oriented else ():
                split = setup[0]
                try:
                    code = orient(split, w)  # one split code serves every signing of u
                except Exception as exc:
                    code = split if isinstance(split, Exception) else exc
                    error = error or code
                codes.append(code)
            if "bij" in rows:
                rows["bij"].append((cls, error or set(codes)))
            if "emp" in rows:
                rows["emp"].append((cls, codes[members.index(cls.canon)]))
            for name, read, k in stats:
                try:
                    found = {read(w, setup[k]) for w, setup in pairs}
                except Exception as exc:
                    found = next((s[k] for _, s in pairs if isinstance(s[k], Exception)), exc)
                rows[name].append((cls, found))
    except Exception as exc:
        return dict.fromkeys(rows, exc)
    return {name: _attempt(parts[name], n, found) for name, found in rows.items()}


@check("bij-fl", "flip-class map is well defined and bijective", 6)
def check_bij_fl(n: int) -> tuple[str, ...]:
    return _pass_result("fl", n, "bij")


@check("cor-rightmost-cycle-min", "rightmost-path labels are the cycle minima", 6)
def check_cor_rightmost_cycle_min(n: int) -> tuple[str, ...]:
    return _pass_result("cud-b", n, "path") + _pass_result("cud-d", n, "path")


@check("cor-rightmost-ltr-min", "rightmost-path labels are the left-to-right minima", 6)
def check_cor_rightmost_ltr_min(n: int) -> tuple[str, ...]:
    return _pass_result("vs-b", n, "path") + _pass_result("vs-d", n, "path")


@check("lemma-emp-spk", "emp equals n - 2*spk + 1 on every flip class", 6)
def check_lemma_emp_spk(n: int) -> tuple[str, ...]:
    return _pass_result("fl", n, "emp")


@check("lemma-peak-leaf", "double-empty nodes of the min-split tree are the peaks", 8)
def check_lemma_peak_leaf(n: int) -> Iterator[str]:
    labels = range(1, n + 1)
    for p in permutations(labels):
        code = bij.algo3(p)
        found = {v for v in labels if not (code[2 * v - 2] or code[2 * v - 1])}
        if found - {p[0]} != set(peak_values(p)):
            yield f"n={n} perm {p}: double-empty labels {sorted(found)}"


@check("knuth-flip-euler", "unsigned flip classes are counted by Euler numbers", 8)
def check_knuth_flip_euler(n: int) -> Iterator[str]:
    euler = euler_numbers(n)[n - 1]
    classes = fam.unsigned_flip_classes(n)
    if len(classes) != euler:
        yield f"n={n}: {len(classes)} classes vs Euler number {euler}"
    fibres: dict = {}  # keyed by the non-plane min-split tree, as each node's unordered children
    for p in permutations(range(1, n + 1)):
        code = tr.split_code(p)
        fibres.setdefault(tuple(map(frozenset, zip(code[::2], code[1::2]))), []).append(p)
    if tuple(map(tuple, fibres.values())) != classes:
        yield f"n={n}: classes differ from the fibres of the non-plane tree"
    if n == 3:
        want = {
            frozenset({(1, 2, 3), (3, 2, 1), (2, 3, 1), (1, 3, 2)}),
            frozenset({(2, 1, 3), (3, 1, 2)}),
        }
        if {frozenset(c) for c in classes} != want:
            yield "n=3: class structure differs from the two known classes"


# ---------------------------------------------------------------------------
# recurrence-step checks

def _verify_step_partition(
    records: Iterable[fam.StepRecord],
    expected: dict[str, tuple[str, int, int, int]],
    label: str,
) -> Iterator[str]:
    """Check case targets and statistic shifts, then exact coverage of each
    indexed family the expected cases name, with no collisions."""
    keys = dict.fromkeys(target[:3] for target in expected.values())
    target_sets = {key: set(fam.enumerate_indexed(*key)) for key in keys}
    seen: dict[tuple[str, int, int], set] = {key: set() for key in target_sets}
    for rec in records:
        if rec.case not in expected:
            yield f"{label}: unexpected case {rec.case} for {rec.source}"
            continue
        family, t_n, t_index, shift = expected[rec.case]
        if (rec.target_family, rec.target_n, rec.target_index) != (family, t_n, t_index):
            yield (
                f"{label}: {rec.source} sent to ({rec.target_family},{rec.target_n},"
                f"{rec.target_index}), expected ({family},{t_n},{t_index})"
            )
            continue
        if rec.stat_after - rec.stat_before != shift:
            yield (
                f"{label}: {rec.source} shifts stat by {rec.stat_after - rec.stat_before},"
                f" expected {shift}"
            )
        bucket = seen[(family, t_n, t_index)]
        if rec.image in bucket:
            yield f"{label}: image {rec.image} hit twice"
        bucket.add(rec.image)
    for key, want in target_sets.items():
        got = seen[key]
        if got != want:
            missing = len(want - got)
            extra = len(got - want)
            yield (
                f"{label}: target {key} covered with {missing} missing, {extra} extra"
            )


def _check_recstep(
    n: int,
    kind: str,
    step: Callable[[int, int, str], tuple[fam.StepRecord, ...]],
    bridge: Callable[[object], fam.StepRecord],
    d_cases: tuple[str, str],
    b_cases: tuple[str, ...],
) -> Iterator[str]:
    """Check the one-step maps of a pair of indexed families at size n.
    `d_cases` names the type-D step's case that drops to size n-1, then the
    one that stays; `b_cases` names the type-B step's dropping case, then
    every case that stays at size n."""
    fb, fd = f"{kind}-b", f"{kind}-d"
    d_drop, d_stay = d_cases
    b_drop, *b_stay = b_cases
    for k in range(2, n + 1):
        expected = {d_drop: (fb, n - 1, k - 1, -1), d_stay: (fd, n, k - 1, 0)}
        yield from _verify_step_partition(step(n, k, "d"), expected, f"{fd} n={n} k={k}")
    for k in range(1, n):
        expected = {b_drop: (fd, n - 1, k, 0), **dict.fromkeys(b_stay, (fb, n, k + 1, 0))}
        yield from _verify_step_partition(step(n, k, "b"), expected, f"{fb} n={n} k={k}")
    bridge_images = {bridge(m).image for m in fam.enumerate_indexed(fb, n, n)}
    if bridge_images != set(fam.enumerate_indexed(fd, n, n)):
        yield f"{kind} bridge n={n}: images differ from the type-D family"


@check("recstep-cud", "cycle-family one-step maps partition their targets", 6)
def check_recstep_cud(n: int) -> Iterator[str]:
    return _check_recstep(
        n, "cud", fam.recurrence_step_cud, fam.psi_cud_bridge, ("i", "ii"), ("i", "ii", "iii")
    )


@check("recstep-vs", "valley-family one-step maps partition their targets", 6)
def check_recstep_vs(n: int) -> Iterator[str]:
    return _check_recstep(
        n, "vs", fam.recurrence_step_vs, fam.psi_vs_bridge, ("1", "2"), ("1", "1b", "2")
    )


@check("smax-well-defined", "smax is constant on every flip class", 6)
def check_smax_well_defined(n: int) -> tuple[str, ...]:
    return _pass_result("fl", n, "smax")


@check("spk-well-defined", "spk is constant on every flip class", 6)
def check_spk_well_defined(n: int) -> tuple[str, ...]:
    return _pass_result("fl", n, "spk")


@check(
    "report-emp-npk-perobject",
    "where the per-object emp/npk exponent identity holds",
    6,
    report_only=True,
)
def check_report_emp_npk(n: int) -> Iterator[str]:
    """Report-only: where does emp(tree image) equal n+1-2*npk per object?"""
    agree = total = 0
    for family in ("cud-b", "cud-d"):
        family_agree, family_total = _pass_result(family, n, "report")
        agree += family_agree
        total += family_total
    yield f"n={n}: per-object identity holds for {agree}/{total} members"


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
    """Run one registered check up to max_n (its default ceiling if omitted).
    A capped check has its ceiling refused above the size cap before any
    size runs, then runs once for each n = 1..max_n in turn."""
    spec = _spec(check_id)
    n_max = spec.default_max_n if max_n is None else max_n
    if n_max < 1:
        raise SizeCapExceededError("max_n must be at least 1")
    if spec.capped:
        tr.check_size(n_max)
    start = time.perf_counter()
    if spec.capped:
        details = [detail for n in range(1, n_max + 1) for detail in spec.run(n)]
    else:
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
    exception in its details, and the remaining checks still run.  The
    checks of one run share each member pass (`_pass_result`) and each
    tree verdict (`_tree_verdicts`), which the first check to read it
    computes."""
    global _shared
    _shared = {}
    try:
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
    finally:
        _shared = None
