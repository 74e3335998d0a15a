"""Output oracles.  Each returns one message per wrong output and never
looks at timings; the parent runs them after the child has exited.

Expected values come from `expected.json`, recorded at the seed by
`record.py`.  Counts and polynomials there are derived from the triangle
rows, not from the outputs they check.  `self_test` feeds every oracle
one corrupted copy of a real output and reports an oracle that lets it
through.
"""
from __future__ import annotations

import copy
import hashlib
import json
from collections import Counter, defaultdict

N = 4  # n of the enumerate and flip workloads, and the verify ceiling
STATUSES = ("pass", "fail", "report-only")


def verify_failures(rows: list[dict], expected: dict) -> tuple[int, list[str]]:
    """(checks attempted, failures) for one `verify --all --format jsonl` run.

    A check fails when it is missing (the run raised), when its status is
    worse than at the seed, or when an expected failure changes details.
    Turning a seed failure into a pass is not a failure."""
    got = {row["check"]: row for row in rows}
    ids = list(expected) + [cid for cid in got if cid not in expected]
    failures = []
    for cid in ids:
        row, want = got.get(cid), expected.get(cid)
        if row is None:
            failures.append(f"{cid}: no result")
        elif row["status"] not in STATUSES:
            failures.append(f"{cid}: unknown status {row['status']!r}")
        elif row["status"] == "fail":
            if want is None or want["status"] != "fail":
                failures.append(f"{cid}: fails")
            elif row["details"] != want["details"]:
                failures.append(f"{cid}: expected failure with changed details")
    return len(ids), failures


def parse_members(text: str, family: str) -> list[tuple[tuple[int, ...], int, int]]:
    """(window, index, neg) per line of `enumerate --with-stats` JSONL.  The
    index is the last-cycle leader for cycle families, else the first entry."""
    out = []
    for line in text.splitlines():
        row = json.loads(line)
        window = tuple(row["window"])
        index = row["cycles"][-1]["entries"][0] if family.startswith("cud") else window[0]
        out.append((window, index, row["stats"]["neg"]))
    return out


def windows_digest(members) -> str:
    h = hashlib.sha256()
    for window, _index, _neg in members:
        h.update((" ".join(map(str, window)) + "\n").encode())
    return h.hexdigest()


def enumerate_failures(members, family: str, expected: dict) -> list[str]:
    want = expected[family]
    failures = []
    if any(a[0] >= b[0] for a, b in zip(members, members[1:])):
        failures.append(f"{family}: window column not strictly increasing")
    if windows_digest(members) != want["windows_sha256"]:
        failures.append(f"{family}: window column differs from the seed")
    counts = Counter(str(index) for _w, index, _neg in members)
    if counts != Counter(want["index_counts"]):
        failures.append(f"{family}: per-index counts {dict(counts)} differ from the triangle row")
    if "neg_polys" in want:
        polys: dict[str, Counter] = defaultdict(Counter)
        for _w, index, neg in members:
            polys[str(index)][str(N + 1 - 2 * neg)] += 1
        if {k: dict(v) for k, v in polys.items()} != want["neg_polys"]:
            failures.append(f"{family}: neg distribution differs from the polynomial row")
    return failures


def flip_failures(summary: dict, family: str, expected: dict) -> list[str]:
    want = expected[family]
    got = summary[family]
    sign = 1 if family == "fl-b" else -1
    failures = []
    polys: dict[str, Counter] = defaultdict(Counter)
    for key, count in got["dist"].items():
        s, index, spk = (int(v) for v in key.split(","))
        if s != sign:
            failures.append(f"{family}: a class has smax of the wrong sign")
        polys[str(index)][str(N + 1 - 2 * spk)] += count
    if {k: dict(v) for k, v in polys.items()} != want["polys"]:
        failures.append(f"{family}: (|smax|, spk) distribution differs from the polynomial row")
    classes = sum(sum(p.values()) for p in want["polys"].values())
    if got["classes"] != classes:
        failures.append(f"{family}: {got['classes']} classes, expected {classes}")
    if got["members"] != want["members"]:
        failures.append(f"{family}: {got['members']} member windows, expected {want['members']}")
    if not got["canon_sorted"]:
        failures.append(f"{family}: classes not ordered by canonical window")
    return failures


def triangle_failures(digests: dict, expected: dict) -> tuple[int, list[str]]:
    """(calls attempted, one failure per call whose result differs from the seed)."""
    attempted = 0
    failures = []
    for key, seen in digests.items():
        for digest, count in seen.items():
            attempted += count
            if digest != expected.get(key):
                failures += [f"{key}: result unlike the seed's"] * count
    return attempted, failures


def self_test(kind: str, output, expected: dict) -> bool:
    """True when the oracle for `kind` counts one corrupted copy of a correct
    real output as failed."""
    bad = copy.deepcopy(output)
    if kind == "verify":
        row = next(r for r in bad if r["status"] == "pass")
        row["status"] = "fail"
        return bool(verify_failures(bad, expected["verify"])[1])
    if kind == "enumerate":
        members, family = bad
        return bool(enumerate_failures(members[:-1], family, expected["enumerate"]))
    if kind == "flip":
        dist = bad["fl-b"]["dist"]
        key = next(iter(dist))
        dist[key] += 1
        return bool(flip_failures(bad, "fl-b", expected["flip"]))
    if kind == "triangles":
        key = next(iter(bad))
        bad[key] = {"0" * 16: 1}
        return len(triangle_failures(bad, expected["triangles"])[1]) == 1
    raise ValueError(kind)
