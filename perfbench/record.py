"""Write `expected.json`, the outputs the oracles compare against.

    PYTHONHASHSEED=0 python3 perfbench/record.py

Run it on the commit whose outputs are the reference (the seed).  Counts
and polynomials for the enumerate and flip oracles come from that
commit's triangle rows under the index convention of the `thm-*` checks:
index n-k+1 holds entry k of the row, and a statistic s contributes
t^(n+1-2s).  Window digests, member totals, check statuses (from
`verify --all` at the same ceiling n) and triangle-call digests are taken
from the outputs themselves.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import arnold  # noqa: E402
import arnold.cli  # noqa: E402
import child  # noqa: E402
import oracles  # noqa: E402

N = oracles.N


def row_side(row, side: int, poly: bool) -> dict:
    out = {}
    for k in range(1, N + 1):
        value = row.value(side * k)
        if value:
            out[str(N - k + 1)] = value.to_json_map() if poly else value
    return out


def enumerate_expected(numbers, hoffman) -> dict:
    out = {}
    for family in ("vs-b", "cud-b"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            arnold.cli.main(["enumerate", "--family", family, "--n", str(N), "--with-stats"])
        members = oracles.parse_members(buf.getvalue(), family)
        out[family] = {
            "windows_sha256": oracles.windows_digest(members),
            "index_counts": row_side(numbers, 1, poly=False),
        }
        if family == "vs-b":
            out[family]["neg_polys"] = row_side(hoffman, 1, poly=True)
    return out


def flip_expected(hoffman) -> dict:
    out = {}
    for family, side in (("fl-b", 1), ("fl-d", -1)):
        classes = arnold.families.enumerate_family(family, N)
        out[family] = {
            "members": sum(len(c.members) for c in classes),
            "polys": row_side(hoffman, side, poly=True),
        }
    return out


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("run with PYTHONHASHSEED=0, as the benchmark's children are", file=sys.stderr)
        return 2
    numbers = arnold.arnold_numbers(N)[-1]
    hoffman = arnold.arnold_hoffman(N)[-1]
    expected = {
        "verify": {
            r.check_id: {"status": r.status, "details": list(r.details)}
            for r in arnold.verify_all(N)
        },
        "enumerate": enumerate_expected(numbers, hoffman),
        "flip": flip_expected(hoffman),
        "triangles": {
            f"{f}/{n}": child.canonical(f, getattr(arnold.triangles, f)(n))
            for f, n in child.TRIANGLE_PAIRS
        },
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
