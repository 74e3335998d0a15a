"""Command line front door: triangles, family enumeration, tree maps, and
the verification suite.  The first three print each row as it is built.

Exit codes: 0 success; 1 a failing or crashed check under `verify`, or a
reader that closed the pipe early; 2 on usage, size or file errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import chain

from . import bijections as bij
from . import families as fam
from . import trees as tr
from .harness import check_ids, verify, verify_all
from .signed_perm import SignedPerm, stat_report, window_of
from .triangles import arnold_hoffman, arnold_numbers, entringer

TREE_FAMILIES = ("trees-o", "trees-s")


def _cmd_triangle(args) -> int:
    if args.kind == "entringer":
        rows = ((i, enumerate(row, start=1)) for i, row in enumerate(entringer(args.n), start=1))
    else:
        make = arnold_numbers if args.kind == "arnold" else arnold_hoffman
        rows = ((row.n, row.entries()) for row in make(args.n))
    for n, entries in rows:
        if args.format == "table":
            print(f"n={n}: " + "  ".join(f"[{k}] {value}" for k, value in entries))
        else:
            for k, value in entries:
                cell = {"poly": value.to_json_map()} if args.kind == "poly" else {"value": value}
                print(json.dumps({"n": n, "k": k, **cell}))
    return 0


def _member_rows(family: str, n: int, index: int | None, with_stats: bool):
    """Yield one output row per member; every refusal comes on the first `next`."""
    if family in TREE_FAMILIES:
        if index is not None and not 1 <= index <= n:
            raise fam.IndexOutOfRangeError(f"index {index} outside 1..{n}")
        tr.check_size(n)
        kind = "o" if family == "trees-o" else "*"
        for t in tr.gen_trees(n):
            c = tr.classify(t)
            if c.kind == kind and index in (None, c.rightmost_label):
                yield {"tree": tr.to_json(t), "index": c.rightmost_label, "emp": c.emp}
        return
    if index is None:
        members = fam.enumerate_family(family, n)
    else:
        members = fam.enumerate_indexed(family, n, index)
    for m in members:
        if isinstance(m, fam.FlipClass):
            row = {"window": list(m.canon), "members": [list(w) for w in m.members]}
            if with_stats:
                row["stats"] = {"smax": m.smax, "spk": m.spk}
        elif isinstance(m, SignedPerm):
            row = {"window": m.to_json()}
            if with_stats:
                row["stats"] = stat_report(m)
        else:  # cycle form
            p = window_of(m)
            row = {"window": p.to_json(), "cycles": m.to_json()["cycles"]}
            if with_stats:
                row["stats"] = stat_report(p)
        yield row


def _cmd_enumerate(args) -> int:
    rows = _member_rows(args.family, args.n, args.index, args.with_stats)
    if args.format == "jsonl":
        for row in rows:
            print(json.dumps(row))
        return 0
    first = next(rows, None)
    if first is not None:
        header = list(first)
        rows = chain([first], rows)
    elif args.family in TREE_FAMILIES:
        header = ["tree", "index", "emp"]
    else:  # an empty indexed slice
        header = ["window", "stats"] if args.with_stats else ["window"]
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            " ".join(map(str, value)) if key == "window" else json.dumps(value)
            for key, value in row.items()
        )
    return 0


_BIJECTIONS = {
    "cud-b": bij.phi_cud_b,
    "cud-d": bij.phi_cud_d,
    "vs-b": bij.phi_vs_b,
    "vs-d": bij.phi_vs_d,
}


def _map_triples(bijection: str, n: int):
    """Yield (source, tree, index) per source; a flip class's index is |smax|."""
    if bijection == "flip":
        for side in ("fl-b", "fl-d"):
            for cls in fam.enumerate_family(side, n):
                yield cls, bij.phi_f(cls), abs(cls.smax)
        return
    for m in fam.enumerate_family(bijection, n):
        t = _BIJECTIONS[bijection](m)
        yield m, t, tr.classify(t).rightmost_label


def _cmd_map(args) -> int:
    for source, t, index in _map_triples(args.bijection, args.n):
        print(json.dumps({"source": source.to_json(), "target": tr.to_json(t), "index": index}))
    return 0


def _cmd_verify(args) -> int:
    if not args.all and args.check is None:
        print("verify needs --check <id> or --all", file=sys.stderr)
        return 2
    if args.all:
        results = verify_all(args.max_n, golden_dir=args.golden_dir)
    else:
        results = [verify(args.check, args.max_n, golden_dir=args.golden_dir)]
    if args.format == "jsonl":
        for r in results:
            print(json.dumps(r.to_json()))
    else:
        width = max(len(r.check_id) for r in results)
        for r in results:
            print(f"{r.check_id:<{width}}  {r.status:<11}  n<={r.n_range[1]}  {r.elapsed:.3f}s")
            for line in r.details:
                print(f"    {line}")
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arnold")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tri = sub.add_parser("triangle", help="print a triangle")
    p_tri.add_argument("--kind", choices=("arnold", "entringer", "poly"), required=True)
    p_tri.add_argument("--n", type=int, required=True)
    p_tri.add_argument("--format", choices=("table", "jsonl"), default="table")
    p_tri.set_defaults(func=_cmd_triangle)

    p_enum = sub.add_parser("enumerate", help="list the members of a family")
    p_enum.add_argument("--family", choices=fam.FAMILIES + TREE_FAMILIES, required=True)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--index", type=int, default=None)
    p_enum.add_argument("--with-stats", action="store_true")
    p_enum.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_map = sub.add_parser("map", help="emit source/tree pairs of a bijection")
    p_map.add_argument(
        "--bijection", choices=("cud-b", "cud-d", "vs-b", "vs-d", "flip"), required=True
    )
    p_map.add_argument("--n", type=int, required=True)
    p_map.add_argument("--format", choices=("jsonl",), default="jsonl")
    p_map.set_defaults(func=_cmd_map)

    p_ver = sub.add_parser("verify", help="run registered checks")
    p_ver.add_argument("--check", choices=check_ids(), default=None)
    p_ver.add_argument("--all", action="store_true")
    p_ver.add_argument("--max-n", type=int, default=None)
    p_ver.add_argument("--format", choices=("table", "jsonl"), default="table")
    p_ver.add_argument("--golden-dir", default=None)
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:  # the reader went away: discard what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OverflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
