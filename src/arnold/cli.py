"""Command line front door: triangles, family enumeration, tree maps, and
the verification suite.

Exit codes for `arnold verify`: 0 all pass, 1 at least one failure or
crashed check, 2 on usage or size errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

from . import bijections as bij
from . import families as fam
from . import trees as tr
from .harness import UnknownCheckError, check_ids, verify, verify_all
from .laurent import LaurentPoly
from .signed_perm import SignedPerm, stat_report, window_of
from .triangles import arnold_hoffman, arnold_numbers, entringer

TREE_FAMILIES = ("trees-o", "trees-s")


def _triangle_rows(kind: str, n: int):
    if kind == "entringer":
        for i, row in enumerate(entringer(n), start=1):
            for k, value in enumerate(row, start=1):
                yield {"n": i, "k": k, "value": value}
    elif kind == "arnold":
        for row in arnold_numbers(n):
            for k, value in row.entries():
                yield {"n": row.n, "k": k, "value": value}
    else:
        for row in arnold_hoffman(n):
            for k, value in row.entries():
                yield {"n": row.n, "k": k, "poly": value.to_json_map()}


def _cmd_triangle(args) -> int:
    rows = list(_triangle_rows(args.kind, args.n))
    if args.format == "jsonl":
        for row in rows:
            print(json.dumps(row))
        return 0
    current = None
    line: list[str] = []
    for row in rows:
        if row["n"] != current:
            if line:
                print(f"n={current}: " + "  ".join(line))
            current, line = row["n"], []
        value = row.get("value")
        shown = str(value) if value is not None else str(LaurentPoly.from_json_map(row["poly"]))
        line.append(f"[{row['k']}] {shown}")
    if line:
        print(f"n={current}: " + "  ".join(line))
    return 0


def _member_rows(family: str, n: int, index: int | None, with_stats: bool):
    if family in TREE_FAMILIES:
        if index is not None and not 1 <= index <= n:
            raise fam.IndexOutOfRangeError(f"index {index} outside 1..{n}")
        kind = "o" if family == "trees-o" else "*"
        for t in tr.gen_trees(n):
            c = tr.classify(t)
            if c.kind != kind:
                continue
            if index is not None and c.rightmost_label != index:
                continue
            yield {"tree": tr.to_json(t), "index": c.rightmost_label, "emp": c.emp}
        return
    members = (
        fam.enumerate_family(family, n)
        if index is None
        else fam.enumerate_indexed(family, n, index)
    )
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
    rows = list(_member_rows(args.family, args.n, args.index, args.with_stats))
    if args.format == "jsonl":
        for row in rows:
            print(json.dumps(row))
        return 0
    writer = csv.writer(sys.stdout)
    if args.family in TREE_FAMILIES:
        writer.writerow(["tree", "index", "emp"])
        for row in rows:
            writer.writerow([json.dumps(row["tree"]), row["index"], row["emp"]])
        return 0
    header = ["window"]
    for extra in ("cycles", "members"):
        if rows and extra in rows[0]:
            header.append(extra)
    if args.with_stats:
        header.append("stats")
    writer.writerow(header)
    for row in rows:
        out = [" ".join(str(v) for v in row["window"])]
        for extra in ("cycles", "members"):
            if extra in header:
                out.append(json.dumps(row.get(extra)))
        if args.with_stats:
            out.append(json.dumps(row.get("stats")))
        writer.writerow(out)
    return 0


_BIJECTIONS = {
    "cud-b": ("cud-b", bij.phi_cud_b),
    "cud-d": ("cud-d", bij.phi_cud_d),
    "vs-b": ("vs-b", bij.phi_vs_b),
    "vs-d": ("vs-d", bij.phi_vs_d),
}


def _cmd_map(args) -> int:
    if args.bijection == "flip":
        for n_side in ("fl-b", "fl-d"):
            for cls in fam.enumerate_family(n_side, args.n):
                t = bij.phi_f(cls)
                print(
                    json.dumps(
                        {
                            "source": cls.to_json(),
                            "target": tr.to_json(t),
                            "index": abs(cls.smax),
                        }
                    )
                )
        return 0
    family, mapping = _BIJECTIONS[args.bijection]
    for m in fam.enumerate_family(family, args.n):
        t = mapping(m)
        source = m.to_json() if hasattr(m, "to_json") else list(m)
        print(
            json.dumps(
                {
                    "source": source,
                    "target": tr.to_json(t),
                    "index": tr.classify(t).rightmost_label,
                }
            )
        )
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
        return args.func(args)
    except UnknownCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (fam.SizeCapExceededError, fam.IndexOutOfRangeError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
