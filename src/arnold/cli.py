"""Command line front door: triangles, family enumeration, tree maps, and
the verification suite.  `triangle` builds every row up to --n before
printing any, so a size past the first overflow prints nothing and exits
2.  `enumerate` prints a non-tree family from its cached tuple of members,
and a tree family as each tree is generated; a cycle-form member's window
comes from `window_of`'s write loop alone, as every generated member
passes its checks.  `map` prints each member and code of
`bijections.images` as it is mapped, with the code's rightmost label as
the index, which for a flip class is |smax|.

Exit codes: 0 success; 1 a failing or crashed check under `verify`, or a
reader that closed the pipe early; 2 on usage, size or file errors.

One grammar, `_grammar`, has two readers.  `_parse_plain` takes a command
then full option names, each once, as `--opt value` or a bare switch, all
valid; everything else (help, errors, abbreviations, `--opt=value`, values
starting with `-`) goes to argparse via `build_parser`, help and error
text unchanged.  A plain run never imports argparse, gettext or locale.
"""
from __future__ import annotations

import csv
import json
import os
import sys
from types import SimpleNamespace

from . import bijections as bij
from . import families as fam
from . import trees as tr
from .harness import check_ids, verify, verify_all
from .signed_perm import (
    SignedPerm,
    _window_entries,
    stat_report,
    window_of,  # not called here: perfbench/layers.py times it as cli.window_of
)
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
    """Yield the CSV header of the family, then one output row per member;
    every refusal comes on the first `next`."""
    if family in TREE_FAMILIES:
        if index is not None and not 1 <= index <= n:
            raise fam.IndexOutOfRangeError(f"index {index} outside 1..{n}")
        tr.check_size(n)
        yield ["tree", "index", "emp"]
        kind = "o" if family == "trees-o" else "*"
        for code in tr.gen_trees(n):
            c = tr.classify(code)
            if c.kind == kind and index in (None, c.rightmost_label):
                yield {"tree": tr.to_json(code), "index": c.rightmost_label, "emp": c.emp}
        return
    if index is None:
        members = fam.enumerate_family(family, n)
    else:
        members = fam.enumerate_indexed(family, n, index)
    extra = {"cud": ["cycles"], "fl": ["members"]}.get(family.split("-")[0], [])
    yield ["window", *extra] + ["stats"] * with_stats
    for m in members:
        if isinstance(m, fam.FlipClass):
            row = {"window": list(m.canon), "members": [list(w) for w in m.members]}
            if with_stats:
                row["stats"] = {"smax": m.smax, "spk": m.spk}
        elif isinstance(m, SignedPerm):
            row = {"window": m.to_json()}
            if with_stats:
                row["stats"] = stat_report(m)
        else:  # a generated cycle form: its window needs no check
            window = _window_entries(m.cycles, n)
            row = {"window": window, "cycles": m.to_json()["cycles"]}
            if with_stats:
                row["stats"] = stat_report(SignedPerm(tuple(window)), m)
        yield row


def _cmd_enumerate(args) -> int:
    rows = _member_rows(args.family, args.n, args.index, args.with_stats)
    header = next(rows)
    if args.format == "jsonl":
        write = sys.stdout.write
        for row in rows:
            write(json.dumps(row) + "\n")
        return 0
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            " ".join(map(str, value)) if key == "window" else json.dumps(value)
            for key, value in row.items()
        )
    return 0


def _cmd_map(args) -> int:
    sides = ("fl-b", "fl-d") if args.bijection == "flip" else (args.bijection,)
    for family in sides:
        for source, code in bij.images(family, args.n):
            index = tr.classify(code).rightmost_label
            print(json.dumps({"source": source.to_json(), "target": tr.to_json(code), "index": index}))
    return 0


def _cmd_verify(args) -> int:
    if args.all == (args.check is not None):
        both = ", not both" if args.all else ""
        print(f"verify needs --check <id> or --all{both}", file=sys.stderr)
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


def _grammar():
    """(command, help, handler, ((flag, `add_argument` keywords), ...)) per
    command; built per call, so `--check` reads the registry when parsing."""
    n = ("--n", {"type": int, "required": True})
    return (
        ("triangle", "print a triangle", _cmd_triangle, (
            ("--kind", {"choices": ("arnold", "entringer", "poly"), "required": True}),
            n,
            ("--format", {"choices": ("table", "jsonl"), "default": "table"}),
        )),
        ("enumerate", "list the members of a family", _cmd_enumerate, (
            ("--family", {"choices": fam.FAMILIES + TREE_FAMILIES, "required": True}),
            n,
            ("--index", {"type": int, "default": None}),
            ("--with-stats", {"action": "store_true", "default": False}),
            ("--format", {"choices": ("jsonl", "csv"), "default": "jsonl"}),
        )),
        ("map", "emit source/tree pairs of a bijection", _cmd_map, (
            ("--bijection", {"choices": ("cud-b", "cud-d", "vs-b", "vs-d", "flip"), "required": True}),
            n,
            ("--format", {"choices": ("jsonl",), "default": "jsonl"}),
        )),
        ("verify", "run registered checks", _cmd_verify, (
            ("--check", {"choices": check_ids(), "default": None}),
            ("--all", {"action": "store_true", "default": False}),
            ("--max-n", {"type": int, "default": None}),
            ("--format", {"choices": ("table", "jsonl"), "default": "table"}),
            ("--golden-dir", {"default": None}),
        )),
    )


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(prog="arnold")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text, func, options in _grammar():
        p = sub.add_parser(command, help=text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse_plain(argv):
    """What `build_parser().parse_args(argv)` returns, or None where the
    command line is not of the plain form the module docstring gives."""
    entry = next((e for e in _grammar() if argv[:1] == [e[0]]), None)
    if entry is None:
        return None
    command, _text, func, options = entry
    spec, given, words = dict(options), {}, iter(argv[1:])
    for flag in words:
        kwargs = spec.get(flag)
        if kwargs is None or flag in given:
            return None
        if "action" in kwargs:  # every action is store_true
            given[flag] = True
            continue
        value = next(words, "-")
        try:
            given[flag] = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value.startswith("-") or given[flag] not in kwargs.get("choices", (given[flag],)):
            return None
    if any(kwargs.get("required") and flag not in given for flag, kwargs in options):
        return None
    values = {flag[2:].replace("-", "_"): given.get(flag, kwargs.get("default"))
              for flag, kwargs in options}
    return SimpleNamespace(command=command, func=func, **values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv) or build_parser().parse_args(argv)
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
