import csv
import io
import json
import os
import shlex
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

import tree_reference as ref
from arnold import cli, families
from arnold.cli import _grammar, _parse_plain, build_parser, main
from arnold.signed_perm import SignedPerm, cycle_form, stat_smax, stat_spk, window_of
from test_signed_perm import stats_one_by_one

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SRC = ROOT / "src/arnold/golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines() if line.strip()]


TABLES = {
    "arnold": [
        "n=1: [-1] 1  [1] 1",
        "n=2: [-2] 0  [-1] 1  [1] 1  [2] 2",
        "n=3: [-3] 0  [-2] 2  [-1] 3  [1] 3  [2] 4  [3] 4",
    ],
    "entringer": [
        "n=1: [1] 1",
        "n=2: [1] 0  [2] 1",
        "n=3: [1] 0  [2] 1  [3] 1",
    ],
    "poly": [
        "n=1: [-1] 1  [1] t^2",
        "n=2: [-2] 0  [-1] t  [1] t^3  [2] t + t^3",
        "n=3: [-3] 0  [-2] 1 + t^2  [-1] 1 + 2t^2  [1] t^2 + 2t^4  [2] 2t^2 + 2t^4  [3] 2t^2 + 2t^4",
    ],
}


class TestTriangle:
    def test_arnold_jsonl(self, capsys):
        code, out = run(capsys, "triangle", "--kind", "arnold", "--n", "3", "--format", "jsonl")
        assert code == 0
        rows = jsonl(out)
        assert {"n": 3, "k": -2, "value": 2} in rows
        assert {"n": 3, "k": 3, "value": 4} in rows

    def test_poly_jsonl(self, capsys):
        code, out = run(capsys, "triangle", "--kind", "poly", "--n", "3", "--format", "jsonl")
        assert code == 0
        rows = jsonl(out)
        assert {"n": 3, "k": -2, "poly": {"0": 1, "2": 1}} in rows

    def test_entringer_table(self, capsys):
        code, out = run(capsys, "triangle", "--kind", "entringer", "--n", "4")
        assert code == 0
        assert "n=4" in out
        code, out = run(capsys, "triangle", "--kind", "entringer", "--n", "3")
        assert out.splitlines() == TABLES["entringer"]

    @pytest.mark.parametrize("kind", ["arnold", "poly"])
    def test_double_triangle_table(self, capsys, kind):
        code, out = run(capsys, "triangle", "--kind", kind, "--n", "3")
        assert code == 0
        assert out.splitlines() == TABLES[kind]

    def test_overflow_exit_code(self, capsys):
        code = main(["triangle", "--kind", "entringer", "--n", "40"])
        assert code == 2


class TestEnumerate:
    def test_vs_d_three(self, capsys):
        code, out = run(capsys, "enumerate", "--family", "vs-d", "--n", "3")
        assert code == 0
        got = {tuple(r["window"]) for r in jsonl(out)}
        assert got == {(-2, 1, 3), (-2, 1, -3), (-3, 1, 2), (-3, 1, -2), (-3, 2, 1)}

    def test_cud_b_with_stats(self, capsys):
        code, out = run(
            capsys, "enumerate", "--family", "cud-b", "--n", "2", "--with-stats"
        )
        assert code == 0
        rows = jsonl(out)
        assert len(rows) == 3
        assert all("cycles" in r and "stats" in r for r in rows)
        assert {"entries": [1, -2], "bracket": False} in [c for r in rows for c in r["cycles"]]

    def test_indexed_enumeration(self, capsys):
        code, out = run(capsys, "enumerate", "--family", "vs-b", "--n", "2", "--index", "1")
        assert code == 0
        assert {tuple(r["window"]) for r in jsonl(out)} == {(1, 2), (1, -2)}

    def test_flip_family(self, capsys):
        code, out = run(capsys, "enumerate", "--family", "fl-d", "--n", "2", "--with-stats")
        assert code == 0
        rows = jsonl(out)
        assert len(rows) == 1
        assert rows[0]["stats"]["smax"] == -2

    def test_trees_family(self, capsys):
        code, out = run(capsys, "enumerate", "--family", "trees-o", "--n", "2")
        assert code == 0
        rows = jsonl(out)
        assert len(rows) == 3
        assert all(r["tree"]["label"] == 1 for r in rows)

    def test_csv_format(self, capsys):
        code, out = run(
            capsys, "enumerate", "--family", "vs-b", "--n", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("window")
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "argv, header",
        [
            (["--family", "cud-b", "--n", "3"], "window,cycles"),
            (["--family", "fl-b", "--n", "3", "--with-stats"], "window,members,stats"),
            (["--family", "trees-s", "--n", "3"], "tree,index,emp"),
            # empty slices: the columns come from the family, not from a row
            (["--family", "vs-d", "--n", "3", "--index", "1", "--with-stats"], "window,stats"),
            (["--family", "cud-d", "--n", "3", "--index", "1", "--with-stats"], "window,cycles,stats"),
            (["--family", "fl-d", "--n", "2", "--index", "1"], "window,members"),
        ],
    )
    def test_csv_header(self, capsys, argv, header):
        code, out = run(capsys, "enumerate", *argv, "--format", "csv")
        assert code == 0
        assert out.startswith(header + "\r\n")

    def test_reader_closing_the_pipe_ends_quietly(self):
        # trees-o at n=6 prints about 630 KB, far more than a pipe buffers
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        argv = [sys.executable, "-m", "arnold.cli", "enumerate", "--family", "trees-o", "--n", "6"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert json.loads(proc.stdout.readline())["tree"]["label"] == 1
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_size_cap_exit_code(self, capsys):
        assert main(["enumerate", "--family", "vs-b", "--n", "12"]) == 2

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--family", "vs-b", "--n", "3"],
        ["enumerate", "--family", "trees-o", "--n", "3"],
        ["verify", "--all", "--max-n", "3"],
    ])
    def test_malformed_size_cap_is_refused_once(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("ARNOLD_MAX_N", "abc")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ARNOLD_MAX_N='abc' is not a positive integer\n"

    @pytest.mark.parametrize("family", ["trees-o", "trees-s", "vs-b"])
    @pytest.mark.parametrize("index", [0, 4])
    def test_index_out_of_range_exit_code(self, capsys, family, index):
        assert main(["enumerate", "--family", family, "--n", "3", "--index", str(index)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: index {index} outside 1..3\n"


class TestMap:
    def test_cud_b_pairs(self, capsys):
        code, out = run(capsys, "map", "--bijection", "cud-b", "--n", "2")
        assert code == 0
        rows = jsonl(out)
        assert len(rows) == 3
        assert all({"source", "target", "index"} <= set(r) for r in rows)

    @pytest.mark.parametrize("bijection", ["cud-b", "cud-d", "vs-b", "vs-d"])
    def test_kernel_rows_are_the_checked_map(self, capsys, bijection):
        from arnold import bijections, families, trees

        phi = getattr(bijections, "phi_" + bijection.replace("-", "_"))
        for n in range(1, 5):
            code, out = run(capsys, "map", "--bijection", bijection, "--n", str(n))
            assert code == 0
            want = []
            for m in families.enumerate_family(bijection, n):
                t = phi(m)
                want.append(
                    {"source": m.to_json(), "target": trees.to_json(t), "index": trees.classify(t).rightmost_label}
                )
            assert jsonl(out) == want

    @pytest.mark.parametrize(
        "bijection, sides",
        [("cud-b", ["cud-b"]), ("cud-d", ["cud-d"]), ("vs-b", ["vs-b"]), ("vs-d", ["vs-d"]),
         ("flip", ["fl-b", "fl-d"])],
    )
    def test_rows_come_from_images(self, capsys, monkeypatch, bijection, sides):
        from arnold import bijections

        real, log = bijections.images, []
        monkeypatch.setattr(bijections, "images", lambda family, n: log.append((family, n)) or real(family, n))
        code, out = run(capsys, "map", "--bijection", bijection, "--n", "3")
        assert code == 0
        assert log == [(side, 3) for side in sides]
        assert len(jsonl(out)) == sum(len(families.enumerate_family(side, 3)) for side in sides)

    def test_flip_rows_run_the_flip_map_as_the_module_holds_it(self, capsys, monkeypatch):
        from arnold import bijections

        real, seen = bijections.phi_f, []
        monkeypatch.setattr(bijections, "phi_f", lambda cls: seen.append(cls) or real(cls))
        code, out = run(capsys, "map", "--bijection", "flip", "--n", "3")
        assert code == 0
        assert seen == [*families.enumerate_family("fl-b", 3), *families.enumerate_family("fl-d", 3)]
        assert [r["source"] for r in jsonl(out)] == [cls.to_json() for cls in seen]

    def test_flip_pairs(self, capsys):
        code, out = run(capsys, "map", "--bijection", "flip", "--n", "2")
        assert code == 0
        rows = jsonl(out)
        assert len(rows) == 4  # three positive-side classes and one negative
        assert [r["index"] for r in rows] == [abs(r["source"]["smax"]) for r in rows]
        assert any(r["source"]["smax"] < 0 for r in rows)


class TestTreeOutputMatchesReference:
    """`enumerate --family trees-*` and `map` print, byte for byte, the rows
    built from the recursive reference trees of `tree_reference`."""

    @staticmethod
    def tree_rows(family, n, index):
        kind = "o" if family == "trees-o" else "*"
        for t in ref.gen_trees(n):
            c = ref.classify(t)
            if c.kind == kind and index in (None, c.rightmost_label):
                yield {"tree": ref.to_json(t), "index": c.rightmost_label, "emp": c.emp}

    @pytest.mark.parametrize("family", ["trees-o", "trees-s"])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_tree_families(self, capsys, family, n):
        for index in (None, *range(1, n + 1)):
            argv = ["enumerate", "--family", family, "--n", str(n)]
            argv += [] if index is None else ["--index", str(index)]
            rows = list(self.tree_rows(family, n, index))
            assert run(capsys, *argv) == (0, "".join(json.dumps(r) + "\n" for r in rows))
            table = io.StringIO()
            writer = csv.writer(table)
            writer.writerow(["tree", "index", "emp"])
            writer.writerows([json.dumps(value) for value in r.values()] for r in rows)
            assert run(capsys, *argv, "--format", "csv", "--with-stats") == (0, table.getvalue())

    @pytest.mark.parametrize("bijection", ["cud-b", "cud-d", "vs-b", "vs-d", "flip"])
    def test_map(self, capsys, bijection):
        for n in range(1, 5):
            if bijection == "flip":
                sources = [c for side in ("fl-b", "fl-d") for c in families.enumerate_family(side, n)]
                trees = [ref.tau_flip(SignedPerm(c.canon)) for c in sources]
            else:
                sources = families.enumerate_family(bijection, n)
                tree_map = ref.phi_cud if bijection.startswith("cud") else ref.phi_vs
                trees = [tree_map(m) for m in sources]
            want = "".join(
                json.dumps({
                    "source": m.to_json(),
                    "target": ref.to_json(t),
                    "index": ref.classify(t).rightmost_label,
                }) + "\n"
                for m, t in zip(sources, trees)
            )
            assert run(capsys, "map", "--bijection", bijection, "--n", str(n)) == (0, want)


class TestStatsRowsMatchTheStatistics:
    """`enumerate --with-stats` prints, byte for byte, the rows built from
    `enumerate_family` and the statistics one function at a time."""

    @staticmethod
    def rows(family, n):
        for m in families.enumerate_family(family, n):
            if isinstance(m, families.FlipClass):
                stats = {"smax": stat_smax(m.canon), "spk": stat_spk(SignedPerm(m.canon))}
                yield {"window": list(m.canon), "members": [list(w) for w in m.members], "stats": stats}
            elif isinstance(m, SignedPerm):
                yield {"window": list(m.window), "stats": stats_one_by_one(m, cycle_form(m))}
            else:
                p = window_of(m)
                yield {"window": list(p.window), "cycles": m.to_json()["cycles"],
                       "stats": stats_one_by_one(p, m)}

    @pytest.mark.parametrize("family", [f for f in families.FAMILIES if f not in cli.TREE_FAMILIES])
    def test_member_families(self, capsys, family):
        for n in range(1, 6):
            argv = ["enumerate", "--family", family, "--n", str(n), "--with-stats"]
            rows = list(self.rows(family, n))
            assert run(capsys, *argv) == (0, "".join(json.dumps(r) + "\n" for r in rows))
            table = io.StringIO()
            writer = csv.writer(table)
            writer.writerow(rows[0])
            writer.writerows(
                [" ".join(map(str, r["window"])), *map(json.dumps, list(r.values())[1:])] for r in rows
            )
            assert run(capsys, *argv, "--format", "csv") == (0, table.getvalue())


class TestVerify:
    def test_single_check(self, capsys):
        code, out = run(capsys, "verify", "--check", "knuth-flip-euler", "--max-n", "4")
        assert code == 0
        assert "knuth-flip-euler" in out

    def test_failing_check_exit_code(self, capsys, tmp_path):
        data = json.loads((GOLDEN_SRC / "table1.json").read_text())
        data["rows"][4]["pos"][0] = 58
        (tmp_path / "table1.json").write_text(json.dumps(data))
        code, out = run(
            capsys, "verify", "--check", "table-arnold", "--golden-dir", str(tmp_path)
        )
        assert code == 1
        assert "fail" in out

    def test_all_at_one(self, capsys):
        code, out = run(capsys, "verify", "--all", "--max-n", "1")
        assert code == 0

    def test_jsonl_format(self, capsys):
        code, out = run(
            capsys, "verify", "--check", "table-arnold", "--format", "jsonl"
        )
        assert code == 0
        (row,) = jsonl(out)
        assert row["check"] == "table-arnold"
        assert row["status"] == "pass"

    def test_table_range_beyond_stored_rows_exit_code(self, capsys):
        assert main(["verify", "--check", "table-arnold", "--max-n", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: table1.json stores 5 rows, fewer than n_max=10\n"

    @pytest.mark.parametrize("check_id", ["table-arnold", "row-sums-springer"])
    @pytest.mark.parametrize(
        "key, cut, message",
        [
            ("springer_d", 3, "table1.json stores 3 springer_d, fewer than n_max=5"),
            ("springer_b", 4, "table1.json stores 4 springer_b, fewer than n_max=5"),
            ("springer_d", None, "table1.json has no list 'springer_d'"),
        ],
    )
    def test_short_or_missing_springer_list_is_refused(self, capsys, tmp_path, check_id, key, cut, message):
        data = json.loads((GOLDEN_SRC / "table1.json").read_text())
        if cut is None:
            del data[key]
        else:
            del data[key][cut:]
        (tmp_path / "table1.json").write_text(json.dumps(data))
        assert main(["verify", "--check", check_id, "--golden-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "check_id, table, side",
        [("table-arnold", "table1.json", "neg"), ("table-polys", "table2.json", "pos")],
    )
    def test_row_without_a_side_list_is_refused(self, capsys, tmp_path, check_id, table, side):
        data = json.loads((GOLDEN_SRC / table).read_text())
        data["rows"][2][side] = None
        (tmp_path / table).write_text(json.dumps(data))
        assert main(["verify", "--check", check_id, "--golden-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {table} row 3 has no list 'neg' or no list 'pos'\n"

    def test_non_integer_stored_coefficient_is_refused(self, capsys, tmp_path):
        data = json.loads((GOLDEN_SRC / "table2.json").read_text())
        assert data["rows"][1]["pos"][0] == {"3": 1}
        data["rows"][1]["pos"][0] = {"3": 1.5}  # was truncated to 1, and the check passed
        (tmp_path / "table2.json").write_text(json.dumps(data))
        assert main(["verify", "--check", "table-polys", "--golden-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: table2.json row 2: term 3: 1.5 needs an int exponent and an int coefficient\n"

    @pytest.mark.parametrize("check_id", ["table-arnold", "row-sums-springer"])
    @pytest.mark.parametrize(
        "key, n, value",
        [("neg", 1, True), ("pos", 2, 1.0), ("springer_b", 1, 1.0), ("springer_d", 2, True)],
    )
    def test_non_integer_stored_number_is_refused(self, capsys, tmp_path, check_id, key, n, value):
        data = json.loads((GOLDEN_SRC / "table1.json").read_text())
        stored = data["rows"][n - 1][key] if key in ("neg", "pos") else data[key][n - 1 : n]
        assert stored[0] == value  # equal to what it replaces, so the comparisons alone pass
        if key in ("neg", "pos"):
            data["rows"][n - 1][key] = [value] + stored[1:]
        else:
            data[key][n - 1] = value
        (tmp_path / "table1.json").write_text(json.dumps(data))
        assert main(["verify", "--check", check_id, "--golden-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: table1.json row {n}: {key} holds {value!r}, not an int\n"

    @pytest.mark.parametrize(
        "row, entry, message",
        [
            (3, [3, 1], "[3, 1] is not an exponent map"),  # was an AttributeError traceback
            (3, {"1_0": 3}, "exponent key '1_0' is not written as an int"),  # was read as 3t^10
            (3, {" 2": 1}, "exponent key ' 2' is not written as an int"),  # was read as t^2
            (2, {"3": 7, "03": 1}, "exponent key '03' is not written as an int"),  # passed as t^3
        ],
    )
    def test_stored_polynomial_not_written_by_to_json_map_is_refused(
        self, capsys, tmp_path, row, entry, message
    ):
        data = json.loads((GOLDEN_SRC / "table2.json").read_text())
        data["rows"][row - 1]["pos"][0] = entry
        (tmp_path / "table2.json").write_text(json.dumps(data))
        assert main(["verify", "--check", "table-polys", "--golden-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: table2.json row {row}: {message}\n"

    def test_missing_golden_dir_exit_code(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        assert main(["verify", "--check", "table-arnold", "--golden-dir", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")

    def test_requires_target(self, capsys):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize(
        "argv, plain",
        [(["--check", "thm-vs", "--all"], True), (["--check=thm-vs", "--all"], False)],
        ids=["plain", "argparse"],
    )
    def test_check_and_all_together_are_refused(self, capsys, argv, plain):
        assert (_parse_plain(["verify", *argv]) is not None) == plain
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verify needs --check <id> or --all, not both\n"

    def test_bad_max_n(self, capsys):
        assert main(["verify", "--all", "--max-n", "0"]) == 2


# ---------------------------------------------------------------------------
# The two readers of the grammar: the plain parser must build exactly what
# argparse builds, or decline.

BENCHMARK_ARGVS = [
    ["verify", "--all", "--max-n", "4", "--format", "jsonl"],
    ["enumerate", "--family", "vs-b", "--n", "4", "--with-stats"],
    ["enumerate", "--family", "cud-b", "--n", "4", "--with-stats"],
    ["verify", "--all"],
]


def readme_argvs():
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line.split("#")[0])[1:] for line in lines if line.startswith("arnold ")]


def sample_values(kwargs):
    if "choices" in kwargs:
        return list(kwargs["choices"])
    if kwargs.get("type") is int:
        return ["0", "4", "12"]
    return ["golden"]


def corpus():
    """Every command with every subset of its options in both orders, every
    choice and sample integer of each option, and malformed command lines."""
    argvs = []
    for command, _text, _func, options in _grammar():
        flags = [(flag, [] if "action" in kw else [sample_values(kw)[0]]) for flag, kw in options]
        for mask in range(2 ** len(flags)):
            chosen = [[flag, *value] for i, (flag, value) in enumerate(flags) if mask >> i & 1]
            argvs.append([command, *chain.from_iterable(chosen)])
            argvs.append([command, *chain.from_iterable(reversed(chosen))])
        required = [[flag, sample_values(kw)[0]] for flag, kw in options if kw.get("required")]
        for flag, kw in options:
            if "action" in kw:
                continue
            base = [word for pair in required if pair[0] != flag for word in pair]
            argvs += [[command, *base, flag, value] for value in sample_values(kw)]
    enum = ["enumerate", "--family", "vs-b", "--n", "4"]
    argvs += [
        ["enumerate", "--family", "vs-b", "--n=4"],
        ["enumerate", "--fam", "vs-b", "--n", "4"],
        enum + ["--n", "3"],
        enum + ["--with-stats", "--with-stats"],
        ["enumerate", "--family", "vs-b"],
        ["enumerate", "--family", "vs-x", "--n", "4"],
        ["enumerate", "--family", "vs-b", "--n", "four"],
        ["enumerate", "--family", "vs-b", "--n", ""],
        enum + ["--index", "-1"],
        enum + ["--index"],
        enum + ["-h"],
        enum + ["--help"],
        ["--help"],
        ["-h"],
        enum + ["stray"],
        ["stray"],
        ["enumerat", "--family", "vs-b", "--n", "4"],
        [],
        ["verify", "--check", "thm-vs", "--all"],
        ["verify", "--check", "no-such-check"],
        ["verify", "--max-n", "--all"],
        ["verify", "--golden-dir", "-"],
        ["verify", "--all", "--", "--max-n", "4"],
        ["triangle", "--kind", "arnold", "--n", " 4 "],
        ["triangle", "--kind", "arnold", "--n", "+4"],
    ]
    return argvs


def argparse_vars(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except SystemExit:
        return None


class TestPlainParser:
    def test_plain_parser_agrees_with_argparse(self, capsys):
        parser = build_parser()
        argvs = corpus() + BENCHMARK_ARGVS + readme_argvs()
        plain = 0
        for argv in argvs:
            args = _parse_plain(argv)
            if args is not None:
                plain += 1
                assert vars(args) == argparse_vars(parser, argv), argv
        assert plain > len(argvs) // 2

    @pytest.mark.parametrize("argv", BENCHMARK_ARGVS + readme_argvs(), ids=" ".join)
    def test_canonical_command_lines_take_the_plain_path(self, argv):
        assert _parse_plain(argv) is not None

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--family", "vs-b", "--n=4"],
            ["enumerate", "--fam", "vs-b", "--n", "4"],
            ["enumerate", "--family", "vs-b", "--n", "4", "--n", "4"],
            ["enumerate", "--family", "vs-b", "--n", "4", "--index", "-1"],
            ["enumerate", "--help"],
            [],
        ],
        ids=" ".join,
    )
    def test_other_command_lines_go_to_argparse(self, argv):
        assert _parse_plain(argv) is None

    def test_console_script_entry_takes_the_plain_path(self, monkeypatch, capsys):
        def no_argparse():
            raise AssertionError("argparse built for a canonical command line")

        monkeypatch.setattr(cli, "build_parser", no_argparse)
        monkeypatch.setattr(sys, "argv", ["arnold", "enumerate", "--family", "vs-b", "--n", "2"])
        assert main() == 0
        assert len(jsonl(capsys.readouterr().out)) == 3

    def test_plain_run_imports_no_argparse(self):
        code = (
            "import sys\n"
            "from arnold import cli\n"
            "assert cli.main(['enumerate', '--family', 'vs-b', '--n', '2']) == 0\n"
            "unwanted = {'argparse', 'gettext', 'locale', 'dataclasses', 'inspect'}\n"
            "print(sorted(unwanted & set(sys.modules)), file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n"


class TestArgparsePaths:
    @pytest.mark.parametrize("argv", [["--help"], ["enumerate", "--help"]], ids=" ".join)
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: arnold")

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--family", "vs-x", "--n", "2"],
            ["enumerate", "--family", "vs-b"],
            ["enumerate", "--family", "vs-b", "--n", "2", "--no-such-option"],
        ],
        ids=" ".join,
    )
    def test_usage_errors_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: arnold ")
        assert " error: " in captured.err

    def test_equals_form_and_abbreviation_still_parse(self, capsys):
        code, out = run(capsys, "enumerate", "--fam", "vs-b", "--n=3")
        assert code == 0
        assert out == run(capsys, "enumerate", "--family", "vs-b", "--n", "3")[1]

    def test_top_level_help_text(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert build_parser().format_help() == (
            "usage: arnold [-h] {triangle,enumerate,map,verify} ...\n"
            "\n"
            "positional arguments:\n"
            "  {triangle,enumerate,map,verify}\n"
            "    triangle            print a triangle\n"
            "    enumerate           list the members of a family\n"
            "    map                 emit source/tree pairs of a bijection\n"
            "    verify              run registered checks\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        )
