import json
from pathlib import Path

import pytest

from arnold.cli import main

GOLDEN_SRC = Path(__file__).resolve().parents[1] / "src/arnold/golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines() if line.strip()]


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

    def test_size_cap_exit_code(self, capsys):
        assert main(["enumerate", "--family", "vs-b", "--n", "12"]) == 2

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

    def test_flip_pairs(self, capsys):
        code, out = run(capsys, "map", "--bijection", "flip", "--n", "2")
        assert code == 0
        rows = jsonl(out)
        assert len(rows) == 4  # three positive-side classes and one negative


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

    def test_requires_target(self, capsys):
        assert main(["verify"]) == 2

    def test_bad_max_n(self, capsys):
        assert main(["verify", "--all", "--max-n", "0"]) == 2
