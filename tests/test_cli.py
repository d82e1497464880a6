import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ordstat.cli import main, parse_sequence_text
from ordstat.errors import TextParseError


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    if stdin_text or monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestParseSequenceText:
    def test_whitespace_and_commas(self):
        assert parse_sequence_text("5 1 9") == [5.0, 1.0, 9.0]
        assert parse_sequence_text("5,1, 9\n") == [5.0, 1.0, 9.0]
        assert parse_sequence_text("-2.5e3") == [-2500.0]
        assert parse_sequence_text("+.5") == [0.5]

    def test_json_array(self):
        assert parse_sequence_text("[5, 1, 9.5]") == [5.0, 1.0, 9.5]
        assert parse_sequence_text(" [1e2]") == [100.0]

    @pytest.mark.parametrize("text", [
        "", "  ", "nan", "inf", "-Infinity", "1 two 3", "1..2", "1e",
        "[NaN]", "[Infinity]", "[true]", '["1"]', "[1, 2", "{}", "[[1]]",
    ])
    def test_rejections(self, text):
        with pytest.raises(TextParseError):
            parse_sequence_text(text)


class TestSelect:
    def test_second_smallest(self, monkeypatch, capsys):
        code, out, _ = run_cli(["select", "--rank", "2"], "5 1 9",
                               monkeypatch, capsys)
        assert (code, out) == (0, "5\n")

    def test_singleton(self, monkeypatch, capsys):
        code, out, _ = run_cli(["select", "--rank", "1"], "7",
                               monkeypatch, capsys)
        assert (code, out) == (0, "7\n")

    def test_rank_out_of_range_exits_3(self, monkeypatch, capsys):
        code, _, err = run_cli(["select", "--rank", "4"], "5 1 9",
                               monkeypatch, capsys)
        assert code == 3 and err.startswith("ordstat:")

    def test_parse_error_exits_2(self, monkeypatch, capsys):
        code, _, err = run_cli(["select", "--rank", "1"], "nan",
                               monkeypatch, capsys)
        assert code == 2 and err.startswith("ordstat:")

    @pytest.mark.parametrize("mode", ["naive", "memo", "fullrange", "expr"])
    def test_modes_agree(self, mode, monkeypatch, capsys):
        code, out, _ = run_cli(["select", "--rank", "3", "--mode", mode],
                               "4 9 9 1 5", monkeypatch, capsys)
        assert (code, out) == (0, "5\n")

    def test_json_format(self, monkeypatch, capsys):
        code, out, _ = run_cli(["select", "--rank", "2", "--format", "json"],
                               "5 1 9", monkeypatch, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2 and payload["value"] == 5.0
        assert payload["stats"]["base_case_calls"] == 3

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "values.txt"
        path.write_text("[9, 9, 1, 5]")
        code, out, _ = run_cli(["select", "--rank", "4", str(path)],
                               capsys=capsys)
        assert (code, out) == (0, "9\n")

    def test_huge_json_integer_exits_2(self, monkeypatch, capsys):
        # float() of a 400-digit int overflows; 1e999 already exits 2.
        code, out, err = run_cli(["select", "--rank", "1"], f"[{'9' * 400}, 1]",
                                 monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == ("ordstat: JSON number 999999999999... of 400 characters "
                       "is out of float range\n")

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "values.txt"
        path.write_bytes(b"1 2 \xff 3")
        code, out, err = run_cli(["select", "--rank", "1", str(path)], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"ordstat: cannot read {path}: 'utf-8' codec can't decode")

    def test_non_utf8_stdin_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"1 \xff"),
                                                          encoding="utf-8"))
        code, out, err = run_cli(["median"], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith("ordstat: cannot read stdin: 'utf-8' codec can't decode")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(["select", "--rank", "1", "/no/such/file"],
                               capsys=capsys)
        assert code == 2 and "/no/such/file" in err

    def test_budget_flag_exits_3(self, monkeypatch, capsys):
        values = " ".join(str(i) for i in range(30))
        code, _, err = run_cli(
            ["select", "--rank", "15", "--mode", "naive", "--budget", "100"],
            values, monkeypatch, capsys)
        assert code == 3 and "budget" in err.lower()

    def test_budget_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("ORDSTAT_BUDGET", "2")
        code, _, _ = run_cli(["select", "--rank", "2", "--mode", "naive"],
                             "3 1 2", monkeypatch, capsys)
        assert code == 3
        # explicit flag wins over the environment
        code, out, _ = run_cli(
            ["select", "--rank", "2", "--mode", "naive", "--budget", "100"],
            "3 1 2", monkeypatch, capsys)
        assert (code, out) == (0, "2\n")


class TestMedian:
    @pytest.mark.parametrize("text,expected", [
        ("3 1 2", "2\n"),
        ("4 1 3 2", "2.5\n"),
        ("7", "7\n"),
    ])
    def test_golden(self, text, expected, monkeypatch, capsys):
        code, out, _ = run_cli(["median"], text, monkeypatch, capsys)
        assert (code, out) == (0, expected)

    def test_empty_input_exits_2(self, monkeypatch, capsys):
        code, _, _ = run_cli(["median"], "\n", monkeypatch, capsys)
        assert code == 2

    def test_json(self, monkeypatch, capsys):
        code, out, _ = run_cli(["median", "--format", "json"], "4 1 3 2",
                               monkeypatch, capsys)
        assert code == 0 and json.loads(out) == {"value": 2.5}


class TestEmit:
    @pytest.mark.parametrize("argv,expected", [
        (["emit", "--n", "1", "--rank", "1"], "x1\n"),
        (["emit", "--n", "2", "--rank", "1", "--form", "arithmetic"],
         "((x1 + x2) - |x1 - x2|)/2\n"),
        (["emit", "--n", "3", "--rank", "2"],
         "max{max{min{x2, x3}, min{x1, x3}}, min{x1, x2}}\n"),
        (["emit", "--n", "2", "--rank", "2", "--syntax", "sexpr"],
         "(max (var 2) (var 1))\n"),
    ])
    def test_golden(self, argv, expected, capsys):
        code, out, _ = run_cli(argv, capsys=capsys)
        assert (code, out) == (0, expected)

    def test_slp(self, capsys):
        code, out, _ = run_cli(["emit", "--n", "2", "--rank", "1", "--slp"],
                               capsys=capsys)
        assert code == 0
        assert out.splitlines() == [
            "t0 = add x1 x2",
            "t1 = sub x1 x2",
            "t2 = abs t1",
            "t3 = sub t0 t2",
            "t4 = halve t3",
            "result t4",
        ]

    def test_budget_exits_3(self, capsys):
        code, _, _ = run_cli(["emit", "--n", "30", "--rank", "15"],
                             capsys=capsys)
        assert code == 3

    def test_bad_rank_exits_3(self, capsys):
        code, _, _ = run_cli(["emit", "--n", "3", "--rank", "4"],
                             capsys=capsys)
        assert code == 3

    def test_text_over_budget_exits_3_before_rendering(self, capsys):
        # The graph builds within the budget; its text would be a tree of
        # 9.6e9 nodes.
        code, out, err = run_cli(["emit", "--n", "9", "--rank", "5", "--form", "arithmetic"],
                                 capsys=capsys)
        assert (code, out) == (3, "")
        assert "9577187241 tree nodes" in err
        code, out, _ = run_cli(["emit", "--n", "9", "--rank", "5", "--slp"], capsys=capsys)
        assert code == 0 and out.endswith("\nresult t3329\n")


class TestVerifyCommand:
    def test_single_random_trial(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--random", "--trials", "1", "--seed", "0"],
            capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"cases_run": 2, "failures": []}

    def test_exhaustive_small(self, capsys):
        code, out, _ = run_cli(["verify", "--exhaustive", "--max-n", "3"],
                               capsys=capsys)
        assert code == 0
        assert json.loads(out)["cases_run"] == 8 + 48 + 256

    def test_inject_fault_exits_1(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--exhaustive", "--max-n", "2", "--inject-fault"],
            capsys=capsys)
        assert code == 1
        assert json.loads(out)["failures"]

    def test_both_suites_by_default(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--max-n", "2", "--trials", "5", "--seed", "1"],
            capsys=capsys)
        assert code == 0
        # 4 + 16 sequences with rank cases plus medians, then 2 per trial
        assert json.loads(out)["cases_run"] == (4 * 2 + 16 * 3) + 10

    def test_custom_alphabet(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--exhaustive", "--max-n", "2", "--alphabet", "0,1"],
            capsys=capsys)
        assert code == 0
        assert json.loads(out)["cases_run"] == 2 * 2 + 4 * 3

    def test_case_budget_exits_3(self, capsys):
        code, _, _ = run_cli(
            ["verify", "--exhaustive", "--max-n", "3", "--case-budget", "5"],
            capsys=capsys)
        assert code == 3

    def test_huge_json_integer_alphabet_exits_2(self, capsys):
        code, out, err = run_cli(
            ["verify", "--exhaustive", "--max-n", "1", "--alphabet", f"[0, -{'9' * 400}]"],
            capsys=capsys)
        assert (code, out) == (2, "")
        assert "JSON number -99999999999... of 401 characters" in err

    def test_bad_plan_exits_3(self, capsys):
        code, _, _ = run_cli(["verify", "--exhaustive", "--max-n", "0"],
                             capsys=capsys)
        assert code == 3


class TestBenchCommand:
    def test_growth_row_counts(self, capsys):
        code, out, _ = run_cli(
            ["bench", "--growth", "--max-n", "8", "--repeats", "0"],
            capsys=capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == ("N,n,mode,base_case_calls,memo_hits,"
                            "tree_nodes,dag_nodes,wall_time_s")
        assert len(lines) == 1 + 36

    def test_growth_single_row(self, capsys):
        code, out, _ = run_cli(
            ["bench", "--growth", "--max-n", "1", "--repeats", "0"],
            capsys=capsys)
        assert code == 0
        assert out.splitlines()[1] == "1,1,growth,1,0,1,1,0.0"

    def test_growth_is_default(self, capsys):
        code, out, _ = run_cli(["bench", "--max-n", "2", "--repeats", "0"],
                               capsys=capsys)
        assert code == 0 and len(out.splitlines()) == 1 + 3

    def test_compare_json(self, capsys):
        code, out, _ = run_cli(
            ["bench", "--compare", "--n", "6", "--trials", "2", "--seed", "3",
             "--format", "json"], capsys=capsys)
        assert code == 0
        assert [r["mode"] for r in json.loads(out)] == ["memo", "expr",
                                                        "oracle"]

    def test_backends_table(self, capsys):
        code, out, _ = run_cli(
            ["bench", "--backends", "--n", "5", "--rank", "2",
             "--repeats", "1"], capsys=capsys)
        assert code == 0
        modes = [line.split(",")[2] for line in out.splitlines()[1:]]
        assert any(m.startswith("naive[") for m in modes)
        assert any(m.startswith("memo[") for m in modes)

    def test_budget_exits_3(self, capsys):
        code, _, _ = run_cli(
            ["bench", "--growth", "--max-n", "8", "--repeats", "0",
             "--budget", "100"], capsys=capsys)
        assert code == 3


class TestDeterminism:
    def test_verify_byte_identical(self, capsys):
        argv = ["verify", "--exhaustive", "--max-n", "3",
                "--random", "--trials", "20", "--seed", "7"]
        first = run_cli(argv, capsys=capsys)
        second = run_cli(argv, capsys=capsys)
        assert first == second and first[0] == 0

    def test_bench_byte_identical(self, capsys):
        argv = ["bench", "--growth", "--max-n", "5", "--repeats", "0"]
        assert run_cli(argv, capsys=capsys) == run_cli(argv, capsys=capsys)


def test_cli_import_skips_heavy_stdlib_modules():
    # -S keeps site's own imports (.pth files) out of the count.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "ORDSTAT_BACKEND"}
    env["PYTHONPATH"] = str(src)
    code = ("import sys, ordstat.cli; "
            "print(sorted({'dataclasses', 'inspect', 'statistics', 'typing'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
