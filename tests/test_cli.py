"""Command-line surface: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rsklab.cli import main


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    return write(
        tmp_path,
        "identity.json",
        {"universe": ["a", "b", "c"], "pairs": [["a", "a"], ["b", "b"], ["c", "c"]]},
    )


@pytest.fixture
def chain_file(tmp_path):
    return write(
        tmp_path, "chain.json", {"universe": {"size": 3}, "pairs": [[0, 1], [1, 2]]}
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_identity_is_everything(self, capsys, identity_file):
        code, out, _ = run(capsys, ["classify", "--relation", identity_file])
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "reflexive": True,
            "symmetric": True,
            "transitive": True,
            "serial": True,
            "preorder": True,
            "equivalence": True,
        }


class TestApprox:
    def test_nondual_upper_of_chain(self, capsys, tmp_path, chain_file):
        set_file = write(tmp_path, "x.json", {"set": ["0"]})
        code, out, _ = run(
            capsys,
            [
                "approx",
                "--pairing",
                "nondual",
                "--op",
                "upper",
                "--relation",
                chain_file,
                "--set",
                set_file,
            ],
        )
        assert code == 0
        assert json.loads(out)["result"] == ["1"]

    def test_pawlak_on_non_equivalence_is_an_input_failure(
        self, capsys, tmp_path, chain_file
    ):
        set_file = write(tmp_path, "x.json", {"set": []})
        code, _, err = run(
            capsys,
            [
                "approx",
                "--pairing",
                "pawlak",
                "--op",
                "lower",
                "--relation",
                chain_file,
                "--set",
                set_file,
            ],
        )
        assert code == 2 and "error:" in err


class TestTable:
    def test_markdown_grid(self, capsys):
        code, out, _ = run(
            capsys,
            ["table", "--pairing", "nondual", "--max-n", "2", "--format", "markdown"],
        )
        assert code == 0
        assert out.count("\n") == 27  # heading, blank, header, rule, 23 rows
        assert "| 22 |" in out and "✓" in out and "✗" in out

    def test_json_deterministic_across_workers(self, capsys):
        code1, out1, _ = run(capsys, ["table", "--pairing", "dual", "--max-n", "2"])
        code2, out2, _ = run(
            capsys,
            ["table", "--pairing", "dual", "--max-n", "2", "--workers", "2"],
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            [
                "table",
                "--pairing",
                "dual",
                "--max-n",
                "1",
                "--output",
                str(target),
            ],
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["bound"] == 1

    def test_capacity_exceeded(self, capsys):
        code, _, err = run(capsys, ["table", "--pairing", "dual", "--max-n", "9"])
        assert code == 2 and "capacity" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_is_exit_two(self, capsys, workers):
        code, out, err = run(
            capsys, ["table", "--pairing", "dual", "--max-n", "1", "--workers", workers]
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_max_n_is_one_line_exit_two(self, capsys):
        code, out, err = run(capsys, ["table", "--pairing", "dual", "--max-n", "-1"])
        assert code == 2 and out == ""
        assert err == "error: universe size must be nonnegative, got -1\n"

    def test_unwritable_output_is_exit_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys,
            ["table", "--pairing", "dual", "--max-n", "1", "--output", str(target)],
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(target) in err


SRC = str(Path(__file__).resolve().parents[1] / "src")
MARKDOWN_TABLE = ["table", "--pairing", "dual", "--max-n", "1", "--format", "markdown"]


def run_process(args, **env):
    """The CLI in a fresh interpreter, with ``env`` over the current environment."""
    env = {**os.environ, "PYTHONPATH": SRC, **env}
    return subprocess.run(
        [sys.executable, "-m", "rsklab.cli", *args], capture_output=True, env=env
    )


class TestEncoding:
    def test_output_file_is_utf8_under_the_c_locale(self, tmp_path):
        target = tmp_path / "t.md"
        done = run_process(
            [*MARKDOWN_TABLE, "--output", str(target)],
            LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
        )
        assert done.returncode == 0 and done.stdout == b"" and done.stderr == b""
        utf8 = run_process(MARKDOWN_TABLE, PYTHONIOENCODING="utf-8")
        assert utf8.returncode == 0 and "✓" in utf8.stdout.decode("utf-8")
        assert target.read_bytes() == utf8.stdout

    def test_stdout_that_cannot_encode_is_one_line_exit_two(self):
        done = run_process(MARKDOWN_TABLE, PYTHONIOENCODING="ascii")
        assert done.returncode == 2 and done.stdout == b""
        err = done.stderr.decode()
        assert err.startswith("error:") and err.count("\n") == 1
        assert "ascii" in err and "--output" in err

    def test_closed_stdout_is_one_line_exit_two(self):
        env = {**os.environ, "PYTHONPATH": SRC}
        args = ["table", "--pairing", "dual", "--max-n", "3"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "rsklab.cli", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err == "error: stdout closed before the report was written\n"


class TestOutput:
    """Every subcommand, under both names of characterize, takes ``--output``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--relation", "RELATION"],
            ["approx", "--pairing", "dual", "--op", "lower"]
            + ["--relation", "RELATION", "--set", "SET"],
            ["table", "--pairing", "dual", "--max-n", "1"],
            ["check", "--row", "1", "--pairing", "dual", "--relation", "RELATION"],
            ["counterexample", "--row", "1", "--pairing", "dual"]
            + ["--class", "Rrst", "--max-n", "1"],
            ["characterize", "--id", "preorder", "--relation", "RELATION"],
            ["check-characterization", "--id", "preorder", "--relation", "RELATION"],
            ["covering", "--covering", "COVERING"],
            ["logic", "--frame", "FRAME", "--set", "SET"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_report_goes_to_the_output_file(self, capsys, tmp_path, chain_file, argv):
        files = {
            "RELATION": chain_file,
            "SET": write(tmp_path, "set.json", {"set": [0]}),
            "COVERING": write(
                tmp_path, "covering.json", {"universe": {"size": 2}, "blocks": [[0, 1]]}
            ),
            "FRAME": write(
                tmp_path, "frame.json", {"propositions": ["p", "q"], "implies": []}
            ),
        }
        target = tmp_path / "report.json"
        argv = [files.get(a, a) for a in argv]
        code, out, err = run(capsys, [*argv, "--output", str(target)])
        assert code in (0, 1) and out == "" and err == ""
        assert isinstance(json.loads(target.read_text(encoding="utf-8")), dict)


class TestCheck:
    def test_failing_row_exits_one_with_witness(self, capsys, chain_file):
        code, out, _ = run(
            capsys,
            ["check", "--row", "18", "--pairing", "dual", "--relation", chain_file],
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["holds"] is False and "counterexample" in obj

    def test_holding_row_exits_zero(self, capsys, chain_file):
        code, out, _ = run(
            capsys,
            ["check", "--row", "22", "--pairing", "nondual", "--relation", chain_file],
        )
        assert code == 0 and json.loads(out)["holds"] is True


class TestCounterexample:
    def test_refuted_cell(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "counterexample",
                "--row",
                "6",
                "--pairing",
                "dual",
                "--class",
                "ser",
                "--max-n",
                "3",
            ],
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["status"] == "refuted"
        assert obj["counterexample"]["relation"]["pairs"]

    def test_verified_cell(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "counterexample",
                "--row",
                "6",
                "--pairing",
                "dual",
                "--class",
                "r",
                "--max-n",
                "3",
            ],
        )
        assert code == 0 and json.loads(out)["status"] == "verified"


class TestCharacterize:
    @pytest.mark.parametrize("command", ["characterize", "check-characterization"])
    def test_consistent_record(self, capsys, chain_file, command):
        code, out, _ = run(
            capsys,
            [command, "--id", "transitive-upper", "--relation", chain_file],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "characterization": "transitive-upper",
            "property_holds": False,
            "class_holds": False,
            "consistent": True,
        }

    def test_unknown_id_is_input_error(self, capsys, chain_file):
        code, _, err = run(
            capsys, ["characterize", "--id", "nope", "--relation", chain_file]
        )
        assert code == 2 and "error:" in err


class TestCovering:
    def test_reduction_report(self, capsys, tmp_path):
        covering_file = write(
            tmp_path,
            "c.json",
            {"universe": ["a", "b", "c"], "blocks": [["a", "b"], ["b", "c"]]},
        )
        code, out, _ = run(capsys, ["covering", "--covering", covering_file])
        assert code == 0
        obj = json.loads(out)
        assert obj["induced_preorder"] is True
        assert obj["reduction_verified"] is True
        assert obj["neighborhoods"] == {"a": ["a", "b"], "b": ["b"], "c": ["b", "c"]}


class TestLogic:
    def test_closure_and_interior(self, capsys, tmp_path):
        frame_file = write(
            tmp_path,
            "f.json",
            {"propositions": ["p", "q", "r"], "implies": [["p", "q"]]},
        )
        set_file = write(tmp_path, "s.json", {"set": ["p"]})
        code, out, _ = run(
            capsys, ["logic", "--frame", frame_file, "--set", set_file]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "set": ["p"],
            "closure": ["p", "q"],
            "interior": [],
            "set_is_theory": False,
        }


class TestErrorPaths:
    def test_malformed_file_is_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, ["classify", "--relation", str(bad)])
        assert code == 2 and "line 1" in err

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"[" * 200_000 + b"]" * 200_000, "JSON nested too deeply"),
            (
                b'{"universe": {"size": ' + b"9" * 5001 + b'}, "pairs": []}',
                "a number has too many digits",
            ),
            (b"\xff\xfe\x00garbage", "not UTF-8 text (byte 0)"),
        ],
        ids=["deeply-nested", "over-digit-limit", "not-utf8"],
    )
    def test_malformed_file_is_one_line_exit_two(
        self, capsys, tmp_path, content, message
    ):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, ["classify", "--relation", str(path)])
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "argv,content,message",
        [
            (
                ["classify", "--relation"],
                {"universe": ["a"]},
                "missing key(s) ['pairs']",
            ),
            (
                ["approx", "--pairing", "dual", "--op", "lower"]
                + ["--relation", "RELATION", "--set"],
                {},
                "missing key(s) ['set']",
            ),
            (
                ["covering", "--covering"],
                {"blocks": [["a"]]},
                "missing key(s) ['universe']",
            ),
            (
                ["logic", "--set", "SET", "--frame"],
                {"propositions": ["a"]},
                "missing key(s) ['implies']",
            ),
            (
                ["classify", "--relation"],
                {"universe": {}, "pairs": []},
                "universe: missing key(s) ['size']",
            ),
        ],
        ids=["relation", "set", "covering", "frame", "universe-size"],
    )
    def test_missing_key_is_one_line_exit_two(
        self, capsys, tmp_path, argv, content, message
    ):
        relation = write(tmp_path, "relation.json", {"universe": ["a"], "pairs": []})
        subset = write(tmp_path, "set.json", {"set": ["a"]})
        path = write(tmp_path, "bad.json", content)
        argv = [{"RELATION": relation, "SET": subset}.get(a, a) for a in argv]
        code, out, err = run(capsys, [*argv, path])
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "argv,content,message",
        [
            (
                ["approx", "--pairing", "dual", "--op", "lower"]
                + ["--relation", "RELATION", "--set"],
                {"set": "a"},
                "set: expected a list of elements",
            ),
            (
                ["covering", "--covering"],
                {"universe": ["a"], "blocks": ["a"]},
                "blocks[0]: expected a list of elements",
            ),
        ],
        ids=["set", "covering-block"],
    )
    def test_element_list_that_is_not_a_list_is_one_line_exit_two(
        self, capsys, tmp_path, argv, content, message
    ):
        relation = write(tmp_path, "relation.json", {"universe": ["a"], "pairs": []})
        path = write(tmp_path, "bad.json", content)
        argv = [relation if a == "RELATION" else a for a in argv]
        code, out, err = run(capsys, [*argv, path])
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify"],
            ["check", "--row", "10", "--pairing", "dual"],
            ["characterize", "--id", "preorder"],
        ],
    )
    def test_oversized_universe_is_exit_two(self, capsys, tmp_path, argv):
        huge = write(
            tmp_path, "huge.json", {"universe": {"size": 10**9}, "pairs": [[0, 0]]}
        )
        code, out, err = run(capsys, [*argv, "--relation", huge])
        assert code == 2 and out == ""
        assert "per-input limit" in err and err.count("\n") == 1
