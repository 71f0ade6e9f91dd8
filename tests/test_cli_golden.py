"""Byte-exact CLI output: stdout and exit code of one command per report shape.

Each case's expected stdout is ``tests/golden/cli/<name>.out`` and its exit
code is in ``tests/golden/cli/exits.json``; each runs with ``RSK_MAX_N``
unset. Input files live in the same directory; ``{dir}`` in an argument
stands for it. The fixtures pin the serialized bytes, so any change to key
order, spacing or escaping fails here.
"""

import json
from pathlib import Path

import pytest

from rsklab.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli"

CASES = {
    "counterexample_refuted": [
        "counterexample", "--row", "18", "--pairing", "dual", "--class", "R",
        "--max-n", "3",
    ],
    "counterexample_verified": [
        "counterexample", "--row", "6", "--pairing", "nondual", "--class", "Rr",
        "--max-n", "3",
    ],
    "counterexample_two_set": [
        "counterexample", "--row", "10", "--pairing", "nondual", "--class", "R",
        "--max-n", "3",
    ],
    "check_holds": [
        "check", "--row", "22", "--pairing", "nondual",
        "--relation", "{dir}/chain.json",
    ],
    "check_fails": [
        "check", "--row", "18", "--pairing", "dual",
        "--relation", "{dir}/chain.json",
    ],
    "check_two_set": [
        "check", "--row", "10", "--pairing", "nondual",
        "--relation", "{dir}/chain.json",
    ],
    "approx_dual_lower": [
        "approx", "--pairing", "dual", "--op", "lower",
        "--relation", "{dir}/chain.json", "--set", "{dir}/set.json",
    ],
    "approx_dual_upper": [
        "approx", "--pairing", "dual", "--op", "upper",
        "--relation", "{dir}/chain.json", "--set", "{dir}/set.json",
    ],
    "approx_nondual_lower": [
        "approx", "--pairing", "nondual", "--op", "lower",
        "--relation", "{dir}/chain.json", "--set", "{dir}/set.json",
    ],
    "approx_nondual_upper": [
        "approx", "--pairing", "nondual", "--op", "upper",
        "--relation", "{dir}/chain.json", "--set", "{dir}/set.json",
    ],
    "approx_mirror_lower": [
        "approx", "--pairing", "mirror", "--op", "lower",
        "--relation", "{dir}/chain.json", "--set", "{dir}/set.json",
    ],
    "approx_mirror_upper": [
        "approx", "--pairing", "mirror", "--op", "upper",
        "--relation", "{dir}/chain.json", "--set", "{dir}/set.json",
    ],
    "approx_pawlak_lower": [
        "approx", "--pairing", "pawlak", "--op", "lower",
        "--relation", "{dir}/partition.json", "--set", "{dir}/set.json",
    ],
    "approx_pawlak_upper": [
        "approx", "--pairing", "pawlak", "--op", "upper",
        "--relation", "{dir}/partition.json", "--set", "{dir}/set.json",
    ],
    "characterize": [
        "characterize", "--id", "preorder", "--relation", "{dir}/chain.json",
    ],
    "covering": ["covering", "--covering", "{dir}/covering.json"],
    # five elements, over the default RSK_MAX_N: only the per-input gate applies
    "covering_n5": ["covering", "--covering", "{dir}/covering_n5.json"],
    "logic": [
        "logic", "--frame", "{dir}/frame.json", "--set", "{dir}/frame_set.json",
    ],
    "classify": ["classify", "--relation", "{dir}/chain.json"],
    "table_markdown": [
        "table", "--pairing", "nondual", "--max-n", "2", "--format", "markdown",
    ],
}


def argv_of(name: str) -> list[str]:
    return [arg.replace("{dir}", str(GOLDEN)) for arg in CASES[name]]


def assert_pinned(name, capsys):
    code = main(argv_of(name))
    captured = capsys.readouterr()
    exits = json.loads((GOLDEN / "exits.json").read_text())
    assert code == exits[name]
    assert captured.out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_code_are_pinned(name, capsys, monkeypatch):
    monkeypatch.delenv("RSK_MAX_N", raising=False)
    assert_pinned(name, capsys)


def test_one_parser_serves_every_call(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["check", "--row", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    for name in ("classify", "characterize"):
        assert_pinned(name, capsys)
