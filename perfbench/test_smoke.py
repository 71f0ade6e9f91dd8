"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(cwd: Path, script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_smoke_workloads_pass_and_a_wrong_verdict_fails():
    done = _run(HERE.parent, HERE / "run.py", "--smoke")
    results = json.loads(done.stdout.strip().splitlines()[-1])
    for name in ("table", "search", "check"):
        attempted, failed = results[name]
        assert attempted > 0 and failed == 0, (name, done.stdout)
    assert results["table-wrong-verdict"][1] > 0
    assert done.returncode == 0


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, tmp_path / "perfbench" / "run.py",
                "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
