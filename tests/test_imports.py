"""Package modules use each other only through public names, and importing
the package loads no process pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rsklab"


def private_imports(source: str) -> list[str]:
    """Every ``from <package module> import _name`` in one module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "rsklab":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(
                    f"line {node.lineno}: from {'.' * node.level}{module}"
                    f" import {alias.name}"
                )
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    assert private_imports(path.read_text()) == []


def test_the_guard_catches_relative_and_absolute_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from .properties import first_failure, _joins\n"
        "from rsklab.tables import _hidden\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == [
        "line 2: from .properties import _joins",
        "line 3: from rsklab.tables import _hidden",
    ]


def test_importing_the_package_and_cli_loads_no_process_pool():
    # a fresh interpreter: this one may have loaded the pool for another test
    probe = (
        "import sys, rsklab, rsklab.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
        " if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"
