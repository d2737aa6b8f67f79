"""Conventions of the package source and its tests."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAX_LINE = 100  # characters


def test_no_source_line_is_longer_than_100_characters():
    paths = sorted((ROOT / "src" / "cfcoherency").glob("*.py")) + sorted(ROOT.glob("tests/*.py"))
    long = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long == []


def test_only_the_cli_prints():
    # library code logs through `logging`; only the command line writes to stdout
    printing = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "cfcoherency").glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    ]
    assert printing == []
