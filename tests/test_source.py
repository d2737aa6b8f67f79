"""Conventions of the package source and its tests."""

from __future__ import annotations

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
