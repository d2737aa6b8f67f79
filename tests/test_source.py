"""Conventions of the package source and its tests."""

from __future__ import annotations

import ast
from pathlib import Path

import cfcoherency

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


def test_every_function_is_referenced_in_the_package(tracer_module):
    # no dead public helpers: each function or method is named somewhere in
    # the package besides its definition, as a name or an attribute, unless
    # it is a dunder, exported, a scenario lookup, or wrapped by the benchmark
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        patched = {attr for _, attr, _ in tracer.patches._saved}
    finally:
        tracer.patches.restore()
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "cfcoherency").glob("*.py"))]
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    exempt = set(cfcoherency.__all__) | {"bundled_scenario_path"} | patched
    unreferenced = sorted(
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced | exempt
    )
    assert unreferenced == []
