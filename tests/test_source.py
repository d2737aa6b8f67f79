"""Conventions of the package source and its tests."""

from __future__ import annotations

import ast
import copy
import dataclasses
from pathlib import Path

import numpy as np

import cfcoherency
from cfcoherency.coherency import CfSeries, CoherencyDistanceMatrix, SweepResult
from cfcoherency.simulation import power_flow, run
from tests.conftest import two_bus_scenario

ROOT = Path(__file__).resolve().parents[1]
MAX_LINE = 100  # characters


def _package_trees() -> list[ast.Module]:
    """The parsed modules of the package."""
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "cfcoherency").glob("*.py"))]


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


def test_every_module_import_is_read():
    # no unused import: each name that a module imports at its top level is
    # read in that module or listed in its `__all__`
    unused = []
    for path in sorted((ROOT / "src" / "cfcoherency").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {name for stmt in tree.body if isinstance(stmt, ast.Assign)
                 and any(getattr(target, "id", None) == "__all__" for target in stmt.targets)
                 for name in ast.literal_eval(stmt.value)}
        unused += [
            f"{path.name}:{stmt.lineno}: {alias.asname or alias.name.split('.')[0]}"
            for stmt in tree.body
            if isinstance(stmt, (ast.Import, ast.ImportFrom))
            and getattr(stmt, "module", None) != "__future__"
            for alias in stmt.names
            if (alias.asname or alias.name.split(".")[0]) not in read
        ]
    assert unused == []


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
    trees = _package_trees()
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


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple, whose class-body names are its fields."""
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list) or any(
        ast.unparse(base).endswith("NamedTuple") for base in node.bases
    )


def test_every_class_attribute_is_read_in_the_package():
    # no dead declarations: each name that a class body assigns, outside the
    # records, is read as an attribute somewhere in the package
    trees = _package_trees()
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        f"{node.name}.{target.id}"
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and not _is_record(node)
        for item in node.body
        if isinstance(item, (ast.Assign, ast.AnnAssign))
        for target in (item.targets if isinstance(item, ast.Assign) else [item.target])
        if isinstance(target, ast.Name) and target.id not in read
    )
    assert unread == []


def test_every_record_field_is_read():
    # no field stored for nobody: each field of a `src/` dataclass is read as
    # an attribute in the package, its tests or the benchmark, which alone
    # reads some solver counts
    scanned = [ROOT / "src" / "cfcoherency", ROOT / "tests", ROOT / "perfbench"]
    read = {
        node.attr
        for folder in scanned
        for path in sorted(folder.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        f"{node.name}.{item.target.id}"
        for tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in read
    )
    assert unread == []


def _array_records(tree: ast.Module) -> list[ast.ClassDef]:
    """The dataclasses of `tree` with a field annotated as, or holding, an
    `np.ndarray`."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        and any(
            isinstance(item, ast.AnnAssign) and "np.ndarray" in ast.unparse(item.annotation)
            for item in node.body
        )
    ]


def test_array_records_compare_by_identity():
    # a generated __eq__ compares the fields, and == on two arrays has no
    # single truth value, so a record that holds arrays passes eq=False
    generated_eq = [
        f"{path.name}:{node.name}"
        for path in sorted((ROOT / "src" / "cfcoherency").glob("*.py"))
        for node in _array_records(ast.parse(path.read_text(encoding="utf-8")))
        if not any(
            isinstance(d, ast.Call)
            and any(kw.arg == "eq" and ast.unparse(kw.value) == "False" for kw in d.keywords)
            for d in node.decorator_list
        )
    ]
    assert generated_eq == []


def test_array_records_equal_only_themselves():
    scenario = dataclasses.replace(two_bus_scenario(), t_end=0.01)
    t = np.arange(3) * 0.1
    records = [
        CfSeries(t, t + 1j),
        CoherencyDistanceMatrix(np.zeros((2, 2)), ["A", "B"]),
        SweepResult(np.zeros((3, 3))),
        power_flow(scenario),
        run(scenario),
    ]
    for record in records:
        assert record == record
        assert record != copy.deepcopy(record)
