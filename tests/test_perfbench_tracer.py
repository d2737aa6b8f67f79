"""The names `perfbench/tracer.py` patches from outside the package.

The tracer wraps functions and methods of `cfcoherency` by name, so a rename
or a changed call pattern in `src/` silently empties its per-layer metrics.
This runs it as the benchmark does, on a short twomachine run and a
cluster of the same scenario.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from cfcoherency import cli
from cfcoherency.scenario_io import bundled_scenario_path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture()
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_it_patches(tracer_module, tmp_path, capsys):
    doc = json.loads(bundled_scenario_path("twomachine").read_text())
    doc.pop("events")
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)  # raises AttributeError for a missing name
        patched = [getattr(owner, attr) for owner, attr, _ in tracer.patches._saved]
        assert all(hasattr(fn, "__wrapped__") for fn in patched)
        for command in ("run", "cluster"):
            argv = ["--out", str(tmp_path / command), "--t-end", "0.05", command, str(path)]
            assert cli.main(argv) == 0
    finally:
        tracer.patches.restore()

    spans = tracer.spans
    top_steps = [
        s for s in spans
        if s[0] == "simulation.step" and (s[3] < 0 or spans[s[3]][0] != "simulation.step")
    ]
    # in each command the first step returns its handed pair, so `run` fills the other 49
    assert [s[4] for s in top_steps] == [1, 2]
    assert "50 steps (49 filled at a fixed point)" in capsys.readouterr().out
    metrics = tracer_module.layer_metrics(tracer, wall_s=1.0)
    assert {f"{key}.calls" for key in tracer_module.COUNT_METRICS} <= metrics.keys()
    # the cluster of the two machines: one matrix of one pair, and one tree
    summary = tracer.summary()
    assert summary["coherency.distance_matrix"]["calls"] == 1
    assert summary["coherency.upgma_tree"]["calls"] == 1
    assert metrics["coherency.distance_matrix.pairs"] == (1, "count")
    assert not hasattr(cli.main, "__wrapped__")  # the patches are undone
