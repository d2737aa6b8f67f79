"""In-memory span tracer that wraps public callables of cfcoherency from the
outside.  Nothing inside the package is edited: each wrapper replaces a
module attribute or a class attribute and `Patches.restore` puts it back.

A span is `[name, start, end, parent, op]`: `parent` is the index of the
enclosing span (-1 at top level) and `op` numbers the command or sweep cell
the span belongs to.  High-frequency device methods get counters instead of
spans, so tracing them stays cheap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

clock = time.perf_counter


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def function(self, module, attr, make):
        """Replace a module-level function by `make(original)` in its module
        and in every cfcoherency module that imported it by name."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "cfcoherency" or mod_name.startswith("cfcoherency."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        if getattr(module, attr) is original:  # outside the package, e.g. numpy
            self._set(module, attr, wrapper)

    def method(self, cls, attr, make):
        self._set(cls, attr, make(getattr(cls, attr)))

    def restore(self):
        for owner, attr, previous in reversed(self._saved):
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._saved.clear()


class Tracer:
    """Spans, counters and returned values of one traced repetition."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.values: defaultdict = defaultdict(int)
        self.patches = Patches()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, on_return=None, new_op=False):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_op:
                self.op += 1
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def _counter(self, name, fn, timed):
        counts, busy = self.counts, self.busy

        if timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    busy[name] += clock() - t0
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def span_function(self, module, attr, name, on_return=None, new_op=False):
        self.patches.function(module, attr, lambda fn: self._span(name, fn, on_return, new_op))

    def span_method(self, cls, attr, name, on_return=None):
        self.patches.method(cls, attr, lambda fn: self._span(name, fn, on_return))

    def count_method(self, cls, attr, name, timed=False):
        self.patches.method(cls, attr, lambda fn: self._counter(name, fn, timed))

    # -- derived numbers ------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds and durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["durations"].append(end - start)
        return out

    def outermost_s(self, prefix: str) -> float:
        """Time inside spans named `prefix*` not nested in another such span."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name.startswith(prefix) and not self._has_ancestor(parent, prefix):
                total += end - start
        return total

    def _has_ancestor(self, idx: int, prefix: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0].startswith(prefix):
                return True
            idx = self.spans[idx][3]
        return False


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every cfcoherency module plus the numpy
    routines the package spends its linear algebra and CSV reading in."""
    from cfcoherency import cli, coherency, devices, network, scenario_io, simulation

    def add(key, amount):
        tracer.values[key] += amount

    def on_run(traj):
        add("simulation.run.steps", traj.times.size - 1)
        add("simulation.run.newton_iters", traj.newton_iters)

    def on_sweep(result):
        add("coherency.alpha_beta_sweep.cells", result.values.size)
        add("coherency.alpha_beta_sweep.cells_failed", len(result.failures))

    tracer.span_function(cli, "main", "cli.main", new_op=True)
    tracer.span_function(scenario_io, "load_scenario", "scenario_io.load_scenario")
    tracer.span_function(scenario_io, "parse_scenario", "scenario_io.parse_scenario")

    tracer.span_function(network, "impedance_matrix", "network.impedance_matrix")
    tracer.span_function(network, "power_contribution", "network.power_contribution")
    tracer.span_method(network.Network, "impedance", "network.impedance")
    tracer.span_method(network.Network, "branch_current", "network.branch_current")

    tracer.span_function(
        simulation, "power_flow", "simulation.power_flow",
        lambda pf: add("simulation.power_flow.iterations", pf.iterations),
    )
    tracer.span_function(simulation, "initialize", "simulation.initialize")
    tracer.span_function(simulation, "run", "simulation.run", on_run)
    dae = simulation.DaeSystem
    for attr in ("derivatives", "injections", "network_residual", "voltage_rates"):
        tracer.span_method(dae, attr, f"simulation.{attr}")
    integ = simulation.TrapezoidalIntegrator
    tracer.span_method(integ, "step", "simulation.step")
    tracer.span_method(integ, "solve_algebraic", "simulation.solve_algebraic")

    for cls in (
        devices.SynchronousMachine,
        devices.ZipLoad,
        devices.GridFollowingConverter,
        devices.GridFormingConverter,
    ):
        for attr in ("derivatives", "injected_current", "voltage_sensitivity"):
            tracer.count_method(cls, attr, f"devices.{attr}")
        tracer.count_method(cls, "analytic_cf", "devices.analytic_cf", timed=True)

    def on_matrix(matrix):
        n = len(matrix.labels)
        add("coherency.distance_matrix.pairs", n * (n - 1) // 2)

    def on_tree(tree):
        add("coherency.upgma_tree.merges", len(tree.merges))

    for attr in (
        "numerical_cf",
        "coherency_function",
        "coherency_distance",
        "cluster_trajectory",
        "observer_independence_check",
    ):
        tracer.span_function(coherency, attr, f"coherency.{attr}")
    tracer.span_function(coherency, "distance_matrix", "coherency.distance_matrix", on_matrix)
    tracer.span_function(coherency, "upgma_tree", "coherency.upgma_tree", on_tree)
    tracer.span_function(
        coherency, "two_machine_distance", "coherency.two_machine_distance", new_op=True
    )
    tracer.span_function(coherency, "alpha_beta_sweep", "coherency.alpha_beta_sweep", on_sweep)

    tracer.span_function(np.linalg, "solve", "numpy.linalg.solve")
    tracer.span_function(np.linalg, "inv", "numpy.linalg.inv")
    tracer.span_function(np, "loadtxt", "numpy.loadtxt")


# span name -> the fields of its summary that are reported as per-layer metrics
SPAN_METRICS = {
    "simulation.derivatives": ("calls", "s"),
    "simulation.injections": ("calls", "s"),
    "simulation.voltage_rates": ("calls", "s"),
    "simulation.solve_algebraic": ("calls", "s"),
    "simulation.run": ("s",),
    "simulation.power_flow": ("s",),
    "simulation.initialize": ("s",),
    "scenario_io.load_scenario": ("s",),
    "network.impedance": ("s",),
    "numpy.linalg.solve": ("calls", "s"),
    "numpy.linalg.inv": ("calls", "s"),
    "numpy.loadtxt": ("s",),
    "coherency.numerical_cf": ("calls", "s"),
    "coherency.distance_matrix": ("s",),
    "coherency.upgma_tree": ("s",),
    "coherency.observer_independence_check": ("s",),
    "cli.main": ("self_s",),
}
VALUE_METRICS = (
    "simulation.run.steps",
    "simulation.run.newton_iters",
    "simulation.power_flow.iterations",
    "coherency.alpha_beta_sweep.cells",
    "coherency.alpha_beta_sweep.cells_failed",
    "coherency.distance_matrix.pairs",
    "coherency.upgma_tree.merges",
)
COUNT_METRICS = (
    "devices.derivatives",
    "devices.injected_current",
    "devices.voltage_sensitivity",
    "devices.analytic_cf",
)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced repetition as {name: (value, unit)}."""
    summary = tracer.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
    out: dict[str, tuple[float, str]] = {}
    for span, fields in SPAN_METRICS.items():
        entry = summary.get(span, empty)
        for f in fields:
            out[f"{span}.{f}"] = (entry[f], "count" if f == "calls" else "s")
    for key in VALUE_METRICS:
        out[key] = (tracer.values.get(key, 0), "count")
    for key in COUNT_METRICS:
        out[f"{key}.calls"] = (tracer.counts.get(key, 0), "count")
    out["devices.analytic_cf.s"] = (tracer.busy.get("devices.analytic_cf", 0.0), "s")

    steps = out["simulation.run.steps"][0]
    out["simulation.run.newton_per_step"] = (
        out["simulation.run.newton_iters"][0] / steps if steps else 0.0, "ratio"
    )
    out.update(step_metrics(tracer, summary.get("simulation.step", empty)))

    cells = summary.get("coherency.two_machine_distance", empty)["durations"]
    out["coherency.two_machine_distance.s_p50"] = (
        float(np.median(cells)) if cells else 0.0, "s"
    )
    out["simulation.run.wall_share"] = (out["simulation.run.s"][0] / wall_s, "ratio")
    out["coherency.wall_share"] = (tracer.outermost_s("coherency.") / wall_s, "ratio")
    return out


def step_metrics(tracer: Tracer, entry: dict) -> dict[str, tuple[float, str]]:
    """Integration steps.  A step span nested in another step span is one
    half of a halved step; an attempt is accepted when it was not halved."""
    spans = tracer.spans
    top, attempts, halved = [], 0, set()
    for name, start, end, parent, _ in spans:
        if name != "simulation.step":
            continue
        attempts += 1
        if parent >= 0 and spans[parent][0] == "simulation.step":
            halved.add(parent)
        else:
            top.append(end - start)
    ms = np.array(top) * 1e3
    return {
        "simulation.step.ms_p50": (float(np.percentile(ms, 50)) if ms.size else 0.0, "ms"),
        "simulation.step.ms_p99": (float(np.percentile(ms, 99)) if ms.size else 0.0, "ms"),
        "simulation.step.self_s": (entry["self_s"], "s"),
        "simulation.step.halvings": (len(halved), "count"),
        "simulation.step.accept_ratio": (
            (attempts - len(halved)) / attempts if attempts else 0.0, "ratio"
        ),
    }
