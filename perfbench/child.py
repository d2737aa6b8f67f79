"""One repetition of one workload, in a fresh interpreter started by run.py.

Timestamps are CLOCK_MONOTONIC readings, which the parent compares with the
reading it took just before starting this process.  With `--setup` the
process stops at the first integration step (for `fleet-cluster`: once the
trajectory is built) and reports only that instant.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from cfcoherency import cli, simulation

import workloads
from fleet import make_fleet
from tracer import Patches, Tracer, install, layer_metrics


class SetupDone(BaseException):
    """Ends a set-up probe at the first integration step.  It derives from
    BaseException so the sweep's per-cell `except Exception` lets it pass."""


class Probe:
    """Notes when the first integration step starts and what each `run`
    call was given; costs one wrapper call per `run` and per first step."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.first_step: float | None = None
        self.runs: list[tuple[float, float, simulation.Trajectory]] = []
        self.run_s = 0.0
        self.patches = Patches()

    def install(self) -> None:
        integ = simulation.TrapezoidalIntegrator
        inner_step = integ.step

        def first_step(this, *args, **kwargs):
            self.first_step = time.monotonic()
            integ.step = inner_step
            if self.setup_only:
                raise SetupDone
            return inner_step(this, *args, **kwargs)

        def wrap_run(fn):
            def run(scenario, *args, **kwargs):
                t0 = time.perf_counter()
                traj = fn(scenario, *args, **kwargs)
                self.run_s += time.perf_counter() - t0
                self.runs.append((scenario.dt, scenario.tolerance, traj))
                return traj

            return run

        self.patches.method(integ, "step", lambda fn: first_step)
        self.patches.function(simulation, "run", wrap_run)


def run_commands(argvs: list[list[str]]) -> tuple[list[int], str]:
    codes = []
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except Exception:  # an unexpected crash is a failed operation
                traceback.print_exc()
                codes.append(-1)
    return codes, buf.getvalue()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    args = p.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
    probe = Probe(args.setup)
    probe.install()
    result: dict = {}

    if args.workload == "fleet-cluster":
        traj, planted = make_fleet(args.seed)
        probe.first_step = time.monotonic()
        if not args.setup:
            if tracer is not None:
                tracer.op += 1
            clustered = workloads.run_fleet(traj, planted)
    else:
        argvs = workloads.commands(args.workload, args.out)
        try:
            codes, stdout = run_commands(argvs)
        except SetupDone:
            pass
    result["t_first_step"] = probe.first_step
    if args.setup:
        args.result.write_text(json.dumps(result))
        return 0

    result["t_done"] = time.monotonic()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["run_s"] = probe.run_s
    result["steps"] = sum(t.times.size - 1 for _, _, t in probe.runs)
    probe.patches.restore()
    if tracer is not None:
        tracer.patches.restore()
        wall = result["t_done"] - args.t_spawn
        layers = layer_metrics(tracer, wall)
        written = sum(f.stat().st_size for f in args.out.rglob("*.csv"))
        read = 0
        if args.workload != "fleet-cluster":
            read = sum(Path(a).stat().st_size for argv in argvs for a in argv if Path(a).is_file())
        layers["cli.bytes_written"] = (written, "B")
        layers["cli.bytes_read"] = (read, "B")
        result["layers"] = layers
        (args.out / "spans.json").write_text(json.dumps(tracer.spans))

    outcome = workloads.Outcome(workloads.n_ops(args.workload))
    if args.workload == "fleet-cluster":
        workloads.check_fleet(outcome, clustered, traj, planted)
    else:
        check = {
            "ieee39_mod-run": workloads.check_ieee39_mod_run,
            "ieee39-cluster": workloads.check_ieee39_cluster,
            "twomachine-sweep": workloads.check_twomachine_sweep,
        }[args.workload]
        check(outcome, args.out, codes, stdout, probe.runs)
    result["outcome"] = outcome.to_dict()
    result["env"] = environment()
    (args.out / "values.json").write_text(json.dumps(outcome.values))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
