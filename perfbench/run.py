"""Benchmark of cfcoherency, driven from outside through `cfcoherency.cli.main`
and the public library calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  Every repetition runs in a fresh child process (perfbench/child.py),
one at a time, with BLAS pinned to one thread.  Repetitions repeat until
`--seconds` have passed (at least two, whose correctness digests must be
identical).  A fixed reference task runs before and after every child, and
the end-to-end times are scaled by it to a fixed host speed (hostspeed.py).
With `--trace 0` the end-to-end metrics are reported; with `--trace 1`
untraced and traced repetitions alternate and the per-layer metrics of the
traced ones are reported, with the tracing overhead.

Human-readable medians and quartiles go to stderr; the last line of stdout
is one JSON object.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

WORKLOADS = ("ieee39_mod-run", "ieee39-cluster", "twomachine-sweep", "fleet-cluster")
SETUP_PROBES = 4
MIN_REPS = 2
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, trace: bool, setup: bool) -> dict | None:
    """Run one child to completion; its result with `t_spawn`, or None."""
    out = WORK / workload
    out.mkdir(parents=True, exist_ok=True)
    result = out / "result.json"
    result.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out),
        "--result", str(result), "--t-spawn", repr(t_spawn),
    ] + (["--setup"] if setup else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} child timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        print(f"perfbench: {workload} child exited with {proc.returncode}", file=sys.stderr)
        return None
    data = json.loads(result.read_text())
    data["t_spawn"] = t_spawn
    return data


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(name: str, values: list[float], unit: str) -> float:
    q1, med, q3 = quartiles(values)
    print(
        f"  {name:<44} {med:>14.6g} {unit:<6} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})",
        file=sys.stderr,
    )
    return med


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Repeat the workload for `seconds`; the result object, or None when a
    set-up probe could not reach the first integration step."""
    start = time.monotonic()
    refs = [hostspeed.reference_s()]

    def timed(traced: bool, setup: bool) -> dict | None:
        """`spawn`, with the host's speed on both sides of the child as the
        mean reference-task time `ref_s`."""
        r = spawn(workload, seed, traced, setup)
        refs.append(hostspeed.reference_s())
        if r is not None:
            r["ref_s"] = (refs[-2] + refs[-1]) / 2
        return r

    def scaled(t: float, r: dict) -> float:
        return t * hostspeed.NOMINAL_S / r["ref_s"]

    setups: list[float] = []
    raw_setups: list[float] = []
    for _ in range(SETUP_PROBES):  # also warms the file cache for both modes
        r = timed(False, True)
        if r is None or r["t_first_step"] is None:
            return None
        raw_setups.append(r["t_first_step"] - r["t_spawn"])
        setups.append(scaled(raw_setups[-1], r))

    reps: list[dict] = []
    crashed = 0
    while True:
        elapsed = time.monotonic() - start
        if len(reps) + crashed >= MIN_REPS and elapsed >= seconds:
            break
        if reps and elapsed + (reps[-1]["t_done"] - reps[-1]["t_spawn"]) > RUN_BUDGET_S:
            break
        traced = trace and (len(reps) + crashed) % 2 == 1
        r = timed(traced, False)
        if r is None:
            crashed += 1
            continue
        r["traced"] = traced
        reps.append(r)

    ops_per_rep = max((r["outcome"]["ops"] for r in reps), default=1)
    attempted = sum(r["outcome"]["ops"] for r in reps) + crashed * ops_per_rep
    failed = sum(r["outcome"]["failed"] for r in reps) + crashed * ops_per_rep
    digests = {r["outcome"]["digest"] for r in reps}
    for r in reps:
        for err in r["outcome"]["errors"]:
            print(f"perfbench: check failed: {err}", file=sys.stderr)
    if len(digests) > 1:
        print("perfbench: repetitions disagree on their correctness digest", file=sys.stderr)

    (WORK / workload / "repetitions.json").write_text(json.dumps([
        {k: r[k] for k in ("traced", "t_spawn", "t_first_step", "t_done", "ref_s")} for r in reps
    ]))
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    walls = [r["t_done"] - r["t_spawn"] for r in plain]
    print(
        f"perfbench {workload} seed={seed} trace={int(trace)}: {len(reps)} repetitions, "
        f"failed_frac {failed}/{attempted}, env {reps[0]['env'] if reps else {}}",
        file=sys.stderr,
    )
    metrics: dict[str, dict] = {}

    def put(name, values, unit):
        if values:
            metrics[name] = {"value": report(name, values, unit), "unit": unit}

    if not trace:
        # The gated times are scaled to the host's speed (see hostspeed.py);
        # the times as measured go to stderr beside them.
        raw_setups += [r["t_first_step"] - r["t_spawn"] for r in plain]
        setups += [scaled(r["t_first_step"] - r["t_spawn"], r) for r in plain]
        report("measured wall_s", walls, "s")
        report("measured setup_s", raw_setups, "s")
        report("reference task", refs, "s")
        put("wall_s", [scaled(w, r) for w, r in zip(walls, plain)], "s")
        put("setup_s", setups, "s")
        put("peak_rss_mb", [r["rss_mb"] for r in plain], "MB")
    else:
        for name, (_, unit) in traced_reps[0]["layers"].items() if traced_reps else ():
            put(name, [r["layers"][name][0] for r in traced_reps], unit)
        put("sim_steps_per_s", [r["steps"] / r["run_s"] if r["run_s"] else 0.0 for r in plain],
            "1/s")
        traced_walls = [r["t_done"] - r["t_spawn"] for r in traced_reps]
        put("trace.wall_s", traced_walls, "s")
        if walls and traced_walls:
            overhead = statistics.median(traced_walls) - statistics.median(walls)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            print(f"  {'trace.overhead_s':<44} {overhead:>14.6g} s", file=sys.stderr)

    return {
        "correct": failed == 0 and len(digests) == 1 and len(reps) >= MIN_REPS,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "cfcoherency" / "__init__.py").is_file():
        print(f"perfbench: no cfcoherency sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"perfbench: {name} never reached its first step", file=sys.stderr)
            return 3
        results[name] = result
    if args.workload == "all":
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
