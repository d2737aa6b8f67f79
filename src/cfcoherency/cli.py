"""Command-line entry points: run a scenario, cluster its devices, sweep the
two-machine parameter plane, or estimate CFs from a trajectory CSV.

All numeric output is written in full-precision scientific notation with LF
line endings, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
from pathlib import Path

import numpy as np

from .coherency import (
    EVENT_MASK_PAD,
    alpha_beta_sweep,
    cluster_trajectory,
    clustered_devices,
    default_window,
    estimator_valid,
    numerical_cf,
    observer_independence_check,
)
from .errors import CfCoherencyError, SchemaError, SingularAdmittance
from .scenario_io import load_scenario, parse_window, scenario_error
from .simulation import Scenario, run

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_SOLVER = 2


FLOAT = "%.17e"  # format(x, ".17e"): exact and the same on every platform


def _out_dir(text: str) -> Path:
    """`--out`, checked before any command starts: its nearest existing
    part must be a directory, which `_write_csv` makes when it writes."""
    out = Path(text)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise SchemaError("--out", f"{existing} exists and is not a directory")
    return out


def _write_csv(path: Path, header: list[str], rows, fmt: list[str] | None = None) -> None:
    """Write `rows` under `header`, each cell in its column's %-format of
    `fmt` (by default every cell as FLOAT), making the directory if needed;
    a write that fails is an `--out` error."""
    line = ",".join(fmt or [FLOAT] * len(header)) + "\n"
    text = ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise SchemaError("--out", f"cannot write {path}: {exc.strerror}") from exc


def _table(*blocks: np.ndarray) -> list[list[float]]:
    """The rows of arrays of shape (samples,) or (samples, k) set side by
    side; a complex block gives its columns as interleaved (re, im) pairs."""
    return np.column_stack([b.view(float) if b.dtype.kind == "c" else b for b in blocks]).tolist()


def _pairs(names: list, first: str, second: str) -> list[str]:
    """Two column names per name, filled into the templates `first` and `second`."""
    return [template.format(name) for name in names for template in (first, second)]


def _solver_summary(traj) -> str:
    """What the solver did in a run, for the summary line of `run` and `cluster`."""
    return (
        f"{traj.times.size - 1} steps ({traj.filled} filled at a fixed point), "
        f"{traj.newton_iters} Newton iterations, {traj.refreshes} Newton matrix refresh(es), "
        f"{traj.residuals} residual evaluation(s), {traj.halvings} step halving(s), "
        f"{len(traj.event_times)} event(s) applied"
    )


def _cmd_run(args) -> int:
    """Write trajectory.csv (voltages, currents and the devices' closed-form
    CFs, NaN where a current is solver noise) and cf.csv (the same CFs with
    an `event_mask` that flags where `estimator_valid` is False: there a
    finite-difference CF of the recorded currents, such as the `cf` command
    computes, straddles an event)."""
    scenario = _load(args)
    out = args.out
    traj = run(scenario)
    names = traj.device_names
    cf = np.stack([traj.analytic_cf[name] for name in names], axis=-1)
    cf_header = ["time"] + _pairs(names, "rho_{}", "omega_{}")
    header = ["time"] + _pairs(traj.bus_labels, "v{}_re", "v{}_im")
    header += _pairs(names, "i_{}_re", "i_{}_im") + cf_header[1:]
    _write_csv(out / "trajectory.csv", header, _table(traj.times, traj.voltages, traj.currents, cf))
    mask = ~estimator_valid(traj)
    fmt = [FLOAT] * len(cf_header) + ["%d"]
    _write_csv(out / "cf.csv", cf_header + ["event_mask"], _table(traj.times, cf, mask), fmt)
    print(f"run: {_solver_summary(traj)}")
    print(f"wrote {out / 'trajectory.csv'} and {out / 'cf.csv'}")
    return EXIT_OK


def _cmd_cluster(args) -> int:
    """Cluster the devices on their CF distances over the analysis window.
    With an explicit window the run stops EVENT_MASK_PAD + 1 samples after
    its end, and the events after that are dropped: the run is causal, the
    sample after the window end keeps the central CF stencil at the end, and
    a dropped event's mask starts after the window, so nothing the analysis
    reads changes."""
    scenario = _load(args)
    k = args.k if args.k is not None else scenario.analysis.k_clusters
    kinds = {d.name: d.kind for d in scenario.devices}
    try:
        names = clustered_devices(kinds, k, scenario.analysis.cluster_devices)
    except ValueError as exc:
        raise SchemaError("$", str(exc)) from exc
    out = args.out
    window = scenario.analysis.window
    if window is not None:
        horizon = min(scenario.t_end, window[1] + (EVENT_MASK_PAD + 1) * scenario.dt)
        events = [ev for ev in scenario.events if ev.time <= horizon]
        scenario = dataclasses.replace(scenario, t_end=horizon, events=events)
    traj = run(scenario)
    window = window or default_window(traj)
    matrix, tree, groups = cluster_trajectory(traj, k, names, window)
    labels = matrix.labels
    _write_csv(
        out / "distance.csv",
        ["device"] + labels,
        ([name] + row for name, row in zip(labels, matrix.values.tolist())),
        ["%s"] + [FLOAT] * len(labels),
    )
    by_name = {name: gid for gid, group in enumerate(groups) for name in group}
    _write_csv(
        out / "partition.csv",
        ["device", "group"],
        ([name, by_name[name]] for name in labels),
        ["%s", "%d"],
    )
    _write_csv(
        out / "dendrogram.csv",
        ["step", "left", "right", "height"],
        ([step, *merge] for step, merge in enumerate(tree.merges)),
        ["%d", "%d", "%d", FLOAT],
    )
    print(
        f"cluster: k={k}, window=[{window[0]:g}, {window[1]:g}], simulated to "
        f"{traj.times[-1]:g} s in {_solver_summary(traj)}"
    )
    for gid, group in enumerate(groups):
        print(f"  group {gid}: {', '.join(sorted(group))}")
    if scenario.analysis.observation_points:
        try:
            dev = observer_independence_check(
                traj, scenario.network, labels[0], labels[1],
                scenario.analysis.observation_points, window,
            )
            result = f"{dev:.3e} pu"
        except SingularAdmittance as exc:  # only this check needs Z̄
            result = f"not available, the admittance matrix is singular ({exc})"
        print(f"observer-independence spot check ({labels[0]}, {labels[1]}): {result}")
    print(f"wrote distance.csv, partition.csv, dendrogram.csv under {out}")
    return EXIT_OK


def _grid_values(text: str, flag: str) -> np.ndarray:
    """Comma-separated split fractions, each strictly inside (0, 1)."""
    try:
        values = np.array([float(item) for item in text.split(",")])
    except ValueError as exc:
        raise SchemaError(flag, f"expected comma-separated numbers, got {text!r}") from exc
    if not np.all((values > 0.0) & (values < 1.0)):
        raise SchemaError(flag, "grid values must lie strictly inside (0, 1)")
    return values


def _parse_grid(args) -> tuple[np.ndarray, np.ndarray]:
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise SchemaError("$", "--alpha and --beta must be given together")
        return _grid_values(args.alpha, "--alpha"), _grid_values(args.beta, "--beta")
    if args.grid < 1:
        raise SchemaError("--grid", f"need at least 1 point per axis, got {args.grid}")
    alphas = np.linspace(0.05, 0.95, args.grid)
    return alphas, alphas


def _cmd_sweep(args) -> int:
    """Split the scenario's two machines at every grid cell and write each
    cell's coherency distance to sweep.csv; a template that cannot be split
    is rejected before any cell runs."""
    scenario = _load(args)
    alphas, betas = _parse_grid(args)
    if args.workers < 1:
        raise SchemaError("--workers", f"need at least 1 worker, got {args.workers}")
    try:
        result = alpha_beta_sweep(scenario, alphas, betas, workers=args.workers)
    except ValueError as exc:
        raise SchemaError("$", str(exc)) from exc
    out = args.out
    _write_csv(
        out / "sweep.csv",
        ["alpha\\beta"] + [FLOAT % b for b in betas],
        _table(alphas, result.values),
    )
    print(f"sweep: {alphas.size}x{betas.size} cells, {len(result.failures)} failed")
    for a, b, err in result.failures:
        print(f"  cell ({a:g}, {b:g}) failed: {err}")
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_cf(args) -> int:
    path = Path(args.trajectory)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            body = fh.read()
    except OSError as exc:
        raise SchemaError("$", f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8
        raise SchemaError("$", f"malformed CSV: {exc}") from exc
    if header[0] != "time":
        raise SchemaError("$.header", "first column must be 'time'")
    # consume leading <name>_re/<name>_im pairs; trailing extra columns (for
    # instance the CF columns of a run's trajectory.csv) are ignored
    pairs = []
    col = 1
    while col + 1 < len(header) and header[col].endswith("_re"):
        name = header[col][:-3]
        if header[col + 1] != f"{name}_im":
            raise SchemaError(f"$.header[{col + 1}]", f"expected {name}_im after {header[col]}")
        pairs.append((name, col))
        col += 2
    if not pairs:
        raise SchemaError("$.header", "no <name>_re/<name>_im column pairs found")
    if not body.strip():  # numpy would only warn
        raise SchemaError("$", "no samples after the header")
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:  # a cell that is not a number, or a ragged row
        raise SchemaError("$", f"malformed CSV: {exc}") from exc
    if data.shape[1] != len(header):
        raise SchemaError(
            "$", f"rows have {data.shape[1]} cells, but the header has {len(header)} columns"
        )
    times = data[:, 0]
    if times.size < 3:
        raise SchemaError("$", "need at least 3 samples")
    dt = float(times[-1] - times[0]) / (times.size - 1)
    if not (dt > 0.0 and np.all(np.abs(np.diff(times) - dt) <= 1e-9 * dt)):
        raise SchemaError("$.time", "time column must increase in uniform steps")
    if not 0.0 < args.f_nominal < np.inf:
        raise SchemaError("--f-nominal", "base frequency must be positive and finite")
    omega_base = 2.0 * np.pi * args.f_nominal
    cf = [numerical_cf(data[:, c] + 1j * data[:, c + 1], dt, omega_base).values for _, c in pairs]
    out = args.out
    _write_csv(
        out / "cf.csv",
        ["time"] + _pairs([name for name, _ in pairs], "rho_{}", "omega_{}"),
        _table(times, np.stack(cf, axis=-1)),
    )
    print(f"cf: {len(pairs)} signal(s), {times.size} samples")
    print(f"wrote {out / 'cf.csv'}")
    return EXIT_OK


def _load(args) -> Scenario:
    """The scenario file with the global overrides applied; rebuilding the
    scenario runs its own checks on them again."""
    scenario = load_scenario(args.scenario)
    changes = {}
    if args.dt is not None:
        changes["dt"] = args.dt
    if args.t_end is not None:
        changes["t_end"] = args.t_end
    if args.window is not None:
        window = parse_window(args.window, "--window")
        changes["analysis"] = dataclasses.replace(scenario.analysis, window=window)
    try:
        return dataclasses.replace(scenario, **changes)
    except ValueError as exc:
        raise scenario_error(exc) from exc


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Register the global flags; subcommand parsers use SUPPRESS defaults so
    a flag given before the subcommand is not clobbered afterwards."""

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--out", default=default("out"), help="output directory (default: ./out)"
    )
    parser.add_argument(
        "--dt", type=float, default=default(None), help="override integration step [s]"
    )
    parser.add_argument(
        "--t-end", type=float, default=default(None), help="override horizon [s]"
    )
    parser.add_argument(
        "--window", type=float, nargs=2, metavar=("T0", "T1"), default=default(None),
        help="override analysis window [s]",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcoherency",
        description="Transient simulation and complex-frequency coherency analysis",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario, write trajectory and CF CSVs")
    _add_global_flags(p_run, suppress=True)
    p_run.add_argument("scenario")
    p_run.set_defaults(func=_cmd_run)

    p_cluster = sub.add_parser("cluster", help="simulate and group devices by coherency")
    _add_global_flags(p_cluster, suppress=True)
    p_cluster.add_argument("scenario")
    p_cluster.add_argument("--k", type=int, default=None, help="number of groups")
    p_cluster.set_defaults(func=_cmd_cluster)

    p_sweep = sub.add_parser("sweep", help="two-machine inertia/reactance split sweep")
    _add_global_flags(p_sweep, suppress=True)
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--grid", type=int, default=21, help="NxN grid over [0.05, 0.95]")
    p_sweep.add_argument("--alpha", default=None, help="explicit comma-separated alpha values")
    p_sweep.add_argument("--beta", default=None, help="explicit comma-separated beta values")
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cf = sub.add_parser("cf", help="numerical CF of a trajectory CSV")
    _add_global_flags(p_cf, suppress=True)
    p_cf.add_argument("trajectory")
    p_cf.add_argument("--f-nominal", type=float, default=60.0, help="base frequency [Hz]")
    p_cf.set_defaults(func=_cmd_cf)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which is the solver-failure code here
        return EXIT_SCHEMA if exc.code else EXIT_OK
    try:
        args.out = _out_dir(args.out)
        code = args.func(args)
        sys.stdout.flush()  # a block-buffered stdout finds a closed pipe here
        return code
    except BrokenPipeError:
        # stdout was closed; each command writes its files before it prints
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except CfCoherencyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
