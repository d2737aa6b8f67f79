"""Scenario file parsing and validation.

Scenario documents are JSON with a fixed schema; unknown keys are rejected
and every cross-reference (bus ids, device names, event targets) is resolved
at parse time.  Bus ids in the file may follow any dataset numbering; they
are mapped to contiguous internal indices and the original labels are kept
for reporting.

Each kind of object is declared once, as a table {JSON key: `Key`} that names
the constructor argument the key fills and whether the file must give it.  A
key the file leaves out is not passed, so every default lives in its
constructor.
"""

from __future__ import annotations

import dataclasses
import json
import math
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

from .coherency import ObservationPoint
from .devices import (
    GridFollowingConverter,
    GridFormingConverter,
    SynchronousMachine,
    ZipLoad,
)
from .errors import CfCoherencyError, EventError, SchemaError
from .network import BUS_KINDS, Branch, Bus, Network, Shunt
from .simulation import AnalysisOptions, Event, Scenario


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise SchemaError(path, "value must be finite")
    return float(value)


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {value!r}")
    return value


def _label(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "bus id must be an integer")
    return value


def _count(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError(path, "expected a positive integer")
    return value


def _array(value, path: str, non_empty: bool = False) -> list:
    if not isinstance(value, list) or (non_empty and not value):
        raise SchemaError(path, "expected a non-empty array" if non_empty else "expected an array")
    return value


def _device_names(value, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise SchemaError(path, "expected device names")
    if len(set(value)) != len(value):
        raise SchemaError(path, "device names repeat")
    return list(value)


def parse_window(win, path: str) -> tuple[float, float]:
    """An analysis window [t_start, t_end] of finite numbers with t_start < t_end."""
    if not (isinstance(win, (list, tuple)) and len(win) == 2):
        raise SchemaError(path, "expected [t_start, t_end]")
    t_start = _number(win[0], f"{path}.t_start")
    t_end = _number(win[1], f"{path}.t_end")
    if not t_start < t_end:
        raise SchemaError(path, f"t_start {t_start:g} must be below t_end {t_end:g}")
    return t_start, t_end


_BUS_REF = None  # `Key.read` of a reference to a declared bus, resolved to its index


class Key(NamedTuple):
    """A JSON key of a scenario object: the constructor argument it fills,
    whether the file must give it, and the reader of its value, which
    checks it and returns the argument (`_BUS_REF`: a bus reference)."""

    arg: str
    required: bool = False
    read: Callable | None = _number


def _required(*names: str) -> dict[str, Key]:
    """Required numbers whose keys are their constructor arguments."""
    return {name: Key(name, True) for name in names}


def _optional(*names: str) -> dict[str, Key]:
    """Optional numbers whose keys are their constructor arguments."""
    return {name: Key(name) for name in names}


_SECTIONS = ("system", "buses", "branches", "shunts", "devices", "events", "simulation", "analysis")
_REQUIRED_SECTIONS = ("system", "buses", "devices", "simulation")

_SYSTEM = _required("f_nominal", "s_base")
_BUS = {"id": Key("label", True, _label), "kind": Key("kind", True, _string), "v_set": Key("v_set")}
_BRANCH = {
    "from": Key("from_bus", True, _BUS_REF),
    "to": Key("to_bus", True, _BUS_REF),
    "r": Key("resistance", True),
    "x": Key("reactance", True),
    "b": Key("charging"),
    "tap": Key("tap"),
}
_SHUNT = {"bus": Key("bus", True, _BUS_REF), "g": Key("conductance"), "b": Key("susceptance")}
_SIMULATION = _required("t_end", "dt") | _optional("tolerance")
_ANALYSIS = {
    "window": Key("window", read=parse_window),
    "k_clusters": Key("k_clusters", read=_count),
    "observation_points": Key("observation_points", read=_array),
    "cluster_devices": Key("cluster_devices", read=_device_names),
}
_OBSERVER = {"bus": Key("bus", True, _BUS_REF), "device": Key("device", True, _string)}

_EVENT = {"time": Key("time", True), "action": Key("action", True, _string)}
_AT_BUS = {"bus": Key("bus", True, _BUS_REF)}
_ON_DEVICE = {"device": Key("device", True, _string), "name": Key("param", True, _string)}
_EVENTS = {
    "load_scale": _EVENT | _AT_BUS | _required("factor"),
    "load_disconnect_mw": _EVENT | _AT_BUS | _required("amount"),
    "set_parameter": _EVENT | _ON_DEVICE | _required("value"),
}

_DEVICE = {
    "type": Key("type", True, _string),
    "name": Key("name", True, _string),
    "bus": Key("bus", True, _BUS_REF),
    "p": Key("p", True),
}
# the keys of a converter's output filter
_FILTER = _optional("r_filter") | _required("x_filter") | _optional("g_filter", "b_filter", "v_dc")
# one row per device type: its class and the keys of its entry
_DEVICES = {
    "sm": (SynchronousMachine, _DEVICE | _required("inertia", "xd_prime")
           | _optional("damping", "q_weight")),
    "zip": (ZipLoad, _DEVICE | {"p": Key("p0", True), "q": Key("q0")}
            | _optional("kz_p", "ki_p", "kp_p", "kz_q", "ki_q", "kp_q")),
    "gfl": (GridFollowingConverter, _DEVICE | _FILTER
            | _optional("kp_current", "ki_current", "t_measure", "kp_pll", "ki_pll")),
    "gfm": (GridFormingConverter, _DEVICE | _FILTER
            | _optional("kp_voltage", "ki_voltage", "t_voltage", "t_power", "droop")),
}


def _read(obj, table: dict[str, Key], path: str, index_of: dict[int, int] | None = None) -> dict:
    """The constructor arguments that the JSON object `obj` at `path` gives
    by `table`.  Checks, in this order: `obj` is an object, it has no
    unknown key, it has every required key, and each value reads."""
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in table:
            raise SchemaError(f"{path}.{key}", "unknown key")
    for key, spec in table.items():
        if spec.required and key not in obj:
            raise SchemaError(path, f"missing required key {key!r}")
    args = {}
    for key, value in obj.items():
        arg, _, read = table[key]
        where = f"{path}.{key}"
        args[arg] = _bus(value, where, index_of) if read is _BUS_REF else read(value, where)
    return args


def _bus(value, path: str, index_of: dict[int, int]) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "expected an integer bus id")
    if value not in index_of:
        raise SchemaError(path, f"unknown bus id {value}")
    return index_of[value]


def _select(obj, key: str, rows: dict, path: str, what: str):
    """The row of `rows` that the JSON object `obj` names in `key`."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if key not in obj:
        raise SchemaError(path, f"missing required key {key!r}")
    name = _string(obj[key], f"{path}.{key}")
    if name not in rows:
        raise SchemaError(f"{path}.{key}", f"unknown {what} {name!r}")
    return rows[name]


def _construct(path: str, cls, **args):
    """`cls(**args)`, with a failed check of the constructor reported at `path`."""
    try:
        return cls(**args)
    except (ValueError, CfCoherencyError) as exc:
        raise SchemaError(path, str(exc)) from exc


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("$", "scenario document must be a JSON object")
    for key in doc:
        if key not in _SECTIONS:
            raise SchemaError(f"$.{key}", "unknown section")
    for key in _REQUIRED_SECTIONS:
        if key not in doc:
            raise SchemaError("$", f"missing required section {key!r}")

    system = _read(doc["system"], _SYSTEM, "$.system")
    omega_base = 2.0 * math.pi * system["f_nominal"]

    rows = {}
    for i, b in enumerate(_array(doc["buses"], "$.buses", non_empty=True)):
        path = f"$.buses[{i}]"
        row = _read(b, _BUS, path)
        if row["kind"] not in BUS_KINDS:
            raise SchemaError(f"{path}.kind", f"unknown bus kind {row['kind']!r}")
        if row["label"] in rows:
            raise SchemaError(f"{path}.id", f"duplicate bus id {row['label']}")
        rows[row["label"]] = row
    # the internal indices follow the labels
    buses = [Bus(index, **rows[label]) for index, label in enumerate(sorted(rows))]
    index_of = {bus.label: bus.index for bus in buses}

    branches = []
    for i, br in enumerate(_array(doc.get("branches", []), "$.branches")):
        path = f"$.branches[{i}]"
        args = _read(br, _BRANCH, path, index_of)
        # built on the file's bus ids first, so that its checks name them
        ends = {"from_bus": br["from"], "to_bus": br["to"]}
        branch = _construct(path, Branch, **args | ends)
        branches.append(dataclasses.replace(branch, **{key: args[key] for key in ends}))
    shunts = []
    for i, sh in enumerate(_array(doc.get("shunts", []), "$.shunts")):
        path = f"$.shunts[{i}]"
        shunts.append(_construct(path, Shunt, **_read(sh, _SHUNT, path, index_of)))
    network = _construct("$.branches", Network, buses=buses, branches=branches, shunts=shunts)

    devices = []
    for i, d in enumerate(_array(doc["devices"], "$.devices", non_empty=True)):
        path = f"$.devices[{i}]"
        cls, keys = _select(d, "type", _DEVICES, path, "device type")
        args = _read(d, keys, path, index_of)
        del args["type"]
        devices.append(_construct(path, cls, **args))
    names = {d.name for d in devices}

    events = []
    for i, ev in enumerate(_array(doc.get("events", []), "$.events")):
        path = f"$.events[{i}]"
        keys = _select(ev, "action", _EVENTS, path, "action")
        # the targets and the disconnected amounts are checked by `Scenario.check`
        events.append(Event(**_read(ev, keys, path, index_of)))

    simulation = _read(doc["simulation"], _SIMULATION, "$.simulation")

    analysis = _read(doc.get("analysis", {}), _ANALYSIS, "$.analysis")
    if "observation_points" in analysis:
        analysis["observation_points"] = [
            _observation_point(pt, f"$.analysis.observation_points[{i}]", index_of, network, names)
            for i, pt in enumerate(analysis["observation_points"])
        ]
    for name in analysis.get("cluster_devices", ()):
        if name not in names:
            raise SchemaError("$.analysis.cluster_devices", f"unknown device {name!r}")

    try:
        return Scenario(
            network=network,
            devices=devices,
            events=events,
            omega_base=omega_base,
            s_base=system["s_base"],
            analysis=AnalysisOptions(**analysis),
            **simulation,
        )
    except ValueError as exc:
        raise scenario_error(exc) from exc


def _observation_point(pt, path: str, index_of, network: Network, names) -> ObservationPoint:
    """A branch [from_bus, to_bus] or a device's draw {bus, device}."""
    if isinstance(pt, list) and len(pt) == 2:
        h, j = (_bus(end, path, index_of) for end in pt)
        if not network.has_branch(h, j):
            raise SchemaError(path, f"no branch between buses {pt[0]} and {pt[1]}")
        return ObservationPoint(h, towards_bus=j)
    if isinstance(pt, dict):
        point = _read(pt, _OBSERVER, path, index_of)
        if point["device"] not in names:
            raise SchemaError(f"{path}.device", f"unknown device {point['device']!r}")
        return ObservationPoint(**point)
    raise SchemaError(path, "expected [from_bus, to_bus] or {bus, device}")


def scenario_error(exc: ValueError) -> SchemaError:
    """The schema error for a scenario that failed its own checks: a bad
    event is located by its index, anything else at the document root."""
    path = f"$.events[{exc.index}]" if isinstance(exc, EventError) else "$"
    return SchemaError(path, str(exc))


def load_scenario(path: str | Path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError("$", f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    return parse_scenario(doc)


def bundled_scenario_path(name: str) -> Path:
    """Path of one of the packaged scenario files (twomachine, ieee39, ieee39_mod)."""
    candidate = resources.files("cfcoherency.data").joinpath(f"{name}.json")
    with resources.as_file(candidate) as p:
        if not p.exists():
            raise FileNotFoundError(f"no bundled scenario named {name!r}")
        return p
