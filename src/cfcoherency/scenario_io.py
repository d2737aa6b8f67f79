"""Scenario file parsing and validation.

Scenario documents are JSON with a fixed schema; unknown keys are rejected
and every cross-reference (bus ids, device names, event targets) is resolved
at parse time.  Bus ids in the file may follow any dataset numbering; they
are mapped to contiguous internal indices and the original labels are kept
for reporting.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path

from .coherency import ObservationPoint
from .devices import (
    Device,
    GridFollowingConverter,
    GridFormingConverter,
    IbrFilter,
    SynchronousMachine,
    ZipLoad,
)
from .errors import SchemaError
from .network import Branch, Bus, Network, Shunt
from .simulation import EVENT_ACTIONS, AnalysisOptions, Event, Scenario

_SYSTEM_KEYS = {"f_nominal": float, "s_base": float}
_BUS_KEYS = {"id": int, "kind": str, "v_set": float}
_BRANCH_KEYS = {"from": int, "to": int, "r": float, "x": float, "b": float, "tap": float}
_SHUNT_KEYS = {"bus": int, "g": float, "b": float}
_SIM_KEYS = {"t_end": float, "dt": float, "tolerance": float}
_ANALYSIS_KEYS = {
    "window": list,
    "k_clusters": int,
    "observation_points": list,
    "cluster_devices": list,
}
_EVENT_KEYS = {
    "load_scale": {"time": float, "action": str, "bus": int, "factor": float},
    "load_disconnect_mw": {"time": float, "action": str, "bus": int, "amount": float},
    "set_parameter": {
        "time": float,
        "action": str,
        "device": str,
        "name": str,
        "value": float,
    },
}
_DEVICE_KEYS = {
    "sm": {
        "type": str,
        "name": str,
        "bus": int,
        "inertia": float,
        "xd_prime": float,
        "damping": float,
        "p": float,
        "q_weight": float,
    },
    "zip": {
        "type": str,
        "name": str,
        "bus": int,
        "p": float,
        "q": float,
        "kz_p": float,
        "ki_p": float,
        "kp_p": float,
        "kz_q": float,
        "ki_q": float,
        "kp_q": float,
    },
    "gfl": {
        "type": str,
        "name": str,
        "bus": int,
        "p": float,
        "r_filter": float,
        "x_filter": float,
        "g_filter": float,
        "b_filter": float,
        "v_dc": float,
        "kp_current": float,
        "ki_current": float,
        "t_measure": float,
        "kp_pll": float,
        "ki_pll": float,
        "omega_ref": float,
    },
    "gfm": {
        "type": str,
        "name": str,
        "bus": int,
        "p": float,
        "r_filter": float,
        "x_filter": float,
        "g_filter": float,
        "b_filter": float,
        "v_dc": float,
        "kp_voltage": float,
        "ki_voltage": float,
        "t_voltage": float,
        "t_power": float,
        "droop": float,
    },
}

_TOP_KEYS = ("system", "buses", "branches", "shunts", "devices", "events", "simulation", "analysis")


def _check_keys(obj: dict, allowed: dict, path: str, required=()) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing required key {key!r}")


def _number(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        if default is None:
            raise SchemaError(path, f"missing required key {key!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}", f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise SchemaError(f"{path}.{key}", "value must be finite")
    return float(value)


def _string(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        if default is None:
            raise SchemaError(path, f"missing required key {key!r}")
        return default
    value = obj[key]
    if not isinstance(value, str):
        raise SchemaError(f"{path}.{key}", f"expected a string, got {value!r}")
    return value


def parse_window(win, path: str) -> tuple[float, float]:
    """An analysis window [t_start, t_end] of finite numbers with t_start < t_end."""
    if not (isinstance(win, (list, tuple)) and len(win) == 2):
        raise SchemaError(path, "expected [t_start, t_end]")
    bounds = {"t_start": win[0], "t_end": win[1]}
    t_start, t_end = (_number(bounds, key, path) for key in bounds)
    if not t_start < t_end:
        raise SchemaError(path, f"t_start {t_start:g} must be below t_end {t_end:g}")
    return t_start, t_end


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("$", "scenario document must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise SchemaError(f"$.{key}", "unknown section")
    for key in ("system", "buses", "devices", "simulation"):
        if key not in doc:
            raise SchemaError("$", f"missing required section {key!r}")

    sys_obj = doc["system"]
    _check_keys(sys_obj, _SYSTEM_KEYS, "$.system", required=("f_nominal", "s_base"))
    f_nominal = _number(sys_obj, "f_nominal", "$.system")
    s_base = _number(sys_obj, "s_base", "$.system")
    if f_nominal <= 0 or s_base <= 0:
        raise SchemaError("$.system", "f_nominal and s_base must be positive")

    # -- buses ---------------------------------------------------------------
    if not isinstance(doc["buses"], list) or not doc["buses"]:
        raise SchemaError("$.buses", "expected a non-empty array")
    raw_buses = []
    labels: list[int] = []
    for i, b in enumerate(doc["buses"]):
        path = f"$.buses[{i}]"
        _check_keys(b, _BUS_KEYS, path, required=("id", "kind"))
        label = b["id"]
        if isinstance(label, bool) or not isinstance(label, int):
            raise SchemaError(f"{path}.id", "bus id must be an integer")
        kind = _string(b, "kind", path)
        if kind not in ("slack", "generation", "load"):
            raise SchemaError(f"{path}.kind", f"unknown bus kind {kind!r}")
        v_set = _number(b, "v_set", path, default=1.0)
        if label in labels:
            raise SchemaError(f"{path}.id", f"duplicate bus id {label}")
        labels.append(label)
        raw_buses.append((label, kind, v_set))
    order = sorted(range(len(labels)), key=lambda k: labels[k])
    index_of = {raw_buses[k][0]: pos for pos, k in enumerate(order)}
    buses = [
        Bus(pos, kind=raw_buses[k][1], v_set=raw_buses[k][2], label=raw_buses[k][0])
        for pos, k in enumerate(order)
    ]

    def bus_ref(obj: dict, key: str, path: str) -> int:
        raw = obj.get(key)
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise SchemaError(f"{path}.{key}", "expected an integer bus id")
        if raw not in index_of:
            raise SchemaError(f"{path}.{key}", f"unknown bus id {raw}")
        return index_of[raw]

    # -- branches / shunts -----------------------------------------------------
    branches = []
    for i, br in enumerate(doc.get("branches", [])):
        path = f"$.branches[{i}]"
        _check_keys(br, _BRANCH_KEYS, path, required=("from", "to", "r", "x"))
        branches.append(
            Branch(
                from_bus=bus_ref(br, "from", path),
                to_bus=bus_ref(br, "to", path),
                resistance=_number(br, "r", path),
                reactance=_number(br, "x", path),
                charging=_number(br, "b", path, default=0.0),
                tap=_number(br, "tap", path, default=1.0),
            )
        )
    shunts = []
    for i, sh in enumerate(doc.get("shunts", [])):
        path = f"$.shunts[{i}]"
        _check_keys(sh, _SHUNT_KEYS, path, required=("bus",))
        shunts.append(
            Shunt(
                bus=bus_ref(sh, "bus", path),
                conductance=_number(sh, "g", path, default=0.0),
                susceptance=_number(sh, "b", path, default=0.0),
            )
        )
    network = Network(buses, branches, shunts)

    # -- devices ----------------------------------------------------------------
    omega_base = 2.0 * math.pi * f_nominal
    devices: list[Device] = []
    if not isinstance(doc["devices"], list) or not doc["devices"]:
        raise SchemaError("$.devices", "expected a non-empty array")
    for i, d in enumerate(doc["devices"]):
        path = f"$.devices[{i}]"
        if not isinstance(d, dict):
            raise SchemaError(path, "expected an object")
        dtype = _string(d, "type", path)
        if dtype not in _DEVICE_KEYS:
            raise SchemaError(f"{path}.type", f"unknown device type {dtype!r}")
        _check_keys(d, _DEVICE_KEYS[dtype], path, required=("type", "name", "bus"))
        name = _string(d, "name", path)
        bus = bus_ref(d, "bus", path)
        try:
            devices.append(_build_device(dtype, name, bus, d, omega_base, path))
        except (ValueError,) as exc:
            raise SchemaError(path, str(exc)) from exc
    names = [d.name for d in devices]

    # -- events -------------------------------------------------------------
    events = []
    for i, ev in enumerate(doc.get("events", [])):
        path = f"$.events[{i}]"
        if not isinstance(ev, dict):
            raise SchemaError(path, "expected an object")
        action = _string(ev, "action", path)
        if action not in _EVENT_KEYS:
            raise SchemaError(f"{path}.action", f"unknown action {action!r}")
        _check_keys(ev, _EVENT_KEYS[action], path, required=tuple(_EVENT_KEYS[action]))
        if action == "set_parameter":
            fields = {"device": _string(ev, "device", path), "param": _string(ev, "name", path)}
        else:
            fields = {"bus": bus_ref(ev, "bus", path)}
        number = EVENT_ACTIONS[action]  # factor, amount or value
        fields[number] = _number(ev, number, path)
        # the targets and the disconnected amounts are checked by `Scenario`
        events.append(Event(_number(ev, "time", path), action, **fields))

    # -- simulation / analysis ---------------------------------------------------
    sim = doc["simulation"]
    _check_keys(sim, _SIM_KEYS, "$.simulation", required=("t_end", "dt"))
    t_end = _number(sim, "t_end", "$.simulation")
    dt = _number(sim, "dt", "$.simulation")
    tolerance = _number(sim, "tolerance", "$.simulation", default=1e-8)

    analysis = AnalysisOptions()
    if "analysis" in doc:
        an = doc["analysis"]
        _check_keys(an, _ANALYSIS_KEYS, "$.analysis")
        if an.get("window") is not None:
            analysis.window = parse_window(an["window"], "$.analysis.window")
        if "k_clusters" in an:
            k = an["k_clusters"]
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise SchemaError("$.analysis.k_clusters", "expected a positive integer")
            analysis.k_clusters = k
        for i, pt in enumerate(an.get("observation_points", [])):
            path = f"$.analysis.observation_points[{i}]"
            if isinstance(pt, list) and len(pt) == 2:
                h = index_of.get(pt[0])
                j = index_of.get(pt[1])
                if h is None or j is None:
                    raise SchemaError(path, f"unknown bus id in {pt}")
                if not network.has_branch(h, j):
                    raise SchemaError(path, f"no branch between buses {pt[0]} and {pt[1]}")
                analysis.observation_points.append(ObservationPoint(h, towards_bus=j))
            elif isinstance(pt, dict):
                _check_keys(pt, {"bus": int, "device": str}, path, required=("bus", "device"))
                bus = bus_ref(pt, "bus", path)
                dev_name = _string(pt, "device", path)
                if dev_name not in names:
                    raise SchemaError(f"{path}.device", f"unknown device {dev_name!r}")
                analysis.observation_points.append(ObservationPoint(bus, device=dev_name))
            else:
                raise SchemaError(path, "expected [from_bus, to_bus] or {bus, device}")
        if an.get("cluster_devices") is not None:
            sel = an["cluster_devices"]
            if not isinstance(sel, list) or not all(isinstance(s, str) for s in sel):
                raise SchemaError("$.analysis.cluster_devices", "expected device names")
            if len(set(sel)) != len(sel):
                raise SchemaError("$.analysis.cluster_devices", "device names repeat")
            for s in sel:
                if s not in names:
                    raise SchemaError("$.analysis.cluster_devices", f"unknown device {s!r}")
            analysis.cluster_devices = list(sel)

    try:
        return Scenario(
            network=network,
            devices=devices,
            events=events,
            t_end=t_end,
            dt=dt,
            tolerance=tolerance,
            omega_base=omega_base,
            s_base=s_base,
            analysis=analysis,
        )
    except ValueError as exc:
        raise SchemaError("$", str(exc)) from exc


def _build_device(
    dtype: str, name: str, bus: int, d: dict, omega_base: float, path: str
) -> Device:
    if dtype == "sm":
        return SynchronousMachine(
            name,
            bus,
            inertia=_number(d, "inertia", path),
            xd_prime=_number(d, "xd_prime", path),
            omega_base=omega_base,
            damping=_number(d, "damping", path, default=0.0),
            p=_number(d, "p", path),
            q_weight=_number(d, "q_weight", path) if "q_weight" in d else None,
        )
    if dtype == "zip":
        return ZipLoad(
            name,
            bus,
            p0=_number(d, "p", path),
            q0=_number(d, "q", path, default=0.0),
            kz_p=_number(d, "kz_p", path, default=1.0),
            ki_p=_number(d, "ki_p", path, default=0.0),
            kp_p=_number(d, "kp_p", path, default=0.0),
            kz_q=_number(d, "kz_q", path, default=1.0),
            ki_q=_number(d, "ki_q", path, default=0.0),
            kp_q=_number(d, "kp_q", path, default=0.0),
        )
    filt = IbrFilter(
        complex(_number(d, "r_filter", path, default=0.0), _number(d, "x_filter", path)),
        complex(_number(d, "g_filter", path, default=0.0), _number(d, "b_filter", path, default=0.0)),
        v_dc=_number(d, "v_dc", path, default=1.0),
    )
    if dtype == "gfl":
        return GridFollowingConverter(
            name,
            bus,
            filt,
            omega_base,
            kp_current=_number(d, "kp_current", path, default=0.2),
            ki_current=_number(d, "ki_current", path, default=5.0),
            t_measure=_number(d, "t_measure", path, default=0.01),
            kp_pll=_number(d, "kp_pll", path, default=0.1),
            ki_pll=_number(d, "ki_pll", path, default=1.0),
            omega_ref=_number(d, "omega_ref", path, default=1.0),
            p=_number(d, "p", path),
        )
    return GridFormingConverter(
        name,
        bus,
        filt,
        omega_base,
        kp_voltage=_number(d, "kp_voltage", path, default=0.05),
        ki_voltage=_number(d, "ki_voltage", path, default=5.0),
        t_voltage=_number(d, "t_voltage", path, default=0.02),
        t_power=_number(d, "t_power", path, default=0.1),
        droop=_number(d, "droop", path, default=0.02),
        p=_number(d, "p", path),
    )


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}") from exc
    return parse_scenario(doc)


def bundled_scenario_path(name: str) -> Path:
    """Path of one of the packaged scenario files (twomachine, ieee39, ieee39_mod)."""
    candidate = resources.files("cfcoherency.data").joinpath(f"{name}.json")
    with resources.as_file(candidate) as p:
        if not p.exists():
            raise FileNotFoundError(f"no bundled scenario named {name!r}")
        return p
