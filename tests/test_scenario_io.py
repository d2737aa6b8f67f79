from __future__ import annotations

import inspect
import json
import math

import numpy as np
import pytest

from cfcoherency.coherency import ObservationPoint
from cfcoherency.devices import (
    GridFollowingConverter,
    GridFormingConverter,
    SynchronousMachine,
    ZipLoad,
)
from cfcoherency.errors import SchemaError
from cfcoherency.network import Branch, Bus, Shunt
from cfcoherency.scenario_io import (
    _BRANCH,
    _BUS,
    _DEVICES,
    _EVENTS,
    _OBSERVER,
    _SHUNT,
    _SIMULATION,
    Key,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
)
from cfcoherency.simulation import EVENT_ACTIONS, Event, Scenario

OMEGA_60 = 2 * math.pi * 60.0
POINTS = "$.analysis.observation_points"


def minimal_doc():
    return {
        "system": {"f_nominal": 60.0, "s_base": 100.0},
        "buses": [
            {"id": 1, "kind": "slack", "v_set": 1.0},
            {"id": 2, "kind": "load"},
        ],
        "branches": [{"from": 1, "to": 2, "r": 0.01, "x": 0.1, "b": 0.02}],
        "devices": [
            {"type": "sm", "name": "G1", "bus": 1, "inertia": 8.0, "xd_prime": 0.1, "p": 0.5},
            {"type": "zip", "name": "L1", "bus": 2, "p": 0.5, "q": 0.1},
        ],
        "events": [{"time": 1.0, "action": "load_scale", "bus": 2, "factor": 1.1}],
        "simulation": {"t_end": 2.0, "dt": 0.001},
        "analysis": {"k_clusters": 1, "observation_points": [[1, 2]]},
    }


class TestParse:
    def test_minimal_document(self):
        sc = parse_scenario(minimal_doc())
        assert sc.network.n_bus == 2
        assert [d.name for d in sc.devices] == ["G1", "L1"]
        assert sc.events[0].bus == 1  # internal index of dataset bus 2
        assert sc.omega_base == pytest.approx(2 * 3.141592653589793 * 60.0)

    def test_bus_labels_may_be_sparse(self):
        doc = minimal_doc()
        doc["buses"][0]["id"] = 10
        doc["buses"][1]["id"] = 39
        doc["branches"][0] = {"from": 10, "to": 39, "r": 0.01, "x": 0.1}
        doc["devices"][0]["bus"] = 10
        doc["devices"][1]["bus"] = 39
        doc["events"][0]["bus"] = 39
        doc["analysis"]["observation_points"] = [[10, 39]]
        sc = parse_scenario(doc)
        assert [b.label for b in sc.network.buses] == [10, 39]
        assert [b.index for b in sc.network.buses] == [0, 1]

    @pytest.mark.parametrize(
        "mutate, path_fragment",
        [
            (lambda d: d.update(extra=1), "$.extra"),
            (lambda d: d["system"].update(frequency=50), "$.system.frequency"),
            (lambda d: d["buses"][0].update(voltage=1.0), "$.buses[0].voltage"),
            (lambda d: d["devices"][0].update(h=3.0), "$.devices[0].h"),
            (lambda d: d["events"][0].update(ramp=1), "$.events[0].ramp"),
            (lambda d: d.update(shunts=[{"bus": 2, "b": 0.1, "x": 0.3}]), "$.shunts[0].x"),
        ],
    )
    def test_unknown_keys_rejected(self, mutate, path_fragment):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert path_fragment in str(err.value)

    def test_duplicate_bus_id_rejected(self):
        doc = minimal_doc()
        doc["buses"][1]["id"] = 1
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_unknown_bus_reference(self):
        doc = minimal_doc()
        doc["devices"][1]["bus"] = 7
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert "$.devices[1].bus" in str(err.value)

    def test_event_without_load_rejected(self):
        doc = minimal_doc()
        doc["events"][0]["bus"] = 1
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert err.value.path == "$.events[0]"
        assert "no load at bus 1" in str(err.value)

    def test_event_unknown_parameter_rejected(self):
        doc = minimal_doc()
        doc["events"] = [
            {"time": 1.0, "action": "set_parameter", "device": "G1", "name": "xd", "value": 0.2}
        ]
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_shunt_enters_the_admittance_diagonal(self):
        doc = minimal_doc()
        plain = parse_scenario(doc).network.admittance()
        doc["shunts"] = [{"bus": 2, "g": 0.05, "b": -0.2}]
        added = parse_scenario(doc).network.admittance() - plain
        assert added[1, 1] == pytest.approx(0.05 - 0.2j, abs=1e-15)
        assert np.count_nonzero(added) == 1

    def test_unknown_event_action_rejected(self):
        doc = minimal_doc()
        doc["events"][0]["action"] = "trip"
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert str(err.value) == "$.events[0].action: unknown action 'trip'"

    def test_duplicate_device_names_rejected(self):
        doc = minimal_doc()
        doc["devices"][1]["name"] = "G1"
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert str(err.value) == "$: device names must be unique"

    def test_observation_point_needs_branch(self):
        doc = minimal_doc()
        doc["analysis"]["observation_points"] = [[2, 1], [1, 1]]
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    def test_bad_zip_fractions_reported_with_path(self):
        doc = minimal_doc()
        doc["devices"][1].update(kz_p=0.5, ki_p=0.2, kp_p=0.2)
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert "$.devices[1]" in str(err.value)

    def test_window_is_kept(self):
        doc = minimal_doc()
        doc["analysis"]["window"] = [1.0, 1.5]
        assert parse_scenario(doc).analysis.window == (1.0, 1.5)

    @pytest.mark.parametrize(
        "window", [["a", 2], [True, 2], [float("nan"), 1], [2, 1], [1, 1], [1], "1,2"]
    )
    def test_bad_window_rejected(self, window):
        doc = minimal_doc()
        doc["analysis"]["window"] = window
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert "$.analysis.window" in str(err.value)

    def test_window_must_end_within_horizon(self):
        doc = minimal_doc()
        doc["analysis"]["window"] = [1.0, 2.0]
        assert parse_scenario(doc).analysis.window == (1.0, 2.0)
        doc["analysis"]["window"] = [1.0, 2.5]
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert "analysis window [1, 2.5] ends after t_end 2" in str(err.value)

    def test_repeated_cluster_device_rejected(self):
        doc = minimal_doc()
        doc["analysis"]["cluster_devices"] = ["G1", "G1"]
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert "$.analysis.cluster_devices" in str(err.value)

    def test_event_outside_horizon_rejected(self):
        doc = minimal_doc()
        doc["events"][0]["time"] = 5.0
        with pytest.raises(SchemaError):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda d: d["branches"][0].update(to=1), "$.branches[0]"),
            (lambda d: d["branches"][0].update(tap=0), "$.branches[0]"),
            (lambda d: d["branches"][0].update(tap=-1), "$.branches[0]"),
            (lambda d: d["branches"][0].update(r=0, x=0), "$.branches[0]"),
            (lambda d: d.update(branches=[]), "$.branches"),  # two buses
            (lambda d: d.update(branches=3), "$.branches"),
            (lambda d: d.update(branches=None), "$.branches"),
            (lambda d: d.update(shunts=3), "$.shunts"),
            (lambda d: d.update(shunts=None), "$.shunts"),
            (lambda d: d.update(events=3), "$.events"),
            (lambda d: d.update(events=None), "$.events"),
            (lambda d: d["analysis"].update(observation_points=3), POINTS),
            (lambda d: d["analysis"].update(observation_points=None), POINTS),
            (lambda d: d["analysis"].update(observation_points={}), POINTS),
            (lambda d: d["analysis"].update(observation_points=[[[1], 2]]), POINTS + "[0]"),
            (lambda d: d["analysis"].update(window=None), "$.analysis.window"),
            (lambda d: d["analysis"].update(cluster_devices=None), "$.analysis.cluster_devices"),
        ],
        ids=[
            "self-loop", "tap-zero", "tap-negative", "zero-impedance", "no-branches",
            "branches-number", "branches-null", "shunts-number", "shunts-null",
            "events-number", "events-null", "points-number", "points-null", "points-object",
            "point-with-a-list-as-bus", "window-null", "cluster-devices-null",
        ],
    )
    def test_malformed_entry_reported_at_its_path(self, mutate, path):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert err.value.path == path

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["branches"][0].update({"from": 2}),
             "$.branches[0]: branch endpoints coincide at bus 2"),
            (lambda d: d["branches"][4].update(x=0),
             "$.branches[4]: branch 2-30 has zero series impedance"),
            (lambda d: d.update(branches=[]),
             "$.branches: buses unreachable from bus 1: [2, 3, 4, "),
        ],
        ids=["self-loop", "zero-impedance", "no-branches"],
    )
    def test_network_errors_name_the_file_bus_ids(self, mutate, message):
        # ieee39 numbers its buses from 1, so an internal index is off by one
        doc = json.loads(bundled_scenario_path("ieee39").read_text())
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            parse_scenario(doc)
        assert str(err.value).startswith(message)


# an entry of each device type with only the required keys, and the same
# device built with only the required constructor arguments
REQUIRED_ONLY = {
    "sm": (
        {"inertia": 8.0, "xd_prime": 0.1, "p": 0.5},
        lambda: SynchronousMachine("D", 1, inertia=8.0, xd_prime=0.1, omega_base=OMEGA_60, p=0.5),
    ),
    "zip": ({"p": 0.5}, lambda: ZipLoad("D", 1, p0=0.5)),
    "gfl": (
        {"p": 0.5, "x_filter": 0.15},
        lambda: GridFollowingConverter("D", 1, x_filter=0.15, omega_base=OMEGA_60, p=0.5),
    ),
    "gfm": (
        {"p": 0.5, "x_filter": 0.15},
        lambda: GridFormingConverter("D", 1, x_filter=0.15, omega_base=OMEGA_60, p=0.5),
    ),
}


class TestSingleDeclaration:
    def test_every_device_type_is_covered(self):
        assert set(REQUIRED_ONLY) == set(_DEVICES)

    @pytest.mark.parametrize("dtype", sorted(REQUIRED_ONLY))
    def test_omitted_keys_take_the_constructor_defaults(self, dtype):
        keys, build = REQUIRED_ONLY[dtype]
        doc = minimal_doc()
        doc["devices"] = [{"type": dtype, "name": "D", "bus": 2, **keys}]
        doc["events"] = []
        (device,) = parse_scenario(doc).devices
        assert type(device) is type(build())
        assert vars(device) == vars(build())

    @pytest.mark.parametrize("dtype", sorted(REQUIRED_ONLY))
    def test_parsed_devices_stack(self, dtype):
        # a kind whose `params` names an attribute its constructor does not
        # set, or whose equations do not broadcast over devices, fails here
        cls, _ = _DEVICES[dtype]
        keys, _ = REQUIRED_ONLY[dtype]
        doc = minimal_doc()
        doc["devices"] = [{"type": dtype, "name": f"D{k}", "bus": 2, **keys} for k in range(2)]
        doc["events"] = []
        specs = parse_scenario(doc).devices
        for device in specs:
            assert [name for name in cls.params if not hasattr(device, name)] == []
        stack = cls.stack(specs, 0)
        v = np.array([1.0 + 0.1j, 0.98 - 0.05j])
        x = stack.initial_state(v, np.array([0.5 + 0.1j, 0.3 + 0.05j]))
        stack.derive()
        xdot, i = stack.evaluate(x, v)
        a, b = stack.voltage_sensitivity(x, v)
        cf = stack.analytic_cf(x, xdot, v, i, np.full(2, 1j))
        assert xdot.shape == x.shape == (2, cls.n_states)
        for value in (i, a, b, cf):
            assert value.shape == (2,)
            assert np.all(np.isfinite(value))

    def test_each_action_requires_the_number_its_event_reads(self):
        assert set(_EVENTS) == set(EVENT_ACTIONS)
        for action, keys in _EVENTS.items():
            assert Key(EVENT_ACTIONS[action], True) in keys.values()

    @pytest.mark.parametrize(
        "cls, table",
        [pytest.param(cls, keys, id=dtype) for dtype, (cls, keys) in _DEVICES.items()]
        + [pytest.param(Event, keys, id=action) for action, keys in _EVENTS.items()]
        + [
            pytest.param(Bus, _BUS, id="bus"),
            pytest.param(Branch, _BRANCH, id="branch"),
            pytest.param(Shunt, _SHUNT, id="shunt"),
            pytest.param(Scenario, _SIMULATION, id="simulation"),
            pytest.param(ObservationPoint, _OBSERVER, id="observation_point"),
        ],
    )
    def test_table_names_constructor_arguments(self, cls, table):
        """Each key fills a constructor argument, and an argument without a
        default is required."""
        for key, spec in table.items():
            if key == "type":  # selects the device row
                continue
            params = inspect.signature(cls).parameters
            assert spec.arg in params, f"{cls.__name__}: {key!r} fills no argument"
            if params[spec.arg].default is inspect.Parameter.empty:
                assert spec.required, f"{cls.__name__}: {key!r} has no default"


class TestBundled:
    def test_all_assets_present(self):
        for name in ("twomachine", "ieee39", "ieee39_mod"):
            sc = load_scenario(bundled_scenario_path(name))
            assert sc.network.n_bus >= 1

    def test_ieee39_shape(self):
        sc = load_scenario(bundled_scenario_path("ieee39"))
        assert sc.network.n_bus == 39
        assert len(sc.network.branches) == 46
        kinds = [d.kind for d in sc.devices]
        assert kinds.count("sm") == 10
        assert kinds.count("zip") == 21  # loads incl. the slack and bus-39 entries

    def test_ieee39_mod_replacements(self):
        sc = load_scenario(bundled_scenario_path("ieee39_mod"))
        kinds = {d.name: d.kind for d in sc.devices if not d.is_load}
        assert kinds == {
            "G1": "sm", "G2": "sm", "G3": "sm", "G4": "sm",
            "GFL5": "gfl", "GFM6": "gfm", "GFL7": "gfl", "GFL8": "gfl",
            "GFM9": "gfm", "GFL10": "gfl",
        }

    def test_missing_bundle_raises(self):
        with pytest.raises(FileNotFoundError):
            bundled_scenario_path("nonexistent")

    def test_invalid_json_reported(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_scenario(bad)
