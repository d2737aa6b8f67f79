from __future__ import annotations

import json

import pytest

from cfcoherency.errors import SchemaError
from cfcoherency.scenario_io import bundled_scenario_path, load_scenario, parse_scenario


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
