from __future__ import annotations

import json

import numpy as np
import pytest

from cfcoherency.cli import main
from cfcoherency.scenario_io import bundled_scenario_path


@pytest.fixture()
def small_scenario(tmp_path):
    doc = {
        "system": {"f_nominal": 60.0, "s_base": 100.0},
        "buses": [
            {"id": 1, "kind": "slack", "v_set": 1.0},
            {"id": 2, "kind": "load"},
        ],
        "branches": [{"from": 1, "to": 2, "r": 0.01, "x": 0.1, "b": 0.02}],
        "devices": [
            {"type": "sm", "name": "G1", "bus": 1, "inertia": 8.0, "xd_prime": 0.1,
             "damping": 1.0, "p": 0.5},
            {"type": "zip", "name": "L1", "bus": 2, "p": 0.5, "q": 0.1},
        ],
        "events": [
            {"time": 0.1, "action": "load_scale", "bus": 2, "factor": 1.1},
            {"time": 0.15, "action": "load_scale", "bus": 2, "factor": 0.9090909090909091},
        ],
        "simulation": {"t_end": 0.5, "dt": 0.001},
        "analysis": {"k_clusters": 1},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture()
def no_simulation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simulated before checking the arguments")

    monkeypatch.setattr("cfcoherency.cli.run", fail)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


class TestRunCommand:
    def test_writes_outputs_and_succeeds(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(small_scenario)]) == 0
        captured = capsys.readouterr().out
        assert "500 steps" in captured
        assert "2 event(s)" in captured
        assert "0 step halving(s)" in captured
        header, data = read_csv(out / "trajectory.csv")
        assert header[0] == "time"
        assert data.shape[0] == 501
        # time + (2 buses + 2 devices + 2 device CFs) * 2 columns
        assert len(header) == 1 + 2 * 2 + 2 * 2 + 2 * 2
        header_cf, cf = read_csv(out / "cf.csv")
        assert header_cf[-1] == "event_mask"
        assert cf[:, -1].sum() == 10  # two events, +/-2 samples each

    def test_no_event_scenario_cf_is_synchronous(self, small_scenario, tmp_path):
        doc = json.loads(small_scenario.read_text())
        doc.pop("events")
        quiet = small_scenario.parent / "quiet.json"
        quiet.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(quiet)]) == 0
        header, cf = read_csv(out / "cf.csv")
        rho_cols = [i for i, h in enumerate(header) if h.startswith("rho_")]
        omega_cols = [i for i, h in enumerate(header) if h.startswith("omega_")]
        assert np.max(np.abs(cf[:, rho_cols])) < 1e-7
        assert np.max(np.abs(cf[:, omega_cols] - 1.0)) < 1e-7

    def test_byte_identical_reruns(self, small_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--out", str(out1), "run", str(small_scenario)])
        main(["--out", str(out2), "run", str(small_scenario)])
        for name in ("trajectory.csv", "cf.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"system": {}}), encoding="utf-8")
        assert main(["--out", str(tmp_path / "o"), "run", str(bad)]) == 1
        assert "missing required section" in capsys.readouterr().err

    def test_solver_failure_exits_two(self, small_scenario, tmp_path, capsys):
        doc = json.loads(small_scenario.read_text())
        # no feasible operating point: colossal draw over a weak line
        doc["devices"][1]["p"] = 80.0
        doc["devices"][0]["p"] = 80.0
        bad = tmp_path / "infeasible.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--out", str(tmp_path / "o"), "run", str(bad)]) == 2
        assert "NonConvergence" in capsys.readouterr().err

    def test_seedless_flag_rejected(self, small_scenario, tmp_path, capsys):
        # an unknown flag is a usage error, which exits 1 like a schema error
        code = main(["--out", str(tmp_path / "o"), "--seedless", "run", str(small_scenario)])
        assert code == 1
        assert "unrecognized arguments: --seedless" in capsys.readouterr().err

    def test_missing_subcommand_exits_one(self):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--dt", "0"], ["--dt", "nan"], ["--t-end", "0"]])
    def test_bad_step_or_horizon_exits_one(self, small_scenario, tmp_path, capsys, flag):
        code = main(["--out", str(tmp_path / "o")] + flag + ["run", str(small_scenario)])
        assert code == 1
        assert "dt and t_end must be positive" in capsys.readouterr().err

    def test_horizon_before_events_exits_one(self, tmp_path, capsys):
        twomachine = str(bundled_scenario_path("twomachine"))
        code = main(["--out", str(tmp_path / "o"), "--t-end", "0.5", "run", twomachine])
        assert code == 1
        assert "outside [0, 0.5]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_oversized_disconnect_exits_one(self, small_scenario, tmp_path, capsys, no_simulation):
        # 50 MW at bus 2, scaled by 1.1 and back before the disconnect
        doc = json.loads(small_scenario.read_text())
        cut = {"time": 0.2, "action": "load_disconnect_mw", "bus": 2, "amount": 60.0}
        doc["events"].append(cut)
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--out", str(tmp_path / "o"), "run", str(path)]) == 1
        assert "cannot disconnect 60 MW from the 50.0 MW left at bus 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestClusterCommand:
    def test_small_system_single_group(self, small_scenario, tmp_path, capsys):
        doc = json.loads(small_scenario.read_text())
        doc["devices"].append(
            {"type": "sm", "name": "G2", "bus": 1, "inertia": 4.0, "xd_prime": 0.2,
             "damping": 0.5, "p": 0.25}
        )
        pair = small_scenario.parent / "pair.json"
        pair.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--out", str(out), "cluster", str(pair), "--k", "1"]) == 0
        partition = (out / "partition.csv").read_text().strip().splitlines()
        assert partition[0] == "device,group"
        assert set(partition[1:]) == {"G1,0", "G2,0"}
        assert (out / "distance.csv").exists()
        assert (out / "dendrogram.csv").exists()


    @pytest.mark.parametrize(
        "name, k", [("twomachine", "5"), ("twomachine", "0"), ("ieee39", "11")]
    )
    def test_k_checked_before_simulating(self, tmp_path, capsys, no_simulation, name, k):
        scenario = str(bundled_scenario_path(name))
        assert main(["--out", str(tmp_path / "o"), "cluster", scenario, "--k", k]) == 1
        assert f"into k={k} groups" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [["2", "1"], ["1", "1"], ["nan", "2"], ["1", "inf"]])
    def test_bad_window_exits_one(self, tmp_path, capsys, no_simulation, window):
        scenario = str(bundled_scenario_path("twomachine"))
        code = main(["--out", str(tmp_path / "o"), "--window", *window, "cluster", scenario])
        assert code == 1
        assert "--window" in capsys.readouterr().err

    def test_window_past_horizon_exits_one(self, tmp_path, capsys, no_simulation):
        scenario = str(bundled_scenario_path("twomachine"))
        code = main(["--out", str(tmp_path / "o"), "--window", "5", "6", "cluster", scenario])
        assert code == 1
        assert "ends after t_end 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_file_window_past_horizon_exits_one(self, tmp_path, capsys, no_simulation):
        doc = json.loads(bundled_scenario_path("twomachine").read_text())
        doc["analysis"]["window"] = [1.5, 3.5]
        path = tmp_path / "late_window.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--out", str(tmp_path / "o"), "cluster", str(path)]) == 1
        assert "ends after t_end 3" in capsys.readouterr().err

    def test_mixed_zip_load_clusters_on_estimator(self, tmp_path, capsys):
        # a load mixing Z and P parts has no closed-form CF; it is clustered
        # on the finite-difference estimate instead
        doc = json.loads(bundled_scenario_path("twomachine").read_text())
        doc["devices"][2].update(kz_p=0.5, kp_p=0.5)
        doc["analysis"]["cluster_devices"] = ["SM1", "SM2", "LOAD"]
        path = tmp_path / "mixed_load.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--out", str(out), "--t-end", "2", "cluster", str(path), "--k", "2"]) == 0
        header = (out / "distance.csv").read_text().splitlines()[0]
        assert header == "device,SM1,SM2,LOAD"
        rows = (out / "partition.csv").read_text().strip().splitlines()[1:]
        groups = dict(row.split(",") for row in rows)
        # the identical machines stay together, the load on its own
        assert groups["SM1"] == groups["SM2"] != groups["LOAD"]


class TestClusterIeee39:
    def test_four_area_partition(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["--out", str(out), "cluster", str(bundled_scenario_path("ieee39")), "--k", "4"]
        )
        assert code == 0
        rows = (out / "partition.csv").read_text().strip().splitlines()[1:]
        group_of = dict(row.split(",") for row in rows)
        by_group: dict[str, set[str]] = {}
        for device, group in group_of.items():
            by_group.setdefault(group, set()).add(device)
        assert sorted(by_group.values(), key=min) == [
            {"G1"},
            {"G10", "G8"},
            {"G2", "G3", "G4", "G5", "G6", "G7"},
            {"G9"},
        ]


class TestSweepCommand:
    def test_center_cell_is_coherent(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "--out", str(out), "--t-end", "2.0",
                "sweep", str(bundled_scenario_path("twomachine")),
                "--alpha", "0.5", "--beta", "0.5",
            ]
        )
        assert code == 0
        header, data = read_csv(out / "sweep.csv")
        assert data.shape == (1, 2)
        assert data[0, 1] < 1e-6

    def test_grid_outside_unit_interval_rejected(self, tmp_path, capsys):
        code = main(
            [
                "--out", str(tmp_path / "o"),
                "sweep", str(bundled_scenario_path("twomachine")),
                "--alpha", "1.5", "--beta", "0.5",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "grid_args, flag",
        [
            (["--grid", "-1"], "--grid"),
            (["--grid", "0"], "--grid"),
            (["--alpha", "x,0.5", "--beta", "0.5"], "--alpha"),
            (["--alpha", "0.5,", "--beta", "0.5"], "--alpha"),
            (["--alpha", "", "--beta", "0.5"], "--alpha"),
            (["--alpha", "nan", "--beta", "0.5"], "--alpha"),
            (["--alpha", "0.5", "--beta", "0.5,inf"], "--beta"),
            (["--alpha", "0.5"], "--alpha and --beta"),
            (["--grid", "3", "--workers", "0"], "--workers"),
            (["--grid", "3", "--workers", "-3"], "--workers"),
        ],
    )
    def test_bad_grid_exits_one(self, tmp_path, capsys, monkeypatch, grid_args, flag):
        def fail(*args, **kwargs):
            raise AssertionError("swept before checking the grid")

        monkeypatch.setattr("cfcoherency.cli.alpha_beta_sweep", fail)
        twomachine = str(bundled_scenario_path("twomachine"))
        code = main(["--out", str(tmp_path / "o"), "sweep", twomachine] + grid_args)
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_wrong_template_rejected(self, small_scenario, tmp_path):
        code = main(["--out", str(tmp_path / "o"), "sweep", str(small_scenario)])
        assert code == 1

    def test_workers_give_identical_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["sweep", str(bundled_scenario_path("twomachine")),
                "--alpha", "0.4,0.6", "--beta", "0.5", "--t-end", "1.5"]
        assert main(["--out", str(out1)] + args + ["--workers", "1"]) == 0
        assert main(["--out", str(out2)] + args + ["--workers", "2"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


class TestCfCommand:
    def test_round_trip_through_trajectory_csv(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        main(["--out", str(out), "run", str(small_scenario)])
        out2 = tmp_path / "cfout"
        assert main(["--out", str(out2), "cf", str(out / "trajectory.csv")]) == 0
        header, data = read_csv(out2 / "cf.csv")
        assert header[0] == "time"
        assert any(h.startswith("rho_v1") for h in header)
        # the trajectory is stored in the synchronous frame, so the raw
        # estimator reports zero rotation before the event
        omega_cols = [i for i, h in enumerate(header) if h.startswith("omega_")]
        assert np.max(np.abs(data[10:80, omega_cols])) < 1e-6

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "cf", str(tmp_path / "nope.csv")]) == 1

    def test_non_uniform_time_base_exits_one(self, tmp_path, capsys):
        path = tmp_path / "uneven.csv"
        path.write_text(
            "time,x_re,x_im\n0,1,0\n0.001,1,0.001\n0.005,1,0.005\n0.006,1,0.006\n",
            encoding="utf-8",
        )
        assert main(["--out", str(tmp_path / "o"), "cf", str(path)]) == 1
        assert "uniform steps" in capsys.readouterr().err

    @pytest.mark.parametrize("f_nominal", ["0", "-60", "nan"])
    def test_nonpositive_f_nominal_exits_one(self, small_scenario, tmp_path, capsys, f_nominal):
        out = tmp_path / "out"
        main(["--out", str(out), "run", str(small_scenario)])
        code = main(
            ["--out", str(tmp_path / "o"), "cf", str(out / "trajectory.csv"),
             "--f-nominal", f_nominal]
        )
        assert code == 1
        assert "--f-nominal" in capsys.readouterr().err
