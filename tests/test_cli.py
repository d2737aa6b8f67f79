from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfcoherency.cli import main
from cfcoherency.coherency import EVENT_MASK_PAD, device_cf, estimator_valid, numerical_cf
from cfcoherency.devices import MAGNITUDE_GUARD
from cfcoherency.scenario_io import bundled_scenario_path, load_scenario
from cfcoherency.simulation import run
from tests.conftest import stencil_dilation


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
        assert "2 Newton matrix refresh(es)" in captured  # one after each event
        header, data = read_csv(out / "trajectory.csv")
        assert header[0] == "time"
        assert data.shape[0] == 501
        # time + (2 buses + 2 devices + 2 device CFs) * 2 columns
        assert len(header) == 1 + 2 * 2 + 2 * 2 + 2 * 2
        header_cf, cf = read_csv(out / "cf.csv")
        assert header_cf[-1] == "event_mask"
        assert cf[:, -1].sum() == 10  # two events, +/-2 samples each

    def test_summary_counts_events_that_share_a_step(self, tmp_path, capsys):
        # both of twomachine's events, the second moved to snap onto the first's step
        doc = json.loads(bundled_scenario_path("twomachine").read_text())
        doc["events"][1]["time"] = doc["events"][0]["time"] + 2e-4
        path = tmp_path / "one_step.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--out", str(tmp_path / "o"), "--t-end", "1.05", "run", str(path)]) == 0
        assert ", 2 event(s) applied\n" in capsys.readouterr().out

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

    def test_network_error_in_file_exits_one(self, small_scenario, tmp_path, capsys):
        doc = json.loads(small_scenario.read_text())
        doc["branches"][0]["tap"] = 0.0
        path = tmp_path / "tap.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--out", str(tmp_path / "o"), "run", str(path)]) == 1
        assert "$.branches[0]: tap ratio must be positive" in capsys.readouterr().err

    def test_removed_omega_ref_key_exits_one(self, tmp_path, capsys, no_simulation):
        # a grid-following converter once took omega_ref, which no equation read
        doc = json.loads(bundled_scenario_path("ieee39_mod").read_text())
        k = next(k for k, d in enumerate(doc["devices"]) if d["type"] == "gfl")
        doc["devices"][k]["omega_ref"] = 1.0
        path = tmp_path / "omega_ref.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--out", str(tmp_path / "o"), "run", str(path)]) == 1
        assert f"$.devices[{k}].omega_ref: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", [0, -1])
    def test_nonpositive_tolerance_exits_one(
        self, small_scenario, tmp_path, capsys, no_simulation, tolerance
    ):
        doc = json.loads(small_scenario.read_text())
        doc["simulation"]["tolerance"] = tolerance
        path = tmp_path / "tolerance.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--out", str(tmp_path / "o"), "run", str(path)]) == 1
        assert "error: $: Newton tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "cluster", "sweep"])
    @pytest.mark.parametrize(
        "name, content, reason",
        [
            pytest.param("missing.json", None, "No such file or directory", id="missing"),
            pytest.param("folder", "dir", "Is a directory", id="directory"),
            pytest.param(
                "latin1.json", b'{"system": "\xe9"}', "can't decode byte 0xe9", id="not-utf8"
            ),
        ],
    )
    def test_unreadable_scenario_exits_one(
        self, tmp_path, capsys, no_simulation, command, name, content, reason
    ):
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        assert main(["--out", str(tmp_path / "o"), command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: $: ")
        assert reason in err

    def test_oversized_disconnect_exits_one(self, small_scenario, tmp_path, capsys, no_simulation):
        # 50 MW at bus 2, scaled by 1.1 and back before the disconnect
        doc = json.loads(small_scenario.read_text())
        cut = {"time": 0.2, "action": "load_disconnect_mw", "bus": 2, "amount": 60.0}
        doc["events"].append(cut)
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--out", str(tmp_path / "o"), "run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "$.events[2]: load_disconnect_mw event at t=0.2: cannot disconnect 60 MW" in err
        assert "from the 50.0 MW left at bus 2" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "action, field, value",
        [("load_disconnect_mw", "amount", -50.0), ("load_scale", "factor", -1.1)],
        ids=["negative_disconnect", "negative_scale"],
    )
    def test_negative_load_event_exits_one(
        self, small_scenario, tmp_path, capsys, no_simulation, action, field, value
    ):
        # either would raise the load's draw or turn the load into a source
        doc = json.loads(small_scenario.read_text())
        doc["events"].append({"time": 0.2, "action": action, "bus": 2, field: value})
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--out", str(tmp_path / "o"), "run", str(path)]) == 1
        err = capsys.readouterr().err
        message = f"{action} event at t=0.2: {field} {value:g} must not be negative"
        assert f"$.events[2]: {message}" in err
        assert not (tmp_path / "o").exists()


    def test_summary_line_on_ieee39(self, tmp_path, capsys):
        argv = ["--out", str(tmp_path / "o"), "--t-end", "2.4", "run"]
        assert main([*argv, str(bundled_scenario_path("ieee39"))]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "run: 2400 steps (999 filled at a fixed point), 1400 Newton iterations, "
            "1 Newton matrix refresh(es), 1402 residual evaluation(s), 0 step halving(s), "
            "1 event(s) applied"
        )

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "block_buffered"])
    def test_closed_stdout_ends_quietly(self, tmp_path, unbuffered):
        # the reader of stdout is gone before the first print: the files are
        # complete, so the command succeeds without a traceback
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONUNBUFFERED=unbuffered)
        out = tmp_path / "o"
        scenario = str(bundled_scenario_path("twomachine"))
        argv = ["--out", str(out), "--t-end", "1.2", "run", scenario]
        try:
            done = subprocess.run(
                [sys.executable, "-m", "cfcoherency.cli", *argv],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, "")
        for name in ("trajectory.csv", "cf.csv"):
            header, data = read_csv(out / name)
            assert data.shape[0] == 1201 and len(header) == data.shape[1]


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
        n = {"twomachine": 2, "ieee39": 10}[name]  # the sources
        err = capsys.readouterr().err
        assert err == f"error: $: cannot cut {n} clustered device(s) into k={k} groups\n"
        assert not (tmp_path / "o").exists()

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

    def test_mixed_zip_load_clusters_on_its_closed_form_cf(self, tmp_path, capsys):
        # a load mixing Z and P parts is clustered on its recorded CF, the
        # current-weighted mean of its parts' CFs
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

    def test_singular_admittance_skips_only_the_spot_check(self, tmp_path, capsys):
        # twomachine's one bus has no shunt, so Ȳ = [[0]] has no inverse: the
        # clustering does not need one, the observer check does
        twomachine = bundled_scenario_path("twomachine")
        doc = json.loads(twomachine.read_text())
        doc["analysis"]["observation_points"] = [{"bus": 1, "device": "LOAD"}]
        path = tmp_path / "observed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        plain = tmp_path / "plain"
        assert main(["--out", str(plain), "--t-end", "2", "cluster", str(twomachine)]) == 0
        expected = capsys.readouterr().out.splitlines()
        out = tmp_path / "out"
        assert main(["--out", str(out), "--t-end", "2", "cluster", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == (
            "observer-independence spot check (SM1, SM2): not available, the admittance "
            "matrix is singular (reciprocal condition estimate 0.00e+00 below 1e-12)"
        )
        assert lines[:-2] == expected[:-1]
        assert lines[-1] == expected[-1].replace(str(plain), str(out))
        for name in ("distance.csv", "partition.csv", "dendrogram.csv"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()


class TestClusterHorizonCut:
    @pytest.mark.parametrize(
        "window, event_after",
        [((0.2, 0.3), None), ((0.2, 0.3), 1), ((0.2, 0.3), 2), ((0.2, 0.3), 5), ((0.2, 0.5), None)],
        ids=["mixed-load", "event-1-after", "event-2-after", "event-5-after", "window-to-t-end"],
    )
    def test_outputs_equal_the_full_run(
        self, small_scenario, tmp_path, capsys, monkeypatch, window, event_after
    ):
        # with an explicit window the run stops EVENT_MASK_PAD + 1 samples
        # past its end, before any later event; the files and the observer
        # line equal those of the same scenario run to t_end
        doc = json.loads(small_scenario.read_text())
        doc["devices"][1].update(kz_p=0.5, kp_p=0.5)  # a mixed ZIP load
        doc["devices"].append(
            {"type": "sm", "name": "G2", "bus": 1, "inertia": 4.0, "xd_prime": 0.2,
             "damping": 0.5, "p": 0.25}
        )
        doc["analysis"].update(
            k_clusters=2, cluster_devices=["G1", "G2", "L1"], observation_points=[[1, 2]]
        )
        dt = doc["simulation"]["dt"]
        if event_after is not None:
            doc["events"].append(
                {"time": window[1] + event_after * dt, "action": "load_scale", "bus": 2,
                 "factor": 1.05}
            )
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        full = load_scenario(path)
        horizons = []

        def full_run(scenario):
            horizons.append(scenario.t_end)
            return run(dataclasses.replace(scenario, t_end=full.t_end, events=full.events))

        argv = ["--window", str(window[0]), str(window[1]), "cluster", str(path)]
        assert main(["--out", str(tmp_path / "cut"), *argv]) == 0
        cut = capsys.readouterr().out
        monkeypatch.setattr("cfcoherency.cli.run", full_run)
        assert main(["--out", str(tmp_path / "full"), *argv]) == 0
        whole = capsys.readouterr().out

        horizon = min(full.t_end, window[1] + (EVENT_MASK_PAD + 1) * dt)
        assert horizons == [pytest.approx(horizon, abs=1e-12)]
        assert f"simulated to {horizon:g} s in {round(horizon / dt)} steps" in cut
        for name in ("distance.csv", "partition.csv", "dendrogram.csv"):
            assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
        observer = [line for line in cut.splitlines() if line.startswith("observer")]
        assert len(observer) == 1
        assert observer == [line for line in whole.splitlines() if line.startswith("observer")]


class TestClusterIeee39:
    def test_four_area_partition(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["--out", str(out), "cluster", str(bundled_scenario_path("ieee39")), "--k", "4"]
        )
        assert code == 0
        # the steps before the event at 1 s return their handed pair
        assert capsys.readouterr().out.splitlines()[0] == (
            "cluster: k=4, window=[1.005, 2.4], simulated to 2.403 s in 2403 steps "
            "(999 filled at a fixed point), 1403 Newton iterations, "
            "1 Newton matrix refresh(es), 1405 residual evaluation(s), 0 step halving(s), "
            "1 event(s) applied"
        )
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


    def test_observer_through_a_disconnected_load(self, tmp_path, capsys):
        # power observed into load L01, which draws nothing from 1.2 s on:
        # the contributions' CFs are undefined there, and the check reads
        # the samples before
        doc = json.loads(bundled_scenario_path("ieee39").read_text())
        doc["events"].append({"time": 1.2, "action": "load_scale", "bus": 1, "factor": 0.0})
        doc["analysis"].update(
            window=[1.005, 1.5], observation_points=[{"bus": 1, "device": "L01"}]
        )
        doc["simulation"]["t_end"] = 1.6
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--out", str(tmp_path / "out"), "cluster", str(path)]) == 0
        observer = capsys.readouterr().out.splitlines()[-2]
        assert observer.startswith("observer-independence spot check (G1, G2): ")
        assert float(observer.split()[-2]) < 1e-8


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

    def test_wrong_template_rejected(self, small_scenario, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("ran a cell of a template that cannot be split")

        monkeypatch.setattr("cfcoherency.coherency.two_machine_distance", fail)
        code = main(["--out", str(tmp_path / "o"), "sweep", str(small_scenario)])
        assert code == 1
        assert "error: $: the sweep needs two synchronous machines" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def cell(tmp_path, scenario, *flags) -> bytes:
        """sweep.csv of the one cell (0.3, 0.3) of `scenario` over 2 s."""
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        args = ["--out", str(out), "--t-end", "2", *flags, "sweep", str(scenario)]
        assert main(args + ["--alpha", "0.3", "--beta", "0.3"]) == 0
        return (out / "sweep.csv").read_bytes()

    @staticmethod
    def edited(tmp_path, edit) -> Path:
        """A copy of the bundled two-machine file, changed by `edit`."""
        doc = json.loads(bundled_scenario_path("twomachine").read_text(encoding="utf-8"))
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    @staticmethod
    def value(csv: bytes) -> float:
        return float(csv.decode().splitlines()[1].split(",")[1])

    def test_cells_honour_the_file(self, tmp_path):
        def edit(doc):
            for machine in doc["devices"][:2]:
                machine["damping"] = 20.0
            doc["simulation"]["tolerance"] = 1e-10
            doc["events"][0]["factor"] = 1.5
            doc["events"][1]["factor"] = 1.0 / 1.5

        bundled = self.value(self.cell(tmp_path, bundled_scenario_path("twomachine")))
        changed = self.value(self.cell(tmp_path, self.edited(tmp_path, edit)))
        assert np.isfinite(changed) and changed != bundled

    def test_cells_honour_the_window(self, tmp_path):
        path = bundled_scenario_path("twomachine")
        whole = self.value(self.cell(tmp_path, path))
        part = self.value(self.cell(tmp_path, path, "--window", "1.5", "2"))
        # the default window opens just after the pulse, so [1.5, 2] is inside it
        assert 0.0 < part < whole

    @pytest.mark.parametrize("inertias, same", [((3.0, 7.0), True), ((2.0, 2.0), False)])
    def test_the_total_inertia_is_split(self, tmp_path, inertias, same):
        def edit(doc):
            for machine, inertia in zip(doc["devices"], inertias):
                machine["inertia"] = inertia

        bundled = self.cell(tmp_path, bundled_scenario_path("twomachine"))
        assert (self.cell(tmp_path, self.edited(tmp_path, edit)) == bundled) == same

    def test_workers_give_identical_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["sweep", str(bundled_scenario_path("twomachine")),
                "--alpha", "0.4,0.6", "--beta", "0.5", "--t-end", "1.5"]
        assert main(["--out", str(out1)] + args + ["--workers", "1"]) == 0
        assert main(["--out", str(out2)] + args + ["--workers", "2"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def csv_cells(path):
    """The header and the rows of a CSV file, as the strings written."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def expected_rows(columns, samples):
    return [[format(float(c[k]), ".17e") for c in columns] for k in range(samples)]


def pairs(names, re, im, values):
    """Header and columns of complex series; `re` and `im` name the two
    parts of each series."""
    header, columns = [], []
    for name, series in zip(names, values):
        header += [re.format(name), im.format(name)]
        columns += [series.real, series.imag]
    return header, columns


class TestCsvCells:
    """Every number in a written CSV is format(value, ".17e") of the array
    it comes from, in the documented column order."""

    def test_run_and_cf_outputs(self, small_scenario, tmp_path):
        doc = json.loads(small_scenario.read_text())
        doc["devices"][1].update(kz_p=0.5, kp_p=0.5)  # a mixed ZIP load
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(path)]) == 0
        traj = run(load_scenario(path))
        n = traj.times.size
        names = traj.device_names
        cf = [device_cf(traj, name).values for name in names]

        v_head, v_cols = pairs(traj.bus_labels, "v{}_re", "v{}_im", traj.voltages.T)
        i_head, i_cols = pairs(names, "i_{}_re", "i_{}_im", traj.currents.T)
        cf_head, cf_cols = pairs(names, "rho_{}", "omega_{}", cf)
        header, rows = csv_cells(out / "trajectory.csv")
        assert header == ["time"] + v_head + i_head + cf_head
        assert rows == expected_rows([traj.times] + v_cols + i_cols + cf_cols, n)

        header, rows = csv_cells(out / "cf.csv")
        assert header == ["time"] + cf_head + ["event_mask"]
        assert [row[:-1] for row in rows] == expected_rows([traj.times] + cf_cols, n)
        valid = estimator_valid(traj)
        assert [row[-1] for row in rows] == ["0" if ok else "1" for ok in valid]
        assert not valid.all()

        cf_out = tmp_path / "cfout"
        assert main(["--out", str(cf_out), "cf", str(out / "trajectory.csv")]) == 0
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        times = data[:, 0]
        dt = float(times[-1] - times[0]) / (times.size - 1)
        signals = [h[:-3] for h in v_head[::2] + i_head[::2]]
        estimates = [
            numerical_cf(data[:, c] + 1j * data[:, c + 1], dt, 2.0 * np.pi * 60.0).values
            for c in range(1, 1 + 2 * len(signals), 2)
        ]
        est_head, est_cols = pairs(signals, "rho_{}", "omega_{}", estimates)
        header, rows = csv_cells(cf_out / "cf.csv")
        assert header == ["time"] + est_head
        assert rows == expected_rows([times] + est_cols, n)


class TestRuntimeImports:
    def test_cli_runs_without_scipy(self, tmp_path):
        # the runtime needs numpy only; scipy is a test dependency
        doc = json.loads(bundled_scenario_path("twomachine").read_text())
        doc.pop("events")
        path = tmp_path / "quiet.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = (
            "import sys\n"
            "from cfcoherency.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('scipy' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=pythonpath)
        argv = ["--out", str(tmp_path / "o"), "--t-end", "0.2", "run", str(path)]
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_cli_import_leaves_out_the_process_pool(self):
        # only a sweep with several workers imports concurrent.futures
        code = "import sys\nimport cfcoherency.cli\nprint('concurrent.futures' in sys.modules)\n"
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_cli_import_loads_numpy_and_the_standard_library_only(self):
        # numpy is the one runtime dependency
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import cfcoherency.cli\n"
            "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'cfcoherency'}))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


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

    def test_dead_current_reads_back(self, small_scenario, tmp_path):
        # the load goes to zero, so its recorded current is exactly 0; the
        # machine still charges the line.  Every file marks an undefined CF
        # sample NaN in both parts, and `cf` reads the trajectory back
        doc = json.loads(small_scenario.read_text())
        doc["events"] = [{"time": 0.1, "action": "load_scale", "bus": 2, "factor": 0.0}]
        small_scenario.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--out", str(out), "--t-end", "0.2", "run", str(small_scenario)]) == 0
        assert main(["--out", str(tmp_path / "o"), "cf", str(out / "trajectory.csv")]) == 0
        for path in (out / "trajectory.csv", out / "cf.csv", tmp_path / "o" / "cf.csv"):
            header, data = read_csv(path)
            rho = [k for k, h in enumerate(header) if h.startswith("rho_")]
            omega = [header.index("omega_" + header[k][4:]) for k in rho]
            assert np.array_equal(np.isnan(data[:, rho]), np.isnan(data[:, omega])), path
        header, data = read_csv(out / "trajectory.csv")
        current = data[:, header.index("i_L1_re")] + 1j * data[:, header.index("i_L1_im")]
        dead = np.abs(current) <= MAGNITUDE_GUARD
        assert np.count_nonzero(dead) == 101  # from the event at sample 100 on
        cf_header, cf_data = read_csv(tmp_path / "o" / "cf.csv")
        undefined = np.isnan(cf_data[:, cf_header.index("rho_i_L1")])
        assert np.array_equal(undefined, stencil_dilation(dead))
        assert not np.isnan(cf_data[:, cf_header.index("rho_i_G1")]).any()

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "cf", str(tmp_path / "nope.csv")]) == 1

    @pytest.mark.parametrize(
        "rows, reason",
        [
            pytest.param(
                "0,1,0\n0.001,x,0.001\n0.002,1,0.002\n", "could not convert string 'x'",
                id="not-a-number",
            ),
            pytest.param(
                "0,1,0\n0.001,1\n0.002,1,0.002\n", "number of columns changed", id="ragged"
            ),
        ],
    )
    def test_malformed_csv_exits_one(self, tmp_path, capsys, rows, reason):
        path = tmp_path / "bad.csv"
        path.write_text("time,x_re,x_im\n" + rows, encoding="utf-8")
        assert main(["--out", str(tmp_path / "o"), "cf", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: $: malformed CSV" in err
        assert reason in err

    @pytest.mark.parametrize(
        "text, reason",
        [
            pytest.param(
                "time,a_re,a_im,b_re,b_im\n0,1,0\n0.001,1,0\n0.002,1,0\n",
                "rows have 3 cells, but the header has 5 columns", id="short-rows",
            ),
            pytest.param(
                "time,a_re,a_im\n0,1,0,7\n0.001,1,0,7\n0.002,1,0,7\n",
                "rows have 4 cells, but the header has 3 columns", id="wide-rows",
            ),
            pytest.param("", "first column must be 'time'", id="empty"),
            pytest.param("time,a_re,a_im\n", "no samples after the header", id="header-only"),
        ],
    )
    def test_rows_that_do_not_fit_the_header_exit_one(self, tmp_path, text, reason):
        # in a fresh interpreter, so that a numpy warning would reach stderr
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "cfcoherency.cli", "--out", str(tmp_path / "o"), "cf",
             str(path)],
            env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: $")
        assert reason in done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr
        assert not (tmp_path / "o").exists()

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
