"""Failure paths: each bad input through `cli.main` and each library check,
with the error it gives."""

from __future__ import annotations

import dataclasses
import errno
import inspect
import json
import os
from pathlib import Path

import numpy as np
import pytest

from cfcoherency.cli import main
from cfcoherency.coherency import (
    CfSeries,
    CoherencyDistanceMatrix,
    ObservationPoint,
    cluster_trajectory,
    default_window,
    distance_matrix,
    observer_independence_check,
)
from cfcoherency.devices import (
    GridFollowingConverter,
    GridFormingConverter,
    SynchronousMachine,
    ZipLoad,
)
from cfcoherency.errors import (
    CfCoherencyError,
    EmptyWindow,
    InfeasibleInit,
    NonConvergence,
    SingularAdmittance,
)
from cfcoherency.network import Branch, Bus, Network, Shunt, build_admittance, impedance_matrix
from cfcoherency.scenario_io import _DEVICES, bundled_scenario_path, load_scenario, parse_scenario
from cfcoherency.simulation import (
    DaeSystem,
    Scenario,
    TrapezoidalIntegrator,
    initialize,
    power_flow,
    run,
)
from tests.conftest import OMEGA_B, two_bus_scenario, two_machine

TWOMACHINE = json.loads(bundled_scenario_path("twomachine").read_text(encoding="utf-8"))
GFL = {"type": "gfl", "name": "GFL", "bus": 1, "p": 0.0, "x_filter": 0.1}
GFM = {"type": "gfm", "name": "GFM", "bus": 1, "p": 0.0, "x_filter": 0.1}
CSV = "time,a_re,a_im\n0,1,0\n0.001,1,0.001\n0.002,1,0.002\n"


def twomachine(edit) -> str:
    """The bundled two-machine file as JSON text, changed by `edit`."""
    doc = json.loads(json.dumps(TWOMACHINE))
    edit(doc)
    return json.dumps(doc)


def _device(**changes):
    """An edit that changes the first machine's keys."""
    return lambda doc: doc["devices"][0].update(changes)


def _added(device: dict, **changes):
    """An edit that appends `device`, with `changes`, as $.devices[3]."""
    return lambda doc: doc["devices"].append(device | changes)


@pytest.fixture()
def no_work(monkeypatch):
    """Fail if a command gets as far as simulating, sweeping or estimating."""
    def fail(*args, **kwargs):
        raise AssertionError("reached the work before rejecting the input")

    for name in ("run", "alpha_beta_sweep", "numerical_cf"):
        monkeypatch.setattr(f"cfcoherency.cli.{name}", fail)


# (command, the input file's content, the path the error names, a part of its message)
INPUT_FAILURES = [
    # the document and its entries
    pytest.param("run", "[]", "$", "must be a JSON object", id="document-not-object"),
    pytest.param("run", twomachine(lambda d: d.update(system=[])), "$.system",
                 "expected an object, got list", id="section-not-object"),
    pytest.param("run", twomachine(lambda d: d["devices"].append(1)), "$.devices[3]",
                 "expected an object", id="device-not-object"),
    pytest.param("run", twomachine(lambda d: d["system"].pop("s_base")), "$.system",
                 "missing required key 's_base'", id="missing-key"),
    pytest.param("run", twomachine(lambda d: d["devices"][2].pop("type")), "$.devices[2]",
                 "missing required key 'type'", id="missing-type"),
    pytest.param("run", twomachine(lambda d: d["events"][0].update(action=5)),
                 "$.events[0].action", "expected a string, got 5", id="action-not-string"),
    pytest.param("run", twomachine(lambda d: d["buses"][0].update(id="1")), "$.buses[0].id",
                 "bus id must be an integer", id="bus-id-not-integer"),
    pytest.param("run", twomachine(lambda d: d["buses"][0].update(kind="pv")),
                 "$.buses[0].kind", "unknown bus kind 'pv'", id="bus-kind"),
    # the base values, which `Scenario.check` owns
    pytest.param("run", twomachine(lambda d: d["system"].update(f_nominal=0)), "$",
                 "base values omega_base 0.0", id="zero-f-nominal"),
    pytest.param("run", twomachine(lambda d: d["system"].update(f_nominal=-60)), "$",
                 "must be positive and finite", id="negative-f-nominal"),
    pytest.param("run", twomachine(lambda d: d["system"].update(s_base=0)), "$",
                 "s_base 0.0 must be positive", id="zero-s-base"),
    # the device constructors
    pytest.param("run", twomachine(_device(inertia=0.0)), "$.devices[0]",
                 "inertia and xd_prime must be positive", id="sm-inertia"),
    pytest.param("run", twomachine(lambda d: d["devices"][2].update(kz_q=0.5)),
                 "$.devices[2]", "reactive-power fractions must sum to 1", id="zip-fractions"),
    pytest.param("run", twomachine(_added(GFL, x_filter=0.0)), "$.devices[3]",
                 "filter series impedance must be nonzero", id="converter-filter"),
    pytest.param("run", twomachine(_added(GFL, t_measure=0.0)), "$.devices[3]",
                 "measurement time constant must be positive", id="gfl-t-measure"),
    pytest.param("run", twomachine(_added(GFM, t_power=0.0)), "$.devices[3]",
                 "measurement time constants must be positive", id="gfm-t-power"),
    pytest.param("run", twomachine(_added(GFM, droop=-0.01)), "$.devices[3]",
                 "droop gain must be nonnegative", id="gfm-droop"),
    # the analysis section
    pytest.param("cluster", twomachine(lambda d: d["analysis"].update(k_clusters=0)),
                 "$.analysis.k_clusters", "expected a positive integer", id="k-clusters"),
    pytest.param("cluster",
                 twomachine(lambda d: d["analysis"].update(cluster_devices=["SM1", "NOPE"])),
                 "$.analysis.cluster_devices", "unknown device 'NOPE'", id="cluster-device"),
    pytest.param("cluster", twomachine(
        lambda d: d["analysis"].update(observation_points=[{"bus": 1, "device": "NOPE"}])),
        "$.analysis.observation_points[0].device", "unknown device 'NOPE'",
        id="observer-device"),
    pytest.param("cluster", twomachine(lambda d: d["analysis"].update(observation_points=[[1]])),
                 "$.analysis.observation_points[0]", "expected [from_bus, to_bus]",
                 id="observer-shape"),
    # the trajectory CSV that `cf` reads
    pytest.param("cf", "time,a_re,b_im\n" + CSV.split("\n", 1)[1], "$.header[2]",
                 "expected a_im after a_re", id="cf-unpaired-column"),
    pytest.param("cf", "time,a,b\n" + CSV.split("\n", 1)[1], "$.header",
                 "no <name>_re/<name>_im column pairs", id="cf-no-pairs"),
    pytest.param("cf", CSV.rsplit("\n", 2)[0] + "\n", "$", "need at least 3 samples",
                 id="cf-two-samples"),
    pytest.param("cf", CSV.encode() + b"0.003,\xe9,0\n", "$", "malformed CSV",
                 id="cf-not-utf8"),
]


@pytest.mark.parametrize("command, content, path, message", INPUT_FAILURES)
def test_bad_input_exits_one(tmp_path, capsys, no_work, command, content, path, message):
    source = tmp_path / ("input.csv" if command == "cf" else "input.json")
    if isinstance(content, bytes):
        source.write_bytes(content)
    else:
        source.write_text(content, encoding="utf-8")
    assert main(["--out", str(tmp_path / "o"), command, str(source)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ")
    assert message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("run", []),
        ("cluster", []),
        ("sweep", ["--grid", "3"]),
        ("cf", []),
    ],
    ids=["run", "cluster", "sweep", "cf"],
)
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_out_naming_a_file_is_rejected_before_any_work(
    tmp_path, capsys, no_work, command, flags, under
):
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    trajectory = tmp_path / "trajectory.csv"
    trajectory.write_text(CSV, encoding="utf-8")
    source = trajectory if command == "cf" else bundled_scenario_path("twomachine")
    out = taken / "o" if under else taken
    assert main(["--out", str(out), command, str(source), *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --out: {taken} exists and is not a directory\n"
    assert taken.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize(
    "command, flags, written",
    [
        ("run", [], "trajectory.csv"),
        ("cluster", [], "distance.csv"),
        ("sweep", ["--grid", "1"], "sweep.csv"),
        ("cf", [], "cf.csv"),
    ],
    ids=["run", "cluster", "sweep", "cf"],
)
def test_a_failed_write_exits_one_through_the_out_rule(
    tmp_path, capsys, monkeypatch, command, flags, written
):
    trajectory = tmp_path / "trajectory.csv"
    trajectory.write_text(CSV, encoding="utf-8")
    source = trajectory if command == "cf" else bundled_scenario_path("twomachine")

    def full_disk(path, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(Path, "write_text", full_disk)
    out = tmp_path / "o"
    assert main(["--out", str(out), command, str(source), *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --out: cannot write {out / written}: {os.strerror(errno.ENOSPC)}\n"


def test_a_failed_cell_is_reported_and_the_sweep_goes_on(tmp_path, capsys, monkeypatch):
    def distance(scenario, alpha, beta):
        if (alpha, beta) == (0.3, 0.6):
            raise NonConvergence("cell refused")
        return alpha + beta

    monkeypatch.setattr("cfcoherency.coherency.two_machine_distance", distance)
    out = tmp_path / "o"
    twomachine_path = str(bundled_scenario_path("twomachine"))
    args = ["--out", str(out), "sweep", twomachine_path, "--alpha", "0.3", "--beta", "0.3,0.6"]
    assert main(args) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[:2] == ["sweep: 1x2 cells, 1 failed",
                          "  cell (0.3, 0.6) failed: NonConvergence: cell refused"]
    row = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1].split(",")
    assert float(row[1]) == 0.6 and row[2] == "nan"


# ---------------------------------------------------------------------------
# The library's checks
# ---------------------------------------------------------------------------

def _two_bus_flat() -> Scenario:
    """Two buses under x = 0.5 with b = 2 = 1/x, so that at the flat start
    ∂Q/∂|v| of the load bus is exactly 0 and the power-flow Jacobian is
    singular."""
    network = Network([Bus(0, "slack"), Bus(1, "load")], [Branch(0, 1, 0.0, 0.5, charging=2.0)])
    devices = [SynchronousMachine("G", 0, 5.0, 0.2, p=0.1), ZipLoad("L", 1, 0.1)]
    return Scenario(network, devices, t_end=0.01)


def _ieee39() -> Scenario:
    return load_scenario(bundled_scenario_path("ieee39"))


def _twomachine_with(**changes) -> Scenario:
    return parse_scenario(json.loads(twomachine(_device(**changes))))


def _hilbert(n: int) -> np.ndarray:
    """The n×n Hilbert matrix, 1/(i + j + 1): κ₁ ≈ 3e10 for n = 8, inside
    the rcond limit, but inverted with a residual far above its limit."""
    i = np.arange(n)
    return (1.0 / (i[:, None] + i[None, :] + 1)).astype(complex)


def _charged_two_bus() -> Scenario:
    """`two_bus_scenario` to 0.02 s, its branch charged so that Ȳ is regular."""
    scenario = two_bus_scenario()
    network = dataclasses.replace(
        scenario.network, branches=[Branch(0, 1, 0.0, 0.1, charging=0.2)]
    )
    return dataclasses.replace(scenario, network=network, t_end=0.02)


def _observer_check(points, window=None) -> float:
    scenario = _charged_two_bus()
    return observer_independence_check(run(scenario), scenario.network, "SM", "LOAD", points,
                                       window)


def _two_bus_with(**changes) -> Scenario:
    """`two_bus_scenario` with `changes` to its machine's attributes."""
    scenario = two_bus_scenario()
    for name, value in changes.items():
        setattr(scenario.devices[0], name, value)
    return scenario


def _two_bus_system() -> DaeSystem:
    scenario = two_bus_scenario()
    return DaeSystem(scenario.network, scenario.devices, OMEGA_B)


LIBRARY_FAILURES = [
    # constructors
    pytest.param(lambda: Bus(0, "pv"), ValueError, "unknown bus kind 'pv'", id="bus-kind"),
    pytest.param(lambda: SynchronousMachine("G", 0, 5.0, 0.0), ValueError,
                 "inertia and xd_prime must be positive", id="sm-xd-prime"),
    pytest.param(lambda: ZipLoad("L", 0, 1.0, kz_q=0.5), ValueError,
                 "reactive-power fractions must sum to 1", id="zip-fractions"),
    pytest.param(lambda: GridFollowingConverter("C", 0, 0.0), ValueError,
                 "filter series impedance must be nonzero", id="converter-filter"),
    pytest.param(lambda: GridFollowingConverter("C", 0, 0.1, t_measure=0.0), ValueError,
                 "measurement time constant must be positive", id="gfl-t-measure"),
    pytest.param(lambda: GridFormingConverter("C", 0, 0.1, t_voltage=-1.0), ValueError,
                 "measurement time constants must be positive", id="gfm-t-voltage"),
    pytest.param(lambda: GridFormingConverter("C", 0, 0.1, droop=-0.01), ValueError,
                 "droop gain must be nonnegative", id="gfm-droop"),
    pytest.param(lambda: GridFormingConverter("C", 0, 0.1, v_dc=0.0), ValueError,
                 "DC-side voltage must be positive", id="converter-v-dc"),
    pytest.param(lambda: CfSeries(np.zeros(3), np.zeros(2, complex)), ValueError,
                 "times and values must share one shape", id="cf-series-shape"),
    pytest.param(lambda: CoherencyDistanceMatrix(np.zeros((2, 2)), ["A"]), ValueError,
                 "matrix shape does not match labels", id="distance-matrix-shape"),
    pytest.param(lambda: dataclasses.replace(two_bus_scenario(), omega_base=-OMEGA_B),
                 ValueError, "must be positive and finite", id="negative-omega-base"),
    pytest.param(lambda: dataclasses.replace(two_bus_scenario(), omega_base=float("nan")),
                 ValueError, "base values omega_base nan", id="nan-omega-base"),
    # ieee39's disconnect divides by s_base, so the base values are checked first
    pytest.param(lambda: dataclasses.replace(_ieee39(), s_base=0.0), ValueError,
                 "s_base 0.0 must be positive", id="zero-s-base"),
    # the network matrices
    pytest.param(lambda: build_admittance([Bus(1)], []), ValueError,
                 "bus indices must be unique and contiguous from 0", id="bus-indices"),
    pytest.param(lambda: build_admittance([Bus(0), Bus(1)], [Branch(0, 2, 0.0, 0.1)]),
                 ValueError, "branch 0-2 references a missing bus", id="branch-bus"),
    pytest.param(lambda: build_admittance([Bus(0)], [], [Shunt(1, 0.1)]), ValueError,
                 "shunt references missing bus 1", id="shunt-bus"),
    pytest.param(lambda: impedance_matrix(np.ones((2, 3))), ValueError,
                 "admittance matrix must be square", id="not-square"),
    pytest.param(lambda: impedance_matrix(_hilbert(8)), SingularAdmittance,
                 "inverse residual", id="inverse-residual"),
    # the solver's entry
    pytest.param(lambda: power_flow(_two_bus_flat()), NonConvergence,
                 "power flow: singular Jacobian", id="singular-power-flow"),
    pytest.param(lambda: initialize(_twomachine_with(inertia=1e-12, xd_prime=1e-6)),
                 InfeasibleInit, "initial state derivative", id="init-derivative"),
    pytest.param(lambda: initialize(_twomachine_with(inertia=1e12, xd_prime=1e-13)),
                 InfeasibleInit, "initial network residual", id="init-residual"),
    pytest.param(lambda: initialize(_two_bus_with(damping=float("nan"))), InfeasibleInit,
                 "initial state derivative nan", id="init-nan"),
    pytest.param(lambda: _two_bus_system().row("NOPE"), KeyError, "NOPE", id="no-such-row"),
    # the analysis
    pytest.param(lambda: distance_matrix({"A": CfSeries(np.zeros(3), np.zeros(3, complex))},
                                         (0.0, 1.0)),
                 ValueError, "need at least two devices", id="one-device"),
    pytest.param(lambda: _observer_check([]), ValueError,
                 "need at least one observation point", id="no-observation-point"),
    pytest.param(lambda: _observer_check([ObservationPoint(0, towards_bus=1)], (1.0, 2.0)),
                 EmptyWindow, "no valid samples in the observation window",
                 id="empty-observer-window"),
]


@pytest.mark.parametrize("call, error, message", LIBRARY_FAILURES)
def test_library_check_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


def test_base_values_rejected_before_any_simulation():
    # fields assigned after construction are checked again by `run`
    scenario = two_bus_scenario()
    for omega_base in (0.0, -1.0, float("nan"), float("inf")):
        scenario.omega_base = omega_base
        with pytest.raises(ValueError, match="must be positive and finite"):
            run(scenario)


def test_cluster_trajectory_defaults_to_default_window():
    traj = run(two_machine(t_end=1.05))
    matrix, _, groups = cluster_trajectory(traj, 1)
    explicit, _, explicit_groups = cluster_trajectory(traj, 1, window=default_window(traj))
    assert np.array_equal(matrix.values, explicit.values)
    assert groups == explicit_groups


def _numeric_args(cls) -> list[str]:
    """The constructor arguments of a device kind that take a number."""
    return [name for name, par in inspect.signature(cls).parameters.items()
            if "float" in str(par.annotation)]


# NaN arithmetic on the way to the refusal may warn, as a complex division does
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "kind, arg",
    [pytest.param(kind, arg, id=f"{kind}-{arg}")
     for kind, (cls, _) in _DEVICES.items() for arg in _numeric_args(cls)],
)
def test_a_nan_parameter_never_reaches_the_integrator(monkeypatch, kind, arg):
    # a device of `kind`, its required numbers 0.1, joins `two_bus_scenario`
    # at the machine's bus, or at the load's if it is a load; with `arg` NaN,
    # its constructor or `initialize` refuses it before the first step
    cls = _DEVICES[kind][0]
    parameters = inspect.signature(cls).parameters
    required = {name: 0.1 for name in _numeric_args(cls)
                if parameters[name].default is inspect.Parameter.empty}

    def on_two_bus(**changes) -> Scenario:
        base = two_bus_scenario()
        device = cls("X", 1 if cls.is_load else 0, **required | changes)
        return dataclasses.replace(base, devices=base.devices + [device])

    initialize(on_two_bus())  # the device as it is stands at an equilibrium

    def step(*args, **kwargs):
        raise AssertionError("a NaN parameter reached the integrator")

    monkeypatch.setattr(TrapezoidalIntegrator, "step", step)
    try:
        scenario = on_two_bus(**{arg: float("nan")})
    except ValueError:
        return
    with pytest.raises(CfCoherencyError):
        run(scenario)
