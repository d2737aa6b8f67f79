from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from cfcoherency import (
    AnalysisOptions,
    Branch,
    Bus,
    Event,
    GridFollowingConverter,
    GridFormingConverter,
    IbrFilter,
    Network,
    Scenario,
    SynchronousMachine,
    ZipLoad,
    split_machines,
)
from cfcoherency.scenario_io import bundled_scenario_path, load_scenario
from cfcoherency.simulation import FD_STEP

OMEGA_B = 2.0 * np.pi * 60.0


def two_bus_scenario(load_p=0.1, load_q=0.0, x_line=0.1, **load_fracs) -> Scenario:
    """Slack machine feeding a single load over one reactive branch."""
    net = Network(
        [Bus(0, kind="slack", v_set=1.0, label=1), Bus(1, kind="load", label=2)],
        [Branch(0, 1, 0.0, x_line)],
    )
    devices = [
        SynchronousMachine("SM", 0, inertia=8.0, xd_prime=0.05, omega_base=OMEGA_B, p=load_p),
        ZipLoad("LOAD", 1, p0=load_p, q0=load_q, **load_fracs),
    ]
    return Scenario(network=net, devices=devices, t_end=1.0, dt=1e-3, omega_base=OMEGA_B)


def two_machine(alpha: float | None = None, beta: float | None = None, **changes) -> Scenario:
    """The bundled two-machine scenario with `changes` to its fields, and
    its machines split (alpha, beta) by `split_machines` when both are given."""
    scenario = dataclasses.replace(load_scenario(bundled_scenario_path("twomachine")), **changes)
    return scenario if alpha is None else split_machines(scenario, alpha, beta)


def mixed_scenario(t_end=3.0, with_pulse=True) -> Scenario:
    """Compact grid with every device type: SM, GFL, GFM, Z-load, S-load."""
    net = Network(
        [
            Bus(0, kind="slack", v_set=1.02, label=1),
            Bus(1, kind="generation", v_set=1.01, label=2),
            Bus(2, kind="generation", v_set=1.0, label=3),
        ],
        [
            Branch(0, 1, 0.005, 0.06, 0.02),
            Branch(1, 2, 0.004, 0.05, 0.02),
            Branch(0, 2, 0.006, 0.08, 0.02),
        ],
    )
    devices = [
        SynchronousMachine(
            "SM", 0, inertia=10.0, xd_prime=0.08, omega_base=OMEGA_B, damping=2.0, p=1.0
        ),
        GridFollowingConverter(
            "GFL", 1, IbrFilter(0.15, 0.003, v_dc=2.0), OMEGA_B, p=0.6
        ),
        GridFormingConverter(
            "GFM", 2, IbrFilter(0.15, 0.005, v_dc=2.0), OMEGA_B,
            ki_voltage=2.0, t_power=0.3, droop=0.008, p=0.5,
        ),
        ZipLoad("ZL", 1, p0=1.0, q0=0.3),
        ZipLoad("SL", 2, p0=0.8, q0=0.2, kz_p=0.0, kp_p=1.0, kz_q=0.0, kp_q=1.0),
    ]
    events = []
    if with_pulse:
        events = [
            Event(1.0, "load_scale", bus=1, factor=1.1),
            Event(1.01, "load_scale", bus=1, factor=1.0 / 1.1),
        ]
    return Scenario(
        network=net,
        devices=devices,
        events=events,
        t_end=t_end,
        dt=1e-3,
        omega_base=OMEGA_B,
        analysis=AnalysisOptions(cluster_devices=["SM", "GFL", "GFM"]),
    )


def zip_load(name="ZIP", bus=2) -> ZipLoad:
    """A load with Z, I and P parts in both powers, for `mixed_scenario`."""
    return ZipLoad(
        name, bus, p0=0.3, q0=0.1, kz_p=0.5, ki_p=0.3, kp_p=0.2, kz_q=0.4, ki_q=0.3, kp_q=0.3
    )


def state_vector(system, traj, k) -> np.ndarray:
    """The system state vector at sample k of a trajectory, placed through
    `system.slices` (the system orders states by device kind)."""
    x = np.empty(system.n_states)
    for name, sl in zip(traj.device_names, system.slices):
        if name in traj.states:
            x[sl] = traj.states[name][k]
    return x


def reference_devices(system, devices) -> list:
    """Copies of the scalar devices that hold the system's block parameters
    as they are now."""
    refs = copy.deepcopy(devices)
    for d in refs:
        blk, row = system.row(d.name)
        for name in blk.params:
            setattr(d, name, getattr(blk, name)[row].item())
        d.derive()
    return refs


def device_fd_blocks(dev, x_d: np.ndarray, vb: complex):
    """Forward-difference sensitivities of one scalar device's state
    derivatives with respect to its own states and to its terminal voltage
    (Re, Im), the way the Newton matrix takes them for a whole block."""
    n = dev.n_states
    f0 = dev.derivatives(x_d, vb)
    df_dx = np.zeros((n, n))
    for k in range(n):
        h = FD_STEP * (1.0 + abs(x_d[k]))
        xp = x_d.copy()
        xp[k] += h
        df_dx[:, k] = (dev.derivatives(xp, vb) - f0) / h
    h = FD_STEP * (1.0 + abs(vb))
    df_dv = np.zeros((n, 2))
    for k, dv in enumerate((h, 1j * h)):
        df_dv[:, k] = (dev.derivatives(x_d, vb + dv) - f0) / h
    return df_dx, df_dv


@pytest.fixture(scope="session")
def bundled_ieee39():
    return load_scenario(bundled_scenario_path("ieee39"))
