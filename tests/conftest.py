from __future__ import annotations

import copy
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from cfcoherency import (
    AnalysisOptions,
    Branch,
    Bus,
    Event,
    GridFollowingConverter,
    GridFormingConverter,
    Network,
    Scenario,
    SynchronousMachine,
    ZipLoad,
    numerical_cf,
    split_machines,
)
from cfcoherency.coherency import CfSeries, estimator_valid
from cfcoherency.devices import UNDEFINED_CF
from cfcoherency.scenario_io import bundled_scenario_path, load_scenario

OMEGA_B = 2.0 * np.pi * 60.0
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture()
def tracer_module():
    """`perfbench/tracer.py`, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The paper's closed-form current CFs, the oracles the recorded CFs are
# checked against.  A source's CF comes from `Device.analytic_cf`; a ZIP
# load's CF is the current-weighted mean of its parts' CFs, of which the last
# two are the Z and P parts' (`ZipLoad.analytic_cf`).

def sm_current_cf(s, i_mag, xd_prime, omega_r, eta_v):
    """CF of the current injected by a classical machine.

    `s` is the terminal complex power v̄·ı̄*, `i_mag` the current magnitude,
    `omega_r` the rotor speed in pu and `eta_v` the stationary-frame CF of
    the terminal voltage.  Broadcasts over numpy arrays.
    """
    j_omega = 1j * omega_r
    return s / (1j * xd_prime * i_mag**2) * (j_omega - eta_v) + j_omega


def ibr_current_cf(s, i_mag, z_f, y_f, eta_e, eta_v):
    """CF of the current injected by a voltage source ē behind a series
    impedance z̄_f and shunt admittance ȳ_f.

    Degenerates to `sm_current_cf` for z̄_f = j·x'_d, ȳ_f = 0 and
    η̄_e = j·ω_r.
    """
    return s / (z_f * i_mag**2) * (1.0 + z_f * y_f) * (eta_e - eta_v) + eta_e


def z_load_cf(eta_v):
    """Constant-impedance load: the current CF equals the voltage CF."""
    return eta_v


def s_load_cf(eta_v):
    """Constant-power load: the current CF is the negated conjugate of the
    voltage CF (rho flips sign, omega is preserved)."""
    return -np.conj(eta_v)


def device_cf_numerical(traj, name: str) -> CfSeries:
    """The estimator oracle: `numerical_cf` of a device's injected current,
    shifted to the stationary frame, and `UNDEFINED_CF` where
    `estimator_valid` is False."""
    series = numerical_cf(traj.device_current(name), traj.dt, traj.omega_base)
    return CfSeries(traj.times, np.where(estimator_valid(traj), series.values + 1j, UNDEFINED_CF))


def stencil_dilation(bad: np.ndarray) -> np.ndarray:
    """The samples whose estimator stencil reads a sample of `bad`: each such
    sample and its neighbours, and at an end the three samples of the
    one-sided stencil."""
    out = bad.copy()
    out[1:-1] |= bad[:-2] | bad[2:]
    out[0] |= bad[:3].any()
    out[-1] |= bad[-3:].any()
    return out


def find_device(scenario: Scenario, name: str):
    """The device of `scenario` named `name`."""
    return next(d for d in scenario.devices if d.name == name)


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
            "GFL", 1, x_filter=0.15, r_filter=0.003, v_dc=2.0, omega_base=OMEGA_B, p=0.6
        ),
        GridFormingConverter(
            "GFM", 2, x_filter=0.15, r_filter=0.005, v_dc=2.0, omega_base=OMEGA_B,
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


# the arguments a copy with share k of a device's current scales: by k
# (exponent 1) or by 1/k (exponent -1); the rest it takes as they are
SPLIT_SCALING = {
    "sm": {"inertia": 1, "damping": 1, "p": 1, "xd_prime": -1},
    "gfl": {"r_filter": -1, "x_filter": -1, "g_filter": 1, "b_filter": 1, "p": 1,
            "kp_current": -1, "ki_current": -1},
    "gfm": {"r_filter": -1, "x_filter": -1, "g_filter": 1, "b_filter": 1, "p": 1, "droop": -1},
}


def constructor_args(device) -> dict:
    """The keyword arguments, besides the name and the bus, that rebuild `device`."""
    values = vars(device).copy()
    if hasattr(device, "z_f"):
        values |= dict(r_filter=device.z_f.real, x_filter=device.z_f.imag,
                       g_filter=device.y_f.real, b_filter=device.y_f.imag)
    names = list(inspect.signature(type(device)).parameters)[2:]
    return {name: values[name] for name in names}


def split_device(device, k: float, **changes) -> list:
    """Copies of `device`, named with the suffixes a and b, with shares k and
    1 - k of its current: each rebuilds it from its constructor arguments
    with `changes`, and scales those of `SPLIT_SCALING` by its share."""
    args = constructor_args(device) | changes
    copies = []
    for suffix, share in (("a", k), ("b", 1.0 - k)):
        scaled = {key: args[key] * share**power
                  for key, power in SPLIT_SCALING[device.kind].items()}
        copies.append(type(device)(device.name + suffix, device.bus, **args | scaled))
    return copies


CENTRAL_STEP = 1e-5  # relative step of the central differences below


def device_fd_blocks(dev, x_d: np.ndarray, vb: complex):
    """Central-difference sensitivities of one scalar device's state
    derivatives with respect to its own states and to its terminal voltage
    (Re, Im), the blocks the Newton matrix holds for each device."""
    n = dev.n_states
    df_dx = np.zeros((n, n))
    for k in range(n):
        step = np.zeros(n)
        step[k] = h = CENTRAL_STEP * (1.0 + abs(x_d[k]))
        df_dx[:, k] = (dev.derivatives(x_d + step, vb) - dev.derivatives(x_d - step, vb)) / (2 * h)
    h = CENTRAL_STEP * (1.0 + abs(vb))
    df_dv = np.zeros((n, 2))
    for k, dv in enumerate((h, 1j * h)):
        df_dv[:, k] = (dev.derivatives(x_d, vb + dv) - dev.derivatives(x_d, vb - dv)) / (2 * h)
    return df_dx, df_dv


@pytest.fixture(scope="session")
def bundled_ieee39():
    return load_scenario(bundled_scenario_path("ieee39"))
