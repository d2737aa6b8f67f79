"""Seeded synthetic fleet: a `Trajectory` of source CF series in planted
coherent groups, for timing the analysis layer without a simulation.

Every group follows its own damped oscillatory mode; each member scales the
mode by its own factor and adds its own white noise, so distances inside a
group are small and distinct, and distances across groups are large.
"""

from __future__ import annotations

import numpy as np

from cfcoherency.simulation import Trajectory

GROUP_SIZES = (18, 14, 12, 11, 8, 7)
DT = 1e-3
T_END = 2.5
EVENT_TIME = 0.5
OMEGA_BASE = 2.0 * np.pi * 60.0


def make_fleet(seed: int) -> tuple[Trajectory, list[set[str]]]:
    """The synthetic trajectory and its planted partition (device names)."""
    rng = np.random.default_rng(seed)
    times = np.arange(int(round(T_END / DT)) + 1) * DT
    after = np.clip(times - EVENT_TIME, 0.0, None)
    names: list[str] = []
    groups: list[set[str]] = []
    series: list[np.ndarray] = []
    for g, size in enumerate(GROUP_SIZES):
        decay = rng.uniform(0.5, 3.0)
        freq = 2.0 * np.pi * rng.uniform(0.4, 2.5)
        amp = 10.0 ** rng.uniform(-3.0, -2.7)
        phase_rho, phase_omega = rng.uniform(0.0, 2.0 * np.pi, 2)
        envelope = amp * np.exp(-decay * after) * (times >= EVENT_TIME)
        mode = envelope * (
            np.cos(freq * after + phase_rho) + 1j * np.sin(freq * after + phase_omega)
        )
        # evenly spread member scales with jitter: the merge order inside a
        # group, and with it the UPGMA cost, varies little from seed to seed
        spacing = 0.1 / size
        scales = np.linspace(0.95, 1.05, size) + rng.uniform(-0.3, 0.3, size) * spacing
        members = set()
        for m, scale in enumerate(rng.permutation(scales)):
            name = f"S{g}_{m}"
            noise = amp * 1e-3 * (
                rng.standard_normal(times.size) + 1j * rng.standard_normal(times.size)
            )
            series.append(1j + scale * mode + noise)
            names.append(name)
            members.add(name)
        groups.append(members)

    cf = np.stack(series, axis=1)
    # currents consistent with their CFs: i = exp(omega_base * integral of eta)
    increments = 0.5 * DT * (cf[1:] + cf[:-1])
    log_i = np.vstack([np.zeros((1, len(names))), np.cumsum(increments, axis=0)])
    currents = np.exp(OMEGA_BASE * log_i)
    voltages = np.exp(1j * OMEGA_BASE * times)[:, None]
    traj = Trajectory(
        times=times,
        voltages=voltages,
        currents=currents,
        states={},
        analytic_cf={name: cf[:, d].copy() for d, name in enumerate(names)},
        voltage_cf=np.full_like(voltages, 1j),
        device_names=names,
        device_buses=[0] * len(names),
        device_kinds=["sm"] * len(names),
        bus_labels=[1],
        event_times=[EVENT_TIME],
        dt=DT,
        omega_base=OMEGA_BASE,
    )
    return traj, groups
