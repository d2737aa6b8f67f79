"""Observer independence of the coherency function, checked on a synthetic
two-bus system with prescribed current waveforms and on simulated runs."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cfcoherency import (
    Branch,
    Bus,
    Network,
    ObservationPoint,
    Shunt,
    coherency_function,
    numerical_cf,
    observer_independence_check,
)
from cfcoherency.network import power_contribution
from cfcoherency.simulation import run
from tests.conftest import OMEGA_B, mixed_scenario


class TestSyntheticTwoBus:
    def test_exact_cancellation_with_prescribed_currents(self):
        # two devices with analytically prescribed currents: the contribution
        # route and the direct CF difference agree to estimator precision
        net = Network(
            [Bus(0, kind="slack"), Bus(1)],
            [Branch(0, 1, 0.01, 0.12)],
            [Shunt(0, susceptance=0.25), Shunt(1, susceptance=0.35)],
        )
        z = net.impedance()
        dt = 1e-3
        t = np.arange(3000) * dt
        i1 = (0.9 + 0.1 * np.sin(4.0 * t)) * np.exp(1j * 0.15 * np.sin(3.0 * t))
        i2 = (0.6 + 0.05 * np.cos(5.0 * t)) * np.exp(1j * (0.3 + 0.1 * np.sin(2.0 * t)))
        inj = np.stack([i1, i2], axis=1)  # device 1 at bus 0, device 2 at bus 1
        v = inj @ z.T
        i_dir = net.branch_current(0, 1, v)
        s1 = power_contribution(i_dir, z[0, 0], i1)
        s2 = power_contribution(i_dir, z[0, 1], i2)
        eps_obs = coherency_function(
            numerical_cf(s1, dt, OMEGA_B), numerical_cf(s2, dt, OMEGA_B)
        )
        eps_direct = coherency_function(
            numerical_cf(i1, dt, OMEGA_B), numerical_cf(i2, dt, OMEGA_B)
        )
        dev = np.abs(eps_obs.values - eps_direct.values)
        assert np.max(dev) < 1e-10

    def test_direction_choice_does_not_matter(self):
        net = Network(
            [Bus(0, kind="slack"), Bus(1)],
            [Branch(0, 1, 0.01, 0.12)],
            [Shunt(0, susceptance=0.25), Shunt(1, susceptance=0.35)],
        )
        z = net.impedance()
        dt = 1e-3
        t = np.arange(2000) * dt
        i1 = np.exp((0.05 + 1j * 0.4) * np.sin(2 * t))
        i2 = 0.7 * np.exp(1j * 0.2 * np.cos(3 * t))
        inj = np.stack([i1, i2], axis=1)
        v = inj @ z.T
        results = []
        for h, j in ((0, 1), (1, 0)):
            i_dir = net.branch_current(h, j, v)
            s1 = power_contribution(i_dir, z[h, 0], i1)
            s2 = power_contribution(i_dir, z[h, 1], i2)
            eps = coherency_function(
                numerical_cf(s1, dt, OMEGA_B), numerical_cf(s2, dt, OMEGA_B)
            )
            results.append(eps.values)
        assert np.max(np.abs(results[0] - results[1])) < 1e-10


@pytest.fixture(scope="module")
def traj_and_scenario():
    sc = mixed_scenario(t_end=2.5)
    return run(sc), sc


class TestSimulatedRuns:
    def test_identical_device_is_noise_bounded(self, traj_and_scenario):
        traj, sc = traj_and_scenario
        dev = observer_independence_check(
            traj, sc.network, "SM", "SM", [ObservationPoint(0, towards_bus=1)]
        )
        assert dev < 1e-6

    def test_mixed_devices_across_points(self, traj_and_scenario):
        # the window opens once the fast converter modes have decayed, so the
        # finite-difference estimate of the contribution CFs is clean
        traj, sc = traj_and_scenario
        points = [
            ObservationPoint(0, towards_bus=1),
            ObservationPoint(1, towards_bus=2),
            ObservationPoint(2, towards_bus=0),
            ObservationPoint(1, device="ZL"),
        ]
        for d1, d2 in (("SM", "GFL"), ("GFL", "GFM"), ("SM", "ZL")):
            dev = observer_independence_check(
                traj, sc.network, d1, d2, points, window=(1.05, 2.5)
            )
            assert dev < 1e-4, (d1, d2, dev)

    def test_observation_point_validation(self):
        with pytest.raises(ValueError):
            ObservationPoint(0)
        with pytest.raises(ValueError):
            ObservationPoint(0, towards_bus=1, device="ZL")


def test_window_bounds_allow_for_sample_times_off_by_an_ulp(bundled_ieee39):
    # sample 26 is at 0.026000000000000002 s; a window on 0.026 s holds it,
    # as it does for the distance functions
    sc = dataclasses.replace(
        bundled_ieee39,
        t_end=0.1,
        events=[],
        analysis=dataclasses.replace(bundled_ieee39.analysis, window=None),
    )
    traj = run(sc)
    assert traj.times[26] > 0.026
    d1, d2 = sc.analysis.cluster_devices[:2]
    dev = observer_independence_check(
        traj, sc.network, d1, d2, sc.analysis.observation_points, window=(0.026, 0.026)
    )
    assert np.isfinite(dev)
