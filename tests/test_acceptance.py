"""Acceptance suite.

Every top-level requirement is exercised here at its stated tolerance, one
PASS/FAIL line per check (run pytest with -s to see them).  The heavy grid
studies are simulated once per session and shared across checks.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from cfcoherency import (
    cluster_trajectory,
    coherency_function,
    device_cf,
    device_cf_numerical,
    distance_matrix,
    numerical_cf,
    observer_independence_check,
)
from cfcoherency.coherency import default_window, two_machine_distance
from cfcoherency.devices import ibr_current_cf, sm_current_cf
from cfcoherency.network import power_contribution
from cfcoherency.scenario_io import bundled_scenario_path, load_scenario
from cfcoherency.simulation import run
from tests.conftest import OMEGA_B, mixed_scenario, two_machine, zip_load


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def ieee39_run():
    sc = load_scenario(bundled_scenario_path("ieee39"))
    t0 = time.perf_counter()
    traj = run(sc)
    groups = cluster_trajectory(
        traj, sc.analysis.k_clusters, sc.analysis.cluster_devices, sc.analysis.window
    )[2]
    wall = time.perf_counter() - t0
    return sc, traj, groups, wall


@pytest.fixture(scope="module")
def ieee39_mod_run():
    sc = load_scenario(bundled_scenario_path("ieee39_mod"))
    t0 = time.perf_counter()
    traj = run(sc)
    groups = cluster_trajectory(
        traj, sc.analysis.k_clusters, sc.analysis.cluster_devices, sc.analysis.window
    )[2]
    wall = time.perf_counter() - t0
    return sc, traj, groups, wall


class TestCriterion1TwoMachineValley:
    def test_perfect_coherency_line_and_contrast(self):
        t0 = time.perf_counter()
        sc = two_machine(t_end=3.0)
        on_line = {a: two_machine_distance(sc, a, 1.0 - a) for a in (0.3, 0.5, 0.7)}
        off_line = {a: two_machine_distance(sc, a, a) for a in (0.3, 0.7)}
        wall = time.perf_counter() - t0
        ok = all(v < 1e-6 for v in on_line.values())
        ok &= all(off_line[a] >= 100.0 * on_line[a] and off_line[a] > 0 for a in off_line)
        ok &= wall < 30.0
        assert report(
            "criterion 1 (alpha = 1 - beta valley)",
            ok,
            f"on-line {max(on_line.values()):.2e} pu*s, "
            f"off/on ratio >= {min(off_line[a] / max(on_line[a], 1e-300) for a in off_line):.1e}, "
            f"{wall:.1f} s",
        )


class TestCriterion2SmCondition:
    ALPHA = 0.05

    def _max_eps(self, modify=None) -> float:
        sc = two_machine(self.ALPHA, 1.0 - self.ALPHA, t_end=3.0)
        if modify:
            modify(sc)
        traj = run(sc)
        eps = coherency_function(device_cf(traj, "SM1"), device_cf(traj, "SM2"))
        return float(np.max(np.abs(eps.values)))

    def test_matched_ratios_stay_coherent(self):
        value = self._max_eps()
        assert report(
            "criterion 2 (matched ratios coherent)", value < 1e-6, f"max|eps| = {value:.2e} pu"
        )

    def test_inertia_ratio_violation_detected(self):
        def bump(sc):
            sc.device("SM2").inertia *= 1.1

        value = self._max_eps(bump)
        assert report(
            "criterion 2 (inertia ratio +10%)", value > 1e-3, f"max|eps| = {value:.2e} pu"
        )

    def test_reactance_ratio_violation_detected(self):
        def bump(sc):
            sc.device("SM2").xd_prime *= 1.1

        value = self._max_eps(bump)
        assert report(
            "criterion 2 (reactance ratio +10%)", value > 1e-3, f"max|eps| = {value:.2e} pu"
        )

    def test_current_ratio_violation_detected(self):
        # push reactive dispatch into machine 2 until |i2|/|i1| sits 10%
        # above the inertia ratio while P stays inertia-proportional
        alpha = self.ALPHA
        s_total = complex(0.9, np.sqrt(1.0 - 0.81))
        target = 1.1 * (1.0 - alpha) / alpha

        def ratio(d):
            s1 = complex(alpha * s_total.real, alpha * s_total.imag - d)
            s2 = complex((1 - alpha) * s_total.real, (1 - alpha) * s_total.imag + d)
            return abs(s2) / abs(s1)

        lo, hi = 0.0, alpha * s_total.imag
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if ratio(mid) < target:
                lo = mid
            else:
                hi = mid
        shift = 0.5 * (lo + hi)

        def bump(sc):
            sc.device("SM1").q_weight = alpha * s_total.imag - shift
            sc.device("SM2").q_weight = (1 - alpha) * s_total.imag + shift

        value = self._max_eps(bump)
        # Known red check, kept at the 1e-3 detection threshold on purpose.
        # The inertia and reactance ratios stay reciprocal, so the x'*M
        # products stay matched; x'*|i| is only about 0.005 pu, so the split
        # moves the EMF magnitudes by 0.13% and the two machines'
        # synchronizing coefficients barely differ.  ε is first order in the
        # violation and in the 10-ms +10% pulse: 2.0e-6 pu at +1%, 2.7e-5 pu
        # here, and 2.7e-4 pu here with a +100% pulse, all below 1e-3.
        assert report(
            "criterion 2 (initial current ratio +10%)",
            value > 1e-3,
            f"max|eps| = {value:.2e} pu",
        )


class TestCriterion3Ieee39Clustering:
    def test_partition_and_runtime(self, ieee39_run):
        sc, traj, groups, wall = ieee39_run
        expected = [
            {"G1"},
            {"G2", "G3", "G4", "G5", "G6", "G7"},
            {"G8", "G10"},
            {"G9"},
        ]
        got = sorted([tuple(sorted(g)) for g in groups])
        want = sorted([tuple(sorted(g)) for g in expected])
        ok = got == want and wall < 60.0
        assert report(
            "criterion 3 (IEEE 39 groups)", ok, f"{got} in {wall:.1f} s"
        )

    def test_single_group_cut(self, ieee39_run):
        sc, traj, groups, wall = ieee39_run
        all_in_one = cluster_trajectory(
            traj, 1, sc.analysis.cluster_devices, sc.analysis.window
        )[2]
        assert len(all_in_one) == 1
        assert all_in_one[0] == set(sc.analysis.cluster_devices)


class TestCriterion4ModifiedIeee39Clustering:
    def test_partition_and_runtime(self, ieee39_mod_run):
        sc, traj, groups, wall = ieee39_mod_run
        expected = [
            {"GFL5", "GFL7", "GFL8", "GFL10"},
            {"G2", "G3", "G4", "GFM6"},
            {"G1"},
            {"GFM9"},
        ]
        got = sorted([tuple(sorted(g)) for g in groups])
        want = sorted([tuple(sorted(g)) for g in expected])
        ok = got == want and wall < 60.0
        assert report(
            "criterion 4 (modified IEEE 39 groups)", ok, f"{got} in {wall:.1f} s"
        )


class TestIeee39QualitativeShape:
    def test_cf_imaginary_parts_rise_then_settle_together(self, ieee39_run):
        # the load drop lifts the frequency; the rotational CF parts of every
        # machine rise and converge to a common settled value
        sc, traj, groups, wall = ieee39_run
        names = sc.analysis.cluster_devices
        omega_cf = np.stack([traj.analytic_cf[n].imag for n in names], axis=1)
        pre = omega_cf[traj.sample_index(0.5)]
        end = omega_cf[-1]
        assert np.allclose(pre, 1.0, atol=1e-9)
        assert np.all(end > 1.0 + 1e-4)
        assert np.max(end) - np.min(end) < 1e-4


class TestCriterion5ObserverIndependence:
    def test_three_pairs_two_points(self, ieee39_run):
        sc, traj, groups, wall = ieee39_run
        points = sc.analysis.observation_points
        assert len(points) >= 2
        worst = 0.0
        for d1, d2 in (("G2", "G5"), ("G8", "G9"), ("G1", "G10")):
            worst = max(
                worst, observer_independence_check(traj, sc.network, d1, d2, points)
            )
        assert report(
            "criterion 5 (observer independence)", worst < 1e-4, f"max deviation {worst:.2e} pu"
        )


class TestCriterion6CfOracle:
    def test_every_device_type(self):
        sc = mixed_scenario(t_end=3.0)
        sc.devices[4].bus = 1  # S-load shares the Z-load bus; GFM bus stays sound
        sc.devices.append(zip_load())
        traj = run(sc)
        tol = max(1e-4, 10.0 * traj.dt**2 * traj.omega_base)
        worst: dict[str, float] = {}
        for name in ("SM", "ZL", "SL", "ZIP", "GFL", "GFM"):
            eps = coherency_function(
                device_cf(traj, name), device_cf_numerical(traj, name)
            )
            worst[name] = float(np.max(np.abs(eps.values[eps.valid])))
        ok = all(v < tol for v in worst.values())
        detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
        assert report(f"criterion 6 (analytic vs numerical CF, tol {tol:.1e})", ok, detail)


class TestCriterion7Properties:
    def test_cf_scale_invariance(self):
        t = np.arange(200) * 1e-3
        x = (0.8 - 0.4j) * np.exp((0.03 + 1.01j) * OMEGA_B * t)
        base = numerical_cf(x, 1e-3, OMEGA_B).values
        ok = True
        for k in (3.0, -0.25, 2j, 0.3 - 1.7j, 1e4 + 1e-4j):
            eta = numerical_cf(k * x, 1e-3, OMEGA_B).values
            ok &= bool(np.all(np.abs(eta - base) < 1e-12 * np.abs(base)))
        assert report("criterion 7a (CF scale invariance)", ok, "5 complex factors")

    def test_same_bus_z_loads_perfectly_coherent(self):
        sc = mixed_scenario(t_end=2.0)
        sc.devices.append(type(sc.devices[3])("ZL2", 1, p0=0.4, q0=0.1))
        traj = run(sc)
        eps = coherency_function(device_cf(traj, "ZL"), device_cf(traj, "ZL2"))
        value = float(np.max(np.abs(eps.values)))
        assert report("criterion 7b (same-bus Z-loads)", value == 0.0, f"max|eps| = {value:.1e}")

    def test_s_vs_z_gap_is_twice_rho_v(self):
        sc = mixed_scenario(t_end=2.0)
        sc.devices[4].bus = 1
        traj = run(sc)
        eps = coherency_function(device_cf(traj, "ZL"), device_cf(traj, "SL"))
        rho_v = traj.voltage_cf[:, 1].real
        value = float(np.max(np.abs(eps.values - 2.0 * rho_v)))
        assert report("criterion 7c (S vs Z gap = 2 rho_v)", value < 1e-12, f"dev {value:.1e}")

    def test_ibr_reduces_to_machine_formula(self):
        ok = True
        for omega_r in (0.98, 1.0, 1.02):
            for s in (0.4 + 0.1j, -0.3 + 0.2j):
                for eta_v in (1j, 0.012 + 0.99j):
                    a = ibr_current_cf(s, 0.61, 1j * 0.07, 0.0, 1j * omega_r, eta_v)
                    b = sm_current_cf(s, 0.61, 0.07, omega_r, eta_v)
                    ok &= abs(a - b) < 1e-13
        assert report("criterion 7d (IBR reduction identity)", ok, "12 operating points")

    def test_superposition_of_power_contributions(self):
        sc = load_scenario(bundled_scenario_path("ieee39"))
        sc.t_end = 2.0
        sc.tolerance = 1e-10
        traj = run(sc)
        z = sc.network.impedance()
        worst = 0.0
        for pt in sc.analysis.observation_points:
            i_dir = sc.network.branch_current(pt.bus, pt.towards_bus, traj.voltages)
            s_obs = traj.voltages[:, pt.bus] * np.conj(i_dir)
            s_sum = np.zeros_like(s_obs)
            for name, bus in zip(traj.device_names, traj.device_buses):
                s_sum += power_contribution(i_dir, z[pt.bus, bus], traj.device_current(name))
            worst = max(worst, float(np.max(np.abs(s_sum - s_obs))))
        assert report(
            "criterion 7e (contribution superposition)", worst < 1e-9, f"max dev {worst:.1e} pu"
        )

    def test_equilibrium_cf_is_synchronous(self):
        sc = mixed_scenario(t_end=1.0, with_pulse=False)
        traj = run(sc)
        worst = max(
            float(np.max(np.abs(cf - 1j))) for cf in traj.analytic_cf.values()
        )
        assert report(
            "criterion 7f (equilibrium CF = j)", worst < 1e-9, f"max dev {worst:.1e} pu"
        )

    def test_integrator_second_order(self):
        def endpoint(dt):
            sc = two_machine(0.3, 0.3, t_end=1.5, dt=dt)
            traj = run(sc)
            return np.concatenate([traj.states["SM1"][-1], traj.states["SM2"][-1]])

        ref = endpoint(1e-4)
        e1 = float(np.max(np.abs(endpoint(2e-3) - ref)))
        e2 = float(np.max(np.abs(endpoint(1e-3) - ref)))
        ratio = e1 / e2
        ok = 2.8 < ratio < 5.5
        assert report(
            "criterion 7g (order-2 convergence)", ok, f"error ratio {ratio:.2f} (expect ~4)"
        )
