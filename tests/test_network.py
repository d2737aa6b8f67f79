from __future__ import annotations

import numpy as np
import pytest

from cfcoherency import Branch, Bus, Network, Shunt, ZipLoad, build_admittance, impedance_matrix
from cfcoherency.errors import (
    DisconnectedNetwork,
    NoSuchBranch,
    SingularAdmittance,
    ZeroImpedanceBranch,
)
from cfcoherency.network import power_contribution
from cfcoherency.scenario_io import bundled_scenario_path, load_scenario
from cfcoherency.simulation import DaeSystem, power_flow


def two_buses():
    return [Bus(0, kind="slack"), Bus(1)]


class TestBuildAdmittance:
    def test_single_reactive_branch(self):
        y = build_admittance(two_buses(), [Branch(0, 1, 0.0, 0.1)])
        expected = np.array([[-10j, 10j], [10j, -10j]])
        assert np.allclose(y, expected, atol=1e-14)

    def test_shunt_accumulates_on_diagonal(self):
        y = build_admittance(
            two_buses(), [Branch(0, 1, 0.0, 0.1)], [Shunt(0, susceptance=0.02)]
        )
        assert y[0, 0] == pytest.approx(-9.98j, rel=1e-14)
        assert y[1, 1] == pytest.approx(-10j, rel=1e-14)

    def test_charging_split_half_per_end(self):
        y = build_admittance(two_buses(), [Branch(0, 1, 0.0, 0.1, charging=0.04)])
        assert y[0, 0] == pytest.approx(-10j + 0.02j, rel=1e-14)
        assert y[1, 1] == pytest.approx(-10j + 0.02j, rel=1e-14)

    def test_row_sums_equal_shunt_terms(self):
        # without taps, series terms cancel along each row
        buses = [Bus(i) if i else Bus(0, kind="slack") for i in range(3)]
        branches = [Branch(0, 1, 0.01, 0.1, 0.02), Branch(1, 2, 0.02, 0.2, 0.04)]
        shunts = [Shunt(2, susceptance=0.5)]
        y = build_admittance(buses, branches, shunts)
        row_sums = y.sum(axis=1)
        assert row_sums[0] == pytest.approx(0.01j, abs=1e-14)
        assert row_sums[1] == pytest.approx(0.03j, abs=1e-14)
        assert row_sums[2] == pytest.approx(0.02j + 0.5j, abs=1e-14)

    def test_symmetry_for_reciprocal_branches(self):
        sc = load_scenario(bundled_scenario_path("ieee39"))
        y = sc.network.admittance()
        assert np.max(np.abs(y - y.T)) < 1e-14

    def test_zero_impedance_rejected(self):
        with pytest.raises(ZeroImpedanceBranch):
            Branch(0, 1, 0.0, 0.0)

    def test_disconnected_rejected(self):
        buses = [Bus(0, kind="slack"), Bus(1), Bus(2)]
        with pytest.raises(DisconnectedNetwork):
            build_admittance(buses, [Branch(0, 1, 0.0, 0.1)])


# matrices that cannot be inverted safely, each with the 1/κ₁ it reports
UNSAFE_ADMITTANCES = [
    pytest.param(np.array([[np.nan, 1.0], [1.0, 2.0]]), "0.00e+00", id="nan-entry"),
    pytest.param(np.array([[np.inf, 1.0], [1.0, 2.0]]), "0.00e+00", id="inf-entry"),
    pytest.param(np.array([[-10j, 10j], [10j, -10j]]), "0.00e+00", id="lossless-pair"),
    pytest.param(np.array([[-10j, 10j], [10j, -10j + 1e-11j]]), "2.50e-13", id="near-singular"),
]


class TestImpedanceMatrix:
    @pytest.mark.parametrize("y, rcond", UNSAFE_ADMITTANCES)
    def test_unsafe_inverse_is_singular(self, y, rcond):
        with pytest.raises(SingularAdmittance) as info:
            impedance_matrix(y)
        assert str(info.value) == f"reciprocal condition estimate {rcond} below 1e-12"

    def test_no_svd(self, bundled_ieee39, monkeypatch):
        # the check reads κ₁ from the inverse: Z̄ is np.linalg.inv(Ȳ) bit for bit
        y = bundled_ieee39.network.admittance()
        expected = np.linalg.inv(y)

        def fail(*args, **kwargs):
            raise AssertionError("impedance_matrix ran an SVD")

        monkeypatch.setattr(np.linalg, "cond", fail)
        monkeypatch.setattr(np.linalg, "svd", fail)
        assert impedance_matrix(y).tobytes() == expected.tobytes()
        for param in UNSAFE_ADMITTANCES:
            with pytest.raises(SingularAdmittance):
                impedance_matrix(param.values[0])

    def test_direct_inverse_consistency(self):
        y = np.array([[-9.98j, 10j], [10j, -9.99j]])
        z = impedance_matrix(y)
        assert np.max(np.abs(y @ z - np.eye(2))) < 1e-10

    def test_scalar_case(self):
        z = impedance_matrix(np.array([[2.0 - 1j]]))
        assert z[0, 0] == pytest.approx(1.0 / (2.0 - 1j), rel=1e-14)

    def test_ieee39_inverse_consistency(self, bundled_ieee39):
        y = bundled_ieee39.network.admittance()
        z = bundled_ieee39.network.impedance()
        assert np.max(np.abs(y @ z - np.eye(39))) < 1e-10


def shunted_pair_system():
    # two-bus system whose one device, a load, draws nothing: the
    # bus-current residual reduces to -Y v
    net = Network(
        two_buses(),
        [Branch(0, 1, 0.0, 0.1)],
        [Shunt(0, susceptance=0.02), Shunt(1, susceptance=0.01)],
    )
    return DaeSystem(net, [ZipLoad("L", 1, p0=0.0)], omega_base=2 * np.pi * 60)


class TestNetworkResidual:
    def test_zero_state(self):
        system = shunted_pair_system()
        r = system.network_residual(np.zeros(0), np.zeros(2, complex))
        assert np.all(r == 0)

    def test_converged_power_flow_is_consistent(self, bundled_ieee39):
        # net bus injections translated to currents must satisfy KCL
        sc = bundled_ieee39
        pf = power_flow(sc)
        inj = np.conj(pf.bus_injection / pf.voltages)
        r = inj - sc.network.admittance() @ pf.voltages
        assert np.max(np.abs(r)) < 1e-8

    def test_linearity_in_voltage(self):
        system = shunted_pair_system()
        y = system.y
        v = np.array([1.0 + 0j, 0.98 - 0.02j])
        base = system.network_residual(np.zeros(0), v)
        delta = 1e-3 + 2e-3j
        shifted = system.network_residual(np.zeros(0), v + np.array([delta, 0]))
        assert np.allclose(shifted - base, -y[:, 0] * delta, atol=1e-15)


class TestBranchCurrent:
    def test_zero_for_equal_voltages_without_shunt(self):
        net = Network(two_buses(), [Branch(0, 1, 0.0, 0.1)])
        v = np.array([1.0 + 0j, 1.0 + 0j])
        assert net.branch_current(0, 1, v) == pytest.approx(0.0, abs=1e-15)

    def test_ohms_law(self):
        net = Network(two_buses(), [Branch(0, 1, 0.0, 0.1)])
        v = np.array([1.0 + 0j, 0.95 + 0j])
        assert net.branch_current(0, 1, v) == pytest.approx(-0.5j, rel=1e-14)

    def test_missing_branch(self):
        net = Network(
            [Bus(0, kind="slack"), Bus(1), Bus(2)],
            [Branch(0, 1, 0.0, 0.1), Branch(1, 2, 0.0, 0.1)],
        )
        with pytest.raises(NoSuchBranch):
            net.branch_current(0, 2, np.ones(3, complex))

    def test_parallel_branches_accumulate(self):
        # two identical circuits between the same buses carry twice the flow
        single = Network(two_buses(), [Branch(0, 1, 0.0, 0.1)])
        double = Network(two_buses(), [Branch(0, 1, 0.0, 0.1), Branch(0, 1, 0.0, 0.1)])
        v = np.array([1.0 + 0j, 0.97 - 0.01j])
        assert double.branch_current(0, 1, v) == pytest.approx(
            2.0 * single.branch_current(0, 1, v), rel=1e-14
        )

    def test_kcl_at_steady_state_ieee39(self, bundled_ieee39):
        # branch currents leaving each bus plus shunt draw equal the net
        # device injection from the power flow
        sc = bundled_ieee39
        pf = power_flow(sc)
        v = pf.voltages
        inj = np.conj(pf.bus_injection / v)
        neighbours: dict[int, set[int]] = {}
        for br in sc.network.branches:
            neighbours.setdefault(br.from_bus, set()).add(br.to_bus)
            neighbours.setdefault(br.to_bus, set()).add(br.from_bus)
        for h in (0, 15, 27, 30, 38):
            leaving = sum(sc.network.branch_current(h, j, v) for j in neighbours[h])
            assert abs(leaving - inj[h]) < 1e-8

    def test_branch_loss_sum_matches_bus_injection_sum(self, bundled_ieee39):
        # independent loss bookkeeping: sum of two-ended branch powers equals
        # the sum of net bus injections
        sc = bundled_ieee39
        pf = power_flow(sc)
        v = pf.voltages
        total = 0.0
        for br in sc.network.branches:
            f, t = br.from_bus, br.to_bus
            total += (v[f] * np.conj(sc.network.branch_current(f, t, v))).real
            total += (v[t] * np.conj(sc.network.branch_current(t, f, v))).real
        assert total == pytest.approx(pf.bus_injection.real.sum(), abs=1e-8)


class TestPowerContribution:
    def test_single_device_recovers_full_power(self):
        # one device, one bus pair: contribution equals the observed power
        net = Network(
            two_buses(),
            [Branch(0, 1, 0.01, 0.1)],
            [Shunt(0, susceptance=0.3), Shunt(1, susceptance=0.2)],
        )
        z = net.impedance()
        i_dev = 0.8 - 0.2j  # single injection at bus 0
        inj = np.array([i_dev, 0.0j])
        v = z @ inj
        i_dir = net.branch_current(0, 1, v)
        s_obs = v[0] * np.conj(i_dir)
        s_contrib = power_contribution(i_dir, z[0, 0], i_dev)
        assert s_contrib == pytest.approx(s_obs, rel=1e-12)

    def test_zero_current_device_contributes_nothing(self):
        assert power_contribution(1.0 + 1j, 0.5j, 0.0) == 0.0

    def test_superposition_over_devices(self):
        net = Network(
            [Bus(0, kind="slack"), Bus(1), Bus(2)],
            [Branch(0, 1, 0.01, 0.1), Branch(1, 2, 0.02, 0.15)],
            [Shunt(0, susceptance=0.4), Shunt(2, susceptance=0.1)],
        )
        z = net.impedance()
        devices = [(0, 0.9 - 0.1j), (1, -0.4 - 0.05j), (2, -0.3 + 0.02j), (2, 0.1j)]
        inj = np.zeros(3, dtype=complex)
        for bus, i_d in devices:
            inj[bus] += i_d
        v = z @ inj
        for h, j in ((0, 1), (1, 2), (1, 0)):
            i_dir = net.branch_current(h, j, v)
            s_obs = v[h] * np.conj(i_dir)
            s_sum = sum(power_contribution(i_dir, z[h, bus], i_d) for bus, i_d in devices)
            assert abs(s_sum - s_obs) < 1e-12
