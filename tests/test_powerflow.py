from __future__ import annotations

import numpy as np
import pytest

from cfcoherency import Branch, Bus, Network, Scenario, SynchronousMachine, ZipLoad
from cfcoherency.errors import InfeasibleInit, NonConvergence
from cfcoherency.simulation import initialize, power_flow
from tests.conftest import OMEGA_B, two_bus_scenario


class TestPowerFlow:
    def test_two_bus_no_load_flat_profile(self):
        sc = two_bus_scenario(load_p=0.0)
        pf = power_flow(sc)
        assert np.allclose(pf.voltages, [1.0, 1.0], atol=1e-12)

    def test_two_bus_closed_form(self):
        # lossless line z = jX feeding a pure active draw p: the load voltage
        # follows b = -pX, a = (1 + sqrt(1 - 4 b^2)) / 2
        p, x = 0.1, 0.1
        sc = two_bus_scenario(load_p=p, x_line=x)
        pf = power_flow(sc)
        b = -p * x
        a = 0.5 * (1.0 + np.sqrt(1.0 - 4.0 * b * b))
        assert pf.voltages[1] == pytest.approx(a + 1j * b, abs=1e-9)
        assert pf.mismatch < 1e-8

    def test_ieee39_converges_and_balances(self, bundled_ieee39):
        pf = power_flow(bundled_ieee39)
        assert pf.mismatch < 1e-8
        total_load = sum(d.p0 for d in bundled_ieee39.devices if d.is_load)
        slack_bus = next(b.index for b in bundled_ieee39.network.buses if b.kind == "slack")
        gen_sched = sum(
            d.p for d in bundled_ieee39.devices if not d.is_load and d.bus != slack_bus
        )
        slack_load = sum(
            d.p0 for d in bundled_ieee39.devices if d.is_load and d.bus == slack_bus
        )
        slack_gen = pf.bus_injection[slack_bus].real + slack_load
        losses = pf.bus_injection.real.sum()
        assert gen_sched + slack_gen == pytest.approx(total_load + losses, abs=1e-6)

    def test_ieee39_matches_published_solution(self, bundled_ieee39):
        # spot values from the standard solved case (100 MVA base)
        pf = power_flow(bundled_ieee39)
        labels = bundled_ieee39.network.buses
        vm = {b.label: abs(pf.voltages[b.index]) for b in labels}
        assert vm[1] == pytest.approx(1.0394, abs=2e-4)
        assert vm[20] == pytest.approx(0.9910, abs=2e-4)
        slack_bus = next(b.index for b in labels if b.kind == "slack")
        slack_load = sum(
            d.p0 for d in bundled_ieee39.devices if d.is_load and d.bus == slack_bus
        )
        p_slack = (pf.bus_injection[slack_bus].real + slack_load) * 100.0
        assert p_slack == pytest.approx(677.87, abs=0.5)

    def test_nonconvergence_reported(self):
        # an impossible operating point: enormous draw over a weak line
        sc = two_bus_scenario(load_p=60.0, x_line=0.5)
        with pytest.raises(NonConvergence):
            power_flow(sc)

    def test_requires_single_slack(self):
        net = Network([Bus(0, kind="load"), Bus(1, kind="load")], [Branch(0, 1, 0.0, 0.1)])
        sc = Scenario(
            network=net,
            devices=[ZipLoad("L", 1, p0=0.1, q0=0.0)],
            omega_base=OMEGA_B,
        )
        with pytest.raises(NonConvergence):
            power_flow(sc)


class TestInitialize:
    def test_machine_back_solve(self):
        # delta and e'_q from E = v + j x'_d i at the dispatched operating point
        sc = two_bus_scenario(load_p=0.8, load_q=0.2)
        pf = power_flow(sc)
        x0, v0, system = initialize(sc, pf)
        sm, row = system.row("SM")
        i = np.conj((pf.bus_injection[0] + 0j) / pf.voltages[0])
        e_expected = pf.voltages[0] + 1j * sm.xd_prime[row] * i
        assert sm.e_field[row] == pytest.approx(abs(e_expected), rel=1e-12)
        assert x0[0] == pytest.approx(np.angle(e_expected), rel=1e-12)
        assert x0[1] == 1.0

    def test_zero_power_device(self):
        sc = two_bus_scenario(load_p=0.0)
        x0, v0, system = initialize(sc)
        sm, row = system.row("SM")
        assert sm.e_field[row] == pytest.approx(1.0, rel=1e-12)
        assert x0[0] == pytest.approx(0.0, abs=1e-12)

    def test_exact_equilibrium_ieee39(self, bundled_ieee39):
        x0, v0, system = initialize(bundled_ieee39)
        f0 = system.derivatives(x0, v0)
        assert np.max(np.abs(f0)) < 1e-9
        assert np.max(np.abs(system.network_residual(x0, v0))) < 1e-8

    def test_source_bus_without_source_rejected(self):
        net = Network(
            [Bus(0, kind="slack", v_set=1.0), Bus(1, kind="generation", v_set=1.0)],
            [Branch(0, 1, 0.0, 0.1)],
        )
        sc = Scenario(
            network=net,
            devices=[
                SynchronousMachine("SM", 0, inertia=8.0, xd_prime=0.1, omega_base=OMEGA_B, p=0.1)
            ],
            omega_base=OMEGA_B,
        )
        with pytest.raises(InfeasibleInit):
            initialize(sc)
