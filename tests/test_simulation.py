from __future__ import annotations

import numpy as np
import pytest

from cfcoherency import Branch, Bus, Event, Network, Scenario, SynchronousMachine, ZipLoad
from cfcoherency import simulation
from cfcoherency.coherency import build_two_machine_scenario
from cfcoherency.devices import DeviceBlock
from cfcoherency.errors import NewtonDivergence
from cfcoherency.scenario_io import bundled_scenario_path, load_scenario
from cfcoherency.simulation import (
    DaeSystem,
    TrapezoidalIntegrator,
    _apply_event,
    initialize,
    run,
)
from tests.conftest import OMEGA_B, mixed_scenario, state_vector, two_bus_scenario


class _LinearEquations:
    """dx/dt = lam * x and a fixed unit injection, used to probe the
    integrator against the scalar trapezoidal formula."""

    def derivatives(self, x, v):
        return (self.lam * x[..., 0])[..., None]

    def injected_current(self, x, v):
        return np.ones_like(v)

    def voltage_sensitivity(self, x, v):
        return 0.0j * v, 0.0j * v

    def current_state_rate(self, x, xdot, v):
        return 0.0j * v


class _LinearTestBlock(_LinearEquations, DeviceBlock):
    params = ("lam",)


class _LinearTestDevice(_LinearEquations):
    n_states = 1
    state_names = ("x",)
    kind = "test"
    has_analytic_cf = False
    is_load = False
    settable_params = ()
    block = _LinearTestBlock

    def __init__(self, lam):
        self.name = "lin"
        self.bus = 0
        self.lam = lam
        self.p = 0.0


class TestTrapezoidalRule:
    def test_scalar_linear_ode_formula(self):
        # one step of x' = lam x must give x1 = x0 (1 + lam h / 2)/(1 - lam h / 2)
        from cfcoherency.network import Shunt

        lam, h, x0 = -3.0, 0.01, 2.0
        dev = _LinearTestDevice(lam)
        # a unit shunt absorbs the device's fixed unit injection
        net = Network([Bus(0, kind="slack")], [], [Shunt(0, conductance=1.0)])
        system = DaeSystem(net, [dev], OMEGA_B)
        integ = TrapezoidalIntegrator(system, tol=1e-12)
        v = np.array([1.0 + 0.0j])
        x1, v1, _ = integ.step(np.array([x0]), v, h)
        expected = x0 * (1 + lam * h / 2) / (1 - lam * h / 2)
        assert x1[0] == pytest.approx(expected, rel=1e-12)

    def test_equilibrium_state_unchanged(self):
        sc = two_bus_scenario(load_p=0.5, load_q=0.1)
        x0, v0, system = initialize(sc)
        integ = TrapezoidalIntegrator(system)
        x1, v1, iters = integ.step(x0, v0, 1e-3)
        assert iters == 0
        assert np.array_equal(x1, x0)
        assert np.array_equal(v1, v0)


class TestRun:
    def test_no_events_everything_frozen(self):
        sc = mixed_scenario(t_end=2.0, with_pulse=False)
        traj = run(sc)
        for name, arr in traj.states.items():
            assert np.max(np.abs(arr - arr[0])) < 1e-7, name
        for name, cf in traj.analytic_cf.items():
            assert np.max(np.abs(cf - 1j)) < 1e-7, name

    def test_equilibrium_holds_ten_seconds(self):
        sc = build_two_machine_scenario(0.35, 0.55, t_end=10.0)
        sc.events.clear()
        traj = run(sc)
        for name, arr in traj.states.items():
            assert np.max(np.abs(arr - arr[0])) < 1e-7, name

    def test_algebraic_residuals_at_accepted_steps(self):
        # the load pulse is restored exactly, so outside the 10 ms pulse the
        # final device parameters reproduce every accepted sample
        sc = mixed_scenario(t_end=1.5)
        traj = run(sc)
        _, _, system = initialize(sc)
        for k in range(0, traj.times.size, 100):
            if 0.999 <= traj.times[k] <= 1.011:
                continue
            xk = state_vector(system, traj, k)
            r = system.network_residual(xk, traj.voltages[k])
            assert np.max(np.abs(r)) < 1e-8

    def test_order_two_convergence(self):
        # halving the step shrinks the endpoint error by about four
        def endpoint(dt):
            sc = build_two_machine_scenario(0.3, 0.3, t_end=1.5, dt=dt)
            traj = run(sc)
            return np.concatenate([traj.states["SM1"][-1], traj.states["SM2"][-1]])

        ref = endpoint(1e-4)
        e1 = np.max(np.abs(endpoint(2e-3) - ref))
        e2 = np.max(np.abs(endpoint(1e-3) - ref))
        assert e1 / e2 == pytest.approx(4.0, rel=0.35)

    def test_event_reversibility(self):
        # pulse applied and exactly inverted: damped system relaxes back
        # towards the pre-event equilibrium
        sc = mixed_scenario(t_end=10.0)
        traj = run(sc)
        sm = traj.states["SM"]
        moved = np.max(np.abs(sm[:, 1] - 1.0))
        assert moved > 1e-5  # the pulse genuinely disturbed the machine
        mid = abs(sm[traj.sample_index(2.0), 1] - 1.0)
        end = abs(sm[-1, 1] - 1.0)
        assert end < mid
        assert end < 1e-5
        # the dynamic equations are rotation-invariant, so convergence is
        # checked on frame-independent quantities
        assert np.max(np.abs(np.abs(traj.voltages[-1]) - np.abs(traj.voltages[0]))) < 1e-5
        rel = sm[:, 0] - traj.states["GFM"][:, 1]
        dev = np.abs(rel - rel[0])
        assert dev[-1] < 0.4 * dev[traj.sample_index(2.0)]
        assert dev[-1] < 2e-4

    def test_event_snaps_to_step_and_reports(self):
        sc = two_bus_scenario(load_p=0.4)
        sc.t_end = 0.5
        sc.events = [Event(0.2504, "load_scale", bus=1, factor=1.05)]
        traj = run(sc)
        assert traj.events_applied == 1
        assert traj.event_times == [pytest.approx(0.250)]
        # sample at the event instant carries the post-event algebraic state
        k = traj.sample_index(0.250)
        v_before = abs(traj.voltages[k - 1, 1])
        v_at = abs(traj.voltages[k, 1])
        assert v_at < v_before  # load increase pulls the voltage down

    def test_estimator_mask_pads_events(self):
        sc = two_bus_scenario(load_p=0.4)
        sc.t_end = 0.5
        sc.events = [Event(0.25, "load_scale", bus=1, factor=1.05)]
        traj = run(sc)
        valid = traj.estimator_valid(pad=2)
        k = traj.sample_index(0.25)
        assert not valid[k - 2 : k + 3].any()
        assert valid[k - 3] and valid[k + 3]
        assert traj.estimator_valid(pad=2).mean() > 0.95

    def test_load_disconnect_mw_scales_both_components(self):
        sc = two_bus_scenario(load_p=2.06, load_q=0.276)
        sc.t_end = 0.2
        sc.events = [Event(0.1, "load_disconnect_mw", bus=1, amount=100.0)]
        assert run(sc).events_applied == 1
        initialize(sc)
        load = sc.devices[1]
        q_ratio_before = load.q0 / load.p0
        _apply_event(sc, sc.events[0])
        factor = 1.0 - 1.0 / 2.06
        assert load.nominal_p == pytest.approx(2.06 * factor, rel=1e-12)
        assert load.q0 / load.p0 == pytest.approx(q_ratio_before, rel=1e-12)

    def test_set_parameter_event(self):
        sc = two_bus_scenario(load_p=0.4)
        sc.t_end = 0.3
        sc.events = [Event(0.1, "set_parameter", device="SM", param="p_m", value=0.41)]
        traj = run(sc)
        # extra mechanical power accelerates the machine
        assert traj.states["SM"][-1, 1] > 1.0 + 1e-6

    def test_rerun_is_identical(self):
        # events and initialization change device parameters; none of that
        # may leak from one run of a scenario into the next
        sc = load_scenario(bundled_scenario_path("ieee39"))
        sc.t_end = 1.5
        first, second = run(sc), run(sc)
        assert first.events_applied == second.events_applied == 1
        assert np.array_equal(first.voltages, second.voltages)
        assert np.array_equal(first.currents, second.currents)
        assert first.analytic_cf.keys() == second.analytic_cf.keys()
        for name, cf in first.analytic_cf.items():
            assert np.array_equal(cf, second.analytic_cf[name]), name

    def test_divergence_is_reported(self):
        # a constant-power load stepped far beyond the line's transfer limit
        # has no algebraic solution at all
        sc = two_bus_scenario(load_p=0.4, kz_p=0.0, kp_p=1.0)
        sc.t_end = 0.2
        sc.events = [Event(0.1, "load_scale", bus=1, factor=400.0)]
        with pytest.raises(NewtonDivergence):
            run(sc)

    def test_halvings_are_counted_and_logged(self, monkeypatch, caplog):
        # the first Newton solve diverges once: that step is halved, and
        # both halves converge
        newton_step = TrapezoidalIntegrator._newton_step
        failed = []

        def diverge_once(self, x, v, dt):
            if not failed:
                failed.append(dt)
                raise NewtonDivergence("forced")
            return newton_step(self, x, v, dt)

        monkeypatch.setattr(TrapezoidalIntegrator, "_newton_step", diverge_once)
        sc = two_bus_scenario(load_p=0.4)
        sc.t_end = 0.01
        with caplog.at_level("WARNING", logger=simulation.__name__):
            traj = run(sc)
        assert traj.halvings == 1
        assert traj.times.size == 11
        [record] = caplog.records
        assert record.name == simulation.__name__
        assert "t=0 s" in record.getMessage() and "depth 1" in record.getMessage()


class TestVoltageRates:
    def test_match_trajectory_differences(self):
        # implicit differentiation of the bus equations must agree with
        # finite differences of the simulated voltages on smooth segments
        sc = mixed_scenario(t_end=2.0)
        traj = run(sc)
        _, _, system = initialize(sc)
        k = traj.sample_index(1.5)
        xk = state_vector(system, traj, k)
        xdot = system.derivatives(xk, traj.voltages[k])
        vdot = system.voltage_rates(xk, traj.voltages[k], xdot)
        fd = (traj.voltages[k + 1] - traj.voltages[k - 1]) / (2 * traj.dt)
        assert np.max(np.abs(vdot - fd)) < 5e-4 * max(1.0, np.max(np.abs(fd)))


def _off_equilibrium():
    """The mixed grid moved off its operating point, so that every
    sensitivity is generic; the S-load gives a nonzero conjugate part b."""
    sc = mixed_scenario(with_pulse=False)
    x0, v0, system = initialize(sc)
    rng = np.random.default_rng(7)
    x = x0 + 0.01 * rng.standard_normal(x0.size)
    v = v0 * (1.0 + 0.02 * (rng.standard_normal(v0.size) + 1j * rng.standard_normal(v0.size)))
    return sc, system, x, v


class TestSensitivities:
    H = 1e-6

    def test_voltage_jacobian_matches_finite_differences(self):
        sc, system, x, v = _off_equilibrium()
        sl = sc.device("SL")
        assert abs(sl.voltage_sensitivity(np.empty(0), complex(v[sl.bus]))[1]) > 0.1
        jac = system.voltage_jacobian(x, v)
        fd = np.empty_like(jac)
        for col in range(2 * system.n_bus):
            dv = np.zeros(system.n_bus, dtype=complex)
            dv[col // 2] = self.H if col % 2 == 0 else 1j * self.H
            diff = system.network_residual(x, v + dv) - system.network_residual(x, v - dv)
            fd[0::2, col] = diff.real / (2 * self.H)
            fd[1::2, col] = diff.imag / (2 * self.H)
        assert np.max(np.abs(jac - fd)) < 1e-7 * np.max(np.abs(jac))

    def test_state_columns_match_finite_differences(self):
        # ∂ı/∂x_k is the current rate at the unit state rate e_k, both per
        # device and in the network rows of the Newton matrix
        sc, system, x, v = _off_equilibrium()
        integ = TrapezoidalIntegrator(system)
        newton = integ._jacobian(integ._pack(x, v), 1e-3)
        nx = system.n_states
        for dev, sl in zip(sc.devices, system.slices):
            vb = complex(v[dev.bus])
            for k in range(dev.n_states):
                dx = np.zeros(dev.n_states)
                dx[k] = self.H
                fd = (
                    dev.injected_current(x[sl] + dx, vb) - dev.injected_current(x[sl] - dx, vb)
                ) / (2 * self.H)
                exact = dev.current_state_rate(x[sl], np.eye(dev.n_states)[k], vb)
                assert abs(exact - fd) < 1e-7 * max(1.0, abs(fd)), (dev.name, k)
                col = newton[nx + 2 * dev.bus : nx + 2 * dev.bus + 2, sl.start + k]
                assert np.array_equal(col, [exact.real, exact.imag]), (dev.name, k)
        assert np.array_equal(newton[nx:, nx:], system.voltage_jacobian(x, v))
