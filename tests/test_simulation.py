from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcoherency import (
    Branch,
    Bus,
    Event,
    Network,
    Scenario,
    SynchronousMachine,
    ZipLoad,
    ibr_current_cf,
    sm_current_cf,
)
from cfcoherency import simulation
from cfcoherency.coherency import cluster_trajectory, device_cf
from cfcoherency.devices import Device
from cfcoherency.errors import EmptyWindow, EventError, NewtonDivergence
from cfcoherency.primitives import MAGNITUDE_GUARD
from cfcoherency.scenario_io import bundled_scenario_path, load_scenario
from cfcoherency.simulation import (
    DaeSystem,
    TrapezoidalIntegrator,
    initialize,
    run,
)
from tests.conftest import (
    OMEGA_B,
    device_fd_blocks,
    mixed_scenario,
    reference_devices,
    state_vector,
    two_bus_scenario,
    two_machine,
)


class _LinearTestDevice(Device):
    """dx/dt = lam * x and a fixed unit injection, used to probe the
    integrator against the scalar trapezoidal formula."""

    params = ("lam",)
    n_states = 1
    state_names = ("x",)
    kind = "test"

    def __init__(self, lam):
        super().__init__("lin", 0)
        self.lam = lam
        self.p = 0.0

    def evaluate(self, x, v):
        return (self.lam * x[..., 0])[..., None], np.ones_like(v)

    def voltage_sensitivity(self, x, v):
        return 0.0j * v, 0.0j * v

    def current_state_rate(self, x, xdot, v):
        return 0.0j * v


def diverge_once(newton_step):
    """`newton_step` behind a first call that raises `NewtonDivergence`, so
    the first step that calls it is halved."""
    failed = []

    def wrapper(self, x, v, f, rn, dt):
        if not failed:
            failed.append(dt)
            raise NewtonDivergence("forced")
        return newton_step(self, x, v, f, rn, dt)

    return wrapper


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
        x, v = np.array([x0]), np.array([1.0 + 0.0j])
        x1, v1, f1, _, _ = integ.step(x, v, *system.residual(x, v), h)
        expected = x0 * (1 + lam * h / 2) / (1 - lam * h / 2)
        assert x1[0] == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(f1, system.derivatives(x1, v1))

    def test_equilibrium_state_unchanged(self):
        sc = two_bus_scenario(load_p=0.5, load_q=0.1)
        x0, v0, system = initialize(sc)
        integ = TrapezoidalIntegrator(system)
        f0, rn0 = system.residual(x0, v0)
        x1, v1, f1, rn1, iters = integ.step(x0, v0, f0, rn0, 1e-3)
        assert iters == 0
        assert np.array_equal(f1, f0)
        assert np.array_equal(rn1, rn0)
        assert np.array_equal(x1, x0)
        assert np.array_equal(v1, v0)


class TestCarriedResidual:
    """`step` and `solve_algebraic` hand back the residual pair (f, rn) at the
    point they return, so the next step need not evaluate it: the pair must
    equal a fresh `DaeSystem.residual` there, bit for bit."""

    @staticmethod
    def off_equilibrium():
        sc = two_bus_scenario(load_p=0.5, load_q=0.1)
        x0, v0, system = initialize(sc)
        x = x0 + 1e-3  # every state nudged, so the step iterates
        return x, v0, system

    @staticmethod
    def assert_fresh(system, x, v, f, rn):
        f_new, rn_new = system.residual(x, v)
        assert np.array_equal(f, f_new)
        assert np.array_equal(rn, rn_new)

    def test_plain_step(self):
        x, v, system = self.off_equilibrium()
        integ = TrapezoidalIntegrator(system)
        x1, v1, f1, rn1, iters = integ.step(x, v, *system.residual(x, v), 1e-3)
        assert iters > 0 and integ.halvings == 0
        assert integ.residuals == iters
        self.assert_fresh(system, x1, v1, f1, rn1)

    def test_halved_step(self, monkeypatch):
        monkeypatch.setattr(
            TrapezoidalIntegrator, "_newton_step", diverge_once(TrapezoidalIntegrator._newton_step)
        )
        x, v, system = self.off_equilibrium()
        integ = TrapezoidalIntegrator(system)
        x1, v1, f1, rn1, iters = integ.step(x, v, *system.residual(x, v), 1e-3)
        assert integ.halvings == 1 and iters > 0
        self.assert_fresh(system, x1, v1, f1, rn1)

    def test_algebraic_resolve_after_event(self):
        sc = mixed_scenario(t_end=1.5)
        x, v, system = initialize(sc)
        [writes, _] = sc.check().values()  # the pulse, then its restoration
        for name, param, value in writes:
            blk, row = system.row(name)
            getattr(blk, param)[row] = value
        system.derive()
        integ = TrapezoidalIntegrator(system)
        v1, f1, rn1 = integ.solve_algebraic(x, v)
        assert not np.array_equal(v1, v)
        self.assert_fresh(system, x, v1, f1, rn1)


def _reference_residual(system, x, v):
    """`DaeSystem.residual` as first written: the currents gathered into a
    preallocated array, every block's derivatives written back, and each
    product taken over a column of one vector."""
    f = np.empty(x.shape)
    currents = np.empty(v.shape[:-1] + system.order.shape, dtype=complex)
    col = 0
    for blk in system.blocks:
        f_b, i_b = blk.evaluate(*system._local(blk, x, v))
        f[..., blk.states] = f_b.reshape(x.shape[:-1] + (-1,))
        currents[..., col : col + blk.n] = i_b
        col += blk.n
    rn = np.matmul(system.incidence, currents[..., None])[..., 0]
    return f, rn - np.matmul(system.y, v[..., None])[..., 0]


def _reference_newton_step(self, x, v, f_prev, rn_prev, dt):
    """`TrapezoidalIntegrator._newton_step` as first written: the iterate
    packed into one vector z before the first residual, each residual
    assembled into a preallocated vector, and z unpacked for every residual,
    the Newton matrix and the result."""
    sys = self.system
    nx = sys.n_states

    def unpack(z):
        return z[:nx], z[nx:].view(complex)

    z = np.empty(sys.n_vars)
    z[:nx] = x
    z[nx:] = v.view(float)
    x1, f, rn = x, f_prev, rn_prev
    r0 = None
    for it in range(simulation.NEWTON_MAX_ITER):
        if it:
            x1, v1 = unpack(z)
            f, rn = _reference_residual(sys, x1, v1)
            self.residuals += 1
        r = np.empty(sys.n_vars)
        r[:nx] = x1 - x - 0.5 * dt * (f_prev + f)
        r[nx:] = rn.view(float)
        norm = np.abs(r).max()
        if not np.isfinite(norm):
            raise NewtonDivergence("non-finite residual")
        if norm < self.tol:
            self.total_newton_iters += it
            return *unpack(z), f, rn, it
        if r0 is None:
            r0 = norm
        elif norm > 1e3 * max(r0, 1.0):
            raise NewtonDivergence("residual blew up")
        if self._jinv is None or self._j_dt != dt or it == simulation.NEWTON_REFRESH_ITER:
            self._refresh(*unpack(z), dt)
        z = z - self._jinv @ r
    raise NewtonDivergence("no convergence")


class _ReferenceIntegrator(TrapezoidalIntegrator):
    _newton_step = _reference_newton_step


def _solver_state(integ):
    return (
        integ.total_newton_iters, integ.refreshes, integ.residuals, integ.halvings, integ._j_dt
    )


def _assert_same_step(got, want, integ, reference):
    """Equal (x, v, f, rn, iters) bit for bit, equal counters and the same
    Newton matrix."""
    assert len(got) == len(want) == 5
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert _solver_state(integ) == _solver_state(reference)
    assert (integ._jinv is None) == (reference._jinv is None)
    assert integ._jinv is None or np.array_equal(integ._jinv, reference._jinv)


class TestStepMatchesReference:
    """Every step returns bit for bit what the first-written Newton loop
    returns from the same point, with the same Newton matrix, and counts
    the same iterations, refreshes, residuals and halvings."""

    @staticmethod
    def run_checked(monkeypatch, scenario):
        """`run` with each step checked against a reference integrator that
        starts from a copy of the step's integrator; the iterations of the
        steps, in order."""
        step = TrapezoidalIntegrator.step
        iters = []

        def checked_step(self, x, v, f, rn, dt, t=0.0, _depth=0):
            reference = _ReferenceIntegrator.__new__(_ReferenceIntegrator)
            vars(reference).update(vars(self))
            want = step(reference, x, v, f, rn, dt, t, _depth)
            got = step(self, x, v, f, rn, dt, t, _depth)
            _assert_same_step(got, want, self, reference)
            iters.append(got[4])
            return got

        monkeypatch.setattr(TrapezoidalIntegrator, "step", checked_step)
        return run(scenario), iters

    def test_mixed_grid_across_its_pulse(self, monkeypatch):
        traj, iters = self.run_checked(monkeypatch, mixed_scenario(t_end=1.05))
        assert traj.events_applied == 2
        assert len(iters) == 1050 and max(iters) >= 2 and iters.count(0) > 900

    def test_ieee39_across_its_event(self, monkeypatch):
        sc = load_scenario(bundled_scenario_path("ieee39"))
        sc.t_end = 1.05  # the analysis window is not read by `run`
        traj, iters = self.run_checked(monkeypatch, sc)
        assert traj.events_applied == 1
        assert iters[:1000] == [0] * 1000 and min(iters[1000:]) >= 1

    def test_forced_halving(self, monkeypatch):
        for cls in (TrapezoidalIntegrator, _ReferenceIntegrator):
            monkeypatch.setattr(cls, "_newton_step", diverge_once(cls._newton_step))
        x, v, system = TestCarriedResidual.off_equilibrium()
        f, rn = system.residual(x, v)
        integ, reference = TrapezoidalIntegrator(system), _ReferenceIntegrator(system)
        want = reference.step(x, v, f, rn, 1e-3)
        got = integ.step(x, v, f, rn, 1e-3)
        assert integ.halvings == 1 and got[4] > 0
        _assert_same_step(got, want, integ, reference)


class TestRun:
    def test_no_events_everything_frozen(self):
        sc = mixed_scenario(t_end=2.0, with_pulse=False)
        traj = run(sc)
        for name, arr in traj.states.items():
            assert np.max(np.abs(arr - arr[0])) < 1e-7, name
        for name, cf in traj.analytic_cf.items():
            assert np.max(np.abs(cf - 1j)) < 1e-7, name

    def test_equilibrium_holds_ten_seconds(self):
        sc = two_machine(0.35, 0.55, t_end=10.0)
        sc.events.clear()
        traj = run(sc)
        for name, arr in traj.states.items():
            assert np.max(np.abs(arr - arr[0])) < 1e-7, name

    @pytest.mark.parametrize(
        "name, iters, refreshes, residuals",
        [
            ("twomachine", 3996, 2, 4000),
            ("ieee39", 4380, 1, 4382),
            ("ieee39_mod", 7655, 1, 7657),
        ],
    )
    def test_solver_counts_of_the_bundled_scenarios(self, name, iters, refreshes, residuals):
        # at 3 s; a Newton matrix is built only where a step does not meet
        # the tolerance at its first residual, so none before the first event.
        # A step evaluates one residual per iteration, since it starts from
        # the pair its predecessor evaluated; each event's re-solve adds two
        sc = dataclasses.replace(load_scenario(bundled_scenario_path(name)), t_end=3.0)
        traj = run(sc)
        assert (traj.newton_iters, traj.refreshes, traj.halvings) == (iters, refreshes, 0)
        assert traj.residuals == residuals

    def test_solver_counts_at_the_cluster_horizon(self):
        # `cluster ieee39` simulates EVENT_MASK_PAD + 1 samples past its
        # window: the 1,000 steps before the event meet the tolerance at the
        # pair they are handed; of the 1,403 after it, the first 8 take one
        # iteration on the matrix built at the event and the rest take two
        sc = load_scenario(bundled_scenario_path("ieee39"))
        horizon = sc.analysis.window[1] + (simulation.EVENT_MASK_PAD + 1) * sc.dt
        traj = run(dataclasses.replace(sc, t_end=horizon))
        assert traj.times.size - 1 == 2403
        assert (traj.newton_iters, traj.refreshes, traj.halvings) == (2798, 1, 0)
        assert traj.residuals == 2800

    def test_run_looks_up_step_at_every_step(self, monkeypatch):
        # the benchmark's set-up probe swaps `TrapezoidalIntegrator.step` for
        # a wrapper that puts the original back at its first call; a `run`
        # that kept the method it found first would call the wrapper again
        original = TrapezoidalIntegrator.step
        calls = []

        def first_step(self, *args, **kwargs):
            calls.append(args)
            TrapezoidalIntegrator.step = original
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TrapezoidalIntegrator, "step", first_step)
        traj = run(load_scenario(bundled_scenario_path("twomachine")))
        assert len(calls) == 1 and traj.times.size > 2

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
            sc = two_machine(0.3, 0.3, t_end=1.5, dt=dt)
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

    def test_load_disconnect_mw_scales_both_components(self, monkeypatch):
        systems = []

        def capture(scenario):
            out = initialize(scenario)
            systems.append(out[2])
            return out

        monkeypatch.setattr(simulation, "initialize", capture)
        sc = two_bus_scenario(load_p=2.06, load_q=0.276)
        sc.t_end = 0.2
        sc.events = [Event(0.1, "load_disconnect_mw", bus=1, amount=100.0)]
        assert run(sc).events_applied == 1
        [system] = systems
        blk, row = system.row("LOAD")
        factor = 1.0 - 1.0 / 2.06
        assert blk.p0[row] == pytest.approx(2.06 * factor, rel=1e-12)
        assert blk.q0[row] / blk.p0[row] == pytest.approx(0.276 / 2.06, rel=1e-12)

    def test_fully_disconnected_load_has_no_cf(self):
        # all of ZL's 100 MW goes; the S-load keeps the load block voltage
        # dependent, so the zero current also meets the I and P terms
        sc = mixed_scenario(t_end=0.1, with_pulse=False)
        sc.events = [Event(0.05, "load_disconnect_mw", bus=1, amount=100.0)]
        traj = run(sc)
        k = traj.sample_index(0.05)
        cf = traj.analytic_cf["ZL"]
        assert np.all(np.isfinite(cf[:k].view(float)))
        assert np.all(np.isnan(cf[k:]))
        assert np.all(traj.device_current("ZL")[k:] == 0.0)
        # so distances with ZL leave out the samples after the disconnect
        assert np.array_equal(device_cf(traj, "ZL").valid, np.arange(cf.size) < k)
        with pytest.raises(EmptyWindow, match="holds 0 usable sample"):
            cluster_trajectory(traj, 2, ["SM", "ZL"], (0.06, 0.1))

    def test_source_without_current_has_no_cf(self):
        # the only load goes, so the machine injects nothing: its CF is
        # NaN wherever its current is at or below the guard, as a load's is
        # when it draws nothing.  After the event the machine's current is
        # only solver noise, of the order of the Newton tolerance, so some
        # of those samples are above the guard.
        sc = two_bus_scenario(load_p=0.4)
        sc.t_end = 0.2
        sc.events = [Event(0.1, "load_disconnect_mw", bus=1, amount=40.0)]
        traj = run(sc)
        k = traj.sample_index(0.1)
        cf = traj.analytic_cf["SM"]
        dead = np.abs(traj.device_current("SM")) <= MAGNITUDE_GUARD
        assert not dead[:k].any() and dead[k]
        assert np.all(np.isfinite(cf[:k].view(float)))
        assert np.array_equal(np.isnan(cf), dead)
        assert np.all(np.isnan(traj.analytic_cf["LOAD"][k:]))
        with pytest.raises(EmptyWindow, match="holds 0 usable sample"):
            cluster_trajectory(traj, 2, ["SM", "LOAD"], (0.12, 0.2))

    def test_set_parameter_event(self):
        sc = two_bus_scenario(load_p=0.4)
        sc.t_end = 0.3
        sc.events = [Event(0.1, "set_parameter", device="SM", param="p_m", value=0.41)]
        traj = run(sc)
        # extra mechanical power accelerates the machine
        assert traj.states["SM"][-1, 1] > 1.0 + 1e-6

    def test_rerun_is_identical(self):
        # events and initialization change parameters; none of that may
        # leak from one run of a scenario into the next
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
        monkeypatch.setattr(
            TrapezoidalIntegrator, "_newton_step", diverge_once(TrapezoidalIntegrator._newton_step)
        )
        sc = two_bus_scenario(load_p=0.4)
        sc.t_end = 0.01
        with caplog.at_level("WARNING", logger=simulation.__name__):
            traj = run(sc)
        assert traj.halvings == 1
        assert traj.times.size == 11
        [record] = caplog.records
        assert record.name == simulation.__name__
        assert "t=0 s" in record.getMessage() and "depth 1" in record.getMessage()


def spec_snapshot(sc) -> tuple[list[dict], list[Event]]:
    """Every device's attributes and every event, copied."""
    return [copy.deepcopy(vars(d)) for d in sc.devices], copy.deepcopy(sc.events)


# parameter ranges the mixed grid rides through for a few tens of ms
SETTABLE = {
    "SM": {"p_m": (0.8, 1.2), "damping": (0.0, 4.0)},
    "GFL": {"iref_d": (0.4, 0.8), "iref_q": (-0.2, 0.2)},
    "GFM": {"p_ref": (0.3, 0.7), "v_ref": (0.95, 1.05)},
    "ZL": {"p0": (0.7, 1.2), "q0": (0.1, 0.4)},
    "SL": {"p0": (0.6, 1.0), "q0": (0.1, 0.3)},
}


@st.composite
def mixed_events(draw):
    """Up to four events of any action on the mixed grid, at step times in
    [0, 30 ms]; the loads (bus 1 and 2) keep most of their power."""
    events = []
    for _ in range(draw(st.integers(0, 4))):
        time = draw(st.integers(0, 30)) * 1e-3
        action = draw(st.sampled_from(["load_scale", "load_disconnect_mw", "set_parameter"]))
        if action == "set_parameter":
            device = draw(st.sampled_from(sorted(SETTABLE)))
            param = draw(st.sampled_from(sorted(SETTABLE[device])))
            value = draw(st.floats(*SETTABLE[device][param]))
            events.append(Event(time, action, device=device, param=param, value=value))
        elif action == "load_scale":
            factor = draw(st.floats(0.9, 1.1))
            events.append(Event(time, action, bus=draw(st.sampled_from([1, 2])), factor=factor))
        else:
            amount = draw(st.floats(0.0, 5.0))
            events.append(Event(time, action, bus=draw(st.sampled_from([1, 2])), amount=amount))
    return events


class TestRunLeavesScenario:
    @settings(max_examples=20, deadline=None)
    @given(mixed_events())
    def test_run_never_writes_to_its_scenario(self, events):
        sc = dataclasses.replace(mixed_scenario(t_end=0.03, with_pulse=False), events=events)
        before = spec_snapshot(sc)
        traj = run(sc)
        assert traj.events_applied == len(events)
        assert spec_snapshot(sc) == before


class TestEventChecks:
    """Events are checked when the scenario is built, not when they fire."""

    def with_events(self, *events):
        return dataclasses.replace(two_bus_scenario(load_p=0.4), events=list(events))

    @pytest.mark.parametrize(
        "event, message",
        [
            (Event(0.1, "set_parameter", device="NOPE", param="p_m", value=1.0),
             "unknown device 'NOPE'"),
            (Event(0.1, "set_parameter", device="SM", param="inertia", value=1.0),
             "no settable parameter 'inertia'"),
            (Event(0.1, "load_scale", bus=0, factor=1.1), "no load at bus 1"),
            (Event(0.1, "load_disconnect_mw", bus=1, amount=41.0),
             "cannot disconnect 41 MW from the 40.0 MW left at bus 2"),
        ],
        ids=["unknown_device", "not_settable", "bus_without_load", "oversized_disconnect"],
    )
    def test_bad_target_raises_at_construction(self, event, message):
        with pytest.raises(ValueError, match=message):
            self.with_events(event)

    @pytest.mark.parametrize(
        "event, message",
        [
            (Event(0.1, "load_disconnect_mw", bus=1, amount=-50.0),
             "amount -50 must not be negative"),
            (Event(0.1, "load_scale", bus=1, factor=-1.0), "factor -1 must not be negative"),
        ],
        ids=["negative_disconnect", "negative_scale"],
    )
    def test_negative_load_event_raises(self, event, message):
        # a negative disconnect raises the draw, a negative factor makes a source
        with pytest.raises(EventError, match=message) as err:
            self.with_events(Event(0.05, "load_scale", bus=1, factor=1.1), event)
        assert err.value.index == 1

    @pytest.mark.parametrize(
        "action, field_name",
        [("load_scale", "factor"), ("load_disconnect_mw", "amount"), ("set_parameter", "value")],
    )
    def test_missing_or_nonfinite_value_raises(self, action, field_name):
        for value in (None, float("nan"), float("inf"), "1.1"):
            with pytest.raises(ValueError, match=f"{field_name} must be a finite number"):
                Event(0.1, action, bus=1, device="SM", param="p_m", **{field_name: value})

    @pytest.mark.parametrize(
        "event, message",
        [
            (Event(0.1, "set_parameter", device="NOPE", param="p_m", value=1.0),
             "unknown device 'NOPE'"),
            (Event(0.1, "load_disconnect_mw", bus=1, amount=41.0),
             "cannot disconnect 41 MW from the 40.0 MW left at bus 2"),
        ],
        ids=["unknown_device", "oversized_disconnect"],
    )
    def test_events_assigned_after_construction_checked_by_run(self, event, message, monkeypatch):
        sc = two_bus_scenario(load_p=0.4)
        sc.events = [Event(0.05, "set_parameter", device="SM", param="p_m", value=0.4), event]

        def no_simulation(scenario):
            raise AssertionError("simulated a scenario that failed its checks")

        monkeypatch.setattr(simulation, "initialize", no_simulation)
        with pytest.raises(EventError, match=message) as err:
            run(sc)
        assert err.value.index == 1

    def test_zero_draw_may_be_set(self):
        # q0 is zero until the event sets it; all of it is a P part, so the
        # load turns voltage dependent and draws exactly that from then on
        sc = dataclasses.replace(
            two_bus_scenario(load_p=0.4, kz_q=0.0, kp_q=1.0),
            events=[Event(0.1, "set_parameter", device="LOAD", param="q0", value=0.1)],
            t_end=0.2,
        )
        traj = run(sc)
        k = traj.sample_index(0.1)
        q = -(traj.voltages[:, 1] * np.conj(traj.device_current("LOAD"))).imag
        assert np.max(np.abs(q[:k])) < 1e-15
        assert np.max(np.abs(q[k:] - 0.1)) < 1e-15
        assert np.all(np.isfinite(traj.analytic_cf["LOAD"].view(float)))

    def test_integer_draws_are_replayed_as_floats(self):
        sc = two_bus_scenario(load_p=0.4)
        sc.devices[1] = ZipLoad("LOAD", 1, p0=1, q0=0)
        sc.events = [Event(0.1, "load_scale", bus=1, factor=1.1)]
        assert sc.check() == {100: [("LOAD", "p0", 1.1), ("LOAD", "q0", 0.0)]}

    def test_disconnects_replay_earlier_load_changes_in_run_order(self):
        # 40 MW, halved at 0.1 s: 25 MW cannot go at 0.2 s, however the
        # events are listed; doubled instead, 60 MW can
        cut = Event(0.2, "load_disconnect_mw", bus=1, amount=25.0)
        with pytest.raises(ValueError, match="from the 20.0 MW left"):
            self.with_events(cut, Event(0.1, "load_scale", bus=1, factor=0.5))
        self.with_events(cut, Event(0.1, "load_scale", bus=1, factor=2.0))
        with pytest.raises(ValueError, match="from the 15.0 MW left"):
            self.with_events(cut, Event(0.1, "load_disconnect_mw", bus=1, amount=25.0))


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


@pytest.mark.parametrize("name", ["mixed", "ieee39_mod"])
def test_paper_closed_forms_give_the_recorded_source_cfs(name):
    # the chain-rule CF that a run records for each source, against the
    # paper's closed form on the same recorded samples, through an event;
    # a converter's internal-voltage CF comes from its own current rate.
    # No event changes a source's parameters, so the initialized ones hold
    if name == "mixed":
        sc = mixed_scenario(t_end=1.1)
    else:  # to the end of its analysis window, past its event at 1 s
        sc = load_scenario(bundled_scenario_path(name))
        sc = dataclasses.replace(sc, t_end=sc.analysis.window[1])
    traj = run(sc)
    _, _, system = initialize(sc)
    sources = [
        (k, d) for k, d in enumerate(reference_devices(system, sc.devices)) if d.n_states
    ]
    assert {d.kind for _, d in sources} == {"sm", "gfl", "gfm"}
    for k, d in sources:
        x, v, i = traj.states[d.name], traj.voltages[:, d.bus], traj.currents[:, k]
        eta_v = traj.voltage_cf[:, d.bus]
        s, i_mag = v * np.conj(i), np.abs(i)
        if d.kind == "sm":
            want = sm_current_cf(s, i_mag, d.xd_prime, x[:, 1], eta_v)
        else:
            rate = d.current_state_rate(x, d.derivatives(x, v), v)
            eta_e = d.z_f * rate / d.internal_voltage(x) / d.omega_base + 1j
            want = ibr_current_cf(s, i_mag, d.z_f, d.y_f, eta_e, eta_v)
        got = traj.analytic_cf[d.name]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), d.name


def _off_equilibrium():
    """The mixed grid moved off its operating point, so that every
    sensitivity is generic; the S-load gives a nonzero conjugate part b.
    Also scalar devices that hold the system's initialized parameters."""
    sc = mixed_scenario(with_pulse=False)
    x0, v0, system = initialize(sc)
    rng = np.random.default_rng(7)
    x = x0 + 0.01 * rng.standard_normal(x0.size)
    v = v0 * (1.0 + 0.02 * (rng.standard_normal(v0.size) + 1j * rng.standard_normal(v0.size)))
    return reference_devices(system, sc.devices), system, x, v


class TestSensitivities:
    H = 1e-6
    DT = 1e-3

    def test_voltage_jacobian_matches_finite_differences(self):
        devices, system, x, v = _off_equilibrium()
        sl = next(d for d in devices if d.name == "SL")
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

    def _newton(self, system, x, v):
        integ = TrapezoidalIntegrator(system)
        return integ._jacobian(x, v, self.DT)

    def test_state_columns_match_finite_differences(self):
        # ∂ı/∂x_k is the current rate at the unit state rate e_k: per scalar
        # device against central differences, and per block in the network
        # rows of the Newton matrix
        devices, system, x, v = _off_equilibrium()
        for dev, sl in zip(devices, system.slices):
            vb = complex(v[dev.bus])
            for k in range(dev.n_states):
                dx = np.zeros(dev.n_states)
                dx[k] = self.H
                fd = (
                    dev.injected_current(x[sl] + dx, vb) - dev.injected_current(x[sl] - dx, vb)
                ) / (2 * self.H)
                exact = dev.current_state_rate(x[sl], np.eye(dev.n_states)[k], vb)
                assert abs(exact - fd) < 1e-7 * max(1.0, abs(fd)), (dev.name, k)
        newton = self._newton(system, x, v)
        nx = system.n_states
        names = [d.name for d in devices]
        for blk in system.dynamic:
            xb, vb = x[blk.states].reshape(blk.n, blk.n_states), v[blk.bus]
            for k, e_k in enumerate(np.eye(blk.n_states)):
                rate = blk.current_state_rate(xb, e_k, vb)
                for row, name in enumerate(blk.name):
                    u = nx + 2 * blk.bus[row]
                    col = newton[u : u + 2, system.slices[names.index(name)].start + k]
                    assert np.array_equal(col, [rate[row].real, rate[row].imag]), (name, k)
        assert np.array_equal(newton[nx:, nx:], system.voltage_jacobian(x, v))

    def test_device_rows_match_scalar_finite_differences(self):
        # the block-built ∂f/∂x and ∂f/∂v against per-device forward
        # differences of the scalar equations; nothing else on the state rows
        devices, system, x, v = _off_equilibrium()
        newton = self._newton(system, x, v)
        nx = system.n_states
        got = np.zeros((nx, system.n_vars))
        want = np.zeros_like(got)
        for dev, sl in zip(devices, system.slices):
            if not dev.n_states:
                continue
            u = nx + 2 * dev.bus
            got[sl] = newton[sl] / (-0.5 * self.DT)
            got[sl, sl] += np.eye(dev.n_states) / (0.5 * self.DT)
            want[sl, sl], want[sl, u : u + 2] = device_fd_blocks(dev, x[sl], complex(v[dev.bus]))
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
