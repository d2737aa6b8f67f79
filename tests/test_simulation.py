from __future__ import annotations

import copy
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

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
)
from cfcoherency import simulation
from cfcoherency.coherency import EVENT_MASK_PAD, cluster_trajectory, device_cf, estimator_valid
from cfcoherency.devices import Device
from cfcoherency.errors import EmptyWindow, EventError, NewtonDivergence
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
    find_device,
    ibr_current_cf,
    mixed_scenario,
    reference_devices,
    sm_current_cf,
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

    def tangent(self, x, v, dx, dv):
        return self.lam * dx, 0.0j * dv


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
        x1, v1, f1, _ = integ.step(x, v, *system.residual(x, v), h)
        expected = x0 * (1 + lam * h / 2) / (1 - lam * h / 2)
        assert x1[0] == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(f1, system.derivatives(x1, v1))

    def test_equilibrium_state_unchanged(self):
        sc = two_bus_scenario(load_p=0.5, load_q=0.1)
        x0, v0, system = initialize(sc)
        integ = TrapezoidalIntegrator(system)
        f0, rn0 = system.residual(x0, v0)
        x1, v1, f1, rn1 = integ.step(x0, v0, f0, rn0, 1e-3)
        assert integ.total_newton_iters == 0
        assert np.array_equal(f1, f0)
        assert np.array_equal(rn1, rn0)
        assert np.array_equal(x1, x0)
        assert np.array_equal(v1, v0)


class TestNewtonChecks:
    """A Newton solve gives up at once on a residual it cannot reduce."""

    def test_non_finite_residual(self):
        x, v, system = TestCarriedResidual.off_equilibrium()
        f, rn = system.residual(x, v)
        rn[0] = np.nan
        integ = TrapezoidalIntegrator(system)
        with pytest.raises(NewtonDivergence, match=r"^non-finite residual at dt=1\.000e-03$"):
            integ._newton_step(x, v, f, rn, 1e-3)

    def test_residual_that_blows_up(self, monkeypatch):
        # the first iterate's bus balance reads 1e4 pu, over 1e3 times the
        # handed pair's residual norm (or 1, the larger)
        x, v, system = TestCarriedResidual.off_equilibrium()
        f, rn = system.residual(x, v)
        monkeypatch.setattr(system, "residual", lambda x1, v1: (f, np.full_like(rn, 1e4)))
        integ = TrapezoidalIntegrator(system)
        with pytest.raises(NewtonDivergence, match=r"^residual blew up to 1\.000e\+04 at dt="):
            integ._newton_step(x, v, f, rn, 1e-3)


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
        x1, v1, f1, rn1 = integ.step(x, v, *system.residual(x, v), 1e-3)
        assert integ.total_newton_iters > 0 and integ.halvings == 0
        assert integ.residuals == integ.total_newton_iters
        self.assert_fresh(system, x1, v1, f1, rn1)

    def test_halved_step(self, monkeypatch):
        monkeypatch.setattr(
            TrapezoidalIntegrator, "_newton_step", diverge_once(TrapezoidalIntegrator._newton_step)
        )
        x, v, system = self.off_equilibrium()
        integ = TrapezoidalIntegrator(system)
        x1, v1, f1, rn1 = integ.step(x, v, *system.residual(x, v), 1e-3)
        assert integ.halvings == 1 and integ.total_newton_iters > 0
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
    product taken over a column of one vector, the currents summed onto the
    buses by a dense 0/1 bus/device matrix whose columns follow the block
    order."""
    f = np.empty(x.shape)
    currents = np.empty(v.shape[:-1] + system.order.shape, dtype=complex)
    col = 0
    for blk in system.blocks:
        f_b, i_b = blk.evaluate(*system._local(blk, x, v))
        f[..., blk.states] = f_b.reshape(x.shape[:-1] + (-1,))
        currents[..., col : col + blk.n] = i_b
        col += blk.n
    buses = np.concatenate([blk.bus for blk in system.blocks])
    incidence = np.zeros((system.n_bus, system.order.size), dtype=complex)
    incidence[buses, np.arange(system.order.size)] = 1.0
    rn = np.matmul(incidence, currents[..., None])[..., 0]
    return f, rn - np.matmul(system.y, v[..., None])[..., 0]


def _reference_newton_step(self, x, v, f_prev, rn_prev, dt):
    """`TrapezoidalIntegrator._newton_step` as first written, with its
    correction history: the iterate packed into one vector z before the
    first residual, each residual assembled into a preallocated vector, and
    z unpacked for every residual, the Newton matrix and the result."""
    sys = self.system
    nx = sys.n_states
    n_vars = nx + 2 * sys.n_bus

    def unpack(z):
        return z[:nx], z[nx:].view(complex)

    z = np.empty(n_vars)
    z[:nx] = x
    z[nx:] = v.view(float)
    x1, f, rn = x, f_prev, rn_prev
    r0 = None
    for it in range(simulation.NEWTON_MAX_ITER):
        if it:
            x1, v1 = unpack(z)
            f, rn = _reference_residual(sys, x1, v1)
            self.residuals += 1
        r = np.empty(n_vars)
        r[:nx] = x1 - x - 0.5 * dt * (f_prev + f)
        r[nx:] = rn.view(float)
        norm = np.abs(r).max()
        if not np.isfinite(norm):
            raise NewtonDivergence("non-finite residual")
        if norm < self.tol:
            self.total_newton_iters += it
            if it == 0:
                # the handed pair met the tolerance: the series starts anew
                self._corrections = ()
            else:
                refined = z - self._jinv @ r
                self._corrections = (refined - z1,) + self._corrections[:2]
            return *unpack(z), f, rn
        if r0 is None:
            r0 = norm
        elif norm > 1e3 * max(r0, 1.0):
            raise NewtonDivergence("residual blew up")
        if self._jinv is None or self._j_dt != dt or it == simulation.NEWTON_REFRESH_ITER:
            self._refresh(*unpack(z), dt)  # forgets the corrections
        z = z - self._jinv @ r
        if it == 0:
            z1 = z.copy()  # the chord iterate from the handed pair
            if len(self._corrections) == 3:
                c0, c1, c2 = self._corrections
                z = z1 + 3 * (c0 - c1) + c2
    raise NewtonDivergence("no convergence")


class _ReferenceIntegrator(TrapezoidalIntegrator):
    _newton_step = _reference_newton_step


def _solver_state(integ):
    return (
        integ.total_newton_iters, integ.refreshes, integ.residuals, integ.halvings, integ._j_dt
    )


def _assert_same_step(got, want, integ, reference):
    """Equal (x, v, f, rn) bit for bit, equal counters, the same Newton
    matrix and the same correction history."""
    assert len(got) == len(want) == 4
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert _solver_state(integ) == _solver_state(reference)
    assert (integ._jinv is None) == (reference._jinv is None)
    assert integ._jinv is None or np.array_equal(integ._jinv, reference._jinv)
    for a, b in zip(integ._corrections, reference._corrections, strict=True):
        assert np.array_equal(a, b)


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
            before = self.total_newton_iters
            got = step(self, x, v, f, rn, dt, t, _depth)
            _assert_same_step(got, want, self, reference)
            iters.append(self.total_newton_iters - before)
            return got

        monkeypatch.setattr(TrapezoidalIntegrator, "step", checked_step)
        return run(scenario), iters

    def test_mixed_grid_across_its_pulse(self, monkeypatch):
        traj, iters = self.run_checked(monkeypatch, mixed_scenario(t_end=1.05))
        assert len(traj.event_times) == 2
        assert len(iters) == 51 and max(iters) >= 2 and iters.count(0) == 1

    def test_ieee39_across_its_event(self, monkeypatch):
        sc = load_scenario(bundled_scenario_path("ieee39"))
        sc.t_end = 1.05  # the analysis window is not read by `run`
        traj, iters = self.run_checked(monkeypatch, sc)
        assert len(traj.event_times) == 1
        assert iters == [0] + [1] * 50

    def test_forced_halving(self, monkeypatch):
        for cls in (TrapezoidalIntegrator, _ReferenceIntegrator):
            monkeypatch.setattr(cls, "_newton_step", diverge_once(cls._newton_step))
        x, v, system = TestCarriedResidual.off_equilibrium()
        f, rn = system.residual(x, v)
        integ, reference = TrapezoidalIntegrator(system), _ReferenceIntegrator(system)
        want = reference.step(x, v, f, rn, 1e-3)
        got = integ.step(x, v, f, rn, 1e-3)
        assert integ.halvings == 1 and integ.total_newton_iters > 0
        _assert_same_step(got, want, integ, reference)


class TestCorrectionHistory:
    """A step predicts its start from the corrections of the last three
    accepted steps, so that series must start anew wherever it breaks: at
    an event, at a halving and at a step that returns its handed pair.
    After each, the next step is bit for bit the step of a fresh integrator
    from the same point with the same Newton matrix."""

    DT = 1e-3

    def primed(self):
        """An integrator that keeps three corrections, the point and pair
        its last step returned, and the equilibrium of its system."""
        x0, v0, system = initialize(two_bus_scenario(load_p=0.5, load_q=0.1))
        x = x0 + 1e-3  # every state nudged, so the steps iterate
        integ = TrapezoidalIntegrator(system)
        state = (x, v0, *system.residual(x, v0))
        for _ in range(3):
            state = integ.step(*state, self.DT)
        assert len(integ._corrections) == 3
        return integ, state, (x0, v0)

    @staticmethod
    def fresh(integ):
        fresh = TrapezoidalIntegrator(integ.system, integ.tol)
        fresh._jinv, fresh._j_dt = integ._jinv, integ._j_dt
        return fresh

    @staticmethod
    def assert_same(got, want):
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    def assert_fresh_step(self, integ, state):
        fresh = self.fresh(integ)
        before = integ.total_newton_iters
        self.assert_same(integ.step(*state, self.DT), fresh.step(*state, self.DT))
        assert integ.total_newton_iters - before == fresh.total_newton_iters > 0
        self.assert_same(integ._corrections, fresh._corrections)

    def test_kept_corrections_move_the_start(self):
        # without a reset the step starts elsewhere than a fresh one
        integ, state, _ = self.primed()
        x1, _, _, _ = integ.step(*state, self.DT)
        x_fresh, _, _, _ = self.fresh(integ).step(*state, self.DT)
        assert not np.array_equal(x1, x_fresh)

    def test_event(self):
        integ, (x, v, _, _), _ = self.primed()
        blk, row = integ.system.row("LOAD")
        blk.p0[row] *= 1.1
        integ.system.derive()
        v, f, rn = integ.solve_algebraic(x, v)
        integ.invalidate()
        self.assert_fresh_step(integ, (x, v, f, rn))

    def test_forced_halving(self, monkeypatch):
        integ, state, _ = self.primed()
        fresh = self.fresh(integ)
        newton_step = TrapezoidalIntegrator._newton_step
        halved = []
        for solver in (integ, fresh):
            monkeypatch.setattr(TrapezoidalIntegrator, "_newton_step", diverge_once(newton_step))
            halved.append(solver.step(*state, self.DT))
        monkeypatch.setattr(TrapezoidalIntegrator, "_newton_step", newton_step)
        assert integ.halvings == fresh.halvings == 1
        self.assert_same(*halved)
        self.assert_same(integ._corrections, fresh._corrections)
        self.assert_fresh_step(integ, halved[0])

    def test_step_that_returns_its_handed_pair(self):
        integ, state, (x0, v0) = self.primed()
        f0, rn0 = integ.system.residual(x0, v0)
        iters = integ.total_newton_iters
        x1, _, _, _ = integ.step(x0, v0, f0, rn0, self.DT)
        assert integ.total_newton_iters == iters and np.array_equal(x1, x0)
        self.assert_fresh_step(integ, state)


def step_lengths(monkeypatch, copy=False):
    """The length of every step call, halves included, in the returned
    list.  With `copy`, every step returns copies of its outputs, so none
    returns the arrays it was handed and `run` takes every step."""
    step = TrapezoidalIntegrator.step
    calls = []

    def wrapped(self, *args, **kwargs):
        calls.append(args[4])
        out = step(self, *args, **kwargs)
        return tuple(a.copy() for a in out) if copy else out

    monkeypatch.setattr(TrapezoidalIntegrator, "step", wrapped)
    return calls


def assert_same_trajectory(got, want):
    """Every array of two trajectories equal byte for byte and every other
    field equal, but the count of filled steps."""
    for name in (f.name for f in dataclasses.fields(got) if f.name != "filled"):
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, dict):
            assert a.keys() == b.keys(), name
            pairs = [(a[key], b[key]) for key in a]
        elif isinstance(a, np.ndarray):
            pairs = [(a, b)]
        else:
            assert a == b, name
            continue
        for x, y in pairs:
            assert (x.dtype, x.shape) == (y.dtype, y.shape), name
            assert x.tobytes() == y.tobytes(), name


class TestFixedPointFill:
    """A step that returns the arrays it was handed, without a halving, is a
    fixed point: `run` fills the rows up to the next event instead of taking
    the steps, and must give what a run that takes every step gives, byte
    for byte, with the same solver counts."""

    @staticmethod
    def both(monkeypatch, make):
        """`run` of a fresh `make()` as it is and with every step taken, and
        the step calls of each."""
        with monkeypatch.context() as m:
            calls = step_lengths(m)
            traj = run(make())
        with monkeypatch.context() as m:
            forced_calls = step_lengths(m, copy=True)
            forced = run(make())
        assert_same_trajectory(traj, forced)
        assert forced.filled == 0
        return traj, calls, forced_calls

    @pytest.mark.parametrize("name", ["twomachine", "ieee39", "ieee39_mod", "mixed"])
    def test_equals_a_run_that_takes_every_step(self, monkeypatch, name):
        def make():
            if name == "mixed":
                return mixed_scenario(t_end=3.0)
            return dataclasses.replace(load_scenario(bundled_scenario_path(name)), t_end=3.0)

        traj, calls, forced_calls = self.both(monkeypatch, make)
        # each scenario holds its equilibrium until its first event at 1 s
        assert traj.filled == 999
        assert len(calls) == 3000 - 999 and len(forced_calls) == 3000

    def test_equilibrium_without_events_takes_one_step(self, monkeypatch):
        def make():
            return dataclasses.replace(two_machine(t_end=10.0), events=[])

        traj, calls, forced_calls = self.both(monkeypatch, make)
        assert traj.filled == 9999 and len(calls) == 1 and len(forced_calls) == 10000

    @pytest.mark.parametrize("step", [1, 100, 200])
    def test_event_ends_the_fill_at_its_step(self, monkeypatch, step):
        # at the first step, at one that is no `RECORD_CHUNK` boundary and
        # at the last
        def make():
            sc = two_bus_scenario(load_p=0.4)
            sc.t_end = 0.2
            sc.events = [Event(step * sc.dt, "load_scale", bus=1, factor=1.05)]
            return sc

        traj, calls, _ = self.both(monkeypatch, make)
        assert step % simulation.RECORD_CHUNK
        assert traj.filled == step - 1 and len(calls) == 200 - (step - 1)
        v = traj.voltages
        assert v[:step].tobytes() == np.repeat(v[:1], step, axis=0).tobytes()
        assert abs(v[step, 1]) < abs(v[step - 1, 1])  # the load step pulls the voltage down

    def test_fill_after_an_event(self, monkeypatch):
        # the machines turn at the nominal speed, so more damping leaves the
        # equilibrium as it is: the steps after the event fill too, and the
        # segment it opens records its first sample before the fill
        def make():
            event = Event(0.5, "set_parameter", device="SM1", param="damping", value=5.0)
            return two_machine(t_end=2.0, events=[event])

        traj, calls, forced_calls = self.both(monkeypatch, make)
        assert traj.filled == 1998 and len(calls) == 2 and len(forced_calls) == 2000
        shapes = []
        rates = DaeSystem.voltage_rates

        def counted(system, x, v, xdot):
            shapes.append(x.shape[:-1])
            return rates(system, x, v, xdot)

        monkeypatch.setattr(DaeSystem, "voltage_rates", counted)
        run(make())
        # the first sample, the event's and the last
        assert shapes == [(1,)] * 3

    def test_halved_steps_are_not_filled(self, monkeypatch):
        # every step of full length diverges and both its halves meet the
        # tolerance at their handed pair, so each step returns its handed
        # arrays; a fill after the first would skip every later halving
        dt = 1e-3
        newton_step = TrapezoidalIntegrator._newton_step

        def diverge_at_full_length(self, x, v, f, rn, h):
            if h == dt:
                raise NewtonDivergence("forced")
            return newton_step(self, x, v, f, rn, h)

        def make():
            sc = two_bus_scenario(load_p=0.4)
            sc.t_end = 0.05
            return sc

        monkeypatch.setattr(TrapezoidalIntegrator, "_newton_step", diverge_at_full_length)
        traj, calls, forced_calls = self.both(monkeypatch, make)
        assert (traj.halvings, traj.newton_iters, traj.filled) == (50, 0, 0)
        assert calls == forced_calls == [dt, 0.5 * dt, 0.5 * dt] * 50


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
            ("twomachine", 2003, 2, 2007),
            ("ieee39", 2000, 1, 2002),
            ("ieee39_mod", 2054, 1, 2056),
        ],
    )
    def test_solver_counts_of_the_bundled_scenarios(self, name, iters, refreshes, residuals):
        # at 3 s; a Newton matrix is built only where a step does not meet
        # the tolerance at its first residual, so none before the first event.
        # A step evaluates one residual per iteration, since it starts from
        # the pair its predecessor evaluated; each event's re-solve adds two.
        # With the predicted start nearly every step after an event takes one
        sc = dataclasses.replace(load_scenario(bundled_scenario_path(name)), t_end=3.0)
        traj = run(sc)
        assert (traj.newton_iters, traj.refreshes, traj.halvings) == (iters, refreshes, 0)
        assert traj.residuals == residuals

    @pytest.mark.parametrize(
        "name, t_end, bound",
        [
            ("twomachine", 3.0, 9.0e-11),
            ("ieee39", 2.403, 1.1e-11),
            ("ieee39_mod", 2.403, 4.4e-10),
            ("ieee39", 10.0, 4.8e-11),
        ],
    )
    def test_solve_error_against_a_tight_tolerance(self, name, t_end, bound):
        # max|Δv| against the same run at a Newton tolerance of 1e-12, over
        # the horizon that `cluster` simulates and at 10 s; the bounds are the
        # errors of Newton solves that start from the predicted correction,
        # rounded up
        sc = dataclasses.replace(load_scenario(bundled_scenario_path(name)), t_end=t_end)
        loose, tight = run(sc), run(dataclasses.replace(sc, tolerance=1e-12))
        assert np.max(np.abs(loose.voltages - tight.voltages)) < bound

    def test_solver_counts_at_the_cluster_horizon(self, monkeypatch):
        # `cluster ieee39` simulates EVENT_MASK_PAD + 1 samples past its
        # window: the first step meets the tolerance at the pair it is
        # handed, so `run` fills the 999 after it up to the event, and each
        # of the 1,403 steps after the event takes one iteration on the
        # matrix built there
        sc = load_scenario(bundled_scenario_path("ieee39"))
        horizon = sc.analysis.window[1] + (EVENT_MASK_PAD + 1) * sc.dt
        step = TrapezoidalIntegrator.step
        iters = []

        def counted_step(self, *args, **kwargs):
            before = self.total_newton_iters
            result = step(self, *args, **kwargs)
            iters.append(self.total_newton_iters - before)
            return result

        monkeypatch.setattr(TrapezoidalIntegrator, "step", counted_step)
        traj = run(dataclasses.replace(sc, t_end=horizon))
        assert traj.times.size - 1 == 2403
        assert iters == [0] + [1] * 1403 and traj.filled == 999
        assert (traj.newton_iters, traj.refreshes, traj.halvings) == (1403, 1, 0)
        assert traj.residuals == 1405

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
        valid = estimator_valid(traj)
        k = traj.sample_index(0.25)
        assert EVENT_MASK_PAD == 2
        assert not valid[k - 2 : k + 3].any()
        assert valid[k - 3] and valid[k + 3]
        assert valid.sum() == valid.size - 5

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
        assert len(run(sc).event_times) == 1
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
        # NaN wherever its current is at or below the recording's floor of
        # CURRENT_FLOOR Newton tolerances, as a load's is when it draws
        # nothing.  After the event the machine's current is only solver
        # noise, of the order of the Newton tolerance.
        sc = two_bus_scenario(load_p=0.4)
        sc.t_end = 0.2
        sc.events = [Event(0.1, "load_disconnect_mw", bus=1, amount=40.0)]
        traj = run(sc)
        k = traj.sample_index(0.1)
        cf = traj.analytic_cf["SM"]
        dead = np.abs(traj.device_current("SM")) <= simulation.CURRENT_FLOOR * sc.tolerance
        assert not dead[:k].any() and dead[k]
        assert np.all(np.isfinite(cf[:k].view(float)))
        assert np.array_equal(np.isnan(cf), dead)
        assert np.all(np.isnan(traj.analytic_cf["LOAD"][k:]))
        with pytest.raises(EmptyWindow, match="holds 0 usable sample"):
            cluster_trajectory(traj, 2, ["SM", "LOAD"], (0.12, 0.2))

    def test_solver_noise_current_has_no_cf(self):
        # the machine's current after its only load goes is Newton noise: up
        # to 8.9e-10 pu in the first second after the event, and about 1.3e-8
        # pu at 2 s, above the 1e-9 magnitude guard (594 samples).  A floor
        # at the guard would leave those samples with a finite CF near 1j
        sc = two_bus_scenario(load_p=0.4)
        sc.t_end = 2.0
        sc.events = [Event(0.1, "load_disconnect_mw", bus=1, amount=40.0)]
        traj = run(sc)
        k = traj.sample_index(0.1)
        after = traj.analytic_cf["SM"][k:]
        assert after.size == 1901
        assert np.all(np.isnan(after))
        assert np.max(np.abs(traj.device_current("SM")[k:])) > 1e-9

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
        assert len(first.event_times) == len(second.event_times) == 1
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

    def test_unreachable_tolerance_is_named(self):
        # the residual stalls at rounding level, above the tolerance, so every
        # halving fails the same way; the error says so instead of blaming dt
        sc = two_machine(tolerance=1e-16, events=[], t_end=0.01)
        with pytest.raises(NewtonDivergence, match=r"\(residual \S+, tolerance 1\.0e-16\)"):
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


# prints the SHA-256 of the bus voltages of twomachine and ieee39 run to 3 s.
# ieee39_mod is left out: its run inverts a 118x118 matrix with
# np.linalg.inv, whose result depends on the BLAS thread count (ROADMAP item 2)
BLAS_PROBE = """
import dataclasses, hashlib
from cfcoherency.scenario_io import bundled_scenario_path, load_scenario
from cfcoherency.simulation import run
for name in ("twomachine", "ieee39"):
    sc = dataclasses.replace(load_scenario(bundled_scenario_path(name)), t_end=3.0)
    print(name, hashlib.sha256(run(sc).voltages.tobytes()).hexdigest())
"""


def test_voltages_independent_of_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        out.append(done.stdout.split())
    assert len(out[0]) == 4
    assert out[0] == out[1]


class TestRunLeavesScenario:
    @settings(max_examples=20, deadline=None)
    @given(mixed_events())
    def test_run_never_writes_to_its_scenario(self, events):
        sc = dataclasses.replace(mixed_scenario(t_end=0.03, with_pulse=False), events=events)
        before = spec_snapshot(sc)
        traj = run(sc)
        assert len(traj.event_times) == len(events)
        assert spec_snapshot(sc) == before


class TestScenarioSteps:
    @pytest.mark.parametrize(
        "t_end, dt, n", [(0.3, 0.1, 3), (0.0105, 1e-3, 11), (1.0, 0.3, 4)],
        ids=["whole_after_rounding", "half_step", "third_of_a_step"],
    )
    def test_steps_cover_the_horizon(self, t_end, dt, n):
        # 0.3/0.1 is 2.9999999999999996, three whole steps; otherwise the
        # last step ends after t_end
        sc = dataclasses.replace(two_bus_scenario(), t_end=t_end, dt=dt)
        assert sc.n_steps == n
        assert (n - 1) * dt < t_end <= n * dt + 1e-12


class TestEventChecks:
    """Events are checked when the scenario is built, not when they fire."""

    def test_unknown_action_raises(self):
        with pytest.raises(ValueError, match="^unknown event action 'trip'$"):
            Event(0.1, "trip", bus=1)

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


@pytest.mark.parametrize("name", ["SM", "GFL", "GFM"])
def test_device_off_the_scenario_omega_base_rejected(name):
    # a device's swing and CF read its own omega_base, the voltage CFs the
    # scenario's; the loads carry none
    sc = mixed_scenario(t_end=0.1, with_pulse=False)
    find_device(sc, name).omega_base = 2.0 * np.pi * 50.0
    message = f"device '{name}' has omega_base 314.159, the scenario 376.991"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(sc)
    find_device(sc, name).omega_base = OMEGA_B
    dataclasses.replace(sc)


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
    # the CF that a run records from the tangent for each source, against the
    # paper's closed form on the same recorded samples, through an event;
    # a converter's internal-voltage CF comes from the tangent of its current.
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
            rate = d.tangent(x, v, d.derivatives(x, v), np.zeros_like(v))[1]
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

    def test_voltage_jacobian_asks_sources_at_one_sample(self, monkeypatch):
        # the S-load makes the Jacobian vary per sample; a source's (a, b)
        # depends on its parameters only, so a 64-sample call evaluates each
        # source block's two voltage tangents at one sample, and returns the
        # per-sample matrices bit for bit
        _, system, x, v = _off_equilibrium()
        assert system.voltage_dependent
        rng = np.random.default_rng(3)
        xs = x + 1e-3 * rng.standard_normal((64, x.size))
        vs = v * (1.0 + 1e-3 * (rng.standard_normal((64, v.size)) + 1j))
        want = np.stack([system.voltage_jacobian(xk, vk) for xk, vk in zip(xs, vs)])
        calls = []
        for blk in system.dynamic:

            def counted(dev, x, v, dx, dv, tangent=type(blk).tangent):
                calls.append((dev.kind, np.shape(v)))
                return tangent(dev, x, v, dx, dv)

            monkeypatch.setattr(type(blk), "tangent", counted)
        assert np.array_equal(system.voltage_jacobian(xs, vs), want)
        assert {blk.kind for blk in system.dynamic} == {"sm", "gfl", "gfm"}
        assert sorted(calls) == sorted([(blk.kind, (blk.n,)) for blk in system.dynamic] * 2)

    def test_state_columns_match_finite_differences(self):
        # ∂ı/∂x_k is the current's tangent along the unit state rate e_k:
        # per scalar device against central differences, and per block in
        # the I_x of `linearize`
        devices, system, x, v = _off_equilibrium()
        for dev, sl in zip(devices, system.slices):
            vb = complex(v[dev.bus])
            for k in range(dev.n_states):
                dx = np.zeros(dev.n_states)
                dx[k] = self.H
                fd = (
                    dev.injected_current(x[sl] + dx, vb) - dev.injected_current(x[sl] - dx, vb)
                ) / (2 * self.H)
                exact = dev.tangent(x[sl], vb, np.eye(dev.n_states)[k], 0j)[1]
                assert abs(exact - fd) < 1e-7 * max(1.0, abs(fd)), (dev.name, k)
        _, _, i_x, j_v = system.linearize(x, v)
        names = [d.name for d in devices]
        for blk in system.dynamic:
            xb, vb = x[blk.states].reshape(blk.n, blk.n_states), v[blk.bus]
            for k, e_k in enumerate(np.eye(blk.n_states)):
                rate = blk.tangent(xb, vb, np.tile(e_k, (blk.n, 1)), np.zeros_like(vb))[1]
                for row, name in enumerate(blk.name):
                    u = 2 * blk.bus[row]
                    col = i_x[u : u + 2, system.slices[names.index(name)].start + k]
                    assert np.array_equal(col, [rate[row].real, rate[row].imag]), (name, k)
        assert np.array_equal(j_v, system.voltage_jacobian(x, v))

    def test_device_rows_match_scalar_finite_differences(self):
        # the block-built ∂f/∂x and ∂f/∂v of `linearize` against per-device
        # central differences of the scalar equations; nothing else on the state rows
        devices, system, x, v = _off_equilibrium()
        got = np.hstack(system.linearize(x, v)[:2])
        want = np.zeros_like(got)
        nx = system.n_states
        for dev, sl in zip(devices, system.slices):
            if not dev.n_states:
                continue
            u = nx + 2 * dev.bus
            want[sl, sl], want[sl, u : u + 2] = device_fd_blocks(dev, x[sl], complex(v[dev.bus]))
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def linearization(name):
    """The state matrix A = F_x - F_v·J_v⁻¹·I_x of a bundled scenario at its
    initial point, Kron-reduced from the blocks of `DaeSystem.linearize`;
    and its system."""
    x, v, system = initialize(load_scenario(bundled_scenario_path(name)))
    f_x, f_v, i_x, j_v = system.linearize(x, v)
    return f_x - f_v @ np.linalg.solve(j_v, i_x), system


class TestExactLinearization:
    """`DaeSystem.linearize` is exact, so the modes of the classical
    machines come out as their equations fix them."""

    def test_ieee39_uniform_damping(self):
        # with D/M = 0.5 at every machine, each swing mode decays at -D/(2M)
        # and the two real modes are the angle reference 0 and -D/M
        a, system = linearization("ieee39")
        [machines] = system.dynamic
        assert np.all(machines.damping / machines.inertia == 0.5)
        lam = np.linalg.eigvals(a)
        swing = lam[np.abs(lam.imag) > 1e-3]
        assert swing.size == 18
        assert np.max(np.abs(swing.real + 0.25)) <= 1e-12
        real = np.sort(lam[np.abs(lam.imag) <= 1e-3].real)
        assert real.size == 2
        assert abs(real[0] + 0.5) <= 1e-9 and abs(real[1]) <= 1e-9

    def test_twomachine_undamped_double_zero(self):
        # no damping: the angle reference is a double zero
        a, _ = linearization("twomachine")
        assert np.sort(np.abs(np.linalg.eigvals(a)))[1] <= 1e-5

    def test_ieee39_mod_grows(self):
        # the growing mode that README's scenario table states
        a, _ = linearization("ieee39_mod")
        growing = np.linalg.eigvals(a)
        growing = growing[growing.real > 1e-3]
        assert growing.size == 2  # one conjugate pair
        assert np.min(np.abs(growing - (0.1021237 + 3.3098812j))) <= 1e-3
