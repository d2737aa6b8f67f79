"""Device blocks against the scalar device methods they vectorize.

The reference functions below are the per-device loops the blocks replaced:
each sums the scalar `Device` methods of a list of reference devices, in the
system's device order, onto the buses one device at a time.
"""

from __future__ import annotations

import dataclasses
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfcoherency import (
    Branch,
    Bus,
    Event,
    GridFollowingConverter,
    GridFormingConverter,
    Network,
    SynchronousMachine,
    ZipLoad,
)
from cfcoherency import simulation
from cfcoherency.devices import MAGNITUDE_GUARD
from cfcoherency.errors import EventError, MagnitudeUnderflow
from cfcoherency.scenario_io import bundled_scenario_path, load_scenario
from cfcoherency.simulation import RECORD_CHUNK, DaeSystem, initialize, run
from tests.conftest import (
    OMEGA_B,
    find_device,
    mixed_scenario,
    reference_devices,
    split_device,
    state_vector,
    two_bus_scenario,
    zip_load,
)

REL = 1e-12


def assert_close(got, want):
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(got - want)) <= REL * scale


# ---------------------------------------------------------------------------
# per-device reference
# ---------------------------------------------------------------------------

def ref_derivatives(system, devices, x, v):
    out = np.empty(system.n_states)
    for d, sl in zip(devices, system.slices):
        if d.n_states:
            out[sl] = d.derivatives(x[sl], complex(v[d.bus]))
    return out


def ref_currents(system, devices, x, v):
    return np.array(
        [complex(d.injected_current(x[sl], complex(v[d.bus])))
         for d, sl in zip(devices, system.slices)]
    )


def ref_injections(system, devices, x, v):
    inj = np.zeros(system.n_bus, dtype=complex)
    for d, i in zip(devices, ref_currents(system, devices, x, v)):
        inj[d.bus] += i
    return inj


def ref_voltage_jacobian(system, devices, x, v):
    a_bus = np.zeros(system.n_bus, dtype=complex)
    b_bus = np.zeros(system.n_bus, dtype=complex)
    for d, sl in zip(devices, system.slices):
        a, b = d.voltage_sensitivity(x[sl], complex(v[d.bus]))
        a_bus[d.bus] += a
        b_bus[d.bus] += b
    m = np.diag(a_bus) - system.y
    jac = np.empty((2 * system.n_bus, 2 * system.n_bus))
    jac[0::2, 0::2] = m.real + np.diag(b_bus.real)
    jac[0::2, 1::2] = np.diag(b_bus.imag) - m.imag
    jac[1::2, 0::2] = m.imag + np.diag(b_bus.imag)
    jac[1::2, 1::2] = m.real - np.diag(b_bus.real)
    return jac


def ref_voltage_rates(system, devices, x, v, xdot):
    c = np.zeros(system.n_bus, dtype=complex)
    for d, sl in zip(devices, system.slices):
        c[d.bus] += d.tangent(x[sl], complex(v[d.bus]), xdot[sl], 0j)[1]
    jac = ref_voltage_jacobian(system, devices, x, v)
    return np.linalg.solve(jac, -c.view(float)).view(complex)


def ref_analytic_cf(system, devices, x, xdot, v, eta_v):
    """Device order."""
    out = np.empty(len(devices), dtype=complex)
    for k, (d, sl) in enumerate(zip(devices, system.slices)):
        vd = complex(v[d.bus])
        i = d.injected_current(x[sl], vd)
        out[k] = d.analytic_cf(x[sl], xdot[sl], vd, i, complex(eta_v[d.bus]))
    return out


def in_device_order(system, values):
    out = np.empty_like(values)
    out[system.order] = values
    return out


def check_against_reference(system, devices, x, v, xdot):
    assert_close(system.derivatives(x, v), ref_derivatives(system, devices, x, v))
    assert_close(system.injections(x, v), ref_injections(system, devices, x, v))
    assert_close(system.voltage_jacobian(x, v), ref_voltage_jacobian(system, devices, x, v))
    vdot = ref_voltage_rates(system, devices, x, v, xdot)
    assert_close(system.voltage_rates(x, v, xdot), vdot)
    currents = system.evaluate(x, v)[1]
    assert_close(in_device_order(system, currents), ref_currents(system, devices, x, v))
    eta_v = system.voltage_cf(v, vdot)
    want = ref_analytic_cf(system, devices, x, xdot, v, eta_v)
    got = in_device_order(
        system, system.analytic_cf(x, xdot, v, currents, eta_v, MAGNITUDE_GUARD)
    )
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert_close(got[~np.isnan(want)], want[~np.isnan(want)])


def check_evaluate(system, devices, x, v):
    """`evaluate` returns bit for bit what `derivatives` and
    `injected_current` return, for every block and every scalar device, and
    the system's fused residual what its separate evaluations return; with
    and without a leading axis of two samples."""
    samples = (np.stack([x, x * (1.0 + 1e-3)]), np.stack([v, v * np.exp(0.01j)]))
    for xs, vs in ((x, v), samples):
        for blk in system.blocks:
            xb, vb = system._local(blk, xs, vs)
            f, i = blk.evaluate(xb, vb)
            assert f.shape == xb.shape
            if blk.n_states:
                assert np.array_equal(f, blk.derivatives(xb, vb))
            assert np.array_equal(i, blk.injected_current(xb, vb))
        f, rn = system.residual(xs, vs)
        assert np.array_equal(f, system.derivatives(xs, vs))
        assert np.array_equal(rn, system.network_residual(xs, vs))
        assert np.array_equal(rn, system.injections(xs, vs) - simulation._matvec(system.y, vs))
    for d, sl in zip(devices, system.slices):
        vd = complex(v[d.bus])
        f, i = d.evaluate(x[sl], vd)
        assert np.array_equal(f, d.derivatives(x[sl], vd))
        assert np.array_equal(i, d.injected_current(x[sl], vd))


# ---------------------------------------------------------------------------
# random grids
# ---------------------------------------------------------------------------

KINDS = ("sm", "zip_z", "zip_p", "zip_mixed", "gfl", "gfm")


def make_device(kind, name, bus, rng):
    u = rng.uniform
    if kind == "sm":
        d = SynchronousMachine(
            name, bus, inertia=u(2, 10), xd_prime=u(0.05, 0.3), omega_base=OMEGA_B,
            damping=u(0, 3),
        )
        d.e_field, d.p_m = u(0.9, 1.2), u(0, 1)
        return d, [u(-1, 1), 1 + u(-0.01, 0.01)]
    if kind.startswith("zip"):
        fracs = {"zip_z": ((1, 0, 0), (1, 0, 0)), "zip_p": ((0, 0, 1), (0, 0, 1))}.get(kind)
        if fracs is None:
            fracs = []
            for _ in range(2):
                kz, ki = u(0, 0.6), u(0, 0.4)
                fracs.append((kz, ki, 1.0 - kz - ki))
        (kz_p, ki_p, kp_p), (kz_q, ki_q, kp_q) = fracs
        d = ZipLoad(name, bus, p0=u(0.1, 1), q0=u(-0.3, 0.5), kz_p=kz_p, ki_p=ki_p,
                    kp_p=kp_p, kz_q=kz_q, ki_q=ki_q, kp_q=kp_q)
        return d, []
    filt = dict(
        r_filter=u(0.001, 0.01), x_filter=u(0.1, 0.2), b_filter=u(0, 0.05), v_dc=u(1.5, 2.5)
    )
    if kind == "gfl":
        d = GridFollowingConverter(
            name, bus, **filt, omega_base=OMEGA_B, kp_current=u(0.1, 0.5), ki_current=u(1, 10),
            t_measure=u(0.005, 0.05), kp_pll=u(0.05, 0.2), ki_pll=u(0.5, 2),
        )
        d.iref_d, d.iref_q = u(0, 1), u(-0.5, 0.5)
        d.derive()
        return d, [u(0.4, 0.7), u(-0.2, 0.2), u(-1, 1), u(-1, 1), u(-0.01, 0.01), u(-1, 1)]
    d = GridFormingConverter(
        name, bus, **filt, omega_base=OMEGA_B, kp_voltage=u(0.01, 0.1), ki_voltage=u(1, 10),
        t_voltage=u(0.01, 0.05), t_power=u(0.05, 0.5), droop=u(0, 0.05),
    )
    d.p_ref, d.v_ref = u(0, 1), u(0.95, 1.05)
    return d, [u(0.9, 1.1), u(-1, 1), u(0.9, 1.1), u(0, 1)]


@st.composite
def random_grids(draw):
    """Every kind at least once plus extras, interleaved in random order,
    on one to three buses, so buses carry several devices."""
    n_bus = draw(st.integers(1, 3))
    extra = draw(st.lists(st.sampled_from(KINDS), max_size=6))
    kinds = draw(st.permutations(list(KINDS) + extra))
    buses = draw(st.lists(st.integers(0, n_bus - 1), min_size=len(kinds), max_size=len(kinds)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    net = Network(
        [Bus(0, kind="slack")] + [Bus(b) for b in range(1, n_bus)],
        [Branch(b - 1, b, rng.uniform(0.001, 0.02), rng.uniform(0.05, 0.3), rng.uniform(0, 0.05))
         for b in range(1, n_bus)],
    )
    devices, states = [], []
    for k, (kind, bus) in enumerate(zip(kinds, buses)):
        d, x_d = make_device(kind, f"D{k}", bus, rng)
        devices.append(d)
        states.append(x_d)
    system = DaeSystem(net, devices, OMEGA_B)
    x = np.empty(system.n_states)
    for sl, x_d in zip(system.slices, states):
        x[sl] = x_d
    v = rng.uniform(0.9, 1.1, n_bus) * np.exp(1j * rng.uniform(-0.5, 0.5, n_bus))
    xdot = rng.standard_normal(system.n_states)
    return system, devices, x, v, xdot


def apply_to_reference(devices, ev, s_base):
    """`ev` applied to reference devices on their own, one device at a time;
    a load's p0 and q0 are its draw, which the event sets or scales."""
    if ev.action == "set_parameter":
        d = next(d for d in devices if d.name == ev.device)
        setattr(d, ev.param, ev.value)
        d.derive()
        return
    loads = [d for d in devices if d.is_load and d.bus == ev.bus]
    factor = ev.factor
    if ev.action == "load_disconnect_mw":
        factor = 1.0 - (ev.amount / s_base) / sum(d.p0 for d in loads)
    for d in loads:
        d.p0 *= factor
        d.q0 *= factor
        d.derive()


class TestEvaluate:
    @settings(max_examples=30, deadline=None)
    @given(random_grids())
    def test_random_grids(self, grid):
        system, devices, x, v, _ = grid
        check_evaluate(system, devices, x, v)

    @pytest.mark.parametrize("make", [two_bus_scenario, mixed_scenario])
    def test_scenarios(self, make):
        sc = make()
        x, v, system = initialize(sc)
        check_evaluate(system, reference_devices(system, sc.devices), x, v)


class TestBlocksMatchDevices:
    @settings(max_examples=60, deadline=None)
    @given(random_grids())
    def test_random_grids(self, grid):
        check_against_reference(*grid)

    @settings(max_examples=8, deadline=None)
    @given(st.permutations(range(7)))
    def test_recorded_currents_and_cfs(self, order):
        # the mixed grid with a second load and a second converter, devices
        # in random order; samples before and after a load step
        sc = mixed_scenario(t_end=0.03, with_pulse=False)
        sc.devices += [
            ZipLoad("ZL0", 0, p0=0.3, q0=0.1),
            GridFollowingConverter(
                "GFL2", 2, x_filter=0.12, r_filter=0.004, v_dc=2.0, omega_base=OMEGA_B, p=0.2
            ),
        ]
        sc.devices = [sc.devices[i] for i in order]
        sc.events = [Event(0.015, "load_scale", bus=1, factor=1.2)]
        traj = run(sc)
        _, _, system = initialize(sc)
        refs = reference_devices(system, sc.devices)
        k_event = traj.sample_index(0.015)
        for k in range(traj.times.size):
            if k == k_event:
                apply_to_reference(refs, sc.events[0], sc.s_base)
            x = state_vector(system, traj, k)
            v = traj.voltages[k]
            assert_close(traj.currents[k], ref_currents(system, refs, x, v))
            xdot = ref_derivatives(system, refs, x, v)
            eta_v = system.voltage_cf(v, ref_voltage_rates(system, refs, x, v, xdot))
            cf = ref_analytic_cf(system, refs, x, xdot, v, eta_v)
            recorded = np.array([traj.analytic_cf[d.name][k] for d in refs])
            assert_close(recorded, cf)

    @pytest.mark.parametrize("pure_z", [False, True], ids=["s_load", "z_loads_only"])
    def test_segments_recorded_in_chunks(self, monkeypatch, pure_z):
        # more than two chunks of samples; the events at the first and the
        # last step leave an empty segment and a one-sample segment
        n = 2 * RECORD_CHUNK + 20
        sc = mixed_scenario(t_end=n * 1e-3, with_pulse=False)
        if pure_z:
            sl = find_device(sc, "SL")
            sl.kz_p = sl.kz_q = 1.0
            sl.kp_p = sl.kp_q = 0.0
        sc.events = [
            Event(0.0, "load_scale", bus=1, factor=1.2),
            Event(sc.t_end, "load_disconnect_mw", bus=2, amount=20.0),
            Event(sc.t_end, "set_parameter", device="SM", param="p_m", value=1.1),
        ]
        calls = []
        rates = DaeSystem.voltage_rates

        def counted(system, x, v, xdot):
            calls.append(x.shape[:-1])
            return rates(system, x, v, xdot)

        monkeypatch.setattr(DaeSystem, "voltage_rates", counted)
        traj = run(sc)
        # chunks of the segments [0, n) and [n, n]; no call per sample
        assert calls == [(RECORD_CHUNK,)] * 2 + [(n - 2 * RECORD_CHUNK,), (1,)]
        _, _, system = initialize(sc)
        assert system.voltage_dependent is not pure_z
        refs = reference_devices(system, sc.devices)
        for k in range(traj.times.size):
            for step, _, ev in sc.scheduled_events():
                if step == k:
                    apply_to_reference(refs, ev, sc.s_base)
            x = state_vector(system, traj, k)
            v = traj.voltages[k]
            assert_close(traj.currents[k], ref_currents(system, refs, x, v))
            xdot = ref_derivatives(system, refs, x, v)
            eta_v = system.voltage_cf(v, ref_voltage_rates(system, refs, x, v, xdot))
            assert_close(traj.voltage_cf[k], eta_v)
            cf = ref_analytic_cf(system, refs, x, xdot, v, eta_v)
            recorded = np.array([traj.analytic_cf[d.name][k] for d in refs])
            assert_close(recorded, cf)

    def test_steady_segment_evaluated_at_its_first_and_last_sample(self, monkeypatch):
        # 1,000 samples at the equilibrium: `run` evaluates the first sample
        # when its first step returns the pair it was handed, fills the 998
        # after it with copies of that sample, and evaluates the last, at
        # t_end, as the one sample of the final segment
        n = 1000
        sc = mixed_scenario(t_end=(n - 1) * 1e-3, with_pulse=False)
        calls = []
        rates = DaeSystem.voltage_rates

        def counted(system, x, v, xdot):
            calls.append(x.shape[:-1])
            return rates(system, x, v, xdot)

        monkeypatch.setattr(DaeSystem, "voltage_rates", counted)
        traj = run(sc)
        assert traj.filled == n - 2
        assert calls == [(1,), (1,)]
        series = [traj.voltages, traj.currents, traj.voltage_cf, *traj.states.values()]
        series += [cf[:, None] for cf in traj.analytic_cf.values()]
        for rows in series:
            assert rows.shape[0] == n
            assert rows.tobytes() == np.repeat(rows[:1], n, axis=0).tobytes()


def central_linearization(system, x, v, h):
    """(F_x, F_v, I_x, J_v) by central differences of `DaeSystem.residual`:
    each state, then Re v and Im v of each bus, moved by ±h."""
    nx, n_bus = system.n_states, system.n_bus
    cols = []
    for k in range(nx + 2 * n_bus):
        dx, dv = np.zeros(nx), np.zeros(n_bus, dtype=complex)
        if k < nx:
            dx[k] = h
        else:
            dv[(k - nx) // 2] = 1j * h if (k - nx) % 2 else h
        (f_p, rn_p), (f_m, rn_m) = system.residual(x + dx, v + dv), system.residual(x - dx, v - dv)
        cols.append(np.concatenate((f_p - f_m, (rn_p - rn_m).view(float))) / (2 * h))
    jac = np.stack(cols, axis=1)
    return jac[:nx, :nx], jac[:nx, nx:], jac[nx:, :nx], jac[nx:, nx:]


class TestLinearize:
    @settings(max_examples=60, deadline=None)
    @given(random_grids())
    def test_random_grids_match_central_differences(self, grid):
        # each block within 1e-9 of its own scale (at least 1); the worst of
        # 1,000 draws was 6.7e-11, on I_x
        system, _, x, v, _ = grid
        blocks = system.linearize(x, v)
        assert [b.shape for b in blocks] == [
            (system.n_states, system.n_states), (system.n_states, 2 * system.n_bus),
            (2 * system.n_bus, system.n_states), (2 * system.n_bus, 2 * system.n_bus),
        ]
        for got, want in zip(blocks, central_linearization(system, x, v, 1e-5)):
            assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


# beside the constructor arguments of `SPLIT_SCALING`, what a copy with
# share k of a device's current holds k**power of: the operating point that
# initialization fixes, and each state, which is a current or a power where
# the power is 1
SPLIT_OPERATING = {
    "sm": {"e_field": 0, "p_m": 1},
    "gfl": {"iref_d": 1, "iref_q": 1},
    "gfm": {"p_ref": 1, "v_ref": 0},
}
SPLIT_STATES = {"sm": (0, 0), "gfl": (0, 0, 1, 1, 0, 0), "gfm": (0, 0, 0, 1)}


class TestSplitDeviceOnRandomGrids:
    """A source split into copies with shares k and 1 - k of its current, at
    a drawn point where the copies hold the device's states and operating
    point, scaled by their shares: the grid sees the same device."""

    @settings(max_examples=60, deadline=None)
    @given(random_grids(), st.data())
    def test_split_changes_nothing_else(self, grid, data):
        system, devices, x, v, xdot = grid
        index = data.draw(st.sampled_from([i for i, d in enumerate(devices) if not d.is_load]))
        k = data.draw(st.floats(0.2, 0.8))
        device, shares = devices[index], (k, 1.0 - k)
        copies = split_device(device, k)
        for copy, share in zip(copies, shares):
            for name, power in SPLIT_OPERATING[device.kind].items():
                setattr(copy, name, getattr(device, name) * share**power)
            copy.derive()
        # the drawn grid's admittance, which is all a `DaeSystem` reads of its network
        net = types.SimpleNamespace(admittance=lambda: system.y, n_bus=system.n_bus)
        split = DaeSystem(net, devices[:index] + copies + devices[index + 1 :], OMEGA_B)
        origin = [*range(index + 1), *range(index, len(devices))]

        def spread(states):
            """Device states of `system` as those of `split`."""
            out = np.empty(split.n_states)
            for j, (i, sl) in enumerate(zip(origin, split.slices)):
                scale = 1.0
                if j - index in (0, 1):
                    scale = shares[j - index] ** np.array(SPLIT_STATES[device.kind])
                out[sl] = states[system.slices[i]] * scale
            return out

        x2 = spread(x)
        f, i = system.evaluate(x, v)
        f2, i2 = split.evaluate(x2, v)
        assert_close(f2, spread(f))
        assert_close(split.residual(x2, v)[1], system.residual(x, v)[1])
        assert_close(split.voltage_rates(x2, v, spread(xdot)), system.voltage_rates(x, v, xdot))

        def cfs(sys, x, f, i):
            eta_v = sys.voltage_cf(v, sys.voltage_rates(x, v, f))
            return in_device_order(sys, sys.analytic_cf(x, f, v, i, eta_v, MAGNITUDE_GUARD))

        cf, cf2 = cfs(system, x, f, i), cfs(split, x2, f2, i2)
        others = [j for j in range(len(origin)) if j - index not in (0, 1)]
        assert_close(cf2[others], cf[[origin[j] for j in others]])
        assert abs(cf2[index] - cf2[index + 1]) <= 1e-13


class TestBusSum:
    @settings(max_examples=40, deadline=None)
    @given(random_grids(), st.integers(0, 2**32 - 1))
    def test_sequential_in_block_order(self, grid, seed):
        # a bus with at least three devices, whose sum depends on its order;
        # the values span 16 decades, so another order shows in the bits
        system = grid[0]
        assume(np.bincount(system.bus).max() >= 3)
        rng = np.random.default_rng(seed)
        shape = (4, system.bus.size)
        values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** (
            rng.integers(-8, 8, shape)
        )
        want = np.zeros((4, system.n_bus), dtype=complex)
        for sample, row in zip(want, values):
            for bus, value in zip(system.bus, row):
                sample[bus] += value
        assert np.array_equal(system._to_bus(values, system.bus), want)


@pytest.mark.parametrize(
    "device, states",
    [
        (zip_load, []),
        (lambda name: GridFormingConverter(
            name, 0, x_filter=0.15, r_filter=0.005, v_dc=2.0, omega_base=OMEGA_B
        ), [1.0, 0.1, 1.0, 0.5]),
    ],
    ids=["zip_v", "gfm_v"],
)
def test_guard_names_the_device_of_a_sample(device, states):
    # (samples, devices) terminal voltages of three devices; one |v| at the guard
    devices = [device(f"D{k}") for k in range(3)]
    blk = type(devices[0]).stack(devices, 0)
    x = np.tile(np.array(states, dtype=float), (4, 3, 1))
    v = np.ones((4, 3), dtype=complex)
    v[2, 1] = 5e-10
    with pytest.raises(MagnitudeUnderflow, match=r"\|v\(D1\)\| = 5\.000e-10 at or below"):
        blk.tangent(x, v, np.zeros_like(x), v)


EVENTS = {
    "load_scale": Event(0.02, "load_scale", bus=1, factor=1.3),
    "load_disconnect_mw": Event(0.02, "load_disconnect_mw", bus=2, amount=20.0),
    "p_m": Event(0.02, "set_parameter", device="SM", param="p_m", value=1.2),
    "iref_d": Event(0.02, "set_parameter", device="GFL", param="iref_d", value=0.7),
    "p0": Event(0.02, "set_parameter", device="SL", param="p0", value=0.6),
    "q0": Event(0.02, "set_parameter", device="ZL", param="q0", value=0.5),
}


class TestParametersAfterEvents:
    @pytest.mark.parametrize("pure_z", [False, True], ids=["s_load", "z_loads_only"])
    @pytest.mark.parametrize("event", EVENTS.values(), ids=EVENTS.keys())
    def test_blocks_and_factor_follow_the_event(self, monkeypatch, event, pure_z):
        # run() keeps its system private: capture it, with reference devices
        # that take its block values right after initialization and then
        # apply the event on their own, to compare after the event
        systems, refs = [], []

        def capture(scenario, *args, **kwargs):
            out = initialize(scenario, *args, **kwargs)
            systems.append(out[2])
            refs.append(reference_devices(out[2], scenario.devices))
            return out

        monkeypatch.setattr(simulation, "initialize", capture)
        sc = mixed_scenario(t_end=0.04, with_pulse=False)
        if pure_z:
            sl = find_device(sc, "SL")
            sl.kz_p = sl.kz_q = 1.0
            sl.kp_p = sl.kp_q = 0.0
        sc.events = [event]
        traj = run(sc)
        [system], [devices] = systems, refs
        apply_to_reference(devices, event, sc.s_base)
        assert len(traj.event_times) == 1
        assert system.voltage_dependent is not pure_z
        x = state_vector(system, traj, -1)
        v = traj.voltages[-1]
        # without I or P loads, the factor made after the event is still kept
        assert (system._jv_inv is not None) is pure_z
        check_against_reference(system, devices, x, v, ref_derivatives(system, devices, x, v))
        assert_close(traj.currents[-1], ref_currents(system, devices, x, v))


class TestLoadDrawEvents:
    """A load's p0 or q0 event sets its scheduled draw, which a later
    disconnect takes from."""

    def scenario(self, *events, t_end=0.1):
        sc = load_scenario(bundled_scenario_path("twomachine"))
        return dataclasses.replace(sc, t_end=t_end, events=list(events))

    def test_check_returns_the_writes(self):
        # absolute values by step, in run order: set to 45 MW, 40 MW
        # disconnected, then scaled by 1.3 next to a machine setpoint
        sc = self.scenario(
            Event(0.3, "load_scale", bus=0, factor=1.3),
            Event(0.2, "load_disconnect_mw", bus=0, amount=40.0),
            Event(0.1, "set_parameter", device="LOAD", param="p0", value=0.45),
            Event(0.3, "set_parameter", device="SM1", param="p_m", value=0.6),
            t_end=0.5,
        )
        q = find_device(sc, "LOAD").q0
        factor = 1.0 - 0.4 / 0.45
        p2, q2 = 0.45 * factor, q * factor
        assert sc.check() == {
            100: [("LOAD", "p0", 0.45)],
            200: [("LOAD", "p0", p2), ("LOAD", "q0", q2)],
            300: [("LOAD", "p0", p2 * 1.3), ("LOAD", "q0", q2 * 1.3), ("SM1", "p_m", 0.6)],
        }
        assert p2 * sc.s_base == pytest.approx(5.0, rel=1e-12)

    def test_disconnect_after_setting_the_draw(self, monkeypatch):
        # 90 MW set to 45 MW, then 40 MW disconnected: 5 MW are left
        systems = []

        def capture(scenario, *args, **kwargs):
            out = initialize(scenario, *args, **kwargs)
            systems.append(out[2])
            return out

        monkeypatch.setattr(simulation, "initialize", capture)
        sc = self.scenario(
            Event(0.02, "set_parameter", device="LOAD", param="p0", value=0.45),
            Event(0.05, "load_disconnect_mw", bus=0, amount=40.0),
        )
        _, _, ref = initialize(sc)
        run(sc)
        [system] = systems
        load, row = system.row("LOAD")
        base, _ = ref.row("LOAD")
        assert load.p0[row] * sc.s_base == pytest.approx(5.0, rel=1e-12)
        # the base power keeps its ratio to the draw, the pure Z part's 1/|v0|^2
        assert load.sz[row].real / load.p0[row] == pytest.approx(
            base.sz[row].real / base.p0[row], rel=1e-12
        )

    def test_check_replays_the_draw(self):
        # set to 30 MW, 60 MW cannot be disconnected
        with pytest.raises(EventError, match="cannot disconnect 60 MW from the 30.0 MW left"):
            self.scenario(
                Event(0.02, "set_parameter", device="LOAD", param="p0", value=0.3),
                Event(0.05, "load_disconnect_mw", bus=0, amount=60.0),
            )
