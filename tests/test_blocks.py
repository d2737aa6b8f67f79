"""Device blocks against the scalar device methods they vectorize.

The reference functions below are the per-device loops the blocks replaced:
each sums the scalar `Device` methods onto the buses one device at a time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcoherency import (
    Branch,
    Bus,
    Event,
    GridFollowingConverter,
    GridFormingConverter,
    IbrFilter,
    Network,
    SynchronousMachine,
    ZipLoad,
)
from cfcoherency import simulation
from cfcoherency.simulation import DaeSystem, _apply_event, initialize, run
from tests.conftest import OMEGA_B, mixed_scenario, state_vector

REL = 1e-12


def assert_close(got, want):
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(got - want)) <= REL * scale


# ---------------------------------------------------------------------------
# per-device reference
# ---------------------------------------------------------------------------

def ref_derivatives(system, x, v):
    out = np.empty(system.n_states)
    for d, sl in zip(system.devices, system.slices):
        if d.n_states:
            out[sl] = d.derivatives(x[sl], complex(v[d.bus]))
    return out


def ref_currents(system, x, v):
    return np.array(
        [complex(d.injected_current(x[sl], complex(v[d.bus])))
         for d, sl in zip(system.devices, system.slices)]
    )


def ref_injections(system, x, v):
    inj = np.zeros(system.n_bus, dtype=complex)
    for d, i in zip(system.devices, ref_currents(system, x, v)):
        inj[d.bus] += i
    return inj


def ref_voltage_jacobian(system, x, v):
    a_bus = np.zeros(system.n_bus, dtype=complex)
    b_bus = np.zeros(system.n_bus, dtype=complex)
    for d, sl in zip(system.devices, system.slices):
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


def ref_voltage_rates(system, x, v, xdot):
    c = np.zeros(system.n_bus, dtype=complex)
    for d, sl in zip(system.devices, system.slices):
        c[d.bus] += d.current_state_rate(x[sl], xdot[sl], complex(v[d.bus]))
    jac = ref_voltage_jacobian(system, x, v)
    return np.linalg.solve(jac, -c.view(float)).view(complex)


def ref_analytic_cf(system, x, xdot, v, eta_v):
    """Device order; NaN for a device without a closed-form CF."""
    out = np.full(len(system.devices), np.nan, dtype=complex)
    for k, (d, sl) in enumerate(zip(system.devices, system.slices)):
        if d.has_analytic_cf:
            out[k] = d.analytic_cf(x[sl], xdot[sl], complex(v[d.bus]), complex(eta_v[d.bus]))
    return out


def in_device_order(system, values):
    out = np.empty_like(values)
    out[system.order] = values
    return out


def check_against_reference(system, x, v, xdot):
    assert_close(system.derivatives(x, v), ref_derivatives(system, x, v))
    assert_close(system.injections(x, v), ref_injections(system, x, v))
    assert_close(system.voltage_jacobian(x, v), ref_voltage_jacobian(system, x, v))
    vdot = ref_voltage_rates(system, x, v, xdot)
    assert_close(system.voltage_rates(x, v, xdot), vdot)
    assert_close(
        in_device_order(system, system.device_currents(x, v)), ref_currents(system, x, v)
    )
    eta_v = system.voltage_cf(v, vdot)
    want = ref_analytic_cf(system, x, xdot, v, eta_v)
    got = in_device_order(system, system.analytic_cf(x, xdot, v, eta_v))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert_close(got[~np.isnan(want)], want[~np.isnan(want)])


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
    filt = IbrFilter(complex(u(0.001, 0.01), u(0.1, 0.2)), 1j * u(0, 0.05), v_dc=u(1.5, 2.5))
    if kind == "gfl":
        d = GridFollowingConverter(
            name, bus, filt, OMEGA_B, kp_current=u(0.1, 0.5), ki_current=u(1, 10),
            t_measure=u(0.005, 0.05), kp_pll=u(0.05, 0.2), ki_pll=u(0.5, 2),
            omega_ref=1 + u(-0.01, 0.01),
        )
        d.iref_d, d.iref_q = u(0, 1), u(-0.5, 0.5)
        return d, [u(0.4, 0.7), u(-0.2, 0.2), u(-1, 1), u(-1, 1), u(-0.01, 0.01), u(-1, 1)]
    d = GridFormingConverter(
        name, bus, filt, OMEGA_B, kp_voltage=u(0.01, 0.1), ki_voltage=u(1, 10),
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
    return system, x, v, xdot


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
                "GFL2", 2, IbrFilter(0.004 + 0.12j, 0.0, v_dc=2.0), OMEGA_B, p=0.2
            ),
        ]
        sc.devices = [sc.devices[i] for i in order]
        sc.events = [Event(0.015, "load_scale", bus=1, factor=1.2)]
        traj = run(sc)
        _, _, system = initialize(sc)
        k_event = traj.sample_index(0.015)
        for k in range(traj.times.size):
            if k == k_event:
                _apply_event(sc, sc.events[0])
            x = state_vector(system, traj, k)
            v = traj.voltages[k]
            assert_close(traj.currents[k], ref_currents(system, x, v))
            xdot = ref_derivatives(system, x, v)
            eta_v = system.voltage_cf(v, ref_voltage_rates(system, x, v, xdot))
            cf = ref_analytic_cf(system, x, xdot, v, eta_v)
            recorded = np.array([traj.analytic_cf[d.name][k] for d in system.devices])
            assert_close(recorded, cf)


EVENTS = {
    "load_scale": Event(0.02, "load_scale", bus=1, factor=1.3),
    "load_disconnect_mw": Event(0.02, "load_disconnect_mw", bus=2, amount=20.0),
    "p_m": Event(0.02, "set_parameter", device="SM", param="p_m", value=1.2),
    "iref_d": Event(0.02, "set_parameter", device="GFL", param="iref_d", value=0.7),
}


class TestParametersAfterEvents:
    @pytest.mark.parametrize("pure_z", [False, True], ids=["s_load", "z_loads_only"])
    @pytest.mark.parametrize("event", EVENTS.values(), ids=EVENTS.keys())
    def test_blocks_and_factor_follow_the_event(self, monkeypatch, event, pure_z):
        # run() keeps its system private: capture it to compare its blocks,
        # after the event, with the scalar methods of its devices
        systems = []

        def capture(*args, **kwargs):
            out = initialize(*args, **kwargs)
            systems.append(out[2])
            return out

        monkeypatch.setattr(simulation, "initialize", capture)
        sc = mixed_scenario(t_end=0.04, with_pulse=False)
        if pure_z:
            sl = sc.device("SL")
            sl.kz_p = sl.kz_q = 1.0
            sl.kp_p = sl.kp_q = 0.0
        sc.events = [event]
        traj = run(sc)
        [system] = systems
        assert traj.events_applied == 1
        assert system.voltage_dependent is not pure_z
        x = state_vector(system, traj, -1)
        v = traj.voltages[-1]
        # without I or P loads, the factor made after the event is still kept
        assert (system._jv_inv is not None) is pure_z
        check_against_reference(system, x, v, ref_derivatives(system, x, v))
        assert_close(traj.currents[-1], ref_currents(system, x, v))
