from __future__ import annotations

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcoherency import (
    Bus,
    Event,
    GridFollowingConverter,
    GridFormingConverter,
    Network,
    Scenario,
    SynchronousMachine,
    ZipLoad,
)
from cfcoherency.errors import MagnitudeUnderflow
from cfcoherency.scenario_io import _DEVICES
from tests.conftest import (
    OMEGA_B,
    ibr_current_cf,
    on_grid,
    s_load_cf,
    sm_current_cf,
    z_load_cf,
)


def make_sm(**kw):
    defaults = dict(inertia=8.0, xd_prime=0.1)
    defaults.update(kw)
    return on_grid(SynchronousMachine("SM", 0, **defaults))


class TestSynchronousMachine:
    def test_zero_current_when_emf_matches_terminal(self):
        sm = make_sm()
        sm.e_field = 1.0
        x = np.array([0.0, 1.0])
        assert sm.injected_current(x, 1.0 + 0j) == pytest.approx(0.0, abs=1e-15)

    def test_equilibrium_derivatives_vanish(self):
        sm = make_sm()
        x0 = sm.initial_state(1.0 + 0j, 0.8 + 0.2j)
        assert np.max(np.abs(sm.derivatives(x0, 1.0 + 0j))) < 1e-14

    def test_current_and_power_against_hand_evaluation(self):
        # e'_q = 1.1 at delta = 0.2 rad behind x'_d = 0.1 facing 1 per unit:
        # evaluate the two algebraic equations with raw complex arithmetic
        sm = make_sm(xd_prime=0.1)
        sm.e_field = 1.1
        x = np.array([0.2, 1.0])
        e_vec = 1.1 * cmath.exp(0.2j)
        i_expected = (e_vec - 1.0) / 0.1j
        p_expected = (e_vec * i_expected.conjugate()).real
        i = sm.injected_current(x, 1.0 + 0j)
        assert i == pytest.approx(i_expected, rel=1e-14)
        assert (sm.emf(x) * np.conj(i)).real == pytest.approx(p_expected, rel=1e-14)

    def test_swing_signs(self):
        sm = make_sm()
        sm.e_field = 1.1
        sm.p_m = 0.5
        x = np.array([0.2, 1.01])
        d = sm.derivatives(x, 1.0 + 0j)
        assert d[0] == pytest.approx(OMEGA_B * 0.01, rel=1e-12)
        p_e = (sm.emf(x) * np.conj(sm.injected_current(x, 1.0 + 0j))).real
        assert d[1] == pytest.approx((0.5 - p_e) / 8.0, rel=1e-12)

    def test_voltage_sensitivity_matches_finite_difference(self):
        sm = make_sm()
        sm.e_field = 1.05
        x = np.array([0.3, 1.0])
        v = 1.0 - 0.05j
        a, b = sm.voltage_sensitivity(x, v)
        h = 1e-7
        di_re = (sm.injected_current(x, v + h) - sm.injected_current(x, v)) / h
        di_im = (sm.injected_current(x, v + 1j * h) - sm.injected_current(x, v)) / h
        assert di_re == pytest.approx(a + b, rel=1e-6)
        assert di_im == pytest.approx(1j * (a - b), rel=1e-6)


class TestSmCf:
    def test_steady_state_is_synchronous(self):
        eta = sm_current_cf(0.5 + 0.1j, 0.52, 0.1, 1.0, 1j)
        assert eta == pytest.approx(1j, abs=1e-15)

    def test_formula_direct_evaluation(self):
        s, i, xd, omega_r, eta_v = 0.5 + 0.1j, 0.52, 0.1, 1.01, 1j
        expected = s / (1j * xd * i**2) * (1j * omega_r - eta_v) + 1j * omega_r
        assert sm_current_cf(s, i, xd, omega_r, eta_v) == pytest.approx(expected, rel=1e-14)

    def test_proportional_machines_share_cf(self):
        # same bus, same speed, reactances inversely proportional to currents:
        # both machines evaluate to the same current CF
        v = 1.0 + 0j
        eta_v = 0.002 + 0.998j
        k = 2.5
        i2 = 0.3 * cmath.exp(-0.4j)
        i1 = k * i2
        xd2 = 0.08
        xd1 = xd2 / k
        s1, s2 = v * i1.conjugate(), v * i2.conjugate()
        omega_r = 1.004
        eta1 = sm_current_cf(s1, abs(i1), xd1, omega_r, eta_v)
        eta2 = sm_current_cf(s2, abs(i2), xd2, omega_r, eta_v)
        assert eta1 == pytest.approx(eta2, rel=1e-13)


class TestZipLoad:
    def test_unity_voltage_pure_impedance(self):
        load = ZipLoad("L", 0, p0=1.0, q0=0.0)
        assert load.injected_current(np.empty(0), 1.0 + 0j) == pytest.approx(-1.0 + 0j)

    def test_square_law(self):
        load = ZipLoad("L", 0, p0=1.0, q0=0.0)
        i = load.injected_current(np.empty(0), 0.9 + 0j)
        p_drawn = -(0.9 * i.conjugate()).real
        assert p_drawn == pytest.approx(0.81, rel=1e-14)

    def test_polynomial_evaluation(self):
        load = ZipLoad("L", 0, p0=1.0, q0=0.0, kz_p=0.5, ki_p=0.3, kp_p=0.2)
        drawn = -0.95 * np.conj(load.injected_current(np.empty(0), 0.95 + 0j))
        assert drawn.real == pytest.approx(0.2 + 0.285 + 0.45125, rel=1e-14)
        assert drawn.imag == 0.0

    def test_fraction_sums_validated(self):
        with pytest.raises(ValueError):
            ZipLoad("L", 0, p0=1.0, q0=0.0, kz_p=0.5, ki_p=0.3, kp_p=0.3)

    @given(
        fractions=st.tuples(*[st.floats(0.0, 1.0)] * 4),
        p0=st.floats(0.01, 2.0),
        q0=st.floats(-1.0, 1.0),
        v0=st.floats(0.9, 1.1),
        v_mag=st.floats(0.5, 1.5),
        v_angle=st.floats(-np.pi, np.pi),
        rho=st.floats(-0.1, 0.1),
        omega=st.floats(0.9, 1.1),
    )
    @settings(max_examples=200, deadline=None)
    def test_cf_is_the_chain_rule_through_the_sensitivities(
        self, fractions, p0, q0, v0, v_mag, v_angle, rho, omega
    ):
        # dı/dt = a·v̇ + b·v̇* with v̇/ω_b = (η_v - j)·v̄: the load has no states
        kz_p, ki_p, kz_q, ki_q = fractions
        ki_p *= 1.0 - kz_p
        ki_q *= 1.0 - kz_q
        load = ZipLoad("L", 0, p0=p0, q0=q0, kz_p=kz_p, ki_p=ki_p, kp_p=1.0 - kz_p - ki_p,
                       kz_q=kz_q, ki_q=ki_q, kp_q=1.0 - kz_q - ki_q)
        load.v0 = v0
        load.derive()
        x = np.empty(0)
        v = cmath.rect(v_mag, v_angle)
        eta_v = complex(rho, omega)
        i = load.injected_current(x, v)
        a, b = load.voltage_sensitivity(x, v)
        w = (eta_v - 1j) * v
        want = (a * w + b * np.conj(w)) / i + 1j
        assert abs(load.analytic_cf(x, x, v, i, eta_v) - want) <= 1e-12 * abs(want)

        pure_z = ZipLoad("Z", 0, p0=p0, q0=q0)
        i = pure_z.injected_current(x, v)
        assert pure_z.analytic_cf(x, x, v, i, eta_v) == z_load_cf(eta_v)
        pure_p = ZipLoad("P", 0, p0=p0, q0=q0, kz_p=0.0, kp_p=1.0, kz_q=0.0, kp_q=1.0)
        i = pure_p.injected_current(x, v)
        assert abs(pure_p.analytic_cf(x, x, v, i, eta_v) - s_load_cf(eta_v)) <= 1e-15

    def test_constant_power_guard(self):
        load = ZipLoad("L", 0, p0=1.0, q0=0.0, kz_p=0.0, kp_p=1.0)
        with pytest.raises(MagnitudeUnderflow):
            load.injected_current(np.empty(0), 1e-10 + 0j)

    def test_sensitivity_matches_finite_difference(self):
        load = ZipLoad("L", 0, p0=0.8, q0=0.3, kz_p=0.5, ki_p=0.2, kp_p=0.3,
                       kz_q=0.6, ki_q=0.1, kp_q=0.3)
        v = 0.97 - 0.04j
        a, b = load.voltage_sensitivity(np.empty(0), v)
        h = 1e-7
        base = load.injected_current(np.empty(0), v)
        di_re = (load.injected_current(np.empty(0), v + h) - base) / h
        di_im = (load.injected_current(np.empty(0), v + 1j * h) - base) / h
        assert di_re == pytest.approx(a + b, rel=1e-6)
        assert di_im == pytest.approx(1j * (a - b), rel=1e-6)

    @given(
        p0=st.floats(-2.0, 2.0),
        q0=st.floats(-1.0, 1.0),
        v0=st.floats(0.9, 1.1),
        v_mag=st.floats(0.5, 1.5),
        v_angle=st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_pure_impedance_sensitivity_is_exact(self, p0, q0, v0, v_mag, v_angle):
        # ı = -s_Z·v̄ is linear in v̄: no dv̄* term, and a is s_Z itself
        load = ZipLoad("Z", 0, p0=p0, q0=q0)
        load.v0 = v0
        load.derive()
        a, b = load.voltage_sensitivity(np.empty(0), cmath.rect(v_mag, v_angle))
        assert a == -load.sz
        assert b == 0.0

    @given(
        fractions=st.tuples(*[st.floats(0.0, 1.0)] * 4),
        p0=st.floats(0.01, 2.0),
        q0=st.floats(-1.0, 1.0),
        v0=st.floats(0.9, 1.1),
        v_mag=st.floats(0.5, 1.5),
        v_angle=st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=300, deadline=None)
    def test_sensitivity_is_the_derivative_of_the_drawn_power(
        self, fractions, p0, q0, v0, v_mag, v_angle
    ):
        # the reference differentiates ı = -(p(|v|) - j·q(|v|))/v̄* with the
        # draw's polynomials p and q in |v|, whose d|v|/dv̄ = v̄*/(2|v|)
        kz_p, ki_p, kz_q, ki_q = fractions
        ki_p *= 1.0 - kz_p
        ki_q *= 1.0 - kz_q
        kp_p, kp_q = 1.0 - kz_p - ki_p, 1.0 - kz_q - ki_q
        load = ZipLoad("L", 0, p0=p0, q0=q0, kz_p=kz_p, ki_p=ki_p, kp_p=kp_p,
                       kz_q=kz_q, ki_q=ki_q, kp_q=kp_q)
        load.v0 = v0
        load.derive()
        base_p = p0 / (kp_p + ki_p * v0 + kz_p * v0**2)
        base_q = q0 / (kp_q + ki_q * v0 + kz_q * v0**2)
        drawn = (base_p * (kp_p + ki_p * v_mag + kz_p * v_mag**2)
                 - 1j * base_q * (kp_q + ki_q * v_mag + kz_q * v_mag**2))
        slope = (base_p * (ki_p + 2.0 * kz_p * v_mag)
                 - 1j * base_q * (ki_q + 2.0 * kz_q * v_mag))
        v = cmath.rect(v_mag, v_angle)
        vc = v.conjugate()
        a_ref = -slope / (2.0 * v_mag)
        b_ref = -slope * v / (2.0 * v_mag * vc) + drawn / vc**2
        a, b = load.voltage_sensitivity(np.empty(0), v)
        # relative to the size of the terms, as b cancels for a pure Z load
        scale = abs(a_ref) + abs(drawn) / v_mag**2
        assert abs(a - a_ref) <= 1e-12 * scale
        assert abs(b - b_ref) <= 1e-12 * scale


class TestLoadCfs:
    def test_z_load_identity(self):
        assert z_load_cf(1j) == 1j
        assert z_load_cf(0.02 + 0.98j) == 0.02 + 0.98j

    def test_s_load_sign_rule(self):
        assert s_load_cf(1j) == pytest.approx(1j)
        assert s_load_cf(0.02 + 0.98j) == pytest.approx(-0.02 + 0.98j)

    def test_s_minus_z_gap_is_twice_radial_rate(self):
        eta_v = 0.013 + 1.002j
        assert z_load_cf(eta_v) - s_load_cf(eta_v) == pytest.approx(2 * eta_v.real, abs=1e-15)


class TestIbrCf:
    def test_bracket_vanishes_when_internal_tracks_terminal(self):
        eta = ibr_current_cf(0.4 + 0.1j, 0.45, 0.01 + 0.1j, 0.02j, 1j, 1j)
        assert eta == pytest.approx(1j, abs=1e-15)

    def test_reduction_to_classical_machine(self):
        # z_f = j x'_d, y_f = 0, internal CF = j omega_r recovers the SM form
        for omega_r in (1.0, 1.01, 0.97):
            for s in (0.5 + 0.1j, -0.2 + 0.4j):
                for eta_v in (1j, 0.01 + 0.99j):
                    i_mag, xd = 0.57, 0.08
                    assert ibr_current_cf(
                        s, i_mag, 1j * xd, 0.0, 1j * omega_r, eta_v
                    ) == pytest.approx(sm_current_cf(s, i_mag, xd, omega_r, eta_v), rel=1e-13)


def make_gfl(**kw):
    return on_grid(GridFollowingConverter("GFL", 0, x_filter=0.15, r_filter=0.003, v_dc=2.0, **kw))


def make_gfm(**kw):
    return on_grid(GridFormingConverter("GFM", 0, x_filter=0.15, r_filter=0.005, v_dc=2.0, **kw))


class TestGridFollowing:
    def test_equilibrium(self):
        gfl = make_gfl()
        v = 1.01 * cmath.exp(0.1j)
        x0 = gfl.initial_state(v, 0.6 + 0.15j)
        gfl.derive()
        assert np.max(np.abs(gfl.derivatives(x0, v))) < 1e-12
        # reconstructed injection matches the dispatch
        i = gfl.injected_current(x0, v)
        assert v * i.conjugate() == pytest.approx(0.6 + 0.15j, rel=1e-12)
        xdot = gfl.derivatives(x0, v)
        assert gfl.analytic_cf(x0, xdot, v, i, 1j) == pytest.approx(1j, abs=1e-12)

    def test_pi_sign_on_reference_step(self):
        gfl = make_gfl(ki_current=5.0)
        v = 1.0 + 0j
        x0 = gfl.initial_state(v, 0.5 + 0.1j)
        gfl.iref_d += 0.1
        gfl.derive()
        d = gfl.derivatives(x0, v)
        assert d[0] == pytest.approx(5.0 * 0.1, rel=1e-12)
        assert d[1] == pytest.approx(0.0, abs=1e-12)

    def test_state_rate_matches_finite_difference_of_current(self):
        # advance states along their derivatives; the analytic current rate
        # must match the finite-difference rate at frozen terminal voltage
        gfl = make_gfl()
        v = 1.0 + 0j
        x0 = gfl.initial_state(v, 0.5 + 0.1j)
        gfl.iref_d += 0.2  # knock off equilibrium
        gfl.derive()
        xdot = gfl.derivatives(x0, v)
        h = 1e-7
        i0 = gfl.injected_current(x0, v)
        i1 = gfl.injected_current(x0 + h * xdot, v)
        assert (i1 - i0) / h == pytest.approx(gfl.tangent(x0, v, xdot, 0j)[1], rel=1e-5)


class TestGridForming:
    def test_equilibrium(self):
        gfm = make_gfm()
        v = 0.99 * cmath.exp(-0.05j)
        x0 = gfm.initial_state(v, 0.45 + 0.1j)
        assert np.max(np.abs(gfm.derivatives(x0, v))) < 1e-12
        xdot, i = gfm.evaluate(x0, v)
        assert gfm.analytic_cf(x0, xdot, v, i, 1j) == pytest.approx(1j, abs=1e-14)

    def test_droop_sign(self):
        gfm = make_gfm(droop=0.02)
        v = 1.0 + 0j
        x0 = gfm.initial_state(v, 0.5 + 0.0j)
        x = x0.copy()
        x[3] = gfm.p_ref - 0.1  # measured power below reference
        assert gfm.droop_frequency(x) > 1.0
        d = gfm.derivatives(x, v)
        assert d[1] == pytest.approx(OMEGA_B * 0.02 * 0.1, rel=1e-12)

    def test_state_rate_matches_finite_difference_of_current(self):
        gfm = make_gfm()
        v = 1.0 + 0j
        x0 = gfm.initial_state(v, 0.5 + 0.1j)
        gfm.p_ref += 0.2
        xdot = gfm.derivatives(x0, v)
        h = 1e-7
        i0 = gfm.injected_current(x0, v)
        i1 = gfm.injected_current(x0 + h * xdot, v)
        assert (i1 - i0) / h == pytest.approx(gfm.tangent(x0, v, xdot, 0j)[1], rel=1e-5)

    def test_settable_params_whitelist(self):
        # a scenario accepts set_parameter events on settable parameters only
        net = Network([Bus(0, kind="slack")], [])

        def set_event(param):
            event = Event(1.0, "set_parameter", device="GFM", param=param, value=0.7)
            return Scenario(network=net, devices=[make_gfm()], events=[event])

        assert set_event("p_ref").events[0].value == 0.7
        with pytest.raises(ValueError, match="no settable parameter 'droop'"):
            set_event("droop")


@pytest.mark.parametrize(
    "cls, knock", [(GridFollowingConverter, "iref_d"), (GridFormingConverter, "p_ref")]
)
def test_stack_outputs_feed_back_into_the_stack(cls, knock):
    # a stack's own initial_state result and evaluate derivatives go back
    # into evaluate and analytic_cf as they are; a GFL reads its states as
    # complex pairs, which needs a contiguous state axis
    devices = [cls(f"D{k}", k, x_filter=0.15, r_filter=0.004, v_dc=2.0) for k in range(2)]
    stack = cls.stack(devices, 0, OMEGA_B)
    v = np.array([1.01 * cmath.exp(0.1j), 0.99 * cmath.exp(-0.05j)])
    x = stack.initial_state(v, np.array([0.6 + 0.15j, 0.45 + 0.1j]))
    getattr(stack, knock)[:] += 0.1  # knock off equilibrium, so the rates are not zero
    stack.derive()
    xdot, i = stack.evaluate(x, v)
    assert x.flags.c_contiguous and xdot.flags.c_contiguous
    eta_v = np.array([0.01 + 1.0j, -0.02 + 0.99j])
    cf = stack.analytic_cf(x, xdot, v, i, eta_v)
    xdot2, i2 = stack.evaluate(xdot, v)  # any state-shaped array is a valid input
    assert np.all(np.isfinite(cf)) and np.all(np.isfinite(i2)) and np.all(np.isfinite(xdot2))
    assert np.max(np.abs(xdot)) > 0
    # the layout does not change a value
    x_c, xdot_c = np.ascontiguousarray(x), np.ascontiguousarray(xdot)
    assert np.array_equal(stack.evaluate(x_c, v)[0], xdot)
    assert np.array_equal(stack.analytic_cf(x_c, xdot_c, v, i, eta_v), cf)


# ---------------------------------------------------------------------------
# The tangent contract of every registered device kind
# ---------------------------------------------------------------------------

def any_device(kind: str, values):
    """A device of the registered `kind` on the system base frequency, built
    from its required scenario keys, whose every parameter (`params`) is
    then set from `values`, two numbers per parameter (real and imaginary
    part where it is complex)."""
    cls, keys = _DEVICES[kind]
    args = {
        spec.arg: 0.5
        for key, spec in keys.items()
        if spec.required and key not in ("type", "name", "bus")
    }
    dev = on_grid(cls("D", 0, **args))
    for k, name in enumerate(cls.params):
        re, im = values[2 * k], values[2 * k + 1]
        setattr(dev, name, complex(re, im) if isinstance(getattr(dev, name), complex) else re)
    dev.derive()
    return dev


N_VALUES = 2 * max(len(cls.params) for cls, _ in _DEVICES.values())
N_STATES = max(cls.n_states for cls, _ in _DEVICES.values())
POINTS = dict(
    values=st.lists(st.floats(0.2, 2.0), min_size=N_VALUES, max_size=N_VALUES),
    x=st.lists(st.floats(-2.0, 2.0), min_size=N_STATES, max_size=N_STATES),
    dx=st.lists(st.floats(-1.0, 1.0), min_size=N_STATES, max_size=N_STATES),
    v=st.complex_numbers(min_magnitude=0.5, max_magnitude=1.5),
    dv=st.complex_numbers(max_magnitude=1.0),
)


@pytest.mark.parametrize("kind", sorted(_DEVICES))
@settings(max_examples=60, deadline=None)
@given(**POINTS)
def test_tangent_is_the_derivative_of_evaluate(kind, values, x, dx, v, dv):
    # (df, dı) against central differences of `evaluate` along (dx, dv)
    dev = any_device(kind, values)
    n = dev.n_states
    x, dx = np.array(x[:n]), np.array(dx[:n])
    h = 1e-6
    plus, minus = dev.evaluate(x + h * dx, v + h * dv), dev.evaluate(x - h * dx, v - h * dv)
    for exact, up, down in zip(dev.tangent(x, v, dx, dv), plus, minus):
        fd = (up - down) / (2 * h)
        scale = max(1.0, np.max(np.abs(fd), initial=0.0))
        assert np.max(np.abs(exact - fd), initial=0.0) <= 1e-6 * scale


# a = ∂ı/∂v̄ of the kinds whose current is an admittance times (ē - v̄)
VOLTAGE_ADMITTANCE = {
    "sm": lambda blk: 1j / blk.xd_prime,
    "gfl": lambda blk: -(1.0 + blk.z_f * blk.y_f) / blk.z_f,
    "gfm": lambda blk: -(1.0 + blk.z_f * blk.y_f) / blk.z_f,
}


@pytest.mark.parametrize("kind", sorted(VOLTAGE_ADMITTANCE))
def test_voltage_sensitivity_is_the_admittance_bit_for_bit(kind):
    # the tangents along dv̄ = 1 and j give a = the closed form and b = 0
    # exactly, so the voltage Jacobian does not move with the states
    rng = np.random.default_rng(3)
    cls = _DEVICES[kind][0]
    devices = [any_device(kind, rng.uniform(0.01, 3.0, 2 * len(cls.params))) for _ in range(500)]
    blk = cls.stack(devices, 0, OMEGA_B)
    x = rng.uniform(-2.0, 2.0, (3, blk.n, cls.n_states))
    v = rng.uniform(0.5, 1.5, (3, blk.n)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (3, blk.n)))
    a, b = blk.voltage_sensitivity(x, v)
    assert np.array_equal(a, np.broadcast_to(VOLTAGE_ADMITTANCE[kind](blk), v.shape))
    assert np.all(b == 0.0)


def test_repr_names_a_device_and_a_stack():
    machines = [SynchronousMachine("G1", 0, 5.0, 0.1), SynchronousMachine("G2", 3, 5.0, 0.1)]
    assert repr(machines[0]) == "SynchronousMachine(name='G1', bus=0)"
    stack = SynchronousMachine.stack(machines, 0, OMEGA_B)
    assert repr(stack) == "SynchronousMachine(name=['G1', 'G2'], bus=[0 3])"
