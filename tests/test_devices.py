from __future__ import annotations

import cmath

import numpy as np
import pytest

from cfcoherency import (
    Bus,
    Event,
    GridFollowingConverter,
    GridFormingConverter,
    IbrFilter,
    Network,
    Scenario,
    SynchronousMachine,
    ZipLoad,
    ibr_current_cf,
    s_load_cf,
    sm_current_cf,
    z_load_cf,
)
from cfcoherency.errors import MagnitudeUnderflow, NotAnalytical

OMEGA_B = 2.0 * np.pi * 60.0


def make_sm(**kw):
    defaults = dict(inertia=8.0, xd_prime=0.1, omega_base=OMEGA_B)
    defaults.update(kw)
    return SynchronousMachine("SM", 0, **defaults)


class TestSynchronousMachine:
    def test_zero_current_when_emf_matches_terminal(self):
        sm = make_sm()
        sm.e_field = 1.0
        x = np.array([0.0, 1.0])
        assert sm.injected_current(x, 1.0 + 0j) == pytest.approx(0.0, abs=1e-15)
        assert sm.electrical_power(x, 1.0 + 0j) == pytest.approx(0.0, abs=1e-15)

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
        assert sm.injected_current(x, 1.0 + 0j) == pytest.approx(i_expected, rel=1e-14)
        assert sm.electrical_power(x, 1.0 + 0j) == pytest.approx(p_expected, rel=1e-14)

    def test_swing_signs(self):
        sm = make_sm()
        sm.e_field = 1.1
        sm.p_m = 0.5
        x = np.array([0.2, 1.01])
        d = sm.derivatives(x, 1.0 + 0j)
        assert d[0] == pytest.approx(OMEGA_B * 0.01, rel=1e-12)
        p_e = sm.electrical_power(x, 1.0 + 0j)
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
        p, q = load.drawn_power(0.95)
        assert p == pytest.approx(0.2 + 0.285 + 0.45125, rel=1e-14)
        assert q == 0.0

    def test_fraction_sums_validated(self):
        with pytest.raises(ValueError):
            ZipLoad("L", 0, p0=1.0, q0=0.0, kz_p=0.5, ki_p=0.3, kp_p=0.3)

    def test_mixed_zip_has_no_closed_form_cf(self):
        load = ZipLoad("L", 0, p0=1.0, q0=0.2, kz_p=0.5, ki_p=0.3, kp_p=0.2)
        assert not load.has_analytic_cf
        with pytest.raises(NotAnalytical):
            load.analytic_cf(np.empty(0), np.empty(0), 1.0 + 0j, 1j)

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
    return GridFollowingConverter(
        "GFL", 0, IbrFilter(0.003 + 0.15j, 0.0, v_dc=2.0), OMEGA_B, **kw
    )


def make_gfm(**kw):
    return GridFormingConverter(
        "GFM", 0, IbrFilter(0.005 + 0.15j, 0.0, v_dc=2.0), OMEGA_B, **kw
    )


class TestGridFollowing:
    def test_equilibrium(self):
        gfl = make_gfl()
        v = 1.01 * cmath.exp(0.1j)
        x0 = gfl.initial_state(v, 0.6 + 0.15j)
        assert np.max(np.abs(gfl.derivatives(x0, v))) < 1e-12
        # reconstructed injection matches the dispatch
        i = gfl.injected_current(x0, v)
        assert v * i.conjugate() == pytest.approx(0.6 + 0.15j, rel=1e-12)
        xdot = gfl.derivatives(x0, v)
        assert gfl.internal_cf(x0, xdot, v) == pytest.approx(1j, abs=1e-12)

    def test_pi_sign_on_reference_step(self):
        gfl = make_gfl(ki_current=5.0)
        v = 1.0 + 0j
        x0 = gfl.initial_state(v, 0.5 + 0.1j)
        gfl.iref_d += 0.1
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
        xdot = gfl.derivatives(x0, v)
        h = 1e-7
        i0 = gfl.injected_current(x0, v)
        i1 = gfl.injected_current(x0 + h * xdot, v)
        assert (i1 - i0) / h == pytest.approx(gfl.current_state_rate(x0, xdot, v), rel=1e-5)


class TestGridForming:
    def test_equilibrium(self):
        gfm = make_gfm()
        v = 0.99 * cmath.exp(-0.05j)
        x0 = gfm.initial_state(v, 0.45 + 0.1j)
        assert np.max(np.abs(gfm.derivatives(x0, v))) < 1e-12
        xdot = gfm.derivatives(x0, v)
        assert gfm.internal_cf(x0, xdot) == pytest.approx(1j, abs=1e-14)

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
        assert (i1 - i0) / h == pytest.approx(gfm.current_state_rate(x0, xdot, v), rel=1e-5)

    def test_settable_params_whitelist(self):
        # a scenario accepts set_parameter events on settable parameters only
        net = Network([Bus(0, kind="slack")], [])

        def set_event(param):
            event = Event(1.0, "set_parameter", device="GFM", param=param, value=0.7)
            return Scenario(network=net, devices=[make_gfm()], events=[event])

        assert set_event("p_ref").events[0].value == 0.7
        with pytest.raises(ValueError, match="no settable parameter 'droop'"):
            set_event("droop")
