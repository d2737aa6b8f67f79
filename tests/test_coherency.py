from __future__ import annotations

import numpy as np
import pytest

from cfcoherency import (
    CfSeries,
    ZipLoad,
    coherency_distance,
    coherency_function,
    device_cf,
    device_cf_numerical,
    distance_matrix,
    numerical_cf,
)
from cfcoherency.coherency import build_two_machine_scenario, default_window
from cfcoherency.errors import EmptyWindow, MagnitudeUnderflow, TimeBaseMismatch
from cfcoherency.simulation import run
from tests.conftest import OMEGA_B, mixed_scenario, zip_load


def series(values, dt=1e-3, valid=None):
    values = np.asarray(values, dtype=complex)
    if valid is None:
        valid = np.ones(values.size, dtype=bool)
    return CfSeries(np.arange(values.size) * dt, values, valid)


class TestNumericalCf:
    def test_synchronous_rotation(self):
        t = np.arange(2000) * 1e-3
        x = np.exp(1j * OMEGA_B * t)
        cf = numerical_cf(x, 1e-3, OMEGA_B)
        assert np.max(np.abs(cf.values - 1j)) < 1e-6

    def test_constant_vector(self):
        cf = numerical_cf(np.full(50, 0.7 - 0.2j), 1e-3, OMEGA_B)
        assert np.max(np.abs(cf.values)) < 1e-15

    def test_growing_exponential(self):
        sigma = 0.5  # 1/s
        t = np.arange(3000) * 1e-3
        x = np.exp((sigma + 1j * OMEGA_B) * t)
        cf = numerical_cf(x, 1e-3, OMEGA_B)
        assert np.max(np.abs(cf.values.real - sigma / OMEGA_B)) < 1e-9
        assert np.max(np.abs(cf.values.imag - 1.0)) < 1e-6

    def test_endpoint_stencils_second_order(self):
        # a quadratic log-magnitude is differentiated exactly by 3-point
        # one-sided stencils, so endpoint errors vanish to rounding
        t = np.arange(100) * 1e-3
        x = np.exp(0.3 * t**2 + 1j * 0.0)
        cf = numerical_cf(x, 1e-3, OMEGA_B)
        expected = 2 * 0.3 * t / OMEGA_B
        assert abs(cf.values[0].real - expected[0]) < 1e-10
        assert abs(cf.values[-1].real - expected[-1]) < 1e-10

    def test_magnitude_guard(self):
        x = np.array([1.0, 1e-10, 1.0], dtype=complex)
        with pytest.raises(MagnitudeUnderflow):
            numerical_cf(x, 1e-3, OMEGA_B)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            numerical_cf(np.array([1.0 + 0j, 1.0 + 0j]), 1e-3, OMEGA_B)


class TestCoherencyFunction:
    def test_identical_series_give_zero(self):
        a = series(np.full(20, 0.01 + 1.0j))
        eps = coherency_function(a, a)
        assert np.all(eps.values == 0.0)

    def test_constant_gap(self):
        a = series(np.full(20, 1.01j))
        b = series(np.full(20, 1.00j))
        eps = coherency_function(a, b)
        assert np.allclose(eps.values, 0.01j)

    def test_antisymmetry(self):
        rng = np.linspace(0, 1, 30)
        a = series(0.01 * np.sin(rng) + 1j * (1 + 0.05 * np.cos(rng)))
        b = series(0.02 * np.cos(rng) + 1j)
        eps_ab = coherency_function(a, b)
        eps_ba = coherency_function(b, a)
        assert np.array_equal(eps_ab.values, -eps_ba.values)

    def test_mask_union(self):
        va = np.ones(10, dtype=bool)
        vb = np.ones(10, dtype=bool)
        va[2] = False
        vb[7] = False
        eps = coherency_function(series(np.ones(10), valid=va), series(np.ones(10), valid=vb))
        assert not eps.valid[2] and not eps.valid[7]
        assert eps.valid.sum() == 8

    def test_time_base_mismatch(self):
        a = series(np.ones(10), dt=1e-3)
        b = series(np.ones(10), dt=2e-3)
        with pytest.raises(TimeBaseMismatch):
            coherency_function(a, b)

    def test_s_vs_z_load_same_bus(self):
        # constant-impedance minus constant-power load at one bus: the gap is
        # exactly twice the radial rate of the shared terminal voltage
        sc = mixed_scenario(t_end=2.0)
        sc.devices[4].bus = 1  # move the S-load onto the Z-load bus
        traj = run(sc)
        eps = coherency_function(device_cf(traj, "ZL"), device_cf(traj, "SL"))
        bus = traj.device_buses[traj.device_names.index("ZL")]
        rho_v = traj.voltage_cf[:, bus].real
        assert np.max(np.abs(eps.values - 2.0 * rho_v)) < 1e-12


class TestCoherencyDistance:
    def test_zero_series(self):
        eps = series(np.zeros(100))
        assert coherency_distance(eps, 0.0, 0.099) == 0.0

    def test_constant_integrand(self):
        eps = series(np.full(1001, 0.01j))
        assert coherency_distance(eps, 0.0, 1.0) == pytest.approx(0.01, rel=1e-12)

    def test_quadrature_against_refined_grid(self):
        # integral of a smooth |eps| converges to the fine-grid value
        def value(dt):
            t = np.arange(0.0, 1.0 + dt / 2, dt)
            eps = CfSeries(t, 0.01 * np.sin(2 * np.pi * t) + 0j, np.ones(t.size, bool))
            return coherency_distance(eps, 0.0, 1.0)

        coarse = value(1e-3)
        fine = value(1e-5)
        assert coarse == pytest.approx(fine, rel=1e-5)

    def test_empty_window(self):
        eps = series(np.ones(100))
        with pytest.raises(EmptyWindow):
            coherency_distance(eps, 0.5, 0.4)

    def test_masked_samples_excluded(self):
        valid = np.ones(1001, dtype=bool)
        valid[300:400] = False
        spiky = np.full(1001, 0.01j)
        spiky[300:400] = 1e6j  # masked garbage must not contribute
        eps = series(spiky, valid=valid)
        assert coherency_distance(eps, 0.0, 1.0) == pytest.approx(0.01, rel=1e-6)


def pairwise_distance_matrix(cfs, window, component="full"):
    """Reference: one coherency function and one masked integral per pair."""
    labels = list(cfs)
    d = np.zeros((len(labels), len(labels)))
    for ia, a in enumerate(labels):
        for ib in range(ia + 1, len(labels)):
            eps = coherency_function(cfs[a], cfs[labels[ib]])
            if component == "rho":
                eps = CfSeries(eps.times, eps.values.real + 0j, eps.valid)
            elif component == "omega":
                eps = CfSeries(eps.times, 1j * eps.values.imag, eps.valid)
            d[ia, ib] = d[ib, ia] = coherency_distance(eps, *window)
    return d


@pytest.fixture(scope="module")
def mixed_zip_trajectory():
    # ZL becomes a mixed ZIP load
    sc = mixed_scenario(t_end=1.2)
    sc.devices[3] = ZipLoad("ZL", 1, p0=1.0, q0=0.3, kz_p=0.5, kp_p=0.5)
    return run(sc)


def masked_mix(traj):
    """Each device's analytic series and its estimator with a pad of 1 to
    3, but ZL's estimator, with the default pad, in place of both: four
    validity masks in interleaved label order."""
    cfs = {}
    for name in traj.device_names:
        if name == "ZL":
            cfs[name] = device_cf_numerical(traj, name)
        else:
            cfs[name] = device_cf(traj, name)
            cfs[f"{name}~"] = device_cf_numerical(traj, name, pad=1 + len(cfs) % 3)
    return cfs


class TestDistanceMatrix:
    @pytest.mark.parametrize("component", ["full", "rho", "omega"])
    @pytest.mark.parametrize(
        "window", [(0.9, 1.2), (1.0, 1.2), (0.95, 1.01), (1.013, 1.2)],
        ids=["across_events", "opens_on_event", "closes_on_event", "opens_in_mask"],
    )
    def test_matches_pairwise_reference_on_masked_series(
        self, mixed_zip_trajectory, window, component
    ):
        cfs = masked_mix(mixed_zip_trajectory)
        assert len({cf.valid.tobytes() for cf in cfs.values()}) == 4
        got = distance_matrix(cfs, window, component).values
        want = pairwise_distance_matrix(cfs, window, component)
        assert np.all(want[~np.eye(len(cfs), dtype=bool)] > 0.0)
        assert np.max(np.abs(got - want) / np.where(want > 0.0, want, 1.0)) < 1e-12
        assert np.array_equal(got, got.T)

    def test_bit_identical_to_pairwise_reference_when_all_valid(self):
        rng = np.random.default_rng(3)
        cfs = {
            f"s{i}": series(1j + 1e-3 * (rng.standard_normal(400) + 1j * rng.standard_normal(400)))
            for i in range(12)
        }
        for component in ("full", "rho", "omega"):
            got = distance_matrix(cfs, (0.05, 0.3), component).values
            assert np.array_equal(got, pairwise_distance_matrix(cfs, (0.05, 0.3), component))

    def test_empty_joint_mask_raises_like_reference(self, mixed_zip_trajectory):
        # inside the estimators' event mask only the analytic pairs have samples
        cfs = masked_mix(mixed_zip_trajectory)
        window = (1.0, 1.002)
        with pytest.raises(EmptyWindow) as want:
            pairwise_distance_matrix(cfs, window)
        with pytest.raises(EmptyWindow) as got:
            distance_matrix(cfs, window)
        assert str(got.value) == str(want.value)
        assert "holds 0 usable sample(s)" in str(got.value)

    def test_time_base_mismatch_on_any_series(self):
        base = np.full(20, 1j)
        cfs = {"a": series(base), "b": series(base), "c": series(base, dt=2e-3)}
        with pytest.raises(TimeBaseMismatch):
            pairwise_distance_matrix(cfs, (0.0, 0.01))
        with pytest.raises(TimeBaseMismatch):
            distance_matrix(cfs, (0.0, 0.01))

    def test_duplicate_devices_have_zero_distance(self):
        base = 0.01 * np.sin(np.linspace(0, 6, 200)) + 1j
        cfs = {
            "a": series(base),
            "b": series(base + 0.005),
            "c": series(base.copy()),
        }
        m = distance_matrix(cfs, (0.0, 0.19))
        assert m.pair("a", "c") == 0.0
        assert m.pair("a", "b") == pytest.approx(m.pair("c", "b"), rel=1e-12)

    def test_metric_sanity(self):
        rng = np.linspace(0, 5, 300)
        cfs = {
            "a": series(1j + 0.01 * np.sin(rng)),
            "b": series(1j + 0.02 * np.cos(rng)),
            "c": series(1j + 0.005 * np.sin(2 * rng)),
        }
        m = distance_matrix(cfs, (0.0, 0.29))
        v = m.values
        assert np.all(v >= 0)
        assert np.allclose(np.diag(v), 0.0)
        assert np.array_equal(v, v.T)

    def test_component_selection(self):
        rng = np.linspace(0, 5, 300)
        cfs = {
            "a": series(0.01 * np.sin(rng) + 1j),
            "b": series(1j + 0.02j * np.sin(rng)),
        }
        full = distance_matrix(cfs, (0.0, 0.29)).pair("a", "b")
        rho = distance_matrix(cfs, (0.0, 0.29), component="rho").pair("a", "b")
        om = distance_matrix(cfs, (0.0, 0.29), component="omega").pair("a", "b")
        assert rho > 0 and om > 0
        assert max(rho, om) <= full <= rho + om


class TestComplexProportionality:
    def test_proportional_currents_have_equal_cfs(self):
        # currents related by a constant complex factor share their CF, so
        # the integrated coherency function vanishes
        t = np.arange(1500) * 1e-3
        base = (1.0 + 0.05 * np.sin(3 * t)) * np.exp(1j * (0.2 * np.sin(2 * t)))
        k = 0.8 * np.exp(0.7j)
        cf1 = numerical_cf(base, 1e-3, OMEGA_B)
        cf2 = numerical_cf(k * base, 1e-3, OMEGA_B)
        eps = coherency_function(cf1, cf2)
        assert coherency_distance(eps, 0.0, 1.4) < 1e-12

    def test_coherent_pair_current_ratio_constant(self):
        # over the pulse transient of a perfectly coherent pair the squared
        # current magnitudes keep a fixed ratio
        sc = build_two_machine_scenario(0.3, 0.7, t_end=2.5)
        traj = run(sc)
        i1 = np.abs(traj.device_current("SM1")) ** 2
        i2 = np.abs(traj.device_current("SM2")) ** 2
        ratio = i1 / i2
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8

    def test_coherent_pair_power_ratio_constant_and_real(self):
        sc = build_two_machine_scenario(0.4, 0.6, t_end=2.5)
        traj = run(sc)
        bus = traj.device_buses[0]
        v = traj.voltages[:, bus]
        s1 = v * np.conj(traj.device_current("SM1"))
        s2 = v * np.conj(traj.device_current("SM2"))
        ratio = s1 / s2
        assert np.max(np.abs(ratio - ratio[0])) < 1e-8
        assert abs(ratio[0].imag) < 1e-10


class TestAlphaBetaSweep:
    def test_symmetric_valley_and_monotone_growth(self):
        from cfcoherency import alpha_beta_sweep

        alphas = np.array([0.3])
        betas = np.array([0.4, 0.55, 0.7, 0.85])
        res = alpha_beta_sweep(alphas, betas, t_end=2.0)
        assert not res.failures
        row = res.values[0]
        # the valley sits at beta = 1 - alpha; distances grow on both sides
        assert row[2] < 1e-6
        assert row[0] > row[1] > row[2]
        assert row[3] > row[2]

    def test_grid_validation(self):
        from cfcoherency import alpha_beta_sweep

        with pytest.raises(ValueError):
            alpha_beta_sweep([0.0, 0.5], [0.5])
        with pytest.raises(ValueError):
            alpha_beta_sweep([0.5], [1.0])
        with pytest.raises(ValueError):
            alpha_beta_sweep([float("nan")], [0.5])

    def test_failed_cells_marked_not_fatal(self, monkeypatch):
        import cfcoherency.coherency as coh

        def flaky(alpha, beta, t_end=3.0, dt=1e-3):
            if alpha < 0.4:
                raise RuntimeError("synthetic cell failure")
            return 0.5

        monkeypatch.setattr(coh, "two_machine_distance", flaky)
        res = coh.alpha_beta_sweep([0.3, 0.5], [0.5], t_end=1.0)
        assert np.isnan(res.values[0, 0]) and res.values[1, 0] == 0.5
        assert len(res.failures) == 1
        assert "synthetic cell failure" in res.failures[0][2]


class TestDeviceCfHelpers:
    def test_numerical_matches_analytic_on_transient(self):
        sc = mixed_scenario(t_end=2.5)
        sc.devices.append(zip_load())
        traj = run(sc)
        tol = max(1e-4, 10 * traj.dt**2 * traj.omega_base)
        for name in ("SM", "GFL", "GFM", "ZL", "SL", "ZIP"):
            eps = coherency_function(
                device_cf(traj, name), device_cf_numerical(traj, name)
            )
            assert np.max(np.abs(eps.values[eps.valid])) < tol, name

    def test_default_window_follows_last_event(self):
        sc = mixed_scenario(t_end=2.0)
        traj = run(sc)
        w = default_window(traj)
        assert w[0] == pytest.approx(1.01 + 5 * traj.dt)
        assert w[1] == pytest.approx(2.0)
