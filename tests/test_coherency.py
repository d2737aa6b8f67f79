from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcoherency import (
    AnalysisOptions,
    Bus,
    CfSeries,
    Event,
    Network,
    Scenario,
    SynchronousMachine,
    ZipLoad,
    coherency_distance,
    coherency_function,
    device_cf,
    distance_matrix,
    numerical_cf,
    split_machines,
    upgma_tree,
)
from cfcoherency import coherency
from cfcoherency.coherency import cluster_trajectory, default_window
from cfcoherency.devices import MAGNITUDE_GUARD
from cfcoherency.errors import EmptyWindow, TimeBaseMismatch
from cfcoherency.simulation import run
from tests.conftest import (
    OMEGA_B,
    device_cf_numerical,
    mixed_scenario,
    split_device,
    stencil_dilation,
    two_bus_scenario,
    two_machine,
    zip_load,
)


def series(values, dt=1e-3, valid=None):
    """A CF series sampled every `dt`, NaN where `valid` is False."""
    values = np.asarray(values, dtype=complex)
    if valid is not None:
        values = np.where(valid, values, np.nan)
    return CfSeries(np.arange(values.size) * dt, values)


def pair(matrix, a: str, b: str) -> float:
    """The distance between devices `a` and `b` in a `CoherencyDistanceMatrix`."""
    return float(matrix.values[matrix.labels.index(a), matrix.labels.index(b)])


def second_order_derivative(y: np.ndarray, dt: float) -> np.ndarray:
    """numpy's second-order gradient: central inside, one-sided at the ends."""
    return np.gradient(y.real, dt, edge_order=2) + 1j * np.gradient(y.imag, dt, edge_order=2)


def guard_free_cf(x: np.ndarray, dt: float, omega_base: float) -> np.ndarray:
    """`numerical_cf`'s arithmetic on a series with no sample at or below the
    guard: log|x| and the phase unwrapped over every sample, through its stencils."""
    log_mag, phase = np.log(np.abs(x)), np.unwrap(np.angle(x))

    def diff(y):
        d = np.empty_like(y)
        d[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
        d[0] = (-1.5 * y[0] + 2.0 * y[1] - 0.5 * y[2]) / dt
        d[-1] = (1.5 * y[-1] - 2.0 * y[-2] + 0.5 * y[-3]) / dt
        return d

    return (diff(log_mag) + 1j * diff(phase)) / omega_base


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

    def test_phase_crosses_pi_between_samples(self):
        # steps of up to 3 rad, of either sign, carry the angle across ±pi
        # between samples; the unwrap restores the true phase, whose
        # central difference is then the rotational part
        phase = np.cumsum(np.linspace(-3.0, 3.0, 41))
        x = 0.8 * np.exp(1j * phase)
        assert np.sum(np.abs(np.diff(np.angle(x))) > np.pi) == 10
        cf = numerical_cf(x, 1e-3, OMEGA_B)
        want = (phase[2:] - phase[:-2]) / (2e-3 * OMEGA_B)
        assert np.max(np.abs(cf.values.imag[1:-1] - want)) < 1e-9
        assert np.max(np.abs(cf.values.real)) < 1e-12

    def test_magnitude_guard(self):
        # samples 3 and 7 are at or below the guard: each is undefined, and
        # so are 2 and 4, whose central stencils read 3, and 6, which reads
        # 7; the last sample's one-sided stencil reads 7 itself
        x = np.exp(0.1j * np.arange(8))
        x[3], x[7] = 1e-10, 0.0
        cf = numerical_cf(x, 1e-3, OMEGA_B)
        assert np.array_equal(np.flatnonzero(np.isnan(cf.values.real)), [2, 3, 4, 6, 7])
        assert np.array_equal(np.isnan(cf.values.imag), np.isnan(cf.values.real))
        assert np.allclose(cf.values[[0, 1, 5]], 0.1j / (1e-3 * OMEGA_B), rtol=0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(3, 40),
        rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(size=3, rate=0.0, seed=0)
    @example(size=3, rate=1.0, seed=0)
    def test_undefined_samples_void_the_stencils_that_read_them(self, size, rate, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 10.0, size) * np.exp(1j * rng.uniform(-np.pi, np.pi, size))
        bad = rng.random(size) < rate
        # real or imaginary, so |x| is exactly the drawn value, the guard included
        low = MAGNITUDE_GUARD * rng.choice([0.0, 0.5, 1.0], size)
        x[bad] = np.where(rng.random(size) < 0.5, low, 1j * low)[bad]
        dt = 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = numerical_cf(x, dt, OMEGA_B).values
        undefined = stencil_dilation(bad)
        assert np.array_equal(np.isnan(got.real), undefined)
        assert np.array_equal(np.isnan(got.imag), undefined)
        ok = ~bad
        log_mag, phase = np.zeros(size), np.zeros(size)  # any finite filler
        log_mag[ok] = np.log(np.abs(x[ok]))
        phase[ok] = np.unwrap(np.angle(x[ok]))
        want = second_order_derivative(log_mag + 1j * phase, dt) / OMEGA_B
        assert np.all(np.abs(got - want)[~undefined] <= 1e-12)
        if not bad.any():
            assert np.array_equal(got, guard_free_cf(x, dt, OMEGA_B))

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
            eps = CfSeries(t, 0.01 * np.sin(2 * np.pi * t) + 0j)
            return coherency_distance(eps, 0.0, 1.0)

        coarse = value(1e-3)
        fine = value(1e-5)
        assert coarse == pytest.approx(fine, rel=1e-5)

    def test_empty_window(self):
        eps = series(np.ones(100))
        with pytest.raises(EmptyWindow):
            coherency_distance(eps, 0.5, 0.4)

    def test_masked_samples_excluded(self):
        values = np.full(1001, 0.01j)
        values[300:400] = np.nan  # undefined samples must not contribute
        eps = series(values)
        assert coherency_distance(eps, 0.0, 1.0) == pytest.approx(0.01, rel=1e-6)

    def test_nan_samples_leave_distances_and_grouping_finite(self):
        # a NaN sample is undefined with no mask beside it; b and c are the
        # closest pair, and no two distances tie
        t = np.arange(201) * 1e-2
        a = 1j + 0.01 * np.sin(3.0 * t)
        b = a + 0.02 + 0.01j * t
        c = b + 0.01 * np.cos(t)
        a[50:60] = np.nan
        b[120:126] = np.nan
        cfs = {"a": series(a, dt=1e-2), "b": series(b, dt=1e-2), "c": series(c, dt=1e-2)}
        window = (0.0, 2.0)
        matrix = distance_matrix(cfs, window)
        assert not np.isnan(matrix.values).any()
        for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
            eps = coherency_function(cfs[x], cfs[y])
            keep = ~np.isnan(eps.values)
            want = np.trapezoid(np.abs(eps.values[keep]), t[keep])
            assert coherency_distance(eps, *window) == pytest.approx(want, rel=1e-14)
            assert pair(matrix, x, y) == coherency_distance(eps, *window)
        distances = sorted(matrix.values[np.triu_indices(3, 1)])
        assert distances[0] < distances[1] < distances[2] == pair(matrix, "a", "c")
        assert upgma_tree(matrix).cut(2) == [{"a"}, {"b", "c"}]


def pairwise_distance_matrix(cfs, window):
    """Reference: one coherency function and one masked integral per pair."""
    labels = list(cfs)
    d = np.zeros((len(labels), len(labels)))
    for ia, a in enumerate(labels):
        for ib in range(ia + 1, len(labels)):
            eps = coherency_function(cfs[a], cfs[labels[ib]])
            d[ia, ib] = d[ib, ia] = coherency_distance(eps, *window)
    return d


@pytest.fixture(scope="module")
def mixed_zip_trajectory():
    # ZL becomes a mixed ZIP load
    sc = mixed_scenario(t_end=1.2)
    sc.devices[3] = ZipLoad("ZL", 1, p0=1.0, q0=0.3, kz_p=0.5, kp_p=0.5)
    return run(sc)


def nan_around_events(traj, values, half_width):
    """A CF series of the trajectory's samples `values`, NaN within
    `half_width` samples of each event."""
    values = values.copy()
    for te in traj.event_times:
        k = traj.sample_index(te)
        values[max(0, k - half_width) : k + half_width + 1] = np.nan
    return CfSeries(traj.times, values)


def masked_mix(traj):
    """Each device's analytic series and its estimator, NaN within 1 to 3
    samples of an event, but ZL's estimator, with its own mask, in place of
    both: four NaN masks in interleaved label order."""
    cfs = {}
    for name in traj.device_names:
        if name == "ZL":
            cfs[name] = device_cf_numerical(traj, name)
        else:
            cfs[name] = device_cf(traj, name)
            est = numerical_cf(traj.device_current(name), traj.dt, traj.omega_base)
            cfs[f"{name}~"] = nan_around_events(traj, est.values + 1j, 1 + len(cfs) % 3)
    return cfs


# label orders of the masked mix: its own, with each NaN mask's series
# contiguous, and reversed
LABEL_ORDERS = {
    "interleaved": lambda cfs: list(cfs),
    "grouped": lambda cfs: sorted(cfs, key=lambda name: cfs[name].valid.tobytes()),
    "reversed": lambda cfs: list(cfs)[::-1],
}


class TestDistanceMatrix:
    @pytest.mark.parametrize("order", list(LABEL_ORDERS))
    @pytest.mark.parametrize(
        "window", [(0.9, 1.2), (1.0, 1.2), (0.95, 1.01), (1.013, 1.2)],
        ids=["across_events", "opens_on_event", "closes_on_event", "opens_in_mask"],
    )
    def test_matches_pairwise_reference_on_masked_series(
        self, mixed_zip_trajectory, window, order
    ):
        mix = masked_mix(mixed_zip_trajectory)
        labels = LABEL_ORDERS[order](mix)
        cfs = {name: mix[name] for name in labels}
        assert len({cf.valid.tobytes() for cf in cfs.values()}) == 4
        got = distance_matrix(cfs, window).values
        want = pairwise_distance_matrix(cfs, window)
        assert np.all(want[~np.eye(len(cfs), dtype=bool)] > 0.0)
        assert np.array_equal(got, want)
        assert np.array_equal(got, got.T)
        # each pair's value is the same bits whatever the label order
        idx = [list(mix).index(name) for name in labels]
        assert np.array_equal(got, distance_matrix(mix, window).values[np.ix_(idx, idx)])

    def test_bit_identical_to_pairwise_reference_when_all_valid(self):
        rng = np.random.default_rng(3)
        cfs = {
            f"s{i}": series(1j + 1e-3 * (rng.standard_normal(400) + 1j * rng.standard_normal(400)))
            for i in range(12)
        }
        got = distance_matrix(cfs, (0.05, 0.3)).values
        assert np.array_equal(got, pairwise_distance_matrix(cfs, (0.05, 0.3)))

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
        assert pair(m, "a", "c") == 0.0
        assert pair(m, "a", "b") == pytest.approx(pair(m, "c", "b"), rel=1e-12)

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


# builds a 40-series, 12,000-sample set with two sets of NaN samples and
# prints the bytes of its distance matrix; run under a given BLAS thread count
BLAS_PROBE = """
import numpy as np
from cfcoherency import CfSeries, distance_matrix
rng = np.random.default_rng(11)
times = np.arange(12000) * 1e-3
cfs = {}
for i in range(40):
    values = 1j + 1e-3 * (rng.standard_normal(times.size) + 1j * rng.standard_normal(times.size))
    if i % 3:
        values[5000:5100] = np.nan
    cfs[f"s{i}"] = CfSeries(times, values)
print(distance_matrix(cfs, (0.0, 12.0)).values.tobytes().hex())
"""


class TestIntegrationKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matrix_matches_reference_and_label_order_bit_for_bit(self, data):
        n = data.draw(st.integers(2, 12), label="series")
        size = data.draw(st.integers(2, 40), label="samples")
        masks = data.draw(st.lists(
            st.lists(st.booleans(), min_size=size, max_size=size),
            min_size=1, max_size=4, unique_by=tuple,
        ), label="masks")
        owner = data.draw(st.lists(
            st.integers(0, len(masks) - 1), min_size=n, max_size=n
        ), label="owners")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        t0 = data.draw(st.floats(-0.005, size * 1e-3), label="t0")
        t1 = t0 + data.draw(st.floats(0.0, size * 1e-3), label="length")
        perm = data.draw(st.permutations(range(n)), label="permutation")
        cfs = {
            f"s{i}": series(
                1j + 1e-3 * (rng.standard_normal(size) + 1j * rng.standard_normal(size)),
                valid=np.array(masks[owner[i]]),
            )
            for i in range(n)
        }
        labels = list(cfs)
        try:
            want = pairwise_distance_matrix(cfs, (t0, t1))
        except EmptyWindow:
            with pytest.raises(EmptyWindow):
                distance_matrix(cfs, (t0, t1))
            return
        got = distance_matrix(cfs, (t0, t1)).values
        assert np.array_equal(got, want)
        permuted = distance_matrix({labels[j]: cfs[labels[j]] for j in perm}, (t0, t1))
        assert np.array_equal(permuted.values, got[np.ix_(perm, perm)])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=200),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    )
    def test_distance_is_the_trapezoid_rule_on_uneven_samples(self, steps, seed, lo, hi):
        rng = np.random.default_rng(seed)
        times = np.concatenate([[0.0], np.cumsum(steps)])
        values = rng.standard_normal(times.size) + 1j * rng.standard_normal(times.size)
        valid = rng.random(times.size) < 0.8
        t_start, t_end = sorted((lo * times[-1], hi * times[-1]))
        keep = valid & (times >= t_start - 1e-12) & (times <= t_end + 1e-12)
        eps = CfSeries(times, np.where(valid, values, np.nan))
        if np.count_nonzero(keep) < 2:
            with pytest.raises(EmptyWindow):
                coherency_distance(eps, t_start, t_end)
            return
        want = np.trapezoid(np.abs(values[keep]), times[keep])
        assert abs(coherency_distance(eps, t_start, t_end) - want) <= 1e-14 * want

    def test_bit_identical_to_pairwise_reference_past_the_einsum_buffer(self):
        # einsum splits a row longer than its 8192-element buffer at points
        # that depend on the other rows of the call
        rng = np.random.default_rng(5)
        size = 2 * 8192 + 7
        valid = np.ones(size, dtype=bool)
        valid[9000:9040] = False
        cfs = {
            f"s{i}": series(
                1j + 1e-3 * (rng.standard_normal(size) + 1j * rng.standard_normal(size)),
                valid=valid if i % 2 else None,
            )
            for i in range(6)
        }
        window = (0.0, size * 1e-3)
        got = distance_matrix(cfs, window).values
        assert np.array_equal(got, pairwise_distance_matrix(cfs, window))

    def test_independent_of_blas_threads(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr
            out.append(done.stdout.strip())
        assert len(out[0]) == 2 * 8 * 40 * 40
        assert out[0] == out[1]

    def test_series_of_one_trajectory_skip_the_time_comparison(
        self, mixed_zip_trajectory, monkeypatch
    ):
        traj = mixed_zip_trajectory
        cfs = {name: device_cf(traj, name) for name in traj.device_names}

        def no_comparison(*args, **kwargs):
            raise AssertionError("time bases compared sample by sample")

        monkeypatch.setattr(np, "allclose", no_comparison)
        distance_matrix(cfs, (1.05, 1.2))
        coherency_function(cfs["SM"], cfs["ZL"])


class TestClusterTrajectory:
    @pytest.mark.parametrize("names, k", [
        (None, 0), (None, 4), (["SM"], 1), ([], 1),
    ], ids=["k0", "k_above_n", "one_device", "no_device"])
    def test_k_checked_before_any_integration(self, mixed_zip_trajectory, monkeypatch, names, k):
        traj = mixed_zip_trajectory
        kinds = dict(zip(traj.device_names, traj.device_kinds))
        assert len(coherency.clustered_devices(kinds, 1)) == 3

        def no_work(*args, **kwargs):
            raise AssertionError("CFs read before k was checked")

        monkeypatch.setattr(coherency, "device_cf", no_work)
        monkeypatch.setattr(coherency, "distance_matrix", no_work)
        with pytest.raises(ValueError, match="cannot cut"):
            cluster_trajectory(traj, k, names)

    @pytest.mark.parametrize("names, message", [
        (["SM1", "SM1", "SM2"], "^clustered device 'SM1' named twice$"),
        (["SM1", "NOPE"], "^unknown clustered device 'NOPE'$"),
    ], ids=["repeated", "unknown"])
    def test_names_checked_before_any_cf(self, monkeypatch, names, message):
        traj = run(two_machine(t_end=1.2))

        def no_work(*args, **kwargs):
            raise AssertionError("CFs read before the names were checked")

        monkeypatch.setattr(coherency, "device_cf", no_work)
        with pytest.raises(ValueError, match=message):
            cluster_trajectory(traj, 3, names, (1.05, 1.2))

    def test_clustered_devices(self):
        # the sources by default, in device order; named devices as named
        kinds = {"G1": "sm", "L": "zip", "C": "gfm", "F": "gfl"}
        assert coherency.clustered_devices(kinds, 3) == ["G1", "C", "F"]
        assert coherency.clustered_devices(kinds, 2, ["L", "G1"]) == ["L", "G1"]
        for k, chosen, n in ((0, None, 3), (4, None, 3), (1, ["L"], 1), (1, [], 0)):
            message = rf"^cannot cut {n} clustered device\(s\) into k={k} groups$"
            with pytest.raises(ValueError, match=message):
                coherency.clustered_devices(kinds, k, chosen)
        # a bad name is named before the count is checked
        for chosen, message in ((["G1", "G1"], "'G1' named twice"), (["X"], "unknown .* 'X'")):
            with pytest.raises(ValueError, match=message):
                coherency.clustered_devices(kinds, 0, chosen)


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
        sc = two_machine(0.3, 0.7, t_end=2.5)
        traj = run(sc)
        i1 = np.abs(traj.device_current("SM1")) ** 2
        i2 = np.abs(traj.device_current("SM2")) ** 2
        ratio = i1 / i2
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8

    def test_coherent_pair_power_ratio_constant_and_real(self):
        sc = two_machine(0.4, 0.6, t_end=2.5)
        traj = run(sc)
        bus = traj.device_buses[0]
        v = traj.voltages[:, bus]
        s1 = v * np.conj(traj.device_current("SM1"))
        s2 = v * np.conj(traj.device_current("SM2"))
        ratio = s1 / s2
        assert np.max(np.abs(ratio - ratio[0])) < 1e-8
        assert abs(ratio[0].imag) < 1e-10


share = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
positive = st.floats(1e-3, 1e3)


def machine_pair_template(inertia, xd_prime, p, damping, q_weight) -> Scenario:
    """A single-bus grid with the load listed between two machines, whose
    parameters are the given pairs."""
    devices = [
        SynchronousMachine(
            name, 0, inertia=inertia[k], xd_prime=xd_prime[k], damping=damping[k], p=p[k],
            q_weight=q_weight[k],
        )
        for k, name in enumerate(("A", "B"))
    ]
    devices.insert(1, ZipLoad("L", 0, p0=1.0, q0=0.2))
    return Scenario(
        network=Network([Bus(0, kind="slack", v_set=1.0, label=1)], []),
        devices=devices,
        events=[Event(0.5, "load_scale", bus=0, factor=1.1)],
        t_end=2.0,
        dt=2e-3,
        tolerance=1e-9,
        omega_base=OMEGA_B,
        analysis=AnalysisOptions(window=(1.0, 2.0)),
    )


class TestSplitMachines:
    @settings(max_examples=60, deadline=None)
    @given(
        share, share,
        st.tuples(positive, positive), st.tuples(positive, positive),
        st.tuples(positive, positive), st.tuples(positive, positive),
        st.tuples(st.none() | positive, st.none() | positive),
    )
    def test_totals_split_and_the_rest_kept(self, alpha, beta, inertia, xd_prime, p, damping,
                                            q_weight):
        sc = machine_pair_template(inertia, xd_prime, p, damping, q_weight)
        out = split_machines(sc, alpha, beta)
        a, load, b = out.devices
        assert load is sc.devices[1]
        for machine, ia, ib in ((a, alpha, beta), (b, 1.0 - alpha, 1.0 - beta)):
            assert machine.inertia == (inertia[0] + inertia[1]) * ia
            assert machine.xd_prime == (xd_prime[0] + xd_prime[1]) * ib
            assert machine.p == (p[0] + p[1]) * ia
        for machine, given_machine in ((a, sc.devices[0]), (b, sc.devices[2])):
            assert machine is not given_machine
            assert machine.name == given_machine.name and machine.bus == given_machine.bus
            assert machine.damping == given_machine.damping
            assert machine.q_weight == given_machine.q_weight
        # the template itself is left as it was
        assert sc.devices[0].inertia == inertia[0] and sc.devices[2].xd_prime == xd_prime[1]
        assert out.events == sc.events and out.network is sc.network
        for name in ("dt", "t_end", "tolerance", "omega_base", "s_base"):
            assert getattr(out, name) == getattr(sc, name)
        assert out.analysis.window == (1.0, 2.0)

    @pytest.mark.parametrize("alpha, beta", [
        (0.0, 0.5), (1.0, 0.5), (float("nan"), 0.5), (0.5, 0.0), (0.5, 1.0), (0.5, float("nan")),
    ])
    def test_shares_outside_the_unit_interval_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="strictly inside"):
            split_machines(two_machine(), alpha, beta)

    def test_one_machine_rejected(self):
        with pytest.raises(ValueError, match="two synchronous machines"):
            split_machines(two_bus_scenario(), 0.3, 0.3)

    def test_two_bus_grid_rejected(self):
        sc = two_bus_scenario()
        sc.devices.append(SynchronousMachine("SM2", 1, inertia=4.0, xd_prime=0.05, p=0.1))
        with pytest.raises(ValueError, match="single-bus grid"):
            split_machines(sc, 0.3, 0.3)


# the grids a device is split on: the mixed grid across its pulse, and the
# two-bus grid with its load stepped up by 10% at 0.3 s
SPLIT_GRIDS = {
    "mixed": lambda: mixed_scenario(t_end=2.0),
    "two-bus": lambda: dataclasses.replace(
        two_bus_scenario(load_p=0.5), events=[Event(0.3, "load_scale", bus=1, factor=1.1)]
    ),
}


class TestSplitDevice:
    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from([("mixed", "SM"), ("mixed", "GFL"), ("mixed", "GFM"), ("two-bus", "SM")]),
        st.floats(0.2, 0.8),
    )
    @example(("two-bus", "SM"), 0.37)  # whatever else is drawn
    def test_copies_are_coherent(self, grid_and_device, k):
        # one device split into copies with shares k and 1 - k of its current;
        # a converter gets a filter shunt first, so that y_f is scaled too
        grid, name = grid_and_device
        sc = SPLIT_GRIDS[grid]()
        index = [d.name for d in sc.devices].index(name)
        device = sc.devices[index]
        shunt = {} if device.kind == "sm" else dict(g_filter=0.002, b_filter=0.03)
        sc.devices[index : index + 1] = split_device(device, k, **shunt)
        traj = run(sc)
        eps = coherency_function(device_cf(traj, name + "a"), device_cf(traj, name + "b"))
        assert np.all(eps.valid)
        assert np.max(np.abs(eps.values)) <= 1e-13


class TestAlphaBetaSweep:
    def test_symmetric_valley_and_monotone_growth(self):
        from cfcoherency import alpha_beta_sweep

        alphas = np.array([0.3])
        betas = np.array([0.4, 0.55, 0.7, 0.85])
        res = alpha_beta_sweep(two_machine(t_end=2.0), alphas, betas)
        assert not res.failures
        row = res.values[0]
        # the valley sits at beta = 1 - alpha; distances grow on both sides
        assert row[2] < 1e-6
        assert row[0] > row[1] > row[2]
        assert row[3] > row[2]

    def test_grid_validation(self):
        from cfcoherency import alpha_beta_sweep

        sc = two_machine()
        with pytest.raises(ValueError):
            alpha_beta_sweep(sc, [0.0, 0.5], [0.5])
        with pytest.raises(ValueError):
            alpha_beta_sweep(sc, [0.5], [1.0])
        with pytest.raises(ValueError):
            alpha_beta_sweep(sc, [float("nan")], [0.5])

    def test_failed_cells_marked_not_fatal(self, monkeypatch):
        import cfcoherency.coherency as coh

        def flaky(scenario, alpha, beta):
            if alpha < 0.4:
                raise RuntimeError("synthetic cell failure")
            return 0.5

        monkeypatch.setattr(coh, "two_machine_distance", flaky)
        res = coh.alpha_beta_sweep(two_machine(), [0.3, 0.5], [0.5])
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
