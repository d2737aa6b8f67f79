"""CF estimation from sampled trajectories, the coherency function, the
integral distance metric, average-linkage grouping, observer-independence
verification, and the two-machine parameter sweep, which splits the two
machines of a template scenario."""

from __future__ import annotations

import copy
import dataclasses
import itertools
from dataclasses import dataclass, field

import numpy as np

from .devices import MAGNITUDE_GUARD, UNDEFINED_CF, SynchronousMachine
from .errors import EmptyWindow, TimeBaseMismatch
from .network import Network, power_contribution
from .simulation import Scenario, Trajectory, run

EVENT_MASK_PAD = 2  # samples on each side of an event where the estimator's stencil straddles it

# The distance window opens this many samples after the last event.
WINDOW_START_SAMPLES = 5

WINDOW_TOL = 1e-12  # s; a window holds samples this close outside it, as k·dt is off by ulps

# Samples per einsum call.  numpy's einsum cuts a row longer than its
# 8192-element buffer where the rows beside it put the cut, so that row's
# sum would depend on them; a row this long is summed whole.
INTEGRATION_BLOCK = 4096


@dataclass(eq=False)
class CfSeries:
    """Sampled complex-frequency trajectory, NaN where undefined or untrustworthy."""

    times: np.ndarray
    values: np.ndarray  # complex, rho + j*omega in pu

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must share one shape")

    @property
    def valid(self) -> np.ndarray:
        """False exactly where the sample is NaN."""
        return ~np.isnan(self.values)


def numerical_cf(samples, dt: float, omega_base: float) -> CfSeries:
    """Finite-difference CF estimate of a sampled Clarke vector.

    Second-order stencils throughout: 3-point central differences inside,
    3-point one-sided at both ends.  The radial part differentiates
    log-magnitude, the rotational part the phase unwrapped over the defined
    samples; both are normalized by `omega_base`.  A sample at or below
    `MAGNITUDE_GUARD`, and every sample whose stencil reads one, is `UNDEFINED_CF`.
    """
    x = np.asarray(samples, dtype=complex)
    if x.ndim != 1 or x.size < 3:
        raise ValueError("need a 1-D series with at least 3 samples")
    mags = np.abs(x)
    ok = mags > MAGNITUDE_GUARD
    # NaN at an undefined sample, so that every stencil reading it is NaN
    log_mag, phase = np.full((2, x.size), np.nan)
    log_mag[ok] = np.log(mags[ok])
    phase[ok] = np.unwrap(np.angle(x[ok]))

    def diff(y: np.ndarray) -> np.ndarray:
        d = np.empty_like(y)
        d[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
        d[0] = (-1.5 * y[0] + 2.0 * y[1] - 0.5 * y[2]) / dt
        d[-1] = (1.5 * y[-1] - 2.0 * y[-2] + 0.5 * y[-3]) / dt
        return d

    values = (diff(log_mag) + 1j * diff(phase)) / omega_base
    # the central stencil skips its own sample; a NaN part voids both
    values[~ok | np.isnan(values)] = UNDEFINED_CF
    times = np.arange(x.size) * dt
    return CfSeries(times, values)


def estimator_valid(traj: Trajectory) -> np.ndarray:
    """False within `EVENT_MASK_PAD` samples of an event, where a
    finite-difference CF of the trajectory straddles it."""
    valid = np.ones(traj.times.size, dtype=bool)
    for te in traj.event_times:
        k = traj.sample_index(te)
        valid[max(0, k - EVENT_MASK_PAD) : k + EVENT_MASK_PAD + 1] = False
    return valid


def device_cf(traj: Trajectory, name: str) -> CfSeries:
    """Stationary-frame CF of a device's current, as `run` recorded it in
    closed form, NaN where the device draws no current; shares the
    trajectory's arrays, since no CfSeries is ever written to."""
    return CfSeries(traj.times, traj.analytic_cf[name])


def _same_time_base(a: np.ndarray, b: np.ndarray) -> None:
    """Raise `TimeBaseMismatch` unless the sample times agree to 1e-12 s; at
    once when they are one array, as the series of one trajectory share it."""
    if a is not b and (a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=1e-12)):
        raise TimeBaseMismatch("CF series are sampled on different time bases")


def coherency_function(eta1: CfSeries, eta2: CfSeries) -> CfSeries:
    """Instantaneous coherency function: sample-wise CF difference, NaN where either CF is."""
    _same_time_base(eta1.times, eta2.times)
    return CfSeries(eta1.times, eta1.values - eta2.values)


def _window_slice(times: np.ndarray, window: tuple[float, float]) -> slice:
    """The samples of the ascending `times` inside the window, ± `WINDOW_TOL`."""
    lo = np.searchsorted(times, window[0] - WINDOW_TOL, side="left")
    hi = np.searchsorted(times, window[1] + WINDOW_TOL, side="right")
    return slice(lo, hi)


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    """Weights w with Σ w_k·y_k the trapezoid rule over the sample times `t`
    (at least two, in any spacing): half of t_{k+1} - t_{k-1} inside, half
    an interval at either end."""
    w = np.empty(t.size)
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    return w


def _integrate(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Σ_k y[i, k]·w[k] for each row i of the (m, T) `y`.

    numpy's einsum kernel uses neither BLAS nor threads.  With the rows
    C-ordered (a masked column pick leaves them F-ordered, and einsum then
    runs down the columns) and the time axis cut into blocks of
    `INTEGRATION_BLOCK` samples, each row sums in one fixed order, whatever
    rows share the call.
    """
    y = np.ascontiguousarray(y)
    return sum(
        np.einsum("ij,j->i", y[:, s : s + INTEGRATION_BLOCK], w[s : s + INTEGRATION_BLOCK])
        for s in range(0, w.size, INTEGRATION_BLOCK)
    )


def coherency_distance(eps: CfSeries, t_start: float, t_end: float) -> float:
    """Time integral of |ε| over the samples inside [t_start, t_end] that are not NaN.

    The trapezoid rule over those sample times, as the weighted sum
    Σ w_k·|ε_k| that `distance_matrix` also takes, so the two give the same
    bits for a pair.
    """
    win = _window_slice(eps.times, (t_start, t_end))
    sel = eps.valid[win]
    n = int(np.count_nonzero(sel))
    if n < 2:
        raise EmptyWindow(
            f"window [{t_start}, {t_end}] holds {n} usable sample(s); need at least 2"
        )
    w = _trapezoid_weights(eps.times[win][sel])
    return float(_integrate(np.abs(eps.values[win][sel])[None], w)[0])


@dataclass(eq=False)
class CoherencyDistanceMatrix:
    values: np.ndarray  # (n, n) symmetric, zero diagonal
    labels: list[str]

    def __post_init__(self):
        v = self.values
        if v.shape != (len(self.labels), len(self.labels)):
            raise ValueError("matrix shape does not match labels")


def distance_matrix(
    cfs: dict[str, CfSeries], window: tuple[float, float]
) -> CoherencyDistanceMatrix:
    """Pairwise ∫|ε|dt over the window, each pair to the bits of
    `coherency_distance` on its coherency function.

    Each row's |ε| against the later rows is one weighted sum per block of
    samples, with one set of trapezoid weights over the window; a pair whose
    ε has NaN samples there sums to NaN and goes to `coherency_distance`.
    A pair's value does not depend on the label order or the BLAS build.
    """
    labels = list(cfs.keys())
    if len(labels) < 2:
        raise ValueError("need at least two devices")
    times = cfs[labels[0]].times
    for name in labels[1:]:
        _same_time_base(cfs[name].times, times)
    win = _window_slice(times, window)
    t_win = times[win]
    v = np.stack([cfs[name].values[win] for name in labels])
    if t_win.size < 2:  # every pair has too few samples: the first one raises
        coherency_distance(CfSeries(t_win, v[0] - v[1]), *window)
    w = _trapezoid_weights(t_win)
    d = np.zeros((len(labels), len(labels)))
    for i in range(len(labels) - 1):
        eps = v[i] - v[i + 1 :]
        row = _integrate(np.abs(eps), w)
        for j in np.flatnonzero(np.isnan(row)):  # pairs with NaN samples in the window
            row[j] = coherency_distance(CfSeries(t_win, eps[j]), *window)
        d[i, i + 1 :] = d[i + 1 :, i] = row
    return CoherencyDistanceMatrix(d, labels)


# ---------------------------------------------------------------------------
# Average-linkage clustering
# ---------------------------------------------------------------------------

@dataclass
class ClusterTree:
    """Agglomeration record.  Leaves are 0..n-1, named by `labels`; merge
    step k creates cluster id n+k from `left` and `right` at the stored
    height."""

    merges: list[tuple[int, int, float]]
    labels: list[str]

    def cut(self, k: int) -> list[set[str]]:
        """Partition into k groups of labels by undoing the last merges,
        ordered by the smallest leaf index in each group."""
        n = len(self.labels)
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}]")
        members: dict[int, set[int]] = {i: {i} for i in range(n)}
        for step, (left, right, _) in enumerate(self.merges[: n - k]):
            members[n + step] = members.pop(left) | members.pop(right)
        return [{self.labels[i] for i in g} for g in sorted(members.values(), key=min)]


def upgma_tree(matrix: CoherencyDistanceMatrix) -> ClusterTree:
    """Unweighted average linkage: repeatedly merge the cluster pair with the
    smallest mean pairwise distance.

    Cluster distances live in one (2n-1)² matrix and follow the
    Lance–Williams update d(k, i∪j) = (|i|·d(k,i) + |j|·d(k,j)) / (|i|+|j|).
    Each live cluster caches its nearest cluster among the larger ids, so a
    merge rescans only the rows whose cached partner it consumed: O(n²)
    overall.  Ties break on the lexicographically smallest pair of cluster
    ids, so the result is identical across platforms and device orderings
    with equal labels.
    """
    n = matrix.values.shape[0]
    size = 2 * n - 1
    d = np.full((size, size), np.inf)  # inf marks merged and unborn clusters
    d[:n, :n] = matrix.values
    count = np.zeros(size, dtype=int)  # leaves per live cluster, 0 once merged
    count[:n] = 1
    # each live cluster's nearest cluster among the larger ids; -1 for none yet
    near = np.full(size, -1)
    near_d = np.full(size, np.inf)

    def rescan(k: int) -> None:
        j = k + 1 + int(np.argmin(d[k, k + 1 :]))  # first of equal minima
        near[k], near_d[k] = j, d[k, j]

    for k in range(n - 1):
        rescan(k)
    merges: list[tuple[int, int, float]] = []
    for new in range(n, size):
        ca = int(np.argmin(near_d))  # first row with the smallest distance
        cb = int(near[ca])
        merges.append((ca, cb, float(near_d[ca])))
        row = (count[ca] * d[ca] + count[cb] * d[cb]) / (count[ca] + count[cb])
        row[[ca, cb]] = np.inf
        d[:, [ca, cb]] = np.inf
        d[new] = d[:, new] = row
        count[new] = count[ca] + count[cb]
        count[[ca, cb]] = 0
        near_d[[ca, cb]] = np.inf
        stale = np.flatnonzero(((near == ca) | (near == cb)) & (count > 0))
        # the new id is the largest, so on a tie the cached partner stays
        closer = row < near_d
        near[closer], near_d[closer] = new, row[closer]
        for k in stale:
            rescan(k)
    return ClusterTree(merges, list(matrix.labels))


# ---------------------------------------------------------------------------
# Observer independence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservationPoint:
    """Direction to observe power in: from `bus` either towards a neighbour
    bus (branch) or into a shunt device's draw."""

    bus: int
    towards_bus: int | None = None
    device: str | None = None

    def __post_init__(self):
        if (self.towards_bus is None) == (self.device is None):
            raise ValueError("specify exactly one of towards_bus / device")


def default_window(traj: Trajectory) -> tuple[float, float]:
    """Analysis window: a few samples past the last event, through the end."""
    t_last = max(traj.event_times) if traj.event_times else 0.0
    return t_last + WINDOW_START_SAMPLES * traj.dt, float(traj.times[-1])


def observer_independence_check(
    traj: Trajectory,
    network: Network,
    d1: str,
    d2: str,
    points: list[ObservationPoint],
    window: tuple[float, float] | None = None,
) -> float:
    """Verify the coherency function is observer-independent.

    For every observation point, the per-device power contributions are
    differentiated numerically and their CF difference is compared against
    the recorded device-current CF difference; returns the worst absolute
    deviation over valid samples in the window.
    """
    if not points:
        raise ValueError("need at least one observation point")
    z = network.impedance()
    if window is None:
        window = default_window(traj)
    eps_direct = coherency_function(device_cf(traj, d1), device_cf(traj, d2))
    b1 = traj.device_buses[traj.device_index(d1)]
    b2 = traj.device_buses[traj.device_index(d2)]
    valid = estimator_valid(traj)

    worst = 0.0
    for pt in points:
        if pt.towards_bus is not None:
            dir_current = network.branch_current(pt.bus, pt.towards_bus, traj.voltages)
        else:
            dir_current = -traj.device_current(pt.device)
        s1 = power_contribution(dir_current, z[pt.bus, b1], traj.device_current(d1))
        s2 = power_contribution(dir_current, z[pt.bus, b2], traj.device_current(d2))
        cf_s1 = numerical_cf(s1, traj.dt, traj.omega_base)
        cf_s2 = numerical_cf(s2, traj.dt, traj.omega_base)
        eps_obs = np.where(valid, cf_s1.values - cf_s2.values, UNDEFINED_CF)
        dev = coherency_function(CfSeries(traj.times, eps_obs), eps_direct)
        win = _window_slice(dev.times, window)
        sel = dev.valid[win]
        if not np.any(sel):
            raise EmptyWindow("no valid samples in the observation window")
        worst = max(worst, float(np.max(np.abs(dev.values[win][sel]))))
    return worst


# ---------------------------------------------------------------------------
# Two-machine sweep
# ---------------------------------------------------------------------------

def _machine_pair(scenario: Scenario) -> tuple[SynchronousMachine, SynchronousMachine]:
    """The two synchronous machines of a sweep template, in scenario order;
    raises `ValueError` unless there are exactly two on a single-bus grid."""
    machines = [d for d in scenario.devices if d.kind == "sm"]
    if len(machines) != 2 or scenario.network.n_bus != 1:
        raise ValueError("the sweep needs two synchronous machines on a single-bus grid")
    return machines[0], machines[1]


def split_machines(scenario: Scenario, alpha: float, beta: float) -> Scenario:
    """The scenario with its two machines' total inertia and dispatch `p`
    split alpha : 1 - alpha and their total x'_d split beta : 1 - beta.

    Every other device and field is the scenario's own, and so is every
    other machine parameter (name, bus, damping, q_weight).
    Dispatch follows inertia, so the machines are coherent exactly on the
    line alpha = 1 - beta, where each machine's share of the inertia equals
    its share of the admittance 1/x'_d.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):  # NaN fails too
        raise ValueError("alpha and beta must lie strictly inside (0, 1)")
    first, second = _machine_pair(scenario)
    inertia = first.inertia + second.inertia
    xd_prime = first.xd_prime + second.xd_prime
    p = first.p + second.p
    split = {}
    for machine, a, b in ((first, alpha, beta), (second, 1.0 - alpha, 1.0 - beta)):
        new = copy.copy(machine)
        new.inertia, new.xd_prime, new.p = inertia * a, xd_prime * b, p * a
        split[machine.name] = new
    devices = [split.get(d.name, d) for d in scenario.devices]
    return dataclasses.replace(scenario, devices=devices)


def two_machine_distance(scenario: Scenario, alpha: float, beta: float) -> float:
    """∫|ε|dt between the two machines of `split_machines(scenario, alpha,
    beta)`, over the scenario's analysis window or else `default_window`."""
    traj = run(split_machines(scenario, alpha, beta))
    first, second = (machine.name for machine in _machine_pair(scenario))
    eps = coherency_function(device_cf(traj, first), device_cf(traj, second))
    return coherency_distance(eps, *(scenario.analysis.window or default_window(traj)))


def _sweep_cell(scenario: Scenario, alpha: float, beta: float) -> tuple[float, str]:
    """The cell's `two_machine_distance` and "", or NaN and the error it raised."""
    try:
        return two_machine_distance(scenario, alpha, beta), ""
    except Exception as exc:  # cell failures are recorded, not fatal
        return float("nan"), f"{type(exc).__name__}: {exc}"


@dataclass(eq=False)
class SweepResult:
    values: np.ndarray  # (n_alpha, n_beta), NaN where a cell failed
    failures: list[tuple[float, float, str]] = field(default_factory=list)


def alpha_beta_sweep(scenario: Scenario, alphas, betas, workers: int = 1) -> SweepResult:
    """`two_machine_distance` of the template `scenario` over an (alpha,
    beta) grid.

    The grid and the template are checked once, before any cell runs, and
    raise `ValueError`.  Cells are independent and may run in parallel;
    they are mapped in row-major grid order, which the results keep, so the
    output does not depend on scheduling.
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    grid = np.concatenate([alphas, betas])
    if not np.all((grid > 0.0) & (grid < 1.0)):  # NaN fails too
        raise ValueError("grid values must lie strictly inside (0, 1)")
    _machine_pair(scenario)
    cell_alphas = np.repeat(alphas, betas.size).tolist()
    cell_betas = np.tile(betas, alphas.size).tolist()
    cells = (itertools.repeat(scenario), cell_alphas, cell_betas)
    if workers > 1:
        # imported here: it loads multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, *cells))
    else:
        results = list(map(_sweep_cell, *cells))
    values = np.array([value for value, _ in results]).reshape(alphas.size, betas.size)
    failures = [(a, b, err) for a, b, (_, err) in zip(cell_alphas, cell_betas, results) if err]
    return SweepResult(values, failures)


def clustered_devices(kinds: dict[str, str], k: int, chosen: list[str] | None = None) -> list[str]:
    """The devices to cut into k groups: `chosen`, or else the sources
    (machines and converters) among the devices, given as {name: kind}, as
    loads are left out of a generator-coherency study.  Raises `ValueError`
    naming the first device of `chosen` that is not in `kinds` or is named
    twice, and then unless there are at least two and 1 <= k <= their
    number."""
    if chosen is None:
        chosen = [name for name, kind in kinds.items() if kind != "zip"]
    for i, name in enumerate(chosen):
        if name not in kinds:
            raise ValueError(f"unknown clustered device {name!r}")
        if name in chosen[:i]:
            raise ValueError(f"clustered device {name!r} named twice")
    if len(chosen) < 2 or not 1 <= k <= len(chosen):
        raise ValueError(f"cannot cut {len(chosen)} clustered device(s) into k={k} groups")
    return chosen


def cluster_trajectory(
    traj: Trajectory,
    k: int,
    device_names: list[str] | None = None,
    window: tuple[float, float] | None = None,
) -> tuple[CoherencyDistanceMatrix, ClusterTree, list[set[str]]]:
    """Distance matrix + UPGMA partition of a simulated run, of its
    `clustered_devices`, which are checked before any CF is read."""
    kinds = dict(zip(traj.device_names, traj.device_kinds))
    device_names = clustered_devices(kinds, k, device_names)
    if window is None:
        window = default_window(traj)
    cfs = {name: device_cf(traj, name) for name in device_names}
    matrix = distance_matrix(cfs, window)
    tree = upgma_tree(matrix)
    return matrix, tree, tree.cut(k)
