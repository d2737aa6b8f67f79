"""CF estimation from sampled trajectories, the coherency function, the
integral distance metric, average-linkage grouping, observer-independence
verification, and the two-machine parameter sweep."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .devices import SynchronousMachine, ZipLoad
from .errors import EmptyWindow, MagnitudeUnderflow, TimeBaseMismatch
from .network import Bus, Network, power_contribution
from .primitives import MAGNITUDE_GUARD, unwrap_phase
from .simulation import EVENT_MASK_PAD, AnalysisOptions, Event, Scenario, Trajectory, run

# The distance window opens this many samples after the last event.
WINDOW_START_SAMPLES = 5

WINDOW_TOL = 1e-12  # s; a window holds samples this close outside it, as k·dt is off by ulps


@dataclass
class CfSeries:
    """Sampled complex-frequency trajectory with a validity mask."""

    times: np.ndarray
    values: np.ndarray  # complex, rho + j*omega in pu
    valid: np.ndarray  # bool, False where estimates are untrustworthy

    def __post_init__(self):
        if not (self.times.shape == self.values.shape == self.valid.shape):
            raise ValueError("times, values and valid must share one shape")


def numerical_cf(samples, dt: float, omega_base: float) -> CfSeries:
    """Finite-difference CF estimate of a sampled Clarke vector.

    Second-order stencils throughout: 3-point central differences inside,
    3-point one-sided at both ends.  The radial part differentiates
    log-magnitude, the rotational part the unwrapped phase; both are
    normalized by `omega_base`.
    """
    x = np.asarray(samples, dtype=complex)
    if x.ndim != 1 or x.size < 3:
        raise ValueError("need a 1-D series with at least 3 samples")
    mags = np.abs(x)
    if np.min(mags) <= MAGNITUDE_GUARD:
        raise MagnitudeUnderflow(
            f"series magnitude dips to {np.min(mags):.3e}, below the guard"
        )
    log_mag = np.log(mags)
    phase = unwrap_phase(np.angle(x))

    def diff(y: np.ndarray) -> np.ndarray:
        d = np.empty_like(y)
        d[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
        d[0] = (-1.5 * y[0] + 2.0 * y[1] - 0.5 * y[2]) / dt
        d[-1] = (1.5 * y[-1] - 2.0 * y[-2] + 0.5 * y[-3]) / dt
        return d

    values = (diff(log_mag) + 1j * diff(phase)) / omega_base
    times = np.arange(x.size) * dt
    return CfSeries(times, values, np.ones(x.size, dtype=bool))


def device_cf_numerical(traj: Trajectory, name: str, pad: int = EVENT_MASK_PAD) -> CfSeries:
    """Estimator CF of a device's injected current, shifted to the stationary
    frame and masked around events."""
    series = numerical_cf(traj.device_current(name), traj.dt, traj.omega_base)
    return CfSeries(traj.times, series.values + 1j, series.valid & traj.estimator_valid(pad))


def device_cf(traj: Trajectory, name: str) -> CfSeries:
    """Stationary-frame CF of a device's current, as `run` recorded it in
    closed form, valid wherever it is defined (not NaN, which it is where a
    load draws no current); shares the trajectory's arrays, since no
    CfSeries is ever written to."""
    values = traj.analytic_cf[name]
    return CfSeries(traj.times, values, ~np.isnan(values))


def coherency_function(eta1: CfSeries, eta2: CfSeries) -> CfSeries:
    """Instantaneous coherency function: sample-wise CF difference."""
    if eta1.times.shape != eta2.times.shape or not np.allclose(
        eta1.times, eta2.times, rtol=0.0, atol=1e-12
    ):
        raise TimeBaseMismatch("CF series are sampled on different time bases")
    return CfSeries(eta1.times.copy(), eta1.values - eta2.values, eta1.valid & eta2.valid)


def _window_slice(times: np.ndarray, window: tuple[float, float]) -> slice:
    """The samples of the ascending `times` inside the window, ± `WINDOW_TOL`."""
    lo = np.searchsorted(times, window[0] - WINDOW_TOL, side="left")
    hi = np.searchsorted(times, window[1] + WINDOW_TOL, side="right")
    return slice(lo, hi)


def coherency_distance(eps: CfSeries, t_start: float, t_end: float) -> float:
    """Time integral of |ε| over the valid samples inside [t_start, t_end]."""
    win = _window_slice(eps.times, (t_start, t_end))
    sel = eps.valid[win]
    n = int(np.count_nonzero(sel))
    if n < 2:
        raise EmptyWindow(
            f"window [{t_start}, {t_end}] holds {n} usable sample(s); need at least 2"
        )
    return float(np.trapezoid(np.abs(eps.values[win][sel]), eps.times[win][sel]))


@dataclass
class CoherencyDistanceMatrix:
    values: np.ndarray  # (n, n) symmetric, zero diagonal
    labels: list[str]

    def __post_init__(self):
        v = self.values
        if v.shape != (len(self.labels), len(self.labels)):
            raise ValueError("matrix shape does not match labels")

    def pair(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def distance_matrix(
    cfs: dict[str, CfSeries], window: tuple[float, float], component: str = "full"
) -> CoherencyDistanceMatrix:
    """Pairwise ∫|ε|dt over the window.

    `component` selects what is integrated: the full complex ε ("full") or a
    single part ("rho" / "omega").  The series are grouped by their validity
    mask inside the window, so each pair of groups integrates over one joint
    set of samples; each row is integrated against the rest of its partner
    group in one call.
    """
    labels = list(cfs.keys())
    if len(labels) < 2:
        raise ValueError("need at least two devices")
    if component not in ("full", "rho", "omega"):
        raise ValueError(f"unknown component {component!r}")
    times = cfs[labels[0]].times
    for name in labels[1:]:
        other = cfs[name].times
        if other.shape != times.shape or not np.allclose(other, times, rtol=0.0, atol=1e-12):
            raise TimeBaseMismatch("CF series are sampled on different time bases")
    t_start, t_end = window
    win = _window_slice(times, window)
    t_win = times[win]

    members: dict[bytes, list[int]] = {}  # window mask -> rows, in label order
    for i, name in enumerate(labels):
        members.setdefault(cfs[name].valid[win].tobytes(), []).append(i)
    groups = list(members.values())
    masks = [cfs[labels[rows[0]]].valid[win] for rows in groups]
    # stacked group by group, so the rows of one group are one contiguous block
    v = np.stack([cfs[labels[i]].values[win] for rows in groups for i in rows])
    if component == "rho":
        v = v.real
    elif component == "omega":
        v = v.imag
    first = np.cumsum([0] + [len(rows) for rows in groups])

    n = len(labels)
    d = np.zeros((n, n))
    for g, rows_g in enumerate(groups):
        for h in range(g, len(groups)):
            rows_h = groups[h]
            if g == h and len(rows_g) < 2:
                continue
            joint = masks[g] & masks[h]
            count = int(np.count_nonzero(joint))
            if count < 2:
                raise EmptyWindow(
                    f"window [{t_start}, {t_end}] holds {count} usable sample(s); need at least 2"
                )
            cols = slice(None) if count == joint.size else joint
            t = t_win[cols]
            vg = v[first[g] : first[g + 1], cols]
            vh = v[first[h] : first[h + 1], cols]
            for i, a in enumerate(rows_g):
                rest = i + 1 if g == h else 0  # each pair of one group once
                if rest == len(rows_h):
                    continue
                row = np.trapezoid(np.abs(vg[i] - vh[rest:]), t, axis=-1)
                d[a, rows_h[rest:]] = d[rows_h[rest:], a] = row
    return CoherencyDistanceMatrix(d, labels)


# ---------------------------------------------------------------------------
# Average-linkage clustering
# ---------------------------------------------------------------------------

@dataclass
class ClusterTree:
    """Agglomeration record.  Leaves are 0..n-1, named by `labels`; merge
    step k creates cluster id n+k from `left` and `right` at the stored
    height."""

    n_leaves: int
    merges: list[tuple[int, int, float]]
    labels: list[str]

    def cut(self, k: int) -> list[set[str]]:
        """Partition into k groups of labels by undoing the last merges,
        ordered by the smallest leaf index in each group."""
        if not 1 <= k <= self.n_leaves:
            raise ValueError(f"k must be in [1, {self.n_leaves}]")
        members: dict[int, set[int]] = {i: {i} for i in range(self.n_leaves)}
        for step, (left, right, _) in enumerate(self.merges[: self.n_leaves - k]):
            members[self.n_leaves + step] = members.pop(left) | members.pop(right)
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
    return ClusterTree(n, merges, list(matrix.labels))


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
        eps_obs = CfSeries(
            traj.times.copy(),
            cf_s1.values - cf_s2.values,
            cf_s1.valid & cf_s2.valid & traj.estimator_valid(),
        )
        dev = coherency_function(eps_obs, eps_direct)
        win = _window_slice(dev.times, window)
        sel = dev.valid[win]
        if not np.any(sel):
            raise EmptyWindow("no valid samples in the observation window")
        worst = max(worst, float(np.max(np.abs(dev.values[win][sel]))))
    return worst


# ---------------------------------------------------------------------------
# Two-machine sweep
# ---------------------------------------------------------------------------

TWO_MACHINE_TOTAL_INERTIA = 10.0  # s
TWO_MACHINE_TOTAL_REACTANCE = 0.1  # pu
TWO_MACHINE_TOTAL_CURRENT = 1.0  # pu


def build_two_machine_scenario(
    alpha: float,
    beta: float,
    t_end: float = 3.0,
    dt: float = 1e-3,
    omega_base: float = 2.0 * np.pi * 60.0,
    pulse_time: float = 1.0,
    pulse_duration: float = 0.01,
    pulse_factor: float = 1.1,
    load_power_factor: float = 0.9,
) -> Scenario:
    """Single node with two classical machines and an impedance load.

    alpha splits the total inertia, beta the total reactance; dispatch is
    proportional to inertia, so the initial current magnitudes also split as
    alpha (the load draws 1 pu apparent power at 1 pu voltage).  The load
    pulse perturbs the node and is removed to restore the pre-event
    condition.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("alpha and beta must lie strictly inside (0, 1)")
    net = Network([Bus(0, kind="slack", v_set=1.0, label=1)], [])
    m1 = TWO_MACHINE_TOTAL_INERTIA * alpha
    m2 = TWO_MACHINE_TOTAL_INERTIA * (1.0 - alpha)
    x1 = TWO_MACHINE_TOTAL_REACTANCE * beta
    x2 = TWO_MACHINE_TOTAL_REACTANCE * (1.0 - beta)
    p_load = TWO_MACHINE_TOTAL_CURRENT * load_power_factor
    q_load = TWO_MACHINE_TOTAL_CURRENT * float(np.sqrt(1.0 - load_power_factor**2))
    devices = [
        SynchronousMachine("SM1", 0, inertia=m1, xd_prime=x1, omega_base=omega_base, p=alpha),
        SynchronousMachine(
            "SM2", 0, inertia=m2, xd_prime=x2, omega_base=omega_base, p=1.0 - alpha
        ),
        ZipLoad("LOAD", 0, p0=p_load, q0=q_load),
    ]
    events = [
        Event(pulse_time, "load_scale", bus=0, factor=pulse_factor),
        Event(pulse_time + pulse_duration, "load_scale", bus=0, factor=1.0 / pulse_factor),
    ]
    return Scenario(
        network=net,
        devices=devices,
        events=events,
        t_end=t_end,
        dt=dt,
        omega_base=omega_base,
        analysis=AnalysisOptions(k_clusters=2, cluster_devices=["SM1", "SM2"]),
    )


def two_machine_distance(
    alpha: float, beta: float, t_end: float = 3.0, dt: float = 1e-3
) -> float:
    """∫|ε|dt between the two machines for one (alpha, beta) cell."""
    scenario = build_two_machine_scenario(alpha, beta, t_end=t_end, dt=dt)
    traj = run(scenario)
    eps = coherency_function(device_cf(traj, "SM1"), device_cf(traj, "SM2"))
    return coherency_distance(eps, *default_window(traj))


def _sweep_cell(cell: tuple[int, int, float, float, float, float]):
    ia, ib, alpha, beta, t_end, dt = cell
    try:
        return ia, ib, two_machine_distance(alpha, beta, t_end=t_end, dt=dt), ""
    except Exception as exc:  # cell failures are recorded, not fatal
        return ia, ib, float("nan"), f"{type(exc).__name__}: {exc}"


@dataclass
class SweepResult:
    alphas: np.ndarray
    betas: np.ndarray
    values: np.ndarray  # (n_alpha, n_beta), NaN where a cell failed
    failures: list[tuple[float, float, str]] = field(default_factory=list)


def alpha_beta_sweep(
    alphas,
    betas,
    t_end: float = 3.0,
    dt: float = 1e-3,
    workers: int = 1,
) -> SweepResult:
    """Coherency distance over an (alpha, beta) grid.

    Cells are independent and may run in parallel; results are merged by
    index so the output does not depend on scheduling.
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    grid = np.concatenate([alphas, betas])
    if not np.all((grid > 0.0) & (grid < 1.0)):  # NaN fails too
        raise ValueError("grid values must lie strictly inside (0, 1)")
    cells = [
        (ia, ib, float(a), float(b), t_end, dt)
        for ia, a in enumerate(alphas)
        for ib, b in enumerate(betas)
    ]
    values = np.full((alphas.size, betas.size), np.nan)
    failures: list[tuple[float, float, str]] = []
    if workers > 1:
        # imported here: it loads multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(c) for c in cells]
    for ia, ib, value, err in results:
        values[ia, ib] = value
        if err:
            failures.append((float(alphas[ia]), float(betas[ib]), err))
    return SweepResult(alphas, betas, values, failures)


def source_devices(names: list[str], kinds: list[str]) -> list[str]:
    """The sources (machines and converters) among the devices; loads are
    left out just like in a generator-coherency study."""
    return [name for name, kind in zip(names, kinds) if kind != "zip"]


def cluster_trajectory(
    traj: Trajectory,
    k: int,
    device_names: list[str] | None = None,
    window: tuple[float, float] | None = None,
) -> tuple[CoherencyDistanceMatrix, ClusterTree, list[set[str]]]:
    """Distance matrix + UPGMA partition of a simulated run; by default of
    its sources."""
    if device_names is None:
        device_names = source_devices(traj.device_names, traj.device_kinds)
    if window is None:
        window = default_window(traj)
    cfs = {name: device_cf(traj, name) for name in device_names}
    matrix = distance_matrix(cfs, window)
    tree = upgma_tree(matrix)
    return matrix, tree, tree.cut(k)
