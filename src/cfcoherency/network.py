"""Grid topology, Y-bus / Z-bus matrices and per-device power contributions.

The network is algebraic (quasi-static phasors): branches are pi sections with
optional off-nominal turns ratio on the from side, loads and sources live
outside the matrix as shunt devices, so Ȳ only carries branch and fixed-shunt
terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisconnectedNetwork,
    NoSuchBranch,
    SingularAdmittance,
    ZeroImpedanceBranch,
)

# Ȳ is treated as singular below this 1/κ₁, where κ₁ = ‖Ȳ‖₁·‖Z̄‖₁ is the
# 1-norm condition number of the explicit inverse Z̄.
RCOND_LIMIT = 1e-12

# Maximum allowed element of |Ȳ·Z̄ - I|.
INVERSE_RESIDUAL_LIMIT = 1e-10

BUS_KINDS = ("slack", "generation", "load")


@dataclass(frozen=True)
class Bus:
    """Network node. `index` is the internal contiguous id (0..N-1); `label`
    preserves the dataset numbering used in scenario files."""

    index: int
    kind: str = "load"
    v_set: float = 1.0
    label: int | None = None

    def __post_init__(self):
        if self.kind not in BUS_KINDS:
            raise ValueError(f"unknown bus kind {self.kind!r}")
        if self.label is None:
            object.__setattr__(self, "label", self.index)


@dataclass(frozen=True)
class Branch:
    """Pi-section branch. `charging` is the total shunt susceptance, split
    half per end; `tap` is the off-nominal turns ratio at the from side.
    The endpoints are bus indices; the checks name them as they were given."""

    from_bus: int
    to_bus: int
    resistance: float
    reactance: float
    charging: float = 0.0
    tap: float = 1.0

    @property
    def series_impedance(self) -> complex:
        return complex(self.resistance, self.reactance)

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValueError(f"branch endpoints coincide at bus {self.from_bus}")
        if abs(self.series_impedance) == 0.0:
            raise ZeroImpedanceBranch(
                f"branch {self.from_bus}-{self.to_bus} has zero series impedance"
            )
        if self.tap <= 0.0:
            raise ValueError("tap ratio must be positive")


@dataclass(frozen=True)
class Shunt:
    bus: int
    conductance: float = 0.0
    susceptance: float = 0.0

    @property
    def admittance(self) -> complex:
        return complex(self.conductance, self.susceptance)


def build_admittance(
    buses: list[Bus], branches: list[Branch], shunts: list[Shunt] = ()
) -> np.ndarray:
    """Assemble the bus admittance matrix.

    Off-diagonals accumulate -y_series/tap per branch, diagonals the incident
    series terms plus half-charging per branch end plus fixed shunts.  Raises
    DisconnectedNetwork, naming the bus labels, unless the branch graph spans
    every bus.
    """
    n = len(buses)
    ids = sorted(b.index for b in buses)
    if ids != list(range(n)):
        raise ValueError("bus indices must be unique and contiguous from 0")
    labels = [b.label for b in sorted(buses, key=lambda b: b.index)]
    for br in branches:
        if not (0 <= br.from_bus < n and 0 <= br.to_bus < n):
            raise ValueError(f"branch {br.from_bus}-{br.to_bus} references a missing bus")
    for sh in shunts:
        if not 0 <= sh.bus < n:
            raise ValueError(f"shunt references missing bus {sh.bus}")
    _check_connected(labels, branches)

    y = np.zeros((n, n), dtype=complex)
    for br in branches:
        y_ff, y_ft, y_tf, y_tt = _branch_terms(br)
        f, t = br.from_bus, br.to_bus
        y[f, f] += y_ff
        y[f, t] += y_ft
        y[t, f] += y_tf
        y[t, t] += y_tt
    for sh in shunts:
        y[sh.bus, sh.bus] += sh.admittance
    return y


def _branch_terms(br: Branch) -> tuple[complex, complex, complex, complex]:
    y_s = 1.0 / br.series_impedance
    y_c = 0.5j * br.charging
    tap = br.tap
    return (y_s + y_c) / tap**2, -y_s / tap, -y_s / tap, y_s + y_c


def _check_connected(labels: list[int], branches) -> None:
    """Raise unless every bus is reachable from the bus with index 0;
    `labels` holds the label of each bus index."""
    n = len(labels)
    if n <= 1:
        return
    adj: list[list[int]] = [[] for _ in range(n)]
    for br in branches:
        adj[br.from_bus].append(br.to_bus)
        adj[br.to_bus].append(br.from_bus)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        h = stack.pop()
        for k in adj[h]:
            if not seen[k]:
                seen[k] = True
                stack.append(k)
    missing = [label for label, s in zip(labels, seen) if not s]
    if missing:
        raise DisconnectedNetwork(f"buses unreachable from bus {labels[0]}: {missing}")


def impedance_matrix(y: np.ndarray) -> np.ndarray:
    """Invert Ȳ, rejecting (numerically) singular matrices: a zero pivot,
    1/κ₁ < RCOND_LIMIT or max|Ȳ·Z̄ - I| >= INVERSE_RESIDUAL_LIMIT.

    The footnote case det(Ȳ)=0 is surfaced as SingularAdmittance rather than
    silently returning garbage; the coherency function itself stays usable,
    only the contribution-based observer checks need Z̄.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ValueError("admittance matrix must be square")
    try:
        z = np.linalg.inv(y)
        with np.errstate(all="ignore"):  # inf·0 where Ȳ holds an inf
            cond = np.linalg.norm(y, 1) * np.linalg.norm(z, 1)
    except np.linalg.LinAlgError:  # an exact zero pivot
        cond = np.inf
    if not np.isfinite(cond) or 1.0 / cond < RCOND_LIMIT:
        raise SingularAdmittance(
            f"reciprocal condition estimate {0.0 if not np.isfinite(cond) else 1.0 / cond:.2e} "
            f"below {RCOND_LIMIT:.0e}"
        )
    residual = np.max(np.abs(y @ z - np.eye(y.shape[0])))
    if residual >= INVERSE_RESIDUAL_LIMIT:
        raise SingularAdmittance(
            f"inverse residual {residual:.2e} exceeds {INVERSE_RESIDUAL_LIMIT:.0e}"
        )
    return z


def power_contribution(
    dir_current: complex | np.ndarray,
    z_observer_device: complex,
    device_current: complex | np.ndarray,
) -> complex | np.ndarray:
    """Share of the complex power flowing in an observed direction that is
    attributable to one device: conj(ı̄_dir) · z̄[h, b_d] · ı̄_d."""
    return np.conj(dir_current) * z_observer_device * device_current


@dataclass
class Network:
    """Immutable-after-construction container for the grid matrices."""

    buses: list[Bus]
    branches: list[Branch]
    shunts: list[Shunt] = field(default_factory=list)

    def __post_init__(self):
        self._y = build_admittance(self.buses, self.branches, self.shunts)
        self._z: np.ndarray | None = None
        # each ordered bus pair (h, j) that a branch joins: the terms (y_hh,
        # y_hj) of the current leaving h towards j, summed in branch order
        self._pair_terms: dict[tuple[int, int], tuple[complex, complex]] = {}
        for br in self.branches:
            y_ff, y_ft, y_tf, y_tt = _branch_terms(br)
            for pair, y_hh, y_hj in (((br.from_bus, br.to_bus), y_ff, y_ft),
                                     ((br.to_bus, br.from_bus), y_tt, y_tf)):
                sum_hh, sum_hj = self._pair_terms.get(pair, (0j, 0j))
                self._pair_terms[pair] = (sum_hh + y_hh, sum_hj + y_hj)

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def admittance(self) -> np.ndarray:
        return self._y

    def impedance(self) -> np.ndarray:
        if self._z is None:
            self._z = impedance_matrix(self._y)
        return self._z

    def has_branch(self, h: int, j: int) -> bool:
        return (h, j) in self._pair_terms

    def branch_current(self, h: int, j: int, bus_voltages: np.ndarray) -> complex | np.ndarray:
        """Current leaving bus h into the branch(es) towards bus j.

        Includes the h-side half charging; for tap branches the exact
        y_ff/y_ft terms of the pi model are used.  `bus_voltages` may be a
        single voltage vector or a (samples, n_bus) trajectory.
        """
        if not self.has_branch(h, j):
            raise NoSuchBranch(f"no branch between buses {h} and {j}")
        y_hh, y_hj = self._pair_terms[h, j]
        v = np.asarray(bus_voltages, dtype=complex)
        return y_hh * v[..., h] + y_hj * v[..., j]
