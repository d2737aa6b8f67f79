"""Steady-state initialization and time-domain DAE integration.

The network is algebraic, devices carry the dynamics.  Integration is
simultaneous implicit trapezoidal: one Newton iteration solves the
discretized device ODEs together with the bus current balance.  Discrete
events snap to step boundaries; the algebraic variables are re-solved right
after each event before integration resumes.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field

import numpy as np

from .devices import Device, DeviceBlock, ZipBlock
from .errors import InfeasibleInit, NewtonDivergence, NonConvergence
from .network import Network

log = logging.getLogger(__name__)

# each event action and the field that holds its value
EVENT_ACTIONS = {"load_scale": "factor", "load_disconnect_mw": "amount", "set_parameter": "value"}

POWER_FLOW_TOL = 1e-10  # largest P/Q mismatch accepted, pu
POWER_FLOW_MAX_ITER = 50
NEWTON_MAX_ITER = 25  # per integration step
NEWTON_REFRESH_ITER = 8  # rebuild the chord matrix at this iteration of a step
MAX_HALVINGS = 4  # nested step halvings before a divergence is reported
ALGEBRAIC_MAX_ITER = 50  # post-event re-solve of the bus equations


@dataclass
class Event:
    """Discrete change applied at a step boundary."""

    time: float
    action: str
    bus: int | None = None
    factor: float | None = None
    amount: float | None = None
    device: str | None = None
    param: str | None = None
    value: float | None = None

    def __post_init__(self):
        if self.action not in EVENT_ACTIONS:
            raise ValueError(f"unknown event action {self.action!r}")
        field_name = EVENT_ACTIONS[self.action]
        value = getattr(self, field_name)
        if not (isinstance(value, numbers.Real) and np.isfinite(value)):
            raise ValueError(f"{self}: {field_name} must be a finite number, got {value!r}")

    def __str__(self):
        return f"{self.action} event at t={self.time:g}"


@dataclass
class AnalysisOptions:
    window: tuple[float, float] | None = None
    k_clusters: int = 4
    observation_points: list = field(default_factory=list)
    cluster_devices: list[str] | None = None


@dataclass
class Scenario:
    network: Network
    devices: list[Device]
    events: list[Event] = field(default_factory=list)
    t_end: float = 10.0
    dt: float = 1e-3
    tolerance: float = 1e-8
    omega_base: float = 2.0 * np.pi * 60.0
    s_base: float = 100.0
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)

    def __post_init__(self):
        if not (0.0 < self.dt < np.inf and 0.0 < self.t_end < np.inf):
            raise ValueError("dt and t_end must be positive and finite")
        for ev in self.events:
            if not 0.0 <= ev.time <= self.t_end:
                raise ValueError(f"event at t={ev.time} outside [0, {self.t_end}]")
        window = self.analysis.window
        if window is not None and window[1] > self.t_end:
            raise ValueError(
                f"analysis window [{window[0]:g}, {window[1]:g}] ends after t_end {self.t_end:g}"
            )
        self._check_references()

    def _check_references(self) -> None:
        """Device names are unique and every event's device or load bus
        exists.  The load changes are replayed in the order `run` applies
        them, so that no disconnect takes more load than is left at its bus."""
        by_name = {d.name: d for d in self.devices}
        if len(by_name) != len(self.devices):
            raise ValueError("device names must be unique")
        labels = {b.index: b.label for b in self.network.buses}
        load_p: dict[int, np.ndarray] = {}  # active power of each load, per bus
        for d in self.devices:
            if d.is_load:
                load_p[d.bus] = np.append(load_p.get(d.bus, []), d.p0)
        for _, ev in self.scheduled_events():
            if ev.action == "set_parameter":
                dev = by_name.get(ev.device)
                if dev is None:
                    raise ValueError(f"{ev}: unknown device {ev.device!r}")
                if ev.param not in dev.settable_params:
                    raise ValueError(f"{ev}: {dev.name!r} has no settable parameter {ev.param!r}")
                continue
            p = load_p.get(ev.bus)
            bus = labels.get(ev.bus, ev.bus)
            if p is None:
                raise ValueError(f"{ev}: no load at bus {bus}")
            factor = ev.factor
            if ev.action == "load_disconnect_mw":
                total = p.sum()
                if total <= 0.0 or (factor := 1.0 - (ev.amount / self.s_base) / total) < 0.0:
                    raise ValueError(
                        f"{ev}: cannot disconnect {ev.amount:g} MW from the "
                        f"{total * self.s_base:.1f} MW left at bus {bus}"
                    )
            p *= factor

    @property
    def n_steps(self) -> int:
        """Steps of length dt that cover t_end."""
        n = int(round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > 1e-9:
            n = int(np.ceil(self.t_end / self.dt - 1e-12))
        return n

    def scheduled_events(self) -> list[tuple[int, Event]]:
        """(step, event) in the order `run` applies them: by the step the
        event snaps to, then as listed."""
        n = self.n_steps
        steps = [min(max(int(round(ev.time / self.dt)), 0), n) for ev in self.events]
        return sorted(zip(steps, self.events), key=lambda pair: pair[0])

    def device(self, name: str) -> Device:
        for d in self.devices:
            if d.name == name:
                return d
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Power flow
# ---------------------------------------------------------------------------

@dataclass
class PowerFlowResult:
    voltages: np.ndarray  # complex per bus
    bus_injection: np.ndarray  # complex net S at every bus
    iterations: int
    mismatch: float


def power_flow(scenario: Scenario) -> PowerFlowResult:
    """Newton-Raphson power flow in polar coordinates.

    Loads enter as constant-power draws (ZIP bases are rebased afterwards at
    the solved voltage), generator buses hold their voltage setpoints.
    """
    net = scenario.network
    n = net.n_bus
    y = net.admittance()

    kinds = [b.kind for b in net.buses]
    slack = [i for i, k in enumerate(kinds) if k == "slack"]
    if len(slack) != 1:
        raise NonConvergence(f"need exactly one slack bus, found {len(slack)}")
    pv = [i for i, k in enumerate(kinds) if k == "generation"]
    pq = [i for i, k in enumerate(kinds) if k == "load"]

    p_spec = np.zeros(n)
    q_spec = np.zeros(n)
    for d in scenario.devices:
        if d.is_load:
            p_spec[d.bus] -= d.p0
            q_spec[d.bus] -= d.q0
        else:
            p_spec[d.bus] += d.p

    v_mag = np.ones(n)
    for b in net.buses:
        if b.kind != "load":
            v_mag[b.index] = b.v_set
    v_ang = np.zeros(n)

    pvpq = pv + pq
    it = 0
    mismatch = np.inf
    while True:
        v = v_mag * np.exp(1j * v_ang)
        s_calc = v * np.conj(y @ v)
        dp = s_calc.real - p_spec
        dq = s_calc.imag - q_spec
        f = np.concatenate([dp[pvpq], dq[pq]])
        mismatch = np.max(np.abs(f)) if f.size else 0.0
        if mismatch < POWER_FLOW_TOL:
            break
        if it >= POWER_FLOW_MAX_ITER:
            raise NonConvergence(
                f"power flow: mismatch {mismatch:.3e} after {POWER_FLOW_MAX_ITER} iterations"
            )
        # Standard complex-matrix power-injection derivatives.
        ibus = y @ v
        diag_v = np.diag(v)
        diag_i = np.diag(ibus)
        diag_e = np.diag(v / v_mag)
        ds_dva = 1j * diag_v @ np.conj(diag_i - y @ diag_v)
        ds_dvm = diag_v @ np.conj(y @ diag_e) + np.conj(diag_i) @ diag_e

        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"power flow: singular Jacobian ({exc})") from exc
        n_a = len(pvpq)
        v_ang[pvpq] += dx[:n_a]
        v_mag[pq] += dx[n_a:]
        it += 1

    v = v_mag * np.exp(1j * v_ang)
    return PowerFlowResult(v, v * np.conj(y @ v), it, float(mismatch))


# ---------------------------------------------------------------------------
# Device/network coupling
# ---------------------------------------------------------------------------

class DaeSystem:
    """All device states coupled through the bus equations.

    Devices are grouped by kind into blocks (`Device.block`), and each
    system-level evaluation makes one call per block.  The blocks hold the
    parameters; the devices are read only while the blocks are built.  The
    state vector holds the blocks one after another, so a block's states are
    one contiguous (n, n_states) view; `slices` still maps each device to its
    states.  Block results reach the buses through the bus/device
    `incidence` matrix, whose columns follow the block order `order` (device
    indices; `members` splits it by block).
    """

    def __init__(self, network: Network, devices: list[Device], omega_base: float):
        self.network = network
        self.omega_base = omega_base
        self.y = network.admittance()
        self.n_bus = network.n_bus
        members: dict[type, list[int]] = {}
        for idx, d in enumerate(devices):
            members.setdefault(d.block, []).append(idx)
        self.blocks: list[DeviceBlock] = []
        self.slices: list[slice] = [slice(0, 0)] * len(devices)
        off = 0
        for block, idxs in members.items():
            blk = block([devices[i] for i in idxs], off)
            for j, i in enumerate(idxs):
                self.slices[i] = slice(off + j * blk.n_states, off + (j + 1) * blk.n_states)
            off = blk.states.stop
            self.blocks.append(blk)
        self.dynamic = [blk for blk in self.blocks if blk.n_states]
        self.members = list(members.values())
        self.order = np.array([i for idxs in self.members for i in idxs], dtype=int)
        self.incidence = np.zeros((self.n_bus, len(devices)), dtype=complex)
        self.incidence[[devices[i].bus for i in self.order], np.arange(len(devices))] = 1.0
        # the columns of the devices with states, which alone have state-driven currents
        self._dynamic_incidence = self.incidence[:, [devices[i].n_states > 0 for i in self.order]]
        self.n_states = off
        self.n_vars = off + 2 * self.n_bus
        self.derive()

    def derive(self) -> None:
        """Re-derive the blocks' dependent values and drop the kept inverse of
        the voltage Jacobian; needed after initialization and every event."""
        for blk in self.blocks:
            blk.derive()
        self.voltage_dependent = any(blk.voltage_dependent for blk in self.blocks)
        self._jv_inv: np.ndarray | None = None

    def row(self, name: str) -> tuple[DeviceBlock, int]:
        """The block that holds device `name`, and its row there."""
        for blk in self.blocks:
            if name in blk.names:
                return blk, blk.names.index(name)
        raise KeyError(name)

    def _local(self, blk: DeviceBlock, x: np.ndarray, v: np.ndarray):
        """The block's states as (n, n_states) and its terminal voltages."""
        return x[blk.states].reshape(blk.n, blk.n_states), v[blk.bus]

    def _to_bus(self, parts: list[np.ndarray], incidence: np.ndarray | None = None) -> np.ndarray:
        """Sum per-device values given in block order onto their buses."""
        if not parts:
            return np.zeros(self.n_bus, dtype=complex)
        return (self.incidence if incidence is None else incidence) @ np.concatenate(parts)

    def derivatives(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty(self.n_states)
        for blk in self.dynamic:
            out[blk.states] = blk.derivatives(*self._local(blk, x, v)).ravel()
        return out

    def device_currents(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Current injected by every device, in block order."""
        return np.concatenate(
            [blk.injected_current(*self._local(blk, x, v)) for blk in self.blocks]
        )

    def injections(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._to_bus(
            [blk.injected_current(*self._local(blk, x, v)) for blk in self.blocks]
        )

    def network_residual(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.injections(x, v) - self.y @ v

    def voltage_jacobian(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """∂(ı - Ȳv)/∂(Re v, Im v) at fixed states, with rows and columns
        interleaved per bus as (Re, Im).  Each device contributes its
        closed-form dı = a·dv̄ + b·dv̄* to the diagonal of its bus."""
        ab = [blk.voltage_sensitivity(*self._local(blk, x, v)) for blk in self.blocks]
        a_bus = self._to_bus([a for a, _ in ab])
        b_bus = self._to_bus([b for _, b in ab])
        m = np.diag(a_bus) - self.y
        jac = np.empty((2 * self.n_bus, 2 * self.n_bus))
        jac[0::2, 0::2] = m.real + np.diag(b_bus.real)
        jac[0::2, 1::2] = np.diag(b_bus.imag) - m.imag
        jac[1::2, 0::2] = m.imag + np.diag(b_bus.imag)
        jac[1::2, 1::2] = m.real - np.diag(b_bus.real)
        return jac

    def solve_voltage(self, x: np.ndarray, v: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """dv with voltage_jacobian(x, v)·dv = rhs, for complex bus vectors.

        When no block's sensitivity depends on the voltage, the Jacobian
        changes only with the parameters, so its inverse is kept until the
        next `derive`; otherwise it is assembled and solved anew."""
        if self._jv_inv is None:
            jac = self.voltage_jacobian(x, v)
            if self.voltage_dependent:
                return np.linalg.solve(jac, rhs.view(float)).view(complex)
            self._jv_inv = np.linalg.inv(jac)
        return (self._jv_inv @ rhs.view(float)).view(complex)

    def voltage_rates(self, x: np.ndarray, v: np.ndarray, xdot: np.ndarray) -> np.ndarray:
        """Exact bus-voltage time derivatives by implicit differentiation of
        the current balance ı(x, v) = Ȳv: J_v·v̇ = -Σ state-driven current rates."""
        rates = []
        for blk in self.dynamic:
            xb, vb = self._local(blk, x, v)
            rates.append(blk.current_state_rate(xb, xdot[blk.states].reshape(xb.shape), vb))
        return self.solve_voltage(x, v, -self._to_bus(rates, self._dynamic_incidence))

    def analytic_cf(
        self, x: np.ndarray, xdot: np.ndarray, v: np.ndarray, eta_v: np.ndarray
    ) -> np.ndarray:
        """Closed-form current CF of every device, in block order; NaN for a
        device without one."""
        out = []
        for blk in self.blocks:
            xb, vb = self._local(blk, x, v)
            out.append(
                blk.analytic_cf(xb, xdot[blk.states].reshape(xb.shape), vb, eta_v[blk.bus])
            )
        return np.concatenate(out)

    def voltage_cf(self, v: np.ndarray, vdot: np.ndarray) -> np.ndarray:
        """Stationary-frame CF of every bus voltage, per unit."""
        return vdot / v / self.omega_base + 1j


FD_STEP = 1e-7


def _fd_sensitivities(blk: DeviceBlock, xb: np.ndarray, vb: np.ndarray):
    """Forward differences of a block's state derivatives by each device's own
    states, (n, n_states, n_states), and terminal voltage (Re, Im), (n,
    n_states, 2); one block call per perturbed column serves all devices."""
    f0 = blk.derivatives(xb, vb)
    df_dx = np.empty(xb.shape + (blk.n_states,))
    for k in range(blk.n_states):
        h = FD_STEP * (1.0 + np.abs(xb[:, k]))
        xp = xb.copy()
        xp[:, k] += h
        df_dx[:, :, k] = (blk.derivatives(xp, vb) - f0) / h[:, None]
    h = FD_STEP * (1.0 + np.abs(vb))
    df_dv = [(blk.derivatives(xb, vb + dv) - f0) / h[:, None] for dv in (h, 1j * h)]
    return df_dx, np.stack(df_dv, axis=-1)


class TrapezoidalIntegrator:
    """Fixed-step implicit trapezoidal scheme with a lazily refreshed Newton
    matrix and step-halving recovery."""

    def __init__(self, system: DaeSystem, tol: float = 1e-8):
        self.system = system
        self.tol = tol
        self._jinv: np.ndarray | None = None
        self._j_dt: float | None = None
        self.total_newton_iters = 0
        self.halvings = 0
        # (x, v, f(x, v)) where the last step converged; run() samples that
        # point and the next step starts there, so both reuse f
        self._end: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def invalidate(self) -> None:
        """Forget the Newton matrix and the rates of the last step; needed
        after a parameter change."""
        self._jinv = None
        self._end = None

    def rates(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """System derivatives f(x, v), reused at the arrays the last step
        returned.  The caller must not modify the result."""
        end = self._end
        if end is not None and x is end[0] and v is end[1]:
            return end[2]
        return self.system.derivatives(x, v)

    # -- residual/jacobian helpers ------------------------------------------

    # z holds the states, then (Re v, Im v) per bus: the bus part is the
    # float view of the complex voltage vector

    def _pack(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        nx = self.system.n_states
        z = np.empty(self.system.n_vars)
        z[:nx] = x
        z[nx:] = v.view(float)
        return z

    def _unpack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nx = self.system.n_states
        return z[:nx], z[nx:].view(complex)

    def _residual(
        self, z: np.ndarray, x_prev: np.ndarray, f_prev: np.ndarray, dt: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The Newton residual at `z` and the derivatives it evaluated."""
        sys = self.system
        x, v = self._unpack(z)
        f = sys.derivatives(x, v)
        r = np.empty(sys.n_vars)
        r[: sys.n_states] = x - x_prev - 0.5 * dt * (f_prev + f)
        r[sys.n_states :] = sys.network_residual(x, v).view(float)
        return r, f

    def _jacobian(self, z: np.ndarray, dt: float) -> np.ndarray:
        """The Newton matrix, built per block: each device's ∂f/∂x and
        ∂f/∂v sit on its own rows, and its ∂ı/∂x in its bus rows."""
        sys = self.system
        nx = sys.n_states
        x, v = self._unpack(z)
        a = np.zeros((sys.n_vars, sys.n_vars))
        a[:nx, :nx] = np.eye(nx)
        a[nx:, nx:] = sys.voltage_jacobian(x, v)
        for blk in sys.dynamic:
            xb, vb = sys._local(blk, x, v)
            rows = np.arange(blk.states.start, blk.states.stop).reshape(xb.shape)
            # the (Re v, Im v) variables of each device's bus
            bus_vars = nx + 2 * blk.bus[:, None] + np.arange(2)
            df_dx, df_dv = _fd_sensitivities(blk, xb, vb)
            a[rows[:, :, None], rows[:, None, :]] -= 0.5 * dt * df_dx
            a[rows[:, :, None], bus_vars[:, None, :]] -= 0.5 * dt * df_dv
            # ∂ı/∂x: the current rate is linear in ẋ, so unit rates give the columns
            di_dx = [blk.current_state_rate(xb, e_k, vb) for e_k in np.eye(blk.n_states)]
            a[bus_vars[:, :1], rows] = np.real(di_dx).T
            a[bus_vars[:, 1:], rows] = np.imag(di_dx).T
        return a

    def _refresh(self, z: np.ndarray, dt: float) -> None:
        self._jinv = np.linalg.inv(self._jacobian(z, dt))
        self._j_dt = dt

    # -- stepping -------------------------------------------------------------

    def step(
        self, x: np.ndarray, v: np.ndarray, dt: float, t: float = 0.0, _depth: int = 0
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One step of length `dt` from time `t`; a step whose Newton solve
        diverges is split into two halves, at most `MAX_HALVINGS` deep."""
        try:
            return self._newton_step(x, v, dt)
        except NewtonDivergence:
            if _depth >= MAX_HALVINGS:
                raise
            self.halvings += 1
            log.warning("step at t=%.6g s halved to dt=%.3g s (depth %d)", t, 0.5 * dt, _depth + 1)
            self.invalidate()
            x1, v1, n1 = self.step(x, v, 0.5 * dt, t, _depth + 1)
            x2, v2, n2 = self.step(x1, v1, 0.5 * dt, t + 0.5 * dt, _depth + 1)
            self.invalidate()
            return x2, v2, n1 + n2

    def _newton_step(
        self, x: np.ndarray, v: np.ndarray, dt: float
    ) -> tuple[np.ndarray, np.ndarray, int]:
        f_prev = self.rates(x, v)
        z = self._pack(x, v)
        r0 = None
        for it in range(NEWTON_MAX_ITER):
            r, f = self._residual(z, x, f_prev, dt)
            if not np.isfinite(r).all():
                raise NewtonDivergence(f"non-finite residual at dt={dt:.3e}")
            norm = np.abs(r).max()
            if norm < self.tol:
                self.total_newton_iters += it
                x1, v1 = self._unpack(z)
                self._end = (x1, v1, f)
                return x1, v1, it
            if r0 is None:
                r0 = norm
            elif norm > 1e3 * max(r0, 1.0):
                raise NewtonDivergence(f"residual blew up to {norm:.3e} at dt={dt:.3e}")
            if self._jinv is None or self._j_dt != dt or it == NEWTON_REFRESH_ITER:
                self._refresh(z, dt)
            z = z - self._jinv @ r
        raise NewtonDivergence(
            f"no convergence in {NEWTON_MAX_ITER} iterations at dt={dt:.3e}"
        )

    def solve_algebraic(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Re-solve the bus equations at frozen device states (used right
        after a discrete event)."""
        sys = self.system
        v = v.copy()
        for _ in range(ALGEBRAIC_MAX_ITER):
            rn = sys.network_residual(x, v)
            if np.max(np.abs(rn)) < self.tol:
                return v
            v = v + sys.solve_voltage(x, v, -rn)
        raise NewtonDivergence("algebraic re-solve after event did not converge")


# ---------------------------------------------------------------------------
# Initialization and the main run loop
# ---------------------------------------------------------------------------

def _share(weight: float, weights: list[float]) -> float:
    total = sum(weights)
    return weight / total if total else 1.0 / len(weights)

def initialize(
    scenario: Scenario, pf: PowerFlowResult | None = None
) -> tuple[np.ndarray, np.ndarray, DaeSystem]:
    """Back-solve every device to an exact equilibrium at the power-flow
    point, into the system's blocks; the scenario's devices are only read."""
    if pf is None:
        pf = power_flow(scenario)
    v = pf.voltages.copy()
    system = DaeSystem(scenario.network, scenario.devices, scenario.omega_base)

    gen_by_bus: dict[int, list[Device]] = {}
    for d in scenario.devices:
        if not d.is_load:
            gen_by_bus.setdefault(d.bus, []).append(d)
    for b in scenario.network.buses:
        if b.kind in ("slack", "generation") and b.index not in gen_by_bus:
            raise InfeasibleInit(f"bus {b.label} is a source bus without a source device")

    loads = [d for d in scenario.devices if d.is_load]
    s = np.empty(len(scenario.devices), dtype=complex)  # power share of each device
    for idx, d in enumerate(scenario.devices):
        if d.is_load:
            s[idx] = -complex(d.p0, d.q0)
            continue
        peers = gen_by_bus[d.bus]
        load_draw = sum(complex(ld.p0, ld.q0) for ld in loads if ld.bus == d.bus)
        s_bus = complex(pf.bus_injection[d.bus]) + load_draw
        w_p = _share(d.p, [g.p for g in peers])
        # reactive shares follow q_weight where a source has one, else p
        q_weights = [g.p if getattr(g, "q_weight", None) is None else g.q_weight for g in peers]
        w_q = _share(q_weights[peers.index(d)], q_weights)
        s[idx] = complex(w_p * s_bus.real, w_q * s_bus.imag)

    x0 = np.empty(system.n_states)
    for blk, idxs in zip(system.blocks, system.members):
        x0[blk.states] = blk.initial_state(v[blk.bus], s[idxs]).ravel()
    system.derive()
    f0 = system.derivatives(x0, v)
    worst = np.max(np.abs(f0)) if f0.size else 0.0
    if worst >= 1e-9:
        raise InfeasibleInit(f"initial state derivative {worst:.3e} exceeds 1e-9")
    rn = np.max(np.abs(system.network_residual(x0, v)))
    if rn >= 1e-8:
        raise InfeasibleInit(f"initial network residual {rn:.3e} exceeds 1e-8")
    return x0, v, system


@dataclass
class Trajectory:
    """Uniformly sampled run: states, phasors and stationary-frame CFs."""

    times: np.ndarray
    voltages: np.ndarray  # (samples, n_bus) complex
    currents: np.ndarray  # (samples, n_device) complex
    states: dict[str, np.ndarray]
    analytic_cf: dict[str, np.ndarray]
    voltage_cf: np.ndarray  # (samples, n_bus) complex
    device_names: list[str]
    device_buses: list[int]
    device_kinds: list[str]
    bus_labels: list[int]
    event_times: list[float]
    dt: float
    omega_base: float
    newton_iters: int = 0
    events_applied: int = 0
    halvings: int = 0

    def device_index(self, name: str) -> int:
        return self.device_names.index(name)

    def device_current(self, name: str) -> np.ndarray:
        return self.currents[:, self.device_index(name)]

    def sample_index(self, t: float) -> int:
        return int(round(t / self.dt))

    def estimator_valid(self, pad: int = 2) -> np.ndarray:
        """True where finite-difference CF estimates are trustworthy: away
        from event instants by more than `pad` samples."""
        valid = np.ones(self.times.size, dtype=bool)
        for te in self.event_times:
            k = self.sample_index(te)
            lo = max(0, k - pad)
            hi = min(self.times.size, k + pad + 1)
            valid[lo:hi] = False
        return valid


def run(scenario: Scenario) -> Trajectory:
    """Simulate the scenario and sample every step.

    Analytical CFs are evaluated from post-solve values, so samples that
    coincide with an event carry the post-event state.  Initialization and
    events change only the parameters in the system's blocks, so `scenario`
    is left as it was.
    """
    x, v, system = initialize(scenario)
    dt = scenario.dt
    n_steps = scenario.n_steps
    times = np.arange(n_steps + 1) * dt

    events_by_step: dict[int, list[Event]] = {}
    for k, ev in scenario.scheduled_events():
        events_by_step.setdefault(k, []).append(ev)

    integ = TrapezoidalIntegrator(system, tol=scenario.tolerance)

    devices = scenario.devices
    voltages = np.empty((n_steps + 1, system.n_bus), dtype=complex)
    currents = np.empty((n_steps + 1, len(devices)), dtype=complex)
    xs = np.empty((n_steps + 1, system.n_states))
    # one row per device, so every recorded CF series is contiguous
    cfs = np.empty((len(devices), n_steps + 1), dtype=complex)
    voltage_cf = np.empty((n_steps + 1, system.n_bus), dtype=complex)
    has_cf = [d.has_analytic_cf for d in devices]
    event_times: list[float] = []
    events_applied = 0

    def apply_events(k: int) -> bool:
        nonlocal events_applied
        evs = events_by_step.get(k)
        if not evs:
            return False
        for ev in evs:
            _apply_event(system, ev, scenario.s_base)
            events_applied += 1
            event_times.append(times[k])
        system.derive()
        return True

    def record(k: int) -> None:
        voltages[k] = v
        xs[k] = x
        xdot = integ.rates(x, v)
        currents[k, system.order] = system.device_currents(x, v)
        eta_v = system.voltage_cf(v, system.voltage_rates(x, v, xdot))
        voltage_cf[k] = eta_v
        cfs[system.order, k] = system.analytic_cf(x, xdot, v, eta_v)

    if apply_events(0):
        v = integ.solve_algebraic(x, v)
        integ.invalidate()
    record(0)

    for k in range(1, n_steps + 1):
        x, v, _ = integ.step(x, v, dt, t=times[k - 1])
        if apply_events(k):
            v = integ.solve_algebraic(x, v)
            integ.invalidate()
        record(k)

    for label, arr in (("voltages", voltages), ("currents", currents)):
        if not np.all(np.isfinite(arr.view(float))):
            raise NewtonDivergence(f"non-finite {label} in the sampled trajectory")

    return Trajectory(
        times=times,
        voltages=voltages,
        currents=currents,
        states={d.name: xs[:, sl] for d, sl in zip(devices, system.slices) if d.n_states},
        analytic_cf={d.name: cfs[i] for i, d in enumerate(devices) if has_cf[i]},
        voltage_cf=voltage_cf,
        device_names=[d.name for d in devices],
        device_buses=[d.bus for d in devices],
        device_kinds=[d.kind for d in devices],
        bus_labels=[b.label for b in scenario.network.buses],
        event_times=event_times,
        dt=dt,
        omega_base=scenario.omega_base,
        newton_iters=integ.total_newton_iters,
        events_applied=events_applied,
        halvings=integ.halvings,
    )


def _apply_event(system: DaeSystem, ev: Event, s_base: float) -> None:
    """Edit the block rows `ev` changes (`Scenario` checked its target)."""
    if ev.action == "set_parameter":
        blk, row = system.row(ev.device)
        getattr(blk, ev.param)[row] = ev.value
        return
    [loads] = [blk for blk in system.blocks if isinstance(blk, ZipBlock)]
    rows = loads.bus == ev.bus
    factor = ev.factor
    if ev.action == "load_disconnect_mw":
        factor = 1.0 - (ev.amount / s_base) / loads.nominal_p[rows].sum()
    for name in ("p0", "q0", "nominal_p", "nominal_q"):
        getattr(loads, name)[rows] *= factor
