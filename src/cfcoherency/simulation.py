"""Steady-state initialization and time-domain DAE integration.

The network is algebraic, devices carry the dynamics.  Integration is
simultaneous implicit trapezoidal: one Newton iteration solves the
discretized device ODEs together with the bus current balance.  Discrete
events snap to step boundaries; the algebraic variables are re-solved right
after each event before integration resumes.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .devices import UNDEFINED_CF, Device
from .errors import EventError, InfeasibleInit, NewtonDivergence, NonConvergence
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
RECORD_CHUNK = 64  # samples evaluated together when a segment is recorded; bounds the temporaries
CURRENT_FLOOR = 10.0  # Newton tolerances; a current at or below this many is solver noise


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
        self.check()
        window = self.analysis.window
        if window is not None and window[1] > self.t_end:
            raise ValueError(
                f"analysis window [{window[0]:g}, {window[1]:g}] ends after t_end {self.t_end:g}"
            )

    def check(self) -> dict[int, list[tuple[str, str, float]]]:
        """The writes the events make, as {step: [(device, parameter,
        value)]} in the order `run` applies them; the only code that
        interprets events.  A load event writes the new draw (p0, q0) of
        each load at its bus.  Raises `ValueError` unless the scenario can
        run: a positive finite step, horizon, Newton tolerance, base
        frequency and base power, events inside the horizon, unique device
        names, every event's device or load bus present, no negative scale
        factor or disconnected amount (either would raise a draw or turn a
        load into a source), and no disconnect of more load than is left at
        its bus.  A bad event raises `EventError`, which carries its index in
        `events`.  The analysis window, which `run` does not read, is checked
        against the horizon at construction."""
        if not (0.0 < self.dt < np.inf and 0.0 < self.t_end < np.inf):
            raise ValueError("dt and t_end must be positive and finite")
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError(f"Newton tolerance {self.tolerance!r} must be positive and finite")
        if not (0.0 < self.omega_base < np.inf and 0.0 < self.s_base < np.inf):
            raise ValueError(f"base values omega_base {self.omega_base!r} and s_base "
                             f"{self.s_base!r} must be positive and finite")
        for i, ev in enumerate(self.events):
            if not 0.0 <= ev.time <= self.t_end:
                raise EventError(i, f"event at t={ev.time} outside [0, {self.t_end}]")
        by_name = {d.name: d for d in self.devices}
        if len(by_name) != len(self.devices):
            raise ValueError("device names must be unique")
        labels = {b.index: b.label for b in self.network.buses}
        # the scheduled draw (p0, q0) of each load
        draws = {d.name: np.array([d.p0, d.q0], dtype=float) for d in self.devices if d.is_load}
        writes: dict[int, list[tuple[str, str, float]]] = {}
        for step, i, ev in self.scheduled_events():
            out = writes.setdefault(step, [])
            if ev.action == "set_parameter":
                dev = by_name.get(ev.device)
                if dev is None:
                    raise EventError(i, f"{ev}: unknown device {ev.device!r}")
                if ev.param not in dev.settable_params:
                    raise EventError(
                        i, f"{ev}: {dev.name!r} has no settable parameter {ev.param!r}"
                    )
                if dev.is_load:
                    draws[dev.name][("p0", "q0").index(ev.param)] = ev.value
                out.append((ev.device, ev.param, ev.value))
                continue
            at_bus = [d.name for d in self.devices if d.is_load and d.bus == ev.bus]
            bus = labels.get(ev.bus, ev.bus)
            if not at_bus:
                raise EventError(i, f"{ev}: no load at bus {bus}")
            field_name = EVENT_ACTIONS[ev.action]
            if (value := getattr(ev, field_name)) < 0.0:
                raise EventError(i, f"{ev}: {field_name} {value:g} must not be negative")
            factor = ev.factor
            if ev.action == "load_disconnect_mw":
                total = np.sum([draws[name][0] for name in at_bus])
                if total <= 0.0 or (factor := 1.0 - (ev.amount / self.s_base) / total) < 0.0:
                    raise EventError(
                        i,
                        f"{ev}: cannot disconnect {ev.amount:g} MW from the "
                        f"{total * self.s_base:.1f} MW left at bus {bus}",
                    )
            for name in at_bus:
                draws[name] *= factor
                out += [(name, "p0", float(draws[name][0])), (name, "q0", float(draws[name][1]))]
        return writes

    @property
    def n_steps(self) -> int:
        """Steps of length dt that cover t_end."""
        n = int(round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > 1e-9:
            n = int(np.ceil(self.t_end / self.dt - 1e-12))
        return n

    def scheduled_events(self) -> list[tuple[int, int, Event]]:
        """(step, index in `events`, event) in the order `run` applies them:
        by the step the event snaps to, then as listed."""
        n = self.n_steps
        steps = [min(max(int(round(ev.time / self.dt)), 0), n) for ev in self.events]
        return sorted(zip(steps, range(len(steps)), self.events), key=lambda item: item[0])


# ---------------------------------------------------------------------------
# Power flow
# ---------------------------------------------------------------------------

@dataclass(eq=False)
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
    while True:
        v = v_mag * np.exp(1j * v_ang)
        ibus = y @ v
        s_calc = v * np.conj(ibus)
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
    return PowerFlowResult(v, s_calc, it, float(mismatch))


# ---------------------------------------------------------------------------
# Device/network coupling
# ---------------------------------------------------------------------------

class DaeSystem:
    """All device states coupled through the bus equations.

    The devices are grouped by class, and each group is stacked into one
    block, an instance of that same class with (n,) parameter arrays and
    the system's `omega_base` (`Device.stack`); each system-level
    evaluation makes one call per block.  The blocks hold the parameters;
    the devices are read only while the blocks are built.  The state vector
    holds the blocks one after another, so a block's states are one
    contiguous (n, n_states) view; `slices` still maps each device to its
    states.  Per-device results come
    in the block order `order` (device indices; `members` splits it by
    block) and reach the buses by their index `bus`, in that same order.
    Every evaluation also takes leading sample axes on the states and
    voltages, and returns one result per sample.
    """

    def __init__(self, network: Network, devices: list[Device], omega_base: float):
        self.omega_base = omega_base
        self.y = network.admittance()
        self.n_bus = network.n_bus
        members: dict[type[Device], list[int]] = {}
        for idx, d in enumerate(devices):
            members.setdefault(type(d), []).append(idx)
        self.blocks: list[Device] = []
        self.slices: list[slice] = [slice(0, 0)] * len(devices)
        off = 0
        for cls, idxs in members.items():
            blk = cls.stack([devices[i] for i in idxs], off, omega_base)
            for j, i in enumerate(idxs):
                self.slices[i] = slice(off + j * blk.n_states, off + (j + 1) * blk.n_states)
            off = blk.states.stop
            self.blocks.append(blk)
        self.dynamic = [blk for blk in self.blocks if blk.n_states]
        self.members = list(members.values())
        self.order = np.array([i for idxs in self.members for i in idxs], dtype=int)
        self.bus = np.concatenate([blk.bus for blk in self.blocks])
        self.dynamic_bus = np.array([b for blk in self.dynamic for b in blk.bus], dtype=int)
        self._rows = {name: (blk, r) for blk in self.blocks for r, name in enumerate(blk.name)}
        self.n_states = off
        self.revision = 0  # raised by every `derive`
        self.derive()

    def derive(self) -> None:
        """Re-derive the blocks' dependent values, drop the kept inverse of
        the voltage Jacobian and raise `revision`, on which the integrator
        keys its Newton matrix; needed after initialization and every event."""
        self.revision += 1
        for blk in self.blocks:
            blk.derive()
        self.voltage_dependent = any(blk.voltage_dependent for blk in self.blocks)
        self._jv_inv: np.ndarray | None = None

    def row(self, name: str) -> tuple[Device, int]:
        """The block that holds device `name`, and its row there."""
        return self._rows[name]

    def _local(self, blk: Device, x: np.ndarray, v: np.ndarray):
        """The block's states as (..., n, n_states) and its terminal voltages."""
        xb = x[..., blk.states].reshape(x.shape[:-1] + (blk.n, blk.n_states))
        return xb, v.take(blk.bus, axis=-1)

    def _to_bus(self, values: np.ndarray, bus: np.ndarray) -> np.ndarray:
        """Sum per-device `values` (..., n) onto their buses `bus` (n,); each
        bus adds its devices one after another, in the order given."""
        out = np.zeros(values.shape[:-1] + (self.n_bus,), dtype=complex)
        np.add.at(out, (..., bus), values)
        return out

    def evaluate(self, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The state derivatives and the current injected by every device, in
        block order, from one `evaluate` call per block."""
        f = np.empty(x.shape)
        currents = []
        for blk in self.blocks:
            f_b, i_b = blk.evaluate(*self._local(blk, x, v))
            if blk.n_states:
                f[..., blk.states] = f_b.reshape(x.shape[:-1] + (-1,))
            currents.append(i_b)
        return f, np.concatenate(currents, axis=-1)

    def residual(self, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The state derivatives and the bus current balance ı - Ȳv."""
        f, currents = self.evaluate(x, v)
        return f, self._to_bus(currents, self.bus) - _matvec(self.y, v)

    def derivatives(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.evaluate(x, v)[0]

    def injections(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._to_bus(self.evaluate(x, v)[1], self.bus)

    def network_residual(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.residual(x, v)[1]

    def voltage_jacobian(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """∂(ı - Ȳv)/∂(Re v, Im v) at fixed states, with rows and columns
        interleaved per bus as (Re, Im).  Each device contributes its
        closed-form dı = a·dv̄ + b·dv̄* to the diagonal of its bus."""
        ab, first = [], (0,) * (v.ndim - 1)
        for blk in self.blocks:  # one that is not voltage dependent, at the first sample only
            at = (x, v) if blk.voltage_dependent else (x[first], v[first])
            ab.append([np.broadcast_to(s, v.shape[:-1] + (blk.n,))
                       for s in blk.voltage_sensitivity(*self._local(blk, *at))])
        a_bus, b_bus = (self._to_bus(np.concatenate(s, axis=-1), self.bus) for s in zip(*ab))
        m = _diag(a_bus) - self.y
        jac = np.empty(v.shape[:-1] + (2 * self.n_bus, 2 * self.n_bus))
        jac[..., 0::2, 0::2] = m.real + _diag(b_bus.real)
        jac[..., 0::2, 1::2] = _diag(b_bus.imag) - m.imag
        jac[..., 1::2, 0::2] = m.imag + _diag(b_bus.imag)
        jac[..., 1::2, 1::2] = m.real - _diag(b_bus.real)
        return jac

    def linearize(self, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """The exact Jacobian blocks (F_x, F_v, I_x, J_v) of f and ı - Ȳv at one
        point, x (n_states,) and v (n_bus,), the bus variables (Re v, Im v)
        interleaved per bus; J_v is `voltage_jacobian`.  Per block with states,
        one `tangent` per unit state column fills that column of F_x and I_x,
        and one per voltage direction, 1 and j, fills F_v."""
        nx, nv = self.n_states, 2 * self.n_bus
        f_x, f_v, i_x = np.zeros((nx, nx)), np.zeros((nx, nv)), np.zeros((nv, nx))
        for blk in self.dynamic:
            xb, vb = self._local(blk, x, v)
            rows = np.arange(blk.states.start, blk.states.stop).reshape(xb.shape)
            bus_vars = 2 * blk.bus[:, None] + np.arange(2)  # each device's (Re v, Im v)
            for k, e_k in enumerate(np.eye(blk.n_states)):
                df, di = blk.tangent(xb, vb, np.tile(e_k, (blk.n, 1)), np.zeros_like(vb))
                f_x[rows, rows[:, k : k + 1]] = df
                i_x[bus_vars, rows[:, k : k + 1]] = np.stack((di.real, di.imag), axis=-1)
            for col, dv in enumerate((1.0, 1j)):
                df = blk.tangent(xb, vb, np.zeros_like(xb), dv * np.ones_like(vb))[0]
                f_v[rows, bus_vars[:, col : col + 1]] = df
        return f_x, f_v, i_x, self.voltage_jacobian(x, v)

    def solve_voltage(self, x: np.ndarray, v: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """dv with voltage_jacobian(x, v)·dv = rhs, for complex bus vectors.

        When no block's sensitivity depends on the voltage, the Jacobian
        changes only with the parameters, so its inverse is kept until the
        next `derive` and applied to every sample; otherwise it is assembled
        and solved anew for each sample."""
        rhs = rhs.view(float)
        if self.voltage_dependent:
            jac = self.voltage_jacobian(x, v)
            return np.linalg.solve(jac, rhs[..., None])[..., 0].view(complex)
        if self._jv_inv is None:
            # at the first sample; the Jacobian does not depend on it
            first = (0,) * (x.ndim - 1)
            self._jv_inv = np.linalg.inv(self.voltage_jacobian(x[first], v[first]))
        return _matvec(self._jv_inv, rhs).view(complex)

    def voltage_rates(self, x: np.ndarray, v: np.ndarray, xdot: np.ndarray) -> np.ndarray:
        """Exact bus-voltage time derivatives by implicit differentiation of
        the current balance ı(x, v) = Ȳv: J_v·v̇ = -Σ current tangents along (ẋ, 0)."""
        rates = []
        for blk in self.dynamic:
            xb, vb = self._local(blk, x, v)
            xdot_b = xdot[..., blk.states].reshape(xb.shape)
            rates.append(blk.tangent(xb, vb, xdot_b, np.zeros_like(vb))[1])
        i_dot = np.concatenate(rates, axis=-1)
        return self.solve_voltage(x, v, -self._to_bus(i_dot, self.dynamic_bus))

    def analytic_cf(
        self, x: np.ndarray, xdot: np.ndarray, v: np.ndarray, i: np.ndarray, eta_v: np.ndarray,
        floor: float,
    ) -> np.ndarray:
        """Closed-form current CF of every device, in block order;
        `UNDEFINED_CF` for a device whose current is at or below `floor`,
        whether a load that draws none or a source that injects none.  `xdot`
        and the currents `i` are what `evaluate` returns at (x, v)."""
        live = np.abs(i) > floor
        i = np.where(live, i, 1.0)  # the blocks divide by it
        out = []
        col = 0
        for blk in self.blocks:
            xb, vb = self._local(blk, x, v)
            xdot_b = xdot[..., blk.states].reshape(xb.shape)
            i_b = i[..., col : col + blk.n]
            out.append(blk.analytic_cf(xb, xdot_b, vb, i_b, eta_v[..., blk.bus]))
            col += blk.n
        return np.where(live, np.concatenate(out, axis=-1), UNDEFINED_CF)

    def voltage_cf(self, v: np.ndarray, vdot: np.ndarray) -> np.ndarray:
        """Stationary-frame CF of every bus voltage, per unit."""
        return vdot / v / self.omega_base + 1j


def _matvec(m: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """m @ v for every vector v along the last axis of `vecs`; one matrix-vector
    product per vector, so each result equals the unbatched one bit for bit."""
    if vecs.ndim == 1:
        return m @ vecs
    return np.matmul(m, vecs[..., None])[..., 0]


def _diag(d: np.ndarray) -> np.ndarray:
    """Square matrices with `d` (..., n) on the diagonal and zeros elsewhere."""
    out = np.zeros(d.shape + d.shape[-1:], dtype=d.dtype)
    out[..., range(d.shape[-1]), range(d.shape[-1])] = d
    return out


class TrapezoidalIntegrator:
    """Fixed-step implicit trapezoidal scheme with step-halving recovery and a
    Newton matrix rebuilt lazily, once dt or the system's `revision` moves."""

    def __init__(self, system: DaeSystem, tol: float = 1e-8):
        self.system = system
        self.tol = tol
        self._jinv: np.ndarray | None = None
        self._j_key: tuple[float, int] | None = None  # the (dt, revision) of _jinv
        # refined corrections of the last accepted steps, newest first
        self._corrections: tuple[np.ndarray, ...] = ()
        self.total_newton_iters = 0
        self.refreshes = 0  # Newton matrices built
        self.halvings = 0
        self.residuals = 0  # DaeSystem.residual calls by steps and re-solves

    # -- Newton matrix --------------------------------------------------------

    def _refresh(self, x: np.ndarray, v: np.ndarray, dt: float) -> None:
        """Invert [[I - h·F_x, -h·F_v], [I_x, J_v]], h = dt/2, the trapezoid assembly
        of `DaeSystem.linearize` at (x, v); the states, then the bus variables."""
        f_x, f_v, i_x, j_v = self.system.linearize(x, v)
        a = np.block([[np.eye(len(f_x)), np.zeros(f_v.shape)], [i_x, j_v]])
        a[: len(f_x)] -= 0.5 * dt * np.hstack((f_x, f_v))
        self._jinv = np.linalg.inv(a)
        self._j_key = (dt, self.system.revision)
        self._corrections = ()
        self.refreshes += 1

    # -- stepping -------------------------------------------------------------

    def step(
        self,
        x: np.ndarray,
        v: np.ndarray,
        f: np.ndarray,
        rn: np.ndarray,
        dt: float,
        t: float = 0.0,
        _depth=0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One step of length `dt` from time `t`, where `f` and `rn` are the
        state derivatives and the bus current balance at (x, v), as
        `DaeSystem.residual` gives them; returns the new states and voltages
        and the pair at them, and adds the Newton iterations to
        `total_newton_iters`.  The pair a step returns is the one its last
        Newton residual evaluated, so the next step starts without evaluating
        the devices; a step that meets the tolerance at the pair it is handed
        returns (x, v, f, rn) as they are; it read only them, dt and the
        tolerance and changed only the correction history, which it empties,
        so the next step from them returns them again.  A step whose Newton
        solve diverges is split into two halves, at most `MAX_HALVINGS` deep;
        a half has another length, so it builds its own Newton matrix."""
        try:
            return self._newton_step(x, v, f, rn, dt)
        except NewtonDivergence:
            if _depth >= MAX_HALVINGS:
                raise
            self.halvings += 1
            log.warning("step at t=%.6g s halved to dt=%.3g s (depth %d)", t, 0.5 * dt, _depth + 1)
            half = self.step(x, v, f, rn, 0.5 * dt, t, _depth + 1)
            return self.step(*half, 0.5 * dt, t + 0.5 * dt, _depth + 1)

    def _newton_step(
        self, x: np.ndarray, v: np.ndarray, f_prev: np.ndarray, rn_prev: np.ndarray, dt: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The Newton solve of one step.  Its first iterate is (x, v), whose
        pair was handed in.  The second, z1, is the chord iterate from it,
        moved by the quadratic extrapolation 3(c0 - c1) + c2 of the refined
        corrections c = (z - J⁻¹·r) - z1 of the last three accepted steps
        under the same Newton matrix, once three are kept."""
        sys = self.system
        h = 0.5 * dt
        x1, v1, f, rn = x, v, f_prev, rn_prev
        z = z1 = None  # the Newton variables, packed once the iterate has to move
        r0 = None
        for it in range(NEWTON_MAX_ITER):
            if it:
                f, rn = sys.residual(x1, v1)
                self.residuals += 1
            r = np.concatenate((x1 - x - h * (f_prev + f), rn.view(float)))
            norm = np.abs(r).max()  # NaN or inf where any entry is
            if not math.isfinite(norm):
                raise NewtonDivergence(f"non-finite residual at dt={dt:.3e}")
            if norm < self.tol:
                self.total_newton_iters += it
                if z is None:
                    self._corrections = ()
                else:
                    self._corrections = (z - self._jinv @ r - z1, *self._corrections[:2])
                return x1, v1, f, rn
            if r0 is None:
                r0 = norm
            elif norm > 1e3 * max(r0, 1.0):
                raise NewtonDivergence(f"residual blew up to {norm:.3e} at dt={dt:.3e}")
            if self._j_key != (dt, sys.revision) or it == NEWTON_REFRESH_ITER:
                self._refresh(x1, v1, dt)
            if z is None:
                z = z1 = np.concatenate((x, v.view(float))) - self._jinv @ r
                if len(self._corrections) == 3:
                    c0, c1, c2 = self._corrections
                    z = z1 + 3 * (c0 - c1) + c2
            else:
                z = z - self._jinv @ r
            x1, v1 = z[: sys.n_states], z[sys.n_states :].view(complex)
        raise NewtonDivergence(
            f"no convergence in {NEWTON_MAX_ITER} iterations at dt={dt:.3e} "
            f"(residual {norm:.1e}, tolerance {self.tol:.1e})"
        )

    def solve_algebraic(
        self, x: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Re-solve the bus equations at frozen device states (used right
        after a discrete event); returns the voltages and the residual pair
        (f, rn) there, ready for the next `step`."""
        sys = self.system
        v = v.copy()
        for _ in range(ALGEBRAIC_MAX_ITER):
            f, rn = sys.residual(x, v)
            self.residuals += 1
            if np.max(np.abs(rn)) < self.tol:
                return v, f, rn
            v = v + sys.solve_voltage(x, v, -rn)
        raise NewtonDivergence("algebraic re-solve after event did not converge")


# ---------------------------------------------------------------------------
# Initialization and the main run loop
# ---------------------------------------------------------------------------

def _share(weight: float, weights: list[float]) -> float:
    total = sum(weights)
    return weight / total if total else 1.0 / len(weights)

def initialize(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, DaeSystem]:
    """Back-solve every device to an exact equilibrium at the scenario's
    power-flow point, into the system's blocks; the scenario's devices are
    only read."""
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
    f0, balance = system.residual(x0, v)
    worst = np.max(np.abs(f0))
    if worst >= 1e-9:
        raise InfeasibleInit(f"initial state derivative {worst:.3e} exceeds 1e-9")
    rn = np.max(np.abs(balance))
    if rn >= 1e-8:
        raise InfeasibleInit(f"initial network residual {rn:.3e} exceeds 1e-8")
    return x0, v, system


@dataclass(eq=False)
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
    halvings: int = 0
    refreshes: int = 0  # Newton matrices built
    residuals: int = 0  # DaeSystem.residual calls by the steps and the event re-solves
    filled: int = 0  # steps `run` filled from one that returned its handed pair

    def device_index(self, name: str) -> int:
        return self.device_names.index(name)

    def device_current(self, name: str) -> np.ndarray:
        return self.currents[:, self.device_index(name)]

    def sample_index(self, t: float) -> int:
        return int(round(t / self.dt))


def run(scenario: Scenario) -> Trajectory:
    """Simulate the scenario and sample every step.

    The solve stores only the states and bus voltages.  The currents and
    CFs of an event segment, the samples under one set of parameters, are
    evaluated when it ends: before the events that end it, and at t_end.  A
    sample at an event carries the post-event state and opens the next
    segment.  After a step that returns the states and voltages it was
    handed, without a halving, every step up to the next event would do the
    same, so those rows copy the sample before them (`Trajectory.filled`).
    Initialization and events change only the parameters in the system's
    blocks, so `scenario` is left as it was.  The scenario is checked again
    first, because its fields may have been assigned after construction.
    """
    writes = scenario.check()
    x, v, system = initialize(scenario)
    f, rn = system.residual(x, v)
    dt = scenario.dt
    n_steps = scenario.n_steps
    times = np.arange(n_steps + 1) * dt
    event_times = [times[k] for k, _, _ in scenario.scheduled_events()]

    integ = TrapezoidalIntegrator(system, tol=scenario.tolerance)
    floor = CURRENT_FLOOR * scenario.tolerance

    devices = scenario.devices
    voltages = np.empty((n_steps + 1, system.n_bus), dtype=complex)
    currents = np.empty((n_steps + 1, len(devices)), dtype=complex)
    xs = np.empty((n_steps + 1, system.n_states))
    # one row per device, so every recorded CF series is contiguous
    cfs = np.empty((len(devices), n_steps + 1), dtype=complex)
    voltage_cf = np.empty((n_steps + 1, system.n_bus), dtype=complex)
    start = 0  # first sample of the current event segment
    filled = 0

    k = 0
    while k <= n_steps:
        if k:
            halvings = integ.halvings
            x1, v1, f, rn = integ.step(x, v, f, rn, dt, t=times[k - 1])
            if x1 is x and v1 is v and integ.halvings == halvings:
                stop = min(s for s in (*writes, n_steps) if s >= k)
                _record(system, slice(start, k), floor, xs, voltages, currents, voltage_cf, cfs)
                for rows in (xs, voltages, currents, voltage_cf, cfs.T):
                    rows[k:stop] = rows[k - 1]
                filled += stop - k
                start = k = stop
            x, v = x1, v1
        if k in writes:
            _record(system, slice(start, k), floor, xs, voltages, currents, voltage_cf, cfs)
            start = k
            for name, param, value in writes[k]:
                blk, row = system.row(name)
                getattr(blk, param)[row] = value
            system.derive()
            v, f, rn = integ.solve_algebraic(x, v)
        xs[k] = x
        voltages[k] = v
        k += 1
    _record(system, slice(start, n_steps + 1), floor, xs, voltages, currents, voltage_cf, cfs)

    for label, arr in (("voltages", voltages), ("currents", currents)):
        if not np.all(np.isfinite(arr.view(float))):
            raise NewtonDivergence(f"non-finite {label} in the sampled trajectory")

    return Trajectory(
        times=times,
        voltages=voltages,
        currents=currents,
        states={d.name: xs[:, sl] for d, sl in zip(devices, system.slices) if d.n_states},
        analytic_cf={d.name: cf for d, cf in zip(devices, cfs)},
        voltage_cf=voltage_cf,
        device_names=[d.name for d in devices],
        device_buses=[d.bus for d in devices],
        device_kinds=[d.kind for d in devices],
        bus_labels=[b.label for b in scenario.network.buses],
        event_times=event_times,
        dt=dt,
        omega_base=scenario.omega_base,
        newton_iters=integ.total_newton_iters,
        halvings=integ.halvings,
        refreshes=integ.refreshes,
        residuals=integ.residuals,
        filled=filled,
    )


def _record(
    system: DaeSystem, seg: slice, floor: float, xs, voltages, currents, voltage_cf, cfs
) -> None:
    """Fill the rows `seg` of the device currents, bus voltage CFs and (in
    the columns) analytic device CFs from those of the states and voltages,
    under the system's present parameters, `RECORD_CHUNK` samples per call;
    a device CF is `UNDEFINED_CF` where the current is at or below `floor`."""
    for c in range(seg.start, seg.stop, RECORD_CHUNK):
        chunk = slice(c, min(c + RECORD_CHUNK, seg.stop))
        x, v = xs[chunk], voltages[chunk]
        xdot, i = system.evaluate(x, v)
        currents[chunk, system.order] = i
        eta_v = system.voltage_cf(v, system.voltage_rates(x, v, xdot))
        voltage_cf[chunk] = eta_v
        cfs[system.order, chunk] = system.analytic_cf(x, xdot, v, i, eta_v, floor).T
