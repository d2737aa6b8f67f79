"""Dynamic device models: classical synchronous machine, ZIP load, and
voltage-source-behind-filter converters (grid-following and grid-forming).

Conventions shared by every model:
  * all phasors live in the system-synchronous reference frame,
  * devices inject current into the network (loads inject negative current),
  * reported complex frequencies are stationary-frame per-unit values, i.e.
    the frame-relative log-derivative divided by the grid's one base
    frequency omega_base, which `Device.stack` gives each block, plus j*1.

Each kind writes the same three methods the integrator relies on:
`initial_state`, which back-solves the states and setpoints from the
power-flow terminal voltage and the device's complex-power share,
`evaluate`, which returns the state derivatives and the injected current
from one shared computation (`derivatives` and `injected_current` give each
alone), and `tangent`, the exact derivative of `evaluate` along a state
direction dx and a terminal-voltage direction dv̄, from which the Newton
matrix, the voltage rates, `voltage_sensitivity` and every source's
current CF (`Device.analytic_cf`) take every derivative.

Each kind is one `Device` subclass that declares its parameters (`params`),
its states and its equations once.  The equations broadcast, so the same
class serves two shapes: a scenario's device, with float parameters and
states (n_states,), and a run's `Device.stack` of all devices of the kind,
with (n,) parameter arrays, states (..., n, n_states) and terminal voltages
(..., n), which the simulator evaluates with one numpy call per kind;
leading axes are samples.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleInit, MagnitudeUnderflow

ZIP_FRACTION_TOL = 1e-12
MAGNITUDE_GUARD = 1e-9  # at or below this magnitude a log-derivative is undefined
UNDEFINED_CF = complex(np.nan, np.nan)  # a CF sample with no value: NaN in both parts


def _require_magnitude(value, what: str, owner, error=MagnitudeUnderflow) -> None:
    """Raise `error` for the first entry of `value` whose |what| is at or below
    the guard, naming its device: `owner`, or in a stack the device that the
    last axis of `value` indexes."""
    value = np.atleast_1d(value)
    low = value <= MAGNITUDE_GUARD
    if low.any():
        k = np.unravel_index(np.argmax(low), low.shape)
        name = owner.name if isinstance(owner.name, str) else owner.name[k[-1]]
        raise error(f"|{what}({name})| = {value[k]:.3e} at or below guard")


def _columns(*cols) -> np.ndarray:
    """Stack per-device values of one shape along a new last axis, the state
    index; only the stacking axis moves, so leading sample axes keep their order.
    The result is C-contiguous, so `_pair` can read its (Re, Im) state pairs."""
    stacked = np.array(cols)
    return stacked.transpose(*range(1, stacked.ndim), 0).copy()


def _pair(x, k: int):
    """The adjacent (Re, Im) states k and k+1 as one complex value."""
    return x[..., k : k + 2].view(complex)[..., 0]


# ---------------------------------------------------------------------------
# Device models
# ---------------------------------------------------------------------------

class Device:
    """Base class; each kind declares its parameters, states and equations.

    An instance is one device, as a scenario declares it, or the stack of
    all devices of its kind in a run (`stack`), whose `name` and `bus` list
    the devices' names and buses, whose parameters are (n,) arrays and
    whose `omega_base` is the system's.  A scenario's device is a read-only
    spec with no `omega_base`: a run copies its `params` into the stack and
    changes only those.  `initial_state` writes the operating point into
    the parameters, events edit their rows, and `derive`, which the
    constructors call, has to run after either.  `tangent(x, v, dx, dv)`
    returns (df, dı), shaped as `evaluate`'s.  An instance whose
    `voltage_dependent` is False has a `voltage_sensitivity` that depends on
    its parameters only.
    """

    params: tuple[str, ...] = ()  # what `stack` copies
    n_states: int = 0
    kind: str = "device"
    is_load: bool = False
    settable_params: tuple[str, ...] = ()
    voltage_dependent = False

    def __init__(self, name: str, bus: int):
        self.name = name
        self.bus = bus

    @classmethod
    def stack(cls, devices: list[Device], start: int, omega_base: float) -> Device:
        """The `devices`, all of this kind, as one instance on the system's
        base frequency `omega_base`; `states` is its range of the system
        state vector, which holds the devices' states one after another from
        `start`.  The devices are only read."""
        blk = cls.__new__(cls)
        blk.omega_base = omega_base
        blk.name = [d.name for d in devices]
        blk.bus = np.array([d.bus for d in devices], dtype=int)
        blk.n = len(devices)
        blk.states = slice(start, start + blk.n * cls.n_states)
        for name in cls.params:
            values = [getattr(d, name) for d in devices]
            setattr(blk, name, np.array(values, dtype=np.result_type(float, *values)))
        blk.derive()
        return blk

    def derive(self) -> None:
        """Recompute the values derived from the parameters."""

    def derivatives(self, x, v):
        """The state derivatives, the first part of `evaluate`."""
        return self.evaluate(x, v)[0]

    def injected_current(self, x, v):
        """The injected current, the second part of `evaluate`."""
        return self.evaluate(x, v)[1]

    def voltage_sensitivity(self, x, v):
        """(a, b) with dı̄ = a·dv̄ + b·dv̄* at fixed states, from the tangents d₁
        and d_j along dv̄ = 1 and j, taken in one call on a leading axis of
        two: a = (d₁ - j·d_j)/2, b = (d₁ + j·d_j)/2."""
        dv = np.multiply.outer([1.0, 1j], np.ones(np.shape(v)))
        d_1, d_j = self.tangent(x, v, np.zeros((2,) + np.shape(x)), dv)[1]
        return 0.5 * (d_1 - 1j * d_j), 0.5 * (d_1 + 1j * d_j)

    def analytic_cf(self, x, xdot, v, i, eta_v):
        """Stationary-frame CF of the injected current `i`: dı̄/dt is the
        tangent along (ẋ, v̇) with v̇ = ω_b·(η_v - j)·v̄ from `eta_v`.
        `xdot` and `i` are what `evaluate` returns at (x, v), with no zero
        in `i` (`DaeSystem.analytic_cf` masks those).  Reads the system's
        `omega_base`, which `stack` sets."""
        v_dot = self.omega_base * (eta_v - 1j) * v
        i_dot = self.tangent(x, v, xdot, v_dot)[1]
        return i_dot / (i * self.omega_base) + 1j

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, bus={self.bus})"


class SynchronousMachine(Device):
    """Lossless classical model: constant EMF magnitude behind x'_d, swing
    dynamics in (rotor angle, speed)."""

    params = ("e_field", "xd_prime", "p_m", "damping", "inertia")
    n_states = 2
    kind = "sm"
    settable_params = ("p_m", "damping")

    def __init__(
        self,
        name: str,
        bus: int,
        inertia: float,
        xd_prime: float,
        damping: float = 0.0,
        p: float = 0.0,
        q_weight: float | None = None,
    ):
        super().__init__(name, bus)
        if not (inertia > 0.0 and xd_prime > 0.0):
            raise ValueError("inertia and xd_prime must be positive")
        self.inertia = inertia
        self.xd_prime = xd_prime
        self.damping = damping
        self.p = p  # dispatch weight / setpoint, pu
        self.q_weight = q_weight  # reactive share among same-bus sources; defaults to p
        self.p_m = 0.0
        self.e_field = 1.0  # constant EMF magnitude e'_q, fixed at init

    def initial_state(self, v, s):
        """Fix the EMF magnitude and the mechanical power at the operating point."""
        i = np.conj(s / v)
        e_vec = v + 1j * self.xd_prime * i
        _require_magnitude(np.abs(e_vec), "e", self, InfeasibleInit)
        self.e_field = np.abs(e_vec)
        self.p_m = (e_vec * np.conj(i)).real
        delta = np.angle(e_vec)
        return _columns(delta, np.ones_like(delta))

    def emf(self, x):
        return self.e_field * np.exp(1j * x[..., 0])

    def evaluate(self, x, v):
        """The state derivatives and the injected current, from one EMF."""
        e_vec = self.emf(x)
        i = (e_vec - v) * (-1j / self.xd_prime)  # ÷ j·x'_d
        slip = x[..., 1] - 1.0
        p_e = (e_vec * np.conj(i)).real
        f = np.empty(x.shape)
        np.multiply(self.omega_base, slip, out=f[..., 0])
        np.divide(self.p_m - p_e - self.damping * slip, self.inertia, out=f[..., 1])
        return f, i

    def tangent(self, x, v, dx, dv):
        """dĒ = j·dδ·Ē and dı = (dĒ - dv̄)/(j·x'_d): a = j/x'_d, b = 0 exactly."""
        e_vec, g = self.emf(x), -1j / self.xd_prime  # g = 1/(j·x'_d)
        de = 1j * dx[..., 0] * e_vec
        di = (de - dv) * g
        dp_e = (de * np.conj((e_vec - v) * g) + e_vec * np.conj(di)).real
        d_slip = dx[..., 1]
        df = _columns(self.omega_base * d_slip, -(dp_e + self.damping * d_slip) / self.inertia)
        return df, di


class ZipLoad(Device):
    """Static ZIP load: constant-impedance / constant-current / constant-power
    fractions of the base powers, as polynomials in the voltage magnitude.
    `derive` turns the draw, the fractions and `v0` into the conjugate base
    powers `sz`, `si` and `sp` of the three parts, from which the current,
    its sensitivities and its CF are each the sum of the parts' closed forms."""

    params = ("p0", "q0", "v0", "kz_p", "ki_p", "kp_p", "kz_q", "ki_q", "kp_q")
    n_states = 0
    kind = "zip"
    is_load = True
    settable_params = ("p0", "q0")

    def __init__(
        self,
        name: str,
        bus: int,
        p0: float,
        q0: float = 0.0,
        kz_p: float = 1.0,
        ki_p: float = 0.0,
        kp_p: float = 0.0,
        kz_q: float = 1.0,
        ki_q: float = 0.0,
        kp_q: float = 0.0,
    ):
        super().__init__(name, bus)
        if not abs(kz_p + ki_p + kp_p - 1.0) <= ZIP_FRACTION_TOL:
            raise ValueError(f"load {name!r}: active-power fractions must sum to 1")
        if not abs(kz_q + ki_q + kp_q - 1.0) <= ZIP_FRACTION_TOL:
            raise ValueError(f"load {name!r}: reactive-power fractions must sum to 1")
        self.p0 = p0  # scheduled draw at |v| = v0, pu
        self.q0 = q0
        self.v0 = 1.0  # a run's stack holds the power-flow voltage magnitude
        self.kz_p, self.ki_p, self.kp_p = kz_p, ki_p, kp_p
        self.kz_q, self.ki_q, self.kp_q = kz_q, ki_q, kp_q
        self.derive()

    def derive(self) -> None:
        # once per parameter change instead of at every call
        poly_p = self.kp_p + self.ki_p * self.v0 + self.kz_p * self.v0**2
        poly_q = self.kp_q + self.ki_q * self.v0 + self.kz_q * self.v0**2
        # the base powers, the draw at |v| = 1 pu; none where a polynomial
        # is 0 (x / inf, not a 0/0 warning)
        base_p = self.p0 / np.where(poly_p == 0.0, np.inf, poly_p)
        base_q = self.q0 / np.where(poly_q == 0.0, np.inf, poly_q)
        # the conjugate base power p - jq of each part
        self.sz = base_p * self.kz_p - 1j * (base_q * self.kz_q)
        self.si = base_p * self.ki_p - 1j * (base_q * self.ki_q)
        self.sp = base_p * self.kp_p - 1j * (base_q * self.kp_q)
        # some I or P part is drawn
        self.voltage_dependent = bool(np.any(self.si != 0.0) or np.any(self.sp != 0.0))

    def initial_state(self, v, s):
        """Record the power-flow voltage magnitude, at which the load draws
        its scheduled p0 + jq0."""
        self.v0 = np.abs(v)
        return np.empty(np.shape(v) + (0,))

    def evaluate(self, x, v):
        """No states: empty derivatives, and the drawn current."""
        return np.empty(np.shape(x)), self.injected_current(x, v)

    def _ip_currents(self, v):
        """The currents that the I and P parts draw at `v`."""
        v_mag = np.abs(v)
        _require_magnitude(v_mag, "v", self)
        return self.si * v / v_mag, self.sp / np.conj(v)

    def injected_current(self, x, v):
        # Split per component: the Z term never divides by the voltage.
        i = -self.sz * v
        if self.voltage_dependent:
            i_i, i_p = self._ip_currents(v)
            i = i - i_i - i_p
        return i

    def voltage_sensitivity(self, x, v):
        """The sum of the parts' closed forms: the Z part draws the current
        s_Z·v̄, the I part s_I·v̄/|v| and the P part s_P/v̄*."""
        v_mag = np.abs(v)
        _require_magnitude(v_mag, "v", self)
        vc = np.conj(v)
        half_i = self.si / (2.0 * v_mag)
        a = -self.sz - half_i
        b = half_i * v / vc + self.sp / vc**2
        return a, b

    def tangent(self, x, v, dx, dv):
        """No state derivatives, and dı = a·dv̄ + b·dv̄*."""
        a, b = self.voltage_sensitivity(x, v)
        return np.empty(np.shape(x)), a * dv + b * np.conj(dv)

    def analytic_cf(self, x, xdot, v, i, eta_v):
        """The CF of a sum is the current-weighted mean of the parts' CFs:
        η_v for the Z part, its rotation j·Im η_v for the I part and -η_v*
        for the P part, which differ from η_v by -ρ_v and -2ρ_v.  So
        η_i = η_v - ρ_v·(ı_I + 2ı_P)/ı, which is η_v itself for a pure Z
        load."""
        if not self.voltage_dependent:
            return eta_v
        i_i, i_p = self._ip_currents(v)
        # ı_I and ı_P are drawn, so they enter ı with a minus sign
        return eta_v + np.real(eta_v) * (i_i + 2.0 * i_p) / i


class _Converter(Device):
    """Shared filter algebra of both converter kinds: an internal voltage
    behind the output filter, a series impedance z_f = r + jx and a shunt
    admittance y_f = g + jb, fed from the fixed DC-side voltage `v_dc`."""

    params = ("z_f", "y_f", "v_dc")

    def __init__(self, name, bus, x_filter, p, r_filter, g_filter, b_filter, v_dc):
        super().__init__(name, bus)
        self.z_f = complex(r_filter, x_filter)
        if abs(self.z_f) == 0.0:
            raise ValueError("filter series impedance must be nonzero")
        self.y_f = complex(g_filter, b_filter)
        if not v_dc > 0.0:  # the grid-forming kind does not read it, so only this refuses NaN
            raise ValueError("DC-side voltage must be positive")
        self.v_dc = v_dc
        self.p = p

    def derive(self) -> None:
        self.through = 1.0 + self.z_f * self.y_f

    def injected_current(self, x, v):
        return (self.internal_voltage(x) - self.through * v) / self.z_f


class GridFollowingConverter(_Converter):
    """PLL-synchronized current source: PI control of the measured dq current
    against fixed references, modulation applied to the fixed DC voltage."""

    params = _Converter.params + (
        "kp_current", "ki_current", "t_measure", "kp_pll", "ki_pll", "iref_d", "iref_q",
    )
    n_states = 6
    kind = "gfl"
    settable_params = ("iref_d", "iref_q")

    def __init__(
        self,
        name: str,
        bus: int,
        x_filter: float,
        r_filter: float = 0.0,
        g_filter: float = 0.0,
        b_filter: float = 0.0,
        v_dc: float = 1.0,
        kp_current: float = 0.2,
        ki_current: float = 5.0,
        t_measure: float = 0.01,
        kp_pll: float = 0.1,
        ki_pll: float = 1.0,
        p: float = 0.0,
    ):
        super().__init__(name, bus, x_filter, p, r_filter, g_filter, b_filter, v_dc)
        if not t_measure > 0.0:
            raise ValueError("measurement time constant must be positive")
        self.kp_current = kp_current
        self.ki_current = ki_current
        self.t_measure = t_measure
        self.kp_pll = kp_pll
        self.ki_pll = ki_pll
        self.iref_d = 0.0
        self.iref_q = 0.0
        self.derive()

    def derive(self) -> None:
        super().derive()
        self.i_ref = self.iref_d + 1j * self.iref_q

    def initial_state(self, v, s):
        """Fix the current references at the operating point, with the PLL
        locked to the terminal voltage."""
        i = np.conj(s / v)
        theta = np.angle(v)
        rot = np.exp(-1j * theta)
        m_dq = (self.through * v + self.z_f * i) * rot / self.v_dc
        _require_magnitude(np.abs(m_dq), "m", self, InfeasibleInit)
        i_dq = i * rot
        self.iref_d, self.iref_q = i_dq.real, i_dq.imag
        return _columns(m_dq.real, m_dq.imag, i_dq.real, i_dq.imag, np.zeros_like(theta), theta)

    def modulation(self, x):
        return _pair(x, 0) + self.kp_current * (self.i_ref - _pair(x, 2))

    def internal_voltage(self, x):
        return self.modulation(x) * self.v_dc * np.exp(1j * x[..., 5])

    def evaluate(self, x, v):
        """The state derivatives, which read the injected current, and the current."""
        i = self.injected_current(x, v)
        rot = np.exp(-1j * x[..., 5])
        i_dq = i * rot
        v_q = (v * rot).imag
        i_m = _pair(x, 2)
        d_pi = self.ki_current * (self.i_ref - i_m)
        d_im = (i_dq - i_m) / self.t_measure
        d_omega_pll = self.kp_pll * v_q + x[..., 4]
        f = _columns(
            d_pi.real,
            d_pi.imag,
            d_im.real,
            d_im.imag,
            self.ki_pll * v_q,
            self.omega_base * d_omega_pll,
        )
        return f, i

    def tangent(self, x, v, dx, dv):
        """ē = m·v_dc·e^{jθ} moves by (dm + j·dθ·m)·v_dc·e^{jθ}; the dq frame turns by dθ."""
        turn, m_dq, i = np.exp(1j * x[..., 5]), self.modulation(x), self.injected_current(x, v)
        d_theta, d_im = dx[..., 5], _pair(dx, 2)
        de = (_pair(dx, 0) - self.kp_current * d_im + 1j * d_theta * m_dq) * self.v_dc * turn
        di = de / self.z_f - self.through / self.z_f * dv  # a = -(1 + z_f·y_f)/z_f, b = 0
        d_pi = -self.ki_current * d_im
        d_meas = ((di - 1j * d_theta * i) * np.conj(turn) - d_im) / self.t_measure
        dv_q = ((dv - 1j * d_theta * v) * np.conj(turn)).imag
        d_pll = self.omega_base * (self.kp_pll * dv_q + dx[..., 4])
        df = _columns(d_pi.real, d_pi.imag, d_meas.real, d_meas.imag, self.ki_pll * dv_q, d_pll)
        return df, di


class GridFormingConverter(_Converter):
    """Droop-synchronized voltage source: PI loop on the measured voltage
    magnitude, power-frequency droop on the filtered output power."""

    params = _Converter.params + (
        "kp_voltage", "ki_voltage", "t_voltage", "t_power", "droop", "p_ref", "v_ref",
    )
    n_states = 4
    kind = "gfm"
    settable_params = ("p_ref", "v_ref")

    def __init__(
        self,
        name: str,
        bus: int,
        x_filter: float,
        r_filter: float = 0.0,
        g_filter: float = 0.0,
        b_filter: float = 0.0,
        v_dc: float = 1.0,
        kp_voltage: float = 0.05,
        ki_voltage: float = 5.0,
        t_voltage: float = 0.02,
        t_power: float = 0.1,
        droop: float = 0.02,
        p: float = 0.0,
    ):
        super().__init__(name, bus, x_filter, p, r_filter, g_filter, b_filter, v_dc)
        if not (t_voltage > 0.0 and t_power > 0.0):
            raise ValueError("measurement time constants must be positive")
        if not droop >= 0.0:
            raise ValueError("droop gain must be nonnegative")
        self.kp_voltage = kp_voltage
        self.ki_voltage = ki_voltage
        self.t_voltage = t_voltage
        self.t_power = t_power
        self.droop = droop
        self.p_ref = 0.0
        self.v_ref = 1.0
        self.derive()

    def initial_state(self, v, s):
        """Fix the power and voltage references at the operating point."""
        i = np.conj(s / v)
        e_vec = self.through * v + self.z_f * i
        e_mag = np.abs(e_vec)
        _require_magnitude(e_mag, "e", self, InfeasibleInit)
        self.p_ref = (v * np.conj(i)).real
        self.v_ref = np.abs(v)
        return _columns(e_mag, np.angle(e_vec), self.v_ref, self.p_ref)

    def internal_voltage(self, x):
        return x[..., 0] * np.exp(1j * x[..., 1])

    def droop_frequency(self, x):
        return self.droop * (self.p_ref - x[..., 3]) + 1.0

    def evaluate(self, x, v):
        """The state derivatives, which read the injected current, and the current."""
        i = self.injected_current(x, v)
        v_mag = np.abs(v)
        p_out = (v * np.conj(i)).real
        omega = self.droop_frequency(x)
        d_e = self.ki_voltage * (self.v_ref - x[..., 2]) - self.kp_voltage / self.t_voltage * (
            x[..., 2] - v_mag
        )
        f = _columns(
            d_e,
            self.omega_base * (omega - 1.0),
            (v_mag - x[..., 2]) / self.t_voltage,
            (p_out - x[..., 3]) / self.t_power,
        )
        return f, i

    def tangent(self, x, v, dx, dv):
        """ē = e·e^{jδ} moves by (de + j·e·dδ)·e^{jδ}, and |v| by Re(v̄*·dv̄)/|v|."""
        turn, v_mag = np.exp(1j * x[..., 1]), np.abs(v)
        _require_magnitude(v_mag, "v", self)
        i = self.injected_current(x, v)
        de = (dx[..., 0] + 1j * x[..., 0] * dx[..., 1]) * turn
        di = de / self.z_f - self.through / self.z_f * dv  # as the GFL's
        dv_mag, d_vm, d_pm = (np.conj(v) * dv).real / v_mag, dx[..., 2], dx[..., 3]
        d_e = -self.ki_voltage * d_vm - self.kp_voltage / self.t_voltage * (d_vm - dv_mag)
        d_v = (dv_mag - d_vm) / self.t_voltage
        d_p = ((dv * np.conj(i) + v * np.conj(di)).real - d_pm) / self.t_power  # dp_out - dp_m
        df = _columns(d_e, -self.omega_base * self.droop * d_pm, d_v, d_p)
        return df, di
