"""Dynamic device models: classical synchronous machine, ZIP load, and
voltage-source-behind-filter converters (grid-following and grid-forming).

Conventions shared by every model:
  * all phasors live in the system-synchronous reference frame,
  * devices inject current into the network (loads inject negative current),
  * reported complex frequencies are stationary-frame per-unit values, i.e.
    the frame-relative log-derivative divided by omega_base plus j*1.

Each kind writes the same four methods the integrator relies on:
`initial_state`, which back-solves the states and setpoints from the
power-flow terminal voltage and the device's complex-power share,
`evaluate`, which returns the state derivatives and the injected current
from one shared computation (`derivatives` and `injected_current` give each
alone), and the closed-form current sensitivities used to recover exact
voltage rates (`voltage_sensitivity`: (a, b) such that dı̄ = a·dv̄ + b·dv̄* at
fixed states, one per terminal voltage; `current_state_rate`, below).
`Device.analytic_cf` builds every source's current CF from the two
sensitivities by the chain rule; a ZIP load's CF is the current-weighted
mean of its parts' closed forms.

Each kind is one `Device` subclass that declares its parameters (`params`),
its states and its equations once.  The equations broadcast, so the same
class serves two shapes: a scenario's device, with float parameters and
states (n_states,), and a run's `Device.stack` of all devices of the kind,
with (n,) parameter arrays, states (..., n, n_states) and terminal voltages
(..., n), which the simulator evaluates with one numpy call per kind;
leading axes are samples.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InfeasibleInit, MagnitudeUnderflow
from .primitives import MAGNITUDE_GUARD

ZIP_FRACTION_TOL = 1e-12


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
# The paper's closed-form current CFs.  A source's CF comes from
# `Device.analytic_cf`, which the tests check against the first two; a ZIP
# load's CF is the current-weighted mean of its parts' CFs, of which the last
# two are the Z and P parts' (`ZipLoad.analytic_cf`).
# ---------------------------------------------------------------------------

def sm_current_cf(s, i_mag, xd_prime, omega_r, eta_v):
    """CF of the current injected by a classical machine.

    `s` is the terminal complex power v̄·ı̄*, `i_mag` the current magnitude,
    `omega_r` the rotor speed in pu and `eta_v` the stationary-frame CF of
    the terminal voltage.  Broadcasts over numpy arrays.
    """
    j_omega = 1j * omega_r
    return s / (1j * xd_prime * i_mag**2) * (j_omega - eta_v) + j_omega


def ibr_current_cf(s, i_mag, z_f, y_f, eta_e, eta_v):
    """CF of the current injected by a voltage source ē behind a series
    impedance z̄_f and shunt admittance ȳ_f.

    Degenerates to `sm_current_cf` for z̄_f = j·x'_d, ȳ_f = 0 and
    η̄_e = j·ω_r.
    """
    return s / (z_f * i_mag**2) * (1.0 + z_f * y_f) * (eta_e - eta_v) + eta_e


def z_load_cf(eta_v):
    """Constant-impedance load: the current CF equals the voltage CF."""
    return eta_v


def s_load_cf(eta_v):
    """Constant-power load: the current CF is the negated conjugate of the
    voltage CF (rho flips sign, omega is preserved)."""
    return -np.conj(eta_v)


# ---------------------------------------------------------------------------
# Device models
# ---------------------------------------------------------------------------

class Device:
    """Base class; each kind declares its parameters, states and equations.

    An instance is one device, as a scenario declares it, or the stack of
    all devices of its kind in a run (`stack`), whose `name` and `bus` list
    the devices' names and buses and whose parameters are (n,) arrays.  A
    scenario's device is a read-only spec: a run copies its `params` into
    the stack and changes only those.  `initial_state` writes the operating
    point into the parameters, events edit their rows, and `derive`, which
    the constructors call, has to run after either.  An instance whose
    `voltage_dependent` is False has a `voltage_sensitivity` that depends on
    its parameters only.
    """

    params: tuple[str, ...] = ()  # what `stack` copies
    n_states: int = 0
    state_names: tuple[str, ...] = ()
    kind: str = "device"
    is_load: bool = False
    settable_params: tuple[str, ...] = ()
    voltage_dependent = False

    def __init__(self, name: str, bus: int):
        self.name = name
        self.bus = bus

    @classmethod
    def stack(cls, devices: list[Device], start: int) -> Device:
        """The `devices`, all of this kind, as one instance; `states` is its
        range of the system state vector, which holds the devices' states
        one after another from `start`.  The devices are only read."""
        blk = cls.__new__(cls)
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

    def current_state_rate(self, x, xdot, v):
        """State-driven part of dı̄/dt (the voltage-driven part comes from
        `voltage_sensitivity`).  It is linear in `xdot`, so a unit rate e_k
        gives ∂ı/∂x_k; the integrator builds its Newton matrix from that."""
        return 0.0 + 0.0j

    def analytic_cf(self, x, xdot, v, i, eta_v):
        """Stationary-frame CF of the injected current `i`, from the
        closed-form sensitivities by the chain rule dı̄/dt =
        `current_state_rate` + a·dv̄/dt + b·(dv̄/dt)*, with (a, b) from
        `voltage_sensitivity` and dv̄/dt = ω_b·(η_v - j)·v̄ from `eta_v`.
        `xdot` and `i` are what `evaluate` returns at (x, v), with no zero
        in `i` (`DaeSystem.analytic_cf` masks those).  Reads the kind's
        `omega_base`."""
        a, b = self.voltage_sensitivity(x, v)
        v_dot = self.omega_base * (eta_v - 1j) * v
        i_dot = self.current_state_rate(x, xdot, v) + a * v_dot + b * np.conj(v_dot)
        return i_dot / (i * self.omega_base) + 1j

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, bus={self.bus})"


class SynchronousMachine(Device):
    """Lossless classical model: constant EMF magnitude behind x'_d, swing
    dynamics in (rotor angle, speed)."""

    params = ("e_field", "xd_prime", "p_m", "damping", "inertia", "omega_base")
    n_states = 2
    state_names = ("delta", "omega")
    kind = "sm"
    settable_params = ("p_m", "damping")

    def __init__(
        self,
        name: str,
        bus: int,
        inertia: float,
        xd_prime: float,
        omega_base: float,
        damping: float = 0.0,
        p: float = 0.0,
        q_weight: float | None = None,
    ):
        super().__init__(name, bus)
        if inertia <= 0.0 or xd_prime <= 0.0:
            raise ValueError("inertia and xd_prime must be positive")
        self.inertia = inertia
        self.xd_prime = xd_prime
        self.damping = damping
        self.omega_base = omega_base
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

    def voltage_sensitivity(self, x, v):
        a = np.broadcast_to(1j / self.xd_prime, np.shape(v))  # the same at every sample
        return a, 0.0 * a

    def current_state_rate(self, x, xdot, v):
        # dĒ/dt = j·δ̇·Ē
        return 1j * xdot[..., 0] * self.emf(x) * (-1j / self.xd_prime)


class ZipParts(NamedTuple):
    """What `ZipLoad.derive` computes from the draws, the fractions and `v0`."""

    base_p: float  # base powers: the draw at |v| = 1 pu
    base_q: float
    sz: complex  # conjugate base power p - jq of the Z part
    si: complex  # ... of the I part
    sp: complex  # ... of the P part


class ZipLoad(Device):
    """Static ZIP load: constant-impedance / constant-current / constant-power
    fractions of the base powers, as polynomials in the voltage magnitude."""

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
        if abs(kz_p + ki_p + kp_p - 1.0) > ZIP_FRACTION_TOL:
            raise ValueError(f"load {name!r}: active-power fractions must sum to 1")
        if abs(kz_q + ki_q + kp_q - 1.0) > ZIP_FRACTION_TOL:
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
        # no base power where a polynomial is 0 (x / inf, not a 0/0 warning)
        base_p = self.p0 / np.where(poly_p == 0.0, np.inf, poly_p)
        base_q = self.q0 / np.where(poly_q == 0.0, np.inf, poly_q)
        si = base_p * self.ki_p - 1j * (base_q * self.ki_q)
        sp = base_p * self.kp_p - 1j * (base_q * self.kp_q)
        self.parts = ZipParts(
            base_p=base_p,
            base_q=base_q,
            sz=base_p * self.kz_p - 1j * (base_q * self.kz_q),
            si=si,
            sp=sp,
        )
        # some I or P part is drawn
        self.voltage_dependent = bool(np.any(si != 0.0) or np.any(sp != 0.0))

    def initial_state(self, v, s):
        """Record the power-flow voltage magnitude, at which the load draws
        its scheduled p0 + jq0."""
        self.v0 = np.abs(v)
        return np.empty(np.shape(v) + (0,))

    def drawn_power(self, v_mag):
        parts = self.parts
        p = parts.base_p * (self.kp_p + self.ki_p * v_mag + self.kz_p * v_mag**2)
        q = parts.base_q * (self.kp_q + self.ki_q * v_mag + self.kz_q * v_mag**2)
        return p, q

    def evaluate(self, x, v):
        """No states: empty derivatives, and the drawn current."""
        return np.empty(np.shape(x)), self.injected_current(x, v)

    def _ip_currents(self, v):
        """The currents that the I and P parts draw at `v`."""
        v_mag = np.abs(v)
        _require_magnitude(v_mag, "v", self)
        return self.parts.si * v / v_mag, self.parts.sp / np.conj(v)

    def injected_current(self, x, v):
        # Split per component: the Z term never divides by the voltage.
        i = -self.parts.sz * v
        if self.voltage_dependent:
            i_i, i_p = self._ip_currents(v)
            i = i - i_i - i_p
        return i

    def voltage_sensitivity(self, x, v):
        v_mag = np.abs(v)
        p, q = self.drawn_power(v_mag)
        _require_magnitude(v_mag, "v", self)
        dp = self.parts.base_p * (self.ki_p + 2.0 * self.kz_p * v_mag)
        dq = self.parts.base_q * (self.ki_q + 2.0 * self.kz_q * v_mag)
        g = dp - 1j * dq
        vc = np.conj(v)
        a = -g / (2.0 * v_mag)
        b = -g * v / (2.0 * v_mag * vc) + (p - 1j * q) / vc**2
        return a, b

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


class IbrFilter:
    """Output filter of a converter: series impedance z_f = r + jx, shunt
    admittance y_f = g + jb and the fixed DC-side voltage."""

    def __init__(
        self,
        x_filter: float,
        r_filter: float = 0.0,
        g_filter: float = 0.0,
        b_filter: float = 0.0,
        v_dc: float = 1.0,
    ):
        self.z_f = complex(r_filter, x_filter)
        if abs(self.z_f) == 0.0:
            raise ValueError("filter series impedance must be nonzero")
        self.y_f = complex(g_filter, b_filter)
        self.v_dc = v_dc


class _Converter(Device):
    """Shared filter algebra of both converter kinds: an internal voltage
    behind the filter, whose values the converter keeps as its own."""

    params = ("z_f", "y_f", "v_dc", "through", "omega_base")

    def __init__(self, name: str, bus: int, filter: IbrFilter, omega_base: float, p: float):
        super().__init__(name, bus)
        self.z_f = filter.z_f
        self.y_f = filter.y_f
        self.v_dc = filter.v_dc
        self.through = 1.0 + self.z_f * self.y_f
        self.omega_base = omega_base
        self.p = p

    def injected_current(self, x, v):
        return (self.internal_voltage(x) - self.through * v) / self.z_f

    def voltage_sensitivity(self, x, v):
        a = np.broadcast_to(-self.through / self.z_f, np.shape(v))  # the same at every sample
        return a, 0.0 * a


class GridFollowingConverter(_Converter):
    """PLL-synchronized current source: PI control of the measured dq current
    against fixed references, modulation applied to the fixed DC voltage."""

    params = _Converter.params + (
        "kp_current", "ki_current", "t_measure", "kp_pll", "ki_pll", "iref_d", "iref_q",
    )
    n_states = 6
    state_names = ("pi_d", "pi_q", "im_d", "im_q", "x_pll", "theta")
    kind = "gfl"
    settable_params = ("iref_d", "iref_q")

    def __init__(
        self,
        name: str,
        bus: int,
        filter: IbrFilter,
        omega_base: float,
        kp_current: float = 0.2,
        ki_current: float = 5.0,
        t_measure: float = 0.01,
        kp_pll: float = 0.1,
        ki_pll: float = 1.0,
        p: float = 0.0,
    ):
        super().__init__(name, bus, filter, omega_base, p)
        if t_measure <= 0.0:
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

    def modulation_rate(self, xdot):
        return _pair(xdot, 0) - self.kp_current * _pair(xdot, 2)

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

    def current_state_rate(self, x, xdot, v):
        m_dq = self.modulation(x)
        _require_magnitude(np.abs(m_dq), "m", self)
        e_vec = self.internal_voltage(x)
        e_dot = (self.modulation_rate(xdot) / m_dq + 1j * xdot[..., 5]) * e_vec
        return e_dot / self.z_f


class GridFormingConverter(_Converter):
    """Droop-synchronized voltage source: PI loop on the measured voltage
    magnitude, power-frequency droop on the filtered output power."""

    params = _Converter.params + (
        "kp_voltage", "ki_voltage", "t_voltage", "t_power", "droop", "p_ref", "v_ref",
    )
    n_states = 4
    state_names = ("e", "delta", "v_m", "p_m")
    kind = "gfm"
    settable_params = ("p_ref", "v_ref")

    def __init__(
        self,
        name: str,
        bus: int,
        filter: IbrFilter,
        omega_base: float,
        kp_voltage: float = 0.05,
        ki_voltage: float = 5.0,
        t_voltage: float = 0.02,
        t_power: float = 0.1,
        droop: float = 0.02,
        p: float = 0.0,
    ):
        super().__init__(name, bus, filter, omega_base, p)
        if t_voltage <= 0.0 or t_power <= 0.0:
            raise ValueError("measurement time constants must be positive")
        if droop < 0.0:
            raise ValueError("droop gain must be nonnegative")
        self.kp_voltage = kp_voltage
        self.ki_voltage = ki_voltage
        self.t_voltage = t_voltage
        self.t_power = t_power
        self.droop = droop
        self.p_ref = 0.0
        self.v_ref = 1.0

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

    def current_state_rate(self, x, xdot, v):
        _require_magnitude(x[..., 0], "e", self)
        e_dot = (xdot[..., 0] / x[..., 0] + 1j * xdot[..., 1]) * self.internal_voltage(x)
        return e_dot / self.z_f
