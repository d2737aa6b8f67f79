"""Dynamic device models: classical synchronous machine, ZIP load, and
voltage-source-behind-filter converters (grid-following and grid-forming).

Conventions shared by every model:
  * all phasors live in the system-synchronous reference frame,
  * devices inject current into the network (loads inject negative current),
  * reported complex frequencies are stationary-frame per-unit values, i.e.
    the frame-relative log-derivative divided by omega_base plus j*1.

Each device exposes the same small surface the integrator relies on:
`initial_state`, which back-solves the states and setpoints from the
power-flow terminal voltage and the device's complex-power share,
`derivatives`, `injected_current`, the analytic current sensitivities used to
recover exact voltage rates (`voltage_sensitivity`: (a, b) such that
dı̄ = a·dv̄ + b·dv̄* at fixed states; `current_state_rate`, below) and
`analytic_cf`.

The equations of each kind are written once, in an `_*Equations` mixin, and
broadcast over devices.  A `Device` evaluates them with float parameters and
states of shape (n_states,); the kind's `DeviceBlock` evaluates the same code
with parameter arrays, states of shape (n, n_states) and one terminal voltage
per device, so the simulator makes one numpy call per kind.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InfeasibleInit, MagnitudeUnderflow, NotAnalytical
from .primitives import MAGNITUDE_GUARD

ZIP_FRACTION_TOL = 1e-12


def _require_magnitude(value, what: str, owner, error=MagnitudeUnderflow) -> None:
    """Raise `error` for the first of `owner.names` whose |what| is at or below the guard."""
    low = value <= MAGNITUDE_GUARD
    if low.any():
        k = int(np.argmax(low))
        raise error(
            f"|{what}({owner.names[k]})| = {np.atleast_1d(value)[k]:.3e} at or below guard"
        )


def _columns(*cols) -> np.ndarray:
    """Stack per-device values along a new last axis, the state index."""
    return np.array(cols).T


# ---------------------------------------------------------------------------
# Closed-form current CFs
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
# Blocks: the devices of one kind, evaluated together
# ---------------------------------------------------------------------------

class DeviceBlock:
    """The devices of one kind, evaluated with one numpy call per method.

    A block is the only parameter store of a run: it copies the attributes
    in `params` from its devices into arrays when it is built and keeps no
    reference to them.  `initial_state` writes the operating point into the
    arrays, events edit their rows, and `derive` has to run after either.
    `states` is the block's range of the system state vector, which holds
    the devices' states one after another.  A block whose
    `voltage_dependent` is False has a `voltage_sensitivity` that depends on
    its parameters only.
    """

    params: tuple[str, ...] = ()
    voltage_dependent = False

    def __init__(self, devices: list[Device], start: int):
        self.names = [d.name for d in devices]
        self.n = len(devices)
        self.n_states = devices[0].n_states
        self.bus = np.array([d.bus for d in devices], dtype=int)
        self.states = slice(start, start + self.n * self.n_states)
        for name in self.params:
            values = [getattr(d, name) for d in devices]
            setattr(self, name, np.array(values, dtype=np.result_type(float, *values)))

    def derive(self) -> None:
        """Recompute the values derived from the parameter arrays."""


# ---------------------------------------------------------------------------
# Device models
# ---------------------------------------------------------------------------

class Device:
    """Base class; subclasses fill in the state layout and physics.

    A device in a scenario is a read-only spec: a run copies its parameters
    into the kind's block and changes only those.  The scalar methods
    evaluate the same equations as the block, for one device.
    """

    n_states: int = 0
    state_names: tuple[str, ...] = ()
    kind: str = "device"
    has_analytic_cf: bool = True
    is_load: bool = False
    settable_params: tuple[str, ...] = ()
    block: type[DeviceBlock]  # evaluates all devices of this kind at once

    def __init__(self, name: str, bus: int):
        self.name = name
        self.bus = bus

    @property
    def names(self) -> list[str]:
        return [self.name]

    def derivatives(self, x: np.ndarray, v: complex) -> np.ndarray:
        return np.empty(0)

    def current_state_rate(self, x: np.ndarray, xdot: np.ndarray, v: complex) -> complex:
        """State-driven part of dı̄/dt (the voltage-driven part comes from
        `voltage_sensitivity`).  It is linear in `xdot`, so a unit rate e_k
        gives ∂ı/∂x_k; the integrator builds its Newton matrix from that."""
        return 0.0 + 0.0j

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, bus={self.bus})"


class _SmEquations:
    """Equations of `SynchronousMachine`, shared with `SmBlock`."""

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

    def injected_current(self, x, v):
        return (self.emf(x) - v) * (-1j / self.xd_prime)  # ÷ j·x'_d

    def electrical_power(self, x, v):
        e_vec = self.emf(x)
        i = (e_vec - v) * (-1j / self.xd_prime)
        return (e_vec * np.conj(i)).real

    def derivatives(self, x, v):
        slip = x[..., 1] - 1.0
        p_e = self.electrical_power(x, v)
        d_omega = (self.p_m - p_e - self.damping * slip) / self.inertia
        return _columns(self.omega_base * slip, d_omega)

    def voltage_sensitivity(self, x, v):
        a = 1j / self.xd_prime
        return a, 0.0 * a

    def current_state_rate(self, x, xdot, v):
        # dĒ/dt = j·δ̇·Ē
        return 1j * xdot[..., 0] * self.emf(x) * (-1j / self.xd_prime)

    def analytic_cf(self, x, xdot, v, eta_v):
        i = self.injected_current(x, v)
        i_mag = np.abs(i)
        _require_magnitude(i_mag, "i", self)
        return sm_current_cf(v * np.conj(i), i_mag, self.xd_prime, x[..., 1], eta_v)


class SmBlock(_SmEquations, DeviceBlock):
    params = ("e_field", "xd_prime", "p_m", "damping", "inertia", "omega_base")


class SynchronousMachine(_SmEquations, Device):
    """Lossless classical model: constant EMF magnitude behind x'_d, swing
    dynamics in (rotor angle, speed)."""

    n_states = 2
    state_names = ("delta", "omega")
    kind = "sm"
    settable_params = ("p_m", "damping")
    block = SmBlock

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
        v_set: float | None = None,
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
        self.v_set = v_set
        self.p_m = 0.0
        self.e_field = 1.0  # constant EMF magnitude e'_q, fixed at init


class ZipParts(NamedTuple):
    """What the ZIP equations derive from the base powers and fractions."""

    sz: complex  # conjugate base power p - jq of the Z part
    si: complex  # ... of the I part
    sp: complex  # ... of the P part
    voltage_dependent: bool  # some I or P part is drawn
    pure_z: bool
    pure_p: bool


class _ZipEquations:
    """Equations of `ZipLoad`, shared with `ZipBlock`."""

    def initial_state(self, v, s):
        """Keep the scheduled draw -s as `nominal_p`/`nominal_q` and rescale
        the base powers so that the draw at |v| equals it."""
        v_mag = np.abs(v)
        self.nominal_p, self.nominal_q = -s.real, -s.imag
        poly_p = self.kp_p + self.ki_p * v_mag + self.kz_p * v_mag**2
        poly_q = self.kp_q + self.ki_q * v_mag + self.kz_q * v_mag**2
        # no base power where a polynomial is 0 (x / inf, not a 0/0 warning)
        self.p0 = self.nominal_p / np.where(poly_p == 0.0, np.inf, poly_p)
        self.q0 = self.nominal_q / np.where(poly_q == 0.0, np.inf, poly_q)
        return np.empty(np.shape(v) + (0,))

    def zip_parts(self) -> ZipParts:
        no_p, no_q = self.p0 == 0.0, self.q0 == 0.0
        si = self.p0 * self.ki_p - 1j * (self.q0 * self.ki_q)
        sp = self.p0 * self.kp_p - 1j * (self.q0 * self.kp_q)
        return ZipParts(
            sz=self.p0 * self.kz_p - 1j * (self.q0 * self.kz_q),
            si=si,
            sp=sp,
            voltage_dependent=bool(np.any(si != 0.0) or np.any(sp != 0.0)),
            pure_z=(no_p | (self.kz_p == 1.0)) & (no_q | (self.kz_q == 1.0)),
            pure_p=(no_p | (self.kp_p == 1.0)) & (no_q | (self.kp_q == 1.0)),
        )

    def drawn_power(self, v_mag):
        p = self.p0 * (self.kp_p + self.ki_p * v_mag + self.kz_p * v_mag**2)
        q = self.q0 * (self.kp_q + self.ki_q * v_mag + self.kz_q * v_mag**2)
        return p, q

    def injected_current(self, x, v):
        # Split per component: the Z term never divides by the voltage.
        parts = self.parts
        i = -parts.sz * v
        if parts.voltage_dependent:
            v_mag = np.abs(v)
            _require_magnitude(v_mag, "v", self)
            i = i - parts.si * v / v_mag - parts.sp / np.conj(v)
        return i

    def voltage_sensitivity(self, x, v):
        v_mag = np.abs(v)
        p, q = self.drawn_power(v_mag)
        _require_magnitude(v_mag, "v", self)
        dp = self.p0 * (self.ki_p + 2.0 * self.kz_p * v_mag)
        dq = self.q0 * (self.ki_q + 2.0 * self.kz_q * v_mag)
        g = dp - 1j * dq
        vc = np.conj(v)
        a = -g / (2.0 * v_mag)
        b = -g * v / (2.0 * v_mag * vc) + (p - 1j * q) / vc**2
        return a, b

    def analytic_cf(self, x, xdot, v, eta_v):
        """Closed form of pure Z and pure P loads; NaN for mixed loads."""
        parts = self.parts
        return np.where(
            parts.pure_z, z_load_cf(eta_v), np.where(parts.pure_p, s_load_cf(eta_v), np.nan)
        )


class ZipBlock(_ZipEquations, DeviceBlock):
    params = ("p0", "q0", "kz_p", "ki_p", "kp_p", "kz_q", "ki_q", "kp_q")

    def derive(self) -> None:
        # once per parameter change instead of at every call
        self.parts = self.zip_parts()
        self.voltage_dependent = self.parts.voltage_dependent


class ZipLoad(_ZipEquations, Device):
    """Static ZIP load: constant-impedance / constant-current / constant-power
    fractions of the base powers, as polynomials in the voltage magnitude."""

    n_states = 0
    kind = "zip"
    is_load = True
    settable_params = ("p0", "q0")
    block = ZipBlock

    def __init__(
        self,
        name: str,
        bus: int,
        p0: float,
        q0: float,
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
        self.p0 = p0  # scheduled draw at the power-flow point, pu
        self.q0 = q0
        self.kz_p, self.ki_p, self.kp_p = kz_p, ki_p, kp_p
        self.kz_q, self.ki_q, self.kp_q = kz_q, ki_q, kp_q

    @property
    def parts(self) -> ZipParts:
        return self.zip_parts()

    @property
    def has_analytic_cf(self) -> bool:  # type: ignore[override]
        return bool(self.parts.pure_z or self.parts.pure_p)

    def analytic_cf(self, x, xdot, v, eta_v):
        if not self.has_analytic_cf:
            raise NotAnalytical(
                f"load {self.name!r} mixes ZIP components; use the numerical estimator"
            )
        return complex(super().analytic_cf(x, xdot, v, eta_v))


class IbrFilter:
    """Output filter of a converter: series impedance, shunt admittance and
    the fixed DC-side voltage."""

    def __init__(self, z_f: complex, y_f: complex = 0j, v_dc: float = 1.0):
        if abs(z_f) == 0.0:
            raise ValueError("filter series impedance must be nonzero")
        self.z_f = complex(z_f)
        self.y_f = complex(y_f)
        self.v_dc = v_dc
        self.through = 1.0 + self.z_f * self.y_f


class _ConverterEquations:
    """Shared filter algebra of both converter types."""

    def injected_current(self, x, v):
        return (self.internal_voltage(x) - self.through * v) / self.z_f

    def voltage_sensitivity(self, x, v):
        a = -self.through / self.z_f
        return a, 0.0 * a

    def _cf_from_internal(self, x, v, eta_v, eta_e):
        i = self.injected_current(x, v)
        i_mag = np.abs(i)
        _require_magnitude(i_mag, "i", self)
        return ibr_current_cf(v * np.conj(i), i_mag, self.z_f, self.y_f, eta_e, eta_v)


class _ConverterBase(Device):
    """Scalar converter: the filter parameters read through to `filter`."""

    def __init__(self, name: str, bus: int, filter: IbrFilter, omega_base: float, p: float):
        super().__init__(name, bus)
        self.filter = filter
        self.omega_base = omega_base
        self.p = p

    z_f = property(lambda self: self.filter.z_f)
    y_f = property(lambda self: self.filter.y_f)
    v_dc = property(lambda self: self.filter.v_dc)
    through = property(lambda self: self.filter.through)


_FILTER_PARAMS = ("z_f", "y_f", "v_dc", "through", "omega_base")


class _GflEquations(_ConverterEquations):
    """Equations of `GridFollowingConverter`, shared with `GflBlock`."""

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
        err = self.i_ref - (x[..., 2] + 1j * x[..., 3])
        return (x[..., 0] + 1j * x[..., 1]) + self.kp_current * err

    def modulation_rate(self, xdot):
        return (xdot[..., 0] + 1j * xdot[..., 1]) - self.kp_current * (
            xdot[..., 2] + 1j * xdot[..., 3]
        )

    def internal_voltage(self, x):
        return self.modulation(x) * self.v_dc * np.exp(1j * x[..., 5])

    def derivatives(self, x, v):
        rot = np.exp(-1j * x[..., 5])
        i_dq = self.injected_current(x, v) * rot
        v_q = (v * rot).imag
        i_m = x[..., 2] + 1j * x[..., 3]
        d_pi = self.ki_current * (self.i_ref - i_m)
        d_im = (i_dq - i_m) / self.t_measure
        d_omega_pll = self.kp_pll * v_q + x[..., 4]
        return _columns(
            d_pi.real,
            d_pi.imag,
            d_im.real,
            d_im.imag,
            self.ki_pll * v_q,
            self.omega_base * d_omega_pll,
        )

    def current_state_rate(self, x, xdot, v):
        e_vec = self.internal_voltage(x)
        e_dot = (self.modulation_rate(xdot) / self.modulation(x) + 1j * xdot[..., 5]) * e_vec
        return e_dot / self.z_f

    def internal_cf(self, x, xdot, v):
        """Stationary-frame CF of the modulated internal voltage: radial part
        from the modulation magnitude, rotational part from the dq angle rate
        plus the PLL frequency estimate."""
        m_dq = self.modulation(x)
        _require_magnitude(np.abs(m_dq), "m", self)
        log_rate = self.modulation_rate(xdot) / m_dq  # ṁ/m + j·α̇, 1/s
        v_q = (v * np.exp(-1j * x[..., 5])).imag
        omega_est = self.kp_pll * v_q + x[..., 4] + self.omega_ref
        return log_rate / self.omega_base + 1j * omega_est

    def analytic_cf(self, x, xdot, v, eta_v):
        return self._cf_from_internal(x, v, eta_v, self.internal_cf(x, xdot, v))


class GflBlock(_GflEquations, DeviceBlock):
    params = _FILTER_PARAMS + (
        "kp_current", "ki_current", "t_measure", "kp_pll", "ki_pll", "omega_ref",
        "iref_d", "iref_q",
    )

    def derive(self) -> None:
        self.i_ref = self.iref_d + 1j * self.iref_q


class GridFollowingConverter(_GflEquations, _ConverterBase):
    """PLL-synchronized current source: PI control of the measured dq current
    against fixed references, modulation applied to the fixed DC voltage."""

    n_states = 6
    state_names = ("pi_d", "pi_q", "im_d", "im_q", "x_pll", "theta")
    kind = "gfl"
    settable_params = ("iref_d", "iref_q")
    block = GflBlock

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
        omega_ref: float = 1.0,
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
        self.omega_ref = omega_ref
        self.iref_d = 0.0
        self.iref_q = 0.0

    @property
    def i_ref(self) -> complex:
        return complex(self.iref_d, self.iref_q)


class _GfmEquations(_ConverterEquations):
    """Equations of `GridFormingConverter`, shared with `GfmBlock`."""

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

    def derivatives(self, x, v):
        v_mag = np.abs(v)
        p_out = (v * np.conj(self.injected_current(x, v))).real
        omega = self.droop_frequency(x)
        d_e = self.ki_voltage * (self.v_ref - x[..., 2]) - self.kp_voltage / self.t_voltage * (
            x[..., 2] - v_mag
        )
        return _columns(
            d_e,
            self.omega_base * (omega - 1.0),
            (v_mag - x[..., 2]) / self.t_voltage,
            (p_out - x[..., 3]) / self.t_power,
        )

    def current_state_rate(self, x, xdot, v):
        e_dot = (xdot[..., 0] / x[..., 0] + 1j * xdot[..., 1]) * self.internal_voltage(x)
        return e_dot / self.z_f

    def internal_cf(self, x, xdot):
        _require_magnitude(x[..., 0], "e", self)
        return xdot[..., 0] / (x[..., 0] * self.omega_base) + 1j * self.droop_frequency(x)

    def analytic_cf(self, x, xdot, v, eta_v):
        return self._cf_from_internal(x, v, eta_v, self.internal_cf(x, xdot))


class GfmBlock(_GfmEquations, DeviceBlock):
    params = _FILTER_PARAMS + (
        "kp_voltage", "ki_voltage", "t_voltage", "t_power", "droop", "p_ref", "v_ref",
    )


class GridFormingConverter(_GfmEquations, _ConverterBase):
    """Droop-synchronized voltage source: PI loop on the measured voltage
    magnitude, power-frequency droop on the filtered output power."""

    n_states = 4
    state_names = ("e", "delta", "v_m", "p_m")
    kind = "gfm"
    settable_params = ("p_ref", "v_ref")
    block = GfmBlock

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
