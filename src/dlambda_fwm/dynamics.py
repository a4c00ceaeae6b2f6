"""Time-domain pulse propagation: slow light and pulsed conversion.

Model reduction
---------------
The optical coherences relax at ~Gamma/2, orders of magnitude faster than
the microsecond-scale pulse envelopes, so rho31 and rho41 are eliminated
adiabatically: at each instant they take their steady value for the
current fields and ground-state coherence rho21(z).  What remains dynamic
is rho21 (the EIT storage degree of freedom) plus the quasi-static field
profiles:

    rho21_t = c1*rho21 + c2*Op + c3*Os          (one ODE per grid cell)
    Op_z    = a_p*Op + b_p*rho21                (forward, Op(0) given)
    Os_z    = a_s*Os + b_s*rho21                (backward, Os(L) = 0)

Transit-time terms are dropped (L/c is ~5 orders below 1/Gamma).  On
n_z slabs the field equations are integrated with an exact exponential
integrator for piecewise-linear sources, so each field is a fixed
triangular matrix times rho21 (lower for the forward probe, upper for
the backward signal) plus the free probe wave.  rho21 advances with the
implicit trapezoidal rule; the model is linear and time-invariant, so
that step is one precomputed (n_z+1)^2 map, rho <- step @ rho +
drive*(u[n] + u[n+1]), and the boundary outputs are two taps on rho.

Everything is linear in the probe, so traces are computed for a unit
input amplitude and reported as normalized intensities; peak_amplitude
never enters the solve (scaling it rescales output intensities exactly
quadratically, by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, GridError
from .params import DetuningSet, DriveParams, MediumParams
from .steady_numeric import _coefficients, _point

DT_GAMMA_LIMIT = 0.5
TAIL_FRACTION = 1e-4

DEFAULT_N_T = 12000
DEFAULT_N_Z = 200
MAX_N_Z = 1000
MAX_N_T = 10 ** 6


@dataclass(frozen=True)
class PulseSpec:
    """Input probe pulse description.

    duration is the full width at 1/e^2 of *intensity* for the gaussian
    shape, or the hold time for flat_top.  The gaussian is centered at
    t_start + duration; the flat_top ramps up from t_start over `ramp`
    seconds (default duration/10), holds, and ramps down.  grid is
    (t_min, t_max, n_t): n_t uniform steps (100 <= n_t <= MAX_N_T), n_t + 1
    samples.
    """

    shape: str
    duration: float
    peak_amplitude: float = 1.0
    t_start: float = 20e-6
    ramp: Optional[float] = None
    grid: tuple = (0.0, 150e-6, DEFAULT_N_T)

    def __post_init__(self):
        if self.shape not in ("gaussian", "flat_top"):
            raise DomainError(f"unknown pulse shape {self.shape!r}")
        if not self.duration > 0.0:
            raise DomainError(f"duration must be > 0, got {self.duration}")
        if self.ramp is None:
            object.__setattr__(self, "ramp", self.duration / 10.0)
        if not self.ramp > 0.0:
            raise DomainError(f"ramp must be > 0, got {self.ramp}")
        t_min, t_max, n_t = self.grid
        if not (t_max > t_min):
            raise GridError(f"empty time grid ({t_min}, {t_max})")
        if not 100 <= int(n_t) <= MAX_N_T:
            raise GridError(f"n_t must be in [100, {MAX_N_T}], got {n_t}")

    def support_end(self) -> float:
        if self.shape == "gaussian":
            return self.t_start + 2.0 * self.duration
        return self.t_start + 2.0 * self.ramp + self.duration

    def times(self) -> np.ndarray:
        t_min, t_max, n_t = self.grid
        return np.linspace(t_min, t_max, int(n_t) + 1)

    def amplitude(self, t: np.ndarray) -> np.ndarray:
        """Normalized (peak 1) input amplitude on the given time samples."""
        if self.shape == "gaussian":
            t0 = self.t_start + self.duration
            return np.exp(-4.0 * (t - t0) ** 2 / self.duration ** 2)
        y = np.zeros_like(t)
        r, h, s = self.ramp, self.duration, self.t_start
        up = (t >= s) & (t < s + r)
        y[up] = np.sin(0.5 * np.pi * (t[up] - s) / r) ** 2
        y[(t >= s + r) & (t < s + r + h)] = 1.0
        dn = (t >= s + r + h) & (t < s + 2 * r + h)
        y[dn] = np.cos(0.5 * np.pi * (t[dn] - s - r - h) / r) ** 2
        return y


@dataclass(frozen=True)
class PulseTrace:
    """Boundary intensity records, all normalized to the input peak."""

    t: np.ndarray
    probe_in: np.ndarray
    probe_out: np.ndarray
    signal_out: np.ndarray


@dataclass(frozen=True)
class EnergyBudget:
    t_pulse: float
    ce_pulse: float
    loss: float
    truncated: bool


def _march(z: complex, n_z: int) -> tuple:
    """The slab-by-slab march f[k] = e^z f[k-1] + (phi1 - phi2) g[k-1] +
    phi2 g[k], exact for f' = a f + g with g linear over a slab (z = a*h,
    phi1 = (e^z - 1)/z, phi2 = (e^z - 1 - z)/z^2), as a lower-triangular
    K with f = K @ g for f[0] = 0, and the free solution e^(k z)."""
    if abs(z) < 1e-5:
        p1 = 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0
        p2 = 0.5 + z / 6.0 + z * z / 24.0 + z ** 3 / 120.0
    else:
        ez = np.exp(z)
        p1 = (ez - 1.0) / z
        p2 = (ez - 1.0 - z) / (z * z)
    k = np.arange(n_z + 1)
    prop = np.tril(np.exp(z * np.maximum(np.subtract.outer(k, k), 0)))
    march = np.zeros_like(prop)
    march[1:] = (p1 - p2) * prop[:-1]
    march[:, 1:] += p2 * prop[:, 1:]
    return march, prop[:, 0]


def simulate_pulse(m: MediumParams, d: DriveParams, det: DetuningSet,
                   p: PulseSpec, n_z: int = DEFAULT_N_Z) -> PulseTrace:
    """Propagate a probe pulse through the medium.

    Raises GridError if the time step violates dt*Gamma <= 0.5, if n_z is
    outside [50, 1000] (the step matrix has (n_z + 1)^2 entries), or if
    the grid does not cover the pulse support plus three expected group
    delays.  PulseSpec itself caps the time grid at 10**6 steps.
    """
    if not 50 <= n_z <= MAX_N_Z:
        raise GridError(f"n_z must be in [50, {MAX_N_Z}], got {n_z}")
    t = p.times()
    dt = (t[1] - t[0]) * m.gamma_phys          # Gamma units
    if dt > DT_GAMMA_LIMIT + 1e-12:
        raise GridError(
            f"time step too coarse: dt*Gamma = {dt:.3f} > "
            f"{DT_GAMMA_LIMIT} (raise n_t or shrink the window)")
    delay = (m.alpha / d.omega_c ** 2 / m.gamma_phys) if d.omega_c > 0 else 0.0
    if t[-1] < p.support_end() + 3.0 * delay:
        raise GridError(
            f"grid ends at {t[-1]*1e6:.1f} us but pulse support plus 3 "
            f"group delays needs {(p.support_end() + 3*delay)*1e6:.1f} us")

    u_in = p.amplitude(t).astype(complex)

    # adiabatic elimination coefficients, shared with the steady kernel
    _, _, c1, c2, c3, a_p, b_p, a_s, b_s = _coefficients(**_point(m, d, det))

    # fields in rho21: Op = probe @ rho + free_p*u, Os = signal @ rho; the
    # signal marches backward in z, i.e. forward on the reversed axis
    h = 1.0 / n_z
    march_p, free_p = _march(a_p * h, n_z)
    march_s, _ = _march(-a_s * h, n_z)
    probe = h * b_p * march_p
    signal = -h * b_s * march_s[::-1, ::-1]

    # trapezoidal step (1 - dt/2 F) rho' = (1 + dt/2 F) rho + dt/2 c2
    # free_p (u + u') with F the rho21 rate matrix
    eye = np.eye(n_z + 1)
    implicit = np.linalg.inv(
        eye - (dt / 2.0) * (c1 * eye + c2 * probe + c3 * signal))
    step = 2.0 * implicit - eye
    drive = implicit @ ((dt / 2.0) * c2 * free_p)
    taps = np.array([probe[-1], signal[0]])

    out = np.zeros((len(t), 2), dtype=complex)
    rho = np.zeros(n_z + 1, dtype=complex)
    for n, w in enumerate(u_in[:-1] + u_in[1:], start=1):
        rho = step @ rho + drive * w
        out[n] = taps @ rho
    out[:, 0] += free_p[-1] * u_in

    return PulseTrace(t=t, probe_in=np.abs(u_in) ** 2,
                      probe_out=np.abs(out[:, 0]) ** 2,
                      signal_out=np.abs(out[:, 1]) ** 2)


def group_delay(trace: PulseTrace) -> float:
    """Intensity-centroid delay of probe_out relative to probe_in, seconds."""
    e_out = np.trapezoid(trace.probe_out, trace.t)
    if e_out <= 0.0:
        raise DomainError("no transmitted probe energy; delay undefined")
    c_out = np.trapezoid(trace.t * trace.probe_out, trace.t) / e_out
    e_in = np.trapezoid(trace.probe_in, trace.t)
    c_in = np.trapezoid(trace.t * trace.probe_in, trace.t) / e_in
    return c_out - c_in


def energy_budget(trace: PulseTrace) -> EnergyBudget:
    """Pulse-integrated transmittance/conversion, with a truncation flag
    set when an output trace has not decayed to < 1e-4 of its peak by the
    end of the grid."""
    e_in = np.trapezoid(trace.probe_in, trace.t)
    if e_in <= 0.0:
        raise DomainError("input pulse carries no energy")
    t_pulse = float(np.trapezoid(trace.probe_out, trace.t) / e_in)
    ce_pulse = float(np.trapezoid(trace.signal_out, trace.t) / e_in)
    truncated = False
    for y in (trace.probe_in, trace.probe_out, trace.signal_out):
        peak = float(np.max(y))
        if peak > 0.0 and (y[0] > TAIL_FRACTION * peak
                           or y[-1] > TAIL_FRACTION * peak):
            truncated = True
    return EnergyBudget(t_pulse=t_pulse, ce_pulse=ce_pulse,
                        loss=1.0 - t_pulse - ce_pulse, truncated=truncated)
