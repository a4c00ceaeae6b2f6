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

Transit-time terms are dropped (L/c is ~5 orders below 1/Gamma).  The
field equations are integrated per time step with an exact exponential
integrator for piecewise-linear sources, evaluated as an IIR recursion;
rho21 advances with an implicit trapezoidal step, solved by a
preconditioned fixed-point iteration (dividing out the stiff local
factor 1 - dt*c1/2, which keeps the iteration contractive even for
dt*|c1| >> 1).

Everything is linear in the probe, so traces are computed for a unit
input amplitude and reported as normalized intensities; peak_amplitude
never enters the solve (scaling it rescales output intensities exactly
quadratically, by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from .errors import ConvergenceError, DomainError, GridError
from .params import DetuningSet, DriveParams, MediumParams
from .steady_numeric import _coefficients, _point

FIXED_POINT_TOL = 1e-12
MAX_FIXED_POINT_ITERS = 50
DT_GAMMA_LIMIT = 0.5
TAIL_FRACTION = 1e-4

DEFAULT_N_T = 12000
DEFAULT_N_Z = 200


@dataclass(frozen=True)
class PulseSpec:
    """Input probe pulse description.

    duration is the full width at 1/e^2 of *intensity* for the gaussian
    shape, or the hold time for flat_top.  The gaussian is centered at
    t_start + duration; the flat_top ramps up from t_start over `ramp`
    seconds (default duration/10), holds, and ramps down.  grid is
    (t_min, t_max, n_t): n_t uniform steps, n_t + 1 samples.
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
        if int(n_t) < 100:
            raise GridError(f"n_t must be >= 100, got {n_t}")

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


def _phi12(z: complex) -> tuple:
    """phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2, series-guarded."""
    if abs(z) < 1e-5:
        p1 = 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0
        p2 = 0.5 + z / 6.0 + z * z / 24.0 + z ** 3 / 120.0
    else:
        ez = np.exp(z)
        p1 = (ez - 1.0) / z
        p2 = (ez - 1.0 - z) / (z * z)
    return p1, p2


def simulate_pulse(m: MediumParams, d: DriveParams, det: DetuningSet,
                   p: PulseSpec, n_z: int = DEFAULT_N_Z) -> PulseTrace:
    """Propagate a probe pulse through the medium.

    Raises GridError if the time step violates dt*Gamma <= 0.5, if
    n_z < 50, or if the grid does not cover the pulse support plus three
    expected group delays; ConvergenceError if an implicit step stalls.
    """
    if n_z < 50:
        raise GridError(f"n_z must be >= 50, got {n_z}")
    t = p.times()
    n_t = len(t) - 1
    dt_gamma = (t[1] - t[0]) * m.gamma_phys
    if dt_gamma > DT_GAMMA_LIMIT + 1e-12:
        raise GridError(
            f"time step too coarse: dt*Gamma = {dt_gamma:.3f} > "
            f"{DT_GAMMA_LIMIT} (raise n_t or shrink the window)")
    delay = (m.alpha / d.omega_c ** 2 / m.gamma_phys) if d.omega_c > 0 else 0.0
    if t[-1] < p.support_end() + 3.0 * delay:
        raise GridError(
            f"grid ends at {t[-1]*1e6:.1f} us but pulse support plus 3 "
            f"group delays needs {(p.support_end() + 3*delay)*1e6:.1f} us")

    u_in = p.amplitude(t).astype(complex)

    # adiabatic elimination coefficients, shared with the steady kernel
    _, _, c1, c2, c3, a_p, b_p, a_s, b_s = _coefficients(**_point(m, d, det))

    h = 1.0 / n_z
    zp = a_p * h
    e_p = np.exp(zp)
    p1p, p2p = _phi12(zp)
    zs = -a_s * h                       # signal marches backward in z
    e_s = np.exp(zs)
    p1s, p2s = _phi12(zs)

    def solve_fields(rho, u):
        # probe forward from z=0
        g = b_p * rho
        x = np.empty(n_z + 1, dtype=complex)
        x[0] = u
        x[1:] = h * ((p1p - p2p) * g[:-1] + p2p * g[1:])
        op = lfilter([1.0], [1.0, -e_p], x)
        # signal backward from z=L (solved on the reversed axis)
        gs = -b_s * rho[::-1]
        xs = np.empty(n_z + 1, dtype=complex)
        xs[0] = 0.0
        xs[1:] = h * ((p1s - p2s) * gs[:-1] + p2s * gs[1:])
        os_ = lfilter([1.0], [1.0, -e_s], xs)[::-1]
        return op, os_

    rho = np.zeros(n_z + 1, dtype=complex)
    rho_prev = rho
    op, os_ = solve_fields(rho, u_in[0])
    probe_out = np.empty(n_t + 1)
    signal_out = np.empty(n_t + 1)
    probe_out[0] = abs(op[-1]) ** 2
    signal_out[0] = abs(os_[0]) ** 2

    dt = dt_gamma                       # Gamma units from here on
    precond = 1.0 / (1.0 - dt * c1 / 2.0)
    for n in range(n_t):
        base = rho + (dt / 2.0) * (c1 * rho + c2 * op + c3 * os_)
        guess = 2.0 * rho - rho_prev if n > 0 else rho
        rho_prev = rho
        u = u_in[n + 1]
        for _ in range(MAX_FIXED_POINT_ITERS):
            op_n, os_n = solve_fields(guess, u)
            new = precond * (base + (dt / 2.0) * (c2 * op_n + c3 * os_n))
            err = np.max(np.abs(new - guess))
            guess = new
            if err <= FIXED_POINT_TOL:
                break
        else:
            raise ConvergenceError(
                f"implicit step {n + 1}/{n_t} not converged after "
                f"{MAX_FIXED_POINT_ITERS} iterations (last residual {err:.3g})")
        rho = guess
        op, os_ = solve_fields(rho, u)
        probe_out[n + 1] = abs(op[-1]) ** 2
        signal_out[n + 1] = abs(os_[0]) ** 2

    return PulseTrace(t=t, probe_in=np.abs(u_in) ** 2,
                      probe_out=probe_out, signal_out=signal_out)


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
