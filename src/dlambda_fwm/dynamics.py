"""Time-domain pulse propagation: slow light and pulsed conversion.

Model reduction
---------------
The optical coherences relax at ~Gamma/2, orders of magnitude faster than
the microsecond-scale pulse envelopes, so rho31 and rho41 are eliminated
adiabatically: at each instant they take their steady value for the
current fields and ground-state coherence rho21(z).  What remains dynamic
is rho21 (the EIT storage degree of freedom) plus the quasi-static field
profiles:

    rho21_t = c1*rho21 + c2*Op + c3*Os
    Op_z    = a_p*Op + b_p*rho21                (forward, Op(0) given)
    Os_z    = a_s*Os + b_s*rho21                (backward, Os(L) = 0)

Transit-time terms are dropped (L/c is ~5 orders below 1/Gamma).

Frequency domain
----------------
The model is linear and time-invariant.  For an input component
e^(i w t), d/dt becomes i*w, and c1 - i*w is c1 with the two-photon
detuning delta replaced by delta - w; delta_p and Delta enter only
through the eliminated optical coherences and stay fixed.  Each
component therefore propagates as a steady state, exactly in z: the
output spectra are the steady kernel's probe and signal amplitudes
H_p(w), H_s(w) times the input spectrum.  The probe is written as the
free wave plus a correction, u + ifft((H_p - 1) U), so it is exact in
vacuum, where H_p = 1.

The n_t + 1 input samples are zero-padded to the first power of two at
or above 2(n_t + 1) before the FFT, so the circular convolution wraps
only response that arrives after twice the window; simulate_pulse
requires the window to hold the input support plus three group delays,
by which time the response has died away.  (A power of two also keeps
the FFT off Bluestein's algorithm, which an awkward length such as
2 * 1000001 would need at several times the time and memory.)  The kernel
runs on KERNEL_CHUNK frequencies at a time, so its temporaries stay small
on long grids.

Everything is linear in the probe, so traces are computed for a unit
input amplitude and reported as normalized intensities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, GridError
from .params import DetuningSet, DriveParams, MediumParams
from .steady_numeric import solve_grid

DT_GAMMA_LIMIT = 0.5
TAIL_FRACTION = 1e-4

DEFAULT_N_T = 12000
MAX_N_T = 10 ** 6
#: frequencies per kernel call; bounds the kernel's temporaries on long grids
KERNEL_CHUNK = 2 ** 15


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
        if not math.isfinite(self.t_start):
            raise DomainError(f"t_start must be finite, got {self.t_start}")
        t_min, t_max, n_t = self.grid
        if not (math.isfinite(t_min) and math.isfinite(t_max)):
            raise GridError(f"time grid bounds must be finite, got "
                            f"({t_min}, {t_max})")
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


def simulate_pulse(m: MediumParams, d: DriveParams, det: DetuningSet,
                   p: PulseSpec) -> PulseTrace:
    """Propagate a probe pulse through the medium.

    Raises GridError if the time step violates dt*Gamma <= 0.5 or if the
    grid does not cover the pulse support plus three expected group
    delays, and the kernel's located errors (``at omega=<w>:``, w in
    Gamma units) for a frequency that fails the steady solve's checks.
    PulseSpec itself caps the time grid at 10**6 steps.
    """
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

    u = p.amplitude(t)
    n_pad = 1 << (2 * len(t) - 1).bit_length()
    spec_p = np.fft.fft(u, n_pad)
    spec_s = np.empty_like(spec_p)
    for k in range(0, n_pad, KERNEL_CHUNK):
        chunk = slice(k, min(k + KERNEL_CHUNK, n_pad))
        # the bins' angular frequencies in np.fft.fftfreq order, Gamma units
        j = np.arange(chunk.start, chunk.stop)
        omega = 2.0 * np.pi / (n_pad * dt) * np.where(j < n_pad // 2, j,
                                                      j - n_pad)
        h_p, h_s = solve_grid(m, d, det, {"omega": omega},
                              delta=det.delta - omega)
        spec_s[chunk] = h_s * spec_p[chunk]
        spec_p[chunk] *= h_p - 1.0
    probe = u + np.fft.ifft(spec_p, out=spec_p)[:len(t)]
    signal = np.fft.ifft(spec_s, out=spec_s)[:len(t)]

    return PulseTrace(t=t, probe_in=u ** 2, probe_out=np.abs(probe) ** 2,
                      signal_out=np.abs(signal) ** 2)


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
