"""Time-domain pulse propagation: slow light and pulsed conversion.

Frequency domain
----------------
The model is linear and time-invariant, with every coherence dynamic:
the ground-state coherence rho21 and the optical coherences rho31 and
rho41.  For an input component e^(i w t), d/dt becomes i*w, which enters
each coherence's equation as a shift of the detuning it carries: a probe
component at omega_p + w is a CW probe at that frequency, the signal it
generates sits at omega_s + w, and delta, delta_p and Delta all become
their value minus w.  Each component therefore propagates as a steady
state, exactly in z: the output spectra are the steady kernel's probe
and signal amplitudes at probe shift -w (solve_probe_shift, the
spectrum the bandwidth scan reads), H_p(w) and H_s(w), times the input
spectrum.  The one-photon part of this response is the textbook EIT
susceptibility chi(w).  Transit-time terms are dropped (L/c is ~5
orders below 1/Gamma).  The probe is written as the free wave plus a
correction, u + ifft((H_p - 1) U), so it is exact in vacuum, where
H_p = 1.

The n_t + 1 input samples are zero-padded to the first power of two at
or above 2(n_t + 1) before the FFT, so the circular convolution wraps
only response that arrives after twice the window; simulate_pulse
requires the window to hold the input support plus three group delays,
by which time the response has died away.  (A power of two also keeps
the FFT off Bluestein's algorithm, which an awkward length such as
2 * 1000001 would need at several times the time and memory.)  The kernel
runs on KERNEL_CHUNK frequencies at a time, so its temporaries stay small
on long grids.

A linear, time-invariant medium puts no output at frequencies its input
lacks, so the output is exact at any time step that samples the input:
Gamma does not enter, and PulseSpec judges the step by the pulse alone
(STEPS_PER_FEATURE).

Everything is linear in the probe, so traces are computed for a unit
input amplitude and reported as normalized intensities.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, GridError
from .params import DetuningSet, DriveParams, MediumParams
from .steady_numeric import solve_probe_shift

#: time steps per shortest input feature (a gaussian's duration, a flat
#: top's ramp) that a PulseSpec grid must resolve; see PulseSpec
STEPS_PER_FEATURE = 8
TAIL_FRACTION = 1e-4
#: the share of the input energy at and below which a transmitted probe
#: is rounding, not light; see _transmitted
ROUNDOFF_FLOOR = float(np.finfo(float).eps)

DEFAULT_N_T = 12000
MAX_N_T = 10 ** 6
#: frequencies per kernel call; bounds the kernel's temporaries on long grids
KERNEL_CHUNK = 2 ** 15


def _echo(value, show) -> str:
    """show(value) for an error message, or a note in its place where value
    is or holds an int with more digits than str() may convert."""
    try:
        return show(value)
    except ValueError:
        return "a value too long to print"


@dataclass(frozen=True)
class PulseSpec:
    """Input probe pulse description.

    duration is the full width at 1/e^2 of *intensity* for the gaussian
    shape, or the hold time for flat_top.  The gaussian is centered at
    t_start + duration; the flat_top ramps up from t_start over `ramp`
    seconds (default duration/10), holds, and ramps down.  grid is
    (t_min, t_max, n_t): n_t uniform steps (an integer, 100 <= n_t <=
    MAX_N_T), n_t + 1 samples.

    The step (t_max - t_min)/n_t must resolve the pulse's shortest
    feature, the gaussian's duration or the flat top's ramp, at
    STEPS_PER_FEATURE steps or more; a coarser grid is a GridError.  At
    that limit a gaussian's spectrum beyond the grid's Nyquist frequency
    is exp(-4 pi^2) ~ 7e-18 of its peak, below double rounding.  A sin^2
    ramp converges more slowly: 8 steps per 10 us ramp on the fig4a
    medium (80 us hold) give CE_pulse to 5e-7 relative, 16 steps to
    3e-8.
    """

    shape: str
    duration: float
    t_start: float = 20e-6
    ramp: Optional[float] = None
    grid: tuple = (0.0, 150e-6, DEFAULT_N_T)

    def __post_init__(self):
        if self.shape not in ("gaussian", "flat_top"):
            raise DomainError(f"unknown pulse shape {self.shape!r}")
        for name in ("duration", "t_start", "ramp"):
            v = getattr(self, name)
            # float arithmetic on such an int raises OverflowError
            if isinstance(v, int) and not abs(v) <= sys.float_info.max:
                raise DomainError(f"{name} = {_echo(v, str)} is beyond the "
                                  "float range")
        if not self.duration > 0.0:
            raise DomainError(f"duration must be > 0, got {self.duration}")
        if self.ramp is None:
            object.__setattr__(self, "ramp", self.duration / 10.0)
        if not self.ramp > 0.0:
            raise DomainError(f"ramp must be > 0, got {self.ramp}")
        if not math.isfinite(self.t_start):
            raise DomainError(f"t_start must be finite, got {self.t_start}")
        try:
            t_min, t_max, n_t = self.grid
            # False for a NaN or a fractional n_t
            n_t_ok = 100 <= n_t <= MAX_N_T and n_t % 1 == 0
            # group_delay integrates t * intensity over t, so the bounds'
            # squares must be finite too (False for a NaN); a bound
            # squares as the float it computes as
            finite = all(float(b) * b < math.inf for b in (t_min, t_max))
        except OverflowError:
            # not echoed: an int that long may not even convert to str
            raise GridError("time grid bounds must be finite, got an int "
                            "beyond the float range") from None
        except (TypeError, ValueError):
            raise GridError("grid must be three numbers (t_min, t_max, n_t), "
                            f"got {_echo(self.grid, repr)}") from None
        if not finite:
            raise GridError(f"time grid bounds must be finite, and so must "
                            f"their squares, got ({t_min}, {t_max})")
        if not (t_max > t_min):
            raise GridError(f"empty time grid ({t_min}, {t_max})")
        if not n_t_ok:
            raise GridError(f"n_t must be an integer in [100, {MAX_N_T}], "
                            f"got {_echo(n_t, str)}")
        name, feature = ("duration", self.duration) \
            if self.shape == "gaussian" else ("ramp", self.ramp)
        dt = (t_max - t_min) / n_t
        # a feature of exactly STEPS_PER_FEATURE steps passes despite rounding
        if feature * (1.0 + 1e-12) < STEPS_PER_FEATURE * dt:
            raise GridError(
                f"time step {dt*1e6:.6g} us does not resolve the {name} of "
                f"{feature*1e6:.6g} us: it needs {STEPS_PER_FEATURE} steps "
                f"per {name} (raise n_t or shrink the window)")
        # amplitude divides by the square; only a grid as extreme can
        # resolve a gaussian that fails this
        if self.shape == "gaussian" and not \
                sys.float_info.min <= self.duration * self.duration < math.inf:
            raise DomainError(f"duration = {self.duration} s is out of range: "
                              "its square is not a normal float")

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
            # far from the centre the square overflows to inf, and
            # exp(-inf) = 0 is the amplitude there
            with np.errstate(over="ignore"):
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
    """Propagate a probe pulse through the medium: each FFT bin w of the
    padded input goes through the exact steady response at probe shift
    -w (solve_probe_shift; see the module docstring).

    Raises GridError if the grid does not cover the pulse support plus
    three expected group delays, or if its step is so fine in Gamma units
    that the outer bins' shifted detunings overflow, and the kernel's
    located errors (``at omega=<w>:``, w in Gamma units) for a frequency
    that fails the steady solve's checks.  The time step is PulseSpec's
    to judge, by the pulse alone and at any dt*Gamma: at its limit of
    STEPS_PER_FEATURE steps per gaussian duration the input aliases below
    rounding, and per flat-top ramp CE_pulse is good to about 5e-7
    relative.  PulseSpec also caps the time grid at 10**6 steps.
    """
    t = p.times()
    dt = float(t[1] - t[0]) * m.gamma_phys     # Gamma units
    # the EIT group delay; a drive whose square underflows counts as off
    w2 = d.omega_c * d.omega_c
    delay = m.alpha / w2 / m.gamma_phys if w2 > 0.0 else 0.0
    if t[-1] < p.support_end() + 3.0 * delay:
        raise GridError(
            f"grid ends at {t[-1]*1e6:.6g} us but pulse support plus 3 "
            f"group delays needs {(p.support_end() + 3*delay)*1e6:.6g} us")

    u = p.amplitude(t)
    n_pad = 1 << (2 * len(t) - 1).bit_length()
    # the bins' spacing, Gamma units; with a Gamma near the smallest
    # float, dt*Gamma (nearly) underflows and the outer bins' shifted
    # detunings would overflow
    dw = 2.0 * math.pi / (n_pad * dt) if dt > 0.0 else math.inf
    largest = max(abs(det.delta), abs(det.delta_p), abs(det.Delta))
    if math.isinf(largest + dw * (n_pad // 2)):
        raise GridError(f"time step too fine: dt*Gamma = {dt:.4g} puts the "
                        "frequency grid beyond the float range")
    spec_p = np.fft.fft(u, n_pad)
    spec_s = np.empty_like(spec_p)
    for k in range(0, n_pad, KERNEL_CHUNK):
        chunk = slice(k, min(k + KERNEL_CHUNK, n_pad))
        # the bins' angular frequencies in np.fft.fftfreq order, Gamma units
        j = np.arange(chunk.start, chunk.stop)
        omega = dw * np.where(j < n_pad // 2, j, j - n_pad)
        h_p, h_s = solve_probe_shift(m, d, det, -omega, {"omega": omega})
        spec_s[chunk] = h_s * spec_p[chunk]
        spec_p[chunk] *= h_p - 1.0
    probe = u + np.fft.ifft(spec_p, out=spec_p)[:len(t)]
    signal = np.fft.ifft(spec_s, out=spec_s)[:len(t)]

    return PulseTrace(t=t, probe_in=u ** 2, probe_out=np.abs(probe) ** 2,
                      signal_out=np.abs(signal) ** 2)


def _transmitted(trace: PulseTrace) -> tuple:
    """(e_in, e_out, resolved): the probe's input and output energies, and
    whether e_out is above ROUNDOFF_FLOOR * e_in.

    The output probe is u + ifft((H_p - 1) U).  In an opaque medium the
    two terms cancel, and what is left is their rounding: an amplitude of
    order eps times the input's, an energy of order eps**2 times the
    input's, whatever the optical depth.  An output with more than eps
    times the input energy has an amplitude above sqrt(eps) times the
    input's, which that rounding moves by less than sqrt(eps) relative;
    at or below the floor the output is counted as no light.
    """
    e_in = np.trapezoid(trace.probe_in, trace.t)
    e_out = np.trapezoid(trace.probe_out, trace.t)
    return e_in, e_out, bool(e_out > ROUNDOFF_FLOOR * e_in)


def group_delay(trace: PulseTrace) -> float:
    """Intensity-centroid delay of probe_out relative to probe_in, seconds.

    DomainError when the transmitted energy is at or below the round-off
    floor (_transmitted): the centroid of rounding is no delay.
    """
    e_in, e_out, resolved = _transmitted(trace)
    if not resolved:
        raise DomainError("no transmitted probe energy above the round-off "
                          "floor; delay undefined")
    c_out = np.trapezoid(trace.t * trace.probe_out, trace.t) / e_out
    c_in = np.trapezoid(trace.t * trace.probe_in, trace.t) / e_in
    return c_out - c_in


def energy_budget(trace: PulseTrace) -> EnergyBudget:
    """Pulse-integrated transmittance/conversion, with a truncation flag
    set when a trace has not decayed to < 1e-4 of its peak at either end
    of the grid.  A transmitted probe at the round-off floor
    (_transmitted) is no light, and its tail is not flagged."""
    e_in, e_out, resolved = _transmitted(trace)
    if e_in <= 0.0:
        raise DomainError("input pulse carries no energy")
    t_pulse = float(e_out / e_in)
    ce_pulse = float(np.trapezoid(trace.signal_out, trace.t) / e_in)
    truncated = False
    outputs = (trace.probe_out, trace.signal_out) if resolved \
        else (trace.signal_out,)
    for y in (trace.probe_in, *outputs):
        peak = float(np.max(y))
        if peak > 0.0 and (y[0] > TAIL_FRACTION * peak
                           or y[-1] > TAIL_FRACTION * peak):
            truncated = True
    return EnergyBudget(t_pulse=t_pulse, ce_pulse=ce_pulse,
                        loss=1.0 - t_pulse - ce_pulse, truncated=truncated)
