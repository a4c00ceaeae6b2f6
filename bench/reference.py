"""Independent numpy-only reference for the benchmark's output checks.

Nothing here imports the program.  The steady state is recomputed from the
weak-probe Bloch equations: a batched 3x3 solve for the coherence response
to a unit probe and a unit signal, the 2x2 propagation matrix built from
it, and the two-point boundary problem Op(0) = 1, Os(L) = 0 solved with
exp(M) from an eigendecomposition.  Pulse outputs are checked from their
CSV with the same steady reference where a plateau exists.

All rates and detunings are in units of Gamma, as inside the program.
"""

from __future__ import annotations

import numpy as np

#: relative tolerance of a steady output against the reference
STEADY_RTOL = 1e-6
#: absolute floor for intensities that underflow towards zero
STEADY_ATOL = 1e-12
#: slack on T + CE <= 1
PASSIVITY_SLACK = 1e-9
#: an output trace is truncated when its edges exceed this share of its peak
TAIL_FRACTION = 1e-4
#: slow-light delay tolerance against alpha / Omega_c^2 / Gamma
DELAY_RTOL = 0.10
#: flat-top plateau tolerance against the steady state
PLATEAU_RTOL = 0.01


def steady(alpha, gamma21, gamma31, gamma41, delta_kL, omega_c, omega_d,
           delta, delta_p, Delta):
    """Boundary amplitudes (probe_out, signal_out) for arrays of points.

    Every argument broadcasts to one shape; the result has that shape.
    """
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (
        alpha, gamma21, gamma31, gamma41, delta_kL, omega_c, omega_d,
        delta, delta_p, Delta)))
    shape = args[0].shape
    (alpha, g21, g31, g41, dkl, wc, wd, dl, dp, dD) = (
        a.ravel() for a in args)
    n = alpha.size
    a = np.zeros((n, 3, 3), dtype=complex)
    a[:, 0, 0] = 1j * dl - g21 / 2
    # with both strong fields off rho21 is undriven and stays zero
    a[:, 0, 0] = np.where((wc == 0) & (wd == 0), 1.0, a[:, 0, 0])
    a[:, 0, 1] = 0.5j * wc
    a[:, 0, 2] = 0.5j * wd
    a[:, 1, 0] = 0.5j * wc
    a[:, 1, 1] = 1j * dp - g31 / 2
    a[:, 2, 0] = 0.5j * wd
    a[:, 2, 2] = 1j * dD - g41 / 2
    b = np.zeros((n, 3, 2), dtype=complex)
    b[:, 1, 0] = -0.5j                  # unit probe
    b[:, 2, 1] = -0.5j                  # unit signal
    x = np.linalg.solve(a, b)
    m = np.empty((n, 2, 2), dtype=complex)
    m[:, 0, :] = (0.5j * alpha * g31)[:, None] * x[:, 1, :]
    m[:, 1, :] = (-0.5j * alpha * g41)[:, None] * x[:, 2, :]
    m[:, 1, 1] -= 1j * dkl
    lam, vec = np.linalg.eig(m)
    t = (vec * np.exp(lam)[:, None, :]) @ np.linalg.inv(vec)
    signal = -t[:, 1, 0] / t[:, 1, 1]
    probe = np.exp(m[:, 0, 0] + m[:, 1, 1]) / t[:, 1, 1]
    return probe.reshape(shape), signal.reshape(shape)


def steady_tce(**point):
    """(transmittance, ce) arrays for keyword arrays of point parameters."""
    probe, signal = steady(**point)
    return np.abs(probe) ** 2, np.abs(signal) ** 2


def steady_mismatch(t, ce, t_ref=None, ce_ref=None) -> str:
    """Why steady outputs (t, ce) fail their checks, or '' when they pass:
    finite, T + CE <= 1 and, given a reference, equal to it."""
    t, ce = np.asarray(t, dtype=float), np.asarray(ce, dtype=float)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(ce))):
        return "non-finite output"
    if np.any(t + ce > 1.0 + PASSIVITY_SLACK):
        return f"T + CE = {float(np.max(t + ce)):.12g} > 1"
    if t_ref is None:
        return ""
    for name, got, ref in (("T", t, t_ref), ("CE", ce, ce_ref)):
        err = np.abs(got - ref)
        bad = err > STEADY_RTOL * np.abs(ref) + STEADY_ATOL
        if np.any(bad):
            i = int(np.argmax(bad))
            return (f"{name} = {got.ravel()[i]:.9g} but reference "
                    f"{np.ravel(ref)[i]:.9g}")
    return ""


def fwhm_co_shifted(point, step, half_range):
    """Width of ce against a probe-frequency shift x that moves delta,
    delta_p and Delta together, by linear interpolation of the half-maximum
    crossings on a uniform grid (Gamma units).  None when ce never falls
    below half maximum inside the scan."""
    n = int(round(2.0 * half_range / step))
    xs = np.linspace(-half_range, half_range, n + 1)
    shifted = dict(point, delta=point["delta"] + xs,
                   delta_p=point["delta_p"] + xs, Delta=point["Delta"] + xs)
    _, ce = steady_tce(**shifted)
    half = ce.max() / 2.0
    above = np.nonzero(ce >= half)[0]
    lo, hi = above[0], above[-1]
    if lo == 0 or hi == n:
        return None

    def crossing(i_out, i_in):
        return xs[i_out] + (half - ce[i_out]) * (xs[i_in] - xs[i_out]) \
            / (ce[i_in] - ce[i_out])

    return crossing(hi + 1, hi) - crossing(lo - 1, lo)


def pulse_mismatch(t, probe_in, probe_out, signal_out, *, slow_light_delay=None,
                   plateau=None, plateau_ref=None) -> str:
    """Why a pulse trace fails its checks, or '' when it passes.

    t in seconds; intensities normalised to the input peak.
    slow_light_delay: expected group delay in seconds (checked within 10%).
    plateau: (t0, t1) window whose mean T and CE must match plateau_ref
    = (T, CE) within 1%.
    """
    arrays = (probe_in, probe_out, signal_out)
    if not all(np.all(np.isfinite(y)) for y in arrays):
        return "non-finite trace"
    for name, y in zip(("probe_in", "probe_out", "signal_out"), arrays):
        peak = float(np.max(y))
        if peak > 0.0 and max(y[0], y[-1]) > TAIL_FRACTION * peak:
            return f"truncated tail on {name}"
    e_in = np.trapezoid(probe_in, t)
    t_pulse = np.trapezoid(probe_out, t) / e_in
    ce_pulse = np.trapezoid(signal_out, t) / e_in
    if t_pulse + ce_pulse > 1.0 + PASSIVITY_SLACK:
        return f"pulse T + CE = {t_pulse + ce_pulse:.9g} > 1"
    if slow_light_delay is not None:
        c_in = np.trapezoid(t * probe_in, t) / e_in
        c_out = np.trapezoid(t * probe_out, t) / np.trapezoid(probe_out, t)
        delay = c_out - c_in
        if abs(delay - slow_light_delay) > DELAY_RTOL * slow_light_delay:
            return (f"group delay {delay * 1e6:.4f} us, expected "
                    f"{slow_light_delay * 1e6:.4f} us +- 10%")
    if plateau is not None:
        sel = (t >= plateau[0]) & (t <= plateau[1])
        for name, y, ref in (("T", probe_out, plateau_ref[0]),
                             ("CE", signal_out, plateau_ref[1])):
            got = float(np.mean(y[sel]))
            if abs(got - ref) > PLATEAU_RTOL * ref:
                return f"plateau {name} {got:.6g} vs steady {ref:.6g}"
    return ""
