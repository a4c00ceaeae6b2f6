"""Test-only reference propagator: the z-grid time stepper.

The same reduced model as dynamics.simulate_pulse, discretized instead of
solved per Fourier component.  On n_z slabs the field equations are
integrated with an exact exponential integrator for piecewise-linear
sources, so each field is a fixed triangular matrix times rho21 (lower
for the forward probe, upper for the backward signal) plus the free probe
wave.  rho21 advances with the implicit trapezoidal rule; the model is
linear and time-invariant, so that step is one precomputed (n_z+1)^2 map,
rho <- step @ rho + drive*(u[n] + u[n+1]), and the boundary outputs are
two taps on rho.  Its error against simulate_pulse is second order in a
joint refinement of dz and dt.
"""

import numpy as np

from dlambda_fwm import PulseTrace
from dlambda_fwm.steady_numeric import _coefficients, _point


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


def step_pulse(m, d, det, p, n_z: int) -> PulseTrace:
    """Propagate p on n_z slabs and the time grid p.times()."""
    t = p.times()
    dt = (t[1] - t[0]) * m.gamma_phys          # Gamma units
    u_in = p.amplitude(t).astype(complex)
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
