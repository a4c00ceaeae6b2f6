"""Test-only reference propagator: the z-grid time stepper.

The full linear model, with every coherence dynamic, discretized instead
of solved per Fourier component.  In Gamma units, with z in units of L,
d31 = gamma31/2 - i delta_p and d41 = gamma41/2 - i Delta:

    Op_z    = i(alpha gamma31/2) rho31                   (Op(0) given)
    Os_z    = -i delta_kL Os - i(alpha gamma41/2) rho41  (Os(L) = 0)
    rho31_t = -d31 rho31 + (i/2)(Op + omega_c rho21)
    rho41_t = -d41 rho41 + (i/2)(Os + omega_d rho21)
    rho21_t = (i delta - gamma21/2) rho21
              + (i/2)(omega_c rho31 + omega_d rho41)

The equations are written out here from the physics, not read from the
package's kernel, so the stepper is an independent reference.  On n_z
slabs the field equations are integrated with an exact exponential
integrator for piecewise-linear sources, so each field is a fixed
triangular matrix times its optical coherence (lower for the forward
probe, upper for the backward signal), plus the free probe wave.  The
three coherences advance with the implicit trapezoidal rule; the model is
linear and time-invariant, so that step is one precomputed 3(n_z+1)
square map, x <- step @ x + drive*(u[n] + u[n+1]), and the boundary
outputs are two taps on x.  Its error against simulate_pulse is second
order in a joint refinement of dz and dt.
"""

import numpy as np

from dlambda_fwm import PulseTrace


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
    d31 = m.gamma31 / 2.0 - 1j * det.delta_p
    d41 = m.gamma41 / 2.0 - 1j * det.Delta
    wc, wd = d.omega_c, d.omega_d

    # fields in the optical coherences: Op = probe @ rho31 + free_p*u,
    # Os = signal @ rho41; the signal marches backward in z, i.e. forward
    # on the reversed axis
    h = 1.0 / n_z
    march_p, free_p = _march(0.0, n_z)
    march_s, _ = _march(1j * m.delta_kL * h, n_z)
    probe = h * (0.5j * m.alpha * m.gamma31) * march_p
    signal = h * (0.5j * m.alpha * m.gamma41) * march_s[::-1, ::-1]

    # x = (rho21, rho31, rho41) on the z nodes, x_t = F x + g u
    n = n_z + 1
    eye, o = np.eye(n), np.zeros((n, n))
    rate = np.block([
        [(1j * det.delta - m.gamma21 / 2.0) * eye, 0.5j * wc * eye,
         0.5j * wd * eye],
        [0.5j * wc * eye, 0.5j * probe - d31 * eye, o],
        [0.5j * wd * eye, o, 0.5j * signal - d41 * eye]])
    g = np.concatenate([np.zeros(n), 0.5j * free_p, np.zeros(n)])

    # trapezoidal step (1 - dt/2 F) x' = (1 + dt/2 F) x + dt/2 g (u + u')
    big = np.eye(3 * n)
    implicit = np.linalg.inv(big - (dt / 2.0) * rate)
    step = 2.0 * implicit - big
    drive = implicit @ ((dt / 2.0) * g)
    zero = np.zeros(n)
    taps = np.array([np.concatenate([zero, probe[-1], zero]),
                     np.concatenate([zero, zero, signal[0]])])

    out = np.zeros((len(t), 2), dtype=complex)
    x = np.zeros(3 * n, dtype=complex)
    for k, w in enumerate(u_in[:-1] + u_in[1:], start=1):
        x = step @ x + drive * w
        out[k] = taps @ x
    out[:, 0] += free_p[-1] * u_in
    # the photon-number amplitude of the signal (1 at gamma31 = gamma41)
    out[:, 1] *= (m.gamma31 / m.gamma41) ** 0.5

    return PulseTrace(t=t, probe_in=np.abs(u_in) ** 2,
                      probe_out=np.abs(out[:, 0]) ** 2,
                      signal_out=np.abs(out[:, 1]) ** 2)
