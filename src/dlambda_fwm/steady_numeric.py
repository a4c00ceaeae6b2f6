"""Exact steady-state solver for backward four-wave mixing.

The medium response is strictly linear in the probe/signal pair (the
population stays in the lowest ground state, rho11 ~ 1).  Eliminating the
optical coherences (Schur complement of the 3x3 coherence system) leaves
rho21 = -(c2*Op + c3*Os)/c1 and the field equations d/dz (Op, Os) =
M (Op, Os), a 2-point boundary value problem with Op(0) = Op0 and
Os(L) = 0 (the signal builds up backwards), solved in a ratio form that
needs no matrix exponential.  One array kernel does both; the scalar
functions wrap it, and solve_grid evaluates it on a parameter grid for
sweeps, the bandwidth scan and the pulse propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundarySolveError, located
from .params import (PASSIVITY_SLACK, DetuningSet, DriveParams, MediumParams,
                     SteadyResult, replace_param)

#: log of the smallest |T[1,1]| the boundary solve accepts
LOG_T11_MIN = math.log(1e-14)
#: below this |s|, tanh(s)/s is taken from its series
TANHC_SERIES = 1e-4


@dataclass(frozen=True)
class CoherenceResponse:
    """Linear response of the coherences to the weak fields.

    Each attribute is a pair (coefficient on Omega_p, coefficient on
    Omega_s); the full coherence for given amplitudes is the dot product.
    Exact linearity holds by construction.
    """

    rho21: tuple
    rho31: tuple
    rho41: tuple


def _point(m: MediumParams, d: DriveParams, det: DetuningSet) -> dict:
    """Kernel parameters of one point; array values make a grid."""
    return dict(alpha=m.alpha, gamma21=m.gamma21, gamma31=m.gamma31,
                gamma41=m.gamma41, delta_kL=m.delta_kL, omega_c=d.omega_c,
                omega_d=d.omega_d, delta=det.delta, delta_p=det.delta_p,
                Delta=det.Delta)


def _coefficients(*, alpha, gamma21, gamma31, gamma41, delta_kL, omega_c,
                  omega_d, delta, delta_p, Delta) -> tuple:
    """(d31, d41, c1, c2, c3, a_p, b_p, a_s, b_s) of the reduced model

        0     = c1*rho21 + c2*Op + c3*Os     (rho21_t in the pulse model)
        Op_z  = a_p*Op + b_p*rho21
        Os_z  = a_s*Os + b_s*rho21

    with rho31 = (i/2)(Op + omega_c*rho21)/d31 and
    rho41 = (i/2)(Os + omega_d*rho21)/d41.  Scalars or broadcast arrays.
    """
    d31 = gamma31 / 2.0 - 1j * delta_p
    d41 = gamma41 / 2.0 - 1j * Delta
    c1 = (1j * delta - gamma21 / 2.0
          - abs(omega_c) ** 2 / (4.0 * d31)
          - abs(omega_d) ** 2 / (4.0 * d41))
    c2 = -np.conj(omega_c) / (4.0 * d31)
    c3 = -np.conj(omega_d) / (4.0 * d41)
    a_p = -(alpha * gamma31 / 4.0) / d31
    b_p = -(alpha * gamma31 / 4.0) * omega_c / d31
    a_s = -1j * delta_kL + (alpha * gamma41 / 4.0) / d41
    b_s = (alpha * gamma41 / 4.0) * omega_d / d41
    return d31, d41, c1, c2, c3, a_p, b_p, a_s, b_s


def _eliminate(p: dict) -> tuple:
    """(d31, d41, g_p, g_s, (m00, m01, m10, m11)): rho21 = g_p*Op + g_s*Os
    and the entries of M*L.

    Re c1 < 0 whenever a drive is on, so c1 vanishes only with both drives
    off (and gamma21 = delta = 0), where c2 = c3 = 0 and rho21 = 0.
    """
    d31, d41, c1, c2, c3, a_p, b_p, a_s, b_s = _coefficients(**p)
    c1 = np.where(c1 == 0, 1.0, c1)
    g_p, g_s = -c2 / c1, -c3 / c1
    return d31, d41, g_p, g_s, (a_p + b_p * g_p, b_p * g_s,
                                b_s * g_p, a_s + b_s * g_s)


def _transfer(p: dict) -> tuple:
    """The kernel: (probe_out, signal_out, log|T[1,1]|) on parameter arrays.

    With T = exp(M), mu = tr(M)/2, N = M - mu*I and s = sqrt(-det N)
    (Re s >= 0), T = e^mu (cosh(s) I + sinh(s)/s N), so the boundary
    conditions give

        signal_out = -T[1,0]/T[1,1] = -th*M[1,0] / den
        probe_out  = det(T)/T[1,1]  = 2 e^(mu-s) / ((1 + e^(-2s)) den)

    with th = tanh(s)/s and den = 1 + th*N[1,1].  No intermediate grows
    like e^|s|, however thick the medium.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m00, m01, m10, m11 = _eliminate(p)[4]
        mu = 0.5 * (m00 + m11)
        n11 = 0.5 * (m11 - m00)
        s = np.sqrt(n11 * n11 + m01 * m10)      # principal root: Re s >= 0
        small = abs(s) < TANHC_SERIES
        th = np.where(small, 1.0 - s * s / 3.0,
                      np.tanh(s) / np.where(small, 1.0, s))
        den = 1.0 + th * n11
        e2 = np.exp(-2.0 * s)
        signal = -th * m10 / den
        probe = 2.0 * np.exp(mu - s) / ((1.0 + e2) * den)
        # log|T11| = Re mu + log|cosh s| + log|den|
        log_t11 = (mu.real + s.real + np.log(abs(1.0 + e2)) - math.log(2.0)
                   + np.log(abs(den)))
    return probe, signal, log_t11


def _result(probe, signal, log_t11) -> SteadyResult:
    """One kernel point as a SteadyResult; raises BoundarySolveError when
    |T[1,1]| < 1e-14, DomainError for non-finite or active amplitudes."""
    if log_t11 < LOG_T11_MIN:
        raise BoundarySolveError(
            f"boundary solve singular (|T11|={math.exp(log_t11):.3g})")
    return SteadyResult(probe_out=complex(probe), signal_out=complex(signal))


def _checked(at: dict, probe, signal, log_t11=0.0) -> tuple:
    """(probe_out, signal_out) broadcast to the grid of ``at``'s arrays.
    The first point that fails transfer_solve's checks raises its error,
    prefixed with ``at name=value, ...:`` over the items of ``at``; a
    solver without T[1,1] (the closed form) leaves log_t11 at 0."""
    probe, signal, log_t11, *values = np.broadcast_arrays(
        probe, signal, log_t11, *at.values())
    ok = ((log_t11 >= LOG_T11_MIN)
          & (abs(probe) ** 2 + abs(signal) ** 2 <= 1.0 + PASSIVITY_SLACK))
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        with located({name: v[i] for name, v in zip(at, values)}):
            _result(probe[i], signal[i], log_t11[i])
    return probe, signal


def _check_axes(bundle: tuple, at: dict, axes: dict) -> None:
    """Put each axis's smallest and largest value through the invariants
    of (m, d, det).  Every invariant is an interval and argmin/argmax stop
    at a NaN, so the points that hold an axis's extremes stand for all of
    its values; the first of them in grid order that fails raises,
    located on ``at`` as in _checked."""
    grid = np.broadcast_arrays(*axes.values(), *at.values())
    ends = {int(f(v)) for v in grid[:len(axes)] if v.size
            for f in (np.argmin, np.argmax)}
    for i in sorted(ends):
        i = np.unravel_index(i, grid[0].shape)
        with located({name: v[i] for name, v in zip(at, grid[len(axes):])}):
            point = bundle
            for name, v in zip(axes, grid):
                point = replace_param(point, name, float(v[i]))


def solve_grid(m: MediumParams, d: DriveParams, det: DetuningSet,
               at: dict | None = None, **axes) -> tuple:
    """Exact (probe_out, signal_out) amplitudes on a parameter grid.

    Each keyword (alpha, gamma21, gamma31, gamma41, delta_kL, omega_c,
    omega_d, delta, delta_p or Delta; any other is a TypeError) replaces
    that value of (m, d, det) with an array, and the arrays broadcast to a
    grid of any shape.  Every axis keeps the invariants of the parameter
    it replaces and every point gets transfer_solve's checks; the first
    point that fails raises its error prefixed ``at name=value, ...:``
    over the arrays of ``at``: the axes by default, or e.g. a grid in user
    units.
    """
    at = axes if at is None else at
    _check_axes((m, d, det), at, axes)
    p = _point(m, d, det)
    p.update(axes)
    return _checked(at, *_transfer(p))


def linear_response(d: DriveParams, det: DetuningSet,
                    m: MediumParams) -> CoherenceResponse:
    """Pairwise linear-response coefficients of (rho21, rho31, rho41)."""
    d31, d41, g_p, g_s, _ = _eliminate(_point(m, d, det))
    r31, r41 = 0.5j / d31, 0.5j / d41
    return CoherenceResponse(
        rho21=(complex(g_p), complex(g_s)),
        rho31=(complex(r31 * (1.0 + d.omega_c * g_p)),
               complex(r31 * d.omega_c * g_s)),
        rho41=(complex(r41 * d.omega_d * g_p),
               complex(r41 * (1.0 + d.omega_d * g_s))))


def steady_coherences(omega_p: complex, omega_s: complex, d: DriveParams,
                      det: DetuningSet, m: MediumParams) -> tuple:
    """Steady coherences (rho21, rho31, rho41) for given field amplitudes."""
    r = linear_response(d, det, m)
    return tuple(c_p * omega_p + c_s * omega_s
                 for (c_p, c_s) in (r.rho21, r.rho31, r.rho41))


def coupling_matrix(d: DriveParams, det: DetuningSet,
                    m: MediumParams) -> np.ndarray:
    """Propagation matrix of the steady field pair.

    The dimensionless complex 2x2 matrix M*L with
    d/d(z/L) (Omega_p, Omega_s) = (M*L) . (Omega_p, Omega_s); the medium
    length only ever enters through this product.  Backward signal
    propagation is already folded into the signs: a lossy signal
    transition appears as gain along +z.
    """
    entries = _eliminate(_point(m, d, det))[4]
    return np.array(entries, dtype=complex).reshape(2, 2)


def transfer_solve(d: DriveParams, det: DetuningSet,
                   m: MediumParams) -> SteadyResult:
    """Solve the steady boundary-value problem exactly.

    With T = exp(M*L): signal_out = Omega_s(0)/Omega_p0 = -T[1,0]/T[1,1]
    and probe_out = Omega_p(L)/Omega_p0 = det(T)/T[1,1], evaluated in the
    kernel's ratio form.  Raises BoundarySolveError when |T[1,1]| < 1e-14
    (perfect-reflection resonance).
    """
    return _result(*_transfer(_point(m, d, det)))
