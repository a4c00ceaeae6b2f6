"""Closed-form steady state for the balanced, resonant, lossless regime.

Valid when the two strong fields are balanced (omega_c = omega_d = W),
the one- and three-photon detunings vanish, the ground-state dephasing is
zero and the optical coherences decay at the rate unit itself
(gamma31 = gamma41 = 1).  Everything is expressed in Gamma units.

With xi the phase-matching parameter, the auxiliary quantities are

    xi    = dkL + delta*alpha/W^2
    kappa = (alpha - 2*dkL*delta/W^2) - 2i*xi
    beta  = sqrt((dkL + i*alpha)(dkL*delta + i*W^2*xi) / (i*W^2 + delta))
    q     = (1 - i*delta/W^2) * beta

and the boundary amplitudes follow from kappa, beta, q alone.  Setting
xi = 0 (i.e. delta* = -dkL*W^2/alpha) realizes quasi-phase matching: the
two-photon detuning cancels the geometric phase mismatch.

q is defined by q^2 = u*(u + i*alpha) with u = xi - i*dkL*delta/W^2;
since u + i*alpha = (dkL + i*alpha)(1 - i*delta/W^2), that product is
exactly c^2 beta^2 with c = 1 - i*delta/W^2, so q = c*beta follows
beta's branch.  Flipping beta and q together is a symmetry of the
solution, so the amplitudes take the root with Im(beta) >= 0; then
w = exp(i*beta) has |w| <= 1 and no intermediate grows like
exp(|Im beta|) (cot/csc forms overflow already at alpha ~ 300).  With
f = (1 - w)/beta = -expm1(i*beta)/beta the factor beta shared by
numerator and denominator is divided out:

    probe_out  = 2c exp(i*(beta - dkL)/2) / (c*(1 + w) + (i/2)*kappa*f)
    signal_out = alpha*f / (kappa*f - 2i*c*(1 + w))

f -> -i as beta -> 0, so the formula has no singular point: beta = 0
at dkL = delta = 0 (phase-matched and resonant) is an ordinary point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegimeError
from .params import MediumParams, SteadyResult, gamma_to_khz

#: the floating-point conditions the steady kernels tolerate, as the one
#: decorator that sets them: an overflow, 0/0 or x/0 becomes inf or NaN,
#: which the caller's finiteness check turns into a typed error.  Use it
#: only as a decorator: that form keeps its state per call, so decorated
#: functions may nest, where a second ``with`` on it would raise.
_TOLERATED = np.errstate(divide="ignore", invalid="ignore", over="ignore")


@dataclass(frozen=True)
class OptimalDelta:
    """Quasi-phase-matching two-photon detuning, Gamma units and kHz."""

    delta: float
    delta_khz: float


def regime_error(m: MediumParams, omega_c: float, omega_d: float,
                 delta_p: float = 0.0, Delta: float = 0.0):
    """The error the closed form raises at this point, or None in regime.

    The regime: balanced drives omega_c = omega_d = W > 0, one- and
    three-photon resonance (delta_p = Delta = 0), gamma21 = 0 and
    gamma31 = gamma41 = 1.  RegimeError names the broken condition;
    W <= 0 is a DomainError.
    """
    if omega_c != omega_d:
        return RegimeError(
            f"closed form needs balanced drives, got omega_c={omega_c}, "
            f"omega_d={omega_d}")
    if delta_p != 0.0 or Delta != 0.0:
        return RegimeError(
            "closed form needs one- and three-photon resonance "
            f"(delta_p={delta_p}, Delta={Delta}, in units of Gamma)")
    if not (omega_c > 0.0 and omega_c * omega_c > 0.0):
        return DomainError(f"closed form needs omega > 0 with a nonzero "
                           f"omega^2, got {omega_c}")
    if m.gamma21 != 0.0:
        return RegimeError(
            f"closed form assumes gamma21 = 0, got {m.gamma21}; "
            "use steady_numeric.transfer_solve")
    if m.gamma31 != 1.0 or m.gamma41 != 1.0:
        return RegimeError(
            "closed form assumes gamma31 = gamma41 = 1 (decay at the rate "
            f"unit), got {m.gamma31}, {m.gamma41}")
    return None


def _aux(alpha, delta_kL, omega, delta) -> tuple:
    """(xi, kappa, beta^2, c), q = c*beta; scalars or broadcast arrays."""
    w2 = omega * omega
    xi = delta_kL + delta * alpha / w2
    kappa = (alpha - 2.0 * delta_kL * delta / w2) - 2.0j * xi
    beta2 = ((delta_kL + 1j * alpha) * (delta_kL * delta + 1j * w2 * xi)
             / (1j * w2 + delta))
    return xi, kappa, beta2, 1.0 - 1j * delta / w2


@_TOLERATED
def _amplitudes(alpha, delta_kL, omega, delta) -> tuple:
    """Closed-form (probe_out, signal_out) on scalars or broadcast arrays;
    the caller checks the regime and, as for the exact kernel, that the
    amplitudes are finite (a huge omega overflows to NaN)."""
    _, kappa, beta2, c = _aux(alpha, delta_kL, omega, delta)
    ib = -np.sqrt(-beta2)      # i*beta for the root with Im(beta) >= 0
    em = np.expm1(ib)          # w - 1
    one_w = 2.0 + em           # 1 + w
    # f = (1 - w)/beta = -i*em/ib; at ib = 0 both get 1 added: f(0) = -i
    zero = ib == 0.0
    f = -1j * (em + zero) / (ib + zero)
    probe = (2.0 * c * np.exp(0.5 * ib - 0.5j * delta_kL)
             / (c * one_w + 0.5j * kappa * f))
    signal = alpha * f / (kappa * f - 2.0j * c * one_w)
    return probe, signal


def _require_regime(*point) -> None:
    """Raise the error regime_error(*point) returns, if any."""
    err = regime_error(*point)
    if err is not None:
        raise err


def steady_closed_form(m: MediumParams, omega: float,
                       delta: float) -> SteadyResult:
    """Closed-form boundary amplitudes and efficiencies.

    Raises the error of regime_error outside the balanced lossless regime.
    """
    _require_regime(m, omega, omega)
    probe, signal = _amplitudes(m.alpha, m.delta_kL, omega, delta)
    return SteadyResult(complex(probe), complex(signal))


def optimal_delta(m: MediumParams, omega: float) -> OptimalDelta:
    """Two-photon detuning that cancels the phase mismatch (xi = 0)."""
    if m.alpha <= 0.0:
        raise DomainError(f"optimal_delta needs alpha > 0, got {m.alpha}")
    if omega <= 0.0:
        raise DomainError(f"optimal_delta needs omega > 0, got {omega}")
    # 0.0 - x, not -x: no negative zero at delta_kL = 0
    delta = (0.0 - m.delta_kL * omega * omega) / m.alpha
    if not math.isfinite(delta):
        raise DomainError(f"optimal_delta is not finite: delta = {delta} "
                          f"for omega={omega}, alpha={m.alpha}")
    return OptimalDelta(delta=delta,
                        delta_khz=gamma_to_khz(delta, m.gamma_phys))


def eit_phase_shift(m: MediumParams, omega_c: float, delta: float) -> float:
    """First-order estimate of the probe phase shift from detuned
    transparency: phi = delta * alpha / omega_c**2 (radians).

    This is the leading term of the dispersion across the transparency
    window; it is an estimate, not the full output phase.
    """
    if omega_c <= 0.0:
        raise DomainError(f"eit_phase_shift needs omega_c > 0, got {omega_c}")
    w2 = omega_c * omega_c
    phi = delta * m.alpha / w2 if w2 > 0.0 else math.inf
    if not math.isfinite(phi):
        raise DomainError(f"eit_phase_shift is not finite: phi = {phi} for "
                          f"omega_c={omega_c}, alpha={m.alpha}")
    return phi
