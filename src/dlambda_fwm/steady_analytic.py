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
exactly (1 - i*delta/W^2)^2 beta^2, so q follows beta's branch and no
sign is left to choose (flipping beta and q together is a symmetry of
the solution).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import DomainError, NearSingularError, RegimeError
from .params import MediumParams, SteadyResult, gamma_to_khz

BETA_SINGULAR = 1e-6


@dataclass(frozen=True)
class ClosedFormAux:
    """Auxiliary closed-form quantities."""

    kappa: complex
    beta: complex
    q: complex
    xi: float


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
            f"(delta_p={delta_p}, Delta={Delta})")
    if omega_c <= 0.0:
        return DomainError(f"closed form needs omega > 0, got {omega_c}")
    if m.gamma21 != 0.0:
        return RegimeError(
            f"closed form assumes gamma21 = 0, got {m.gamma21}; "
            "use steady_numeric.transfer_solve")
    if m.gamma31 != 1.0 or m.gamma41 != 1.0:
        return RegimeError(
            "closed form assumes gamma31 = gamma41 = 1 (decay at the rate "
            f"unit), got {m.gamma31}, {m.gamma41}")
    return None


def _solve(m: MediumParams, omega: float, delta: float) -> tuple:
    """Closed-form (probe_out, signal_out, kappa, beta, q, xi).

    The trigonometric solution is rewritten in terms of w = exp(i*beta)
    (or its reciprocal when Im(beta) < 0) so that no intermediate grows
    like exp(|Im beta|); cot/csc forms overflow already at alpha ~ 300.
    """
    err = regime_error(m, omega, omega)
    if err is not None:
        raise err
    alpha, delta_kL = m.alpha, m.delta_kL
    w2 = omega * omega
    xi = delta_kL + delta * alpha / w2
    kappa = (alpha - 2.0 * delta_kL * delta / w2) - 2.0j * xi
    beta = cmath.sqrt((delta_kL + 1j * alpha)
                      * (delta_kL * delta + 1j * w2 * xi)
                      / (1j * w2 + delta))
    if abs(beta) < BETA_SINGULAR:
        raise NearSingularError(
            f"|beta| = {abs(beta):.3g} < {BETA_SINGULAR}: removable "
            "singularity of the closed form (delta and delta_kL both ~ 0); "
            "use steady_numeric.transfer_solve, which is regular there")
    q = (1.0 - 1j * delta / w2) * beta
    if beta.imag >= 0.0:
        w = cmath.exp(1j * beta)
        half = cmath.exp(0.5j * beta)
        probe = 2.0 * q * half / (q * (1.0 + w) + 0.5j * kappa * (1.0 - w))
        signal = alpha * (1.0 - w) / (kappa * (1.0 - w) - 2.0j * q * (1.0 + w))
    else:
        v = cmath.exp(-1j * beta)
        half = cmath.exp(-0.5j * beta)
        probe = 2.0 * q * half / (q * (1.0 + v) - 0.5j * kappa * (1.0 - v))
        signal = alpha * (1.0 - v) / (kappa * (1.0 - v) + 2.0j * q * (1.0 + v))
    probe *= cmath.exp(-0.5j * delta_kL)
    return probe, signal, kappa, beta, q, xi


def closed_form_aux(m: MediumParams, omega: float,
                    delta: float) -> ClosedFormAux:
    """Auxiliary quantities kappa, beta, q, xi."""
    _, _, kappa, beta, q, xi = _solve(m, omega, delta)
    return ClosedFormAux(kappa=kappa, beta=beta, q=q, xi=xi)


def steady_closed_form(m: MediumParams, omega: float,
                       delta: float) -> SteadyResult:
    """Closed-form boundary amplitudes and efficiencies.

    Raises NearSingularError within |beta| < 1e-6 of the removable
    beta -> 0 point, and the error of regime_error outside the balanced
    lossless regime.
    """
    probe, signal, *_ = _solve(m, omega, delta)
    return SteadyResult(probe_out=probe, signal_out=signal)


def optimal_delta(m: MediumParams, omega: float) -> OptimalDelta:
    """Two-photon detuning that cancels the phase mismatch (xi = 0)."""
    if m.alpha <= 0.0:
        raise DomainError(f"optimal_delta needs alpha > 0, got {m.alpha}")
    if omega <= 0.0:
        raise DomainError(f"optimal_delta needs omega > 0, got {omega}")
    delta = -m.delta_kL * omega * omega / m.alpha
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
    return delta * m.alpha / (omega_c * omega_c)
