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

import cmath
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, FwmError, RegimeError
from .params import MediumParams, SteadyResult, _require_real, gamma_to_khz

#: the floating-point conditions the array kernels tolerate, as the one
#: decorator that sets them on each array entry point: an overflow, 0/0
#: or x/0 becomes inf or NaN, which the caller's finiteness check turns
#: into a typed error, and an underflow a zero, whatever np.geterr() the
#: caller set.  The scalar path calls no numpy and needs none.  Use it
#: only as a decorator: that form keeps its state per call, so decorated
#: functions may nest, where a second ``with`` on it would raise.
_TOLERATED = np.errstate(all="ignore")


def _expm1(z: complex) -> complex:
    """e^z - 1 for a Python complex, which cmath lacks: the real part is
    (e^x - 1) cos y - 2 sin^2(y/2), with no cancellation as z -> 0."""
    x, y = z.real, z.imag
    h = math.sin(0.5 * y)
    return complex(math.expm1(x) * math.cos(y) - 2.0 * h * h,
                   math.exp(x) * math.sin(y))


def _ufunc_gains(c1, c2, c3) -> tuple:
    """The Schur gains (-c2/c1, -c3/c1) in numpy's complex division, with
    c1 = 0 (both drives off, where c2 = c3 = 0) masked to 1.
    np.complex128 passes an array through uncopied and keeps Python
    floats (solve_grid with no axes, linear_response) in numpy."""
    c1 = np.complex128(c1) + (c1 == 0)
    return -c2 / c1, -c3 / c1


def _python_gains(c1: complex, c2: complex, c3: complex) -> tuple:
    """_ufunc_gains on Python complex numbers, bit for bit: numpy's
    complex128 division (Smith's algorithm, times the reciprocal scl
    where Python's own complex division divides, which would move
    probe_out by ~1e-13), one rat and scl for both gains.  The mask and
    the negations are the grid's arithmetic, which sets signed zeros.  A
    NaN c1 with a zero imaginary part raises ZeroDivisionError, which the
    scalar entry points re-judge."""
    c1 = c1 + (c1 == 0)
    n2, n3 = -c2, -c3
    br, bi = c1.real, c1.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return (complex((n2.real + n2.imag * rat) * scl,
                        (n2.imag - n2.real * rat) * scl),
                complex((n3.real + n3.imag * rat) * scl,
                        (n3.imag - n3.real * rat) * scl))
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return (complex((n2.real * rat + n2.imag) * scl,
                    (n2.imag * rat - n2.real) * scl),
            complex((n3.real * rat + n3.imag) * scl,
                    (n3.imag * rat - n3.real) * scl))


#: the elementary functions the kernels are written in, one set per kind
#: of input: numpy's ufuncs for arrays; cmath, math and a copy of numpy's
#: complex division for Python floats, which keep a scalar call out of
#: numpy, a fraction of the cost of numpy's 0-d path.  ``gains`` divides
#: the Schur gains: both sets round them as the grid does.
_UFUNCS = SimpleNamespace(sqrt=np.sqrt, exp=np.exp, expm1=np.expm1,
                          tanh=np.tanh, log=np.log, gains=_ufunc_gains)
_CMATH = SimpleNamespace(sqrt=cmath.sqrt, exp=cmath.exp, expm1=_expm1,
                         tanh=cmath.tanh, log=math.log, gains=_python_gains)

#: what a scalar kernel may raise where the ufuncs compute on (a math
#: range or domain error, x/0), or a check may raise on its result: the
#: scalar entry points then evaluate the point on the ufuncs, whose
#: error or result is the answer
_REJUDGED = (ArithmeticError, ValueError, FwmError)


@_TOLERATED
def _rejudge(kernel, *args) -> tuple:
    """kernel(*args) on the ufuncs under the array paths' error state:
    how the scalar entry points evaluate a point their Python path
    refused."""
    return kernel(*args)


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
            "use the exact solver (transfer_solve, or --exact)")
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


def _amplitudes(alpha, delta_kL, omega, delta, fn=_UFUNCS) -> tuple:
    """Closed-form (probe_out, signal_out) on broadcast arrays, or on
    Python scalars with fn=_CMATH; the caller checks the regime and, as
    for the exact kernel, that the amplitudes are finite (a huge omega
    overflows to NaN)."""
    _, kappa, beta2, c = _aux(alpha, delta_kL, omega, delta)
    ib = -fn.sqrt(-beta2)      # i*beta for the root with Im(beta) >= 0
    em = fn.expm1(ib)          # w - 1
    one_w = 2.0 + em           # 1 + w
    # f = (1 - w)/beta = -i*em/ib; at ib = 0 both get 1 added: f(0) = -i
    zero = ib == 0.0
    f = -1j * (em + zero) / (ib + zero)
    probe = (2.0 * c * fn.exp(0.5 * ib - 0.5j * delta_kL)
             / (c * one_w + 0.5j * kappa * f))
    signal = alpha * f / (kappa * f - 2.0j * c * one_w)
    return probe, signal


def steady_closed_form(m: MediumParams, omega: float,
                       delta: float) -> SteadyResult:
    """Closed-form boundary amplitudes and efficiencies.

    Raises the error of regime_error outside the balanced lossless
    regime, and DomainError unless omega and delta are real numbers.
    """
    omega = _require_real("omega", omega)
    delta = _require_real("delta", delta)
    err = regime_error(m, omega, omega)
    if err is not None:
        raise err
    p = (m.alpha, m.delta_kL, omega, delta)
    try:
        return SteadyResult(*_amplitudes(*p, _CMATH))
    except _REJUDGED:
        # the array kernel judges the point: its error, or its result
        probe, signal = _rejudge(_amplitudes, *p)
        return SteadyResult(complex(probe), complex(signal))


def optimal_delta(m: MediumParams, omega: float) -> OptimalDelta:
    """Two-photon detuning that cancels the phase mismatch (xi = 0)."""
    omega = _require_real("omega", omega)
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
