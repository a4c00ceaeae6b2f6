"""Exact steady-state solver for backward four-wave mixing.

The medium response is strictly linear in the probe/signal pair (the
population stays in the lowest ground state, rho11 ~ 1).  Eliminating the
optical coherences (Schur complement of the 3x3 coherence system) leaves
rho21 = -(c2*Op + c3*Os)/c1 and the field equations d/dz (Op, Os) =
M (Op, Os), a 2-point boundary value problem with Op(0) = Op0 and
Os(L) = 0 (the signal builds up backwards), solved in a ratio form that
needs no matrix exponential.  One kernel does both, with no branch and
no np.where: its two singular points (c1 = 0, s = 0) are masked with
arithmetic.  solve_grid evaluates it on numpy arrays, a parameter grid
for sweeps; solve_probe_shift runs solve_grid at shifted probe
frequencies, the one spectrum the bandwidth scan and the pulse
propagator read; linear_response and coupling_matrix return the
elimination's two halves (the coherences' 3x2 response and M*L) at one
point.
The signal it returns is a photon-number amplitude: CE = |signal_out|^2
counts signal photons per probe photon, also when gamma31 != gamma41.

transfer_solve evaluates the same formula on Python floats and calls no
numpy: cmath and math stand in for numpy's ufuncs, and a copy of numpy's
complex division divides the Schur gains bit for bit as the grid does
(see steady_analytic._CMATH); steady_closed_form does the same with the
closed form.  Where that arithmetic raises (a math range error, x/0) or
its result fails the checks, the point is evaluated again on numpy's
ufuncs, whose error, class and message, or result is returned.  So
only successful results may differ from solve_grid's, and only in the
last bits, within the bounds the tests set.

The array entry points (solve_grid, linear_response, coupling_matrix
and the scalar calls' re-evaluation) run under one floating-point error
state, steady_analytic._TOLERATED: every floating-point error is ignored,
so an overflow or 0/0 comes out as inf or NaN, and the finiteness checks
turn it into a DomainError; the caller's np.geterr() is left as it was.
It is one module-level np.errstate used as a decorator, entered once per
call (the README gives the per-call timings).  A scalar call that
succeeds never enters it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BoundarySolveError, DomainError, located
from .params import (PASSIVITY_SLACK, DetuningSet, DriveParams, MediumParams,
                     SteadyResult, replace_params)
from .steady_analytic import (_CMATH, _REJUDGED, _TOLERATED, _UFUNCS,
                              _amplitudes, _rejudge, _require_regime)

#: log of the smallest |T[1,1]| the boundary solve accepts
LOG_T11_MIN = math.log(1e-14)
_LOG_2 = math.log(2.0)


#: the kernel's parameters in _coefficients' order, which takes them
#: positionally: the fields _point reads and the axes solve_grid accepts
_POINT_NAMES = ("alpha", "gamma21", "gamma31", "gamma41", "delta_kL",
                "omega_c", "omega_d", "delta", "delta_p", "Delta")
_GAMMA31 = _POINT_NAMES.index("gamma31")
_GAMMA41 = _POINT_NAMES.index("gamma41")


def _point(m: MediumParams, d: DriveParams, det: DetuningSet,
           number=lambda x: x) -> tuple:
    """Kernel parameters of one point, each through ``number``: as given,
    or float for the scalar kernel, where a numpy.float64 field then
    computes as the equal float.  Array values make a grid.  A tuple in
    the order of _POINT_NAMES."""
    return (number(m.alpha), number(m.gamma21), number(m.gamma31),
            number(m.gamma41), number(m.delta_kL), number(d.omega_c),
            number(d.omega_d), number(det.delta), number(det.delta_p),
            number(det.Delta))


def _coefficients(alpha, gamma21, gamma31, gamma41, delta_kL, omega_c,
                  omega_d, delta, delta_p, Delta) -> tuple:
    """(d31, d41, c1, c2, c3, a_p, b_p, a_s, b_s) of the steady state

        0     = c1*rho21 + c2*Op + c3*Os
        Op_z  = a_p*Op + b_p*rho21
        Os_z  = a_s*Os + b_s*rho21

    with rho31 = (i/2)(Op + omega_c*rho21)/d31 and
    rho41 = (i/2)(Os + omega_d*rho21)/d41 eliminated.  Scalars or
    broadcast arrays.
    """
    d31 = gamma31 / 2.0 - 1j * delta_p
    d41 = gamma41 / 2.0 - 1j * Delta
    # the drives are real (DriveParams): x*x, which overflows to inf
    # where a Python float's x**2 raises
    c1 = (1j * delta - gamma21 / 2.0
          - omega_c * omega_c / (4.0 * d31)
          - omega_d * omega_d / (4.0 * d41))
    c2 = -omega_c / (4.0 * d31)
    c3 = -omega_d / (4.0 * d41)
    a_p = -(alpha * gamma31 / 4.0) / d31
    b_p = -(alpha * gamma31 / 4.0) * omega_c / d31
    a_s = -1j * delta_kL + (alpha * gamma41 / 4.0) / d41
    b_s = (alpha * gamma41 / 4.0) * omega_d / d41
    return d31, d41, c1, c2, c3, a_p, b_p, a_s, b_s


def _eliminate(p: tuple, fn=_UFUNCS) -> tuple:
    """(d31, d41, g_p, g_s, (m00, m01, m10, m11)): rho21 = g_p*Op + g_s*Os
    and the entries of M*L.

    Re c1 < 0 whenever a drive is on, so c1 vanishes only with both drives
    off (and gamma21 = delta = 0), where c2 = c3 = 0 and rho21 = 0.
    """
    d31, d41, c1, c2, c3, a_p, b_p, a_s, b_s = _coefficients(*p)
    # every path rounds the gains as the grid does (numpy's division):
    # s^2 cancels their products
    g_p, g_s = fn.gains(c1, c2, c3)
    return d31, d41, g_p, g_s, (a_p + b_p * g_p, b_p * g_s,
                                b_s * g_p, a_s + b_s * g_s)


def _transfer(p: tuple, fn=_UFUNCS) -> tuple:
    """The kernel: (probe_out, signal_out, log|T[1,1]|) on parameter
    arrays, or on Python floats with fn=_CMATH.

    With T = exp(M), mu = tr(M)/2, N = M - mu*I and s = sqrt(-det N)
    (Re s >= 0), T = e^mu (cosh(s) I + sinh(s)/s N), so the boundary
    conditions give

        Os(0)/Op0  = -T[1,0]/T[1,1] = -th*M[1,0] / den
        probe_out  = det(T)/T[1,1]  = 2 e^(mu-s) / ((1 + e^(-2s)) den)

    with th = tanh(s)/s and den = 1 + th*N[1,1].  No intermediate grows
    like e^|s|, however thick the medium.  th is the direct quotient,
    which stays accurate to the last bits as s -> 0 (checked against
    scipy's expm); only s = 0 itself is masked, to th = 1.

    Equal optical depth makes the dipoles differ, |d41/d31|^2 =
    gamma41/gamma31, so the photon-number amplitude is signal_out =
    sqrt(gamma31/gamma41) * Os(0)/Op0 (the factor is exactly 1 at
    gamma31 = gamma41); then T + CE <= 1 for any decay rates.
    """
    m00, m01, m10, m11 = _eliminate(p, fn)[4]
    mu = 0.5 * (m00 + m11)
    n11 = 0.5 * (m11 - m00)
    s = fn.sqrt(n11 * n11 + m01 * m10)      # principal root: Re s >= 0
    # th(0) = 1: at s = 0 both get 1 added
    zero = s == 0.0
    th = (fn.tanh(s) + zero) / (s + zero)
    den = 1.0 + th * n11
    q = (1.0 + fn.exp(-2.0 * s)) * den      # 2 e^(-s) cosh(s) den
    # sign and photon-number factor meet as scalars, before th
    signal = -(p[_GAMMA31] / p[_GAMMA41]) ** 0.5 * th * m10 / den
    probe = 2.0 * fn.exp(mu - s) / q
    # log|T11| = Re mu + log|cosh s| + log|den|
    log_t11 = mu.real + s.real - _LOG_2 + fn.log(abs(q))
    return probe, signal, log_t11


def _result(probe, signal, log_t11) -> SteadyResult:
    """One kernel point as a SteadyResult; raises BoundarySolveError when
    |T[1,1]| < 1e-14, DomainError for non-finite or active amplitudes."""
    if log_t11 < LOG_T11_MIN:
        raise BoundarySolveError(
            f"boundary solve singular (|T11|={math.exp(log_t11):.3g})")
    return SteadyResult(complex(probe), complex(signal))


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


def _check_axes(bundle: tuple, at: dict, axes: dict, closed_form: bool):
    """Put each axis's extremes through the invariants of (m, d, det) and,
    with closed_form, the closed form's regime.  Each condition but drive
    balance is an interval in one parameter and argmin/argmax stop at a
    NaN, so the extremes stand for every value; the first unbalanced point
    joins them, and with no axes the base point is checked.  The first of
    these points in grid order that fails raises, located as in _checked."""
    grid = np.broadcast_arrays(*axes.values(), *at.values())
    shape = grid[0].shape if grid else ()
    ends = {int(f(v)) for v in grid[:len(axes)] or [np.zeros(shape)]
            if v.size for f in (np.argmin, np.argmax)}
    if closed_form:
        on = dict(zip(_POINT_NAMES, _point(*bundle)))
        on.update(zip(axes, grid))
        unbalanced = np.broadcast_to(on["omega_c"] != on["omega_d"], shape)
        ends.update(np.flatnonzero(unbalanced)[:1].tolist())
    for i in sorted(ends):
        i = np.unravel_index(i, shape)
        with located({name: v[i] for name, v in zip(at, grid[len(axes):])}):
            m, d, det = replace_params(bundle, **{
                name: float(v[i]) for name, v in zip(axes, grid)})
            if closed_form:
                _require_regime(m, d.omega_c, d.omega_d, det.delta_p,
                                det.Delta)


@_TOLERATED
def solve_grid(m: MediumParams, d: DriveParams, det: DetuningSet,
               at: dict | None = None, *, closed_form=False, **axes) -> tuple:
    """(probe_out, signal_out) amplitudes on a parameter grid: exact, or
    steady_analytic's closed form with closed_form.

    Each keyword (alpha, gamma21, gamma31, gamma41, delta_kL, omega_c,
    omega_d, delta, delta_p or Delta; any other is a TypeError) replaces
    that value of (m, d, det) with an array, and the arrays broadcast to a
    grid of any shape.  Every axis keeps the invariants of the parameter
    it replaces (and the closed form's regime, with closed_form), every
    point transfer_solve's checks; the first point that fails raises its
    error prefixed ``at name=value, ...:`` over the arrays of ``at``: the
    axes by default, or e.g. a grid in user units.
    """
    at = axes if at is None else at
    _check_axes((m, d, det), at, axes, closed_form)
    p = list(_point(m, d, det))
    for name, values in axes.items():
        if name not in _POINT_NAMES:    # gamma_phys: not a kernel parameter
            raise TypeError(f"no kernel parameter named {name!r}")
        p[_POINT_NAMES.index(name)] = values
    if closed_form:
        # in regime omega_d = omega_c and the other parameters are fixed
        on = dict(zip(_POINT_NAMES, p))
        return _checked(at, *_amplitudes(on["alpha"], on["delta_kL"],
                                         on["omega_c"], on["delta"]))
    return _checked(at, *_transfer(p))


def solve_probe_shift(m: MediumParams, d: DriveParams, det: DetuningSet,
                      x, at: dict) -> tuple:
    """solve_grid's (probe_out, signal_out) with the probe frequency
    shifted by x (Gamma units, an array), errors located over ``at``.

    Shifting the probe frequency by x moves every detuning that contains
    it: the signal it generates shifts with it, so the kernel runs at
    (delta + x, delta_p + x, Delta + x).  The model is linear, so this is
    the exact response to a probe component at that frequency: the
    bandwidth scan and, with x = -omega for a Fourier component
    e^(i omega t), the pulse propagator evaluate it.
    """
    return solve_grid(m, d, det, at, delta=det.delta + x,
                      delta_p=det.delta_p + x, Delta=det.Delta + x)


def _finite(what: str, values, m: MediumParams,
            d: DriveParams) -> np.ndarray:
    """``values`` as a complex array, or DomainError if one overflowed to
    inf or NaN (a drive too large to square, say)."""
    values = np.asarray(values, dtype=complex)
    if not np.isfinite(values).all():
        raise DomainError(f"{what} is not finite at alpha={m.alpha}, "
                          f"omega_c={d.omega_c}, omega_d={d.omega_d}")
    return values


@_TOLERATED
def linear_response(d: DriveParams, det: DetuningSet,
                    m: MediumParams) -> np.ndarray:
    """The coherences' linear response to the weak fields, a complex 3x2
    array: rows rho21, rho31, rho41, columns the coefficients per unit
    Omega_p and Omega_s; the coherences are its product with the pair."""
    d31, d41, g_p, g_s, _ = _eliminate(_point(m, d, det))
    r31, r41 = 0.5j / d31, 0.5j / d41
    return _finite("linear response", (
        g_p, g_s, r31 * (1.0 + d.omega_c * g_p), r31 * d.omega_c * g_s,
        r41 * d.omega_d * g_p, r41 * (1.0 + d.omega_d * g_s)),
        m, d).reshape(3, 2)


@_TOLERATED
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
    return _finite("coupling matrix", entries, m, d).reshape(2, 2)


def transfer_solve(d: DriveParams, det: DetuningSet,
                   m: MediumParams) -> SteadyResult:
    """Solve the steady boundary-value problem exactly.

    With T = exp(M*L): Omega_s(0)/Omega_p0 = -T[1,0]/T[1,1] (signal_out
    is that times sqrt(gamma31/gamma41), see SteadyResult) and probe_out =
    Omega_p(L)/Omega_p0 = det(T)/T[1,1], evaluated in the kernel's ratio
    form.  Raises BoundarySolveError when |T[1,1]| < 1e-14
    (perfect-reflection resonance).
    """
    try:
        return _result(*_transfer(_point(m, d, det, float), _CMATH))
    except _REJUDGED:
        # the array kernel judges the point as given: its error, or its
        # result
        return _result(*_rejudge(_transfer, _point(m, d, det)))
