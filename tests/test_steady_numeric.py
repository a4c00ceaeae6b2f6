import ast
import inspect
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from dlambda_fwm import (DetuningSet, DomainError, DriveParams, FwmError,
                         MediumParams, RegimeError, coupling_matrix,
                         linear_response, solve_grid, steady_analytic,
                         steady_closed_form, steady_numeric, transfer_solve,
                         validation)
from dlambda_fwm.steady_analytic import _python_gains, _ufunc_gains


def _bloch_matrix(m, d, det):
    """The steady Bloch equations, re-derived independently of the solver
    as A @ (rho21, rho31, rho41) = -(i/2)(0, Op, Os)."""
    return np.array([
        [1j * det.delta - m.gamma21 / 2, 0.5j * d.omega_c, 0.5j * d.omega_d],
        [0.5j * d.omega_c, 1j * det.delta_p - m.gamma31 / 2, 0.0],
        [0.5j * d.omega_d, 0.0, 1j * det.Delta - m.gamma41 / 2]])


def _bloch_residual(m, d, det, omega_p, omega_s, rho):
    return max(abs(_bloch_matrix(m, d, det) @ rho
                   + 0.5j * np.array([0.0, omega_p, omega_s])))


def test_linear_response_residual():
    m = MediumParams(alpha=130.0, gamma21=7e-4, delta_kL=0.134 * math.pi)
    d = DriveParams(omega_c=1.2, omega_d=1.2)
    det = DetuningSet(delta=-0.0045, delta_p=0.002, Delta=-0.001)
    op, os_ = 0.7 - 0.2j, 0.1 + 0.3j
    rho = linear_response(d, det, m) @ (op, os_)
    assert _bloch_residual(m, d, det, op, os_, rho) < 1e-12


def test_linear_response_linearity():
    # each column solves the Bloch equations for its unit field, so any
    # combination of the columns solves them for the same field combination
    m = MediumParams(alpha=45.0)
    d = DriveParams(omega_c=0.6, omega_d=0.3)
    det = DetuningSet(delta=0.01)
    r = linear_response(d, det, m)
    for op, os_ in ((1.0, 0.0), (0.0, 1.0), (0.7 + 0.2j, -0.3j)):
        rho = r @ (op, os_)
        assert _bloch_residual(m, d, det, op, os_, rho) < 1e-14


def test_two_level_limit():
    m = MediumParams(alpha=1.0)
    d = DriveParams(omega_c=0.0, omega_d=0.0)
    det = DetuningSet()
    rho21, rho31, rho41 = linear_response(d, det, m)[:, 0]
    assert rho21 == 0.0
    assert rho31 == pytest.approx(1j / m.gamma31)
    assert rho41 == 0.0


def test_ideal_eit_dark_state():
    m = MediumParams(alpha=45.0, gamma21=0.0)
    d = DriveParams(omega_c=0.6)
    det = DetuningSet()
    rho21, rho31, _ = linear_response(d, det, m)[:, 0]
    # perfect transparency: no excited-state amplitude, ground coherence -1/omega_c
    assert abs(rho31) < 1e-15
    assert rho21 == pytest.approx(-1.0 / 0.6, rel=1e-12)


def test_dark_state_at_weak_coupling():
    # the Schur-eliminated system stays regular however weak the coupling:
    # with gamma21 = 0 the dark state rho21 = -Omega_p/Omega_c is exact
    m = MediumParams(alpha=45.0, gamma21=0.0)
    d = DriveParams(omega_c=1e-7)
    det = DetuningSet()
    rho21, rho31, _ = linear_response(d, det, m)[:, 0]
    assert rho21 == pytest.approx(-1e7, rel=1e-12)
    assert abs(rho31) < 1e-12


def test_linear_response_matches_unit_solves():
    # rows rho21, rho31, rho41 and one column per unit field, against a
    # direct 3x3 solve of the Bloch system for each unit field
    m = MediumParams(alpha=130.0, gamma21=7e-4)
    d = DriveParams(omega_c=1.2, omega_d=0.9)
    det = DetuningSet(delta=-0.0045, delta_p=0.03, Delta=-0.02)
    resp = linear_response(d, det, m)
    assert resp.shape == (3, 2) and resp.dtype == np.complex128
    unit = np.linalg.solve(_bloch_matrix(m, d, det),
                           -0.5j * np.array([[0, 0], [1, 0], [0, 1]]))
    assert np.allclose(resp, unit, rtol=1e-12, atol=0)


def test_coupling_matrix_beer_lambert_structure():
    m = MediumParams(alpha=5.0)
    d = DriveParams(omega_c=0.0)
    det = DetuningSet()
    cm = coupling_matrix(d, det, m)
    assert cm[0, 0] == pytest.approx(-m.alpha / 2)
    assert cm[0, 1] == 0 and cm[1, 0] == 0


def test_coupling_matrix_no_drive_decouples():
    # without the second pump there is no pathway between probe and signal
    m = MediumParams(alpha=45.0, gamma21=2e-4, delta_kL=0.447 * math.pi)
    d = DriveParams(omega_c=0.6, omega_d=0.0)
    det = DetuningSet(delta=0.003)
    cm = coupling_matrix(d, det, m)
    assert cm[0, 1] == 0 and cm[1, 0] == 0


def test_coupling_matrix_vacuum():
    m = MediumParams(alpha=0.0, delta_kL=0.3)
    d = DriveParams(omega_c=1.0, omega_d=1.0)
    cm = coupling_matrix(d, DetuningSet(), m)
    expect = np.array([[0.0, 0.0], [0.0, -0.3j]])
    assert np.allclose(cm, expect, atol=1e-15)


# --- transfer_solve ---------------------------------------------------------

def test_transfer_huge_drive_is_a_domain_error():
    # omega^2 overflows to inf (a Python float's ** would raise); the
    # amplitudes are then not finite, which SteadyResult refuses
    with pytest.raises(DomainError, match="probe_out must be finite"):
        transfer_solve(DriveParams(omega_c=1e200), DetuningSet(),
                       MediumParams(alpha=1.0))


def test_coherence_response_huge_drive_is_a_domain_error():
    # omega^2 overflows to inf and the elimination to NaN: refused, not
    # returned (a leaked RuntimeWarning would fail the suite)
    m, d = MediumParams(alpha=1.0), DriveParams(omega_c=1e200, omega_d=1e200)
    with pytest.raises(DomainError, match="^linear response is not finite"):
        linear_response(d, DetuningSet(), m)
    with pytest.raises(DomainError, match="^coupling matrix is not finite"):
        coupling_matrix(d, DetuningSet(), m)


def test_transfer_vacuum_exact():
    m = MediumParams(alpha=0.0, delta_kL=0.2 * math.pi)
    r = transfer_solve(DriveParams(omega_c=1.0, omega_d=1.0), DetuningSet(), m)
    assert r.transmittance == pytest.approx(1.0, abs=1e-14)
    assert r.ce == 0.0
    # matched vacuum: M = 0, so s = 0 and tanh(s)/s takes its limit 1 from
    # the kernel's zero mask, exactly; a thin absorber takes the quotient
    r = transfer_solve(DriveParams(omega_c=1.0, omega_d=1.0), DetuningSet(),
                       MediumParams(alpha=0.0))
    assert (r.probe_out, r.signal_out) == (1.0, 0.0)
    assert (r.transmittance, r.ce) == (1.0, 0.0)
    r = transfer_solve(DriveParams(omega_c=0.0), DetuningSet(),
                       MediumParams(alpha=1e-6))
    assert r.transmittance == pytest.approx(math.exp(-1e-6), rel=1e-14)


@pytest.mark.parametrize("alpha", [0.1, 1.0, 5.0, 45.0, 130.0])
def test_transfer_beer_lambert(alpha):
    m = MediumParams(alpha=alpha)
    r = transfer_solve(DriveParams(omega_c=0.0), DetuningSet(), m)
    assert r.transmittance == pytest.approx(math.exp(-alpha), rel=1e-10,
                                            abs=1e-300)
    assert r.ce == 0.0


def test_transfer_ideal_eit():
    m = MediumParams(alpha=130.0, gamma21=0.0)
    r = transfer_solve(DriveParams(omega_c=1.2), DetuningSet(), m)
    assert abs(r.transmittance - 1.0) < 1e-9


def test_transfer_dense_peak_point():
    # optical depth 130, balanced 1.2 drives, optimum detuning
    m = MediumParams(alpha=130.0, gamma21=7e-4, delta_kL=0.134 * math.pi)
    r = transfer_solve(DriveParams(omega_c=1.2, omega_d=1.2),
                       DetuningSet(delta=-0.0045), m)
    assert r.ce == pytest.approx(0.9216089, abs=1e-6)


def test_transfer_matches_scipy_expm():
    # independent reference for the ratio-form boundary solve:
    # signal = -T10/T11, probe = exp(tr M)/T11 with T = expm(M)
    rng = np.random.default_rng(20261018)
    for k in range(300):
        on = k % 7 != 0                  # every seventh point is two-level
        m = MediumParams(
            alpha=float(math.exp(rng.uniform(math.log(0.1), math.log(400)))),
            gamma21=float(rng.uniform(0, 1e-2)),
            delta_kL=float(rng.uniform(-math.pi, math.pi)))
        d = DriveParams(omega_c=on * float(rng.uniform(0.05, 3.0)),
                        omega_d=on * float(rng.uniform(0.0, 3.0)))
        det = DetuningSet(delta=float(rng.uniform(-0.05, 0.05)),
                          delta_p=float(rng.uniform(-2, 2)),
                          Delta=float(rng.uniform(-2, 2)))
        mat = coupling_matrix(d, det, m)
        t = scipy.linalg.expm(mat)
        r = transfer_solve(d, det, m)
        signal, probe = -t[1, 0] / t[1, 1], np.exp(np.trace(mat)) / t[1, 1]
        assert abs(r.signal_out - signal) <= 1e-9 * abs(signal)
        assert abs(r.probe_out - probe) <= 1e-9 * abs(probe)


def test_transfer_small_s_matches_scipy_expm():
    # thin, nearly matched media put s = sqrt(-det N) near 0, where
    # tanh(s)/s is the direct quotient; expm has no such branch
    rng = np.random.default_rng(20261019)
    small = 0
    for k in range(200):
        on = k % 2 == 0                  # drives on, then off
        m = MediumParams(
            alpha=float(math.exp(rng.uniform(math.log(1e-9), math.log(0.1)))),
            gamma21=float(rng.uniform(0, 1e-2)),
            delta_kL=float(rng.uniform(-1e-4, 1e-4)))
        d = DriveParams(omega_c=on * float(rng.uniform(0.05, 3.0)),
                        omega_d=on * float(rng.uniform(0.0, 3.0)))
        det = DetuningSet(delta=float(rng.uniform(-0.05, 0.05)),
                          delta_p=float(rng.uniform(-2, 2)),
                          Delta=float(rng.uniform(-2, 2)))
        mat = coupling_matrix(d, det, m)
        n11 = 0.5 * (mat[1, 1] - mat[0, 0])
        small += abs(np.sqrt(n11 * n11 + mat[0, 1] * mat[1, 0])) < 1e-4
        t = scipy.linalg.expm(mat)
        r = transfer_solve(d, det, m)
        signal, probe = -t[1, 0] / t[1, 1], np.exp(np.trace(mat)) / t[1, 1]
        assert abs(r.signal_out - signal) <= 1e-13 * abs(signal)
        assert abs(r.probe_out - probe) <= 1e-13 * abs(probe)
    assert small > 100


def test_transfer_passivity_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = MediumParams(alpha=float(rng.uniform(0.1, 150)),
                         gamma21=float(rng.uniform(0, 1e-3)),
                         delta_kL=float(rng.uniform(-0.5, 0.5) * math.pi))
        d = DriveParams(omega_c=float(rng.uniform(0.1, 2.5)),
                        omega_d=float(rng.uniform(0, 2.5)))
        det = DetuningSet(delta=float(rng.uniform(-0.05, 0.05)),
                          delta_p=float(rng.uniform(-0.5, 0.5)),
                          Delta=float(rng.uniform(-0.5, 0.5)))
        r = transfer_solve(d, det, m)
        assert r.transmittance + r.ce <= 1.0 + 1e-9


def test_transfer_passivity_unequal_decay_rates():
    # with gamma31 != gamma41 the probe and signal dipoles differ, and CE
    # counts photons: T + CE <= 1 for any pair of decay rates
    rng = np.random.default_rng(15)
    n = 20000
    axes = dict(alpha=np.exp(rng.uniform(math.log(0.1), math.log(400), n)),
                gamma21=rng.uniform(0, 1e-2, n),
                gamma31=np.exp(rng.uniform(-5, 2, n)),
                gamma41=np.exp(rng.uniform(-5, 2, n)),
                delta_kL=rng.uniform(-math.pi, math.pi, n),
                omega_c=rng.uniform(0, 3, n), omega_d=rng.uniform(0, 3, n),
                delta=rng.uniform(-0.05, 0.05, n),
                delta_p=rng.uniform(-2, 2, n), Delta=rng.uniform(-2, 2, n))
    probe, signal = solve_grid(MediumParams(alpha=1.0),
                               DriveParams(omega_c=1.0), DetuningSet(),
                               **axes)
    assert np.max(abs(probe) ** 2 + abs(signal) ** 2) <= 1.0
    # signal_out is the Rabi ratio -T[1,0]/T[1,1] times
    # sqrt(gamma31/gamma41), here sqrt(0.5/2)
    m = MediumParams(alpha=130.0, gamma21=7e-4, gamma31=0.5, gamma41=2.0)
    d, det = DriveParams(omega_c=1.2, omega_d=1.2), DetuningSet(delta_p=0.1)
    t = scipy.linalg.expm(coupling_matrix(d, det, m))
    r = transfer_solve(d, det, m)
    assert r.signal_out == pytest.approx(-0.5 * t[1, 0] / t[1, 1], rel=1e-9)


def test_numpy_float_fields_solve_as_python_floats():
    # the dataclasses store Python floats, so a numpy.float64 field (what
    # numpy's random draws hand out) gives the result of the equal float,
    # bit for bit
    m = MediumParams(alpha=130.0, gamma21=7e-4, delta_kL=0.134 * math.pi)
    d, det = DriveParams(1.2, 1.1), DetuningSet(-0.003, 0.1, -0.2)
    m64, d64, det64 = (type(x)(**{k: np.float64(v) for k, v in
                                  vars(x).items()}) for x in (m, d, det))
    assert type(m64.alpha) is float
    assert transfer_solve(d64, det64, m64) == transfer_solve(d, det, m)
    mc = MediumParams(alpha=130.0, delta_kL=0.134 * math.pi)
    mc64 = MediumParams(alpha=np.float64(130.0),
                        delta_kL=np.float64(0.134 * math.pi))
    assert (steady_closed_form(mc64, np.float64(1.2), np.float64(-0.003))
            == steady_closed_form(mc, 1.2, -0.003))


def test_float32_fields_solve_as_their_floats_on_both_solvers():
    # stored as floats, float32 fields reach no kernel as float32: each
    # solver gives the result of the equal floats bit for bit (the grid
    # computed partly in float32 when the fields were stored as given)
    def bundle(cast):
        a, g, k, w, dl = (cast(np.float32(v))
                          for v in (130.0, 7e-4, 0.42, 1.2, -0.0045))
        return (MediumParams(alpha=a, gamma21=g, delta_kL=k),
                DriveParams(w, w), DetuningSet(dl))

    (m32, d32, det32), (m, d, det) = bundle(np.float32), bundle(float)
    assert transfer_solve(d32, det32, m32) == transfer_solve(d, det, m)
    assert ([a.tobytes() for a in solve_grid(m32, d32, det32)]
            == [a.tobytes() for a in solve_grid(m, d, det)])


def test_int_drive_whose_square_overflows_is_refused_as_its_float():
    m, det = MediumParams(alpha=130.0), DetuningSet()
    for solve in (lambda d: transfer_solve(d, det, m),
                  lambda d: solve_grid(m, d, det)):
        messages = []
        for big in (10**160, 1e160):
            with pytest.raises(DomainError) as exc:
                solve(DriveParams(big, big))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("name, values", [
    ("omega_d", np.array([True, False])),
    # 3037000500**2 overflows int64
    ("omega_c", np.array([1, 3037000500, 2**33], dtype=np.int64)),
    ("alpha", np.array([0, 130, 255], dtype=np.uint8)),
], ids=["bool", "int64", "uint8"])
def test_bool_and_integer_axes_solve_as_float64(name, values):
    base = (MediumParams(alpha=130.0), DriveParams(1.2, 1.2), DetuningSet())
    got = solve_grid(*base, **{name: values})
    want = solve_grid(*base, **{name: values.astype(float)})
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# --- solve_grid --------------------------------------------------------------

DENSE = (MediumParams(alpha=130.0, gamma21=7e-4),
         DriveParams(omega_c=1.2, omega_d=1.2), DetuningSet(delta_p=0.1))


def test_solve_grid_matches_transfer_solve():
    dkl = np.linspace(-0.5, 0.5, 5)[:, None]
    delta = np.linspace(-0.01, 0.01, 7)[None, :]
    probe, signal = solve_grid(*DENSE, delta_kL=dkl, delta=delta)
    assert probe.shape == signal.shape == (5, 7)
    m, d, det = DENSE
    for i, j in np.ndindex(probe.shape):
        r = transfer_solve(d, replace(det, delta=delta[0, j]),
                           replace(m, delta_kL=dkl[i, 0]))
        # Python's and numpy's complex division differ in the last bit of
        # M, and s^2 = N11^2 + M01*M10 cancels terms of ~1e3 down to ~10
        assert abs(probe[i, j] - r.probe_out) <= 1e-13 * abs(r.probe_out)
        assert abs(signal[i, j] - r.signal_out) <= 1e-14 * abs(r.signal_out)


def test_solve_grid_names_failing_point():
    alpha = np.array([1.0, np.nan, np.inf])
    with pytest.raises(DomainError, match="at alpha=nan: .* must be finite"):
        solve_grid(MediumParams(alpha=1.0), DriveParams(omega_c=1.0),
                   DetuningSet(), alpha=alpha)
    # off the first row of a 2-D grid, named on every axis
    alpha = np.ones((2, 3))
    alpha[1, 2] = np.nan
    with pytest.raises(DomainError, match=r"^at alpha=nan, delta_kL=0\.2, "
                       r"delta=0\.002: .* must be finite"):
        solve_grid(*DENSE, alpha=alpha,
                   delta_kL=np.array([0.1, 0.2])[:, None],
                   delta=np.array([-0.002, 0.0, 0.002]))


@pytest.mark.parametrize("axis, message", [
    ({"omega_c": np.array([-1.2])},
     r"^at omega_c=-1\.2: omega_c must be >= 0, got -1\.2$"),
    ({"gamma31": np.array([-1.0])},
     r"^at gamma31=-1: gamma31 must be > 0, got -1\.0$"),
    ({"alpha": np.array([-50.0])},
     r"^at alpha=-50: alpha must be >= 0, got -50\.0$"),
    # refused whole, not cast to its real part with a ComplexWarning
    ({"delta": np.array([0.002, 0.001j])},
     r"^at delta=0\.002\+0j: delta must be a real number, got "
     r"\(0\.002\+0j\)$"),
    ({"delta": np.array(["0.002", "0.001"])},
     r"^at delta=0\.002: delta must be a real number, got '0\.002'$"),
    ({"delta": np.array([0.002, None], dtype=object)},
     r"^at delta=0\.002: delta must be a real number, got "
     r"array\(0\.002, dtype=object\)$"),
], ids=["omega_c", "gamma31", "alpha", "complex delta", "str delta",
        "object delta"])
def test_solve_grid_axes_keep_parameter_invariants(axis, message):
    # an axis value the dataclasses would refuse is refused, not solved
    with pytest.raises(DomainError, match=message):
        solve_grid(MediumParams(alpha=130.0), DriveParams(1.2, 1.2),
                   DetuningSet(), **axis)


def test_solve_grid_without_axes_adds_no_location():
    with pytest.raises(DomainError, match=r"^probe_out must be finite"):
        solve_grid(MediumParams(alpha=1e308), DriveParams(1.2, 1.2),
                   DetuningSet())


def test_solve_grid_rejects_unknown_axis():
    with pytest.raises(TypeError):
        solve_grid(*DENSE, detla=np.zeros(3))
    # a field that is no kernel parameter, and a name with no values to
    # check, are refused on either solver
    in_regime = (MediumParams(alpha=130.0), DriveParams(1.2, 1.2),
                 DetuningSet())
    for base, closed_form in ((DENSE, False), (in_regime, True)):
        with pytest.raises(TypeError, match="no kernel parameter named"):
            solve_grid(*base, closed_form=closed_form,
                       gamma_phys=np.full(3, 1e7))
        with pytest.raises(TypeError):
            solve_grid(*base, closed_form=closed_form, detla=np.zeros(0))


def test_kernel_point_order_has_one_source():
    # _coefficients takes the point positionally: a table out of its
    # order, or a _point that reads another field, would solve silently
    # wrong
    names = steady_numeric._POINT_NAMES
    assert names == tuple(
        inspect.signature(steady_numeric._coefficients).parameters)
    bundle = (MediumParams(alpha=1.5, gamma21=0.25, gamma31=0.75,
                           gamma41=1.25, delta_kL=0.5),
              DriveParams(omega_c=2.5, omega_d=3.5),
              DetuningSet(delta=-0.125, delta_p=0.375, Delta=-0.625))
    fields = {f: getattr(part, f) for part in bundle
              for f in part.__dataclass_fields__}
    assert len(set(fields.values())) == len(fields)
    assert steady_numeric._point(*bundle) == tuple(fields[n] for n in names)


def test_passivity_check_fails_on_a_rejected_point(monkeypatch):
    # check 8 solves its random points as one grid; a point the solve
    # rejects fails the check and is named in its detail
    monkeypatch.setattr(steady_numeric, "LOG_T11_MIN", 1.0)
    r = validation.check_passivity_and_limits()
    assert not r.passed
    assert r.detail.startswith("at alpha=")
    assert "boundary solve singular" in r.detail


# --- solve_grid with the closed form ------------------------------------------

def test_solve_grid_closed_form_matches_scalar_closed_form():
    m = MediumParams(alpha=130.0, delta_kL=0.134 * math.pi)
    omega = np.linspace(0.6, 1.8, 4)[:, None]
    delta = np.linspace(-0.01, 0.005, 5)
    probe, signal = solve_grid(m, DriveParams(1.2, 1.2), DetuningSet(),
                               closed_form=True, omega_c=omega,
                               omega_d=omega, delta=delta)
    assert probe.shape == signal.shape == (4, 5)
    for i, j in np.ndindex(probe.shape):
        r = steady_closed_form(m, omega[i, 0], delta[j])
        assert probe[i, j] == pytest.approx(r.probe_out, rel=1e-14)
        assert signal[i, j] == pytest.approx(r.signal_out, rel=1e-14)


def test_solve_grid_closed_form_checks_balance_at_every_point():
    # balance couples two axes, so the axes' extremes (balanced here) do
    # not stand for the middle point, where the closed form would give
    # ce 0.883 against the exact 0.639
    m = MediumParams(alpha=130.0, delta_kL=0.4)
    base = (m, DriveParams(1.0, 1.0), DetuningSet(delta=-0.004))
    axes = dict(omega_c=np.array([1.0, 2.0, 3.0]),
                omega_d=np.array([1.0, 2.5, 3.0]))
    assert abs(solve_grid(*base, **axes)[1][1]) ** 2 == \
        pytest.approx(0.639, abs=1e-3)
    with pytest.raises(RegimeError, match=r"^at omega_c=2, omega_d=2\.5: "
                       "closed form needs balanced drives"):
        solve_grid(*base, closed_form=True, **axes)


def test_solve_grid_closed_form_without_axes_adds_no_location():
    # with no axes the regime is checked at the base point, unlocated
    with pytest.raises(RegimeError, match="^closed form needs one- and "
                       "three-photon resonance"):
        solve_grid(*DENSE, closed_form=True)
    with pytest.raises(RegimeError, match="^closed form assumes gamma21 = 0"):
        solve_grid(DENSE[0], DENSE[1], DetuningSet(), closed_form=True)
    # a grid of no points has no point to check
    probe, signal = solve_grid(*DENSE, {"x": np.array([])}, closed_form=True)
    assert probe.shape == signal.shape == (0,)


def test_equivalence_check_fails_on_a_rejected_point(monkeypatch):
    # check 1 solves both grids through solve_grid; an error fails the
    # check and is named in its detail, as in check 8
    monkeypatch.setattr(steady_numeric, "LOG_T11_MIN", 1.0)
    r = validation.check_oracle_equivalence()
    assert not r.passed
    assert r.detail.startswith("at alpha=")
    assert "boundary solve singular" in r.detail


# --- the scalar path ----------------------------------------------------------

def _same(a: float, b: float) -> bool:
    """a and b are the same float: equal with the same sign, so that
    signed zeros count, or both NaN."""
    if math.isnan(a):
        return math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _complex(re, im) -> np.ndarray:
    """re + i*im with each part as given (arithmetic would add zeros)."""
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def test_python_gains_are_numpy_complex128_division():
    # the scalar path divides the Schur gains in Python; it must round as
    # numpy's complex128 division does, scalar and array ufunc alike, or
    # scalar results drift from the grid's.  A numpy build that rounds
    # differently fails here.
    rng = np.random.default_rng(21)
    n = 3000

    def parts():
        # log-uniform magnitudes over 1e-300..1e300, both signs, and a
        # quarter signed zeros
        x = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-300, 300, n)
        return np.where(rng.random(n) < 0.25, rng.choice((-0.0, 0.0), n), x)

    c1, c2, c3 = (_complex(parts(), parts()) for _ in range(3))
    # c1 = 0 in all four signs, where both paths divide by the masked 1
    c1[:8] = _complex(np.array([0.0, -0.0] * 4),
                      np.array([0.0] * 4 + [-0.0] * 4))
    real_branch = abs(c1.real) >= abs(c1.imag)
    assert real_branch.sum() > n // 3 and (~real_branch).sum() > n // 3
    with np.errstate(all="ignore"):     # the extremes overflow in numpy too
        arrays = _ufunc_gains(c1, c2, c3)
        for i in range(n):
            args = complex(c1[i]), complex(c2[i]), complex(c3[i])
            scalars = _ufunc_gains(*args)
            python = _python_gains(*args)
            for k in range(2):
                for numpy_gain in (scalars[k], arrays[k][i]):
                    assert _same(python[k].real, numpy_gain.real) and \
                        _same(python[k].imag, numpy_gain.imag), (args, k)


def _outcome(call) -> tuple:
    """A scalar solve's result as the bits of every part, or its error."""
    try:
        r = call()
    except FwmError as exc:
        return type(exc), str(exc)
    parts = (r.probe_out.real, r.probe_out.imag, r.signal_out.real,
             r.signal_out.imag)
    return tuple(float(x).hex() for x in parts)


def test_scalar_solves_ignore_the_callers_error_state(monkeypatch):
    # a scalar call runs no numpy unless it re-judges a point on the
    # ufuncs, under the array paths' own error state: under "raise" it
    # returns the same bits and errors, and leaves np.geterr() as it was
    rejudged = []

    def counted(kernel, *args):
        rejudged.append(kernel.__name__)
        return rejudge(kernel, *args)

    rejudge = steady_analytic._rejudge
    monkeypatch.setattr(steady_analytic, "_rejudge", counted)
    monkeypatch.setattr(steady_numeric, "_rejudge", counted)
    rng = np.random.default_rng(21)
    calls = []
    for alpha, delta_kL, omega, delta in zip(
            10.0 ** rng.uniform(-2, 3, 150), rng.uniform(-4, 4, 150),
            rng.uniform(0.0, 3.0, 150), rng.uniform(-0.1, 0.1, 150)):
        m = MediumParams(alpha=alpha, gamma21=1e-3, delta_kL=delta_kL)
        d, det = DriveParams(omega, omega / 2), DetuningSet(delta, 0.3, -0.2)
        mc = MediumParams(alpha=alpha, delta_kL=delta_kL)
        calls += [lambda d=d, det=det, m=m: transfer_solve(d, det, m),
                  lambda m=mc, w=omega, x=delta: steady_closed_form(m, w, x)]
    # points the Python path refuses: they overflow to NaN, and the first
    # also underflows on the ufuncs
    calls += [lambda: transfer_solve(DriveParams(1e142), DetuningSet(-1e-297),
                                     MediumParams(1e215, delta_kL=-1e56)),
              lambda: transfer_solve(DriveParams(1.2, 1.2), DetuningSet(),
                                     MediumParams(alpha=1e308)),
              lambda: transfer_solve(DriveParams(1e200, 1.2), DetuningSet(),
                                     MediumParams(alpha=130.0)),
              lambda: steady_closed_form(MediumParams(alpha=130.0), 1e200,
                                         0.0)]
    before = np.geterr()
    for call in calls:
        tolerated = _outcome(call)
        with np.errstate(all="raise"):
            raising = _outcome(call)
            assert np.geterr() == {k: "raise" for k in before}
        assert raising == tolerated
        assert np.geterr() == before
    assert {"_transfer", "_amplitudes"} <= set(rejudged)


def test_scalar_solves_reach_no_numpy(monkeypatch):
    # with numpy's name unbound in both steady modules an ordinary point
    # still solves: the scalar path is Python arithmetic end to end
    class Unbound:
        def __getattr__(self, name):
            raise AssertionError(f"the scalar path reached np.{name}")

    m = MediumParams(alpha=130.0, gamma21=7e-4, delta_kL=0.134 * math.pi)
    expected = (transfer_solve(DriveParams(1.2, 0.6), DetuningSet(-0.0045),
                               m),
                steady_closed_form(replace(m, gamma21=0.0), 1.2, -0.0045))
    for module in (steady_numeric, steady_analytic):
        monkeypatch.setattr(module, "np", Unbound())
    assert (transfer_solve(DriveParams(1.2, 0.6), DetuningSet(-0.0045), m),
            steady_closed_form(replace(m, gamma21=0.0), 1.2,
                               -0.0045)) == expected


# --- module boundary -----------------------------------------------------------

def _numpy_attrs(attr, nodes) -> list:
    """The line numbers of ``np.<attr>`` among the ast ``nodes``."""
    return [node.lineno for node in nodes
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")]


def test_steady_kernels_call_no_np_where():
    # a 0-d np.where costs a scalar solve more than its arithmetic; the
    # kernels mask with arithmetic instead (x + mask, as in _amplitudes).
    # Likewise, building and entering an np.errstate costs a scalar call
    # twice what the one module-level decorator does, so the two modules
    # build exactly one, outside any function: one shared error state
    package = Path(__file__).resolve().parents[1] / "src" / "dlambda_fwm"
    errstates = []
    for name in ("steady_numeric.py", "steady_analytic.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        calls = _numpy_attrs("where", ast.walk(tree))
        assert calls == [], f"{name} calls np.where on lines {calls}"
        in_functions = _numpy_attrs("errstate", (
            node for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            for node in ast.walk(stmt)))
        assert in_functions == [], (f"{name} builds np.errstate inside a "
                                    f"function on lines {in_functions}")
        errstates += _numpy_attrs("errstate", ast.walk(tree))
    assert len(errstates) == 1, f"np.errstate built on lines {errstates}"


def test_error_state_only_on_array_entry_points():
    # a scalar call that succeeds enters no np.errstate: the one shared
    # state decorates the array paths alone
    package = Path(__file__).resolve().parents[1] / "src" / "dlambda_fwm"
    decorated = set()
    for name in ("steady_numeric.py", "steady_analytic.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        decorated |= {stmt.name for stmt in tree.body
                      if isinstance(stmt, ast.FunctionDef)
                      and any(isinstance(dec, ast.Name)
                              and dec.id == "_TOLERATED"
                              for dec in stmt.decorator_list)}
    assert decorated == {"solve_grid", "linear_response", "coupling_matrix",
                         "_rejudge"}


def test_private_kernels_are_reached_only_through_steady_numeric():
    # every grid goes through solve_grid: steady_analytic's private kernel
    # is imported only by steady_numeric, and steady_numeric's by no one
    package = Path(__file__).resolve().parents[1] / "src" / "dlambda_fwm"
    importers = {"steady_analytic": set(), "steady_numeric": set()}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and any(a.name.startswith("_") for a in node.names)):
                source = node.module.rsplit(".", 1)[-1]
                importers.get(source, set()).add(path.stem)
    assert importers == {"steady_analytic": {"steady_numeric"},
                         "steady_numeric": set()}
