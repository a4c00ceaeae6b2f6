import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from dlambda_fwm import (DetuningSet, DomainError, DriveParams, MediumParams,
                         coupling_matrix, linear_response, solve_grid,
                         steady_coherences, steady_numeric, transfer_solve,
                         validation)


def _bloch_residual(m, d, det, omega_p, omega_s, rho):
    """Re-derived steady-state equations, independent of the solver's matrix."""
    rho21, rho31, rho41 = rho
    r1 = ((1j * det.delta - m.gamma21 / 2) * rho21
          + 0.5j * np.conj(d.omega_c) * rho31
          + 0.5j * np.conj(d.omega_d) * rho41)
    r2 = (0.5j * omega_p + 0.5j * d.omega_c * rho21
          + (1j * det.delta_p - m.gamma31 / 2) * rho31)
    r3 = (0.5j * omega_s + 0.5j * d.omega_d * rho21
          + (1j * det.Delta - m.gamma41 / 2) * rho41)
    return max(abs(r1), abs(r2), abs(r3))


def test_steady_coherences_residual():
    m = MediumParams(alpha=130.0, gamma21=7e-4, delta_kL=0.134 * math.pi)
    d = DriveParams(omega_c=1.2, omega_d=1.2)
    det = DetuningSet(delta=-0.0045, delta_p=0.002, Delta=-0.001)
    op, os_ = 0.7 - 0.2j, 0.1 + 0.3j
    rho = steady_coherences(op, os_, d, det, m)
    assert _bloch_residual(m, d, det, op, os_, rho) < 1e-12


def test_steady_coherences_linearity():
    m = MediumParams(alpha=45.0)
    d = DriveParams(omega_c=0.6, omega_d=0.3)
    det = DetuningSet(delta=0.01)
    a = steady_coherences(1.0, 0.0, d, det, m)
    b = steady_coherences(0.0, 1.0, d, det, m)
    op, os_ = 0.7 + 0.2j, -0.3j
    combo = tuple(op * x + os_ * y for x, y in zip(a, b))
    direct = steady_coherences(op, os_, d, det, m)
    assert max(abs(x - y) for x, y in zip(combo, direct)) < 1e-14


def test_two_level_limit():
    m = MediumParams(alpha=1.0)
    d = DriveParams(omega_c=0.0, omega_d=0.0)
    det = DetuningSet()
    rho21, rho31, rho41 = steady_coherences(1.0, 0.0, d, det, m)
    assert rho21 == 0.0
    assert rho31 == pytest.approx(1j / m.gamma31)
    assert rho41 == 0.0


def test_ideal_eit_dark_state():
    m = MediumParams(alpha=45.0, gamma21=0.0)
    d = DriveParams(omega_c=0.6)
    det = DetuningSet()
    rho21, rho31, _ = steady_coherences(1.0, 0.0, d, det, m)
    # perfect transparency: no excited-state amplitude, ground coherence -1/omega_c
    assert abs(rho31) < 1e-15
    assert rho21 == pytest.approx(-1.0 / 0.6, rel=1e-12)


def test_dark_state_at_weak_coupling():
    # the Schur-eliminated system stays regular however weak the coupling:
    # with gamma21 = 0 the dark state rho21 = -Omega_p/Omega_c is exact
    m = MediumParams(alpha=45.0, gamma21=0.0)
    d = DriveParams(omega_c=1e-7)
    det = DetuningSet()
    rho21, rho31, _ = steady_coherences(1.0, 0.0, d, det, m)
    assert rho21 == pytest.approx(-1e7, rel=1e-12)
    assert abs(rho31) < 1e-12


def test_linear_response_matches_unit_solves():
    m = MediumParams(alpha=130.0, gamma21=7e-4)
    d = DriveParams(omega_c=1.2, omega_d=1.2)
    det = DetuningSet(delta=-0.0045)
    resp = linear_response(d, det, m)
    up = steady_coherences(1.0, 0.0, d, det, m)
    us = steady_coherences(0.0, 1.0, d, det, m)
    assert (resp.rho21[0], resp.rho31[0], resp.rho41[0]) == up
    assert (resp.rho21[1], resp.rho31[1], resp.rho41[1]) == us


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

def test_transfer_vacuum_exact():
    m = MediumParams(alpha=0.0, delta_kL=0.2 * math.pi)
    r = transfer_solve(DriveParams(omega_c=1.0, omega_d=1.0), DetuningSet(), m)
    assert r.transmittance == pytest.approx(1.0, abs=1e-14)
    assert r.ce == 0.0
    # matched vacuum (M = 0) and a thin absorber take the tanh(s)/s series
    r = transfer_solve(DriveParams(omega_c=1.0, omega_d=1.0), DetuningSet(),
                       MediumParams(alpha=0.0))
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


def test_transfer_probe_amplitude_invariance():
    m = MediumParams(alpha=130.0, gamma21=7e-4, delta_kL=0.134 * math.pi)
    det = DetuningSet(delta=-0.0045)
    base = transfer_solve(DriveParams(omega_c=1.2, omega_d=1.2), det, m)
    scaled = transfer_solve(
        DriveParams(omega_c=1.2, omega_d=1.2,
                    omega_p0=3.0 * np.exp(1j * math.pi / 7)), det, m)
    assert scaled.transmittance == pytest.approx(base.transmittance, rel=1e-12)
    assert scaled.ce == pytest.approx(base.ce, rel=1e-12)


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
], ids=["omega_c", "gamma31", "alpha"])
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


def test_passivity_check_fails_on_a_rejected_point(monkeypatch):
    # check 8 solves its random points as one grid; a point the solve
    # rejects fails the check and is named in its detail
    monkeypatch.setattr(steady_numeric, "LOG_T11_MIN", 1.0)
    r = validation.check_passivity_and_limits()
    assert not r.passed
    assert r.detail.startswith("at alpha=")
    assert "boundary solve singular" in r.detail
