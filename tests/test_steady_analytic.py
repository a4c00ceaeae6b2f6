import math
import re

import numpy as np
import pytest

from dlambda_fwm import (DetuningSet, DomainError, DriveParams, MediumParams,
                         RegimeError, optimal_delta, solve_grid,
                         steady_closed_form, transfer_solve)
from dlambda_fwm.steady_analytic import _aux
from dlambda_fwm.validation import (EQUIVALENCE_POINTS, EQUIVALENCE_SEED,
                                    equivalence_points)

DENSE = MediumParams(alpha=130.0, delta_kL=0.134 * math.pi)
MOT = MediumParams(alpha=45.0, delta_kL=0.447 * math.pi)


def test_aux_dense_point():
    xi, kappa, beta2, c = _aux(DENSE.alpha, DENSE.delta_kL, 1.2, -0.0045)
    beta = 1j * np.sqrt(-beta2)     # the root with Im(beta) >= 0
    assert xi == pytest.approx(0.0147234156, abs=1e-9)
    assert kappa == pytest.approx(130.00263108 - 0.02944683j, rel=1e-8)
    assert beta == pytest.approx(0.93883765 + 1.01992831j, rel=1e-7)
    assert c * beta == pytest.approx(0.93565038 + 1.02286218j, rel=1e-7)


def test_aux_satisfies_defining_relations():
    m, omega, delta = DENSE, 1.2, -0.0045
    xi_, kappa, beta2, c = _aux(m.alpha, m.delta_kL, omega, delta)
    w2 = omega * omega
    xi = m.delta_kL + delta * m.alpha / w2
    assert xi_ == pytest.approx(xi, rel=1e-14)
    assert kappa == pytest.approx(
        (m.alpha - 2 * m.delta_kL * delta / w2) - 2j * xi, rel=1e-14)
    assert beta2 == pytest.approx(
        (m.delta_kL + 1j * m.alpha) * (m.delta_kL * delta + 1j * w2 * xi)
        / (1j * w2 + delta), rel=1e-12)
    # q = c*beta squares to u*(u + i*alpha) on either branch
    u = xi - 1j * m.delta_kL * delta / w2
    assert c * c * beta2 == pytest.approx(u * (u + 1j * m.alpha), rel=1e-12)


def test_xi_reduces_to_mismatch_on_resonance():
    assert _aux(MOT.alpha, MOT.delta_kL, 0.6, 0.0)[0] == MOT.delta_kL


def test_vacuum_limit():
    m = MediumParams(alpha=0.0, delta_kL=0.3)
    r = steady_closed_form(m, 1.0, 0.0)
    assert r.ce == 0.0
    assert r.transmittance == pytest.approx(1.0, abs=1e-12)


def test_phase_matched_resonant_origin_is_regular():
    # dkL = delta = 0 gives beta = 0, where (1 - e^(i beta))/beta -> -i
    m = MediumParams(alpha=130.0, delta_kL=0.0)
    assert _aux(m.alpha, m.delta_kL, 1.2, 0.0)[2] == 0.0
    closed = steady_closed_form(m, 1.2, 0.0)
    exact = transfer_solve(DriveParams(omega_c=1.2, omega_d=1.2),
                           DetuningSet(), m)
    assert abs(closed.probe_out - exact.probe_out) < 1e-10
    assert abs(closed.signal_out - exact.signal_out) < 1e-10
    assert closed.ce == pytest.approx(0.941189575, abs=1e-9)


def test_regime_guards():
    with pytest.raises(DomainError):
        steady_closed_form(DENSE, 0.0, -0.0045)
    with pytest.raises(RegimeError):
        steady_closed_form(MediumParams(alpha=130.0, gamma21=7e-4), 1.2, 0.01)
    with pytest.raises(RegimeError):
        steady_closed_form(MediumParams(alpha=130.0, gamma31=2.0, gamma41=2.0),
                           1.2, 0.01)


def test_matches_exact_solver_at_dense_point():
    closed = steady_closed_form(DENSE, 1.2, -0.0045)
    exact = transfer_solve(DriveParams(omega_c=1.2, omega_d=1.2),
                           DetuningSet(delta=-0.0045), DENSE)
    assert abs(closed.ce - exact.ce) < 1e-10
    assert abs(closed.probe_out - exact.probe_out) < 1e-10


def test_matches_exact_solver_random_grid():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        m = MediumParams(alpha=float(rng.uniform(1.0, 200.0)),
                         delta_kL=float(rng.uniform(-math.pi, math.pi)))
        omega = float(rng.uniform(0.2, 3.0))
        delta = float(rng.uniform(-0.05, 0.05))
        closed = steady_closed_form(m, omega, delta)
        exact = transfer_solve(DriveParams(omega_c=omega, omega_d=omega),
                               DetuningSet(delta=delta), m)
        worst = max(worst,
                    abs(closed.ce - exact.ce) / max(exact.ce, 1e-30),
                    abs(closed.probe_out - exact.probe_out)
                    / max(abs(exact.probe_out), 1e-30))
    assert worst < 1e-8


def test_matches_exact_solver_at_huge_optical_depth():
    # |Im beta| ~ 6e3..6e4: only the root with Im(beta) >= 0 keeps every
    # exponential bounded (the second point's principal root has Im < 0)
    for alpha, dkl, omega, delta in ((1e5, 3.0, 1.2, 0.01),
                                     (1e6, -2.0, 2.0, -0.03)):
        m = MediumParams(alpha=alpha, delta_kL=dkl)
        closed = steady_closed_form(m, omega, delta)
        exact = transfer_solve(DriveParams(omega_c=omega, omega_d=omega),
                               DetuningSet(delta=delta), m)
        assert closed.signal_out == pytest.approx(exact.signal_out, rel=1e-12)
        assert abs(closed.probe_out - exact.probe_out) < 1e-12


def test_equivalence_points_are_the_loop_draws():
    # check 1 draws its points in one call; the interleaved scalar draws
    # of a loop give the same numbers
    rng = np.random.default_rng(EQUIVALENCE_SEED)
    loop = [(rng.uniform(1.0, 200.0), rng.uniform(0.2, 3.0),
             rng.uniform(-math.pi, math.pi), rng.uniform(-0.05, 0.05))
            for _ in range(EQUIVALENCE_POINTS)]
    assert np.array_equal(equivalence_points(), np.array(loop))


def test_mismatch_sign_flip_symmetry():
    # (delta_kL, delta) -> (-delta_kL, -delta) conjugates the solution
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = float(rng.uniform(5.0, 150.0))
        dkl = float(rng.uniform(0.05, 0.6) * math.pi)
        omega = float(rng.uniform(0.3, 2.0))
        delta = float(rng.uniform(-0.03, 0.03))
        a = steady_closed_form(MediumParams(alpha=alpha, delta_kL=dkl),
                               omega, delta)
        b = steady_closed_form(MediumParams(alpha=alpha, delta_kL=-dkl),
                               omega, -delta)
        assert a.ce == pytest.approx(b.ce, rel=1e-12, abs=1e-15)
        assert a.transmittance == pytest.approx(b.transmittance, rel=1e-12,
                                                abs=1e-15)


def test_optimal_delta_is_local_max_dense():
    ds = optimal_delta(DENSE, 1.2).delta
    ce0 = steady_closed_form(DENSE, 1.2, ds).ce
    assert ce0 == pytest.approx(0.94032447, abs=1e-7)
    assert ce0 > steady_closed_form(DENSE, 1.2, ds - 1e-4).ce
    assert ce0 > steady_closed_form(DENSE, 1.2, ds + 1e-4).ce


def test_optimal_delta_near_optimal_mot():
    # at large mismatch the quasi-phase-matching point sits slightly off
    # the true ce maximum; it must stay within 1e-3 of the peak value and
    # within 3 kHz of the fine-grid argmax
    ds = optimal_delta(MOT, 0.6).delta
    grid = ds + np.linspace(-1e-3, 1e-3, 81)
    ces = np.array([steady_closed_form(MOT, 0.6, float(x)).ce for x in grid])
    i = int(ces.argmax())
    assert 0 < i < len(grid) - 1          # peak interior to the window
    assert abs(grid[i] - ds) <= 5e-4
    assert ces[i] - steady_closed_form(MOT, 0.6, ds).ce <= 1e-3


def test_optimal_delta_values():
    dense = optimal_delta(DENSE, 1.2)
    assert dense.delta_khz == pytest.approx(-27.9785409, rel=1e-8)
    assert dense.delta == pytest.approx(-0.134 * math.pi * 1.44 / 130.0,
                                        rel=1e-14)
    mot = optimal_delta(MOT, 0.6)
    assert mot.delta_khz == pytest.approx(-67.4060120, rel=1e-8)


def test_optimal_delta_matched_medium():
    assert optimal_delta(MediumParams(alpha=45.0), 0.6).delta == 0.0


def test_optimal_delta_domain_errors():
    with pytest.raises(DomainError):
        optimal_delta(MediumParams(alpha=0.0), 1.0)
    with pytest.raises(DomainError):
        optimal_delta(DENSE, 0.0)


def test_non_finite_estimates_are_domain_errors():
    # each formula divides by omega^2 or alpha; a finite input whose
    # result overflows (or whose omega^2 underflows) is refused
    with pytest.raises(DomainError, match="optimal_delta is not finite"):
        optimal_delta(DENSE, 1e200)
    with pytest.raises(DomainError, match="optimal_delta is not finite"):
        optimal_delta(MediumParams(alpha=1e-300, delta_kL=0.134 * math.pi),
                      1e10)
    with pytest.raises(DomainError, match="nonzero omega\\^2"):
        steady_closed_form(MediumParams(alpha=130.0), 1e-200, 0.0)


def test_closed_form_huge_drive_is_a_domain_error():
    # omega^2 overflows to inf and the amplitudes to NaN: refused, not
    # returned (a leaked RuntimeWarning would fail the suite); an int
    # omega computes as its float
    for omega in (1e200, 10**200):
        with pytest.raises(DomainError, match="probe_out must be finite"):
            steady_closed_form(MediumParams(alpha=1.0), omega, 0.0)


@pytest.mark.parametrize("omega, delta", [
    (1.2, 1e-3j), (1.2, "0"), (1.2, None), (1j, 0.0), ("1.2", 0.0),
    (None, 0.0)])
def test_closed_form_argument_that_is_not_real_is_a_domain_error(omega,
                                                                 delta):
    # refused by name, not solved (a complex delta gave a CE) or left to
    # a TypeError
    name, value = ("delta", delta) if omega == 1.2 else ("omega", omega)
    message = f"^{name} must be a real number, got {re.escape(repr(value))}$"
    with pytest.raises(DomainError, match=message):
        steady_closed_form(DENSE, omega, delta)
    if name == "omega":
        with pytest.raises(DomainError, match=message):
            optimal_delta(DENSE, omega)


def test_optimal_delta_phase_matched_is_positive_zero():
    # delta_kL = 0 gives delta* = +0.0, which prints as 0, not -0
    r = optimal_delta(MediumParams(alpha=130.0), 1.2)
    assert math.copysign(1.0, r.delta) == 1.0
    assert math.copysign(1.0, r.delta_khz) == 1.0


@pytest.mark.parametrize("alpha, omega_c",
                         [(130.0, 1.2), (45.0, 0.6), (400.0, 3.0)])
def test_small_detuning_probe_phase_is_the_eit_dispersion(alpha, omega_c):
    # at gamma21 = 0 with the signal drive off, the exact probe phase
    # arg H_p(delta)/H_p(0) tends to the first-order EIT dispersion
    # delta*alpha/omega_c^2 (RMP 77, 633 (2005)) as delta -> 0
    delta = 1e-4
    h, _ = solve_grid(MediumParams(alpha=alpha, gamma21=0.0),
                      DriveParams(omega_c=omega_c, omega_d=0.0),
                      DetuningSet(), delta=np.array([0.0, delta]))
    phi = np.angle(h[1] * h[0].conjugate())
    assert phi / (delta * alpha / omega_c ** 2) == pytest.approx(1.0,
                                                                 abs=1e-6)
