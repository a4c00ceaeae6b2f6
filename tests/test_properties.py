"""Property tests of the steady kernel and the pulse propagator.

Derandomized with no deadline, so every run draws the same examples.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlambda_fwm import (BoundarySolveError, DetuningSet, DriveParams,
                         MediumParams, PulseSpec, simulate_pulse,
                         steady_closed_form, transfer_solve)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

alphas = st.floats(0.0, 200.0)
omegas = st.floats(0.0, 3.0)
two_photon = st.floats(-0.05, 0.05)
one_photon = st.floats(-1.0, 1.0)
mismatch = st.floats(-math.pi, math.pi)
#: (delta_kL, delta) at and around 0, where the closed form's beta -> 0
near_origin = st.tuples(st.floats(-1e-6, 1e-6), st.floats(-1e-6, 1e-6))


@st.composite
def points(draw, omega_d=omegas):
    m = MediumParams(alpha=draw(alphas), gamma21=draw(st.floats(0.0, 1e-2)),
                     delta_kL=draw(mismatch))
    d = DriveParams(omega_c=draw(omegas), omega_d=draw(omega_d))
    det = DetuningSet(delta=draw(two_photon), delta_p=draw(one_photon),
                      Delta=draw(one_photon))
    return m, d, det


@st.composite
def pulses(draw, omega_d=omegas):
    """A short gaussian on a grid that covers its support plus three group
    delays, at dt*Gamma = 0.4."""
    m = MediumParams(alpha=draw(st.floats(0.0, 130.0)),
                     gamma21=draw(st.floats(0.0, 1e-2)),
                     delta_kL=draw(mismatch))
    d = DriveParams(omega_c=draw(st.floats(0.8, 3.0)),
                    omega_d=draw(omega_d))
    det = DetuningSet(delta=draw(two_photon))
    duration = draw(st.floats(0.3e-6, 1.5e-6))
    p = PulseSpec(shape="gaussian", duration=duration, t_start=duration)
    delay = m.alpha / d.omega_c ** 2 / m.gamma_phys
    t_max = p.support_end() + 3.0 * delay + 1e-6
    n_t = max(100, math.ceil(t_max * m.gamma_phys / 0.4))
    return m, d, det, replace(p, grid=(0.0, t_max, n_t))


@PROPERTY
@given(points())
def test_kernel_passive(point):
    m, d, det = point
    try:
        r = transfer_solve(d, det, m)
    except BoundarySolveError:
        assume(False)
    assert r.transmittance + r.ce <= 1.0 + 1e-9


@PROPERTY
@given(points(omega_d=st.just(0.0)))
def test_no_drive_no_signal_steady(point):
    m, d, det = point
    try:
        r = transfer_solve(d, det, m)
    except BoundarySolveError:
        assume(False)
    assert r.signal_out == 0.0


@PROPERTY
@given(pulses(omega_d=st.just(0.0)))
def test_no_drive_no_signal_pulsed(case):
    tr = simulate_pulse(*case)
    assert np.all(tr.signal_out == 0.0)


@PROPERTY
@given(st.floats(1.0, 200.0), st.floats(0.2, 3.0),
       st.tuples(mismatch, two_photon) | near_origin)
def test_closed_form_matches_kernel_in_regime(alpha, omega, mismatch_delta):
    dkl, delta = mismatch_delta
    m = MediumParams(alpha=alpha, delta_kL=dkl)
    closed = steady_closed_form(m, omega, delta)
    exact = transfer_solve(DriveParams(omega_c=omega, omega_d=omega),
                           DetuningSet(delta=delta), m)
    assert abs(closed.ce - exact.ce) <= 1e-8 * max(exact.ce, 1e-30)
    assert (abs(closed.probe_out - exact.probe_out)
            <= 1e-8 * max(abs(exact.probe_out), 1e-30))
