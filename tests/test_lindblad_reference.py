"""The reduced model's coherences against the four-level master equation.

Every other steady cross-check starts from the hand-derived coefficients
of steady_numeric; this one starts from the Hamiltonian and the Lindblad
decay of tests/lindblad_reference.py.  Agreement to O(eps^2) in the field
amplitude is the evidence that the model is exactly the weak-probe limit,
and so that no output depends on the probe amplitude.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlambda_fwm import (DetuningSet, DriveParams, MediumParams,
                         linear_response)
from lindblad_reference import coherences_per_field

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def _relative_error(m, d, det, eps, branching=0.5) -> float:
    r = linear_response(d, det, m)
    linear = np.array([r.rho21, r.rho31, r.rho41])
    exact = np.array(coherences_per_field(m, d, det, eps, branching))
    return float(np.max(abs(exact - linear) / abs(linear)))


@pytest.mark.parametrize("branching", [0.5, 0.9])
def test_linear_response_is_the_weak_field_limit(branching):
    # unbalanced drives, all three detunings nonzero
    m = MediumParams(alpha=130.0, gamma21=7e-4, delta_kL=0.134 * math.pi)
    d = DriveParams(omega_c=1.2, omega_d=0.9)
    det = DetuningSet(delta=-0.0045, delta_p=0.03, Delta=-0.02)
    errors = [_relative_error(m, d, det, eps, branching)
              for eps in (1e-2, 1e-3, 1e-4)]
    assert errors[0] < 1e-3
    # exactly second order: each decade of eps is two decades of error
    for coarse, fine in zip(errors, errors[1:]):
        assert fine / coarse == pytest.approx(1e-2, rel=0.02)


@st.composite
def points(draw):
    m = MediumParams(alpha=1.0, gamma21=draw(st.floats(1e-4, 1e-2)),
                     gamma31=draw(st.floats(0.5, 2.0)),
                     gamma41=draw(st.floats(0.5, 2.0)))
    d = DriveParams(omega_c=draw(st.floats(0.2, 3.0)),
                    omega_d=draw(st.floats(0.2, 3.0)))
    det = DetuningSet(delta=draw(st.floats(-0.05, 0.05)),
                      delta_p=draw(st.floats(-1.0, 1.0)),
                      Delta=draw(st.floats(-1.0, 1.0)))
    return m, d, det, draw(st.floats(0.1, 0.9))


@PROPERTY
@given(points())
def test_linear_response_matches_master_equation(point):
    m, d, det, branching = point
    assert _relative_error(m, d, det, 1e-4, branching) < 1e-5
