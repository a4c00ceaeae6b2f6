"""Property tests of the steady kernel and the pulse propagator.

Derandomized with no deadline, so every run draws the same examples.
"""

import cmath
import contextlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlambda_fwm import (BoundarySolveError, DetuningSet, DriveParams,
                         FwmError, MediumParams, PulseSpec, coupling_matrix,
                         linear_response, simulate_pulse, solve_grid,
                         steady_closed_form, transfer_solve)
from dlambda_fwm.cli import main
from dlambda_fwm.dynamics import MAX_N_T
from dlambda_fwm.params import CONFIG_KEYS

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


def _magnitudes(lo, hi):
    """0 or a log-uniform magnitude in [10**lo, 10**hi]."""
    return st.just(0.0) | st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _signed(lo, hi):
    return st.tuples(st.sampled_from((1.0, -1.0)),
                     _magnitudes(lo, hi)).map(lambda t: t[0] * t[1])


huge_alphas = _magnitudes(-3.0, 300.0)
huge_drives = st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e)
huge_detunings = _signed(-300.0, 300.0)


@st.composite
def extreme_points(draw):
    m = MediumParams(alpha=draw(huge_alphas), gamma21=draw(_magnitudes(-3, 3)),
                     delta_kL=draw(huge_detunings))
    d = DriveParams(omega_c=draw(huge_drives), omega_d=draw(huge_drives))
    det = DetuningSet(delta=draw(huge_detunings),
                      delta_p=draw(huge_detunings), Delta=draw(huge_detunings))
    return m, d, det


def _finite(*values):
    return all(cmath.isfinite(v) for v in values)


def _typed_or_finite(call, finite):
    """call()'s result passes ``finite`` unless call raised an FwmError;
    numpy's error state is the same afterwards either way."""
    before = np.geterr()
    try:
        r = call()
    except FwmError:
        r = None
    assert np.geterr() == before
    assert r is None or finite(r), r


def _steady_ok(r):
    return (_finite(r.probe_out, r.signal_out, r.transmittance, r.ce, r.loss)
            and r.transmittance + r.ce <= 1.0 + 1e-9)


def _agree_with_grid(call, grid):
    """The scalar call() and the one-point grid() raise the same error,
    class and message, or give amplitudes equal to 1e-12 relative: the
    scalar path computes in Python complex arithmetic and hands every
    failure to the array kernel."""
    try:
        r = call()
    except FwmError as exc:
        with pytest.raises(FwmError) as grid_exc:
            grid()
        assert (type(grid_exc.value), str(grid_exc.value)) == \
            (type(exc), str(exc))
        return
    probe, signal = grid()
    assert abs(r.probe_out - probe) <= 1e-12 * abs(probe)
    assert abs(r.signal_out - signal) <= 1e-12 * abs(signal)


@settings(PROPERTY, max_examples=200)
@given(extreme_points())
def test_extreme_inputs_give_finite_passive_results_or_typed_errors(point):
    # the kernels run under one shared errstate: an overflow or 0/0 inside
    # them must end in a typed error (a leaked warning fails the suite)
    m, d, det = point
    _typed_or_finite(lambda: transfer_solve(d, det, m), _steady_ok)
    _typed_or_finite(lambda: coupling_matrix(d, det, m),
                     lambda cm: np.isfinite(cm).all())
    _typed_or_finite(lambda: linear_response(d, det, m),
                     lambda r: np.isfinite(r).all())
    # the closed form's regime: balanced drives, the rest at the defaults
    mc = MediumParams(alpha=m.alpha, delta_kL=m.delta_kL)
    _typed_or_finite(lambda: steady_closed_form(mc, d.omega_c, det.delta),
                     _steady_ok)
    _agree_with_grid(lambda: transfer_solve(d, det, m),
                     lambda: solve_grid(m, d, det))
    _agree_with_grid(
        lambda: steady_closed_form(mc, d.omega_c, det.delta),
        lambda: solve_grid(mc, DriveParams(d.omega_c, d.omega_c),
                           DetuningSet(delta=det.delta), closed_form=True))


#: every command form of the CLI; the pulses on a short window and a small
#: --n-t, so that a draw costs milliseconds
_SHORT_PULSE = ["--duration-us", "0.5", "--t-start-us", "0.5",
                "--t-max-us", "12", "--n-t", "1000"]
CLI_FORMS = {
    "steady": ["steady", "--preset", "fig4a"],
    "steady-closed-form": ["steady", "--preset", "fig4a", "--set",
                           "gamma21=0", "--closed-form"],
    "optimize-delta": ["optimize-delta", "--preset", "fig4a"],
    "sweep": ["sweep", "--preset", "fig4b"],
    "bandwidth": ["bandwidth", "--preset", "fig4b"],
    "pulse-fig5a": ["pulse", "--preset", "fig5a", *_SHORT_PULSE],
    "pulse-fig2a": ["pulse", "--preset", "fig2a", *_SHORT_PULSE],
}
#: any float, NaN and the infinities included, and values that underflow
#: or overflow once halved, squared or converted to Gamma units
any_float = st.floats() | st.sampled_from(
    (5e-324, 1e-323, 2.2e-308, 1e-154, 1e154, 1e155, 1e308, -1e308))


def _assert_typed(argv):
    """Bad input ends in a usage error (1) or a typed error (2): no
    exception or numpy warning escapes cli.main, and a success prints no
    NaN."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    if code == 0:
        assert "nan" not in out.getvalue().lower()


@pytest.mark.parametrize("form", CLI_FORMS)
@pytest.mark.parametrize("key", CONFIG_KEYS)
@settings(PROPERTY, max_examples=6)
@given(value=any_float, more=st.lists(
    st.tuples(st.sampled_from(CONFIG_KEYS), any_float), max_size=2),
    fmt=st.sampled_from(("csv", "json-like")))
def test_cli_exit_code_is_typed(form, key, value, more, fmt):
    argv = [*CLI_FORMS[form], "--format", fmt]
    for k, v in [(key, value), *more]:
        argv += ["--set", f"{k}={v!r}"]
    _assert_typed(argv)


PULSE_FLAGS = ("--duration-us", "--t-start-us", "--ramp-us", "--t-max-us",
               "--n-t")
#: times of either sign: a pulse centred far before the window is as
#: valid as one far after it
signed_float = st.tuples(st.sampled_from((1.0, -1.0)), any_float).map(
    lambda t: t[0] * t[1])
#: an --n-t that runs in milliseconds, one beyond the cap, or a float,
#: which argparse refuses
n_t_values = (st.integers(max_value=4000)
              | st.integers(min_value=MAX_N_T + 1) | any_float)


def _pulse_flag(flag):
    return st.tuples(st.just(flag),
                     n_t_values if flag == "--n-t" else signed_float)


#: the short pulses of CLI_FORMS, gaussian or a flat top with its ramp
#: resolved
SHAPES = {"gaussian": [], "flat_top": ["--shape", "flat_top",
                                       "--ramp-us", "0.1"]}


@pytest.mark.parametrize("form", ["pulse-fig5a", "pulse-fig2a"])
@pytest.mark.parametrize("flag", PULSE_FLAGS)
@settings(PROPERTY, max_examples=12)
@given(data=st.data(), shape=st.sampled_from(tuple(SHAPES)),
       fmt=st.sampled_from(("csv", "json-like")))
def test_cli_pulse_flags_exit_code_is_typed(form, flag, data, shape, fmt):
    # the same rules for the pulse's own flags, drawn over the whole
    # float range, with up to two more flags and a config key
    drawn = [data.draw(_pulse_flag(flag)), *data.draw(st.lists(
        st.sampled_from(PULSE_FLAGS).flatmap(_pulse_flag), max_size=2))]
    argv = [*CLI_FORMS[form], *SHAPES[shape], "--format", fmt,
            *(f"{f}={v!r}" for f, v in drawn)]
    for k, v in data.draw(st.lists(
            st.tuples(st.sampled_from(CONFIG_KEYS), any_float), max_size=1)):
        argv += ["--set", f"{k}={v!r}"]
    _assert_typed(argv)
