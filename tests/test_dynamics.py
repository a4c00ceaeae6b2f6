import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dlambda_fwm import (DetuningSet, DomainError, DriveParams, GridError,
                         MediumParams, PulseSpec, PulseTrace, dynamics,
                         energy_budget, figure_preset, group_delay,
                         simulate_pulse, transfer_solve)
from z_stepper import step_pulse

# lighter grid used throughout: a 100 us window at the presets' time step
LIGHT = (0.0, 100e-6, 8000)


def _fig2a_trace(grid=LIGHT):
    pre = figure_preset("fig2a")
    pulse = replace(pre.pulse, grid=grid)
    return simulate_pulse(pre.medium, pre.drive, pre.detuning, pulse)


def _conversion_case():
    """A short conversion pulse at low optical depth on a short grid; the
    input starts below 1e-7 of its peak."""
    m = MediumParams(alpha=20.0, gamma21=7e-4, delta_kL=0.1 * math.pi)
    d = DriveParams(omega_c=1.2, omega_d=1.2)
    det = DetuningSet(delta=-0.02)
    p = PulseSpec(shape="gaussian", duration=0.5e-6, t_start=0.5e-6,
                  grid=(0.0, 3e-6, 300))
    return m, d, det, p


# --- PulseSpec --------------------------------------------------------------

def test_pulse_spec_validation():
    with pytest.raises(DomainError):
        PulseSpec(shape="square", duration=1e-6)
    with pytest.raises(DomainError):
        PulseSpec(shape="gaussian", duration=0.0)
    with pytest.raises(GridError):
        PulseSpec(shape="gaussian", duration=1e-6, grid=(0.0, 1e-5, 50))
    # the cap fires before any time sample is allocated
    with pytest.raises(GridError, match="n_t"):
        PulseSpec(shape="gaussian", duration=1e-6, grid=(0.0, 1e-3, 10**9))
    for t_start in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="t_start must be finite"):
            PulseSpec(shape="gaussian", duration=1e-6, t_start=t_start)
    for grid in ((0.0, math.inf, 1000), (-math.inf, 1e-4, 1000),
                 (math.nan, 1e-4, 1000), (-1e155, 1e-4, 1000)):
        with pytest.raises(GridError, match="bounds must be finite"):
            PulseSpec(shape="gaussian", duration=1e-6, grid=grid)


@pytest.mark.parametrize("grid", [(0.0, 1e-4, math.nan),
                                  (0.0, 1e-4, math.inf), (0.0, 1e-4),
                                  ("a", 1, 2), (0.0, 2e-5, 1000.9),
                                  # ints beyond the float range
                                  (0, 10**400, 1000),
                                  (-10**400, 1e-3, 1000),
                                  # ints too long for str(): the messages
                                  # do not echo them
                                  (0.0, 1e-3, 10**5000),
                                  ("a", 10**5000, 1000)])
def test_pulse_spec_malformed_grid(grid):
    with pytest.raises(GridError):
        PulseSpec(shape="gaussian", duration=1e-6, grid=grid)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("field", ["duration", "t_start", "ramp"])
def test_pulse_spec_refuses_ints_beyond_the_float_range(field, sign):
    # float arithmetic on them raises OverflowError, and an int too long
    # for str() is not echoed
    spec = {"duration": 1e-6, "ramp": 1e-7, field: sign * 10**5000}
    with pytest.raises(DomainError, match=rf"^{field} = a value too long to "
                                          "print is beyond the float range$"):
        PulseSpec("flat_top", **spec)
    for big in (sign * 10**400, Fraction(sign * 10**400)):
        spec[field] = big
        with pytest.raises(DomainError, match=rf"^{field} = -?10{{400}} is "
                                              "beyond the float range$"):
            PulseSpec("flat_top", **spec)


def test_pulse_spec_step_resolves_the_shortest_feature():
    assert dynamics.STEPS_PER_FEATURE == 8
    # 8 steps of 0.125 us per 1 us width pass, 7.9 do not
    PulseSpec("gaussian", 1e-6, grid=(0.0, 100e-6, 800))
    # 8 steps exactly, though 8 * dt rounds above the duration
    PulseSpec("gaussian", 0.24e-6, grid=(0.0, 3e-6, 100))
    with pytest.raises(GridError, match=r"^time step 0\.125 us does not "
                                        r"resolve the duration of 0\.9875 us"):
        PulseSpec("gaussian", 0.9875e-6, grid=(0.0, 100e-6, 800))
    # a flat top is judged by its ramp, whatever its hold
    PulseSpec("flat_top", 0.01e-6, ramp=1.2e-6, grid=(0.0, 150e-6, 1000))
    with pytest.raises(GridError, match="the ramp of 1 us"):
        PulseSpec("flat_top", 100e-6, ramp=1e-6, grid=(0.0, 150e-6, 1000))
    # a gaussian far below the step is refused before any sample is built
    with pytest.raises(GridError, match="duration of 2.22507e-309 us"):
        PulseSpec("gaussian", 2.225073858507203e-315, t_start=0.0,
                  grid=(0.0, 8e-6, 604))
    # a grid that resolves a gaussian whose square is not a normal float
    for duration, grid in ((1e-160, (0.0, 1e-158, 1000)),
                           (1e160, (0.0, 1e-4, 1000))):
        with pytest.raises(DomainError, match="its square is not a normal"):
            PulseSpec("gaussian", duration, t_start=-3 * duration, grid=grid)


def test_gaussian_far_from_its_centre_is_zero():
    # (t - t0)**2 overflows; no numpy warning leaks
    p = PulseSpec("gaussian", 30e-6, t_start=-1e294)
    assert np.all(p.amplitude(p.times()) == 0.0)


def test_underflowing_drive_propagates_as_drive_off():
    # omega_c**2 underflows to 0, so there is no EIT delay to cover
    m, det = MediumParams(alpha=45.0), DetuningSet()
    p = PulseSpec("gaussian", 5e-6, t_start=5e-6, grid=(0.0, 40e-6, 4000))
    off = simulate_pulse(m, DriveParams(omega_c=0.0), det, p)
    tiny = simulate_pulse(m, DriveParams(omega_c=1e-200), det, p)
    np.testing.assert_allclose(tiny.probe_out, off.probe_out, rtol=1e-12)


def test_pulse_spec_shapes():
    p = PulseSpec(shape="gaussian", duration=30e-6)
    assert p.support_end() == pytest.approx(p.t_start + 60e-6)
    # peak 1 at the center t_start + duration
    assert p.amplitude(np.array([p.t_start + 30e-6]))[0] == 1.0

    f = PulseSpec(shape="flat_top", duration=50e-6)
    assert f.ramp == pytest.approx(5e-6)     # default duration/10
    assert f.support_end() == pytest.approx(f.t_start + 60e-6)
    t = f.times()
    y = f.amplitude(t)
    hold = (t >= f.t_start + f.ramp) & (t < f.t_start + f.ramp + f.duration)
    assert np.all(y[hold] == 1.0)
    assert np.all(y[t < f.t_start] == 0.0)


# --- grid preconditions -----------------------------------------------------

def test_coarse_grid_matches_fine_one():
    # the propagation is exact per Fourier component, so a step that
    # resolves the pulse gives the preset's numbers at any dt*Gamma
    # (here 15 against 0.47)
    pre = figure_preset("fig5a")
    out = []
    for n_t in (375, 12000):
        pulse = replace(pre.pulse, grid=(0.0, 150e-6, n_t))
        tr = simulate_pulse(pre.medium, pre.drive, pre.detuning, pulse)
        out.append((group_delay(tr), energy_budget(tr)))
    (delay, coarse), (delay_fine, fine) = out
    assert delay == pytest.approx(delay_fine, rel=1e-9)
    assert coarse.ce_pulse == pytest.approx(fine.ce_pulse, rel=1e-9)
    assert coarse.t_pulse == pytest.approx(fine.t_pulse, rel=1e-8)


def test_grid_error_short_window():
    pre = figure_preset("fig2a")
    pulse = replace(pre.pulse, grid=(0.0, 80e-6, 8000))
    with pytest.raises(GridError, match="support"):
        simulate_pulse(pre.medium, pre.drive, pre.detuning, pulse)
    # the energy the inverse FFT puts in the padded samples cannot stand in
    # for this rule: without it, this grid leaves only 4.7e-4 of the input
    # energy there, yet the probe (T 0.58, delay 11.8 us, 2.4 windows)
    # wraps into the window and the output is off by 0.34 of the input
    # peak
    p = PulseSpec("gaussian", 1.5e-6, t_start=0.5e-6, grid=(0.0, 5e-6, 472))
    with pytest.raises(GridError, match="3 group delays"):
        simulate_pulse(MediumParams(alpha=1000.0), DriveParams(omega_c=1.5),
                       DetuningSet(), p)


@pytest.mark.parametrize("key", ["delta", "delta_p", "Delta"])
def test_grid_error_shifted_detuning_beyond_the_float_range(key):
    # dt*Gamma 3.1e-308 puts the outer bins near 1e308 in Gamma units;
    # each bin shifts all three detunings, so a huge one of any of them
    # is refused as a huge delta is
    m, d = MediumParams(alpha=0.0, gamma_phys=2.6e-300), DriveParams(0.6)
    p = PulseSpec("gaussian", 0.5e-6, t_start=0.5e-6, grid=(0.0, 12e-6, 1000))
    simulate_pulse(m, d, DetuningSet(), p)
    with pytest.raises(GridError, match=r"^time step too fine: dt\*Gamma = "
                                        r"3\.12e-308 puts the frequency grid "
                                        r"beyond the float range$"):
        simulate_pulse(m, d, DetuningSet(**{key: 1e308}), p)


# --- physics ----------------------------------------------------------------

def test_vacuum_identity_to_rounding():
    # without a medium the probe passes through unchanged; the recorded
    # intensities agree to the last unit in the last place (the stored
    # amplitudes are identical, only the squaring path differs)
    m = MediumParams(alpha=0.0)
    d = DriveParams(omega_c=0.6)
    pulse = PulseSpec(shape="gaussian", duration=30e-6, grid=LIGHT)
    tr = simulate_pulse(m, d, DetuningSet(), pulse)
    np.testing.assert_allclose(tr.probe_out, tr.probe_in, rtol=5e-16, atol=0.0)
    assert np.all(tr.signal_out == 0.0)
    b = energy_budget(tr)
    assert b.t_pulse == pytest.approx(1.0, rel=1e-14)
    assert b.ce_pulse == 0.0 and not b.truncated
    assert group_delay(tr) == pytest.approx(0.0, abs=1e-12)


def test_slow_light_delay_mot():
    tr = _fig2a_trace()
    delay = group_delay(tr)
    pre = figure_preset("fig2a")
    expected = pre.medium.alpha / pre.drive.omega_c ** 2 / pre.medium.gamma_phys
    assert delay == pytest.approx(expected, rel=0.1)
    assert delay == pytest.approx(3.31144e-6, rel=1e-4)
    assert energy_budget(tr).t_pulse == pytest.approx(0.9711203, abs=1e-5)


def test_causality_flat_top():
    pre = figure_preset("fig4a")
    pulse = PulseSpec(shape="flat_top", duration=40e-6, ramp=10e-6,
                      grid=LIGHT)
    tr = simulate_pulse(pre.medium, pre.drive, pre.detuning, pulse)
    before = tr.t < pulse.t_start
    assert np.all(tr.probe_out[before] < 1e-12)
    assert np.all(tr.signal_out[before] < 1e-12)


def test_kernel_chunks_do_not_change_the_trace(monkeypatch):
    # 2 * 8001 samples pad to 16384 bins: eight full chunks of 2000 and a
    # partial one against a single chunk
    whole = _fig2a_trace()
    monkeypatch.setattr(dynamics, "KERNEL_CHUNK", 2000)
    chunked = _fig2a_trace()
    np.testing.assert_allclose(chunked.probe_out, whole.probe_out,
                               rtol=1e-14, atol=1e-16)
    np.testing.assert_allclose(chunked.signal_out, whole.signal_out,
                               rtol=1e-14, atol=1e-16)


def test_refinement_mot_pulse():
    # doubling the time grid moves delay and energy scalars by far under 0.5%
    tr1 = _fig2a_trace()
    tr2 = _fig2a_trace(grid=(0.0, 100e-6, 16000))
    d1, d2 = group_delay(tr1), group_delay(tr2)
    b1, b2 = energy_budget(tr1), energy_budget(tr2)
    assert abs(d1 - d2) / d2 < 5e-3
    assert abs(b1.t_pulse - b2.t_pulse) / b2.t_pulse < 5e-3


def test_refinement_converted_pulse_energies():
    pre = figure_preset("fig5a")
    b1 = energy_budget(simulate_pulse(pre.medium, pre.drive, pre.detuning,
                                      pre.pulse))
    fine = replace(pre.pulse, grid=(0.0, 150e-6, 24000))
    b2 = energy_budget(simulate_pulse(pre.medium, pre.drive, pre.detuning,
                                      fine))
    assert abs(b1.ce_pulse - b2.ce_pulse) / b2.ce_pulse < 5e-3
    assert abs(b1.t_pulse - b2.t_pulse) / b2.t_pulse < 5e-3


def test_stepper_converges_to_frequency_domain_second_order():
    # the z-grid stepper of the full model (every coherence dynamic) is
    # second order in dz and dt jointly: halving both cuts its CE_pulse
    # error against the frequency-domain propagator fourfold.  A 0.5 us
    # pulse is short enough that the optical coherences' own dynamics
    # matter: with them eliminated adiabatically, the error stalls at
    # -0.022
    m, d, det, p = _conversion_case()
    exact = energy_budget(simulate_pulse(m, d, det, p)).ce_pulse
    err = [energy_budget(step_pulse(m, d, det, replace(
               p, grid=(0.0, 3e-6, 300 * k)), n_z=50 * k)).ce_pulse - exact
           for k in (1, 2, 4)]
    for coarse, fine in zip(err, err[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_pulsed_conversion_dense_optimum():
    pre = figure_preset("fig5a")
    tr = simulate_pulse(pre.medium, pre.drive, pre.detuning, pre.pulse)
    b = energy_budget(tr)
    assert b.ce_pulse == pytest.approx(0.904442, abs=1e-4)
    assert b.t_pulse == pytest.approx(5.0951e-4, rel=1e-2)
    assert not b.truncated
    # pulsed conversion stays a few points below the steady-state value
    steady = transfer_solve(pre.drive, pre.detuning, pre.medium)
    assert 0.0 < steady.ce - b.ce_pulse < 0.05


def test_pulsed_conversion_far_detuned():
    ce = {}
    for name in ("fig5b", "fig5c"):
        pre = figure_preset(name)
        tr = simulate_pulse(pre.medium, pre.drive, pre.detuning, pre.pulse)
        ce[name] = energy_budget(tr).ce_pulse
    assert ce["fig5b"] == pytest.approx(0.713548, abs=1e-4)
    assert ce["fig5c"] == pytest.approx(0.714734, abs=1e-4)
    # detuning away from the optimum costs ~0.19 of pulsed efficiency
    drop = 0.904442 - ce["fig5c"]
    assert drop == pytest.approx(0.189, abs=0.01)
    assert drop >= 0.15


# --- diagnostics on synthetic traces ----------------------------------------

def _synthetic_trace(shift_idx=0, tail=0.0):
    t = np.linspace(0.0, 1.0, 401)
    y = np.exp(-4 * (t - 0.5) ** 2 / 0.2 ** 2)
    out = np.roll(y, shift_idx)
    out[:shift_idx] = 0.0
    if tail:
        out[-1] = tail * out.max()
    return PulseTrace(t=t, probe_in=y, probe_out=out, signal_out=np.zeros_like(y))


def test_group_delay_synthetic_shift():
    tr = _synthetic_trace(shift_idx=40)      # 40 samples = 0.1 time units
    assert group_delay(tr) == pytest.approx(0.1, rel=1e-6)


def test_group_delay_requires_energy():
    tr = _synthetic_trace(shift_idx=40)
    eps = np.finfo(float).eps
    # no output, FFT rounding in an opaque medium (~eps**2 of the input
    # energy) and anything up to the eps floor: no delay
    for scale in (0.0, eps ** 2, 0.5 * eps):
        dead = replace(tr, probe_out=scale * tr.probe_out)
        with pytest.raises(DomainError, match="round-off floor"):
            group_delay(dead)
    faint = replace(tr, probe_out=4.0 * eps * tr.probe_out)
    assert group_delay(faint) == pytest.approx(group_delay(tr), rel=1e-12)


def test_energy_budget_flags_truncated_tail():
    assert not energy_budget(_synthetic_trace(shift_idx=40)).truncated
    tailed = _synthetic_trace(shift_idx=40, tail=0.01)
    assert energy_budget(tailed).truncated
    # the same tail on an output at or below the round-off floor is no
    # light's: see test_group_delay_requires_energy
    eps = np.finfo(float).eps
    for scale, flagged in ((eps ** 2, False), (0.5 * eps, False),
                           (4.0 * eps, True)):
        faint = replace(tailed, probe_out=scale * tailed.probe_out)
        assert energy_budget(faint).truncated is flagged


def test_energy_budget_requires_input_energy():
    t = np.linspace(0.0, 1.0, 101)
    z = np.zeros_like(t)
    with pytest.raises(DomainError):
        energy_budget(PulseTrace(t=t, probe_in=z, probe_out=z, signal_out=z))
