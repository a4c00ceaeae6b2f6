import math
from dataclasses import replace

import numpy as np
import pytest

from dlambda_fwm import (DetuningSet, DomainError, DriveParams, GridError,
                         MediumParams, PulseSpec, PulseTrace, dynamics,
                         energy_budget, figure_preset, group_delay,
                         simulate_pulse, transfer_solve)
from dlambda_fwm.steady_numeric import _coefficients, _point
from z_stepper import step_pulse

# lighter grid used throughout: 100 us window keeps dt*Gamma = 0.47
LIGHT = (0.0, 100e-6, 8000)


def _fig2a_trace(grid=LIGHT):
    pre = figure_preset("fig2a")
    pulse = replace(pre.pulse, grid=grid)
    return simulate_pulse(pre.medium, pre.drive, pre.detuning, pulse)


def _conversion_case(t_start=0.5e-6):
    """A conversion pulse at low optical depth on a short grid; at the
    default t_start the input starts below 1e-7 of its peak."""
    m = MediumParams(alpha=20.0, gamma21=7e-4, delta_kL=0.1 * math.pi)
    d = DriveParams(omega_c=1.2, omega_d=1.2)
    det = DetuningSet(delta=-0.02)
    p = PulseSpec(shape="gaussian", duration=0.5e-6, t_start=t_start,
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
                 (math.nan, 1e-4, 1000)):
        with pytest.raises(GridError, match="bounds must be finite"):
            PulseSpec(shape="gaussian", duration=1e-6, grid=grid)


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

def test_grid_error_coarse_time_step():
    pre = figure_preset("fig2a")
    pulse = replace(pre.pulse, grid=(0.0, 150e-6, 4000))   # dt*Gamma = 1.41
    with pytest.raises(GridError, match="dt"):
        simulate_pulse(pre.medium, pre.drive, pre.detuning, pulse)


def test_grid_error_short_window():
    pre = figure_preset("fig2a")
    pulse = replace(pre.pulse, grid=(0.0, 80e-6, 8000))
    with pytest.raises(GridError, match="support"):
        simulate_pulse(pre.medium, pre.drive, pre.detuning, pulse)


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
    assert delay == pytest.approx(3.31109e-6, rel=1e-4)
    assert energy_budget(tr).t_pulse == pytest.approx(0.9711229, abs=1e-5)


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


def _stepped_boundary_fields(m, d, det, p, n_z):
    """Reference for z_stepper.step_pulse: the same discrete model with the
    fields marched slab by slab for every rho21 profile and the implicit
    trapezoidal step solved by fixed-point iteration (dividing out the
    stiff local factor 1 - dt*c1/2).  Returns (Op(L), Os(0)) per sample."""
    _, _, c1, c2, c3, a_p, b_p, a_s, b_s = _coefficients(**_point(m, d, det))
    h = 1.0 / n_z

    def march(z, f0, g):
        p1 = (np.exp(z) - 1.0) / z
        p2 = (np.exp(z) - 1.0 - z) / z ** 2
        f = [f0]
        for k in range(1, n_z + 1):
            f.append(np.exp(z) * f[-1]
                     + h * ((p1 - p2) * g[k - 1] + p2 * g[k]))
        return np.array(f)

    def fields(rho, u):
        return (march(a_p * h, u, b_p * rho),
                march(-a_s * h, 0.0, -b_s * rho[::-1])[::-1])

    t = p.times()
    u = p.amplitude(t)
    dt = (t[1] - t[0]) * m.gamma_phys
    rho = np.zeros(n_z + 1, dtype=complex)
    op, os_ = fields(rho, u[0])
    out = [(op[-1], os_[0])]
    for u_next in u[1:]:
        base = rho + (dt / 2.0) * (c1 * rho + c2 * op + c3 * os_)
        new = rho
        for _ in range(100):
            op, os_ = fields(new, u_next)
            new, old = ((base + (dt / 2.0) * (c2 * op + c3 * os_))
                        / (1.0 - dt * c1 / 2.0), new)
            if np.max(np.abs(new - old)) < 1e-15:
                break
        rho = new
        op, os_ = fields(rho, u_next)
        out.append((op[-1], os_[0]))
    return np.array(out)


def test_direct_step_matches_fixed_point_stepper():
    m, d, det, p = _conversion_case(t_start=0.15e-6)
    tr = step_pulse(m, d, det, p, n_z=50)
    ref = np.abs(_stepped_boundary_fields(m, d, det, p, n_z=50)) ** 2
    assert ref[:, 1].max() > 0.1           # the signal is really converted
    np.testing.assert_allclose(tr.probe_out, ref[:, 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(tr.signal_out, ref[:, 1], rtol=0, atol=1e-12)


def test_stepper_converges_to_frequency_domain_second_order():
    # the z-grid stepper is second order in dz and dt jointly: halving both
    # cuts its CE_pulse error against the exact-in-z propagator fourfold
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
    assert b.ce_pulse == pytest.approx(0.904353, abs=1e-4)
    assert b.t_pulse == pytest.approx(5.1376e-4, rel=1e-2)
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
    assert ce["fig5b"] == pytest.approx(0.713535, abs=1e-4)
    assert ce["fig5c"] == pytest.approx(0.714722, abs=1e-4)
    # detuning away from the optimum costs ~0.19 of pulsed efficiency
    drop = 0.904353 - ce["fig5c"]
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
    tr = _synthetic_trace()
    dead = PulseTrace(t=tr.t, probe_in=tr.probe_in,
                      probe_out=np.zeros_like(tr.t),
                      signal_out=tr.signal_out)
    with pytest.raises(DomainError):
        group_delay(dead)


def test_energy_budget_flags_truncated_tail():
    assert not energy_budget(_synthetic_trace(shift_idx=40)).truncated
    assert energy_budget(_synthetic_trace(shift_idx=40, tail=0.01)).truncated


def test_energy_budget_requires_input_energy():
    t = np.linspace(0.0, 1.0, 101)
    z = np.zeros_like(t)
    with pytest.raises(DomainError):
        energy_budget(PulseTrace(t=t, probe_in=z, probe_out=z, signal_out=z))
