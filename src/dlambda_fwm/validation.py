"""Self-validation suite: every release-gating check in one place.

Each check_* function runs one acceptance check and returns a CheckResult
with a pass flag and a human-readable detail string; run_all() executes
the whole battery.  The CLI `validate` subcommand prints the table and
sets its exit status from the aggregate, and the test suite asserts each
check individually.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import PulseSpec, group_delay, simulate_pulse
from .errors import FwmError
from .experiments import anchored_bandwidth, figure_preset, run_sweep
from .params import DetuningSet, DriveParams, MediumParams, gamma_to_khz
from .steady_analytic import optimal_delta
from .steady_numeric import solve_grid, transfer_solve

EQUIVALENCE_SEED = 42
EQUIVALENCE_POINTS = 500
EQUIVALENCE_RTOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str


def equivalence_points() -> np.ndarray:
    """Check 1's (alpha, omega, delta_kL, delta) rows, one per point."""
    rng = np.random.default_rng(EQUIVALENCE_SEED)
    return rng.uniform([1.0, 0.2, -math.pi, -0.05],
                       [200.0, 3.0, math.pi, 0.05],
                       size=(EQUIVALENCE_POINTS, 4))


def check_oracle_equivalence() -> CheckResult:
    """Closed form vs exact solver on a pseudo-random regime grid."""
    t0 = time.perf_counter()
    alpha, omega, dkl, delta = equivalence_points().T
    # gamma21 = delta_p = Delta = 0 and gamma31 = gamma41 = 1 by default
    base = (MediumParams(alpha=0.0), DriveParams(omega_c=0.0), DetuningSet())
    axes = dict(alpha=alpha, delta_kL=dkl, omega_c=omega, omega_d=omega,
                delta=delta)
    try:
        probe, signal = solve_grid(*base, closed_form=True, **axes)
        oracle_probe, oracle_signal = solve_grid(*base, **axes)
    except FwmError as exc:
        return CheckResult(1, "oracle-equivalence", False, str(exc))
    ce, oracle_ce = abs(signal) ** 2, abs(oracle_signal) ** 2
    worst = float(np.max(np.maximum(
        abs(ce - oracle_ce) / np.maximum(oracle_ce, 1e-30),
        abs(probe - oracle_probe) / np.maximum(abs(oracle_probe), 1e-30))))
    elapsed = time.perf_counter() - t0
    ok = worst <= EQUIVALENCE_RTOL and elapsed < 5.0
    return CheckResult(1, "oracle-equivalence", ok,
                       f"worst rel err {worst:.3e} (limit 1e-08) over "
                       f"{EQUIVALENCE_POINTS} points in {elapsed:.2f}s "
                       "(limit 5s)")


def check_optimal_detuning() -> CheckResult:
    dense, mot = (optimal_delta(p.medium, p.drive.omega_c)
                  for p in map(figure_preset, ("fig4a", "fig3a")))
    ok = (abs(dense.delta_khz - (-28.0)) <= 0.5
          and abs(dense.delta_khz - (-27.0)) <= 2.0
          and abs(mot.delta_khz - (-67.0)) <= 1.0
          and abs(mot.delta_khz - (-70.0)) <= 5.0)
    return CheckResult(2, "optimal-detuning", ok,
                       f"dense {dense.delta_khz:.2f} kHz (want -28.0+-0.5, "
                       f"within 2 of -27), MOT {mot.delta_khz:.2f} kHz "
                       "(want -67+-1, within 5 of -70)")


def check_peak_ce_dense() -> CheckResult:
    t0 = time.perf_counter()
    peak = float(run_sweep(figure_preset("fig4b").sweep).ce.max())
    elapsed = time.perf_counter() - t0
    ok = abs(peak - 0.91) <= 0.03 and elapsed < 1.0
    return CheckResult(3, "peak-ce-dense", ok,
                       f"grid peak ce {peak:.4f} (want 0.91+-0.03) in "
                       f"{elapsed:.2f}s (limit 1s)")


def check_peak_ce_mot() -> CheckResult:
    peak = float(run_sweep(figure_preset("fig3b").sweep).ce.max())
    ok = abs(peak - 0.814) <= 0.03
    return CheckResult(4, "peak-ce-mot", ok,
                       f"grid peak ce {peak:.4f} (want 0.814+-0.03)")


def check_phase_shifts() -> CheckResult:
    """The probe phase the two-photon detuning delta adds with the signal
    drive off, arg H_p(delta)/H_p(0) from the exact kernel, as a principal
    value in units of pi."""
    ok, details = True, []
    for name, want in (("fig5a", -0.129), ("fig5c", -0.704)):
        p = figure_preset(name)
        h, _ = solve_grid(p.medium, replace(p.drive, omega_d=0.0),
                          p.detuning, delta=np.array([0.0, p.detuning.delta]))
        phi = float(np.angle(h[1] * h[0].conjugate())) / math.pi
        ok = ok and abs(phi - want) <= 0.005
        khz = gamma_to_khz(p.detuning.delta, p.medium.gamma_phys)
        details.append(f"phi({khz:g} kHz)={phi:.4f} pi "
                       f"(want {want}+-0.005)")
    return CheckResult(5, "phase-shifts", ok, ", ".join(details))


def _delay_case(preset_name: str):
    pre = figure_preset(preset_name)
    t0 = time.perf_counter()
    trace = simulate_pulse(pre.medium, pre.drive, pre.detuning, pre.pulse)
    elapsed = time.perf_counter() - t0
    measured = group_delay(trace)
    expected = pre.medium.alpha / pre.drive.omega_c ** 2 / pre.medium.gamma_phys
    return measured, expected, elapsed


def check_slow_light_delay() -> CheckResult:
    d_a, e_a, t_a = _delay_case("fig2a")
    d_b, e_b, t_b = _delay_case("fig2b")
    ok = (abs(d_a - e_a) <= 0.1 * e_a and abs(d_b - e_b) <= 0.1 * e_b
          and t_a < 30.0 and t_b < 30.0)
    return CheckResult(6, "slow-light-delay", ok,
                       f"fig2a {d_a*1e6:.2f} us (want {e_a*1e6:.2f}+-10%, "
                       f"{t_a:.1f}s), fig2b {d_b*1e6:.2f} us (want "
                       f"{e_b*1e6:.2f}+-10%, {t_b:.1f}s; runtime limit 30s)")


def check_dynamics_steady_consistency() -> CheckResult:
    """Plateau of a flat top against the steady state, averaged over the
    last 20 us of the 80 us hold, once the ~7.5 us settling has died out.
    The pulse's start and time grid are PulseSpec's defaults."""
    pre = figure_preset("fig4a")
    pulse = PulseSpec(shape="flat_top", duration=80e-6, ramp=10e-6)
    trace = simulate_pulse(pre.medium, pre.drive, pre.detuning, pulse)
    end = pulse.t_start + pulse.ramp + pulse.duration
    sel = (trace.t >= end - 20e-6) & (trace.t <= end)
    t_plateau = float(np.mean(trace.probe_out[sel]))
    ce_plateau = float(np.mean(trace.signal_out[sel]))
    steady = transfer_solve(pre.drive, pre.detuning, pre.medium)
    dt = abs(t_plateau - steady.transmittance) / max(steady.transmittance,
                                                     1e-12)
    dc = abs(ce_plateau - steady.ce) / steady.ce
    ok = dt <= 0.01 and dc <= 0.01
    return CheckResult(7, "dynamics-steady-consistency", ok,
                       f"plateau T {t_plateau:.5f} vs {steady.transmittance:.5f}"
                       f" (rel {dt:.2e}), CE {ce_plateau:.5f} vs "
                       f"{steady.ce:.5f} (rel {dc:.2e}) over "
                       f"{(end - 20e-6) * 1e6:.0f}-{end * 1e6:.0f} us; "
                       "limit 1e-02")


def check_passivity_and_limits() -> CheckResult:
    """T + CE <= 1 on 200 random points (a point that fails the solve's
    checks fails the check), Beer-Lambert and ideal-EIT limits."""
    axes = ("alpha", "gamma21", "delta_kL", "omega_c", "omega_d", "delta",
            "delta_p", "Delta")
    points = np.random.default_rng(7).uniform(
        [0.0, 0.0, -math.pi, 0.0, 0.0, -0.05, -1.0, -1.0],
        [200.0, 1e-2, math.pi, 3.0, 3.0, 0.05, 1.0, 1.0], size=(200, 8))
    try:
        probe, signal = solve_grid(
            MediumParams(alpha=0.0), DriveParams(omega_c=0.0), DetuningSet(),
            **dict(zip(axes, points.T)))
    except FwmError as exc:
        return CheckResult(8, "passivity-and-limits", False, str(exc))
    worst_sum = float(np.max(abs(probe) ** 2 + abs(signal) ** 2 - 1.0))
    beer_worst = 0.0
    for alpha in (0.1, 1.0, 5.0, 45.0, 130.0):
        r = transfer_solve(DriveParams(omega_c=0.0), DetuningSet(),
                           MediumParams(alpha=alpha))
        beer_worst = max(beer_worst,
                         abs(r.transmittance - math.exp(-alpha)))
    eit = transfer_solve(DriveParams(omega_c=1.2, omega_d=0.0),
                         DetuningSet(),
                         MediumParams(alpha=130.0, gamma21=0.0))
    eit_dev = abs(eit.transmittance - 1.0)
    ok = worst_sum <= 1e-9 and beer_worst <= 1e-10 and eit_dev <= 1e-9
    return CheckResult(8, "passivity-and-limits", ok,
                       f"max(T+CE-1)={worst_sum:.2e} (limit 1e-09), "
                       f"Beer-Lambert dev {beer_worst:.2e} (limit 1e-10), "
                       f"ideal-EIT |T-1|={eit_dev:.2e} (limit 1e-09)")


def check_balanced_drive() -> CheckResult:
    details = []
    ok = True
    for name in ("fig3a", "fig4a"):
        pre = figure_preset(name)
        res = run_sweep(pre.sweep)
        arg = float(res.value[np.argmax(res.ce)])
        rel = abs(arg - pre.drive.omega_c) / pre.drive.omega_c
        ok = ok and rel <= 0.2
        details.append(f"{name} argmax {arg:.2f} vs omega_c "
                       f"{pre.drive.omega_c:.2f} (off {rel*100:.0f}%)")
    return CheckResult(9, "balanced-drive-optimality", ok,
                       "; ".join(details) + "; limit 20%")


def check_bandwidth() -> CheckResult:
    """The FWHM `bandwidth --preset fig4b` prints."""
    fwhm, _ = anchored_bandwidth(figure_preset("fig4b").sweep)
    ok = abs(fwhm - 0.8) <= 0.3 * 0.8
    return CheckResult(10, "conversion-bandwidth", ok,
                       f"FWHM {fwhm:.3f} MHz (want 0.8+-30%, i.e. "
                       "0.56..1.04 MHz)")


ALL_CHECKS = (
    check_oracle_equivalence,
    check_optimal_detuning,
    check_peak_ce_dense,
    check_peak_ce_mot,
    check_phase_shifts,
    check_slow_light_delay,
    check_dynamics_steady_consistency,
    check_passivity_and_limits,
    check_balanced_drive,
    check_bandwidth,
)


def run_all() -> list:
    return [check() for check in ALL_CHECKS]
