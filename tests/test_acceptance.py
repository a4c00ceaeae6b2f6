"""Acceptance battery, one test per numbered validation check.

Each test delegates to the corresponding dlambda_fwm.validation check,
prints its one-line verdict (visible with ``pytest -s`` or on failure) and
asserts the pass flag, so ``pytest -v tests/test_acceptance.py`` doubles
as the acceptance report.
"""

import dataclasses
import json

from dlambda_fwm import DetuningSet, experiments, khz_to_gamma, validation


def _run(check):
    r = check()
    tag = "PASS" if r.passed else "FAIL"
    print(f"[criterion {r.number:>2}] {tag} {r.name}: {r.detail}")
    assert r.passed, f"criterion {r.number} ({r.name}): {r.detail}"


def test_check_results_are_json_clean():
    # every field a plain Python value, so the table serialises as is
    for r in validation.run_all():
        assert type(r.passed) is bool, r.name
        json.dumps(dataclasses.asdict(r))


def test_checks_read_the_presets(monkeypatch):
    # checks 2 and 5 test whatever experiments.PRESETS holds: double
    # fig4a's optical depth (delta* halves), double fig3a's coupling
    # (delta* quadruples) and move fig5c to -100 kHz
    presets = experiments.PRESETS

    def edit(name, **parts):
        monkeypatch.setitem(presets, name,
                            dataclasses.replace(presets[name], **parts))

    dense, mot = presets["fig4a"], presets["fig3a"]
    edit("fig4a", medium=dataclasses.replace(dense.medium,
                                             alpha=2 * dense.medium.alpha))
    edit("fig3a", drive=dataclasses.replace(mot.drive,
                                            omega_c=2 * mot.drive.omega_c))
    edit("fig5c", detuning=DetuningSet(delta=khz_to_gamma(-100.0)))
    r2 = validation.check_optimal_detuning()
    assert r2.detail == ("dense -13.99 kHz (want -28.0+-0.5, within 2 of "
                         "-27), MOT -269.62 kHz (want -67+-1, within 5 of "
                         "-70)")
    assert not r2.passed
    r5 = validation.check_phase_shifts()
    assert r5.detail == ("phi(-27 kHz)=-0.1292 pi (want -0.129+-0.005), "
                         "phi(-100 kHz)=-0.4782 pi (want -0.704+-0.005)")
    assert not r5.passed


def test_01_oracle_equivalence():
    _run(validation.check_oracle_equivalence)


def test_02_optimal_detuning():
    _run(validation.check_optimal_detuning)


def test_03_peak_ce_dense():
    _run(validation.check_peak_ce_dense)


def test_04_peak_ce_mot():
    _run(validation.check_peak_ce_mot)


def test_05_phase_shift_estimates():
    _run(validation.check_phase_shifts)


def test_06_slow_light_delay():
    _run(validation.check_slow_light_delay)


def test_07_dynamics_steady_consistency():
    _run(validation.check_dynamics_steady_consistency)


def test_08_passivity_and_limits():
    _run(validation.check_passivity_and_limits)


def test_09_balanced_drive_optimum():
    _run(validation.check_balanced_drive)


def test_10_conversion_bandwidth():
    # Known to fail: the faithful co-shifted FWHM at the dense optimum
    # measures 1.60 MHz, twice the 0.8 MHz target window (the half width
    # at half maximum is 0.80 MHz).  Kept failing rather than masked so
    # the acceptance report states the true status.
    _run(validation.check_bandwidth)
