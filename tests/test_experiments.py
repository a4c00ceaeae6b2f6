import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dlambda_fwm import (DetuningSet, DomainError, DriveParams, GridError,
                         MediumParams, RegimeError, ScanRangeError,
                         SweepResult, SweepSpec, bandwidth_fwhm,
                         figure_preset, find_peak, khz_to_gamma,
                         optimal_delta, run_sweep, sweep_csv, transfer_solve)
from dlambda_fwm import experiments
from dlambda_fwm.experiments import (PRESET_NAMES, SWEEP_VARIABLES,
                                     metadata_echo, pulse_csv)
from dlambda_fwm.params import replace_param


def _fig4b():
    return figure_preset("fig4b")


# --- SweepSpec --------------------------------------------------------------

def test_sweep_spec_validation():
    pre = _fig4b()
    with pytest.raises(DomainError):
        SweepSpec("omega_c", np.array([1.0]), pre.medium, pre.drive,
                  pre.detuning)
    with pytest.raises(DomainError):
        SweepSpec("delta", np.array([1.0]), pre.medium, pre.drive,
                  pre.detuning, solver="magic")
    with pytest.raises(DomainError):
        SweepSpec("delta", np.array([]), pre.medium, pre.drive, pre.detuning)
    with pytest.raises(DomainError):
        SweepSpec("delta", np.array([0.0, 2.0, 1.0]), pre.medium, pre.drive,
                  pre.detuning)
    with pytest.raises(DomainError, match="must be 1-D, got shape \\(2, 2\\)"):
        SweepSpec("delta", np.array([[-30.0, -20.0], [-10.0, 0.0]]),
                  pre.medium, pre.drive, pre.detuning)
    # the same work-size cap as a pulse grid
    assert experiments.MAX_SWEEP_POINTS == 10 ** 6
    with pytest.raises(GridError, match="1000001 points"):
        SweepSpec("delta", np.arange(10 ** 6 + 1.0), pre.medium, pre.drive,
                  pre.detuning)


# --- run_sweep --------------------------------------------------------------

def test_sweep_point_matches_direct_solve():
    pre = _fig4b()
    spec = SweepSpec("delta", np.array([-27.0]), pre.medium, pre.drive,
                     pre.detuning)
    res = run_sweep(spec)
    row = (res.value[0], res.transmittance[0], res.ce[0], res.loss[0])
    direct = transfer_solve(pre.drive,
                            replace(pre.detuning, delta=khz_to_gamma(-27.0)),
                            pre.medium)
    assert row[0] == -27.0
    assert row[1] == pytest.approx(direct.transmittance, rel=1e-14)
    assert row[2] == pytest.approx(direct.ce, rel=1e-14)
    assert row[3] == pytest.approx(direct.loss, rel=1e-12, abs=1e-15)
    # the grid kernel and the scalar solver agree on every sweep variable
    grids = {"omega_d": np.linspace(0.0, 2.5, 11),
             "delta": np.linspace(-200.0, 150.0, 15),
             "delta_p": np.linspace(-3000.0, 3000.0, 13),
             "alpha": np.linspace(0.0, 400.0, 9)}
    for variable, grid in grids.items():
        spec = SweepSpec(variable, grid, pre.medium, pre.drive, pre.detuning)
        res = run_sweep(spec)
        for value, t, ce in zip(res.value, res.transmittance, res.ce):
            if SWEEP_VARIABLES[variable] == "kHz":
                value = khz_to_gamma(value)
            m, d, det = replace_param((pre.medium, pre.drive, pre.detuning),
                                      variable, value)
            direct = transfer_solve(d, det, m)
            assert t == pytest.approx(direct.transmittance, rel=1e-14)
            assert ce == pytest.approx(direct.ce, rel=1e-14)


def test_sweep_rows_passive():
    res = run_sweep(_fig4b().sweep)
    assert all(len(c) == 71 for c in (res.value, res.transmittance, res.ce,
                                      res.loss))
    assert np.all(res.transmittance + res.ce <= 1.0 + 1e-9)
    assert np.all(res.loss >= -1e-9)


def test_sweep_metadata_echo():
    res = run_sweep(_fig4b().sweep)
    meta = res.metadata
    assert list(meta)[:11] == [
        "alpha", "gamma21", "gamma31", "gamma41", "gamma_phys_mhz",
        "delta_kL_pi", "omega_c", "omega_d",
        "delta_khz", "delta_p_khz", "Delta_khz"]
    assert list(meta)[11:] == ["solver", "variable", "unit"]
    assert meta["alpha"] == 130.0
    assert meta["delta_kL_pi"] == pytest.approx(0.134)
    assert meta["delta_khz"] == pytest.approx(-27.0)
    assert (meta["solver"], meta["variable"], meta["unit"]) == \
        ("exact", "delta", "kHz")


def test_sweep_closed_form_matches_exact():
    pre = _fig4b()
    m0 = replace(pre.medium, gamma21=0.0)
    grid = np.linspace(-60.0, 10.0, 15)
    exact = run_sweep(SweepSpec("delta", grid, m0, pre.drive, pre.detuning))
    closed = run_sweep(SweepSpec("delta", grid, m0, pre.drive, pre.detuning,
                                 solver="closed_form"))
    worst = np.max(abs(exact.ce - closed.ce) / np.maximum(exact.ce, 1e-30))
    assert worst < 1e-8


def test_sweep_closed_form_out_of_regime_names_grid_point(monkeypatch):
    pre = _fig4b()                           # gamma21 = 7e-4: out of regime
    spec = SweepSpec("delta", np.array([-200.0, -100.0]), pre.medium,
                     pre.drive, pre.detuning, solver="closed_form")
    with pytest.raises(RegimeError, match="at delta=-200"):
        run_sweep(spec)
    # the closed-form grid gets the kernel's passivity and finiteness checks
    spec = replace(spec, medium=replace(pre.medium, gamma21=0.0),
                   grid=np.array([-200.0, -100.0, 0.0]))
    for bad, error in ((2.0, "passivity violated"), (np.nan, "finite")):
        monkeypatch.setattr(experiments, "_amplitudes",
                            lambda *args: (np.array([0.5, bad, 0.5]), 0.0))
        with pytest.raises(DomainError, match=f"at delta=-100: .*{error}"):
            run_sweep(spec)


def test_sweep_closed_form_needs_balanced_drives():
    pre = _fig4b()
    m0 = replace(pre.medium, gamma21=0.0)
    spec = SweepSpec("omega_d", np.array([0.5, 1.0]), m0, pre.drive,
                     pre.detuning, solver="closed_form")
    with pytest.raises(RegimeError, match="at omega_d=0.5"):
        run_sweep(spec)
    # the exact solver checks the grid too
    spec = SweepSpec("alpha", np.array([1.0, -1.0]), m0, pre.drive,
                     pre.detuning)
    with pytest.raises(DomainError, match="at alpha=-1: alpha must be"):
        run_sweep(spec)


def test_sweep_deterministic():
    a = sweep_csv(run_sweep(_fig4b().sweep))
    b = sweep_csv(run_sweep(figure_preset("fig4b").sweep))
    assert a == b


# --- find_peak --------------------------------------------------------------

def _result_from(xs, ces):
    xs, ces = np.array(xs, dtype=float), np.array(ces, dtype=float)
    return SweepResult(xs, np.zeros_like(xs), ces, 1.0 - ces, metadata={})


def test_find_peak_recovers_exact_parabola():
    xs = [-1.0, 0.0, 1.0]
    pk = find_peak(_result_from(xs, [1 - (x - 0.3) ** 2 for x in xs]))
    assert pk.value == pytest.approx(0.3, rel=1e-12)
    assert pk.ce == pytest.approx(1.0, rel=1e-12)
    assert not pk.boundary


def test_find_peak_boundary_flag():
    pk = find_peak(_result_from([0.0, 1.0, 2.0], [0.1, 0.2, 0.3]))
    assert pk.boundary and pk.value == 2.0 and pk.ce == 0.3
    assert type(pk.value) is float and type(pk.ce) is float


def test_find_peak_needs_three_rows():
    with pytest.raises(DomainError):
        find_peak(_result_from([0.0, 1.0], [0.1, 0.2]))


def test_find_peak_dense_sweep():
    pk = find_peak(run_sweep(_fig4b().sweep))
    assert pk.value == pytest.approx(-27.9184964, abs=1e-4)
    assert pk.ce == pytest.approx(0.9216741, abs=1e-6)
    assert not pk.boundary
    assert abs(pk.value - (-28.0)) <= 2.0
    assert type(pk.value) is float and type(pk.ce) is float


def test_find_peak_mot_sweep():
    pk = find_peak(run_sweep(figure_preset("fig3b").sweep))
    assert pk.value == pytest.approx(-65.642057, abs=1e-4)
    assert pk.ce == pytest.approx(0.8129657, abs=1e-6)


def test_drive_sweep_peaks_at_matched_drive():
    for name, omega_c in (("fig4a", 1.2), ("fig3a", 0.6)):
        res = run_sweep(figure_preset(name).sweep)
        assert res.value[np.argmax(res.ce)] == omega_c


# --- bandwidth --------------------------------------------------------------

def test_bandwidth_dense_optimum():
    pre = _fig4b()
    base = DetuningSet(delta=khz_to_gamma(find_peak(run_sweep(pre.sweep)).value))
    assert bandwidth_fwhm(pre.medium, pre.drive, base) == \
        pytest.approx(1.6041330, abs=1e-4)


def test_bandwidth_grows_with_drive():
    pre = _fig4b()
    lo = bandwidth_fwhm(pre.medium, pre.drive,
                        DetuningSet(delta=optimal_delta(pre.medium, 1.2).delta))
    d2 = DriveParams(omega_c=2.4, omega_d=2.4)
    hi = bandwidth_fwhm(pre.medium, d2,
                        DetuningSet(delta=optimal_delta(pre.medium, 2.4).delta))
    assert hi == pytest.approx(13.316545, abs=1e-3)
    assert hi > 4 * lo


def test_bandwidth_no_peak():
    with pytest.raises(ScanRangeError):
        bandwidth_fwhm(MediumParams(alpha=0.0), DriveParams(omega_c=1.0),
                       DetuningSet())


# --- presets ----------------------------------------------------------------

def test_preset_fig4b_contents():
    pre = _fig4b()
    assert pre.kind == "sweep" and pre.pulse is None
    assert pre.medium.alpha == 130.0
    assert pre.medium.gamma21 == 7e-4
    assert pre.medium.delta_kL == pytest.approx(0.134 * math.pi)
    assert pre.drive.omega_c == pre.drive.omega_d == 1.2
    assert pre.detuning.delta == pytest.approx(khz_to_gamma(-27.0))
    assert pre.sweep.variable == "delta"
    assert len(pre.sweep.grid) == 71
    assert pre.sweep.grid[0] == -200.0 and pre.sweep.grid[-1] == 150.0


def test_preset_fig2a_contents():
    pre = figure_preset("fig2a")
    assert pre.kind == "pulse" and pre.sweep is None
    assert pre.drive.omega_d == 0.0
    assert pre.pulse.shape == "gaussian"
    assert pre.pulse.duration == pytest.approx(30e-6)


def test_all_presets_construct():
    for name in PRESET_NAMES:
        pre = figure_preset(name)
        assert pre.name == name
        assert (pre.sweep is not None) == (pre.kind == "sweep")
        assert (pre.pulse is not None) == (pre.kind == "pulse")


def test_presets_are_shared_and_read_only():
    pre = figure_preset("fig4a")
    assert figure_preset("fig4a") is pre
    with pytest.raises(ValueError):
        pre.sweep.grid[0] = 0.0


def test_unknown_preset():
    with pytest.raises(DomainError):
        figure_preset("fig9x")


# --- emission ---------------------------------------------------------------

def test_sweep_csv_layout():
    res = run_sweep(_fig4b().sweep)
    text = sweep_csv(res)
    assert "\r" not in text and text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "# dlambda-fwm v0.1.0"
    assert "# solver=exact" in lines and "# unit=kHz" in lines
    header = [i for i, l in enumerate(lines) if not l.startswith("#")][0]
    assert lines[header] == "value,transmittance,ce,loss"
    data = lines[header + 1:]
    assert len(data) == 71
    assert data[0].startswith("-200,")
    # nine significant digits survive the round trip
    assert "0.920754723" in text
    for line in data:
        parts = [float(x) for x in line.split(",")]
        assert len(parts) == 4


def test_sweep_json_mirror():
    res = run_sweep(_fig4b().sweep)
    obj = json.loads(sweep_csv(res, "json-like"))
    assert obj["version"] == "0.1.0"
    assert obj["columns"] == ["value", "transmittance", "ce", "loss"]
    assert len(obj["rows"]) == 71
    assert obj["metadata"]["variable"] == "delta"


def test_pulse_csv_layout():
    from dlambda_fwm import PulseTrace
    t = np.array([0.0, 1e-6, 2e-6])
    tr = PulseTrace(t=t, probe_in=np.array([0.0, 1.0, 0.0]),
                    probe_out=np.array([0.0, 0.5, 0.25]),
                    signal_out=np.array([0.0, 0.25, 0.125]))
    meta = metadata_echo(MediumParams(alpha=1.0), DriveParams(omega_c=1.0),
                         DetuningSet())
    text = pulse_csv(tr, meta)
    lines = text.splitlines()
    assert lines[0] == "# dlambda-fwm v0.1.0"
    header = [i for i, l in enumerate(lines) if not l.startswith("#")][0]
    assert lines[header] == "t_us,probe_in,probe_out,signal_out"
    assert lines[header + 1] == "0,0,0,0"
    assert lines[header + 2] == "1,1,0.5,0.25"
    obj = json.loads(pulse_csv(tr, meta, "json-like"))
    assert obj["columns"] == ["t_us", "probe_in", "probe_out", "signal_out"]
    assert obj["rows"][2] == pytest.approx([2.0, 0.0, 0.25, 0.125])
