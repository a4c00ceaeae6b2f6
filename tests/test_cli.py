import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dlambda_fwm
import dlambda_fwm.cli as cli
from dlambda_fwm.cli import main
from dlambda_fwm.validation import CheckResult


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_steady_preset(capsys):
    code, out, _ = run(capsys, ["steady", "--preset", "fig4a"])
    assert code == 0
    assert out.splitlines() == [
        "transmittance = 0.000617764499",
        "ce = 0.921608856",
        "loss = 0.0777733797",
    ]


def test_steady_json_like(capsys):
    code, out, _ = run(capsys, ["steady", "--preset", "fig4a",
                                "--format", "json-like"])
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"transmittance", "ce", "loss"}
    assert data["ce"] == pytest.approx(0.921608856)


def test_steady_unequal_decay_rates_are_passive(capsys):
    # CE is a photon-number ratio: at gamma31 = 0.01 the signal dipole is
    # ten times weaker than the probe's, and the Rabi ratio alone would
    # give T + CE = 1.979
    code, out, _ = run(capsys, ["steady", "--preset", "fig4a",
                                "--set", "gamma31=0.01"])
    assert code == 0
    assert out.splitlines() == [
        "transmittance = 0.979423527",
        "ce = 0.00999936692",
        "loss = 0.0105771065",
    ]


def test_steady_reports_closed_form_gap_in_regime(capsys):
    code, out, _ = run(capsys, ["steady", "--preset", "fig4a",
                                "--set", "gamma21=0"])
    assert code == 0
    lines = dict(l.split(" = ") for l in out.splitlines())
    assert float(lines["closed_form_ce_discrepancy"]) < 1e-10
    assert float(lines["ce"]) == pytest.approx(0.940079378)


def test_steady_closed_form_solver(capsys):
    code, out, _ = run(capsys, ["steady", "--preset", "fig4a",
                                "--set", "gamma21=0", "--closed-form"])
    assert code == 0
    assert "ce = 0.940079378" in out
    # out of regime: the preset keeps its ground-state dephasing
    code, _, err = run(capsys, ["steady", "--preset", "fig4a",
                                "--closed-form"])
    assert code == 2
    assert "error:" in err
    # the closed form does not silently ignore an unbalanced drive
    code, _, err = run(capsys, ["steady", "--preset", "fig4a",
                                "--set", "gamma21=0", "--set", "omega_d=0.6",
                                "--closed-form"])
    assert code == 2 and "balanced drives" in err


def test_closed_form_regime_error_names_gamma_units(capsys):
    # the message's detunings are Gamma units, the located prefix's kHz
    base = ["--preset", "fig4a", "--closed-form", "--set", "gamma21=0"]
    code, out, err = run(capsys, ["steady", *base, "--set", "delta_p_khz=10"])
    assert (code, out) == (2, "")
    assert err == ("error: closed form needs one- and three-photon resonance "
                   "(delta_p=0.0016666666666666668, Delta=0.0, in units of "
                   "Gamma)\n")
    code, out, err = run(capsys, ["sweep", *base, "--variable", "delta_p",
                                  "--grid=0:20:10"])
    assert (code, out) == (2, "")
    assert err == ("error: at delta_p=20: closed form needs one- and "
                   "three-photon resonance (delta_p=0.0033333333333333335, "
                   "Delta=0.0, in units of Gamma)\n")


def test_phase_matched_resonant_point(capsys):
    # delta_kL = delta = 0 puts the closed form at beta = 0, a regular point
    base = ["--preset", "fig4a", "--set", "gamma21=0",
            "--set", "delta_kL_pi=0", "--set", "delta_khz=0"]
    code, out, _ = run(capsys, ["steady", *base, "--closed-form"])
    assert code == 0
    assert "ce = 0.941189575" in out
    code, out, _ = run(capsys, ["steady", *base])
    assert code == 0
    lines = dict(l.split(" = ") for l in out.splitlines())
    assert float(lines["closed_form_ce_discrepancy"]) < 1e-10
    rows = {}
    for solver in ("--exact", "--closed-form"):
        code, out, _ = run(capsys, ["sweep", *base, "--variable", "delta",
                                    "--grid=-20:20:5", solver,
                                    "--format", "json-like"])
        assert code == 0
        rows[solver] = np.array(json.loads(out)["rows"])
    exact, closed = rows["--exact"], rows["--closed-form"]
    assert 0.0 in closed[:, 0]
    np.testing.assert_allclose(closed[:, 1:3], exact[:, 1:3], rtol=1e-8)


def test_optimize_delta(capsys):
    code, out, _ = run(capsys, ["optimize-delta", "--preset", "fig4a"])
    assert code == 0
    assert out.splitlines() == [
        "delta_star_gamma = -0.00466309014",
        "delta_star_khz = -27.9785409",
    ]
    # phase matched, delta* is zero: printed without a sign
    base = ["optimize-delta", "--preset", "fig4a", "--set", "delta_kL_pi=0"]
    assert run(capsys, base) == (0, "delta_star_gamma = 0\n"
                                    "delta_star_khz = 0\n", "")
    code, out, _ = run(capsys, [*base, "--format", "json-like"])
    assert code == 0 and "-0" not in out


def test_usage_errors(capsys):
    assert run(capsys, [])[0] == 1
    code, _, err = run(capsys, ["steady"])
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, ["steady", "--preset", "fig4a",
                                "--set", "bogus=1"])
    assert code == 1 and "unknown key 'bogus'" in err
    code, _, err = run(capsys, ["steady", "--preset", "fig4a",
                                "--set", "omega_p0=1"])
    assert code == 1 and "unknown key 'omega_p0'" in err
    code, _, err = run(capsys, ["steady", "--preset", "fig4a",
                                "--set", "alpha=abc"])
    assert code == 1 and "malformed" in err
    # --set items follow the config dialect's rule, so a bare key is refused
    code, out, err = run(capsys, ["steady", "--preset", "fig4a",
                                  "--set", "alpha"])
    assert (code, out) == (1, "")
    assert err == "usage error: --set: expected 'key = value', got 'alpha'\n"
    assert run(capsys, ["steady", "--preset", "nope"])[0] == 1
    code, _, err = run(capsys, ["sweep", "--preset", "fig4a",
                                "--grid", "bad"])
    assert code == 1 and "START:STOP:STEP" in err


def test_domain_errors_exit_2(capsys):
    code, _, err = run(capsys, ["optimize-delta", "--preset", "fig4a",
                                "--set", "alpha=0"])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["steady", "--config", "/no/such/file.cfg"])
    assert code == 2
    for bad in ("alpha=inf", "omega_c=inf", "gamma21=nan"):
        code, out, err = run(capsys, ["steady", "--preset", "fig4a",
                                      "--set", bad])
        assert code == 2 and out == ""
        assert f"{bad.partition('=')[0]} must be finite" in err
    # an overflowing Gamma names the key and value given
    code, out, err = run(capsys, ["steady", "--preset", "fig4a",
                                  "--set", "gamma_phys_mhz=1e303"])
    assert (code, out) == (2, "")
    assert err == ("error: gamma_phys_mhz must be finite and > 0, "
                   "got 1e+303\n")
    # a Gamma so small that a finite kHz detuning overflows names Gamma
    code, out, err = run(capsys, ["steady", "--preset", "fig4a",
                                  "--set", "gamma_phys_mhz=1e-310"])
    assert (code, out) == (2, "")
    assert err == ("error: gamma_phys_mhz = 1e-310 is too small: "
                   "delta_khz = -27.0 overflows in Gamma units\n")
    # a finite drive whose square overflows (or underflows) is a typed
    # error, not an OverflowError or a leaked numpy warning
    for argv in (["steady", "--preset", "fig4b", "--set", "omega_c=1e200"],
                 ["sweep", "--preset", "fig4b", "--set", "omega_d=1e200"],
                 ["bandwidth", "--preset", "fig4b", "--set", "omega_c=1e300"],
                 ["pulse", "--preset", "fig5a", "--set", "omega_c=1e200"],
                 ["steady", "--preset", "fig4a", "--set", "gamma21=0",
                  "--set", "omega_c=1e200", "--set", "omega_d=1e200",
                  "--closed-form"],
                 ["steady", "--preset", "fig4a", "--set", "gamma21=0",
                  "--set", "omega_c=1e-200", "--set", "omega_d=1e-200",
                  "--closed-form"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "") and err.startswith("error: "), argv
    # drives so strong that ce stays above half max over the whole scan
    code, out, err = run(capsys, ["bandwidth", "--preset", "fig4b",
                                  "--set", "omega_c=5", "--set", "omega_d=5"])
    assert (code, out) == (2, "")
    assert err == ("error: ce never falls below half max within +-2.0 "
                   "Gamma\n")


@pytest.mark.parametrize("override", [
    ["--set", "omega_c=1e200"],
    ["--set", "alpha=1e-300", "--set", "omega_c=1e10"],
])
def test_optimize_delta_non_finite_exit_2(capsys, override):
    # delta* = -delta_kL*omega^2/alpha overflows: no -inf on stdout
    code, out, err = run(capsys, ["optimize-delta", "--preset", "fig4a",
                                  *override])
    assert (code, out) == (2, "")
    assert err.startswith("error: optimal_delta is not finite: delta = -inf")


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 130\nomega_c = 1.2\nomega_d = 1.2\n"
                   "gamma21 = 7e-4\ndelta_kL_pi = 0.134\ndelta_khz = -27\n")
    code, out, _ = run(capsys, ["steady", "--config", str(cfg)])
    assert code == 0
    assert "ce = 0.921608856" in out
    # --set wins over the file
    code, out, _ = run(capsys, ["steady", "--config", str(cfg),
                                "--set", "omega_d=0"])
    assert code == 0
    assert "ce = 0\n" in out


def test_config_parse_error_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 130\nbogus = 1\n")
    code, _, err = run(capsys, ["steady", "--config", str(cfg)])
    assert code == 2 and "line 2" in err
    cfg.write_text("alpha = 130\nomega_c = 1.2\nomega_p0 = 1\n")
    code, _, err = run(capsys, ["steady", "--config", str(cfg)])
    assert (code, err) == (2, "error: line 3: unknown key 'omega_p0' (known: "
                              + ", ".join(dlambda_fwm.params.CONFIG_KEYS)
                              + ")\n")


def test_config_invariant_error_names_line(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("omega_c = 1.2\n# the optical depth\nalpha = nan\n")
    code, out, err = run(capsys, ["steady", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err == ("error: alpha must be finite, got nan "
                   "(key 'alpha' set on line 3)\n")
    # a --set value took effect, so no line of the file is to blame
    cfg.write_text("alpha = 130\nomega_c = 1.2\n")
    code, out, err = run(capsys, ["steady", "--config", str(cfg),
                                  "--set", "alpha=-1"])
    assert (code, out, err) == (2, "", "error: alpha must be >= 0, got -1.0\n")


def test_out_file(tmp_path, capsys):
    path = tmp_path / "steady.txt"
    code, out, _ = run(capsys, ["steady", "--preset", "fig4a",
                                "--out", str(path)])
    assert code == 0 and out == ""
    assert "ce = 0.921608856" in path.read_text()


def test_csv_written_in_blocks_is_the_same_document(tmp_path, capsys,
                                                   monkeypatch):
    # a long grid is written a block of rows at a time; the bytes do not
    # depend on where the blocks end, on stdout or in --out
    argv = ["sweep", "--preset", "fig4b"]
    whole = run(capsys, argv)[1]
    experiments = dlambda_fwm.experiments
    monkeypatch.setattr(experiments, "CSV_BLOCK_ROWS", 10)
    sweep = experiments.run_sweep(experiments.figure_preset("fig4b").sweep)
    assert len(list(experiments.sweep_blocks(sweep))) == 1 + 8  # 71 rows
    assert run(capsys, argv) == (0, whole, "")
    path = tmp_path / "sweep.csv"
    assert run(capsys, [*argv, "--out", str(path)]) == (0, "", "")
    assert path.read_text(encoding="utf-8") == whole


def test_sweep_custom_grid(capsys):
    code, out, _ = run(capsys, ["sweep", "--preset", "fig4a",
                                "--variable", "delta", "--grid=-50:0:25"])
    assert code == 0
    lines = out.splitlines()
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 3
    assert [l.split(",")[0] for l in data] == ["-50", "-25", "0"]
    # the grid stops at the last point that does not pass STOP
    for variable, grid, values in [("omega_d", "0:1:0.6", ["0", "0.6"]),
                                   ("alpha", "10:0:-6", ["10", "4"]),
                                   ("delta", "0:0.3:0.1",
                                    ["0", "0.1", "0.2", "0.3"])]:
        code, out, err = run(capsys, ["sweep", "--preset", "fig4a",
                                      "--variable", variable,
                                      f"--grid={grid}"])
        assert (code, err) == (0, "")
        data = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert [l.split(",")[0] for l in data] == values


def test_sweep_preset_roundtrip(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, ["sweep", "--preset", "fig4b", "--out", str(a)])[0] == 0
    assert run(capsys, ["sweep", "--preset", "fig4b", "--out", str(b)])[0] == 0
    text = a.read_text()
    assert text == b.read_text()                      # byte-identical reruns
    lines = text.splitlines()
    assert lines[0] == "# dlambda-fwm v0.1.0"
    assert len([l for l in lines if not l.startswith("#")]) == 72


def test_sweep_without_axis(capsys):
    code, _, err = run(capsys, ["sweep", "--preset", "fig5a"])
    assert code == 1 and "sweep needs" in err


@pytest.mark.parametrize("preset, variable", [("fig4a", "delta"),
                                              ("fig4b", "alpha")])
def test_sweep_other_variable_needs_grid(capsys, preset, variable):
    # a preset's grid is in its own variable's unit (fig4a: omega_d in
    # Gamma), so it is never read as another variable's grid
    code, out, err = run(capsys, ["sweep", "--preset", preset,
                                  "--variable", variable])
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: --variable {variable} needs --grid")


def test_sweep_preset_own_variable_keeps_its_grid(capsys):
    whole = run(capsys, ["sweep", "--preset", "fig4b"])
    assert whole[0] == 0
    assert run(capsys, ["sweep", "--preset", "fig4b",
                        "--variable", "delta"]) == whole


def test_pulse_slow_light(capsys):
    code, out, err = run(capsys, ["pulse", "--preset", "fig2a",
                                  "--t-max-us", "100", "--n-t", "8000"])
    assert code == 0
    assert "group_delay_us = 3.31109762" in err
    assert "T_pulse = 0.971122858" in err
    assert "[truncated tail]" not in err
    lines = out.splitlines()
    assert "t_us,probe_in,probe_out,signal_out" in lines
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 8001


def test_pulse_grid_error_exit_2(capsys):
    code, _, err = run(capsys, ["pulse", "--preset", "fig2a",
                                "--n-t", "4000"])
    assert code == 2 and "dt" in err


@pytest.mark.parametrize("setting, message", [
    # the group delay alpha/omega_c^2 is ~1e200 times the window
    ("omega_c=1e-100", "error: grid ends at 150 us but pulse support plus "
                       "3 group delays needs 1.03451e+201 us"),
    ("gamma_phys_mhz=1e300", "error: time step too coarse: "
                             "dt*Gamma = 7.854e+298 > 0.5"),
])
def test_pulse_grid_error_prints_huge_values_short(capsys, setting, message):
    code, out, err = run(capsys, ["pulse", "--preset", "fig5a",
                                  "--set", setting])
    assert code == 2 and out == ""
    assert err.startswith(message) and len(err) < 200


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, value, message", [
    ("--t-start-us", "nan", "t_start must be finite"),
    ("--t-max-us", "inf", "time grid bounds must be finite"),
    # refused by PulseSpec too, whatever the shape
    ("--t-max-us", "0", "empty time grid"),
    ("--ramp-us", "0", "ramp must be > 0"),
])
def test_pulse_non_finite_time_exit_2(capsys, flag, value, message):
    code, out, err = run(capsys, ["pulse", "--preset", "fig5a", flag, value])
    assert code == 2 and out == ""
    assert f"error: {message}" in err


@pytest.mark.parametrize("grid, code, message", [
    ("0:10:nan", 1, "usage error: --grid values must be finite"),
    ("0:inf:1", 1, "usage error: --grid values must be finite"),
    ("0:1:0", 1, "usage error: --grid step must be nonzero"),
    # a STEP that points away from STOP never reaches it
    ("2:0:0.5", 1, "usage error: --grid step must point from START to STOP"),
    ("-50:0:-25", 1, "usage error: --grid step must point from START to "
                     "STOP"),
    # 10**15 rows: refused before the grid is allocated
    ("0:1e12:1e-3", 2, "error: --grid 0:1e12:1e-3 has more than 1000000"),
])
def test_sweep_bad_grid_typed_exit(capsys, grid, code, message):
    got, out, err = run(capsys, ["sweep", "--preset", "fig4a",
                                 "--variable", "delta", f"--grid={grid}"])
    assert got == code and out == ""
    assert message in err


def test_pulse_work_size_caps_exit_2(capsys):
    # the cap fires before any grid array is allocated
    code, _, err = run(capsys, ["pulse", "--preset", "fig2a",
                                "--n-t", "100000000"])
    assert code == 2 and "n_t" in err
    # --n-z is gone: propagation is exact in z
    code, _, err = run(capsys, ["pulse", "--preset", "fig2a",
                                "--n-z", "1001"])
    assert code == 1 and "--n-z" in err
    code, out, _ = run(capsys, ["pulse", "--help"])
    assert code == 0 and "--n-t" in out and "--n-z" not in out


@pytest.mark.parametrize("cmd", ["pulse", "bandwidth", "optimize-delta"])
@pytest.mark.parametrize("switch", ["--exact", "--closed-form"])
def test_solver_switch_only_where_read(capsys, cmd, switch):
    # pulse and bandwidth always run the exact kernel; optimize-delta
    # prints the closed-form delta*
    code, _, err = run(capsys, [cmd, "--preset", "fig4b", switch])
    assert code == 1 and switch in err


def test_parser_is_reused_safely(capsys):
    # one parser per process; no call may leak state into the next
    cli._build_parser.cache_clear()
    fresh = run(capsys, ["steady", "--preset", "fig4a"])
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = run(capsys, ["steady", "--preset", "fig4a",
                                "--set", "omega_d=0"])
    assert code == 0 and "ce = 0\n" in out
    assert run(capsys, ["steady", "--preset", "fig4a"]) == fresh
    code, out, _ = run(capsys, ["--version"])
    assert code == 0 and out == f"dlambda-fwm {dlambda_fwm.__version__}\n"
    code, out, err = run(capsys, ["steady", "--bogus"])
    assert code == 1 and out == ""
    assert "unrecognized arguments: --bogus" in err
    code, out, _ = run(capsys, ["sweep", "--help"])
    assert code == 0 and out.startswith("usage: dlambda-fwm sweep")


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so modules loaded by other tests do not count
    src = str(Path(dlambda_fwm.__file__).parents[1])
    probe = ("import sys, dlambda_fwm.cli; print(sorted(m for m in "
             "sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "[]\n"


def test_bandwidth_preset_anchors_at_optimum(capsys):
    code, out, err = run(capsys, ["bandwidth", "--preset", "fig4b"])
    assert code == 0
    assert out == "fwhm_mhz = 1.60413304\n"
    assert "base delta set to grid optimum: -27.9184964 kHz" in err


#: a flat-top pulse that sets every pulse flag but --ramp-us
_FLAT_TOP = ["pulse", "--preset", "fig5a", "--shape", "flat_top",
             "--duration-us", "20", "--t-start-us", "10", "--t-max-us", "80",
             "--n-t", "8000"]


#: sha256 of stdout for each dataset command: sweeps, pulses, csv and
#: json-like.  Each was recorded from the release before `omega_p0` was
#: removed, with its `omega_p0` metadata line deleted: from the command
#: as given, or, where that release moved the preset's delta by one ulp
#: on the way to the parser, from the command plus `--config` with the
#: dump of its preset.  The four scalar documents after them (json-like
#: values and a preset dump) were recorded from the release before their
#: renderers moved out of the CLI.  `closed_form_ce_discrepancy` is not
#: pinned: its value is a 1e-15 rounding residue.
_GOLDEN_STDOUT = [
    (["sweep", "--preset", "fig3a"],
     "cfe4df54526cc53e2acd77fb08487643a9de8f2b51724beb322fdf72663f7981"),
    (["sweep", "--preset", "fig3a", "--format", "json-like"],
     "d93ac5eadfe1b3a65573db09f887320db2779fad8d003ddd17d2ed1af50a6672"),
    (["sweep", "--preset", "fig4b"],
     "21b9e21f029520809e283c7cad1782fd230c3310596f18262e694745e0ed5f13"),
    (["sweep", "--preset", "fig4b", "--format", "json-like"],
     "76905b9378c37a52e46cbaaf2b9adfb3dba066307d3ed5d6598bd900455bf8db"),
    (["sweep", "--preset", "fig4b", "--set", "gamma21=0", "--closed-form"],
     "af845cc29bc93bea2df0f1b774decd3e1ad55bca37fd4bdcafed8f81f0075b80"),
    (["pulse", "--preset", "fig5a"],
     "da97be6a7999937c9245f39414d9863cc34c9c2ae9090e31e7ae8bbf0a60e164"),
    (["pulse", "--preset", "fig5a", "--format", "json-like"],
     "00e117afa393a88c29ef265f5f27de27fdf14c386ceac1c4a13991e824658aeb"),
    (["steady", "--preset", "fig4a", "--format", "json-like"],
     "bf10ea138cd475c67f1131e53b178e45cdc30281623ceb95393807634d1b4d29"),
    (["optimize-delta", "--preset", "fig4a", "--format", "json-like"],
     "3a42ab0c6b22ef67470e1f6eaa99a2377500652a716e738c0a8aa8c8bc2e01c1"),
    (["bandwidth", "--preset", "fig4b", "--format", "json-like"],
     "753e65f023aedc8ca303016d47f791a20fd491355ff883bc5e44efbd8f285478"),
    (["preset", "fig4b"],
     "e1ff17ee1a2977078173a9416cc6e7102e3600de601f3aea552bce3a01a64ef8"),
    # the pulse flags the benchmark's pulse ops pass, recorded from the
    # release before the flags became PulseSpec fields
    (_FLAT_TOP + ["--ramp-us", "2"],
     "03ec78a7691b1adaaef8dd2218bb7bf63fc7a5abe06251e372e94bf1932c7ff4"),
    (["pulse", "--preset", "fig2a", "--duration-us", "10", "--t-start-us",
      "5", "--t-max-us", "60", "--n-t", "6000"],
     "ab567375756a38785e511a95214fa0636f595ae597f42522125e59595d33eaa4"),
    # the closed-form paths, recorded from the release before closed-form
    # grids went through solve_grid
    (["sweep", "--preset", "fig4b", "--set", "gamma21=0", "--closed-form",
      "--variable", "alpha", "--grid=1:300:0.5"],
     "02ec6a60dec8b74df2cc176ce893cc40d9fca231aedc7cfe82a905f486c6c7f0"),
    (["sweep", "--preset", "fig3b", "--set", "gamma21=0", "--closed-form",
      "--format", "json-like"],
     "9a05dd8c683085ccc04c7ba73b711ff0fa75ee6a8542423a364bc915fb922ac1"),
    (["steady", "--preset", "fig4a", "--set", "gamma21=0", "--closed-form"],
     "8b2726f7b5f96c061011fb5c15b985056386fe6d9b2e47ea64bcde95de21f812"),
    (["steady", "--preset", "fig4a", "--set", "gamma21=0", "--closed-form",
      "--format", "json-like"],
     "51c3ed60e13a9f64ff46fcf9f771badec54ebee1189c76b5b542c742b39d6e2a"),
]


@pytest.mark.parametrize("argv, digest", _GOLDEN_STDOUT,
                         ids=[" ".join(a) for a, _ in _GOLDEN_STDOUT])
def test_dataset_stdout_golden(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pulse_ramp_defaults_to_a_tenth_of_duration(capsys):
    # a left-out --ramp-us is PulseSpec's default, duration/10, not the
    # preset pulse's ramp
    assert run(capsys, _FLAT_TOP) == run(capsys,
                                         [*_FLAT_TOP, "--ramp-us", "2"])


def test_bandwidth_config_is_not_anchored_by_preset(tmp_path, capsys):
    # fig4b's medium and drives, driven away from the optimum: with
    # --config the parameters are the file's, so --preset must not re-anchor
    cfg = tmp_path / "off.cfg"
    cfg.write_text("alpha = 130\ngamma21 = 7e-4\ndelta_kL_pi = 0.134\n"
                   "omega_c = 1.2\nomega_d = 1.2\ndelta_khz = 60\n")
    code, out, err = run(capsys, ["bandwidth", "--config", str(cfg)])
    assert (code, out, err) == (0, "fwhm_mhz = 1.62386007\n", "")
    code, out, err = run(capsys, ["bandwidth", "--preset", "fig4b",
                                  "--config", str(cfg)])
    assert (code, out, err) == (0, "fwhm_mhz = 1.62386007\n", "")


def test_preset_dump(capsys):
    code, out, _ = run(capsys, ["preset", "fig4b"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# preset fig4b (kind: sweep)"
    assert "alpha = 130" in lines
    assert "delta_kL_pi = 0.134" in lines
    assert "delta_khz = -27" in lines


_MOT = ("alpha = 45", "gamma21 = 0.0002", "gamma31 = 1", "gamma41 = 1",
        "gamma_phys_mhz = 6", "delta_kL_pi = 0.447")
_DENSE = ("alpha = 130", "gamma21 = 0.0007", "gamma31 = 1", "gamma41 = 1",
          "gamma_phys_mhz = 6", "delta_kL_pi = 0.134")
_GAUSSIAN_30US = dlambda_fwm.PulseSpec("gaussian", 3e-05, t_start=2e-05,
                                       ramp=3e-06, grid=(0.0, 1.5e-04, 12000))
_OMEGA_D_AXIS = ("omega_d", 49, 0.1, 2.5)
_DELTA_AXIS = ("delta", 71, -200.0, 150.0)


@pytest.mark.parametrize("name, medium, omega_c, omega_d, delta_khz, axis", [
    ("fig2a", _MOT, "0.6", "0", "0", None),
    ("fig2b", _DENSE, "1.2", "0", "0", None),
    ("fig3a", _MOT, "0.6", "0.6", "-54", _OMEGA_D_AXIS),
    ("fig3b", _MOT, "0.6", "0.6", "-54", _DELTA_AXIS),
    ("fig4a", _DENSE, "1.2", "1.2", "-27", _OMEGA_D_AXIS),
    ("fig4b", _DENSE, "1.2", "1.2", "-27", _DELTA_AXIS),
    ("fig5a", _DENSE, "1.2", "1.2", "-27", None),
    ("fig5b", _DENSE, "1.2", "1.2", "93", None),
    ("fig5c", _DENSE, "1.2", "1.2", "-147", None),
])
def test_preset_pinned(capsys, name, medium, omega_c, omega_d, delta_khz,
                       axis):
    # every preset's dump, kind and sweep axis or pulse, exactly
    kind = "pulse" if axis is None else "sweep"
    code, out, err = run(capsys, ["preset", name])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        f"# preset {name} (kind: {kind})", *medium, f"omega_c = {omega_c}",
        f"omega_d = {omega_d}", f"delta_khz = {delta_khz}",
        "delta_p_khz = 0", "Delta_khz = 0"]
    pre = dlambda_fwm.figure_preset(name)
    assert pre.name == name and pre.kind == kind
    # the dump is the preset's parameters, bit for bit
    assert dlambda_fwm.parse_config(out) == \
        (pre.medium, pre.drive, pre.detuning)
    if axis is None:
        assert pre.sweep is None and pre.pulse == _GAUSSIAN_30US
    else:
        g = pre.sweep.grid
        assert pre.pulse is None
        assert (pre.sweep.variable, len(g), g[0], g[-1]) == axis
        assert pre.sweep.solver == "exact"
        assert (pre.sweep.medium, pre.sweep.drive, pre.sweep.detuning) == \
            (pre.medium, pre.drive, pre.detuning)


@pytest.mark.parametrize("name", dlambda_fwm.experiments.PRESET_NAMES)
def test_preset_is_its_dump(tmp_path, capsys, name):
    # --preset P computes from exactly the document `preset P` prints
    cfg = tmp_path / f"{name}.cfg"
    code, dump, _ = run(capsys, ["preset", name])
    assert code == 0
    cfg.write_text(dump)
    commands = [["steady"], ["pulse"], ["pulse", "--format", "json-like"]]
    if dlambda_fwm.figure_preset(name).kind == "sweep":
        commands += [["sweep"], ["sweep", "--format", "json-like"]]
    for cmd in commands:
        argv = [*cmd, "--preset", name]
        expect = run(capsys, argv)
        assert expect[0] == 0
        assert run(capsys, [*argv, "--config", str(cfg)]) == expect


def test_validate_exit_codes(monkeypatch, capsys):
    ok = [CheckResult(1, "a", True, "fine"), CheckResult(2, "b", True, "fine")]
    monkeypatch.setattr(cli, "run_all", lambda: ok)
    code, out, _ = run(capsys, ["validate"])
    assert code == 0 and "2/2 checks passed" in out

    mixed = [CheckResult(1, "a", True, "fine"),
             CheckResult(2, "b", False, "broken")]
    monkeypatch.setattr(cli, "run_all", lambda: mixed)
    code, out, _ = run(capsys, ["validate"])
    assert code == 3
    assert "1/2 checks passed" in out
    assert any(l.startswith("FAIL") for l in out.splitlines())
