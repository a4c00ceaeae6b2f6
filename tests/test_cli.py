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


def test_usage_errors(capsys):
    assert run(capsys, [])[0] == 1
    code, _, err = run(capsys, ["steady"])
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, ["steady", "--preset", "fig4a",
                                "--set", "bogus=1"])
    assert code == 1 and "unknown key 'bogus'" in err
    code, _, err = run(capsys, ["steady", "--preset", "fig4a",
                                "--set", "alpha=abc"])
    assert code == 1 and "malformed" in err
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
    for bad in ("alpha=inf", "omega_c=inf", "omega_p0=nan"):
        code, out, err = run(capsys, ["steady", "--preset", "fig4a",
                                      "--set", bad])
        assert code == 2 and out == ""
        assert f"{bad.partition('=')[0]} must be finite" in err


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


def test_out_file(tmp_path, capsys):
    path = tmp_path / "steady.txt"
    code, out, _ = run(capsys, ["steady", "--preset", "fig4a",
                                "--out", str(path)])
    assert code == 0 and out == ""
    assert "ce = 0.921608856" in path.read_text()


def test_sweep_custom_grid(capsys):
    code, out, _ = run(capsys, ["sweep", "--preset", "fig4a",
                                "--variable", "delta", "--grid=-50:0:25"])
    assert code == 0
    lines = out.splitlines()
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 3
    assert [l.split(",")[0] for l in data] == ["-50", "-25", "0"]


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


@pytest.mark.parametrize("cmd", ["pulse", "bandwidth"])
@pytest.mark.parametrize("switch", ["--exact", "--closed-form"])
def test_solver_switch_only_where_read(capsys, cmd, switch):
    # pulse and bandwidth always run the exact kernel
    code, _, err = run(capsys, [cmd, "--preset", "fig4b", switch])
    assert code == 1 and switch in err


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


def test_preset_dump(capsys):
    code, out, _ = run(capsys, ["preset", "fig4b"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# preset fig4b (kind: sweep)"
    assert "alpha = 130" in lines
    assert "delta_kL_pi = 0.134" in lines
    assert "delta_khz = -27" in lines


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
