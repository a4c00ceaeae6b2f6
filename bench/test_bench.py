"""Tests of the benchmark itself: seeded inputs and output checks."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import workloads as wl  # noqa: E402
from dlambda_fwm import cli  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b = wl.round_ops(workload, 7), wl.round_ops(workload, 7)
    assert a == b
    assert [wl.config_text(op.config) for op in a if op.config] \
        == [wl.config_text(op.config) for op in b if op.config]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_other_seed_other_inputs(workload):
    a, b = wl.round_ops(workload, 7), wl.round_ops(workload, 8)
    assert len(a) == len(b)
    assert all(x != y for x, y in zip(sorted(a, key=repr), sorted(b, key=repr)))


def test_every_seed_keeps_the_mix():
    for seed in (1, 2):
        ops = wl.round_ops("steady-scan", seed)
        assert sorted(op.points for op in ops if op.kind == "sweep") \
            == sorted(rows for rows, _, _ in wl.SWEEP_LADDER)
        kinds = [op.spec["pulse_kind"] for op in wl.round_ops("pulse", seed)]
        assert sorted(kinds) == sorted(wl.PULSE_ROUND)


class _Steady:
    def __init__(self, t, ce):
        self.transmittance, self.ce = t, ce


def test_call_check_rejects_ce_off_by_one_percent():
    ops = [op for op in wl.round_ops("steady-point", 3)
           if op.spec["fn"] != "optimal_delta"]
    results = [fn(*args) for fn, args in map(runner.program_call, ops)]
    assert runner.check_calls(ops, results) == [""] * len(ops)
    bad = [_Steady(r.transmittance, r.ce * 1.01) for r in results]
    converting = [i for i, r in enumerate(results) if r.ce > 1e-6]
    assert converting
    problems = runner.check_calls(ops, bad)
    assert all("CE" in problems[i] for i in converting)


def test_sweep_check_rejects_ce_off_by_one_percent(tmp_path):
    op = next(op for op in wl.round_ops("steady-scan", 3)
              if op.points == 71)
    cfg, out = tmp_path / "op.cfg", tmp_path / "op.out"
    cfg.write_text(wl.config_text(op.config))
    assert cli.main([op.kind, "--config", str(cfg), *op.argv,
                     "--out", str(out)]) == 0
    assert runner.check_sweep(op, out) == ""
    lines = out.read_text().splitlines()
    first = len(lines) - op.points
    row = first + op.spec["check_rows"][0]
    value, t, ce, loss = (float(x) for x in lines[row].split(","))
    lines[row] = ",".join(format(x, ".9g")
                          for x in (value, t, ce * 1.01, loss - ce * 0.01))
    out.write_text("\n".join(lines) + "\n")
    assert "CE" in runner.check_sweep(op, out)


def test_steady_check_rejects_passivity_and_nan():
    assert "T + CE" in ref.steady_mismatch(0.5, 0.6)
    assert "non-finite" in ref.steady_mismatch(float("nan"), 0.1)


def _gaussian(t, centre, width):
    return np.exp(-8.0 * (t - centre) ** 2 / width ** 2)


def test_pulse_check_delay_and_tail():
    t = np.linspace(0.0, 60e-6, 6001)
    p_in = _gaussian(t, 15e-6, 10e-6)
    p_out = 0.9 * _gaussian(t, 18e-6, 10e-6)
    zero = np.zeros_like(t)
    assert ref.pulse_mismatch(t, p_in, p_out, zero,
                              slow_light_delay=3e-6) == ""
    assert "group delay" in ref.pulse_mismatch(t, p_in, p_out, zero,
                                               slow_light_delay=3.5e-6)
    late = 0.9 * _gaussian(t, 55e-6, 10e-6)
    assert "truncated" in ref.pulse_mismatch(t, p_in, late, zero)


def test_plateau_check():
    t = np.linspace(0.0, 10e-6, 1001)
    kw = dict(plateau=(4e-6, 8e-6))
    t_peak = np.where((t > 1e-6) & (t < 9e-6), 1.0, 0.0)
    assert ref.pulse_mismatch(t, t_peak, 0.1 * t_peak, 0.8 * t_peak,
                              plateau_ref=(0.1, 0.8), **kw) == ""
    assert "plateau CE" in ref.pulse_mismatch(
        t, t_peak, 0.1 * t_peak, 0.8 * 1.02 * t_peak,
        plateau_ref=(0.1, 0.8), **kw)


def test_optimal_delta_check():
    op = next(op for op in wl.round_ops("steady-point", 1)
              if op.spec["fn"] == "optimal_delta")
    fn, args = runner.program_call(op)
    r = fn(*args)
    assert runner.check_calls([op], [r]) == [""]
    assert runner.check_calls([op], [replace(r, delta=r.delta * 1.01)]) != [""]


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       300 |        300 |     scipy",
        "import time:       200 |        500 |       scipy.linalg",
        "import time:       400 |        700 |     scipy.signal",
        "import time:        50 |       1650 | dlambda_fwm",
    ])
    assert run.parse_importtime(text) == (1650e-6, 1000e-6)


def test_tail_needs_ten_samples_beyond():
    assert runner.tail(list(range(19)))[1] is None
    assert runner.tail(list(range(100)))[1] == 90.0
    assert runner.tail(list(range(1000)))[1] == 99.0


def test_slot_time_fastest_call_median_cli_op():
    times = [5, 1, 9]
    assert runner.slot_time(wl.Op("call", None, (), 1), times) == 1
    assert runner.slot_time(wl.Op("pulse", {}, (), 101), times) == 5
