"""The benchmark's contract with the program, checked in the test suite.

bench/runner.py replays public functions by name; a function the program
no longer has drops its per-layer metric from the traced record without
an error.  One traced round of each workload, run in-process, must report
every per-layer metric BENCHMARK.json declares (but setup.*, which
bench/run.py measures in child processes) and the gated end-to-end ones.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import runner  # noqa: E402
import workloads as wl  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_round_reports_every_declared_metric(workload, tmp_path):
    res = runner.run(workload, 1, 0.0, True, tmp_path)
    assert (res.failed, res.failures) == (0, [])
    layers = runner.layer_metrics(res)
    missing = [m["name"] for m in DECLARED["per_layer"]
               if not m["name"].startswith("setup.")
               and m["name"] not in layers]
    assert missing == []
    e2e = runner.end_to_end(workload, res)
    for name in ("op_p50_ms", "items_per_s"):
        assert e2e[name]["value"] is not None
