"""Benchmark of the dlambda-fwm simulator: one workload, one seed, one run.

    python3 bench/run.py --workload steady-scan --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src/`.  The workload is a closed loop (one caller; the next
operation starts when the previous one returns) over whole rounds of
seeded inputs until --seconds have passed.  Every operation's output is
checked against the numpy-only reference in `reference.py`.

--trace 0 prints the end-to-end metrics; --trace 1 replays the same inputs
through the program's public functions, timing each layer from here, and
prints the per-layer metrics.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines above it are the
run record and a readable table.  Exit status 0 when every operation
passed its check, 1 when one failed, 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: thread-count variables of BLAS and OpenMP builds numpy may link against
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_RUNS = 3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("steady-scan", "steady-point", "pulse"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # the workload process and its set-up children run single-threaded; set
    # before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if not (SRC / "dlambda_fwm" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'dlambda_fwm'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.setup_child:
        return setup_child(args.workload, args.seed, Path(args.setup_child))

    import dlambda_fwm
    if Path(dlambda_fwm.__file__).resolve().parent != SRC / "dlambda_fwm":
        print(f"error: imported {dlambda_fwm.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    import runner

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = runner.run_record(ROOT, args)
    for key, value in record.items():
        print(f"# {key}: {value}")
    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(args, work, importtime=bool(args.trace))
        res = runner.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        table = runner.layer_metrics(res)
        table["setup.import_s"] = {"value": setup["import_s"], "unit": "s"}
        table["setup.scipy_import_s"] = {"value": setup["scipy_import_s"],
                                         "unit": "s"}
    else:
        table = runner.end_to_end(args.workload, res)
        table["setup_s"] = {"value": setup["wall_s"], "unit": "s"}
        table["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    table["fail_share"] = {"value": res.failed / max(res.attempted, 1),
                           "unit": "1", "failed": res.failed,
                           "attempted": res.attempted}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    # a per-layer metric whose function the program dropped is left out
    metrics = {m["name"]: table[m["name"]] for m in declared[section]
               if m["name"] in table or section == "end_to_end"}

    OUT_DIR.mkdir(exist_ok=True)
    record.update(setup=setup, rounds=res.rounds, failures=res.failures[:20],
                  metrics=table, slots=runner.slot_table(res))
    if args.trace:
        res.tracer.write(OUT_DIR / f"spans-{run_id}.jsonl")
    (OUT_DIR / f"run-{run_id}.json").write_text(json.dumps(record, indent=1))

    for msg in res.failures[:20]:
        print(f"# FAILED {msg}")
    for name, m in table.items():
        shown = "n/a" if m["value"] is None else format(m["value"], ".6g")
        notes = "".join(f" {k}={v}" for k, v in m.items()
                        if k not in ("value", "unit"))
        print(f"# {name:<46} {shown:>14} {m['unit']}{notes}")
    correct = res.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": res.attempted, "failed": res.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0 if correct else 1


def setup_child(workload: str, seed: int, out: Path) -> int:
    """What a user pays before the first operation: a fresh interpreter,
    the package imported, and the first round's inputs generated."""
    import dlambda_fwm  # noqa: F401  (first, so import time is its own)
    import workloads
    out.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(workloads.round_ops(workload, seed)):
        if op.config is not None:
            (out / f"op{i}.cfg").write_text(workloads.config_text(op.config))
    return 0


def measure_setup(args, work: Path, importtime: bool) -> dict:
    """Median set-up over SETUP_RUNS fresh interpreters; with importtime,
    also the package's and scipy's import times from -X importtime."""
    walls, imports, scipys = [], [], []
    for i in range(SETUP_RUNS):
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
            + [str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0",
               "--setup-child", str(work / f"setup{i}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        if importtime:
            pkg, scipy = parse_importtime(proc.stderr)
            imports.append(pkg)
            scipys.append(scipy)
    out = {"wall_s": statistics.median(walls), "runs": SETUP_RUNS}
    if importtime:
        out.update(import_s=statistics.median(imports),
                   scipy_import_s=statistics.median(scipys))
    return out


def parse_importtime(text: str) -> tuple:
    """(package seconds, scipy seconds) from `-X importtime` output: the
    package's cumulative time, and the summed cumulative time of the
    outermost scipy modules (0 when scipy is not imported)."""
    pkg, scipy = 0.0, []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip(" "))
        name = name.strip()
        if name == "dlambda_fwm":
            pkg = int(cumulative) / 1e6
        elif name == "scipy" or name.startswith("scipy."):
            scipy.append((depth, int(cumulative) / 1e6))
    top = min((d for d, _ in scipy), default=0)
    return pkg, sum(s for d, s in scipy if d == top)


if __name__ == "__main__":
    sys.exit(main())
