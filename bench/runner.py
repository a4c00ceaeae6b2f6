"""Closed-loop execution, output checks, traced replay and metrics.

Imported by run.py after the checkout's `src/` is on sys.path.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import time
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import dlambda_fwm
from dlambda_fwm import cli, dynamics, experiments, params, steady_analytic
from dlambda_fwm import steady_numeric

import reference as ref
import workloads as wl

#: a bandwidth result must match the reference FWHM this closely
BANDWIDTH_RTOL = 1e-4
#: layer calls whose time a CLI op also spends; the rest of its time is CLI
CLI_LAYERS = ("params.parse_config", "experiments.run_sweep",
              "experiments.sweep_csv", "experiments.bandwidth_fwhm",
              "dynamics.simulate_pulse", "dynamics.analysis",
              "experiments.pulse_csv")
#: percentiles a tail may be reported at; the highest with at least
#: TAIL_BEYOND samples beyond it is used
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_BEYOND = 10

_now = time.perf_counter_ns


class Tracer:
    """Spans (name, start, end, parent, op id, items, failed, tag), kept in
    memory and written out when the run ends.  Times in ns."""

    def __init__(self):
        self.spans = []
        self.dropped = set()

    def open(self, name, parent=-1, op=None, tag=""):
        self.spans.append([name, _now(), 0, parent, op, 0, 0, tag])
        return len(self.spans) - 1

    def close(self, i, items=0, failed=0):
        span = self.spans[i]
        span[2], span[5], span[6] = _now(), items, failed

    def calls(self, name, fn, arglist, parent, op, tag="", items=None):
        """Call fn(*a) for each a under one span; returns the results (None
        for a call that raised), or None when fn is None because the
        program no longer has the function, which then drops out of the
        report."""
        if fn is None:
            self.dropped.add(name)
            return None
        out, failed = [], 0
        i = self.open(name, parent, op, tag)
        for a in arglist:
            try:
                out.append(fn(*a))
            except Exception:       # counted as the layer's failure
                out.append(None)
                failed += 1
        self.close(i, len(arglist) if items is None else items, failed)
        return out

    def totals(self, tag=None) -> dict:
        """{name: [ns, items, failed, slots]} for one repeat of the round:
        for each slot of the round the median of its repeats, summed."""
        seen = {}
        for name, t0, t1, _, op, items, failed, stag in self.spans:
            if tag is not None and stag != tag:
                continue
            key = (name, op.partition(".")[2])
            seen.setdefault(key, [[], items, failed])[0].append(t1 - t0)
        out = {}
        for (name, _), (times, items, failed) in seen.items():
            acc = out.setdefault(name, [0, 0, 0, 0])
            acc[0] += statistics.median(times)
            acc[1] += items
            acc[2] += failed
            acc[3] += 1
        return out

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "items",
                "failed", "tag")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


@dataclass
class Result:
    """What a run measured.  Every op of the round is a slot, timed on
    every repeat of the round.  A scalar call's time is its fastest
    repeat: a call of some 100 us fits into the quiet moments a shared
    machine has in every run, so the fastest repeat is the program's own
    speed.  A CLI op's time is its median repeat: an op of 10 ms to 1 s
    rarely fits into one quiet stretch, so its fastest repeat depends on
    luck while the median follows the machine's typical speed and varies
    less from run to run.  Raw times of every op are kept for the tails."""

    ops: list
    times: list = field(init=False)     # per slot: ns of passing repeats
    raw_ns: dict = field(default_factory=dict)      # kind -> array of ns
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    rounds: int = 0
    tracer: Tracer | None = None
    csv_bytes: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = [array("q") for _ in self.ops]

    def record(self, slot: int, ns: int, problem: str) -> None:
        op = self.ops[slot]
        self.attempted += 1
        self.raw_ns.setdefault(op.kind, array("q")).append(ns)
        if problem:
            self.failed += 1
            if len(self.failures) < 100:
                self.failures.append(f"{op.kind} {op.argv or op.spec}: {problem}")
        else:
            self.times[slot].append(ns)

    def slots(self, kind=None):
        """(op, time in ns) of the slots of a kind that passed at least
        once."""
        return [(op, slot_time(op, ns)) for op, ns in zip(self.ops,
                                                          self.times)
                if ns and kind in (None, op.kind)]


def slot_time(op: wl.Op, times) -> float:
    """The time of a slot from its repeats, as the Result docstring says."""
    return min(times) if op.kind == "call" else statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> Result:
    """Repeat the workload's round until `seconds` have passed."""
    res = Result(wl.round_ops(workload, seed),
                 tracer=Tracer() if trace else None)
    calls = [program_call(op) for op in res.ops] \
        if workload == "steady-point" else None
    deadline = time.perf_counter() + seconds
    while True:
        if calls:
            _call_round(calls, res)
        else:
            for slot in range(len(res.ops)):
                _cli_op(slot, res, work)
        res.rounds += 1
        if time.perf_counter() >= deadline:
            return res


# ---------------------------------------------------------------------------
# CLI ops
# ---------------------------------------------------------------------------

def _cli_op(slot: int, res: Result, work: Path) -> None:
    op = res.ops[slot]
    op_id = f"{res.rounds}.{slot}"
    cfg = work / "op.cfg"
    out = work / "op.out"
    cfg.write_text(wl.config_text(op.config))
    out.unlink(missing_ok=True)
    argv = [op.kind, "--config", str(cfg), *op.argv, "--out", str(out)]
    err = io.StringIO()
    t0 = _now()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:        # the op failed; the run goes on
        code = f"raised {exc!r}"
    ns = _now() - t0
    if code != 0:
        problem = f"exit {code}: {err.getvalue().strip()[-300:]}"
    else:
        try:
            problem = _CHECKS[op.kind](op, out)
        except (OSError, ValueError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
    res.record(slot, ns, problem)
    if res.tracer is not None:
        res.tracer.spans.append([f"cli.{op.kind}", t0, t0 + ns, -1, op_id,
                                 op.points, int(bool(problem)), ""])
        _replay(op, res, op_id)


def _read_csv(path: Path):
    text = path.read_text(encoding="utf-8")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    data = np.loadtxt(io.StringIO("\n".join(body[1:])), delimiter=",",
                      ndmin=2)
    return body[0], data


def check_sweep(op: wl.Op, out: Path) -> str:
    header, data = _read_csv(out)
    if header != "value,transmittance,ce,loss":
        return f"unexpected header {header!r}"
    if data.shape != (op.points, 4):
        return f"{data.shape[0]} rows, expected {op.points}"
    grid = wl.sweep_grid(op)
    if not np.allclose(data[:, 0], grid, rtol=1e-8, atol=1e-12):
        return "sweep values differ from the requested grid"
    t, ce, loss = data[:, 1], data[:, 2], data[:, 3]
    if not np.allclose(loss, 1.0 - t - ce, rtol=0.0, atol=1e-8):
        return "loss != 1 - T - CE"
    rows = op.spec["check_rows"]
    t_ref, ce_ref = ref.steady_tce(**wl.sweep_points(op, grid[rows]))
    return ref.steady_mismatch(t, ce) \
        or ref.steady_mismatch(t[rows], ce[rows], t_ref, ce_ref)


def check_bandwidth(op: wl.Op, out: Path) -> str:
    text = out.read_text(encoding="utf-8")
    key, _, value = text.strip().partition("=")
    if key.strip() != "fwhm_mhz":
        return f"unexpected output {text[:80]!r}"
    got = float(value)
    width = ref.fwhm_co_shifted(wl.point_of(op.config), wl.BANDWIDTH_STEP,
                                wl.BANDWIDTH_HALF_RANGE)
    if width is None:
        return f"reference finds no half maximum, program says {got}"
    want = width * wl.GAMMA_MHZ
    if not abs(got - want) <= BANDWIDTH_RTOL * want:
        return f"fwhm {got:.9g} MHz, reference {want:.9g} MHz"
    return ""


def check_pulse(op: wl.Op, out: Path) -> str:
    header, data = _read_csv(out)
    if header != "t_us,probe_in,probe_out,signal_out":
        return f"unexpected header {header!r}"
    if data.shape != (op.points, 4):
        return f"{data.shape[0]} samples, expected {op.points}"
    plateau_ref = None
    if "plateau" in op.spec:
        t_ss, ce_ss = ref.steady_tce(**wl.point_of(op.config))
        plateau_ref = (float(t_ss), float(ce_ss))
    return ref.pulse_mismatch(
        data[:, 0] * 1e-6, data[:, 1], data[:, 2], data[:, 3],
        slow_light_delay=op.spec.get("slow_light_delay"),
        plateau=op.spec.get("plateau"), plateau_ref=plateau_ref)


_CHECKS = {"sweep": check_sweep, "bandwidth": check_bandwidth,
           "pulse": check_pulse}


# ---------------------------------------------------------------------------
# scalar calls
# ---------------------------------------------------------------------------

def program_call(op: wl.Op):
    """(function, arguments) of a steady-point call, built outside the
    timed region."""
    p = op.spec["point"]
    fn = op.spec["fn"]
    if fn == "transfer_solve":
        m = dlambda_fwm.MediumParams(alpha=p["alpha"], gamma21=p["gamma21"],
                                     gamma31=p["gamma31"],
                                     gamma41=p["gamma41"],
                                     delta_kL=p["delta_kL"])
        d = dlambda_fwm.DriveParams(omega_c=p["omega_c"], omega_d=p["omega_d"])
        det = dlambda_fwm.DetuningSet(delta=p["delta"], delta_p=p["delta_p"],
                                      Delta=p["Delta"])
        return steady_numeric.transfer_solve, (d, det, m)
    m = dlambda_fwm.MediumParams(alpha=p["alpha"], delta_kL=p["delta_kL"])
    if fn == "steady_closed_form":
        return steady_analytic.steady_closed_form, (m, p["omega"], p["delta"])
    return steady_analytic.optimal_delta, (m, p["omega"])


def call_reference_point(op: wl.Op) -> dict:
    """Reference parameters of a transfer_solve or closed-form call."""
    p = op.spec["point"]
    if op.spec["fn"] == "transfer_solve":
        return p
    return dict(alpha=p["alpha"], gamma21=0.0, gamma31=1.0, gamma41=1.0,
                delta_kL=p["delta_kL"], omega_c=p["omega"],
                omega_d=p["omega"], delta=p["delta"], delta_p=0.0, Delta=0.0)


def check_calls(ops, results) -> list:
    """Problem string ('' when fine) for each call and its result; every
    steady result is compared with the reference in one batch."""
    problems = [f"raised {r!r}" if isinstance(r, Exception) else ""
                for r in results]
    steady = [i for i, op in enumerate(ops)
              if op.spec["fn"] != "optimal_delta" and not problems[i]]
    if steady:
        pts = [call_reference_point(ops[i]) for i in steady]
        t_ref, ce_ref = ref.steady_tce(**{k: np.array([p[k] for p in pts])
                                          for k in pts[0]})
        for j, i in enumerate(steady):
            r = results[i]
            problems[i] = ref.steady_mismatch(r.transmittance, r.ce,
                                              t_ref[j], ce_ref[j])
    for i, op in enumerate(ops):
        if op.spec["fn"] == "optimal_delta" and not problems[i]:
            problems[i] = _optimal_delta_problem(op.spec["point"], results[i])
    return problems


def _optimal_delta_problem(p: dict, r) -> str:
    # delta* cancels the phase mismatch: xi = dkL + delta * alpha / W^2 = 0
    xi = p["delta_kL"] + r.delta * p["alpha"] / p["omega"] ** 2
    if not abs(xi) <= 1e-12 * (1.0 + abs(p["delta_kL"])):
        return f"xi = {xi:.3g} at delta* = {r.delta!r}"
    khz = r.delta * wl.GAMMA_MHZ * 1e3
    if not abs(r.delta_khz - khz) <= 1e-12 * abs(khz) + 1e-15:
        return f"delta_khz {r.delta_khz!r} != {khz!r}"
    return ""


def _call_round(calls, res: Result) -> None:
    results, times = [], []
    for fn, args in calls:
        t0 = _now()
        try:
            r = fn(*args)
        except Exception as exc:    # the call failed; the run goes on
            r = exc
        times.append(_now() - t0)
        results.append(r)
    for slot, problem in enumerate(check_calls(res.ops, results)):
        res.record(slot, times[slot], problem)
    if res.tracer is not None:
        _replay_calls(res.ops, calls, res.tracer, f"{res.rounds}.calls")


# ---------------------------------------------------------------------------
# traced replay
# ---------------------------------------------------------------------------

def _steady_layers(tracer: Tracer, ts_args, cf_args, root, op_id, tag=""):
    for module, fn_name, arglist in (
            (steady_numeric, "transfer_solve", ts_args),
            (steady_numeric, "linear_response", ts_args),
            (steady_numeric, "coupling_matrix", ts_args),
            (steady_analytic, "steady_closed_form", cf_args)):
        if arglist:
            tracer.calls(_layer(module, fn_name), _public(module, fn_name),
                         arglist, root, op_id, tag)


def _replay_calls(ops, calls, tracer: Tracer, op_id: str) -> None:
    root = tracer.open("replay", op=op_id)
    ts = [a for op, (_, a) in zip(ops, calls)
          if op.spec["fn"] == "transfer_solve"]
    cf = [a for op, (_, a) in zip(ops, calls)
          if op.spec["fn"] == "steady_closed_form"]
    _steady_layers(tracer, ts, cf, root, op_id)
    tracer.close(root, len(ops))


def _row_params(m, d, det, variable: str, value: float):
    if variable == "omega_d":
        return m, replace(d, omega_d=value), det
    if variable == "alpha":
        return replace(m, alpha=value), d, det
    value = dlambda_fwm.khz_to_gamma(value, m.gamma_phys)
    return m, d, replace(det, **{variable: value})


def _analysis(trace):
    budget = dynamics.energy_budget(trace)
    try:
        dynamics.group_delay(trace)
    except dlambda_fwm.FwmError:    # no transmitted probe, as in the CLI
        pass
    return budget


def _public(module, fn_name: str):
    """The program's public function, or None once a change removed it."""
    return getattr(module, fn_name, None)


def _layer(module, fn_name: str) -> str:
    return f"{module.__name__.rpartition('.')[2]}.{fn_name}"


def _replay(op: wl.Op, res: Result, op_id: str) -> None:
    """Call the public functions a CLI op goes through, one span each."""
    tracer = res.tracer
    root = tracer.open("replay", op=op_id)
    parsed = tracer.calls("params.parse_config",
                          _public(params, "parse_config"),
                          [(wl.config_text(op.config),)], root, op_id)
    if parsed and parsed[0] is not None:
        _replay_layers(op, res, parsed[0], root, op_id)
    tracer.close(root, 1)


def _replay_layers(op, res, bundle, root, op_id) -> None:
    tracer = res.tracer
    m, d, det = bundle
    if op.kind == "sweep":
        solver = op.spec["solver"]
        grid = wl.sweep_grid(op)
        spec = experiments.SweepSpec(op.spec["variable"], grid, m, d, det,
                                     solver=solver)
        swept = tracer.calls("experiments.run_sweep",
                             _public(experiments, "run_sweep"), [(spec,)],
                             root, op_id, solver, items=op.points)
        if swept and swept[0] is not None:
            text = tracer.calls("experiments.sweep_csv",
                                _public(experiments, "sweep_csv"),
                                [(swept[0],)], root, op_id, items=op.points)
            _count_bytes(res, "experiments.sweep_csv", text, op_id)
        rows = [_row_params(m, d, det, op.spec["variable"], float(grid[i]))
                for i in op.spec["check_rows"]]
        if solver == "exact":
            _steady_layers(tracer, [(dd, tt, mm) for mm, dd, tt in rows], [],
                           root, op_id, solver)
        else:
            _steady_layers(tracer, [], [(mm, dd.omega_c, tt.delta)
                                        for mm, dd, tt in rows],
                           root, op_id, solver)
    elif op.kind == "bandwidth":
        tracer.calls("experiments.bandwidth_fwhm",
                     _public(experiments, "bandwidth_fwhm"), [(m, d, det)],
                     root, op_id)
    else:
        s = op.spec
        pulse = dynamics.PulseSpec(shape=s["shape"], duration=s["duration"],
                                   t_start=s["t_start"], ramp=s["ramp"],
                                   grid=(0.0, s["t_max"], s["n_t"]))
        traced = tracer.calls("dynamics.simulate_pulse",
                              _public(dynamics, "simulate_pulse"),
                              [(m, d, det, pulse)], root, op_id,
                              items=op.points)
        if traced and traced[0] is not None:
            analysis = _analysis if _public(dynamics, "energy_budget") \
                and _public(dynamics, "group_delay") else None
            tracer.calls("dynamics.analysis", analysis, [(traced[0],)], root,
                         op_id)
            echo = _public(experiments, "metadata_echo")
            meta = echo(m, d, det) if echo else {}
            text = tracer.calls("experiments.pulse_csv",
                                _public(experiments, "pulse_csv"),
                                [(traced[0], meta)], root, op_id)
            _count_bytes(res, "experiments.pulse_csv", text, op_id)


def _count_bytes(res: Result, name: str, texts, op_id: str) -> None:
    if texts and texts[0] is not None:
        res.csv_bytes[name, op_id.partition(".")[2]] = len(texts[0])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(ns_values) -> tuple:
    """(value, percentile) at the highest TAIL_PERCENTILES entry with at
    least TAIL_BEYOND samples beyond it; (None, None) for too few samples."""
    n = len(ns_values)
    usable = [p for p in TAIL_PERCENTILES
              if round(n * (100.0 - p) / 100.0, 6) >= TAIL_BEYOND]
    if not usable:
        return None, None
    return float(np.percentile(np.asarray(ns_values), usable[-1])), usable[-1]


def _median(values, scale):
    return float(np.median(values)) / scale if len(values) else None


def _metric(value, unit, **notes) -> dict:
    return {"value": value, "unit": unit, **notes}


def end_to_end(workload: str, res: Result) -> dict:
    """Metrics of an untraced run by name; a value is None when no op of
    its kind passed.  op_p50_ms and items_per_s are the gated ones; the
    rest name the same numbers per workload or are not gated."""
    slots = res.slots()
    busy_s = sum(ns for _, ns in slots) / 1e9
    rate = sum(op.points for op, _ in slots) / busy_s if slots else None
    out = {"op_p50_ms": _metric(_median([ns for _, ns in slots], 1e6), "ms"),
           "items_per_s": _metric(rate, "1/s")}

    def timing(name, kind, scale, unit, with_tail):
        typical = [ns for _, ns in res.slots(kind)]
        out[f"{name}_p50_{unit}"] = _metric(_median(typical, scale), unit,
                                            ops=len(typical))
        if with_tail:
            raw = res.raw_ns.get(kind, ())
            value, pct = tail(raw)
            out[f"{name}_tail_{unit}"] = _metric(
                value and value / scale, unit, percentile=pct, n=len(raw))

    if workload == "steady-scan":
        out["points_per_s"] = _metric(rate, "1/s")
        timing("sweep", "sweep", 1e6, "ms", True)
        timing("bandwidth", "bandwidth", 1e6, "ms", False)
    elif workload == "steady-point":
        out["points_per_s"] = _metric(rate, "1/s")
        timing("call", "call", 1e3, "us", True)
    else:
        timing("pulse", "pulse", 1e9, "s", False)
        out["pulse_samples_per_s"] = _metric(rate, "1/s")
    return out


def slot_table(res: Result) -> list:
    """Per slot of the round: kind, items, passing repeats, and the fastest
    and median of their times in ms, for the run record."""
    return [dict(kind=op.kind, items=op.points, repeats=len(ns),
                 fastest_ms=min(ns) / 1e6 if ns else None,
                 median_ms=statistics.median(ns) / 1e6 if ns else None)
            for op, ns in zip(res.ops, res.times)]


def layer_metrics(res: Result) -> dict:
    """Per-layer metrics of a traced run by name, each the median repeat of
    every slot summed over the round.  A layer the workload does not reach
    reads 0; a metric that needs a public function the program no longer
    has is left out."""
    tr = res.tracer
    tot, exact = tr.totals(), tr.totals(tag="exact")

    def acc(name, table=tot):
        return table.get(name, (0, 0, 0, 0))

    def per(name, scale, table=tot):    # time per item
        ns, items = acc(name, table)[:2]
        return ns / scale / items if items else 0.0

    ts, cf = "steady_numeric.transfer_solve", "steady_analytic.steady_closed_form"
    cm, pulse = "steady_numeric.coupling_matrix", "dynamics.simulate_pulse"
    sweep, csv = "experiments.run_sweep", "experiments.sweep_csv"
    ts_us, cm_us = per(ts, 1e3), per(cm, 1e3)
    # median CLI op time minus the median times of the layer calls it makes
    cli_ops = [t for name, t in tot.items() if name.startswith("cli.")]
    cli_only_ns = sum(t[0] for t in cli_ops) \
        - sum(acc(name)[0] for name in CLI_LAYERS)
    n_cli = sum(t[3] for t in cli_ops)
    rows = (    # (name, unit, public functions it needs, value)
        ("cli.overhead_ms_per_op", "ms", CLI_LAYERS,
         cli_only_ns / 1e6 / n_cli if n_cli else 0.0),
        ("params.parse_config.us_per_call", "us", ("params.parse_config",),
         per("params.parse_config", 1e3)),
        (f"{ts}.us_per_point", "us", (ts,), ts_us),
        ("steady_numeric.linear_response.us_per_point", "us",
         ("steady_numeric.linear_response",),
         per("steady_numeric.linear_response", 1e3)),
        ("steady_numeric.boundary.us_per_point", "us", (ts, cm),
         ts_us - cm_us if ts_us and cm_us else 0.0),
        ("steady_numeric.points", "count", (ts,), acc(ts)[1]),
        ("steady_numeric.failed", "count", (ts,), acc(ts)[2]),
        ("steady_analytic.closed_form.us_per_point", "us", (cf,),
         per(cf, 1e3)),
        ("steady_analytic.points", "count", (cf,), acc(cf)[1]),
        ("steady_analytic.failed", "count", (cf,), acc(cf)[2]),
        (f"{sweep}.us_per_point", "us", (sweep,), per(sweep, 1e3)),
        ("experiments.loop.us_per_point", "us", (sweep, ts),
         per(sweep, 1e3, exact) - per(ts, 1e3, exact)
         if acc(sweep, exact)[1] else 0.0),
        ("experiments.bandwidth_fwhm.ms_per_call", "ms",
         ("experiments.bandwidth_fwhm",),
         per("experiments.bandwidth_fwhm", 1e6)),
        (f"{csv}.us_per_row", "us", (csv,), per(csv, 1e3)),
        (f"{csv}.bytes", "bytes", (csv,), _bytes_per_call(res, csv)),
        ("experiments.pulse_csv.ms_per_call", "ms", ("experiments.pulse_csv",),
         per("experiments.pulse_csv", 1e6)),
        ("experiments.pulse_csv.bytes", "bytes", ("experiments.pulse_csv",),
         _bytes_per_call(res, "experiments.pulse_csv")),
        (f"{pulse}.us_per_sample", "us", (pulse,), per(pulse, 1e3)),
        (f"{pulse}.busy_s", "s", (pulse,), acc(pulse)[0] / 1e9),
        ("dynamics.samples", "count", (pulse,), acc(pulse)[1]),
        ("dynamics.analysis.ms_per_call", "ms", ("dynamics.analysis",),
         per("dynamics.analysis", 1e6)),
        ("trace.overhead_s", "s", (), sum(t1 - t0 for name, t0, t1, *_
                                          in tr.spans if name == "replay")
         / 1e9),
    )
    return {name: _metric(value, unit) for name, unit, needs, value in rows
            if not tr.dropped.intersection(needs)}


def _bytes_per_call(res: Result, name: str) -> float:
    sizes = [n for (layer, _), n in res.csv_bytes.items() if layer == name]
    return sum(sizes) / len(sizes) if sizes else 0.0


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def run_record(root: Path, args) -> dict:
    """Machine, toolchain and source identity of a run."""
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cpu_caches": _cpu_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version,
        "dlambda_fwm": dlambda_fwm.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": _tree_digest(root / "src"),
        "threads": " ".join(f"{k}={v}" for k, v in sorted(os.environ.items())
                            if k.endswith("_THREADS")),
    }


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def _cpu_caches() -> str:
    out = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        for index in sorted(base.glob("index*")):
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            out.append(f"L{level} {kind} {size}")
    return ", ".join(out) or "unknown"


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        loose = git / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _tree_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
