"""Command-line frontend.

Subcommands: steady, optimize-delta, sweep, pulse, bandwidth, preset,
validate.  Parameters come from --preset and/or --config, with --set
key=value overrides applied last (config-file key names).  Data goes to
stdout (or --out), diagnostics to stderr.  Exit codes: 0 success,
1 usage error, 2 domain/solver error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from ._version import __version__
from .dynamics import energy_budget, group_delay, simulate_pulse
from .errors import FwmError, GridError
from .experiments import (GAUSSIAN_30US, MAX_SWEEP_POINTS, PRESET_NAMES,
                          SWEEP_VARIABLES, SweepSpec, bandwidth_fwhm,
                          figure_preset, find_peak, fmt, pulse_csv,
                          pulse_object, run_sweep, sweep_csv, sweep_object)
from .params import CONFIG_KEYS, khz_to_gamma, metadata_echo, parse_config
from .steady_analytic import optimal_delta, regime_error, steady_closed_form
from .steady_numeric import transfer_solve
from .validation import run_all


class _Usage(Exception):
    pass


def _add_common(sub, solver=True):
    sub.add_argument("--config", help="path to a key=value config file")
    sub.add_argument("--preset", choices=PRESET_NAMES,
                     help="named scenario preset")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                     help="override a config key (repeatable, last wins)")
    sub.add_argument("--out", help="write data here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json-like"), default="csv")
    if solver:
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--exact", dest="solver", action="store_const",
                           const="exact", help="exact solver (default)")
        group.add_argument("--closed-form", dest="solver",
                           action="store_const", const="closed_form")
        sub.set_defaults(solver="exact")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.  It is never
    mutated afterwards: parse_args returns a fresh Namespace each call."""
    p = argparse.ArgumentParser(
        prog="dlambda-fwm",
        description="Backward four-wave-mixing frequency conversion in an "
                    "EIT medium: steady-state solvers, pulse propagation, "
                    "sweeps and presets.")
    p.add_argument("--version", action="version",
                   version=f"dlambda-fwm {__version__}")
    subs = p.add_subparsers(dest="cmd")

    s = subs.add_parser("steady", help="steady-state T/CE/loss at one point")
    _add_common(s)

    s = subs.add_parser("optimize-delta",
                        help="quasi-phase-matching two-photon detuning")
    _add_common(s, solver=False)

    s = subs.add_parser("sweep", help="sweep a variable, emit a dataset")
    _add_common(s)
    s.add_argument("--variable", choices=SWEEP_VARIABLES,
                   help="sweep axis (defaults to the preset's)")
    s.add_argument("--grid", metavar="START:STOP:STEP",
                   help="custom grid (kHz for detunings, Gamma otherwise)")

    s = subs.add_parser("pulse", help="time-domain pulse propagation")
    _add_common(s, solver=False)
    s.add_argument("--shape", choices=("gaussian", "flat_top"))
    s.add_argument("--duration-us", type=float)
    s.add_argument("--t-start-us", type=float)
    s.add_argument("--ramp-us", type=float)
    s.add_argument("--t-max-us", type=float)
    s.add_argument("--n-t", type=int)

    s = subs.add_parser("bandwidth", help="conversion FWHM in MHz")
    _add_common(s, solver=False)

    s = subs.add_parser("preset", help="print a preset as config key=values")
    s.add_argument("name", choices=PRESET_NAMES)

    s = subs.add_parser("validate", help="run the acceptance battery")

    return p


def _parse_overrides(pairs) -> dict:
    out = {}
    for item in pairs:
        key, sep, val = item.partition("=")
        key = key.strip()
        if not sep:
            raise _Usage(f"--set expects KEY=VALUE, got {item!r}")
        if key not in CONFIG_KEYS:
            raise _Usage(f"--set: unknown key '{key}' (known: "
                         + ", ".join(CONFIG_KEYS) + ")")
        try:
            out[key] = float(val)
        except ValueError:
            raise _Usage(f"--set: malformed number for '{key}': {val!r}") \
                from None
    return out


def _config_text(pre) -> str:
    """Preset ``pre`` as a config document: what `preset` prints and what
    `--preset` parses."""
    lines = [f"# preset {pre.name} (kind: {pre.kind})"]
    lines += [f"{k} = {fmt(v)}"
              for k, v in metadata_echo(pre.medium, pre.drive,
                                        pre.detuning).items()]
    return "\n".join(lines) + "\n"


def _load_bundle(args):
    """Resolve (medium, drive, detuning) plus the preset, if any."""
    overrides = _parse_overrides(args.set)
    preset = figure_preset(args.preset) if args.preset else None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif preset is not None:
        text = _config_text(preset)
    else:
        raise _Usage("need --preset or --config to define parameters")
    return parse_config(text, overrides), preset


def _emit(args, text_data: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text_data)
    else:
        sys.stdout.write(text_data)


def _emit_values(args, values: dict):
    """One ``key = value`` line per item, or a JSON object of floats."""
    if args.format == "json-like":
        _emit(args, json.dumps({k: float(v) for k, v in values.items()},
                               indent=2) + "\n")
    else:
        _emit(args, "".join(f"{k} = {fmt(v)}\n" for k, v in values.items()))


def _cmd_steady(args) -> int:
    (m, d, det), _ = _load_bundle(args)
    regime = regime_error(m, d.omega_c, d.omega_d, det.delta_p, det.Delta)
    if args.solver == "closed_form":
        if regime is not None:
            raise regime
        r = steady_closed_form(m, d.omega_c, det.delta)
    else:
        r = transfer_solve(d, det, m)
    lines = {
        "transmittance": r.transmittance,
        "ce": r.ce,
        "loss": r.loss,
    }
    # report the closed-form/exact gap whenever the point is in regime
    if args.solver == "exact" and regime is None:
        cf = steady_closed_form(m, d.omega_c, det.delta)
        lines["closed_form_ce_discrepancy"] = abs(cf.ce - r.ce)
    _emit_values(args, lines)
    return 0


def _cmd_optimize_delta(args) -> int:
    (m, d, det), _ = _load_bundle(args)
    r = optimal_delta(m, d.omega_c)
    _emit_values(args, {"delta_star_gamma": r.delta,
                        "delta_star_khz": r.delta_khz})
    return 0


def _cmd_sweep(args) -> int:
    (m, d, det), preset = _load_bundle(args)
    variable = args.variable
    grid = None
    if args.grid:
        try:
            start, stop, step = (float(x) for x in args.grid.split(":"))
        except ValueError:
            raise _Usage(f"--grid expects START:STOP:STEP, got {args.grid!r}") \
                from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise _Usage(f"--grid values must be finite, got {args.grid!r}")
        if step == 0.0:
            raise _Usage("--grid step must be nonzero")
        steps = (stop - start) / step
        if steps < 0.0:
            raise _Usage(f"--grid step must point from START to STOP, "
                         f"got {args.grid!r}")
        # checked before np.linspace allocates the grid
        if not steps < MAX_SWEEP_POINTS:
            raise GridError(f"--grid {args.grid} has more than "
                            f"{MAX_SWEEP_POINTS} points")
        # every point from START towards STOP, none past it
        n = math.floor(steps + 1e-9)
        grid = np.linspace(start, start + n * step, n + 1)
    if preset is not None and preset.sweep is not None:
        variable = variable or preset.sweep.variable
        grid = grid if grid is not None else preset.sweep.grid
    if variable is None or grid is None:
        raise _Usage("sweep needs --variable and --grid, or a sweep preset")
    spec = SweepSpec(variable, grid, m, d, det, solver=args.solver)
    res = run_sweep(spec)
    if args.format == "json-like":
        _emit(args, json.dumps(sweep_object(res), indent=2) + "\n")
    else:
        _emit(args, sweep_csv(res))
    return 0


def _cmd_pulse(args) -> int:
    (m, d, det), preset = _load_bundle(args)
    pulse = preset.pulse if preset is not None and preset.pulse is not None \
        else GAUSSIAN_30US
    updates = {}
    if args.shape:
        updates["shape"] = args.shape
    if args.duration_us is not None:
        updates["duration"] = args.duration_us * 1e-6
    if args.t_start_us is not None:
        updates["t_start"] = args.t_start_us * 1e-6
    if args.ramp_us is not None:
        updates["ramp"] = args.ramp_us * 1e-6
    if args.t_max_us is not None or args.n_t is not None:
        t_min, t_max, n_t = pulse.grid
        if args.t_max_us is not None:
            t_max = args.t_max_us * 1e-6
        if args.n_t is not None:
            n_t = args.n_t
        updates["grid"] = (t_min, t_max, n_t)
    if updates:
        pulse = replace(pulse, **updates)
    trace = simulate_pulse(m, d, det, pulse)
    budget = energy_budget(trace)
    meta = metadata_echo(m, d, det)
    meta.update(shape=pulse.shape, duration_us=pulse.duration * 1e6,
                n_t=pulse.grid[2])
    if args.format == "json-like":
        _emit(args, json.dumps(pulse_object(trace, meta), indent=2) + "\n")
    else:
        _emit(args, pulse_csv(trace, meta))
    try:
        delay_us = group_delay(trace) * 1e6
        print(f"group_delay_us = {fmt(delay_us)}", file=sys.stderr)
    except FwmError:
        pass
    print(f"T_pulse = {fmt(budget.t_pulse)}  CE_pulse = "
          f"{fmt(budget.ce_pulse)}  loss = {fmt(budget.loss)}"
          + ("  [truncated tail]" if budget.truncated else ""),
          file=sys.stderr)
    return 0


def _cmd_bandwidth(args) -> int:
    (m, d, det), preset = _load_bundle(args)
    base = det
    if preset is not None and preset.sweep is not None \
            and preset.sweep.variable == "delta" \
            and not (args.set or args.config):
        # anchor the scan at the optimum of the preset's own parameters
        peak = find_peak(run_sweep(preset.sweep))
        base = replace(det, delta=khz_to_gamma(peak.value, m.gamma_phys))
        print(f"base delta set to grid optimum: {fmt(peak.value)} kHz",
              file=sys.stderr)
    _emit_values(args, {"fwhm_mhz": bandwidth_fwhm(m, d, base)})
    return 0


def _cmd_preset(args) -> int:
    sys.stdout.write(_config_text(figure_preset(args.name)))
    return 0


def _cmd_validate(_args) -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{tag}  {r.number:>2}  {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


_DISPATCH = {
    "steady": _cmd_steady,
    "optimize-delta": _cmd_optimize_delta,
    "sweep": _cmd_sweep,
    "pulse": _cmd_pulse,
    "bandwidth": _cmd_bandwidth,
    "preset": _cmd_preset,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _DISPATCH[args.cmd](args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FwmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
