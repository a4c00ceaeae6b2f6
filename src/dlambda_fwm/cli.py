"""Command-line frontend.

Subcommands: steady, optimize-delta, sweep, pulse, bandwidth, preset,
validate.  Parameters come from --preset and/or --config, with --set
key=value overrides applied last (each read as a config line).  Data goes to
stdout (or --out), diagnostics to stderr.  Exit codes: 0 success,
1 usage error, 2 domain/solver error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from ._version import __version__
from .dynamics import energy_budget, group_delay, simulate_pulse
from .errors import ConfigError, FwmError, GridError
from .experiments import (GAUSSIAN_30US, MAX_SWEEP_POINTS, PRESET_NAMES,
                          SWEEP_VARIABLES, SweepSpec, anchored_bandwidth,
                          bandwidth_fwhm, figure_preset, fmt, pulse_blocks,
                          render_values, run_sweep, sweep_blocks)
from .params import SteadyResult, metadata_echo, parse_config, parse_pair
from .steady_analytic import optimal_delta, regime_error
from .steady_numeric import solve_grid
from .validation import run_all


class _Usage(Exception):
    pass


def microseconds(text: str) -> float:
    """Seconds, for PulseSpec, from a time flag's microseconds."""
    return float(text) * 1e-6


def _add_common(sub, solver=True):
    sub.add_argument("--config", help="path to a key=value config file")
    sub.add_argument("--preset", choices=PRESET_NAMES,
                     help="named scenario preset")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                     help="override a config key, written as a config "
                          "line (repeatable, last wins)")
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
def _build_parser() -> tuple:
    """(parser, commands): the parser of this process and each subcommand's
    own parser by name, with its handler as the default ``run``.  Built on
    first use and never mutated: each parse returns a fresh Namespace."""
    p = argparse.ArgumentParser(
        prog="dlambda-fwm",
        description="Backward four-wave-mixing frequency conversion in an "
                    "EIT medium: steady-state solvers, pulse propagation, "
                    "sweeps and presets.")
    p.add_argument("--version", action="version",
                   version=f"dlambda-fwm {__version__}")
    subs = p.add_subparsers(dest="cmd")  # named by invalid-choice errors
    commands = {}

    def command(name, run, **kw):
        sub = commands[name] = subs.add_parser(name, **kw)
        sub.set_defaults(run=run)
        return sub

    s = command("steady", _cmd_steady,
                help="steady-state T/CE/loss at one point")
    _add_common(s)

    s = command("optimize-delta", _cmd_optimize_delta,
                help="quasi-phase-matching two-photon detuning")
    _add_common(s, solver=False)

    s = command("sweep", _cmd_sweep, help="sweep a variable, emit a dataset")
    _add_common(s)
    s.add_argument("--variable", choices=SWEEP_VARIABLES,
                   help="sweep axis (defaults to the preset's)")
    s.add_argument("--grid", metavar="START:STOP:STEP",
                   help="custom grid in the variable's unit ("
                        + ", ".join(f"{v}: {unit}" for v, unit
                                    in SWEEP_VARIABLES.items()) + ")")

    s = command("pulse", _cmd_pulse, help="time-domain pulse propagation")
    _add_common(s, solver=False)
    # each flag sets the PulseSpec field its dest names
    s.add_argument("--shape", choices=("gaussian", "flat_top"))
    s.add_argument("--duration-us", dest="duration", type=microseconds)
    s.add_argument("--t-start-us", dest="t_start", type=microseconds)
    s.add_argument("--ramp-us", dest="ramp", type=microseconds,
                   help="flat-top ramp time (default: duration/10)")
    s.add_argument("--t-max-us", dest="t_max", type=microseconds)
    s.add_argument("--n-t", type=int)

    s = command("bandwidth", _cmd_bandwidth, help="conversion FWHM in MHz")
    _add_common(s, solver=False)

    s = command("preset", _cmd_preset,
                help="print a preset as config key=values")
    s.add_argument("name", choices=PRESET_NAMES)

    command("validate", _cmd_validate, help="run the acceptance battery")

    return p, commands


def _load_bundle(args):
    """Resolve (medium, drive, detuning) plus the preset, if any."""
    try:
        overrides = dict(map(parse_pair, args.set))
    except ConfigError as exc:
        raise _Usage(f"--set: {exc}") from None
    preset = figure_preset(args.preset) if args.preset else None
    if args.config:
        with open(args.config, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            # numbered from 1, as config lines are
            raise ConfigError(f"{args.config} is not UTF-8 text ({exc.reason}"
                              f" at byte {exc.start + 1})") from None
    elif preset is not None:
        text = preset.config
    else:
        raise _Usage("need --preset or --config to define parameters")
    return parse_config(text, overrides), preset


def _emit(args, blocks):
    """Write each block of ``blocks``, UTF-8 bytes, to --out as it is or to
    stdout decoded, so that any text stream can stand in for it."""
    if args.out:
        with open(args.out, "wb") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.writelines(block.decode() for block in blocks)


def _cmd_steady(args) -> int:
    (m, d, det), _ = _load_bundle(args)
    closed_form = args.solver == "closed_form"
    r = SteadyResult(*map(complex, solve_grid(m, d, det,
                                              closed_form=closed_form)))
    values = {"transmittance": r.transmittance, "ce": r.ce, "loss": r.loss}
    # report the closed-form/exact gap whenever the point is in regime
    if not closed_form and regime_error(m, d.omega_c, d.omega_d,
                                        det.delta_p, det.Delta) is None:
        cf = complex(solve_grid(m, d, det, closed_form=True)[1])
        values["closed_form_ce_discrepancy"] = abs(abs(cf) ** 2 - r.ce)
    _emit(args, [render_values(values, args.format).encode()])
    return 0


def _cmd_optimize_delta(args) -> int:
    (m, d, det), _ = _load_bundle(args)
    r = optimal_delta(m, d.omega_c)
    values = {"delta_star_gamma": r.delta, "delta_star_khz": r.delta_khz}
    _emit(args, [render_values(values, args.format).encode()])
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
    own = preset.sweep if preset is not None else None
    if own is not None:
        variable = variable or own.variable
        if grid is None:
            # the preset's grid is in its own variable's unit
            if variable != own.variable:
                raise _Usage(f"--variable {variable} needs --grid: preset "
                             f"{args.preset} sweeps {own.variable}")
            grid = own.grid
    if variable is None or grid is None:
        raise _Usage("sweep needs --variable and --grid, or a sweep preset")
    spec = SweepSpec(variable, grid, m, d, det, solver=args.solver)
    _emit(args, sweep_blocks(run_sweep(spec), args.format))
    return 0


def _cmd_pulse(args) -> int:
    (m, d, det), preset = _load_bundle(args)
    base = preset.pulse if preset is not None and preset.pulse is not None \
        else GAUSSIAN_30US
    given = {f: getattr(args, f) for f in ("shape", "duration", "t_start",
                                           "t_max", "n_t")
             if getattr(args, f) is not None}
    t_min, t_max, n_t = base.grid
    grid = (t_min, given.pop("t_max", t_max), given.pop("n_t", n_t))
    pulse = replace(base, **given, ramp=args.ramp, grid=grid)
    trace = simulate_pulse(m, d, det, pulse)
    budget = energy_budget(trace)
    meta = metadata_echo(m, d, det)
    meta.update(shape=pulse.shape, duration_us=pulse.duration * 1e6,
                n_t=pulse.grid[2])
    _emit(args, pulse_blocks(trace, meta, args.format))
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
    if preset is not None and preset.sweep is not None \
            and preset.sweep.variable == "delta" \
            and not (args.set or args.config):
        # anchor the scan at the optimum of the preset's own parameters
        fwhm, anchor = anchored_bandwidth(preset.sweep)
        print(f"base delta set to grid optimum: {fmt(anchor)} kHz",
              file=sys.stderr)
    else:
        fwhm = bandwidth_fwhm(m, d, det)
    _emit(args, [render_values({"fwhm_mhz": fwhm}, args.format).encode()])
    return 0


def _cmd_preset(args) -> int:
    sys.stdout.write(figure_preset(args.name).config)
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


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in commands:
            # one parse, by the subcommand's parser: what the top-level
            # parser would hand it, with its report of leftovers
            args, extras = commands[argv[0]].parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "run"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.run(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FwmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
