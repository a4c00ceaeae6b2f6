"""Seeded input generation for the three benchmark workloads.

A workload is one round of operations, generated from the seed and run
again and again: the same seed gives the same inputs, and the program only
ever sees the configs and parameters generated here.  The round holds a
fixed, stratified mix (the same grid lengths, pulse kinds and call kinds
for every seed) whose physical parameters the seed jitters, so its cost
barely depends on the seed.

steady-scan  `sweep` and `bandwidth` CLI ops over generated configs.
steady-point scalar `transfer_solve`, `steady_closed_form` and
             `optimal_delta` calls.
pulse        `pulse` CLI ops: slow light, conversion gaussians, flat tops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("steady-scan", "steady-point", "pulse")

GAMMA_MHZ = 6.0                     # the program's default Gamma / 2pi
GAMMA = 2.0 * math.pi * GAMMA_MHZ * 1e6

#: the two density regimes of the demonstration scenarios
MOT = dict(alpha=45.0, omega=0.6, gamma21=2e-4, delta_kL_pi=0.447)
DENSE = dict(alpha=130.0, omega=1.2, gamma21=7e-4, delta_kL_pi=0.134)

#: steady-scan sweeps of one round: (rows, variable, solver).  Grid lengths
#: span 71..2001 rows; 4 of 11 use the closed form over delta or alpha.
SWEEP_LADDER = (
    (71, "delta", "closed_form"),
    (101, "omega_d", "exact"),
    (151, "delta", "exact"),
    (201, "alpha", "closed_form"),
    (301, "delta_p", "exact"),
    (401, "alpha", "exact"),
    (601, "delta", "closed_form"),
    (801, "omega_d", "exact"),
    (1001, "delta", "exact"),
    (1501, "alpha", "closed_form"),
    (2001, "delta_p", "exact"),
)
#: points of one `bandwidth` op (the program's fixed +-2 Gamma scan)
BANDWIDTH_POINTS = 2001
BANDWIDTH_STEP = 0.002
BANDWIDTH_HALF_RANGE = 2.0
BANDWIDTH_OPS = 2

#: steady-point calls of one round: (kind, count)
CALL_MIX = (("general", 160), ("two_level", 32), ("closed_form", 48),
            ("optimal_delta", 16))

#: pulse ops of one round: name -> (shape, alpha, Omega, nominal duration
#: (gaussian 1/e^2 width or flat-top hold), output tail after the input
#: support, or None for slow light, whose tail follows its group delay).
#: Slow-light gaussians with the drive off from a low to a dense optical
#: depth, conversion gaussians with delta near delta*, and a flat top held
#: long enough for its last PLATEAU_WINDOW to sit on the steady plateau.
#: Omega is above the steady regimes' and the optical depths of the
#: conversion ops are low, so the EIT dynamics, and with them the grids,
#: stay short: every op takes 0.1-0.6 s at the seed and a run repeats each
#: one many times.  Tails are the measured decay of every output to 1e-4
#: of its peak plus about a microsecond.  The seed jitters alpha and
#: Omega by 2% and durations by 3%.
PULSE_ROUND = {
    "slow_low": ("gaussian", 20.0, 1.2, 0.5e-6, None),
    "slow_mot_short": ("gaussian", 45.0, 1.5, 0.5e-6, None),
    "slow_mot_long": ("gaussian", 45.0, 1.5, 1.0e-6, None),
    "slow_dense": ("gaussian", 130.0, 2.5, 0.6e-6, None),
    "conv_short": ("gaussian", 20.0, 1.2, 0.5e-6, 2.2e-6),
    "conv_long": ("gaussian", 20.0, 1.2, 1.0e-6, 2.2e-6),
    "conv_mid": ("gaussian", 30.0, 1.5, 0.5e-6, 2.6e-6),
    "flat": ("flat_top", 20.0, 1.2, 5e-6, 2.0e-6),
}
#: ramp of the flat tops
FLAT_RAMP = 1e-6
#: time step of generated pulse grids, dt * Gamma (the program needs <= 0.5)
DT_GAMMA = 0.4
#: length of the flat-top plateau window checked against the steady state
PLATEAU_WINDOW = 4e-6

_WORKLOAD_KEY = {name: i + 1 for i, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    kind    "sweep", "bandwidth" or "pulse" (CLI ops, run through
            `cli.main`) or "call" (a scalar Python-API call).
    config  config-file keys and values for CLI ops, else None.
    argv    CLI arguments after the subcommand name, without --config and
            --out.
    points  steady solutions (sweep rows, bandwidth scan points, calls
            that return a steady state) or pulse output samples delivered.
    spec    what the output check and the traced replay need.
    """

    kind: str
    config: dict | None
    argv: tuple
    points: int
    spec: dict = field(default_factory=dict)


def round_ops(workload: str, seed: int) -> list:
    """The operations of one round, in the order they run."""
    rng = np.random.default_rng([seed, _WORKLOAD_KEY[workload]])
    if workload == "steady-scan":
        ops = [_sweep_op(rng, *row) for row in SWEEP_LADDER]
        ops += [_bandwidth_op(rng) for _ in range(BANDWIDTH_OPS)]
    elif workload == "steady-point":
        ops = [_call_op(rng, kind) for kind, count in CALL_MIX
               for _ in range(count)]
    elif workload == "pulse":
        ops = [_pulse_op(rng, name) for name in PULSE_ROUND]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [ops[i] for i in rng.permutation(len(ops))]


def config_text(config: dict) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in config.items())


def point_of(config: dict) -> dict:
    """Reference-solver parameters (Gamma units) of a config."""
    return dict(
        alpha=config["alpha"], gamma21=config.get("gamma21", 0.0),
        gamma31=1.0, gamma41=1.0,
        delta_kL=math.pi * config.get("delta_kL_pi", 0.0),
        omega_c=config["omega_c"], omega_d=config.get("omega_d", 0.0),
        delta=config.get("delta_khz", 0.0) / (GAMMA_MHZ * 1e3),
        delta_p=config.get("delta_p_khz", 0.0) / (GAMMA_MHZ * 1e3),
        Delta=config.get("Delta_khz", 0.0) / (GAMMA_MHZ * 1e3))


def sweep_grid(op: Op) -> np.ndarray:
    """Sweep values exactly as the CLI builds them from --grid."""
    start, stop, step = op.spec["grid"]
    n = int(round((stop - start) / step))
    return np.linspace(start, start + n * step, abs(n) + 1)


def sweep_points(op: Op, values) -> dict:
    """Reference parameters of sweep rows at the given sweep values."""
    point = point_of(op.config)
    values = np.asarray(values, dtype=float)
    var = op.spec["variable"]
    if var in ("delta", "delta_p"):
        values = values / (GAMMA_MHZ * 1e3)
    point[var] = values
    return point


def _regime(rng) -> dict:
    return MOT if rng.random() < 0.5 else DENSE


def _base(rng, regime: dict, in_regime: bool) -> dict:
    """A base point jittered around a density regime, delta near delta*."""
    alpha = regime["alpha"] * rng.uniform(0.9, 1.1)
    omega = regime["omega"] * rng.uniform(0.9, 1.1)
    dkl_pi = regime["delta_kL_pi"]
    delta_star_khz = -math.pi * dkl_pi * omega ** 2 / alpha * GAMMA_MHZ * 1e3
    cfg = dict(alpha=alpha, gamma21=0.0 if in_regime else regime["gamma21"],
               delta_kL_pi=dkl_pi, omega_c=omega, omega_d=omega,
               delta_khz=delta_star_khz + rng.uniform(-5.0, 5.0))
    if not in_regime:
        cfg.update(omega_d=omega * rng.uniform(0.8, 1.2),
                   delta_p_khz=rng.uniform(-20.0, 20.0),
                   Delta_khz=rng.uniform(-20.0, 20.0))
    return cfg


def _sweep_op(rng, rows: int, variable: str, solver: str) -> Op:
    cfg = _base(rng, _regime(rng), in_regime=solver == "closed_form")
    if variable == "omega_d":
        start, stop = rng.uniform(0.05, 0.15), rng.uniform(2.2, 2.8)
    elif variable == "delta":
        c = cfg["delta_khz"]
        start, stop = c - rng.uniform(150.0, 250.0), c + rng.uniform(150.0, 250.0)
    elif variable == "delta_p":
        start, stop = -rng.uniform(1500.0, 3000.0), rng.uniform(1500.0, 3000.0)
    else:
        start, stop = rng.uniform(1.0, 5.0), rng.uniform(200.0, 300.0)
    step = (stop - start) / (rows - 1)
    argv = ["--variable", variable, f"--grid={start!r}:{stop!r}:{step!r}"]
    if solver == "closed_form":
        argv.append("--closed-form")
    return Op("sweep", cfg, tuple(argv), rows,
              dict(variable=variable, solver=solver, grid=(start, stop, step),
                   check_rows=rng.choice(rows, size=min(rows, 16),
                                         replace=False).tolist()))


def _bandwidth_op(rng) -> Op:
    cfg = _base(rng, _regime(rng), in_regime=False)
    cfg.update(omega_d=cfg["omega_c"], delta_p_khz=0.0, Delta_khz=0.0)
    return Op("bandwidth", cfg, (), BANDWIDTH_POINTS, {})


def _call_op(rng, kind: str) -> Op:
    if kind == "optimal_delta":
        point = dict(alpha=rng.uniform(1.0, 300.0), omega=rng.uniform(0.1, 3.0),
                     delta_kL=rng.uniform(-math.pi, math.pi))
        return Op("call", None, (), 0, dict(fn="optimal_delta", point=point))
    if kind == "closed_form":
        point = dict(alpha=rng.uniform(1.0, 200.0), omega=rng.uniform(0.2, 3.0),
                     delta_kL=rng.choice((-1.0, 1.0)) * math.pi
                     * rng.uniform(0.1, 1.0),
                     delta=rng.uniform(-0.05, 0.05))
        return Op("call", None, (), 1,
                  dict(fn="steady_closed_form", point=point))
    two_level = kind == "two_level"
    point = dict(
        alpha=math.exp(rng.uniform(math.log(0.1), math.log(400.0))),
        gamma21=rng.uniform(0.0, 1e-2), gamma31=1.0, gamma41=1.0,
        delta_kL=rng.uniform(-math.pi, math.pi),
        omega_c=0.0 if two_level else rng.uniform(0.05, 3.0),
        omega_d=0.0 if two_level else rng.uniform(0.0, 3.0),
        delta=rng.uniform(-0.05, 0.05),
        delta_p=rng.uniform(-3.0, 3.0) if two_level else rng.uniform(-2.0, 2.0),
        Delta=rng.uniform(-3.0, 3.0) if two_level else rng.uniform(-2.0, 2.0))
    return Op("call", None, (), 1, dict(fn="transfer_solve", point=point))


def _pulse_op(rng, name: str) -> Op:
    """A `pulse` op; grids are sized like a user would size them: the
    time step a little under the program's limit, the window long enough
    for the output to decay below 1e-4 of its peak."""
    shape, alpha, omega, duration, tail = PULSE_ROUND[name]
    regime = DENSE if alpha > 100.0 else MOT
    alpha *= rng.uniform(0.98, 1.02)
    omega *= rng.uniform(0.98, 1.02)
    duration *= rng.uniform(0.97, 1.03)
    dkl_pi = regime["delta_kL_pi"]
    cfg = dict(alpha=alpha, gamma21=regime["gamma21"], delta_kL_pi=dkl_pi,
               omega_c=omega)
    delay = alpha / omega ** 2 / GAMMA
    if tail is None:
        # the program needs the support plus three group delays
        tail = 3.0 * delay + 0.5e-6
    else:
        delta_star = -math.pi * dkl_pi * omega ** 2 / alpha
        cfg.update(omega_d=omega, delta_khz=delta_star * GAMMA_MHZ * 1e3
                   * rng.uniform(0.98, 1.02))
    if shape == "gaussian":
        # the input starts below 1e-4 of its peak
        t_start, ramp = 0.3 * duration, None
        support_end = t_start + 2.0 * duration
    else:
        t_start, ramp = 0.3e-6, FLAT_RAMP
        support_end = t_start + 2.0 * ramp + duration
    t_max = support_end + tail
    n_t = int(math.ceil(t_max * GAMMA / DT_GAMMA))
    argv = ["--shape", shape, "--duration-us", repr(duration * 1e6),
            "--t-start-us", repr(t_start * 1e6), "--t-max-us",
            repr(t_max * 1e6), "--n-t", str(n_t)]
    spec = dict(pulse_kind=name, shape=shape, duration=duration,
                t_start=t_start, ramp=ramp, t_max=t_max, n_t=n_t)
    if ramp is not None:
        argv += ["--ramp-us", repr(ramp * 1e6)]
        hold_end = t_start + ramp + duration
        spec["plateau"] = (hold_end - PLATEAU_WINDOW, hold_end)
    if "omega_d" not in cfg:
        spec["slow_light_delay"] = delay
    return Op("pulse", cfg, tuple(argv), n_t + 1, spec)
