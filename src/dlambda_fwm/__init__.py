"""Resonant backward four-wave mixing in an EIT medium.

Steady-state solvers (closed-form and exact), a
time-domain pulse propagator, detuning optimization and sweep/preset
tooling for a double-Lambda atomic frequency converter.
"""

from ._version import __version__
from .errors import (BoundarySolveError, ConfigError, DomainError,
                     FwmError, GridError, RegimeError, ScanRangeError)
from .params import (DetuningSet, DriveParams, MediumParams, SteadyResult,
                     gamma_to_khz, khz_to_gamma, parse_config)
from .steady_numeric import (coupling_matrix, linear_response, solve_grid,
                             transfer_solve)
from .steady_analytic import (OptimalDelta, eit_phase_shift, optimal_delta,
                              steady_closed_form)
from .dynamics import (EnergyBudget, PulseSpec, PulseTrace, energy_budget,
                       group_delay, simulate_pulse)
from .experiments import (FigurePreset, PeakResult, SweepResult, SweepSpec,
                          bandwidth_fwhm, figure_preset, find_peak,
                          pulse_csv, run_sweep, sweep_csv)

__all__ = [
    "__version__",
    "MediumParams", "DriveParams", "DetuningSet", "SteadyResult",
    "khz_to_gamma", "gamma_to_khz", "parse_config",
    "linear_response", "coupling_matrix", "transfer_solve", "solve_grid",
    "OptimalDelta", "steady_closed_form", "optimal_delta", "eit_phase_shift",
    "PulseSpec", "PulseTrace", "EnergyBudget", "simulate_pulse",
    "group_delay", "energy_budget",
    "SweepSpec", "SweepResult", "PeakResult", "FigurePreset", "run_sweep",
    "find_peak", "bandwidth_fwhm", "figure_preset", "sweep_csv", "pulse_csv",
    "FwmError", "ConfigError", "DomainError", "RegimeError",
    "BoundarySolveError", "GridError", "ScanRangeError",
]
