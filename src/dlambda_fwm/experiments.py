"""Parameter sweeps, named scenario presets and dataset emission.

The fig* presets bundle the parameter sets of the standard demonstration
scenarios: fig2a/fig2b are slow-light pulse runs (driving field off) in
the low- and high-density regimes, fig3*/fig4* are steady-state sweeps of
driving strength (a) or two-photon detuning (b) in the same two regimes,
and fig5a/b/c are pulsed conversion runs at three detunings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._version import __version__
from .errors import DomainError, ScanRangeError, located
from .params import (DetuningSet, DriveParams, MediumParams, TWO_PI,
                     gamma_to_khz, khz_to_gamma)
from .steady_analytic import _amplitudes, _require_regime
from .steady_numeric import _checked, solve_grid
from .dynamics import PulseSpec

SWEEP_VARIABLES = ("omega_d", "delta", "delta_p", "alpha")
#: sweep-axis unit per variable (detunings scan in kHz, the rest in Gamma)
VARIABLE_UNITS = {"omega_d": "Gamma", "delta": "kHz",
                  "delta_p": "kHz", "alpha": "dimensionless"}

BANDWIDTH_STEP = 0.002
BANDWIDTH_HALF_RANGE = 2.0


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    grid: np.ndarray
    medium: MediumParams
    drive: DriveParams
    detuning: DetuningSet
    solver: str = "exact"

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise DomainError(f"unknown sweep variable {self.variable!r}")
        if self.solver not in ("exact", "closed_form"):
            raise DomainError(f"unknown solver {self.solver!r}")
        g = np.asarray(self.grid, dtype=float)
        if g.size == 0:
            raise DomainError("sweep grid is empty")
        if g.size > 1 and not (np.all(np.diff(g) > 0) or np.all(np.diff(g) < 0)):
            raise DomainError("sweep grid must be strictly monotonic")
        object.__setattr__(self, "grid", g)


@dataclass(frozen=True)
class SweepResult:
    """Rows of (value, transmittance, ce, loss) plus a metadata echo."""

    rows: tuple
    metadata: dict


@dataclass(frozen=True)
class PeakResult:
    value: float
    ce: float
    boundary: bool


@dataclass(frozen=True)
class FigurePreset:
    name: str
    medium: MediumParams
    drive: DriveParams
    detuning: DetuningSet
    kind: str                       # "sweep" or "pulse"
    sweep: Optional[SweepSpec] = None
    pulse: Optional[PulseSpec] = None


def _point_params(s: SweepSpec, value: float):
    m, d, det = s.medium, s.drive, s.detuning
    if s.variable == "omega_d":
        return m, replace(d, omega_d=float(value)), det
    if s.variable == "delta":
        return m, d, replace(det, delta=khz_to_gamma(value, m.gamma_phys))
    if s.variable == "delta_p":
        return m, d, replace(det, delta_p=khz_to_gamma(value, m.gamma_phys))
    return replace(m, alpha=float(value)), d, det


def metadata_echo(m: MediumParams, d: DriveParams, det: DetuningSet) -> dict:
    """Full parameter set in config-file units, insertion-ordered."""
    return {
        "alpha": m.alpha,
        "gamma21": m.gamma21,
        "gamma31": m.gamma31,
        "gamma41": m.gamma41,
        "gamma_phys_mhz": m.gamma_phys / (TWO_PI * 1e6),
        "delta_kL_pi": m.delta_kL / math.pi,
        "omega_c": d.omega_c,
        "omega_d": d.omega_d,
        "omega_p0": abs(d.omega_p0),
        "delta_khz": gamma_to_khz(det.delta, m.gamma_phys),
        "delta_p_khz": gamma_to_khz(det.delta_p, m.gamma_phys),
        "Delta_khz": gamma_to_khz(det.Delta, m.gamma_phys),
    }


def run_sweep(s: SweepSpec) -> SweepResult:
    # each variable's valid values, and the closed form's regime, form an
    # interval and the grid is monotonic, so its two ends stand for every
    # point
    for value in (s.grid[0], s.grid[-1]):
        with located({s.variable: value}):
            m, d, det = _point_params(s, value)
            if s.solver == "closed_form":
                _require_regime(m, d.omega_c, d.omega_d, det.delta_p,
                                det.Delta)
    axis = {s.variable: (khz_to_gamma(s.grid, s.medium.gamma_phys)
                         if s.variable in ("delta", "delta_p") else s.grid)}
    at = {s.variable: s.grid}
    if s.solver == "exact":
        probe, signal = solve_grid(s.medium, s.drive, s.detuning, at, **axis)
    else:
        # in regime, an omega_d or delta_p grid is the point omega_c or 0
        p = {"alpha": s.medium.alpha, "delta": s.detuning.delta, **axis}
        probe, signal = _checked(at, *_amplitudes(
            p["alpha"], s.medium.delta_kL, s.drive.omega_c, p["delta"]))
    t, ce = abs(probe) ** 2, abs(signal) ** 2
    rows = zip(s.grid.tolist(), t.tolist(), ce.tolist(),
               (1.0 - t - ce).tolist())
    meta = metadata_echo(s.medium, s.drive, s.detuning)
    meta["solver"] = s.solver
    meta["variable"] = s.variable
    meta["unit"] = VARIABLE_UNITS[s.variable]
    return SweepResult(rows=tuple(rows), metadata=meta)


def find_peak(r: SweepResult) -> PeakResult:
    """Grid argmax of ce with three-point parabolic refinement.

    Boundary maxima are returned unrefined with the boundary flag set.
    """
    rows = r.rows
    if len(rows) < 3:
        raise DomainError(f"need >= 3 rows to locate a peak, got {len(rows)}")
    ces = [row[2] for row in rows]
    i = max(range(len(ces)), key=ces.__getitem__)
    if i == 0 or i == len(rows) - 1:
        return PeakResult(value=rows[i][0], ce=ces[i], boundary=True)
    x0, x1, x2 = rows[i - 1][0], rows[i][0], rows[i + 1][0]
    y0, y1, y2 = ces[i - 1], ces[i], ces[i + 1]
    num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
    den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    if den == 0.0:                      # flat triple; keep the grid point
        return PeakResult(value=x1, ce=y1, boundary=False)
    xs = x1 - 0.5 * num / den
    # evaluate the interpolating parabola at the vertex
    l0 = (xs - x1) * (xs - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (xs - x0) * (xs - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (xs - x0) * (xs - x1) / ((x2 - x0) * (x2 - x1))
    return PeakResult(value=xs, ce=y0 * l0 + y1 * l1 + y2 * l2,
                      boundary=False)


def bandwidth_fwhm(m: MediumParams, d: DriveParams, det_base: DetuningSet,
                   step: float = BANDWIDTH_STEP,
                   half_range: float = BANDWIDTH_HALF_RANGE) -> float:
    """Conversion bandwidth: FWHM of ce against a probe-frequency scan.

    Shifting the probe frequency by x moves every detuning that contains
    it, so the scan evaluates ce at (delta + x, delta_p + x, Delta + x)
    with the exact solver, on a grid of the given step (Gamma units).
    The FWHM is taken from linear interpolation of the half-maximum
    crossings and returned in MHz.  The base point should sit near the
    conversion maximum.

    Raises ScanRangeError when ce never falls below half maximum inside
    [-half_range, +half_range] (including the degenerate alpha -> 0 case
    where there is no conversion peak at all).
    """
    n = int(round(2.0 * half_range / step))
    xs = np.linspace(-half_range, half_range, n + 1)
    ys = abs(solve_grid(m, d, det_base, {"probe_shift": xs},
                        delta=det_base.delta + xs,
                        delta_p=det_base.delta_p + xs,
                        Delta=det_base.Delta + xs)[1]) ** 2
    peak = float(ys.max())
    if peak <= 0.0:
        raise ScanRangeError("no conversion peak: ce is identically zero")
    half = peak / 2.0
    above = np.nonzero(ys >= half)[0]
    lo, hi = above[0], above[-1]
    if lo == 0 or hi == len(xs) - 1:
        raise ScanRangeError(
            f"ce never falls below half max within +-{half_range} Gamma")

    def crossing(i_out, i_in):
        return xs[i_out] + (half - ys[i_out]) * (xs[i_in] - xs[i_out]) \
            / (ys[i_in] - ys[i_out])

    width = crossing(hi + 1, hi) - crossing(lo - 1, lo)
    return width * m.gamma_phys / (TWO_PI * 1e6)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_DELTA_GRID_KHZ = np.linspace(-200.0, 150.0, 71)        # 5 kHz steps
_OMEGA_D_GRID = np.linspace(0.1, 2.5, 49)               # 0.05 Gamma steps

_MOT = dict(alpha=45.0, gamma21=2e-4, delta_kL=0.447 * math.pi)
_DENSE = dict(alpha=130.0, gamma21=7e-4, delta_kL=0.134 * math.pi)


def figure_preset(name: str) -> FigurePreset:
    """Named scenario bundles (fig2a..fig5c); see the module docstring."""
    pulse_30us = PulseSpec(shape="gaussian", duration=30e-6)
    if name == "fig2a":
        m = MediumParams(**_MOT)
        d = DriveParams(omega_c=0.6, omega_d=0.0)
        return FigurePreset(name, m, d, DetuningSet(), "pulse",
                            pulse=pulse_30us)
    if name == "fig2b":
        m = MediumParams(**_DENSE)
        d = DriveParams(omega_c=1.2, omega_d=0.0)
        return FigurePreset(name, m, d, DetuningSet(), "pulse",
                            pulse=pulse_30us)
    if name in ("fig3a", "fig3b"):
        m = MediumParams(**_MOT)
        d = DriveParams(omega_c=0.6, omega_d=0.6)
        det = DetuningSet(delta=khz_to_gamma(-54.0, m.gamma_phys))
        if name == "fig3a":
            sweep = SweepSpec("omega_d", _OMEGA_D_GRID, m, d, det)
        else:
            sweep = SweepSpec("delta", _DELTA_GRID_KHZ, m, d, det)
        return FigurePreset(name, m, d, det, "sweep", sweep=sweep)
    if name in ("fig4a", "fig4b"):
        m = MediumParams(**_DENSE)
        d = DriveParams(omega_c=1.2, omega_d=1.2)
        det = DetuningSet(delta=khz_to_gamma(-27.0, m.gamma_phys))
        if name == "fig4a":
            sweep = SweepSpec("omega_d", _OMEGA_D_GRID, m, d, det)
        else:
            sweep = SweepSpec("delta", _DELTA_GRID_KHZ, m, d, det)
        return FigurePreset(name, m, d, det, "sweep", sweep=sweep)
    if name in ("fig5a", "fig5b", "fig5c"):
        m = MediumParams(**_DENSE)
        d = DriveParams(omega_c=1.2, omega_d=1.2)
        delta_khz = {"fig5a": -27.0, "fig5b": 93.0, "fig5c": -147.0}[name]
        det = DetuningSet(delta=khz_to_gamma(delta_khz, m.gamma_phys))
        return FigurePreset(name, m, d, det, "pulse", pulse=pulse_30us)
    raise DomainError(f"unknown preset {name!r}")


PRESET_NAMES = ("fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b",
                "fig5a", "fig5b", "fig5c")


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

#: every number the text outputs print: nine significant digits
NUMBER = "%.9g"
SWEEP_COLUMNS = ("value", "transmittance", "ce", "loss")
PULSE_COLUMNS = ("t_us", "probe_in", "probe_out", "signal_out")


def fmt(x: float) -> str:
    return NUMBER % x


def _csv(meta: dict, columns: tuple, rows) -> str:
    row = ",".join([NUMBER] * len(columns))
    lines = [f"# dlambda-fwm v{__version__}"]
    lines += [f"# {k}={fmt(v) if isinstance(v, float) else v}"
              for k, v in meta.items()]
    lines.append(",".join(columns))
    lines += [row % tuple(r) for r in rows]
    return "\n".join(lines) + "\n"


def _object(meta: dict, columns: tuple, rows: list) -> dict:
    return {
        "version": __version__,
        "metadata": dict(meta),
        "columns": list(columns),
        "rows": rows,
    }


def _pulse_rows(trace) -> list:
    return np.column_stack((trace.t * 1e6, trace.probe_in, trace.probe_out,
                            trace.signal_out)).tolist()


def sweep_csv(r: SweepResult) -> str:
    return _csv(r.metadata, SWEEP_COLUMNS, r.rows)


def pulse_csv(trace, meta: dict) -> str:
    return _csv(meta, PULSE_COLUMNS, _pulse_rows(trace))


def sweep_object(r: SweepResult) -> dict:
    """Structured-object mirror of the CSV content."""
    return _object(r.metadata, SWEEP_COLUMNS, [list(row) for row in r.rows])


def pulse_object(trace, meta: dict) -> dict:
    return _object(meta, PULSE_COLUMNS, _pulse_rows(trace))
