"""Parameter sweeps, named scenario presets and every stdout document.

The fig* presets bundle the parameter sets of the standard demonstration
scenarios: fig2a/fig2b are slow-light pulse runs (driving field off) in
the low- and high-density regimes, fig3*/fig4* are steady-state sweeps of
driving strength (a) or two-photon detuning (b) in the same two regimes,
and fig5a/b/c are pulsed conversion runs at three detunings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._version import __version__
from .errors import DomainError, GridError, ScanRangeError
from .params import (DetuningSet, DriveParams, MediumParams, TWO_PI,
                     khz_to_gamma, metadata_echo)
from .steady_numeric import solve_grid, solve_probe_shift
from .dynamics import MAX_N_T, PulseSpec

#: each sweep variable and the unit of its grid: detunings scan in kHz,
#: the rest in their kernel units
SWEEP_VARIABLES = {"omega_d": "Gamma", "delta": "kHz", "delta_p": "kHz",
                   "alpha": "dimensionless"}

#: most points a sweep grid may have: the same work-size cap as a pulse grid
MAX_SWEEP_POINTS = MAX_N_T

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
        if g.ndim != 1:
            raise DomainError(f"sweep grid must be 1-D, got shape {g.shape}")
        if g.size == 0:
            raise DomainError("sweep grid is empty")
        if g.size > MAX_SWEEP_POINTS:
            raise GridError(f"sweep grid has {g.size} points, more than "
                            f"{MAX_SWEEP_POINTS}")
        step = np.diff(g)     # empty for one point, which passes
        if not (np.all(step > 0) or np.all(step < 0)):
            raise DomainError("sweep grid must be strictly monotonic")
        if SWEEP_VARIABLES[self.variable] == "kHz":
            # monotonic, so the ends are the extremes
            for end in (float(g[0]), float(g[-1])):
                if math.isfinite(end) and math.isinf(
                        khz_to_gamma(end, self.medium.gamma_phys)):
                    raise DomainError(
                        f"sweep grid end {self.variable} = {end} kHz "
                        "overflows in Gamma units (gamma_phys = "
                        f"{self.medium.gamma_phys:.6g} rad/s)")
        object.__setattr__(self, "grid", g)


@dataclass(frozen=True)
class SweepResult:
    """A sweep as columns: each grid value and its transmittance, ce and
    loss, float arrays of the grid's length, plus a metadata echo."""

    value: np.ndarray
    transmittance: np.ndarray
    ce: np.ndarray
    loss: np.ndarray
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
    sweep: Optional[SweepSpec] = None
    pulse: Optional[PulseSpec] = None

    @property
    def kind(self) -> str:
        """"sweep" or "pulse": which of the two specs is set."""
        return "pulse" if self.sweep is None else "sweep"

    @property
    def config(self) -> str:
        """This preset as a config document: what `preset` prints and
        what `--preset` parses."""
        return (f"# preset {self.name} (kind: {self.kind})\n"
                + render_values(metadata_echo(self.medium, self.drive,
                                              self.detuning)))


def run_sweep(s: SweepSpec) -> SweepResult:
    unit = SWEEP_VARIABLES[s.variable]
    g = khz_to_gamma(s.grid, s.medium.gamma_phys) if unit == "kHz" else s.grid
    probe, signal = solve_grid(
        s.medium, s.drive, s.detuning, {s.variable: s.grid},
        closed_form=s.solver == "closed_form", **{s.variable: g})
    t, ce = abs(probe) ** 2, abs(signal) ** 2
    meta = metadata_echo(s.medium, s.drive, s.detuning)
    meta["solver"] = s.solver
    meta["variable"] = s.variable
    meta["unit"] = unit
    return SweepResult(s.grid, t, ce, 1.0 - t - ce, meta)


def find_peak(r: SweepResult) -> PeakResult:
    """Grid argmax of ce with three-point parabolic refinement.

    Boundary maxima are returned unrefined with the boundary flag set.  A
    plateau of three or more equal maxima returns its centre and its ce,
    unrefined (the parabola through its first edge would overshoot); one
    that runs into the last row is a boundary maximum there.
    """
    n = len(r.ce)
    if n < 3:
        raise DomainError(f"need >= 3 rows to locate a peak, got {n}")
    i = int(np.argmax(r.ce))            # the first maximum
    if i == 0 or i == n - 1:
        return PeakResult(value=float(r.value[i]), ce=float(r.ce[i]),
                          boundary=True)
    below = np.flatnonzero(r.ce[i:] != r.ce[i])
    j = i + (int(below[0]) if below.size else n - i) - 1   # the run's end
    if j - i >= 2:
        if j == n - 1:
            return PeakResult(value=float(r.value[j]), ce=float(r.ce[j]),
                              boundary=True)
        return PeakResult(value=0.5 * float(r.value[i] + r.value[j]),
                          ce=float(r.ce[i]), boundary=False)
    x0, x1, x2 = r.value[i - 1:i + 2].tolist()
    y0, y1, y2 = r.ce[i - 1:i + 2].tolist()
    num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
    den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    # y1 is the first maximum, so y1 > y0 and den != 0 in exact
    # arithmetic; it is 0 only when it underflows, and a triple that
    # level (subnormal ce steps) keeps its grid point
    if den == 0.0:
        return PeakResult(value=x1, ce=y1, boundary=False)
    xs = x1 - 0.5 * num / den
    # evaluate the interpolating parabola at the vertex
    l0 = (xs - x1) * (xs - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (xs - x0) * (xs - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (xs - x0) * (xs - x1) / ((x2 - x0) * (x2 - x1))
    return PeakResult(value=xs, ce=y0 * l0 + y1 * l1 + y2 * l2,
                      boundary=False)


def bandwidth_fwhm(m: MediumParams, d: DriveParams,
                   det_base: DetuningSet) -> float:
    """Conversion bandwidth: FWHM of ce against a probe-frequency scan.

    The scan evaluates ce at probe shifts x (solve_probe_shift) on a grid
    of step BANDWIDTH_STEP (Gamma units): the conversion spectrum a pulse
    sees, mirrored in omega = -x.  The FWHM is taken from linear
    interpolation of the half-maximum crossings and returned in MHz.  The
    base point should sit near the conversion maximum.

    Raises ScanRangeError when ce never falls below half maximum inside
    +-BANDWIDTH_HALF_RANGE (including the degenerate alpha -> 0 case where
    there is no conversion peak at all).
    """
    h = BANDWIDTH_HALF_RANGE
    xs = np.linspace(-h, h, int(round(2.0 * h / BANDWIDTH_STEP)) + 1)
    ys = abs(solve_probe_shift(m, d, det_base, xs,
                               {"probe_shift": xs})[1]) ** 2
    peak = float(ys.max())
    if peak <= 0.0:
        raise ScanRangeError("no conversion peak: ce is identically zero")
    half = peak / 2.0
    above = np.nonzero(ys >= half)[0]
    lo, hi = above[0], above[-1]
    if lo == 0 or hi == len(xs) - 1:
        raise ScanRangeError(
            f"ce never falls below half max within +-{h} Gamma")

    def crossing(i_out, i_in):
        return xs[i_out] + (half - ys[i_out]) * (xs[i_in] - xs[i_out]) \
            / (ys[i_in] - ys[i_out])

    width = crossing(hi + 1, hi) - crossing(lo - 1, lo)
    return float(width * m.gamma_phys / (TWO_PI * 1e6))


def anchored_bandwidth(s: SweepSpec) -> tuple:
    """(FWHM in MHz, anchor in kHz): bandwidth_fwhm at the peak of the
    delta sweep ``s``, with delta set to find_peak's value on its grid."""
    if s.variable != "delta":
        raise DomainError(f"the bandwidth anchor needs a delta sweep, "
                          f"got {s.variable!r}")
    anchor = find_peak(run_sweep(s)).value
    base = replace(s.detuning, delta=khz_to_gamma(anchor, s.medium.gamma_phys))
    return bandwidth_fwhm(s.medium, s.drive, base), anchor


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

#: the probe pulse of every pulse preset, and of `pulse` without one
GAUSSIAN_30US = PulseSpec(shape="gaussian", duration=30e-6)

_MOT = MediumParams(alpha=45.0, gamma21=2e-4, delta_kL=0.447 * math.pi)
_DENSE = MediumParams(alpha=130.0, gamma21=7e-4, delta_kL=0.134 * math.pi)

#: the grid of each preset sweep variable; read-only, as the presets that
#: hold them are shared
_PRESET_GRIDS = {"delta": np.linspace(-200.0, 150.0, 71),       # 5 kHz steps
                 "omega_d": np.linspace(0.1, 2.5, 49)}          # 0.05 Gamma
for _grid in _PRESET_GRIDS.values():
    _grid.setflags(write=False)


def _preset(name, m, omega_c, omega_d, delta_khz, variable=None):
    """A sweep of ``variable`` over its grid, or a 30 us gaussian pulse."""
    d = DriveParams(omega_c=omega_c, omega_d=omega_d)
    det = DetuningSet(delta=khz_to_gamma(delta_khz, m.gamma_phys))
    if variable is None:
        return FigurePreset(name, m, d, det, pulse=GAUSSIAN_30US)
    return FigurePreset(name, m, d, det, sweep=SweepSpec(
        variable, _PRESET_GRIDS[variable], m, d, det))


#: the named scenario bundles; see the module docstring
PRESETS = {p.name: p for p in (
    _preset("fig2a", _MOT, 0.6, 0.0, 0.0),
    _preset("fig2b", _DENSE, 1.2, 0.0, 0.0),
    _preset("fig3a", _MOT, 0.6, 0.6, -54.0, "omega_d"),
    _preset("fig3b", _MOT, 0.6, 0.6, -54.0, "delta"),
    _preset("fig4a", _DENSE, 1.2, 1.2, -27.0, "omega_d"),
    _preset("fig4b", _DENSE, 1.2, 1.2, -27.0, "delta"),
    _preset("fig5a", _DENSE, 1.2, 1.2, -27.0),
    _preset("fig5b", _DENSE, 1.2, 1.2, 93.0),
    _preset("fig5c", _DENSE, 1.2, 1.2, -147.0),
)}
PRESET_NAMES = tuple(PRESETS)


def figure_preset(name: str) -> FigurePreset:
    """The preset ``name`` of PRESETS."""
    try:
        return PRESETS[name]
    except KeyError:
        raise DomainError(f"unknown preset {name!r}") from None


# ---------------------------------------------------------------------------
# output documents: every stdout document, in both --formats
# ---------------------------------------------------------------------------

#: every number the text outputs print: nine significant digits
NUMBER = "%.9g"
SWEEP_COLUMNS = ("value", "transmittance", "ce", "loss")
PULSE_COLUMNS = ("t_us", "probe_in", "probe_out", "signal_out")


def fmt(x: float) -> str:
    return NUMBER % x


def render_values(values: dict, format: str = "csv") -> str:
    """One ``key = value`` line per item or, in json-like format, the JSON
    object of ``values``."""
    if format == "json-like":
        return json.dumps(values, indent=2) + "\n"
    return "".join(f"{k} = {fmt(v)}\n" for k, v in values.items())


#: rows per CSV block: the text of one block, not of the whole document,
#: is what a long grid holds in memory at a time
CSV_BLOCK_ROWS = 1 << 15


def _render_dataset(meta: dict, columns: tuple, data: tuple, format: str):
    """A dataset, given as a tuple of equal-length float arrays, one per
    name in ``columns``, as CSV under its metadata comments or as a JSON
    object; rows exist only in the output.  Yields the document in blocks
    of UTF-8 bytes: the CSV header, then CSV_BLOCK_ROWS rows at a time (the
    JSON object is one block).  Bytes ``%`` formats a float as str ``%``
    does, digit for digit."""
    if format == "json-like":
        yield render_values({"version": __version__, "metadata": meta,
                             "columns": list(columns),
                             "rows": np.column_stack(data).tolist()},
                            format).encode()
        return
    lines = [f"# dlambda-fwm v{__version__}"]
    lines += [f"# {k}={fmt(v) if isinstance(v, float) else v}"
              for k, v in meta.items()]
    lines.append(",".join(columns))
    yield ("\n".join(lines) + "\n").encode()
    row = ",".join([NUMBER] * len(columns)).encode() + b"\n"
    for i in range(0, len(data[0]), CSV_BLOCK_ROWS):
        block = np.column_stack([c[i:i + CSV_BLOCK_ROWS] for c in data])
        yield row * len(block) % tuple(block.ravel().tolist())


def sweep_blocks(r: SweepResult, format: str = "csv"):
    """The sweep ``r`` as a dataset document, csv or json-like, in the
    blocks of bytes _render_dataset yields."""
    return _render_dataset(r.metadata, SWEEP_COLUMNS,
                           (r.value, r.transmittance, r.ce, r.loss), format)


def pulse_blocks(trace, meta: dict, format: str = "csv"):
    """The pulse ``trace`` under ``meta`` as a dataset document, csv or
    json-like, in the blocks of bytes _render_dataset yields."""
    return _render_dataset(meta, PULSE_COLUMNS,
                           (trace.t * 1e6, trace.probe_in, trace.probe_out,
                            trace.signal_out), format)


def sweep_csv(r: SweepResult, format: str = "csv") -> str:
    """The sweep ``r`` as one dataset document, csv or json-like."""
    return b"".join(sweep_blocks(r, format)).decode()


def pulse_csv(trace, meta: dict, format: str = "csv") -> str:
    """The pulse ``trace`` under ``meta`` as one dataset document, csv or
    json-like."""
    return b"".join(pulse_blocks(trace, meta, format)).decode()
