"""Domain types, unit conversions and configuration parsing.

All rates and detunings inside the package are expressed in units of the
optical-coherence decay rate Gamma (gamma31 = gamma41 = 1 by default,
Gamma = 2*pi*6 MHz physically).  Physical units appear only at the I/O
boundary: config files take detunings as kHz (of delta/2pi) and Gamma
as MHz, the converters below bridge the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Real

from .errors import ConfigError, DomainError

TWO_PI = 2.0 * math.pi

#: default physical Gamma, angular frequency (rad/s): 2*pi * 6 MHz
GAMMA_PHYS_DEFAULT = TWO_PI * 6.0e6

PASSIVITY_SLACK = 1e-9


def _echo(value, show) -> str:
    """show(value) for an error message, or a note in its place where value
    is or holds an int with more digits than str() may convert."""
    try:
        return show(value)
    except ValueError:
        return "a value too long to print"


def _require_real(name: str, v) -> None:
    """DomainError, its message starting with ``name``, unless v is a real
    number that float arithmetic takes."""
    if not isinstance(v, Real):
        raise DomainError(f"{name} must be a real number, got "
                          f"{_echo(v, repr)}")
    try:
        float(v)
    except OverflowError:       # an int or Fraction beyond the float range
        raise DomainError(f"{name} = {_echo(v, str)} is beyond the float "
                          "range") from None


def _require_finite(obj, names) -> None:
    for name in names:
        v = getattr(obj, name)
        _require_real(name, v)
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class MediumParams:
    """Static properties of the atomic medium.

    Parameters
    ----------
    alpha : float
        Optical depth (dimensionless), equal for probe and signal
        transitions.
    gamma21 : float
        Ground-state dephasing rate, units of Gamma.
    gamma31, gamma41 : float
        Optical coherence decay rates, units of Gamma.  Both default to 1,
        i.e. equal to Gamma itself.
    delta_kL : float
        Phase-mismatch product Delta_k * L in radians.  Delta_k and L never
        enter separately, so only the product is stored.
    gamma_phys : float
        Physical value of Gamma as an angular frequency (rad/s), used only
        for unit conversion.
    """

    alpha: float
    gamma21: float = 0.0
    gamma31: float = 1.0
    gamma41: float = 1.0
    delta_kL: float = 0.0
    gamma_phys: float = GAMMA_PHYS_DEFAULT

    def __post_init__(self):
        _require_finite(self, ("alpha", "gamma21", "gamma31", "gamma41",
                               "delta_kL", "gamma_phys"))
        if not (self.alpha >= 0.0):
            raise DomainError(f"alpha must be >= 0, got {self.alpha}")
        if not (self.gamma21 >= 0.0):
            raise DomainError(f"gamma21 must be >= 0, got {self.gamma21}")
        if not (self.gamma31 > 0.0):
            raise DomainError(f"gamma31 must be > 0, got {self.gamma31}")
        if not (self.gamma41 > 0.0):
            raise DomainError(f"gamma41 must be > 0, got {self.gamma41}")
        # the kernels divide by gamma/2 - i*detuning, 0 at resonance
        for name in ("gamma31", "gamma41"):
            if getattr(self, name) / 2.0 == 0.0:
                raise DomainError(f"{name} = {getattr(self, name)} is too "
                                  "small: its half underflows to 0")
        if not (self.gamma_phys > 0.0):
            raise DomainError(f"gamma_phys must be > 0, got {self.gamma_phys}")


@dataclass(frozen=True)
class DriveParams:
    """Classical drive amplitudes (Rabi frequencies, Gamma units).

    omega_c and omega_d are real non-negative.  omega_c = omega_d = 0 is a
    valid input and describes a bare two-level absorber.  The model is
    linear in the weak probe, so no probe amplitude is a parameter: every
    output is per unit input.
    """

    omega_c: float
    omega_d: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("omega_c", "omega_d"))
        if not (self.omega_c >= 0.0):
            raise DomainError(f"omega_c must be >= 0, got {self.omega_c}")
        if not (self.omega_d >= 0.0):
            raise DomainError(f"omega_d must be >= 0, got {self.omega_d}")


@dataclass(frozen=True)
class DetuningSet:
    """Two-photon (delta), one-photon (delta_p) and three-photon (Delta)
    detunings, Gamma units.  Sign convention: delta = (w_p - w_c) - w21."""

    delta: float = 0.0
    delta_p: float = 0.0
    Delta: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("delta", "delta_p", "Delta"))


@dataclass(frozen=True)
class SteadyResult:
    """Steady-state field amplitudes at the medium boundaries.

    probe_out is the transmitted-probe amplitude ratio Omega_p(L)/Omega_p0,
    signal_out the generated backward-signal amplitude in photon-number
    units, sqrt(gamma31/gamma41) * Omega_s(0)/Omega_p0: at equal optical
    depth the two dipoles differ by that factor, and it is 1 when
    gamma31 = gamma41.  Photon-number ratios (transmittance, ce) and the
    remainder (loss) follow.
    """

    probe_out: complex
    signal_out: complex
    transmittance: float = field(init=False)
    ce: float = field(init=False)
    loss: float = field(init=False)

    def __init__(self, probe_out: complex, signal_out: complex):
        # written out, not generated, to store the five fields in one
        # step (@dataclass keeps an __init__ the class defines)
        try:
            t = abs(probe_out) ** 2
            c = abs(signal_out) ** 2
        except OverflowError:
            t = c = math.nan
        self.__dict__.update(probe_out=probe_out, signal_out=signal_out,
                             transmittance=t, ce=c, loss=1.0 - t - c)
        # one test on the fast path: T + CE <= 1 fails for a NaN or
        # infinite amplitude too, and _refuse names what went wrong
        if not t + c <= 1.0 + PASSIVITY_SLACK:
            self._refuse(t, c)

    def _refuse(self, t: float, c: float):
        for name in ("probe_out", "signal_out"):
            v = getattr(self, name)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise DomainError(f"{name} must be finite, got {v}")
        if math.isnan(t):   # finite amplitudes, but a square overflowed
            raise DomainError(
                f"passivity violated: T + CE overflows (probe_out="
                f"{self.probe_out:.6g}, signal_out={self.signal_out:.6g})")
        raise DomainError(
            f"passivity violated: T + CE = {t + c:.12g} > 1 "
            f"(T={t:.6g}, CE={c:.6g})")


def replace_params(bundle: tuple, **values) -> tuple:
    """(m, d, det) with each field of ``values`` set in whichever of the
    three owns it, one replace, through its invariants, per dataclass that
    owns any (a name none owns is a TypeError)."""
    parts, left = [], dict(values)
    for part in bundle:
        own = {k: left.pop(k) for k in part.__dataclass_fields__ if k in left}
        parts.append(replace(part, **own) if own else part)
    if left:
        raise TypeError(f"no parameter named {next(iter(left))!r}")
    return tuple(parts)


def khz_to_gamma(f_khz: float, gamma_phys: float = GAMMA_PHYS_DEFAULT) -> float:
    """Convert a detuning given as delta/2pi in kHz to Gamma units."""
    return TWO_PI * f_khz * 1e3 / gamma_phys


def gamma_to_khz(x: float, gamma_phys: float = GAMMA_PHYS_DEFAULT) -> float:
    """Inverse of khz_to_gamma."""
    return x * gamma_phys / (TWO_PI * 1e3)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

#: each key of the flat config dialect, in dump order, and the dataclass
#: field it sets
_FIELD_OF_KEY = {
    "alpha": "alpha", "gamma21": "gamma21", "gamma31": "gamma31",
    "gamma41": "gamma41", "gamma_phys_mhz": "gamma_phys",
    "delta_kL_pi": "delta_kL", "omega_c": "omega_c", "omega_d": "omega_d",
    "delta_khz": "delta", "delta_p_khz": "delta_p", "Delta_khz": "Delta",
}
_KEY_OF_FIELD = {f: k for k, f in _FIELD_OF_KEY.items()}

#: every key the flat config dialect accepts
CONFIG_KEYS = tuple(_FIELD_OF_KEY)

REQUIRED_KEYS = ("alpha", "omega_c")


def _entry(key: str, val) -> tuple:
    """(key, float(val)): the one key-and-number rule of config lines,
    --set items and parse_config's overrides.  ConfigError on an unknown
    key or a value float() refuses."""
    if key not in CONFIG_KEYS:
        raise ConfigError(
            f"unknown key '{key}' (known: {', '.join(CONFIG_KEYS)})")
    try:
        return key, float(val)
    except (TypeError, ValueError, OverflowError):
        shown = val.strip() if isinstance(val, str) else val
        raise ConfigError(f"malformed number for key '{key}': "
                          f"{_echo(shown, repr)}") from None


def parse_pair(item: str) -> tuple:
    """(key, float) of one ``key = value`` config line or CLI --set item;
    ConfigError on a missing '=', an unknown key or a malformed number."""
    key, sep, val = item.partition("=")
    if not sep:
        raise ConfigError(f"expected 'key = value', got {item!r}")
    return _entry(key.strip(), val)


def parse_config(text: str, overrides: dict | None = None) -> tuple:
    """Parse a config document into (MediumParams, DriveParams, DetuningSet).

    Dialect: one ``key = value`` pair per line (parse_pair); ``#`` starts
    a comment (full-line or trailing); blank lines are ignored; keys are
    case-sensitive and must come from CONFIG_KEYS; values are decimal
    numbers.  Duplicate keys: last one wins, and ``overrides`` ({key:
    number}) win over the document; each goes through the same key and
    number rule as a line.  Required keys: alpha, omega_c; a missing key
    takes its dataclass field's default.

    Raises
    ------
    ConfigError
        On an unknown key, a malformed line or number (naming the 1-based
        line; an override that float() refuses, such as "abc", None,
        1+2j or 10**400, is a malformed number with no line), a missing
        required key, or a value that breaks an invariant (naming the key
        and, unless an override set it, the line of the value that took
        effect).
    """
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, val = parse_pair(line)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        values[key], lines[key] = val, lineno
    for key, val in (overrides or {}).items():
        key, val = _entry(key, val)
        values[key] = val
        lines.pop(key, None)
    missing = [k for k in REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError("missing required key(s): " + ", ".join(missing))

    def invalid(key, msg):
        at = f" (key '{key}' set on line {lines[key]})" if key in lines else ""
        return ConfigError(msg + at)

    gamma_phys = GAMMA_PHYS_DEFAULT
    if "gamma_phys_mhz" in values:
        mhz = values["gamma_phys_mhz"]
        gamma_phys = TWO_PI * mhz * 1e6
        if not (math.isfinite(gamma_phys) and gamma_phys > 0.0):
            raise invalid("gamma_phys_mhz", "gamma_phys_mhz must be finite "
                          f"and > 0, got {mhz}")
    fields = {}
    for key, v in values.items():
        if key == "delta_kL_pi":
            v = v * math.pi
        elif key.endswith("_khz"):
            khz, v = v, khz_to_gamma(v, gamma_phys)
            # finite at the default Gamma, so the small Gamma overflowed it
            if math.isfinite(khz_to_gamma(khz)) and not math.isfinite(v):
                raise invalid("gamma_phys_mhz", "gamma_phys_mhz = "
                              f"{values['gamma_phys_mhz']} is too small: "
                              f"{key} = {khz} overflows in Gamma units")
        fields[_FIELD_OF_KEY[key]] = v
    fields["gamma_phys"] = gamma_phys
    try:
        return tuple(cls(**{f: fields[f] for f in cls.__dataclass_fields__
                            if f in fields})
                     for cls in (MediumParams, DriveParams, DetuningSet))
    except DomainError as exc:
        # an invariant message starts with the field it names
        msg = str(exc)
        raise invalid(_KEY_OF_FIELD[msg.partition(" ")[0]], msg) from None


def metadata_echo(m: MediumParams, d: DriveParams, det: DetuningSet) -> dict:
    """Full parameter set in config-file units, insertion-ordered as
    CONFIG_KEYS: the inverse of parse_config."""
    return {
        "alpha": m.alpha,
        "gamma21": m.gamma21,
        "gamma31": m.gamma31,
        "gamma41": m.gamma41,
        "gamma_phys_mhz": m.gamma_phys / (TWO_PI * 1e6),
        "delta_kL_pi": m.delta_kL / math.pi,
        "omega_c": d.omega_c,
        "omega_d": d.omega_d,
        "delta_khz": gamma_to_khz(det.delta, m.gamma_phys),
        "delta_p_khz": gamma_to_khz(det.delta_p, m.gamma_phys),
        "Delta_khz": gamma_to_khz(det.Delta, m.gamma_phys),
    }
