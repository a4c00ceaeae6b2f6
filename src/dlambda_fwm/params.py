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

from .errors import ConfigError, DomainError

TWO_PI = 2.0 * math.pi

#: default physical Gamma, angular frequency (rad/s): 2*pi * 6 MHz
GAMMA_PHYS_DEFAULT = TWO_PI * 6.0e6

PASSIVITY_SLACK = 1e-9


def _require_finite(obj, names) -> None:
    for name in names:
        v = getattr(obj, name)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
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
        if not (self.gamma_phys > 0.0):
            raise DomainError(f"gamma_phys must be > 0, got {self.gamma_phys}")


@dataclass(frozen=True)
class DriveParams:
    """Classical field amplitudes (Rabi frequencies, Gamma units).

    omega_c and omega_d are real non-negative; omega_p0 is the complex
    input probe amplitude.  omega_c = omega_d = 0 is a valid input and
    describes a bare two-level absorber.
    """

    omega_c: float
    omega_d: float = 0.0
    omega_p0: complex = 1.0 + 0.0j

    def __post_init__(self):
        _require_finite(self, ("omega_c", "omega_d", "omega_p0"))
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
    signal_out the generated backward-signal ratio Omega_s(0)/Omega_p0.
    Intensity ratios (transmittance, ce) and the remainder (loss) follow.
    """

    probe_out: complex
    signal_out: complex
    transmittance: float = field(init=False)
    ce: float = field(init=False)
    loss: float = field(init=False)

    def __post_init__(self):
        _require_finite(self, ("probe_out", "signal_out"))
        try:
            t = abs(self.probe_out) ** 2
            c = abs(self.signal_out) ** 2
        except OverflowError:
            raise DomainError(
                f"passivity violated: T + CE overflows (probe_out="
                f"{self.probe_out:.6g}, signal_out={self.signal_out:.6g})"
            ) from None
        object.__setattr__(self, "transmittance", t)
        object.__setattr__(self, "ce", c)
        object.__setattr__(self, "loss", 1.0 - t - c)
        if t + c > 1.0 + PASSIVITY_SLACK:
            raise DomainError(
                f"passivity violated: T + CE = {t + c:.12g} > 1 "
                f"(T={t:.6g}, CE={c:.6g})")


def replace_param(bundle: tuple, name: str, value) -> tuple:
    """(m, d, det) with field ``name`` set to ``value`` in whichever of the
    three owns it, through that dataclass's invariants (else TypeError)."""
    for i, part in enumerate(bundle):
        if name in part.__dataclass_fields__:
            return (*bundle[:i], replace(part, **{name: value}),
                    *bundle[i + 1:])
    raise TypeError(f"no parameter named {name!r}")


def khz_to_gamma(f_khz: float, gamma_phys: float = GAMMA_PHYS_DEFAULT) -> float:
    """Convert a detuning given as delta/2pi in kHz to Gamma units."""
    return TWO_PI * f_khz * 1e3 / gamma_phys


def gamma_to_khz(x: float, gamma_phys: float = GAMMA_PHYS_DEFAULT) -> float:
    """Inverse of khz_to_gamma."""
    return x * gamma_phys / (TWO_PI * 1e3)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

#: every key the flat config dialect accepts
CONFIG_KEYS = (
    "alpha", "gamma21", "gamma31", "gamma41", "gamma_phys_mhz",
    "delta_kL_pi", "omega_c", "omega_d", "omega_p0",
    "delta_khz", "delta_p_khz", "Delta_khz",
)

REQUIRED_KEYS = ("alpha", "omega_c")

#: the config keys stored under another field name; every other key is
#: its own field's name
_KEY_OF_FIELD = {"gamma_phys": "gamma_phys_mhz", "delta_kL": "delta_kL_pi",
                 "delta": "delta_khz", "delta_p": "delta_p_khz",
                 "Delta": "Delta_khz"}

_DEFAULTS = {
    "gamma21": 0.0,
    "gamma31": 1.0,
    "gamma41": 1.0,
    "gamma_phys_mhz": 6.0,
    "delta_kL_pi": 0.0,
    "omega_d": 0.0,
    "omega_p0": 1.0,
    "delta_khz": 0.0,
    "delta_p_khz": 0.0,
    "Delta_khz": 0.0,
}


def parse_config_pairs(text: str) -> dict:
    """Parse the raw ``key = value`` document into a {key: float} dict.

    Dialect: one ``key = value`` pair per line; ``#`` starts a comment
    (full-line or trailing); blank lines are ignored; keys are
    case-sensitive and must come from CONFIG_KEYS; values are decimal
    numbers.  Duplicate keys: last one wins.

    Raises
    ------
    ConfigError
        On an unknown key, a malformed line or a malformed number; the
        message names the key and the 1-based line number.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        try:
            out[key] = float(val)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: malformed number for key '{key}': {val!r}") from None
    return out


def bundle_from_pairs(pairs: dict) -> tuple:
    """Build the (MediumParams, DriveParams, DetuningSet) bundle from a
    key/value dict, applying defaults and enforcing invariants."""
    missing = [k for k in REQUIRED_KEYS if k not in pairs]
    if missing:
        raise ConfigError("missing required key(s): " + ", ".join(missing))
    for k in pairs:
        if k not in CONFIG_KEYS:
            raise ConfigError(f"unknown key '{k}'")
    get = lambda k: pairs.get(k, _DEFAULTS.get(k))
    gamma_phys = TWO_PI * get("gamma_phys_mhz") * 1e6
    if not gamma_phys > 0:
        raise ConfigError(
            f"gamma_phys_mhz must be > 0, got {get('gamma_phys_mhz')}")
    try:
        medium = MediumParams(
            alpha=get("alpha"),
            gamma21=get("gamma21"),
            gamma31=get("gamma31"),
            gamma41=get("gamma41"),
            delta_kL=get("delta_kL_pi") * math.pi,
            gamma_phys=gamma_phys,
        )
        drive = DriveParams(
            omega_c=get("omega_c"),
            omega_d=get("omega_d"),
            omega_p0=complex(get("omega_p0")),
        )
        det = DetuningSet(
            delta=khz_to_gamma(get("delta_khz"), gamma_phys),
            delta_p=khz_to_gamma(get("delta_p_khz"), gamma_phys),
            Delta=khz_to_gamma(get("Delta_khz"), gamma_phys),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return medium, drive, det


def parse_config(text: str) -> tuple:
    """Parse a config document into (MediumParams, DriveParams, DetuningSet).

    See parse_config_pairs for the dialect and CONFIG_KEYS for the key set.
    Required keys: alpha, omega_c.  Everything else has a default
    (gamma21=0, gamma31=gamma41=1, Gamma/2pi = 6 MHz, all detunings 0,
    omega_d=0, omega_p0=1).
    """
    pairs = parse_config_pairs(text)
    try:
        return bundle_from_pairs(pairs)
    except ConfigError as exc:
        # an invariant message starts with the field it names; attach the
        # last line that sets that field's key, the one that took effect
        msg = str(exc)
        field = msg.partition(" ")[0]
        key = _KEY_OF_FIELD.get(field, field)
        lines = [lineno for lineno, raw in enumerate(text.splitlines(), 1)
                 if raw.split("#", 1)[0].partition("=")[0].strip() == key]
        if not lines:
            raise
        raise ConfigError(f"{msg} (key '{key}' set on line {lines[-1]})") \
            from None
