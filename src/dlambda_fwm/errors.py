"""Exception types shared across the package.

Everything raised on purpose derives from FwmError so callers can catch
one base class at the CLI boundary and map it to an exit code.
"""

from contextlib import contextmanager


class FwmError(Exception):
    """Base class for all errors raised by dlambda_fwm."""


class ConfigError(FwmError):
    """Bad configuration document: unknown/missing key, malformed value."""


class DomainError(FwmError):
    """Argument outside the mathematical domain of an operation."""


class RegimeError(FwmError):
    """Operation called outside its physical validity regime."""


class BoundarySolveError(FwmError):
    """Two-point boundary solve is singular (perfect-reflection resonance)."""


class GridError(FwmError):
    """Time/space grid violates a resolution or coverage precondition."""


class ScanRangeError(FwmError):
    """A scan never reached the feature it was asked to measure."""


@contextmanager
def located(at: dict):
    """Re-raise an FwmError from the block as the same type, its message
    prefixed with ``at name=value, ...:`` (one pair per item of ``at``) to
    name the grid point it came from; an empty ``at`` adds no prefix."""
    try:
        yield
    except FwmError as exc:
        if not at:
            raise
        where = ", ".join(f"{name}={value:g}" for name, value in at.items())
        raise type(exc)(f"at {where}: {exc}") from exc
