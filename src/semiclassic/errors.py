"""Exception hierarchy shared by every module.

Each error carries a short machine-parsable ``code``; the CLI prints it as a
one-line prefix and maps the class to an exit status (config 2, regime 3,
anything else 4).
"""

from __future__ import annotations


class SemiclassicError(Exception):
    """Base class for all errors raised by this package."""

    code = "E_FAIL"
    exit_code = 4


class ConfigError(SemiclassicError):
    """Malformed or inconsistent run configuration."""

    code = "E_CONFIG"
    exit_code = 2


class RegimeError(SemiclassicError):
    """A method was invoked outside the physical regime it is valid in."""

    code = "E_REGIME"
    exit_code = 3


class NoBarrierError(RegimeError):
    """Barrier machinery called on a problem without a tunneling barrier."""

    code = "E_NO_BARRIER"


class ChannelClosedError(RegimeError):
    """Scattering channel closed: E does not exceed the edge potential."""

    code = "E_CHANNEL_CLOSED"


class SpectrumError(RegimeError):
    """Bound-state solver applied to a non-confining potential."""

    code = "E_SPECTRUM"


class DomainError(SemiclassicError):
    """Argument outside the mathematical domain of an operation."""

    code = "E_DOMAIN"


class RegionError(SemiclassicError):
    """Integration path crosses a classical turning point."""

    code = "E_REGION"


class TurningPointProximityError(SemiclassicError):
    """Evaluation point lies inside a turning-point exclusion zone."""

    code = "E_PROXIMITY"


class LinearizationError(SemiclassicError):
    """Point outside the radius where a linearized potential is trustworthy."""

    code = "E_LINEARIZATION"


class MultiWellError(SemiclassicError):
    """More than two classical turning points: topology not supported."""

    code = "E_MULTIWELL"


class BracketError(SemiclassicError):
    """Root bracket does not enclose a sign change."""

    code = "E_BRACKET"


class RangeError(SemiclassicError):
    """Argument outside the range where an evaluation routine is accurate or
    validated."""

    code = "E_RANGE"


class MatchingError(SemiclassicError):
    """Asymptotic matching failed (potential not flat at the domain edges)."""

    code = "E_MATCHING"


class NumericalError(SemiclassicError):
    """A numerical consistency check failed."""

    code = "E_NUMERIC"
