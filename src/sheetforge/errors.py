"""Exception taxonomy.

Every error raised deliberately by this package derives from SheetForgeError,
so callers (and the CLI) can distinguish domain failures from genuine bugs.
"""

__all__ = [
    "SheetForgeError",
    "OutOfRange",
    "DegenerateAngle",
    "QuadratureFailure",
    "ProfileViolation",
    "InsufficientReplicates",
    "ConfigError",
]


class SheetForgeError(Exception):
    """Base class for all sheetforge domain errors."""


class OutOfRange(SheetForgeError, ValueError):
    """A numeric parameter is outside its documented domain."""


class DegenerateAngle(SheetForgeError, ValueError):
    """The Levy exponent real part vanishes at the requested angle (or one of
    its first m multiples), so the wave-kernel constants are undefined."""


class QuadratureFailure(SheetForgeError, ArithmeticError):
    """A quadrature routine could not meet its error target. Reported, never
    silently degraded."""


class ProfileViolation(SheetForgeError):
    """A kernel failed its declared squared-increment growth profile."""

    def __init__(self, message, pair=None, value=None, bound=None):
        super().__init__(message)
        self.pair = pair
        self.value = value
        self.bound = bound


class InsufficientReplicates(SheetForgeError, ValueError):
    """Too few Monte Carlo replicates for the requested estimator."""


class ConfigError(SheetForgeError, ValueError):
    """An experiment configuration is malformed or has unknown fields."""
