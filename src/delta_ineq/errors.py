"""Exception taxonomy for the delta-ineq engine.

Every error raised on purpose by this package derives from DeltaIneqError so
callers (notably the CLI) can map library failures to a single exit path.
"""


class DeltaIneqError(Exception):
    """Base class for all errors raised by delta_ineq."""


class NotInScale(DeltaIneqError):
    """A point is not a member of the time scale (within tolerance)."""


class ContinuousScale(DeltaIneqError):
    """A discrete-only operation was invoked on a real interval."""


class EmptyRange(DeltaIneqError):
    """An enumeration range [a, b) with a >= b was requested."""


class MissingSample(DeltaIneqError):
    """A sampled function has no value at the requested point."""


class DensePointSampledFunc(DeltaIneqError):
    """Delta derivative of a sampled function needs mu(t) > 0."""


class NotDifferentiable(DeltaIneqError):
    """The point lies outside the differentiability region T^kappa."""


class OutOfRange(DeltaIneqError):
    """Kernel evaluation outside [a, b)."""


class InvalidBounds(DeltaIneqError):
    """Supplied derivative bounds (gamma, Gamma) do not bracket f-delta."""


class NegativeVariance(DeltaIneqError):
    """A variance came out below the negative round-off clamp."""


class FamilyMismatch(DeltaIneqError):
    """Closed-form evaluation asked for on the wrong scale family."""


class UnsupportedTheorem(DeltaIneqError):
    """Sharpness search invoked for a theorem/scale it does not cover."""


class ConfigError(DeltaIneqError):
    """Invalid configuration: bad construction arguments, config file, or CLI flags."""
