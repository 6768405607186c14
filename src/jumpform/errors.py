"""Exception types shared across the package, and the pair of helpers
(attempt, unwrap) that keeps an error in a point's place in a block."""


class JumpformError(Exception):
    """Base class for all errors raised by this package."""


class NegativeKernel(JumpformError):
    """A kernel evaluation produced a negative or NaN value (``value``) at some pair (x, y)."""


class DomainError(JumpformError):
    """An input lies outside the admissible domain (dimension, exponent range, region)."""


class QuadratureOverflow(JumpformError):
    """A quadrature contribution (``value``, an array) exceeded the configured magnitude cap."""


class NoConvergence(JumpformError):
    """An adaptive refinement loop stalled before reaching the requested tolerance."""


class UnresolvedKilling(JumpformError):
    """The killing-term partial integrals did not settle at a point where they are needed."""


class ConfigError(JumpformError):
    """A run configuration is structurally or semantically invalid."""


class IOFailure(JumpformError):
    """Reading or writing a configuration or report file failed."""


def attempt(fn):
    """fn(), or the error it raises, kept to be raised again by unwrap."""
    try:
        return fn()
    except Exception as exc:
        return exc


def unwrap(entry):
    """A point's entry of a block result: its value, or the error it met, raised."""
    if isinstance(entry, Exception):
        raise entry
    return entry
