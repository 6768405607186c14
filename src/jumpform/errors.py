"""Exception types shared across the package."""


class JumpformError(Exception):
    """Base class for all errors raised by this package."""


class NegativeKernel(JumpformError):
    """A kernel evaluation produced a negative value at some pair (x, y)."""


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
