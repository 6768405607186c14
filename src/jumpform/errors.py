"""Exception types shared across the package, the rank of a row's errors
(first_errors), and attempt/unwrap, which keep an error in its point's place."""

import numpy as np


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


def nan_valued(exc) -> bool:
    """True when the error's ``value`` is all NaN: a NaN sum or kernel value, which may be
    rounding (k_a = inf - inf, or 0 inf where x + z == x) or a kernel undefined there."""
    return bool(np.all(np.isnan(getattr(exc, "value", 0.0))))


def first_errors(*errors) -> dict:
    """Each row's first error among the dicts (row -> error) ``errors``, a NaN-valued one
    giving way to a later one that is not: a negative kernel value outranks a NaN one."""
    out: dict = {}
    for errs in errors:
        for row, exc in errs.items():
            out[row] = min(out.get(row, exc), exc, key=nan_valued)
    return out


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
