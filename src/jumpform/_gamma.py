"""Vectorised gamma function.

Lanczos approximation with g = 7 and the classic 9-term coefficient table,
accurate to about 1e-13 relative error on the real line away from the poles.
No part of the package calls it: kernel weights are a fixed polynomial
(``kernels.weight_w``).  It stays for its tests and for the name
``kernels.gamma`` that the benchmark's tracer (bench/tracing.py) patches.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_G = 7.0
_COEF = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)
_SQRT_TWO_PI = np.sqrt(2.0 * np.pi)


def _gamma_shifted(z):
    """Lanczos core, valid for z >= 0.5 (vectorised)."""
    zm1 = z - 1.0
    x = np.full_like(zm1, _COEF[0])
    term = np.empty_like(zm1)
    for i in range(1, len(_COEF)):
        np.add(zm1, i, out=term)
        np.divide(_COEF[i], term, out=term)
        x += term
    t = zm1 + _G + 0.5
    return _SQRT_TWO_PI * t ** (zm1 + 0.5) * np.exp(-t) * x


def gamma(z):
    """Gamma(z) for real arguments, elementwise over arrays.

    Uses the reflection formula for z < 0.5.  Raises DomainError at the
    poles (z = 0, -1, -2, ...).
    """
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)

    is_pole = (arr <= 0.0) & (arr == np.floor(arr))
    if np.any(is_pole):
        raise DomainError(f"gamma evaluated at a pole: z={arr[is_pole][0]!r}")

    hi = arr >= 0.5
    if np.all(hi):
        out = _gamma_shifted(arr)
        return float(out[0]) if scalar else out
    out = np.empty_like(arr)
    if np.any(hi):
        out[hi] = _gamma_shifted(arr[hi])
    lo = ~hi
    if np.any(lo):
        zl = arr[lo]
        # Gamma(z) = pi / (sin(pi z) * Gamma(1 - z)), and 1 - z >= 0.5 here.
        out[lo] = np.pi / (np.sin(np.pi * zl) * _gamma_shifted(1.0 - zl))

    return float(out[0]) if scalar else out
