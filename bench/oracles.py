"""Reference values computed apart from jumpform's quadrature engine.

Each oracle integrates the kernel formula itself on a fine logarithmic grid
in the radius (trapezoid rule in t = log r), the brute-force construction of
the acceptance battery's sector-ratio oracle.  They share no code path with
the annulus schemes they check.
"""

from __future__ import annotations

import math

import numpy as np

# log-radius grid: r from e^-25 to e^22, far past where the tails matter
_T = np.linspace(-25.0, 22.0, 90001)
_R = np.exp(_T)


def weight(alpha, n: int):
    """w(alpha) = alpha 2^(alpha-1) Gamma((alpha+n)/2) / (pi^(n/2) Gamma(1-alpha/2)), by math.gamma."""
    a = np.asarray(alpha, dtype=float)
    g = np.vectorize(math.gamma)
    return a * 2.0 ** (a - 1.0) * g((a + n) / 2.0) / (math.pi ** (n / 2.0) * g(1.0 - a / 2.0))


def constant_jump_mass(alpha: float, n: int) -> float:
    """Integral of (1 ^ |z|^2) w(alpha) |z|^(-n-alpha) dz = w sigma (1/(2-alpha) + 1/alpha)."""
    sigma = 2.0 if n == 1 else 2.0 * math.pi
    return float(weight(alpha, n)) * sigma * (1.0 / (2.0 - alpha) + 1.0 / alpha)


def _radial_1d(k_fn, x: float, integrand):
    """Sum over both directions of the log-grid integral of integrand(k(x,x+z), k(x+z,x), r)."""
    total = 0.0
    for sgn in (1.0, -1.0):
        y = x + sgn * _R
        kd = k_fn(np.full_like(y, x), y)
        kt = k_fn(y, np.full_like(y, x))
        total += np.trapezoid(integrand(kd, kt, _R) * _R, _T)
    return float(total)


def stable_1d(alpha_fn):
    """The 1D stable-like kernel formula k(x, y) = w(alpha(x)) |x-y|^(-1-alpha(x))."""

    def k(x, y):
        a = alpha_fn(x)
        return weight(a, 1) * np.abs(x - y) ** (-1.0 - a)

    return k


def sector_ratio_1d(k_fn, x: float) -> float:
    """h(x) = integral of k_a^2 / k_s over z != 0."""

    def f(kd, kt, r):
        ks, ka = 0.5 * (kd + kt), 0.5 * (kd - kt)
        out = np.zeros_like(ks)
        np.divide(ka * ka, ks, out=out, where=ks != 0.0)
        return out

    return _radial_1d(k_fn, x, f)


def jump_mass_1d(k_fn, x: float) -> float:
    """A0 density: integral of (1 ^ |z|^2) k_s(x, x+z) over z != 0."""
    return _radial_1d(k_fn, x, lambda kd, kt, r: np.minimum(1.0, r * r) * 0.5 * (kd + kt))


def jump_mass_2d(k_fn, x, z_support: float, angles: int = 64) -> float:
    """A0 density of a 2D kernel supported in |z| <= z_support, polar log grid.

    The integrand is smooth and periodic in the angle, so the equispaced
    angular rule converges fast."""
    t = np.linspace(-25.0, math.log(z_support), 4001)
    r = np.exp(t)
    th = 2.0 * math.pi * (np.arange(angles) + 0.5) / angles
    x = np.asarray(x, dtype=float)
    total = 0.0
    for c, s in zip(np.cos(th), np.sin(th)):
        y = np.stack([x[0] + r * c, x[1] + r * s], axis=-1)
        xx = np.broadcast_to(x, y.shape)
        ks = 0.5 * (k_fn(xx, y) + k_fn(y, xx))
        total += np.trapezoid(np.minimum(1.0, r * r) * ks * r * r, t)
    return float(total * 2.0 * math.pi / angles)
