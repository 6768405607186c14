#!/usr/bin/env python3
"""Regenerate the coefficient tables of ``kernels.weight_w`` and print them.

    python3 tools/weight_coefficients.py

The stable-like weight factors as

    w(alpha) = alpha (2 - alpha) h_n(alpha - 1),
    h_n(t) = 2^t Gamma((t + 1 + n)/2) / (2 pi^(n/2) Gamma((3 - t)/2)),

and h_n is analytic and positive on [-1, 1] (alpha in [0, 2]); its nearest
singularity is the pole of the first gamma at t = -1 - n.  For each n the
script interpolates h_n at the DEGREE[n] + 1 Chebyshev points of the first
kind on [-1, 1] in 50-digit mpmath, converts the interpolant to monomial form
in the same precision and rounds each coefficient to the nearest double.

It prints the ``_W_POLY`` assignment of ``src/jumpform/kernels.py``, highest
power first (Horner order), four to a line, exactly as it stands there; the
test suite checks that it does.  It needs mpmath.
"""

from __future__ import annotations

import mpmath as mp

# with these degrees the rounded interpolants come within 6.3e-16 (n = 1) and
# 4.5e-16 (n = 2) relative of w on 25,000 orders in (0, 2); degrees 25 and 18
# exceed 1e-15
DEGREE = {1: 26, 2: 20}
DIGITS = 50


def h(n: int, t):
    """h_n(t) in mpmath at the working precision."""
    return mp.power(2, t) * mp.gamma((t + 1 + n) / 2) / (2 * mp.pi ** (mp.mpf(n) / 2) * mp.gamma((3 - t) / 2))


def coefficients(n: int, degree: int) -> tuple:
    """The monomial coefficients of h_n's Chebyshev interpolant of this
    degree, rounded to doubles, highest power first."""
    with mp.workdps(DIGITS):
        m = degree + 1
        theta = [mp.pi * (j + mp.mpf(1) / 2) / m for j in range(m)]
        values = [h(n, mp.cos(th)) for th in theta]
        cheb = [mp.fsum(v * mp.cos(k * th) for v, th in zip(values, theta)) * (1 if k == 0 else 2) / m for k in range(m)]
        # T_0 = 1, T_1 = t, T_k = 2 t T_(k-1) - T_(k-2), as monomial coefficient lists
        T = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
        for k in range(2, m):
            T.append([2 * a - b for a, b in zip([mp.mpf(0)] + T[k - 1], T[k - 2] + [mp.mpf(0)] * 2)])
        mono = [mp.fsum(cheb[k] * T[k][i] for k in range(i, m)) for i in range(m)]
        return tuple(float(c) for c in reversed(mono))


def tables() -> dict:
    """{n: coefficients(n, DEGREE[n])} for n = 1, 2."""
    return {n: coefficients(n, d) for n, d in DEGREE.items()}


def render(tabs: dict) -> str:
    """The ``_W_POLY`` assignment as it stands in kernels.py."""
    lines = ["_W_POLY = {"]
    for n, coef in tabs.items():
        lines.append(f"    {n}: (")
        lines.extend("        " + " ".join(f"{c!r}," for c in coef[i : i + 4]) for i in range(0, len(coef), 4))
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(tables()))
