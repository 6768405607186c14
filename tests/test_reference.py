"""Values against independent high-precision references.

The transposed face of the README kernel, alpha(y) = 0.8 + 0.2 sin y,
beyond |z| = R has an exact series form: alpha has period 2 pi, so the
integral over t = |z| in [R, inf) on either side folds onto one period,

    int_0^{2 pi} w(a) (2 pi)^(-1-a) zeta(1 + a, (R + t) / (2 pi)) dt,
    a = alpha(x +- (R + t)),

with zeta the Hurwitz zeta function.  mpmath evaluates it to 25 digits.

The direct generator of the same kernel has its order frozen at the base
point, a = alpha(x), so for a function u it is one compensated integral,

    L u(x) = w(a) int_0^inf (u(x + z) + u(x - z) - 2 u(x)) z^(-1-a) dz,

which mpmath evaluates to 25 digits: a Taylor series of u near z = 0, where
the second difference cancels, and quadrature beyond.

The far masses of the generic-cli 1D kernel,
k(x, y) = (1 + 0.3 tanh y) / (r^1.5 (1 + r^2)), beyond |z| = 1 are plain
integrals over t = |z| in [1, inf), which mpmath evaluates to 30 digits.
jumpform marches them octave by octave in Gauss bands, with the remainder
bounded by the declared tail k <= 1.35 r^-3.5.

A value that jumpform does not flag must lie within tol_abs + tol_rel |ref|
of the reference, or within the bound it reports if that is larger.
"""

from __future__ import annotations

import numpy as np
import pytest

from jumpform import DEFAULT_SCHEME, AlphaFunction, GridFunction, JumpKernel, apply_L, stable_like_kernel
from jumpform import _engine as eng

mp = pytest.importorskip("mpmath")


def _transposed_far_mass(x: float, R: float) -> float:
    """Integral over |z| > R of w(alpha(x+z)) |z|^(-1-alpha(x+z)), alpha = 0.8 + 0.2 sin."""
    with mp.workdps(25):
        x, R = mp.mpf(x), mp.mpf(R)
        period = 2 * mp.pi

        def w(a):
            return a * 2 ** (a - 1) * mp.gamma((a + 1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(1 - a / 2))

        def side(s):
            def f(t):
                a = mp.mpf("0.8") + mp.mpf("0.2") * mp.sin(x + s * (R + t))
                return w(a) * period ** (-1 - a) * mp.zeta(1 + a, (R + t) / period)

            return mp.quad(f, mp.linspace(0, period, 5))

        return float(side(1) + side(-1))


# today 0.03086914070386753 against 0.030868164726802205 at x = 0 and
# 0.030928142929213615 against 0.030924959406555087 at x = 0.3, both with
# ok=True and bounds of 9.3e-11 and 9.6e-11: the stratified octaves beyond
# _FAR_RESOLVE carry a sampling error that no bound counts
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="sampled far octaves beyond |z| = 64 are off by ~1e-6 yet pass as resolved")
@pytest.mark.parametrize("x", (0.0, 0.3))
def test_transposed_far_mass_beyond_64_is_within_its_bound(x):
    k = stable_like_kernel(AlphaFunction(lambda p: 0.8 + 0.2 * np.sin(p[..., 0]), 0.6, 1.0))
    value, bound, ok = eng.far_mass(eng.faces_of(k)["transposed"], np.array([x]), 64.0, DEFAULT_SCHEME)
    assert ok and abs(value - _transposed_far_mass(x, 64.0)) <= bound


def _bump(t):
    """The unit bump exp(1 - 1/(1 - t^2)) on |t| < 1, in mpmath."""
    return mp.exp(1 - 1 / (1 - t * t)) if abs(t) < 1 else mp.mpf(0)


def _direct_generator_of_bump(x: float) -> float:
    """L u(x) for the unit bump u and the README kernel, alpha frozen at x."""
    with mp.workdps(40):
        x = mp.mpf(x)
        a = mp.mpf("0.8") + mp.mpf("0.2") * mp.sin(x)
        w = a * 2 ** (a - 1) * mp.gamma((a + 1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(1 - a / 2))
        d = mp.mpf("0.01")
        # u(x + z) + u(x - z) - 2 u(x) = sum over k >= 1 of 2 u^(2k)(x) z^(2k) / (2k)!
        c = mp.taylor(_bump, x, 14)
        inner = sum(2 * c[2 * k] * d ** (2 * k - a) / (2 * k - a) for k in range(1, 8))
        ux = _bump(x)
        mid = mp.quad(lambda z: (_bump(x + z) + _bump(x - z) - 2 * ux) * z ** (-1 - a), [d, 1 - abs(x), 1 + abs(x)])
        # beyond 1 + |x| both u(x + z) and u(x - z) vanish
        tail = -2 * ux * (1 + abs(x)) ** (-a) / a
        return float(w * (inner + mid + tail))


@pytest.mark.parametrize("x", (0.0, 0.3))
def test_direct_generator_of_a_bump_is_within_its_bound(x):
    k = stable_like_kernel(AlphaFunction(lambda p: 0.8 + 0.2 * np.sin(p[..., 0]), 0.6, 1.0))
    ev = apply_L(k, GridFunction.bump((0.0,), 1.0), [[x]])
    assert ev.flagged == ()
    ref = _direct_generator_of_bump(x)
    diag = ev.diagnostics[0]
    limit = max(DEFAULT_SCHEME.tol_abs + DEFAULT_SCHEME.tol_rel * abs(ref), diag["inner_bound"] + diag["tail_bound"])
    assert abs(ev.values[0] - ref) <= limit


def _generic_far_mass(x: float, kind: str) -> float:
    """Integral over |z| > 1 of the generic-cli 1D kernel's face kind at x."""
    with mp.workdps(30):
        x = mp.mpf(x)

        def k(p, q):
            r = abs(p - q)
            return (1 + mp.mpf("0.3") * mp.tanh(q)) / (r ** mp.mpf("1.5") * (1 + r * r))

        def face(t):
            direct = k(x, x + t) + k(x, x - t)
            transposed = k(x + t, x) + k(x - t, x)
            return {"direct": direct, "transposed": transposed, "anti_rev": (transposed - direct) / 2}[kind]

        return float(mp.quad(face, [1, 2, 4, 8, 16, 64, mp.inf]))


# today the direct face at x = 0 reads 0.5321080506170727 against
# 0.5321080506403558 (error 2.3e-11, reported bound 2.9e-11)
@pytest.mark.parametrize("kind", ("direct", "transposed", "anti_rev"))
@pytest.mark.parametrize("x", (0.0, 0.3))
def test_generic_far_mass_beyond_1_is_within_its_bound(x, kind):
    def kernel(p, q):
        r = np.abs(p[..., 0] - q[..., 0])
        return (1.0 + 0.3 * np.tanh(q[..., 0])) / (r**1.5 * (1.0 + r * r))

    face = eng.faces_of(JumpKernel(1, kernel, tail_exponent=2.5, tail_amplitude=1.35))[kind]
    value, bound, ok = eng.far_mass(face, np.array([x]), 1.0, DEFAULT_SCHEME)
    ref = _generic_far_mass(x, kind)
    limit = max(DEFAULT_SCHEME.tol_abs + DEFAULT_SCHEME.tol_rel * abs(ref), bound)
    assert ok and abs(value - ref) <= limit
