"""Far masses against independent high-precision references.

The transposed face of the README kernel, alpha(y) = 0.8 + 0.2 sin y,
beyond |z| = R has an exact series form: alpha has period 2 pi, so the
integral over t = |z| in [R, inf) on either side folds onto one period,

    int_0^{2 pi} w(a) (2 pi)^(-1-a) zeta(1 + a, (R + t) / (2 pi)) dt,
    a = alpha(x +- (R + t)),

with zeta the Hurwitz zeta function.  mpmath evaluates it to 25 digits.
"""

from __future__ import annotations

import numpy as np
import pytest

from jumpform import DEFAULT_SCHEME, AlphaFunction, stable_like_kernel
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
