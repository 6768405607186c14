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
the second difference cancels, and quadrature beyond.  Off the support of
u, |x| >= 1, u and its gradient vanish at x, and L u(x) is the integral of
w(a) u(t) |t - x|^(-1-a) over t in [-1, 1], which mpmath evaluates to 40
digits by Gauss-Legendre in 16 panels.

The far masses of the generic-cli 1D kernel,
k(x, y) = (1 + 0.3 tanh y) / (r^1.5 (1 + r^2)), beyond |z| = 1 are plain
integrals over t = |z| in [1, inf), which mpmath evaluates to 30 digits.
jumpform marches them octave by octave in Gauss bands, with the remainder
bounded by the declared tail k <= 1.35 r^-3.5.

The killing term of the same kernel, kappa(x) = int (k(x + z, x) - k(x, x + z)) dz,
has its singular parts cancel: with a = 0.3 it is the one-sided integral

    kappa(x) = a int_0^inf (2 tanh x - tanh(x + z) - tanh(x - z)) / (z^1.5 (1 + z^2)) dz,

which mpmath evaluates to 30 digits; its integrand vanishes like z^0.5 at 0.

The generator of a constant order alpha in 2D at the centre of a radial
bump u = A exp(1 - 1/(1 - |z|^2/R^2)) is one radial integral, since the
gradient of u vanishes there:

    L u = 2 pi w(alpha) A [int_0^R (exp(1 - 1/(1 - r^2/R^2)) - 1) r^(-1-alpha) dr - R^(-alpha)/alpha],

which mpmath evaluates to 30 digits.

A kernel of compact support, k(x, y) = (1 + 0.3 tanh y) r^-1.5 for
r = |y - x| <= 0.6 and 0 beyond, has a generator whose compensator and drift
cancel, so that for the unit bump u it is the one-sided integral

    L u(x) = int_0^0.6 sum over s = +-1 of (u(x + s z) - u(x)) (1 + 0.3 tanh(x + s z)) z^-1.5 dz,

whose integrand vanishes like z^0.5 at 0; mpmath evaluates it to 30
digits, by a Taylor series below z = 0.01 and quadrature beyond.  B of a
kernel without a symmetric hint is the principal value of the same
integral, so it has the same reference, and the killing term is

    kappa(x) = 0.3 int_0^0.6 (2 tanh x - tanh(x + z) - tanh(x - z)) z^-1.5 dz.

The form eta of the same kernel, with y integrated out, is a midpoint sum
over eta's own cells x: half the energy density (the integral of
(u(x) - u(y)) (v(x) - v(y)) k_s(x, y) over y, plus u(x) v(x) times that of
k_s(x, y) over y outside the box of the cells, the x-outside part folded
back by symmetry) and v(x) times the antisymmetric density, the integral of
(u(y) - u(x)) k_a(y, x) over y.  In t = sqrt|y - x| each is smooth, and
Gauss-Legendre panels in t, split where |y - x| reaches 0.6 and the box's
edge, give them to rounding.

A0 of a constant order alpha is the same at every point: the integral of
(1 ^ |z|^2) w(alpha) |z|^(-n-alpha) is w(alpha) sigma_n (1/(2 - alpha) +
1/alpha), sigma_n = 2 or 2 pi, with w(alpha) from mpmath's gamma.

A constant order takes the general power-law path: its far mass beyond R
is w(alpha) sigma_n R^(-alpha)/alpha, and its local data (the derivatives
of alpha and of w(alpha(x))) vanish exactly.

A value that jumpform does not flag must lie within tol_abs + tol_rel |ref|
of the reference, or within the bound it reports if that is larger.
"""

from __future__ import annotations

import numpy as np
import pytest

from jumpform import (
    DEFAULT_SCHEME,
    AlphaFunction,
    Box,
    GridFunction,
    JumpKernel,
    apply_B,
    apply_L,
    check_A0,
    check_FU,
    eta,
    killing_term,
    split,
    stable_like_kernel,
)
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


def _direct_generator_off_the_bump(x: float) -> float:
    """L u(x) for the unit bump u and the README kernel at |x| >= 1, where
    u(x) = 0 and grad u(x) = 0: w(a) times the integral of u(t) |t - x|^(-1-a)
    over the bump's support, Gauss-Legendre in 16 panels at 40 digits."""
    with mp.workdps(40):
        x = mp.mpf(x)
        a = mp.mpf("0.8") + mp.mpf("0.2") * mp.sin(x)
        w = a * 2 ** (a - 1) * mp.gamma((a + 1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(1 - a / 2))
        return float(w * mp.quad(lambda t: _bump(t) * abs(t - x) ** (-1 - a), mp.linspace(-1, 1, 17), method="gauss-legendre"))


# today 0.10959760170497816 against 0.10959744606883728 at x = 2 (error
# 1.6e-7, limit 1.2e-7) and 0.04891389166891088 against 0.048913192461929766
# at x = 3 (error 7.0e-7, limit 5.9e-8), both with inner_bound = tail_bound
# = 0: the bump's support lies in one or two wide outer Gauss panels, which
# carry no error estimate
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="outer Gauss panels carry no error estimate: off the support the value breaches unflagged")
@pytest.mark.parametrize("x", (2.0, 3.0))
def test_direct_generator_off_a_bump_is_within_its_bound(x):
    k = stable_like_kernel(AlphaFunction(lambda p: 0.8 + 0.2 * np.sin(p[..., 0]), 0.6, 1.0))
    ev = apply_L(k, GridFunction.bump((0.0,), 1.0), [[x]])
    assert ev.flagged == ()
    ref = _direct_generator_off_the_bump(x)
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


def _generic_killing_term(x: float) -> float:
    """kappa(x) of the generic-cli 1D kernel, folded onto z > 0."""
    with mp.workdps(30):
        x, a = mp.mpf(x), mp.mpf("0.3")

        def f(z):
            return (2 * mp.tanh(x) - mp.tanh(x + z) - mp.tanh(x - z)) / (z ** mp.mpf("1.5") * (1 + z * z))

        return float(a * mp.quad(f, [0, 0.25, 1, 4, 16, 64, mp.inf]))


# today 0.10131059496544131 against 0.10131059503269113 at x = 0.3 (error
# -6.7e-11) and an error of +2.7e-11 at x = -0.7, far bounds about 8e-11
# and 3e-11
@pytest.mark.parametrize("x", (0.3, -0.7))
def test_generic_killing_term_is_within_tolerance(x):
    def kernel(p, q):
        r = np.abs(p[..., 0] - q[..., 0])
        return (1.0 + 0.3 * np.tanh(q[..., 0])) / (r**1.5 * (1.0 + r * r))

    k = JumpKernel(1, kernel, tail_exponent=2.5, tail_amplitude=1.35)
    kt = killing_term(k, [(x,), (0.0,)], eps_sequence=[2.0**-m for m in range(1, 25)])
    assert kt.converged.all()
    ref = _generic_killing_term(x)
    assert abs(kt.values[0] - ref) <= DEFAULT_SCHEME.tol_abs + DEFAULT_SCHEME.tol_rel * abs(ref)
    # the kernel's antisymmetric part is odd about x = 0
    assert abs(kt.values[1]) <= DEFAULT_SCHEME.tol_abs


def _radial_generator_at_centre(alpha: float, R: float, A: float) -> float:
    """L u at the centre of the 2D bump of radius R and amplitude A, constant order alpha."""
    with mp.workdps(30):
        a, R, A = mp.mpf(alpha), mp.mpf(R), mp.mpf(A)
        w = a * 2 ** (a - 1) * mp.gamma((a + 2) / 2) / (mp.pi * mp.gamma(1 - a / 2))

        def f(r):
            # exp(1 - 1/(1 - s)) - 1 with 1 - 1/(1 - s) = -s/(1 - s) exact near r = 0
            s = (r / R) ** 2
            return mp.expm1(-s / (1 - s)) * r ** (-1 - a)

        return float(2 * mp.pi * w * A * (mp.quad(f, [0, R / 2, R]) - R ** (-a) / a))


# today at R = 1 the errors are -5.9e-12, -1.2e-11 and -3.3e-11 (alpha =
# 0.5, 1, 1.5) against reported bounds of 1.8e-14, 4.0e-12 and 5.2e-10; at
# R = 0.7 they are 1.4e-6, 2.9e-6 and 3.4e-6, within tol_rel only, while
# the reported bounds are 1.5e-13 to 4.3e-9 (the mid and outer panels carry
# no error estimate)
@pytest.mark.parametrize("R, A", ((1.0, 1.0), (0.7, 2.0)))
@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
def test_2d_generator_at_a_bump_centre_is_within_tolerance(alpha, R, A):
    centre = (0.3, -0.2)
    k = stable_like_kernel(AlphaFunction.constant(alpha, 2))
    ev = apply_L(k, GridFunction.bump(centre, R, A), [centre])
    assert ev.flagged == ()
    ref = _radial_generator_at_centre(alpha, R, A)
    diag = ev.diagnostics[0]
    limit = max(DEFAULT_SCHEME.tol_abs + DEFAULT_SCHEME.tol_rel * abs(ref), diag["inner_bound"] + diag["tail_bound"])
    assert abs(ev.values[0] - ref) <= limit


def _compact_generator_of_bump(x: float) -> float:
    """L u(x) for the unit bump u and the kernel (1 + 0.3 tanh y) r^-1.5 on r <= 0.6."""
    with mp.workdps(40):
        x = mp.mpf(x)
        ux = _bump(x)
        g = lambda z: (_bump(x + z) - ux) * (1 + mp.mpf("0.3") * mp.tanh(x + z))
        pair = lambda z: (g(z) + g(-z)) * z ** mp.mpf("-1.5")
        d = mp.mpf("0.01")
        # g(z) + g(-z) = sum over k >= 1 of 2 g^(2k)(0) z^(2k) / (2k)!
        c = mp.taylor(g, 0, 14)
        inner = sum(2 * c[2 * k] * d ** (2 * k - mp.mpf("0.5")) / (2 * k - mp.mpf("0.5")) for k in range(1, 8))
        # u is smooth on either side of where x +- z leaves (-1, 1)
        edges = sorted({d, mp.mpf("0.6")} | {e for e in (1 - x, 1 + x) if d < e < mp.mpf("0.6")})
        return float(inner + mp.quad(pair, edges))


def _compact_kernel(p, q):
    r = np.abs(p[..., 0] - q[..., 0])
    return np.where(r <= 0.6, (1.0 + 0.3 * np.tanh(q[..., 0])) * r**-1.5, 0.0)


# until panels were split at the declared support, apply_L read
# -0.8467266166772495 at x = 0.2 (error 2.2e-2) and -0.55133890099744 at
# x = -0.5 (error 5.4e-3), unflagged with an inner bound of about 1e-9, and
# apply_B read -0.900557562496949 and -0.5671224665409698 (errors 3.2e-2
# and 1.0e-2), unflagged
@pytest.mark.parametrize("x", (0.2, -0.5))
@pytest.mark.parametrize("op", ("L", "B"))
def test_generator_of_a_compact_kernel_is_within_tolerance(op, x):
    k = JumpKernel(1, _compact_kernel, z_support=0.6)
    u = GridFunction.bump((0.0,), 1.0)
    ev = apply_L(k, u, [[x]]) if op == "L" else apply_B(split(k), u, [[x]])
    assert ev.flagged == ()
    ref = _compact_generator_of_bump(x)
    diag = ev.diagnostics[0]
    # B reports no inner or tail bound
    bound = diag.get("inner_bound", 0.0) + diag.get("tail_bound", 0.0)
    limit = max(DEFAULT_SCHEME.tol_abs + DEFAULT_SCHEME.tol_rel * abs(ref), bound)
    assert abs(ev.values[0] - ref) <= limit


def _compact_killing_term(x: float) -> float:
    with mp.workdps(30):
        x = mp.mpf(x)
        f = lambda z: (2 * mp.tanh(x) - mp.tanh(x + z) - mp.tanh(x - z)) * z ** mp.mpf("-1.5")
        return float(mp.mpf("0.3") * mp.quad(f, [0, mp.mpf("0.01"), mp.mpf("0.6")]))


# until the killing ladder's segments were split at the declared support,
# x = 0.2 read 0.0332617655295128 (error 1.0e-3) and x = -0.5 read
# -0.06527770681678814 (error 2.1e-3), both converged
def test_killing_term_of_a_compact_kernel_is_within_tolerance():
    kt = killing_term(JumpKernel(1, _compact_kernel, z_support=0.6), [(0.2,), (-0.5,)])
    assert kt.converged.all()
    for value, x in zip(kt.values, (0.2, -0.5)):
        ref = _compact_killing_term(x)
        assert abs(value - ref) <= DEFAULT_SCHEME.tol_abs + DEFAULT_SCHEME.tol_rel * abs(ref)


def _compact_A0(x: float) -> float:
    """The A0 integrand's value at x for the compact kernel: the integral of
    |z|^2 k_s(x, x + z) = |z|^0.5 (1 + 0.15 (tanh(x + z) + tanh x)) over |z| <= 0.6."""
    with mp.workdps(30):
        x, c = mp.mpf(x), mp.mpf("0.6")
        f = lambda z: abs(z) ** mp.mpf("0.5") * (1 + mp.mpf("0.15") * (mp.tanh(x + z) + mp.tanh(x)))
        return float(mp.quad(f, [-c, 0, c]))


# until the dyadic shells were split at the declared support, the first
# shell [0.5, 1] held it inside one Gauss panel: check_A0 read
# 0.5389932438043719, 0.6202631082102796 and 0.7015329726161873 (errors
# 5.1e-4 to 6.6e-4) and gave the verdict 'inconclusive'
def test_A0_of_a_compact_kernel_is_within_tolerance():
    rep = check_A0(split(JumpKernel(1, _compact_kernel, z_support=0.6)), Box((-0.5,), (0.5,)), per_axis=3)
    refs = [_compact_A0(x) for (x,) in rep.details["points"]]
    assert refs == pytest.approx([0.5384808771426216, 0.6196773353931867, 0.7008737936437517], rel=1e-15)
    for value, ref in zip(rep.details["point_values"], refs):
        assert abs(value - ref) <= DEFAULT_SCHEME.tol_abs + DEFAULT_SCHEME.tol_rel * abs(ref)
    assert rep.verdict == "pass"


def _gauss_in_t(lo: float, hi: float, panels: int = 48, order: int = 32):
    """Nodes t and weights of composite Gauss-Legendre panels on [lo, hi]."""
    t0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * t0).ravel(), (0.5 * (b - a) * w0).ravel()


def _compact_eta(u, v, pts, vol, box):
    """(symmetric part, antisymmetric part) of eta for the compact kernel on
    the midpoint cells pts: z = s t^2, dz = 2 t dt and k carries t^-3."""
    ks = lambda x, y: (1.0 + 0.15 * (np.tanh(x) + np.tanh(y))) * 2.0
    ka = lambda x, y: 0.15 * (np.tanh(x) - np.tanh(y)) * 2.0  # k_a(y, x)
    t, w = _gauss_in_t(0.0, np.sqrt(0.6))
    energy = anti = 0.0
    for x in pts[:, 0]:
        ux, vx = float(u(np.array([[x]]))[0]), float(v(np.array([[x]]))[0])
        for s in (1.0, -1.0):
            y = x + s * t * t
            uy, vy = u(y[:, None]), v(y[:, None])
            energy += vol * np.sum(w / t**2 * (ux - uy) * (vx - vy) * ks(x, y))
            anti += vol * vx * np.sum(w / t**2 * (uy - ux) * ka(x, y))
            edge = box.hi[0] - x if s > 0 else x - box.lo[0]
            if edge < 0.6:
                t2, w2 = _gauss_in_t(np.sqrt(edge), np.sqrt(0.6))
                energy += vol * ux * vx * np.sum(w2 / t2**2 * ks(x, x + s * t2 * t2))
    return 0.5 * energy, anti


def test_eta_of_a_compact_kernel_is_within_tolerance():
    from jumpform.forms import _cells

    u, v = GridFunction.bump((0.0,), 1.0), GridFunction.bump((0.3,), 0.8, 0.7)
    fv = eta(u, v, split(JumpKernel(1, _compact_kernel, z_support=0.6)))
    box, pts, vol = _cells(u, v, None)
    ref_sym, ref_anti = _compact_eta(u, v, pts, vol, box)
    for value, ref in ((fv.symmetric_part, ref_sym), (fv.antisymmetric_part, ref_anti)):
        assert abs(value - ref) <= DEFAULT_SCHEME.tol_abs + DEFAULT_SCHEME.tol_rel * abs(ref)


def _mp_weight(a, n: int):
    return a * 2 ** (a - 1) * mp.gamma((a + n) / 2) / (mp.pi ** (mp.mpf(n) / 2) * mp.gamma(1 - a / 2))


def _constant_order_A0(alpha: float, n: int) -> float:
    with mp.workdps(30):
        a = mp.mpf(alpha)
        return float(_mp_weight(a, n) * (2 if n == 1 else 2 * mp.pi) * (1 / (2 - a) + 1 / a))


@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
@pytest.mark.parametrize("dim", (1, 2))
def test_A0_of_a_constant_order_kernel_is_within_tolerance(dim, alpha):
    k = stable_like_kernel(AlphaFunction.constant(alpha, dim))
    rep = check_A0(split(k), Box((-0.5,) * dim, (0.5,) * dim), per_axis=3)
    ref = _constant_order_A0(alpha, dim)
    for value in rep.details["point_values"]:
        assert abs(value - ref) <= DEFAULT_SCHEME.tol_abs + DEFAULT_SCHEME.tol_rel * abs(ref)


@pytest.mark.parametrize("dim, alpha", ((1, 0.5), (1, 1.2), (1, 1.9), (2, 0.8), (2, 1.5)))
def test_a_constant_order_has_exactly_zero_local_derivatives(dim, alpha):
    X = np.array([[0.3, -0.2][:dim], [-0.0] * dim, [1e3] * dim])
    for loc in eng.stable_local(AlphaFunction.constant(alpha, dim), X):
        assert repr(loc.ga.tolist()) == repr(loc.gw.tolist()) == repr([0.0] * dim)
        assert repr(loc.la) == repr(loc.lw) == "0.0"


_ORDERS = {
    1: lambda x: 0.8 + 0.2 * np.sin(x[..., 0]),  # the README order
    2: lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) * np.cos(x[..., 1]),
}


@pytest.mark.parametrize("dim", (1, 2))
def test_stable_local_reads_the_order_once_per_stencil_point(dim):
    # a block of 4 points reads alpha at x and x +- h e, 2n + 1 times, and
    # takes its gradient and Laplacian from those reads: AlphaFunction.grad
    # and the trace of AlphaFunction.hess, bit for bit
    reads = []

    def fn(x):
        reads.append(x.shape)
        return _ORDERS[dim](x)

    af = AlphaFunction(fn, 0.6, 1.0, dim=dim)
    X = np.array([[0.3, -0.2], [-0.0, 0.0], [1.1, 2.5], [-2.0, 0.7]])[:, :dim]
    locs = eng.stable_local(af, X)
    assert len(reads) == 2 * dim + 1 and all(shape == (4, dim) for shape in reads)
    grad, hess = af.grad(X), af.hess(X)
    for p, loc in enumerate(locs):
        assert repr(loc.ga.tolist()) == repr(grad[p].tolist())
        assert repr(loc.la) == repr(float(np.trace(hess[p])))
    # derivatives the order declares are taken as given
    d1 = lambda x: np.stack([np.cos(x[..., k]) for k in range(dim)], axis=-1)
    d2 = lambda x: np.stack([np.stack([-np.sin(x[..., k]) * (k == j) for j in range(dim)], -1) for k in range(dim)], -2)
    declared = AlphaFunction(_ORDERS[dim], 0.6, 1.0, dim=dim, d1=d1, d2=d2)
    for p, loc in enumerate(eng.stable_local(declared, X)):
        assert repr(loc.ga.tolist()) == repr(d1(X)[p].tolist())
        assert repr(loc.la) == repr(float(np.trace(d2(X)[p])))


@pytest.mark.parametrize("dim, alpha", ((1, 0.5), (1, 1.2), (1, 1.9), (2, 0.8), (2, 1.5)))
def test_far_masses_of_a_constant_order(dim, alpha):
    faces = eng.faces_of(stable_like_kernel(AlphaFunction.constant(alpha, dim)))
    X = np.array([[0.3, -0.2][:dim], [-0.0] * dim])
    for R in (DEFAULT_SCHEME.r_break, 64.0):
        entries = {kind: eng.far_masses(faces[kind], X, [R] * len(X), DEFAULT_SCHEME) for kind in faces}
        with mp.workdps(30):
            a = mp.mpf(alpha)
            ref = float(_mp_weight(a, dim) * (2 if dim == 1 else 2 * mp.pi) * mp.mpf(R) ** -a / a)
        for p in range(len(X)):
            d, t = entries["direct"][p], entries["transposed"][p]
            assert abs(d[0] - ref) <= 1e-14 * ref and d[1:] == (0.0, True)
            assert repr(t) == repr(d)
            for kind, (c_d, c_t) in (("sym", (0.5, 0.5)), ("anti", (0.5, -0.5)), ("anti_rev", (-0.5, 0.5))):
                assert repr(entries[kind][p]) == repr(eng._far_sum(((c_d, d), (c_t, t)))), kind
            assert repr(entries["anti"][p]) == repr((0.0, 0.0, True))


def _compact_c3(x: float) -> float:
    """The sup of |k_a|^1.5/k_s over 0 < |z| <= 0.6 for the compact kernel at
    x, on a grid of 24,001 offsets that includes |z| = 0.6."""
    z = np.linspace(-0.6, 0.6, 24001)
    z = z[z != 0.0]
    r, dt, st = np.abs(z), np.tanh(x + z) - np.tanh(x), np.tanh(x + z) + np.tanh(x)
    return float(np.max((0.15 * np.abs(dt)) ** 1.5 * r**-2.25 / ((1.0 + 0.15 * st) * r**-1.5)))


# until the probe was split at the declared support, a Gauss panel held
# |z| = 0.6 and C3 read 0.975, 0.983 and 0.969 of these sups
def test_FU_C3_of_a_compact_kernel_reaches_the_support():
    reps = check_FU(split(JumpKernel(1, _compact_kernel, z_support=0.6)), 0.5, Box((-0.5,), (0.5,)), per_axis=3)
    a3 = reps[2]
    for (x,), value in zip(a3.details["points"], a3.details["point_values"]):
        ref = _compact_c3(x)
        assert ref * 0.99 <= value <= ref * (1.0 + 1e-9)
