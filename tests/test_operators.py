"""Pointwise operators: the generator, its dual, the symmetrized operator,
the PV form B, the killing term, and the adjoint built from the last two."""

import math

import numpy as np
import pytest

from jumpform import (
    AlphaFunction,
    Box,
    DomainError,
    GridFunction,
    JumpKernel,
    NoConvergence,
    SplitKernel,
    UnresolvedKilling,
    apply_B,
    apply_L,
    apply_Lambda,
    apply_Lstar,
    apply_Ltilde,
    check_A0,
    check_local_pv_bound,
    energy_E,
    eta,
    killing_term,
    split,
    stable_like_kernel,
    submarkov_sign,
    symbol_check,
    union_box,
)
from jumpform import _engine as eng
from jumpform.quadrature import DEFAULT_SCHEME

BUMP = GridFunction.bump((0.0,), 1.0)


def tanh_alpha(c=0.5, amp=0.1):
    fn = lambda x: c + amp * np.tanh(np.asarray(x)[..., 0])
    return AlphaFunction(fn=fn, alpha1=c - abs(amp), alpha2=c + abs(amp), dim=1)


def shell_kernel(h, weight=0.3):
    """k(x,y) = w (2 + |h(y)-h(x)|) + w (h(y)-h(x)) on the shell 1 <= |x-y| <= 2.

    Bounded away from the diagonal, so every integral is elementary and the
    killing term has a closed form.
    """

    def ks(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        return weight * (2.0 + np.abs(h(y) - h(x))) * ((r >= 1.0) & (r <= 2.0))

    def ka(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        return weight * (h(y) - h(x)) * ((r >= 1.0) & (r <= 2.0))

    return SplitKernel.from_parts(1, ks, ka, label="shell", z_support=2.0)


# ---------------------------------------------------------------------------
# the generator and its relatives
# ---------------------------------------------------------------------------


def test_generator_annihilates_constants():
    k = stable_like_kernel(AlphaFunction.constant(1.0, 1), 1)
    ev = apply_L(k, GridFunction.wave(0.0, "cos"), [(0.0,), (0.7,)])
    assert np.array_equal(ev.values, np.zeros(2))
    assert ev.flagged == ()


def test_symmetric_kernel_collapses_the_three_operators():
    # for j = j^T the direct, transposed and symmetric faces agree bitwise,
    # so the three evaluations are identical floats, not merely close
    k = stable_like_kernel(AlphaFunction.constant(1.0, 1), 1)
    pts = [(0.0,), (0.35,), (-0.6,)]
    l_val = apply_L(k, BUMP, pts).values
    lam_val = apply_Lambda(k, BUMP, pts).values
    lt_val = apply_Ltilde(split(k), BUMP, pts).values
    assert np.array_equal(l_val, lam_val)
    assert np.array_equal(l_val, lt_val)


def test_plane_wave_eigenvalue():
    # fractional laplacian of order 1 on cos(2x): eigenvalue -|2|^1
    k = stable_like_kernel(AlphaFunction.constant(1.0, 1), 1)
    ev = apply_L(k, GridFunction.wave(2.0, "cos"), [(0.0,)])
    assert math.isclose(ev.values[0], -2.0, abs_tol=1e-8), ev.values[0]


def test_symbol_check_small_residual():
    res = symbol_check(AlphaFunction.constant(1.0, 1), 2.0, (0.5,))
    assert res < 1e-9, res


def test_symbol_check_zero_frequency():
    assert symbol_check(AlphaFunction.constant(1.0, 1), 0.0, (0.5,)) == 0.0


def test_symbol_check_rejects_2d():
    af = AlphaFunction.constant(1.0, 2)
    with pytest.raises(DomainError):
        symbol_check(af, 1.0, (0.5, 0.5))


def test_points_shape_is_validated():
    k = stable_like_kernel(AlphaFunction.constant(1.0, 1), 1)
    with pytest.raises(DomainError):
        apply_L(k, BUMP, [(0.0, 0.0)])


def test_dual_matches_brute_force_quadrature():
    import mpmath as mp

    af = tanh_alpha()
    k = stable_like_kernel(af, 1)
    x0 = 0.35
    ux = float(BUMP((x0,)))
    gx = float(BUMP.grad((x0,)).reshape(-1)[0])

    def w_mp(a):
        return a * 2 ** (a - 1) * mp.gamma((a + 1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(1 - a / 2))

    def kT(z):  # j(x0 + z, x0)
        a = mp.mpf("0.5") + mp.mpf("0.1") * mp.tanh(x0 + z)
        return w_mp(a) * mp.e ** (-(1 + a) * mp.log(abs(z)))

    def u_mp(t):
        return mp.mpf(str(float(BUMP((float(t),)))))

    def comp_pair(z):
        return (u_mp(x0 + z) - ux - z * gx) * kT(z) + (u_mp(x0 - z) - ux + z * gx) * kT(-z)

    inner = mp.quad(comp_pair, [mp.mpf("1e-12"), 1])
    mid = mp.quad(lambda z: (u_mp(x0 + z) - ux) * kT(z) + (u_mp(x0 - z) - ux) * kT(-z), [1, 1.5])
    far = -ux * mp.quad(lambda z: kT(z) + kT(-z), [1.5, mp.inf])
    drift = gx * mp.quad(lambda z: z * (kT(z) - kT(-z)), [mp.mpf("1e-12"), 1])
    oracle = float(inner + mid + far + drift)

    got = apply_Lambda(k, BUMP, [(x0,)]).values[0]
    assert math.isclose(got, oracle, abs_tol=1e-5), f"dual {got} vs quadrature {oracle}"


# ---------------------------------------------------------------------------
# B = PV against k_s plus the absolutely convergent antisymmetric integral
# ---------------------------------------------------------------------------


def test_B_matches_generator_where_pv_exists():
    sk = split(stable_like_kernel(tanh_alpha(), 1))
    pts = [(0.0,), (0.35,)]
    eps = [2.0**-m for m in range(1, 23)]
    b = apply_B(sk, BUMP, pts, eps_sequence=eps)
    l_val = apply_L(sk.base, BUMP, pts).values
    assert np.max(np.abs(b.values - l_val)) < 1e-6
    for d in b.diagnostics:
        assert d["pv_converged"]
        assert "anti_part" in d


# ---------------------------------------------------------------------------
# killing term
# ---------------------------------------------------------------------------


def test_killing_term_square_profile_closed_form():
    # h(y) = y^2: the odd moment drops, leaving -2w * 2 * int_1^2 z^2 dz
    w = 0.3
    sk = shell_kernel(lambda p: np.asarray(p)[..., 0] ** 2, weight=w)
    kt = killing_term(sk.base, [(0.0,), (0.4,), (-1.1,)], sk=sk)
    expected = -28.0 * w / 3.0
    assert np.all(kt.converged)
    assert np.max(np.abs(kt.values - expected)) < 1e-12
    assert kt.sign_summary == "nonpositive"
    rep = submarkov_sign(kt)
    assert rep.verdict == "nonpositive"
    assert "sub-Markov" in rep.interpretation


def test_killing_term_sine_profile_closed_form():
    w = 0.3
    sk = shell_kernel(lambda p: np.sin(np.asarray(p)[..., 0]), weight=w)
    pts = [(0.0,), (0.4,), (-1.1,)]
    kt = killing_term(sk.base, pts, sk=sk)
    coef = 4.0 * w * (1.0 + math.sin(1.0) - math.sin(2.0))
    expected = np.array([coef * math.sin(p[0]) for p in pts])
    assert np.max(np.abs(kt.values - expected)) < 1e-12
    assert kt.sign_summary == "mixed"
    assert submarkov_sign(kt).verdict == "mixed"


def test_killing_term_partials_structure():
    sk = shell_kernel(lambda p: np.sin(np.asarray(p)[..., 0]))
    kt = killing_term(sk.base, [(0.2,), (0.9,)], sk=sk)
    assert kt.partials.shape == (2, len(kt.eps_sequence))
    assert np.array_equal(kt.values, kt.partials[:, -1])
    assert np.all(np.diff(kt.eps_sequence) < 0)


def _log_divergent_kernel():
    """k_a(x, x+z) ~ (sin(x+z) - sin x)/|z|^3: the paired killing integrand
    decays like 1/|z|, so the truncated integrals diverge logarithmically."""

    def ks(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        out = np.zeros_like(r)
        np.divide(
            2.0 + np.abs(np.sin(y[..., 0]) - np.sin(x[..., 0])),
            r**3,
            out=out,
            where=(r > 0) & (r <= 1.0),
        )
        return out

    def ka(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        out = np.zeros_like(r)
        np.divide(
            np.sin(y[..., 0]) - np.sin(x[..., 0]),
            r**3,
            out=out,
            where=(r > 0) & (r <= 1.0),
        )
        return out

    return SplitKernel.from_parts(1, ks, ka, label="log-divergent", z_support=1.0)


def test_killing_term_flags_unresolvable_cancellation():
    sk = _log_divergent_kernel()
    kt = killing_term(sk.base, [(0.7,)], sk=sk)
    assert not kt.converged[0]
    assert kt.diagnostics[0]["fp_noise"] > 1.0


def test_adjoint_refuses_unresolved_killing():
    sk = _log_divergent_kernel()
    with pytest.raises(UnresolvedKilling):
        apply_Lstar(sk.base, BUMP, [(0.7,)])


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------


def test_adjoint_identity_residual():
    # dual + killing must equal (2 symmetrized + killing) - direct on the
    # shared quadrature nodes; the residual is pure float noise
    k = stable_like_kernel(tanh_alpha(), 1)
    ev = apply_Lstar(k, BUMP, [(0.0,), (0.35,)])
    assert np.all(np.isfinite(ev.values))
    for d in ev.diagnostics:
        assert d["kappa_converged"]
        assert d["identity_residual"] <= 1e-10


def test_too_singular_kernel_is_flagged_not_raised():
    def singular(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        with np.errstate(divide="ignore"):
            return np.where(r > 0, r**-3.5, 0.0)

    k = JumpKernel(dim=1, eval=singular, z_support=1.0, label="too-singular")
    with np.errstate(divide="ignore"):
        ev = apply_L(k, BUMP, [(0.1,)])
    assert ev.flagged == (0,)
    assert math.isnan(ev.values[0])
    assert "error" in ev.diagnostics[0]


def test_threads_do_not_change_values():
    k = stable_like_kernel(tanh_alpha(), 1)
    pts = [(float(t),) for t in np.linspace(-0.8, 0.8, 9)]
    v1 = apply_L(k, BUMP, pts, threads=1).values
    v4 = apply_L(k, BUMP, pts, threads=4).values
    assert np.array_equal(v1, v4)


# ---------------------------------------------------------------------------
# the truncated symmetrization identity
# ---------------------------------------------------------------------------


def test_truncated_symmetrization_identity():
    # <g, A_eps f> + <f, A_eps g> = <f g, kappa_eps> for every fixed eps:
    # the cross terms swap into each other under the antisymmetry of k_a
    sk = split(stable_like_kernel(tanh_alpha(), 1))
    faces = eng.faces_of(sk.base, sk)
    f = BUMP
    g = GridFunction.bump((-0.3,), 1.1)
    box = union_box(f, g)
    eps = 0.125

    def residual(cells):
        pts, vol = box.cell_lattice(cells)
        lhs = rhs = 0.0
        for p in pts:
            x = np.asarray(p, dtype=float)
            fx, gx = float(f(x)), float(g(x))
            tf, _ = eng.unwrap(eng.plain_truncated(faces["anti"], f, x[None], eps, DEFAULT_SCHEME)[0])
            tg, _ = eng.unwrap(eng.plain_truncated(faces["anti"], g, x[None], eps, DEFAULT_SCHEME)[0])
            kap, _ = eng.unwrap(eng.kappa_partials(sk.base, x[None], [eps], DEFAULT_SCHEME, sk)[0])
            lhs += (gx * tf + fx * tg) * vol
            rhs += fx * gx * float(kap[0]) * vol
        return abs(lhs - rhs)

    coarse, fine = residual(17), residual(33)
    assert fine < 1e-5, f"identity residual {fine}"
    assert fine < coarse, (coarse, fine)


# ---------------------------------------------------------------------------
# unresolved far tails
# ---------------------------------------------------------------------------


def low_order_kernel():
    # orders down to 0.05 decay too slowly for the far field to resolve
    af = AlphaFunction(lambda x: 0.175 + 0.125 * np.sin(np.asarray(x)[..., 0]), alpha1=0.05, alpha2=0.3, dim=1)
    return stable_like_kernel(af, 1)


def test_unresolved_far_tail_is_flagged():
    k = low_order_kernel()
    _, _, ok = eng.far_mass(eng.faces_of(k)["transposed"], np.array([0.0]), 1.0, DEFAULT_SCHEME)
    assert not ok
    ev = apply_Lambda(k, BUMP, [(0.0,)])
    assert ev.flagged == (0,)
    assert math.isnan(ev.values[0])
    assert "far tail" in ev.diagnostics[0]["error"]


def test_unresolved_far_tail_leaves_killing_term_unconverged():
    kt = killing_term(low_order_kernel(), [(0.0,), (0.3,)])
    assert not np.any(kt.converged)
    assert all(not d["far_ok"] for d in kt.diagnostics)


def test_plain_truncated_raises_on_unresolved_far_tail():
    face = eng.faces_of(low_order_kernel())["transposed"]
    with pytest.raises(NoConvergence):
        eng.unwrap(eng.plain_truncated(face, BUMP, np.array([[0.0]]), 1e-3, DEFAULT_SCHEME)[0])


# ---------------------------------------------------------------------------
# NaN orders
# ---------------------------------------------------------------------------


def test_nan_order_raises_domain_error():
    # log of a negative coordinate gives a NaN order left of the origin; the
    # DomainError it raises flags the point instead of aborting the call
    af = AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) + 0.0 * np.log(x[..., 0]), alpha1=0.6, alpha2=1.0)
    k = stable_like_kernel(af, 1)
    with np.errstate(invalid="ignore"):
        ev = apply_Lambda(k, BUMP, [(0.5,)])
    assert ev.flagged == (0,)
    assert math.isnan(ev.values[0])
    assert "alpha in" in ev.diagnostics[0]["error"]


def test_nan_kernel_value_flags_its_point():
    # sqrt(x + 5) is NaN left of -5: the NegativeKernel raised at x = -6
    # flags that point, and x = 0 keeps its value
    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return np.sqrt(x[..., 0] + 5.0) / (r**1.5 * (1.0 + r * r))

    with np.errstate(invalid="ignore"):
        ev = apply_L(JumpKernel(dim=1, eval=k, label="sqrt"), BUMP, [[0.0], [-6.0]])
    assert ev.flagged == (1,)
    assert math.isfinite(ev.values[0])
    assert "nan" in ev.diagnostics[1]["error"]


README_ORDER = AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0)
V = GridFunction.bump((0.2,), 0.8)
SAMPLES = Box((-0.5,), (0.5,))


def _count_marches(monkeypatch):
    """The list to which every far mass marched from now on adds one entry
    (face, point, R, scheme) per point, whether marched alone or in a block."""
    seen = []
    orig = eng._far_numeric

    def counted(face, x, R, scheme, cut):
        x = np.asarray(x, dtype=float)
        for p, r in zip(x.reshape(-1, x.shape[-1]), np.atleast_1d(R)):
            seen.append((face.label, tuple(p), float(r), scheme))
        return orig(face, x, R, scheme, cut)

    monkeypatch.setattr(eng, "_far_numeric", counted)
    return seen


def test_apply_B_marches_each_far_field_once(monkeypatch):
    # the principal value and the antisymmetric integral share the far mass
    # of the transposed face instead of marching it once each
    sk = split(stable_like_kernel(README_ORDER))
    seen = _count_marches(monkeypatch)
    ev = apply_B(sk, BUMP, [[0.2], [-0.4]])
    assert ev.flagged == ()
    assert len(seen) == len(set(seen)) == 2
    assert {label for label, _, _, _ in seen} == {"transposed"}


# other calls on the README kernel that read far masses of a non-constant order
MARCHING_CALLS = {
    "killing_term": lambda sk: killing_term(sk.base, [[0.2], [-0.4]], sk=sk),
    "check_local_pv_bound": lambda sk: check_local_pv_bound(sk, [SAMPLES], per_axis=3),
    "energy_E": lambda sk: energy_E(BUMP, V, sk, outer_per_axis=9),
    "eta": lambda sk: eta(BUMP, V, sk, outer_per_axis=9),
    "check_A0": lambda sk: check_A0(sk, SAMPLES, per_axis=3),
    "apply_Lstar": lambda sk: apply_Lstar(sk.base, BUMP, [[0.2], [-0.4]]),
}


@pytest.mark.parametrize("name", list(MARCHING_CALLS))
def test_a_call_marches_each_far_field_once(monkeypatch, name):
    # every far mass a call reads is marched once, under each scheme it is
    # read with (check_A0 reads two), whichever block function reads it
    sk = split(stable_like_kernel(README_ORDER))
    seen = _count_marches(monkeypatch)
    MARCHING_CALLS[name](sk)
    assert seen and len(seen) == len(set(seen))
    assert {label for label, _, _, _ in seen} == {"transposed"}
