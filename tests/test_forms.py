"""Forms: the energy, the limiting form eta, its truncations, and the
lattice checks (Markov property, lower bound, sector inequality)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpform import (
    AlphaFunction,
    Box,
    DomainError,
    GridFunction,
    JumpKernel,
    NoConvergence,
    bound_checks,
    energy_E,
    eta,
    eta_n,
    markov_check,
    split,
    stable_like_kernel,
    union_box,
)


def tanh_alpha(c=0.5, amp=0.1):
    fn = lambda x: c + amp * np.tanh(np.asarray(x)[..., 0])
    return AlphaFunction(fn=fn, alpha1=c - abs(amp), alpha2=c + abs(amp), dim=1)


def var_kernel():
    return split(stable_like_kernel(tanh_alpha(), 1))


def const_kernel(alpha=0.8):
    return split(stable_like_kernel(AlphaFunction.constant(alpha, 1), 1))


# The test functions are chosen so every pairwise union box is the same
# interval (-1.4, 1.0); eta discretizes the outer integral on the union box,
# so sharing it makes the linearity identities hold on a single lattice.
U1 = GridFunction.bump((0.0,), 1.0)
U2 = GridFunction.bump((0.2,), 0.8)
V = GridFunction.bump((-0.3,), 1.1)
OUTER = 17


@pytest.fixture(scope="module")
def eta_table():
    """All eta evaluations the linearity tests share, computed once."""
    sk = var_kernel()
    a, b = 0.7, -1.3
    combo = GridFunction.analytic(
        1,
        lambda x: a * U1(x) + b * U2(x),
        lambda x: a * U1.grad(x) + b * U2.grad(x),
        lambda x: a * U1.hess(x) + b * U2.hess(x),
        box=union_box(U1, U2),
        label="combo",
    )
    return {
        "a": a,
        "b": b,
        "c_v": eta(combo, V, sk, outer_per_axis=OUTER),
        "1_v": eta(U1, V, sk, outer_per_axis=OUTER),
        "2_v": eta(U2, V, sk, outer_per_axis=OUTER),
        "1_c": eta(U1, combo, sk, outer_per_axis=OUTER),
        "1_1": eta(U1, U1, sk, outer_per_axis=OUTER),
        "1_2": eta(U1, U2, sk, outer_per_axis=OUTER),
    }


# ---------------------------------------------------------------------------
# structure of the limiting form
# ---------------------------------------------------------------------------


def test_eta_linear_in_first_argument(eta_table):
    t = eta_table
    lin = t["a"] * t["1_v"].total + t["b"] * t["2_v"].total
    got = t["c_v"].total
    # the antisymmetric far tail stops adaptively per function, which leaves
    # a small truncation mismatch between the combination and its parts
    assert math.isclose(got, lin, rel_tol=1e-5), f"eta(au1+bu2, v) = {got} vs {lin}"


def test_eta_linear_in_second_argument(eta_table):
    t = eta_table
    lin = t["a"] * t["1_1"].total + t["b"] * t["1_2"].total
    got = t["1_c"].total
    # v enters every quadrature node multiplicatively: exact up to roundoff
    assert math.isclose(got, lin, rel_tol=1e-12), f"eta(u, av1+bv2) = {got} vs {lin}"


def test_form_value_parts_sum_to_total(eta_table):
    fv = eta_table["1_v"]
    assert fv.total == fv.symmetric_part + fv.antisymmetric_part
    assert fv.diagnostics["outer_cells"] == OUTER
    assert fv.diagnostics["outer_volume"] > 0.0


def test_symmetric_kernel_has_no_antisymmetric_part():
    sk = const_kernel()
    fv = eta(U1, V, sk, outer_per_axis=OUTER)
    assert fv.antisymmetric_part == 0.0
    assert fv.total == fv.symmetric_part


def test_symmetric_kernel_eta_is_half_the_energy():
    sk = const_kernel()
    fv = eta(U1, V, sk, outer_per_axis=OUTER)
    e = energy_E(U1, V, sk, outer_per_axis=OUTER)
    assert fv.symmetric_part == 0.5 * e, f"{fv.symmetric_part} != 0.5 * {e}"


def test_eta_symmetric_in_arguments_for_symmetric_kernel():
    sk = const_kernel()
    uv = eta(U1, V, sk, outer_per_axis=OUTER).total
    vu = eta(V, U1, sk, outer_per_axis=OUTER).total
    assert math.isclose(uv, vu, rel_tol=1e-10), f"eta(u,v)={uv} eta(v,u)={vu}"


# ---------------------------------------------------------------------------
# truncated forms
# ---------------------------------------------------------------------------


def test_truncated_form_converges_to_eta():
    sk = var_kernel()
    full = eta(U1, V, sk, outer_per_axis=OUTER).total
    e256 = eta_n(U1, V, sk.base, 256, outer_per_axis=OUTER)
    assert math.isclose(e256, full, rel_tol=5e-3), f"eta_256={e256} eta={full}"


def test_truncated_form_is_cauchy():
    k = stable_like_kernel(tanh_alpha(), 1)
    vals = [eta_n(U1, V, k, 2**m, outer_per_axis=OUTER) for m in range(1, 7)]
    deltas = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
    assert all(
        deltas[i + 1] < deltas[i] for i in range(len(deltas) - 1)
    ), f"deltas not decreasing: {deltas}"


def test_truncation_level_must_be_positive():
    k = stable_like_kernel(tanh_alpha(), 1)
    with pytest.raises(DomainError):
        eta_n(U1, V, k, 0)


# ---------------------------------------------------------------------------
# domain handling
# ---------------------------------------------------------------------------


def test_union_box_covers_both_supports():
    box = union_box(U1, V)
    assert box.lo == pytest.approx((-1.4,))
    assert box.hi == (1.0,)


def test_union_box_rejects_dimension_mismatch():
    u2d = GridFunction.bump((0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        union_box(U1, u2d)


def test_forms_reject_unbounded_functions():
    with pytest.raises(DomainError, match="compactly supported"):
        eta(GridFunction.wave(1.0), V, const_kernel())


# ---------------------------------------------------------------------------
# lattice checks
# ---------------------------------------------------------------------------


def test_markov_check_with_clipping():
    big = GridFunction.bump((0.0,), 1.0, amplitude=1.7)
    rep = markov_check(big, var_kernel())
    assert rep.passed
    assert rep.value >= -rep.tol
    assert 0 < rep.clipped_nodes < rep.lattice_nodes


def test_markov_check_trivial_when_range_inside_unit_interval():
    small = GridFunction.bump((0.0,), 1.0, amplitude=0.9)
    rep = markov_check(small, var_kernel())
    assert rep.value == 0.0
    assert rep.clipped_nodes == 0


def test_markov_check_2d():
    af = AlphaFunction(
        fn=lambda x: 0.9 + 0.15 * np.cos(np.asarray(x)[..., 0] + np.asarray(x)[..., 1]),
        alpha1=0.75,
        alpha2=1.05,
        dim=2,
    )
    sk = split(stable_like_kernel(af, 2))
    u = GridFunction.bump((0.0, 0.0), 1.0, amplitude=1.5)
    rep = markov_check(u, sk, per_axis=9)
    assert rep.passed
    assert rep.lattice_nodes == 81


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_markov_check_random_lattice_functions(seed):
    rng = np.random.default_rng(seed)
    vals = np.zeros(9)
    vals[1:-1] = rng.uniform(-2.0, 2.0, size=7)
    u = GridFunction.sampled(Box((-1.0,), (1.0,)), vals)
    rep = markov_check(u, const_kernel(0.6))
    assert rep.passed, f"markov value {rep.value} below -{rep.tol}"


def test_bound_checks_variable_kernel():
    rep = bound_checks(U1, V, var_kernel())
    assert rep.lower_ok and rep.sector_ok
    assert rep.h_hat > 0.0
    assert rep.alpha0 == 0.5 * rep.h_hat
    assert rep.lower_slack >= -rep.tol
    assert rep.sector_c_min <= 2.0


def test_bound_checks_symmetric_kernel_is_cauchy_schwarz():
    # k_a = 0 kills the sector ratio, and the lattice form is then a genuine
    # inner product of differences, so the sampled constant sits below 1
    rep = bound_checks(U1, V, const_kernel())
    assert rep.h_hat == 0.0
    assert rep.alpha0 == 0.0
    assert rep.sector_c_min <= 1.0 + 1e-12


def test_bound_checks_2d():
    af = AlphaFunction(
        fn=lambda x: 0.9 + 0.15 * np.cos(np.asarray(x)[..., 0] + np.asarray(x)[..., 1]),
        alpha1=0.75,
        alpha2=1.05,
        dim=2,
    )
    sk = split(stable_like_kernel(af, 2))
    u = GridFunction.bump((0.0, 0.0), 1.0, amplitude=1.5)
    v = GridFunction.bump((0.0, 0.0), 0.8)
    rep = bound_checks(u, v, sk, per_axis=9)
    assert rep.lower_ok and rep.sector_ok
    assert rep.sector_c_min <= 2.0


def test_energy_raises_on_unresolved_far_tail():
    # orders down to 0.05 decay too slowly for the far field of k_s to resolve
    af = AlphaFunction(lambda x: 0.175 + 0.125 * np.sin(np.asarray(x)[..., 0]), alpha1=0.05, alpha2=0.3, dim=1)
    sk = split(stable_like_kernel(af, 1))
    u = GridFunction.bump((0.0,), 1.0)
    with pytest.raises(NoConvergence):
        energy_E(u, u, sk, outer_per_axis=3)
    with pytest.raises(NoConvergence):
        eta(u, u, sk, outer_per_axis=3)


def _energy_reference(u, v, k_s, zs, box, per_axis, m=200):
    """energy_E on the same cells with each density by Gauss-Legendre in
    t = sqrt|z|, which takes the |z|^-1.5 singularity out: the integral of
    (u(x) - u(y))(v(x) - v(y)) k_s over |y - x| <= zs, plus u(x) v(x) times
    the integral of k_s over y outside the box (the folded-back sliver)."""
    t, w = np.polynomial.legendre.leggauss(m)
    pts, vol = box.cell_lattice(per_axis)
    total = 0.0
    for (x,) in pts:
        ux, vx = float(u(np.array([x]))), float(v(np.array([x])))
        rho = 0.0
        for side, edge in ((1.0, box.hi[0] - x), (-1.0, x - box.lo[0])):
            # split at the box edge, where u, v and the indicator stop being smooth
            cuts = [0.0] + [c for c in (math.sqrt(edge),) if c < math.sqrt(zs)] + [math.sqrt(zs)]
            for a, b in zip(cuts[:-1], cuts[1:]):
                tt = 0.5 * (a + b) + 0.5 * (b - a) * t
                z = side * tt * tt
                y = (x + z)[:, None]
                ks = k_s(np.full_like(y, x), y)
                f = (ux - u(y)) * (vx - v(y)) + ux * vx * (np.abs(z) > edge)
                rho += float(np.sum(0.5 * (b - a) * w * f * ks * 2.0 * tt))
        total += rho
    return total * vol


def test_energy_density_stops_at_the_kernel_support():
    # z_support = 0.6 < r_break: no panel may run past it, where the kernel is
    # 0 by declaration, and the energy still matches a reference that
    # integrates only |z| <= 0.6
    zs = 0.6
    reached = []

    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        if r.size:
            reached.append(float(np.max(r)))
        with np.errstate(divide="ignore"):
            return np.where(r <= zs, (1.0 + 0.3 * np.tanh(y[..., 0])) * r**-1.5, 0.0)

    def k_s(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return (1.0 + 0.15 * (np.tanh(x[..., 0]) + np.tanh(y[..., 0]))) * r**-1.5

    sk = split(JumpKernel(1, k, label="compact-tanh", z_support=zs))
    u, v = GridFunction.bump((0.0,), 1.0), GridFunction.bump((0.3,), 0.8, 1.3)
    box = union_box(u, v)
    value = energy_E(u, v, sk, outer_per_axis=17)
    assert max(reached) <= zs
    ref = _energy_reference(u, v, k_s, zs, box, 17)
    assert abs(value - ref) <= 1e-8 + 1e-6 * abs(ref), (value, ref)
