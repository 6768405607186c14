import math

import numpy as np
import pytest

from jumpform import (
    AlphaFunction,
    Box,
    DomainError,
    JumpKernel,
    NoConvergence,
    SplitKernel,
    check_A0,
    check_FU,
    check_beta_integral,
    check_local_pv_bound,
    check_misc_integrability,
    check_sector_ratio,
    sector_ratio_at,
    split,
    stable_like_kernel,
)
from jumpform import _engine as eng
from jumpform.quadrature import DEFAULT_SCHEME


REGION = Box((-1.0,), (1.0,))


def const_kernel(alpha=1.0):
    return split(stable_like_kernel(AlphaFunction.constant(alpha, 1), 1))


def pool_kernel():
    af = AlphaFunction(
        fn=lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), alpha1=0.6, alpha2=1.0, dim=1
    )
    return split(stable_like_kernel(af, 1))


def shifted_kernel():
    """Bounded-support kernel k(x,y) = r^-3 (1 + sin x - sin y) on r <= 1.

    The truncated antisymmetric mass grows like 1/eps, so the
    principal-value condition fails on any compact where cos x != 0.
    """

    def raw(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        with np.errstate(divide="ignore"):
            vals = np.where(r > 0, r**-3.0, np.inf) * (
                1.0 + np.sin(x[..., 0]) - np.sin(y[..., 0])
            )
        return np.where(r <= 1.0, vals, 0.0)

    return split(JumpKernel(dim=1, eval=raw, z_support=1.0))


# ============================================================================
# A0: small-jump / large-jump integrability
# ============================================================================


def test_A0_constant_alpha_closed_form():
    # alpha = 1: integral of (1 ^ z^2) / (pi z^2) dz = (2 + 2)/pi
    rep = check_A0(const_kernel(1.0), REGION, per_axis=5)
    assert rep.condition_id == "A0"
    assert rep.verdict == "pass"
    assert math.isclose(rep.estimate, 4.0 / math.pi, rel_tol=1e-9), rep.estimate
    # constant kernels give the same value at every sample
    vals = rep.details["point_values"]
    assert max(vals) - min(vals) < 1e-12
    # L2 over [-1, 1]: sqrt(est^2 * 2)
    want_l2 = 4.0 / math.pi * math.sqrt(2.0)
    assert math.isclose(rep.details["l2_norm_over_region"], want_l2, rel_tol=1e-9)


def test_A0_variable_alpha_passes():
    rep = check_A0(pool_kernel(), REGION, per_axis=5)
    assert rep.verdict == "pass"
    assert rep.estimate > 0
    assert rep.samples == 5


# ============================================================================
# sector ratio h(x)
# ============================================================================


def test_sector_ratio_symmetric_kernel_is_zero():
    rep = check_sector_ratio(const_kernel(0.7), REGION, per_axis=5)
    assert rep.verdict == "pass"
    assert rep.estimate == 0.0


def test_sector_ratio_against_quadrature_oracle():
    # k_s = r^-1.5 on r <= 1, k_a = k_s * (sin y - sin x)/2; then
    # h(x) = (1/4) integral over |z|<=1 of |z|^-1.5 (sin(x+z) - sin x)^2 dz.
    def ks(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        with np.errstate(divide="ignore"):
            v = np.where(r > 0, r**-1.5, np.inf)
        return np.where(r <= 1.0, v, 0.0)

    def ka(x, y):
        return ks(x, y) * 0.5 * (np.sin(y[..., 0]) - np.sin(x[..., 0]))

    sk = SplitKernel.from_parts(1, ks, ka, z_support=1.0)
    x = 0.35
    got = sector_ratio_at(sk, np.array([x]))

    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def f(z):
        return mp.e ** (-1.5 * mp.log(abs(z))) * (mp.sin(x + z) - mp.sin(x)) ** 2 / 4

    want = mp.quad(f, [-1, -1e-12]) + mp.quad(f, [1e-12, 1])
    assert math.isclose(got, float(want), rel_tol=1e-5), (got, float(want))


# ============================================================================
# the C1/C2/C3 chain
# ============================================================================


def test_FU_rejects_bad_gamma():
    sk = const_kernel()
    for g in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            check_FU(sk, g, REGION)


def test_FU_constants_and_chain():
    reps = check_FU(pool_kernel(), 0.5, REGION, per_axis=5)
    assert [r.condition_id for r in reps] == ["A1", "A2", "A3"]
    for r in reps:
        assert r.verdict == "pass"
        assert r.gamma == 0.5
    a3 = reps[2]
    assert a3.details["h_chain_inequality_ok"]
    assert a3.details["C1_hat"] >= 0
    assert a3.details["C2_hat"] >= 0
    # h(x) itself must respect the chain at the sampled sup
    h = max(a3.details["h_point_values"])
    bound = a3.details["C2_hat"] * a3.details["C3_hat"] + a3.details["C1_hat"]
    assert h <= bound * (1 + 1e-6) + 1e-6, (h, bound)


def test_FU_symmetric_kernel_all_zero():
    reps = check_FU(const_kernel(1.2), 0.5, REGION, per_axis=3)
    assert all(r.estimate == 0.0 for r in reps)
    assert all(r.verdict == "pass" for r in reps)


def test_FU_symmetric_kernel_without_tail_metadata():
    # k_a vanishes identically and no tail bound is declared: the far march
    # of |k_a| must stop on the vanishing octaves, not run out and fail
    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return 1.0 / (r**1.5 * (1.0 + r * r))

    reps = check_FU(split(JumpKernel(dim=1, eval=k, symmetric_hint=True)), 0.5, Box((0.0,), (0.5,)), per_axis=2)
    assert reps[0].details["point_values"] == [0.0, 0.0]
    assert all(r.verdict == "pass" for r in reps)


def tanh_kernel():
    """k(x, y) = (1 + 0.3 tanh y) / (r^1.5 (1 + r^2)), infinite where x + z rounds to x."""

    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        with np.errstate(divide="ignore"):
            return (1.0 + 0.3 * np.tanh(y[..., 0])) / (r**1.5 * (1.0 + r * r))

    return split(JumpKernel(dim=1, eval=k, tail_exponent=2.5, tail_amplitude=1.35))


def test_FU_leaves_a_sample_whose_walk_reads_nan_unresolved():
    # with gamma = 1 the |k_a| shell walk at x = -0.5 reaches shells where
    # x + z == x, so k_a = inf - inf is NaN there: rounding, not divergence
    with np.errstate(invalid="ignore"):
        reps = check_FU(tanh_kernel(), 1.0, Box((-1.0,), (0.0,)), per_axis=3)
    assert [r.verdict for r in reps] == ["inconclusive"] * 3
    for r in reps:
        values = r.details["point_values"]
        assert math.isnan(values[1]) and all(math.isfinite(v) for v in values[::2])
        # the estimate and the hats skip the unresolved sample
        assert r.estimate == max(values[::2])
    hats = [reps[0].details[f"C{i}_hat"] for i in (1, 2, 3)]
    assert hats == [r.estimate for r in reps]
    assert reps[2].details["h_chain_inequality_ok"]
    assert reps[0].witness_points != ((-0.5,),)


def test_FU_fails_when_C2_overflows_the_cap():
    # |k_a| ~ r^-1.9 near the diagonal: the gamma = 1 shell masses grow like
    # 2^(0.9 i) and pass the magnitude cap before x + z rounds to x, a
    # certified blow-up that fails the check as in H5
    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        with np.errstate(divide="ignore"):
            return (1.0 + 0.5 * np.tanh(y[..., 0])) / r**2.9

    sk = split(JumpKernel(dim=1, eval=k, tail_exponent=2.9, tail_amplitude=1.5))
    with np.errstate(invalid="ignore"):
        reps = check_FU(sk, 1.0, Box((-1.0,), (0.0,)), per_axis=3)
    assert [r.verdict for r in reps] == ["fail"] * 3
    for r in reps:
        assert r.details["point_values"] == [math.inf] * 3
        assert r.estimate == math.inf
    assert [reps[0].details[f"C{i}_hat"] for i in (1, 2, 3)] == [math.inf] * 3


# ============================================================================
# truncated antisymmetric mass (principal-value condition)
# ============================================================================


def test_pv_bound_passes_for_stable_kernel():
    rep = check_local_pv_bound(pool_kernel(), [REGION], per_axis=5)
    assert rep.condition_id == "H5"
    assert rep.verdict == "pass"
    assert np.isfinite(rep.estimate)
    assert all(p["cauchy"] for p in rep.details["per_point"])
    assert rep.details["weaklimit_estimate"] == 2.0 * rep.estimate


def test_pv_bound_fails_for_drifting_kernel():
    box = Box((1.0,), (2.0,))
    rep = check_local_pv_bound(shifted_kernel(), [box], per_axis=3)
    assert rep.verdict == "fail"
    assert rep.witness_points, "a failing check must name a witness"
    w = rep.witness_points[0][0]
    assert 1.0 <= w <= 2.0


def test_pv_bound_needs_compacts():
    with pytest.raises(DomainError):
        check_local_pv_bound(pool_kernel(), [])


# ============================================================================
# drift moment, far-field mass, pair differences
# ============================================================================


def test_misc_symmetric_kernel_closed_forms():
    reps = check_misc_integrability(const_kernel(1.0), REGION, per_axis=5)
    ids = [r.condition_id for r in reps]
    assert ids == ["COND4", "H2", "H3"]
    cond4, h2, h3 = reps
    # k_a = 0 identically
    assert cond4.estimate == 0.0
    # first-argument kernel depends on |x-y| only: the pair differences vanish
    assert h3.estimate == 0.0
    # far mass: integral over |z| >= 1 of 1/(pi z^2) dz = 2/pi
    assert math.isclose(h2.estimate, 2.0 / math.pi, rel_tol=1e-9), h2.estimate
    assert h2.details["pass_mode"] == "sup_or_l2"
    for r in reps:
        assert r.verdict == "pass"


def test_misc_variable_alpha_passes():
    reps = check_misc_integrability(pool_kernel(), REGION, per_axis=5)
    assert all(r.verdict == "pass" for r in reps)
    # the transposed pair difference is genuinely nonzero here
    assert reps[2].estimate > 0


# ============================================================================
# the order-modulus integral
# ============================================================================


def test_beta_integral_linear_modulus_exact_value():
    af = AlphaFunction.constant(1.0, 1)
    rep = check_beta_integral(af, beta=lambda r: np.asarray(r, dtype=float))
    assert rep.condition_id == "BETA_INT"
    assert rep.verdict == "pass"
    # integral of (r |log r|)^2 r^-2 dr over (0,1] = integral of (log r)^2 = 2
    assert math.isclose(rep.estimate, 2.0, rel_tol=1e-3), rep.estimate
    det = rep.details
    assert det["absolute_variant_status"] == "diverged"
    assert math.isclose(det["cs_integral"], 1.0, rel_tol=1e-6)
    assert det["gamma_prime"] == 0.25
    assert math.isclose(det["cs_bound"], 2.0, rel_tol=1e-3)
    assert det["cs_inequality_ok"]
    assert not det["modulus_extrapolated"]


def test_beta_integral_measured_modulus():
    af = AlphaFunction(
        fn=lambda x: 1.0 + 0.1 * np.sin(x[..., 0]), alpha1=0.9, alpha2=1.1, dim=1
    )
    rep = check_beta_integral(af, Box((-8.0,), (8.0,)))
    assert rep.verdict == "pass"
    assert rep.details["modulus_extrapolated"]
    assert np.isfinite(rep.estimate)


def test_beta_integral_divergent_modulus_fails():
    af = AlphaFunction.constant(1.0, 1)
    rep = check_beta_integral(af, beta=lambda r: np.sqrt(np.asarray(r, dtype=float)))
    assert rep.verdict == "fail"
    assert rep.details["main_status"] == "diverged"


def test_beta_integral_requires_domain_or_override():
    with pytest.raises(DomainError):
        check_beta_integral(AlphaFunction.constant(1.0, 1))


@pytest.mark.xfail(
    strict=True,
    reason="the FU C2 walk ends on the exact zeros of shells where x + z rounds to x, not on decay",
)
@pytest.mark.parametrize("x0", (0.5, 1.2))
def test_FU_C2_walk_does_not_sum_below_the_rounding_floor(x0):
    # README kernel: the |k_a|^0.5 shell masses stop decaying near 3.5e-9
    # (x = 0.5) and 2e-8 (x = 1.2), then read exactly 0 where x + z == x, and
    # two zero shells end the walk with tail bound 0
    sk = split(stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0)))
    pairs = eng.faces_of(sk.base, sk)["anti"].pairs
    x = np.array([x0])
    sch = DEFAULT_SCHEME
    try:
        _, _, walked = eng.shell_refine(
            pairs, x, sch.r_break, sch, (lambda Z, tab: np.abs(tab["anti"]) ** 0.5,), tol=0.25 * sch.tol_abs
        )
    except NoConvergence:
        return  # reported unconverged: acceptable
    floor = 8.0 * abs(x0) * 2.0**-52
    assert sch.r_break * 2.0**-walked > floor
