import math

import numpy as np
import pytest

from jumpform import (
    AlphaFunction,
    Box,
    DomainError,
    JumpKernel,
    NegativeKernel,
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

from one_point import shell_refine


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


def test_pv_bound_is_not_cauchy_where_the_far_field_does_not_resolve():
    # k_a(x, y) ~ 0.15 (exp(-y^2) - exp(-x^2)) / r^1.5 decays only like
    # 1/r beyond the unit ball, so the antisymmetric mass diverges there;
    # with no tail metadata the far march reports it unresolved, and the
    # near-field ladder alone must not pass as Cauchy
    def raw(x, y):
        r = np.abs(y[..., 0] - x[..., 0])
        return (1.0 + 0.3 * np.exp(-y[..., 0] ** 2)) * (1.0 + np.sqrt(r)) / r**1.5

    sk = split(JumpKernel(dim=1, eval=raw, symmetric_hint=False))
    rep = check_local_pv_bound(sk, [Box((-0.5,), (0.5,))], per_axis=3)
    assert rep.verdict in ("inconclusive", "fail")
    assert not any(p["cauchy"] for p in rep.details["per_point"])
    assert set(rep.details["per_point"][0]) == {"x", "sup", "cauchy"}


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
    (walk,), _, walked = shell_refine(
        pairs, x[None], sch.r_break, sch, (lambda _, Z, tab: np.abs(tab["anti"]) ** 0.5,), tol=0.25 * sch.tol_abs
    )
    if isinstance(walk, NoConvergence):
        return  # reported unconverged: acceptable
    floor = 8.0 * abs(x0) * 2.0**-52
    assert sch.r_break * 2.0**-walked > floor


# ============================================================================
# one request, one walk: the conditions of a check request share their shells
# ============================================================================


def _expression(dim):
    from jumpform.config import _build_kernel

    spec = {  # the expression kernels of the generic-cli benchmark
        1: {"type": "expression", "dim": 1, "expr": "(1 + 0.3*tanh(y)) / (r**1.5 * (1 + r**2))",
            "tail_exponent": 2.5, "tail_amplitude": 1.35},
        2: {"type": "expression", "dim": 2, "expr": "(1 + 0.25*sin(x1) - 0.25*sin(y2)) / r**2.4", "z_support": 1.0},
    }[dim]
    return _build_kernel(spec, [])


def _pocket(g):
    # g(|y + 6| - 0.2) / r^1.5 within r < 1.5, g(t) = sqrt(t) reading NaN in the pocket
    def k(x, y, g=g):
        r = np.abs(x[..., 0] - y[..., 0])
        return np.where(r < 1.5, g(x) * np.sqrt(np.abs(y[..., 0] + 6.0) - 0.2) / r**1.5, 0.0)

    return k


def _mixed_parts():
    # k_a ~ |z|^q near the diagonal: q = -1 at the midpoint 0, so only |k_a|
    # itself (FU's C2 at gamma = 1) does not converge at x = 0, and q = -0.6
    # near -0.5, where the walks that read k_a meet NaN at x + z == x
    def ks(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return np.exp(-r) / r**1.5

    def ka(x, y):
        d = x[..., 0] - y[..., 0]
        m = 0.5 * (x[..., 0] + y[..., 0])
        q = np.where(np.abs(m) < 0.25, -1.0, np.where(m < 0.0, -0.6, 0.0))
        return 0.1 * np.sign(d) * np.abs(d) ** q * np.exp(-np.abs(d))

    return SplitKernel.from_parts(1, ks, ka, label="mixed-1d", z_support=2.0)


def _pocket_2d(low=-np.inf):
    # NaN in the disc |y - (0.5, 0)| < 0.2, and negative where y2 < low
    def k(x, y):
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        g = np.where(y[..., 1] < low, -1.0, 1.0)
        return g * np.sqrt(np.sqrt((y[..., 0] - 0.5) ** 2 + y[..., 1] ** 2) - 0.2) / r**2.4

    return split(JumpKernel(dim=2, eval=k, label="pocket-2d", z_support=1.0))


def _minus_only_2d():
    # NaN on the pairs (x, y) with x1 == 0.3, y2 == 0 and y1 < x1: from the
    # sample (0.3, 0) only its -z nodes of direction 0 meet them (-z is
    # exactly (-r, -0.0) there, while no +z node has z2 == 0 and z1 < 0)
    def k(x, y):
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        ray = (x[..., 0] == 0.3) & (y[..., 1] == 0.0) & (y[..., 0] < x[..., 0])
        return np.where(ray, np.nan, 1.0 + 0.25 * np.sin(x[..., 0]) - 0.25 * np.sin(y[..., 1])) / r**2.4

    return split(JumpKernel(dim=2, eval=k, label="minus-only-2d", z_support=1.0))


_SOLO = {
    "A0": lambda sk, region, gamma, n: [check_A0(sk, region, per_axis=n)],
    "H4": lambda sk, region, gamma, n: [check_sector_ratio(sk, region, per_axis=n)],
    "FU": lambda sk, region, gamma, n: check_FU(sk, gamma, region, per_axis=n),
    "H5": lambda sk, region, gamma, n: [check_local_pv_bound(sk, [region], per_axis=n)],
    "MISC": lambda sk, region, gamma, n: check_misc_integrability(sk, region, per_axis=n),
}
_REQUESTS = {
    "generic-cli-1d": (lambda: _expression(1), Box((-1.0,), (1.0,)), 0.5, 5),
    "generic-cli-2d": (lambda: _expression(2), Box((-1.0, -1.0), (1.0, 1.0)), 0.5, 3),
    "readme-order": (pool_kernel, Box((-1.0,), (1.0,)), 0.5, 5),
    "dense-points-2d-order": (
        lambda: split(stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) * np.cos(x[..., 1]), 0.6, 1.0, dim=2))),
        Box((-0.5, -0.5), (0.5, 0.5)), 0.5, 3,
    ),
    "constant-order": (lambda: const_kernel(1.2), Box((-0.5,), (0.5,)), 0.5, 3),
    "pocket": (lambda: split(JumpKernel(1, _pocket(lambda x: 1.0), label="sqrt-pocket", z_support=1.5)), Box((-5.0,), (-3.0,)), 0.5, 5),
    "sqrt-pair": (
        lambda: split(JumpKernel(1, _pocket(lambda x: np.where(x[..., 0] < -5.5, -1.0, 1.0)), label="sqrt-pair", z_support=1.5)),
        Box((-5.0,), (-3.0,)), 0.5, 5,
    ),
    "mixed-parts": (_mixed_parts, Box((-0.5,), (1.0,)), 1.0, 4),
    "pocket-2d": (_pocket_2d, Box((0.8, -0.5), (1.8, 0.5)), 0.5, 3),
    "negative-2d": (lambda: _pocket_2d(-1.2), Box((0.8, -0.5), (1.8, 0.5)), 0.5, 3),
    "minus-only-2d": (_minus_only_2d, Box((0.3, 0.0), (0.9, 0.6)), 0.5, 3),
}


def _request(sk, region, gamma, n, names):
    from jumpform import config

    req = {"op": "check", "conditions": names, "gamma": gamma, "per_axis": n}
    return config._run_check(req, config.RunConfig(sk, DEFAULT_SCHEME, region, {}, (req,), 1, None, {}))["reports"]


def _alone(sk, region, gamma, n, name):
    try:
        return _SOLO[name](sk, region, gamma, n)
    except NegativeKernel as exc:
        return [{"condition_id": name, "error": f"{type(exc).__name__}: {exc}"}]


@pytest.mark.parametrize("case", list(_REQUESTS))
def test_each_condition_of_a_request_reports_what_it_reports_alone(case):
    make, region, gamma, n = _REQUESTS[case]
    # the conditions in request order, then in another order with one twice
    for names in (["A0", "H4", "FU", "H5", "MISC"], ["MISC", "H5", "FU", "A0", "H4", "A0"]):
        with np.errstate(all="ignore"):
            got = _request(make(), region, gamma, n, names)
            want = [r for name in names for r in _alone(make(), region, gamma, n, name)]
        assert repr(got) == repr(want)


def test_a_sample_that_fails_in_one_condition_keeps_its_values_in_the_others():
    # at x = 0 only FU's |k_a| walk does not converge; the request walks that
    # sample for all 80 shells, and every other condition resolves it
    make, region, gamma, n = _REQUESTS["mixed-parts"]
    with np.errstate(all="ignore"):
        reports = {r.condition_id: r for r in _request(make(), region, gamma, n, ["A0", "H4", "FU", "MISC"])}
    x0 = reports["A2"].details["points"].index((0.0,))
    assert reports["A2"].details["point_values"][x0] == math.inf
    for cid in ("A0", "H4", "COND4", "H2", "H3"):
        assert math.isfinite(reports[cid].details["point_values"][x0]), cid


def test_a_request_walks_its_shells_twice(monkeypatch):
    # A0, H4, FU and MISC at the same samples: one walk on the scheme and one
    # on the refined scheme, where the conditions alone walk six times
    calls = []
    walk = eng._walk_shells

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return walk(*args, **kwargs)

    monkeypatch.setattr(eng, "_walk_shells", counted)
    for dim in (1, 2):
        make, region, gamma, n = _REQUESTS[f"generic-cli-{dim}d"]
        del calls[:]
        _request(make(), region, gamma, n, ["A0", "H4", "FU", "MISC"])
        assert calls == [n**dim, n**dim]
        del calls[:]
        for name in ("A0", "H4", "FU", "MISC"):
            _SOLO[name](make(), region, gamma, n)
        assert calls == [n**dim] * 6
