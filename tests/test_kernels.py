import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpform import kernels
from jumpform import (
    AlphaFunction,
    Box,
    DomainError,
    JumpKernel,
    NegativeKernel,
    SplitKernel,
    beta_modulus,
    beta_profile,
    split,
    stable_like_kernel,
    transpose,
    weight_w,
)


def make_alpha(c=1.0, amp=0.1, a1=None, a2=None):
    def fn(x):
        return c + amp * np.tanh(x[..., 0])

    return AlphaFunction(fn=fn, alpha1=a1 or c - abs(amp), alpha2=a2 or c + abs(amp), dim=1)


# ============================================================================
# weight_w
# ============================================================================


def test_weight_closed_form_alpha_one():
    assert math.isclose(weight_w(1.0, 1), 1.0 / math.pi, rel_tol=0, abs_tol=1e-12)


def test_weight_closed_form_alpha_half():
    target = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))
    assert math.isclose(weight_w(0.5, 1), target, rel_tol=0, abs_tol=1e-12)


def test_weight_rejects_out_of_range():
    for bad in (0.0, 2.0, -0.3, 2.5):
        with pytest.raises(DomainError):
            weight_w(bad, 1)


def test_weight_rejects_nan():
    with pytest.raises(DomainError):
        weight_w(float("nan"), 1)
    a = np.full(9000, 0.8)
    a[-1] = np.nan  # in the last block
    for n in (1, 2):
        with pytest.raises(DomainError):
            weight_w(a, n)


@given(st.floats(min_value=0.05, max_value=1.95))
@settings(deadline=None, max_examples=60)
def test_weight_positive(alpha):
    assert weight_w(alpha, 1) > 0.0
    assert weight_w(alpha, 2) > 0.0


# ============================================================================
# kernels and splitting
# ============================================================================


def test_stable_kernel_value():
    af = AlphaFunction.constant(1.0, 1)
    k = stable_like_kernel(af, 1)
    # w(1) / |z|^2 at |z| = 2
    v = float(k(np.array([0.0]), np.array([2.0])))
    assert math.isclose(v, (1.0 / math.pi) / 4.0, rel_tol=1e-14)


def test_stable_kernel_diagonal_raises():
    k = stable_like_kernel(AlphaFunction.constant(1.0, 1), 1)
    with pytest.raises(DomainError):
        k(np.array([0.3]), np.array([0.3]))


def test_negative_kernel_detected():
    def bad(x, y):
        return np.sin(x[..., 0] - y[..., 0])

    k = JumpKernel(dim=1, eval=bad)
    with pytest.raises(NegativeKernel):
        k(np.array([0.0]), np.array([1.0]))


def test_nan_kernel_value_detected():
    def nan_far(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return np.where(r > 1.0, np.nan, 1.0)

    k = JumpKernel(dim=1, eval=nan_far)
    assert float(k(np.array([0.0]), np.array([0.5]))) == 1.0
    with pytest.raises(NegativeKernel, match="nan"):
        k(np.array([0.0]), np.array([[0.5], [2.0]]))


@pytest.mark.parametrize(
    "meta",
    (
        {"tail_exponent": -1.0},
        {"tail_exponent": 0.0},
        {"tail_exponent": float("nan")},
        {"tail_amplitude": -0.5},
        {"tail_amplitude": float("nan")},
        {"z_support": 0.0},
        {"z_support": -2.0},
        {"z_support": float("nan")},
    ),
)
def test_bad_tail_metadata_rejected(meta):
    with pytest.raises(DomainError):
        JumpKernel(dim=1, eval=lambda x, y: np.ones(np.shape(x)[:-1]), **meta)
    with pytest.raises(DomainError):
        SplitKernel.from_parts(1, lambda x, y: 1.0, lambda x, y: 0.0, **meta)


def test_good_tail_metadata_accepted():
    k = JumpKernel(dim=1, eval=lambda x, y: 1.0, tail_exponent=2.5, tail_amplitude=0.0, z_support=3.0)
    assert transpose(k).tail_exponent == 2.5


def test_transpose_swaps_arguments():
    af = make_alpha()
    k = stable_like_kernel(af, 1)
    kt = transpose(k)
    x = np.array([0.4])
    y = np.array([-0.2])
    assert float(kt(x, y)) == float(k(y, x))


def test_split_reconstructs_and_antisymmetry():
    af = make_alpha()
    sk = split(stable_like_kernel(af, 1))
    rng = np.random.default_rng(3)
    xs = rng.uniform(-2, 2, size=(40, 1))
    ys = xs + rng.uniform(0.05, 2.0, size=(40, 1)) * rng.choice([-1.0, 1.0], size=(40, 1))
    ks = sk.k_s(xs, ys)
    ka = sk.k_a(xs, ys)
    assert np.allclose(ks + ka, sk.base(xs, ys), rtol=1e-12)
    assert np.allclose(sk.k_s(ys, xs), ks, rtol=1e-12)
    assert np.allclose(sk.k_a(ys, xs), -ka, rtol=1e-12)
    # admissibility: |k_a| <= k_s pointwise
    assert np.all(np.abs(ka) <= ks * (1 + 1e-12))


def test_split_symmetric_hint_gives_exact_zero_antipart():
    sk = split(stable_like_kernel(AlphaFunction.constant(0.7, 1), 1))
    xs = np.array([[0.1], [1.2]])
    ys = np.array([[0.9], [-0.3]])
    assert np.all(sk.k_a(xs, ys) == 0.0)


@given(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=0.05, max_value=2.0),
)
@settings(deadline=None, max_examples=60)
def test_split_antisymmetry_property(x, dz):
    af = make_alpha(0.9, 0.2)
    sk = split(stable_like_kernel(af, 1))
    a1 = float(sk.k_a(np.array([x]), np.array([x + dz])))
    a2 = float(sk.k_a(np.array([x + dz]), np.array([x])))
    assert math.isclose(a1, -a2, rel_tol=1e-10, abs_tol=1e-15)


# ============================================================================
# alpha function and its modulus of continuity
# ============================================================================


def test_alpha_range_validation():
    with pytest.raises(DomainError):
        AlphaFunction(fn=lambda x: x[..., 0], alpha1=0.0, alpha2=1.0, dim=1)
    with pytest.raises(DomainError):
        AlphaFunction(fn=lambda x: x[..., 0], alpha1=0.5, alpha2=2.0, dim=1)


def test_constant_alpha_exact_derivatives():
    af = AlphaFunction.constant(1.3, 1)
    assert af.is_constant
    assert np.all(af.grad(np.array([[0.2]])) == 0.0)
    assert np.all(af.hess(np.array([[0.2]])) == 0.0)


def test_beta_modulus_sine_oracle():
    # alpha(x) = 1 + 0.1 sin x has modulus beta(r) = 0.2 sin(r/2) for r <= pi
    af = AlphaFunction(
        fn=lambda x: 1.0 + 0.1 * np.sin(x[..., 0]), alpha1=0.9, alpha2=1.1, dim=1
    )
    dom = Box((-8.0,), (8.0,))
    for r in (0.1, 0.5, 1.0, 2.0):
        got = beta_modulus(af, r, dom)
        want = 0.2 * math.sin(r / 2.0)
        assert math.isclose(got, want, rel_tol=2e-2), (r, got, want)


def test_beta_profile_monotone():
    af = make_alpha(0.8, 0.3)
    dom = Box((-5.0,), (5.0,))
    seps, osc = beta_profile(af, dom)
    assert np.all(np.diff(seps) > 0)
    assert np.all(np.diff(osc) >= -1e-15)


@given(st.floats(min_value=0.01, max_value=2.0), st.floats(min_value=0.01, max_value=2.0))
@settings(deadline=None, max_examples=40)
def test_beta_modulus_monotone_property(r1, r2):
    af = make_alpha(1.0, 0.2)
    dom = Box((-4.0,), (4.0,))
    lo, hi = min(r1, r2), max(r1, r2)
    assert beta_modulus(af, lo, dom) <= beta_modulus(af, hi, dom) + 1e-15


def test_beta_profile_cache_survives_recycled_ids():
    # each AlphaFunction is collected before the next is made, so CPython is
    # free to hand the next one the same id()
    dom = Box((-1.0,), (1.0,))
    spacing = 2.0**-6
    for i in range(50):
        c = 0.10 + 0.01 * i
        af = AlphaFunction(lambda x, c=c: 0.8 + c * np.sin(x[..., 0]), 0.8 - c, 0.8 + c)
        got = beta_modulus(af, 0.5, dom, spacing)
        saved = dict(kernels._PROFILE_CACHE)
        kernels._PROFILE_CACHE.clear()
        try:
            cold = beta_modulus(af, 0.5, dom, spacing)
        finally:
            kernels._PROFILE_CACHE.clear()
            kernels._PROFILE_CACHE.update(saved)
        assert got == cold, (i, got, cold)
        del af, saved
        gc.collect()
