"""Batched evaluation of the stable-like hot path reproduces the unbatched
arithmetic bit for bit.

The references below are the straightforward forms of the same
computations: a gamma that always splits its arguments by mask and sums the
Lanczos series out of place, weight_w of each order on its own as a Python
float, and +z/-z sums that call fn twice.  The batched code must agree with
them exactly, not merely to rounding.
"""

import numpy as np
import pytest

from jumpform import AlphaFunction, DomainError, stable_like_kernel, weight_w
from jumpform import _engine as eng
from jumpform import kernels
from jumpform._gamma import _COEF, _G, _SQRT_TWO_PI, gamma
from jumpform.quadrature import DEFAULT_SCHEME

from one_point import face_at


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _ref_gamma_shifted(z):
    zm1 = z - 1.0
    x = np.full_like(zm1, _COEF[0])
    for i in range(1, len(_COEF)):
        x = x + _COEF[i] / (zm1 + i)
    t = zm1 + _G + 0.5
    return _SQRT_TWO_PI * t ** (zm1 + 0.5) * np.exp(-t) * x


def _ref_gamma(z):
    arr = np.atleast_1d(np.asarray(z, dtype=float))
    scalar = np.ndim(z) == 0
    out = np.empty_like(arr)
    hi = arr >= 0.5
    if np.any(hi):
        out[hi] = _ref_gamma_shifted(arr[hi])
    lo = ~hi
    if np.any(lo):
        zl = arr[lo]
        out[lo] = np.pi / (np.sin(np.pi * zl) * _ref_gamma_shifted(1.0 - zl))
    return float(out[0]) if scalar else out


def _ref_weight_w(alpha, n):
    """weight_w of every order on its own, as a Python float, shaped like alpha."""
    a = np.asarray(alpha, dtype=float)
    return np.array([weight_w(v, n) for v in a.ravel().tolist()]).reshape(a.shape)


def _ref_integrate_1d(ns, fn):
    zp = ns.r[:, None]
    vals = np.asarray(fn(zp), dtype=float) + np.asarray(fn(-zp), dtype=float)
    return float(np.dot(ns.wr, vals)) if vals.ndim == 1 else ns.wr @ vals


def _ref_far_samples(dim, lo, hi, scheme):
    m = 32 * scheme.nodes_per_annulus
    i = np.arange(m, dtype=float)
    r = lo + (i + np.mod(i * eng._PHI1, 1.0)) / m * (hi - lo)
    if dim == 1:
        return r, r[:, None]
    theta = eng.TWO_PI * np.mod(i * eng._PHI2, 1.0)
    return r, np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def _ref_band_value_far(fn, dim, lo, hi, scheme):
    r, z = _ref_far_samples(dim, lo, hi, scheme)
    vals = 0.5 * (np.asarray(fn(z), dtype=float) + np.asarray(fn(-z), dtype=float))
    if dim == 1:
        return float(2.0 * (hi - lo) * np.mean(vals))
    return float(eng.TWO_PI * (hi - lo) * np.mean(vals * r))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

SIZES = (1, 511, 512, 1024, 8191, 8192, 8193)


def _alphas(size, seed=0):
    """Orders on both sides of 1, so 1 - alpha/2 falls on both sides of 0.5."""
    rng = np.random.default_rng(seed + size)
    a = rng.uniform(0.05, 1.95, size)
    a[: min(size, 4)] = [0.8, 1.2, 1.0, 1.95][: min(size, 4)]
    return a


def _counting(fn):
    calls = []

    def wrapped(Z):
        calls.append(np.shape(Z))
        return fn(Z)

    return wrapped, calls


def _readme_faces(dim):
    if dim == 1:
        af = AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0)
    else:
        af = AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) * np.cos(x[..., 1]), 0.6, 1.0, dim=2)
    return eng.faces_of(stable_like_kernel(af))


# ---------------------------------------------------------------------------
# gamma and weight_w
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", SIZES)
def test_gamma_matches_reference(size):
    rng = np.random.default_rng(size)
    above = rng.uniform(0.5, 6.0, size)
    mixed = rng.uniform(-3.0, 3.0, size)
    mixed[np.isclose(mixed, np.round(mixed))] = 0.3  # keep off the poles
    for z in (above, mixed, 1.0 - above / 4.0):
        assert np.array_equal(gamma(z), _ref_gamma(z))


def test_gamma_scalar_and_shapes_match_reference():
    for z in (0.5, 0.7, 0.3, 1.6, -0.5, 3.25):
        got = gamma(z)
        assert isinstance(got, float) and got == _ref_gamma(z)
    z = np.random.default_rng(3).uniform(-1.9, 4.0, (64, 33))
    got = gamma(z)
    assert got.shape == z.shape
    assert np.array_equal(got, _ref_gamma(z))


def test_gamma_poles_still_raise():
    for bad in (0.0, -1.0, np.array([0.7, 1.5, -2.0]), np.full((3, 4), -3.0)):
        with pytest.raises(DomainError):
            gamma(bad)


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("size", SIZES)
def test_weight_w_matches_reference(size, n):
    # the sizes fall on both sides of the block length _W_BLOCK
    a = _alphas(size)
    got = weight_w(a, n)
    assert got.shape == a.shape
    assert np.array_equal(got, _ref_weight_w(a, n))


@pytest.mark.parametrize("n", (1, 2))
def test_weight_w_scalar_matches_reference(n):
    for a in (0.05, 0.6, 0.8, 1.0, 1.2, 1.5, 1.95, 1e-12, 2.0 - 2.0**-40):
        alone = weight_w(a, n)
        assert isinstance(alone, float)
        for same in (np.float64(a), np.array(a)):
            got = weight_w(same, n)
            assert isinstance(got, float) and got == alone
    # arrays on both sides of the Python-float limit _W_SMALL
    a = _alphas(999, seed=n)
    for size in (1, 2, kernels._W_SMALL - 1, kernels._W_SMALL, kernels._W_SMALL + 1, 2 * kernels._W_SMALL):
        assert np.array_equal(weight_w(a[:size], n), _ref_weight_w(a[:size], n))
    assert np.array_equal(weight_w(a, n), _ref_weight_w(a, n))


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("shape", ((1, 1), (3, 4), (64, 129), (2, 8193), (4097, 3)))
def test_weight_w_matrix_shapes_match_reference(shape, n):
    a = _alphas(int(np.prod(shape)), seed=7).reshape(shape)
    got = weight_w(a, n)
    assert got.shape == shape
    assert np.array_equal(got, _ref_weight_w(a, n))
    # a strided view evaluates like its contiguous copy
    assert np.array_equal(weight_w(a.T, n), _ref_weight_w(a.T, n))


def test_weight_w_out_of_range_still_raises():
    a = _alphas(9000)
    for bad in (0.0, 2.0, -0.1, 2.5):
        b = a.copy()
        b[-1] = bad  # in the last block
        with pytest.raises(DomainError):
            weight_w(b, 1)
        with pytest.raises(DomainError):
            weight_w(bad, 2)
    with pytest.raises(DomainError):
        weight_w(a, 3)


# ---------------------------------------------------------------------------
# +z/-z sums in one call
# ---------------------------------------------------------------------------


def test_integrate_1d_one_call_matches_two_calls():
    face = _readme_faces(1)["transposed"]
    x = np.array([0.3])
    for lo, hi in ((1e-4, 0.5), (0.5, 1.0), (1.0, 60.0)):
        ns = eng.make_nodes(1, lo, hi, DEFAULT_SCHEME)
        fn = lambda Z: face_at(face, x, Z)
        vec = lambda Z: np.stack([face_at(face, x, Z), Z[..., 0] * face_at(face, x, Z)], axis=-1)
        for f in (fn, vec):
            counted, calls = _counting(f)
            got = ns.integrate(counted)
            assert len(calls) == 1 and calls[0] == (2 * len(ns.r), 1)
            assert np.array_equal(got, _ref_integrate_1d(ns, f))


def test_uncapped_integral_matches_two_calls():
    face = _readme_faces(1)["direct"]
    x = np.array([-0.2])
    ns = eng.make_nodes(1, 1e-4, 2.0, DEFAULT_SCHEME)
    fn = lambda Z: face_at(face, x, Z)
    counted, calls = _counting(fn)
    assert ns.sum(counted) == _ref_integrate_1d(ns, fn)
    assert len(calls) == 1


def test_integrate_2d_calls_fn_once():
    face = _readme_faces(2)["transposed"]
    x = np.array([0.1, -0.2])
    ns = eng.make_nodes(2, 0.5, 2.0, DEFAULT_SCHEME)
    counted, calls = _counting(lambda Z: face_at(face, x, Z))
    ns.integrate(counted)
    assert len(calls) == 1


@pytest.mark.parametrize("dim", (1, 2))
def test_band_value_far_one_call_matches_two_calls(dim):
    face = _readme_faces(dim)["transposed"]
    x = np.full(dim, 0.25)
    fn = lambda Z: face_at(face, x, Z)
    # one point is the block of one
    X = x[None]
    for lo in (64.0, 256.0, 4096.0):
        hi = lo * DEFAULT_SCHEME.growth
        counted, calls = _counting(fn)
        got = eng.band_value_far(lambda Xb, Z, rows: ((counted(Z), {}),), dim, [lo], [hi], DEFAULT_SCHEME, True, X)
        assert len(calls) == 1 and calls[0][-2] == 2 * 32 * DEFAULT_SCHEME.nodes_per_annulus
        assert got == [(_ref_band_value_far(fn, dim, lo, hi, DEFAULT_SCHEME),)]
    # the resolvable bands are one NodeSet sum, also one call
    counted, calls = _counting(fn)
    eng.band_value_far(lambda Xb, Z, rows: ((counted(Z), {}),), dim, [2.0], [2.0 * DEFAULT_SCHEME.growth], DEFAULT_SCHEME, True, X)
    assert len(calls) == 1
