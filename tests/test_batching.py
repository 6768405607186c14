"""Batched evaluation of the stable-like hot path reproduces the unbatched
arithmetic bit for bit.

The references below are the straightforward forms of the same
computations: weight_w of each order on its own as a Python float, and
+z/-z sums that call fn twice.  The batched code must agree with
them exactly, not merely to rounding.
"""

import math

import numpy as np
import pytest

from jumpform import AlphaFunction, DomainError, GridFunction, apply_B, apply_L, energy_E, split, stable_like_kernel, weight_w
from jumpform import _engine as eng
from jumpform import forms, kernels
from jumpform.quadrature import DEFAULT_SCHEME

from one_point import face_at


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


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
# weight_w
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the even direct face, and the panels a call shares
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", (1, 2))
def test_direct_face_is_even_on_the_signed_mid_set(dim):
    # generator_block forms no drift integrand on a power law's direct face:
    # k(x, x+z) and k(x, x-z) have the same bits, so z (k(x, x+z) - k(x, x-z)) is 0
    pairs = _readme_faces(dim)["direct"].pairs
    Z = eng.make_nodes(dim, eng.S_INNER, DEFAULT_SCHEME.r_break, DEFAULT_SCHEME).offsets()
    coords = (-0.0, 0.0, 0.3, -1.7, 2.5e-9, 40.0)
    X = np.array([[c] for c in coords] if dim == 1 else [[c, d] for c in coords for d in (-0.0, 0.7, -2.2)])
    tab = pairs.table(X[:, None, :], Z, signed=True)
    k, minus = tab["direct"], tab.minus("direct")
    assert k.tobytes() == minus.tobytes()


class _CountingMemo(dict):
    """A make_nodes memo that records every panel stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def _memo_his(lo):
    # ladder edges from lo, each exactly and within 1e-12 of it, between
    # edges, and at or below lo
    edges = [lo * DEFAULT_SCHEME.growth**k for k in range(1, 6)]
    near = [e * f for e in edges for f in (1.0 - 1e-12, 1.0 + 1e-12)] + [e + d for e in edges for d in (-1e-12, 1e-12)]
    return edges + near + [lo * 2.7, lo * 11.3, lo * 37.2, lo, lo * 0.5]


@pytest.mark.parametrize("dim", (1, 2))
@pytest.mark.parametrize("lo", (eng.S_INNER, DEFAULT_SCHEME.r_break))
@pytest.mark.parametrize("cap", (None, math.pi / (2 * 0.5), math.pi / (2 * 2.0)))
@pytest.mark.parametrize("support", (None, 0.6, 3.0, 4.0, 1e3))
def test_memo_sets_have_the_bits_of_lone_sets(dim, lo, cap, support):
    # a support inside the range, on a ladder edge, and beyond it; the wave
    # panel caps pi / (2 xi) of xi = 0.5 and 2
    his = _memo_his(lo)
    for order in (his, his[::-1]):
        memo = _CountingMemo()
        for hi in order:
            got = eng.make_nodes(dim, lo, hi, DEFAULT_SCHEME, cap, support, memo)
            want = eng.make_nodes(dim, lo, hi, DEFAULT_SCHEME, cap, support)
            assert repr(got.r.tolist()) == repr(want.r.tolist()), hi
            assert repr(got.wr.tolist()) == repr(want.wr.tolist()), hi
            assert got.count == want.count
        # each panel is built once, and kept read-only
        assert len(memo.stored) == len(set(memo.stored)) == len(memo)
        assert not any(a.flags.writeable for v in memo.values() for a in v)


def test_outer_sets_build_only_their_last_panel():
    # the sets [r_break, R] of a call share every panel but the last
    memo = _CountingMemo()
    Rs = np.linspace(5.0, 7.5, 40)
    for i, R in enumerate(Rs):
        eng.make_nodes(1, 1.0, float(R), DEFAULT_SCHEME, memo=memo)
        assert len(memo.stored) == 3 + i  # [1, 2], [2, 4] and each set's [4, R]


@pytest.mark.parametrize(
    "entry, call",
    (
        ("generator_block", lambda sk, u, pts: apply_L(sk.base, u, pts)),
        ("plain_truncated", lambda sk, u, pts: apply_B(sk, u, pts)),
        ("_energy_densities", lambda sk, u, pts: energy_E(u, u, sk, outer_per_axis=9)),
    ),
)
def test_an_entry_point_shares_one_memo_among_its_point_sets(monkeypatch, entry, call):
    memos, runs = [], []
    make = eng.make_nodes
    module = forms if entry == "_energy_densities" else eng
    run = getattr(module, entry)

    def spy(dim, lo, hi, scheme, max_width=None, support=None, memo=None):
        memos.append(memo)
        return make(dim, lo, hi, scheme, max_width, support, memo)

    def spied_run(*args, **kwargs):
        start = len(memos)
        out = run(*args, **kwargs)
        runs.append([m for m in memos[start:] if m is not None])
        return out

    monkeypatch.setattr(eng, "make_nodes", spy)
    monkeypatch.setattr(module, entry, spied_run)
    sk = split(stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0)))
    u = GridFunction.bump((0.1,), 1.0)
    for _ in range(2):
        call(sk, u, np.linspace(-0.9, 0.9, 12).reshape(-1, 1))
    # one memo per run, for the sets of all of its points, and none shared between runs
    assert runs and all(len(shared) >= 9 and all(m is shared[0] for m in shared) for shared in runs)
    assert len({id(shared[0]) for shared in runs}) == len(runs)
