"""Far masses marched for a block of base points keep the bits each point has on its own.

``_engine._far_numeric`` marches a block of (x_p, R_p) pairs of one face in
lockstep: every octave is one array pass over the points still marching,
and each point keeps its own ladder, stop and running total; one point on
its own is the block of one.  The reference below is the per-point march
the block replaced, copied: ``band_value_far``, ``octave_extend``,
``_far_numeric`` and ``far_mass`` as they were.  Every point must agree
with it exactly, (value, bound, ok) compared by repr, whatever block it is
in.  The operator tests run the calls that read their far masses as
blocks (``_engine.far_masses``) again with each point of a block marched
on its own by the reference, and compare the outputs by repr.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from jumpform import (
    AlphaFunction,
    GridFunction,
    JumpKernel,
    apply_B,
    apply_Lstar,
    energy_E,
    eta,
    killing_term,
    split,
    stable_like_kernel,
)
from jumpform import _engine as eng
from jumpform import forms
from jumpform.errors import DomainError, JumpformError, NegativeKernel
from jumpform.kernels import weight_w
from jumpform.quadrature import DEFAULT_SCHEME

from one_point import face_at, shell_refine


# ---------------------------------------------------------------------------
# the per-point reference march
# ---------------------------------------------------------------------------


def _ref_paired_sum(fn, z):
    m = len(z)
    v = np.asarray(fn(np.concatenate([z, -z])), dtype=float)
    return v[:m] + v[m:]


def _ref_band_value_far(fn, dim, lo, hi, scheme, oscillatory):
    if not oscillatory or hi <= eng._FAR_RESOLVE:
        cap = eng._OSC_WIDTH if (oscillatory and hi - lo > eng._OSC_WIDTH) else None
        return eng.make_nodes(dim, lo, hi, scheme, cap).integrate(fn)
    m = 32 * scheme.nodes_per_annulus
    i = np.arange(m, dtype=float)
    t = (i + np.mod(i * eng._PHI1, 1.0)) / m
    r = lo + t * (hi - lo)
    if dim == 1:
        vals = 0.5 * _ref_paired_sum(fn, r[:, None])
        return float(2.0 * (hi - lo) * np.mean(vals))
    theta = eng.TWO_PI * np.mod(i * eng._PHI2, 1.0)
    z = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    vals = 0.5 * _ref_paired_sum(fn, z)
    return float(eng.TWO_PI * (hi - lo) * np.mean(vals * r))


def _ref_octave_extend(fn, dim, R, scheme, oscillatory, bound_of, cut):
    total = 0.0
    prev = None
    bound = np.inf
    rc = R
    for _ in range(240):
        rn = rc * scheme.growth
        s = _ref_band_value_far(fn, dim, rc, rn, scheme, oscillatory)
        total += s
        bound = bound_of(s, prev, rn)
        if bound < cut:
            return total, bound, True
        prev = s
        rc = rn
    return total, bound, False


def _ref_far_numeric(face, x, R, scheme, cut):
    fn = lambda Z: face_at(face, x, Z)
    if face.z_support is not None:
        if R >= face.z_support:
            return 0.0, 0.0, True
        return float(eng.make_nodes(face.dim, R, face.z_support, scheme).integrate(fn)), 0.0, True
    sig = 2.0 if face.dim == 1 else eng.TWO_PI

    def bound_of(s, prev, rn):
        bound = np.inf
        if face.tail_amp is not None and face.tail_q is not None:
            bound = face.tail_amp * sig * rn ** (-face.tail_q) / face.tail_q
        if prev is not None and abs(prev) > 0 and abs(s) <= 0.9 * abs(prev):
            rho = min(abs(s) / abs(prev) * 1.2, 0.95)
            bound = min(bound, abs(s) * rho / (1.0 - rho))
        if abs(s) == 0.0 and (prev is None or abs(prev) == 0.0) and bound is np.inf:
            bound = 0.0
        return bound

    oscillatory = face.af is not None and not face.af.is_constant
    total, bound, ok = _ref_octave_extend(fn, face.dim, R, scheme, oscillatory, bound_of, cut)
    return float(total), float(bound), ok


def _ref_far_mass(face, x, R, scheme):
    af = face.af
    n = face.dim
    sig = 2.0 if n == 1 else eng.TWO_PI
    if af is not None:
        if af.is_constant and (face.stable_kind is not None or face.combo is not None):
            a0 = af.alpha1
            v = weight_w(a0, n) * sig * R ** (-a0) / a0
            if face.stable_kind is not None:
                return v, 0.0, True
            out = 0.0
            for c, _ in face.combo:
                out += c * v
            return out, 0.0, True
        if face.stable_kind == "direct":
            a0 = float(af(np.asarray(x, dtype=float)))
            return weight_w(a0, n) * sig * R ** (-a0) / a0, 0.0, True
    if face.combo is not None:
        val = 0.0
        bound = 0.0
        ok = True
        for c, sub in face.combo:
            v, b, o = _ref_far_mass(sub, x, R, scheme)
            val += c * v
            bound += abs(c) * b
            ok = ok and o
        return val, bound, ok
    return _ref_far_numeric(face, x, R, scheme, max(scheme.tol_abs * 0.01, 1e-15))


def _ref_or_error(fn):
    try:
        return fn()
    except JumpformError as exc:
        return exc


CUT = max(DEFAULT_SCHEME.tol_abs * 0.01, 1e-15)

# ---------------------------------------------------------------------------
# kernels and points
# ---------------------------------------------------------------------------


def _generic_1d(x, y):
    r = np.abs(x[..., 0] - y[..., 0])
    return (1.0 + 0.3 * np.tanh(y[..., 0])) / (r**1.5 * (1.0 + r * r))


def _compact_2d(x, y):
    r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
    return np.where(r <= 1.5, (1.0 + 0.2 * np.sin(x[..., 0] + y[..., 1])) / r**2.6, 0.0)


def _kernel(name):
    if name == "stable-1d":
        return stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0))
    if name == "stable-2d":
        return stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) * np.cos(x[..., 1]), 0.6, 1.0, dim=2))
    if name == "constant-1d":
        return stable_like_kernel(AlphaFunction.constant(1.3, 1))
    if name == "generic-1d":
        return JumpKernel(1, _generic_1d, tail_exponent=2.5, tail_amplitude=1.35)
    if name == "compact-2d":
        return JumpKernel(2, _compact_2d, z_support=1.5)
    raise KeyError(name)


# base points (including -0.0) and radii on both sides of _FAR_RESOLVE = 64
POINTS = {
    1: [[0.0], [-0.0], [0.3], [-1.7], [2.5]],
    2: [[0.0, 0.0], [-0.0, 0.4], [0.3, -1.1]],
}
RADII = {"stable-1d": [1.0, 3.7, 70.0, 100.0, 1.0], "stable-2d": [1.0, 70.0, 5.5],
         "constant-1d": [1.0, 3.7, 70.0, 100.0, 1.0], "generic-1d": [1.0, 3.7, 70.0, 100.0, 1.0],
         "compact-2d": [1.0, 0.7, 2.0]}
KERNELS = list(RADII)


def _block(name):
    k = _kernel(name)
    X = np.array(POINTS[k.dim], dtype=float)
    return k, X, RADII[name][: len(X)]


# ---------------------------------------------------------------------------
# the block march against the per-point march
# ---------------------------------------------------------------------------


# the faces a far mass marches: stable-like direct faces are closed forms (the
# constant order's transposed face is too, but marching it takes the
# non-oscillatory path of the stable-like table)
MARCHED = [(name, "transposed") for name in KERNELS] + [("generic-1d", "direct"), ("compact-2d", "direct")]


@pytest.mark.parametrize("name,kind", MARCHED)
def test_block_march_matches_each_point_alone(name, kind):
    k, X, R = _block(name)
    face = eng.faces_of(k)[kind]
    ref = [repr(_ref_far_numeric(face, x, r, DEFAULT_SCHEME, CUT)) for x, r in zip(X, R)]
    for size in (1, 2, 3, len(X)):
        for start in range(0, len(X), size):
            part = slice(start, start + size)
            values, bounds, oks = eng._far_numeric(face, X[part], R[part], DEFAULT_SCHEME, CUT)
            got = [repr((v, b, o)) for v, b, o in zip(values, bounds, oks)]
            assert got == ref[part]
    # one point on its own is the block of one
    alone = [eng._far_numeric(face, x[None], [r], DEFAULT_SCHEME, CUT) for x, r in zip(X, R)]
    assert [repr((v, b, o)) for (v,), (b,), (o,) in alone] == ref


@pytest.mark.parametrize("name", ("stable-1d", "stable-2d"))
def test_derived_stable_like_face_marches_as_a_block(name):
    # |k_a| (check_FU's C1 face) reads the direct side of a stable-like
    # table, whose order each base point of the block reads for itself; the
    # 1D block holds 0.0 next to -0.0, two points whose orders are read apart
    k, X, R = _block(name)
    anti = eng.faces_of(k)["anti"]
    face = replace(anti, read=lambda tab: np.abs(anti.read(tab)), combo=None, label="|anti|")
    ref = [repr(_ref_far_numeric(face, x, r, DEFAULT_SCHEME, CUT)) for x, r in zip(X, R)]
    values, bounds, oks = eng._far_numeric(face, X, R, DEFAULT_SCHEME, CUT)
    assert [repr((v, b, o)) for v, b, o in zip(values, bounds, oks)] == ref
    assert [repr(eng._far_numeric(face, x[None], [r], DEFAULT_SCHEME, CUT)) for x, r in zip(X, R)] == [
        repr(([v], [b], [o])) for v, b, o in zip(values, bounds, oks)
    ]


def _compact_1d(x, y):
    r = np.abs(x[..., 0] - y[..., 0])
    return np.where(r <= 0.6, (1.0 + 0.3 * np.tanh(y[..., 0])) * r**-1.5, 0.0)


def _sqrt_pair_1d(x, y):
    # tools/canon_outputs.py's sqrt-pair kernel: NaN where |y + 6| < 0.2
    # within |x - y| < 1.5, negative where x < -5.5
    r = np.abs(x[..., 0] - y[..., 0])
    g = np.where(x[..., 0] < -5.5, -1.0, 1.0)
    return np.where(r < 1.5, g * np.sqrt(np.abs(y[..., 0] + 6.0) - 0.2) / r**1.5, 0.0)


# the kernels above, with one band up to a declared support (radii below
# and above 0.6), and with points whose bands read NaN or negative values
ENTRY_BLOCKS = {
    **{name: lambda name=name: _block(name) for name in KERNELS},
    "compact-1d": lambda: (JumpKernel(1, _compact_1d, z_support=0.6), np.array(POINTS[1]), [0.3, 0.6, 1.0, 0.45, 2.0]),
    "sqrt-pair-1d": lambda: (
        JumpKernel(1, _sqrt_pair_1d, z_support=1.5), np.array([[-3.0], [-6.0], [-5.0], [-7.0], [-4.0]]), [1.0, 1.0, 1.0, 1.0, 0.5]
    ),
}


@pytest.mark.parametrize("name", list(ENTRY_BLOCKS))
@pytest.mark.parametrize("kind", ("direct", "transposed", "sym", "anti", "anti_rev"))
def test_far_masses_fill_what_far_mass_gives_alone(name, kind):
    k, X, R = ENTRY_BLOCKS[name]()
    faces = eng.faces_of(k)
    with np.errstate(invalid="ignore", divide="ignore"):
        entries = eng.far_masses(faces[kind], X, R, DEFAULT_SCHEME)
        fresh = eng.faces_of(k)
        for x, r, entry in zip(X, R, entries):
            want = repr(_ref_or_error(lambda: _ref_far_mass(fresh[kind], x, r, DEFAULT_SCHEME)))
            # the block's entry is what far_mass gives at the point alone
            assert repr(entry) == repr(_ref_or_error(lambda: eng.far_mass(eng.faces_of(k)[kind], x, r, DEFAULT_SCHEME))) == want
            assert repr(_ref_or_error(lambda: eng.far_mass(faces[kind], x, r, DEFAULT_SCHEME))) == want


def test_a_raised_far_mass_error_keeps_no_frames():
    k, X, R = ENTRY_BLOCKS["sqrt-pair-1d"]()
    faces = eng.faces_of(k)
    with np.errstate(invalid="ignore", divide="ignore"):
        entries = eng.far_masses(faces["sym"], X, R, DEFAULT_SCHEME)
        errors = [e for e in entries if isinstance(e, Exception)]
        assert len(errors) == 3 and all(isinstance(e, NegativeKernel) for e in errors)
        for e in errors:
            with pytest.raises(NegativeKernel):
                eng.unwrap(e)
        with pytest.raises(NegativeKernel):
            eng.far_mass(faces["transposed"], X[1], R[1], DEFAULT_SCHEME)
    kept = [m for m in faces["sym"].pairs.far.values() if isinstance(m, Exception)]
    assert kept and all(m.__traceback__ is None for m in kept)
    # the handed-out copies carry the frames they were raised through
    assert all(e.__traceback__ is not None for e in errors)


def test_far_masses_march_each_point_once_in_one_block(monkeypatch):
    k, X, R = _block("stable-1d")
    faces = eng.faces_of(k)
    calls = []
    march = eng._far_numeric

    def counted(face, x, R_, scheme, cut):
        calls.append((face.label, np.asarray(x).shape))
        return march(face, x, R_, scheme, cut)

    monkeypatch.setattr(eng, "_far_numeric", counted)
    eng.far_masses(faces["sym"], X, R, DEFAULT_SCHEME)
    # sym stands for its parts: the direct face is a closed form
    assert calls == [("transposed", X.shape)]
    for x, r in zip(X, R):
        eng.far_mass(faces["sym"], x, r, DEFAULT_SCHEME)
    assert len(calls) == 1
    # a lone point is the block of one, kept like the others
    eng.far_masses(faces["transposed"], X[:1], [9.0], DEFAULT_SCHEME)
    assert calls[1:] == [("transposed", (1, 1))]
    eng.far_mass(faces["transposed"], X[0], 9.0, DEFAULT_SCHEME)
    assert len(calls) == 2


def test_block_octaves_are_one_call_each(monkeypatch):
    k, X, R = _block("stable-1d")
    face = eng.faces_of(k)["transposed"]
    octaves = []
    band = eng.band_value_far

    def counted(fn, dim, lo, hi, scheme, oscillatory, X):
        octaves.append(len(X))
        return band(fn, dim, lo, hi, scheme, oscillatory, X)

    monkeypatch.setattr(eng, "band_value_far", counted)
    eng._far_numeric(face, X, R, DEFAULT_SCHEME, CUT)
    block = len(octaves)
    assert octaves[0] == len(X)
    octaves.clear()
    for x, r in zip(X, R):
        eng.far_mass(eng.faces_of(k)["transposed"], x, r, DEFAULT_SCHEME)
    # a lone mass makes one call per octave with one row, and the block
    # takes as many octaves as its longest ladder
    assert block < len(octaves) and set(octaves) == {1}


def _slow_tail(x, y):
    # decays like |z|^-1.5 from x > 0 and like |z|^-1.01 from x <= 0, where
    # the octave masses shrink too slowly for the march to stop
    r = np.abs(x[..., 0] - y[..., 0])
    return r ** -np.where(x[..., 0] > 0.0, 1.5, 1.01)


@pytest.mark.parametrize("name", ("slow-generic-1d", "small-order-1d"))
def test_unresolved_point_in_a_resolved_block(name):
    if name == "slow-generic-1d":
        face = eng.faces_of(JumpKernel(1, _slow_tail))["direct"]
        X = np.array([[0.5], [-0.5], [0.2], [0.0]])
        R = [1.0, 1.0, 70.0, 3.0]
    else:
        # alpha = 0.175 + 0.125 sin y: the transposed march runs out at every
        # point, next to the README kernel's points, which resolve
        small = eng.faces_of(stable_like_kernel(AlphaFunction(lambda x: 0.175 + 0.125 * np.sin(x[..., 0]), 0.05, 0.3)))
        readme = eng.faces_of(_kernel("stable-1d"))
        face = small["transposed"]
        X = np.array([[0.0], [0.3]])
        R = [1.0, 1.0]
        ref = [_ref_far_numeric(face, x, r, DEFAULT_SCHEME, CUT) for x, r in zip(X, R)]
        assert [o for _, _, o in ref] == [False, False]
        assert [o for _, _, o in zip(*eng._far_numeric(readme["transposed"], X, R, DEFAULT_SCHEME, CUT))] == [True, True]
    ref = [_ref_far_numeric(face, x, r, DEFAULT_SCHEME, CUT) for x, r in zip(X, R)]
    if name == "slow-generic-1d":
        assert [o for _, _, o in ref] == [True, False, True, False]
    got = eng._far_numeric(face, X, R, DEFAULT_SCHEME, CUT)
    assert [repr(t) for t in zip(*got)] == [repr(t) for t in ref]


def _window_order(x):
    # NaN on 2.4 < y < 2.6 only
    y = x[..., 0]
    return np.where((y > 2.4) & (y < 2.6), np.nan, 0.8 + 0.2 * np.sin(y))


def test_nan_order_point_raises_only_itself(monkeypatch):
    k = stable_like_kernel(AlphaFunction(_window_order, 0.6, 1.0))
    X = np.array([[1.0], [0.0], [-0.3]])
    # x = 1 meets the window in its first octave, the others march beyond it
    R = [1.0, 8.0, 9.0]
    faces = eng.faces_of(k)
    marched = eng._far_numeric(faces["transposed"], X, R, DEFAULT_SCHEME, CUT)
    assert all(isinstance(m[0], DomainError) for m in marched)
    for x, r, got in zip(X[1:], R[1:], zip(*(m[1:] for m in marched))):
        assert repr(got) == repr(_ref_far_numeric(faces["transposed"], x, r, DEFAULT_SCHEME, CUT))
    # the block keeps every point's mass or error, and no point marches again
    march = eng._far_numeric
    calls = []
    monkeypatch.setattr(eng, "_far_numeric", lambda *a: calls.append(len(a[1])) or march(*a))
    eng.far_masses(faces["transposed"], X, R, DEFAULT_SCHEME)
    assert calls == [3] and len(faces["transposed"].pairs.far) == 3
    fresh = eng.faces_of(k)["transposed"]
    for x, r in zip(X, R):
        want = _ref_or_error(lambda: _ref_far_mass(fresh, x, r, DEFAULT_SCHEME))
        got = _ref_or_error(lambda: eng.far_mass(faces["transposed"], x, r, DEFAULT_SCHEME))
        assert repr(got) == repr(want)
    assert isinstance(_ref_or_error(lambda: eng.far_mass(faces["transposed"], X[0], 1.0, DEFAULT_SCHEME)), DomainError)
    assert calls == [3]


def test_nan_order_point_is_the_only_flag(monkeypatch):
    # the order is NaN within 1e-9 of the first far node of x = 0 only, so
    # the block march of the killing term raises and x = 0 alone is flagged
    z0 = float(eng.make_nodes(1, 1.0, 2.0, DEFAULT_SCHEME).r[0])

    def order(x):
        y = x[..., 0]
        return np.where(np.abs(y - z0) < 1e-9, np.nan, 0.8 + 0.2 * np.sin(y))

    k = stable_like_kernel(AlphaFunction(order, 0.6, 1.0))
    pts = [[0.3], [0.0], [-0.4]]
    kt = killing_term(k, pts)
    assert [i for i, d in enumerate(kt.diagnostics) if "error" in d] == [1]
    assert "alpha" in kt.diagnostics[1]["error"]
    _per_point(monkeypatch)
    assert repr(kt) == repr(killing_term(k, pts))


# ---------------------------------------------------------------------------
# operators: the block requests change no output
# ---------------------------------------------------------------------------


def _per_point(monkeypatch):
    """The engine as it was: every point of a far-mass block marched on its own by the reference."""

    def march(face, X, R, scheme, cut):
        # a point's error stands in all three places, as in a block march
        alone = [eng.attempt(lambda: _ref_far_numeric(face, x, r, scheme, cut)) for x, r in zip(X, R)]
        return [[a if isinstance(a, Exception) else a[i] for a in alone] for i in range(3)]

    monkeypatch.setattr(eng, "_far_numeric", march)


STABLE = split(stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0)))
GENERIC = split(JumpKernel(1, _generic_1d, tail_exponent=2.5, tail_amplitude=1.35))
U = GridFunction.bump((0.1,), 1.0, 1.2)
V = GridFunction.bump((0.3,), 0.6)
PTS = [[-0.8], [0.0], [0.25], [1.05], [1.4]]

OPERATOR_CALLS = {
    "Lstar": lambda sk: apply_Lstar(sk.base, U, PTS),
    "B": lambda sk: apply_B(sk, U, PTS),
    "kappa": lambda sk: killing_term(sk.base, PTS, sk=sk),
    "eta": lambda sk: eta(U, V, sk, outer_per_axis=9),
    "energy": lambda sk: energy_E(U, V, sk, outer_per_axis=9),
}


@pytest.mark.parametrize("sk", (STABLE, GENERIC), ids=("stable-1d", "generic-1d"))
@pytest.mark.parametrize("op", list(OPERATOR_CALLS))
def test_operators_match_the_per_point_march(monkeypatch, sk, op):
    got = repr(OPERATOR_CALLS[op](sk))
    _per_point(monkeypatch)
    assert got == repr(OPERATOR_CALLS[op](sk))


# ---------------------------------------------------------------------------
# forms: no far mass where u(x) v(x) == 0
# ---------------------------------------------------------------------------


def _ref_complement_mass(sym, x, box, scheme, r_far, far_v):
    """forms._complement_mass as it was: the box complement of k_s at x, panel by panel."""
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    if box.dim == 1:
        radii = [float(x[0] - lo[0]), float(hi[0] - x[0])]
        sch = scheme
    else:
        edges = [x[0] - lo[0], hi[0] - x[0], x[1] - lo[1], hi[1] - x[1]]
        corners = [math.hypot(cx - x[0], cy - x[1]) for cx in (lo[0], hi[0]) for cy in (lo[1], hi[1])]
        radii = [float(r) for r in edges + corners]
        sch = scheme.with_(angular_nodes=min(256, scheme.angular_nodes * 4))
    cuts = sorted({r for r in radii if 0.0 < r < r_far * (1.0 - 1e-12)}) + [r_far]
    d_in = max(min(radii), 1e-12)

    def outside_fn(Z):
        inside = box.contains(x + Z)
        return np.where(inside, 0.0, face_at(sym, x, Z))

    total = 0.0
    lo_r = d_in * (1.0 - 1e-12)
    for hi_r in cuts:
        if hi_r > lo_r * (1.0 + 1e-12):
            total += eng.make_nodes(box.dim, lo_r, hi_r, sch).integrate(outside_fn)
            lo_r = hi_r
    return float(total + far_v)


def _ref_energy_density(sk, faces, u, v, x, box, scheme):
    """forms._energy_density as it was: the far mass at every cell."""
    dim = sk.dim
    ux = float(u(x))
    vx = float(v(x))
    sym = faces["sym"]

    def pair_diff(Z):
        return (ux - u(x + Z)) * (vx - v(x + Z))

    if sk.base.alpha_fn is not None:
        loc = eng.unwrap(eng.stable_local(sk.base.alpha_fn, x[None])[0])
        s_in = min(eng.S_INNER, scheme.r_break)
        gu = u.grad(x).reshape(-1)
        gv = v.grad(x).reshape(-1)
        c_pair = 2.0 if dim == 1 else math.pi
        inner = c_pair * float(gu @ gv) * loc.w0 * s_in ** (2.0 - loc.a0) / (2.0 - loc.a0)
    else:
        s_in = min(1e-2, scheme.r_break)
        (walk,), _, _ = shell_refine(
            sym.pairs, x[None], s_in, scheme, (lambda _, Z, tab: pair_diff(Z) * tab["sym"],), tol=0.25 * scheme.tol_abs,
            label="energy near-diagonal",
        )
        (inner,) = eng.unwrap(walk)
    r_far = forms._corner_radius(box, x)
    mid = eng.make_nodes(dim, s_in, r_far, scheme).integrate(lambda Z: pair_diff(Z) * face_at(sym, x, Z))
    far_v, _, far_ok = eng.far_mass(sym, x, r_far, scheme)
    assert far_ok or ux * vx == 0.0
    val = inner + mid + ux * vx * far_v
    if ux != 0.0 and vx != 0.0:
        val += ux * vx * _ref_complement_mass(sym, x, box, scheme, r_far, far_v)
    return val


@pytest.mark.parametrize("sk", (STABLE, GENERIC), ids=("stable-1d", "generic-1d"))
def test_energy_skips_far_masses_multiplied_by_zero(monkeypatch, sk):
    # v's support covers a part of the union box only, so some cells have
    # u(x) v(x) == 0
    seen = []
    far = eng.far_masses

    def counted(face, X, R, scheme):
        if face.label == "sym":
            seen.extend(tuple(x) for x in np.asarray(X, dtype=float))
        return far(face, X, R, scheme)

    monkeypatch.setattr(eng, "far_masses", counted)
    got = (repr(eta(U, V, sk, outer_per_axis=9)), repr(energy_E(U, V, sk, outer_per_axis=9)))
    box, pts, _ = forms._cells(U, V, 9)
    zero = {tuple(x) for x in pts if float(U(x)) * float(V(x)) == 0.0}
    assert zero and not zero & set(seen)
    assert len(set(seen)) == len(pts) - len(zero)
    monkeypatch.setattr(
        forms, "_energy_densities",
        lambda sk, faces, u, v, X, UX, VX, box, scheme: [_ref_energy_density(sk, faces, u, v, x, box, scheme) for x in X],
    )
    assert got == (repr(eta(U, V, sk, outer_per_axis=9)), repr(energy_E(U, V, sk, outer_per_axis=9)))


def test_energy_matches_the_reference_for_either_sign_of_u():
    # with a negative u, u(x) is -0.0 outside its support, and the dropped
    # term u(x) v(x) far_v is the signed zero u(x) v(x)
    neg = GridFunction.bump((0.1,), 1.0, -1.0)
    for u in (U, neg):
        got = forms.energy_E(u, V, STABLE, outer_per_axis=9)
        faces = eng.faces_of(STABLE.base, STABLE)
        box, pts, vol = forms._cells(u, V, 9)
        acc = 0.0
        for x in pts:
            acc += _ref_energy_density(STABLE, faces, u, V, np.asarray(x, dtype=float), box, DEFAULT_SCHEME)
        assert repr(got) == repr(float(acc * vol))
