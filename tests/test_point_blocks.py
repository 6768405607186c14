"""Generator points evaluated in blocks keep the bits they have one at a time.

``_engine.generator_block`` evaluates the node-level arrays of many base
points at once.  The reference below is the per-point evaluation it
replaced: generator_point as it was, with its own copies of the per-point
order data, the stable-like table, the panel nodes and the node sum.  Every
point of a block must agree with it exactly, values and diagnostics,
compared by repr (so a -0.0 against a +0.0 fails), whatever block the point
is in.  The operator tests run the same calls with mid tables of 1, 2 and
3 points and with the default ones, and mix in points that flag.
"""

import math
import sys

import numpy as np
import pytest

from jumpform import (
    AlphaFunction,
    Box,
    GridFunction,
    JumpKernel,
    SplitKernel,
    apply_B,
    apply_L,
    apply_Lambda,
    apply_Lstar,
    apply_Ltilde,
    check_local_pv_bound,
    killing_term,
    split,
    stable_like_kernel,
)
from jumpform import _engine as eng
from jumpform import operators as ops
from jumpform.errors import DomainError, NegativeKernel, NoConvergence, QuadratureOverflow
from jumpform.kernels import PairTable, weight_w
from jumpform.quadrature import DEFAULT_SCHEME

from one_point import PointTable, face_at


# ---------------------------------------------------------------------------
# the per-point reference
# ---------------------------------------------------------------------------


def _ref_stable_local(af, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = af.dim
    a0 = float(af(x))
    w0 = weight_w(a0, n)
    ga = np.asarray(af.grad(x), dtype=float).reshape(n)
    la = float(np.trace(np.asarray(af.hess(x), dtype=float).reshape(n, n)))
    gw = np.empty(n)
    lw = 0.0
    for axis in range(n):
        e = np.zeros(n)
        e[axis] = 1.0
        wp = weight_w(float(af(x + h * e)), n)
        wm = weight_w(float(af(x - h * e)), n)
        gw[axis] = (wp - wm) / (2.0 * h)
        lw += (wp - 2.0 * w0 + wm) / h**2
    return eng.StableLocal(n, x, a0, w0, ga, la, gw, float(lw))


class _RefPairs(eng.KernelPairs):
    """KernelPairs with the per-point table: x + Z as one array, the order
    read at x, and an offset form given r = |z|, 0 where x + z == x."""

    def table(self, x, Z, signed=False, at=None):
        assert at is None
        if signed and Z.shape[-1] == 2:
            Z = np.concatenate([Z, -Z])
        af, n, k = self.base.alpha_fn, self.base.dim, self.base
        x = np.asarray(x, dtype=float)
        Z = np.asarray(Z, dtype=float)
        r = np.sqrt(np.sum(Z * Z, axis=-1))
        if af is None and k.offset_eval is not None and (self.own is None or self.own.hinted):
            y = x + Z
            r = np.where(np.all(y == x, axis=-1), 0.0, r)
            d, zeros = lambda: k(x, y, r=r), lambda: np.zeros(r.shape)
            return PairTable(d, lambda: k(y, x, r=r), self.own and {"sym": d, "anti": zeros, "anti_rev": zeros})
        if af is None:
            return self.between(x, x + Z)

        def side(p):
            a = af(p)
            return weight_w(a, n) * r ** (-(n + a))

        return PairTable(lambda: side(x), lambda: side(x + Z))


def _ref_make_nodes(dim, lo, hi, scheme, max_width=None, support=None):
    if hi <= lo:
        return eng.NodeSet(dim, np.empty(0), np.empty(0), scheme.angular_nodes, scheme.magnitude_cap)
    t, w = eng.gl_rule(scheme.nodes_per_annulus)
    rs, ws = [], []
    for a, b in eng.radial_panels(lo, hi, scheme, max_width, support):
        half = 0.5 * (b - a)
        rs.append(0.5 * (a + b) + half * t)
        ws.append(half * w)
    return eng.NodeSet(dim, np.concatenate(rs), np.concatenate(ws), scheme.angular_nodes, scheme.magnitude_cap)


def _ref_integrate(ns, fn):
    m = len(ns.r)
    if m == 0:
        return 0.0
    v = np.asarray(fn(ns.offsets()), dtype=float)
    if ns.dim == 1:
        vals = v[:m] + v[m:]
        out = float(np.dot(ns.wr, vals)) if vals.ndim == 1 else ns.wr @ vals
    else:
        k = ns.angular
        ang = v.reshape((m, k) + v.shape[1:]).sum(axis=1)
        out = float(np.dot(ns.wr * ns.r, ang) * (eng.TWO_PI / k)) if v.ndim == 1 else ((ns.wr * ns.r) @ ang) * (eng.TWO_PI / k)
    arr = np.atleast_1d(np.asarray(out, dtype=float))
    if not np.all(np.isfinite(arr)) or np.any(np.abs(arr) > ns.cap):
        raise QuadratureOverflow(f"quadrature contribution {arr!r} exceeds the magnitude cap {ns.cap:g}")
    return out


def _ref_comp_diff(u, x, ux, gx):
    def fn(Z):
        r2 = np.sum(Z * Z, axis=-1)
        raw = u(x + Z) - ux - Z @ gx
        if np.any(r2 < eng.R_QUAD**2):
            quad = 0.5 * np.einsum("...i,ij,...j->...", Z, np.atleast_2d(u.hess(x)), Z)
            raw = np.where(r2 < eng.R_QUAD**2, quad, raw)
        return np.where(r2 <= 1.0, raw, u(x + Z) - ux)

    return fn


def _ref_fourth_along(u, x, h=1e-2):
    x = np.asarray(x, dtype=float)
    tr = []
    for s in (-1.0, 0.0, 1.0):
        pts = x + np.full(u.dim, 0.0)
        out = 0.0
        for axis in range(u.dim):
            e = np.zeros(u.dim)
            e[axis] = 1.0
            out += u.hess(pts + s * h * e)[axis, axis]
        tr.append(out)
    return float((tr[0] - 2.0 * tr[1] + tr[2]) / h**2)


def _ref_stable_comp_inner(loc, u, x, s):
    """stable_comp_inner with a Hessian call of its own and fourth_along's three (per axis)."""
    trH = float(np.trace(np.atleast_2d(u.hess(x))))
    d4 = _ref_fourth_along(u, x)
    if loc.dim == 1:
        lead = trH * loc.w0 * s ** (2.0 - loc.a0) / (2.0 - loc.a0)
        corr = d4 * loc.w0 * s ** (4.0 - loc.a0) / (12.0 * (4.0 - loc.a0))
        bound = abs(corr) * 1e-2 + abs(d4) * loc.w0 * s ** (6.0 - loc.a0)
        return lead + corr, bound
    lead = 0.5 * trH * loc.w0 * math.pi * s ** (2.0 - loc.a0) / (2.0 - loc.a0)
    bound = abs(d4) * loc.w0 * math.pi * s ** (4.0 - loc.a0) / (4.0 - loc.a0)
    return lead, bound


def _ref_generator_point(base, u, x, scheme, which, sk=None):
    """generator_point as a loop body over one point."""
    kinds = eng.generator_kinds(base, u, which)
    x = np.asarray(x, dtype=float).reshape(-1)
    stable = base.alpha_fn is not None
    if not stable and sk is None:
        sk = split(base)
    faces = eng.faces_of(base, sk)
    pairs = faces["direct"].pairs
    pairs.__class__ = _RefPairs  # every face reads its tables through this object
    ux = float(u(x))
    gx = u.grad(x).reshape(-1)
    loc = _ref_stable_local(base.alpha_fn, x) if stable else None
    R_out, max_w = eng._outer_region(u, x, loc, scheme)
    if stable:
        s_in = min(eng.S_INNER, scheme.r_break)
        v_inner, inner_bound = _ref_stable_comp_inner(loc, u, x, s_in)
        shells = []
    else:
        s_in = min(1e-2, scheme.r_break)
        shells, bounds = _ref_plan_inner_shells(pairs, u, x, s_in, scheme)
        inner_bound = bounds["comp"] + bounds["drift"]
    ns_mid = _ref_make_nodes(base.dim, s_in, scheme.r_break, scheme, max_w, base.z_support)
    ns_out = _ref_make_nodes(base.dim, scheme.r_break, R_out, scheme, max_w, base.z_support)
    mid_tab = PointTable(pairs, x, ns_mid.offsets(), signed=True)
    out_tab = PointTable(pairs, x, ns_out.offsets())
    comp_u = _ref_comp_diff(u, x, ux, gx)
    results = []
    for kind in kinds:
        diag = {"which": kind, "x": tuple(float(v) for v in x), "inner_bound": inner_bound}
        comp = 0.0
        drift_vec = np.zeros(base.dim)
        if stable:
            comp += v_inner
            if kind != "direct":
                drift_vec = drift_vec + (1.0 if kind == "transposed" else 0.5) * eng.stable_drift_smallz(loc, 0.0, s_in)
        else:
            diag["shells"] = len(shells)
        for ns, tab in shells + [(ns_mid, mid_tab)]:
            comp += _ref_integrate(ns, lambda Z: comp_u(Z) * tab[kind][: len(Z)])
            drift = _ref_integrate(ns, lambda Z: Z * (tab[kind][: len(Z)] - tab.minus(kind)[: len(Z)])[..., None])
            drift_vec = drift_vec + np.atleast_1d(drift)
        comp += _ref_integrate(ns_out, lambda Z: (u(x + Z) - ux) * out_tab[kind])
        far = eng.far_masses(faces[kind], x[None], [R_out], scheme)[0] if u.trig is None and ux != 0.0 else None
        comp = eng._add_tail(comp, far, u, R_out, loc, ux, diag)
        drift = 0.5 * float(gx @ drift_vec)
        diag["R_out"] = R_out
        diag["nodes"] = ns_mid.count + ns_out.count
        diag["comp_part"] = comp
        diag["drift_part"] = drift
        results.append((comp + drift, diag))
    return results[0] if isinstance(which, str) else results


def _ref_or_error(base, u, x, which, sk):
    try:
        return _ref_generator_point(base, u, x, DEFAULT_SCHEME, which, sk)
    except (DomainError, NegativeKernel, NoConvergence, QuadratureOverflow) as exc:
        return exc


# ---------------------------------------------------------------------------
# kernels, functions and points
# ---------------------------------------------------------------------------


def _order_1d(x):
    return 0.8 + 0.2 * np.sin(x[..., 0])


def _nan_order_1d(x):
    # NaN left of x = -2
    return 0.8 + 0.2 * np.sin(x[..., 0]) + 0.0 * np.log(x[..., 0] + 2.0)


def _generic_1d(x, y):
    r = np.abs(x[..., 0] - y[..., 0])
    return (1.0 + 0.3 * np.tanh(y[..., 0])) / (r**1.5 * (1.0 + r * r))


def _nan_kernel_1d(x, y):
    # NaN for x < -5
    r = np.abs(x[..., 0] - y[..., 0])
    return np.sqrt(x[..., 0] + 5.0) / (r**1.5 * (1.0 + r * r))


def _compact_2d(x, y):
    r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
    return np.where(r <= 1.5, (1.0 + 0.2 * np.sin(x[..., 0] + y[..., 1])) / r**2.6, 0.0)


def _sqrt_pair_1d(x, y):
    # g(x) sqrt(|y + 6| - 0.2) / r^1.5 within r < 1.5, g = -1 left of -5.5:
    # NaN where |y + 6| < 0.2 and negative where x < -5.5, so at x = -5 the
    # direct and transposed sides fail on the same row, differently
    r = np.abs(x[..., 0] - y[..., 0])
    g = np.where(x[..., 0] < -5.5, -1.0, 1.0)
    return np.where(r < 1.5, g * np.sqrt(np.abs(y[..., 0] + 6.0) - 0.2) / r**1.5, 0.0)


def _hint_1d(x, y):
    r = np.abs(x[..., 0] - y[..., 0])
    return (1.0 + 0.2 * np.cos(x[..., 0]) * np.cos(y[..., 0])) / (r**1.5 * (1.0 + r * r))


def _parts_1d():
    def ks(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return 1.0 / (r**1.2 * (1.0 + r * r))

    def ka(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return 0.1 * np.sin(x[..., 0] - y[..., 0]) / (r**1.2 * (1.0 + r * r) * (1.0 + r))

    return SplitKernel.from_parts(1, ks, ka, tail_exponent=1.2, tail_amplitude=1.2)


def _kernel(name):
    """(base kernel, SplitKernel or None to let the engine split)."""
    if name == "stable-1d":
        return stable_like_kernel(AlphaFunction(_order_1d, 0.6, 1.0)), None
    if name == "stable-2d":
        af = AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) * np.cos(x[..., 1]), 0.6, 1.0, dim=2)
        return stable_like_kernel(af), None
    if name == "constant-1d":
        return stable_like_kernel(AlphaFunction.constant(1.0, 1)), None
    if name == "constant-2d":
        return stable_like_kernel(AlphaFunction.constant(0.5, 2)), None
    if name == "nan-order-1d":
        return stable_like_kernel(AlphaFunction(_nan_order_1d, 0.6, 1.0)), None
    if name == "generic-1d":
        return JumpKernel(1, _generic_1d, tail_exponent=2.5, tail_amplitude=1.35), None
    if name == "nan-kernel-1d":
        return JumpKernel(1, _nan_kernel_1d, tail_exponent=2.5, tail_amplitude=2.5), None
    if name == "hint-1d":
        return JumpKernel(1, _hint_1d, symmetric_hint=True, tail_exponent=2.5, tail_amplitude=1.2), None
    if name == "parts-1d":
        sk = _parts_1d()
        return sk.base, sk
    if name == "compact-2d":
        return JumpKernel(2, _compact_2d, z_support=1.5), None
    if name == "sqrt-pair-1d":
        return JumpKernel(1, _sqrt_pair_1d, label="sqrt-pair-1d", z_support=1.5), None
    raise KeyError(name)


def _sampled(dim):
    rng = np.random.default_rng(7)
    if dim == 1:
        return GridFunction.sampled(Box((-1.0,), (1.0,)), np.concatenate([[0.0], rng.uniform(-1, 1, 15), [0.0]]))
    grid = np.zeros((9, 9))
    grid[1:-1, 1:-1] = rng.uniform(-1, 1, (7, 7))
    return GridFunction.sampled(Box((-1.0, -1.0), (1.0, 1.0)), grid)


def _function(name, dim):
    if name == "bump":
        return GridFunction.bump((0.1,) * dim, 1.0, 1.1)
    if name == "sampled":
        return _sampled(dim)
    xi, kind = {"cos": (1.5, "cos"), "sin": (0.7, "sin"), "flat": (0.0, "cos")}[name]
    return GridFunction.wave(xi, kind)


# a point beyond r_max (70), points where u vanishes, a point at -0.0
POINTS_1D = np.array([-1.4, -0.5, -0.0, 0.0, 0.45, 1.3, 70.0])[:, None]
POINTS_2D = np.array([[0.0, 0.0], [0.3, -0.2], [-0.7, 0.5], [1.2, 0.1], [70.0, 0.0]])
ALL_FACES = ("transposed", "direct", "sym")

CASES = [
    ("stable-1d", "bump", ALL_FACES),
    ("stable-1d", "sampled", "transposed"),
    ("stable-1d", "cos", "direct"),
    ("stable-1d", "sin", "direct"),
    ("stable-1d", "flat", "direct"),
    ("stable-2d", "bump", ALL_FACES),
    ("stable-2d", "sampled", "sym"),
    ("constant-1d", "bump", ALL_FACES),
    ("constant-1d", "cos", "direct"),
    ("constant-2d", "bump", "direct"),
    ("generic-1d", "bump", ALL_FACES),
    ("generic-1d", "sampled", "direct"),
    ("hint-1d", "bump", "sym"),
    ("parts-1d", "bump", ALL_FACES),
    ("compact-2d", "bump", "transposed"),
]


def _points(base, fn):
    pts = POINTS_1D if base.dim == 1 else POINTS_2D
    return pts[:-1] if fn.trig is not None else pts


def _r(o):
    return repr(o)


# ---------------------------------------------------------------------------
# the engine, block by block
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kname, fname, which", CASES)
def test_every_point_of_a_block_matches_its_own_evaluation(kname, fname, which):
    base, sk = _kernel(kname)
    u = _function(fname, base.dim)
    pts = _points(base, u)
    good = [x for x in pts if not isinstance(_ref_or_error(base, u, x, which, sk), Exception)]
    ref = [_ref_generator_point(base, u, x, DEFAULT_SCHEME, which, sk) for x in good]
    for size in (1, 2, 3, len(good)):
        for lo in range(0, len(good), size):
            block = eng.generator_block(base, u, np.array(good[lo : lo + size]), DEFAULT_SCHEME, which, sk=sk)
            assert [_r(b) for b in block] == [_r(r) for r in ref[lo : lo + size]], (size, lo)
    for x, r in zip(good, ref):
        assert _r(eng.generator_point(base, u, x, DEFAULT_SCHEME, which, sk=sk)) == _r(r)


# the points of the sqrt-pair kernel, against u = bump((-5,), 3): -6, -5 and
# -7 fail, and -5 fails on both sides, so its error depends on the faces read
SQRT_PAIR_POINTS = [(-3.0,), (-6.0,), (-5.0,), (-7.0,), (-4.0,)]


@pytest.mark.parametrize(
    "kname, x, which",
    [
        pytest.param("stable-1d", (70.0,), "direct", id="stable-1d-x0"),
        pytest.param("nan-order-1d", (-2.5,), "direct", id="nan-order-1d-x1"),
        pytest.param("nan-kernel-1d", (-6.0,), "direct", id="nan-kernel-1d-x2"),
    ]
    + [
        pytest.param("sqrt-pair-1d", x, which, id=f"sqrt-pair-1d-{x[0]}-{which if isinstance(which, str) else '-'.join(which)}")
        for x in SQRT_PAIR_POINTS[1:4]
        for which in ("direct", "transposed", "sym", ALL_FACES, ("direct", "transposed", "sym"))
    ],
)
def test_a_block_with_a_failing_point_raises_what_the_point_raises(kname, x, which):
    base, sk = _kernel(kname)
    if kname == "sqrt-pair-1d":
        u, block = GridFunction.bump((-5.0,), 3.0), SQRT_PAIR_POINTS
    else:
        u, block = GridFunction.bump((0.0,), 1.0), [(0.0,), x, (0.5,)]
    with np.errstate(invalid="ignore"):
        alone = _ref_or_error(base, u, np.array(x), which, sk)
        assert isinstance(alone, Exception)
        with pytest.raises(type(alone)) as got:
            eng.generator_point(base, u, np.array(x), DEFAULT_SCHEME, which, sk=sk)
        assert str(got.value) == str(alone)
        with pytest.raises(type(alone)):
            [eng.unwrap(e) for e in eng.generator_block(base, u, np.array([(0.0,), x, (0.5,)]), DEFAULT_SCHEME, which, sk=sk)]
        # in a block, each point's entry is what it gives alone
        entries = eng.generator_block(base, u, np.array(block), DEFAULT_SCHEME, which, sk=sk)
        for y, entry in zip(block, entries):
            want = alone if y == x else _ref_or_error(base, u, np.array(y), which, sk)
            assert type(entry) is type(want) and _r(entry) == _r(want), y


def _table_pairs(base, x, Z, signed):
    """The pairs of a KernelPairs table at base points x on offsets Z,
    counted as block_size counts them: signed 2D offsets twice, a pair of a
    kernel closure four times."""
    x, Z = np.asarray(x), np.asarray(Z)
    count = int(np.prod(np.broadcast_shapes(x.shape[:-1], Z.shape[:-1])))
    return count * (2 if signed and Z.shape[-1] == 2 else 1) * (1 if base.alpha_fn is not None else 4)


def _in_far_field():
    # far marches keep their own caps; every other table of a generator
    # call is a mid chunk, a shell chunk or an outer stack
    f = sys._getframe(2)
    while f is not None:
        if f.f_code.co_name == "_far_numeric":
            return True
        f = f.f_back
    return False


def test_generator_tables_stay_under_the_pair_cap(monkeypatch):
    tables = []
    table = eng.KernelPairs.table

    def spy(self, x, Z, signed=False):
        if not _in_far_field():
            tables.append((np.asarray(x).shape, _table_pairs(self.base, x, Z, signed), signed))
        return table(self, x, Z, signed)

    monkeypatch.setattr(eng.KernelPairs, "table", spy)
    for kname in ("stable-1d", "stable-2d", "generic-1d", "compact-2d"):
        base, _ = _kernel(kname)
        u = GridFunction.bump((0.0,) * base.dim, 1.0)
        pts = np.random.default_rng(5).uniform(-0.9, 0.9, (40, base.dim))
        widest = {}
        for op in (apply_L, apply_Lambda):
            tables.clear()
            assert op(base, u, pts).flagged == ()
            assert max(pairs for _, pairs, _ in tables) <= eng._PAIR_BLOCK, kname
            # the mid chunks (and shell chunks) are (points, 1, n) tables of
            # several points at once wherever the cap leaves room for more
            # than one; they read -z (signed) only for a face with a drift, so
            # a power law's apply_L, whose direct face is even, reads +z alone
            chunks = [(shape, s) for shape, _, s in tables if len(shape) == 3]
            even = op is apply_L and base.alpha_fn is not None
            assert chunks and all(s != even for _, s in chunks), (kname, op.__name__)
            widest[op] = max(shape[0] for shape, _ in chunks)
            assert widest[op] > 1 or kname == "compact-2d"
            # the outer sets are stacked: one (N, n) block of pairs per table
            assert any(len(shape) == 2 and shape[0] > 0 for shape, _, s in tables if not s)
        # unsigned 2D chunks hold half the pairs a point, so twice the points
        if kname == "stable-2d":
            assert widest[apply_L] == 2 * widest[apply_Lambda] == 4


# ---------------------------------------------------------------------------
# the operators: the same bits for any block size, failing points flagged
# ---------------------------------------------------------------------------


def _operator_calls(kname, fname):
    base, sk = _kernel(kname)
    u = _function(fname, base.dim)
    pts = _points(base, u)
    if kname == "nan-order-1d":
        pts = np.concatenate([pts, [[-2.5], [-0.3]]])
    if kname == "nan-kernel-1d":
        pts = np.concatenate([pts, [[-6.0], [-0.3]]])
    if u.trig is not None:
        return [lambda: apply_L(base, u, pts)]
    calls = [
        lambda: apply_L(base, u, pts),
        lambda: apply_Lambda(base, u, pts),
        lambda: apply_Ltilde(sk or split(base), u, pts),
    ]
    if base.dim == 1:
        calls.append(lambda: apply_Lstar(base, u, pts))
    return calls


def _canon(ev):
    return _r((ev.operator_id, ev.points.tolist(), ev.values.tolist(), ev.diagnostics))


@pytest.mark.parametrize(
    "kname, fname",
    (
        ("stable-1d", "bump"),
        ("stable-1d", "flat"),
        ("stable-2d", "bump"),
        ("constant-1d", "bump"),
        ("generic-1d", "bump"),
        ("nan-order-1d", "bump"),
        ("nan-kernel-1d", "bump"),
        ("parts-1d", "sampled"),
        ("compact-2d", "bump"),
        ("constant-2d", "bump"),
    ),
)
def test_operators_give_the_same_bits_for_any_block_size(monkeypatch, kname, fname):
    base, _ = _kernel(kname)
    u = _function(fname, base.dim)
    ns_mid = eng._mid_nodes(base, u, DEFAULT_SCHEME)[1]
    # the pairs of one point's mid table, as block_size counts them
    width = _table_pairs(base, np.zeros((1, 1, base.dim)), ns_mid.offsets(), True)
    with np.errstate(invalid="ignore"):
        default = [_canon(call()) for call in _operator_calls(kname, fname)]
        for size in (1, 2, 3):
            # mid chunks of size points; shell chunks and outer stacks shrink with them
            monkeypatch.setattr(eng, "_PAIR_BLOCK", size * width)
            assert eng.block_size(base, ns_mid.count * (2 if base.dim == 2 else 1)) == size
            assert [_canon(call()) for call in _operator_calls(kname, fname)] == default, size


def test_operator_values_are_the_per_point_reference():
    for kname, pts in (("stable-1d", POINTS_1D), ("compact-2d", POINTS_2D)):
        base, sk = _kernel(kname)
        u = _function("bump", base.dim)
        ev = apply_L(base, u, pts)
        assert ev.flagged == (len(pts) - 1,) and "r_max" in ev.diagnostics[-1]["error"]
        for x, v, d in zip(pts[:-1], ev.values, ev.diagnostics):
            rv, rd = _ref_generator_point(base, u, x, DEFAULT_SCHEME, "direct")
            assert (_r(float(v)), _r(d)) == (_r(rv), _r(rd)), (kname, x)


@pytest.mark.parametrize("center, points, error", (
    # the shell sums of x = 0 and 0.02 exceed the cap on the first shell
    (0.0, [(-3.0,), (0.0,), (0.02,), (3.0,)], QuadratureOverflow),
    # at 1e9 they do too, but the shells reach the rounding of x + z first
    (1e9, [(1e9,), (1e9 + 3.0,)], NoConvergence),
))
def test_a_shell_sum_beyond_the_cap_raises_after_the_plan(center, points, error):
    base, _ = _kernel("generic-1d")
    u = GridFunction.bump((center,), 0.05, 1e4)
    scheme = DEFAULT_SCHEME.with_(magnitude_cap=1e3)
    alone = [eng.attempt(lambda: eng.generator_point(base, u, np.array(x), scheme, "direct")) for x in points]
    assert any(isinstance(a, error) for a in alone)
    ev = apply_L(base, u, points, scheme)
    for a, v, d in zip(alone, ev.values, ev.diagnostics):
        if isinstance(a, Exception):
            assert isinstance(a, (QuadratureOverflow, NoConvergence)) and d == {"which": "direct", "error": str(a)}
        else:
            assert (_r(float(v)), _r(d)) == (_r(a[0]), _r(a[1]))
    if error is QuadratureOverflow:
        assert "exceeds the magnitude cap 1000" in str(alone[1]) and not isinstance(alone[0], Exception)
    else:
        assert all("floating-point resolution" in str(a) for a in alone)


# each block call an operator makes, with the owner it is looked up on and
# the position of its points argument
_BLOCK_CALLS = {"generator_block": (eng, 2), "_pv_on_face": (ops, 2), "kappa_partials": (eng, 1)}


@pytest.mark.parametrize(
    "op, blocks",
    (
        ("apply_L", ("generator_block",)),
        ("apply_Lambda", ("generator_block",)),
        ("apply_Ltilde", ("generator_block",)),
        ("apply_B", ("_pv_on_face",)),
        ("killing_term", ("kappa_partials",)),
        ("apply_Lstar", ("generator_block", "kappa_partials")),
    ),
    ids=("apply_L", "apply_Lambda", "apply_Ltilde", "apply_B", "killing_term", "apply_Lstar"),
)
def test_a_call_is_one_block_of_all_its_points(monkeypatch, op, blocks):
    base, _ = _kernel("generic-1d")
    u = _function("bump", 1)
    pts = POINTS_1D[:-1]
    sizes = {name: [] for name in _BLOCK_CALLS}

    def spy(name, owner, at):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: sizes[name].append(len(a[at])) or real(*a, **kw))

    for name, (owner, at) in _BLOCK_CALLS.items():
        spy(name, owner, at)
    call = {
        "apply_L": lambda: apply_L(base, u, pts),
        "apply_Lambda": lambda: apply_Lambda(base, u, pts),
        "apply_Ltilde": lambda: apply_Ltilde(split(base), u, pts),
        "apply_B": lambda: apply_B(split(base), u, pts),
        "killing_term": lambda: killing_term(base, pts),
        "apply_Lstar": lambda: apply_Lstar(base, u, pts),
    }[op]
    call()
    assert sizes == {name: [len(pts)] if name in blocks else [] for name in _BLOCK_CALLS}


def test_failing_points_flag_only_themselves_inside_a_block():
    base, _ = _kernel("nan-kernel-1d")
    u = GridFunction.bump((0.0,), 1.0)
    with np.errstate(invalid="ignore"):
        ev = apply_L(base, u, [(0.0,), (-6.0,), (0.5,), (70.0,)])
    assert ev.flagged == (1, 3)
    assert "negative or NaN" in ev.diagnostics[1]["error"] and "r_max" in ev.diagnostics[3]["error"]
    assert all(math.isfinite(ev.values[i]) for i in (0, 2))
    assert _r(ev.values[2]) == _r(apply_L(base, u, [(0.5,)]).values[0])


def test_a_failing_point_costs_only_its_own_rows(monkeypatch):
    # the NaN-kernel point x = -6 fails on its first shell and the NaN-order
    # point x = -3 at its own order: the other points' work is not redone
    pairs, locals_ = [0], []
    call, local = JumpKernel.__call__, eng.stable_local

    def counted(self, x, y):
        pairs[0] += int(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1])))
        return call(self, x, y)

    monkeypatch.setattr(JumpKernel, "__call__", counted)
    monkeypatch.setattr(eng, "stable_local", lambda af, x, *a: locals_.append(np.shape(x)) or local(af, x, *a))
    u = GridFunction.bump((0.0,), 1.0)
    pts = np.linspace(-1.0, 1.0, 33)[:, None]
    base, _ = _kernel("nan-kernel-1d")
    with np.errstate(invalid="ignore"):
        clean = apply_L(base, u, pts)
        clean_pairs, pairs[0] = pairs[0], 0
        ev = apply_L(base, u, np.concatenate([pts, [[-6.0]]]))
    assert pairs[0] <= 1.05 * clean_pairs and ev.flagged == (33,)
    # the point's error keeps its message and value, but no array of the block
    with np.errstate(invalid="ignore"):
        error = eng.generator_block(base, u, np.concatenate([pts, [[-6.0]]]), DEFAULT_SCHEME, "direct")[-1]
    assert isinstance(error, NegativeKernel) and not any(isinstance(v, np.ndarray) for v in vars(error).values())
    assert _r((ev.values[:33].tolist(), ev.diagnostics[:33])) == _r((clean.values.tolist(), clean.diagnostics))
    af = AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) + 0.0 * np.log(x[..., 0] + 2.0), 0.6, 1.0)
    with np.errstate(invalid="ignore"):
        ev = apply_L(stable_like_kernel(af), u, np.concatenate([pts, [[-3.0]]]))
    assert ev.flagged == (33,) and "alpha in" in ev.diagnostics[33]["error"]
    assert locals_ == [(34, 1)]


def _nan_far_1d(x, y):
    # NaN where y < -5; decays too slowly for a far tail to resolve
    r = np.abs(x[..., 0] - y[..., 0])
    return np.sqrt(y[..., 0] + 5.0) / r**1.05


def test_a_later_faces_panel_error_comes_after_an_earlier_faces_tail():
    # the transposed face's far tail does not resolve, and the direct face
    # reads NaN on the mid set (x = -4.5) or only on the outer set (-3.8,
    # -3.5): face by face, the transposed tail is met first
    base = JumpKernel(1, _nan_far_1d)
    u = GridFunction.bump((-3.8,), 1.5)
    pts = np.array([[-4.5], [-3.8], [-3.5]])
    with np.errstate(invalid="ignore"):
        for x in pts:
            with pytest.raises(NegativeKernel):
                eng.generator_point(base, u, x, DEFAULT_SCHEME, "direct")
            with pytest.raises(NoConvergence, match="far tail") as alone:
                eng.generator_point(base, u, x, DEFAULT_SCHEME, "transposed")
            with pytest.raises(NoConvergence) as together:
                eng.generator_point(base, u, x, DEFAULT_SCHEME, ALL_FACES)
            assert str(together.value) == str(alone.value)
        with pytest.raises(NoConvergence, match="far tail"):
            [eng.unwrap(e) for e in eng.generator_block(base, u, pts, DEFAULT_SCHEME, ALL_FACES)]


# ---------------------------------------------------------------------------
# a constant order is weighted once per table side
# ---------------------------------------------------------------------------


# 0.66 and 1.61 are orders where a scalar and an array weight could part in the last bit
@pytest.mark.parametrize("n, order", ((1, 1.0), (1, 0.66), (2, 0.5), (2, 1.61)))
def test_constant_order_tables_keep_the_bits_of_both_sides(n, order):
    k = stable_like_kernel(AlphaFunction.constant(order, n))
    x = np.array([0.3, -0.1][:n])
    Z = eng.make_nodes(n, 1e-3, 4.0, DEFAULT_SCHEME).offsets()
    tab = PointTable(eng.faces_of(k)["direct"].pairs, x, Z)
    r = np.sqrt(np.sum(Z * Z, axis=-1))
    a = np.full(len(Z), order)
    # the direct side weighs the order at x on its scalar path, the
    # transposed side the orders at x + z on the array path
    assert _r(tab["direct"].tolist()) == _r((weight_w(float(order), n) * r ** (-(n + order))).tolist())
    assert _r(tab["transposed"].tolist()) == _r((weight_w(a, n) * r ** (-(n + a))).tolist())


# ---------------------------------------------------------------------------
# one Hessian of u per base point
# ---------------------------------------------------------------------------


def _signed_zero_bump(dim):
    """The unit bump, with a Hessian that reads the sign of a zero first
    coordinate: at x = -0.0 it differs from the Hessian at +0.0, which is
    where fourth_along's centre stencil point x + 0.0 lands."""
    b = GridFunction.bump((0.0,) * dim, 1.0)

    def hess(x):
        return b.hess(x) + np.where(np.signbit(x[..., 0]), 1e-3, 0.0)[..., None, None] * np.eye(dim)

    return GridFunction.analytic(dim, b, b.grad, hess, box=b.box, support_radius=1.0, center=b.center)


@pytest.mark.parametrize(
    "dim, points",
    ((1, [(-0.0,), (0.0,), (0.3,), (-0.4,)]), (2, [(-0.0, 0.2), (0.1, -0.0), (0.0, 0.0), (0.3, -0.4)])),
)
def test_the_hessian_at_a_base_point_is_evaluated_once(monkeypatch, dim, points):
    base, _ = _kernel(f"stable-{dim}d")
    u = _signed_zero_bump(dim)
    pts = np.array(points)
    locs = eng.stable_local(base.alpha_fn, pts)
    for x, loc in zip(pts, locs):
        want = _ref_stable_comp_inner(loc, u, x, eng.S_INNER)
        H = u.hess(x)
        got = eng.stable_comp_inner(loc, float(np.trace(H)), u.fourth_along(x, hess_x=H), eng.S_INNER)
        assert _r(got) == _r(want)
        assert _r(u.fourth_along(x)) == _r(_ref_fourth_along(u, x))
    calls = []
    hess = GridFunction.hess
    monkeypatch.setattr(GridFunction, "hess", lambda self, x: (self is u and calls.append(1)) or hess(self, x))
    # the Hessians at the points (the inner balls, the fourth differences'
    # centres and the Taylor forms), at the stencils, and at the +0.0 centres
    # of the points with a -0.0 coordinate: one call each, however many points
    signed = any(bool(np.any(np.signbit(x) & (x == 0.0))) for x in pts)
    for block in (pts, np.repeat(pts, 5, axis=0)):
        calls.clear()
        ev = apply_L(base, u, block)
        assert len(calls) == 2 + signed
    monkeypatch.setattr(eng, "stable_comp_inner", lambda loc, trH, d4, s: _ref_stable_comp_inner(loc, u, loc.x, s))
    assert _r(ev) == _r(apply_L(base, u, np.repeat(pts, 5, axis=0)))


# ---------------------------------------------------------------------------
# killing ladders, principal values and generic inner shells as blocks
# ---------------------------------------------------------------------------


def _ref_plan_inner_shells(pairs, u, x, s0, scheme):
    """plan_inner_shells as it was, one base point per walk."""
    x = np.asarray(x, dtype=float)
    M2 = u.hess_sup()
    g = np.linalg.norm(u.grad(x)) + 1e-300
    tol = 0.25 * scheme.tol_abs

    def metric(ns, tab):
        m = ns.count
        ks, ka = tab["sym"][:m], tab["anti"][:m]
        m2 = ns.integrate(lambda Z: np.sum(Z * Z, axis=-1) * ks)
        m1d = ns.integrate(
            lambda Z: np.sqrt(np.sum(Z * Z, axis=-1))
            * (np.abs(ks - tab.minus("sym")[:m]) + np.abs(ka - tab.minus("anti")[:m]))
        )
        m1a = ns.integrate(lambda Z: np.sqrt(np.sum(Z * Z, axis=-1)) * np.abs(ka))
        return m2, m1d, m1a

    walked, hist = [], []
    floor = 8.0 * float(np.max(np.abs(x))) * 2.0**-52
    count = next((i for i in range(80) if s0 * 2.0**-i <= floor), 80)
    for i in range(count):
        ns = eng.make_nodes(pairs.base.dim, s0 * 2.0 ** -(i + 1), s0 * 2.0**-i, scheme)
        tab = PointTable(pairs, x, ns.offsets(), True)
        walked.append((ns, tab))
        hist.append(metric(ns, tab))
        if i >= 1:
            prev, cur = np.array(hist[-2]), np.array(hist[-1])
            if np.all(cur == 0.0) and np.all(prev == 0.0):
                return walked, {"comp": 0.0, "drift": 0.0, "anti": 0.0}
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(prev > 0, cur / prev, 0.0)
            if np.all(cur <= 0.9 * np.maximum(prev, 1e-300)) or np.all(cur < tol * 1e-6):
                rho = min(float(np.max(ratios)) * 1.2, 0.95)
                tails = cur * rho / (1.0 - rho)
                bounds = {
                    "comp": 0.5 * M2 * tails[0],
                    "drift": 0.5 * g * tails[1],
                    "anti": (np.max(np.abs(u.grad(x))) + 1.0) * tails[2],
                }
                if max(bounds.values()) < tol:
                    return walked, bounds
    raise NoConvergence(
        "inner shells reached the floating-point resolution of the base point before the near-diagonal masses decayed"
        if count < 80
        else "inner shells did not decay: the kernel is too singular near the diagonal for the compensated integral"
    )


def _ref_ladder(first, eps, band):
    acc = first
    partials = [acc]
    for e_prev, e in zip(eps[:-1], eps[1:]):
        acc = acc + band(e, e_prev)
        partials.append(acc)
    return np.asarray(partials)


def _ref_truncated_bands(face, u, x, eps_seq, scheme):
    """truncated_bands as it was: one base point, one node set per band."""
    eps = eng._eps_ladder(eps_seq, scheme)
    x = np.asarray(x, dtype=float).reshape(-1)
    ux = float(u(x))
    fn = lambda Z: (u(x + Z) - ux) * face_at(face, x, Z)
    first, diag = eng.unwrap(eng.plain_truncated(face, u, x[None], eps[0], scheme)[0])
    return _ref_ladder(first, eps, lambda lo, hi: eng.make_nodes(face.dim, lo, hi, scheme, support=face.z_support).integrate(fn)), diag


def _ref_kappa_partials(base, x, eps_seq, scheme, sk=None, faces=None):
    """kappa_partials as it was: one base point, one node set and table per segment."""
    eps = eng._eps_ladder(eps_seq, scheme)
    x = np.asarray(x, dtype=float).reshape(-1)
    dim = base.dim
    diag = {}
    if faces is None:
        faces = eng.faces_of(base, sk)
    stable = base.alpha_fn is not None
    if stable:
        af = base.alpha_fn
        loc = eng.unwrap(eng.stable_local(af, x[None])[0])
        a0, w0 = loc.a0, loc.w0

        def gform(Z):
            r = np.sqrt(np.sum(Z * Z, axis=-1))
            aZ = af(x + Z)
            wZ = weight_w(aZ, dim)
            lr = np.log(r)
            G = wZ * np.exp((a0 - aZ) * lr)
            return np.exp(-(dim + a0) * lr) * (G - w0)

        t_val, t_bound, t_ok = eng.far_mass(faces["transposed"], x, scheme.r_break, scheme)
        d_val, d_bound, d_ok = eng.far_mass(faces["direct"], x, scheme.r_break, scheme)
        if af.is_constant:
            outer = 0.0
            t_bound = d_bound = 0.0
            t_ok = d_ok = True
        else:
            outer = t_val - d_val
        far_bound, far_ok = t_bound + d_bound, t_ok and d_ok
    else:
        outer, far_bound, far_ok = eng.far_mass(faces["kappa_far"], x, scheme.r_break, scheme)
    diag["far_bound"] = far_bound
    diag["far_ok"] = far_ok
    zs = min(eng.S_INNER, scheme.r_break) if stable else 0.0
    noise = 0.0

    def segment(lo, hi):
        nonlocal noise
        if hi <= lo:
            return 0.0
        if stable and hi <= zs:
            return eng.stable_pair_defect(loc, lo, hi)
        if stable and lo < zs:
            return eng.stable_pair_defect(loc, lo, zs) + eng.make_nodes(dim, zs, hi, scheme, support=base.z_support).integrate(gform)
        nodes = eng.make_nodes(dim, lo, hi, scheme, support=base.z_support)
        if stable:
            return nodes.integrate(gform)
        # the table of x as the block of one, which raises x's error
        tab = faces["direct"].pairs.table(x[None, None], nodes.offsets())
        mag = np.abs(tab["direct"][0]) + np.abs(tab["transposed"][0])
        eng.unwrap(tab.faults().get(0))
        noise += 2.0**-52 * nodes.sum(lambda Z: mag)
        return nodes.integrate(lambda Z: 2.0 * tab["anti_rev"][0])

    partials = _ref_ladder(segment(eps[0], scheme.r_break) + outer, eps, segment)
    diag["fp_noise"] = noise
    return partials, diag


def _point_by_point(ref, at):
    """A block entry point made of ref, which takes one base point as its
    argument ``at``: a block gives each point's result, or the error it meets."""

    def block(*args, **kwargs):
        one = lambda xp: ref(*args[:at], xp, *args[at + 1 :], **kwargs)
        return [eng.attempt(lambda: one(xp)) for xp in args[at]]

    return block


def _ref_generator_block(base, u, X, scheme, which, *, sk=None):
    return [eng.attempt(lambda: _ref_generator_point(base, u, x, scheme, which, sk)) for x in X]


def _install_per_point(monkeypatch):
    monkeypatch.setattr(eng, "kappa_partials", _point_by_point(_ref_kappa_partials, 1))
    monkeypatch.setattr(eng, "truncated_bands", _point_by_point(_ref_truncated_bands, 2))
    monkeypatch.setattr(eng, "plan_inner_shells", _ref_plan_inner_shells)
    monkeypatch.setattr(eng, "generator_block", _ref_generator_block)


def _expression_kernel(dim):
    """The generic-cli expression kernels, built as jumpform run builds them."""
    from jumpform.config import _build_kernel

    spec = (
        {"type": "expression", "dim": 1, "expr": "(1 + 0.3*tanh(y)) / (r**1.5 * (1 + r**2))",
         "tail_exponent": 2.5, "tail_amplitude": 1.35}
        if dim == 1
        else {"type": "expression", "dim": 2, "expr": "(1 + 0.25*sin(x1) - 0.25*sin(y2)) / r**2.4", "z_support": 1.0}
    )
    diags = []
    sk = _build_kernel(spec, diags)
    assert sk is not None, diags
    return sk


def _ladder_case(name):
    """(SplitKernel, u, points, H5 compacts) of one case."""
    bump = lambda dim: GridFunction.bump((0.1,) * dim, 1.0, 1.1)
    if name in ("stable-1d", "stable-2d", "nan-kernel-1d"):
        base, _ = _kernel(name)
        sk = split(base)
    else:
        sk = _expression_kernel(1 if name == "expr-1d" else 2)
    if sk.dim == 1:
        pts = np.array([-1.4, -0.5, -0.0, 0.0, 0.45, 1.3])[:, None]
        if name == "nan-kernel-1d":
            pts = np.concatenate([pts, [[-6.0], [-0.3]]])
        return sk, bump(1), pts, [Box((-1.0,), (0.0,)), Box((-6.5,), (-4.5,))]
    pts = np.array([[0.0, 0.0], [-0.0, 0.3], [0.3, -0.2], [-0.7, 0.5], [1.2, 0.1]])
    return sk, bump(2), pts, [Box((-0.5, -0.5), (0.5, 0.5))]


def _outcome(call):
    """The canonical output of call, or the repr of what it raised."""
    try:
        out = call()
    except (DomainError, NegativeKernel, NoConvergence, QuadratureOverflow) as exc:
        return repr(exc)
    if hasattr(out, "operator_id"):
        return _canon(out)
    if hasattr(out, "partials"):
        return _r((out.partials.tolist(), out.values.tolist(), out.converged.tolist(), out.sign_summary, out.diagnostics))
    return _r(out)


def _ladder_calls(name):
    sk, u, pts, compacts = _ladder_case(name)
    base = sk.base
    return [
        lambda: killing_term(base, pts, sk=sk),
        lambda: killing_term(base, pts, eps_sequence=[2.0**-m for m in range(1, 25)], sk=sk),
        lambda: apply_B(sk, u, pts),
        # a cutoff of 0: an argument error, raised up front by both codes
        lambda: killing_term(base, pts, eps_sequence=[0.5, 0.25, 0.0], sk=sk),
        lambda: apply_B(sk, u, pts, eps_sequence=[0.5, 0.25, 0.0]),
        lambda: apply_L(base, u, pts),
        lambda: apply_Lstar(base, u, pts),
        lambda: check_local_pv_bound(sk, compacts, per_axis=3),
    ]


@pytest.mark.parametrize("name", ("stable-1d", "stable-2d", "expr-1d", "expr-2d", "nan-kernel-1d"))
def test_ladders_and_inner_shells_match_the_per_point_code(monkeypatch, name):
    with np.errstate(invalid="ignore", divide="ignore"):
        got = [_outcome(call) for call in _ladder_calls(name)]
        _install_per_point(monkeypatch)
        want = [_outcome(call) for call in _ladder_calls(name)]
    assert got == want
    if name == "nan-kernel-1d":
        assert "negative or NaN" in got[0] and "negative or NaN" in got[2]


def test_a_point_at_the_shell_floor_keeps_its_message(monkeypatch):
    # near x = 1e9 the generic inner shells reach the rounding of x + z
    # before the masses decay; the points next to it walk on
    sk = _expression_kernel(1)
    u = GridFunction.bump((1e9,), 1.0)
    pts = np.array([[1e9], [1e9 + 0.25], [1e9 - 0.5]])
    calls = lambda: [
        _outcome(lambda: apply_L(sk.base, u, pts)),
        _outcome(lambda: apply_Ltilde(sk, u, pts)),
        _outcome(lambda: killing_term(sk.base, pts, eps_sequence=[2.0**-m for m in range(1, 25)], sk=sk)),
    ]
    got = calls()
    assert "floating-point resolution" in got[0]
    _install_per_point(monkeypatch)
    assert got == calls()


def test_an_H5_sample_that_overflows_the_cap_is_certified_on_its_own(monkeypatch):
    # r^-3 (1 + sin x - sin y) on r <= 1: at a cap of 1e10 one sample's
    # ladder escapes it, the others stay finite
    def raw(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        with np.errstate(divide="ignore"):
            vals = np.where(r > 0, r**-3.0, np.inf) * (1.0 + np.sin(x[..., 0]) - np.sin(y[..., 0]))
        return np.where(r <= 1.0, vals, 0.0)

    sk = split(JumpKernel(dim=1, eval=raw, z_support=1.0))
    scheme = DEFAULT_SCHEME.with_(magnitude_cap=1e10)
    call = lambda: _outcome(lambda: check_local_pv_bound(sk, [Box((1.0,), (2.0,))], scheme, per_axis=5))
    got = call()
    rep = check_local_pv_bound(sk, [Box((1.0,), (2.0,))], scheme, per_axis=5)
    sups = [p["sup"] for p in rep.details["per_point"]]
    assert rep.verdict == "fail" and sups.count(float("inf")) == 1 and all(math.isfinite(s) for s in sups if s != float("inf"))
    _install_per_point(monkeypatch)
    assert got == call()


@pytest.mark.parametrize("name", ("stable-1d", "stable-2d", "expr-1d", "expr-2d", "nan-kernel-1d"))
def test_block_ladders_keep_each_points_bits_in_any_chunk(monkeypatch, name):
    sk, u, pts, _ = _ladder_case(name)
    base, scheme = sk.base, DEFAULT_SCHEME
    faces = eng.faces_of(base, sk)
    eps = [2.0**-m for m in range(1, 25)]
    pairs = eng.KernelPairs(base, sk)

    def per_point():
        return [
            [_r(eng.attempt(lambda: _ref_kappa_partials(base, x, eps, scheme, sk, faces))) for x in pts],
            [_r(eng.attempt(lambda: _ref_truncated_bands(faces["sym"], u, x, eps[:12], scheme))) for x in pts],
            [_r(eng.attempt(lambda: _plan_outcome(_ref_plan_inner_shells(_RefPairs(base, sk), u, x, 1e-2, scheme)))) for x in pts],
        ]

    def blocks():
        seen = []
        add = lambda ns, Z, rows, tab, ok: seen.append((ns, rows[ok].tolist()))
        shells, plans = eng.plan_inner_shells(pairs, u, pts, 1e-2, scheme, add)
        # add reads every shell for the points that walked it, each once
        for i, ns in enumerate(shells):
            rows = [p for shell, r in seen if shell is ns for p in r]
            assert rows == [p for p, pl in enumerate(plans) if not isinstance(pl, Exception) and pl[0] > i]
        return [
            [_r(e) for e in eng.kappa_partials(base, pts, eps, scheme, sk, faces)],
            [_r(e) for e in eng.truncated_bands(faces["sym"], u, pts, eps[:12], scheme)],
            [_r(pl if isinstance(pl, Exception) else (pl[0], pl[1])) for pl in plans],
        ]

    with np.errstate(invalid="ignore", divide="ignore"):
        want = per_point()
        for cap in (eng._PAIR_BLOCK, 4 * 64, 1):
            monkeypatch.setattr(eng, "_PAIR_BLOCK", cap)
            assert blocks() == want, cap
        # each point as the block of one
        for x, k, t in zip(pts, *want[:2]):
            assert [_r(e) for e in eng.kappa_partials(base, x[None], eps, scheme, sk, faces)] == [k]
            assert [_r(e) for e in eng.truncated_bands(faces["sym"], u, x[None], eps[:12], scheme)] == [t]


def _plan_outcome(plan):
    walked, bounds = plan
    return len(walked), bounds
