"""Forms evaluated as blocks of cells keep the bits each cell has on its own.

``forms.eta``, ``forms.energy_E`` and ``forms.eta_n`` evaluate every cell of
a call as one block: one near-diagonal walk, stacked mid and complement
panel tables, and one block ``plain_truncated`` for the antisymmetric and
truncated integrals; ``apply_B`` takes its antisymmetric part the same way.
The reference below is the per-cell evaluation the blocks replaced, copied:
``_energy_density``, ``_complement_mass``, ``plain_truncated`` and
``anti_integral`` as they were, and the loops of the forms and of
``apply_B`` around them.  Every result must agree with it exactly, compared
by repr (so a -0.0 against a +0.0 fails, and a raised error must be the same
error with the same message).
"""

import math

import numpy as np
import pytest

from jumpform import (
    AlphaFunction,
    Box,
    GridFunction,
    JumpKernel,
    SplitKernel,
    apply_B,
    energy_E,
    eta,
    eta_n,
    split,
    stable_like_kernel,
)
from jumpform import _engine as eng
from jumpform import forms
from jumpform.errors import DomainError, JumpformError, NoConvergence
from jumpform.forms import FormValue
from jumpform.operators import _POINT_ERRORS, OperatorEvaluation, _points_array
from jumpform.quadrature import DEFAULT_SCHEME, _pv_on_face

from one_point import face_at


# ---------------------------------------------------------------------------
# the per-cell reference
# ---------------------------------------------------------------------------


def _ref_complement_mass(sym, x, box, scheme, r_far, far_v):
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
        # the walk of x as the block of one
        (walk,), _, _ = eng.shell_refine(
            sym.pairs, x[None], s_in, scheme, (lambda _, Z, tab: pair_diff(Z) * tab["sym"],), tol=0.25 * scheme.tol_abs,
            label="energy near-diagonal",
        )
        (inner,) = eng.unwrap(walk)
    r_far = forms._corner_radius(box, x)
    mid = eng.make_nodes(dim, s_in, r_far, scheme).integrate(lambda Z: pair_diff(Z) * face_at(sym, x, Z))
    if ux == 0.0 or vx == 0.0:
        return inner + mid + ux * vx
    far_v, _, far_ok = eng.far_mass(sym, x, r_far, scheme)
    if not far_ok and ux * vx != 0.0:
        raise NoConvergence(f"energy density: far field of k_s beyond |z| = {r_far:.3g} did not resolve")
    val = inner + mid + ux * vx * far_v
    return val + ux * vx * _ref_complement_mass(sym, x, box, scheme, r_far, far_v)


def _ref_plain_truncated(face, u, x, lo, scheme):
    x = np.asarray(x, dtype=float).reshape(-1)
    ux = float(u(x))
    loc = None
    if u.trig is not None:
        if face.stable_kind != "direct" or face.af is None:
            raise DomainError("plane waves need a power-law direct face")
        loc = eng.unwrap(eng.stable_local(face.af, x[None])[0])
    R_out, max_w = eng._outer_region(u, x, loc, scheme)

    def fn(Z):
        return (u(x + Z) - ux) * face_at(face, x, Z)

    val = eng.make_nodes(face.dim, lo, R_out, scheme, max_w).integrate(fn)
    diag = {}
    val = eng._add_tail(val, face, u, x, R_out, loc, scheme, ux, diag)
    diag["R_out"] = R_out
    return float(val), diag


def _ref_anti_integral(sk, faces, kind, u, x, scheme):
    if sk.base.alpha_fn is not None:
        loc = eng.unwrap(eng.stable_local(sk.base.alpha_fn, x[None])[0])
        s_in = min(eng.S_INNER, scheme.r_break)
        inner = eng.stable_anti_inner(loc, u.grad(x).reshape(-1), 0.0, s_in)
        if kind == "anti_rev":
            inner = -inner
    else:
        s_in = scheme.eps_min
        inner = 0.0
    band, _ = _ref_plain_truncated(faces[kind], u, x, s_in, scheme)
    return inner + band


def _far_points(u, v, pts, box):
    cells = [x for x in pts if float(u(x)) != 0.0 and float(v(x)) != 0.0]
    return cells, [forms._corner_radius(box, x) for x in cells]


def _ref_energy_E(u, v, sk, scheme=DEFAULT_SCHEME, outer_per_axis=None):
    box, pts, vol = forms._cells(u, v, outer_per_axis)
    faces = eng.faces_of(sk.base, sk)
    eng.far_masses(faces["sym"], *_far_points(u, v, pts, box), scheme)
    acc = 0.0
    for x in pts:
        acc += _ref_energy_density(sk, faces, u, v, np.asarray(x, dtype=float), box, scheme)
    return float(acc * vol)


def _ref_eta(u, v, sk, scheme=DEFAULT_SCHEME, outer_per_axis=None):
    box, pts, vol = forms._cells(u, v, outer_per_axis)
    faces = eng.faces_of(sk.base, sk)
    eng.far_masses(faces["sym"], *_far_points(u, v, pts, box), scheme)
    e_acc = 0.0
    a_acc = 0.0
    skipped = 0
    for p in pts:
        x = np.asarray(p, dtype=float)
        e_acc += _ref_energy_density(sk, faces, u, v, x, box, scheme)
        vx = float(v(x))
        if vx != 0.0:
            a_acc += vx * _ref_anti_integral(sk, faces, "anti_rev", u, x, scheme)
        else:
            skipped += 1
    return FormValue.of(
        0.5 * e_acc * vol,
        a_acc * vol,
        {"outer_cells": len(pts), "outer_volume": vol, "anti_cells_skipped": skipped},
    )


def _ref_eta_n(u, v, k, n_trunc, scheme=DEFAULT_SCHEME, outer_per_axis=None):
    box, pts, vol = forms._cells(u, v, outer_per_axis)
    direct = eng.faces_of(k)["direct"]
    acc = 0.0
    for p in pts:
        x = np.asarray(p, dtype=float)
        vx = float(v(x))
        if vx == 0.0:
            continue
        lnu, _ = _ref_plain_truncated(direct, u, x, 1.0 / n_trunc, scheme)
        acc += vx * lnu
    return float(-acc * vol)


def _ref_apply_B(sk, u, points, scheme=DEFAULT_SCHEME):
    pts = _points_array(points, sk.dim)
    faces = eng.faces_of(sk.base, sk)
    rows = []
    for x in pts:
        try:
            pv = eng.unwrap(_pv_on_face(faces["sym"], u, x[None], None, scheme)[0])
            anti = _ref_anti_integral(sk, faces, "anti", u, x, scheme)
        except _POINT_ERRORS as exc:
            rows.append((float("nan"), {"error": str(exc)}))
            continue
        diag = {"pv_converged": pv.converged, "pv_last_delta": pv.last_delta, "anti_part": anti}
        if not pv.converged:
            diag["warning"] = "principal value not Cauchy along the cutoff sequence"
        rows.append((float(pv.value + anti), diag))
    return OperatorEvaluation("B", pts, np.array([r[0] for r in rows]), tuple(r[1] for r in rows))


# ---------------------------------------------------------------------------
# kernels and functions
# ---------------------------------------------------------------------------


def _generic_1d():
    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return (1.0 + 0.3 * np.tanh(y[..., 0])) / (r**1.5 * (1.0 + r * r))

    return split(JumpKernel(dim=1, eval=k, label="generic-1d", tail_exponent=2.5, tail_amplitude=1.35))


def _generic_2d():
    def k(x, y):
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        return (1.0 + 0.25 * np.sin(x[..., 0]) - 0.25 * np.sin(y[..., 1])) / (r**2.4 * (1.0 + r * r))

    return split(JumpKernel(dim=2, eval=k, label="generic-2d", tail_exponent=2.4, tail_amplitude=1.5))


def _from_parts_1d():
    def ks(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return 1.0 / (r**1.5 * (1.0 + r * r))

    def ka(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return 0.25 * (np.tanh(x[..., 0]) - np.tanh(y[..., 0])) / (r**1.5 * (1.0 + r * r))

    return SplitKernel.from_parts(1, ks, ka, label="from-parts-1d", tail_exponent=2.5, tail_amplitude=1.25)


KERNELS = {
    "stable-1d": lambda: split(stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0))),
    "stable-2d": lambda: split(
        stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) * np.cos(x[..., 1]), 0.6, 1.0, dim=2))
    ),
    "constant-2d": lambda: split(stable_like_kernel(AlphaFunction.constant(1.2, dim=2))),
    "from-parts-1d": _from_parts_1d,
    "generic-1d": _generic_1d,
    "generic-2d": _generic_2d,
}

# v's support covers part of the union box only, so that v(x) == 0 at some
# cells, and u is negative so that u(x) is -0.0 outside its support
FUNCTIONS = {
    1: (GridFunction.bump((0.0,), 1.0, -1.0), GridFunction.bump((0.4,), 0.6)),
    2: (GridFunction.bump((0.0, 0.0), 0.8), GridFunction.bump((0.3, -0.2), 0.5, -0.7)),
}
# 1, 2 and an odd number of cells per axis
PER_AXIS = {1: (1, 2, 9), 2: (1, 2, 3)}
POINTS = {1: ((-0.0,), (0.3,), (-0.7,), (1.3,)), 2: ((-0.0, 0.0), (0.1, -0.2), (-0.6, 0.5))}


def _outcome(fn):
    """repr of fn()'s result, or of the error it raised."""
    try:
        return repr(fn())
    except JumpformError as exc:
        return repr(exc)


# ---------------------------------------------------------------------------
# the forms against the per-cell reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(KERNELS))
def test_eta_and_energy_match_the_per_cell_reference(name):
    sk = KERNELS[name]()
    u, v = FUNCTIONS[sk.dim]
    with np.errstate(all="ignore"):
        for m in PER_AXIS[sk.dim]:
            for a, b in ((u, v), (v, u)):
                assert _outcome(lambda: eta(a, b, sk, outer_per_axis=m)) == _outcome(lambda: _ref_eta(a, b, sk, outer_per_axis=m))
                assert _outcome(lambda: energy_E(a, b, sk, outer_per_axis=m)) == _outcome(
                    lambda: _ref_energy_E(a, b, sk, outer_per_axis=m)
                )


@pytest.mark.parametrize("name", list(KERNELS))
def test_eta_n_matches_the_per_cell_reference(name):
    sk = KERNELS[name]()
    u, v = FUNCTIONS[sk.dim]
    with np.errstate(all="ignore"):
        for m in PER_AXIS[sk.dim]:
            for n in (1, 4):
                got = _outcome(lambda: eta_n(u, v, sk.base, n, outer_per_axis=m))
                assert got == _outcome(lambda: _ref_eta_n(u, v, sk.base, n, outer_per_axis=m))


@pytest.mark.parametrize("name", list(KERNELS))
def test_apply_B_matches_the_per_point_reference(name):
    sk = KERNELS[name]()
    u, _ = FUNCTIONS[sk.dim]
    pts = np.array(POINTS[sk.dim])
    with np.errstate(all="ignore"):
        got = _outcome(lambda: apply_B(sk, u, pts))
        assert got == _outcome(lambda: _ref_apply_B(sk, u, pts))
        # each point on its own, as the block of one
        for x in pts:
            assert _outcome(lambda: apply_B(sk, u, x[None])) == _outcome(lambda: _ref_apply_B(sk, u, x[None]))


def test_apply_B_flags_a_point_whose_antisymmetric_integral_fails():
    # the support of u reaches |z| ~ 1.5 + 64 from x = 64.5, beyond r_max:
    # the point is flagged with the error of its own outer region
    sk = KERNELS["generic-1d"]()
    u, _ = FUNCTIONS[1]
    pts = np.array([[0.3], [64.5], [-0.2]])
    with np.errstate(all="ignore"):
        got = apply_B(sk, u, pts)
        assert repr(got) == repr(_ref_apply_B(sk, u, pts))
    assert got.flagged == (1,) and "r_max" in got.diagnostics[1]["error"]


def test_plain_truncated_block_matches_each_point():
    for name in ("stable-1d", "generic-2d"):
        sk = KERNELS[name]()
        u, _ = FUNCTIONS[sk.dim]
        faces = eng.faces_of(sk.base, sk)
        X = np.array(POINTS[sk.dim])
        for kind in ("direct", "anti", "anti_rev"):
            block = eng.plain_truncated(faces[kind], u, X, 0.01, DEFAULT_SCHEME)
            for x, entry in zip(X, block):
                assert repr(entry) == repr(_ref_plain_truncated(faces[kind], u, x, 0.01, DEFAULT_SCHEME))
                assert repr(eng.plain_truncated(faces[kind], u, x[None], 0.01, DEFAULT_SCHEME)) == repr([entry])
    # a block of no points
    assert eng.plain_truncated(faces["direct"], u, np.empty((0, 2)), 0.01, DEFAULT_SCHEME) == []


def _odd_at_zero():
    """u(z) = z (1 - z^2)^2 on [-1, 1]: u(x + z) - u(x) is exact at x = 0 for
    every z, so no shell of the walk there reads zero by rounding."""

    def value(x):
        t = x[..., 0]
        return np.where(np.abs(t) < 1.0, t * (1.0 - t * t) ** 2, 0.0)

    def grad(x):
        t = x[..., 0]
        return np.where(np.abs(t) < 1.0, (1.0 - t * t) * (1.0 - 5.0 * t * t), 0.0)[..., None]

    def hess(x):
        t = x[..., 0]
        return np.where(np.abs(t) < 1.0, -12.0 * t + 20.0 * t**3, 0.0)[..., None, None]

    return GridFunction.analytic(1, value, grad, hess, box=Box((-1.0,), (1.0,)), support_radius=1.0)


def test_a_cell_whose_walk_runs_out_of_shells_raises_its_error():
    # k_s = r^-3.2: the walk at the cell x = 0 sums masses growing like
    # h^-0.2, which never end; the cells beside it end on rounding, where
    # x + z == x and the kernel reads 1e300
    def steep(x, y):
        return 1.0 / (np.abs(x[..., 0] - y[..., 0]) ** 3.2 + 1e-300)

    sk = split(JumpKernel(dim=1, eval=steep, label="steep", symmetric_hint=True, tail_exponent=2.2, tail_amplitude=1.0))
    u = _odd_at_zero()
    box, pts, _ = forms._cells(u, u, 3)
    assert pts[1, 0] == 0.0
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _ref_eta(u, u, sk, outer_per_axis=3))
        assert want == repr(NoConvergence("energy near-diagonal: shell masses did not decay below tolerance after 80 shells"))
        assert _outcome(lambda: eta(u, u, sk, outer_per_axis=3)) == want
        assert _outcome(lambda: energy_E(u, u, sk, outer_per_axis=3)) == want


def test_a_cell_whose_kernel_raises_meets_its_own_error():
    # sqrt(0.3 - x) reads NaN at base points x > 0.3, so only the node sets
    # of those cells raise: each is integrated alone and the form raises the
    # error of the first such cell, as the per-cell loop did
    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return np.sqrt(0.3 - x[..., 0]) / (r**1.5 * (1.0 + r * r))

    base = JumpKernel(dim=1, eval=k, label="root-1d", tail_exponent=2.5, tail_amplitude=1.0)
    u, v = FUNCTIONS[1]
    faces = eng.faces_of(base)
    X = np.array([[0.0], [0.35], [-0.4], [0.6]])
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _ref_eta_n(u, v, base, 2, outer_per_axis=9))
        assert "NegativeKernel" in want
        assert _outcome(lambda: eta_n(u, v, base, 2, outer_per_axis=9)) == want
        block = eng.plain_truncated(faces["direct"], u, X, 0.01, DEFAULT_SCHEME)
        for x, entry in zip(X, block):
            ref = _outcome(lambda: _ref_plain_truncated(faces["direct"], u, x, 0.01, DEFAULT_SCHEME))
            assert repr(entry) == ref
    assert [isinstance(e, Exception) for e in block] == [False, True, False, True]


def _cubic():
    """(1 - x^2)^3 on [-1, 1]: NumPy's ** rounds some points differently on
    a scalar than inside an array."""

    def value(x):
        t = x[..., 0]
        return np.where(np.abs(t) < 1.0, (1.0 - t * t) ** 3, 0.0)

    def grad(x):
        t = x[..., 0]
        return np.where(np.abs(t) < 1.0, -6.0 * t * (1.0 - t * t) ** 2, 0.0)[..., None]

    def hess(x):
        t = x[..., 0]
        return np.where(np.abs(t) < 1.0, -6.0 * (1.0 - t * t) ** 2 + 24.0 * t * t * (1.0 - t * t), 0.0)[..., None, None]

    return GridFunction.analytic(1, value, grad, hess, box=Box((-1.0,), (1.0,)), support_radius=1.0)


@pytest.mark.parametrize("name", ("stable-1d", "generic-1d"))
def test_each_cell_reads_u_and_v_on_its_own(name):
    # at 17 cells a cell centre reads (1 - x^2)^3 differently as a point and
    # inside the array of centres; the forms must read it as the point
    sk = KERNELS[name]()
    u, v = _cubic(), FUNCTIONS[1][0]
    _, pts, _ = forms._cells(u, v, 17)
    assert np.any(np.asarray(u(pts)) != np.array([float(u(x)) for x in pts]))
    faces = eng.faces_of(sk.base, sk)
    for x, entry in zip(pts, eng.plain_truncated(faces["anti_rev"], u, pts, 0.01, DEFAULT_SCHEME)):
        assert repr(entry) == repr(_ref_plain_truncated(faces["anti_rev"], u, x, 0.01, DEFAULT_SCHEME))
    for a, b in ((u, v), (v, u)):
        assert _outcome(lambda: eta(a, b, sk, outer_per_axis=17)) == _outcome(lambda: _ref_eta(a, b, sk, outer_per_axis=17))
        assert _outcome(lambda: eta_n(a, b, sk.base, 3, outer_per_axis=17)) == _outcome(
            lambda: _ref_eta_n(a, b, sk.base, 3, outer_per_axis=17)
        )
