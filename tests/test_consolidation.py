"""The shared far-field march, node sum, tail block and shell walk reproduce
the separate code paths they replaced, bit for bit.

The references below are the earlier forms of the same computations: the
octave loop of the C1 absolute tail, the octave loop of the sector ratio,
the one-integrand shell walk with the sector integrand that built its own
table, the uncapped node sum, the outer-radius and tail blocks of
plain_truncated and generator_point, and check_FU and
check_misc_integrability with one shell walk per integrand.  The shared code
must agree with them exactly (compared by repr, so a -0.0 against a +0.0
fails), not merely to rounding.
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from jumpform import (
    AlphaFunction,
    Box,
    GridFunction,
    JumpformError,
    JumpKernel,
    NoConvergence,
    QuadratureOverflow,
    SplitKernel,
    check_FU,
    check_misc_integrability,
    split,
    stable_like_kernel,
)
from jumpform import _engine as eng
from jumpform.conditions import _lattice_report, _l2_over, _pt, _refined, _sample_points, sector_ratio_at
from jumpform.quadrature import DEFAULT_SCHEME

from one_point import PointTable, face_at


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _band(fn, dim, lo, hi, sch, oscillatory, x):
    """band_value_far of fn(Z) on [lo, hi] at the one base point x, as the block of one."""
    (value,) = eng.band_value_far(lambda Xb, Z, rows: ((fn(Z), {}),), dim, [lo], [hi], sch, oscillatory, np.reshape(x, (1, -1)))[0]
    return float(value)


def _ref_abs_tail(face, x, sch):
    """Integral of |face| over |z| >= r_break, by annulus extension."""
    oscillatory = face.af is not None and not face.af.is_constant

    def fn(Z):
        return np.abs(face_at(face, x, Z))

    if face.z_support is not None:
        if face.z_support <= sch.r_break:
            return 0.0
        return eng.make_nodes(face.dim, sch.r_break, face.z_support, sch).integrate(fn)
    total = 0.0
    rc = sch.r_break
    sig = 2.0 if face.dim == 1 else 2.0 * math.pi
    prev = None
    for _ in range(200):
        rn = rc * sch.growth
        s = _band(fn, face.dim, rc, rn, sch, oscillatory, x)
        total += s
        bound = np.inf
        if face.tail_amp is not None and face.tail_q:
            bound = face.tail_amp * sig * rn ** (-face.tail_q) / face.tail_q
        if prev is not None and prev > 0 and s <= 0.9 * prev:
            rho = min(s / prev * 1.2, 0.95)
            bound = min(bound, s * rho / (1.0 - rho))
        if bound < sch.tol_abs * 0.01:
            return total
        prev = s
        rc = rn
    raise NoConvergence("far-field extension of an absolute integral did not terminate")


def _ref_shell_refine(fn, dim, hi, scheme, *, tol, max_shells=80, label="shell refinement"):
    """One integrand's own dyadic shell walk: (value, tail_bound, shells_used)."""
    vals = []
    total = 0.0
    zero_run = 0
    for i in range(max_shells):
        a = hi * 2.0 ** -(i + 1)
        b = hi * 2.0**-i
        s = eng.make_nodes(dim, a, b, scheme).integrate(fn)
        vals.append(s)
        total += s
        if s == 0.0:
            zero_run += 1
            if zero_run >= 2:
                return total, 0.0, i + 1
            continue
        zero_run = 0
        if i >= 1:
            prev = abs(vals[-2])
            cur = abs(vals[-1])
            if prev > 0.0 and cur <= 0.9 * prev:
                rho = min(cur / prev * 1.2, 0.95)
                bound = cur * rho / (1.0 - rho)
                if bound < tol:
                    return total, bound, i + 1
            if cur < tol * 1e-3 and prev < tol * 1e-3:
                return total, cur + prev, i + 1
    raise NoConvergence(f"{label}: shell masses did not decay below tolerance after {max_shells} shells")


def _ref_sector_integrand(faces, x, num=lambda ka: ka * ka):
    """Z -> num(k_a) / k_s at (x, x + Z), 0 where k_s == 0, from a table of its own."""
    pairs = faces["sym"].pairs

    def fn(Z):
        tab = PointTable(pairs, x, Z)
        ks = tab["sym"]
        out = np.zeros_like(ks)
        np.divide(num(tab["anti"]), ks, out=out, where=ks != 0.0)
        return out

    return fn


def _ref_sector_ratio_at(sk, x, scheme):
    x = np.asarray(x, dtype=float).reshape(-1)
    faces = eng.faces_of(sk.base, sk)
    fn = _ref_sector_integrand(faces, x)
    oscillatory = sk.base.alpha_fn is not None and not sk.base.alpha_fn.is_constant
    near, _, _ = _ref_shell_refine(
        fn, sk.dim, scheme.r_break, scheme, tol=0.25 * scheme.tol_abs, label="sector ratio near-field"
    )
    zsup = sk.base.z_support
    if zsup is not None:
        far_val = 0.0
        if zsup > scheme.r_break:
            far_val = eng.make_nodes(sk.dim, scheme.r_break, zsup, scheme).integrate(fn)
        return float(near + far_val)
    anti_fn = partial(face_at, faces["anti"])
    total = 0.0
    rc = scheme.r_break
    for _ in range(200):
        rn = rc * scheme.growth
        s = _band(fn, sk.dim, rc, rn, scheme, oscillatory, x)
        total += s
        b = _band(
            lambda Z: np.abs(np.asarray(anti_fn(x, Z), dtype=float)), sk.dim, rn, rn * scheme.growth, scheme, oscillatory, x
        )
        if b + abs(s) < scheme.tol_abs * 0.01:
            break
        rc = rn
    else:
        raise NoConvergence("sector-ratio far field did not exhaust")
    return float(near + total)


def _ref_uncapped_integral(nodes, fn):
    if len(nodes.r) == 0:
        return 0.0
    if nodes.dim == 1:
        zp = nodes.r[:, None]
        return float(np.dot(nodes.wr, np.asarray(fn(zp), dtype=float) + np.asarray(fn(-zp), dtype=float)))
    z = (nodes.r[:, None, None] * nodes.dirs[None, :, :]).reshape(-1, 2)
    v = np.asarray(fn(z), dtype=float).reshape(len(nodes.r), nodes.angular)
    return float(np.dot(nodes.wr * nodes.r, v.sum(axis=1)) * (eng.TWO_PI / nodes.angular))


def _ref_c3_probe(ratio, dim, scheme):
    probe = eng.make_nodes(dim, 1e-8, scheme.r_break, scheme)
    if dim == 1:
        zs = probe.r[:, None]
        rv = np.maximum(ratio(zs), ratio(-zs))
    else:
        rv = ratio((probe.r[:, None, None] * probe.dirs[None, :, :]).reshape(-1, 2))
    return float(np.max(rv)) if rv.size else 0.0


def _ref_outer(u, x, scheme, loc):
    if u.trig is not None:
        xi = u.trig[0]
        R_out = 8.0 * scheme.r_break if xi == 0.0 else max(8.0 * scheme.r_break, 2.0 * (loc.a0 + 10.0) / abs(xi))
        return R_out, None if xi == 0.0 else math.pi / (2.0 * abs(xi))
    dist = float(np.linalg.norm(np.asarray(x, dtype=float) - u.center))
    r_needed = dist + float(u.support_radius if u.support_radius is not None else u.box.radius)
    return max(scheme.r_break, r_needed), None


def _ref_resolved_tail(face, x, R, scheme, ux, diag):
    fm, fb, ok = eng.far_mass(face, x, R, scheme)
    if not ok:
        raise NoConvergence("far tail did not resolve")
    diag["tail_bound"] = abs(ux) * fb
    diag["tail_ok"] = True
    return -ux * fm


def _ref_generator_tail(comp, face, u, x, R_out, loc, scheme, ux, diag):
    """generator_point's tail block: comp += tail, with tail 0.0 when u(x) == 0."""
    if u.trig is not None:
        ec, ec_err = eng.osc_cos_tail(R_out, 1.0 + loc.a0, u.trig[0])
        tail = 2.0 * loc.w0 * ux * (ec - R_out ** (-loc.a0) / loc.a0)
        diag["tail_bound"] = 2.0 * loc.w0 * ec_err
    elif ux == 0.0:
        tail = 0.0
        diag["tail_bound"] = 0.0
    else:
        tail = _ref_resolved_tail(face, x, R_out, scheme, ux, diag)
    comp += tail
    return comp


def _ref_plain_tail(val, face, u, x, R_out, loc, scheme, ux, diag):
    """plain_truncated's tail block: val is left alone when u(x) == 0."""
    if u.trig is not None:
        ec, ec_err = eng.osc_cos_tail(R_out, 1.0 + loc.a0, u.trig[0])
        val += 2.0 * loc.w0 * ux * (ec - R_out ** (-loc.a0) / loc.a0)
        diag["tail_bound"] = 2.0 * loc.w0 * ec_err
    elif ux != 0.0:
        val += _ref_resolved_tail(face, x, R_out, scheme, ux, diag)
    else:
        diag["tail_bound"] = 0.0
    return val


def _ref_plain_truncated(face, u, x, lo, scheme):
    x = np.asarray(x, dtype=float).reshape(-1)
    ux = float(u(x))
    loc = eng.unwrap(eng.stable_local(face.af, x[None])[0]) if u.trig is not None else None
    R_out, max_w = _ref_outer(u, x, scheme, loc)

    def fn(Z):
        return (u(x + Z) - ux) * face_at(face, x, Z)

    diag = {}
    val = _ref_plain_tail(eng.make_nodes(face.dim, lo, R_out, scheme, max_w).integrate(fn), face, u, x, R_out, loc, scheme, ux, diag)
    diag["R_out"] = R_out
    return float(val), diag


# ---------------------------------------------------------------------------
# kernels and base points
# ---------------------------------------------------------------------------


def _generic_1d(**meta):
    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return (1.0 + 0.3 * np.tanh(y[..., 0])) / (r**1.5 * (1.0 + r * r))

    return split(JumpKernel(dim=1, eval=k, label="generic-1d", **meta))


def _compact_2d(z_support):
    def k(x, y):
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        v = (1.0 + 0.25 * np.sin(x[..., 0]) - 0.25 * np.sin(y[..., 1])) / r**2.4
        return np.where(r <= z_support, v, 0.0)

    return split(JumpKernel(dim=2, eval=k, label="compact-2d", z_support=z_support))


KERNELS = {
    "stable-1d": lambda: split(stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0))),
    "stable-2d": lambda: split(
        stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) * np.cos(x[..., 1]), 0.6, 1.0, dim=2))
    ),
    "constant-2d": lambda: split(stable_like_kernel(AlphaFunction.constant(0.5, 2))),
    "generic-1d-tail": lambda: _generic_1d(tail_exponent=2.5, tail_amplitude=1.35),
    "generic-1d-bare": lambda: _generic_1d(),
    "compact-2d": lambda: _compact_2d(3.0),
    "compact-2d-unit": lambda: _compact_2d(1.0),
}

POINTS = {1: ((0.3,), (-0.0,), (-0.7,), (1.3,)), 2: ((0.1, -0.2), (-0.0, 0.0), (0.5, 0.4))}


def _cases():
    for name, make in KERNELS.items():
        dim = 2 if "2d" in name else 1
        for x in POINTS[dim]:
            yield pytest.param(make, np.array(x), id=f"{name}-{x}")


# ---------------------------------------------------------------------------
# one octave march
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make, x", list(_cases()))
def test_FU_C1_and_C3_match_reference(make, x):
    sk = make()
    faces = eng.faces_of(sk.base, sk)
    anti, sym_fn = faces["anti"], partial(face_at, faces["sym"])
    reports = check_FU(sk, 0.5, Box(tuple(x), tuple(x + 0.25)), per_axis=2)
    pts = reports[0].details["points"]
    for p, c1, c3 in zip(pts, reports[0].details["point_values"], reports[2].details["point_values"]):
        p = np.asarray(p)
        assert repr(c1) == repr(float(_ref_abs_tail(anti, p, DEFAULT_SCHEME)))

        def ratio(Z):
            ks = np.asarray(sym_fn(p, Z), dtype=float)
            ka = np.abs(np.asarray(face_at(anti, p, Z), dtype=float))
            out = np.zeros_like(ks)
            np.divide(ka**1.5, ks, out=out, where=ks != 0.0)
            return out

        assert repr(c3) == repr(_ref_c3_probe(ratio, sk.dim, DEFAULT_SCHEME))


@pytest.mark.parametrize("make, x", list(_cases()))
def test_sector_ratio_matches_reference(make, x):
    sk = make()
    for sch in (DEFAULT_SCHEME, _refined(DEFAULT_SCHEME)):
        assert repr(sector_ratio_at(sk, x, sch)) == repr(_ref_sector_ratio_at(sk, x, sch))


# ---------------------------------------------------------------------------
# one shell walk per sample
# ---------------------------------------------------------------------------


def _ref_check_FU(sk, gamma, region, scheme=DEFAULT_SCHEME, per_axis=9):
    """check_FU with one shell walk for |k_a|^gamma and another for the sector ratio."""
    pts = _sample_points(region, per_axis)
    dim = sk.dim
    faces = eng.faces_of(sk.base, sk)
    anti = faces["anti"]
    anti_fn = partial(face_at, anti)
    abs_anti = replace(anti, read=lambda tab: np.abs(anti.read(tab)), combo=None, label="|anti|")

    c1_vals, c2_vals, c3_vals, h_vals = [], [], [], []
    conv = True
    for x in pts:
        x = np.asarray(x, dtype=float).reshape(-1)
        absa_pow = lambda Z: np.abs(anti_fn(x, Z)) ** gamma
        try:
            c1, _, c1_ok = eng.far_mass(abs_anti, x, scheme.r_break, scheme)
            if not c1_ok:
                raise NoConvergence("far-field extension of an absolute integral did not terminate")
            near, _, _ = _ref_shell_refine(
                absa_pow, dim, scheme.r_break, scheme, tol=0.25 * scheme.tol_abs, label="|k_a|^gamma near-field"
            )
            h, _, _ = _ref_shell_refine(
                _ref_sector_integrand(faces, x), dim, scheme.r_break, scheme, tol=0.25 * scheme.tol_abs, label="sector near-field"
            )
        except NoConvergence:
            conv = False
            for vals in (c1_vals, c2_vals, c3_vals, h_vals):
                vals.append(float("inf"))
            continue
        except QuadratureOverflow as exc:
            # a NaN past the magnitude cap leaves the sample unresolved, any
            # other overflow is a blow-up
            conv = False
            unresolved = bool(np.all(np.isnan(exc.value)))
            for vals in (c1_vals, c2_vals, c3_vals, h_vals):
                vals.append(float("nan") if unresolved else float("inf"))
            continue
        c1_vals.append(float(c1))
        c2_vals.append(float(near))
        ratio = _ref_sector_integrand(faces, x, lambda ka: np.abs(ka) ** (2.0 - gamma))
        rv = ratio(eng.make_nodes(dim, 1e-8, scheme.r_break, scheme).offsets())
        c3_vals.append(float(np.max(rv)) if rv.size else 0.0)
        h_vals.append(float(h) + float(c1))

    # the hats skip unresolved samples
    c1_hat, c2_hat, c3_hat = (max((v for v in vals if not math.isnan(v)), default=0.0) for vals in (c1_vals, c2_vals, c3_vals))
    finite = all(np.isfinite(v) for v in (c1_hat, c2_hat, c3_hat))
    tol = 10.0 * scheme.tol_abs + 1e-6
    chain_ok = all(
        h <= c2 * c3_hat + c1 + tol + 1e-3 * abs(h)
        for h, c2, c1 in zip(h_vals, c2_vals, c1_vals)
        if np.isfinite(h)
    )
    verdict = "pass" if (finite and conv) else ("fail" if not finite else "inconclusive")
    witness = (_pt(pts[int(np.nanargmax(h_vals))]),) if len(pts) else ()
    hats = {"C1_hat": c1_hat, "C2_hat": c2_hat, "C3_hat": c3_hat}

    def report(cid, vals, hat, extra=None):
        return _lattice_report(
            cid, pts, vals, conv, verdict=verdict, witness=witness, estimate=hat, gamma=gamma, details={**hats, **(extra or {})}
        )

    return [
        report("A1", c1_vals, c1_hat),
        report("A2", c2_vals, c2_hat),
        report("A3", c3_vals, c3_hat, {"h_point_values": h_vals, "h_chain_inequality_ok": bool(chain_ok)}),
    ]


def _ref_check_misc(sk, region, scheme=DEFAULT_SCHEME, per_axis=9):
    """check_misc_integrability with one shell walk for |z||k_a| and another for |z| j*."""
    dim = sk.dim
    pts = _sample_points(region, per_axis)
    faces = eng.faces_of(sk.base, sk)
    anti_fn = partial(face_at, faces["anti"])
    pairs = faces["direct"].pairs
    vol = float(np.prod(np.asarray(region.hi) - np.asarray(region.lo)))

    def r_of(Z):
        return np.sqrt(np.sum(Z * Z, axis=-1))

    cond4_vals, h2_vals, h3_vals = [], [], []
    conv = True
    for x in pts:
        x = np.asarray(x, dtype=float).reshape(-1)

        def m_cond4(Z):
            return r_of(Z) * np.abs(np.asarray(anti_fn(x, Z), dtype=float))

        def m_h3(Z):
            tab, m = PointTable(pairs, x, Z, signed=True), len(Z)
            jf = tab["direct"][:m] - tab.minus("direct")[:m]
            jr = tab["transposed"][:m] - tab.minus("transposed")[:m]
            return r_of(Z) * (np.abs(jf) + np.abs(jr))

        try:
            v4, _, _ = _ref_shell_refine(m_cond4, dim, scheme.r_break, scheme, tol=0.25 * scheme.tol_abs, label="|z||k_a| near-field")
            v3, _, _ = _ref_shell_refine(m_h3, dim, scheme.r_break, scheme, tol=0.25 * scheme.tol_abs, label="|z| j* near-field")
        except NoConvergence:
            conv = False
            v4 = v3 = float("inf")
        h2v, _, h2ok = eng.far_mass(faces["sym"], x, scheme.r_break, scheme)
        if not h2ok:
            conv = False
            h2v = float("inf")
        cond4_vals.append(float(v4))
        h2_vals.append(float(h2v))
        h3_vals.append(float(v3))

    return [
        _lattice_report("COND4", pts, cond4_vals, conv),
        _lattice_report("H2", pts, h2_vals, conv, details={"l2_norm_over_region": _l2_over(h2_vals, vol), "pass_mode": "sup_or_l2"}),
        _lattice_report("H3", pts, h3_vals, conv, details={"l2_norm_over_region": _l2_over(h3_vals, vol)}),
    ]


def _hint_1d():
    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return (1.0 + 0.2 * np.cos(x[..., 0]) * np.cos(y[..., 0])) / (r**1.5 * (1.0 + r * r))

    return split(JumpKernel(dim=1, eval=k, symmetric_hint=True, label="hint-1d", tail_exponent=2.5, tail_amplitude=1.2))


def _from_parts_1d():
    def ks(x, y):
        r = np.abs(np.asarray(x)[..., 0] - np.asarray(y)[..., 0])
        return 1.0 / (r**1.5 * (1.0 + r * r))

    def ka(x, y):
        x, y = np.asarray(x), np.asarray(y)
        r = np.abs(x[..., 0] - y[..., 0])
        return 0.25 * (np.tanh(x[..., 0]) - np.tanh(y[..., 0])) / (r**1.5 * (1.0 + r * r))

    return SplitKernel.from_parts(1, ks, ka, label="parts-1d", tail_exponent=2.5, tail_amplitude=1.5)


WALK_KERNELS = {
    "stable-1d": KERNELS["stable-1d"],
    "generic-1d-tail": KERNELS["generic-1d-tail"],
    "compact-2d": KERNELS["compact-2d-unit"],
    "hint-1d": _hint_1d,
    "from-parts-1d": _from_parts_1d,
}
# per_axis 3 keeps one sample at each corner and one at the centre
WALK_REGIONS = {1: Box((-1.0,), (0.0,)), 2: Box((-0.4, -0.2), (0.4, 0.6))}
WALK_POINTS = {1: ((-0.5,), (-0.0,), (0.3,)), 2: ((-0.4, 0.2), (0.0, 0.0))}


SHELL_INTEGRANDS = (
    lambda Z, tab: np.abs(tab["anti"]) ** 0.5,
    lambda Z, tab: np.divide(tab["anti"] ** 2, tab["sym"], out=np.zeros_like(tab["sym"]), where=tab["sym"] != 0.0),
    # shell masses that do not decay but stay far below tol
    lambda Z, tab: 1e-15 / np.sqrt(np.sum(Z * Z, axis=-1)) ** Z.shape[-1],
    # identically zero: two zero shells end its sum
    lambda Z, tab: 0.0 * tab["sym"],
)


def _walk_one(pairs, x, hi, scheme, integrands, **kwargs):
    """shell_refine at the one base point x as the block of one, its error
    raised; the integrands (Z, table) are handed the rows they ignore, and a
    row of values that reads no table is the row of every point."""
    rowless = tuple(lambda rows, Z, tab, f=f: np.broadcast_to(f(Z, tab), (len(rows), len(Z))) for f in integrands)
    values, bounds, shells = eng.shell_refine(pairs, x[None], hi, scheme, rowless, **kwargs)
    return eng.unwrap(values[0]), bounds[0], shells


def _attempt(fn):
    """fn()'s result, or the repr of the error it raised."""
    try:
        return fn()
    except JumpformError as exc:
        return repr(exc)


@pytest.mark.parametrize("name", list(WALK_KERNELS))
def test_shell_refine_matches_one_walk_per_integrand(name):
    sk = WALK_KERNELS[name]()
    pairs = eng.KernelPairs(sk.base, sk)
    sch = DEFAULT_SCHEME
    tol = 0.25 * sch.tol_abs
    for x in map(np.array, WALK_POINTS[sk.dim]):
        refs = [
            _attempt(lambda: _ref_shell_refine(lambda Z: f(Z, PointTable(pairs, x, Z)), sk.dim, sch.r_break, sch, tol=tol))
            for f in SHELL_INTEGRANDS
        ]
        # one integrand alone walks exactly as its own walk did
        for f, ref in zip(SHELL_INTEGRANDS, refs):
            got = _attempt(lambda: _walk_one(pairs, x, sch.r_break, sch, (f,), tol=tol))
            assert repr(got) == repr(ref if isinstance(ref, str) else ([ref[0]], [ref[1]], ref[2]))
        # together, each keeps its own sum and bound, and the walk is the longest one
        if not any(isinstance(r, str) for r in refs):
            values, bounds, walked = _walk_one(pairs, x, sch.r_break, sch, SHELL_INTEGRANDS, tol=tol)
            assert repr((values, bounds)) == repr(([r[0] for r in refs], [r[1] for r in refs]))
            assert walked == max(r[2] for r in refs)


@pytest.mark.parametrize("name", list(WALK_KERNELS))
@pytest.mark.parametrize("gamma", (0.5, 1.0))
def test_FU_one_walk_matches_two_walks(name, gamma):
    sk = WALK_KERNELS[name]()
    region = WALK_REGIONS[sk.dim]
    # at gamma = 1 some walks reach x + z == x, where the kernels divide by
    # r = 0 and k_a reads inf - inf
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _attempt(lambda: check_FU(sk, gamma, region, per_axis=3))
        assert repr(got) == repr(_attempt(lambda: _ref_check_FU(sk, gamma, region, per_axis=3)))


@pytest.mark.parametrize("name", list(WALK_KERNELS))
def test_misc_one_walk_matches_two_walks(name):
    sk = WALK_KERNELS[name]()
    region = WALK_REGIONS[sk.dim]
    got = _attempt(lambda: check_misc_integrability(sk, region, per_axis=3))
    assert repr(got) == repr(_attempt(lambda: _ref_check_misc(sk, region, per_axis=3)))


def test_octave_extend_reports_an_unfinished_march():
    seen = []

    def bound_of(s, prev, rn):
        seen.append((s, prev, rn))
        return s[0], 1.0

    fn = lambda Xb, Z, rows: ((np.abs(Z[..., 0]) ** -3.0, {}),)
    # one point is the block of one
    (total,), (bound,), (ok,) = eng.octave_extend(fn, 1, [1.0], DEFAULT_SCHEME, False, bound_of, 1e-3, np.zeros((1, 1)))
    assert not ok and bound == 1.0 and len(seen) == 240
    assert seen[0][1] is None and seen[1][1] == seen[0][0] and seen[0][2] == 2.0
    assert total == sum(s[0] for s, _, _ in seen)


# ---------------------------------------------------------------------------
# one node sum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", (1, 2))
def test_node_sum_matches_uncapped_reference(dim):
    sk = KERNELS["stable-2d" if dim == 2 else "stable-1d"]()
    faces = eng.faces_of(sk.base, sk)
    x = np.full(dim, 0.2)
    for lo, hi in ((1e-6, 1e-4), (1e-4, 1.0), (1.0, 40.0)):
        ns = eng.make_nodes(dim, lo, hi, DEFAULT_SCHEME)
        for face in faces.values():
            fn = lambda Z: face_at(face, x, Z)
            got = ns.sum(fn)
            assert repr(got) == repr(_ref_uncapped_integral(ns, fn))
            assert repr(ns.integrate(fn)) == repr(got)
    empty = eng.make_nodes(dim, 1.0, 1.0, DEFAULT_SCHEME)
    assert empty.sum(lambda Z: 1.0 / 0.0) == 0.0


def test_node_sum_skips_the_magnitude_cap():
    ns = eng.make_nodes(1, 1e-3, 1.0, DEFAULT_SCHEME.with_(magnitude_cap=1.0))
    big = lambda Z: np.full(len(Z), 1e6)
    assert ns.sum(big) > 1.0
    with pytest.raises(eng.QuadratureOverflow):
        ns.integrate(big)


# ---------------------------------------------------------------------------
# one tail block
# ---------------------------------------------------------------------------

FUNCTIONS_1D = (
    GridFunction.bump((0.0,), 1.0),
    GridFunction.bump((0.2,), 0.5, 1.3),
    GridFunction.wave(1.0),
    GridFunction.wave(0.0),
    GridFunction.wave(2.5, "sin"),
)


@pytest.mark.parametrize("name", ("stable-1d", "generic-1d-tail", "generic-1d-bare"))
def test_plain_truncated_matches_reference(name):
    sk = KERNELS[name]()
    face = eng.faces_of(sk.base, sk)["direct"]
    for u in FUNCTIONS_1D:
        if u.trig is not None and face.af is None:
            continue
        for x in POINTS[1] + ((0.9,),):
            (got,) = eng.plain_truncated(face, u, np.array([x]), 0.25, DEFAULT_SCHEME)
            assert repr(got) == repr(_ref_plain_truncated(face, u, np.array(x), 0.25, DEFAULT_SCHEME))


@pytest.mark.parametrize("name", ("stable-1d", "generic-1d-tail", "compact-2d"))
def test_tail_block_matches_both_references(name):
    sk = KERNELS[name]()
    dim = sk.dim
    faces = eng.faces_of(sk.base, sk)
    funcs = FUNCTIONS_1D if dim == 1 else (GridFunction.bump((0.0, 0.0), 1.0),)
    # the bump vanishes at the last points, so u(x) == 0 there
    points = POINTS[dim] + (((1.5,),) if dim == 1 else ((1.2, 0.3),))
    for u in funcs:
        if u.trig is not None and sk.base.alpha_fn is None:
            continue
        for x in map(np.array, points):
            loc = eng.unwrap(eng.stable_local(sk.base.alpha_fn, x[None])[0]) if sk.base.alpha_fn is not None else None
            R_out, max_w = eng._outer_region(u, x, loc, DEFAULT_SCHEME)
            assert (R_out, max_w) == _ref_outer(u, x, DEFAULT_SCHEME, loc)
            ux = float(u(x))
            for face in (faces["direct"], faces["sym"]):
                for val in (-0.0, 0.0, 0.75, -1.25e-3):
                    d_new, d_ref = {}, {}
                    got = eng._add_tail(val, face, u, x, R_out, loc, DEFAULT_SCHEME, ux, d_new)
                    assert repr(got) == repr(_ref_plain_tail(val, face, u, x, R_out, loc, DEFAULT_SCHEME, ux, d_ref))
                    assert d_new == d_ref
                    # generator_point's running sum starts at +0.0, so it is
                    # never -0.0 and adding its zero tail changes nothing
                    if repr(val) != "-0.0":
                        d_gen = {}
                        want = _ref_generator_tail(val, face, u, x, R_out, loc, DEFAULT_SCHEME, ux, d_gen)
                        assert repr(got) == repr(want) and d_new == d_gen


def test_zero_tail_keeps_negative_zero():
    sk = KERNELS["generic-1d-tail"]()
    face = eng.faces_of(sk.base, sk)["direct"]
    u = GridFunction.bump((0.0,), 1.0)
    x = np.array([1.5])
    assert float(u(x)) == 0.0
    got = eng._add_tail(-0.0, face, u, x, 2.5, None, DEFAULT_SCHEME, 0.0, {})
    assert repr(got) == "-0.0"
