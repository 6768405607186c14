"""One table of the two one-sided kernel values per base point and node set.

Every face, the shell metric, the killing-term integrands, the sector
integrand and the lattice-form arrays read their kernel values from one
PairTable of k(x, x+z) and k(x+z, x).  The references below are the earlier
forms of the same computations, with a closure per face that evaluated the
base kernel itself; the table must agree with them exactly (compared by
repr, so a -0.0 against a +0.0 fails).  The counting tests check that the
table is what makes the kernel evaluations fewer.
"""

import math

import numpy as np
import pytest

from jumpform import (
    AlphaFunction,
    DomainError,
    GridFunction,
    JumpKernel,
    NoConvergence,
    SplitKernel,
    apply_B,
    apply_L,
    apply_Lambda,
    apply_Lstar,
    killing_term,
    split,
    stable_like_kernel,
)
from jumpform import _engine as eng
from jumpform.conditions import _sector
from jumpform.forms import _LatticeForm
from jumpform.kernels import PairTable, weight_w
from jumpform.quadrature import DEFAULT_SCHEME

from one_point import PointTable, face_at


# ---------------------------------------------------------------------------
# references: a closure per face, each evaluating the base kernel
# ---------------------------------------------------------------------------


def _ref_split(k):
    if k.symmetric_hint:

        def ks(x, y):
            return k(x, y)

        def ka(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            return np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))

    else:

        def ks(x, y):
            return 0.5 * (k(x, y) + k(y, x))

        def ka(x, y):
            return 0.5 * (k(x, y) - k(y, x))

    return ks, ka


def _ref_faces(base, parts=None):
    """(x, Z) -> values, by face; parts = (k_s, k_a) closures or None."""
    af = base.alpha_fn
    if af is not None:
        n = base.dim

        def d_ev(x, Z):
            Z = np.asarray(Z, dtype=float)
            r = np.sqrt(np.sum(Z * Z, axis=-1))
            a = af(np.asarray(x, dtype=float))
            return weight_w(a, n) * r ** (-(n + a))

        def t_ev(x, Z):
            Z = np.asarray(Z, dtype=float)
            r = np.sqrt(np.sum(Z * Z, axis=-1))
            a = af(np.asarray(x, dtype=float) + Z)
            return weight_w(a, n) * r ** (-(n + a))

        sym = lambda x, Z: 0.5 * (d_ev(x, Z) + t_ev(x, Z))
        anti = lambda x, Z: 0.5 * (d_ev(x, Z) - t_ev(x, Z))
        anti_rev = lambda x, Z: 0.5 * (t_ev(x, Z) - d_ev(x, Z))
    else:
        d_ev = lambda x, Z: base(x, x + Z)
        t_ev = lambda x, Z: base(x + Z, x)
        if parts is not None:
            ks_fn, ka_fn = parts
            sym = lambda x, Z: np.asarray(ks_fn(x, x + Z), dtype=float)
            anti = lambda x, Z: np.asarray(ka_fn(x, x + Z), dtype=float)
            anti_rev = lambda x, Z: np.asarray(ka_fn(x + Z, x), dtype=float)
        else:
            sym = lambda x, Z: 0.5 * (base(x, x + Z) + base(x + Z, x))
            anti = lambda x, Z: 0.5 * (base(x, x + Z) - base(x + Z, x))
            anti_rev = lambda x, Z: 0.5 * (base(x + Z, x) - base(x, x + Z))
    return {"direct": d_ev, "transposed": t_ev, "sym": sym, "anti": anti, "anti_rev": anti_rev}


def _ref_plan(base, parts, u, x, s0, scheme):
    """The shell plan with its metric on k_s and k_a closures: (shell count, bounds)."""
    x = np.asarray(x, dtype=float)
    ks, ka = parts
    M2 = u.hess_sup()
    g = np.linalg.norm(u.grad(x)) + 1e-300
    tol = 0.25 * scheme.tol_abs

    def metric(ns):
        m2 = ns.integrate(lambda Z: np.sum(Z * Z, axis=-1) * np.asarray(ks(x, x + Z), dtype=float))
        m1d = ns.integrate(
            lambda Z: np.sqrt(np.sum(Z * Z, axis=-1))
            * (
                np.abs(np.asarray(ks(x, x + Z), dtype=float) - np.asarray(ks(x, x - Z), dtype=float))
                + np.abs(np.asarray(ka(x, x + Z), dtype=float) - np.asarray(ka(x, x - Z), dtype=float))
            )
        )
        m1a = ns.integrate(lambda Z: np.sqrt(np.sum(Z * Z, axis=-1)) * np.abs(np.asarray(ka(x, x + Z), dtype=float)))
        return m2, m1d, m1a

    hist = []
    floor = 8.0 * float(np.max(np.abs(x))) * 2.0**-52
    for i in range(80):
        a, b = s0 * 2.0 ** -(i + 1), s0 * 2.0**-i
        if b <= floor:
            raise NoConvergence(
                "inner shells reached the floating-point resolution of the base point "
                "before the near-diagonal masses decayed"
            )
        hist.append(metric(eng.make_nodes(base.dim, a, b, scheme)))
        if i >= 1:
            prev, cur = np.array(hist[-2]), np.array(hist[-1])
            if np.all(cur == 0.0) and np.all(prev == 0.0):
                return i + 1, {"comp": 0.0, "drift": 0.0, "anti": 0.0}
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
                    return i + 1, bounds
    raise NoConvergence(
        "inner shells did not decay: the kernel is too singular near the diagonal for the compensated integral"
    )


def _ref_ratio(faces, x, num):
    def fn(Z):
        ks = np.asarray(faces["sym"](x, Z), dtype=float)
        ka = np.asarray(faces["anti"](x, Z), dtype=float)
        out = np.zeros_like(ks)
        np.divide(num(ka), ks, out=out, where=ks != 0.0)
        return out

    return fn


# ---------------------------------------------------------------------------
# kernels and base points
# ---------------------------------------------------------------------------


def _generic_1d():
    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return (1.0 + 0.3 * np.tanh(y[..., 0])) / (r**1.5 * (1.0 + r * r))

    return JumpKernel(dim=1, eval=k, label="generic-1d", tail_exponent=2.5, tail_amplitude=1.35)


def _generic_2d(z_support=None):
    def k(x, y):
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        v = (1.0 + 0.25 * np.sin(x[..., 0]) - 0.25 * np.sin(y[..., 1])) / r**2.4
        return v if z_support is None else np.where(r <= z_support, v, 0.0)

    return JumpKernel(dim=2, eval=k, label="generic-2d", z_support=z_support)


def _hint_1d():
    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return (1.0 + 0.2 * np.cos(x[..., 0]) * np.cos(y[..., 0])) / (r**1.5 * (1.0 + r * r))

    return JumpKernel(dim=1, eval=k, symmetric_hint=True, label="hint-1d", tail_exponent=2.5, tail_amplitude=1.2)


def _from_parts_1d():
    def ks(x, y):
        r = np.abs(np.asarray(x)[..., 0] - np.asarray(y)[..., 0])
        return 1.0 / (r**1.5 * (1.0 + r * r))

    def ka(x, y):
        x, y = np.asarray(x), np.asarray(y)
        r = np.abs(x[..., 0] - y[..., 0])
        return 0.25 * (np.tanh(x[..., 0]) - np.tanh(y[..., 0])) / (r**1.5 * (1.0 + r * r))

    return SplitKernel.from_parts(1, ks, ka, label="parts-1d", tail_exponent=2.5, tail_amplitude=1.5)


def _stable(dim, const=None):
    if const is not None:
        return stable_like_kernel(AlphaFunction.constant(const, dim))
    if dim == 1:
        return stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0))
    return stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) * np.cos(x[..., 1]), 0.6, 1.0, dim=2))


# name -> (base kernel, SplitKernel as the package builds it, reference (k_s, k_a))
def _case(name):
    if name == "from-parts-1d":
        sk = _from_parts_1d()
        return sk.base, sk, (sk.k_s, sk.k_a)
    base = {
        "stable-1d": lambda: _stable(1),
        "stable-1d-const": lambda: _stable(1, 1.2),
        "stable-2d": lambda: _stable(2),
        "stable-2d-const": lambda: _stable(2, 0.5),
        "generic-1d": _generic_1d,
        "generic-2d": _generic_2d,
        "hint-1d": _hint_1d,
        "compact-2d": lambda: _generic_2d(1.0),
    }[name]()
    return base, split(base), _ref_split(base)


NAMES = ("stable-1d", "stable-1d-const", "stable-2d", "stable-2d-const", "generic-1d", "generic-2d", "hint-1d", "from-parts-1d", "compact-2d")
GENERIC = ("generic-1d", "generic-2d", "hint-1d", "from-parts-1d", "compact-2d")
POINTS = {1: ((0.3,), (-0.0,), (1e3,)), 2: ((0.1, -0.2), (-0.0, 0.0), (1e3, -0.5))}
BANDS = ((1e-6, 1e-4), (1e-3, 0.5), (1.0, 4.0))


def _r(a):
    return repr(np.asarray(a).tolist())


# ---------------------------------------------------------------------------
# faces, signed tables, ratio integrands, lattice arrays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_faces_read_from_one_table_match_per_face_closures(name):
    base, sk, parts = _case(name)
    dim = base.dim
    for with_sk in (False, True):
        faces = eng.faces_of(base, sk if with_sk else None)
        ref = _ref_faces(base, parts if with_sk else None)
        for x in map(np.array, POINTS[dim]):
            for lo, hi in BANDS:
                Z = eng.make_nodes(dim, lo, hi, DEFAULT_SCHEME).offsets()
                tab = PointTable(faces["direct"].pairs, x, Z, signed=True)
                for kind, fn in ref.items():
                    assert _r(face_at(faces[kind], x, Z)) == _r(fn(x, Z)), (kind, x, lo)
                    assert _r(tab[kind][: len(Z)]) == _r(fn(x, Z)), (kind, x, lo)
                    assert _r(tab.minus(kind)[: len(Z)]) == _r(fn(x, -Z)), (kind, x, lo)


@pytest.mark.parametrize("name", NAMES)
def test_sector_and_c3_integrands_match_reference(name):
    base, sk, parts = _case(name)
    faces, ref = eng.faces_of(base, sk), _ref_faces(base, parts)
    for x in map(np.array, POINTS[base.dim]):
        Z = eng.make_nodes(base.dim, 1e-8, 1.0, DEFAULT_SCHEME).offsets()
        sq = lambda ka: ka * ka
        tab = PointTable(faces["sym"].pairs, x, Z)
        assert _r(_sector(tab)) == _r(_ref_ratio(ref, x, sq)(Z))
        c3 = lambda ka: np.abs(ka) ** 1.5
        assert _r(_sector(tab, c3)) == _r(_ref_ratio(ref, x, c3)(Z))


@pytest.mark.parametrize("name", NAMES)
def test_lattice_form_arrays_match_reference(name):
    base, sk, (ks, ka) = _case(name)
    if base.dim == 1:
        pts = np.linspace(-1.0, 1.0, 9)[:, None]
    else:
        g = np.linspace(-1.0, 1.0, 4)
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    lf = _LatticeForm(sk, pts, 0.25)
    XI, XJ = pts[lf.I], pts[lf.J]
    assert _r(lf.ks) == _r(np.asarray(ks(XJ, XI), dtype=float))
    assert _r(lf.ka) == _r(np.asarray(ka(XJ, XI), dtype=float))


# ---------------------------------------------------------------------------
# shell metric, killing-term integrands, one generator pass
# ---------------------------------------------------------------------------


def _outcome(fn):
    try:
        return fn()
    except NoConvergence as exc:
        return repr(exc)


@pytest.mark.parametrize("name", GENERIC)
def test_shell_plan_matches_reference_metric(name):
    base, sk, parts = _case(name)
    u = GridFunction.bump((0.0,) * base.dim, 1.0)
    for x in map(np.array, POINTS[base.dim]):

        def new():
            shells, (plan,) = eng.plan_inner_shells(eng.KernelPairs(base, sk), u, x[None], 1e-2, DEFAULT_SCHEME)
            return len(shells), repr(eng.unwrap(plan)[1])

        def ref():
            count, bounds = _ref_plan(base, parts, u, x, 1e-2, DEFAULT_SCHEME)
            return count, repr(bounds)

        assert _outcome(new) == _outcome(ref), x


@pytest.mark.parametrize("name", ("stable-1d", "generic-2d"))
def test_a_table_takes_a_block_not_a_lone_point(name):
    # a lone point's offsets would be read as rows, each keeping its own error
    base, _, _ = _case(name)
    x = np.full(base.dim, 0.3)
    Z = eng.make_nodes(base.dim, 0.5, 1.0, DEFAULT_SCHEME).offsets()
    pairs = eng.faces_of(base)["direct"].pairs
    with pytest.raises(ValueError, match="block of base points"):
        pairs.table(x, Z)
    assert pairs.table(x[None, None], Z)["direct"].shape == (1, len(Z))


def test_far_base_point_meets_the_shell_floor():
    # at x = 1e9 the shells reach the rounding of x + z before the masses decay
    base, sk, parts = _case("generic-1d")
    u = GridFunction.bump((0.0,), 1.0)
    x = np.array([1e9])
    with pytest.raises(NoConvergence, match="floating-point resolution"):
        eng.unwrap(eng.plan_inner_shells(eng.KernelPairs(base, sk), u, x[None], 1e-2, DEFAULT_SCHEME)[1][0])
    with pytest.raises(NoConvergence, match="floating-point resolution"):
        _ref_plan(base, parts, u, x, 1e-2, DEFAULT_SCHEME)


class _RefTables:
    """Tables whose anti_rev face is a reference closure (x, Z) -> values, for a Face of its own."""

    def __init__(self, anti_rev):
        self.anti_rev, self.far = anti_rev, {}

    def table(self, x, Z, signed=False):
        return PairTable(None, None, {"anti_rev": lambda: self.anti_rev(x, Z)})


@pytest.mark.parametrize("name", ("generic-1d", "hint-1d", "from-parts-1d", "compact-2d"))
def test_killing_integrands_match_reference(name):
    base, sk, parts = _case(name)
    sch = DEFAULT_SCHEME
    for with_sk in (False, True):
        ref = _ref_faces(base, parts if with_sk else None)
        for x in map(np.array, POINTS[base.dim][:2]):
            partials, diag = eng.unwrap(eng.kappa_partials(base, x[None], [0.25], sch, sk if with_sk else None)[0])
            nodes = eng.make_nodes(base.dim, 0.25, sch.r_break, sch)
            mag = lambda Z: np.abs(ref["direct"](x, Z)) + np.abs(ref["transposed"](x, Z))
            noise = 2.0**-52 * nodes.sum(mag)
            seg = nodes.integrate(lambda Z: 2.0 * ref["anti_rev"](x, Z))
            amp = 2.0 * base.tail_amplitude if base.tail_amplitude else None
            far = eng.Face(
                base.dim, lambda tab: 2.0 * tab["anti_rev"], None, None, base.z_support, amp, base.tail_exponent,
                pairs=_RefTables(ref["anti_rev"]),
            )
            outer, _, _ = eng.far_mass(far, x, sch.r_break, sch)
            assert repr(diag["fp_noise"]) == repr(noise)
            assert repr(float(partials[0])) == repr(float(seg + outer))


@pytest.mark.parametrize("name", ("stable-1d", "stable-2d", "generic-1d", "hint-1d", "from-parts-1d", "compact-2d"))
def test_one_generator_pass_matches_one_call_per_face(name):
    base, sk, _ = _case(name)
    u = GridFunction.bump((0.05,) * base.dim, 1.0)
    for x in map(np.array, POINTS[base.dim][:2]):
        together = eng.generator_point(base, u, x, DEFAULT_SCHEME, ("transposed", "direct", "sym"), sk=sk)
        for kind, got in zip(("transposed", "direct", "sym"), together):
            assert repr(got) == repr(eng.generator_point(base, u, x, DEFAULT_SCHEME, kind, sk=sk))


@pytest.mark.parametrize("name", ("stable-1d", "generic-1d", "compact-2d"))
def test_far_masses_are_kept_per_face_point_and_radius(name):
    base, sk, _ = _case(name)
    faces = eng.faces_of(base, sk)
    for x in map(np.array, POINTS[base.dim][:2]):
        for R in (1.0, 2.5, 1.0, 0.75):
            for kind in ("direct", "transposed", "sym", "anti_rev"):
                fresh = eng.faces_of(base, sk)[kind]
                assert repr(eng.far_mass(faces[kind], x, R, DEFAULT_SCHEME)) == repr(eng.far_mass(fresh, x, R, DEFAULT_SCHEME))


# ---------------------------------------------------------------------------
# fewer evaluations: kernel pairs, order calls, far marches
# ---------------------------------------------------------------------------


def _counting_kernel():
    seen = {"pairs": 0}

    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        v = (1.0 + 0.3 * np.tanh(y[..., 0])) / (r**1.5 * (1.0 + r * r))
        seen["pairs"] += v.size
        return v

    return JumpKernel(dim=1, eval=k, tail_exponent=2.5, tail_amplitude=1.35), seen


NINE = np.linspace(-0.8, 0.8, 9)[:, None]
BUMP = GridFunction.bump((0.0,), 1.0)


def test_apply_L_and_Lstar_evaluate_at_most_half_the_pairs():
    # one closure per face made 79,264 pairs for apply_L and 319,040 for apply_Lstar
    k, seen = _counting_kernel()
    apply_L(k, BUMP, NINE)
    assert seen["pairs"] <= 79264 // 2
    seen["pairs"] = 0
    apply_Lstar(k, BUMP, NINE)
    assert seen["pairs"] <= 319040 // 2


def test_apply_Lstar_repeats_no_far_march(monkeypatch):
    k, _ = _counting_kernel()
    marches = []
    march = eng._far_numeric

    def counted(face, x, R, scheme, cut):
        # one entry per point marched, whether on its own or in a block
        x = np.asarray(x, dtype=float)
        for p, r in zip(x.reshape(-1, x.shape[-1]), np.atleast_1d(R)):
            marches.append((face.label, p.tobytes(), float(r)))
        return march(face, x, R, scheme, cut)

    monkeypatch.setattr(eng, "_far_numeric", counted)
    apply_Lstar(k, BUMP, NINE)
    assert marches and len(marches) == len(set(marches))


def test_direct_stable_apply_L_reads_the_order_only_at_base_points():
    # the direct face needs the order at x and at its finite-difference
    # neighbours x +- h (h = 1e-4), never at a node x + z (|z| > 1e-4)
    h = 1e-4
    stencil = {float(v) for x in NINE[:, 0] for v in (x, x + h, x - h)}
    seen = set()

    def alpha(x):
        seen.update(np.asarray(x)[..., 0].ravel().tolist())
        return 0.8 + 0.2 * np.sin(x[..., 0])

    k = stable_like_kernel(AlphaFunction(alpha, 0.6, 1.0))
    ev = apply_L(k, BUMP, NINE)
    assert ev.flagged == () and seen and seen <= stencil


# ---------------------------------------------------------------------------
# a point-specific DomainError flags its point
# ---------------------------------------------------------------------------


def test_support_beyond_r_max_flags_only_its_point():
    k = stable_like_kernel(AlphaFunction.constant(1.0, 1), 1)
    ev = apply_L(k, BUMP, [(0.0,), (70.0,)])
    assert ev.flagged == (1,)
    assert math.isnan(ev.values[1]) and "r_max" in ev.diagnostics[1]["error"]
    assert repr(ev.values[0]) == repr(apply_L(k, BUMP, [(0.0,)]).values[0])


def test_support_beyond_r_max_flags_only_its_point_in_the_adjoint():
    k = stable_like_kernel(AlphaFunction.constant(1.0, 1), 1)
    ev = apply_Lstar(k, BUMP, [(0.0,), (70.0,)])
    assert ev.flagged == (1,) and "r_max" in ev.diagnostics[1]["error"]
    assert repr(ev.values[0]) == repr(apply_Lstar(k, BUMP, [(0.0,)]).values[0])


def test_nan_order_flags_its_killing_term_point():
    # NaN left of x = -2
    af = AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) + 0.0 * np.log(x[..., 0] + 2.0), alpha1=0.6, alpha2=1.0)
    with np.errstate(invalid="ignore"):
        kt = killing_term(stable_like_kernel(af, 1), [(-2.5,)], eps_sequence=[0.5, 0.25])
    assert not kt.converged[0] and math.isnan(kt.values[0])
    assert "alpha in" in kt.diagnostics[0]["error"]


def test_argument_errors_still_raise():
    k = stable_like_kernel(AlphaFunction.constant(1.0, 1), 1)
    bump_2d = GridFunction.bump((0.0, 0.0), 1.0)
    with pytest.raises(DomainError, match="dimension mismatch"):
        apply_L(k, bump_2d, [(0.0,)])
    with pytest.raises(DomainError, match="plane waves"):
        apply_Lambda(k, GridFunction.wave(1.0), [(0.0,)])
    with pytest.raises(DomainError, match="unknown generator face"):
        eng.generator_kinds(k, BUMP, ("direct", "bogus"))
    with pytest.raises(DomainError, match="decreasing"):
        apply_Lstar(k, BUMP, [(0.0,)], eps_sequence=[0.1, 0.2])
    with pytest.raises(DomainError, match="decreasing"):
        apply_B(split(k), BUMP, [(0.0,)], eps_sequence=[0.1, 0.2])
    # a cutoff at or below 0 is an argument error too, on a kernel whose
    # killing term does not vanish
    varying = _stable(1)
    for eps in ([0.5, 0.25, -0.1], [0.5, 0.25, 0.0]):
        with pytest.raises(DomainError, match="positive"):
            killing_term(varying, [(0.0,), (0.3,)], eps_sequence=eps)
        with pytest.raises(DomainError, match="positive"):
            apply_B(split(varying), BUMP, [(0.0,)], eps_sequence=eps)


def test_an_error_no_point_flags_raises_from_the_block():
    # the closure fails only where both arguments lie right of 0.5, so the
    # points left of it are fine on their own and x = 0.8 is not
    def k(x, y):
        if np.any((x[..., 0] > 0.5) & (y[..., 0] > 0.5)):
            raise ZeroDivisionError("kernel closure fails right of 0.5")
        r = np.abs(x[..., 0] - y[..., 0])
        return 1.0 / (r**1.5 * (1.0 + r * r))

    kern = JumpKernel(dim=1, eval=k, tail_exponent=3.5, tail_amplitude=1.0)
    assert not apply_L(kern, BUMP, [(-0.3,), (0.2,)]).flagged
    with pytest.raises(ZeroDivisionError, match="right of 0.5"):
        apply_L(kern, BUMP, [(-0.3,), (0.2,), (0.8,)])
