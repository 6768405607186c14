"""The checks' shell walks and the H4 far march, taken as blocks of samples,
reproduce the per-point code they replaced, bit for bit.

The references are copies of that code: the shell walk at one base point,
with one PairTable per shell, and the sector ratio at one base point, whose
stop rule read the next octave's |k_a| band from a table of its own (so
every band after the first was evaluated twice).  A block of samples must
give each sample exactly what the reference gives it (compared by repr, so
a -0.0 against a +0.0 fails), and an error a sample meets on its own, with
its message, in that sample's place.
"""

import math
import weakref

import numpy as np
import pytest

from jumpform import (
    AlphaFunction,
    Box,
    DomainError,
    JumpformError,
    JumpKernel,
    NegativeKernel,
    NoConvergence,
    QuadratureOverflow,
    SplitKernel,
    check_A0,
    check_FU,
    check_local_pv_bound,
    check_misc_integrability,
    check_sector_ratio,
    killing_term,
    split,
    stable_like_kernel,
)
from jumpform import _engine as eng
from jumpform.conditions import _lattice_report, _pt, _refined, _sample_points, sector_ratios
from jumpform.kernels import PairTable
from jumpform.quadrature import DEFAULT_SCHEME

from one_point import PointTable, shell_refine

TOL = 0.25 * DEFAULT_SCHEME.tol_abs

# ---------------------------------------------------------------------------
# references: the per-point code
# ---------------------------------------------------------------------------


def _ref_shell_stop(p, c, tol):
    if c == 0.0:
        return 0.0 if p == 0.0 else None
    if p > 0.0 and c <= 0.9 * p:
        rho = min(c / p * 1.2, 0.95)
        bound = c * rho / (1.0 - rho)
        if bound < tol:
            return bound
    return c + p if c < tol * 1e-3 and p < tol * 1e-3 else None


def _ref_shell_refine(pairs, x, hi, scheme, integrands, *, tol, signed=False, max_shells=80, label="shell refinement"):
    """One walk at the one base point x: (values, tail_bounds, shells_walked)."""
    n = len(integrands)
    totals, prevs, bounds = [0.0] * n, [0.0] * n, [None] * n
    for i in range(max_shells):
        ns = eng.make_nodes(pairs.base.dim, hi * 2.0 ** -(i + 1), hi * 2.0**-i, scheme)
        tab = PointTable(pairs, x, ns.offsets(), signed)
        for j, f in enumerate(integrands):
            if bounds[j] is None:
                s = ns.integrate(lambda Z: f(Z, tab))
                totals[j] += s
                if i >= 1:
                    bounds[j] = _ref_shell_stop(abs(prevs[j]), abs(s), tol)
                prevs[j] = s
        if None not in bounds:
            return totals, bounds, i + 1
    raise NoConvergence(f"{label}: shell masses did not decay below tolerance after {max_shells} shells")


def _ref_sector(tab, num=lambda ka: ka * ka):
    ks = tab["sym"]
    out = np.zeros_like(ks)
    np.divide(num(tab["anti"]), ks, out=out, where=ks != 0.0)
    return out


def _ref_sector_ratio_at(sk, x, scheme):
    """h(x) with its far march as it was: the stop rule of each octave reads
    the next octave's |k_a| band through a table of its own."""
    x = np.asarray(x, dtype=float).reshape(-1)
    pairs = eng.KernelPairs(sk.base, sk)
    fn = lambda Xb, Z, rows: (pairs.table(Xb, Z).result(_ref_sector),)
    absa = lambda Xb, Z, rows: (pairs.table(Xb, Z).result(lambda tab: np.abs(tab["anti"])),)
    oscillatory = sk.base.alpha_fn is not None and not sk.base.alpha_fn.is_constant
    (near,), _, _ = _ref_shell_refine(
        pairs, x, scheme.r_break, scheme, (lambda Z, tab: _ref_sector(tab),), tol=0.25 * scheme.tol_abs,
        label="sector ratio near-field",
    )
    zsup = sk.base.z_support
    if zsup is not None:
        return float(near + eng.make_nodes(sk.dim, scheme.r_break, zsup, scheme).integrate(lambda Z: _ref_sector(PointTable(pairs, x, Z))))
    band = lambda f, lo, hi: eng.unwrap(eng.band_value_far(f, sk.dim, [lo], [hi], scheme, oscillatory, x[None])[0])[0]
    total, lo = 0.0, scheme.r_break
    for _ in range(240):
        hi = lo * scheme.growth
        s = band(fn, lo, hi)
        total += s
        if band(absa, hi, hi * scheme.growth) + abs(s) < scheme.tol_abs * 0.01:
            return float(near + total)
        lo = hi
    raise NoConvergence("sector-ratio far field did not exhaust")


def _ref_check_sector_ratio(sk, region, scheme, per_axis):
    pts = _sample_points(region, per_axis)
    values, unstable = [], []
    for x in pts:
        try:
            v = _ref_sector_ratio_at(sk, x, scheme)
            vr = _ref_sector_ratio_at(sk, x, _refined(scheme))
            ok = abs(vr - v) <= 10.0 * scheme.tol_abs + 1e-3 * abs(vr)
        except NoConvergence:
            vr, ok = float("inf"), False
        values.append(vr)
        if not ok:
            unstable.append(_pt(x))
    return _lattice_report("H4", pts, values, not unstable, details={"aliases": ["COND2"]})


def _attempt(fn):
    """fn()'s result, or the repr of the error it raised."""
    try:
        return fn()
    except JumpformError as exc:
        return repr(exc)


def _entry(v):
    """A block entry as _attempt gives the reference's."""
    return repr(v) if isinstance(v, Exception) else v


# ---------------------------------------------------------------------------
# kernels and samples
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

    return SplitKernel.from_parts(1, ks, ka, label="parts-1d", tail_exponent=2.5, tail_amplitude=1.5)


def _compact_2d():
    def k(x, y):
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        v = (1.0 + 0.25 * np.sin(x[..., 0]) - 0.25 * np.sin(y[..., 1])) / r**2.4
        return np.where(r <= 3.0, v, 0.0)

    return split(JumpKernel(dim=2, eval=k, label="compact-2d", z_support=3.0))


KERNELS = {
    "stable-1d": lambda: split(stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0))),
    "stable-2d": lambda: split(
        stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) * np.cos(x[..., 1]), 0.6, 1.0, dim=2))
    ),
    "from-parts-1d": _from_parts_1d,
    "generic-1d": _generic_1d,
    "generic-2d": _generic_2d,
    "compact-2d": _compact_2d,
}
POINTS = {1: ((-0.0,), (0.3,), (-0.7,), (1.3,)), 2: ((-0.0, 0.0), (0.1, -0.2), (0.5, 0.4))}


def _blocks(name):
    """The samples of a kernel as blocks of 1, 2 and all of them."""
    X = np.array(POINTS[KERNELS[name]().dim], dtype=float)
    return X[:1], X[1:3], X


def _walk_integrands(gamma):
    # FU's near field and A0's second moment on unsigned tables
    return (
        lambda Z, tab: np.abs(tab["anti"]) ** gamma,
        lambda Z, tab: _ref_sector(tab),
        lambda Z, tab: np.sum(Z * Z, axis=-1) * tab["sym"],
    )


def _signed_integrands():
    # MISC's near field on signed tables, each face read on [:m]
    def r_of(Z):
        return np.sqrt(np.sum(Z * Z, axis=-1))

    def m_cond4(Z, tab):
        return r_of(Z) * np.abs(tab["anti"][..., : len(Z)])

    def m_h3(Z, tab):
        m = len(Z)
        jf = tab["direct"][..., :m] - tab.minus("direct")[..., :m]
        jr = tab["transposed"][..., :m] - tab.minus("transposed")[..., :m]
        return r_of(Z) * (np.abs(jf) + np.abs(jr))

    return m_cond4, m_h3


def _rowless(integrands):
    """The integrands (Z, table) as shell_refine calls them, with the rows they ignore."""
    return tuple(lambda _, Z, tab, f=f: f(Z, tab) for f in integrands)


def _assert_walks_match(sk, X, integrands, signed, **kwargs):
    hi, sch = DEFAULT_SCHEME.r_break, DEFAULT_SCHEME
    pairs = eng.KernelPairs(sk.base, sk)
    values, bounds, shells = shell_refine(pairs, X, hi, sch, _rowless(integrands), tol=TOL, signed=signed, **kwargs)
    assert len(values) == len(bounds) == len(X) and isinstance(shells, int)
    refs = []
    for p, x in enumerate(X):
        pairs = eng.KernelPairs(sk.base, sk)
        ref = _attempt(lambda: _ref_shell_refine(pairs, x, hi, sch, integrands, tol=TOL, signed=signed, **kwargs))
        want = ref if isinstance(ref, str) else (ref[0], ref[1])
        assert repr((_entry(values[p]), _entry(bounds[p]))) == repr((want, want) if isinstance(ref, str) else want)
        refs.append(ref)
    if not any(isinstance(r, str) for r in refs):
        # the walk builds as many shells as its longest sample walks
        assert shells == max(r[2] for r in refs)
    return values


# ---------------------------------------------------------------------------
# shell walks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(KERNELS))
@pytest.mark.parametrize("signed", (False, True), ids=("unsigned", "signed"))
def test_block_shell_walk_matches_the_walk_of_each_sample(name, signed):
    sk = KERNELS[name]()
    integrands = _signed_integrands() if signed else _walk_integrands(0.5)
    with np.errstate(all="ignore"):
        for X in _blocks(name):
            _assert_walks_match(sk, X, integrands, signed)


def test_block_shell_walk_of_no_samples():
    sk = _generic_1d()
    pairs = eng.KernelPairs(sk.base, sk)
    assert shell_refine(pairs, np.empty((0, 1)), 1.0, DEFAULT_SCHEME, _rowless(_walk_integrands(0.5)), tol=TOL) == ([], [], 0)


def test_a_group_walks_only_its_own_points(monkeypatch):
    # group 0 sums its integrand at point 0, group 1 at points 0 and 2:
    # point 1 is not walked, and a group has no entry where it does not walk
    sk, hi = _generic_1d(), DEFAULT_SCHEME.r_break
    X = np.array([[-0.5], [0.1], [0.7]])
    integrands = _rowless(_walk_integrands(0.5))
    limits = []
    walk = eng._walk_shells

    def recorded(*args):
        limits.append(args[4])
        return walk(*args)

    monkeypatch.setattr(eng, "_walk_shells", recorded)
    groups = [((0,), False, "a", [0]), ((1, 2), False, "b", [0, 2])]
    values, bounds, _ = eng.shell_refine(eng.KernelPairs(sk.base, sk), X, hi, DEFAULT_SCHEME, integrands, groups, tol=TOL)
    monkeypatch.undo()
    assert limits == [[80, 0, 80]]
    assert values[0][1] is values[0][2] is values[1][1] is bounds[1][1] is None
    for g, p, fs in ((0, 0, integrands[:1]), (1, 0, integrands[1:]), (1, 2, integrands[1:])):
        want = shell_refine(eng.KernelPairs(sk.base, sk), X[p : p + 1], hi, DEFAULT_SCHEME, fs, tol=TOL)
        assert repr((values[g][p], bounds[g][p])) == repr((want[0][0], want[1][0]))


def test_a_large_block_takes_one_table_per_chunk(monkeypatch):
    # 2D shells of 1024 signed pairs, each counted four times for a kernel
    # closure: a block of 40 samples takes five tables per shell
    sk = _generic_2d()
    X = np.column_stack([np.linspace(-0.5, 0.5, 40), np.linspace(0.3, -0.2, 40)])
    rows = []
    table = eng.KernelPairs.table

    def counted(self, x, Z, signed=False):
        rows.append(np.shape(x)[0] * len(Z) * (2 if signed else 1))
        return table(self, x, Z, signed)

    monkeypatch.setattr(eng.KernelPairs, "table", counted)
    with np.errstate(all="ignore"):
        pairs = eng.KernelPairs(sk.base, sk)
        values, _, shells = shell_refine(pairs, X, 1.0, DEFAULT_SCHEME, _rowless(_signed_integrands()), tol=TOL, signed=True)
    monkeypatch.undo()
    assert rows[:5] == [eng._PAIR_BLOCK // 4] * 5 and max(rows) <= eng._PAIR_BLOCK // 4 and shells > 1
    for p in (0, 17, 39):
        pairs = eng.KernelPairs(sk.base, sk)
        with np.errstate(all="ignore"):
            want, _, _ = _ref_shell_refine(pairs, X[p], 1.0, DEFAULT_SCHEME, _signed_integrands(), tol=TOL, signed=True)
        assert repr(values[p]) == repr(want)


def test_a_shell_walk_keeps_no_table_of_an_earlier_shell(monkeypatch):
    # each table the walk makes, keyed by its shell's outer node radius: an
    # integrand on a shell finds every table of the shells before it gone
    sk = _generic_2d()
    X = np.column_stack([np.linspace(-0.5, 0.5, 40), np.linspace(0.3, -0.2, 40)])
    made, alive = [], []
    table = eng.KernelPairs.table

    def recorded(self, x, Z, signed=False):
        tab = table(self, x, Z, signed)
        made.append((float(np.max(np.sum(Z * Z, axis=-1))), weakref.ref(tab)))
        return tab

    def integrand(_, Z, tab):
        outer = float(np.max(np.sum(Z * Z, axis=-1)))
        alive.append(sum(ref() is not None for key, ref in made if key > outer))
        return np.sum(Z * Z, axis=-1) * tab["sym"][..., : len(Z)]

    monkeypatch.setattr(eng.KernelPairs, "table", recorded)
    with np.errstate(all="ignore"):
        _, _, shells = shell_refine(eng.KernelPairs(sk.base, sk), X, 1.0, DEFAULT_SCHEME, (integrand,), tol=TOL, signed=True)
    assert shells > 2 and len(made) > shells and len(alive) == len(made)
    assert not any(alive)


# ---------------------------------------------------------------------------
# the sector ratio
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(KERNELS))
def test_sector_ratios_match_the_per_point_march(name):
    sk = KERNELS[name]()
    for sch in (DEFAULT_SCHEME, _refined(DEFAULT_SCHEME)):
        for X in _blocks(name):
            got = sector_ratios(sk, X, sch)
            assert [repr(_entry(v)) for v in got] == [repr(_attempt(lambda: _ref_sector_ratio_at(sk, x, sch))) for x in X]


@pytest.mark.parametrize("name", ("stable-1d", "generic-1d", "from-parts-1d"))
def test_check_sector_ratio_matches_the_per_point_check(name):
    sk = KERNELS[name]()
    region = Box((-1.0,), (0.5,))
    assert repr(check_sector_ratio(sk, region, per_axis=3)) == repr(_ref_check_sector_ratio(sk, region, DEFAULT_SCHEME, 3))


# ---------------------------------------------------------------------------
# a block whose samples meet their own errors
# ---------------------------------------------------------------------------


def _mixed_1d():
    """k_a ~ |z|^q near the diagonal, q set by the midpoint m of x and y: at
    m near -0.5, q = -0.6, so the |k_a| walk reaches x + z == x, where
    sign(0) |0|^q reads NaN; at m near 0, q = -1, so the shell masses never
    decay and, x + z being exact at x = 0, the walk runs out of shells; at
    m >= 0.25, q = 0 and the walk resolves."""

    def ks(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return np.exp(-r) / r**1.5

    def ka(x, y):
        d = x[..., 0] - y[..., 0]
        m = 0.5 * (x[..., 0] + y[..., 0])
        q = np.where(np.abs(m) < 0.25, -1.0, np.where(m < 0.0, -0.6, 0.0))
        return 0.1 * np.sign(d) * np.abs(d) ** q * np.exp(-np.abs(d))

    return SplitKernel.from_parts(1, ks, ka, label="mixed-1d", z_support=2.0)


MIXED = np.array([[0.5], [-0.5], [1.0], [0.0], [0.75]])


def test_only_the_samples_that_fail_alone_are_flagged_in_a_block():
    sk = _mixed_1d()
    with np.errstate(all="ignore"):
        values = _assert_walks_match(sk, MIXED, _walk_integrands(1.0)[:2], False)
    nan, stuck = values[1], values[3]
    assert isinstance(nan, QuadratureOverflow) and np.all(np.isnan(nan.value))
    assert repr(stuck) == repr(NoConvergence("shell refinement: shell masses did not decay below tolerance after 80 shells"))
    assert all(isinstance(values[p], list) and all(math.isfinite(v) for v in values[p]) for p in (0, 2, 4))


def test_FU_flags_only_the_nan_and_the_unfinished_sample():
    sk = _mixed_1d()
    with np.errstate(all="ignore"):
        reps = check_FU(sk, 1.0, Box((-0.5,), (1.0,)), per_axis=4)
    assert [r.details["points"] for r in reps[:1]] == [[(-0.5,), (0.0,), (0.5,), (1.0,)]]
    pairs = eng.KernelPairs(sk.base, sk)
    for r in reps:
        values = r.details["point_values"]
        # the NaN walk is left unresolved, the unfinished one is infinite
        assert math.isnan(values[0]) and values[1] == float("inf")
        assert all(math.isfinite(v) for v in values[2:])
    # the samples that resolve keep their own near fields
    for p, x in ((2, 0.5), (3, 1.0)):
        (near, _), _, _ = _ref_shell_refine(pairs, np.array([x]), 1.0, DEFAULT_SCHEME, _walk_integrands(1.0)[:2], tol=TOL)
        assert repr(reps[1].details["point_values"][p]) == repr(float(near))
    assert [r.verdict for r in reps] == ["fail"] * 3


def _nan_1d():
    """(1 + 0.3 tanh y) r / r^2.5: NaN (0 inf) where x + z rounds to x, which
    the kernel reports as a NegativeKernel error."""

    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return (1.0 + 0.3 * np.tanh(y[..., 0])) * r / r**2.5

    return split(JumpKernel(dim=1, eval=k, label="nan-1d", tail_exponent=1.5, tail_amplitude=1.3))


def _sqrt_pair_1d():
    """g(x) sqrt(|y + 6| - 0.2) / r^1.5 within r < 1.5, g = -1 left of -5.5."""

    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        g = np.where(x[..., 0] < -5.5, -1.0, 1.0)
        return np.where(r < 1.5, g * np.sqrt(np.abs(y[..., 0] + 6.0) - 0.2) / r**1.5, 0.0)

    return split(JumpKernel(dim=1, eval=k, label="sqrt-pair-1d", z_support=1.5))


def test_a_sample_whose_kernel_raises_gets_its_own_error():
    # the |k_a| walks at x = -0.5 and 0.25 reach x + z == x; the block's
    # table raises there, and each sample is then walked on a table of its own
    with np.errstate(all="ignore"):
        X = np.array([[0.0], [-0.5], [-1.0], [0.25], [0.5]])
        values = _assert_walks_match(_nan_1d(), X, _walk_integrands(1.0)[:2], False)
    assert all(isinstance(values[p], NegativeKernel) and "nan" in str(values[p]) for p in (1, 3))
    assert all(isinstance(values[p], list) for p in (0, 2, 4))
    # g(x) sqrt(|y + 6| - 0.2) / r^1.5 reads NaN on one side and negative on
    # the other at x = -5: each sample's sector ratio, or its error, is its
    # own, and at -5 the negative value outranks the NaN
    sk = _sqrt_pair_1d()
    X = np.array([[-3.0], [-6.0], [-5.0], [-7.0], [-4.0]])
    with np.errstate(all="ignore"):
        got = sector_ratios(sk, X, DEFAULT_SCHEME)
        assert [repr(_entry(v)) for v in got] == [repr(_entry(sector_ratios(sk, x[None], DEFAULT_SCHEME)[0])) for x in X]
    assert [type(v) for v in got] == [float, NegativeKernel, NegativeKernel, NegativeKernel, float]
    assert got[2].value < 0.0 and got[1].value < 0.0


def test_FU_leaves_a_sample_whose_walk_reads_a_nan_kernel_unresolved():
    # the walks at x = -0.5 and 0.25 read the kernel's NaN where x + z == x:
    # those samples are unresolved (NaN), as a NaN k_a sum is, and the
    # samples that resolve keep their own values
    sk = _nan_1d()
    with np.errstate(all="ignore"):
        reps = check_FU(sk, 1.0, Box((-0.5,), (0.25,)), per_axis=4)
    pairs = eng.KernelPairs(sk.base, sk)
    for r in reps:
        values = r.details["point_values"]
        assert math.isnan(values[0]) and math.isnan(values[3])
        assert all(math.isfinite(v) for v in values[1:3])
    for p, x in ((1, -0.25), (2, 0.0)):
        with np.errstate(all="ignore"):
            (near, _), _, _ = _ref_shell_refine(pairs, np.array([x]), 1.0, DEFAULT_SCHEME, _walk_integrands(1.0)[:2], tol=TOL)
        assert repr(reps[1].details["point_values"][p]) == repr(float(near))
    assert [r.verdict for r in reps] == ["inconclusive"] * 3


def test_FU_raises_on_a_negative_kernel_value():
    # (0.9 + tanh y) / r^2.5 is negative for y < -0.37, which every walk
    # from x = -0.5 reads
    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return (0.9 + np.tanh(y[..., 0])) / r**2.5

    sk = split(JumpKernel(dim=1, eval=k, label="negative-1d", tail_exponent=1.5, tail_amplitude=1.9))
    with np.errstate(all="ignore"), pytest.raises(NegativeKernel, match="negative or NaN at a sampled pair") as err:
        check_FU(sk, 1.0, Box((-0.5,), (0.25,)), per_axis=4)
    assert err.value.value < 0.0


def _pocket_1d(g):
    """g(|y + 6| - 0.2) / r^1.5 within r < 1.5, which the samples -5 and -4.5
    of [-5, -3] read: NaN where |y + 6| < 0.2 for g = sqrt, negative there
    (and nowhere NaN) for g the identity."""

    def k(x, y):
        r = np.abs(x[..., 0] - y[..., 0])
        return np.where(r < 1.5, g(np.abs(y[..., 0] + 6.0) - 0.2) / r**1.5, 0.0)

    return split(JumpKernel(dim=1, eval=k, label="pocket-1d", z_support=1.5))


_SAMPLED_CHECKS = {
    "A0": lambda sk, region: [check_A0(sk, region, per_axis=5)],
    "H4": lambda sk, region: [check_sector_ratio(sk, region, per_axis=5)],
    "FU": lambda sk, region: check_FU(sk, 0.5, region, per_axis=5),
    "H5": lambda sk, region: [check_local_pv_bound(sk, [region], per_axis=5)],
    "MISC": lambda sk, region: check_misc_integrability(sk, region, per_axis=5),
}


@pytest.mark.parametrize("name", list(_SAMPLED_CHECKS))
def test_every_check_leaves_a_sample_whose_kernel_reads_nan_unresolved(name):
    region = Box((-5.0,), (-3.0,))
    pts = _sample_points(region, 5)
    with np.errstate(all="ignore"):
        reports = _SAMPLED_CHECKS[name](_pocket_1d(np.sqrt), region)
    for r in reports:
        values = [p["sup"] for p in r.details["per_point"]] if r.condition_id == "H5" else r.details["point_values"]
        # the near fields of COND4 and H3 (|z| <= 1) reach the pocket from
        # -5 alone; every other integral reads it from -5 and -4.5
        unresolved = 1 if r.condition_id in ("COND4", "H3") else 2
        assert all(math.isnan(v) for v in values[:unresolved]), r.condition_id
        assert all(math.isfinite(v) for v in values[unresolved:]), r.condition_id
        assert r.verdict == "inconclusive", r.condition_id
        assert r.estimate == max(values[unresolved:]), r.condition_id
        if r.condition_id != "A0":
            # the witness is a resolved sample; A0 names its last unstable one
            assert not math.isnan(values[[_pt(x) for x in pts].index(r.witness_points[0])]), r.condition_id


NEGATIVE_KERNELS = {
    "negative": lambda: _pocket_1d(lambda t: t),
    # one face NaN and the other negative: the negative value outranks the NaN
    "sqrt-pair": _sqrt_pair_1d,
}


@pytest.mark.parametrize("kernel", list(NEGATIVE_KERNELS))
@pytest.mark.parametrize("name", list(_SAMPLED_CHECKS))
def test_every_check_raises_on_a_negative_kernel_value(name, kernel):
    with np.errstate(all="ignore"), pytest.raises(NegativeKernel, match="negative or NaN at a sampled pair") as err:
        _SAMPLED_CHECKS[name](NEGATIVE_KERNELS[kernel](), Box((-5.0,), (-3.0,)))
    assert err.value.value < 0.0


def test_by_rows_gives_each_row_its_own_error():
    # a closure that raises for its whole array is called again row by row,
    # and the table that made the face keeps each row's own error with it
    X = np.array([[1.0], [-2.0], [3.0], [-4.0]])
    calls = []

    def make(s=None):
        Xb = X if s is None else X[s]
        calls.append(len(Xb))
        if np.any(Xb < 0.0):
            raise DomainError(f"negative point {float(Xb[Xb < 0.0][0])!r}")
        return 2.0 * Xb

    with pytest.raises(DomainError, match="-2.0"):
        PairTable(make, make)["direct"]
    del calls[:]
    tab = PairTable(make, make, shape=lambda: X.shape)
    values = tab["direct"]
    assert values[[0, 2]].tolist() == [[2.0], [6.0]] and calls == [4, 1, 1, 1, 1]
    assert {p: _entry(v) for p, v in tab.faults().items()} == {
        1: repr(DomainError("negative point -2.0")),
        3: repr(DomainError("negative point -4.0")),
    }
    # entries that make one row (a stack of node sets) are made again together
    del calls[:]
    tab = PairTable(make, make, shape=lambda: X.shape)
    tab.rows = [0, 0, 1, 1]
    tab["direct"]
    assert calls == [4, 2, 2] and {p: _entry(v) for p, v in tab.faults().items()} == {
        0: repr(DomainError("negative point -2.0")),
        1: repr(DomainError("negative point -4.0")),
    }


# ---------------------------------------------------------------------------
# the killing term's far masses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ("stable-1d", "generic-1d"))
def test_the_killing_far_masses_march_as_one_block(monkeypatch, name):
    # killing_term and H5 march every point's far mass beyond r_break in one
    # block (the transposed face, or the doubled anti_rev face of a generic
    # kernel), with the values each point's own march gives it
    sk = KERNELS[name]()
    compacts = [Box((-1.0,), (0.0,)), Box((0.5,), (1.5,))]
    pts = [[-0.8], [0.0], [0.25], [1.05]]
    marches = []
    numeric = eng._far_numeric

    def counted(face, X, R, scheme, cut):
        marches.append(len(X))
        return numeric(face, X, R, scheme, cut)

    monkeypatch.setattr(eng, "_far_numeric", counted)
    calls = (lambda: killing_term(sk.base, pts, sk=sk), lambda: check_local_pv_bound(sk, compacts, per_axis=3))
    got = []
    for call in calls:
        del marches[:]
        got.append(repr(call()))
        assert marches == [len(pts) if len(got) == 1 else 6]
    # each point marched on its own gives the same values
    def one_by_one(face, X, R, scheme, cut):
        alone = [counted(face, x[None], [r], scheme, cut) for x, r in zip(X, R)]
        return [[m[i][0] for m in alone] for i in range(3)]

    monkeypatch.setattr(eng, "_far_numeric", one_by_one)
    for call, want in zip(calls, got):
        del marches[:]
        assert repr(call()) == want and set(marches) == {1}
