"""Shared quadrature machinery.

Every entry point takes a block of base points X (P, n), each with its own
radii, stopping rules and errors, and gives one entry per point: the
point's result or the error it met.  Only generator_point and far_mass
(blocks of one, kept for bench/tracing.py and the tests) and the public
wrappers outside this module take a single point.  Integrals over offsets
z decompose into

* a small ball |z| <= s handled by closed forms (power-law kernels) or by
  dyadic shells with a geometric tail bound (generic kernels),
* geometric annuli [s, 1] and [1, R] integrated with Gauss-Legendre panels,
* a far field |z| > R handled exactly (power laws), by one band up to a
  declared support (compact kernels) or by annulus extension plus a decay
  bound.

Node sets pair +z with -z so that odd parts cancel at the summation level,
which is what keeps catastrophic cancellation out of principal values and
killing-term integrands; a power law's direct face is even in z, so the
generator reads it at +z alone and forms no drift integrand for it.  The
kernel enters through one PairTable per node set and block of base points:
the two one-sided values k(x, x+z) and k(x+z, x), each evaluated once, and
every face a fixed combination of them.  The faces of one request share
their tables and far masses, and the node sets of its points their panels.

Every descent into the small ball is the one walk of ``dyadic_shells``
(_walk_shells): a shell is one node set and one table per chunk of the
points still walking, its kernel pairs evaluated once for every integrand
(shell_refine) or generator face (plan_inner_shells, which sums them for
generator_block inside the walk), and no table outlives its shell.
The cutoff ladders of the killing term (kappa_partials) and of principal
values (truncated_bands) are one node set per segment, tabulated for every
point still on the ladder.  Node sets of the points' own (outer panels,
far bands, the panels of a form's cells) are stacked into shared tables
(set_integrals).  Far fields march a block in lockstep, one band per
octave (octave_extend), and integrands read from one table per band give
several sums from one march.  far_masses is the one far-field entry point:
a block function hands it its points and radii and reads one entry per
point back.

Every node-level quantity is one (points x nodes) array, while node sums and
everything scalar stay per point.  Elementwise NumPy arithmetic rounds the
same whatever the array's shape, but a reduction, a matrix product or a
``**`` on a scalar instead of an array may not, so those keep the calls a
point on its own makes, and every point gets the bits it has on its own.

Every error stays with its point, and no block is evaluated twice.  A
kernel value or an order weight checked on a whole table is found bad at
some rows where the table makes that face (by_rows): each bad row gets the
error it meets on its own while the others keep their values, and the
table keeps those errors by face (PairTable.errors).  The code that builds
a table reads them back with the values: an integrand gives its values
and its errors by row, (values, errors), and a walk that shares one table
among integrands gives each the errors of the faces it read.  Node sums
and scalar steps fail per point.  A point's error is kept in its place
(``attempt``), the point takes no further part, and the error is raised
again at that point's turn (``unwrap``), in the order a point on its own
meets its errors.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NoConvergence, QuadratureOverflow, attempt, unwrap
from .gridfn import GridFunction, sq_norm
from .kernels import AlphaFunction, JumpKernel, PairTable, SplitKernel, by_rows, split, weight_w

TWO_PI = 2.0 * math.pi

# switch radius below which power-law kernels use closed forms
S_INNER = 1e-4
# switch radius below which compensated differences are replaced by the
# quadratic Taylor form (cancellation control for generic-kernel shells)
R_QUAD = 1e-4


def _sigma(dim: int) -> float:
    """Surface measure of the unit sphere: 2 in 1D, 2*pi in 2D."""
    return 2.0 if dim == 1 else TWO_PI


# ---------------------------------------------------------------------------
# panels and node sets
# ---------------------------------------------------------------------------

_GL_CACHE: dict = {}
_DIR_CACHE: dict = {}


def gl_rule(order: int):
    hit = _GL_CACHE.get(order)
    if hit is None:
        hit = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = hit
    return hit


def _directions(k: int) -> np.ndarray:
    hit = _DIR_CACHE.get(k)
    if hit is None:
        th = TWO_PI * np.arange(k) / k
        hit = np.column_stack([np.cos(th), np.sin(th)])
        _DIR_CACHE[k] = hit
    return hit


def geometric_ladder(lo: float, hi: float, growth: float, max_width: Optional[float] = None):
    """Panels covering [lo, hi] with widths growing geometrically away from lo."""
    if not (0.0 < lo < hi):
        raise DomainError(f"invalid ladder range [{lo}, {hi}]")
    if growth <= 1.0:
        raise DomainError("growth must exceed 1")
    edges = [lo]
    e = lo
    while e * growth < hi * (1.0 - 1e-12):
        e *= growth
        edges.append(e)
    edges.append(hi)
    panels = zip(edges[:-1], edges[1:])
    return list(panels) if max_width is None else [p for a, b in panels for p in _width_split(a, b, max_width)]


def _width_split(a: float, b: float, max_width: Optional[float]) -> list:
    """The panel (a, b) cut into equal panels no wider than max_width."""
    if max_width is None or b - a <= max_width:
        return [(a, b)]
    sub = np.linspace(a, b, int(np.ceil((b - a) / max_width)) + 1)
    return list(zip(sub[:-1], sub[1:]))


def radial_panels(lo: float, hi: float, scheme, max_width: Optional[float] = None, support: Optional[float] = None):
    """Geometric panels on [lo, hi], split exactly at r_break and at a
    kernel's declared support, where it jumps to 0, when they fall inside."""
    edges = [lo] + sorted({c for c in (scheme.r_break, support) if c is not None and lo < c < hi}) + [hi]
    return [p for a, b in zip(edges, edges[1:]) for p in geometric_ladder(a, b, scheme.growth, max_width)]


class NodeSet:
    """Quadrature nodes for integrals over the annulus lo <= |z| <= hi.

    ``integrate(fn)`` evaluates fn on offset batches of shape (m, n) and
    returns the integral of fn over the annulus; fn may also return vectors
    of shape (m, c), in which case a length-c array comes back.  fn must act
    row by row: in 1D it receives the +z and -z nodes in one batch.
    """

    def __init__(self, dim: int, r: np.ndarray, wr: np.ndarray, angular: int, cap: float):
        self.dim = dim
        self.r = r
        self.wr = wr
        self.angular = angular
        self.cap = cap
        self.dirs = _directions(angular) if dim == 2 else None

    @property
    def count(self) -> int:
        return len(self.r) * (2 if self.dim == 1 else self.angular)

    def offsets(self) -> np.ndarray:
        """Every node offset, in the layout handed to fn: [z; -z] in 1D, r*dirs in 2D."""
        if self.dim == 1:
            z = self.r[:, None]
            return np.concatenate([z, -z])
        return (self.r[:, None, None] * self.dirs[None, :, :]).reshape(-1, 2)

    def sum(self, fn):
        """The quadrature sum of fn, without the magnitude gate.

        Error-scale estimates use it directly: they may be astronomically
        large, and that largeness is exactly the information wanted.
        """
        if len(self.r) == 0:
            return 0.0
        return self.weigh(fn(self.offsets()))

    def weigh(self, v):
        """The quadrature sum of node values v, laid out as offsets() is: what
        sum(fn) makes of v = fn(offsets()), for instance one point's row of a block."""
        m = len(self.r)
        if m == 0:
            return 0.0
        v = np.asarray(v, dtype=float)
        if self.dim == 1:
            vals = v[:m] + v[m:]
            return float(np.dot(self.wr, vals)) if vals.ndim == 1 else self.wr @ vals
        k = self.angular
        ang = v.reshape((m, k) + v.shape[1:]).sum(axis=1)
        if v.ndim == 1:
            return float(np.dot(self.wr * self.r, ang) * (TWO_PI / k))
        return ((self.wr * self.r) @ ang) * (TWO_PI / k)

    def integrate(self, fn):
        """The quadrature sum of fn; raises QuadratureOverflow beyond the magnitude cap."""
        return self._capped(self.sum(fn))

    def integrate_values(self, v):
        """integrate for node values v already evaluated, laid out as in weigh."""
        return self._capped(self.weigh(v))

    def _capped(self, out):
        # written so that NaN fails too
        if not (abs(out) <= self.cap if isinstance(out, float) else np.all(np.abs(out) <= self.cap)):
            arr = np.atleast_1d(np.asarray(out, dtype=float))
            exc = QuadratureOverflow(f"quadrature contribution {arr!r} exceeds the magnitude cap {self.cap:g}")
            exc.value = arr
            raise exc
        return out


def _panel_nodes(panels, scheme):
    """The nodes r and weights wr of each panel (a, b) in turn: 0.5 (a + b) + 0.5 (b - a) t."""
    t, w = gl_rule(scheme.nodes_per_annulus)
    a, b = panels[0] if len(panels) == 1 else np.array(panels).T[:, :, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * t).ravel(), (half * w).ravel()


def make_nodes(
    dim: int, lo: float, hi: float, scheme, max_width: Optional[float] = None, support: Optional[float] = None, memo: Optional[dict] = None
) -> NodeSet:
    """The Gauss-Legendre nodes of radial_panels(lo, hi, ...).  ``memo``, a
    dict that one call's sets share, keeps each geometric panel's nodes, cut
    at max_width and read-only, so that a set makes only the panels no set
    before it had; they are elementwise in a and b, so the bits are the same."""
    if hi <= lo:
        r, wr = np.empty(0), np.empty(0)
    elif memo is None:
        r, wr = _panel_nodes(radial_panels(lo, hi, scheme, max_width, support), scheme)
    else:
        keys = [(a, b, max_width) for a, b in radial_panels(lo, hi, scheme, support=support)]
        for key in (k for k in keys if k not in memo):
            memo[key] = nodes = _panel_nodes(_width_split(*key), scheme)
            nodes[0].flags.writeable = nodes[1].flags.writeable = False
        r, wr = (np.concatenate(v) for v in zip(*map(memo.__getitem__, keys)))
    return NodeSet(dim, r, wr, scheme.angular_nodes, scheme.magnitude_cap)


# ---------------------------------------------------------------------------
# dyadic shells with geometric tail bounds
# ---------------------------------------------------------------------------


def dyadic_shells(dim: int, hi: float, scheme, count: int, support: Optional[float] = None):
    """The node sets of the shells [hi 2^-(i+1), hi 2^-i], i < count, outward in, split at ``support``."""
    for i in range(count):
        yield make_nodes(dim, hi * 2.0 ** -(i + 1), hi * 2.0**-i, scheme, support=support)


def _shell_stop(p: float, c: float, tol: float):
    """The tail bound that ends a shell sum whose last two masses have moduli
    p and c, or None while the rest of the ball is not bounded below tol."""
    if c == 0.0:
        return 0.0 if p == 0.0 else None
    if p > 0.0 and c <= 0.9 * p:
        rho = min(c / p * 1.2, 0.95)
        bound = c * rho / (1.0 - rho)
        if bound < tol:
            return bound
    return c + p if c < tol * 1e-3 and p < tol * 1e-3 else None


# largest number of (point, node) pairs in one block table; bounds a block's
# (points x nodes) temporaries, as _W_BLOCK does for weight_w
_PAIR_BLOCK = 1 << 15


def block_size(base: JumpKernel, width: int) -> int:
    """How many base points a block table of ``width`` pairs per point takes
    within _PAIR_BLOCK pairs.  A pair evaluated by a kernel closure counts
    four times: its temporaries are the closure's own, about 175 bytes per
    pair for an expression kernel against about 50 for the stable-like
    closed form."""
    if base.alpha_fn is None:
        width *= 4
    return max(1, _PAIR_BLOCK // max(width, 1))


def each_row(each, rows, errors: dict) -> list:
    """each(row) for every row k of rows: the row's error errors[k], if it
    has one, or what each gives or raises."""
    return [errors[k] if k in errors else attempt(lambda: each(row)) for k, row in enumerate(rows)]


def table_rows(values, items, step: int, each) -> list:
    """each_row for the items in chunks of at most ``step``: values(chunk)
    gives (rows, errors by row), one row per item of the chunk."""
    out = []
    for c in range(0, len(items), step):
        out.extend(each_row(each, *values(items[c : c + step])))
    return out


def set_integrals(fn, owners, sets, cap: int) -> list:
    """The integrals of fn's integrands on every node set of ``sets``, sets[j]
    at the base point of row owners[j]: one tuple per set, each integrand's
    own NodeSet sum there, or the error the set meets on its own.

    Consecutive sets are stacked into one fn(rows, Z, of) call while they
    hold at most ``cap`` pairs together (a set larger than cap is a call of
    its own): Z (N, n) are their offsets, one after the other, rows (N,) the
    row of each offset's base point, so that fn reads its base points as
    X[rows], and of (N,) the set of each offset, a table's row (PairTable).
    fn gives its integrands in turn, each as (values (N,), errors by set), so
    an integrand made after another may carry the errors of the faces read
    up to it.  Every set has nodes.
    """
    sizes = [ns.count for ns in sets]
    out, start = [], 0
    while start < len(sets):
        stop, width = start + 1, sizes[start]
        while stop < len(sets) and width + sizes[stop] <= cap:
            width += sizes[stop]
            stop += 1
        out.extend(_stacked_sums(fn, owners[start:stop], sets[start:stop], sizes[start:stop]))
        start = stop
    return out


def _stacked_sums(fn, owners, sets, sizes) -> list:
    """set_integrals on the sets of one chunk, from one fn call."""
    if len(sets) == 1:
        rows, Z, of = np.full(sizes[0], owners[0]), sets[0].offsets(), np.broadcast_to(0, sizes[:1])
    else:
        rows, Z = np.repeat(owners, sizes), np.concatenate([ns.offsets() for ns in sets])
        of = np.repeat(np.arange(len(sets)), sizes)
    ends = list(accumulate(sizes, initial=0))
    spans = list(zip(sets, ends, ends[1:]))
    sums = lambda v, errors: each_row(lambda span: span[0].integrate_values(v[span[1] : span[2]]), spans, errors)
    return list(zip(*(sums(*part) for part in fn(rows, Z, of))))


class _Reads(dict):
    """A PairTable as one integrand reads it: its keys are the faces read,
    in the order read, whose errors (tab.faults(reads)) are the integrand's;
    with ``m``, each face on its first m offsets."""

    def __init__(self, tab: PairTable, m: Optional[int] = None):
        super().__init__()
        self.tab, self.m = tab, m

    def __missing__(self, kind: str) -> np.ndarray:
        v = self[kind] = self.tab[kind] if self.m is None else self.tab[kind][..., : self.m]
        return v

    minus = PairTable.minus


def _walk_shells(pairs: "KernelPairs", X, hi: float, scheme, limits, read, signed: bool):
    """The one walk of the dyadic shells below hi, for the base points of X (P, n).

    Each shell's node set is built once, with one PairTable (``signed``) on
    it for each chunk of at most block_size points still walking, kept by
    the walk only while read(i, ns, Z, rows, table) runs: read takes shell i
    into the sums of the chunk's points, rows (k,) being their indices into
    X, and gives for each whether it is done, or the error it meets (its
    row's error in the table, PairTable.faults, or its own), with which it
    leaves the walk.  Point p walks at most limits[p] shells.

    Returns (errors, shells): errors[p] is the error point p met, or None,
    and shells the node sets of the shells built, outward in.
    """
    errors = [None] * len(X)
    shells = []
    walking = [p for p in range(len(X)) if limits[p] > 0]
    for i, ns in enumerate(dyadic_shells(pairs.base.dim, hi, scheme, max(limits, default=0), pairs.base.z_support)):
        if not walking:
            break
        Z = ns.offsets()
        step = block_size(pairs.base, len(Z) * (2 if signed and Z.shape[-1] == 2 else 1))
        still = []
        for c in range(0, len(walking), step):
            rows = np.array(walking[c : c + step])
            for p, done in zip(walking[c : c + step], read(i, ns, Z, rows, pairs.table(X[rows[:, None]], Z, signed))):
                if isinstance(done, Exception):
                    errors[p] = done
                elif not done and i + 1 < limits[p]:
                    still.append(p)
        shells.append(ns)
        walking = still
    return errors, shells


def shell_refine(pairs: "KernelPairs", X, hi: float, scheme, integrands: Sequence[Callable], groups, *, tol: float, max_shells: int = 80):
    """Sums of integrands (rows, Z, table) -> values over the dyadic shells
    below hi at base points of X (P, n), from one walk (_walk_shells).

    rows (k, 1) are the indices into X of a table's points, shaped as its
    base points X[rows] broadcast against Z.  An integrand gives one row of
    node values per point of the table, and a point's mass of it is the
    first error of the faces it read there, if any (_Reads).  Each point
    sums its own rows with the NodeSet calls it makes on its own and keeps
    each integrand's stopping rule: a sum ends once a geometric
    extrapolation of its decaying shell masses bounds the rest of the ball
    below tol (two zero shells give bound 0), and it is integrated on no
    later shell.  Every sum is bitwise the point's own.

    Each group (indices, signed, label, at) sums the integrands at
    ``indices`` (an integrand groups share is summed once) at the points
    ``at`` of X (every point when None), on tables ``signed`` when one reads
    ``table.minus``, with errors of its own: a point walks while any of its
    groups sums.  In a 2D walk on signed tables an unsigned integrand reads
    their +z half, or a table of its own where a face it reads has an error
    there (which may be one of -z alone).

    Returns (values, tail_bounds, shells): values[g][p] and tail_bounds[g][p]
    are group g's lists of sums and bounds at point p (None where it does
    not walk p) or, in both places, the error it meets there on its own:
    NoConvergence (with its label) when a sum has not ended after
    max_shells, the QuadratureOverflow (with its value) of a shell mass
    beyond the magnitude cap, or what its kernel raised.  shells is the
    number of shells the walk built.
    """
    X = np.asarray(X, dtype=float)
    n = len(integrands)
    signs = {j: s for idx, s, _, _ in groups for j in idx}
    owners = [[g for g, gr in enumerate(groups) if j in gr[0]] for j in range(n)]
    totals = [[0.0] * n for _ in X]
    prevs = [[0.0] * n for _ in X]
    bounds = [[None] * n for _ in X]
    # False where a group does not walk a point, else None until it meets an error
    failed = [[None if at is None or p in at else False for _, _, _, at in groups] for p in range(len(X))]
    half = [pairs.base.dim == 2 and any(signs.values()) and not signs.get(j) for j in range(n)]
    todo = [[j for j in range(n) if any(failed[p][g] is None for g in owners[j])] for p in range(len(X))]

    def read(i, ns, Z, rows, tab):
        # each point's shell masses of the sums it still needs; a group that
        # meets an error takes the first of its integrands', in its order
        pts, own = rows.tolist(), None
        masses: list = [{} for _ in pts]
        errs: dict = {}
        for j, f in enumerate(integrands):
            ks = [k for k, p in enumerate(pts) if j in todo[p]]
            if ks:
                reads = _Reads(tab, len(Z) if half[j] else None)
                v = f(rows[:, None], Z, reads)
                errors = tab.faults(reads)
                if errors and half[j]:
                    own = pairs.table(X[rows[:, None]], Z) if own is None else own
                    v = f(rows[:, None], Z, reads := _Reads(own))
                    errors = own.faults(reads)
                for k in ks:
                    try:
                        masses[k][j] = unwrap(errors[k]) if k in errors else ns.integrate_values(v[k])
                    except Exception as exc:
                        errs.setdefault(k, {})[j] = exc
        for k, p in enumerate(pts):
            for g, (idx, _, _, _) in enumerate(groups if k in errs else ()):
                if failed[p][g] is None:
                    failed[p][g] = next((errs[k][j] for j in idx if j in errs[k]), None)
            for j, s in masses[k].items():
                totals[p][j] += s
                if i >= 1:
                    bounds[p][j] = _shell_stop(abs(prevs[p][j]), abs(s), tol)
                prevs[p][j] = s
            # a sum goes on while it has not ended and a group that met no error needs it
            todo[p] = [j for j in todo[p] if bounds[p][j] is None and any(failed[p][g] is None for g in owners[j])]
        return [not todo[p] for p in pts]

    _, shells = _walk_shells(pairs, X, hi, scheme, [max_shells if t else 0 for t in todo], read, any(signs.values()))
    values, tails = [], []
    for g, (idx, _, lab, _) in enumerate(groups):
        for p, b in enumerate(bounds):
            if failed[p][g] is None and any(b[j] is None for j in idx):
                failed[p][g] = NoConvergence(f"{lab}: shell masses did not decay below tolerance after {max_shells} shells")
        entry = lambda p, of: None if failed[p][g] is False else failed[p][g] or [of[p][j] for j in idx]
        values.append([entry(p, totals) for p in range(len(X))])
        tails.append([entry(p, bounds) for p in range(len(X))])
    return values, tails, len(shells)


# ---------------------------------------------------------------------------
# kernel faces
# ---------------------------------------------------------------------------


class KernelPairs:
    """The kernel behind the PairTables of one set of faces.

    ``between(X, Y)`` tabulates base evaluations on explicit pairs,
    ``among(pts)`` on every ordered pair of a lattice, each evaluated once,
    and ``table(X, Z)`` the faces at a block of base points X on offsets Z
    (y = X + Z), with ``signed`` on Z followed by -Z (the 1D node layout
    [z; -z] already is).  X broadcasts against Z: (P, 1, n) against shared
    offsets (M, n), or (N, n) against (N, n).
    Stable-like kernels and kernels with an offset form are evaluated from
    |z| itself, exact at any radius where |x - y| would lose deep annuli to
    rounding; a stable-like order is read at the rounded x + z (a constant
    order's transposed side is the direct one, bit for bit), and at x
    itself once per point (``order``), and sym/anti are always the halves.
    Otherwise the part closures of sk replace the halves unless they are
    the halves (``SplitKernel.halves``).  ``far`` holds the far masses of
    these faces.
    """

    def __init__(self, base: JumpKernel, sk: Optional[SplitKernel] = None):
        self.base = base
        self.own = sk if sk is not None and sk.base is base and not sk.halves else None
        self.far: dict = {}
        self.orders: dict = {}

    def order(self, x) -> Tuple[float, float]:
        """(alpha(x), w(alpha(x))) at one base point of a stable-like kernel,
        read once per point for every table and far mass that needs it."""
        x = np.asarray(x, dtype=float)
        hit = self.orders.get(x.tobytes())
        if hit is None:
            a0 = float(self.base.alpha_fn(x))
            hit = self.orders[x.tobytes()] = (a0, weight_w(a0, self.base.dim))
        return hit

    def orders_at(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """order() at every base point of a block x, as two arrays shaped like
        x without its last axis; a run of rows with equal bits (as np.repeat
        lays them out) is read once, and a block of one point at once."""
        rows = np.ascontiguousarray(x).reshape(-1, x.shape[-1])
        bits = rows.view(np.int64)
        ends = bits[1:, 0] != bits[:-1, 0]  # where a run ends, coordinate by coordinate
        for i in range(1, bits.shape[1]):
            ends |= bits[1:, i] != bits[:-1, i]
        if not ends.any():
            a0, w0 = self.order(rows[0])
            return np.full(x.shape[:-1], a0), np.full(x.shape[:-1], w0)
        starts = [0] + (np.flatnonzero(ends) + 1).tolist()
        a0, w0 = np.array([self.order(rows[s]) for s in starts]).T
        sizes = [b - a for a, b in zip(starts, starts[1:] + [len(rows)])]
        return np.repeat(a0, sizes).reshape(x.shape[:-1]), np.repeat(w0, sizes).reshape(x.shape[:-1])

    def between(self, X, Y, rows: bool = False) -> PairTable:
        """The faces on the pairs (X, Y); with ``rows``, a block table whose
        axis 0 holds its rows (PairTable), which keeps a failing row's error."""
        own = self.own
        # f on the pairs (A, B); each maker also takes the entries s of one row
        made = lambda f, A, B: lambda s=None: np.asarray(f(A, B) if s is None else f(A[s], B[s]), dtype=float)
        parts = own and {"sym": made(own.k_s, X, Y), "anti": made(own.k_a, X, Y), "anti_rev": made(own.k_a, Y, X)}
        shape = (lambda: np.broadcast_shapes(X.shape[:-1], Y.shape[:-1])) if rows else None
        return PairTable(made(self.base, X, Y), made(self.base, Y, X), parts, shape)

    def table(self, x, Z, signed: bool = False) -> PairTable:
        """The faces at the base points x on offsets Z.  x is a block (P,
        ..., n) whose axis 0 holds the table's rows (PairTable), and Z takes
        part in a row when it has x's rank; a lone point (n,) raises
        ValueError.  An offset form reads both sides given one r = |z|, 0
        where x + z rounds to x as in eval(x, y), and a symmetric_hint
        split's sym face is the direct one, its anti faces zeros."""
        if signed and Z.shape[-1] == 2:
            Z = np.concatenate([Z, -Z], axis=-2)
        base, af, n, x = self.base, self.base.alpha_fn, self.base.dim, np.asarray(x, dtype=float)
        if x.ndim < 2:
            raise ValueError(f"a table takes a block of base points, not the lone point {x!r}")
        if af is None and (base.offset_eval is None or not (self.own is None or self.own.hinted)):
            return self.between(x, shifted(x, Z), True)
        Z = np.asarray(Z, dtype=float)
        r, rowed = np.sqrt(sq_norm(Z)), Z.ndim == x.ndim
        shape = lambda: np.broadcast_shapes(x.shape[:-1], Z.shape[:-1])
        # a row's entries of x (and of what has its rows), of the offsets when rowed
        at = lambda s, a, rows=False: a if s is None or not (rows or rowed) else a[s]
        if af is None:
            y = shifted(x, Z)
            # only an offset within an ulp of max|x| can leave x + z == x
            if r.size and r.min() <= 2.0 * np.spacing(np.abs(x).max()):
                r, rowed = np.where(np.all(y == x, axis=-1), 0.0, r), True
            side = lambda A, B: lambda s=None: base(at(s, A, True), at(s, B, True), r=at(s, r))
            zeros = lambda: np.zeros(shape())
            return PairTable(side(x, y), side(y, x), self.own and {"sym": "direct", "anti": zeros, "anti_rev": zeros}, shape)

        def direct(s=None):
            a0, w0 = self.orders_at(at(s, x, True))
            return w0 * at(s, r) ** (-(n + a0))

        def transposed(s=None):
            a = af(shifted(at(s, x, True), at(s, Z)))
            return weighted(a, n, lambda w: w * at(s, r) ** (-(n + a)))

        return PairTable(direct, None if af.is_constant else transposed, shape=shape)

    def among(self, pts) -> Tuple[np.ndarray, np.ndarray, PairTable]:
        """(I, J, table): the pairs i != j of the points pts (m, n), laid out
        as np.where(~eye(m)), and between(pts[J], pts[I]) on them, except that
        each pair is evaluated once (a stable-like order, constant or not, once
        per point) unless part closures of a kernel with no order replace the
        halves.  On a fault (the diagonal, a negative or NaN value, an error)
        the table is between's, which raises what its two sides raise."""
        base, af, n, m = self.base, self.base.alpha_fn, self.base.dim, len(pts)
        I, J = np.where(~np.eye(m, dtype=bool))
        XJ, XI = pts[J], pts[I]

        def once():
            if af is None:
                return base(XJ, XI)
            a, r = af(pts), np.sqrt(sq_norm(XJ - XI))
            d = weight_w(a, n)[J] * r ** (-(n + a[J]))
            return d if np.all((r > 0.0) & (d >= 0.0)) else None

        d = None if self.own is not None and af is None else attempt(once)
        if d is None or isinstance(d, Exception):
            return I, J, self.between(XJ, XI)
        # the mirror (j, i) of pair (i, j) is entry j (m - 1) + i, less one when i > j
        perm = J * (m - 1) + np.where(I < J, I, I - 1)
        return I, J, PairTable(lambda: d, lambda: d[perm])


def weighted(a, n: int, then):
    """then(weight_w(a, n)); on an order error, the rows whose orders lie in
    (0, 2) keep their values, then(exc.values) (by_rows)."""
    try:
        return then(weight_w(a, n))
    except DomainError as exc:
        if getattr(exc, "bad", None) is not None:
            exc.values = then(exc.values)
        raise


def shifted(x, Z) -> np.ndarray:
    """The points x + Z (broadcast), stored coordinate by coordinate.

    The sums are those of x + Z, but in 2D each coordinate is one contiguous
    plane, so that functions of the points that reduce over their last axis
    (|y - c| and the like) run over whole planes instead of pairs.
    """
    x = np.asarray(x, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if x.shape[-1] == 1:
        return x + Z
    shape = np.broadcast_shapes(x.shape, Z.shape)
    out = np.empty(shape[-1:] + shape[:-1])
    np.add(np.moveaxis(np.broadcast_to(x, shape), -1, 0), np.moveaxis(np.broadcast_to(Z, shape), -1, 0), out=out)
    return np.moveaxis(out, 0, -1)


@dataclass
class Face:
    """A one-sided view of a kernel as a function of the offset z at base x:
    ``read`` takes it from a PairTable of ``pairs`` on the pairs (x, x + z)."""

    dim: int
    read: Callable  # PairTable -> values
    stable_kind: Optional[str]  # 'direct' | 'transposed' | None
    af: Optional[AlphaFunction]
    z_support: Optional[float]
    tail_amp: Optional[float]
    tail_q: Optional[float]
    combo: Optional[Tuple[Tuple[float, "Face"], ...]] = None
    label: str = "face"
    pairs: Optional[KernelPairs] = None

    def block(self, X, Z, rows=None):
        """(values, errors by row) of the face at base points X broadcast
        against the offsets Z (PairTable.result)."""
        return self.pairs.table(X, Z).result(self.read, rows)


def faces_of(base: JumpKernel, sk: Optional[SplitKernel] = None):
    """Direct/transposed/symmetric/antisymmetric faces of a kernel.

    Face ``kind`` at (x, Z) is column ``kind`` of the PairTable there:
    direct k(x, x+z), transposed k(x+z, x), and the halves sym, anti and
    anti_rev (or the part closures of sk, see KernelPairs), and for a
    generic kernel kappa_far.  The faces share one KernelPairs, so a far
    mass one of them needs is computed once for all of them.
    """
    pairs = KernelPairs(base, sk)
    af = base.alpha_fn
    meta = dict(z_support=base.z_support, tail_amp=base.tail_amplitude, tail_q=base.tail_exponent, pairs=pairs)

    def face(kind, combo=None):
        stable_kind = kind if af is not None and combo is None else None
        return Face(base.dim, itemgetter(kind), stable_kind, af, combo=combo, label=kind, **meta)

    direct, transp = face("direct"), face("transposed")
    anti_rev = face("anti_rev", ((0.5, transp), (-0.5, direct)))
    faces = {
        "direct": direct,
        "transposed": transp,
        "sym": face("sym", ((0.5, direct), (0.5, transp))),
        "anti": face("anti", ((0.5, direct), (-0.5, transp))),
        "anti_rev": anti_rev,
    }
    if af is None:
        # kappa's far piece, 2 anti_rev, made here so that every kappa_partials block of this set shares its far masses
        amp = 2.0 * anti_rev.tail_amp if anti_rev.tail_amp else None
        faces["kappa_far"] = replace(anti_rev, read=lambda tab: 2.0 * anti_rev.read(tab), combo=None, tail_amp=amp, label="kappa_far")
    return faces


# ---------------------------------------------------------------------------
# far field
# ---------------------------------------------------------------------------


# Kernels whose alpha keeps varying far out (periodic profiles) oscillate on
# a fixed length scale, so geometric panels stop resolving them past here and
# octave masses switch to stratified distribution sampling instead.
_FAR_RESOLVE = 64.0
_OSC_WIDTH = 4.0
# R2 low-discrepancy increments: irrational cell offsets never resonate with
# an oscillation period, unlike the Gauss nodes of a huge panel
_PHI1 = 0.7548776662466927
_PHI2 = 0.5698402909980532


def band_value_far(fn, dim: int, lo, hi, scheme, oscillatory: bool, X):
    """One far-field band per base point, robust to unresolvable oscillation.

    Monotone-tail faces use ordinary Gauss panels (width-capped while the
    band is still resolvable).  Oscillatory faces beyond _FAR_RESOLVE sample
    the band on a stratified lattice with low-discrepancy phase jitter: the
    estimate converges to the distribution average of the oscillation, which
    is what the integral equals up to O(1/m), and it is smooth in the band
    index so geometric remainder extrapolation stays valid.

    X (P, n) are the base points and lo, hi (P,) their bands.  fn(Xb, Z,
    rows) takes base points Xb that broadcast against the offsets Z, whose
    axis 0 holds the entries of rows (a table's rows, PairTable; each entry
    its own row when rows is None), and must act row by row: it receives
    the +z and -z samples in one batch.  It gives its integrands, each as
    (values, errors by row), read from one table.  A list of the P band
    values comes back, each the tuple of the point's integrals, bitwise
    those of the point on its own, or the first error the point meets there.
    """
    rows = [p for p, b in enumerate(hi) if b > _FAR_RESOLVE] if oscillatory else []
    if not rows:
        return _gauss_bands(fn, dim, X, lo, hi, scheme, oscillatory)
    out = [None] * len(X)
    if len(rows) < len(X):
        gauss = [p for p, b in enumerate(hi) if b <= _FAR_RESOLVE]
        bands = _gauss_bands(fn, dim, X[gauss], [lo[p] for p in gauss], [hi[p] for p in gauss], scheme, True)
        for p, v in zip(gauss, bands):
            out[p] = v
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    # at most _PAIR_BLOCK pairs per fn call
    step = max(1, _PAIR_BLOCK // (64 * scheme.nodes_per_annulus))
    for c in range(0, len(rows), step):
        r = rows[c : c + step]
        vals, errors = _stratified(fn, X[r][:, None, :], dim, lo[r], hi[r], scheme)
        for i, p in enumerate(r):
            out[p] = errors[i] if i in errors else tuple(v[i] for v in vals)
    return out


def _stratified(fn, Xb, dim: int, lo, hi, scheme):
    """The stratified estimates of band_value_far at the base points Xb
    (k, 1, n) on their bands [lo, hi] (arrays (k,)): (one list of k per
    integrand of fn, errors by row)."""
    t, theta = _strata(32 * scheme.nodes_per_annulus)
    r = lo[..., None] + t * (hi - lo)[..., None]
    z = r[..., None] if dim == 1 else np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    parts = list(fn(Xb, np.concatenate([z, -z], axis=-2), None))
    errors: dict = {}
    # a row's first error, in the order of the integrands
    for _, e in reversed(parts):
        errors.update(e)
    out, m = [], len(t)
    for v, _ in parts:
        # fn(z) + fn(-z), then np.mean's sum and division without its per-call overhead
        v = np.asarray(v, dtype=float)
        vals = 0.5 * (v[..., :m] + v[..., m:])
        if dim == 1:
            out.append((2.0 * (hi - lo) * (np.add.reduce(vals, axis=-1) / m)).tolist())
        else:
            out.append((TWO_PI * (hi - lo) * (np.add.reduce(vals * r, axis=-1) / m)).tolist())
    return out, errors


@lru_cache(maxsize=None)
def _strata(m: int):
    """The m stratified radial fractions t and angles theta of _stratified,
    read-only since every call shares them."""
    i = np.arange(m, dtype=float)
    t, theta = (i + np.mod(i * _PHI1, 1.0)) / m, TWO_PI * np.mod(i * _PHI2, 1.0)
    t.flags.writeable = theta.flags.writeable = False
    return t, theta


def _gauss_bands(fn, dim: int, X, lo, hi, scheme, oscillatory: bool) -> list:
    """The integrals of fn's integrands on [lo_p, hi_p] at each base point
    X_p (panels capped at _OSC_WIDTH on a wide band of an oscillatory face),
    the points' node sets stacked into fn(Xb, Z, rows) calls of at most
    _PAIR_BLOCK pairs (set_integrals): a tuple of sums per point, or the
    first error the point meets."""
    # points marching from a shared radius share each band's node set
    cap = lambda a, b: _OSC_WIDTH if (oscillatory and b - a > _OSC_WIDTH) else None
    made = {(a, b): make_nodes(dim, a, b, scheme, cap(a, b)) for a, b in dict.fromkeys(zip(lo, hi))}
    sets = [made[band] for band in zip(lo, hi)]
    sums = set_integrals(lambda rows, Z, of: fn(X[rows], Z, of), range(len(sets)), sets, _PAIR_BLOCK)
    return [next((e for e in v if isinstance(e, Exception)), v) for v in sums]


def octave_extend(fn, dim: int, R, scheme, oscillatory: bool, step, cut: float, X, support: Optional[float] = None):
    """Sums over the octaves [R g^i, R g^(i+1)], g = scheme.growth, until the rest is negligible.

    The base points X (P, n) march in lockstep from their own radii R[p]:
    every octave is one band_value_far call of fn on the points still
    marching.  After each octave, ``step(s, prev, rn)`` gives (value, bound)
    from a point's octave value s and its previous one prev (None after the
    first), rn being the octave's outer radius: value is added to the
    point's total, and the point stops once bound, on what the total still
    leaves out, is below cut; s and prev are band_value_far's tuples.
    Returns three lists (totals, bounds, oks), each entry bitwise what its
    point gives on its own; ok is False where 240 octaves left the bound at
    or above cut.  A point that meets an error in a band leaves the march
    with it, in all three places.

    fn vanishes beyond a declared ``support``: a point inside it takes the
    one Gauss band [R[p], support], whose first integral is its total (bound
    0), and a point at or beyond it the total 0, so nothing marches.
    """
    n = len(X)
    if support is not None:
        total, bound, ok = [0.0] * n, [0.0] * n, [True] * n
        inside = [p for p, r in enumerate(R) if r < support]
        lo, hi = [float(R[p]) for p in inside], [support] * len(inside)
        for p, v in zip(inside, _gauss_bands(fn, dim, X[inside], lo, hi, scheme, False)):
            if isinstance(v, Exception):
                total[p] = bound[p] = ok[p] = v
            else:
                total[p] = v[0]
        return total, bound, ok
    total, prev, bound, ok = [0.0] * n, [None] * n, [np.inf] * n, [False] * n
    active = list(range(n))
    lo = [float(r) for r in R]
    for _ in range(240):
        hi = [r * scheme.growth for r in lo]
        s = band_value_far(fn, dim, lo, hi, scheme, oscillatory, X)
        keep = []
        for i, (p, sp, r) in enumerate(zip(active, s, hi)):
            if isinstance(sp, Exception):
                total[p] = bound[p] = ok[p] = sp
                continue
            value, bound[p] = step(sp, prev[p], r)
            total[p] += value
            if bound[p] < cut:
                ok[p] = True
            else:
                prev[p] = sp
                keep.append(i)
        if not keep:
            break
        if len(keep) < len(active):
            active = [active[i] for i in keep]
            X, hi = X[keep], [hi[i] for i in keep]
        lo = hi
    return total, bound, ok


def _far_numeric(face: Face, X, R, scheme, cut: float):
    """Annulus extension of the far integrals of a (signed) face beyond R.

    The base points X (P, n), each with its own radius R[p], march as one
    block (octave_extend), which stops at the face's declared support.  The
    remainder is bounded by the face's tail metadata, by geometric
    extrapolation of decaying octaves, or, for a face that vanishes
    identically and has no metadata, by zero.  Returns three lists (values,
    bounds, oks), one entry per point, or the error the point meets, in all
    three.
    """
    sig = _sigma(face.dim)

    def step(s, prev, rn):
        # one integrand: a band value is the 1-tuple of its mass
        (s,), prev = s, prev and prev[0]
        bound = np.inf
        if face.tail_amp is not None and face.tail_q is not None:
            bound = face.tail_amp * sig * rn ** (-face.tail_q) / face.tail_q
        if prev is not None and abs(prev) > 0 and abs(s) <= 0.9 * abs(prev):
            rho = min(abs(s) / abs(prev) * 1.2, 0.95)
            bound = min(bound, abs(s) * rho / (1.0 - rho))
        if abs(s) == 0.0 and (prev is None or abs(prev) == 0.0) and bound is np.inf:
            bound = 0.0  # identically vanishing face with no metadata
        return s, bound

    band = lambda Xb, Z, rows: (face.block(Xb, Z, rows),)
    oscillatory = face.af is not None and not face.af.is_constant
    total, bound, ok = octave_extend(band, face.dim, R, scheme, oscillatory, step, cut, X, face.z_support)
    return total, [b if isinstance(b, Exception) else float(b) for b in bound], ok


def _far_route(face: Face) -> str:
    """How far_masses resolves a face: 'closed' (a power law at fixed x: the
    direct face, or a constant order's transposed one), 'combo' (the sum over
    its parts: a constant order's anti is exactly 0) or 'march' (_far_numeric)."""
    af = face.af
    if af is not None and (face.stable_kind == "direct" or face.stable_kind == "transposed" and af.is_constant):
        return "closed"
    return "combo" if face.combo is not None else "march"


def _far_closed(face: Face, x, R: float):
    """The closed-form far mass of a power-law face at one base point x."""
    a0, w0 = face.pairs.order(x)
    return w0 * _sigma(face.dim) * R ** (-a0) / a0, 0.0, True


def _far_sum(parts):
    """A composite face's far mass from its parts' entries (c, entry), in
    order; the first part's error is the sum's."""
    val, bound, ok = 0.0, 0.0, True
    for c, entry in parts:
        if isinstance(entry, Exception):
            return entry
        v, b, o = entry
        val += c * v
        bound += abs(c) * b
        ok = ok and o
    return val, bound, ok


def far_masses(face: Face, X, R, scheme) -> list:
    """The integrals of the face over |z| > R[p] at the base points X (P, n):
    one entry per point, (value, bound, ok), or the error the point meets.

    Exact for power-law kernels, point by point; composite faces combine
    their parts' entries, so that, e.g., the symmetric far mass is bitwise
    0.5*(direct + transposed).  Any other face marches its points as one
    lockstep block (_far_numeric).  A face of faces_of keeps each marched
    mass, or the error its march met, per (x, R, scheme) for the life of its
    faces, so faces that share a part share its march; a kept error is
    handed out as a copy, so that no raise hangs its frames on it.
    """
    route = _far_route(face)
    if route == "closed":
        return [attempt(lambda: _far_closed(face, x, r)) for x, r in zip(X, R)]
    if route == "combo":
        parts = [(c, far_masses(sub, X, R, scheme)) for c, sub in face.combo]
        return [_far_sum((c, entries[p]) for c, entries in parts) for p in range(len(X))]
    far = face.pairs.far if face.pairs is not None else {}
    keys = [(face.read, np.asarray(x, dtype=float).tobytes(), r, scheme) for x, r in zip(X, R)]
    todo = {key: (x, r) for key, x, r in zip(keys, X, R) if key not in far}
    if todo:
        pts = np.array([x for x, _ in todo.values()], dtype=float)
        marched = _far_numeric(face, pts, [r for _, r in todo.values()], scheme, max(scheme.tol_abs * 0.01, 1e-15))
        # an error is kept without the frames it was raised through, which
        # would hold the march's arrays
        far.update((key, m[0].with_traceback(None) if isinstance(m[0], Exception) else m) for key, m in zip(todo, zip(*marched)))
    return [copy.copy(far[key]) if isinstance(far[key], Exception) else far[key] for key in keys]


def far_mass(face: Face, x, R: float, scheme):
    """far_masses at one base point x: (value, bound, ok), or the error raised."""
    return unwrap(far_masses(face, np.asarray(x, dtype=float).reshape(1, -1), [R], scheme)[0])


# ---------------------------------------------------------------------------
# closed forms for power-law kernels near z = 0
# ---------------------------------------------------------------------------


@dataclass
class StableLocal:
    """Local data of a stable-like kernel at a base point: order, weight, derivatives."""

    dim: int
    x: np.ndarray
    a0: float
    w0: float
    ga: np.ndarray  # gradient of alpha
    la: float  # laplacian of alpha
    gw: np.ndarray  # gradient of w(alpha(x))
    lw: float  # laplacian of w(alpha(x))


def stable_local(af: AlphaFunction, x, h: float = 1e-4) -> list:
    """StableLocal at every row of a block x (P, n): a list with each point's
    own, or the error it meets on its own.

    The order is read at the points and at their finite-difference
    neighbours only, one af call per stencil point for the whole block, and
    every weight w(alpha) there from one weight_w call, which gives each
    order the bits it has alone; the rest is scalar arithmetic per point, as
    for a point on its own.
    """
    n = af.dim
    x = np.asarray(x, dtype=float)
    count = len(x)

    def orders(s=None):
        # the order at x, then at x + h e and x - h e along each axis, one row per point
        xs = x if s is None else x[s]
        out = np.empty((len(xs), 2 * n + 1))
        out[:, 0] = af(xs)
        for axis in range(n):
            e = np.zeros(n)
            e[axis] = 1.0
            out[:, 2 * axis + 1] = af(xs + h * e)
            out[:, 2 * axis + 2] = af(xs - h * e)
        return out

    def derivatives(s=None):
        # alpha's gradient and Laplacian: af's d1 and the trace of its d2, else
        # AlphaFunction.grad and hess at h, from the orders the stencil read
        xs, As = (x, a) if s is None else (x[s], a[s])
        up, down = As[:, 1::2], As[:, 2::2]
        g = af.grad(xs) if af.d1 is not None else (up - down) / (2.0 * h)
        lap = ((up - 2.0 * As[:, :1] + down) / h**2).sum(axis=1) if af.d2 is None else np.trace(af.hess(xs), axis1=-2, axis2=-1)
        return np.column_stack([np.reshape(g, (len(xs), n)), lap])

    a, e_a = by_rows(orders, (count, 2 * n + 1))
    ws, e_w = by_rows(lambda s=None: weight_w(a if s is None else a[s], n), a.shape)
    d, e_d = by_rows(derivatives, (count, n + 1))
    # a point's first error, in the order of the three arrays
    errors = {**e_d, **e_w, **e_a}

    def local(i):
        w0, *wpm = ws[i].tolist()
        gw = np.empty(n)
        lw = 0.0
        for axis in range(n):
            wp, wm = wpm[2 * axis], wpm[2 * axis + 1]
            gw[axis] = (wp - wm) / (2.0 * h)
            lw += (wp - 2.0 * w0 + wm) / h**2
        return StableLocal(n, x[i], float(a[i, 0]), w0, d[i, :n].copy(), float(d[i, n]), gw, float(lw))

    return each_row(local, range(count), errors)


def log_power_int(p: float, lo: float, hi: float):
    """(I0, I1, I2) = integrals of t^p {1, ln t, ln^2 t} over [lo, hi], p > -1."""
    if p <= -1.0:
        raise DomainError("log_power_int requires exponent p > -1")
    q = p + 1.0

    def F(t):
        if t == 0.0:
            return 0.0, 0.0, 0.0
        tq = t**q
        lt = math.log(t)
        return tq / q, tq * (lt / q - 1.0 / q**2), tq * (lt * lt / q - 2.0 * lt / q**2 + 2.0 / q**3)

    f0h, f1h, f2h = F(hi)
    f0l, f1l, f2l = F(lo)
    return f0h - f0l, f1h - f1l, f2h - f2l


def stable_pair_defect(loc: StableLocal, lo: float, hi: float) -> float:
    """Closed form for the small-|z| integral of j(x+z, x) - j(x, x+z).

    Valid for lo <= hi <= S_INNER-scale radii; the error is
    O(hi^(4-a0) log^4 hi).
    """
    A = loc.lw
    B = -(2.0 * float(loc.gw @ loc.ga) + loc.w0 * loc.la)
    C = loc.w0 * float(loc.ga @ loc.ga)
    i0, i1, i2 = log_power_int(1.0 - loc.a0, lo, hi)
    val = A * i0 + B * i1 + C * i2
    return val if loc.dim == 1 else (math.pi / 2.0) * val


def stable_drift_smallz(loc: StableLocal, lo: float, hi: float) -> np.ndarray:
    """Closed form for the small-|z| vector integral of z (j(x+z, x) - j(x-z, x))."""
    i0, i1, _ = log_power_int(1.0 - loc.a0, lo, hi)
    vec = loc.gw * i0 - loc.w0 * loc.ga * i1
    return 4.0 * vec if loc.dim == 1 else TWO_PI * vec


def stable_anti_inner(loc: StableLocal, gu: np.ndarray, lo: float, hi: float) -> float:
    """Closed form for the small-|z| integral of (grad u . z) k_a(x, x+z).

    The opposite orientation k_a(x+z, x) is minus this value.
    """
    i0, i1, _ = log_power_int(1.0 - loc.a0, lo, hi)
    val = float(gu @ loc.gw) * i0 - loc.w0 * float(gu @ loc.ga) * i1
    c = 1.0 if loc.dim == 1 else math.pi / 2.0
    return -c * val


def stable_comp_inner(loc: StableLocal, trH: float, d4: float, s: float):
    """Closed form for the compensated integral over |z| <= s against w0 |z|^(-n-a0).

    Returns (value, residual_bound).  In 1D the quartic Taylor term is added
    as a correction; in 2D it is only reported as a bound.  trH is the trace
    of u's Hessian at the base point and d4 its fourth difference there
    (GridFunction.fourth_along).
    """
    if loc.dim == 1:
        lead = trH * loc.w0 * s ** (2.0 - loc.a0) / (2.0 - loc.a0)
        corr = d4 * loc.w0 * s ** (4.0 - loc.a0) / (12.0 * (4.0 - loc.a0))
        bound = abs(corr) * 1e-2 + abs(d4) * loc.w0 * s ** (6.0 - loc.a0)
        return lead + corr, bound
    lead = 0.5 * trH * loc.w0 * math.pi * s ** (2.0 - loc.a0) / (2.0 - loc.a0)
    bound = abs(d4) * loc.w0 * math.pi * s ** (4.0 - loc.a0) / (4.0 - loc.a0)
    return lead, bound


# ---------------------------------------------------------------------------
# oscillatory tails
# ---------------------------------------------------------------------------


def osc_cos_tail(R: float, a: float, xi: float):
    """E_c = integral of cos(xi r) r^(-a) over [R, inf), a > 1.

    Computed by repeated integration by parts; the returned error bound is
    the magnitude of the first neglected term.  Accurate once xi*R is a few
    multiples of a.
    """
    if a <= 1.0:
        raise DomainError("osc_cos_tail requires decay exponent a > 1")
    if xi == 0.0:
        return R ** (1.0 - a) / (a - 1.0), 0.0
    xi = abs(xi)
    total = 0.0
    mult = 1.0
    kind = "c"
    aa = a
    prev_bound = np.inf
    bound = np.inf
    for _ in range(40):
        if kind == "c":
            total += mult * (-math.sin(xi * R) * R**-aa / xi)
            mult *= aa / xi
            kind = "s"
        else:
            total += mult * (math.cos(xi * R) * R**-aa / xi)
            mult *= -(aa / xi)
            kind = "c"
        aa += 1.0
        bound = abs(mult) * min(R ** (1.0 - aa) / (aa - 1.0), 2.0 * R**-aa / xi)
        if bound < 1e-18 or bound > prev_bound:
            break
        prev_bound = bound
    return total, bound


# ---------------------------------------------------------------------------
# generic-kernel inner shells
# ---------------------------------------------------------------------------


def plan_inner_shells(pairs: KernelPairs, u: GridFunction, x, s0: float, scheme, add=None):
    """Dyadic shells below s0 for compensated/drift/antisymmetric integrands.

    The shell depth depends only on the kernel's parts (the symmetric part
    dominates every face pointwise) and on the test function, so every
    generator face shares the same node sets.  The walk is _walk_shells on
    signed tables, each read here by a joint stopping rule on three metrics
    and then by add(ns, Z, rows, table, ok), if given, which takes the shell
    into the generator sums of the points that walked it (those at the
    positions ok of rows, the indices into x of the table's rows) while the
    table lives, keeping any error of those sums to itself; it stops with
    NoConvergence at the floating-point floor of the base point.  shells
    are the node sets built, outward in.

    The points of the block x (P, n) walk one set of shells, each point with
    its own floor, shell count, metric sums, stop rule and bounds.  It
    returns (shells, plans), plans[p] being the (shell count, bounds dict)
    of point p, or the error it meets on its own.
    """
    X = np.asarray(x, dtype=float)
    M2 = u.hess_sup()
    G = u.grad(X).reshape(len(X), u.dim)
    gs = [np.linalg.norm(g) + 1e-300 for g in G]
    tol = 0.25 * scheme.tol_abs

    # below a few ulps of the base point, x + Z collapses onto x and generic
    # closures see radius zero; treating those evaluations as real decay
    # would accept divergent integrals, so a point's descent stops at the
    # first shell whose outer radius is at that floor
    floors = [8.0 * float(np.max(np.abs(xp))) * 2.0**-52 for xp in X]
    counts = [next((i for i in range(80) if s0 * 2.0**-i <= f), 80) for f in floors]
    prevs: list = [None] * len(X)
    plans: list = [None] * len(X)

    def stop(p, i, sums):
        # the joint stop rule of point p after shell i, whose metric sums are sums
        prev, prevs[p] = prevs[p], sums
        if i == 0:
            return False
        prev, cur = np.array(prev), np.array(sums)
        if np.all(cur == 0.0) and np.all(prev == 0.0):
            plans[p] = (i + 1, {"comp": 0.0, "drift": 0.0, "anti": 0.0})
            return True
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(prev > 0, cur / prev, 0.0)
        if np.all(cur <= 0.9 * np.maximum(prev, 1e-300)) or np.all(cur < tol * 1e-6):
            rho = min(float(np.max(ratios)) * 1.2, 0.95)
            tails = cur * rho / (1.0 - rho)
            bounds = {"comp": 0.5 * M2 * tails[0], "drift": 0.5 * gs[p] * tails[1], "anti": (np.max(np.abs(G[p])) + 1.0) * tails[2]}
            if max(bounds.values()) < tol:
                plans[p] = (i + 1, bounds)
        return plans[p] is not None

    def read(i, ns, Z, rows, tab):
        # second moment of k_s, first moments of the drift difference and of
        # k_a, summed for each point of the chunk, then each point's stop rule
        m = ns.count
        ks, ka = tab["sym"][..., :m], tab["anti"][..., :m]
        r = np.sqrt(sq_norm(Z))
        m2 = sq_norm(Z) * ks
        m1d = r * (np.abs(ks - tab.minus("sym")[..., :m]) + np.abs(ka - tab.minus("anti")[..., :m]))
        m1a = r * np.abs(ka)
        sums = each_row(lambda row: tuple(map(ns.integrate_values, row)), zip(m2, m1d, m1a), tab.faults(("sym", "anti")))
        ok = [k for k, sp in enumerate(sums) if not isinstance(sp, Exception)]
        if add is not None and ok:
            # add takes the shell for the points that walked it
            add(ns, Z, rows, tab, ok)
        return [sp if isinstance(sp, Exception) else stop(p, i, sp) for p, sp in zip(rows.tolist(), sums)]

    errors, shells = _walk_shells(pairs, X, s0, scheme, counts, read, True)
    for p, count in enumerate(counts):
        if errors[p] is not None:
            plans[p] = errors[p]
        elif plans[p] is None:
            plans[p] = NoConvergence(
                "inner shells reached the floating-point resolution of the base point before the near-diagonal masses decayed"
                if count < 80
                else "inner shells did not decay: the kernel is too singular near the diagonal for the compensated integral"
            )
    return shells, plans


# ---------------------------------------------------------------------------
# operator point engine
# ---------------------------------------------------------------------------


def _outer_region(u: GridFunction, x, loc: Optional[StableLocal], scheme):
    """(R_out, panel width cap) of the panels between r_break and the tail.

    For a compactly supported u, R_out covers the support seen from x.  For
    a plane wave of frequency xi, R_out lies far enough out for the
    integration-by-parts tail to be accurate, and panels are capped at a
    quarter period; loc is the power-law data at x.
    """
    if u.trig is None:
        dist = float(np.linalg.norm(np.asarray(x, dtype=float) - u.center))
        r_needed = dist + float(u.support_radius if u.support_radius is not None else u.box.radius)
        if r_needed > scheme.r_max:
            raise DomainError(
                f"support of {u.label!r} reaches |z| ~ {r_needed:.3g}, beyond r_max={scheme.r_max}; increase r_max"
            )
        return max(scheme.r_break, r_needed), None
    xi = u.trig[0]
    if xi == 0.0:
        return 8.0 * scheme.r_break, None
    return max(8.0 * scheme.r_break, 2.0 * (loc.a0 + 10.0) / abs(xi)), _panel_cap(u)


def _panel_cap(u: GridFunction) -> Optional[float]:
    """The panel width cap of _outer_region, which depends on u alone."""
    xi = u.trig[0] if u.trig is not None else 0.0
    return math.pi / (2.0 * abs(xi)) if xi != 0.0 else None


def anti_integral(sk: SplitKernel, faces, kind: str, u: GridFunction, x, scheme):
    """Integral of (u(x+z) - u(x)) times face ``kind``, 'anti' or 'anti_rev'.

    Absolutely convergent; power-law kernels take the ball |z| <= S_INNER in
    closed form, where k_a(x+z, x) = -k_a(x, x+z).  At the block x (P, n) it
    gives a list with each point's value, or the error it meets on its own
    (plain_truncated).
    """
    X = np.asarray(x, dtype=float)
    if sk.base.alpha_fn is not None:
        s_in = min(S_INNER, scheme.r_break)
        locs = stable_local(sk.base.alpha_fn, X)
        G = u.grad(X).reshape(len(X), u.dim)

        def inner(p):
            val = stable_anti_inner(unwrap(locs[p]), G[p], 0.0, s_in)
            return -val if kind == "anti_rev" else val

        inners = [attempt(lambda: inner(p)) for p in range(len(X))]
    else:
        s_in = scheme.eps_min
        inners = [0.0] * len(X)
    bands = plain_truncated(faces[kind], u, X, s_in, scheme)
    return [attempt(lambda: unwrap(i) + unwrap(b)[0]) for i, b in zip(inners, bands)]


def _add_tail(val, far, u: GridFunction, R: float, loc: Optional[StableLocal], ux: float, diag: dict):
    """val plus the integral of (u(x+z) - u(x)) * face over |z| > R; its bound goes to diag.

    A plane wave's tail is the closed form of osc_cos_tail against the power
    law at x.  Otherwise u vanishes beyond R and the tail is -u(x) times the
    face's far mass, far, the point's entry of far_masses: nothing is added
    when u(x) == 0 (so a -0.0 stays -0.0), and an unresolved far mass raises
    NoConvergence, so that the caller flags the point instead of passing the
    value as resolved.
    """
    if u.trig is not None:
        ec, ec_err = osc_cos_tail(R, 1.0 + loc.a0, u.trig[0])
        diag["tail_bound"] = 2.0 * loc.w0 * ec_err
        return val + 2.0 * loc.w0 * ux * (ec - R ** (-loc.a0) / loc.a0)
    if ux == 0.0:
        diag["tail_bound"] = 0.0
        return val
    fm, fb, ok = unwrap(far)
    if not ok:
        raise NoConvergence(
            f"far tail beyond |z| = {R:.3g} did not resolve (bound {abs(ux) * fb:.3g} above tolerance)"
        )
    diag["tail_bound"] = abs(ux) * fb
    diag["tail_ok"] = True
    return val + -ux * fm


GENERATOR_FACES = ("direct", "transposed", "sym")


def generator_kinds(base: JumpKernel, u: GridFunction, which) -> tuple:
    """The faces ``which`` names, checked against the kernel and u: the
    argument errors of a generator request, the same at every point."""
    kinds = (which,) if isinstance(which, str) else tuple(which)
    for kind in kinds:
        if kind not in GENERATOR_FACES:
            raise DomainError(f"unknown generator face {kind!r}")
    if u.dim != base.dim:
        raise DomainError("dimension mismatch between kernel, function and point")
    if u.trig is not None and not (base.alpha_fn is not None and base.dim == 1 and set(kinds) == {"direct"}):
        raise DomainError("plane waves are only supported against 1D power-law kernels (direct face)")
    return kinds


def generator_point(
    base: JumpKernel,
    u: GridFunction,
    x,
    scheme,
    which,
    *,
    sk: Optional[SplitKernel] = None,
):
    """Point evaluations of the generator pieces selected by ``which``.

    which = 'direct'      : compensated + drift against j(x, x+z)      (the operator L)
    which = 'transposed'  : same against j(x+z, x)                      (the dual)
    which = 'sym'         : same against the symmetric part             (the symmetrised operator)

    One name gives (value, diagnostics dict); a sequence of names gives a
    list of such pairs, in its order, from one node pass.  All faces share
    panel geometry, shell depths and inner switch radii, which depend only on
    the kernel's parts and on u, and each node set's PairTable is evaluated
    once for all of them; their values therefore differ exactly by the
    kernel-face identities at the shared nodes.  This is generator_block on
    the block of one point.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    return unwrap(generator_block(base, u, x[None], scheme, which, sk=sk)[0])


def _mid_nodes(base: JumpKernel, u: GridFunction, scheme):
    """(s_in, node set on [s_in, r_break]): the inner switch radius and the
    mid node set of a generator evaluation, the same at every base point."""
    s_in = min(S_INNER if base.alpha_fn is not None else 1e-2, scheme.r_break)
    return s_in, make_nodes(base.dim, s_in, scheme.r_break, scheme, _panel_cap(u), base.z_support)


def _comp_diff(u: GridFunction, X, UX, GX, HX, Z) -> np.ndarray:
    """The compensated differences u(x+z) - u(x) - grad u(x).z 1_{|z|<=1} at
    every base point x of X on the shared offsets Z, one row per point; below
    R_QUAD the quadratic Taylor form replaces the cancelling difference.
    UX, GX and HX are u, its gradient and its Hessian at the points."""
    r2 = sq_norm(Z)
    U = u(shifted(X[:, None, :], Z)) - np.asarray(UX)[:, None]
    # one product Z @ gx per point: a product over the block may round differently
    raw = U - np.stack([Z @ gx for gx in GX])
    if np.any(r2 < R_QUAD**2):
        for i in range(len(X)):
            quad = 0.5 * np.einsum("...i,ij,...j->...", Z, HX[i], Z)
            raw[i] = np.where(r2 < R_QUAD**2, quad, raw[i])
    # compensator only acts inside the unit ball
    return np.where(r2 <= 1.0, raw, U)


def generator_block(
    base: JumpKernel,
    u: GridFunction,
    X,
    scheme,
    which,
    *,
    sk: Optional[SplitKernel] = None,
) -> list:
    """generator_point at every row of X (P, n), as a list in row order.

    Every node-level quantity is one (points x nodes) array: u(x + z), both
    one-sided kernel values and the compensated and drift integrands, on the
    inner shells (summed inside their walk), the mid node set (shared, in
    chunks of block_size points; read at +z alone when every face is a power
    law's even direct face, which has no drift integrand) and the points' own
    outer sets (stacked, set_integrals, their panels built once per call), so
    no table grows with the block; the mid and outer sets are split at the
    kernel's declared support.  Sums over nodes, inner balls, tails and
    everything else scalar stay per point, with the calls and the order of
    operations of a point on its own, so each point's values and diagnostics
    are bitwise those of its generator_point call whatever block it is in.
    So is its error: every stage keeps a point's error in its place, a point
    that fails before the mid set is left out of the later stages, and a
    point's entry is the first error it meets in the order a point on its
    own meets them.
    """
    kinds = generator_kinds(base, u, which)
    X = np.asarray(X, dtype=float)
    dim = base.dim
    if X.ndim != 2 or X.shape[1] != dim:
        raise DomainError("dimension mismatch between kernel, function and point")

    stable = base.alpha_fn is not None
    if not stable and sk is None:
        sk = split(base)  # the shell metric reads the parts split gives
    faces = faces_of(base, sk)
    pairs = faces["direct"].pairs
    # u, its gradient and its Hessian at the points, one call each
    UX = u(X).tolist()
    GX = u.grad(X).reshape(len(X), dim)
    HX = u.hess(X).reshape(len(X), dim, dim)

    # a power law's direct face is even in z: its drift integrand is exactly 0, neither formed nor summed
    even = [stable and kind == "direct" for kind in kinds]

    def face_values(rows, Z, tab):
        # each face's compensated and drift integrands at the points rows
        # (indices into X) on the table of their offsets Z, with its errors
        comp_z = _comp_diff(u, X[rows], np.asarray(UX)[rows], GX[rows], HX[rows], Z)
        out = []
        for kind, ev in zip(kinds, even):
            k = tab[kind][..., : len(Z)]
            out.append(((comp_z * k, None if ev else Z * (k - tab.minus(kind)[..., : len(Z)])[..., None]), tab.faults((kind,))))
        return out

    def face_sums(ns, v, j):
        # the compensated and drift sums on ns of row j of a face's values v
        (cv, dv), errors = v
        unwrap(errors.get(j))
        return ns.integrate_values(cv[j]), np.zeros(dim) if dv is None else np.atleast_1d(ns.integrate_values(dv[j]))

    # --- region bounds and inner balls -------------------------------------
    locs = stable_local(base.alpha_fn, X) if stable else [None] * len(X)
    inner = list(locs)
    R_outs: list = [None] * len(X)
    for i, (x, loc) in enumerate(zip(X, locs)):
        if not isinstance(loc, Exception):
            if stable:
                pairs.orders[x.tobytes()] = (loc.a0, loc.w0)
            R_outs[i] = inner[i] = attempt(lambda: _outer_region(u, x, loc, scheme)[0])
    s_in, ns_mid = _mid_nodes(base, u, scheme)
    live = [i for i, r in enumerate(R_outs) if r is not None and not isinstance(r, Exception)]
    if stable:
        trH = np.trace(HX, axis1=1, axis2=2).tolist()
        d4 = u.fourth_along(X, hess_x=HX).tolist()
        for i in live:
            inner[i] = attempt(lambda: stable_comp_inner(locs[i], trH[i], d4[i], s_in))
    else:
        # each shell summed inside the walk; a point's error there stays in
        # its sums, to be met after its plan's
        shell_sums: list = [[[0.0, np.zeros(dim)] for _ in kinds] for _ in live]

        def take(sums, j, ns, vals):
            for acc, v in zip(sums, vals):
                c, d = face_sums(ns, v, j)
                acc[0] += c
                acc[1] = acc[1] + d
            return sums

        def add(ns, Z, rows, tab, ok):
            vals = face_values(np.asarray(live)[rows], Z, tab)
            for j in ok:
                q = int(rows[j])
                if not isinstance(shell_sums[q], Exception):
                    shell_sums[q] = attempt(lambda: take(shell_sums[q], j, ns, vals))

        plans = plan_inner_shells(pairs, u, X[live], s_in, scheme, add)[1]
        for q, i in enumerate(live):
            inner[i] = attempt(lambda: (unwrap(plans[q]), unwrap(shell_sums[q])))
    live = [i for i in live if not isinstance(inner[i], Exception)]

    # --- the mid set in chunks, the outer sets stacked ---------------------
    Zm = ns_mid.offsets()
    mids = {i: [(0.0, np.atleast_1d(0.0))] * len(kinds) for i in live}
    signed = not all(even)
    step = block_size(base, ns_mid.count * (2 if dim == 2 and signed else 1))
    for c in range(0, len(live) if ns_mid.count else 0, step):
        rows = np.array(live[c : c + step])
        # the tables read the orders stable_local put in pairs.orders above
        vals = face_values(rows, Zm, pairs.table(X[rows, None, :], Zm, signed))
        for j, p in enumerate(rows.tolist()):
            mids[p] = [attempt(lambda: face_sums(ns_mid, v, j)) for v in vals]
    memo: dict = {}
    outs = {i: make_nodes(dim, scheme.r_break, R_outs[i], scheme, _panel_cap(u), base.z_support, memo) for i in live}

    def outer_values(rows, Z, of):
        # one integrand per face, made in turn, with that face's errors
        du = u(shifted(X[rows], Z)) - np.asarray(UX)[rows]
        tab = pairs.table(X[rows], Z)
        tab.rows = of
        return ((du * tab[kind], tab.faults((kind,))) for kind in kinds)

    wide = [i for i in live if outs[i].count]
    outer = dict(zip(wide, set_integrals(outer_values, wide, [outs[i] for i in wide], block_size(base, 1))))

    # the far masses of the tails, marched for the block's points in lockstep
    tails = [i for i in live if UX[i] != 0.0] if u.trig is None else []
    fars = [dict(zip(tails, far_masses(faces[kind], X[tails], [R_outs[i] for i in tails], scheme))) for kind in kinds]

    def finish(i):
        x = X[i]
        if stable:
            inner_value, inner_bound = inner[i]
        else:
            (shells, bounds), sums = inner[i]
            inner_bound = bounds["comp"] + bounds["drift"]
        out = []
        for j, kind in enumerate(kinds):
            diag: dict = {"which": kind, "x": tuple(float(v) for v in x), "inner_bound": inner_bound}
            comp, drift_vec = 0.0, np.zeros(dim)
            if stable:
                comp += inner_value
                # z (j(x,x+z) - j(x,x-z)) vanishes identically for power laws
                if kind != "direct":
                    drift_vec = drift_vec + (1.0 if kind == "transposed" else 0.5) * stable_drift_smallz(locs[i], 0.0, s_in)
            else:
                diag["shells"] = shells
                comp, drift_vec = sums[j]
            mid_comp, mid_drift = unwrap(mids[i][j])
            comp = comp + mid_comp + (unwrap(outer[i][j]) if outs[i].count else 0.0)
            comp = _add_tail(comp, fars[j].get(i), u, R_outs[i], locs[i], UX[i], diag)
            drift = 0.5 * float(GX[i] @ (drift_vec + mid_drift))
            diag.update(R_out=R_outs[i], nodes=ns_mid.count + outs[i].count, comp_part=comp, drift_part=drift)
            out.append((comp + drift, diag))
        return out[0] if isinstance(which, str) else out

    return [attempt(lambda: finish(i)) if i in outs else inner[i] for i in range(len(X))]


# ---------------------------------------------------------------------------
# plain truncated integrals (no compensator)
# ---------------------------------------------------------------------------


def plain_truncated(face: Face, u: GridFunction, x, lo: float, scheme) -> list:
    """Integral of (u(x+z) - u(x)) * face over |z| >= lo at every point of
    the block x (P, n): a list with one (value, diag) per point, or the
    error the point meets on its own.

    Each point keeps its own outer region, node set (split at the face's
    declared support, radial_panels) and tail; the node sets are stacked
    into block tables (set_integrals), and the far masses of the tails are
    the entries of one far_masses block.
    """
    X = np.asarray(x, dtype=float)
    UX = u(X)
    if u.trig is not None and face.stable_kind == "direct" and face.af is not None:
        locs = stable_local(face.af, X)
    else:
        locs = [None] * len(X)

    def region(p):
        if u.trig is not None and locs[p] is None:
            raise DomainError("plane waves need a power-law direct face")
        loc = unwrap(locs[p])
        return (loc,) + _outer_region(u, X[p], loc, scheme)

    regions = [attempt(lambda: region(p)) for p in range(len(X))]
    live = [p for p, r in enumerate(regions) if not isinstance(r, Exception)]
    tails = [p for p in live if UX[p] != 0.0] if u.trig is None else []
    fars = dict(zip(tails, far_masses(face, X[tails], [regions[p][1] for p in tails], scheme)))

    def fn(rows, Z, of):
        Xr = X[rows]
        v, errors = face.block(Xr, Z, of)
        return (((u(shifted(Xr, Z)) - UX[rows]) * v, errors),)

    memo: dict = {}
    sets = [make_nodes(face.dim, lo, regions[p][1], scheme, regions[p][2], face.z_support, memo) for p in live]
    vals = dict(zip(live, set_integrals(fn, live, sets, block_size(face.pairs.base, 1))))

    def finish(p):
        loc, R_out, _ = unwrap(regions[p])
        diag: dict = {}
        val = _add_tail(unwrap(vals[p][0]), fars.get(p), u, R_out, loc, float(UX[p]), diag)
        diag["R_out"] = R_out
        return float(val), diag

    return [attempt(lambda: finish(p)) for p in range(len(X))]


def _eps_ladder(eps_seq: Sequence[float], scheme) -> list:
    """The cutoffs as floats, checked to be positive and to decrease strictly from at most r_break."""
    eps = [float(e) for e in eps_seq]
    if len(eps) == 0:
        raise DomainError("empty epsilon sequence")
    if any(e2 >= e1 for e1, e2 in zip(eps[:-1], eps[1:])):
        raise DomainError("epsilon sequence must be strictly decreasing")
    if eps[0] > scheme.r_break:
        raise DomainError("epsilon sequence must start at or below r_break")
    if not all(e > 0.0 for e in eps):
        raise DomainError("epsilon cutoffs must be positive")
    return eps


def _ladder_partials(first, bands) -> np.ndarray:
    """Partials along the cutoffs: first, then adding each band in order."""
    acc = first
    partials = [acc]
    for band in bands:
        acc = acc + band
        partials.append(acc)
    return np.asarray(partials)


def _ladder_block(X, segments, sums, errors) -> list:
    """The values of each segment (lo, hi) of a cutoff ladder at every base
    point of X, one list per point: sums(lo, hi, live) gives the entries of
    the points X[live] still on the ladder, each its value or the error it
    meets (an error of the segment itself is every point's).  A point that
    meets an error leaves the ladder with it in errors[p], which holds the
    points' errors met before the ladder."""
    values = [[] for _ in X]
    for lo, hi in segments:
        live = np.array([p for p in range(len(X)) if errors[p] is None], dtype=int)
        entries = attempt(lambda: sums(lo, hi, live))
        for p, v in zip(live, [entries] * len(live) if isinstance(entries, Exception) else entries):
            if isinstance(v, Exception):
                errors[p] = v
            else:
                values[p].append(v)
    return values


def truncated_bands(face: Face, u: GridFunction, x, eps_seq: Sequence[float], scheme):
    """Partial integrals of (u(x+z)-u(x)) * face over |z| >= eps_m, eps decreasing.

    The widest truncation is evaluated once; successive partials add the
    bands between consecutive cutoffs, keeping a fixed summation order.
    Returns a list with one (partials, diag) per point of the block x
    (P, n), or the error the point meets on its own: the widest truncations
    are one block plain_truncated, and each band one node set and one table
    per chunk of at most block_size points, summed per point.
    """
    eps = _eps_ladder(eps_seq, scheme)
    X = np.asarray(x, dtype=float)
    UX = u(X)
    firsts = plain_truncated(face, u, X, eps[0], scheme)
    errors = [f if isinstance(f, Exception) else None for f in firsts]

    def sums(lo, hi, live):
        ns = make_nodes(face.dim, lo, hi, scheme, support=face.z_support)
        Z = ns.offsets()

        def rows(idx):
            Xb = X[idx][:, None, :]
            v, errors = face.block(Xb, Z)
            return (u(shifted(Xb, Z)) - UX[idx][:, None]) * v, errors

        return table_rows(rows, live, block_size(face.pairs.base, ns.count), ns.integrate_values)

    bands = _ladder_block(X, zip(eps[1:], eps[:-1]), sums, errors)
    return [e if e is not None else (_ladder_partials(f[0], b), f[1]) for e, f, b in zip(errors, firsts, bands)]


# ---------------------------------------------------------------------------
# killing term
# ---------------------------------------------------------------------------


def kappa_partials(base: JumpKernel, x, eps_seq: Sequence[float], scheme, sk: Optional[SplitKernel] = None, faces=None):
    """Partial integrals kappa_eps(x) = integral over |z| >= eps of (j(x+z,x) - j(x,x+z)) dz.

    Power-law kernels switch to a Taylor closed form below S_INNER, which
    both removes the catastrophic cancellation of the raw integrand and
    makes arbitrarily deep epsilon ladders cheap.  For generic kernels the
    paired +z/-z cancellation cannot beat double precision, so the result
    carries ``fp_noise``: the rounding scale of the one-sided magnitudes
    that were cancelled.  Partial increments below that scale are not
    resolved, only bounded.  faces, when given, are faces_of(base, sk)
    shared by the points of one call.

    Returns a list with one (partials array, diagnostics) per point of the
    block x (P, n), or the error the point meets on its own.  The far masses
    beyond r_break (of the transposed and direct faces of a stable-like
    kernel, of kappa's own far face otherwise) are the entries of one
    far_masses block per face.  Each ladder segment is one node set (split
    at the kernel's declared support) and, per chunk of at most block_size
    points, one table (of a stable-like kernel, one array of its integrand,
    with stable_local taken on the block); node sums, fp_noise and partial
    sums stay per point, in the order of a point on its own.
    """
    eps = _eps_ladder(eps_seq, scheme)
    dim = base.dim
    X = np.asarray(x, dtype=float)
    if faces is None:
        faces = faces_of(base, sk)
    af = base.alpha_fn
    stable = af is not None
    locs = stable_local(af, X) if stable else [None] * len(X)
    live = [p for p, loc in enumerate(locs) if not isinstance(loc, Exception)]
    kinds = ("transposed", "direct") if stable else ("kappa_far",)
    fars = dict(zip(live, zip(*(far_masses(faces[k], X[live], [scheme.r_break] * len(live), scheme) for k in kinds))))

    def far(p):
        # far piece: integral over |z| >= r_break of (j(x+z,x) - j(x,x+z))
        unwrap(locs[p])
        if not stable:
            return unwrap(fars[p][0])
        t_val, t_bound, t_ok = unwrap(fars[p][0])
        d_val, d_bound, d_ok = unwrap(fars[p][1])
        return t_val - d_val, t_bound + d_bound, t_ok and d_ok

    outers = [attempt(lambda: far(p)) for p in range(len(X))]
    errors = [o if isinstance(o, Exception) else None for o in outers]
    pairs = faces["direct"].pairs

    def node_rows(ns: NodeSet, idx):
        # (segment value, fp_noise increment) at each point of X[idx], with the errors by point
        Z = ns.offsets()
        Xb = X[idx][:, None, :]
        if stable:
            a0 = np.array([[locs[p].a0] for p in idx])
            w0 = np.array([[locs[p].w0] for p in idx])
            lr = np.log(np.sqrt(sq_norm(Z)))

            def integrand(s=None):
                Xs, a0s, w0s = (Xb, a0, w0) if s is None else (Xb[s], a0[s], w0[s])
                aZ = af(shifted(Xs, Z))
                return weighted(aZ, dim, lambda w: np.exp(-(dim + a0s) * lr) * (w * np.exp((a0s - aZ) * lr) - w0s))

            v, errors = by_rows(integrand, (len(idx), len(Z)))
            return [(w, None) for w in v], errors
        # the +z/-z node values cancel against one another, so the resolvable
        # signal sits above the rounding of the one-sided magnitudes
        tab = pairs.table(Xb, Z)
        mag = np.abs(tab["direct"]) + np.abs(tab["transposed"])
        return zip(2.0 * tab["anti_rev"], mag), tab.faults()

    def node_sums(ns: NodeSet, row):
        v, m = row
        return ns.integrate_values(v), 0.0 if m is None else 2.0**-52 * ns.weigh(m)

    # segment boundaries from eps ladder up to r_break, split at the Taylor switch
    zs = min(S_INNER, scheme.r_break) if stable else 0.0

    def sums(lo, hi, live):
        if hi <= lo:
            return [(0.0, 0.0)] * len(live)
        if stable and hi <= zs:
            return [attempt(lambda: (stable_pair_defect(locs[p], lo, hi), 0.0)) for p in live]
        head = stable and lo < zs
        ns = make_nodes(dim, zs if head else lo, hi, scheme, support=base.z_support)
        rows = table_rows(lambda idx: node_rows(ns, idx), live, block_size(base, ns.count), partial(node_sums, ns))
        if not head:
            return rows
        return [attempt(lambda: (stable_pair_defect(locs[p], lo, zs) + unwrap(r)[0], 0.0)) for p, r in zip(live, rows)]

    segments = [(eps[0], scheme.r_break)] + list(zip(eps[1:], eps[:-1]))
    values = _ladder_block(X, segments, sums, errors)

    def finish(p):
        outer, far_bound, far_ok = outers[p]
        noise = 0.0
        for _, inc in values[p]:
            noise += inc
        segs = [v for v, _ in values[p]]
        partials = _ladder_partials(segs[0] + outer, segs[1:])
        return partials, {"far_bound": far_bound, "far_ok": far_ok, "fp_noise": noise}

    return [e if e is not None else finish(p) for p, e in enumerate(errors)]
