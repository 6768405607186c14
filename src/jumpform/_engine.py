"""Shared quadrature machinery.

Everything here works at a fixed base point x and decomposes integrals over
offsets z into

* a small ball |z| <= s handled by closed forms (power-law kernels) or by
  dyadic shells with a geometric tail bound (generic kernels),
* geometric annuli [s, 1] and [1, R] integrated with Gauss-Legendre panels,
* a far field |z| > R handled exactly (power laws, compact kernels) or by
  annulus extension plus a decay bound.

Node sets pair +z with -z so that odd parts cancel at the summation level,
which is what keeps catastrophic cancellation out of principal values and
killing-term integrands.  The kernel enters through one PairTable per base
point and node set: the two one-sided values k(x, x+z) and k(x+z, x), each
evaluated once, and every face a fixed combination of them.  The faces of
one request share their tables and far masses.

Every descent into the small ball is one walk of ``dyadic_shells``: the
integrands at a base point (shell_refine) or the generator faces
(plan_inner_shells) read each shell's table, so a shell is built and its
kernel pairs evaluated once however many integrands need it.

Generator values are evaluated for a block of base points at once
(``generator_block``): every node-level quantity is one (points x nodes)
array, while node sums and everything scalar stay per point.  Elementwise
NumPy arithmetic rounds the same whatever the array's shape, but a
reduction, a matrix product or a ``**`` on a scalar instead of an array may
not, so those keep the calls a point on its own makes, and every point gets
the bits it has on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, JumpformError, NoConvergence, QuadratureOverflow
from .gridfn import GridFunction
from .kernels import AlphaFunction, JumpKernel, PairTable, SplitKernel, scalar_weights, split, weight_w

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
    panels = []
    for a, b in zip(edges[:-1], edges[1:]):
        if max_width is not None and b - a > max_width:
            parts = int(np.ceil((b - a) / max_width))
            sub = np.linspace(a, b, parts + 1)
            panels.extend(zip(sub[:-1], sub[1:]))
        else:
            panels.append((a, b))
    return panels


def radial_panels(lo: float, hi: float, scheme, max_width: Optional[float] = None):
    """Geometric panels on [lo, hi], split exactly at r_break when it falls inside."""
    rb = scheme.r_break
    if lo < rb < hi:
        return geometric_ladder(lo, rb, scheme.growth, max_width) + geometric_ladder(
            rb, hi, scheme.growth, max_width
        )
    return geometric_ladder(lo, hi, scheme.growth, max_width)


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


def _paired_sum(fn, z):
    """fn(z) + fn(-z) from one call of fn on the batch [z; -z], stacked along
    the offsets' axis (-2): a block (k, m, n) of offsets gives (k, m) sums."""
    m = z.shape[-2]
    v = np.asarray(fn(np.concatenate([z, -z], axis=-2)), dtype=float)
    return v[..., :m] + v[..., m:]


def make_nodes(dim: int, lo: float, hi: float, scheme, max_width: Optional[float] = None) -> NodeSet:
    if hi <= lo:
        return NodeSet(dim, np.empty(0), np.empty(0), scheme.angular_nodes, scheme.magnitude_cap)
    a, b = np.array(radial_panels(lo, hi, scheme, max_width)).T[:, :, None]
    t, w = gl_rule(scheme.nodes_per_annulus)
    # the nodes of each panel in turn: 0.5 (a + b) + 0.5 (b - a) t
    half = 0.5 * (b - a)
    return NodeSet(dim, (0.5 * (a + b) + half * t).ravel(), (half * w).ravel(), scheme.angular_nodes, scheme.magnitude_cap)


# ---------------------------------------------------------------------------
# dyadic shells with geometric tail bounds
# ---------------------------------------------------------------------------


def dyadic_shells(pairs: "KernelPairs", x, hi: float, scheme, signed: bool, count: int):
    """The shells [hi 2^-(i+1), hi 2^-i], i = 0, ..., count - 1, outward in: each
    one's node set and the PairTable at x on its offsets (``signed`` as in
    KernelPairs.table), which evaluates the kernel when a face is first read."""
    for i in range(count):
        ns = make_nodes(pairs.base.dim, hi * 2.0 ** -(i + 1), hi * 2.0**-i, scheme)
        yield ns, pairs.table(x, ns.offsets(), signed)


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


def shell_refine(
    pairs: "KernelPairs",
    x,
    hi: float,
    scheme,
    integrands: Sequence[Callable],
    *,
    tol: float,
    signed: bool = False,
    max_shells: int = 80,
    label: str = "shell refinement",
):
    """Sums of integrands (Z, table) -> values over the dyadic shells below hi, from one walk.

    Each integrand reads the kernel from the shell's PairTable (``signed``
    when one reads ``table.minus``) and keeps its own stopping rule: its sum
    ends once a geometric extrapolation of its decaying shell masses bounds
    the rest of the ball below tol (two zero shells give bound 0), and it
    is integrated on no later shell.  Raises NoConvergence when a sum has
    not ended after max_shells.  Returns (values, tail_bounds, shells_walked).
    """
    n = len(integrands)
    totals, prevs, bounds = [0.0] * n, [0.0] * n, [None] * n
    for i, (ns, tab) in enumerate(dyadic_shells(pairs, x, hi, scheme, signed, max_shells)):
        for j, f in enumerate(integrands):
            if bounds[j] is None:
                s = ns.integrate(lambda Z: f(Z, tab))
                totals[j] += s
                if i >= 1:
                    bounds[j] = _shell_stop(abs(prevs[j]), abs(s), tol)
                prevs[j] = s
        if None not in bounds:
            return totals, bounds, i + 1
    raise NoConvergence(f"{label}: shell masses did not decay below tolerance after {max_shells} shells")


# ---------------------------------------------------------------------------
# kernel faces
# ---------------------------------------------------------------------------


class KernelPairs:
    """The kernel behind the PairTables of one set of faces.

    ``between(X, Y)`` tabulates base evaluations on explicit pairs, and
    ``table(x, Z)`` the faces at base point x on offsets Z (y = x + Z), with
    ``signed`` on Z followed by -Z (the 1D node layout [z; -z] already is).
    x may also be a block of base points broadcasting against Z: (P, 1, n)
    against shared offsets (M, n), or (N, n) against (N, n).
    Stable-like kernels are evaluated from |z| itself, exact at any radius
    where |x - y| would lose deep annuli to rounding; their order is read at
    the rounded x + z, and at x itself once per point (``order``), and
    sym/anti are always the halves.  Otherwise the part closures of sk
    replace the halves unless they are the halves (``SplitKernel.halves``).
    ``far`` holds the far masses of these faces.
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
        if (bits == bits[0]).all():
            a0, w0 = self.order(rows[0])
            return np.full(x.shape[:-1], a0), np.full(x.shape[:-1], w0)
        starts = [0] + (np.flatnonzero(np.any(bits[1:] != bits[:-1], axis=1)) + 1).tolist()
        a0, w0 = np.array([self.order(rows[s]) for s in starts]).T
        sizes = [b - a for a, b in zip(starts, starts[1:] + [len(rows)])]
        return np.repeat(a0, sizes).reshape(x.shape[:-1]), np.repeat(w0, sizes).reshape(x.shape[:-1])

    def between(self, X, Y) -> PairTable:
        base, own = self.base, self.own
        parts = own and {
            "sym": lambda: np.asarray(own.k_s(X, Y), dtype=float),
            "anti": lambda: np.asarray(own.k_a(X, Y), dtype=float),
            "anti_rev": lambda: np.asarray(own.k_a(Y, X), dtype=float),
        }
        return PairTable(lambda: base(X, Y), lambda: base(Y, X), parts)

    def table(self, x, Z, signed: bool = False, at=None) -> PairTable:
        """The faces at x on offsets Z.  ``at`` is the (alpha, w(alpha)) of the
        base points, shaped like x without its last axis, when the caller has
        them; otherwise a block reads them with orders_at, one point with order."""
        if signed and Z.shape[-1] == 2:
            Z = np.concatenate([Z, -Z], axis=-2)
        af, n = self.base.alpha_fn, self.base.dim
        if af is None:
            return self.between(x, shifted(x, Z))
        x = np.asarray(x, dtype=float)
        Z = np.asarray(Z, dtype=float)
        r = np.sqrt(_sq_norm(Z))

        def direct():
            a0, w0 = at if at is not None else self.order(x) if x.ndim == 1 else self.orders_at(x)
            return w0 * r ** (-(n + a0))

        def transposed():
            a = af(shifted(x, Z))
            return _order_weights(af, a, n) * r ** (-(n + a))

        return PairTable(direct, transposed)


def _sq_norm(Z) -> np.ndarray:
    """np.sum(Z * Z, axis=-1), the products stored coordinate by coordinate (see shifted)."""
    if Z.shape[-1] > 1:
        Z = np.moveaxis(np.ascontiguousarray(np.moveaxis(Z, -1, 0)), 0, -1)
    return np.sum(Z * Z, axis=-1)


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


def _order_weights(af: AlphaFunction, a: np.ndarray, n: int) -> np.ndarray:
    """weight_w(a, n) for orders a read from af.  A constant order is
    weighted once, on a length-1 array, when every entry equals the first."""
    if af.is_constant and a.size > 1:
        first = a.reshape(-1)[:1]
        if np.all(a == first):
            return weight_w(first, n)
    return weight_w(a, n)


@dataclass
class Face:
    """A one-sided view of a kernel as a function of the offset z at base x."""

    dim: int
    fn: Callable  # (x (n,), Z (m, n)) -> (m,)
    stable_kind: Optional[str]  # 'direct' | 'transposed' | None
    af: Optional[AlphaFunction]
    z_support: Optional[float]
    tail_amp: Optional[float]
    tail_q: Optional[float]
    combo: Optional[Tuple[Tuple[float, "Face"], ...]] = None
    label: str = "face"
    pairs: Optional[KernelPairs] = None  # set for the faces of faces_of


def faces_of(base: JumpKernel, sk: Optional[SplitKernel] = None):
    """Direct/transposed/symmetric/antisymmetric faces of a kernel.

    Face ``kind`` at (x, Z) is column ``kind`` of the PairTable there:
    direct k(x, x+z), transposed k(x+z, x), and the halves sym, anti and
    anti_rev (or the part closures of sk, see KernelPairs).  The five faces
    share one KernelPairs, so a far mass one of them needs is computed once
    for all of them.
    """
    pairs = KernelPairs(base, sk)
    af = base.alpha_fn
    meta = dict(z_support=base.z_support, tail_amp=base.tail_amplitude, tail_q=base.tail_exponent, pairs=pairs)

    def face(kind, combo=None):
        stable_kind = kind if af is not None and combo is None else None
        return Face(base.dim, lambda x, Z: pairs.table(x, Z)[kind], stable_kind, af, combo=combo, label=kind, **meta)

    direct, transp = face("direct"), face("transposed")
    return {
        "direct": direct,
        "transposed": transp,
        "sym": face("sym", ((0.5, direct), (0.5, transp))),
        "anti": face("anti", ((0.5, direct), (-0.5, transp))),
        "anti_rev": face("anti_rev", ((0.5, transp), (-0.5, direct))),
    }


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

    X (P, n) are the base points and lo, hi (P,) their bands.  fn(Xb, Z)
    takes base points Xb that broadcast against the offsets Z and must act
    row by row: it receives the +z and -z samples in one batch.  A list of
    the P band values comes back, each bitwise the value of its point on its
    own.
    """
    rows = [p for p, b in enumerate(hi) if b > _FAR_RESOLVE] if oscillatory else []
    if not rows:
        return _gauss_bands(fn, dim, X, lo, hi, scheme, oscillatory)
    out = np.empty(len(X))
    if len(rows) < len(X):
        gauss = [p for p, b in enumerate(hi) if b <= _FAR_RESOLVE]
        out[gauss] = _gauss_bands(fn, dim, X[gauss], [lo[p] for p in gauss], [hi[p] for p in gauss], scheme, True)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    # at most _PAIR_BLOCK pairs per fn call
    step = max(1, _PAIR_BLOCK // (64 * scheme.nodes_per_annulus))
    for c in range(0, len(rows), step):
        r = rows[c : c + step]
        Xb = X[r][:, None, :]
        out[r] = _stratified(lambda Z: fn(Xb, Z), dim, lo[r], hi[r], scheme)
    return out.tolist()


def _stratified(fn, dim: int, lo, hi, scheme):
    """The stratified estimate of band_value_far on the bands [lo, hi]
    (arrays (k,)), one per row of the samples fn receives."""
    t, theta = _strata(32 * scheme.nodes_per_annulus)
    r = lo[..., None] + t * (hi - lo)[..., None]
    # np.mean's sum and division, without its per-call overhead
    if dim == 1:
        vals = 0.5 * _paired_sum(fn, r[..., None])
        return 2.0 * (hi - lo) * (np.add.reduce(vals, axis=-1) / len(t))
    z = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    vals = 0.5 * _paired_sum(fn, z)
    return TWO_PI * (hi - lo) * (np.add.reduce(vals * r, axis=-1) / len(t))


@lru_cache(maxsize=None)
def _strata(m: int):
    """The m stratified radial fractions t and angles theta of _stratified,
    read-only since every call shares them."""
    i = np.arange(m, dtype=float)
    t, theta = (i + np.mod(i * _PHI1, 1.0)) / m, TWO_PI * np.mod(i * _PHI2, 1.0)
    t.flags.writeable = theta.flags.writeable = False
    return t, theta


@lru_cache(maxsize=512)
def _band_nodes(dim: int, lo: float, hi: float, scheme, oscillatory: bool) -> NodeSet:
    """The node set of a Gauss far band, width-capped while a wide band of an
    oscillatory face is still resolvable.  Marches from a shared radius walk
    the same octaves, so recent bands are kept (a benchmark round of the
    generic-cli and varorder-far workloads finds 68% and 79% of its bands
    here), read-only since every march shares them."""
    ns = make_nodes(dim, lo, hi, scheme, _OSC_WIDTH if (oscillatory and hi - lo > _OSC_WIDTH) else None)
    ns.r.flags.writeable = ns.wr.flags.writeable = False
    return ns


def _gauss_bands(fn, dim: int, X, lo, hi, scheme, oscillatory: bool) -> list:
    """The integral of fn on [lo_p, hi_p] at each base point X_p (the
    nodes of _band_nodes), the points' node sets stacked into as few
    fn(Xb, Z) calls of at most _PAIR_BLOCK pairs as their sizes allow; each
    sum is its point's own NodeSet sum."""
    sets = [_band_nodes(dim, a, b, scheme, oscillatory) for a, b in zip(lo, hi)]
    sizes = [ns.count for ns in sets]
    out, start = [], 0
    while start < len(sets):
        stop, width = start + 1, sizes[start]
        while stop < len(sets) and width + sizes[stop] <= _PAIR_BLOCK:
            width += sizes[stop]
            stop += 1
        v = fn(np.repeat(X[start:stop], sizes[start:stop], axis=0), np.concatenate([ns.offsets() for ns in sets[start:stop]]))
        end = 0
        for ns, c in zip(sets[start:stop], sizes[start:stop]):
            out.append(ns.integrate_values(v[end : end + c]))
            end += c
        start = stop
    return out


def octave_extend(fn, dim: int, R, scheme, oscillatory: bool, bound_of, cut: float, X):
    """Sums of fn over the octaves [R g^i, R g^(i+1)], g = scheme.growth, until the rest is negligible.

    The base points X (P, n) march in lockstep from their own radii R[p]:
    every octave is one band_value_far call on the points still marching.
    After each octave, ``bound_of(s, prev, rn)`` bounds everything beyond a
    point's outer radius rn from its octave value s and its previous one
    prev (None after the first), and the point stops once that is below
    cut.  Returns three lists (totals, bounds, oks), each entry bitwise what
    its point gives on its own; ok is False where 240 octaves left the
    bound at or above cut.
    """
    n = len(X)
    total, prev, bound, ok = [0.0] * n, [None] * n, [np.inf] * n, [False] * n
    active = list(range(n))
    lo = [float(r) for r in R]
    for _ in range(240):
        hi = [r * scheme.growth for r in lo]
        s = band_value_far(fn, dim, lo, hi, scheme, oscillatory, X)
        keep = []
        for i, (p, sp, r) in enumerate(zip(active, s, hi)):
            total[p] += sp
            bound[p] = bound_of(sp, prev[p], r)
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
    block (octave_extend).  The remainder is bounded by the face's tail
    metadata, by geometric extrapolation of decaying octaves, or, for a face
    that vanishes identically and has no metadata, by zero.  Returns three
    lists (values, bounds, oks), one entry per point.
    """
    if face.z_support is not None:
        # one band [R, z_support] per point inside the support
        values = [0.0] * len(X)
        inside = [p for p, r in enumerate(R) if r < face.z_support]
        lo, hi = [float(R[p]) for p in inside], [face.z_support] * len(inside)
        for p, v in zip(inside, _gauss_bands(face.fn, face.dim, X[inside], lo, hi, scheme, False)):
            values[p] = v
        return values, [0.0] * len(X), [True] * len(X)
    sig = _sigma(face.dim)

    def bound_of(s, prev, rn):
        bound = np.inf
        if face.tail_amp is not None and face.tail_q is not None:
            bound = face.tail_amp * sig * rn ** (-face.tail_q) / face.tail_q
        if prev is not None and abs(prev) > 0 and abs(s) <= 0.9 * abs(prev):
            rho = min(abs(s) / abs(prev) * 1.2, 0.95)
            bound = min(bound, abs(s) * rho / (1.0 - rho))
        if abs(s) == 0.0 and (prev is None or abs(prev) == 0.0) and bound is np.inf:
            bound = 0.0  # identically vanishing face with no metadata
        return bound

    oscillatory = face.af is not None and not face.af.is_constant
    total, bound, ok = octave_extend(face.fn, face.dim, R, scheme, oscillatory, bound_of, cut, X)
    return total, [float(b) for b in bound], ok


def _far_key(face: Face, x, R: float, scheme):
    """The key of a far mass in its faces' ``far`` cache."""
    return (face.fn, np.asarray(x, dtype=float).tobytes(), R, scheme)


def _far_route(face: Face) -> str:
    """How far_mass resolves a face: 'closed' (a power law, exact at any
    point), 'combo' (the sum over its parts) or 'march' (_far_numeric)."""
    af = face.af
    if af is not None:
        if af.is_constant and (face.stable_kind is not None or face.combo is not None):
            return "closed"
        if face.stable_kind == "direct":
            return "closed"
    return "combo" if face.combo is not None else "march"


def far_mass(face: Face, x, R: float, scheme):
    """Integral of the face over |z| > R. Returns (value, bound, ok).

    Exact for power-law kernels at a fixed base point; composite faces are
    resolved into their direct/transposed parts so that, e.g., the symmetric
    far mass is bitwise 0.5*(direct + transposed).  Any other face is
    marched as the block of one (_far_numeric).  A face of faces_of keeps
    that mass per (x, R, scheme) for the life of its faces, and every later
    request reads it back, including the masses far_masses marched for a
    block.
    """
    route = _far_route(face)
    n = face.dim
    if route == "closed":
        af = face.af
        sig = _sigma(n)
        if af.is_constant:
            a0 = af.alpha1
            v = weight_w(a0, n) * sig * R ** (-a0) / a0
            if face.stable_kind is not None:
                return v, 0.0, True
            out = 0.0
            for c, _ in face.combo:
                out += c * v
            return out, 0.0, True
        a0, w0 = face.pairs.order(x)
        return w0 * sig * R ** (-a0) / a0, 0.0, True
    if route == "combo":
        val = 0.0
        bound = 0.0
        ok = True
        for c, sub in face.combo:
            v, b, o = far_mass(sub, x, R, scheme)
            val += c * v
            bound += abs(c) * b
            ok = ok and o
        return val, bound, ok
    far = face.pairs.far if face.pairs is not None else {}
    key = _far_key(face, x, R, scheme)
    hit = far.get(key)
    if hit is None:
        values, bounds, oks = _far_numeric(face, np.asarray(x, dtype=float).reshape(1, -1), [R], scheme, _far_cut(scheme))
        hit = far[key] = (values[0], bounds[0], oks[0])
    return hit


def far_masses(face: Face, X, R, scheme) -> None:
    """March the far masses far_mass will be asked for at the base points X
    (P, n), each at its own radius R[p], as one lockstep block, and keep
    them where far_mass reads them back.

    A composite face stands for its parts, and a closed form costs nothing
    per point.  A block that raises keeps nothing, so every point meets its
    error where far_mass is asked for it alone.
    """
    route = _far_route(face)
    if route == "combo":
        for _, sub in face.combo:
            far_masses(sub, X, R, scheme)
        return
    if route == "closed" or face.pairs is None:
        return
    todo = {}
    for x, r in zip(X, R):
        key = _far_key(face, x, r, scheme)
        if key not in face.pairs.far:
            todo.setdefault(key, (x, r))
    if not todo:
        return
    pts = np.array([x for x, _ in todo.values()], dtype=float)
    try:
        marched = _far_numeric(face, pts, [r for _, r in todo.values()], scheme, _far_cut(scheme))
    except JumpformError:
        return
    face.pairs.far.update(zip(todo, zip(*marched)))


def _far_cut(scheme) -> float:
    """The bound below which a far march stops."""
    return max(scheme.tol_abs * 0.01, 1e-15)


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


def stable_local(af: AlphaFunction, x, h: float = 1e-4):
    """StableLocal at base point x (n,), or a list of them, one per row of a block x (P, n).

    The order is read at the points and at their finite-difference
    neighbours only, one af call per stencil point for the whole block, and
    every weight w(alpha) there comes from one scalar_weights call; the rest
    is scalar arithmetic per point, as for a point on its own.
    """
    one = np.ndim(x) == 1
    n = af.dim
    x = np.asarray(x, dtype=float).reshape(-1, n)
    count = len(x)
    # the order at x, then at x + h e and x - h e along each axis
    stencil = [x]
    for axis in range(n):
        e = np.zeros(n)
        e[axis] = 1.0
        stencil += [x + h * e, x - h * e]
    a = np.concatenate([np.broadcast_to(af(p), (count,)) for p in stencil])
    ws = scalar_weights(a, n)
    ga = np.asarray(af.grad(x), dtype=float).reshape(count, n)
    hs = np.asarray(af.hess(x), dtype=float).reshape(count, n, n)
    out = []
    for i in range(count):
        w0 = ws[i]
        gw = np.empty(n)
        lw = 0.0
        for axis in range(n):
            wp = ws[(2 * axis + 1) * count + i]
            wm = ws[(2 * axis + 2) * count + i]
            gw[axis] = (wp - wm) / (2.0 * h)
            lw += (wp - 2.0 * w0 + wm) / h**2
        la = float(np.trace(hs[i]))
        out.append(StableLocal(n, x[i], float(a[i]), w0, ga[i].copy(), la, gw, float(lw)))
    return out[0] if one else out


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


def stable_comp_inner(loc: StableLocal, u: GridFunction, x, s: float, H):
    """Closed form for the compensated integral over |z| <= s against w0 |z|^(-n-a0).

    Returns (value, residual_bound).  In 1D the quartic Taylor term is added
    as a correction; in 2D it is only reported as a bound.  H is u's
    Hessian at x, which the fourth difference of u reuses.
    """
    trH = float(np.trace(np.atleast_2d(H)))
    if loc.dim == 1:
        lead = trH * loc.w0 * s ** (2.0 - loc.a0) / (2.0 - loc.a0)
        d4 = u.fourth_along(x, hess_x=H)
        corr = d4 * loc.w0 * s ** (4.0 - loc.a0) / (12.0 * (4.0 - loc.a0))
        bound = abs(corr) * 1e-2 + abs(d4) * loc.w0 * s ** (6.0 - loc.a0)
        return lead + corr, bound
    lead = 0.5 * trH * loc.w0 * math.pi * s ** (2.0 - loc.a0) / (2.0 - loc.a0)
    d4 = u.fourth_along(x, hess_x=H)
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


def plan_inner_shells(pairs: KernelPairs, u: GridFunction, x, s0: float, scheme):
    """Dyadic shells below s0 for compensated/drift/antisymmetric integrands.

    The shell depth depends only on the kernel's parts (the symmetric part
    dominates every face pointwise) and on the test function, so every
    generator face shares the same node sets.  The walk is ``dyadic_shells`` with
    signed tables, each read here by a joint stopping rule on three metrics
    and then by the generator sums; it stops with NoConvergence at the
    floating-point floor of the base point.  Returns ([(node set, table),
    ...], bounds dict).
    """
    x = np.asarray(x, dtype=float)
    M2 = u.hess_sup()
    g = np.linalg.norm(u.grad(x)) + 1e-300
    tol = 0.25 * scheme.tol_abs

    def metric(ns: NodeSet, tab: PairTable):
        # second moment of k_s, first moments of the drift difference and of k_a
        m = ns.count
        ks, ka = tab["sym"][:m], tab["anti"][:m]
        m2 = ns.integrate(lambda Z: np.sum(Z * Z, axis=-1) * ks)
        m1d = ns.integrate(
            lambda Z: np.sqrt(np.sum(Z * Z, axis=-1))
            * (np.abs(ks - tab.minus("sym")[:m]) + np.abs(ka - tab.minus("anti")[:m]))
        )
        m1a = ns.integrate(lambda Z: np.sqrt(np.sum(Z * Z, axis=-1)) * np.abs(ka))
        return m2, m1d, m1a

    walked = []
    hist = []
    # below a few ulps of the base point, x + Z collapses onto x and generic
    # closures see radius zero; treating those evaluations as real decay
    # would accept divergent integrals, so the descent stops at the first
    # shell whose outer radius is at that floor
    floor = 8.0 * float(np.max(np.abs(x))) * 2.0**-52
    count = next((i for i in range(80) if s0 * 2.0**-i <= floor), 80)
    for i, (ns, tab) in enumerate(dyadic_shells(pairs, x, s0, scheme, True, count)):
        walked.append((ns, tab))
        hist.append(metric(ns, tab))
        if i >= 1:
            prev = np.array(hist[-2])
            cur = np.array(hist[-1])
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


def anti_integral(sk: SplitKernel, faces, kind: str, u: GridFunction, x, scheme) -> float:
    """Integral of (u(x+z) - u(x)) times face ``kind``, 'anti' or 'anti_rev'.

    Absolutely convergent; power-law kernels take the ball |z| <= S_INNER in
    closed form, where k_a(x+z, x) = -k_a(x, x+z).
    """
    if sk.base.alpha_fn is not None:
        loc = stable_local(sk.base.alpha_fn, x)
        s_in = min(S_INNER, scheme.r_break)
        inner = stable_anti_inner(loc, u.grad(x).reshape(-1), 0.0, s_in)
        if kind == "anti_rev":
            inner = -inner
    else:
        s_in = scheme.eps_min
        inner = 0.0
    band, _ = plain_truncated(faces[kind], u, x, s_in, scheme)
    return inner + band


def _add_tail(val, face: Face, u: GridFunction, x, R: float, loc: Optional[StableLocal], scheme, ux: float, diag: dict):
    """val plus the integral of (u(x+z) - u(x)) * face over |z| > R; its bound goes to diag.

    A plane wave's tail is the closed form of osc_cos_tail against the power
    law at x.  Otherwise u vanishes beyond R and the tail is -u(x) times the
    far mass of the face: nothing is added when u(x) == 0 (so a -0.0 stays
    -0.0), and an unresolved far mass raises NoConvergence, so that the
    caller flags the point instead of passing the value as resolved.
    """
    if u.trig is not None:
        ec, ec_err = osc_cos_tail(R, 1.0 + loc.a0, u.trig[0])
        diag["tail_bound"] = 2.0 * loc.w0 * ec_err
        return val + 2.0 * loc.w0 * ux * (ec - R ** (-loc.a0) / loc.a0)
    if ux == 0.0:
        diag["tail_bound"] = 0.0
        return val
    fm, fb, ok = far_mass(face, x, R, scheme)
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
    return generator_block(base, u, x[None], scheme, which, sk=sk)[0]


# largest number of (point, node) pairs in the mid-set table of one generator
# block; bounds the block's (points x nodes) temporaries, as _W_BLOCK does
# for weight_w
_PAIR_BLOCK = 1 << 15


def _mid_nodes(base: JumpKernel, u: GridFunction, scheme):
    """(s_in, node set on [s_in, r_break]): the inner switch radius and the
    mid node set of a generator evaluation, the same at every base point."""
    s_in = min(S_INNER if base.alpha_fn is not None else 1e-2, scheme.r_break)
    return s_in, make_nodes(base.dim, s_in, scheme.r_break, scheme, _panel_cap(u))


def block_points(base: JumpKernel, u: GridFunction, scheme) -> int:
    """How many base points one generator_block takes: as many as keep its
    mid-set table (signed, so doubled in 2D) within _PAIR_BLOCK pairs.

    A pair evaluated by a kernel closure counts four times: its temporaries
    are the closure's own, about 175 bytes per pair for an expression kernel
    against about 50 for the stable-like closed form."""
    width = _mid_nodes(base, u, scheme)[1].count * (2 if base.dim == 2 else 1)
    if base.alpha_fn is None:
        width *= 4
    return max(1, _PAIR_BLOCK // max(width, 1))


def _comp_diff(u: GridFunction, X, UX, GX, hess_of, Z) -> np.ndarray:
    """The compensated differences u(x+z) - u(x) - grad u(x).z 1_{|z|<=1} at
    every base point x of X on the shared offsets Z, one row per point; below
    R_QUAD the quadratic Taylor form replaces the cancelling difference.
    UX and GX are u and its gradient at the points, hess_of(i) its Hessian
    at point i."""
    r2 = _sq_norm(Z)
    U = u(shifted(X[:, None, :], Z)) - np.asarray(UX)[:, None]
    # one product Z @ gx per point: a product over the block may round differently
    raw = U - np.stack([Z @ gx for gx in GX])
    if np.any(r2 < R_QUAD**2):
        for i in range(len(X)):
            quad = 0.5 * np.einsum("...i,ij,...j->...", Z, np.atleast_2d(hess_of(i)), Z)
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
    mid node set (shared by all points) and on the points' own outer sets
    (stacked).  Sums over nodes, inner balls, shells, tails and everything
    else scalar stay per point, with the calls and the order of operations
    of a point on its own, so each point's values and diagnostics are
    bitwise those of its generator_point call whatever block it is in.  An
    error at any point raises for the whole block, in the order a point on
    its own would meet it when the block is that point.
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
    UX = [float(u(x)) for x in X]
    GX = [u.grad(x).reshape(-1) for x in X]
    HX: dict = {}

    def hess_of(i):
        # u's Hessian at X[i], evaluated once for the inner ball, the fourth
        # difference and the quadratic Taylor form
        if i not in HX:
            HX[i] = u.hess(X[i])
        return HX[i]

    # --- region bounds and inner balls -------------------------------------
    locs = stable_local(base.alpha_fn, X) if stable else [None] * len(X)
    R_outs = []
    for x, loc in zip(X, locs):
        if stable:
            pairs.orders[x.tobytes()] = (loc.a0, loc.w0)
        R_outs.append(_outer_region(u, x, loc, scheme)[0])
    s_in, ns_mid = _mid_nodes(base, u, scheme)
    if stable:
        inner = [stable_comp_inner(loc, u, x, s_in, hess_of(i)) for i, (x, loc) in enumerate(zip(X, locs))]
        shells = [[] for _ in X]
    else:
        shells, inner = [], []
        for x in X:
            walked, bounds = plan_inner_shells(pairs, u, x, s_in, scheme)
            shells.append(walked)
            inner.append((0.0, bounds["comp"] + bounds["drift"]))

    # --- node sets and their block tables ----------------------------------
    max_w = _panel_cap(u)
    outs = [make_nodes(dim, scheme.r_break, R, scheme, max_w) for R in R_outs]
    sizes = [ns.count for ns in outs]
    ends = np.cumsum(sizes)
    Zm = ns_mid.offsets()
    Zo = np.concatenate([ns.offsets() for ns in outs])
    Xo = np.repeat(X, sizes, axis=0)
    # the orders stable_local read, (2, P): alpha and w(alpha) per point
    at = np.array([(loc.a0, loc.w0) for loc in locs]).T if stable else None
    mid_tab = pairs.table(X[:, None, :], Zm, signed=True, at=None if at is None else at[:, :, None])
    out_tab = pairs.table(Xo, Zo, at=None if at is None else np.repeat(at, sizes, axis=1))
    m = len(Zm)
    # the compensated differences on the mid set and u(x + z) - u(x) on the
    # outer sets, made once for every face
    comp_mid = _comp_diff(u, X, UX, GX, hess_of, Zm) if m else None
    du_out = u(shifted(Xo, Zo)) - np.repeat(UX, sizes) if len(Zo) else None
    # the far masses of the tails, marched for the block's points in lockstep
    tails = [i for i in range(len(X)) if UX[i] != 0.0] if u.trig is None else []
    for kind in kinds:
        far_masses(faces[kind], X[tails], [R_outs[i] for i in tails], scheme)

    results = [[] for _ in X]
    for kind in kinds:
        comps, drifts, diags = [], [], []
        for i, x in enumerate(X):
            diag: dict = {"which": kind, "x": tuple(float(v) for v in x), "inner_bound": inner[i][1]}
            comp = 0.0
            drift_vec = np.zeros(dim)
            if stable:
                comp += inner[i][0]
                # z (j(x,x+z) - j(x,x-z)) vanishes identically for power laws
                if kind != "direct":
                    drift_vec = drift_vec + (1.0 if kind == "transposed" else 0.5) * stable_drift_smallz(locs[i], 0.0, s_in)
            else:
                diag["shells"] = len(shells[i])
                for ns, tab in shells[i]:
                    Z = ns.offsets()
                    k = tab[kind][: len(Z)]
                    comp_z = _comp_diff(u, X[i : i + 1], UX[i : i + 1], GX[i : i + 1], lambda _, i=i: hess_of(i), Z)
                    comp += ns.integrate_values(comp_z[0] * k)
                    drift = ns.integrate_values(Z * (k - tab.minus(kind)[: len(Z)])[..., None])
                    drift_vec = drift_vec + np.atleast_1d(drift)
            comps.append(comp)
            drifts.append(drift_vec)
            diags.append(diag)

        if m:
            k = mid_tab[kind]
            cv = comp_mid * k[..., :m]
            dv = Zm * (k[..., :m] - mid_tab.minus(kind)[..., :m])[..., None]
        for i in range(len(X)):
            comps[i] += ns_mid.integrate_values(cv[i]) if m else 0.0
            drift = ns_mid.integrate_values(dv[i]) if m else 0.0
            drifts[i] = drifts[i] + np.atleast_1d(drift)

        if len(Zo):
            ov = du_out * out_tab[kind]
        for i, x in enumerate(X):
            comp = comps[i] + (outs[i].integrate_values(ov[ends[i] - sizes[i] : ends[i]]) if sizes[i] else 0.0)
            diag = diags[i]
            comp = _add_tail(comp, faces[kind], u, x, R_outs[i], locs[i], scheme, UX[i], diag)
            drift = 0.5 * float(GX[i] @ drifts[i])
            diag["R_out"] = R_outs[i]
            diag["nodes"] = ns_mid.count + outs[i].count
            diag["comp_part"] = comp
            diag["drift_part"] = drift
            results[i].append((comp + drift, diag))
    return [r[0] if isinstance(which, str) else r for r in results]


# ---------------------------------------------------------------------------
# plain truncated integrals (no compensator)
# ---------------------------------------------------------------------------


def plain_truncated(face: Face, u: GridFunction, x, lo: float, scheme):
    """Integral of (u(x+z) - u(x)) * face over |z| >= lo. Returns (value, diag)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    ux = float(u(x))
    loc = None
    if u.trig is not None:
        if face.stable_kind != "direct" or face.af is None:
            raise DomainError("plane waves need a power-law direct face")
        loc = stable_local(face.af, x)
    R_out, max_w = _outer_region(u, x, loc, scheme)

    def fn(Z):
        return (u(x + Z) - ux) * face.fn(x, Z)

    val = make_nodes(face.dim, lo, R_out, scheme, max_w).integrate(fn)
    diag: dict = {}
    val = _add_tail(val, face, u, x, R_out, loc, scheme, ux, diag)
    diag["R_out"] = R_out
    return float(val), diag


def tail_points(u: GridFunction, X, scheme):
    """The rows of X at which plain_truncated's tail takes a far mass (u(x)
    != 0, u not a plane wave), and the outer radius R_out of each: the
    block far_masses of such a call.  A point whose R_out raises is left
    out; it meets that error on its own."""
    pts, radii = [], []
    if u.trig is None:
        for x in X:
            x = np.asarray(x, dtype=float).reshape(-1)
            if float(u(x)) != 0.0:
                try:
                    radii.append(_outer_region(u, x, None, scheme)[0])
                except DomainError:
                    continue
                pts.append(x)
    return pts, radii


def _eps_ladder(eps_seq: Sequence[float], scheme) -> list:
    """The cutoffs as floats, checked to decrease strictly from at most r_break."""
    eps = [float(e) for e in eps_seq]
    if len(eps) == 0:
        raise DomainError("empty epsilon sequence")
    if any(e2 >= e1 for e1, e2 in zip(eps[:-1], eps[1:])):
        raise DomainError("epsilon sequence must be strictly decreasing")
    if eps[0] > scheme.r_break:
        raise DomainError("epsilon sequence must start at or below r_break")
    return eps


def _ladder_partials(first, eps: list, band) -> np.ndarray:
    """Partials along the cutoffs: first, then adding band(eps[m], eps[m-1]) in order."""
    acc = first
    partials = [acc]
    for e_prev, e in zip(eps[:-1], eps[1:]):
        acc = acc + band(e, e_prev)
        partials.append(acc)
    return np.asarray(partials)


def truncated_bands(face: Face, u: GridFunction, x, eps_seq: Sequence[float], scheme):
    """Partial integrals of (u(x+z)-u(x)) * face over |z| >= eps_m, eps decreasing.

    The widest truncation is evaluated once; successive partials add the
    bands between consecutive cutoffs, keeping a fixed summation order.
    """
    eps = _eps_ladder(eps_seq, scheme)
    x = np.asarray(x, dtype=float).reshape(-1)
    ux = float(u(x))
    fn = lambda Z: (u(x + Z) - ux) * face.fn(x, Z)
    first, diag = plain_truncated(face, u, x, eps[0], scheme)
    return _ladder_partials(first, eps, lambda lo, hi: make_nodes(face.dim, lo, hi, scheme).integrate(fn)), diag


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
    shared by the points of one call.  Returns (partials array, diagnostics).
    """
    eps = _eps_ladder(eps_seq, scheme)
    x = np.asarray(x, dtype=float).reshape(-1)
    dim = base.dim
    diag: dict = {}
    if faces is None:
        faces = faces_of(base, sk)

    stable = base.alpha_fn is not None
    if stable:
        af = base.alpha_fn
        loc = stable_local(af, x)
        a0, w0 = loc.a0, loc.w0

        def gform(Z):
            r = np.sqrt(np.sum(Z * Z, axis=-1))
            aZ = af(x + Z)
            wZ = weight_w(aZ, dim)
            lr = np.log(r)
            G = wZ * np.exp((a0 - aZ) * lr)
            return np.exp(-(dim + a0) * lr) * (G - w0)

    # far piece: integral over |z| >= r_break of (j(x+z,x) - j(x,x+z))
    if stable:
        t_val, t_bound, t_ok = far_mass(faces["transposed"], x, scheme.r_break, scheme)
        d_val, d_bound, d_ok = far_mass(faces["direct"], x, scheme.r_break, scheme)
        if base.alpha_fn.is_constant:
            outer = 0.0  # identical power laws cancel exactly
            t_bound = d_bound = 0.0
            t_ok = d_ok = True
        else:
            outer = t_val - d_val
        far_bound, far_ok = t_bound + d_bound, t_ok and d_ok
    else:
        anti = faces["anti_rev"]
        amp = 2.0 * anti.tail_amp if anti.tail_amp else None
        rev2 = replace(anti, fn=lambda x_, Z: 2.0 * anti.fn(x_, Z), combo=None, tail_amp=amp, label="kappa_far")
        outer, far_bound, far_ok = far_mass(rev2, x, scheme.r_break, scheme)
    diag["far_bound"] = far_bound
    diag["far_ok"] = far_ok

    # segment boundaries from eps ladder up to r_break, split at the Taylor switch
    zs = min(S_INNER, scheme.r_break) if stable else 0.0
    noise = 0.0

    def segment(lo, hi):
        nonlocal noise
        if hi <= lo:
            return 0.0
        if stable and hi <= zs:
            return stable_pair_defect(loc, lo, hi)
        if stable and lo < zs:
            return stable_pair_defect(loc, lo, zs) + make_nodes(dim, zs, hi, scheme).integrate(gform)
        nodes = make_nodes(dim, lo, hi, scheme)
        if stable:
            return nodes.integrate(gform)
        # the +z/-z node values cancel against one another, so the resolvable
        # signal sits above the rounding of the one-sided magnitudes
        tab = faces["direct"].pairs.table(x, nodes.offsets())
        noise += 2.0**-52 * nodes.sum(lambda Z: np.abs(tab["direct"]) + np.abs(tab["transposed"]))
        return nodes.integrate(lambda Z: 2.0 * tab["anti_rev"])

    partials = _ladder_partials(segment(eps[0], scheme.r_break) + outer, eps, segment)
    diag["fp_noise"] = noise
    return partials, diag
