"""Jump kernels k(x, y) on R^n and their symmetric/antisymmetric split.

A kernel is a nonnegative measurable function of a pair of points.  The
split is

    k_s(x, y) = (k(x, y) + k(y, x)) / 2,
    k_a(x, y) = (k(x, y) - k(y, x)) / 2,

so k = k_s + k_a, k_s is symmetric, k_a antisymmetric, and nonnegativity
of k forces |k_a| <= k_s pointwise.

The distinguished family is the stable-like kernel

    k(x, y) = w(x) |x - y|^(-n - alpha(x)),

whose weight w makes the operator built from it act on plane waves with
multiplier -|xi|^alpha(x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gamma  # noqa: F401  (unused: bench/tracing.py patches kernels.gamma)
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, NegativeKernel, attempt, first_errors, nan_valued
from .gridfn import Box, as_block, sq_norm

__all__ = [
    "AlphaFunction",
    "JumpKernel",
    "SplitKernel",
    "split",
    "transpose",
    "weight_w",
    "stable_like_kernel",
    "beta_modulus",
    "beta_profile",
]


# ---------------------------------------------------------------------------
# variable order alpha(x)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaFunction:
    """A variable order x -> alpha(x) with range inside (0, 2).

    ``fn`` must be vectorised over points of shape (..., n) -> (...,).
    ``alpha1`` and ``alpha2`` are the declared infimum/supremum of the range;
    they drive closed-form tail bounds, so they must genuinely bound fn.
    Optional ``d1``/``d2`` closures give the gradient (..., n) and Hessian
    (..., n, n); when absent, finite differences are used where derivatives
    are needed; a constant order's are exactly +0.0.  A constant order takes
    the general power-law path everywhere, whose arithmetic gives it k_a = 0
    and a killing term of 0 bit for bit.
    """

    fn: Callable
    alpha1: float
    alpha2: float
    dim: int = 1
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    label: str = "alpha"

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise DomainError(f"alpha dimension must be 1 or 2, got {self.dim}")
        if not (0.0 < self.alpha1 <= self.alpha2 < 2.0):
            raise DomainError(
                f"alpha range must satisfy 0 < alpha1 <= alpha2 < 2, got ({self.alpha1}, {self.alpha2})"
            )

    def __call__(self, x):
        return as_block(self.fn, x)

    @property
    def is_constant(self) -> bool:
        return self.alpha1 == self.alpha2

    @staticmethod
    def constant(value: float, dim: int = 1) -> "AlphaFunction":
        v = float(value)

        def fn(x):
            return np.full(np.asarray(x).shape[:-1], v)

        return AlphaFunction(fn, v, v, dim=dim, label=f"alpha={v}")

    def grad(self, x, h: float = 1e-4):
        x = np.asarray(x, dtype=float)
        if self.d1 is not None:
            return np.asarray(self.d1(x), dtype=float)
        out = np.empty(x.shape)
        for axis in range(self.dim):
            e = np.zeros(self.dim)
            e[axis] = 1.0
            out[..., axis] = (self(x + h * e) - self(x - h * e)) / (2.0 * h)
        return out

    def hess(self, x, h: float = 1e-4):
        x = np.asarray(x, dtype=float)
        if self.d2 is not None:
            return np.asarray(self.d2(x), dtype=float)
        n = self.dim
        out = np.empty(x.shape + (n,))
        f0 = self(x)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = 1.0
            out[..., i, i] = (self(x + h * ei) - 2.0 * f0 + self(x - h * ei)) / h**2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = 1.0
                mixed = (
                    self(x + h * ei + h * ej)
                    - self(x + h * ei - h * ej)
                    - self(x - h * ei + h * ej)
                    + self(x - h * ei - h * ej)
                ) / (4.0 * h**2)
                out[..., i, j] = mixed
                out[..., j, i] = mixed
        return out


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpKernel:
    """Nonnegative jump kernel k(x, y); ``eval`` broadcasts over (..., n) pairs.

    Optional metadata sharpens far-field handling:

    * ``alpha_fn`` marks the stable-like family (exact power-law tails at
      fixed base point);
    * ``z_support`` promises k(x, y) = 0 whenever |x - y| > z_support;
    * ``tail_amplitude``/``tail_exponent`` promise
      k(x, y) <= tail_amplitude * |x - y|^(-n - tail_exponent) for |x - y| >= 1.

    Far-field bounds rely on that metadata, so a support or tail exponent
    that is not positive, or a negative tail amplitude, raises DomainError.
    """

    dim: int
    eval: Callable
    symmetric_hint: bool = False
    label: str = "kernel"
    alpha_fn: Optional[AlphaFunction] = None
    z_support: Optional[float] = None
    tail_exponent: Optional[float] = None
    tail_amplitude: Optional[float] = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise DomainError(f"kernel dimension must be 1 or 2, got {self.dim}")
        # written so that NaN fails too
        if self.z_support is not None and not self.z_support > 0.0:
            raise DomainError(f"z_support must be positive, got {self.z_support}")
        if self.tail_exponent is not None and not self.tail_exponent > 0.0:
            raise DomainError(f"tail_exponent must be positive, got {self.tail_exponent}")
        if self.tail_amplitude is not None and not self.tail_amplitude >= 0.0:
            raise DomainError(f"tail_amplitude must be nonnegative, got {self.tail_amplitude}")

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        v = np.asarray(self.eval(x, y), dtype=float)
        # v >= 0 is false for NaN as well as for negative values
        if np.all(v >= 0.0):
            return v
        # the error keeps the other rows (by_rows): values, the bad mask and
        # alone(i), the error of the entries i on their own
        exc = self._negative(v)
        exc.values, exc.bad, exc.alone = v, ~(v >= 0.0), lambda i: self._negative(v[i])
        raise exc

    def _negative(self, v) -> NegativeKernel:
        """The NegativeKernel of v's first negative entry, else its first NaN: its message and value only."""
        value = next(iter(v[v < 0.0]), v[~(v >= 0.0)][0])
        exc = NegativeKernel(f"kernel {self.label!r} is negative or NaN at a sampled pair (value {value!r})")
        exc.value = value
        return exc

    # the parts split() gives a kernel without symmetric_hint
    def _sym_half(self, x, y):
        return PairTable(lambda: self(x, y), lambda: self(y, x))["sym"]

    def _anti_half(self, x, y):
        return PairTable(lambda: self(x, y), lambda: self(y, x))["anti"]


def by_rows(make, shape, rows=None):
    """(values, errors by row) of make(), an array of ``shape`` (or shape())
    whose axis 0 holds entries, entry i belonging to row rows[i] (row i
    when rows is None).

    An error that knows its entries (a kernel value or order weight checked
    on the whole array: ``values``, ``bad`` and ``alone(i)``, the error of
    the entries i on their own) leaves the other rows their values, and each
    failing row gets the error of all its entries together, which is what it
    meets on its own.  Any other error is a closure's own:
    make(sel) is then called once per row, sel its entries.  This is the one
    place where anything is evaluated again.
    """
    try:
        return make(), {}
    except Exception as exc:
        shape = shape() if callable(shape) else shape
        rows = range(shape[0]) if rows is None else rows
        errors: dict = {}
        if getattr(exc, "bad", None) is not None and exc.bad.shape == tuple(shape):
            failing = np.flatnonzero(exc.bad.reshape(shape[0], -1).any(axis=1))
            at = np.asarray(rows)
            for r in dict.fromkeys(at[failing].tolist()):
                errors[r] = exc.alone(np.flatnonzero(at == r))
            return exc.values, errors
    out = np.full(shape, np.nan)
    for r in dict.fromkeys(rows):
        sel = np.flatnonzero(np.asarray(rows) == r)
        try:
            out[sel] = make(sel)
        except Exception as exc:
            errors[r] = exc
    return out, errors


class PairTable(dict):
    """Kernel values on a batch of pairs (x, y), by face, each made once, when first read.

    Only d = k(x, y) ('direct') and t = k(y, x) ('transposed') evaluate the
    kernel, so a request pays only for the sides it reads; with no
    transposed maker (None: a constant order's sides are equal bit for bit)
    t is d itself, read-only, with its row errors.  The other faces are
    bitwise halves, sym = 0.5*(d + t), anti = 0.5*(d - t) and anti_rev =
    0.5*(t - d), so direct + transposed - 2 sym cancels node by node;
    ``own`` replaces them by part closures.

    ``shape``, when given, is a callable giving the shape of the values,
    whose axis 0 then holds rows (entry i is row ``rows[i]``, or row i), and
    the makers take the entries of a row: a face that fails at some rows
    (by_rows) is made all the same, and ``errors[kind]`` keeps the error
    each such row meets on its own, for a half the first of its direct and
    transposed ones (first_errors).  Without a shape those errors raise.
    """

    def __init__(self, direct, transposed=None, own=None, shape=None):
        super().__init__()
        # nothing here refers back to the table, so its arrays go with it
        self._make = {"direct": direct, "transposed": transposed, **(own or {})}
        self._shape = shape
        self.rows = None
        self.errors: dict = {}

    def __missing__(self, kind: str) -> np.ndarray:
        if kind == "transposed" and self._make[kind] is None:
            v, errors = self["direct"], self.errors.get("direct")
            v.flags.writeable = False
        elif kind in self._make:
            v, errors = (self._make[kind](), {}) if self._shape is None else by_rows(self._make[kind], self._shape, self.rows)
        elif kind in ("sym", "anti", "anti_rev"):
            try:
                d = self["direct"]
            except Exception as exc:
                # without a shape, a NaN-valued direct error gives way to a transposed one that is not
                t = attempt(lambda: self["transposed"])
                raise t if isinstance(t, Exception) and nan_valued(exc) > nan_valued(t) else exc
            t = self["transposed"]
            v = 0.5 * (d + t) if kind == "sym" else 0.5 * (d - t) if kind == "anti" else 0.5 * (t - d)
            errors = self.errors and first_errors(self.errors.get("direct", {}), self.errors.get("transposed", {}))
        else:
            raise KeyError(kind)
        if errors:
            self.errors[kind] = errors
        self[kind] = v
        return v

    def faults(self, kinds=None) -> dict:
        """The first error of each row among the faces ``kinds``, in that
        order (every face made, in the order made, when kinds is None), a
        NaN-valued one giving way to one that is not (first_errors)."""
        if not self.errors:
            return {}
        return first_errors(*(self.errors.get(kind, {}) for kind in (self.errors if kinds is None else kinds)))

    def result(self, read, rows=None):
        """(read(self), errors by row), the result of an integrand that
        reads this table alone, whose entries belong to ``rows``."""
        self.rows = rows
        return read(self), self.faults()

    def minus(self, kind: str) -> np.ndarray:
        """Face ``kind`` at -z, on a table of offsets stacked as [z; -z] along its last axis."""
        v = self[kind]
        return np.roll(v, v.shape[-1] // 2, axis=-1)


def transpose(k: JumpKernel) -> JumpKernel:
    """The kernel (x, y) -> k(y, x). Pointwise tail bounds carry over."""
    return JumpKernel(
        dim=k.dim,
        eval=lambda x, y: k.eval(y, x),
        symmetric_hint=k.symmetric_hint,
        label=k.label + "^T",
        alpha_fn=None,
        z_support=k.z_support,
        tail_exponent=k.tail_exponent,
        tail_amplitude=k.tail_amplitude,
    )


@dataclass(frozen=True)
class SplitKernel:
    """A kernel together with closures for its symmetric/antisymmetric parts."""

    base: JumpKernel
    k_s: Callable
    k_a: Callable

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def halves(self) -> bool:
        """True when k_s and k_a are the halves of k(x, y) and k(y, x), as
        split() builds them for a kernel without symmetric_hint: a holder of
        those two values combines them instead of calling the closures."""
        return self.k_s == self.base._sym_half and self.k_a == self.base._anti_half

    @staticmethod
    def from_parts(
        dim: int,
        ks_fn: Callable,
        ka_fn: Callable,
        *,
        label: str = "kernel",
        z_support: Optional[float] = None,
        tail_exponent: Optional[float] = None,
        tail_amplitude: Optional[float] = None,
    ) -> "SplitKernel":
        """Build a kernel directly from closures for k_s and k_a.

        The base kernel is k_s + k_a; nonnegativity (equivalently
        |k_a| <= k_s) is checked on every evaluation through the base.
        """

        base = JumpKernel(
            dim=dim,
            eval=lambda x, y: np.asarray(ks_fn(x, y), dtype=float) + np.asarray(ka_fn(x, y), dtype=float),
            symmetric_hint=False,
            label=label,
            z_support=z_support,
            tail_exponent=tail_exponent,
            tail_amplitude=tail_amplitude,
        )
        return SplitKernel(base=base, k_s=ks_fn, k_a=ka_fn)


def split(k: JumpKernel) -> SplitKernel:
    """Symmetric/antisymmetric decomposition of a kernel.

    For kernels flagged ``symmetric_hint`` the antisymmetric closure returns
    exact zeros, so downstream antisymmetric quantities vanish identically
    rather than to rounding.  Otherwise the parts are the halves of the two
    one-sided values (see ``SplitKernel.halves``).
    """

    if not k.symmetric_hint:
        return SplitKernel(base=k, k_s=k._sym_half, k_a=k._anti_half)

    def ka(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))

    return SplitKernel(base=k, k_s=k, k_a=ka)


# ---------------------------------------------------------------------------
# the stable-like family
# ---------------------------------------------------------------------------


# w(alpha) = alpha (2 - alpha) h_n(alpha - 1), where h_n(t) = 2^t Gamma((t + 1 + n)/2)
# / (2 pi^(n/2) Gamma((3 - t)/2)) is analytic and positive for t in [-1, 1]: these
# are its Chebyshev interpolants of degree 26 (n = 1) and 20 (n = 2), highest
# power first, as tools/weight_coefficients.py prints them from mpmath
_W_POLY = {
    1: (
        5.139903579306092e-09, -1.0279807156763478e-08, -1.4134734853671269e-08, 2.826946972719461e-08,
        4.754410797811585e-08, -9.50882156107762e-08, 7.308297054758835e-09, -1.4616606569492728e-08,
        2.379411962320521e-07, -4.7588390138760965e-07, 7.895344802630232e-07, -1.5791053527642928e-06,
        3.2458063229595754e-06, -6.4891176712879545e-06, 1.2971398188217625e-05, -2.576014620380916e-05,
        5.243818845823713e-05, -0.0001020999267436959, 0.00020252103377108691, -0.0004900176936861008,
        0.0003601708927492257, -0.0034660733133614324, -0.0006459600255324728, -0.005483846683401517,
        0.05670365318900179, 0.13457643358548166, 0.3183098861837907,
    ),
    2: (
        3.496058065265114e-12, -1.051515674352575e-11, 1.2914753839722523e-11, -4.075161839568743e-11,
        1.5258927065701267e-10, -4.873641540239149e-10, 1.613363304512028e-09, -1.0127986140217865e-09,
        3.740638750177008e-08, 1.0354494984965022e-07, 6.443052404102469e-07, 2.5712592731509866e-07,
        -8.237956531491005e-06, -9.028744658750744e-05, -0.00043769422856111765, -0.0014767126499671515,
        -0.0021307040860738392, 0.004807488487717632, 0.04236468855014898, 0.1161253598083109,
        0.15915494309189535,
    ),
}

# at most this many orders are weighted as Python floats; more go through
# NumPy in blocks of _W_BLOCK, which keep the Horner passes in cache
_W_SMALL = 32
_W_BLOCK = 8192


def weight_w(alpha, n: int = 1):
    """Weight of the stable-like kernel of order alpha in dimension n.

    w(alpha) = alpha * 2^(alpha-1) * Gamma((alpha+n)/2) / (pi^(n/2) * Gamma(1-alpha/2)).

    With this normalisation the operator built from w(alpha)|z|^(-n-alpha)
    acts on e_xi with multiplier -|xi|^alpha.  Accepts scalars or arrays with
    entries in (0, 2); a scalar gives a float.

    Evaluated as alpha (2 - alpha) times the fixed polynomial _W_POLY[n] in
    alpha - 1, within 6.5e-16 relative of the exact weight.  Horner's
    rule takes only + and *, which round alike on Python floats and NumPy
    arrays, so every entry has the bits of its order weighted alone, whatever
    the input's shape and size.
    """
    a = np.asarray(alpha, dtype=float)
    small = a.size <= _W_SMALL
    vals = a.ravel().tolist() if small else None
    # false for NaN too, so NaN raises like an out-of-range order
    if not (all(0.0 < v < 2.0 for v in vals) if small else np.all((a > 0.0) & (a < 2.0))):
        raise _order_error(a, n)
    if n not in (1, 2):
        raise DomainError("weight_w supports n in {1, 2}")
    coef = _W_POLY[n]
    if small:
        out = []
        for v in vals:
            t = v - 1.0
            p = coef[0]
            for c in coef[1:]:
                p = p * t + c
            out.append(v * (2.0 - v) * p)
        return out[0] if a.ndim == 0 else np.array(out).reshape(a.shape)
    flat = a.ravel()
    out = np.empty(flat.shape)
    for s in range(0, flat.size, _W_BLOCK):
        ab = flat[s : s + _W_BLOCK]
        p = out[s : s + ab.size]
        t = ab - 1.0
        p.fill(coef[0])
        for c in coef[1:]:
            p *= t
            p += c
        np.subtract(2.0, ab, out=t)
        t *= ab
        p *= t
    return out.reshape(a.shape)


def _order_error(a: np.ndarray, n: int) -> DomainError:
    """weight_w's error for orders a, which keeps the rows in (0, 2) (by_rows)."""
    exc = DomainError("weight_w requires alpha in (0, 2)")
    if a.ndim and n in (1, 2):
        exc.bad = ~((a > 0.0) & (a < 2.0))
        exc.values = np.where(exc.bad, np.nan, weight_w(np.where(exc.bad, 1.0, a), n))
        exc.alone = lambda i: DomainError("weight_w requires alpha in (0, 2)")
    return exc


def stable_like_kernel(af: AlphaFunction, n: Optional[int] = None) -> JumpKernel:
    """k(x, y) = w(alpha(x)) |x - y|^(-n - alpha(x)).

    Evaluation at coincident points raises DomainError.  The returned kernel
    carries the alpha function, enabling exact power-law tails and the
    small-|z| closed forms used by the quadrature engines.
    """
    n = af.dim if n is None else int(n)
    if n != af.dim:
        raise DomainError(f"kernel dimension {n} != alpha dimension {af.dim}")

    def eval_(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = x - y
        r = np.sqrt(sq_norm(d))
        if np.any(r == 0.0):
            raise DomainError("stable-like kernel evaluated on the diagonal x == y")
        a = af(np.broadcast_to(x, np.broadcast_shapes(x.shape, y.shape)))
        w = weight_w(a, n)
        return w * r ** (-(n + a))

    if af.is_constant:
        w_max = weight_w(af.alpha1, n)
    else:
        grid = np.linspace(af.alpha1, af.alpha2, 2001)
        w_max = float(np.max(weight_w(grid, n))) * (1.0 + 1e-9)

    return JumpKernel(
        dim=n,
        eval=eval_,
        symmetric_hint=af.is_constant,
        label=f"stable({af.label}, n={n})",
        alpha_fn=af,
        z_support=None,
        tail_exponent=af.alpha1,
        tail_amplitude=w_max,
    )


# ---------------------------------------------------------------------------
# modulus of continuity of alpha
# ---------------------------------------------------------------------------

_PROFILE_CACHE: dict = {}


def beta_profile(af: AlphaFunction, domain: Box, spacing: Optional[float] = None):
    """Sampled modulus profile of alpha over a box.

    Returns (distances, values): strictly increasing pair separations d_j and
    the cumulative maxima beta(d_j) = max over lattice pairs at separation
    <= d_j of |alpha(x) - alpha(y)|.  The lattice is anchored at the absolute
    origin with fixed spacing, so enlarging either the query radius or the
    domain can only grow the result (monotonicity by construction).
    """
    if domain.dim != af.dim:
        raise DomainError("beta domain dimension does not match alpha")
    if spacing is None:
        spacing = 2.0**-10 if af.dim == 1 else 1.0 / 32.0
    if spacing <= 0:
        raise DomainError("spacing must be positive")

    # keyed on the object itself: the cache holds it alive, so unlike an
    # id() its key can never be recycled by a different AlphaFunction
    key = (af, domain.lo, domain.hi, float(spacing))
    hit = _PROFILE_CACHE.get(key)
    if hit is not None:
        return hit

    h0 = float(spacing)
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    start = np.ceil(lo / h0 - 1e-12) * h0
    counts = np.floor((hi - start) / h0 + 1e-12).astype(int) + 1
    if np.any(counts < 2):
        raise DomainError("domain too small for the requested beta spacing")

    if af.dim == 1:
        xs = (start[0] + h0 * np.arange(counts[0]))[:, None]
        a = af(xs)
        jmax = counts[0] - 1
        dists = h0 * np.arange(1, jmax + 1)
        maxima = np.empty(jmax)
        for j in range(1, jmax + 1):
            maxima[j - 1] = np.max(np.abs(a[j:] - a[:-j]))
    else:
        ax0 = start[0] + h0 * np.arange(counts[0])
        ax1 = start[1] + h0 * np.arange(counts[1])
        g0, g1 = np.meshgrid(ax0, ax1, indexing="ij")
        pts = np.stack([g0, g1], axis=-1)
        a = af(pts)
        jm0, jm1 = counts[0] - 1, counts[1] - 1
        offsets = []
        for j0 in range(0, jm0 + 1):
            for j1 in range(-jm1, jm1 + 1):
                if j0 == 0 and j1 <= 0:
                    continue
                offsets.append((j0, j1, h0 * np.hypot(j0, j1)))
        offsets.sort(key=lambda t: (t[2], t[0], t[1]))
        dist_list = []
        max_list = []
        for j0, j1, d in offsets:
            s0 = a[j0:, :] if j0 else a
            t0 = a[: a.shape[0] - j0, :] if j0 else a
            if j1 >= 0:
                m = np.max(np.abs(s0[:, j1:] - t0[:, : t0.shape[1] - j1])) if j1 else np.max(np.abs(s0 - t0))
            else:
                jj = -j1
                m = np.max(np.abs(s0[:, : s0.shape[1] - jj] - t0[:, jj:]))
            dist_list.append(d)
            max_list.append(m)
        dists = np.asarray(dist_list)
        maxima = np.asarray(max_list)
        # merge duplicate separations
        uniq, inv = np.unique(np.round(dists / (h0 * 1e-9)).astype(np.int64), return_inverse=True)
        merged = np.zeros(uniq.shape[0])
        np.maximum.at(merged, inv, maxima)
        dists = uniq * (h0 * 1e-9)
        maxima = merged

    values = np.maximum.accumulate(maxima)
    result = (dists, values)
    if len(_PROFILE_CACHE) > 32:
        _PROFILE_CACHE.clear()
    _PROFILE_CACHE[key] = result
    return result


def beta_modulus(af: AlphaFunction, r, domain: Box, spacing: Optional[float] = None):
    """Sampled modulus of continuity beta(r) = sup over |x-y| <= r of |alpha(x)-alpha(y)|.

    Returns a float for scalar r, an array for array r.  The estimate is a
    lower bound on the true supremum (it only sees lattice pairs) but is
    monotone in r and in domain inclusion, and exact up to the lattice
    quantisation for Lipschitz alpha.
    """
    dists, values = beta_profile(af, domain, spacing)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr < 0):
        raise DomainError("beta_modulus requires r >= 0")
    idx = np.searchsorted(dists, r_arr * (1 + 1e-12), side="right") - 1
    out = np.where(idx >= 0, values[np.clip(idx, 0, len(values) - 1)], 0.0)
    return float(out[0]) if np.ndim(r) == 0 else out
