"""Test functions on R^n (n = 1, 2): boxes, analytic closures, lattice samples.

Two flavours of :class:`GridFunction` exist.  The *analytic* variant carries
exact value/gradient/Hessian closures (smooth bumps, plane waves); the
*sampled* variant interpolates nodal values on a regular lattice inside a
box and vanishes outside it.  Quadrature engines query both through the
same interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError

__all__ = ["Box", "GridFunction"]


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_n, hi_n], n in {1, 2}."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise DomainError("box lo/hi dimension mismatch")
        if len(lo) not in (1, 2):
            raise DomainError(f"only dimensions 1 and 2 are supported, got {len(lo)}")
        if any(a >= b for a, b in zip(lo, hi)):
            raise DomainError(f"degenerate box: lo={lo}, hi={hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    @property
    def radius(self) -> float:
        """Half-diagonal: every point of the box is within this distance of the center."""
        return float(np.linalg.norm((np.asarray(self.hi) - np.asarray(self.lo)) / 2.0))

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((x >= lo) & (x <= hi), axis=-1)

    def node_lattice(self, per_axis: int):
        """Endpoint-inclusive lattice: (points (m, n), spacing h). Requires per_axis >= 2."""
        if per_axis < 2:
            raise DomainError("per_axis must be at least 2")
        axes = [np.linspace(a, b, per_axis) for a, b in zip(self.lo, self.hi)]
        h = (self.hi[0] - self.lo[0]) / (per_axis - 1)
        for a, b in zip(self.lo, self.hi):
            if not np.isclose((b - a) / (per_axis - 1), h, rtol=1e-12):
                raise DomainError("node_lattice requires equal spacing on all axes")
        if self.dim == 1:
            pts = axes[0][:, None]
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.column_stack([g0.ravel(), g1.ravel()])
        return pts, float(h)

    def cell_lattice(self, per_axis: int):
        """Midpoint-rule cells: (cell centers (m, n), cell volume)."""
        if per_axis < 1:
            raise DomainError("per_axis must be at least 1")
        axes = []
        vol = 1.0
        for a, b in zip(self.lo, self.hi):
            h = (b - a) / per_axis
            axes.append(a + h * (np.arange(per_axis) + 0.5))
            vol *= h
        if self.dim == 1:
            pts = axes[0][:, None]
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.column_stack([g0.ravel(), g1.ravel()])
        return pts, float(vol)


# ---------------------------------------------------------------------------
# helpers for the sampled variant
# ---------------------------------------------------------------------------


def _nodal_gradient(values: np.ndarray, h: float) -> np.ndarray:
    """Central differences at the nodes; one-sided at the edges.

    values has shape (N,) in 1D or (N, N) in 2D; result carries one extra
    trailing axis for the component.
    """
    if values.ndim == 1:
        return np.gradient(values, h)[..., None]
    gx, gy = np.gradient(values, h, h)
    return np.stack([gx, gy], axis=-1)


class _Interp:
    """Multilinear interpolation of nodal data on a regular box lattice, zero outside."""

    def __init__(self, box: Box, values: np.ndarray, h: float):
        self.box = box
        self.values = values
        self.h = h

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lo = np.asarray(self.box.lo)
        t = (x - lo) / self.h
        v = self.values
        if self.box.dim == 1:
            n = v.shape[0]
            i = np.clip(np.floor(t[..., 0]).astype(int), 0, n - 2)
            f = t[..., 0] - i
            out = v[i] * (1 - f) + v[i + 1] * f
        else:
            n0, n1 = v.shape[0], v.shape[1]
            i = np.clip(np.floor(t[..., 0]).astype(int), 0, n0 - 2)
            j = np.clip(np.floor(t[..., 1]).astype(int), 0, n1 - 2)
            fx = t[..., 0] - i
            fy = t[..., 1] - j
            out = (
                v[i, j] * (1 - fx) * (1 - fy)
                + v[i + 1, j] * fx * (1 - fy)
                + v[i, j + 1] * (1 - fx) * fy
                + v[i + 1, j + 1] * fx * fy
            )
        inside = self.box.contains(x)
        return np.where(inside, out, 0.0)


class _InterpVec:
    """Componentwise multilinear interpolation of a nodal vector field."""

    def __init__(self, box: Box, field: np.ndarray, h: float):
        self.parts = [_Interp(box, field[..., c], h) for c in range(field.shape[-1])]

    def __call__(self, x):
        return np.stack([p(x) for p in self.parts], axis=-1)


# ---------------------------------------------------------------------------
# GridFunction
# ---------------------------------------------------------------------------


class GridFunction:
    """A scalar test function u on R^n with value/gradient/Hessian access.

    Construct through :meth:`analytic`, :meth:`bump`, :meth:`wave` or
    :meth:`sampled`.  Calling the object evaluates u at points of shape
    (..., n); ``grad`` returns shape (..., n) and ``hess`` shape (..., n, n).
    """

    def __init__(
        self,
        dim: int,
        variant: str,
        value_fn: Callable,
        grad_fn: Callable,
        hess_fn: Callable,
        *,
        box: Optional[Box] = None,
        support_radius: Optional[float] = None,
        center=None,
        trig: Optional[Tuple[float, str]] = None,
        hess_bound: Optional[float] = None,
        label: str = "u",
        lattice: Optional[Tuple[np.ndarray, float]] = None,
    ):
        if dim not in (1, 2):
            raise DomainError(f"only dimensions 1 and 2 are supported, got {dim}")
        if variant not in ("analytic", "sampled"):
            raise DomainError(f"unknown variant {variant!r}")
        self.dim = dim
        self.variant = variant
        self._value = value_fn
        self._grad = grad_fn
        self._hess = hess_fn
        self.box = box
        self.support_radius = support_radius
        self.center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
        self.trig = trig
        self._hess_bound = hess_bound
        self.label = label
        self.lattice = lattice  # (values array in grid shape, spacing) for sampled

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        return np.asarray(self._value(np.asarray(x, dtype=float)), dtype=float)

    def grad(self, x):
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)

    def hess(self, x):
        return np.asarray(self._hess(np.asarray(x, dtype=float)), dtype=float)

    def fourth_along(self, x, h: float = 1e-2, hess_x=None) -> float:
        """Estimate of d^4u at the point: second difference of the Hessian trace.

        Only used to size small-ball correction terms, so moderate accuracy
        is fine.  hess_x, when given, is the Hessian at x itself: the centre
        of the stencil is x + 0.0, which is x bit for bit unless a coordinate
        of x is -0.0; only then is the Hessian evaluated there.
        """
        x = np.asarray(x, dtype=float)
        if hess_x is not None and np.any(np.signbit(x) & (x == 0.0)):
            hess_x = None
        tr = []
        for s in (-1.0, 0.0, 1.0):
            pts = x + np.full(self.dim, 0.0)
            out = 0.0
            for axis in range(self.dim):
                e = np.zeros(self.dim)
                e[axis] = 1.0
                H = hess_x if (s == 0.0 and hess_x is not None) else self.hess(pts + s * h * e)
                out += H[axis, axis]
            tr.append(out)
        return float((tr[0] - 2.0 * tr[1] + tr[2]) / h**2)

    def hess_sup(self) -> float:
        """Global bound on the spectral norm of the Hessian (estimate)."""
        if self._hess_bound is not None:
            return self._hess_bound
        # probe the support box
        if self.box is None:
            raise DomainError("hess_sup needs either a closed-form bound or a support box")
        pts, _ = self.box.node_lattice(65 if self.dim == 1 else 33)
        H = self.hess(pts)
        bound = float(np.max(np.sum(np.abs(H), axis=-1)))  # row-sum norm >= spectral
        self._hess_bound = 1.05 * bound + 1e-300
        return self._hess_bound

    # -- sampling ----------------------------------------------------------

    def to_sampled(self, per_axis: int) -> "GridFunction":
        """Sample an analytic function on its support box; boundary rows are zeroed."""
        if self.box is None:
            raise DomainError("to_sampled requires a compactly supported function")
        pts, h = self.box.node_lattice(per_axis)
        vals = self(pts)
        if self.dim == 1:
            grid = vals.copy()
            grid[0] = 0.0
            grid[-1] = 0.0
        else:
            grid = vals.reshape(per_axis, per_axis).copy()
            grid[0, :] = 0.0
            grid[-1, :] = 0.0
            grid[:, 0] = 0.0
            grid[:, -1] = 0.0
        return GridFunction.sampled(self.box, grid, label=self.label + "~sampled")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def analytic(
        dim: int,
        value_fn: Callable,
        grad_fn: Callable,
        hess_fn: Callable,
        *,
        box: Optional[Box] = None,
        support_radius: Optional[float] = None,
        center=None,
        trig: Optional[Tuple[float, str]] = None,
        hess_bound: Optional[float] = None,
        label: str = "u",
    ) -> "GridFunction":
        """Wrap exact closures. Provide box+support_radius for compact support,
        or trig=(xi, 'cos'|'sin') for an unbounded plane wave."""
        if box is None and trig is None:
            raise DomainError("an analytic function needs a support box or trig metadata")
        return GridFunction(
            dim,
            "analytic",
            value_fn,
            grad_fn,
            hess_fn,
            box=box,
            support_radius=support_radius,
            center=center,
            trig=trig,
            hess_bound=hess_bound,
            label=label,
        )

    @staticmethod
    def bump(center, radius: float, amplitude: float = 1.0, label: Optional[str] = None) -> "GridFunction":
        """Smooth bump A*exp(1 - 1/(1 - |x-c|^2/R^2)) supported on the ball |x-c| <= R."""
        c = np.atleast_1d(np.asarray(center, dtype=float))
        dim = c.shape[0]
        R = float(radius)
        A = float(amplitude)
        if R <= 0:
            raise DomainError("bump radius must be positive")

        def _s(x):
            d = x - c
            return np.sum(d * d, axis=-1) / R**2

        def _phi(s):
            s = np.minimum(s, 1.0 - 1e-14)
            inside = s < 1.0 - 1e-13
            with np.errstate(divide="ignore", over="ignore"):
                val = np.exp(1.0 - 1.0 / (1.0 - s))
            return np.where(inside, val, 0.0)

        def value(x):
            return A * _phi(_s(x))

        def _dphi(s):
            # d(phi)/ds = -phi / (1-s)^2 on the support
            s = np.minimum(s, 1.0 - 1e-14)
            inside = s < 1.0 - 1e-13
            with np.errstate(divide="ignore", over="ignore"):
                val = -np.exp(1.0 - 1.0 / (1.0 - s)) / (1.0 - s) ** 2
            return np.where(inside, val, 0.0)

        def _d2phi(s):
            s = np.minimum(s, 1.0 - 1e-14)
            inside = s < 1.0 - 1e-13
            with np.errstate(divide="ignore", over="ignore"):
                phi = np.exp(1.0 - 1.0 / (1.0 - s))
                val = phi * (1.0 / (1.0 - s) ** 4 - 2.0 / (1.0 - s) ** 3)
            return np.where(inside, val, 0.0)

        def grad(x):
            s = _s(x)
            ds = 2.0 * (x - c) / R**2
            return A * _dphi(s)[..., None] * ds

        def hess(x):
            s = _s(x)
            ds = 2.0 * (x - c) / R**2
            eye = np.eye(dim)
            outer = ds[..., :, None] * ds[..., None, :]
            return A * (_d2phi(s)[..., None, None] * outer + _dphi(s)[..., None, None] * (2.0 / R**2) * eye)

        box = Box(tuple(c - R), tuple(c + R))
        return GridFunction(
            dim,
            "analytic",
            value,
            grad,
            hess,
            box=box,
            support_radius=R,
            center=c,
            hess_bound=None,
            label=label or f"bump(c={tuple(c)}, R={R}, A={A})",
        )

    @staticmethod
    def wave(xi: float, kind: str = "cos", label: Optional[str] = None) -> "GridFunction":
        """1D plane wave cos(xi*x) or sin(xi*x); unbounded support with trig metadata."""
        if kind not in ("cos", "sin"):
            raise DomainError("wave kind must be 'cos' or 'sin'")
        xi = float(xi)
        f = np.cos if kind == "cos" else np.sin
        df = (lambda t: -np.sin(t)) if kind == "cos" else np.cos

        def value(x):
            return f(xi * x[..., 0])

        def grad(x):
            return (xi * df(xi * x[..., 0]))[..., None]

        def hess(x):
            return (-(xi**2) * f(xi * x[..., 0]))[..., None, None]

        return GridFunction(
            1,
            "analytic",
            value,
            grad,
            hess,
            trig=(xi, kind),
            hess_bound=xi**2,
            label=label or f"{kind}({xi}*x)",
        )

    @staticmethod
    def sampled(box: Box, grid_values: np.ndarray, label: str = "sampled") -> "GridFunction":
        """Nodal values on the box lattice (shape (N,) in 1D, (N, N) in 2D).

        Values must vanish on the boundary ring; the function is the
        multilinear interpolant inside the box and zero outside.
        """
        grid = np.asarray(grid_values, dtype=float)
        dim = box.dim
        if grid.ndim != dim:
            raise DomainError(f"grid values must have ndim == box dim ({dim})")
        if dim == 2 and grid.shape[0] != grid.shape[1]:
            raise DomainError("2D sampled functions use square lattices")
        n = grid.shape[0]
        if n < 3:
            raise DomainError("sampled lattice needs at least 3 nodes per axis")
        if dim == 1:
            edge = max(abs(grid[0]), abs(grid[-1]))
        else:
            edge = max(
                np.max(np.abs(grid[0, :])),
                np.max(np.abs(grid[-1, :])),
                np.max(np.abs(grid[:, 0])),
                np.max(np.abs(grid[:, -1])),
            )
        if edge != 0.0:
            raise DomainError("sampled values must vanish on the boundary ring of the lattice")
        h = (box.hi[0] - box.lo[0]) / (n - 1)
        for a, b in zip(box.lo, box.hi):
            if not np.isclose((b - a) / (n - 1), h, rtol=1e-12):
                raise DomainError("sampled lattice must have equal spacing on all axes")

        interp = _Interp(box, grid, h)
        gfield = _nodal_gradient(grid, h)
        ginterp = _InterpVec(box, gfield, h)
        hfield = np.stack(
            [_nodal_gradient(gfield[..., c], h) for c in range(dim)], axis=-2
        )  # (..., n, n)

        def hess_fn(x):
            x = np.asarray(x, dtype=float)
            rows = []
            for r in range(dim):
                rows.append(_InterpVec(box, hfield[..., r, :], h)(x))
            return np.stack(rows, axis=-2)

        hess_bound = float(np.max(np.sum(np.abs(hfield), axis=-1))) * 1.05 + 1e-300
        gf = GridFunction(
            dim,
            "sampled",
            interp,
            ginterp,
            hess_fn,
            box=box,
            support_radius=box.radius,
            center=box.center,
            hess_bound=hess_bound,
            label=label,
            lattice=(grid, h),
        )
        return gf
