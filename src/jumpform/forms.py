"""Bilinear forms: the symmetrized energy, the truncated forms, and their limit.

Continuum forms integrate an outer midpoint lattice over the union support
box B against inner annulus quadrature.  The outer domain can be restricted
to B exactly: the integrand of the double integral vanishes when both
arguments are outside B, and the remaining (x outside, y inside) sliver is
folded back by the symmetry of k_s into a per-point correction

    u(x) v(x) * integral over {y outside B} of k_s(x, y) dy,

whose radial pieces are split exactly at the box tangency radii so that no
quadrature panel straddles the indicator jump.

The cells of one call are evaluated as a block, the way generator points
are: one near-diagonal shell walk for every cell (generic kernels), the
mid and complement panels of every cell stacked into (cells x nodes)
tables, and one block ``plain_truncated`` for the antisymmetric and
truncated integrals.  Each cell keeps its own radii, panels, node sums and
scalar arithmetic, so it gets the bits it has on its own, and an error is
raised at the cell that meets it, in cell order.

The Markov and lower-bound checks run on the lattice analogue of the form
(nodal values, counting measure scaled by the cell volume), whose kernel
matrix takes one evaluation per ordered pair (KernelPairs.among).  For a
nonnegative kernel matrix the Markov inequality and the Young-inequality
lower bound hold exactly there, term by term, which is what makes them
testable at tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _engine as eng
from .errors import DomainError, NoConvergence
from .gridfn import Box, GridFunction
from .kernels import JumpKernel, SplitKernel
from .quadrature import DEFAULT_SCHEME, AnnulusScheme

__all__ = [
    "FormValue",
    "MarkovReport",
    "BoundReport",
    "union_box",
    "energy_E",
    "eta",
    "eta_n",
    "markov_check",
    "bound_checks",
    "FORM_CELLS_1D",
    "FORM_CELLS_2D",
]

FORM_CELLS_1D = 129
FORM_CELLS_2D = 25


@dataclass(frozen=True)
class FormValue:
    """A form evaluation split into its symmetric and antisymmetric parts."""

    symmetric_part: float
    antisymmetric_part: float
    total: float
    diagnostics: dict = field(default_factory=dict)

    @staticmethod
    def of(sym: float, anti: float, diagnostics: Optional[dict] = None) -> "FormValue":
        return FormValue(sym, anti, sym + anti, diagnostics or {})


@dataclass(frozen=True)
class MarkovReport:
    value: float
    passed: bool
    tol: float
    lattice_nodes: int
    clipped_nodes: int


@dataclass(frozen=True)
class BoundReport:
    eta_uu: float
    lower_slack: float
    lower_ok: bool
    h_hat: float
    alpha0: float
    sector_c: float
    sector_c_min: float
    sector_ok: bool
    tol: float


def union_box(u: GridFunction, v: GridFunction) -> Box:
    """Smallest box containing both support boxes."""
    if u.box is None or v.box is None:
        raise DomainError("forms need compactly supported functions")
    if u.dim != v.dim:
        raise DomainError("dimension mismatch")
    lo = tuple(min(a, b) for a, b in zip(u.box.lo, v.box.lo))
    hi = tuple(max(a, b) for a, b in zip(u.box.hi, v.box.hi))
    return Box(lo, hi)


def _cells(u: GridFunction, v: GridFunction, per_axis: Optional[int]):
    box = union_box(u, v)
    m = per_axis if per_axis is not None else (FORM_CELLS_1D if u.dim == 1 else FORM_CELLS_2D)
    pts, vol = box.cell_lattice(m)
    return box, pts, vol


def _corner_radius(box: Box, x: np.ndarray) -> float:
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    far = np.maximum(np.abs(x - lo), np.abs(hi - x))
    return float(np.linalg.norm(far))


def _complement_sets(x: np.ndarray, box: Box, scheme: AnnulusScheme, r_far: float) -> list:
    """The node sets of the integral of k_s(x, y) over y outside the box, for
    x inside it, up to r_far (the far mass takes over beyond it).

    Radial panels are split at every box tangency radius (edge and corner
    distances), so the inside/outside indicator is radially smooth on each
    panel.
    """
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    if box.dim == 1:
        radii = [float(x[0] - lo[0]), float(hi[0] - x[0])]
        sch = scheme
    else:
        edges = [x[0] - lo[0], hi[0] - x[0], x[1] - lo[1], hi[1] - x[1]]
        corners = [
            math.hypot(cx - x[0], cy - x[1])
            for cx in (lo[0], hi[0])
            for cy in (lo[1], hi[1])
        ]
        radii = [float(r) for r in edges + corners]
        sch = scheme.with_(angular_nodes=min(256, scheme.angular_nodes * 4))
    cuts = sorted({r for r in radii if 0.0 < r < r_far * (1.0 - 1e-12)}) + [r_far]
    d_in = max(min(radii), 1e-12)
    sets = []
    lo_r = d_in * (1.0 - 1e-12)
    for hi_r in cuts:
        if hi_r > lo_r * (1.0 + 1e-12):
            sets.append(eng.make_nodes(box.dim, lo_r, hi_r, sch))
            lo_r = hi_r
    return sets


# ---------------------------------------------------------------------------
# the symmetrized energy
# ---------------------------------------------------------------------------


def _energy_densities(
    sk: SplitKernel, faces, u: GridFunction, v: GridFunction, X, UX, VX, box: Box, scheme: AnnulusScheme
) -> list:
    """Density of the energy double integral (y integrated out) at every
    cell centre of X (P, n), where u and v take the values UX and VX.

    The cells go as one block: the near-diagonal walk of a generic kernel
    is one shell_refine, and the mid panels [s_in, r_far] and the
    complement panels of every cell, each cut at the cell's own radii, are
    stacked into block tables (set_integrals); the far masses beyond r_far
    are the entries of one far_masses block.  Each entry is the cell's
    value, bitwise what the cell gives on its own, or the first error it
    meets on its own, in the order it would meet them: inner ball, mid
    panel, far mass, complement panels.
    """
    dim = sk.dim
    sym = faces["sym"]
    cap = eng.block_size(sk.base, 1)

    def pair_diff(rows, Y):
        # (u(x) - u(y)) (v(x) - v(y)) at the points Y of the base points X[rows]
        return (UX[rows] - u(Y)) * (VX[rows] - v(Y))

    def mid(rows, Z, of):
        Xr = X[rows]
        v, errors = sym.block(Xr, Z, of)
        return ((pair_diff(rows, eng.shifted(Xr, Z)) * v, errors),)

    def outside(rows, Z, of):
        Xr = X[rows]
        v, errors = sym.block(Xr, Z, of)
        return ((np.where(box.contains(eng.shifted(Xr, Z)), 0.0, v), errors),)

    if sk.base.alpha_fn is not None:
        s_in = min(eng.S_INNER, scheme.r_break)
        locs = eng.stable_local(sk.base.alpha_fn, X)
        c_pair = 2.0 if dim == 1 else math.pi
        GU, GV = u.grad(X).reshape(len(X), dim), v.grad(X).reshape(len(X), dim)

        def inner(p):
            loc = eng.unwrap(locs[p])
            return c_pair * float(GU[p] @ GV[p]) * loc.w0 * s_in ** (2.0 - loc.a0) / (2.0 - loc.a0)

        inners = [eng.attempt(lambda: inner(p)) for p in range(len(X))]
    else:
        s_in = min(1e-2, scheme.r_break)
        (walks,), _, _ = eng.shell_refine(
            sym.pairs, X, s_in, scheme, (lambda rows, Z, tab: pair_diff(rows, eng.shifted(X[rows], Z)) * tab["sym"],),
            [((0,), False, "energy near-diagonal", None)], tol=0.25 * scheme.tol_abs,
        )
        inners = [w if isinstance(w, Exception) else w[0] for w in walks]
    # no panel runs past the kernel's declared support, where the far mass is 0
    zs = sk.base.z_support
    r_fars = [_corner_radius(box, x) if zs is None else min(_corner_radius(box, x), zs) for x in X]
    memo: dict = {}
    mids = eng.set_integrals(mid, range(len(X)), [eng.make_nodes(dim, s_in, r, scheme, memo=memo) for r in r_fars], cap)
    # the far masses and complement panels of the cells where they count
    # (u(x) v(x) != 0)
    far = [p for p in range(len(X)) if UX[p] != 0.0 and VX[p] != 0.0]
    fars = dict(zip(far, eng.far_masses(sym, X[far], [r_fars[p] for p in far], scheme)))
    owners, sets = [], []
    for p in far:
        cell = _complement_sets(X[p], box, scheme, r_fars[p])
        owners += [p] * len(cell)
        sets += cell
    panels = [[] for _ in X]
    for p, s in zip(owners, eng.set_integrals(outside, owners, sets, cap)):
        panels[p].append(s)

    def density(p):
        ux, vx = float(UX[p]), float(VX[p])
        val = eng.unwrap(inners[p]) + eng.unwrap(mids[p][0])
        if ux == 0.0 or vx == 0.0:
            # u(x) v(x) times the far mass, which is finite and >= 0, is the
            # signed zero u(x) v(x) itself
            return val + ux * vx
        far_v, _, far_ok = eng.unwrap(fars[p])
        if not far_ok and ux * vx != 0.0:
            raise NoConvergence(f"energy density: far field of k_s beyond |z| = {r_fars[p]:.3g} did not resolve")
        val = val + ux * vx * far_v
        total = 0.0
        for s in panels[p]:
            total += eng.unwrap(s[0])
        return val + ux * vx * float(total + far_v)

    return [eng.attempt(lambda: density(p)) for p in range(len(X))]


def energy_E(
    u: GridFunction,
    v: GridFunction,
    sk: SplitKernel,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    outer_per_axis: Optional[int] = None,
) -> float:
    """The double integral of (u(x)-u(y))(v(x)-v(y)) k_s(x,y) over y != x."""
    box, pts, vol = _cells(u, v, outer_per_axis)
    faces = eng.faces_of(sk.base, sk)
    UX, VX = u(pts), v(pts)
    acc = 0.0
    for e in _energy_densities(sk, faces, u, v, pts, UX, VX, box, scheme):
        acc += eng.unwrap(e)
    return float(acc * vol)


# ---------------------------------------------------------------------------
# eta and its truncations
# ---------------------------------------------------------------------------


def eta(
    u: GridFunction,
    v: GridFunction,
    sk: SplitKernel,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    outer_per_axis: Optional[int] = None,
) -> FormValue:
    """The limiting form: half the energy plus the absolutely convergent
    antisymmetric double integral of (u(x) - u(y)) v(y) k_a(x, y)."""
    box, pts, vol = _cells(u, v, outer_per_axis)
    faces = eng.faces_of(sk.base, sk)
    UX, VX = u(pts), v(pts)
    anti = [p for p, vx in enumerate(VX) if vx != 0.0]
    densities = _energy_densities(sk, faces, u, v, pts, UX, VX, box, scheme)
    # J(x) = integral of (u(y) - u(x)) k_a(y, x) dy, the reversed face around x
    js = dict(zip(anti, eng.anti_integral(sk, faces, "anti_rev", u, pts[anti], scheme)))
    e_acc = 0.0
    a_acc = 0.0
    for p in range(len(pts)):
        e_acc += eng.unwrap(densities[p])
        if p in js:
            a_acc += float(VX[p]) * eng.unwrap(js[p])
    return FormValue.of(
        0.5 * e_acc * vol,
        a_acc * vol,
        {"outer_cells": len(pts), "outer_volume": vol, "anti_cells_skipped": len(pts) - len(anti)},
    )


def eta_n(
    u: GridFunction,
    v: GridFunction,
    k: JumpKernel,
    n_trunc: int,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    outer_per_axis: Optional[int] = None,
) -> float:
    """The truncated form -<L_n u, v>, L_n u(x) = integral over |y-x| > 1/n
    of (u(y) - u(x)) k(x, y) dy."""
    if n_trunc < 1:
        raise DomainError("n_trunc must be at least 1")
    box, pts, vol = _cells(u, v, outer_per_axis)
    direct = eng.faces_of(k)["direct"]
    VX = v(pts)
    live = [p for p, vx in enumerate(VX) if vx != 0.0]
    acc = 0.0
    for p, entry in zip(live, eng.plain_truncated(direct, u, pts[live], 1.0 / n_trunc, scheme)):
        lnu, _ = eng.unwrap(entry)
        acc += float(VX[p]) * lnu
    return float(-acc * vol)


# ---------------------------------------------------------------------------
# lattice form and the semi-Dirichlet property checks
# ---------------------------------------------------------------------------


class _LatticeForm:
    """The jump form on a finite lattice: eta_h(f, g) = sum over ordered pairs
    (i, j), i != j, of (f_j - f_i) g_j k(x_j, x_i) V^2."""

    def __init__(self, sk: SplitKernel, pts: np.ndarray, vol: float):
        # k_s(x_j, x_i) and k_a(x_j, x_i) from one evaluation of each pair
        self.I, self.J, tab = eng.KernelPairs(sk.base, sk).among(pts)
        self.ks = tab["sym"]
        self.ka = tab["anti"]
        self.K = self.ks + self.ka
        self.vol = vol
        self.m = len(pts)

    def form(self, f: np.ndarray, g: np.ndarray) -> float:
        t = (f[self.J] - f[self.I]) * g[self.J]
        return float(np.dot(t, self.K) * self.vol**2)

    def h_hat(self) -> float:
        ratio = np.zeros_like(self.ks)
        np.divide(self.ka * self.ka, self.ks, out=ratio, where=self.ks != 0.0)
        per_j = np.bincount(self.J, weights=ratio, minlength=self.m) * self.vol
        return float(np.max(per_j)) if len(per_j) else 0.0

    def norm_sq(self, f: np.ndarray) -> float:
        return float(np.dot(f, f) * self.vol)


def _lattice_of(u: GridFunction, per_axis: Optional[int]):
    """Node lattice and nodal values for the discrete form."""
    if u.box is None:
        raise DomainError("lattice checks need a compactly supported function")
    if u.variant == "sampled" and per_axis is None:
        grid, _ = u.lattice
        n = grid.shape[0]
    else:
        n = per_axis if per_axis is not None else (33 if u.dim == 1 else 13)
    pts, h = u.box.node_lattice(n)
    return pts, h**u.dim, u(pts)


def markov_check(
    u: GridFunction,
    sk: SplitKernel,
    tol: float = 1e-8,
    per_axis: Optional[int] = None,
) -> MarkovReport:
    """Normal contraction property: eta(u+ ^ 1, u - u+ ^ 1) >= 0.

    On the lattice form every ordered-pair term of this expression is
    individually nonnegative whenever the kernel is, so the check passes up
    to floating-point roundoff for admissible kernels.
    """
    pts, vol, uv = _lattice_of(u, per_axis)
    lf = _LatticeForm(sk, pts, vol)
    nu = np.clip(uv, 0.0, 1.0)
    w = uv - nu
    val = lf.form(nu, w)
    return MarkovReport(
        value=val,
        passed=bool(val >= -tol),
        tol=tol,
        lattice_nodes=lf.m,
        clipped_nodes=int(np.count_nonzero(w)),
    )


def bound_checks(
    u: GridFunction,
    v: GridFunction,
    sk: SplitKernel,
    c: float = 2.0,
    tol: float = 1e-8,
    per_axis: Optional[int] = None,
    h_sup: Optional[float] = None,
) -> BoundReport:
    """Lower bound and sector inequality on the lattice form.

    Lower bound: eta(u, u) + alpha0 |u|^2 >= 0 with alpha0 = h_hat / 2, the
    Young-inequality constant extracted from the Cauchy-Schwarz step; h_hat
    is the lattice sector ratio unless a sampled continuum value is passed.
    Sector: |eta(u, v)| <= c sqrt(eta(u,u) + alpha0|u|^2) sqrt(eta(v,v) +
    alpha0|v|^2); the smallest sampled c is reported alongside the verdict.
    """
    if u.box is None or v.box is None:
        raise DomainError("lattice checks need compactly supported functions")
    box = union_box(u, v)
    n = per_axis if per_axis is not None else (33 if u.dim == 1 else 13)
    pts, h = box.node_lattice(n)
    vol = h**u.dim
    lf = _LatticeForm(sk, pts, vol)
    uv = u(pts)
    vv = v(pts)
    h_hat = lf.h_hat() if h_sup is None else float(h_sup)
    alpha0 = 0.5 * h_hat
    e_uu = lf.form(uv, uv)
    e_vv = lf.form(vv, vv)
    e_uv = lf.form(uv, vv)
    slack = e_uu + alpha0 * lf.norm_sq(uv)
    den_u = max(e_uu + alpha0 * lf.norm_sq(uv), 0.0)
    den_v = max(e_vv + alpha0 * lf.norm_sq(vv), 0.0)
    den = math.sqrt(den_u) * math.sqrt(den_v)
    c_min = abs(e_uv) / den if den > 0 else (0.0 if abs(e_uv) <= tol else float("inf"))
    return BoundReport(
        eta_uu=e_uu,
        lower_slack=slack,
        lower_ok=bool(slack >= -tol),
        h_hat=h_hat,
        alpha0=alpha0,
        sector_c=c,
        sector_c_min=float(c_min),
        sector_ok=bool(c_min <= c + 1e-12),
        tol=tol,
    )
