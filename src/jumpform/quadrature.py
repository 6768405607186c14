"""Annulus quadrature schemes and the basic truncated / compensated integrals.

The scheme object fixes every discretisation choice (panel growth, nodes per
panel, tolerances, caps), so that two evaluations with the same scheme are
bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _engine as eng
from .errors import DomainError
from .gridfn import GridFunction
from .kernels import JumpKernel, SplitKernel


@dataclass(frozen=True)
class AnnulusScheme:
    """Discretisation parameters shared by every integral in the package.

    eps_min           smallest radius resolved by generic annulus ladders
    r_break           radius separating the near and far regimes (the
                      compensator cutoff; integrals split exactly here)
    r_max             largest radius reached by explicit panels
    growth            geometric growth factor of consecutive panel widths
    nodes_per_annulus Gauss-Legendre nodes per radial panel
    angular_nodes     equispaced angular nodes per circle (2D only)
    tol_abs, tol_rel  absolute/relative targets for adaptive pieces
    magnitude_cap     any partial sum beyond this raises QuadratureOverflow
    """

    eps_min: float = 1e-6
    r_break: float = 1.0
    r_max: float = 64.0
    growth: float = 2.0
    nodes_per_annulus: int = 16
    angular_nodes: int = 32
    tol_abs: float = 1e-8
    tol_rel: float = 1e-6
    magnitude_cap: float = 1e12

    def __post_init__(self):
        if not (0.0 < self.eps_min < self.r_break < self.r_max):
            raise DomainError("need 0 < eps_min < r_break < r_max")
        if self.growth <= 1.0:
            raise DomainError("growth must exceed 1")
        if self.nodes_per_annulus < 2 or self.angular_nodes < 4:
            raise DomainError("too few quadrature nodes")
        if self.angular_nodes % 2:
            raise DomainError("angular_nodes must be even so that +z and -z pair up")
        if self.tol_abs <= 0 or self.tol_rel <= 0 or self.magnitude_cap <= 0:
            raise DomainError("tolerances and magnitude_cap must be positive")

    def with_(self, **kw) -> "AnnulusScheme":
        return replace(self, **kw)


DEFAULT_SCHEME = AnnulusScheme()


def _default_eps(m: int = 20):
    return tuple(2.0**-j for j in range(1, m + 1))


@dataclass(frozen=True)
class PVEstimate:
    """A principal-value limit along a decreasing cutoff sequence."""

    value: float
    eps: tuple
    partials: tuple
    converged: bool
    last_delta: float


def truncated_integral(
    k: JumpKernel,
    u: GridFunction,
    x,
    eps: float,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
) -> float:
    """Integral of (u(y) - u(x)) k(x, y) over |y - x| > eps."""
    if eps <= 0:
        raise DomainError("truncation radius must be positive")
    face = eng.faces_of(k)["direct"]
    val, _ = eng.plain_truncated(face, u, x, eps, scheme)
    return val


def compensated_integral(
    k,
    u: GridFunction,
    x,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
) -> float:
    """Integral of (u(x+z) - u(x) - grad u(x).z 1_{|z|<=1}) k(x, x+z) dz.

    Pass a plain kernel to integrate against it directly, or a SplitKernel
    to integrate against its symmetric part with the same annulus geometry
    used by pv_limit and drift_correction — the combination that realizes
    the regularization identity to quadrature accuracy.
    """
    base, which, sk = (k.base, "sym", k) if isinstance(k, SplitKernel) else (k, "direct", None)
    val, diag = eng.generator_point(base, u, x, scheme, which, sk=sk)
    return val - diag["drift_part"]


def drift_correction(
    sk: SplitKernel,
    u: GridFunction,
    x,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
) -> float:
    """0.5 grad u(x) . integral over 0 < |z| <= 1 of z (k_s(x, x+z) - k_s(x, x-z)) dz."""
    _, diag = eng.generator_point(sk.base, u, x, scheme, "sym", sk=sk)
    return diag["drift_part"]


def pv_limit(
    sk: SplitKernel,
    u: GridFunction,
    x,
    eps_sequence: Optional[Sequence[float]] = None,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
) -> PVEstimate:
    """Symmetric principal value of (u(y) - u(x)) k_s(x, y) along shrinking cutoffs.

    Convergence is judged on the final increment against the scheme
    tolerances; the partial sums are reported so a caller can inspect the
    whole Cauchy tail.
    """
    return _pv_on_face(eng.faces_of(sk.base, sk)["sym"], u, x, eps_sequence, scheme)


def _pv_on_face(face: eng.Face, u: GridFunction, x, eps_sequence, scheme: AnnulusScheme):
    """pv_limit against a symmetric face, whose faces_of set may already hold its far masses.

    At a block x (P, n) it gives a list with each point's PVEstimate, or the
    error the point meets on its own, from one block truncated_bands.
    """
    eps = tuple(float(e) for e in (eps_sequence if eps_sequence is not None else _default_eps()))
    one = np.ndim(x) < 2
    bands = eng.truncated_bands(face, u, np.asarray(x, dtype=float).reshape(-1, face.dim), eps, scheme)
    out = [eng.attempt(lambda: _estimate(eng.unwrap(b)[0], eps, scheme)) for b in bands]
    return eng.unwrap(out[0]) if one else out


def _estimate(partials, eps: tuple, scheme: AnnulusScheme) -> PVEstimate:
    """The PVEstimate of one point's partials along eps."""
    if len(partials) >= 2:
        delta = float(abs(partials[-1] - partials[-2]))
        converged = delta <= scheme.tol_abs + scheme.tol_rel * abs(float(partials[-1]))
    else:
        delta = float("nan")
        converged = False
    return PVEstimate(
        value=float(partials[-1]),
        eps=eps,
        partials=tuple(float(p) for p in partials),
        converged=converged,
        last_delta=delta,
    )
