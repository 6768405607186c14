"""Pointwise operator application: L, its dual, the symmetrized operator,
the principal-value form B, the killing term, and the adjoint.

Generator values (L, its dual, the symmetrized operator and the generator
pass of the adjoint) take a call's points as one ``_engine.generator_block``
(one per thread): each node set is one (points x nodes) array pass, and
every point keeps the bits it has on its own.  A point error comes back in
its point's place, so only the failing points are flagged, and the other
points' work is not redone.  The killing term's cutoff ladders and B's
principal values are blocks too, in which each point's error comes back
in its place.
Blocks can be fanned out across a thread pool; results are kept in point
order, which keeps payloads bit-identical for any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _engine as eng
from .errors import DomainError, NegativeKernel, NoConvergence, QuadratureOverflow, UnresolvedKilling
from .gridfn import GridFunction
from .kernels import AlphaFunction, JumpKernel, SplitKernel, split, stable_like_kernel
# pv_limit stays a module attribute: the benchmark's tracer wraps it here by name
from .quadrature import DEFAULT_SCHEME, AnnulusScheme, _pv_on_face, pv_limit  # noqa: F401

__all__ = [
    "OperatorEvaluation",
    "KillingTerm",
    "SignReport",
    "KAPPA_EPS",
    "apply_L",
    "apply_Lambda",
    "apply_Ltilde",
    "apply_B",
    "apply_Lstar",
    "killing_term",
    "symbol_check",
    "submarkov_sign",
]

# deep ladder: power-law tails make the late partials nearly free
KAPPA_EPS = tuple(2.0 ** -m for m in range(1, 45))


@dataclass(frozen=True)
class OperatorEvaluation:
    """Per-point values of one operator, with per-point diagnostics."""

    operator_id: str
    points: np.ndarray
    values: np.ndarray
    diagnostics: tuple

    @property
    def flagged(self):
        """Indices whose evaluation failed; values there are NaN."""
        return tuple(i for i, d in enumerate(self.diagnostics) if "error" in d)


@dataclass(frozen=True)
class KillingTerm:
    """Truncated killing integrals along a shrinking cutoff sequence."""

    points: np.ndarray
    eps_sequence: np.ndarray
    partials: np.ndarray
    values: np.ndarray
    converged: np.ndarray
    sign_summary: str
    diagnostics: tuple = field(default=())


@dataclass(frozen=True)
class SignReport:
    verdict: str
    sign_summary: str
    tol: float
    interpretation: str


def _points_array(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, dim)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DomainError(f"points must have shape (m, {dim})")
    return pts


# errors that flag their point; argument errors are checked before the loop
_POINT_ERRORS = (DomainError, NegativeKernel, NoConvergence, QuadratureOverflow)


def _point_blocks(fn, pts: np.ndarray, threads: int) -> list:
    """fn(block) -> one entry per point of the block, made for pts in at
    most ``threads`` blocks, fanned out on a thread pool: one entry per
    point of pts, in point order."""
    size = max(1, -(-len(pts) // max(threads, 1)))
    blocks = [pts[s : s + size] for s in range(0, len(pts), size)]
    if threads <= 1 or len(blocks) <= 1:
        return [entry for block in blocks for entry in fn(block)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return [entry for out in ex.map(fn, blocks) for entry in out]


def _generator_rows(base: JumpKernel, u: GridFunction, pts: np.ndarray, scheme, which, sk, threads: int) -> list:
    """generator_point's result at every point, or the point error it met,
    from one generator_block per block of _point_blocks; any other error
    raises."""
    rows = _point_blocks(lambda X: eng.generator_block(base, u, X, scheme, which, sk=sk), pts, threads)
    for row in rows:
        if isinstance(row, Exception) and not isinstance(row, _POINT_ERRORS):
            raise row
    return rows


def _eval_generator(
    operator_id: str,
    base: JumpKernel,
    u: GridFunction,
    points,
    scheme: AnnulusScheme,
    which: str,
    sk: Optional[SplitKernel],
    threads: int,
) -> OperatorEvaluation:
    pts = _points_array(points, base.dim)
    eng.generator_kinds(base, u, which)
    rows = [
        (float("nan"), {"which": which, "error": str(r)}) if isinstance(r, Exception) else (float(r[0]), r[1])
        for r in _generator_rows(base, u, pts, scheme, which, sk, threads)
    ]
    values = np.array([r[0] for r in rows])
    return OperatorEvaluation(operator_id, pts, values, tuple(r[1] for r in rows))


def apply_L(
    j: JumpKernel,
    u: GridFunction,
    points,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    threads: int = 1,
) -> OperatorEvaluation:
    """Compensated integral against j(x, x+z) plus the drift built from j's
    own forward/backward difference in z."""
    return _eval_generator("L", j, u, points, scheme, "direct", None, threads)


def apply_Lambda(
    j: JumpKernel,
    u: GridFunction,
    points,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    threads: int = 1,
) -> OperatorEvaluation:
    """The same construction against the transposed kernel j(x+z, x)."""
    return _eval_generator("LAMBDA", j, u, points, scheme, "transposed", None, threads)


def apply_Ltilde(
    sk: SplitKernel,
    u: GridFunction,
    points,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    threads: int = 1,
) -> OperatorEvaluation:
    """The construction against the symmetric part; halfway between L and
    its dual at the shared quadrature nodes."""
    return _eval_generator("LTILDE", sk.base, u, points, scheme, "sym", sk, threads)


# ---------------------------------------------------------------------------
# B: principal value against k_s, absolute integral against k_a
# ---------------------------------------------------------------------------


def apply_B(
    sk: SplitKernel,
    u: GridFunction,
    points,
    eps_sequence: Optional[Sequence[float]] = None,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    threads: int = 1,
) -> OperatorEvaluation:
    """PV integral of (u(y)-u(x)) k_s(x,y) plus the absolutely convergent
    antisymmetric integral."""
    pts = _points_array(points, sk.dim)
    if u.dim != sk.dim:
        raise DomainError("dimension mismatch between kernel, function and point")
    if eps_sequence is not None:
        eng._eps_ladder(eps_sequence, scheme)
    # one set of faces, so that the principal value and the antisymmetric
    # integral share the far masses of the one-sided faces: the integrals
    # of (u(y) - u(x)) k_a(x, y) dy at every point, as one block, march
    # them for every point at once
    faces = eng.faces_of(sk.base, sk)
    antis = eng.anti_integral(sk, faces, "anti", u, pts, scheme)
    pvs = _point_blocks(lambda X: _pv_on_face(faces["sym"], u, X, eps_sequence, scheme), pts, threads)

    def one(pv, anti):
        try:
            pv = eng.unwrap(pv)
            anti = eng.unwrap(anti)
        except _POINT_ERRORS as exc:
            return float("nan"), {"error": str(exc)}
        diag = {
            "pv_converged": pv.converged,
            "pv_last_delta": pv.last_delta,
            "anti_part": anti,
        }
        if not pv.converged:
            diag["warning"] = "principal value not Cauchy along the cutoff sequence"
        return float(pv.value + anti), diag

    rows = [one(pv, anti) for pv, anti in zip(pvs, antis)]
    values = np.array([r[0] for r in rows])
    return OperatorEvaluation("B", pts, values, tuple(r[1] for r in rows))


# ---------------------------------------------------------------------------
# killing term and the adjoint
# ---------------------------------------------------------------------------


def _sign_summary(values: np.ndarray, tol: float) -> str:
    pos = bool(np.any(values > tol))
    neg = bool(np.any(values < -tol))
    if pos and neg:
        return "mixed"
    if pos:
        return "nonnegative"
    if neg:
        return "nonpositive"
    return "zero"


def killing_term(
    j: JumpKernel,
    points,
    eps_sequence: Optional[Sequence[float]] = None,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    threads: int = 1,
    sk: Optional[SplitKernel] = None,
) -> KillingTerm:
    """Truncated integrals -2 int_{|y-x|>=eps} j_a(x,y) dy per point.

    The accepted value is the last partial; a point is marked converged when
    the final increment passes the scheme tolerance.  Vague convergence of
    the underlying measures does not force pointwise convergence, so
    non-Cauchy points are flagged rather than refined forever.
    """
    eps = np.asarray(list(eps_sequence) if eps_sequence is not None else KAPPA_EPS, dtype=float)
    pts = _points_array(points, j.dim)
    eng._eps_ladder(eps, scheme)
    faces = eng.faces_of(j, sk)
    entries = _point_blocks(lambda X: eng.kappa_partials(j, X, eps, scheme, sk=sk, faces=faces), pts, threads)

    def one(entry):
        try:
            partials, diag = eng.unwrap(entry)
        except _POINT_ERRORS as exc:
            return np.full(len(eps), np.nan), False, {"error": str(exc)}
        ok = False
        if len(partials) >= 2:
            delta = abs(partials[-1] - partials[-2])
            allowed = scheme.tol_abs + scheme.tol_rel * abs(partials[-1])
            ok = bool(delta <= allowed)
            if diag.get("fp_noise", 0.0) > allowed:
                # increments smaller than the cancellation floor prove nothing
                ok = False
                diag["warning"] = "rounding floor of the kernel evaluations exceeds the tolerance"
            if not diag["far_ok"]:
                ok = False
                diag["warning"] = "far field of the killing integrand did not resolve"
        diag["last_delta"] = float(abs(partials[-1] - partials[-2])) if len(partials) >= 2 else 0.0
        return partials, ok, diag

    rows = [one(entry) for entry in entries]
    partials = np.vstack([r[0] for r in rows])
    converged = np.array([r[1] for r in rows], dtype=bool)
    values = partials[:, -1]
    finite = values[np.isfinite(values)]
    summary = _sign_summary(finite, 1e-8) if len(finite) else "zero"
    return KillingTerm(
        points=pts,
        eps_sequence=eps,
        partials=partials,
        values=values,
        converged=converged,
        sign_summary=summary,
        diagnostics=tuple(r[2] for r in rows),
    )


_LSTAR_FACES = ("transposed", "direct", "sym")


def apply_Lstar(
    j: JumpKernel,
    u: GridFunction,
    points,
    eps_sequence: Optional[Sequence[float]] = None,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    threads: int = 1,
) -> OperatorEvaluation:
    """The adjoint: dual operator plus killing multiplication.

    Raises UnresolvedKilling when the killing partials are not Cauchy at a
    point where u is nonzero (where u vanishes the killing product drops
    out and the dual alone decides the value); a point where the killing
    term failed with an error is flagged with it instead.  Each point also
    carries the residual of the algebraic identity dual + killing =
    (2*symmetrized + killing) - direct: the dual, direct and symmetrized
    values come from one node pass.
    """
    pts = _points_array(points, j.dim)
    eng.generator_kinds(j, u, _LSTAR_FACES)
    sk = split(j)
    kt = killing_term(j, pts, eps_sequence=eps_sequence, scheme=scheme, threads=threads, sk=sk)

    rows: list = [None] * len(pts)
    need = []
    for i, (x, ux) in enumerate(zip(pts, u(pts).tolist())):
        if ux != 0.0 and not kt.converged[i]:
            if "error" not in kt.diagnostics[i]:
                where = tuple(float(c) for c in x)
                raise UnresolvedKilling(f"killing term not Cauchy at {where} where the function is nonzero")
            rows[i] = (float("nan"), {"error": kt.diagnostics[i]["error"]})
        else:
            need.append((i, ux))

    gen = _generator_rows(j, u, pts[[i for i, _ in need]], scheme, _LSTAR_FACES, sk, threads)
    for (i, ux), faces in zip(need, gen):
        if isinstance(faces, Exception):
            rows[i] = (float("nan"), {"error": str(faces)})
            continue
        (lam, dlam), (ldir, _), (lsym, _) = faces
        kap = float(kt.values[i]) if kt.converged[i] else 0.0
        value = lam + kap * ux
        residual = abs((lam + kap * ux) - ((2.0 * lsym + kap * ux) - ldir))
        diag = {
            "kappa": kap,
            "kappa_converged": bool(kt.converged[i]),
            "identity_residual": residual,
            "tail_bound": dlam.get("tail_bound", 0.0),
        }
        rows[i] = (float(value), diag)

    values = np.array([r[0] for r in rows])
    return OperatorEvaluation("LSTAR", pts, values, tuple(r[1] for r in rows))


# ---------------------------------------------------------------------------
# symbol and sign verdicts
# ---------------------------------------------------------------------------


def symbol_check(
    af: AlphaFunction,
    xi: float,
    x,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
) -> float:
    """Residual of the plane-wave identity for the power-law kernel.

    Applies the operator to cos and sin waves of frequency xi and returns
    the complex modulus of L e_xi(x) + |xi|^alpha(x) e_xi(x).
    """
    if af.dim != 1:
        raise DomainError("plane-wave checks are one-dimensional")
    xi = float(xi)
    if xi == 0.0:
        return 0.0
    x = np.asarray(x, dtype=float).reshape(-1)
    k = stable_like_kernel(af, 1)
    u_cos = GridFunction.wave(xi, "cos")
    u_sin = GridFunction.wave(xi, "sin")
    l_cos, _ = eng.generator_point(k, u_cos, x, scheme, "direct")
    l_sin, _ = eng.generator_point(k, u_sin, x, scheme, "direct")
    s = abs(xi) ** float(af(x))
    return float(math.hypot(l_cos + s * float(u_cos(x)), l_sin + s * float(u_sin(x))))


def submarkov_sign(kt: KillingTerm, tol: float = 1e-8) -> SignReport:
    """Sign verdict for a killing term, with the semigroup reading attached.

    A nonpositive killing term makes the adjoint semigroup sub-Markovian;
    identically zero is the boundary case and reported as nonpositive.
    """
    finite = kt.values[np.isfinite(kt.values)]
    summary = _sign_summary(finite, tol) if len(finite) else "zero"
    verdict = "nonpositive" if summary in ("zero", "nonpositive") else summary
    if verdict == "nonpositive":
        text = "killing term nonpositive on the sampled points: the adjoint semigroup is sub-Markovian"
    elif verdict == "nonnegative":
        text = "killing term nonnegative: no sub-Markov conclusion for the adjoint semigroup"
    else:
        text = "killing term changes sign across the sampled points"
    return SignReport(verdict=verdict, sign_summary=summary, tol=tol, interpretation=text)
