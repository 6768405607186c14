"""Numerical verifiers for the integrability hypotheses behind the form and operators.

Each verifier samples base points on a lattice over a user-declared region,
evaluates the governing integral with the shared annulus machinery, and
returns a ConditionReport whose verdict is labeled evidence: "pass" means
every sampled integral is finite and stable under one refinement step, never
a proof of the supremum over all of space.
"""

from __future__ import annotations

import math
from functools import partial
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import _engine as eng
from .errors import DomainError, NegativeKernel, NoConvergence, QuadratureOverflow, nan_valued
from .gridfn import Box, sq_norm
from .kernels import AlphaFunction, SplitKernel, beta_modulus, beta_profile
from .quadrature import DEFAULT_SCHEME, AnnulusScheme

# the truncated-mass deltas decay like eps^(2 - alpha2), so the ladder has to
# reach machine-precision depth for orders close to 2
_EPS_DEFAULT = tuple(2.0**-j for j in range(1, 45))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one sampled hypothesis check."""

    condition_id: str
    estimate: float
    verdict: str  # 'pass' | 'fail' | 'inconclusive'
    gamma: Optional[float] = None
    witness_points: tuple = ()
    samples: int = 0
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "inconclusive"):
            raise DomainError(f"bad verdict {self.verdict!r}")


def _sample_points(region: Box, per_axis: int) -> np.ndarray:
    pts, _ = region.node_lattice(per_axis)
    return pts


def _pt(p) -> tuple:
    return tuple(float(c) for c in np.atleast_1d(p))


def _lattice_report(cid, pts, values, converged, *, verdict=None, witness=None, estimate=None, gamma=None, details=None):
    """ConditionReport for values sampled at the lattice points pts.

    Unless given, the estimate is the sampled maximum, the verdict is pass
    when every value is finite and every sample converged, fail when a value
    is infinite, and inconclusive otherwise; the witness is the argmax point.
    A NaN value is an unresolved sample (_failed_sample): the estimate and
    the witness skip it, and the verdict is at best inconclusive.
    """
    arr = np.asarray(values, dtype=float)
    kept = arr[~np.isnan(arr)]
    if verdict is None:
        verdict = "fail" if np.any(np.isinf(arr)) else "pass" if converged and len(kept) == len(arr) else "inconclusive"
    if witness is None:
        witness = (_pt(pts[int(np.argmax(np.where(np.isnan(arr), -np.inf, arr)))]),) if len(pts) else ()
    return ConditionReport(
        condition_id=cid,
        estimate=estimate if estimate is not None else (float(np.max(kept)) if len(kept) else 0.0),
        verdict=verdict,
        gamma=gamma,
        witness_points=witness,
        samples=len(pts),
        details={"point_values": [float(v) for v in values], "points": [_pt(p) for p in pts], **(details or {})},
    )


def _l2_over(vals, vol: float) -> float:
    """Region L2 norm from equal-weight samples: sqrt(mean of squares * volume)."""
    arr = np.asarray(vals, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return 0.0
    return float(math.sqrt(float(np.mean(np.square(arr))) * vol))


def _refined(scheme: AnnulusScheme) -> AnnulusScheme:
    return scheme.with_(
        nodes_per_annulus=scheme.nodes_per_annulus + 8,
        angular_nodes=scheme.angular_nodes * 2,
    )


_SAMPLE_ERRORS = (NoConvergence, QuadratureOverflow, NegativeKernel)


def _failed_sample(exc, stalled: float = math.inf) -> float:
    """The value of a sample that met exc, one of _SAMPLE_ERRORS: NaN (left
    unresolved) when exc is nan_valued, else inf for an overflow (a blow-up)
    and ``stalled`` for NoConvergence.  A negative kernel value raises."""
    if nan_valued(exc):
        return math.nan
    if isinstance(exc, NegativeKernel):
        raise exc
    return math.inf if isinstance(exc, QuadratureOverflow) else stalled


def _stable_values(coarse, fine, pts, scheme: AnnulusScheme):
    """The values of a sampled integral refined once, from its entries (a
    value or an error) on the scheme, coarse, and refined, fine (read where
    coarse resolved), whether the two agree, and the points where they do
    not or a sample failed (_failed_sample's value there); any other error
    is raised at its point's turn."""
    values, unstable = [], []
    for p, x in enumerate(pts):
        try:
            v = eng.unwrap(coarse[p])
            vr = eng.unwrap(fine[p])
            ok = abs(vr - v) <= 10.0 * scheme.tol_abs + 1e-3 * abs(vr)
        except _SAMPLE_ERRORS as exc:
            vr, ok = _failed_sample(exc), False
        values.append(vr)
        if not ok:
            unstable.append(_pt(x))
    return values, not unstable, unstable


def _sector(tab, num=lambda ka: ka * ka):
    """num(k_a) / k_s on a PairTable, 0 where k_s == 0; the sector ratio's
    k_a^2 / k_s by default."""
    ks = tab["sym"]
    out = np.zeros_like(ks)
    np.divide(num(tab["anti"]), ks, out=out, where=ks != 0.0)
    return out


def _walks(pairs, names, X, scheme, gamma=None, at=None) -> dict:
    """The walk entries at X, or at a condition's samples at[c] of X, of the near
    fields below r_break of the conditions ``names``, from one shell_refine;
    MISC's read [Z; -Z], each face on [:m]."""
    m2 = lambda _, Z, tab: sq_norm(Z) * tab["sym"]
    ratio = lambda _, Z, tab: _sector(tab)
    fu = lambda _, Z, tab: np.abs(tab["anti"]) ** gamma
    cond4 = lambda _, Z, tab: np.sqrt(sq_norm(Z)) * np.abs(tab["anti"][..., : len(Z)])
    jstar = lambda Z, tab, kind: np.abs(tab[kind][..., : len(Z)] - tab.minus(kind)[..., : len(Z)])
    h3 = lambda _, Z, tab: np.sqrt(sq_norm(Z)) * (jstar(Z, tab, "direct") + jstar(Z, tab, "transposed"))
    groups = {"A0": ((0,), False, "(1^|z|^2) k_s near-field"), "H4": ((1,), False, "sector ratio near-field"),
              "FU": ((2, 1), False, "|k_a|^gamma and sector near-field"), "MISC": ((3, 4), True, "|z||k_a| and |z| j* near-field")}
    names, at = [c for c in groups if c in names], at or {}
    near, tol = (m2, ratio, fu, cond4, h3), 0.25 * scheme.tol_abs
    values = eng.shell_refine(pairs, X, scheme.r_break, scheme, near, [(*groups[c], at.get(c)) for c in names], tol=tol)[0] if names else []
    return {c: [v[p] for p in at[c]] if c in at else v for c, v in zip(names, values)}


def _checks(sk: SplitKernel, names, region: Optional[Box], scheme: AnnulusScheme = DEFAULT_SCHEME, per_axis=None, *,
            gamma: float = 0.5, compacts: Optional[Sequence[Box]] = None, eps_sequence=None) -> dict:
    """Each of A0, H4, FU, H5 and MISC among ``names``: its reports (or error)
    as its check_* gives them.  A0, H4, FU and MISC sample region's lattice
    (per_axis 9 by default), H5 each compact's (7; compacts default to
    [region]).  They share one faces_of, so a far mass two need is marched
    once, and their near fields are one shell_refine on the scheme and one
    on the refined scheme (A0's and H4's, each at the samples it resolved)."""
    faces = eng.faces_of(sk.base, sk)
    pairs, af, out = faces["sym"].pairs, sk.base.alpha_fn, {}
    if "FU" in names and not (0.0 < gamma <= 1.0):
        out["FU"] = DomainError("gamma must lie in (0, 1]")
    if "H5" in names:
        boxes = [region] if compacts is None else compacts
        out["H5"] = eng.attempt(lambda: [_pv_bound(sk, faces, boxes, scheme, eps_sequence, 7 if per_axis is None else per_axis)])
    todo = [c for c in dict.fromkeys(names) if c in ("A0", "H4", "FU", "MISC") and c not in out]
    if not todo:
        return out
    pts = _sample_points(region, 9 if per_axis is None else per_axis)
    walked = [c for c in todo if c != "A0" or af is None]
    walks = _walks(pairs, walked, pts, scheme, gamma)
    # A0 and H4 are sampled again on the refined scheme where each resolved
    stable_of = {c: f for c, f in (("A0", partial(_a0_values, sk, faces["sym"])), ("H4", partial(_sector_far, sk, pairs))) if c in todo}
    coarse = {c: f(pts, scheme, walks.get(c)) for c, f in stable_of.items()}
    ok = {c: [p for p, v in enumerate(vals) if not isinstance(v, Exception)] for c, vals in coarse.items()}
    fine_walks = _walks(pairs, [c for c in walked if c in stable_of], pts, _refined(scheme), at=ok)
    fine = {c: dict(zip(ok[c], f(pts[ok[c]], _refined(scheme), fine_walks.get(c)))) for c, f in stable_of.items()}
    stable = lambda c: _stable_values(coarse[c], fine[c], pts, scheme)
    reports = {
        "A0": lambda: [_a0_report(pts, region, *stable("A0"))],
        "H4": lambda: [_lattice_report("H4", pts, *stable("H4")[:2], details={"aliases": ["COND2"]})],
        "FU": lambda: _fu_reports(sk, faces, pts, scheme, gamma, walks["FU"]),
        "MISC": lambda: _misc_reports(faces, pts, region, scheme, walks["MISC"]),
    }
    out.update((c, eng.attempt(reports[c])) for c in todo)
    return out


# ---------------------------------------------------------------------------
# (A0) / (H1)
# ---------------------------------------------------------------------------


def check_A0(
    sk: SplitKernel,
    region: Box,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    per_axis: int = 9,
) -> ConditionReport:
    """Local integrability of x -> integral of (1 ^ |y-x|^2) k_s(x, y) dy.

    The report's estimate is the sampled maximum; details carry the per-point
    values and the L2 norm of the same function over the region, which is the
    square-integrability strengthening used by the generator construction.
    """
    return eng.unwrap(_checks(sk, ["A0"], region, scheme, per_axis)["A0"])[0]


def _a0_values(sk: SplitKernel, sym, X, sch: AnnulusScheme, walk) -> list:
    """A0's value, or the error it meets, at each base point of X on sch: the
    near field from walk or, for a stable-like kernel, the closed-form ball
    |z| <= S_INNER and one mid node set for every sample, plus the far mass."""
    base, dim, s = sk.base, sk.dim, eng.S_INNER
    if base.alpha_fn is None:
        nears = [w if isinstance(w, Exception) else (w[0], 0.0) for w in walk]
    else:
        locs = eng.stable_local(base.alpha_fn, X)
        ns = eng.make_nodes(dim, s, sch.r_break, sch, support=base.z_support)
        Z = ns.offsets()
        mid = lambda Xb: sym.pairs.table(Xb[:, None, :], Z).result(lambda tab: sq_norm(Z) * tab["sym"])
        mids = eng.table_rows(mid, X, eng.block_size(base, ns.count), ns.integrate_values)

        def near(p):
            loc = eng.unwrap(locs[p])
            return loc.w0 * eng._sigma(dim) * s ** (2.0 - loc.a0) / (2.0 - loc.a0), eng.unwrap(mids[p])

        nears = [eng.attempt(lambda: near(p)) for p in range(len(X))]

    def value_at(near, far):
        inner, mid = eng.unwrap(near)
        far, _, far_ok = eng.unwrap(far)
        if not far_ok:
            raise NoConvergence("far field of k_s did not resolve")
        return inner + mid + far

    return [eng.attempt(lambda: value_at(nr, far)) for nr, far in zip(nears, eng.far_masses(sym, X, [sch.r_break] * len(X), sch))]


def _a0_report(pts, region: Box, values, converged: bool, unstable) -> ConditionReport:
    vol = float(np.prod(np.asarray(region.hi) - np.asarray(region.lo)))
    l2 = float("inf") if any(math.isinf(v) for v in values) else _l2_over(values, vol)
    details = {"l2_norm_over_region": l2, "serves_l2_condition": "H1"}
    return _lattice_report("A0", pts, values, converged, witness=tuple(unstable[-1:]) or None, details=details)


# ---------------------------------------------------------------------------
# (cond2) / (H4): the sector ratio h(x)
# ---------------------------------------------------------------------------


def sector_ratio_at(sk: SplitKernel, x, scheme: AnnulusScheme = DEFAULT_SCHEME) -> float:
    """h(x) = integral of k_a^2 / k_s over {k_s != 0}, with 0/0 read as 0:
    sector_ratios on the block of one."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return eng.unwrap(sector_ratios(sk, x, scheme)[0])


def sector_ratios(sk: SplitKernel, X, scheme: AnnulusScheme = DEFAULT_SCHEME) -> list:
    """sector_ratio_at at every base point of X (P, n), as one block: one
    shell walk, and one far march whose every band reads k_a^2/k_s and
    |k_a| from one table.  Each entry is the point's value, bitwise what it
    gives on its own, or the error it meets there."""
    X = np.asarray(X, dtype=float)
    pairs = eng.KernelPairs(sk.base, sk)
    return _sector_far(sk, pairs, X, scheme, _walks(pairs, ["H4"], X, scheme)["H4"])


def _sector_far(sk: SplitKernel, pairs, X, scheme: AnnulusScheme, walks) -> list:
    """sector_ratios at X whose near fields are walks."""

    def both(Xb, Z, rows):
        (ratio, absa), errors = pairs.table(Xb, Z).result(lambda tab: (_sector(tab), np.abs(tab["anti"])), rows)
        return (ratio, errors), (absa, errors)

    def step(s, prev, rn):
        # octave i ends the march once |octave i| plus the |k_a| mass of
        # octave i + 1 (k_a^2/k_s <= |k_a|) is below cut, so each band adds
        # the octave before it and may stop the march there
        if prev is None:
            return 0.0, np.inf
        return prev[0], s[1] + abs(prev[0])

    oscillatory = sk.base.alpha_fn is not None and not sk.base.alpha_fn.is_constant
    # the points whose near field resolved march as one block
    near = [p for p, w in enumerate(walks) if not isinstance(w, Exception)]
    far = {}
    if near:
        cut = scheme.tol_abs * 0.01
        totals, _, oks = eng.octave_extend(
            both, sk.dim, [scheme.r_break] * len(near), scheme, oscillatory, step, cut, X[near], sk.base.z_support
        )
        for p, t, ok in zip(near, totals, oks):
            far[p] = t if isinstance(t, Exception) or ok else NoConvergence("sector-ratio far field did not exhaust")
    return [eng.attempt(lambda: float(eng.unwrap(w)[0] + eng.unwrap(far[p]))) for p, w in enumerate(walks)]


def check_sector_ratio(
    sk: SplitKernel,
    region: Box,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    per_axis: int = 9,
) -> ConditionReport:
    """Finiteness of sup_x h(x), h(x) = integral of k_a^2/k_s (the sector ratio)."""
    return eng.unwrap(_checks(sk, ["H4"], region, scheme, per_axis)["H4"])[0]


# ---------------------------------------------------------------------------
# (A1)-(A3) and the h <= C2 C3 + C1 chain
# ---------------------------------------------------------------------------


def check_FU(
    sk: SplitKernel,
    gamma: float,
    region: Box,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    per_axis: int = 9,
):
    """Sampled estimates of the three classical constants

        C1 = sup_x integral_{|y-x|>=1} |k_a|,
        C2 = sup_x integral_{|y-x|<1} |k_a|^gamma,
        C3 = sup over x and 0<|y-x|<=1 of |k_a|^(2-gamma)/k_s,

    plus the pointwise cross-check h(x) <= C2(x) C3 + C1(x).  Returns the
    three reports [A1, A2, A3]; the inequality outcome rides in A3's details.
    """
    return eng.unwrap(_checks(sk, ["FU"], region, scheme, per_axis, gamma=gamma)["FU"])


def _fu_reports(sk: SplitKernel, faces, pts, scheme: AnnulusScheme, gamma: float, walks) -> list:
    """check_FU's reports at the samples pts, whose near fields are walks."""
    dim = sk.dim
    anti = faces["anti"]
    # |k_a| keeps the order function, support and tail bound of k_a
    abs_anti = replace(anti, read=lambda tab: np.abs(anti.read(tab)), combo=None, label="|anti|")
    c1s = eng.far_masses(abs_anti, pts, [scheme.r_break] * len(pts), scheme)
    # C3: the pointwise sup of the ratio over a geometric probe of
    # 0 < |z| <= 1, split at the declared support, one table for every
    # sample; a row's max is exact
    probe = eng.make_nodes(dim, 1e-8, scheme.r_break, scheme, support=sk.base.z_support).offsets()

    c3 = lambda tab: _sector(tab, lambda ka: np.abs(ka) ** (2.0 - gamma))
    c3s = eng.table_rows(
        lambda Xb: anti.pairs.table(Xb[:, None, :], probe).result(c3),
        pts, eng.block_size(sk.base, len(probe)), lambda rv: np.max(rv) if len(rv) else 0.0,
    )
    c1_vals, c2_vals, c3_vals, h_vals = [], [], [], []
    conv = True
    for c1, walk, c3 in zip(c1s, walks, c3s):
        try:
            c1, _, c1_ok = eng.unwrap(c1)
            if not c1_ok:
                raise NoConvergence("far-field extension of an absolute integral did not terminate")
            near, h = eng.unwrap(walk)
            c3 = eng.unwrap(c3)
        except _SAMPLE_ERRORS as exc:
            conv = False
            failed = _failed_sample(exc)
            for vals in (c1_vals, c2_vals, c3_vals, h_vals):
                vals.append(failed)
            continue
        c1_vals.append(float(c1))
        c2_vals.append(float(near))
        c3_vals.append(float(c3))
        # the h integral's far part is bounded by C1 (|k_a| dominates k_a^2/k_s there)
        h_vals.append(float(h) + float(c1))

    # the hats skip unresolved (NaN) samples
    c1_hat, c2_hat, c3_hat = (max((v for v in vals if not math.isnan(v)), default=0.0) for vals in (c1_vals, c2_vals, c3_vals))
    finite = all(np.isfinite(v) for v in (c1_hat, c2_hat, c3_hat))
    tol = 10.0 * scheme.tol_abs + 1e-6
    chain_ok = all(
        h <= c2 * c3_hat + c1 + tol + 1e-3 * abs(h)
        for h, c2, c1 in zip(h_vals, c2_vals, c1_vals)
        if np.isfinite(h)
    )
    verdict = "pass" if (finite and conv) else ("fail" if not finite else "inconclusive")
    witness = (_pt(pts[int(np.argmax(np.where(np.isnan(h_vals), -np.inf, h_vals)))]),) if len(pts) else ()
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


# ---------------------------------------------------------------------------
# (H5) and the weak-limit bound
# ---------------------------------------------------------------------------


def check_local_pv_bound(
    sk: SplitKernel,
    compacts: Sequence[Box],
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    eps_sequence: Optional[Sequence[float]] = None,
    per_axis: int = 7,
) -> ConditionReport:
    """Uniform boundedness of the truncated antisymmetric mass.

    Evaluates integral over |y-x| >= eps of k_a(x, y) dy along the epsilon
    ladder for x sampled in each compact; passes when every ladder is Cauchy
    and bounded, fails with a witness when some ladder visibly diverges.
    The same partials, doubled in magnitude, estimate the weak-limit bound
    for kernel-difference integrands.  A sample whose far field beyond
    r_break did not resolve is not Cauchy.  The samples' ladders are one
    block kappa_partials.
    """
    return eng.unwrap(_checks(sk, ["H5"], None, scheme, per_axis, compacts=compacts, eps_sequence=eps_sequence)["H5"])[0]


def _pv_bound(sk: SplitKernel, faces, compacts: Sequence[Box], scheme: AnnulusScheme, eps_sequence, per_axis: int):
    """check_local_pv_bound's report, its ladders read from faces."""
    if not compacts:
        raise DomainError("need at least one compact")
    eps = tuple(float(e) for e in (eps_sequence if eps_sequence is not None else _EPS_DEFAULT))
    sup_abs = 0.0
    witness = None
    any_diverge = False
    all_cauchy = True
    per_point = []
    pts = np.concatenate([_sample_points(box, per_axis) for box in compacts])
    for x, entry in zip(pts, eng.kappa_partials(sk.base, pts, eps, scheme, sk, faces)):
        try:
            partials, kdiag = eng.unwrap(entry)
        except _SAMPLE_ERRORS as exc:
            all_cauchy = False
            sup = _failed_sample(exc, math.nan)
            if math.isinf(sup):
                # the truncated mass escaped the magnitude cap: certified blow-up
                any_diverge = True
                sup_abs = sup
                witness = _pt(x)
            per_point.append({"x": _pt(x), "sup": sup, "cauchy": False})
            continue
        ja = -0.5 * partials  # integral of k_a(x, .) over |y-x| >= eps
        m = float(np.max(np.abs(ja)))
        if m > sup_abs:
            sup_abs = m
            witness = _pt(x)
        deltas = np.abs(np.diff(ja))
        last = float(deltas[-1]) if len(deltas) else float("nan")
        allowed = 10.0 * scheme.tol_abs + scheme.tol_rel * abs(float(ja[-1]))
        # half of fp_noise: these partials carry the 1/2 prefactor; a far
        # field that did not resolve leaves the ladder's limit unknown
        cauchy = last <= allowed and 0.5 * kdiag.get("fp_noise", 0.0) <= allowed and kdiag["far_ok"]
        tail = deltas[-6:]
        diverging = len(tail) == 6 and bool(np.all(tail >= tail[0] * 0.9)) and last > 100.0 * scheme.tol_abs
        all_cauchy = all_cauchy and cauchy
        any_diverge = any_diverge or diverging
        if diverging:
            witness = _pt(x)
        per_point.append({"x": _pt(x), "sup": m, "cauchy": bool(cauchy)})
    verdict = "fail" if any_diverge else ("pass" if all_cauchy else "inconclusive")
    return ConditionReport(
        condition_id="H5",
        estimate=sup_abs,
        verdict=verdict,
        witness_points=(witness,) if witness is not None else (),
        samples=len(per_point),
        details={
            "weaklimit_estimate": 2.0 * sup_abs,
            "eps": eps,
            "per_point": per_point,
        },
    )


# ---------------------------------------------------------------------------
# (cond4), (H2), (H3)
# ---------------------------------------------------------------------------


def check_misc_integrability(
    sk: SplitKernel,
    region: Box,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
    per_axis: int = 9,
):
    """Reports for the drift-moment, far-field L2, and pair-difference conditions:

    COND4: integral over 0 < |y-x| <= 1 of |y-x| |k_a(x, y)| dy, sampled sup;
    H2:    x -> integral over |y-x| >= 1 of k_s, both sup and L2-over-region;
    H3:    x -> integral over 0 < |z| <= 1 of |z| j*(x, z) dz in L2_loc, with
           j*(x,z) = |j(x,x+z) - j(x,x-z)| + |j(x+z,x) - j(x-z,x)|.
    """
    return eng.unwrap(_checks(sk, ["MISC"], region, scheme, per_axis)["MISC"])


def _misc_reports(faces, pts, region: Box, scheme: AnnulusScheme, walks) -> list:
    """check_misc_integrability's reports at the samples pts, whose near fields are walks."""
    vol = float(np.prod(np.asarray(region.hi) - np.asarray(region.lo)))
    h2s = eng.far_masses(faces["sym"], pts, [scheme.r_break] * len(pts), scheme)
    cond4_vals, h2_vals, h3_vals = [], [], []
    conv = True
    for h2, walk in zip(h2s, walks):
        try:
            v4, v3 = eng.unwrap(walk)
        except _SAMPLE_ERRORS as exc:
            conv = False
            v4 = v3 = _failed_sample(exc)
        try:
            h2v, _, h2ok = eng.unwrap(h2)
            if not h2ok:
                raise NoConvergence("far field of k_s did not resolve")
        except _SAMPLE_ERRORS as exc:
            conv = False
            h2v = _failed_sample(exc)
        cond4_vals.append(float(v4))
        h2_vals.append(float(h2v))
        h3_vals.append(float(v3))

    return [
        _lattice_report("COND4", pts, cond4_vals, conv),
        _lattice_report("H2", pts, h2_vals, conv, details={"l2_norm_over_region": _l2_over(h2_vals, vol), "pass_mode": "sup_or_l2"}),
        _lattice_report("H3", pts, h3_vals, conv, details={"l2_norm_over_region": _l2_over(h3_vals, vol)}),
    ]


# ---------------------------------------------------------------------------
# the beta integral of the variable-order proposition
# ---------------------------------------------------------------------------


def _t_space_integral(g: Callable[[np.ndarray], np.ndarray], *, width: float = 3.0, max_panels: int = 60):
    """Integral over t in [0, inf) of g(t), g >= 0, by fixed GL panels.

    Returns (value, verdict) with verdict in {'converged', 'diverged',
    'inconclusive'}; divergence is declared when panel masses stop decaying
    and dominate everything accumulated so far, or overflow entirely.
    """
    tgl, wgl = eng.gl_rule(24)
    total = 0.0
    prev = None
    grow_run = 0
    for k in range(max_panels):
        a, b = k * width, (k + 1) * width
        t = 0.5 * (a + b) + 0.5 * width * tgl
        with np.errstate(over="ignore"):
            v = g(t)
        if not np.all(np.isfinite(v)):
            return float("inf"), "diverged"
        s = float(np.dot(wgl, v) * 0.5 * width)
        total += s
        if s > 1e10:
            return float("inf"), "diverged"
        if prev is not None:
            if s >= prev * 0.999 and s > 1e-13 * max(total, 1.0):
                grow_run += 1
                if grow_run >= 4:
                    return float("inf"), "diverged"
            else:
                grow_run = 0
            if s < prev and s < 1e-14 * max(total, 1.0):
                return total, "converged"
        if s == 0.0 and (prev == 0.0 or prev is None) and k >= 2:
            return total, "converged"
        prev = s
    return total, "inconclusive"


def check_beta_integral(
    af: AlphaFunction,
    domain: Optional[Box] = None,
    *,
    beta: Optional[Callable] = None,
    spacing: Optional[float] = None,
    scheme: AnnulusScheme = DEFAULT_SCHEME,
) -> ConditionReport:
    """The log-weighted square integral of the order modulus,

        integral over (0, 1] of (beta(r) |log r|)^2 r^(-1-alpha2) dr,

    which is the hypothesis of the variable-order generation result.  The
    companion integrals — the Cauchy-Schwarz route used for the
    pair-difference condition and the absolute-integrability variant (whose
    divergence, e.g. for Lipschitz beta with alpha2 >= 1, is reported as data
    and does not affect the verdict) — are returned in the details.

    ``beta`` overrides the sampled modulus with an exact callable; otherwise
    the modulus is measured on a lattice over ``domain`` and extended below
    the lattice resolution by the Lipschitz-type linear extrapolation
    beta(r) ~ beta(h) r / h (flagged in the details).
    """
    a2 = af.alpha2
    extrapolated = False
    if beta is not None:
        beta_fn = beta
    else:
        if domain is None:
            raise DomainError("check_beta_integral needs a domain when no beta override is given")
        dists, _ = beta_profile(af, domain, spacing)
        if len(dists) == 0:
            raise DomainError("domain too small to measure the order modulus")
        d0 = float(dists[0])
        b0 = float(beta_modulus(af, d0, domain, spacing))
        extrapolated = True

        def beta_fn(r):
            r = np.asarray(r, dtype=float)
            sampled = beta_modulus(af, r, domain, spacing)
            small = b0 * r / d0 if b0 > 0 else np.zeros_like(r)
            return np.where(r < d0, small, sampled)

    def g_main(t):
        b = np.asarray(beta_fn(np.exp(-t)), dtype=float)
        return (b * t) ** 2 * np.exp(a2 * t)

    def g_cs(t):
        b = np.asarray(beta_fn(np.exp(-t)), dtype=float)
        return b * t * np.exp((a2 - 1.0) * t)

    def g_remark(t):
        b = np.asarray(beta_fn(np.exp(-t)), dtype=float)
        return b * t * np.exp(a2 * t)

    main, main_v = _t_space_integral(g_main)
    cs, cs_v = _t_space_integral(g_cs)
    remark, remark_v = _t_space_integral(g_remark)

    gp = min(0.49, max(0.25, (a2 - 1.0) / 2.0 + 0.05))
    cs_bound = math.sqrt(main) / math.sqrt(1.0 - 2.0 * gp) if np.isfinite(main) else float("inf")
    cs_ok = (not np.isfinite(cs)) or cs <= cs_bound * (1.0 + 1e-9) + 10.0 * scheme.tol_abs

    verdict = {"converged": "pass", "diverged": "fail", "inconclusive": "inconclusive"}[main_v]
    return ConditionReport(
        condition_id="BETA_INT",
        estimate=float(main),
        verdict=verdict,
        samples=0,
        details={
            "alpha2": a2,
            "main_status": main_v,
            "cs_integral": float(cs),
            "cs_status": cs_v,
            "gamma_prime": gp,
            "cs_bound": float(cs_bound),
            "cs_inequality_ok": bool(cs_ok),
            "absolute_variant": float(remark),
            "absolute_variant_status": remark_v,
            "modulus_extrapolated": extrapolated,
        },
    )
