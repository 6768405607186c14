"""The three benchmark workloads.

A workload is built from the seed (the program receives only the generated
inputs), warmed up, and then run in rounds: one round is one pass over the
same list of operations.  An operation is one API call or one CLI request;
each feeds one of the three rates (base points, form cells, check samples).

Inputs vary with the seed only in positions, amplitudes and frequencies,
never in sizes, so the work per round is nearly the same on every seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

POINTS, CELLS, SAMPLES = "point_evals", "form_cells", "check_samples"


@dataclass
class Op:
    """One operation: ``call()`` returns the output, ``units(out)`` the work
    it counts toward ``metric``, and ``failure(out)`` a reason it failed
    (a NaN or flagged entry, a non-pass verdict, a bad exit code) or None."""

    name: str
    metric: str
    call: Callable
    units: Callable
    failure: Callable


@dataclass
class Check:
    """An output check on the operations it names; ``detail`` says what was compared."""

    name: str
    ok: bool
    detail: str
    ops: tuple

    def __post_init__(self):
        self.ok = bool(self.ok)  # comparisons of NumPy scalars give numpy.bool_


def _eval_failure(ev):
    if ev.flagged or not np.all(np.isfinite(ev.values)):
        return f"{len(ev.flagged)} flagged, {int(np.sum(~np.isfinite(ev.values)))} NaN"
    return None


def _killing_failure(kt):
    if not np.all(kt.converged) or not np.all(np.isfinite(kt.values)):
        return f"{int(np.sum(~kt.converged))} points not converged"
    return None


def _verdict_failure(reports):
    reports = reports if isinstance(reports, list) else [reports]
    bad = [f"{r.condition_id}:{r.verdict}" for r in reports if r.verdict != "pass"]
    return ", ".join(bad) or None


def _samples(reports):
    reports = reports if isinstance(reports, list) else [reports]
    return sum(r.samples for r in reports)


def _finite_failure(x):
    return None if math.isfinite(x) else "non-finite value"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _fixed(n: int):
    return lambda out: n


def interleave(*groups):
    """Spread the operations of each metric group evenly through the round,
    so that each rate is measured in slices rather than in one block: the
    host's speed drifts over seconds, and a block would sample one state."""
    keyed = [((j + 0.5) / len(g), k, op) for k, g in enumerate(groups) for j, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


class Workload:
    name = ""

    def __init__(self, jf, seed: int, workdir: str):
        self.jf = jf
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def ops(self) -> list:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def checks(self, out: dict) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# varorder-far
# ---------------------------------------------------------------------------


class VarorderFar(Workload):
    """README kernel, alpha = 0.8 + 0.2 sin x on [0.6, 1.0], through the API.

    Chosen because an oscillating order sends every far field beyond
    |z| = 64 onto stratified octave sampling in ``_engine._far_numeric``; that
    path plus ``weight_w``/``gamma`` is where ``eta``, ``apply_Lstar``,
    ``apply_B`` and ``killing_term`` spend their time.
    """

    name = "varorder-far"
    LATTICE = 41  # duality pairing nodes; 33 misses the 1e-4 allowance
    LSTAR_CHUNKS = 4
    SUBLATTICE = 9  # points for Lambda, Ltilde, B and the killing term
    CELLS = 21  # eta/energy outer cells; 17 leaves eta = -<Lu, v> near 1e-3
    CHECK_PER_AXIS = 3
    SECTOR_PER_AXIS = 2
    FU_GAMMA = 0.5

    def __init__(self, jf, seed, workdir):
        super().__init__(jf, seed, workdir)
        cu = float(self.rng.uniform(-0.25, 0.25))
        cv = cu + float(self.rng.uniform(0.05, 0.2))
        self.alpha = lambda s: 0.8 + 0.2 * np.sin(s)
        af = jf.AlphaFunction(fn=lambda x: self.alpha(x[..., 0]), alpha1=0.6, alpha2=1.0, dim=1)
        self.sk = jf.split(jf.stable_like_kernel(af))
        # v sits inside the support of u, so the lattice (over u's box) and
        # the share of points where u or v vanish do not move with the seed
        self.u = jf.GridFunction.bump((cu,), 1.0, float(self.rng.uniform(0.8, 1.2)))
        self.v = jf.GridFunction.bump((cv,), 0.75, float(self.rng.uniform(0.8, 1.2)))
        self.pts, self.h = jf.union_box(self.u, self.v).node_lattice(self.LATTICE)
        self.gv = self.v(self.pts)
        self.fv = self.u(self.pts)
        self.in_v = self.gv > 0.0
        # L* is only needed where v is nonzero; split so that no single call
        # holds the point rate for seconds
        self.lstar_chunks = np.array_split(self.pts[self.in_v], self.LSTAR_CHUNKS)
        self.sub_step = (self.LATTICE - 1) // (self.SUBLATTICE - 1)
        self.sub = self.pts[:: self.sub_step]
        c = float(self.rng.uniform(-0.3, 0.3))
        # two halves of [c - 1, c + 1], so that no single check call lasts long
        self.regions = [jf.Box((c - 1.0,), (c,)), jf.Box((c,), (c + 1.0,))]

    def ops(self):
        jf, sk, u, v = self.jf, self.sk, self.u, self.v
        ops_, forms, cond = jf.operators, jf.forms, jf.conditions
        k = sk.base
        n = len(self.pts)
        s = len(self.sub)
        lstar = [
            Op(f"Lstar_u{i}", POINTS, lambda c=c: ops_.apply_Lstar(k, u, c), _fixed(len(c)), _eval_failure)
            for i, c in enumerate(self.lstar_chunks)
        ]
        others = [
            Op("Lambda_u", POINTS, lambda: ops_.apply_Lambda(k, u, self.sub), _fixed(s), _eval_failure),
            Op("Ltilde_u", POINTS, lambda: ops_.apply_Ltilde(sk, u, self.sub), _fixed(s), _eval_failure),
            Op("L_u", POINTS, lambda: ops_.apply_L(k, u, self.pts), _fixed(n), _eval_failure),
            Op("B_u", POINTS, lambda: ops_.apply_B(sk, u, self.sub), _fixed(s), _eval_failure),
            Op("kappa", POINTS, lambda: ops_.killing_term(k, self.sub, sk=sk), _fixed(s), _killing_failure),
            Op("L_v", POINTS, lambda: ops_.apply_L(k, v, self.pts), _fixed(n), _eval_failure),
        ]
        points = [op for pair in zip(lstar, others) for op in pair] + others[len(lstar):]
        cells = [
            Op("eta_uv", CELLS, lambda: forms.eta(u, v, sk, outer_per_axis=self.CELLS), _fixed(self.CELLS),
               lambda fv: _finite_failure(fv.total)),
            Op("energy_uv", CELLS, lambda: forms.energy_E(u, v, sk, outer_per_axis=self.CELLS),
               _fixed(self.CELLS), _finite_failure),
        ]
        samples = []
        for i, reg in enumerate(self.regions):
            samples += [
                Op(f"H4.{i}", SAMPLES, lambda reg=reg: cond.check_sector_ratio(sk, reg, per_axis=self.SECTOR_PER_AXIS),
                   _samples, _verdict_failure),
                Op(f"A0.{i}", SAMPLES, lambda reg=reg: cond.check_A0(sk, reg, per_axis=self.CHECK_PER_AXIS),
                   _samples, _verdict_failure),
                Op(f"MISC.{i}", SAMPLES,
                   lambda reg=reg: cond.check_misc_integrability(sk, reg, per_axis=self.CHECK_PER_AXIS),
                   _samples, _verdict_failure),
                Op(f"FU.{i}", SAMPLES, lambda reg=reg: cond.check_FU(sk, self.FU_GAMMA, reg, per_axis=self.CHECK_PER_AXIS),
                   _samples, _verdict_failure),
            ]
        return interleave(points, cells, samples)

    def warmup(self):
        jf, sk = self.jf, self.sk
        x = self.pts[self.LATTICE // 2 : self.LATTICE // 2 + 1]
        jf.apply_Lstar(sk.base, self.u, x)
        jf.apply_B(sk, self.u, x)
        jf.eta(self.u, self.v, sk, outer_per_axis=1)
        jf.check_A0(sk, self.regions[0], per_axis=2)

    def checks(self, out):
        h = self.h
        res = []
        l_sub = out["L_u"].values[:: self.sub_step]
        alg = np.max(np.abs(l_sub + out["Lambda_u"].values - 2.0 * out["Ltilde_u"].values))
        res.append(Check("L + Lambda - 2 Ltilde = 0", alg <= 1e-10, f"max {alg:.2e} (tol 1e-10)",
                         ("L_u", "Lambda_u", "Ltilde_u")))
        lstar = np.zeros(len(self.pts))
        lstar_ops = tuple(f"Lstar_u{i}" for i in range(self.LSTAR_CHUNKS))
        lstar_ev = [out[name] for name in lstar_ops]
        lstar[self.in_v] = np.concatenate([ev.values for ev in lstar_ev])
        lhs = h * float(np.dot(lstar, self.gv))
        rhs = h * float(np.dot(self.fv, out["L_v"].values))
        gap = abs(lhs - rhs) / (1e-4 * (1.0 + abs(rhs)))
        res.append(Check("<L*u, v> = <u, Lv>", gap <= 1.0, f"gap/allowance {gap:.3f} (limit 1)", lstar_ops + ("L_v",)))
        kconv = all(d.get("kappa_converged") for ev in lstar_ev for d in ev.diagnostics)
        res.append(Check("L* killing term resolved", kconv, f"kappa converged everywhere: {kconv}", lstar_ops))
        pair = h * float(np.dot(out["L_u"].values, self.gv))
        e = out["eta_uv"]
        rel = abs(e.total + pair) / abs(e.total)
        res.append(Check("eta(u, v) = -<Lu, v>", rel <= 1e-3, f"relative {rel:.2e} (tol 1e-3)", ("eta_uv", "L_u")))
        sym = abs(e.symmetric_part - 0.5 * out["energy_uv"])
        res.append(Check("eta symmetric part = E / 2", sym <= 1e-12 * abs(out["energy_uv"]),
                         f"gap {sym:.2e}", ("eta_uv", "energy_uv")))
        bl = float(np.max(np.abs(out["B_u"].values - l_sub)))
        res.append(Check("PV form B = compensated form L", bl <= 1e-5, f"max {bl:.2e} (tol 1e-5)", ("B_u", "L_u")))
        k_fn = oracles.stable_1d(self.alpha)
        for cid, oracle in (("H4", oracles.sector_ratio_1d), ("A0", oracles.jump_mass_1d)):
            names = tuple(f"{cid}.{i}" for i in range(len(self.regions)))
            worst = max(_rel(got, oracle(k_fn, p[0]))
                        for name in names
                        for p, got in zip(out[name].details["points"], out[name].details["point_values"]))
            res.append(Check(f"{cid} against log-grid oracle", worst <= 0.05,
                             f"worst relative {worst:.2e} (limit 5e-2)", names))
        return res


# ---------------------------------------------------------------------------
# dense-points
# ---------------------------------------------------------------------------


class DensePoints(Workload):
    """Many cheap base points whose tails are closed forms.

    Chosen because the far field is a small share here: the time goes to
    per-point Python work (``make_nodes``, ``stable_local``, small
    ``NodeSet.integrate`` batches) and to the bulk m^2-pair kernel
    evaluation of the lattice form.
    """

    name = "dense-points"
    BUMP_POINTS = 251
    WAVE_POINTS = 151
    GRID_2D = 15  # per axis
    FORM_2D = 11  # eta / eta_n outer cells per axis
    ETA_N = tuple(2**m for m in range(1, 9))
    LATTICE_1D = 601
    LATTICE_2D = 21
    A0_PER_AXIS = 6
    A0_REGIONS = 6
    ALPHA_2D = 0.5

    def __init__(self, jf, seed, workdir):
        super().__init__(jf, seed, workdir)
        r = self.rng
        self.alpha = lambda s: 0.8 + 0.2 * np.sin(s)
        af1 = jf.AlphaFunction(fn=lambda x: self.alpha(x[..., 0]), alpha1=0.6, alpha2=1.0, dim=1)
        af2 = jf.AlphaFunction(
            fn=lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) * np.cos(x[..., 1]), alpha1=0.6, alpha2=1.0, dim=2
        )
        self.sk1 = jf.split(jf.stable_like_kernel(af1))
        self.k2 = jf.stable_like_kernel(af2)
        self.sk2 = jf.split(self.k2)
        self.skc = jf.split(jf.stable_like_kernel(jf.AlphaFunction.constant(self.ALPHA_2D, 2)))
        self.bumps = [
            jf.GridFunction.bump((float(r.uniform(-0.3, 0.3)),), 1.0, float(r.uniform(0.8, 1.2))) for _ in range(2)
        ]
        self.bump_pts = np.linspace(-1.5, 1.5, self.BUMP_POINTS).reshape(-1, 1) + float(r.uniform(-0.01, 0.01))
        self.xis = [float(x * r.uniform(0.9, 1.1)) for x in (0.5, 1.0, 2.0)]
        self.waves = [jf.GridFunction.wave(xi, "cos") for xi in self.xis]
        self.wave_pts = np.linspace(-2.0, 2.0, self.WAVE_POINTS).reshape(-1, 1) + float(r.uniform(-0.05, 0.05))
        c2 = tuple(float(c) for c in r.uniform(-0.2, 0.2, size=2))
        self.u2 = jf.GridFunction.bump(c2, 1.0)
        self.grid2, _ = self.u2.box.node_lattice(self.GRID_2D)
        cu = tuple(float(c) for c in r.uniform(-0.1, 0.1, size=2))
        self.uc = jf.GridFunction.bump(cu, 1.0)
        self.vc = jf.GridFunction.bump((cu[0] + 0.2, cu[1] + 0.1), 0.8, float(r.uniform(0.8, 1.2)))
        vals1 = np.zeros(self.LATTICE_1D)
        vals1[1:-1] = r.uniform(-2.0, 2.0, size=self.LATTICE_1D - 2)
        self.s1 = jf.GridFunction.sampled(jf.Box((-1.0,), (1.0,)), vals1)
        vals2 = np.zeros((self.LATTICE_2D, self.LATTICE_2D))
        vals2[1:-1, 1:-1] = r.uniform(-2.0, 2.0, size=(self.LATTICE_2D - 2,) * 2)
        self.s2 = jf.GridFunction.sampled(jf.Box((-1.0, -1.0), (1.0, 1.0)), vals2)
        self.regions2 = [
            jf.Box((c - 1.0, d - 1.0), (c + 1.0, d + 1.0)) for c, d in r.uniform(-1.0, 1.0, size=(self.A0_REGIONS, 2))
        ]

    def ops(self):
        jf = self.jf
        ops_, forms, cond = jf.operators, jf.forms, jf.conditions
        k1 = self.sk1.base
        bump = [
            Op(f"L_bump{i}.{j}", POINTS, lambda b=b, c=c: ops_.apply_L(k1, b, c), _fixed(len(c)), _eval_failure)
            for i, b in enumerate(self.bumps)
            for j, c in enumerate(np.array_split(self.bump_pts, 2))
        ]
        wave = [
            Op(f"L_wave{i}", POINTS, lambda w=w: ops_.apply_L(k1, w, self.wave_pts), _fixed(self.WAVE_POINTS),
               _eval_failure)
            for i, w in enumerate(self.waves)
        ]
        grid = [
            Op(f"L_2d.{j}", POINTS, lambda c=c: ops_.apply_L(self.k2, self.u2, c), _fixed(len(c)), _eval_failure)
            for j, c in enumerate(np.array_split(self.grid2, 2))
        ]
        points = [bump[0], wave[0], grid[0], bump[1], wave[1], bump[2], grid[1], wave[2], bump[3]]

        n_cells = self.FORM_2D**2
        eta_n = [
            Op(f"eta_n{n}", CELLS,
               lambda n=n: forms.eta_n(self.uc, self.vc, self.skc.base, n, outer_per_axis=self.FORM_2D),
               _fixed(n_cells), _finite_failure)
            for n in self.ETA_N
        ]
        eta = Op("eta_2d", CELLS, lambda: forms.eta(self.uc, self.vc, self.skc, outer_per_axis=self.FORM_2D),
                 _fixed(n_cells), lambda fv: _finite_failure(fv.total))
        lattice = []
        for tag, u, sk, m in (("1d", self.s1, self.sk1, self.LATTICE_1D), ("2d", self.s2, self.sk2, self.LATTICE_2D)):
            lattice += [
                Op(f"markov_{tag}", CELLS, lambda u=u, sk=sk: forms.markov_check(u, sk), _fixed(m**u.dim),
                   lambda r: None if r.passed else "contraction failed"),
                Op(f"bounds_{tag}", CELLS, lambda u=u, sk=sk, m=m: forms.bound_checks(u, u, sk, per_axis=m),
                   _fixed(m**u.dim), lambda r: None if (r.lower_ok and r.sector_ok) else "bound failed"),
            ]
        cells = [op for pair in zip(eta_n, [lattice[0], eta, lattice[1], lattice[2], lattice[3]]) for op in pair]
        cells += eta_n[5:]

        samples = [
            Op(f"A0_2d.{i}", SAMPLES, lambda reg=reg: cond.check_A0(self.skc, reg, per_axis=self.A0_PER_AXIS),
               _samples, _verdict_failure)
            for i, reg in enumerate(self.regions2)
        ]
        return interleave(points, cells, samples)

    def warmup(self):
        jf = self.jf
        jf.apply_L(self.sk1.base, self.bumps[0], self.bump_pts[:2])
        jf.apply_L(self.sk1.base, self.waves[0], self.wave_pts[:2])
        jf.apply_L(self.k2, self.u2, self.grid2[:2])
        jf.eta(self.uc, self.vc, self.skc, outer_per_axis=1)
        jf.check_A0(self.skc, self.regions2[0], per_axis=2)

    def checks(self, out):
        res = []
        worst = 0.0
        for i, xi in enumerate(self.xis):
            x = self.wave_pts[:, 0]
            mult = abs(xi) ** self.alpha(x)
            worst = max(worst, float(np.max(np.abs(out[f"L_wave{i}"].values + mult * np.cos(xi * x)) / mult)))
        res.append(Check("L cos = -|xi|^alpha(x) cos", worst <= 1e-3, f"worst relative {worst:.2e} (tol 1e-3)",
                         tuple(f"L_wave{i}" for i in range(len(self.xis)))))
        mass = oracles.constant_jump_mass(self.ALPHA_2D, 2)
        names = tuple(f"A0_2d.{i}" for i in range(self.A0_REGIONS))
        gap = max(abs(v - mass) for name in names for v in out[name].details["point_values"])
        res.append(Check("A0 = w sigma (1/(2-a) + 1/a)", gap <= 1e-4, f"worst gap {gap:.2e} (tol 1e-4)", names))
        vals = [out[f"eta_n{n}"] for n in self.ETA_N]
        deltas = [abs(a - b) for a, b in zip(vals[:-1], vals[1:])]
        decreasing = all(d1 > d2 for d1, d2 in zip(deltas[:-1], deltas[1:]))
        limit = out["eta_2d"].total
        rel = abs(vals[-1] - limit) / abs(limit)
        res.append(Check("eta_n deltas decrease toward eta", decreasing and rel <= 1e-3,
                         f"decreasing {decreasing}; |eta_{self.ETA_N[-1]} - eta|/|eta| {rel:.2e} (tol 1e-3)",
                         tuple(f"eta_n{n}" for n in self.ETA_N) + ("eta_2d",)))
        for tag in ("1d", "2d"):
            m = out[f"markov_{tag}"].value
            s = out[f"bounds_{tag}"].lower_slack
            res.append(Check(f"Markov value and lower slack >= 0 ({tag})", m >= -1e-8 and s >= -1e-8,
                             f"value {m:.3e}, slack {s:.3e} (floor -1e-8)", (f"markov_{tag}", f"bounds_{tag}")))
        return res


# ---------------------------------------------------------------------------
# generic-cli
# ---------------------------------------------------------------------------


class GenericCli(Workload):
    """``jumpform run`` in-process on configs with ``expression`` kernels.

    Chosen because it makes no ``weight_w`` calls: its time goes to
    whitelisted expression evaluation, generic dyadic shells, the Gauss-panel
    far field bounded by tail metadata, and report emission.  An
    optimisation aimed at the stable-like path should leave it unchanged.
    """

    name = "generic-cli"
    CHECKS = ["A0", "H4", "MISC", "FU", "H5"]
    SPEC = {
        "1d": {"check_per_axis": 9, "lattice": 9, "form_per_axis": 65},
        "2d": {"check_per_axis": 4, "lattice": 4, "form_per_axis": 11},
    }

    def __init__(self, jf, seed, workdir):
        super().__init__(jf, seed, workdir)
        from jumpform import cli

        self.cli = cli
        r = self.rng
        self.a1 = round(float(r.uniform(0.2, 0.35)), 6)
        self.a2 = round(float(r.uniform(0.2, 0.3)), 6)
        kernels = {
            # non-symmetric, no compact support; k <= 1.35 r^-3.5 for r >= 1
            "1d": {"type": "expression", "dim": 1,
                   "expr": f"(1 + {self.a1}*tanh(y)) / (r**1.5 * (1 + r**2))",
                   "tail_exponent": 2.5, "tail_amplitude": 1.35},
            # non-symmetric, supported in |z| <= 1
            "2d": {"type": "expression", "dim": 2,
                   "expr": f"(1 + {self.a2}*sin(x1) - {self.a2}*sin(y2)) / r**2.4", "z_support": 1.0},
        }
        # one request per invocation, so that each CLI call is one operation
        self.configs = {}
        for dim, spec in self.SPEC.items():
            nd = 1 if dim == "1d" else 2
            c = [round(float(x), 6) for x in r.uniform(-0.2, 0.2, size=nd)]
            pts = {"lattice": spec["lattice"]}
            requests = {
                "check": (SAMPLES, {"op": "check", "conditions": self.CHECKS, "per_axis": spec["check_per_axis"]}),
                "L": (POINTS, {"op": "apply", "operator": "L", "function": "u", "points": pts}),
                "LSTAR": (POINTS, {"op": "apply", "operator": "LSTAR", "function": "u", "points": pts}),
                "B": (POINTS, {"op": "apply", "operator": "B", "function": "u", "points": pts}),
                "kappa": (POINTS, {"op": "kappa", "points": pts, "eps_count": 24}),
                "eta": (CELLS, {"op": "form", "kind": "eta", "u": "u", "v": "v", "per_axis": spec["form_per_axis"]}),
            }
            base = {
                "kernel": kernels[dim],
                "region": {"lo": [ci - 1.0 for ci in c], "hi": [ci + 1.0 for ci in c]},
                "functions": {
                    "u": {"type": "bump", "center": c, "radius": 1.0},
                    "v": {"type": "bump", "center": [ci + 0.15 for ci in c], "radius": 0.75,
                          "amplitude": round(float(r.uniform(0.8, 1.2)), 6)},
                },
                "threads": 1,
            }
            for tag, (metric, req) in requests.items():
                name = f"{dim}-{tag}"
                path = os.path.join(workdir, f"{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(dict(base, requests=[req]), fh, indent=2)
                units = (spec["check_per_axis"] if tag == "check" else
                         spec["form_per_axis"] if tag == "eta" else spec["lattice"]) ** nd
                self.configs[name] = (metric, path, os.path.join(workdir, f"{name}.report.json"), units)

    def _invoke(self, name):
        _, path, report, _ = self.configs[name]
        code = self.cli.main(["run", "--config", path, "--out", report])
        with open(report, encoding="utf-8") as fh:
            return code, json.load(fh)["results"][0]

    def ops(self):
        groups = {POINTS: [], CELLS: [], SAMPLES: []}
        for name, (metric, _, _, n) in self.configs.items():
            units = (lambda res: sum(r["samples"] for r in res[1]["result"]["reports"])) if metric == SAMPLES else _fixed(n)
            groups[metric].append(Op(name, metric, lambda name=name: self._invoke(name), units, _cli_failure))
        return interleave(groups[POINTS], groups[CELLS], groups[SAMPLES])

    def warmup(self):
        for dim in self.SPEC:
            self._invoke(f"{dim}-L")

    def _kernel_fn(self, dim):
        if dim == "1d":
            a = self.a1

            def k(x, y):
                r = np.abs(x - y)
                return (1.0 + a * np.tanh(y)) / (r**1.5 * (1.0 + r * r))

            return k
        a = self.a2

        def k2(x, y):
            r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
            return (1.0 + a * np.sin(x[..., 0]) - a * np.sin(y[..., 1])) / r**2.4

        return k2

    def checks(self, out):
        res = []
        for dim in self.SPEC:
            names = [n for n in self.configs if n.startswith(dim)]
            bad = [n for n in names if out[n][0] != 0 or not out[n][1]["ok"]]
            res.append(Check(f"{dim}: exit 0, every request ok", not bad, f"failing {bad}", tuple(bad)))
            conv = all(out[f"{dim}-kappa"][1]["result"]["killing"]["converged"]) and all(
                d.get("kappa_converged") for d in out[f"{dim}-LSTAR"][1]["result"]["diagnostics"]
            )
            res.append(Check(f"{dim}: kappa converged", conv, f"converged everywhere: {conv}",
                             (f"{dim}-kappa", f"{dim}-LSTAR")))
            k = self._kernel_fn(dim)
            a0 = next(r for r in out[f"{dim}-check"][1]["result"]["reports"] if r["condition_id"] == "A0")
            worst = 0.0
            for p, got in zip(a0["details"]["points"], a0["details"]["point_values"]):
                want = oracles.jump_mass_1d(k, p[0]) if dim == "1d" else oracles.jump_mass_2d(k, p, 1.0)
                worst = max(worst, _rel(got, want))
            res.append(Check(f"{dim}: A0 against log-grid oracle", worst <= 0.05,
                             f"worst relative {worst:.2e} (limit 5e-2)", (f"{dim}-check",)))
        return res


def _cli_failure(res):
    code, entry = res
    if code != 0 or not entry["ok"]:
        return f"exit {code}: {entry.get('error', 'verdict not pass')}"
    return None


WORKLOADS = {w.name: w for w in (VarorderFar, DensePoints, GenericCli)}
