#!/usr/bin/env python3
"""Print one SHA-256 per benchmark operation of its canonical output.

    python3 tools/canon_outputs.py --workload dense-points --seed 1
    python3 tools/canon_outputs.py --workload dense-points --seed 1 --against saved.txt
    python3 tools/canon_outputs.py --workload faults --seed 1
    python3 tools/canon_outputs.py --workload constant --seed 1
    python3 tools/canon_outputs.py --workload expression --seed 1
    python3 tools/canon_outputs.py --workload dense-points --seed 1 --save-floats old.json
    python3 tools/canon_outputs.py --workload dense-points --seed 1 --floats-against old.json

Run from the root of a source checkout.  It sets up the workload as the
benchmark does (bench/workloads.py, warm-up included), runs its operations
once in round order, and prints ``<operation> <sha256>`` per operation, the
digest taken over ``repr(worker.canon(output))``: floats by repr, so two
checkouts print the same lines exactly when every output is byte-identical.
An operation that raises is digested by its exception's repr.  It imports
only the benchmark's modules and the package in this checkout's src/.

``--workload faults`` is this tool's own: operations whose inputs include
points, samples, cells or lattice nodes where the kernel or the order is
undefined, so that the error paths are digested too (none of the
benchmark's workloads has such a point).  Its inputs are fixed; the seed is
not used.  Its ``faults.request*`` operations, and the ``constant.*.request``
ones below, run a check request through ``config._run_check`` on a
hand-built ``RunConfig``, so that the conditions of one request are digested
as a run reports them.

``--workload constant`` is this tool's own too: the stable-like kernels of
the constant orders alpha = 1.2 in 1D and 0.8 in 2D through every operator,
form and check (none of the benchmark's workloads has a constant-order
adjoint, killing term or lattice form).  Its inputs are fixed as well.

``--workload expression`` is this tool's own as well, with fixed inputs:
kernels built from config expressions that no benchmark workload runs (a
``symmetric: true`` kernel in 1D and 2D, a 1D kernel with a ``z_support``,
and a stable-like kernel with an ``expression`` order) through every
operator, form and check request.

With ``--against FILE`` (a listing this script printed, for instance on
another checkout) it also compares the two listings and exits with code 1,
naming every operation whose digest differs or that only one side has.

``--save-floats FILE`` writes every operation's output floats (by repr, in
the order ``worker.canon`` lays them out) to FILE as JSON.  With
``--floats-against FILE`` (a file saved that way, for instance on another
checkout) it prints, for every operation whose floats differ, the number of
floats that changed and the worst absolute and relative change: what an
intended numerical change moved.  An operation whose floats do not pair up
(another count, or only one side has it) is named as such.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "src"))


def differing(digests: dict, saved: dict) -> list:
    """The operations, in listing order, whose digest differs between the
    two listings or that only one of them has."""
    names = list(digests) + [name for name in saved if name not in digests]
    return [name for name in names if digests.get(name) != saved.get(name)]


def output_floats(o) -> list:
    """The floats of an output, in the order worker.canon lays it out."""
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        return [v for f in dataclasses.fields(o) for v in output_floats(getattr(o, f.name))]
    if isinstance(o, dict):
        return [v for _, item in sorted(o.items(), key=lambda kv: str(kv[0])) for v in output_floats(item)]
    if isinstance(o, (list, tuple)):
        return [v for item in o for v in output_floats(item)]
    if hasattr(o, "tolist") and not isinstance(o, BaseException):
        return output_floats(o.tolist())
    return [o] if isinstance(o, float) else []


def _gap(a: float, b: float):
    """(absolute, relative) change from a to b; a change to or from NaN or
    infinity is infinite, and one between signed zeros is zero."""
    d = b - a
    if not math.isfinite(d):
        return math.inf, math.inf
    return abs(d), abs(d) / max(abs(a), abs(b)) if d else 0.0


def moved(floats: dict, saved: dict) -> list:
    """(operation, summary) for every operation whose floats differ from
    saved's: how many changed (by repr) and the worst absolute and relative
    change, or why the two sides do not pair up."""
    out = []
    for name in list(floats) + [name for name in saved if name not in floats]:
        new, old = floats.get(name), saved.get(name)
        if new is None or old is None:
            out.append((name, "only " + ("here" if old is None else "in the saved file")))
        elif len(new) != len(old):
            out.append((name, f"{len(old)} floats saved, {len(new)} here"))
        else:
            pairs = [(float(a), float(b)) for a, b in zip(old, new) if a != b]
            if pairs:
                gaps = [_gap(a, b) for a, b in pairs]
                worst_abs = max(g[0] for g in gaps)
                worst_rel = max(g[1] for g in gaps)
                out.append((name, f"{len(pairs)} of {len(new)} floats changed, "
                                  f"worst absolute {worst_abs:.3g}, worst relative {worst_rel:.3g}"))
    return out


def check_request(jf, sk, region, conditions, per_axis) -> object:
    """The call of one check request on the kernel sk over region, as
    ``jumpform run`` makes it."""
    from jumpform import config

    req = {"op": "check", "conditions": conditions, "per_axis": per_axis}
    cfg = config.RunConfig(sk, jf.DEFAULT_SCHEME, region, {}, (req,), None, {})
    return lambda: config._run_check(req, cfg)


def fault_ops(jf) -> list:
    """The operations of ``--workload faults``: each point, sample or cell
    of a call gets its own value or its own error message."""
    import numpy as np
    from types import SimpleNamespace as Op

    def generic(x, y):
        # NaN for x < -5
        r = np.abs(x[..., 0] - y[..., 0])
        return np.sqrt(x[..., 0] + 5.0) / (r**1.5 * (1.0 + r * r))

    def pocket(x, y, g=1.0):
        # NaN where |y + 6| < 0.2, within |x - y| < 1.5
        r = np.abs(x[..., 0] - y[..., 0])
        return np.where(r < 1.5, g * np.sqrt(np.abs(y[..., 0] + 6.0) - 0.2) / r**1.5, 0.0)

    def sqrt_pair(x, y):
        # the pocket, negative where x < -5.5: at x = -5 one side reads NaN
        # and the other a negative value
        return pocket(x, y, np.where(x[..., 0] < -5.5, -1.0, 1.0))

    pts = np.linspace(-1.0, 1.0, 33)[:, None]
    u = jf.GridFunction.bump((0.0,), 1.0)
    k = jf.JumpKernel(1, generic, label="sqrt-generic", tail_exponent=2.5, tail_amplitude=2.5)
    # NaN left of x = -2
    af = jf.AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) + 0.0 * np.log(x[..., 0] + 2.0), 0.6, 1.0)
    s = jf.stable_like_kernel(af)
    pair = jf.JumpKernel(1, sqrt_pair, label="sqrt-pair", z_support=1.5)
    pair_pts, pair_u = [(-3.0,), (-6.0,), (-5.0,), (-7.0,), (-4.0,)], jf.GridFunction.bump((-5.0,), 3.0)
    ops = []
    for tag, kern, bad in (("generic", k, -6.0), ("stable", s, -3.0)):
        X = np.concatenate([pts, [[bad]]])
        ops += [
            Op(name=f"faults.{tag}.L", call=lambda kern=kern, X=X: jf.apply_L(kern, u, X)),
            Op(name=f"faults.{tag}.Lstar", call=lambda kern=kern, X=X: jf.apply_Lstar(kern, u, X)),
            Op(name=f"faults.{tag}.kappa", call=lambda kern=kern, X=X: jf.killing_term(kern, X)),
        ]
    holed = jf.split(jf.JumpKernel(1, pocket, label="sqrt-pocket", z_support=1.5))
    bump = lambda c: jf.GridFunction.bump((c,), 1.0)
    region = jf.Box((-5.0,), (-3.0,))
    ops += [
        Op(name="faults.pair.L", call=lambda: jf.apply_L(pair, pair_u, pair_pts)),
        Op(name="faults.pair.Lambda", call=lambda: jf.apply_Lambda(pair, pair_u, pair_pts)),
        Op(name="faults.pair.Ltilde", call=lambda: jf.apply_Ltilde(jf.split(pair), pair_u, pair_pts)),
        Op(name="faults.H4", call=lambda: jf.check_sector_ratio(holed, region, per_axis=5)),
        Op(name="faults.FU", call=lambda: jf.check_FU(holed, 0.5, region, per_axis=5)),
        Op(name="faults.A0", call=lambda: jf.check_A0(holed, region, per_axis=5)),
        Op(name="faults.MISC", call=lambda: jf.check_misc_integrability(holed, region, per_axis=5)),
        Op(name="faults.H5", call=lambda: jf.check_local_pv_bound(holed, [region], per_axis=5)),
        Op(name="faults.H4.pair", call=lambda: jf.check_sector_ratio(jf.split(pair), region, per_axis=5)),
        Op(name="faults.eta", call=lambda: jf.eta(bump(-4.5), bump(-4.2), holed, outer_per_axis=9)),
        Op(name="faults.request", call=check_request(jf, holed, region, ["A0", "H4", "FU", "H5", "MISC"], 5)),
        Op(name="faults.request.pair", call=check_request(jf, jf.split(pair), region, ["A0", "H4", "FU", "H5", "MISC"], 5)),
    ]
    # the lattice form's errors: a negative value, a NaN value and a NaN order
    for tag, sk in (("pair", jf.split(pair)), ("pocket", holed), ("stable", jf.split(s))):
        ops += [
            Op(name=f"faults.markov.{tag}", call=lambda sk=sk: jf.markov_check(pair_u, sk)),
            Op(name=f"faults.bounds.{tag}", call=lambda sk=sk: jf.bound_checks(pair_u, pair_u, sk)),
        ]
    return ops


def constant_ops(jf) -> list:
    """The operations of ``--workload constant``: each operator, form and
    check on the stable-like kernel of a constant order, in 1D and 2D."""
    import numpy as np
    from types import SimpleNamespace as Op

    ops = []
    for n, alpha, count, cells in ((1, 1.2, 17, 33), (2, 0.8, 5, 7)):
        k = jf.stable_like_kernel(jf.AlphaFunction.constant(alpha, n))
        sk = jf.split(k)
        u = jf.GridFunction.bump((0.0,) * n, 1.0)
        v = jf.GridFunction.bump((0.2,) + (0.1,) * (n - 1), 0.8)
        # above 1 near its centre, so that the Markov check clips it
        high = jf.GridFunction.bump((0.0,) * n, 1.0, 2.0)
        axis = np.linspace(-1.0, 1.0, count)
        X = axis[:, None] if n == 1 else np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        region = jf.Box((-0.5,) * n, (0.5,) * n)
        tag = f"constant.{n}d"
        ops += [
            Op(name=f"{tag}.L", call=lambda k=k, u=u, X=X: jf.apply_L(k, u, X)),
            Op(name=f"{tag}.Lambda", call=lambda k=k, u=u, X=X: jf.apply_Lambda(k, u, X)),
            Op(name=f"{tag}.Ltilde", call=lambda sk=sk, u=u, X=X: jf.apply_Ltilde(sk, u, X)),
            Op(name=f"{tag}.Lstar", call=lambda k=k, u=u, X=X: jf.apply_Lstar(k, u, X)),
            Op(name=f"{tag}.B", call=lambda sk=sk, u=u, X=X: jf.apply_B(sk, u, X)),
            Op(name=f"{tag}.kappa", call=lambda k=k, X=X: jf.killing_term(k, X)),
            Op(name=f"{tag}.eta", call=lambda sk=sk, u=u, v=v, c=cells: jf.eta(u, v, sk, outer_per_axis=c)),
            Op(name=f"{tag}.E", call=lambda sk=sk, u=u, v=v, c=cells: jf.energy_E(u, v, sk, outer_per_axis=c)),
            Op(name=f"{tag}.A0", call=lambda sk=sk, r=region: jf.check_A0(sk, r, per_axis=3)),
            Op(name=f"{tag}.H4", call=lambda sk=sk, r=region: jf.check_sector_ratio(sk, r, per_axis=3)),
            Op(name=f"{tag}.FU", call=lambda sk=sk, r=region: jf.check_FU(sk, 0.5, r, per_axis=3)),
            Op(name=f"{tag}.MISC", call=lambda sk=sk, r=region: jf.check_misc_integrability(sk, r, per_axis=3)),
            Op(name=f"{tag}.H5", call=lambda sk=sk, r=region: jf.check_local_pv_bound(sk, [r], per_axis=3)),
            Op(name=f"{tag}.markov", call=lambda sk=sk, high=high: jf.markov_check(high, sk)),
            Op(name=f"{tag}.bounds", call=lambda sk=sk, u=u, v=v: jf.bound_checks(u, v, sk)),
            Op(name=f"{tag}.request", call=check_request(jf, sk, region, ["all"], 3)),
        ]
    return ops


# the expression kernels of --workload expression, as a config names them
EXPRESSION_KERNELS = {
    "sym-1d": {"type": "expression", "dim": 1, "expr": "(1 + 0.2*cos(x)*cos(y)) / (r**1.5 * (1 + r**2))",
               "symmetric": True, "tail_exponent": 2.5, "tail_amplitude": 1.2},
    "sym-2d": {"type": "expression", "dim": 2, "expr": "(1 + 0.2*cos(x1)*cos(y1)) / r**2.4", "symmetric": True, "z_support": 1.0},
    "compact-1d": {"type": "expression", "dim": 1, "expr": "(1 + 0.3*tanh(y)) / r**1.5", "z_support": 0.6},
    "stable-1d": {"type": "stable_like", "alpha": {"type": "expression", "expr": "0.8 + 0.2*sin(x)", "alpha1": 0.6, "alpha2": 1.0}},
}


def expression_ops(jf) -> list:
    """The operations of ``--workload expression``: each operator, form and
    check on kernels that a config builds from expressions."""
    import numpy as np
    from types import SimpleNamespace as Op

    from jumpform import config

    ops = []
    for tag, spec in EXPRESSION_KERNELS.items():
        diags: list = []
        sk = config._build_kernel(spec, diags)
        if sk is None:
            raise ValueError(f"expression kernel {tag}: {diags}")
        k, n = sk.base, sk.dim
        count, cells = (17, 33) if n == 1 else (5, 7)
        u = jf.GridFunction.bump((0.0,) * n, 1.0)
        v = jf.GridFunction.bump((0.2,) + (0.1,) * (n - 1), 0.8)
        high = jf.GridFunction.bump((0.0,) * n, 1.0, 2.0)
        axis = np.linspace(-1.0, 1.0, count)
        X = axis[:, None] if n == 1 else np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        region = jf.Box((-0.5,) * n, (0.5,) * n)
        tag = f"expression.{tag}"
        ops += [
            Op(name=f"{tag}.L", call=lambda k=k, u=u, X=X: jf.apply_L(k, u, X)),
            Op(name=f"{tag}.Lambda", call=lambda k=k, u=u, X=X: jf.apply_Lambda(k, u, X)),
            Op(name=f"{tag}.Ltilde", call=lambda sk=sk, u=u, X=X: jf.apply_Ltilde(sk, u, X)),
            Op(name=f"{tag}.Lstar", call=lambda k=k, u=u, X=X: jf.apply_Lstar(k, u, X)),
            Op(name=f"{tag}.B", call=lambda sk=sk, u=u, X=X: jf.apply_B(sk, u, X)),
            Op(name=f"{tag}.kappa", call=lambda k=k, sk=sk, X=X: jf.killing_term(k, X, sk=sk)),
            Op(name=f"{tag}.eta", call=lambda sk=sk, u=u, v=v, c=cells: jf.eta(u, v, sk, outer_per_axis=c)),
            Op(name=f"{tag}.E", call=lambda sk=sk, u=u, v=v, c=cells: jf.energy_E(u, v, sk, outer_per_axis=c)),
            Op(name=f"{tag}.markov", call=lambda sk=sk, high=high: jf.markov_check(high, sk)),
            Op(name=f"{tag}.bounds", call=lambda sk=sk, u=u, v=v: jf.bound_checks(u, v, sk)),
            Op(name=f"{tag}.request", call=check_request(jf, sk, region, ["all"], 3)),
        ]
    return ops


def main(argv=None) -> int:
    import jumpform
    import numpy as np
    import worker
    import workloads

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["constant", "expression", "faults"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--against", metavar="FILE", help="a saved listing to compare the digests with")
    ap.add_argument("--save-floats", metavar="FILE", help="write every operation's output floats to FILE (JSON)")
    ap.add_argument("--floats-against", metavar="FILE", help="a --save-floats file to report the moved floats against")
    args = ap.parse_args(argv)
    digests = {}
    floats = {}
    with tempfile.TemporaryDirectory() as workdir, np.errstate(all="ignore"):
        own = {"constant": constant_ops, "expression": expression_ops, "faults": fault_ops}
        if args.workload in own:
            ops = own[args.workload](jumpform)
        else:
            wl = workloads.WORKLOADS[args.workload](jumpform, args.seed, workdir)
            ops = wl.ops()
            wl.warmup()
        for op in ops:
            try:
                out = op.call()
            except Exception as exc:  # an operation that raises has that as its output
                out = exc
            digest = hashlib.sha256(repr(worker.canon(out)).encode("utf-8")).hexdigest()
            digests[op.name] = digest
            floats[op.name] = [repr(v) for v in output_floats(out)]
            print(f"{op.name} {digest}", flush=True)
    if args.save_floats is not None:
        with open(args.save_floats, "w", encoding="utf-8") as fh:
            json.dump(floats, fh)
    if args.floats_against is not None:
        with open(args.floats_against, encoding="utf-8") as fh:
            saved_floats = json.load(fh)
        changes = moved(floats, saved_floats)
        for name, summary in changes:
            print(f"MOVED {name}: {summary}", file=sys.stderr)
        print(f"{len(changes)} of {len(floats)} operations moved against {args.floats_against}", file=sys.stderr)
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        saved = dict(line.split() for line in fh if line.strip())
    differ = differing(digests, saved)
    for name in differ:
        print(f"DIFFERS {name}: {saved.get(name, 'missing')} in {args.against}, {digests.get(name, 'missing')} here", file=sys.stderr)
    if differ:
        return 1
    print(f"all {len(digests)} digests equal those in {args.against}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
