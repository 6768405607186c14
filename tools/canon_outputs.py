#!/usr/bin/env python3
"""Print one SHA-256 per benchmark operation of its canonical output.

    python3 tools/canon_outputs.py --workload dense-points --seed 1
    python3 tools/canon_outputs.py --workload dense-points --seed 1 --against saved.txt
    python3 tools/canon_outputs.py --workload faults --seed 1

Run from the root of a source checkout.  It sets up the workload as the
benchmark does (bench/workloads.py, warm-up included), runs its operations
once in round order, and prints ``<operation> <sha256>`` per operation, the
digest taken over ``repr(worker.canon(output))``: floats by repr, so two
checkouts print the same lines exactly when every output is byte-identical.
An operation that raises is digested by its exception's repr.  It imports
only the benchmark's modules and the package in this checkout's src/.

``--workload faults`` is this tool's own: operations whose inputs include
points, samples or cells where the kernel or the order is undefined, so
that the error paths are digested too (none of the benchmark's workloads
has such a point).  Its inputs are fixed; the seed is not used.

With ``--against FILE`` (a listing this script printed, for instance on
another checkout) it also compares the two listings and exits with code 1,
naming every operation whose digest differs or that only one side has.
"""

from __future__ import annotations

import argparse
import hashlib
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
        Op(name="faults.H4.pair", call=lambda: jf.check_sector_ratio(jf.split(pair), region, per_axis=5)),
        Op(name="faults.eta", call=lambda: jf.eta(bump(-4.5), bump(-4.2), holed, outer_per_axis=9)),
    ]
    return ops


def main(argv=None) -> int:
    import jumpform
    import numpy as np
    import worker
    import workloads

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["faults"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--against", metavar="FILE", help="a saved listing to compare the digests with")
    args = ap.parse_args(argv)
    digests = {}
    with tempfile.TemporaryDirectory() as workdir, np.errstate(all="ignore"):
        if args.workload == "faults":
            ops = fault_ops(jumpform)
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
            print(f"{op.name} {digest}", flush=True)
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
