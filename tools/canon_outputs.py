#!/usr/bin/env python3
"""Print one SHA-256 per benchmark operation of its canonical output.

    python3 tools/canon_outputs.py --workload dense-points --seed 1
    python3 tools/canon_outputs.py --workload dense-points --seed 1 --against saved.txt

Run from the root of a source checkout.  It sets up the workload as the
benchmark does (bench/workloads.py, warm-up included), runs its operations
once in round order, and prints ``<operation> <sha256>`` per operation, the
digest taken over ``repr(worker.canon(output))``: floats by repr, so two
checkouts print the same lines exactly when every output is byte-identical.
An operation that raises is digested by its exception's repr.  It imports
only the benchmark's modules and the package in this checkout's src/.

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


def main(argv=None) -> int:
    import jumpform
    import worker
    import workloads

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--against", metavar="FILE", help="a saved listing to compare the digests with")
    args = ap.parse_args(argv)
    digests = {}
    with tempfile.TemporaryDirectory() as workdir:
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
