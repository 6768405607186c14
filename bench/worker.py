"""One benchmark process: set up a workload, then (unless --setup-only) run it.

Started by run_bench.py, one process at a time.  It prints ``READY`` when
set-up is over and the first timed call is next, and, after the timed
section and the output checks, one line ``RESULT <json>``.  Human-readable
lines go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import time

import hostspeed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# fewer rounds put too few slices of each rate into a run; two traced rounds
# are needed to show that the per-layer counts repeat
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def canon(o):
    """Exact, comparable form of an operation's output (floats by repr)."""
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        return tuple((f.name, canon(getattr(o, f.name))) for f in dataclasses.fields(o))
    if isinstance(o, dict):
        return tuple(sorted((str(k), canon(v)) for k, v in o.items()))
    if isinstance(o, (list, tuple)):
        return tuple(canon(v) for v in o)
    if hasattr(o, "tolist"):
        return canon(o.tolist())
    if isinstance(o, float):
        return repr(o)
    if isinstance(o, BaseException):
        return repr(o)
    return o


def run_round(ops, tracer=None):
    """One pass over the operations, with a host-speed probe before each one
    and after the last.  ``times`` are measured, ``ctimes`` corrected."""
    times: dict = {}
    ctimes: dict = {}
    units: dict = {}
    outputs: dict = {}
    failed: set = set()
    t_start = time.perf_counter()
    before = hostspeed.probe()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raise is a failed operation, not a crash of the benchmark
            out = exc
        dt = time.perf_counter() - t0
        after = hostspeed.probe()
        times[op.metric] = times.get(op.metric, 0.0) + dt
        ctimes[op.metric] = ctimes.get(op.metric, 0.0) + hostspeed.corrected(dt, 0.5 * (before + after))
        before = after
        outputs[op.name] = out
        if isinstance(out, Exception):
            failed.add(op.name)
            log(f"  {op.name}: raised {type(out).__name__}: {out}")
        else:
            units[op.metric] = units.get(op.metric, 0) + op.units(out)
            reason = op.failure(out)
            if reason is not None:
                failed.add(op.name)
                log(f"  {op.name}: failed ({reason})")
    return {
        "wall": time.perf_counter() - t_start,
        "cwall": sum(ctimes.values()),
        "times": times,
        "ctimes": ctimes,
        "units": units,
        "outputs": outputs,
        "failed": failed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import jumpform as jf

    if not os.path.abspath(jf.__file__).startswith(SRC + os.sep):
        log(f"jumpform was imported from {jf.__file__}, not from {SRC}")
        return 2

    workdir = os.path.join(args.out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](jf, args.seed, workdir)
        ops = wl.ops()
        wl.warmup()
        print("READY", flush=True)
        print(f"PROBE {hostspeed.probe()!r}", flush=True)
        if args.setup_only:
            return 0
        return run(args, wl, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, wl, ops) -> int:
    rounds = []
    first_tracer = None
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        if traced:
            tracing.instrument(tracer)
        try:
            r = run_round(ops, tracer)
        finally:
            if traced:
                tracer.restore()
        if traced:
            r["layers"] = tracing.layer_metrics(tracer.snapshot())
            first_tracer = first_tracer or tracer
        r["traced"] = traced
        rounds.append(r)
        phases = ", ".join(f"{m} {t:.2f} s" for m, t in r["ctimes"].items())
        log(f"round {len(rounds)}{' (traced)' if traced else ''}: {r['wall']:.2f} s, corrected {r['cwall']:.2f} s ({phases})")
        elapsed = time.perf_counter() - t0
        n_traced = sum(1 for x in rounds if x["traced"])
        enough = len(rounds) >= MIN_ROUNDS and (not args.trace or n_traced >= MIN_TRACED_ROUNDS)
        # stop at the round boundary nearest to the requested length
        if enough and elapsed + 0.5 * elapsed / len(rounds) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # output checks on the first round; every later round must repeat it exactly
    t_checks = time.perf_counter()
    first = rounds[0]["outputs"]
    checks = wl.checks(first)
    ref = {name: canon(out) for name, out in first.items()}
    for i, r in enumerate(rounds[1:], start=2):
        diff = [name for name, out in r["outputs"].items() if canon(out) != ref[name]]
        checks.append(workloads.Check(f"round {i} repeats round 1", not diff, f"differs in {diff}", tuple(diff)))
    bad_ops = {name for c in checks if not c.ok for name in c.ops}
    for c in checks:
        log(f"  [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    log(f"output checks took {time.perf_counter() - t_checks:.1f} s")

    attempted = len(rounds) * len(ops)
    failed = sum(len(r["failed"] | bad_ops) for r in rounds)

    untraced = [r for r in rounds if not r["traced"]]
    result = {
        "correct": all(c.ok for c in checks),
        "attempted": attempted,
        "failed": failed,
        "rounds": [{k: r[k] for k in ("wall", "cwall", "times", "ctimes", "units", "traced")} for r in rounds],
        "checks": [[c.name, c.ok, c.detail] for c in checks],
    }
    if not args.trace:
        result["metrics"] = end_to_end(untraced, peak_rss_mb)
        result["measured"] = end_to_end(untraced, peak_rss_mb, times="times", wall="wall")
    else:
        result["metrics"] = per_layer(rounds, args, first_tracer)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def end_to_end(rounds, peak_rss_mb, times="ctimes", wall="cwall") -> dict:
    """Rates are work over time summed across every slice of the run; the
    defaults use corrected times, ``times="times", wall="wall"`` measured ones."""

    def rate(metric):
        return sum(r["units"][metric] for r in rounds) / sum(r[times][metric] for r in rounds)

    return {
        "wall_s": sum(r[wall] for r in rounds) / len(rounds),
        "point_evals_per_s": rate("point_evals"),
        "form_cells_per_s": rate("form_cells"),
        "check_samples_per_s": rate("check_samples"),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(rounds, args, tracer) -> dict:
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    first = traced[0]["layers"]
    out = {}
    for name, value in first.items():
        if name.endswith("_s") or name.endswith(".s"):
            out[name] = statistics.median(r["layers"][name] for r in traced)
        else:
            out[name] = value
            others = [r["layers"][name] for r in traced[1:]]
            if any(v != value for v in others):
                log(f"  count {name} differs between traced rounds: {[value] + others}")
    out["trace.overhead_s"] = statistics.median(r["cwall"] for r in traced) - statistics.median(
        r["cwall"] for r in untraced
    )
    path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "round": 2})
    log(f"spans of the first traced round written to {os.path.relpath(path, ROOT)}")
    return out


if __name__ == "__main__":
    sys.exit(main())
