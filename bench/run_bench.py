"""Benchmark entry point.

    python3 bench/run_bench.py --workload varorder-far --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and benchmarks the jumpform found in
its ``src/``.  Set-up time is sampled in fresh interpreters started one at a
time; the last of them goes on to run the workload's timed rounds.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones).  The same object, with the per-round
detail, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
# every process of one run is stopped this many seconds after the start
DEADLINE_S = 170.0

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "point_evals_per_s": "1/s",
    "form_cells_per_s": "1/s",
    "check_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("JUMPFORM_THREADS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, setup_only: bool, deadline: float):
    """Start one worker and wait for its set-up.

    Returns (process, killer, seconds from start to READY, probe seconds);
    ``killer`` stops the process at the deadline.
    """
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out-dir", OUT,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    probe = proc.stdout.readline()
    if line.strip() != "READY" or not probe.startswith("PROBE "):
        finish(proc, killer)
        raise RuntimeError(f"worker did not get through set-up (exit {proc.returncode})")
    return proc, killer, ready, float(probe.split()[1])


def finish(proc, killer) -> str:
    """Drain the worker's output and wait for it to end."""
    try:
        out, _ = proc.communicate()
    finally:
        killer.cancel()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "jumpform", "__init__.py")):
        print(f"error: no jumpform sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    setup = []  # (measured seconds, probe seconds) per fresh interpreter
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, killer, ready, probe = start_worker(args, True, deadline)
            setup.append((ready, probe))
            finish(proc, killer)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up worker exited with {proc.returncode}")
        proc, killer, ready, probe = start_worker(args, False, deadline)
        setup.append((ready, probe))
        out = finish(proc, killer)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with {proc.returncode} and no result", file=sys.stderr)
        return 1
    detail = json.loads(lines[-1][len("RESULT "):])

    if args.trace:
        metrics = {
            name: {"value": v, "unit": "s" if name.endswith(("_s", ".s")) else "count"}
            for name, v in detail["metrics"].items()
        }
    else:
        values = dict(detail["metrics"], setup_s=statistics.median(hostspeed.corrected(t, p) for t, p in setup))
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
        detail["measured"]["setup_s"] = statistics.median(t for t, _ in setup)
    result = {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  measured=detail.get("measured"), rounds=detail["rounds"], setup_samples=setup,
                  checks=detail["checks"])
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"{args.workload} seed {args.seed}: {len(detail['rounds'])} rounds, "
          f"{result['failed']}/{result['attempted']} operations failed, correct={result['correct']}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
