"""Command-line front end.

Exit codes: 0 every requested check passed, 2 at least one condition failed,
3 inconclusive results or embedded numerical failures, 4 configuration or
I/O problems.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from typing import Optional

from .config import (
    RunReport,
    classify_exit,
    load_config,
    parse_config,
    report_to_json,
    run,
    validate_config,
)
from .errors import ConfigError, IOFailure


def _parse_points(text: str):
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = [float(tok) for tok in chunk.replace(",", " ").split()]
        pts.append(coords if len(coords) > 1 else coords[0])
    if not pts:
        raise ConfigError(f"no points parsed from {text!r}")
    return pts


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jumpform",
        description="Integrability checks, jump forms and nonlocal operator evaluation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="write the report to this path")
        sp.add_argument("--threads", type=int, help="thread count, validated only: every call is one block (fallback: JUMPFORM_THREADS)")
        sp.add_argument("--tol-abs", type=float, dest="tol_abs", help="absolute tolerance override")
        sp.add_argument("--tol-rel", type=float, dest="tol_rel", help="relative tolerance override")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("check", help="run integrability condition checks")
    common(sp)
    sp.add_argument("--conditions", default="A0,H4,MISC", help="comma list: A0,H4,FU,H5,MISC,BETA_INT or all")
    sp.add_argument("--gamma", type=float, default=0.5)

    sp = sub.add_parser("form", help="evaluate a bilinear form")
    common(sp)
    sp.add_argument("--kind", choices=("eta", "energy", "eta_n"), default="eta")
    sp.add_argument("--u", required=True, help="name of the first function")
    sp.add_argument("--v", required=True, help="name of the second function")
    sp.add_argument("--n", type=int, help="truncation index for eta_n")
    sp.add_argument("--per-axis", type=int, dest="per_axis")

    sp = sub.add_parser("apply", help="apply an operator on points")
    common(sp)
    sp.add_argument("--op", required=True, choices=("L", "LAMBDA", "LTILDE", "LSTAR", "B"))
    sp.add_argument("--function", required=True, help="name of the function to apply to")
    sp.add_argument("--points", help="semicolon-separated points, e.g. '0; 0.5; 1'")
    sp.add_argument("--lattice", type=int, help="evaluate on an n-per-axis region lattice")

    sp = sub.add_parser("kappa", help="killing term along a shrinking cutoff ladder")
    common(sp)
    sp.add_argument("--points", help="semicolon-separated points")
    sp.add_argument("--lattice", type=int)
    sp.add_argument("--eps-count", type=int, dest="eps_count")

    sp = sub.add_parser("symbol", help="plane-wave symbol residual for power-law kernels")
    common(sp)
    sp.add_argument("--alpha", type=float, help="constant order; omit to use the config kernel")
    sp.add_argument("--xi", type=float, default=1.0)
    sp.add_argument("--x", type=float, default=0.0)

    sp = sub.add_parser("validate", help="schema-check a config without running numerics")
    sp.add_argument("--config", required=True)

    sp = sub.add_parser("run", help="execute every request in a config")
    common(sp)
    return p


def _request_from_args(args) -> Optional[dict]:
    if args.command == "check":
        names = [c.strip() for c in args.conditions.split(",") if c.strip()]
        return {"op": "check", "conditions": names, "gamma": args.gamma}
    if args.command == "form":
        req = {"op": "form", "kind": args.kind, "u": args.u, "v": args.v}
        if args.n is not None:
            req["n"] = args.n
        if args.per_axis is not None:
            req["per_axis"] = args.per_axis
        return req
    if args.command == "apply":
        req = {"op": "apply", "operator": args.op, "function": args.function}
        if args.points:
            req["points"] = _parse_points(args.points)
        elif args.lattice:
            req["points"] = {"lattice": args.lattice}
        return req
    if args.command == "kappa":
        req = {"op": "kappa"}
        if args.points:
            req["points"] = _parse_points(args.points)
        elif args.lattice:
            req["points"] = {"lattice": args.lattice}
        if args.eps_count is not None:
            req["eps_count"] = args.eps_count
        return req
    if args.command == "symbol":
        req = {"op": "symbol", "xi": args.xi, "x": args.x}
        if args.alpha is not None:
            req["alpha"] = args.alpha
        return req
    return None


def _csv_report(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for entry in report.results:
        writer.writerow([f"# request {entry['index']}", entry.get("op", "")])
        if not entry.get("ok", False):
            err = entry.get("error", {})
            writer.writerow(["error", err.get("type", ""), err.get("message", "")])
            continue
        res = entry.get("result", {})
        if isinstance(res, dict) and "values" in res and "points" in res:
            writer.writerow(["point", "value", "flagged"])
            flagged = {i for i, d in enumerate(res.get("diagnostics", [])) if "error" in d}
            for i, (pt, val) in enumerate(zip(res["points"], res["values"])):
                writer.writerow([" ".join(str(c) for c in pt), val, i in flagged])
        elif isinstance(res, dict) and "reports" in res:
            writer.writerow(["condition_id", "estimate", "verdict"])
            for rep in res["reports"]:
                writer.writerow(
                    [rep.get("condition_id", "?"), rep.get("estimate", ""), rep.get("verdict", rep.get("error", ""))]
                )
        elif isinstance(res, dict) and "killing" in res:
            writer.writerow(["point", "kappa", "converged"])
            kt = res["killing"]
            for pt, val, ok in zip(kt["points"], kt["values"], kt["converged"]):
                writer.writerow([" ".join(str(c) for c in pt), val, ok])
            writer.writerow(["sign_verdict", res["sign"]["verdict"], ""])
        elif isinstance(res, dict):
            for key in sorted(res):
                writer.writerow([key, res[key], ""])
    return buf.getvalue()


def _emit(report: RunReport, args) -> None:
    text = _csv_report(report) if args.format == "csv" else report_to_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise IOFailure(f"cannot write report {args.out!r}: {exc}") from None
    else:
        print(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            diags = validate_config(load_config(args.config))
            for d in diags:
                print(d)
            return 4 if diags else 0

        raw = load_config(args.config) if args.config else {}
        tol = dict(raw.get("tolerances", {}))
        if getattr(args, "tol_abs", None) is not None:
            tol["tol_abs"] = args.tol_abs
        if getattr(args, "tol_rel", None) is not None:
            tol["tol_rel"] = args.tol_rel
        if tol:
            raw = {**raw, "tolerances": tol}

        if args.command != "run":
            req = _request_from_args(args)
            raw = {**raw, "requests": [req]}

        cfg = parse_config(raw)

        threads = args.threads
        env = os.environ.get("JUMPFORM_THREADS")
        if threads is None and env:
            try:
                threads = int(env)
            except ValueError:
                threads = env  # not a count: run rejects it
        report = run(cfg, threads=threads)
        _emit(report, args)
        return classify_exit(report)
    except (ConfigError, IOFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
