"""Batch configuration: JSON parsing, validation, and request orchestration.

A config names one kernel, an optional quadrature block, a region, named
functions, and a list of requests.  ``validate`` reports schema and
cross-reference diagnostics without running numerics; ``run`` executes every
request and embeds numerical failures in the report instead of aborting.
Every operator call is one block and a thread count is validated only, so
reports are byte-identical for any thread count.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Optional

import numpy as np

from . import conditions as cond
from . import forms as fm
from . import operators as ops
from .errors import ConfigError, IOFailure, JumpformError, unwrap
from .gridfn import Box, GridFunction, sq_norm
from .kernels import AlphaFunction, SplitKernel, split, stable_like_kernel, JumpKernel
from .quadrature import DEFAULT_SCHEME, AnnulusScheme

__all__ = [
    "RunConfig",
    "RunReport",
    "compile_expression",
    "parse_config",
    "validate_config",
    "load_config",
    "run",
    "classify_exit",
    "report_to_json",
]

VERSION = "0.1.0"

_FUNC_ENV = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
    "sinh": np.sinh,
    "cosh": np.cosh,
}
_CONST_ENV = {"pi": math.pi, "e": math.e}

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.USub, ast.UAdd)


def compile_expression(expr: str, variables: tuple) -> Callable:
    """Compile a whitelisted arithmetic expression into a vectorized function.

    Allowed: the named variables, +-*/**, unary minus, the functions
    sin cos tan exp log sqrt abs tanh sinh cosh, and the constants pi, e.
    Returns f(*variables), the expression as a function of the variables in
    the order given (by keyword too), for numpy arrays; the functions and
    constants are bound once, here.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"expression {expr!r}: {exc.msg}") from None
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Load)):
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            continue
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
            continue
        if isinstance(node, _BINOPS + _UNARYOPS):
            continue
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _FUNC_ENV
                and not node.keywords
            ):
                continue
            raise ConfigError(f"expression {expr!r}: only calls to {sorted(_FUNC_ENV)} are allowed")
        if isinstance(node, ast.Name):
            if node.id in variables or node.id in _CONST_ENV or node.id in _FUNC_ENV:
                continue
            raise ConfigError(
                f"expression {expr!r}: unknown name {node.id!r} (variables: {', '.join(variables)})"
            )
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            continue
        raise ConfigError(f"expression {expr!r}: disallowed syntax {type(node).__name__}")
    params = ast.arguments(posonlyargs=[], args=[ast.arg(arg=v) for v in variables], kwonlyargs=[], kw_defaults=[], defaults=[])
    fn = ast.fix_missing_locations(ast.Expression(ast.Lambda(args=params, body=tree.body)))
    names = {"__builtins__": {}, **_FUNC_ENV, **_CONST_ENV}
    return eval(compile(fn, "<expression>", "eval"), names)  # noqa: S307 - AST whitelisted above


def _kernel_vars(dim: int) -> tuple:
    return ("x", "y", "r") if dim == 1 else ("x1", "x2", "y1", "y2", "r")


def _alpha_vars(dim: int) -> tuple:
    return ("x",) if dim == 1 else ("x1", "x2")


def _kernel_body(expr: Callable, dim: int, zsup: Optional[float]) -> Callable:
    """k(X, Y, r) of an expression kernel, r = |Y - X| given: the expression
    at the coordinates of X and Y, 0 where r > zsup, shaped as the pairs."""

    def body(X, Y, r):
        coords = (X[..., 0], Y[..., 0]) if dim == 1 else (X[..., 0], X[..., 1], Y[..., 0], Y[..., 1])
        vals = np.asarray(expr(*coords, r), dtype=float)
        if zsup is not None:
            vals = np.where(r <= zsup, vals, 0.0)
        shape = np.broadcast_shapes(X.shape[:-1], Y.shape[:-1])
        return vals if vals.shape == shape else np.broadcast_to(vals, shape).copy()

    return body


# ---------------------------------------------------------------------------
# config model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    kernel: Optional[SplitKernel]
    scheme: AnnulusScheme
    region: Box
    functions: dict
    requests: tuple
    out: Optional[str]
    raw: dict


@dataclass(frozen=True)
class RunReport:
    version: str
    config_digest: str
    results: tuple
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config_digest": self.config_digest,
            "results": _jsonable(self.results),
            "wall_time_s": self.wall_time_s,
        }


_KNOWN_OPS = ("check", "form", "apply", "kappa", "symbol")
_CHECK_NAMES = ("A0", "H4", "FU", "H5", "MISC", "BETA_INT")
_OPERATORS = ("L", "LAMBDA", "LTILDE", "LSTAR", "B")


def _build(d: dict, diags: list):
    """Shared constructor behind validate and parse: collects diagnostics,
    returns a RunConfig whose broken pieces are None."""
    if not isinstance(d, dict):
        diags.append("config: top level must be an object")
        return None

    known_top = {"kernel", "quadrature", "region", "functions", "requests", "threads", "out", "tolerances"}
    for key in d:
        if key not in known_top:
            diags.append(f"{key}: unknown top-level key")

    # --- quadrature ---------------------------------------------------------
    scheme = DEFAULT_SCHEME
    q = d.get("quadrature", {})
    tol = d.get("tolerances", {})
    if not isinstance(q, dict):
        diags.append("quadrature: must be an object")
        q = {}
    if not isinstance(tol, dict):
        diags.append("tolerances: must be an object")
        tol = {}
    overrides = dict(q)
    for name in ("tol_abs", "tol_rel"):
        if name in tol:
            overrides[name] = tol[name]
    if overrides:
        try:
            scheme = DEFAULT_SCHEME.with_(**overrides)
        except (TypeError, JumpformError) as exc:
            diags.append(f"quadrature: {exc}")
            scheme = DEFAULT_SCHEME

    # --- kernel --------------------------------------------------------------
    kernel = None
    dim = 1
    kspec = d.get("kernel")
    if kspec is not None:
        kernel = _build_kernel(kspec, diags)
        if kernel is not None:
            dim = kernel.dim

    # --- region ---------------------------------------------------------------
    region = None
    rspec = d.get("region")
    if rspec is None:
        region = Box((-1.0,) * dim, (1.0,) * dim)
    elif isinstance(rspec, dict) and "lo" in rspec and "hi" in rspec:
        try:
            region = Box(tuple(float(v) for v in rspec["lo"]), tuple(float(v) for v in rspec["hi"]))
            if region.dim != dim:
                diags.append(f"region: dimension {region.dim} does not match kernel dimension {dim}")
        except (TypeError, ValueError, JumpformError) as exc:
            diags.append(f"region: {exc}")
    else:
        diags.append("region: must be an object with 'lo' and 'hi' arrays")
    if region is None:
        region = Box((-1.0,) * dim, (1.0,) * dim)
    if kernel is not None and kernel.base.alpha_fn is not None and region.dim == dim:
        _check_order_range(kernel.base.alpha_fn, region, diags)
    if kernel is not None and kernel.base.alpha_fn is None and region.dim == dim:
        _check_tail_bound(kernel.base, region, diags)

    # --- functions --------------------------------------------------------------
    functions = {}
    fspec = d.get("functions", {})
    if not isinstance(fspec, dict):
        diags.append("functions: must be an object of named definitions")
        fspec = {}
    for name, fd in fspec.items():
        g = _build_function(name, fd, dim, diags)
        if g is not None:
            functions[name] = g

    # --- requests ----------------------------------------------------------------
    requests = d.get("requests", [])
    if not isinstance(requests, list):
        diags.append("requests: must be a list")
        requests = []
    for i, req in enumerate(requests):
        _check_request(i, req, d, functions, kernel, diags)

    try:
        thread_count(d.get("threads", 1))
    except ConfigError as exc:
        diags.append(str(exc))

    out = d.get("out")
    if out is not None and not isinstance(out, str):
        diags.append("out: must be a string path")
        out = None

    return RunConfig(
        kernel=kernel,
        scheme=scheme,
        region=region,
        functions=functions,
        requests=tuple(requests),
        out=out,
        raw=d,
    )


def _build_alpha(spec, diags, path) -> Optional[AlphaFunction]:
    if not isinstance(spec, dict) or "type" not in spec:
        diags.append(f"{path}: alpha must be an object with a 'type'")
        return None
    dim = spec.get("dim", 1)
    if dim not in (1, 2):
        diags.append(f"{path}.dim: dimension must be 1 or 2")
        return None
    try:
        if spec["type"] == "constant":
            value = float(spec["value"])
            if not (0.0 < value < 2.0):
                diags.append(f"{path}.value: order {value} outside the open exponent domain (0, 2)")
                return None
            return AlphaFunction.constant(value, dim)
        if spec["type"] == "expression":
            a1 = float(spec["alpha1"])
            a2 = float(spec["alpha2"])
            if not (0.0 < a1 <= a2 < 2.0):
                diags.append(
                    f"{path}: declared range [{a1}, {a2}] must sit inside the open exponent domain (0, 2)"
                )
                return None
            expr = compile_expression(str(spec["expr"]), _alpha_vars(dim))

            def fn(x, _e=expr):
                x = np.asarray(x, dtype=float)
                return np.asarray(_e(*(x[..., i] for i in range(x.shape[-1]))), dtype=float)

            return AlphaFunction(fn=fn, alpha1=a1, alpha2=a2, dim=dim, label=str(spec["expr"]))
        diags.append(f"{path}.type: unknown alpha type {spec['type']!r}")
    except KeyError as exc:
        diags.append(f"{path}: missing field {exc.args[0]!r}")
    except (TypeError, ValueError, JumpformError) as exc:
        diags.append(f"{path}: {exc}")
    return None


def _check_order_range(af: AlphaFunction, region: Box, diags) -> None:
    """Report where the order leaves its declared range [alpha1, alpha2], which
    the power-law closed forms and tail bounds take on trust.  It is sampled
    on a lattice over the region and on rays from its centre out to 2^20."""
    lo, hi = np.asarray(region.lo), np.asarray(region.hi)
    axes = [np.linspace(a, b, 65 if af.dim == 1 else 17) for a, b in zip(lo, hi)]
    rays = np.array([d for d in itertools.product((-1.0, 0.0, 1.0), repeat=af.dim) if any(d)])
    far = 0.5 * (lo + hi) + np.geomspace(1.0, 2.0**20, 81)[:, None, None] * rays
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, af.dim)
    pts = np.concatenate([lattice, far.reshape(-1, af.dim)])
    with np.errstate(all="ignore"):
        a = np.broadcast_to(af(pts), pts.shape[:1])
    slack = 4.0 * np.spacing(2.0)  # a few ulps, for orders that touch their bounds
    bad = np.flatnonzero(~((a >= af.alpha1 - slack) & (a <= af.alpha2 + slack)))
    if bad.size:
        x = tuple(float(c) for c in pts[bad[0]])
        diags.append(
            f"kernel.alpha: order {float(a[bad[0]])!r} at x = {x} leaves the declared range [{af.alpha1}, {af.alpha2}]"
        )


def _check_tail_bound(k: JumpKernel, region: Box, diags) -> None:
    """Report where an expression kernel exceeds its declared tail bound
    k(x, y) <= tail_amplitude |x - y|^(-n - tail_exponent) for |x - y| >= 1,
    which far-field bounds take on trust.  Both orientations are sampled at
    |x - y| = 2^0, ..., 2^20 from a lattice over the region, in one call of
    the offset form at those radii."""
    if k.tail_amplitude is None or k.tail_exponent is None:
        return
    n = k.dim
    axes = [np.linspace(a, b, 65 if n == 1 else 5) for a, b in zip(region.lo, region.hi)]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)
    th = np.pi / 4.0 * np.arange(8)
    dirs = np.array([[1.0], [-1.0]]) if n == 1 else np.column_stack([np.cos(th), np.sin(th)])
    radii = 2.0 ** np.arange(21)
    # lattice point by lattice point, radius by radius, direction by direction
    x = np.repeat(lattice, len(radii) * len(dirs), axis=0)
    y = (lattice[:, None, None, :] + radii[:, None, None] * dirs).reshape(-1, n)
    X, Y = np.concatenate([x, y]), np.concatenate([y, x])
    r = np.tile(np.repeat(radii, len(dirs)), 2 * len(lattice))
    with np.errstate(all="ignore"):
        v = np.broadcast_to(np.asarray(k.offset_eval(X, Y, r), dtype=float), r.shape)
        bound = k.tail_amplitude * r ** (-(n + k.tail_exponent)) * (1.0 + 1e-9)
    bad = np.flatnonzero(v > bound)
    if bad.size:
        i = bad[0]
        diags.append(
            f"kernel.tail_amplitude: value {float(v[i])!r} at x = {tuple(float(c) for c in X[i])}, "
            f"y = {tuple(float(c) for c in Y[i])} exceeds tail_amplitude * |x - y|^-(n + tail_exponent) = "
            f"{float(bound[i])!r}"
        )


def _build_kernel(spec, diags) -> Optional[SplitKernel]:
    if not isinstance(spec, dict) or "type" not in spec:
        diags.append("kernel: must be an object with a 'type'")
        return None
    ktype = spec.get("type")
    try:
        if ktype == "stable_like":
            af = _build_alpha(spec.get("alpha"), diags, "kernel.alpha")
            if af is None:
                return None
            want = spec.get("dim", af.dim)
            if want != af.dim:
                diags.append("kernel.dim: does not match alpha dimension")
                return None
            return split(stable_like_kernel(af, af.dim))
        if ktype == "expression":
            dim = spec.get("dim", 1)
            if dim not in (1, 2):
                diags.append("kernel.dim: dimension must be 1 or 2")
                return None
            zsup = float(spec["z_support"]) if spec.get("z_support") is not None else None
            body = _kernel_body(compile_expression(str(spec["expr"]), _kernel_vars(dim)), dim, zsup)

            def eval_(X, Y):
                X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
                return body(X, Y, np.sqrt(sq_norm(X - Y)))

            extras = {}
            if zsup is not None:
                extras["z_support"] = zsup
            if spec.get("tail_exponent") is not None:
                extras["tail_exponent"] = float(spec["tail_exponent"])
            if spec.get("tail_amplitude") is not None:
                extras["tail_amplitude"] = float(spec["tail_amplitude"])
            base = JumpKernel(
                dim=dim,
                eval=eval_,
                symmetric_hint=bool(spec.get("symmetric", False)),
                label=str(spec["expr"]),
                offset_eval=body,
                **extras,
            )
            return split(base)
        diags.append(f"kernel.type: unknown kernel type {ktype!r}")
    except KeyError as exc:
        diags.append(f"kernel: missing field {exc.args[0]!r}")
    except (TypeError, ValueError, JumpformError) as exc:
        diags.append(f"kernel: {exc}")
    return None


def _build_function(name, fd, dim, diags) -> Optional[GridFunction]:
    path = f"functions.{name}"
    if not isinstance(fd, dict) or "type" not in fd:
        diags.append(f"{path}: must be an object with a 'type'")
        return None
    try:
        if fd["type"] == "bump":
            center = tuple(float(v) for v in fd.get("center", (0.0,) * dim))
            if len(center) != dim:
                diags.append(f"{path}.center: expected {dim} coordinates")
                return None
            return GridFunction.bump(
                center, float(fd.get("radius", 1.0)), float(fd.get("amplitude", 1.0))
            )
        if fd["type"] == "wave":
            if dim != 1:
                diags.append(f"{path}: waves are one-dimensional")
                return None
            kind = fd.get("kind", "cos")
            if kind not in ("cos", "sin"):
                diags.append(f"{path}.kind: must be 'cos' or 'sin'")
                return None
            return GridFunction.wave(float(fd.get("xi", 1.0)), kind)
        diags.append(f"{path}.type: unknown function type {fd['type']!r}")
    except (TypeError, ValueError, JumpformError) as exc:
        diags.append(f"{path}: {exc}")
    return None


def _check_request(i, req, d, functions, kernel, diags):
    path = f"requests[{i}]"
    if not isinstance(req, dict) or "op" not in req:
        diags.append(f"{path}: must be an object with an 'op'")
        return
    op = req["op"]
    if op not in _KNOWN_OPS:
        diags.append(f"{path}.op: unknown operation {op!r} (known: {', '.join(_KNOWN_OPS)})")
        return
    if op != "symbol" and kernel is None:
        diags.append(f"{path}: operation {op!r} needs a kernel")
    if op == "check":
        names = req.get("conditions", ["A0", "H4", "MISC"])
        if not isinstance(names, list):
            diags.append(f"{path}.conditions: must be a list")
            return
        for c in names:
            if c != "all" and c not in _CHECK_NAMES:
                diags.append(f"{path}.conditions: unknown condition {c!r}")
        gamma = req.get("gamma", 0.5)
        if any(c in ("FU", "all") for c in names) and (type(gamma) not in (int, float) or not 0.0 < gamma <= 1.0):
            diags.append(f"{path}.gamma: must be a number in (0, 1]")
    # a check samples a node lattice (ends included), a form a cell lattice
    least, per_axis = 2 if op == "check" else 1, req.get("per_axis")
    if op in ("check", "form") and per_axis is not None and (type(per_axis) is not int or per_axis < least):
        diags.append(f"{path}.per_axis: must be an integer >= {least}")
    if op == "form":
        kind = req.get("kind", "eta")
        if kind not in ("eta", "energy", "eta_n"):
            diags.append(f"{path}.kind: unknown form kind {kind!r}")
        if kind == "eta_n" and (not isinstance(req.get("n"), int) or req.get("n", 0) < 1):
            diags.append(f"{path}.n: eta_n needs an integer truncation index >= 1")
        for slot in ("u", "v"):
            fname = req.get(slot)
            if not isinstance(fname, str) or fname not in functions:
                diags.append(f"{path}.{slot}: undefined function {fname!r}")
    elif op == "apply":
        operator = req.get("operator")
        if operator not in _OPERATORS:
            diags.append(f"{path}.operator: must be one of {', '.join(_OPERATORS)}")
        fname = req.get("function")
        if not isinstance(fname, str) or fname not in functions:
            diags.append(f"{path}.function: undefined function {fname!r}")
        _check_points(path, req, diags)
    elif op == "kappa":
        _check_points(path, req, diags)
        if "eps_count" in req and (type(req["eps_count"]) is not int or req["eps_count"] < 1):
            diags.append(f"{path}.eps_count: must be an integer >= 1")
    elif op == "symbol":
        if "alpha" in req:
            a = req.get("alpha")
            if not isinstance(a, (int, float)) or not (0.0 < float(a) < 2.0):
                diags.append(f"{path}.alpha: order must lie in the open exponent domain (0, 2)")
        elif kernel is None or kernel.base.alpha_fn is None:
            diags.append(f"{path}: needs an 'alpha' value or a power-law kernel")
        if not isinstance(req.get("xi", 1.0), (int, float)):
            diags.append(f"{path}.xi: must be a number")


def _check_points(path, req, diags):
    pts = req.get("points")
    if pts is None:
        return  # defaults to the region lattice
    if isinstance(pts, dict):
        n = pts.get("lattice")
        if not isinstance(n, int) or n < 3:
            diags.append(f"{path}.points.lattice: must be an integer >= 3")
        return
    if not isinstance(pts, list) or not pts:
        diags.append(f"{path}.points: must be a nonempty list or a lattice spec")


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def validate_config(d: dict) -> list:
    """Schema and cross-reference diagnostics; empty list means well-formed."""
    diags: list = []
    _build(d, diags)
    return diags


def thread_count(value) -> int:
    """value as a thread count, which must be an integer >= 1 (not a bool),
    from a config's ``threads``, --threads, JUMPFORM_THREADS or run's
    ``threads``: anything else raises the one ConfigError all four get.  The
    count is validated only; it does not change how a request runs."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError("threads: must be an integer >= 1")
    return value


def parse_config(d: dict) -> RunConfig:
    diags: list = []
    cfgobj = _build(d, diags)
    if diags:
        raise ConfigError("; ".join(diags))
    return cfgobj


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IOFailure(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None


def config_digest(d: dict) -> str:
    canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _jsonable(o):
    if o is None or isinstance(o, (bool, int, str)):
        return o
    if isinstance(o, float):
        return o if math.isfinite(o) else repr(o)
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return _jsonable(float(o))
    if isinstance(o, np.ndarray):
        return _jsonable(o.tolist())
    if isinstance(o, (list, tuple)):
        return [_jsonable(v) for v in o]
    if isinstance(o, dict):
        return {str(k): _jsonable(v) for k, v in o.items()}
    if is_dataclass(o):
        return {f.name: _jsonable(getattr(o, f.name)) for f in fields(o)}
    return repr(o)


def _resolve_points(req, cfg: RunConfig):
    pts = req.get("points")
    if pts is None:
        pts = {"lattice": 5}
    if isinstance(pts, dict):
        lattice, _ = cfg.region.node_lattice(int(pts["lattice"]))
        return lattice
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if cfg.region.dim == 1 else arr.reshape(1, -1)
    return arr


def _run_check(req, cfg: RunConfig):
    names = req.get("conditions", ["A0", "H4", "MISC"])
    if "all" in names:
        names = list(_CHECK_NAMES)
    sk = cfg.kernel
    # every sampled condition at once, each with its own reports or error
    done = cond._checks(sk, names, cfg.region, cfg.scheme, req.get("per_axis"), gamma=float(req.get("gamma", 0.5)) if "FU" in names else 0.5)
    reports = []
    for name in names:
        try:
            if name in done:
                reports.extend(unwrap(done[name]))
            elif name == "BETA_INT" and sk.base.alpha_fn is None:
                reports.append({"condition_id": "BETA_INT", "error": "kernel has no variable order"})
            elif name == "BETA_INT":
                reports.append(cond.check_beta_integral(sk.base.alpha_fn, cfg.region, scheme=cfg.scheme))
        except JumpformError as exc:
            reports.append({"condition_id": name, "error": f"{type(exc).__name__}: {exc}"})
    return {"reports": reports}


def _run_form(req, cfg: RunConfig):
    u = cfg.functions[req["u"]]
    v = cfg.functions[req["v"]]
    kind = req.get("kind", "eta")
    per_axis = req.get("per_axis")
    pa = None if per_axis is None else int(per_axis)
    if kind == "eta":
        return fm.eta(u, v, cfg.kernel, cfg.scheme, outer_per_axis=pa)
    if kind == "energy":
        return {"energy": fm.energy_E(u, v, cfg.kernel, cfg.scheme, outer_per_axis=pa)}
    return {"eta_n": fm.eta_n(u, v, cfg.kernel.base, int(req["n"]), cfg.scheme, outer_per_axis=pa), "n": int(req["n"])}


def _run_apply(req, cfg: RunConfig):
    u = cfg.functions[req["function"]]
    pts = _resolve_points(req, cfg)
    operator = req["operator"]
    k = cfg.kernel.base
    if operator == "L":
        return ops.apply_L(k, u, pts, cfg.scheme)
    if operator == "LAMBDA":
        return ops.apply_Lambda(k, u, pts, cfg.scheme)
    if operator == "LTILDE":
        return ops.apply_Ltilde(cfg.kernel, u, pts, cfg.scheme)
    if operator == "LSTAR":
        return ops.apply_Lstar(k, u, pts, scheme=cfg.scheme)
    return ops.apply_B(cfg.kernel, u, pts, scheme=cfg.scheme)


def _run_kappa(req, cfg: RunConfig):
    pts = _resolve_points(req, cfg)
    eps = None
    if "eps_count" in req:
        eps = tuple(2.0 ** -m for m in range(1, int(req["eps_count"]) + 1))
    kt = ops.killing_term(cfg.kernel.base, pts, eps_sequence=eps, scheme=cfg.scheme, sk=cfg.kernel)
    sign = ops.submarkov_sign(kt)
    return {"killing": kt, "sign": sign}


def _run_symbol(req, cfg: RunConfig):
    if "alpha" in req:
        af = AlphaFunction.constant(float(req["alpha"]), 1)
    else:
        af = cfg.kernel.base.alpha_fn
    xi = float(req.get("xi", 1.0))
    x = req.get("x", 0.0)
    residual = ops.symbol_check(af, xi, x, cfg.scheme)
    denom = abs(xi) ** float(af(np.asarray(x, dtype=float).reshape(-1)))
    return {
        "xi": xi,
        "x": x,
        "residual": residual,
        "relative_residual": residual / denom if denom > 0 else residual,
    }


_RUNNERS = {
    "check": _run_check,
    "form": _run_form,
    "apply": _run_apply,
    "kappa": _run_kappa,
    "symbol": _run_symbol,
}


def run(cfg: RunConfig, threads: Optional[int] = None) -> RunReport:
    """Execute every request; numerical failures become result entries.
    ``threads`` is validated by thread_count and does not change the run."""
    if threads is not None:
        thread_count(threads)
    t0 = time.perf_counter()
    results = []
    for i, req in enumerate(cfg.requests):
        entry = {"index": i, "op": req.get("op")}
        try:
            out = _RUNNERS[req["op"]](req, cfg)
            entry["ok"] = True
            entry["result"] = _jsonable(out)
        except (JumpformError, FloatingPointError, ValueError, ZeroDivisionError, OverflowError) as exc:
            entry["ok"] = False
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
        results.append(entry)
    wall = time.perf_counter() - t0
    return RunReport(
        version=VERSION,
        config_digest=config_digest(cfg.raw),
        results=tuple(results),
        wall_time_s=wall,
    )


def report_to_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2)


def _scan_verdicts(obj, found: set):
    if isinstance(obj, dict):
        v = obj.get("verdict")
        if v in ("pass", "fail", "inconclusive"):
            found.add(v)
        if isinstance(obj.get("error"), str):
            found.add("inconclusive")
        for val in obj.values():
            _scan_verdicts(val, found)
    elif isinstance(obj, (list, tuple)):
        for val in obj:
            _scan_verdicts(val, found)


def classify_exit(report: RunReport) -> int:
    """0 all pass, 2 any condition failure, 3 inconclusive or embedded error."""
    found: set = set()
    has_error = False
    for entry in report.results:
        if not entry.get("ok", False):
            has_error = True
        _scan_verdicts(entry, found)
    if "fail" in found:
        return 2
    if "inconclusive" in found or has_error:
        return 3
    return 0
