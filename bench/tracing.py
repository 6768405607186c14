"""Per-layer tracing of jumpform from outside the package.

Each instrumented entry point is replaced, for the duration of a traced
round, by a wrapper that records a span (layer, start, end, parent span) and
updates the layer's counters.  Nothing in ``src/`` changes: names are
patched where the package looks them up, which for names bound with
``from ... import`` means in every importing module as well
(``_engine.weight_w`` next to ``kernels.weight_w``, ``operators.pv_limit``
next to ``quadrature.pv_limit``, ``cli.run`` next to ``config.run``).

Self time of a span is its duration minus the durations of its direct child
spans.  Inclusive time (metric names ending ``.s``) counts only spans with no
ancestor in the same layer, so recursion such as ``far_mass`` resolving a
composite face, or ``apply_Lstar`` calling ``killing_term``, is not counted
twice.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class LayerStats:
    calls: int = 0
    entries: int = 0  # calls from outside the layer
    self_s: float = 0.0
    incl_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, key: str, n) -> None:
        self.counters[key] = self.counters.get(key, 0) + n


class Tracer:
    """Installs wrappers around jumpform entry points and aggregates spans."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self.depth: dict[str, int] = {}
        self.stack: list = []
        self.spans: list = []
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._next_id = 0
        self._patches: list = []
        self.op_id = -1

    # -- recording ---------------------------------------------------------

    def _layer(self, name: str) -> LayerStats:
        if name not in self.layers:
            self.layers[name] = LayerStats()
            self.depth[name] = 0
            self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return self.layers[name]

    def wrap(self, layer: str, fn, hook=None):
        """Wrapper recording a span of ``layer`` around ``fn``.

        ``hook(stats, outermost, args, kwargs, result)`` updates counters
        after a successful call.
        """
        stats = self._layer(layer)
        lid = self._layer_ids[layer]
        stack = self.stack
        depth = self.depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            outermost = depth[layer] == 0
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0.0, sid]  # [time covered by child spans, span id]
            stack.append(frame)
            depth[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[layer] -= 1
                stack.pop()
                dur = t1 - t0
                stats.calls += 1
                stats.self_s += dur - frame[0]
                if outermost:
                    stats.entries += 1
                    stats.incl_s += dur
                if parent is not None:
                    parent[0] += dur
                self.spans.append((sid, parent[1] if parent is not None else -1, lid, self.op_id, t0, t1))
            if hook is not None:
                hook(stats, outermost, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, layer: str, hook=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original, hook))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates, as flat per-layer numbers."""
        return {
            name: {
                "calls": st.calls,
                "entries": st.entries,
                "self_s": st.self_s,
                "incl_s": st.incl_s,
                **st.counters,
            }
            for name, st in self.layers.items()
        }

    def write(self, path: str, extra: dict) -> None:
        """Write the kept spans as (id, parent, layer, op, start, end) rows."""
        t_base = self.spans[0][4] if self.spans else 0.0
        rows = [[s, p, l, o, round(a - t_base, 9), round(b - t_base, 9)] for s, p, l, o, a, b in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layer_names, "columns": ["id", "parent", "layer", "op", "start_s", "end_s"], "spans": rows, **extra}, fh)


# ---------------------------------------------------------------------------
# what is instrumented
# ---------------------------------------------------------------------------


def _count_nodes(st, outer, args, kwargs, res):
    st.add("count", res.count)


def _count_pairs(st, outer, args, kwargs, res):
    st.add("pairs", int(getattr(res, "size", 1)))


def _far_entry(st, outer, args, kwargs, res):
    if outer and not res[2]:
        st.add("unresolved", 1)


def _far_octave(st, outer, args, kwargs, res):
    st.add("octaves", 1)


def _shells_refined(st, outer, args, kwargs, res):
    st.add("count", int(res[2]))


def _shells_planned(st, outer, args, kwargs, res):
    st.add("count", len(res[0]))


def _op_points(st, outer, args, kwargs, res):
    if outer:
        st.add("points", len(res.points) if hasattr(res, "points") else 1)


def _samples(st, outer, args, kwargs, res):
    if outer:
        reports = res if isinstance(res, list) else [res]
        st.add("samples", sum(r.samples for r in reports))


def instrument(tracer: Tracer) -> None:
    """Patch every instrumented entry point of the imported jumpform package."""
    from jumpform import _engine, cli, conditions, config, forms, gridfn, kernels, operators, quadrature

    def outer_cells(per_axis_position):
        # eta reports its cells; energy_E and eta_n take outer_per_axis at
        # positions 4 and 5
        def hook(st, outer, args, kwargs, res):
            if not outer:
                return
            if hasattr(res, "diagnostics"):
                st.add("cells", res.diagnostics["outer_cells"])
                return
            pos = per_axis_position
            per = kwargs.get("outer_per_axis", args[pos] if len(args) > pos else None)
            st.add("cells", len(forms._cells(args[0], args[1], per)[1]))

        return hook

    def markov_nodes(st, outer, args, kwargs, res):
        if outer:
            st.add("cells", res.lattice_nodes)

    def bound_nodes(st, outer, args, kwargs, res):
        if outer:
            u = args[0]
            n = kwargs.get("per_axis") or (33 if u.dim == 1 else 13)
            st.add("cells", n**u.dim)

    table = [
        ("kernels.weight_w", [(kernels, "weight_w"), (_engine, "weight_w")], None),
        ("kernels.alpha", [(kernels.AlphaFunction, "__call__")], None),
        ("kernels.eval", [(kernels.JumpKernel, "__call__")], _count_pairs),
        ("gamma", [(kernels, "gamma")], None),
        ("gridfn", [(gridfn.GridFunction, "__call__"), (gridfn.GridFunction, "grad"), (gridfn.GridFunction, "hess")], None),
        ("engine.nodes", [(_engine, "make_nodes")], _count_nodes),
        ("engine.integrate", [(_engine.NodeSet, "integrate")], None),
        ("engine.far", [(_engine, "far_mass"), (_engine, "_far_numeric")], _far_entry),
        ("engine.far", [(_engine, "band_value_far")], _far_octave),
        ("engine.shells", [(_engine, "shell_refine")], _shells_refined),
        ("engine.shells", [(_engine, "plan_inner_shells")], _shells_planned),
        ("engine.local", [(_engine, "stable_local")], None),
        ("engine.generator", [(_engine, "generator_point")], None),
        ("engine.kappa", [(_engine, "kappa_partials")], None),
        ("quadrature.pv", [(quadrature, "pv_limit"), (operators, "pv_limit")], None),
        (
            "operators",
            [(operators, n) for n in ("apply_L", "apply_Lambda", "apply_Ltilde", "apply_Lstar", "apply_B", "killing_term", "symbol_check")],
            _op_points,
        ),
        ("forms", [(forms, "eta"), (forms, "eta_n")], outer_cells(5)),
        ("forms", [(forms, "energy_E")], outer_cells(4)),
        ("forms", [(forms, "markov_check")], markov_nodes),
        ("forms", [(forms, "bound_checks")], bound_nodes),
        (
            "conditions",
            [(conditions, n) for n in ("check_A0", "check_sector_ratio", "check_FU", "check_local_pv_bound", "check_misc_integrability", "check_beta_integral")],
            _samples,
        ),
        ("config.parse", [(cli, "load_config"), (cli, "parse_config"), (config, "parse_config")], None),
        ("config.run", [(cli, "run"), (config, "run")], None),
        ("cli.emit", [(cli, "_emit")], None),
    ]
    for layer, targets, hook in table:
        for owner, attr in targets:
            tracer.patch(owner, attr, layer, hook)


def layer_metrics(snapshot: dict) -> dict:
    """The per-layer metrics of one traced round, by benchmark name."""

    def g(layer, key):
        return snapshot.get(layer, {}).get(key, 0)

    out = {}
    for layer in ("kernels.weight_w", "kernels.alpha", "kernels.eval", "gamma", "gridfn", "engine.integrate"):
        out[f"{layer}.calls"] = g(layer, "calls")
        out[f"{layer}.self_s"] = g(layer, "self_s")
    out["kernels.eval.pairs"] = g("kernels.eval", "pairs")
    out["engine.nodes.sets"] = g("engine.nodes", "calls")
    out["engine.nodes.count"] = g("engine.nodes", "count")
    out["engine.nodes.self_s"] = g("engine.nodes", "self_s")
    out["engine.far.calls"] = g("engine.far", "entries")
    out["engine.far.octaves"] = g("engine.far", "octaves")
    out["engine.far.unresolved"] = g("engine.far", "unresolved")
    out["engine.far.s"] = g("engine.far", "incl_s")
    out["engine.far.self_s"] = g("engine.far", "self_s")
    out["engine.shells.calls"] = g("engine.shells", "entries")
    out["engine.shells.count"] = g("engine.shells", "count")
    out["engine.shells.s"] = g("engine.shells", "incl_s")
    for layer in ("engine.local", "engine.generator", "engine.kappa", "quadrature.pv"):
        out[f"{layer}.calls"] = g(layer, "calls")
        out[f"{layer}.s"] = g(layer, "incl_s")
    out["operators.s"] = g("operators", "incl_s")
    out["operators.points"] = g("operators", "points")
    out["forms.s"] = g("forms", "incl_s")
    out["forms.cells"] = g("forms", "cells")
    out["conditions.s"] = g("conditions", "incl_s")
    out["conditions.samples"] = g("conditions", "samples")
    out["config.parse_s"] = g("config.parse", "incl_s")
    out["config.run_s"] = g("config.run", "incl_s")
    out["cli.emit_s"] = g("cli.emit", "incl_s")
    return out
