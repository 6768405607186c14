"""Self time per layer from a trace file, split by whether a far-field span
encloses it.

    python3 bench/trace_split.py bench/out/trace-varorder-far-seed1.json

The traced run's ``engine.far.s`` is the far field with everything it calls.
This shows which layers that time is made of: for each layer, its self time
in the traced round and the part of it spent under an ``engine.far`` span.
"""

from __future__ import annotations

import json
import sys


def split(path: str):
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    layers = trace["layers"]
    far = layers.index("engine.far") if "engine.far" in layers else -1
    spans = {s[0]: s for s in trace["spans"]}
    covered: dict = {}
    for sid, parent, _, _, start, end in trace["spans"]:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0.0) + (end - start)

    in_far: dict = {}

    def under_far(sid: int) -> bool:
        path = []
        while sid >= 0 and sid not in in_far:
            path.append(sid)
            if spans[sid][2] == far:
                in_far[sid] = True
                break
            sid = spans[sid][1]
        result = in_far.get(sid, False)
        for p in path:
            in_far[p] = result
        return result

    total: dict = {}
    inside: dict = {}
    for sid, parent, layer, _, start, end in trace["spans"]:
        name = layers[layer]
        own = (end - start) - covered.get(sid, 0.0)
        total[name] = total.get(name, 0.0) + own
        if layer != far and parent >= 0 and under_far(parent):
            inside[name] = inside.get(name, 0.0) + own
    return total, inside


def main() -> int:
    total, inside = split(sys.argv[1])
    far_all = total.get("engine.far", 0.0) + sum(inside.values())
    print(f"far field including what it calls: {far_all:.3f} s")
    print(f"{'layer':20s} {'self s':>8s} {'under far s':>12s}")
    for name in sorted(total, key=lambda n: -total[n]):
        print(f"{name:20s} {total[name]:8.3f} {inside.get(name, 0.0):12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
