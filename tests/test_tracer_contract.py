"""The benchmark's tracer sees every far-field octave and leaves the package as it found it.

``bench/tracing.py`` times the package from outside: it replaces module and
class attributes (``_engine.far_mass``, ``_engine._far_numeric``,
``_engine.band_value_far`` and the rest) with wrappers for a traced round,
and counts one ``engine.far`` octave per ``band_value_far`` call.  That
holds only while the package looks these names up where the tracer patches
them, and ``restore()`` must put back every attribute it replaced.  The
module is loaded from its file and used as it is.
"""

import importlib.util
import os
import sys

import numpy as np

from jumpform import DEFAULT_SCHEME, AlphaFunction, JumpKernel, cli, conditions, config, forms, gridfn, kernels, operators
from jumpform import _engine as eng
from jumpform import quadrature, split, stable_like_kernel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every owner the tracer may patch, with its attributes as they are before
OWNERS = (eng, cli, conditions, config, forms, gridfn, kernels, operators, quadrature,
          kernels.AlphaFunction, kernels.JumpKernel, gridfn.GridFunction, eng.NodeSet)


def _tracing():
    if "bench_tracing" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
        module = sys.modules["bench_tracing"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["bench_tracing"]


def _generic_1d(x, y):
    r = np.abs(x[..., 0] - y[..., 0])
    return (1.0 + 0.3 * np.tanh(y[..., 0])) / (r**1.5 * (1.0 + r * r))


def test_far_octaves_are_the_band_calls_and_restore_puts_everything_back(monkeypatch):
    rows = []
    band = eng.band_value_far

    def counted(fn, dim, lo, hi, scheme, oscillatory, X):
        rows.append(len(X))
        return band(fn, dim, lo, hi, scheme, oscillatory, X)

    monkeypatch.setattr(eng, "band_value_far", counted)
    before = {id(owner): dict(vars(owner)) for owner in OWNERS}
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    patched = [(owner, attr) for owner, attr, _ in tracer._patches]
    assert {(eng, "far_mass"), (eng, "_far_numeric"), (eng, "band_value_far")} <= set(patched)
    assert all(id(owner) in before and vars(owner)[attr] is not before[id(owner)][attr] for owner, attr in patched)

    sk = split(JumpKernel(1, _generic_1d, tail_exponent=2.5, tail_amplitude=1.35))
    faces = eng.faces_of(sk.base, sk)
    X = np.array([[0.0], [0.3], [-0.4]])
    seen = []

    def far():
        stats = tracer.snapshot().get("engine.far", {})
        return stats.get("octaves", 0), stats.get("entries", 0)

    try:
        # a lone mass: one entry, one row per octave
        eng.far_mass(faces["direct"], X[1], 1.0, DEFAULT_SCHEME)
        seen.append((far(), list(rows)))
        # three points, one block: one entry, three rows from the first octave
        eng.far_masses(faces["transposed"], X, [1.0, 1.0, 2.5], DEFAULT_SCHEME)
        seen.append((far(), list(rows)))
        # the sector ratio's march and its |k_a| bound, both as the block of one
        conditions.sector_ratio_at(sk, X[2], DEFAULT_SCHEME)
        seen.append((far(), list(rows)))
    finally:
        tracer.restore()

    ((oct1, ent1), rows1), ((oct2, ent2), rows2), ((oct3, ent3), rows3) = seen
    assert oct1 == len(rows1) > 0 and set(rows1) == {1} and ent1 == 1
    assert oct2 == len(rows2) and rows2[len(rows1)] == 3 and ent2 == 2
    # no far_mass encloses the sector ratio's octaves, so each is an entry of its own
    assert oct3 == len(rows3) > len(rows2) and set(rows3[len(rows2):]) == {1} and ent3 == ent2 + len(rows3) - len(rows2)
    for owner, attr in patched:
        assert vars(owner)[attr] is before[id(owner)][attr], (owner, attr)
    # nothing is traced once restored
    eng.far_mass(faces["direct"], X[0], 1.0, DEFAULT_SCHEME)
    assert far() == (oct3, ent3) and len(rows) > len(rows3)


def test_the_README_order_marches_through_the_traced_names(monkeypatch):
    # a stable-like transposed face: Gauss octaves up to _FAR_RESOLVE, then
    # stratified ones, each one traced octave
    k = stable_like_kernel(AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0))
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        value, _, ok = eng.far_mass(eng.faces_of(k)["transposed"], np.array([0.3]), 32.0, DEFAULT_SCHEME)
    finally:
        tracer.restore()
    stats = tracer.snapshot()["engine.far"]
    assert ok and stats["entries"] == 1 and stats["octaves"] > 2
    assert stats["calls"] == 2 + stats["octaves"]
