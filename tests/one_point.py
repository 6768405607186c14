"""One base point read through the engine's block interface.

The engine takes blocks of base points X (P, ..., n) and keeps each row's
error with its entry; the references in the tests walk one point at a time,
and read a face or a table there as the block of one, the point's error
raised where it is read.
"""

import numpy as np

from jumpform import _engine as eng
from jumpform.kernels import PairTable


def _block_of_one(x, Z):
    """x shaped as the block of one against the offsets Z (or Z[None])."""
    return np.reshape(x, (1,) * np.ndim(Z) + (-1,))


def face_at(face, x, Z):
    """The face at one base point x on the offsets Z: the entry of the block
    of one, its values or the error the point meets."""
    Z = np.asarray(Z, dtype=float)
    v, errors = face.block(_block_of_one(x, Z), Z[None])
    eng.unwrap(errors.get(0))
    return v[0]


class PointTable(dict):
    """The faces at one base point x on the offsets Z, read from the table of
    the block of one at its one row: reading a face raises the point's error
    there."""

    def __init__(self, pairs, x, Z, signed=False):
        super().__init__()
        Z = np.asarray(Z, dtype=float)
        self.tab = pairs.table(_block_of_one(x, Z), Z, signed)

    def __missing__(self, kind):
        v = self.tab[kind][0]
        eng.unwrap(self.tab.faults((kind,)).get(0))
        self[kind] = v
        return v

    minus = PairTable.minus


def shell_refine(pairs, X, hi, scheme, integrands, *, tol, signed=False, max_shells=80, label="shell refinement"):
    """eng.shell_refine with one group, every integrand at every point of X:
    (values, tail_bounds, shells), values[p] and tail_bounds[p] point p's."""
    group = (range(len(integrands)), signed, label, None)
    (values,), (tails,), shells = eng.shell_refine(pairs, X, hi, scheme, integrands, [group], tol=tol, max_shells=max_shells)
    return values, tails, shells
