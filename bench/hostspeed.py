"""Host-speed probe and the correction of measured times.

On a shared 2-vCPU host the same computation runs up to a third slower for
stretches of seconds to minutes, and ``process_time`` tracks wall time
exactly, so the slowdown is in the CPU itself, not in scheduling.  No
averaging inside a 35-second run removes drift that lasts minutes.

The probe is a fixed few milliseconds of the kind of work jumpform does
(small NumPy arrays driven from Python).  It runs before every operation and
once after the last one; an operation's time is corrected by the mean of the
probes on either side of it:

    corrected = measured * REF_S / probe

so a corrected second is a second on a host that runs the probe in
``REF_S``.  A change to jumpform moves corrected times exactly as it moves
raw ones; a change in the host's speed moves both the operation and its
probes, and cancels.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median probe time on the 2-vCPU host the bounds were measured on; it
# only sets the scale of corrected seconds, not their run-to-run spread
REF_S = 0.0065

_A = np.linspace(0.1, 1.9, 512)


def _slice() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100):
        b = _A * 2.0 ** (_A - 1.0) / (np.pi * (1.0 + _A))
        acc += float(b.sum()) + math.sin(i)
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds taken by the fixed reference computation: five slices, scored
    by their median so that an interrupt landing on one slice is ignored."""
    return 5.0 * statistics.median(_slice() for _ in range(5))


def corrected(seconds: float, probe_s: float) -> float:
    return seconds * REF_S / probe_s
