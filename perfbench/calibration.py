"""Machine-speed yardstick for the benchmark's end-to-end timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes, as other tenants come and go.  A fixed kernel is
timed next to every round and every cold start, and end-to-end timings are
reported in reference seconds: seconds on a machine where the kernel takes
``REFERENCE_S``.  The kernel is benchmark code, so no change to ``doleans``
can move it.  It mixes what ``doleans`` spends its time on: Python calls,
float math, small objects and a small numpy expression.
"""

import gc
import math
import time

import numpy as np

REFERENCE_S = 0.001
REPEATS = 5


class _Point:
    __slots__ = ("x", "pair")

    def __init__(self, x, pair):
        self.x = x
        self.pair = pair


def _term(x: float) -> float:
    return math.log1p(x) - x / (1.0 + x)


def _kernel() -> float:
    points = []
    total = 0.0
    for i in range(2500):
        p = _Point(float(i), (i, 0.5 * i))
        total += _term(p.x * 1e-3)
        points.append(p)
    return total + float(np.log1p(np.arange(2000.0)).sum())


def calibrate() -> float:
    """Median seconds of one kernel run, over ``REPEATS`` runs made now.

    The garbage collector is off meanwhile, so the heap the program leaves
    behind cannot change the kernel's time.
    """
    times = []
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return sorted(times)[REPEATS // 2]
