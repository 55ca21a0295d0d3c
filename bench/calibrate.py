"""A fixed calibration loop that tracks how fast the machine runs right now.

On a shared host the same code runs up to twice as slow for tens of
seconds at a time, and CPU time slows as much as wall time, so a median
within one run cannot remove it.  The benchmark therefore runs two
fixed loops (plain numpy, no sobnat) immediately before every timed window
and every toolkit operation, and scales each measured time t to

    t * ref / y

where y is the median time of the loops' passes within a second of the
measured interval and ref their time on the reference machine.  Each
metric is thus the time the operation would take on a machine that runs
the loops in ref.  The raw times are kept in the results file.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

import checks

# Pass times of the two loops on the reference machine (see README.md).
REF_NUMERIC_S = 5.5e-4
REF_OBJECTS_S = 3.0e-4

_GEN = np.random.default_rng(0)
_WEIGHTS = [_GEN.uniform(-0.5, 0.5, size=s) for s in ((16, 3), (16, 17), (2, 17))]
_X = _GEN.normal(size=(50, 2))
_Y = (_X[:, 0] > 0).astype(np.int64)
_ITEMS = [np.array([float(i)]) for i in range(1000)]


def _numeric():
    """Short numpy calls driven from Python, like a desk-sized train step."""
    for _ in range(3):
        checks.sum_loss(_WEIGHTS, _X, _Y, 0.003)
        checks.residuals(_WEIGHTS, _X, _Y)


def _objects():
    """Python-object traffic: building arrays from lists of small arrays."""
    np.asarray(_ITEMS)


class Calibration:
    """Calibration passes taken through a run, and the scale they give a
    timed interval: the reference pass time over the median pass time
    within SPAN_S of the interval.  The median over a couple of seconds
    follows the machine's slow and fast phases but not the jitter of a
    single pass.

    kind "numeric" scales by the numeric loop alone (train steps);
    "mixed" by the geometric mean of both loops (toolkit commands, which
    spend much of their time on Python objects).
    """

    SPAN_S = 1.0

    def __init__(self):
        self.times = []
        self.numeric = []
        self.objects = []

    def sample(self):
        """Run both loops once and record their times."""
        t0 = time.perf_counter()
        _numeric()
        t1 = time.perf_counter()
        _objects()
        t2 = time.perf_counter()
        self.times.append(t2)
        self.numeric.append(t1 - t0)
        self.objects.append(t2 - t1)

    def scale(self, start, end, kind="numeric") -> float:
        lo = bisect.bisect_left(self.times, start - self.SPAN_S)
        hi = bisect.bisect_right(self.times, end + self.SPAN_S)
        num = np.asarray(self.numeric[lo:hi])
        if kind == "numeric":
            return REF_NUMERIC_S / float(np.median(num))
        mixed = np.sqrt(num * np.asarray(self.objects[lo:hi]))
        return float(np.sqrt(REF_NUMERIC_S * REF_OBJECTS_S)) / float(np.median(mixed))
