"""Machine-speed calibration for the timing metrics.

The benchmark runs on shared machines whose speed drifts by a fifth or more
over seconds to minutes, in wall and CPU time alike.  The timed loop
therefore runs a fixed task, independent of swtorsion, every
``INTERVAL`` seconds, and each operation's time is scaled by
``REFERENCE / t``, where ``t`` is the median time of the task runs nearest
to the operation.  A calibrated time is the operation's time at the speed
at which the task takes ``REFERENCE`` seconds.  A code change moves it; a
machine slowing down for part of a run mostly does not.
"""
from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction
from typing import List, Sequence, Tuple

# The task's time on a 2-vCPU x86-64 VM under Python 3.11 at its usual
# speed, so that calibrated times read close to wall times there.
REFERENCE = 0.0033
INTERVAL = 0.1
# Task runs on each side of an operation whose median sets its factor.
_WINDOW = 3


def task_seconds() -> float:
    """Seconds taken by a fixed pure-Python task of exact arithmetic."""
    t = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        acc += Fraction(i * 7919, i + 3) * Fraction(3 ** (i % 40), i + 1)
        seen[(i, i % 7)] = acc.numerator % 1000
    return time.perf_counter() - t


def factors(runs: Sequence[Tuple[float, float]],
            starts: Sequence[float]) -> List[float]:
    """Scale factor for each operation start time.

    ``runs`` holds the task's (start time, seconds) pairs in time order.
    """
    at = [r[0] for r in runs]
    out = []
    for s in starts:
        j = bisect.bisect_right(at, s)
        near = [r[1] for r in runs[max(0, j - _WINDOW):j + _WINDOW]]
        out.append(REFERENCE / statistics.median(near))
    return out
