"""Host speed calibration for the benchmark's time metrics.

The benchmark runs on shared machines whose speed drifts: on a 2-core
cloud host a fixed pure-Python loop ran 10-45 % slower for stretches of
tens of seconds, and one CLI job took 1.6 s at one time and 3.1 s at
another.  A drift that long is the same for a whole run, so no statistic
over the run's jobs removes it.

So a fixed interpreter loop is timed just before and just after each piece
of measured work, outside the work's own timing, and every time metric is
reported in *reference seconds*::

    wall seconds * REF_S / loop seconds

that is, the time the work would take on a host that runs the loop in
``REF_S``.  A change to the measured program moves these figures in full;
a change in the host's speed cancels out.  The loop is plain bytecode like
most of ebundles, and on the host above its time tracked the jobs' times
with a correlation of 0.8-0.9.  A loop of method calls and float
arithmetic, closer to ebundles' own code, tracked no better and made the
timed imports, which run it in a fresh interpreter, less steady.
"""

from __future__ import annotations

import time

LOOP_N = 60_000
# The loop's best-of-three time on a quiet 2-core cloud host; it sets the
# scale of every time metric.
REF_S = 0.004


def loop_seconds() -> float:
    """Best of three timings of a fixed interpreter loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        s = 0
        for i in range(LOOP_N):
            s += i * i
        best = min(best, time.perf_counter() - start)
    return best


def factor(before: float, after: float) -> float:
    """Wall seconds to reference seconds, from the loop times around the work."""
    return REF_S / ((before + after) / 2.0)
