"""How fast this interpreter runs at the moment, against a fixed reference.

On a shared 2-core virtual machine, other tenants slow every instruction of
this process, in CPU time as in wall time, by up to 1.7 times for minutes at
a time, and the machine switches between the slow and the fast state
several times within a set of runs.  No statistic over raw times spans such
a switch, so each timing is taken together with a fixed loop run in the
same interpreter just before it (and again just after it, when it is long),
and is reported at the speed at which the loop takes REFERENCE_MS.

The loop adds Fractions, as the library's hot paths do: its slowdown
tracked the library's within 4-6% (IQR over median of their ratio, on each
library workload) where an integer-only loop was off by 6-14%.  Each object
it makes is freed at once, so it sets off no garbage collection, and the
heap the library leaves behind does not change its speed; the library's
code cannot change it at all.
"""
from __future__ import annotations

import time
from fractions import Fraction

LOOP_TERMS = 120
REFERENCE_MS = 0.26     # the loop's time on the 2-core VM in its fast state
STALE_S = 0.1           # a factor older than this is measured again


def loop_ms() -> float:
    t0 = time.perf_counter()
    s = Fraction(0)
    for k in range(1, LOOP_TERMS):
        s += Fraction(1, k)
    return (time.perf_counter() - t0) * 1e3


def factor() -> float:
    """REFERENCE_MS over the loop's time now (the median of three)."""
    return REFERENCE_MS / sorted(loop_ms() for _ in range(3))[1]


class Gauge:
    """The speed factor, measured again once it is older than STALE_S."""

    def __init__(self):
        self.at = float("-inf")
        self.value = 1.0

    def factor(self) -> float:
        if time.perf_counter() - self.at > STALE_S:
            self.value = factor()
            self.at = time.perf_counter()
        return self.value

    def time(self, call):
        """Run ``call``; return its result, its time in reference ms and in raw ms.

        The factor is the mean of the one before the call and the one after
        it, which is measured again only when the call took over STALE_S."""
        before = self.factor()
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            raw_ms = (time.perf_counter() - t0) * 1e3
        return result, raw_ms * (before + self.factor()) / 2, raw_ms
