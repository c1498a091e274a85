"""The machine's current speed, from a fixed reference computation.

On a shared machine the CPU speed moves between a fast and a slow level,
about 1.4 times apart, as neighbours on the same core start and stop, and a
run can sit at either level for its whole length. Every time a workload
measures then moves with it. A gauge times a fixed reference computation
between the workload's operations, in the same process, so that end-to-end
times can be reported at one reference speed (see run.py): each measured
time is scaled by REFERENCE_S / (the reference time around it, the median
of the NEAR samples just before and the NEAR just after). Pairing each time
with the samples around it also follows changes of speed within a run.

The reference is benchmark code, so no change to semgrasp can change it;
it mixes the kinds of work the pipeline does (a Python loop over floats,
small numpy reductions and a small matrix product).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The reference computation's time at the reference speed. Reported times
# are what they would be on a machine where it takes this long; on a 2-core
# Xeon VM it takes about 8.5 ms at the fast level and 11 ms at the slow one.
REFERENCE_S = 0.010
# Wall time between two reference samples while a workload runs, so the
# gauge costs about a tenth of a run.
SAMPLE_EVERY_S = 0.1
# Samples taken on each side of a measured time: more than one, so that one
# sample hit by an interrupt does not rescale the time.
NEAR = 2

_MATRIX = np.random.default_rng(0).standard_normal((64, 64))
_VECTOR = np.random.default_rng(1).standard_normal(3000)


def reference() -> float:
    """The fixed reference computation."""
    total = 0.0
    for _ in range(300):
        total += float((_MATRIX @ _MATRIX).trace()) + float(np.dot(_VECTOR, _VECTOR))
        acc = 0.0
        for k in range(300):
            acc += k * 0.5
        total += acc
    return total


class Gauge:
    """Reference-time samples taken between a workload's timed operations.

    tick() runs the reference when SAMPLE_EVERY_S has passed since the last
    sample (always, with force=True). An inactive gauge never samples; the
    traced pass uses one, so that spans see only the workload.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self, force: bool = False) -> None:
        if not self.active or (not force and time.perf_counter() < self._due):
            return
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.samples.append(t1 - t0)
        self._due = t1 + SAMPLE_EVERY_S

    def around(self, starts: list[float], durations: list[float]) -> list[float]:
        """The reference time around each interval: the median of the NEAR last
        samples that ended before it starts and the NEAR first that start after
        it ends."""
        if not self.samples:
            return []
        ends = [t + d for t, d in zip(self.starts, self.samples)]
        out = []
        for t0, d in zip(starts, durations):
            before = bisect.bisect_right(ends, t0)
            after = bisect.bisect_left(self.starts, t0 + d)
            near = self.samples[max(0, before - NEAR):before] + self.samples[after:after + NEAR]
            out.append(statistics.median(near))
        return out
