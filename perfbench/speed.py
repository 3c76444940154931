"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared two-core virtual machines whose speed drifts
by up to 1.8x over minutes as other tenants load the host; a slow phase
slows every kind of work alike and shows in CPU time as much as in wall
time. Each timing is therefore taken between two runs of a fixed
calibration kernel and reported at reference speed:

    t_ref = t * REFERENCE_S / mean(calibration before, calibration after)

REFERENCE_S is a round figure for the kernel's time on the machine the
benchmark was defined on (2 vCPU Intel Xeon VM, Python 3.11.7, numpy
2.4.6), where its median ranged from 4.5 to 7 ms with the host's load; a
reported second is a second on that machine at that speed. The kernel mixes
small numpy gathers with interpreter-bound object churn, the two kinds of
work algwatch's calls are made of. It must not change: every reported
time is scaled by it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.005
KERNEL_RUNS = 5


@dataclass(frozen=True)
class _Item:
    key: int
    weight: float


def _kernel() -> float:
    vec = np.linspace(0.0, 1.0, 1024)
    idx = np.arange(1024)
    acc = np.zeros(1024)
    for c in range(300):
        acc += 0.5 * vec[idx ^ c]
    table = {}
    total = 0.0
    for i in range(4000):
        item = _Item(i, i * 0.5)
        table[i % 97] = item
        total += item.weight + (i * i) % 7
        if i % 200 == 0:
            np.random.default_rng(np.random.SeedSequence((1, i, 2)))
    return float(acc.sum()) + total


def calibration_s() -> float:
    """Median time of a few kernel runs: the machine's speed right now."""
    times = []
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(seconds: float, before: float, after: float) -> float:
    """A time measured between two calibrations, at reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
