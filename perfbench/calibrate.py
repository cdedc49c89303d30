"""Host-speed calibration: a fixed kernel timed next to every repetition.

The benchmark's timings are taken on shared machines whose speed changes
under it.  On the 2-CPU host this benchmark was built on, a fixed piece of
Python ran anywhere between 17 and 37 ms from one minute to the next, and
the simulator's repetitions sped up and slowed down with it: across 58
repetitions per workload, the log wall time of a repetition correlated at
0.93-0.95 with the log time of this kernel run around it.  Scaling each
repetition's times by ``REFERENCE_KERNEL_S / kernel time`` cut the spread of
those repetitions from 29-35% to 6-11% of the median.  ``run.py`` scales a
run's host-time medians by the median of its repetitions' factors.

The kernel does what the simulator does most - sorted inserts, a heap,
dict lookups on string-pair keys, small tuples - in code the benchmark owns,
so a change to the program never changes it.
"""

from __future__ import annotations

import random
import time
from bisect import insort
from heapq import heappop, heappush
from typing import Callable, Tuple, TypeVar

T = TypeVar("T")

#: Kernel time that defines a reference second: times are reported as if
#: measured on a host that runs :func:`kernel` in this many seconds.
REFERENCE_KERNEL_S = 0.025


def kernel() -> int:
    """A fixed amount of simulator-like work (about 20-35 ms)."""
    rng = random.Random(7)
    keys = [(f"t{rng.randrange(64)}", f"r{rng.randrange(64)}") for _ in range(3000)]
    queues: dict = {}
    heap: list = []
    total = 0
    for i, key in enumerate(keys * 4):
        queue = queues.setdefault(key, [])
        insort(queue, (rng.random(), i))
        heappush(heap, (rng.random(), i, key))
        if len(heap) > 3000:
            _, _, done = heappop(heap)
            if queues[done]:
                del queues[done][0]
        total += len(queue)
    return total


def kernel_seconds() -> float:
    """Wall time of one :func:`kernel` run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def bracketed(call: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``call`` between two kernel runs.

    Returns its result, its host wall time and its factor: the reference
    kernel time over the mean of the two kernel times.  Host seconds times
    the factor are reference seconds.
    """
    before = kernel_seconds()
    start = time.perf_counter()
    result = call()
    wall_s = time.perf_counter() - start
    after = kernel_seconds()
    return result, wall_s, 2 * REFERENCE_KERNEL_S / (before + after)
