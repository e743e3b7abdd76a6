"""Host-speed normalisation of measured times.

The 2-core host this benchmark was calibrated on runs the same Python work
up to 1.8x slower for tens of seconds at a time, when other tenants load
its caches and memory. Percentiles, slices and repetitions within one run
cannot remove a slowdown that covers the whole run. So the benchmark times
a fixed probe -- 500 dict lookups scattered over a table far larger than
the caches -- between the program's calls, and scales every time it
measures by ``REFERENCE_NS / probe time``: each normalised time reads as it
would on the reference host at rest. The probe shares no code and no data
with the program, so a slower program still reads slower in proportion.
Over six back-to-back runs of ``face_point`` whose raw lookup medians
ranged over 48% of their median, the normalised medians ranged over 10%.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from collections import deque
from typing import Callable, TypeVar

T = TypeVar("T")

#: Probe time on the reference host at rest, between the program's calls
#: (the program leaves little of the probe's table cached); the unit
#: normalised times are expressed in. Any fixed value works for comparisons.
REFERENCE_NS = 400_000.0
TABLE_SIZE = 1 << 18
PROBE_LOOKUPS = 500
#: Recent probes whose median is the current speed estimate.
WINDOW = 5
#: Probe period while a single long call (a build, a recovery) runs.
SAMPLE_EVERY_S = 0.05


class SpeedProbe:
    """Fixed reference work, timed on demand; see the module docstring."""

    def __init__(self) -> None:
        rng = random.Random(20240101)
        self._table = {rng.random() * 1e12: i for i in range(TABLE_SIZE)}
        keys = list(self._table)
        rng.shuffle(keys)
        # Successive probes read successive batches of a shuffled key list,
        # so a probe never finds the previous probe's entries in cache: its
        # time does not depend on how much of the cache the program used.
        self._batches = [keys[i:i + PROBE_LOOKUPS] for i in range(0, TABLE_SIZE, PROBE_LOOKUPS)]
        self._next = 0
        self._recent: deque[int] = deque(maxlen=WINDOW)

    def _probe(self) -> int:
        """Time one probe, in ns."""
        table, acc = self._table, 0
        batch = self._batches[self._next]
        self._next = (self._next + 1) % len(self._batches)
        t0 = time.perf_counter_ns()
        for k in batch:
            acc += table[k]
        return time.perf_counter_ns() - t0

    def measure(self) -> None:
        """Time one probe and add it to the running window."""
        self._recent.append(self._probe())

    def factor(self) -> float:
        """``REFERENCE_NS`` over the median of the recent probes."""
        return REFERENCE_NS / statistics.median(self._recent)

    def sampled(self, fn: Callable[[], T]) -> tuple[T, int, list[int]]:
        """Call ``fn``; return its result, its raw ns and the probes around it.

        A long single call cannot be interleaved with probes, so a helper
        thread probes every ``SAMPLE_EVERY_S`` while it runs (taking the
        GIL for well under a millisecond each time), next to a few probes
        taken right before and after.
        """
        samples = [self._probe() for _ in range(WINDOW // 2 + 1)]
        done = threading.Event()

        def sample() -> None:
            while not done.wait(SAMPLE_EVERY_S):
                samples.append(self._probe())

        sampler = threading.Thread(target=sample, name="perfbench-speed-probe")
        sampler.start()
        try:
            t0 = time.perf_counter_ns()
            result = fn()
            elapsed = time.perf_counter_ns() - t0
        finally:
            done.set()
            sampler.join(timeout=5.0)
        if sampler.is_alive():
            raise RuntimeError("speed probe thread did not stop")
        samples += [self._probe() for _ in range(WINDOW // 2)]
        return result, elapsed, samples


def normalised_s(raw_ns: list[int], samples: list[int]) -> float:
    """Median raw time of repeated calls, in normalised seconds.

    The probes of every repetition are pooled into one speed estimate, so
    a short call is not at the mercy of the handful of probes around it.
    """
    return statistics.median(raw_ns) * REFERENCE_NS / statistics.median(samples) / 1e9
