"""A fixed pure-Python reference loop that gauges the host's current speed.

On a shared machine the same rep of the same scenarios can take 30% longer
from one minute to the next, because other tenants load the CPU caches and
memory.  The benchmark samples this loop between scenarios, about every
``SAMPLE_INTERVAL_S``, and scales each rep's host times by
``REFERENCE_S / mean loop time during the rep``: they read as seconds on
a host where the loop takes ``REFERENCE_S``.  The loop does the same kind
of work as the simulator (a heap of event objects, bound callbacks, dict
updates, short lists) but imports nothing from the program, so a change
to the program cannot speed it up.

On a 2-vCPU VM shared with other tenants, the highest of five 30-second
runs of one paper_grid seed read 41% more jobs/s than the lowest
unscaled, and 10% more scaled.  Sampling only between reps (5 s apart on
paper_grid) tracked the host too coarsely: 60%.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import List

#: Nominal time of one sample: the host speed the scaled host metrics are
#: expressed at.
REFERENCE_S = 0.03
#: Host seconds between samples (the samples cost about 7% of the time).
SAMPLE_INTERVAL_S = 0.5

_EVENTS = 10_000
_QUEUE = 32


class _Event:
    __slots__ = ("time", "seq", "fn", "arg")

    def __init__(self, time: float, seq: int, fn, arg: str) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.arg = arg

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def reference_s() -> float:
    """Host seconds one sample of the reference loop takes now."""
    start = perf_counter()
    heap = []
    state = {}
    log = []

    def bump(key: str) -> None:
        state[key] = state.get(key, 0.0) * 0.5 + 1.0
        if len(log) < 64:
            log.append(key)
        else:
            log.clear()

    for i in range(_EVENTS):
        heapq.heappush(heap, _Event((i * 7919) % 1000 * 1e-3, i, bump, f"k{i % 97}"))
        if len(heap) > _QUEUE:
            event = heapq.heappop(heap)
            event.fn(event.arg)
    return perf_counter() - start


class HostGauge:
    """Samples the reference loop at most every ``SAMPLE_INTERVAL_S``."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._due = 0.0

    def poll(self) -> None:
        """Take a sample if one is due; call it between scenarios."""
        if perf_counter() >= self._due:
            self._samples.append(reference_s())
            self._due = perf_counter() + SAMPLE_INTERVAL_S

    def take(self) -> float:
        """Mean loop time of the samples since the last ``take()`` (one
        is taken now if none was due since)."""
        if not self._samples:
            self._samples.append(reference_s())
        samples, self._samples = self._samples, []
        return sum(samples) / len(samples)
