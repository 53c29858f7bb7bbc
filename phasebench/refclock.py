"""Reference-normalized timing.

The machines this benchmark runs on change speed by up to ~2x, and CPU
time slows together with wall time, so neither wall nor process time
repeats.  The speed also flips within a single long launch, so a
reference loop timed only before and after an interval misses what
happened inside it.  Each timed interval is therefore measured against a
fixed pure-Python reference loop that is timed

* just before the interval and just after it (the bracket), and
* every ``SAMPLE_INTERVAL_S`` inside it, from a ``SIGALRM`` handler,

and reported in *reference-seconds*:

    (elapsed - time spent in samples) / mean(reference samples) * REF_NOMINAL_S

that is, seconds at one fixed machine speed, the speed at which one
reference loop takes ``REF_NOMINAL_S``.  On a launch repeated for 30 s,
in-interval sampling cut the interquartile spread of single launch times
from 21% (raw wall) to 10%; the bracket alone made it worse, 18% -> 19%.
Raw wall seconds are kept for provenance only.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: Duration of one reference loop at the nominal machine speed.  Fixed
#: once; changing it rescales every reported time.
REF_NOMINAL_S = 0.0004

#: Iterations of one reference loop (0.25-0.5 ms on the machines measured).
REF_ITERATIONS = 600
#: Reference loops timed on each side of an interval.
BRACKET_LOOPS = 3
#: Period of the in-interval samples.
SAMPLE_INTERVAL_S = 0.02
#: Untimed loops run first, so a fresh interpreter's first, slower
#: loops (cold caches, bytecode not yet specialized) are not samples.
WARMUP_LOOPS = 20
#: A sample longer than this many times the interval's median is an
#: interrupt or a collection inside the handler; it is clipped.
OUTLIER_FACTOR = 3.0


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int) -> int:
        self.value = (self.value + amount) & 0xFFFF
        return self.value


def _reference_loop(iterations: int) -> int:
    """A fixed mix of dict, list, attribute and call work.

    The mix resembles the simulator and detector inner loops: dictionary
    lookups keyed by small integers, short lists, slot attribute access
    and method calls.  Launch time scaled with its time at a fitted
    exponent of 0.5-1.0 across experiments; loops over a large dict, tuple
    keys or fresh allocations did no better (NOTES.md).
    """
    table = {}
    items = []
    cell = _Cell()
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) & 511
        acc = (acc + table.get(key, i) + cell.bump(i)) & 0xFFFFFFF
        table[key] = acc
        items.append(acc)
        if len(items) > 32:
            items.clear()
    return acc


def reference_loop_s() -> float:
    """Seconds one reference loop takes right now."""
    start = time.perf_counter()
    _reference_loop(REF_ITERATIONS)
    return time.perf_counter() - start


class RefClock:
    """Times intervals in reference-seconds with in-interval sampling.

    Use as a context manager around the whole measurement: it arms a
    ``SIGALRM`` timer whose handler times one reference loop.  Between
    two consecutive intervals the bracket loops are shared, so a closed
    loop of launches pays one bracket per launch.
    """

    def __init__(self) -> None:
        #: Every reference loop timed, in order.
        self.samples: List[float] = []
        self._sampling_s = 0.0  # time spent inside the signal handler
        self._previous = None

    def __enter__(self) -> "RefClock":
        for _ in range(WARMUP_LOOPS):
            reference_loop_s()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        self._bracket = self._bracket_loops()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_loop_s())
        self._sampling_s += time.perf_counter() - start

    def _bracket_loops(self) -> List[float]:
        loops = [reference_loop_s() for _ in range(BRACKET_LOOPS)]
        self.samples.extend(loops)
        return loops

    def rebase(self) -> None:
        """Take a fresh bracket after untimed work."""
        self._bracket = self._bracket_loops()

    def time(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn``; returns (result, wall seconds, reference-seconds)."""
        before = self._bracket
        first = len(self.samples)
        sampling = self._sampling_s
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start - (self._sampling_s - sampling)
        inside = self.samples[first:]
        self._bracket = after = self._bracket_loops()
        samples = before + inside + after
        ceiling = statistics.median(samples) * OUTLIER_FACTOR
        speed = statistics.mean(min(sample, ceiling) for sample in samples)
        return result, wall, wall / speed * REF_NOMINAL_S

    def summary(self) -> dict:
        """Raw reference-loop times (s) over this clock's life."""
        return {
            "min": min(self.samples),
            "median": statistics.median(self.samples),
            "max": max(self.samples),
            "count": len(self.samples),
        }
