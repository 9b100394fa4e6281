"""Host-speed sampler: times a fixed slice of pure-Python work at a
steady period while a repetition runs, so the repetition's times can be
scaled to a fixed host speed.

The benchmark shares a host whose speed drifts: the same pure-Python
loop runs up to 1.5x slower for stretches of seconds to minutes, and
per-run medians of identical work move by as much (NOTES.md, "Spread").
A median over a run cannot cancel a drift that outlasts the run. The
sampler measures the drift where it happens instead: every
``PERIOD_S`` a ``SIGALRM`` handler runs one reference slice (a fixed
loop of dictionary stores) and records when it ran and the CPU time it
took.
:meth:`Sampler.reference_seconds` then integrates an interval of the
repetition piece by piece, each piece scaled by the slices around it::

    reference seconds = sum(piece wall time * NOMINAL_SLICE_S / slice cost)

with the slices' own wall time taken out. The result is the interval's
length on a host where one slice costs ``NOMINAL_SLICE_S``, which on the
measurement host is about its speed when no neighbour loads it.

The handler runs on the main thread between bytecodes, wherever the
workload is, so no layer of the program is wrapped. A slice's cost is
read with ``time.thread_time``: when the workload runs on another thread
(the service's job thread), a slice that has to share the interpreter
lock is not charged for the time it waited.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Optional, Tuple

#: time between two slices; a slice every 50 ms costs about 2% of a run
PERIOD_S = 0.05
#: iterations of the reference loop in one slice (about 1 ms)
SLICE_ITERATIONS = 6000
#: the cost of one slice the reference seconds are scaled to
NOMINAL_SLICE_S = 0.001
#: slices on each side whose median gives a piece's local cost
NEIGHBOURS = 2


def reference_slice(iterations: int = SLICE_ITERATIONS) -> int:
    """Store a fresh string under one of 512 integer keys, over and over:
    allocation, hashing, dictionary stores and reference counting, the
    interpreter work the fuzzer does most. Strings are not tracked by the
    cyclic garbage collector, so a slice does not move the program's
    collections."""
    table = {}
    for value in range(iterations):
        table[value & 511] = str(value)
    return len(table)


class Sampler:
    """Runs a reference slice every ``period`` seconds of wall time on
    the main thread, from :meth:`start` until :meth:`stop`."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        #: one entry per slice: (wall start, wall end, CPU cost)
        self.slices: List[Tuple[float, float, float]] = []
        self._previous = None

    def start(self) -> None:
        """Run one slice now, so that every interval has a slice to be
        scaled by, and then one every ``period``."""
        self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = time.monotonic()
        cpu = time.thread_time()
        reference_slice()
        cost = time.thread_time() - cpu
        self.slices.append((start, time.monotonic(), cost))

    # -- scaling -----------------------------------------------------------

    def costs(self) -> List[float]:
        """Each slice's local cost: the median over it and its
        ``NEIGHBOURS`` on each side, which damps a single disturbed
        slice."""
        raw = [cost for _start, _end, cost in self.slices]
        return [
            statistics.median(raw[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1])
            for i in range(len(raw))
        ]

    def slice_seconds(self, start: float, end: float) -> float:
        """Wall time the slices took inside ``[start, end]``."""
        return sum(max(0.0, min(end, s_end) - max(start, s_start))
                   for s_start, s_end, _cost in self.slices)

    def reference_seconds(self, start: float, end: float,
                          costs: Optional[List[float]] = None) -> float:
        """The length of ``[start, end]`` at the nominal host speed,
        without the slices' own time. Before the first slice and after
        the last one, the nearest slice's cost applies."""
        if end <= start:
            return 0.0
        if not self.slices:
            raise ValueError("no reference slice ran; the interval "
                             "cannot be scaled")
        costs = self.costs() if costs is None else costs
        # pieces of workload time: before the first slice, between two
        # slices, after the last one; each scaled by the mean local
        # cost of the slices that bound it
        edges = [(float("-inf"), self.slices[0][0], costs[0], costs[0])]
        for i in range(len(self.slices) - 1):
            edges.append((self.slices[i][1], self.slices[i + 1][0],
                          costs[i], costs[i + 1]))
        edges.append((self.slices[-1][1], float("inf"), costs[-1],
                      costs[-1]))
        first = bisect.bisect_left(
            [piece_end for _s, piece_end, _a, _b in edges], start)
        total = 0.0
        for piece_start, piece_end, before, after in edges[first:]:
            if piece_start >= end:
                break
            length = min(end, piece_end) - max(start, piece_start)
            if length > 0:
                total += length * NOMINAL_SLICE_S / ((before + after) / 2)
        return total
