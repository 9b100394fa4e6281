"""In-memory span recorder for the benchmark's traced runs.

A span is ``[id, name, start, end, parent]`` with ``time.monotonic``
times, a clock shared by every process of the host, so a span may start
before its process did (the root span of a run starts when the harness
spawned the process). Spans live in memory while
the workload runs and are written out once, at the end
(:meth:`Recorder.dump`). Every span of one run shares the recorder's
``run_id``.

Spans are recorded only around calls into the program's public classes,
by wrapping their methods from the benchmark's own code
(:meth:`Recorder.wrap`); the program itself carries no tracing.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (:func:`self_times`). When children nest
properly the self times of all spans sum to the root's duration, which
is how a traced run accounts for all of its wall time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: one recorded span: [id, name, start, end, parent id or None]
Span = List[Any]


class Recorder:
    """Collects spans and counters for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        #: wrapped (owner, attribute) pairs that do not exist in this
        #: version of the program; their layers then read zero
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[Span] = []
        self._local.stack = self._main_stack
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, start: Optional[float] = None) -> Span:
        """Open a span now (or at ``start``) under the innermost open
        span of this thread. A thread with no open span of its own hangs
        its spans under the innermost open span of the main thread: that
        is the span the main thread is waiting in."""
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1][0]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = None
        span = [next(self._ids), name,
                time.monotonic() if start is None else start, None, parent]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span, end: Optional[float] = None) -> None:
        """Close a span now (or at ``end``)."""
        span[3] = time.monotonic() if end is None else end
        stack = self._stack()
        if stack[-1] is span:
            stack.pop()
        else:
            del stack[next(i for i, s in enumerate(stack) if s is span)]

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        count: Optional[Callable[[Counter, tuple, Any], None]] = None,
    ) -> bool:
        """Replace ``owner.attribute`` with a wrapper that records one
        span named ``name`` per call. ``count(counters, args, result)``
        runs after a call that returned; a call that raised bumps the
        ``<name>.raised`` counter and re-raises. Returns False (and
        notes the gap) when the attribute does not exist."""
        original = getattr(owner, attribute, None)
        if original is None:
            owner_name = getattr(owner, "__name__", repr(owner))
            self.missing.append(f"{owner_name}.{attribute}")
            return False
        recorder = self

        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                recorder.counters[name + ".raised"] += 1
                raise
            finally:
                recorder.close(span)
            if count is not None:
                count(recorder.counters, args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, original))
        return True

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def calls(self) -> Counter:
        """Number of spans per name."""
        return Counter(span[1] for span in self.spans)

    def dump(self, path: str) -> None:
        """Write the run's spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"run_id": self.run_id,
                                     "counters": dict(self.counters),
                                     "missing": self.missing}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps([span_id, name, start, end, parent])
                             + "\n")


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _id, _name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered(children[span_id], start, end)
        for span_id, _name, start, end, _parent in spans
    }


def totals(spans: Iterable[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per span name: (summed self time, summed duration)."""
    spans = list(spans)
    own = self_times(spans)
    self_by_name: Dict[str, float] = defaultdict(float)
    duration_by_name: Dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _parent in spans:
        self_by_name[name] += own[span_id]
        duration_by_name[name] += end - start
    return dict(self_by_name), dict(duration_by_name)
