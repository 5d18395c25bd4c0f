"""Span recording for traced runs, from outside the library.

A traced run wraps public functions and methods of the library (and the
benchmark's own generator steps) with timing wrappers; the library's code
is not changed.  Spans nest per thread: each open span collects the
intervals of its children, and at close its *self time* is its duration
minus their union (:func:`perfbench.stats.self_time`).  Only per-name
aggregates are kept (total, self, count), so memory stays flat however many
quotes a run serves.

A recording level gates every wrapper:

* ``OFF`` — the wrapper calls straight through (the untraced base reps of
  a traced run, used to report the tracing overhead);
* ``SETUP`` — spans are aggregated (e.g. materialising the market);
* ``TIMED`` — spans are aggregated and top-level spans also add to their
  thread's *lane* time, which the stage-sum check compares with the timed
  wall time.  Only threads marked as lanes take part.

The level lives in a ``.value`` holder so the socket workload can share it
with its server and shard worker through a ``multiprocessing`` value.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

from perfbench.stats import self_time

OFF, SETUP, TIMED = 0, 1, 2

_now = time.perf_counter


class Level:
    """In-process recording level (same interface as a shared value)."""

    def __init__(self, value: int = OFF) -> None:
        self.value = value


class Tracer:
    """Per-process span aggregator plus the patches that feed it."""

    def __init__(self, level=None, role: str = "main") -> None:
        self.level = level if level is not None else Level()
        self.role = role
        self._patches: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        #: name -> [total seconds, self seconds, count]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        #: lane -> seconds of top-level spans recorded at level TIMED
        self.lanes: Dict[str, float] = defaultdict(float)
        self._local = threading.local()

    # -- spans ----------------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def mark_lane(self, name: str) -> None:
        """Count the calling thread's top-level spans as lane ``name``."""
        self._local.lane = "%s:%s" % (self.role, name)

    def begin(self, name: str) -> list:
        frame = [name, _now(), []]
        self._stack().append(frame)
        return frame

    def end(self, frame: list) -> None:
        finished = _now()
        stack = self._stack()
        stack.pop()
        name, started, children = frame
        duration = finished - started
        own = self_time(started, finished, children) if children else duration
        entry = self.totals[name]
        entry[0] += duration
        entry[1] += own
        entry[2] += 1
        if stack:
            stack[-1][2].append((started, finished))
        elif self.level.value == TIMED:
            lane = getattr(self._local, "lane", None)
            if lane is not None:
                # Up to now, so the lane also covers this bookkeeping.
                self.lanes[lane] += _now() - started

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Record time that does not nest on one thread (e.g. an awaited hop)."""
        entry = self.totals[name]
        entry[0] += seconds
        entry[1] += seconds
        entry[2] += count

    def traced(self, function: Callable, name: str) -> Callable:
        """``function`` wrapped in a span named ``name`` (level permitting)."""
        level, begin, end = self.level, self.begin, self.end

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not level.value:
                return function(*args, **kwargs)
            frame = begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                end(frame)

        return wrapper

    # -- patching -------------------------------------------------------- #

    def patch(self, owner: Any, attribute: str, replacement: Callable) -> None:
        """Set ``owner.attribute`` (a class, module or instance) until :meth:`restore`."""
        self._patches.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, replacement)

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by its traced version."""
        self.patch(owner, attribute, self.traced(getattr(owner, attribute), name))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- results --------------------------------------------------------- #

    def summary(self) -> dict:
        return {
            "totals": {name: list(entry) for name, entry in self.totals.items()},
            "lanes": dict(self.lanes),
        }


_MISSING = object()


def merge_summaries(summaries: List[dict]) -> dict:
    """Sum span aggregates of several processes; lanes keep their names."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    lanes: Dict[str, float] = {}
    for summary in summaries:
        for name, (total, own, count) in summary["totals"].items():
            entry = totals[name]
            entry[0] += total
            entry[1] += own
            entry[2] += count
        lanes.update(summary["lanes"])
    return {"totals": dict(totals), "lanes": lanes}


def trace_event_loop(tracer: Tracer, loop, tick: str, wait: str) -> None:
    """Time every iteration of an asyncio loop and its selector wait.

    Patches the loop *instance* (its ``_run_once`` and its selector's
    ``select``): a tick's self time is the loop thread's busy time outside
    the spans nested in it, and the wait span is the time it sat idle.
    """
    loop._run_once = tracer.traced(loop._run_once, tick)
    selector = loop._selector
    selector.select = tracer.traced(selector.select, wait)


class TracedConnection:
    """A pipe end whose blocking receive and send are spans."""

    def __init__(self, connection, tracer: Tracer, wait: str, reply: str) -> None:
        self._connection = connection
        self.recv = tracer.traced(connection.recv, wait)
        self.send = tracer.traced(connection.send, reply)

    def __getattr__(self, name: str):
        return getattr(self._connection, name)


def total(summary: dict, name: str) -> float:
    entry = summary["totals"].get(name)
    return entry[0] if entry else 0.0


def own(summary: dict, name: str) -> float:
    entry = summary["totals"].get(name)
    return entry[1] if entry else 0.0


def calls(summary: dict, name: str) -> int:
    entry = summary["totals"].get(name)
    return int(entry[2]) if entry else 0
