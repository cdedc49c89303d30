"""Named wall-clock span accumulation with an injectable clock.

:class:`SpanTimer` is the single timing primitive of the observability
layer: it accumulates total seconds and an invocation count per span name.
Two call styles cover every use in the repository:

* ``start()`` / ``stop(name, start)`` — two calls around a hot block;
* ``with timer.span("phase"):`` — the convenient context-manager form for
  non-hot-path callers.

The clock is injected (default :func:`time.perf_counter`) so tests drive
spans with a fake clock and assert exact totals.  The engine's slot-sampled
``dispatch``/``scheduler``/``transmit`` phase spans (``span_stride``) are
accumulated in one of these timers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator

__all__ = ["SpanTimer"]


class SpanTimer:
    """Accumulates ``(total seconds, count)`` per span name."""

    __slots__ = ("totals", "counts", "_clock")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._clock = clock

    def start(self) -> float:
        """A raw clock reading, to be passed to :meth:`stop`."""
        return self._clock()

    def stop(self, name: str, start: float) -> float:
        """Close a span opened at ``start``; returns the elapsed seconds."""
        elapsed = self._clock() - start
        self.add(name, elapsed)
        return elapsed

    def add(self, name: str, seconds: float) -> None:
        """Fold externally measured ``seconds`` into span ``name``."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager form: times the managed block into ``name``."""
        begin = self._clock()
        try:
            yield
        finally:
            self.add(name, self._clock() - begin)

    def total(self, name: str) -> float:
        """Accumulated seconds of span ``name`` (0.0 when never recorded)."""
        return self.totals.get(name, 0.0)

    def reset(self) -> None:
        """Forget every span."""
        self.totals.clear()
        self.counts.clear()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"total_s", "count"}}`` in sorted span-name order."""
        return {
            name: {"total_s": self.totals[name], "count": self.counts[name]}
            for name in sorted(self.totals)
        }
