"""Outside-in tracing: wrappers around each layer's public calls.

The benchmark never edits the program.  For a traced run it installs
wrappers from its own code — on classes for objects the engine creates
(pools, indexes, topology views) and on instances for the policies the
benchmark builds — and removes them when the run ends.  Instance wrappers
keep the wrapped object itself in place, so attributes the engine reads
(``uses_matching_index``, ``dispatch_sharing_key``, ``shared_memo``) stay
visible and the traced program is the untraced one.

Spans stay in memory as totals and counts per ``(span, parent)`` and as
per-slot self times; the slot number is the span identifier.  A span's self
time is its duration minus the time of the spans it directly caused.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.impact_index import ImpactIndex
from repro.core.matching_index import MatchingIndex
from repro.core.queues import PendingChunkPool
from repro.faults import FaultTopologyView
from repro.network import TwoTierTopology

#: Class-level wrappers of a traced run: (class, method, span name).
CLASS_SPANS: Tuple[Tuple[type, str, str], ...] = (
    (MatchingIndex, "current_matching", "matching_index.read"),
    (MatchingIndex, "activate", "matching_index.repair"),
    (MatchingIndex, "discard", "matching_index.repair"),
    (ImpactIndex, "query", "impact_index.query"),
    (ImpactIndex, "add", "impact_index.update"),
    (ImpactIndex, "discard", "impact_index.update"),
    (PendingChunkPool, "add", "pool.add"),
    (PendingChunkPool, "remove", "pool.remove"),
    (PendingChunkPool, "chunks_on_edge", "pool.edge_snapshot"),
    (TwoTierTopology, "candidate_edges", "faults.view"),
    (TwoTierTopology, "has_edge", "faults.view"),
    (FaultTopologyView, "candidate_edges", "faults.view"),
    (FaultTopologyView, "has_edge", "faults.view"),
)

_Hook = Optional[Callable[[tuple, object], None]]


class Patches:
    """Installed wrappers, and their removal with a check that it happened."""

    def __init__(self) -> None:
        # (owner, attribute, original, is_class)
        self._installed: List[Tuple[object, str, object, bool]] = []

    def on_class(self, cls: type, attr: str, wrapper: Callable) -> Callable:
        """Replace ``cls.attr`` (defined on ``cls`` itself); returns the original."""
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._installed.append((cls, attr, original, True))
        return original

    def on_instance(self, obj: object, attr: str, wrapper: Callable) -> None:
        """Shadow the bound method ``obj.attr`` with ``wrapper`` on ``obj`` only."""
        if attr in vars(obj):
            raise RuntimeError(f"{type(obj).__name__}.{attr} is already patched")
        setattr(obj, attr, wrapper)
        self._installed.append((obj, attr, None, False))

    def restore(self) -> None:
        """Remove every wrapper, newest first, and verify the program is unpatched."""
        while self._installed:
            owner, attr, original, is_class = self._installed.pop()
            if is_class:
                setattr(owner, attr, original)
                if owner.__dict__[attr] is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
            else:
                delattr(owner, attr)
                if attr in vars(owner):
                    raise RuntimeError(f"{type(owner).__name__}.{attr} was not restored")


class Tracer:
    """Span totals per ``(span, parent)`` and per-slot self times of one run."""

    def __init__(self) -> None:
        self._stack: List[list] = []  # frames: [span name, seconds of child spans]
        #: (span, parent or None) -> [calls, total seconds, self seconds]
        self.totals: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: slot -> span -> self seconds
        self.per_slot: Dict[int, Dict[str, float]] = {}
        #: The slot of the latest dispatch or scheduling call.
        self.slot = 0
        self.patches = Patches()

    def timed(self, name: str, fn: Callable, after: _Hook = None, slot_arg: Optional[int] = None) -> Callable:
        """Wrap ``fn`` in span ``name``.

        ``after(args, result)`` runs on every successful return, outside the
        span's time; ``slot_arg`` names the positional argument holding the
        current slot.
        """
        stack = self._stack
        totals = self.totals
        per_slot = self.per_slot
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if slot_arg is not None:
                tracer.slot = args[slot_arg]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent_frame = stack[-1]
                    parent_frame[1] += elapsed
                    key = (name, parent_frame[0])
                else:
                    key = (name, None)
                own = elapsed - frame[1]
                entry = totals.get(key)
                if entry is None:
                    entry = totals[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += own
                slot_spans = per_slot.get(tracer.slot)
                if slot_spans is None:
                    slot_spans = per_slot[tracer.slot] = {}
                slot_spans[name] = slot_spans.get(name, 0.0) + own
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install_classes(self, after: Optional[Dict[Tuple[type, str], _Hook]] = None) -> None:
        """Wrap every method of :data:`CLASS_SPANS` at class level."""
        after = after or {}
        for cls, attr, name in CLASS_SPANS:
            original = cls.__dict__[attr]
            self.patches.on_class(cls, attr, self.timed(name, original, after.get((cls, attr))))

    def wrap_instance(self, obj: object, attr: str, name: str, after: _Hook = None, slot_arg: Optional[int] = None) -> None:
        """Wrap the bound method ``obj.attr`` in span ``name``."""
        self.patches.on_instance(obj, attr, self.timed(name, getattr(obj, attr), after, slot_arg))

    def source(self, packets: Iterable, on_packet: Callable[[], None]) -> Iterator:
        """``packets`` as an iterator whose every pull is span ``workloads.pull``."""
        pull = self.timed("workloads.pull", iter(packets).__next__, lambda args, result: on_packet())

        class _Source:
            def __iter__(self):
                return self

            def __next__(self):
                return pull()

        return _Source()

    # ------------------------------------------------------------------ #
    # read-out
    # ------------------------------------------------------------------ #
    def self_seconds(self, *names: str) -> float:
        """Summed self time of the named spans, under any parent."""
        return sum(entry[2] for (span, _), entry in self.totals.items() if span in names)

    def calls(self, *names: str) -> int:
        """Calls into the named spans from outside them (nested re-entry not counted)."""
        return int(
            sum(
                entry[0]
                for (span, parent), entry in self.totals.items()
                if span in names and parent not in names
            )
        )

    def top_level_seconds(self) -> float:
        """Total time of the spans called directly by the engine."""
        return sum(entry[1] for (_, parent), entry in self.totals.items() if parent is None)

    def all_self_seconds(self) -> float:
        return sum(entry[2] for entry in self.totals.values())

    def dump(self) -> dict:
        """JSON-ready spans: totals per (span, parent) and per-slot self times."""
        names = sorted({span for span, _ in self.totals})
        slots = sorted(self.per_slot)
        return {
            "totals": [
                {"span": span, "parent": parent, "calls": int(entry[0]), "total_s": entry[1], "self_s": entry[2]}
                for (span, parent), entry in sorted(self.totals.items(), key=lambda item: (item[0][0], item[0][1] or ""))
            ],
            "slots": slots,
            "self_s_per_slot": {
                name: [self.per_slot[slot].get(name, 0.0) for slot in slots] for name in names
            },
        }


class DecideClock:
    """Per-slot host time of one ALG lane's decisions, with tracing off.

    A slot's sample is the time of its ``Dispatcher.dispatch`` calls plus its
    ``Scheduler.select_matching`` call.  The engine calls the scheduler once
    per simulated slot, after that slot's dispatches, so the scheduler call
    closes the slot.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._pending = 0.0
        self.patches = Patches()

    def install(self, policy) -> None:
        clock = time.perf_counter
        dispatch = policy.dispatcher.dispatch
        select = policy.scheduler.select_matching

        def timed_dispatch(*args, **kwargs):
            start = clock()
            result = dispatch(*args, **kwargs)
            self._pending += clock() - start
            return result

        def timed_select(*args, **kwargs):
            start = clock()
            result = select(*args, **kwargs)
            self.samples.append(self._pending + clock() - start)
            self._pending = 0.0
            return result

        self.patches.on_instance(policy.dispatcher, "dispatch", timed_dispatch)
        self.patches.on_instance(policy.scheduler, "select_matching", timed_select)

    def restore(self) -> None:
        self.patches.restore()
