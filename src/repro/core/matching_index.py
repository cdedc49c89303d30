"""Incremental repair of the greedy stable matching (Section III-C hot path).

The reference scheduler recomputes the greedy stable matching from scratch
every slot: sort all eligible chunks by priority, walk the order, select a
chunk whenever both ports of its edge are free.  Between consecutive slots,
however, the eligible set changes only where chunks arrived, completed or
became eligible, and the greedy matching has a local characterisation that
makes it repairable from exactly those deltas:

    a chunk ``c`` is matched  ⟺  no *matched* chunk of higher priority
    shares ``c``'s transmitter or receiver.

(The greedy matching is the lexicographically-first maximal matching in the
chunk conflict graph; each matched chunk owns both its ports.)  The
characterisation yields two repair rules:

* **removal** of a matched chunk ``c`` frees its two ports; the only chunks
  whose status can flip are *lower*-priority chunks on those two ports (a
  higher-priority unmatched chunk was blocked through its other port, which
  the removal did not touch).  Removing an unmatched chunk changes nothing.
* **addition / activation** of a chunk ``c`` can match it — evicting at most
  one lower-priority owner per port — and each eviction recursively frees
  that owner's other port.  Every chunk in the cascade has strictly lower
  priority than its evictor, so the cascade is driven by the delta, not by
  the pool size.

:class:`MatchingIndex` implements both rules with a single priority-keyed
task heap.  Events (activations, removals) push *tasks*; draining the heap
processes tasks in non-decreasing priority order, which makes every decision
final — exactly the order the from-scratch greedy pass would have used — so
the repaired matching is **bit-identical** (same chunks, and, after the final
priority sort of the small matched set, same order) to
:func:`~repro.core.stable_matching.greedy_stable_matching` on the current
eligible set.  The differential harness and the property tests in
``tests/test_matching_index.py`` enforce this equivalence.

Two task kinds exist:

* ``eval(c)`` — decide chunk ``c`` at its own priority: match it (evicting
  lower-priority port owners) iff both ports are free or lower-priority.
* ``scan(side, port, from_key)`` — a port was freed by a chunk with priority
  ``from_key``; find the highest-priority chunk below ``from_key`` on the
  port whose other port is also free (or lower-priority).  Before committing
  to a candidate ``u``, the scan *defers* to any heap task of higher priority
  than ``u`` by re-pushing itself at ``u``'s key — this is what keeps
  decisions globally priority-ordered even when several ports are repaired
  at once.

Chunks are stored per *edge* (transmitter–receiver pair), not per port, as
key-sorted ``(priority key, chunk)`` pairs — the key is a total order, so
pairs sort and bisect with C-level tuple comparisons on the key each chunk
stores (:attr:`~repro.core.packet.Chunk.key`).  Every chunk on one edge is
blocked by the *same* port owners, so a scan only ever needs each edge's
head; each port therefore also keeps a key-sorted *head list* of
``(edge head key, peer port)``, one entry per non-empty edge, updated only
when an edge's head changes.  A scan walks that list in key order instead of
arbitrarily long runs of same-edge chunks that one hot owner blocks.

Cost per scan is O(log degree) for the starting bisect plus O(blocked heads
walked + 1); keeping head lists current costs O(log degree) bisect and an
O(degree) memmove per head change, against the reference scheduler's
Θ(E log E) full pass over all eligible chunks.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.core.packet import Chunk
from repro.exceptions import SimulationError

__all__ = ["MatchingIndex"]

#: A chunk's total-order priority key paired with the chunk itself.  Keys are
#: unique, so tuple comparison never falls through to comparing chunks.
_Key = Tuple[float, float, int, int]
_Entry = Tuple[_Key, Chunk]

#: Task kinds, ordered only for readability — the heap never compares them
#: (a strictly increasing sequence number sits before the kind in each entry).
_EVAL = 0
_SCAN_TX = 1
_SCAN_RX = 2


class MatchingIndex:
    """Maintains the greedy stable matching of an *eligible* chunk set under deltas.

    The owning :class:`~repro.core.queues.PendingChunkPool` notifies the index
    through :meth:`activate` (a chunk became eligible — freshly added or
    promoted from a future-activation bucket) and :meth:`discard` (an eligible
    chunk left the pool).  Repair work is deferred: events only push tasks,
    and :meth:`current_matching` drains the task heap before reporting, so a
    burst of completions and arrivals between two slots is settled in one
    priority-ordered pass.
    """

    __slots__ = (
        "_edges",
        "_tx_heads",
        "_rx_heads",
        "_tx_owner",
        "_rx_owner",
        "_matched",
        "_eligible",
        "_tasks",
        "_seq",
        "_tasks_done",
        "_evictions",
        "_scan_probes",
    )

    def __init__(self) -> None:
        # (tx, rx) → the edge's eligible (key, chunk) pairs, kept key-sorted.
        self._edges: Dict[Tuple[str, str], List[_Entry]] = {}
        # Port → its head list: (edge head key, peer port) per non-empty
        # edge, kept key-sorted (the scan adjacency).
        self._tx_heads: Dict[str, List[Tuple[_Key, str]]] = {}
        self._rx_heads: Dict[str, List[Tuple[_Key, str]]] = {}
        # Port → the matched entry currently owning it (both ports of a
        # matched chunk are owned by it, and only matched chunks own ports).
        self._tx_owner: Dict[str, _Entry] = {}
        self._rx_owner: Dict[str, _Entry] = {}
        self._matched: Set[_Entry] = set()
        # Chunk → its priority key; doubles as the eligibility set.
        self._eligible: Dict[Chunk, _Key] = {}
        # Pending repair tasks: (priority key, seq, kind, payload).  The seq
        # makes entries unique so kinds/payloads are never compared.
        self._tasks: List[Tuple[_Key, int, int, object]] = []
        self._seq = 0
        # Lifetime repair-work tallies (always on; one int add per event).
        self._tasks_done = 0
        self._evictions = 0
        self._scan_probes = 0

    # ------------------------------------------------------------------ #
    # events (pushed by the pool)
    # ------------------------------------------------------------------ #
    def activate(self, chunk: Chunk) -> None:
        """Track a chunk that just became eligible."""
        if chunk in self._eligible:
            raise SimulationError(f"chunk {chunk!r} is already tracked by the matching index")
        key = chunk.key
        self._eligible[chunk] = key
        tx, rx = chunk.transmitter, chunk.receiver
        edge_list = self._edges.setdefault((tx, rx), [])
        if not edge_list or key < edge_list[0][0]:
            self._move_head(tx, rx, edge_list[0][0] if edge_list else None, key)
        insort(edge_list, (key, chunk))
        self._push(key, _EVAL, chunk)

    def discard(self, chunk: Chunk) -> None:
        """Stop tracking an eligible chunk that left the pool.

        Ignores chunks the index never saw (e.g. a future-bucket chunk being
        removed before its activation time), so the pool can forward every
        removal unconditionally.
        """
        key = self._eligible.pop(chunk, None)
        if key is None:
            return
        tx, rx = chunk.transmitter, chunk.receiver
        edge_list = self._edges[(tx, rx)]
        # (key,) sorts immediately before (key, chunk); keys are unique.
        index = bisect_left(edge_list, (key,))
        del edge_list[index]
        if index == 0:
            self._move_head(tx, rx, key, edge_list[0][0] if edge_list else None)
            if not edge_list:
                del self._edges[(tx, rx)]
        entry = (key, chunk)
        if entry in self._matched:
            # Removal rule: only lower-priority chunks on the two freed ports
            # can flip status — scan each port from the removed chunk's key.
            self._matched.remove(entry)
            del self._tx_owner[tx]
            del self._rx_owner[rx]
            self._push(key, _SCAN_TX, (tx, None))
            self._push(key, _SCAN_RX, (rx, None))

    def clear(self) -> None:
        """Forget every chunk and pending task."""
        self._edges.clear()
        self._tx_heads.clear()
        self._rx_heads.clear()
        self._tx_owner.clear()
        self._rx_owner.clear()
        self._matched.clear()
        self._eligible.clear()
        self._tasks.clear()
        self._tasks_done = 0
        self._evictions = 0
        self._scan_probes = 0

    def stats(self) -> Dict[str, int]:
        """Lifetime repair-work counters.

        ``tasks`` is the number of heap tasks drained (evals, scans and scan
        deferrals), ``evictions`` the number of matched chunks displaced by
        higher-priority arrivals, and ``scan_probes`` the number of edge heads
        the freed-port scans inspected — exact, event-determined measures of
        the repair work that replaced full recomputes.
        """
        return {
            "tasks": self._tasks_done,
            "evictions": self._evictions,
            "scan_probes": self._scan_probes,
        }

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def current_matching(self) -> List[Chunk]:
        """The greedy stable matching of the tracked eligible set, in priority order.

        Drains the pending repair tasks first; the result is bit-identical to
        ``greedy_stable_matching(eligible)`` recomputed from scratch.
        """
        self._drain()
        return [chunk for _, chunk in sorted(self._matched)]

    def edge_chunks(self, transmitter: str, receiver: str) -> List[Chunk]:
        """The tracked (eligible) chunks on edge ``(transmitter, receiver)``, in priority order."""
        return [chunk for _, chunk in self._edges.get((transmitter, receiver), ())]

    def __len__(self) -> int:
        return len(self._eligible)

    # ------------------------------------------------------------------ #
    # repair machinery
    # ------------------------------------------------------------------ #
    def _move_head(self, tx: str, rx: str, old: Optional[_Key], new: Optional[_Key]) -> None:
        """Re-key edge ``(tx, rx)`` from head ``old`` to ``new`` in both ports' head lists.

        ``None`` means no entry: a new edge has no ``old`` head and an
        emptied edge no ``new`` one.
        """
        for port_heads, port, peer in ((self._tx_heads, tx, rx), (self._rx_heads, rx, tx)):
            heads = port_heads.setdefault(port, [])
            if old is not None:
                # (old,) sorts immediately before (old, peer); head keys are unique.
                del heads[bisect_left(heads, (old,))]
            if new is not None:
                insort(heads, (new, peer))

    def _push(self, key: _Key, kind: int, payload: object) -> None:
        heappush(self._tasks, (key, self._seq, kind, payload))
        self._seq += 1

    def _drain(self) -> None:
        tasks = self._tasks
        while tasks:
            key, _, kind, payload = heappop(tasks)
            self._tasks_done += 1
            if kind == _EVAL:
                self._eval(payload)
            else:
                self._scan(payload[0], key, payload[1], is_tx=kind == _SCAN_TX)

    def _eval(self, chunk: Chunk) -> None:
        """Decide ``chunk`` at its own priority position."""
        key = self._eligible.get(chunk)
        if key is None or (key, chunk) in self._matched:
            return
        tx_owner = self._tx_owner.get(chunk.transmitter)
        rx_owner = self._rx_owner.get(chunk.receiver)
        # The priority key is a total order, so an owner's key is never equal
        # to ``key``; a lower key means the owner outranks (blocks) the chunk.
        if tx_owner is not None and tx_owner[0] < key:
            return
        if rx_owner is not None and rx_owner[0] < key:
            return
        self._match((key, chunk), tx_owner, rx_owner)

    def _match(
        self, entry: _Entry, tx_owner: Optional[_Entry], rx_owner: Optional[_Entry]
    ) -> None:
        """Match ``entry``, evicting the (strictly lower-priority) port owners."""
        _, chunk = entry
        if tx_owner is not None and rx_owner is not None and tx_owner[1] is rx_owner[1]:
            # Same-edge owner: both its ports pass straight to ``chunk``.
            self._matched.remove(tx_owner)
            self._evictions += 1
        else:
            if tx_owner is not None:
                # Evicted from the shared transmitter; its receiver is freed
                # and only chunks below the evictee can use it.
                self._matched.remove(tx_owner)
                self._evictions += 1
                del self._rx_owner[tx_owner[1].receiver]
                self._push(tx_owner[0], _SCAN_RX, (tx_owner[1].receiver, None))
            if rx_owner is not None:
                self._matched.remove(rx_owner)
                self._evictions += 1
                del self._tx_owner[rx_owner[1].transmitter]
                self._push(rx_owner[0], _SCAN_TX, (rx_owner[1].transmitter, None))
        self._tx_owner[chunk.transmitter] = entry
        self._rx_owner[chunk.receiver] = entry
        self._matched.add(entry)

    def _scan(self, port: str, from_key: _Key, position: Optional[int], *, is_tx: bool) -> None:
        """Find a new owner for a freed ``port`` among chunks at or below ``from_key``.

        Decisions made while this task was queued all had keys <= ``from_key``
        (the deferral rule below guarantees it), so if the port has an owner
        again it outranks every candidate and the scan is over.

        The scan walks the port's head list in key order from ``position``, a
        deferred scan's saved place (``None`` bisects to ``from_key``); edge
        and head lists only mutate outside :meth:`_drain`, which re-pops every
        deferral.  Skipping heads before ``from_key`` is exact: such a head is
        unmatched while this port is free, so its peer port's owner outranks
        its whole edge, and during a drain matches only evict owners ranked
        below the task being processed, so that blocker stays in place.
        """
        owners = self._tx_owner if is_tx else self._rx_owner
        if port in owners:
            return
        heads = (self._tx_heads if is_tx else self._rx_heads).get(port, ())
        if position is None:
            position = bisect_left(heads, (from_key,))
        other_owners = self._rx_owner if is_tx else self._tx_owner
        tasks = self._tasks
        for position in range(position, len(heads)):
            head_key, peer = heads[position]
            if tasks and tasks[0][0] < head_key:
                # A strictly higher-priority task is pending; defer so every
                # decision is made in global priority order.
                self._push(head_key, _SCAN_TX if is_tx else _SCAN_RX, (port, position))
                return
            self._scan_probes += 1
            # The head is unmatched: matched chunks own both their ports,
            # and this port has no owner.
            other_owner = other_owners.get(peer)
            if other_owner is None or head_key < other_owner[0]:
                head = self._edges[(port, peer) if is_tx else (peer, port)][0]
                if is_tx:
                    self._match(head, None, other_owner)
                else:
                    self._match(head, other_owner, None)
                return
            # The peer port's owner outranks the whole edge.  If that owner is
            # evicted later, the eviction pushes a scan for the freed peer port
            # which re-covers this edge.
