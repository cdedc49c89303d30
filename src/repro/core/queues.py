"""Pending-chunk bookkeeping shared by dispatchers, schedulers and the engine.

The :class:`PendingChunkPool` holds all dispatched-but-undelivered chunks and
offers them in the single chunk order defined in :mod:`repro.utils.ordering`
(decreasing weight, ties by earlier arrival).  Every chunk stores its
priority key (:attr:`~repro.core.packet.Chunk.key`, immutable for the
chunk's lifetime: the engine only mutates ``remaining_work``, and a fault
redispatch only the edge and timing fields), so each sorted list bisects on
the stored tuple through a C-level ``attrgetter`` instead of calling a key
function per comparison.

Orderings are kept only while someone reads them:

* **eager** — the eligibility partition below (the eligible set and the
  future activation buckets), which every scheduler and the engine's
  slot-skipping fast path consult;
* **lazy** — the incidence lists by reconfigurable edge, by transmitter and
  by receiver (:meth:`chunks_on_edge`, :meth:`chunks_at_transmitter`,
  :meth:`chunks_at_receiver`, :meth:`adjacent_chunks`,
  :meth:`weight_at_transmitter`, :meth:`weight_at_receiver`), and the
  priority- and FIFO-ordered views of the eligible set.  Each is built by
  sorting the pool on its first read and maintained incrementally by
  binary-search insertion afterwards.

On the ``engine="indexed"`` ALG path the impact index answers the
dispatcher, the matching index answers the scheduler and its per-edge lists
answer a spilling transmit walk (:meth:`eligible_on_edge`), so a fault-free
ALG lane builds none of the lazy orderings.  Fault eviction, the
least-loaded baseline and the reference scan build the lists they read on
their first query.

Eligibility partition
---------------------
Pending chunks are split into two sets: *eligible* chunks
(``eligible_time <= watermark``) form the eligible set, while *future*
chunks (head-of-line delay not yet elapsed) wait in time-bucketed
activation queues keyed by their ``eligible_time``.  A monotone watermark
(:attr:`eligible_through`) advances with the queries, and
:meth:`advance_eligibility` promotes whole buckets as their activation time
is reached.  This turns :meth:`eligible_chunks` from a full-pool filter into
a straight read of the eligible view, and lets the engine's slot-skipping
fast path jump directly to :meth:`next_activation_time` when nothing is
currently eligible.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.impact_index import ImpactIndex
from repro.core.matching_index import MatchingIndex
from repro.core.packet import Chunk
from repro.exceptions import SimulationError

__all__ = ["PendingChunkPool"]

#: The stored priority key; sorted chunk lists bisect through it.
_KEY = attrgetter("key")
#: Grouping fields of the three incidence lists.
_EDGE = attrgetter("transmitter", "receiver")
_TRANSMITTER = attrgetter("transmitter")
_RECEIVER = attrgetter("receiver")
#: The chunk of a FIFO-view entry.
_CHUNK = itemgetter(1)

_Incidence = Dict[Hashable, List[Chunk]]


def _fifo_entry(chunk: Chunk) -> Tuple[Tuple[float, int, int], Chunk]:
    """A chunk's FIFO-view entry: ``(arrival, packet id, index)`` paired with the chunk.

    The tail of the stored priority key is
    :func:`~repro.utils.ordering.chunk_fifo_key`; it is a total order, so
    the pairs sort and bisect without ever comparing chunks.
    """
    return (chunk.key[1:], chunk)


def _sorted_remove(chunks: List[Chunk], chunk: Chunk) -> None:
    """Remove ``chunk`` from a priority-sorted list (O(log n) search, O(n) tail shift)."""
    # The priority key is a total order (it ends in packet id / chunk
    # index), so the chunk sits exactly at its key's bisection point.
    del chunks[bisect_left(chunks, chunk.key, key=_KEY)]


def _group_sorted(chunks: Iterable[Chunk], field: Callable[[Chunk], Hashable]) -> _Incidence:
    """Priority-sorted incidence lists of ``chunks``, grouped by ``field``."""
    groups: _Incidence = {}
    for chunk in sorted(chunks, key=_KEY):
        groups.setdefault(field(chunk), []).append(chunk)
    return groups


def _insert(groups: Optional[_Incidence], port: Hashable, chunk: Chunk) -> None:
    """Insert ``chunk`` into a built incidence map (no-op while it is unbuilt)."""
    if groups is not None:
        insort(groups.setdefault(port, []), chunk, key=_KEY)


def _delete(groups: Optional[_Incidence], port: Hashable, chunk: Chunk) -> None:
    """Delete ``chunk`` from a built incidence map (no-op while it is unbuilt)."""
    if groups is not None:
        group = groups[port]
        _sorted_remove(group, chunk)
        if not group:
            del groups[port]


class PendingChunkPool:
    """Container of pending (dispatched, not fully transmitted) chunks.

    With ``impact_index=True`` the pool additionally maintains an
    :class:`~repro.core.impact_index.ImpactIndex` over its chunks, which the
    impact dispatcher uses to answer per-candidate adjacency statistics in
    O(log n) instead of scanning ``adjacent_chunks`` — the ``engine="indexed"``
    hot path.  The index mirrors pool membership exactly; it can also be
    switched on later with :meth:`enable_impact_index` (backfilling the
    current chunks), which dispatcher-level tests use.

    With ``matching_index=True`` the pool also maintains a
    :class:`~repro.core.matching_index.MatchingIndex` over its *eligible*
    chunks: every activation and removal is forwarded as a repair event, so
    the stable-matching scheduler can read the current greedy stable matching
    incrementally instead of recomputing it from scratch each slot.  Like the
    impact index it can be enabled later with :meth:`enable_matching_index`.
    """

    def __init__(self, *, impact_index: bool = False, matching_index: bool = False) -> None:
        self._all: Set[Chunk] = set()
        # Incidence lists (edge, transmitter, receiver → priority-sorted
        # chunks), each ``None`` until its first read.
        self._by_edge: Optional[_Incidence] = None
        self._by_transmitter: Optional[_Incidence] = None
        self._by_receiver: Optional[_Incidence] = None
        # Eligibility partition: chunks whose eligible_time has been reached
        # (relative to the monotone watermark) form the eligible set; later
        # chunks wait in per-activation-time buckets fronted by a min-heap of
        # activation times.  The priority- and FIFO-ordered views of the
        # eligible set are each built lazily on first use and maintained
        # incrementally afterwards, so only schedulers that actually iterate
        # in that order pay for the sorted insertions (the incremental
        # matching scheduler needs neither view).
        self._eligible_set: Set[Chunk] = set()
        self._eligible: Optional[List[Chunk]] = None
        self._eligible_fifo: Optional[List[Tuple[Tuple[float, int, int], Chunk]]] = None
        self._future: Dict[int, List[Chunk]] = {}
        self._future_times: List[int] = []
        self._eligible_through = 0
        # Incrementally maintained O(1) counters: the number of pending
        # chunks and the total remaining chunk-units of work.  The engine
        # reports transmitted work through :meth:`debit_work`.
        self._size = 0
        self._pending_work = 0.0
        self._impact_index: Optional[ImpactIndex] = ImpactIndex() if impact_index else None
        self._matching_index: Optional[MatchingIndex] = (
            MatchingIndex() if matching_index else None
        )
        # Commutative multiset hash over (transmitter, receiver, weight) —
        # the only chunk attributes the impact rule reads — maintained on
        # every add/remove.  Two pools with equal fingerprints hold (up to
        # hash collision) impact-equivalent content, which is what lets
        # ``run_multi`` share dispatch decisions across policy lanes.
        self._impact_fingerprint = 0

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, chunk: Chunk) -> None:
        """Add a pending chunk to the pool."""
        if chunk in self._all:
            raise SimulationError(f"chunk {chunk!r} is already in the pool")
        if not chunk.pending:
            raise SimulationError(f"cannot add non-pending chunk {chunk!r}")
        self._all.add(chunk)
        self._size += 1
        self._pending_work += chunk.remaining_work
        tx, rx = chunk.transmitter, chunk.receiver
        self._impact_fingerprint += hash((tx, rx, chunk.weight))
        if self._impact_index is not None:
            self._impact_index.add(chunk)
        if chunk.eligible_time <= self._eligible_through:
            self._activate(chunk)
        else:
            bucket = self._future.get(chunk.eligible_time)
            if bucket is None:
                self._future[chunk.eligible_time] = [chunk]
                heappush(self._future_times, chunk.eligible_time)
            else:
                bucket.append(chunk)
        _insert(self._by_edge, (tx, rx), chunk)
        _insert(self._by_transmitter, tx, chunk)
        _insert(self._by_receiver, rx, chunk)

    def add_all(self, chunks: Iterable[Chunk]) -> None:
        """Add every chunk in ``chunks`` to the pool."""
        for chunk in chunks:
            self.add(chunk)

    def remove(self, chunk: Chunk) -> None:
        """Remove a chunk (typically because it finished transmission)."""
        if chunk not in self._all:
            raise SimulationError(f"chunk {chunk!r} is not in the pool")
        self._all.discard(chunk)
        self._size -= 1
        self._pending_work -= chunk.remaining_work
        if self._size == 0:
            self._pending_work = 0.0  # keep float drift from accumulating across bursts
        tx, rx = chunk.transmitter, chunk.receiver
        self._impact_fingerprint -= hash((tx, rx, chunk.weight))
        if self._impact_index is not None:
            self._impact_index.discard(chunk)
        if chunk.eligible_time <= self._eligible_through:
            self._eligible_set.discard(chunk)
            if self._eligible is not None:
                _sorted_remove(self._eligible, chunk)
            if self._eligible_fifo is not None:
                fifo = self._eligible_fifo
                del fifo[bisect_left(fifo, (chunk.key[1:],))]
            if self._matching_index is not None:
                self._matching_index.discard(chunk)
        else:
            bucket = self._future[chunk.eligible_time]
            bucket.remove(chunk)
            if not bucket:
                # The activation time stays in the heap; stale entries are
                # skipped lazily when the heap front is inspected.
                del self._future[chunk.eligible_time]
        _delete(self._by_edge, (tx, rx), chunk)
        _delete(self._by_transmitter, tx, chunk)
        _delete(self._by_receiver, rx, chunk)

    def clear(self) -> None:
        """Remove every chunk from the pool."""
        self._by_edge = self._by_transmitter = self._by_receiver = None
        self._all.clear()
        self._eligible_set.clear()
        self._eligible = self._eligible_fifo = None
        self._future.clear()
        self._future_times.clear()
        self._eligible_through = 0
        self._size = 0
        self._pending_work = 0.0
        self._impact_fingerprint = 0
        if self._impact_index is not None:
            self._impact_index.clear()
        if self._matching_index is not None:
            self._matching_index.clear()

    def debit_work(self, amount: float) -> None:
        """Record that ``amount`` chunk-units of pending work were transmitted.

        Chunk ``remaining_work`` is mutated by the engine, outside the pool's
        view; this hook keeps :meth:`total_pending_work` an O(1) counter
        instead of a scan over every index.
        """
        self._pending_work -= amount

    def enable_impact_index(self) -> ImpactIndex:
        """Switch the incremental impact index on, backfilling current chunks."""
        if self._impact_index is None:
            index = ImpactIndex()
            for chunk in self._all:
                index.add(chunk)
            self._impact_index = index
        return self._impact_index

    def enable_matching_index(self) -> MatchingIndex:
        """Switch the incremental matching index on, backfilling eligible chunks."""
        if self._matching_index is None:
            index = MatchingIndex()
            for chunk in sorted(self._eligible_set, key=_KEY):
                index.activate(chunk)
            self._matching_index = index
        return self._matching_index

    # ------------------------------------------------------------------ #
    # eligibility partition
    # ------------------------------------------------------------------ #
    def _activate(self, chunk: Chunk) -> None:
        """Move a chunk into the eligible partition's iteration structures."""
        self._eligible_set.add(chunk)
        if self._eligible is not None:
            insort(self._eligible, chunk, key=_KEY)
        if self._eligible_fifo is not None:
            insort(self._eligible_fifo, _fifo_entry(chunk))
        if self._matching_index is not None:
            self._matching_index.activate(chunk)

    def _sorted_eligible(self) -> List[Chunk]:
        """The priority-ordered view of the eligible set, built on first use."""
        if self._eligible is None:
            self._eligible = sorted(self._eligible_set, key=_KEY)
        return self._eligible

    def advance_eligibility(self, now: int) -> None:
        """Advance the watermark to ``now``, promoting every due activation bucket."""
        if now <= self._eligible_through:
            return
        self._eligible_through = now
        times = self._future_times
        while times and times[0] <= now:
            due = heappop(times)
            bucket = self._future.pop(due, None)
            if bucket:
                for chunk in bucket:
                    self._activate(chunk)

    @property
    def eligible_through(self) -> int:
        """The watermark slot up to which activations have been applied.

        Queries at ``now >= eligible_through`` (the engine's monotone use)
        read the eligible partition directly; earlier ``now`` values fall
        back to filtering it, preserving exact semantics for out-of-order
        queries in tests.
        """
        return self._eligible_through

    def next_activation_time(self) -> Optional[int]:
        """The earliest ``eligible_time`` of any future (not yet eligible) chunk."""
        times = self._future_times
        while times and times[0] not in self._future:
            heappop(times)  # stale entry: its bucket emptied before activating
        return times[0] if times else None

    def has_eligible(self, now: int) -> bool:
        """Whether any pending chunk is eligible at ``now`` (advances the watermark)."""
        self.advance_eligibility(now)
        if now >= self._eligible_through:
            return bool(self._eligible_set)
        return any(c.eligible_time <= now for c in self._eligible_set)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def impact_index(self) -> Optional[ImpactIndex]:
        """The maintained impact index, or ``None`` when running reference-style."""
        return self._impact_index

    @property
    def matching_index(self) -> Optional[MatchingIndex]:
        """The maintained matching index, or ``None`` when running reference-style."""
        return self._matching_index

    @property
    def impact_fingerprint(self) -> int:
        """Commutative hash of the pool's ``(transmitter, receiver, weight)`` multiset.

        Equal multisets always produce equal fingerprints; distinct multisets
        collide only with hash-collision probability.  ``run_multi`` keys its
        shared-dispatch memo on this value (a debug flag re-verifies hits).
        """
        return self._impact_fingerprint

    def __len__(self) -> int:
        return self._size

    def total_pending_work(self) -> float:
        """Total remaining chunk-units of work across all pending chunks.

        Maintained incrementally (O(1)); equals
        ``sum(c.remaining_work for c in pool)`` up to float rounding, and is
        reset exactly to zero whenever the pool empties.
        """
        return max(self._pending_work, 0.0)

    def occupancy(self) -> Dict[str, float]:
        """JSON-ready occupancy gauges: chunk counts and pending work.

        Reads maintained state only (the future count walks the activation
        buckets, O(distinct activation times)), so the snapshot is safe to
        take from instrumentation at any point of a run.
        """
        return {
            "pending_chunks": self._size,
            "eligible_chunks": len(self._eligible_set),
            "future_chunks": sum(len(bucket) for bucket in self._future.values()),
            "pending_work": self.total_pending_work(),
        }

    def __contains__(self, chunk: Chunk) -> bool:
        return chunk in self._all

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self._all)

    def is_empty(self) -> bool:
        """Whether the pool holds no pending chunks."""
        return not self._all

    # ------------------------------------------------------------------ #
    # incidence lists (lazy: built on first read, then maintained)
    # ------------------------------------------------------------------ #
    def _edge_lists(self) -> _Incidence:
        if self._by_edge is None:
            self._by_edge = _group_sorted(self._all, _EDGE)
        return self._by_edge

    def _transmitter_lists(self) -> _Incidence:
        if self._by_transmitter is None:
            self._by_transmitter = _group_sorted(self._all, _TRANSMITTER)
        return self._by_transmitter

    def _receiver_lists(self) -> _Incidence:
        if self._by_receiver is None:
            self._by_receiver = _group_sorted(self._all, _RECEIVER)
        return self._by_receiver

    def chunks_on_edge(self, transmitter: str, receiver: str) -> List[Chunk]:
        """Pending chunks assigned to the given edge, in priority order."""
        return list(self._edge_lists().get((transmitter, receiver), ()))

    def chunks_at_transmitter(self, transmitter: str) -> List[Chunk]:
        """Pending chunks assigned to any edge incident to ``transmitter``, in priority order."""
        return list(self._transmitter_lists().get(transmitter, ()))

    def chunks_at_receiver(self, receiver: str) -> List[Chunk]:
        """Pending chunks assigned to any edge incident to ``receiver``, in priority order."""
        return list(self._receiver_lists().get(receiver, ()))

    def adjacent_chunks(self, transmitter: str, receiver: str) -> List[Chunk]:
        """Pending chunks sharing the transmitter *or* the receiver of an edge.

        This is the paper's set ``A_p(e)`` (restricted to pending chunks, which
        is exactly what the dispatcher needs because it runs before the new
        packet's own chunks are added to the pool).
        """
        # Merge the two sorted incidence lists.  The priority key is a total
        # order (it ends in packet id / chunk index), so equal keys can only
        # mean the *same* chunk — one pending on edge ``(transmitter,
        # receiver)`` itself, present in both lists — and is emitted once.
        tx = self._transmitter_lists().get(transmitter, [])
        rx = self._receiver_lists().get(receiver, [])
        if not tx:
            return list(rx)
        if not rx:
            return list(tx)
        merged: List[Chunk] = []
        i = j = 0
        while i < len(tx) and j < len(rx):
            key_t, key_r = tx[i].key, rx[j].key
            if key_t < key_r:
                merged.append(tx[i])
                i += 1
            elif key_r < key_t:
                merged.append(rx[j])
                j += 1
            else:
                merged.append(tx[i])
                i += 1
                j += 1
        merged.extend(tx[i:])
        merged.extend(rx[j:])
        return merged

    def weight_at_transmitter(self, transmitter: str) -> float:
        """Total pending chunk weight at ``transmitter`` (the β_{t,τ} quantity restricted to pending chunks).

        Summed in priority order, so the float total is independent of
        insertion history.
        """
        return sum(c.weight for c in self._transmitter_lists().get(transmitter, ()))

    def weight_at_receiver(self, receiver: str) -> float:
        """Total pending chunk weight at ``receiver``, summed in priority order."""
        return sum(c.weight for c in self._receiver_lists().get(receiver, ()))

    # ------------------------------------------------------------------ #
    # eligible views
    # ------------------------------------------------------------------ #
    def eligible_on_edge(self, transmitter: str, receiver: str, now: int) -> List[Chunk]:
        """Pending chunks on the edge that are eligible at ``now``, in priority order.

        The transmit walk's per-edge snapshot.  A pool with a matching index
        reads the edge's key-sorted entries from it once the watermark has
        reached ``now`` (the index tracks exactly the eligible set), so the
        walk never builds the edge incidence lists; otherwise the edge's
        incidence list is filtered.  Both give the same chunks in the same
        order.
        """
        index = self._matching_index
        if index is None or now > self._eligible_through:
            chunks = self.chunks_on_edge(transmitter, receiver)
        else:
            chunks = index.edge_chunks(transmitter, receiver)
            if now == self._eligible_through:
                return chunks
        return [c for c in chunks if c.eligible_time <= now]

    def eligible_chunks(self, now: int) -> List[Chunk]:
        """All pending chunks whose ``eligible_time <= now``, in priority order."""
        if now >= self._eligible_through:
            self.advance_eligibility(now)
            return list(self._sorted_eligible())
        return [c for c in self._sorted_eligible() if c.eligible_time <= now]

    def iter_eligible(self, now: int) -> Iterator[Chunk]:
        """Iterate eligible chunks in priority order without materialising a list.

        The pool must not be mutated while the iterator is live (the per-slot
        schedulers read it to completion before transmitting anything).
        """
        if now >= self._eligible_through:
            self.advance_eligibility(now)
            return iter(self._sorted_eligible())
        return (c for c in self._sorted_eligible() if c.eligible_time <= now)

    def iter_eligible_fifo(self, now: int) -> Iterator[Chunk]:
        """Iterate eligible chunks in FIFO (arrival) order without re-sorting.

        The FIFO-ordered list is built on first use and maintained
        incrementally afterwards, so only pools actually serving a
        FIFO-ordered scheduler pay for the extra index.  The same
        no-mutation-while-iterating rule as :meth:`iter_eligible` applies.
        """
        if self._eligible_fifo is None:
            self._eligible_fifo = sorted(map(_fifo_entry, self._eligible_set))
        if now >= self._eligible_through:
            self.advance_eligibility(now)
            return map(_CHUNK, self._eligible_fifo)
        return (c for _, c in self._eligible_fifo if c.eligible_time <= now)
