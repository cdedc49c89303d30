"""Per-slot schedulers built on the pending-chunk pool.

The paper's scheduler (Section III-C) is :class:`StableMatchingScheduler`:
at each slot it processes pending chunks in decreasing weight (ties by earlier
arrival) and greedily selects a chunk whenever its edge's transmitter and
receiver are both still free; the selected set is a stable matching and is
transmitted during the slot.

On pools that maintain a :class:`~repro.core.matching_index.MatchingIndex`
(the ``engine="indexed"`` hot path), the stable-matching scheduler reads the
incrementally repaired matching instead of replaying the greedy pass; the
from-scratch pass below remains the reference oracle and the fallback for
plain pools.  Both paths return bit-identical matchings — same chunks, same
order — which the differential harness enforces.

For convenience this module also exposes :class:`OrderedGreedyScheduler`, a
generalisation that accepts any total order on chunks; the FIFO baseline in
:mod:`repro.baselines` is an instance of it.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple

from repro.core.interfaces import Scheduler
from repro.core.packet import Chunk
from repro.core.queues import PendingChunkPool
from repro.network.topology import TwoTierTopology
from repro.utils.ordering import chunk_fifo_key, chunk_priority_key

__all__ = ["StableMatchingScheduler", "OrderedGreedyScheduler"]


class OrderedGreedyScheduler(Scheduler):
    """Greedy maximal matching in a caller-supplied chunk order.

    Processes eligible pending chunks in the order induced by ``key`` and
    selects a chunk whenever both endpoints of its edge are still free.  The
    result is always a maximal matching; it is a *stable* matching exactly
    when ``key`` is the paper's priority order.
    """

    name = "ordered-greedy"

    def __init__(self, key: Callable[[Chunk], Tuple], name: str | None = None) -> None:
        self._key = key
        if name is not None:
            self.name = name

    def _ordered_eligible(self, pool: PendingChunkPool, now: int) -> Iterable[Chunk]:
        """Eligible chunks in the configured order, without a per-slot sort.

        The pool maintains both the priority order and (lazily) the FIFO
        order, so the two standard keys consume a ready-made iterator; only
        custom keys fall back to materialise-and-sort.  ``getattr`` keeps the
        scheduler usable against minimal pool stand-ins (the differential
        harness's naive pool), which simply take the sorting fallback.
        """
        if self._key is chunk_priority_key:
            iter_eligible = getattr(pool, "iter_eligible", None)
            if iter_eligible is not None:
                return iter_eligible(now)
            return pool.eligible_chunks(now)  # already in priority order
        if self._key is chunk_fifo_key:
            iter_fifo = getattr(pool, "iter_eligible_fifo", None)
            if iter_fifo is not None:
                return iter_fifo(now)
        return sorted(pool.eligible_chunks(now), key=self._key)

    def select_matching(
        self,
        pool: PendingChunkPool,
        topology: TwoTierTopology,
        now: int,
    ) -> List[Chunk]:
        """Return a maximal matching of eligible chunks in the configured order."""
        selected: List[Chunk] = []
        used_transmitters: set[str] = set()
        used_receivers: set[str] = set()
        for chunk in self._ordered_eligible(pool, now):
            if chunk.transmitter in used_transmitters or chunk.receiver in used_receivers:
                continue
            selected.append(chunk)
            used_transmitters.add(chunk.transmitter)
            used_receivers.add(chunk.receiver)
        return selected


class StableMatchingScheduler(OrderedGreedyScheduler):
    """The paper's greedy stable-matching scheduler (Section III-C).

    Chunks are considered in decreasing weight, ties broken by earlier packet
    arrival (and then deterministically by packet id / chunk index).  Because
    the priorities are symmetric, the greedy selection yields a stable
    matching: every skipped chunk is blocked by a selected chunk of at least
    its weight sharing its transmitter or receiver.

    The scheduler advertises ``uses_matching_index``, so indexed-engine lanes
    give it a pool whose :class:`~repro.core.matching_index.MatchingIndex`
    repairs the previous slot's matching from the arrival/completion/activation
    delta; reading it replaces the full greedy pass.  The from-scratch pass on
    the same pool is ``OrderedGreedyScheduler(chunk_priority_key)``.
    """

    name = "stable-matching"
    uses_matching_index = True

    def __init__(self) -> None:
        super().__init__(key=chunk_priority_key, name=self.name)

    def select_matching(
        self,
        pool: PendingChunkPool,
        topology: TwoTierTopology,
        now: int,
    ) -> List[Chunk]:
        """Return the greedy stable matching of the eligible chunks at ``now``."""
        index = getattr(pool, "matching_index", None)
        if index is not None and now >= pool.eligible_through:
            # The index tracks the pool's eligible partition; advancing
            # the watermark feeds it any activations due by ``now``.
            pool.advance_eligibility(now)
            return index.current_matching()
        return super().select_matching(pool, topology, now)
