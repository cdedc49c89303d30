"""The pool's lazy incidence lists: exact on first read, and never built by ALG.

:class:`~repro.core.queues.PendingChunkPool` builds its per-edge,
per-transmitter and per-receiver priority lists only when something reads
them, then maintains them incrementally.  The property test drives random
add / remove / redispatch / watermark sequences and makes the first read at
a random point, so every query is checked both on a freshly sorted list and
on one maintained through later mutations.  The engine tests pin that a
fault-free ALG lane never builds a list at all, while a laser fault builds
the transmitter lists and evicts in the same priority order as before the
lists became lazy.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.queues as queues
from repro.bench import build_cell
from repro.core import OpportunisticLinkScheduler
from repro.core.packet import Packet, split_into_chunks
from repro.core.queues import PendingChunkPool
from repro.faults import FaultEvent, FaultSchedule
from repro.simulation import simulate
from repro.utils.ordering import chunk_priority_key

PORTS = 3

_add = st.tuples(
    st.just("add"),
    st.integers(0, PORTS - 1),  # transmitter
    st.integers(0, PORTS - 1),  # receiver
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False),  # packet weight
    st.integers(1, 6),  # arrival
    st.integers(1, 3),  # edge delay (chunks per packet)
    st.integers(0, 4),  # head delay
)
_remove = st.tuples(st.just("remove"), st.integers(0, 10**6))
_redispatch = st.tuples(
    st.just("redispatch"),
    st.integers(0, 10**6),
    st.integers(0, PORTS - 1),
    st.integers(0, PORTS - 1),
    st.integers(0, 4),
)
_advance = st.tuples(st.just("advance"), st.integers(0, 3))
operations = st.lists(st.one_of(_add, _add, _remove, _redispatch, _advance), max_size=40)


def _naive(pool: PendingChunkPool, predicate) -> list:
    return sorted((c for c in pool if predicate(c)), key=chunk_priority_key)


def _assert_matches_naive(pool: PendingChunkPool) -> None:
    for t in (f"t{i}" for i in range(PORTS)):
        at_tx = _naive(pool, lambda c: c.transmitter == t)
        assert pool.chunks_at_transmitter(t) == at_tx
        # repr round-trips floats exactly: equal reprs are equal bits.
        assert repr(pool.weight_at_transmitter(t)) == repr(sum(c.weight for c in at_tx))
    for r in (f"r{i}" for i in range(PORTS)):
        at_rx = _naive(pool, lambda c: c.receiver == r)
        assert pool.chunks_at_receiver(r) == at_rx
        assert repr(pool.weight_at_receiver(r)) == repr(sum(c.weight for c in at_rx))
    watermark = pool.eligible_through
    for t in (f"t{i}" for i in range(PORTS)):
        for r in (f"r{i}" for i in range(PORTS)):
            on_edge = _naive(pool, lambda c: c.edge == (t, r))
            assert pool.chunks_on_edge(t, r) == on_edge
            assert pool.adjacent_chunks(t, r) == _naive(
                pool, lambda c: c.transmitter == t or c.receiver == r
            )
            for now in (watermark - 1, watermark, watermark + 1):
                assert pool.eligible_on_edge(t, r, now) == [
                    c for c in on_edge if c.eligible_time <= now
                ]


@given(
    ops=operations,
    first_read=st.integers(0, 40),
    matching_index=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_incidence_queries_equal_naive_sorted_filter(ops, first_read, matching_index) -> None:
    pool = PendingChunkPool(impact_index=True, matching_index=matching_index)
    next_pid = 0
    for step, op in enumerate(ops):
        if step == first_read:
            _assert_matches_naive(pool)  # builds every list mid-sequence
        kind = op[0]
        if kind == "add":
            _, t, r, weight, arrival, delay, head_delay = op
            packet = Packet(next_pid, "s", "d", weight=weight, arrival=arrival)
            next_pid += 1
            pool.add_all(
                split_into_chunks(packet, f"t{t}", f"r{r}", edge_delay=delay, head_delay=head_delay)
            )
        elif kind == "advance":
            pool.advance_eligibility(pool.eligible_through + op[1])
        elif len(pool):
            # Pick by priority position: set iteration order is not seeded.
            chunk = sorted(pool, key=chunk_priority_key)[op[1] % len(pool)]
            pool.remove(chunk)
            if kind == "redispatch":
                # As the engine's fault redispatch does: only the edge and
                # the eligible time move; the priority key stays.
                _, _, t, r, head_delay = op
                chunk.transmitter, chunk.receiver = f"t{t}", f"r{r}"
                chunk.eligible_time = pool.eligible_through + head_delay
                pool.add(chunk)
    _assert_matches_naive(pool)  # maintained lists, or a first read at the end


def _count_builds(monkeypatch) -> list:
    builds = []
    original = queues._group_sorted

    def counting(chunks, field):
        grouped = original(chunks, field)
        builds.append(field)
        return grouped

    monkeypatch.setattr(queues, "_group_sorted", counting)
    return builds


def test_fault_free_alg_never_builds_an_incidence_list(monkeypatch) -> None:
    topology, packets = build_cell(16, 800, seed=15, delay=4)
    builds = _count_builds(monkeypatch)
    result = simulate(topology, OpportunisticLinkScheduler(), packets, engine="indexed")
    assert result.all_delivered
    assert builds == []


#: The evicted ``(packet id, chunk index)`` list, as recorded before the
#: incidence lists became lazy: 73 chunks, starting (611, 4), (704, 1).
EVICTION_DIGEST = "f0bf22fe571bb482"


def test_laser_fault_builds_lists_and_evicts_in_priority_order(monkeypatch) -> None:
    topology, packets = build_cell(16, 800, seed=15, delay=4)
    builds = _count_builds(monkeypatch)
    evicted = []
    original = PendingChunkPool.chunks_at_transmitter

    def recording(pool, transmitter):
        stranded = original(pool, transmitter)
        assert stranded == _naive(pool, lambda c: c.transmitter == transmitter)
        evicted.append([(c.packet.packet_id, c.index) for c in stranded])
        return stranded

    monkeypatch.setattr(PendingChunkPool, "chunks_at_transmitter", recording)
    laser = "rack5:laser1"  # the busiest laser of this cell around slot 100
    faults = FaultSchedule.from_events(
        [
            FaultEvent(slot=100, action="fail", kind="laser", target=laser),
            FaultEvent(slot=140, action="recover", kind="laser", target=laser),
        ]
    )
    result = simulate(
        topology,
        OpportunisticLinkScheduler(),
        packets,
        engine="indexed",
        faults=faults,
        on_fail="redispatch",
    )
    assert result.all_delivered
    assert builds == [queues._TRANSMITTER]
    assert [len(stranded) for stranded in evicted] == [73]
    assert hashlib.sha256(repr(evicted).encode()).hexdigest()[:16] == EVICTION_DIGEST
