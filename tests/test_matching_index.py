"""Property-based tests for the incremental matching repairer.

The contract of :class:`repro.core.matching_index.MatchingIndex` is exact
equivalence with the from-scratch oracle: after *any* sequence of
activations, removals and eligibility advances, ``current_matching()`` must
equal :func:`repro.core.stable_matching.greedy_stable_matching` recomputed
over the currently eligible chunks — same chunks, same (priority) order —
and must be a stable matching of that set.  The random walks here drive the
repairer through its full event space (tie weights, eviction cascades,
removal promotions, future-bucket removals) and check the oracle equivalence
after every single step.
"""

from __future__ import annotations

import random

import pytest

from repro.core.matching_index import MatchingIndex
from repro.core.packet import Chunk, Packet, split_into_chunks
from repro.core.queues import PendingChunkPool
from repro.core.scheduler import OrderedGreedyScheduler, StableMatchingScheduler
from repro.core.stable_matching import greedy_stable_matching, is_stable_matching
from repro.exceptions import SimulationError
from repro.network import figure2_topology
from repro.utils.ordering import chunk_priority_key


def make_chunk(
    pid: int,
    weight: float,
    edge: tuple[str, str],
    arrival: int = 1,
    head_delay: int = 0,
) -> Chunk:
    packet = Packet(pid, "s", "d", weight=weight, arrival=arrival)
    return split_into_chunks(packet, edge[0], edge[1], edge_delay=1, head_delay=head_delay)[0]


def assert_matches_oracle(index: MatchingIndex, eligible: list[Chunk]) -> None:
    """The repaired matching equals the from-scratch greedy pass, in order."""
    matching = index.current_matching()
    assert matching == greedy_stable_matching(eligible)
    assert is_stable_matching(matching, eligible)


def assert_head_lists_current(index: MatchingIndex) -> None:
    """Each port's head list is the sorted ``(edge head key, peer)`` of its edges."""
    expected_tx: dict = {}
    expected_rx: dict = {}
    for (tx, rx), edge_list in index._edges.items():
        assert edge_list, "emptied edges must be dropped"
        expected_tx.setdefault(tx, []).append((edge_list[0][0], rx))
        expected_rx.setdefault(rx, []).append((edge_list[0][0], tx))
    for heads, expected in ((index._tx_heads, expected_tx), (index._rx_heads, expected_rx)):
        assert {port: h for port, h in heads.items() if h} == {
            port: sorted(h) for port, h in expected.items()
        }


class TestBasics:
    def test_empty(self):
        assert MatchingIndex().current_matching() == []

    def test_single_chunk_matched(self):
        index = MatchingIndex()
        chunk = make_chunk(0, 2.0, ("t1", "r1"))
        index.activate(chunk)
        assert index.current_matching() == [chunk]
        assert len(index) == 1

    def test_duplicate_activation_rejected(self):
        index = MatchingIndex()
        chunk = make_chunk(0, 2.0, ("t1", "r1"))
        index.activate(chunk)
        with pytest.raises(SimulationError):
            index.activate(chunk)

    def test_discard_untracked_is_noop(self):
        index = MatchingIndex()
        index.discard(make_chunk(0, 2.0, ("t1", "r1")))
        assert index.current_matching() == []

    def test_clear(self):
        index = MatchingIndex()
        index.activate(make_chunk(0, 2.0, ("t1", "r1")))
        index.clear()
        assert len(index) == 0
        assert index.current_matching() == []

    def test_removing_unmatched_chunk_changes_nothing(self):
        index = MatchingIndex()
        heavy = make_chunk(0, 5.0, ("t1", "r1"))
        blocked = make_chunk(1, 1.0, ("t1", "r2"))
        index.activate(heavy)
        index.activate(blocked)
        assert index.current_matching() == [heavy]
        index.discard(blocked)
        assert index.current_matching() == [heavy]


class TestTieWeights:
    def test_equal_weights_resolved_by_arrival(self):
        index = MatchingIndex()
        late = make_chunk(0, 2.0, ("t1", "r1"), arrival=9)
        early = make_chunk(1, 2.0, ("t1", "r2"), arrival=3)
        index.activate(late)  # matched first…
        index.activate(early)  # …then evicted by the earlier arrival
        assert_matches_oracle(index, [late, early])
        assert index.current_matching() == [early]

    def test_equal_weight_and_arrival_resolved_by_packet_id(self):
        index = MatchingIndex()
        chunks = [make_chunk(pid, 4.0, ("t1", f"r{pid}")) for pid in (2, 0, 1)]
        for chunk in chunks:
            index.activate(chunk)
        assert_matches_oracle(index, chunks)
        assert [c.packet.packet_id for c in index.current_matching()] == [0]

    def test_all_tied_on_disjoint_edges_all_matched(self):
        index = MatchingIndex()
        chunks = [make_chunk(pid, 1.0, (f"t{pid}", f"r{pid}")) for pid in range(4)]
        for chunk in chunks:
            index.activate(chunk)
        assert_matches_oracle(index, chunks)
        assert len(index.current_matching()) == 4


class TestEvictionCascade:
    def _chain(self):
        # Matched chain b1 > b2 > b3 on disjoint edges, with c2, c3 blocked
        # in between: adding `a` on b1's transmitter triggers a full-length
        # cascade (a evicts b1, freeing r1 for c2, which evicts b2, …).
        b1 = make_chunk(1, 5.0, ("t1", "r1"))
        b2 = make_chunk(2, 3.0, ("t2", "r2"))
        b3 = make_chunk(3, 1.0, ("t3", "r3"))
        c2 = make_chunk(4, 4.0, ("t2", "r1"))
        c3 = make_chunk(5, 2.0, ("t3", "r2"))
        return [b1, b2, b3, c2, c3]

    def test_addition_triggers_bounded_cascade(self):
        index = MatchingIndex()
        chunks = self._chain()
        for chunk in chunks:
            index.activate(chunk)
        b1, b2, b3, c2, c3 = chunks
        assert index.current_matching() == [b1, b2, b3]

        a = make_chunk(0, 6.0, ("t1", "r0"))
        index.activate(a)
        assert_matches_oracle(index, chunks + [a])
        assert index.current_matching() == [a, c2, c3]

    def test_removal_unwinds_the_cascade(self):
        index = MatchingIndex()
        chunks = self._chain()
        a = make_chunk(0, 6.0, ("t1", "r0"))
        for chunk in chunks + [a]:
            index.activate(chunk)
        assert index.current_matching() == [a, chunks[3], chunks[4]]

        index.discard(a)  # b1 re-enters, evicting c2; b2 re-enters, evicting c3…
        assert_matches_oracle(index, chunks)
        assert index.current_matching() == chunks[:3]

    def test_same_edge_replacement(self):
        index = MatchingIndex()
        low = make_chunk(0, 1.0, ("t1", "r1"))
        high = make_chunk(1, 7.0, ("t1", "r1"))
        index.activate(low)
        assert index.current_matching() == [low]
        index.activate(high)  # same-edge owner: both ports pass over at once
        assert index.current_matching() == [high]
        index.discard(high)
        assert index.current_matching() == [low]


class TestRandomWalks:
    """Add/remove/advance walks checked against the oracle on every step."""

    @pytest.mark.parametrize("seed", range(10))
    def test_walk_through_pool(self, seed: int) -> None:
        rng = random.Random(seed)
        pool = PendingChunkPool(matching_index=True)
        index = pool.matching_index
        now = 1
        live: list[Chunk] = []
        next_pid = 0
        for _ in range(200):
            op = rng.random()
            if op < 0.55 or not live:
                # Small weight alphabet → frequent priority ties; nonzero
                # head delays populate the future-activation buckets.
                chunk = make_chunk(
                    next_pid,
                    float(rng.choice((1.0, 2.0, 2.0, 3.0, 5.0))),
                    (f"t{rng.randrange(4)}", f"r{rng.randrange(4)}"),
                    arrival=now,
                    head_delay=rng.randrange(4),
                )
                next_pid += 1
                pool.add(chunk)
                live.append(chunk)
            elif op < 0.85:
                # Removals hit eligible and future chunks alike.
                pool.remove(live.pop(rng.randrange(len(live))))
            else:
                now += rng.randrange(1, 3)
                pool.advance_eligibility(now)
            assert_matches_oracle(index, pool.eligible_chunks(now))

    @pytest.mark.parametrize("seed", range(5))
    def test_walk_on_bare_index(self, seed: int) -> None:
        """Same walk against the index alone (no pool): activation order is free."""
        rng = random.Random(100 + seed)
        index = MatchingIndex()
        tracked: list[Chunk] = []
        next_pid = 0
        for _ in range(200):
            if rng.random() < 0.6 or not tracked:
                chunk = make_chunk(
                    next_pid,
                    float(rng.choice((1.0, 1.0, 2.0, 4.0))),
                    (f"t{rng.randrange(3)}", f"r{rng.randrange(3)}"),
                    arrival=rng.randrange(1, 5),
                )
                next_pid += 1
                index.activate(chunk)
                tracked.append(chunk)
            else:
                index.discard(tracked.pop(rng.randrange(len(tracked))))
            assert_matches_oracle(index, tracked)


class _DeferralCountingIndex(MatchingIndex):
    """Counts scans that deferred and saved their head-list position."""

    __slots__ = ("deferrals",)

    def __init__(self) -> None:
        super().__init__()
        self.deferrals = 0

    def _push(self, key, kind, payload) -> None:
        if isinstance(payload, tuple) and payload[1] is not None:
            self.deferrals += 1
        super()._push(key, kind, payload)


class TestWideWalks:
    """Hub-port walks with batched events between drains.

    Draining after several events queues scans behind each other, which is
    what drives the deferred-scan resume path; the hub receiver gives a
    head list far wider than the small-fabric walks above.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_walk_with_hub_receiver(self, seed: int) -> None:
        rng = random.Random(1000 + seed)
        index = _DeferralCountingIndex()
        tracked: list[Chunk] = []
        next_pid = 0
        hub_degree = 0
        for _ in range(80):
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.65 or not tracked:
                    receiver = "hub" if rng.random() < 0.7 else f"r{rng.randrange(4)}"
                    chunk = make_chunk(
                        next_pid,
                        float(rng.choice((1.0, 2.0, 3.0, 5.0, 8.0))),
                        (f"t{rng.randrange(48)}", receiver),
                        arrival=rng.randrange(1, 6),
                    )
                    next_pid += 1
                    index.activate(chunk)
                    tracked.append(chunk)
                else:
                    index.discard(tracked.pop(rng.randrange(len(tracked))))
                assert_head_lists_current(index)
                hub_degree = max(hub_degree, len(index._rx_heads.get("hub", ())))
            assert_matches_oracle(index, tracked)
        assert hub_degree >= 24
        assert index.deferrals > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_walk_through_pool(self, seed: int) -> None:
        """Same, through the pool: eligibility advances activate in bursts."""
        rng = random.Random(2000 + seed)
        pool = PendingChunkPool(matching_index=True)
        index = pool.matching_index
        now = 1
        live: list[Chunk] = []
        next_pid = 0
        for _ in range(60):
            for _ in range(rng.randint(1, 8)):
                op = rng.random()
                if op < 0.6 or not live:
                    receiver = "hub" if rng.random() < 0.7 else f"r{rng.randrange(4)}"
                    chunk = make_chunk(
                        next_pid,
                        float(rng.choice((1.0, 2.0, 2.0, 3.0, 5.0))),
                        (f"t{rng.randrange(48)}", receiver),
                        arrival=now,
                        head_delay=rng.randrange(3),
                    )
                    next_pid += 1
                    pool.add(chunk)
                    live.append(chunk)
                elif op < 0.85:
                    pool.remove(live.pop(rng.randrange(len(live))))
                else:
                    now += 1
                    pool.advance_eligibility(now)
                assert_head_lists_current(index)
            assert_matches_oracle(index, pool.eligible_chunks(now))


class TestScanProbes:
    """``stats()["scan_probes"]`` pins the cost of a freed-port scan exactly."""

    @pytest.mark.parametrize("blocked", [0, 1, 7, 63])
    def test_hub_scan_walks_only_blocked_heads(self, blocked: int) -> None:
        index = MatchingIndex()
        owner = make_chunk(0, 100.0, ("t_owner", "hub"))
        index.activate(owner)
        # 64 transmitter peers of the hub, ranked by packet id.
        peers = [make_chunk(1 + i, 1.0, (f"t{i}", "hub")) for i in range(64)]
        # The best ``blocked`` peers lose their transmitter to a heavier chunk.
        blockers = [make_chunk(100 + i, 50.0, (f"t{i}", f"r{i}")) for i in range(blocked)]
        for chunk in peers + blockers:
            index.activate(chunk)
        assert index.current_matching() == [owner] + blockers

        before = index.stats()["scan_probes"]
        index.discard(owner)
        eligible = peers + blockers
        assert_matches_oracle(index, eligible)
        assert index.current_matching() == blockers + [peers[blocked]]
        assert index.stats()["scan_probes"] - before == blocked + 1

    def test_stats_keys_and_clear(self):
        index = MatchingIndex()
        index.activate(make_chunk(0, 2.0, ("t1", "r1")))
        index.discard(make_chunk(0, 2.0, ("t1", "r1")))
        index.current_matching()
        assert set(index.stats()) == {"tasks", "evictions", "scan_probes"}
        index.clear()
        assert index.stats() == {"tasks": 0, "evictions": 0, "scan_probes": 0}


class TestPoolIntegration:
    def test_enable_matching_index_backfills(self):
        pool = PendingChunkPool()
        chunks = [make_chunk(pid, float(pid + 1), ("t1", f"r{pid}")) for pid in range(3)]
        for chunk in chunks:
            pool.add(chunk)
        pool.advance_eligibility(5)
        index = pool.enable_matching_index()
        assert_matches_oracle(index, pool.eligible_chunks(5))

    def test_future_chunks_invisible_until_activation(self):
        pool = PendingChunkPool(matching_index=True)
        early = make_chunk(0, 1.0, ("t1", "r1"))
        late = make_chunk(1, 9.0, ("t1", "r2"), head_delay=10)
        pool.add(early)
        pool.add(late)
        pool.advance_eligibility(2)
        assert pool.matching_index.current_matching() == [early]
        pool.advance_eligibility(11)  # the heavier chunk activates and wins
        assert pool.matching_index.current_matching() == [late]

    def test_scheduler_reads_index_and_matches_reference(self):
        topology = figure2_topology()
        pool = PendingChunkPool(matching_index=True)
        for pid, (weight, edge) in enumerate(
            [(3.0, ("t1", "r1")), (2.0, ("t1", "r2")), (5.0, ("t2", "r1")), (1.0, ("t3", "r3"))]
        ):
            pool.add(make_chunk(pid, weight, edge))
        incremental = StableMatchingScheduler()
        reference = OrderedGreedyScheduler(chunk_priority_key)
        assert incremental.uses_matching_index
        assert not reference.uses_matching_index
        matching = incremental.select_matching(pool, topology, 1)
        assert matching == reference.select_matching(pool, topology, 1)
        assert matching == greedy_stable_matching(pool.eligible_chunks(1))

    def test_scheduler_falls_back_on_non_monotone_query(self):
        topology = figure2_topology()
        pool = PendingChunkPool(matching_index=True)
        early = make_chunk(0, 1.0, ("t1", "r1"))
        late = make_chunk(1, 9.0, ("t2", "r2"), head_delay=5)
        pool.add(early)
        pool.add(late)
        scheduler = StableMatchingScheduler()
        assert set(scheduler.select_matching(pool, topology, 6)) == {early, late}
        # A query behind the watermark must not report the later activation.
        assert scheduler.select_matching(pool, topology, 1) == [early]
