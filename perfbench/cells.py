"""The four benchmark workloads, built only through the package's public API.

Every workload uses ``projector_fabric(lasers_per_rack=2,
photodetectors_per_rack=2)`` and ``uniform_weights(1, 10)``; the seed given
on the command line picks the fabric, the packets, the baseline policies'
randomness and the fault schedule, and the program under test receives only
the generated packets.  Each workload runs in one process and one thread.

``build`` does the benchmark's set-up (the ``setup_s`` metric): it builds the
topology, materialises the packets where the workload is materialised, and
constructs the policies and the engine.  ``Prepared.run`` is the simulate
call whose wall time ``sim_pps`` divides into.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import (
    EngineConfig,
    OpportunisticLinkScheduler,
    SimulationEngine,
    seeded_fault_schedule,
)
from repro.baselines import standard_baselines
from repro.core import Packet, Policy
from repro.faults import FabricState, FaultSchedule
from repro.network import projector_fabric
from repro.simulation import SimulationResult
from repro.workloads import iter_uniform_random_workload, routable_pairs, uniform_weights
from repro.workloads.adversarial import (
    iter_contention_hotspot_workload,
    iter_saturated_pairs_workload,
)

#: Lane name of the ALG policy whose decisions ``decide_*_us`` time.
ALG = "alg"
#: The sweep's second ALG lane; its results must equal lane ``alg``'s.
ALG_TWIN = "alg-twin"


@dataclass
class Prepared:
    """One workload instance, set up and ready to simulate."""

    topology: object
    policies: Dict[str, Policy]
    engine: SimulationEngine
    #: The materialised packets, or ``None`` for a streamed workload.
    packets: Optional[List[Packet]]
    #: Makes a fresh lazy packet stream (streamed workloads only).
    stream: Optional[Callable[[], Iterator[Packet]]]
    num_packets: int

    @property
    def multi(self) -> bool:
        return len(self.policies) > 1

    @property
    def lanes(self) -> int:
        return len(self.policies)

    def source(self) -> Iterable[Packet]:
        """The packets to hand to the engine (a fresh stream each call)."""
        if self.packets is not None:
            return self.packets
        assert self.stream is not None
        return self.stream()

    def run(self, packets: Iterable[Packet]) -> Dict[str, SimulationResult]:
        """The simulate call: one ``run`` or one ``run_multi``, keyed by lane."""
        if self.multi:
            return self.engine.run_multi(packets, self.policies)
        return {ALG: self.engine.run(packets)}


@dataclass(frozen=True)
class Cell:
    """A benchmark workload: its rationale, its sizes and its builder."""

    name: str
    #: Why the workload exists, which layers it loads and which it bypasses.
    why: str
    #: Packets per timed repetition.
    packets: int
    #: Packets of the reduced copy checked against ``engine="reference"``.
    check_packets: int
    builder: Callable[..., Prepared]
    #: Whether this is the multi-lane faulted sweep (extra checks apply).
    sweep: bool = False

    def scaled(self, scale: float) -> "Cell":
        """This workload with both sizes multiplied by ``scale`` (self-tests)."""
        return replace(
            self,
            packets=max(1, round(self.packets * scale)),
            check_packets=max(1, round(self.check_packets * scale)),
        )

    def build(self, seed: int, num_packets: Optional[int] = None, engine: Optional[str] = None) -> Prepared:
        """Set the workload up at ``num_packets`` (default: the timed size)."""
        return self.builder(seed, self.packets if num_packets is None else num_packets, engine)


def _fabric(num_racks: int, delay: int, seed: int):
    return projector_fabric(
        num_racks=num_racks,
        lasers_per_rack=2,
        photodetectors_per_rack=2,
        delay=delay,
        seed=seed,
    )


def _hotspot(topology, num_packets: int, seed: int) -> List[Packet]:
    return list(
        iter_contention_hotspot_workload(
            topology,
            num_packets=num_packets,
            side="receiver",
            hot_fraction=0.95,
            arrival_rate=8.0,
            weight_sampler=uniform_weights(1, 10),
            seed=seed + 1,
        )
    )


def _single(topology, packets, stream, num_packets, engine, retention="full") -> Prepared:
    policy = OpportunisticLinkScheduler()
    return Prepared(
        topology=topology,
        policies={ALG: policy},
        engine=SimulationEngine(topology, policy, retention=retention, engine=engine),
        packets=packets,
        stream=stream,
        num_packets=num_packets,
    )


def build_hotspot_d4(seed: int, num_packets: int, engine: Optional[str] = None) -> Prepared:
    topology = _fabric(64, 4, seed)
    packets = _hotspot(topology, num_packets, seed)
    return _single(topology, packets, None, num_packets, engine)


#: Hot pairs of the saturated workload.  At 8 pairs (ROADMAP's cell) half
#: the slots are arrival slots and half drain slots, so the per-slot decision
#: time's median sits on the boundary between those two cost modes and swung
#: by 25% across seeds.  At 4 pairs each pair takes 1.9 packets per slot
#: against a capacity of 2, queues run deeper, and three quarters of the slots
#: are drain slots, so the median falls inside one mode.
SATURATED_PAIRS = 4


def build_saturated_pairs_d4(seed: int, num_packets: int, engine: Optional[str] = None) -> Prepared:
    topology = _fabric(64, 4, seed)
    packets = list(
        iter_saturated_pairs_workload(
            topology,
            num_packets=num_packets,
            num_pairs=SATURATED_PAIRS,
            hot_fraction=0.95,
            arrival_rate=8.0,
            weight_sampler=uniform_weights(1, 10),
            seed=seed + 1,
        )
    )
    return _single(topology, packets, None, num_packets, engine)


def build_stream_uniform(seed: int, num_packets: int, engine: Optional[str] = None) -> Prepared:
    topology = _fabric(4, 1, seed)

    def stream() -> Iterator[Packet]:
        return iter_uniform_random_workload(
            topology,
            num_packets=num_packets,
            arrival_rate=1.5,
            weight_sampler=uniform_weights(1, 10),
            seed=seed + 1,
        )

    return _single(topology, None, stream, num_packets, engine, retention="aggregate")


#: Fault schedule of the sweep: one fault per 24 packets over a horizon of
#: 0.1 slots per packet, so faults land while the cell is busy at any size
#: (the reduced reference copy included).
SWEEP_PACKETS_PER_FAULT = 24
SWEEP_HORIZON_PER_PACKET = 0.1


@dataclass(frozen=True)
class _HotHardware:
    """The hardware the hotspot traffic needs, as ``seeded_fault_schedule`` reads it.

    Faults drawn over the whole 16-rack fabric mostly hit edges no packet
    uses and leave ALG's results unchanged.  Drawing them over the hot
    destination's photodetectors and the edges into them makes every fault
    land on hardware in use.
    """

    transmitters: Tuple[str, ...]
    receivers: Tuple[str, ...]
    reconfigurable_edges: Tuple[Tuple[str, str], ...]

    @classmethod
    def of(cls, topology, packets: List[Packet]) -> "_HotHardware":
        counts = Counter(packet.destination for packet in packets)
        hot = max(sorted(counts), key=counts.__getitem__)
        edges = sorted(
            {edge for source, destination in routable_pairs(topology) if destination == hot
             for edge in topology.candidate_edges(source, destination)}
        )
        return cls((), tuple(sorted({receiver for _, receiver in edges})), tuple(edges))


def _keeps_routable(topology, schedule: FaultSchedule) -> bool:
    """Whether every routable pair keeps a live edge after each slot's events.

    The fabric has no fixed links, so a pair cut off entirely would make the
    dispatcher raise; such a schedule tests nothing the benchmark measures.
    Only pairs that a failing target can cut are checked.
    """
    candidates = {pair: topology.candidate_edges(*pair) for pair in routable_pairs(topology)}
    cut_by: Dict[object, List] = {}
    for pair, edges in candidates.items():
        for transmitter, receiver in edges:
            for target in (transmitter, receiver, (transmitter, receiver)):
                cut_by.setdefault(target, []).append(pair)
    state = FabricState()
    events = list(schedule.events)
    suspects = set()
    for position, event in enumerate(events):
        state.apply(event, topology)
        if event.action == "fail":
            suspects.update(cut_by.get(event.target, ()))
        if position + 1 < len(events) and events[position + 1].slot == event.slot:
            continue
        for pair in suspects:
            if not any(state.edge_alive(*edge) for edge in candidates[pair]):
                return False
        suspects.clear()
    return True


def sweep_faults(topology, seed: int, packets: List[Packet]) -> FaultSchedule:
    """The first seeded schedule on the hot hardware that bites and cuts off no pair.

    It bites when one of the hot destination's photodetectors fails: the
    failure falls inside the busy period, so chunks queued there wait for
    the recovery and ALG's weighted latency changes.
    """
    hardware = _HotHardware.of(topology, packets)
    for attempt in range(256):
        schedule = seeded_fault_schedule(
            hardware,
            seed=seed * 256 + attempt,
            num_faults=max(2, round(len(packets) / SWEEP_PACKETS_PER_FAULT)),
            horizon=max(8, round(len(packets) * SWEEP_HORIZON_PER_PACKET)),
        )
        bites = any(
            event.action == "fail" and event.target in hardware.receivers
            for event in schedule.events
        )
        if bites and _keeps_routable(topology, schedule):
            return schedule
    raise RuntimeError(f"no fault schedule derived from seed {seed} bites and keeps every pair routable")


def build_policy_sweep_faulted(seed: int, num_packets: int, engine: Optional[str] = None) -> Prepared:
    topology = _fabric(16, 1, seed)
    packets = _hotspot(topology, num_packets, seed)
    policies: Dict[str, Policy] = {
        ALG: OpportunisticLinkScheduler(),
        ALG_TWIN: OpportunisticLinkScheduler(),
    }
    policies.update(standard_baselines(seed))
    config = EngineConfig(faults=sweep_faults(topology, seed, packets), on_fail="requeue")
    return Prepared(
        topology=topology,
        policies=policies,
        engine=SimulationEngine(topology, config=config, engine=engine),
        packets=packets,
        stream=None,
        num_packets=num_packets,
    )


CELLS: Dict[str, Cell] = {
    cell.name: cell
    for cell in (
        Cell(
            name="hotspot-d4",
            why=(
                "64 racks, delay 4, receiver hotspot: a hot photodetector with many laser "
                "peers. Loads scheduler, matching index, impact queries; bypasses faults, "
                "baselines, lazy pull"
            ),
            packets=2000,
            check_packets=600,
            builder=build_hotspot_d4,
        ),
        Cell(
            name="saturated-pairs-d4",
            why=(
                "64 racks, delay 4, 4 saturated disjoint pairs: deep per-edge queues. Loads "
                "transmit walk, pool removes, edge snapshots; bypasses matching repair "
                "cascades, faults, baselines"
            ),
            packets=3000,
            check_packets=1000,
            builder=build_saturated_pairs_d4,
        ),
        Cell(
            name="stream-uniform",
            why=(
                "4 racks, delay 1, lazy uniform stream, aggregate retention; memory bounded "
                "by in-flight chunks. Loads arrival pull, dispatch, impact inserts; bypasses "
                "deep pools, faults, baselines"
            ),
            packets=20000,
            check_packets=5000,
            builder=build_stream_uniform,
        ),
        Cell(
            name="policy-sweep-faulted",
            why=(
                "16 racks, run_multi over 2 ALG lanes + standard baselines under seeded "
                "faults. Loads dispatch memo, baseline schedulers, fault view; bypasses lazy "
                "pull, long edge delays"
            ),
            packets=800,
            check_packets=300,
            builder=build_policy_sweep_faulted,
            sweep=True,
        ),
    )
}


def delivered_count(result: SimulationResult) -> int:
    """Packets of ``result`` that completed, in either retention mode."""
    if result.is_aggregate:
        return result.aggregates.num_delivered
    return sum(1 for record in result if record.delivered)
