"""E15 — dispatch scalability: incremental impact index + shared-dispatch lanes.

The per-packet hot path of the paper's algorithm is the impact evaluation of
every candidate edge.  This benchmark pins the two optimisations that make it
sublinear on dense-contention fabrics:

* **indexed vs reference** — one ALG run over a ≥64-rack receiver-hotspot
  cell (deep adjacency lists, the worst case for the O(n) scan) must be at
  least ``REPRO_E15_MIN_SPEEDUP``× faster with ``engine="indexed"`` than with
  the reference scan, with a bit-identical summary;
* **shared-dispatch lanes** — ``run_multi`` racing four impact-dispatch
  lanes on the indexed engine, sharing one dispatch memo, must beat four
  sequential single-policy ``simulate(..., engine="reference")`` runs by
  ``E15_MULTI_MIN_SPEEDUP``×, with every summary bit-identical to those
  reference runs, and with the memo showing the perfect hit pattern
  identical lanes imply.

Environment knobs (the CI smoke step shrinks the cell and relaxes the
first threshold; the defaults are the full-size assertions):

* ``REPRO_E15_PACKETS`` / ``REPRO_E15_MULTI_PACKETS`` — workload sizes;
* ``REPRO_E15_RACKS`` — fabric size (≥64 by default);
* ``REPRO_E15_MIN_SPEEDUP`` — indexed-vs-reference threshold.
"""

from __future__ import annotations

import os
import time

from repro.bench import build_cell
from repro.core import OpportunisticLinkScheduler
from repro.simulation import EngineConfig, SimulationEngine, simulate

E15_PACKETS = int(os.environ.get("REPRO_E15_PACKETS", "5000"))
E15_MULTI_PACKETS = int(os.environ.get("REPRO_E15_MULTI_PACKETS", "3000"))
E15_RACKS = int(os.environ.get("REPRO_E15_RACKS", "64"))
E15_MIN_SPEEDUP = float(os.environ.get("REPRO_E15_MIN_SPEEDUP", "3.0"))

#: Shared-lanes-vs-sequential-reference threshold, the same at every size.
E15_MULTI_MIN_SPEEDUP = 1.5

#: Lanes raced in the shared-dispatch comparison.
NUM_LANES = 4


def test_e15_indexed_vs_reference_scan(run_once, report) -> None:
    """The indexed engine is ≥Nx faster than the scan, bit-identically."""
    topology, packets = build_cell(E15_RACKS, E15_PACKETS, seed=15)

    def compare():
        timings = {}
        summaries = {}
        for mode in ("reference", "indexed"):
            start = time.perf_counter()
            result = simulate(
                topology,
                OpportunisticLinkScheduler(),
                packets,
                engine=mode,
                max_slots=10_000_000,
            )
            timings[mode] = time.perf_counter() - start
            summaries[mode] = result.summary()
        return timings, summaries

    timings, summaries = run_once(compare)
    speedup = timings["reference"] / timings["indexed"]
    rate = len(packets) / timings["indexed"]
    report(
        "E15 dispatch scale: indexed vs reference",
        f"cell: {E15_RACKS} racks, {len(packets)} packets (receiver hotspot)\n"
        f"reference scan: {timings['reference']:.2f}s   "
        f"indexed: {timings['indexed']:.2f}s   "
        f"speedup: {speedup:.1f}x   ({rate:,.0f} packets/s indexed)",
    )
    assert summaries["indexed"] == summaries["reference"], (
        "indexed engine diverged from the reference scan\n"
        f"reference: {summaries['reference']}\nindexed:   {summaries['indexed']}"
    )
    assert speedup >= E15_MIN_SPEEDUP, (
        f"indexed engine only {speedup:.2f}x faster than the reference scan "
        f"(needed {E15_MIN_SPEEDUP}x) on a {E15_RACKS}-rack dense cell"
    )


def test_e15_shared_lanes_vs_per_lane_dispatch(run_once, report) -> None:
    """4 impact-sharing lanes beat 4 sequential reference runs, bit-identically."""
    topology, packets = build_cell(E15_RACKS, E15_MULTI_PACKETS, seed=15)

    def lanes():
        return {f"alg{i}": OpportunisticLinkScheduler() for i in range(NUM_LANES)}

    def compare():
        # Baseline and ground truth: each lane as its own single-policy run
        # under the reference scan.
        start = time.perf_counter()
        per_lane = {
            name: simulate(
                topology, policy, packets, engine="reference", max_slots=10_000_000
            )
            for name, policy in lanes().items()
        }
        per_lane_time = time.perf_counter() - start

        shared_engine = SimulationEngine(
            topology,
            config=EngineConfig(engine="indexed", max_slots=10_000_000),
        )
        start = time.perf_counter()
        shared = shared_engine.run_multi(packets, lanes())
        shared_time = time.perf_counter() - start

        return (
            {name: res.summary() for name, res in per_lane.items()},
            {name: res.summary() for name, res in shared.items()},
            per_lane_time,
            shared_time,
            shared_engine.last_shared_dispatch_stats,
        )

    per_lane, shared, per_lane_time, shared_time, stats = run_once(compare)
    single = next(iter(per_lane.values()))
    speedup = per_lane_time / shared_time
    report(
        "E15 dispatch scale: shared-dispatch lanes vs sequential reference runs",
        f"cell: {E15_RACKS} racks, {len(packets)} packets, {NUM_LANES} ALG lanes\n"
        f"per-lane (reference): {per_lane_time:.2f}s   shared: {shared_time:.2f}s   "
        f"speedup: {speedup:.1f}x   memo: {stats}",
    )
    for name in per_lane:
        assert per_lane[name] == single, f"{name}: per-lane run diverged"
        assert shared[name] == single, f"{name}: shared-dispatch run diverged"
    # Identical ALG lanes keep identical pools, so after the first lane's
    # miss every other lane must hit: the memo serves each arrival exactly
    # NUM_LANES times.
    (memo_stats,) = stats
    assert memo_stats["misses"] == len(packets)
    assert memo_stats["hits"] == (NUM_LANES - 1) * len(packets)
    assert memo_stats["pending"] == 0
    assert speedup >= E15_MULTI_MIN_SPEEDUP, (
        f"shared-dispatch lanes only {speedup:.2f}x faster than {NUM_LANES} "
        f"sequential reference runs (needed {E15_MULTI_MIN_SPEEDUP}x)"
    )
