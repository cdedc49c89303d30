"""E16 — scheduler scalability: incremental stable-matching repair.

The per-slot hot path of the paper's algorithm is the greedy stable-matching
pass over all eligible chunks.  This benchmark pins the incremental matching
repairer (``repro.core.matching_index``) against the from-scratch greedy
pass on a dense 64-rack receiver-hotspot cell whose long edge delay splits
every packet into ``d(e)`` chunks — a deep, long-lived pending pool, the
worst case for a per-slot full pass and the best case for delta repair.

Both configurations run under ``engine="indexed"`` with the impact
dispatcher and differ *only* in the scheduler: ALG's
``StableMatchingScheduler`` reads the repaired matching, the "flat" policy's
``OrderedGreedyScheduler(chunk_priority_key)`` replays the greedy pass over
the same pool every slot.  The end-to-end ratio thus isolates the scheduler
change; the engine's own per-slot ``scheduler`` span (``span_stride=1``, read
by :func:`repro.bench.time_single_phases`) additionally pins the speedup of
the ``select_matching`` phase itself.  Summaries must be bit-identical — the
repairer replays exactly the matchings the from-scratch pass would produce.

Environment knobs (the CI smoke step shrinks the cell and relaxes the
thresholds; the defaults are the full-size assertions):

* ``REPRO_E16_PACKETS`` — workload size;
* ``REPRO_E16_RACKS`` — fabric size (≥64 by default);
* ``REPRO_E16_DELAY`` — uniform reconfigurable-edge delay (chunks/packet);
* ``REPRO_E16_MIN_SPEEDUP`` / ``REPRO_E16_PHASE_MIN_SPEEDUP`` — thresholds.
"""

from __future__ import annotations

import os

from repro.bench import build_cell, time_single_phases
from repro.core import ImpactDispatcher, OpportunisticLinkScheduler, Policy
from repro.core.scheduler import OrderedGreedyScheduler
from repro.utils.ordering import chunk_priority_key

E16_PACKETS = int(os.environ.get("REPRO_E16_PACKETS", "5000"))
E16_RACKS = int(os.environ.get("REPRO_E16_RACKS", "64"))
E16_DELAY = int(os.environ.get("REPRO_E16_DELAY", "4"))
E16_MIN_SPEEDUP = float(os.environ.get("REPRO_E16_MIN_SPEEDUP", "3.0"))
E16_PHASE_MIN_SPEEDUP = float(os.environ.get("REPRO_E16_PHASE_MIN_SPEEDUP", "10"))


def test_e16_incremental_vs_flat_scheduler(run_once, report) -> None:
    """The matching repairer is ≥Nx faster than the full pass, bit-identically."""
    topology, packets = build_cell(E16_RACKS, E16_PACKETS, seed=16, delay=E16_DELAY)
    flat = Policy(
        "ALG(flat-greedy+impact-dispatch)",
        ImpactDispatcher(),
        OrderedGreedyScheduler(chunk_priority_key),
    )

    def compare():
        return {
            label: time_single_phases(topology, packets, "indexed", policy)
            for label, policy in (
                ("flat", flat),
                ("incremental", OpportunisticLinkScheduler()),
            )
        }

    out = run_once(compare)
    flat_total, flat_phases, flat_summary = out["flat"]
    incr_total, incr_phases, incr_summary = out["incremental"]
    e2e_speedup = flat_total / incr_total
    phase_speedup = flat_phases["scheduler"] / incr_phases["scheduler"]
    report(
        "E16 scheduler scale: incremental repair vs from-scratch pass",
        f"cell: {E16_RACKS} racks, {len(packets)} packets, edge delay {E16_DELAY}\n"
        f"end-to-end      : flat {flat_total:.2f}s   incremental {incr_total:.2f}s   "
        f"speedup {e2e_speedup:.1f}x\n"
        f"scheduler phase : flat {flat_phases['scheduler']:.2f}s   "
        f"incremental {incr_phases['scheduler']:.2f}s   speedup {phase_speedup:.1f}x\n"
        f"phases (incremental): "
        + ", ".join(f"{phase} {seconds:.2f}s" for phase, seconds in incr_phases.items()),
    )
    # Bit-identity comes first: a fast scheduler that schedules differently
    # is a bug, not a win.
    assert incr_summary == flat_summary, (
        "incremental matching repair diverged from the from-scratch pass\n"
        f"flat:        {flat_summary}\nincremental: {incr_summary}"
    )
    assert e2e_speedup >= E16_MIN_SPEEDUP, (
        f"incremental scheduler only {e2e_speedup:.2f}x faster end-to-end "
        f"(needed {E16_MIN_SPEEDUP}x) on a {E16_RACKS}-rack dense cell"
    )
    assert phase_speedup >= E16_PHASE_MIN_SPEEDUP, (
        f"select_matching phase only {phase_speedup:.2f}x faster "
        f"(needed {E16_PHASE_MIN_SPEEDUP}x) on a {E16_RACKS}-rack dense cell"
    )
