"""E17 — transmission scalability: the lazy per-edge budget walk.

Each matched edge transmits ``speed · rate`` chunk-units per slot, head chunk
first, then the edge's other eligible chunks in priority order while budget
remains.  At speed 1 every chunk holds a whole unit of work, so the head chunk
absorbs the whole budget, the engine walks only the head and never snapshots
the edge's pending queue; the snapshot is built only when the budget spills past
the head.  This benchmark pins that on a dense 64-rack saturated-pairs cell
(:func:`repro.workloads.saturated_pairs_workload`): node-disjoint hot edges
the matching serves every slot, each carrying a pending queue hundreds of
chunks deep — the cell where an eager per-edge snapshot dominated the run.

Three checks, on the ``indexed`` engine at speed 1:

* its summary is bit-identical to ``engine="reference"``;
* transmit builds no per-edge snapshot: a wrapper installed around
  :meth:`PendingChunkPool.chunks_on_edge` counts exactly 0 calls;
* the engine's own ``transmit`` span (``span_stride=1``) is at most
  ``E17_MAX_TRANSMIT_SHARE`` (0.40) of the run's wall time.

Environment knobs (the CI smoke step shrinks the cell; the defaults are the
full-size assertions):

* ``REPRO_E17_PACKETS`` — workload size;
* ``REPRO_E17_RACKS`` — fabric size (≥64 by default);
* ``REPRO_E17_PAIRS`` — number of node-disjoint saturated pairs.
"""

from __future__ import annotations

import os

from repro.bench import build_saturated_cell, time_single_phases
from repro.core.queues import PendingChunkPool

E17_PACKETS = int(os.environ.get("REPRO_E17_PACKETS", "10000"))
E17_RACKS = int(os.environ.get("REPRO_E17_RACKS", "64"))
E17_PAIRS = int(os.environ.get("REPRO_E17_PAIRS", "8"))
#: Uniform reconfigurable-edge delay (chunks per packet) of the cell.
E17_DELAY = 4
#: Bound on the transmit span's share of the indexed run's wall time; the lazy
#: walk measures about 0.27 at full scale and 0.26 at CI smoke scale.
E17_MAX_TRANSMIT_SHARE = 0.40


def test_e17_lazy_transmit_walk(run_once, report, monkeypatch) -> None:
    """Speed-1 transmit walks only matched heads, bit-identically to the reference."""
    topology, packets = build_saturated_cell(
        E17_RACKS, E17_PACKETS, seed=17, delay=E17_DELAY, num_pairs=E17_PAIRS
    )
    snapshots = []
    chunks_on_edge = PendingChunkPool.chunks_on_edge

    def counting_chunks_on_edge(pool, transmitter, receiver):
        snapshots.append((transmitter, receiver))
        return chunks_on_edge(pool, transmitter, receiver)

    def compare():
        reference = time_single_phases(topology, packets, "reference")
        monkeypatch.setattr(PendingChunkPool, "chunks_on_edge", counting_chunks_on_edge)
        try:
            indexed = time_single_phases(topology, packets, "indexed")
        finally:
            monkeypatch.undo()
        return reference, indexed

    reference, indexed = run_once(compare)
    ref_total, ref_phases, ref_summary = reference
    idx_total, idx_phases, idx_summary = indexed
    share = idx_phases["transmit"] / idx_total
    report(
        "E17 transmission scale: lazy per-edge budget walk",
        f"cell: {E17_RACKS} racks, {E17_PAIRS} saturated pairs, "
        f"{len(packets)} packets, edge delay {E17_DELAY}\n"
        f"end-to-end      : reference {ref_total:.2f}s   indexed {idx_total:.2f}s\n"
        f"transmit phase  : reference {ref_phases['transmit']:.2f}s   "
        f"indexed {idx_phases['transmit']:.2f}s   share {share:.2f} "
        f"(bound {E17_MAX_TRANSMIT_SHARE:.2f})\n"
        f"queue snapshots : {len(snapshots)}\n"
        f"phases (indexed): "
        + ", ".join(f"{phase} {seconds:.2f}s" for phase, seconds in idx_phases.items()),
    )
    # Bit-identity comes first: a fast walk that transmits differently is a
    # bug, not a win.
    assert idx_summary == ref_summary, (
        "indexed engine diverged from the reference engine\n"
        f"reference: {ref_summary}\nindexed:   {idx_summary}"
    )
    assert snapshots == [], (
        f"transmit built {len(snapshots)} per-edge queue snapshots at speed 1; "
        "the head chunk absorbs the whole budget, so none are needed"
    )
    assert share <= E17_MAX_TRANSMIT_SHARE, (
        f"transmit span is {share:.2f} of the indexed run's wall time "
        f"(bound {E17_MAX_TRANSMIT_SHARE:.2f}) on a {E17_RACKS}-rack saturated cell"
    )
