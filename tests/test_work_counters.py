"""Exact work-counter goldens: a perf gate that fails on any hardware.

The obs layer's work counters (slots simulated, chunks matched, impact-index
consolidations, matching-index repair tasks, evictions and scan probes) are
pure functions of the seeded cell, so they are pinned exactly in
``tests/golden/work_counters.json``.  An accidental O(n) scan or a repair
cascade that does more work than before changes a counter and fails here,
whatever the machine's speed.

When a change to the work done is *intentional*, regenerate with::

    pytest tests/test_work_counters.py --update-golden

and commit the rewritten JSON together with a CHANGES.md note.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import build_cell
from repro.core import OpportunisticLinkScheduler
from repro.obs import MetricsRegistry
from repro.simulation import simulate

GOLDEN_PATH = Path(__file__).parent / "golden" / "work_counters.json"

#: The pinned counters, published once per run by the indexed engine.
COUNTERS = (
    "engine_slots_simulated",
    "engine_chunks_matched",
    "impact_index_consolidations",
    "matching_index_tasks",
    "matching_index_evictions",
    "matching_index_scan_probes",
)


def _current_counters() -> dict:
    """ALG on the indexed engine over the dense delay-4 hotspot cell."""
    topology, packets = build_cell(16, 800, seed=15, delay=4)
    policy = OpportunisticLinkScheduler()
    registry = MetricsRegistry()
    simulate(topology, policy, packets, engine="indexed", obs=registry)
    counters = registry.snapshot()["counters"]
    return {name: counters[f"{name}{{policy={policy.name}}}"] for name in COUNTERS}


def test_work_counters_match_golden(update_golden: bool) -> None:
    current = _current_counters()
    if update_golden:
        GOLDEN_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"rewrote {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert current == golden, (
        "work counters drifted from tests/golden/work_counters.json\n"
        f"expected: {golden}\nactual:   {current}\n"
        "If the change in work is intentional, regenerate with --update-golden "
        "and note it in CHANGES.md."
    )
