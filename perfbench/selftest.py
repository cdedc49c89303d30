"""Tiny-scale self-tests of the benchmark, through the same code path as real runs.

Run from the repository root with::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test collection; the
end-to-end cases start ``perfbench/run.py`` exactly as a real run does, on
copies of the workloads scaled down by ``SCALE``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.cells import ALG, ALG_TWIN, CELLS  # noqa: E402
from perfbench.run import END_TO_END, OUT_DIR, PER_LAYER  # noqa: E402
from perfbench.tracer import CLASS_SPANS, DecideClock, Tracer  # noqa: E402
from perfbench.worker import traced_rep  # noqa: E402

#: Smallest scale at which the sweep's fault schedule reliably bites (100 packets).
SCALE = 0.125
SEED = 7


def _run(workload: str, trace: int, seed: int = SEED) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _detail(workload: str, trace: int, seed: int = SEED) -> dict:
    return json.loads((OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())


@pytest.mark.parametrize("workload", sorted(CELLS))
def test_every_workload_runs_and_passes_its_gate(workload):
    result = _run(workload, trace=0)
    assert result["correct"], _detail(workload, 0)["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert result["metrics"]["delivered_frac"]["value"] == 1.0
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert all(rep["factor"] > 0 for rep in _detail(workload, 0)["record"]["plain"])


@pytest.mark.parametrize("workload", sorted(CELLS))
def test_traced_run_matches_untraced_and_closes(workload):
    result = _run(workload, trace=1)
    assert result["correct"], _detail(workload, 1)["problems"]
    assert set(result["metrics"]) == set(PER_LAYER)
    record = _detail(workload, 1)["record"]
    untraced = record["plain"][0]["summaries"]
    assert all(rep["summaries"] == untraced for rep in record["traced"])
    for rep in record["traced"]:
        closure = rep["closure"]
        assert closure["self_plus_residual_s"] == pytest.approx(closure["wall_s"], rel=1e-9)


def test_sweep_trace_keeps_memo_and_matching_index_on():
    result = _run("policy-sweep-faulted", trace=1)
    assert result["metrics"]["dispatch.memo_hit_frac"]["value"] > 0
    assert result["metrics"]["matching_index.repair_calls"]["value"] > 0
    assert result["metrics"]["scheduler.all_lanes_s"]["value"] > result["metrics"]["scheduler.self_s"]["value"]


def test_peak_rss_comes_from_a_process_that_ran_only_that_workload():
    pids = set()
    for workload in ("hotspot-d4", "stream-uniform"):
        _run(workload, trace=0)
        record = _detail(workload, 0)["record"]
        assert record["workload"] == workload
        assert record["pid"] != os.getpid()
        pids.add(record["pid"])
    assert len(pids) == 2


@pytest.mark.parametrize("workload", sorted(CELLS))
def test_seed_changes_the_packets_and_only_the_seed(workload):
    cell = CELLS[workload].scaled(SCALE)

    def packets(seed):
        return list(cell.build(seed).source())

    assert packets(1) == packets(1)
    assert packets(1) != packets(2)


def test_wrappers_keep_attributes_visible_and_are_restored():
    cell = CELLS["policy-sweep-faulted"].scaled(SCALE)
    originals = {(cls, attr): cls.__dict__[attr] for cls, attr, _ in CLASS_SPANS}
    prepared = cell.build(SEED)
    alg = prepared.policies[ALG]
    tracer = Tracer()
    tracer.wrap_instance(alg.dispatcher, "dispatch", "dispatch")
    tracer.wrap_instance(alg.scheduler, "select_matching", "scheduler")
    tracer.install_classes()
    try:
        assert alg.scheduler.uses_matching_index is True
        assert alg.dispatcher.dispatch_sharing_key() == ("impact",)
        assert hasattr(alg.dispatcher, "shared_memo")
        assert all(cls.__dict__[attr] is not originals[(cls, attr)] for cls, attr, _ in CLASS_SPANS)
    finally:
        tracer.patches.restore()
    assert all(cls.__dict__[attr] is originals[(cls, attr)] for cls, attr, _ in CLASS_SPANS)
    assert "dispatch" not in vars(alg.dispatcher)
    assert "select_matching" not in vars(alg.scheduler)

    outcome = traced_rep(cell, SEED)
    assert all(cls.__dict__[attr] is originals[(cls, attr)] for cls, attr, _ in CLASS_SPANS)
    assert outcome["memo_hits"] > 0
    assert outcome["summaries"][ALG] == outcome["summaries"][ALG_TWIN]


def test_decide_clock_samples_every_simulated_slot_and_is_restored():
    cell = CELLS["hotspot-d4"].scaled(SCALE)
    prepared = cell.build(SEED)
    policy = prepared.policies[ALG]
    decide = DecideClock()
    decide.install(policy)
    try:
        result = prepared.run(prepared.source())[ALG]
    finally:
        decide.restore()
    assert "dispatch" not in vars(policy.dispatcher)
    assert "select_matching" not in vars(policy.scheduler)
    # One sample per simulated slot; skipped slots add zero-size matchings only.
    assert 0 < len(decide.samples) <= result.num_slots
    assert len(decide.samples) >= sum(1 for size in result.matching_sizes if size)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(c.name, c.why) for c in CELLS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {name: unit for name, (unit, _, _) in PER_LAYER.items()}
