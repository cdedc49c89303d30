"""The measuring process: runs one workload, and only that workload.

``run.py`` starts this module in a fresh interpreter so that the process's
peak resident memory belongs to the workload alone.  It repeats set-up plus
one simulate call until ``--seconds`` have passed (at least ``MIN_REPS``
times), and prints one JSON object with every repetition's timings and
simulated results; ``run.py`` checks and summarises them.

Each repetition also times the calibration kernel just before and just
after its simulate call, and records ``factor``: the reference kernel time
over the mean of the two (see ``calibrate.py``).

With ``--trace 1`` untraced and traced repetitions alternate, so the trace
overhead is measured against runs made under the same conditions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench.calibrate import bracketed  # noqa: E402
from perfbench.cells import ALG, ALG_TWIN, CELLS, Cell, Prepared, delivered_count  # noqa: E402
from perfbench.tracer import DecideClock, Tracer  # noqa: E402
from repro.core.queues import PendingChunkPool  # noqa: E402

#: Fewest timed repetitions per run (medians and repeatability need three).
MIN_REPS = 3
#: Fewest set-up samples per run.
MIN_SETUPS = 9

clock = time.perf_counter


def _setup(cell: Cell, seed: int):
    start = clock()
    prepared = cell.build(seed)
    return prepared, clock() - start


def _simulate(prepared: Prepared, packets):
    """The timed simulate call: results, host wall time and calibration factor."""
    gc.collect()
    return bracketed(lambda: prepared.run(packets))


def _outcome(prepared: Prepared, results, setup_s: float, wall_s: float, factor: float) -> dict:
    stats = prepared.engine.last_shared_dispatch_stats
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "factor": factor,
        "packets": prepared.num_packets,
        "lanes": prepared.lanes,
        "summaries": {lane: result.summary() for lane, result in results.items()},
        "delivered": {lane: delivered_count(result) for lane, result in results.items()},
        "memo_hits": sum(group["hits"] for group in stats),
        "memo_misses": sum(group["misses"] for group in stats),
    }


def plain_rep(cell: Cell, seed: int, decide: bool) -> dict:
    """Set up and simulate once with tracing off (optionally timing ALG's decisions)."""
    prepared, setup_s = _setup(cell, seed)
    clock_ = DecideClock() if decide else None
    if clock_ is not None:
        clock_.install(prepared.policies[ALG])
    try:
        results, wall_s, factor = _simulate(prepared, prepared.source())
    finally:
        if clock_ is not None:
            clock_.restore()
    outcome = _outcome(prepared, results, setup_s, wall_s, factor)
    if clock_ is not None:
        outcome["decide_samples"] = clock_.samples
    return outcome


def traced_rep(cell: Cell, seed: int, dump_path: Optional[Path] = None) -> dict:
    """Set up and simulate once with every layer wrapped; returns the layer split."""
    prepared, setup_s = _setup(cell, seed)
    tracer = Tracer()
    tally = {"fixed": 0, "matched": 0, "empty": 0, "peak": 0, "packets": 0}
    pools: Dict[int, PendingChunkPool] = {}

    def on_dispatch(args, result):
        pools[id(args[2])] = args[2]

    def on_alg_dispatch(args, result):
        pools[id(args[2])] = args[2]
        if result.uses_fixed_link:
            tally["fixed"] += 1

    def on_alg_select(args, result):
        tally["matched"] += len(result)
        if not result:
            tally["empty"] += 1

    def on_pool_add(args, result):
        size = len(args[0])
        if size > tally["peak"]:
            tally["peak"] = size

    def on_packet():
        tally["packets"] += 1

    for lane, policy in prepared.policies.items():
        alg = lane in (ALG, ALG_TWIN)
        tracer.wrap_instance(
            policy.dispatcher,
            "dispatch",
            "dispatch" if alg else "dispatch.baseline",
            on_alg_dispatch if alg else on_dispatch,
            slot_arg=3,
        )
        tracer.wrap_instance(
            policy.scheduler,
            "select_matching",
            "scheduler" if alg else "scheduler.baseline",
            on_alg_select if alg else None,
            slot_arg=2,
        )
    try:
        tracer.install_classes({(PendingChunkPool, "add"): on_pool_add})
        results, wall_s, factor = _simulate(prepared, tracer.source(prepared.source(), on_packet))
    finally:
        tracer.patches.restore()
    outcome = _outcome(prepared, results, setup_s, wall_s, factor)
    outcome["layers"] = layer_metrics(tracer, tally, pools, outcome, wall_s)
    outcome["closure"] = {
        "wall_s": wall_s,
        "self_plus_residual_s": tracer.all_self_seconds() + (wall_s - tracer.top_level_seconds()),
        "negative_self": any(entry[2] < -1e-9 for entry in tracer.totals.values()),
    }
    if dump_path is not None:
        dump_path.parent.mkdir(parents=True, exist_ok=True)
        dump_path.write_text(json.dumps({"wall_s": wall_s, **tracer.dump()}))
    return outcome


def layer_metrics(tracer: Tracer, tally: dict, pools: Dict[int, PendingChunkPool], outcome: dict, wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (``trace.overhead_frac`` aside)."""
    matching = [pool.matching_index for pool in pools.values() if pool.matching_index is not None]
    impact = [pool.impact_index for pool in pools.values() if pool.impact_index is not None]
    scheduler_calls = tracer.calls("scheduler")
    dispatch_calls = tracer.calls("dispatch")
    memo_total = outcome["memo_hits"] + outcome["memo_misses"]
    return {
        "matching_index.read_s": tracer.self_seconds("matching_index.read"),
        "matching_index.repair_calls": tracer.calls("matching_index.repair"),
        "matching_index.repair_s": tracer.self_seconds("matching_index.repair"),
        "matching_index.tasks": sum(index.stats()["tasks"] for index in matching),
        "matching_index.evictions": sum(index.stats()["evictions"] for index in matching),
        "scheduler.calls": scheduler_calls,
        "scheduler.self_s": tracer.self_seconds("scheduler"),
        "scheduler.matched_mean": tally["matched"] / scheduler_calls if scheduler_calls else 0.0,
        "scheduler.empty_frac": tally["empty"] / scheduler_calls if scheduler_calls else 0.0,
        "scheduler.all_lanes_s": tracer.self_seconds("scheduler", "scheduler.baseline"),
        "dispatch.calls": dispatch_calls,
        "dispatch.self_s": tracer.self_seconds("dispatch"),
        "dispatch.all_lanes_s": tracer.self_seconds("dispatch", "dispatch.baseline"),
        "dispatch.fixed_frac": tally["fixed"] / dispatch_calls if dispatch_calls else 0.0,
        "dispatch.memo_hit_frac": outcome["memo_hits"] / memo_total if memo_total else 0.0,
        "impact_index.query_calls": tracer.calls("impact_index.query"),
        "impact_index.query_s": tracer.self_seconds("impact_index.query"),
        "impact_index.update_calls": tracer.calls("impact_index.update"),
        "impact_index.update_s": tracer.self_seconds("impact_index.update"),
        "impact_index.consolidations": sum(index.consolidations for index in impact),
        "pool.add_calls": tracer.calls("pool.add"),
        "pool.add_s": tracer.self_seconds("pool.add"),
        "pool.remove_calls": tracer.calls("pool.remove"),
        "pool.remove_s": tracer.self_seconds("pool.remove"),
        "pool.edge_snapshot_calls": tracer.calls("pool.edge_snapshot"),
        "pool.edge_snapshot_s": tracer.self_seconds("pool.edge_snapshot"),
        "pool.peak_chunks": tally["peak"],
        "engine.residual_s": wall_s - tracer.top_level_seconds(),
        "workloads.pull_s": tracer.self_seconds("workloads.pull"),
        "workloads.packets": tally["packets"],
        "faults.view_calls": tracer.calls("faults.view"),
        "faults.view_s": tracer.self_seconds("faults.view"),
    }


def percentile(ordered: List[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when it is empty)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def measure(cell: Cell, seed: int, seconds: float, trace: bool, out_dir: Optional[Path] = None) -> dict:
    """Repeat the workload for ``seconds``; return every repetition's record."""
    plain: List[dict] = []
    traced: List[dict] = []
    error = None
    try:
        # Warm-up, not recorded: the first simulate call in a process also
        # pays for first-use costs the calibration kernel does not share.
        plain_rep(cell, seed, decide=False)
        start = clock()
        while len(plain) < MIN_REPS or clock() - start < seconds:
            plain.append(plain_rep(cell, seed, decide=not trace))
            if trace:
                dump = None
                if out_dir is not None and not traced:
                    dump = out_dir / f"spans-{cell.name}-seed{seed}.json"
                traced.append(traced_rep(cell, seed, dump))
        setups = [rep["setup_s"] for rep in plain + traced]
        while len(setups) < MIN_SETUPS:
            setups.append(_setup(cell, seed)[1])
    except Exception as exc:  # reported to run.py, which counts the run as failed
        error = f"{type(exc).__name__}: {exc}"
        setups = [rep["setup_s"] for rep in plain + traced]
    decide: List[float] = []
    for rep in plain:
        decide.extend(rep.pop("decide_samples", ()))
    decide.sort()
    return {
        "pid": os.getpid(),
        "workload": cell.name,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "plain": plain,
        "traced": traced,
        "setups": setups,
        "decide_us": {
            "n": len(decide),
            "p50": percentile(decide, 0.50) * 1e6,
            "p99": percentile(decide, 0.99) * 1e6,
        },
        "error": error,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CELLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="directory for the span dump")
    parser.add_argument("--scale", type=float, default=1.0, help="workload size factor")
    args = parser.parse_args(argv)
    record = measure(CELLS[args.workload].scaled(args.scale), args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
