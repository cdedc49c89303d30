"""Run one benchmark workload, check its outputs, and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The timed repetitions run in a child process (``perfbench/worker.py``) that
runs nothing but this workload, so its peak resident memory is the
workload's.  This process then applies the correctness gate:

* every packet of every repetition is delivered;
* every repetition's summaries are bit-identical to the first one's, traced
  repetitions included;
* the sweep's two ALG lanes are identical, its fault schedule changes ALG's
  weighted latency against the fault-free cell, and tracing left the
  dispatch memo and the matching index switched on;
* a reduced-size copy of the workload at the same seed gives bit-identical
  summaries under ``engine="reference"``;
* traced runs repeat their work counts exactly, and their layers' self
  times plus ``engine.residual_s`` add up to their wall time.

A failed check marks the result incorrect and counts the packets of the run
it concerns as failed.  The lines before the last are a table (median,
quartiles, sample count); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details and the
span dump go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: The child measuring process must end within this many seconds.
WORKER_TIMEOUT_S = 140
#: ``PYTHONHASHSEED`` of the measuring process.
WORKER_HASH_SEED = "0"
#: Allowed relative gap between a traced run's wall time and the sum of its
#: layers' self times plus the residual (float rounding only).
CLOSURE_TOLERANCE = 1e-9

#: End-to-end metric -> unit.
END_TO_END: Dict[str, str] = {
    "sim_pps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decide_p50_us": "us",
    "decide_p99_us": "us",
    "weighted_latency": "slot.weight",
    "delivered_frac": "ratio",
}

#: Per-layer metric -> (unit, end-to-end metrics it should move, workload that shows it).
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "matching_index.read_s": ("s", "sim_pps, decide_p99_us", "hotspot-d4 (little on stream-uniform)"),
    "matching_index.repair_calls": ("count", "sim_pps, decide_p99_us", "hotspot-d4"),
    "matching_index.repair_s": ("s", "sim_pps, decide_p99_us", "hotspot-d4"),
    "matching_index.tasks": ("count", "sim_pps, decide_p99_us", "hotspot-d4"),
    "matching_index.evictions": ("count", "sim_pps, decide_p99_us", "hotspot-d4"),
    "scheduler.calls": ("count", "decide_p50_us, sim_pps", "hotspot-d4"),
    "scheduler.self_s": ("s", "decide_p50_us, sim_pps", "hotspot-d4"),
    "scheduler.matched_mean": ("chunks", "decide_p50_us, sim_pps", "hotspot-d4"),
    "scheduler.empty_frac": ("ratio", "decide_p50_us, sim_pps", "hotspot-d4"),
    "scheduler.all_lanes_s": ("s", "sim_pps", "policy-sweep-faulted (baseline schedulers)"),
    "dispatch.calls": ("count", "sim_pps, decide_p50_us", "stream-uniform"),
    "dispatch.self_s": ("s", "sim_pps, decide_p50_us", "stream-uniform"),
    "dispatch.all_lanes_s": ("s", "sim_pps", "policy-sweep-faulted (baseline dispatchers)"),
    "dispatch.fixed_frac": ("ratio", "sim_pps, decide_p50_us", "none (no fixed links)"),
    "dispatch.memo_hit_frac": ("ratio", "sim_pps", "policy-sweep-faulted only"),
    "impact_index.query_calls": ("count", "sim_pps", "hotspot-d4, stream-uniform"),
    "impact_index.query_s": ("s", "sim_pps", "hotspot-d4, stream-uniform"),
    "impact_index.update_calls": ("count", "sim_pps", "stream-uniform"),
    "impact_index.update_s": ("s", "sim_pps", "stream-uniform"),
    "impact_index.consolidations": ("count", "sim_pps", "hotspot-d4, stream-uniform"),
    "pool.add_calls": ("count", "sim_pps, peak_rss_mb", "saturated-pairs-d4, stream-uniform"),
    "pool.add_s": ("s", "sim_pps, peak_rss_mb", "saturated-pairs-d4, stream-uniform"),
    "pool.remove_calls": ("count", "sim_pps", "saturated-pairs-d4, stream-uniform"),
    "pool.remove_s": ("s", "sim_pps", "saturated-pairs-d4, stream-uniform"),
    "pool.edge_snapshot_calls": ("count", "sim_pps", "saturated-pairs-d4"),
    "pool.edge_snapshot_s": ("s", "sim_pps", "saturated-pairs-d4"),
    "pool.peak_chunks": ("chunks", "peak_rss_mb", "saturated-pairs-d4, hotspot-d4"),
    "engine.residual_s": ("s", "sim_pps", "saturated-pairs-d4 (transmit walk)"),
    "workloads.pull_s": ("s", "sim_pps, peak_rss_mb", "stream-uniform only"),
    "workloads.packets": ("count", "sim_pps", "all"),
    "faults.view_calls": ("count", "sim_pps", "policy-sweep-faulted"),
    "faults.view_s": ("s", "sim_pps", "policy-sweep-faulted"),
    "trace.overhead_frac": ("ratio", "none", "all"),
}


class Gate:
    """Correctness bookkeeping: operations attempted, failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.timed_packets = 0
        self.timed_delivered = 0
        self.problems: List[str] = []

    def timed(self, packets: int, delivered: int, problems: List[str]) -> None:
        """Account one timed repetition (``packets`` counts packet x lanes)."""
        self.attempted += packets
        self.timed_packets += packets
        if problems:
            self.failed += packets
            self.problems.extend(problems)
        else:
            self.timed_delivered += delivered

    def check(self, packets: int, problem: Optional[str]) -> None:
        """Account one checking run of ``packets`` simulated packets."""
        self.attempted += packets
        if problem:
            self.failed += packets
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.timed_packets > 0


def run_worker(args: argparse.Namespace) -> dict:
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(OUT_DIR),
        "--scale", str(args.scale),
    ]
    # String hashing decides set and dict layouts, and with them how fast the
    # same simulation runs; one fixed hash seed keeps every run in one mode.
    env = dict(os.environ, PYTHONHASHSEED=WORKER_HASH_SEED)
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {WORKER_TIMEOUT_S} s", "plain": [], "traced": []}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited {done.returncode}: {tail[0]}", "plain": [], "traced": []}
    return json.loads(lines[-1])


def check_repetitions(record: dict, gate: Gate, sweep: bool) -> None:
    """Delivery, repeatability, the sweep's twin lanes, and what tracing must keep."""
    from perfbench.cells import ALG, ALG_TWIN

    reps = [("untraced", rep) for rep in record["plain"]] + [("traced", rep) for rep in record["traced"]]
    first = reps[0][1]["summaries"] if reps else None
    counts = [
        {name: value for name, value in rep["layers"].items() if not name.endswith("_s")}
        for rep in record["traced"]
    ]
    for kind, rep in reps:
        problems = []
        for lane, delivered in rep["delivered"].items():
            if delivered != rep["packets"]:
                problems.append(f"{kind} run, lane {lane}: {delivered} of {rep['packets']} packets delivered")
        summaries = rep["summaries"]
        if summaries != first:
            problems.append(f"{kind} run: summaries differ from the first repetition")
        if ALG_TWIN in summaries and summaries[ALG_TWIN] != summaries[ALG]:
            problems.append(f"{kind} run: lanes {ALG} and {ALG_TWIN} differ")
        if kind == "traced":
            closure = rep["closure"]
            gap = abs(closure["self_plus_residual_s"] - closure["wall_s"])
            if gap > CLOSURE_TOLERANCE * max(closure["wall_s"], 1.0) or closure["negative_self"]:
                problems.append(f"traced run: layer self times do not add up to wall time (gap {gap:.3g} s)")
            if any(count != counts[0] for count in counts):
                problems.append("traced run: work counts differ between repetitions")
            if rep["layers"]["matching_index.repair_calls"] == 0:
                problems.append("traced run: the matching index was not used")
            if sweep and rep["layers"]["dispatch.memo_hit_frac"] == 0:
                problems.append("traced run: the shared-dispatch memo was never hit")
        gate.timed(rep["packets"] * rep["lanes"], sum(rep["delivered"].values()), problems)


def check_reference(cell, seed: int, gate: Gate) -> None:
    """A reduced copy at the same seed is bit-identical under the reference engine."""
    outcomes = {}
    for engine in ("indexed", "reference"):
        prepared = cell.build(seed, cell.check_packets, engine=engine)
        packets = prepared.num_packets * prepared.lanes
        try:
            results = prepared.run(prepared.source())
        except Exception as exc:  # a raising run counts all its packets as failed
            gate.check(packets, f"reduced copy, engine {engine}: {type(exc).__name__}: {exc}")
            return
        outcomes[engine] = {lane: result.summary() for lane, result in results.items()}
        undelivered = [lane for lane, result in results.items() if not result.all_delivered]
        gate.check(packets, f"reduced copy, engine {engine}: lanes {undelivered} undelivered" if undelivered else None)
    if outcomes["indexed"] != outcomes["reference"]:
        gate.check(cell.check_packets, "reduced copy: engine=reference differs from engine=indexed")


def check_faults_bite(cell, seed: int, record: dict, gate: Gate) -> None:
    """The sweep's fault schedule must change ALG's weighted latency."""
    from perfbench.cells import ALG
    from repro import OpportunisticLinkScheduler, simulate

    reps = record["plain"] + record["traced"]
    if not reps:
        return
    prepared = cell.build(seed)
    try:
        clean = simulate(prepared.topology, OpportunisticLinkScheduler(), prepared.packets)
    except Exception as exc:
        gate.check(prepared.num_packets, f"fault-free cell: {type(exc).__name__}: {exc}")
        return
    faulted = reps[0]["summaries"][ALG]["total_weighted_latency"]
    same = clean.total_weighted_latency == faulted
    gate.check(prepared.num_packets, "the fault schedule leaves ALG's weighted latency unchanged" if same else None)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_factor(record: dict) -> float:
    """Reference seconds per host second over the run (see ``calibrate.py``).

    The median of the repetitions' calibration factors: host speed drifts
    over minutes, and medians over one run's repetitions already absorb
    what changes within it.
    """
    return statistics.median(rep["factor"] for rep in record["plain"] + record["traced"])


def end_to_end(record: dict, gate: Gate) -> Dict[str, Tuple[float, Tuple[float, float, float], int]]:
    """Metric -> (value, (q1, median, q3), samples) from the untraced runs.

    Timings are host-time medians over the repetitions (set-ups), and
    percentiles over every repetition's slots, converted to reference
    seconds with the run's calibration factor.
    """
    from perfbench.cells import ALG

    factor = run_factor(record)
    plain = record["plain"]
    rates = [rep["packets"] * rep["lanes"] / (rep["wall_s"] * factor) for rep in plain]
    setups = [setup * factor for setup in record["setups"]]
    decide = record["decide_us"]
    frac = gate.timed_delivered / gate.timed_packets if gate.timed_packets else 0.0
    latency = plain[0]["summaries"][ALG]["total_weighted_latency"]

    def median_of(values):
        spread = quartiles(values)
        return spread[1], spread, len(values)

    def exact(value, samples=1):
        return value, (value, value, value), samples

    return {
        "sim_pps": median_of(rates),
        "setup_s": median_of(setups),
        "peak_rss_mb": exact(record["peak_rss_mb"]),
        "decide_p50_us": exact(decide["p50"] * factor, decide["n"]),
        "decide_p99_us": exact(decide["p99"] * factor, decide["n"]),
        "weighted_latency": exact(latency),
        "delivered_frac": exact(frac),
    }


def per_layer(record: dict) -> Dict[str, Tuple[float, Tuple[float, float, float], int]]:
    """Metric -> (value, (q1, median, q3), samples) from the traced runs.

    Values come from the traced run of median wall time, whose layers add
    up to its own wall time; seconds are reference seconds and the
    quartiles span every traced run.
    """
    factor = run_factor(record)
    traced = sorted(record["traced"], key=itemgetter("wall_s"))
    chosen = traced[(len(traced) - 1) // 2]

    def value(rep, name):
        return rep["layers"][name] * (factor if name.endswith("_s") else 1.0)

    metrics = {
        name: (value(chosen, name), quartiles([value(rep, name) for rep in traced]), len(traced))
        for name in chosen["layers"]
    }
    plain_wall = statistics.median(rep["wall_s"] for rep in record["plain"])
    overhead = statistics.median(rep["wall_s"] for rep in traced) / plain_wall - 1.0
    metrics["trace.overhead_frac"] = (overhead, (overhead,) * 3, len(traced))
    return metrics


def host_speed(record: dict) -> str:
    """One line on how fast the host ran, for reading the reference seconds."""
    from perfbench.calibrate import REFERENCE_KERNEL_S

    factor = run_factor(record)
    return (
        f"  host speed: {factor:.3f} reference seconds per host second "
        f"(calibration kernel {1000 * REFERENCE_KERNEL_S / factor:.1f} ms, "
        f"reference {1000 * REFERENCE_KERNEL_S:.0f} ms)"
    )


def print_table(title: str, metrics, units: Dict[str, str], mapping=None) -> None:
    print(title)
    header = f"  {'metric':<30} {'value':>14} {'q1':>14} {'median':>14} {'q3':>14} {'n':>7}  unit"
    if mapping:
        header += "        moves / shows on"
    print(header)
    for name, (value, (q1, median, q3), count) in metrics.items():
        line = f"  {name:<30} {value:>14.6g} {q1:>14.6g} {median:>14.6g} {q3:>14.6g} {count:>7}  {units[name]:<12}"
        if mapping:
            _, moves, where = mapping[name]
            line += f"  {moves} / {where}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every workload size by this factor (the self-tests run tiny copies)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.cells import CELLS

    if args.workload not in CELLS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(CELLS)}", file=sys.stderr)
        return 2
    cell = CELLS[args.workload].scaled(args.scale)

    record = run_worker(args)
    gate = Gate()
    if record.get("error"):
        # The repetition that raised: all its packets count as failed.
        lanes = record["plain"][0]["lanes"] if record["plain"] else 1
        gate.check(cell.packets * lanes, record["error"])
    check_repetitions(record, gate, cell.sweep)
    check_reference(cell, args.seed, gate)
    if cell.sweep:
        check_faults_bite(cell, args.seed, record, gate)

    metrics = {}
    if record["plain"] and (record["traced"] or not args.trace):
        if args.trace:
            layers = per_layer(record)
            print_table(f"{cell.name} seed {args.seed}: per-layer split (traced run)", layers,
                        {name: spec[0] for name, spec in PER_LAYER.items()}, PER_LAYER)
            metrics = {name: {"value": layers[name][0], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
        else:
            e2e = end_to_end(record, gate)
            print_table(f"{cell.name} seed {args.seed}: end to end (untraced)", e2e, END_TO_END)
            metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END.items()}
        print(host_speed(record))
    for problem in gate.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": gate.correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"result-{cell.name}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"result": result, "problems": gate.problems, "record": record}))
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
