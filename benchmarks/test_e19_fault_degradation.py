"""E19 — graceful degradation under hardware faults, and crash-tolerant sweeps.

PR 10's fault subsystem makes two promises this benchmark pins:

* **bounded degradation** — on a hybrid fabric (uniform fixed links as the
  escape hatch) with ``REPRO_E19_FAILED_LASERS`` lasers knocked out for a
  recovery window, the ``on_fail="requeue"`` engine still delivers every
  packet and the weighted-latency ratio versus the fault-free run stays
  under ``E19_MAX_DEGRADATION`` (3.0): a partial outage degrades service,
  it does not collapse it;
* **crash-tolerant sweeps** — a checkpointed experiment sweep whose process
  is SIGKILLed mid-grid resumes from its JSONL checkpoint and produces rows
  bit-identical to an uninterrupted run, re-executing only the missing grid
  points.

Environment knobs (the CI smoke step shrinks the cell; the defaults are the
full-size assertions):

* ``REPRO_E19_PACKETS`` — workload size per run;
* ``REPRO_E19_RACKS`` — fabric size;
* ``REPRO_E19_FAILED_LASERS`` — lasers failed in the outage window;
* ``REPRO_E19_GRID`` — grid points in the crash/resume sweep.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.core import OpportunisticLinkScheduler
from repro.experiments.runner import ExperimentRunner, ExperimentSpec, RunnerConfig
from repro.faults import FaultEvent, FaultSchedule
from repro.network import add_uniform_fixed_links, projector_fabric
from repro.simulation import simulate
from repro.workloads import iter_uniform_random_workload, uniform_weights

E19_PACKETS = int(os.environ.get("REPRO_E19_PACKETS", "2000"))
E19_RACKS = int(os.environ.get("REPRO_E19_RACKS", "24"))
E19_FAILED_LASERS = int(os.environ.get("REPRO_E19_FAILED_LASERS", "8"))
E19_GRID = int(os.environ.get("REPRO_E19_GRID", "6"))
#: Maximum weighted-latency ratio of the outage run over the fault-free run.
E19_MAX_DEGRADATION = 3.0


def _hybrid_cell(seed: int = 19):
    fabric = projector_fabric(
        num_racks=E19_RACKS, lasers_per_rack=2, photodetectors_per_rack=2,
        seed=seed,
    )
    topology = add_uniform_fixed_links(fabric, delay=12)
    packets = list(
        iter_uniform_random_workload(
            topology,
            num_packets=E19_PACKETS,
            arrival_rate=4.0,
            weight_sampler=uniform_weights(1, 10),
            seed=seed + 1,
        )
    )
    return topology, packets


def _outage_schedule(topology, k: int) -> FaultSchedule:
    """Fail the first ``k`` lasers at slot 5 and recover them at slot 60."""
    lasers = sorted(topology.transmitters)[:k]
    events = [FaultEvent(slot=5, action="fail", kind="laser", target=name)
              for name in lasers]
    events += [FaultEvent(slot=60, action="recover", kind="laser", target=name)
               for name in lasers]
    return FaultSchedule.from_events(events)


def test_e19_degradation_is_bounded(run_once, report) -> None:
    """k failed lasers slow the fabric down but never strand traffic."""
    topology, packets = _hybrid_cell()
    faults = _outage_schedule(topology, E19_FAILED_LASERS)

    def compare():
        clean = simulate(
            topology, OpportunisticLinkScheduler(), packets,
            engine="indexed", max_slots=10_000_000,
        )
        faulted = simulate(
            topology, OpportunisticLinkScheduler(), packets,
            engine="indexed", max_slots=10_000_000,
            faults=faults, on_fail="requeue",
        )
        return clean.summary(), faulted.summary()

    clean, faulted = run_once(compare)
    ratio = faulted["total_weighted_latency"] / clean["total_weighted_latency"]
    report(
        "E19 fault degradation",
        f"cell: {E19_RACKS} racks, {len(packets)} packets, "
        f"{E19_FAILED_LASERS} lasers failed slots 5-60\n"
        f"clean latency:   {clean['total_weighted_latency']:.1f} "
        f"({clean['num_slots']:.0f} slots)\n"
        f"faulted latency: {faulted['total_weighted_latency']:.1f} "
        f"({faulted['num_slots']:.0f} slots)\n"
        f"ratio: {ratio:.3f} (bound {E19_MAX_DEGRADATION:.1f})",
    )
    assert faulted["num_packets"] == clean["num_packets"] == float(len(packets))
    assert ratio >= 1.0, "an outage cannot make service cheaper"
    assert ratio <= E19_MAX_DEGRADATION, (
        f"degradation ratio {ratio:.3f} exceeds the "
        f"{E19_MAX_DEGRADATION:.1f} bound — graceful degradation regressed"
    )


# ------------------------------------------------------------------ #
# crash-tolerant sweep: SIGKILL mid-grid, resume bit-identically
# ------------------------------------------------------------------ #
def _faulted_sweep_task(task):
    """One grid point: a small faulted simulation keyed on the task params."""
    topology, packets = _hybrid_cell(seed=task.params["cell_seed"])
    packets = packets[: task.params["num_packets"]]
    faults = _outage_schedule(topology, task.params["failed_lasers"])
    result = simulate(
        topology, OpportunisticLinkScheduler(), packets,
        engine="indexed", max_slots=10_000_000,
        faults=faults, on_fail="requeue",
    )
    row = {"index": task.index, "seed": task.seed,
           "failed_lasers": task.params["failed_lasers"]}
    row.update(result.summary())
    return row


def _sweep_spec() -> ExperimentSpec:
    grid = [
        {"cell_seed": 19, "num_packets": max(20, E19_PACKETS // 20),
         "failed_lasers": 1 + (i % max(1, E19_FAILED_LASERS))}
        for i in range(E19_GRID)
    ]
    return ExperimentSpec(name="e19-sweep", task_fn=_faulted_sweep_task,
                          grid=grid, seed=19)


_CRASH_CHILD = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {bench!r})
import os, signal
from test_e19_fault_degradation import _sweep_spec
from repro.experiments.runner import ExperimentRunner, RunnerConfig

checkpoint = sys.argv[1]
kill_after = int(sys.argv[2])
spec = _sweep_spec()
runner = ExperimentRunner(RunnerConfig(jobs=1, checkpoint_path=checkpoint))
completed = 0
for row in runner.iter_rows(spec):
    completed += 1
    print("row", completed, flush=True)
    if completed >= kill_after:
        os.kill(os.getpid(), signal.SIGKILL)
"""


def test_e19_killed_sweep_resumes_bit_identical(
    run_once, report, tmp_path
) -> None:
    """A SIGKILLed checkpointed sweep resumes to exactly the fresh rows."""
    spec = _sweep_spec()
    checkpoint = tmp_path / "e19.ckpt.jsonl"
    kill_after = max(1, E19_GRID // 2)
    repo = Path(__file__).resolve().parents[1]
    child_code = _CRASH_CHILD.format(src=str(repo / "src"),
                                     bench=str(repo / "benchmarks"))

    def crash_then_resume():
        child = subprocess.run(
            [sys.executable, "-c", child_code, str(checkpoint), str(kill_after)],
            stdout=subprocess.PIPE,
            timeout=600,
        )
        resumed = ExperimentRunner(
            RunnerConfig(jobs=1, checkpoint_path=str(checkpoint))
        ).run(spec)
        fresh = ExperimentRunner(RunnerConfig(jobs=1)).run(spec)
        return child, resumed, fresh

    child, resumed, fresh = run_once(crash_then_resume)
    checkpointed = len(child.stdout.decode().splitlines())
    report(
        "E19 crash-tolerant sweep",
        f"grid: {E19_GRID} tasks; child SIGKILLed after {checkpointed} "
        f"completed task(s)\nresumed rows == fresh rows: {resumed == fresh}",
    )
    assert child.returncode == -signal.SIGKILL
    assert 1 <= checkpointed < E19_GRID
    # JSON round-trips floats exactly, so replayed checkpoint rows must be
    # bit-identical to the rows an undisturbed run produces.
    assert resumed == fresh
