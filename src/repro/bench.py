"""Seeded benchmark cells and a phase-timed run, shared by benchmarks E15–E17.

:func:`build_cell` is the dense receiver-hotspot cell (dispatch and
scheduler stress), :func:`build_saturated_cell` the saturated-pairs cell
(transmit stress).  :func:`time_single_phases` runs one policy with every
slot's phases timed by the engine's own spans.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core import OpportunisticLinkScheduler
from repro.core.interfaces import Policy
from repro.network import projector_fabric
from repro.obs import MetricsRegistry
from repro.simulation import simulate
from repro.workloads import uniform_weights
from repro.workloads.adversarial import (
    iter_contention_hotspot_workload,
    iter_saturated_pairs_workload,
)

__all__ = ["build_cell", "build_saturated_cell", "time_single_phases"]


def _fabric(num_racks: int, seed: int, delay: int):
    return projector_fabric(
        num_racks=num_racks,
        lasers_per_rack=2,
        photodetectors_per_rack=2,
        delay=delay,
        seed=seed,
    )


def build_cell(num_racks: int, num_packets: int, seed: int, delay: int = 1):
    """The seeded dense receiver-hotspot cell; returns ``(topology, packets)``.

    ``delay`` is the uniform reconfigurable-edge delay ``d(e)``: every
    dispatched packet splits into ``d(e)`` chunks, so raising it densifies
    the pending pool without adding dispatch work — the scheduler-phase
    stress knob.
    """
    topology = _fabric(num_racks, seed, delay)
    packets = list(
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
    return topology, packets


def build_saturated_cell(
    num_racks: int, num_packets: int, seed: int, delay: int, num_pairs: int
):
    """The seeded saturated-pairs cell; returns ``(topology, packets)``.

    ``num_pairs`` node-disjoint hot edges the matching serves every slot,
    each with a pending queue hundreds of chunks deep — the cell that
    stresses the per-edge transmit walk.
    """
    topology = _fabric(num_racks, seed, delay)
    packets = list(
        iter_saturated_pairs_workload(
            topology,
            num_packets=num_packets,
            num_pairs=num_pairs,
            hot_fraction=0.95,
            arrival_rate=8.0,
            weight_sampler=uniform_weights(1, 10),
            seed=seed + 1,
        )
    )
    return topology, packets


#: The engine's per-slot phase spans (``engine_phase_seconds{phase=...}``).
_PHASES = ("dispatch", "scheduler", "transmit")


def time_single_phases(
    topology, packets, engine_mode: str, policy: Optional[Policy] = None
):
    """One run of ``policy`` (default ALG) with every slot's phases timed.

    Returns ``(seconds, {phase: seconds}, summary)``; the phases are the
    ``engine_phase_seconds`` gauges of a ``span_stride=1`` run.  Raises
    ``RuntimeError`` if the engine published no gauge for a phase, so an
    unmeasured phase never reads as zero seconds.
    """
    if policy is None:
        policy = OpportunisticLinkScheduler()
    registry = MetricsRegistry()
    start = time.perf_counter()
    result = simulate(
        topology,
        policy,
        packets,
        engine=engine_mode,
        max_slots=10_000_000,
        obs=registry,
        span_stride=1,
    )
    elapsed = time.perf_counter() - start
    gauges = registry.snapshot()["gauges"]
    phases = {}
    for phase in _PHASES:
        series = f"engine_phase_seconds{{phase={phase},policy={policy.name}}}"
        if series not in gauges:
            raise RuntimeError(f"the {engine_mode} engine published no {series} gauge")
        phases[phase] = gauges[series]
    return elapsed, phases, result.summary()
