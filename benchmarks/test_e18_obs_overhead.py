"""E18 — observability overhead: metrics + spans must be (nearly) free.

PR 9's instrumentation promises two things the engine's hot loops depend on:

* **bit-identity** — a run with a live :class:`~repro.obs.MetricsRegistry`,
  slot-sampled phase spans and a metrics-snapshot file produces exactly the
  same summary as a plain run (the instruments only record);
* **bounded cost** — the enabled instrumentation adds at most
  ``E18_MAX_OVERHEAD`` (0.25) fractional wall-clock overhead on a dense
  cell, and the disabled default (the shared ``NULL_REGISTRY``) costs
  nothing measurable because every hot-path hook hides behind one boolean.

The comparison reuses the E15 receiver-hotspot cell so the overhead is
measured where the per-slot loop is genuinely busy, under the indexed
engine (the production default).  Both configurations are timed in
``E18_PAIRS`` alternating plain/instrumented pairs on the same process and
inputs, and the overhead compares the two medians: a single ~0.2 s pair
swings by tens of percent either way on a shared 2-CPU host, while the
median of five holds steady within a few percent.  The plain run of each pair goes first so a cold allocator
penalises the *uninstrumented* side if anything.

Phase spans are sampled every ``E18_SPAN_STRIDE`` (16) slots.

Environment knobs (the CI smoke step shrinks the cell; the defaults are the
full-size assertions):

* ``REPRO_E18_PACKETS`` — workload size;
* ``REPRO_E18_RACKS`` — fabric size.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.core import OpportunisticLinkScheduler
from repro.network import projector_fabric
from repro.obs import MetricsRegistry, read_metric_records
from repro.simulation import simulate
from repro.workloads import uniform_weights
from repro.workloads.adversarial import iter_contention_hotspot_workload

E18_PACKETS = int(os.environ.get("REPRO_E18_PACKETS", "3000"))
E18_RACKS = int(os.environ.get("REPRO_E18_RACKS", "48"))
#: Phase-span sampling stride of the instrumented run.
E18_SPAN_STRIDE = 16
#: Maximum fractional slowdown with obs on, the same at every size.
E18_MAX_OVERHEAD = 0.25
#: Alternating plain/instrumented pairs timed per comparison.
E18_PAIRS = 5


def _dense_cell(num_packets: int = E18_PACKETS, num_racks: int = E18_RACKS,
                seed: int = 15):
    topology = projector_fabric(
        num_racks=num_racks, lasers_per_rack=2, photodetectors_per_rack=2, seed=seed
    )
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


def test_e18_obs_overhead_bounded_and_bit_identical(
    run_once, report, tmp_path
) -> None:
    """Full instrumentation stays under the overhead bound, bit-identically."""
    topology, packets = _dense_cell()
    metrics_path = tmp_path / "metrics.jsonl"

    def compare():
        plain_times, observed_times, pairs = [], [], []
        for _ in range(E18_PAIRS):
            start = time.perf_counter()
            plain = simulate(
                topology, OpportunisticLinkScheduler(), packets,
                engine="indexed", max_slots=10_000_000,
            )
            plain_times.append(time.perf_counter() - start)

            registry = MetricsRegistry()
            start = time.perf_counter()
            observed = simulate(
                topology, OpportunisticLinkScheduler(), packets,
                engine="indexed", max_slots=10_000_000,
                obs=registry, span_stride=E18_SPAN_STRIDE,
                metrics_path=str(metrics_path),
            )
            observed_times.append(time.perf_counter() - start)
            pairs.append((plain.summary(), observed.summary()))
        return plain_times, observed_times, pairs, registry

    plain_times, observed_times, pairs, registry = run_once(compare)
    plain_s = statistics.median(plain_times)
    observed_s = statistics.median(observed_times)
    overhead = observed_s / plain_s - 1.0
    counters = registry.snapshot()["counters"]
    arrived = sum(
        value for key, value in counters.items()
        if key.startswith("engine_packets_arrived{")
    )
    report(
        "E18 observability overhead",
        f"cell: {E18_RACKS} racks, {len(packets)} packets (receiver hotspot)\n"
        f"median of {E18_PAIRS} pairs: plain {plain_s:.2f}s   "
        f"instrumented {observed_s:.2f}s   "
        f"overhead {overhead * 100:+.1f}% (bound {E18_MAX_OVERHEAD * 100:.0f}%)\n"
        f"per-pair overhead: "
        + " ".join(f"{o / p * 100 - 100:+.0f}%" for p, o in zip(plain_times, observed_times))
        + "\n"
        f"recorded: {len(counters)} counter series, "
        f"{arrived} packets counted, span stride {E18_SPAN_STRIDE}",
    )
    first_plain = pairs[0][0]
    for plain_summary, observed_summary in pairs:
        assert plain_summary == first_plain, "plain runs diverged from each other"
        assert observed_summary == plain_summary, (
            "instrumented run diverged from the plain run\n"
            f"plain:      {plain_summary}\ninstrumented: {observed_summary}"
        )
    assert arrived == len(packets)
    (record,) = read_metric_records(metrics_path)
    assert record["snapshot"] == registry.snapshot()
    assert overhead <= E18_MAX_OVERHEAD, (
        f"observability overhead {overhead * 100:.1f}% exceeds the "
        f"{E18_MAX_OVERHEAD * 100:.0f}% bound (medians of {E18_PAIRS} pairs: "
        f"plain {plain_s:.2f}s vs instrumented {observed_s:.2f}s)"
    )
