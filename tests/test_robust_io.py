"""Crash-robust I/O tests: atomic finalisation and torn-line tolerance.

These tests pin the two invariants every artifact writer in the repository
now honours:

* *documents* (runner JSON, hall-of-fame files) are staged
  in a temp file and ``os.replace``d into place, so readers never observe a
  truncated document — even if the writer is SIGKILLed mid-write;
* *streams* (metrics, heartbeats, slot traces, checkpoints) are flushed per
  record, so a crash loses at most the final, possibly torn, line — and the
  readers tolerate exactly that tear and nothing else.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.baselines.policies import all_policies
from repro.core.packet import Packet
from repro.exceptions import ExperimentError, ObservabilityError
from repro.experiments.runner import read_json, write_json, write_jsonl
from repro.network.builders import projector_fabric
from repro.obs import MetricsWriter, read_metric_records
from repro.simulation import simulate
from repro.simulation.trace import SlotTraceWriter, iter_slot_traces
from repro.utils.atomic import atomic_writer
from repro.utils.jsonl import iter_json_lines


def _no_temp_files(directory: Path) -> bool:
    return not [p for p in directory.iterdir() if p.name.endswith(".tmp")]


# ---------------------------------------------------------------------- #
# atomic_writer primitive
# ---------------------------------------------------------------------- #
class TestAtomicWriter:
    def test_success_replaces_target(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old", encoding="utf-8")
        with atomic_writer(target) as handle:
            handle.write("new")
            # the target still holds the old content until the writer exits
            assert target.read_text(encoding="utf-8") == "old"
        assert target.read_text(encoding="utf-8") == "new"
        assert _no_temp_files(tmp_path)

    def test_exception_preserves_old_content(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as handle:
                handle.write("half a docum")
                raise RuntimeError("writer died")
        assert target.read_text(encoding="utf-8") == "old"
        assert _no_temp_files(tmp_path)

    def test_exception_leaves_no_file_when_target_was_absent(self, tmp_path):
        target = tmp_path / "out.json"
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as handle:
                handle.write("partial")
                raise RuntimeError("writer died")
        assert not target.exists()
        assert _no_temp_files(tmp_path)

    def test_missing_parent_directories_are_created(self, tmp_path):
        target = tmp_path / "fresh" / "nested" / "history.json"
        with atomic_writer(target) as handle:
            handle.write("{}")
        assert target.read_text(encoding="utf-8") == "{}"
        assert _no_temp_files(target.parent)


_KILL_CHILD = """
import sys
from repro.experiments.runner import write_json

path = sys.argv[1]
rows = [{"i": i, "pad": "x" * 200} for i in range(20000)]
while True:
    write_json(rows, path)
    print("wrote", flush=True)
"""


class TestKillMidWrite:
    def test_sigkilled_writer_never_leaves_a_torn_document(self, tmp_path):
        """Regression for the pre-PR-10 truncation bug.

        A child process rewrites a large JSON document in a tight loop and is
        SIGKILLed without warning.  Whatever instant the kill lands at, the
        document on disk must parse — it is either the previous complete
        version or the next complete version, never a torn hybrid.
        """
        target = tmp_path / "rows.json"
        write_json([{"i": -1}], target)  # known-good previous version
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        child = subprocess.Popen(
            [sys.executable, "-c", _KILL_CHILD, str(target)],
            env=env,
            stdout=subprocess.PIPE,
        )
        try:
            child.stdout.readline()  # at least one full rewrite happened
            time.sleep(0.05)  # land the kill mid-loop, likely mid-write
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        rows = read_json(target)  # must parse: atomicity is the invariant
        assert rows == [{"i": -1}] or len(rows) == 20000


# ---------------------------------------------------------------------- #
# flushed streams stay readable mid-run
# ---------------------------------------------------------------------- #
class TestStreamFlushing:
    def _trace_slots(self):
        topology = projector_fabric(2)
        sources = sorted(topology.sources)
        destinations = sorted(topology.destinations)
        packets = [
            Packet(i, sources[i % len(sources)],
                   destinations[(i + 1) % len(destinations)],
                   weight=1.0, arrival=1 + i)
            for i in range(4)
        ]
        result = simulate(topology, all_policies(seed=0)["fifo"], packets,
                          record_trace=True)
        return result.trace.slots

    def test_slot_trace_writer_flushes_every_slot(self, tmp_path):
        slots = self._trace_slots()
        assert len(slots) >= 2
        path = tmp_path / "trace.jsonl"
        writer = SlotTraceWriter(path)
        try:
            for slot in slots[:2]:
                writer.write(slot)
            # the writer is still open — a concurrent reader (or a post-crash
            # inspection) already sees both completed slots
            recovered = list(iter_slot_traces(path))
            assert [s.slot for s in recovered] == [s.slot for s in slots[:2]]
            assert [s.to_dict() for s in recovered] == [
                s.to_dict() for s in slots[:2]
            ]
        finally:
            writer.close()

    def test_metrics_writer_flushes_before_exception(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with pytest.raises(RuntimeError):
            with MetricsWriter(path) as writer:
                writer.write({"record": "heartbeat", "n": 1})
                writer.write({"record": "heartbeat", "n": 2})
                raise RuntimeError("run crashed")
        assert [r["n"] for r in read_metric_records(path)] == [1, 2]

    def test_metrics_reader_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsWriter(path) as writer:
            writer.write({"n": 1})
            writer.write({"n": 2})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"n": 3, "tr')  # the tear a SIGKILL leaves behind
        assert [r["n"] for r in read_metric_records(path)] == [1, 2]

    def test_metrics_reader_rejects_mid_file_corruption(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"n": 1}\n{broken\n{"n": 3}\n', encoding="utf-8")
        with pytest.raises(ObservabilityError, match=r"jsonl:2"):
            read_metric_records(path)


class TestTornTailPolicy:
    def test_tail_tear_is_dropped_only_when_truly_final(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"n": 1}\n{"n": 2, "tr', encoding="utf-8")
        rows = [row for _n, row in
                iter_json_lines(path, ExperimentError, tolerate_torn_tail=True)]
        assert rows == [{"n": 1}]

    def test_tear_followed_by_data_still_raises(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"n": 1}\n{torn\n{"n": 3}\n', encoding="utf-8")
        with pytest.raises(ExperimentError, match=r"jsonl:2"):
            list(iter_json_lines(path, ExperimentError, tolerate_torn_tail=True))

    def test_trailing_blank_lines_do_not_mask_a_tear(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"n": 1}\n{torn\n\n  \n', encoding="utf-8")
        rows = [row for _n, row in
                iter_json_lines(path, ExperimentError, tolerate_torn_tail=True)]
        assert rows == [{"n": 1}]

    def test_default_mode_still_rejects_final_tears(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"n": 1}\n{"n": 2, "tr', encoding="utf-8")
        with pytest.raises(ExperimentError, match=r"jsonl:2"):
            list(iter_json_lines(path, ExperimentError))


# ---------------------------------------------------------------------- #
# atomic document writers built on the primitive
# ---------------------------------------------------------------------- #
class TestAtomicDocuments:
    def test_write_jsonl_is_atomic(self, tmp_path):
        target = tmp_path / "rows.jsonl"
        write_jsonl([{"a": 1}], target)

        def rows_then_crash():
            yield {"a": 2}
            raise RuntimeError("producer died")

        with pytest.raises(RuntimeError):
            write_jsonl(rows_then_crash(), target)
        # the failed rewrite left the previous version untouched
        assert json.loads(target.read_text()) == {"a": 1}
        assert _no_temp_files(tmp_path)
