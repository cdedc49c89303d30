"""Tests for the shared benchmark helpers in :mod:`repro.bench`."""

from __future__ import annotations

import pytest

from repro import bench


class TestSections:
    def test_phase_timings_come_from_engine_spans(self):
        topology, packets = bench.build_cell(4, 40, seed=3)
        _, phases, _ = bench.time_single_phases(topology, packets, "indexed")
        assert set(phases) == {"dispatch", "scheduler", "transmit"}
        assert all(seconds > 0 for seconds in phases.values())

    def test_unpublished_phase_raises_instead_of_reading_zero(self, monkeypatch):
        topology, packets = bench.build_cell(4, 40, seed=3)
        monkeypatch.setattr(bench, "_PHASES", ("dispatch", "teleport"))
        with pytest.raises(RuntimeError, match="phase=teleport"):
            bench.time_single_phases(topology, packets, "indexed")
