"""Chaos-mode acceptance: the resilience contract over many fault plans."""

from __future__ import annotations

import pytest

from repro.core.config import EtaGraphConfig, MemoryMode
from repro.resilience.chaos import check_bit_identity, run_chaos
from repro.testing.fuzz import random_graph

import numpy as np


class TestChaosSweep:
    def test_200_fault_plans_uphold_the_contract(self):
        """The ISSUE's acceptance criterion: >= 200 seeded fault plans,
        zero mismatched results, zero non-ReproError exceptions."""
        report = run_chaos(max_plans=200, seed=0)
        assert report.plans == 200
        assert report.ok, report.summary()
        # The sweep must actually exercise the machinery, not no-op.
        assert report.faults_fired > 0
        assert report.degraded > 0
        assert report.ok_results > 0

    def test_sweep_exercises_every_ladder_rung(self):
        report = run_chaos(max_plans=200, seed=0)
        assert set(report.placements) == {
            "device", "um_prefetch", "um_oversubscribed", "direct_access",
            "zero_copy", "cpu_oracle",
        }

    def test_sweep_surfaces_typed_errors_too(self):
        # Some cases run with the CPU rung disallowed, so persistent
        # faults must surface as typed errors — and only typed errors.
        report = run_chaos(max_plans=200, seed=0)
        assert report.typed_errors
        assert sum(report.typed_errors.values()) + report.ok_results == \
            report.queries

    def test_sweep_is_seed_deterministic(self):
        a = run_chaos(max_plans=40, seed=3)
        b = run_chaos(max_plans=40, seed=3)
        assert (a.ok_results, a.degraded, a.typed_errors, a.placements,
                a.faults_fired) == \
               (b.ok_results, b.degraded, b.typed_errors, b.placements,
                b.faults_fired)

    def test_time_budget_is_honoured(self):
        report = run_chaos(max_seconds=0.5, seed=1)
        assert report.plans >= 1
        assert report.elapsed_s < 5.0

    def test_trace_dir_writes_valid_chrome_traces(self, tmp_path):
        import json

        from repro.observability.export import validate_chrome_trace

        report = run_chaos(max_plans=30, seed=0, trace_dir=tmp_path)
        assert report.ok, report.summary()
        written = sorted(p.name for p in tmp_path.iterdir())
        assert "plan0021-q0-DeviceOutOfMemoryError.json" in written
        for name in written:
            with open(tmp_path / name, encoding="utf-8") as fh:
                assert validate_chrome_trace(json.load(fh)) == [], name


class TestBitIdentity:
    @pytest.mark.parametrize("mode", [
        MemoryMode.DEVICE, MemoryMode.UM_PREFETCH,
    ], ids=lambda m: m.value)
    def test_no_fault_wrapper_is_hash_identical(self, mode):
        rng = np.random.default_rng(5)
        graph = random_graph(rng, weighted=True, max_vertices=64)
        mismatches = check_bit_identity(
            graph, ("bfs", "sssp", "cc"), (0, 1),
            EtaGraphConfig(memory_mode=mode),
        )
        assert mismatches == []

    def test_telemetry_off_legs_must_record_no_trace(self, skewed_graph):
        # A config with telemetry on gives the plain and resilient legs
        # a trace they must not have.
        mismatches = check_bit_identity(
            skewed_graph, ("bfs",), (0,), EtaGraphConfig(telemetry=True),
        )
        assert any("telemetry-off plain-session run grew a trace" in m
                   for m in mismatches)
        assert any("telemetry-off resilient run grew a trace" in m
                   for m in mismatches)
