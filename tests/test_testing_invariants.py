"""Tests for the invariant checkers, the inline engine flag, the fuzz
driver and the ``python -m repro.testing`` CLI."""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.base import get_problem
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.engine import EtaGraphEngine
from repro.errors import InvariantViolation
from repro.testing.invariants import (
    check_stats,
    check_timeline,
    check_traversal_result,
)


def _run(graph, problem="bfs", source=0, **cfg):
    config = EtaGraphConfig(check_invariants=True, **cfg)
    return EtaGraphEngine(graph, config).run(get_problem(problem), source)


class TestInlineEngineFlag:
    @pytest.mark.parametrize("mode", list(MemoryMode))
    def test_real_runs_pass_all_checks(self, skewed_graph, mode):
        result = _run(skewed_graph, memory_mode=mode)
        # The engine already checked inline; re-check the final result
        # explicitly with the label cross-check enabled.
        check_traversal_result(result, problem=get_problem("bfs"))

    def test_weighted_run_passes(self, weighted_skewed_graph):
        result = _run(weighted_skewed_graph, "sssp", degree_limit=4)
        check_traversal_result(result, problem=get_problem("sssp"))

    def test_flag_does_not_change_labels(self, skewed_graph):
        on = _run(skewed_graph)
        off = EtaGraphEngine(skewed_graph, EtaGraphConfig()).run(
            get_problem("bfs"), 0
        )
        assert np.array_equal(on.labels, off.labels)

    def test_early_exit_run_still_checked(self, path10):
        """Point-to-point queries stop early; the stats/label cross-check
        is skipped but structural checks still run."""
        config = EtaGraphConfig(check_invariants=True)
        result = EtaGraphEngine(path10, config).run(
            get_problem("bfs"), 0, target=5
        )
        assert result.labels[5] == 5.0


class TestCheckersRejectCorruptData:
    def test_overlapping_compute_intervals(self, skewed_graph):
        result = _run(skewed_graph)
        timeline = result.timeline
        iv = next(i for i in timeline.intervals if i.kind == "compute")
        clone = replace(iv, start_ms=iv.start_ms + 1e-9)
        timeline.intervals.append(clone)
        with pytest.raises(InvariantViolation, match="overlap"):
            check_timeline(timeline)

    def test_negative_interval(self, skewed_graph):
        result = _run(skewed_graph)
        iv = result.timeline.intervals[0]
        result.timeline.intervals[0] = replace(
            iv, end_ms=iv.start_ms - 1.0
        )
        with pytest.raises(InvariantViolation, match="ends before"):
            check_timeline(result.timeline)

    def test_stats_overcount_visited(self, skewed_graph):
        result = _run(skewed_graph)
        stats = result.stats
        # Claim a seed frontier larger than the graph itself.
        stats.seed_count = stats.num_vertices + 5
        with pytest.raises(InvariantViolation, match="visited"):
            check_stats(stats)

    def test_stats_update_overflow(self, skewed_graph):
        result = _run(skewed_graph)
        s = result.stats.iterations[0]
        result.stats.iterations[0] = replace(s, updates=s.edges_scanned + 1)
        with pytest.raises(InvariantViolation, match="updates"):
            check_stats(result.stats)

    def test_edges_exceed_shadow_budget(self, skewed_graph):
        result = _run(skewed_graph, degree_limit=4)
        s = result.stats.iterations[0]
        result.stats.iterations[0] = replace(
            s, edges_scanned=s.shadow_vertices * 4 + 1, updates=0
        )
        with pytest.raises(InvariantViolation, match="shadow vertices at K"):
            check_stats(result.stats, degree_limit=4)

    def test_label_stats_cross_check(self, skewed_graph):
        result = _run(skewed_graph)
        # Un-reach a reached non-source vertex (the source is always
        # counted as reached regardless of its label).
        reached = np.isfinite(result.labels)
        reached[0] = False
        result.labels[np.flatnonzero(reached)[0]] = np.inf
        with pytest.raises(InvariantViolation, match="labels are reached"):
            check_traversal_result(result, problem=get_problem("bfs"))


class TestFuzzDriver:
    def test_small_sweep_is_green(self):
        from repro.testing import run_fuzz

        report = run_fuzz(max_cases=12, seed=123)
        assert report.ok, report.summary()
        assert report.cases == 12
        # All four problems rotated through.
        assert set(report.cases_per_problem) == {"bfs", "sssp", "sswp", "cc"}
        assert report.engine_runs >= 12 * 7
        assert report.metamorphic_checks > 0
        assert "12 differential cases" in report.summary()

    def test_time_budget_stops_sweep(self):
        from repro.testing import run_fuzz

        report = run_fuzz(max_seconds=0.0, seed=1)
        assert report.cases == 0
        assert report.ok

    def test_failures_carry_replay_coordinates(self):
        from repro.testing import run_fuzz

        report = run_fuzz(max_cases=2, seed=7, baselines=("gunrock",))
        assert report.ok
        report.failures.append("case 1: synthetic")
        assert not report.ok
        assert "FAILURES" in report.summary()
        assert "case 1" in report.summary()


class TestCLI:
    def test_green_sweep_exits_zero(self, capsys):
        from repro.testing.__main__ import main

        rc = main(["fuzz", "--runs", "6", "--seed", "3", "-q",
                   "--baselines", "gunrock", "tigr"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "6 differential cases" in out
        assert "no invariant violations" in out

    def test_no_metamorphic_flag(self, capsys):
        from repro.testing.__main__ import main

        rc = main(["fuzz", "--runs", "4", "-q", "--no-metamorphic",
                   "--baselines", "gunrock"])
        assert rc == 0
        assert "0 metamorphic checks" in capsys.readouterr().out

    def test_bad_problem_rejected(self):
        from repro.testing.__main__ import main

        with pytest.raises(SystemExit):
            main(["fuzz", "--problems", "pagerank"])

    def test_chaos_rejects_fuzz_flags(self):
        from repro.testing.__main__ import main

        with pytest.raises(SystemExit):
            main(["chaos", "--engine", "etagraph-msbfs"])

    def test_chaos_honours_the_run_budget(self, capsys):
        from repro.testing.__main__ import main

        assert main(["chaos", "--runs", "3", "-q"]) == 0
        assert "3 fault plans" in capsys.readouterr().out

    def test_budget_is_a_count_or_seconds(self):
        from repro.testing.__main__ import main

        with pytest.raises(SystemExit):
            main(["heal", "--runs", "3", "--seconds", "1"])

    def test_no_command_prints_usage(self, capsys):
        from repro.testing.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestIdentityCLI:
    """``identity`` runs every leg on slashdot; here a small graph stands
    in for it so the gate's wiring and verdict run in seconds."""

    @pytest.fixture(autouse=True)
    def small_dataset(self, monkeypatch):
        from repro.graph import datasets, generators
        from repro.graph.weights import uniform_int_weights

        graph = generators.rmat(6, 256, seed=3)
        weighted_graph = graph.with_weights(
            uniform_int_weights(graph.num_edges, seed=5))
        monkeypatch.setattr(
            datasets, "load",
            lambda name, weighted=False:
                (weighted_graph if weighted else graph, 1),
        )

    def test_every_leg_passes(self, capsys):
        from repro.testing.__main__ import main

        assert main(["identity"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("ok: ") for line in lines)

    def test_one_mismatching_leg_fails_the_gate(self, monkeypatch, capsys):
        from repro.serving import identity
        from repro.testing.__main__ import main

        monkeypatch.setattr(
            identity, "check_trace_identity",
            lambda csr, pool_size: ["seq 0 bfs: injected"],
        )
        assert main(["identity"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH: telemetry on == off, pool_size=2\n" \
            "  seq 0 bfs: injected" in out
        assert out.count("ok: ") == 5
