"""Tests for the perf harness (repro.perf), the parallel bench runner,
and the wall-clock-aware compare gating."""

import copy
import json

import pytest

from repro.bench.compare import compare_reports, is_wall_metric
from repro.bench.runner import run_experiments
from repro.perf.harness import (
    CANONICAL_GRAPHS,
    PerfSettings,
    main as perf_main,
    run_perf,
)

TINY = PerfSettings(graphs=("livejournal",), sources=2, repeats=2)


@pytest.fixture(scope="module")
def tiny_report():
    return run_perf(settings=TINY)


class TestPerfHarness:
    def test_canonical_graphs_are_three(self):
        assert len(CANONICAL_GRAPHS) == 3

    def test_metrics_present_and_positive(self, tiny_report):
        assert tiny_report.experiment == "perf"
        g = tiny_report.data["livejournal"]
        assert g["queries"] == TINY.sources * TINY.repeats
        for key in ("edges_traced", "kernel_launches", "cache_accesses",
                    "wall_s", "wall_edges_per_sec", "wall_launches_per_sec",
                    "wall_cache_accesses_per_sec", "wall_ms_per_query"):
            assert g[key] > 0, key

    def test_repeats_drive_memo_hits(self, tiny_report):
        g = tiny_report.data["livejournal"]
        # The second replay of the source batch re-runs known frontiers.
        assert g["memo_hits"] > 0

    def test_canonical_aggregate_sums_graphs(self, tiny_report):
        data = tiny_report.data
        assert data["canonical"]["edges_traced"] == \
            data["livejournal"]["edges_traced"]
        assert data["canonical"]["queries"] == data["livejournal"]["queries"]

    def test_wall_keys_follow_naming_convention(self, tiny_report):
        g = tiny_report.data["livejournal"]
        for key in g:
            if key.startswith("wall_"):
                assert is_wall_metric(f"livejournal.{key}")
            else:
                assert not is_wall_metric(f"livejournal.{key}")

    def test_cli_writes_bench_json(self, tmp_path):
        out = tmp_path / "BENCH.json"
        rc = perf_main([
            "--graphs", "livejournal", "--sources", "1", "--repeats", "1",
            "--out", str(out), "--json-dir", str(tmp_path / "dir"),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "perf"
        assert (tmp_path / "dir" / "perf.json").exists()

    def test_cli_dash_skips_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert perf_main([
            "--graphs", "livejournal", "--sources", "1", "--repeats", "1",
            "--out", "-",
        ]) == 0
        assert not list(tmp_path.glob("*.json"))


class TestParallelRunner:
    def test_jobs_match_serial_exactly(self):
        names = ["fig3", "table1"]
        serial = list(run_experiments(names, quick=True, jobs=1))
        parallel = list(run_experiments(names, quick=True, jobs=2))
        assert [r.name for r in serial] == [r.name for r in parallel] == names
        for s, p in zip(serial, parallel):
            assert s.report_dict == p.report_dict
            assert s.text == p.text
            assert json.dumps(s.report_dict, indent=2) == \
                json.dumps(p.report_dict, indent=2)

    def test_more_jobs_than_experiments(self):
        runs = list(run_experiments(["fig3"], quick=True, jobs=8))
        assert len(runs) == 1 and runs[0].name == "fig3"


class TestWallMetricGating:
    BASE = {
        "experiment": "perf",
        "data": {
            "g": {
                "edges_traced": 1000,
                "wall_s": 10.0,
                "wall_edges_per_sec": 100.0,
            },
        },
    }

    def _with(self, **leaves):
        report = copy.deepcopy(self.BASE)
        report["data"]["g"].update(leaves)
        return report

    def test_wall_improvement_never_flags(self):
        after = self._with(wall_s=0.1, wall_edges_per_sec=10_000.0)
        assert compare_reports(self.BASE, after) == []

    def test_throughput_regression_flags(self):
        after = self._with(wall_edges_per_sec=10.0)  # 90% drop
        drifts = compare_reports(self.BASE, after, wall_tolerance=0.75)
        assert [d.path for d in drifts] == ["g.wall_edges_per_sec"]

    def test_time_regression_flags(self):
        after = self._with(wall_s=30.0)  # 3x slower
        drifts = compare_reports(self.BASE, after, wall_tolerance=0.75)
        assert [d.path for d in drifts] == ["g.wall_s"]

    def test_generous_tolerance_absorbs_noise(self):
        after = self._with(wall_s=15.0, wall_edges_per_sec=66.0)
        assert compare_reports(self.BASE, after, wall_tolerance=0.75) == []

    def test_deterministic_leaves_stay_tight(self):
        after = self._with(edges_traced=1100)  # 10% > 5% default
        drifts = compare_reports(self.BASE, after)
        assert [d.path for d in drifts] == ["g.edges_traced"]

    def test_wall_tolerance_knob(self):
        after = self._with(wall_s=15.0)  # +50%
        assert compare_reports(self.BASE, after, wall_tolerance=0.75) == []
        drifts = compare_reports(self.BASE, after, wall_tolerance=0.25)
        assert [d.path for d in drifts] == ["g.wall_s"]

    def test_throughput_tolerance_is_a_ratio(self):
        # CI's tolerance of 4 allows a 5x slowdown in either direction:
        # a 1000x throughput drop must fail it, a 4x drop must not.
        after = self._with(wall_edges_per_sec=0.1)
        drifts = compare_reports(self.BASE, after, wall_tolerance=4)
        assert [d.path for d in drifts] == ["g.wall_edges_per_sec"]
        after = self._with(wall_edges_per_sec=25.0)
        assert compare_reports(self.BASE, after, wall_tolerance=4) == []
        after = self._with(wall_edges_per_sec=0.0)
        drifts = compare_reports(self.BASE, after, wall_tolerance=4)
        assert [d.path for d in drifts] == ["g.wall_edges_per_sec"]
