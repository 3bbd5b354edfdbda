"""Direction-optimized BFS as a driver of the session's traversal loop:
push iterations are a query's, pull iterations share the loop's
placement, traffic, kernel and span machinery."""

import json

import numpy as np
import pytest

from repro import EtaGraph
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.dobfs import _DirectionPayload, direction_optimized_bfs
from repro.core.session import EngineSession
from repro.graph import generators
from repro.observability.export import to_chrome_trace, validate_chrome_trace


@pytest.fixture(scope="module")
def social():
    g = generators.rmat(11, 60_000, seed=13)
    src = int(np.argmax(g.out_degrees()))
    return g, src


def _drive(g, src, config, *, alpha=15.0, beta=18.0):
    """The hybrid's payload through a session, keeping the loop's run
    record (per-iteration stats, trace) that :class:`DOBFSResult`
    summarizes."""
    payload = _DirectionPayload(src, alpha, beta)
    with EngineSession(g, config) as session:
        run = session._traverse(payload, None)
    return payload, run


class TestPushOnlyIdentity:
    @pytest.mark.parametrize("mode", list(MemoryMode))
    def test_never_pulling_equals_a_session_query(self, social, mode):
        g, src = social
        cfg = EtaGraphConfig(memory_mode=mode)
        hybrid = direction_optimized_bfs(g, src, alpha=1e-6, config=cfg)
        with EngineSession(g, cfg) as session:
            query = session.query("bfs", src)
        assert hybrid.pull_iterations == 0
        assert np.array_equal(hybrid.labels, query.labels)
        assert hybrid.total_ms == query.total_ms
        assert hybrid.kernel_ms == query.kernel_ms
        _, run = _drive(g, src, cfg, alpha=1e-6)
        assert run["stats"].iterations == query.stats.iterations

    def test_csc_is_placed_only_for_a_payload_that_can_pull(self, social):
        g, src = social
        push_only = direction_optimized_bfs(g, src, alpha=1e-6)
        hybrid = direction_optimized_bfs(g, src)
        csc_bytes = g.row_offsets.nbytes + g.column_indices.nbytes
        assert hybrid.device_bytes - push_only.device_bytes == csc_bytes


class TestEveryPlacement:
    @pytest.mark.parametrize("mode", list(MemoryMode))
    def test_labels_match_plain_bfs(self, social, mode):
        g, src = social
        cfg = EtaGraphConfig(memory_mode=mode)
        hybrid = direction_optimized_bfs(g, src, config=cfg)
        assert hybrid.pull_iterations > 0
        assert np.array_equal(hybrid.labels, EtaGraph(g, cfg).bfs(src).labels)

    def test_on_demand_pull_iterations_migrate(self, social):
        g, src = social
        payload, run = _drive(
            g, src, EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND)
        )
        pulls = [
            it for it, d in zip(run["stats"].iterations, payload.directions)
            if d == "pull"
        ]
        # The first pull faults in the cold CSC pages it scans; later
        # pulls may find their pages already resident.
        assert pulls and pulls[0].transfer_ms > 0


    def test_compressed_sessions_pull_dense_csc_words(self, social):
        # The CSC stays dense whatever the topology encoding, so a pull
        # faults in the same CSC pages on a compressed session.
        from repro.graph.compressed import compress

        g, src = social
        cfg = EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND)
        migrated = []
        for topology in (g, compress(g)):
            payload, run = _drive(topology, src, cfg)
            migrated.append([
                it.transfer_ms for it, d in
                zip(run["stats"].iterations, payload.directions)
                if d == "pull"
            ])
            assert np.array_equal(payload.labels,
                                  EtaGraph(g, cfg).bfs(src).labels)
        assert migrated[0] == migrated[1]
        assert migrated[0][0] > 0


class TestSpans:
    def test_pull_iterations_are_tagged(self, social):
        g, src = social
        payload, run = _drive(g, src, EtaGraphConfig(telemetry=True))
        iterations = run["trace"].spans(name="iteration")
        assert "pull" in payload.directions
        assert [s.attrs.get("direction", "push") for s in iterations] == \
            payload.directions
        for span, direction in zip(iterations, payload.directions):
            # Push iterations keep the query's memo attribute; pull
            # iterations skip the memo.
            assert ("memo" in span.attrs) == (direction == "push")
        assert validate_chrome_trace(to_chrome_trace(run["trace"])) == []

    def test_push_only_trace_is_a_query_trace(self, social):
        g, src = social
        cfg = EtaGraphConfig(telemetry=True)
        _, run = _drive(g, src, cfg, alpha=1e-6)
        with EngineSession(g, cfg) as session:
            query = session.query("bfs", src)
        assert json.dumps(to_chrome_trace(run["trace"])) == \
            json.dumps(to_chrome_trace(query.trace))


class TestDifferentialEngine:
    def test_dobfs_engine_registered_and_exact(self):
        from repro.testing.differential import (
            EXTRA_ENGINE_FACTORIES, run_differential_case,
        )

        g = generators.rmat(6, 400, seed=5)
        factory = EXTRA_ENGINE_FACTORIES["etagraph-dobfs"]
        for problem in ("bfs", "cc"):
            report = run_differential_case(
                g, problem, 3, baselines=(),
                extra_engines={"etagraph-dobfs": factory()},
            )
            assert report.ok, report.summary()
            assert "etagraph-dobfs" in {e.engine for e in report.engines}
        # The engine's switch point makes small graphs pull.
        hub = int(np.argmax(g.out_degrees()))
        assert direction_optimized_bfs(g, hub, alpha=64.0, beta=4.0) \
            .pull_iterations > 0
