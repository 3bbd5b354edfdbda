"""The benchmark's three workloads.

Every workload builds its inputs from ``--seed`` and the surrogate's own
spec seed, never from a cache on disk.  Ops come in *rounds* of a fixed
composition, so a run that stops after whole rounds always measures the
same mix of work; the simulated metrics are taken over the first
``sim_rounds`` rounds only, which makes them exact functions of (code,
seed) however fast the host is.

* ``query-cold`` — single-source queries, one caller, every query on a
  distinct source, rotating over BFS/SSSP/SSWP and three placements.
* ``wave-hot`` — 64-lane MSBFS waves replayed over a few source sets of
  popular (high-degree) vertices on one warm session: after warm-up
  every frontier hits the memo.
* ``serve-mix`` — an open-loop three-tenant request mix on the simulated
  clock through a two-lane ``TraversalService``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from repro.bench.workloads import bench_device
from repro.core import msbfs
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.session import EngineSession
from repro.graph import datasets
from repro.graph.compressed import compress
from repro.observability.slo import SLOMonitor
from repro.serving.admission import TenantQuota
from repro.serving.requests import (
    NeighborhoodRequest,
    PageRankRequest,
    ShortestPathRequest,
    StatsRequest,
    VisitRequest,
)
from repro.serving.service import TraversalService

from checks import digest

GRAPH = "slashdot"
PROBLEMS = ("bfs", "sssp", "sswp")


@dataclass
class Outcome:
    """One op, judged.  Simulated fields are ``None`` when not served."""

    ok: bool
    sim_ms: float | None = None
    sim_latency_ms: float | None = None
    has_deadline: bool = False
    hit: bool = True
    served: bool = True
    digest: bytes = b""
    sim_queue_ms: float | None = None


def _load(weighted: bool):
    """The surrogate, generated from its spec seed (no disk cache)."""
    t0 = time.perf_counter()
    csr, _ = datasets.load(GRAPH, weighted=weighted, use_cache=False)
    return csr, time.perf_counter() - t0


def _by_degree(csr) -> np.ndarray:
    """Vertex ids, highest out-degree first (ties by id)."""
    return np.argsort(-csr.out_degrees(), kind="stable")


def _clock_digest(*values: float) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class QueryCold:
    name = "query-cold"
    round_ops = 9  # every (problem, placement) pair once
    #: ``wall_ms_p50`` is the median over rounds of each round's mean:
    #: the nine op kinds have prices in clusters, and the median of
    #: single ops jumps between clusters from seed to seed.
    p50_over_rounds = True
    sim_rounds = 6
    trace_rounds = 4
    expected = ("udc", "traceplan", "expand", "cache", "kernel", "labels",
                "um", "transfer", "session")

    def setup(self, seed: int):
        csr, build_s = _load(weighted=True)
        t0 = time.perf_counter()
        packed = compress(csr)
        build_s += time.perf_counter() - t0
        # UM on-demand and direct access share a device with room for
        # about half the placed dense topology, so on-demand paging
        # evicts and re-faults on every query.
        topo_bytes = (csr.row_offsets.nbytes + csr.column_indices.nbytes
                      + csr.edge_weights.nbytes)
        small = bench_device().with_capacity(topo_bytes // 2)
        sessions = (
            ("um_prefetch", EngineSession(csr, EtaGraphConfig(),
                                          bench_device())),
            ("um_on_demand", EngineSession(
                csr, EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND),
                small)),
            ("direct_access/compressed", EngineSession(
                packed, EtaGraphConfig(memory_mode=MemoryMode.DIRECT_ACCESS),
                small)),
        )
        hub = int(_by_degree(csr)[0])
        warm = []
        for placement, session in sessions:
            session.prepare("sssp")
            warm.append(((placement, "bfs", hub),
                         session.query("bfs", hub)))
        # A query from a vertex without out-edges ends after one iteration
        # and exercises none of the traversal layers.
        candidates = np.flatnonzero(csr.out_degrees() > 0)
        rng = np.random.default_rng(seed)
        state = {
            "csr": csr, "sessions": sessions, "build_s": build_s,
            "sources": rng.permutation(candidates[candidates != hub]),
        }
        return state, warm

    def ops(self, state):
        for i, source in enumerate(state["sources"]):
            yield (i // 3 % 3, PROBLEMS[i % 3], int(source))

    def run(self, state, op):
        index, problem, source = op
        return state["sessions"][index][1].query(problem, source)

    def judge(self, state, op, result, checker) -> Outcome:
        index, problem, source = op
        placement = state["sessions"][index][0]
        return self._judge_result(state, (placement, problem, source),
                                  result, checker)

    def judge_warm(self, state, warm, checker) -> list[Outcome]:
        return [self._judge_result(state, key, r, checker)
                for key, r in warm]

    @staticmethod
    def _judge_result(state, key, result, checker) -> Outcome:
        placement, problem, source = key
        ok = checker.labels_ok(state["csr"], placement, problem, source,
                               result.labels)
        return Outcome(
            ok=ok, sim_ms=result.total_ms,
            sim_latency_ms=result.total_ms + result.d2h_ms,
            digest=digest(result.labels.tobytes() + _clock_digest(
                result.total_ms, result.d2h_ms, result.setup_ms)),
        )

    def memo(self, state) -> tuple[int, int]:
        sessions = [s for _, s in state["sessions"]]
        return (sum(s.memo_hits for s in sessions),
                sum(s.memo_hits + s.memo_misses for s in sessions))

    def close(self, state) -> None:
        for _, session in state["sessions"]:
            session.close()


class WaveHot:
    name = "wave-hot"
    source_sets = 3
    #: Sources are drawn from this many highest out-degree vertices: the
    #: popular sources whose waves cover the graph in the same few levels.
    popular = 1024
    round_ops = source_sets
    p50_over_rounds = False
    sim_rounds = 8
    trace_rounds = 12
    expected = ("cache", "kernel", "transfer", "msbfs")

    def setup(self, seed: int):
        csr, build_s = _load(weighted=False)
        rng = np.random.default_rng(seed)
        candidates = _by_degree(csr)[:self.popular]
        sets = [rng.choice(candidates, msbfs.WAVE_LANES, replace=False)
                for _ in range(self.source_sets)]
        session = EngineSession(csr, EtaGraphConfig(), bench_device())
        session.prepare("bfs")
        # Warm-up pass: fills the frontier memo with every union
        # frontier of the replayed sets (a few dozen of its 128 entries).
        warm = [(i, msbfs.run_wave(session, sources))
                for i, sources in enumerate(sets)]
        state = {"csr": csr, "session": session, "sets": sets,
                 "build_s": build_s}
        return state, warm

    def ops(self, state):
        return itertools.cycle(range(self.source_sets))

    def run(self, state, op):
        return msbfs.run_wave(state["session"], state["sets"][op])

    def judge(self, state, op, wave, checker) -> Outcome:
        ok = True
        h = []
        for lane, source in enumerate(state["sets"][op]):
            levels = wave.levels[lane]
            ok &= checker.labels_ok(state["csr"], "um_prefetch", "bfs",
                                    int(source), levels)
            h.append(levels.tobytes())
        return Outcome(
            ok=ok, sim_ms=wave.query_ms,
            sim_latency_ms=wave.total_ms + wave.d2h_ms,
            digest=digest(b"".join(h) + _clock_digest(
                wave.total_ms, wave.d2h_ms, wave.setup_ms)),
        )

    def judge_warm(self, state, warm, checker) -> list[Outcome]:
        return [self.judge(state, i, wave, checker) for i, wave in warm]

    def memo(self, state) -> tuple[int, int]:
        s = state["session"]
        return s.memo_hits, s.memo_hits + s.memo_misses

    def close(self, state) -> None:
        state["session"].close()


#: The three tenants, copied from ``repro.serving.loadgen.DEFAULT_MIX``
#: (endpoint weights, deadlines, quotas) and ``DEFAULT_OBJECTIVES`` so
#: later edits there cannot change this benchmark's traffic.
TENANTS = {
    "interactive": {
        "endpoints": (("visit", 0.5), ("neighborhood", 0.3),
                      ("shortest_path", 0.2)),
        "deadline_ms": 1.5,
        "quota": TenantQuota(max_pending=16, deadline_ms=1.5),
    },
    "batch": {
        "endpoints": (("visit", 0.8), ("stats", 0.2)),
        "deadline_ms": None,
        "quota": TenantQuota(max_pending=32),
    },
    "analytics": {
        "endpoints": (("pagerank", 0.3), ("visit", 0.4), ("stats", 0.3)),
        "deadline_ms": 6.0,
        "quota": TenantQuota(max_pending=16, deadline_ms=6.0),
    },
}
OBJECTIVES = {"interactive": 0.9, "batch": 0.5, "analytics": 0.8}

#: Requests per tenant in one round.  ``loadgen``'s closed loop gives
#: every tenant the same number of clients and requests per client, so
#: each tenant sends a third of the requests; ten each is the smallest
#: round in which every endpoint weight is a whole count.  Every round
#: therefore holds the same work, three PageRanks included.
ROUND_TENANTS = {tenant: 10 for tenant in TENANTS}
#: Poisson arrival rate (requests per simulated ms), where shedding
#: begins.  When this benchmark was written, two rounds at 0.05/ms shed
#: up to four requests (ones queued behind a PageRank's 14 ms lane
#: occupancy), a PageRank on 1 of 20 seeds.  At 0.1/ms a PageRank was
#: shed on 2 of 10 seeds, and a run's host time moves by a sixth with
#: each PageRank that does not run; at 0.5/ms a quarter of all requests
#: were shed.
ARRIVALS_PER_MS = 0.05
#: Visit sources are Zipf-drawn from the popular set — this many
#: highest out-degree vertices, ranked by degree — so the lanes'
#: frontier memos see hits.
POPULAR = 4
ZIPF_S = 1.0


def _endpoint_counts(endpoints, total: int) -> list[tuple[str, int]]:
    raw = [(name, weight * total) for name, weight in endpoints]
    counts = {name: int(x) for name, x in raw}
    short = total - sum(counts.values())
    by_rest = sorted(raw, key=lambda nx: nx[1] - int(nx[1]), reverse=True)
    for name, _ in by_rest[:short]:
        counts[name] += 1
    return [(name, counts[name]) for name, _ in endpoints]


def round_deck() -> list[tuple[str, str]]:
    deck = []
    for tenant, total in ROUND_TENANTS.items():
        for endpoint, count in _endpoint_counts(
                TENANTS[tenant]["endpoints"], total):
            deck += [(tenant, endpoint)] * count
    return deck


class ServeMix:
    name = "serve-mix"
    round_ops = sum(ROUND_TENANTS.values())
    p50_over_rounds = False
    sim_rounds = 2
    trace_rounds = 1
    expected = ("udc", "traceplan", "cache", "kernel", "labels", "transfer",
                "session", "pagerank", "serving", "observability")

    def setup(self, seed: int):
        csr, build_s = _load(weighted=False)
        service = TraversalService(
            csr, EtaGraphConfig(), bench_device(), pool_size=2,
            quotas={t: spec["quota"] for t, spec in TENANTS.items()},
            health=True, slo=SLOMonitor(objectives=OBJECTIVES),
            telemetry=True,
        )
        popular = _by_degree(csr)[:POPULAR]
        # Every frontier memo holds every popular source's whole BFS
        # before timing, so memo contents (and memory) do not depend on
        # which lane the seed's draws route a source to, or on how deep
        # its early-exit shortest-path requests reach.
        lanes = [(int(source), worker.session.query("bfs", int(source)))
                 for worker in service.pool.workers for source in popular]
        # Best-effort requests at t = 0 build the lazy service state: the
        # graph summary, and the parent-tracking path lane, warmed by
        # paths to a vertex without in-edges (no early exit).
        in_degree = np.bincount(csr.column_indices,
                                minlength=csr.num_vertices)
        in_degree[popular] = 1
        orphan = int(np.flatnonzero(in_degree == 0)[0])
        requests = [StatsRequest(tenant="batch", arrival_ms=0.0)] + [
            ShortestPathRequest(tenant="batch", source=int(source),
                                target=orphan, arrival_ms=0.0)
            for source in popular]
        warm = (lanes, [(r, service.call(r)) for r in requests])
        zipf = 1.0 / np.arange(1, POPULAR + 1) ** ZIPF_S
        state = {
            "csr": csr, "service": service, "build_s": build_s,
            "seed": seed, "popular": popular, "zipf": zipf / zipf.sum(),
            "start_ms": service.clock_ms,
        }
        return state, warm

    def ops(self, state):
        csr = state["csr"]
        deck = round_deck()
        t = state["start_ms"]
        for r in range(1 << 30):
            rng = np.random.default_rng((state["seed"], r))
            for k in rng.permutation(len(deck)):
                tenant, endpoint = deck[k]
                t += rng.exponential(1.0 / ARRIVALS_PER_MS)
                common = {"tenant": tenant, "arrival_ms": t,
                          "deadline_ms": TENANTS[tenant]["deadline_ms"]}
                source = int(rng.choice(state["popular"], p=state["zipf"]))
                if endpoint == "visit":
                    yield VisitRequest(problem="bfs", source=source, **common)
                elif endpoint == "neighborhood":
                    yield NeighborhoodRequest(
                        source=source, hops=int(rng.integers(1, 4)),
                        **common)
                elif endpoint == "shortest_path":
                    yield ShortestPathRequest(
                        source=source,
                        target=int(rng.integers(0, csr.num_vertices)),
                        **common)
                elif endpoint == "pagerank":
                    yield PageRankRequest(**common)
                else:
                    yield StatsRequest(**common)

    def run(self, state, request):
        return state["service"].call(request)

    def judge(self, state, request, response, checker) -> Outcome:
        csr = state["csr"]
        endpoint = request.endpoint
        has_deadline = request.deadline_ms is not None
        h = digest(repr((
            endpoint, response.ok, response.shed, response.error,
            response.start_ms, response.finish_ms, response.worker,
        )).encode() + _value_bytes(response.value))
        if response.shed:
            # Shed at dispatch or refused at admission: a legal outcome.
            return Outcome(ok=True, served=False, hit=False,
                           has_deadline=has_deadline, digest=h)
        ok = response.ok
        if not ok:
            ok = (endpoint == "shortest_path"
                  and (response.error or "").startswith("PathError")
                  and checker.unreachable_ok(csr, request.source,
                                             request.target))
        elif endpoint == "visit":
            ok = checker.labels_ok(csr, "um_prefetch", "bfs",
                                   request.source, response.value)
        elif endpoint == "neighborhood":
            ok = (checker.labels_ok(csr, "um_prefetch", "bfs",
                                    request.source, response.result.labels)
                  and checker.neighborhood_ok(csr, request.source,
                                              request.hops, response.value))
        elif endpoint == "shortest_path":
            ok = checker.path_ok(csr, request.source, request.target,
                                 response.value)
        elif endpoint == "pagerank":
            ok = checker.pagerank_ok(csr, request.damping, request.tolerance,
                                     response.value)
        else:
            ok = (response.value["num_vertices"] == csr.num_vertices
                  and response.value["num_edges"] == csr.num_edges)
        deadline_abs = (response.arrival_ms + request.deadline_ms
                        if has_deadline else float("inf"))
        return Outcome(
            ok=ok, sim_ms=response.service_ms,
            sim_latency_ms=response.latency_ms, has_deadline=has_deadline,
            hit=ok and response.finish_ms <= deadline_abs, digest=h,
            sim_queue_ms=response.queue_ms,
        )

    def judge_warm(self, state, warm, checker) -> list[Outcome]:
        lanes, served = warm
        return [Outcome(ok=checker.labels_ok(state["csr"], "um_prefetch",
                                             "bfs", source, r.labels))
                for source, r in lanes] + [
            self.judge(state, request, response, checker)
            for request, response in served]

    def memo(self, state) -> tuple[int, int]:
        service = state["service"]
        sessions = [w.session for w in service.pool.workers]
        if service._path_pool is not None:
            sessions += [w.session for w in service._path_pool.workers]
        return (sum(s.memo_hits for s in sessions),
                sum(s.memo_hits + s.memo_misses for s in sessions))

    def hedges(self, state) -> int:
        return state["service"].health.hedges

    def close(self, state) -> None:
        state["service"].close()


def _value_bytes(value) -> bytes:
    if value is None:
        return b""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, dict):
        return b"".join(_value_bytes(value[k]) if isinstance(
            value[k], np.ndarray) else repr((k, value[k])).encode()
            for k in sorted(value))
    return repr(value).encode()


WORKLOADS = {w.name: w for w in (QueryCold, WaveHot, ServeMix)}
