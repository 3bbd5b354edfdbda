"""Multi-source batch amortization on a topology-resident session.

Data transfer "often dominates the total time" (Section I); a serving
deployment therefore keeps the topology resident and answers repeated
queries against warm state.  This experiment runs a batch of BFS
queries per memory mode through one :class:`EngineSession` and reports
the *measured* amortization: the shared setup equals the first query's
actual topology movement, and warm queries in the UM modes re-migrate
nothing while the graph fits the residency budget.

Not a paper table — this is the regression workload the CI bench job's
``multi`` entry diffs against a committed baseline
(``benchmarks/baseline_pr2``).
"""

from __future__ import annotations

from repro.bench.runner import BenchContext, ExperimentReport
from repro.bench import workloads
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.multi import pick_sources, run_batch
from repro.utils.tables import render_table

DATASETS = ["slashdot", "livejournal"]

VARIANTS = {
    "etagraph": MemoryMode.UM_PREFETCH,
    "etagraph-noump": MemoryMode.UM_ON_DEMAND,
    "etagraph-noum": MemoryMode.DEVICE,
}

NUM_SOURCES = 8


def run(quick: bool = False, ctx: BenchContext | None = None) -> ExperimentReport:
    ctx = ctx or BenchContext()
    names = [d for d in DATASETS if not quick or d == "slashdot"]

    rows = []
    data = {}
    for ds in names:
        csr, _ = ctx.load(ds, weighted=False)
        sources = pick_sources(csr, NUM_SOURCES, seed=2)
        for variant, mode in VARIANTS.items():
            cfg = EtaGraphConfig(memory_mode=mode)
            batch = run_batch(
                csr, sources, "bfs", config=cfg, device=ctx.device
            )
            first, rest = batch.results[0], batch.results[1:]
            warm_migrated = sum(
                sum(r.profiler.migration_sizes) for r in rest
            )
            data[(ds, variant)] = {
                "num_queries": len(batch.results),
                "shared_setup_ms": batch.shared_setup_ms,
                "first_setup_ms": first.setup_ms,
                "query_ms": batch.query_ms,
                "total_ms": batch.total_ms,
                "naive_total_ms": batch.naive_total_ms,
                "amortization_speedup": batch.amortization_speedup,
                "warm_migrated_bytes": warm_migrated,
            }
            rows.append([
                f"{ds} {variant}",
                f"{batch.shared_setup_ms:.3f}",
                f"{batch.query_ms:.3f}",
                f"{batch.total_ms:.3f}",
                f"{batch.naive_total_ms:.3f}",
                f"{batch.amortization_speedup:.2f}x",
                f"{warm_migrated // 1024} KiB",
            ])

    text = render_table(
        ["run", "setup ms", "queries ms", "batched ms", "naive ms",
         "speedup", "warm re-migration"],
        rows,
        title=f"Batch of {NUM_SOURCES} BFS sources on one warm session",
    )
    return ExperimentReport(
        experiment="multi",
        title="Multi-source batch amortization",
        text=text,
        data=data,
    )
