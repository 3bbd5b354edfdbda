"""Randomized differential + metamorphic sweep (no Hypothesis needed).

This is the engine behind ``python -m repro.testing fuzz``: generate a
small random graph, a random engine configuration and a random problem,
run it through EtaGraph (with inline invariant checking), every baseline
and the CPU oracle, and diff the labels.  A fraction of cases
additionally exercise a random metamorphic transform.  Everything is
derived from one seed, so a failing case prints the exact coordinates to
replay it.

:class:`SweepReport` and :func:`run_sweep` are the skeleton every seeded
sweep shares — this fuzzer, the chaos sweep
(:mod:`repro.resilience.chaos`) and the heal battery
(:mod:`repro.serving.chaos`): a case-count or wall-time budget, a
progress line every 25 cases, and a summary that ends in the contract
line or the list of failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core.config import EtaGraphConfig, MemoryMode
from repro.graph import generators
from repro.graph.builder import build_csr_from_edges
from repro.graph.csr import CSRGraph
from repro.graph.weights import uniform_int_weights
from repro.testing.differential import (
    ALL_BASELINES, ALL_PROBLEMS, DifferentialReport, run_differential_case,
)
from repro.testing.metamorphic import (
    TRANSFORMS_BY_PROBLEM, run_metamorphic_case,
)

_GRAPH_KINDS = (
    "er", "er", "rmat", "rmat", "star", "grid", "path", "web", "empty",
    "islands",
)
_DEGREE_LIMITS = (1, 2, 3, 4, 8, 32, 256)
_MEMORY_MODES = (
    MemoryMode.UM_PREFETCH, MemoryMode.UM_ON_DEMAND,
    MemoryMode.DEVICE, MemoryMode.ZERO_COPY, MemoryMode.DIRECT_ACCESS,
)


def random_graph(rng: np.random.Generator, *, weighted: bool,
                 max_vertices: int = 96) -> CSRGraph:
    """One random small graph, biased toward traversal-hostile shapes."""
    kind = _GRAPH_KINDS[int(rng.integers(len(_GRAPH_KINDS)))]
    seed = int(rng.integers(2**31))
    if kind == "er":
        n = int(rng.integers(2, max_vertices))
        g = generators.erdos_renyi(n, int(rng.integers(0, 4 * n)), seed=seed)
    elif kind == "rmat":
        scale = int(rng.integers(2, 7))
        g = generators.rmat(scale, int(rng.integers(1, 2**scale * 4)),
                            seed=seed)
    elif kind == "star":
        g = generators.star_graph(int(rng.integers(1, max_vertices)),
                                  out=bool(rng.integers(2)))
    elif kind == "grid":
        g = generators.grid_graph(int(rng.integers(1, 9)),
                                  int(rng.integers(1, 9)))
    elif kind == "path":
        g = generators.path_graph(int(rng.integers(2, max_vertices)))
    elif kind == "web":
        n = int(rng.integers(20, max_vertices))
        g = generators.web_chain(n, 4 * n, depth=int(rng.integers(2, 6)),
                                 seed=seed)
    elif kind == "empty":
        n = int(rng.integers(1, max_vertices))
        g = build_csr_from_edges(np.empty(0, np.int64),
                                 np.empty(0, np.int64), num_vertices=n)
    else:  # two disconnected islands
        n = int(rng.integers(4, max_vertices))
        half = n // 2
        m = int(rng.integers(0, 2 * n))
        r = np.random.default_rng(seed)
        src = np.concatenate([r.integers(0, half, size=m),
                              r.integers(half, n, size=m)])
        dst = np.concatenate([r.integers(0, half, size=m),
                              r.integers(half, n, size=m)])
        keep = src != dst
        g = build_csr_from_edges(src[keep], dst[keep], num_vertices=n)
    if weighted:
        g = g.with_weights(uniform_int_weights(g.num_edges, seed=seed ^ 1))
    return g


def random_config(rng: np.random.Generator) -> EtaGraphConfig:
    return EtaGraphConfig(
        degree_limit=int(_DEGREE_LIMITS[int(rng.integers(len(_DEGREE_LIMITS)))]),
        smp=bool(rng.integers(2)),
        memory_mode=_MEMORY_MODES[int(rng.integers(len(_MEMORY_MODES)))],
        udc_mode="in_core" if rng.integers(2) else "out_of_core",
        check_invariants=True,
    )


@dataclass
class SweepReport:
    """What every seeded sweep reports: its seed, wall time and failures.

    A subclass adds its counters and :meth:`headline`, and names its unit
    of work (for the progress log), the heading over its failure list
    and the contract line a clean sweep ends with.
    """

    seed: int
    elapsed_s: float = 0.0
    #: Human-readable descriptions of every failure, with replay seeds.
    failures: list = field(default_factory=list)

    unit: ClassVar[str] = "cases"
    failure_heading: ClassVar[str] = "FAILURES"
    contract: ClassVar[str] = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def headline(self) -> str:
        raise NotImplementedError

    def summary(self) -> str:
        head = self.headline()
        if self.ok:
            return f"{head}\n{self.contract}"
        lines = [f"{head}\n{len(self.failures)} {self.failure_heading}:"]
        lines += [f"  {f}" for f in self.failures]
        return "\n".join(lines)


def run_sweep(report, case, *, count, seconds, default_count, log=None):
    """Call ``case(i)`` for i = 0, 1, ... until ``count`` cases or
    ``seconds`` of wall time are spent (``default_count`` cases when
    neither is given), logging progress every 25 cases; returns
    ``report`` with its ``elapsed_s`` set."""
    if count is None and seconds is None:
        count = default_count
    start = time.monotonic()
    done = 0
    while (count is None or done < count) and \
            (seconds is None or time.monotonic() - start < seconds):
        case(done)
        done += 1
        if log is not None and done % 25 == 0:
            log(f"  ... {done} {report.unit}, {len(report.failures)} "
                f"{report.failure_heading.lower()}")
    report.elapsed_s = time.monotonic() - start
    return report


@dataclass
class FuzzReport(SweepReport):
    """Aggregate outcome of one fuzz sweep."""

    cases: int = 0
    engine_runs: int = 0
    metamorphic_checks: int = 0
    cases_per_problem: dict = field(default_factory=dict)

    contract: ClassVar[str] = (
        "all labels match the CPU oracle; no invariant violations"
    )

    def headline(self) -> str:
        per_problem = ", ".join(
            f"{k}={v}" for k, v in sorted(self.cases_per_problem.items())
        )
        return (
            f"fuzz sweep (seed {self.seed}): {self.cases} differential cases "
            f"({per_problem}), {self.engine_runs} engine runs, "
            f"{self.metamorphic_checks} metamorphic checks "
            f"in {self.elapsed_s:.1f}s"
        )


def run_fuzz(
    *,
    max_cases: int | None = None,
    max_seconds: float | None = None,
    seed: int = 0,
    problems=ALL_PROBLEMS,
    baselines=ALL_BASELINES,
    engines: tuple[str, ...] = (),
    metamorphic_every: int = 4,
    log=None,
) -> FuzzReport:
    """Run a randomized sweep until a case or time budget is exhausted
    (100 cases when neither is given).

    Every case is a differential comparison of EtaGraph (invariant checks
    on) and every baseline against the CPU oracle; every
    ``metamorphic_every``-th case additionally checks one random
    metamorphic relation.  ``engines`` names extra serving paths from
    :data:`~repro.testing.differential.EXTRA_ENGINE_FACTORIES`
    (``etagraph-session``, ``etagraph-service``, ``etagraph-msbfs``,
    ``etagraph-dobfs``) that join every case
    under the case's random configuration.  Failures never stop the
    sweep — they are collected with their case number so ``seed`` +
    case count replays them.
    """
    from repro.testing.differential import EXTRA_ENGINE_FACTORIES

    for name in engines:
        if name not in EXTRA_ENGINE_FACTORIES:
            raise ValueError(
                f"unknown extra engine {name!r}; "
                f"known: {sorted(EXTRA_ENGINE_FACTORIES)}"
            )
    rng = np.random.default_rng(seed)
    report = FuzzReport(seed=seed)

    def run_case(case: int) -> None:
        problem = problems[case % len(problems)]
        weighted = problem in ("sssp", "sswp")
        graph = random_graph(rng, weighted=weighted)
        source = int(rng.integers(graph.num_vertices))
        config = random_config(rng)

        extra = {
            name: EXTRA_ENGINE_FACTORIES[name](config)
            for name in engines
        }
        diff_report: DifferentialReport = run_differential_case(
            graph, problem, source, config=config, baselines=baselines,
            extra_engines=extra or None,
        )
        report.cases += 1
        report.engine_runs += len(diff_report.engines)
        report.cases_per_problem[problem] = \
            report.cases_per_problem.get(problem, 0) + 1
        if not diff_report.ok:
            report.failures.append(
                f"case {case}: {diff_report.summary()}"
            )

        if metamorphic_every and case % metamorphic_every == 0 \
                and graph.num_vertices > 1:
            transforms = TRANSFORMS_BY_PROBLEM[problem]
            transform = transforms[int(rng.integers(len(transforms)))]
            diff = run_metamorphic_case(
                graph, problem, source, transform,
                seed=int(rng.integers(2**31)),
            )
            report.metamorphic_checks += 1
            report.engine_runs += 2
            if diff is not None:
                report.failures.append(
                    f"case {case}: metamorphic {transform} violated for "
                    f"{problem}: {diff}"
                )

    return run_sweep(report, run_case, count=max_cases,
                     seconds=max_seconds, default_count=100, log=log)
