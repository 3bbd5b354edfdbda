"""Chaos-mode differential fuzzing: random faults, exact answers.

Runs the differential fuzzer's random graphs and configurations through
a :class:`~repro.resilience.session.ResilientSession` under random
seeded :class:`~repro.resilience.faults.FaultPlan`\\ s, and asserts the
resilience contract:

    every query either returns labels **bit-identical to the CPU
    oracle**, or raises a **typed** :class:`~repro.errors.ReproError` —
    never a wrong answer, never a bare traceback.

Everything derives from one sweep seed, so a failing plan prints the
coordinates to replay it.  ``python -m repro.testing chaos`` runs it,
and the ``gates`` CI job gates on it.

:func:`check_bit_identity` is the other half of the contract: with *no*
fault plan installed, ``ResilientSession`` must be an exact no-op
wrapper — labels and simulated timings hash-identical to a bare
``EngineSession`` on the same queries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core.config import EtaGraphConfig
from repro.core.session import EngineSession
from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.resilience.faults import FaultPlan
from repro.resilience.session import ResilientSession, RetryPolicy
from repro.testing.differential import diff_labels, oracle_labels
from repro.testing.fuzz import (
    SweepReport, random_config, random_graph, run_sweep,
)

_PROBLEMS = ("bfs", "sssp", "sswp", "cc")
#: Queries served through each fault plan's session.
_QUERIES_PER_PLAN = 2
#: Upper bound on a random graph's vertex count.
_MAX_VERTICES = 64


@dataclass
class ChaosReport(SweepReport):
    """Aggregate outcome of one chaos sweep."""

    plans: int = 0
    queries: int = 0
    #: Queries that returned a (verified-correct) result.
    ok_results: int = 0
    #: Of those, how many were served from a lower rung than configured.
    degraded: int = 0
    #: Queries that ended in a typed ReproError, by exception type name.
    typed_errors: dict = field(default_factory=dict)
    #: Results by final ladder placement.
    placements: dict = field(default_factory=dict)
    #: Total injected faults observed firing.
    faults_fired: int = 0

    unit: ClassVar[str] = "plans"
    failure_heading: ClassVar[str] = "CONTRACT VIOLATIONS"
    contract: ClassVar[str] = (
        "resilience contract holds: every outcome was a correct result "
        "or a typed ReproError"
    )

    def headline(self) -> str:
        errors = ", ".join(
            f"{k}={v}" for k, v in sorted(self.typed_errors.items())
        ) or "none"
        placements = ", ".join(
            f"{k}={v}" for k, v in sorted(self.placements.items())
        ) or "none"
        return (
            f"chaos sweep (seed {self.seed}): {self.plans} fault plans, "
            f"{self.queries} queries in {self.elapsed_s:.1f}s\n"
            f"  correct results: {self.ok_results} "
            f"({self.degraded} degraded; placements: {placements})\n"
            f"  typed errors: {errors}\n"
            f"  faults fired: {self.faults_fired}"
        )


def run_chaos(
    *,
    max_plans: int | None = None,
    max_seconds: float | None = None,
    seed: int = 0,
    log=None,
    trace_dir=None,
) -> ChaosReport:
    """Sweep random fault plans until the plan or time budget runs out
    (200 plans when neither is given).

    Each case draws a random graph, engine configuration, problem and
    :class:`FaultPlan` from the case seed, serves two queries through
    one ``ResilientSession``, and verifies every returned label vector
    bit-for-bit against the CPU oracle.  Typed ``ReproError``\\ s are
    acceptable outcomes (counted, not failed); anything else — a label
    mismatch or an untyped exception — is a contract violation recorded
    with its replay coordinates.

    ``trace_dir`` (optional) turns on telemetry per query and writes a
    Chrome trace-event file for every query that ended in a typed error
    or a contract violation — the spans recorded up to the failure,
    including the resilience ladder's attempts, so a failing plan can be
    diagnosed on a timeline instead of replayed blind.
    """
    if trace_dir is not None:
        from pathlib import Path

        from repro.observability.export import write_chrome_trace
        from repro.observability.spans import Tracer

        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)

    report = ChaosReport(seed=seed)

    def run_plan(case: int) -> None:
        rng = np.random.default_rng([seed, case])
        problem = _PROBLEMS[case % len(_PROBLEMS)]
        graph = random_graph(
            rng, weighted=problem in ("sssp", "sswp"),
            max_vertices=_MAX_VERTICES,
        )
        config = random_config(rng)
        plan = FaultPlan.random(rng)
        # Vary the hardening policy too, so the sweep exercises the
        # typed-error side of the contract (a persistent fault with the
        # CPU oracle rung disabled must surface as a ReproError, not
        # hang or escape untyped).
        policy = RetryPolicy(
            max_retries=int(rng.integers(0, 3)),
            allow_cpu_fallback=bool(rng.integers(0, 4)),
        )
        coords = (
            f"plan {case} (seed {seed}, {plan.describe()}, {problem}, "
            f"|V|={graph.num_vertices} |E|={graph.num_edges}, "
            f"memory={config.memory_mode.value}, "
            f"retries={policy.max_retries}, "
            f"cpu_fallback={policy.allow_cpu_fallback})"
        )
        report.plans += 1

        with ResilientSession(
            graph, config, fault_plan=plan, policy=policy,
        ) as rs:
            for q in range(_QUERIES_PER_PLAN):
                source = int(rng.integers(graph.num_vertices))
                report.queries += 1
                if trace_dir is not None:
                    # One externally-owned tracer per query so the spans
                    # recorded up to a failure survive the exception.
                    rs.tracer = Tracer()

                def _dump_trace(label: str) -> None:
                    if trace_dir is None or rs.tracer is None:
                        return
                    write_chrome_trace(
                        rs.tracer.trace(
                            plan=case, query=q, problem=problem,
                            source=source, outcome=label, sweep_seed=seed,
                        ),
                        trace_dir / f"plan{case:04d}-q{q}-{label}.json",
                    )

                try:
                    outcome = rs.run(problem, source)
                except ReproError as exc:
                    name = type(exc).__name__
                    report.typed_errors[name] = \
                        report.typed_errors.get(name, 0) + 1
                    _dump_trace(name)
                    continue
                except Exception as exc:  # noqa: BLE001 — the contract
                    report.failures.append(
                        f"{coords} query {q}: UNTYPED "
                        f"{type(exc).__name__}: {exc}"
                    )
                    _dump_trace("untyped")
                    continue
                diff = diff_labels(
                    oracle_labels(graph, problem, source),
                    outcome.labels, graph,
                )
                if diff is not None:
                    report.failures.append(
                        f"{coords} query {q} (source {source}, served from "
                        f"{outcome.final_placement}): WRONG LABELS: {diff}"
                    )
                    _dump_trace("wrong-labels")
                    continue
                report.ok_results += 1
                report.degraded += int(outcome.degraded)
                report.placements[outcome.final_placement] = \
                    report.placements.get(outcome.final_placement, 0) + 1
            if rs.injector is not None:
                report.faults_fired += len(rs.injector.fired)

    return run_sweep(report, run_plan, count=max_plans,
                     seconds=max_seconds, default_count=200, log=log)


# ----------------------------------------------------------------------
# No-fault bit-identity (the other half of the contract)
# ----------------------------------------------------------------------

def result_digest(result) -> str:
    """Stable hash of a traversal result's observable output: the exact
    label bytes plus the simulated clock readings."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(result.labels).tobytes())
    h.update(
        f"{result.total_ms:.9f}/{result.kernel_ms:.9f}/"
        f"{result.transfer_ms:.9f}/{result.setup_ms:.9f}".encode()
    )
    return h.hexdigest()


def check_bit_identity(
    csr: CSRGraph,
    problems: tuple[str, ...],
    sources: tuple[int, ...],
    config: EtaGraphConfig | None = None,
) -> list[str]:
    """Serve the same query stream through a bare ``EngineSession``, a
    no-fault ``ResilientSession`` and a telemetry-on ``EngineSession``;
    return a description of every digest mismatch (empty =
    bit-identical, the required result).  The third leg gates the
    observability contract: spans must read the simulated clock, never
    advance it — and the two telemetry-off legs must record no trace."""
    from dataclasses import replace

    config = config or EtaGraphConfig()
    traced_config = replace(config, telemetry=True)
    mismatches = []
    with EngineSession(csr, config) as plain, \
            ResilientSession(csr, config) as resilient, \
            EngineSession(csr, traced_config) as traced:
        for problem in problems:
            for source in sources:
                plain_result = plain.query(problem, source)
                expected = result_digest(plain_result)
                outcome = resilient.run(problem, source)
                actual = result_digest(outcome.result)
                for leg, result in (("plain-session", plain_result),
                                    ("resilient", outcome.result)):
                    if result.trace is not None:
                        mismatches.append(
                            f"{problem}/src={source}: telemetry-off "
                            f"{leg} run grew a trace"
                        )
                if outcome.degraded or outcome.num_attempts != 1:
                    mismatches.append(
                        f"{problem}/src={source}: no-fault run was not "
                        f"nominal: {outcome!r}"
                    )
                elif expected != actual:
                    mismatches.append(
                        f"{problem}/src={source}: digest {actual} != "
                        f"plain-session digest {expected}"
                    )
                traced_result = traced.query(problem, source)
                traced_digest = result_digest(traced_result)
                if traced_result.trace is None or \
                        len(traced_result.trace) == 0:
                    mismatches.append(
                        f"{problem}/src={source}: telemetry-on run "
                        "recorded no trace"
                    )
                elif traced_digest != expected:
                    mismatches.append(
                        f"{problem}/src={source}: telemetry-on digest "
                        f"{traced_digest} != telemetry-off digest {expected}"
                    )
    return mismatches
