"""The service-vs-session bit-identity gate.

The serving layer must be a *frontend*, not a different engine: every
engine result a service hands back has to be bit-identical — labels
**and** simulated clock readings — to the same query on a bare
:class:`~repro.core.session.EngineSession`.  The subtlety is state:
warm-query timing depends on the full history a session has served
(cache hierarchy, frontier memo, UM residency), so the reference run
must replay *each lane's exact subsequence* on a fresh bare session, in
dispatch order — not the global stream on one session.

:func:`check_service_identity` does exactly that and returns the list
of digest mismatches (empty = identical), using the same
:func:`~repro.resilience.chaos.result_digest` hash the chaos gate uses.

:func:`check_health_identity` and :func:`check_trace_identity` are the
companion gates for the self-healing plane (:mod:`repro.serving.health`)
and for request tracing, SLO monitors and the flight recorder: on a
healthy (fault-free) request stream each must be purely observational,
so the same batch served with it off and on must agree on *every*
response fact — labels, simulated arrival/start/finish clocks, lane,
placement and sequence number.

``python -m repro.testing identity`` runs all three.
"""

from __future__ import annotations

from functools import partial

from repro.core.config import EtaGraphConfig
from repro.core.session import EngineSession
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.graph.csr import CSRGraph
from repro.serving.requests import TraversalResponse, VisitRequest
from repro.serving.service import TraversalService

#: The default query stream the CLI gate serves.
DEFAULT_QUERIES: tuple[tuple[str, int], ...] = (
    ("bfs", 0), ("bfs", 1), ("cc", 0), ("bfs", 0), ("cc", 2), ("bfs", 3),
)


def replay_mismatches(
    csr: CSRGraph,
    responses: list[TraversalResponse],
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
) -> list[str]:
    """Replay each lane's served subsequence on a fresh bare session and
    describe every result-digest mismatch (empty = bit-identical)."""
    config = config or EtaGraphConfig()
    lanes: dict[int, list[TraversalResponse]] = {}
    for response in responses:
        if response.result is None:
            continue  # shed / errored: no engine result to compare
        lanes.setdefault(response.worker, []).append(response)

    # Imported here: repro.resilience.chaos pulls in repro.testing,
    # which a plain ``import repro`` should not load.
    from repro.resilience.chaos import result_digest

    mismatches = []
    for lane in sorted(lanes):
        with EngineSession(csr, config, device) as session:
            for response in lanes[lane]:
                request = response.request
                reference = session.query(
                    request.problem if isinstance(request, VisitRequest)
                    else "bfs",
                    request.source,
                    target=getattr(request, "target", None),
                )
                got = result_digest(response.result)
                want = result_digest(reference)
                if got != want:
                    mismatches.append(
                        f"lane {lane} seq {response.seq} "
                        f"{request.describe()}: service {got} != "
                        f"session {want}"
                    )
    return mismatches


def check_service_identity(
    csr: CSRGraph,
    queries: tuple[tuple[str, int], ...] = DEFAULT_QUERIES,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
    *,
    pool_size: int = 1,
) -> list[str]:
    """Serve ``queries`` (no deadlines, FIFO order) through a service
    with ``pool_size`` fault-free lanes and compare every engine result
    against per-lane bare-session replays.  Returns mismatch
    descriptions; empty means the service is bit-identical to the
    sessions it fronts."""
    config = config or EtaGraphConfig()
    with TraversalService(
        csr, config, device, pool_size=pool_size,
    ) as service:
        responses = service.serve([
            VisitRequest(problem=problem, source=source)
            for problem, source in queries
        ])
    bad = [r for r in responses if not r.ok]
    if bad:
        return [f"seq {r.seq} {r.request.describe()} failed: {r.error}"
                for r in bad]
    return replay_mismatches(csr, responses, config, device)


def _response_facts(response: TraversalResponse) -> tuple:
    """Everything a healthy-path response commits to: identity of the
    answer *and* of the simulated schedule that produced it."""
    from repro.resilience.chaos import result_digest

    result = response.result
    return (
        response.seq,
        response.ok,
        response.shed,
        response.error,
        response.worker,
        response.placement,
        response.degraded,
        response.attempts,
        round(response.arrival_ms, 9),
        round(response.start_ms, 9),
        round(response.finish_ms, 9),
        result_digest(result) if result is not None else None,
    )


def _on_off_mismatches(
    service_factory, requests: list, plane: str, enable: dict, audit,
) -> list[str]:
    """Serve ``requests`` twice on ``service_factory(**kwargs)`` — with
    ``plane`` off, then on (``kwargs = enable``) — and describe every
    response-fact divergence.  ``audit(service, responses)`` inspects
    the on-leg's service before it closes; a message fails the gate at
    once (a plane that observed nothing would make it vacuous)."""
    runs = []
    for kwargs in ({}, enable):
        with service_factory(**kwargs) as service:
            responses = service.serve(list(requests))
            if kwargs:
                problem = audit(service, responses)
                if problem:
                    return [problem]
        runs.append(responses)
    mismatches = []
    for off, on in zip(*runs):
        facts_off, facts_on = _response_facts(off), _response_facts(on)
        if facts_off != facts_on:
            mismatches.append(
                f"seq {off.seq} {off.request.describe()}: "
                f"{plane}-off {facts_off} != {plane}-on {facts_on}"
            )
    return mismatches


def check_health_identity(
    csr: CSRGraph,
    queries: tuple[tuple[str, int], ...] = DEFAULT_QUERIES,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
    *,
    pool_size: int = 2,
) -> list[str]:
    """Serve the same healthy batch with the self-healing plane off and
    on, and describe every response-fact divergence (empty = the plane
    is purely observational on healthy paths).

    Unlike :func:`check_service_identity` this compares the two service
    runs against *each other* — labels **and** simulated clocks, lane
    assignment, placement, sequence — because the plane's no-op contract
    is about the whole schedule, not just the answer bits.
    """
    def audit(service, responses) -> str | None:
        if service.health.level != 0:
            return ("healthy stream raised brownout level "
                    f"{service.health.level}: plane is not observational")
        return None

    return _on_off_mismatches(
        partial(TraversalService, csr, config or EtaGraphConfig(), device,
                pool_size=pool_size),
        [VisitRequest(problem=problem, source=source)
         for problem, source in queries],
        "health", {"health": True}, audit,
    )


def check_trace_identity(
    csr: CSRGraph,
    queries: tuple[tuple[str, int], ...] = DEFAULT_QUERIES,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
    *,
    pool_size: int = 2,
) -> list[str]:
    """Serve the same batch with the full observability stack off and
    on — request-scoped tracing, SLO burn-rate monitors and the flight
    recorder all enabled on the on-leg — and describe every
    response-fact divergence (empty = telemetry is purely
    observational: same labels, same simulated clocks, same schedule).

    Also asserts the on-leg actually *observed* the run: every admitted
    request must have a ``request`` span carrying its ``request_id``,
    and the SLO monitor must have one sample per terminal response —
    a gate that silently records nothing would be vacuous.
    """
    from repro.observability.slo import SLOMonitor, SLOPolicy

    def audit(service, responses) -> str | None:
        ids = {
            r.attrs.get("request_id")
            for r in service.trace().spans("service", "request")
        }
        missing = [
            resp.request_id for resp in responses
            if resp.request_id and resp.request_id not in ids
        ]
        if missing:
            return (f"request(s) {missing} produced no request span "
                    "— trace propagation is broken")
        samples = sum(
            s["samples"] for s in service.slo.snapshot().values()
        )
        if samples != len(responses):
            return (f"SLO monitor saw {samples} samples for "
                    f"{len(responses)} responses")
        return None

    return _on_off_mismatches(
        partial(TraversalService, csr, config or EtaGraphConfig(), device,
                pool_size=pool_size),
        [VisitRequest(problem=problem, source=source, tenant="gate",
                      deadline_ms=50.0)
         for problem, source in queries],
        "telemetry",
        {"telemetry": True, "recorder": True,
         "slo": SLOMonitor(SLOPolicy(objective=0.5))},
        audit,
    )
