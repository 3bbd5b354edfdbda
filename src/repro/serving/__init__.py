"""Multi-tenant traversal serving: the ROADMAP's request/response goal.

One resident graph, many tenants::

    from repro.serving import TraversalService, VisitRequest

    service = TraversalService(graph, pool_size=2)
    resp = service.call(VisitRequest(problem="bfs", source=0))
    resp.labels        # bit-identical to a bare EngineSession
    resp.latency_ms    # simulated queue + service time

The layer stack, bottom up:

* :mod:`repro.serving.requests` — typed request/response values
  (visit, neighborhood, shortest-path, pagerank, stats);
* :mod:`repro.serving.admission` — per-tenant quotas, deadline
  rejection at the door, EDF scheduling;
* :mod:`repro.serving.pool` — resident lanes on the simulated clock,
  each a :class:`~repro.resilience.session.ResilientSession` running
  the degradation ladder;
* :mod:`repro.serving.service` — :class:`TraversalService` itself:
  dispatch, load shedding, degradation, per-tenant telemetry;
* :mod:`repro.serving.health` — the self-healing plane: lane health
  scores, circuit breakers with warm standby replacement, hedged
  requests, brownout control (``TraversalService(..., health=True)``);
* :mod:`repro.serving.identity` — the service-vs-session,
  health-plane-on/off and telemetry-on/off bit-identity gates behind
  ``python -m repro.testing identity``;
* :mod:`repro.serving.chaos` — the sustained-fault self-healing battery
  behind ``python -m repro.testing heal``;
* :mod:`repro.serving.loadgen` — the closed-loop load generator behind
  ``python -m repro.bench serve``.

See ``docs/serving.md`` for the full tour.
"""

from repro.serving.admission import AdmissionQueue, AdmittedRequest, TenantQuota
from repro.serving.health import HealthPlane, HealthPolicy, LaneHealth
from repro.serving.identity import check_health_identity, \
    check_service_identity
from repro.serving.pool import PoolWorker, SessionPool
from repro.serving.requests import (
    ENDPOINTS,
    NeighborhoodRequest,
    PageRankRequest,
    ShortestPathRequest,
    StatsRequest,
    TraversalRequest,
    TraversalResponse,
    VisitRequest,
)
from repro.serving.service import TraversalService

__all__ = [
    "ENDPOINTS",
    "AdmissionQueue",
    "AdmittedRequest",
    "HealthPlane",
    "HealthPolicy",
    "LaneHealth",
    "NeighborhoodRequest",
    "PageRankRequest",
    "PoolWorker",
    "SessionPool",
    "ShortestPathRequest",
    "StatsRequest",
    "TenantQuota",
    "TraversalRequest",
    "TraversalResponse",
    "TraversalService",
    "VisitRequest",
    "check_health_identity",
    "check_service_identity",
]
