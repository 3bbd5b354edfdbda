"""The self-healing plane: lane health, circuit breakers, hedging, brownout.

The service's failure unit is the *lane* — a resident session whose
injector, warm caches and dead rungs persist across requests.  A lane
that keeps absorbing ECC corruption or UM stalls stays slow and risky
for every request routed to it, so recovery has to happen per lane, not
per query.  :class:`HealthPlane` is that recovery loop, entirely on the
simulated clock and entirely deterministic:

* **Lane health scoring** — an EWMA over per-request outcome quality
  (1.0 for a clean serve, :attr:`HealthPolicy.tainted_quality` for a
  serve that absorbed faults/retries/degradation, 0.0 for an
  infrastructure-typed failure).  Clean traffic keeps a lane's score at
  exactly 1.0, which is what makes the plane purely observational on
  healthy paths — the on/off bit-identity gate
  (:func:`repro.serving.identity.check_health_identity`) depends on it.
* **Circuit breakers** — per lane, ``closed -> open -> half_open ->
  closed`` on the simulated clock.  Opening quarantines the lane for
  :attr:`HealthPolicy.open_ms` (by pushing its ``busy_until_ms`` past
  the window, so least-busy checkout naturally routes around it) and
  swaps in a **warm standby** at the same instant: the replacement
  session is built *before* the sick one is retired, so pool capacity
  never dips.  Resilient standbys inherit the old lane's injector —
  fault-event counters keep advancing, which is how a finite sustained
  fault window eventually drains and half-open probes succeed.
* **Hedged requests** — when a suspect lane's serve overshoots the p95
  of the endpoint's recent *clean* latency ring, the service launches
  the same query on a dedicated warm hedge standby
  (:meth:`repro.serving.pool.SessionPool.build_spare`) and takes the
  earlier finish.  The hedge leg deliberately does **not** run on an
  active lane: sessions are stateful in simulated time (monotone
  allocator addresses key the frontier memo), so one extra query on a
  primary lane would shift every later serve on it and break the
  digest contract ``repro.bench serve`` gates (hedging must change
  p99, never a ``result_digest``).  Both legs must agree bit-for-bit
  on labels (asserted), so hedging is a latency tool, never a
  correctness fork.
* **Brownout control** — a service-wide ladder driven by the mean lane
  score: level 1 disables hedging, level 2 halves the MSBFS wave width,
  level 3 sheds best-effort requests at dispatch, level 4 refuses new
  admissions outright.

Attribution matters: only infrastructure errors (:data:`INFRA_ERRORS`)
blame the lane.  A ``PathError`` or a spent deadline says nothing about
the hardware under the session, so it neither lowers the score nor
counts as a half-open probe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

#: Error type names that indict the *lane* (device/transport faults),
#: as opposed to request-level failures (bad path, spent deadline, bad
#: config) that say nothing about the session underneath.
INFRA_ERRORS = frozenset({
    "DeviceError",
    "AllocationError",
    "DeviceOutOfMemoryError",
    "TransientDeviceError",
    "TransferError",
    "MigrationStallError",
    "DataCorruptionError",
})

#: Breaker states, in lifecycle order.
BREAKER_STATES = ("closed", "open", "half_open")


@dataclass(frozen=True)
class HealthPolicy:
    """Tuning of the self-healing plane (all times simulated ms)."""

    #: EWMA smoothing for the lane score: ``s' = (1-a)*s + a*quality``.
    ewma_alpha: float = 0.3
    #: Quality credited to a serve that succeeded but absorbed faults,
    #: retries or degradation (clean = 1.0, infra failure = 0.0).
    tainted_quality: float = 0.3
    #: Consecutive infra-bad observations that trip a closed breaker.
    failure_threshold: int = 3
    #: A closed lane whose score sinks below this also trips.
    open_score: float = 0.35
    #: Score a freshly replaced standby starts from (suspicious, not
    #: condemned: a few clean serves heal it back to 1.0).
    reset_score: float = 0.5
    #: Quarantine window after opening (simulated ms).
    open_ms: float = 8.0
    #: Consecutive clean half-open probes required to re-close.
    probe_successes: int = 2
    #: Quarantine never applies when it would leave fewer than this many
    #: lanes unquarantined (the standby still swaps in immediately).
    min_active: int = 1
    #: Master switches (the bench isolates hedging with breakers off).
    breakers: bool = True
    hedge: bool = True
    brownout: bool = True
    #: Hedge only once the endpoint's clean-latency ring has this many
    #: samples, over a ring of at most ``hedge_ring`` recent serves.
    hedge_min_samples: int = 8
    hedge_ring: int = 64
    #: Brownout thresholds on the mean lane score, highest level wins.
    brownout_hedge: float = 0.85
    brownout_wave: float = 0.6
    brownout_best_effort: float = 0.4
    brownout_admission: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError("ewma_alpha must be in (0, 1]")
        if not 0.0 <= self.tainted_quality < 1.0:
            raise ConfigError("tainted_quality must be in [0, 1)")
        if self.failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if self.open_ms < 0:
            raise ConfigError("open_ms must be >= 0")
        if self.probe_successes < 1:
            raise ConfigError("probe_successes must be >= 1")
        if self.min_active < 0:
            raise ConfigError("min_active must be >= 0")
        if self.hedge_min_samples < 1 or self.hedge_ring < 1:
            raise ConfigError("hedge ring sizes must be >= 1")
        ladder = (self.brownout_admission, self.brownout_best_effort,
                  self.brownout_wave, self.brownout_hedge)
        if any(b < 0 for b in ladder) or list(ladder) != sorted(ladder):
            raise ConfigError(
                "brownout thresholds must be >= 0 and ordered "
                "admission <= best_effort <= wave <= hedge"
            )


@dataclass
class LaneHealth:
    """One lane's health state (mutated only by :class:`HealthPlane`)."""

    index: int
    score: float = 1.0
    state: str = "closed"
    #: Consecutive infra-bad observations since the last clean one.
    consecutive_bad: int = 0
    #: Clean serves observed while half-open.
    probes: int = 0
    #: Simulated instant the quarantine window ends.
    open_until: float = 0.0
    #: Lifetime breaker transitions (opens == standby replacements).
    opens: int = 0
    closes: int = 0
    #: Score-bearing observations (neutral outcomes excluded).
    observations: int = 0

    def __repr__(self) -> str:
        return (
            f"LaneHealth({self.index}, {self.state}, "
            f"score {self.score:.3f}, {self.opens} opens)"
        )


@dataclass(frozen=True)
class HealthEvent:
    """One breaker/brownout transition, on the simulated clock."""

    kind: str  # "open" | "replace" | "half_open" | "closed" | "brownout"
    lane: int | None
    t_ms: float
    detail: str = ""

    def __repr__(self) -> str:
        where = f"lane {self.lane}" if self.lane is not None else "service"
        tail = f" ({self.detail})" if self.detail else ""
        return f"HealthEvent({self.kind}, {where}, t={self.t_ms:.3f}{tail})"


class HealthPlane:
    """Per-lane health scores, circuit breakers and the brownout ladder.

    Owned by a :class:`~repro.serving.service.TraversalService`; the
    service feeds it one observation per lane serve (sequential, hedge
    and wave paths) and consults it at dispatch time.  The plane mutates
    the pool only through
    :meth:`~repro.serving.pool.SessionPool.replace_session` (warm
    standby swap) and a lane's ``busy_until_ms`` (quarantine).
    """

    def __init__(self, policy: HealthPolicy, pool):
        self.policy = policy
        self.pool = pool
        self.lanes = [LaneHealth(index=i) for i in range(pool.size)]
        #: Every transition, in simulated-time order (the chaos battery
        #: pairs each ``open`` with its same-instant ``replace``).
        self.events: list[HealthEvent] = []
        #: Current brownout level, 0 (healthy) .. 4 (refusing admissions).
        self.level = 0
        self.hedges = 0
        self.hedge_wins = 0
        self._latency: dict[str, deque] = {}

    # ------------------------------------------------------------------
    # Observation feed
    # ------------------------------------------------------------------

    def classify(
        self, *, ok: bool, error_type: str | None,
        faults: int, attempts: int,
    ) -> str:
        """Bucket one serve: ``clean`` / ``tainted`` / ``bad`` (infra
        failure) / ``neutral`` (request-level failure, not the lane's
        fault).  Degradation alone does not taint: a capacity OOM is a
        property of graph and device, not of the lane."""
        if not ok:
            return "bad" if error_type in INFRA_ERRORS else "neutral"
        if faults or attempts > 1:
            return "tainted"
        return "clean"

    def observe(
        self, worker, *, ok: bool, error_type: str | None = None,
        faults: int = 0, attempts: int = 1, t_ms: float = 0.0,
    ) -> list[HealthEvent]:
        """Fold one lane serve into the plane; returns the transitions it
        caused (possibly opening a breaker and swapping in a standby)."""
        if not 0 <= worker.index < len(self.lanes):
            return []
        lane = self.lanes[worker.index]
        before = len(self.events)
        kind = self.classify(
            ok=ok, error_type=error_type, faults=faults,
            attempts=attempts,
        )
        if kind != "neutral":
            lane.observations += 1
            quality = (
                1.0 if kind == "clean"
                else self.policy.tainted_quality if kind == "tainted"
                else 0.0
            )
            a = self.policy.ewma_alpha
            lane.score = (1.0 - a) * lane.score + a * quality
            if kind == "clean":
                lane.consecutive_bad = 0
                if lane.state == "half_open":
                    lane.probes += 1
                    if lane.probes >= self.policy.probe_successes:
                        lane.state = "closed"
                        lane.closes += 1
                        self._event("closed", lane.index, t_ms,
                                    f"after {lane.probes} probes")
            else:
                lane.consecutive_bad += 1
                if self.policy.breakers and (
                    lane.state == "half_open"
                    or lane.consecutive_bad >= self.policy.failure_threshold
                    or lane.score < self.policy.open_score
                ):
                    self._open(worker, lane, t_ms)
        self._update_level(t_ms)
        return self.events[before:]

    def on_dispatch(self, worker, start_ms: float) -> None:
        """Dispatch-time hook: an open lane whose quarantine window has
        passed goes half-open — this serve is its probe."""
        if not 0 <= worker.index < len(self.lanes):
            return
        lane = self.lanes[worker.index]
        if lane.state == "open" and start_ms >= lane.open_until:
            lane.state = "half_open"
            lane.probes = 0
            self._event("half_open", lane.index, start_ms)

    def _open(self, worker, lane: LaneHealth, t_ms: float) -> None:
        """Trip the breaker: quarantine the lane and swap in a warm
        standby *now* — the replacement exists before the sick session
        is retired, so capacity never dips below the pool size."""
        lane.opens += 1
        lane.state = "open"
        lane.probes = 0
        lane.consecutive_bad = 0
        lane.score = self.policy.reset_score
        self._event("open", lane.index, t_ms)
        generation = self.pool.replace_session(worker)
        self._event("replace", lane.index, t_ms,
                    f"generation {generation}")
        others = sum(
            1 for other in self.lanes
            if other is not lane and other.state != "open"
        )
        if others >= self.policy.min_active:
            lane.open_until = t_ms + self.policy.open_ms
            worker.busy_until_ms = max(
                worker.busy_until_ms, lane.open_until,
            )
        else:
            # Quarantining would sink capacity below the floor: the
            # standby goes straight to half-open on its next dispatch.
            lane.open_until = t_ms

    def _event(
        self, kind: str, lane: int | None, t_ms: float, detail: str = "",
    ) -> None:
        self.events.append(HealthEvent(kind, lane, t_ms, detail))

    # ------------------------------------------------------------------
    # Brownout ladder
    # ------------------------------------------------------------------

    @property
    def aggregate(self) -> float:
        """Mean lane score — the brownout ladder's input."""
        return sum(lane.score for lane in self.lanes) / len(self.lanes)

    def _update_level(self, t_ms: float) -> None:
        if not self.policy.brownout:
            return
        agg = self.aggregate
        p = self.policy
        level = 0
        if agg < p.brownout_hedge:
            level = 1
        if agg < p.brownout_wave:
            level = 2
        if agg < p.brownout_best_effort:
            level = 3
        if agg < p.brownout_admission:
            level = 4
        if level != self.level:
            self._event("brownout", None, t_ms,
                        f"level {self.level} -> {level}")
            self.level = level

    @property
    def hedging_active(self) -> bool:
        """Hedging is the first thing brownout turns off (level >= 1)."""
        return self.policy.hedge and self.level < 1

    @property
    def shed_best_effort(self) -> bool:
        return self.level >= 3

    @property
    def refuse_admissions(self) -> bool:
        return self.level >= 4

    def effective_wave_width(self, requested: int) -> int:
        """Level >= 2 halves the MSBFS wave width (a half-width below
        the MSBFS minimum of 2 turns coalescing off)."""
        if self.level < 2 or requested < 2:
            return requested
        shrunk = requested // 2
        return shrunk if shrunk >= 2 else 0

    # ------------------------------------------------------------------
    # Hedging
    # ------------------------------------------------------------------

    def record_latency(self, endpoint: str, service_ms: float) -> None:
        """Feed one *clean* serve into the endpoint's latency ring.
        Suspect serves are excluded on purpose: the ring is the healthy
        baseline the hedge trigger compares against, and letting a sick
        lane's outliers in would drag the p95 up until its own straggles
        look normal."""
        ring = self._latency.get(endpoint)
        if ring is None:
            ring = self._latency[endpoint] = deque(
                maxlen=self.policy.hedge_ring
            )
        ring.append(service_ms)

    def hedge_threshold(self, endpoint: str) -> float | None:
        """Nearest-rank p95 of the endpoint's clean-latency ring, or
        ``None`` while the ring is still too small to trust."""
        ring = self._latency.get(endpoint)
        if ring is None or len(ring) < self.policy.hedge_min_samples:
            return None
        ordered = np.sort(np.asarray(ring, dtype=np.float64))
        rank = int(np.ceil(0.95 * len(ordered))) - 1
        return float(ordered[max(0, min(rank, len(ordered) - 1))])

    def suspect(self, worker, response) -> bool:
        """Whether a serve warrants a hedge: the lane is not pristine, or
        the serve itself absorbed faults/retries/degradation.  Clean
        serves on pristine lanes are never hedged — that guard keeps
        healthy runs bit-identical with the plane off."""
        lane = self.lanes[worker.index]
        return (
            lane.score < 1.0
            or response.attempts > 1
            or response.degraded
            or bool(response.faults_seen)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def lane_health(self) -> dict[int, float]:
        """Lane index -> current EWMA health score."""
        return {lane.index: lane.score for lane in self.lanes}

    def snapshot(self) -> dict:
        """The plane's state as plain data (the ``stats`` endpoint's
        ``health`` key and the chaos battery's evidence)."""
        return {
            "aggregate": self.aggregate,
            "brownout_level": self.level,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "events": len(self.events),
            "lanes": [
                {
                    "lane": lane.index,
                    "score": lane.score,
                    "state": lane.state,
                    "opens": lane.opens,
                    "closes": lane.closes,
                    "generation": self.pool.workers[lane.index].generation,
                    "observations": lane.observations,
                }
                for lane in self.lanes
            ],
        }

    def __repr__(self) -> str:
        states = ",".join(lane.state for lane in self.lanes)
        return (
            f"HealthPlane({len(self.lanes)} lanes [{states}], "
            f"aggregate {self.aggregate:.3f}, level {self.level}, "
            f"{len(self.events)} events)"
        )
