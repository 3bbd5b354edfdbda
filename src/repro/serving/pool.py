"""Worker pool: resident engine sessions as schedulable lanes.

A :class:`SessionPool` owns ``size`` resident
:class:`~repro.resilience.session.ResilientSession` workers over one
graph — one lane kind, so the device → UM → zero-copy → CPU degradation
ladder rides under every request, with or without a fault plan.  Without
one, a lane's results are bit-identical to a bare
:class:`~repro.core.session.EngineSession` serving the same queries.
Each worker is a *lane* on the service's simulated clock:
:attr:`PoolWorker.busy_until_ms` is when its current work finishes, and
the dispatcher always picks the lane that frees first — the multi-queue
analogue of the engine's own single simulated timeline.

Checkout/checkin is explicit so the pool is also usable without the
service: :meth:`checkout` hands out the least-busy idle worker and
raises :class:`~repro.errors.QuotaExceededError` when every lane is
already out; :meth:`checkin` returns one.  After :meth:`close`, any
checkout raises :class:`~repro.errors.SessionClosedError`.

Sessions are *stateful* in simulated time — warm caches and frontier
memos mean a query's timing depends on the whole history its worker has
served.  The pool therefore never rebuilds or shuffles workers on its
own: lane ``i`` keeps its session for the pool's lifetime, which is
what makes a served stream replayable (see
:mod:`repro.serving.identity`).  The one sanctioned exception is
:meth:`SessionPool.replace_session` — the self-healing plane's warm
standby swap (:mod:`repro.serving.health`): a fresh session is built
*first*, takes over the same lane slot (bumping
:attr:`PoolWorker.generation`), and only then is the sick session
closed, so pool capacity never dips below ``size``.  Standbys inherit
the retired session's injector: fault-event counters keep advancing
across the swap, which is what lets a finite sustained fault window
drain and the lane's half-open probes succeed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import EtaGraphConfig
from repro.errors import QuotaExceededError, SessionClosedError
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.graph.csr import CSRGraph
from repro.resilience.faults import FaultPlan
from repro.resilience.session import ResilientSession, RetryPolicy


@dataclass
class PoolWorker:
    """One lane: a resident session plus its simulated-clock position."""

    index: int
    session: ResilientSession
    #: Simulated time at which this lane's current work completes.
    busy_until_ms: float = 0.0
    #: Requests this lane has served (successfully or not).
    served: int = 0
    #: Whether the lane is currently checked out.
    checked_out: bool = field(default=False, repr=False)
    #: Warm-standby swaps this lane has been through (0 = the original
    #: session built at pool construction).
    generation: int = 0

    def __repr__(self) -> str:
        return (
            f"PoolWorker({self.index}, busy_until {self.busy_until_ms:.3f} "
            f"ms, {self.served} served)"
        )


class SessionPool:
    """``size`` resident sessions over one graph, dispatched least-busy
    first."""

    def __init__(
        self,
        csr: CSRGraph,
        config: EtaGraphConfig | None = None,
        device: DeviceSpec = GTX_1080TI,
        *,
        size: int = 2,
        fault_plan: FaultPlan | None = None,
        fault_plans: dict[int, FaultPlan] | None = None,
        policy: RetryPolicy | None = None,
    ):
        if size < 1:
            raise QuotaExceededError(f"pool size must be >= 1, got {size}")
        self.csr = csr
        self.config = config or EtaGraphConfig()
        self.device = device
        self.policy = policy or RetryPolicy()
        #: Per-lane fault plans (``fault_plans[i]`` overrides the shared
        #: ``fault_plan`` for lane ``i``) — the chaos battery's way of
        #: making one lane sick while its neighbours stay clean.
        self.fault_plans = dict(fault_plans or {})
        self.workers = [
            PoolWorker(index=index, session=self._session(
                index,
                # Each lane gets its own injector state: the plan's
                # schedule replays identically per worker.
                fault_plan=self.fault_plans.get(index, fault_plan),
            ))
            for index in range(size)
        ]
        self._closed = False

    def _session(self, index: int, *, fault_plan: FaultPlan | None = None
                 ) -> ResilientSession:
        """A fresh lane session.  ``index`` seeds its backoff-jitter
        stream, desynchronizing retry storms across lanes."""
        return ResilientSession(
            self.csr, self.config, self.device, fault_plan=fault_plan,
            policy=self.policy, jitter_seed=index,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.workers)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every worker session; the pool is dead afterwards."""
        if self._closed:
            return
        for worker in self.workers:
            worker.session.close()
        self._closed = True

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            f"{sum(w.served for w in self.workers)} served"
        )
        return f"SessionPool({self.size} workers, {state})"

    # ------------------------------------------------------------------
    # Checkout / checkin
    # ------------------------------------------------------------------

    def checkout(self) -> PoolWorker:
        """The idle lane that frees first (ties break on lane index).

        Raises :class:`SessionClosedError` after :meth:`close` and
        :class:`QuotaExceededError` when every lane is checked out.
        """
        if self._closed:
            raise SessionClosedError("session pool is closed")
        idle = [w for w in self.workers if not w.checked_out]
        if not idle:
            raise QuotaExceededError(
                f"all {self.size} pool workers are checked out"
            )
        worker = min(idle, key=lambda w: (w.busy_until_ms, w.index))
        worker.checked_out = True
        return worker

    def checkout_lane(self, index: int) -> PoolWorker:
        """Check out one *specific* idle lane (targeted probes and
        tests want a particular lane, not the least-busy one)."""
        if self._closed:
            raise SessionClosedError("session pool is closed")
        if not 0 <= index < self.size:
            raise QuotaExceededError(
                f"lane {index} out of range [0, {self.size})"
            )
        worker = self.workers[index]
        if worker.checked_out:
            raise QuotaExceededError(
                f"worker {index} is already checked out"
            )
        worker.checked_out = True
        return worker

    def checkin(self, worker: PoolWorker) -> None:
        """Return a checked-out lane to the pool."""
        if worker not in self.workers:
            raise QuotaExceededError(
                f"worker {worker.index} does not belong to this pool"
            )
        if not worker.checked_out:
            raise QuotaExceededError(
                f"worker {worker.index} is not checked out"
            )
        worker.checked_out = False

    # ------------------------------------------------------------------
    # Warm standby
    # ------------------------------------------------------------------

    def replace_session(self, worker: PoolWorker) -> int:
        """Swap a fresh session into ``worker``'s slot (the self-healing
        plane's warm standby).

        Ordering is the capacity guarantee: the replacement is fully
        constructed *before* the old session is closed, so at no instant
        does the pool hold fewer than ``size`` live sessions.  The
        standby takes over the retired session's injector — its
        per-kind event counters and fired log — so a sustained fault
        plan keeps draining across the swap instead of restarting — and
        its dead rungs, so it never re-pays a genuine capacity OOM.
        Returns the lane's new generation number.
        """
        if self._closed:
            raise SessionClosedError("session pool is closed")
        if worker not in self.workers:
            raise QuotaExceededError(
                f"worker {worker.index} does not belong to this pool"
            )
        old = worker.session
        standby = self._session(worker.index)
        standby.injector = old.injector
        standby.dead_rungs = set(old.dead_rungs)
        worker.session = standby
        worker.generation += 1
        old.close()
        return worker.generation

    def build_spare(self) -> PoolWorker:
        """A warm-standby lane *outside* the pool (index ``size``): the
        hedging plane's dedicated replica.

        Never registered in :attr:`workers` and never dispatched a
        primary request.  That isolation is load-bearing: the simulated
        device allocator bumps addresses monotonically and the frontier
        memo keys on them, so even one extra query on an active lane
        would shift that lane's warm state and break the healthy-path
        bit-identity contract.  Built clean — no injector, no fault
        plan — so the hedge leg is the known-good replica of the served
        query.
        """
        if self._closed:
            raise SessionClosedError("session pool is closed")
        return PoolWorker(index=self.size, session=self._session(self.size))

    @property
    def idle_at_ms(self) -> float:
        """Earliest simulated time at which some lane is free."""
        return min(w.busy_until_ms for w in self.workers)
