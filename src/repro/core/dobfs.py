"""Direction-optimized BFS (Beamer et al., SC'12) on EtaGraph machinery.

The paper cites direction-optimizing BFS as the classic algorithm-level
optimization for traversal; this module provides it as an extension:
when the frontier grows past a threshold, iterations switch from *push*
(top-down, UDC shadow vertices over out-edges) to *pull* (bottom-up:
every unvisited vertex scans its in-edges and adopts a parent from the
frontier, exiting at the first hit).

:func:`direction_optimized_bfs` is a thin driver, a session of one like
:meth:`~repro.core.engine.EtaGraphEngine.run`: its payload rides
:meth:`EngineSession._traverse <repro.core.session.EngineSession._traverse>`,
the loop queries and MSBFS waves share, so the hybrid honours
``memory_mode``, the fault injector and telemetry, and its push
iterations are exactly a query's.  Pull iterations read the CSC, which
the session places once next to the CSR — the extra memory is the price
of the hybrid, and :class:`DOBFSResult` reports it.

The switch heuristic is Beamer's: pull when the frontier's out-edge
count exceeds ``|E| / alpha``; push again when the frontier shrinks
below ``|V| / beta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import get_problem
from repro.core.config import EtaGraphConfig
from repro.core.session import EngineSession, _LabelPayload
from repro.errors import ConfigError, InvalidLaunchError
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.gpu.profiler import Profiler
from repro.graph.csr import CSRGraph


@dataclass
class DOBFSResult:
    """BFS levels plus the hybrid's execution record."""

    labels: np.ndarray
    source: int
    iterations: int
    total_ms: float
    kernel_ms: float
    #: "push" / "pull" per iteration.
    directions: list[str] = field(default_factory=list)
    #: Device plus UM bytes (CSR, CSC and working buffers); pinned host
    #: topology under zero-copy and direct access is not counted.
    device_bytes: int = 0
    profiler: Profiler | None = None

    @property
    def pull_iterations(self) -> int:
        return sum(1 for d in self.directions if d == "pull")


class _DirectionPayload(_LabelPayload):
    """BFS labels propagated push or pull, one direction per iteration
    by Beamer's rule."""

    def __init__(self, source: int, alpha: float, beta: float):
        super().__init__(get_problem("bfs"), source, None)
        self.name = "dobfs"
        self.alpha = alpha
        self.beta = beta
        # A frontier's out-edges never exceed |E|, so alpha <= 1 can
        # never pull and the session need not place the CSC.
        self.can_pull = alpha > 1
        self.pulling = False
        self.directions: list[str] = []

    def pulls(self, active, offsets) -> bool:
        frontier_edges = int(
            (offsets[active + 1].astype(np.int64)
             - offsets[active].astype(np.int64)).sum()
        )
        if not self.pulling and frontier_edges > offsets[-1] / self.alpha:
            self.pulling = True
        elif self.pulling and len(active) < (len(offsets) - 1) / self.beta:
            self.pulling = False
        self.directions.append("pull" if self.pulling else "push")
        return self.pulling

    def pull(self, ids, degrees, in_nbrs, iteration: int):
        """Bottom-up step: an unvisited vertex with an in-neighbour on
        level ``iteration`` takes ``iteration + 1``."""
        hit = self.labels[in_nbrs] == iteration
        owner = np.repeat(np.arange(len(ids)), degrees)
        found_local = np.unique(owner[hit])
        found = ids[found_local]
        self.labels[found] = iteration + 1
        self.visited[found] = True
        # Cost: each pull thread scans in-edges until its first hit;
        # threads that find a parent early stop (model: ~35% of their
        # in-degree on average), the rest scan everything.
        scanned = degrees.copy()
        scanned[found_local] = np.maximum(
            1, (scanned[found_local] * 0.35).astype(np.int64)
        )
        return scanned, found


def direction_optimized_bfs(
    csr: CSRGraph,
    source: int,
    *,
    alpha: float = 15.0,
    beta: float = 18.0,
    config: EtaGraphConfig | None = None,
    device: DeviceSpec = GTX_1080TI,
) -> DOBFSResult:
    """Hybrid push/pull BFS from ``source``.

    Returns the same levels as plain BFS; only the execution schedule —
    and hence the simulated cost — differs.
    """
    if alpha <= 0 or beta <= 0:
        raise ConfigError("alpha and beta must be positive")
    if not 0 <= source < csr.num_vertices:
        raise InvalidLaunchError(f"source {source} out of range")
    payload = _DirectionPayload(source, alpha, beta)
    with EngineSession(csr, config, device) as session:
        session._check_request(payload.problem, None)
        run = session._traverse(payload, None)
        return DOBFSResult(
            labels=payload.labels.copy(),
            source=source,
            iterations=run["stats"].num_iterations,
            total_ms=run["total_ms"],
            kernel_ms=run["kernel_ms"],
            directions=payload.directions,
            device_bytes=(session.memory.device_bytes_in_use
                          + session.memory.um_bytes_allocated),
            profiler=run["profiler"],
        )
