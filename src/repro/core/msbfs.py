"""Multi-source wave BFS (MSBFS): one traversal pass serves many sources.

Every query in :func:`repro.core.multi.run_batch` and the serving layer
used to be one full traversal — N sources meant N edge expansions, N
``TracePlan`` builds and N cache passes over largely the same topology.
The iBFS line of work and GraphBLAST's linear-algebra framing both make
the same observation: level-synchronous BFS from ``w <= 64`` sources is
*one* traversal over a bit-packed frontier, where each vertex carries a
``uint64`` lane mask (bit ``i`` set = "vertex is in source ``i``'s
current frontier") and an edge propagates its source's whole mask with a
single ``OR`` — the warp-ballot idiom lifted to the frontier itself.

:func:`run_wave` is a thin driver: the wave is a *payload* over the
session's one traversal loop (:meth:`EngineSession._traverse
<repro.core.session.EngineSession._traverse>`), the loop a sequential
query runs.  It reuses the session's resident topology, caches, UM state
and frontier memo (wave memo entries carry a ``wave_lanes`` key
component so they never collide with sequential entries), and pays the
same per-placement topology traffic as a query — UM faults, zero-copy
and direct-access PCIe reads, over dense words or compressed payload
bytes.  Each wave iteration performs exactly **one** ``actSet2virt``
transform, **one** edge expansion, **one** ``TracePlan`` build (at most
one sort) and **one** cache/coalescing pass — for all lanes at once.
Only the payload differs: the kernel's gathered operand is the 8-byte
lane mask instead of the 4-byte label, the step ORs masks instead of
reducing labels, and the cost model sees exactly that.

Exactness contract: the per-source levels a wave produces are
**bit-identical** to running each source through
:meth:`EngineSession.query` sequentially.  BFS levels are small exact
integers in float32, a vertex's level is the first iteration whose
frontier reaches it, and lane propagation is a pure OR-reduce — no lane
can observe another lane's state, so the union schedule changes nothing
per source.  ``tests/test_msbfs.py`` and the ``etagraph-msbfs``
differential engine gate this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import get_problem
from repro.core.session import EngineSession
from repro.core.stats import TraversalStats
from repro.errors import ConfigError, InvalidLaunchError
from repro.gpu.profiler import Profiler
from repro.gpu.timeline import Timeline

# Re-exported for perfbench/layers.py, whose import sites name them here.
from repro.core.udc import degree_cut  # noqa: F401
from repro.gpu.kernel import (  # noqa: F401
    simulate_streaming_kernel, simulate_vertex_kernel,
)
from repro.gpu.transfer import d2h_copy, h2d_copy  # noqa: F401
from repro.utils.ragged import ragged_gather_indices  # noqa: F401
from repro.utils.sorting import sorted_unique  # noqa: F401

#: Lane capacity of one wave: one bit per source in a uint64 mask.
WAVE_LANES = 64

_ONE = np.uint64(1)


@dataclass
class WaveResult:
    """Outcome of one MSBFS wave: per-source levels + the shared
    measurement record of the single fused traversal."""

    #: The wave's sources, lane ``i`` = ``sources[i]``.
    sources: np.ndarray
    #: ``(width, num_vertices)`` float32 — row ``i`` is bit-identical to
    #: ``session.query("bfs", sources[i]).labels``.
    levels: np.ndarray
    total_ms: float
    kernel_ms: float
    transfer_ms: float
    d2h_ms: float
    setup_ms: float
    stats: TraversalStats
    timeline: Timeline
    profiler: Profiler
    config: object
    oversubscribed: bool = False
    trace: object | None = None
    extras: dict = field(default_factory=dict)

    @property
    def width(self) -> int:
        return len(self.sources)

    @property
    def iterations(self) -> int:
        return self.stats.num_iterations

    @property
    def query_ms(self) -> float:
        return self.total_ms - self.setup_ms

    def labels_for(self, lane: int) -> np.ndarray:
        """Source ``lane``'s BFS levels (a fresh float32 copy)."""
        return self.levels[lane].copy()

    def to_results(self) -> list:
        """Per-source :class:`~repro.core.engine.TraversalResult` views.

        The wave's cost is *shared*: each synthesized result carries an
        even ``1/width`` slice of the wave's query time (setup rides on
        lane 0, mirroring ``run_batch``'s first-query accounting), and
        all lanes share the wave's stats/timeline/profiler objects.
        Labels are exact per source; timings are an attribution, which
        is what batch amortization accounting needs.
        """
        from repro.core.engine import TraversalResult

        width = self.width
        share = self.query_ms / width
        out = []
        for lane, source in enumerate(self.sources):
            out.append(TraversalResult(
                labels=self.labels_for(lane),
                source=int(source),
                problem_name="bfs",
                total_ms=share + (self.setup_ms if lane == 0 else 0.0),
                kernel_ms=self.kernel_ms / width,
                transfer_ms=self.transfer_ms / width,
                d2h_ms=self.d2h_ms / width,
                stats=self.stats,
                timeline=self.timeline,
                profiler=self.profiler,
                config=self.config,
                device_bytes=self.extras.get("device_bytes", 0),
                um_bytes=self.extras.get("um_bytes", 0),
                oversubscribed=self.oversubscribed,
                setup_ms=self.setup_ms if lane == 0 else 0.0,
                trace=self.trace if lane == 0 else None,
                extras={
                    "wave": True,
                    "wave_width": width,
                    "wave_lane": lane,
                    "wave_iterations": self.iterations,
                },
            ))
        return out

    def __repr__(self) -> str:
        return (
            f"WaveResult({self.width} sources, {self.iterations} iters, "
            f"{self.total_ms:.3f} ms)"
        )


def _validate_sources(session: EngineSession, sources) -> np.ndarray:
    sources = np.asarray(sources, dtype=np.int64).ravel()
    if len(sources) == 0:
        raise ConfigError("empty wave: at least one source required")
    if len(sources) > WAVE_LANES:
        raise ConfigError(
            f"wave width {len(sources)} exceeds the {WAVE_LANES}-lane "
            "mask capacity; chunk sources into waves "
            "(run_batch(strategy='wave') does this)"
        )
    n = session.csr.num_vertices
    bad = sources[(sources < 0) | (sources >= n)]
    if len(bad):
        raise InvalidLaunchError(
            f"wave source {int(bad[0])} out of range [0, {n})"
        )
    return sources


class _LaneMasks:
    """What a wave propagates over the session's traversal loop
    (:meth:`EngineSession._traverse`): one ``uint64`` lane mask per
    vertex, OR-propagated along every edge, plus per-lane levels."""

    span = "wave_query"
    buffer = "wave-masks"
    can_pull = False

    def __init__(self, sources: np.ndarray):
        width = len(sources)
        self.problem = get_problem("bfs")
        self.name = f"msbfs wave ({width} sources)"
        self.lanes = width
        self.sources = sources
        self.attrs = {"problem": "msbfs", "sources": width}
        self.meta = {"problem": "msbfs", "sources": str(width)}

    def place(self, session: EngineSession):
        n = session.csr.num_vertices
        masks_host = np.zeros(n, dtype=np.uint64)
        self.levels = np.full((self.lanes, n), np.inf, dtype=np.float32)
        for lane, source in enumerate(self.sources):
            masks_host[source] |= _ONE << np.uint64(lane)
            self.levels[lane, source] = 0.0
        arr = session._operand_buffer("_wave_masks_arr", "wave_masks",
                                      masks_host)
        self.mask = arr.data
        self.visited = self.mask.copy()
        return arr

    def seeds(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def pulls(self, active, offsets) -> bool:
        return False

    def step(self, entry, active, iteration: int):
        # One OR-propagation for all lanes.
        mask = self.mask
        visited = self.visited
        nbr = entry.nbr
        dests = entry.dests
        masks_per_edge = np.repeat(mask[entry.ids64], entry.shadows.degrees)
        fresh_per_edge = masks_per_edge & ~visited[nbr]
        attempted = int(np.count_nonzero(fresh_per_edge))

        delta = np.zeros(len(mask), dtype=np.uint64)
        np.bitwise_or.at(delta, nbr, masks_per_edge)
        new_bits = delta & ~visited
        changed = dests[new_bits[dests] != 0]

        if len(changed):
            level = np.float32(iteration + 1)
            changed_bits = new_bits[changed]
            union = np.bitwise_or.reduce(changed_bits)
            for lane in range(self.lanes):
                bit = _ONE << np.uint64(lane)
                if not union & bit:
                    continue
                self.levels[lane, changed[(changed_bits & bit) != 0]] = level
            visited[changed] |= changed_bits

        # The device mask buffer now holds the *next* frontier's lanes.
        mask[active] = 0
        if len(changed):
            mask[changed] = new_bits[changed]
        return attempted, changed, len(changed)

    def done(self) -> bool:
        return False


def run_wave(
    session: EngineSession,
    sources,
    *,
    max_iterations: int | None = None,
) -> WaveResult:
    """Run BFS from up to 64 sources as one bit-packed wave traversal.

    The wave rides ``session``'s resident topology and frontier memo.
    Per-source levels are bit-identical to sequential
    :meth:`EngineSession.query` BFS runs; the cost record covers the
    single fused traversal.  ``max_iterations`` bounds the *wave's*
    iteration count (the union frontier converges when the deepest lane
    does), mapping to :class:`~repro.errors.ConvergenceError` exactly
    like a sequential query.
    """
    session._check_open()
    sources = _validate_sources(session, sources)
    payload = _LaneMasks(sources)
    session._check_request(payload.problem, max_iterations)
    run = session._traverse(payload, max_iterations)
    session.queries_served += len(sources)
    return WaveResult(
        sources=sources,
        levels=payload.levels,
        extras={
            "smp_effective": session._smp,
            "threads_per_block": session._threads_per_block,
            "device_bytes": session.memory.device_bytes_in_use,
            "um_bytes": session.memory.um_bytes_allocated,
        },
        **run,
    )


def wave_chunks(sources: np.ndarray, width: int = WAVE_LANES) -> list[np.ndarray]:
    """Split a source batch into consecutive waves of at most ``width``
    lanes (the final wave may be ragged)."""
    if width < 1 or width > WAVE_LANES:
        raise ConfigError(
            f"wave width must be in [1, {WAVE_LANES}], got {width}"
        )
    sources = np.asarray(sources, dtype=np.int64)
    return [sources[i:i + width] for i in range(0, len(sources), width)]
