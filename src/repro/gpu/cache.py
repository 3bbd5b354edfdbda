"""Cache models: a vectorized reuse-window LRU approximation (the
simulator's hot path) and an exact set-associative LRU (its validation
oracle on small traces).

Section V-A of the paper explains why graph traversal sees poor cache
behaviour on GPUs: per-warp cache shares are a few hundred bytes, so lines
are evicted before reuse (they measure ~19% L2 read hit rate for Tigr).
The reuse-window model captures exactly that mechanism: an access hits iff
the same sector was touched within the last ``window`` accesses, where the
window is the cache's sector capacity shrunk by a contention factor
standing in for the thousands of concurrently resident warps.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.utils.sorting import stable_argsort


class ReuseWindowCache:
    """Approximate LRU: hit iff the sector recurs within ``window`` accesses.

    The reuse *distance in accesses* is a standard surrogate for the LRU
    stack distance; it is exact when every access touches a distinct line
    and optimistic otherwise, which the contention divisor compensates
    for.  The model's whole state is its last ``window`` accesses (older
    ones can never produce a hit), kept as a ``tail`` of sector ids.
    Fully vectorized: one stable argsort over ``tail + batch``.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self.tail = np.empty(0, dtype=np.int64)
        self.accesses = 0
        self.hits = 0

    def access(self, sectors: np.ndarray) -> np.ndarray:
        """Process an access stream; returns a boolean hit mask."""
        sectors = np.asarray(sectors, dtype=np.int64)
        n = len(sectors)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if sectors.min() < 0:
            raise ValueError("negative sector id")
        t = len(self.tail)
        stream = np.concatenate((self.tail, sectors)) if t else sectors
        # A stable sort keeps equal sectors in stream order, so each
        # element's left neighbour in sorted order is its previous
        # occurrence; it hits when that lies <= window positions back.
        order = stable_argsort(stream)
        ordered = stream[order]
        hit_sorted = np.empty(len(stream), dtype=bool)
        hit_sorted[0] = False
        np.equal(ordered[1:], ordered[:-1], out=hit_sorted[1:])
        hit_sorted[1:] &= (order[1:] - order[:-1]) <= self.window
        hits_all = np.empty(len(stream), dtype=bool)
        hits_all[order] = hit_sorted
        hits = hits_all[t:]
        self.tail = stream[-self.window:].copy()
        self.accesses += n
        self.hits += int(hits.sum())
        return hits

    def fast_forward(self, accesses: int, hits: int, tail: np.ndarray) -> None:
        """Account for ``accesses`` further accesses whose hit count is
        already known and whose last ``window`` sectors are ``tail``."""
        self.tail = tail
        self.accesses += accesses
        self.hits += hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.tail = np.empty(0, dtype=np.int64)
        self.accesses = 0
        self.hits = 0


class ExactLRUCache:
    """Reference set-associative LRU cache (slow, for tests).

    Models ``capacity_bytes`` of ``line_bytes`` lines with ``ways``-way
    associativity and true per-set LRU replacement.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = 32, ways: int = 8):
        n_lines = capacity_bytes // line_bytes
        if n_lines < ways:
            raise ValueError("cache smaller than one set")
        self.num_sets = n_lines // ways
        self.ways = ways
        self.line_bytes = line_bytes
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.accesses = 0
        self.hits = 0

    def access(self, sectors: np.ndarray) -> np.ndarray:
        sectors = np.asarray(sectors, dtype=np.int64)
        hits = np.zeros(len(sectors), dtype=bool)
        for i, sector in enumerate(sectors):
            s = self._sets[int(sector) % self.num_sets]
            if sector in s:
                s.move_to_end(sector)
                hits[i] = True
            else:
                if len(s) >= self.ways:
                    s.popitem(last=False)
                s[int(sector)] = True
        self.accesses += len(sectors)
        self.hits += int(hits.sum())
        return hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class HierarchyResult:
    """Outcome of routing one access stream through L1 -> L2 -> DRAM."""

    accesses: int
    unified_hits: int
    l2_accesses: int
    l2_hits: int
    dram_transactions: int
    sector_bytes: int = 32

    @property
    def dram_bytes(self) -> int:
        return self.dram_transactions * self.sector_bytes


@dataclass(frozen=True)
class ReplaySummary:
    """What a hierarchy with windows ``(W1, W2)`` needs to replay one
    fixed stream without re-sorting it.

    A reuse-window cache's state is its last ``window`` accesses, so an
    access at stream position ``>= window`` hits or misses regardless of
    what came before the stream.  For a stream ``S`` that leaves only
    ``S[:W1]`` live at L1; of the L1-miss substream past ``W1`` (``sub``)
    only ``sub[:W2]`` is live at L2.  Everything else is stored here:
    static hit counts, ``sub``'s head and length, and both final tails.
    """

    l1_hits: int
    l1_tail: np.ndarray
    l2_head: np.ndarray
    l2_len: int
    l2_hits: int
    l2_tail: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.l1_tail.nbytes + self.l2_head.nbytes + self.l2_tail.nbytes


class CacheHierarchy:
    """Unified cache (L1+texture) in front of the device-wide L2.

    Transactions that miss the unified cache are forwarded to L2;
    L2 misses become DRAM sector reads.  Window sizes derive from the
    device spec's cache capacities shrunk by the contention divisor.
    """

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        sector = spec.sector_bytes
        l1_window = max(64, int(spec.total_unified_cache_bytes / sector
                                / spec.cache_contention))
        l2_window = max(128, int(spec.l2_cache_bytes / sector
                                 / spec.cache_contention))
        self.unified = ReuseWindowCache(l1_window)
        self.l2 = ReuseWindowCache(l2_window)

    def access(self, sectors: np.ndarray, plan=None) -> HierarchyResult:
        """Route ``sectors`` through L1 -> L2.

        ``plan`` is the :class:`~repro.gpu.traceplan.TracePlan` whose
        ``stream`` is ``sectors``, when the caller has one.  Its second
        use builds a :class:`ReplaySummary` (stored on the plan); later
        uses replay it in O(window) instead of O(len(stream)), with
        identical results and cache state.  Streams no longer than the
        L1 window always take the full pass.
        """
        sectors = np.asarray(sectors, dtype=np.int64)
        w1 = self.unified.window
        if plan is None or len(sectors) <= w1:
            return self._access(sectors)[0]
        key = (w1, self.l2.window)
        replays = plan.replays
        summary = replays.get(key)
        if summary is not None:
            return self._replay(sectors, summary)
        result, l1_hits, l2_hits = self._access(sectors)
        if key in replays:
            replays[key] = self._summarize(sectors, l1_hits, l2_hits)
        else:
            replays[key] = None  # first use: one-shot plans pay nothing
        return result

    def _access(self, sectors: np.ndarray):
        l1_hits = self.unified.access(sectors)
        to_l2 = sectors[~l1_hits]
        l2_hits = self.l2.access(to_l2)
        result = self._result(len(sectors), int(l1_hits.sum()), len(to_l2),
                              int(l2_hits.sum()))
        return result, l1_hits, l2_hits

    def _result(self, accesses, l1_hits, l2_accesses, l2_hits):
        return HierarchyResult(
            accesses=accesses,
            unified_hits=l1_hits,
            l2_accesses=l2_accesses,
            l2_hits=l2_hits,
            dram_transactions=l2_accesses - l2_hits,
            sector_bytes=self.spec.sector_bytes,
        )

    def _summarize(self, sectors, l1_hits, l2_hits) -> ReplaySummary:
        """The replay summary, read off one full pass over ``sectors``."""
        w1, w2 = self.unified.window, self.l2.window
        static_l1 = l1_hits[w1:]
        sub = sectors[w1:][~static_l1]
        # L2 saw the live head's misses first, then ``sub``.
        head_misses = w1 - int(l1_hits[:w1].sum())
        l2_head = sub[:w2].copy()
        return ReplaySummary(
            l1_hits=int(static_l1.sum()),
            l1_tail=sectors[-w1:].copy(),
            l2_head=l2_head,
            l2_len=len(sub),
            l2_hits=int(l2_hits[head_misses + w2:].sum()),
            l2_tail=sub[-w2:].copy() if len(sub) > w2 else sub[:0],
        )

    def _replay(self, sectors, s: ReplaySummary) -> HierarchyResult:
        w1 = self.unified.window
        head = sectors[:w1]
        head_hits = self.unified.access(head)
        self.unified.fast_forward(len(sectors) - w1, s.l1_hits, s.l1_tail)
        to_l2 = np.concatenate((head[~head_hits], s.l2_head))
        l2_hits = int(self.l2.access(to_l2).sum())
        if s.l2_len > len(s.l2_head):
            self.l2.fast_forward(s.l2_len - len(s.l2_head), s.l2_hits,
                                 s.l2_tail)
            l2_hits += s.l2_hits
        head_misses = len(to_l2) - len(s.l2_head)
        return self._result(len(sectors), w1 - head_misses + s.l1_hits,
                            head_misses + s.l2_len, l2_hits)

    def reset(self) -> None:
        self.unified.reset()
        self.l2.reset()
