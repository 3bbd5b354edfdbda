"""Tests for the cache models, including cross-validation of the
reuse-window approximation against the exact LRU oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.cache import (
    CacheHierarchy,
    ExactLRUCache,
    ReplaySummary,
    ReuseWindowCache,
)
from repro.gpu.device import GTX_1080TI


class TestReuseWindow:
    def test_first_access_misses(self):
        c = ReuseWindowCache(window=10)
        assert not c.access(np.array([5]))[0]

    def test_immediate_reuse_hits(self):
        c = ReuseWindowCache(window=10)
        hits = c.access(np.array([5, 5]))
        assert list(hits) == [False, True]

    def test_reuse_beyond_window_misses(self):
        c = ReuseWindowCache(window=3)
        stream = np.array([1, 2, 3, 4, 1])  # distance 4 > window 3
        hits = c.access(stream)
        assert not hits[-1]

    def test_reuse_within_window_hits(self):
        c = ReuseWindowCache(window=4)
        hits = c.access(np.array([1, 2, 3, 4, 1]))
        assert hits[-1]

    def test_state_persists_across_batches(self):
        c = ReuseWindowCache(window=10)
        c.access(np.array([7]))
        assert c.access(np.array([7]))[0]

    def test_duplicates_within_batch(self):
        c = ReuseWindowCache(window=2)
        hits = c.access(np.array([9, 0, 9, 0, 9]))
        assert list(hits) == [False, False, True, True, True]

    def test_hit_rate_counter(self):
        c = ReuseWindowCache(window=10)
        c.access(np.array([1, 1, 1, 1]))
        assert c.hit_rate == 0.75

    def test_reset(self):
        c = ReuseWindowCache(window=10)
        c.access(np.array([3]))
        c.reset()
        assert not c.access(np.array([3]))[0]
        assert c.accesses == 1

    def test_negative_sector_rejected(self):
        c = ReuseWindowCache(window=4)
        with pytest.raises(ValueError):
            c.access(np.array([-1]))

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ReuseWindowCache(window=0)

    def test_empty_batch(self):
        c = ReuseWindowCache(window=4)
        assert len(c.access(np.empty(0, dtype=np.int64))) == 0

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300),
           st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_matches_sequential_reference(self, stream, window):
        """The vectorized batch result must equal element-at-a-time
        processing (the definition of the model)."""
        batch = ReuseWindowCache(window)
        got = batch.access(np.array(stream))
        seq = ReuseWindowCache(window)
        expected = [bool(seq.access(np.array([s]))[0]) for s in stream]
        assert list(got) == expected

    def test_fully_associative_equivalence(self):
        """With distinct-sector streams, reuse distance == stack distance,
        so the window model matches a fully-associative LRU of the same
        line count."""
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 64, size=2000)
        window = 32
        approx = ReuseWindowCache(window)
        # Fully associative LRU: one set, `window` ways.
        exact = ExactLRUCache(window * 32, line_bytes=32, ways=window)
        a = approx.access(stream)
        e = exact.access(stream)
        # Not identical (duplicates shrink true stack distance), but the
        # approximation must track closely on uniform traffic.
        assert abs(a.mean() - e.mean()) < 0.1


class TestExactLRU:
    def test_basic_hit(self):
        c = ExactLRUCache(1024, ways=4)
        c.access(np.array([1]))
        assert c.access(np.array([1]))[0]

    def test_eviction_order(self):
        # One set of 2 ways: fill with stride num_sets to land in set 0.
        c = ExactLRUCache(2 * 32, ways=2)
        assert c.num_sets == 1
        c.access(np.array([0, 1]))
        c.access(np.array([2]))  # evicts 0
        assert not c.access(np.array([0]))[0]
        assert c.access(np.array([2]))[0]

    def test_lru_refresh_on_hit(self):
        c = ExactLRUCache(2 * 32, ways=2)
        c.access(np.array([0, 1, 0]))  # 0 refreshed -> 1 is LRU
        c.access(np.array([2]))  # evicts 1
        assert c.access(np.array([0]))[0]
        assert not c.access(np.array([1]))[0]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ExactLRUCache(32, ways=8)


class TestHierarchy:
    def test_l1_hit_does_not_reach_l2(self):
        h = CacheHierarchy(GTX_1080TI)
        h.access(np.array([1]))
        r = h.access(np.array([1]))
        assert r.unified_hits == 1
        assert r.l2_accesses == 0
        assert r.dram_transactions == 0

    def test_cold_miss_goes_to_dram(self):
        h = CacheHierarchy(GTX_1080TI)
        r = h.access(np.arange(100) * 10_000)
        assert r.unified_hits == 0
        assert r.l2_accesses == 100
        assert r.dram_transactions == 100
        assert r.dram_bytes == 3200

    def test_l2_larger_than_l1(self):
        h = CacheHierarchy(GTX_1080TI)
        assert h.l2.window > h.unified.window

    def test_reset(self):
        h = CacheHierarchy(GTX_1080TI)
        h.access(np.array([1, 1]))
        h.reset()
        r = h.access(np.array([1]))
        assert r.unified_hits == 0


# ----------------------------------------------------------------------
# Adversarial streams: batch-split invariance and agreement with the
# exact LRU oracle (PR 3's fast stable-order path must not change either)
# ----------------------------------------------------------------------

def _duplicate_heavy_stream(rng, n, n_sectors):
    """A stream dominated by repeats: a few hot sectors plus noise."""
    hot = rng.integers(0, max(n_sectors // 16, 1), size=n)
    cold = rng.integers(0, n_sectors, size=n)
    take_hot = rng.random(n) < 0.7
    return np.where(take_hot, hot, cold).astype(np.int64)


class TestBatchSplitInvariance:
    """One access() call vs the same stream cut into arbitrary batches:
    the persistent last-access table must hand reuse across the cut."""

    @pytest.mark.parametrize("seed", range(5))
    def test_split_anywhere_same_hits(self, seed):
        rng = np.random.default_rng(seed)
        stream = _duplicate_heavy_stream(rng, 600, 300)
        whole = ReuseWindowCache(window=64)
        hits_whole = whole.access(stream)
        cuts = sorted(rng.integers(1, len(stream), size=3))
        split = ReuseWindowCache(window=64)
        parts = np.split(stream, cuts)
        hits_split = np.concatenate([split.access(p) for p in parts])
        assert np.array_equal(hits_whole, hits_split)
        assert whole.hits == split.hits

    def test_cross_batch_reuse_straddles_calls(self):
        c = ReuseWindowCache(window=8)
        assert list(c.access(np.array([7, 7, 3]))) == [False, True, False]
        # 3 was last touched one access ago, 7 two accesses ago: both
        # within the window even though the batch boundary intervened.
        assert list(c.access(np.array([3, 7]))) == [True, True]

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=120),
           st.integers(1, 119))
    @settings(max_examples=50, deadline=None)
    def test_property_split_invariance(self, values, cut):
        stream = np.array(values, dtype=np.int64)
        cut = min(cut, len(stream))
        a, b = ReuseWindowCache(16), ReuseWindowCache(16)
        whole = a.access(stream)
        split = np.concatenate([b.access(stream[:cut]),
                                b.access(stream[cut:])])
        assert np.array_equal(whole, split)


class TestReuseWindowVsExactLRU:
    """Reuse distance *in accesses* upper-bounds LRU stack distance, so
    with window == line count every reuse-window hit must also hit in a
    fully-associative exact LRU of the same capacity — including across
    access() boundaries and under heavy duplication."""

    def _agree(self, stream, lines, batches=1):
        rw = ReuseWindowCache(window=lines)
        lru = ExactLRUCache(
            capacity_bytes=lines * 32, line_bytes=32, ways=lines
        )
        rw_hits = []
        lru_hits = []
        for part in np.array_split(stream, batches):
            if len(part) == 0:
                continue
            rw_hits.append(rw.access(part))
            lru_hits.append(lru.access(part))
        rw_hits = np.concatenate(rw_hits)
        lru_hits = np.concatenate(lru_hits)
        # Containment: reuse-window is a conservative LRU.
        assert not np.any(rw_hits & ~lru_hits)
        return rw_hits, lru_hits

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("batches", [1, 7])
    def test_hits_contained_in_exact_lru(self, seed, batches):
        rng = np.random.default_rng(seed)
        stream = _duplicate_heavy_stream(rng, 800, 500)
        self._agree(stream, lines=64, batches=batches)

    def test_exact_agreement_on_distinct_line_streams(self):
        # When every access in the window touches a distinct line the
        # reuse distance equals the stack distance: the models coincide.
        stream = np.concatenate([np.arange(32), np.arange(32)])
        rw_hits, lru_hits = self._agree(stream, lines=64)
        assert np.array_equal(rw_hits, lru_hits)
        assert list(rw_hits[:32]) == [False] * 32
        assert list(rw_hits[32:]) == [True] * 32

    def test_duplicate_heavy_single_sector(self):
        stream = np.zeros(100, dtype=np.int64)
        rw_hits, lru_hits = self._agree(stream, lines=8, batches=5)
        assert np.array_equal(rw_hits, lru_hits)
        assert rw_hits.sum() == 99


# ----------------------------------------------------------------------
# Tail state and O(window) plan replay against the last-access table
# ----------------------------------------------------------------------

class _LastTableCache:
    """Reference reuse-window cache: an address-space-sized table of
    each sector's last access time (the model's original form)."""

    _NEVER = -(1 << 62)

    def __init__(self, window):
        self.window = window
        self._last = np.empty(0, dtype=np.int64)
        self._clock = 0
        self.accesses = 0
        self.hits = 0

    def access(self, sectors):
        sectors = np.asarray(sectors, dtype=np.int64)
        n = len(sectors)
        if n == 0:
            return np.zeros(0, dtype=bool)
        top = int(sectors.max())
        if top >= len(self._last):
            grown = np.full(top + 1, self._NEVER, dtype=np.int64)
            grown[: len(self._last)] = self._last
            self._last = grown
        positions = self._clock + np.arange(n, dtype=np.int64)
        order = np.argsort(sectors, kind="stable")
        ordered = sectors[order]
        prev_sorted = self._last[ordered]
        same = np.zeros(n, dtype=bool)
        same[1:] = ordered[1:] == ordered[:-1]
        prev_sorted[same] = (self._clock + order)[:-1][same[1:]]
        prev = np.empty(n, dtype=np.int64)
        prev[order] = prev_sorted
        hits = (positions - prev) <= self.window
        self._last[sectors] = positions
        self._clock += n
        self.accesses += n
        self.hits += int(hits.sum())
        return hits

    def reset(self):
        self._last.fill(self._NEVER)
        self._clock = 0
        self.accesses = 0
        self.hits = 0


class _Plan:
    """The two TracePlan attributes the hierarchy reads."""

    def __init__(self, stream):
        self.stream = np.asarray(stream, dtype=np.int64)
        self.replays = {}


def _hierarchy(w1, w2):
    h = CacheHierarchy(GTX_1080TI)
    h.unified, h.l2 = ReuseWindowCache(w1), ReuseWindowCache(w2)
    return h


def _reference_access(l1, l2, sectors):
    sectors = np.asarray(sectors, dtype=np.int64)
    l1_hits = l1.access(sectors)
    l2_hits = l2.access(sectors[~l1_hits])
    return (len(sectors), int(l1_hits.sum()), int((~l1_hits).sum()),
            int(l2_hits.sum()), int((~l2_hits).sum()))


def _fields(r):
    return (r.accesses, r.unified_hits, r.l2_accesses, r.l2_hits,
            r.dram_transactions)


_sector_lists = st.lists(st.integers(0, 80), min_size=1, max_size=160)


class TestTailStateAndReplay:
    @given(st.integers(1, 60), st.lists(_sector_lists, min_size=1,
                                        max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_tail_cache_matches_last_table(self, window, batches):
        tail, ref = ReuseWindowCache(window), _LastTableCache(window)
        for batch in batches:
            assert np.array_equal(tail.access(np.array(batch)),
                                  ref.access(np.array(batch)))
            assert len(tail.tail) <= window
        assert (tail.accesses, tail.hits) == (ref.accesses, ref.hits)

    @given(
        st.integers(1, 48), st.integers(1, 96),
        st.lists(_sector_lists, min_size=1, max_size=3),
        st.lists(st.one_of(st.integers(0, 2), _sector_lists,
                           st.just("reset")),
                 min_size=1, max_size=14),
    )
    @settings(max_examples=120, deadline=None)
    def test_replay_tail_and_reference_agree(self, w1, w2, streams, ops):
        """Plan streams shorter and longer than both windows, repeated
        (so summaries are built and replayed) and interleaved with raw
        streams and resets: the replaying hierarchy, the plain tail-state
        hierarchy and the last-access-table reference stay identical."""
        plans = [_Plan(s) for s in streams]
        replay, plain = _hierarchy(w1, w2), _hierarchy(w1, w2)
        l1, l2 = _LastTableCache(w1), _LastTableCache(w2)
        for op in ops:
            if op == "reset":
                for c in (replay, plain, l1, l2):
                    c.reset()
                continue
            if isinstance(op, int):
                plan = plans[op % len(plans)]
                sectors, got = plan.stream, replay.access(plan.stream,
                                                          plan=plan)
            else:
                sectors = np.array(op, dtype=np.int64)
                got = replay.access(sectors)
            want = _reference_access(l1, l2, sectors)
            assert _fields(got) == want
            assert _fields(plain.access(sectors)) == want
            for a, b in ((replay.unified, plain.unified),
                         (replay.l2, plain.l2)):
                assert np.array_equal(a.tail, b.tail)
                assert (a.accesses, a.hits) == (b.accesses, b.hits)
        assert (replay.unified.hits, replay.l2.hits) == (l1.hits, l2.hits)

    @pytest.mark.parametrize("w1,w2", [(64, 128), (100, 60), (32, 512)])
    def test_replay_exact_with_nonzero_static_parts(self, w1, w2):
        """Long streams whose summaries carry static L1 *and* L2 hits,
        replayed between raw streams against the reference."""
        rng = np.random.default_rng(w1 + w2)
        plans = [_Plan(_duplicate_heavy_stream(rng, 3000, 1500))
                 for _ in range(2)]
        h = _hierarchy(w1, w2)
        l1, l2 = _LastTableCache(w1), _LastTableCache(w2)
        for i in range(8):
            plan = plans[i % 2]
            assert _fields(h.access(plan.stream, plan=plan)) == \
                _reference_access(l1, l2, plan.stream)
            raw = rng.integers(0, 1500, size=50)
            assert _fields(h.access(raw)) == _reference_access(l1, l2, raw)
        for plan in plans:
            summary = plan.replays[(w1, w2)]
            assert summary.l1_hits > 0 and summary.l2_hits > 0
            assert summary.l2_len > w2

    def test_summary_built_on_second_use_then_replayed(self):
        rng = np.random.default_rng(3)
        plan = _Plan(rng.integers(0, 400, size=2000))
        h = _hierarchy(64, 128)
        h.access(plan.stream, plan=plan)
        assert plan.replays == {(64, 128): None}
        h.access(plan.stream, plan=plan)
        summary = plan.replays[(64, 128)]
        assert isinstance(summary, ReplaySummary)
        assert summary.nbytes > 0
        h.access(plan.stream, plan=plan)
        assert plan.replays[(64, 128)] is summary

    def test_short_plan_stream_takes_general_path(self):
        plan = _Plan(np.arange(64))
        h = _hierarchy(64, 128)
        for _ in range(3):
            h.access(plan.stream, plan=plan)
        assert plan.replays == {}


class TestSectorBytes:
    def test_dram_bytes_use_spec_sector_size(self):
        spec = dataclasses.replace(GTX_1080TI, sector_bytes=64)
        r = CacheHierarchy(spec).access(np.arange(100) * 10_000)
        assert r.dram_transactions == 100
        assert r.dram_bytes == 6400

