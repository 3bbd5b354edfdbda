"""Answer checking for the benchmark.

Each distinct ``(placement, problem, source)`` answer is validated once
with :func:`repro.algorithms.validate.validate_labels`; a repeat must
match the validated labels exactly (compared by a 256-bit BLAKE2b digest
of the label bytes, so the checker keeps no label copies alive and does
not inflate the measured peak memory).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.algorithms import cpu_reference
from repro.algorithms.validate import validate_labels
from repro.core.pagerank import pagerank_reference


def digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=32).digest()


class AnswerChecker:
    """Validated-answer cache shared by every pass of one process."""

    def __init__(self):
        self._labels: dict[tuple, bytes] = {}
        self._levels: dict[int, np.ndarray] = {}
        self._pagerank: dict[tuple, bytes] = {}
        self.validations = 0

    def labels_ok(self, csr, placement: str, problem: str, source: int,
                  labels: np.ndarray) -> bool:
        key = (placement, problem, int(source))
        got = digest(np.ascontiguousarray(labels).tobytes())
        known = self._labels.get(key)
        if known is not None:
            return known == got
        self.validations += 1
        if not validate_labels(csr, labels, source, problem).ok:
            return False
        self._labels[key] = got
        return True

    def bfs_levels(self, csr, source: int) -> np.ndarray:
        """Reference BFS levels, cached per source."""
        levels = self._levels.get(source)
        if levels is None:
            levels = cpu_reference.bfs_levels(csr, source)
            self._levels[source] = levels
        return levels

    def neighborhood_ok(self, csr, source: int, hops: int, value) -> bool:
        levels = self.bfs_levels(csr, source)
        want = np.flatnonzero(np.isfinite(levels) & (levels <= hops))
        return (np.array_equal(value["vertices"], want)
                and np.array_equal(value["levels"],
                                   levels[want].astype(np.int64)))

    def path_ok(self, csr, source: int, target: int, path) -> bool:
        """A minimum-hop path: right ends, real edges, BFS length."""
        levels = self.bfs_levels(csr, source)
        if not np.isfinite(levels[target]) or len(path) == 0:
            return False
        if path[0] != source or path[-1] != target:
            return False
        if len(path) - 1 != int(levels[target]):
            return False
        offsets, cols = csr.row_offsets, csr.column_indices
        return all(v in cols[offsets[u]:offsets[u + 1]]
                   for u, v in zip(path, path[1:]))

    def unreachable_ok(self, csr, source: int, target: int) -> bool:
        return not np.isfinite(self.bfs_levels(csr, source)[target])

    def pagerank_ok(self, csr, damping: float, tolerance: float,
                    ranks: np.ndarray) -> bool:
        """Within the request tolerance of the dense power iteration.

        Delta PageRank stops pushing once every residual is at most
        ``tolerance``; each unit of undistributed residual is worth at
        most ``1 / (1 - damping)`` units of rank, so the L1 error is
        bounded by ``n * tolerance / (1 - damping)``.
        """
        key = (damping, tolerance)
        got = digest(np.ascontiguousarray(ranks).tobytes())
        known = self._pagerank.get(key)
        if known is not None:
            return known == got
        self.validations += 1
        ref = pagerank_reference(csr, damping=damping)
        bound = csr.num_vertices * tolerance / (1.0 - damping)
        if not float(np.abs(ranks - ref).sum()) <= bound:
            return False
        self._pagerank[key] = got
        return True
