"""Euclidean scoring between descriptors and linear nearest-structure search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .featuredb import FeatureStore
from .features import FeatureVector

# rows per distance block; 64 was the fastest of 8 to 1024 rows on a
# 5000 x 1024 store (2-core x86-64 VM, one BLAS thread)
_BLOCK = 64


class LengthMismatchError(ValueError):
    """Scored vectors must have equal length."""


@dataclass(frozen=True)
class ScoreResult:
    """One ranked hit from a database search."""

    query_id: str
    target_id: str
    distance: float


def _values(f) -> np.ndarray:
    if isinstance(f, FeatureVector):
        return f.values
    return np.asarray(f, dtype=np.float64)


def score(fq, fi) -> float:
    """Euclidean distance between two descriptors (lower means more similar).

    Accepts :class:`FeatureVector` or plain arrays.  Runs in O(length),
    independent of the size of the original proteins.
    """
    a = _values(fq)
    b = _values(fi)
    if a.shape != b.shape:
        raise LengthMismatchError(f"vector shapes differ: {a.shape} vs {b.shape}")
    d = a - b
    return math.sqrt(float(np.dot(d, d)))


def _distances(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``score()`` of every row of ``matrix`` against ``q``, bit for bit.

    numpy evaluates each (1, n) @ (n, 1) core of the stacked matmul with
    the same dot loop as ``np.dot`` on two 1-D arrays, so every distance
    equals ``score()``; ``(d * d).sum(axis=1)`` and ``einsum`` add in
    another order and do not.
    """
    out = np.empty(len(matrix))
    for s in range(0, len(matrix), _BLOCK):
        d = matrix[s : s + _BLOCK] - q
        np.matmul(d[:, None, :], d[:, :, None], out=out[s : s + _BLOCK, None, None])
    return np.sqrt(out, out=out)


def search(db, query, k: int) -> list[ScoreResult]:
    """Rank a database against a query, ascending by score.

    ``db`` is a :class:`FeatureStore` or a list of :class:`FeatureVector`.
    Ties are broken by target id (lexicographic).  Returns the first
    min(k, len(db)) hits, with distances equal to :func:`score`.
    """
    if not len(db):
        raise ValueError("search database is empty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not isinstance(db, FeatureStore):
        db = FeatureStore(db)
    ids, matrix = db.ids(), db.matrix
    q = _values(query)
    if matrix.shape[1:] != q.shape:
        raise LengthMismatchError(f"vector shapes differ: {matrix.shape[1:]} vs {q.shape}")
    dist = _distances(matrix, q)
    # Every entry tied with the k-th smallest distance stays a candidate,
    # so the exact (distance, id) sort below ranks ties as a full sort
    # would.  NaN has no order, so then all entries are sorted as given.
    if k < len(dist) and not np.isnan(dist).any():
        kth = np.partition(dist, k - 1)[k - 1]
        cand = np.flatnonzero(dist <= kth)
    else:
        cand = np.arange(len(dist))
    ranked = sorted(zip(dist[cand].tolist(), [ids[c] for c in cand]))
    qid = getattr(query, "id", "")
    return [
        ScoreResult(query_id=qid, target_id=tid, distance=d)
        for d, tid in ranked[:k]
    ]
