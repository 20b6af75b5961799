"""Euclidean scoring between descriptors and exact nearest-structure search."""

from __future__ import annotations

import math

import numpy as np

from .featuredb import FeatureStore
from .features import FeatureVector

# rows per distance block; 64 was the fastest of 8 to 1024 rows on a
# 5000 x 1024 store (2-core x86-64 VM, one BLAS thread)
_BLOCK = 64
# rows in search's first pruned batch (at least k); each next batch doubles
_FIRST_BATCH = 64


class LengthMismatchError(ValueError):
    """Scored vectors must have equal length."""


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


def _distances(db: FeatureStore, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``score()`` of ``rows`` of ``db`` against ``q``, bit for bit.

    The one distance kernel: ``search`` scores its batches with it and
    ``evaluate`` each run of pairs that share their first row.  numpy
    evaluates each (1, n) @ (n, 1) core of the stacked matmul with the
    same BLAS dot as ``np.dot`` on two 1-D arrays, so every distance
    equals ``score()``; ``(d * d).sum(axis=1)`` and ``einsum`` add in
    another order and do not.  Rows are fetched a block at a time with
    :meth:`~comogphog.featuredb.FeatureStore.read_rows` into one reused
    buffer, so a loaded store reads only those rows from its file, and a
    whole scan holds one block of them at a time.
    """
    count = len(rows)
    out = np.empty(count)
    size = min(_BLOCK, count) * q.size
    # on a 64-byte boundary: a whole scan of 5000 rows ran 18% slower on a
    # buffer 16 bytes past one (2-core x86-64 VM), and where malloc puts
    # it depends on what the process freed before
    raw = np.empty(size + 8, dtype="<f8")
    at = -raw.__array_interface__["data"][0] % 64 // 8
    buf = raw[at : at + size].reshape(min(_BLOCK, count), q.size)
    for s in range(0, count, _BLOCK):
        d = buf[: min(_BLOCK, count - s)]
        db.read_rows(rows[s : s + _BLOCK], out=d)
        d -= q
        np.matmul(d[:, None, :], d[:, :, None], out=out[s : s + _BLOCK, None, None])
    return np.sqrt(out, out=out)


def _stop_margin(index, q: np.ndarray) -> tuple[float, float]:
    """``(a, b)``: a row whose bound exceeds ``kth + a * kth + b`` is farther than ``kth``.

    Notation: u = 2**-53, n the vector length, r the index rank, delta the
    index's ``departure`` (``||P P^T - I||_2 <= delta``), d_i the exact
    distance ``||q - m_i||``, dhat_i its computed value and b_i the computed
    bound ``||q' - Z_i||``, with ``q' = P(q - mu)`` and ``Z_i = P(m_i - mu)``
    as rounded.  gamma_j = j u / (1 - j u) bounds a j-term dot product's
    relative error.

    1. P^T P has the nonzero eigenvalues of P P^T, all at most 1 + delta,
       so ``||P(q - m_i)|| <= (1 + delta) d_i``.
    2. Each of the r entries of q' and Z_i is a length-n dot product of a
       rounded difference with a row of P of norm at most sqrt(1 + delta):
       off by at most gamma_{n+1} sqrt(1 + delta) times ``||q - mu||`` or
       ``||m_i - mu|| <= d_i + ||q - mu||``.  Over r entries that is
       c = sqrt(r) gamma_{n+1} sqrt(1 + delta) times those norms.
    3. Subtracting, squaring, summing r terms and the square root add a
       relative gamma_{r+4}, so
       ``b_i <= (1 + gamma_{r+4}) ((1 + delta + c) d_i + 2 c ||q - mu||)``.
    4. The exact kernel gives ``dhat_i >= (1 - gamma_{n+2}) d_i``.  So if
       ``dhat_i <= kth`` then ``b_i <= kth + a kth + b`` with
       ``a = (1 + gamma_{r+4})(1 + delta + c) / (1 - gamma_{n+2}) - 1`` and
       ``b = 2 (1 + gamma_{r+4}) c ||q - mu||``.

    5. A subnormal product adds up to 2**-1075 on top of the relative
       error: a squared distance can lose n 2**-1075, a squared bound gain
       r 2**-1075, and q' and Z_i (n products per entry) move by far less.
       In b that is at most t = 2 sqrt((n + 1)(r + 1) 2**-1074), about
       1e-159 at n = 1024.

    With eta = 4 (sqrt(r) + 1)(n + r + 4) u, ``a <= 2 (delta + eta)`` and
    ``b <= 2 eta ||q - mu|| + t`` hold for delta <= 1e-6 (the load limit)
    and any vector length below 10**12; the factor 2 also covers the
    second order terms and the rounding of the stop test itself.  The
    test is strict, so a row tied with the k-th distance is always scored.
    """
    r, n = index.axes.shape
    eta = 4.0 * (math.sqrt(r) + 1.0) * (n + r + 4) * 2.0**-53
    tiny = 2.0 * math.sqrt((n + 1) * (r + 1) * 2.0**-1074)
    spread = float(np.linalg.norm(q - index.mean))
    return 2.0 * (index.departure + eta), 2.0 * eta * spread + tiny


def search(db, query, k: int) -> tuple[list[str], np.ndarray]:
    """Rank a database against a query, ascending by score.

    ``db`` is a :class:`FeatureStore` or a list of :class:`FeatureVector`.
    Ties are broken by target id (lexicographic).  Returns the first
    min(k, len(db)) hits as two columns: the target ids and a float64
    column of their distances, each equal to :func:`score`.

    Rows are scored in growing batches, in increasing order of the lower
    bound that the store's :class:`~comogphog.featuredb.ProjectionIndex`
    gives, until the next bound rules out every row left (see
    :func:`_stop_margin`); a store without an index is scored whole.  The
    hits are those of scoring every row.  Raises ValueError when a scored
    row is at a non-finite distance.
    """
    if not len(db):
        raise ValueError("search database is empty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not isinstance(db, FeatureStore):
        db = FeatureStore(db)
    ids, (n, length), index = db.ids(), db.shape, db.index
    q = _values(query)
    if (length,) != q.shape:
        raise LengthMismatchError(f"vector shapes differ: {(length,)} vs {q.shape}")
    size = n if index.rank == 0 or k >= n else max(k, _FIRST_BATCH)
    if size < n:
        diff = index.rows - index.axes @ (q - index.mean)
        bound = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        # a bound that is not finite rules nothing out: its row comes first
        bound[~np.isfinite(bound)] = 0.0
        order = np.argsort(bound)
        rel, extra = _stop_margin(index, q)
    else:
        order = np.arange(n)
    rows, dists = [], []
    done = 0
    while True:
        # in row order, so a loaded store reads runs of adjacent rows at once;
        # the order within a batch does not change the hits
        batch = np.sort(order[done : done + size])
        d = _distances(db, q, batch)
        bad = np.flatnonzero(~np.isfinite(d))
        if bad.size:
            raise ValueError(f"non-finite distance {d[bad[0]]} to {ids[batch[bad[0]]]!r}")
        rows.append(batch)
        dists.append(d)
        done += len(batch)
        if done == n:
            break
        kth = np.partition(np.concatenate(dists), k - 1)[k - 1]
        if bound[order[done]] > kth + rel * kth + extra:
            break
        size *= 2
    dist, rows = np.concatenate(dists), np.concatenate(rows)
    # Every scored row tied with the k-th smallest distance stays a
    # candidate, so the exact (distance, id) sort below ranks ties as a
    # full sort would; every row not scored is farther than all of them.
    if k < len(dist):
        cand = np.flatnonzero(dist <= np.partition(dist, k - 1)[k - 1])
        dist, rows = dist[cand], rows[cand]
    ranked = sorted(zip(dist.tolist(), [ids[c] for c in rows.tolist()]))[:k]
    return [tid for _, tid in ranked], np.array([d for d, _ in ranked], dtype=np.float64)
