"""Binary-classifier statistics for pairwise similarity scores.

Treats "same family" (or "same superfamily") as the positive class and a
pairwise score as the discriminant: empirical match-probability curves over
score bins, Matthews correlation sweeps over thresholds, ROC staircases and
trapezoid AUC.  Works both on descriptor stores (scoring all structure
pairs) and on externally computed score files.  Pairs from a store are
scored with the one distance kernel of :mod:`comogphog.scoring`, so each
score of :func:`score_pairs` equals :func:`~comogphog.scoring.score` of its
pair, bit for bit, and :func:`~comogphog.scoring.search` finds the same
distances.

The reports of ``evaluate`` never print a distance: they read only the
order of the scores and their ties, the smallest and largest score, and
which bin and which side of each threshold a score falls in.  So for all
pairs of a store, ``evaluate`` scores with a floating-point filter
(:func:`_report_pairs`; Shewchuk, DCG 1997) instead.  One Gram product of
the centred rows, in blocks of rows, gives every pair an interval that
provably holds its exact distance in any summation order, so whatever the
BLAS build or thread count (:func:`_pair_intervals`).  The exact kernel
then scores only the pairs whose interval could hold the minimum or the
maximum, meets another pair's interval, or could fall in two bins or on a
threshold; every other pair keeps a value inside its interval.  The
reports are byte for byte those of the exact distances.  A matrix with
values that are not finite or above 1e150 in magnitude, or one with so
many ties that most pairs would need refining, is scored exactly.

Every result is columns.  Scored pairs are one :class:`PairScores` record
(an id table, int32 pair indices, float64 scores and bool matches; 17
bytes per pair), which every curve function takes.  The curves come back
as tuples of arrays: :func:`pvalue_curve` gives bin centers, probability
and count, :func:`mcc_curve` thresholds, MCC and the tp/fp tallies behind
each point, and :func:`roc_curve` the fpr and tpr columns that
:func:`auc` and :func:`write_curve_csv` take.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

import numpy as np

from .featuredb import FeatureStore
from .scoring import _distances
from .structure_io import ScopLabel

DEFAULT_EVAL_BINS = 200

# pairs scored per work unit; fixed so results do not depend on the job count
_CHUNK = 8192
# CSV rows formatted per chunk: bounds the strings alive at once
_CSV_CHUNK = 4096
# fewest pairs scored in a process pool when jobs > 1.  Timed in fresh
# processes on a 2-core VM (one BLAS thread), two workers were slower than
# one process at up to 404k pairs of a whole store and 800k sampled pairs
# (pool start-up, and the serial sampler), and faster from 604k and 1M on.
_POOL_MIN_PAIRS = 600_000
# largest magnitude the Gram filter takes: squares and Gram sums of 1024
# values stay finite below it, as in featuredb.build_index
_FILTER_MAX = 1e150
# rows per Gram block of the filter
_GRAM_ROWS = 64
# pairs tested against the grid at a time: bounds the filter's temporaries
_GRID_CHUNK = 1 << 16
# share of the pairs above which the filter gives way to exact scoring
_REFINE_LIMIT = 0.5


class DegenerateRangeError(ValueError):
    """All scores are equal; equal-width bins are undefined."""


class SingleClassError(ValueError):
    """ROC needs at least one match and one non-match."""


class MissingLabelError(KeyError):
    """A scored id has no entry in the label table."""

    def __str__(self) -> str:
        # the bare message, not the quoted key KeyError would print
        return Exception.__str__(self)


class Polarity(Enum):
    """Reading direction of a score: which end means 'similar'."""

    LOWER_IS_SIMILAR = "lower"
    HIGHER_IS_SIMILAR = "higher"


@dataclass(frozen=True, eq=False)
class PairScores:
    """Scored pairs as columns: pair k is ``ids[i[k]]``, ``ids[j[k]]``,
    ``score[k]`` and ``match[k]``.

    ``i`` and ``j`` are int32 indices into ``ids``, ``score`` is float64 and
    ``match`` is bool.
    """

    ids: list[str]
    i: np.ndarray
    j: np.ndarray
    score: np.ndarray
    match: np.ndarray

    def __len__(self) -> int:
        return len(self.score)


def _mcc_column(tp, fp, n, m) -> np.ndarray:
    """Matthews correlation of the tables ``tp``, ``fp``, ``fn = m - tp``, ``tn = n - m - fp``.

    (tp*tn - fp*fn) / sqrt((tp+fp)(tp+fn)(tn+fp)(tn+fn)), defined as 0
    wherever a marginal of the table is empty.  Takes integer arrays or
    scalars of one broadcast shape.  The numerator and marginals are
    int64 (tp*tn <= n*n/4 fits below 6e9 pairs); the marginals are
    multiplied in float64, left to right.
    """
    tp, fp, n, m = (np.asarray(a, dtype=np.int64) for a in (tp, fp, n, m))
    fn, tn = m - tp, n - m - fp
    product = (tp + fp).astype(np.float64) * (tp + fn) * (tn + fp) * (tn + fn)
    num = (tp * tn - fp * fn).astype(np.float64)
    return np.divide(num, np.sqrt(product), out=np.zeros_like(product), where=product > 0)


def mcc_curve(
    pairs: PairScores, polarity: Polarity, thresholds
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """MCC swept over thresholds, via one sort and cumulative tallies.

    Returns four columns: the thresholds (float64), the MCC at each, and
    the true- and false-positive counts (int64) it was computed from.  With
    n pairs of which m match, the table at threshold k is ``tp[k]``,
    ``fp[k]``, ``fn = m - tp[k]`` and ``tn = n - m - fp[k]``: a pair is
    predicted a match iff its score is <= the threshold (LOWER_IS_SIMILAR)
    or >= it (HIGHER_IS_SIMILAR).
    """
    if not len(pairs):
        raise ValueError("no pairs to sweep")
    t = np.asarray(thresholds, dtype=np.float64)
    order = np.argsort(pairs.score, kind="stable")
    s = pairs.score[order]
    # cum_m[k]: matches among the k lowest scores
    cum_m = np.concatenate(([0], np.cumsum(pairs.match[order], dtype=np.int64)))
    n, m_total = len(s), int(cum_m[-1])
    if polarity is Polarity.LOWER_IS_SIMILAR:
        npos = np.searchsorted(s, t, side="right")
        tp = cum_m[npos]
    else:
        lo = np.searchsorted(s, t, side="left")
        npos = n - lo
        tp = m_total - cum_m[lo]
    fp = npos - tp
    return t, _mcc_column(tp, fp, n, m_total), tp, fp


def _grid(lo: float, hi: float, num_bins: int) -> tuple[float, np.ndarray]:
    """Width and centers of ``num_bins`` equal-width bins from ``lo`` to ``hi``."""
    if lo == hi:
        raise DegenerateRangeError("all scores are equal; bins are undefined")
    width = (hi - lo) / num_bins
    # finite scores can span more than the largest float
    if not 0.0 < width < math.inf:
        raise ValueError(
            f"score range [{lo!r}, {hi!r}] cannot be split into {num_bins} equal-width bins"
        )
    return width, lo + (np.arange(num_bins) + 0.5) * width


def _bin_index(scores: np.ndarray, lo: float, width: float, num_bins: int) -> np.ndarray:
    """The bin of each score in ``[lo, lo + num_bins * width]``; non-decreasing in the score."""
    return np.minimum(((scores - lo) / width).astype(np.int64), num_bins - 1)


def pvalue_curve(pairs: PairScores, num_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical per-bin match probability over equal-width score bins.

    Returns three columns: the bin centers and the probability (float64),
    and the pair count (int64).  The probability is the raw fraction of
    match pairs among the pairs landing in the bin; empty bins carry count
    0 and NaN and are never interpolated.  Binning does not depend on the
    score polarity; the centers are the thresholds ``evaluate`` sweeps the
    MCC over.  Raises :class:`DegenerateRangeError` when all scores are
    equal, and ValueError naming the range when the bin width is not a
    positive finite float.
    """
    if num_bins < 2:
        raise ValueError(f"need at least 2 bins, got {num_bins}")
    if not len(pairs):
        raise ValueError("no pairs to bin")
    lo = float(pairs.score.min())
    width, centers = _grid(lo, float(pairs.score.max()), num_bins)
    idx = _bin_index(pairs.score, lo, width, num_bins)
    total = np.bincount(idx, minlength=num_bins)
    matched = np.bincount(idx[pairs.match], minlength=num_bins)
    prob = np.divide(matched, total, out=np.full(num_bins, np.nan), where=total > 0)
    return centers, prob, total


def roc_curve(pairs: PairScores, polarity: Polarity) -> tuple[np.ndarray, np.ndarray]:
    """(fpr, tpr) staircase swept over every distinct score, as two float64 columns.

    Starts at exactly (0, 0) and ends at exactly (1, 1); both coordinates
    are monotone non-decreasing.  Raises :class:`SingleClassError` when all
    pairs are matches or all are non-matches.
    """
    if not len(pairs):
        raise ValueError("no pairs to sweep")
    scores, match = pairs.score, pairs.match
    n_match = int(match.sum())
    n_non = len(pairs) - n_match
    if n_match == 0 or n_non == 0:
        raise SingleClassError("need at least one match and one non-match")
    if polarity is Polarity.LOWER_IS_SIMILAR:
        order = np.argsort(scores, kind="stable")
    else:
        order = np.argsort(-scores, kind="stable")
    s = scores[order]
    m = match[order]
    # index of the last pair in each group of equal scores; the last group
    # ends at the last pair, so the curve ends at exactly (1, 1)
    ends = np.append(np.nonzero(np.diff(s) != 0)[0], len(s) - 1)
    tp = np.cumsum(m)[ends]
    fp = ends + 1 - tp
    # counts are below 2**53, so these are the same quotients as int / int
    return np.concatenate(([0.0], fp / n_non)), np.concatenate(([0.0], tp / n_match))


def auc(fpr, tpr) -> float:
    """Trapezoid area under an ROC staircase (0.5 means chance ranking).

    Takes the curve's ``fpr`` and ``tpr`` columns.  The terms are added
    left to right, as a loop over the points would.
    """
    x = np.asarray(fpr, dtype=np.float64)
    y = np.asarray(tpr, dtype=np.float64)
    if len(x) < 2:
        return 0.0
    terms = (x[1:] - x[:-1]) * (y[:-1] + y[1:]) / 2.0
    # cumsum accumulates in sequence (np.sum would add pairwise); 0.0 + is
    # the loop's starting value, which turns a sum of -0.0 terms into 0.0
    return 0.0 + float(np.cumsum(terms)[-1])


_LEVEL_KEYS = {
    "family": attrgetter("sccs_class", "fold", "superfamily", "family"),
    "superfamily": attrgetter("sccs_class", "fold", "superfamily"),
}


def _level_key(level: str):
    try:
        return _LEVEL_KEYS[level]
    except KeyError:
        raise ValueError(f"unknown match level {level!r}") from None


def _label_codes(labels: list[ScopLabel], key) -> np.ndarray:
    """One integer per label, equal exactly when the labels' keys are equal.

    With a key from ``_LEVEL_KEYS``, ``codes[a] == codes[b]`` exactly when
    the two labels agree at that level.
    """
    table: dict[tuple, int] = {}
    return np.array([table.setdefault(key(lab), len(table)) for lab in labels], dtype=np.int32)


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pairs_from_indices(ks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode flat indices in [0, n*(n-1)/2) to int64 (i, j) arrays, i < j.

    Pairs are ordered lexicographically: (0,1), (0,2), ..., (1,2), ...
    Row i starts at flat index i*(n-1) - i*(i-1)/2; a search of those exact
    int64 starts finds each index's row.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if ks.size and (ks.min() < 0 or ks.max() >= pair_count(n)):
        raise ValueError(f"pair index out of range for n={n}")
    rows = np.arange(n - 1, dtype=np.int64)
    row_start = rows * (n - 1) - rows * (rows - 1) // 2
    i = np.searchsorted(row_start, ks, side="right") - 1
    return i, i + 1 + (ks - row_start[i])


def sample_pair_indices(total: int, count: int, seed: int) -> np.ndarray:
    """Deterministic uniform sample without replacement (Floyd), sorted, as int64."""
    if count >= total:
        return np.arange(total, dtype=np.int64)
    rng = random.Random(seed)
    chosen: set[int] = set()
    for j in range(total - count, total):
        t = rng.randrange(j + 1)
        chosen.add(t if t not in chosen else j)
    return np.array(sorted(chosen), dtype=np.int64)


def _pair_distances(db: FeatureStore, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Euclidean distance between rows ``i[k]`` and ``j[k]`` of ``db``, equal to ``score()``.

    Pairs with equal ``i`` come together, as in flat-index order; each run
    of equal ``i`` is one call of search's kernel with row ``i`` as the
    query and the run's ``j`` as the rows.  Rows are read with
    :meth:`~comogphog.featuredb.FeatureStore.read_rows`, so a loaded store
    reads only the rows of the pairs from its file.
    """
    out = np.empty(len(i))
    query = np.empty((1, db.shape[1]))
    starts = [0, *(np.flatnonzero(i[1:] != i[:-1]) + 1).tolist()] if len(i) else []
    for s, e in zip(starts, [*starts[1:], len(i)]):
        db.read_rows(i[s : s + 1], out=query)
        out[s:e] = _distances(db, query[0], j[s:e])
    return out


_PAIR_STORE: FeatureStore | None = None


def _init_pair_worker(db: FeatureStore) -> None:
    global _PAIR_STORE
    _PAIR_STORE = db


def _pair_worker(ij: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    return _pair_distances(_PAIR_STORE, *ij)


def _pair_table(
    store: FeatureStore,
    labels: dict[str, ScopLabel],
    level: str,
    sample: int | None = None,
    seed: int = 0,
) -> tuple[list[str], np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """Everything of a store's scored pairs but the scores.

    Returns the ids in sorted order, the store row of each (None when the
    store is in id order already), the int32 pair indices ``i`` and ``j``
    into the sorted ids (all pairs, or ``sample`` of them drawn with
    ``seed``) and the match column at ``level``.  Raises
    :class:`MissingLabelError` for ids without a label and ValueError for
    fewer than two entries.
    """
    ids, order = store.ids(), None
    if ids != sorted(ids):
        order = np.array(sorted(range(len(ids)), key=ids.__getitem__))
        ids = [ids[k] for k in order.tolist()]
    missing = [sid for sid in ids if sid not in labels]
    if missing:
        raise MissingLabelError(
            f"{len(missing)} ids without labels, e.g. {', '.join(missing[:5])}"
        )
    if len(ids) < 2:
        raise ValueError("need at least two entries to form pairs")
    codes = _label_codes([labels[sid] for sid in ids], _level_key(level))
    n = len(ids)
    total = pair_count(n)
    if sample is not None and sample < total:
        ks = sample_pair_indices(total, sample, seed)
        i, j = (a.astype(np.int32) for a in pairs_from_indices(ks, n))
    else:
        i, j = _all_pairs(n)
    return ids, order, i, j, codes[i] == codes[j]


def _in_id_order(store: FeatureStore, ids: list[str], order: np.ndarray | None) -> FeatureStore:
    """``store`` with its rows loaded and in the order of the sorted ``ids``."""
    return FeatureStore(ids=ids, matrix=store.matrix if order is None else store.matrix[order])


def _all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 ``(i, j)`` of every pair i < j of n rows in flat-index order,
    written one run of equal ``i`` at a time."""
    i = np.empty(pair_count(n), dtype=np.int32)
    j = np.empty_like(i)
    cols = np.arange(n, dtype=np.int32)
    s = 0
    for r in range(n - 1):
        e = s + n - 1 - r
        i[s:e] = r
        j[s:e] = cols[r + 1 :]
        s = e
    return i, j


def _exact_scores(db: FeatureStore, i: np.ndarray, j: np.ndarray, jobs: int) -> np.ndarray:
    """``score()`` of every pair ``(i[k], j[k])`` of ``db``, in a process
    pool when ``jobs`` > 1 and there are at least 600,000 pairs.

    Raises ValueError naming the first pair whose score is not finite.
    """
    if jobs > 1 and len(i) >= _POOL_MIN_PAIRS:
        from concurrent.futures import ProcessPoolExecutor

        units = [(i[s : s + _CHUNK], j[s : s + _CHUNK]) for s in range(0, len(i), _CHUNK)]
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_pair_worker, initargs=(db,)
        ) as pool:
            scores = np.concatenate(list(pool.map(_pair_worker, units)))
    else:
        scores = _pair_distances(db, i, j)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        at = bad[0]
        ids = db.ids()
        raise ValueError(f"pair {ids[i[at]]},{ids[j[at]]} has a non-finite score {scores[at]}")
    return scores


def score_pairs(
    store: FeatureStore,
    labels: dict[str, ScopLabel],
    level: str = "family",
    sample: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> PairScores:
    """Score labeled structure pairs from a descriptor store.

    All n*(n-1)/2 unordered pairs by default; ``sample`` draws that many
    pairs with a seeded deterministic sampler.  Entries are paired in id
    order, and each score equals ``score()`` of its pair bit for bit, for
    any ``jobs`` setting; ``jobs`` > 1 starts a process pool only from
    600,000 pairs on.  Raises ValueError naming the first pair whose
    score is not finite.
    """
    ids, order, i, j, match = _pair_table(store, labels, level, sample, seed)
    scores = _exact_scores(_in_id_order(store, ids, order), i, j, jobs)
    return PairScores(ids=ids, i=i, j=j, score=scores, match=match)


def _report_pairs(
    store: FeatureStore,
    labels: dict[str, ScopLabel],
    level: str,
    num_bins: int,
    jobs: int = 1,
) -> PairScores:
    """All pairs of a store, scored for one ``evaluate`` report over ``num_bins`` bins.

    The ``score`` column is not :func:`score_pairs`' column of exact
    distances; only the report may see it.  On that report's grid it
    keeps every property the report reads from the exact column:

    - the same order and the same ties between any two pairs;
    - the same minimum and maximum, bit for bit, so the same bins and
      thresholds;
    - the same bin for every pair, and the same side of every threshold.

    Pairs, ids and matches are :func:`score_pairs`' own.  Each score is
    exact where an interval from the Gram filter (:func:`_pair_intervals`)
    could not decide these; every other score lies inside an interval
    that holds its exact distance and is disjoint from all the others.  A
    matrix with values that are not finite or above 1e150 in magnitude,
    or on which more than ``_REFINE_LIMIT`` of the pairs would need their
    exact distance, is scored exactly throughout (``jobs`` as in
    :func:`score_pairs`).
    """
    ids, order, i, j, match = _pair_table(store, labels, level)
    rows = np.arange(len(ids)) if order is None else order
    scores = _filtered_scores(store, rows, i, j, num_bins)
    if scores is None:
        scores = _exact_scores(_in_id_order(store, ids, order), i, j, jobs)
    return PairScores(ids=ids, i=i, j=j, score=scores, match=match)


def _pair_intervals(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` per pair of rows in flat-index order: ``lo[k] <= d_k <= hi[k]``,
    where d_k is the exact kernel's distance (:func:`_pair_distances`)
    between the two rows of M, bits included.

    ``c`` holds the rows centred, c = fl(M - mu) for any vector mu; their
    magnitude must be at most 1e150.  Notation: u = 2**-53, L the row
    length, gamma_L = L u / (1 - L u), which bounds the relative error of
    an L-term dot product of non-negative terms, and of sum |x_k y_k| for
    any terms, whatever the order of the sum (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1).  r_i is the computed
    ||c_i||^2 and G_ij the computed Gram entry c_i . c_j, each in any order.

    1. With S = fl(r_i + r_j) and q = fl(S - 2 G_ij), the centred squared
       distance E^2 = ||c_i - c_j||^2 is within
       ``e2 = a S + b |q| + t2`` of q, where ``a = (2 gamma_L + u) / ((1 -
       gamma_L)(1 - u))`` covers the norms, the Gram entry and the sum,
       ``b = u / (1 - u)`` the last subtraction, and t2 = 2 L 2**-1074 the
       products that fall below the normal range.
    2. Centring moved each row by at most u ||c_i|| / (1 - u), so the
       distance D of the rows of M is within sqrt(2) u sqrt(S) (1 + O(u))
       of E.
    3. The kernel rounds the L differences, sums their squares in some
       order and rounds the square root, so its value lies within
       rho0 D + t0 of D, with ``rho0 = gamma_L / 2 + 2 u`` (to first order)
       and t0 = sqrt(L 2**-1075) for subnormal squares.
    4. The square roots, products and sums that form lo and hi round at
       most 3.5 u relative to E, and u of the term subtracted or added.

    So ``lo = (1 - rho) sqrt(max(q - e2, 0)) - tau`` and ``hi = (1 + rho)
    sqrt(q + e2) + tau``, with rho = rho0 + 4 u and tau = 2 u sqrt(S) +
    2 t0.  The constants carry a relative margin of 2**-40 (2**-20 on rho0)
    for their own rounding and the second order terms, which holds for
    rows of up to 2**30 values.  The bound holds for any summation order,
    so the intervals' guarantee does not depend on the BLAS build or its
    thread count.

    The Gram matrix is computed ``_GRAM_ROWS`` rows at a time, each block
    against every later row, so the whole of it is never held.
    """
    n, length = c.shape
    u = 2.0**-53
    gamma = length * u / (1.0 - length * u)
    a = (2.0 * gamma + u) / ((1.0 - gamma) * (1.0 - u)) * (1.0 + 2.0**-40)
    b = u / (1.0 - u) * (1.0 + 2.0**-40)
    t2 = 2.0 * length * 2.0**-1074
    rho = (0.5 * gamma + 2.0 * u) * (1.0 + 2.0**-20) + 4.0 * u
    t0 = math.sqrt(length * 2.0**-1075)
    r = np.einsum("ij,ij->i", c, c)
    lo = np.empty(pair_count(n))
    hi = np.empty_like(lo)
    at = 0
    for s in range(0, n - 1, _GRAM_ROWS):
        e = min(s + _GRAM_ROWS, n - 1)
        # row s + x against row s + y, kept where y > x: pairs in flat order
        upper = np.triu(np.ones((e - s, n - s), dtype=bool), 1)
        q = (c[s:e] @ c[s:].T)[upper]
        total = (r[s:e, None] + r[s:])[upper]
        q *= -2.0
        q += total
        k = slice(at, at + len(q))
        at += len(q)
        # e2 in hi[k], then the ends of the squared interval in lo[k] and hi[k]
        np.abs(q, out=hi[k])
        hi[k] *= b
        hi[k] += t2
        hi[k] += a * total
        np.subtract(q, hi[k], out=lo[k])
        hi[k] += q
        np.sqrt(total, out=total)
        total *= 2.0 * u
        total += 2.0 * t0  # tau
        for end, sign in ((lo[k], -1.0), (hi[k], 1.0)):
            np.maximum(end, 0.0, out=end)
            np.sqrt(end, out=end)
            end *= 1.0 + sign * rho
            end += sign * total
        np.maximum(lo[k], 0.0, out=lo[k])
    return lo, hi


def _overlapping(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """True where ``[lo[k], hi[k]]`` meets another pair's interval.

    In order of the lower ends, an interval is apart from every other
    exactly when the largest upper end before it is below its lower end,
    and its own upper end (then the largest so far) is below the next
    lower end.
    """
    order = np.argsort(lo)
    reach = hi[order]
    np.maximum.accumulate(reach, out=reach)
    gap = reach[:-1] < lo[order][1:]  # a gap after each position
    del reach
    apart = np.ones(len(lo), dtype=bool)
    apart[1:] = gap
    apart[:-1] &= gap
    out = np.zeros(len(lo), dtype=bool)
    out[order[~apart]] = True
    return out


def _straddling(
    lo: np.ndarray, hi: np.ndarray, smin: float, smax: float, num_bins: int
) -> np.ndarray:
    """True where ``[lo[k], hi[k]]`` could fall in two bins of ``pvalue_curve``'s
    grid from ``smin`` to ``smax``, or could hold one of its centers.

    The bin formula is non-decreasing, so an interval whose two ends
    (clipped to the range) share a bin lies in that bin, and a center it
    holds lies in that bin too: between the least and the greatest center
    of the bin.  Returns all False where the range has no grid; the report
    then fails the way it does on the exact column.
    """
    out = np.zeros(len(lo), dtype=bool)
    try:
        width, centers = _grid(smin, smax, num_bins)
    except ValueError:
        return out
    own = _bin_index(centers, smin, width, num_bins)
    least = np.full(num_bins, np.inf)
    most = np.full(num_bins, -np.inf)
    np.minimum.at(least, own, centers)
    np.maximum.at(most, own, centers)
    for s in range(0, len(lo), _GRID_CHUNK):
        k = slice(s, s + _GRID_CHUNK)
        bin_lo = _bin_index(np.clip(lo[k], smin, smax), smin, width, num_bins)
        bin_hi = _bin_index(np.clip(hi[k], smin, smax), smin, width, num_bins)
        out[k] = (bin_lo != bin_hi) | ((lo[k] <= most[bin_lo]) & (hi[k] >= least[bin_lo]))
    return out


def _filtered_scores(
    store: FeatureStore, rows: np.ndarray, i: np.ndarray, j: np.ndarray, num_bins: int
) -> np.ndarray | None:
    """The ``score`` column of :func:`_report_pairs` for the pairs ``(i, j)``
    of ``store``'s ``rows``; None for a matrix the filter does not take,
    or when more than ``_REFINE_LIMIT`` of the pairs need their exact
    distance.

    A pair is scored exactly when its interval could hold the minimum or
    the maximum, meets another pair's interval, or could fall in two bins
    or on a threshold of the grid that the exact minimum and maximum
    give.  Every other pair scores the midpoint of its interval.  The rows
    are read once, straight into the buffer that is centred, so a loaded
    store's matrix is not held beside it.
    """
    c = np.empty((len(rows), store.shape[1]))
    store.read_rows(rows, out=c)
    # False for a NaN too
    if not (-_FILTER_MAX <= c.min() and c.max() <= _FILTER_MAX):
        return None
    c -= c.mean(axis=0)
    lo, hi = _pair_intervals(c)
    del c
    exact = (lo <= hi.min()) | (hi >= lo.max())
    exact |= _overlapping(lo, hi)
    if np.count_nonzero(exact) > _REFINE_LIMIT * len(lo):
        return None
    at = np.flatnonzero(exact)
    first = _pair_distances(store, rows[i[at]], rows[j[at]])
    # the refined pairs hold the minimum and the maximum
    grid = _straddling(lo, hi, float(first.min()), float(first.max()), num_bins)
    extra = np.flatnonzero(grid & ~exact)
    scores = lo
    scores += hi
    scores *= 0.5
    del hi
    scores[at] = first
    scores[extra] = _pair_distances(store, rows[i[extra]], rows[j[extra]])
    return scores


def read_score_file(
    text: str, labels: dict[str, ScopLabel], level: str = "family"
) -> PairScores:
    """Parse ``id_a,id_b,score`` rows (optional header, # comments) into pairs.

    Every id must appear in the label table; otherwise
    :class:`MissingLabelError` is raised.  A row with fewer or more than
    three fields (a decimal comma makes four), or whose score is not a
    number or not finite (nan, inf), raises :class:`ValueError` naming the
    row.  Only the first row may be a header, and only if its score is not
    a number and neither of its ids is in the label table.
    """
    key = _level_key(level)
    index: dict[str, int] = {}
    ia: list[int] = []
    ib: list[int] = []
    scores: list[float] = []
    first = True
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 3:
            raise ValueError(f"score row needs id_a,id_b,score: {raw!r}")
        if len(parts) > 3:
            raise ValueError(f"score row has more fields than id_a,id_b,score: {raw!r}")
        a, b = parts[0].strip(), parts[1].strip()
        try:
            s = float(parts[2].strip())
        except ValueError:
            if first and a not in labels and b not in labels:
                first = False
                continue
            raise ValueError(f"score row has a score that is not a number: {raw!r}") from None
        first = False
        if not math.isfinite(s):
            raise ValueError(f"score row has a non-finite score: {raw!r}")
        for sid in (a, b):
            if sid not in labels:
                raise MissingLabelError(f"no label for id {sid!r}")
        ia.append(index.setdefault(a, len(index)))
        ib.append(index.setdefault(b, len(index)))
        scores.append(s)
    ids = list(index)
    codes = _label_codes([labels[sid] for sid in ids], key)
    i = np.array(ia, dtype=np.int32)
    j = np.array(ib, dtype=np.int32)
    return PairScores(
        ids=ids,
        i=i,
        j=j,
        score=np.array(scores, dtype=np.float64),
        match=codes[i] == codes[j],
    )


def _format_unique(column: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt`` text of each 8-byte entry, formatted once per distinct bit pattern.

    Keyed by bits, not value, so -0.0 and 0.0 keep their own text.
    """
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([fmt % v for v in bits.view(column.dtype).tolist()], dtype=object)
    return text[inverse]


def write_curve_csv(path, metric: str, polarity: Polarity, x, value, count) -> None:
    """Write (threshold_or_bin, value, count) rows under a one-line header.

    ``x`` and ``value`` are columns of floats, written with ``%.17g``;
    ``count`` is a column of integers or one integer for every row.  The
    header's first field names the metric and the score polarity, e.g.
    ``mcc:lower,value,count``.
    """
    x = np.asarray(x, dtype=np.float64)
    value = np.asarray(value, dtype=np.float64)
    count = np.broadcast_to(np.asarray(count, dtype=np.int64), x.shape)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{metric}:{polarity.value},value,count\n")
        for s in range(0, len(x), _CSV_CHUNK):
            chunk = slice(s, s + _CSV_CHUNK)
            rows = _format_unique(x[chunk], "%.17g") + ","
            rows += _format_unique(value[chunk], "%.17g") + ","
            rows += _format_unique(count[chunk], "%d") + "\n"
            fh.write("".join(rows.tolist()))
