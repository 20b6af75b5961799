"""Binary-classifier statistics for pairwise similarity scores.

Treats "same family" (or "same superfamily") as the positive class and a
pairwise score as the discriminant: empirical match-probability curves over
score bins, Matthews correlation sweeps over thresholds, ROC staircases and
trapezoid AUC.  Works both on descriptor stores (scoring all structure
pairs) and on externally computed score files.  Pairs from a store are
scored with the one distance kernel of :mod:`comogphog.scoring`, so each
score equals :func:`~comogphog.scoring.score` of its pair, bit for bit, and
:func:`~comogphog.scoring.search` finds the same distances.

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
from concurrent.futures import ProcessPoolExecutor
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
    hi = float(pairs.score.max())
    if lo == hi:
        raise DegenerateRangeError("all scores are equal; bins are undefined")
    width = (hi - lo) / num_bins
    # finite scores can span more than the largest float
    if not 0.0 < width < math.inf:
        raise ValueError(
            f"score range [{lo!r}, {hi!r}] cannot be split into {num_bins} equal-width bins"
        )
    centers = lo + (np.arange(num_bins) + 0.5) * width
    idx = np.minimum(((pairs.score - lo) / width).astype(np.int64), num_bins - 1)
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

    Pairs come in flat-index order, so ``i`` never decreases; each run of
    equal ``i`` is one call of search's kernel with row ``i`` as the query
    and the run's ``j`` as the rows.
    """
    out = np.empty(len(i))
    starts = np.flatnonzero(np.diff(i, prepend=-1)).tolist()
    for s, e in zip(starts, [*starts[1:], len(i)]):
        out[s:e] = _distances(db, db.matrix[i[s]], j[s:e])
    return out


_PAIR_STORE: FeatureStore | None = None


def _init_pair_worker(db: FeatureStore) -> None:
    global _PAIR_STORE
    _PAIR_STORE = db


def _pair_worker(ij: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    return _pair_distances(_PAIR_STORE, *ij)


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
    ids, mat = store.ids(), store.matrix
    if ids != sorted(ids):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids, mat = [ids[k] for k in order], mat[order]
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
    else:
        ks = np.arange(total, dtype=np.int64)
    i, j = (a.astype(np.int32) for a in pairs_from_indices(ks, n))
    db = FeatureStore(ids=ids, matrix=mat)
    if jobs > 1 and len(i) >= _POOL_MIN_PAIRS:
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
        raise ValueError(f"pair {ids[i[at]]},{ids[j[at]]} has a non-finite score {scores[at]}")
    return PairScores(ids=ids, i=i, j=j, score=scores, match=codes[i] == codes[j])


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
