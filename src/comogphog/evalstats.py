"""Binary-classifier statistics for pairwise similarity scores.

Treats "same family" (or "same superfamily") as the positive class and a
pairwise score as the discriminant: empirical match-probability curves over
score bins, Matthews correlation sweeps over thresholds, ROC staircases and
trapezoid AUC.  Works both on descriptor stores (scoring all structure
pairs) and on externally computed score files.

Scored pairs are held as one :class:`PairScores` record of columns (an id
table, int32 pair indices, float64 scores and bool matches; 17 bytes per
pair), which reads as a sequence of :class:`ScoredPair` rows.  The curve
functions accept it or any hand-built list of :class:`ScoredPair`.  The
ROC staircase is likewise a :class:`RocCurve` of two float64 columns, and
:func:`write_curve_csv` takes its rows as columns.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

import numpy as np

from .featuredb import FeatureStore
from .structure_io import ScopLabel

DEFAULT_EVAL_BINS = 200

# pairs scored per work unit; fixed so results do not depend on the job count
_CHUNK = 8192
# pairs per distance block: keeps the (block, 1024) buffer in cache
_BLOCK = 32
# CSV rows formatted per chunk: bounds the strings alive at once
_CSV_CHUNK = 4096
# fewest pairs scored in a process pool when jobs > 1.  Timed in fresh
# processes on a 2-core VM, two workers were slower than one process at up
# to 151k pairs (pool start-up) and faster from 211k on.
_POOL_MIN_PAIRS = 200_000


class DegenerateRangeError(ValueError):
    """All scores are equal; equal-width bins are undefined."""


class SingleClassError(ValueError):
    """ROC needs at least one match and one non-match."""


class UndefinedRateError(ValueError):
    """Sensitivity/specificity undefined for an empty actual class."""


class MissingLabelError(KeyError):
    """A scored id has no entry in the label table."""

    def __str__(self) -> str:
        # the bare message, not the quoted key KeyError would print
        return Exception.__str__(self)


class Polarity(Enum):
    """Reading direction of a score: which end means 'similar'."""

    LOWER_IS_SIMILAR = "lower"
    HIGHER_IS_SIMILAR = "higher"


@dataclass(frozen=True)
class ScoredPair:
    """One structure pair: its score and whether the labels agree."""

    id_a: str
    id_b: str
    score: float
    is_match: bool


@dataclass(frozen=True, eq=False)
class PairScores(Sequence):
    """Scored pairs as columns: pair k is ``ids[i[k]]``, ``ids[j[k]]``,
    ``score[k]`` and ``match[k]``.

    ``i`` and ``j`` are int32 indices into ``ids``, ``score`` is float64 and
    ``match`` is bool.  Reads as a sequence of :class:`ScoredPair` rows; two
    records are equal when they hold the same rows in the same order.
    """

    ids: list[str]
    i: np.ndarray
    j: np.ndarray
    score: np.ndarray
    match: np.ndarray

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, k: int) -> ScoredPair:
        return ScoredPair(
            id_a=self.ids[self.i[k]],
            id_b=self.ids[self.j[k]],
            score=float(self.score[k]),
            is_match=bool(self.match[k]),
        )

    def __iter__(self):
        ids = self.ids
        for a, b, s, m in zip(
            self.i.tolist(), self.j.tolist(), self.score.tolist(), self.match.tolist()
        ):
            yield ScoredPair(id_a=ids[a], id_b=ids[b], score=s, is_match=m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairScores):
            return NotImplemented
        mine = np.array(self.ids, dtype=object)
        theirs = np.array(other.ids, dtype=object)
        return (
            len(self) == len(other)
            and np.array_equal(self.score, other.score)
            and np.array_equal(self.match, other.match)
            and np.array_equal(mine[self.i], theirs[other.i])
            and np.array_equal(mine[self.j], theirs[other.j])
        )


@dataclass(frozen=True, eq=False)
class RocCurve(Sequence):
    """ROC staircase as columns: point k is ``(fpr[k], tpr[k])``.

    ``fpr`` and ``tpr`` are float64 and include the (0, 0) and (1, 1)
    ends.  Reads as a sequence of ``(fpr, tpr)`` tuples of Python floats
    and compares equal to any sequence holding the same pairs in order.
    """

    fpr: np.ndarray
    tpr: np.ndarray

    def __len__(self) -> int:
        return len(self.fpr)

    def __getitem__(self, k: int) -> tuple[float, float]:
        return float(self.fpr[k]), float(self.tpr[k])

    def __iter__(self):
        return zip(self.fpr.tolist(), self.tpr.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == [tuple(p) for p in other]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def _as_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(pairs, PairScores):
        return pairs.score, pairs.match
    scores = np.fromiter((p.score for p in pairs), dtype=np.float64, count=len(pairs))
    match = np.fromiter((p.is_match for p in pairs), dtype=bool, count=len(pairs))
    return scores, match


def confusion_at_threshold(pairs, threshold: float, polarity: Polarity) -> ConfusionCounts:
    """Tally the 2x2 table at one decision threshold.

    With LOWER_IS_SIMILAR a pair is predicted a match iff score <= threshold;
    with HIGHER_IS_SIMILAR iff score >= threshold.
    """
    if not pairs:
        raise ValueError("no pairs to tally")
    scores, match = _as_arrays(pairs)
    if polarity is Polarity.LOWER_IS_SIMILAR:
        pred = scores <= threshold
    else:
        pred = scores >= threshold
    tp = int(np.count_nonzero(pred & match))
    fp = int(np.count_nonzero(pred & ~match))
    fn = int(np.count_nonzero(~pred & match))
    tn = len(pairs) - tp - fp - fn
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def mcc(c: ConfusionCounts) -> float:
    """Matthews correlation coefficient.

    (tp*tn - fp*fn) / sqrt((tp+fp)(tp+fn)(tn+fp)(tn+fn)), defined as 0
    whenever any marginal of the table is empty.
    """
    d1 = c.tp + c.fp
    d2 = c.tp + c.fn
    d3 = c.tn + c.fp
    d4 = c.tn + c.fn
    if 0 in (d1, d2, d3, d4):
        return 0.0
    num = c.tp * c.tn - c.fp * c.fn
    return num / math.sqrt(float(d1) * d2 * d3 * d4)


def mcc_curve(pairs, polarity: Polarity, thresholds) -> list[tuple[float, float]]:
    """MCC swept over thresholds, via one sort and cumulative tallies.

    Each (threshold, mcc) point agrees exactly with
    ``mcc(confusion_at_threshold(...))``; the sweep just avoids re-scanning
    all pairs per threshold.
    """
    if not pairs:
        raise ValueError("no pairs to sweep")
    scores, match = _as_arrays(pairs)
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    cum_m = np.cumsum(match[order])
    n = len(pairs)
    m_total = int(cum_m[-1])
    out: list[tuple[float, float]] = []
    for t in np.asarray(thresholds, dtype=np.float64):
        if polarity is Polarity.LOWER_IS_SIMILAR:
            npos = int(np.searchsorted(s, t, side="right"))
            tp = int(cum_m[npos - 1]) if npos else 0
        else:
            lo = int(np.searchsorted(s, t, side="left"))
            npos = n - lo
            tp = m_total - (int(cum_m[lo - 1]) if lo else 0)
        fp = npos - tp
        fn = m_total - tp
        tn = n - m_total - fp
        out.append((float(t), mcc(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))))
    return out


def pvalue_curve(pairs, num_bins: int) -> list[tuple[float, float, int]]:
    """Empirical per-bin match probability over equal-width score bins.

    Returns (bin_center, probability, pair_count) per bin.  The probability
    is the raw fraction of match pairs among the pairs landing in the bin;
    empty bins carry count 0 and NaN and are never interpolated.  Binning
    does not depend on the score polarity.
    """
    if num_bins < 2:
        raise ValueError(f"need at least 2 bins, got {num_bins}")
    if not pairs:
        raise ValueError("no pairs to bin")
    scores, match = _as_arrays(pairs)
    lo = float(scores.min())
    hi = float(scores.max())
    if lo == hi:
        raise DegenerateRangeError("all scores are equal; bins are undefined")
    width = (hi - lo) / num_bins
    idx = np.minimum(((scores - lo) / width).astype(np.int64), num_bins - 1)
    total = np.bincount(idx, minlength=num_bins)
    matched = np.bincount(idx[match], minlength=num_bins)
    out: list[tuple[float, float, int]] = []
    for i in range(num_bins):
        center = lo + (i + 0.5) * width
        if total[i]:
            out.append((center, matched[i] / total[i], int(total[i])))
        else:
            out.append((center, float("nan"), 0))
    return out


def default_thresholds(pairs, num_bins: int = DEFAULT_EVAL_BINS) -> list[float]:
    """Centers of the equal-width score bins (same grid as the match-probability curve)."""
    scores, _ = _as_arrays(pairs)
    lo = float(scores.min())
    hi = float(scores.max())
    if lo == hi:
        raise DegenerateRangeError("all scores are equal; bins are undefined")
    width = (hi - lo) / num_bins
    return [lo + (i + 0.5) * width for i in range(num_bins)]


def roc_curve(pairs, polarity: Polarity) -> RocCurve:
    """(fpr, tpr) staircase swept over every distinct score.

    Starts at exactly (0, 0) and ends at exactly (1, 1); both coordinates
    are monotone non-decreasing.  Raises :class:`SingleClassError` when all
    pairs are matches or all are non-matches.
    """
    if not pairs:
        raise ValueError("no pairs to sweep")
    scores, match = _as_arrays(pairs)
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
    return RocCurve(
        fpr=np.concatenate(([0.0], fp / n_non)),
        tpr=np.concatenate(([0.0], tp / n_match)),
    )


def auc(curve) -> float:
    """Trapezoid area under an ROC staircase (0.5 means chance ranking).

    Takes a :class:`RocCurve` or any sequence of (fpr, tpr) pairs.  The
    terms are added left to right, as a loop over the points would.
    """
    if isinstance(curve, RocCurve):
        x, y = curve.fpr, curve.tpr
    else:
        x, y = np.array(curve, dtype=np.float64).reshape(-1, 2).T
    if len(x) < 2:
        return 0.0
    terms = (x[1:] - x[:-1]) * (y[:-1] + y[1:]) / 2.0
    # cumsum accumulates in sequence (np.sum would add pairwise); 0.0 + is
    # the loop's starting value, which turns a sum of -0.0 terms into 0.0
    return 0.0 + float(np.cumsum(terms)[-1])


def sensitivity_specificity(c: ConfusionCounts) -> tuple[float, float]:
    """(tp/(tp+fn), tn/(tn+fp)); raises when either actual class is empty."""
    if c.tp + c.fn == 0 or c.tn + c.fp == 0:
        raise UndefinedRateError("empty actual-positive or actual-negative class")
    return c.tp / (c.tp + c.fn), c.tn / (c.tn + c.fp)


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


def sample_pair_indices(total: int, count: int, seed: int) -> list[int]:
    """Deterministic uniform sample without replacement (Floyd), sorted."""
    if count >= total:
        return list(range(total))
    rng = random.Random(seed)
    chosen: set[int] = set()
    for j in range(total - count, total):
        t = rng.randrange(j + 1)
        chosen.add(t if t not in chosen else j)
    return sorted(chosen)


def _distances(mat: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Euclidean distance between rows ``i[k]`` and ``j[k]`` of ``mat``.

    Pairs come in flat-index order, so ``i`` never decreases and ``j``
    rises within each run of equal ``i``.  Each run subtracts a block of
    its ``j`` rows from the broadcast row ``mat[i]``; rows with consecutive
    ``j`` (every block of an all-pairs run) are read in place, others are
    gathered first.  Each pair's sum runs over its own contiguous difference
    row, so a distance does not depend on the block size or on how pairs
    are split into work units.
    """
    out = np.empty(len(i))
    buf = np.empty((_BLOCK, mat.shape[1]))
    runs = np.flatnonzero(np.diff(i)) + 1
    for start, stop in zip([0, *runs.tolist()], [*runs.tolist(), len(i)]):
        for s in range(start, stop, _BLOCK):
            e = min(s + _BLOCK, stop)
            d = buf[: e - s]
            first, last = int(j[s]), int(j[e - 1])
            if last - first == e - s - 1:
                np.subtract(mat[i[s]], mat[first : last + 1], out=d)
            else:
                np.take(mat, j[s:e], axis=0, out=d)
                np.subtract(mat[i[s]], d, out=d)
            np.multiply(d, d, out=d)
            d.sum(axis=1, out=out[s:e])
    return np.sqrt(out, out=out)


_PAIR_MAT: np.ndarray | None = None


def _init_pair_worker(mat: np.ndarray) -> None:
    global _PAIR_MAT
    _PAIR_MAT = mat


def _pair_worker(ij: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    return _distances(_PAIR_MAT, *ij)


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
    order and results are identical for any ``jobs`` setting; ``jobs`` > 1
    starts a process pool only from 200,000 pairs on.  Raises ValueError
    naming the first pair whose score is not finite.
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
        ks = np.array(sample_pair_indices(total, sample, seed), dtype=np.int64)
    else:
        ks = np.arange(total, dtype=np.int64)
    i, j = (a.astype(np.int32) for a in pairs_from_indices(ks, n))
    if jobs > 1 and len(i) >= _POOL_MIN_PAIRS:
        units = [(i[s : s + _CHUNK], j[s : s + _CHUNK]) for s in range(0, len(i), _CHUNK)]
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_pair_worker, initargs=(mat,)
        ) as pool:
            scores = np.concatenate(list(pool.map(_pair_worker, units)))
    else:
        scores = _distances(mat, i, j)
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
    :class:`MissingLabelError` is raised.  A score that is not finite (nan,
    inf) raises :class:`ValueError` naming the row.
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
        try:
            s = float(parts[2].strip())
        except ValueError:
            if first:
                first = False
                continue
            raise
        first = False
        if not math.isfinite(s):
            raise ValueError(f"score row has a non-finite score: {raw!r}")
        a, b = parts[0].strip(), parts[1].strip()
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
