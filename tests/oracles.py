"""Reference implementations the tests compare the program against.

None of these run in the program: each is the plain form of something the
program computes another way.
"""

import math
from dataclasses import dataclass

import numpy as np

from comogphog.evalstats import PairScores, Polarity
from comogphog.features import quantize_orientations
from comogphog.imageops import cubic_kernel


def resample_weights_loop(n_src, n_dst):
    """The dense (n_dst, n_src) cubic weights, one ``np.add.at`` per row.

    Output samples sit on half-pixel centers, source index
    s = (i + 0.5) * n_src / n_dst - 0.5; the four taps around s are
    clipped into range, which replicates edge samples.
    """
    w = np.zeros((n_dst, n_src))
    scale = n_src / n_dst
    for i in range(n_dst):
        s = (i + 0.5) * scale - 0.5
        i0 = int(np.floor(s))
        t = s - i0
        taps = np.arange(i0 - 1, i0 + 3)
        weights = cubic_kernel(t - (taps - i0))
        np.add.at(w[i], np.clip(taps, 0, n_src - 1), weights)
    return w


def haar_expression(img):
    """One Haar level as the plain four-term expression."""
    return (img[0::2, 0::2] + img[0::2, 1::2] + img[1::2, 0::2] + img[1::2, 1::2]) / 4.0


def bicubic_resize(img, out_h, out_w, clamp=True):
    """Separable cubic-convolution resampling (a = -0.5) with replicated edges.

    The dense ``w_rows @ img @ w_cols.T``; a square input resized to a
    square output uses one weight matrix for both.  ``clamp`` clips the
    result into [0, 1] (cubic interpolation can overshoot).
    """
    img = np.asarray(img, dtype=np.float64)
    wr = resample_weights_loop(img.shape[0], out_h)
    if (img.shape[1], out_w) == (img.shape[0], out_h):
        wc = wr
    else:
        wc = resample_weights_loop(img.shape[1], out_w)
    out = wr @ img @ wc.T
    if clamp:
        np.clip(out, 0.0, 1.0, out=out)
    return out


def normalize_size_tiled(img, size=128, block=256):
    """``normalize_size`` tile by tile, with bands cut from the dense weights.

    The p x p upsample is cut into bands of b = max(block, p / size) rows
    and columns.  Each band keeps only the source columns where its rows of
    the dense loop matrix are non-zero; tile (i, j) is
    ``(w_i @ img[band i]) @ w_j.T`` over those columns, clamped and halved
    to (b / f) x (b / f) pixels, f = p / size.
    """
    n = img.shape[0]
    p = max(size, 1 << (n - 1).bit_length())
    f = p // size
    b = min(max(block, f), p)
    w = resample_weights_loop(n, p)
    bands = []
    for lo in range(0, p, b):
        support = np.flatnonzero(w[lo : lo + b].any(axis=0))
        c0, c1 = support[0], support[-1] + 1
        bands.append((c0, c1, np.ascontiguousarray(w[lo : lo + b, c0:c1])))
    g = b // f
    out = np.empty((size, size))
    for i, (r0, r1, wr) in enumerate(bands):
        half = wr @ img[r0:r1]
        for j, (c0, c1, wc) in enumerate(bands):
            tile = np.clip(half[:, c0:c1] @ wc.T, 0.0, 1.0)
            while tile.shape[0] > g:
                tile = haar_expression(tile)
            out[i * g : (i + 1) * g, j * g : (j + 1) * g] = tile
    return out


def phog_by_cell(field, bins, levels, length):
    """The pyramid block, one bincount per quad-tree cell.

    The byte oracle for ``phog``, which tallies each level in one pass;
    ``length=None`` leaves the concatenation unpadded.
    """
    size = field.shape[0]
    quant = quantize_orientations(field, bins)
    weight = np.where(quant.valid, field.magnitude, 0.0)
    cells = []
    for level in range(levels + 1):
        step = size >> level
        for r in range(0, size, step):
            for c in range(0, size, step):
                wb = weight[r : r + step, c : c + step].ravel()
                bb = quant.bin[r : r + step, c : c + step].ravel()
                cells.append(np.bincount(bb, weights=wb, minlength=bins))
    hist = np.concatenate(cells)
    if length is not None:
        hist = np.concatenate([hist, np.zeros(length - hist.size)])
    total = hist.sum()
    if total > 0.0:
        hist /= total
    return hist


def pair_from_index(k, n):
    """Decode flat index k in [0, n*(n-1)/2) to the k-th pair (i, j), i < j.

    Pairs are ordered lexicographically: (0,1), (0,2), ..., (1,2), ...
    Integer binary search keeps the decoding exact for any n.
    """
    if not 0 <= k < n * (n - 1) // 2:
        raise ValueError(f"pair index {k} out of range for n={n}")
    lo, hi = 0, n - 1
    while lo < hi:  # largest i whose preceding rows hold <= k pairs
        mid = (lo + hi + 1) // 2
        if mid * (n - 1) - mid * (mid - 1) // 2 <= k:
            lo = mid
        else:
            hi = mid - 1
    before = lo * (n - 1) - lo * (lo - 1) // 2
    return lo, lo + 1 + (k - before)


def family_match(a, b):
    """True when all four levels (class, fold, superfamily, family) agree."""
    return superfamily_match(a, b) and a.family == b.family


def superfamily_match(a, b):
    """True when class, fold and superfamily agree (family may differ)."""
    return (
        a.sccs_class == b.sccs_class
        and a.fold == b.fold
        and a.superfamily == b.superfamily
    )


def pairs_from_rows(rows):
    """A PairScores of ``(id_a, id_b, score, is_match)`` rows, in row order.

    The id table lists each id once, in order of first appearance.
    """
    index = {}
    i, j, score, match = [], [], [], []
    for a, b, s, m in rows:
        i.append(index.setdefault(a, len(index)))
        j.append(index.setdefault(b, len(index)))
        score.append(s)
        match.append(m)
    return PairScores(
        ids=list(index),
        i=np.array(i, dtype=np.int32),
        j=np.array(j, dtype=np.int32),
        score=np.array(score, dtype=np.float64),
        match=np.array(match, dtype=bool),
    )


def pairs_from(scores, matches):
    """A PairScores of pairs ``(a<k>, b<k>)`` with the given scores and matches."""
    n = len(scores)
    return PairScores(
        ids=[f"a{k}" for k in range(n)] + [f"b{k}" for k in range(n)],
        i=np.arange(n, dtype=np.int32),
        j=np.arange(n, 2 * n, dtype=np.int32),
        score=np.array(scores, dtype=np.float64),
        match=np.array(matches, dtype=bool),
    )


def pair_rows(pairs):
    """The ``(id_a, id_b, score, is_match)`` rows of a PairScores, as Python values."""
    ids = pairs.ids
    return [
        (ids[a], ids[b], s, m)
        for a, b, s, m in zip(
            pairs.i.tolist(), pairs.j.tolist(), pairs.score.tolist(), pairs.match.tolist()
        )
    ]


def assert_same_pairs(got, expected):
    """Both hold the same id pairs and matches in the same order, with the same score bits.

    Either side is a PairScores or a list of ``(id_a, id_b, score, is_match)``
    rows; the id tables may differ.
    """
    got, expected = (p if isinstance(p, list) else pair_rows(p) for p in (got, expected))
    assert len(got) == len(expected)
    assert [r[:2] for r in got] == [r[:2] for r in expected]
    assert [r[3] for r in got] == [r[3] for r in expected]
    assert (
        np.array([r[2] for r in got]).tobytes()
        == np.array([r[2] for r in expected]).tobytes()
    )


@dataclass(frozen=True)
class ConfusionCounts:
    """One 2x2 table of predicted against actual matches."""

    tp: int
    tn: int
    fp: int
    fn: int


def mcc(c):
    """Matthews correlation coefficient of one ConfusionCounts, in Python ints.

    (tp*tn - fp*fn) / sqrt((tp+fp)(tp+fn)(tn+fp)(tn+fn)), defined as 0
    whenever any marginal of the table is empty.  The program computes a
    whole column of these at once in ``mcc_curve``.
    """
    d1 = c.tp + c.fp
    d2 = c.tp + c.fn
    d3 = c.tn + c.fp
    d4 = c.tn + c.fn
    if 0 in (d1, d2, d3, d4):
        return 0.0
    num = c.tp * c.tn - c.fp * c.fn
    return num / math.sqrt(float(d1) * d2 * d3 * d4)


def confusion_at_threshold(pairs, threshold, polarity):
    """Tally the 2x2 table of a PairScores at one decision threshold.

    With LOWER_IS_SIMILAR a pair is predicted a match iff score <= threshold;
    with HIGHER_IS_SIMILAR iff score >= threshold.  The MCC oracle: the
    program tallies every threshold at once in ``mcc_curve``.
    """
    if not len(pairs):
        raise ValueError("no pairs to tally")
    if polarity is Polarity.LOWER_IS_SIMILAR:
        pred = pairs.score <= threshold
    else:
        pred = pairs.score >= threshold
    match = pairs.match
    tp = int(np.count_nonzero(pred & match))
    fp = int(np.count_nonzero(pred & ~match))
    fn = int(np.count_nonzero(~pred & match))
    tn = len(pairs) - tp - fp - fn
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def adversarial_sets():
    """(name, vectors, query) cases for the exact-distance oracles.

    300 vectors of 1024 values each: random, duplicated rows, subnormal,
    near 1e150 and one ulp apart.
    """
    rng = np.random.default_rng(11)
    base = rng.random((300, 1024))
    yield "random", base, rng.random(1024)
    dup = base[rng.integers(0, 20, size=300)]
    yield "duplicates", dup, dup[0].copy()
    denormal = rng.integers(0, 50, size=(300, 1024)) * 5e-324
    yield "denormals", denormal, denormal[3].copy()
    huge = rng.uniform(-1.0, 1.0, size=(300, 1024)) * 1e150
    yield "near 1e150", huge, huge[7] * 0.5
    ulp = np.repeat(base[:1], 300, axis=0)
    for r in range(1, 300):
        c = rng.integers(0, 1024, size=r % 7 + 1)
        ulp[r, c] = np.nextafter(ulp[r, c], np.inf if r % 2 else -np.inf)
    yield "one ulp apart", ulp, base[0].copy()
