import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comogphog import evalstats
from comogphog.evalstats import (
    ConfusionCounts,
    DegenerateRangeError,
    MissingLabelError,
    Polarity,
    SingleClassError,
    UndefinedRateError,
    auc,
    default_thresholds,
    mcc,
    mcc_curve,
    pair_count,
    pairs_from_indices,
    pvalue_curve,
    read_score_file,
    roc_curve,
    sample_pair_indices,
    score_pairs,
    sensitivity_specificity,
    write_curve_csv,
)
from comogphog.featuredb import FeatureStore
from comogphog.features import FEATURE_LENGTH, FeatureVector
from comogphog.scoring import score
from comogphog.structure_io import parse_scop_label
from oracles import (
    adversarial_sets,
    assert_same_pairs,
    confusion_at_threshold,
    family_match,
    pair_from_index,
    pair_rows,
    pairs_from,
    superfamily_match,
)

LOWER = Polarity.LOWER_IS_SIMILAR
HIGHER = Polarity.HIGHER_IS_SIMILAR


def random_pairs(rng, n, match_rate=0.4):
    return pairs_from(rng.random(n), rng.random(n) < match_rate)


# --- confusion tallies (mcc_curve's, read at one threshold) ---


def tally(pairs, threshold, polarity):
    """The table mcc_curve computed its point at ``threshold`` from."""
    _, _, tp, fp = mcc_curve(pairs, polarity, [threshold])
    n, m = len(pairs), int(np.count_nonzero(pairs.match))
    tp, fp = int(tp[0]), int(fp[0])
    return ConfusionCounts(tp=tp, tn=n - m - fp, fp=fp, fn=m - tp)


def test_confusion_saturation_low_threshold():
    pairs = pairs_from([0.2, 0.4, 0.6], [True, False, True])
    c = tally(pairs, 0.1, LOWER)
    assert (c.tp, c.fp) == (0, 0)
    assert (c.fn, c.tn) == (2, 1)


def test_confusion_saturation_high_threshold():
    pairs = pairs_from([0.2, 0.4, 0.6], [True, True, True])
    c = tally(pairs, 1.0, LOWER)
    assert (c.tp, c.tn, c.fp, c.fn) == (3, 0, 0, 0)


def test_confusion_threshold_is_inclusive():
    pairs = pairs_from([0.5], [True])
    assert tally(pairs, 0.5, LOWER).tp == 1
    assert tally(pairs, 0.5, HIGHER).tp == 1


def test_confusion_matches_enumeration_oracle():
    pairs = pairs_from(
        [0.1, 0.25, 0.3, 0.55, 0.7, 0.9],
        [True, True, False, True, False, False],
    )
    t = 0.5
    for pol in (LOWER, HIGHER):
        tp = tn = fp = fn = 0
        for _, _, s, is_match in pair_rows(pairs):
            pred = s <= t if pol is LOWER else s >= t
            if pred and is_match:
                tp += 1
            elif pred and not is_match:
                fp += 1
            elif not pred and is_match:
                fn += 1
            else:
                tn += 1
        for got in (tally(pairs, t, pol), confusion_at_threshold(pairs, t, pol)):
            assert (got.tp, got.tn, got.fp, got.fn) == (tp, tn, fp, fn)


# --- mcc ---


def test_mcc_examples():
    assert mcc(ConfusionCounts(tp=1, tn=1, fp=0, fn=0)) == 1.0
    assert mcc(ConfusionCounts(tp=1, tn=1, fp=1, fn=1)) == 0.0
    got = mcc(ConfusionCounts(tp=2, tn=3, fp=1, fn=1))
    assert got == pytest.approx(5.0 / 12.0, abs=1e-15)


def test_mcc_degenerate_margins_are_zero():
    assert mcc(ConfusionCounts(tp=0, tn=5, fp=0, fn=3)) == 0.0
    assert mcc(ConfusionCounts(tp=0, tn=0, fp=0, fn=0)) == 0.0


@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
def test_mcc_bounded(tp, tn, fp, fn):
    v = mcc(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
    assert -1.0 <= v <= 1.0


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_mcc_sign_antisymmetry(tp, tn, fp, fn):
    base = mcc(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
    labels_flipped = mcc(ConfusionCounts(tp=fp, tn=fn, fp=tp, fn=tn))
    preds_flipped = mcc(ConfusionCounts(tp=fn, tn=fp, fp=tn, fn=tp))
    assert labels_flipped == pytest.approx(-base, abs=1e-15)
    assert preds_flipped == pytest.approx(-base, abs=1e-15)


# --- mcc curve ---


def test_mcc_curve_matches_per_threshold_oracle():
    rng = np.random.default_rng(3)
    pairs = random_pairs(rng, 20)
    thresholds = sorted(rng.random(15))
    for pol in (LOWER, HIGHER):
        got_t, got_v, tp, fp = mcc_curve(pairs, pol, thresholds)
        assert got_t.dtype == got_v.dtype == np.float64
        assert len(got_t) == len(got_v) == len(tp) == len(fp) == len(thresholds)
        for t, v, t_in, a, b in zip(got_t.tolist(), got_v.tolist(), thresholds, tp, fp):
            assert t == t_in
            expected = confusion_at_threshold(pairs, t, pol)
            assert v == mcc(expected)
            assert (a, b) == (expected.tp, expected.fp)


def test_mcc_curve_separable_reaches_one():
    pairs = pairs_from([0.1, 0.12, 0.15, 0.8, 0.85, 0.9], [1, 1, 1, 0, 0, 0])
    _, values, _, _ = mcc_curve(pairs, LOWER, [0.5])
    assert values[0] == 1.0


def test_mcc_curve_no_signal_stays_small():
    rng = np.random.default_rng(2026)
    pairs = random_pairs(rng, 10_000, match_rate=0.3)
    _, values, _, _ = mcc_curve(pairs, LOWER, default_thresholds(pairs, 200))
    assert max(abs(values)) < 0.2


# --- pvalue curve ---


def test_pvalue_hand_counts():
    # range pinned to [0, 1] by the extreme scores: 5 bins of width 0.2
    scores = [0.0, 0.1, 0.15, 0.25, 0.3, 0.45, 0.5, 0.85, 0.9, 1.0]
    match = [True, True, False, True, False, True, False, False, False, False]
    centers, prob, count = pvalue_curve(pairs_from(scores, match), 5)
    assert len(centers) == len(prob) == len(count) == 5
    assert np.allclose(centers, [0.1, 0.3, 0.5, 0.7, 0.9])
    assert count.tolist() == [3, 2, 2, 0, 3]
    assert prob[0] == pytest.approx(2 / 3)
    assert prob[1] == pytest.approx(1 / 2)
    assert prob[2] == pytest.approx(1 / 2)
    assert math.isnan(prob[3])
    assert prob[4] == 0.0


def test_pvalue_all_match_bin_is_one():
    _, prob, _ = pvalue_curve(pairs_from([0.0, 0.01, 1.0], [1, 1, 0]), 2)
    assert prob[0] == 1.0


def test_pvalue_degenerate_range():
    with pytest.raises(DegenerateRangeError):
        pvalue_curve(pairs_from([0.4, 0.4, 0.4], [1, 0, 1]), 10)


def test_pvalue_law_of_total_probability():
    rng = np.random.default_rng(8)
    pairs = random_pairs(rng, 500)
    _, prob, count = pvalue_curve(pairs, 37)
    # reconstruct per-bin match counts; they must sum to the global count
    rows = [(p, c) for p, c in zip(prob.tolist(), count.tolist()) if c]
    recovered = sum(round(p * c) for p, c in rows)
    assert recovered == sum(pairs.match.tolist())
    weighted = sum(p * c for p, c in rows) / len(pairs)
    assert weighted == pytest.approx(np.mean(pairs.match.tolist()), abs=1e-12)


@pytest.mark.parametrize("grid", [pvalue_curve, default_thresholds])
def test_bin_grid_refuses_a_range_that_overflows(grid):
    # both scores are finite, but max - min is not
    pairs = pairs_from([-1e308, 0.0, 1e308], [1, 0, 1])
    with pytest.raises(ValueError, match=r"score range \[-1e\+308, 1e\+308\]"):
        grid(pairs, 10)


def test_pvalue_extreme_scores_land_in_end_bins():
    pairs = pairs_from([0.0, 0.5, 1.0], [1, 0, 1])
    _, _, count = pvalue_curve(pairs, 4)
    assert count[0] == 1
    assert count[-1] == 1


# --- roc / auc ---


def mann_whitney_auc(pairs, pol):
    """Probability a random match ranks more-similar than a random non-match,
    counting ties as half; written independently of roc_curve/auc."""
    ms = pairs.score[pairs.match].tolist()
    ns = pairs.score[~pairs.match].tolist()
    wins = 0.0
    for m in ms:
        for n in ns:
            if m == n:
                wins += 0.5
            elif (m < n) == (pol is LOWER):
                wins += 1.0
    return wins / (len(ms) * len(ns))


def test_roc_perfect_separation():
    pairs = pairs_from([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
    fpr, tpr = roc_curve(pairs, LOWER)
    assert (fpr[0], tpr[0]) == (0.0, 0.0)
    assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
    assert auc(fpr, tpr) == 1.0


def test_roc_identical_scores_is_diagonal():
    pairs = pairs_from([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    fpr, tpr = roc_curve(pairs, LOWER)
    assert fpr.tolist() == tpr.tolist() == [0.0, 1.0]
    assert auc(fpr, tpr) == 0.5


def test_roc_single_class():
    with pytest.raises(SingleClassError):
        roc_curve(pairs_from([0.1, 0.2], [1, 1]), LOWER)
    with pytest.raises(SingleClassError):
        roc_curve(pairs_from([0.1, 0.2], [0, 0]), LOWER)


def test_roc_monotone_and_exact_endpoints():
    rng = np.random.default_rng(5)
    for trial in range(10):
        pairs = random_pairs(rng, 60)
        for pol in (LOWER, HIGHER):
            fpr, tpr = roc_curve(pairs, pol)
            assert (fpr[0], tpr[0]) == (0.0, 0.0)
            assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
            xs = fpr.tolist()
            ys = tpr.tolist()
            assert all(a <= b for a, b in zip(xs, xs[1:]))
            assert all(a <= b for a, b in zip(ys, ys[1:]))


def test_auc_matches_mann_whitney():
    rng = np.random.default_rng(6)
    for trial in range(10):
        pairs = random_pairs(rng, 30)
        # duplicate a score to exercise tie handling
        pairs.score[3] = pairs.score[0]
        pairs.match[3] = not pairs.match[0]
        for pol in (LOWER, HIGHER):
            got = auc(*roc_curve(pairs, pol))
            assert got == pytest.approx(mann_whitney_auc(pairs, pol), abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(7)
    pairs = random_pairs(rng, 80)
    warped = dataclasses.replace(
        pairs, score=np.array([math.exp(3.0 * s) for s in pairs.score.tolist()])
    )
    assert auc(*roc_curve(warped, LOWER)) == auc(*roc_curve(pairs, LOWER))


def test_auc_trapezoid_hand_case():
    assert auc([0.0, 0.5, 1.0], [0.0, 1.0, 1.0]) == 0.75


# --- rates ---


def test_sensitivity_specificity_examples():
    assert sensitivity_specificity(ConfusionCounts(tp=3, fn=1, tn=5, fp=0)) == (0.75, 1.0)
    assert sensitivity_specificity(ConfusionCounts(tp=4, fn=0, tn=6, fp=0)) == (1.0, 1.0)
    assert sensitivity_specificity(ConfusionCounts(tp=2, fn=2, tn=1, fp=3)) == (0.5, 0.25)


def test_sensitivity_specificity_undefined():
    with pytest.raises(UndefinedRateError):
        sensitivity_specificity(ConfusionCounts(tp=0, fn=0, tn=1, fp=1))
    with pytest.raises(UndefinedRateError):
        sensitivity_specificity(ConfusionCounts(tp=1, fn=1, tn=0, fp=0))


# --- pair generation and store scoring ---


def test_pair_from_index_matches_combinations():
    for n in range(2, 9):
        expected = list(itertools.combinations(range(n), 2))
        got = [pair_from_index(k, n) for k in range(pair_count(n))]
        assert got == expected


def test_pair_from_index_range_check():
    with pytest.raises(ValueError):
        pair_from_index(6, 4)


def test_sampling_is_deterministic_and_valid():
    a = sample_pair_indices(1000, 50, seed=123)
    b = sample_pair_indices(1000, 50, seed=123)
    c = sample_pair_indices(1000, 50, seed=124)
    assert a.dtype == c.dtype == np.int64
    assert np.array_equal(a, b)
    assert len(a) == 50 == len(set(a.tolist()))
    assert all(0 <= k < 1000 for k in a)
    assert a.tolist() == sorted(a.tolist())
    assert not np.array_equal(a, c)
    full = sample_pair_indices(10, 99, seed=0)
    assert full.dtype == np.int64 and full.tolist() == list(range(10))


@pytest.fixture
def labeled_store():
    rng = np.random.default_rng(30)
    ids = ["d1", "d2", "d3", "d4", "d5"]
    sccs = ["a.1.1.1", "a.1.1.1", "a.1.1.2", "b.2.1.1", "a.1.1.1"]
    store = FeatureStore(
        entries=[FeatureVector(id=i, values=rng.random(FEATURE_LENGTH)) for i in ids]
    )
    labels = {i: parse_scop_label(i, s) for i, s in zip(ids, sccs)}
    return store, labels


def test_score_pairs_all_pairs(labeled_store):
    store, labels = labeled_store
    pairs = score_pairs(store, labels)
    assert len(pairs) == pair_count(5)
    by_key = {(a, b): (s, m) for a, b, s, m in pair_rows(pairs)}
    assert set(by_key) == set(itertools.combinations(sorted(store.ids()), 2))
    vecs = {e.id: e for e in store.entries}
    for (a, b), (s, _) in by_key.items():
        assert s == pytest.approx(score(vecs[a], vecs[b]), rel=1e-12)
    assert by_key[("d1", "d2")][1]
    assert by_key[("d1", "d5")][1]
    assert not by_key[("d1", "d3")][1]
    assert not by_key[("d3", "d4")][1]


def test_score_pairs_superfamily_level(labeled_store):
    store, labels = labeled_store
    pairs = score_pairs(store, labels, level="superfamily")
    by_key = {(a, b): m for a, b, _, m in pair_rows(pairs)}
    assert by_key[("d1", "d3")]  # same superfamily, different family
    assert not by_key[("d1", "d4")]


def test_score_pairs_jobs_identical(labeled_store):
    store, labels = labeled_store
    assert_same_pairs(score_pairs(store, labels), score_pairs(store, labels, jobs=2))


def test_score_pairs_jobs_identical_across_chunks(monkeypatch):
    # enough entries that the pair list spans several work chunks, and the
    # pool threshold lowered so that the parallel path really runs
    monkeypatch.setattr(evalstats, "_POOL_MIN_PAIRS", 0)
    rng = np.random.default_rng(31)
    n = 135
    label = parse_scop_label("any", "c.2.1.1")
    store = FeatureStore(
        entries=[
            FeatureVector(id=f"e{i:03d}", values=rng.random(FEATURE_LENGTH))
            for i in range(n)
        ]
    )
    labels = {e.id: label for e in store.entries}
    serial = score_pairs(store, labels)
    parallel = score_pairs(store, labels, jobs=2)
    assert len(serial) == pair_count(n)
    assert_same_pairs(serial, parallel)


class CountingPool(evalstats.ProcessPoolExecutor):
    started = 0

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)


@pytest.fixture(scope="module")
def threshold_store():
    # just over the pool threshold in pairs, so a sample can straddle it
    rng = np.random.default_rng(33)
    n = 1096
    assert pair_count(n) > evalstats._POOL_MIN_PAIRS + 1
    store = FeatureStore(
        entries=[FeatureVector(id=f"t{k:03d}", values=rng.random(FEATURE_LENGTH)) for k in range(n)]
    )
    sccs = ["a.1.1.1", "a.1.1.2", "b.1.1.1"]
    labels = {e.id: parse_scop_label(e.id, sccs[k % 3]) for k, e in enumerate(store.entries)}
    return store, labels


@pytest.mark.parametrize("offset,pooled", [(-1, 0), (0, 1), (1, 1)])
def test_score_pairs_pool_threshold_keeps_bytes(threshold_store, monkeypatch, offset, pooled):
    store, labels = threshold_store
    monkeypatch.setattr(evalstats, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "started", 0)
    sample = evalstats._POOL_MIN_PAIRS + offset
    serial = score_pairs(store, labels, sample=sample, seed=4)
    assert CountingPool.started == 0
    parallel = score_pairs(store, labels, sample=sample, seed=4, jobs=2)
    assert CountingPool.started == pooled
    assert len(serial) == len(parallel) == sample
    assert parallel.score.tobytes() == serial.score.tobytes()
    assert_same_pairs(parallel, serial)


def test_score_pairs_sampling(labeled_store):
    store, labels = labeled_store
    sampled = score_pairs(store, labels, sample=4, seed=9)
    assert len(sampled) == 4
    assert_same_pairs(sampled, score_pairs(store, labels, sample=4, seed=9))
    full = {row[:2]: row for row in pair_rows(score_pairs(store, labels))}
    for row in pair_rows(sampled):
        assert full[row[:2]] == row


def test_score_pairs_missing_label(labeled_store):
    store, labels = labeled_store
    del labels["d3"]
    with pytest.raises(MissingLabelError):
        score_pairs(store, labels)


# --- external score files ---


def test_read_score_file(labeled_store):
    _, labels = labeled_store
    text = "\n".join(
        [
            "id_a,id_b,score",
            "# comment",
            "d1,d2,0.25",
            "d1,d3, 3.5 ",
            "",
            "d4,d5,-1.0",
        ]
    )
    pairs = read_score_file(text, labels)
    assert pair_rows(pairs) == [
        ("d1", "d2", 0.25, True),
        ("d1", "d3", 3.5, False),
        ("d4", "d5", -1.0, False),
    ]


def test_read_score_file_missing_label(labeled_store):
    _, labels = labeled_store
    with pytest.raises(MissingLabelError):
        read_score_file("d1,zz,0.5\n", labels)


def test_read_score_file_bad_rows(labeled_store):
    _, labels = labeled_store
    with pytest.raises(ValueError):
        read_score_file("d1,d2\n", labels)
    # only the first row may be a header; a later bad score names its row
    with pytest.raises(ValueError, match="'d1,d3,oops'"):
        read_score_file("d1,d2,0.5\nd1,d3,oops\n", labels)
    with pytest.raises(ValueError, match="'d1,d3,x'"):
        read_score_file("id_a,id_b,score\nd1,d2,0.5\nd1,d3,x\n", labels)


def test_write_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(path, "mcc", LOWER, [0.25, 0.75], [0.5, float("nan")], [10, 0])
    lines = path.read_text().splitlines()
    assert lines[0] == "mcc:lower,value,count"
    assert lines[1] == "0.25,0.5,10"
    assert lines[2] == "0.75,nan,0"


def test_read_score_file_non_finite(labeled_store):
    _, labels = labeled_store
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f"d1,d3,{bad}"):
            read_score_file(f"d1,d2,0.5\nd1,d3,{bad}\n", labels)


# --- exactness oracles: the per-pair implementation, kept as the reference ---


def reference_score_pairs(store, labels, level="family", sample=None, seed=0):
    """One (id_a, id_b, score, is_match) row per pair: scalar decoding,
    per-pair label comparison and ``score()`` of each pair."""
    entries = sorted(store.entries, key=lambda e: e.id)
    match = family_match if level == "family" else superfamily_match
    n = len(entries)
    total = pair_count(n)
    if sample is not None and sample < total:
        ks = sample_pair_indices(total, sample, seed).tolist()
    else:
        ks = list(range(total))
    out = []
    for k in ks:
        a, b = (entries[x] for x in pair_from_index(k, n))
        out.append((a.id, b.id, score(a, b), match(labels[a.id], labels[b.id])))
    return out


@pytest.fixture(scope="module")
def oracle_store():
    # more pairs than one work unit, so jobs=2 runs the pool once its size
    # threshold is lowered; labels spread over classes, folds,
    # superfamilies and families
    rng = np.random.default_rng(32)
    n = 140
    ids = [f"s{k:03d}" for k in rng.permutation(n)]
    store = FeatureStore(
        entries=[FeatureVector(id=i, values=rng.random(FEATURE_LENGTH)) for i in ids]
    )
    sccs = ["a.1.1.1", "a.1.1.2", "a.1.2.1", "a.2.1.1", "b.1.1.1", "b.1.1.2", "c.3.1.1"]
    labels = {i: parse_scop_label(i, sccs[k % len(sccs)]) for k, i in enumerate(ids)}
    return store, labels


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"level": "superfamily"},
        {"jobs": 2},
        {"sample": 3000, "seed": 0},
        {"sample": 3000, "seed": 1},
        {"sample": 500, "seed": 2, "level": "superfamily"},
        {"sample": 9000, "seed": 5, "jobs": 2},
    ],
)
def test_score_pairs_matches_per_pair_reference(oracle_store, kwargs, monkeypatch):
    monkeypatch.setattr(evalstats, "_POOL_MIN_PAIRS", 0)
    store, labels = oracle_store
    got = score_pairs(store, labels, **kwargs)
    kwargs.pop("jobs", None)
    expected = reference_score_pairs(store, labels, **kwargs)
    assert_same_pairs(got, expected)
    assert any(m for _, _, _, m in expected)


@pytest.mark.parametrize("case", ["all", "gaps", "sampled", "one_pair", "none"])
def test_distances_match_one_block_of_all_pairs(case):
    # every pair equals score(), whether its run of equal i is whole, cut
    # by a gap in j (at a block boundary or inside a block), sampled, one
    # pair long or absent
    rng = np.random.default_rng(38)
    n = 90
    mat = rng.random((n, FEATURE_LENGTH))
    ks = np.arange(pair_count(n))
    if case == "gaps":
        ks = np.delete(ks, [5, 31, 32, 63, 64, 65, 200, 1000, len(ks) - 2])
    elif case == "sampled":
        ks = np.sort(rng.choice(len(ks), size=300, replace=False))
    elif case == "one_pair":
        ks = ks[17:18]
    elif case == "none":
        ks = ks[:0]
    i, j = (a.astype(np.int32) for a in pairs_from_indices(ks, n))
    expected = np.array([score(mat[a], mat[b]) for a, b in zip(i.tolist(), j.tolist())])
    db = FeatureStore(ids=[f"r{k:02d}" for k in range(n)], matrix=mat)
    assert evalstats._pair_distances(db, i, j).tobytes() == expected.tobytes()


@pytest.mark.parametrize("mode", ["all", "sampled", "jobs2"])
@pytest.mark.parametrize("case", list(adversarial_sets()), ids=lambda c: c[0])
def test_score_pairs_equal_score_bit_for_bit(case, mode, monkeypatch):
    # evaluate, score and search share one kernel: every pair's distance
    # is score() of its two vectors, to the last bit
    _, vectors, _ = case
    monkeypatch.setattr(evalstats, "_POOL_MIN_PAIRS", 0)
    ids = [f"e{k:03d}" for k in range(len(vectors))]
    store = FeatureStore(ids=ids, matrix=vectors)
    sccs = ["a.1.1.1", "a.1.1.2", "b.1.1.1"]
    labels = {sid: parse_scop_label(sid, sccs[k % 3]) for k, sid in enumerate(ids)}
    kwargs = {"all": {}, "sampled": {"sample": 5000, "seed": 3}, "jobs2": {"jobs": 2}}[mode]
    pairs = score_pairs(store, labels, **kwargs)
    assert len(pairs) == kwargs.get("sample", pair_count(len(ids)))
    got = [float.hex(s) for s in pairs.score.tolist()]
    ij = zip(pairs.i.tolist(), pairs.j.tolist())
    want = [float.hex(score(vectors[a], vectors[b])) for a, b in ij]
    assert got == want


def test_pairs_from_indices_every_index():
    for n in range(2, 41):
        ks = np.arange(pair_count(n))
        i, j = pairs_from_indices(ks, n)
        assert list(zip(i.tolist(), j.tolist())) == [pair_from_index(k, n) for k in range(len(ks))]


def test_pairs_from_indices_beyond_int32():
    n = 200_000
    assert pair_count(n) > 2**31
    rows = np.random.default_rng(33).integers(0, n - 1, size=50)
    starts = [r * (n - 1) - r * (r - 1) // 2 for r in rows.tolist()]
    ks = [k for s, r in zip(starts, rows.tolist()) for k in (s, s + n - 2 - r)]
    i, j = pairs_from_indices(np.array(ks), n)
    assert list(zip(i.tolist(), j.tolist())) == [pair_from_index(k, n) for k in ks]


def test_pairs_from_indices_range_check():
    with pytest.raises(ValueError):
        pairs_from_indices(np.array([6]), 4)
    with pytest.raises(ValueError):
        pairs_from_indices(np.array([-1]), 4)


def reference_roc(pairs, pol):
    """Walk the pairs from most to least similar, one point per distinct score."""
    rows = sorted(
        zip(pairs.score.tolist(), pairs.match.tolist()),
        key=lambda row: row[0],
        reverse=pol is HIGHER,
    )
    n_match = sum(m for _, m in rows)
    n_non = len(rows) - n_match
    points = [(0.0, 0.0)]
    tp = fp = 0
    for k, (s, m) in enumerate(rows):
        tp += m
        fp += not m
        if k == len(rows) - 1 or rows[k + 1][0] != s:
            points.append((fp / n_non, tp / n_match))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


def test_roc_matches_scalar_reference():
    rng = np.random.default_rng(34)
    for trial in range(6):
        # scores on a coarse grid, so many are tied
        n = 400
        scores = rng.integers(0, 37, size=n) / 8.0
        pairs = pairs_from(scores, rng.random(n) < 0.3)
        for pol in (LOWER, HIGHER):
            expected = [(x.hex(), y.hex()) for x, y in reference_roc(pairs, pol)]
            fpr, tpr = roc_curve(pairs, pol)
            assert [(x.hex(), y.hex()) for x, y in zip(fpr.tolist(), tpr.tolist())] == expected


def test_roc_curve_is_two_float64_columns():
    pairs = pairs_from([0.1, 0.2, 0.2, 0.9], [1, 0, 1, 0])
    fpr, tpr = roc_curve(pairs, LOWER)
    assert fpr.dtype == tpr.dtype == np.float64
    assert fpr.tolist() == [0.0, 0.0, 0.5, 1.0]
    assert tpr.tolist() == [0.0, 0.5, 1.0, 1.0]


def reference_auc(points):
    """The point-by-point trapezoid loop, kept as the reference for auc's bits."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def test_auc_matches_loop_reference_bit_for_bit():
    rng = np.random.default_rng(40)
    for trial in range(300):
        n = int(rng.integers(20, 400))
        # scores on a coarse grid, so many are tied
        scores = rng.integers(0, int(rng.integers(2, 60)), size=n) / 7.0
        matches = rng.random(n) < rng.uniform(0.05, 0.6)
        matches[:2] = [True, False]
        for pol in (LOWER, HIGHER):
            fpr, tpr = roc_curve(pairs_from(scores, matches), pol)
            expected = reference_auc(list(zip(fpr.tolist(), tpr.tolist()))).hex()
            assert auc(fpr, tpr).hex() == expected
            assert auc(fpr.tolist(), tpr.tolist()).hex() == expected


@pytest.mark.parametrize(
    "points",
    [
        [],
        [(0.5, 0.5)],
        [(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)],
        [[0.0, 0.0], [0.25, 0.5], [1.0, 1.0]],
        [(0.0, -1.0), (0.0, -1.0)],  # a -0.0 term
    ],
)
def test_auc_of_plain_lists_matches_loop_reference(points):
    fpr = [x for x, _ in points]
    tpr = [y for _, y in points]
    assert auc(fpr, tpr).hex() == reference_auc(points).hex()


def reference_write_curve_csv(path, metric, polarity, rows):
    """The per-row writer, kept as the reference for write_curve_csv's bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{metric}:{polarity.value},value,count\n")
        for x, value, count in rows:
            fh.write(f"{x:.17g},{value:.17g},{count}\n")


SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-5, 9.9999e-5, 1e16, 1e17, 1 / 3
]


@pytest.mark.parametrize("scalar_count", [True, False], ids=["scalar_count", "count_column"])
def test_write_curve_csv_matches_per_row_reference(tmp_path, scalar_count):
    rng = np.random.default_rng(39)
    special = np.array(SPECIAL_FLOATS)
    values = np.concatenate([special, -special, rng.random(50), -rng.random(50) * 1e300])
    n = 2 * evalstats._CSV_CHUNK + 123
    x = rng.choice(values, size=n)
    value = rng.choice(values, size=n)
    count = 7 if scalar_count else rng.integers(0, 10**12, size=n)
    counts = [count] * n if scalar_count else count.tolist()
    write_curve_csv(tmp_path / "got.csv", "roc", HIGHER, x, value, count)
    reference_write_curve_csv(
        tmp_path / "want.csv", "roc", HIGHER, zip(x.tolist(), value.tolist(), counts)
    )
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_roc_auc_and_csv_memory_bound(tmp_path):
    # columns, not one tuple per point, and the CSV formatted a chunk at a time
    rng = np.random.default_rng(41)
    n = 200_000
    pairs = pairs_from(rng.random(n), rng.random(n) < 0.05)

    def traced_peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (fpr, tpr), roc_peak = traced_peak(lambda: roc_curve(pairs, LOWER))
    _, auc_peak = traced_peak(lambda: auc(fpr, tpr))
    _, csv_peak = traced_peak(
        lambda: write_curve_csv(tmp_path / "roc.csv", "roc", LOWER, fpr, tpr, 0)
    )
    assert len(fpr) == len(tpr) == n + 1
    for name, peak in (("roc_curve", roc_peak), ("auc", auc_peak), ("csv", csv_peak)):
        assert peak <= 16 * 2**20, f"{name}: peak traced allocation {peak / 2**20:.1f} MB"


def reference_read_score_file(text, labels, level="family"):
    match = family_match if level == "family" else superfamily_match
    pairs = []
    first = True
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            s = float(parts[2])
        except ValueError:
            if first:
                first = False
                continue
            raise
        first = False
        a, b = parts[0], parts[1]
        pairs.append((a, b, s, match(labels[a], labels[b])))
    return pairs


@pytest.mark.parametrize("level", ["family", "superfamily"])
def test_read_score_file_matches_per_row_reference(oracle_store, level):
    _, labels = oracle_store
    rng = np.random.default_rng(35)
    ids = sorted(labels)
    lines = ["# written by another tool", "id_a , id_b , score", ""]
    for _ in range(2000):
        a, b = rng.choice(len(ids), size=2, replace=False)
        lines.append(f" {ids[a]},{ids[b]}, {rng.normal() * 10:.17g}")
        if rng.random() < 0.05:
            lines.append("# comment")
    text = "\n".join(lines) + "\n"
    assert_same_pairs(
        read_score_file(text, labels, level=level),
        reference_read_score_file(text, labels, level=level),
    )


def test_score_pairs_memory_bound():
    rng = np.random.default_rng(36)
    n = 300
    store = FeatureStore(
        entries=[
            FeatureVector(id=f"e{k:03d}", values=rng.random(FEATURE_LENGTH)) for k in range(n)
        ]
    )
    labels = {
        e.id: parse_scop_label(e.id, f"a.1.1.{k % 40 + 1}") for k, e in enumerate(store.entries)
    }
    tracemalloc.start()
    try:
        pairs = score_pairs(store, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == pair_count(n)
    assert peak <= 32 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"
