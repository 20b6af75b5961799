"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Each test re-derives its expected values from scratch (scalar reference
implementations, exact arithmetic, brute-force enumeration) rather than
trusting the library code under test.  Tolerances are pinned as module
constants.  The verdict lines are written straight to the real stdout so
they stay visible under pytest's capture.
"""

import itertools
import math
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import sqrt as mp_sqrt

from comogphog.cli import main
from comogphog.distmat import distance_matrix, to_gray
from comogphog.evalstats import (
    Polarity,
    _mcc_column,
    auc,
    mcc_curve,
    pvalue_curve,
    roc_curve,
)
from comogphog.features import (
    COMOGRAD_LENGTH,
    FEATURE_LENGTH,
    FeatureVector,
    extract_features,
)
from comogphog.featuredb import (
    BadMagicError,
    FeatureStore,
    ingest_dir,
    load_store,
    save_store,
)
from comogphog.imageops import (
    gradient_field,
    haar_downsample,
    normalize_size,
)
from comogphog.scoring import score, search
from comogphog.structure_io import CaTrace, parse_structure
from comogphog.synthetic import (
    ca_trace_to_pdb,
    extended_trace,
    helix_trace,
    random_rotation,
    random_walk_trace,
    transform,
)
from oracles import pairs_from, pairs_from_rows

TOL_BLOCK_SUM = 1e-9
TOL_DISTMAT = 1e-9
TOL_FEATURES = 1e-6
TOL_STAGE = 1e-12
TOL_METRIC = 1e-9
TOL_EVAL = 1e-12
BUDGET_RIGID_S = 60.0
BUDGET_SEPARATION_S = 30.0
BUDGET_SCORE_US = 10.0
BUDGET_EXTRACT_500_S = 2.0
BUDGET_LENGTH_DRIFT = 0.10

LOWER = Polarity.LOWER_IS_SIMILAR
HIGHER = Polarity.HIGHER_IS_SIMILAR


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_capture(capsys):
    # lets _verdict suspend pytest's capture so the lines always show
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(num: int, name: str, verdict: str) -> None:
    line = f"\nACCEPTANCE {num} {name}: {verdict}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        _verdict(num, name, "FAIL")
        raise
    _verdict(num, name, "PASS")


# --- 1: feature vector shape and block normalization ---


def test_acceptance_1_feature_shape():
    with criterion(1, "feature shape and block normalization"):
        traces = [
            helix_trace(10, "h10"),
            helix_trace(127, "h127", jitter=0.2, seed=1),
            extended_trace(30, "e30", jitter=0.1, seed=2),
            random_walk_trace(64, "w64", seed=3),
            random_walk_trace(129, "w129", seed=4),
            random_walk_trace(400, "w400", seed=5),
            # degenerate but valid: coincident atoms give an all-zero image
            CaTrace(id="flat", coords=np.zeros((4, 3))),
        ]
        # one trace through the actual file parser as well
        text = ca_trace_to_pdb(random_walk_trace(77, "w77", seed=6))
        traces.append(parse_structure(text, structure_id="w77"))

        for trace in traces:
            fv = extract_features(trace)
            assert fv.values.shape == (FEATURE_LENGTH,) == (1024,)
            co = fv.values[:COMOGRAD_LENGTH]
            ph = fv.values[COMOGRAD_LENGTH:]
            assert co.shape == (256,) and ph.shape == (768,)
            for block in (co, ph):
                total = block.sum()
                assert abs(total - 1.0) <= TOL_BLOCK_SUM or not block.any()
            assert np.isfinite(fv.values).all()
        flat = extract_features(traces[6])
        assert not flat.values.any()  # the all-zero branch really occurred


# --- 2: rigid-motion invariance ---


def test_acceptance_2_rigid_motion_invariance():
    with criterion(2, "rigid-motion invariance"):
        rng = np.random.default_rng(20)
        start = time.perf_counter()
        worst_dm = 0.0
        worst_fv = 0.0
        for i in range(100):
            n = int(rng.integers(10, 401))
            trace = random_walk_trace(n, f"t{i}", seed=1000 + i)
            moved = transform(trace, random_rotation(rng), rng.normal(0.0, 50.0, 3))
            worst_dm = max(
                worst_dm,
                np.abs(distance_matrix(trace) - distance_matrix(moved)).max(),
            )
            worst_fv = max(
                worst_fv,
                np.abs(
                    extract_features(trace).values - extract_features(moved).values
                ).max(),
            )
        elapsed = time.perf_counter() - start
        assert worst_dm <= TOL_DISTMAT
        assert worst_fv <= TOL_FEATURES
        assert elapsed < BUDGET_RIGID_S


# --- 3: stage oracles ---


def _kernel_reference(x: float) -> float:
    x = abs(x)
    if x <= 1.0:
        return 1.5 * x**3 - 2.5 * x**2 + 1.0
    if x < 2.0:
        return -0.5 * x**3 + 2.5 * x**2 - 4.0 * x + 2.0
    return 0.0


def _resize_reference(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = img.shape
    out = np.zeros((out_h, out_w))
    for r in range(out_h):
        sy = (r + 0.5) * in_h / out_h - 0.5
        iy = math.floor(sy)
        for c in range(out_w):
            sx = (c + 0.5) * in_w / out_w - 0.5
            ix = math.floor(sx)
            acc = 0.0
            for dy in range(-1, 3):
                wy = _kernel_reference(sy - (iy + dy))
                ry = min(max(iy + dy, 0), in_h - 1)
                for dx in range(-1, 3):
                    wx = _kernel_reference(sx - (ix + dx))
                    rx = min(max(ix + dx, 0), in_w - 1)
                    acc += wy * wx * img[ry, rx]
            out[r, c] = acc
    return out


def _quantize_reference(orientation: float, bins: int) -> int:
    return min(int(orientation // (360.0 / bins)), bins - 1)


def _comograd_reference(field) -> np.ndarray:
    h, w = field.orientation.shape
    mat = np.zeros((16, 16))
    for r in range(h):
        for c in range(w):
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 >= h or c2 >= w:
                    continue
                if field.magnitude[r, c] <= 1e-12 or field.magnitude[r2, c2] <= 1e-12:
                    continue
                src = _quantize_reference(field.orientation[r, c], 16)
                dst = _quantize_reference(field.orientation[r2, c2], 16)
                mat[src, dst] += 1.0
    total = mat.sum()
    return (mat / total if total else mat).ravel()


def _phog_reference(field) -> np.ndarray:
    size = field.orientation.shape[0]
    chunks = []
    for level in range(4):
        grid = 2**level
        cell = size // grid
        for gr in range(grid):
            for gc in range(grid):
                hist = np.zeros(9)
                for r in range(gr * cell, (gr + 1) * cell):
                    for c in range(gc * cell, (gc + 1) * cell):
                        if field.magnitude[r, c] > 1e-12:
                            b = _quantize_reference(field.orientation[r, c], 9)
                            hist[b] += field.magnitude[r, c]
                chunks.append(hist)
    vec = np.concatenate(chunks + [np.zeros(768 - 9 * len(chunks))])
    total = vec.sum()
    return vec / total if total else vec


def _pipeline_field(trace):
    """The gradient field the extractor sees, rebuilt step by step."""
    img = normalize_size(to_gray(distance_matrix(trace)), 128)
    img = (img + img.T) / 2.0
    return gradient_field(img)


def test_acceptance_3_stage_oracles():
    with criterion(3, "stage oracles"):
        rng = np.random.default_rng(30)

        # Haar low-pass equals plain 2x2 block means, exactly (the oracle
        # sums each block left-to-right, the one unambiguous scalar order)
        for _ in range(10):
            h, w = 2 * int(rng.integers(1, 9)), 2 * int(rng.integers(1, 9))
            img = rng.random((h, w))
            blocks = np.zeros((h // 2, w // 2))
            for r in range(h // 2):
                for c in range(w // 2):
                    blocks[r, c] = (
                        img[2 * r, 2 * c]
                        + img[2 * r, 2 * c + 1]
                        + img[2 * r + 1, 2 * c]
                        + img[2 * r + 1, 2 * c + 1]
                    ) / 4.0
            assert np.array_equal(haar_downsample(img), blocks)

        # the one-step upsample (n below the working size) equals the
        # scalar 4x4-tap evaluator, clamped
        for _ in range(20):
            size = 1 << int(rng.integers(2, 6))
            n = int(rng.integers(2, size))
            img = rng.random((n, n))
            got = normalize_size(img, size)
            want = np.clip(_resize_reference(img, size, size), 0.0, 1.0)
            assert np.abs(got - want).max() <= TOL_STAGE

        # co-occurrence and pyramid histograms equal brute-force enumeration
        # over the very field the extractor uses
        for k in range(5):
            trace = random_walk_trace(30 + 17 * k, seed=600 + k)
            field = _pipeline_field(trace)
            fv = extract_features(trace)
            assert np.abs(fv.values[:256] - _comograd_reference(field)).max() <= TOL_STAGE
            assert np.abs(fv.values[256:] - _phog_reference(field)).max() <= TOL_STAGE

        # score equals an explicit scalar sum of squared differences
        for _ in range(50):
            a, b = rng.normal(size=(2, FEATURE_LENGTH))
            want = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
            got = score(FeatureVector("a", a), FeatureVector("b", b))
            assert abs(got - want) <= TOL_STAGE * max(want, 1.0)


# --- 4: metric axioms and exhaustive-search agreement ---


def test_acceptance_4_metric_and_search():
    with criterion(4, "metric axioms and search agreement"):
        rng = np.random.default_rng(40)
        vectors = rng.normal(size=(1000, FEATURE_LENGTH))
        db = [FeatureVector(f"v{i:04d}", vectors[i]) for i in range(1000)]

        for fv in db:
            assert score(fv, fv) == 0.0
        pick = rng.integers(0, 1000, size=(3000, 3))
        for i, j, _ in pick:
            assert score(db[i], db[j]) == score(db[j], db[i])
        for i, j, k in pick:
            assert score(db[i], db[k]) <= score(db[i], db[j]) + score(db[j], db[k]) + TOL_METRIC

        for q in range(200):
            if q % 2:
                query = db[int(rng.integers(0, 1000))]
            else:
                query = FeatureVector("q", rng.normal(size=FEATURE_LENGTH))
            k = int(rng.integers(1, 51))
            ids, dists = search(db, query, k)
            full = sorted((score(e, query), e.id) for e in db)
            assert list(zip(dists.tolist(), ids)) == full[:k]


# --- 5: evaluation-statistics oracles ---


def _mcc_exact(tp: int, tn: int, fp: int, fn: int) -> float:
    mp.dps = 50
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return float((mpf(tp) * tn - mpf(fp) * fn) / mp_sqrt(mpf(denom)))


def _mann_whitney(pairs, polarity) -> float:
    ms = pairs.score[pairs.match].tolist()
    ns = pairs.score[~pairs.match].tolist()
    wins = 0.0
    for m in ms:
        for n in ns:
            if m == n:
                wins += 0.5
            elif (m < n) == (polarity is LOWER):
                wins += 1.0
    return wins / (len(ms) * len(ns))


def _random_pairs(rng, n, match_rate=0.4):
    return pairs_from(rng.random(n), rng.random(n) < match_rate)


def test_acceptance_5_evaluation_oracles():
    with criterion(5, "evaluation statistics oracles"):
        # MCC against 50-digit arithmetic for every table with <= 12 entries,
        # as one column of the helper mcc_curve computes its values with
        tables = [t for t in itertools.product(range(13), repeat=4) if sum(t) <= 12]
        tp, tn, fp, fn = np.array(tables).T
        got = _mcc_column(tp, fp, tp + tn + fp + fn, tp + fn)
        for table, value in zip(tables, got.tolist()):
            assert abs(value - _mcc_exact(*table)) <= TOL_EVAL

        rng = np.random.default_rng(50)

        # trapezoid AUC against the rank statistic, ties included
        for trial in range(10):
            pairs = _random_pairs(rng, 30)
            pairs.score[4] = pairs.score[0]
            pairs.match[4] = not pairs.match[0]
            for pol in (LOWER, HIGHER):
                got = auc(*roc_curve(pairs, pol))
                assert abs(got - _mann_whitney(pairs, pol)) <= TOL_EVAL

        # per-bin posteriors, weighted by bin counts, recover the global rate
        for trial in range(5):
            pairs = _random_pairs(rng, 400)
            _, prob, count = pvalue_curve(pairs, 50)
            bins = [(p, c) for p, c in zip(prob.tolist(), count.tolist()) if c]
            recovered = sum(round(p * c) for p, c in bins)
            assert recovered == sum(pairs.match.tolist())
            weighted = sum(p * c for p, c in bins) / len(pairs)
            global_rate = sum(pairs.match.tolist()) / len(pairs)
            assert abs(weighted - global_rate) <= TOL_EVAL

        # ROC endpoints are exact, for plain and tie-heavy score sets
        for trial in range(10):
            pairs = _random_pairs(rng, 40)
            if trial % 2:
                pairs.score[:] = np.round(pairs.score, 1)
            for pol in (LOWER, HIGHER):
                fpr, tpr = roc_curve(pairs, pol)
                assert (fpr[0], tpr[0]) == (0.0, 0.0)
                assert (fpr[-1], tpr[-1]) == (1.0, 1.0)


# --- 6: synthetic two-family separation ---


def test_acceptance_6_synthetic_separation():
    with criterion(6, "synthetic family separation"):
        start = time.perf_counter()
        lengths = [44, 44, 45, 45, 46, 46, 46, 47, 47, 48]
        feats = {}
        for i, n in enumerate(lengths):
            feats[f"hel{i}"] = extract_features(
                helix_trace(n, f"hel{i}", jitter=0.10, seed=300 + i)
            )
            feats[f"ext{i}"] = extract_features(
                extended_trace(n, f"ext{i}", jitter=0.10, seed=400 + i)
            )
        pairs = pairs_from_rows(
            (a, b, score(feats[a], feats[b]), a[:3] == b[:3])
            for a, b in itertools.combinations(sorted(feats), 2)
        )
        assert len(pairs) == 190

        intra = pairs.score[pairs.match]
        inter = pairs.score[~pairs.match]
        assert intra.max() < inter.min()  # every within-family pair scores closer

        _, values, _, _ = mcc_curve(pairs, LOWER, pvalue_curve(pairs, 200)[0])
        assert values.max() == 1.0
        assert auc(*roc_curve(pairs, LOWER)) == 1.0
        assert time.perf_counter() - start < BUDGET_SEPARATION_S


# --- 7: persistence round-trip and deterministic ingestion ---


def test_acceptance_7_persistence(tmp_path):
    with criterion(7, "persistence and deterministic ingestion"):
        rng = np.random.default_rng(70)
        values = rng.standard_normal((3, FEATURE_LENGTH))
        values[0, 0] = 0.1 + 0.2
        values[1, 1] = 5e-324
        values[2, 2] = 1.0 / 3.0
        store = FeatureStore(
            entries=[FeatureVector(f"s{i}", values[i]) for i in range(3)]
        )
        p1 = tmp_path / "a.cmg"
        p2 = tmp_path / "b.cmg"
        save_store(store, p1)
        loaded = load_store(p1)
        for orig, back in zip(store.entries, loaded.entries):
            assert orig.id == back.id
            assert np.array_equal(orig.values, back.values)  # bit-exact
        save_store(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

        blob = bytearray(p1.read_bytes())
        blob[:4] = b"WHAT"
        bad = tmp_path / "bad.cmg"
        bad.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_store(bad)

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(6):
            trace = random_walk_trace(30 + 5 * i, f"walk{i}", seed=700 + i)
            (corpus / f"{trace.id}.pdb").write_text(ca_trace_to_pdb(trace))
        runs = []
        for jobs in (1, 1, 2):
            out = tmp_path / f"run{len(runs)}.cmg"
            save_store(ingest_dir(corpus, jobs=jobs), out)
            runs.append(out.read_bytes())
        assert runs[0] == runs[1] == runs[2]


# --- 8: performance budget ---


def _median_call_time(fn, rounds=15, calls=2000):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def test_acceptance_8_performance_budget():
    with criterion(8, "performance budget"):
        short = extract_features(random_walk_trace(100, "short", seed=80))
        other = extract_features(random_walk_trace(100, "short2", seed=81))
        per_call = _median_call_time(lambda: score(short, other))
        assert per_call * 1e6 < BUDGET_SCORE_US

        t0 = time.perf_counter()
        extract_features(random_walk_trace(500, "big", seed=82))
        assert time.perf_counter() - t0 < BUDGET_EXTRACT_500_S

        # scoring time must not grow with the original chain length
        long_a = extract_features(random_walk_trace(1000, "long", seed=83))
        long_b = extract_features(random_walk_trace(1000, "long2", seed=84))
        t_short, t_long = [], []
        for _ in range(15):  # interleaved so machine drift hits both equally
            t0 = time.perf_counter()
            for _ in range(2000):
                score(short, other)
            t_short.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for _ in range(2000):
                score(long_a, long_b)
            t_long.append(time.perf_counter() - t0)
        a = statistics.median(t_short)
        b = statistics.median(t_long)
        assert abs(a - b) / min(a, b) < BUDGET_LENGTH_DRIFT


# --- 9: full-scale corpus evaluation (opt-in) ---

SCOPE_DIR_VAR = "COMOGPHOG_SCOPE_DIR"
SCOPE_LABELS_VAR = "COMOGPHOG_SCOPE_LABELS"
SCOPE_SAMPLE_VAR = "COMOGPHOG_SCOPE_SAMPLE"


def test_acceptance_9_full_scale_evaluation(tmp_path):
    name = "full-scale corpus evaluation"
    corpus = os.environ.get(SCOPE_DIR_VAR)
    labels = os.environ.get(SCOPE_LABELS_VAR)
    if not (corpus and labels):
        _verdict(9, name, f"SKIP (set {SCOPE_DIR_VAR} and {SCOPE_LABELS_VAR} to run)")
        pytest.skip("full-scale corpus not provided")
    with criterion(9, name):
        store = tmp_path / "corpus.cmg"
        out = tmp_path / "eval"
        jobs = str(os.cpu_count() or 1)
        assert main(["extract", corpus, str(store), "--labels", labels, "--jobs", jobs]) == 0
        sample = os.environ.get(SCOPE_SAMPLE_VAR, "2000000")
        assert (
            main(
                [
                    "evaluate", str(store), str(out),
                    "--labels", labels, "--jobs", jobs, "--sample", sample,
                ]
            )
            == 0
        )
        summary = (out / "summary.txt").read_text()
        peak = {
            k.strip(): v.strip()
            for k, v in (line.split("=", 1) for line in summary.splitlines())
        }
        assert float(peak["peak_mcc"]) > 0.0
        float(peak["peak_threshold"])  # reported and parseable
