import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from comogphog import scoring
from comogphog.featuredb import FeatureStore, build_index, load_store, save_store
from comogphog.features import FeatureVector
from comogphog.scoring import LengthMismatchError, _distances, score, search


def fv(name, values):
    return FeatureVector(id=name, values=np.asarray(values, dtype=np.float64))


def random_vectors(count, rng, length=1024):
    return [fv(f"v{i:04d}", rng.random(length)) for i in range(count)]


def ranked(hits):
    """search's id and distance columns as (distance, id) rows of Python values."""
    ids, dist = hits
    assert dist.dtype == np.float64 and len(dist) == len(ids)
    return list(zip(dist.tolist(), ids))


def test_identity_is_zero():
    rng = np.random.default_rng(0)
    a = fv("a", rng.random(1024))
    assert score(a, a) == 0.0


def test_unit_displacement():
    a = np.zeros(1024)
    b = np.zeros(1024)
    b[137] = 1.0
    assert score(a, b) == 1.0


def test_matches_sum_of_squares_oracle():
    rng = np.random.default_rng(42)
    a, b = rng.random(1024), rng.random(1024)
    expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    assert score(a, b) == pytest.approx(expected, rel=1e-12)


def test_length_mismatch():
    with pytest.raises(LengthMismatchError):
        score(np.zeros(1024), np.zeros(1000))


def test_symmetry_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = rng.random(1024), rng.random(1024)
        assert score(a, b) == score(b, a)


def test_triangle_inequality():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b, c = rng.random(1024), rng.random(1024), rng.random(1024)
        assert score(a, c) <= score(a, b) + score(b, c) + 1e-9


def test_search_self_match_first():
    rng = np.random.default_rng(3)
    db = random_vectors(20, rng)
    assert ranked(search(db, db[7], 5))[0] == (0.0, "v0007")


def test_search_truncation():
    rng = np.random.default_rng(4)
    db = random_vectors(5, rng)
    assert len(ranked(search(db, db[0], 99))) == 5
    assert len(ranked(search(db, db[0], 1))) == 1


def test_search_matches_brute_force_sort():
    rng = np.random.default_rng(5)
    db = random_vectors(50, rng)
    q = fv("q", rng.random(1024))
    expected = sorted(((score(e, q), e.id) for e in db))
    for k in (1, 3, 50, 60):
        assert ranked(search(db, q, k)) == expected[: min(k, 50)]


def test_search_breaks_ties_by_id():
    shared = np.random.default_rng(6).random(1024)
    db = [fv("zeta", shared), fv("alpha", shared), fv("mid", shared)]
    ids, dist = search(db, fv("q", shared + 0.01), 3)
    assert ids == ["alpha", "mid", "zeta"]
    assert len(set(dist.tolist())) == 1


def test_search_argument_validation():
    rng = np.random.default_rng(9)
    db = random_vectors(3, rng)
    with pytest.raises(ValueError):
        search([], db[0], 1)
    with pytest.raises(ValueError):
        search(db, db[0], 0)


def test_search_accepts_a_store():
    rng = np.random.default_rng(10)
    db = random_vectors(30, rng)
    q = fv("q", rng.random(1024))
    assert ranked(search(FeatureStore(db), q, 7)) == ranked(search(db, q, 7))
    with pytest.raises(LengthMismatchError):
        search(FeatureStore(db), fv("short", np.zeros(1000)), 3)


def adversarial_sets():
    """(name, vectors, query) cases for the exact-distance oracle."""
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


@pytest.mark.parametrize("case", list(adversarial_sets()), ids=lambda c: c[0])
def test_search_distances_equal_score_bit_for_bit(case):
    _, vectors, query = case
    db = [fv(f"e{i:03d}", v) for i, v in enumerate(vectors)]
    q = fv("q", query)
    hits = ranked(search(db, q, len(db)))
    assert len(hits) == len(db)
    by_id = {e.id: e for e in db}
    for d, tid in hits:
        assert float.hex(d) == float.hex(score(by_id[tid], q))
    assert hits == sorted((score(e, q), e.id) for e in db)


def test_search_ties_straddling_k():
    rng = np.random.default_rng(12)
    shared = rng.random(1024)
    vectors = [shared] * 25  # exact ties
    # sign flips of one vector are different vectors at exactly one distance
    # from the zero query
    flips = [shared * np.where(rng.random(1024) < 0.5, -1.0, 1.0) for _ in range(25)]
    vectors += flips + list(rng.random((30, 1024)) * 0.1)
    names = [f"n{k:03d}" for k in rng.permutation(len(vectors))]
    db = [fv(n, v) for n, v in zip(names, vectors)]
    for q in (fv("zero", np.zeros(1024)), fv("near", shared + 1e-3)):
        full = sorted((score(e, q), e.id) for e in db)
        for k in range(1, len(db) + 2):
            assert ranked(search(db, q, k)) == full[:k]


def test_load_and_search_memory_is_bounded(tmp_path):
    rng = np.random.default_rng(13)
    n = 5000
    store = FeatureStore(ids=[f"d{i:05d}" for i in range(n)], matrix=rng.random((n, 1024)))
    path = tmp_path / "big.cmg"
    save_store(store, path)
    del store
    q = fv("q", rng.random(1024))
    # k = n is a whole scan, which reads 64 rows at a time, not the matrix
    for k in (10, n):
        tracemalloc.start()
        try:
            ids, _ = search(load_store(path), q, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ids) == k
        # the 41 MB matrix is not copied: only the scored rows are read; one
        # entry list of objects per row took 79 MB
        assert peak <= 8 * 2**20


# --- pruned search against the full scan ---


def indexed(matrix, names=None):
    """A store with the index save_store would write, and one without (full scan)."""
    ids = names or [f"r{i:04d}" for i in range(len(matrix))]
    return (
        FeatureStore(ids=ids, matrix=matrix, index=build_index(matrix)),
        FeatureStore(ids=ids, matrix=matrix),
    )


def brute_force(store, q):
    """Every row scored by score(), sorted by (distance, id)."""
    return sorted((score(row, q), sid) for sid, row in zip(store.ids(), store.matrix))


def hexed(hits):
    return [(tid, float.hex(d)) for d, tid in ranked(hits)]


def lattice(dims=6, length=64):
    """All 3**dims vectors over {-1, 0, 1} in the first dims entries.

    Every difference and square is exact, so distances tie bit for bit in
    large groups, and every difference lies in the span of the axes, so
    each bound is within rounding of its distance.
    """
    grid = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * dims, indexing="ij"), -1)
    out = np.zeros((3**dims, length))
    out[:, :dims] = grid.reshape(-1, dims)
    return out


def pruning_cases():
    """(name, matrix, queries) for the pruned-search oracle."""
    rng = np.random.default_rng(21)
    centers = rng.random((30, 1024))
    clustered = centers[rng.integers(0, 30, 1500)] + rng.normal(scale=0.02, size=(1500, 1024))
    yield "clustered", clustered, [
        clustered[3],
        clustered[700] + rng.normal(scale=0.01, size=1024),
        (clustered[10] + clustered[11]) / 2,  # near tie between two rows
        (centers[0] + centers[1]) / 2,
    ]
    diverse = rng.random((600, 256))
    yield "diverse", diverse, [diverse[5], rng.random(256)]
    dup = clustered[:400].copy()
    dup[100:250] = dup[7]
    yield "duplicates", dup, [dup[7], dup[7] + 1e-9, dup[300]]
    same = np.repeat(clustered[:1], 300, axis=0)
    yield "all equal", same, [same[0], clustered[1]]
    grid = lattice()
    yield "lattice ties", grid, [np.zeros(64), grid[400], grid[400] * 0.5]


@pytest.mark.parametrize("case", list(pruning_cases()), ids=lambda c: c[0])
def test_pruned_search_equals_full_scan(case):
    _, matrix, queries = case
    n = len(matrix)
    # ids in shuffled order, so that id ties do not follow the row order
    names = [f"r{k:04d}" for k in np.random.default_rng(n).permutation(n)]
    pruned, full = indexed(matrix, names)
    assert pruned.index.rank == min(32, n, matrix.shape[1])
    for query in queries:
        q = fv("q", query)
        expect = [(sid, float.hex(d)) for d, sid in brute_force(full, q)]
        for k in (1, 2, 10, 13, 64, 65, 73, 100, 233, n - 1, n, n + 5):
            hits = hexed(search(pruned, q, k))
            assert hits == expect[:k], (k, query[:3])
            assert hexed(search(full, q, k)) == hits


@pytest.mark.parametrize("case", list(adversarial_sets()), ids=lambda c: c[0])
def test_pruned_search_on_adversarial_sets(case):
    _, vectors, query = case
    pruned, full = indexed(vectors)
    q = fv("q", query)
    for k in (1, 10, 100, len(vectors)):
        assert hexed(search(pruned, q, k)) == hexed(search(full, q, k))


def test_pruned_search_on_a_saved_store(tmp_path):
    rng = np.random.default_rng(22)
    centers = rng.random((12, 1024))
    matrix = centers[rng.integers(0, 12, 900)] + rng.normal(scale=0.03, size=(900, 1024))
    path = tmp_path / "s.cmg"
    save_store(FeatureStore(ids=[f"s{i:03d}" for i in range(900)], matrix=matrix), path)
    store = load_store(path)
    assert store.index.rank == 32
    for row in (0, 450, 899):
        q = fv("q", matrix[row] + rng.normal(scale=0.01, size=1024))
        expect = [(sid, float.hex(d)) for d, sid in brute_force(store, q)[:10]]
        assert hexed(search(store, q, 10)) == expect


def test_pruned_search_scores_few_rows_of_a_clustered_store(monkeypatch):
    rng = np.random.default_rng(23)
    centers = rng.random((40, 1024))
    matrix = centers[rng.integers(0, 40, 3000)] + rng.normal(scale=0.02, size=(3000, 1024))
    pruned, _ = indexed(matrix)
    scored = []

    def counting(m, q, rows):
        scored.append(len(rows))
        return _distances(m, q, rows)

    monkeypatch.setattr(scoring, "_distances", counting)
    for row in range(0, 3000, 300):
        search(pruned, fv("q", matrix[row]), 10)
    assert sum(scored) < 10 * 3000 / 4


@pytest.mark.parametrize("n", [1, 2])
def test_pruned_search_on_one_or_two_rows(n):
    rng = np.random.default_rng(n)
    pruned, full = indexed(rng.random((n, 16)))
    q = fv("q", rng.random(16))
    for k in (1, 2, 3):
        assert hexed(search(pruned, q, k)) == hexed(search(full, q, k))
        assert len(ranked(search(pruned, q, k))) == min(k, n)
    empty = np.empty((0, 16))
    with pytest.raises(ValueError, match="empty"):
        search(FeatureStore(ids=[], matrix=empty, index=build_index(empty)), q, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_row_with_a_non_finite_bound_is_scored(bad):
    rng = np.random.default_rng(24)
    centers = rng.random((10, 256))
    matrix = centers[rng.integers(0, 10, 500)] + rng.normal(scale=0.02, size=(500, 256))
    pruned, _ = indexed(matrix)
    rows = pruned.index.rows.copy()
    rows[123] = bad  # a damaged projection
    store = FeatureStore(
        ids=pruned.ids(),
        matrix=matrix,
        index=dataclasses.replace(pruned.index, rows=rows),
    )
    assert ranked(search(store, fv("q", matrix[123]), 3))[0] == (0.0, "r0123")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_search_refuses_a_non_finite_distance(bad):
    rng = np.random.default_rng(25)
    matrix = rng.random((6, 32))
    stores = indexed(matrix)
    matrix[4, 9] = bad  # damaged after the index was built
    for store in stores:
        with pytest.raises(ValueError, match="non-finite distance .* 'r0004'"):
            search(store, fv("q", rng.random(32)), 6)


# --- rows read from a loaded v3 store ---


def clustered_store(tmp_path, seed, n=900):
    """A saved clustered store, its path and its matrix."""
    rng = np.random.default_rng(seed)
    centers = rng.random((12, 1024))
    matrix = centers[rng.integers(0, 12, n)] + rng.normal(scale=0.03, size=(n, 1024))
    path = tmp_path / f"s{seed}.cmg"
    save_store(FeatureStore(ids=[f"s{i:03d}" for i in range(n)], matrix=matrix), path)
    return path, matrix


def test_search_sees_a_write_into_a_loaded_store(tmp_path):
    path, matrix = clustered_store(tmp_path, 26)
    store = load_store(path)
    q = fv("q", matrix[700] + 1e-3)
    before = hexed(search(store, q, 10))  # rows read from the file
    store.entries[5].values[:] = q.values  # row 5 now at distance 0
    store.index = build_index(store.matrix)
    hits = hexed(search(store, q, 10))
    expect = [(sid, float.hex(d)) for d, sid in brute_force(store, q)[:10]]
    assert hits == expect and hits[0] == ("s005", float.hex(0.0))
    assert hits != before and path.read_bytes()[-matrix.nbytes :] == matrix.tobytes()


def test_a_loaded_store_answers_from_its_own_file_after_a_resave(tmp_path):
    path, matrix = clustered_store(tmp_path, 27)
    store = load_store(path)
    other = np.random.default_rng(28).random(matrix.shape)
    save_store(FeatureStore(ids=store.ids(), matrix=other), path)
    original = FeatureStore(ids=store.ids(), matrix=matrix)
    for row in (3, 450):
        q = fv("q", matrix[row] + 1e-3)
        expect = [(sid, float.hex(d)) for d, sid in brute_force(original, q)[:10]]
        assert hexed(search(store, q, 10)) == expect
    assert store.matrix.tobytes() == matrix.tobytes()


# Loads a store, cuts its file back to where the matrix starts, then
# searches it: exits 3 on CorruptEntryError, printing it.
_CUT_SHORT_SEARCH = """
import os, sys
import numpy as np
from comogphog.featuredb import CorruptEntryError, load_store
from comogphog.scoring import search

path, matrix_at = sys.argv[1], int(sys.argv[2])
store = load_store(path)
os.truncate(path, matrix_at)
try:
    search(store, np.full(1024, 0.5), 10)
except CorruptEntryError as exc:
    print(exc)
    sys.exit(3)
"""


def test_search_of_a_store_cut_short_after_loading_raises(tmp_path):
    # cp onto a loaded store truncates it in place; reading a row that is
    # gone must raise, not kill the process with SIGBUS
    path, matrix = clustered_store(tmp_path, 29, n=200)
    matrix_at = path.stat().st_size - matrix.nbytes
    proc = subprocess.run(
        [sys.executable, "-c", _CUT_SHORT_SEARCH, str(path), str(matrix_at)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stdout == f"{path}: file is shorter than its header says\n"


def _run_child(script, *args):
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True
    )


# Loads a store, reads one row, cuts its file to one page, then searches
# it: exits 3 on CorruptEntryError, printing it.
_CUT_TO_A_PAGE_SEARCH = """
import os, sys
import numpy as np
from comogphog.featuredb import CorruptEntryError, load_store
from comogphog.scoring import search

path = sys.argv[1]
store = load_store(path)
store.read_rows(np.array([0]), np.empty((1, 1024)))
os.truncate(path, 4096)
try:
    search(store, np.full(1024, 0.5), 5)
except CorruptEntryError as exc:
    print(exc)
    sys.exit(3)
"""


def test_search_of_a_store_cut_to_a_page_after_loading_raises(tmp_path):
    # the header, ids and index were read at load, so cutting them away
    # cannot kill the process either
    path, _ = clustered_store(tmp_path, 30, n=200)
    proc = _run_child(_CUT_TO_A_PAGE_SEARCH, path)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stdout == f"{path}: file is shorter than its header says\n"


# Loads a store and uses its matrix, cuts the file to one page, then runs
# a whole-scan search and score_pairs: prints whether both answer as before.
_CUT_AFTER_MATRIX_USE = """
import os, sys
import numpy as np
from comogphog.evalstats import score_pairs
from comogphog.featuredb import load_store
from comogphog.scoring import search
from comogphog.structure_io import parse_scop_label

path = sys.argv[1]
store = load_store(path)
store.matrix
labels = {
    sid: parse_scop_label(sid, "a.1.1.1" if n % 2 else "b.1.1.1")
    for n, sid in enumerate(store.ids())
}


def answers():
    ids, dist = search(store, np.full(1024, 0.5), len(store) + 1)
    pairs = score_pairs(store, labels)
    return ids, dist.tobytes(), pairs.score.tobytes(), pairs.match.tobytes()


before = answers()
os.truncate(path, 4096)
print(answers() == before)
"""


def test_whole_scan_and_pairs_of_a_store_cut_short_after_matrix_use(tmp_path):
    path, _ = clustered_store(tmp_path, 31, n=200)
    proc = _run_child(_CUT_AFTER_MATRIX_USE, path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "True\n"


@pytest.mark.skipif(not hasattr(os, "preadv"), reason="needs os.preadv")
def test_rows_arrive_whole_from_partial_reads(tmp_path, monkeypatch):
    # one read returns at most 0x7ffff000 bytes on Linux; here at most a page
    path, matrix = clustered_store(tmp_path, 32, n=300)
    q = fv("q", matrix[123] + 1e-3)

    def answers():
        store = load_store(path)
        hits = [hexed(search(store, q, k)) for k in (10, len(store))]
        return hits, store.matrix.tobytes()

    expect = answers()
    real = os.preadv

    def a_page_at_most(fd, buffers, pos):
        (view,) = buffers
        return real(fd, [memoryview(view).cast("B")[:4096]], pos)

    monkeypatch.setattr(os, "preadv", a_page_at_most)
    got = answers()
    assert got == expect and got[1] == matrix.tobytes()
