import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comogphog import featuredb
from comogphog.cli import main
from comogphog.featuredb import (
    BadMagicError,
    CorruptEntryError,
    EmptyCorpusError,
    FeatureStore,
    UnsupportedVersionError,
    build_index,
    ingest_dir,
    load_store,
    save_store,
)
from comogphog.features import FEATURE_LENGTH, FeatureConfig, FeatureVector, extract_features
from comogphog.scoring import search
from comogphog.structure_io import parse_structure
from comogphog.synthetic import ca_trace_to_pdb, extended_trace, helix_trace

STORE_V1 = Path(__file__).parent / "data" / "store_v1.cmg"
# the v1 store above, re-saved by the format-v2 save_store
STORE_V2 = Path(__file__).parent / "data" / "store_v2.cmg"
# the smallest geometry: one co-occurrence bin, one level-0 pyramid bin
TINY = FeatureConfig(comograd_bins=1, phog_bins=1, phog_levels=0, image_size=2)


def make_store(ids, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureStore(
        entries=[FeatureVector(id=i, values=rng.random(FEATURE_LENGTH)) for i in ids]
    )


def same_store(a: FeatureStore, b: FeatureStore) -> bool:
    return (
        a.version == b.version
        and a.ids() == b.ids()
        and all(x.values.tobytes() == y.values.tobytes() for x, y in zip(a.entries, b.entries))
    )


def test_empty_store_round_trip(tmp_path):
    path = tmp_path / "empty.cmgp"
    save_store(FeatureStore(), path)
    assert same_store(load_store(path), FeatureStore())


def test_round_trip_bit_exact(tmp_path):
    store = make_store(["a", "b", "c"], seed=3)
    # throw in values that stress the float encoding
    store.entries[0].values[0] = 0.1 + 0.2
    store.entries[1].values[5] = 5e-324
    path = tmp_path / "s.cmgp"
    save_store(store, path)
    assert same_store(load_store(path), store)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        # stored ids are UTF-8, so no lone surrogates (category Cs)
        st.text(
            st.characters(blacklist_characters="\0", blacklist_categories=("Cs",)),
            min_size=1,
            max_size=12,
        ),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
def test_round_trip_arbitrary_ids(tmp_path_factory, ids):
    store = make_store(ids, seed=len(ids))
    path = tmp_path_factory.mktemp("stores") / "s.cmgp"
    save_store(store, path)
    assert same_store(load_store(path), store)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.cmgp"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        load_store(path)
    path.write_bytes(b"CM")
    with pytest.raises(BadMagicError):
        load_store(path)


def test_unsupported_version(tmp_path):
    store = make_store(["a"])
    path = tmp_path / "s.cmgp"
    save_store(store, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 9  # bump the little-endian version field
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError):
        load_store(path)


def test_truncated_entry(tmp_path):
    store = make_store(["a", "b"])
    path = tmp_path / "s.cmgp"
    save_store(store, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(CorruptEntryError):
        load_store(path)


def test_trailing_bytes_rejected(tmp_path):
    store = make_store(["a"])
    path = tmp_path / "s.cmgp"
    save_store(store, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CorruptEntryError):
        load_store(path)


def test_save_rejects_duplicate_ids(tmp_path):
    store = make_store(["a", "a"])
    with pytest.raises(ValueError):
        save_store(store, tmp_path / "s.cmgp")


def test_save_rejects_an_id_with_nul(tmp_path):
    # v3 terminates each id with NUL; v2 stored such ids, v3 refuses them
    with pytest.raises(ValueError, match="NUL"):
        save_store(make_store(["a", "b\0c"]), tmp_path / "s.cmgp")
    assert not list(tmp_path.iterdir())


def test_save_rejects_an_id_with_a_lone_surrogate(tmp_path):
    # how a file name that is not UTF-8 decodes (os.fsdecode(b"x\xff"))
    with pytest.raises(ValueError, match=r"id 'x\\udcff' is not valid UTF-8"):
        save_store(make_store(["a", "x\udcff"]), tmp_path / "s.cmgp")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_rejects_non_finite_values(tmp_path, bad):
    store = make_store(["a", "b", "c"], seed=4)
    store.matrix[1, 700] = bad
    with pytest.raises(ValueError, match="'b' has a non-finite value"):
        save_store(store, tmp_path / "s.cmgp")
    assert not list(tmp_path.iterdir())


def test_save_rejects_wrong_length(tmp_path):
    store = FeatureStore(entries=[FeatureVector(id="a", values=np.zeros(10))])
    with pytest.raises(ValueError):
        save_store(store, tmp_path / "s.cmgp")


# --- ingestion ---


@pytest.fixture
def corpus(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "helA.pdb").write_text(ca_trace_to_pdb(helix_trace(18, "helA")))
    (d / "strB.pdb").write_text(ca_trace_to_pdb(extended_trace(18, "strB")))
    return d


def test_ingest_two_files(corpus):
    store = ingest_dir(corpus)
    assert store.ids() == ["helA", "strB"]
    assert all(e.values.shape == (FEATURE_LENGTH,) for e in store.entries)


def test_ingest_skips_corrupt_files(corpus):
    (corpus / "broken.pdb").write_text("not a structure at all\n")
    events = []
    store = ingest_dir(corpus, report=lambda *a: events.append(a))
    assert store.ids() == ["helA", "strB"]
    skips = [e for e in events if e[1] == "skip"]
    assert len(skips) == 1 and skips[0][0] == "broken"


def test_ingest_skips_duplicate_stems(corpus):
    (corpus / "helA.ent").write_text(ca_trace_to_pdb(helix_trace(18, "helA")))
    events = []
    store = ingest_dir(corpus, report=lambda *a: events.append(a))
    assert store.ids() == ["helA", "strB"]
    assert any(e[1] == "skip" and e[2] == "duplicate id" for e in events)


def test_ingest_skips_a_file_name_that_is_not_utf8(corpus, tmp_path):
    odd = corpus / os.fsdecode(b"x\xff.pdb")
    try:
        odd.write_text(ca_trace_to_pdb(helix_trace(18, "odd")))
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a file name that is not UTF-8")
    events = []
    store = ingest_dir(corpus, report=lambda *a: events.append(a))
    assert store.ids() == ["helA", "strB"]
    assert ("x\\xff.pdb", "skip", "file name is not UTF-8") in events
    save_store(store, tmp_path / "s.cmg")


def test_ingest_label_filter(corpus):
    from comogphog.structure_io import parse_scop_label

    labels = {"helA": parse_scop_label("helA", "a.1.1.1")}
    events = []
    store = ingest_dir(corpus, labels=labels, report=lambda *a: events.append(a))
    assert store.ids() == ["helA"]
    assert ("strB.pdb", "skip", "no label") in events


def test_ingest_empty_corpus(tmp_path):
    d = tmp_path / "nothing"
    d.mkdir()
    with pytest.raises(EmptyCorpusError):
        ingest_dir(d)
    (d / "junk.pdb").write_text("garbage")
    with pytest.raises(EmptyCorpusError):
        ingest_dir(d)


def test_ingest_rejects_non_directory(tmp_path):
    with pytest.raises(NotADirectoryError):
        ingest_dir(tmp_path / "missing")


def test_ingest_deterministic_across_runs_and_jobs(corpus, tmp_path):
    paths = [tmp_path / f"s{i}.cmgp" for i in range(3)]
    save_store(ingest_dir(corpus), paths[0])
    save_store(ingest_dir(corpus), paths[1])
    save_store(ingest_dir(corpus, jobs=2), paths[2])
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_ingest_records_config(corpus):
    config = FeatureConfig(image_size=64)
    store = ingest_dir(corpus, config=config)
    assert store.config == config
    trace = parse_structure((corpus / "helA.pdb").read_text(), structure_id="helA")
    assert store.entries[0].values.tobytes() == extract_features(trace, config).values.tobytes()


# --- format v3 ---


def test_v3_layout(tmp_path):
    ids = ["a", "bé"]
    store = make_store(ids, seed=5)
    path = tmp_path / "s.cmg"
    save_store(store, path)
    blob = path.read_bytes()
    rank = 2  # min(32, count, length)
    head = struct.pack("<4sIIIIIIIQI", b"CMGP", 3, 2, 16, 9, 3, 128, 1024, 6, rank)
    ids_blob = b"a\x00b\xc3\xa9\x00"
    assert len(head) == 44
    assert blob[:50] == head + ids_blob
    mean_at = 56  # the id blob padded to a multiple of 8
    assert blob[50:mean_at] == bytes(6)
    index_end = mean_at + 8 * (1024 + rank * 1024 + 2 * rank)
    matrix_at = 4096 * -(-index_end // 4096)
    assert blob[index_end:matrix_at] == bytes(matrix_at - index_end)
    assert blob[matrix_at:] == store.matrix.astype("<f8").tobytes()
    # the index bits depend on the BLAS build, so check its properties
    mean = np.frombuffer(blob, "<f8", 1024, mean_at)
    axes = np.frombuffer(blob, "<f8", rank * 1024, mean_at + 8 * 1024).reshape(rank, 1024)
    rows = np.frombuffer(blob, "<f8", 2 * rank, mean_at + 8 * 1024 * (1 + rank)).reshape(2, rank)
    assert np.array_equal(mean, store.matrix.mean(axis=0))
    assert np.abs(axes @ axes.T - np.eye(rank)).max() <= 1e-12
    assert np.allclose(rows, (store.matrix - mean) @ axes.T, rtol=0, atol=1e-12)
    back = load_store(path)
    assert back.version == 3 and back.index.rank == rank
    assert back.index.departure <= 1e-9


def test_v3_records_config(tmp_path):
    rng = np.random.default_rng(1)
    config = FeatureConfig(comograd_bins=4, phog_bins=3, phog_levels=0, image_size=32)
    store = FeatureStore(ids=["x", "y"], matrix=rng.random((2, config.length)), config=config)
    path = tmp_path / "s.cmg"
    save_store(store, path)
    back = load_store(path)
    assert back.config == config and back.version == 3
    assert back.ids() == ["x", "y"]
    assert back.matrix.tobytes() == store.matrix.tobytes()


@pytest.mark.parametrize("count", [0, 1, 2, 40, 2500])
def test_index_properties(count):
    rng = np.random.default_rng(count)
    length = 64
    matrix = rng.random((count, length)) * rng.random(length) * 10
    index = build_index(matrix)
    rank = min(32, count, length)
    assert index.axes.shape == (rank, length) and index.rows.shape == (count, rank)
    assert np.abs(index.axes @ index.axes.T - np.eye(rank)).max(initial=0.0) <= 1e-12
    if count:
        assert np.allclose(index.rows, (matrix - index.mean) @ index.axes.T, rtol=0, atol=1e-12)
        # the bound never exceeds the distance
        q = rng.random(length) * 5
        bound = np.linalg.norm(index.rows - index.axes @ (q - index.mean), axis=1)
        assert (bound <= np.linalg.norm(matrix - q, axis=1) * (1 + 1e-12)).all()
    again = build_index(matrix)
    assert again.axes.tobytes() == index.axes.tobytes()
    assert again.rows.tobytes() == index.rows.tobytes()


def test_values_too_large_for_the_fit_get_no_index(tmp_path):
    store = make_store(["a", "b", "c"], seed=9)
    store.matrix[:] *= 1e300
    path = tmp_path / "s.cmg"
    save_store(store, path)
    back = load_store(path)
    assert back.index.rank == 0
    assert back.matrix.tobytes() == store.matrix.tobytes()


def test_resave_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.cmg", tmp_path / "b.cmg"
    save_store(make_store([f"e{i}" for i in range(70)], seed=8), first)
    save_store(load_store(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_far_from_orthonormal_axes_are_corrupt(tmp_path):
    path = tmp_path / "s.cmg"
    save_store(make_store(["a", "b", "c"], seed=6), path)
    blob = bytearray(path.read_bytes())
    axis0 = 56 + 8 * 1024  # the first axis value after the mean
    blob[axis0 : axis0 + 8] = struct.pack("<d", 0.5)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptEntryError, match="orthonormal"):
        load_store(path)


def test_reads_checked_in_v2_store(tmp_path):
    ids, values = _v1_reference(STORE_V1.read_bytes())
    store = load_store(STORE_V2)
    assert store.version == 2 and store.config == FeatureConfig()
    assert store.ids() == ids and store.index.rank == 0
    assert [row.tobytes() for row in store.matrix] == values
    resaved = tmp_path / "v3.cmg"
    save_store(store, resaved)
    again = load_store(resaved)
    assert again.version == 3 and again.ids() == ids and again.index.rank == 5
    assert again.matrix.tobytes() == store.matrix.tobytes()


def test_loaded_matrix_is_a_writable_plain_array(tmp_path):
    path = tmp_path / "s.cmg"
    save_store(make_store(["a", "b"], seed=2), path)
    on_disk = path.read_bytes()
    store = load_store(path)
    assert type(store.matrix) is np.ndarray
    store.entries[1].values[3] = -1.5  # reaches the matrix read from the file, not the file
    assert store.matrix[1, 3] == -1.5
    assert path.read_bytes() == on_disk
    save_store(store, tmp_path / "t.cmg")
    assert load_store(tmp_path / "t.cmg").matrix[1, 3] == -1.5


def test_save_rejects_matrix_not_fitting_config(tmp_path):
    store = FeatureStore(ids=["a"], matrix=np.zeros((1, 5)), config=TINY)
    with pytest.raises(ValueError):
        save_store(store, tmp_path / "s.cmg")
    bad = FeatureConfig(comograd_bins=1, phog_bins=1, phog_levels=0, image_size=3)
    with pytest.raises(ValueError):
        save_store(FeatureStore(ids=["a"], matrix=np.zeros((1, 2)), config=bad), tmp_path / "s.cmg")


def _v1_reference(blob: bytes):
    """Independent reader of format v1: (ids, per-entry value bytes)."""
    magic, version, count = struct.unpack_from("<4sII", blob, 0)
    assert (magic, version) == (b"CMGP", 1)
    pos, ids, values = 12, [], []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", blob, pos)
        ids.append(blob[pos + 2 : pos + 2 + n].decode("utf-8"))
        pos += 2 + n
        values.append(blob[pos : pos + 8 * FEATURE_LENGTH])
        pos += 8 * FEATURE_LENGTH
    assert pos == len(blob)
    return ids, values


def test_reads_checked_in_v1_store(tmp_path):
    # written by the format-v1 save_store (extract over five synthetic traces)
    ids, values = _v1_reference(STORE_V1.read_bytes())
    assert ids == ["brin_β", "helix", "hélice", "marche_日本", "strand"]
    store = load_store(STORE_V1)
    assert store.version == 1 and store.config == FeatureConfig()
    assert store.ids() == ids
    assert [row.tobytes() for row in store.matrix] == values
    resaved = tmp_path / "v3.cmg"
    save_store(store, resaved)
    again = load_store(resaved)
    assert again.version == 3 and again.ids() == ids
    assert again.matrix.tobytes() == store.matrix.tobytes()


def test_non_utf8_id_is_corrupt(tmp_path):
    path = tmp_path / "s.cmg"
    save_store(make_store(["ab"]), path)
    blob = path.read_bytes()
    at = blob.index(b"ab\x00")
    path.write_bytes(blob[:at] + b"\xff\xfe" + blob[at + 2 :])
    with pytest.raises(CorruptEntryError):
        load_store(path)


def test_duplicate_ids_on_disk_are_corrupt(tmp_path):
    path = tmp_path / "s.cmg"
    save_store(make_store(["ab", "ac"]), path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"ac\x00", b"ab\x00"))
    with pytest.raises(CorruptEntryError):
        load_store(path)


def _fuzz_base() -> bytes:
    store = FeatureStore(
        ids=["α", "b", "日本語"],
        matrix=np.array([[0.25, 0.75], [5e-324, 1.0], [0.0, -2.0]]),
        config=TINY,
    )
    with tempfile.TemporaryDirectory() as d:
        save_store(store, Path(d) / "s.cmg")
        return (Path(d) / "s.cmg").read_bytes()


FUZZ_BASE = _fuzz_base()
STORE_ERRORS = (BadMagicError, UnsupportedVersionError, CorruptEntryError)


def _damage(base: bytes, damage) -> bytes:
    kind, arg, mask = damage
    blob = bytearray(base)
    if kind == "truncate":
        del blob[arg:]
    elif kind == "extend":
        blob += arg
    else:
        blob[arg] ^= mask
    return bytes(blob)


def _damages(size: int):
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, size - 1), st.just(0)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=24), st.just(0)),
        st.tuples(st.just("flip"), st.integers(0, size - 1), st.integers(1, 255)),
    )


@settings(max_examples=300, deadline=None)
@given(_damages(len(FUZZ_BASE)))
def test_damaged_v3_loads_or_raises_documented_error(tmp_path_factory, damage):
    path = tmp_path_factory.mktemp("fuzz") / "damaged.cmg"
    path.write_bytes(_damage(FUZZ_BASE, damage))
    try:
        store = load_store(path)
    except STORE_ERRORS:
        return
    # only a changed value, index value (or a still-valid id) can go unnoticed
    assert damage[0] == "flip"
    assert store.matrix.shape == (3, TINY.length)
    assert store.index.rows.shape == (3, 2)
    assert len(set(store.ids())) == 3


def test_damaged_v2_loads_or_raises_documented_error(tmp_path):
    # in the checked-in v2 store the 32-byte header ends with phog_levels at
    # byte 20, and the first id, "brin_β", has its u16 length at byte 32
    path = tmp_path / "damaged.cmg"
    for damage in [
        ("truncate", 100, 0),
        ("extend", b"\x00", 0),
        ("flip", 21, 0x80),  # config
        ("flip", 32, 0x01),  # id length
        ("flip", 40, 0x61),  # id byte
    ]:
        path.write_bytes(_damage(STORE_V2.read_bytes(), damage))
        with pytest.raises(CorruptEntryError):
            load_store(path)


# --- loading without preadv ---


def test_store_loaded_without_preadv_answers_the_same(tmp_path, monkeypatch, capsys):
    # where os.preadv is missing (Windows) a v3 store is read whole at load
    rng = np.random.default_rng(21)
    centers = rng.random((12, FEATURE_LENGTH))
    ids = [f"e{k:03d}" for k in range(240)]
    matrix = centers[np.arange(240) % 12] + 0.05 * rng.random((240, FEATURE_LENGTH))
    path = tmp_path / "s.cmg"
    save_store(FeatureStore(ids=ids, matrix=matrix), path)
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(f"{sid}\tc.1.1.{k % 12 + 1}\n" for k, sid in enumerate(ids)))
    queries = [matrix[5], matrix[100] + 1e-3, rng.random(FEATURE_LENGTH)]

    def answers(out):
        store = load_store(path)
        file_backed = store._file is not None
        hits = [search(store, q, 10) for q in queries]
        del store
        assert main(["evaluate", str(path), str(out), "--labels", str(labels)]) == 0
        names = ("pvalue.csv", "mcc.csv", "roc.csv", "summary.txt")
        return file_backed, hits, {f: (out / f).read_bytes() for f in names}

    with_preadv = answers(tmp_path / "with")
    monkeypatch.setattr(featuredb, "_PREADV", False)
    without = answers(tmp_path / "without")
    capsys.readouterr()
    assert (with_preadv[0], without[0]) == (True, False)
    for (ids_a, d_a), (ids_b, d_b) in zip(with_preadv[1], without[1]):
        assert ids_a == ids_b and d_a.tobytes() == d_b.tobytes()
    assert with_preadv[2] == without[2]

    cut = tmp_path / "cut.cmg"
    cut.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CorruptEntryError):
        load_store(cut)


# --- atomic save ---


def test_save_over_a_loaded_store_keeps_its_bytes(tmp_path):
    path = tmp_path / "s.cmg"
    save_store(make_store(["a", "b", "c"], seed=1), path)
    loaded = load_store(path)
    before = loaded.matrix.tobytes()
    save_store(make_store(["z"], seed=2), path)
    assert loaded.matrix.tobytes() == before
    assert loaded.ids() == ["a", "b", "c"]
    assert load_store(path).ids() == ["z"]


def test_failed_save_leaves_old_file(tmp_path, monkeypatch):
    path = tmp_path / "s.cmg"
    save_store(make_store(["a"], seed=1), path)
    old = path.read_bytes()
    # a matrix that fails to convert after the header is written
    broken = FeatureStore(ids=["a"], matrix=np.array([["x", "y"]], dtype=object), config=TINY)
    with pytest.raises(ValueError):
        save_store(broken, path)
    assert path.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == ["s.cmg"]

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        save_store(make_store(["b"], seed=2), path)
    assert path.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == ["s.cmg"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_loading_and_dropping_stores_keeps_no_descriptor(tmp_path):
    path = tmp_path / "s.cmg"
    store = make_store([f"e{i:02d}" for i in range(70)], seed=12)
    save_store(store, path)
    q = store.matrix[7] + 1e-3
    del store
    before = len(os.listdir("/proc/self/fd"))
    for i in range(100):
        loaded = load_store(path)
        ids, _ = search(loaded, q, 5)  # reads rows from the file
        assert ids[0] == "e07"
        if i % 2:
            loaded.matrix  # reads the matrix and closes the file
        del loaded
    assert len(os.listdir("/proc/self/fd")) == before
