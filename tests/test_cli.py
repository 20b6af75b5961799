import hashlib
import itertools
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from comogphog import evalstats
from comogphog.cli import main
from comogphog.evalstats import (
    Polarity,
    mcc_curve,
    pvalue_curve,
    score_pairs,
)
from comogphog.featuredb import FeatureStore, load_store, save_store
from comogphog.features import FEATURE_LENGTH, MAX_RESIDUES, FeatureConfig, FeatureVector
from comogphog.scoring import score, search
from comogphog.structure_io import parse_structure, read_label_table
from comogphog.synthetic import (
    ca_trace_to_pdb,
    extended_trace,
    helix_trace,
    random_walk_trace,
    transform,
)
from oracles import pair_rows

STORE_V1 = Path(__file__).parent / "data" / "store_v1.cmg"
STORE_V2 = Path(__file__).parent / "data" / "store_v2.cmg"

HELIX_IDS = [f"hel{i}" for i in range(4)]
EXT_IDS = [f"ext{i}" for i in range(4)]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Eight synthetic structures in two visibly different families."""
    root = tmp_path_factory.mktemp("corpus")
    pdb_dir = root / "structures"
    pdb_dir.mkdir()
    lengths = [36, 40, 44, 48]
    rows = []
    for i, n in enumerate(lengths):
        hel = helix_trace(n, HELIX_IDS[i], jitter=0.15, seed=100 + i)
        ext = extended_trace(n, EXT_IDS[i], jitter=0.15, seed=200 + i)
        (pdb_dir / f"{hel.id}.pdb").write_text(ca_trace_to_pdb(hel))
        (pdb_dir / f"{ext.id}.pdb").write_text(ca_trace_to_pdb(ext))
        rows.append(f"{hel.id}\ta.1.1.1")
        rows.append(f"{ext.id}\tb.1.1.1")
    labels = root / "labels.tsv"
    labels.write_text("sid\tsccs\n" + "\n".join(rows) + "\n")
    return pdb_dir, labels


@pytest.fixture(scope="module")
def store_path(corpus, tmp_path_factory):
    pdb_dir, _ = corpus
    out = tmp_path_factory.mktemp("store") / "corpus.cmg"
    assert main(["extract", str(pdb_dir), str(out)]) == 0
    return out


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- extract ---


def test_extract_reports_and_store(corpus, tmp_path, capsys):
    pdb_dir, _ = corpus
    out = tmp_path / "all.cmg"
    code, stdout, stderr = run(capsys, "extract", pdb_dir, out)
    assert code == 0
    assert f"wrote 8 entries to {out}" in stdout
    assert stderr.startswith("config: bins_comograd=16 bins_phog=9")
    for sid in HELIX_IDS + EXT_IDS:
        assert f"ok {sid}" in stderr
    store = load_store(out)
    assert store.ids() == sorted(HELIX_IDS + EXT_IDS)


def test_extract_rerun_is_bit_identical(corpus, store_path, tmp_path, capsys):
    pdb_dir, _ = corpus
    again = tmp_path / "again.cmg"
    assert run(capsys, "extract", pdb_dir, again)[0] == 0
    assert again.read_bytes() == store_path.read_bytes()


def test_extract_parallel_is_bit_identical(corpus, store_path, tmp_path, capsys):
    pdb_dir, _ = corpus
    par = tmp_path / "par.cmg"
    assert run(capsys, "extract", pdb_dir, par, "--jobs", 2)[0] == 0
    assert par.read_bytes() == store_path.read_bytes()


def test_extract_label_filter(corpus, tmp_path, capsys):
    pdb_dir, _ = corpus
    labels = tmp_path / "three.tsv"
    labels.write_text("hel0\ta.1.1.1\nhel1\ta.1.1.1\next0\tb.1.1.1\n")
    out = tmp_path / "avail.cmg"
    code, _, stderr = run(capsys, "extract", pdb_dir, out, "--labels", labels)
    assert code == 0
    assert load_store(out).ids() == ["ext0", "hel0", "hel1"]
    assert "skip ext1.pdb: no label" in stderr


def test_extract_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, stderr = run(capsys, "extract", empty, tmp_path / "out.cmg")
    assert code == 2
    assert "error" in stderr


def test_extract_unparseable_corpus_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "junk.pdb").write_text("not a structure\n")
    assert run(capsys, "extract", bad, tmp_path / "out.cmg")[0] == 2


@pytest.fixture(scope="module")
def too_long_pdb(tmp_path_factory):
    """A PDB file one residue over the extraction cap."""
    path = tmp_path_factory.mktemp("long") / "long.pdb"
    path.write_text(ca_trace_to_pdb(random_walk_trace(MAX_RESIDUES + 1, "long", seed=3)))
    return path


def test_extract_skips_a_trace_over_the_residue_cap(corpus, too_long_pdb, tmp_path, capsys):
    pdb_dir, _ = corpus
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "hel0.pdb").write_text((pdb_dir / "hel0.pdb").read_text())
    (mixed / "long.pdb").write_text(too_long_pdb.read_text())
    out = tmp_path / "mixed.cmg"
    code, _, stderr = run(capsys, "extract", mixed, out)
    assert code == 0
    assert f"skip long: TooManyResiduesError: 'long' has {MAX_RESIDUES + 1} CA atoms" in stderr
    assert load_store(out).ids() == ["hel0"]


def test_search_and_score_refuse_a_trace_over_the_residue_cap(
    corpus, store_path, too_long_pdb, capsys
):
    pdb_dir, _ = corpus
    for argv in (
        ("search", store_path, too_long_pdb),
        ("score", pdb_dir / "hel0.pdb", too_long_pdb),
    ):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert f"error: 'long' has {MAX_RESIDUES + 1} CA atoms" in stderr


def test_extract_skips_a_file_name_that_is_not_utf8(corpus, store_path, tmp_path, capsys):
    pdb_dir, _ = corpus
    odd_dir = tmp_path / "odd"
    shutil.copytree(pdb_dir, odd_dir)
    try:
        (odd_dir / os.fsdecode(b"x\xff.pdb")).write_text((pdb_dir / "hel0.pdb").read_text())
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a file name that is not UTF-8")
    out = tmp_path / "odd.cmg"
    code, _, stderr = run(capsys, "extract", odd_dir, out)
    assert code == 0
    assert "skip x\\xff.pdb: file name is not UTF-8" in stderr.splitlines()
    assert out.read_bytes() == store_path.read_bytes()


def test_extract_missing_dir_exits_1(tmp_path, capsys):
    code, _, stderr = run(capsys, "extract", tmp_path / "nope", tmp_path / "out.cmg")
    assert code == 1
    assert "error" in stderr


def test_extract_into_missing_directory_fails_before_extracting(corpus, tmp_path, capsys):
    pdb_dir, _ = corpus
    out = tmp_path / "nodir" / "x.cmg"
    code, stdout, stderr = run(capsys, "extract", pdb_dir, out)
    assert code == 1 and stdout == ""
    assert not any(line.startswith("ok ") for line in stderr.splitlines())
    assert stderr.splitlines()[-1] == f"error: {out}: directory {out.parent} does not exist"
    assert ".tmp" not in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "cfg",
    [
        {"mystery_knob": 3},
        {"image_size": 100},
        {"eval_bins": 1},
        {"phog_levels": 8},  # a pyramid deeper than the 128-pixel image
        {"image_size": "128"},
        {"image_size": 64.0},
        {"eval_bins": 2.5},
        [1, 2],
    ],
)
def test_extract_rejects_bad_config(corpus, tmp_path, capsys, cfg):
    pdb_dir, _ = corpus
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, stderr = run(capsys, "extract", pdb_dir, tmp_path / "out.cmg", "--config", path)
    assert code == 1
    assert "error" in stderr


def test_extract_search_evaluate_with_any_valid_geometry(corpus, tmp_path, capsys):
    # 8 x 8 co-occurrence bins and the 768-entry pyramid: 832-entry vectors
    pdb_dir, labels = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bins_comograd": 8}')
    out = tmp_path / "b8.cmg"
    code, stdout, stderr = run(capsys, "extract", pdb_dir, out, "--config", cfg)
    assert code == 0 and stdout == f"wrote 8 entries to {out}\n"
    assert "bins_comograd=8" in stderr
    store = load_store(out)
    assert store.config == FeatureConfig(comograd_bins=8)
    assert store.matrix.shape == (8, 832)

    code, stdout, stderr = run(capsys, "search", out, pdb_dir / "ext3.pdb")
    assert code == 0 and "bins_comograd=8" in stderr
    assert stdout.splitlines()[0] == "1,ext3,0"
    assert len(stdout.splitlines()) == 8

    code, stdout, stderr = run(capsys, "evaluate", out, tmp_path / "eval", "--labels", labels)
    assert code == 0
    assert "pairs= 28" in stdout and "matches= 12" in stdout
    assert stderr.splitlines()[0] == (
        "config: bins_comograd=8 bins_phog=9 phog_levels=3 image_size=128 eval_bins=200"
    )


def test_extract_accepts_benign_config(corpus, tmp_path, capsys):
    pdb_dir, _ = corpus
    path = tmp_path / "cfg.json"
    path.write_text('{"eval_bins": 50}')
    out = tmp_path / "out.cmg"
    code, _, stderr = run(capsys, "extract", pdb_dir, out, "--config", path)
    assert code == 0
    assert "eval_bins=50" in stderr


# --- score ---


def test_score_identical_file_is_zero(corpus, capsys):
    pdb_dir, _ = corpus
    f = pdb_dir / "hel0.pdb"
    code, stdout, _ = run(capsys, "score", f, f)
    assert code == 0
    assert stdout == "d= 0.000000000\n"


def test_score_rigidly_moved_copy_is_zero(corpus, tmp_path, capsys):
    # axis permutation + integer shift keep the 3-decimal PDB coordinates
    # exact, so the moved file scores 0 against the original
    pdb_dir, _ = corpus
    src = pdb_dir / "hel2.pdb"
    trace = parse_structure(src.read_text(), structure_id="hel2")
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    moved = transform(trace, perm, np.array([7.0, -3.0, 11.0]), trace_id="moved")
    dst = tmp_path / "moved.pdb"
    dst.write_text(ca_trace_to_pdb(moved))
    code, stdout, _ = run(capsys, "score", src, dst)
    assert code == 0
    assert stdout == "d= 0.000000000\n"


def test_score_agrees_with_library(corpus, store_path, capsys):
    pdb_dir, _ = corpus
    code, stdout, _ = run(capsys, "score", pdb_dir / "hel0.pdb", pdb_dir / "ext0.pdb")
    assert code == 0
    printed = float(stdout.split()[1])
    entries = {e.id: e for e in load_store(store_path).entries}
    assert printed == pytest.approx(score(entries["hel0"], entries["ext0"]), abs=5e-10)


def test_score_missing_file_exits_1(corpus, tmp_path, capsys):
    pdb_dir, _ = corpus
    code, _, stderr = run(capsys, "score", pdb_dir / "hel0.pdb", tmp_path / "nope.pdb")
    assert code == 1
    assert "error" in stderr


# --- search ---


def test_search_self_query_ranks_first(corpus, store_path, capsys):
    pdb_dir, _ = corpus
    code, stdout, _ = run(capsys, "search", store_path, pdb_dir / "hel1.pdb")
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 8  # default k=10 capped by corpus size
    assert lines[0] == "1,hel1,0"
    ranks = [int(line.split(",")[0]) for line in lines]
    assert ranks == list(range(1, 9))
    dists = [float(line.split(",")[2]) for line in lines]
    assert dists == sorted(dists)
    # the other helices should all rank above any strand
    top_ids = [line.split(",")[1] for line in lines[:4]]
    assert set(top_ids) == set(HELIX_IDS)


def test_search_k_truncates(corpus, store_path, capsys):
    pdb_dir, _ = corpus
    code, stdout, _ = run(capsys, "search", store_path, pdb_dir / "ext2.pdb", "--k", 3)
    assert code == 0
    assert len(stdout.splitlines()) == 3


def test_search_agrees_with_library(corpus, store_path, capsys):
    pdb_dir, _ = corpus
    _, stdout, _ = run(capsys, "search", store_path, pdb_dir / "ext0.pdb", "--k", 8)
    store = load_store(store_path)
    query = next(e for e in store.entries if e.id == "ext0")
    ids, dists = search(store.entries, query, 8)
    got = [line.split(",") for line in stdout.splitlines()]
    assert [g[1] for g in got] == ids
    for g, d in zip(got, dists.tolist()):
        assert float(g[2]) == pytest.approx(d, abs=1e-12)


def test_search_rejects_non_store(corpus, tmp_path, capsys):
    pdb_dir, _ = corpus
    fake = tmp_path / "fake.cmg"
    fake.write_bytes(b"whatever this is")
    code, _, stderr = run(capsys, "search", fake, pdb_dir / "hel0.pdb")
    assert code == 1
    assert "error" in stderr


def test_search_uses_the_store_geometry(corpus, tmp_path, capsys):
    # a store built at 64 pixels is searched with 64-pixel query features
    # even when search gets no --config
    pdb_dir, _ = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"image_size": 64}')
    store = tmp_path / "small.cmg"
    assert run(capsys, "extract", pdb_dir, store, "--config", cfg)[0] == 0
    code, stdout, stderr = run(capsys, "search", store, pdb_dir / "ext3.pdb")
    assert code == 0
    assert stdout.splitlines()[0] == "1,ext3,0"
    assert "image_size=64" in stderr
    code, stdout, _ = run(capsys, "search", store, pdb_dir / "ext3.pdb", "--config", cfg)
    assert code == 0 and stdout.splitlines()[0] == "1,ext3,0"


def test_search_refuses_other_geometry(corpus, store_path, tmp_path, capsys):
    pdb_dir, _ = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"image_size": 64}')
    code, stdout, stderr = run(
        capsys, "search", store_path, pdb_dir / "hel0.pdb", "--config", cfg
    )
    assert code == 1 and stdout == ""
    assert "image_size=64" in stderr and "image_size=128" in stderr


def test_search_v1_store_and_v3_resave_print_the_same(tmp_path, capsys):
    # the checked-in v1 store holds this trace under the id "hélice"
    query = tmp_path / "hélice.pdb"
    query.write_text(ca_trace_to_pdb(helix_trace(40, "hélice", jitter=0.15, seed=11)))
    resaved = tmp_path / "v3.cmg"
    save_store(load_store(STORE_V1), resaved)
    code1, out1, _ = run(capsys, "search", STORE_V1, query)
    code2, out2, _ = run(capsys, "search", resaved, query)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "1,hélice,0" and len(out1.splitlines()) == 5


@pytest.mark.parametrize("k", [10, 2])
def test_search_v2_store_and_v3_resave_print_the_same(tmp_path, capsys, k):
    # the checked-in v2 store is the v1 store re-saved by the v2 writer
    query = tmp_path / "hélice.pdb"
    query.write_text(ca_trace_to_pdb(helix_trace(40, "hélice", jitter=0.15, seed=11)))
    resaved = tmp_path / "v3.cmg"
    save_store(load_store(STORE_V2), resaved)
    assert load_store(resaved).version == 3
    code1, out1, _ = run(capsys, "search", STORE_V2, query, "--k", k)
    code2, out2, _ = run(capsys, "search", resaved, query, "--k", k)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "1,hélice,0" and len(out1.splitlines()) == min(k, 5)


def _with_non_finite_value(src: Path, dst: Path, entry: str, value: float) -> None:
    """Copy a store, putting ``value`` into the given entry's matrix row."""
    store = load_store(src)
    row = store.ids().index(entry)
    blob = bytearray(src.read_bytes())
    at = len(blob) - store.matrix.nbytes + row * store.matrix.shape[1] * 8 + 40
    blob[at : at + 8] = np.float64(value).astype("<f8").tobytes()
    dst.write_bytes(bytes(blob))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_search_non_finite_distance_exits_1(corpus, store_path, tmp_path, capsys, bad):
    pdb_dir, _ = corpus
    damaged = tmp_path / "damaged.cmg"
    _with_non_finite_value(store_path, damaged, "ext2", bad)
    code, stdout, stderr = run(capsys, "search", damaged, pdb_dir / "hel0.pdb", "--k", 8)
    assert code == 1 and stdout == ""
    assert "non-finite distance" in stderr and "'ext2'" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_evaluate_non_finite_store_value_exits_1(corpus, store_path, tmp_path, capsys, bad):
    _, labels = corpus
    damaged = tmp_path / "damaged.cmg"
    _with_non_finite_value(store_path, damaged, "ext2", bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(
            capsys, "evaluate", damaged, tmp_path / "eval", "--labels", labels
        )
    assert code == 1 and stdout == ""
    assert "error: pair ext0,ext2 has a non-finite score" in stderr


@pytest.mark.parametrize("k", [0, -2])
def test_search_bad_k_exits_2_before_loading(tmp_path, capsys, k):
    code, stdout, stderr = run(
        capsys, "search", tmp_path / "absent.cmg", tmp_path / "q.pdb", "--k", k
    )
    assert code == 2 and stdout == ""
    assert f"--k must be >= 1, got {k}" in stderr


@pytest.mark.parametrize("command", ["extract", "evaluate"])
def test_bad_jobs_exits_2_before_loading(tmp_path, capsys, command):
    argv = [command, tmp_path / "absent", tmp_path / "out", "--jobs", 0]
    if command == "evaluate":
        argv += ["--labels", tmp_path / "absent.tsv"]
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert "--jobs must be >= 1, got 0" in stderr
    assert not (tmp_path / "out").exists()


# --- evaluate ---


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_evaluate_store_end_to_end(corpus, store_path, tmp_path, capsys):
    _, labels = corpus
    out = tmp_path / "eval"
    code, stdout, _ = run(capsys, "evaluate", store_path, out, "--labels", labels)
    assert code == 0
    for name in ("pvalue.csv", "mcc.csv", "roc.csv", "summary.txt"):
        assert (out / name).exists()
    summary = (out / "summary.txt").read_text()
    assert "pairs= 28" in summary
    assert "matches= 12" in summary
    assert "level= family" in summary
    assert "polarity= lower" in summary
    # the two synthetic families separate perfectly
    assert "auc= 1.000000" in summary
    assert "peak_mcc= 1.000000" in summary
    assert "sensitivity= 1.000000" in summary
    assert "specificity= 1.000000" in summary
    assert summary.strip() in stdout
    header, rows = read_rows(out / "roc.csv")
    assert header == "roc:lower,value,count"
    assert (rows[0][0], rows[0][1]) == ("0", "0")
    assert (rows[-1][0], rows[-1][1]) == ("1", "1")


def test_evaluate_matches_library_curves(corpus, store_path, tmp_path, capsys):
    _, labels_path = corpus
    out = tmp_path / "eval"
    assert run(capsys, "evaluate", store_path, out, "--labels", labels_path)[0] == 0

    labels = read_label_table(labels_path.read_text())
    pairs = score_pairs(load_store(store_path), labels)
    pol = Polarity.LOWER_IS_SIMILAR

    header, rows = read_rows(out / "mcc.csv")
    assert header == "mcc:lower,value,count"
    thresholds, values, _, _ = mcc_curve(pairs, pol, pvalue_curve(pairs, 200)[0])
    assert len(rows) == len(thresholds) == 200
    for row, t, m in zip(rows, thresholds.tolist(), values.tolist()):
        assert float(row[0]) == t
        assert float(row[1]) == m
        assert row[2] == "28"

    _, rows = read_rows(out / "pvalue.csv")
    centers, prob, counts = pvalue_curve(pairs, 200)
    assert len(rows) == len(centers) == 200
    for row, center, p, count in zip(rows, centers.tolist(), prob.tolist(), counts.tolist()):
        assert float(row[0]) == center
        assert int(row[2]) == count
        if count:
            assert float(row[1]) == p
        else:
            assert math.isnan(float(row[1]))


def test_evaluate_echoes_the_store_geometry(corpus, tmp_path, capsys):
    # without --config, the config line shows the store's geometry, not
    # the defaults
    pdb_dir, labels = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"image_size": 64}')
    store = tmp_path / "small.cmg"
    assert run(capsys, "extract", pdb_dir, store, "--config", cfg)[0] == 0
    code, _, stderr = run(capsys, "evaluate", store, tmp_path / "eval", "--labels", labels)
    assert code == 0
    assert stderr.splitlines()[0] == (
        "config: bins_comograd=16 bins_phog=9 phog_levels=3 image_size=64 eval_bins=200"
    )


def test_evaluate_refuses_other_geometry(corpus, store_path, tmp_path, capsys):
    _, labels = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"image_size": 64}')
    out = tmp_path / "eval"
    code, stdout, stderr = run(
        capsys, "evaluate", store_path, out, "--labels", labels, "--config", cfg
    )
    assert code == 1 and stdout == "" and not out.exists()
    assert "image_size=64" in stderr and "image_size=128" in stderr


def test_evaluate_eval_bins_flag(corpus, store_path, tmp_path, capsys):
    _, labels = corpus
    out = tmp_path / "eval"
    code, _, stderr = run(
        capsys, "evaluate", store_path, out, "--labels", labels, "--eval-bins", 17
    )
    assert code == 0
    assert stderr.splitlines()[0].endswith(" eval_bins=17")  # the value in effect
    assert len(read_rows(out / "pvalue.csv")[1]) == 17
    assert len(read_rows(out / "mcc.csv")[1]) == 17


def test_evaluate_eval_bins_from_config(corpus, store_path, tmp_path, capsys):
    _, labels = corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"eval_bins": 23}')
    out = tmp_path / "eval"
    code, _, _ = run(
        capsys, "evaluate", store_path, out, "--labels", labels, "--config", cfg
    )
    assert code == 0
    assert len(read_rows(out / "pvalue.csv")[1]) == 23


def test_evaluate_superfamily_level(corpus, store_path, tmp_path, capsys):
    _, labels = corpus
    out = tmp_path / "eval"
    code, _, _ = run(
        capsys, "evaluate", store_path, out, "--labels", labels, "--level", "superfamily"
    )
    assert code == 0
    assert "level= superfamily" in (out / "summary.txt").read_text()


def test_evaluate_single_class_exits_3(corpus, store_path, tmp_path, capsys):
    ids = HELIX_IDS + EXT_IDS
    # every pair a match (one family), then every pair a non-match
    for name, families in (("all_match", [1] * len(ids)), ("no_match", range(1, len(ids) + 1))):
        labels = tmp_path / f"{name}.tsv"
        labels.write_text("".join(f"{sid}\ta.1.1.{f}\n" for sid, f in zip(ids, families)))
        out = tmp_path / name
        code, _, stderr = run(capsys, "evaluate", store_path, out, "--labels", labels)
        assert code == 3
        assert not (out / "roc.csv").exists()
        assert (out / "mcc.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "auc= undefined (single class)" in summary
        assert "sensitivity= undefined\n" in summary
        assert "specificity= undefined\n" in summary
        assert stderr.splitlines()[1:] == [
            "error: need at least one match and one non-match; roc.csv not written"
        ]


def test_evaluate_summary_rates_hand_cases(tmp_path, capsys):
    # every threshold of the grid splits the scores 0 and 1, so the
    # summary's rates are those of the one table (tp, fn, tn, fp)
    for tp, fn, tn, fp, rates in (
        (3, 1, 5, 0, ("0.750000", "1.000000")),
        (4, 0, 6, 0, ("1.000000", "1.000000")),
        (2, 2, 1, 3, ("0.500000", "0.250000")),
    ):
        rows = [(0.0, True)] * tp + [(1.0, True)] * fn + [(1.0, False)] * tn + [(0.0, False)] * fp
        labels = tmp_path / "labels.tsv"
        labels.write_text(
            "".join(
                f"a{k}\tc.1.1.{k + 1}\nb{k}\tc.1.1.{k + 1 if match else 1000 + k}\n"
                for k, (_, match) in enumerate(rows)
            )
        )
        scores = tmp_path / "scores.csv"
        scores.write_text("".join(f"a{k},b{k},{s}\n" for k, (s, _) in enumerate(rows)))
        out = tmp_path / f"eval{tp}{fn}{tn}{fp}"
        code, stdout, _ = run(
            capsys, "evaluate", scores, out, "--labels", labels, "--polarity", "lower"
        )
        assert code == 0
        assert f"sensitivity= {rates[0]}\nspecificity= {rates[1]}\n" in stdout


def test_evaluate_bad_first_label_row_exits_1(corpus, store_path, tmp_path, capsys):
    # family 0 does not parse, but a first row whose classification has
    # dots is data, not a header, so it is named rather than dropped
    labels = tmp_path / "labels.tsv"
    labels.write_text(
        "hel0\ta.1.1.0\n" + "".join(f"{sid}\ta.1.1.1\n" for sid in HELIX_IDS[1:] + EXT_IDS)
    )
    out = tmp_path / "eval"
    code, stdout, stderr = run(capsys, "evaluate", store_path, out, "--labels", labels)
    assert code == 1 and stdout == ""
    assert stderr.endswith("error: 'hel0': numeric levels must be positive in 'a.1.1.0'\n")
    assert not out.exists()


def test_evaluate_missing_label_exits_3(corpus, store_path, tmp_path, capsys):
    labels = tmp_path / "short.tsv"
    labels.write_text("".join(f"{sid}\ta.1.1.1\n" for sid in HELIX_IDS + EXT_IDS[:3]))
    code, _, stderr = run(
        capsys, "evaluate", store_path, tmp_path / "eval", "--labels", labels
    )
    assert code == 3
    assert "ext3" in stderr


def test_evaluate_score_file_needs_polarity(corpus, store_path, tmp_path, capsys):
    _, labels = corpus
    score_file = tmp_path / "scores.csv"
    score_file.write_text("hel0,hel1,0.5\nhel0,ext0,2.0\n")
    code, _, stderr = run(
        capsys, "evaluate", score_file, tmp_path / "eval", "--labels", labels
    )
    assert code == 2
    assert "--polarity" in stderr


def test_evaluate_store_refuses_higher_polarity(corpus, store_path, tmp_path, capsys):
    # a store scores pairs by distance, so only "lower" reads it right
    _, labels = corpus
    out = tmp_path / "eval"
    code, stdout, stderr = run(
        capsys, "evaluate", store_path, out, "--labels", labels, "--polarity", "higher"
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert stderr.splitlines()[-1].startswith("error: --polarity higher does not apply")
    code, stdout, _ = run(
        capsys, "evaluate", store_path, out, "--labels", labels, "--polarity", "lower"
    )
    assert code == 0 and "polarity= lower" in stdout


def test_evaluate_external_scores_higher_polarity(corpus, store_path, tmp_path, capsys):
    _, labels_path = corpus
    labels = read_label_table(labels_path.read_text())
    pairs = score_pairs(load_store(store_path), labels)
    score_file = tmp_path / "sims.csv"
    score_file.write_text(
        "id_a,id_b,score\n"
        + "".join(f"{a},{b},{-s:.17g}\n" for a, b, s, _ in pair_rows(pairs))
    )
    out = tmp_path / "eval"
    code, _, _ = run(
        capsys,
        "evaluate", score_file, out, "--labels", labels_path, "--polarity", "higher",
    )
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "polarity= higher" in summary
    # negating the scores and flipping the polarity preserves the ranking
    assert "auc= 1.000000" in summary
    assert "peak_mcc= 1.000000" in summary


def test_evaluate_missing_input_file(corpus, tmp_path, capsys):
    _, labels = corpus
    missing = tmp_path / "nope.csv"
    assert run(capsys, "evaluate", missing, tmp_path / "e1", "--labels", labels)[0] == 2
    code, _, stderr = run(
        capsys,
        "evaluate", missing, tmp_path / "e2", "--labels", labels, "--polarity", "lower",
    )
    assert code == 1
    assert "error" in stderr


def test_evaluate_sampling_is_deterministic(corpus, store_path, tmp_path, capsys):
    _, labels = corpus
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code, _, _ = run(
            capsys,
            "evaluate", store_path, out, "--labels", labels,
            "--sample", 10, "--seed", 4,
        )
        assert code == 0
        outs.append(out)
    for name in ("pvalue.csv", "mcc.csv", "roc.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert "pairs= 10" in (outs[0] / "summary.txt").read_text()


def test_evaluate_parallel_outputs_identical(corpus, store_path, tmp_path, capsys):
    _, labels = corpus
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert run(capsys, "evaluate", store_path, serial, "--labels", labels)[0] == 0
    assert (
        run(capsys, "evaluate", store_path, parallel, "--labels", labels, "--jobs", 2)[0]
        == 0
    )
    for name in ("pvalue.csv", "mcc.csv", "roc.csv", "summary.txt"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_evaluate_degenerate_scores_exit_1(tmp_path, capsys):
    labels = tmp_path / "labels.tsv"
    labels.write_text("a\ta.1.1.1\nb\ta.1.1.1\nc\tb.1.1.1\n")
    score_file = tmp_path / "flat.csv"
    score_file.write_text("a,b,1.0\na,c,1.0\nb,c,1.0\n")
    code, _, stderr = run(
        capsys,
        "evaluate", score_file, tmp_path / "eval",
        "--labels", labels, "--polarity", "lower",
    )
    assert code == 1
    assert "error" in stderr


@pytest.mark.parametrize("sample", [0, -3])
def test_evaluate_bad_sample_exits_2(corpus, store_path, tmp_path, capsys, sample):
    _, labels = corpus
    code, _, stderr = run(
        capsys,
        "evaluate", store_path, tmp_path / "eval", "--labels", labels, "--sample", sample,
    )
    assert code == 2
    assert "error: --sample" in stderr


def test_evaluate_header_only_score_file_exits_2(corpus, tmp_path, capsys):
    _, labels = corpus
    score_file = tmp_path / "empty.csv"
    score_file.write_text("id_a,id_b,score\n# nothing scored\n")
    code, _, stderr = run(
        capsys,
        "evaluate", score_file, tmp_path / "eval", "--labels", labels, "--polarity", "lower",
    )
    assert code == 2
    assert "error:" in stderr


def test_evaluate_overflowing_score_range_exits_1(corpus, tmp_path, capsys):
    # finite scores whose max - min is not finite: no equal-width bins
    _, labels = corpus
    score_file = tmp_path / "scores.csv"
    score_file.write_text("hel0,hel1,-1e308\nhel0,ext0,1e308\nhel1,ext0,0\n")
    out = tmp_path / "eval"
    code, stdout, stderr = run(
        capsys, "evaluate", score_file, out, "--labels", labels, "--polarity", "lower"
    )
    assert code == 1 and stdout == ""
    assert "error: score range [-1e+308, 1e+308]" in stderr
    assert not (out / "pvalue.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_evaluate_non_finite_score_exits_1(corpus, tmp_path, capsys, bad):
    _, labels = corpus
    score_file = tmp_path / "scores.csv"
    score_file.write_text(f"hel0,hel1,0.5\nhel0,ext0,{bad}\nhel1,ext0,2.0\n")
    code, _, stderr = run(
        capsys,
        "evaluate", score_file, tmp_path / "eval", "--labels", labels, "--polarity", "lower",
    )
    assert code == 1
    assert "hel0,ext0" in stderr


def test_evaluate_score_row_with_a_decimal_comma_exits_1(corpus, tmp_path, capsys):
    # "0,5" is two fields: read as three, the row would score 0
    _, labels = corpus
    score_file = tmp_path / "scores.csv"
    score_file.write_text("hel0,hel1,0,5\nhel0,ext0,2,25\nhel1,ext0,1,0\n")
    out = tmp_path / "eval"
    code, _, stderr = run(
        capsys, "evaluate", score_file, out, "--labels", labels, "--polarity", "lower"
    )
    assert code == 1
    assert stderr.endswith(
        "error: score row has more fields than id_a,id_b,score: 'hel0,hel1,0,5'\n"
    )
    assert not (out / "summary.txt").exists()


def test_evaluate_mistyped_first_score_row_exits_1(corpus, tmp_path, capsys):
    # a first row naming labelled ids is data, not a header, even if its
    # score does not parse ("1.O" holds a letter O)
    _, labels = corpus
    score_file = tmp_path / "scores.csv"
    score_file.write_text("hel0,hel1,1.O\nhel0,ext0,2.0\nhel1,ext0,1.0\next0,ext1,0.5\n")
    out = tmp_path / "eval"
    code, _, stderr = run(
        capsys, "evaluate", score_file, out, "--labels", labels, "--polarity", "lower"
    )
    assert code == 1
    assert stderr.endswith("error: score row has a score that is not a number: 'hel0,hel1,1.O'\n")
    assert not (out / "summary.txt").exists()
    # a header names no labelled id, so it is still skipped
    score_file.write_text("id_a,id_b,score\nhel0,ext0,2.0\nhel1,ext0,1.0\next0,ext1,0.5\n")
    code, _, _ = run(
        capsys, "evaluate", score_file, out, "--labels", labels, "--polarity", "lower"
    )
    assert code == 0
    assert "pairs= 3" in (out / "summary.txt").read_text()


@pytest.mark.parametrize(
    "case",
    [
        "score_unknown_config_key",
        "search_invalid_config_json",
        "search_missing_query",
        "extract_missing_labels",
        "evaluate_missing_labels",
        "evaluate_eval_bins_1",
        "evaluate_out_dir_is_a_file",
        "extract_out_dir_missing",
        # geometry that cannot fit in memory: a 2**16-pixel image is 32 GiB,
        # and 100000 co-occurrence bins are 10**10 values
        "score_image_size_65536",
        "score_bins_comograd_100000",
        "search_store_header_image_size_65536",
    ],
)
def test_failures_exit_with_one_error_line(corpus, store_path, tmp_path, capsys, case):
    # exit codes of failures that no other test reaches
    pdb_dir, labels = corpus
    hel0 = pdb_dir / "hel0.pdb"
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"mystery_knob": 3}')
    broken = tmp_path / "broken.json"
    broken.write_text('{"image_size": ')
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    huge_image = tmp_path / "huge_image.json"
    huge_image.write_text('{"image_size": 65536}')
    many_bins = tmp_path / "many_bins.json"
    many_bins.write_text('{"bins_comograd": 100000}')
    # the vector length does not depend on image_size, so this header
    # frames a valid store
    blob = bytearray(store_path.read_bytes())
    assert struct.unpack_from("<I", blob, 24) == (128,)  # image_size
    struct.pack_into("<I", blob, 24, 1 << 16)
    huge_store = tmp_path / "huge.cmg"
    huge_store.write_bytes(bytes(blob))
    expected, argv = {
        "score_image_size_65536": (1, ["score", hel0, hel0, "--config", huge_image]),
        "score_bins_comograd_100000": (1, ["score", hel0, hel0, "--config", many_bins]),
        "search_store_header_image_size_65536": (1, ["search", huge_store, hel0]),
        "score_unknown_config_key": (1, ["score", hel0, hel0, "--config", unknown]),
        "search_invalid_config_json": (1, ["search", store_path, hel0, "--config", broken]),
        "search_missing_query": (1, ["search", store_path, tmp_path / "nope.pdb"]),
        "extract_missing_labels": (
            1,
            ["extract", pdb_dir, tmp_path / "out.cmg", "--labels", tmp_path / "nope.tsv"],
        ),
        "evaluate_missing_labels": (
            1,
            ["evaluate", store_path, tmp_path / "eval", "--labels", tmp_path / "nope.tsv"],
        ),
        "evaluate_eval_bins_1": (
            2,
            ["evaluate", store_path, tmp_path / "eval", "--labels", labels, "--eval-bins", 1],
        ),
        "evaluate_out_dir_is_a_file": (1, ["evaluate", store_path, a_file, "--labels", labels]),
        "extract_out_dir_missing": (1, ["extract", pdb_dir, tmp_path / "nope" / "out.cmg"]),
    }[case]
    code, stdout, stderr = run(capsys, *argv)
    assert code == expected
    assert stdout == ""
    assert "Traceback" not in stderr
    assert len([line for line in stderr.splitlines() if line.startswith("error: ")]) == 1


@pytest.mark.parametrize(
    "scores, line",
    [
        (None, "error: 1 ids without labels, e.g. ext3"),
        ("hel0,,0.5\n", "error: no label for id ''"),
    ],
    ids=["store", "score_file"],
)
def test_missing_label_error_is_printed_unquoted(
    corpus, store_path, tmp_path, capsys, scores, line
):
    _, labels = corpus
    if scores is None:
        short = tmp_path / "short.tsv"
        short.write_text("".join(f"{sid}\ta.1.1.1\n" for sid in HELIX_IDS + EXT_IDS[:3]))
        argv = [store_path, tmp_path / "eval", "--labels", short]
    else:
        score_file = tmp_path / "scores.csv"
        score_file.write_text(scores)
        argv = [score_file, tmp_path / "eval", "--labels", labels, "--polarity", "lower"]
    code, stdout, stderr = run(capsys, "evaluate", *argv)
    assert code == 3 and stdout == ""
    assert stderr.splitlines()[-1] == line


# --- evaluation golden ---

GOLDEN_EVAL = Path(__file__).parent / "data" / "golden_eval.json"


def golden_eval_inputs(root):
    """A 120-entry store in 15 families and 5 superfamilies, its label table
    and an ``id_a,id_b,score`` file of all its pairs.

    Descriptor values lie on a 1/64 grid, so every squared distance is an
    exact sum in float64 whatever order it is added in, and the outputs do
    not depend on the machine's summation kernel.
    """
    rng = np.random.default_rng(20240517)
    superfamily = 32 + rng.integers(-2, 3, size=(5, FEATURE_LENGTH))
    family = rng.integers(-2, 3, size=(15, FEATURE_LENGTH))
    entries, rows = [], []
    for f in range(15):
        for m in range(8):
            noise = rng.integers(-10, 11, size=FEATURE_LENGTH)
            values = np.clip(superfamily[f // 3] + family[f] + noise, 0, 63) / 64.0
            sid = f"g{f:02d}m{m}"
            entries.append(FeatureVector(id=sid, values=values))
            rows.append(f"{sid}\tc.1.{f // 3 + 1}.{f % 3 + 1}")
    # stored out of id order; evaluation pairs entries in id order
    order = rng.permutation(len(entries))
    store = root / "golden.cmg"
    save_store(FeatureStore(entries=[entries[k] for k in order]), store)
    labels = root / "golden_labels.tsv"
    labels.write_text("sid\tsccs\n" + "\n".join(rows) + "\n")
    lines = ["id_a,id_b,score", "# all pairs, Euclidean distance"]
    for a, b in itertools.combinations(entries, 2):
        d = float(np.sqrt(((a.values - b.values) ** 2).sum()))
        lines.append(f"{a.id},{b.id},{d:.17g}")
    scores = root / "golden_scores.csv"
    scores.write_text("\n".join(lines) + "\n")
    return store, labels, scores


def golden_eval_digests(root, capsys):
    """sha256 of every output and of stdout for each evaluation case."""
    store, labels, scores = golden_eval_inputs(root)
    cases = {
        "store_family": [store],
        "store_superfamily": [store, "--level", "superfamily"],
        "store_sample2000": [store, "--sample", 2000],
        "file_lower": [scores, "--polarity", "lower"],
    }
    digests = {}
    for name, argv in cases.items():
        out = root / name
        code, stdout, _ = run(capsys, "evaluate", argv[0], out, "--labels", labels, *argv[1:])
        assert code == 0
        digests[name] = {
            f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("pvalue.csv", "mcc.csv", "roc.csv", "summary.txt")
        }
        digests[name]["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return digests


def test_evaluate_matches_golden(tmp_path, capsys):
    # digests recorded from the per-pair implementation of evaluate; any
    # change here changes the bytes evaluate writes
    assert golden_eval_digests(tmp_path, capsys) == json.loads(GOLDEN_EVAL.read_text())


# --- module entry point ---


def test_module_invocation(corpus):
    pdb_dir, _ = corpus
    f = str(pdb_dir / "ext1.pdb")
    proc = subprocess.run(
        [sys.executable, "-m", "comogphog", "score", f, f],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "d= 0.000000000\n"


def test_importing_the_cli_starts_no_pool_machinery():
    # the process pool's module costs 11-17 ms in a fresh process; only
    # extract --jobs and evaluate --jobs import it, when they start a pool
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, comogphog.cli; print('concurrent.futures.process' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# --- evaluate's Gram filter: bytes that do not depend on threads or jobs ---


def _report(out):
    return {f: (out / f).read_bytes() for f in ("pvalue.csv", "mcc.csv", "roc.csv", "summary.txt")}


def test_evaluate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 400 x 1024 is large enough that OpenBLAS splits the Gram product
    # over two threads; the filter's bound holds in any summation order
    rng = np.random.default_rng(70)
    ids = [f"t{k:03d}" for k in range(400)]
    save_store(FeatureStore(ids=ids, matrix=rng.random((400, FEATURE_LENGTH))), tmp_path / "s.cmg")
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(f"{sid}\ta.1.{k % 3 + 1}.{k % 7 + 1}\n" for k, sid in enumerate(ids)))
    reports = []
    for threads, jobs in (("1", "1"), ("2", "1"), ("2", "2")):
        out = tmp_path / f"t{threads}j{jobs}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "comogphog", "evaluate", str(tmp_path / "s.cmg"), str(out),
             "--labels", str(labels), "--jobs", jobs],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((proc.stdout, _report(out)))
    assert reports[0] == reports[1] == reports[2]


def test_evaluate_exact_fallback_keeps_bytes_at_any_jobs(tmp_path, capsys, monkeypatch):
    # rows from 12 distinct vectors: every distance is tied, so the filter
    # gives way to exact scoring, which runs in a pool at --jobs 2
    monkeypatch.setattr(evalstats, "_POOL_MIN_PAIRS", 0)
    rng = np.random.default_rng(71)
    matrix = rng.random((12, FEATURE_LENGTH))[rng.integers(0, 12, size=60)]
    ids = [f"d{k:02d}" for k in range(60)]
    save_store(FeatureStore(ids=ids, matrix=matrix), tmp_path / "s.cmg")
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(f"{sid}\tb.1.1.{k % 2 + 1}\n" for k, sid in enumerate(ids)))
    reports = []
    for jobs in (1, 2):
        out = tmp_path / f"j{jobs}"
        code, stdout, _ = run(capsys, "evaluate", tmp_path / "s.cmg", out, "--labels", labels,
                              "--jobs", jobs)
        assert code == 0
        reports.append((stdout, _report(out)))
    assert reports[0] == reports[1]
