#!/usr/bin/env python3
"""All-pairs ``evaluate`` of a store at growing sizes: the Gram filter against exact scoring.

For each N it builds, from the seed, a store of N descriptor-like rows
(53 families in 7 superfamilies, assigned by row number) and its label
table, then runs the store path of ``evaluate`` twice, each time in a
fresh process:

- ``filter``: the path ``evaluate`` takes (the Gram filter, exact
  distances only where the report needs them);
- ``exact``: every pair scored exactly (``score_pairs``), then the same
  report writer.

It prints one row per run: pairs, pairs scored exactly, wall seconds
(scoring and writing the report, not loading Python) and the process's
peak RSS.  With ``--check`` it also byte-compares the two reports and
exits 1 if they differ.

Usage:
    python3 scripts/evaluate_scale.py --rows 1000 2000 4000
    python3 scripts/evaluate_scale.py --rows 400 --check
"""

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np

REPORT_FILES = ("pvalue.csv", "mcc.csv", "roc.csv", "summary.txt")
FAMILIES, SUPERFAMILIES = 53, 7


def build(rows: int, seed: int, out: Path) -> tuple[Path, Path]:
    """A store of ``rows`` noisy copies of per-family base vectors, and its labels."""
    from comogphog.featuredb import FeatureStore, save_store
    from comogphog.features import FEATURE_LENGTH

    rng = np.random.default_rng(seed)
    base = rng.random((FAMILIES, FEATURE_LENGTH))
    family = np.arange(rows) % FAMILIES
    matrix = np.abs(base[family] + 0.4 * rng.standard_normal((rows, FEATURE_LENGTH)))
    ids = [f"r{k:06d}" for k in range(rows)]
    store = out / f"store{rows}.cmg"
    save_store(FeatureStore(ids=ids, matrix=matrix), store)
    labels = out / f"labels{rows}.tsv"
    labels.write_text(
        "".join(
            f"{sid}\tc.1.{f % SUPERFAMILIES + 1}.{f + 1}\n" for sid, f in zip(ids, family.tolist())
        ),
        encoding="utf-8",
    )
    return store, labels


def run_path(path: str, store: str, labels: str, out: str) -> dict:
    """One store-path evaluation in this process; returns its figures."""
    from comogphog import evalstats
    from comogphog.cli import _write_evaluation
    from comogphog.featuredb import load_store
    from comogphog.structure_io import read_label_table

    scored = [0]
    kernel = evalstats._pair_distances

    def counted(db, i, j):
        scored[0] += len(i)
        return kernel(db, i, j)

    evalstats._pair_distances = counted
    start = time.perf_counter()
    db = load_store(store)
    table = read_label_table(Path(labels).read_text(encoding="utf-8"))
    bins = evalstats.DEFAULT_EVAL_BINS
    if path == "filter":
        pairs = evalstats._report_pairs(db, table, "family", bins)
    else:
        pairs = evalstats.score_pairs(db, table, "family")
    del db
    Path(out).mkdir(parents=True)
    code = _write_evaluation(pairs, evalstats.Polarity.LOWER_IS_SIMILAR, bins, "family", Path(out))
    wall = time.perf_counter() - start
    # kilobytes on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "pairs": len(pairs), "exact": scored[0], "wall_s": wall, "peak_mb": peak_mb, "code": code
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rows", type=int, nargs="+", default=[1000, 2000, 4000])
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--check", action="store_true", help="byte-compare the two reports")
    # one run in this process: filter|exact, store, labels, output directory
    p.add_argument("--run", nargs=4, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.run:
        with open(Path(args.run[3]).with_suffix(".json"), "w") as fh:
            json.dump(run_path(*args.run), fh)
        return 0

    failed = False
    print("rows,pairs,path,scored_exactly,wall_s,peak_rss_mb")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for rows in args.rows:
            store, labels = build(rows, args.seed, work)
            reports = {}
            for path in ("filter", "exact"):
                out = work / f"{path}{rows}"
                subprocess.run(
                    [sys.executable, __file__, "--run", path, str(store), str(labels), str(out)],
                    check=True,
                    stdout=subprocess.DEVNULL,
                )
                r = json.loads(out.with_suffix(".json").read_text())
                print(
                    f"{rows},{r['pairs']},{path},{r['exact']},{r['wall_s']:.3f},{r['peak_mb']:.1f}",
                    flush=True,
                )
                files = [(out / f).read_bytes() for f in REPORT_FILES if (out / f).exists()]
                reports[path] = (r["code"], files)
            if args.check and reports["filter"] != reports["exact"]:
                print(f"reports differ at {rows} rows", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
