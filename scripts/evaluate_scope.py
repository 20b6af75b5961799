#!/usr/bin/env python3
"""Full-corpus benchmark driver: extract once, evaluate at both label levels.

Given a directory of PDB-format domain files and a label table
(``sid<TAB>sccs`` rows), this builds the feature store, then runs the
evaluation once with family-level ground truth and once with
superfamily-level ground truth, leaving each report in its own
subdirectory and printing the two summaries side by side.

Usage:
    python3 scripts/evaluate_scope.py --corpus pdbstyle/ --labels dir.cla.tsv \\
        --out-dir runs/scope --jobs 8 --sample 2000000
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from comogphog.cli import main as cli_main
from comogphog.evalstats import DEFAULT_EVAL_BINS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", required=True, help="directory of domain structure files")
    ap.add_argument("--labels", required=True, help="label table, sid<TAB>sccs per row")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--sample", type=int, help="cap the number of evaluated pairs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--eval-bins", type=int, default=DEFAULT_EVAL_BINS)
    ap.add_argument("--skip-extract", action="store_true",
                    help="reuse an existing feature store in out-dir")
    args = ap.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    store = out / "corpus.cmg"

    if not args.skip_extract or not store.exists():
        code = cli_main(
            ["extract", args.corpus, str(store), "--labels", args.labels,
             "--jobs", str(args.jobs)]
        )
        if code:
            return code

    summaries = {}
    for level in ("family", "superfamily"):
        level_dir = out / level
        argv_eval = [
            "evaluate", str(store), str(level_dir),
            "--labels", args.labels,
            "--level", level,
            "--jobs", str(args.jobs),
            "--eval-bins", str(args.eval_bins),
            "--seed", str(args.seed),
        ]
        if args.sample:
            argv_eval += ["--sample", str(args.sample)]
        code = cli_main(argv_eval)
        if code:
            return code
        summaries[level] = (level_dir / "summary.txt").read_text().rstrip()

    print()
    for level, text in summaries.items():
        print(f"--- {level} ---")
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
