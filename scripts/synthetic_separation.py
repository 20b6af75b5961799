#!/usr/bin/env python3
"""Two-family separation experiment on synthetic traces.

Builds a family of jittered helical traces and a family of jittered
extended traces, scores every pair, and reports how cleanly the score
separates within-family from between-family pairs: worst-case scores on
either side of the margin, peak MCC over a threshold sweep, and AUC.
Optionally writes the evaluation curves as CSV.  Raising --jitter is the
interesting knob: around 0.1 Angstrom the families start to overlap and
the exit code flips to 1.

Usage:
    python3 scripts/synthetic_separation.py
    python3 scripts/synthetic_separation.py --members 20 --jitter 0.2 --out-dir runs/sep
"""

import argparse
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from comogphog.evalstats import (
    DEFAULT_EVAL_BINS,
    PairScores,
    Polarity,
    auc,
    mcc_curve,
    pvalue_curve,
    roc_curve,
    write_curve_csv,
)
from comogphog.features import extract_features
from comogphog.scoring import score
from comogphog.synthetic import extended_trace, helix_trace


def build_pairs(members: int, length: int, jitter: float, seed: int):
    feats = {}
    for i in range(members):
        n = length + (i % 5)  # mild length variation within each family
        feats[f"hel{i:02d}"] = extract_features(
            helix_trace(n, f"hel{i:02d}", jitter=jitter, seed=seed + i)
        )
        feats[f"ext{i:02d}"] = extract_features(
            extended_trace(n, f"ext{i:02d}", jitter=jitter, seed=seed + 1000 + i)
        )
    ids = sorted(feats)
    i, j = np.array(list(itertools.combinations(range(len(ids)), 2)), dtype=np.int32).T
    return PairScores(
        ids=ids,
        i=i,
        j=j,
        score=np.array([score(feats[ids[a]], feats[ids[b]]) for a, b in zip(i, j)]),
        match=np.array([ids[a][:3] == ids[b][:3] for a, b in zip(i, j)]),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--members", type=int, default=10, help="traces per family")
    ap.add_argument("--length", type=int, default=44, help="base trace length")
    ap.add_argument("--jitter", type=float, default=0.05, help="coordinate noise, Angstrom")
    ap.add_argument("--seed", type=int, default=300)
    ap.add_argument("--bins", type=int, default=DEFAULT_EVAL_BINS, help="threshold grid size")
    ap.add_argument("--out-dir", help="also write pvalue/mcc/roc CSVs here")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    pairs = build_pairs(args.members, args.length, args.jitter, args.seed)
    intra = pairs.score[pairs.match]
    inter = pairs.score[~pairs.match]
    pol = Polarity.LOWER_IS_SIMILAR

    centers, prob, count = pvalue_curve(pairs, args.bins)
    # the MCC is swept over the bin centers, as evaluate does
    thresholds, values, _, _ = mcc_curve(pairs, pol, centers)
    peak = int(np.argmax(values))
    fpr, tpr = roc_curve(pairs, pol)
    elapsed = time.perf_counter() - t0

    gap = float(inter.min() - intra.max())
    print(f"pairs: {len(pairs)} ({intra.size} intra, {inter.size} inter)")
    print(f"intra scores: {intra.min():.6f} .. {intra.max():.6f}")
    print(f"inter scores: {inter.min():.6f} .. {inter.max():.6f}")
    print(f"margin: {gap:+.6f} ({'separated' if gap > 0 else 'OVERLAPPING'})")
    print(f"peak mcc: {values[peak]:.6f} at threshold {thresholds[peak]:.6f}")
    print(f"auc: {auc(fpr, tpr):.6f}")
    print(f"elapsed: {elapsed:.2f}s")

    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_curve_csv(out / "pvalue.csv", "pvalue", pol, centers, prob, count)
        write_curve_csv(out / "mcc.csv", "mcc", pol, thresholds, values, len(pairs))
        write_curve_csv(out / "roc.csv", "roc", pol, fpr, tpr, 0)
        print(f"curves written to {out}")

    return 0 if gap > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
