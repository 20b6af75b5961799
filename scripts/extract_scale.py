#!/usr/bin/env python3
"""Extraction time and memory by chain length, one fresh process per length.

For each length it extracts a seeded random-walk trace of that many
residues in a fresh process with one BLAS thread, and prints one row:
the residue count, the median time of ``normalize_size`` on the trace's
grayscale distance image, the median time of the whole
``extract_features`` call, and the process's peak RSS.  The medians are
over ``--repeats`` calls; the first of each is a warm-up and not counted.

Usage:
    python3 scripts/extract_scale.py --lengths 300 600 930 1300 2180
    python3 scripts/extract_scale.py --lengths 300 600 --repeats 3
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def median_ms(fn, repeats: int) -> float:
    """Median wall time of ``fn()`` in milliseconds, after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def run_length(n: int, seed: int, repeats: int) -> dict:
    """Time one length in this process; returns its figures."""
    from comogphog.distmat import distance_matrix, to_gray
    from comogphog.features import extract_features
    from comogphog.imageops import normalize_size
    from comogphog.synthetic import random_walk_trace

    trace = random_walk_trace(n, f"walk{n}", seed=seed)
    gray = to_gray(distance_matrix(trace))
    resample_ms = median_ms(lambda: normalize_size(gray), repeats)
    del gray
    extract_ms = median_ms(lambda: extract_features(trace), repeats)
    # kilobytes on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"normalize_size_ms": resample_ms, "extract_features_ms": extract_ms, "peak_mb": peak_mb}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--lengths", type=int, nargs="+", default=[300, 600, 930, 1300, 2180])
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--repeats", type=int, default=5)
    # one length in this process
    p.add_argument("--run", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.repeats < 1 or min(args.lengths) < 2:
        p.error("--repeats must be at least 1 and every length at least 2")
    if args.run is not None:
        print(json.dumps(run_length(args.run, args.seed, args.repeats)))
        return 0

    env = dict(os.environ, **ONE_THREAD)
    print("residues,normalize_size_ms,extract_features_ms,peak_rss_mb")
    for n in args.lengths:
        proc = subprocess.run(
            [sys.executable, __file__, "--run", str(n), "--seed", str(args.seed),
             "--repeats", str(args.repeats)],
            check=True, capture_output=True, text=True, env=env,
        )
        r = json.loads(proc.stdout)
        print(
            f"{n},{r['normalize_size_ms']:.1f},{r['extract_features_ms']:.1f},{r['peak_mb']:.1f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
