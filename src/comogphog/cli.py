"""Command-line front end: extract, score, search, evaluate.

Commands raise; :func:`main` prints ``error: <message>`` on stderr and
maps the error's type to the exit code, most specific type first:

    3  MissingLabelError: an id has no label
    2  EmptyCorpusError: extract found no parseable structure file
    2  UsageError: --jobs, --k or --sample below 1, --eval-bins below 2,
       a score file without --polarity, a store with --polarity higher,
       or a score file with no data rows
    1  OSError: a file that cannot be read or written
    1  ValueError: a bad config or store, unparseable input, a non-finite
       score or distance, a store built with other geometry, or all scores
       equal

``evaluate`` also exits 3 when only one class is present: it writes every
output it can, but no roc.csv, and prints the error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evalstats, featuredb
from .evalstats import Polarity
from .features import FeatureConfig
from .scoring import score, search
from .structure_io import read_label_table


class UsageError(Exception):
    """Bad invocation: an option value out of range or a missing option."""


# error type -> exit code; the first match wins, so a subclass must
# come before its base (EmptyCorpusError is a ValueError)
_EXIT_CODES = (
    (evalstats.MissingLabelError, 3),
    (featuredb.EmptyCorpusError, 2),
    (UsageError, 2),
    (OSError, 1),
    (ValueError, 1),
)

# JSON config key -> FeatureConfig field, in the order the echo prints them
_FEATURE_KEYS = {
    "bins_comograd": "comograd_bins",
    "bins_phog": "phog_bins",
    "phog_levels": "phog_levels",
    "image_size": "image_size",
}


def _load_config(path: str | None) -> tuple[FeatureConfig, int]:
    """Pipeline geometry and evaluation grid size from a JSON file, else the defaults."""
    raw = json.loads(_read_text(path)) if path else {}
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - set(_FEATURE_KEYS) - {"eval_bins"}
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    geometry = {field: raw[key] for key, field in _FEATURE_KEYS.items() if key in raw}
    features = FeatureConfig(**geometry)
    features.validate()
    eval_bins = raw.get("eval_bins", evalstats.DEFAULT_EVAL_BINS)
    if not isinstance(eval_bins, int) or eval_bins < 2:
        raise ValueError(f"eval_bins must be >= 2, got {eval_bins}")
    return features, eval_bins


def _read_text(path: str) -> str:
    """A label table, score file or config: UTF-8, whatever the locale."""
    return Path(path).read_text(encoding="utf-8")


def _geometry(features: FeatureConfig) -> str:
    return " ".join(f"{key}={getattr(features, f)}" for key, f in _FEATURE_KEYS.items())


def _echo_config(features: FeatureConfig, eval_bins: int) -> None:
    print(f"config: {_geometry(features)} eval_bins={eval_bins}", file=sys.stderr)


def _require_at_least(least: int, option: str, value: int | None) -> None:
    if value is not None and value < least:
        raise UsageError(f"--{option} must be >= {least}, got {value}")


def cmd_extract(args) -> int:
    _require_at_least(1, "jobs", args.jobs)
    features, eval_bins = _load_config(args.config)
    _echo_config(features, eval_bins)
    labels = read_label_table(_read_text(args.labels)) if args.labels else None
    # checked before any extraction: save_store writes a temporary file there
    out_dir = Path(args.out).parent
    if not out_dir.is_dir():
        raise FileNotFoundError(f"{args.out}: directory {out_dir} does not exist")

    def report(name, status, detail):
        suffix = f": {detail}" if detail else ""
        print(f"{status} {name}{suffix}", file=sys.stderr)

    store = featuredb.ingest_dir(
        args.dir, labels=labels, jobs=args.jobs, report=report, config=features
    )
    featuredb.save_store(store, args.out)
    print(f"wrote {len(store)} entries to {args.out}")
    return 0


def cmd_score(args) -> int:
    features, eval_bins = _load_config(args.config)
    _echo_config(features, eval_bins)
    fa = featuredb.extract_file(args.file_a, features)
    fb = featuredb.extract_file(args.file_b, features)
    print(f"d= {score(fa, fb):.9f}")
    return 0


def _check_store_geometry(config: str | None, features: FeatureConfig, store, path: str) -> None:
    """Refuse a ``--config`` whose geometry differs from the one ``store`` was built with."""
    if config and features != store.config:
        raise ValueError(
            f"--config gives {_geometry(features)}, but {path} "
            f"was built with {_geometry(store.config)}"
        )


def cmd_search(args) -> int:
    _require_at_least(1, "k", args.k)
    features, eval_bins = _load_config(args.config)
    store = featuredb.load_store(args.store)
    # the query is extracted with the geometry the store was built with
    _check_store_geometry(args.config, features, store, args.store)
    _echo_config(store.config, eval_bins)
    ids, dists = search(store, featuredb.extract_file(args.query, store.config), args.k)
    for rank, (tid, dist) in enumerate(zip(ids, dists.tolist()), start=1):
        print(f"{rank},{tid},{dist:.17g}")
    return 0


def _is_store(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(len(featuredb.MAGIC)) == featuredb.MAGIC
    except OSError:
        return False


def cmd_evaluate(args) -> int:
    _require_at_least(1, "jobs", args.jobs)
    _require_at_least(1, "sample", args.sample)
    _require_at_least(2, "eval-bins", args.eval_bins)
    features, eval_bins = _load_config(args.config)
    store = featuredb.load_store(args.input) if _is_store(args.input) else None
    if store is not None:
        # a store's scores are distances: lower always means similar
        if args.polarity == Polarity.HIGHER_IS_SIMILAR.value:
            raise UsageError(
                f"--polarity higher does not apply to a store: {args.input} "
                "scores pairs by distance, where lower means similar"
            )
        # its vectors were built with the geometry it records
        _check_store_geometry(args.config, features, store, args.input)
    if args.eval_bins is not None:
        eval_bins = args.eval_bins
    _echo_config(features if store is None else store.config, eval_bins)
    labels = read_label_table(_read_text(args.labels))

    if store is not None:
        polarity = Polarity.LOWER_IS_SIMILAR
        if args.sample is None:
            # scores that keep the report's bytes, not exact distances
            pairs = evalstats._report_pairs(
                store, labels, args.level, eval_bins, jobs=args.jobs
            )
        else:
            pairs = evalstats.score_pairs(
                store, labels, level=args.level, sample=args.sample, seed=args.seed, jobs=args.jobs
            )
        del store  # drop the rows before the curves are built
    else:
        if not args.polarity:
            raise UsageError("--polarity {lower,higher} is required for external score files")
        polarity = Polarity(args.polarity)
        pairs = evalstats.read_score_file(_read_text(args.input), labels, level=args.level)
        if not pairs:
            raise UsageError(f"{args.input}: no scored pairs")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _write_evaluation(pairs, polarity, eval_bins, args.level, out_dir)


def _write_evaluation(pairs, polarity: Polarity, eval_bins: int, level: str, out_dir: Path) -> int:
    n_match = np.count_nonzero(pairs.match)
    n_non = len(pairs) - n_match
    centers, prob, count = evalstats.pvalue_curve(pairs, eval_bins)
    evalstats.write_curve_csv(out_dir / "pvalue.csv", "pvalue", polarity, centers, prob, count)

    # the MCC is swept over the bin centers of the match-probability curve
    thresholds, values, tp, fp = evalstats.mcc_curve(pairs, polarity, centers)
    evalstats.write_curve_csv(out_dir / "mcc.csv", "mcc", polarity, thresholds, values, len(pairs))
    # the first threshold of the highest MCC; the rates below are its table's
    peak = int(np.argmax(values))
    peak_threshold, peak_mcc = float(thresholds[peak]), float(values[peak])

    try:
        fpr, tpr = evalstats.roc_curve(pairs, polarity)
    except evalstats.SingleClassError as exc:
        # no matches or no non-matches: no AUC, and no rate at the peak
        print(f"error: {exc}; roc.csv not written", file=sys.stderr)
        auc_s, sens_s, spec_s = "undefined (single class)", "undefined", "undefined"
        exit_code = 3
    else:
        auc_s = f"{evalstats.auc(fpr, tpr):.6f}"
        evalstats.write_curve_csv(out_dir / "roc.csv", "roc", polarity, fpr, tpr, 0)
        sens_s = f"{int(tp[peak]) / n_match:.6f}"
        spec_s = f"{(n_non - int(fp[peak])) / n_non:.6f}"
        exit_code = 0

    summary = "\n".join(
        [
            f"pairs= {len(pairs)}",
            f"matches= {n_match}",
            f"level= {level}",
            f"polarity= {polarity.value}",
            f"auc= {auc_s}",
            f"peak_mcc= {peak_mcc:.6f}",
            f"peak_threshold= {peak_threshold:.6f}",
            f"sensitivity= {sens_s}",
            f"specificity= {spec_s}",
        ]
    )
    (out_dir / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    print(summary)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="comogphog",
        description="Alignment-free protein structure similarity from "
        "oriented-gradient features of CA distance-matrix images.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("extract", help="build a feature store from a directory of structures")
    pe.add_argument("dir", help="directory of PDB-format structure files")
    pe.add_argument("out", help="output feature store path")
    pe.add_argument("--labels", help="restrict to ids present in this label table")
    pe.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    pe.add_argument("--config", help="JSON file overriding pipeline parameters")
    pe.set_defaults(func=cmd_extract)

    ps = sub.add_parser("score", help="score one structure pair")
    ps.add_argument("file_a")
    ps.add_argument("file_b")
    ps.add_argument("--config", help="JSON file overriding pipeline parameters")
    ps.set_defaults(func=cmd_score)

    pq = sub.add_parser("search", help="rank a feature store against a query structure")
    pq.add_argument("store", help="feature store path")
    pq.add_argument("query", help="query structure file")
    pq.add_argument("--k", type=int, default=10, help="number of hits to print")
    pq.add_argument("--config", help="JSON file overriding pipeline parameters")
    pq.set_defaults(func=cmd_search)

    pv = sub.add_parser(
        "evaluate",
        help="classifier statistics for a feature store or an external score file",
    )
    pv.add_argument("input", help="feature store, or CSV of id_a,id_b,score rows")
    pv.add_argument("out_dir", help="directory for pvalue.csv, mcc.csv, roc.csv, summary.txt")
    pv.add_argument("--labels", required=True, help="label table (sid,sccs)")
    pv.add_argument(
        "--polarity",
        choices=[pol.value for pol in Polarity],
        help="which end of the score means similar (required for score files; "
        "a store's distances are always lower)",
    )
    pv.add_argument("--level", choices=["family", "superfamily"], default="family")
    pv.add_argument("--eval-bins", type=int, default=None, help="score bins / threshold grid size")
    pv.add_argument("--sample", type=int, help="evaluate only this many sampled pairs")
    pv.add_argument("--seed", type=int, default=0, help="sampling seed")
    pv.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for exact scoring of at least 600,000 pairs: --sample, "
        "or all pairs of a store that the filter gives to the exact kernel",
    )
    pv.add_argument("--config", help="JSON file overriding pipeline parameters")
    pv.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
