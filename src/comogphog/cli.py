"""Command-line front end: extract, score, search, evaluate.

Exit codes: 0 success, 1 I/O or data errors, 2 empty corpus or bad
invocation, 3 missing labels (and evaluation that cannot produce an ROC
because only one class is present).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import evalstats, featuredb
from .evalstats import Polarity
from .features import FEATURE_LENGTH, FeatureConfig, extract_features
from .scoring import score, search
from .structure_io import parse_structure, read_label_table


# JSON config key -> FeatureConfig field, in the order the echo prints them
_FEATURE_KEYS = {
    "bins_comograd": "comograd_bins",
    "bins_phog": "phog_bins",
    "phog_levels": "phog_levels",
    "image_size": "image_size",
}


@dataclass(frozen=True)
class Config:
    """Pipeline geometry plus the evaluation grid size, with standard values."""

    features: FeatureConfig = FeatureConfig()
    eval_bins: int = 200

    def validate(self) -> None:
        self.features.validate()
        if not isinstance(self.eval_bins, int) or self.eval_bins < 2:
            raise ValueError(f"eval_bins must be >= 2, got {self.eval_bins}")


def _load_config(path: str | None) -> Config:
    raw = json.loads(Path(path).read_text()) if path else {}
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - set(_FEATURE_KEYS) - {"eval_bins"}
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    geometry = {field: raw[key] for key, field in _FEATURE_KEYS.items() if key in raw}
    cfg = Config(FeatureConfig(**geometry), raw.get("eval_bins", Config.eval_bins))
    cfg.validate()
    return cfg


def _geometry(features: FeatureConfig) -> str:
    return " ".join(f"{key}={getattr(features, f)}" for key, f in _FEATURE_KEYS.items())


def _echo_config(cfg: Config) -> None:
    print(f"config: {_geometry(cfg.features)} eval_bins={cfg.eval_bins}", file=sys.stderr)


def _below_one(option: str, value: int | None) -> bool:
    """Report an option value below 1 (checked before any input is read)."""
    if value is not None and value < 1:
        print(f"error: --{option} must be >= 1, got {value}", file=sys.stderr)
        return True
    return False


def _read_labels(path: str):
    return read_label_table(Path(path).read_text())


def cmd_extract(args) -> int:
    if _below_one("jobs", args.jobs):
        return 2
    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _echo_config(cfg)
    if cfg.features.length != FEATURE_LENGTH:
        print(
            f"error: config gives {cfg.features.length}-entry vectors; extract "
            f"writes the {FEATURE_LENGTH}-entry descriptor",
            file=sys.stderr,
        )
        return 1
    try:
        labels = _read_labels(args.labels) if args.labels else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def report(name, status, detail):
        suffix = f": {detail}" if detail else ""
        print(f"{status} {name}{suffix}", file=sys.stderr)

    try:
        store = featuredb.ingest_dir(
            args.dir, labels=labels, jobs=args.jobs, report=report, config=cfg.features
        )
    except featuredb.EmptyCorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        featuredb.save_store(store, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(store)} entries to {args.out}")
    return 0


def _extract_one(path: str, features: FeatureConfig):
    text = Path(path).read_text(errors="replace")
    trace = parse_structure(text, structure_id=Path(path).stem)
    return extract_features(trace, features)


def cmd_score(args) -> int:
    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _echo_config(cfg)
    try:
        fa = _extract_one(args.file_a, cfg.features)
        fb = _extract_one(args.file_b, cfg.features)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"d= {score(fa, fb):.9f}")
    return 0


def cmd_search(args) -> int:
    if _below_one("k", args.k):
        return 2
    try:
        cfg = _load_config(args.config)
        store = featuredb.load_store(args.store)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # the query is extracted with the geometry the store was built with
    if args.config and cfg.features != store.config:
        print(
            f"error: --config gives {_geometry(cfg.features)}, but {args.store} "
            f"was built with {_geometry(store.config)}",
            file=sys.stderr,
        )
        return 1
    _echo_config(replace(cfg, features=store.config))
    try:
        query = _extract_one(args.query, store.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        hits = search(store, query, args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rank, hit in enumerate(hits, start=1):
        print(f"{rank},{hit.target_id},{hit.distance:.17g}")
    return 0


def _is_store(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(len(featuredb.MAGIC)) == featuredb.MAGIC
    except OSError:
        return False


def cmd_evaluate(args) -> int:
    if _below_one("jobs", args.jobs) or _below_one("sample", args.sample):
        return 2
    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _echo_config(cfg)
    eval_bins = args.eval_bins if args.eval_bins is not None else cfg.eval_bins
    if eval_bins < 2:
        print(f"error: --eval-bins must be >= 2, got {eval_bins}", file=sys.stderr)
        return 2
    try:
        labels = _read_labels(args.labels)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if _is_store(args.input):
            store = featuredb.load_store(args.input)
            polarity = Polarity(args.polarity) if args.polarity else Polarity.LOWER_IS_SIMILAR
            pairs = evalstats.score_pairs(
                store,
                labels,
                level=args.level,
                sample=args.sample,
                seed=args.seed,
                jobs=args.jobs,
            )
        else:
            if not args.polarity:
                print(
                    "error: --polarity {lower,higher} is required for external "
                    "score files",
                    file=sys.stderr,
                )
                return 2
            polarity = Polarity(args.polarity)
            pairs = evalstats.read_score_file(
                Path(args.input).read_text(), labels, level=args.level
            )
            if not pairs:
                print(f"error: {args.input}: no scored pairs", file=sys.stderr)
                return 2
    except evalstats.MissingLabelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return _write_evaluation(pairs, polarity, eval_bins, args.level, out_dir)
    except evalstats.DegenerateRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _write_evaluation(pairs, polarity: Polarity, eval_bins: int, level: str, out_dir: Path) -> int:
    n_match = np.count_nonzero(pairs.match)
    pv = evalstats.pvalue_curve(pairs, polarity, eval_bins)
    evalstats.write_curve_csv(out_dir / "pvalue.csv", "pvalue", polarity, pv)

    thresholds = evalstats.default_thresholds(pairs, eval_bins)
    curve = evalstats.mcc_curve(pairs, polarity, thresholds)
    evalstats.write_curve_csv(
        out_dir / "mcc.csv", "mcc", polarity, [(t, m, len(pairs)) for t, m in curve]
    )
    peak_threshold, peak_mcc = max(curve, key=lambda tm: tm[1])
    conf = evalstats.confusion_at_threshold(pairs, peak_threshold, polarity)
    try:
        sens, spec = evalstats.sensitivity_specificity(conf)
        sens_s, spec_s = f"{sens:.6f}", f"{spec:.6f}"
    except evalstats.UndefinedRateError:
        sens_s = spec_s = "undefined"

    single_class = False
    try:
        roc = evalstats.roc_curve(pairs, polarity)
        area = evalstats.auc(roc)
        evalstats.write_curve_csv(
            out_dir / "roc.csv", "roc", polarity, ((x, y, 0) for x, y in roc)
        )
        auc_s = f"{area:.6f}"
    except evalstats.SingleClassError as exc:
        single_class = True
        auc_s = "undefined (single class)"
        print(f"error: {exc}; roc.csv not written", file=sys.stderr)

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
    return 3 if single_class else 0


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
        "stores default to lower)",
    )
    pv.add_argument("--level", choices=["family", "superfamily"], default="family")
    pv.add_argument("--eval-bins", type=int, default=None, help="score bins / threshold grid size")
    pv.add_argument("--sample", type=int, help="evaluate only this many sampled pairs")
    pv.add_argument("--seed", type=int, default=0, help="sampling seed")
    pv.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    pv.add_argument("--config", help="JSON file overriding pipeline parameters")
    pv.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
