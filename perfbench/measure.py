"""Timed phase of one benchmark run, in a process that did not make the inputs.

    python3 perfbench/measure.py --workload NAME --inputs DIR --seconds S \
        --trace 0|1 --result FILE

Run from the repository root (``perfbench/run.py`` starts it).  It imports
the program, makes one warm-up pass on small inputs, then repeats whole
rounds of the workload's commands through ``comogphog.cli.main``, with
output captured, until ``--seconds`` have passed.  Peak RSS is read when
the timed phase ends, before the output checks run.

With ``--trace 1`` the rounds alternate between untraced and traced
(see ``tracer.py``); per-function self times come from the traced rounds
and the difference between the two kinds of round is the tracing
overhead.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import benchenv  # noqa: E402

benchenv.configure()

# numpy and the program load only after the BLAS thread setting
import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402

EVAL_BINS = 200  # the evaluate command's default grid
SEARCH_K = 10
MIN_QUERY_SAMPLES = 100  # so that at least ten lie beyond p90
# extract_features length bins for the per-call medians
LENGTH_BINS = (("short", 0, 128), ("mid", 128, 601), ("long", 601, 10**9))


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """One in-process command: exit code, stdout, stderr, wall seconds."""
    from comogphog import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def tracing(tracer: Tracer | None):
    """Context with the tracer's wrappers installed; does nothing without a tracer."""
    return tracer if tracer else contextlib.nullcontext()


def digest(path: Path) -> bytes:
    """Hash of a command's output file (empty when the command wrote none)."""
    return hashlib.sha256(path.read_bytes()).digest() if path.exists() else b""


def count_ok(code: int, stderr: str) -> int:
    """Structures an ``extract`` command reported ``ok`` (none if it failed)."""
    return 0 if code else sum(line.startswith("ok ") for line in stderr.splitlines())


def median_rate(items: int, seconds: list[float]) -> float:
    return statistics.median(items / s for s in seconds)


class Workload:
    """One workload: warm-up, a round of commands, metrics and output checks."""

    store_path: Path | None = None

    def __init__(self, inputs: Path, work: Path):
        self.inputs = inputs
        self.work = work
        self.expect = json.loads((inputs / "expect.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.rounds: list[dict] = []
        self.jobs2_cpu_s: list[float] = []

    def enough(self) -> bool:
        return True

    def traced_time(self, rnd: dict) -> float:
        """The part of a round that runs traced in a traced round."""
        raise NotImplementedError


class ExtractDomains(Workload):
    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.corpus = inputs / "corpus"
        self.ids = self.expect["ids"]
        self.out1 = work / "jobs1.cmg"
        self.out2 = work / "jobs2.cmg"
        self.store_path = self.out1
        self.reports: list[tuple[int, str]] = []
        self.digests: list[bytes] = []

    def warmup(self):
        for jobs in ("1", "2"):
            run_cli(["extract", str(self.inputs / "warm"), str(self.work / "warm.cmg"), "--jobs", jobs])

    def _extract(self, out: Path, jobs: int) -> float:
        code, _, err, elapsed = run_cli(["extract", str(self.corpus), str(out), "--jobs", str(jobs)])
        self.reports.append((code, err))
        self.attempted += len(self.ids)
        self.failed += len(self.ids) - count_ok(code, err)
        self.digests.append(digest(out))
        return elapsed

    def round(self, tracer):
        with tracing(tracer):
            t1 = self._extract(self.out1, 1)
        cpu = children_cpu_s()
        t2 = self._extract(self.out2, 2)
        self.jobs2_cpu_s.append(children_cpu_s() - cpu)
        return {"jobs1_s": t1, "jobs2_s": t2}

    def traced_time(self, rnd):
        return rnd["jobs1_s"]

    def metrics(self, rounds):
        n = len(self.ids)
        p = median_rate(n, [r["jobs1_s"] for r in rounds])
        s = median_rate(n, [r["jobs2_s"] for r in rounds])
        return (p, s), [
            ("extract_structs_per_s", p, "structures/s"),
            ("extract_jobs2_structs_per_s", s, "structures/s"),
        ]

    def check(self):
        problems = []
        for code, err in self.reports:
            problems += checks.check_extract_report(code, err, self.ids)
        problems += checks.check_identical("extract stores, all passes and --jobs", self.digests)
        ids, matrix, bad = checks.load_store_checked(self.out1, sorted(self.ids))
        if bad:
            return problems + bad
        problems += checks.check_descriptors(ids, matrix)
        problems += checks.check_rotated_copies(ids, matrix, self.expect["rotated"])
        return problems


class ExtractLong(Workload):
    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.sets = self.expect["ids"]
        self.store_path = work / "single.cmg"
        self.reports: list[tuple[int, str, list]] = []
        self.digests: dict[str, list[bytes]] = {"single": [], "multi": []}

    def warmup(self):
        run_cli(["extract", str(self.inputs / "warm"), str(self.work / "warm.cmg")])

    def _extract(self, name: str) -> float:
        out = self.work / f"{name}.cmg"
        ids = self.sets[name]
        code, _, err, elapsed = run_cli(["extract", str(self.inputs / name), str(out)])
        self.reports.append((code, err, ids))
        self.attempted += len(ids)
        self.failed += len(ids) - count_ok(code, err)
        self.digests[name].append(digest(out))
        return elapsed

    def round(self, tracer):
        with tracing(tracer):
            return {"single_s": self._extract("single"), "multi_s": self._extract("multi")}

    def traced_time(self, rnd):
        return rnd["single_s"] + rnd["multi_s"]

    def metrics(self, rounds):
        p = median_rate(len(self.sets["single"]), [r["single_s"] for r in rounds])
        s = median_rate(len(self.sets["multi"]), [r["multi_s"] for r in rounds])
        return (p, s), [
            ("extract_structs_per_s", p, "structures/s"),
            ("extract_multichain_structs_per_s", s, "structures/s"),
        ]

    def check(self):
        from comogphog.structure_io import parse_structure

        problems = []
        for code, err, ids in self.reports:
            problems += checks.check_extract_report(code, err, ids)
        lengths = {}
        for name, ids in self.sets.items():
            problems += checks.check_identical(f"extract {name} stores", self.digests[name])
            got, matrix, bad = checks.load_store_checked(self.work / f"{name}.cmg", sorted(ids))
            problems += bad or checks.check_descriptors(got, matrix)
            for sid in ids:
                text = (self.inputs / name / f"{sid}.pdb").read_text()
                lengths[sid] = len(parse_structure(text, structure_id=sid))
        problems += checks.check_trace_lengths(lengths, self.expect["ca_counts"])
        return problems


class SearchStore(Workload):
    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.store_path = inputs / "store.cmg"
        self.queries = self.expect["queries"]
        self.outputs: dict[str, list[tuple[int, str]]] = {q: [] for q in self.queries}

    def _query(self, qid: str) -> tuple[int, str, float]:
        path = self.inputs / "queries" / f"{qid}.pdb"
        code, out, _, elapsed = run_cli(
            ["search", str(self.store_path), str(path), "--k", str(SEARCH_K)]
        )
        return code, out, elapsed

    def warmup(self):
        self._query(self.queries[0])

    def round(self, tracer):
        times = []
        with tracing(tracer):
            for qid in self.queries:
                code, out, elapsed = self._query(qid)
                self.outputs[qid].append((code, out))
                self.attempted += 1
                self.failed += code != 0
                times.append(elapsed)
        return {"query_s": times}

    def enough(self):
        untraced = [r for r in self.rounds if not r["traced"]]
        return sum(len(r["query_s"]) for r in untraced) >= MIN_QUERY_SAMPLES

    def traced_time(self, rnd):
        return statistics.median(rnd["query_s"])

    def metrics(self, rounds):
        ms = [1000.0 * t for r in rounds for t in r["query_s"]]
        p50 = statistics.median(ms)
        p90 = statistics.quantiles(ms, n=10)[-1]
        return (1000.0 / p50, 1000.0 / p90), [
            ("search_ms_p50", p50, "ms"),
            ("search_ms_p90", p90, "ms"),
            ("search_queries", len(ms), "count"),
        ]

    def check(self):
        from comogphog.features import extract_features
        from comogphog.structure_io import parse_structure

        ids, matrix, bad = checks.load_store_checked(self.store_path, self.expect["store_ids"])
        if bad:
            return bad
        self_hits = set(self.expect["self_hits"])
        problems = []
        for qid, outs in self.outputs.items():
            problems += checks.check_identical(f"search {qid}", [o.encode() for _, o in outs])
            text = (self.inputs / "queries" / f"{qid}.pdb").read_text()
            query = extract_features(parse_structure(text, structure_id=qid)).values
            code, out = outs[0]
            problems += checks.check_search(
                code, out, qid, query, ids, matrix, SEARCH_K, qid in self_hits
            )
        return problems


class EvaluateStore(Workload):
    REPORT_FILES = ("summary.txt", "pvalue.csv", "mcc.csv", "roc.csv")

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.store_path = inputs / "store.cmg"
        self.labels = inputs / "labels.tsv"
        m = len(self.expect["ids"])
        self.pairs = m * (m - 1) // 2
        self.summaries: dict[str, list[tuple[int, str]]] = {"store": [], "file": []}

    def _evaluate(self, source: Path, kind: str, extra: list[str]) -> tuple[int, str, float]:
        out_dir = self.work / kind
        code, out, _, elapsed = run_cli(
            ["evaluate", str(source), str(out_dir), "--labels", str(self.labels), *extra]
        )
        return code, out, elapsed

    def warmup(self):
        self._evaluate(self.inputs / "warm.cmg", "warm-store", [])
        self._evaluate(self.inputs / "warm.csv", "warm-file", ["--polarity", "lower"])

    def round(self, tracer):
        times = {}
        with tracing(tracer):
            for kind, source, extra in (
                ("store", self.store_path, []),
                ("file", self.inputs / "scores.csv", ["--polarity", "lower"]),
            ):
                code, out, elapsed = self._evaluate(source, kind, extra)
                self.summaries[kind].append((code, out))
                self.attempted += 1
                self.failed += code != 0
                times[f"{kind}_s"] = elapsed
        return times

    def traced_time(self, rnd):
        return rnd["store_s"] + rnd["file_s"]

    def metrics(self, rounds):
        p = median_rate(self.pairs, [r["store_s"] for r in rounds])
        s = median_rate(self.pairs, [r["file_s"] for r in rounds])
        return (p, s), [
            ("eval_pairs_per_s", p, "pairs/s"),
            ("eval_file_pairs_per_s", s, "pairs/s"),
            ("eval_pairs", self.pairs, "count"),
        ]

    def check(self):
        family = self.expect["family"]
        distances = checks.pair_distances(np.load(self.inputs / "matrix.npy"))
        problems = []
        for kind, outs in self.summaries.items():
            problems += checks.check_identical(f"evaluate {kind}", [o.encode() for _, o in outs])
            files = {
                name: (self.work / kind / name).read_text()
                for name in self.REPORT_FILES
                if (self.work / kind / name).exists()
            }
            code = outs[-1][0]
            problems += [
                f"{kind} path: {p}"
                for p in checks.check_evaluation(code, files, family, distances, EVAL_BINS)
            ]
        problems += checks.check_paths_agree(
            self.summaries["store"][-1][1], self.summaries["file"][-1][1]
        )
        return problems


WORKLOADS = {
    "extract-domains": ExtractDomains,
    "extract-long": ExtractLong,
    "search-store": SearchStore,
    "evaluate-store": EvaluateStore,
}


def layer_metrics(wl: Workload, tracer: Tracer, traced: list[dict], plain: list[dict]) -> dict:
    """Per-function self time per traced round, plus the derived per-layer figures."""
    n = len(traced)
    out = {f"{name}.self_s": (tracer.self_s.get(name, 0.0) / n, "s") for name in NAMES}
    for label, lo, hi in LENGTH_BINS:
        ms = [t for length, t in tracer.extract_ms if lo <= length < hi]
        out[f"features.extract_features.{label}_ms_p50"] = (
            statistics.median(ms) if ms else 0.0,
            "ms",
        )
    cpu = wl.jobs2_cpu_s
    out["featuredb.ingest_dir.jobs2_worker_cpu_s"] = (statistics.median(cpu) if cpu else 0.0, "s")
    store_mb = wl.store_path.stat().st_size / 1e6 if wl.store_path.exists() else 0.0
    load_s = tracer.self_s.get("featuredb.load_store", 0.0)
    loads = tracer.calls.get("featuredb.load_store", 0)
    out["featuredb.load_store.mb_per_s"] = (store_mb * loads / load_s if load_s else 0.0, "MB/s")
    out["featuredb.store_mb"] = (store_mb, "MB")
    with_trace = statistics.median(wl.traced_time(r) for r in traced)
    without = statistics.median(wl.traced_time(r) for r in plain)
    out["trace.overhead_pct"] = (100.0 * (with_trace / without - 1.0), "%")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    benchenv.import_program()
    import comogphog.cli  # noqa: F401  (loads every module before tracing)

    inputs = Path(args.inputs)
    work = inputs.parent / "outputs"
    work.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](inputs, work)
    wl.warmup()
    warm_s = time.perf_counter() - _T0

    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(wl.rounds) % 2 == 1
        rnd = wl.round(tracer if traced else None)
        rnd["traced"] = traced
        wl.rounds.append(rnd)
        done = time.perf_counter() - start >= args.seconds and wl.enough()
        if done and (not tracer or len(wl.rounds) % 2 == 0):
            break
    timed_s = time.perf_counter() - start
    rss = peak_rss_mb()

    plain = [r for r in wl.rounds if not r["traced"]]
    traced_rounds = [r for r in wl.rounds if r["traced"]]
    (primary, secondary), named = wl.metrics(plain)
    problems = wl.check()
    result = {
        "workload": args.workload,
        "warm_s": warm_s,
        "timed_s": timed_s,
        "rounds": len(wl.rounds),
        "attempted": wl.attempted,
        "failed": wl.failed,
        "problems": problems,
        "primary_per_s": primary,
        "secondary_per_s": secondary,
        "peak_rss_mb": rss,
        "named": named,
        "round_times": wl.rounds,
    }
    if tracer:
        result["layers"] = layer_metrics(wl, tracer, traced_rounds, plain)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
