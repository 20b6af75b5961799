"""Show that the benchmark's output checks are not vacuous.

    python3 perfbench/selftest.py

Run from the repository root.  On small inputs it runs the program's
commands, confirms that each check passes on the real output, and then
that it fails on a deliberately wrong one: a swapped top-2 search hit, a
truncated store, an evaluation run with one flipped label, a perturbed
AUC, a skipped extract file and a descriptor that no longer sums to 1.
Exits 0 when every case behaves, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import benchenv

benchenv.configure()

# numpy loads only after the BLAS thread setting
import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from measure import EVAL_BINS, run_cli  # noqa: E402


class Cases:
    def __init__(self):
        self.bad = 0

    def expect(self, name: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        self.bad += not ok
        verdict = "caught" if problems else "passed"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))


def search_cases(tmp: Path, rng, cases: Cases) -> None:
    queries = tmp / "queries"
    queries.mkdir()
    for i, n in enumerate((70, 150, 260)):
        (queries / f"q{i}.pdb").write_text(gen.pdb_text([gen.make_trace(n, rng, "walk")]))
    ids, own = gen.extract_with_program(queries, tmp / "own.cmg")
    filler = gen.perturb(own[rng.integers(len(ids), size=40)], 0.5, rng)
    all_ids = ids + [f"s{i:03d}" for i in range(len(filler))]
    store = tmp / "store.cmg"
    gen.save_matrix_store(all_ids, np.vstack([own, filler]), store)

    from comogphog.features import extract_features
    from comogphog.structure_io import parse_structure

    got_ids, matrix, problems = checks.load_store_checked(store, all_ids)
    cases.expect("store loads with the ids written", problems, False)
    qid = ids[0]
    path = queries / f"{qid}.pdb"
    query = extract_features(parse_structure(path.read_text(), structure_id=qid)).values
    code, out, _, _ = run_cli(["search", str(store), str(path), "--k", "5"])
    cases.expect("search output", checks.check_search(
        code, out, qid, query, got_ids, matrix, 5, True), False)
    lines = out.splitlines()
    r1, r2 = lines[0].split(","), lines[1].split(",")
    swapped = [f"1,{r2[1]},{r2[2]}", f"2,{r1[1]},{r1[2]}", *lines[2:]]
    cases.expect("search with top-2 swapped", checks.check_search(
        code, "\n".join(swapped), qid, query, got_ids, matrix, 5, True), True)
    truncated = tmp / "truncated.cmg"
    truncated.write_bytes(store.read_bytes()[:-500])
    cases.expect("truncated store", checks.load_store_checked(truncated, all_ids)[2], True)


def evaluate_cases(tmp: Path, rng, cases: Cases) -> None:
    bases = tmp / "bases"
    bases.mkdir()
    for f in range(6):
        (bases / f"b{f}.pdb").write_text(gen.pdb_text([gen.make_trace(60 + 10 * f, rng)]))
    _, base_matrix = gen.extract_with_program(bases, tmp / "bases.cmg")
    family = np.repeat(np.arange(6), 5)
    rng.shuffle(family)
    matrix = gen.perturb(base_matrix[family], gen.MEMBER_NOISE, rng)
    ids = [f"e{i:02d}" for i in range(len(family))]
    store = tmp / "eval.cmg"
    gen.save_matrix_store(ids, matrix, store)
    distances = checks.pair_distances(matrix)

    def evaluate(fams, name, source=store, extra=()):
        labels = tmp / f"{name}.tsv"
        labels.write_text("".join(f"{sid}\ta.1.1.{1 + f}\n" for sid, f in zip(ids, fams)))
        out_dir = tmp / name
        code, out, _, _ = run_cli(
            ["evaluate", str(source), str(out_dir), "--labels", str(labels), *extra]
        )
        files = {p.name: p.read_text() for p in out_dir.iterdir()} if out_dir.exists() else {}
        return code, files, out

    fams = family.tolist()
    code, files, summary = evaluate(fams, "good")
    cases.expect("evaluate output", checks.check_evaluation(
        code, files, fams, distances, EVAL_BINS), False)
    scores = tmp / "scores.csv"
    gen.write_scores(scores, ids, matrix)
    code_f, files_f, summary_f = evaluate(fams, "file", scores, ("--polarity", "lower"))
    cases.expect("evaluate score-file output", checks.check_evaluation(
        code_f, files_f, fams, distances, EVAL_BINS), False)
    cases.expect("store and file paths agree", checks.check_paths_agree(summary, summary_f), False)

    flipped = list(fams)
    flipped[0] = 99  # one entry moved to a family of its own
    code, wrong, _ = evaluate(flipped, "flipped")
    cases.expect("evaluate with one flipped label", checks.check_evaluation(
        code, wrong, fams, distances, EVAL_BINS), True)

    lines = files["summary.txt"].splitlines()
    auc_at = next(i for i, line in enumerate(lines) if line.startswith("auc="))
    lines[auc_at] = f"auc= {float(lines[auc_at].split('=')[1]) + 1e-3:.6f}"
    perturbed = dict(files, **{"summary.txt": "\n".join(lines) + "\n"})
    cases.expect("evaluate with a perturbed AUC", checks.check_evaluation(
        0, perturbed, fams, distances, EVAL_BINS), True)


def extract_cases(tmp: Path, rng, cases: Cases) -> None:
    corpus = tmp / "corpus"
    corpus.mkdir()
    for i, n in enumerate((40, 120, 300)):
        (corpus / f"d{i}.pdb").write_text(gen.pdb_text([gen.make_trace(n, rng)]))
    stems = ["d0", "d1", "d2"]
    code, _, err, _ = run_cli(["extract", str(corpus), str(tmp / "x.cmg")])
    cases.expect("extract report", checks.check_extract_report(code, err, stems), False)
    skipped = err.replace("ok d1", "skip d1.pdb: NoCaAtomsError")
    cases.expect("extract report with a skipped file",
                 checks.check_extract_report(code, skipped, stems), True)
    ids, matrix, problems = checks.load_store_checked(tmp / "x.cmg", stems)
    cases.expect("extract descriptors", problems + checks.check_descriptors(ids, matrix), False)
    off = matrix.copy()
    off[1, 300] += 1e-6
    cases.expect("descriptor block off by 1e-6", checks.check_descriptors(ids, off), True)


def main() -> int:
    benchenv.import_program()
    tmp = Path(".perfbench_work") / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    cases = Cases()
    try:
        rng = np.random.default_rng(0)
        for group in (search_cases, evaluate_cases, extract_cases):
            sub = tmp / group.__name__
            sub.mkdir()
            group(sub, rng, cases)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test", "FAILED" if cases.bad else "passed")
    return 1 if cases.bad else 0


if __name__ == "__main__":
    sys.exit(main())
