"""Output checks, each made apart from the program or from a property of the method.

Every check returns a list of problems; an empty list means the output
passed.  The checks take plain data (texts, arrays, dicts), so the
self-test can feed them deliberately wrong outputs.
"""

from __future__ import annotations

import math

import numpy as np

DESCRIPTOR_LENGTH = 1024
COMOGRAD_END = 256
PHOG_END = 1021  # 765 histogram values after the co-occurrence block
SUM_TOL = 1e-9
DIST_TOL = 1e-9
REPORT_TOL = 2e-6  # values printed with six decimals


def pair_distances(matrix: np.ndarray) -> np.ndarray:
    """Euclidean distances of all pairs i < j, in lexicographic pair order."""
    out = []
    for i in range(len(matrix) - 1):
        d = matrix[i + 1 :] - matrix[i]
        out.append(np.sqrt((d * d).sum(axis=1)))
    return np.concatenate(out)


# --- extract ----------------------------------------------------------------


def check_extract_report(code: int, stderr: str, expected_ids: list[str]) -> list[str]:
    """The command succeeded and every input file ended ``ok``."""
    problems = []
    if code != 0:
        problems.append(f"extract exited {code}")
    ok, skipped = [], []
    for line in stderr.splitlines():
        if line.startswith("ok "):
            ok.append(line[3:].strip())
        elif line.startswith("skip "):
            skipped.append(line[5:].strip())
    if skipped:
        problems.append(f"{len(skipped)} files skipped, e.g. {skipped[0]}")
    if sorted(ok) != sorted(expected_ids):
        problems.append(f"{len(ok)} files ok, expected {len(expected_ids)}")
    return problems


def load_store_checked(path, expected_ids: list[str]):
    """Load a store with the program's reader; it must hold exactly ``expected_ids``.

    Returns (ids, matrix, problems); ids and matrix are None when the store
    does not load.
    """
    from comogphog import featuredb

    try:
        store = featuredb.load_store(path)
    except ValueError as exc:
        return None, None, [f"store does not load: {exc}"]
    ids = store.ids()
    matrix = np.stack([e.values for e in store.entries])
    if ids != list(expected_ids):
        return ids, matrix, [
            f"store holds {len(ids)} entries ({ids[:2]}...), "
            f"expected the {len(expected_ids)} written ({list(expected_ids)[:2]}...)"
        ]
    return ids, matrix, []


def check_descriptors(ids: list[str], matrix: np.ndarray) -> list[str]:
    """Every vector has the descriptor layout: 1024 finite, non-negative values,
    two blocks that each sum to 1, and three reserved zeros."""
    problems = []
    if matrix.shape != (len(ids), DESCRIPTOR_LENGTH):
        return [f"store matrix has shape {matrix.shape}"]
    if not np.isfinite(matrix).all():
        problems.append("non-finite descriptor value")
    if (matrix < 0).any():
        problems.append("negative descriptor value")
    for name, lo, hi in (("co-occurrence", 0, COMOGRAD_END), ("pyramid", COMOGRAD_END, PHOG_END)):
        sums = matrix[:, lo:hi].sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > SUM_TOL)
        if bad.size:
            problems.append(f"{name} block of {ids[bad[0]]} sums to {sums[bad[0]]!r}")
    if (matrix[:, PHOG_END:] != 0.0).any():
        problems.append("reserved tail entries are not exactly 0")
    return problems


def check_rotated_copies(ids: list[str], matrix: np.ndarray, rotated: dict) -> list[str]:
    """A rigidly moved copy has its original as nearest other entry."""
    problems = []
    index = {sid: k for k, sid in enumerate(ids)}
    for copy, original in rotated.items():
        if copy not in index or original not in index:
            problems.append(f"rotated copy {copy} or original {original} missing")
            continue
        d = np.sqrt(((matrix - matrix[index[copy]]) ** 2).sum(axis=1))
        d[index[copy]] = np.inf
        nearest = ids[int(np.argmin(d))]
        if nearest != original:
            problems.append(f"{copy} ranks {nearest} first, not its original {original}")
    return problems


def check_trace_lengths(lengths: dict, expected: dict) -> list[str]:
    """Parsed trace lengths equal the CA counts the benchmark wrote."""
    return [
        f"{sid}: trace has {lengths.get(sid)} residues, file holds {n} CA atoms"
        for sid, n in expected.items()
        if lengths.get(sid) != n
    ]


def check_identical(name: str, blobs: list[bytes]) -> list[str]:
    """Every repeat of a deterministic output is byte-identical."""
    if any(b != blobs[0] for b in blobs[1:]):
        return [f"{name}: outputs differ between repeats"]
    return []


# --- search -----------------------------------------------------------------


def parse_hits(stdout: str) -> list[tuple[str, float]]:
    hits = []
    for line in stdout.splitlines():
        rank, sid, dist = line.split(",")
        if int(rank) != len(hits) + 1:
            raise ValueError(f"rank {rank} out of order")
        hits.append((sid, float(dist)))
    return hits


def check_search(
    code: int,
    stdout: str,
    query_id: str,
    query: np.ndarray,
    ids: list[str],
    matrix: np.ndarray,
    k: int,
    self_hit: bool,
) -> list[str]:
    """Ranked hits equal a numpy brute force ordered by (distance, id).

    Two hits may trade places only when their distances agree within the
    tolerance.  A query whose own descriptor is stored hits itself first
    at distance 0.
    """
    if code != 0:
        return [f"search {query_id} exited {code}"]
    try:
        hits = parse_hits(stdout)
    except ValueError as exc:
        return [f"search {query_id}: unreadable output ({exc})"]
    d = np.sqrt(((matrix - query) ** 2).sum(axis=1))
    order = np.lexsort((np.asarray(ids), d))[:k]
    expect = [(ids[i], float(d[i])) for i in order]
    dist_of = dict(zip(ids, d.tolist()))
    problems = []
    if len(hits) != len(expect):
        problems.append(f"search {query_id}: {len(hits)} hits, expected {len(expect)}")
    for rank, ((sid, dist), (_, want)) in enumerate(zip(hits, expect), start=1):
        tol = DIST_TOL * max(1.0, want)
        if abs(dist - want) > tol:
            problems.append(f"search {query_id} rank {rank}: distance {dist!r}, expected {want!r}")
            break
        if sid not in dist_of or abs(dist_of[sid] - want) > tol:
            problems.append(f"search {query_id} rank {rank}: {sid} is not the brute-force hit")
            break
    if len({sid for sid, _ in hits}) != len(hits):
        problems.append(f"search {query_id}: repeated hit ids")
    if self_hit and (not hits or hits[0] != (query_id, 0.0)):
        problems.append(f"search {query_id}: first hit {hits[:1]} is not itself at distance 0")
    return problems


# --- evaluate ---------------------------------------------------------------


def parse_summary(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def mann_whitney_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """P(positive scores below negative), ties counting one half: U / (P * N)."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(s)) + 1])
    ends = np.concatenate([starts[1:], [len(s)]])
    ranks = np.empty(len(s))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    n_pos = int(positive.sum())
    n_neg = len(s) - n_pos
    u = ranks[~positive].sum() - n_neg * (n_neg + 1) / 2.0
    return float(u / (n_pos * n_neg))


def peak_mcc(scores: np.ndarray, positive: np.ndarray, bins: int) -> float:
    """Largest MCC over the centres of ``bins`` equal-width score bins."""
    lo, hi = float(scores.min()), float(scores.max())
    width = (hi - lo) / bins
    best = -math.inf
    pos = positive
    for i in range(bins):
        pred = scores <= lo + (i + 0.5) * width
        tp = float(np.count_nonzero(pred & pos))
        fp = float(np.count_nonzero(pred & ~pos))
        fn = float(np.count_nonzero(~pred & pos))
        tn = len(scores) - tp - fp - fn
        den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        best = max(best, (tp * tn - fp * fn) / math.sqrt(den) if den else 0.0)
    return best


def family_pairs(family: list[int]) -> np.ndarray:
    """Same-family flag of every pair i < j, in lexicographic pair order."""
    fam = np.asarray(family)
    return np.concatenate([fam[i + 1 :] == fam[i] for i in range(len(fam) - 1)])


def check_evaluation(
    code: int,
    files: dict[str, str],
    family: list[int],
    distances: np.ndarray,
    bins: int,
) -> list[str]:
    """One ``evaluate`` report against the benchmark's own labels and distances.

    ``files`` maps the report's file names to their text.
    """
    if code != 0:
        return [f"evaluate exited {code}"]
    try:
        summary = parse_summary(files["summary.txt"])
        pairs, matches = int(summary["pairs"]), int(summary["matches"])
        auc, mcc = float(summary["auc"]), float(summary["peak_mcc"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable summary ({exc})"]
    m = len(family)
    sizes = np.bincount(family)
    positive = family_pairs(family)
    problems = []
    if pairs != m * (m - 1) // 2:
        problems.append(f"pairs= {pairs}, expected {m * (m - 1) // 2}")
    want_matches = int((sizes * (sizes - 1) // 2).sum())
    if matches != want_matches:
        problems.append(f"matches= {matches}, expected {want_matches}")
    want_auc = mann_whitney_auc(distances, positive)
    if abs(auc - want_auc) > REPORT_TOL:
        problems.append(f"auc= {auc}, Mann-Whitney gives {want_auc:.6f}")
    want_mcc = peak_mcc(distances, positive, bins)
    if abs(mcc - want_mcc) > REPORT_TOL:
        problems.append(f"peak_mcc= {mcc}, brute force gives {want_mcc:.6f}")
    counts = [int(row.rsplit(",", 1)[1]) for row in files["pvalue.csv"].splitlines()[1:]]
    if sum(counts) != pairs:
        problems.append(f"pvalue.csv counts sum to {sum(counts)}, not {pairs}")
    roc = [tuple(map(float, row.split(",")[:2])) for row in files["roc.csv"].splitlines()[1:]]
    if not roc or roc[0] != (0.0, 0.0) or roc[-1] != (1.0, 1.0):
        problems.append("roc.csv does not run from (0,0) to (1,1)")
    return problems


def check_paths_agree(store_summary: str, file_summary: str) -> list[str]:
    """The store path and the score-file path report the same statistics."""
    a, b = parse_summary(store_summary), parse_summary(file_summary)
    problems = []
    for key in ("pairs", "matches"):
        if a.get(key) != b.get(key):
            problems.append(f"{key}: store path {a.get(key)}, file path {b.get(key)}")
    for key in ("auc", "peak_mcc", "peak_threshold", "sensitivity", "specificity"):
        try:
            if abs(float(a[key]) - float(b[key])) > REPORT_TOL:
                problems.append(f"{key}: store path {a[key]}, file path {b[key]}")
        except (KeyError, ValueError):
            problems.append(f"{key}: missing or unreadable")
    return problems
