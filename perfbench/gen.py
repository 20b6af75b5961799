"""Generate one workload's inputs from a seed.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Run from the repository root.  The same workload and seed always give
the same files.  Traces, PDB text, labels and score files are made here
with numpy alone; the program is used only where a workload needs its
own output as input (descriptors that the stores are built around), and
then only through its public API.

Besides the inputs, DIR receives ``expect.json``: what the benchmark
itself knows about them (ids, CA counts, labels, which queries have
their own descriptor in the store), for the output checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path
from statistics import NormalDist

import benchenv

benchenv.configure()

# numpy loads only after the BLAS thread setting
import numpy as np  # noqa: E402
from checks import pair_distances  # noqa: E402

# extract-domains: SCOPe-like domain lengths (log-normal, median 150)
DOMAIN_FILES = 48
DOMAIN_MEDIAN = 150.0
DOMAIN_SIGMA = 0.6
DOMAIN_MIN, DOMAIN_MAX = 30, 600
LENGTH_ORDER_SEED = 0  # the same file order for every workload seed
ROTATED_COPIES = 4  # of the first files, which are random walks or mixed traces

# extract-long: chain lengths per file; the smallest powers of two at or
# above the totals are 1024, 4096, 2048 and 2048
LONG_SINGLE = ((930,), (2180,))
LONG_MULTI = ((720, 580), (630, 520, 500))

# search-store
QUERIES = 50
SELF_EVERY = 3  # every third query has its own descriptor in the store
STORE_ENTRIES = 5000

# evaluate-store
FAMILIES = 40
FAMILIES_PER_SUPERFAMILY = 4
EVAL_ENTRIES = 300
MEMBER_NOISE = 0.35


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, benchenv.WORKLOADS.index(workload)])


# --- traces -----------------------------------------------------------------


def _helix(n: int) -> np.ndarray:
    t = np.arange(n, dtype=np.float64)
    theta = np.radians(100.0) * t
    return np.stack([2.3 * np.cos(theta), 2.3 * np.sin(theta), 1.5 * t], axis=1)


def _strand(n: int) -> np.ndarray:
    t = np.arange(n, dtype=np.float64)
    return np.stack([3.4 * t, 0.95 * np.where(t % 2 == 0, 1.0, -1.0), np.zeros(n)], axis=1)


def _walk(n: int, rng: np.random.Generator) -> np.ndarray:
    steps = rng.normal(size=(n - 1, 3))
    steps *= 3.8 / np.linalg.norm(steps, axis=1, keepdims=True)
    return np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _mixed(n: int, rng: np.random.Generator) -> np.ndarray:
    """Helix, strand and loop segments joined end to end in random directions."""
    parts, pos, left = [], np.zeros(3), n
    while left > 0:
        seg = int(min(left, rng.integers(8, 30)))
        kind = rng.integers(3)
        xyz = _helix(seg) if kind == 0 else _strand(seg) if kind == 1 else _walk(seg, rng)
        xyz = xyz @ _rotation(rng).T
        xyz = xyz - xyz[0] + pos
        parts.append(xyz)
        pos = xyz[-1] + 3.8 * _unit(rng)
        left -= seg
    return np.vstack(parts)


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def make_trace(n: int, rng: np.random.Generator, kind: str | None = None) -> np.ndarray:
    """A CA trace of n residues: helical, extended, random walk or mixed, jittered."""
    kind = kind or ("helix", "strand", "walk", "mixed")[rng.integers(4)]
    if kind == "helix":
        xyz = _helix(n)
    elif kind == "strand":
        xyz = _strand(n)
    elif kind == "walk":
        xyz = _walk(n, rng)
    else:
        xyz = _mixed(n, rng)
    xyz = xyz + rng.normal(scale=0.3, size=xyz.shape)
    xyz = xyz @ _rotation(rng).T
    return xyz - xyz.mean(axis=0)


def pdb_text(chains: list[np.ndarray]) -> str:
    """PDB ATOM records, one CA per residue, chains A, B, ... with TER between."""
    lines, serial = [], 0
    for c, xyz in enumerate(chains):
        chain = chr(ord("A") + c)
        for i, (x, y, z) in enumerate(xyz, start=1):
            serial += 1
            lines.append(
                f"ATOM  {serial:5d}  CA  ALA {chain}{i:4d}    "
                f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
            )
        serial += 1
        lines.append(f"TER   {serial:5d}      ALA {chain}{len(xyz):4d}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def domain_lengths(count: int) -> list[int]:
    """Log-normal lengths at the midpoints of ``count`` quantile strata, in a fixed order.

    Extraction time depends on the length alone, so fixed lengths keep the
    work of a pass the same for every seed, and a fixed order hands the
    ``--jobs 2`` pool the same sequence of task sizes; the seed sets the
    geometry of each trace.
    """
    dist = NormalDist(math.log(DOMAIN_MEDIAN), DOMAIN_SIGMA)
    lengths = [
        int(np.clip(round(math.exp(dist.inv_cdf((i + 0.5) / count))), DOMAIN_MIN, DOMAIN_MAX))
        for i in range(count)
    ]
    return np.random.default_rng(LENGTH_ORDER_SEED).permutation(lengths).tolist()


# --- descriptors for the stores ---------------------------------------------


def _normalise_blocks(vecs: np.ndarray) -> np.ndarray:
    """Give perturbed vectors the descriptor layout: two L1 blocks, 3 zeros."""
    vecs[:, :256] /= vecs[:, :256].sum(axis=1, keepdims=True)
    vecs[:, 256:1021] /= vecs[:, 256:1021].sum(axis=1, keepdims=True)
    vecs[:, 1021:] = 0.0
    return vecs


def perturb(base: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    """Multiplicative log-normal noise on each value, then block renormalisation."""
    out = base * np.exp(rng.normal(scale=noise, size=base.shape))
    return _normalise_blocks(out)


def extract_with_program(pdb_dir: Path, store_path: Path):
    """Descriptors of every file in pdb_dir, via the program's ``extract`` command."""
    from comogphog import cli, featuredb

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["extract", str(pdb_dir), str(store_path)])
    if code != 0:
        raise RuntimeError(f"extract of {pdb_dir} exited {code}")
    store = featuredb.load_store(store_path)
    return store.ids(), np.stack([e.values for e in store.entries])


def save_matrix_store(ids: list[str], matrix: np.ndarray, path: Path) -> None:
    from comogphog.featuredb import FeatureStore, save_store
    from comogphog.features import FeatureVector

    save_store(
        FeatureStore(entries=[FeatureVector(id=i, values=v) for i, v in zip(ids, matrix)]),
        path,
    )


# --- workloads --------------------------------------------------------------


def gen_extract_domains(out: Path, rng: np.random.Generator) -> dict:
    corpus = out / "corpus"
    corpus.mkdir()
    traces = {}
    for i, n in enumerate(domain_lengths(DOMAIN_FILES)):
        # the originals of the rotated copies must not be near-duplicates of
        # other files, so they are random walks or mixed traces
        kinds = ("walk", "mixed") if i < ROTATED_COPIES else ("helix", "strand", "walk", "mixed")
        sid = f"d{i:04d}"
        traces[sid] = make_trace(n, rng, kinds[rng.integers(len(kinds))])
        (corpus / f"{sid}.pdb").write_text(pdb_text([traces[sid]]))
    # rigidly moved copies: each must rank its original first
    rotated = {}
    for src in sorted(traces)[:ROTATED_COPIES]:
        sid = f"r{src}"
        moved = traces[src] @ _rotation(rng).T + rng.uniform(-50, 50, size=3)
        (corpus / f"{sid}.pdb").write_text(pdb_text([moved]))
        rotated[sid] = src
    _write_warm(out, rng)
    return {"ids": sorted(p.stem for p in corpus.iterdir()), "rotated": rotated}


def gen_extract_long(out: Path, rng: np.random.Generator) -> dict:
    counts = {}
    for sub, specs in (("single", LONG_SINGLE), ("multi", LONG_MULTI)):
        d = out / sub
        d.mkdir()
        for i, chain_lengths in enumerate(specs):
            sid = f"{sub[0]}{i:02d}"
            chains = [make_trace(n, rng, "mixed") for n in chain_lengths]
            (d / f"{sid}.pdb").write_text(pdb_text(chains))
            counts[sid] = sum(len(c) for c in chains)
    _write_warm(out, rng)
    return {
        "ids": {
            "single": sorted(p.stem for p in (out / "single").iterdir()),
            "multi": sorted(p.stem for p in (out / "multi").iterdir()),
        },
        "ca_counts": counts,
    }


def gen_search_store(out: Path, rng: np.random.Generator) -> dict:
    queries = out / "queries"
    queries.mkdir()
    own = out / "own"
    own.mkdir()
    query_ids = []
    for i, n in enumerate(domain_lengths(QUERIES)):
        sid = f"q{i:04d}"
        text = pdb_text([make_trace(n, rng)])
        (queries / f"{sid}.pdb").write_text(text)
        if i % SELF_EVERY == 0:
            (own / f"{sid}.pdb").write_text(text)
        query_ids.append(sid)
    own_ids, own_matrix = extract_with_program(own, out / "own.cmg")
    (out / "own.cmg").unlink()
    shutil.rmtree(own)
    filler = STORE_ENTRIES - len(own_ids)
    base = own_matrix[rng.integers(len(own_ids), size=filler)]
    filler_matrix = perturb(base, 0.5, rng)
    ids = own_ids + [f"s{i:05d}" for i in range(filler)]
    matrix = np.vstack([own_matrix, filler_matrix])
    order = np.argsort(ids, kind="stable")
    save_matrix_store([ids[k] for k in order], matrix[order], out / "store.cmg")
    return {"store_ids": sorted(ids), "queries": query_ids, "self_hits": own_ids}


def gen_evaluate_store(out: Path, rng: np.random.Generator) -> dict:
    # one extracted base descriptor per family
    bases = out / "bases"
    bases.mkdir()
    for f in range(FAMILIES):
        n = int(rng.integers(40, 120))
        (bases / f"b{f:03d}.pdb").write_text(pdb_text([make_trace(n, rng)]))
    _, base_matrix = extract_with_program(bases, out / "bases.cmg")
    (out / "bases.cmg").unlink()
    shutil.rmtree(bases)
    # family sizes: at least 2 members each, the rest spread at random
    sizes = 2 + rng.multinomial(EVAL_ENTRIES - 2 * FAMILIES, np.full(FAMILIES, 1 / FAMILIES))
    family = np.repeat(np.arange(FAMILIES), sizes)
    rng.shuffle(family)
    matrix = perturb(base_matrix[family], MEMBER_NOISE, rng)
    ids = [f"e{i:04d}" for i in range(EVAL_ENTRIES)]
    save_matrix_store(ids, matrix, out / "store.cmg")
    sccs = {
        sid: f"a.{1 + f // (FAMILIES_PER_SUPERFAMILY * 4)}."
        f"{1 + f // FAMILIES_PER_SUPERFAMILY}.{1 + f}"
        for sid, f in zip(ids, family.tolist())
    }
    (out / "labels.tsv").write_text(
        "sid\tsccs\n" + "".join(f"{sid}\t{s}\n" for sid, s in sccs.items())
    )
    write_scores(out / "scores.csv", ids, matrix)
    np.save(out / "matrix.npy", matrix)
    # a small store and score file for the warm-up pass
    warm = np.sort(rng.choice(EVAL_ENTRIES, size=24, replace=False))
    save_matrix_store([ids[k] for k in warm], matrix[warm], out / "warm.cmg")
    write_scores(out / "warm.csv", [ids[k] for k in warm], matrix[warm])
    return {"ids": ids, "family": family.tolist()}


def write_scores(path: Path, ids: list[str], matrix: np.ndarray) -> None:
    d = pair_distances(matrix)
    n = len(ids)
    rows = ["id_a,id_b,score"]
    k = 0
    for i in range(n - 1):
        a = ids[i]
        for j in range(i + 1, n):
            rows.append(f"{a},{ids[j]},{d[k]:.17g}")
            k += 1
    path.write_text("\n".join(rows) + "\n")


def _write_warm(out: Path, rng: np.random.Generator) -> None:
    warm = out / "warm"
    warm.mkdir()
    for i, n in enumerate((60, 140, 260)):
        (warm / f"w{i}.pdb").write_text(pdb_text([make_trace(n, rng)]))


GENERATORS = {
    "extract-domains": gen_extract_domains,
    "extract-long": gen_extract_long,
    "search-store": gen_search_store,
    "evaluate-store": gen_evaluate_store,
}


def generate(workload: str, seed: int, out: Path) -> None:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    expect = GENERATORS[workload](out, workload_rng(workload, seed))
    (out / "expect.json").write_text(json.dumps(expect))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=benchenv.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    benchenv.import_program()
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
