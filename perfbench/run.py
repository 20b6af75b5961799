"""Benchmark of comogphog's extract, search and evaluate commands.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  One run of a workload:

1. makes the workload's inputs from the seed, three times over in fresh
   processes (``gen.py``); the median of those times is the input part of
   ``setup_s``;
2. starts the timed phase in one more fresh process (``measure.py``),
   whose import and warm-up time completes ``setup_s``;
3. prints each workload metric under its own name, then, as the last
   line, one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
   metrics with ``--trace 1``.

Every process runs with one BLAS thread.  The inputs and outputs live in
``.perfbench_work/`` and are removed at the end; a copy of the full
result is kept in ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchenv

HERE = Path(__file__).resolve().parent
SETUPS = 3
DEADLINE_S = 170  # the whole run, subprocesses included


def run_child(argv: list[str], deadline: float) -> None:
    """Run a benchmark subprocess to its end; kill its whole group at the deadline."""
    proc = subprocess.Popen(
        [sys.executable, *argv], env=benchenv.child_env(), start_new_session=True
    )
    try:
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"{Path(argv[0]).name} exited {code}")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    """One run of one workload; prints its metrics and the JSON result line."""
    deadline = time.monotonic() + DEADLINE_S
    work = Path(".perfbench_work") / f"{workload}-{seed}-{os.getpid()}"
    inputs = work / "inputs"
    result_path = work / "result.json"
    try:
        work.mkdir(parents=True)
        gen_s = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            run_child(
                [str(HERE / "gen.py"), "--workload", workload,
                 "--seed", str(seed), "--out", str(inputs)],
                deadline,
            )
            gen_s.append(time.perf_counter() - start)
        run_child(
            [str(HERE / "measure.py"), "--workload", workload,
             "--inputs", str(inputs), "--seconds", str(seconds),
             "--trace", str(trace), "--result", str(result_path)],
            deadline,
        )
        res = json.loads(result_path.read_text())
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    res["seed"] = seed
    res["gen_s"] = gen_s
    setup_s = statistics.median(gen_s) + res["warm_s"]
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {workload} seed {seed}: {res['rounds']} rounds in "
          f"{res['timed_s']:.1f} s, {res['attempted']} operations, {res['failed']} failed")
    for name, value, unit in res["named"]:
        print(f"  {name} = {value:.6g} {unit}")
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "primary_per_s": {"value": res["primary_per_s"], "unit": "items/s"},
            "secondary_per_s": {"value": res["secondary_per_s"], "unit": "items/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  setup_s = {setup_s:.4f} s (inputs {statistics.median(gen_s):.3f} s "
              f"median of {SETUPS}, import and warm-up {res['warm_s']:.3f} s)")
        print(f"  peak_rss_mb = {res['peak_rss_mb']:.1f} MB")
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(res, indent=1)
    )
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*benchenv.WORKLOADS, "all"), required=True,
                   help="one workload, or all of them one after the other")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    benchenv.configure()
    src = benchenv.src_dir()
    if not (src / "comogphog" / "__init__.py").is_file():
        print(f"error: no comogphog package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    names = benchenv.WORKLOADS if args.workload == "all" else (args.workload,)
    return max([run_workload(name, args.seed, args.seconds, args.trace) for name in names])


if __name__ == "__main__":
    sys.exit(main())
