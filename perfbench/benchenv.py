"""Process set-up shared by every benchmark process.

``configure()`` pins BLAS to one thread; it must run before numpy is
imported, so each script calls it before its own numpy import.  With one
BLAS thread the only parallelism is the program's own ``--jobs``, and no
run starts more threads than the two cores it is measured on.

``import_program()`` puts ``src/`` of the working directory (the
repository root) first on the import path and checks that ``comogphog``
really comes from there, so an installed copy can never be measured in
its place.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# workload names; the index of each is part of its input seed
WORKLOADS = ("extract-domains", "extract-long", "search-store", "evaluate-store")

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ProgramMissingError(RuntimeError):
    """The working directory holds no ``src/comogphog`` package."""


def configure() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def src_dir() -> Path:
    return Path.cwd() / "src"


def child_env() -> dict:
    """Environment for a benchmark subprocess: one BLAS thread, program on the path."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(src_dir())
    return env


def import_program():
    src = src_dir()
    if not (src / "comogphog" / "__init__.py").is_file():
        raise ProgramMissingError(f"no comogphog package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import comogphog

    where = Path(comogphog.__file__).resolve().parent
    if where != (src / "comogphog").resolve():
        raise ProgramMissingError(f"comogphog imported from {where}, not from {src}")
    return comogphog
