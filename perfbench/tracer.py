"""Per-function self time, recorded from outside the program.

The tracer replaces selected public functions of the ``comogphog``
modules with timing wrappers.  Modules import each other's functions by
name (``from .features import extract_features``), so every module
attribute bound to a traced function is replaced, not only the one in
the defining module.  ``uninstall()`` puts the originals back.

A function's self time is its wall time minus the wall time of the
traced functions it called.  Only functions called at most a few times
per structure, query or evaluation are traced; hot inner calls such as
``scoring.score`` stay untouched, so the wrappers add little.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs, in pipeline order
TRACED = (
    ("cli", "main"),
    ("structure_io", "parse_structure"),
    ("distmat", "distance_matrix"),
    ("distmat", "to_gray"),
    ("imageops", "normalize_size"),
    ("imageops", "bicubic_resize"),
    ("imageops", "haar_downsample"),
    ("imageops", "gradient_field"),
    ("features", "quantize_orientations"),
    ("features", "comograd"),
    ("features", "phog"),
    ("features", "extract_features"),
    ("featuredb", "ingest_dir"),
    ("featuredb", "save_store"),
    ("featuredb", "load_store"),
    ("scoring", "search"),
    ("evalstats", "score_pairs"),
    ("evalstats", "read_score_file"),
    ("evalstats", "pvalue_curve"),
    ("evalstats", "default_thresholds"),
    ("evalstats", "mcc_curve"),
    ("evalstats", "confusion_at_threshold"),
    ("evalstats", "roc_curve"),
    ("evalstats", "auc"),
    ("evalstats", "write_curve_csv"),
)

NAMES = tuple(f"{m}.{f}" for m, f in TRACED)


class Tracer:
    """Accumulates self time and call counts per traced function."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # (CA count, inclusive ms) per extract_features call
        self.extract_ms: list[tuple[int, float]] = []
        self._child_s: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._child_s
        self_s = self.self_s
        calls = self.calls
        is_extract = name == "features.extract_features"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
                if is_extract:
                    self.extract_ms.append((len(args[0]), 1000.0 * elapsed))

        return traced

    def install(self) -> None:
        if self._patched:
            return
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "comogphog" or key.startswith("comogphog."))
        ]
        for mod_name, fn_name in TRACED:
            owner = sys.modules.get(f"comogphog.{mod_name}")
            original = getattr(owner, fn_name, None)
            if original is None:  # a function the program no longer has reads 0
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
