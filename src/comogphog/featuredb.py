"""Binary persistence for descriptor collections plus directory ingestion.

Store layout, format v3 (little-endian throughout):

    magic  b"CMGP"
    u32    format version (3)
    u32    entry count
    u32    comograd_bins, phog_bins, phog_levels, image_size
           (the FeatureConfig the vectors were built with)
    u32    vector length (must equal that config's length)
    u64    id blob byte length
    u32    index rank r
    bytes  id blob: each id in UTF-8 followed by one NUL byte
    zero bytes up to the next multiple of 8
    f64[length]         index mean mu
    f64[r, length]      index axes P, orthonormal rows
    f64[count, r]       projected rows Z = (M - mu) P^T
    zero bytes up to the next multiple of 4096
    f64[count, length]  descriptor matrix M, row per entry

The index (:class:`ProjectionIndex`) is a pure function of the matrix
bytes; :func:`comogphog.scoring.search` uses it to skip rows that cannot
be among the nearest, and reads the rows it does score through
:meth:`FeatureStore.read_rows`.  A loaded v3 store reads the header, ids
and index, keeps the file open, and reads the matrix only when
``matrix`` is first used: until then rows are read with ``preadv``, so a
search keeps only the rows it scores in memory.  Every byte comes from
a read, so a file cut short after loading raises
:class:`CorruptEntryError` rather than a bus error.

Format v2 (still read, never written) has no blob length, rank or index:
after the vector length, per entry a u16 id byte length and the UTF-8 id,
zero bytes up to the next multiple of 8, then the matrix.  Format v1
(still read, never written) holds the count, then per entry the id
length, the id and 1024 float64 values; it implies the default config.
v1 and v2 stores load with a rank-0 index and read the matrix whole.
Raw float64 bytes round-trip bit-exactly.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import FEATURE_LENGTH, FeatureConfig, FeatureVector, extract_features
from .structure_io import parse_structure

MAGIC = b"CMGP"
VERSION = 3

_HEADER = struct.Struct("<4sII")
_GEOMETRY = struct.Struct("<IIIII")
_SECTIONS = struct.Struct("<QI")
_IDLEN = struct.Struct("<H")
_V1_VEC_BYTES = FEATURE_LENGTH * 8
_MATRIX_ALIGN = 4096
_PREADV = hasattr(os, "preadv")  # not on Windows: a v3 matrix is read at load there

# The index: r axes fitted by randomized subspace iteration (Halko,
# Martinsson & Tropp 2011) on a strided sample of rows, started from a
# fixed generator and seed, so that the index depends on the matrix bytes
# alone.
_RANK = 32
_SAMPLE_ROWS = 1000
_OVERSAMPLE = 8
_POWER_STEPS = 2
_SEED = 20160101
_PROJECT_ROWS = 128  # rows per block when projecting the matrix (fastest of 64-512)
# a loaded P further than this from orthonormal is corrupt
_MAX_DEPARTURE = 1e-6


class BadMagicError(ValueError):
    """File does not start with the feature-store magic bytes."""


class UnsupportedVersionError(ValueError):
    """Feature store written by an unknown format version."""


class CorruptEntryError(ValueError):
    """Feature store with a bad header, id table, index or size, or trailing bytes."""


class EmptyCorpusError(ValueError):
    """Ingestion found no parseable structure files."""


@dataclass(frozen=True)
class ProjectionIndex:
    """Lower bounds on distances to the rows of a matrix.

    ``axes`` holds r orthonormal rows P, ``rows`` the projections
    ``(matrix - mean) @ axes.T`` of the matrix rows.  For any vector q, in
    exact arithmetic,
    ``||P(q - mean) - rows[i]|| <= (1 + departure) * ||q - matrix[i]||``,
    where ``departure`` bounds ``||P P^T - I||`` as measured on ``axes``;
    :func:`comogphog.scoring.search` adds a margin for rounding.  Rank 0
    bounds every distance by 0.
    """

    mean: np.ndarray
    axes: np.ndarray
    rows: np.ndarray
    departure: float

    @property
    def rank(self) -> int:
        return len(self.axes)

    @classmethod
    def none(cls, count: int, length: int) -> ProjectionIndex:
        """The rank-0 index of a ``(count, length)`` matrix."""
        return cls(np.zeros(length), np.empty((0, length)), np.empty((count, 0)), 0.0)


def _departure(axes: np.ndarray) -> float:
    """An upper bound on ``||P P^T - I||_2`` for the rows P of ``axes``.

    The Frobenius norm of the computed ``P P^T - I`` bounds the spectral
    norm; each of its r * r entries is a length-n dot product of rows of
    norm about 1, off by at most (n + 2) u, so r (n + 2) u more covers the
    rounding of the measurement itself.
    """
    r, n = axes.shape
    with np.errstate(all="ignore"):  # damaged axes measure as inf or nan
        gram = axes @ axes.T
        gram[np.diag_indices(r)] -= 1.0
        return float(np.linalg.norm(gram)) + r * (n + 2) * np.finfo(float).eps


def _uniform(count: int) -> np.ndarray:
    """``count`` values in [-0.5, 0.5) from splitmix64 (Steele et al. 2014) at ``_SEED``.

    A fixed generator in a few integer operations, so that building an
    index does not load numpy.random (about 6 MB and 40 ms per process).
    """
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(_SEED)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53 - 0.5


def build_index(matrix: np.ndarray) -> ProjectionIndex:
    """Fit r = min(32, count, length) axes to ``matrix`` and project its rows.

    Two power steps of randomized subspace iteration on a strided sample of
    at most about 1000 rows, then Rayleigh-Ritz keeps the r leading axes of
    the sampled covariance in that subspace.  Any orthonormal axes give
    valid bounds; fitting them to the data makes the bounds tight.  Values
    so large (about 1e150 and up) that the fit overflows get the rank-0
    index instead.
    """
    count, length = matrix.shape
    rank = min(_RANK, count, length)
    if rank == 0:
        return ProjectionIndex.none(count, length)
    width = min(rank + _OVERSAMPLE, length)
    with np.errstate(all="ignore"):
        mean = matrix.mean(axis=0)
        sample = matrix[:: -(-count // _SAMPLE_ROWS)] - mean
        basis, _ = np.linalg.qr(_uniform(length * width).reshape(length, width))
        try:
            for _ in range(_POWER_STEPS):
                basis, _ = np.linalg.qr(sample.T @ (sample @ basis))
            spread = sample @ basis
            _, vecs = np.linalg.eigh(spread.T @ spread)  # ascending eigenvalues
        except np.linalg.LinAlgError:
            return ProjectionIndex.none(count, length)
        axes = np.ascontiguousarray((basis @ vecs[:, : -rank - 1 : -1]).T)
        rows = np.empty((count, rank))
        for s in range(0, count, _PROJECT_ROWS):
            np.matmul(
                matrix[s : s + _PROJECT_ROWS] - mean, axes.T, out=rows[s : s + _PROJECT_ROWS]
            )
    index = ProjectionIndex(mean, axes, rows, _departure(axes))
    if not (index.departure <= _MAX_DEPARTURE and np.isfinite(mean).all()):
        return ProjectionIndex.none(count, length)
    return index


def _short(path) -> CorruptEntryError:
    return CorruptEntryError(f"{path}: file is shorter than its header says")


def _read_head(fh, path, size: int) -> bytearray:
    """The first ``size`` bytes of the file, read with one ``readinto``."""
    buf = bytearray(size)
    fh.seek(0)
    if fh.readinto(buf) != size:
        raise _short(path)
    return buf


class _MatrixFile:
    """The matrix section of an open store file: ``shape`` float64 rows at ``offset``.

    Holds a duplicate of the file's descriptor, closed when this object
    goes or by :meth:`close`.  The descriptor pins the file that was
    loaded, so rows read later come from it even after the path is
    replaced.
    """

    def __init__(self, fh, path, offset: int, shape: tuple[int, int]):
        self.path, self.offset, self.shape = path, offset, shape
        self.fd = os.dup(fh.fileno())
        self.close = weakref.finalize(self, os.close, self.fd)

    def read_rows(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Read matrix ``rows`` into the C-contiguous ``'<f8'`` array ``out``.

        One ``preadv`` per run of consecutive row numbers (more if a read
        comes back partial); a row past the end of the file raises
        :class:`CorruptEntryError`.
        """
        if not len(rows):
            return
        width = 8 * self.shape[1]
        view = memoryview(out).cast("B")
        cuts = (np.flatnonzero(np.diff(rows) != 1) + 1).tolist()
        starts = [0, *cuts]
        at = (rows[starts].astype(np.int64) * width + self.offset).tolist()
        for a, b, pos in zip(starts, [*cuts, len(rows)], at):
            want = view[a * width : b * width]
            # one read returns at most 0x7ffff000 bytes on Linux, so go on
            # after a partial read; only the end of the file stops short
            while (got := os.preadv(self.fd, [want], pos)) < len(want):
                if not got:
                    raise _short(self.path)
                want, pos = want[got:], pos + got


class FeatureStore:
    """An ordered collection of descriptors with unique ids.

    Holds the ids, one (count, length) float64 ``matrix`` with a row per
    id, the :class:`FeatureConfig` the rows were built with, and the
    :class:`ProjectionIndex` that search prunes with.  Build one from
    ``entries`` (a list of :class:`FeatureVector`, copied into the matrix)
    or from ``ids`` and ``matrix``; without an ``index`` it gets a rank-0
    one, which prunes nothing.  The index describes the matrix it was
    built from: a caller that writes into ``matrix`` must replace it (for
    example with :func:`build_index`) before searching.  ``version`` is
    the format the store was read from; :func:`save_store` always writes
    the current one, with a freshly built index.

    A v3 store from :func:`load_store` holds its file open and reads
    ``matrix`` from it the first time it is used; before that,
    :meth:`read_rows` reads rows from the file.
    """

    def __init__(
        self,
        entries: list[FeatureVector] = (),
        *,
        ids: list[str] | None = None,
        matrix: np.ndarray | None = None,
        config: FeatureConfig = FeatureConfig(),
        version: int = VERSION,
        index: ProjectionIndex | None = None,
    ):
        if ids is None:
            ids = [e.id for e in entries]
            matrix = (
                np.stack([np.asarray(e.values, dtype=np.float64) for e in entries])
                if entries
                else np.empty((0, config.length))
            )
        self._ids = list(ids)
        self._matrix = matrix
        self._file: _MatrixFile | None = None
        self.config = config
        self.version = version
        self.index = ProjectionIndex.none(*matrix.shape) if index is None else index

    @property
    def matrix(self) -> np.ndarray:
        """The (count, length) float64 rows, read from the file on first use."""
        if self._matrix is None:
            matrix = np.empty(self._file.shape, dtype="<f8")
            self._file.read_rows(np.arange(len(matrix)), matrix)  # one run
            self._file.close()
            self._file, self._matrix = None, matrix
        return self._matrix

    @property
    def shape(self) -> tuple[int, int]:
        """``matrix.shape``, without reading it."""
        return self._matrix.shape if self._file is None else self._file.shape

    def read_rows(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Copy ``matrix[rows]`` into the C-contiguous ``'<f8'`` array ``out``.

        ``rows`` must be valid row numbers.  Until ``matrix`` is first used
        the rows of a loaded v3 store are read from its file, one read per
        run of consecutive row numbers, so sorted rows read fastest; after
        that (and for every other store) they are copied from ``matrix``,
        so every write into it is seen.
        """
        if self._file is None:
            # in range, so "clip" lets take write straight into out
            # instead of buffering for its bounds check
            np.take(self.matrix, rows, axis=0, out=out, mode="clip")
        else:
            self._file.read_rows(rows, out)

    def ids(self) -> list[str]:
        return list(self._ids)

    @property
    def entries(self) -> list[FeatureVector]:
        """One vector per row; each ``values`` is a view into ``matrix``."""
        return [FeatureVector(id=i, values=row) for i, row in zip(self._ids, self.matrix)]

    def __len__(self) -> int:
        return len(self._ids)


def _is_utf8(text: str) -> bool:
    """False for text with a lone surrogate, such as a file name that is not UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_store(store: FeatureStore) -> np.ndarray:
    """Validate a store for saving; returns its matrix as little-endian float64."""
    seen: set[str] = set()
    for sid in store._ids:
        if sid in seen:
            raise ValueError(f"duplicate id {sid!r} in store")
        if "\0" in sid:
            raise ValueError(f"id {sid!r} contains a NUL character")
        if not _is_utf8(sid):
            raise ValueError(f"id {sid!r} is not valid UTF-8 text")
        seen.add(sid)
    store.config.validate()
    want = (len(store), store.config.length)
    if store.matrix.shape != want:
        raise ValueError(
            f"store matrix has shape {store.matrix.shape}; {len(store)} ids under "
            f"its config need {want}"
        )
    matrix = np.ascontiguousarray(store.matrix, dtype="<f8")
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ValueError(f"entry {store._ids[np.argmin(finite)]!r} has a non-finite value")
    return matrix


def _pad(pos: int, align: int = 8) -> int:
    return -pos % align


def save_store(store: FeatureStore, path) -> None:
    """Write a store in format v3, building its index.

    The file is written under a temporary name in the same directory and
    then renamed over ``path``, so readers of the old file keep its
    bytes and a failed write leaves the old file in place.  Raises
    ValueError on duplicate ids, an id containing NUL or a lone surrogate
    (ids are stored as UTF-8), a matrix that does not fit the config, or a
    value that is not finite.
    """
    matrix = _check_store(store)
    cfg = store.config
    blob = "".join(sid + "\0" for sid in store._ids).encode("utf-8")
    index = build_index(matrix)
    head = (
        _HEADER.pack(MAGIC, VERSION, len(store))
        + _GEOMETRY.pack(
            cfg.comograd_bins, cfg.phog_bins, cfg.phog_levels, cfg.image_size, cfg.length
        )
        + _SECTIONS.pack(len(blob), index.rank)
    )
    blob += bytes(_pad(len(head) + len(blob)))
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in (index.mean, index.axes, index.rows)]
    end = len(head) + len(blob) + sum(a.nbytes for a in arrays)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in (head, blob, *arrays, bytes(_pad(end, _MATRIX_ALIGN)), matrix):
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_id(buf, pos: int, end: int, path) -> tuple[str, int]:
    """Decode the v1/v2 id record at ``buf[pos:end]``; returns (id, next pos)."""
    if pos + _IDLEN.size > end:
        raise CorruptEntryError(f"{path}: truncated id")
    (n,) = _IDLEN.unpack_from(buf, pos)
    pos += _IDLEN.size
    if pos + n > end:
        raise CorruptEntryError(f"{path}: truncated id")
    try:
        return str(buf[pos : pos + n], "utf-8"), pos + n
    except UnicodeDecodeError as exc:
        raise CorruptEntryError(f"{path}: id is not UTF-8 ({exc})") from None


def _check_unique(ids: list[str], path) -> None:
    if len(set(ids)) != len(ids):
        raise CorruptEntryError(f"{path}: duplicate ids")


def _load_v1(fh, path, count: int) -> FeatureStore:
    blob = fh.read()
    # every entry takes at least an id length and its vector
    if count * (_IDLEN.size + _V1_VEC_BYTES) > len(blob):
        raise CorruptEntryError(f"{path}: truncated entry")
    matrix = np.empty((count, FEATURE_LENGTH))
    ids: list[str] = []
    pos = 0
    for k in range(count):
        sid, pos = _read_id(blob, pos, len(blob), path)
        if pos + _V1_VEC_BYTES > len(blob):
            raise CorruptEntryError(f"{path}: truncated entry")
        matrix[k] = np.frombuffer(blob, dtype="<f8", count=FEATURE_LENGTH, offset=pos)
        pos += _V1_VEC_BYTES
        ids.append(sid)
    if pos != len(blob):
        raise CorruptEntryError(f"{path}: trailing bytes after last entry")
    _check_unique(ids, path)
    return FeatureStore(ids=ids, matrix=matrix, version=1)


def _read_geometry(fh, path) -> FeatureConfig:
    raw = fh.read(_GEOMETRY.size)
    if len(raw) < _GEOMETRY.size:
        raise CorruptEntryError(f"{path}: truncated header")
    *geometry, length = _GEOMETRY.unpack(raw)
    config = FeatureConfig(*geometry)
    try:
        config.validate()
    except ValueError as exc:
        raise CorruptEntryError(f"{path}: bad config in header ({exc})") from None
    if length != config.length:
        raise CorruptEntryError(
            f"{path}: vector length {length}, but its config gives {config.length}"
        )
    return config


def _load_v2(fh, path, count: int) -> FeatureStore:
    config = _read_geometry(fh, path)
    length = config.length
    # The matrix ends the file, so its offset follows from the file size;
    # the id table and its padding must end exactly there.
    start = _HEADER.size + _GEOMETRY.size
    size = os.fstat(fh.fileno()).st_size
    offset = size - count * length * 8
    if offset < start + count * _IDLEN.size:
        raise CorruptEntryError(f"{path}: file too short for {count} entries")
    buf = _read_head(fh, path, size)
    ids: list[str] = []
    pos = start
    for _ in range(count):
        sid, pos = _read_id(buf, pos, offset, path)
        ids.append(sid)
    _check_unique(ids, path)
    if pos + _pad(pos) != offset or any(buf[pos:offset]):
        raise CorruptEntryError(f"{path}: id table does not end at the matrix")
    matrix = np.frombuffer(buf, dtype="<f8", count=count * length, offset=offset)
    return FeatureStore(
        ids=ids, matrix=matrix.reshape(count, length), config=config, version=2
    )


def _load_v3(fh, path, count: int) -> FeatureStore:
    config = _read_geometry(fh, path)
    length = config.length
    raw = fh.read(_SECTIONS.size)
    if len(raw) < _SECTIONS.size:
        raise CorruptEntryError(f"{path}: truncated header")
    blob_len, rank = _SECTIONS.unpack(raw)
    if rank > length:
        raise CorruptEntryError(f"{path}: index rank {rank} above vector length {length}")
    # every section's offset follows from the header; the matrix ends the file
    start = _HEADER.size + _GEOMETRY.size + _SECTIONS.size
    mean_at = start + blob_len + _pad(start + blob_len)
    axes_at = mean_at + 8 * length
    rows_at = axes_at + 8 * rank * length
    index_end = rows_at + 8 * count * rank
    matrix_at = index_end + _pad(index_end, _MATRIX_ALIGN)
    size = os.fstat(fh.fileno()).st_size
    if size != matrix_at + 8 * count * length:
        raise CorruptEntryError(f"{path}: file size does not match its header")
    buf = _read_head(fh, path, matrix_at if count and _PREADV else size)
    try:
        ids = str(buf[start : start + blob_len], "utf-8").split("\0")
    except UnicodeDecodeError as exc:
        raise CorruptEntryError(f"{path}: id is not UTF-8 ({exc})") from None
    if len(ids) != count + 1 or ids.pop():
        raise CorruptEntryError(f"{path}: id blob does not hold {count} NUL-terminated ids")
    _check_unique(ids, path)
    for lo, hi in ((start + blob_len, mean_at), (index_end, matrix_at)):
        if buf[lo:hi] != bytes(hi - lo):
            raise CorruptEntryError(f"{path}: non-zero padding")

    def f64(offset: int, *shape: int) -> np.ndarray:
        return np.frombuffer(buf, dtype="<f8", count=math.prod(shape), offset=offset).reshape(
            shape
        )

    mean, axes = f64(mean_at, length), f64(axes_at, rank, length)
    departure = _departure(axes)
    if not np.isfinite(mean).all() or not departure <= _MAX_DEPARTURE:
        raise CorruptEntryError(f"{path}: index axes are not orthonormal or mean not finite")
    index = ProjectionIndex(mean, axes, f64(rows_at, count, rank), departure)
    if len(buf) == size:  # the matrix was read with the rest
        matrix = f64(matrix_at, count, length)
        return FeatureStore(ids=ids, matrix=matrix, config=config, version=3, index=index)
    store = FeatureStore(ids=ids, config=config, version=3, index=index)
    store._file = _MatrixFile(fh, path, matrix_at, (count, length))
    return store


_LOADERS = {1: _load_v1, 2: _load_v2, 3: _load_v3}


def load_store(path) -> FeatureStore:
    """Read a store (format v1, v2 or v3), verifying magic, version and framing.

    Only the header, the ids and the index axes are checked.  A v1 or v2
    store is read whole.  A v3 store reads its header, ids and index and
    keeps the file open: search reads the rows it scores with ``preadv``,
    and the matrix is read when ``matrix`` is first used.  A file that
    turns out shorter than its header says raises
    :class:`CorruptEntryError`, at load or at a later read.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[: len(MAGIC)] != MAGIC:
            raise BadMagicError(f"{path}: not a feature store")
        if len(head) < _HEADER.size:
            raise CorruptEntryError(f"{path}: truncated header")
        _, version, count = _HEADER.unpack(head)
        if version in _LOADERS:
            return _LOADERS[version](fh, path, count)
    raise UnsupportedVersionError(f"{path}: unsupported store version {version}")


def extract_file(path, config: FeatureConfig = FeatureConfig()) -> FeatureVector:
    """Parse one structure file and return its descriptor, with the file stem as id."""
    path = Path(path)
    trace = parse_structure(path.read_text(errors="replace"), structure_id=path.stem)
    return extract_features(trace, config)


def _extract_file(path: str, config: FeatureConfig) -> tuple:
    """Worker: returns (values, None) or (None, reason)."""
    try:
        return extract_file(path, config).values, None
    except OSError:
        raise
    except Exception as exc:  # parse or shape problems: skip and report
        return None, f"{type(exc).__name__}: {exc}"


def ingest_dir(
    dir_path,
    labels: dict | None = None,
    jobs: int = 1,
    report=None,
    config: FeatureConfig = FeatureConfig(),
) -> FeatureStore:
    """Extract descriptors for every structure file under a directory.

    Entries take the file stem as id and come out sorted by id, so the
    resulting store bytes are identical across runs and across ``jobs``
    settings.  Files that fail to parse are skipped and reported through
    ``report(name, status, detail)``, as are file names that are not
    UTF-8, duplicate stems and (when a label map is given) files without
    a label.  Descriptors are built with ``config``, which the store
    records.

    Raises :class:`EmptyCorpusError` when nothing survives.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise NotADirectoryError(f"{dir_path} is not a directory")
    say = report or (lambda name, status, detail: None)
    tasks: list[tuple[Path, str]] = []
    seen: set[str] = set()
    for p in sorted(root.iterdir()):
        if not p.is_file():
            continue
        sid = p.stem
        if not _is_utf8(sid):
            # named with its bytes escaped, so that the report can be printed
            name = os.fsencode(p.name).decode("utf-8", "backslashreplace")
            say(name, "skip", "file name is not UTF-8")
            continue
        if sid in seen:
            say(p.name, "skip", "duplicate id")
            continue
        if labels is not None and sid not in labels:
            say(p.name, "skip", "no label")
            continue
        seen.add(sid)
        tasks.append((p, sid))
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_extract_file, str(p), config) for p, _ in tasks]
            results = [f.result() for f in futures]
    else:
        results = [_extract_file(str(p), config) for p, _ in tasks]
    entries: list[FeatureVector] = []
    for (_, sid), (values, err) in zip(tasks, results):
        if err is None:
            entries.append(FeatureVector(id=sid, values=values))
            say(sid, "ok", "")
        else:
            say(sid, "skip", err)
    if not entries:
        raise EmptyCorpusError(f"no parseable structure files in {root}")
    entries.sort(key=lambda e: e.id)
    return FeatureStore(entries, config=config)
