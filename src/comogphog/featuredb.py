"""Binary persistence for descriptor collections plus directory ingestion.

Store layout, format v2 (little-endian throughout):

    magic  b"CMGP"
    u32    format version (2)
    u32    entry count
    u32    comograd_bins, phog_bins, phog_levels, image_size
           (the FeatureConfig the vectors were built with)
    u32    vector length (must equal that config's length)
    per entry:
        u16    id byte length
        bytes  id (UTF-8)
    zero bytes up to the next multiple of 8
    f64[count, length]  descriptor matrix, row per entry

Format v1 (still read, never written) holds the count, then per entry the
id length, the id and 1024 float64 values; it implies the default config.
Raw float64 bytes round-trip bit-exactly.
"""

from __future__ import annotations

import mmap
import os
import secrets
import struct
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .features import FEATURE_LENGTH, FeatureConfig, FeatureVector, extract_features
from .structure_io import parse_structure

MAGIC = b"CMGP"
VERSION = 2

_HEADER = struct.Struct("<4sII")
_GEOMETRY = struct.Struct("<IIIII")
_IDLEN = struct.Struct("<H")
_V1_VEC_BYTES = FEATURE_LENGTH * 8


class BadMagicError(ValueError):
    """File does not start with the feature-store magic bytes."""


class UnsupportedVersionError(ValueError):
    """Feature store written by an unknown format version."""


class CorruptEntryError(ValueError):
    """Feature store with a bad header, id table or size, or trailing bytes."""


class EmptyCorpusError(ValueError):
    """Ingestion found no parseable structure files."""


class FeatureStore:
    """An ordered collection of descriptors with unique ids.

    Holds the ids, one (count, length) float64 ``matrix`` with a row per
    id, and the :class:`FeatureConfig` the rows were built with.  Build one
    from ``entries`` (a list of :class:`FeatureVector`, copied into the
    matrix) or from ``ids`` and ``matrix``.  ``version`` is the format the
    store was read from; :func:`save_store` always writes the current one.
    """

    def __init__(
        self,
        entries: list[FeatureVector] = (),
        *,
        ids: list[str] | None = None,
        matrix: np.ndarray | None = None,
        config: FeatureConfig = FeatureConfig(),
        version: int = VERSION,
    ):
        if ids is None:
            ids = [e.id for e in entries]
            matrix = (
                np.stack([np.asarray(e.values, dtype=np.float64) for e in entries])
                if entries
                else np.empty((0, config.length))
            )
        self._ids = list(ids)
        self.matrix = matrix
        self.config = config
        self.version = version

    def ids(self) -> list[str]:
        return list(self._ids)

    @property
    def entries(self) -> list[FeatureVector]:
        """One vector per row; each ``values`` is a view into ``matrix``."""
        return [FeatureVector(id=i, values=row) for i, row in zip(self._ids, self.matrix)]

    def __len__(self) -> int:
        return len(self._ids)


def _check_store(store: FeatureStore) -> None:
    seen: set[str] = set()
    for sid in store._ids:
        if sid in seen:
            raise ValueError(f"duplicate id {sid!r} in store")
        seen.add(sid)
    store.config.validate()
    want = (len(store), store.config.length)
    if store.matrix.shape != want:
        raise ValueError(
            f"store matrix has shape {store.matrix.shape}; {len(store)} ids under "
            f"its config need {want}"
        )


def _pad(pos: int) -> int:
    return -pos % 8


def save_store(store: FeatureStore, path) -> None:
    """Write a store in format v2.

    The file is written under a temporary name in the same directory and
    then renamed over ``path``, so readers (and maps) of the old file keep
    its bytes and a failed write leaves the old file in place.  Raises
    ValueError on duplicate ids or a matrix that does not fit the config.
    """
    _check_store(store)
    cfg = store.config
    table = bytearray()
    for sid in store._ids:
        idb = sid.encode("utf-8")
        if len(idb) > 0xFFFF:
            raise ValueError(f"id of {len(idb)} bytes is longer than 65535: {sid[:40]!r}...")
        table += _IDLEN.pack(len(idb)) + idb
    head = _HEADER.pack(MAGIC, VERSION, len(store)) + _GEOMETRY.pack(
        cfg.comograd_bins, cfg.phog_bins, cfg.phog_levels, cfg.image_size, cfg.length
    )
    table += bytes(_pad(len(head) + len(table)))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(head)
            fh.write(table)
            fh.write(np.ascontiguousarray(store.matrix, dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_id(buf, pos: int, end: int, path) -> tuple[str, int]:
    """Decode the id record at ``buf[pos:end]``; returns (id, next pos)."""
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


def _load_v2(fh, path, count: int) -> FeatureStore:
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
    # The matrix ends the file, so its offset follows from the file size;
    # the id table and its padding must end exactly there.
    start = _HEADER.size + _GEOMETRY.size
    size = os.fstat(fh.fileno()).st_size
    offset = size - count * length * 8
    if offset < start + count * _IDLEN.size:
        raise CorruptEntryError(f"{path}: file too short for {count} entries")
    # A private (copy-on-write) map: the values are writable, writes stay
    # in this process, and a store file replaced by save_store keeps the
    # old bytes mapped.
    buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
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


def load_store(path) -> FeatureStore:
    """Read a store (format v1 or v2), verifying magic, version and framing."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[: len(MAGIC)] != MAGIC:
            raise BadMagicError(f"{path}: not a feature store")
        if len(head) < _HEADER.size:
            raise CorruptEntryError(f"{path}: truncated header")
        _, version, count = _HEADER.unpack(head)
        if version == 1:
            return _load_v1(fh, path, count)
        if version == VERSION:
            return _load_v2(fh, path, count)
    raise UnsupportedVersionError(f"{path}: unsupported store version {version}")


def export_csv(store: FeatureStore, path) -> None:
    """Write ``id,v0,...,v1023`` rows at full round-trip precision (export only)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for e in store.entries:
            fh.write(e.id + "," + ",".join(format(v, ".17g") for v in e.values) + "\n")


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
    ``report(name, status, detail)``, as are duplicate stems and (when a
    label map is given) files without a label.  Descriptors are built
    with ``config``, which the store records.

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
        if sid in seen:
            say(p.name, "skip", "duplicate id")
            continue
        if labels is not None and sid not in labels:
            say(p.name, "skip", "no label")
            continue
        seen.add(sid)
        tasks.append((p, sid))
    if jobs > 1 and len(tasks) > 1:
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
