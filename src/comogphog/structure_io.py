"""Read alpha-carbon traces from PDB text and parse SCOPe classification labels."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class NoCaAtomsError(ValueError):
    """Structure text yields fewer than two alpha-carbon atoms."""


class MalformedRecordError(ValueError):
    """ATOM record too short to hold coordinates, or with unparseable fields."""


class BadSccsError(ValueError):
    """Classification string does not look like class.fold.superfamily.family."""


@dataclass
class CaTrace:
    """Ordered alpha-carbon coordinates of one structure, in Angstrom.

    Attributes
    ----------
    id : str
        Identifier of the structure (usually the source file stem).
    coords : np.ndarray
        Array of shape (n, 3), n >= 2, finite float64 coordinates in
        residue order.
    """

    id: str
    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError(f"coords must have shape (n, 3), got {self.coords.shape}")
        if len(self.coords) < 2:
            raise ValueError(f"{self.id!r}: a trace needs at least 2 atoms")
        if not np.isfinite(self.coords).all():
            raise ValueError(f"{self.id!r}: non-finite coordinate")

    def __len__(self) -> int:
        return len(self.coords)


# ATOM records carry x, y, z in columns 31-54 (1-based); anything shorter
# cannot hold a full coordinate triple.
_COORD_END = 54


def parse_structure(text: str, structure_id: str = "") -> CaTrace:
    """Extract the ordered CA trace from PDB-format text.

    Only fixed-column ATOM records are considered; HETATM and all other
    record types are ignored.  When MODEL records are present only the first
    model is read.  For residues with alternate locations, the first CA line
    encountered per (chain, residue number, insertion code) wins.  Chains are
    concatenated in file order.

    Raises
    ------
    MalformedRecordError
        If an ATOM line is shorter than the coordinate columns or a
        coordinate field does not parse.
    NoCaAtomsError
        If fewer than two CA atoms are found.
    """
    coords: list[tuple[float, float, float]] = []
    seen: set[tuple[str, str, str]] = set()
    model = 0
    for line in text.splitlines():
        rec = line[:6].strip()
        if rec == "MODEL":
            model += 1
            if model > 1:
                break
        elif rec == "ENDMDL" and model >= 1:
            break
        elif rec == "ATOM":
            if len(line) < _COORD_END:
                raise MalformedRecordError(
                    f"ATOM record shorter than coordinate columns: {line!r}"
                )
            if line[12:16].strip() != "CA":
                continue
            residue = (line[21], line[22:26].strip(), line[26])
            if residue in seen:
                continue
            seen.add(residue)
            try:
                coords.append(
                    (float(line[30:38]), float(line[38:46]), float(line[46:54]))
                )
            except ValueError as exc:
                raise MalformedRecordError(f"bad coordinate field in {line!r}") from exc
    if len(coords) < 2:
        raise NoCaAtomsError(f"found {len(coords)} CA atoms, need at least 2")
    return CaTrace(id=structure_id, coords=np.array(coords, dtype=np.float64))


_SCCS_RE = re.compile(r"^([A-Za-z])\.(\d+)\.(\d+)\.(\d+)$")


@dataclass(frozen=True)
class ScopLabel:
    """One domain's hierarchical classification: class, fold, superfamily, family."""

    sid: str
    sccs_class: str
    fold: int
    superfamily: int
    family: int


def parse_scop_label(sid: str, sccs: str) -> ScopLabel:
    """Parse an sccs string like ``a.1.1.1`` into its four levels."""
    m = _SCCS_RE.match(sccs.strip())
    if m is None:
        raise BadSccsError(f"{sid!r}: bad classification string {sccs!r}")
    fold, superfamily, family = (int(g) for g in m.groups()[1:])
    if min(fold, superfamily, family) < 1:
        raise BadSccsError(f"{sid!r}: numeric levels must be positive in {sccs!r}")
    return ScopLabel(
        sid=sid, sccs_class=m.group(1), fold=fold, superfamily=superfamily, family=family
    )


def read_label_table(text: str) -> dict[str, ScopLabel]:
    """Parse ``sid,sccs`` (comma- or tab-separated) lines into a label map.

    Blank lines and ``#`` comments are skipped, and a single leading header
    line is tolerated: a first row with one field, or whose second field
    has no ``.`` (a column name, never an sccs).  Every other row that
    fails to parse raises :class:`BadSccsError`.  Extra columns are
    ignored.
    """
    labels: dict[str, ScopLabel] = {}
    first_data = True
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        sep = "\t" if "\t" in line else ","
        parts = [p.strip() for p in line.split(sep)]
        if len(parts) < 2:
            if first_data:
                first_data = False
                continue
            raise BadSccsError(f"label line needs sid and sccs: {raw!r}")
        try:
            label = parse_scop_label(parts[0], parts[1])
        except BadSccsError:
            if first_data and "." not in parts[1]:
                first_data = False
                continue
            raise
        first_data = False
        labels[label.sid] = label
    return labels
