"""Oriented-gradient descriptors of distance-matrix images.

Two blocks make up the fixed 1024-entry descriptor:

* a 16x16 co-occurrence matrix of quantized gradient orientations over
  right and down neighbor offsets (256 entries), and
* magnitude-weighted 9-bin orientation histograms over a 4-level quad
  tree of the image (85 cells, 765 values, zero-padded to 768 so the
  combined vector keeps its fixed size).

Both blocks are L1-normalized independently; a gradient-free image yields
an all-zero block.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .distmat import distance_matrix, to_gray
from .imageops import GradientField, gradient_field, normalize_size
from .structure_io import CaTrace

COMOGRAD_BINS = 16
PHOG_BINS = 9
PHOG_LEVELS = 3
IMAGE_SIZE = 128
COMOGRAD_LENGTH = COMOGRAD_BINS * COMOGRAD_BINS  # 256
PHOG_LENGTH = 768  # padded pyramid block; see phog()
FEATURE_LENGTH = COMOGRAD_LENGTH + PHOG_LENGTH  # 1024

# Longest trace extract_features accepts.  Extraction peaks while
# distance_matrix and to_gray hold two n x n float64 images: about
# 2*n*n*8 bytes, some 270 MB at this cap.  normalize_size's tiles add
# under 20 MB.
MAX_RESIDUES = 4096

# Largest descriptor FeatureConfig accepts: 8 MB per vector.  It also
# caps image_size at MAX_RESIDUES pixels, where extraction peaks near
# 1.1 GB.
_MAX_LENGTH = 1 << 20

# gradient magnitudes at or below this are treated as orientation-free
MAGNITUDE_EPS = 1e-12

# ordered neighbor offsets (row, col): right and down
_CO_OFFSETS = ((0, 1), (1, 0))


class TooManyResiduesError(ValueError):
    """A trace is longer than :data:`MAX_RESIDUES` CA atoms."""


def phog_cells(levels: int = PHOG_LEVELS) -> int:
    """Number of quad-tree cells over levels 0..levels: 1 + 4 + ... + 4^levels."""
    return (4 ** (levels + 1) - 1) // 3


@dataclass
class QuantizedOrientations:
    """Orientation bin indices plus a validity mask.

    ``bin`` holds indices in [0, bins); ``valid`` marks pixels whose gradient
    magnitude exceeds the epsilon (orientation is meaningless elsewhere).
    """

    bins: int
    bin: np.ndarray
    valid: np.ndarray


def quantize_orientations(field: GradientField, bins: int) -> QuantizedOrientations:
    """Quantize orientations into equal angular bins of 360/bins degrees.

    The default counts give 22.5-degree bins (16) and 40-degree bins (9).
    Bin index is floor(orientation / width), clipped to bins - 1 as a guard
    against floating-point edge cases; the input orientation range [0, 360)
    already maps inside [0, bins).
    """
    if bins < 1:
        raise ValueError(f"bin count must be >= 1, got {bins}")
    width = 360.0 / bins
    idx = np.floor(field.orientation / width).astype(np.int64)
    np.minimum(idx, bins - 1, out=idx)
    valid = field.magnitude > MAGNITUDE_EPS
    return QuantizedOrientations(bins=bins, bin=idx, valid=valid)


def comograd(quant: QuantizedOrientations) -> np.ndarray:
    """Co-occurrence of orientation bins at right and down neighbor offsets.

    Counts ordered pairs (pixel, neighbor) where both pixels are valid,
    accumulates them into a bins x bins matrix C[bin(p)][bin(p+offset)],
    L1-normalizes, and returns the row-major flattening (all-zero when no
    valid pairs exist).
    """
    b = quant.bin
    v = quant.valid
    n = quant.bins
    h, w = b.shape
    flat = []
    for dr, dc in _CO_OFFSETS:
        ok = v[: h - dr, : w - dc] & v[dr:, dc:]
        flat.append(b[: h - dr, : w - dc][ok] * n + b[dr:, dc:][ok])
    # whole counts, so one tally over both offsets gives the same sums
    counts = np.bincount(np.concatenate(flat), minlength=n * n).astype(np.float64)
    total = counts.sum()
    if total > 0.0:
        counts /= total
    return counts


def phog(
    field: GradientField,
    bins: int = PHOG_BINS,
    levels: int = PHOG_LEVELS,
    length: int | None = PHOG_LENGTH,
) -> np.ndarray:
    """Magnitude-weighted orientation histograms over a quad tree.

    Level l splits the image into 2^l x 2^l equal cells; cells are visited
    breadth-first (level 0 first) in row-major order and each contributes a
    ``bins``-entry histogram of quantized orientations weighted by gradient
    magnitude over valid pixels.  The concatenation is L1-normalized as one
    block (all-zero if the total weight is 0).

    The default geometry gives 85 cells x 9 bins = 765 histogram values; the
    tail is zero-padded to ``length`` (768 by default) so the combined
    descriptor keeps its fixed 1024 size.  Pass ``length=None`` for the raw
    concatenation.
    """
    size = field.shape[0]
    if field.shape[0] != field.shape[1]:
        raise ValueError(f"gradient field must be square, got {field.shape}")
    if size % (1 << levels):
        raise ValueError(f"side {size} not divisible by 2^{levels}")
    quant = quantize_orientations(field, bins)
    weight = np.where(quant.valid, field.magnitude, 0.0).ravel()
    levels_hist: list[np.ndarray] = []
    for level in range(levels + 1):
        # each pixel's (cell, bin) slot; bincount adds in row-major order,
        # which within one cell is the cell's own row-major order
        k = 1 << level
        band = np.arange(size) // (size >> level)
        slot = (band[:, None] * k + band[None, :]) * bins + quant.bin
        levels_hist.append(np.bincount(slot.ravel(), weights=weight, minlength=k * k * bins))
    hist = np.concatenate(levels_hist)
    if length is not None:
        if length < hist.size:
            raise ValueError(f"length {length} < {hist.size} histogram values")
        hist = np.concatenate([hist, np.zeros(length - hist.size)])
    total = hist.sum()
    if total > 0.0:
        hist /= total
    return hist


@dataclass(frozen=True)
class FeatureConfig:
    """Geometry of the descriptor pipeline.

    The defaults give the 1024-entry descriptor.  Other values are for
    experiments; stores record the config their vectors were built with.
    """

    comograd_bins: int = COMOGRAD_BINS
    phog_bins: int = PHOG_BINS
    phog_levels: int = PHOG_LEVELS
    image_size: int = IMAGE_SIZE

    def validate(self) -> None:
        """Raise ValueError unless every stage can run with this geometry."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        # bin counts partition the circle into equal angular bins (the
        # defaults give 22.5- and 40-degree widths)
        if self.comograd_bins < 1:
            raise ValueError(f"comograd_bins must be >= 1, got {self.comograd_bins}")
        if self.phog_bins < 1:
            raise ValueError(f"phog_bins must be >= 1, got {self.phog_bins}")
        if self.phog_levels < 0:
            raise ValueError(f"phog_levels must be >= 0, got {self.phog_levels}")
        if self.image_size < 2 or self.image_size & (self.image_size - 1):
            raise ValueError(f"image_size must be a power of two, got {self.image_size}")
        # upper bounds keep extraction's memory bounded (see MAX_RESIDUES)
        if self.image_size > MAX_RESIDUES:
            raise ValueError(f"image_size must be <= {MAX_RESIDUES}, got {self.image_size}")
        # compare bit lengths before shifting: levels may come from a file
        if self.phog_levels >= self.image_size.bit_length():
            raise ValueError(
                f"image_size {self.image_size} not divisible by 2^{self.phog_levels}"
            )
        if self.length > _MAX_LENGTH:
            raise ValueError(f"descriptor length must be <= {_MAX_LENGTH}, got {self.length}")

    @property
    def phog_length(self) -> int:
        """Pyramid block length: 765 values padded to 768 for the default
        bins and levels, the raw concatenation otherwise."""
        if (self.phog_bins, self.phog_levels) == (PHOG_BINS, PHOG_LEVELS):
            return PHOG_LENGTH
        return phog_cells(self.phog_levels) * self.phog_bins

    @property
    def length(self) -> int:
        """Entries per descriptor: co-occurrence block plus pyramid block."""
        return self.comograd_bins**2 + self.phog_length


@dataclass
class FeatureVector:
    """Fixed-length descriptor: co-occurrence block then pyramid block."""

    id: str
    values: np.ndarray


def extract_features(trace: CaTrace, config: FeatureConfig = FeatureConfig()) -> FeatureVector:
    """Full pipeline from CA trace to descriptor.

    distance matrix -> grayscale -> resize to config.image_size -> gradient
    field -> co-occurrence block + pyramid block.  The result has
    ``config.length`` entries (1024 by default), independent of protein
    size.  A trace of more than :data:`MAX_RESIDUES` CA atoms raises
    :class:`TooManyResiduesError` before any image is built.
    """
    if len(trace) > MAX_RESIDUES:
        raise TooManyResiduesError(
            f"{trace.id!r} has {len(trace)} CA atoms, more than the {MAX_RESIDUES} allowed"
        )
    gray = to_gray(distance_matrix(trace))
    img = normalize_size(gray, config.image_size)
    # A distance-matrix image is symmetric, and resampling with one weight
    # matrix shared by rows and columns keeps it so in exact arithmetic;
    # restore the symmetry the floating-point matmul loses (normalize_size
    # mirrors its off-diagonal tiles, but not within a tile).  Diagonal
    # pixels then keep gx == gy exactly, so their 45/225-degree
    # orientations quantize identically for rigidly moved copies of the
    # same structure.
    img = (img + img.T) / 2.0
    field = gradient_field(img)
    co = comograd(quantize_orientations(field, config.comograd_bins))
    ph = phog(
        field,
        bins=config.phog_bins,
        levels=config.phog_levels,
        length=config.phog_length,
    )
    return FeatureVector(id=trace.id, values=np.concatenate([co, ph]))
