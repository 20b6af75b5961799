"""Pairwise CA distance matrices and their normalized grayscale images."""

from __future__ import annotations

import numpy as np

from .structure_io import CaTrace


def distance_matrix(trace: CaTrace) -> np.ndarray:
    """n x n Euclidean distances between CA coordinates, in Angstrom.

    The result is symmetric with a zero diagonal and is invariant under
    rigid motion of the input coordinates.

    The squared differences along x, y and z are added into one n x n
    buffer in that order, the same ((dx^2 + dy^2) + dz^2) sum an
    (n, n, 3) difference array would give, and the square root is taken
    in place; besides the result, only one n x n temporary is live.
    """
    coords = trace.coords
    n = len(coords)
    out = np.zeros((n, n))
    diff = np.empty((n, n))
    for axis in range(3):
        col = coords[:, axis]
        np.subtract(col[:, None], col[None, :], out=diff)
        diff *= diff
        out += diff
    return np.sqrt(out, out=out)


def to_gray(dist: np.ndarray) -> np.ndarray:
    """Scale a distance matrix into [0, 1] by its maximum entry.

    Small distances map toward black (0) and the largest distance maps to
    exactly 1.  An all-zero matrix stays all-zero.
    """
    dist = np.asarray(dist, dtype=np.float64)
    peak = dist.max()
    if peak <= 0.0:
        return np.zeros_like(dist)
    return dist / peak

