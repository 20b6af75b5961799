"""Resampling to the 128x128 working size and gradient-field computation.

Distance-matrix images come in at the protein's own size, so everything
downstream funnels through :func:`normalize_size`: small images are
upsampled straight to the working size with cubic convolution, large ones
are first taken to the next power of two and then halved with the Haar
low-low filter until they land on the target.  The resampling runs tile by
tile over the non-zero bands of the cubic weights, so neither the
upsampled image nor a dense weight matrix is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKING_SIZE = 128

# upsampled rows (and columns) per band of normalize_size's tiles
_BLOCK_ROWS = 256


class OddDimensionError(ValueError):
    """Haar downsampling needs even height and width."""


def cubic_kernel(x, a: float = -0.5) -> np.ndarray:
    """Keys cubic convolution kernel (Catmull-Rom at a = -0.5).

    Piecewise cubic with support (-2, 2):

        (a+2)|x|^3 - (a+3)|x|^2 + 1          for |x| <= 1
        a|x|^3 - 5a|x|^2 + 8a|x| - 4a        for 1 < |x| < 2
        0                                     otherwise
    """
    x = np.abs(np.asarray(x, dtype=np.float64))
    x2 = x * x
    x3 = x2 * x
    near = (a + 2.0) * x3 - (a + 3.0) * x2 + 1.0
    far = a * x3 - 5.0 * a * x2 + 8.0 * a * x - 4.0 * a
    return np.where(x <= 1.0, near, np.where(x < 2.0, far, 0.0))


def _weight_band(n_src: int, n_dst: int, lo: int, hi: int) -> tuple[int, int, np.ndarray]:
    """Rows lo:hi of the (n_dst, n_src) cubic weights, cut to their support.

    Returns ``(c0, c1, w)``: the rows touch only source samples c0:c1, and
    ``w`` holds their weights, shape (hi - lo, c1 - c0).  Output samples
    sit on half-pixel centers, source index
    s = (i + 0.5) * n_src / n_dst - 0.5, so equal sizes give an exact
    identity.  The four taps around s are clipped into range, which
    replicates edge samples.

    Taps k = -1, 0, 1, 2 are added one after another, so an edge column
    that several clipped taps land on accumulates them in the same order
    as a per-row ``np.add.at`` would: every band holds the same bytes as
    the matching slice of the whole weight matrix, which is zero outside
    the band.
    """
    rows = np.arange(lo, hi)
    s = (rows + 0.5) * (n_src / n_dst) - 0.5
    i0 = np.floor(s).astype(np.intp)
    t = s - i0
    # i0 never falls as the rows go on, so the first row's tap -1 and the
    # last row's tap 2 bound the band
    c0 = max(int(i0[0]) - 1, 0)
    c1 = min(int(i0[-1]) + 3, n_src)
    w = np.zeros((hi - lo, c1 - c0))
    at = np.arange(hi - lo)
    for k in (-1, 0, 1, 2):
        w[at, np.clip(i0 + k, 0, n_src - 1) - c0] += cubic_kernel(t - k)
    return c0, c1, w


def haar_downsample(img: np.ndarray) -> np.ndarray:
    """One low-low wavelet level: each output pixel is its 2x2 block mean."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    if h % 2 or w % 2:
        raise OddDimensionError(f"dimensions must be even, got {h}x{w}")
    # (a + b + c + d) / 4 in one buffer: the same operations in the same order
    out = img[0::2, 0::2] + img[0::2, 1::2]
    out += img[1::2, 0::2]
    out += img[1::2, 1::2]
    out /= 4.0
    return out


def normalize_size(img: np.ndarray, size: int = WORKING_SIZE) -> np.ndarray:
    """Bring a square image to size x size.

    A power-of-two input at or above the target is Haar-halved down to it
    (and passes through unchanged at the target).  Any other input is
    bicubic-resized to p x p, p = max(size, next power of two >= n), and
    then Haar-halved down to the target; for n < size that is one direct
    bicubic resize.  ``size`` must be a power of two.

    The p x p image is never built.  Both resampling products run tile by
    tile over bands of b = max(256, p / size) upsampled rows or columns,
    each holding whole Haar groups, and each band multiplies only the
    source samples its weights touch (about b * n / p + 3 of them).  A
    tile is clamped and Haar-halved on its own, so the result equals
    ``haar^k(bicubic_resize(img, p, p))`` up to the order in which BLAS
    sums each product; for p <= 256 there is one tile and the same bytes.
    Peak memory beyond the input is about (2 * b * n + b * b) * 8 bytes.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValueError(f"expected a square image, got {img.shape}")
    if size < 2 or size & (size - 1):
        raise ValueError(f"target size must be a power of two >= 2, got {size}")
    n = img.shape[0]
    if n < 2:
        raise ValueError("image side must be >= 2")
    p = max(size, 1 << (n - 1).bit_length())  # smallest power of two >= n, size
    if n == p:
        out = img
        while out.shape[0] > size:
            out = haar_downsample(out)
        return out
    f = p // size  # upsampled pixels per output pixel
    # powers of two, so p is a whole number of bands and a band of Haar groups
    b = min(max(_BLOCK_ROWS, f), p)
    g = b // f  # output pixels per band
    # the image is square, so rows and columns share one set of bands
    bands = [_weight_band(n, p, lo, lo + b) for lo in range(0, p, b)]
    out = np.empty((size, size))
    half = np.empty((b, n))
    for i, (r0, r1, wr) in enumerate(bands):
        np.matmul(wr, img[r0:r1], out=half)
        for j, (c0, c1, wc) in enumerate(bands):
            tile = half[:, c0:c1] @ wc.T
            np.clip(tile, 0.0, 1.0, out=tile)
            while tile.shape[0] > g:
                tile = haar_downsample(tile)
            out[i * g : (i + 1) * g, j * g : (j + 1) * g] = tile
    return out


@dataclass
class GradientField:
    """Per-pixel gradient magnitude and orientation (degrees in [0, 360))."""

    magnitude: np.ndarray
    orientation: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.magnitude.shape


def gradient_field(img: np.ndarray) -> GradientField:
    """Central-difference gradients with replicated borders.

    gx runs along columns, gy along rows; orientation is
    atan2(gy, gx) mapped into [0, 360) degrees and magnitude is
    sqrt(gx^2 + gy^2).  A constant image has zero magnitude everywhere
    (orientation is reported as 0 there).
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 2 or img.shape[1] < 2:
        raise ValueError("image must be 2-D and at least 2x2")
    padded = np.pad(img, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    magnitude = np.hypot(gx, gy)
    orientation = np.degrees(np.arctan2(gy, gx)) % 360.0
    # floating-point wrap guard: values like 360 - 1e-14 can round to 360.0
    orientation[orientation >= 360.0] = 0.0
    return GradientField(magnitude=magnitude, orientation=orientation)
