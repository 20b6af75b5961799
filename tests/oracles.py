"""Reference implementations the tests compare the program against.

None of these run in the program: each is the plain form of something the
program computes another way.
"""

import numpy as np

from comogphog.imageops import _resample_weights


def bicubic_resize(img, out_h, out_w, clamp=True):
    """Separable cubic-convolution resampling (a = -0.5) with replicated edges.

    The dense ``w_rows @ img @ w_cols.T``; a square input resized to a
    square output uses one weight matrix for both.  ``clamp`` clips the
    result into [0, 1] (cubic interpolation can overshoot).
    """
    img = np.asarray(img, dtype=np.float64)
    wr = _resample_weights(img.shape[0], out_h)
    if (img.shape[1], out_w) == (img.shape[0], out_h):
        wc = wr
    else:
        wc = _resample_weights(img.shape[1], out_w)
    out = wr @ img @ wc.T
    if clamp:
        np.clip(out, 0.0, 1.0, out=out)
    return out


def pair_from_index(k, n):
    """Decode flat index k in [0, n*(n-1)/2) to the k-th pair (i, j), i < j.

    Pairs are ordered lexicographically: (0,1), (0,2), ..., (1,2), ...
    Integer binary search keeps the decoding exact for any n.
    """
    if not 0 <= k < n * (n - 1) // 2:
        raise ValueError(f"pair index {k} out of range for n={n}")
    lo, hi = 0, n - 1
    while lo < hi:  # largest i whose preceding rows hold <= k pairs
        mid = (lo + hi + 1) // 2
        if mid * (n - 1) - mid * (mid - 1) // 2 <= k:
            lo = mid
        else:
            hi = mid - 1
    before = lo * (n - 1) - lo * (lo - 1) // 2
    return lo, lo + 1 + (k - before)


def family_match(a, b):
    """True when all four levels (class, fold, superfamily, family) agree."""
    return superfamily_match(a, b) and a.family == b.family


def superfamily_match(a, b):
    """True when class, fold and superfamily agree (family may differ)."""
    return (
        a.sccs_class == b.sccs_class
        and a.fold == b.fold
        and a.superfamily == b.superfamily
    )
