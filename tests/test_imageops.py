import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from comogphog.distmat import distance_matrix, to_gray
from comogphog.imageops import (
    _BLOCK_ROWS,
    OddDimensionError,
    _weight_band,
    cubic_kernel,
    gradient_field,
    haar_downsample,
    normalize_size,
)
from comogphog.synthetic import random_walk_trace
from oracles import (
    bicubic_resize,
    haar_expression,
    normalize_size_tiled,
    resample_weights_loop,
)


# --- standalone cubic-convolution oracle (scalar, per output pixel) ---


def kernel_scalar(x):
    x = abs(x)
    if x <= 1.0:
        return 1.5 * x**3 - 2.5 * x**2 + 1.0
    if x < 2.0:
        return -0.5 * x**3 + 2.5 * x**2 - 4.0 * x + 2.0
    return 0.0


def resize_scalar(img, out_h, out_w):
    in_h, in_w = img.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        sy = (i + 0.5) * in_h / out_h - 0.5
        iy = math.floor(sy)
        for j in range(out_w):
            sx = (j + 0.5) * in_w / out_w - 0.5
            ix = math.floor(sx)
            acc = 0.0
            for dy in range(-1, 3):
                wy = kernel_scalar(sy - (iy + dy))
                ry = min(max(iy + dy, 0), in_h - 1)
                for dx in range(-1, 3):
                    wx = kernel_scalar(sx - (ix + dx))
                    rx = min(max(ix + dx, 0), in_w - 1)
                    acc += wy * wx * img[ry, rx]
            out[i, j] = acc
    return out


def test_kernel_shape():
    assert cubic_kernel(0.0) == 1.0
    assert cubic_kernel(1.0) == 0.0
    assert cubic_kernel(2.0) == 0.0
    assert cubic_kernel(2.5) == 0.0
    # interpolating kernel: weights at integer offsets vanish except 0
    assert cubic_kernel(-1.0) == 0.0
    # classic Catmull-Rom half-sample weights
    assert np.allclose(cubic_kernel([0.5, 1.5]), [0.5625, -0.0625])


def test_identity_resize_is_exact():
    img = np.random.default_rng(0).random((9, 13))
    assert np.array_equal(bicubic_resize(img, 9, 13), img)


@pytest.mark.parametrize("shape", [(3, 3), (8, 5), (16, 16)])
def test_constant_image_stays_constant(shape):
    img = np.full((4, 6), 0.7)
    out = bicubic_resize(img, *shape)
    assert np.allclose(out, 0.7, atol=1e-12)


def test_ramp_upsample_matches_scalar_oracle():
    img = np.linspace(0.0, 1.0, 16).reshape(4, 4)
    got = bicubic_resize(img, 8, 8, clamp=False)
    assert np.abs(got - resize_scalar(img, 8, 8)).max() <= 1e-12


def test_random_resizes_match_scalar_oracle():
    rng = np.random.default_rng(99)
    for _ in range(6):
        in_h, in_w = rng.integers(2, 14, size=2)
        out_h, out_w = rng.integers(1, 20, size=2)
        img = rng.random((in_h, in_w))
        got = bicubic_resize(img, int(out_h), int(out_w), clamp=False)
        assert np.abs(got - resize_scalar(img, int(out_h), int(out_w))).max() <= 1e-12


def test_clamping():
    img = np.zeros((6, 6))
    img[:, 3:] = 1.0  # sharp step overshoots under cubic interpolation
    raw = bicubic_resize(img, 12, 12, clamp=False)
    assert raw.min() < 0.0 or raw.max() > 1.0
    clamped = bicubic_resize(img, 12, 12)
    assert clamped.min() >= 0.0 and clamped.max() <= 1.0


@given(st.floats(min_value=0.01, max_value=1.0))
def test_resize_commutes_with_scaling_before_clamp(k):
    img = np.random.default_rng(4).random((5, 7))
    a = bicubic_resize(k * img, 9, 6, clamp=False)
    b = k * bicubic_resize(img, 9, 6, clamp=False)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "n_src,n_dst",
    [
        (37, 128),  # upsampling, the domain-length path
        (150, 256),  # upsampling to the next power of two
        (600, 1024),
        (930, 1024),
        (2180, 4096),  # the longest benchmark chain
        (5, 5),  # equal sizes: identity
        (128, 128),
        # one source sample: all four taps clip onto column 0, and the order
        # in which they are added shows in the low bits
        (1, 9),
        (1, 1),
        (6, 24),  # first and last rows fold out-of-range taps onto edge columns
        (2, 9),  # every row clips at both edges
    ],
)
def test_resample_weights_match_row_loop_bytes(n_src, n_dst):
    # every band of rows, at normalize_size's band height and at a height
    # that cuts the rows unevenly, holds the loop matrix's bytes over its
    # columns, and the loop matrix is zero outside them
    want = resample_weights_loop(n_src, n_dst)
    for height in (min(_BLOCK_ROWS, n_dst), 3):
        for lo in range(0, n_dst, height):
            hi = min(lo + height, n_dst)
            c0, c1, w = _weight_band(n_src, n_dst, lo, hi)
            assert 0 <= c0 < c1 <= n_src
            assert w.shape == (hi - lo, c1 - c0)
            assert w.tobytes() == want[lo:hi, c0:c1].tobytes()
            assert not want[lo:hi, :c0].any() and not want[lo:hi, c1:].any()


@pytest.mark.parametrize(
    "in_shape,out_shape",
    [((5, 9), (7, 3)), ((6, 6), (4, 9)), ((4, 7), (8, 8)), ((6, 6), (11, 11))],
)
def test_resize_equals_explicit_row_and_column_weights(in_shape, out_shape):
    img = np.random.default_rng(12).random(in_shape)
    wr = resample_weights_loop(in_shape[0], out_shape[0])
    wc = resample_weights_loop(in_shape[1], out_shape[1])
    want = wr @ img @ wc.T
    assert bicubic_resize(img, *out_shape, clamp=False).tobytes() == want.tobytes()
    assert bicubic_resize(img, *out_shape).tobytes() == np.clip(want, 0.0, 1.0).tobytes()


def test_resize_peak_memory_600_to_1024():
    p = 1024
    img = np.random.default_rng(6).random((600, 600))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = bicubic_resize(img, p, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (p, p)
    assert peak <= 2.5 * p * p * 8


@pytest.mark.parametrize("shape", [(2, 2), (6, 4), (64, 64), (130, 258)])
def test_haar_matches_the_four_term_expression_bytes(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    for img in (rng.random(shape), rng.normal(scale=1e3, size=shape)):
        assert haar_downsample(img).tobytes() == haar_expression(img).tobytes()


def test_haar_single_block():
    assert np.array_equal(haar_downsample(np.array([[0.2, 0.4], [0.6, 0.8]])), [[0.5]])


def test_haar_constant():
    assert np.array_equal(haar_downsample(np.full((6, 4), 0.3)), np.full((3, 2), 0.3))


def test_haar_matches_block_mean_oracle():
    img = np.random.default_rng(21).random((4, 4))
    got = haar_downsample(img)
    for i in range(2):
        for j in range(2):
            mean = (
                img[2 * i, 2 * j] + img[2 * i, 2 * j + 1] + img[2 * i + 1, 2 * j] + img[2 * i + 1, 2 * j + 1]
            ) / 4.0
            assert got[i, j] == mean


def test_haar_rejects_odd_dims():
    with pytest.raises(OddDimensionError):
        haar_downsample(np.zeros((3, 4)))
    with pytest.raises(OddDimensionError):
        haar_downsample(np.zeros((4, 5)))


def test_haar_preserves_mean():
    img = np.random.default_rng(8).random((32, 32))
    assert haar_downsample(img).mean() == pytest.approx(img.mean(), abs=1e-12)


def test_normalize_size_small_input_goes_straight_to_target():
    img = np.random.default_rng(1).random((90, 90))
    assert np.array_equal(normalize_size(img), bicubic_resize(img, 128, 128))


def test_normalize_size_fixed_point():
    img = np.random.default_rng(2).random((128, 128))
    assert np.array_equal(normalize_size(img), img)


def test_normalize_size_large_input_uses_wavelet_path():
    img = np.random.default_rng(3).random((200, 200))
    expected = haar_downsample(bicubic_resize(img, 256, 256))
    assert np.array_equal(normalize_size(img), expected)


@pytest.mark.parametrize("n", [2, 3, 17, 90, 127, 128, 129, 200, 255, 256, 300, 513])
def test_normalize_size_always_128(n):
    img = np.random.default_rng(n).random((n, n))
    assert normalize_size(img).shape == (128, 128)


def normalize_size_dense(img, size=128):
    """The whole p x p bicubic upsample, then Haar halving (the reference)."""
    n = img.shape[0]
    p = max(size, 1 << (n - 1).bit_length())
    out = bicubic_resize(img, p, p)
    while out.shape[0] > size:
        out = haar_expression(out)
    return out


def walk_image(n):
    return to_gray(distance_matrix(random_walk_trace(n, f"walk{n}", seed=n)))


def random_symmetric_image(n):
    a = np.random.default_rng(n).random((n, n))
    return (a + a.T) / 2.0


# At 128 pixels, lengths on both sides of 256 and 2048, and 262; then
# other image sizes, with inputs below and above.  Up to p = 256 upsampled
# pixels there is one tile, so the output has the dense path's bytes.
# Above it the tiles sum each product over fewer source samples, which may
# change low bits, so the bytes are pinned by the tile-wise oracle and the
# dense path bounds the difference.
@pytest.mark.parametrize("make", [walk_image, random_symmetric_image])
@pytest.mark.parametrize(
    "size,n",
    [(128, n) for n in (129, 200, 257, 262, 600, 1000, 1300, 2180)]
    + [(64, 3), (64, 50), (64, 100), (64, 262), (128, 2), (128, 90), (128, 127)]
    + [(256, 37), (256, 255), (256, 300), (256, 600)],
)
def test_normalize_size_equals_dense_upsample_then_haar_bytes(make, size, n):
    img = make(n)
    got = normalize_size(img, size)
    dense = normalize_size_dense(img, size)
    assert got.shape == (size, size)
    if max(size, 1 << (n - 1).bit_length()) <= 256:
        assert got.tobytes() == dense.tobytes()
    else:
        assert got.tobytes() == normalize_size_tiled(img, size).tobytes()
        assert np.abs(got - dense).max() <= 1e-15


def test_normalize_size_peak_memory_2180():
    n, p, size = 2180, 4096, 128
    img = random_symmetric_image(n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = normalize_size(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (size, size)
    # p / b bands of b rows, each over at most b * n / p + 4 source samples;
    # one row band times the image (b, n); one (b, b) tile with its Haar
    # halvings, less than two tiles; the output.  About 10 MB here, where
    # one (p, n) array alone is 71 MB.
    b = _BLOCK_ROWS
    bands = p * (b * n // p + 4)
    assert peak <= (bands + b * n + 2 * b * b + size * size) * 8


def test_normalize_size_rejects_non_square():
    with pytest.raises(ValueError):
        normalize_size(np.zeros((4, 5)))


def test_gradient_constant_image():
    f = gradient_field(np.full((8, 8), 0.4))
    assert np.array_equal(f.magnitude, np.zeros((8, 8)))


def test_gradient_x_ramp():
    img = np.fromfunction(lambda r, c: c * 0.01, (10, 10))
    f = gradient_field(img)
    interior = np.s_[1:-1, 1:-1]
    assert np.allclose(f.orientation[interior], 0.0, atol=1e-9)
    assert np.allclose(f.magnitude[interior], 0.01, atol=1e-12)


def test_gradient_y_ramp():
    img = np.fromfunction(lambda r, c: r * 0.01, (10, 10))
    f = gradient_field(img)
    assert np.allclose(f.orientation[1:-1, 1:-1], 90.0, atol=1e-9)


def test_gradient_replicated_borders_halve_edge_derivative():
    img = np.fromfunction(lambda r, c: c * 0.01, (6, 6))
    f = gradient_field(img)
    # at c = 0 the left neighbor replicates the pixel itself
    assert np.allclose(f.magnitude[1:-1, 0], 0.005, atol=1e-12)


def test_gradient_orientation_range():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = gradient_field(rng.random((12, 12)))
        assert (f.orientation >= 0.0).all()
        assert (f.orientation < 360.0).all()


def test_gradient_inversion_flips_orientation():
    img = np.random.default_rng(23).random((16, 16))
    f = gradient_field(img)
    g = gradient_field(1.0 - img)
    assert np.array_equal(f.magnitude, g.magnitude)
    mask = f.magnitude > 0
    delta = np.abs((f.orientation - g.orientation) % 360.0)
    delta = np.minimum(delta, 360.0 - delta)
    assert np.allclose(delta[mask], 180.0, atol=1e-9)
