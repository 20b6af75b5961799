import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from comogphog.features import (
    COMOGRAD_LENGTH,
    FEATURE_LENGTH,
    MAX_RESIDUES,
    PHOG_LENGTH,
    FeatureConfig,
    TooManyResiduesError,
    comograd,
    extract_features,
    phog,
    phog_cells,
    quantize_orientations,
)
from comogphog.distmat import distance_matrix, to_gray
from comogphog.imageops import GradientField, gradient_field, normalize_size
from comogphog.synthetic import helix_trace, random_rotation, random_walk_trace, transform
from oracles import phog_by_cell

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_helix10.json"


def field_from(orientation, magnitude=None):
    orientation = np.asarray(orientation, dtype=np.float64)
    if magnitude is None:
        magnitude = np.ones_like(orientation)
    return GradientField(magnitude=np.asarray(magnitude, dtype=np.float64), orientation=orientation)


# --- quantization ---


@pytest.mark.parametrize(
    "deg,bins,expected",
    [
        (0.0, 16, 0),
        (22.4, 16, 0),
        (22.5, 16, 1),
        (90.0, 16, 4),
        (359.9, 16, 15),
        (0.0, 9, 0),
        (39.9, 9, 0),
        (40.0, 9, 1),
        (359.9, 9, 8),
    ],
)
def test_quantize_examples(deg, bins, expected):
    q = quantize_orientations(field_from([[deg, deg]]), bins)
    assert q.bin[0, 0] == expected


def test_quantize_validity_mask():
    f = field_from([[10.0, 20.0, 30.0]], magnitude=[[0.0, 1e-13, 1e-11]])
    q = quantize_orientations(f, 16)
    assert q.valid.tolist() == [[False, False, True]]


def test_quantize_never_reaches_bin_count():
    rng = np.random.default_rng(5)
    ori = rng.uniform(0, 360, size=(40, 40))
    ori[0, :4] = [359.9999999, 359.99999999999994, 0.0, 225.0]
    for bins in (16, 9):
        q = quantize_orientations(field_from(ori), bins)
        assert q.bin.max() < bins
        assert q.bin.min() >= 0


# --- co-occurrence ---


def comograd_oracle(bins_grid, valid, n=16):
    """Exhaustive enumeration of right/down ordered neighbor pairs."""
    h, w = bins_grid.shape
    counts = np.zeros((n, n))
    for r in range(h):
        for c in range(w):
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 < h and c2 < w and valid[r, c] and valid[r2, c2]:
                    counts[bins_grid[r, c], bins_grid[r2, c2]] += 1
    total = counts.sum()
    if total > 0:
        counts /= total
    return counts.ravel()


def test_comograd_single_bin_concentration():
    ori = np.full((5, 5), 70.0)  # bin 3 for 16 bins (67.5 <= 70 < 90)
    vec = comograd(quantize_orientations(field_from(ori), 16))
    assert vec[3 * 16 + 3] == 1.0
    assert vec.sum() == 1.0
    assert np.count_nonzero(vec) == 1


def test_comograd_no_valid_pixels():
    f = field_from(np.zeros((4, 4)), magnitude=np.zeros((4, 4)))
    vec = comograd(quantize_orientations(f, 16))
    assert np.array_equal(vec, np.zeros(256))


def test_comograd_matches_enumeration_oracle():
    rng = np.random.default_rng(13)
    ori = rng.uniform(0, 360, size=(3, 3))
    mag = rng.random((3, 3))
    mag[1, 1] = 0.0  # leave a hole in the validity mask
    q = quantize_orientations(field_from(ori, mag), 16)
    got = comograd(q)
    want = comograd_oracle(q.bin, q.valid, 16)
    assert np.array_equal(got, want)


def test_comograd_is_deterministic():
    f = gradient_field(np.random.default_rng(2).random((32, 32)))
    q = quantize_orientations(f, 16)
    assert np.array_equal(comograd(q), comograd(q))


# --- pyramid histograms ---


def phog_oracle(field, bins=9, levels=3, length=768):
    """Per-cell histogram accumulation, written independently of phog()."""
    size = field.shape[0]
    width = 360.0 / bins
    hists = []
    for level in range(levels + 1):
        cells = 2**level
        step = size // cells
        for ci in range(cells):
            for cj in range(cells):
                h = np.zeros(bins)
                for r in range(ci * step, (ci + 1) * step):
                    for c in range(cj * step, (cj + 1) * step):
                        if field.magnitude[r, c] > 1e-12:
                            b = min(int(field.orientation[r, c] // width), bins - 1)
                            h[b] += field.magnitude[r, c]
                hists.append(h)
    out = np.concatenate(hists + [np.zeros(length - bins * len(hists))])
    total = out.sum()
    return out / total if total > 0 else out


def test_phog_cell_count():
    assert phog_cells(3) == 85
    assert phog_cells(0) == 1


def test_phog_length_and_padding():
    f = gradient_field(np.random.default_rng(3).random((128, 128)))
    vec = phog(f)
    assert vec.shape == (PHOG_LENGTH,)
    # 85 cells x 9 bins = 765 histogram values; the tail is inert padding
    assert np.array_equal(vec[765:], np.zeros(3))
    assert vec.sum() == pytest.approx(1.0, abs=1e-9)


def test_phog_constant_image_is_all_zero():
    f = field_from(np.zeros((16, 16)), magnitude=np.zeros((16, 16)))
    assert np.array_equal(phog(f, length=None), np.zeros(85 * 9))


def test_phog_x_ramp_mass_in_bin_zero():
    img = np.fromfunction(lambda r, c: c * 0.01, (128, 128))
    vec = phog(gradient_field(img))
    per_cell = vec[:765].reshape(85, 9)
    assert (per_cell[:, 0] > 0).all()
    assert np.array_equal(per_cell[:, 1:], np.zeros((85, 8)))


def test_phog_matches_per_cell_oracle_small():
    f = gradient_field(np.random.default_rng(31).random((16, 16)))
    got = phog(f, levels=2, length=None)
    want = phog_oracle(f, bins=9, levels=2, length=21 * 9)
    assert np.abs(got - want).max() <= 1e-12


def test_phog_matches_per_cell_oracle_full_size():
    f = gradient_field(np.random.default_rng(37).random((128, 128)))
    got = phog(f)
    want = phog_oracle(f)
    assert np.abs(got - want).max() <= 1e-12


def pipeline_field(trace, image_size):
    """The gradient field extract_features builds for ``trace``."""
    img = normalize_size(to_gray(distance_matrix(trace)), image_size)
    return gradient_field((img + img.T) / 2.0)


@pytest.mark.parametrize(
    "config",
    [
        FeatureConfig(),
        FeatureConfig(phog_bins=8, phog_levels=2, image_size=64),
        FeatureConfig(comograd_bins=8, phog_levels=4),
    ],
    ids=["default", "bins8-levels2-size64", "comograd8-levels4"],
)
def test_blocks_match_enumeration_and_per_cell_oracles_by_bytes(config):
    lengths = (20, 57, 150, 333)
    traces = [helix_trace(n, f"h{n}", jitter=0.3, seed=n) for n in lengths]
    traces += [random_walk_trace(n, f"w{n}", seed=n) for n in lengths]
    for trace in traces:
        field = pipeline_field(trace, config.image_size)
        quant = quantize_orientations(field, config.comograd_bins)
        want = comograd_oracle(quant.bin, quant.valid, config.comograd_bins)
        assert comograd(quant).tobytes() == want.tobytes()
        for length in (config.phog_length, None):
            got = phog(field, config.phog_bins, config.phog_levels, length)
            want = phog_by_cell(field, config.phog_bins, config.phog_levels, length)
            assert got.tobytes() == want.tobytes()


def test_phog_hierarchical_consistency():
    f = gradient_field(np.random.default_rng(41).random((128, 128)))
    vec = phog(f)
    level0 = vec[0:9]
    children = vec[9:45].reshape(4, 9).sum(axis=0)
    assert np.allclose(level0, children, atol=1e-12)


def test_phog_rejects_indivisible_size():
    f = field_from(np.zeros((20, 20)))
    with pytest.raises(ValueError):
        phog(f, levels=3)


# --- full pipeline ---


def test_extract_shape_and_block_sums():
    fv = extract_features(random_walk_trace(60, "w60", seed=9))
    assert fv.values.shape == (FEATURE_LENGTH,)
    assert fv.values[:COMOGRAD_LENGTH].sum() == pytest.approx(1.0, abs=1e-9)
    assert fv.values[COMOGRAD_LENGTH:].sum() == pytest.approx(1.0, abs=1e-9)
    assert (fv.values >= 0).all() and np.isfinite(fv.values).all()


def test_extract_is_deterministic():
    t = random_walk_trace(45, "w", seed=2)
    assert np.array_equal(extract_features(t).values, extract_features(t).values)


def test_extract_rotated_copy_is_identical():
    rng = np.random.default_rng(77)
    t = random_walk_trace(80, "w", seed=6)
    moved = transform(t, random_rotation(rng), rng.uniform(-20, 20, 3))
    a = extract_features(t).values
    b = extract_features(moved).values
    assert np.abs(a - b).max() <= 1e-9


def test_extract_matches_golden_helix():
    data = json.loads(GOLDEN.read_text())
    fv = extract_features(helix_trace(10, "helix10"))
    assert fv.id == "helix10"
    golden = np.array([float(v) for v in data["values"]])
    assert golden.shape == fv.values.shape
    assert np.abs(fv.values - golden).max() <= 1e-9


# Descriptors of random walks at 200 and 1000 residues, which take the
# bicubic-to-next-power-of-two then Haar path; written with "%.17g" from
# extract_features before the resample weights were vectorised.
@pytest.mark.parametrize("n", [200, 1000])
def test_extract_matches_golden_walk(n):
    data = json.loads((DATA / f"golden_walk{n}.json").read_text())
    fv = extract_features(random_walk_trace(n, f"walk{n}", seed=n))
    assert fv.id == data["id"] == f"walk{n}"
    golden = np.array([float(v) for v in data["values"]])
    assert golden.shape == fv.values.shape == (data["length"],)
    assert np.abs(fv.values - golden).max() <= 1e-9


def test_extract_refuses_a_trace_over_the_residue_cap_before_any_image():
    # 4096 keeps p, the resampled side, at most 4096
    assert MAX_RESIDUES == 4096
    assert issubclass(TooManyResiduesError, ValueError)
    trace = random_walk_trace(MAX_RESIDUES + 1, "long", seed=5)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with pytest.raises(TooManyResiduesError, match=f"{MAX_RESIDUES + 1} CA atoms"):
            extract_features(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n x n distance image alone would be 134 MB
    assert peak < 1 << 20


# --- FeatureConfig ---


def test_config_length_default_is_the_padded_descriptor():
    assert FeatureConfig().length == FEATURE_LENGTH == 1024
    assert FeatureConfig(image_size=64).length == FEATURE_LENGTH
    FeatureConfig().validate()


@pytest.mark.parametrize(
    "config",
    [
        FeatureConfig(),
        FeatureConfig(image_size=64),
        FeatureConfig(comograd_bins=8),
        FeatureConfig(phog_bins=8, phog_levels=2),  # raw block, no padding
        FeatureConfig(comograd_bins=4, phog_bins=3, phog_levels=0, image_size=32),
    ],
)
def test_config_length_matches_extracted_vectors(config):
    values = extract_features(random_walk_trace(40, "w40", seed=4), config).values
    assert values.shape == (config.length,)
    ph = values[config.comograd_bins**2 :]
    assert ph.sum() == pytest.approx(1.0, abs=1e-9)


def test_config_keyword_defaults_match_explicit_default():
    t = random_walk_trace(70, "w70", seed=5)
    assert np.array_equal(extract_features(t).values, extract_features(t, FeatureConfig()).values)


@pytest.mark.parametrize(
    "bad",
    [
        {"comograd_bins": 0},
        {"phog_bins": 0},
        {"phog_levels": -1},
        {"image_size": 100},
        {"image_size": 1},
        {"image_size": 8, "phog_levels": 4},
        # a level count read from a damaged file must fail fast, not
        # build a 2**(2**32) shift
        {"phog_levels": 2**32 - 1},
        {"image_size": 128.0},
        {"comograd_bins": True},
        # geometry that cannot fit in memory
        {"image_size": 2 * MAX_RESIDUES},
        {"image_size": 2**31},
        {"comograd_bins": 1024},  # 1024**2 + 768 values
        {"phog_bins": 100_000_000},
        {"image_size": 4096, "phog_levels": 10, "phog_bins": 1},  # 1,398,101 cells
    ],
)
def test_config_validate_rejects(bad):
    with pytest.raises(ValueError):
        FeatureConfig(**bad).validate()


@pytest.mark.parametrize(
    "config",
    [
        FeatureConfig(image_size=MAX_RESIDUES),
        FeatureConfig(comograd_bins=1023),  # 1,047,297 values
        FeatureConfig(image_size=4096, phog_levels=9, phog_bins=2),  # 699,306 values
    ],
)
def test_config_validate_upper_bounds_are_inclusive(config):
    config.validate()
