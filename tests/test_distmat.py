import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from comogphog.distmat import distance_matrix, to_gray
from comogphog.structure_io import CaTrace
from comogphog.synthetic import random_rotation, random_walk_trace, transform


def test_345_triangle():
    trace = CaTrace(id="t", coords=[[0, 0, 0], [3, 4, 0]])
    assert np.array_equal(distance_matrix(trace), [[0.0, 5.0], [5.0, 0.0]])


def test_symmetry_and_zero_diagonal():
    trace = random_walk_trace(25, seed=7)
    d = distance_matrix(trace)
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(25))
    assert (d >= 0).all() and np.isfinite(d).all()


def test_matches_double_loop_oracle():
    rng = np.random.default_rng(11)
    coords = rng.uniform(-30, 30, size=(4, 3))
    d = distance_matrix(CaTrace(id="t", coords=coords))
    for i in range(4):
        for j in range(4):
            expected = math.sqrt(
                (coords[i, 0] - coords[j, 0]) ** 2
                + (coords[i, 1] - coords[j, 1]) ** 2
                + (coords[i, 2] - coords[j, 2]) ** 2
            )
            assert d[i, j] == pytest.approx(expected, abs=1e-12)


def distance_matrix_3d(coords):
    """Distances through one (n, n, 3) difference array."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 57, 300])
def test_matches_difference_array_bytes(n):
    coords = np.random.default_rng(n).uniform(-80, 80, size=(n, 3))
    # distance_matrix reads only .coords; a plain namespace admits n = 1,
    # which CaTrace itself rejects
    got = distance_matrix(SimpleNamespace(coords=coords))
    assert got.tobytes() == distance_matrix_3d(coords).tobytes()


def test_peak_memory_n1000():
    n = 1000
    trace = random_walk_trace(n, seed=1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        d = distance_matrix(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.shape == (n, n)
    assert peak <= 3.5 * n * n * 8


@given(st.integers(0, 2**32 - 1))
def test_rigid_motion_invariance(seed):
    rng = np.random.default_rng(seed)
    trace = random_walk_trace(int(rng.integers(2, 60)), seed=seed)
    moved = transform(trace, random_rotation(rng), rng.uniform(-100, 100, 3))
    assert np.abs(distance_matrix(trace) - distance_matrix(moved)).max() <= 1e-9


def test_to_gray_examples():
    assert np.array_equal(to_gray(np.array([[0.0, 5.0], [5.0, 0.0]])), [[0.0, 1.0], [1.0, 0.0]])
    d = np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 2.0], [4.0, 2.0, 0.0]])
    assert np.array_equal(to_gray(d), [[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])


def test_to_gray_all_zero():
    assert np.array_equal(to_gray(np.zeros((3, 3))), np.zeros((3, 3)))


def test_to_gray_range_and_peak():
    d = distance_matrix(random_walk_trace(40, seed=3))
    g = to_gray(d)
    assert g.min() >= 0.0
    assert g.max() == 1.0


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_to_gray_scale_cancels(k):
    d = distance_matrix(random_walk_trace(12, seed=5))
    assert np.allclose(to_gray(k * d), to_gray(d), rtol=1e-12, atol=1e-15)

