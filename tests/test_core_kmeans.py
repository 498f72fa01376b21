"""Tests for repro.core.kmeans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kmeans import (
    KMeansResult,
    _assign,
    _inertia,
    kmeans,
    kmeans_pp_seeds,
    lloyd,
)


def two_blobs(n=100, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal((0, 0), 5, size=(n, 2))
    b = rng.normal((100, 100), 5, size=(n, 2))
    return np.vstack([a, b])


class TestValidation:
    def test_k_too_large(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4)

    def test_k_zero(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 0)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 3)), 2)

    def test_n_init_positive(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 1, n_init=0)


class TestClustering:
    def test_separates_two_blobs(self):
        points = two_blobs()
        result = kmeans(points, 2, seed=1)
        assert result.k == 2
        # One centroid near each blob.
        dists_origin = np.linalg.norm(result.centroids - [0, 0], axis=1)
        dists_far = np.linalg.norm(result.centroids - [100, 100], axis=1)
        assert min(dists_origin) < 10
        assert min(dists_far) < 10

    def test_labels_partition_all_points(self):
        points = two_blobs()
        result = kmeans(points, 2)
        assert len(result.labels) == len(points)
        assert set(np.unique(result.labels)) <= {0, 1}

    def test_labels_are_nearest_centroid(self):
        points = two_blobs(seed=2)
        result = kmeans(points, 3, seed=2)
        d2 = np.sum(
            (points[:, None, :] - result.centroids[None, :, :]) ** 2, axis=2
        )
        assert np.array_equal(result.labels, np.argmin(d2, axis=1))

    def test_deterministic(self):
        points = two_blobs()
        a = kmeans(points, 2, seed=9)
        b = kmeans(points, 2, seed=9)
        assert np.array_equal(a.centroids, b.centroids)

    def test_k_equals_n(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        result = kmeans(points, 3)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_identical_points(self):
        points = np.ones((20, 2))
        result = kmeans(points, 3)
        assert result.k == 3
        assert result.inertia == pytest.approx(0.0)

    def test_n_init_improves_or_matches(self):
        points = two_blobs(seed=5)
        single = kmeans(points, 4, seed=5, n_init=1)
        multi = kmeans(points, 4, seed=5, n_init=5)
        assert multi.inertia <= single.inertia + 1e-9


class TestLloyd:
    def test_respects_starting_centroids(self):
        points = two_blobs()
        start = np.array([[0.0, 0.0], [100.0, 100.0]])
        result = lloyd(points, start)
        assert result.k == 2
        assert result.iterations >= 1

    def test_empty_cluster_reseeded(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0]])
        # Second centroid starts far away from every point -> empty.
        start = np.array([[0.5, 0.0], [1e6, 1e6]])
        result = lloyd(points, start)
        labels = set(result.labels.tolist())
        assert labels == {0, 1}  # both clusters end up non-empty

    def test_more_centroids_than_points(self):
        with pytest.raises(ValueError):
            lloyd(np.zeros((2, 2)), np.zeros((3, 2)))


def loop_lloyd(points, centroids, max_iter=50, tol=1e-6) -> KMeansResult:
    """Lloyd's iterations one centroid at a time — the form every
    centroid update of :func:`lloyd` must equal bit for bit."""
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64, copy=True)
    labels = _assign(points, centroids)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        moved = 0.0
        for j in range(len(centroids)):
            members = points[labels == j]
            if len(members):
                new_c = members.mean(axis=0)
            else:
                d2 = np.sum((points - centroids[labels]) ** 2, axis=1)
                new_c = points[int(np.argmax(d2))]
            moved = max(moved, float(np.sum((new_c - centroids[j]) ** 2)))
            centroids[j] = new_c
        labels = _assign(points, centroids)
        if moved <= tol * tol:
            break
    return KMeansResult(
        centroids, labels, _inertia(points, centroids, labels), iterations
    )


#: Coordinates that stress the sums: exact zeros of both signs, repeats,
#: and magnitudes far apart.
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
    st.floats(-1e-3, 1e-3, allow_nan=False, width=64),
)


class TestVectorisedUpdateMatchesTheLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=300),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        spread=st.booleans(),
    )
    def test_same_bits_as_one_centroid_at_a_time(self, points, k, seed, spread):
        # Empty clusters (a start far from every point, or more
        # centroids than distinct points) take the loop inside lloyd;
        # every other pass the bincount update.
        points = np.array(points, dtype=np.float64)
        k = min(k, len(points))
        rng = np.random.default_rng(seed)
        start = points[rng.choice(len(points), k, replace=False)].copy()
        if spread:
            start[-1] = (1e9, 1e9)
        got, want = lloyd(points, start), loop_lloyd(points, start)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.iterations == want.iterations
        assert np.float64(got.inertia).tobytes() == np.float64(want.inertia).tobytes()

    def test_a_cluster_of_negative_zeros(self):
        points = np.array([[-0.0, -0.0], [-0.0, -0.0], [5.0, 5.0]])
        start = np.array([[-0.0, -0.0], [5.0, 5.0]])
        got, want = lloyd(points, start), loop_lloyd(points, start)
        assert got.centroids.tobytes() == want.centroids.tobytes()


class TestSeeding:
    def test_seed_count(self):
        rng = np.random.default_rng(0)
        points = two_blobs()
        seeds = kmeans_pp_seeds(points, 5, rng)
        assert seeds.shape == (5, 2)

    def test_seeds_are_data_points(self):
        rng = np.random.default_rng(0)
        points = two_blobs()
        seeds = kmeans_pp_seeds(points, 3, rng)
        for s in seeds:
            assert np.min(np.sum((points - s) ** 2, axis=1)) == pytest.approx(0.0)

    def test_duplicate_points_handled(self):
        rng = np.random.default_rng(0)
        points = np.ones((5, 2))
        seeds = kmeans_pp_seeds(points, 3, rng)
        assert seeds.shape == (3, 2)
