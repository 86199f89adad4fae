import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citysim.analysis import (
    ClusterSummary,
    PointSet,
    classical_mds,
    cluster_summary,
    kmeans,
)
from citysim.analysis import _lloyd
from citysim.core import ConfigurationError


def pairwise(rows):
    diff = rows[:, None, :] - rows[None, :, :]
    return np.sqrt((diff**2).sum(-1))


class TestPointSet:
    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ConfigurationError):
            PointSet(np.zeros((0, 3)))
        with pytest.raises(ConfigurationError):
            PointSet(np.zeros(5))
        with pytest.raises(ConfigurationError):
            PointSet(np.array([[1.0, np.nan]]))

    def test_rejects_zero_dimensions(self):
        # classical_mds would index an empty SVD; the error comes up front.
        with pytest.raises(ConfigurationError, match="nonempty N x D"):
            PointSet(np.zeros((4, 0)))

    def test_label_length_must_match(self):
        with pytest.raises(ConfigurationError):
            PointSet(np.zeros((4, 2)), labels=[0, 1])
        ps = PointSet(np.zeros((3, 2)), labels=[0, 1, 0])
        assert ps.labels.tolist() == [0, 1, 0]


class TestClassicalMDS:
    def test_planar_points_reproduce_distances(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(40, 2))
        rows -= rows.mean(axis=0)
        emb = classical_mds(PointSet(rows), out_dim=2)
        np.testing.assert_allclose(pairwise(emb.rows), pairwise(rows), atol=1e-9)

    def test_embedding_centered_at_origin(self):
        rng = np.random.default_rng(6)
        emb = classical_mds(PointSet(rng.uniform(size=(25, 8)) * 4 + 10))
        np.testing.assert_allclose(emb.rows.mean(axis=0), 0.0, atol=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(30, 5))
        base = classical_mds(PointSet(rows)).rows
        shifted = classical_mds(PointSet(rows + 137.25)).rows
        np.testing.assert_allclose(pairwise(base), pairwise(shifted), atol=1e-9)

    def test_identical_points_zero_embedding_with_warning(self):
        with pytest.warns(RuntimeWarning):
            emb = classical_mds(PointSet(np.full((6, 3), 0.7)))
        assert np.all(emb.rows == 0.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            classical_mds(PointSet(np.zeros((1, 4))), out_dim=2)

    def test_tetrahedron_matches_eigendecomposition_oracle(self):
        # Independent oracle: build the Gram matrix with explicit loops and
        # embed through numpy's general eigensolver instead of eigh.
        verts = np.array(
            [
                [1.0, 1.0, 1.0],
                [1.0, -1.0, -1.0],
                [-1.0, 1.0, -1.0],
                [-1.0, -2.0, 1.5],
            ]
        )
        n = 4
        D2 = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                D2[i, j] = ((verts[i] - verts[j]) ** 2).sum()
        row_mean = D2.mean(axis=1)
        grand = D2.mean()
        B = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                B[i, j] = -0.5 * (D2[i, j] - row_mean[i] - row_mean[j] + grand)
        w, v = np.linalg.eig(B)
        w, v = w.real, v.real
        top = np.argsort(w)[::-1][:2]
        oracle = v[:, top] * np.sqrt(np.maximum(w[top], 0.0))
        emb = classical_mds(PointSet(verts), out_dim=2).rows
        np.testing.assert_allclose(pairwise(emb), pairwise(oracle), atol=1e-9)

    @pytest.mark.parametrize("out_dim", [1, 2, 3, 5])
    def test_matches_dense_double_centring(self, out_dim):
        # The dense Torgerson form: double-centre the squared distances with
        # J = I - 11'/n and keep the leading eigenpairs of B = -JD2J/2. Past
        # the data's 3 dimensions the embedding pads with zero columns.
        rows = np.random.default_rng(9).normal(size=(15, 3)) * [3.0, 1.0, 0.2] + 4.0
        n = rows.shape[0]
        J = np.eye(n) - np.full((n, n), 1.0 / n)
        B = -0.5 * (J @ pairwise(rows) ** 2 @ J)
        w, v = np.linalg.eigh(B)
        top = np.argsort(w)[::-1][:out_dim]
        dense = v[:, top] * np.sqrt(np.maximum(w[top], 0.0))
        emb = classical_mds(PointSet(rows), out_dim=out_dim).rows
        assert emb.shape == (n, out_dim)
        np.testing.assert_allclose(pairwise(emb), pairwise(dense), atol=1e-6)
        assert np.all(emb[:, 3:] == 0.0)

    def test_labels_carried_through(self):
        rows = np.random.default_rng(8).normal(size=(10, 3))
        emb = classical_mds(PointSet(rows, labels=np.arange(10) % 2))
        assert emb.labels.tolist() == (np.arange(10) % 2).tolist()

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 12))
    def test_full_rank_embedding_preserves_geometry(self, seed, n):
        # out_dim = original dimension: classical MDS on exact Euclidean
        # data is lossless once the target rank covers the data rank.
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, 3), scale=2.0)
        emb = classical_mds(PointSet(rows), out_dim=3).rows
        np.testing.assert_allclose(pairwise(emb), pairwise(rows), atol=1e-8)


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(11)
        rows = rng.uniform(size=(30, 4))
        res = kmeans(PointSet(rows), 1, rng)
        assert set(res.labels.tolist()) == {0}
        np.testing.assert_allclose(res.centroids[0], rows.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            res.inertia, ((rows - rows.mean(0)) ** 2).sum(), rtol=1e-12
        )

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(7, 3))
        res = kmeans(PointSet(rows), 7, rng)
        assert res.inertia == 0.0
        assert sorted(res.labels.tolist()) == list(range(7))
        recon = res.centroids[res.labels]
        np.testing.assert_array_equal(recon, rows)

    def test_two_blobs_recovered_over_100_draws(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sigma = 0.5
            a = rng.normal(loc=(0.0, 0.0), scale=sigma, size=(20, 2))
            b = rng.normal(loc=(10 * sigma, 0.0), scale=sigma, size=(20, 2))
            rows = np.vstack([a, b])
            truth = np.array([0] * 20 + [1] * 20)
            res = kmeans(PointSet(rows), 2, rng)
            # labels are arbitrary: compare as a partition
            same_as_truth = (res.labels == truth).all() or (res.labels == 1 - truth).all()
            assert same_as_truth, f"seed {seed} split the blobs"

    def test_fixed_seed_deterministic(self):
        rows = np.random.default_rng(13).normal(size=(50, 3))
        r1 = kmeans(PointSet(rows), 3, np.random.default_rng(99))
        r2 = kmeans(PointSet(rows), 3, np.random.default_rng(99))
        np.testing.assert_array_equal(r1.labels, r2.labels)
        np.testing.assert_array_equal(r1.centroids, r2.centroids)
        assert r1.inertia == r2.inertia

    def test_preconditions(self):
        ps = PointSet(np.zeros((3, 2)))
        with pytest.raises(ConfigurationError):
            kmeans(ps, 0, np.random.default_rng(1))
        with pytest.raises(ConfigurationError):
            kmeans(ps, 4, np.random.default_rng(1))

    def test_empty_cluster_reseeds_at_farthest_point(self):
        # Start one centroid far outside the data so its cell is empty on
        # the first assignment; Lloyd must pull it back onto a data point.
        X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]])
        seeds = np.array([[0.0, 0.0], [5.0, 0.0], [1000.0, 0.0]])
        labels, centroids, inertia = _lloyd(X, seeds, max_iter=50)
        assert np.isfinite(centroids).all()
        assert centroids[:, 0].max() <= 5.1
        assert len(set(labels.tolist())) == 3
        assert inertia < 0.02

    def test_restarts_never_worse_than_single(self):
        rows = np.random.default_rng(14).normal(size=(60, 2))
        many = kmeans(PointSet(rows), 4, np.random.default_rng(0), restarts=10)
        one = kmeans(PointSet(rows), 4, np.random.default_rng(0), restarts=1)
        assert many.inertia <= one.inertia + 1e-12


class TestClusterSummary:
    def test_single_cluster_equals_mean_traits(self):
        rows = np.array([[0.1 * i] * 8 for i in range(5)])
        out = cluster_summary(rows, [0] * 5)
        assert len(out) == 1
        np.testing.assert_allclose(out[0].mean.values, rows.mean(axis=0), atol=1e-12)
        assert out[0].size == 5

    def test_hand_built_two_clusters(self):
        rows = np.array([[0.2] * 8, [0.4] * 8, [0.9] * 8, [0.7] * 8])
        out = cluster_summary(rows, [0, 0, 1, 1])
        assert {c.size for c in out} == {2}
        by_label = {c.label: c for c in out}
        np.testing.assert_allclose(by_label[0].mean.values, [0.3] * 8, atol=1e-12)
        np.testing.assert_allclose(by_label[1].mean.values, [0.8] * 8, atol=1e-12)
        # equal sizes: lexicographically smaller centroid first
        assert out[0].label == 0

    def test_order_by_size_then_centroid(self):
        rows = np.array(
            [[0.9] * 8, [0.1] * 8, [0.1] * 8, [0.5] * 8, [0.5] * 8]
        )
        out = cluster_summary(rows, [2, 0, 0, 1, 1])
        assert [c.size for c in out] == [2, 2, 1]
        assert out[0].mean.values[0] == pytest.approx(0.1)
        assert out[1].mean.values[0] == pytest.approx(0.5)
        assert out[2].label == 2

    def test_sizes_partition_population(self):
        rng = np.random.default_rng(21)
        rows = rng.uniform(size=(40, 8))
        labels = rng.integers(0, 4, size=40)
        out = cluster_summary(rows, labels)
        assert sum(c.size for c in out) == 40

    def test_label_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            cluster_summary(np.zeros((3, 8)), [0, 1])
