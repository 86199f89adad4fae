"""Population analysis: classical MDS to two dimensions, K-means, and
per-cluster trait summaries for comparing founding and final rosters."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .core import ConfigurationError, TraitVector

__all__ = [
    "PointSet",
    "KMeansResult",
    "ClusterSummary",
    "classical_mds",
    "kmeans",
    "cluster_summary",
]


@dataclass(frozen=True)
class PointSet:
    """N points in D dimensions, optionally carrying cluster labels."""

    rows: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or min(rows.shape) < 1:
            raise ConfigurationError(
                f"rows must be a nonempty N x D matrix, got shape {rows.shape}"
            )
        if not np.all(np.isfinite(rows)):
            raise ConfigurationError("rows contain non-finite values")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (rows.shape[0],):
                raise ConfigurationError(
                    f"labels shape {labels.shape} does not match {rows.shape[0]} rows"
                )
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def classical_mds(points: PointSet, out_dim: int = 2) -> PointSet:
    """Torgerson embedding of the pairwise Euclidean geometry.

    Double-centring the squared distances of Euclidean rows gives the Gram
    matrix of the centred rows, so its leading eigenpairs are their
    principal components: the embedding is the centred rows' leading
    principal-component scores, taken from a thin SVD of the n x D matrix
    in O(n D^2) time and O(n D) memory. Components past the rank D are
    zero columns. The embedding is centered at the origin and unique up to
    rotation and reflection.
    """
    if out_dim < 1:
        raise ConfigurationError(f"out_dim must be >= 1, got {out_dim}")
    if points.n < out_dim:
        raise ConfigurationError(
            f"need at least {out_dim} points to embed into {out_dim} dimensions, "
            f"got {points.n}"
        )
    centred = points.rows - points.rows.mean(axis=0)
    u, s, _ = np.linalg.svd(centred, full_matrices=False)
    k = min(out_dim, s.size)
    embedding = np.zeros((points.n, out_dim))
    # The Gram matrix's eigenvalues are the squared singular values.
    if s[0] ** 2 <= 1e-12:
        warnings.warn(
            "all points coincide; MDS embedding is identically zero",
            RuntimeWarning,
            stacklevel=2,
        )
    else:
        embedding[:, :k] = u[:, :k] * s[:k]
    return PointSet(rows=embedding, labels=points.labels)


class KMeansResult(NamedTuple):
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float


def _seed_centroids(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        d2 = cdist(X, X[chosen], metric="sqeuclidean").min(axis=1)
        total = d2.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
    return X[chosen].copy()


def _reseed_empty(X: np.ndarray, centroids: np.ndarray, empty: np.ndarray) -> None:
    for j in empty:
        d2 = cdist(X, centroids, metric="sqeuclidean").min(axis=1)
        centroids[j] = X[int(d2.argmax())]


def _lloyd(
    X: np.ndarray, centroids: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, float]:
    n, k = X.shape[0], centroids.shape[0]
    centroids = centroids.copy()
    labels = None
    prev_inertia = np.inf
    inertia = np.inf
    for _ in range(max_iter):
        D2 = cdist(X, centroids, metric="sqeuclidean")
        new_labels = D2.argmin(axis=1)
        inertia = float(D2[np.arange(n), new_labels].sum())
        assert inertia <= prev_inertia * (1 + 1e-12) + 1e-12, "inertia increased"
        prev_inertia = inertia
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, X)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            _reseed_empty(X, centroids, empty)
    return labels, centroids, inertia


def kmeans(
    points: PointSet,
    k: int,
    rng: np.random.Generator,
    max_iter: int = 100,
    restarts: int = 10,
) -> KMeansResult:
    """Lloyd's algorithm with distance-weighted greedy seeding.

    Runs `restarts` independent seedings off the supplied generator and
    keeps the lowest-inertia result; ties keep the earliest restart, so a
    fixed seed fixes the output. A cluster emptied during iteration is
    reseeded at the point farthest from every current centroid.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if points.n < k:
        raise ConfigurationError(f"need at least k={k} points, got {points.n}")
    if max_iter < 1 or restarts < 1:
        raise ConfigurationError("max_iter and restarts must be >= 1")
    X = points.rows
    best: KMeansResult | None = None
    for _ in range(restarts):
        seeds = _seed_centroids(X, k, rng)
        labels, centroids, inertia = _lloyd(X, seeds, max_iter)
        if best is None or inertia < best.inertia:
            best = KMeansResult(labels, centroids, inertia)
    return best


@dataclass(frozen=True)
class ClusterSummary:
    """One cluster's card: original label, member count, coordinate means."""

    label: int
    size: int
    mean: TraitVector


def cluster_summary(population: np.ndarray, labels: Sequence[int]) -> list[ClusterSummary]:
    """Per-cluster trait means and sizes of an (n, dim) trait matrix, ordered
    by size descending and then by centroid lexicographically (stable under
    relabeling)."""
    rows = np.asarray(population, dtype=np.float64)
    if rows.ndim != 2:
        raise ConfigurationError(f"population must be 2-D, got shape {rows.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (rows.shape[0],):
        raise ConfigurationError(
            f"{labels.shape[0] if labels.ndim else 0} labels for {rows.shape[0]} members"
        )
    if rows.shape[0] == 0:
        raise ConfigurationError("population is empty")
    summaries = []
    for label in np.unique(labels):
        members = rows[labels == label]
        summaries.append(
            ClusterSummary(
                label=int(label),
                size=members.shape[0],
                mean=TraitVector(members.mean(axis=0)),
            )
        )
    summaries.sort(key=lambda c: (-c.size, tuple(c.mean.values)))
    return summaries
