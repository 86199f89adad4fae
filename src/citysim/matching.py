"""Mate-pair weights, grid distances and rank pairing.

The weight of pairing male i with female j is the expected child's payoff
under the current society vector. Because the expectation is affine in the
parents, w_ij = u_i + v_j + c is separable; the plain (noise-free) problem
is therefore solvable by ranking, while the noisy and locality variants
need a real rectangular assignment solve, which the engine runs on these
weights.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import ConfigurationError

__all__ = [
    "MatchMode",
    "expected_pair_weights",
    "rank_pair_indices",
    "grid_distances",
]


class MatchMode(str, Enum):
    OPTIMAL = "optimal"
    NOISY = "noisy"
    PARTITIONED = "partitioned"
    LOCALITY = "locality"


def expected_pair_weights(
    y_traits: np.ndarray,
    z_traits: np.ndarray,
    gain: np.ndarray,
    mutation_prob: float,
) -> np.ndarray:
    """Noise-free weight matrix from raw trait rows.

    gain is the society-projected trait payoff (interaction entries @ theta).
    Exploits separability: w_ij = (1-p)/2 * (y_i + z_j) @ gain + p/2 * sum(gain).
    """
    alpha = (1.0 - mutation_prob) / 2.0
    const = mutation_prob / 2.0 * float(np.sum(gain))
    a = y_traits @ gain
    b = z_traits @ gain
    return alpha * (a[:, None] + b[None, :]) + const


def grid_distances(
    y_loc: np.ndarray, z_loc: np.ndarray, metric: str = "hamming"
) -> np.ndarray:
    """Pairwise block distances; hamming counts unequal coordinates (0, 1, or 2)."""
    y_loc = np.asarray(y_loc)
    z_loc = np.asarray(z_loc)
    if metric == "hamming":
        dx = y_loc[:, None, 0] != z_loc[None, :, 0]
        dy = y_loc[:, None, 1] != z_loc[None, :, 1]
        return (dx.astype(np.float64) + dy.astype(np.float64))
    if metric == "manhattan":
        dx = np.abs(y_loc[:, None, 0] - z_loc[None, :, 0])
        dy = np.abs(y_loc[:, None, 1] - z_loc[None, :, 1])
        return (dx + dy).astype(np.float64)
    raise ConfigurationError(f"unknown distance metric {metric!r}")


def rank_pair_indices(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of an optimal matching for separable weights.

    With w_ij = u_i + v_j + c every bijection between the chosen sides has
    the same total, so an optimum is reached by taking the top-k scorers of
    each side; rank order keeps the result deterministic under ties.
    """
    k = min(a.shape[0], b.shape[0])
    iy = np.argsort(-a, kind="stable")[:k]
    iz = np.argsort(-b, kind="stable")[:k]
    return iy, iz
