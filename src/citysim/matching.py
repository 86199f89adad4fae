"""Trait scores, mate-pair weights, grid distances and rank pairing.

The weight of pairing male i with female j is the expected child's payoff
under the current society vector. Because the expectation is affine in the
parents, w_ij = u_i + v_j + c is separable; the plain (noise-free) problem
is therefore solvable by ranking, while the noisy and locality variants
need a real rectangular assignment solve, which the engine runs on these
weights. Every per-person score comes from score(), so a person's score,
and with it every ranking, is the same bits whatever the roster's size or
order and whatever BLAS library or thread count is loaded.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import ConfigurationError

__all__ = [
    "MatchMode",
    "score",
    "expected_pair_weights",
    "rank_pair_indices",
    "grid_distances",
]


class MatchMode(str, Enum):
    OPTIMAL = "optimal"
    NOISY = "noisy"
    PARTITIONED = "partitioned"
    LOCALITY = "locality"


# Up to this many cells per row, score adds its rows in one running-sum
# call; a running sum along the rows strides through memory, so longer rows
# are added one by one, which on a 2-vCPU Xeon was faster from about 128
# cells on.
_RUNNING_SUM_CELLS = 64


def score(cols: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_j cols[j] * g[j], added left to right as numpy elementwise
    products, with no BLAS call.

    cols has one row per trait: a (dim, n) block of trait columns gives one
    score per person, a (dim,) vector gives a scalar. Each person's score
    depends only on that person's column, so it is bitwise the same in any
    roster, subset or row order. g is usually a (dim,) vector; a g with
    more axes lines them up with the leading axes of cols and broadcasts,
    which lets society.trait_gain score a block of society vectors at once.
    The product is laid out C-ordered, so one with more than two axes is
    added as flattened rows, without a copy: the same elementwise adds,
    without the per-call cost of an N-D ufunc loop. Rows of at most
    _RUNNING_SUM_CELLS cells, the society-sized blocks of every round, are
    added in one np.add.accumulate call along the rows: a running sum is
    sequential by definition, so its last row holds the same adds in the
    same order. np.add.reduce(terms, axis=0) is no substitute: for one
    column it sums pairwise, which differed from this order in 80 of 200
    random uniform (8, 1) blocks.
    """
    cols, g = np.asarray(cols), np.asarray(g)
    terms = np.multiply(cols, g.reshape(g.shape + (1,) * (cols.ndim - g.ndim)), order="C")
    shape = terms.shape[1:]
    rows = terms.reshape(len(terms), -1) if len(shape) > 1 else terms
    if rows[0].size <= _RUNNING_SUM_CELLS:
        return np.add.accumulate(rows, axis=0)[-1].reshape(shape)
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total.reshape(shape)


def expected_pair_weights(
    a: np.ndarray,
    b: np.ndarray,
    gain: np.ndarray,
    mutation_prob: float,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Noise-free weight matrix from the two sides' scores.

    gain is the society-projected trait payoff (interaction entries @
    theta), and a and b are the males' and females' score(cols, gain).
    Separability gives w_ij = (1-p)/2 * (a_i + b_j) + p/2 * sum(gain). A
    side passed as trait rows, shape (k, dim), is scored first. The matrix
    is written into out, of shape (len(a), len(b)), when one is given.
    Addition commutes, so swapping a and b gives the transpose, to the bit.
    """
    a, b = (score(np.transpose(x), gain) if np.ndim(x) == 2 else x for x in (a, b))
    W = np.add.outer(a, b, out=out)
    W *= (1.0 - mutation_prob) / 2.0
    # np.sum's own reduction, without its dispatch cost on small blocks.
    W += mutation_prob / 2.0 * float(np.add.reduce(gain, axis=None))
    return W


def grid_distances(y_loc: np.ndarray, z_loc: np.ndarray, metric: str) -> np.ndarray:
    """Pairwise block distances under metric (MatchingConfig.distance):
    hamming counts unequal coordinates (0, 1, or 2), manhattan adds the
    coordinates' absolute differences."""
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
    each side and pairing them in rank order. Each side ranks by score
    descending, then by position ascending: a stable sort. The engine keeps
    roster rows in ascending id order, so its ties go to the lower id.
    """
    k = min(a.shape[0], b.shape[0])
    iy = np.argsort(-a, kind="stable")[:k]
    iz = np.argsort(-b, kind="stable")[:k]
    return iy, iz
