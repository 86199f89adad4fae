"""Nash equilibria of the two-player game behind the simulator.

Both players share the interaction matrix as payoff, which makes the game
common-interest and almost certainly degenerate; the enumeration therefore
carries a degeneracy report explaining what was skipped, and an audit
helper comparing computed counts against externally reported ones without
forcing agreement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, InteractionMatrix, _store, require_array

__all__ = [
    "BimatrixGame",
    "Equilibrium",
    "DegeneracyReport",
    "pure_nash",
    "support_enumeration_report",
    "verify_equilibrium",
]

# Determinant magnitude below which a support system is treated as singular
# and skipped (counted in the degeneracy report).
_SINGULAR_DET = 1e-12


@dataclass(frozen=True)
class BimatrixGame:
    """Payoff matrices for the row player (A) and column player (B)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        a = require_array(self.A, "payoff matrix", 2)
        b = require_array(self.B, "payoff matrix", 2)
        if a.shape != b.shape:
            raise ConfigurationError(f"payoff shapes differ: {a.shape} vs {b.shape}")
        _store(self, A=a, B=b)

    @classmethod
    def common_interest(cls, interaction: InteractionMatrix) -> "BimatrixGame":
        """Both players paid by the interaction matrix itself."""
        return cls(interaction.entries, interaction.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape


@dataclass(frozen=True)
class Equilibrium:
    """One strategy profile and its supports (row, column)."""

    sigma_p: np.ndarray
    sigma_s: np.ndarray
    supports: tuple[tuple[int, ...], tuple[int, ...]]

    def __post_init__(self) -> None:
        _store(
            self,
            sigma_p=require_array(self.sigma_p, "sigma_p", 1),
            sigma_s=require_array(self.sigma_s, "sigma_s", 1),
        )


@dataclass
class DegeneracyReport:
    """What the enumeration skipped or flagged, by cause."""

    examined_supports: int = 0
    singular_systems: int = 0
    zero_probability_solutions: int = 0


def pure_nash(game: BimatrixGame) -> list[tuple[int, int]]:
    """Cells that are simultaneously a column-max of A and a row-max of B.

    Returned in row-major order.
    """
    a_best = game.A >= game.A.max(axis=0, keepdims=True)
    b_best = game.B >= game.B.max(axis=1, keepdims=True)
    return [tuple(ij) for ij in np.argwhere(a_best & b_best)]


def verify_equilibrium(game: BimatrixGame, eq: Equilibrium, tol: float = 1e-9) -> bool:
    """True iff no unilateral deviation improves either payoff by more than tol.

    Checking pure deviations suffices: mixed payoffs are convex combinations
    of pure ones.
    """
    sp, ss = eq.sigma_p, eq.sigma_s
    payoff_p = float(sp @ game.A @ ss)
    payoff_s = float(sp @ game.B @ ss)
    best_row = float(np.max(game.A @ ss))
    best_col = float(np.max(sp @ game.B))
    return best_row <= payoff_p + tol and best_col <= payoff_s + tol


def _clean_probability(raw: np.ndarray) -> np.ndarray:
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum()
    return clipped / total


def _enumerate_size(
    game: BimatrixGame, k: int, tol: float, report: DegeneracyReport
) -> list[Equilibrium]:
    m, n = game.shape
    rows = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
    cols = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    n_pairs = len(rows) * len(cols)
    report.examined_supports += n_pairs

    R = np.repeat(np.arange(len(rows)), len(cols))
    C = np.tile(np.arange(len(cols)), len(rows))
    sup_r = rows[R]
    sup_c = cols[C]

    sub_a = game.A[sup_r[:, :, None], sup_c[:, None, :]]
    sub_b = game.B[sup_r[:, :, None], sup_c[:, None, :]]

    def augmented(payoff_blocks: np.ndarray) -> np.ndarray:
        sys = np.zeros((n_pairs, k + 1, k + 1))
        sys[:, :k, :k] = payoff_blocks
        sys[:, :k, k] = -1.0
        sys[:, k, :k] = 1.0
        return sys

    # Column strategy makes the row player's supported rows indifferent;
    # row strategy does the same for the column player's supported columns.
    sys_s = augmented(sub_a)
    sys_p = augmented(np.swapaxes(sub_b, 1, 2))

    det_s = np.abs(np.linalg.det(sys_s))
    det_p = np.abs(np.linalg.det(sys_p))
    solvable = (det_s > _SINGULAR_DET) & (det_p > _SINGULAR_DET)
    report.singular_systems += int(n_pairs - solvable.sum())
    if not solvable.any():
        return []

    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol_s = np.linalg.solve(sys_s[solvable], rhs)
    sol_p = np.linalg.solve(sys_p[solvable], rhs)
    sup_r = sup_r[solvable]
    sup_c = sup_c[solvable]

    sigma_s_sup = sol_s[:, :k]
    v_p = sol_s[:, k]
    sigma_p_sup = sol_p[:, :k]
    v_s = sol_p[:, k]

    nonneg = (sigma_s_sup.min(axis=1) >= -tol) & (sigma_p_sup.min(axis=1) >= -tol)
    if not nonneg.any():
        return []
    sigma_s_sup, sigma_p_sup = sigma_s_sup[nonneg], sigma_p_sup[nonneg]
    v_p, v_s = v_p[nonneg], v_s[nonneg]
    sup_r, sup_c = sup_r[nonneg], sup_c[nonneg]

    count = sup_r.shape[0]
    full_p = np.zeros((count, m))
    full_s = np.zeros((count, n))
    np.put_along_axis(full_p, sup_r, sigma_p_sup, axis=1)
    np.put_along_axis(full_s, sup_c, sigma_s_sup, axis=1)

    best_row = (full_s @ game.A.T).max(axis=1)
    best_col = (full_p @ game.B).max(axis=1)
    is_eq = (best_row <= v_p + tol) & (best_col <= v_s + tol)

    found: list[Equilibrium] = []
    for idx in np.flatnonzero(is_eq):
        if (sigma_p_sup[idx] <= tol).any() or (sigma_s_sup[idx] <= tol).any():
            report.zero_probability_solutions += 1
        found.append(
            Equilibrium(
                sigma_p=_clean_probability(full_p[idx]),
                sigma_s=_clean_probability(full_s[idx]),
                supports=(tuple(int(i) for i in sup_r[idx]), tuple(int(j) for j in sup_c[idx])),
            )
        )
    return found


def support_enumeration_report(
    game: BimatrixGame, max_support: int = 8, tol: float = 1e-9
) -> tuple[list[Equilibrium], DegeneracyReport]:
    """Equilibria over all equal-size support pairs, plus what was skipped.

    Candidates come from solving each support pair's indifference system;
    survivors pass nonnegativity and best-response checks at tol and are
    deduplicated by L-infinity distance below 1e-6 on the concatenated
    strategy vectors. Output is sorted by support size, then support sets.
    """
    m, n = game.shape
    if max_support < 1 or max_support > min(m, n):
        raise ConfigurationError(
            f"max_support must lie in [1, {min(m, n)}], got {max_support}"
        )
    if not tol > 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    report = DegeneracyReport()
    accepted: list[Equilibrium] = []
    stacked: list[np.ndarray] = []
    for k in range(1, max_support + 1):
        for eq in _enumerate_size(game, k, tol, report):
            key = np.concatenate([eq.sigma_p, eq.sigma_s])
            if any(np.max(np.abs(key - seen)) < 1e-6 for seen in stacked):
                continue
            stacked.append(key)
            accepted.append(eq)
    accepted.sort(key=lambda e: (len(e.supports[0]), e.supports[0], e.supports[1]))
    return accepted, report
