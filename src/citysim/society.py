"""Society vector updates: clipped gradient ascent on mean happiness.

The society ascends x_bar' I theta in theta, one small step per mating
round, with the step size either fixed or scaled by the population's mean
flexibility trait.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import ConfigurationError, InteractionMatrix, TraitVector, require_int
from .matching import score

__all__ = [
    "LearningRateSchedule",
    "society_path",
    "society_gradient",
    "trait_gain",
]


@dataclass(frozen=True)
class LearningRateSchedule:
    """How the ascent step size is chosen each round.

    fixed: lambda = base * multiplier.
    dynamic: lambda = base * multiplier * mean flexibility of the living
    population, read from individual trait flexibility_trait_index;
    SimConfig checks that index against the interaction matrix. An empty
    population takes no step at all.
    """

    kind: Literal["fixed", "dynamic"] = "fixed"
    base: float = 1e-4
    multiplier: float = 1.0
    flexibility_trait_index: int = 3

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "dynamic"):
            raise ConfigurationError(f"kind must be 'fixed' or 'dynamic', got {self.kind!r}")
        if not (self.base > 0 and math.isfinite(self.base)):
            raise ConfigurationError(f"base must be strictly positive, got {self.base}")
        if not (self.multiplier > 0 and math.isfinite(self.multiplier)):
            raise ConfigurationError(
                f"multiplier must be strictly positive, got {self.multiplier}"
            )
        flex = self.flexibility_trait_index
        if require_int(flex, "flexibility_trait_index") < 0:
            raise ConfigurationError(f"flexibility_trait_index must be nonnegative, got {flex}")

    def rate(self, x_bar) -> float:
        """Step size for a population whose mean trait vector is x_bar."""
        lam = self.base * self.multiplier
        if self.kind == "dynamic":
            lam *= float(x_bar[self.flexibility_trait_index])
        return lam


def _values(x, dim: int, *, what: str, block: bool = False) -> np.ndarray:
    """x as a (dim,) float array; with block=True a (dim, m) block of such
    vectors is accepted too."""
    arr = x.values if isinstance(x, TraitVector) else np.asarray(x, dtype=np.float64)
    if arr.ndim not in ((1, 2) if block else (1,)) or arr.shape[0] != dim:
        expected = f"({dim},) or ({dim}, m)" if block else f"({dim},)"
        raise ConfigurationError(f"{what} has shape {arr.shape}, expected {expected}")
    return arr


def trait_gain(theta, interaction: InteractionMatrix) -> np.ndarray:
    """I theta: each individual trait's payoff under society vector theta,
    summed over society traits by matching.score. A person's happiness is
    the score of their traits against it. A (society_dim, m) block of
    society vectors gives an (individual_dim, m) block, each column the
    same bits as that vector's own gain."""
    tv = _values(theta, interaction.society_dim, what="society vector", block=True)
    return score(tv[:, None], interaction.entries.T)


def society_gradient(x_bar, interaction: InteractionMatrix) -> np.ndarray:
    """d(x_bar' I theta)/d(theta) = x_bar' I, independent of theta, summed
    over individual traits by matching.score."""
    xv = _values(x_bar, interaction.individual_dim, what="mean trait vector")
    return score(interaction.entries, xv)


def society_path(
    theta, x_bar, interaction: InteractionMatrix, lam: float, rounds: int = 1
) -> np.ndarray:
    """The society vector after each of `rounds` ascent steps at a fixed
    x_bar and lam, one row per step: a (rounds, society_dim) array.

    Each step adds lam * x_bar' I and clips back into the unit box. After
    the first step theta lies in the box and every coordinate moves one
    way, so clipping the running sum once gives the same bits as clipping
    after every step: a coordinate that reaches the box edge stays there
    both ways.
    """
    if not (lam >= 0 and math.isfinite(lam)):
        raise ConfigurationError(f"learning rate must be finite and >= 0, got {lam}")
    if require_int(rounds, "rounds") < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    tv = _values(theta, interaction.society_dim, what="society vector")
    step = lam * society_gradient(x_bar, interaction)
    path = np.empty((rounds, tv.shape[0]))
    path[0] = np.clip(tv + step, 0.0, 1.0)
    path[1:] = step
    return np.clip(np.add.accumulate(path, axis=0), 0.0, 1.0)

