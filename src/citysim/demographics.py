"""Closed-form life events and reproduction rules.

Lifespan, mating gap, and the mating success threshold are deterministic
functions of happiness (and population pressure); each takes happiness as a
scalar or an array. Reproduction and the probabilistic success rule are the
stochastic pieces and take an explicit random generator. Every formula
takes its constants as a DemographicsParams, whose fields hold the one
statement of their defaults; no function falls back to defaults of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import ConfigurationError, _store, require_choice, require_real

__all__ = [
    "DemographicsParams",
    "lifespan",
    "mating_gap",
    "crowding_term",
    "reaches_crowding_bar",
    "mating_opening_time",
    "mating_success_threshold",
    "mating_succeeds",
    "born_batch",
]


@dataclass(frozen=True)
class DemographicsParams:
    """Constants for the life-event formulas.

    lifespan_a, lifespan_b:
        L(h) = max(0, lifespan_a * (1 - lifespan_b * exp(-h))). With the
        defaults, lifespan is zero up to h = ln(10) and saturates at 150.
    gap_a, gap_epsilon:
        g(h) = gap_a / (max(h, 0) + gap_epsilon). The epsilon caps the gap
        at 80 time units for h <= 0, which exceeds any realistic lifespan,
        so unhappy agents effectively never mate again.
    success_a, success_scale:
        m = success_a * pop_size + max(1 - sigma(success_scale * h_male),
        1 - sigma(success_scale * h_female)); sigma is the logistic.
    mutation_prob:
        Per-coordinate probability that a child's gene is redrawn uniformly
        instead of copied from a parent.
    maturity_age:
        Delay before a newborn first becomes available, measured in mating
        periods.
    success_rule:
        "deterministic" gates a mating on min(h_male, h_female) >= m.
        "probabilistic" instead succeeds with probability 1 - clip(m, 0, 1).
    """

    lifespan_a: float = 150.0
    lifespan_b: float = 10.0
    gap_a: float = 0.8
    gap_epsilon: float = 0.01
    success_a: float = 0.002
    success_scale: float = 20.0
    mutation_prob: float = 0.1
    maturity_age: float = 1.0
    success_rule: Literal["deterministic", "probabilistic"] = "deterministic"

    def __post_init__(self) -> None:
        positive = ("lifespan_a", "lifespan_b", "gap_a", "gap_epsilon", "success_a",
                    "success_scale", "maturity_age")
        _store(
            self,
            **{name: require_real(getattr(self, name), name, 0.0, above=True) for name in positive},
            mutation_prob=require_real(self.mutation_prob, "mutation_prob", 0.0),
            success_rule=require_choice(
                self.success_rule, ("deterministic", "probabilistic"), "success_rule"
            ),
        )
        if self.mutation_prob > 1.0:
            raise ConfigurationError(
                f"mutation_prob must lie in [0, 1], got {self.mutation_prob}"
            )


def _logistic(t: float | np.ndarray) -> float | np.ndarray:
    # exp(-|t|) never overflows; both branches agree at t = 0.
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    return np.where(t >= 0, 1.0 / d, e / d)


def lifespan(h: float | np.ndarray, params: DemographicsParams) -> float | np.ndarray:
    """Time a person born with happiness h lives under params; 0 means dead
    at birth."""
    return np.maximum(0.0, params.lifespan_a * (1.0 - params.lifespan_b * np.exp(-h)))


def mating_gap(h: float | np.ndarray, params: DemographicsParams) -> float | np.ndarray:
    """Recovery time under params before a person with happiness h can mate
    again."""
    return params.gap_a / (np.maximum(h, 0.0) + params.gap_epsilon)


def crowding_term(pop_size: float | np.ndarray, params: DemographicsParams) -> float | np.ndarray:
    """The population-pressure part of the success threshold, success_a * N."""
    return params.success_a * pop_size


def reaches_crowding_bar(
    pop_size: float, happiness: np.ndarray, params: DemographicsParams
) -> np.ndarray:
    """Whether each happiness reaches the crowding term at this population
    size: only people who do can be in a pair that passes the deterministic
    success gate.

    The threshold is the crowding term plus a veto term that is never
    negative, and rounding is monotone, so a pair passes only if both
    partners reach the crowding term.
    """
    return happiness >= crowding_term(pop_size, params)


def mating_opening_time(reach: np.ndarray, avail: np.ndarray, male: np.ndarray) -> float:
    """The earliest time at which some pair of these people can pass the
    deterministic success gate; inf if never.

    reach (reaches_crowding_bar at the population size), avail (next
    available time) and male (true for a man, false for a woman) hold one
    entry per person. The gate opens at the later, over the two sexes, of
    the earliest avail among those who reach the bar. While happiness,
    population size and avail stay as they are, every round before that
    time bears no child.
    """
    # The men who reach the bar, and the rest of those who do: the women.
    reach_male = reach & male
    return float(
        max(
            avail[reach_male].min(initial=math.inf),
            avail[reach ^ reach_male].min(initial=math.inf),
        )
    )


def mating_success_threshold(
    pop_size: float | np.ndarray,
    h_male: float | np.ndarray,
    h_female: float | np.ndarray,
    params: DemographicsParams,
) -> float | np.ndarray:
    """Minimum happiness both partners need for a mating to succeed.

    Grows linearly with population size (crowding) and steeply as either
    partner's happiness drops below zero. h_male and h_female have one
    shape: two scalars, or one entry per pair on each side.

    Both partners' veto terms, 1 - sigma(success_scale * h), come from one
    _logistic call on their happiness stacked as two rows, which are then
    split: the function is elementwise, so the bits are those of one call
    per partner, for half the numpy calls.
    """
    if (np.asarray(pop_size) < 0).any():
        raise ConfigurationError(f"pop_size must be nonnegative, got {pop_size}")
    veto = 1.0 - _logistic(params.success_scale * np.array((h_male, h_female)))
    return crowding_term(pop_size, params) + np.maximum(veto[0], veto[1])


def mating_succeeds(
    pop_size: float | np.ndarray,
    h_male: float | np.ndarray,
    h_female: float | np.ndarray,
    params: DemographicsParams,
    rng: np.random.Generator,
) -> bool | np.ndarray:
    """Whether matched pairs actually produce a child this round.

    The deterministic rule draws nothing from rng; the probabilistic rule
    draws one uniform per pair, in pair order.
    """
    m = mating_success_threshold(pop_size, h_male, h_female, params)
    if params.success_rule == "deterministic":
        return np.minimum(h_male, h_female) >= m
    return rng.random(np.shape(m)) < 1.0 - np.clip(m, 0.0, 1.0)


def born_batch(
    fathers: np.ndarray,
    mothers: np.ndarray,
    rng: np.random.Generator,
    params: DemographicsParams,
) -> np.ndarray:
    """Reproduction: one child row per parent-pair row. Each gene is copied
    from a uniformly chosen parent, or redrawn uniformly on [0, 1] with
    probability params.mutation_prob.

    Draws come in a fixed order (mutation mask, parent choice, fresh genes),
    each covering the whole batch.
    """
    fathers = np.atleast_2d(np.asarray(fathers, dtype=np.float64))
    mothers = np.atleast_2d(np.asarray(mothers, dtype=np.float64))
    if fathers.shape != mothers.shape:
        raise ConfigurationError(
            f"parent batches differ in shape: {fathers.shape} vs {mothers.shape}"
        )
    mutate = rng.random(fathers.shape) < params.mutation_prob
    take_father = rng.random(fathers.shape) < 0.5
    fresh = rng.random(fathers.shape)
    child = np.where(take_father, fathers, mothers)
    return np.where(mutate, fresh, child)
