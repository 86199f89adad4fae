"""Canned scenarios: population archetypes dropped into mismatched or
friendly cities, plus the baseline and grid configurations the batch
experiments run on.

The archetype trait vectors below are artifact choices. They were tuned so
the qualitative regimes separate cleanly: an aligned population clears the
mating-success bar immediately and grows, while a misaligned one starves
under the bar until the society vector has drifted toward it, producing a
near-extinction dip followed by recovery. The city presets therefore share
one softened demographic regime (shorter unhappy lifespans, a gentler
success sigmoid, and a stronger crowding term); the engine defaults make
the bar effectively happiness-only, which never closes for a viable
population and cannot produce the dip.

Trait order for population vectors:
    intellect, strength, obedience, flexibility, health, sincerity,
    family_oriented, religious
Society vectors list literacy, living_standards, crime_rate, agrarian,
industrial, conservative, communist, then the six unnamed coordinates.
"""

from __future__ import annotations

from dataclasses import replace

from .core import ConfigurationError, TraitVector
from .demographics import DemographicsParams
from .engine import MatchingConfig, PopulationGroup, SimConfig
from .matching import MatchMode
from .scenario import Scenario
from .society import LearningRateSchedule

__all__ = ["PRESETS", "get_preset"]


INTELLECTUAL = TraitVector([0.95, 0.3, 0.35, 0.7, 0.65, 0.7, 0.4, 0.15])
CRIMINAL = TraitVector([0.35, 0.8, 0.1, 0.5, 0.55, 0.1, 0.25, 0.15])
FARMER = TraitVector([0.15, 0.8, 0.7, 0.3, 0.7, 0.65, 0.85, 0.7])
LOW_INTELLECT = TraitVector([0.15, 0.55, 0.6, 0.35, 0.55, 0.5, 0.6, 0.5])

CRIMINAL_CITY = TraitVector([0.2, 0.25, 0.9, 0.2, 0.15, 0.5, 0.1] + [0.3] * 6)
INTELLECTUAL_CITY = TraitVector([0.9, 0.75, 0.1, 0.2, 0.6, 0.35, 0.2] + [0.5] * 6)
AGRARIAN_CITY = TraitVector([0.3, 0.4, 0.3, 0.9, 0.15, 0.7, 0.35] + [0.5] * 6)

# Shared by every city preset. success_a = 0.01 makes the crowding term
# dominate at the initial population of 200 (bar ~ 2.0), so misaligned
# founders cannot breed until enough of them have died and the society has
# adapted; lifespan_b = 1.4 keeps those founders alive long enough (about
# 29 time units at happiness 0.55) for the adaptation to land.
_CITY_DEMOGRAPHICS = DemographicsParams(
    lifespan_b=1.4,
    success_scale=1.0,
    success_a=0.01,
    maturity_age=2.0,
)

_CITY_SCHEDULE = LearningRateSchedule(kind="dynamic", multiplier=10.0)


def _city(groups: list[tuple[int, TraitVector]], theta0: TraitVector) -> SimConfig:
    """A city preset: (count, archetype) founding groups under theta0."""
    return SimConfig(
        seed=0,
        groups=tuple(PopulationGroup(count, mean) for count, mean in groups),
        theta0=theta0,
        demographics=_CITY_DEMOGRAPHICS,
        schedule=_CITY_SCHEDULE,
    )


_BASELINE = SimConfig(
    seed=0,
    groups=tuple(PopulationGroup(100, TraitVector([level] * 8)) for level in (0.7, 0.4)),
    theta0=TraitVector([0.6] * 13),
)
_INTELLECT_IN_CRIMINAL_CITY = _city([(200, INTELLECTUAL)], CRIMINAL_CITY)

# Each preset's config, stating only what differs from the SimConfig
# defaults; get_preset wraps it in a Scenario.
_CONFIGS: dict[str, SimConfig] = {
    "baseline-mixed": _BASELINE,
    "high-intellect-pop-in-criminal-city": _INTELLECT_IN_CRIMINAL_CITY,
    "criminal-pop-in-criminal-city": _city([(200, CRIMINAL)], CRIMINAL_CITY),
    "high-intellect-pop-in-intellectual-city": _city([(200, INTELLECTUAL)], INTELLECTUAL_CITY),
    "low-intellect-pop-in-intellectual-city": _city([(200, LOW_INTELLECT)], INTELLECTUAL_CITY),
    "agrarian-80-20": _city([(160, FARMER), (40, INTELLECTUAL)], AGRARIAN_CITY),
    "intellect-75-25": _city([(150, INTELLECTUAL), (50, LOW_INTELLECT)], INTELLECTUAL_CITY),
    "criminal-75-25": _city([(150, CRIMINAL), (50, INTELLECTUAL)], CRIMINAL_CITY),
    # Block-scoped success is what keeps many communities alive: a globally
    # scoped bar turns the grid into one zero-sum market and a single block
    # absorbs everything within a few thousand time units. success_a = 1.2
    # caps each block near a dozen residents (initial two-person blocks face
    # a bar of ~2.4, below founder happiness), and period 5 keeps the
    # assignment solver affordable across the 2000 rounds.
    "locality-grid-10x10": replace(
        _BASELINE,
        demographics=DemographicsParams(success_a=1.2),
        matching=MatchingConfig(mode=MatchMode.LOCALITY, gamma=5.0, distance="manhattan"),
        mating_period=5.0,
        grid=(10, 10),
        success_pop_scope="block",
    ),
    # Mutation churn keeps the late-time mean-happiness slope above the
    # plateau detector's 1e-5 threshold no matter how long the run is, so
    # the sweep scenario turns mutation off: the population converges to a
    # near-clonal state and the plateau time is set by the learning rate
    # alone, which is the quantity the sweep varies.
    "lambda-sweep": replace(_BASELINE, demographics=DemographicsParams(mutation_prob=0.0)),
    # The misaligned city at a shorter horizon: the population minimum lands
    # near t=40 and happiness is still distinguishable between matching
    # modes at t=1000, while the noisy assignment stays affordable for the
    # twenty runs a ten-seed comparison needs.
    "matching-comparison": replace(_INTELLECT_IN_CRIMINAL_CITY, max_time=1000.0),
}

PRESETS: tuple[str, ...] = tuple(_CONFIGS)


def get_preset(name: str, seed: int | None = None) -> Scenario:
    """Build one preset Scenario, optionally overriding its seed."""
    try:
        config = _CONFIGS[name]
    except KeyError:
        known = ", ".join(PRESETS)
        raise ConfigurationError(f"unknown preset {name!r}; choices: {known}") from None
    if seed is not None:
        config = replace(config, seed=seed)
    return Scenario(name=name, config=config, preset=name)
