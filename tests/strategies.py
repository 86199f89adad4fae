"""Hypothesis strategies shared by more than one test module."""

from hypothesis import strategies as st

from citysim.core import TraitVector
from citysim.demographics import DemographicsParams
from citysim.engine import MatchingConfig, PopulationGroup, SimConfig
from citysim.matching import MatchMode
from citysim.society import LearningRateSchedule


@st.composite
def small_configs(draw):
    """Small configs over every mode, grid, scope, rule and schedule. Short
    lives (lifespan_a <= 12), a crowding term of at least 0.1 per head and
    horizons of at most 25 keep the roster small: a noisy solve on an
    unbounded roster can run for minutes. A zero spread, shared by the
    groups, and zero mutation give clones, whose scores tie."""
    mode = draw(st.sampled_from(list(MatchMode)))
    sides = st.tuples(st.integers(1, 3), st.integers(1, 3))
    grid = draw(sides if mode is MatchMode.LOCALITY else st.none() | sides)
    scope = "global" if grid is None else draw(st.sampled_from(["global", "block"]))
    levels = st.floats(0.3, 0.9)
    spread = draw(st.sampled_from([0.0, 0.1, 0.3]))
    group = st.builds(
        PopulationGroup,
        st.integers(3, 12),
        st.builds(TraitVector, st.lists(levels, min_size=8, max_size=8)),
        st.just(spread),
    )
    demographics = DemographicsParams(
        lifespan_a=draw(st.floats(3.0, 12.0)),
        lifespan_b=draw(st.floats(0.1, 2.0)),
        success_a=draw(st.floats(0.1, 0.5)),
        success_scale=draw(st.floats(0.5, 20.0)),
        mutation_prob=draw(st.sampled_from([0.0, 0.1, 0.5])),
        maturity_age=draw(st.floats(0.5, 2.0)),
        success_rule=draw(st.sampled_from(["deterministic", "probabilistic"])),
    )
    schedule = LearningRateSchedule(
        kind=draw(st.sampled_from(["fixed", "dynamic"])),
        base=draw(st.sampled_from([1e-4, 1e-3, 1e-2])),
        multiplier=draw(st.sampled_from([1.0, 10.0, 50.0])),
    )
    matching = MatchingConfig(
        mode=mode,
        gamma=draw(st.floats(0.0, 2.0)),
        partition_size=draw(st.integers(1, 5)),
        noise_sigma=draw(st.floats(0.0, 1.0)),
        distance=draw(st.sampled_from(["hamming", "manhattan"])),
    )
    return SimConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        groups=tuple(draw(st.lists(group, min_size=1, max_size=2))),
        theta0=TraitVector(draw(st.lists(levels, min_size=13, max_size=13))),
        demographics=demographics,
        matching=matching,
        schedule=schedule,
        mating_period=draw(st.floats(0.5, 2.0)),
        max_time=draw(st.floats(4.0, 25.0)),
        grid=grid,
        log_every=draw(st.integers(1, 3)),
        success_pop_scope=scope,
    )
