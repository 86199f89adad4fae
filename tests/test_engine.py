"""Engine tests.

The centerpiece is TestReferenceTrace: tests/reference.py re-executes run()
one Person record at a time, consuming the same named streams in the same
order, and the two must agree row for row. That catches bookkeeping and
ordering slips in the columnar engine.
"""

import ast
import csv
import dataclasses
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import citysim.demographics as demographics
import citysim.engine as engine
import citysim.matching as matching
import citysim.society as society
from citysim.core import ConfigurationError, ConsistencyError, InteractionMatrix, TraitVector
from citysim.demographics import DemographicsParams, lifespan
from citysim.engine import (
    MatchingConfig,
    PopulationGroup,
    Roster,
    SimConfig,
    init_population,
    named_stream,
    run,
    write_run_outputs,
)
from citysim.matching import MatchMode, score
from citysim.presets import get_preset
from citysim.society import LearningRateSchedule, trait_gain
from conftest import load_json_strict
from reference import Person, Sex, available, reference_run, update_pop
from strategies import small_configs


def small_config(**overrides):
    base = dict(
        seed=1234,
        groups=(
            PopulationGroup(30, TraitVector([0.7] * 8), 0.15),
            PopulationGroup(20, TraitVector([0.45] * 8), 0.1),
        ),
        theta0=TraitVector([0.6] * 13),
        schedule=LearningRateSchedule(kind="fixed", base=1e-4),
        max_time=40.0,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestInitPopulation:
    def test_group_sizes_and_id_ranges(self):
        cfg = small_config(
            groups=(
                PopulationGroup(80, TraitVector([0.9] * 8), 0.0),
                PopulationGroup(20, TraitVector([0.2] * 8), 0.0),
            )
        )
        roster = init_population(cfg)
        assert roster.size == 100
        assert roster.ids.tolist() == list(range(100))
        assert roster.ids.dtype == np.int64 and roster.sex.dtype == np.int8
        for name in ("traits", "happiness", "birth", "death", "avail"):
            assert getattr(roster, name).dtype == np.float64, name
        assert roster.traits.shape == (8, 100) and roster.traits.flags.c_contiguous
        assert np.all(roster.traits[:, :80] == 0.9)
        assert np.all(roster.traits[:, 80:] == 0.2)

    def test_zero_std_happiness_and_times(self):
        cfg = small_config(
            groups=(PopulationGroup(10, TraitVector([1.0] * 8), 0.0),),
            theta0=TraitVector([1.0] * 13),
        )
        roster = init_population(cfg)
        expected = score(np.ones((8, 10)), trait_gain(cfg.theta0, cfg.interaction))
        assert roster.happiness.tobytes() == expected.tobytes()
        h = float(expected[0])
        assert np.all(roster.birth == 0.0)
        np.testing.assert_allclose(roster.death, lifespan(h, cfg.demographics), rtol=1e-9)
        assert np.all(roster.avail == cfg.demographics.maturity_age * cfg.mating_period)

    def test_clipping_into_unit_cube(self):
        cfg = small_config(groups=(PopulationGroup(400, TraitVector([0.5] * 8), 5.0),))
        traits = init_population(cfg).traits
        assert traits.min() >= 0.0 and traits.max() <= 1.0
        assert (traits == 0.0).any() and (traits == 1.0).any()

    def test_empty_total_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(groups=(PopulationGroup(0, TraitVector([0.5] * 8)),))

    def test_grid_locations_cover_grid(self):
        cfg = small_config(
            groups=(PopulationGroup(500, TraitVector([0.6] * 8), 0.1),),
            grid=(4, 3),
        )
        blocks = init_population(cfg).block
        assert blocks.dtype == np.int64 and blocks.shape == (500,)
        assert np.unique(blocks).tolist() == list(range(12))

    def test_deterministic_given_seed(self):
        cfg = small_config()
        a = init_population(cfg)
        b = init_population(cfg)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.sex, b.sex)
        assert np.array_equal(a.traits, b.traits)

    @pytest.mark.parametrize("preset", ["locality-grid-10x10", "baseline-mixed"])
    def test_run_founders_equal_default_streams(self, preset):
        # run() hands init_population its own stream dict; a bare call
        # builds the same streams, so the founders agree bit for bit.
        cfg = get_preset(preset).config
        founders = init_population(cfg)
        logged = run(dataclasses.replace(cfg, max_time=0.0)).initial_population
        for name in Roster.COLUMNS:
            a, b = getattr(founders, name), getattr(logged, name)
            if a is None or b is None:
                assert a is b is None, name
                continue
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name


def make_person(pid, sex, h=5.0, birth=0.0, death=100.0, avail=None):
    return Person(
        id=pid,
        sex=sex,
        traits=TraitVector([0.5] * 8),
        happiness=h,
        birth_time=birth,
        death_time=death,
        next_available_time=birth if avail is None else avail,
    )


def tiny_roster(ids):
    n = len(ids)
    return Roster(
        ids=np.asarray(ids, dtype=np.int64),
        sex=np.zeros(n, dtype=np.int8),
        traits=np.full((8, n), 0.5),
        happiness=np.ones(n),
        birth=np.zeros(n),
        death=np.full(n, 9.0),
        avail=np.zeros(n),
        block=None,
    )


trait_blocks = st.integers(1, 3000).flatmap(
    lambda n: arrays(np.float64, (8, n), elements=st.floats(-1e3, 1e3))
)


class TestRosterLayout:
    @given(trait_blocks)
    def test_trait_mean_is_each_rows_own_mean(self, traits):
        # run() reads the dynamic schedule's mean flexibility from x_bar;
        # that equals a separate pass over the flexibility row bit for bit.
        x_bar = traits.mean(axis=1)
        for j in range(8):
            assert x_bar[j].tobytes() == traits[j].mean().tobytes()

    def test_add_born_keeps_ids_ascending(self):
        roster = tiny_roster([0, 2, 5])
        assert add_batch(roster, tiny_roster([6, 7]), 1.0, 2.0) == 2
        assert roster.ids.tolist() == [0, 2, 5, 6, 7]
        assert roster.birth.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]
        assert roster.avail.tolist() == [0.0, 0.0, 0.0, 2.0, 2.0]
        assert roster.traits.shape == (8, 5)
        assert roster.traits.strides[1] == roster.traits.itemsize
        with pytest.raises(ConsistencyError, match="ascend"):
            add_batch(roster, tiny_roster([7, 8]), 1.0, 2.0)

    def test_take_compacts_every_column(self):
        roster = tiny_roster([0, 2, 5, 6])
        roster.traits[3] = [0.1, 0.2, 0.3, 0.4]
        kept = roster.take(np.array([True, False, True, False]))
        assert kept.ids.tolist() == [0, 5]
        assert kept.traits[3].tolist() == [0.1, 0.3]
        assert kept.traits.flags.c_contiguous and kept.block is None


def add_batch(roster, batch, t, avail):
    """roster.add_born of batch's people, ids and all, as born at t and
    first available at avail; returns how many joined."""
    first_id = int(batch.ids[0]) if batch.size else 0
    columns = (batch.sex, batch.traits, batch.happiness, batch.death, batch.block)
    return roster.add_born(first_id, t, avail, *columns)


def random_roster(rng, first_id, n, with_block):
    """n people with ids from first_id on and random values in every column."""
    return Roster(
        ids=np.arange(first_id, first_id + n, dtype=np.int64),
        sex=rng.integers(0, 2, size=n).astype(np.int8),
        traits=rng.random((8, n)),
        happiness=rng.normal(size=n),
        birth=rng.random(n),
        death=rng.random(n),
        avail=rng.random(n),
        block=rng.integers(0, 100, size=n) if with_block else None,
    )


BURIALS = ("none dead", "all dead", "dead prefix", "dead suffix", "scattered")
roster_ops = st.one_of(
    st.tuples(st.just("bury"), st.sampled_from(BURIALS), st.integers(0, 2**32 - 1)),
    # Batch size, and whether some of the batch may die at birth.
    st.tuples(st.just("add"), st.integers(0, 200), st.booleans()),
)


def burial_mask(kind, n, rng):
    """A keep mask of n people whose dead form the named pattern."""
    keep = np.ones(n, dtype=bool)
    cut = int(rng.integers(1, n)) if n > 1 else n
    if kind == "all dead":
        keep[:] = False
    elif kind == "dead prefix":
        keep[:cut] = False
    elif kind == "dead suffix":
        keep[cut:] = False
    elif kind == "scattered":
        keep = rng.random(n) < rng.random()
    return keep


def drive_window(n0, ops, with_block, seed=0):
    """Run one Roster through ops in place, and a reference through take
    and np.concatenate, checking after every op that each column has the
    reference's bytes and that mean_traits has the bits of the compact
    copy's mean. Returns the events seen: the burial patterns, and
    "slide", "grow" or "add onto empty" for an add_born."""
    rng = np.random.default_rng(seed)
    roster = random_roster(rng, 0, n0, with_block)
    ref = [getattr(roster, name) for name in Roster.COLUMNS]
    ref = [None if col is None else col.copy() for col in ref]
    next_id, events = n0, set()
    for op, arg, flag in ops:
        n = roster.size
        if op == "bury":
            keep = burial_mask(arg, n, np.random.default_rng(flag))
            dead = np.flatnonzero(~keep)
            if dead.size == 0:
                events.add("none dead")
            elif dead.size == n:
                events.add("all dead")
            elif dead[-1] == dead.size - 1:
                events.add("dead prefix")
            elif dead[0] == n - dead.size:
                events.add("dead suffix")
            else:
                events.add("scattered")
            roster.bury(keep)
            idx = np.flatnonzero(keep)
            ref = [None if col is None else col.take(idx, axis=-1) for col in ref]
            if roster.size:
                # A batch that does not ascend past the survivors is refused
                # and leaves the roster as it was.
                batch = random_roster(rng, int(roster.ids[-1]), 1, with_block)
                with pytest.raises(ConsistencyError, match="ascend"):
                    add_batch(roster, batch, -1.0, 0.0)
        else:
            # Deaths lie in [0, 1): born at t = 0.3 about 30% die at birth,
            # and born at t = -1 nobody does.
            batch = random_roster(rng, next_id, arg, with_block)
            t, avail = (0.3 if flag else -1.0), float(rng.random())
            keep = batch.death > t
            buffer, tail = roster._buffers[0], roster._buffers[0].shape[0] - roster._hi
            k = int(keep.sum())
            assert add_batch(roster, batch, t, avail) == k
            if k and not n:
                events.add("add onto empty")
            if k > tail:
                events.add("slide" if roster._buffers[0] is buffer else "grow")
            idx = np.flatnonzero(keep)
            born = [getattr(batch, name) for name in Roster.COLUMNS]
            born[4], born[6] = np.full(arg, t), np.full(arg, avail)
            ref = [
                None if col is None else np.concatenate([col, new.take(idx, axis=-1)], axis=-1)
                for col, new in zip(ref, born)
            ]
            next_id += arg
        for name, want in zip(Roster.COLUMNS, ref):
            got = getattr(roster, name)
            if want is None:
                assert got is None, name
                continue
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        assert roster.size < 2 or roster.traits.strides[1] == roster.traits.itemsize
        want_mean = ref[2].mean(axis=1) if ref[0].size else np.full(8, np.nan)
        assert roster.mean_traits().tobytes() == want_mean.tobytes()
    return events


# Founders, then: grow past them; bury a dead prefix, so the window can
# slide back to the front for a batch that does not fit behind it; bury a
# dead suffix and scattered deaths; bury everyone and refill the empty
# roster.
WINDOW_TOUR = (
    150,
    [
        ("add", 100, False),
        ("bury", "none dead", 0),
        ("bury", "dead prefix", 1),
        ("bury", "dead prefix", 2),
        ("add", 150, True),
        ("bury", "dead suffix", 3),
        ("bury", "scattered", 4),
        ("bury", "all dead", 5),
        ("add", 120, False),
    ],
)


class TestRosterWindow:
    """Roster.bury and Roster.add_born move a window over buffers with
    slack; a roster built by compact copies is their oracle."""

    @settings(max_examples=200, derandomize=True)
    @given(
        st.integers(0, 300), st.lists(roster_ops, max_size=12), st.booleans(), st.integers(0, 99)
    )
    def test_window_matches_compact_copies(self, n0, ops, with_block, seed):
        drive_window(n0, ops, with_block, seed)

    @settings(max_examples=200, derandomize=True)
    @given(
        st.integers(0, 300), st.integers(0, 50), st.sampled_from(BURIALS),
        st.integers(0, 2**32 - 1), st.booleans(),
    )
    def test_burial_moves_only_the_window_start(self, n0, front, kind, seed, with_block):
        # The window's end stays, its start advances by the number dead,
        # and each survivor born after the last death keeps its buffer
        # slot. A first burial of the front people starts the window past
        # the buffer's front.
        rng = np.random.default_rng(seed)
        roster = random_roster(rng, 0, n0, with_block)
        roster.bury(np.arange(n0) >= front)
        lo, hi = roster._lo, roster._hi
        keep = burial_mask(kind, roster.size, rng)
        ids = roster.ids[keep]
        roster.bury(keep)
        dead = np.flatnonzero(~keep)
        assert (roster._lo, roster._hi) == (lo + dead.size, hi)
        assert roster.ids.tolist() == ids.tolist()
        later = np.flatnonzero(keep) > (dead[-1] if dead.size else -1)
        slots = lo + np.flatnonzero(keep)[later]
        assert (roster._lo + np.flatnonzero(later)).tolist() == slots.tolist()

    def test_tour_covers_every_case(self):
        events = drive_window(*WINDOW_TOUR, with_block=True)
        assert events == {*BURIALS, "slide", "grow", "add onto empty"}

    def test_pickle_holds_only_the_live_people(self):
        roster = random_roster(np.random.default_rng(3), 0, 400, True)
        add_batch(roster, random_roster(np.random.default_rng(4), 400, 50, True), -1.0, 0.0)
        roster.bury(np.arange(roster.size) >= 120)
        copy = pickle.loads(pickle.dumps(roster))
        for name in Roster.COLUMNS:
            a, b = getattr(roster, name), getattr(copy, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        compact = roster.take(np.ones(roster.size, dtype=bool))
        assert len(pickle.dumps(roster)) <= len(pickle.dumps(compact))

    def test_run_keeps_no_slack_in_the_final_roster(self):
        # The final roster grew by add_born, but a log holds a compact copy.
        log = run(small_config())
        assert log.births.sum() > 0
        final = log.final_population
        assert final._buffers[0].shape[0] == final.size


class TestAvailableAndUpdate:
    def test_available_filters_dead_immature_busy(self):
        pop = [
            make_person(0, Sex.MALE, avail=3.0),
            make_person(1, Sex.MALE, death=2.0),
            make_person(2, Sex.MALE, avail=8.0),
            make_person(3, Sex.FEMALE, avail=1.0),
            make_person(4, Sex.FEMALE, birth=5.0, avail=6.0),
        ]
        Y, Z = available(pop, 3.0)
        assert [p.id for p in Y] == [0]
        assert [p.id for p in Z] == [3]

    def test_boundaries_half_open_lifetime_closed_availability(self):
        p = make_person(0, Sex.MALE, death=4.0, avail=4.0)
        q = make_person(1, Sex.FEMALE, death=5.0, avail=4.0)
        Y, Z = available([p, q], 4.0)
        assert Y == [] and [r.id for r in Z] == [1]

    def test_update_pop_removes_expired_and_appends(self):
        pop = [make_person(0, Sex.MALE, death=10.0), make_person(1, Sex.FEMALE, death=3.0)]
        child = make_person(2, Sex.MALE, birth=3.0, death=50.0)
        out = update_pop(pop, [child], 3.0)
        assert [p.id for p in out] == [0, 2]

    def test_update_pop_duplicate_id_raises(self):
        pop = [make_person(0, Sex.MALE)]
        with pytest.raises(ConsistencyError):
            update_pop(pop, [make_person(0, Sex.FEMALE)], 1.0)


TRACE_CASES = {
    "optimal-fixed": dict(
        seed=901,
        groups=(PopulationGroup(14, TraitVector([0.65] * 8), 0.2),),
        theta0=TraitVector([0.55] * 13),
        demographics=DemographicsParams(mutation_prob=0.3),
        schedule=LearningRateSchedule(kind="fixed", base=1e-3),
        max_time=6.0,
    ),
    "optimal-dynamic": dict(
        seed=902,
        groups=(
            PopulationGroup(9, TraitVector([0.75] * 8), 0.15),
            PopulationGroup(9, TraitVector([0.4] * 8), 0.15),
        ),
        theta0=TraitVector([0.5] * 13),
        demographics=DemographicsParams(mutation_prob=0.1),
        schedule=LearningRateSchedule(kind="dynamic", base=1e-3, multiplier=50.0),
        max_time=8.0,
    ),
    "noisy": dict(
        seed=903,
        groups=(PopulationGroup(16, TraitVector([0.6] * 8), 0.2),),
        theta0=TraitVector([0.6] * 13),
        demographics=DemographicsParams(mutation_prob=0.2),
        matching=MatchingConfig(mode=MatchMode.NOISY, noise_sigma=0.5),
        schedule=LearningRateSchedule(kind="fixed", base=5e-4),
        max_time=6.0,
    ),
    "locality-grid": dict(
        seed=904,
        groups=(PopulationGroup(12, TraitVector([0.7] * 8), 0.15),),
        theta0=TraitVector([0.6] * 13),
        demographics=DemographicsParams(mutation_prob=0.2),
        matching=MatchingConfig(mode=MatchMode.LOCALITY, gamma=0.8),
        schedule=LearningRateSchedule(kind="fixed", base=1e-3),
        grid=(3, 3),
        max_time=5.0,
    ),
    "partitioned": dict(
        seed=905,
        groups=(PopulationGroup(22, TraitVector([0.65] * 8), 0.2),),
        theta0=TraitVector([0.6] * 13),
        demographics=DemographicsParams(mutation_prob=0.2),
        matching=MatchingConfig(mode=MatchMode.PARTITIONED, partition_size=4, noise_sigma=0.5),
        schedule=LearningRateSchedule(kind="fixed", base=1e-3),
        max_time=6.0,
    ),
    # A crowding term near one half makes roughly every other pair fail.
    "probabilistic": dict(
        seed=906,
        groups=(PopulationGroup(18, TraitVector([0.7] * 8), 0.15),),
        theta0=TraitVector([0.6] * 13),
        demographics=DemographicsParams(
            mutation_prob=0.2, success_a=0.03, success_rule="probabilistic"
        ),
        schedule=LearningRateSchedule(kind="dynamic", base=1e-3, multiplier=20.0),
        max_time=6.0,
    ),
    # Manhattan distances on a non-square grid: the penalty table is
    # looked up per block pair, and a distance can exceed 2.
    "locality-manhattan": dict(
        seed=912,
        groups=(PopulationGroup(14, TraitVector([0.7] * 8), 0.15),),
        theta0=TraitVector([0.6] * 13),
        demographics=DemographicsParams(mutation_prob=0.2),
        matching=MatchingConfig(mode=MatchMode.LOCALITY, gamma=0.3, distance="manhattan"),
        schedule=LearningRateSchedule(kind="fixed", base=1e-3),
        grid=(4, 3),
        max_time=6.0,
    ),
    "block": dict(
        seed=907,
        groups=(PopulationGroup(24, TraitVector([0.7] * 8), 0.15),),
        theta0=TraitVector([0.6] * 13),
        demographics=DemographicsParams(mutation_prob=0.2, success_a=0.3),
        matching=MatchingConfig(mode=MatchMode.LOCALITY, gamma=0.8),
        schedule=LearningRateSchedule(kind="fixed", base=1e-3),
        grid=(2, 2),
        success_pop_scope="block",
        max_time=6.0,
    ),
    # success_a * N passes everyone's happiness once the first children are
    # born, so the engine skips ranking; short lives then thin the roster
    # until the bar reopens and births resume.
    "crowded": dict(
        seed=908,
        groups=(PopulationGroup(16, TraitVector([0.7] * 8), 0.15),),
        theta0=TraitVector([0.6] * 13),
        demographics=DemographicsParams(mutation_prob=0.2, success_a=0.3, lifespan_a=8.0),
        schedule=LearningRateSchedule(kind="fixed", base=1e-3),
        max_time=14.0,
    ),
    # The crowded trace under a steep dynamic schedule: theta reaches the
    # box edge in the middle of an idle stretch.
    "crowded-dynamic": dict(
        seed=910,
        groups=(PopulationGroup(16, TraitVector([0.7] * 8), 0.15),),
        theta0=TraitVector([0.6] * 13),
        demographics=DemographicsParams(mutation_prob=0.2, success_a=0.3, lifespan_a=8.0),
        schedule=LearningRateSchedule(kind="dynamic", base=1e-2, multiplier=50.0),
        max_time=14.0,
    ),
    # Newborns die at birth when h <= ln(lifespan_b), about ln 40 = 3.7,
    # which splits many rounds' children, the dead among the living.
    "dead-at-birth": dict(
        seed=911,
        groups=(PopulationGroup(14, TraitVector([0.65] * 8), 0.2),),
        theta0=TraitVector([0.55] * 13),
        demographics=DemographicsParams(mutation_prob=0.3, lifespan_b=40.0),
        schedule=LearningRateSchedule(kind="fixed", base=1e-3),
        max_time=6.0,
    ),
    # Happiness below the crowding bar: the deterministic gate would shut
    # these rounds, but the probabilistic rule still draws and sometimes
    # succeeds, so the engine must not skip them.
    "crowded-probabilistic": dict(
        seed=909,
        groups=(PopulationGroup(16, TraitVector([0.7] * 8), 0.15),),
        theta0=TraitVector([0.05] * 13),
        demographics=DemographicsParams(
            mutation_prob=0.2,
            success_a=0.03,
            lifespan_a=10.0,
            lifespan_b=0.5,
            success_rule="probabilistic",
        ),
        schedule=LearningRateSchedule(kind="fixed", base=1e-3),
        max_time=8.0,
    ),
    # Short lives and a two-unit mating period: the last people die before
    # the horizon, and the run stops with status "extinct".
    "extinct": dict(
        seed=934,
        groups=(PopulationGroup(8, TraitVector([0.8] * 8), 0.05),),
        theta0=TraitVector([0.6] * 13),
        demographics=DemographicsParams(mutation_prob=0.2, success_a=0.3, lifespan_a=3.0),
        schedule=LearningRateSchedule(kind="fixed", base=1e-3),
        mating_period=2.0,
        max_time=40.0,
    ),
    # Four founders: one sex dies out first, and the run stops "sterile".
    "sterile": dict(
        seed=978,
        groups=(PopulationGroup(4, TraitVector([0.7] * 8), 0.15),),
        theta0=TraitVector([0.6] * 13),
        demographics=DemographicsParams(mutation_prob=0.2, success_a=0.3, lifespan_a=6.0),
        schedule=LearningRateSchedule(kind="fixed", base=1e-3),
        max_time=30.0,
    ),
    # Long mating gaps: in round 2 one side has nobody available, so the
    # round pairs nobody and draws nothing.
    "one-sided": dict(
        seed=966,
        groups=(PopulationGroup(6, TraitVector([0.7] * 8), 0.15),),
        theta0=TraitVector([0.6] * 13),
        demographics=DemographicsParams(
            success_a=0.03, gap_a=8.0, success_rule="probabilistic"
        ),
        schedule=LearningRateSchedule(kind="fixed", base=1e-3),
        max_time=8.0,
    ),
}

# The crowded trace under noisy and partitioned matching: the engine skips
# the solver in the idle stretch, and each round's draws come from its own
# key, so the oracle, which solves every round, still agrees.
TRACE_CASES["crowded-noisy"] = {
    **TRACE_CASES["crowded"],
    "matching": MatchingConfig(mode=MatchMode.NOISY, noise_sigma=0.5),
}
TRACE_CASES["crowded-partitioned"] = {
    **TRACE_CASES["crowded"],
    "matching": MatchingConfig(mode=MatchMode.PARTITIONED, partition_size=4, noise_sigma=0.5),
}


# The statements of the run path that no trace case runs, keyed by module,
# function and the statement's first line, each with the reason it stays
# unrun. Each is a check that run() never trips, a branch for other
# callers, or a return that run() never asks for.
UNRUN = {
    ("engine", "named_stream", "raise ConfigurationError("):
        "an unknown stream name; run() asks only for the fixed names",
    ("engine", "Roster.bury", "return"):
        "nobody died; step() calls bury only after a death",
    ("engine", "Roster.add_born", "raise ConsistencyError("):
        "ids out of order; run() hands out ascending ids",
    ("engine", "init_population",
     "streams = {name: named_stream(config.seed, name) for name in _SEQUENCE_STREAMS}"):
        "a caller without streams; run() passes the ones its rounds go on drawing from",
    ("demographics", "mating_success_threshold",
     'raise ConfigurationError(f"pop_size must be nonnegative, got {pop_size}")'):
        "a negative head count, which no roster or block has",
    ("demographics", "born_batch", "raise ConfigurationError("):
        "parent batches of two shapes; run() passes one row per pair on each side",
    ("matching", "grid_distances", 'raise ConfigurationError(f"unknown distance metric {metric!r}")'):
        "MatchingConfig admits only hamming and manhattan",
    ("society", "_values", 'expected = f"({dim},) or ({dim}, m)" if block else f"({dim},)"'):
        "the message of the raise below it",
    ("society", "_values",
     'raise ConfigurationError(f"{what} has shape {arr.shape}, expected {expected}")'):
        "a vector of the wrong shape; SimConfig checks theta0 and the group means",
}


def function_statements(tree: ast.Module):
    """(qualified name, simple statements) of every function in tree. A
    function's statements are the simple ones in its body, at any depth
    of if, for, while, with and try, but not in a nested function or
    class, and not its docstring."""
    found = []

    def simple(body):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            blocks = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
            blocks += [handler.body for handler in getattr(stmt, "handlers", [])]
            if any(blocks):
                for block in blocks:
                    yield from simple(block)
            else:
                yield stmt

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                body = child.body
                if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                    body = body[1:]  # the docstring, which compiles to no line
                found.append((prefix + child.name, list(simple(body))))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


class TestReferenceTrace:
    @settings(max_examples=150, derandomize=True)
    @given(small_configs())
    def test_random_small_configs_match_reference(self, cfg):
        self.check(cfg)

    @pytest.mark.parametrize("case", sorted(TRACE_CASES))
    def test_run_matches_person_level_reference(self, case):
        self.check(SimConfig(**TRACE_CASES[case]))

    @pytest.mark.parametrize("case", sorted(TRACE_CASES))
    def test_thinned_log_matches_person_level_reference(self, case):
        # Rows at t=0, every third round and the final round, each counting
        # the births and deaths since the row before.
        self.check(SimConfig(**TRACE_CASES[case], log_every=3))

    @staticmethod
    def check(cfg):
        log = run(cfg)
        ref, blocks, people = reference_run(cfg)
        assert len(ref) == len(log.times)
        for i, (t, n, births, deaths, tot, mean, mean_cur, theta, mean_traits) in enumerate(ref):
            assert log.times[i] == t
            assert log.population[i] == n, f"row {i}"
            assert log.births[i] == births, f"row {i}"
            assert log.deaths[i] == deaths, f"row {i}"
            # The oracle uses the engine's score and mean kernels, so every
            # float must agree exactly.
            assert log.total_happiness[i] == tot, f"row {i}"
            if n:
                assert log.mean_happiness[i] == mean, f"row {i}"
                assert log.mean_current_happiness[i] == mean_cur, f"row {i}"
                np.testing.assert_array_equal(log.mean_traits[i], mean_traits)
            np.testing.assert_array_equal(log.theta[i], theta)
        if cfg.grid is None:
            assert log.block_population is log.block_mean_happiness is blocks is None
        else:
            # The oracle's blocks are gx-major, so row r's block gx * h + gy
            # lands at [r, gx, gy].
            pop, mean = np.moveaxis(np.array(blocks), 2, 0).reshape(2, len(ref), *cfg.grid)
            np.testing.assert_array_equal(log.block_population, pop)
            np.testing.assert_array_equal(log.block_mean_happiness, mean)
        final = log.final_population
        assert final.ids.tolist() == [p.id for p in people]
        assert final.sex.tolist() == [int(p.sex) for p in people]
        if people:
            assert np.array_equal(final.traits.T, np.stack([p.traits.values for p in people]))
        assert final.happiness.tolist() == [p.happiness for p in people]
        assert final.birth.tolist() == [p.birth_time for p in people]
        assert final.death.tolist() == [p.death_time for p in people]
        assert final.avail.tolist() == [p.next_available_time for p in people]
        if cfg.grid is not None:
            h = cfg.grid[1]
            assert [divmod(c, h) for c in final.block.tolist()] == [p.location for p in people]

    def test_trace_cases_run_every_statement(self):
        # The oracle checks only what the trace cases run. Every simple
        # statement of every engine, demographics, matching and society
        # function that run() enters must run in some case, but for the
        # UNRUN entries; and each of those must stay unrun, so that the
        # list holds nothing stale.
        modules = {mod.__file__: mod.__name__.rpartition(".")[2]
                   for mod in (engine, demographics, matching, society)}
        ran = set()

        def on_line(frame, event, arg):
            if event == "line":
                ran.add((frame.f_code.co_filename, frame.f_lineno))
            return on_line

        def on_call(frame, event, arg):
            return on_line if frame.f_code.co_filename in modules else None

        configs = [SimConfig(**kwargs) for kwargs in TRACE_CASES.values()]
        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            for cfg in configs:
                run(cfg)
        finally:
            sys.settrace(previous)
        unrun, entered = set(), set()
        for path, module in modules.items():
            source = Path(path).read_text(encoding="utf-8")
            for name, statements in function_statements(ast.parse(source)):
                hit = [
                    any((path, line) in ran for line in range(s.lineno, s.end_lineno + 1))
                    for s in statements
                ]
                if any(hit):
                    entered.add((module, name))
                    unrun |= {
                        (module, name, ast.get_source_segment(source, s).splitlines()[0])
                        for s, h in zip(statements, hit)
                        if not h
                    }
        assert {("engine", "_assign"), ("engine", "_RunState.step")} <= entered
        assert unrun == set(UNRUN)

    def test_trace_cases_actually_reproduce(self, monkeypatch):
        # Guard: each trace must include rounds with births and with deaths,
        # otherwise the comparison above proves less than it claims.
        # Roster.add_born, which only children reach, gathers the ones who
        # outlive t into the slack: the traces must hold rounds where every
        # child joins and rounds with gaps, so the oracle checks the gather
        # with and without people left out.
        dead, add_born = [], Roster.add_born

        def spy_add(roster, first_id, t, avail, sex, traits, h, death, block):
            dead.append(death <= t)
            return add_born(roster, first_id, t, avail, sex, traits, h, death, block)

        monkeypatch.setattr(Roster, "add_born", spy_add)
        for case, kwargs in TRACE_CASES.items():
            log = run(SimConfig(**kwargs))
            assert log.births.sum() > 0, case
            assert len(log.times) > 1, case
        assert any(d.size and not d.any() for d in dead)
        # A child dead at birth before one who joins: the survivors are not
        # the round's first children, so the gather must pick them.
        assert any((d[:-1] & ~d[1:]).any() for d in dead)
        monkeypatch.setattr(Roster, "add_born", add_born)
        # The crowded traces must skip ranking in some rounds, advance idle
        # rounds several at a time, and bear children again after a stretch.
        # Some round must rank fewer people than a side has available: the
        # oracle ranks everyone, so the gate-prefix cut is compared too.
        ranks, sides, steps = [], [], []
        rank, match, path = engine.rank_pair_indices, engine._match_pairs, engine.society_path

        def spy_match(roster, yi, zi, *args):
            sides.append((yi.size, zi.size))
            return match(roster, yi, zi, *args)

        def spy_rank(a, b):
            ranks.append((a.size, b.size))
            return rank(a, b)

        def spy_path(*args):
            steps.append(path(*args))
            return steps[-1]

        monkeypatch.setattr(engine, "rank_pair_indices", spy_rank)
        monkeypatch.setattr(engine, "_match_pairs", spy_match)
        monkeypatch.setattr(engine, "society_path", spy_path)
        log = run(SimConfig(**TRACE_CASES["crowded"]))
        rounds = len(log.times) - 1
        assert 0 < len(ranks) == len(sides) < rounds
        assert any(r < s for ranked, side in zip(ranks, sides) for r, s in zip(ranked, side))
        assert sum(len(p) for p in steps) == rounds
        assert len(steps) < rounds
        quiet = np.flatnonzero(log.births[1:] == 0)
        assert quiet.size and log.births[quiet[0] + 1 :].sum() > 0
        # In crowded-dynamic some coordinate is inside the box at the first
        # round of a stretch and on its edge by the last.
        steps.clear()
        run(SimConfig(**TRACE_CASES["crowded-dynamic"]))
        edge = [np.isin(p[[0, -1]], (0.0, 1.0)) for p in steps if len(p) > 1]
        assert any((~e[0] & e[1]).any() for e in edge)
        # Noisy and partitioned matching skip the solver in idle rounds too,
        # and bear children again after a skipped round. A step's first
        # round follows the rounds of the steps before it.
        solve = engine.linear_sum_assignment
        solved = set()

        def spy_solve(cost):
            solved.add(1 + sum(len(p) for p in steps))
            return solve(cost)

        monkeypatch.setattr(engine, "linear_sum_assignment", spy_solve)
        for case in ("crowded-noisy", "crowded-partitioned"):
            steps.clear()
            solved.clear()
            log = run(SimConfig(**TRACE_CASES[case]))
            rounds = len(log.times) - 1
            assert 0 < len(solved) < rounds, case
            skipped = sorted(set(range(1, rounds + 1)) - solved)
            assert log.births[skipped[0] + 1 :].sum() > 0, case


def _preset_at(name, horizon, **matching):
    config = get_preset(name).config
    matching = dataclasses.replace(config.matching, **matching)
    return dataclasses.replace(config, max_time=horizon, matching=matching)


# One run per matching mode, each with births and deaths; the noisy and
# partitioned runs also advance idle stretches before their midpoints.
RUN_STATE_CASES = {
    "optimal": lambda: _preset_at("baseline-mixed", 300.0),
    "locality": lambda: _preset_at("locality-grid-10x10", 200.0),
    "noisy": lambda: _preset_at("matching-comparison", 100.0, mode=MatchMode.NOISY),
    "partitioned": lambda: SimConfig(**TRACE_CASES["crowded-partitioned"]),
}


def log_fields(log) -> dict:
    """Every field of log, a roster as its columns and an array as its
    dtype, shape and bytes, so that nan equals nan."""
    fields = {}
    for f in dataclasses.fields(log):
        value = getattr(log, f.name)
        if isinstance(value, Roster):
            fields.update({f"{f.name}.{c}": getattr(value, c) for c in Roster.COLUMNS})
        else:
            fields[f.name] = value
    return {
        k: (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
        for k, v in fields.items()
    }


class TestRunState:
    @pytest.mark.parametrize("case", sorted(RUN_STATE_CASES))
    def test_pickled_state_finishes_the_same_run(self, case):
        # run()'s state holds all that one round hands the next: a state
        # pickled mid-run, loaded after another run of the same config and
        # stepped to the end gives that run's log and final roster.
        config = RUN_STATE_CASES[case]()
        state = engine._RunState(config)
        while state.k < state.n_rounds // 2:
            state.step()
        assert not state.done
        # A log taken mid-run leaves the state's columns as they were.
        state.log()
        saved = pickle.dumps(state)
        # Every round writes the cost cells it reads, so a pickle leaves them
        # out. With them, the locality state pickled to 1 478 889 bytes.
        assert len(pickle.dumps(state.buffers)) < 100
        if case == "locality":
            assert len(saved) < 1_478_889 // 4
        straight = run(config)
        state = pickle.loads(saved)
        while not state.done:
            state.step()
        assert state.status == "completed" and state.k == state.n_rounds
        assert straight.births[1:].sum() and straight.deaths[1:].sum()
        assert log_fields(state.log()) == log_fields(straight)

    def test_pickle_leaves_out_the_log_slack(self):
        # The log's columns grow by doubling; a pickle holds only the rows
        # of the rounds done, and the state it loads to logs the same.
        state = engine._RunState(RUN_STATE_CASES["locality"]())
        while state.k < 100:
            state.step()
        assert len(state.history) > state.k + 1
        loaded = pickle.loads(pickle.dumps(state))
        assert len(loaded.history) == state.k + 1
        assert loaded.history.tobytes() == state.history[: state.k + 1].tobytes()
        assert log_fields(loaded.log()) == log_fields(state.log())

    def test_idle_stretch_longer_than_the_log(self, monkeypatch):
        # Founders who mature late shut the gate for the first rounds, so
        # one step advances more rounds than twice the log's rows at its
        # start: the columns must grow to fit the whole stretch at once.
        # The person-level oracle checks every row.
        stretches, record = [], engine._RunState._record

        def spy(state, first, thetas, *args):
            stretches.append((len(state.history), first + len(thetas)))
            return record(state, first, thetas, *args)

        monkeypatch.setattr(engine._RunState, "_record", spy)
        crowded = TRACE_CASES["crowded"]
        late = dataclasses.replace(crowded["demographics"], maturity_age=5.0)
        TestReferenceTrace.check(SimConfig(**{**crowded, "demographics": late}))
        assert any(end > 2 * rows > 0 for rows, end in stretches)


class TestRunBehavior:
    def test_determinism_byte_identical(self, tmp_path):
        cfg = small_config(max_time=25.0)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            log = run(cfg)
            write_run_outputs(log, cfg, out, wall_time_s=0.0)
        for name in ("log.csv", "population_initial.csv", "population_final.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        sa = load_json_strict(out_a / "summary.json")
        sb = load_json_strict(out_b / "summary.json")
        sa.pop("meta")
        sb.pop("meta")
        assert sa == sb

    def test_stream_isolation_noise_toggle(self):
        # Switching matching noise on must not perturb initialization,
        # sex, or mutation draws: founders identical across the two runs.
        quiet = small_config(max_time=5.0)
        noisy = small_config(
            max_time=5.0, matching=MatchingConfig(mode=MatchMode.NOISY, noise_sigma=2.0)
        )
        pa = run(quiet).initial_population
        pb = run(noisy).initial_population
        assert np.array_equal(pa.sex, pb.sex)
        assert np.array_equal(pa.traits, pb.traits)

    def test_conservation_and_unique_ids(self):
        log = run(small_config(max_time=60.0, log_every=1))
        log.validate_conservation()
        ids = log.final_population.ids
        assert len(np.unique(ids)) == len(ids) == log.population[-1]
        # Rows stay in id order, which the rank tie rule relies on.
        assert np.all(np.diff(ids) > 0)

    @staticmethod
    def dense_and_sparse(cfg, every=7):
        """Runs of cfg logged every round and every `every`-th round, checked
        to agree on every column of the rows they share; returns them with
        the dense row of each sparse one."""
        dense = run(dataclasses.replace(cfg, log_every=1))
        sparse = run(dataclasses.replace(cfg, log_every=every))
        sparse.validate_conservation()
        # Dense row k is round k; sparse keeps t=0, every every-th round and
        # the final round.
        last = len(dense.times) - 1
        rows = sorted({*range(0, last + 1, every), last})
        for f in dataclasses.fields(engine.TimeSeriesLog):
            got, want = getattr(sparse, f.name), getattr(dense, f.name)
            if f.name in ("births", "deaths"):
                # A sparse row counts every round since the previous one.
                want = np.add.reduceat(want, [0, *(k + 1 for k in rows[:-1])])
            elif isinstance(want, np.ndarray):
                want = want[rows]
            if isinstance(want, Roster):
                for name in Roster.COLUMNS:
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            else:
                np.testing.assert_array_equal(got, want, err_msg=f.name)
        return dense, sparse, rows

    @staticmethod
    def dying_config(std):
        # A crowding term nobody reaches keeps every pair under the mating
        # threshold, so the founders die without issue: all in one round
        # with std 0 (extinct), else one by one until one sex is gone.
        return small_config(
            groups=(PopulationGroup(40, TraitVector([0.45] * 8), std),),
            theta0=TraitVector([0.6] * 13),
            demographics=DemographicsParams(success_a=5.0),
            max_time=500.0,
        )

    def test_log_every_subsampling_consistent(self):
        self.dense_and_sparse(small_config(max_time=42.0))

    def test_log_every_carries_births_into_idle_stretch(self):
        # The crowded trace shuts the gate for stretches of rounds, so the
        # births of an unlogged round carry into a stretch's first logged
        # row: a row of a round that itself bore nobody and buried nobody.
        cfg = SimConfig(**{**TRACE_CASES["crowded"], "max_time": 100.0})
        dense, sparse, rows = self.dense_and_sparse(cfg)
        idle = (dense.births == 0) & (dense.deaths == 0)
        assert ((sparse.births > 0) & idle[rows]).any()

    def test_max_time_zero_logs_single_row(self):
        log = run(small_config(max_time=0.0))
        assert len(log.times) == 1
        assert log.times[0] == 0.0
        assert log.status == "completed"

    def test_everyone_dead_at_birth_is_extinct(self):
        cfg = small_config(
            groups=(PopulationGroup(12, TraitVector([0.5] * 8), 0.0),),
            theta0=TraitVector([0.0] * 13),
        )
        log = run(cfg)
        assert log.status == "extinct"
        assert len(log.times) == 1
        assert log.population[0] == 0

    def test_single_person_is_sterile(self):
        cfg = small_config(groups=(PopulationGroup(1, TraitVector([0.9] * 8), 0.0),))
        log = run(cfg)
        assert log.status == "sterile"
        assert log.population[0] == 1

    def test_midrun_extinction_stops_early(self):
        log = run(self.dying_config(0.0))
        assert log.status == "extinct"
        assert 0.0 < log.times[-1] < 500.0
        assert log.population[0] == 40
        assert log.population[-1] == 0
        assert np.isnan(log.mean_traits[-1]).all()

    @pytest.mark.parametrize("every", [7, 50])
    @pytest.mark.parametrize("case", ["grid", "extinct", "sterile"])
    def test_log_every_keeps_every_column(self, case, every):
        # Each run ends between kept rounds. The grid run is the crowded
        # trace on a grid, so idle stretches log block arrays too.
        if case == "grid":
            cfg = SimConfig(**{**TRACE_CASES["crowded"], "grid": (3, 3), "max_time": 103.0})
        else:
            cfg = self.dying_config(0.0 if case == "extinct" else 0.05)
        dense, sparse, _ = self.dense_and_sparse(cfg, every)
        assert sparse.status == ("completed" if case == "grid" else case)
        assert dense.times[-1] % every
        if case == "grid":
            # Each kept round's blocks add up to that round's roster.
            pop, mean = sparse.block_population, sparse.block_mean_happiness
            np.testing.assert_array_equal(pop.sum(axis=(1, 2)), sparse.population)
            np.testing.assert_allclose(np.nansum(pop * mean, axis=(1, 2)), sparse.total_happiness)

    def test_partitioned_mode_runs_clean(self):
        cfg = small_config(
            max_time=30.0,
            matching=MatchingConfig(mode=MatchMode.PARTITIONED, partition_size=6, noise_sigma=0.4),
        )
        log = run(cfg)
        log.validate_conservation()
        assert log.status == "completed"
        assert log.births.sum() > 0

    def test_block_scoped_success_differs_from_global(self):
        # Tight crowding cap: locality matching solves a dense assignment
        # every round, so the population has to stay small.
        base = dict(
            max_time=30.0,
            grid=(3, 3),
            matching=MatchingConfig(mode=MatchMode.LOCALITY, gamma=0.5),
            demographics=DemographicsParams(success_a=0.05),
        )
        g = run(small_config(**base, success_pop_scope="global"))
        b = run(small_config(**base, success_pop_scope="block"))
        g.validate_conservation()
        b.validate_conservation()
        assert not np.array_equal(g.population, b.population)

    def test_summary_totals(self):
        log = run(small_config(max_time=20.0))
        s = log.summary()
        assert s["status"] == "completed"
        assert s["final_population"] == int(log.population[-1])
        assert s["total_births"] == int(log.births.sum())
        assert s["total_deaths"] == int(log.deaths.sum())
        assert len(s["final_theta"]) == 13


class TestGridOutputs:
    def test_block_population_partitions_population(self):
        cfg = small_config(
            max_time=12.0,
            grid=(4, 4),
            matching=MatchingConfig(mode=MatchMode.LOCALITY, gamma=1.0),
            demographics=DemographicsParams(success_a=0.05),
            log_every=3,
        )
        log = run(cfg)
        pop = log.block_population
        assert pop.dtype == np.int64 and pop.shape == (len(log.times), 4, 4)
        assert log.block_mean_happiness.shape == pop.shape
        np.testing.assert_array_equal(pop.sum(axis=(1, 2)), log.population)

    def test_block_arrays_match_per_block_loop(self):
        # Reference: one pass per block, summing happiness in roster order.
        # The grid has more blocks than people fill, so some are empty.
        w, h = 7, 6
        cfg = small_config(
            max_time=12.0,
            grid=(w, h),
            matching=MatchingConfig(mode=MatchMode.LOCALITY, gamma=0.5),
            demographics=DemographicsParams(success_a=0.05),
        )
        log = run(cfg)
        final = log.final_population
        counts, means = np.zeros((w, h), dtype=np.int64), np.full((w, h), np.nan)
        for gx in range(w):
            for gy in range(h):
                count, total = 0, 0.0
                for code, happy in zip(final.block.tolist(), final.happiness.tolist()):
                    if divmod(code, h) == (gx, gy):
                        count += 1
                        total += happy
                counts[gx, gy] = count
                if count:
                    means[gx, gy] = total / count
        assert counts.min() == 0 and counts.max() > 1
        np.testing.assert_array_equal(log.block_population[-1], counts)
        np.testing.assert_array_equal(log.block_mean_happiness[-1], means)

    def test_non_square_grid_files_read_back(self, tmp_path):
        # Every golden grid is 10 x 10, where swapping w and h goes unseen.
        w, h = 5, 3
        cfg = small_config(
            max_time=20.0,
            grid=(w, h),
            matching=MatchingConfig(mode=MatchMode.LOCALITY, gamma=0.5),
            demographics=DemographicsParams(success_a=0.05),
        )
        log = run(cfg)
        write_run_outputs(log, cfg, tmp_path, wall_time_s=0.0)
        with open(tmp_path / "grid_log.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(log.times) * w * h
        for i, row in enumerate(rows):
            r, code = divmod(i, w * h)
            gx, gy = int(row["gx"]), int(row["gy"])
            assert 0 <= gx < w and 0 <= gy < h and gx * h + gy == code
            assert float(row["time"]) == log.times[r]
            assert int(row["population"]) == log.block_population[r, gx, gy]
            assert row["mean_happiness"] == str(float(log.block_mean_happiness[r, gx, gy]))
        with open(tmp_path / "population_final.csv", encoding="utf-8", newline="") as fh:
            xy = [(int(p["gx"]), int(p["gy"])) for p in csv.DictReader(fh)]
        assert max(gx for gx, _ in xy) >= h
        assert [gx * h + gy for gx, gy in xy] == log.final_population.block.tolist()
        counts = np.zeros((w, h), dtype=np.int64)
        for gx, gy in xy:
            counts[gx, gy] += 1
        np.testing.assert_array_equal(counts, log.block_population[-1])

    def test_children_inherit_a_parent_block(self):
        cfg = small_config(
            max_time=15.0,
            grid=(5, 2),
            matching=MatchingConfig(mode=MatchMode.LOCALITY, gamma=0.7),
            demographics=DemographicsParams(success_a=0.05),
        )
        log = run(cfg)
        block = log.final_population.block
        assert block.shape == (log.population[-1],)
        assert np.all((0 <= block) & (block < 10))

    def test_write_run_outputs_file_set(self, tmp_path):
        cfg = small_config(max_time=8.0)
        log = run(cfg)
        files = write_run_outputs(log, cfg, tmp_path / "plain", wall_time_s=1.0)
        assert sorted(f.name for f in files) == [
            "log.csv",
            "population_final.csv",
            "population_initial.csv",
            "summary.json",
        ]
        gcfg = small_config(
            max_time=8.0,
            grid=(3, 3),
            matching=MatchingConfig(mode=MatchMode.LOCALITY),
            demographics=DemographicsParams(success_a=0.05),
        )
        glog = run(gcfg)
        gfiles = write_run_outputs(glog, gcfg, tmp_path / "grid", wall_time_s=1.0)
        assert "grid_log.csv" in {f.name for f in gfiles}

    def test_extinct_run_writes_an_empty_snapshot(self, tmp_path):
        cfg = small_config(
            groups=(PopulationGroup(12, TraitVector([0.5] * 8), 0.0),),
            theta0=TraitVector([0.0] * 13),
        )
        log = run(cfg)
        assert log.status == "extinct" and log.final_population.size == 0
        files = write_run_outputs(log, cfg, tmp_path, wall_time_s=0.0)
        assert [f.name for f in files] == [
            "log.csv",
            "summary.json",
            "population_initial.csv",
            "population_final.csv",
        ]
        header = "id,sex,birth_time,death_time,next_available_time,happiness,gx,gy,"
        header += ",".join(cfg.interaction.row_names)
        assert (tmp_path / "population_final.csv").read_text() == header + "\n"
        assert load_json_strict(tmp_path / "summary.json")["final_mean_happiness"] is None
        lines = (tmp_path / "log.csv").read_text().split("\n")
        assert len(lines) == 3 and lines[2] == ""
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["population"] == "0" and row["mean_happiness"] == "nan"

    def test_log_csv_round_trips_through_numpy(self, tmp_path):
        # Float cells are repr, which reads back to the same bits.
        cfg = small_config(max_time=10.0)
        log = run(cfg)
        write_run_outputs(log, cfg, tmp_path, wall_time_s=0.0)
        final = log.final_population
        assert final.size > 0
        expected = {
            "log.csv": {
                "population": log.population,
                "time": log.times,
                "total_happiness": log.total_happiness,
                "mean_happiness": log.mean_happiness,
                "mean_current_happiness": log.mean_current_happiness,
            },
            "population_final.csv": {
                "id": final.ids,
                "birth_time": final.birth,
                "death_time": final.death,
                "next_available_time": final.avail,
                "happiness": final.happiness,
                **dict(zip(cfg.interaction.row_names, final.traits)),
            },
        }
        for file, columns in expected.items():
            data = np.genfromtxt(tmp_path / file, delimiter=",", names=True)
            for name, column in columns.items():
                np.testing.assert_array_equal(data[name], column, err_msg=f"{file}: {name}")


class TestConfigValidation:
    def test_locality_requires_grid(self):
        with pytest.raises(ConfigurationError):
            small_config(matching=MatchingConfig(mode=MatchMode.LOCALITY))

    def test_block_scope_requires_grid(self):
        with pytest.raises(ConfigurationError):
            small_config(success_pop_scope="block")

    def test_integer_period_runs_like_a_float_period(self, tmp_path):
        # An integer period times an integer maturity age once made every
        # availability time an integer array, truncating parents' gaps.
        for name, period, age in (("int", 1, 2), ("float", 1.0, 2.0)):
            cfg = small_config(
                mating_period=period, demographics=DemographicsParams(maturity_age=age)
            )
            write_run_outputs(run(cfg), cfg, tmp_path / name, wall_time_s=0.0)
        for file in ("log.csv", "population_initial.csv", "population_final.csv"):
            int_bytes = (tmp_path / "int" / file).read_bytes()
            assert int_bytes == (tmp_path / "float" / file).read_bytes(), file

    def test_bad_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(mating_period=0.0)
        with pytest.raises(ConfigurationError):
            small_config(log_every=0)
        with pytest.raises(ConfigurationError):
            small_config(max_time=-1.0)
        with pytest.raises(ConfigurationError):
            small_config(theta0=TraitVector([0.5] * 8))
        with pytest.raises(ConfigurationError):
            small_config(seed=-3)
        with pytest.raises(ConfigurationError):
            MatchingConfig(distance="euclidean")
        with pytest.raises(ConfigurationError):
            PopulationGroup(5, TraitVector([0.5] * 8), (0.1, 0.2))
        with pytest.raises(ConfigurationError, match="partition_size"):
            MatchingConfig(partition_size=2.5)
        with pytest.raises(ConfigurationError, match=r"grid\[0\]"):
            small_config(grid=(2.9, 3))
        with pytest.raises(ConfigurationError, match="log_every"):
            small_config(log_every=True)

    def test_fields_are_stored_as_their_kind(self):
        # An integer-valued float is an integer, an integer is a float where
        # the field is real, and a mode's value is its MatchMode.
        group = PopulationGroup(2.0, TraitVector([0.5] * 8), 1)
        assert group.count == 2 and type(group.count) is int and group.std == (1.0,) * 8
        matching = MatchingConfig(mode="noisy", gamma=2, partition_size=np.float64(3.0))
        assert matching.mode is MatchMode.NOISY
        assert type(matching.gamma) is float and type(matching.partition_size) is int
        cfg = small_config(seed=7.0, grid=[2.0, 3], max_time=5, log_every=2.0)
        assert (cfg.seed, cfg.grid, cfg.max_time, cfg.log_every) == (7, (2, 3), 5.0, 2)
        assert [type(v) for v in (cfg.seed, *cfg.grid, cfg.max_time, cfg.log_every)] == [
            int, int, int, float, int,
        ]
        assert type(DemographicsParams(maturity_age=2).maturity_age) is float
        assert type(LearningRateSchedule(flexibility_trait_index=1.0).flexibility_trait_index) is int

    @pytest.mark.parametrize("trait", ["happiness", "current_happiness", "gx"])
    def test_trait_name_may_not_repeat_a_csv_column(self, trait):
        # A trait named happiness repeated log.csv's mean_happiness and the
        # snapshots' happiness column; current_happiness repeated
        # mean_current_happiness, gx a snapshot column.
        m = InteractionMatrix.default()
        renamed = InteractionMatrix(m.entries, (*m.row_names[:7], trait), m.col_names)
        with pytest.raises(ConfigurationError, match=f"trait name '{trait}'"):
            small_config(interaction=renamed)

    def test_round_count_must_be_finite(self):
        # max_time / mating_period overflowed to inf, and run() died
        # converting the round count to an integer.
        with pytest.raises(ConfigurationError, match="max_time / mating_period"):
            small_config(max_time=1.0e300, mating_period=1.0e-300)

    @pytest.mark.parametrize("distance,far", [("hamming", 2), ("manhattan", 4)])
    def test_just_finite_locality_penalty_is_accepted(self, distance, far):
        # On a 3 x 3 grid the largest block distance, that of two opposite
        # corners, is far: gamma * far at the largest float is accepted, and
        # one step of gamma past it overflows.
        def build(gamma):
            matching = MatchingConfig(mode=MatchMode.LOCALITY, gamma=gamma, distance=distance)
            return small_config(grid=(3, 3), matching=matching)

        gamma = np.finfo(np.float64).max / far
        assert build(gamma).matching.gamma == gamma
        message = f"gamma .* largest block distance {far} overflows"
        with pytest.raises(ConfigurationError, match=message):
            build(np.nextafter(gamma, np.inf))

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: PopulationGroup(-1, TraitVector([0.5] * 8)), "count must be >= 0"),
            (lambda: PopulationGroup(4, TraitVector([0.5] * 8), -0.1), "std must .* -0.1"),
            (lambda: PopulationGroup(4, TraitVector([0.5] * 8), float("inf")), "std must .* inf"),
            (lambda: MatchingConfig(gamma=-1.0), "gamma"),
            (lambda: MatchingConfig(gamma=float("nan")), "gamma"),
            (lambda: MatchingConfig(noise_sigma=-1.0), "noise_sigma"),
            (lambda: MatchingConfig(noise_sigma=float("inf")), "noise_sigma"),
            # The k x k noise draws overflowed to inf, and linear_sum_assignment
            # died with "matrix contains invalid numeric entries".
            (lambda: MatchingConfig(noise_sigma=1.0e308), "noise_sigma .* overflows"),
            # The step size overflowed to inf, and the run stopped at its first
            # step with an error that named no field.
            (
                lambda: LearningRateSchedule(base=1.0e300, multiplier=1.0e300),
                r"base \* multiplier must be a finite step size",
            ),
            # Each of these was accepted as 1 or died with TypeError or a bare
            # ValueError while the scenario parser alone checked kinds.
            (lambda: DemographicsParams(success_a=True), "success_a: expected a number, got True"),
            (lambda: LearningRateSchedule(multiplier=True), "multiplier: expected a number"),
            (lambda: MatchingConfig(gamma="1"), "gamma: expected a number, got '1'"),
            (lambda: DemographicsParams(mutation_prob="0.1"), "mutation_prob: expected a number"),
            (lambda: MatchingConfig(mode="bogus"), "mode: 'bogus' is not one of"),
            (
                lambda: PopulationGroup(4, TraitVector([0.5] * 8), std="a"),
                "std: expected a number, got 'a'",
            ),
            (lambda: small_config(grid=5), r"grid: expected \[width, height\], got 5"),
            (lambda: small_config(groups=()), "population group"),
            (
                lambda: small_config(groups=(PopulationGroup(4, TraitVector([0.5] * 7)),)),
                "group mean has 7 traits",
            ),
            (lambda: small_config(grid=(2, 2, 2)), "grid must be two dimensions"),
            (lambda: small_config(grid=(0, 3)), "grid must be two dimensions"),
            (lambda: small_config(grid=(2**62, 2)), "grid .* with int64 block codes"),
            # Founder ids are int64: init_population died with "Maximum
            # allowed dimension exceeded".
            (
                lambda: small_config(groups=(PopulationGroup(2**62, TraitVector([0.5] * 8)),) * 2),
                "population: .* int64 ids",
            ),
            # gamma * distance overflowed to inf, and linear_sum_assignment
            # died on an infeasible cost matrix.
            *[
                (
                    lambda distance=distance: small_config(
                        grid=(3, 3),
                        matching=MatchingConfig(
                            mode=MatchMode.LOCALITY, gamma=1.0e308, distance=distance
                        ),
                    ),
                    "gamma .* overflows the locality penalty",
                )
                for distance in ("hamming", "manhattan")
            ],
            (
                lambda: run(small_config(max_time=2.0)).write_grid_csv("unused.csv"),
                "no grid log",
            ),
        ],
    )
    def test_input_check_names_its_field(self, build, field):
        with pytest.raises(ConfigurationError, match=field):
            build()

    def test_conservation_check_names_the_row(self):
        log = run(small_config(max_time=3.0))
        log.validate_conservation()
        births = log.births.copy()
        births[2] += 1
        with pytest.raises(ConsistencyError, match="row 2: population"):
            dataclasses.replace(log, births=births).validate_conservation()

    def test_named_stream_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            named_stream(1, "weather")

    def test_streams_are_mutually_independent(self):
        a = named_stream(7, "init").normal(size=4)
        b = named_stream(7, "born").normal(size=4)
        assert not np.allclose(a, b)
        again = named_stream(7, "init").normal(size=4)
        np.testing.assert_array_equal(a, again)
