"""Engine tests.

The centerpiece is TestReferenceTrace: tests/reference.py re-executes run()
one Person record at a time, consuming the same named streams in the same
order, and the two must agree row for row. That catches bookkeeping and
ordering slips in the columnar engine.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import citysim.engine as engine
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
        np.testing.assert_allclose(roster.death, lifespan(h), rtol=1e-9)
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
        for name in Roster.__slots__:
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

    def test_extend_keeps_ids_ascending(self):
        roster = tiny_roster([0, 2, 5])
        roster.extend(tiny_roster([6, 7]))
        assert roster.ids.tolist() == [0, 2, 5, 6, 7]
        assert roster.traits.shape == (8, 5) and roster.traits.flags.c_contiguous
        with pytest.raises(ConsistencyError, match="ascend"):
            roster.extend(tiny_roster([7, 8]))

    def test_take_compacts_every_column(self):
        roster = tiny_roster([0, 2, 5, 6])
        roster.traits[3] = [0.1, 0.2, 0.3, 0.4]
        kept = roster.take(np.array([True, False, True, False]))
        assert kept.ids.tolist() == [0, 5]
        assert kept.traits[3].tolist() == [0.1, 0.3]
        assert kept.traits.flags.c_contiguous and kept.block is None


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

    def test_trace_cases_actually_reproduce(self, monkeypatch):
        # Guard: each trace must include rounds with births and with deaths,
        # otherwise the comparison above proves less than it claims.
        for case, kwargs in TRACE_CASES.items():
            log = run(SimConfig(**kwargs))
            assert log.births.sum() > 0, case
            assert len(log.times) > 1, case
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

        def spy_solve(W, maximize):
            solved.add(1 + sum(len(p) for p in steps))
            return solve(W, maximize=maximize)

        monkeypatch.setattr(engine, "linear_sum_assignment", spy_solve)
        for case in ("crowded-noisy", "crowded-partitioned"):
            steps.clear()
            solved.clear()
            log = run(SimConfig(**TRACE_CASES[case]))
            rounds = len(log.times) - 1
            assert 0 < len(solved) < rounds, case
            skipped = sorted(set(range(1, rounds + 1)) - solved)
            assert log.births[skipped[0] + 1 :].sum() > 0, case


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
                for name in Roster.__slots__:
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

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: PopulationGroup(-1, TraitVector([0.5] * 8)), "group count"),
            (lambda: PopulationGroup(4, TraitVector([0.5] * 8), -0.1), "std entries"),
            (lambda: PopulationGroup(4, TraitVector([0.5] * 8), float("inf")), "std entries"),
            (lambda: MatchingConfig(gamma=-1.0), "gamma"),
            (lambda: MatchingConfig(gamma=float("nan")), "gamma"),
            (lambda: MatchingConfig(noise_sigma=-1.0), "noise_sigma"),
            (lambda: MatchingConfig(noise_sigma=float("inf")), "noise_sigma"),
            (lambda: small_config(groups=()), "population group"),
            (
                lambda: small_config(groups=(PopulationGroup(4, TraitVector([0.5] * 7)),)),
                "group mean has 7 traits",
            ),
            (lambda: small_config(grid=(2, 2, 2)), "grid must be two dimensions"),
            (lambda: small_config(grid=(0, 3)), "grid must be two dimensions"),
            (lambda: small_config(grid=(2**62, 2)), "grid .* with int64 block codes"),
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
