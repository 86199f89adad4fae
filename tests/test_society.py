"""Gradient ascent on the society vector."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citysim.core import ConfigurationError, InteractionMatrix, TraitVector
from citysim.demographics import DemographicsParams
from citysim.engine import PopulationGroup, SimConfig, run
from citysim.scenario import scenario_from_mapping
from citysim.society import (
    LearningRateSchedule,
    society_gradient,
    society_path,
    trait_gain,
)
from reference import Person, Sex, effective_lambda

MATRIX = InteractionMatrix.default()

# Gradient of mean happiness when the population is pure trait a; this is
# the first column of the printed table, read off independently.
COLUMN_A = [0.9, 0.7, -0.1, -0.9, 0.7, -0.5, 0.6, 0.0, -0.5, 0.0, 0.0, -0.4, 0.2]


def flex_person(pid, flexibility):
    traits = np.full(8, 0.5)
    traits[3] = flexibility
    return Person(
        id=pid,
        sex=Sex.MALE,
        traits=TraitVector(traits),
        happiness=0.5,
        birth_time=0.0,
        death_time=10.0,
        next_available_time=1.0,
    )


class TestSocietyUpdate:
    def test_zero_learning_rate_is_identity(self):
        theta = np.linspace(0.1, 0.9, 13)
        assert np.array_equal(society_path(theta, np.full(8, 0.7), MATRIX, 0.0)[0], theta)

    def test_zero_mean_traits_is_identity(self):
        theta = np.linspace(0.1, 0.9, 13)
        assert np.array_equal(society_path(theta, np.zeros(8), MATRIX, 0.5)[0], theta)

    def test_pure_intellect_population_steps_along_first_column(self):
        lam = 1e-3
        theta = TraitVector(np.full(13, 0.5))
        x_bar = np.eye(8)[0]
        step = society_path(theta, x_bar, MATRIX, lam)[0] - theta.values
        assert np.allclose(step, lam * np.asarray(COLUMN_A), atol=1e-15)

    def test_unclipped_step_matches_finite_difference_gradient(self):
        rng = np.random.default_rng(77)
        lam, h = 1e-3, 1e-5
        for _ in range(20):
            x_bar = rng.uniform(size=8)
            theta = rng.uniform(0.3, 0.7, size=13)
            step = society_path(theta, x_bar, MATRIX, lam)[0] - theta
            fd = np.empty(13)
            for j in range(13):
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                f = lambda t: float(x_bar @ MATRIX.entries @ t)
                fd[j] = (f(up) - f(dn)) / (2 * h)
            rel = np.linalg.norm(step / lam - fd) / np.linalg.norm(fd)
            assert rel < 1e-6

    def test_one_step_improvement_without_clipping(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x_bar = rng.uniform(0.1, 1.0, size=8)
            theta = rng.uniform(0.3, 0.7, size=13)
            grad = society_gradient(x_bar, MATRIX)
            if np.linalg.norm(grad) < 1e-9:
                continue
            new = society_path(theta, x_bar, MATRIX, 1e-4)[0]
            f_old = float(x_bar @ MATRIX.entries @ theta)
            f_new = float(x_bar @ MATRIX.entries @ new)
            assert f_new > f_old

    @given(
        st.lists(st.floats(0, 1), min_size=8, max_size=8),
        st.lists(st.floats(0, 1), min_size=13, max_size=13),
        st.floats(0, 100),
    )
    def test_theta_never_leaves_unit_box(self, xs, ts, lam):
        updated = society_path(np.asarray(ts), np.asarray(xs), MATRIX, lam)[0]
        assert np.all(updated >= 0.0)
        assert np.all(updated <= 1.0)

    def test_long_run_stays_in_box(self):
        theta = np.full(13, 0.5)
        x_bar = np.full(8, 1.0)
        for _ in range(10_000):
            theta = society_path(theta, x_bar, MATRIX, 0.05)[0]
        assert np.all(theta >= 0.0)
        assert np.all(theta <= 1.0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ConfigurationError):
            society_path(np.full(13, 0.5), np.full(8, 0.5), MATRIX, -1e-4)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            society_path(np.full(12, 0.5), np.full(8, 0.5), MATRIX, 1e-4)
        with pytest.raises(ConfigurationError):
            society_path(np.full(13, 0.5), np.full(9, 0.5), MATRIX, 1e-4)


class TestSocietyPath:
    """run() advances an idle stretch of rounds with one society_path call,
    so its rows must be the iterated single steps, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1), min_size=13, max_size=13),
        st.lists(st.floats(0, 1), min_size=8, max_size=8),
        st.sampled_from(["fixed", "dynamic"]),
        st.floats(-5.0, -1.0),
        st.integers(1, 3000),
    )
    # A steep, long stretch: every coordinate reaches the box edge.
    @example([0.5] * 13, [0.9] * 8, "fixed", -1.0, 3000)
    def test_rows_equal_iterated_steps(self, ts, xs, kind, log_lam, rounds):
        # The schedule is set up so its rate at x_bar lands near 10**log_lam.
        x_bar = np.asarray(xs)
        x_bar[3] = max(x_bar[3], 0.05)
        base = 10.0**log_lam / (x_bar[3] if kind == "dynamic" else 1.0)
        lam = LearningRateSchedule(kind=kind, base=base).rate(x_bar)
        path = society_path(np.asarray(ts), x_bar, MATRIX, lam, rounds)
        assert path.shape == (rounds, 13)
        theta = np.asarray(ts)
        for row in path:
            theta = society_path(theta, x_bar, MATRIX, lam)[0]
            assert row.tobytes() == theta.tobytes()

    def test_gain_of_a_block_is_each_vectors_gain(self):
        # run() logs a stretch's mean current happiness from one block call.
        thetas = np.random.default_rng(3).uniform(size=(13, 50))
        block = trait_gain(thetas, MATRIX)
        assert block.shape == (8, 50)
        for k in range(50):
            assert block[:, k].tobytes() == trait_gain(thetas[:, k], MATRIX).tobytes()
        for bad in (np.full((12, 3), 0.5), np.full((13, 3, 2), 0.5)):
            with pytest.raises(ConfigurationError):
                trait_gain(bad, MATRIX)

    def test_rejects_bad_lambda_and_rounds(self):
        for lam in (-1e-4, np.inf, np.nan):
            with pytest.raises(ConfigurationError):
                society_path(np.full(13, 0.5), np.full(8, 0.5), MATRIX, lam, 5)
        with pytest.raises(ConfigurationError):
            society_path(np.full(13, 0.5), np.full(8, 0.5), MATRIX, 1e-4, 0)
        # Only trait_gain takes a block of society vectors.
        with pytest.raises(ConfigurationError):
            society_path(np.full((13, 2), 0.5), np.full(8, 0.5), MATRIX, 1e-4, 5)


class TestLearningRateSchedule:
    def test_defaults(self):
        s = LearningRateSchedule()
        assert s.kind == "fixed"
        assert s.base == 1e-4
        assert s.multiplier == 1.0
        assert s.flexibility_trait_index == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "adaptive"},
            {"base": 0.0},
            {"base": -1e-4},
            {"multiplier": 0.0},
            {"flexibility_trait_index": -1},
            {"kind": "dynamic", "flexibility_trait_index": 1.5},
            {"flexibility_trait_index": True},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            LearningRateSchedule(**kwargs)


class TestEffectiveLambda:
    def test_fixed_is_base_times_multiplier(self):
        s = LearningRateSchedule(kind="fixed", base=1e-4, multiplier=30)
        assert s.rate(np.full(8, 0.2)) == pytest.approx(3e-3, abs=1e-18)
        assert s.rate(np.full(8, 0.9)) == pytest.approx(3e-3, abs=1e-18)

    def test_dynamic_fully_flexible_population(self):
        s = LearningRateSchedule(kind="dynamic", base=1e-4, multiplier=10)
        assert s.rate(np.full(8, 1.0)) == pytest.approx(1e-3, abs=1e-18)

    def test_dynamic_rigid_population_freezes_society(self):
        s = LearningRateSchedule(kind="dynamic")
        x_bar = np.full(8, 0.7)
        x_bar[3] = 0.0
        assert s.rate(x_bar) == 0.0

    def test_dynamic_averages_flexibility(self):
        # Two clonal groups with flexibility 0.2 and 0.6, and a crowding
        # term no pair can clear: the first round's step uses lambda =
        # base * mean flexibility = 2e-4 * 0.4.
        traits = [np.full(8, 0.9), np.full(8, 0.9)]
        traits[0][3], traits[1][3] = 0.2, 0.6
        cfg = SimConfig(
            seed=3,
            groups=tuple(PopulationGroup(5, TraitVector(t), 0.0) for t in traits),
            theta0=TraitVector(np.full(13, 0.5)),
            demographics=DemographicsParams(success_a=1.0),
            schedule=LearningRateSchedule(kind="dynamic", base=2e-4, multiplier=1),
            max_time=1.0,
        )
        log = run(cfg)
        assert log.births[1] == 0 and log.deaths[1] == 0
        x_bar = np.mean(traits, axis=0)
        expected = np.clip(0.5 + 2e-4 * 0.4 * (x_bar @ MATRIX.entries), 0.0, 1.0)
        np.testing.assert_allclose(log.theta[1], expected, rtol=0, atol=1e-15)

    def test_value_form_matches_person_form(self):
        s = LearningRateSchedule(kind="dynamic", base=1e-4, multiplier=3)
        pop = [flex_person(i, f) for i, f in enumerate([0.1, 0.5, 0.9])]
        x_bar = np.mean([p.traits.values for p in pop], axis=0)
        assert effective_lambda(s, pop) == pytest.approx(s.rate(x_bar), abs=1e-18)

    def test_dynamic_index_out_of_range(self, tmp_path):
        # Through the schedule field, and through a 3-trait CSV matrix that
        # leaves the default index 3 pointing past the last trait.
        base = {"seed": 1, "population": [{"count": 4, "mean": [0.5] * 8}]}
        with pytest.raises(ConfigurationError, match="flexibility_trait_index"):
            scenario_from_mapping(
                {**base, "schedule": {"kind": "dynamic", "flexibility_trait_index": 11}}
            )
        small = InteractionMatrix(
            np.full((3, 13), 0.5), row_names=("a", "b", "c"), col_names=MATRIX.col_names
        )
        small.to_csv(tmp_path / "matrix.csv")
        mapping = {
            "seed": 1,
            "population": [{"count": 4, "mean": [0.5] * 3}],
            "interaction": "matrix.csv",
            "schedule": {"kind": "dynamic"},
        }
        with pytest.raises(ConfigurationError, match="flexibility_trait_index"):
            scenario_from_mapping(mapping, base_dir=tmp_path)
        mapping["schedule"] = {"kind": "fixed"}
        scenario_from_mapping(mapping, base_dir=tmp_path)
