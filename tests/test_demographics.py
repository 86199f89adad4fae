"""Life-event formulas and reproduction rules."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from citysim.core import ConfigurationError, TraitVector
from citysim.demographics import (
    DemographicsParams,
    born_batch,
    crowding_term,
    lifespan,
    mating_gap,
    mating_opening_time,
    mating_succeeds,
    mating_success_threshold,
    reaches_crowding_bar,
)
from citysim.matching import rank_pair_indices
from reference import expected_child

finite_h = st.floats(min_value=-20, max_value=20, allow_nan=False)
DEFAULTS = DemographicsParams()
# The generator the deterministic success rule is given; it draws nothing.
NO_DRAWS = np.random.default_rng(0)


class TestParams:
    def test_defaults_are_the_canonical_constants(self):
        p = DemographicsParams()
        assert p.lifespan_a == 150.0
        assert p.lifespan_b == 10.0
        assert p.gap_a == 0.8
        assert p.gap_epsilon == 0.01
        assert p.success_a == 0.002
        assert p.success_scale == 20.0
        assert p.mutation_prob == 0.1
        assert p.maturity_age == 1.0
        assert p.success_rule == "deterministic"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lifespan_a": 0.0},
            {"lifespan_b": -1.0},
            {"gap_a": 0.0},
            {"gap_epsilon": -0.01},
            {"success_a": 0.0},
            {"success_scale": -20.0},
            {"maturity_age": 0.0},
            {"mutation_prob": 1.5},
            {"mutation_prob": -0.1},
            {"success_rule": "coin-flip"},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            DemographicsParams(**kwargs)


class TestLifespan:
    def test_root_at_log_ten(self):
        assert lifespan(math.log(10), DEFAULTS) == pytest.approx(0.0, abs=1e-12)

    def test_saturates_at_a(self):
        assert lifespan(50.0, DEFAULTS) == pytest.approx(150.0, abs=1e-6)

    def test_log_twenty_gives_half_of_a(self):
        assert lifespan(math.log(20), DEFAULTS) == pytest.approx(75.0, abs=1e-9)

    def test_zero_happiness_is_clamped_to_zero(self):
        # Raw formula value at h=0 is 150 * (1 - 10) = -1350.
        assert lifespan(0.0, DEFAULTS) == 0.0

    def test_positive_only_above_log_ten(self):
        assert lifespan(math.log(10) - 1e-6, DEFAULTS) == 0.0
        assert lifespan(math.log(10) + 1e-6, DEFAULTS) > 0.0

    @given(finite_h, finite_h)
    def test_monotone_nondecreasing(self, h1, h2):
        lo, hi = min(h1, h2), max(h1, h2)
        assert lifespan(lo, DEFAULTS) <= lifespan(hi, DEFAULTS) + 1e-12

    def test_matches_direct_formula(self):
        hs = np.random.default_rng(101).uniform(-5, 15, size=1000)
        direct = [max(0.0, 150.0 * (1.0 - 10.0 * math.exp(-h))) for h in hs]
        np.testing.assert_allclose(lifespan(hs, DEFAULTS), direct, rtol=0, atol=1e-12)
        assert lifespan(float(hs[0]), DEFAULTS) == lifespan(hs, DEFAULTS)[0]


class TestMatingGap:
    def test_nonpositive_happiness_hits_the_cap(self):
        assert mating_gap(0.0, DEFAULTS) == pytest.approx(80.0, abs=1e-12)
        assert mating_gap(-3.0, DEFAULTS) == pytest.approx(80.0, abs=1e-12)

    def test_known_points(self):
        assert mating_gap(0.79, DEFAULTS) == pytest.approx(1.0, abs=1e-12)
        assert mating_gap(7.99, DEFAULTS) == pytest.approx(0.1, abs=1e-12)

    def test_always_positive(self):
        assert mating_gap(1e9, DEFAULTS) > 0.0

    @given(finite_h, finite_h)
    def test_monotone_nonincreasing(self, h1, h2):
        lo, hi = min(h1, h2), max(h1, h2)
        assert mating_gap(lo, DEFAULTS) >= mating_gap(hi, DEFAULTS) - 1e-12

    def test_matches_direct_formula(self):
        hs = np.random.default_rng(202).uniform(-5, 15, size=1000)
        direct = [0.8 / (max(h, 0.0) + 0.01) for h in hs]
        np.testing.assert_allclose(mating_gap(hs, DEFAULTS), direct, rtol=0, atol=1e-12)
        assert mating_gap(float(hs[0]), DEFAULTS) == mating_gap(hs, DEFAULTS)[0]


class TestSuccessThreshold:
    def test_vanishes_for_empty_happy_world(self):
        assert mating_success_threshold(0, 100.0, 100.0, DEFAULTS) == pytest.approx(0.0, abs=1e-9)

    def test_neutral_happiness_gives_half(self):
        assert mating_success_threshold(0, 0.0, 0.0, DEFAULTS) == pytest.approx(0.5, abs=1e-12)

    def test_crowding_term_alone(self):
        assert mating_success_threshold(500, 100.0, 100.0, DEFAULTS) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_population(self):
        with pytest.raises(ConfigurationError):
            mating_success_threshold(-1, 0.0, 0.0, DEFAULTS)

    @given(st.integers(0, 5000), st.integers(0, 5000), finite_h, finite_h)
    def test_monotone_in_population(self, n1, n2, hm, hf):
        lo, hi = min(n1, n2), max(n1, n2)
        assert (
            mating_success_threshold(lo, hm, hf, DEFAULTS)
            <= mating_success_threshold(hi, hm, hf, DEFAULTS) + 1e-12
        )

    @given(st.integers(0, 2000), finite_h, finite_h, finite_h)
    def test_monotone_nonincreasing_in_each_happiness(self, n, base, other, bump):
        lo, hi = min(base, base + abs(bump)), base + abs(bump)
        assert (
            mating_success_threshold(n, hi, other, DEFAULTS)
            <= mating_success_threshold(n, lo, other, DEFAULTS) + 1e-12
        )
        assert (
            mating_success_threshold(n, other, hi, DEFAULTS)
            <= mating_success_threshold(n, other, lo, DEFAULTS) + 1e-12
        )

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(303)
        n = rng.integers(0, 3000, size=1000)
        hm = rng.uniform(-2, 8, size=1000)
        hf = rng.uniform(-2, 8, size=1000)
        sig = lambda t: 1.0 / (1.0 + math.exp(-t))
        direct = [
            0.002 * k + max(1 - sig(20 * a), 1 - sig(20 * b)) for k, a, b in zip(n, hm, hf)
        ]
        np.testing.assert_allclose(
            mating_success_threshold(n, hm, hf, DEFAULTS), direct, rtol=0, atol=1e-12
        )
        one = mating_success_threshold(int(n[0]), float(hm[0]), float(hf[0]), DEFAULTS)
        assert one == pytest.approx(direct[0], abs=1e-12)


class TestMatingSucceeds:
    def test_happy_pair_in_empty_city(self):
        assert mating_succeeds(0, 1.0, 1.0, DEFAULTS, NO_DRAWS)

    def test_crowding_suppresses_even_happy_pairs(self):
        assert not mating_succeeds(1000, 1.0, 1.0, DEFAULTS, NO_DRAWS)

    def test_miserable_pair_never_succeeds(self):
        assert not mating_succeeds(0, -1.0, -1.0, DEFAULTS, NO_DRAWS)

    def test_gate_is_deterministic(self):
        results = {bool(mating_succeeds(50, 0.6, 0.8, DEFAULTS, NO_DRAWS)) for _ in range(10)}
        assert len(results) == 1
        # One call over arrays gives each pair its scalar verdict.
        hm = np.array([1.0, 1.0, -1.0, 0.6])
        hf = np.array([1.0, -1.0, 1.0, 0.8])
        gate = mating_succeeds(50, hm, hf, DEFAULTS, NO_DRAWS)
        one_by_one = [bool(mating_succeeds(50, a, b, DEFAULTS, NO_DRAWS)) for a, b in zip(hm, hf)]
        assert gate.tolist() == one_by_one

    def test_probabilistic_rate_tracks_threshold(self):
        # pop 0 and neutral happiness put the threshold at exactly 0.5,
        # so the success probability is 0.5. One uniform per pair: an
        # array call draws what per-pair calls draw, in pair order.
        params = DemographicsParams(success_rule="probabilistic")
        h = np.zeros(10_000)
        hits = mating_succeeds(0, h, h, params, np.random.default_rng(11))
        assert hits.mean() == pytest.approx(0.5, abs=0.02)
        rng = np.random.default_rng(11)
        one_by_one = [bool(mating_succeeds(0, 0.0, 0.0, params, rng)) for _ in range(50)]
        assert hits[:50].tolist() == one_by_one


@st.composite
def crowded_rosters(draw):
    """Params, alive count, and happiness, next available time and sex
    (0 male, 1 female) of a roster drawn around the crowding bar: some
    happiness values sit a few ulps from it, some further off. A sex drawn
    as shut has every value moved below the bar."""
    params = DemographicsParams(
        success_a=draw(st.floats(1e-4, 0.5)), success_scale=draw(st.floats(0.5, 60.0))
    )
    n = draw(st.integers(0, 10_000))
    bar = crowding_term(n, params)
    below = np.nextafter(bar, -np.inf)
    near = st.one_of(
        st.integers(-3, 3).map(lambda k: bar + k * np.spacing(bar)),
        st.floats(-2.0, 2.0).map(lambda d: bar + d),
    )
    shut = draw(st.sampled_from(["male", "female", "both", "neither"]))

    def side(name):
        h = np.array(draw(st.lists(near, min_size=1, max_size=12)))
        return np.minimum(h, below) if shut in (name, "both") else h

    hm, hf = side("male"), side("female")
    sex = np.repeat([0, 1], [hm.size, hf.size])
    avail = np.array(draw(st.lists(st.integers(0, 8), min_size=sex.size, max_size=sex.size)))
    return params, n, np.concatenate([hm, hf]), avail / 2.0, sex, shut


class TestMatingOpeningTime:
    """The engine advances every round before mating_opening_time without
    pairing anyone, so no pairing in such a round may pass the
    deterministic gate."""

    @given(crowded_rosters(), st.integers(0, 2**32 - 1))
    def test_no_pair_passes_before_opening(self, drawn, seed):
        params, n, h, avail, sex, shut = drawn
        opens = mating_opening_time(reaches_crowding_bar(n, h, params), avail, sex == 0)
        if shut != "neither":
            assert opens == np.inf
        rng = np.random.default_rng(seed)
        # Every time someone becomes available before the opening, and the
        # last float before it.
        times = {t for t in avail.tolist() if t < opens}
        if np.isfinite(opens):
            times.add(np.nextafter(opens, -np.inf))
        for t in times:
            hm = h[(sex == 0) & (avail <= t)]
            hf = h[(sex == 1) & (avail <= t)]
            iy, iz = rank_pair_indices(hm, hf)
            assert not mating_succeeds(n, hm[iy], hf[iz], params, NO_DRAWS).any()
            k = min(len(hm), len(hf))
            ry = rng.permutation(len(hm))[:k]
            rz = rng.permutation(len(hf))[:k]
            assert not mating_succeeds(n, hm[ry], hf[rz], params, NO_DRAWS).any()
        if np.isfinite(opens):
            # At the opening both sexes have someone available at the bar.
            reach = (h >= crowding_term(n, params)) & (avail <= opens)
            assert set(sex[reach].tolist()) == {0, 1}

    def test_bar_is_tight(self):
        # At h = success_a * N with a happy enough pair the veto rounds to
        # zero, so a pair exactly at the bar passes and the gate opens once
        # both are available. One ulp below the bar, it never opens.
        params = DemographicsParams()
        bar = crowding_term(1000, params)
        h = np.array([bar, bar])
        avail, sex = np.array([2.0, 3.0]), np.array([0, 1])
        assert mating_opening_time(reaches_crowding_bar(1000, h, params), avail, sex == 0) == 3.0
        assert mating_succeeds(1000, h[:1], h[1:], params, NO_DRAWS).all()
        h[0] = np.nextafter(bar, -np.inf)
        assert mating_opening_time(reaches_crowding_bar(1000, h, params), avail, sex == 0) == np.inf
        assert not mating_succeeds(1000, h[:1], h[1:], params, NO_DRAWS).any()


class TestBorn:
    def test_identical_parents_without_mutation(self):
        params = DemographicsParams(mutation_prob=0.0)
        traits = np.linspace(0.1, 0.9, 8)[None, :]
        child = born_batch(traits, traits, np.random.default_rng(0), params)
        np.testing.assert_array_equal(child, traits)

    def test_child_always_in_unit_cube(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = rng.uniform(size=(1, 8))
            m = rng.uniform(size=(1, 8))
            child = born_batch(f, m, rng, DEFAULTS)
            assert np.all(child >= 0.0) and np.all(child <= 1.0)

    def test_forced_mutation_is_uniform(self):
        params = DemographicsParams(mutation_prob=1.0)
        rng = np.random.default_rng(21)
        f = np.zeros((10_000, 8))
        m = np.ones((10_000, 8))
        children = born_batch(f, m, rng, params)
        result = stats.kstest(children.ravel(), "uniform")
        assert result.pvalue > 0.01

    def test_parent_copy_frequency_at_default_mutation(self):
        # With both parents all-ones, a child coordinate equals 1 exactly
        # iff it was copied rather than mutated: expected rate 1 - p = 0.9.
        rng = np.random.default_rng(31)
        ones = np.ones((10_000, 8))
        children = born_batch(ones, ones, rng, DEFAULTS)
        copy_rate = (children == 1.0).mean(axis=0)
        assert np.all(np.abs(copy_rate - 0.9) < 0.02)

    def test_father_copy_frequency_splits_evenly(self):
        # Father all-ones, mother all-zeros: P(coordinate == 1) = 0.9 * 0.5.
        rng = np.random.default_rng(41)
        f = np.ones((10_000, 8))
        m = np.zeros((10_000, 8))
        children = born_batch(f, m, rng, DEFAULTS)
        father_rate = (children == 1.0).mean(axis=0)
        assert np.all(np.abs(father_rate - 0.45) < 0.02)

    def test_rejects_mismatched_parents(self):
        with pytest.raises(ConfigurationError):
            born_batch(np.zeros((1, 8)), np.zeros((1, 5)), np.random.default_rng(0), DEFAULTS)


class TestExpectedChild:
    """The oracle's analytic child expectation, against which the pair
    weights and criterion 3 are checked."""

    def test_uniform_midpoint_is_a_fixed_point(self):
        half = TraitVector(np.full(8, 0.5))
        assert expected_child(half, half) == half

    def test_all_ones_parents_shrink_toward_half(self):
        ones = TraitVector(np.ones(8))
        got = expected_child(ones, ones)
        assert np.allclose(got.values, 0.95, atol=1e-15)

    def test_matches_monte_carlo_mean(self):
        rng = np.random.default_rng(55)
        f = rng.uniform(size=8)
        m = rng.uniform(size=8)
        analytic = expected_child(f, m).values
        draws = born_batch(
            np.broadcast_to(f, (100_000, 8)).copy(),
            np.broadcast_to(m, (100_000, 8)).copy(),
            np.random.default_rng(56),
            DEFAULTS,
        )
        assert np.all(np.abs(draws.mean(axis=0) - analytic) < 0.005)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_closed_form_per_coordinate(self, fv, mv):
        got = expected_child(np.full(3, fv), np.full(3, mv))
        want = 0.9 * (fv + mv) / 2.0 + 0.05
        assert got.values[0] == pytest.approx(want, abs=1e-12)
