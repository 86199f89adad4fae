"""Core model types (trait vectors, the interaction matrix), happiness as
the score of traits against I theta, and the oracle's Person record and
population aggregates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from citysim.core import (
    INDIVIDUAL_TRAITS,
    SOCIETY_TRAITS,
    ConfigurationError,
    InteractionMatrix,
    TraitVector,
)
from citysim.matching import score
from citysim.society import trait_gain
from reference import Person, Sex, mean_traits, total_happiness

# The default coupling table as conventionally printed: 13 society rows by
# 8 individual columns. Kept as an independent copy here so the test cannot
# inherit a transcription error from the implementation.
PRINTED = [
    [0.9, -0.5, 0.5, 0.3, 0.3, 0.7, 0.5, -0.2],
    [0.7, 0.2, 0.0, 0.0, 0.4, 0.7, 0.0, 0.0],
    [-0.1, 0.8, -0.5, -0.5, 0.0, 0.0, -1.0, 0.0],
    [-0.9, 0.9, 0.0, 0.0, 0.5, 0.6, 0.0, 0.0],
    [0.7, 0.7, 0.0, 0.4, 0.5, 0.6, 0.0, 0.0],
    [-0.5, 0.0, 0.8, -0.9, 0.0, 0.0, 0.4, 0.8],
    [0.6, 0.2, 1.0, 0.0, 0.0, 0.5, 0.8, 0.5],
    [0.0, 0.3, 0.0, 0.2, 0.0, 0.5, 0.3, 0.0],
    [-0.5, 0.5, 0.5, -0.8, 0.0, 0.5, 0.4, 1.0],
    [0.0, 0.8, -0.2, 0.0, 0.2, 0.0, 0.3, 0.0],
    [0.0, -0.8, 0.2, 0.5, 0.0, 0.0, 0.4, 0.0],
    [-0.4, 0.0, -0.5, 1.0, 0.0, 0.0, -0.3, 0.6],
    [0.2, 0.2, 0.5, -1.0, 0.0, 0.0, -0.6, -0.5],
]

# Frozen before the implementation existed: exact fsum over PRINTED.
TABLE_TOTAL = 14.9


@pytest.fixture(scope="module")
def matrix():
    return InteractionMatrix.default()


class TestTraitVector:
    def test_clips_into_unit_interval(self):
        v = TraitVector([-2.0, 0.25, 1.0, 7.5])
        assert list(v) == [0.0, 0.25, 1.0, 1.0]

    def test_dimension_is_fixed(self):
        v = TraitVector(np.zeros(8))
        assert v.dim == 8
        assert len(v) == 8

    def test_values_are_read_only(self):
        v = TraitVector([0.5, 0.5])
        with pytest.raises(ValueError):
            v.values[0] = 0.9
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.values = np.zeros(2)

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            TraitVector([0.1, float("nan")])
        with pytest.raises(ConfigurationError):
            TraitVector([float("inf"), 0.0])

    def test_rejects_empty_and_multidimensional(self):
        with pytest.raises(ConfigurationError):
            TraitVector([])
        with pytest.raises(ConfigurationError):
            TraitVector(np.zeros((2, 2)))

    def test_equality_is_by_value(self):
        assert TraitVector([0.1, 0.2]) == TraitVector([0.1, 0.2])
        assert TraitVector([0.1, 0.2]) != TraitVector([0.2, 0.1])

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=13,
        )
    )
    def test_every_coordinate_lands_in_unit_interval(self, raw):
        v = TraitVector(raw)
        assert np.all(v.values >= 0.0)
        assert np.all(v.values <= 1.0)
        assert v.dim == len(raw)


class TestInteractionMatrix:
    def test_default_shape_and_names(self, matrix):
        assert matrix.entries.shape == (8, 13)
        assert matrix.individual_dim == 8
        assert matrix.society_dim == 13
        assert matrix.row_names == INDIVIDUAL_TRAITS
        assert matrix.col_names == SOCIETY_TRAITS

    def test_default_matches_printed_table_cell_by_cell(self, matrix):
        for s in range(13):
            for p in range(8):
                assert matrix.entries[p, s] == PRINTED[s][p]

    def test_named_lookup_of_first_printed_cell(self, matrix):
        assert matrix.lookup("intellect", "literacy") == 0.9

    def test_lookup_rejects_unknown_names(self, matrix):
        with pytest.raises(ConfigurationError):
            matrix.lookup("charisma", "literacy")
        with pytest.raises(ConfigurationError):
            matrix.lookup("intellect", "weather")

    def test_rejects_entries_outside_band(self):
        with pytest.raises(ConfigurationError):
            InteractionMatrix(np.full((8, 13), 1.5))

    def test_rejects_shape_name_mismatch(self):
        with pytest.raises(ConfigurationError):
            InteractionMatrix(np.zeros((3, 13)))

    def test_entries_are_read_only(self, matrix):
        with pytest.raises(ValueError):
            matrix.entries[0, 0] = 0.0

    def test_csv_round_trip(self, matrix, tmp_path):
        path = tmp_path / "matrix.csv"
        matrix.to_csv(path)
        loaded = InteractionMatrix.from_csv(path)
        assert np.array_equal(loaded.entries, matrix.entries)
        assert loaded.row_names == matrix.row_names
        assert loaded.col_names == matrix.col_names
        assert b"\r" not in path.read_bytes()

    def test_names_fit_an_unquoted_csv_cell(self):
        for bad in ("a,b", 'a"b', "a\nb"):
            with pytest.raises(ConfigurationError, match="comma"):
                InteractionMatrix(np.zeros((1, 1)), row_names=(bad,), col_names=("s",))

    def test_csv_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",i,j\nrow1,0.5\n")
        with pytest.raises(ConfigurationError):
            InteractionMatrix.from_csv(path)

    def test_custom_small_matrix(self):
        m = InteractionMatrix(
            [[0.5, -0.5], [0.0, 1.0]],
            row_names=("x1", "x2"),
            col_names=("y1", "y2"),
        )
        assert m.lookup("x2", "y2") == 1.0


def happiness(x, matrix, theta) -> float:
    """A person's payoff as the engine computes it: score(x, I theta)."""
    return float(score(np.asarray(x, dtype=np.float64), trait_gain(theta, matrix)))


class TestHappiness:
    def test_zero_vector_annihilates(self, matrix):
        theta = TraitVector(np.random.default_rng(0).uniform(size=13))
        assert happiness(np.zeros(8), matrix, theta) == 0.0

    def test_indicator_pair_reads_first_printed_cell(self, matrix):
        x = np.eye(8)[0]
        theta = np.eye(13)[0]
        assert happiness(x, matrix, theta) == 0.9

    def test_indicator_pairs_recover_all_printed_cells(self, matrix):
        for s in range(13):
            for p in range(8):
                got = happiness(np.eye(8)[p], matrix, np.eye(13)[s])
                assert got == PRINTED[s][p], (s, p)

    def test_all_ones_sums_every_entry(self, matrix):
        oracle = math.fsum(math.fsum(row) for row in PRINTED)
        assert oracle == pytest.approx(TABLE_TOTAL, abs=1e-12)
        got = happiness(np.ones(8), matrix, np.ones(13))
        assert got == pytest.approx(TABLE_TOTAL, abs=1e-12)

    @given(
        st.lists(st.floats(-5, 5), min_size=8, max_size=8),
        st.lists(st.floats(-5, 5), min_size=13, max_size=13),
        st.floats(-3, 3),
    )
    def test_scales_linearly_in_the_individual_argument(self, xs, ts, alpha):
        m = InteractionMatrix.default()
        x = np.asarray(xs)
        theta = np.asarray(ts)
        lhs = happiness(alpha * x, m, theta)
        rhs = alpha * happiness(x, m, theta)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(
        st.lists(st.floats(0, 1), min_size=8, max_size=8),
        st.lists(st.floats(0, 1), min_size=13, max_size=13),
    )
    def test_bounded_by_signed_entry_sums(self, xs, ts):
        m = InteractionMatrix.default()
        flat = [v for row in PRINTED for v in row]
        lo = sum(v for v in flat if v < 0)
        hi = sum(v for v in flat if v > 0)
        value = happiness(np.asarray(xs), m, np.asarray(ts))
        assert lo - 1e-9 <= value <= hi + 1e-9


def _make_person(pid, traits, happy, birth=0.0, death=10.0, avail=1.0):
    return Person(
        id=pid,
        sex=Sex.MALE if pid % 2 == 0 else Sex.FEMALE,
        traits=TraitVector(traits),
        happiness=happy,
        birth_time=birth,
        death_time=death,
        next_available_time=avail,
    )


class TestPerson:
    def test_rejects_death_before_birth(self):
        with pytest.raises(ConfigurationError):
            _make_person(0, np.zeros(8), 0.0, birth=5.0, death=4.0)

    def test_rejects_availability_before_birth(self):
        with pytest.raises(ConfigurationError):
            _make_person(0, np.zeros(8), 0.0, birth=5.0, death=9.0, avail=4.0)

    def test_alive_window_is_half_open(self):
        p = _make_person(0, np.zeros(8), 0.0, birth=1.0, death=3.0, avail=2.0)
        assert not p.is_alive(0.5)
        assert p.is_alive(1.0)
        assert p.is_alive(2.9)
        assert not p.is_alive(3.0)

    def test_zero_lifespan_person_is_never_alive(self):
        p = _make_person(0, np.zeros(8), 0.0, birth=2.0, death=2.0, avail=2.0)
        assert not p.is_alive(2.0)


class TestPopulationAggregates:
    """The oracle's total happiness and mean traits, which TestReferenceTrace
    compares with run()'s log rows."""

    def test_total_happiness_empty_is_zero(self):
        assert total_happiness([]) == 0.0

    def test_total_happiness_single(self):
        assert total_happiness([_make_person(0, np.zeros(8), 0.9)]) == 0.9

    def test_total_happiness_is_linear_in_copies(self):
        people = [_make_person(i, np.zeros(8), 0.9) for i in range(7)]
        assert total_happiness(people) == pytest.approx(7 * 0.9)

    def test_total_happiness_matches_rebuild_from_birth_society_snapshots(self, matrix):
        rng = np.random.default_rng(42)
        people = []
        snapshots = []
        for i in range(50):
            traits = TraitVector(rng.uniform(size=8))
            theta = TraitVector(rng.uniform(size=13))
            people.append(_make_person(i, traits.values, happiness(traits.values, matrix, theta)))
            snapshots.append((traits, theta))
        rebuilt = math.fsum(happiness(x.values, matrix, th) for x, th in snapshots)
        assert total_happiness(people) == pytest.approx(rebuilt, abs=1e-12)

    def test_mean_traits_single_person_is_identity(self):
        p = _make_person(0, np.linspace(0, 1, 8), 0.0)
        np.testing.assert_array_equal(mean_traits([p]), p.traits.values)

    def test_mean_traits_midpoint(self):
        people = [
            _make_person(0, np.zeros(8), 0.0),
            _make_person(1, np.ones(8), 0.0),
        ]
        np.testing.assert_array_equal(mean_traits(people), np.full(8, 0.5))

    def test_mean_traits_matches_per_coordinate_average(self):
        rng = np.random.default_rng(7)
        rows = [rng.uniform(size=8) for _ in range(3)]
        people = [_make_person(i, row, 0.0) for i, row in enumerate(rows)]
        got = mean_traits(people)
        for k in range(8):
            oracle = (rows[0][k] + rows[1][k] + rows[2][k]) / 3.0
            assert got[k] == pytest.approx(oracle, abs=1e-15)
