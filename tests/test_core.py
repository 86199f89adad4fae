"""Core model types (trait vectors, the interaction matrix), happiness as
the score of traits against I theta, and the oracle's Person record and
population aggregates."""

import dataclasses
import math
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import citysim.core as core
from citysim.core import (
    INDIVIDUAL_TRAITS,
    SOCIETY_TRAITS,
    ConfigurationError,
    InteractionMatrix,
    TraitVector,
    _column_cells,
    _read_csv,
    _read_text,
    _write_csv,
    _write_json,
)
from citysim.analysis import classical_mds, cluster_summary, kmeans
from citysim.equilibrium import BimatrixGame, Equilibrium
from citysim.matching import score
from citysim.society import trait_gain
from conftest import load_json_strict
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


@pytest.mark.parametrize(
    "shape,build",
    [
        pytest.param((3,), lambda a: [TraitVector(a).values], id="TraitVector"),
        pytest.param(
            (2, 2),
            lambda a: [InteractionMatrix(a, ("i1", "i2"), ("s1", "s2")).entries],
            id="InteractionMatrix",
        ),
        pytest.param((2, 2), lambda a: attrgetter("A", "B")(BimatrixGame(a, a)), id="BimatrixGame"),
        pytest.param(
            (2,),
            lambda a: attrgetter("sigma_p", "sigma_s")(Equilibrium(a, a, ((0, 1), (0, 1)))),
            id="Equilibrium",
        ),
        pytest.param((4, 2), lambda a: [classical_mds(a, out_dim=2)], id="classical_mds"),
        pytest.param((4, 2), lambda a: kmeans(a, 2, np.random.default_rng(0))[:2], id="kmeans"),
        pytest.param(
            (4, 2),
            lambda a: [c.mean.values for c in cluster_summary(a, [0, 0, 1, 1])],
            id="cluster_summary",
        ),
    ],
)
def test_leaves_the_callers_array_writable(shape, build):
    # Every array input is copied before it is frozen, so the caller can
    # still write to it, and the write reaches nothing built from it.
    raw = np.linspace(0.1, 0.9, math.prod(shape)).reshape(shape)
    built = build(raw)
    before = [np.copy(b) for b in built]
    raw[...] = 0.5
    assert raw.flags.writeable
    for b, was in zip(built, before):
        assert np.array_equal(b, was)


class TestTraitVector:
    def test_rejects_coordinate_outside_unit_interval(self):
        # The first coordinate out of range is named by position.
        with pytest.raises(ConfigurationError, match=r"^trait vector\[0\] must be >= 0, got -2.0$"):
            TraitVector([-2.0, 0.25, 1.0, 7.5])
        with pytest.raises(ConfigurationError, match=r"^trait vector\[3\] must be <= 1, got 7.5$"):
            TraitVector([0.0, 0.25, 1.0, 7.5])
        assert list(TraitVector([0.0, 0.25, 1.0])) == [0.0, 0.25, 1.0]

    def test_dimension_is_fixed(self):
        v = TraitVector(np.zeros(8))
        assert v.dim == 8
        assert len(v) == 8

    def test_reads_compares_and_prints_by_value(self):
        v = TraitVector([0.5, 1])
        assert v[1] == 1.0 and type(v[1]) is float
        assert repr(v) == "TraitVector([0.5, 1])"
        assert v == TraitVector([0.5, 1.0]) and v != TraitVector([0.5, 0.9])
        # Against another type, == falls back to identity and is False.
        assert v != [0.5, 1.0] and v.__eq__([0.5, 1.0]) is NotImplemented

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
            st.floats(min_value=0, max_value=1) | st.floats(min_value=-50, max_value=50),
            min_size=1,
            max_size=13,
        )
    )
    def test_every_coordinate_lands_in_unit_interval(self, raw):
        # A vector is built unchanged when every coordinate is in [0, 1],
        # and rejected otherwise.
        if all(0.0 <= x <= 1.0 for x in raw):
            v = TraitVector(raw)
            assert list(v) == raw
            assert v.dim == len(raw)
        else:
            with pytest.raises(ConfigurationError, match=r"^trait vector\[\d+\] must be"):
                TraitVector(raw)


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

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda path: InteractionMatrix(np.zeros(8)), "2-D and nonempty, got shape"),
            (
                lambda path: InteractionMatrix(np.zeros((2, 1)), ("a", "a"), ("s",)),
                "trait names must be unique",
            ),
            (lambda path: InteractionMatrix(np.full((8, 13), np.nan)), "non-finite entries"),
            (lambda path: InteractionMatrix.from_csv(path("")), "empty matrix file"),
            (lambda path: InteractionMatrix.from_csv(path(",i\nrow1,high\n")), ":2: could not"),
            (lambda path: InteractionMatrix.from_csv(path(",i,j\n\n")), "no matrix rows"),
            # A blank header row loaded as a matrix of no individual traits,
            # and a scenario using it failed later without naming the file.
            # Its first row is now too wide for it.
            (
                lambda path: InteractionMatrix.from_csv(path("\ns1\ns2\n")),
                r"m\.csv:2: expected 0 cells, got 1$",
            ),
        ],
    )
    def test_input_check_names_its_field(self, tmp_path, build, message):
        def path(text):
            (tmp_path / "m.csv").write_text(text)
            return tmp_path / "m.csv"

        with pytest.raises(ConfigurationError, match=message):
            build(path)

    def test_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",i,j\n\nrow1,0.5,-0.5\n ,\nrow2,0.0,1.0\n")
        m = InteractionMatrix.from_csv(path)
        assert m.col_names == ("row1", "row2")
        assert m.entries.tolist() == [[0.5, 0.0], [-0.5, 1.0]]

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
        assert m.entries[m.row_names.index("x2"), m.col_names.index("y2")] == 1.0


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


def test_write_json_nulls_every_non_finite_float(tmp_path):
    obj = {"a": math.nan, "b": [1.5, -math.inf, {"c": np.float64(math.inf)}], "d": (2, "x")}
    _write_json(tmp_path / "x.json", obj)
    text = (tmp_path / "x.json").read_text()
    assert text.endswith("}\n")
    assert load_json_strict(tmp_path / "x.json") == {
        "a": None, "b": [1.5, None, {"c": None}], "d": [2, "x"]
    }


def test_writers_make_their_directory(tmp_path):
    _write_json(tmp_path / "a" / "b" / "x.json", {"k": 1})
    _write_csv(tmp_path / "c" / "x.csv", ["k"], [np.arange(2)])
    assert (tmp_path / "a" / "b" / "x.json").read_bytes() == b'{\n  "k": 1\n}\n'
    assert (tmp_path / "c" / "x.csv").read_bytes() == b"k\n0\n1\n"


def test_reader_drops_a_byte_order_mark(tmp_path):
    # Some spreadsheet programs save UTF-8 CSV with one; the header's first
    # cell read "\ufeffid".
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfid,a\n1,0.5\n")
    assert _read_text(path) == "id,a\n1,0.5\n"
    header, rows = _read_csv(path, "test")
    assert header == ["id", "a"] and list(rows) == [(2, ["1", "0.5"])]


def test_reader_checks_widths_as_the_rows_are_taken(tmp_path):
    # Only the first row is read before the call returns: a ragged row
    # further down raises when the caller reaches it, naming its line.
    path = tmp_path / "t.csv"
    path.write_text("id,a\n1,0.5\n\n2\n")
    header, rows = _read_csv(path, "test")
    assert next(rows) == (2, ["1", "0.5"])
    with pytest.raises(ConfigurationError, match=r"t\.csv:4: expected 2 cells, got 1$"):
        next(rows)


def _bits(*values: int) -> np.ndarray:
    return np.array(values, dtype=np.uint64).view(np.float64)


# Float cells whose repr is easy to get wrong: both zeros, nan with the
# default, another and a negative payload, both infinities, the smallest
# subnormal and a larger one, and the reprs that switch to exponent form.
AWKWARD_FLOATS = np.concatenate([
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.5e-310, 1e16, 1e-5, 0.1],
    _bits(0x7FF8000000000001, 0xFFF8000000000000),
])


def _per_cell_csv(header, columns) -> bytes:
    """The CSV the per-cell rule writes: str of every Python value."""
    rows = zip(*(map(str, col.tolist()) for col in columns))
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    return text.encode("utf-8")


# float32 bit patterns as awkward as AWKWARD_FLOATS: both zeros, three
# nans, both infinities, the smallest subnormal and 1e16.
AWKWARD_FLOAT32_BITS = [
    0x00000000, 0x80000000, 0x7FC00000, 0x7FC00001, 0xFFC00000,
    0x7F800000, 0xFF800000, 0x00000001, 0x5A0E1BCA,
]


def _repeating(n: int, values: st.SearchStrategy) -> st.SearchStrategy:
    """n cells drawn from a pool of at most four values, so cells repeat."""
    return st.lists(values, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    )


@st.composite
def csv_columns(draw) -> list[np.ndarray]:
    """Equal-length columns of every kind the writer meets. A float column
    repeats bit patterns drawn from AWKWARD_FLOATS (AWKWARD_FLOAT32_BITS)
    and a few of all 2**64 (2**32); the narrow integer columns repeat a few
    values."""
    n = draw(st.integers(0, 40))
    awkward = AWKWARD_FLOATS.view(np.uint64).tolist()
    words = st.text(st.characters(exclude_categories=("Cs",)), max_size=4)

    def ints(dtype):
        info = np.iinfo(dtype)
        return _repeating(n, st.integers(int(info.min), int(info.max))).map(
            lambda cells: np.array(cells, dtype=dtype)
        )

    kinds = {
        "float": st.lists(st.integers(0, 2**64 - 1), max_size=4).flatmap(
            lambda extra: st.lists(st.sampled_from(awkward + extra), min_size=n, max_size=n)
        ).map(lambda cells: _bits(*cells)),
        "float32": st.lists(st.integers(0, 2**32 - 1), max_size=4).flatmap(
            lambda extra: st.lists(
                st.sampled_from(AWKWARD_FLOAT32_BITS + extra), min_size=n, max_size=n
            )
        ).map(lambda cells: np.array(cells, dtype=np.uint32).view(np.float32)),
        "int": st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n).map(
            lambda cells: np.array(cells, dtype=np.int64)
        ),
        "int8": ints(np.int8),
        "uint64": ints(np.uint64),
        "bool": st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda cells: np.array(cells, dtype=bool)
        ),
        "str": st.lists(words, min_size=n, max_size=n).map(lambda cells: np.array(cells, dtype=str)),
        "object": st.lists(st.one_of(words, st.integers(), st.floats()), min_size=n, max_size=n).map(
            lambda cells: np.array(cells, dtype=object)
        ),
    }
    return draw(st.lists(st.sampled_from(sorted(kinds)).flatmap(kinds.get), min_size=1, max_size=5))


def grid_log_columns(rows: int, blocks: int = 100) -> list[np.ndarray]:
    """Columns shaped like grid_log.csv's: time repeated per block, the
    block's gx and gy, a small head count and a mean happiness that is nan
    in an empty block and otherwise nearly always distinct."""
    rng = np.random.default_rng(0)
    t = np.repeat(np.arange(rows // blocks) * 5.0, blocks)
    gx, gy = np.tile(np.stack(np.divmod(np.arange(blocks), 10)), rows // blocks)
    population = rng.integers(0, 12, size=rows)
    mean = np.where(population == 0, math.nan, rng.uniform(-2.0, 2.0, size=rows))
    return [t, gx, gy, population, mean]


class TestWriteCsv:
    @settings(derandomize=True)
    @given(csv_columns())
    @example([np.concatenate([AWKWARD_FLOATS, AWKWARD_FLOATS[::-1], [-0.0, 0.0, -0.0]])])
    @example([np.array([]), np.array([], dtype=np.int64), np.array([], dtype=str)])
    @example([
        np.array([3, -1, 3], dtype=np.int64),
        np.array(["male", "", "female"]),
        np.array(["a", 7, 1.5], dtype=object),
        np.array([1e16, -0.0, 1e16]),
    ])
    # The line end rides on the last column's cells, whatever its kind.
    @example([np.array([0.5, -0.0, 0.5]), np.array([10, -10, 10], dtype=np.int64)])
    @example([np.array([10, 10, -1], dtype=np.int64), np.array(["x", "", "x"])])
    @example([np.array([True, False, True]), np.array(["a", 22, None], dtype=object)])
    @example([np.array([], dtype=str), np.array([], dtype=np.int64)])
    @example([np.array([10, 10, -1], dtype=np.int64)])
    def test_bytes_are_the_per_cell_rule(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        header = [f"c{i}" for i in range(len(columns))]
        _write_csv(path, header, columns)
        assert path.read_bytes() == _per_cell_csv(header, columns)

    def test_cells_with_equal_bits_share_one_string(self):
        col = np.concatenate([AWKWARD_FLOATS, [0.1, -0.0, 1e16], AWKWARD_FLOATS[::-1]])
        cells = _column_cells(col)
        bits = col.view(np.int64)
        for i in range(len(col)):
            for j in range(len(col)):
                assert (cells[i] is cells[j]) == (bits[i] == bits[j]), (col[i], col[j])

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int8])
    def test_equal_integer_cells_share_one_string(self, dtype):
        # Two digits and up: CPython keeps one object per one-character
        # string, which would share those cells whatever the writer did.
        values = [10, 99, 127, 10, 42, 99, 10] + ([-10, -10] if dtype != np.uint64 else [])
        col = np.array(values, dtype=dtype)
        cells = _column_cells(col)
        for i in range(len(col)):
            for j in range(len(col)):
                assert (cells[i] is cells[j]) == (col[i] == col[j]), (col[i], col[j])

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 40])
    def test_chunks_join_into_the_per_cell_rule(self, tmp_path, monkeypatch, chunk):
        # Rows cross chunk boundaries, and a value repeats across chunks.
        monkeypatch.setattr(core, "_CSV_CHUNK_ROWS", chunk)
        columns = [
            np.array([0.5, -0.0, 0.5, math.nan, 1e16, 0.5, -0.0, 0.1, 0.1, 2.0, 0.5]),
            np.array([3, 3, -1, 10, 10, 3, 127, 10, -1, 3, 3], dtype=np.int64),
            np.array(["male", "", "female", "male", "x", "", "male", "y", "", "z", "male"]),
            np.array([True, False] * 5 + [True]),
        ]
        header = ["f", "i", "s", "b"]
        for cols in (columns, columns[::-1], columns[:1], [c[:0] for c in columns]):
            _write_csv(tmp_path / "out.csv", header[: len(cols)], cols)
            assert (tmp_path / "out.csv").read_bytes() == _per_cell_csv(header[: len(cols)], cols)

    def test_rows_stream_without_the_whole_text(self, tmp_path):
        # 200,000 rows of 5 columns, a 6 MB file, written in chunks of
        # _CSV_CHUNK_ROWS. With numpy 2.4.6 and Python 3.11.7, writing it
        # traced a peak of 16.2 MB, against 29.8 MB when every column's
        # cells were built before the first row was written, and 42.5 MB
        # when the rows were also joined into one text before the write.
        columns = grid_log_columns(200_000)
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "grid.csv", ["time", "gx", "gy", "population", "mean"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "grid.csv").stat().st_size > 5 * 2**20
        assert peak < 20 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
