"""Pair weights, the exact assignment solve, rank pairing, and the
partitioned matching of the Person-level oracle."""

import ast
import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

import citysim
from citysim.core import ConfigurationError, InteractionMatrix, TraitVector
from citysim.demographics import (
    DemographicsParams,
    crowding_term,
    mating_succeeds,
    reaches_crowding_bar,
)
from citysim.engine import (
    MatchingConfig,
    PopulationGroup,
    Roster,
    SimConfig,
    _assign,
    _block_penalty,
    _CostBuffers,
    _match_pairs,
    run,
)
from citysim import engine
from citysim.matching import (
    MatchMode,
    expected_pair_weights,
    grid_distances,
    rank_pair_indices,
    score,
)
from citysim.presets import get_preset
from citysim.society import trait_gain
from reference import Person, Sex, expected_child, partitioned_match

MATRIX = InteractionMatrix.default()
DEFAULTS = DemographicsParams()
# The generator the deterministic success rule is given; it draws nothing.
NO_DRAWS = np.random.default_rng(0)


def make_person(pid, sex, traits, happy=0.5, location=None):
    return Person(
        id=pid,
        sex=sex,
        traits=TraitVector(traits),
        happiness=happy,
        birth_time=0.0,
        death_time=100.0,
        next_available_time=0.0,
        location=location,
    )


def random_people(rng, n, sex, start_id=0, grid=None):
    people = []
    for i in range(n):
        loc = tuple(int(v) for v in rng.integers(0, grid, size=2)) if grid else None
        people.append(make_person(start_id + i, sex, rng.uniform(size=8), location=loc))
    return people


def traits_of(people):
    return np.stack([p.traits.values for p in people]) if people else np.zeros((0, 8))


def clean_weights(Y, Z, theta, params=None):
    p = (params or DemographicsParams()).mutation_prob
    gain = MATRIX.entries @ np.asarray(theta, dtype=np.float64)
    return expected_pair_weights(traits_of(Y), traits_of(Z), gain, p)


def solve(W):
    """(pairs, total) of scipy's exact maximum-weight solve."""
    rows, cols = linear_sum_assignment(W, maximize=True)
    return list(zip(rows.tolist(), cols.tolist())), float(W[rows, cols].sum())


def permutation_maximum(W):
    """All-permutations oracle; same gather-and-sum as the solver's total."""
    ky, kz = W.shape
    if ky <= kz:
        perms = np.array(list(itertools.permutations(range(kz), ky)))
        totals = W[np.arange(ky)[None, :], perms].sum(axis=1)
    else:
        perms = np.array(list(itertools.permutations(range(ky), kz)))
        totals = W[perms, np.arange(kz)[None, :]].sum(axis=1)
    return totals.max()


class TestSolveAssignment:
    def test_single_cell(self):
        assert solve(np.array([[5.0]])) == ([(0, 0)], 5.0)

    def test_two_by_two_unique_optimum(self):
        assert solve(np.array([[2.0, 1.0], [1.0, 2.0]])) == ([(0, 0), (1, 1)], 4.0)

    def test_empty_matrix_gives_empty_plan(self):
        assert solve(np.zeros((0, 3))) == ([], 0.0)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_permutation_brute_force(self, k):
        rng = np.random.default_rng(1000 + k)
        for _ in range(30):
            W = rng.uniform(-1, 1, size=(k, k))
            assert solve(W)[1] == permutation_maximum(W)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
    def test_rectangular_matches_brute_force_and_covers_small_side(self, shape):
        # The engine relies on the row indices coming back sorted.
        rng = np.random.default_rng(7)
        for _ in range(20):
            W = rng.uniform(-1, 1, size=shape)
            pairs, total = solve(W)
            assert len(pairs) == min(shape)
            assert [r for r, _ in pairs] == sorted(r for r, _ in pairs)
            assert total == permutation_maximum(W)

    def test_plan_is_stable_under_weight_translation(self):
        rng = np.random.default_rng(42)
        W = rng.uniform(size=(6, 6))
        assert solve(W)[0] == solve(W + 17.25)[0]


def locality_roster(y_traits, z_traits, y_block, z_block):
    """Males first, then females, in the given block codes; every person is
    alive and available."""
    traits = np.ascontiguousarray(np.vstack([y_traits, z_traits]).T)
    n = traits.shape[1]
    return Roster(
        ids=np.arange(n, dtype=np.int64),
        sex=np.array([0] * len(y_traits) + [1] * len(z_traits), dtype=np.int8),
        traits=traits,
        happiness=np.ones(n),
        birth=np.zeros(n),
        death=np.full(n, 100.0),
        avail=np.zeros(n),
        block=np.array(list(y_block) + list(z_block), dtype=np.int64),
    )


class TestBuildWeights:
    def test_cells_equal_expected_child_payoff(self):
        rng = np.random.default_rng(3)
        Y = random_people(rng, 5, Sex.MALE)
        Z = random_people(rng, 4, Sex.FEMALE, start_id=5)
        theta = TraitVector(rng.uniform(size=13))
        W = clean_weights(Y, Z, theta.values)
        for i, y in enumerate(Y):
            for j, z in enumerate(Z):
                child = expected_child(y.traits, z.traits).values
                oracle = score(child, trait_gain(theta, MATRIX))
                assert W[i, j] == pytest.approx(oracle, abs=1e-12)

    def test_indicator_pair_without_mutation_reads_matrix_cell(self):
        params = DemographicsParams(mutation_prob=1e-12)
        e_a = np.eye(8)[0]
        Y = [make_person(0, Sex.MALE, e_a)]
        Z = [make_person(1, Sex.FEMALE, e_a)]
        W = clean_weights(Y, Z, np.eye(13)[0], params)
        assert W[0, 0] == pytest.approx(0.9, abs=1e-9)

    def test_locality_penalty_subtracts_gamma_times_distance(self):
        # One male at (0, 0); the female in his block scores lower than the
        # one two hamming steps away. The engine's locality weights pick the
        # nearer female exactly when gamma * 2 outweighs the payoff gap.
        y = np.full((1, 8), 0.5)
        z = np.array([np.full(8, 0.2), np.full(8, 0.8)])
        cfg = SimConfig(
            seed=1,
            groups=(PopulationGroup(3, TraitVector([0.5] * 8)),),
            theta0=TraitVector([0.6] * 13),
            grid=(2, 2),
            matching=MatchingConfig(mode=MatchMode.LOCALITY),
        )
        gain = MATRIX.entries @ cfg.theta0.values
        alpha = (1.0 - cfg.demographics.mutation_prob) / 2.0
        gap = alpha * float((z[1] - z[0]) @ gain)
        # Blocks (0, 0) and (1, 1) of the 2 x 2 grid are codes 0 and 3.
        roster = locality_roster(y, z, [0], [0, 3])
        for gamma, partner in ((0.9 * gap / 2, 2), (1.1 * gap / 2, 1)):
            c = replace(cfg, matching=MatchingConfig(mode=MatchMode.LOCALITY, gamma=gamma))
            # run() hands _match_pairs the table negated, so it adds the penalty cells.
            sel_y, sel_z = _match_pairs(
                roster, np.array([0]), np.array([1, 2]), gain, c, 0, -_block_penalty(c), None,
                _CostBuffers(),
            )
            assert (sel_y.tolist(), sel_z.tolist()) == ([0], [partner])

    def test_locality_same_block_is_unpenalized(self):
        rng = np.random.default_rng(9)
        loc = rng.integers(0, 4, size=(3, 2))
        for metric in ("hamming", "manhattan"):
            assert np.all(np.diag(grid_distances(loc, loc, metric)) == 0.0)

    def test_locality_needs_locations(self):
        with pytest.raises(ConfigurationError):
            SimConfig(
                seed=1,
                groups=(PopulationGroup(3, TraitVector([0.5] * 8)),),
                theta0=TraitVector([0.6] * 13),
                matching=MatchingConfig(mode=MatchMode.LOCALITY),
            )

    def test_noisy_weights_reproducible_per_seed(self):
        cfg = SimConfig(
            seed=8,
            groups=(PopulationGroup(16, TraitVector([0.6] * 8), 0.2),),
            theta0=TraitVector([0.6] * 13),
            matching=MatchingConfig(mode=MatchMode.NOISY),
            max_time=5.0,
        )
        a, b = run(cfg), run(cfg)
        assert a.births.sum() > 0
        assert np.array_equal(a.final_population.traits, b.final_population.traits)
        assert np.array_equal(a.final_population.avail, b.final_population.avail)

    def test_empty_side_yields_empty_matrix(self):
        assert clean_weights([], [], np.ones(13)).shape == (0, 0)


class TestGridDistances:
    def test_hamming_counts_unequal_coordinates(self):
        y = np.array([[0, 0], [1, 2]])
        z = np.array([[0, 0], [1, 0], [2, 2]])
        D = grid_distances(y, z, "hamming")
        assert D.tolist() == [[0.0, 1.0, 2.0], [2.0, 1.0, 1.0]]

    def test_manhattan_alternative(self):
        y = np.array([[0, 0]])
        z = np.array([[3, 4]])
        assert grid_distances(y, z, "manhattan")[0, 0] == 7.0

    @pytest.mark.parametrize("metric", ["hamming", "manhattan"])
    def test_block_table_equals_dense_formula(self, metric):
        # The engine subtracts gamma * distance by looking it up per block
        # pair; the lookup must equal the per-person formula bit for bit.
        rng = np.random.default_rng(41)
        for grid, gamma in (((1, 1), 0.3), ((3, 5), 0.7), ((10, 10), 1.0 / 3.0)):
            cfg = SimConfig(
                seed=1,
                groups=(PopulationGroup(3, TraitVector([0.5] * 8)),),
                theta0=TraitVector([0.6] * 13),
                grid=grid,
                matching=MatchingConfig(mode=MatchMode.LOCALITY, gamma=gamma, distance=metric),
            )
            loc_y = rng.integers(0, grid, size=(60, 2))
            loc_z = rng.integers(0, grid, size=(45, 2))
            code_y, code_z = (loc[:, 0] * grid[1] + loc[:, 1] for loc in (loc_y, loc_z))
            table = _block_penalty(cfg)[np.ix_(code_y, code_z)]
            assert np.array_equal(table, gamma * grid_distances(loc_y, loc_z, metric))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_distances(np.zeros((1, 2)), np.zeros((1, 2)), "euclid")


class TestRankPairing:
    @staticmethod
    def totals(Y, Z, theta):
        gain = MATRIX.entries @ theta.values
        iy, iz = rank_pair_indices(traits_of(Y) @ gain, traits_of(Z) @ gain)
        W = clean_weights(Y, Z, theta.values)
        return iy, float(W[iy, iz].sum()), solve(W)[1]

    @pytest.mark.parametrize("ky,kz", [(6, 6), (7, 5), (5, 7), (1, 1), (40, 40)])
    def test_total_matches_full_solve(self, ky, kz):
        rng = np.random.default_rng(ky * 100 + kz)
        Y = random_people(rng, ky, Sex.MALE)
        Z = random_people(rng, kz, Sex.FEMALE, start_id=ky)
        theta = TraitVector(rng.uniform(size=13))
        iy, fast, full = self.totals(Y, Z, theta)
        assert fast == pytest.approx(full, abs=1e-9)
        assert len(iy) == min(ky, kz)

    def test_total_matches_full_solve_under_ties(self):
        # Quantized traits force many exactly-equal scores.
        rng = np.random.default_rng(17)
        Y = [make_person(i, Sex.MALE, rng.integers(0, 2, size=8)) for i in range(9)]
        Z = [make_person(20 + i, Sex.FEMALE, rng.integers(0, 2, size=8)) for i in range(9)]
        _, fast, full = self.totals(Y, Z, TraitVector(np.full(13, 0.5)))
        assert fast == pytest.approx(full, abs=1e-9)

    def test_empty_sides(self):
        iy, iz = rank_pair_indices(np.zeros(0), np.zeros(3))
        assert iy.size == 0 and iz.size == 0


@st.composite
def trait_columns(draw, max_n=60):
    """A (8, n) trait block whose columns repeat a few distinct people, so
    exact clones, and with them exact score ties, are common."""
    n = draw(st.integers(1, max_n))
    distinct = draw(st.integers(1, n))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    pool = draw(arrays(np.float64, (8, distinct), elements=unit))
    pick = draw(arrays(np.int64, n, elements=st.integers(0, distinct - 1)))
    return np.ascontiguousarray(pool[:, pick])


society_vectors = arrays(np.float64, 13, elements=st.floats(0.0, 1.0, allow_nan=False))


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


class TestScoreAndTieRule:
    """Scores come from one elementwise kernel, and ranking orders by score
    descending, then id ascending."""

    @given(trait_columns(), society_vectors, st.data())
    def test_scores_are_bitwise_invariant_to_order_and_subset(self, cols, theta, data):
        gain = trait_gain(theta, MATRIX)
        n = cols.shape[1]
        full = score(cols, gain)
        perm = np.array(data.draw(st.permutations(range(n))))
        sub = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
        assert bits(score(np.ascontiguousarray(cols[:, perm]), gain)) == bits(full[perm])
        assert bits(score(cols[:, sub], gain)) == bits(full[sub])
        # One person alone, and the row-major (n, 8) layout read as columns.
        assert all(bits(score(cols[:, i], gain)) == bits(full[i]) for i in range(n))
        assert type(score(cols[:, 0], gain)) is np.float64
        assert bits(score(np.ascontiguousarray(cols.T).T, gain)) == bits(full)

    @given(st.integers(2, 30), st.data())
    def test_exact_clones_pair_lower_id_first(self, clones, data):
        # `clones` equal top scorers among lower-scoring men; fewer women
        # than clones, so the cut falls inside the clone group.
        n = clones + data.draw(st.integers(0, 30))
        a = np.full(n, 0.25)
        top = np.sort(data.draw(st.permutations(range(n)))[:clones])
        a[top] = 0.75
        k = data.draw(st.integers(1, clones - 1))
        b = np.array(data.draw(st.lists(st.floats(0, 1), min_size=k, max_size=k)))
        iy, iz = rank_pair_indices(a, b)
        assert iy.tolist() == top[:k].tolist()
        assert iz.tolist() == np.lexsort((np.arange(k), -b)).tolist()

    @given(trait_columns(), trait_columns(), society_vectors, st.data())
    def test_pairs_by_id_ignore_roster_order(self, ys, zs, theta, data):
        # The engine ranks rows kept in id order with a stable sort. The
        # same pairs, by id, come from a shuffled roster ranked on the
        # explicit key (score descending, id ascending).
        gain = trait_gain(theta, MATRIX)
        ids_y = np.arange(ys.shape[1])
        ids_z = 1000 + np.arange(zs.shape[1])
        iy, iz = rank_pair_indices(score(ys, gain), score(zs, gain))
        engine_pairs = list(zip(ids_y[iy].tolist(), ids_z[iz].tolist()))

        def shuffled_top(cols, ids):
            perm = np.array(data.draw(st.permutations(range(len(ids)))))
            s = score(np.ascontiguousarray(cols[:, perm]), gain)
            return ids[perm][np.lexsort((ids[perm], -s))]

        k = min(len(ids_y), len(ids_z))
        ky, kz = shuffled_top(ys, ids_y)[:k], shuffled_top(zs, ids_z)[:k]
        assert engine_pairs == list(zip(ky.tolist(), kz.tolist()))

    @pytest.mark.parametrize(
        "cols_shape, g_shape",
        [((8, 1), (8,)), ((8, 2), (8,)), ((8, 64), (8,)), ((8, 65), (8,)), ((8, 300), (8,)),
         ((13, 1, 1), (13, 8))],
    )
    def test_rows_add_left_to_right(self, cols_shape, g_shape):
        # score's blocks of up to 64 cells a row take a running sum, longer
        # ones a loop; both must add the rows in order, which a reduction
        # over the rows (pairwise at one column) would not. Magnitudes
        # spread over 16 decades, so another order shows in the bits.
        rng = np.random.default_rng(cols_shape[-1] + len(cols_shape))
        for _ in range(200):
            cols = rng.normal(size=cols_shape) * 10.0 ** rng.integers(-8, 9, size=cols_shape)
            g = rng.normal(size=g_shape)
            products = cols * g.reshape(g.shape + (1,) * (cols.ndim - g.ndim))
            total = products[0]
            for row in products[1:]:
                total = total + row
            assert bits(score(cols, g)) == bits(total)

    def test_weights_from_scores_equal_weights_from_rows(self):
        rng = np.random.default_rng(5)
        y, z = rng.uniform(size=(6, 8)), rng.uniform(size=(4, 8))
        gain = trait_gain(rng.uniform(size=13), MATRIX)
        W = expected_pair_weights(score(y.T, gain), score(z.T, gain), gain, 0.1)
        assert bits(W) == bits(expected_pair_weights(y, z, gain, 0.1))

    @pytest.mark.parametrize("module", ["core", "demographics", "matching", "society", "engine"])
    def test_simulation_modules_make_no_blas_products(self, module):
        # Every trait product in these modules goes through score(); a `@`
        # or a BLAS call would round by shape and thread count. analysis.py
        # and equilibrium.py are not scanned: their products are MDS and
        # game payoffs, not trait scores.
        tree = ast.parse((Path(citysim.__file__).parent / f"{module}.py").read_text())
        found = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"line {node.lineno}: @")
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in ("dot", "matmul", "einsum", "inner"):
                    found.append(f"line {node.lineno}: {name}()")
        assert not found, f"{module}.py: {found}"


@st.composite
def gate_rounds(draw):
    """One active round under the deterministic rule with global N: params,
    N, then each side's (8, n) trait columns, rich in clones, and its frozen
    happiness, drawn around the crowding bar. Sides differ in size, and on
    each nobody, everybody or some of its people reach the bar."""
    params = DemographicsParams(
        success_a=draw(st.floats(1e-4, 0.5)), success_scale=draw(st.floats(0.5, 60.0))
    )
    n = draw(st.integers(0, 5000))
    bar = crowding_term(n, params)
    near = st.one_of(
        st.integers(-2, 2).map(lambda k: bar + k * np.spacing(bar)),
        st.floats(-1.0, 1.0).map(lambda d: bar + d),
    )

    def side():
        cols = draw(trait_columns(max_n=30))
        h = np.array(draw(st.lists(near, min_size=cols.shape[1], max_size=cols.shape[1])))
        reach = draw(st.sampled_from(["some", "none", "all"]))
        if reach == "none":
            h = np.minimum(h, np.nextafter(bar, -np.inf))
        elif reach == "all":
            h = np.maximum(h, bar)
        return cols, h

    return params, n, *side(), *side()


def gate_round(hy, hz, y_scores, z_scores):
    """An explicit gate_rounds value at the default params and N = 1000, so
    the bar is 2. Every trait of a person is their score / 8, which a gain
    of ones scores back exactly."""
    y, z = (np.tile(np.array(s, float) / 8, (8, 1)) for s in (y_scores, z_scores))
    return DemographicsParams(), 1000, y, np.array(hy, float), z, np.array(hz, float)


ONES = np.ones(8)


@st.composite
def assign_rounds(draw, relation):
    """A tie-heavy round for _assign: small integer scores, gain and noise
    or penalty cells, k_y less than, equal to or more than k_z (relation),
    and the two sides' roster rows in a random order. Returns _assign's
    arguments after buffers but for the last, and the round's term: a
    ("noise", cells) pair, or ("penalty", cells) with the cells gathered
    from a symmetric block table by each side's block codes."""

    def ints(shape, low, high):
        return draw(arrays(np.float64, shape, elements=st.integers(low, high)))

    short, extra = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    ky, kz = {
        "<": (short, short + extra),
        "=": (short, short),
        ">": (short + extra, short),
    }[relation]
    n = ky + kz + draw(st.integers(0, 2))
    rows = np.array(draw(st.permutations(range(n))))
    mutation_prob = draw(st.sampled_from([0.0, 0.5]))
    args = (ints(n, 0, 3), rows[:ky], rows[ky : ky + kz], ints(8, 0, 2), mutation_prob)
    if draw(st.booleans()):
        return args, ("noise", ints((ky, kz), -2, 2))
    half = ints((4, 4), 0, 2)
    block = draw(arrays(np.int64, n, elements=st.integers(0, 3)))
    return args, ("penalty", (half + half.T)[block[args[1]]][:, block[args[2]]])


class TestReusedCostBuffers:
    """The assignment modes build each cost matrix, negated and with the
    shorter side as rows, in buffers that one run() reuses."""

    @pytest.mark.parametrize("relation", ["<", "=", ">"])
    @settings(derandomize=True)
    @given(data=st.data())
    def test_pairs_equal_scipy_maximize(self, relation, data):
        (scores, by, bz, gain, p), (kind, cells) = data.draw(assign_rounds(relation))
        W = expected_pair_weights(scores[by], scores[bz], gain, p)
        if kind == "noise":
            W += cells
        else:
            # Locality rounds add the negated penalty: W + (-P) is W - P.
            W -= cells
            cells = -cells
        rows, cols = linear_sum_assignment(W, maximize=True)
        # Buffers left over from a larger round, their stale cells nan: a
        # stale cell that leaked into the solve would raise or move a pair.
        buffers = _CostBuffers()
        k = len(by) + len(bz)
        buffers.cost(k, k + 1).fill(np.nan)
        buffers.aux(k * (k + 1)).fill(np.nan)
        # The term sits at the front of the companion buffer, as a round puts it.
        extra = buffers.aux(cells.size).reshape(cells.shape)
        extra[...] = cells
        sel_y, sel_z = _assign(buffers, scores, by, bz, gain, p, extra)
        assert np.array_equal(sel_y, by[rows]) and np.array_equal(sel_z, bz[cols])

    def test_weights_written_into_out(self):
        rng = np.random.default_rng(11)
        y, z = rng.uniform(size=(6, 8)), rng.uniform(size=(4, 8))
        gain = trait_gain(rng.uniform(size=13), MATRIX)
        for a, b in ((score(y.T, gain), score(z.T, gain)), (y, z)):
            buf = np.full((6, 4), np.nan)
            assert expected_pair_weights(a, b, gain, 0.1, out=buf) is buf
            assert bits(buf) == bits(expected_pair_weights(a, b, gain, 0.1))

    @pytest.mark.parametrize(
        "preset, mode, horizon",
        [("locality-grid-10x10", None, 200.0), ("matching-comparison", MatchMode.NOISY, 100.0)],
    )
    def test_rounds_reuse_the_cost_buffer(self, monkeypatch, preset, mode, horizon):
        config = replace(get_preset(preset).config, max_time=horizon)
        if mode is not None:
            config = replace(config, matching=replace(config.matching, mode=mode))
        solve = engine.linear_sum_assignment
        calls = []

        def spy_solve(cost):
            # scipy copies a cost that is not C-ordered float64, and
            # transposes a copy of one with more rows than columns.
            assert cost.dtype == np.float64 and cost.flags.c_contiguous
            assert cost.shape[0] <= cost.shape[1]
            calls.append((cost.base, cost.size))
            return solve(cost)

        monkeypatch.setattr(engine, "linear_sum_assignment", spy_solve)
        run(config)
        # A new buffer appears only when a round needs more cells than any
        # round before it.
        seen, most = [], 0
        for base, cells in calls:
            if not any(base is b for b in seen):
                assert cells > most
                seen.append(base)
            most = max(most, cells)
        assert len(calls) >= 40
        assert len(seen) <= len(calls) / 10

    @pytest.mark.parametrize(
        "preset, mode",
        [
            ("matching-comparison", MatchMode.NOISY),
            ("matching-comparison", MatchMode.PARTITIONED),
            ("locality-grid-10x10", MatchMode.LOCALITY),
        ],
    )
    def test_one_weights_call_per_solve(self, monkeypatch, preset, mode):
        # Every assignment round, each partitioned block included, builds
        # its cost through one expected_pair_weights call: the boundary
        # perfbench's matching.weights span times.
        config = replace(get_preset(preset).config, max_time=200.0)
        config = replace(config, matching=replace(config.matching, mode=mode))
        weights, solve = engine.expected_pair_weights, engine.linear_sum_assignment
        calls = []

        def spy_weights(*args, **kwargs):
            calls.append("weights")
            return weights(*args, **kwargs)

        def spy_solve(cost):
            calls.append("solve")
            return solve(cost)

        monkeypatch.setattr(engine, "expected_pair_weights", spy_weights)
        monkeypatch.setattr(engine, "linear_sum_assignment", spy_solve)
        run(config)
        assert calls.count("solve") >= 40
        assert calls == ["weights", "solve"] * calls.count("solve")


class TestSeparableWeights:
    """The pair weights are separable, w_ij = alpha * (a_i + b_j) + c. In a
    full assignment each person on the shorter side adds their own
    alpha * a_i + c whoever their partner is, so that side's scores never
    move a pair: among the chosen people, noisy and partitioned rounds pair
    by the noise alone. Locality is left out, as its ties are exact."""

    @pytest.mark.parametrize("mode", [MatchMode.NOISY, MatchMode.PARTITIONED])
    @pytest.mark.parametrize("relation", ["<", "=", ">"])
    @settings(derandomize=True)
    @given(data=st.data())
    def test_shorter_sides_scores_move_no_pair(self, mode, relation, data):
        short, extra = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6))
        ky, kz = {
            "<": (short, short + extra),
            "=": (short, short),
            ">": (short + extra, short),
        }[relation]
        # The traits and the round's noise are continuous draws, so no two
        # assignments tie.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        matching = MatchingConfig(
            mode=mode,
            partition_size=data.draw(st.integers(1, 5)),
            noise_sigma=data.draw(st.sampled_from([0.1, 1.0])),
        )
        config = SimConfig(
            seed=data.draw(st.integers(0, 2**32 - 1)),
            groups=(PopulationGroup(1, TraitVector([0.5] * 8)),),
            theta0=TraitVector(rng.uniform(size=13)),
            demographics=DemographicsParams(mutation_prob=data.draw(st.sampled_from([0.0, 0.5]))),
            matching=matching,
        )
        gain = trait_gain(config.theta0, MATRIX)
        k = data.draw(st.integers(1, 1000))
        y, z = rng.uniform(size=(ky, 8)), rng.uniform(size=(kz, 8))

        def pairs(y, z):
            roster = locality_roster(y, z, [0] * ky, [0] * kz)
            yi, zi = np.arange(ky), ky + np.arange(kz)
            sel_y, sel_z = _match_pairs(roster, yi, zi, gain, config, k, None, None, _CostBuffers())
            return sel_y.tolist(), sel_z.tolist()

        before = pairs(y, z)
        # New traits, so new scores, for the shorter side: the men when the
        # sides are equal. In a partitioned round that side is the shorter
        # one, or as long, in every block.
        if ky <= kz:
            y = rng.uniform(size=y.shape)
        else:
            z = rng.uniform(size=z.shape)
        assert pairs(y, z) == before


class TestGatePrefix:
    """Under the deterministic rule with global N, the engine's optimal
    matching ranks each side only down to its lowest-scoring reacher of
    the crowding bar (ties included). The pairs that pass the gate must be
    those of the full ranking."""

    @settings(derandomize=True)
    @given(gate_rounds(), society_vectors.map(lambda theta: trait_gain(theta, MATRIX)))
    # Five male clones tie at the lowest reacher's score, and three of them
    # after it fall short of the bar; eight females all reach it.
    @example(gate_round([3, 1, 3, 1, 1, 1], [3] * 8, [4] * 5 + [1], range(8, 0, -1)), ONES)
    # Nobody on the female side reaches the bar.
    @example(gate_round([3, 1, 3], [1, 1, 1.5, 1], [4, 3, 2], [4, 4, 3, 1]), ONES)
    # Everyone reaches it, on sides of unequal size.
    @example(gate_round([3] * 4, [2] * 6, [4, 4, 3, 1], [5, 2, 2, 2, 1, 1]), ONES)
    def test_cut_keeps_the_passing_pairs(self, drawn, gain):
        params, n, ys, hy, zs, hz = drawn
        ny, nz = ys.shape[1], zs.shape[1]
        roster = Roster(
            ids=np.arange(ny + nz, dtype=np.int64),
            sex=np.repeat(np.array([0, 1], dtype=np.int8), [ny, nz]),
            traits=np.ascontiguousarray(np.hstack([ys, zs])),
            happiness=np.concatenate([hy, hz]),
            birth=np.zeros(ny + nz),
            death=np.full(ny + nz, 100.0),
            avail=np.zeros(ny + nz),
            block=None,
        )
        yi, zi = np.arange(ny), ny + np.arange(nz)
        cfg = SimConfig(
            seed=1,
            groups=(PopulationGroup(2, TraitVector([0.5] * 8)),),
            theta0=TraitVector([0.5] * 13),
        )
        reach = reaches_crowding_bar(n, roster.happiness, params)
        full = _match_pairs(roster, yi, zi, gain, cfg, 0, None, None, _CostBuffers())
        cut = _match_pairs(roster, yi, zi, gain, cfg, 0, None, reach, _CostBuffers())

        def passing(sel_y, sel_z):
            h = roster.happiness
            ok = mating_succeeds(n, h[sel_y], h[sel_z], params, NO_DRAWS)
            return list(zip(sel_y[ok].tolist(), sel_z[ok].tolist()))

        assert passing(*cut) == passing(*full)
        # The cut pairs are the leading pairs of the full ranking.
        k = cut[0].size
        assert all(np.array_equal(c, f[:k]) for c, f in zip(cut, full))


class TestPartitionedMatch:
    """The oracle's Person-level partitioned matching, which the reference
    trace ties row for row to the engine's."""

    @staticmethod
    def match(Y, Z, theta, size, rng):
        gain = MATRIX.entries @ np.asarray(theta, dtype=np.float64)
        return partitioned_match(Y, Z, gain, 0.1, size, 1.0, rng)

    def test_block_size_one_is_random_pairing(self):
        rng = np.random.default_rng(4)
        Y = random_people(rng, 8, Sex.MALE)
        Z = random_people(rng, 6, Sex.FEMALE, start_id=8)
        pairs = self.match(Y, Z, np.ones(13), 1, np.random.default_rng(1))
        assert len(pairs) == 6
        males = [m.id for m, _ in pairs]
        assert len(set(males)) == len(males)

    def test_reproducible_per_seed(self):
        rng = np.random.default_rng(14)
        Y = random_people(rng, 10, Sex.MALE)
        Z = random_people(rng, 10, Sex.FEMALE, start_id=10)
        p1 = self.match(Y, Z, np.ones(13), 3, np.random.default_rng(5))
        p2 = self.match(Y, Z, np.ones(13), 3, np.random.default_rng(5))
        assert [(m.id, f.id) for m, f in p1] == [(m.id, f.id) for m, f in p2]

    def test_never_beats_global_optimum_on_clean_weights(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            Y = random_people(rng, 9, Sex.MALE)
            Z = random_people(rng, 9, Sex.FEMALE, start_id=9)
            theta = rng.uniform(size=13)
            clean = clean_weights(Y, Z, theta)
            part = self.match(Y, Z, theta, 3, np.random.default_rng(trial))
            clean_total = sum(clean[m.id, f.id - 9] for m, f in part)
            assert clean_total <= solve(clean)[1] + 1e-9

    def test_rejects_silly_partition_size(self):
        with pytest.raises(ConfigurationError):
            MatchingConfig(mode=MatchMode.PARTITIONED, partition_size=0)
        with pytest.raises(ConfigurationError):
            self.match([], [], np.ones(13), 0, np.random.default_rng(0))

    def test_empty_sides(self):
        assert self.match([], [], np.ones(13), 4, np.random.default_rng(0)) == []


class TestPlanMatings:
    """The success gate the engine applies to its matched pairs: one
    mating_succeeds call over the partners' happiness arrays."""

    def test_empty_plan(self):
        ok = mating_succeeds(10, np.zeros(0), np.zeros(0), DEFAULTS, NO_DRAWS)
        assert ok.shape == (0,)

    def test_threshold_filters_unhappy_pairs(self):
        ok = mating_succeeds(4, np.array([1.0, -1.0]), np.array([1.0, -1.0]), DEFAULTS, NO_DRAWS)
        assert ok.tolist() == [True, False]

    def test_all_pairs_below_threshold(self):
        ok = mating_succeeds(2, np.array([-2.0, -2.0]), np.array([-2.0, 1.0]), DEFAULTS, NO_DRAWS)
        assert ok.tolist() == [False, False]
