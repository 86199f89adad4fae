"""Pure and mixed equilibrium enumeration."""

import numpy as np
import pytest

from citysim.core import ConfigurationError, InteractionMatrix
from citysim.equilibrium import (
    BimatrixGame,
    Equilibrium,
    pure_nash,
    support_enumeration_report,
    verify_equilibrium,
)
from reference import brute_force_pure, oracle_equilibria

# Simultaneous row/column best responses of the default matrix, read off the
# printed table by hand before the implementation existed. Row-major in the
# (individual, society) orientation.
DEFAULT_PURE_CELLS = [(0, 0), (1, 3), (2, 6), (3, 11), (5, 1), (7, 8)]


def common_game():
    return BimatrixGame.common_interest(InteractionMatrix.default())


class TestPureNash:
    def test_two_by_two_coordination(self):
        eye = np.eye(2)
        assert pure_nash(BimatrixGame(eye, eye)) == [(0, 0), (1, 1)]

    def test_strictly_dominant_cell(self):
        A = np.array([[5.0, 1.0], [0.0, 2.0]])
        B = np.array([[5.0, 0.0], [1.0, 2.0]])
        # (0,0) dominates for both; (1,1) is also a mutual best response.
        A[1, 1] = -1.0
        B[1, 1] = -1.0
        assert pure_nash(BimatrixGame(A, B)) == [(0, 0)]

    def test_default_matrix_matches_brute_force(self):
        game = common_game()
        assert pure_nash(game) == brute_force_pure(game.A, game.B)

    def test_default_matrix_frozen_cell_list(self):
        assert pure_nash(common_game()) == DEFAULT_PURE_CELLS

    def test_random_games_match_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            A = rng.uniform(-1, 1, size=(4, 5))
            B = rng.uniform(-1, 1, size=(4, 5))
            game = BimatrixGame(A, B)
            assert pure_nash(game) == brute_force_pure(A, B)


class TestVerifyEquilibrium:
    def pure_eq(self, game, i, j):
        m, n = game.shape
        sp = np.zeros(m)
        sp[i] = 1.0
        ss = np.zeros(n)
        ss[j] = 1.0
        return Equilibrium(
            sigma_p=sp,
            sigma_s=ss,
            supports=((i,), (j,)),
        )

    def test_every_pure_nash_cell_verifies(self):
        game = common_game()
        for i, j in pure_nash(game):
            assert verify_equilibrium(game, self.pure_eq(game, i, j))

    def test_non_row_maximal_cell_fails(self):
        game = common_game()
        # (intellect, living_standards) is a column max but not a row max.
        assert (0, 1) not in pure_nash(game)
        assert not verify_equilibrium(game, self.pure_eq(game, 0, 1))

    def test_perturbed_mixed_equilibrium_fails(self):
        eye = np.eye(2)
        game = BimatrixGame(eye, eye)
        mixed = Equilibrium(
            sigma_p=np.array([0.5, 0.5]),
            sigma_s=np.array([0.5, 0.5]),
            supports=((0, 1), (0, 1)),
        )
        assert verify_equilibrium(game, mixed)
        tilted = Equilibrium(
            sigma_p=np.array([0.5, 0.5]),
            sigma_s=np.array([0.55, 0.45]),
            supports=((0, 1), (0, 1)),
        )
        assert not verify_equilibrium(game, tilted)


class TestSupportEnumeration:
    def test_matching_pennies_unique_mixed(self):
        A = np.array([[1.0, -1.0], [-1.0, 1.0]])
        game = BimatrixGame(A, -A)
        eqs, _ = support_enumeration_report(game, max_support=2)
        assert len(eqs) == 1
        assert np.allclose(eqs[0].sigma_p, [0.5, 0.5], atol=1e-9)
        assert np.allclose(eqs[0].sigma_s, [0.5, 0.5], atol=1e-9)
        assert eqs[0].supports == ((0, 1), (0, 1))

    def test_coordination_game_three_equilibria(self):
        eye = np.eye(2)
        eqs, _ = support_enumeration_report(BimatrixGame(eye, eye), max_support=2)
        assert [e.supports for e in eqs] == [((0,), (0,)), ((1,), (1,)), ((0, 1), (0, 1))]
        assert np.allclose(eqs[2].sigma_p, [0.5, 0.5], atol=1e-9)

    def test_support_size_one_equals_pure_nash(self):
        game = common_game()
        eqs, _ = support_enumeration_report(game, max_support=1)
        cells = [(e.supports[0][0], e.supports[1][0]) for e in eqs]
        assert cells == pure_nash(game)

    def test_all_returned_equilibria_verify(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            game = BimatrixGame(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)))
            for eq in support_enumeration_report(game, max_support=3)[0]:
                assert verify_equilibrium(game, eq, tol=1e-9)

    def test_matches_independent_oracle_on_random_games(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            A = rng.uniform(-1, 1, size=(3, 3))
            B = rng.uniform(-1, 1, size=(3, 3))
            game = BimatrixGame(A, B)
            eqs, _ = support_enumeration_report(game, max_support=3)
            oracle = oracle_equilibria(A, B)
            assert len(eqs) == len(oracle)
            for eq in eqs:
                key = np.concatenate([eq.sigma_p, eq.sigma_s])
                assert any(np.max(np.abs(key - o)) < 1e-6 for o in oracle)

    def test_positive_scaling_leaves_equilibria_unchanged(self):
        rng = np.random.default_rng(31)
        A = rng.uniform(-1, 1, size=(4, 4))
        B = rng.uniform(-1, 1, size=(4, 4))
        base, _ = support_enumeration_report(BimatrixGame(A, B), max_support=4)
        scaled, _ = support_enumeration_report(BimatrixGame(3.7 * A, 3.7 * B), max_support=4)
        assert len(base) == len(scaled)
        for eq, eq2 in zip(base, scaled):
            assert eq.supports == eq2.supports
            assert np.allclose(eq.sigma_p, eq2.sigma_p, atol=1e-9)
            assert np.allclose(eq.sigma_s, eq2.sigma_s, atol=1e-9)

    def test_degenerate_game_is_reported(self):
        ones = np.ones((2, 2))
        eqs, report = support_enumeration_report(BimatrixGame(ones, ones), max_support=2)
        assert report.singular_systems > 0
        assert len(eqs) == 4  # every pure cell; the k=2 continuum is skipped

    def test_rejects_bad_max_support(self):
        game = common_game()
        with pytest.raises(ConfigurationError):
            support_enumeration_report(game, max_support=0)
        with pytest.raises(ConfigurationError):
            support_enumeration_report(game, max_support=9)

    def test_rejects_bad_tol(self):
        with pytest.raises(ConfigurationError):
            support_enumeration_report(common_game(), max_support=1, tol=0.0)


class TestBimatrixGame:
    @pytest.mark.parametrize("shape", [(3,), (0, 2), (2, 0), (2, 2, 2)])
    def test_payoffs_must_be_a_nonempty_matrix(self, shape):
        with pytest.raises(ConfigurationError, match="payoff matrix must be 2-D and nonempty"):
            BimatrixGame(np.zeros(shape), np.zeros(shape))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            BimatrixGame(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            BimatrixGame(np.array([[np.nan]]), np.array([[0.0]]))

    def test_common_interest_shares_entries(self):
        game = common_game()
        assert np.array_equal(game.A, game.B)
        assert game.shape == (8, 13)
