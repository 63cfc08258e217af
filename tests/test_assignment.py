"""Assignment solver tests against hand values and the brute-force oracle."""

import numpy as np
import pytest

from vicount import NumericalError, brute_force_assignment, hungarian
from vicount.assignment import _assign


class TestBruteForce:
    def test_hand_diagonal(self):
        a = brute_force_assignment([[1.0, 2.0], [2.0, 1.0]])
        assert a.pairs == ((0, 0), (1, 1))
        assert a.total_cost == pytest.approx(2.0)
        assert a.unmatched_rows == ()

    def test_hand_antidiagonal(self):
        a = brute_force_assignment([[2.0, 1.0], [1.0, 2.0]])
        assert a.pairs == ((0, 1), (1, 0))
        assert a.total_cost == pytest.approx(2.0)

    def test_wide(self):
        a = brute_force_assignment([[5.0, 1.0, 3.0]])
        assert a.pairs == ((0, 1),)
        assert a.total_cost == pytest.approx(1.0)

    def test_tall_reports_unmatched(self):
        a = brute_force_assignment([[5.0], [1.0], [3.0]])
        assert a.pairs == ((1, 0),)
        assert a.unmatched_rows == (0, 2)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="oracle size limit"):
            brute_force_assignment(np.zeros((9, 9)))
        with pytest.raises(ValueError, match="oracle size limit"):
            brute_force_assignment(np.zeros((2, 11)))

    def test_empty(self):
        a = brute_force_assignment(np.zeros((0, 4)))
        assert a.pairs == () and a.total_cost == 0.0 and a.unmatched_rows == ()
        b = brute_force_assignment(np.zeros((3, 0)))
        assert b.unmatched_rows == (0, 1, 2)


class TestHungarian:
    def test_matches_oracle_on_random_shapes(self):
        rng = np.random.default_rng(21)
        shapes = [(1, 1), (2, 2), (3, 3), (5, 5), (7, 7), (2, 5), (5, 2),
                  (1, 8), (8, 1), (4, 7), (7, 4), (6, 8), (8, 6)]
        for shape in shapes:
            for _ in range(8):
                cost = rng.uniform(-3, 3, shape)
                got = hungarian(cost)
                want = brute_force_assignment(cost)
                assert got.total_cost == pytest.approx(want.total_cost, abs=1e-10), shape
                assert len(got.pairs) == min(shape)
                assert len(got.unmatched_rows) == shape[0] - min(shape)

    def test_integer_ties_match_oracle_cost(self):
        rng = np.random.default_rng(22)
        for shape, low, high in [((5, 5), 0, 4), ((3, 6), 0, 4), ((6, 3), 0, 4),
                                 ((2, 7), -4, 0), ((7, 2), -4, 0)]:
            for _ in range(30):
                cost = rng.integers(low, high, size=shape).astype(float)
                got = hungarian(cost)
                want = brute_force_assignment(cost)
                assert got.total_cost == pytest.approx(want.total_cost), (shape, cost)
                assert len(got.pairs) == min(shape)
                assert sorted(i for i, _ in got.pairs) == [i for i, _ in got.pairs]
                assert len({j for _, j in got.pairs}) == len(got.pairs)
                matched = {i for i, _ in got.pairs}
                assert got.unmatched_rows == tuple(i for i in range(shape[0]) if i not in matched)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        cost = rng.uniform(0, 1, (6, 4))
        assert hungarian(cost) == hungarian(cost.copy())

    def test_all_equal_prefers_low_indices(self):
        a = hungarian(np.zeros((3, 3)))
        assert a.pairs == ((0, 0), (1, 1), (2, 2))

    def test_total_is_sum_of_pairs(self):
        rng = np.random.default_rng(24)
        cost = rng.uniform(0, 1, (5, 7))
        a = hungarian(cost)
        assert a.total_cost == pytest.approx(sum(cost[i, j] for i, j in a.pairs))

    def test_empty(self):
        a = hungarian(np.zeros((0, 0)))
        assert a.pairs == () and a.unmatched_rows == ()
        b = hungarian(np.zeros((4, 0)))
        assert b.unmatched_rows == (0, 1, 2, 3)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError, match="invalid cost matrix"):
            hungarian([[np.nan, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match="invalid cost matrix"):
            hungarian([[np.inf, 1.0], [1.0, 0.0]])

    def test_nan_path_search_raises_instead_of_hanging(self):
        # _assign takes checked costs; its path search once looped forever on NaN
        nan = np.nan
        for cost in ([[0.0, 1.0], [nan, 1.0]], np.full((3, 3), nan),
                     [[0.0, 1.0, 2.0], [nan, nan, nan], [2.0, 1.0, 0.0]]):
            with pytest.raises(NumericalError, match="no finite path"):
                _assign(np.array(cost))

    def test_negative_entries(self):
        cost = np.array([[-5.0, -1.0], [-2.0, -4.0]])
        got = hungarian(cost)
        want = brute_force_assignment(cost)
        assert got.total_cost == pytest.approx(want.total_cost)
        assert got.total_cost == pytest.approx(-9.0)

    def test_rectangular_negative_sentinel_safe(self):
        # all-negative costs once bit a naive "max entry + 1" sentinel
        cost = np.array([[-5.0, -4.9, -5.1]])
        a = hungarian(cost)
        assert a.pairs == ((0, 2),)
