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


def _reference_solve_rectangular(cost: np.ndarray) -> np.ndarray:
    """The solver's search with a predecessor array: way[j] is the column whose row last
    lowered column j's length, written with np.less, np.copyto and np.putmask."""
    r, c = cost.shape
    best = cost.argmin(axis=1)
    u = cost[np.arange(r), best]
    v = np.zeros(c)
    owner = [-1] * c
    pending = []
    for i, j in enumerate(best.tolist()):
        if owner[j] < 0:
            owner[j] = i
        else:
            pending.append(i)
    shortest = np.empty(c)
    way = np.empty(c, dtype=np.intp)
    cur = np.empty(c)
    better = np.empty(c, dtype=bool)
    for i in pending:
        shortest.fill(np.inf)
        i0, j0, min_val = i, -1, 0.0
        rows, cols, cols_v, joined = [i], [], [], [0.0]
        while True:
            np.subtract(cost[i0], u[i0] - min_val, out=cur)
            cur -= v
            np.less(cur, shortest, out=better)
            np.copyto(shortest, cur, where=better)
            np.putmask(way, better, j0)
            j1 = int(shortest.argmin())
            min_val = shortest[j1]
            if not min_val < np.inf:
                raise NumericalError(f"invalid cost matrix: no finite path for row {i}")
            if owner[j1] < 0:
                break
            j0, i0 = j1, owner[j1]
            rows.append(i0)
            cols.append(j1)
            cols_v.append(v[j1])
            joined.append(min_val)
            v[j1] = -np.inf
            shortest[j1] = np.inf
        gain = min_val - np.array(joined)
        u[rows] += gain
        v[cols] = np.subtract(cols_v, gain[1:])
        while j1 >= 0:
            j0 = int(way[j1])
            owner[j1] = owner[j0] if j0 >= 0 else i
            j1 = j0
    row_of = np.array(owner, dtype=np.intp)
    taken = np.flatnonzero(row_of >= 0)
    row_to_col = np.empty(r, dtype=np.intp)
    row_to_col[row_of[taken]] = taken
    return row_to_col


def _reference_assign(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_assign over _reference_solve_rectangular."""
    r, c = arr.shape
    if r <= c:
        return np.arange(r), _reference_solve_rectangular(arr)
    col_to_row = _reference_solve_rectangular(arr.T)
    cols = np.argsort(col_to_row)
    return col_to_row[cols], cols


def _outcome(solve, cost: np.ndarray):
    """solve's (rows, cols) as lists, or the message of the NumericalError it raised."""
    try:
        rows, cols = solve(cost)
    except NumericalError as exc:
        return str(exc)
    return rows.tolist(), cols.tolist()


def _random_unit_rows(n: int, dim: int, rng) -> np.ndarray:
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestAgainstPredecessorSearch:
    """_assign against the same search that keeps a predecessor array, at count-path sizes
    (the golden file covers sides 1 to 12)."""

    def test_unit_row_products(self):
        rng = np.random.default_rng(34)
        for r, c, dim in [(300, 320, 32), (320, 300, 32), (230, 230, 8), (60, 200, 4)]:
            cost = 1.0 - _random_unit_rows(r, dim, rng) @ _random_unit_rows(c, dim, rng).T
            assert _outcome(_assign, cost) == _outcome(_reference_assign, cost), (r, c)

    def test_noisy_identities(self):
        # near-diagonal costs with the rows shuffled, as a memory meets a frame
        rng = np.random.default_rng(35)
        bases = _random_unit_rows(250, 16, rng)
        detections = bases[rng.permutation(250)[:220]] + 0.2 * rng.standard_normal((220, 16))
        cost = 1.0 - (detections / np.linalg.norm(detections, axis=1, keepdims=True)) @ bases.T
        assert _outcome(_assign, cost) == _outcome(_reference_assign, cost)

    def test_tied_matrices(self):
        rng = np.random.default_rng(36)
        for r, c in [(40, 40), (25, 40), (40, 25), (13, 17), (7, 7), (1, 9)]:
            for cost in (rng.integers(0, 3, (r, c)).astype(float),
                         rng.integers(0, 2, (r, c)).astype(float),
                         np.full((r, c), 0.5)):
                assert _outcome(_assign, cost) == _outcome(_reference_assign, cost), (r, c)

    def test_signed_zeros(self):
        rng = np.random.default_rng(37)
        for r, c in [(30, 30), (20, 35), (35, 20)]:
            for values in ([0.0, -0.0], [0.0, -0.0, 1.0], [-0.0, 1.0, -1.0]):
                cost = rng.choice(values, (r, c))
                assert _outcome(_assign, cost) == _outcome(_reference_assign, cost), (r, c)

    def test_nan_entries(self):
        rng = np.random.default_rng(38)
        matched = 0
        for r, c in [(12, 15), (20, 20), (15, 12), (30, 40)]:
            for _ in range(20):
                cost = rng.integers(0, 4, (r, c)).astype(float)
                # a NaN row matched by the warm start, whose argmin is its first NaN, offers
                # a search through it nothing; one left to a search finds no finite path
                nan_rows = rng.choice(min(r, c), rng.integers(1, 4), replace=False)
                cost[nan_rows] = np.where(rng.random((len(nan_rows), c)) < 0.3, np.nan,
                                          cost[nan_rows])
                got = _outcome(_assign, cost)
                assert got == _outcome(_reference_assign, cost), (r, c)
                matched += not isinstance(got, str)
        # both outcomes are covered: matchings found past NaN entries, and refusals
        assert 0 < matched < 80

    def test_a_row_of_nan_has_no_finite_path(self):
        rng = np.random.default_rng(39)
        cost = rng.uniform(0.0, 1.0, (20, 25))
        # row 0 takes column 0 in the warm start, so the NaN row, whose argmin is column 0,
        # is left to a search
        cost[0, 0] = -1.0
        cost[7] = np.nan
        with pytest.raises(NumericalError, match="no finite path for row 7"):
            _assign(cost)
        assert _outcome(_reference_assign, cost) == _outcome(_assign, cost)
