"""Minimum-cost assignment: a shortest-augmenting-path solver plus a brute-force oracle.

On a matrix with no more rows than columns the solver gives every row a
column: a row-reduction warm start matches the rows whose minima do not
collide, and the rest are inserted one at a time, each by a shortest-path
search that updates the dual potentials once, after it reaches a free column
(Crouse, IEEE TAES 2016). A matrix with more rows than columns
is solved transposed: each column picks a row, and rows no column picked
are reported as unmatched, which is how partial matchings come out.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .stream import _array


@dataclass(frozen=True)
class Assignment:
    """A row-to-column matching: matched pairs, their total cost, leftover rows."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float
    unmatched_rows: tuple[int, ...]


def _check_cost(cost, what: str = "cost", square: bool = False) -> np.ndarray:
    """cost read as a 2-d float array, square if asked, of finite entries; else NumericalError."""
    arr = _array(cost, what, 2, error=NumericalError)
    if square and arr.shape[0] != arr.shape[1]:
        raise NumericalError(f"invalid cost matrix: {what} must be square, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise NumericalError(f"invalid cost matrix: {what} has non-finite entries")
    return arr


def _solve_rectangular(cost: np.ndarray) -> np.ndarray:
    """Column index assigned to each row of an r x c cost matrix with r <= c.

    Shortest augmenting paths with dual potentials u (rows) and v (columns),
    in the form of Crouse, "On implementing 2D rectangular assignment
    algorithms" (IEEE TAES 2016). A row-reduction warm start (Jonker &
    Volgenant 1987) first gives each column to the earliest row whose row
    minimum it is, taking each row's smallest-index minimum, with u set to
    the row minima and v to zero: a dual-feasible partial matching on tight
    edges. The rows it leaves unmatched are then inserted one at a time, in
    order, each by a Dijkstra search over reduced costs whose ties break
    toward the smallest column index, so the result is deterministic. The
    search keeps each column's absolute tentative path length and the
    lengths each tree row offered, and updates the duals once, after it
    reaches a free column: u += min_val - d on the tree rows and
    v -= min_val - d on the scanned columns, where d is the length at which
    each joined the tree and min_val that of the path found. It then traces
    the path back from the offered lengths it kept. A search that reaches no
    finite length, as on a NaN cost, raises NumericalError.
    """
    r, c = cost.shape
    best = cost.argmin(axis=1)
    u = cost[np.arange(r), best]
    v = np.zeros(c)
    # owner[j] = row matched to column j, or -1 while the column is free.
    # A plain loop: np.unique would page in numpy's sorting code, about
    # 0.25 MB resident, for this one pass over the rows.
    owner = [-1] * c
    pending = []
    for i, j in enumerate(best.tolist()):
        if owner[j] < 0:
            owner[j] = i
        else:
            pending.append(i)
    # Per search: shortest is the tentative path length to each column not
    # yet scanned (inf once scanned). rows and cols list the tree's rows and
    # scanned columns in the order they join, joined the length at which each
    # row joined (0 for the new row), and offers[t] the lengths tree row t
    # offered the columns. v is -inf on scanned columns meanwhile, so that no
    # later row offers them a finite length; cols_v keeps their own v.
    shortest = np.empty(c)
    offers = np.empty((8, c))
    for i in pending:
        shortest.fill(np.inf)
        i0, min_val = i, 0.0
        rows, cols, cols_v, joined = [i], [], [], [0.0]
        while True:
            if len(rows) > len(offers):
                offers = np.concatenate((offers, np.empty_like(offers)))
            cur = offers[len(cols)]
            np.subtract(cost[i0], u[i0] - min_val, out=cur)
            cur -= v
            # fmin passes a NaN over, so a NaN cost offers nothing.
            np.fmin(shortest, cur, out=shortest)
            j1 = int(shortest.argmin())
            min_val = shortest[j1]
            # A NaN cost leaves every length infinite, which no path ends.
            if not min_val < np.inf:
                raise NumericalError(f"invalid cost matrix: no finite path for row {i}")
            if owner[j1] < 0:
                break
            i0 = owner[j1]
            rows.append(i0)
            cols.append(j1)
            cols_v.append(v[j1])
            joined.append(min_val)
            v[j1] = -np.inf
            shortest[j1] = np.inf
        gain = min_val - np.array(joined)
        u[rows] += gain
        v[cols] = np.subtract(cols_v, gain[1:])
        # Each path column's predecessor is the column by which the first tree
        # row offering its final length joined the tree (none for the new row).
        j, length = j1, min_val
        while True:
            t = int((offers[:len(rows), j] == length).argmax())
            owner[j] = rows[t]
            if t == 0:
                break
            j, length = cols[t - 1], joined[t]
    row_of = np.array(owner, dtype=np.intp)
    taken = np.flatnonzero(row_of >= 0)
    row_to_col = np.empty(r, dtype=np.intp)
    row_to_col[row_of[taken]] = taken
    return row_to_col


def _assign(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hungarian's matching of a checked cost matrix, as index arrays (rows, cols).

    Row rows[k] is matched to column cols[k], and rows increase.
    """
    r, c = arr.shape
    if r == 0 or c == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    if r <= c:
        return np.arange(r), _solve_rectangular(arr)
    col_to_row = _solve_rectangular(arr.T)
    cols = np.argsort(col_to_row)
    return col_to_row[cols], cols


def hungarian(cost) -> Assignment:
    """Minimum-cost assignment of rows to columns.

    With more rows than columns, exactly as many rows as there are columns
    get matched and the rest are reported unmatched; the matched subset is
    the one of minimum total cost. Entries must be finite.
    """
    arr = _check_cost(cost)
    rows, cols = _assign(arr)
    # A mask, not np.setdiff1d, which imports numpy.ma (about 2 MB resident).
    unmatched = np.ones(arr.shape[0], dtype=bool)
    unmatched[rows] = False
    return Assignment(
        tuple(zip(rows.tolist(), cols.tolist())),
        float(arr[rows, cols].sum()),
        tuple(np.flatnonzero(unmatched).tolist()),
    )


_ORACLE_MIN_SIDE = 8
_ORACLE_MAX_SIDE = 10


def brute_force_assignment(cost) -> Assignment:
    """Exhaustive-enumeration reference solver for small matrices.

    Checks every injective assignment of the smaller side, keeping the first
    minimum in lexicographic enumeration order. A matrix with more rows than
    columns is enumerated transposed, as hungarian solves it. Intended as a
    correctness oracle; refuses matrices beyond a small size guard.
    """
    arr = _check_cost(cost)
    r, c = arr.shape
    if r == 0 or c == 0:
        return Assignment((), 0.0, tuple(range(r)))
    if min(r, c) > _ORACLE_MIN_SIDE or max(r, c) > _ORACLE_MAX_SIDE:
        raise ValueError(
            f"oracle size limit: {r}x{c} exceeds "
            f"{_ORACLE_MIN_SIDE} (min side) / {_ORACLE_MAX_SIDE} (max side)"
        )
    rows = (arr.T if r > c else arr).tolist()
    best_total = None
    for cols in itertools.permutations(range(max(r, c)), len(rows)):
        total = sum(rows[i][cols[i]] for i in range(len(rows)))
        if best_total is None or total < best_total:
            best_total, best_cols = total, cols
    pairs = tuple(enumerate(best_cols))
    if r > c:
        pairs = tuple(sorted((i, j) for j, i in pairs))
    matched = {i for i, _ in pairs}
    return Assignment(pairs, float(best_total), tuple(i for i in range(r) if i not in matched))
