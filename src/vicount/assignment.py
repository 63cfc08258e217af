"""Minimum-cost assignment: a shortest-augmenting-path solver plus a brute-force oracle.

The solver inserts one row at a time into a matrix with no more rows than
columns, so every row gets a column. A matrix with more rows than columns
is solved transposed: each column picks a row, and rows no column picked
are reported as unmatched, which is how partial matchings come out.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class Assignment:
    """A row-to-column matching: matched pairs, their total cost, leftover rows."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float
    unmatched_rows: tuple[int, ...]


def _check_cost(cost) -> np.ndarray:
    arr = np.asarray(cost, dtype=np.float64)
    if arr.ndim != 2:
        raise NumericalError(f"invalid cost matrix: expected 2-d, got {arr.ndim}-d")
    if arr.size and not np.all(np.isfinite(arr)):
        raise NumericalError("invalid cost matrix: non-finite entries")
    return arr


def _solve_rectangular(cost: np.ndarray) -> np.ndarray:
    """Column index assigned to each row of an r x c cost matrix with r <= c.

    Jonker-Volgenant style shortest augmenting paths with dual potentials,
    one row inserted at a time. Ties in the path search break toward the
    smallest column index, so the result is deterministic.
    """
    r, c = cost.shape
    u = np.zeros(r + 1)
    v = np.zeros(c + 1)
    # p[j] = row matched to column j (1-based, 0 = free); column 0 is virtual.
    p = np.zeros(c + 1, dtype=np.intp)
    way = np.zeros(c + 1, dtype=np.intp)
    for i in range(1, r + 1):
        p[0] = i
        j0 = 0
        minv = np.full(c + 1, np.inf)
        used = np.zeros(c + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[1:]
            cur = cost[i0 - 1] - u[i0] - v[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            masked = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(masked)) + 1
            delta = float(masked[j1 - 1])
            used_idx = np.flatnonzero(used)
            u[p[used_idx]] += delta
            v[used_idx] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
    taken = np.flatnonzero(p[1:])
    row_to_col = np.empty(r, dtype=np.intp)
    row_to_col[p[1:][taken] - 1] = taken
    return row_to_col


def hungarian(cost) -> Assignment:
    """Minimum-cost assignment of rows to columns.

    With more rows than columns, exactly as many rows as there are columns
    get matched and the rest are reported unmatched; the matched subset is
    the one of minimum total cost. Entries must be finite.
    """
    arr = _check_cost(cost)
    r, c = arr.shape
    if r == 0 or c == 0:
        return Assignment((), 0.0, tuple(range(r)))
    if r <= c:
        rows, cols = np.arange(r), _solve_rectangular(arr)
    else:
        col_to_row = _solve_rectangular(arr.T)
        cols = np.argsort(col_to_row)
        rows = col_to_row[cols]
    # A mask, not np.setdiff1d, which imports numpy.ma (about 2 MB resident).
    unmatched = np.ones(r, dtype=bool)
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
    minimum in lexicographic enumeration order. Intended as a correctness
    oracle; refuses matrices beyond a small size guard.
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
    rows = arr.tolist()
    best_total = None
    best_pairs = None
    if r <= c:
        for cols in itertools.permutations(range(c), r):
            total = sum(rows[i][cols[i]] for i in range(r))
            if best_total is None or total < best_total:
                best_total = total
                best_pairs = tuple((i, cols[i]) for i in range(r))
        unmatched = ()
    else:
        for picked in itertools.permutations(range(r), c):
            total = sum(rows[picked[j]][j] for j in range(c))
            if best_total is None or total < best_total:
                best_total = total
                best_pairs = tuple(sorted((picked[j], j) for j in range(c)))
        matched_rows = {i for i, _ in best_pairs}
        unmatched = tuple(i for i in range(r) if i not in matched_rows)
    return Assignment(best_pairs, float(best_total), unmatched)
