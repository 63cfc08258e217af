"""The assignment solver's matchings against a recorded set.

assignment_golden.json holds the matchings _assign gave, at commit 3840b55
(before the path search deferred its dual updates), on seeded matrices of
every shape with sides 1 to 12. Exact kinds (small integers, 0/1 entries,
all-equal matrices) and uniform floats must give the same pairs; on
decimals of a 0.1 grid, whose path lengths round differently when the
updates are deferred, only the total cost must agree.

Run this file as a script to print the current solver's record as JSON.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from vicount.assignment import _assign

GOLDEN = Path(__file__).with_name("assignment_golden.json")
SIDES = range(1, 13)
# kind: (matrices per shape, draw); each kind draws from its own seeded generator
KINDS = {
    "int02": (3, lambda rng, shape: rng.integers(0, 3, shape).astype(float)),
    "binary": (3, lambda rng, shape: rng.integers(0, 2, shape).astype(float)),
    "uniform": (2, lambda rng, shape: rng.random(shape)),
    "equal": (1, lambda rng, shape: np.full(shape, float(rng.integers(-3, 4)))),
    "decimal": (10, lambda rng, shape: rng.integers(0, 21, shape) / 10),
}
EXACT = ("int02", "binary", "uniform", "equal")


def _matrices(kind: str) -> list[np.ndarray]:
    count, draw = KINDS[kind]
    rng = np.random.default_rng([2016, list(KINDS).index(kind)])
    return [draw(rng, (r, c)) for r in SIDES for c in SIDES for _ in range(count)]


def _digest(matrices) -> str:
    h = hashlib.sha256()
    for m in matrices:
        h.update(np.asarray(m.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(m, dtype=np.float64).tobytes())
    return h.hexdigest()


def _encode(cost: np.ndarray) -> str:
    """The column matched to each row as one base-36 digit, '.' for an unmatched row."""
    rows, cols = _assign(cost)
    out = ["."] * cost.shape[0]
    for i, j in zip(rows.tolist(), cols.tolist()):
        out[i] = np.base_repr(j, 36).lower()
    return "".join(out)


def _record() -> dict:
    return {kind: {"sha256": _digest(ms), "matchings": [_encode(m) for m in ms]}
            for kind in KINDS for ms in [_matrices(kind)]}


def _pairs(code: str) -> list[tuple[int, int]]:
    return [(i, int(ch, 36)) for i, ch in enumerate(code) if ch != "."]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", list(KINDS))
def test_matrices_are_the_recorded_ones(golden, kind):
    # a changed generator stream would make every comparison below meaningless
    assert _digest(_matrices(kind)) == golden[kind]["sha256"]


@pytest.mark.parametrize("kind", EXACT)
def test_exact_kinds_give_the_recorded_pairs(golden, kind):
    matrices, want = _matrices(kind), golden[kind]["matchings"]
    assert len(matrices) == len(want) == KINDS[kind][0] * len(SIDES) ** 2
    diff = [(k, m.shape, w, g) for k, (m, w) in enumerate(zip(matrices, want))
            for g in [_encode(m)] if w != g]
    assert not diff, diff[:5]


def test_decimals_give_a_matching_of_the_recorded_cost(golden):
    for k, (cost, code) in enumerate(zip(_matrices("decimal"), golden["decimal"]["matchings"])):
        rows, cols = _assign(cost)
        r, c = cost.shape
        assert len(rows) == min(r, c) and len(set(cols.tolist())) == len(cols), k
        assert (np.diff(rows) > 0).all(), k
        want = sum(cost[i, j] for i, j in _pairs(code))
        assert cost[rows, cols].sum() == pytest.approx(want, abs=1e-9), (k, cost.shape)


if __name__ == "__main__":
    print(json.dumps(_record(), indent=1))
