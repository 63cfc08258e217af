"""Property-based tests: the assignment solver against the enumeration oracle,
and the counting step against a nested-loop reference of the template memory."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vicount import (
    Detection,
    DetectionStream,
    FrameRecord,
    McpConfig,
    MemoryState,
    brute_force_assignment,
    count_video,
    hungarian,
    step,
)

# Derandomized and without an example database, so every run checks the same
# examples.
_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Shapes within the oracle's size guard (min side <= 8, max side <= 10) whose
# enumeration has at most 8! candidates, which keeps each example fast.
_SHAPES = st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(
    lambda s: min(s) <= 8 and math.perm(max(s), min(s)) <= math.factorial(8)
)


def _float_costs():
    return _SHAPES.flatmap(
        lambda s: arrays(np.float64, s, elements=st.floats(-10, 10, allow_nan=False))
    )


def _tied_costs():
    return _SHAPES.flatmap(lambda s: arrays(np.float64, s, elements=st.integers(-3, 3)))


def _check_against_oracle(cost: np.ndarray, exact: bool) -> None:
    got = hungarian(cost)
    want = brute_force_assignment(cost)
    r, c = cost.shape
    rows = [i for i, _ in got.pairs]
    cols = [j for _, j in got.pairs]
    assert len(got.pairs) == min(r, c)
    assert rows == sorted(set(rows))
    assert len(set(cols)) == len(cols) and all(0 <= j < c for j in cols)
    assert got.unmatched_rows == tuple(i for i in range(r) if i not in set(rows))
    assert got.total_cost == pytest.approx(float(sum(cost[i, j] for i, j in got.pairs)), abs=1e-9)
    if exact:
        assert got.total_cost == want.total_cost
    else:
        assert got.total_cost == pytest.approx(want.total_cost, abs=1e-9)


class TestHungarianProperties:
    @_SETTINGS
    @given(_float_costs())
    def test_float_costs_match_oracle(self, cost):
        _check_against_oracle(cost, exact=False)

    @_SETTINGS
    @given(_tied_costs())
    def test_integer_ties_match_oracle(self, cost):
        _check_against_oracle(cost, exact=True)


# ---- counting ----------------------------------------------------------------

_REDUCE = {"max": max, "min": min, "mean": lambda xs: sum(xs) / len(xs)}


def _reference_step(entries, next_id, features, cfg):
    """One step over entries [entry_id, [templates], ttl] with per-pair Python loops."""
    agg = _REDUCE[cfg.template_aggregator]
    accepted = {}
    if features and entries:
        cost = np.array([
            [agg([1.0 - float(np.dot(f, t)) for t in templates]) for _, templates, _ in entries]
            for f in features
        ])
        for i, k in hungarian(cost).pairs:
            if cost[i, k] <= cfg.zeta:
                accepted[i] = k
    by_entry = {k: i for i, k in accepted.items()}
    out = []
    for k, (entry_id, templates, ttl) in enumerate(entries):
        if k in by_entry:
            out.append([entry_id, (templates + [features[by_entry[k]]])[-cfg.mem_max:], cfg.ttl_max])
        elif ttl > 0:
            out.append([entry_id, templates, ttl - 1])
    associations, new_ids = [], []
    for i, f in enumerate(features):
        if i in accepted:
            associations.append((i, entries[accepted[i]][0]))
        else:
            out.append([next_id, [f], cfg.ttl_max])
            new_ids.append(next_id)
            next_id += 1
    return out, next_id, tuple(associations), tuple(new_ids)


@st.composite
def _scenes(draw):
    """Frames of detections drawn around a small pool of identities, plus a config.

    Identities come and go at random, so memories see matches, rejections,
    template eviction past mem_max and expiry past ttl_max.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.integers(1, 6))
    dim = draw(st.integers(2, 4))
    noise = draw(st.sampled_from([0.0, 0.05, 0.3]))
    bases = rng.standard_normal((pool, dim))
    frames = []
    for _ in range(draw(st.integers(1, 8))):
        present = rng.permutation(pool)[: draw(st.integers(0, pool))]
        frames.append([
            Detection((0.0, 0.0), bases[p] + noise * rng.standard_normal(dim)) for p in present
        ])
    cfg = McpConfig(
        zeta=draw(st.sampled_from([0.05, 0.3, 0.7, 1.5])),
        ttl_max=draw(st.integers(1, 3)),
        mem_max=draw(st.integers(1, 3)),
        template_aggregator=draw(st.sampled_from(["max", "min", "mean"])),
    )
    return frames, cfg


def _stream(frames) -> DetectionStream:
    return DetectionStream(
        tuple(
            FrameRecord(k + 1, float(k), dets, (1,) * len(dets), (0,) * len(dets))
            for k, dets in enumerate(frames)
        ),
        1.0,
    )


class TestCountingProperties:
    @_SETTINGS
    @given(_scenes())
    def test_step_matches_nested_loop_reference(self, scene):
        frames, cfg = scene
        memory = MemoryState.empty()
        entries, next_id = [], 0
        for dets in frames:
            memory, record = step(memory, dets, cfg)
            entries, next_id, associations, new_ids = _reference_step(
                entries, next_id, [d.feature for d in dets], cfg
            )
            assert record.associations == associations
            assert record.new_entry_ids == new_ids
            assert record.inflow == len(new_ids)
            assert memory.next_entry_id == next_id
            assert len(memory.entries) == len(entries)
            for got, (entry_id, templates, ttl) in zip(memory.entries, entries):
                assert (got.entry_id, got.ttl) == (entry_id, ttl)
                assert np.array_equal(got.templates, np.array(templates))

    @_SETTINGS
    @given(_scenes())
    def test_total_is_inflow_sum_and_at_least_largest_frame(self, scene):
        frames, cfg = scene
        report = count_video(_stream(frames), cfg)
        assert report.total == sum(r.inflow for r in report.per_step)
        assert report.total >= max(len(dets) for dets in frames)
