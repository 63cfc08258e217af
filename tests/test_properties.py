"""Property-based tests: the assignment solver against the enumeration oracle,
the counting step against a nested-loop reference of the template memory, the
cost matrix against numpy's segment reductions,
counts under renumbered ground-truth ids, transport marginals at convergence,
stream files through write and parse, and the stream parser's orjson decoding
against json's on edge literals."""

import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, from_dtype

from vicount import (
    DataError,
    DetectionStream,
    FrameRecord,
    LossConfig,
    McpConfig,
    MemoryState,
    NumericalError,
    SimConfig,
    SimilarityBlocks,
    brute_force_assignment,
    contrastive_similarity,
    count_video,
    generate_scene,
    gt_unique_count,
    hungarian,
    parse_stream,
    round_to_permutation,
    sinkhorn,
    soft_contrastive_loss,
    step,
    write_stream,
)
from vicount import streamio
from vicount.assignment import _assign
from vicount.counting import _cost_matrix
from vicount.stream import _unit_rows

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

    @_SETTINGS
    @given(st.tuples(st.integers(0, 12), st.integers(0, 12)).flatmap(
        lambda s: arrays(np.float64, s, elements=st.integers(-3, 3))))
    def test_core_pairs_equal_the_public_route(self, cost):
        # step matches through the core; with ties about, it must still pick
        # hungarian's pairs, with more rows than columns and with fewer
        for arr in (cost, cost.T):
            rows, cols = _assign(arr)
            assert tuple(zip(rows.tolist(), cols.tolist())) == hungarian(arr).pairs


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
    """Frames of detections drawn around a small pool of identities, a config and caps.

    Identities come and go at random, so memories see matches, rejections,
    template eviction past mem_max and expiry past ttl_max. caps holds a
    mem_max per frame, so a memory can hold more templates than the cap of
    the step it meets.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.integers(1, 6))
    dim = draw(st.integers(2, 4))
    noise = draw(st.sampled_from([0.0, 0.05, 0.3]))
    bases = rng.standard_normal((pool, dim))
    frames = []
    for _ in range(draw(st.integers(1, 8))):
        present = rng.permutation(pool)[: draw(st.integers(0, pool))]
        frames.append(_unit_rows(bases[present] + noise * rng.standard_normal((len(present), dim))))
    cfg = McpConfig(
        zeta=draw(st.sampled_from([0.05, 0.3, 0.7, 1.5])),
        ttl_max=draw(st.integers(1, 3)),
        mem_max=draw(st.integers(1, 3)),
        template_aggregator=draw(st.sampled_from(["max", "min", "mean"])),
    )
    return frames, cfg, [draw(st.integers(1, 3)) for _ in frames]


def _stream(frames) -> DetectionStream:
    return DetectionStream(
        tuple(
            FrameRecord(k + 1, float(k), np.zeros((len(rows), 2)), rows,
                        (1,) * len(rows), (0,) * len(rows))
            for k, rows in enumerate(frames)
        ),
        1.0,
    )


class TestCountingProperties:
    @_SETTINGS
    @given(_scenes())
    def test_step_matches_nested_loop_reference(self, scene):
        frames, cfg, caps = scene
        memory = MemoryState.empty()
        entries, next_id = [], 0
        for rows, cap in zip(frames, caps):
            cfg = replace(cfg, mem_max=cap)
            memory, record = step(memory, rows, cfg)
            entries, next_id, associations, new_ids = _reference_step(
                entries, next_id, list(rows), cfg
            )
            assert record.associations == associations
            assert record.new_entry_ids == new_ids
            assert record.inflow == len(new_ids)
            assert memory.next_entry_id == next_id
            assert memory.entry_id.tolist() == [entry_id for entry_id, _, _ in entries]
            assert memory.ttl.tolist() == [ttl for _, _, ttl in entries]
            for got, (_, templates, _) in zip(memory.entries, entries, strict=True):
                assert np.array_equal(got.templates, np.array(templates))

    @_SETTINGS
    @given(_scenes())
    def test_total_is_inflow_sum_and_at_least_largest_frame(self, scene):
        frames, cfg, _ = scene
        report = count_video(_stream(frames), cfg)
        assert report.total == sum(r.inflow for r in report.per_step)
        assert report.total >= max(len(rows) for rows in frames)


class TestCostMatrixProperties:
    @_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 8), st.integers(1, 6),
           st.integers(1, 5))
    def test_cost_matrix_equals_the_reduceat_oracle(self, seed, width, size, n, dim):
        # Entries of more than 8 templates reach past numpy's 8-wide pairwise
        # summation block.
        rng = np.random.default_rng(seed)
        fill = rng.integers(1, width + 1, size)
        templates = rng.standard_normal((fill.sum(), dim))
        memory = MemoryState(templates, fill, np.ones(size, dtype=np.intp),
                             np.arange(size), size)
        features = rng.standard_normal((n, dim))
        costs = 1.0 - features @ templates.T
        starts = np.cumsum(fill) - fill
        want = {
            "max": np.maximum.reduceat(costs, starts, axis=1),
            "min": np.minimum.reduceat(costs, starts, axis=1),
            "mean": np.add.reduceat(costs, starts, axis=1) / fill,
        }
        for aggregator, cost in want.items():
            assert _cost_matrix(features, memory, aggregator).tobytes() == cost.tobytes()


@st.composite
def _counted_scenes(draw):
    """A small generated scene plus an association config."""
    scene = generate_scene(SimConfig(
        num_identities=draw(st.integers(0, 12)),
        num_frames=draw(st.integers(1, 6)),
        feature_dim=draw(st.integers(2, 6)),
        feature_noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.3])),
        reentry_probability=draw(st.sampled_from([0.0, 0.5])),
        seed=draw(st.integers(0, 2**32 - 1)),
    ))
    cfg = McpConfig(
        zeta=draw(st.sampled_from([0.05, 0.3, 0.7])),
        ttl_max=draw(st.integers(1, 3)),
        mem_max=draw(st.integers(1, 3)),
        template_aggregator=draw(st.sampled_from(["max", "min", "mean"])),
    )
    return scene, cfg, draw(st.integers(0, 2**32 - 1))


class TestRelabelling:
    @_SETTINGS
    @given(_counted_scenes())
    def test_renumbered_ids_leave_the_count_unchanged(self, drawn):
        stream, cfg, seed = drawn
        # An injective renumbering that moves every id.
        rng = np.random.default_rng(seed)
        new_id = {g: 100 + 7 * int(p) for g, p in enumerate(rng.permutation(12))}
        relabelled = DetectionStream(
            tuple(
                FrameRecord(f.frame_index, f.timestamp, f.coordinates, f.features,
                            f.inflow, f.outflow, [new_id[g] for g in f.gt_ids])
                for f in stream.frames
            ),
            stream.delta,
        )
        assert relabelled != stream or not any(len(f) for f in stream.frames)
        assert count_video(relabelled, cfg) == count_video(stream, cfg)
        assert gt_unique_count(relabelled) == gt_unique_count(stream)


# ---- transport ---------------------------------------------------------------


class TestSinkhornProperties:
    @_SETTINGS
    @given(
        st.integers(1, 12).flatmap(
            lambda n: arrays(np.float64, (n, n), elements=st.floats(-1, 2, allow_nan=False))
        ),
        st.sampled_from([0.5, 0.1, 0.05, 0.01]),
        st.sampled_from([1, 3, 500]),
        st.sampled_from([1e-3, 1e-6, 1e-9]),
    )
    def test_converged_plans_meet_the_marginals(self, cost, reg, max_iters, tol):
        plan = sinkhorn(cost, reg, max_iters, tol)
        if plan.converged:
            assert np.all(np.abs(plan.omega.sum(axis=1) - 1.0) <= tol)
            assert np.all(np.abs(plan.omega.sum(axis=0) - 1.0) <= tol)
        assert plan.iterations_used <= max_iters

    @_SETTINGS
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.permutations(range(n)),
                arrays(np.float64, (n, n), elements=st.floats(0.5, 1.5, allow_nan=False)),
            )
        ),
        st.sampled_from([-1e3, -1e5]),
    )
    def test_negative_shift_keeps_the_permutation(self, perm_and_cost, shift):
        # a constant shift leaves the optimal plan unchanged; a large negative
        # one overflows exp(-cost / reg), which must not reach the caller
        perm, cost = perm_and_cost
        cost[np.arange(len(perm)), perm] = 0.0
        plan = sinkhorn(cost, 0.05)
        shifted = sinkhorn(cost + shift, 0.05)
        assert plan.converged and shifted.converged
        assert list(round_to_permutation(shifted.omega)) == list(perm)
        assert list(round_to_permutation(plan.omega)) == list(perm)

    @_SETTINGS
    @given(
        st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)).flatmap(
            lambda s: st.tuples(
                arrays(np.float64, s[:2], elements=st.floats(-1, 1, allow_nan=False)),
                st.just(min(s)),
            )
        ),
        st.sampled_from([1.0, 10.0, 30.0]),
        st.sampled_from([0.5, 0.05, 0.01]),
        st.sampled_from([1, 5, 500]),
        st.sampled_from([1e-3, 1e-6, 1e-9]),
    )
    def test_loss_path_solves_as_the_public_route(self, full_and_m, temperature, reg,
                                                  max_iters, tol):
        # the loss solves from the contrast directly; it must equal sinkhorn on
        # the cost 1 - c to the bit
        full, m = full_and_m
        blocks = SimilarityBlocks(full, m)
        cfg = LossConfig(temperature=temperature, sinkhorn_reg=reg,
                         sinkhorn_max_iters=max_iters, sinkhorn_tol=tol)
        c = contrastive_similarity(blocks, temperature)
        public = sinkhorn(1.0 - c, reg, max_iters, tol)
        if not public.converged:
            with pytest.raises(NumericalError, match="did not converge"):
                soft_contrastive_loss(blocks, cfg)
            return
        got = soft_contrastive_loss(blocks, cfg)
        assert got.plan.omega.tobytes() == public.omega.tobytes()
        assert got.plan.iterations_used == public.iterations_used
        raw = -float(np.sum(public.omega * c))
        assert np.float64(got.raw).tobytes() == np.float64(raw).tobytes()
        assert got.loss == raw / m

    @_SETTINGS
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.permutations(range(n)),
        arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        st.booleans(),
    )))
    def test_rounding_keeps_an_argmax_permutation(self, case):
        perm, plan, lift = case
        if lift:
            # every row's maximum then sits on the permutation, possibly tied
            plan[np.arange(len(perm)), perm] = 1.0
        got = round_to_permutation(plan)
        greedy = plan.argmax(axis=1)
        if len(set(greedy.tolist())) == len(plan):
            assert got.tolist() == greedy.tolist()
        # in every case the result carries the most plan mass of any permutation
        best = -brute_force_assignment(-plan).total_cost
        assert plan[np.arange(len(plan)), got].sum() == pytest.approx(best)


# ---- simulator draws ---------------------------------------------------------
# The simulator draws base-feature candidates as (k, D) blocks and normalizes
# each block at once; its streams stay those of drawing and normalizing one
# candidate at a time only while both facts below hold.


class TestBlockDrawProperties:
    @_SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 40),
        st.integers(1, 130),
        st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_block_normalization_matches_one_row_at_a_time(self, seed, k, d, scale):
        rows = np.random.default_rng(seed).standard_normal((k, d)) * scale
        if k:
            rows[0] = _unit_rows(rows[:1].copy())[0]  # an already-unit row is kept as is
        block = _unit_rows(rows.copy())
        for row, got in zip(rows, block):
            assert _unit_rows(row[None].copy())[0].tobytes() == got.tobytes()

    @_SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 130),
        st.sampled_from([1e300, -1e300, 1e-300, -1e-300]),
    )
    def test_rows_of_any_finite_scale_normalize(self, seed, k, d, scale):
        # At 1e300 a row's squared norm overflows, at 1e-300 it underflows to 0.
        row = _unit_rows(np.random.default_rng(seed).standard_normal((1, d)))[0]
        got = _unit_rows(np.tile(row * scale, (k, 1)))
        want = np.tile(np.copysign(1.0, scale) * row, (k, 1))
        np.testing.assert_allclose(got, want, rtol=0, atol=4 * np.finfo(np.float64).eps)

    @_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 130))
    def test_block_draw_matches_row_by_row_draws(self, seed, k, d):
        block_rng = np.random.default_rng(seed)
        row_rng = np.random.default_rng(seed)
        block = block_rng.standard_normal((k, d))
        rows = [row_rng.standard_normal(d) for _ in range(k)]
        assert block.tobytes() == np.array(rows).reshape(k, d).tobytes()
        assert block_rng.bit_generator.state == row_rng.bit_generator.state
        assert block_rng.standard_normal() == row_rng.standard_normal()


# ---- weak-label bits ---------------------------------------------------------
# A frame reads its inflow and outflow bits through an accept path for integer
# arrays and lists of plain ints; every input reads as checking each entry does.


def _bits_by_entry(values, n, name):
    """Reference reader: every entry's own type and value checked, through an object array."""
    arr = np.asarray(values, dtype=object)
    if arr.shape != (n,):
        got = f"{arr.size} entries" if arr.ndim == 1 else f"shape {arr.shape}"
        raise DataError(f"{name} has {got} for {n} detections")
    bits = arr.tolist()
    for k, b in enumerate(bits):
        if isinstance(b, bool) or not isinstance(b, (int, np.integer)) or b not in (0, 1):
            raise DataError(f"{name}[{k}] must be an integer 0 or 1, got {b!r}")
    return np.array(bits, dtype=np.intp)


_ODD_BITS = [2, -1, True, False, np.True_, np.int64(1), np.uint8(0), 1.0, 0.0, None, "1",
             2**63, 2**64 + 1, -(2**70)]


@st.composite
def _bit_inputs(draw):
    """(values, n): a list, tuple or array of mostly 0/1 bits, n its length or one off."""
    size = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["list", "tuple", "array", "array", "nested"]))
    if kind == "array":
        dtype = np.dtype(draw(st.sampled_from([np.int8, np.int32, np.int64, np.uint8,
                                               np.uint64, np.bool_, np.float64])))
        values = draw(arrays(dtype, size, elements=st.sampled_from([0, 1]) | from_dtype(dtype)))
    else:
        entries = draw(st.lists(st.sampled_from([0, 1]) | st.sampled_from(_ODD_BITS),
                                min_size=size, max_size=size))
        values = {"list": list, "tuple": tuple, "nested": lambda e: [list(e)]}[kind](entries)
    return values, max(0, size + draw(st.sampled_from([0, 0, 0, -1, 1])))


class TestBitProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_bit_inputs())
    def test_bits_read_as_entry_by_entry_checks_read_them(self, drawn):
        values, n = drawn
        try:
            want = _bits_by_entry(values, n, "inflow")
        except DataError as exc:
            with pytest.raises(DataError) as err:
                FrameRecord(1, 0.0, np.zeros((n, 2)), np.eye(n, 2) + [0.0, 1.0], values,
                            [0] * n)
            assert str(err.value) == str(exc)
            return
        frame = FrameRecord(1, 0.0, np.zeros((n, 2)), np.eye(n, 2) + [0.0, 1.0], values,
                            [0] * n)
        assert frame.inflow.dtype == np.intp and frame.inflow.tolist() == want.tolist()
        if isinstance(values, np.ndarray):
            assert not np.shares_memory(frame.inflow, values) and values.flags.writeable


# ---- stream files ------------------------------------------------------------

_COORDINATES = st.floats(allow_nan=False, allow_infinity=False)


def _feature_row(draw, rng, dim, scale, earlier):
    """One raw feature row: fresh, with a signed zero, or an earlier row of the stream.

    A copied row is either exact or has the sign of each of its zeros
    flipped, so it differs from the row it copies in nothing else.
    """
    kind = draw(st.sampled_from(("fresh", "signed zero", "copy", "copy, zero signs flipped")))
    if kind.startswith("copy") and earlier:
        row = earlier[draw(st.integers(0, len(earlier) - 1))].copy()
        if kind.endswith("flipped"):
            row[row == 0.0] *= -1.0
        return row
    row = rng.standard_normal(dim) * scale
    if kind == "signed zero" and dim > 1:
        row[draw(st.integers(0, dim - 1))] = draw(st.sampled_from((0.0, -0.0)))
    return row


@st.composite
def _streams(draw):
    """Streams of random dimension with empty frames, partial ids and awkward floats.

    Feature rows repeat the bytes of a row earlier in the same frame, in the
    previous frame or further back, or differ from one only in the sign of
    a zero, as well as being drawn fresh.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 5))
    delta = draw(st.floats(0.01, 100.0))
    start = draw(st.floats(-1e3, 1e3))
    index = draw(st.integers(1, 5))
    frames = []
    earlier = []
    for k in range(draw(st.integers(0, 5))):
        n = draw(st.integers(0, 4))
        coordinates = draw(st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=n, max_size=n))
        ids = draw(st.lists(st.none() | st.integers(0, 10**12), min_size=n, max_size=n))
        inflow = [1] * n if k == 0 else rng.integers(0, 2, size=n).tolist()
        outflow = rng.integers(0, 2, size=n).tolist()
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        features = [_feature_row(draw, rng, dim, scale, earlier) for _ in range(n)]
        earlier += features
        frames.append(FrameRecord(index, start + k * delta, coordinates,
                                  np.reshape(features, (n, dim)), inflow, outflow, ids))
        index += draw(st.integers(1, 3))
    return DetectionStream(tuple(frames), delta)


def _reference_write(stream, path):
    """Write a stream as one dict per line through json.dumps, a row at a time."""
    def dump(obj):
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=True, allow_nan=False)

    dim = stream.feature_dim
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump({"schema": 1, "dim": 0 if dim is None else dim, "delta": stream.delta}) + "\n")
        for frame in stream.frames:
            rows = zip(frame.coordinates.tolist(), frame.features.tolist(), frame.gt_ids)
            dets = [
                {"x": x, "y": y, "f": f} if g is None else {"x": x, "y": y, "f": f, "id": g}
                for (x, y), f, g in rows
            ]
            line = {"frame": frame.frame_index, "t": frame.timestamp, "det": dets,
                    "in": frame.inflow.tolist(), "out": frame.outflow.tolist()}
            fh.write(dump(line) + "\n")


class TestStreamFileProperties:
    @_SETTINGS
    @given(_streams())
    def test_write_parse_write_round_trip(self, stream):
        with tempfile.TemporaryDirectory() as directory:
            first, second = Path(directory, "first.jsonl"), Path(directory, "second.jsonl")
            write_stream(stream, first)
            back = parse_stream(first)
            assert back == stream
            write_stream(back, second)
            assert second.read_bytes() == first.read_bytes()

    @_SETTINGS
    @given(_streams())
    def test_write_matches_the_reference_writer(self, stream):
        with tempfile.TemporaryDirectory() as directory:
            self._assert_written_as_reference(stream, Path(directory))

    def _assert_written_as_reference(self, stream, directory):
        got, want = directory / "got.jsonl", directory / "want.jsonl"
        write_stream(stream, got)
        _reference_write(stream, want)
        assert got.read_bytes() == want.read_bytes()

    def test_floats_at_the_bounds_of_orjsons_printing_are_written_as_json_does(self, tmp_path):
        # orjson prints 1e-4 <= |x| < 1e16 as repr does and other nonzero floats differently
        edges = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 5e-324,
                 2.2250738585072014e-308, 1.7976931348623157e308, 0.0]
        coordinates = [(s * v, -s * w) for v in edges for w in edges for s in (1.0, -1.0)]
        rows = [[1.0, 5e-5, -1e-17], [0.6, -0.8, 9.999999999999999e-05], [0.6, 0.8, 1e-4],
                [5e-5, -5e-5, 1.0], [-1e-300, 1.0, 5e-324], [1.0, 0.0, -0.0], [0.6, 0.8, 1e-5]]
        features = [rows[k % len(rows)] for k in range(len(coordinates))]
        n = len(coordinates)
        frame = FrameRecord(1, 0.0, coordinates, features, [1] * n, [0] * n, list(range(n)))
        tiny = (np.abs(frame.features) < 1e-4) & (frame.features != 0.0)
        assert tiny.any(axis=1).sum() >= n // 2
        self._assert_written_as_reference(DetectionStream((frame,), 1.0), tmp_path)

    @pytest.mark.parametrize("frame_index, ids, timestamp", [
        (2**63 - 1, [0, 1], 0.0),
        (1, [2**63 - 1, 2**63 - 2], 0.0),
        (1, [2**63 - 1, None], 0.0),
        (1, [0, 2**63 - 1], 0.0),
        (1, [0, None], 5e-324),
        (1, [0, 1], 9.999999999999999e-05),
        (1, [None, 1], 1e-4),
        (1, [0, 1], 9999999999999998.0),
        (1, [0, 1], 1e16),
        (2**63 - 1, [2**63 - 1, None], -1e16),
    ])
    def test_ints_and_times_at_orjsons_limits_are_written_as_json_does(self, tmp_path,
                                                                       frame_index, ids,
                                                                       timestamp):
        # a frame index or id holds at most 2**63 - 1, and orjson prints a time outside
        # 1e-4 <= |t| < 1e16 unlike repr; a tiny coordinate puts a null in the line too
        frame = FrameRecord(frame_index, timestamp, [(1e-5, 2.0), (3.0, 1e17)],
                            [[0.6, 0.8], [1.0, 1e-20]], [1, 1], [0, 1], ids)
        stream = DetectionStream((frame,), 1.0)
        self._assert_written_as_reference(stream, tmp_path)
        assert parse_stream(tmp_path / "got.jsonl") == stream

    def test_floats_over_every_binary_exponent_are_written(self, tmp_path):
        # 2**20 coordinates: a quarter over every exponent, subnormals included, and the rest
        # over the exponents from below 1e-4 to above 1e16, most of which orjson prints itself.
        # Each feature row is a leading +-1 and an entry below 2**-30, whose square vanishes
        # beside 1, so the rows are unit as they are and orjson prints nearly no entry but
        # the first. A delta of 1e-5 puts the header's delta and the times of frames 2 to 10
        # there too.
        rng = np.random.default_rng(20261020)
        shape = (2**19, 2)
        sign = rng.integers(0, 2, size=shape, dtype=np.uint64) << np.uint64(63)
        exponent = rng.integers(0, 2047, size=shape, dtype=np.uint64)
        near = rng.random(shape) < 0.75
        exponent[near] = rng.integers(1023 - 16, 1023 + 56, size=int(near.sum()), dtype=np.uint64)
        mantissa = rng.integers(0, 2**52, size=shape, dtype=np.uint64)
        coordinates = (sign | exponent << np.uint64(52) | mantissa).view(np.float64)
        coordinates[rng.random(shape) < 0.01] = 0.0
        n, dim = 2**15, 2
        sign = rng.integers(0, 2, size=(len(coordinates), dim - 1), dtype=np.uint64)
        exponent = rng.integers(0, 1023 - 30, size=sign.shape, dtype=np.uint64)
        exponent[rng.random(sign.shape) < 0.1] = 0
        mantissa = rng.integers(0, 2**52, size=sign.shape, dtype=np.uint64)
        tiny = (sign << np.uint64(63) | exponent << np.uint64(52) | mantissa).view(np.float64)
        features = np.hstack([rng.choice([-1.0, 1.0], size=(len(tiny), 1)), tiny])
        frames = []
        for k in range(len(coordinates) // n):
            rows = slice(k * n, (k + 1) * n)
            ids = rng.integers(2**62, 2**63, size=n).tolist() if k % 2 else None
            frames.append(FrameRecord(k + 1, k * 1e-5, coordinates[rows], features[rows],
                                      [1] * n, rng.integers(0, 2, size=n), ids))
        stream = DetectionStream(tuple(frames), 1e-5)
        self._assert_written_as_reference(stream, tmp_path)

    def test_no_frame_line_holds_the_letter_l(self, tmp_path):
        # write_stream finds each null orjson prints by its l, so no key or number may hold one
        frame = FrameRecord(2**63 - 1, 1e300, [(-1e-300, 5e-324), (1.5, -1.7976931348623157e308)],
                            [[1.0, -1e-200, 0.0], [-0.0, 0.6, -0.8]], [1, 1], [0, 1],
                            [None, 2**63 - 1])
        stream = DetectionStream((frame,), 1.0)
        path = tmp_path / "stream.jsonl"
        write_stream(stream, path)

        def keys(value):
            if isinstance(value, dict):
                return set(value) | set().union(*map(keys, value.values()))
            return set().union(*map(keys, value)) if isinstance(value, list) else set()

        (line,) = path.read_bytes().splitlines()[1:]
        found = keys(json.loads(line))
        assert found == {"frame", "t", "det", "x", "y", "f", "id", "in", "out"}
        assert not any("l" in key for key in found)
        assert b"l" not in line

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_a_frame_of_non_contiguous_arrays_is_written_as_json_does(self, tmp_path, layout):
        # a frame keeps a read-only array as it is; orjson refuses one not C-contiguous
        rng = np.random.default_rng(7)
        features, coordinates = _unit_rows(rng.standard_normal((12, 5))), rng.random((12, 2))
        if layout == "fortran":
            features, coordinates = np.asfortranarray(features), np.asfortranarray(coordinates)
        else:
            features, coordinates = features[::2], coordinates[::2]
        for arr in (features, coordinates):
            arr.setflags(write=False)
        n = len(features)
        frame = FrameRecord(1, 0.0, coordinates, features, [1] * n, [1] * n)
        assert frame.features is features and not features.flags.c_contiguous
        assert frame.coordinates is coordinates and not coordinates.flags.c_contiguous
        self._assert_written_as_reference(DetectionStream((frame,), 1.0), tmp_path)

    def test_extreme_exponents_round_trip_bit_for_bit(self, tmp_path):
        # Finite floats drawn uniformly over the binary exponent, subnormals
        # included, so the decoder's rounding is checked at every scale. Each
        # feature row is a leading +-1 and entries below 2**-30, whose squares
        # vanish beside 1, so the rows are unit as they are.
        rng = np.random.default_rng(20231)

        def floats(shape, top):
            sign = rng.integers(0, 2, size=shape, dtype=np.uint64) << np.uint64(63)
            exponent = rng.integers(0, top, size=shape, dtype=np.uint64)
            exponent[rng.random(shape) < 0.1] = 0
            mantissa = rng.integers(0, 2**52, size=shape, dtype=np.uint64)
            return (sign | exponent << np.uint64(52) | mantissa).view(np.float64)

        n, dim = 300, 8
        frames = []
        for k in range(3):
            features = np.hstack([rng.choice([-1.0, 1.0], size=(n, 1)),
                                  floats((n, dim - 1), 1023 - 30)])
            frames.append(FrameRecord(k + 1, 0.25 * k, floats((n, 2), 2047), features,
                                      [1] * n, [1] * n, rng.integers(0, 2**62, size=n).tolist()))
        stream = DetectionStream(tuple(frames), 0.25)
        path = tmp_path / "extreme.jsonl"
        write_stream(stream, path)
        back = parse_stream(path)
        for got, want in zip(back.frames, stream.frames, strict=True):
            assert got.features.tobytes() == want.features.tobytes()
            assert got.coordinates.tobytes() == want.coordinates.tobytes()
            assert got.gt_ids == want.gt_ids


# ---- orjson against json ----------------------------------------------------
# A valid three-line stream as JSON values, edited at random and written out;
# the parser must read it as it does with every line decoded by json.loads.

_EDIT_BASE = [
    {"schema": 1, "dim": 2, "delta": 0.5},
    {"frame": 1, "t": 0.0, "det": [{"x": 1.5, "y": -2.0, "f": [0.6, 0.8], "id": 0},
                                   {"x": 3.0, "y": 4.5, "f": [1.0, 0.0]}],
     "in": [1, 1], "out": [0, 1]},
    {"frame": 2, "t": 0.5, "det": [{"x": 1.0, "y": 2.5, "f": [-0.6, 0.8], "id": 7}],
     "in": [0], "out": [1]},
]
_EDGE_INTEGERS = [2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 10**30,
                  # the largest integer that rounds to a finite float, and the next one
                  2**1024 - 2**970 - 1, 2**1024 - 2**970]
_EDGE_LITERALS = (
    [str(v) for g in _EDGE_INTEGERS for v in (g, -g)]
    + ["0", "1", "-0", "-0.0", "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400",
       "5e-324", "2.4703282292062328e-324", "2.2250738585072011e-308", "1.7976931348623158e308",
       '"\\ud800"', '"x\\udfff"', f"[{2**64 + 1}]", f'{{"a":{2**64 + 1}}}', "[]", "{}",
       "null", "true"]
)


@st.composite
def _real_literals(draw):
    """Decimal literals of up to 40 significant digits at exponents past float range both ways."""
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.integers(0, len(digits) - 1))
    lead = draw(st.sampled_from("123456789"))
    return (f"{draw(st.sampled_from(['', '-']))}{lead}{digits[:point]}.{digits[point:] or '0'}"
            f"e{draw(st.integers(-345, 310))}")


_LITERALS = (st.sampled_from(_EDGE_LITERALS) | _real_literals()
             | st.integers(-10**40, 10**40).map(str)
             | st.floats(allow_nan=False, allow_infinity=False).map(repr))


def _places(value, path=()):
    """Paths of every value inside a JSON value, the value itself first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from _places(child, path + (key,))


def _edited_lines(data) -> list[str]:
    """The base lines after one to three random edits, as text.

    An edit replaces a value with a literal, or repeats a key of an object with
    a literal value before or after the original, or, under the key "\\ud800",
    adds one. Last, a comma may be put before a closing bracket. Markers stand
    in for the literals until the lines are text.
    """
    values = json.loads(json.dumps(_EDIT_BASE))
    literals = {}
    for _ in range(data.draw(st.integers(1, 3))):
        line = data.draw(st.integers(0, len(values) - 1))
        marker = f"@{len(literals)}@"
        literals[json.dumps(marker)] = data.draw(_LITERALS)
        path = data.draw(st.sampled_from(list(_places(values[line]))))
        parent = values[line]
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]] if path else parent
        if isinstance(target, dict) and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(sorted(target) + ["\ud800"]))
            name = f"@key{len(literals)}@"
            literals[json.dumps(name)] = json.dumps(key)
            pair = {name: marker}
            merged = {**pair, **target} if data.draw(st.booleans()) else {**target, **pair}
            target.clear()
            target.update(merged)
        elif path:
            parent[path[-1]] = marker
        else:
            values[line] = marker
    lines = [json.dumps(v, separators=(",", ":")) for v in values]
    for marker, literal in literals.items():
        lines = [line.replace(marker, literal) for line in lines]
    if data.draw(st.booleans()):
        line = data.draw(st.integers(0, len(lines) - 1))
        closes = [k for k, c in enumerate(lines[line]) if c in "]}"]
        if closes:
            at = data.draw(st.sampled_from(closes))
            lines[line] = lines[line][:at] + "," + lines[line][at:]
    return lines


def _outcome(path):
    """The parsed stream to the bit, or the type and message of what parsing raised."""
    try:
        stream = parse_stream(path)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(stream.delta), [
        (repr(f.frame_index), repr(f.timestamp), f.inflow.tolist(), f.outflow.tolist(),
         repr(f.gt_ids), f.coordinates.tobytes(), f.features.shape, f.features.tobytes())
        for f in stream.frames
    ]


_NUMBER = re.compile(r"(-?\d+)(\.\d+)?([eE][-+]?\d+)?")


def _past_64_bits(lines) -> bool:
    """Whether the lines hold an integer literal outside [-2**63, 2**64)."""
    return any(not (m[2] or m[3]) and not -2**63 <= int(m[1]) < 2**64
               for line in lines for m in _NUMBER.finditer(line))


class TestDecoderProperties:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_orjson_decoding_parses_as_json_does(self, data):
        lines = _edited_lines(data)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory, "stream.jsonl")
            path.write_text("\n".join(lines) + "\n", encoding="ascii")
            got = _outcome(path)
            with mock.patch.object(streamio, "_decode", json.loads):
                want = _outcome(path)
        if _past_64_bits(lines) and got != want:
            # orjson reads such a literal as a float, and a message prints it so: both
            # sides must refuse the stream, with one exception type, at one line
            assert isinstance(want[0], type) and got[0] is want[0], lines
            line = want[1].removeprefix(f"{path}:").split(":")[0]
            assert line.isdigit() and got[1].startswith(f"{path}:{line}: "), lines
        else:
            assert got == want, lines
