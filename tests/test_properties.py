"""Property-based tests: the assignment solver against the enumeration oracle,
the counting step against a nested-loop reference of the template memory, the
cost matrix against numpy's segment reductions,
counts under renumbered ground-truth ids, transport marginals at convergence,
and stream files through write and parse."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vicount import (
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
        frames.append(_unit_rows(bases[present] + noise * rng.standard_normal((len(present), dim))))
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
        frames, cfg = scene
        memory = MemoryState.empty()
        entries, next_id = [], 0
        for rows in frames:
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
            for k, (_, templates, _) in enumerate(entries):
                got = memory.templates[k, : memory.fill[k]]
                assert np.array_equal(got, np.array(templates))

    @_SETTINGS
    @given(_scenes())
    def test_total_is_inflow_sum_and_at_least_largest_frame(self, scene):
        frames, cfg = scene
        report = count_video(_stream(frames), cfg)
        assert report.total == sum(r.inflow for r in report.per_step)
        assert report.total >= max(len(rows) for rows in frames)


class TestCostMatrixProperties:
    @_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 8), st.integers(1, 6),
           st.integers(1, 5))
    def test_cost_matrix_equals_the_reduceat_oracle(self, seed, width, size, n, dim):
        # Widths past 8 reach past numpy's 8-wide pairwise summation block.
        rng = np.random.default_rng(seed)
        fill = rng.integers(1, width + 1, size)
        # every slot holds a row, so one read past an entry's fill would show
        templates = rng.standard_normal((size, width, dim))
        memory = MemoryState(templates, fill, np.ones(size, dtype=np.intp),
                             np.arange(size), size)
        features = rng.standard_normal((n, dim))
        costs = 1.0 - features @ templates[np.arange(width) < fill[:, None]].T
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
                    "in": list(frame.inflow), "out": list(frame.outflow)}
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
            got, want = Path(directory, "got.jsonl"), Path(directory, "want.jsonl")
            write_stream(stream, got)
            _reference_write(stream, want)
            assert got.read_bytes() == want.read_bytes()
