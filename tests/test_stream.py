"""Data model and similarity partitioning tests."""

import tracemalloc

import numpy as np
import pytest

from vicount import (
    DataError,
    DetectionStream,
    FrameRecord,
    SimilarityBlocks,
    pair_blocks,
    partition_similarity,
    shared_count,
)


def _frame(idx, feats, inflow, outflow, t=None):
    coords = np.zeros((len(feats), 2))
    return FrameRecord(idx, (idx - 1) * 3.0 if t is None else t, coords, feats, inflow, outflow)


def _normalized(v):
    """v as the unit row that a frame holding it stores."""
    return _frame(1, [v], (1,), (1,)).features[0]


class TestNormalizeFeature:
    """Feature rows are normalized once, where a frame is built."""

    def test_three_four_five(self):
        np.testing.assert_array_equal(_normalized([3.0, 4.0]), [0.6, 0.8])

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(_normalized(v), v)

    def test_zero_vector_raises(self):
        with pytest.raises(DataError, match="degenerate feature"):
            _normalized([0.0, 0.0])

    def test_non_finite_raises(self):
        with pytest.raises(DataError, match="degenerate feature"):
            _normalized([np.nan, 1.0])

    @pytest.mark.parametrize("v, unit", [
        ([-1e300, 1e300], [-0.5**0.5, 0.5**0.5]),  # squared norm overflows
        ([1e-200, 0.0], [1.0, 0.0]),  # squared norm underflows to 0
    ])
    def test_extreme_scales_normalize(self, v, unit):
        np.testing.assert_allclose(_normalized(v), unit, rtol=0, atol=1e-15)

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.uniform(-10, 10, size=rng.integers(1, 20))
            if not np.any(v):
                continue
            out = _normalized(v)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            v = rng.standard_normal(8)
            once = _normalized(v)
            twice = _normalized(once)
            np.testing.assert_array_equal(once, twice)


class TestSharedCount:
    def test_consistent_labels(self):
        assert shared_count((0, 0, 1), (0, 0, 1, 1)) == 2

    def test_inconsistent_labels(self):
        with pytest.raises(DataError, match="inconsistent weak labels"):
            shared_count((0, 0, 1), (0, 1, 1))

    def test_empty(self):
        assert shared_count((), ()) == 0

    def test_all_turnover(self):
        assert shared_count((1, 1), (1, 1, 1)) == 0

    @pytest.mark.parametrize("label", [0, np.int64(1), [[0, 1], [1, 0]], np.zeros((2, 2), int)],
                             ids=["int", "numpy-int", "nested-list", "2-d-array"])
    def test_a_scalar_or_2d_label_is_refused_by_name(self, label):
        with pytest.raises(DataError, match=r"\boutflow_i\b"):
            shared_count(label, [0, 1])
        with pytest.raises(DataError, match=r"\binflow_j\b"):
            shared_count([0, 1], label)


class TestDetection:
    """frame.detections views the frame's validated rows as plain records."""

    def test_feature_normalized_at_construction(self):
        d = _frame(1, [[3.0, 4.0]], (1,), (1,)).detections[0]
        np.testing.assert_array_equal(d.feature, [0.6, 0.8])

    def test_feature_read_only(self):
        d = _frame(1, [[1.0, 0.0]], (1,), (1,)).detections[0]
        with pytest.raises(ValueError):
            d.feature[0] = 5.0

    def test_negative_gt_id(self):
        with pytest.raises(DataError, match=r"det\[0\]: gt_id"):
            FrameRecord(1, 0.0, [(0.0, 0.0)], [[1.0, 0.0]], (1,), (1,), [-1])


class TestFrameRecord:
    def test_bit_length_mismatch(self):
        with pytest.raises(DataError, match="inflow"):
            _frame(1, [[1.0, 0.0]], inflow=(1, 1), outflow=(0,))

    def test_non_binary_bits(self):
        with pytest.raises(DataError, match="0 or 1"):
            _frame(1, [[1.0, 0.0]], inflow=(2,), outflow=(0,))

    @pytest.mark.parametrize("bit", [True, False, np.True_, 1.0, 0.0, "1", None])
    def test_non_integer_bits_rejected(self, bit):
        with pytest.raises(DataError, match=r"inflow\[0\] must be an integer 0 or 1"):
            _frame(1, [[1.0, 0.0]], inflow=[bit], outflow=(1,))

    def test_bool_among_integer_bits_rejected(self):
        # np.asarray([1, True]) is an int64 array, which would hide the bool
        with pytest.raises(DataError, match=r"outflow\[1\] must be an integer 0 or 1, got True"):
            _frame(1, [[1.0, 0.0], [0.0, 1.0]], inflow=(1, 1), outflow=[1, True])

    @pytest.mark.parametrize("bits, got", [(1, r"shape \(\)"), ([[1]], r"shape \(1, 1\)")])
    def test_bits_must_be_a_flat_list(self, bits, got):
        with pytest.raises(DataError, match=f"inflow has {got} for 1 detections"):
            _frame(1, [[1.0, 0.0]], inflow=bits, outflow=(1,))

    def test_bool_array_bits_rejected(self):
        with pytest.raises(DataError, match="got True"):
            _frame(1, [[1.0, 0.0]], inflow=np.array([True]), outflow=(1,))

    def test_integer_bits_kept(self):
        frame = _frame(1, np.eye(3), inflow=np.array([1, 1, 1], dtype=np.uint8),
                       outflow=[np.int64(0), 1, 0])
        assert frame.inflow.tolist() == [1, 1, 1] and frame.outflow.tolist() == [0, 1, 0]
        assert frame.inflow.dtype == frame.outflow.dtype == np.intp

    def test_frame_index_positive(self):
        with pytest.raises(DataError, match="frame_index"):
            _frame(0, [], inflow=(), outflow=())

    def test_mixed_dims(self):
        with pytest.raises(DataError, match="dimension"):
            FrameRecord(1, 0.0, np.zeros((2, 2)), [[1.0, 0.0], [1.0, 0.0, 0.0]], (1, 1), (0, 0))

    @pytest.mark.parametrize("coordinates, gt_ids, message", [
        (np.zeros((2, 2)), [0], "gt_ids has 1 entries for 2 detections"),
        (np.zeros((2, 3)), None, r"coordinates have shape \(2, 3\), expected \(2, 2\)"),
    ])
    def test_per_detection_lengths_must_agree(self, coordinates, gt_ids, message):
        with pytest.raises(DataError, match=message):
            FrameRecord(1, 0.0, coordinates, np.eye(2), (1, 1), (1, 1), gt_ids)

    def test_not_equal_to_another_type(self):
        frame = _frame(1, [[1.0, 0.0]], (1,), (1,))
        assert frame.__eq__(object()) is NotImplemented
        assert (frame == object()) is False

    def test_equal_after_normalization(self):
        def frame(feature, gt_id):
            return FrameRecord(1, 0.0, [(0.0, 0.0)], [feature], (1,), (1,), [gt_id])

        assert frame([3.0, 4.0], 2) == frame([0.6, 0.8], 2)
        assert frame([1.0, 0.0], 2) != frame([0.0, 1.0], 2)
        assert frame([1.0, 0.0], 2) != frame([1.0, 0.0], 3)

    @pytest.mark.parametrize("gt_id", [3.2, 3.9, True, "3", float("nan")])
    def test_non_integral_gt_id_rejected(self, gt_id):
        with pytest.raises(DataError, match=r"det\[0\]: gt_id must be an integer"):
            FrameRecord(1, 0.0, [(0.0, 0.0)], [[1.0, 0.0]], (1,), (1,), [gt_id])

    def test_integral_gt_ids_kept(self):
        frame = FrameRecord(1, 0.0, np.zeros((3, 2)), np.eye(3), (1, 1, 1), (1, 1, 1),
                            [np.int64(4), 5.0, None])
        assert frame.gt_ids == (4, 5, None)
        assert all(type(g) is int for g in frame.gt_ids[:2])

    @pytest.mark.parametrize("index", [1.7, True, "2"])
    def test_non_integral_frame_index_rejected(self, index):
        with pytest.raises(DataError, match="frame_index must be an integer"):
            FrameRecord(index, 0.0, (), (), (), ())


    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 10**400])
    def test_non_finite_timestamp_rejected(self, t):
        with pytest.raises(DataError, match="timestamp must be finite"):
            FrameRecord(1, t, (), (), (), ())

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, x):
        with pytest.raises(DataError, match=r"det\[1\]: non-finite coordinate"):
            FrameRecord(1, 0.0, [(0.0, 0.0), (5.0, x)], np.eye(2), (1, 1), (1, 1))

    def test_coordinate_past_float_range_rejected(self):
        with pytest.raises(DataError, match="non-finite coordinate"):
            FrameRecord(1, 0.0, [(10**400, 0)], [[1.0, 0.0]], (1,), (1,))


class TestDetectionStream:
    @pytest.mark.parametrize("delta", [np.nan, np.inf, 10**400])
    def test_non_finite_delta_rejected(self, delta):
        # an infinite delta would make the spacing tolerance infinite too
        f1 = _frame(1, [], (), ())
        f2 = _frame(2, [], (), (), t=5.0)
        with pytest.raises(DataError, match="delta must be finite"):
            DetectionStream((f1, f2), delta)

    def test_overflowing_gap_rejected(self):
        f1 = _frame(1, [], (), (), t=-1e308)
        f2 = _frame(2, [], (), (), t=1e308)
        with pytest.raises(DataError, match="spaced inf"):
            DetectionStream((f1, f2), 1.0)

    def test_timestamp_spacing_enforced(self):
        f1 = _frame(1, [[1.0, 0.0]], (1,), (0,))
        f2 = FrameRecord(2, 4.0, [(0.0, 0.0)], [[1.0, 0.0]], (0,), (1,))
        with pytest.raises(DataError, match="spaced"):
            DetectionStream((f1, f2), 3.0)

    def test_first_frame_inflow_convention(self):
        f1 = _frame(1, [[1.0, 0.0]], (0,), (0,))
        with pytest.raises(DataError, match="first frame"):
            DetectionStream((f1,), 3.0)

    def test_indices_must_increase(self):
        f1 = _frame(1, [], (), ())
        f2 = _frame(1, [], (), (), t=3.0)
        with pytest.raises(DataError, match="increase"):
            DetectionStream((f1, f2), 3.0)

    def test_feature_dim(self):
        f1 = _frame(1, [], (), ())
        f2 = _frame(2, [[0.0, 1.0, 0.0]], (1,), (1,))
        s = DetectionStream((f1, f2), 3.0)
        assert s.feature_dim == 3
        assert DetectionStream((f1,), 3.0).feature_dim is None

    def test_mixed_dims_across_frames(self):
        f1 = _frame(1, [[1.0, 0.0]], (1,), (0,))
        f2 = _frame(2, [[1.0, 0.0, 0.0]], (0,), (1,))
        with pytest.raises(DataError, match=r"mixed feature dimensions in stream: \[2, 3\]"):
            DetectionStream((f1, f2), 3.0)

    def test_empty_stream(self):
        s = DetectionStream((), 2.0)
        assert len(s) == 0


class TestPartitionSimilarity:
    def test_shapes_and_permutations(self):
        fi = _frame(1, [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], (1, 1, 1), (0, 1, 0))
        fj = _frame(2, [[0.8, 0.6], [1.0, 0.0], [0.0, 1.0]], (0, 0, 1), (1, 1, 1))
        blocks = partition_similarity(fi, fj)
        assert blocks.m == 2
        assert (blocks.n_i, blocks.n_j) == (3, 3)
        assert blocks.s0.shape == (2, 2)
        assert blocks.s1.shape == (2, 1)
        assert blocks.s2.shape == (1, 2)
        assert blocks.s3.shape == (1, 1)
        # stable: zeros first in original order, then ones
        assert blocks.perm_i.tolist() == [0, 2, 1]
        assert blocks.perm_j.tolist() == [0, 1, 2]

    def test_values_match_inner_products(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n_i, n_j = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            m = int(rng.integers(0, min(n_i, n_j) + 1))
            out_bits = [0] * m + [1] * (n_i - m)
            in_bits = [0] * m + [1] * (n_j - m)
            rng.shuffle(out_bits)
            rng.shuffle(in_bits)
            fi = _frame(1, rng.standard_normal((n_i, 4)) + 0.01, [1] * n_i, out_bits)
            fj = _frame(2, rng.standard_normal((n_j, 4)) + 0.01, in_bits, [1] * n_j)
            blocks = partition_similarity(fi, fj)
            full = blocks.full
            for a in range(n_i):
                for b in range(n_j):
                    expect = float(
                        np.dot(fi.features[blocks.perm_i[a]], fj.features[blocks.perm_j[b]])
                    )
                    assert full[a, b] == pytest.approx(expect, abs=1e-12)

    def test_inconsistent_pair_raises(self):
        fi = _frame(1, [[1.0, 0.0]], (1,), (0,))
        fj = _frame(2, [[1.0, 0.0]], (1,), (1,))
        with pytest.raises(DataError, match="inconsistent weak labels"):
            partition_similarity(fi, fj)

    def test_feature_widths_differ(self):
        fi = _frame(1, [[1.0, 0.0]], (1,), (1,))
        fj = _frame(2, [[1.0, 0.0, 0.0]], (1,), (1,))
        with pytest.raises(DataError) as err:
            partition_similarity(fi, fj)
        assert str(err.value) == "feature dimension mismatch: frame_i [2] vs frame_j [3]"

    def test_empty_sides(self):
        fi = _frame(1, [], (), ())
        fj = _frame(2, [[1.0, 0.0]], (1,), (1,))
        blocks = partition_similarity(fi, fj)
        assert blocks.m == 0
        assert blocks.full.shape == (0, 1)

    def test_entries_bounded(self):
        rng = np.random.default_rng(6)
        fi = _frame(1, rng.standard_normal((4, 3)), [1] * 4, [0, 0, 1, 1])
        fj = _frame(2, rng.standard_normal((5, 3)), [0, 0, 1, 1, 1], [1] * 5)
        full = partition_similarity(fi, fj).full
        assert np.all(full <= 1.0) and np.all(full >= -1.0)


class TestSimilarityBlocks:
    def test_from_full_round_trip(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(-1, 1, (4, 6))
        blocks = SimilarityBlocks(s, 3)
        np.testing.assert_array_equal(blocks.full, s)
        assert blocks.m == 3 and blocks.n_i == 4 and blocks.n_j == 6

    def test_bad_permutation(self):
        s = np.zeros((2, 2))
        with pytest.raises(DataError, match="permutation"):
            SimilarityBlocks(s, 1, perm_i=[0, 0])

    def test_shared_count_past_a_side(self):
        with pytest.raises(DataError, match=r"shared count 3 out of range for shape \(2, 4\)"):
            SimilarityBlocks(np.zeros((2, 4)), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        full = np.zeros((2, 3))
        full[1, 2] = bad
        with pytest.raises(DataError, match=rf"full\[1, 2\] must be finite, got {bad}"):
            SimilarityBlocks(full, 1)

    def test_writable_array_copied_read_only_kept(self):
        given = np.zeros((2, 3))
        blocks = SimilarityBlocks(given, 1)
        assert not np.shares_memory(blocks.full, given)
        assert not blocks.full.flags.writeable
        given.setflags(write=False)
        assert SimilarityBlocks(given, 1).full is given

    def test_list_is_read_into_one_array(self):
        rows = np.random.default_rng(8).uniform(-1, 1, (1000, 1000)).tolist()
        tracemalloc.start()
        try:
            blocks = SimilarityBlocks(rows, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 8 MB matrix kept, one boolean mask of 1 MB beside it, and no second copy
        assert peak <= 8.7 * 2**20
        assert not blocks.full.flags.writeable
        assert blocks.full.tolist() == rows


class TestFrameRecordOwnership:
    """A frame keeps its arrays as SimilarityBlocks does: read-only kept, writable copied."""

    @pytest.mark.parametrize("scale", [1.0, 2.0], ids=["unit", "scaled"])
    def test_writable_features_neither_aliased_nor_written(self, scale):
        given = scale * np.eye(3)
        frame = FrameRecord(1, 0.0, np.zeros((3, 2)), given, (1, 1, 1), (1, 1, 1))
        assert not np.shares_memory(frame.features, given)
        assert given.flags.writeable and given.tobytes() == (scale * np.eye(3)).tobytes()
        assert not frame.features.flags.writeable
        np.testing.assert_array_equal(frame.features, np.eye(3))

    def test_read_only_arrays_kept(self):
        coordinates, features, scaled = np.zeros((3, 2)), np.eye(3), 2.0 * np.eye(3)
        for arr in (coordinates, features, scaled):
            arr.setflags(write=False)
        frame = FrameRecord(1, 0.0, coordinates, features, (1, 1, 1), (1, 1, 1))
        assert frame.features is features and frame.coordinates is coordinates
        # rows that are not unit yet are normalized into a new array, never in place
        frame = FrameRecord(1, 0.0, coordinates, scaled, (1, 1, 1), (1, 1, 1))
        assert frame.features is not scaled and scaled.tobytes() == (2.0 * np.eye(3)).tobytes()

    def test_bits_are_read_only_intp_arrays(self):
        given = np.array([1, 0])
        frame = FrameRecord(1, 0.0, np.zeros((2, 2)), np.eye(2), given, [1, 1])
        for bits in (frame.inflow, frame.outflow):
            assert type(bits) is np.ndarray and bits.dtype == np.intp
            assert not bits.flags.writeable
        assert not np.shares_memory(frame.inflow, given)


def test_pair_blocks_covers_adjacent_pairs():
    f1 = _frame(1, [[1.0, 0.0]], (1,), (0,))
    f2 = _frame(2, [[1.0, 0.0], [0.0, 1.0]], (0, 1), (0, 1))
    f3 = _frame(3, [[1.0, 0.0]], (0,), (1,))
    s = DetectionStream((f1, f2, f3), 3.0)
    blocks = pair_blocks(s)
    assert len(blocks) == 2
    assert blocks[0].m == 1 and blocks[1].m == 1
