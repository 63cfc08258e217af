"""Tests for the template-memory count predictor."""

import numpy as np
import pytest

from vicount import (
    CountReport,
    DataError,
    Detection,
    DetectionStream,
    FrameRecord,
    McpConfig,
    MemoryState,
    SimConfig,
    TemplateEntry,
    count_video,
    generate_scene,
    gt_unique_count,
    scene_from_lifespans,
    step,
    template_cost,
)
from vicount.counting import _cost_matrix


def _det(feature):
    return Detection((0.0, 0.0), np.asarray(feature, dtype=np.float64))


def _rows(*dets):
    return np.array([d.feature for d in dets])


def _angle_det(theta):
    return _det([np.cos(theta), np.sin(theta)])


E0 = _det([1.0, 0.0])
E1 = _det([0.0, 1.0])


class TestTemplateCost:
    def test_aggregators(self):
        entry = TemplateEntry(0, (np.array([1.0, 0.0]), np.array([0.0, 1.0])), 3)
        assert template_cost(E0, entry, "max") == pytest.approx(1.0)
        assert template_cost(E0, entry, "min") == pytest.approx(0.0)
        assert template_cost(E0, entry, "mean") == pytest.approx(0.5)

    def test_perfect_match_is_free(self):
        entry = TemplateEntry(0, (np.array([1.0, 0.0]),), 3)
        assert template_cost(E0, entry) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        entry = TemplateEntry(0, (np.array([1.0, 0.0, 0.0]),), 3)
        with pytest.raises(DataError, match="dimension mismatch"):
            template_cost(E0, entry)

    def test_unknown_aggregator(self):
        entry = TemplateEntry(0, (np.array([1.0, 0.0]),), 3)
        with pytest.raises(DataError):
            template_cost(E0, entry, "median")


class TestCostMatrix:
    """The batched cost matrix against a per-pair, per-template loop."""

    @staticmethod
    def _memory(rng, cfg, dim):
        entries = []
        for k in range(1, cfg.mem_max + 1):
            templates = rng.standard_normal((k, dim))
            templates /= np.linalg.norm(templates, axis=1, keepdims=True)
            entries.append(TemplateEntry(k, templates, cfg.ttl_max))
        return MemoryState(tuple(entries), cfg.mem_max + 1)

    def test_aggregators_match_nested_loops(self):
        rng = np.random.default_rng(5)
        cfg = McpConfig(mem_max=6)
        memory = self._memory(rng, cfg, 8)
        dets = [_det(f) for f in rng.standard_normal((7, 8))]
        reduce = {"max": np.max, "min": np.min, "mean": np.mean}
        for aggregator, agg in reduce.items():
            want = np.array([
                [agg([1.0 - np.dot(d.feature, t) for t in e.templates]) for e in memory.entries]
                for d in dets
            ])
            got = _cost_matrix(np.array([d.feature for d in dets]), memory, aggregator)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            for i, d in enumerate(dets):
                for k, e in enumerate(memory.entries):
                    assert template_cost(d, e, aggregator) == pytest.approx(want[i, k], abs=1e-12)

    def test_dimension_mismatch_in_step(self):
        rng = np.random.default_rng(6)
        cfg = McpConfig()
        memory = self._memory(rng, cfg, 8)
        with pytest.raises(DataError, match="dimension mismatch"):
            step(memory, _rows(E0, E1), cfg)
        mixed = (_det(rng.standard_normal(8)), _det(rng.standard_normal(3)))
        with pytest.raises(DataError, match="dimension mismatch"):
            step(memory, [d.feature for d in mixed], cfg)


class TestStep:
    def test_empty_memory_all_inflow(self):
        memory, record = step(MemoryState.empty(), _rows(E0, E1), McpConfig())
        assert record.inflow == 2
        assert record.associations == ()
        assert record.new_entry_ids == (0, 1)
        assert memory.next_entry_id == 2
        assert [e.entry_id for e in memory.entries] == [0, 1]
        assert all(e.ttl == 3 for e in memory.entries)

    def test_no_detections_ticks_ttl(self):
        memory, _ = step(MemoryState.empty(), _rows(E0), McpConfig())
        memory, record = step(memory, (), McpConfig())
        assert record.inflow == 0
        assert memory.entries[0].ttl == 2

    def test_match_refreshes_ttl_and_appends_template(self):
        cfg = McpConfig(ttl_max=2)
        memory, _ = step(MemoryState.empty(), _rows(E0), cfg)
        memory, _ = step(memory, (), cfg)
        assert memory.entries[0].ttl == 1
        memory, record = step(memory, _rows(E0), cfg)
        assert record.inflow == 0
        assert record.associations == ((0, 0),)
        assert memory.entries[0].ttl == 2
        assert len(memory.entries[0].templates) == 2

    def test_costly_match_rejected_as_inflow(self):
        cfg = McpConfig(zeta=0.5)
        memory, _ = step(MemoryState.empty(), _rows(E0), cfg)
        memory, record = step(memory, _rows(E1), cfg)
        assert record.inflow == 1
        assert record.new_entry_ids == (1,)
        # the rejected entry is treated as missed
        assert memory.entries[0].entry_id == 0
        assert memory.entries[0].ttl == 2

    def test_survives_gap_equal_to_ttl(self):
        cfg = McpConfig(zeta=0.5, ttl_max=1)
        memory, _ = step(MemoryState.empty(), _rows(E0, E1), cfg)
        memory, _ = step(memory, _rows(E0), cfg)
        assert [e.entry_id for e in memory.entries] == [0, 1]
        memory, record = step(memory, _rows(E0, E1), cfg)
        assert record.inflow == 0
        assert (1, 1) in record.associations

    def test_dropped_after_gap_exceeding_ttl(self):
        cfg = McpConfig(zeta=0.5, ttl_max=1)
        memory, _ = step(MemoryState.empty(), _rows(E0, E1), cfg)
        memory, _ = step(memory, _rows(E0), cfg)
        memory, _ = step(memory, _rows(E0), cfg)
        assert [e.entry_id for e in memory.entries] == [0]
        memory, record = step(memory, _rows(E0, E1), cfg)
        assert record.inflow == 1
        assert record.new_entry_ids == (2,)

    def test_template_fifo_eviction(self):
        cfg = McpConfig(mem_max=2)
        f1, f2, f3 = (_angle_det(t) for t in (0.0, 0.1, 0.2))
        memory, _ = step(MemoryState.empty(), _rows(f1), cfg)
        memory, _ = step(memory, _rows(f2), cfg)
        memory, _ = step(memory, _rows(f3), cfg)
        entry = memory.entries[0]
        assert len(entry.templates) == 2
        assert np.array_equal(entry.templates[0], f2.feature)
        assert np.array_equal(entry.templates[1], f3.feature)

    def test_greedy_conflicts_resolved_jointly(self):
        # both detections are individually closest to entry 0; a per-detection
        # greedy pick would collide, the joint assignment keeps both matched
        cfg = McpConfig(zeta=0.7)
        memory, _ = step(MemoryState.empty(), _rows(_angle_det(0.0), _angle_det(1.0)), cfg)
        memory, record = step(memory, _rows(_angle_det(0.1), _angle_det(0.3)), cfg)
        assert record.inflow == 0
        assert dict(record.associations) == {0: 0, 1: 1}


class TestMemoryState:
    def test_entries_round_trip(self):
        entries = (
            TemplateEntry(4, (np.array([1.0, 0.0]),), 2),
            TemplateEntry(7, (np.array([0.6, 0.8]), np.array([0.0, 1.0]), np.array([1.0, 0.0])), 0),
        )
        memory = MemoryState(entries, 9)
        assert memory.templates.shape == (2, 3, 2)
        assert memory.fill.tolist() == [1, 3]
        assert len(memory.entries) == 2 and memory.next_entry_id == 9
        for got, want in zip(memory.entries, entries):
            assert (got.entry_id, got.ttl) == (want.entry_id, want.ttl)
            assert np.array_equal(got.templates, want.templates)
        assert memory.entries[-1].entry_id == 7
        assert [e.entry_id for e in memory.entries[::-1]] == [7, 4]

    def test_immutable(self):
        memory, _ = step(MemoryState.empty(), _rows(E0, E1), McpConfig())
        with pytest.raises(AttributeError):
            memory.next_entry_id = 5
        with pytest.raises(ValueError):
            memory.ttl[0] = 9
        with pytest.raises(ValueError):
            memory.templates[0, 0, 0] = 5.0

    def test_step_leaves_input_memory_unchanged(self):
        cfg = McpConfig(mem_max=2, ttl_max=1)
        memory, _ = step(MemoryState.empty(), _rows(E0, E1), cfg)
        before = [(e.entry_id, e.ttl, e.templates.copy()) for e in memory.entries]
        step(memory, _rows(_angle_det(0.05)), cfg)
        after = [(e.entry_id, e.ttl, e.templates) for e in memory.entries]
        assert [a[:2] for a in after] == [b[:2] for b in before]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(after, before))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DataError, match="dimension mismatch"):
            MemoryState((TemplateEntry(0, (np.array([1.0, 0.0]),), 1),
                         TemplateEntry(1, (np.array([1.0, 0.0, 0.0]),), 1)))

    def test_count_builds_no_entries_and_stacks_nothing(self, monkeypatch):
        stream = generate_scene(
            SimConfig(num_identities=12, num_frames=10, feature_noise_sigma=0.05,
                      max_base_similarity=0.3, seed=4)
        )
        want = count_video(stream, McpConfig(mem_max=2))

        def refuse(*args, **kwargs):
            raise AssertionError("the memory step must stay on arrays")

        monkeypatch.setattr(TemplateEntry, "__post_init__", refuse)
        monkeypatch.setattr(np, "vstack", refuse)
        assert count_video(stream, McpConfig(mem_max=2)) == want


class TestMcpConfig:
    def test_defaults_valid(self):
        cfg = McpConfig()
        assert cfg.zeta == 0.7 and cfg.ttl_max == 3

    def test_zeta_boundaries(self):
        McpConfig(zeta=0.0)
        McpConfig(zeta=2.5)
        with pytest.raises(DataError):
            McpConfig(zeta=-0.1)
        with pytest.raises(DataError):
            McpConfig(zeta=float("inf"))

    def test_other_fields(self):
        with pytest.raises(DataError):
            McpConfig(ttl_max=0)
        with pytest.raises(DataError):
            McpConfig(mem_max=0)
        with pytest.raises(DataError):
            McpConfig(template_aggregator="median")


class TestCountVideo:
    def test_empty_stream(self):
        report = count_video(DetectionStream((), 1.0), McpConfig())
        assert report == CountReport((), 0)

    def test_stream_of_empty_frames(self):
        frames = tuple(
            FrameRecord(k + 1, k * 2.0, (), (), (), ()) for k in range(3)
        )
        report = count_video(DetectionStream(frames, 2.0), McpConfig())
        assert report.total == 0

    def test_first_frame_seeds_memory(self):
        frame = FrameRecord(1, 0.0, np.zeros((2, 2)), _rows(E0, E1), (1, 1), (1, 1))
        report = count_video(DetectionStream((frame,), 1.0), McpConfig())
        assert report.total == 2
        assert report.per_step[0].new_entry_ids == (0, 1)
        assert report.per_step[0].frame_index == 1

    def test_matches_ground_truth_on_separable_scenes(self):
        for seed in range(5):
            stream = generate_scene(
                SimConfig(
                    num_identities=15,
                    num_frames=12,
                    max_base_similarity=0.3,
                    seed=seed,
                )
            )
            report = count_video(stream, McpConfig())
            assert report.total == gt_unique_count(stream)

    def test_reentry_within_ttl_not_recounted(self):
        cfg = SimConfig(num_identities=2, num_frames=8, max_base_similarity=0.3, seed=3)
        stream = scene_from_lifespans(cfg, [[(0, 7)], [(0, 1), (5, 7)]])
        report = count_video(stream, McpConfig(ttl_max=3))
        assert report.total == 2

    def test_reentry_past_ttl_recounted(self):
        cfg = SimConfig(num_identities=2, num_frames=9, max_base_similarity=0.3, seed=3)
        stream = scene_from_lifespans(cfg, [[(0, 8)], [(0, 1), (6, 8)]])
        report = count_video(stream, McpConfig(ttl_max=3))
        assert report.total == 3

    def test_total_is_sum_of_inflows(self):
        stream = generate_scene(
            SimConfig(num_identities=10, num_frames=10, max_base_similarity=0.3, seed=9)
        )
        report = count_video(stream, McpConfig())
        assert report.total == sum(r.inflow for r in report.per_step)

    def test_deterministic(self):
        stream = generate_scene(
            SimConfig(num_identities=8, num_frames=6, feature_noise_sigma=0.05,
                      max_base_similarity=0.3, seed=11)
        )
        assert count_video(stream, McpConfig()) == count_video(stream, McpConfig())


class TestTemplateEntryValidation:
    def test_needs_templates(self):
        with pytest.raises(DataError):
            TemplateEntry(0, (), 3)

    def test_negative_ttl(self):
        with pytest.raises(DataError):
            TemplateEntry(0, (np.array([1.0]),), -1)

    def test_templates_of_one_dimension(self):
        with pytest.raises(DataError):
            TemplateEntry(0, (np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])), 3)
        with pytest.raises(DataError):
            TemplateEntry(0, np.array([1.0, 0.0]), 3)

    def test_templates_read_only(self):
        entry = TemplateEntry(0, (np.array([1.0, 0.0]),), 3)
        with pytest.raises(ValueError):
            entry.templates[0][0] = 5.0
