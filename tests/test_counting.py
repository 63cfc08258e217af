"""Tests for the template-memory count predictor."""

import os
import subprocess
import sys
from pathlib import Path

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
from vicount import counting
from vicount.counting import _cost_matrix
from vicount.stream import _unit_rows


def _rows(*features):
    return np.array(features, dtype=np.float64)


def _angle(theta):
    return np.array([np.cos(theta), np.sin(theta)])


E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])


class TestTemplateCost:
    @staticmethod
    def _cost(templates, aggregator="max"):
        entry = TemplateEntry(0, np.array(templates, dtype=np.float64), 3)
        return template_cost(Detection((0.0, 0.0), E0), entry, aggregator)

    def test_aggregators(self):
        templates = [[1.0, 0.0], [0.0, 1.0]]
        assert self._cost(templates, "max") == pytest.approx(1.0)
        assert self._cost(templates, "min") == pytest.approx(0.0)
        assert self._cost(templates, "mean") == pytest.approx(0.5)

    def test_perfect_match_is_free(self):
        assert self._cost([[1.0, 0.0]]) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension mismatch"):
            self._cost([[1.0, 0.0, 0.0]])

    def test_every_entry_of_a_valid_memory(self):
        memory = MemoryState([[0.0, 1.0], [1.0, 0.0]], [1, 1], [1, 1], [-5, 3], 4)
        costs = [template_cost(Detection((0.0, 0.0), E0), entry) for entry in memory.entries]
        assert costs == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_entry_ids_up_to_the_last(self):
        detection = Detection((0.0, 0.0), E0)
        last = TemplateEntry(2**63 - 2, _rows(E0), 1)
        assert template_cost(detection, last) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(DataError, match=r"entry_id must be at most 2\*\*63 - 2"):
            template_cost(detection, TemplateEntry(2**63 - 1, _rows(E0), 1))

    def test_unknown_aggregator(self):
        with pytest.raises(DataError):
            self._cost([[1.0, 0.0]], "median")


class TestCostMatrix:
    """The batched cost matrix against a per-pair, per-template loop."""

    @staticmethod
    def _memory(rng, cfg, dim):
        # Entry k - 1 holds k templates, k = 1..mem_max.
        size = cfg.mem_max
        fill = np.arange(1, size + 1)
        templates = _unit_rows(rng.standard_normal((fill.sum(), dim)))
        return MemoryState(templates, fill, np.full(size, cfg.ttl_max), fill, size + 1)

    def test_aggregators_match_nested_loops(self):
        rng = np.random.default_rng(5)
        cfg = McpConfig(mem_max=6)
        memory = self._memory(rng, cfg, 8)
        features = _unit_rows(rng.standard_normal((7, 8)))
        stored = [entry.templates for entry in memory.entries]
        reduce = {"max": np.max, "min": np.min, "mean": np.mean}
        for aggregator, agg in reduce.items():
            want = np.array([
                [agg([1.0 - np.dot(f, t) for t in templates]) for templates in stored]
                for f in features
            ])
            got = _cost_matrix(features, memory, aggregator)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            for i, f in enumerate(features):
                for k, templates in enumerate(stored):
                    cost = template_cost(Detection((0.0, 0.0), f),
                                         TemplateEntry(k, templates, cfg.ttl_max), aggregator)
                    assert cost == pytest.approx(want[i, k], abs=1e-12)

    def test_dimension_mismatch_in_step(self):
        rng = np.random.default_rng(6)
        cfg = McpConfig()
        memory = self._memory(rng, cfg, 8)
        with pytest.raises(DataError, match="dimension mismatch"):
            step(memory, _rows(E0, E1), cfg)
        mixed = [_unit_rows(rng.standard_normal((1, d)))[0] for d in (8, 3)]
        with pytest.raises(DataError, match="dimension mismatch"):
            step(memory, mixed, cfg)


class TestStep:
    def test_empty_memory_all_inflow(self):
        memory, record = step(MemoryState.empty(), _rows(E0, E1), McpConfig())
        assert record.inflow == 2
        assert record.associations == ()
        assert record.new_entry_ids == (0, 1)
        assert memory.next_entry_id == 2
        assert memory.entry_id.tolist() == [0, 1]
        assert memory.ttl.tolist() == [3, 3]

    def test_no_detections_ticks_ttl(self):
        memory, _ = step(MemoryState.empty(), _rows(E0), McpConfig())
        memory, record = step(memory, (), McpConfig())
        assert record.inflow == 0
        assert memory.ttl.tolist() == [2]

    def test_match_refreshes_ttl_and_appends_template(self):
        cfg = McpConfig(ttl_max=2)
        memory, _ = step(MemoryState.empty(), _rows(E0), cfg)
        memory, _ = step(memory, (), cfg)
        assert memory.ttl.tolist() == [1]
        memory, record = step(memory, _rows(E0), cfg)
        assert record.inflow == 0
        assert record.associations == ((0, 0),)
        assert memory.ttl.tolist() == [2]
        assert memory.fill.tolist() == [2]

    def test_costly_match_rejected_as_inflow(self):
        cfg = McpConfig(zeta=0.5)
        memory, _ = step(MemoryState.empty(), _rows(E0), cfg)
        memory, record = step(memory, _rows(E1), cfg)
        assert record.inflow == 1
        assert record.new_entry_ids == (1,)
        # the rejected entry is treated as missed
        assert memory.entry_id[0] == 0
        assert memory.ttl[0] == 2

    def test_survives_gap_equal_to_ttl(self):
        cfg = McpConfig(zeta=0.5, ttl_max=1)
        memory, _ = step(MemoryState.empty(), _rows(E0, E1), cfg)
        memory, _ = step(memory, _rows(E0), cfg)
        assert memory.entry_id.tolist() == [0, 1]
        memory, record = step(memory, _rows(E0, E1), cfg)
        assert record.inflow == 0
        assert (1, 1) in record.associations

    def test_dropped_after_gap_exceeding_ttl(self):
        cfg = McpConfig(zeta=0.5, ttl_max=1)
        memory, _ = step(MemoryState.empty(), _rows(E0, E1), cfg)
        memory, _ = step(memory, _rows(E0), cfg)
        memory, _ = step(memory, _rows(E0), cfg)
        assert memory.entry_id.tolist() == [0]
        memory, record = step(memory, _rows(E0, E1), cfg)
        assert record.inflow == 1
        assert record.new_entry_ids == (2,)

    def test_template_fifo_eviction(self):
        cfg = McpConfig(mem_max=2)
        f1, f2, f3 = (_angle(t) for t in (0.0, 0.1, 0.2))
        memory, _ = step(MemoryState.empty(), _rows(f1), cfg)
        memory, _ = step(memory, _rows(f2), cfg)
        memory, _ = step(memory, _rows(f3), cfg)
        assert memory.fill.tolist() == [2]
        assert np.array_equal(memory.templates, _rows(f2, f3))

    def test_fresh_ids_follow_the_given_next_entry_id(self):
        memory = MemoryState([[1.0, 0.0]], [1], [1], [5], 6)
        memory, record = step(memory, _rows(E1), McpConfig())
        assert record.new_entry_ids == (6,)
        assert memory.entry_id.tolist() == [5, 6] and memory.next_entry_id == 7

    def test_the_last_entry_id_is_handed_out_and_then_none_is_left(self):
        last = 2**63 - 2
        memory = MemoryState(np.zeros((0, 0)), [], [], [], last)
        memory, record = step(memory, _rows(E1), McpConfig())
        assert record.new_entry_ids == (last,) and memory.next_entry_id == last + 1
        memory, record = step(memory, _rows(E1), McpConfig())
        assert record.associations == ((0, last),)
        with pytest.raises(DataError, match="no entry id is left for 1 fresh entries"):
            step(memory, _rows(E1, E0), McpConfig())

    def test_greedy_conflicts_resolved_jointly(self):
        # both detections are individually closest to entry 0; a per-detection
        # greedy pick would collide, the joint assignment keeps both matched
        cfg = McpConfig(zeta=0.7)
        memory, _ = step(MemoryState.empty(), _rows(_angle(0.0), _angle(1.0)), cfg)
        memory, record = step(memory, _rows(_angle(0.1), _angle(0.3)), cfg)
        assert record.inflow == 0
        assert dict(record.associations) == {0: 0, 1: 1}

    # _assign's path search never ends on a non-finite cost, and the first two calls
    # reached it; MemoryState refuses a non-finite template before any step. Each runs
    # in a fresh interpreter, so that a regression fails by timeout instead of hanging
    # the suite, with warnings raised as errors.
    @pytest.mark.parametrize("call, message", [
        pytest.param("step(MemoryState([[1.0, 0.0], [0.0, 1.0]], [1, 1], [1, 1], [0, 1], 2), "
                     "[[nan, 0.0], [nan, 1.0], [0.6, 0.8]], McpConfig())",
                     "features[0, 0] must be finite, got nan", id="nan-feature"),
        pytest.param("step(MemoryState([[nan, 0.0], [0.0, 1.0]], [1, 1], [1, 1], [0, 1], 2), "
                     "[[1.0, 0.0], [0.0, 1.0]], McpConfig())",
                     "templates[0, 0] must be finite, got nan", id="nan-template"),
        pytest.param("step(MemoryState([[1e200, 1e200], [0.0, 1.0]], [1, 1], [1, 1], [0, 1], 2), "
                     "[[1e200, 1e200], [1.0, 0.0]], McpConfig())",
                     "features[0]: cost against memory entry 0 must be finite, got -inf",
                     id="overflow"),
        pytest.param("template_cost(Detection((0.0, 0.0), [1e200, 1e200]), "
                     "TemplateEntry(0, [[1e200, 1e200]], 1))",
                     "features[0]: cost against memory entry 0 must be finite, got -inf",
                     id="template-cost-overflow"),
    ])
    def test_a_non_finite_feature_or_cost_is_refused(self, call, message):
        code = ("import warnings\nwarnings.simplefilter('error')\nfrom math import nan\n"
                "from vicount import DataError, Detection, McpConfig, MemoryState, step\n"
                "from vicount import TemplateEntry, template_cost\n"
                f"try:\n    {call}\nexcept DataError as exc:\n    print(exc)\n")
        path = [str(Path(counting.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30, check=True)
        assert done.stdout == message + "\n"


def _two_entries():
    """Templates, fill, ttl and entry_id of a memory holding 1 and 3 templates."""
    templates = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0], [1.0, 0.0]])
    return templates, np.array([1, 3]), np.array([2, 0]), np.array([4, 7])


class TestMemoryState:
    def test_entries_round_trip(self):
        memory = MemoryState(*_two_entries(), 9)
        assert memory.templates.shape == (4, 2)
        assert memory.fill.tolist() == [1, 3]
        assert len(memory.entries) == 2 and memory.next_entry_id == 9
        starts = np.cumsum(memory.fill) - memory.fill
        for k, got in enumerate(memory.entries):
            assert (got.entry_id, got.ttl) == ([4, 7][k], [2, 0][k])
            assert got.templates.base is memory.templates
            want = memory.templates[starts[k]:starts[k] + memory.fill[k]]
            assert np.array_equal(got.templates, want)
        assert memory.entries[-1].entry_id == 7
        assert [e.entry_id for e in reversed(memory.entries)] == [7, 4]

    def test_immutable(self):
        memory, _ = step(MemoryState.empty(), _rows(E0, E1), McpConfig())
        with pytest.raises(AttributeError):
            memory.next_entry_id = 5
        with pytest.raises(ValueError):
            memory.ttl[0] = 9
        with pytest.raises(ValueError):
            memory.templates[0, 0] = 5.0

    def test_step_leaves_input_memory_unchanged(self):
        cfg = McpConfig(mem_max=2, ttl_max=1)
        memory, _ = step(MemoryState.empty(), _rows(E0, E1), cfg)
        names = ("templates", "fill", "ttl", "entry_id")
        before = [getattr(memory, name).copy() for name in names]
        step(memory, _rows(_angle(0.05)), cfg)
        after = [getattr(memory, name) for name in names]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DataError, match="templates dimension mismatch"):
            MemoryState([[1.0, 0.0], [1.0, 0.0, 0.0]], [1, 1], [1, 1], [0, 1], 2)

    def test_count_builds_no_entries_and_stacks_nothing(self, monkeypatch):
        stream = generate_scene(
            SimConfig(num_identities=12, num_frames=10, feature_noise_sigma=0.05,
                      max_base_similarity=0.3, seed=4)
        )
        want = count_video(stream, McpConfig(mem_max=2))

        def refuse(*args, **kwargs):
            raise AssertionError("the memory step must stay on arrays")

        monkeypatch.setattr(TemplateEntry, "__init__", refuse)
        monkeypatch.setattr(np, "vstack", refuse)
        assert count_video(stream, McpConfig(mem_max=2)) == want


class TestMemoryStateValidation:
    """The constructor checks shapes, fill, ttl and entry ids, and stores read-only arrays."""

    def test_templates_rank(self):
        templates, fill, ttl, entry_id = _two_entries()
        with pytest.raises(DataError, match="templates must form a 2-d array"):
            MemoryState(templates[:, 0], fill, ttl, entry_id, 9)
        with pytest.raises(DataError, match="templates must form a 2-d array"):
            MemoryState(templates[None], fill, ttl, entry_id, 9)

    @pytest.mark.parametrize("name", ["fill", "ttl", "entry_id"])
    def test_mismatched_lengths(self, name):
        arrays = dict(zip(("templates", "fill", "ttl", "entry_id"), _two_entries()))
        arrays[name] = arrays[name][:1]
        # fill gives the number of entries, so a short fill is refused by its sum
        with pytest.raises(DataError, match=f"{name} (has shape|must be at least 1 and sum)"):
            MemoryState(**arrays, next_entry_id=9)

    def test_templates_must_be_numbers(self):
        with pytest.raises(DataError, match="templates must be numbers, got dtype <U3"):
            MemoryState(np.array([["0.6", "0.8"]]), [1], [3], [0], 1)

    def test_needs_templates(self):
        templates, _, ttl, entry_id = _two_entries()
        with pytest.raises(DataError, match="fill"):
            MemoryState(templates, [0, 4], ttl, entry_id, 9)

    @pytest.mark.parametrize("fill", [pytest.param([1, 4], id="past-the-rows"),
                                      pytest.param([1, 2], id="short-of-the-rows")])
    def test_fill_must_sum_to_the_rows(self, fill):
        templates, _, ttl, entry_id = _two_entries()
        with pytest.raises(DataError, match="fill must be at least 1 and sum to the 4 template"):
            MemoryState(templates, fill, ttl, entry_id, 9)

    @pytest.mark.parametrize("entry_id, next_entry_id", [
        pytest.param([0, 0], 9, id="repeated"),
        pytest.param([7, 4], 9, id="decreasing"),
        pytest.param([4, 9], 9, id="last-equals-next"),
    ])
    def test_entry_ids_increase_below_next_entry_id(self, entry_id, next_entry_id):
        templates, fill, ttl, _ = _two_entries()
        with pytest.raises(DataError, match="entry_id must increase strictly"):
            MemoryState(templates, fill, ttl, entry_id, next_entry_id)

    def test_entry_id_past_the_last_is_refused(self):
        # its next_entry_id, 2**63, would not fit in 64 bits
        with pytest.raises(DataError, match=r"entry_id must be at most 2\*\*63 - 2, got "
                                            "9223372036854775807"):
            MemoryState(np.array([[1.0, 0.0]]), [1], [1], [2**63 - 1], 2**63)

    def test_an_id_step_would_hand_out_again(self):
        # step would number its fresh entry 5 too, and match two detections to "entry 5"
        with pytest.raises(DataError, match="entry_id"):
            MemoryState([[1.0, 0.0]], [1], [1], [5], 5)

    def test_negative_ttl(self):
        templates, fill, _, entry_id = _two_entries()
        with pytest.raises(DataError, match="ttl"):
            MemoryState(templates, fill, [2, -1], entry_id, 9)

    def test_templates_read_only(self):
        arrays = _two_entries()
        memory = MemoryState(*arrays, 9)
        for given, name in zip(arrays, ("templates", "fill", "ttl", "entry_id")):
            stored = getattr(memory, name)
            assert not np.shares_memory(stored, given)
            with pytest.raises(ValueError):
                stored[0] = 5
        arrays[0][1, 0] = 5.0
        assert memory.templates[1, 0] == 0.6

    def test_read_only_input_kept(self):
        arrays = [np.asarray(a, dtype=dtype) for a, dtype in
                  zip(_two_entries(), (np.float64, np.intp, np.intp, np.intp))]
        for a in arrays:
            a.setflags(write=False)
        memory = MemoryState(*arrays, 9)
        assert memory.templates is arrays[0] and memory.fill is arrays[1]
        assert memory.ttl is arrays[2] and memory.entry_id is arrays[3]

    def test_step_hands_over_without_copies(self, monkeypatch):
        memory, _ = step(MemoryState.empty(), _rows(E0, E1), McpConfig())
        stored = []

        def kept(values):
            arr = read_only(values)
            assert arr is values, "step must hand over read-only arrays of the stored dtype"
            stored.append(arr)
            return arr

        read_only = counting._read_only
        monkeypatch.setattr(counting, "_read_only", kept)
        memory, _ = step(memory, _rows(E0), McpConfig())
        assert len(stored) == 4 and memory.templates is stored[0]


class TestRowViewContract:
    """What perfbench reads through the row views until it reads the arrays."""

    def test_views_share_the_validated_rows(self):
        stream = generate_scene(
            SimConfig(num_identities=6, num_frames=4, feature_noise_sigma=0.05, seed=2)
        )
        memory = MemoryState.empty()
        for f in stream.frames:
            assert [d.gt_id for d in f.detections] == list(f.gt_ids)
            for k, d in enumerate(f.detections):
                assert np.shares_memory(d.feature, f.features)
                assert np.array_equal(d.feature, f.features[k])
            memory, _ = step(memory, f.features, McpConfig())
            assert len(memory.entries) == len(memory.ttl)


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

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_rejects_non_number_zeta(self, value):
        with pytest.raises(DataError, match=f"zeta must be a number, got {value!r}"):
            McpConfig(zeta=value)

    @pytest.mark.parametrize("field", ["ttl_max", "mem_max"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_rejects_non_integral_sizes(self, field, value):
        with pytest.raises(DataError, match=f"{field} must be an integer"):
            McpConfig(**{field: value})

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
