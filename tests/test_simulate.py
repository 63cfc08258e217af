"""Simulator tests: determinism, label consistency, scripted lifespans."""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vicount import (
    DataError,
    DetectionStream,
    FrameRecord,
    SimConfig,
    generate_scene,
    gt_unique_count,
    scene_from_lifespans,
    write_stream,
)
from vicount import stream as stream_module
from vicount.simulate import _draw_bases
from vicount.stream import _unit_rows


def _weak_labels(prev_ids, curr_ids):
    """Reference inflow bits of the current frame and outflow bits of the previous one."""
    inflow = tuple(0 if g in set(prev_ids) else 1 for g in curr_ids)
    outflow = tuple(0 if g in set(curr_ids) else 1 for g in prev_ids)
    return inflow, outflow


class TestDeriveWeakLabels:
    """The simulator derives each frame's weak labels from the identities present."""

    def test_basic_turnover(self):
        # identities 0, 1, 2 in the first frame, then 1, 2, 3
        cfg = SimConfig(num_identities=4, num_frames=2, seed=0)
        frames = scene_from_lifespans(cfg, [[(0, 0)], [(0, 1)], [(0, 1)], [(1, 1)]]).frames
        assert frames[1].inflow.tolist() == [0, 0, 1]
        assert frames[0].outflow.tolist() == [1, 0, 0]

    def test_stream_boundaries(self):
        cfg = SimConfig(num_identities=2, num_frames=2, seed=0)
        frames = scene_from_lifespans(cfg, [[(0, 1)], [(0, 1)]]).frames
        assert frames[0].inflow.tolist() == [1, 1]
        assert frames[1].outflow.tolist() == [1, 1]

    def test_no_change(self):
        cfg = SimConfig(num_identities=2, num_frames=2, seed=0)
        frames = scene_from_lifespans(cfg, [[(0, 1)], [(0, 1)]]).frames
        assert frames[1].inflow.tolist() == [0, 0]
        assert frames[0].outflow.tolist() == [0, 0]


class TestGenerateScene:
    def test_same_seed_same_stream(self):
        cfg = SimConfig(num_identities=6, num_frames=5, feature_noise_sigma=0.1, seed=21)
        assert generate_scene(cfg) == generate_scene(cfg)

    def test_different_seed_differs(self):
        a = generate_scene(SimConfig(num_identities=6, num_frames=5, seed=1))
        b = generate_scene(SimConfig(num_identities=6, num_frames=5, seed=2))
        assert a != b

    def test_labels_consistent_with_identities(self):
        for seed in range(6):
            stream = generate_scene(
                SimConfig(num_identities=10, num_frames=8,
                          reentry_probability=0.5, seed=seed)
            )
            frames = stream.frames
            for k, frame in enumerate(frames):
                ids = frame.gt_ids
                prev_ids = frames[k - 1].gt_ids if k else ()
                next_ids = frames[k + 1].gt_ids if k + 1 < len(frames) else ()
                inflow, _ = _weak_labels(prev_ids, ids)
                _, outflow = _weak_labels(ids, next_ids)
                assert tuple(frame.inflow.tolist()) == inflow
                assert tuple(frame.outflow.tolist()) == outflow

    def test_every_identity_appears(self):
        stream = generate_scene(SimConfig(num_identities=9, num_frames=7, seed=4))
        assert gt_unique_count(stream) == 9

    def test_zero_identities(self):
        stream = generate_scene(SimConfig(num_identities=0, num_frames=3, seed=0))
        assert len(stream.frames) == 3
        assert all(len(f) == 0 for f in stream.frames)
        assert gt_unique_count(stream) == 0

    def test_single_persistent_identity_labels(self):
        # a second identity enters at frame 1, so a wrong bit in a
        # two-detection frame fails the comparison instead of raising
        stream = scene_from_lifespans(
            SimConfig(num_identities=2, num_frames=3, seed=0), [[(0, 2)], [(1, 2)]]
        )
        assert [f.gt_ids for f in stream.frames] == [(0,), (0, 1), (0, 1)]
        assert [f.inflow.tolist() for f in stream.frames] == [[1], [0, 1], [0, 0]]
        assert [f.outflow.tolist() for f in stream.frames] == [[0], [0, 0], [1, 1]]

    def test_pairwise_base_similarity_cap(self):
        stream = generate_scene(
            SimConfig(num_identities=25, num_frames=4, feature_dim=64,
                      max_base_similarity=0.3, seed=13)
        )
        by_id = {}
        for frame in stream.frames:
            for gt_id, feature in zip(frame.gt_ids, frame.features):
                by_id.setdefault(gt_id, feature)
        feats = list(by_id.values())
        for i in range(len(feats)):
            for j in range(i + 1, len(feats)):
                assert abs(float(np.dot(feats[i], feats[j]))) < 0.3

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_frames_keep_the_arrays_they_are_handed(self, monkeypatch, noise):
        # _assemble hands each frame fresh read-only arrays, which the frame
        # keeps by the ownership rule instead of copying them
        handed = []
        keep = stream_module._read_only
        monkeypatch.setattr(stream_module, "_read_only",
                            lambda arr: handed.append(arr.flags.writeable) or keep(arr))
        generate_scene(SimConfig(num_identities=6, num_frames=3, feature_noise_sigma=noise,
                                 seed=4))
        assert len(handed) == 6 and not any(handed)

    def test_noisy_features_stay_unit(self):
        stream = generate_scene(
            SimConfig(num_identities=5, num_frames=5, feature_noise_sigma=0.2, seed=8)
        )
        for frame in stream.frames:
            for feature in frame.features:
                assert np.linalg.norm(feature) == pytest.approx(1.0, abs=1e-9)

    def test_positions_inside_scene(self):
        cfg = SimConfig(num_identities=8, num_frames=10, scene_size=(100.0, 50.0),
                        walk_step_sigma=30.0, seed=17)
        for frame in generate_scene(cfg).frames:
            for x, y in frame.coordinates:
                assert 0.0 <= x <= 100.0
                assert 0.0 <= y <= 50.0


class TestSceneFromLifespans:
    def test_presence_follows_intervals(self):
        cfg = SimConfig(num_identities=3, num_frames=5, seed=2)
        stream = scene_from_lifespans(cfg, [[(0, 4)], [(1, 2)], [(0, 0), (3, 4)]])
        presence = [list(f.gt_ids) for f in stream.frames]
        assert presence == [[0, 2], [0, 1], [0, 1], [0, 2], [0, 2]]

    def test_labels_mark_exit_and_reentry(self):
        cfg = SimConfig(num_identities=2, num_frames=5, seed=2)
        stream = scene_from_lifespans(cfg, [[(0, 4)], [(0, 1), (3, 4)]])
        frames = stream.frames
        # identity 1 leaves after frame 1 and comes back at frame 3
        assert frames[1].outflow.tolist() == [0, 1]
        assert frames[3].inflow.tolist() == [0, 1]
        assert frames[0].inflow.tolist() == [1, 1]
        assert frames[4].outflow.tolist() == [1, 1]

    def test_reentry_reuses_base_feature(self):
        cfg = SimConfig(num_identities=2, num_frames=6, seed=5)
        stream = scene_from_lifespans(cfg, [[(0, 5)], [(0, 1), (4, 5)]])
        frames = stream.frames
        before = frames[0].features[frames[0].gt_ids.index(1)]
        after = frames[4].features[frames[4].gt_ids.index(1)]
        assert np.array_equal(before, after)

    def test_wrong_identity_count(self):
        cfg = SimConfig(num_identities=3, num_frames=5, seed=0)
        with pytest.raises(DataError, match="expected lifespans for 3"):
            scene_from_lifespans(cfg, [[(0, 1)]])

    def test_interval_out_of_range(self):
        cfg = SimConfig(num_identities=1, num_frames=5, seed=0)
        with pytest.raises(DataError, match="outside"):
            scene_from_lifespans(cfg, [[(0, 5)]])
        with pytest.raises(DataError, match="outside"):
            scene_from_lifespans(cfg, [[(3, 1)]])

    def test_intervals_need_gaps(self):
        cfg = SimConfig(num_identities=1, num_frames=6, seed=0)
        with pytest.raises(DataError, match="gaps"):
            scene_from_lifespans(cfg, [[(0, 2), (3, 4)]])
        with pytest.raises(DataError, match="gaps"):
            scene_from_lifespans(cfg, [[(0, 2), (1, 4)]])

    @pytest.mark.parametrize("lifespans, message", [
        ([[(0, 1, 2)]], "identity 0: interval (0, 1, 2) must be a (first, last) pair"),
        ([[5]], "identity 0: interval 5 must be a (first, last) pair"),
        (None, "lifespans must be a list of interval lists, one per identity, got None"),
    ], ids=["three-bounds", "bare-int", "none"])
    def test_a_malformed_interval_is_a_data_error(self, lifespans, message):
        cfg = SimConfig(num_identities=1, num_frames=3)
        with pytest.raises(DataError) as caught:
            scene_from_lifespans(cfg, lifespans)
        assert str(caught.value) == message


class TestGtUniqueCount:
    def test_counts_distinct_ids(self):
        stream = generate_scene(SimConfig(num_identities=4, num_frames=6, seed=3))
        assert gt_unique_count(stream) == 4

    def test_requires_ids(self):
        frame = FrameRecord(1, 0.0, [(0.0, 0.0)], [[1.0, 0.0]], (1,), (1,))
        with pytest.raises(DataError, match="without gt_id"):
            gt_unique_count(DetectionStream((frame,), 1.0))

    def test_empty_stream(self):
        assert gt_unique_count(DetectionStream((), 1.0)) == 0


class TestSimConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(DataError):
            SimConfig(num_identities=-1)
        with pytest.raises(DataError):
            SimConfig(num_frames=0)
        with pytest.raises(DataError):
            SimConfig(delta=0.0)
        with pytest.raises(DataError):
            SimConfig(feature_dim=1)
        with pytest.raises(DataError):
            SimConfig(feature_noise_sigma=-0.1)
        with pytest.raises(DataError):
            SimConfig(reentry_probability=1.5)
        with pytest.raises(DataError):
            SimConfig(scene_size=(0.0, 10.0))
        with pytest.raises(DataError):
            SimConfig(walk_step_sigma=-1.0)
        with pytest.raises(DataError):
            SimConfig(max_base_similarity=0.0)

    @pytest.mark.parametrize("field, value", [
        ("delta", np.inf),
        ("delta", np.nan),
        ("feature_noise_sigma", np.inf),
        ("feature_noise_sigma", np.nan),
        ("walk_step_sigma", np.inf),
        ("walk_step_sigma", np.nan),
        ("scene_size", (np.inf, 10.0)),
        ("scene_size", (10.0, np.inf)),
        ("scene_size", (np.nan, 10.0)),
        ("delta", 1e308),
    ])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(DataError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field", ["num_identities", "num_frames", "feature_dim"])
    @pytest.mark.parametrize("value", [3.5, True])
    def test_rejects_non_integral_counts(self, field, value):
        with pytest.raises(DataError, match=f"{field} must be an integer"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field", ["delta", "feature_noise_sigma", "reentry_probability",
                                       "walk_step_sigma", "max_base_similarity"])
    @pytest.mark.parametrize("value", [True, "0.1"])
    def test_real_fields_are_numbers(self, field, value):
        kind = "a positive number" if field == "delta" else "a number"
        with pytest.raises(DataError, match=f"{field} must be {kind}, got {value!r}"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("value", [(True, 10.0), (10.0, "10")])
    def test_scene_size_sides_are_numbers(self, value):
        with pytest.raises(DataError, match="scene_size must be a positive number"):
            SimConfig(scene_size=value)

    def test_infeasible_similarity_cap(self):
        cfg = SimConfig(num_identities=50, feature_dim=2, max_base_similarity=0.05, seed=0)
        with pytest.raises(DataError, match="cannot place"):
            generate_scene(cfg)


def _draw_bases_one_at_a_time(rng, cfg):
    """Reference sampler: draw D values, normalize them, test them against the bases so far."""
    n, dim, cap = cfg.num_identities, cfg.feature_dim, cfg.max_base_similarity
    bases = np.empty((n, dim))
    g = attempts = 0
    while g < n:
        cand = rng.standard_normal(dim)
        cand /= np.sqrt(cand @ cand)
        if g == 0 or np.abs(bases[:g] @ cand).max() < cap:
            bases[g] = cand
            g += 1
            attempts = 0
        else:
            attempts += 1
            if attempts > 10000:
                raise DataError(
                    f"cannot place {n} features below "
                    f"pairwise similarity {cap} in dimension {dim}"
                )
    return bases


def _draw_both(cfg):
    """(bases, generator state) or the DataError text, from each sampler."""
    out = []
    for sampler in (_draw_bases, _draw_bases_one_at_a_time):
        rng = np.random.default_rng(cfg.seed)
        try:
            out.append((sampler(rng, cfg), rng.bit_generator.state))
        except DataError as exc:
            out.append(str(exc))
    return out


class TestDrawBases:
    """Testing candidates in blocks makes every decision testing them one at a time makes."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(dim=st.sampled_from([2, 3, 5, 8, 16, 64, 257]),
           cap=st.floats(0.05, 1.0),
           n=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    # Candidate 383's block product rounds to the cap itself, while its one-at-a-time
    # similarity lies below it: a screen without a rounding margin would reject it.
    @example(dim=4, cap=0.4317237179616718, n=5, seed=423292159)
    def test_matches_one_at_a_time(self, dim, cap, n, seed):
        cfg = SimConfig(num_identities=n, feature_dim=dim, max_base_similarity=cap, seed=seed)
        blocked, reference = _draw_both(cfg)
        if isinstance(reference, str):
            assert blocked == reference
        else:
            assert np.array_equal(blocked[0], reference[0])
            assert blocked[1] == reference[1]

    def test_similarity_equal_to_cap_is_rejected(self):
        # The cap is candidate 1's exact similarity to candidate 0, so only the
        # exact re-test decides it. The block product may round it to either
        # side of the cap; where it lands below, only the re-test rejects it.
        dim, seed = 16, 0
        block = _unit_rows(np.random.default_rng(seed).standard_normal((256, dim)))
        cap = float(np.abs(block[:1] @ block[1]).max())
        assert abs(np.abs(block[1:] @ block[0])[0] - cap) < 4 * dim * np.finfo(float).eps
        cfg = SimConfig(num_identities=3, feature_dim=dim, max_base_similarity=cap, seed=seed)
        blocked, reference = _draw_both(cfg)
        assert np.array_equal(blocked[0], reference[0])
        assert blocked[1] == reference[1]
        assert np.array_equal(blocked[0][0], block[0])
        assert not (blocked[0] == block[1]).all(axis=1).any()


def _scene_by_distribution_calls(cfg):
    """Reference generator: one integers(size=2), uniform and normal call per identity or visit."""
    rng = np.random.default_rng(cfg.seed)
    bases = _draw_bases(rng, cfg)
    walk_rng = copy.deepcopy(rng)
    t, spans = cfg.num_frames, []
    for _ in range(cfg.num_identities):
        a, b = sorted(rng.integers(0, t, size=2).tolist())
        spans.append([(a, b)])
        if rng.random() < cfg.reentry_probability and b + 2 <= t - 1:
            c = int(rng.integers(b + 2, t))
            spans[-1].append((c, int(rng.integers(c, t))))
    size, position = np.array(cfg.scene_size), {}
    for g, intervals in enumerate(spans):
        for a, b in intervals:
            position[g, a] = walk_rng.uniform(0, size)
            steps = walk_rng.normal(0, cfg.walk_step_sigma, size=(b - a, 2))
            for k in range(a + 1, b + 1):
                position[g, k] = np.minimum(np.maximum(position[g, k - 1] + steps[k - a - 1],
                                                       0.0), size)
    frames = []
    for k in range(t):
        ids = sorted(g for g, j in position if j == k)
        features = bases[ids]
        if cfg.feature_noise_sigma > 0:
            features = features + walk_rng.normal(0, cfg.feature_noise_sigma, features.shape)
        frames.append((ids, np.array([position[g, k] for g in ids]).reshape(-1, 2),
                       _unit_rows(features)))
    return frames


class TestDrawForms:
    """The generator's cheaper call forms draw what the distribution calls draw."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 12), t=st.integers(1, 6),
           sigma=st.sampled_from([0.0, 0.5, 5.0, 1e3]),
           size=st.sampled_from([(4.0, 3.0), (1920.0, 1080.0), (1e-300, 7.0)]),
           reentry=st.sampled_from([0.0, 0.5, 1.0]), noise=st.sampled_from([0.0, 0.1]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_distribution_calls(self, n, t, sigma, size, reentry, noise, seed):
        cfg = SimConfig(num_identities=n, num_frames=t, feature_dim=4, walk_step_sigma=sigma,
                        scene_size=size, reentry_probability=reentry,
                        feature_noise_sigma=noise, seed=seed)
        frames = generate_scene(cfg).frames
        reference = _scene_by_distribution_calls(cfg)
        assert len(frames) == len(reference)
        for frame, (ids, coordinates, features) in zip(frames, reference):
            assert list(frame.gt_ids) == ids
            assert frame.coordinates.tobytes() == coordinates.tobytes()
            assert frame.features.tobytes() == features.tobytes()


class TestGoldenStreams:
    """Stream files pinned by sha256, so any change to the generator's sequence shows.

    The benchmark workloads' streams are also pinned in golden_outputs.json.
    """

    CROWD = dict(num_identities=300, num_frames=12, feature_dim=64,
                 feature_noise_sigma=0.05, max_base_similarity=0.3)
    TRANSPORT = dict(num_identities=900, num_frames=5, feature_dim=64, feature_noise_sigma=0.1)
    CRITERION_6_SIZES = (30, 40, 55, 70, 85, 100, 120, 145, 170, 200)
    CRITERION_6 = (
        "a5ad718a3d325699c91f8ecd3d861c32017f73efcca2bc80d892bcb185cd1b57",
        "11e59dbd8668e03c63616263c5580eadbc730800e1f51b89051fed6c3d91132f",
        "94552a327dc1776e1d53396bbcd85bc50301a099604fdab38094edffff4c1c35",
        "e418a4be0d20a9520bce43bb86b31268eaf02887872dc483a7346d5e5f5762c8",
        "075a3c79e64b400b079a83b06bab788de60c727866b8624754a90980c318c938",
        "3c55d792168c0515a538d0f03d337149bc50f53d0b8a1a8540bf1328fc6cc1c6",
        "395ea164847068720b72cb43bdf80e492b7d1e7a03b5e787c51a99f32232c5a6",
        "9811cec436318777be9c7f6188ccd086113eefd19b071105fd4d22e77ab58321",
        "3ba9d77468fcf92f75e160f3c64ddcf771ccc2551acbf375236e17b85a660d1a",
        "40293505f93b5b36e707d131fd0f87ec935a14025708ba9e2a84aac114d95ae7",
    )

    @staticmethod
    def _digest(stream, tmp_path):
        path = tmp_path / "scene.jsonl"
        write_stream(stream, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("seed, digest", [
        (0, "3c580034e1fb4354992440eb7582c13c057f6fad5ad49215e42c7d7bb6757744"),
        (1, "88d3c5ffb1e195f80fa86e5ba31bde7618834fa071086b4bf8fd73457eaf6d25"),
    ])
    def test_crowd(self, seed, digest, tmp_path):
        stream = generate_scene(SimConfig(seed=seed, **self.CROWD))
        assert self._digest(stream, tmp_path) == digest

    @pytest.mark.parametrize("seed, digest", [
        (0, "fb69383e8fe709ca4e0f5395619734ae3ab49959660d628067c2ca1d4c789cb4"),
        (1, "64e7e06cc25d2599b963effec331fd572c4dc7c796228b0ac7dd2a8185663581"),
    ])
    def test_transport(self, seed, digest, tmp_path):
        stream = generate_scene(SimConfig(seed=seed, **self.TRANSPORT))
        assert self._digest(stream, tmp_path) == digest

    def test_criterion_6_scenes(self, tmp_path):
        for seed, digest in enumerate(self.CRITERION_6):
            cfg = SimConfig(num_identities=self.CRITERION_6_SIZES[seed], num_frames=30,
                            feature_dim=64, max_base_similarity=0.3, seed=seed)
            assert self._digest(generate_scene(cfg), tmp_path) == digest, f"seed {seed}"

    def test_heavy_rejection(self, tmp_path):
        # about 300 candidates drawn per accepted base
        cfg = SimConfig(num_identities=25, num_frames=6, feature_dim=8, feature_noise_sigma=0.05,
                        reentry_probability=0.3, max_base_similarity=0.5, seed=0)
        assert self._digest(generate_scene(cfg), tmp_path) == (
            "c6b95a0acd04509f8ba1d05bf52f25a0dae3e1f1b04ec7f8937d58f77fb9ee43"
        )

    def test_noiseless_reentry(self, tmp_path):
        # 13 identities leave and come back after one frame or more, so their
        # unchanged rows are written again after a gap
        cfg = SimConfig(num_identities=40, num_frames=12, feature_dim=16,
                        reentry_probability=0.5, seed=3)
        assert self._digest(generate_scene(cfg), tmp_path) == (
            "146995d4644e163e9eca4bf004a0071bd502056249475218c48a323c000f3132"
        )

    def test_unplaceable_message(self):
        cfg = SimConfig(num_identities=40, num_frames=6, feature_dim=8,
                        max_base_similarity=0.5, seed=0)
        with pytest.raises(DataError) as err:
            generate_scene(cfg)
        assert str(err.value) == (
            "cannot place 40 features below pairwise similarity 0.5 in dimension 8"
        )

    def test_scene_from_lifespans(self, tmp_path):
        cfg = SimConfig(num_identities=3, num_frames=8, feature_dim=64, feature_noise_sigma=0.05,
                        max_base_similarity=0.3, seed=7)
        stream = scene_from_lifespans(cfg, [[(0, 7)], [(1, 5)], [(0, 1), (4, 7)]])
        assert self._digest(stream, tmp_path) == (
            "cfbcccc73e0badf3fd17c7007cb12405db266334a4f8cfd836701e78763c2c58"
        )

    def test_no_identities(self, tmp_path):
        stream = generate_scene(SimConfig(num_identities=0, num_frames=3, seed=0))
        assert self._digest(stream, tmp_path) == (
            "30b72203cc96a949b2dc475681df8af4d9170bff10bb6d21a6287ccdbabfe64c"
        )

    @pytest.mark.parametrize("fields, lifespans, digest", [
        # zero walk steps: each normal draw is 0.0 + 0.0 * z
        (dict(num_identities=30, num_frames=8, feature_dim=16, feature_noise_sigma=0.05,
              walk_step_sigma=0.0, seed=5), None,
         "9efd9bc6f7a5beaaeb1d1392e5520e3520a667a1c698bcbe61d78055c469d239"),
        # every identity that can come back does, with two more bound draws
        (dict(num_identities=40, num_frames=10, feature_dim=16, feature_noise_sigma=0.05,
              reentry_probability=1.0, seed=6), None,
         "d1db936ede384f852ccabf245b1ec4fea1e51c431724d5a00960130657cbcad6"),
        # one frame: the lifespan bounds draw nothing and no visit draws a step
        (dict(num_identities=20, num_frames=1, feature_dim=8, feature_noise_sigma=0.05,
              seed=7), None,
         "ff14bf3f96569781f0dfc01d97ccd36e295cbc165bba6f3be717808a0d201b67"),
        # steps far wider than the scene, so walks clip at all four borders
        (dict(num_identities=30, num_frames=10, feature_dim=8, scene_size=(4.0, 3.0),
              seed=8), None,
         "d896ae5337e9367a9c481dce0b1be8ac6ebab075769c377c4f804a1aed7b1919"),
        # single-frame visits between longer ones, none of them drawing a step
        (dict(num_identities=4, num_frames=6, feature_dim=8, feature_noise_sigma=0.05,
              seed=9), [[(0, 0)], [(5, 5)], [(1, 1), (3, 3)], [(0, 0), (2, 3), (5, 5)]],
         "cac3d7d1ae7d7cd6cd444938da5162e4874f4192ffda18bfed7aac69e045800f"),
    ], ids=["step-sigma-0", "reentry-always", "one-frame", "clipped-walks",
            "single-frame-visits"])
    def test_draw_edge_cases(self, fields, lifespans, digest, tmp_path):
        cfg = SimConfig(**fields)
        stream = generate_scene(cfg) if lifespans is None else scene_from_lifespans(cfg, lifespans)
        assert self._digest(stream, tmp_path) == digest
