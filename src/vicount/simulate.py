"""Synthetic detection streams with known ground truth.

Individuals carry a fixed base appearance feature on the unit sphere, walk
randomly through the scene while present, and may leave and re-enter with
the same appearance. Observed features are noisy copies of the base,
re-normalized. Weak inflow/outflow labels are derived from the ground-truth
identity sets of adjacent frames, so generated streams are consistent by
construction and every generated quantity is a deterministic function of the
seed.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .stream import DetectionStream, FrameRecord, _as_int, _finite, _real, _unit_rows

# Candidates drawn and normalized at once when base features are
# rejection-sampled under a similarity cap.
_BASE_BLOCK = 256


@dataclass(frozen=True)
class SimConfig:
    """Scene generation parameters.

    Lifespans are closed frame intervals drawn uniformly; with
    reentry_probability an individual gets a second interval after a gap of
    at least one frame. feature_noise_sigma perturbs the base feature per
    observation (zero means observations repeat the base exactly).
    max_base_similarity, when set, rejection-samples base features until all
    pairwise cosine similarities stay below it, which keeps identities
    separable by appearance. Candidates are drawn in blocks, one matrix
    product per block screens out those clearly above the cap, and each of
    the rest is tested alone against the bases so far. The stream for a
    given seed is the one that drawing and testing them one at a time gives.
    Real-valued fields must be numbers, not bools or strings, and finite, and
    so must the last frame's time, (num_frames - 1) * delta. scene_size must be
    a (width, height) pair, and seed, like every integer field, an int.
    """

    num_identities: int = 20
    num_frames: int = 10
    delta: float = 3.0
    feature_dim: int = 64
    feature_noise_sigma: float = 0.0
    reentry_probability: float = 0.0
    scene_size: tuple[float, float] = (1920.0, 1080.0)
    walk_step_sigma: float = 5.0
    max_base_similarity: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name, least in (("num_identities", 0), ("num_frames", 1), ("feature_dim", 2),
                            ("seed", 0)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, least))
        for name, interval in (("delta", "(0, inf)"), ("feature_noise_sigma", "[0, inf)"),
                               ("reentry_probability", "[0, 1]"), ("walk_step_sigma", "[0, inf)")):
            object.__setattr__(self, name, _finite(getattr(self, name), name, interval))
        # _real reads an int past float range as an infinity
        if not np.isfinite(_real(self.num_frames - 1, "num_frames") * self.delta):
            raise DataError(f"(num_frames - 1) * delta must be finite, got num_frames "
                            f"{self.num_frames} and delta {self.delta}")
        sides = _pair(self.scene_size, f"scene_size {self.scene_size!r}", "(width, height)")
        object.__setattr__(self, "scene_size",
                           tuple(_finite(side, "scene_size", "(0, inf)") for side in sides))
        if self.max_base_similarity is not None:
            cap = _finite(self.max_base_similarity, "max_base_similarity", "(0, 1]")
            object.__setattr__(self, "max_base_similarity", cap)


def _draw_bases(rng: "np.random.Generator", cfg: SimConfig) -> np.ndarray:
    """Unit base features, one row per identity, drawn from rng.

    Candidates are standard normal draws of feature_dim values, normalized.
    Without a similarity cap every candidate is a base, so all are drawn at
    once. With a cap, candidates are drawn and normalized in blocks of
    _BASE_BLOCK. One matrix product against the bases of earlier blocks
    rejects every candidate of a block at or above the cap plus a rounding
    margin; each remaining candidate, in order, is accepted when its largest
    |similarity| to the bases so far, one matrix-vector product, lies below
    the cap, as testing candidates one at a time decides. When the last
    base is placed, the generator is rewound to the block's start and
    redraws only the candidates used. A (k, D) draw yields the same numbers
    as k draws of D, so the bases and the generator's final state are those
    of drawing one candidate at a time.
    """
    n, dim = cfg.num_identities, cfg.feature_dim
    cap = cfg.max_base_similarity
    if cap is None:
        return _unit_rows(rng.standard_normal((n, dim)))
    # Two float64 dot products of the same unit vectors, summed in any
    # order, differ by at most about dim * eps; 4x that leaves headroom.
    margin = 4 * dim * np.finfo(np.float64).eps
    bases = np.empty((n, dim))
    g = attempts = 0
    while g < n:
        start = rng.bit_generator.state
        block = _unit_rows(rng.standard_normal((_BASE_BLOCK, dim)))
        # at cap + margin or above, the one-at-a-time test rejects a candidate too
        top = np.abs(block @ bases[:g].T).max(axis=1, initial=0.0)
        used = 0
        # _BASE_BLOCK closes the list, so the candidates screened out after the last one count
        for k in [*np.flatnonzero(top < cap + margin).tolist(), _BASE_BLOCK]:
            attempts += k - used  # the screen rejected the candidates in between
            if attempts > 10000:
                raise DataError(
                    f"cannot place {n} features below "
                    f"pairwise similarity {cap} in dimension {dim}"
                )
            if k == _BASE_BLOCK:
                break
            used = k + 1
            if np.abs(bases[:g] @ block[k]).max(initial=0.0) < cap:
                bases[g] = block[k]
                g += 1
                attempts = 0
                if g == n:
                    rng.bit_generator.state = start
                    rng.standard_normal((used, dim))
                    break
            else:
                attempts += 1
    return bases


def _draw_lifespans(rng: "np.random.Generator", cfg: SimConfig) -> list[list[tuple[int, int]]]:
    """Presence intervals of each identity in turn, drawn from rng.

    An identity draws its two interval bounds, then one uniform that decides
    re-entry, then, if it comes back, the first and last frame of its second
    interval. Each bound is a scalar integers call: integers(0, t, size=2)
    gives the same two values and leaves the same state, but spends about
    twice as long in numpy's handling of the size argument.
    """
    spans: list[list[tuple[int, int]]] = []
    t = cfg.num_frames
    for _ in range(cfg.num_identities):
        a, b = sorted((int(rng.integers(0, t)), int(rng.integers(0, t))))
        intervals = [(a, b)]
        if rng.random() < cfg.reentry_probability and b + 2 <= t - 1:
            c = int(rng.integers(b + 2, t))
            d = int(rng.integers(c, t))
            intervals.append((c, d))
        spans.append(intervals)
    return spans


def _pair(ab, what: str, names: str) -> tuple:
    """ab's two values; DataError "what must be a names pair" if it does not unpack to two."""
    try:
        a, b = ab
    except (TypeError, ValueError):
        raise DataError(f"{what} must be a {names} pair") from None
    return a, b


def _interval(g: int, ab) -> tuple[int, int]:
    """ab read as identity g's interval, a pair of integer frame indices, else DataError."""
    return tuple(_as_int(x, f"identity {g}: interval bound")
                 for x in _pair(ab, f"identity {g}: interval {ab!r}", "(first, last)"))


def scene_from_lifespans(cfg: SimConfig, lifespans) -> DetectionStream:
    """Build a stream from explicit per-identity presence intervals.

    lifespans[g] is a list of closed (first_frame, last_frame) intervals,
    zero-based and non-overlapping, kept in order. The random parts of the
    scene (base features, walks, observation noise, re-entry base reuse)
    still come from cfg.seed, so equal configs and lifespans give identical
    streams. Useful for scripting exact entry/exit/re-entry scenarios.
    """
    try:
        spans = [[_interval(g, ab) for ab in iv] for g, iv in enumerate(lifespans)]
    except TypeError:  # lifespans, or one identity's entry, is not iterable
        raise DataError(f"lifespans must be a list of interval lists, one per identity, got "
                        f"{lifespans!r}") from None
    if len(spans) != cfg.num_identities:
        raise DataError(
            f"expected lifespans for {cfg.num_identities} identities, got {len(spans)}"
        )
    t = cfg.num_frames
    for g, intervals in enumerate(spans):
        last_end = -2
        for a, b in intervals:
            if not (0 <= a <= b <= t - 1):
                raise DataError(f"identity {g}: interval ({a}, {b}) outside 0..{t - 1}")
            if a <= last_end + 1:
                raise DataError(f"identity {g}: intervals must be ordered with gaps")
            last_end = b
    rng = np.random.default_rng(cfg.seed)
    bases = _draw_bases(rng, cfg)
    return _assemble(cfg, spans, bases, rng)


def _assemble(cfg: SimConfig, spans, bases: np.ndarray, rng) -> DetectionStream:
    """Walks, observation noise and weak labels of a scene, drawn from rng.

    rng must be in its state right after the base draw, so that a scene's
    walks and noise follow its bases on the seed's one sequence. Each visit
    (g, a, b), in order, draws two uniforms for its start point, then
    2(b - a) standard normals for its steps; then each frame in turn draws
    its features' noise, if the scene has any. The draws go straight into
    the visit's rows, a one-frame visit skips its empty draw, and all are
    scaled once after the loop: uniform(0, size) computes 0.0 + size * u
    and normal(0, sigma) 0.0 + sigma * z, which the scaling and the added
    0.0 (it turns -0.0 into 0.0) repeat to the bit. Called with the array
    bound size, uniform checks its arguments in Python each time, at about
    ten times the cost of the draw itself.
    """
    t = cfg.num_frames
    size = np.array(cfg.scene_size)
    visits = [(g, a, b) for g, intervals in enumerate(spans) for a, b in intervals]
    # at[g, k + 1] = the visit that puts identity g in frame k, or -1; columns
    # 0 and t + 1 stand for the frames before and after the stream.
    at = np.full((cfg.num_identities, t + 2), -1)
    walk = np.empty((len(visits), 2))
    steps = np.zeros((len(visits), t, 2))
    for v, (g, a, b) in enumerate(visits):
        rng.random(out=walk[v])
        if b > a:
            rng.standard_normal(out=steps[v, a + 1 : b + 1])
        at[g, a + 1 : b + 2] = v
    walk *= size
    steps *= cfg.walk_step_sigma
    steps += 0.0
    present = at >= 0
    frames = []
    for k in range(t):
        # Every walk advances together: outside its visit's later frames a
        # step is zero, which leaves a position inside the scene unchanged.
        walk = np.minimum(np.maximum(walk + steps[:, k], 0.0), size)
        ids = np.flatnonzero(present[:, k + 1])
        features = bases[ids]
        if cfg.feature_noise_sigma > 0:
            features = features + rng.normal(0, cfg.feature_noise_sigma, size=features.shape)
        coordinates = walk[at[ids, k + 1]]
        # Both arrays are fresh; read-only, the frame keeps them instead of copying.
        features.setflags(write=False)
        coordinates.setflags(write=False)
        inflow, outflow = (~present[ids, k]).astype(int), (~present[ids, k + 2]).astype(int)
        frames.append(FrameRecord(k + 1, k * cfg.delta, coordinates, features,
                                  inflow, outflow, ids.tolist()))
    return DetectionStream(tuple(frames), cfg.delta)


def generate_scene(cfg: SimConfig) -> DetectionStream:
    """Generate a random scene stream from the config seed.

    Draws base features and lifespans, then assembles the stream the same
    way scene_from_lifespans does. Deterministic: equal configs give
    byte-identical streams.
    """
    rng = np.random.default_rng(cfg.seed)
    bases = _draw_bases(rng, cfg)
    # Walks and noise come from the state right after the bases, as in
    # scene_from_lifespans; the lifespans come from the same state too.
    after_bases = copy.deepcopy(rng)
    return _assemble(cfg, _draw_lifespans(rng, cfg), bases, after_bases)


def gt_unique_count(stream: DetectionStream) -> int:
    """Number of distinct ground-truth identities appearing anywhere in a stream."""
    ids = set()
    for frame in stream.frames:
        if None in frame.gt_ids:
            raise DataError(f"frame {frame.frame_index}: detection without gt_id")
        ids.update(frame.gt_ids)
    return len(ids)
