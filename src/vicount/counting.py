"""Memory-based count prediction over a detection stream.

The total count of a video is the first frame's population plus the inflow
of every later frame. Inflow is decided by associating each frame's
detections against a template memory of recently seen individuals: a
detection that matches no remembered individual cheaply enough is new.
Remembered individuals that go unmatched survive a bounded number of steps
so that short absences (occlusion, missed detection) do not inflate the
count when the individual comes back.
"""

from dataclasses import dataclass, replace

import numpy as np

from .assignment import hungarian
from .errors import DataError
from .stream import Detection, DetectionStream

_AGGREGATORS = ("max", "min", "mean")


@dataclass(frozen=True)
class McpConfig:
    """Association parameters for the count predictor.

    zeta: matching-cost threshold; a matched pair costing more is rejected
    and the detection counts as inflow. ttl_max: number of consecutive
    unmatched steps a remembered individual survives after the step it was
    last seen. mem_max: templates kept per individual (oldest evicted
    first). template_aggregator: how per-template costs combine into one
    cost per remembered individual.
    """

    zeta: float = 0.7
    ttl_max: int = 3
    mem_max: int = 5
    template_aggregator: str = "max"

    def __post_init__(self):
        if not (self.zeta >= 0 and np.isfinite(self.zeta)):
            raise DataError(f"zeta must be a finite non-negative number, got {self.zeta}")
        if self.ttl_max < 1:
            raise DataError(f"ttl_max must be at least 1, got {self.ttl_max}")
        if self.mem_max < 1:
            raise DataError(f"mem_max must be at least 1, got {self.mem_max}")
        if self.template_aggregator not in _AGGREGATORS:
            raise DataError(
                f"template_aggregator must be one of {_AGGREGATORS}, "
                f"got {self.template_aggregator!r}"
            )


@dataclass(frozen=True)
class TemplateEntry:
    """One remembered individual: its recent appearance templates and time to live.

    templates is stored as a read-only (k, D) array, oldest template first.
    """

    entry_id: int
    templates: np.ndarray
    ttl: int

    def __post_init__(self):
        if not len(self.templates):
            raise DataError("a template entry needs at least one template")
        if self.ttl < 0:
            raise DataError(f"ttl must be non-negative, got {self.ttl}")
        try:
            arr = np.array(self.templates, dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"templates must stack to a (k, D) array: {exc}") from None
        if arr.ndim != 2:
            raise DataError(f"templates must stack to a (k, D) array, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "templates", arr)


@dataclass(frozen=True)
class MemoryState:
    """The template memory between steps. Updates come as new instances."""

    entries: tuple[TemplateEntry, ...] = ()
    next_entry_id: int = 0

    @classmethod
    def empty(cls) -> "MemoryState":
        return cls((), 0)


@dataclass(frozen=True)
class StepRecord:
    """What one frame contributed: inflow count, accepted matches, new entry ids."""

    frame_index: int
    inflow: int
    associations: tuple[tuple[int, int], ...]
    new_entry_ids: tuple[int, ...]


@dataclass(frozen=True)
class CountReport:
    """Counting outcome for a whole stream: per-frame records and the total."""

    per_step: tuple[StepRecord, ...]
    total: int


def _cost_matrix(detections, entries, aggregator: str) -> np.ndarray:
    """template_cost of every detection (rows) against every entry (columns)."""
    if aggregator not in _AGGREGATORS:
        raise DataError(f"template_aggregator must be one of {_AGGREGATORS}, got {aggregator!r}")
    det_dims = {d.dim for d in detections}
    template_dims = {e.templates.shape[1] for e in entries}
    if len(det_dims | template_dims) > 1:
        raise DataError(
            f"feature dimension mismatch: detection {sorted(det_dims)} "
            f"vs template {sorted(template_dims)}"
        )
    features = np.array([d.feature for d in detections])
    stacked = np.concatenate([e.templates for e in entries])
    sizes = np.array([len(e.templates) for e in entries])
    starts = np.cumsum(sizes) - sizes
    costs = features @ stacked.T
    # In place, as this (detections, templates) block is the largest array a step makes.
    np.subtract(1.0, costs, out=costs)
    if aggregator == "max":
        return np.maximum.reduceat(costs, starts, axis=1)
    if aggregator == "min":
        return np.minimum.reduceat(costs, starts, axis=1)
    return np.add.reduceat(costs, starts, axis=1) / sizes


def template_cost(detection: Detection, entry: TemplateEntry, aggregator: str = "max") -> float:
    """Cost of associating a detection with a remembered individual.

    Each stored template contributes one minus its cosine similarity to the
    detection feature; the aggregator collapses these to a single number.
    Taking the max is the conservative default: the detection must resemble
    every remembered appearance.
    """
    return float(_cost_matrix((detection,), (entry,), aggregator)[0, 0])


def _matched_entry(entry: TemplateEntry, feature: np.ndarray, cfg: McpConfig) -> TemplateEntry:
    templates = np.vstack((entry.templates, feature))[-cfg.mem_max:]
    return TemplateEntry(entry.entry_id, templates, cfg.ttl_max)


def step(memory: MemoryState, detections, cfg: McpConfig) -> tuple[MemoryState, StepRecord]:
    """Associate one frame's detections against the memory and update it.

    Runs a minimum-cost assignment between detections and remembered
    individuals, rejecting matches that cost more than zeta. Every rejected
    or unmatched detection counts as inflow (a fresh entry). Remembered
    individuals not matched this step lose one unit of time to live and are
    dropped once it is exhausted. Returns the new memory and a record with
    frame_index 0 (the caller knows the real index).
    """
    dets = tuple(detections)
    n = len(dets)
    accepted: dict[int, int] = {}
    if n and memory.entries:
        cost = _cost_matrix(dets, memory.entries, cfg.template_aggregator)
        for i, k in hungarian(cost).pairs:
            if cost[i, k] <= cfg.zeta:
                accepted[i] = k
    by_entry = {k: i for i, k in accepted.items()}
    # Rebuild in original order: matched entries get the feature appended and
    # their ttl refreshed, missed ones tick down (dropped once exhausted),
    # fresh entries append at the end.
    rebuilt: list[TemplateEntry] = []
    for k, entry in enumerate(memory.entries):
        if k in by_entry:
            rebuilt.append(_matched_entry(entry, dets[by_entry[k]].feature, cfg))
        elif entry.ttl > 0:
            rebuilt.append(TemplateEntry(entry.entry_id, entry.templates, entry.ttl - 1))
    new_entries: list[TemplateEntry] = []
    associations: list[tuple[int, int]] = []
    next_id = memory.next_entry_id
    new_ids: list[int] = []
    for i in range(n):
        if i in accepted:
            associations.append((i, memory.entries[accepted[i]].entry_id))
        else:
            fresh = TemplateEntry(next_id, (dets[i].feature,), cfg.ttl_max)
            new_entries.append(fresh)
            new_ids.append(next_id)
            next_id += 1
    new_memory = MemoryState(tuple(rebuilt + new_entries), next_id)
    record = StepRecord(0, len(new_ids), tuple(associations), tuple(new_ids))
    return new_memory, record


def count_video(stream: DetectionStream, cfg: McpConfig) -> CountReport:
    """Count distinct individuals over a stream with the template memory.

    Steps every frame through the memory starting empty, so everyone in the
    first frame is counted, and accumulates inflow. An empty stream counts
    zero.
    """
    memory = MemoryState.empty()
    records = []
    for frame in stream.frames:
        memory, record = step(memory, frame.detections, cfg)
        records.append(replace(record, frame_index=frame.frame_index))
    return CountReport(tuple(records), sum(r.inflow for r in records))
