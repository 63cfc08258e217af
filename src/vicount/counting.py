"""Memory-based count prediction over a detection stream.

The total count of a video is the first frame's population plus the inflow
of every later frame. Inflow is decided by associating each frame's
detections against a template memory of recently seen individuals: a
detection that matches no remembered individual cheaply enough is new.
Remembered individuals that go unmatched survive a bounded number of steps
so that short absences (occlusion, missed detection) do not inflate the
count when the individual comes back.
"""

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .assignment import hungarian
from .errors import DataError
from .stream import (Detection, DetectionStream, _array, _as_int, _BuiltOnAccess, _finite,
                     _read_only)

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
        object.__setattr__(self, "zeta", _finite(self.zeta, "zeta", "[0, inf)"))
        object.__setattr__(self, "ttl_max", _as_int(self.ttl_max, "ttl_max", 1))
        object.__setattr__(self, "mem_max", _as_int(self.mem_max, "mem_max", 1))
        if self.template_aggregator not in _AGGREGATORS:
            raise DataError(
                f"template_aggregator must be one of {_AGGREGATORS}, "
                f"got {self.template_aggregator!r}"
            )


@dataclass(frozen=True, eq=False)
class TemplateEntry:
    """One remembered individual, as a plain record of rows a memory has validated.

    MemoryState.entries builds these: templates is a read-only (k, D) view
    of the memory's store, oldest template first, not a copy.
    """

    entry_id: int
    templates: np.ndarray
    ttl: int


@dataclass(frozen=True, eq=False)
class MemoryState:
    """The template memory between steps, held as arrays. Updates come as new instances.

    Row k of the (N, W, D) templates store holds remembered individual k's
    templates, oldest first, in its first fill[k] slots; fill, ttl and
    entry_id are (N,) integer arrays in the same order. Every array is
    read-only: a writable array passed in is copied, a read-only one is
    kept as is. entries views the rows as TemplateEntry records.
    """

    templates: np.ndarray
    fill: np.ndarray
    ttl: np.ndarray
    entry_id: np.ndarray
    next_entry_id: int

    def __post_init__(self):
        templates = _read_only(_array(self.templates, "templates", 3))
        size, width = templates.shape[:2]
        object.__setattr__(self, "templates", templates)
        for name in ("fill", "ttl", "entry_id"):
            arr = _read_only(_array(getattr(self, name), name, 1, integer=True))
            if arr.shape != (size,):
                raise DataError(f"{name} has shape {arr.shape}, expected ({size},)")
            object.__setattr__(self, name, arr)
        if ((self.fill < 1) | (self.fill > width)).any():
            raise DataError(f"every fill must lie in [1, {width}]")
        if (self.ttl < 0).any():
            raise DataError("every ttl must be non-negative")
        object.__setattr__(self, "next_entry_id", _as_int(self.next_entry_id, "next_entry_id", 0))

    @classmethod
    def empty(cls) -> "MemoryState":
        none = np.zeros(0, dtype=np.intp)
        return cls(np.zeros((0, 0, 0)), none, none, none, 0)

    @property
    def entries(self) -> Sequence:
        """The remembered individuals as TemplateEntry records, in memory order.

        A read-only sequence that builds each record when it is accessed.
        """
        return _BuiltOnAccess(len(self.ttl), self._entry)

    def _entry(self, k: int) -> TemplateEntry:
        return TemplateEntry(int(self.entry_id[k]), self.templates[k, : self.fill[k]],
                             int(self.ttl[k]))


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


def _features(features, memory: MemoryState) -> np.ndarray:
    """Feature rows as an (n, D) array, checked against the memory's dimension."""
    rows = _array(features, "features", 2, width=0)
    dim = memory.templates.shape[2]
    if len(rows) and len(memory.ttl) and rows.shape[1] != dim:
        raise DataError(
            f"feature dimension mismatch: detection [{rows.shape[1]}] vs template [{dim}]"
        )
    return rows if len(rows) else np.zeros((0, dim))


def _cost_matrix(features: np.ndarray, memory: MemoryState, aggregator: str) -> np.ndarray:
    """template_cost of every feature row against every remembered individual (columns)."""
    if aggregator not in _AGGREGATORS:
        raise DataError(f"template_aggregator must be one of {_AGGREGATORS}, got {aggregator!r}")
    fill = memory.fill
    # Only filled slots, entry by entry and oldest first: the matmul covers no
    # padding, and each segment sums in template order.
    stacked = memory.templates[np.arange(memory.templates.shape[1]) < fill[:, None]]
    costs = features @ stacked.T
    # In place, as this (detections, templates) block is the largest array a step makes.
    np.subtract(1.0, costs, out=costs)
    starts = np.cumsum(fill) - fill
    if aggregator == "max":
        return np.maximum.reduceat(costs, starts, axis=1)
    if aggregator == "min":
        return np.minimum.reduceat(costs, starts, axis=1)
    return np.add.reduceat(costs, starts, axis=1) / fill


def template_cost(detection: Detection, entry: TemplateEntry, aggregator: str = "max") -> float:
    """Cost of associating a detection with a remembered individual.

    Each stored template contributes one minus its cosine similarity to the
    detection feature; the aggregator collapses these to a single number.
    Taking the max is the conservative default: the detection must resemble
    every remembered appearance.
    """
    templates = entry.templates
    # a list goes on as one, so the memory reads each of its entries
    stacked = templates[None] if isinstance(templates, np.ndarray) else [templates]
    memory = MemoryState(stacked, [len(templates)], [entry.ttl], [entry.entry_id], 0)
    features = _features([detection.feature], memory)
    return float(_cost_matrix(features, memory, aggregator)[0, 0])


def _append_templates(templates, fill, rows, features, mem_max: int) -> None:
    """Append features[i] to row rows[i] of the store in place, keeping its newest mem_max."""
    full = rows[fill[rows] >= mem_max]
    if len(full):
        slots = np.arange(mem_max - 1)
        oldest_kept = fill[full] - (mem_max - 1)
        templates[full[:, None], slots] = templates[full[:, None], oldest_kept[:, None] + slots]
        fill[full] = mem_max - 1
    templates[rows, fill[rows]] = features
    fill[rows] += 1


def step(memory: MemoryState, features, cfg: McpConfig) -> tuple[MemoryState, StepRecord]:
    """Associate one frame's detections against the memory and update it.

    features holds the frame's unit feature rows, shape (n, D), as
    FrameRecord.features does; row i is detection i. Runs a minimum-cost
    assignment between detections and remembered individuals, rejecting
    matches that cost more than zeta. Every rejected or unmatched detection
    counts as inflow (a fresh entry). Remembered individuals not matched
    this step lose one unit of time to live and are dropped once it is
    exhausted. Returns the new memory and a record with frame_index 0 (the
    caller knows the real index).
    """
    features = _features(features, memory)
    n, dim = features.shape
    size, width = memory.templates.shape[:2]
    det_idx = entry_idx = np.zeros(0, dtype=np.intp)
    if n and size:
        cost = _cost_matrix(features, memory, cfg.template_aggregator)
        pairs = np.array(hungarian(cost).pairs, dtype=np.intp).reshape(-1, 2)
        ok = cost[pairs[:, 0], pairs[:, 1]] <= cfg.zeta
        det_idx, entry_idx = pairs[ok, 0], pairs[ok, 1]
    matched = np.zeros(size, dtype=bool)
    matched[entry_idx] = True
    fresh = np.ones(n, dtype=bool)
    fresh[det_idx] = False
    fresh = np.flatnonzero(fresh)
    # Old entries keep their order: matched ones get a template and a full
    # ttl, missed ones tick down and are dropped once exhausted. Fresh
    # entries append at the end.
    keep = matched | (memory.ttl > 0)
    kept = np.flatnonzero(keep)
    templates = np.zeros((len(kept) + len(fresh), max(width, cfg.mem_max), dim))
    if len(kept):
        # Straight into place: indexing with kept would copy the store once more.
        np.take(memory.templates, kept, axis=0, out=templates[: len(kept), :width], mode="clip")
    templates[len(kept):, 0] = features[fresh]
    fill = np.concatenate((memory.fill[kept], np.ones(len(fresh), dtype=np.intp)))
    _append_templates(templates, fill, (np.cumsum(keep) - 1)[entry_idx], features[det_idx],
                      cfg.mem_max)
    ttl = np.concatenate((np.where(matched, cfg.ttl_max, memory.ttl - 1)[kept],
                          np.full(len(fresh), cfg.ttl_max, dtype=np.intp)))
    next_id = memory.next_entry_id
    new_ids = np.arange(next_id, next_id + len(fresh), dtype=np.intp)
    entry_id = np.concatenate((memory.entry_id[kept], new_ids))
    # Handed over read-only, so the new memory keeps these arrays instead of copies.
    for arr in (templates, fill, ttl, entry_id):
        arr.setflags(write=False)
    new_memory = MemoryState(templates, fill, ttl, entry_id, next_id + len(fresh))
    associations = tuple(zip(det_idx.tolist(), memory.entry_id[entry_idx].tolist()))
    record = StepRecord(0, len(fresh), associations, tuple(new_ids.tolist()))
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
        memory, record = step(memory, frame.features, cfg)
        records.append(replace(record, frame_index=frame.frame_index))
    return CountReport(tuple(records), sum(r.inflow for r in records))
