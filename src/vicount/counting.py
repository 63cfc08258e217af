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

# step matches through _assign; hungarian stays importable from here, where the
# benchmark's tracer (perfbench/tracer.py) looks for it.
from .assignment import _assign, hungarian  # noqa: F401
from .errors import DataError
from .stream import (Detection, DetectionStream, _all_finite, _array, _as_int, _BuiltOnAccess,
                     _finite, _read_only)

_AGGREGATORS = ("max", "min", "mean")
# next_entry_id lies above every entry id and fits in 64 bits, so this is the last id.
_LAST_ENTRY_ID = 2**63 - 2


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

    The (T, D) templates array holds remembered individual k's fill[k]
    templates, oldest first, after those of the individuals before it, so
    T == fill.sum(); fill, ttl and entry_id are (N,) integer arrays in the
    same order, and entry ids increase strictly below next_entry_id. Every
    template entry is finite. Every array is read-only: a writable array
    passed in is copied, a read-only one is kept as is. entries views the
    rows as TemplateEntry records.
    """

    templates: np.ndarray
    fill: np.ndarray
    ttl: np.ndarray
    entry_id: np.ndarray
    next_entry_id: int

    def __post_init__(self):
        templates = _all_finite(_read_only(_array(self.templates, "templates", 2)), "templates")
        object.__setattr__(self, "templates", templates)
        rows = len(self.templates)
        for name in ("fill", "ttl", "entry_id"):
            arr = _read_only(_array(getattr(self, name), name, 1, integer=True))
            object.__setattr__(self, name, arr)
            if name == "fill" and ((arr < 1).any() or arr.sum() != rows):
                raise DataError(f"fill must be at least 1 and sum to the {rows} template rows")
            if arr.shape != self.fill.shape:
                raise DataError(f"{name} has shape {arr.shape}, expected {self.fill.shape}")
        if (self.ttl < 0).any():
            raise DataError("every ttl must be non-negative")
        if (self.entry_id > _LAST_ENTRY_ID).any():
            raise DataError(f"entry_id must be at most 2**63 - 2, got {self.entry_id.max()}")
        object.__setattr__(self, "next_entry_id", _as_int(self.next_entry_id, "next_entry_id", 0))
        # So no id is handed out twice; every memory step builds meets it, as kept
        # entries keep their order and fresh ids count up from next_entry_id.
        ids = self.entry_id
        if (ids[1:] <= ids[:-1]).any() or (ids[-1:] >= self.next_entry_id).any():
            raise DataError("entry_id must increase strictly and stay below next_entry_id")

    @classmethod
    def empty(cls) -> "MemoryState":
        none = np.zeros(0, dtype=np.intp)
        return cls(np.zeros((0, 0)), none, none, none, 0)

    @property
    def entries(self) -> Sequence:
        """The remembered individuals as TemplateEntry records, in memory order.

        A read-only sequence that builds each record when it is accessed.
        """
        return _BuiltOnAccess(len(self.ttl), self._entry)

    def _entry(self, k: int) -> TemplateEntry:
        start = int(self.fill[:k].sum())
        return TemplateEntry(int(self.entry_id[k]), self.templates[start:start + self.fill[k]],
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
    dim = memory.templates.shape[1]
    if len(rows) and len(memory.ttl) and rows.shape[1] != dim:
        raise DataError(
            f"feature dimension mismatch: detection [{rows.shape[1]}] vs template [{dim}]"
        )
    return rows if len(rows) else np.zeros((0, dim))


def _cost_matrix(features: np.ndarray, memory: MemoryState, aggregator: str) -> np.ndarray:
    """template_cost of every feature row against every remembered individual (columns)."""
    fill = memory.fill
    costs = features @ memory.templates.T
    # In place, as this (detections, templates) block is the largest array a step makes.
    np.subtract(1.0, costs, out=costs)
    starts = np.cumsum(fill) - fill
    if aggregator == "mean":
        # add.reduceat does not sum a segment in template order, so no
        # template-wise sum would give its bits.
        return np.add.reduceat(costs, starts, axis=1) / fill
    # Max and min do not depend on order, so they are taken template by template
    # for all entries at once; an entry past its last template repeats it.
    combine = np.maximum if aggregator == "max" else np.minimum
    out = costs[:, starts]
    last = starts + fill - 1
    for w in range(1, int(fill.max())):
        combine(out, costs[:, np.minimum(starts + w, last)], out=out)
    return out


def _finite_costs(features: np.ndarray, memory: MemoryState, aggregator: str) -> np.ndarray:
    """_cost_matrix of finite feature rows; DataError naming the row of a non-finite cost.

    Finite rows can still overflow to an infinite cost, on which _assign's path search
    never ends, so the product runs with its floating-point warnings off.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cost = _cost_matrix(features, memory, aggregator)
    if not np.isfinite(cost).all():
        i, j = np.argwhere(~np.isfinite(cost))[0].tolist()
        raise DataError(f"features[{i}]: cost against memory entry {memory.entry_id[j]} "
                        f"must be finite, got {cost[i, j]}")
    return cost


def template_cost(detection: Detection, entry: TemplateEntry, aggregator: str = "max") -> float:
    """Cost of associating a detection with a remembered individual.

    Each stored template contributes one minus its cosine similarity to the
    detection feature; the aggregator collapses these to a single number.
    Taking the max is the conservative default: the detection must resemble
    every remembered appearance. A non-finite feature or template entry, or a
    non-finite cost, raises DataError, as in step.
    """
    # next_entry_id: the least that a memory holding this entry admits
    memory = MemoryState(entry.templates, [len(entry.templates)], [entry.ttl], [entry.entry_id],
                         max(_as_int(entry.entry_id, "entry_id") + 1, 0))
    features = _all_finite(_features([detection.feature], memory), "features")
    cfg = McpConfig(template_aggregator=aggregator)
    return float(_finite_costs(features, memory, cfg.template_aggregator)[0, 0])


def step(memory: MemoryState, features, cfg: McpConfig) -> tuple[MemoryState, StepRecord]:
    """Associate one frame's detections against the memory and update it.

    features holds the frame's unit feature rows, shape (n, D), as
    FrameRecord.features does; row i is detection i. Runs a minimum-cost
    assignment between detections and remembered individuals, rejecting
    matches that cost more than zeta. Every rejected or unmatched detection
    counts as inflow (a fresh entry). Remembered individuals not matched
    this step lose one unit of time to live and are dropped once it is
    exhausted. Returns the new memory and a record with frame_index 0 (the
    caller knows the real index). A non-finite feature entry, or a non-finite
    cost of a detection against the memory, raises DataError.
    """
    features = _all_finite(_features(features, memory), "features")
    n, dim = features.shape
    size = len(memory.ttl)
    det_idx = entry_idx = np.zeros(0, dtype=np.intp)
    if n and size:
        cost = _finite_costs(features, memory, cfg.template_aggregator)
        rows, cols = _assign(cost)
        ok = cost[rows, cols] <= cfg.zeta
        det_idx, entry_idx = rows[ok], cols[ok]
    matched = np.zeros(size, dtype=bool)
    matched[entry_idx] = True
    fresh = np.ones(n, dtype=bool)
    fresh[det_idx] = False
    fresh = np.flatnonzero(fresh)
    # Old entries keep their order: a matched one gets its detection's feature
    # after its last template, keeps its newest mem_max and a full ttl; a missed
    # one keeps all of its templates, ticks down and is dropped once exhausted.
    # Fresh entries append at the end.
    grown = memory.fill + matched
    keep = np.where(matched, np.minimum(grown, cfg.mem_max), grown * (memory.ttl > 0))
    kept = np.flatnonzero(keep)
    # One gather from the old rows stacked over the frame's. Entry k keeps the last
    # keep[k] of its grown rows: old rows up to its last, cumsum(fill)[k] - 1, then,
    # if it matched, its detection's row in the last place.
    rows_old = len(memory.templates)
    ends = np.cumsum(keep)
    source = np.repeat(np.cumsum(memory.fill) + matched - ends, keep)
    source += np.arange(len(source))
    source[ends[entry_idx] - 1] = rows_old + det_idx
    # Reshaped by row count, as the empty memory is (0, 0) whatever the frames' dimension.
    stacked = np.concatenate((memory.templates.reshape(rows_old, dim), features))
    templates = stacked[np.concatenate((source, rows_old + fresh))]
    fill = np.concatenate((keep[kept], np.ones(len(fresh), dtype=np.intp)))
    ttl = np.concatenate((np.where(matched, cfg.ttl_max, memory.ttl - 1)[kept],
                          np.full(len(fresh), cfg.ttl_max, dtype=np.intp)))
    next_id = memory.next_entry_id
    if next_id + len(fresh) > _LAST_ENTRY_ID + 1:
        raise DataError(f"no entry id is left for {len(fresh)} fresh entries "
                        f"from next_entry_id {next_id}; the last is 2**63 - 2")
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
