"""Core data model: detections, frames, streams, and similarity partitioning.

A stream is a sequence of frames sampled at a fixed interval. Each frame
carries localized individuals with appearance features plus weak group-level
labels: an inflow bit (new since the previous sampled frame) and an outflow
bit (gone by the next sampled frame) per detection. Pairing adjacent frames
and reordering each side so that shared individuals come first partitions the
similarity matrix into blocks that the loss functions consume.
"""

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from operator import getitem

import numpy as np

from .errors import DataError

_UNIT_NORM_TOL = 1e-12


def _unit_rows(rows: np.ndarray, row_label: str | None = None) -> np.ndarray:
    """A float (n, D) array's rows at unit Euclidean norm, in a copy unless all are already.

    A row already unit-length within tolerance is kept, so this is idempotent bit-for-bit.
    A row whose squared norm is 0, subnormal or infinite is first divided by its largest
    absolute entry. A zero or non-finite row raises DataError, naming row_label[k] if given.
    """
    # Batched matmul gives every row's squared norm bit-for-bit as np.dot does.
    with np.errstate(over="ignore", under="ignore"):
        sq = (rows[:, None, :] @ rows[:, :, None]).reshape(-1)
    # Rows all unit already, the common case, are kept as they are. A zero, subnormal,
    # huge or non-finite row has a squared norm far from 1, or NaN, and fails this test.
    if (np.abs(sq - 1.0) <= _UNIT_NORM_TOL).all():
        return rows
    rows = rows.copy()
    finite = np.isfinite(rows).all(axis=1)
    off = np.flatnonzero(finite & ((sq < np.finfo(np.float64).tiny) | (sq == np.inf)))
    if len(off):
        # initial, the least positive float, keeps a zero row's divisor above 0
        rows[off] /= np.abs(rows[off]).max(axis=1, keepdims=True, initial=5e-324)
        sq[off] = (rows[off] ** 2).sum(axis=1)
    bad = ~finite | (sq == 0.0)
    if bad.any():
        k = int(np.argmax(bad))
        where = "" if row_label is None else f"{row_label}[{k}]: "
        why = "zero vector" if finite[k] else "non-finite entries"
        raise DataError(f"{where}degenerate feature: {why}")
    scale = (np.abs(sq - 1.0) > _UNIT_NORM_TOL)[:, None]
    return np.divide(rows, np.sqrt(sq)[:, None], out=rows, where=scale)


def shared_count(outflow_i, inflow_j) -> int:
    """Number of individuals present in both frames of an adjacent pair.

    Zeros in the earlier frame's outflow mark individuals that stay; zeros in
    the later frame's inflow mark individuals that were already there. Both
    counts must agree or the weak labels are contradictory.
    """
    m_out = int(np.count_nonzero(_array(outflow_i, "outflow_i", 1, integer=True) == 0))
    m_in = int(np.count_nonzero(_array(inflow_j, "inflow_j", 1, integer=True) == 0))
    if m_out != m_in:
        raise DataError(f"inconsistent weak labels: {m_out} staying vs {m_in} already present")
    return m_out


@dataclass(frozen=True, eq=False)
class Detection:
    """One detection of a frame, as a plain record of rows the frame has validated.

    FrameRecord.detections builds these: feature is a read-only view of the
    frame's unit feature row, not a copy, and gt_id its identity or None.
    """

    coordinate: tuple[float, float]
    feature: np.ndarray
    gt_id: int | None = None


class _BuiltOnAccess(Sequence):
    """Read-only sequence of n items, each built by item(k) when it is accessed."""

    __slots__ = ("_n", "_item")

    def __init__(self, n: int, item):
        self._n = n
        self._item = item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k: int):
        return self._item(range(self._n)[k])


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr itself if it is read-only, else a read-only copy of it."""
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


# The readers below read every number the library is handed, from a stream file or an
# argument, and raise error (DataError by default) for what they refuse rather than cast it.

def _real(value, what: str, kind: str = "a number", error: type = DataError) -> float:
    """value as a float, an int past float range as an infinity; a bool or non-number: error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be {kind}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite(value, what: str, interval: str = "(-inf, inf)", error: type = DataError) -> float:
    """value read by _real as a finite float inside interval, else error.

    interval is written as in mathematics: "[0, 1)" takes 0 in and leaves 1 out. Messages
    call "(0, inf)" a positive number.
    """
    positive = "a positive number" if interval == "(0, inf)" else None
    x = _real(value, what, positive or "a number", error)
    if not math.isfinite(x):
        raise error(f"{what} must be finite, got {x}")
    lo, hi = map(float, interval[1:-1].split(","))
    if not (lo < x < hi or x == lo and interval[0] == "[" or x == hi and interval[-1] == "]"):
        raise error(f"{what} must be {positive or 'in ' + interval}, got {x}")
    return x


def _as_int(value, what: str, least: float = -math.inf, error: type = DataError) -> int:
    """value as an int of at least least; a bool, fraction or non-number raises error."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or isinstance(value, (bool, np.bool_)):
        raise error(f"{what} must be an integer, got {value!r}")
    if whole < least:
        raise error(f"{what} must be at least {least}, got {whole}")
    return whole


def _array(values, what: str, ndim: int, integer: bool = False, width: int | None = None,
           error: type = DataError) -> np.ndarray:
    """values as an ndim-d float64 array, or intp if integer, its entries checked before any cast.

    Inferred with no dtype, a string, None or an int past 64 bits shows in the dtype: an array
    of such a dtype or of bools is refused, and a list has each entry read by _real (_as_int if
    integer), naming the first bad one as what[i, j]. Of a list, the entries equal to 0 or 1
    are read too, as True and False land there. If integer, a fraction or an int past 64 bits
    is refused. Given a width, an empty array of another rank reads as (0, ..., 0, width).
    values itself if it is already such an array; an array made anew from a list, tuple or
    array is read-only, so _read_only keeps it rather than copy it again.
    """
    def read(index, value):
        name = f"{what}{list(index)}" if len(index) else what
        return (_as_int if integer else _real)(value, name, error=error)

    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise error(f"{what} dimension mismatch: {exc}") from None
    listed = not isinstance(values, np.ndarray)
    if arr.dtype.kind not in "iuf":
        if not listed and arr.dtype != object:
            raise error(f"{what} must be numbers, got dtype {arr.dtype}")
        arr = np.array([read(k, reduce(getitem, k, values))
                        for k in np.ndindex(arr.shape)]).reshape(arr.shape)
    elif listed and (np.count_nonzero(arr == 0) or np.count_nonzero(arr == 1)):
        # one comparison at a time, so a single mask is alive beside arr
        for k in sorted(k for v in (0, 1) for k in np.argwhere(arr == v).tolist()):
            read(k, reduce(getitem, k, values))
    if integer and arr.dtype.kind in "fuO":
        # NaN compares False here, so it is read, and refused, with the fractions
        whole = np.abs(arr) < 2.0**63
        if arr.dtype.kind == "f":
            whole &= arr == np.trunc(arr)
        for k in np.argwhere(~whole)[:1].tolist():
            read(k, arr.item(tuple(k)))
            raise error(f"{what}{k} must fit in 64 bits, got {arr.item(tuple(k))}")
    arr = arr.astype(np.intp if integer else np.float64, copy=False)
    if isinstance(values, (list, tuple)) or (isinstance(values, np.ndarray)
                                             and not np.may_share_memory(arr, values)):
        arr.setflags(write=False)
    if arr.ndim != ndim:
        if arr.size or width is None:
            raise error(f"{what} must form a {ndim}-d array, got shape {arr.shape}")
        arr = arr.reshape((0,) * (ndim - 1) + (width,))
    return arr


def _as_bits(values, n: int, name: str) -> np.ndarray:
    """values as n intp bits, each 0 or 1; a bool, float or non-number raises DataError."""
    # object dtype keeps each entry's own type, which an int array would hide
    arr = np.asarray(values, dtype=object)
    if arr.shape != (n,):
        got = f"{arr.size} entries" if arr.ndim == 1 else f"shape {arr.shape}"
        raise DataError(f"{name} has {got} for {n} detections")
    bits = arr.tolist()
    if set(map(type, bits)) - {int} or not set(bits) <= {0, 1}:
        for k, b in enumerate(bits):
            if isinstance(b, bool) or not isinstance(b, (int, np.integer)) or b not in (0, 1):
                raise DataError(f"{name}[{k}] must be an integer 0 or 1, got {b!r}")
    return np.array(bits, dtype=np.intp)


def _as_ids(values, n: int) -> tuple[int | None, ...]:
    """values as n ids, each a non-negative int or None; any other id raises DataError."""
    if values is None:
        return (None,) * n
    ids = tuple(values)
    if len(ids) != n:
        raise DataError(f"gt_ids has {len(ids)} entries for {n} detections")
    try:
        # all ints in one read; a None or a bad id sends every id through _as_int below
        arr = _array(ids, "gt_ids", 1, integer=True)
    except DataError:
        pass
    else:
        if not np.count_nonzero(arr < 0):
            return tuple(arr.tolist())
    return tuple(None if g is None else _as_int(g, f"det[{k}]: gt_id", 0)
                 for k, g in enumerate(ids))


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """A sampled frame held as arrays, one row per detection, with inflow/outflow bits.

    coordinates is a read-only (n, 2) array of image positions, features a read-only (n, D)
    array of unit rows, normalized in one pass, and inflow and outflow read-only intp arrays
    of n bits. Read-only coordinates or features are kept, a writable array copied and a list
    read once. Timestamp, coordinate and feature entries are finite numbers, not bools or strings.
    gt_ids holds each detection's ground-truth identity, an int or None; left out, no
    detection has one. detections views the rows as Detection records, built on access.
    """

    frame_index: int
    timestamp: float
    coordinates: np.ndarray
    features: np.ndarray
    inflow: np.ndarray
    outflow: np.ndarray
    gt_ids: tuple[int | None, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "frame_index", _as_int(self.frame_index, "frame_index", 1))
        object.__setattr__(self, "timestamp", _finite(self.timestamp, "timestamp"))
        features = _unit_rows(_read_only(_array(self.features, "features", 2, width=0)), "det")
        n = len(features)
        coordinates = _read_only(_array(self.coordinates, "coordinates", 2, width=2))
        if coordinates.shape != (n, 2):
            raise DataError(f"coordinates have shape {coordinates.shape}, expected ({n}, 2)")
        finite = np.isfinite(coordinates).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise DataError(f"det[{k}]: non-finite coordinate {tuple(coordinates[k].tolist())}")
        for name, arr in (("coordinates", coordinates), ("features", features),
                          ("inflow", _as_bits(self.inflow, n, "inflow")),
                          ("outflow", _as_bits(self.outflow, n, "outflow"))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "gt_ids", _as_ids(self.gt_ids, n))

    @property
    def detections(self) -> Sequence:
        """The rows as Detection records, in frame order, each built when accessed."""
        return _BuiltOnAccess(len(self), self._detection)

    def _detection(self, k: int) -> Detection:
        x, y = self.coordinates[k].tolist()
        return Detection((x, y), self.features[k], self.gt_ids[k])

    def __len__(self) -> int:
        return len(self.features)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrameRecord):
            return NotImplemented
        # Equal bits mean equal detection counts; an empty frame has no feature dimension.
        return (
            self.frame_index == other.frame_index
            and self.timestamp == other.timestamp
            and np.array_equal(self.inflow, other.inflow)
            and np.array_equal(self.outflow, other.outflow)
            and self.gt_ids == other.gt_ids
            and np.array_equal(self.coordinates, other.coordinates)
            and (not len(self) or np.array_equal(self.features, other.features))
        )


@dataclass(frozen=True)
class DetectionStream:
    """Frames sampled at a fixed interval, validated for internal consistency."""

    frames: tuple[FrameRecord, ...]
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "delta", _finite(self.delta, "delta", "(0, inf)"))
        frames = tuple(self.frames)
        object.__setattr__(self, "frames", frames)
        tol = 1e-9 * max(1.0, self.delta)
        for prev, curr in zip(frames, frames[1:]):
            if curr.frame_index <= prev.frame_index:
                raise DataError(f"frame indices must increase: {prev.frame_index} then "
                                f"{curr.frame_index}")
            gap = curr.timestamp - prev.timestamp
            # written so that a NaN gap fails too
            if not abs(gap - self.delta) <= tol:
                raise DataError(f"frames {prev.frame_index}->{curr.frame_index} spaced {gap}s, "
                                f"expected {self.delta}s")
        dims = {f.features.shape[1] for f in frames if len(f)}
        if len(dims) > 1:
            raise DataError(f"mixed feature dimensions in stream: {sorted(dims)}")
        if frames and 0 in frames[0].inflow:
            raise DataError("first frame must have inflow bits all 1")

    @property
    def feature_dim(self) -> int | None:
        return next((f.features.shape[1] for f in self.frames if len(f)), None)

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True, eq=False)
class SimilarityBlocks:
    """Similarity matrix of an adjacent frame pair, split along shared individuals.

    Detections of the earlier frame are reordered so the ones that stay come
    first; detections of the later frame so the ones already present come
    first. full is that block-ordered (n_i, n_j) matrix of finite entries,
    stored once and read-only (a writable matrix passed in is copied; a
    read-only one is kept as is), and m the shared count. The blocks are
    views of full: the top-left s0 holds similarities among shared
    individuals and the bottom-right s3 compares outflow against inflow,
    while s1/s2 mix the two groups. perm_i/perm_j map block positions back
    to the original detection order of each frame.
    """

    full: np.ndarray
    m: int
    perm_i: np.ndarray | None = None
    perm_j: np.ndarray | None = None

    def __post_init__(self):
        s = _read_only(_array(self.full, "full", 2))
        if not np.isfinite(s).all():
            i, j = np.argwhere(~np.isfinite(s))[0].tolist()
            raise DataError(f"full[{i}, {j}] must be finite, got {s[i, j]}")
        m = _as_int(self.m, "m", 0)
        if m > min(s.shape):
            raise DataError(f"shared count {m} out of range for shape {s.shape}")
        object.__setattr__(self, "full", s)
        object.__setattr__(self, "m", m)
        for name, size in (("perm_i", self.n_i), ("perm_j", self.n_j)):
            given = getattr(self, name)
            perm = np.arange(size) if given is None else given
            perm = _read_only(_array(perm, name, 1, integer=True))
            if perm.shape != (size,) or not np.array_equal(np.sort(perm), np.arange(size)):
                raise DataError(f"{name} is not a permutation of range({size})")
            object.__setattr__(self, name, perm)

    n_i = property(lambda self: self.full.shape[0])
    n_j = property(lambda self: self.full.shape[1])
    s0 = property(lambda self: self.full[: self.m, : self.m])
    s1 = property(lambda self: self.full[: self.m, self.m :])
    s2 = property(lambda self: self.full[self.m :, : self.m])
    s3 = property(lambda self: self.full[self.m :, self.m :])


def partition_similarity(frame_i: FrameRecord, frame_j: FrameRecord) -> SimilarityBlocks:
    """Build the partitioned similarity matrix for an adjacent frame pair.

    frame_i is the earlier frame (its outflow bits apply), frame_j the later
    one (its inflow bits apply). The reorderings are stable: within the
    shared and non-shared groups, original detection order is preserved.
    """
    m = shared_count(frame_i.outflow, frame_j.inflow)
    order_i = np.argsort(frame_i.outflow, kind="stable")
    order_j = np.argsort(frame_j.inflow, kind="stable")
    if len(frame_i) and len(frame_j):
        s = frame_i.features[order_i] @ frame_j.features[order_j].T
        np.clip(s, -1.0, 1.0, out=s)
    else:
        s = np.zeros((len(frame_i), len(frame_j)))
    # Handed over read-only, so the blocks keep this matrix instead of a copy.
    s.setflags(write=False)
    return SimilarityBlocks(s, m, order_i, order_j)


def pair_blocks(stream: DetectionStream) -> list[SimilarityBlocks]:
    """Partitioned similarity blocks for every adjacent frame pair of a stream."""
    return [partition_similarity(a, b) for a, b in zip(stream.frames, stream.frames[1:])]


def random_similarity_blocks(rng: np.random.Generator, n_i: int, n_j: int,
                             m: int) -> SimilarityBlocks:
    """Random blocks with entries in [-1, 1], for diagnostics and gradient checks."""
    size = (_as_int(n_i, "n_i", 0), _as_int(n_j, "n_j", 0))
    return SimilarityBlocks(rng.uniform(-1.0, 1.0, size=size), m)
