"""In-memory span tracer that wraps module-level names of the vicount package.

Each wrapped call records one span: its name, start, end and the span that
was open when it began (its parent). Spans live in flat arrays while the
program runs and are written out only at the end, so the traced code pays
a few list appends per call and no I/O. Optional observers read counts off
the wrapped function's arguments and return value (iterations, memory
sizes, cost shapes) at the same boundary.

Wrappers are installed by `installed()` and removed when it exits, so code
outside that block runs the program's own functions untouched.
"""

import contextlib
import functools
import importlib
import os
import time
from array import array

import numpy as np

# (module, attribute, span name, observer key). The attribute is patched in
# the module whose code looks it up, because the package binds names with
# `from .x import y` at import time: wrapping the defining module alone would
# miss every caller.
TARGETS = (
    ("vicount.cli", "parse_stream", "streamio.parse_stream", "parse"),
    ("vicount.cli", "count_video", "counting.count_video", None),
    ("vicount.cli", "gt_unique_count", "simulate.gt_unique_count", None),
    ("vicount.cli", "pair_blocks", "stream.pair_blocks", None),
    ("vicount.cli", "soft_contrastive_loss", "loss.soft_contrastive_loss", None),
    ("vicount.cli", "hinge_loss", "loss.hinge_loss", None),
    ("vicount.cli", "pseudo_trajectories", "loss.pseudo_trajectories", None),
    ("vicount.cli", "mae", "metrics.mae", None),
    ("vicount.cli", "mse", "metrics.mse", None),
    ("vicount.cli", "wrae", "metrics.wrae", None),
    ("vicount.counting", "step", "counting.step", "step"),
    ("vicount.counting", "template_cost", "counting.template_cost", None),
    ("vicount.counting", "hungarian", "assignment.hungarian", "hungarian"),
    ("vicount.loss", "sinkhorn", "loss.sinkhorn", "sinkhorn"),
    ("vicount.loss", "hungarian", "assignment.hungarian", "hungarian"),
    ("vicount.loss", "partition_similarity", "stream.partition_similarity", None),
    ("vicount.loss", "soft_contrastive_loss", "loss.soft_contrastive_loss", None),
    ("vicount.stream", "partition_similarity", "stream.partition_similarity", None),
    ("vicount.simulate", "generate_scene", "simulate.generate_scene", None),
    ("vicount.streamio", "write_stream", "streamio.write_stream", None),
)

MARKER = "__perfbench_span__"


def _observe_parse(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _observe_step(args, kwargs, result):
    memory, record = result
    detections = args[1] if len(args) > 1 else kwargs["detections"]
    return len(memory.entries), len(record.associations), len(detections)


def _observe_hungarian(args, kwargs, result):
    rows, cols = getattr(args[0] if args else kwargs["cost"], "shape", (0, 0))
    return rows, cols


def _observe_sinkhorn(args, kwargs, result):
    return result.iterations_used, result.converged


OBSERVERS = {
    "parse": _observe_parse,
    "step": _observe_step,
    "hungarian": _observe_hungarian,
    "sinkhorn": _observe_sinkhorn,
}


class Tracer:
    """Records spans and observations while its wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.observed: dict[str, list] = {key: [] for key in OBSERVERS}
        # Targets the program no longer has, and observers that could not read
        # a return value: both leave the program's behaviour alone.
        self.missing: list[str] = []
        self.unobserved: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name: str, observer):
        nid = self.name_id(name)
        open_span, close_span = self._open, self._close
        sink = self.observed[observer] if observer else None
        unobserved = self.unobserved
        observe = OBSERVERS[observer] if observer else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = open_span(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(idx)
            if sink is not None:
                try:
                    sink.append(observe(args, kwargs, result))
                except Exception:  # a changed return type must not fail the traced call
                    unobserved[name] = unobserved.get(name, 0) + 1
            return result

        setattr(wrapper, MARKER, name)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target name for the duration of the block, then restore it."""
        try:
            for module_name, attr, name, observer in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, observer))
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def summary(self):
        """Per-span arrays: name id, parent, duration, self time and root span.

        A span's self time is its duration minus the time covered by its
        direct children; on one thread children never overlap, so that is
        the sum of their durations.
        """
        n = len(self.kind)
        kind = np.array(self.kind, dtype=np.int_)
        parent = np.array(self.parent, dtype=np.int_)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        # Spans are appended in start order, so a parent always has a lower
        # index; pointer jumping finds every span's outermost ancestor.
        root = np.where(has_parent, parent, np.arange(n))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        return kind, parent, dur, self_time, root

    def write(self, path) -> None:
        """Write every span to an .npz file (names, kind, parent, start, end)."""
        np.savez(
            path,
            names=np.array(self.names),
            kind=np.array(self.kind, dtype=np.int_),
            parent=np.array(self.parent, dtype=np.int_),
            start=np.array(self.start),
            end=np.array(self.end),
        )
