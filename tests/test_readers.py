"""One policy for every number the library is handed: stream.py's readers read it.

The readers' shortcuts for the common case (a frame's ids read as one array, a
block of rows already unit kept as it is) give what the full read gives.

A string, a truth value, a fraction or an int past 64 bits where an integer is
due, for a scalar, a cost matrix, a held transport plan, a memory's templates
or a detection's features a NaN, and for a weak label anything but an integer
0 or 1 are refused with the entry point's documented exception, and the
message names the argument. A guard keeps every other module from casting an
argument with an explicit dtype, which would read such values silently.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vicount import (DataError, Detection, DetectionStream, FrameRecord, LossConfig, McpConfig,
                     MemoryState, NumericalError, SimConfig, SimilarityBlocks, TemplateEntry,
                     TransportPlan, VideoResult, brute_force_assignment, contrastive_similarity,
                     frozen_plan_loss, hinge_loss, hungarian, loss_gradient,
                     random_similarity_blocks, round_to_permutation, shared_count, sinkhorn,
                     step, supervised_contrastive_loss, template_cost)
from vicount.stream import _unit_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "vicount"

BAD = {"string": "1", "bool": True, "fraction": 0.5, "nan": math.nan, "past": 2**63, "two": 2,
       "whole": 1.0}
REAL = ("string", "bool", "nan")  # a real scalar, or an array that must be finite
INTEGER = ("string", "bool", "fraction", "nan", "past")  # an integer of 64 bits
BITS = (*INTEGER, "two", "whole")  # a weak label: an integer 0 or 1
ROWS = ("string", "bool")  # a real array kept or read as is: NaN is not refused there

C = np.array([[0.0, 1.0], [1.0, 0.0]])
BLOCKS = SimilarityBlocks(np.eye(3), 2)
CFG = LossConfig()
ENTRY = TemplateEntry(0, np.array([[1.0, 0.0]]), 1)
DETECTION = Detection((0.0, 0.0), np.array([1.0, 0.0]))


def _memory(**kw):
    args = dict(templates=[[1.0, 0.0]], fill=[1], ttl=[1], entry_id=[0], next_entry_id=1)
    args.update(kw)
    return MemoryState(**args)


# (entry point, the argument its message names, exception, kinds of bad value, call with v)
ENTRY_POINTS = [
    *[("SimConfig", f, DataError, REAL, lambda v, f=f: SimConfig(**{f: v}))
      for f in ("delta", "feature_noise_sigma", "reentry_probability", "walk_step_sigma",
                "max_base_similarity")],
    ("SimConfig", "scene_size", DataError, REAL, lambda v: SimConfig(scene_size=(10.0, v))),
    *[("SimConfig", f, DataError, INTEGER, lambda v, f=f: SimConfig(**{f: v}))
      for f in ("num_identities", "num_frames", "feature_dim", "seed")],
    ("McpConfig", "zeta", DataError, REAL, lambda v: McpConfig(zeta=v)),
    *[("McpConfig", f, DataError, INTEGER, lambda v, f=f: McpConfig(**{f: v}))
      for f in ("ttl_max", "mem_max")],
    *[("LossConfig", f, DataError, REAL, lambda v, f=f: LossConfig(**{f: v}))
      for f in ("temperature", "hinge_threshold", "sinkhorn_reg", "sinkhorn_tol")],
    ("LossConfig", "sinkhorn_max_iters", DataError, INTEGER,
     lambda v: LossConfig(sinkhorn_max_iters=v)),
    ("VideoResult", "length", DataError, REAL, lambda v: VideoResult("v", v, 3, 2)),
    ("VideoResult", "pred_count", DataError, REAL, lambda v: VideoResult("v", 5, 3, v)),
    ("VideoResult", "gt_count", DataError, INTEGER, lambda v: VideoResult("v", 5, v, 2)),
    ("FrameRecord", "timestamp", DataError, REAL,
     lambda v: FrameRecord(1, v, [[0, 0]], [[1.0, 0.0]], (1,), (1,))),
    ("FrameRecord", "frame_index", DataError, INTEGER,
     lambda v: FrameRecord(v, 0.0, [[0, 0]], [[1.0, 0.0]], (1,), (1,))),
    ("FrameRecord", "coordinates", DataError, ROWS,
     lambda v: FrameRecord(1, 0.0, [[v, 0]], [[1.0, 0.0]], (1,), (1,))),
    ("FrameRecord", "features", DataError, ROWS,
     lambda v: FrameRecord(1, 0.0, [[0, 0]], [[v, 1.0]], (1,), (1,))),
    ("FrameRecord", "gt_id", DataError, INTEGER,
     lambda v: FrameRecord(1, 0.0, [[0, 0]], [[1.0, 0.0]], (1,), (1,), [v])),
    ("DetectionStream", "delta", DataError, REAL, lambda v: DetectionStream((), v)),
    ("SimilarityBlocks", "full", DataError, ROWS,
     lambda v: SimilarityBlocks([[v, 0.0], [0.0, 1.0]], 1)),
    ("SimilarityBlocks", "m", DataError, INTEGER, lambda v: SimilarityBlocks(np.eye(2), v)),
    ("SimilarityBlocks", "perm_i", DataError, INTEGER,
     lambda v: SimilarityBlocks(np.eye(2), 1, perm_i=[v, 1])),
    ("SimilarityBlocks", "perm_j", DataError, INTEGER,
     lambda v: SimilarityBlocks(np.eye(2), 1, perm_j=[1, v])),
    ("random_similarity_blocks", "n_i", DataError, INTEGER,
     lambda v: random_similarity_blocks(np.random.default_rng(0), v, 2, 1)),
    ("MemoryState", "templates", DataError, REAL, lambda v: _memory(templates=[[v, 1.0]])),
    *[("MemoryState", f, DataError, INTEGER, lambda v, f=f: _memory(**{f: [v]}))
      for f in ("fill", "ttl", "entry_id")],
    ("MemoryState", "next_entry_id", DataError, INTEGER, lambda v: _memory(next_entry_id=v)),
    ("step", "features", DataError, REAL,
     lambda v: step(MemoryState.empty(), [[v, 1.0]], McpConfig())),
    ("template_cost", "features", DataError, REAL,
     lambda v: template_cost(Detection((0.0, 0.0), [v, 1.0]), ENTRY)),
    ("template_cost", "templates", DataError, REAL,
     lambda v: template_cost(DETECTION, TemplateEntry(0, [[v, 1.0]], 1))),
    ("template_cost", "ttl", DataError, INTEGER,
     lambda v: template_cost(DETECTION, TemplateEntry(0, [[1.0, 0.0]], v))),
    ("template_cost", "entry_id", DataError, INTEGER,
     lambda v: template_cost(DETECTION, TemplateEntry(v, [[1.0, 0.0]], 1))),
    ("shared_count", "outflow_i", DataError, BITS, lambda v: shared_count([v, 1], [0, 1])),
    ("shared_count", "inflow_j", DataError, BITS, lambda v: shared_count([0, 1], [1, v])),
    ("hungarian", "cost", NumericalError, REAL, lambda v: hungarian([[v, 1.0], [1.0, 0.0]])),
    ("brute_force_assignment", "cost", NumericalError, REAL,
     lambda v: brute_force_assignment([[v, 1.0], [1.0, 0.0]])),
    ("sinkhorn", "cost", NumericalError, REAL, lambda v: sinkhorn([[v, 1.0], [1.0, 0.0]], 0.1)),
    ("sinkhorn", "reg", NumericalError, REAL, lambda v: sinkhorn(C, v)),
    ("sinkhorn", "tol", NumericalError, REAL, lambda v: sinkhorn(C, 0.1, tol=v)),
    ("sinkhorn", "max_iters", NumericalError, INTEGER, lambda v: sinkhorn(C, 0.1, max_iters=v)),
    ("round_to_permutation", "omega", NumericalError, REAL,
     lambda v: round_to_permutation([[v, 0.0], [0.0, 1.0]])),
    ("TransportPlan", "omega", DataError, ROWS, lambda v: TransportPlan([[v]], True, 0)),
    ("contrastive_similarity", "temperature", DataError, REAL,
     lambda v: contrastive_similarity(BLOCKS, v)),
    ("hinge_loss", "threshold", DataError, REAL, lambda v: hinge_loss(C, v)),
    ("hinge_loss", "s3", DataError, ROWS, lambda v: hinge_loss([[v, 0.5]], 0.2)),
    ("frozen_plan_loss", "omega", DataError, REAL,
     lambda v: frozen_plan_loss(BLOCKS, [[v, 0.0], [0.0, 1.0]], CFG)),
    ("loss_gradient", "omega", DataError, REAL,
     lambda v: loss_gradient(BLOCKS, [[v, 0.0], [0.0, 1.0]], CFG)),
    ("supervised_contrastive_loss", "association", DataError, INTEGER,
     lambda v: supervised_contrastive_loss(BLOCKS, (v, 1), CFG)),
]

# Values that each of these entry points used to read silently, cast, or fail on with a
# bare TypeError.
REPROS = [
    ("SimilarityBlocks-m-1.7", "m", DataError, lambda: SimilarityBlocks(np.eye(3), 1.7)),
    ("SimilarityBlocks-perm_i-0.9", "perm_i", DataError,
     lambda: SimilarityBlocks(np.eye(2), 1, perm_i=[0.9, 1.9])),
    ("MemoryState-fill-1.5", "fill", DataError, lambda: _memory(fill=[1.5])),
    ("MemoryState-ttl-2.7", "ttl", DataError, lambda: _memory(ttl=[2.7])),
    ("MemoryState-entry_id-0.2", "entry_id", DataError, lambda: _memory(entry_id=[0.2])),
    ("MemoryState-next_entry_id-2.9", "next_entry_id", DataError,
     lambda: _memory(next_entry_id=2.9)),
    ("MemoryState-entry_id-past-64-bits", "entry_id", DataError,
     lambda: _memory(entry_id=np.array([2**63]))),
    ("hungarian-strings", "cost", NumericalError, lambda: hungarian([["1", "2"], ["0", "5"]])),
    ("sinkhorn-strings", "cost", NumericalError,
     lambda: sinkhorn([["0", "1"], ["1", "0"]], 0.5)),
    ("supervised_contrastive_loss-fractions", "association", DataError,
     lambda: supervised_contrastive_loss(BLOCKS, (0.7, 1.2), CFG)),
    ("shared_count-fraction", "outflow_i", DataError, lambda: shared_count([0.5, 1], [0, 1])),
    ("shared_count-2", "outflow_i", DataError, lambda: shared_count([2, 3], [7, 9])),
    ("shared_count--1", "inflow_j", DataError, lambda: shared_count([0, 1], [0, -1])),
    ("shared_count-1.0", "outflow_i", DataError, lambda: shared_count([0.0, 1.0], [0, 1])),
    ("sinkhorn-max_iters-2.5", "max_iters", NumericalError,
     lambda: sinkhorn(C, 0.1, max_iters=2.5)),
    ("sinkhorn-reg-True", "reg", NumericalError, lambda: sinkhorn(C, True)),
    ("sinkhorn-reg-string", "reg", NumericalError, lambda: sinkhorn(C, "0.1")),
    ("hinge_loss-threshold-string", "threshold", DataError,
     lambda: hinge_loss(BLOCKS.s3, "0.2")),
    ("contrastive_similarity-temperature-string", "temperature", DataError,
     lambda: contrastive_similarity(BLOCKS, "10")),
    ("template_cost-bool-template", "templates", DataError,
     lambda: template_cost(DETECTION, TemplateEntry(0, [[True, 0.0]], 1))),
    *[(f"SimConfig-scene_size-{name}", "scene_size", DataError,
       lambda size=size: SimConfig(scene_size=size))
      for name, size in (("triple", (1.0, 2.0, 3.0)), ("single", (1.0,)), ("scalar", 5),
                         ("none", None))],
]

TABLE = [
    *[pytest.param(arg, error, lambda call=call, v=BAD[kind]: call(v), id=f"{point}-{arg}-{kind}")
      for point, arg, error, kinds, call in ENTRY_POINTS for kind in kinds],
    *[pytest.param(arg, error, call, id=name) for name, arg, error, call in REPROS],
]


@pytest.mark.parametrize("arg, error, call", TABLE)
def test_a_bad_argument_is_refused_and_named(arg, error, call):
    with pytest.raises((DataError, NumericalError)) as caught:
        call()
    assert type(caught.value) is error
    assert re.search(rf"\b{arg}\b", str(caught.value)), str(caught.value)


def _dtype_casts_of_parameters(tree: ast.AST):
    """(line, call) of each np.asarray/np.array with a dtype= on a parameter of its function."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = func.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None}
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and node.func.attr in ("asarray", "array")
                    and any(k.arg == "dtype" for k in node.keywords) and node.args):
                continue
            root = node.args[0]
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id in params:
                yield node.lineno, ast.unparse(node)


def test_only_stream_casts_an_argument_with_a_dtype():
    found = [f"{path.name}:{line}: {call}"
             for path in sorted(SRC.glob("*.py")) if path.name != "stream.py"
             for line, call in _dtype_casts_of_parameters(ast.parse(path.read_text()))]
    assert not found, "cast an argument through stream.py's readers instead:\n" + "\n".join(found)


def test_the_guard_sees_a_cast_of_a_parameter():
    tree = ast.parse("import numpy as np\n"
                     "def f(cost, entry):\n"
                     "    a = np.asarray(cost, dtype=np.float64)\n"
                     "    b = np.array(entry.templates[0], dtype=float)\n"
                     "    c = np.asarray(np.zeros(2), dtype=float)\n")
    assert [line for line, _ in _dtype_casts_of_parameters(tree)] == [3, 4]


def _frame_with_ids(ids):
    n = len(ids)
    return FrameRecord(1, 0.0, [[0, 0]] * n, [[1.0, 0.0]] * n, (1,) * n, (1,) * n, ids)


@pytest.mark.parametrize("ids, message", [
    pytest.param([None, 0.5], "det[1]: gt_id must be an integer, got 0.5", id="none-and-fraction"),
    pytest.param([4, -1], "det[1]: gt_id must be at least 0, got -1", id="negative"),
    pytest.param([0, 2.5], "det[1]: gt_id must be an integer, got 2.5", id="fraction"),
    pytest.param([1, True], "det[1]: gt_id must be an integer, got True", id="bool"),
    pytest.param([3, -2**64], f"det[1]: gt_id must be at least 0, got {-2**64}",
                 id="negative-past-64-bits"),
    pytest.param([0, 2**63], f"det[1]: gt_id must fit in 64 bits, got {2**63}",
                 id="past-64-bits"),
])
def test_a_bad_gt_id_is_named_by_its_detection(ids, message):
    with pytest.raises(DataError) as caught:
        _frame_with_ids(ids)
    assert str(caught.value) == message


@pytest.mark.parametrize("ids, want", [
    pytest.param([None, 3], (None, 3), id="none"),
    pytest.param([2**63 - 1, 0], (2**63 - 1, 0), id="int64-edge"),
    pytest.param([np.int64(5), 7.0, 1], (5, 7, 1), id="numpy-and-whole-float"),
    pytest.param([], (), id="empty"),
])
def test_gt_ids_are_kept_as_python_ints(ids, want):
    got = _frame_with_ids(ids).gt_ids
    assert got == want
    assert [type(g) for g in got] == [type(g) for g in want]


_ROW_KINDS = ("unit", "scaled", "subnormal", "huge", "zero", "nan", "inf")


def _row(kind: str, rng: np.random.Generator, d: int) -> np.ndarray:
    row = rng.standard_normal(d)
    if kind == "unit":
        return row / np.sqrt(row @ row)
    if kind in ("nan", "inf"):
        row[rng.integers(d)] = math.nan if kind == "nan" else -math.inf
        return row
    return row * {"scaled": 3.0, "subnormal": 1e-310, "huge": 1e300, "zero": 0.0}[kind]


def _normalized(rows: np.ndarray):
    """_unit_rows's bytes for rows, or its message."""
    try:
        return _unit_rows(rows, "det").tobytes()
    except DataError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8),
       st.lists(st.sampled_from(_ROW_KINDS), max_size=6))
def test_unit_rows_gives_the_same_bytes_with_and_without_the_early_return(seed, d, kinds):
    rng = np.random.default_rng(seed)
    rows = np.array([_row(kind, rng, d) for kind in kinds]).reshape(len(kinds), d)
    # A last row of norm 2 sends the block through the full pass; it raises
    # for the same first bad row, or keeps every other row's bytes.
    forced = np.vstack([rows, np.full((1, d), 2.0 / math.sqrt(d))])
    given = rows.tobytes(), forced.tobytes()
    fast, full = _normalized(rows), _normalized(forced)
    assert fast == (full if isinstance(full, str) else full[: rows.nbytes])
    assert (rows.tobytes(), forced.tobytes()) == given  # neither argument is written
