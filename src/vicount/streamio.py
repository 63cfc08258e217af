"""Reading and writing detection streams as JSON Lines.

Line one is a header: {"schema": 1, "dim": D, "delta": seconds}. Every
following line is one frame: {"frame": k, "t": seconds, "det": [...],
"in": [...], "out": [...]}, where each detection object carries "x", "y",
"f" (the feature vector), and optionally "id" (ground-truth identity).
Serialization is deterministic (fixed key order, shortest round-tripping
float form), and write followed by parse reproduces the stream exactly.

The parser decodes each line with orjson, about five times faster than json
on feature-heavy lines and correctly rounded like it. json, whose values and
error messages the parser has always had, re-reads a line in two cases: when
orjson refuses it (NaN and Infinity literals, a number past float range, a
lone surrogate escape, malformed JSON), and when a field the parser reads
holds a type a valid line never gives it. The second case covers the one
kind of value on which the two disagree: orjson reads an integer literal
outside [-2**63, 2**64) as a float, where json keeps the exact int.
"""

import json

import orjson

from .errors import DataError, StreamFormatError
from .stream import DetectionStream, FrameRecord, _as_int, _finite

SCHEMA_VERSION = 1


def write_stream(stream: DetectionStream, path) -> None:
    """Write a stream to a JSON Lines file (header line plus one line per frame).

    Each line is assembled from the repr of its numbers, which is what
    json.dumps prints for the finite floats and ints a stream holds. A
    feature row whose bytes match a row earlier in the same frame or in the
    previous frame reuses that row's text, so a noiseless scene formats
    each identity's row about once; between frames only the row texts of
    the frame just written are kept.
    """
    dim = stream.feature_dim
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f'{{"schema":{SCHEMA_VERSION},"dim":{0 if dim is None else dim},'
                 f'"delta":{stream.delta!r}}}\n')
        previous = {}
        for frame in stream.frames:
            features = frame.features
            raw = features.tobytes()
            width = features.shape[1] * features.itemsize
            texts = {}
            dets = []
            for k, ((x, y), g) in enumerate(zip(frame.coordinates.tolist(), frame.gt_ids)):
                # keyed on bytes: 0.0 and -0.0 compare equal but print differently
                key = raw[k * width:(k + 1) * width]
                f = texts.get(key) or previous.get(key) or ",".join(map(repr, features[k].tolist()))
                texts[key] = f
                tail = "" if g is None else f',"id":{g!r}'
                dets.append(f'{{"x":{x!r},"y":{y!r},"f":[{f}]{tail}}}')
            fh.write(f'{{"frame":{frame.frame_index!r},"t":{frame.timestamp!r},'
                     f'"det":[{",".join(dets)}],'
                     f'"in":[{",".join(map(repr, frame.inflow.tolist()))}],'
                     f'"out":[{",".join(map(repr, frame.outflow.tolist()))}]}}\n')
            previous = texts


def _fail(path, lineno: int, msg: str):
    raise StreamFormatError(f"{path}:{lineno}: {msg}")


def _need(obj: dict, key: str, path, lineno: int):
    return obj[key] if key in obj else _fail(path, lineno, f"missing key {key!r}")


def _bad_detection(raw_dets: list, dim: int) -> str | None:
    """Describe the first detection that is not an object with x, y and a flat f of dim entries."""
    for k, raw in enumerate(raw_dets):
        if not isinstance(raw, dict) or not {"x", "y", "f"} <= raw.keys():
            return f"det[{k}] must be a JSON object with keys 'x', 'y' and 'f'"
        feature = raw["f"]
        if not isinstance(feature, list) or any(isinstance(v, (list, dict)) for v in feature):
            return f"det[{k}]: feature must be a flat list of {dim} numbers"
        if len(feature) != dim:
            return f"det[{k}]: feature length {len(feature)} != header dim {dim}"
    return None


_NUMBER = (int, float)
_DET_TYPES = {(x, y, g) for x in _NUMBER for y in _NUMBER for g in (int, type(None))}


def _typed(obj) -> bool:
    """Whether each field parse_stream reads from the decoded line obj has a valid line's type.

    Integer fields (schema, dim, frame, in, out and a detection's id) must hold ints and real
    fields (delta, t and a detection's x and y) ints or floats, so an integer that orjson made
    a float fails, and so does a container in a field whose error message would print it. A
    missing key passes, as its message prints no value, and so do the entries of f, as a
    container among them is reported without its value.
    """
    if type(obj) is not dict:
        return True
    get = obj.get
    dets = get("det", [])
    return (all(type(get(key, 0)) is int for key in ("schema", "dim", "frame"))
            and type(get("delta", 0)) in _NUMBER and type(get("t", 0)) in _NUMBER
            and all(type(bits) is list and set(map(type, bits)) <= {int}
                    for bits in (get("in", []), get("out", [])))
            and type(dets) is list and set(map(type, dets)) <= {dict}
            and {(type(d.get("x", 0)), type(d.get("y", 0)), type(d.get("id"))) for d in dets}
            <= _DET_TYPES)


def _decode(line: str):
    """line decoded by orjson if it takes the line and the result is _typed, else by json."""
    try:
        obj = orjson.loads(line)
    except orjson.JSONDecodeError:
        return json.loads(line)
    return obj if _typed(obj) else json.loads(line)


def parse_stream(path) -> DetectionStream:
    """Parse a stream file written by write_stream, validating as it goes.

    Errors carry the path and 1-based line number of the offending line. The file is read
    line by line, and a line is split again where str.splitlines also splits (form feed,
    vertical tab, file, group or record separator), so the numbers are those of the whole text.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = enumerate((part for raw in fh for part in (
            raw.splitlines() if any(c in raw for c in "\v\f\x1c\x1d\x1e") else [raw])), start=1)
        lineno, header_line = next(lines, (1, None))
        if header_line is None:
            _fail(path, 1, "empty file, expected a header line")
        try:
            header = _decode(header_line)
        except json.JSONDecodeError as exc:
            _fail(path, 1, f"malformed header: {exc.msg}")
        if not isinstance(header, dict):
            _fail(path, 1, "header must be a JSON object")
        # read as frame and id are: a float with no fractional part is an integer
        schema = _need(header, "schema", path, 1)
        try:
            known = _as_int(schema, "schema") == SCHEMA_VERSION
        except DataError:
            known = False
        if not known:
            _fail(path, 1, f"unknown schema version {schema!r}, expected {SCHEMA_VERSION}")
        dim = _need(header, "dim", path, 1)
        try:
            dim = _as_int(dim, "dim", 0)
        except DataError:
            _fail(path, 1, f"dim must be a non-negative integer, got {dim!r}")
        delta = _need(header, "delta", path, 1)
        try:
            delta = _finite(delta, "delta", "(0, inf)")
        except DataError as exc:
            _fail(path, 1, f"{exc}")
        frames = []
        for lineno, line in lines:
            if not line or line.isspace():
                _fail(path, lineno, "blank line in frame section")
            try:
                obj = _decode(line)
            except json.JSONDecodeError as exc:
                _fail(path, lineno, f"malformed frame: {exc.msg}")
            if not isinstance(obj, dict):
                _fail(path, lineno, "frame must be a JSON object")
            frame_index, timestamp, raw_dets, inflow, outflow = (
                _need(obj, key, path, lineno) for key in ("frame", "t", "det", "in", "out")
            )
            if not isinstance(raw_dets, list):
                _fail(path, lineno, "det must be a list")
            try:
                frame = FrameRecord(frame_index, timestamp, [(d["x"], d["y"]) for d in raw_dets],
                                    [d["f"] for d in raw_dets], inflow, outflow,
                                    [d.get("id") for d in raw_dets])
            except (KeyError, TypeError, ValueError) as exc:
                _fail(path, lineno, _bad_detection(raw_dets, dim) or f"{exc}")
            if len(frame) and frame.features.shape[1] != dim:
                _fail(path, lineno, _bad_detection(raw_dets, dim))
            frames.append(frame)
    try:
        return DetectionStream(tuple(frames), delta)
    except (ValueError, TypeError) as exc:
        _fail(path, lineno, f"{exc}")
