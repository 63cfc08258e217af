"""Reading and writing detection streams as JSON Lines.

Line one is a header: {"schema": 1, "dim": D, "delta": seconds}. Every
following line is one frame: {"frame": k, "t": seconds, "det": [...],
"in": [...], "out": [...]}, where each detection object carries "x", "y",
"f" (the feature vector), and optionally "id" (ground-truth identity).
Serialization is deterministic (fixed key order, shortest round-tripping
float form), and write followed by parse reproduces the stream exactly.
"""

import json

from .errors import DataError, StreamFormatError
from .stream import DetectionStream, FrameRecord, _finite

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
                     f'"det":[{",".join(dets)}],"in":[{",".join(map(repr, frame.inflow))}],'
                     f'"out":[{",".join(map(repr, frame.outflow))}]}}\n')
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
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            _fail(path, 1, f"malformed header: {exc.msg}")
        if not isinstance(header, dict):
            _fail(path, 1, "header must be a JSON object")
        schema = _need(header, "schema", path, 1)
        if type(schema) is not int or schema != SCHEMA_VERSION:
            _fail(path, 1, f"unknown schema version {schema!r}, expected {SCHEMA_VERSION}")
        dim = _need(header, "dim", path, 1)
        if type(dim) is not int or dim < 0:
            _fail(path, 1, f"dim must be a non-negative integer, got {dim!r}")
        delta = _need(header, "delta", path, 1)
        try:
            delta = _finite(delta, "delta", positive=True)
        except DataError as exc:
            _fail(path, 1, f"{exc}")
        frames = []
        for lineno, line in lines:
            if not line.strip():
                _fail(path, lineno, "blank line in frame section")
            try:
                obj = json.loads(line)
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
