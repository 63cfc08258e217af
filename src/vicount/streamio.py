"""Reading and writing detection streams as JSON Lines.

Line one is a header: {"schema": 1, "dim": D, "delta": seconds}. Every
following line is one frame: {"frame": k, "t": seconds, "det": [...],
"in": [...], "out": [...]}, where each detection object carries "x", "y",
"f" (the feature vector), and optionally "id" (ground-truth identity).
Serialization is deterministic (fixed key order, shortest round-tripping
float form), and write followed by parse reproduces the stream exactly.

The writer prints the bytes json.dumps would: repr of the header's numbers, and one orjson
call for each frame line, its feature rows as row views of an array. orjson prints some
floats unlike repr (nonzero |x| < 1e-4 and |x| >= 1e16); each goes in as NaN, printed null,
and each null is then replaced in line order by repr of the value.

The parser decodes each line with orjson, about five times faster than json on
feature-heavy lines and correctly rounded like it. json, whose error messages the parser
has always had, re-reads only a line orjson refuses: NaN and Infinity literals, a number
past float range, a lone surrogate escape, malformed JSON. Every integer field holds a
64-bit integer, so the one kind of value on which the two disagree, an integer literal
outside [-2**63, 2**64), which orjson reads as a float and json as the exact int, is
refused in an integer field either way and reads as the same float in a real one.
"""

import json

import numpy as np
import orjson

from .errors import DataError, StreamFormatError
from .stream import DetectionStream, FrameRecord, _as_int, _finite

SCHEMA_VERSION = 1


def _misprinted(values: np.ndarray) -> np.ndarray:
    """Where orjson prints a float unlike repr: nonzero |x| < 1e-4 and |x| >= 1e16."""
    size = np.abs(values)
    return (size < 1e-4) & (size != 0.0) | (size >= 1e16)


def _frame_line(frame: FrameRecord) -> list:
    """The bytes json.dumps prints for a frame's line, newline included, as parts to write.

    One orjson call prints the line, its feature rows as row views of one (n, 2 + D) array
    of coordinates and features and its bits as the frame's intp arrays. orjson prints +-0
    and every float with 1e-4 <= |x| < 1e16 as repr does, and other floats differently
    (1e-05 as 0.00001, 1e+16 as 1e16). Each of those goes in as NaN, which orjson prints as
    null, and each null is then replaced, in line order, by repr of the value. No key or
    number of the line holds the letter l, so each l found is the third letter of a null.
    """
    # orjson prints only C-contiguous arrays, and hstack keeps the Fortran order of its inputs
    block = np.ascontiguousarray(np.hstack((frame.coordinates, frame.features)))
    odd = _misprinted(block)
    values = block[odd].tolist()
    block[odd] = np.nan
    t = frame.timestamp
    if _misprinted(np.float64(t)):
        values.insert(0, t)
        t = np.nan
    dets = [{"x": x, "y": y, "f": f} if g is None else {"x": x, "y": y, "f": f, "id": g}
            for (x, y), f, g in zip(block[:, :2].tolist(), block[:, 2:], frame.gt_ids)]
    obj = {"frame": frame.frame_index, "t": t, "det": dets, "in": frame.inflow,
           "out": frame.outflow}
    line = orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)
    parts, start, view = [], 0, memoryview(line)
    for value in values:
        at = line.find(b"l", start) - 2
        parts += (view[start:at], repr(value).encode())
        start = at + 4
    parts.append(view[start:])
    return parts


def write_stream(stream: DetectionStream, path) -> None:
    """Write a stream to a JSON Lines file (header line plus one line per frame).

    Each line holds the bytes json.dumps prints: the header's by repr of its numbers, and
    each frame's by _frame_line, one orjson call with its misprinted floats spliced back.
    """
    with open(path, "wb") as fh:
        fh.write(f'{{"schema":{SCHEMA_VERSION},"dim":{stream.feature_dim or 0},'
                 f'"delta":{stream.delta!r}}}\n'.encode())
        for frame in stream.frames:
            fh.writelines(_frame_line(frame))


def _fail(path, lineno: int, msg: str):
    raise StreamFormatError(f"{path}:{lineno}: {msg}")


def _ascii(line: str, path, lineno: int) -> str:
    """line if it is all ASCII; else a format error naming its first other byte.

    parse_stream reads with errors="surrogateescape", which keeps byte b past ASCII as
    the code point 0xdc00 + b.
    """
    if not line.isascii():
        byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
        _fail(path, lineno, f"non-ASCII byte {byte:#04x}")
    return line


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


def _decode(line: str):
    """line decoded by orjson, or by json if orjson refuses it."""
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError:
        return json.loads(line)


def parse_stream(path) -> DetectionStream:
    """Parse a stream file written by write_stream, validating as it goes.

    Errors carry the path and 1-based line number of the offending line; a byte past ASCII,
    which write_stream never writes, is one. The file is read line by line, and a line is
    split again where str.splitlines also splits (form feed, vertical tab, file, group or
    record separator), so the numbers are those of the whole text.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = enumerate((part for raw in fh for part in (
            raw.splitlines() if any(c in raw for c in "\v\f\x1c\x1d\x1e") else [raw])), start=1)
        lineno, header_line = next(lines, (1, None))
        if header_line is None:
            _fail(path, 1, "empty file, expected a header line")
        try:
            header = _decode(_ascii(header_line, path, 1))
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
                obj = _decode(_ascii(line, path, lineno))
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
