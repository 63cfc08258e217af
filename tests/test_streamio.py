"""Serialization tests: exact round trips and line-numbered failures."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vicount import (
    DetectionStream,
    FrameRecord,
    SimConfig,
    StreamFormatError,
    generate_scene,
    parse_stream,
    write_stream,
)
from vicount.cli import main


def _roundtrip(stream, tmp_path):
    path = tmp_path / "stream.jsonl"
    write_stream(stream, path)
    return parse_stream(path)


class TestRoundTrip:
    def test_noiseless_scene(self, tmp_path):
        stream = generate_scene(SimConfig(num_identities=8, num_frames=6, seed=1))
        assert _roundtrip(stream, tmp_path) == stream

    def test_noisy_scene(self, tmp_path):
        stream = generate_scene(
            SimConfig(num_identities=5, num_frames=7, feature_noise_sigma=0.15, seed=2)
        )
        assert _roundtrip(stream, tmp_path) == stream

    def test_without_ids(self, tmp_path):
        frame = FrameRecord(1, 0.0, [(12.5, 7.25)], [np.array([3.0, 4.0]) / 5.0], (1,), (1,))
        stream = DetectionStream((frame,), 2.5)
        back = _roundtrip(stream, tmp_path)
        assert back == stream
        assert back.frames[0].gt_ids == (None,)

    def test_empty_stream(self, tmp_path):
        stream = DetectionStream((), 1.0)
        back = _roundtrip(stream, tmp_path)
        assert back == stream
        assert back.feature_dim is None

    def test_empty_frames(self, tmp_path):
        frames = tuple(FrameRecord(k + 1, k * 0.5, (), (), (), ()) for k in range(3))
        stream = DetectionStream(frames, 0.5)
        assert _roundtrip(stream, tmp_path) == stream

    def test_awkward_floats_survive(self, tmp_path):
        # coordinates and timestamps that do not print exactly in decimal
        frame = FrameRecord(1, 0.0, [(0.1 + 0.2, 1.0 / 3.0)], [[1.0, 0.0]], (1,), (0,))
        frame2 = FrameRecord(2, 0.1, (), (), (), ())
        stream = DetectionStream((frame, frame2), 0.1)
        back = _roundtrip(stream, tmp_path)
        assert back.frames[0].coordinates.tolist() == [[0.1 + 0.2, 1.0 / 3.0]]
        assert back == stream

    def test_write_is_deterministic(self, tmp_path):
        stream = generate_scene(
            SimConfig(num_identities=6, num_frames=5, feature_noise_sigma=0.1, seed=3)
        )
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_stream(stream, p1)
        write_stream(stream, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_double_roundtrip_is_stable(self, tmp_path):
        stream = generate_scene(
            SimConfig(num_identities=4, num_frames=4, feature_noise_sigma=0.2, seed=4)
        )
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_stream(stream, p1)
        once = parse_stream(p1)
        write_stream(once, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _write_lines(tmp_path, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


HEADER = '{"schema":1,"dim":2,"delta":1.0}'


class TestParseErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="ascii")
        with pytest.raises(StreamFormatError, match=r":1: empty file"):
            parse_stream(path)

    def test_malformed_header(self, tmp_path):
        path = _write_lines(tmp_path, ["{not json"])
        with pytest.raises(StreamFormatError, match=r":1: malformed header"):
            parse_stream(path)

    def test_wrong_schema(self, tmp_path):
        path = _write_lines(tmp_path, ['{"schema":99,"dim":2,"delta":1.0}'])
        with pytest.raises(StreamFormatError, match="unknown schema version 99"):
            parse_stream(path)

    def test_missing_header_key(self, tmp_path):
        path = _write_lines(tmp_path, ['{"schema":1,"dim":2}'])
        with pytest.raises(StreamFormatError, match="missing key 'delta'"):
            parse_stream(path)

    def test_bad_delta(self, tmp_path):
        path = _write_lines(tmp_path, ['{"schema":1,"dim":2,"delta":0}'])
        with pytest.raises(StreamFormatError, match="delta must be a positive number"):
            parse_stream(path)

    def test_malformed_frame_line_number(self, tmp_path):
        path = _write_lines(tmp_path, [HEADER, "{broken"])
        with pytest.raises(StreamFormatError, match=r":2: malformed frame"):
            parse_stream(path)

    def test_blank_line_rejected(self, tmp_path):
        path = _write_lines(
            tmp_path,
            [HEADER, '{"frame":1,"t":0.0,"det":[],"in":[],"out":[]}', ""],
        )
        with pytest.raises(StreamFormatError, match=r":3: blank line"):
            parse_stream(path)

    def test_feature_dim_mismatch(self, tmp_path):
        path = _write_lines(
            tmp_path,
            [
                HEADER,
                '{"frame":1,"t":0.0,"det":[{"x":0,"y":0,"f":[1.0,0.0,0.0],"id":0}],'
                '"in":[1],"out":[1]}',
            ],
        )
        with pytest.raises(StreamFormatError, match="feature length 3 != header dim 2"):
            parse_stream(path)

    def test_nested_feature_rejected(self, tmp_path):
        # one entry, as the header's dim says, but that entry is a 2-vector
        path = _write_lines(
            tmp_path,
            [
                '{"schema":1,"dim":1,"delta":1.0}',
                '{"frame":1,"t":0.0,"det":[{"x":0,"y":0,"f":[[0.6,0.8]]}],'
                '"in":[1],"out":[1]}',
            ],
        )
        with pytest.raises(StreamFormatError, match=r":2: det\[0\]: feature must be a flat list"):
            parse_stream(path)

    def test_bad_inflow_bits(self, tmp_path):
        path = _write_lines(
            tmp_path,
            [
                HEADER,
                '{"frame":1,"t":0.0,"det":[{"x":0,"y":0,"f":[1.0,0.0]}],'
                '"in":[2],"out":[1]}',
            ],
        )
        with pytest.raises(StreamFormatError, match=r":2:"):
            parse_stream(path)

    def test_missing_frame_key(self, tmp_path):
        path = _write_lines(
            tmp_path, [HEADER, '{"frame":1,"t":0.0,"det":[],"in":[]}']
        )
        with pytest.raises(StreamFormatError, match="missing key 'out'"):
            parse_stream(path)

    def test_degenerate_feature_reported_with_line(self, tmp_path):
        path = _write_lines(
            tmp_path,
            [
                HEADER,
                '{"frame":1,"t":0.0,"det":[{"x":0,"y":0,"f":[0.0,0.0]}],'
                '"in":[1],"out":[1]}',
            ],
        )
        with pytest.raises(StreamFormatError, match=r":2: det\[0\]"):
            parse_stream(path)

    @pytest.mark.parametrize("gt_id", ["3.2", "true", '"3"'])
    def test_non_integral_id_rejected(self, tmp_path, gt_id):
        path = _write_lines(
            tmp_path,
            [
                HEADER,
                '{"frame":1,"t":0.0,"det":[{"x":0,"y":0,"f":[1.0,0.0],"id":' + gt_id + '}],'
                '"in":[1],"out":[1]}',
            ],
        )
        with pytest.raises(StreamFormatError, match=r":2: det\[0\]: gt_id must be an integer"):
            parse_stream(path)

    @pytest.mark.parametrize("frame", ["1.7", "true"])
    def test_non_integral_frame_rejected(self, tmp_path, frame):
        path = _write_lines(
            tmp_path, [HEADER, '{"frame":' + frame + ',"t":0.0,"det":[],"in":[],"out":[]}']
        )
        with pytest.raises(StreamFormatError, match=r":2: frame_index must be an integer"):
            parse_stream(path)

    @pytest.mark.parametrize("header, message", [
        ('{"schema":true,"dim":2,"delta":1.0}', "unknown schema version True"),
        ('{"schema":1.0,"dim":2,"delta":1.0}', "unknown schema version 1.0"),
        ('{"schema":1,"dim":true,"delta":1.0}', "dim must be a non-negative integer"),
        ('{"schema":1,"dim":2,"delta":true}', "delta must be a positive number, got True"),
    ])
    def test_non_integer_header_fields_rejected(self, tmp_path, header, message):
        path = _write_lines(tmp_path, [header])
        with pytest.raises(StreamFormatError, match=":1: " + message):
            parse_stream(path)

    def test_timestamp_spacing_enforced(self, tmp_path):
        path = _write_lines(
            tmp_path,
            [
                HEADER,
                '{"frame":1,"t":0.0,"det":[],"in":[],"out":[]}',
                '{"frame":2,"t":3.0,"det":[],"in":[],"out":[]}',
            ],
        )
        with pytest.raises(StreamFormatError):
            parse_stream(path)


    @pytest.mark.parametrize("frame, message", [
        ('{"frame":1,"t":NaN,"det":[],"in":[],"out":[]}', "timestamp must be finite, got nan"),
        ('{"frame":1,"t":1e400,"det":[],"in":[],"out":[]}', "timestamp must be finite, got inf"),
        ('{"frame":1,"t":0.0,"det":[{"x":NaN,"y":0,"f":[1.0,0.0]}],"in":[1],"out":[1]}',
         r"det\[0\]: non-finite coordinate \(nan, 0.0\)"),
        ('{"frame":1,"t":0.0,"det":[{"x":0,"y":-Infinity,"f":[1.0,0.0]}],"in":[1],"out":[1]}',
         r"det\[0\]: non-finite coordinate \(0.0, -inf\)"),
    ])
    def test_non_finite_frame_values_rejected(self, tmp_path, frame, message):
        path = _write_lines(tmp_path, [HEADER, frame])
        with pytest.raises(StreamFormatError, match=":2: " + message):
            parse_stream(path)

    @pytest.mark.parametrize("delta", ["Infinity", "1" + "0" * 400])
    def test_non_finite_delta_rejected(self, tmp_path, delta):
        path = _write_lines(tmp_path, ['{"schema":1,"dim":2,"delta":' + delta + '}',
                                       '{"frame":1,"t":0.0,"det":[],"in":[],"out":[]}',
                                       '{"frame":2,"t":5.0,"det":[],"in":[],"out":[]}'])
        with pytest.raises(StreamFormatError, match=":1: delta must be finite"):
            parse_stream(path)


def _refuse_constant(name):
    raise AssertionError(f"the writer emitted the non-standard JSON constant {name}")


class TestWrittenLines:
    def test_every_line_is_standard_json(self, tmp_path):
        # extreme but finite values, and both signs of zero
        frame = FrameRecord(1, -0.0, [(1e308, -5e-324), (-0.0, 2.2250738585072014e-308)],
                            [[1.0, 5e-324], [-0.0, -1.0]], (1, 1), (0, 1), [0, None])
        edge = DetectionStream((frame, FrameRecord(2, 1.7976931348623157e308, (), (), (), ())),
                               1.7976931348623157e308)
        scenes = [
            generate_scene(SimConfig(num_identities=6, num_frames=5, reentry_probability=0.5,
                                     seed=5)),
            generate_scene(SimConfig(num_identities=6, num_frames=5, feature_noise_sigma=0.1,
                                     seed=5)),
            edge,
        ]
        for stream in scenes:
            path = tmp_path / "stream.jsonl"
            write_stream(stream, path)
            for line in path.read_text(encoding="ascii").splitlines():
                json.loads(line, parse_constant=_refuse_constant)
            assert parse_stream(path) == stream


class TestHandWrittenFile:
    def test_minimal_file_parses(self, tmp_path):
        path = _write_lines(
            tmp_path,
            [
                HEADER,
                '{"frame":1,"t":0.0,"det":[{"x":1.5,"y":2.5,"f":[0.6,0.8],"id":4}],'
                '"in":[1],"out":[1]}',
                '{"frame":2,"t":1.0,"det":[{"x":3.0,"y":4.0,"f":[1.0,0.0]}],'
                '"in":[1],"out":[1]}',
            ],
        )
        stream = parse_stream(path)
        assert len(stream.frames) == 2
        first = stream.frames[0]
        assert first.gt_ids == (4,)
        assert first.coordinates.tolist() == [[1.5, 2.5]]
        np.testing.assert_allclose(first.features, [[0.6, 0.8]])
        assert stream.frames[1].gt_ids == (None,)
        assert stream.feature_dim == 2


# ---- wrong kinds of scalar --------------------------------------------------
# A valid two-frame stream as JSON values, one line per entry, and the place
# of every scalar in it: (line index, path of keys, whether the field is real).

_VALID = [
    {"schema": 1, "dim": 2, "delta": 1.0},
    {"frame": 1, "t": 0.0, "det": [{"x": 1.5, "y": 2.0, "f": [0.6, 0.8], "id": 0},
                                   {"x": 3.0, "y": 4.5, "f": [1.0, 0.0], "id": 1}],
     "in": [1, 1], "out": [0, 1]},
    {"frame": 2, "t": 1.0, "det": [{"x": 1.0, "y": 2.5, "f": [0.6, 0.8], "id": 0}],
     "in": [0], "out": [1]},
]
_SCALARS = [(0, ("schema",), False), (0, ("dim",), False), (0, ("delta",), True)] + [
    place
    for line, frame in enumerate(_VALID[1:], start=1)
    for place in [(line, ("frame",), False), (line, ("t",), True)]
    + [(line, (key, j), False) for key in ("in", "out") for j in range(len(frame["in"]))]
    + [(line, ("det", j, key), real) for j in range(len(frame["det"]))
       for key, real in (("x", True), ("y", True), ("id", False))]
    + [(line, ("det", j, "f", i), True) for j in range(len(frame["det"])) for i in range(2)]
]
# JSON text spliced into the line in place of a marker, so that NaN, 1e400 and
# a 400-digit integer reach the parser exactly as written.
_WRONG = ["true", "false", '"0.5"', "null", "[]", "{}", "NaN", "Infinity", "1e400"]
_HUGE = "1" + "0" * 399


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_SCALARS), st.sampled_from(_WRONG + [_HUGE]))
def test_a_scalar_of_the_wrong_kind_is_a_format_error(place, wrong):
    line, keys, real = place
    # a huge integer is a valid integer, and "id": null means no id
    assume(real or wrong != _HUGE)
    assume(keys[-1] != "id" or wrong != "null")
    values = json.loads(json.dumps(_VALID))
    target = values[line]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = "@WRONG@"
    lines = [json.dumps(v, separators=(",", ":")) for v in values]
    lines[line] = lines[line].replace('"@WRONG@"', wrong)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "stream.jsonl")
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        for argv in (["count"], ["loss"], ["pseudo", "--out", str(Path(directory, "p.jsonl"))]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv + ["--in", str(path)])
            assert rc == 2, (argv[0], lines[line], out.getvalue())
            assert f"{path}:{line + 1}: " in err.getvalue(), err.getvalue()
            assert "Traceback" not in err.getvalue()


def test_the_unaltered_stream_is_valid(tmp_path, capsys):
    path = tmp_path / "stream.jsonl"
    path.write_text("".join(json.dumps(v) + "\n" for v in _VALID), encoding="ascii")
    for argv in (["count"], ["loss"], ["pseudo"]):
        assert main(argv + ["--in", str(path)]) == 0, capsys.readouterr().err
