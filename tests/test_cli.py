"""End-to-end command line tests driven through main()."""

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import types
import warnings
import weakref
from pathlib import Path

import pytest

import vicount.cli
import vicount.loss
import vicount.stream
from vicount import Detection, DetectionStream, FrameRecord, TemplateEntry, write_stream
from vicount import LossConfig, McpConfig, SimConfig, parse_stream, pseudo_trajectories
from vicount.cli import build_parser, main
from vicount.stream import _BuiltOnAccess


def _simulate(tmp_path, name="scene.jsonl", seed=0, identities=8, frames=6, extra=()):
    out = tmp_path / name
    rc = main(
        [
            "simulate",
            "--identities", str(identities),
            "--frames", str(frames),
            "--max-base-sim", "0.3",
            "--seed", str(seed),
            "--out", str(out),
        ]
        + list(extra)
    )
    assert rc == 0
    return out


class TestPipeline:
    def test_simulate_count_eval(self, tmp_path, capsys):
        stream_path = _simulate(tmp_path)
        report_path = tmp_path / "report.json"
        rc = main(
            ["count", "--in", str(stream_path), "--report", str(report_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "total " in out
        report = json.loads(report_path.read_text())
        assert report["total"] == report["gt_total"]
        assert report["frames"] == 6
        assert len(report["per_step"]) == 6

        rc = main(["eval", str(report_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "MAE 0" in lines
        assert "MSE 0" in lines
        assert "WRAE 0%" in lines

    def test_eval_with_gt_override(self, tmp_path, capsys):
        stream_path = _simulate(tmp_path)
        report_path = tmp_path / "report.json"
        main(["count", "--in", str(stream_path), "--video-id", "v1",
              "--report", str(report_path)])
        capsys.readouterr()
        total = json.loads(report_path.read_text())["total"]
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(json.dumps({"v1": total + 2}))
        rc = main(["eval", str(report_path), "--gt", str(gt_path)])
        assert rc == 0
        assert "MAE 2" in capsys.readouterr().out.splitlines()

    def test_eval_wrae_weights_by_frame_count(self, tmp_path, capsys):
        # 10 frames at delta 9 (90 s) and 30 frames at delta 1 (30 s): frame
        # weights 0.25/0.75 give 8.75%, duration weights 0.75/0.25 would give 16.25%
        paths = []
        for video, frames, delta, gt, total in (("a", 10, 9.0, 10, 12), ("b", 30, 1.0, 20, 19)):
            path = tmp_path / f"{video}.json"
            path.write_text(json.dumps({"video": video, "frames": frames, "delta": delta,
                                        "total": total, "gt_total": gt, "per_step": []}))
            paths.append(str(path))
        assert main(["eval", *paths]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == ["a\t10\t10\t12", "b\t30\t20\t19"]
        assert "WRAE 8.75%" in lines

    def test_loss_reports_pairs_and_total(self, tmp_path, capsys):
        stream_path = _simulate(tmp_path, frames=4)
        capsys.readouterr()
        rc = main(["loss", "--in", str(stream_path)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # three pairs plus the total
        assert lines[0].startswith("pair 1->2:")
        assert "converged=True" in lines[0]
        assert lines[-1].startswith("total ")

    def test_loss_holds_at_most_one_earlier_pair(self, tmp_path, capsys, monkeypatch):
        stream_path = _simulate(tmp_path, frames=5, extra=("--noise-sigma", "0.05"))
        built = []
        alive_at_build = []

        def tracked(partition):
            def wrapper(frame_i, frame_j):
                alive_at_build.append(sum(ref() is not None for ref in built))
                blocks = partition(frame_i, frame_j)
                built.append(weakref.ref(blocks))
                return blocks
            return wrapper

        # both names, so the check holds wherever the command looks the partition up
        for module in (vicount.loss, vicount.stream):
            monkeypatch.setattr(module, "partition_similarity",
                                tracked(module.partition_similarity))
        assert main(["loss", "--in", str(stream_path)]) == 0
        assert len(built) == 4
        assert max(alive_at_build) <= 1, alive_at_build

    def test_pseudo_stdout_and_file_agree(self, tmp_path, capsys):
        stream_path = _simulate(tmp_path, frames=4)
        capsys.readouterr()
        rc = main(["pseudo", "--in", str(stream_path)])
        assert rc == 0
        stdout_lines = capsys.readouterr().out.strip().splitlines()
        out_path = tmp_path / "pseudo.jsonl"
        rc = main(["pseudo", "--in", str(stream_path), "--out", str(out_path)])
        assert rc == 0
        file_lines = out_path.read_text().strip().splitlines()
        assert stdout_lines == file_lines
        parsed = [json.loads(line) for line in file_lines]
        assert any("pair" in obj for obj in parsed)
        assert any("traj" in obj for obj in parsed)

    def test_pseudo_file_with_frame_indices_at_the_int64_edge_is_what_json_writes(self, tmp_path):
        # frame indices up to 2**63 - 1, the largest a frame admits, are printed by orjson
        stream = parse_stream(_simulate(tmp_path, frames=3))
        stream = DetectionStream(tuple(
            FrameRecord(2**63 - 4 + f.frame_index, f.timestamp, f.coordinates, f.features,
                        f.inflow, f.outflow, f.gt_ids) for f in stream.frames), stream.delta)
        assert stream.frames[-1].frame_index == 2**63 - 1
        stream_path, out_path = tmp_path / "past.jsonl", tmp_path / "pseudo.jsonl"
        write_stream(stream, stream_path)
        assert main(["pseudo", "--in", str(stream_path), "--out", str(out_path)]) == 0
        result = pseudo_trajectories(stream, LossConfig())
        records = [{"pair": [pm.frame_prev, pm.frame_curr], "matches": pm.matches}
                   for pm in result.pairs]
        records += [{"traj": k, "steps": t} for k, t in enumerate(result.trajectories)]
        assert any(pm.matches for pm in result.pairs)
        assert out_path.read_text() == "".join(json.dumps(r, separators=(",", ":")) + "\n"
                                               for r in records)

    def test_gradcheck_passes(self, capsys):
        rc = main(["gradcheck", "--trials", "3", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("checked 3 blocks")

    def test_gradcheck_on_stream(self, tmp_path, capsys):
        stream_path = _simulate(tmp_path, frames=4)
        rc = main(["gradcheck", "--in", str(stream_path)])
        assert rc == 0
        assert "max relative error" in capsys.readouterr().out

    def test_count_report_without_ids_has_null_gt_total(self, tmp_path, capsys):
        stream_path = tmp_path / "anonymous.jsonl"
        frame = FrameRecord(1, 0.0, [(0.0, 0.0)], [[1.0, 0.0]], (1,), (1,))
        write_stream(DetectionStream((frame,), 1.0), stream_path)
        report_path = tmp_path / "report.json"
        rc = main(["count", "--in", str(stream_path), "--report", str(report_path)])
        assert rc == 0
        assert '"total":1,"gt_total":null,' in report_path.read_text()


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        a = _simulate(tmp_path, "a.jsonl", seed=5, extra=("--noise-sigma", "0.1"))
        b = _simulate(tmp_path, "b.jsonl", seed=5, extra=("--noise-sigma", "0.1"))
        assert a.read_bytes() == b.read_bytes()

    def test_count_report_byte_identical(self, tmp_path, capsys):
        stream_path = _simulate(tmp_path)
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        main(["count", "--in", str(stream_path), "--video-id", "v", "--report", str(r1)])
        main(["count", "--in", str(stream_path), "--video-id", "v", "--report", str(r2)])
        capsys.readouterr()
        assert r1.read_bytes() == r2.read_bytes()


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])  # missing required --out
        assert exc.value.code == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        rc = main(["count", "--in", str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_stream_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        rc = main(["loss", "--in", str(bad)])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_numerical_error_is_three(self, capsys):
        rc = main(["gradcheck", "--trials", "2", "--fail-above", "0"])
        assert rc == 3
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["loss", "pseudo"])
    def test_unconverged_solve_is_three(self, tmp_path, capsys, command):
        stream_path = _simulate(tmp_path, frames=4)
        capsys.readouterr()
        rc = main([command, "--in", str(stream_path), "--iters", "1", "--tol", "1e-14"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical error" in err
        assert "did not converge in 1 iterations" in err

    @pytest.mark.parametrize("command", ["loss", "pseudo"])
    def test_overflowing_kernel_is_three(self, tmp_path, capsys, command):
        # below about 1e-308, -cost / reg overflows: the solve refuses it before any iteration
        stream_path = _simulate(tmp_path, frames=4)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--in", str(stream_path), "--reg", "5e-324"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "vicount: numerical error: reg 5e-324 is too small: -cost / reg overflows\n"
        )

    @pytest.mark.parametrize("flag, value", [
        ("--delta", "inf"),
        ("--noise-sigma", "nan"),
        ("--walk-sigma", "inf"),
        ("--scene-width", "inf"),
        ("--scene-height", "nan"),
    ])
    def test_non_finite_simulate_value_is_two(self, tmp_path, capsys, flag, value):
        out = tmp_path / "scene.jsonl"
        rc = main(["simulate", "--identities", "3", "--frames", "3", flag, value,
                   "--out", str(out)])
        assert rc == 2
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("delta, t2, x, where", [
        ("Infinity", "5.0", "0.0", ":1: delta must be finite"),
        ("1.0", "NaN", "0.0", ":3: timestamp must be finite"),
        ("1.0", "1e400", "0.0", ":3: timestamp must be finite"),
        ("1.0", "1.0", "NaN", ":2: det[0]: non-finite coordinate"),
    ])
    def test_non_finite_value_is_two_with_line(self, tmp_path, capsys, delta, t2, x, where):
        path = tmp_path / "nonfinite.jsonl"
        path.write_text(
            '{"schema":1,"dim":2,"delta":' + delta + '}\n'
            '{"frame":1,"t":0.0,"det":[{"x":' + x + ',"y":0,"f":[1.0,0.0]}],"in":[1],"out":[0]}\n'
            '{"frame":2,"t":' + t2 + ',"det":[{"x":0,"y":0,"f":[1.0,0.0]}],"in":[0],"out":[1]}\n'
        )
        rc = main(["count", "--in", str(path)])
        assert rc == 2
        assert f"{path}{where}" in capsys.readouterr().err

    def test_truth_value_delta_is_two_with_line(self, tmp_path, capsys):
        path = tmp_path / "delta.jsonl"
        path.write_text(
            '{"schema":1,"dim":2,"delta":true}\n'
            '{"frame":1,"t":0.0,"det":[{"x":0,"y":0,"f":[1.0,0.0]}],"in":[1],"out":[1]}\n'
        )
        rc = main(["count", "--in", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:1: delta must be a positive number, got True" in captured.err

    def test_non_integral_id_is_two_with_line(self, tmp_path, capsys):
        path = tmp_path / "ids.jsonl"
        path.write_text(
            '{"schema":1,"dim":2,"delta":1.0}\n'
            '{"frame":1,"t":0.0,"det":[{"x":0,"y":0,"f":[1.0,0.0],"id":3.2},'
            '{"x":0,"y":0,"f":[0.0,1.0],"id":3.9}],"in":[1,1],"out":[1,1]}\n'
        )
        rc = main(["count", "--in", str(path)])
        assert rc == 2
        assert f"{path}:2: det[0]: gt_id must be an integer, got 3.2" in capsys.readouterr().err

    @pytest.mark.parametrize("bits, message", [
        ('"in":[true,1],"out":[1,1]', "inflow[0] must be an integer 0 or 1, got True"),
        ('"in":[1,1],"out":[1,1.0]', "outflow[1] must be an integer 0 or 1, got 1.0"),
        ('"in":[1,true],"out":[1,1]', "inflow[1] must be an integer 0 or 1, got True"),
    ])
    def test_non_integer_bit_is_two_with_line(self, tmp_path, capsys, bits, message):
        path = tmp_path / "bits.jsonl"
        path.write_text(
            '{"schema":1,"dim":2,"delta":1.0}\n'
            '{"frame":1,"t":0.0,"det":[{"x":0,"y":0,"f":[1.0,0.0]},'
            '{"x":0,"y":0,"f":[0.0,1.0]}],' + bits + '}\n'
        )
        rc = main(["count", "--in", str(path)])
        assert rc == 2
        assert f"{path}:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["loss", "pseudo"])
    def test_underflowing_contrast_is_three(self, tmp_path, capsys, command):
        # at this temperature a whole shared row and column of the first
        # pair underflow under the global shift
        stream_path = tmp_path / "noisy.jsonl"
        assert main(["simulate", "--identities", "30", "--frames", "3",
                     "--noise-sigma", "0.1", "--seed", "1", "--out", str(stream_path)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--in", str(stream_path), "--gamma-scale", "3000"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(
            "vicount: numerical error: contrastive similarity underflows at temperature 3000"
        )

    def test_non_integral_gt_count_is_two(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"video": "v", "frames": 3, "total": 2}))
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"v": 2.7}))
        rc = main(["eval", str(report), "--gt", str(gt)])
        assert rc == 2
        assert "gt_count must be an integer, got 2.7" in capsys.readouterr().err

    @pytest.mark.parametrize("from_gt_file", [True, False])
    def test_bad_gt_count_names_the_file_it_came_from(self, tmp_path, capsys, from_gt_file):
        report = tmp_path / "r.json"
        gt = tmp_path / "gt.json"
        report.write_text(json.dumps({"video": "x", "frames": 3, "total": 2,
                                      "gt_total": 3 if from_gt_file else 2.7}))
        gt.write_text(json.dumps({"x": 2.7} if from_gt_file else {}))
        rc = main(["eval", str(report), "--gt", str(gt)])
        assert rc == 2
        named = f"{gt}: video 'x'" if from_gt_file else report
        assert capsys.readouterr().err == (
            f"vicount: data error: {named}: gt_count must be an integer, got 2.7\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--step", "0", "--step must be a positive number, got 0.0"),
        ("--step", "nan", "--step must be finite, got nan"),
        ("--fail-above", "nan", "--fail-above must be finite, got nan"),
        ("--fail-above", "-1", "--fail-above must be in [0, inf), got -1.0"),
        ("--max-rows", "0", "--max-rows must be at least 1, got 0"),
        ("--max-cols", "0", "--max-cols must be at least 1, got 0"),
        ("--trials", "-3", "--trials must be at least 1, got -3"),
        ("--seed", "-1", "--seed must be at least 0, got -1"),
    ])
    def test_bad_gradcheck_flag_is_two(self, capsys, flag, value, message):
        rc = main(["gradcheck", "--trials", "2", flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"vicount: data error: {message}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("frames", "12", "length must be a positive number, got '12'"),
        ("total", True, "pred_count must be a number, got True"),
    ])
    def test_non_number_report_field_is_two(self, tmp_path, capsys, field, value, message):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"video": "v", "frames": 12, "total": 3, "gt_total": 3,
                                      field: value}))
        rc = main(["eval", str(report)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_bad_report_field_names_the_report(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"video": "a", "frames": 12, "total": 3, "gt_total": 3}))
        bad.write_text(json.dumps({"video": "b", "frames": "12", "total": 3, "gt_total": 3}))
        rc = main(["eval", str(good), str(bad)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"vicount: data error: {bad}: length must be a positive number, got '12'\n"
        )

    @pytest.mark.parametrize("report, gt, message", [
        ({"video": "v", "frames": 3, "total": 2}, [2],
         "{gt}: ground-truth file must be a JSON object"),
        ({"video": "v", "frames": 3}, None, "{report}: report missing key 'total'"),
        ({"video": "v", "frames": 3, "total": 2, "gt_total": None}, None,
         "{report}: no ground-truth count for video 'v'"),
        (5, None, "{report}: report must be a JSON object"),
        (None, None, "{report}: report must be a JSON object"),
        ("video frames total", None, "{report}: report must be a JSON object"),
        ([], None, "{report}: report must be a JSON object"),
        ({"video": [1, 2], "frames": 3, "total": 2, "gt_total": 2}, None,
         "{report}: video must be a string, got [1, 2]"),
        ({"video": 5, "frames": 3, "total": 2, "gt_total": 2}, None,
         "{report}: video must be a string, got 5"),
        ({"video": None, "frames": 3, "total": 2, "gt_total": 2}, None,
         "{report}: video must be a string, got None"),
    ])
    def test_bad_eval_input_is_two(self, tmp_path, capsys, report, gt, message):
        paths = {"report": tmp_path / "r.json", "gt": tmp_path / "gt.json"}
        paths["report"].write_text(json.dumps(report))
        argv = ["eval", str(paths["report"])]
        if gt is not None:
            paths["gt"].write_text(json.dumps(gt))
            argv += ["--gt", str(paths["gt"])]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"vicount: data error: {message.format(**paths)}\n"

    def test_unwritable_count_report_is_two_with_empty_stdout(self, tmp_path, capsys):
        stream_path = _simulate(tmp_path)
        capsys.readouterr()
        report_path = tmp_path / "missing" / "r.json"
        assert main(["count", "--in", str(stream_path), "--report", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("vicount: data error: ")

    def test_gradcheck_on_stream_without_shared_pair_is_two(self, tmp_path, capsys):
        stream_path = _simulate(tmp_path, frames=1)
        assert main(["gradcheck", "--in", str(stream_path)]) == 2
        assert capsys.readouterr().err == (
            "vicount: data error: stream has no adjacent pair with shared individuals\n")

    def test_invalid_config_is_two(self, tmp_path, capsys):
        stream_path = _simulate(tmp_path)
        rc = main(["count", "--in", str(stream_path), "--zeta", "-1"])
        assert rc == 2
        assert "zeta" in capsys.readouterr().err

    def test_negative_simulate_seed_is_two_and_named(self, tmp_path, capsys):
        out = tmp_path / "scene.jsonl"
        assert main(["simulate", "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "vicount: data error: seed must be at least 0, got -1\n"


class TestGoldenTransport:
    """loss stdout and pseudo files pinned by sha256, so any change to a solved plan shows."""

    @pytest.mark.parametrize("seed, loss_digest, pseudo_digest", [
        (0, "af82c175f8868349f2945778f302476dd8b1cbef2d9f8c965de70d4dcc2c9b9b",
         "ab4a712ffe801ced8c757831a825cf10b317e53631521067a6589a4c0c9e3b8d"),
        (1, "3aad97e0c2094c4499d80651b8ed682ac7bb64f3f2606ef621ab9e8ae568bdb8",
         "7ea6b33ea410bee3bba0a235d300b9587031c256c638e8cbfcc5bfa02521bdc5"),
    ])
    def test_noisy_stream(self, tmp_path, capsys, seed, loss_digest, pseudo_digest):
        stream_path = tmp_path / "noisy.jsonl"
        pseudo_path = tmp_path / "pseudo.jsonl"
        assert main(["simulate", "--identities", "300", "--frames", "5",
                     "--noise-sigma", "0.1", "--seed", str(seed), "--out", str(stream_path)]) == 0
        capsys.readouterr()
        assert main(["loss", "--in", str(stream_path)]) == 0
        loss_out = capsys.readouterr().out
        assert hashlib.sha256(loss_out.encode()).hexdigest() == loss_digest
        assert main(["pseudo", "--in", str(stream_path), "--out", str(pseudo_path)]) == 0
        assert hashlib.sha256(pseudo_path.read_bytes()).hexdigest() == pseudo_digest


class TestNoViews:
    def test_no_subcommand_builds_a_view(self, tmp_path, capsys, monkeypatch):
        # The commands read frames and memory as arrays; the row views are
        # only for library callers.
        def refuse(*args, **kwargs):
            raise AssertionError("a command built a row view")

        monkeypatch.setattr(Detection, "__init__", refuse)
        monkeypatch.setattr(TemplateEntry, "__init__", refuse)
        monkeypatch.setattr(_BuiltOnAccess, "__getitem__", refuse)
        stream = _simulate(tmp_path, frames=4, extra=("--noise-sigma", "0.05"))
        report = tmp_path / "report.json"
        for argv in (
            ["count", "--in", str(stream), "--report", str(report)],
            ["eval", str(report)],
            ["loss", "--in", str(stream)],
            ["gradcheck", "--in", str(stream)],
            ["pseudo", "--in", str(stream), "--out", str(tmp_path / "pseudo.jsonl")],
        ):
            assert main(argv) == 0, capsys.readouterr().err


class _Stop(Exception):
    """Raised by a stubbed consumer once it has been handed the command's config."""


_LOSS_FLAGS = [("--gamma-scale", "temperature", "5", 5.0),
               ("--theta", "hinge_threshold", "0.3", 0.3),
               ("--reg", "sinkhorn_reg", "0.1", 0.1),
               ("--iters", "sinkhorn_max_iters", "100", 100),
               ("--tol", "sinkhorn_tol", "1e-8", 1e-8)]
# command -> (its required flags, the vicount.cli name it hands its config to,
#             the config class, and (flag, field, a non-default value typed, parsed))
_COMMANDS = {
    "simulate": (["--out", "unused.jsonl"], "generate_scene", SimConfig, [
        ("--identities", "num_identities", "7", 7),
        ("--frames", "num_frames", "4", 4),
        ("--delta", "delta", "2.5", 2.5),
        ("--dim", "feature_dim", "8", 8),
        ("--noise-sigma", "feature_noise_sigma", "0.1", 0.1),
        ("--reentry-prob", "reentry_probability", "0.25", 0.25),
        ("--walk-sigma", "walk_step_sigma", "2", 2.0),
        ("--max-base-sim", "max_base_similarity", "0.5", 0.5),
        ("--seed", "seed", "3", 3),
    ]),
    "count": (["--in", "unused.jsonl"], "count_video", McpConfig, [
        ("--zeta", "zeta", "0.5", 0.5),
        ("--ttlmax", "ttl_max", "2", 2),
        ("--memmax", "mem_max", "4", 4),
        ("--aggregator", "template_aggregator", "mean", "mean"),
    ]),
    "loss": (["--in", "unused.jsonl"], "pair_objective", LossConfig, _LOSS_FLAGS),
    "gradcheck": ([], "soft_contrastive_loss", LossConfig, _LOSS_FLAGS),
    "pseudo": (["--in", "unused.jsonl"], "pseudo_trajectories", LossConfig, _LOSS_FLAGS),
}


class TestFlagsReachConfigFields:
    @staticmethod
    def _config(monkeypatch, command, *flags):
        """The config the command hands on, with the stream reader stubbed out."""
        required, consumer, cls, _ = _COMMANDS[command]
        seen = []

        def stop(*args):
            seen.extend(a for a in args if isinstance(a, cls))
            raise _Stop

        monkeypatch.setattr(vicount.cli, "parse_stream", lambda path: None)
        monkeypatch.setattr(vicount.cli, "_adjacent_pairs", lambda stream: [(None, None, None)])
        monkeypatch.setattr(vicount.cli, consumer, stop)
        with pytest.raises(_Stop):
            main([command, *required, *flags])
        (cfg,) = seen
        return cfg

    @pytest.mark.parametrize("command, flag, field, text, value", [
        (command, *row) for command, (*_, rows) in _COMMANDS.items() for row in rows
    ])
    def test_non_default_value_reaches_its_field(self, monkeypatch, command, flag, field,
                                                 text, value):
        cls = _COMMANDS[command][2]
        assert getattr(cls(), field) != value
        cfg = self._config(monkeypatch, command, flag, text)
        assert cfg == dataclasses.replace(cls(), **{field: value})

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_required_flags_alone_give_the_default_config(self, monkeypatch, command):
        assert self._config(monkeypatch, command) == _COMMANDS[command][2]()

    def test_scene_flags_reach_scene_size(self, monkeypatch):
        cfg = self._config(monkeypatch, "simulate", "--scene-width", "640", "--scene-height", "480")
        assert cfg == SimConfig(scene_size=(640.0, 480.0))

    def test_every_config_backed_flag_is_checked(self):
        (subparsers,) = [a.choices for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        for command, (*_, cls, rows) in _COMMANDS.items():
            fields = {f.name for f in dataclasses.fields(cls)}
            backed = {flag for a in subparsers[command]._actions if a.dest in fields
                      for flag in a.option_strings}
            assert backed == {flag for flag, *_ in rows}


def _run_python(code, *args):
    """stdout of code run in a fresh interpreter that imports vicount from where these tests do."""
    path = [str(Path(vicount.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout


# Minor page faults of the second of two identical loss calls, with main's allocator
# setting left in place ("kept") or skipped ("dynamic", glibc's default thresholds).
_SECOND_LOSS_FAULTS = """
import contextlib, io, resource, sys
import vicount.cli
if sys.argv[2] == "dynamic":
    vicount.cli._keep_freed_heap = lambda: None
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert vicount.cli.main(["loss", "--in", sys.argv[1]]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""


def _no_c_library(name):
    raise OSError("no C library")


class TestProcessSetUp:
    @pytest.fixture(autouse=True)
    def _unapplied_allocator_setting(self):
        vicount.cli._keep_freed_heap.cache_clear()
        yield
        vicount.cli._keep_freed_heap.cache_clear()

    @pytest.mark.parametrize("cdll", [lambda name: types.SimpleNamespace(), _no_c_library],
                             ids=["no-mallopt", "no-c-library"])
    def test_main_runs_without_mallopt(self, tmp_path, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        _simulate(tmp_path)

    def test_mallopt_is_called_once_across_main_calls(self, tmp_path, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        _simulate(tmp_path, "a.jsonl")
        _simulate(tmp_path, "b.jsonl")
        # glibc's M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1
        assert calls == [(-3, 4 << 20), (-1, 16 << 20)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_a_repeated_loss_call_reuses_freed_heap(self, tmp_path, capsys):
        stream_path = tmp_path / "wide.jsonl"
        assert main(["simulate", "--identities", "300", "--frames", "3", "--noise-sigma", "0.1",
                     "--out", str(stream_path)]) == 0
        kept, dynamic = (int(_run_python(_SECOND_LOSS_FAULTS, str(stream_path), mode))
                         for mode in ("kept", "dynamic"))
        # Measured on x86-64 glibc 2.36: 18 faults kept against 278 dynamic.
        assert kept * 5 < dynamic

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        code = "import sys, vicount.cli; print('numpy.random' in sys.modules)"
        assert _run_python(code) == "False\n"
