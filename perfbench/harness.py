"""Workloads, passes, output checks and metrics of the vicount benchmark.

A run sets up a workload's input streams with the simulator, then makes
passes over them through the in-process command line entry point
`vicount.cli.main`, one call per command and stream. Every call is checked
after it returns; a crash, a non-zero exit or a failed check marks that
call failed and the run goes on.

A shared host's speed can drift by tens of percent within seconds, more
than a regression worth catching. So during every timed call an interval
timer runs a fixed reference kernel, which runs no vicount code, every
20 ms, and the call's wall time is also expressed in units of the kernel's
mean time during the call (`cli_ref`): drift slows both alike and cancels,
while a change to vicount moves only the call. Set-up time is scaled the
same way (`setup_s`).
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from vicount import cli, simulate, streamio
from vicount.simulate import SimConfig

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
REFERENCE_SEED = 20231209
REFERENCE_INTERVAL_S = 0.02
# Reference kernel time that setup_s is scaled to: about its median on the
# 2-core VM the benchmark was built on, in a quiet stretch.
REFERENCE_NOMINAL_S = 0.0005
LAYERS = ("simulate", "streamio", "stream", "counting", "assignment", "loss", "metrics", "cli")
COMMANDS = ("count", "eval", "loss", "pseudo")


@dataclasses.dataclass(frozen=True)
class Workload:
    """Input streams of one workload and the commands run on them.

    kind "count" runs `count --report` per stream and one `eval` over all
    reports; kind "transport" runs `loss` and `pseudo --out` per stream.
    Stream i uses the simulator seed S + i and, when identities is given,
    identities[i % len(identities)] individuals. flags are appended to
    every call on a stream.
    """

    name: str
    kind: str
    scene: dict
    videos: int = 1
    identities: tuple = ()
    flags: tuple = ()

    def configs(self, seed: int) -> list:
        out = []
        for i in range(self.videos):
            kw = dict(self.scene, seed=seed + i)
            if self.identities:
                kw["num_identities"] = self.identities[i % len(self.identities)]
            out.append(SimConfig(**kw))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        # Dense noisy videos. Memory grows to ~230 entries, so per-pair
        # template costs and large rectangular assignments dominate counting.
        # Two videos per pass halve the spread that the seed puts on the work.
        Workload(
            "crowd", "count",
            dict(num_identities=300, num_frames=12, feature_dim=64,
                 feature_noise_sigma=0.05, max_base_similarity=0.3),
            videos=2,
        ),
        # The first ten videos of the acceptance suite's counting collection
        # (noiseless, separable, 30 to 200 identities), cut to their first
        # 15 frames so that a run makes several passes. Memories stay small,
        # so per-step fixed cost and small assignments dominate.
        Workload(
            "census", "count",
            dict(num_frames=15, feature_dim=64, max_base_similarity=0.3),
            videos=10, identities=(30, 40, 55, 70, 85, 100, 120, 145, 170, 200),
        ),
        # Noisy dense labeled streams with no base-similarity cap. Shared
        # counts of 110 to 470 per pair put solves on both sides of the
        # solver's Newton size limit; no counting runs. Eight streams per
        # pass, because iteration counts, and so times, vary widely by seed:
        # summed over four streams they spread by 0.15 over ten seeds.
        # The solver keeps its default regularization, but its iteration
        # budget is raised from 500 so that no solve is cut short: some
        # seeds need up to ~600 sweeps, and the full cost of a slow solve
        # then shows in the times instead of as converged=False.
        Workload(
            "transport", "transport",
            dict(num_identities=900, num_frames=5, feature_dim=64, feature_noise_sigma=0.1),
            videos=8, flags=("--iters", "5000"),
        ),
    )
}


@dataclasses.dataclass
class Inputs:
    """Written input streams plus the ground truth the checks need."""

    paths: list
    video_ids: list
    gt_totals: list
    gt_ids: list  # per stream, per frame: the detections' ground-truth ids
    frame_indices: list  # per stream: frame index of each frame
    digests: list


@dataclasses.dataclass
class Op:
    """One command line call on one stream (or, for eval, on all reports)."""

    command: str
    video: int
    argv: list
    seconds: float = 0.0
    ref_s: float = 0.0  # mean reference kernel time during the call; 0 when not paced
    code: object = None
    stdout: str = ""
    error: str = ""
    failures: list = dataclasses.field(default_factory=list)
    facts: dict = dataclasses.field(default_factory=dict)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def set_up(workload: Workload, seed: int, workdir: str, paced: bool = False):
    """Generate and write the workload's streams.

    Returns (inputs, seconds, refs). Only generate_scene and write_stream
    are timed. When paced, each stream's set-up runs inside
    reference_samples(), and refs sums each stream's seconds over the
    mean of its samples; otherwise refs is 0.
    """
    inputs = Inputs([], [], [], [], [], [])
    elapsed = refs = 0.0
    for i, cfg in enumerate(workload.configs(seed)):
        video_id = f"{workload.name}-{i:02d}"
        path = os.path.join(workdir, video_id + ".jsonl")
        with reference_samples() if paced else contextlib.nullcontext([]) as samples:
            t0 = time.perf_counter()
            stream = simulate.generate_scene(cfg)
            streamio.write_stream(stream, path)
            seconds = time.perf_counter() - t0
        elapsed += seconds
        refs += seconds / statistics.fmean(samples) if paced else 0.0
        inputs.paths.append(path)
        inputs.video_ids.append(video_id)
        inputs.gt_totals.append(simulate.gt_unique_count(stream))
        inputs.gt_ids.append([[d.gt_id for d in f.detections] for f in stream.frames])
        inputs.frame_indices.append([f.frame_index for f in stream.frames])
        inputs.digests.append(_sha256(path))
    return inputs, elapsed, refs


def import_seconds() -> float:
    """Median time of `import vicount.cli` in fresh interpreters, one at a time.

    Every command line call pays this import. It takes about 0.1 s and one
    timing differs from the next by tens of percent, so the median of
    several fresh processes is reported.
    """
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import vicount.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", probe, os.path.join(ROOT, "src")],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


_REF_VECTORS = tuple(np.random.default_rng(REFERENCE_SEED).standard_normal(64) for _ in range(256))


def reference_seconds() -> float:
    """Wall time of one fixed unit of work that vicount does not take part in.

    A pure Python integer loop and a Python loop of small numpy dot
    products, like per-pair template costs; about 0.5 ms.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    for i in range(150):
        float(np.dot(_REF_VECTORS[i & 255], _REF_VECTORS[(i * 7) & 255]))
    return time.perf_counter() - t0


@contextlib.contextmanager
def reference_samples():
    """Time the reference kernel once now and then every 20 ms until exit.

    Yields the list the times go into. The timer's signal handler runs
    between the program's bytecodes, so the samples spread over the same
    stretch of time as the code they bracket.
    """
    samples = [reference_seconds()]
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(reference_seconds()))
    signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)


def run_op(op: Op, tracer=None) -> Op:
    """Run one call of `vicount.cli.main` in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{op.command}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            with span:
                op.code = cli.main(op.argv)
        except SystemExit as exc:
            op.code = exc.code
        except Exception:  # a crash is one failed operation, not an aborted run
            op.error = traceback.format_exc()
        op.seconds = time.perf_counter() - t0
    op.stdout = out.getvalue()
    op.error = err.getvalue() + op.error
    if op.code != 0:
        op.failures.append(f"exit code {op.code!r}: {op.error.strip()[-300:]}")
    return op


def pass_ops(workload: Workload, inputs: Inputs, workdir: str) -> list:
    """The calls of one pass, in order."""
    ops = []
    if workload.kind == "count":
        reports = []
        for i, (path, vid) in enumerate(zip(inputs.paths, inputs.video_ids)):
            report = os.path.join(workdir, vid + ".report.json")
            reports.append(report)
            ops.append(Op("count", i, ["count", "--in", path, "--video-id", vid,
                                       "--report", report, *workload.flags]))
        ops.append(Op("eval", -1, ["eval", *reports]))
    else:
        for i, (path, vid) in enumerate(zip(inputs.paths, inputs.video_ids)):
            ops.append(Op("loss", i, ["loss", "--in", path, *workload.flags]))
            out = os.path.join(workdir, vid + ".pseudo.jsonl")
            ops.append(Op("pseudo", i, ["pseudo", "--in", path, "--out", out, *workload.flags]))
    return ops


def run_pass(workload, inputs, workdir, references=None, tracer=None, paced=False) -> list:
    """Run one pass of calls, then check every call's output.

    When paced, each call runs inside reference_samples() and its ref_s is
    the mean of the samples.
    """
    ops = pass_ops(workload, inputs, workdir)
    for op in ops:
        if paced:
            with reference_samples() as samples:
                run_op(op, tracer)
            op.ref_s = statistics.fmean(samples)
        else:
            run_op(op, tracer)
    for op in ops:
        if op.failures:
            continue
        try:
            CHECKS[op.command](op, inputs, ops, references)
        except Exception as exc:  # output too malformed to check: a failed operation
            op.failures.append(f"check raised {exc!r}")
    return ops


# ---- output checks -------------------------------------------------------
# Each check appends to op.failures and records what it read in op.facts.


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def check_count(op, inputs, ops, references):
    i = op.video
    report_path = op.argv[op.argv.index("--report") + 1]
    lines = op.stdout.splitlines()
    m = re.fullmatch(r"total (\d+)", lines[0]) if lines else None
    if not m or lines[1:] != [f"report -> {report_path}"]:
        op.failures.append(f"unexpected stdout {op.stdout[:200]!r}")
        return
    printed = int(m.group(1))
    try:
        with open(report_path, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        op.failures.append(f"unreadable report: {exc}")
        return
    op.facts.update(sha256=hashlib.sha256(raw).hexdigest(), total=report.get("total"),
                    gt_total=report.get("gt_total"), frames=report.get("frames"))
    per_step = report.get("per_step", [])
    if report.get("video") != inputs.video_ids[i]:
        op.failures.append(f"report video {report.get('video')!r}")
    if report.get("total") != printed:
        op.failures.append(f"report total {report.get('total')} != printed {printed}")
    if sum(s["inflow"] for s in per_step) != printed:
        op.failures.append("total is not the sum of per-step inflow")
    if len(per_step) != len(inputs.gt_ids[i]) or report.get("frames") != len(per_step):
        op.failures.append("report does not cover every frame")
    if report.get("gt_total") != inputs.gt_totals[i]:
        op.failures.append(f"gt_total {report.get('gt_total')} != {inputs.gt_totals[i]}")
    if references is not None:
        ref = references["reports"][i]
        if op.facts["sha256"] != ref["sha256"] or printed != ref["total"]:
            op.failures.append(f"report differs from reference (total {printed} vs {ref['total']})")


def check_eval(op, inputs, ops, references):
    counts = [o for o in ops if o.command == "count"]
    if any(o.failures for o in counts):
        op.failures.append("a count report it aggregates failed")
        return
    lines = op.stdout.splitlines()
    rows = [f"{inputs.video_ids[o.video]}\t{_fmt(o.facts['frames'])}\t"
            f"{inputs.gt_totals[o.video]}\t{_fmt(o.facts['total'])}" for o in counts]
    if lines[:1 + len(rows)] != ["video\tframes\tgt\tpred", *rows]:
        op.failures.append("per-video table does not match the reports and ground truth")
        return
    errors = [abs(o.facts["total"] - inputs.gt_totals[o.video]) for o in counts]
    lengths = [o.facts["frames"] for o in counts]
    expected = {
        "MAE": sum(errors) / len(errors),
        "MSE": (sum(e * e for e in errors) / len(errors)) ** 0.5,
        "WRAE": 100.0 * sum(l * e / g for l, e, g in zip(lengths, errors, inputs.gt_totals))
        / sum(lengths),
    }
    summary = lines[1 + len(rows):]
    for line, (key, value) in zip(summary, expected.items()):
        m = re.fullmatch(rf"{key} (\S+?)%?", line)
        if not m or not _close(float(m.group(1)), value, 1e-8):
            op.failures.append(f"{key} line {line!r}, expected {value:.9g}")
    if len(summary) != len(expected):
        op.failures.append(f"expected {len(expected)} summary lines, got {summary!r}")


def _fmt(x) -> str:
    return f"{float(x):.9g}"


_PAIR = re.compile(
    r"pair (\d+)->(\d+): m=(\d+) scon=(\S+) hinge=(\S+) converged=(True|False) iters=(\d+)"
)


def check_loss(op, inputs, ops, references):
    i = op.video
    lines = op.stdout.splitlines()
    frames, gt = inputs.frame_indices[i], inputs.gt_ids[i]
    pairs = [_PAIR.fullmatch(line) for line in lines[:-1]]
    if len(pairs) != len(frames) - 1 or not all(pairs):
        op.failures.append(f"expected {len(frames) - 1} pair lines")
        return
    total_match = re.fullmatch(r"total (\S+)", lines[-1])
    if not total_match:
        op.failures.append(f"missing total line, got {lines[-1]!r}")
        return
    total = float(total_match.group(1))
    parts = 0.0
    for k, p in enumerate(pairs):
        shared = len(set(gt[k]) & set(gt[k + 1]))
        if (int(p.group(1)), int(p.group(2))) != (frames[k], frames[k + 1]):
            op.failures.append(f"pair line {k} names frames {p.group(1)}->{p.group(2)}")
        if int(p.group(3)) != shared:
            op.failures.append(f"pair {k}: m={p.group(3)}, ground truth shares {shared}")
        if p.group(6) != "True":
            op.failures.append(f"pair {k}: converged=False after {p.group(7)} iterations")
        parts += float(p.group(4)) + float(p.group(5))
    if not _close(parts, total, 1e-6):
        op.failures.append(f"total {total} is not the sum of pair terms {parts}")
    op.facts["total"] = total
    if references is not None and not _close(total, references["loss_totals"][i], 1e-6):
        op.failures.append(f"total {total!r} differs from reference {references['loss_totals'][i]!r}")


def check_pseudo(op, inputs, ops, references):
    i = op.video
    out_path = op.argv[op.argv.index("--out") + 1]
    frames, gt = inputs.frame_indices[i], inputs.gt_ids[i]
    try:
        with open(out_path, encoding="ascii") as fh:
            records = [json.loads(line) for line in fh]
    except (OSError, ValueError) as exc:
        op.failures.append(f"unreadable pseudo output: {exc}")
        return
    pairs = [r for r in records if "pair" in r]
    trajs = [r for r in records if "traj" in r]
    if op.stdout != f"wrote {len(pairs)} pairs, {len(trajs)} trajectories -> {out_path}\n":
        op.failures.append(f"unexpected stdout {op.stdout[:200]!r}")
    if [p["pair"] for p in pairs] != [list(fp) for fp in zip(frames, frames[1:])]:
        op.failures.append("pair records do not follow the stream's adjacent frames")
        return
    position = {f: k for k, f in enumerate(frames)}
    seen = sorted((f, d) for t in trajs for f, d in t["steps"])
    everyone = sorted((f, d) for k, f in enumerate(frames) for d in range(len(gt[k])))
    if seen != everyone:
        op.failures.append("trajectories do not put every detection in exactly one trajectory")
    matches = mismatches = 0
    for p in pairs:
        a, b = (position[f] for f in p["pair"])
        for u, v in p["matches"]:
            matches += 1
            mismatches += gt[a][u] != gt[b][v]
    op.facts.update(matches=matches, mismatches=mismatches)


CHECKS = {"count": check_count, "eval": check_eval, "loss": check_loss, "pseudo": check_pseudo}


def load_references(workload: Workload, seed: int):
    """Reference outputs for this workload and seed, if recorded."""
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    if seed != refs["seed"] or WORKLOADS.get(workload.name) != workload:
        return None
    return refs["workloads"].get(workload.name)


# ---- metrics ---------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _seconds(ops, command) -> float:
    return sum(o.seconds for o in ops if o.command == command)


def quality(passes) -> dict:
    """Failure ratio, count MAE and pseudo-trajectory mismatch ratio.

    The last two come from the last pass and are 0 on workloads that do not
    run the command they describe. MAE is recomputed from the reports and
    the ground truth; eval's check requires its printed MAE to match.
    """
    ops = [o for p in passes for o in p]
    last = [o.facts for o in passes[-1]]
    counts = [f for f in last if "gt_total" in f]
    pseudo = [f for f in last if "matches" in f]
    matches = sum(f["matches"] for f in pseudo)
    return {
        "fail_ratio": sum(bool(o.failures) for o in ops) / len(ops),
        "count_mae": _mean([abs(f["total"] - f["gt_total"]) for f in counts]),
        "pseudo_mismatch_ratio": sum(f["mismatches"] for f in pseudo) / matches if matches else 0.0,
    }


def end_to_end(workload, passes, setups) -> tuple:
    """(metrics declared in BENCHMARK.json, every figure this workload reports).

    setups holds (seconds, refs) of each set-up, as set_up returns them.
    """
    declared = {
        "setup_s": _median([refs for _, refs in setups]) * REFERENCE_NOMINAL_S,
        "cli_ref": _median([sum(o.seconds / o.ref_s for o in p) for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = dict(
        declared,
        setup_wall_s=_median([seconds for seconds, _ in setups]),
        cli_s=_median([sum(o.seconds for o in p) for p in passes]),
        ref_s=_median([o.ref_s for p in passes for o in p]),
        import_s=import_seconds(),
    )
    for command in COMMANDS:
        if any(o.command == command for o in passes[0]):
            named[f"{command}_s"] = _median([_seconds(p, command) for p in passes])
    q = quality(passes)
    named["fail_ratio"] = q["fail_ratio"]
    if workload.kind == "count":
        counts = [o.seconds for p in passes for o in p if o.command == "count"]
        named["count_video_p50_s"] = float(np.percentile(counts, 50))
        named["count_video_p80_s"] = float(np.percentile(counts, 80))
        named["count_mae"] = q["count_mae"]
    else:
        named["pseudo_mismatch_ratio"] = q["pseudo_mismatch_ratio"]
    return declared, named


def per_layer(tracer: Tracer, traced, untraced) -> dict:
    """Layer metrics from the spans and observations of one traced pass."""
    kind, parent, dur, self_time, root = tracer.summary()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def spans(name):
        return kind == ids.get(name, -1)

    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names], dtype=np.int_)[kind]
    commands = np.flatnonzero((parent < 0) & (layer_of == LAYERS.index("cli")))
    in_command = np.isin(root, commands)
    steps = tracer.observed["step"]
    shapes = tracer.observed["hungarian"]
    solves = tracer.observed["sinkhorn"]
    parse = spans("streamio.parse_stream")
    detections = sum(d for _, _, d in steps)
    out = {
        "counting.template_cost_calls": int(spans("counting.template_cost").sum()),
        "counting.template_cost_s": float(dur[spans("counting.template_cost")].sum()),
        "counting.step_s": float(dur[spans("counting.step")].sum()),
        "counting.step_p50_ms": float(np.median(dur[spans("counting.step")]) * 1e3)
        if spans("counting.step").any() else 0.0,
        "counting.memory_entries_max": max((e for e, _, _ in steps), default=0),
        "counting.memory_entries_mean": _mean([e for e, _, _ in steps]),
        "counting.match_ratio": sum(a for _, a, _ in steps) / detections if detections else 0.0,
        "assignment.hungarian_calls": len(shapes),
        "assignment.hungarian_s": float(dur[spans("assignment.hungarian")].sum()),
        "assignment.hungarian_cells": sum(r * c for r, c in shapes),
        "assignment.hungarian_max_side": max((max(s) for s in shapes), default=0),
        "loss.sinkhorn_calls": len(solves),
        "loss.sinkhorn_s": float(dur[spans("loss.sinkhorn")].sum()),
        "loss.sinkhorn_iters": sum(n for n, _ in solves),
        "loss.sinkhorn_iters_max": max((n for n, _ in solves), default=0),
        "loss.sinkhorn_unconverged": sum(not ok for _, ok in solves),
        "streamio.parse_stream_s": float(dur[parse].sum()),
        "streamio.parse_mb_per_s": sum(tracer.observed["parse"]) / 1e6 / float(dur[parse].sum())
        if parse.any() else 0.0,
        "streamio.write_stream_s": float(dur[spans("streamio.write_stream")].sum()),
        "simulate.generate_scene_s": float(dur[spans("simulate.generate_scene")].sum()),
        "stream.partition_similarity_s": float(dur[spans("stream.partition_similarity")].sum()),
    }
    for i, layer in enumerate(LAYERS[:-1]):
        out[f"{layer}.self_s"] = float(self_time[in_command & (layer_of == i)].sum())
    for command in COMMANDS:
        out[f"cli.{command}.self_s"] = float(self_time[spans(f"cli.{command}")].sum())
    traced_wall = sum(o.seconds for o in traced)
    out["trace.overhead_s"] = traced_wall - sum(o.seconds for o in untraced)
    # Wall time of the traced calls not covered by any span's self time.
    out["trace.unaccounted_s"] = traced_wall - float(self_time[in_command].sum())
    out["trace.spans"] = int(len(kind))
    return out


def _mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


# ---- provenance ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy has no dict mode; provenance is best effort
        info = {}
    return {k: info.get(k) for k in ("name", "version", "openblas configuration")}


def _git_commit(root: str):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError), open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed, seconds, trace) -> dict:
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_env": threads,
        "git_commit": _git_commit(ROOT),
    }


# ---- a whole run -----------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: str,
        references=None) -> dict:
    """Set up, make the passes, check them; returns the result record."""
    os.makedirs(workdir, exist_ok=True)
    if trace:
        tracer = Tracer()
        with tracer.installed():
            inputs, _, _ = set_up(workload, seed, workdir)
        untraced = run_pass(workload, inputs, workdir, references)
        with tracer.installed():
            traced = run_pass(workload, inputs, workdir, references, tracer)
        passes = [untraced, traced]
        metrics = per_layer(tracer, traced, untraced)
        q = quality(passes)
        metrics.update({"metrics.count_mae": q["count_mae"], "cli.fail_ratio": q["fail_ratio"],
                        "loss.pseudo_mismatch_ratio": q["pseudo_mismatch_ratio"]})
        tracer.write(os.path.join(workdir, "spans.npz"))
        deterministic = True
        named = {}
        notes = {"missing_targets": sorted(set(tracer.missing)), "unobserved": tracer.unobserved}
    else:
        setups, digests = [], []
        for _ in range(SETUP_REPEATS):
            inputs, setup_seconds, setup_refs = set_up(workload, seed, workdir, paced=True)
            setups.append((setup_seconds, setup_refs))
            digests.append(inputs.digests)
        deterministic = all(d == digests[0] for d in digests)
        for _ in range(20):  # warm-up
            reference_seconds()
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(workload, inputs, workdir, references, paced=True))
            if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
                break
        metrics, named = end_to_end(workload, passes, setups)
        notes = {}
    ops = [o for p in passes for o in p]
    failed = sum(bool(o.failures) for o in ops)
    return {
        "correct": failed == 0 and deterministic,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "named": named,
        "passes": len(passes),
        "setup_deterministic": deterministic,
        "trace_notes": notes,
        "failures": [f"{o.command} {o.video}: {f}" for o in ops for f in o.failures][:50],
        "provenance": provenance(workload, seed, seconds, trace),
    }
