"""Command line front end.

Subcommands: simulate (generate a synthetic stream file), count (memory-based
counting over a stream), eval (aggregate count reports into metrics), loss
(pairwise and total matching loss of a labeled stream), gradcheck (compare
the analytic loss gradient against finite differences), pseudo (export hard
matchings recovered from the soft plans).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
"""

import argparse
import ctypes
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np
import orjson

from .counting import _AGGREGATORS, McpConfig, count_video
from .errors import DataError, NumericalError
# No command calls hinge_loss: it is imported only for perfbench's tracer to wrap (ROADMAP item 1)
from .loss import LossConfig, _adjacent_pairs, frozen_plan_loss, hinge_loss, loss_gradient
from .loss import pair_objective, pseudo_trajectories, soft_contrastive_loss
from .metrics import VideoResult, mae, mse, wrae
from .simulate import SimConfig, generate_scene, gt_unique_count
from .stream import SimilarityBlocks, _as_int, _finite, pair_blocks, random_similarity_blocks
from .streamio import parse_stream, write_stream


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# glibc's mallopt parameter numbers, from malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Have glibc keep freed heap mapped for reuse instead of returning it to the OS.

    Each transport pair allocates and frees a few MB of arrays. Under glibc's
    dynamic thresholds the freed top of the heap is trimmed after every pair,
    and the next pair faults every page back in, zero-filled. With the mmap
    threshold at 4 MiB (pair arrays stay under 3 MB) and the trim threshold at
    16 MiB, the next pair reuses the same pages; blocks of 4 MiB and up are
    still mmapped and unmapped when freed. glibc cannot go back to its dynamic
    thresholds once mallopt has set them, so nothing is restored on exit.
    Where there is no mallopt (musl, macOS, Windows) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 4 << 20)
        mallopt(_M_TRIM_THRESHOLD, 16 << 20)
    except (OSError, AttributeError, TypeError):
        pass


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _add_loss_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma-scale", dest="temperature", type=float,
                   default=LossConfig.temperature,
                   help="similarity scale inside the contrastive exponential (default %(default)g)")
    p.add_argument("--theta", dest="hinge_threshold", type=float,
                   default=LossConfig.hinge_threshold,
                   help="hinge threshold on outflow/inflow similarities (default %(default)g)")
    p.add_argument("--reg", dest="sinkhorn_reg", type=float, default=LossConfig.sinkhorn_reg,
                   help="entropic regularization of the transport solver (default %(default)g)")
    p.add_argument("--iters", dest="sinkhorn_max_iters", type=int,
                   default=LossConfig.sinkhorn_max_iters,
                   help="transport solver iteration budget (default %(default)g)")
    p.add_argument("--tol", dest="sinkhorn_tol", type=float, default=LossConfig.sinkhorn_tol,
                   help="transport marginal tolerance (default %(default)g)")


def _config(cls, args, **given):
    """cls built from the parsed flags whose dest names one of its fields, and given."""
    fields = (f.name for f in dataclasses.fields(cls))
    return cls(**{name: getattr(args, name) for name in fields if hasattr(args, name)}, **given)


def _cmd_simulate(args) -> int:
    stream = generate_scene(
        _config(SimConfig, args, scene_size=(args.scene_width, args.scene_height)))
    write_stream(stream, args.out)
    print(
        f"simulated {len(stream)} frames, {gt_unique_count(stream)} identities -> {args.out}"
    )
    return 0


def _cmd_count(args) -> int:
    cfg = _config(McpConfig, args)
    stream = parse_stream(args.infile)
    report = count_video(stream, cfg)
    try:
        gt_total = gt_unique_count(stream)
    except DataError:
        gt_total = None
    video_id = args.video_id if args.video_id else Path(args.infile).stem
    # Written before anything is printed, so a report that cannot be written leaves no
    # success-looking line on stdout.
    if args.report:
        payload = {
            "video": video_id,
            "frames": len(stream),
            "delta": stream.delta,
            "total": report.total,
            "gt_total": gt_total,
            "per_step": [
                {
                    "frame": rec.frame_index,
                    "inflow": rec.inflow,
                    "associations": rec.associations,
                    "new_entries": rec.new_entry_ids,
                }
                for rec in report.per_step
            ],
        }
        # dumps runs the C encoder; dump would stream through the Python one.
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"total {report.total}")
    if args.report:
        print(f"report -> {args.report}")
    return 0


def _cmd_eval(args) -> int:
    gt_map = {}
    if args.gt:
        with open(args.gt, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise DataError(f"{args.gt}: ground-truth file must be a JSON object")
        try:
            gt_map = {str(k): _as_int(v, f"video {k!r}: gt_count", 1) for k, v in raw.items()}
        except DataError as exc:
            raise DataError(f"{args.gt}: {exc}") from None
    results = []
    for path in args.reports:
        with open(path, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
        if not isinstance(rep, dict):
            raise DataError(f"{path}: report must be a JSON object")
        for key in ("video", "frames", "total"):
            if key not in rep:
                raise DataError(f"{path}: report missing key {key!r}")
        video = rep["video"]
        if not isinstance(video, str):
            raise DataError(f"{path}: video must be a string, got {video!r}")
        gt = gt_map.get(video, rep.get("gt_total"))
        if gt is None:
            raise DataError(f"{path}: no ground-truth count for video {video!r}")
        try:
            results.append(VideoResult(video, rep["frames"], gt, rep["total"]))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    print("video\tframes\tgt\tpred")
    for r in results:
        print(f"{r.video_id}\t{_fmt(r.length)}\t{r.gt_count}\t{_fmt(r.pred_count)}")
    print(f"MAE {_fmt(mae(results))}")
    print(f"MSE {_fmt(mse(results))}")
    print(f"WRAE {_fmt(wrae(results))}%")
    return 0


def _cmd_loss(args) -> int:
    cfg = _config(LossConfig, args)
    total = 0.0
    for prev, curr, blocks in _adjacent_pairs(parse_stream(args.infile)):
        obj = pair_objective(blocks, cfg)
        total += obj.total
        print(
            f"pair {prev.frame_index}->{curr.frame_index}: m={blocks.m} "
            f"scon={_fmt(obj.loss)} hinge={_fmt(obj.hinge)} "
            f"converged={obj.plan.converged} iters={obj.plan.iterations_used}"
        )
        del obj  # else this pair's plan stays alive through the next pair's solve
    print(f"total {_fmt(total)}")
    return 0


def _fd_gradient(blocks: SimilarityBlocks, cfg: LossConfig, omega, h: float) -> np.ndarray:
    base = blocks.full
    out = np.empty_like(base)
    for p, q in np.ndindex(base.shape):
        sides = []
        for shift in (h, -h):
            s = base.copy()
            s[p, q] += shift
            sides.append(frozen_plan_loss(SimilarityBlocks(s, blocks.m), omega, cfg))
        out[p, q] = (sides[0] - sides[1]) / (2 * h)
    return out


def _max_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float(np.max(np.abs(analytic - fd) / scale))


def _cmd_gradcheck(args) -> int:
    cfg = _config(LossConfig, args)
    h = _finite(args.step, "--step", "(0, inf)")
    if args.fail_above is not None:
        _finite(args.fail_above, "--fail-above", "[0, inf)")
    for flag, least in (("--seed", 0), ("--trials", 1), ("--max-rows", 1), ("--max-cols", 1)):
        _as_int(getattr(args, flag[2:].replace("-", "_")), flag, least)
    blocks_list = []
    if args.infile:
        blocks_list = [b for b in pair_blocks(parse_stream(args.infile)) if b.m > 0]
        if not blocks_list:
            raise DataError("stream has no adjacent pair with shared individuals")
    else:
        rng = np.random.default_rng(args.seed)
        while len(blocks_list) < args.trials:
            n_i = int(rng.integers(1, args.max_rows + 1))
            n_j = int(rng.integers(1, args.max_cols + 1))
            m = int(rng.integers(1, min(n_i, n_j) + 1))
            blocks = random_similarity_blocks(rng, n_i, n_j, m)
            # Finite differences need the hinge to be locally smooth.
            if blocks.s3.size and np.any(np.abs(blocks.s3 - cfg.hinge_threshold) < 1e-3):
                continue
            blocks_list.append(blocks)
    worst = 0.0
    for blocks in blocks_list:
        omega = soft_contrastive_loss(blocks, cfg).plan.omega
        analytic = loss_gradient(blocks, omega, cfg)
        fd = _fd_gradient(blocks, cfg, omega, h)
        worst = max(worst, _max_rel_err(analytic, fd))
    print(f"checked {len(blocks_list)} blocks, max relative error {worst:.3e}")
    if args.fail_above is not None and worst > args.fail_above:
        raise NumericalError(
            f"gradient mismatch: {worst:.3e} exceeds {args.fail_above:.3e}"
        )
    return 0


def _cmd_pseudo(args) -> int:
    cfg = _config(LossConfig, args)
    stream = parse_stream(args.infile)
    result = pseudo_trajectories(stream, cfg)
    records = [{"pair": [pm.frame_prev, pm.frame_curr], "matches": pm.matches}
               for pm in result.pairs]
    records += [{"traj": t_idx, "steps": traj} for t_idx, traj in enumerate(result.trajectories)]
    lines = [orjson.dumps(r).decode() for r in records]
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        print(
            f"wrote {len(result.pairs)} pairs, {len(result.trajectories)} trajectories "
            f"-> {args.out}"
        )
    else:
        for line in lines:
            print(line)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="vicount", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic labeled stream file")
    p.add_argument("--identities", dest="num_identities", type=int,
                   default=SimConfig.num_identities)
    p.add_argument("--frames", dest="num_frames", type=int, default=SimConfig.num_frames)
    p.add_argument("--delta", type=float, default=SimConfig.delta)
    p.add_argument("--dim", dest="feature_dim", type=int, default=SimConfig.feature_dim)
    p.add_argument("--noise-sigma", dest="feature_noise_sigma", type=float,
                   default=SimConfig.feature_noise_sigma)
    p.add_argument("--reentry-prob", dest="reentry_probability", type=float,
                   default=SimConfig.reentry_probability)
    p.add_argument("--scene-width", type=float, default=SimConfig.scene_size[0])
    p.add_argument("--scene-height", type=float, default=SimConfig.scene_size[1])
    p.add_argument("--walk-sigma", dest="walk_step_sigma", type=float,
                   default=SimConfig.walk_step_sigma)
    p.add_argument("--max-base-sim", dest="max_base_similarity", type=float,
                   default=SimConfig.max_base_similarity,
                   help="rejection-sample base features below this pairwise similarity")
    p.add_argument("--seed", type=int, default=SimConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("count", help="count individuals in a stream with the template memory")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--zeta", type=float, default=McpConfig.zeta,
                   help="association cost threshold (default %(default)g)")
    p.add_argument("--ttlmax", dest="ttl_max", type=int, default=McpConfig.ttl_max,
                   help="steps an unmatched individual stays matchable (default %(default)g)")
    p.add_argument("--memmax", dest="mem_max", type=int, default=McpConfig.mem_max,
                   help="templates kept per individual (default %(default)g)")
    p.add_argument("--aggregator", dest="template_aggregator", choices=_AGGREGATORS,
                   default=McpConfig.template_aggregator)
    p.add_argument("--video-id", default=None)
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("eval", help="aggregate count reports into MAE/MSE/WRAE")
    p.add_argument("reports", nargs="+", help="JSON report files from the count subcommand")
    p.add_argument("--gt", default=None,
                   help="JSON object mapping video id to ground-truth count")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("loss", help="pairwise and total matching loss of a labeled stream")
    p.add_argument("--in", dest="infile", required=True)
    _add_loss_flags(p)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("gradcheck", help="compare the analytic gradient to finite differences")
    p.add_argument("--in", dest="infile", default=None,
                   help="check the pairs of this stream instead of random blocks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--max-rows", type=int, default=6)
    p.add_argument("--max-cols", type=int, default=8)
    p.add_argument("--step", type=float, default=1e-5, help="finite difference step")
    p.add_argument("--fail-above", type=float, default=None,
                   help="exit with an error if the max relative error exceeds this")
    _add_loss_flags(p)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("pseudo", help="export hard matchings recovered from the soft plans")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    _add_loss_flags(p)
    p.set_defaults(func=_cmd_pseudo)

    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"vicount: numerical error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # ValueError covers DataError and json.JSONDecodeError.
        print(f"vicount: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
