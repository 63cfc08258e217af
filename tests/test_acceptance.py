"""Acceptance gate for the package: eleven numbered checks.

Each check prints one PASS line (visible under pytest -s) after its
assertions hold; a failing check shows up as a normal pytest failure
instead. Tolerances are pinned here and nowhere else:

  1  transport solver feasibility, sizes to 64, reg down to 0.01
  2  transport plan vs exhaustive enumeration on 5x5 instances
  3  assignment solver vs exhaustive enumeration, 200 shapes
  4  analytic gradient vs central finite differences
  5  hand-computed hinge and metric values, exact
  6  end-to-end counting equals ground truth on 50 synthetic scenes
  7  memory survives absences up to the TTL and forgets past it
  8  recovered hard matchings agree with ground-truth identities
  9  known-correspondence loss is a floor for the soft loss
  10 degenerate inputs (nothing shared, empty memory, empty stream)
  11 every CLI subcommand is byte-deterministic under a fixed seed
"""

import itertools
import json
import time

import numpy as np
import pytest

from vicount import (
    DetectionStream,
    FrameRecord,
    LossConfig,
    McpConfig,
    MemoryState,
    SimConfig,
    SimilarityBlocks,
    VideoResult,
    brute_force_assignment,
    count_video,
    frozen_plan_loss,
    generate_scene,
    group_matching_loss,
    gt_unique_count,
    hinge_loss,
    hungarian,
    loss_gradient,
    mae,
    mse,
    partition_similarity,
    pseudo_trajectories,
    random_similarity_blocks,
    round_to_permutation,
    scene_from_lifespans,
    sinkhorn,
    soft_contrastive_loss,
    step,
    supervised_contrastive_loss,
    wrae,
)
from vicount.cli import main


def _report(num: int, text: str) -> None:
    print(f"PASS [{num:2d}/11] {text}")


class TestSolverFeasibility:
    """Marginals of the transport plan reach the tolerance at every size."""

    def test_criterion_1(self):
        rng = np.random.default_rng(42)
        sizes = (1, 2, 3, 5, 8, 13, 21, 34, 64)
        regs = (0.01, 0.05, 0.5)
        worst_violation = 0.0
        worst_time = 0.0
        for n in sizes:
            for reg in regs:
                for _ in range(2):
                    cost = rng.uniform(0.0, 1.0, (n, n))
                    t0 = time.perf_counter()
                    plan = sinkhorn(cost, reg, max_iters=20000, tol=1e-6)
                    elapsed = time.perf_counter() - t0
                    assert plan.converged, f"n={n} reg={reg} did not converge"
                    violation = max(
                        float(np.max(np.abs(plan.omega.sum(axis=1) - 1.0))),
                        float(np.max(np.abs(plan.omega.sum(axis=0) - 1.0))),
                    )
                    assert violation < 1e-6
                    assert elapsed < 1.0
                    worst_violation = max(worst_violation, violation)
                    worst_time = max(worst_time, elapsed)
        _report(
            1,
            f"transport feasible on {len(sizes) * len(regs) * 2} solves, "
            f"worst violation {worst_violation:.2e}, worst time {worst_time * 1e3:.1f}ms",
        )


class TestSolverMatchesEnumeration:
    """Sharply regularized plans round to the enumerated optimal permutation."""

    @staticmethod
    def _best_permutation(cost):
        n = cost.shape[0]
        best_perm, best_total, second = None, np.inf, np.inf
        for perm in itertools.permutations(range(n)):
            total = float(cost[np.arange(n), perm].sum())
            if total < best_total:
                best_perm, best_total, second = perm, total, best_total
            elif total < second:
                second = total
        return best_perm, best_total, second

    def test_criterion_2(self):
        hits = 0
        produced = 0
        seed = 0
        while produced < 100:
            rng = np.random.default_rng(1000 + seed)
            seed += 1
            cost = rng.uniform(0.0, 1.0, (5, 5))
            best_perm, best_total, second = self._best_permutation(cost)
            if second - best_total <= 0.05:
                continue  # demand a clearly unique optimum
            produced += 1
            plan = sinkhorn(cost, reg=1e-3, max_iters=5000, tol=1e-6)
            assert plan.converged
            rounded = tuple(int(j) for j in round_to_permutation(plan.omega))
            if rounded == best_perm:
                hits += 1
        assert hits == 100, f"only {hits}/100 plans rounded to the optimum"
        _report(2, "rounded transport plan optimal on 100/100 unique-optimum instances")


class TestAssignmentMatchesEnumeration:
    """The assignment solver reproduces enumerated totals on 200 shapes."""

    def test_criterion_3(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            r = int(rng.integers(1, 8))
            # keep the enumeration oracle's search space manageable
            extra_cap = 0 if r == 7 else 2
            c = r + int(rng.integers(0, extra_cap + 1))
            cost = rng.uniform(-3.0, 3.0, (r, c))
            if rng.random() < 0.5:
                cost = cost.T
            fast = hungarian(cost)
            slow = brute_force_assignment(cost)
            assert fast.total_cost == pytest.approx(slow.total_cost, abs=1e-9), (
                f"shape {cost.shape}: {fast.total_cost} vs {slow.total_cost}"
            )
            checked += 1
        _report(3, "assignment totals match enumeration on 200/200 random shapes")


def _fd_gradient(blocks, cfg, omega, h):
    base = blocks.full
    out = np.empty_like(base)
    for p in range(base.shape[0]):
        for q in range(base.shape[1]):
            plus = base.copy()
            plus[p, q] += h
            minus = base.copy()
            minus[p, q] -= h
            f_plus = frozen_plan_loss(SimilarityBlocks(plus, blocks.m), omega, cfg)
            f_minus = frozen_plan_loss(SimilarityBlocks(minus, blocks.m), omega, cfg)
            out[p, q] = (f_plus - f_minus) / (2.0 * h)
    return out


class TestGradientCheck:
    """The analytic gradient tracks central finite differences."""

    def test_criterion_4(self):
        rng = np.random.default_rng(42)
        cfgs = {
            scale: LossConfig(temperature=scale) for scale in (1.0, 10.0)
        }
        blocks_list = []
        while len(blocks_list) < 50:
            n_i = int(rng.integers(1, 7))
            n_j = int(rng.integers(1, 9))
            m = int(rng.integers(1, min(n_i, n_j, 5) + 1))
            blocks = random_similarity_blocks(rng, n_i, n_j, m)
            # central differences need the hinge locally smooth
            if blocks.s3.size and np.any(np.abs(blocks.s3 - 0.2) < 1e-3):
                continue
            blocks_list.append(blocks)
        worst = 0.0
        for blocks in blocks_list:
            for cfg in cfgs.values():
                omega = soft_contrastive_loss(blocks, cfg).plan.omega
                analytic = loss_gradient(blocks, omega, cfg)
                numeric = _fd_gradient(blocks, cfg, omega, 1e-5)
                denom = np.maximum(
                    np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6
                )
                worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        assert worst < 1e-4
        _report(4, f"gradient matches finite differences, max relative error {worst:.2e}")


class TestExactHandValues:
    """Hinge and metric hand examples come out to the written digits."""

    def test_criterion_5(self):
        assert hinge_loss(np.zeros((0, 2)), 0.3) == 0.0
        assert hinge_loss(np.array([[0.5]]), 0.2) == pytest.approx(0.3, abs=1e-12)
        assert hinge_loss(
            np.array([[0.1, 0.9], [0.3, 0.2]]), 0.3
        ) == pytest.approx(0.15, abs=1e-12)

        two = [
            VideoResult("a", 10.0, 100, 90),
            VideoResult("b", 30.0, 200, 210),
        ]
        assert wrae(two) == 6.25
        assert mse(two) == 10.0
        assert mae(two) == 10.0
        _report(5, "hinge examples within 1e-12; WRAE 6.25% and RMSE 10 exact")


class TestCountingOracle:
    """Counting a clean, separable scene recovers the exact unique count."""

    def test_criterion_6(self):
        sizes = (30, 40, 55, 70, 85, 100, 120, 145, 170, 200)
        t0 = time.perf_counter()
        for seed in range(50):
            stream = generate_scene(
                SimConfig(
                    num_identities=sizes[seed % len(sizes)],
                    num_frames=30,
                    feature_dim=64,
                    max_base_similarity=0.3,
                    seed=seed,
                )
            )
            report = count_video(stream, McpConfig())
            assert report.total == gt_unique_count(stream), f"seed {seed}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        _report(6, f"counting exact on 50/50 noiseless scenes in {elapsed:.1f}s")


class TestTtlReentry:
    """An absence at the TTL boundary is forgiven; one step longer is not."""

    def test_criterion_7(self):
        ttl = McpConfig().ttl_max
        base = dict(num_identities=3, feature_dim=64, max_base_similarity=0.3, seed=7)

        frames = 3 + ttl + 3
        cfg = SimConfig(num_frames=frames, **base)
        span_all = [(0, frames - 1)]
        within = scene_from_lifespans(
            cfg, [span_all, span_all, [(0, 1), (2 + ttl, frames - 1)]]
        )
        report = count_video(within, McpConfig())
        assert report.total == gt_unique_count(within) == 3

        frames = 3 + ttl + 4
        cfg = SimConfig(num_frames=frames, **base)
        span_all = [(0, frames - 1)]
        past = scene_from_lifespans(
            cfg, [span_all, span_all, [(0, 1), (3 + ttl, frames - 1)]]
        )
        report = count_video(past, McpConfig())
        assert report.total == gt_unique_count(past) + 1 == 4
        _report(7, f"absence of {ttl} steps rematched, {ttl + 1} steps recounted")


class TestPseudoTrajectoryFidelity:
    """Every recovered hard match joins detections of the same identity."""

    def test_criterion_8(self):
        mismatches = 0
        matched = 0
        for seed in range(20):
            stream = generate_scene(
                SimConfig(
                    num_identities=20,
                    num_frames=10,
                    feature_dim=64,
                    max_base_similarity=0.3,
                    seed=100 + seed,
                )
            )
            result = pseudo_trajectories(stream, LossConfig())
            frames = stream.frames
            for pm, prev, curr in zip(result.pairs, frames, frames[1:]):
                for u, v in pm.matches:
                    matched += 1
                    if prev.gt_ids[u] != curr.gt_ids[v]:
                        mismatches += 1
        assert mismatches == 0
        _report(8, f"0 identity mismatches across {matched} recovered matches")


class TestSupervisedFloor:
    """With the true correspondence known, the loss lower-bounds the soft one."""

    def test_criterion_9(self):
        cfg = LossConfig(sinkhorn_reg=1e-3, sinkhorn_max_iters=5000)
        gap_worst = -np.inf
        for m in range(1, 7):
            full = np.full((m + 1, m + 2), -0.1)
            full[np.arange(m), np.arange(m)] = 1.0
            blocks = SimilarityBlocks(full, m)
            sup = supervised_contrastive_loss(blocks, tuple(range(m)), cfg)
            soft = soft_contrastive_loss(blocks, cfg).loss
            assert sup <= soft + 1e-3, f"m={m}: {sup} vs {soft}"
            gap_worst = max(gap_worst, sup - soft)
        _report(9, f"true-correspondence loss below soft loss, worst gap {gap_worst:.2e}")


class TestDegenerateHandling:
    """Nothing-shared pairs and empty inputs stay well defined."""

    def test_criterion_10(self):
        nothing_shared = SimilarityBlocks(np.full((2, 3), 0.1), 0)
        out = soft_contrastive_loss(nothing_shared, LossConfig())
        assert out.loss == 0.0 and out.raw == 0.0
        assert group_matching_loss([nothing_shared], LossConfig()) == 0.0

        feature = np.array([1.0, 0.0])
        memory, record = step(MemoryState.empty(), (feature, feature), McpConfig())
        assert record.inflow == 2
        assert record.associations == ()
        assert len(memory.ttl) == 2

        empty = DetectionStream((), 1.0)
        assert count_video(empty, McpConfig()).total == 0
        _report(10, "degenerate inputs handled: 0 loss, all-inflow, count 0")


class TestCliDeterminism:
    """Each subcommand produces byte-identical output when re-run."""

    @staticmethod
    def _run(capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        return captured.out.encode()

    def _twice(self, capsys, argv, files):
        """Run one identical invocation twice; stdout and files must repeat."""
        first_out = self._run(capsys, argv)
        first_files = [f.read_bytes() for f in files]
        second_out = self._run(capsys, argv)
        second_files = [f.read_bytes() for f in files]
        name = argv[0]
        assert first_out == second_out, f"{name}: stdout differs between runs"
        assert first_files == second_files, f"{name}: output files differ between runs"

    def test_criterion_11(self, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        report = tmp_path / "report.json"
        pseudo = tmp_path / "pseudo.jsonl"

        self._twice(capsys, [
            "simulate", "--identities", "10", "--frames", "6",
            "--noise-sigma", "0.05", "--max-base-sim", "0.3",
            "--seed", "3", "--out", str(stream),
        ], [stream])
        self._twice(capsys, [
            "count", "--in", str(stream), "--video-id", "v",
            "--report", str(report),
        ], [report])
        self._twice(capsys, ["eval", str(report)], [])
        self._twice(capsys, ["loss", "--in", str(stream)], [])
        self._twice(capsys, ["gradcheck", "--seed", "3", "--trials", "5"], [])
        self._twice(capsys, [
            "pseudo", "--in", str(stream), "--out", str(pseudo),
        ], [pseudo])
        _report(11, "all six subcommands byte-identical across repeated runs")
