"""Loss-side tests: contrastive similarity, transport solver, pair losses."""

import itertools
import warnings

import numpy as np
import pytest

from vicount import (
    DataError,
    DetectionStream,
    LossConfig,
    NumericalError,
    SimConfig,
    SimilarityBlocks,
    contrastive_similarity,
    frozen_plan_loss,
    generate_scene,
    group_matching_loss,
    hinge_loss,
    loss_gradient,
    pair_blocks,
    pseudo_trajectories,
    random_similarity_blocks,
    round_to_permutation,
    sinkhorn,
    soft_contrastive_loss,
    supervised_contrastive_loss,
)
from vicount.loss import _dual_newton_step


def _contrastive_oracle(s, m, scale):
    """Direct summation of the defining formula in extended precision."""
    s = np.asarray(s, dtype=np.longdouble)
    n_i, n_j = s.shape
    e = np.exp(scale * s)
    c = np.empty((m, m), dtype=np.longdouble)
    for u in range(m):
        for v in range(m):
            own = e[u, v]
            row_rivals = sum(e[up, v] for up in range(n_i) if up != u)
            col_rivals = sum(e[u, vp] for vp in range(n_j) if vp != v)
            c[u, v] = own / (own + row_rivals + col_rivals)
    return np.asarray(c, dtype=np.float64)


class TestContrastiveSimilarity:
    def test_sharp_scale_identifies_diagonal(self):
        blocks = SimilarityBlocks(np.eye(2), 2)
        c = contrastive_similarity(blocks, temperature=100.0)
        assert c[0, 0] > 0.999 and c[1, 1] > 0.999
        assert c[0, 1] < 1e-3 and c[1, 0] < 1e-3

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n_i = int(rng.integers(1, 7))
            n_j = int(rng.integers(1, 8))
            m = int(rng.integers(1, min(n_i, n_j) + 1))
            s = rng.uniform(-1, 1, (n_i, n_j))
            for scale in (1.0, 10.0):
                got = contrastive_similarity(SimilarityBlocks(s, m), scale)
                want = _contrastive_oracle(s, m, scale)
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(32)
        blocks = random_similarity_blocks(rng, 5, 6, 3)
        c = contrastive_similarity(blocks, 10.0)
        assert np.all(c > 0) and np.all(c <= 1.0)

    def test_single_isolated_pair_is_one(self):
        blocks = SimilarityBlocks(np.array([[0.37]]), 1)
        c = contrastive_similarity(blocks, 10.0)
        assert c[0, 0] == pytest.approx(1.0)

    def test_no_shared_raises(self):
        blocks = SimilarityBlocks(np.ones((2, 3)), 0)
        with pytest.raises(DataError, match="no shared individuals"):
            contrastive_similarity(blocks, 10.0)

    def test_extreme_scale_does_not_overflow(self):
        blocks = SimilarityBlocks(np.array([[1.0, -1.0], [-1.0, 1.0]]), 2)
        c = contrastive_similarity(blocks, 400.0)
        assert np.all(np.isfinite(c))


class TestSinkhorn:
    def test_recovers_obvious_permutation(self):
        plan = sinkhorn(np.array([[0.0, 1.0], [1.0, 0.0]]), reg=0.05)
        assert plan.converged
        np.testing.assert_allclose(plan.omega, np.eye(2), atol=1e-4)

    def test_marginals_at_convergence(self):
        rng = np.random.default_rng(33)
        for n in (1, 2, 5, 13, 300, 600):
            plan = sinkhorn(rng.uniform(0, 1, (n, n)), reg=0.05)
            assert plan.converged
            np.testing.assert_allclose(plan.omega.sum(axis=1), np.ones(n), atol=1e-6)
            np.testing.assert_allclose(plan.omega.sum(axis=0), np.ones(n), atol=1e-6)
            assert np.all(plan.omega >= 0)

    def test_sharp_large_pair_converges_fast(self):
        # a sharp, large pair (m=435): scaling sweeps alone exhaust the
        # default budget here, so this holds only if Newton steps run at
        # this size
        stream = generate_scene(
            SimConfig(num_identities=900, num_frames=2, feature_dim=64,
                      feature_noise_sigma=0.1, seed=0)
        )
        (blocks,) = pair_blocks(stream)
        assert blocks.m == 435
        plan = sinkhorn(1.0 - contrastive_similarity(blocks, 10.0), 0.01)
        assert plan.converged
        assert plan.iterations_used < 50

    def test_single_cell(self):
        plan = sinkhorn(np.array([[0.42]]), reg=0.5)
        assert plan.converged
        np.testing.assert_allclose(plan.omega, [[1.0]], atol=1e-12)

    def test_budget_exhaustion_flagged(self):
        cost = np.random.default_rng(0).uniform(0, 1, (6, 6))
        plan = sinkhorn(cost, reg=1e-4, max_iters=3, tol=1e-12)
        assert not plan.converged
        assert plan.iterations_used == 3

    def test_invalid_inputs(self):
        with pytest.raises(NumericalError, match="invalid cost matrix"):
            sinkhorn(np.array([[np.nan]]), reg=0.1)
        with pytest.raises(NumericalError, match="invalid cost matrix"):
            sinkhorn(np.zeros((2, 3)), reg=0.1)
        with pytest.raises(NumericalError, match="invalid cost matrix"):
            sinkhorn(np.zeros((0, 0)), reg=0.1)
        with pytest.raises(NumericalError):
            sinkhorn(np.zeros((2, 2)), reg=0.0)
        with pytest.raises(NumericalError, match="iteration budget"):
            sinkhorn(np.zeros((2, 2)), reg=0.1, max_iters=-1)
        for tol in (np.nan, 0.0, -1e-6, np.inf):
            with pytest.raises(NumericalError, match="tolerance"):
                sinkhorn(np.zeros((2, 2)), reg=0.1, tol=tol)
        plan = sinkhorn(np.random.default_rng(0).uniform(0, 1, (3, 3)), reg=0.1, max_iters=0)
        assert not plan.converged
        assert plan.iterations_used == 0

    def test_newton_steps_are_matrix_free(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense linear algebra in the transport solve")

        for name in ("solve", "lstsq", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        stream = generate_scene(
            SimConfig(num_identities=900, num_frames=2, feature_dim=64,
                      feature_noise_sigma=0.1, seed=0)
        )
        (blocks,) = pair_blocks(stream)
        assert blocks.m == 435
        uniform = np.random.default_rng(36).uniform(0, 1, (600, 600))
        for cost in (1.0 - contrastive_similarity(blocks, 10.0), uniform):
            plan = sinkhorn(cost, 0.01)
            assert plan.converged
            assert plan.iterations_used < 50

    def test_deterministic(self):
        cost = np.random.default_rng(34).uniform(0, 1, (7, 7))
        p1 = sinkhorn(cost, reg=0.02)
        p2 = sinkhorn(cost.copy(), reg=0.02)
        np.testing.assert_array_equal(p1.omega, p2.omega)
        assert p1.iterations_used == p2.iterations_used


def _schur_system(plan):
    """Dense row system of the dual Newton step, with the solver's 1e-12 ridges."""
    r, c = plan.sum(axis=1), plan.sum(axis=0)
    col = c + 1e-12
    schur = np.diag(r + 1e-12) - (plan / col) @ plan.T
    return schur, (1.0 - r) - plan @ ((1.0 - c) / col), col


class TestNewtonDirection:
    # With err = inf the full step is accepted, so the potentials, started
    # at zero, come back holding the direction itself.
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(35)
        for n in range(2, 61):
            plan = rng.uniform(0.05, 1.0, (n, n)) / n * rng.uniform(0.5, 2.0)
            f, g = np.zeros(n), np.zeros(n)
            assert _dual_newton_step(np.log(plan), plan, np.inf, f, g) is not None
            schur, rhs, col = _schur_system(plan)
            assert np.linalg.norm(schur @ f - rhs) <= 1e-3 * np.linalg.norm(rhs)
            oracle = np.linalg.lstsq(schur, rhs, rcond=None)[0]
            # the system is singular along the constant vector
            want = oracle - oracle.mean()
            assert np.linalg.norm(f - f.mean() - want) <= 1e-2 * np.linalg.norm(want)
            np.testing.assert_allclose(g, ((1.0 - plan.sum(axis=0)) - plan.T @ f) / col)

    def test_doubly_stochastic_plan_gives_zero_step(self):
        plan = np.full((4, 4), 0.25)
        _, rhs, _ = _schur_system(plan)
        assert not np.any(rhs)
        f, g = np.zeros(4), np.zeros(4)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            trial, err = _dual_newton_step(np.log(plan), plan, np.inf, f, g)
        assert err == 0.0
        np.testing.assert_array_equal(trial, plan)
        assert not np.any(f) and not np.any(g)

    def test_vanishing_preconditioner_diagonal_is_floored(self):
        # at this mass the 1e-12 ridges round away, and the diagonal of the
        # Schur system and its right-hand side both come out exactly 0
        mass = 2.0**20
        plan = np.array([[mass]])
        f, g = np.zeros(1), np.zeros(1)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            _, err = _dual_newton_step(np.log(plan), plan, np.inf, f, g)
        assert f[0] == 0.0
        assert g[0] == pytest.approx((1.0 - mass) / mass)
        assert err < mass - 1.0


class TestRoundToPermutation:
    def test_greedy_clean_case(self):
        omega = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert round_to_permutation(omega).tolist() == [0, 1]

    def test_conflict_resolved_by_assignment(self):
        omega = np.array([[0.6, 0.4], [0.7, 0.3]])
        # both rows argmax to column 0; total mass favors (0->1, 1->0)
        assert round_to_permutation(omega).tolist() == [1, 0]


class TestSoftContrastiveLoss:
    def test_range_and_raw(self):
        rng = np.random.default_rng(35)
        cfg = LossConfig()
        for _ in range(10):
            m = int(rng.integers(1, 5))
            blocks = random_similarity_blocks(rng, m + int(rng.integers(0, 3)),
                                              m + int(rng.integers(0, 3)), m)
            out = soft_contrastive_loss(blocks, cfg)
            assert -1.0 - 1e-9 <= out.loss <= 0.0
            assert out.raw == pytest.approx(out.loss * m)
            assert out.plan.omega.shape == (m, m)

    def test_empty_shared_contributes_zero(self):
        blocks = SimilarityBlocks(np.ones((2, 3)), 0)
        out = soft_contrastive_loss(blocks, LossConfig())
        assert out.loss == 0.0 and out.raw == 0.0
        assert out.plan.omega.shape == (0, 0)

    def test_clean_match_beats_degraded(self):
        cfg = LossConfig(temperature=10.0, sinkhorn_reg=1e-2, sinkhorn_max_iters=2000)
        ideal = np.eye(3)
        degraded = ideal.copy()
        degraded[0, 0] = 0.5
        li = soft_contrastive_loss(SimilarityBlocks(ideal, 3), cfg).loss
        ld = soft_contrastive_loss(SimilarityBlocks(degraded, 3), cfg).loss
        assert li < ld

    def test_frozen_plan_consistency(self):
        rng = np.random.default_rng(36)
        cfg = LossConfig()
        blocks = random_similarity_blocks(rng, 4, 6, 3)
        out = soft_contrastive_loss(blocks, cfg)
        recomputed = frozen_plan_loss(blocks, out.plan.omega, cfg)
        hinge = hinge_loss(blocks.s3, cfg.hinge_threshold)
        assert recomputed == pytest.approx(out.loss + hinge, abs=1e-12)


class TestSupervisedContrastiveLoss:
    def test_identity_on_clean_diagonal(self):
        cfg = LossConfig(sinkhorn_reg=1e-3, sinkhorn_max_iters=5000)
        blocks = SimilarityBlocks(np.eye(4), 4)
        sup = supervised_contrastive_loss(blocks, (0, 1, 2, 3), cfg)
        soft = soft_contrastive_loss(blocks, cfg).loss
        assert sup == pytest.approx(soft, abs=1e-3)

    def test_best_permutation_is_a_floor(self):
        # a soft plan is a convex mixture of permutations, so the best hard
        # assignment scores at least as well, up to the marginal tolerance of
        # the solver (row sums of the plan are only within 1e-6 of one)
        rng = np.random.default_rng(37)
        cfg = LossConfig(sinkhorn_reg=1e-3, sinkhorn_max_iters=5000)
        for _ in range(5):
            blocks = random_similarity_blocks(rng, 4, 5, 3)
            soft = soft_contrastive_loss(blocks, cfg).loss
            best = min(
                supervised_contrastive_loss(blocks, perm, cfg)
                for perm in itertools.permutations(range(3))
            )
            assert best <= soft + 1e-5

    def test_rejects_non_permutation(self):
        blocks = SimilarityBlocks(np.eye(3), 3)
        with pytest.raises(DataError, match="permutation"):
            supervised_contrastive_loss(blocks, (0, 0, 1), LossConfig())

    def test_empty_shared(self):
        blocks = SimilarityBlocks(np.ones((1, 2)), 0)
        assert supervised_contrastive_loss(blocks, (), LossConfig()) == 0.0


class TestHingeLoss:
    def test_hand_example(self):
        val = hinge_loss(np.array([[0.1, 0.9], [0.3, 0.2]]), 0.3)
        assert val == pytest.approx(0.15, abs=1e-12)

    def test_single_entry(self):
        assert hinge_loss(np.array([[0.5]]), 0.2) == pytest.approx(0.3, abs=1e-12)

    def test_empty_block(self):
        assert hinge_loss(np.zeros((0, 3)), 0.2) == 0.0

    def test_all_below_threshold(self):
        assert hinge_loss(np.full((2, 2), 0.1), 0.3) == 0.0

    def test_threshold_domain(self):
        with pytest.raises(DataError):
            hinge_loss(np.zeros((1, 1)), 1.0)
        with pytest.raises(DataError):
            hinge_loss(np.zeros((1, 1)), -0.1)


class TestGroupMatchingLoss:
    def test_sums_pair_terms(self):
        rng = np.random.default_rng(38)
        cfg = LossConfig()
        pairs = [random_similarity_blocks(rng, 4, 5, 2) for _ in range(3)]
        total = group_matching_loss(pairs, cfg)
        expected = sum(
            soft_contrastive_loss(b, cfg).loss + hinge_loss(b.s3, cfg.hinge_threshold)
            for b in pairs
        )
        assert total == pytest.approx(expected, abs=1e-12)

    def test_no_pairs(self):
        assert group_matching_loss([], LossConfig()) == 0.0

    def test_m_zero_pairs_add_hinge_only(self):
        s = np.full((2, 2), 0.5)
        blocks = SimilarityBlocks(s, 0)
        cfg = LossConfig(hinge_threshold=0.2)
        assert group_matching_loss([blocks], cfg) == pytest.approx(0.3, abs=1e-12)


class TestLossConfigValidation:
    def test_bad_values(self):
        with pytest.raises(DataError):
            LossConfig(temperature=0.0)
        with pytest.raises(DataError):
            LossConfig(hinge_threshold=1.0)
        with pytest.raises(DataError):
            LossConfig(sinkhorn_reg=-1.0)
        with pytest.raises(DataError):
            LossConfig(sinkhorn_max_iters=0)
        with pytest.raises(DataError):
            LossConfig(sinkhorn_tol=0.0)
        with pytest.raises(DataError):
            LossConfig(sinkhorn_tol=np.inf)


def _fd_gradient(blocks, cfg, omega, h):
    s = blocks.full
    grad = np.zeros_like(s)
    for idx in np.ndindex(s.shape):
        bumped = s.copy()
        bumped[idx] += h
        plus = frozen_plan_loss(
            SimilarityBlocks(bumped, blocks.m), omega, cfg
        )
        bumped[idx] = s[idx] - h
        minus = frozen_plan_loss(
            SimilarityBlocks(bumped, blocks.m), omega, cfg
        )
        grad[idx] = (plus - minus) / (2.0 * h)
    return grad


class TestLossGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(39)
        cfg = LossConfig()
        worst = 0.0
        for _ in range(12):
            n_i = int(rng.integers(1, 6))
            n_j = int(rng.integers(1, 7))
            m = int(rng.integers(1, min(n_i, n_j) + 1))
            blocks = random_similarity_blocks(rng, n_i, n_j, m)
            # keep the hinge away from its kink, where central differences
            # stop being meaningful
            if blocks.s3.size and np.any(
                np.abs(blocks.s3 - cfg.hinge_threshold) < 1e-3
            ):
                continue
            out = soft_contrastive_loss(blocks, cfg)
            analytic = loss_gradient(blocks, out.plan.omega, cfg)
            numeric = _fd_gradient(blocks, cfg, out.plan.omega, 1e-5)
            denom = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-6)
            worst = max(worst, float(np.max(np.abs(analytic - numeric)) / denom))
        assert worst < 1e-4

    def test_hinge_region_gradient(self):
        # the bottom-right block feels only the hinge, so each entry above
        # the threshold contributes exactly 1/(rest_i*rest_j)
        full = np.zeros((3, 3))
        full[0, 0] = 1.0
        full[1:, 1:] = np.array([[0.5, 0.1], [0.1, 0.5]])
        blocks = SimilarityBlocks(full, 1)
        grad = loss_gradient(blocks, np.ones((1, 1)), LossConfig(hinge_threshold=0.2))
        np.testing.assert_allclose(
            grad[1:, 1:], np.array([[0.25, 0.0], [0.0, 0.25]]), atol=1e-12
        )

    def test_plan_shape_must_match_shared_count(self):
        # a 1x1 plan would broadcast silently against the 2x2 shared block
        blocks = random_similarity_blocks(np.random.default_rng(40), 3, 3, 2)
        with pytest.raises(DataError, match="plan shape"):
            loss_gradient(blocks, np.ones((1, 1)), LossConfig())

    def test_m_zero_rejected(self):
        blocks = SimilarityBlocks(np.ones((2, 2)), 0)
        with pytest.raises(DataError, match="no shared individuals"):
            loss_gradient(blocks, np.zeros((0, 0)), LossConfig())


class TestPseudoTrajectories:
    @staticmethod
    def _scene(seed, identities=10, frames=8):
        return generate_scene(
            SimConfig(
                num_identities=identities,
                num_frames=frames,
                max_base_similarity=0.3,
                seed=seed,
            )
        )

    def test_matches_respect_ground_truth(self):
        for seed in range(4):
            stream = self._scene(seed)
            result = pseudo_trajectories(stream, LossConfig())
            for pm, prev, curr in zip(
                result.pairs, stream.frames, stream.frames[1:]
            ):
                assert pm.frame_prev == prev.frame_index
                assert pm.frame_curr == curr.frame_index
                for u, v in pm.matches:
                    assert prev.detections[u].gt_id == curr.detections[v].gt_id

    def test_every_detection_in_exactly_one_trajectory(self):
        stream = self._scene(5)
        result = pseudo_trajectories(stream, LossConfig())
        seen = set()
        for traj in result.trajectories:
            frames = [f for f, _ in traj]
            assert frames == sorted(frames)
            for step in traj:
                assert step not in seen
                seen.add(step)
        expected = {
            (fr.frame_index, d)
            for fr in stream.frames
            for d in range(len(fr))
        }
        assert seen == expected

    def test_one_trajectory_per_identity_without_reentry(self):
        stream = self._scene(6, identities=12)
        result = pseudo_trajectories(stream, LossConfig())
        assert len(result.trajectories) == 12

    def test_empty_stream(self):
        result = pseudo_trajectories(DetectionStream((), 1.0), LossConfig())
        assert result.pairs == ()
        assert result.trajectories == ()
