"""Loss-side tests: contrastive similarity, transport solver, pair losses."""

import itertools
import sys
import tracemalloc
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
    pair_objective,
    parse_stream,
    pseudo_trajectories,
    random_similarity_blocks,
    round_to_permutation,
    sinkhorn,
    soft_contrastive_loss,
    supervised_contrastive_loss,
    write_stream,
)
import vicount.loss as loss_module
from vicount.cli import _fmt, main
from vicount.loss import _ScaledPlan, _logsumexp, _violation
from vicount.stream import _read_only


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

    def test_underflowing_row_and_column_raise(self):
        # at scale 1000 every entry but the last underflows under the shift,
        # so shared row 0 and column 0 have nothing left to normalize by
        blocks = SimilarityBlocks(np.array([[0.0, 0.0], [0.0, 1.0]]), 1)
        with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="underflows at temperature 1000"):
                contrastive_similarity(blocks, 1000.0)
            with pytest.raises(NumericalError, match="underflows at temperature 1000"):
                loss_gradient(blocks, np.ones((1, 1)), LossConfig(temperature=1000.0))

    @pytest.mark.parametrize("call", [
        lambda b, cfg: contrastive_similarity(b, cfg.temperature),
        lambda b, cfg: frozen_plan_loss(b, np.eye(b.m), cfg),
        lambda b, cfg: loss_gradient(b, np.eye(b.m), cfg),
        soft_contrastive_loss,
    ], ids=["contrastive_similarity", "frozen_plan_loss", "loss_gradient",
            "soft_contrastive_loss"])
    @pytest.mark.parametrize("top", [None, 2.0])
    def test_an_overflowing_scale_or_shift_is_the_underflow_error(self, call, top):
        # at temperature 1e308 the shift overflows to -inf for entries of
        # opposite signs; an entry of 2 overflows in the scaling itself, and
        # the shift then turns it into NaN
        blocks = random_similarity_blocks(np.random.default_rng(0), 5, 6, 3)
        if top is not None:
            full = blocks.full.copy()
            full[4, 5] = top
            blocks = SimilarityBlocks(full, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"underflows at temperature 1e\+308"):
                call(blocks, LossConfig(temperature=1e308))


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

    def test_negative_costs_do_not_overflow(self):
        # exp(-cost / reg) overflows here; the solve starts in the log domain
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = sinkhorn(np.full((3, 3), -10.0), 0.01)
        assert plan.converged
        np.testing.assert_allclose(plan.omega, np.full((3, 3), 1 / 3), atol=1e-6)

    def test_overflowing_kernel_raises(self):
        # -cost / reg overflows for any reg below about 1e-308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="reg 5e-324 is too small"):
                sinkhorn([[0.2, 0.9], [0.7, 0.1]], 5e-324)
        # a zero cost is a zero kernel at any reg
        assert sinkhorn(np.zeros((2, 2)), 5e-324).converged

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
        with pytest.raises(NumericalError, match="max_iters must be at least 0"):
            sinkhorn(np.zeros((2, 2)), reg=0.1, max_iters=-1)
        for tol in (np.nan, 0.0, -1e-6, np.inf):
            with pytest.raises(NumericalError, match="tol must be"):
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

    def test_sweeps_rescale_without_exp(self, monkeypatch):
        # the CLI regime at m >= 400: one exp of the whole kernel at the
        # start, and none in a sweep or in any Newton trial
        stream = generate_scene(
            SimConfig(num_identities=900, num_frames=2, feature_dim=64,
                      feature_noise_sigma=0.1, seed=0)
        )
        (blocks,) = pair_blocks(stream)
        cost = 1.0 - contrastive_similarity(blocks, LossConfig().temperature)
        m = blocks.m
        assert m >= 400
        full_exps = []
        real_exp = np.exp

        def exp(x, *args, **kwargs):
            full_exps.append(np.shape(x) == (m, m))
            return real_exp(x, *args, **kwargs)

        def counted(fn, log):
            def wrapper(*args):
                before = sum(full_exps)
                out = fn(*args)
                log.append(sum(full_exps) - before)
                return out
            return wrapper

        in_sweeps, in_steps = [], []
        monkeypatch.setattr(np, "exp", exp)
        monkeypatch.setattr(_ScaledPlan, "sweep", counted(_ScaledPlan.sweep, in_sweeps))
        monkeypatch.setattr(_ScaledPlan, "newton_step",
                            counted(_ScaledPlan.newton_step, in_steps))
        plan = sinkhorn(cost, LossConfig().sinkhorn_reg)
        assert plan.converged
        assert len(in_sweeps) == 5 and not any(in_sweeps)
        assert in_steps and not any(in_steps)
        assert sum(full_exps) == 1

    def test_plan_is_handed_over_read_only(self, monkeypatch):
        # a read-only plan is kept by TransportPlan, so it is never copied
        writeable = []

        def record(values):
            writeable.append(values.flags.writeable)
            return _read_only(values)

        monkeypatch.setattr(loss_module, "_read_only", record)
        plan = sinkhorn(np.random.default_rng(37).uniform(0, 1, (9, 9)), reg=0.05)
        assert writeable == [False]
        assert not plan.omega.flags.writeable

    def test_underflowed_column_reanchors(self, monkeypatch):
        # exp(-10 / 0.01) underflows, so the starting plan has an all-zero
        # column; the sweep goes back to the log domain for it
        cost = np.random.default_rng(38).uniform(0, 1, (6, 6))
        cost[:, 2] = 10.0
        lse_calls = []
        monkeypatch.setattr(loss_module, "_logsumexp",
                            lambda x, axis: lse_calls.append(axis) or _logsumexp(x, axis))
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            plan = sinkhorn(cost, 0.01)
        assert lse_calls
        assert plan.converged
        np.testing.assert_allclose(plan.omega.sum(axis=0), np.ones(6), atol=1e-6)
        assert plan.omega[:, 2].sum() == pytest.approx(1.0, abs=1e-6)
        assert _sweep_gap(cost, 0.01) <= 1e-12

    def test_far_moved_potentials_reanchor(self, monkeypatch):
        # no sum is zero here, but row 1 of the starting plan holds only
        # e^-740, a subnormal with a few bits, beside e^-750, which underflowed
        # to 0; rescaling by it would move the potentials by 740, past the
        # re-anchor bound, so that half is taken in the log domain
        cost = np.array([[0.0, 1.0], [0.75, 0.74]])
        lse_calls = []
        monkeypatch.setattr(loss_module, "_logsumexp",
                            lambda x, axis: lse_calls.append(axis) or _logsumexp(x, axis))
        assert _sweep_gap(cost, 1e-3) <= 1e-12
        assert lse_calls

    @pytest.mark.parametrize("reg", [1e-3, 1e-2, 0.05])
    def test_sweeps_match_log_domain_reference(self, reg):
        rng = np.random.default_rng(39)
        for n in range(1, 41):
            for low in (-1.0, 0.0):
                cost = rng.uniform(low, 1.0, (n, n))
                assert _sweep_gap(cost, reg) <= 1e-12, f"n={n} reg={reg} low={low}"

    @pytest.mark.parametrize("n", [40, 200])
    def test_newton_steps_past_the_drift_bound_reanchor(self, n, monkeypatch):
        # at reg 1e-3 accepted Newton steps carry the potentials more than
        # _REANCHOR_DRIFT from the last exponential, so a step is judged on a
        # fresh exponential of its potentials, which becomes the kernel
        cost = np.random.default_rng(0).uniform(0, 1, (n, n))
        callers = []
        restart = _ScaledPlan._restart

        def record(self):
            callers.append(sys._getframe(1).f_code.co_name)
            restart(self)

        monkeypatch.setattr(_ScaledPlan, "_restart", record)
        tol = LossConfig().sinkhorn_tol
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            plan = sinkhorn(cost, 1e-3, tol=tol)
        assert "newton_step" in callers
        assert plan.converged
        assert np.max(np.abs(plan.omega.sum(axis=1) - 1.0)) < tol
        assert np.max(np.abs(plan.omega.sum(axis=0) - 1.0)) < tol

    def test_an_overflowing_newton_trial_is_rejected(self, monkeypatch):
        # at reg 1e-3 some Newton trials of this cost pass the drift bound
        # and their fresh exponential overflows, in a cell or in a row or
        # column sum; each is rejected without a warning, and the solve goes on
        cost = np.random.default_rng(29).uniform(0, 1, (40, 40))
        overflowed, accepted = [], []
        exp, newton_step = _ScaledPlan._exp, _ScaledPlan.newton_step

        def record_trial(self, f, g, out):
            trial = exp(self, f, g, out)
            if sys._getframe(1).f_code.co_name == "newton_step":
                with np.errstate(over="ignore"):
                    sums = np.concatenate((trial.sum(axis=1), trial.sum(axis=0)))
                overflowed.append(not np.isfinite(sums).all())
            return trial

        def record_step(self, r, c, err):
            out = newton_step(self, r, c, err)
            if out is not None:
                accepted.append(np.isfinite(self.kernel).all() and np.isfinite(out[2]))
            return out

        monkeypatch.setattr(_ScaledPlan, "_exp", record_trial)
        monkeypatch.setattr(_ScaledPlan, "newton_step", record_step)
        tol = LossConfig().sinkhorn_tol
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = sinkhorn(cost, 1e-3, tol=tol)
        assert any(overflowed)
        assert accepted and all(accepted)
        assert plan.converged
        assert np.max(np.abs(plan.omega.sum(axis=1) - 1.0)) < tol
        assert np.max(np.abs(plan.omega.sum(axis=0) - 1.0)) < tol

    def test_deterministic(self):
        cost = np.random.default_rng(34).uniform(0, 1, (7, 7))
        p1 = sinkhorn(cost, reg=0.02)
        p2 = sinkhorn(cost.copy(), reg=0.02)
        np.testing.assert_array_equal(p1.omega, p2.omega)
        assert p1.iterations_used == p2.iterations_used


def _log_domain_sweeps(cost, reg, sweeps):
    """Potentials after sweeps of the log-domain scaling update from zero."""
    mr = -np.asarray(cost, dtype=np.float64) / reg
    f = np.zeros(len(mr))
    g = np.zeros(len(mr))
    for _ in range(sweeps):
        f = -_logsumexp(mr + g[None, :], axis=1)
        g = -_logsumexp(mr + f[:, None], axis=0)
    return f, g


def _sweep_gap(cost, reg, sweeps=5):
    """Largest gap between the solver's sweeps and the log-domain reference.

    Both start from zero potentials, the solver's from the kernel
    exp(-cost / reg); the gap is relative to the largest reference potential
    (or 1), the scale at which their rounding differs.
    """
    neg = -np.asarray(cost, dtype=np.float64)
    with np.errstate(over="ignore"):
        scaled = _ScaledPlan(neg, 0.0, reg, np.exp(neg / reg))
    rows = scaled.row_sums()
    for _ in range(sweeps):
        rows = scaled.sweep(rows)
    ref_f, ref_g = _log_domain_sweeps(cost, reg, sweeps)
    scale = max(np.max(np.abs(ref_f)), np.max(np.abs(ref_g)), 1.0)
    return max(np.max(np.abs(scaled.f - ref_f)), np.max(np.abs(scaled.g - ref_g))) / scale


def _schur_system(plan):
    """Dense row system of the dual Newton step, with the solver's 1e-12 ridges."""
    r, c = plan.sum(axis=1), plan.sum(axis=0)
    col = c + 1e-12
    schur = np.diag(r + 1e-12) - (plan / col) @ plan.T
    return schur, (1.0 - r) - plan @ ((1.0 - c) / col), col


def _newton_step(plan):
    """The solver's Newton step with plan as its kernel, log(plan) standing in for -cost / reg.

    Returns the step's result and the _ScaledPlan, whose potentials started at zero.
    """
    scaled = _ScaledPlan(np.log(plan), 0.0, 1.0, plan.copy())
    return scaled.newton_step(plan.sum(axis=1), plan.sum(axis=0), np.inf), scaled


class TestNewtonDirection:
    # With err = inf the full step is accepted, so the potentials, started
    # at zero, come back holding the direction itself.
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(35)
        for n in range(2, 61):
            plan = rng.uniform(0.05, 1.0, (n, n)) / n * rng.uniform(0.5, 2.0)
            accepted, scaled = _newton_step(plan)
            assert accepted is not None
            f, g = scaled.f, scaled.g
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
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            (r, c, err), scaled = _newton_step(plan)
        assert err == 0.0
        trial = scaled.plan()
        np.testing.assert_array_equal(trial, plan)
        np.testing.assert_array_equal(r, trial.sum(axis=1))
        np.testing.assert_array_equal(c, trial.sum(axis=0))
        assert not np.any(scaled.f) and not np.any(scaled.g)

    def test_vanishing_preconditioner_diagonal_is_floored(self):
        # at this mass the 1e-12 ridges round away, and the diagonal of the
        # Schur system and its right-hand side both come out exactly 0
        mass = 2.0**20
        plan = np.array([[mass]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            (*_, err), scaled = _newton_step(plan)
        assert scaled.f[0] == 0.0
        assert scaled.g[0] == pytest.approx((1.0 - mass) / mass)
        assert err < mass - 1.0

    def test_non_finite_trial_never_decreases_the_violation(self):
        # the backtracking relies on this instead of testing each trial for finiteness
        for bad in (np.inf, np.nan):
            plan = np.full((3, 3), 1.0 / 3.0)
            plan[1, 2] = bad
            assert not _violation(plan.sum(axis=1), plan.sum(axis=0)) < np.finfo(float).max


class TestRoundToPermutation:
    def test_greedy_clean_case(self):
        omega = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert round_to_permutation(omega).tolist() == [0, 1]

    def test_conflict_resolved_by_assignment(self):
        omega = np.array([[0.6, 0.4], [0.7, 0.3]])
        # both rows argmax to column 0; total mass favors (0->1, 1->0)
        assert round_to_permutation(omega).tolist() == [1, 0]

    def test_nan_plan_raises(self):
        # the diagonal argmax once passed as a permutation without a check
        with pytest.raises(NumericalError, match="non-finite"):
            round_to_permutation(np.array([[np.nan, 0.0], [0.0, np.nan]]))


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

    def test_non_finite_similarity_is_a_data_error(self):
        # refused where the blocks are built, not blamed on the temperature
        with pytest.raises(DataError, match=r"full\[0, 0\] must be finite, got nan"):
            soft_contrastive_loss(SimilarityBlocks([[np.nan, 0], [0, 1]], 1), LossConfig())

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

    def test_is_the_frozen_plan_contrast_at_the_permutation_plan(self):
        # the m-by-m plan is summed where the given pairs alone used to be,
        # so the two sums differ only in rounding
        rng = np.random.default_rng(38)
        cfg = LossConfig()
        for m in range(1, 40):
            blocks = random_similarity_blocks(rng, m + 2, m + 1, m)
            perm = rng.permutation(m)
            sup = supervised_contrastive_loss(blocks, perm, cfg)
            hinge = hinge_loss(blocks.s3, cfg.hinge_threshold)
            assert sup + hinge == frozen_plan_loss(blocks, np.eye(m)[perm], cfg)
            c = contrastive_similarity(blocks, cfg.temperature)
            assert abs(sup + np.sum(c[np.arange(m), perm]) / m) <= 1e-15

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

    @pytest.mark.parametrize("s3, name", [
        ([[np.nan, 0.5]], r"s3\[0, 0\] must be finite, got nan"),
        ([[0.5], [np.inf]], r"s3\[1, 0\] must be finite, got inf"),
        ([[0.5, -np.inf]], r"s3\[0, 1\] must be finite, got -inf"),
    ], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_entry_is_refused_and_named(self, s3, name):
        with pytest.raises(DataError, match=name):
            hinge_loss(s3, 0.2)


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


class TestPairObjective:
    def test_one_objective_for_library_cli_and_frozen_plan(self, tmp_path, capsys):
        path = tmp_path / "scene.jsonl"
        write_stream(generate_scene(SimConfig(num_identities=12, num_frames=5,
                                              feature_noise_sigma=0.05, seed=3)), path)
        cfg = LossConfig()
        pairs = pair_blocks(parse_stream(path))
        objectives = [pair_objective(blocks, cfg) for blocks in pairs]
        total = 0.0
        for obj in objectives:
            assert obj.total == obj.loss + obj.hinge
            total += obj.loss + obj.hinge
        assert group_matching_loss(pairs, cfg) == total
        assert main(["loss", "--in", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"total {_fmt(total)}"
        assert any(blocks.m and blocks.s3.size for blocks in pairs)
        for blocks, obj in zip(pairs, objectives):
            held = frozen_plan_loss(blocks, obj.plan.omega, cfg)
            assert held == pytest.approx(obj.loss + obj.hinge, abs=1e-12)

    def test_parts_match_the_public_terms(self):
        rng = np.random.default_rng(39)
        cfg = LossConfig(hinge_threshold=0.1)
        full = rng.uniform(-1.0, 1.0, size=(5, 6))
        full[3:, 3:] = rng.uniform(0.0, 1.0, size=(2, 3))  # some outflow/inflow above 0.1
        blocks = SimilarityBlocks(full, 3)
        obj = pair_objective(blocks, cfg)
        sc = soft_contrastive_loss(blocks, cfg)
        assert obj.loss == sc.loss and obj.hinge > 0
        assert obj.hinge == hinge_loss(blocks.s3, cfg.hinge_threshold)
        assert np.array_equal(obj.plan.omega, sc.plan.omega)

    def test_pair_allocates_only_what_it_keeps(self):
        # the pair of test_newton_steps_are_matrix_free: m = 435 of 659 x 676
        stream = generate_scene(
            SimConfig(num_identities=900, num_frames=2, feature_dim=64,
                      feature_noise_sigma=0.1, seed=0)
        )
        (blocks,) = pair_blocks(stream)
        assert blocks.m == 435 and blocks.full.shape == (659, 676)
        tracemalloc.start()
        try:
            pair_objective(blocks, LossConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 3.4 MiB of exponentials with a 1.45 MiB denominator, which the contrast is
        # written over, then three m x m arrays in the solve: contrast, kernel and its square
        assert peak <= 6.5 * 2**20

    def test_a_pair_holds_one_square_array_beside_its_exponentials(self):
        # m = 399 of 485 x 718: the contrast phase holds the exponentials e, one
        # m x m array of denominators that the contrast is written over, and a
        # mask of it; the solve holds the contrast, the kernel and its square
        stream = generate_scene(
            SimConfig(num_identities=900, num_frames=3, feature_dim=64,
                      feature_noise_sigma=0.1, seed=0)
        )
        blocks, _ = pair_blocks(stream)
        (n_i, n_j), m = blocks.full.shape, blocks.m
        assert (n_i, n_j, m) == (485, 718, 399)
        tracemalloc.start()
        try:
            soft_contrastive_loss(blocks, LossConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * max(n_i * n_j + m * m, 3 * m * m) + m * m + 64 * 2**10


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

    @pytest.mark.parametrize("field", ["temperature", "hinge_threshold", "sinkhorn_reg",
                                       "sinkhorn_tol"])
    @pytest.mark.parametrize("value", [True, "0.1"])
    def test_real_fields_are_numbers(self, field, value):
        kind = "a number" if field == "hinge_threshold" else "a positive number"
        with pytest.raises(DataError, match=f"{field} must be {kind}, got {value!r}"):
            LossConfig(**{field: value})

    @pytest.mark.parametrize("iters", [2.5, True])
    def test_iteration_budget_is_an_integer(self, iters):
        with pytest.raises(DataError, match="sinkhorn_max_iters must be an integer"):
            LossConfig(sinkhorn_max_iters=iters)


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
                    assert prev.gt_ids[u] == curr.gt_ids[v]

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
