"""Group-level matching losses built on entropic optimal transport.

For an adjacent frame pair with m shared individuals, a contrastive
similarity matrix over the shared blocks is turned into a transport cost,
solved for a soft matching plan, and scored. Detections that enter or leave
are pushed toward dissimilarity by a hinge penalty on the outflow-vs-inflow
block. pair_objective is one pair's term, and the total over all adjacent
pairs of a stream is the group matching loss. An analytic gradient with the
plan held fixed supports training-side use and is validated against finite
differences.
"""

from dataclasses import dataclass

import numpy as np

# round_to_permutation calls _assign; hungarian stays importable from here, where the
# benchmark's tracer (perfbench/tracer.py) looks for it.
from .assignment import _assign, _check_cost, hungarian  # noqa: F401
from .errors import DataError, NumericalError
from .stream import (DetectionStream, SimilarityBlocks, _all_finite, _array, _as_int, _finite,
                     _read_only, partition_similarity)


@dataclass(frozen=True)
class LossConfig:
    """Knobs for the pairwise losses.

    temperature is the multiplicative scale applied to similarities inside
    the exponential (an inverse temperature: larger means sharper contrast).
    hinge_threshold is the similarity level above which an outflow/inflow
    pair starts being penalized. The sinkhorn_* fields control the transport
    solver.
    """

    temperature: float = 10.0
    hinge_threshold: float = 0.2
    sinkhorn_reg: float = 0.05
    sinkhorn_max_iters: int = 500
    sinkhorn_tol: float = 1e-6

    def __post_init__(self):
        for name, interval in (("temperature", "(0, inf)"), ("hinge_threshold", "[0, 1)"),
                               ("sinkhorn_reg", "(0, inf)"), ("sinkhorn_tol", "(0, inf)")):
            object.__setattr__(self, name, _finite(getattr(self, name), name, interval))
        iters = _as_int(self.sinkhorn_max_iters, "sinkhorn_max_iters", 1)
        object.__setattr__(self, "sinkhorn_max_iters", iters)


@dataclass(frozen=True)
class TransportPlan:
    """Result of the transport solver: the plan plus convergence bookkeeping."""

    omega: np.ndarray
    converged: bool
    iterations_used: int

    def __post_init__(self):
        object.__setattr__(self, "omega", _read_only(_array(self.omega, "omega", 2)))


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(x, axis=axis)
    return m + np.log(np.sum(np.exp(x - np.expand_dims(m, axis)), axis=axis))


def _violation(r: np.ndarray, c: np.ndarray) -> float:
    """Worst marginal violation of a plan with row sums r and column sums c.

    It is NaN or inf whenever a cell of the plan is, since every cell is
    non-negative and so reaches both its row and its column sum.
    """
    return float(np.maximum(np.max(np.abs(r - 1.0)), np.max(np.abs(c - 1.0))))


def sinkhorn(cost, reg: float, max_iters: int = LossConfig.sinkhorn_max_iters,
             tol: float = LossConfig.sinkhorn_tol) -> TransportPlan:
    """Entropic-regularized balanced transport between uniform unit marginals.

    Iterates on the dual potentials of a square cost matrix until the worst
    row or column sum of the plan is within tol of 1, or the iteration
    budget runs out (converged is False then, with the last iterate
    returned). The plan is held in scaling form (Cuturi 2013): the Gibbs
    kernel, exponentiated once at the start, times a row scaling and a
    column scaling that carry the potentials, so each row or column sum is
    one matrix-vector product. A few scaling sweeps open the solve; each
    divides the row scaling by the row sums and then the column scaling by
    the column sums, and moves the potentials by their logs, with no
    exponential. Plain sweeps crawl when the plan nears a hard permutation
    (sharp reg relative to the cost gaps), so at every size each later
    iteration is a damped Newton step, or a burst of sweeps when the step
    does not reduce the violation. Each Newton step solves an n-by-n Schur
    system by preconditioned conjugate gradient without forming it, at
    O(n^2) per CG iteration, and each of its trial step lengths multiplies
    the scalings by the exponentials of the step. The scalings are folded
    back into a fresh exponential of the potentials (Schmitzer 2019) only
    when a row or column sum is zero or non-finite, or when the potentials
    would move far enough since the last exponential that a cell which
    underflowed could carry mass again. Every sweep and every Newton step
    counts toward max_iters.
    """
    arr = _check_cost(cost, square=True)
    if arr.shape[0] == 0:
        raise NumericalError("invalid cost matrix: empty")
    reg = _finite(reg, "reg", "(0, inf)", NumericalError)
    max_iters = _as_int(max_iters, "max_iters", 0, NumericalError)
    tol = _finite(tol, "tol", "(0, inf)", NumericalError)
    return _solve(np.negative(arr), 0.0, reg, max_iters, tol)


def _log_kernel(x: np.ndarray, shift: float, reg: float, out: np.ndarray) -> np.ndarray:
    """A solve's log-kernel -cost / reg, as (x - shift) / reg, written into out and returned."""
    np.subtract(x, shift, out=out)
    return np.divide(out, reg, out=out)


def _solve(x: np.ndarray, shift: float, reg: float, max_iters: int,
           tol: float) -> TransportPlan:
    """The solve sinkhorn describes, for the cost shift - x.

    x is non-empty, square and of finite entries, and is only read: the
    negated cost with shift 0, or a contrast matrix C with shift 1 for the
    cost 1 - C. No copy of the log-kernel is kept: _log_kernel computes it
    into the buffer that needs it, the kernel before an exponential or a
    log-domain sweep half. An entry of it that overflows raises
    NumericalError. Two m-by-m arrays live through the solve beside x, the
    kernel and its square, and the plan is written over the kernel once,
    when the loop ends.

    The solve has one floating-point policy, overflow and invalid operations
    unwarned: an infinite exponential or sum sends a sweep to the log domain
    or gives a Newton trial a violation that is never accepted.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _log_kernel(x, shift, reg, np.empty_like(x))
        if not np.isfinite(kernel).all():
            raise NumericalError(f"reg {reg!r} is too small: -cost / reg overflows")
        scaled = _ScaledPlan(x, shift, reg, np.exp(kernel, out=kernel))
        iters = 0
        r, c = scaled.row_sums(), scaled.col_sums()
        err = _violation(r, c)
        while not err < tol and iters < max_iters:
            sweeps = 1
            if iters >= 5:
                accepted = scaled.newton_step(r, c, err)
                iters += 1
                if accepted is not None:
                    r, c, err = accepted
                    continue
                sweeps = min(20, max_iters - iters)
            for _ in range(sweeps):
                r = scaled.sweep(r)
            iters += sweeps
            c = scaled.col_sums()
            err = _violation(r, c)
        return TransportPlan(scaled.plan(), err < tol, iters)


# A cell that underflowed at the last exponential stays below
# 2.2e-308 * e^100, about 6e-265, until some cell's log has moved this far.
_REANCHOR_DRIFT = 100.0


class _ScaledPlan:
    """One solve's plan a[:, None] * kernel * b[None, :] and its potentials f and g.

    kernel is exp(mr + f + g) at the potentials of the last exponential,
    where the log-kernel mr = (x - shift) / reg is computed afresh, and
    the scalings a and b carry every move of f and g since then, so the
    plan's row sums a * (kernel @ b) and column sums b * (a @ kernel) are
    matrix-vector products and no m-by-m array is written between
    exponentials. drift bounds how far any cell's log has moved since the
    last one. squared holds kernel * kernel for the Newton steps once
    squared_ready is set; each fresh exponential clears it.
    """

    def __init__(self, x: np.ndarray, shift: float, reg: float, kernel: np.ndarray):
        n = x.shape[0]
        self.x, self.shift, self.reg = x, shift, reg
        self.kernel = kernel
        self.squared = np.empty_like(kernel)
        self.squared_ready = False
        self.f, self.g = np.zeros(n), np.zeros(n)
        self.a, self.b = np.ones(n), np.ones(n)
        self.drift = 0.0

    def row_sums(self) -> np.ndarray:
        return self.a * (self.kernel @ self.b)

    def col_sums(self) -> np.ndarray:
        return self.b * (self.a @ self.kernel)

    def plan(self) -> np.ndarray:
        """The plan, written read-only over the kernel, which ends the solve."""
        plan = self.kernel
        plan *= self.a[:, None]
        plan *= self.b[None, :]
        plan.setflags(write=False)
        return plan

    def _exp(self, f, g, out):
        """exp(mr + f[:, None] + g[None, :]) written into out, which is returned.

        An overflow gives an infinite cell, as _solve allows. out is the kernel
        or squared, so either way squared no longer holds the kernel's square.
        """
        _log_kernel(self.x, self.shift, self.reg, out)
        out += f[:, None]
        out += g[None, :]
        self.squared_ready = False
        return np.exp(out, out=out)

    def _restart(self):
        """The kernel has just been exponentiated at f and g: unit scalings, no drift.

        The scalings are reset in place, as a sweep holds them across its halves.
        """
        self.a.fill(1.0)
        self.b.fill(1.0)
        self.drift = 0.0

    def sweep(self, rows: np.ndarray) -> np.ndarray:
        """One scaling sweep, rows then columns; returns the new row sums.

        rows holds the plan's row sums, which the caller has already taken.

        Dividing a by the row sums r and setting f -= log(r) is the
        log-domain update f = -LSE_j(mr + g) without an exponential, and the
        same holds for b, g and the columns. drift grows by the largest
        log moved. When a sum is zero or non-finite, or the drift would pass
        _REANCHOR_DRIFT, that half is taken in the log domain instead and
        the plan re-anchored as the exponential of the potentials, so no
        cell stays stuck at an underflowed 0, and the drift restarts at 0.
        The log-domain half sums mr + g or mr + f in the kernel's buffer,
        which the re-anchor overwrites.
        """
        for pot, other, scaling, axis in ((self.f, self.g, self.a, 1),
                                          (self.g, self.f, self.b, 0)):
            sums = rows if axis else self.col_sums()
            with np.errstate(divide="ignore"):
                logs = np.log(sums)
            shift = float(np.max(np.abs(logs)))
            if self.drift + shift <= _REANCHOR_DRIFT:
                pot -= logs
                scaling /= sums
                self.drift += shift
            else:
                logs = _log_kernel(self.x, self.shift, self.reg, self.kernel)
                logs += np.expand_dims(other, 1 - axis)
                pot[:] = -_logsumexp(logs, axis=axis)
                self._exp(self.f, self.g, self.kernel)
                self._restart()
        return self.row_sums()

    def newton_step(self, r: np.ndarray, c: np.ndarray, err: float):
        """One damped Newton step on the dual potentials, in place.

        The dual is concave with gradient (1 - r, 1 - c) and Hessian
        [[diag(r), P], [P^T, diag(c)]] for the plan P with row sums r and
        column sums c. Eliminating the column block leaves the n-by-n Schur
        system (diag(r) - P diag(1/c) P^T) dx = (1 - r) - P((1 - c)/c) for
        the row step, solved by Jacobi-preconditioned conjugate gradient
        without forming the matrix, at O(n^2) per CG iteration: P v is
        a * (kernel @ (b * v)), v P is b * ((a * v) @ kernel), and the
        diagonal's (P * P) v is a^2 * (squared @ (b^2 * v)). The system is
        singular along the constant vector but consistent, which CG
        tolerates. err is the plan's violation. Backtracks until the
        marginal violation strictly decreases and returns the row sums,
        column sums and violation of the updated potentials' plan, or None
        when no step length manages that. A trial scales a and b by the
        exponentials of its step, so its sums are two matrix-vector
        products; a trial that would carry the drift past _REANCHOR_DRIFT
        is exponentiated afresh into squared instead, and on acceptance
        that becomes the kernel. A trial with a non-finite cell has a NaN or
        infinite violation, which never decreases it.
        """
        kernel, a, b = self.kernel, self.a, self.b
        if not self.squared_ready:
            np.multiply(kernel, kernel, out=self.squared)
            self.squared_ready = True
        col = c + 1e-12
        row = r + 1e-12
        # With bb = b^2 / col, P diag(1/col) P^T v is a * (kernel @ (bb * ((a * v) @ kernel))).
        bb = b * b / col
        res = (1.0 - r) - a * (kernel @ (b * ((1.0 - c) / col)))
        # The diagonal is >= 0 in exact arithmetic; rounding can take it to 0 or below.
        jacobi = np.maximum(row - a * a * (self.squared @ bb), 1e-12)
        dx = np.zeros_like(r)
        p = z = res / jacobi
        rz = res @ z
        stop = 1e-3 * np.linalg.norm(res)
        for _ in range(50):
            ap = row * p - a * (kernel @ (bb * ((a * p) @ kernel)))
            pap = p @ ap
            if pap <= 0:
                break
            dx += (rz / pap) * p
            res = res - (rz / pap) * ap
            if np.linalg.norm(res) <= stop:
                break
            z = res / jacobi
            rz, rz_prev = res @ z, rz
            p = z + (rz / rz_prev) * p
        dy = ((1.0 - c) - b * ((a * dx) @ kernel)) / col
        step = 1.0
        for _ in range(30):
            sx, sy = step * dx, step * dy
            shift = float(np.max(np.abs(sx)) + np.max(np.abs(sy)))
            near = self.drift + shift <= _REANCHOR_DRIFT
            if near:
                a_try, b_try = a * np.exp(sx), b * np.exp(sy)
                r_try, c_try = a_try * (kernel @ b_try), b_try * (a_try @ kernel)
            else:
                trial = self._exp(self.f + sx, self.g + sy, self.squared)
                r_try, c_try = trial.sum(axis=1), trial.sum(axis=0)
            trial_err = _violation(r_try, c_try)
            if trial_err < err:
                self.f += sx
                self.g += sy
                if near:
                    self.a, self.b = a_try, b_try
                    self.drift += shift
                else:
                    self.kernel, self.squared = trial, kernel
                    self._restart()
                return r_try, c_try, trial_err
            step *= 0.5
        return None


def round_to_permutation(omega) -> np.ndarray:
    """Snap a transport plan to a permutation (row index -> column index).

    The permutation of largest total plan mass, by the assignment solver run
    directly on the negated plan. Its row-reduction warm start gives every
    row its first argmax whenever those already form a permutation, so that
    case needs no search. A non-finite plan raises NumericalError.
    """
    arr = _check_cost(omega, "omega", square=True)
    # A square matrix's rows are all matched in order, so the columns are the permutation.
    return _assign(np.negative(arr))[1]


def _contrastive_parts(s: np.ndarray, m: int, scale: float):
    """Shifted exponentials e of the scaled similarities and the shared block's denominators.

    The global shift cancels in every ratio downstream, so overflow is
    avoided without changing any result. The scaling, shift and exponential
    run unwarned for overflow and invalid operations: a scaled entry or a
    shifted one that overflows is infinite and its exponential 0 or NaN,
    which the denominators' check reads. A shared entry whose whole row and
    column underflow under the shift, or meet such a NaN, has no defined
    contrast and raises NumericalError. Only the m shared rows and columns
    are summed, each as numpy sums it in the whole of e: a row pairwise, and
    the columns of a block two or more wide in row order. m is at least 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.multiply(s, scale)
        e -= np.max(e)
        np.exp(e, out=e)
    e0 = e[:m, :m]
    # a lone column would be summed pairwise, unlike a column of e, so at least two are taken
    cols = e[:, :max(m, 2)].sum(axis=0)[:m]
    denom = np.add(e[:m].sum(axis=1)[:, None], cols[None, :])
    denom -= e0
    # min is NaN when any denominator is
    if not denom.min() > 0:
        i, j = np.unravel_index(np.argmin(denom), denom.shape)
        raise NumericalError(
            f"contrastive similarity underflows at temperature {scale:g}: "
            f"shared row {i} and column {j} have no mass left"
        )
    return e, denom


def _contrast(s: np.ndarray, m: int, scale: float) -> np.ndarray:
    """The contrast matrix e0 / denom of _contrastive_parts, written over the denominators."""
    e, denom = _contrastive_parts(s, m, scale)
    return np.divide(e[:m, :m], denom, out=denom)


def contrastive_similarity(blocks: SimilarityBlocks, temperature: float) -> np.ndarray:
    """Pairwise contrast among shared individuals, softly normalized.

    Each shared-pair similarity is exponentiated and divided by the sum of
    its own term plus every competing term in its row and column of the full
    similarity matrix, so entries land in (0, 1] and reward similarities
    that dominate their competitors. Requires at least one shared
    individual.
    """
    temperature = _finite(temperature, "temperature", "(0, inf)")
    if blocks.m == 0:
        raise DataError("no shared individuals")
    return _contrast(blocks.full, blocks.m, temperature)


@dataclass(frozen=True)
class SoftContrastiveLoss:
    """Pairwise soft loss: the per-shared-individual value and raw sum, plus the plan."""

    loss: float
    raw: float
    plan: TransportPlan


def soft_contrastive_loss(blocks: SimilarityBlocks, cfg: LossConfig) -> SoftContrastiveLoss:
    """Transport-weighted contrastive loss for one adjacent frame pair.

    Solves a balanced transport problem with cost one minus the contrastive
    similarity, then scores the negative plan-weighted contrast, averaged
    over the m shared individuals. Lies in [-1, 0]; lower means the shared
    groups match more cleanly. A pair with nothing shared contributes zero.
    Raises NumericalError when the solve does not converge within the
    configured iteration budget and tolerance.
    """
    m = blocks.m
    if m == 0:
        empty = TransportPlan(np.zeros((0, 0)), True, 0)
        return SoftContrastiveLoss(0.0, 0.0, empty)
    c, plan = _solved_contrast(blocks, cfg)
    raw = -float(np.sum(np.multiply(plan.omega, c, out=c)))
    return SoftContrastiveLoss(raw / m, raw, plan)


def _solved_contrast(blocks: SimilarityBlocks,
                     cfg: LossConfig) -> tuple[np.ndarray, TransportPlan]:
    """The contrast matrix C of a pair with m >= 1 shared and its converged plan for cost 1 - C.

    A solve that does not converge raises NumericalError.
    """
    m = blocks.m
    c = _contrast(blocks.full, m, cfg.temperature)
    # (c - 1) / reg is sinkhorn's -(1 - c) / reg to the bit, and c is finite by construction
    plan = _solve(c, 1.0, cfg.sinkhorn_reg, cfg.sinkhorn_max_iters, cfg.sinkhorn_tol)
    if not plan.converged:
        raise NumericalError(
            f"transport solve for m={m} did not converge "
            f"in {plan.iterations_used} iterations"
        )
    return c, plan


def supervised_contrastive_loss(
    blocks: SimilarityBlocks, association, cfg: LossConfig
) -> float:
    """Contrastive loss when the shared-individual correspondence is known.

    association[u] gives the column matched to shared row u and must be a
    permutation of the shared block. The score is frozen_plan_loss's
    contrastive term at the permutation plan; with a clean correspondence
    this is the floor the soft loss approaches.
    """
    m = blocks.m
    perm = _array(association, "association", 1, integer=True)
    if not np.array_equal(np.sort(perm), np.arange(m)):
        raise DataError(f"association must be a permutation of range({m})")
    return _plan_contrast(blocks, np.eye(m)[perm], cfg) if m else 0.0


def hinge_loss(s3, threshold: float) -> float:
    """Mean penalty on outflow-vs-inflow similarities above a threshold.

    Averages max(0, s - threshold) over the s3 block; an empty block
    contributes zero. A NaN or infinite entry raises DataError naming it.
    """
    threshold = _finite(threshold, "threshold", "[0, 1)")
    return _hinge(_all_finite(_array(s3, "s3", 2), "s3"), threshold)


def _hinge(s3: np.ndarray, threshold: float) -> float:
    return float(np.mean(np.maximum(s3 - threshold, 0.0))) if s3.size else 0.0


@dataclass(frozen=True)
class PairObjective:
    """One pair's soft contrastive loss, its hinge, their sum and the solved plan."""

    loss: float
    hinge: float
    total: float
    plan: TransportPlan


def pair_objective(blocks: SimilarityBlocks, cfg: LossConfig) -> PairObjective:
    """One adjacent pair's group matching objective: the two terms of a solved pair,
    its soft contrastive loss plus its hinge, added in that order here and nowhere else."""
    sc = soft_contrastive_loss(blocks, cfg)
    hinge = _hinge(blocks.s3, cfg.hinge_threshold)
    return PairObjective(sc.loss, hinge, sc.loss + hinge, sc.plan)


def _held_plan(blocks: SimilarityBlocks, omega) -> np.ndarray:
    """The plan as a finite m-by-m array, checked."""
    omega = _all_finite(_array(omega, "omega", 2), "omega")
    if omega.shape != (blocks.m, blocks.m):
        raise DataError(f"plan shape {omega.shape} does not match shared count {blocks.m}")
    return omega


def frozen_plan_loss(blocks: SimilarityBlocks, omega, cfg: LossConfig) -> float:
    """Pair loss (contrastive part plus hinge) with the transport plan held fixed.

    Evaluates the same sum as pair_objective but uses the given plan instead
    of re-solving, which makes it the right target for finite-difference
    checks of loss_gradient.
    """
    hinge = _hinge(blocks.s3, cfg.hinge_threshold)
    return _plan_contrast(blocks, omega, cfg) + hinge if blocks.m else hinge


def _plan_contrast(blocks: SimilarityBlocks, omega, cfg: LossConfig) -> float:
    """-sum(omega * C) / m for the pair's contrast matrix C: the one score of a held plan."""
    omega = _held_plan(blocks, omega)
    return -float(np.sum(omega * _contrast(blocks.full, blocks.m, cfg.temperature))) / blocks.m


def group_matching_loss(pairs, cfg: LossConfig) -> float:
    """Total of pair_objective over adjacent frame pairs, added in order."""
    total = 0.0
    for blocks in pairs:
        total += pair_objective(blocks, cfg).total
    return total


def loss_gradient(blocks: SimilarityBlocks, omega, cfg: LossConfig) -> np.ndarray:
    """Gradient of frozen_plan_loss with respect to the full similarity matrix.

    omega is the m-by-m transport plan, typically the one soft_contrastive_loss
    solved, held constant, so this is the partial derivative through the
    contrastive and hinge terms only. Returned in block order, shape
    (n_i, n_j). Every entry of the full matrix participates: non-shared
    entries enter the contrastive denominators as competitors, and the
    bottom-right block feeds the hinge.
    """
    m = blocks.m
    if m == 0:
        raise DataError("no shared individuals")
    omega = _held_plan(blocks, omega)
    e, denom = _contrastive_parts(blocks.full, m, cfg.temperature)
    e0 = e[:m, :m]
    n_i, n_j = blocks.full.shape
    # d(-sum(omega*C))/dS splits into a direct term on the shared block and
    # competitor terms wherever an entry shares a row or column with it.
    w = omega * e0 / denom**2
    a = omega * (denom - e0) / denom**2
    row_w = w.sum(axis=1)
    col_w = w.sum(axis=0)
    coeff = np.zeros((n_i, n_j))
    coeff[:m, :] += row_w[:, None]
    coeff[:, :m] += col_w[None, :]
    coeff[:m, :m] -= a + 2.0 * w
    grad = cfg.temperature * e * coeff / m
    rest_i, rest_j = n_i - m, n_j - m
    if rest_i > 0 and rest_j > 0:
        grad[m:, m:] += (blocks.s3 > cfg.hinge_threshold) / (rest_i * rest_j)
    return grad


@dataclass(frozen=True)
class PairMatching:
    """Hard matches recovered for one adjacent frame pair, in original detection order."""

    frame_prev: int
    frame_curr: int
    matches: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PseudoTrajectories:
    """Per-pair matchings plus the track fragments they chain into.

    Each trajectory is a list of (frame_index, detection_index) steps; every
    detection of every frame appears in exactly one trajectory, singletons
    included. Trajectories are ordered by first appearance.
    """

    pairs: tuple[PairMatching, ...]
    trajectories: tuple[tuple[tuple[int, int], ...], ...]


def _adjacent_pairs(stream: DetectionStream):
    """(prev, curr, blocks) of each adjacent frame pair, partitioned when the walk reaches it."""
    frames = stream.frames
    for prev, curr in zip(frames, frames[1:]):
        yield prev, curr, partition_similarity(prev, curr)


def pseudo_trajectories(stream: DetectionStream, cfg: LossConfig) -> PseudoTrajectories:
    """Recover hard correspondences from the soft plans of a labeled stream.

    For each adjacent pair, solves the soft loss's transport plan without
    scoring it, rounds the plan over the shared blocks to a permutation with
    round_to_permutation, and maps the matches back to original detection
    indices. Chaining matched detections across pairs yields
    pseudo-trajectories usable as free supervision for association.
    """
    pair_results = []
    frames = stream.frames
    trajectories = [[(frames[0].frame_index, d)] for d in range(len(frames[0]))] if frames else []
    # owner[d] = index of the trajectory currently ending at detection d of
    # the latest processed frame.
    owner = list(range(len(trajectories)))
    for prev, curr, blocks in _adjacent_pairs(stream):
        m = blocks.m
        matches: list[tuple[int, int]] = []
        if m > 0:
            # the contrast is dropped before rounding, so only the plan is alive then
            perm = round_to_permutation(_solved_contrast(blocks, cfg)[1].omega)
            matches = sorted(zip(blocks.perm_i[:m].tolist(), blocks.perm_j[perm].tolist()))
        pair_results.append(PairMatching(prev.frame_index, curr.frame_index, tuple(matches)))
        continued = {v: owner[u] for u, v in matches}
        owner = []
        for d in range(len(curr)):
            if d not in continued:
                continued[d] = len(trajectories)
                trajectories.append([])
            trajectories[continued[d]].append((curr.frame_index, d))
            owner.append(continued[d])
    return PseudoTrajectories(
        tuple(pair_results),
        tuple(tuple(t) for t in trajectories),
    )
