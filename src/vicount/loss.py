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

from .assignment import _check_cost, hungarian
from .errors import DataError, NumericalError
from .stream import (DetectionStream, SimilarityBlocks, _array, _as_int, _finite, _read_only,
                     partition_similarity)


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
    returned). A few scaling sweeps open the solve. Each sweep divides the
    plan by its row sums and then by its column sums and moves the
    potentials by their logs, with no exponential; the plan is re-anchored
    as the exponential of the potentials only when a sum is zero or
    non-finite, or when the potentials have moved far enough since the last
    exponential that a cell which underflowed could carry mass again. Plain
    sweeps crawl when the plan nears a hard permutation (sharp reg relative
    to the cost gaps), so at every size each later iteration is a damped
    Newton step, or a burst of sweeps when the step does not reduce the
    violation. Each Newton step solves an n-by-n Schur system by
    preconditioned conjugate gradient without forming it, at O(n^2) per CG
    iteration. Every sweep and every Newton step counts toward max_iters.
    """
    arr = _check_cost(cost, square=True)
    if arr.shape[0] == 0:
        raise NumericalError("invalid cost matrix: empty")
    reg = _finite(reg, "reg", "(0, inf)", NumericalError)
    max_iters = _as_int(max_iters, "max_iters", 0, NumericalError)
    tol = _finite(tol, "tol", "(0, inf)", NumericalError)
    return _solve(np.negative(arr), reg, max_iters, tol)


def _solve(neg_cost: np.ndarray, reg: float, max_iters: int, tol: float) -> TransportPlan:
    """The solve sinkhorn describes, for the negated cost matrix neg_cost.

    neg_cost is non-empty, square and of finite entries. It is divided by
    reg in place into the log-kernel mr = -cost / reg, which is only read
    after that; an entry that overflows raises NumericalError.
    """
    with np.errstate(over="ignore"):
        mr = np.divide(neg_cost, reg, out=neg_cost)
    if not np.isfinite(mr).all():
        raise NumericalError(f"reg {reg!r} is too small: -cost / reg overflows")
    n = mr.shape[0]
    f = np.zeros(n)
    g = np.zeros(n)
    iters = 0
    # Negative costs under a small reg overflow here; an infinite row sum
    # sends the first sweep to the log domain.
    with np.errstate(over="ignore"):
        plan = np.exp(mr)
    spare = np.empty_like(plan)
    drift = 0.0
    r, c = plan.sum(axis=1), plan.sum(axis=0)
    err = _violation(r, c)
    while not err < tol and iters < max_iters:
        sweeps = 1
        if iters >= 5:
            accepted = _dual_newton_step(mr, plan, r, c, err, f, g, spare)
            iters += 1
            if accepted is not None:
                spare, (plan, r, c, err) = plan, accepted
                drift = 0.0
                continue
            sweeps = min(20, max_iters - iters)
        for _ in range(sweeps):
            drift = _sweep(mr, plan, r, f, g, drift)
            r = plan.sum(axis=1)
        iters += sweeps
        c = plan.sum(axis=0)
        err = _violation(r, c)
    plan.setflags(write=False)
    return TransportPlan(plan, err < tol, iters)


# A cell that underflowed at the last exponential stays below
# 2.2e-308 * e^100, about 6e-265, until some cell's log has moved this far.
_REANCHOR_DRIFT = 100.0


def _exp_plan(mr, f, g, out):
    """exp(mr + f[:, None] + g[None, :]) written into out, which is returned."""
    np.add(mr, f[:, None], out=out)
    out += g[None, :]
    return np.exp(out, out=out)


def _sweep(mr, plan, rows, f, g, drift):
    """One scaling sweep, rows then columns, on plan, f and g in place.

    rows holds the plan's row sums, which the caller has already taken.

    Dividing the plan by its row sums r and setting f -= log(r) is the
    log-domain update f = -LSE_j(mr + g) without an exponential, and the
    same holds for the columns. drift bounds how far any cell's log has
    moved since the plan was last exponentiated; it is returned updated.
    When a sum is zero or non-finite, or the drift would pass
    _REANCHOR_DRIFT, that half is taken in the log domain instead and the
    plan re-anchored as the exponential of the potentials, so no cell stays
    stuck at an underflowed 0, and the drift restarts at 0.
    """
    for pot, other, axis in ((f, g, 1), (g, f, 0)):
        sums = rows if axis else plan.sum(axis=0)
        with np.errstate(divide="ignore"):
            logs = np.log(sums)
        shift = float(np.max(np.abs(logs)))
        if drift + shift <= _REANCHOR_DRIFT:
            pot -= logs
            plan /= np.expand_dims(sums, axis)
            drift += shift
        else:
            pot[:] = -_logsumexp(mr + np.expand_dims(other, 1 - axis), axis=axis)
            _exp_plan(mr, f, g, plan)
            drift = 0.0
    return drift


def _dual_newton_step(mr, plan, r, c, err, f, g, out):
    """One damped Newton step on the dual potentials, in place.

    The dual is concave with gradient (1 - r, 1 - c) and Hessian
    [[diag(r), P], [P^T, diag(c)]] for the plan P with row sums r and column
    sums c. Eliminating the column block leaves the n-by-n Schur system
    (diag(r) - P diag(1/c) P^T) dx = (1 - r) - P((1 - c)/c) for the row
    step, solved by Jacobi-preconditioned conjugate gradient without forming
    the matrix, at O(n^2) per CG iteration. The system is singular along the
    constant vector but consistent, which CG tolerates. r and c are the
    row and column sums of plan and err its violation. Backtracks until the
    marginal violation strictly decreases, writing each trial plan into
    out, and returns out with its row sums, column sums and violation,
    which is the plan of the updated potentials; returns None when no step
    length manages that. A trial with a non-finite cell has a NaN or
    infinite violation, which never decreases it.
    """
    col = c + 1e-12
    row = r + 1e-12
    res = (1.0 - r) - plan @ ((1.0 - c) / col)
    # The diagonal is >= 0 in exact arithmetic; rounding can take it to 0 or below.
    # out holds the squared plan until the first trial plan is written into it.
    jacobi = np.maximum(row - np.multiply(plan, plan, out=out) @ (1.0 / col), 1e-12)
    dx = np.zeros_like(r)
    p = z = res / jacobi
    rz = res @ z
    stop = 1e-3 * np.linalg.norm(res)
    for _ in range(50):
        ap = row * p - plan @ ((p @ plan) / col)
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
    dy = ((1.0 - c) - plan.T @ dx) / col
    step = 1.0
    for _ in range(30):
        f_try = f + step * dx
        g_try = g + step * dy
        with np.errstate(over="ignore"):
            trial = _exp_plan(mr, f_try, g_try, out)
        r_try, c_try = trial.sum(axis=1), trial.sum(axis=0)
        trial_err = _violation(r_try, c_try)
        if trial_err < err:
            f[:] = f_try
            g[:] = g_try
            return trial, r_try, c_try, trial_err
        step *= 0.5
    return None


def round_to_permutation(omega) -> np.ndarray:
    """Snap a transport plan to a permutation (row index -> column index).

    The permutation of largest total plan mass, by a full assignment on the
    negated plan. Its row-reduction warm start gives every row its first
    argmax whenever those already form a permutation, so that case needs no
    search. A non-finite plan raises NumericalError.
    """
    arr = _check_cost(omega, "omega", square=True)
    # A square assignment lists its pairs in row order.
    return np.array([j for _, j in hungarian(-arr).pairs], dtype=np.intp)


def _contrastive_parts(s: np.ndarray, m: int, scale: float):
    """Shifted exponentials with their marginal sums and the m-by-m contrast matrix.

    The global shift cancels in every ratio downstream, so overflow is
    avoided without changing any result. A shared entry whose whole row and
    column underflow under the shift has no defined contrast and raises
    NumericalError.
    """
    e = np.multiply(s, scale)
    e -= np.max(e)
    np.exp(e, out=e)
    row = e.sum(axis=1)
    col = e.sum(axis=0)
    e0 = e[:m, :m]
    denom = np.add(row[:m, None], col[None, :m])
    denom -= e0
    if not np.all(denom > 0):
        i, j = np.unravel_index(np.argmin(denom), denom.shape)
        raise NumericalError(
            f"contrastive similarity underflows at temperature {scale:g}: "
            f"shared row {i} and column {j} have no mass left"
        )
    return e, row, col, e0, denom, e0 / denom


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
    return _contrastive_parts(blocks.full, blocks.m, temperature)[-1]


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
    c = _contrastive_parts(blocks.full, m, cfg.temperature)[-1]
    # c - 1 is sinkhorn's -(1 - c) to the bit, and c is finite by construction
    plan = _solve(np.subtract(c, 1.0), cfg.sinkhorn_reg, cfg.sinkhorn_max_iters,
                  cfg.sinkhorn_tol)
    if not plan.converged:
        raise NumericalError(
            f"transport solve for m={m} did not converge "
            f"in {plan.iterations_used} iterations"
        )
    raw = -float(np.sum(np.multiply(plan.omega, c, out=c)))
    return SoftContrastiveLoss(raw / m, raw, plan)


def supervised_contrastive_loss(
    blocks: SimilarityBlocks, association, cfg: LossConfig
) -> float:
    """Contrastive loss when the shared-individual correspondence is known.

    association[u] gives the column matched to shared row u and must be a
    permutation of the shared block. Scores the negative contrast of the
    given pairs, averaged over m; with a clean correspondence this is the
    floor the soft loss approaches.
    """
    m = blocks.m
    perm = _array(association, "association", 1, integer=True)
    if not np.array_equal(np.sort(perm), np.arange(m)):
        raise DataError(f"association must be a permutation of range({m})")
    if m == 0:
        return 0.0
    c = _contrastive_parts(blocks.full, m, cfg.temperature)[-1]
    return -float(np.sum(c[np.arange(m), perm])) / m


def hinge_loss(s3, threshold: float) -> float:
    """Mean penalty on outflow-vs-inflow similarities above a threshold.

    Averages max(0, s - threshold) over the s3 block; an empty block
    contributes zero.
    """
    threshold = _finite(threshold, "threshold", "[0, 1)")
    return _hinge(_array(s3, "s3", 2), threshold)


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
    """One adjacent pair's group matching objective: its soft contrastive loss plus
    its hinge, added in that order here and nowhere else."""
    sc = soft_contrastive_loss(blocks, cfg)
    hinge = _hinge(blocks.s3, cfg.hinge_threshold)
    return PairObjective(sc.loss, hinge, sc.loss + hinge, sc.plan)


def _held_plan(blocks: SimilarityBlocks, omega, cfg: LossConfig):
    """The plan as an m-by-m array, checked, with the pair's _contrastive_parts."""
    omega = _array(omega, "omega", 2)
    if omega.shape != (blocks.m, blocks.m):
        raise DataError(f"plan shape {omega.shape} does not match shared count {blocks.m}")
    return omega, _contrastive_parts(blocks.full, blocks.m, cfg.temperature)


def frozen_plan_loss(blocks: SimilarityBlocks, omega, cfg: LossConfig) -> float:
    """Pair loss (contrastive part plus hinge) with the transport plan held fixed.

    Evaluates the same sum as pair_objective but uses the given plan instead
    of re-solving, which makes it the right target for finite-difference
    checks of loss_gradient.
    """
    hinge = _hinge(blocks.s3, cfg.hinge_threshold)
    if blocks.m == 0:
        return hinge
    omega, parts = _held_plan(blocks, omega, cfg)
    return -float(np.sum(omega * parts[-1])) / blocks.m + hinge


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
    omega, (e, _, _, e0, denom, _) = _held_plan(blocks, omega, cfg)
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

    For each adjacent pair, solves the soft loss, rounds its plan over the
    shared blocks to a permutation with round_to_permutation, and maps the
    matches back to original detection indices. Chaining matched
    detections across pairs yields pseudo-trajectories usable as free
    supervision for association.
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
            perm = round_to_permutation(soft_contrastive_loss(blocks, cfg).plan.omega)
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
