"""Group-level matching losses built on entropic optimal transport.

For an adjacent frame pair with m shared individuals, a contrastive
similarity matrix over the shared blocks is turned into a transport cost,
solved for a soft matching plan, and scored. Detections that enter or leave
are pushed toward dissimilarity by a hinge penalty on the outflow-vs-inflow
block. The total over all adjacent pairs of a stream is the group matching
loss. An analytic gradient with the plan held fixed supports training-side
use and is validated against finite differences.
"""

from dataclasses import dataclass

import numpy as np

from .assignment import hungarian
from .errors import DataError, NumericalError
from .stream import DetectionStream, SimilarityBlocks, partition_similarity


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
        if not (self.temperature > 0 and np.isfinite(self.temperature)):
            raise DataError(f"temperature must be positive, got {self.temperature}")
        if not (0.0 <= self.hinge_threshold < 1.0):
            raise DataError(
                f"hinge_threshold must be in [0, 1), got {self.hinge_threshold}"
            )
        if not (self.sinkhorn_reg > 0 and np.isfinite(self.sinkhorn_reg)):
            raise DataError(f"sinkhorn_reg must be positive, got {self.sinkhorn_reg}")
        if self.sinkhorn_max_iters < 1:
            raise DataError("sinkhorn_max_iters must be at least 1")
        if not (self.sinkhorn_tol > 0 and np.isfinite(self.sinkhorn_tol)):
            raise DataError("sinkhorn_tol must be positive")


@dataclass(frozen=True)
class TransportPlan:
    """Result of the transport solver: the plan plus convergence bookkeeping."""

    omega: np.ndarray
    converged: bool
    iterations_used: int

    def __post_init__(self):
        arr = np.asarray(self.omega, dtype=np.float64).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "omega", arr)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(x, axis=axis)
    return m + np.log(np.sum(np.exp(x - np.expand_dims(m, axis)), axis=axis))


def _plan_violation(plan: np.ndarray) -> float:
    return max(
        float(np.max(np.abs(plan.sum(axis=1) - 1.0))),
        float(np.max(np.abs(plan.sum(axis=0) - 1.0))),
    )


def sinkhorn(cost, reg: float, max_iters: int = 500, tol: float = 1e-6) -> TransportPlan:
    """Entropic-regularized balanced transport between uniform unit marginals.

    Iterates on the dual potentials of a square cost matrix until the worst
    row or column sum of the plan is within tol of 1, or the iteration
    budget runs out (converged is False then, with the last iterate
    returned). A few log-domain scaling sweeps open the solve. Plain sweeps
    crawl when the plan nears a hard permutation (sharp reg relative to the
    cost gaps), so at every size each later iteration is a damped Newton
    step, or a burst of sweeps when the step does not reduce the violation.
    Each Newton step solves an n-by-n Schur system by preconditioned
    conjugate gradient without forming it, at O(n^2) per CG iteration.
    Every sweep and every Newton step counts toward max_iters.
    """
    arr = np.asarray(cost, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NumericalError(f"invalid cost matrix: expected square, got {arr.shape}")
    if arr.shape[0] == 0:
        raise NumericalError("invalid cost matrix: empty")
    if not np.all(np.isfinite(arr)):
        raise NumericalError("invalid cost matrix: non-finite entries")
    if not (reg > 0 and np.isfinite(reg)):
        raise NumericalError(f"regularization must be positive, got {reg}")
    if max_iters < 0:
        raise NumericalError(f"iteration budget must be non-negative, got {max_iters}")
    if not (tol > 0 and np.isfinite(tol)):
        raise NumericalError(f"tolerance must be positive, got {tol}")
    n = arr.shape[0]
    mr = -arr / reg
    f = np.zeros(n)
    g = np.zeros(n)
    iters = 0
    plan = np.exp(mr)
    err = _plan_violation(plan)
    while not err < tol and iters < max_iters:
        sweeps = 1
        if iters >= 5:
            accepted = _dual_newton_step(mr, plan, err, f, g)
            iters += 1
            if accepted is not None:
                plan, err = accepted
                continue
            sweeps = min(20, max_iters - iters)
        for _ in range(sweeps):
            f = -_logsumexp(mr + g[None, :], axis=1)
            g = -_logsumexp(mr + f[:, None], axis=0)
        iters += sweeps
        plan = np.exp(mr + f[:, None] + g[None, :])
        err = _plan_violation(plan)
    return TransportPlan(plan, err < tol, iters)


def _dual_newton_step(mr, plan, err, f, g):
    """One damped Newton step on the dual potentials, in place.

    The dual is concave with gradient (1 - r, 1 - c) and Hessian
    [[diag(r), P], [P^T, diag(c)]] for the plan P with row sums r and column
    sums c. Eliminating the column block leaves the n-by-n Schur system
    (diag(r) - P diag(1/c) P^T) dx = (1 - r) - P((1 - c)/c) for the row
    step, solved by Jacobi-preconditioned conjugate gradient without forming
    the matrix, at O(n^2) per CG iteration. The system is singular along the
    constant vector but consistent, which CG tolerates. Backtracks until the
    marginal violation strictly decreases and returns the accepted trial
    plan with its violation, which is the plan of the updated potentials;
    returns None when no step length manages that.
    """
    r = plan.sum(axis=1)
    c = plan.sum(axis=0)
    col = c + 1e-12
    row = r + 1e-12
    res = (1.0 - r) - plan @ ((1.0 - c) / col)
    # the diagonal is >= 0 in exact arithmetic; rounding can take it to 0 or below
    jacobi = np.maximum(row - (plan * plan) @ (1.0 / col), 1e-12)
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
            trial = np.exp(mr + f_try[:, None] + g_try[None, :])
        trial_err = _plan_violation(trial) if np.all(np.isfinite(trial)) else np.inf
        if trial_err < err:
            f[:] = f_try
            g[:] = g_try
            return trial, trial_err
        step *= 0.5
    return None


def round_to_permutation(omega) -> np.ndarray:
    """Snap a transport plan to a permutation (row index -> column index).

    Takes each row's argmax when that already forms a permutation; otherwise
    resolves conflicts by a full assignment on the negated plan.
    """
    arr = np.asarray(omega, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NumericalError(f"invalid cost matrix: expected square, got {arr.shape}")
    greedy = arr.argmax(axis=1)
    if len(set(greedy.tolist())) == arr.shape[0]:
        return greedy.astype(np.intp)
    perm = np.empty(arr.shape[0], dtype=np.intp)
    for i, j in hungarian(-arr).pairs:
        perm[i] = j
    return perm


def _contrastive_parts(s: np.ndarray, m: int, scale: float):
    """Shifted exponentials with their marginal sums and the m-by-m contrast matrix.

    The global shift cancels in every ratio downstream, so overflow is
    avoided without changing any result.
    """
    z = scale * s
    e = np.exp(z - np.max(z))
    row = e.sum(axis=1)
    col = e.sum(axis=0)
    e0 = e[:m, :m]
    denom = row[:m, None] + col[None, :m] - e0
    return e, row, col, e0, denom, e0 / denom


def contrastive_similarity(blocks: SimilarityBlocks, temperature: float) -> np.ndarray:
    """Pairwise contrast among shared individuals, softly normalized.

    Each shared-pair similarity is exponentiated and divided by the sum of
    its own term plus every competing term in its row and column of the full
    similarity matrix, so entries land in (0, 1] and reward similarities
    that dominate their competitors. Requires at least one shared
    individual.
    """
    if not (temperature > 0 and np.isfinite(temperature)):
        raise DataError(f"temperature must be positive, got {temperature}")
    m = blocks.m
    if m == 0:
        raise DataError("no shared individuals")
    _, _, _, _, _, c = _contrastive_parts(blocks.full, m, temperature)
    return c


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
    c = contrastive_similarity(blocks, cfg.temperature)
    plan = sinkhorn(1.0 - c, cfg.sinkhorn_reg, cfg.sinkhorn_max_iters, cfg.sinkhorn_tol)
    if not plan.converged:
        raise NumericalError(
            f"transport solve for m={m} did not converge "
            f"in {plan.iterations_used} iterations"
        )
    raw = -float(np.sum(plan.omega * c))
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
    perm = tuple(int(a) for a in association)
    if sorted(perm) != list(range(m)):
        raise DataError(f"association must be a permutation of range({m})")
    if m == 0:
        return 0.0
    c = contrastive_similarity(blocks, cfg.temperature)
    return -float(np.sum(c[np.arange(m), np.asarray(perm, dtype=np.intp)])) / m


def hinge_loss(s3, threshold: float) -> float:
    """Mean penalty on outflow-vs-inflow similarities above a threshold.

    Averages max(0, s - threshold) over the s3 block; an empty block
    contributes zero.
    """
    if not (0.0 <= threshold < 1.0):
        raise DataError(f"hinge_threshold must be in [0, 1), got {threshold}")
    arr = np.asarray(s3, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.mean(np.maximum(arr - threshold, 0.0)))


def frozen_plan_loss(blocks: SimilarityBlocks, omega, cfg: LossConfig) -> float:
    """Pair loss (contrastive part plus hinge) with the transport plan held fixed.

    Evaluates the same objective as soft_contrastive_loss plus hinge_loss
    but uses the given plan instead of re-solving, which makes it the right
    target for finite-difference checks of loss_gradient.
    """
    m = blocks.m
    hinge = hinge_loss(blocks.s3, cfg.hinge_threshold)
    if m == 0:
        return hinge
    arr = np.asarray(omega, dtype=np.float64)
    if arr.shape != (m, m):
        raise DataError(f"plan shape {arr.shape} does not match shared count {m}")
    c = contrastive_similarity(blocks, cfg.temperature)
    return -float(np.sum(arr * c)) / m + hinge


def group_matching_loss(pairs, cfg: LossConfig) -> float:
    """Total loss over adjacent frame pairs: soft contrastive plus hinge each."""
    total = 0.0
    for blocks in pairs:
        total += soft_contrastive_loss(blocks, cfg).loss
        total += hinge_loss(blocks.s3, cfg.hinge_threshold)
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
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (m, m):
        raise DataError(f"plan shape {omega.shape} does not match shared count {m}")
    s = blocks.full
    n_i, n_j = s.shape
    scale = cfg.temperature
    e, _, _, e0, denom, _ = _contrastive_parts(s, m, scale)
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
    grad = scale * e * coeff / m
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
    owner = {d: d for d in range(len(trajectories))}
    for prev, curr in zip(frames, frames[1:]):
        blocks = partition_similarity(prev, curr)
        m = blocks.m
        matches: list[tuple[int, int]] = []
        if m > 0:
            perm = round_to_permutation(soft_contrastive_loss(blocks, cfg).plan.omega)
            matches = sorted(zip(blocks.perm_i[:m].tolist(), blocks.perm_j[perm].tolist()))
        pair_results.append(
            PairMatching(prev.frame_index, curr.frame_index, tuple(matches))
        )
        next_owner: dict[int, int] = {}
        continued = {v: u for u, v in matches}
        for d in range(len(curr)):
            if d in continued:
                t = owner[continued[d]]
            else:
                t = len(trajectories)
                trajectories.append([])
            trajectories[t].append((curr.frame_index, d))
            next_owner[d] = t
        owner = next_owner
    return PseudoTrajectories(
        tuple(pair_results),
        tuple(tuple(t) for t in trajectories),
    )
