"""Extreme-row detection and simplex-constrained recovery of B.

In the asymptotic co-occurrence geometry the rows belonging to pairs that
are (approximately) specific to one component sit at the extreme points of
the row cloud; every other row is (approximately) a convex combination of
them.  That geometry has rank K, so detection works on the top K
singular part of the candidate rows: it scores each row by the fraction of
random directions in which it strictly dominates its well-separated peers,
then greedily picks K mutually separated high scorers.  Regression writes
every active row of the same rank-K part as a simplex combination of the
selected rows and rescales to recover B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pairs
from .mallows import RankingMatrix
from .moments import CoocFactors, CoocMatrix, gemm_index


class DetectionError(RuntimeError):
    pass


class RegressionError(RuntimeError):
    pass


@dataclass
class DetectionConfig:
    n_components: int
    n_projections: int | None = None  # default 150 per component
    # fraction of the spread of the candidate rows' rank-K part, the root
    # mean square of their distances from their mean
    zeta: float = 0.7
    seed: int = 0
    doubled_distance_rule: bool = False  # kept for callers passing False; True is refused
    # A sampled pair row observed far less often than typical rows has a
    # co-occurrence profile made of a handful of users, and row
    # normalization inflates it into a spurious extreme point.  Rows whose
    # count falls below this fraction of the median active-row count are
    # not candidates.  Near-pure rows sit around half the median count, so
    # 0.2 keeps them while dropping the noise-dominated tail.  Ignored for
    # analytic matrices; 0 disables.
    min_count_fraction: float = 0.2

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("need at least one component")
        if self.n_projections is not None and self.n_projections < 1:
            raise ValueError("need at least one projection")
        if not (np.isfinite(self.zeta) and self.zeta > 0):
            raise ValueError(f"zeta must be positive and finite, got {self.zeta}")
        if not (np.isfinite(self.min_count_fraction) and self.min_count_fraction >= 0):
            raise ValueError(
                f"min_count_fraction must be nonnegative and finite, got {self.min_count_fraction}")
        if self.doubled_distance_rule:
            raise ValueError("the doubled distance rule is not supported")

    @property
    def resolved_projections(self) -> int:
        if self.n_projections is None:
            return 150 * self.n_components
        return self.n_projections


@dataclass
class NovelPairSet:
    """Detection outcome: selected rows, all solid-angle estimates and the
    rank-K factors that regression reads."""

    rows: list[int]  # selected pair rows, in selection order
    item_pairs: list[tuple[int, int]]
    solid_angles: dict[int, float]  # q-hat for every candidate row
    # E_K = left @ right.T: the candidate slice's top K singular part,
    # extended to every row and column (see ``_rank_k``)
    factors: CoocFactors
    # The slice's top K + 1 singular values (K when it has only K rows),
    # the subspace iterations that found them, and the most rows one
    # direction's scorer window held
    singular_values: np.ndarray | None = None
    iterations: int = 0
    window: int = 0


# Stream id of the subspace iteration's start block; projection ids count
# up from 0, so they never reach it.
_START_STREAM = 2**63 - 2
# The subspace iteration stops once no top-K singular value has moved by
# more than this fraction of the largest in one step.
_SVD_TOL = 1e-12
_SVD_MAX_ITER = 1000
# Rows in a direction's first scorer window, and the most rows whose
# distances to a window the scorer computes at once (see
# ``_solid_angle_wins``).
_WINDOW = 64
_BLOCK_ROWS = 256
# Directions whose projections are formed in one gemm (see ``_projections``).
_DIRECTION_BLOCK = 64


def _rank_k(E: CoocFactors, act: np.ndarray, K: int, seed: int):
    """The top K singular triplets U S V^T of the slice A = E[act, act], and
    the rank-K extension E_K = (E[:, act] V) S^-1 (U^T E[act, :]).

    A is applied through the factors, A X = scale * left[act] (right[act]^T
    X), so no n x n array is built.  Block subspace iteration with 2K
    columns (at most n), started from a Gaussian block of the seed's own
    stream: each step applies A^T, then A, orthonormalizing after each,
    until the singular values of the last triangular factor stop moving
    in their top K (``_SVD_TOL``).  A Rayleigh-Ritz step gives the
    triplets; each singular vector's sign makes its largest entry in U
    positive.  E_K is kept as dense W x K factors, scale 1.  A slice of
    rank below K has no rank-K part, and raises ``DetectionError``.

    Returns the rows Y = U S, the top K + 1 singular values (K if n = K),
    the factors of E_K and the iteration count.
    """
    L, R, s = E.left[act], E.right[act], E.scale
    n = act.size
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, _START_STREAM)))
    X = np.linalg.qr(rng.standard_normal((n, min(n, 2 * K))))[0]
    prev = np.full(K, np.inf)
    for it in range(1, _SVD_MAX_ITER + 1):
        Z = np.linalg.qr(s * (R @ (L.T @ X)))[0]
        X, T = np.linalg.qr(s * (L @ (R.T @ Z)))
        sv = np.linalg.svd(T, compute_uv=False)[:K]
        if np.all(np.abs(sv - prev) <= _SVD_TOL * sv[0]):
            break
        prev = sv
    else:
        raise DetectionError(
            f"the top {K} singular values did not settle in {_SVD_MAX_ITER} iterations")
    Ub, S, Vt = np.linalg.svd((s * (R @ (L.T @ X))).T, full_matrices=False)
    # the rank as numpy.linalg.matrix_rank counts it: singular values above
    # the largest times n eps
    rank = int(np.count_nonzero(S[:K] > S[0] * n * np.finfo(float).eps))
    if rank < K:
        raise DetectionError(
            f"the {n} candidate rows' co-occurrence slice has rank {rank}, below the "
            f"{K} components asked for")
    U, V = X @ Ub[:, :K], Vt[:K].T
    sign = np.where(U[np.argmax(np.abs(U), axis=0), np.arange(K)] < 0, -1.0, 1.0)
    U, V = U * sign, V * sign
    factors = CoocFactors(s * (E.left @ (R.T @ (V / S[:K]))), s * (E.right @ (L.T @ U)), 1.0)
    return U * S[:K], S[:K + 1], factors, it


def _projection_directions(seed: int, P: int, K: int) -> np.ndarray:
    """One isotropic Gaussian direction in K dimensions per projection id,
    a (P, K) array.

    Each direction has its own stream keyed by (seed, projection id), so a
    run with more projections extends, rather than reshuffles, a smaller
    one.
    """
    out = np.empty((P, K))
    for r in range(P):
        out[r] = np.random.default_rng(np.random.SeedSequence(entropy=(seed, r))).standard_normal(K)
    return out


def _projections(directions: np.ndarray, Y: np.ndarray):
    """The projections directions @ Y.T, one row per direction, formed one
    gemm per block of _DIRECTION_BLOCK directions, so only a block's rows
    are held.  A gemm entry does not depend on the product's other rows,
    so each row has the bits of the whole product; a lone direction in a
    block is repeated, since numpy would hand one row to gemv, unless it
    is the only direction, as the whole product would too."""
    P = directions.shape[0]
    for lo in range(0, P, _DIRECTION_BLOCK):
        idx = np.arange(lo, min(lo + _DIRECTION_BLOCK, P))
        yield from (directions[gemm_index(idx) if P > 1 else idx] @ Y.T)[:idx.size]


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_i - b_j|| for all rows a_i of ``a`` and b_j of ``b``.

    The squares are added one coordinate at a time, so an entry's bits do
    not depend on which other rows are in the arrays.
    """
    d2 = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        d2 += (a[:, k, None] - b[None, :, k]) ** 2
    return np.sqrt(d2)


def _first_far_row(Y: np.ndarray, far: float) -> int:
    """Position of the first row of Y that lies ``far`` or more from a row
    before it, or -1; distances come _BLOCK_ROWS rows at a time."""
    for lo in range(0, Y.shape[0], _BLOCK_ROWS):
        rows = np.arange(lo, min(lo + _BLOCK_ROWS, Y.shape[0]))
        apart = _distances(Y[rows], Y[:rows[-1] + 1]) >= far
        hit = np.flatnonzero((apart & (np.arange(rows[-1] + 1) < rows[:, None])).any(axis=1))
        if hit.size:
            return int(rows[hit[0]])
    return -1


def _solid_angle_wins(Y: np.ndarray, proj, half: float):
    """How many directions each row of Y wins, how many it tops (ties
    included), and the deepest window; ``proj`` yields each direction's
    projections of the rows of Y.

    Row i wins direction r when every other row whose projection proj[r][j]
    is at or above its own lies within ``half`` of it, ||y_i - y_j|| < half.
    If two rows at or above row i lie 2 half apart, the triangle inequality
    keeps i from being that close to both.  So each direction sorts its top
    rows, a window that starts at _WINDOW rows and doubles until its prefix
    holds such a pair; no row below the pair's lower row can win.  The rows
    at or above that row, ties included, are each tested against the
    others, _BLOCK_ROWS at a time.  The pair's distance must clear 2 half
    by the rounding of computed distances, at most (K + 4) eps relative, so
    the outcome is exactly that of testing every row.
    """
    n, K = Y.shape
    far = 2.0 * half * (1.0 + (K + 4) * np.finfo(float).eps) ** 2
    wins = np.zeros(n, dtype=np.int64)
    tops = np.zeros(n, dtype=np.int64)
    deepest = 0
    for p in proj:
        w = min(n, _WINDOW)
        while True:
            top = np.argpartition(-p, w - 1)[:w] if w < n else np.arange(n)
            top = top[np.argsort(-p[top], kind="stable")]
            t = _first_far_row(Y[top], far)
            if t >= 0 or w == n:
                break
            w = min(n, 2 * w)
        window = np.flatnonzero(p >= p[top[t]])
        vals, Yw = p[window], Y[window]
        for lo in range(0, window.size, _BLOCK_ROWS):
            rows = np.arange(lo, min(lo + _BLOCK_ROWS, window.size))
            above = (vals[None, :] >= vals[rows, None]) & (np.arange(window.size) != rows[:, None])
            near = _distances(Yw[rows], Yw) < half
            wins[window[rows[~(above & ~near).any(axis=1)]]] += 1
        tops[window[vals == vals.max()]] += 1
        deepest = max(deepest, window.size)
    return wins, tops, deepest


def detect_novel_pairs(cooc: CoocMatrix, config: DetectionConfig) -> NovelPairSet:
    """Score candidate rows by estimated solid angle and pick K separated ones.

    Candidates are the active rows, minus rows observed too rarely for
    their normalized co-occurrence profile to be trustworthy (see
    ``DetectionConfig.min_count_fraction``).  Since E-bar = B-bar R-bar
    B-bar^T has rank K, detection works on the top K singular part of the
    candidate slice E[act, act] (``_rank_k``): the n x K rows Y = U S keep
    the distances and, for directions drawn isotropically in K
    dimensions, the solid angles of the slice's rows in the noiseless
    limit, while the sampling noise outside those K dimensions drops
    out.  zeta is a fraction of the spread of the rows of Y, the root mean
    square of their distances from their mean: unlike their norms, it
    does not grow with a part common to every row, as a diffuse weight
    prior adds, and the solid angles ignore such a part too.  A
    row's score is the fraction of directions in which its projection
    strictly exceeds every row at distance >= zeta/2 from it (ties score
    nothing; see ``_solid_angle_wins``).  Rows near one vertex tie on it,
    so among equal scores a row that tops more directions comes first:
    its score as zeta goes to 0.  Selection walks the rows in that order,
    keeping a row only if it lies at zeta/2 or more from every row already
    kept.  Fails if fewer than K such rows exist.
    """
    K = config.n_components
    candidate = cooc.active.copy()
    if cooc.row_counts is not None and config.min_count_fraction > 0 and candidate.any():
        floor = config.min_count_fraction * float(np.median(cooc.row_counts[candidate]))
        candidate &= cooc.row_counts >= floor
    act = np.flatnonzero(candidate)
    if act.size < K:
        raise DetectionError(f"only {act.size} candidate rows, need at least {K}")
    Y, sv, factors, iterations = _rank_k(cooc.E, act, K, config.seed)
    # rows that coincide are never separated, even when all of them do
    spread = Y - Y.mean(axis=0)
    half = max(config.zeta * float(np.sqrt(np.mean(np.einsum("ij,ij->i", spread, spread))))
               / 2.0, np.finfo(float).tiny)
    P = config.resolved_projections
    wins, tops, window = _solid_angle_wins(
        Y, _projections(_projection_directions(config.seed, P, K), Y), half)
    qhat = wins / P

    selected: list[int] = []
    peers: list[np.ndarray] = []  # rows at zeta/2 or more from each selected row
    for cand in np.lexsort((act, -tops, -qhat)):
        if all(far[cand] for far in peers):
            selected.append(int(cand))
            peers.append(_distances(Y[cand:cand + 1], Y)[0] >= half)
            if len(selected) == K:
                break
    if len(selected) < K:
        raise DetectionError(
            f"found only {len(selected)} mutually separated rows at zeta={config.zeta}, need {K}"
        )
    sel_rows = [int(act[s]) for s in selected]
    return NovelPairSet(
        rows=sel_rows,
        item_pairs=[pairs.row_pair(r, cooc.Q) for r in sel_rows],
        solid_angles={int(r): float(q) for r, q in zip(act, qhat)},
        factors=factors,
        singular_values=sv,
        iterations=iterations,
        window=window,
    )


def _project_rows(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row of the (n, K) array V onto the
    probability simplex."""
    if not np.all(np.isfinite(V)):
        raise ValueError("vector must be finite")
    # The projection is invariant to shifting all coordinates, and any
    # coordinate more than 1 below the maximum projects to zero, so each
    # row can be rescaled into [-2, 0] to keep the cumulative sums well
    # conditioned for inputs of any magnitude.
    V = np.maximum(V - V.max(axis=1, keepdims=True), -2.0)
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    K = V.shape[1]
    cond = U - css / np.arange(1, K + 1) > 0
    # rho is each row's last index that passes, counted from one; the
    # first always passes, since the row maximum sits at 0.
    rho = K - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(V.shape[0]), rho - 1] / rho
    return np.maximum(V - theta[:, None], 0.0)


def _objective(H, b, g, const):
    """b H b - 2 g b + const for every row of b.

    Stacked matmuls make one BLAS call per row, as a product of that row
    alone would, so each row's value does not depend on the batch.
    """
    bHb = (b[:, None, :] @ H @ b[:, :, None])[:, 0, 0]
    return bHb - ((2.0 * g)[:, None, :] @ b[:, :, None])[:, 0, 0] + const


def _descent_step(H, y, g, lips):
    """Projected gradient step of length 1 / lips from every row of y."""
    return _project_rows(y - ((H @ y[:, :, None])[:, :, 0] - g) / lips)


def _minimize_simplex_quadratics(H, g, const, lips, epsilon, max_iter):
    """min_b b H b - 2 g[w] b + const[w] over the simplex, for every row w.

    Accelerated projected gradient with fixed step 1/lips, run on all rows
    at once; each row keeps its own iterate, momentum and objective, and
    leaves the batch when it stops.  When the momentum step would raise a
    row's objective, the row restarts with a plain step from its last
    point, so no objective ever rises; when even that step cannot improve,
    the objective is numerically flat and the point stands.  A row
    converges once its objective changes by at most epsilon * (1 + |f|).

    Returns the solutions, each row's last change (0 at a flat point) and
    step count, and the indices of the rows that did not converge within
    max_iter steps.
    """
    n, K = g.shape
    out, resid, steps = np.empty((n, K)), np.empty(n), np.full(n, max_iter)
    live = np.arange(n)
    b = y = np.full((n, K), 1.0 / K)
    f, t = _objective(H, b, g, const), np.ones(n)
    for it in range(1, max_iter + 1):
        b_new = _descent_step(H, y, g, lips)
        f_new = _objective(H, b_new, g, const)
        up = np.flatnonzero(f_new > f)
        b_new[up] = _descent_step(H, b[up], g[up], lips)
        f_new[up] = _objective(H, b_new[up], g[up], const[up])
        t[up] = 1.0
        flat = np.zeros(live.size, dtype=bool)
        flat[up] = f_new[up] > f[up]
        delta = np.where(flat, 0.0, np.abs(f - f_new))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = b_new + ((t - 1.0) / t_next)[:, None] * (b_new - b)
        b, f, t = np.where(flat[:, None], b, b_new), f_new, t_next
        stop = flat | (delta <= epsilon * (1.0 + np.abs(f)))
        out[live[stop]], resid[live[stop]], steps[live[stop]] = b[stop], delta[stop], it
        keep = ~stop
        live, b, f, t, y, delta, g, const = (
            x[keep] for x in (live, b, f, t, y, delta, g, const))
        if not live.size:
            break
    out[live], resid[live] = b, delta
    return out, resid, steps, live


def check_epsilon(epsilon: float) -> None:
    """Refuse a regression precision that is negative or not finite."""
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")


def estimate_ranking_matrix(
    cooc: CoocMatrix,
    row_scale: np.ndarray,
    novel: NovelPairSet,
    epsilon: float = 1e-4,
    max_iter: int = 10000,
    threads: int = 1,
) -> RankingMatrix:
    """Recover B by regressing every active row on the selected rows.

    The quadratic program for row w uses only entries of E = novel.factors,
    the rank-K part of the co-occurrence matrix that detection found: with
    S the selected rows, minimize over the simplex
        b H b - 2 g b + E[w, w],
    H = (E[S, S] + E[S, S]^T) / 2 and g = (E[S, w] + E[w, S]) / 2.  An
    indefinite H is shifted by |lambda_min| + 1e-10.  All rows are solved
    together (``_minimize_simplex_quadratics``).  Solutions are scaled by
    ``row_scale`` and the columns normalized to sum to one; the result
    keeps ``cooc.corpus``, the records of a sampled estimate, and the
    largest step count of any row and the largest last change.
    ``threads`` has no effect; it is kept so that callers passing it keep
    working.
    """
    check_epsilon(epsilon)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    E = novel.factors
    W = E.shape[0]
    row_scale = np.asarray(row_scale, dtype=float)
    if row_scale.shape != (W,):
        raise ValueError(f"row_scale must have shape ({W},)")
    sel = np.asarray(novel.rows, dtype=np.int64)
    K = sel.size

    En = E.block(sel, sel)
    H = 0.5 * (En + En.T)
    evals = np.linalg.eigvalsh(H)
    if evals[0] < 0:
        H = H + (abs(evals[0]) + 1e-10) * np.eye(K)
        evals = np.linalg.eigvalsh(H)
    # Floor keeps the step finite when the selected block is numerically
    # zero; any floor above the top eigenvalue still yields descent steps.
    lips = max(float(evals[-1]), 1e-12)

    act = np.flatnonzero(cooc.active)
    g = 0.5 * (E.block(sel, act).T + E.block(act, sel))
    b, resid, steps, failed = _minimize_simplex_quadratics(H, g, E.diagonal(act), lips,
                                                           epsilon, max_iter)
    if failed.size:
        worst = max(zip(act[failed].tolist(), resid[failed].tolist()), key=lambda t: t[1])
        raise RegressionError(
            f"{failed.size} row(s) failed to converge within {max_iter} iterations; "
            f"worst residual {worst[1]:.3e} at row {worst[0]}"
        )
    C = np.zeros((W, K))
    C[act] = row_scale[act, None] * b
    colsum = C.sum(axis=0)
    if np.any(colsum <= 0):
        raise RegressionError("a recovered column has no mass")
    return RankingMatrix(C / colsum, cooc.Q, corpus=cooc.corpus, steps=int(steps.max()),
                         residual=float(resid.max()))
