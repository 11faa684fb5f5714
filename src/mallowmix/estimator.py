"""Extreme-row detection and simplex-constrained recovery of B.

In the asymptotic co-occurrence geometry the rows belonging to pairs that
are (approximately) specific to one component sit at the extreme points of
the row cloud; every other row is (approximately) a convex combination of
them.  Detection scores each row by the fraction of random directions in
which it strictly dominates its well-separated peers, then greedily picks K
mutually separated high scorers.  Regression writes every active row as a
simplex combination of the selected rows and rescales to recover B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pairs
from .mallows import RankingMatrix
from .moments import CoocMatrix


class DetectionError(RuntimeError):
    pass


class RegressionError(RuntimeError):
    pass


@dataclass
class DetectionConfig:
    n_components: int
    n_projections: int | None = None  # default 150 per component
    zeta: float = 0.05
    seed: int = 0
    doubled_distance_rule: bool = False
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

    @property
    def resolved_projections(self) -> int:
        if self.n_projections is None:
            return 150 * self.n_components
        return self.n_projections


@dataclass
class NovelPairSet:
    """Detection outcome: selected rows and all solid-angle estimates."""

    rows: list[int]  # selected pair rows, in selection order
    item_pairs: list[tuple[int, int]]
    solid_angles: dict[int, float]  # q-hat for every candidate row
    # Whether the noise-floor dedupe left slots that the plain zeta/2 rule
    # had to fill.
    fallback_used: bool = False
    # Depth L of the per-direction shortlist: one more than the largest
    # count of non-peers of a row that has peers; 0 when no row has any.
    shortlist_depth: int = 0
    # Tiles of the upper triangle whose distances were computed, and all
    # of them; the others were decided by the rows' norms alone.
    distance_tiles: int = 0
    total_tiles: int = 0


# Edge of the square tiles in which detection computes row distances, and
# the most directions it scores at once, so that its float temporaries
# stay near _BLOCK_ROWS x n entries however many candidate rows there are.
_BLOCK_ROWS = 256


def _row_noise(cooc: CoocMatrix, act: np.ndarray, row_sq: np.ndarray) -> np.ndarray:
    """Standard error of each candidate row of E over candidate columns.

    Row a of E is M times a sum over users of independent vectors
    v_m = X'n[a, m] * Xn[:, m]; the squared error of the sum is estimated
    as the sum of squared contributions minus the squared mean term
    (``row_sq`` holds each row's squared norm).
    """
    Xn, Xpn = cooc.E.right, cooc.E.left
    M = cooc.M
    sub = Xn[act]
    colsq = np.asarray(sub.multiply(sub).sum(axis=0)).ravel()
    psub = Xpn[act]
    contrib = np.asarray(psub.multiply(psub) @ colsq[:, None]).ravel()
    return np.sqrt(np.maximum(M**2 * contrib - row_sq / M, 0.0))


def _projection_directions(seed: int, P: int, W: int, cols: np.ndarray) -> np.ndarray:
    """One isotropic Gaussian direction in W dimensions per projection id,
    restricted to the coordinates ``cols``: a (P, cols.size) array.

    Each direction has its own stream keyed by (seed, projection id), so a
    run with more projections extends, rather than reshuffles, a smaller
    one.
    """
    dirs = np.empty((P, cols.size))
    for r in range(P):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, r)))
        dirs[r] = rng.standard_normal(W)[cols]
    return dirs


def _from_gram(gram: np.ndarray, sq_from: np.ndarray, sq_to: np.ndarray,
               doubled: bool) -> np.ndarray:
    """Distances from rows to rows, given their Gram entries and squared norms.

    With ``doubled`` row i is compared against twice row j (the literal
    printed rule), which makes the distance asymmetric.
    """
    if doubled:
        d2 = sq_from[:, None] - 4.0 * gram + 4.0 * sq_to[None, :]
    else:
        d2 = sq_from[:, None] - 2.0 * gram + sq_to[None, :]
    return np.sqrt(np.maximum(d2, 0.0))


def _near_sets(rows: np.ndarray, sq: np.ndarray, half: float, doubled: bool):
    """Each row's non-peers: the other rows closer to it than ``half``.

    Distances come in square tiles of _BLOCK_ROWS rows over the upper
    triangle, the rows taken in ascending norm order, each Gram tile read
    both ways.  Since ||r_i - c r_j|| >= | ||r_i|| - c ||r_j|| | (c = 2
    under the doubled rule), a pair of tiles whose norm ranges keep every
    such gap at half plus twice ``slack`` or more, in both directions,
    holds no non-peers and gets no Gram product: one slack covers the
    rounding of sq_i - 2c g + c^2 sq_j, the other, generously, that of the
    norms.  A tile of rows is finished once all its tiles are in; those
    computed before it wait as boolean masks, at most n * n / 2 bytes.
    Returns the count of non-peers per row; for the rows that have at
    least one peer, the non-peer pairs (i, j) as sorted keys i * n + j,
    ended by the sentinel n * n; and the number of tiles computed and in
    all.  Rows without peers keep only their count (n - 1), since they
    score 1.
    """
    n, d = rows.shape
    c = 2.0 if doubled else 1.0
    order = np.argsort(sq, kind="stable")
    tiles = [order[lo:lo + _BLOCK_ROWS] for lo in range(0, n, _BLOCK_ROWS)]
    # each tile's smallest and largest norm and largest squared norm
    first = np.sqrt(sq[[t[0] for t in tiles]])
    last_sq = sq[[t[-1] for t in tiles]]
    last = np.sqrt(last_sq)
    masks: list[list] = [[] for _ in tiles]  # (columns, non-peer mask) of each tile's rows
    counts = np.empty(n, dtype=np.int64)
    keys = []
    computed = 0
    for a, A in enumerate(tiles):
        rows_a = rows[A]
        for b in range(a, len(tiles)):
            slack = np.sqrt(2.0 * (d + 2) * np.finfo(float).eps * c * c
                            * (last_sq[a] + last_sq[b]))
            gap = min(max(first[a] - c * last[b], c * first[b] - last[a]),
                      max(first[b] - c * last[a], c * first[a] - last[b]))
            if gap >= half + 2.0 * slack:
                continue
            computed += 1
            B = tiles[b]
            gram = rows_a @ rows[B].T
            near = ~(_from_gram(gram, sq[A], sq[B], doubled) >= half)
            if b == a:
                np.fill_diagonal(near, False)
            else:
                masks[b].append((A, ~(_from_gram(gram.T, sq[B], sq[A], doubled) >= half)))
            masks[a].append((B, near))
        counts[A] = sum(near.sum(axis=1) for _, near in masks[a])
        has_peers = counts[A] < n - 1
        for cols, near in masks[a]:
            i, j = np.nonzero(near[has_peers])
            keys.append(A[has_peers][i] * n + cols[j])
        masks[a] = []
    keys = np.sort(np.concatenate(keys)) if keys else np.empty(0, dtype=np.int64)
    total = len(tiles) * (len(tiles) + 1) // 2
    return counts, np.append(keys, n * n), computed, total


def _shortlist_wins(proj: np.ndarray, near_keys: np.ndarray, depth: int) -> np.ndarray:
    """Directions each row wins against its peers, from a per-direction shortlist.

    Row i wins direction r when every other row with projection >= its own
    is a non-peer of i.  A row with at most depth - 1 non-peers can then
    have at most depth - 1 rows at or above it, so only the top depth + 1
    rows of a direction can win, and each is tested against the others in
    that shortlist: the lowest of them has depth rows at or above it and
    always loses, so rows outside the shortlist, even tied ones, never
    decide the outcome.  Rows with more non-peers than depth - 1 (rows
    without peers) get meaningless counts.
    """
    n, P = proj.shape
    T = depth + 1
    wins = np.zeros(n, dtype=np.int64)
    chunk = max(1, min(_BLOCK_ROWS, _BLOCK_ROWS * n // (T * T)))
    others = ~np.eye(T, dtype=bool)[:, :, None]
    for lo in range(0, P, chunk):
        vals = proj[:, lo:lo + chunk]
        top = np.argpartition(vals, n - T, axis=0)[n - T:]  # (T, c)
        tv = np.take_along_axis(vals, top, axis=0)
        # blocks[a, b, r]: shortlisted row b sits at or above row a
        blocks = (tv[None, :, :] >= tv[:, None, :]) & others
        a, b, r = np.nonzero(blocks)
        pair = top[a, r] * n + top[b, r]
        is_near = near_keys[np.searchsorted(near_keys, pair)] == pair
        won = np.ones(top.shape, dtype=bool)
        won[a[~is_near], r[~is_near]] = False
        wins += np.bincount(top[won], minlength=n)
    return wins


def detect_novel_pairs(cooc: CoocMatrix, config: DetectionConfig) -> NovelPairSet:
    """Score candidate rows by estimated solid angle and pick K separated ones.

    Candidates are the active rows, minus rows observed too rarely for
    their normalized co-occurrence profile to be trustworthy (see
    ``DetectionConfig.min_count_fraction``).  For sampled matrices the row
    geometry is likewise restricted to the candidate coordinates: columns
    belonging to rarely observed pairs carry mostly sampling noise, which
    would otherwise swamp both the distances and the projections.  A row's
    score is the fraction of random directions on which its projection
    strictly exceeds every candidate at distance >= zeta/2 from it (ties
    score nothing).  Selection walks the scores in descending order,
    keeping a row only if it stays separated from everything already kept.
    For sampled matrices two rows are additionally considered the same
    extreme point when their distance is within three combined standard
    errors of the row estimates, because independent noisy copies of one
    underlying row land well apart even though they witness the same
    component; if that stricter rule cannot fill K slots the walk resumes
    with the plain zeta/2 rule.  Fails if fewer than K rows separated by
    zeta/2 exist.

    Distances are computed in tiles, except between tiles whose rows'
    norms alone set them apart, and only each row's set of non-peers is
    kept; scoring tests the top rows of each direction (see
    ``_shortlist_wins``); the selection walk reads peers from the same
    sets and computes the noise-floor distances of the at most K selected
    rows only.
    """
    K = config.n_components
    candidate = cooc.active.copy()
    if cooc.row_counts is not None and config.min_count_fraction > 0 and candidate.any():
        floor = config.min_count_fraction * float(np.median(cooc.row_counts[candidate]))
        candidate &= cooc.row_counts >= floor
    act = np.flatnonzero(candidate)
    if act.size < K:
        raise DetectionError(f"only {act.size} candidate rows, need at least {K}")
    sampled = cooc.split is not None
    W = cooc.E.shape[1]
    cols = act if sampled else np.arange(W)
    rows = cooc.E.block(act, cols)
    n = act.size
    half = config.zeta / 2.0
    doubled = config.doubled_distance_rule

    sq = np.einsum("ij,ij->i", rows, rows)
    near_counts, near_keys, distance_tiles, total_tiles = _near_sets(rows, sq, half, doubled)
    has_peers = near_counts < n - 1
    depth = int(near_counts[has_peers].max()) + 1 if has_peers.any() else 0

    qhat = np.ones(n)
    if depth:
        P = config.resolved_projections
        # Freed as soon as used: the directions and the projections are
        # the largest arrays detection holds beside ``rows``.
        dirs = _projection_directions(config.seed, P, W, cols)
        proj = rows @ dirs.T  # (n, P)
        del dirs
        wins = _shortlist_wins(proj, near_keys, depth)
        del proj
        qhat[has_peers] = wins[has_peers] / P

    nu = _row_noise(cooc, act, sq) if sampled else None
    selected: list[int] = []
    peers: dict[int, np.ndarray] = {}  # selected row -> rows at >= zeta/2 from it
    distinct: dict[int, np.ndarray] = {}  # selected row -> peers beyond the noise floor

    def select(s: int) -> None:
        # The peers of s come from its near set, so that selection and
        # scoring agree on every pair; only the noise floor needs distances.
        far = np.full(n, has_peers[s])
        far[s] = False
        lo, hi = np.searchsorted(near_keys, [s * n, (s + 1) * n])
        far[near_keys[lo:hi] - s * n] = False
        peers[s] = far
        if sampled:
            dist = _from_gram(rows[s:s + 1] @ rows.T, sq[s:s + 1], sq, doubled)[0]
            distinct[s] = far & (dist >= 3.0 * np.hypot(nu[s], nu))
        else:
            distinct[s] = far
        selected.append(s)

    order = np.lexsort((act, -qhat))
    for cand in order:
        if all(distinct[s][cand] for s in selected):
            select(int(cand))
            if len(selected) == K:
                break
    fallback_used = len(selected) < K and sampled
    if fallback_used:
        # Noise-scaled dedupe was too aggressive for this sample size; top
        # up with rows that pass the plain separation rule.
        for cand in order:
            if cand in selected:
                continue
            if all(peers[s][cand] for s in selected):
                select(int(cand))
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
        fallback_used=fallback_used,
        shortlist_depth=depth,
        distance_tiles=distance_tiles,
        total_tiles=total_tiles,
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


def _objective(H, b, c, const):
    """b H b - 2 c b + const for every row of b.

    Stacked matmuls make one BLAS call per row, as a product of that row
    alone would, so each row's value does not depend on the batch.
    """
    bHb = (b[:, None, :] @ H @ b[:, :, None])[:, 0, 0]
    return bHb - ((2.0 * c)[:, None, :] @ b[:, :, None])[:, 0, 0] + const


def _descent_step(H, y, c, lips):
    """Projected gradient step of length 1 / lips from every row of y."""
    return _project_rows(y - ((H @ y[:, :, None])[:, :, 0] - c) / lips)


def _minimize_simplex_quadratics(H, c, const, lips, epsilon, max_iter):
    """min_b b H b - 2 c[w] b + const[w] over the simplex, for every row w.

    Accelerated projected gradient with fixed step 1/lips, run on all rows
    at once; each row keeps its own iterate, momentum and objective, and
    leaves the batch when it stops.  When the momentum step would raise a
    row's objective, the row restarts with a plain step from its last
    point, so no objective ever rises; when even that step cannot improve,
    the objective is numerically flat and the point stands.  A row
    converges once its objective changes by at most epsilon * (1 + |f|).

    Returns the solutions, each row's last change (0 at a flat point) and
    the indices of the rows that did not converge within max_iter steps.
    """
    n, K = c.shape
    out, resid = np.empty((n, K)), np.empty(n)
    live = np.arange(n)
    b = y = np.full((n, K), 1.0 / K)
    f, t = _objective(H, b, c, const), np.ones(n)
    for _ in range(max_iter):
        b_new = _descent_step(H, y, c, lips)
        f_new = _objective(H, b_new, c, const)
        up = np.flatnonzero(f_new > f)
        b_new[up] = _descent_step(H, b[up], c[up], lips)
        f_new[up] = _objective(H, b_new[up], c[up], const[up])
        t[up] = 1.0
        flat = np.zeros(live.size, dtype=bool)
        flat[up] = f_new[up] > f[up]
        delta = np.where(flat, 0.0, np.abs(f - f_new))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = b_new + ((t - 1.0) / t_next)[:, None] * (b_new - b)
        b, f, t = np.where(flat[:, None], b, b_new), f_new, t_next
        stop = flat | (delta <= epsilon * (1.0 + np.abs(f)))
        out[live[stop]], resid[live[stop]] = b[stop], delta[stop]
        keep = ~stop
        live, b, f, t, y, delta, c, const = (
            x[keep] for x in (live, b, f, t, y, delta, c, const))
        if not live.size:
            break
    out[live], resid[live] = b, delta
    return out, resid, live


def estimate_ranking_matrix(
    cooc: CoocMatrix,
    row_scale: np.ndarray,
    novel: NovelPairSet,
    epsilon: float = 1e-4,
    max_iter: int = 10000,
    threads: int = 1,
) -> RankingMatrix:
    """Recover B by regressing every active row on the selected rows.

    The quadratic program for row w uses only entries of the co-occurrence
    matrix: with S the selected rows, minimize over the simplex
        b H b - 2 c b + E[w, w],
    H = (E[S, S] + E[S, S]^T) / 2 and c = (E[S, w] + E[w, S]) / 2.  An
    indefinite H is shifted by |lambda_min| + 1e-10.  All rows are solved
    together (``_minimize_simplex_quadratics``).  Solutions are scaled by
    ``row_scale`` and the columns normalized to sum to one.  ``threads``
    has no effect; it is kept so that callers passing it keep working.
    """
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    E = cooc.E
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
    c = 0.5 * (E.block(sel, act).T + E.block(act, sel))
    b, resid, failed = _minimize_simplex_quadratics(H, c, E.diagonal(act), lips, epsilon,
                                                    max_iter)
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
    return RankingMatrix(C / colsum, cooc.Q, "B")
