"""Scoring recovered components against ground truth, plus per-user weight
inference and the log-likelihood of comparisons under fitted weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import pairs
from .generator import ComparisonCorpus
from .mallows import order_probabilities, pair_gaps
from .permutations import Permutation, kendall_tau


@dataclass
class RecoveryReport:
    """Recovery quality after aligning estimated components to the truth.

    ``matching[k]`` is the estimated component matched to true component k.
    ``normalized_error`` averages the matched Kendall distances and divides
    by the number of ordered pairs Q(Q-1), so it lies in [0, 1/2].
    """

    normalized_error: float
    per_component_kendall: list[int]  # in truth order
    dispersion_abs_errors: list[float]  # in truth order
    matching: list[int]


@dataclass
class PredictionReport:
    avg_loglik: float  # -inf when any scored comparison has probability zero
    zero_events: int
    n: int


def align_and_score(truth, estimate) -> RecoveryReport:
    """Match estimated components to true ones and score the recovery.

    Components are paired by minimum-cost bipartite matching with Kendall
    distance as the cost, so the score is invariant to how the estimate
    happens to order its components.  Each argument is a model with a list
    of ``MallowsComponent``s as its ``components``: a generative
    ``MixedMembershipModel`` or a ``post.EstimatedModel``.
    """
    true, est = truth.components, estimate.components
    if len(true) != len(est):
        raise ValueError(
            f"component count mismatch: truth has {len(true)}, estimate has {len(est)}")
    Q = true[0].Q
    if est[0].Q != Q:
        raise ValueError(f"item count mismatch: truth has {Q}, estimate has {est[0].Q}")
    # imported here so that only evaluate pays for loading scipy.optimize
    from scipy.optimize import linear_sum_assignment

    K = len(true)
    cost = np.array([[kendall_tau(t.reference, e.reference) for e in est] for t in true],
                    dtype=float)
    rows, cols = linear_sum_assignment(cost)
    matching = [0] * K
    for k, j in zip(rows, cols):
        matching[int(k)] = int(j)
    per_component = [int(cost[k, matching[k]]) for k in range(K)]
    phi_errors = [abs(true[k].dispersion - est[matching[k]].dispersion) for k in range(K)]
    normalized = float(np.mean(per_component)) / pairs.num_pairs(Q)
    return RecoveryReport(normalized, per_component, phi_errors, matching)


EM_TOL = 1e-8  # default relative log-likelihood change at which the weight EM stops
# The dispersion refit's weight EM stops at this relative change; on the
# benchmark's wide-q60 corpora its dispersions then lie within 1e-3 of
# those after a weight EM run to EM_TOL.
REFIT_TOL = 1e-3
# Dispersions enter the refit at no less than _REFIT_FLOOR, raised with Q
# by _refit_floor, so that every record keeps a positive probability.
# Forward differences of step
# _REFIT_STEP give the Newton derivatives.
_REFIT_FLOOR = 1e-3
_REFIT_STEP = 1e-5
# Newton stops once a step would move no dispersion by more than this,
# well above the few 1e-9 by which the differences' error shifts the
# maximum.
_REFIT_PHI_TOL = 1e-7
_REFIT_MAX_STEPS = 100
_REFIT_HALVINGS = 30
# The refit reads every s-th user, s the smallest stride that leaves at
# most this many records, so that its cost stays bounded as corpora grow.
_REFIT_RECORDS = 2**19
# The weight EM sweeps blocks of whole users of at most this many entries;
# a user with more entries takes a block of its own.  The dispersion
# refit's Newton steps read the same blocks, and predict_loglik reads
# records in blocks of this size too.
_EM_BLOCK = 2**15


def _observation_array(B, Q: int) -> np.ndarray:
    """``B`` as a float array, checked to be (W, K): one row per ordered
    pair of Q items, W = Q(Q-1), and at least one component."""
    B = np.asarray(B, dtype=float)
    W = pairs.num_pairs(Q)
    if B.ndim != 2 or B.shape[0] != W or B.shape[1] < 1:
        raise ValueError(f"B must have shape ({W}, K), one row per ordered pair of the "
                         f"corpus's {Q} items and K >= 1 components; got {B.shape}")
    return B


def _unsupported(r: int, Q: int, underflow: bool = False) -> ValueError:
    i, j = pairs.row_pair(r, Q)
    if underflow:
        return ValueError(f"comparison ({i}, {j}): the record's mixture probability "
                          f"underflowed to zero at the current weights")
    return ValueError(f"comparison ({i}, {j}) has zero probability in every component")


def infer_weights(corpus: ComparisonCorpus, B, *, tol: float = EM_TOL,
                  max_iter: int = 500, trace: bool = False):
    """Per-user maximum-likelihood mixture weights for fixed components.

    Expectation-maximization on the multinomial mixture sum_k B[w, k] theta_k,
    run for every user at once from the barycenter start and accelerated by
    SQUAREM (Varadhan & Roland, Scand. J. Stat. 2008) with the S3 step
    length chosen per user.  ``B`` is the (W, K) array of observation
    probabilities, as ``MixedMembershipModel.observation_matrix`` returns
    it; a B of another shape is refused.  Returns an (M, K) array of
    weights; users without records keep the barycenter.  A record with
    probability zero in every component is an error that names the first
    one in corpus order.  With ``trace`` the
    total log-likelihood at the start of every cycle is returned as well.
    A cycle takes at most three EM steps; ``max_iter`` bounds the cycles, and
    stopping there before the relative change of the total log-likelihood
    falls to ``tol`` emits a RuntimeWarning.

    Records of one user and one ordered pair are alike, so the EM
    (``_weights_em``) runs over the entries of ``pairs.user_entries``, each
    weighted by its count of records.  Beside the corpus it holds 12 bytes
    an entry, its count (8) and pair row (4, int32 unless M * W passes
    2**31 - 1), and gathers the outcome probabilities B[w, k] of one block
    of users at a time.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    B = _observation_array(B, corpus.Q)
    K = B.shape[1]
    M, n = corpus.M, corpus.n_records
    count, row, starts, occupied = pairs.user_entries(corpus)

    def unsupported(theta: np.ndarray):
        # the first record in corpus order whose pair row is zero in every
        # component (the first sweep, at the barycenter, meets them all);
        # failing one, the first whose terms theta_k B[w, k] all underflowed;
        # a block of records at a time
        dead = B.sum(axis=1) == 0
        for underflow in (False, True):
            for lo in range(0, n, _EM_BLOCK):
                rows = corpus.pair_rows(lo, lo + _EM_BLOCK)
                if underflow:
                    users = np.searchsorted(occupied, corpus.user[lo:lo + _EM_BLOCK])
                    bad = np.einsum("nk,nk->n", theta.T[users], B[rows]) == 0
                else:
                    bad = dead[rows]
                if bad.any():
                    return _unsupported(int(rows[np.argmax(bad)]), corpus.Q, underflow)
        raise RuntimeError("the weight EM met a record of probability zero it cannot find")

    # each component's outcome row contiguous, for the sweeps' gathers
    theta, history = _weights_em(count, row, starts, np.ascontiguousarray(B.T), tol,
                                 max_iter, unsupported)
    weights = np.full((M, K), 1.0 / K)
    weights[occupied] = theta.T
    if trace:
        return weights, history
    return weights


def _user_blocks(starts: np.ndarray, n_entries: int) -> tuple[np.ndarray, list[tuple]]:
    """Each user's count of entries, which run contiguously from its
    ``starts``, and blocks (u, v, lo, hi) of whole users: users u..v-1 own
    entries lo..hi-1, at most _EM_BLOCK of them unless u alone has more."""
    entries = np.diff(starts, append=n_entries)
    ends = starts + entries
    blocks = []
    u = 0
    while u < starts.size:
        v = max(u + 1, int(np.searchsorted(ends, starts[u] + _EM_BLOCK, side="right")))
        blocks.append((u, v, int(starts[u]), int(ends[v - 1])))
        u = v
    return entries, blocks


def _block_terms(theta: np.ndarray, entries: np.ndarray, u: int, v: int, table: np.ndarray,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (K, entries) terms theta_k table[k, w] of users u..v-1's entries,
    given each user's ``entries`` and the entries' pair ``rows``, and the
    terms' sum over k, added one component at a time (``terms.sum(axis=0)``
    adds a one-entry block pairwise once K >= 8).

    Component k's outcome probabilities are gathered straight into row k of
    the terms, which is then multiplied in place by theta_k repeated over
    each user's entries: the product of the same two factors, so of the
    same bits, as theta_k B[w, k].  The rows are widened to intp once, not
    by every component's ``take``; every row must lie in ``table``, since
    "clip", which lets ``take`` write into ``out`` unbuffered, maps one
    that does not onto the last column.
    """
    rows = rows.astype(np.intp, copy=False)
    terms = np.empty((len(table), rows.size))
    for k, term in enumerate(terms):
        table[k].take(rows, out=term, mode="clip")
        term *= np.repeat(theta[k, u:v], entries[u:v])
    total = terms[0].copy() if len(terms) == 1 else terms[0] + terms[1]
    for k in range(2, len(terms)):
        total += terms[k]
    return terms, total


def _weights_em(count: np.ndarray, row: np.ndarray, starts: np.ndarray, table: np.ndarray,
                tol: float, max_iter: int, unsupported) -> tuple[np.ndarray, list[float]]:
    """The weight EM of ``infer_weights`` on grouped entries: entry e holds
    ``count[e]`` records of pair row ``row[e]``, and every user's entries
    run contiguously from its ``starts``.  ``table`` is the (K, W) array of
    outcome probabilities, component k's in row k.  Returns the (K, users)
    weights and the total log-likelihood at the start of every cycle;
    ``unsupported(theta)`` gives the error to raise when an entry has
    probability zero.

    Each EM step is one sweep over blocks of whole users (``_user_blocks``)
    that gathers a block's outcome probabilities from ``table``, forms its
    terms theta_k B[w, k] and their sum, its mixture probabilities, once
    (``_block_terms``) and turns the terms into its M-step shares, so that
    nothing of K x entries is held.  A SQUAREM cycle sweeps theta1 and then
    the extrapolated point, whose M-step is the next cycle's theta1 unless
    a user falls back to theta2 (that sweep then forms no more shares).
    """
    K = len(table)
    sizes = np.add.reduceat(count, starts)  # records per occupied user
    entries, blocks = _user_blocks(starts, count.size)

    def sweep(theta: np.ndarray, loglik: bool = True, floor=None):
        """Each user's log-likelihood at ``theta`` (K x occupied users; -inf
        where a record has probability zero) if ``loglik``, and the M-step
        from ``theta``: None where an entry has probability zero, or, given
        ``floor``, where a user's log-likelihood is not at least its floor,
        since that step is not used."""
        user_ll = np.empty(theta.shape[1]) if loglik else None
        step = np.empty_like(theta)
        for u, v, lo, hi in blocks:
            local = starts[u:v] - lo
            terms, total = _block_terms(theta, entries, u, v, table, row[lo:hi])
            if step is not None and total.min() == 0:
                step = None
                if not loglik:
                    break
            if step is not None:
                # each component's count-weighted share theta_k B[w, k] /
                # total, in [0, 1] where count / total alone could overflow
                terms /= total
                terms *= count[lo:hi]
                for k in range(K):
                    step[k, u:v] = np.add.reduceat(terms[k], local)
            if loglik:
                with np.errstate(divide="ignore"):
                    np.log(total, out=total)
                total *= count[lo:hi]
                user_ll[u:v] = np.add.reduceat(total, local)
                if floor is not None and not (user_ll[u:v] >= floor[u:v]).all():
                    step = None
            del terms, total  # before the next block's are formed
        return user_ll, None if step is None else step / sizes

    theta = np.full((K, starts.size), 1.0 / K)
    user_ll = theta1 = None
    history: list[float] = []
    prev_ll = -math.inf
    change = math.inf
    for it in range(1, max_iter + 1):
        if user_ll is None:
            user_ll, theta1 = sweep(theta)
        if theta1 is None:
            raise unsupported(theta)
        ll = float(user_ll.sum())
        if ll < prev_ll - 1e-9 * (1.0 + abs(prev_ll)):
            raise RuntimeError(
                f"EM log-likelihood decreased at iteration {it}: {prev_ll!r} -> {ll!r}")
        history.append(ll)
        if _converged(ll, prev_ll, tol):
            theta = theta1
            break
        change = abs(ll - prev_ll) / (1.0 + abs(ll))
        prev_ll = ll
        _, theta2 = sweep(theta1, loglik=False)
        if theta2 is None:
            raise unsupported(theta1)
        theta, extrapolated = _squarem_point(theta, theta1, theta2)
        floor = np.where(extrapolated, user_ll, -math.inf)
        user_ll = theta1 = None
        if extrapolated.any():
            # a point that lowers a user's likelihood, or gives one of its
            # records probability zero, falls back to theta2; else its
            # sweep is the next cycle's first
            user_ll, theta1 = sweep(theta, floor=floor)
            fallback = ~(user_ll >= floor)
            if fallback.any():
                theta[:, fallback] = theta2[:, fallback]
                user_ll = theta1 = None
    else:
        warnings.warn(
            f"EM stopped at max_iter={max_iter} without converging; last relative "
            f"log-likelihood change {change:.3e} (tol {tol:.1e})",
            RuntimeWarning, stacklevel=3)
    return theta, history


def _refit_floor(Q: int) -> float:
    """The least dispersion the refit starts from: _REFIT_FLOOR, raised for
    Q > 103 to the phi whose phi^(Q-1) is the smallest normal float, so
    that every order probability, at least about (Q-1) phi^(Q-1) (1-phi)
    (a pair reversed across the whole ranking), is a positive normal float
    (at Q = 120 and phi = 1e-3 it underflows to zero)."""
    return max(_REFIT_FLOOR, np.finfo(float).tiny ** (1.0 / (Q - 1)))


def refit_dispersions(corpus: ComparisonCorpus, rankings: list[Permutation],
                      dispersions) -> tuple[list[float], dict]:
    """The dispersions refitted by likelihood on the records of ``corpus``,
    with the rankings fixed.

    It reads the entries (``pairs.user_entries``) of every s-th user, s set
    by _REFIT_RECORDS.  A record of pair row w has probability sum_k
    theta_uk beta_k(w) times the pair's own probability, which all
    components share and which drops out; beta_k(w) is the Mallows order
    probability of w at its gap in ranking k.  The refit takes one step of
    the alternation between weights and dispersions: every user's weights
    theta_u come from the weight EM of ``infer_weights`` at the given
    dispersions (raised to at least ``_refit_floor(Q)``, so that every
    record keeps a positive normal probability), stopped at relative change
    REFIT_TOL, and are held while Newton's method maximizes the records'
    log-likelihood over the K dispersions.  The weights keep part of the
    given dispersions' error, the less the more records each user has.
    Newton keeps each phi in [0, 1) and halves a step until the likelihood
    does not fall; its derivatives in phi are forward differences of the
    pair marginal tables.  It stops once a step would move no dispersion by
    more than _REFIT_PHI_TOL, or when no step keeps the likelihood.

    The EM and every Newton step form one block of whole users' terms at a
    time, theta_uk times beta_k(w) or its derivatives, by the EM's own
    ``_block_terms``, which gathers the block's columns of the (K, W)
    ``beta`` or derivative table, so no K x entries array is held.  The
    log-likelihood, the gradient and the Hessian are summed by
    ``_block_sums``, in an order set by the users' entries and _EM_BLOCK
    alone.

    Returns the dispersions and a dict with the weight EM's cycles, the
    Newton steps taken, the final log-likelihood and the records read.
    """
    Q = corpus.Q
    users = np.zeros(corpus.M, dtype=bool)
    users[::max(1, -(-corpus.n_records // _REFIT_RECORDS))] = True
    count, row, starts, _ = pairs.user_entries(corpus, users)
    gaps = [pair_gaps(sigma.positions) for sigma in rankings]
    K = len(gaps)
    phis = np.maximum(np.asarray(dispersions, dtype=float), _refit_floor(Q))
    beta = order_probabilities(Q, gaps, phis)
    theta, history = _weights_em(
        count, row, starts, beta, REFIT_TOL, 500,
        lambda _: RuntimeError("a record has probability zero in every component"))
    del beta
    entries, blocks = _user_blocks(starts, count.size)

    def loglik(phis) -> float:
        beta = order_probabilities(Q, gaps, phis)
        parts = []
        for u, v, lo, hi in blocks:
            total = _block_terms(theta, entries, u, v, beta, row[lo:hi])[1]
            with np.errstate(divide="ignore"):
                parts.append(np.einsum("e,e->", count[lo:hi], np.log(total)))
        return float(_block_sums(parts))

    def newton_terms(b0, dbeta, curve, u: int, v: int, lo: int, hi: int) -> np.ndarray:
        """The gradient's, the Hessian's diagonal and the Hessian's cross
        terms over the entries lo..hi-1 of users u..v-1, flat.  Each
        derivative is divided by the entry's probability before it is
        weighted by the count: count / total^2 overflows once a record's
        probability falls below about 1e-154."""
        rows, c = row[lo:hi].astype(np.intp), count[lo:hi]
        # each block's terms are dropped once read, so that at most two
        # (K, entries) arrays are held at a time
        total = _block_terms(theta, entries, u, v, b0, rows)[1]
        curv = _block_terms(theta, entries, u, v, curve, rows)[0]
        curv /= total
        diag = np.einsum("ke,e->k", curv, c)
        del curv
        # theta_uk d beta_k / d phi_k
        slope = _block_terms(theta, entries, u, v, dbeta, rows)[0]
        slope /= total
        grad = np.einsum("ke,e->k", slope, c)
        cross = np.einsum("ke,je->kj", slope * c, slope)
        return np.concatenate([grad, diag, cross.ravel()])

    ll = loglik(phis)
    top = math.nextafter(1.0, 0.0)
    steps = 0
    for _ in range(_REFIT_MAX_STEPS):
        b0, b1, b2 = (order_probabilities(Q, gaps, phis + j * _REFIT_STEP) for j in range(3))
        dbeta = (4.0 * b1 - 3.0 * b0 - b2) / (2.0 * _REFIT_STEP)
        curve = (b0 - 2.0 * b1 + b2) / _REFIT_STEP**2
        parts = [newton_terms(b0, dbeta, curve, *block) for block in blocks]
        sums = _block_sums(parts)
        grad = sums[:K]
        hess = np.diag(sums[K:2 * K]) - sums[2 * K:].reshape(K, K)
        try:
            np.linalg.cholesky(-hess)  # a Newton step only where the curvature is negative
            move = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            move = grad / np.maximum(np.abs(np.diag(hess)), np.finfo(float).tiny)
        if np.max(np.abs(np.clip(phis + move, 0.0, top) - phis)) <= _REFIT_PHI_TOL:
            break
        for _ in range(_REFIT_HALVINGS):
            cand = np.clip(phis + move, 0.0, top)
            cand_ll = loglik(cand)
            if cand_ll >= ll:
                break
            move *= 0.5
        else:
            break
        phis, ll = cand, cand_ll
        steps += 1
    return phis.tolist(), {"weight_cycles": len(history), "newton_steps": steps, "loglik": ll,
                           "records": int(count.sum())}


def _block_sums(parts: list[np.ndarray]) -> np.ndarray:
    """The elementwise sums of equally shaped per-block partial sums, each
    added exactly and rounded once (``math.fsum``).

    Each partial comes from numpy's own loops (``np.einsum``), not BLAS,
    whose threaded kernels split a long sum by the thread count; so a sum
    over the entries depends on the blocks alone, which the corpus fixes.
    """
    stacked = np.array(parts, dtype=float)
    return np.array([math.fsum(c) for c in stacked.reshape(len(parts), -1).T]).reshape(
        stacked.shape[1:])


_MAX_HALVINGS = 30  # step halvings toward -1 before a user takes theta2


def _squarem_point(theta0: np.ndarray, theta1: np.ndarray,
                   theta2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SQUAREM point of each user (column) from two EM steps theta0 ->
    theta1 -> theta2.

    With r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0, the point
    is theta0 - 2 a r + a^2 v with the S3 step a = -|r|/|v|, capped at -1,
    where a = -1 (and v = 0) gives theta2 itself.  A step whose point leaves
    the simplex is halved toward -1 until the point is feasible.  Returns
    the points and a mask of the users whose point is not theta2.
    """
    r = theta1 - theta0
    v = theta2 - theta1 - r
    r_norm = np.sqrt(np.einsum("ku,ku->u", r, r))
    v_norm = np.sqrt(np.einsum("ku,ku->u", v, v))
    alpha = np.full(r_norm.shape, -1.0)
    np.divide(-r_norm, v_norm, out=alpha, where=v_norm > 0)
    point = theta2.copy()
    extrapolated = np.zeros(alpha.shape, dtype=bool)
    todo = np.flatnonzero(alpha < -1.0)
    for _ in range(_MAX_HALVINGS):
        if not todo.size:
            break
        a = alpha[todo]
        cand = theta0[:, todo] - 2.0 * a * r[:, todo] + a * a * v[:, todo]
        ok = (cand >= 0).all(axis=0) & np.isfinite(cand).all(axis=0)
        done, feasible = todo[ok], cand[:, ok]
        point[:, done] = feasible / feasible.sum(axis=0)
        extrapolated[done] = True
        todo = todo[~ok]
        alpha[todo] = 0.5 * (alpha[todo] - 1.0)
    return point, extrapolated


def _converged(ll: float, prev_ll: float, tol: float) -> bool:
    return prev_ll > -math.inf and abs(ll - prev_ll) <= tol * (1.0 + abs(ll))


def em_summary(history: list[float]) -> tuple[int, bool, float]:
    """Iteration (SQUAREM cycle) count, whether the run converged, and the
    last relative log-likelihood change (inf before a second cycle) of the
    ``history`` that ``infer_weights(..., trace=True)`` returns for a run at
    the default tol, ``EM_TOL``."""
    if len(history) < 2:
        return len(history), False, math.inf
    ll, prev_ll = history[-1], history[-2]
    return len(history), _converged(ll, prev_ll, EM_TOL), abs(ll - prev_ll) / (1.0 + abs(ll))


def predict_loglik(corpus: ComparisonCorpus, theta, B) -> PredictionReport:
    """Average log-likelihood per comparison under fixed weights.

    ``theta`` holds every user's weights, (M, K) as ``infer_weights``
    returns them, and ``B`` the (W, K) array of observation probabilities;
    a B of another shape is refused.  A comparison whose mixture
    probability is zero makes the average -inf; the count of such events is
    reported.  A corpus without records has no average and is refused.
    """
    B = _observation_array(B, corpus.Q)
    K = B.shape[1]
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (corpus.M, K):
        raise ValueError(f"theta must have shape ({corpus.M}, {K})")
    if not corpus.n_records:
        raise ValueError("the corpus has no records to score")
    # a block of records and one component at a time, so that beside p
    # only one block's pair rows and terms are held
    p = np.zeros(corpus.n_records)
    for lo in range(0, corpus.n_records, _EM_BLOCK):
        hi = lo + _EM_BLOCK
        rows = corpus.pair_rows(lo, hi)
        for k in range(K):
            term = theta[:, k].take(corpus.user[lo:hi])
            term *= B[:, k].take(rows)
            p[lo:hi] += term
    zero = int(np.count_nonzero(p == 0))
    if zero:
        return PredictionReport(-math.inf, zero, corpus.n_records)
    avg = float(np.mean(np.log(p, out=p)))
    return PredictionReport(avg, 0, corpus.n_records)
