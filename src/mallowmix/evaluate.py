"""Scoring recovered components against ground truth, plus per-user weight
inference and held-out comparison likelihood.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import pairs
from .generator import ComparisonCorpus, MixedMembershipModel
from .mallows import RankingMatrix
from .permutations import Permutation, kendall_tau
from .post import EstimatedModel


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


def _components_of(obj) -> tuple[list[Permutation], list[float]]:
    if isinstance(obj, EstimatedModel):
        return list(obj.rankings), [float(p) for p in obj.dispersions]
    if isinstance(obj, MixedMembershipModel):
        return ([c.reference for c in obj.components],
                [c.dispersion for c in obj.components])
    raise TypeError(f"cannot extract components from {type(obj).__name__}")


def align_and_score(truth, estimate) -> RecoveryReport:
    """Match estimated components to true ones and score the recovery.

    Components are paired by minimum-cost bipartite matching with Kendall
    distance as the cost, so the score is invariant to how the estimate
    happens to order its components.  Both arguments may be estimated or
    generative models.
    """
    true_refs, true_phis = _components_of(truth)
    est_refs, est_phis = _components_of(estimate)
    if len(true_refs) != len(est_refs):
        raise ValueError(
            f"component count mismatch: truth has {len(true_refs)}, estimate has {len(est_refs)}"
        )
    Q = len(true_refs[0])
    if len(est_refs[0]) != Q:
        raise ValueError(f"item count mismatch: truth has {Q}, estimate has {len(est_refs[0])}")
    K = len(true_refs)
    cost = np.empty((K, K))
    for k in range(K):
        for j in range(K):
            cost[k, j] = kendall_tau(true_refs[k], est_refs[j])
    rows, cols = linear_sum_assignment(cost)
    matching = [0] * K
    for k, j in zip(rows, cols):
        matching[int(k)] = int(j)
    per_component = [int(cost[k, matching[k]]) for k in range(K)]
    phi_errors = [abs(true_phis[k] - est_phis[matching[k]]) for k in range(K)]
    normalized = float(np.mean(per_component)) / pairs.num_pairs(Q)
    return RecoveryReport(normalized, per_component, phi_errors, matching)


def _observation_columns(B_hat) -> np.ndarray:
    if isinstance(B_hat, RankingMatrix):
        return np.asarray(B_hat.entries, dtype=float)
    if isinstance(B_hat, EstimatedModel):
        return np.asarray(B_hat.B_hat, dtype=float)
    if isinstance(B_hat, MixedMembershipModel):
        return B_hat.observation_matrix().entries
    return np.asarray(B_hat, dtype=float)


EM_TOL = 1e-8  # default relative log-likelihood change at which the weight EM stops


def _check_rows_supported(B: np.ndarray, rows: np.ndarray, Q: int) -> None:
    dead = B[rows].sum(axis=1) == 0
    if dead.any():
        r = int(rows[np.argmax(dead)])
        i, j = pairs.row_pair(r, Q)
        raise ValueError(f"comparison ({i}, {j}) has zero probability in every component")


def infer_weights(corpus: ComparisonCorpus, B_hat, *, tol: float = EM_TOL,
                  max_iter: int = 500, trace: bool = False):
    """Per-user maximum-likelihood mixture weights for fixed components.

    Expectation-maximization on the multinomial mixture sum_k B[w, k] theta_k,
    run for every user at once from the barycenter start.  Returns an (M, K)
    array of weights; users without records keep the barycenter.  With
    ``trace`` the per-iteration total log-likelihoods are returned as well.
    Stopping at ``max_iter`` before the relative change of the total
    log-likelihood falls to ``tol`` emits a RuntimeWarning.

    Records are held component-major, as (K, n) arrays, so each iteration
    is K gathers, K ``bincount``s and O(nK) elementwise work.
    """
    B = _observation_columns(B_hat)
    K = B.shape[1]
    rows = corpus.pair_rows()
    _check_rows_supported(B, rows, corpus.Q)
    users = corpus.user
    M = corpus.M
    if users.size and (users.min() < 0 or users.max() >= M):
        raise ValueError("corpus user ids fall outside 0..M-1")
    counts = np.bincount(users, minlength=M).astype(float)
    occupied = counts > 0
    BwT = B.T.take(rows, axis=1)  # (K, n) component probabilities of each observed outcome
    mix = np.empty_like(BwT)
    total = np.empty(BwT.shape[1])

    theta = np.full((M, K), 1.0 / K)
    history: list[float] = []
    prev_ll = -math.inf
    change = math.inf
    for it in range(1, max_iter + 1):
        for k in range(K):
            # ids were range-checked above; "clip" skips the per-index check
            np.take(theta[:, k], users, out=mix[k], mode="clip")
        mix *= BwT
        # Adding the rows in order matches a row sum over the n x K layout
        # bit for bit for K <= 7; numpy reduces 8 or more pairwise.
        np.copyto(total, mix[0])
        for k in range(1, K):
            total += mix[k]
        if np.any(total == 0):
            r = int(rows[np.argmax(total == 0)])
            i, j = pairs.row_pair(r, corpus.Q)
            raise ValueError(f"comparison ({i}, {j}) has zero probability in every component")
        ll = float(np.log(total).sum())
        if ll < prev_ll - 1e-9 * (1.0 + abs(prev_ll)):
            raise RuntimeError(
                f"EM log-likelihood decreased at iteration {it}: {prev_ll!r} -> {ll!r}")
        history.append(ll)
        mix /= total  # responsibilities
        for k in range(K):
            # bincount adds in record order, as np.add.at does
            theta[:, k] = np.bincount(users, weights=mix[k], minlength=M)
        theta[occupied] /= counts[occupied, None]
        theta[~occupied] = 1.0 / K
        if _converged(ll, prev_ll, tol):
            break
        change = abs(ll - prev_ll) / (1.0 + abs(ll))
        prev_ll = ll
    else:
        warnings.warn(
            f"EM stopped at max_iter={max_iter} without converging; last relative "
            f"log-likelihood change {change:.3e} (tol {tol:.1e})",
            RuntimeWarning, stacklevel=2)
    if trace:
        return theta, history
    return theta


def _converged(ll: float, prev_ll: float, tol: float) -> bool:
    return prev_ll > -math.inf and abs(ll - prev_ll) <= tol * (1.0 + abs(ll))


def em_summary(history: list[float]) -> tuple[int, bool, float]:
    """Iteration count, whether the run converged, and the last relative
    log-likelihood change (inf before a second iteration) of the ``history``
    that ``infer_weights(..., trace=True)`` returns for a run at the default
    tol, ``EM_TOL``."""
    if len(history) < 2:
        return len(history), False, math.inf
    ll, prev_ll = history[-1], history[-2]
    return len(history), _converged(ll, prev_ll, EM_TOL), abs(ll - prev_ll) / (1.0 + abs(ll))


def predict_loglik(corpus: ComparisonCorpus, theta, B_hat) -> PredictionReport:
    """Average log-likelihood per comparison under fixed weights.

    ``theta`` is either one weight vector shared by all users or an (M, K)
    array of per-user weights.  A comparison whose mixture probability is
    zero makes the average -inf; the count of such events is reported.
    """
    B = _observation_columns(B_hat)
    K = B.shape[1]
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        per_user = np.broadcast_to(theta, (corpus.M, K))
    else:
        if theta.shape != (corpus.M, K):
            raise ValueError(f"theta must have shape ({corpus.M}, {K})")
        per_user = theta
    rows = corpus.pair_rows()
    p = np.einsum("nk,nk->n", per_user[corpus.user], B[rows])
    zero = int(np.count_nonzero(p == 0))
    if zero:
        return PredictionReport(-math.inf, zero, corpus.n_records)
    avg = float(np.mean(np.log(p)))
    return PredictionReport(avg, 0, corpus.n_records)
