"""Approximate separability of a beta matrix, and how often random
reference sets have it.

A beta matrix is lambda-approximately separable when every component k
owns a witness row: a pair on which k's order probability is positive and
every other component's is at most lambda times it.  Witness rows are what
the extreme-row detection ultimately finds, so the Monte Carlo probability
of separability under uniformly random references measures how often the
pipeline's structural assumption holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mallows import gap_marginals, marginal_table, pair_gaps, reverse_marginal_table


@dataclass
class SeparabilityReport:
    separable: bool
    lam: float
    per_component_best_lambda: list[float]
    witness_rows: list[int]  # row achieving each component's best ratio, -1 if none


@dataclass
class SeparabilityEstimate:
    probability: float
    std_error: float
    lower_bound: float
    runs: int


def check_separability(beta, lam: float) -> SeparabilityReport:
    """Every component's best witness ratio and row at threshold ``lam``,
    for a (W, K) array ``beta`` of order probabilities.

    A row's ratio for component k is the largest other entry over
    beta[w, k]: the row's second value where beta[w, k] is its maximum,
    the row's maximum otherwise.  The verdict is ``_is_separable``'s.
    """
    beta = np.asarray(beta, dtype=float)
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got {lam}")
    W, K = beta.shape
    if K < 1:
        raise ValueError("need at least one component")
    if K == 1:
        others = np.zeros_like(beta)
    else:
        top, second = _top_two(beta)
        others = np.where(beta >= top[:, None], second[:, None], top[:, None])
    positive = beta > 0
    ratio = np.full((W, K), math.inf)
    ratio[positive] = others[positive] / beta[positive]
    rows = np.argmin(ratio, axis=0)
    best = ratio[rows, np.arange(K)]
    witnesses = np.where(positive.any(axis=0), rows, -1)
    return SeparabilityReport(_is_separable(beta, lam), lam, best.tolist(), witnesses.tolist())


def _random_beta(Q: int, K: int, tables: tuple[np.ndarray, np.ndarray],
                 rng: np.random.Generator) -> np.ndarray:
    """Beta for K uniformly random references sharing one dispersion."""
    pos = np.empty((K, Q), dtype=np.int64)
    for k in range(K):
        pos[k, rng.permutation(Q)] = np.arange(1, Q + 1)
    return gap_marginals(pair_gaps(pos).T, *tables)


def _top_two(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and second largest entry of every row (K >= 2)."""
    part = np.partition(beta, beta.shape[1] - 2, axis=1)
    return part[:, -1], part[:, -2]


def _is_separable(beta: np.ndarray, lam: float) -> bool:
    """Whether every component owns a witness row at threshold ``lam``.

    A witness for k must make beta[:, k] the strict row maximum (any tie
    forces a ratio of one, which fails every lambda below one), so it is
    enough to compare each row's top value against its second largest.
    """
    if beta.shape[1] == 1:
        return bool((beta[:, 0] > 0).any())
    top, second = _top_two(beta)
    good = (top > 0) & (second <= lam * top)
    if not good.any():
        return False
    covered = (beta[good] >= top[good, None]).any(axis=0)
    return bool(covered.all())


def eq6_margin(phi: float, lam: float, epsilon: float = 0.05) -> int:
    """Positional margin L used by the closed-form lower bound."""
    if phi == 0.0:
        ratio = 0.0
    elif lam == 0.0:
        raise ValueError("lambda = 0 has no finite margin for positive phi")
    else:
        ratio = math.log(lam) / math.log(phi)
    return math.ceil((1.0 + ratio) * (1.0 + epsilon))


def separability_lower_bound(Q: int, K: int, phi: float, lam: float,
                             epsilon: float = 0.05) -> float:
    """Closed-form lower bound 1 - K exp(-Q / L^(2K-1)) on the probability.

    Often vacuous (negative) unless Q is much larger than L^(2K-1).
    Returns -inf when the margin is undefined (lam = 0 with positive phi).
    """
    try:
        L = eq6_margin(phi, lam, epsilon)
    except ValueError:
        return -math.inf
    return 1.0 - K * math.exp(-Q / float(L) ** (2 * K - 1))


def separability_probability(Q: int, K: int, phi: float, lam: float,
                             runs: int, seed: int = 0) -> SeparabilityEstimate:
    """Monte Carlo probability that K uniformly random references with a
    shared dispersion are lambda-approximately separable.

    Each run derives its RNG stream from (seed, run), so results do not
    depend on evaluation order.
    """
    if K < 1:
        raise ValueError("need at least one component")
    if runs < 1:
        raise ValueError("need at least one run")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got {lam}")
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"dispersion must lie in [0, 1), got {phi}")
    tables = marginal_table(Q, phi), reverse_marginal_table(Q, phi)
    hits = 0
    for r in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, r)))
        beta = _random_beta(Q, K, tables, rng)
        if _is_separable(beta, lam):
            hits += 1
    p = hits / runs
    se = math.sqrt(p * (1.0 - p) / runs)
    bound = separability_lower_bound(Q, K, phi, lam)
    return SeparabilityEstimate(p, se, bound, runs)
