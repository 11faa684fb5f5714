"""Mallows components: mass function, insertion sampling, pair marginals.

A component is a reference ranking together with a dispersion phi in [0, 1).
Probability of a ranking sigma decays as phi raised to the Kendall tau
distance from the reference; phi = 0 is the point mass on the reference and
phi -> 1 approaches uniform (phi = 1 itself is rejected as unidentifiable).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import pairs
from .permutations import Permutation, kendall_tau

# Below this distance from 1 the closed geometric-sum form loses all
# precision, so the limit value is substituted instead.
_PHI_ONE_TOL = 1e-12


def geometric_sum(phi: float, n: int) -> float:
    """1 + phi + ... + phi^(n-1), stable for phi in [0, 1]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if abs(1.0 - phi) < _PHI_ONE_TOL:
        return float(n)
    return (1.0 - phi**n) / (1.0 - phi)


def mallows_normalizer(Q: int, phi: float) -> float:
    """Sum of phi^d(sigma, ref) over all Q! rankings."""
    z = 1.0
    for i in range(1, Q + 1):
        z *= geometric_sum(phi, i)
    return z


@dataclass(frozen=True)
class MallowsComponent:
    reference: Permutation
    dispersion: float

    def __post_init__(self):
        if not 0.0 <= self.dispersion < 1.0:
            raise ValueError(f"dispersion must lie in [0, 1), got {self.dispersion}")

    @property
    def Q(self) -> int:
        return len(self.reference)


def mallows_pmf(component: MallowsComponent, sigma: Permutation) -> float:
    """Probability of ``sigma`` under the component."""
    if len(sigma) != component.Q:
        raise ValueError("ranking length does not match the component")
    d = kendall_tau(component.reference, sigma)
    phi = component.dispersion
    return phi**d / mallows_normalizer(component.Q, phi)


@functools.lru_cache(maxsize=64)
def _insertion_cumweights(phi: float, Q: int) -> tuple[np.ndarray, ...]:
    """Cumulative insertion weights per level i = 1..Q, read-only, cached
    per (phi, Q) so single draws do not rebuild them.

    At level i the item is placed at position l in 1..i with probability
    phi^(i-l) / (1 + phi + ... + phi^(i-1)).
    """
    out = []
    for i in range(1, Q + 1):
        w = phi ** (i - np.arange(1, i + 1, dtype=float))
        c = np.cumsum(w)
        c.flags.writeable = False
        out.append(c)
    return tuple(out)


def rim_sample(component: MallowsComponent, rng: np.random.Generator) -> Permutation:
    """Draw one ranking by repeated insertion, one uniform per level in
    reference order; exact for the Mallows pmf."""
    cum = _insertion_cumweights(component.dispersion, component.Q)
    out: list[int] = []
    for level, (c, u, item) in enumerate(zip(cum, rng.random(component.Q),
                                             component.reference.ranking)):
        slot = int(np.searchsorted(c, u * c[-1], side="right"))
        out.insert(min(slot, level), item)
    return Permutation.from_ranking(out)


def pairwise_marginal(gap: int, phi: float) -> float:
    """Probability that i is ranked above j when the reference puts j
    ``gap`` positions below i.

    Uses the all-positive-terms form
        sum_{l=0}^{gap-1} (l+1) phi^l / (G_gap * G_{gap+1}),
    where G_n is the n-term geometric sum, so no cancellation occurs for
    any phi in [0, 1).
    """
    if gap < 1:
        raise ValueError("gap must be at least 1")
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"phi must lie in [0, 1), got {phi}")
    ls = np.arange(gap, dtype=float)
    num = float(np.sum((ls + 1.0) * phi**ls))
    return num / (geometric_sum(phi, gap) * geometric_sum(phi, gap + 1))


def marginal_table(Q: int, phi: float) -> np.ndarray:
    """Vector t with t[g] = pairwise_marginal(g, phi) for g = 1..Q-1.

    Entry 0 is NaN (a pair cannot have gap zero).
    """
    if Q < 2:
        raise ValueError("need at least two items")
    ls = np.arange(Q - 1, dtype=float)
    nums = np.cumsum((ls + 1.0) * phi**ls)
    gs = np.cumsum(phi ** np.arange(Q, dtype=float))  # gs[n-1] = geometric_sum(phi, n)
    table = np.full(Q, np.nan)
    g = np.arange(1, Q)
    table[1:] = nums[g - 1] / (gs[g - 1] * gs[g])
    return table


def reverse_marginal_table(Q: int, phi: float) -> np.ndarray:
    """Vector r with r[g] = 1 - pairwise_marginal(g, phi) for g = 1..Q-1,
    the probability that a pair is ranked against the reference.

    Uses the all-positive-terms form
        sum_{l=g}^{2g-1} (2g-l) phi^l / (G_g * G_{g+1})
      = phi^g (G_1 + ... + G_g) / (G_g * G_{g+1}),
    so it keeps its relative precision where 1 - t[g] would cancel (at
    gap 19 and phi = 0.1 the value is 1.7e-18).  Entry 0 is NaN.
    """
    if Q < 2:
        raise ValueError("need at least two items")
    gs = np.cumsum(phi ** np.arange(Q, dtype=float))  # gs[n-1] = geometric_sum(phi, n)
    table = np.full(Q, np.nan)
    g = np.arange(1, Q)
    table[1:] = phi ** g.astype(float) * np.cumsum(gs[:-1]) / (gs[g - 1] * gs[g])
    return table


def pair_gaps(positions) -> np.ndarray:
    """Position of j minus position of i for every ordered pair row (i, j),
    given ``positions[..., item - 1]``, the position of each item in one
    ranking or, along the last axis, in each of several."""
    pos = np.asarray(positions)
    I, J = pairs.pair_arrays(pos.shape[-1])
    return pos[..., J - 1] - pos[..., I - 1]


def gap_marginals(gap: np.ndarray, table: np.ndarray, reverse: np.ndarray) -> np.ndarray:
    """Probability that each ordered pair (i, j) is ranked i above j, given
    ``gap`` = position of j minus position of i in the reference and the
    ``marginal_table`` and ``reverse_marginal_table`` of the dispersion."""
    Q = table.size
    fwd = table[np.clip(gap, 1, Q - 1)]
    bwd = reverse[np.clip(-gap, 1, Q - 1)]
    return np.where(gap > 0, fwd, bwd)


def marginal_ratio_bound(L: int, phi: float) -> float:
    """Upper bound L phi^(L-1) / (1 + L phi^(L-1)) on the probability that a
    pair is ranked against the reference when its positional distance is
    L - 1."""
    if L < 2:
        raise ValueError("L must be at least 2")
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"phi must lie in [0, 1), got {phi}")
    x = L * phi ** (L - 1)
    return x / (1.0 + x)


@dataclass
class RankingMatrix:
    """An estimate B-hat of the W x K observation matrix B over ordered
    pair rows, column-stochastic, as ``estimator.estimate_ranking_matrix``
    recovers it.

    ``counts`` keeps the split corpus (``pairs.SplitCounts``) a sampled
    estimate came from, so that ``post.postprocess`` can refit its
    dispersions on the records; None otherwise.  ``steps`` and
    ``residual`` are the regression's largest step count of any row and
    largest last change.
    """

    entries: np.ndarray
    Q: int
    counts: object = None
    steps: int = 0
    residual: float = 0.0

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        W = pairs.num_pairs(self.Q)
        if self.entries.ndim != 2 or self.entries.shape[0] != W:
            raise ValueError(f"entries must be ({W}, K), got {self.entries.shape}")


def shared_Q(components: list[MallowsComponent]) -> int:
    """The item count Q of a nonempty list of components that all share it."""
    if not components:
        raise ValueError("need at least one component")
    Q = components[0].Q
    if any(c.Q != Q for c in components):
        raise ValueError("components disagree on the number of items")
    return Q


def order_probabilities(Q: int, gaps, phis) -> np.ndarray:
    """The (K, W) order probabilities beta_k(w) of K components over Q
    items, given each one's ``pair_gaps`` and dispersion."""
    return np.array([gap_marginals(g, marginal_table(Q, phi), reverse_marginal_table(Q, phi))
                     for g, phi in zip(gaps, phis)])


def build_ranking_matrix(components: list[MallowsComponent]) -> np.ndarray:
    """Closed-form (W, K) beta matrix for a list of components sharing the
    items: beta[w, k] is the probability that component k orders row w's
    pair as the row does."""
    Q = shared_Q(components)
    beta = order_probabilities(Q, [pair_gaps(c.reference.positions) for c in components],
                               [c.dispersion for c in components])
    return np.ascontiguousarray(beta.T)


def brute_force_beta(components: list[MallowsComponent], max_Q: int = 7) -> np.ndarray:
    """Beta by explicit enumeration of all Q! rankings.  Refuses Q > max_Q."""
    Q = shared_Q(components)
    if Q > max_Q:
        raise ValueError(f"enumeration over {Q}! rankings refused (max_Q={max_Q})")
    W = pairs.num_pairs(Q)
    entries = np.zeros((W, len(components)))
    row_of = {}
    for w in range(W):
        row_of[pairs.row_pair(w, Q)] = w
    for perm in itertools.permutations(range(1, Q + 1)):
        sigma = Permutation.from_ranking(perm)
        up = [(i, j) for i in range(1, Q + 1) for j in range(1, Q + 1)
              if i != j and sigma.positions[i - 1] < sigma.positions[j - 1]]
        for k, comp in enumerate(components):
            p = mallows_pmf(comp, sigma)
            for ij in up:
                entries[row_of[ij], k] += p
    return entries
