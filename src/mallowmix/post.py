"""From an estimated observation matrix to rankings and dispersions.

Four steps per component: turn B-hat into order probabilities by dividing
each row by itself plus its reversed row, round at one half into a win
relation, aggregate the wins into a ranking by Copeland counts, and read
the dispersion off the inverse order probabilities of the ranking's
adjacent pairs, net of the mixing that an impure selected row spreads
over every pair.  An estimate from a sampled corpus then has its
dispersions refitted by likelihood on the corpus records, rankings fixed,
by ``evaluate.refit_dispersions``; ``evaluate`` does not import this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import pairs
from .evaluate import refit_dispersions
from .generator import MixedMembershipModel, atomic_write_text, model_to_dict
from .mallows import MallowsComponent, RankingMatrix, marginal_table, pair_gaps
from .permutations import Permutation, copeland_rank

# The dispersion readout fits phi and the mixing e until a round moves e
# by at most _MIXING_TOL, within _MIXING_ITER accelerated rounds.
_MIXING_ITER = 100
_MIXING_TOL = 1e-14


class PostprocessError(ValueError):
    pass


@dataclass
class EstimatedModel:
    rankings: list[Permutation]
    dispersions: list[float]
    beta_hat: np.ndarray  # NaN where a pair could not be resolved
    diagnostics: dict = field(default_factory=dict)
    # the dispersion refit's weight cycles, Newton steps, log-likelihood and
    # records read; None when B-hat carries no counts
    refit: dict | None = None

    @property
    def Q(self) -> int:
        return len(self.rankings[0])

    @property
    def K(self) -> int:
        return len(self.rankings)

    @property
    def components(self) -> list[MallowsComponent]:
        """The rankings and dispersions as ``MixedMembershipModel.components``."""
        return [MallowsComponent(sigma, float(phi))
                for sigma, phi in zip(self.rankings, self.dispersions)]


def recover_beta(B_hat: RankingMatrix) -> tuple[np.ndarray, int]:
    """Order probabilities beta = B / (B + B_reversed), column by column.

    Entries whose pair has no mass in either direction are NaN; the count
    of such unresolved (pair, component) events is returned alongside.
    """
    e = B_hat.entries
    rev = pairs.reverse_rows(B_hat.Q)
    denom = e + e[rev]
    I, J = pairs.pair_arrays(B_hat.Q)
    unresolved = int(np.count_nonzero(denom[I < J] == 0))
    beta = np.where(denom > 0, e / np.maximum(denom, 1e-300), np.nan)
    return beta, unresolved


def round_relations(beta_hat: np.ndarray, Q: int) -> tuple[np.ndarray, int]:
    """Round order probabilities at one half into win indicators.

    Returns a (W, K) boolean array (True at row (i, j) means i beats j) and
    the number of exact ties, which are awarded to the smaller item id.
    Unresolved (NaN) pairs are decided in neither direction.
    """
    I, J = pairs.pair_arrays(Q)
    rev = pairs.reverse_rows(Q)
    forward = I < J
    wins = np.zeros_like(beta_hat, dtype=bool)
    with np.errstate(invalid="ignore"):
        b = beta_hat[forward]
        wins[forward] = b > 0.5
        wins[rev[forward]] = b < 0.5
        ties = b == 0.5
        wins[forward] |= ties  # tie goes to the pair's smaller item id
    return wins, int(np.count_nonzero(ties))


def recover_rankings(wins: np.ndarray, Q: int) -> list[Permutation]:
    """Copeland ranking per component from the win indicators; a pair
    decided in neither direction counts for neither item."""
    return [copeland_rank(wins[:, k], Q) for k in range(wins.shape[1])]


def estimate_dispersion(beta_col: np.ndarray, ranking: Permutation) -> tuple[float, bool]:
    """Dispersion from the order probabilities along the recovered ranking.

    For consecutive items of the ranking, 1/beta averages to 1 + phi.  A
    selected row that is not pure mixes other components into the column,
    and their orders, unrelated to this ranking, pull every order
    probability toward one half: beta-hat = (1 - e) t_phi(g) + e/2 for a
    pair g places apart, t_phi the pair marginal.  So phi and e are fitted
    in turn until e settles: phi from the adjacent pairs with the mixing
    taken out, e by least squares over every pair the ranking orders.  e
    stays in [0, smallest adjacent probability], where no adjacent
    probability loses its sign.  phi is clamped into [0, 1).  Returns the
    estimate and whether clamping fired.
    """
    Q = len(ranking)
    order = np.asarray(ranking.ranking)
    adj = beta_col[pairs.pair_row(order[:-1], order[1:], Q)]
    bad = ~(np.isfinite(adj) & (adj > 0))
    if bad.any():
        p = int(np.argmax(bad))
        raise PostprocessError(
            f"degenerate order probability for adjacent pair ({order[p]}, {order[p + 1]}); "
            f"cannot estimate dispersion"
        )
    gap = pair_gaps(ranking.positions)
    along = (gap > 0) & np.isfinite(beta_col)
    gap, b = gap[along], beta_col[along]
    hi = math.nextafter(1.0, 0.0)

    def round_trip(e: float) -> tuple[float, float, float]:
        """phi (clamped and raw) net of mixing e, and the e that fits it."""
        raw = (1.0 - e) * float(np.mean(1.0 / (adj - 0.5 * e))) - 1.0
        phi = min(max(raw, 0.0), hi)
        t = marginal_table(Q, phi)[gap]
        x = 0.5 - t
        xx = float(x @ x)
        e_fit = min(max(float(x @ (b - t)) / xx, 0.0), float(adj.min())) if xx > 0 else 0.0
        return e_fit, phi, raw

    e = 0.0
    for _ in range(_MIXING_ITER):
        e1, phi, raw = round_trip(e)
        if abs(e1 - e) <= _MIXING_TOL:
            break
        # Steffensen's step on the fixed point of e: plain rounds close in
        # on it only linearly
        e2 = round_trip(e1)[0]
        bend = e2 - 2.0 * e1 + e
        e = e - (e1 - e) ** 2 / bend if bend else e2
        e = min(max(e, 0.0), float(adj.min()))
    return phi, phi != raw


def postprocess(B_hat: RankingMatrix) -> EstimatedModel:
    """Run all four steps and collect diagnostics; then, when B-hat keeps
    the counts of its corpus, refit the dispersions on them
    (``evaluate.refit_dispersions``).  A pair that B-hat leaves unresolved
    counts for neither item in the Copeland counts.  The diagnostics
    describe the readout off B-hat."""
    beta_hat, unresolved = recover_beta(B_hat)
    wins, ties = round_relations(beta_hat, B_hat.Q)
    rankings = recover_rankings(wins, B_hat.Q)
    dispersions = []
    clamped = []
    degenerate = []
    for k, sigma in enumerate(rankings):
        try:
            phi, was_clamped = estimate_dispersion(beta_hat[:, k], sigma)
        except PostprocessError:
            # A zero or non-finite adjacent order probability means the
            # component carries no usable dispersion signal; report the
            # clamp ceiling instead of aborting the whole estimate.
            phi, was_clamped = math.nextafter(1.0, 0.0), True
            degenerate.append(k)
        dispersions.append(phi)
        if was_clamped:
            clamped.append(k)
    diagnostics = {
        "unresolved_pairs": unresolved,
        "rounding_ties": ties,
        "clamped_components": clamped,
        "degenerate_dispersions": degenerate,
    }
    refit = None
    if B_hat.counts is not None:
        dispersions, refit = refit_dispersions(B_hat.counts, rankings, dispersions)
    return EstimatedModel(rankings, dispersions, beta_hat, diagnostics, refit)


def estimated_model_to_dict(est: EstimatedModel, seed: int | None = None,
                            extra_diagnostics: dict | None = None) -> dict:
    diagnostics = dict(est.diagnostics)
    if extra_diagnostics:
        diagnostics.update(extra_diagnostics)
    out = model_to_dict(MixedMembershipModel(est.components, None), seed)  # no prior recovered
    out["diagnostics"] = diagnostics
    return out


def write_estimated_model(est: EstimatedModel, path: str, seed: int | None = None,
                          extra_diagnostics: dict | None = None,
                          extra: dict | None = None) -> None:
    obj = estimated_model_to_dict(est, seed=seed, extra_diagnostics=extra_diagnostics)
    if extra:
        obj.update(extra)
    atomic_write_text(path, json.dumps(obj, indent=1) + "\n")
