"""Rankings over items 1..Q: positions, Kendall tau, Copeland aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import pairs


@dataclass(frozen=True)
class Permutation:
    """A ranking of items 1..Q.

    ``positions[item - 1]`` is the rank position of ``item``; position 1 is
    the most preferred.  The inverse view ``ranking`` lists the items from
    most to least preferred.
    """

    positions: tuple[int, ...]

    def __post_init__(self):
        Q = len(self.positions)
        if Q == 0:
            raise ValueError("empty permutation")
        if sorted(self.positions) != list(range(1, Q + 1)):
            raise ValueError(f"positions are not a bijection onto 1..{Q}: {self.positions}")

    @classmethod
    def from_ranking(cls, ranking: Iterable[int]) -> "Permutation":
        """Build from a list of items ordered most to least preferred."""
        ranking = list(ranking)
        Q = len(ranking)
        if sorted(ranking) != list(range(1, Q + 1)):
            raise ValueError(f"ranking is not a reordering of 1..{Q}: {ranking}")
        pos = [0] * Q
        for p, item in enumerate(ranking, start=1):
            pos[item - 1] = p
        return cls(tuple(pos))

    @classmethod
    def identity(cls, Q: int) -> "Permutation":
        return cls(tuple(range(1, Q + 1)))

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def ranking(self) -> tuple[int, ...]:
        """Items ordered from most to least preferred."""
        out = [0] * len(self.positions)
        for item, p in enumerate(self.positions, start=1):
            out[p - 1] = item
        return tuple(out)

    def position_of(self, item: int) -> int:
        return self.positions[item - 1]

    def item_at(self, position: int) -> int:
        return self.ranking[position - 1]


def kendall_tau(a: Permutation, b: Permutation) -> int:
    """Number of item pairs ordered differently by ``a`` and ``b``."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    pa, pb = np.asarray(a.positions), np.asarray(b.positions)
    i, j = np.triu_indices(len(a), 1)
    return int(np.count_nonzero((pa[i] < pa[j]) != (pb[i] < pb[j])))


def copeland_rank(wins: np.ndarray, Q: int) -> Permutation:
    """Aggregate a pairwise win relation into a ranking by win counts.

    ``wins`` is a boolean vector over the W ordered pair rows, True at row
    (i, j) where i beats j.  A pair decided in neither direction counts for
    neither item; one marked in both directions is an error.  Ties in win
    counts are broken toward the smaller item id.
    """
    W = pairs.num_pairs(Q)
    rel = np.asarray(wins, dtype=bool)
    if rel.shape != (W,):
        raise ValueError(f"win relation must have shape ({W},), got {rel.shape}")
    both = rel & rel[pairs.reverse_rows(Q)]
    if both.any():
        i, j = pairs.row_pair(int(np.flatnonzero(both)[0]), Q)
        raise ValueError(f"pair ({i}, {j}) is marked as a win in both directions")
    I, _ = pairs.pair_arrays(Q)
    counts = np.bincount(I[rel] - 1, minlength=Q)
    order = sorted(range(1, Q + 1), key=lambda item: (-counts[item - 1], item))
    return Permutation.from_ranking(order)
