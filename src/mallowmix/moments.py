"""Split-half co-occurrence statistics of a comparison corpus.

Each user's records are split into two halves by arrival order.  Both
halves become pair-by-user count matrices whose rows are normalized to sum
to one; the scaled cross product of the halves converges, as the number of
users grows, to a matrix determined only by the observation matrix B and
the first two moments of the weight prior.  Splitting removes the
within-user sampling noise that would otherwise contaminate the diagonal.
The W x W estimate is never built: it is kept as the two normalized
halves (``CoocFactors``), which detection reads only through products
with dense blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import pairs
from .generator import MixedMembershipModel
from .pairs import SplitCounts, SplitError, split_halves  # imported from here too


# Rows of the square blocks whose diagonals ``CoocFactors.diagonal`` reads.
_CHUNK_ROWS = 256


def _stored_bytes(factor) -> int:
    if sp.issparse(factor):
        return factor.data.nbytes + factor.indices.nbytes + factor.indptr.nbytes
    return factor.nbytes


def gemm_index(idx: np.ndarray) -> np.ndarray:
    """``idx``, with a lone index repeated.  numpy hands a product with a
    single row or column to gemv, whose sums can differ in the last bit
    from gemm's; repeating the lone index keeps every product a gemm."""
    return np.repeat(idx, 2) if idx.size == 1 else idx


@dataclass(frozen=True)
class CoocFactors:
    """A W x W co-occurrence matrix kept as its factors:
    E = scale * left @ right.T.

    Sampled corpora keep the sparse row-normalized halves (left = X'n,
    right = Xn, scale = M); only ``estimator._rank_k`` reads them, through
    products with dense blocks.  Analytic moments keep the dense W x K
    factors B̄R̄ and B̄, and the rank-K part that detection finds keeps
    dense W x K factors too (both scale 1).  ``block`` and ``diagonal``
    read entries of dense factors only, bit for bit what the full product
    would hold, so no W x W array is ever built.
    """

    left: sp.csr_matrix | np.ndarray
    right: sp.csr_matrix | np.ndarray
    scale: float

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.shape[0], self.right.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes the factors store."""
        return _stored_bytes(self.left) + _stored_bytes(self.right)

    def _require_dense(self):
        if sp.issparse(self.left) or sp.issparse(self.right):
            raise TypeError("CoocFactors.block and diagonal read dense factors; "
                            "these are sparse")

    def block(self, I, J) -> np.ndarray:
        """E[I][:, J] as a dense array, in one gemm.  A gemm entry does not
        depend on the other rows and columns of its product, so every block
        has the full product's bits."""
        self._require_dense()
        I = np.asarray(I, dtype=np.intp)
        J = np.asarray(J, dtype=np.intp)
        out = (self.left[gemm_index(I)] @ self.right[gemm_index(J)].T)[:I.size, :J.size]
        out *= self.scale
        return out

    def diagonal(self, I) -> np.ndarray:
        """The entries E[i, i] for i in I, read off square blocks of
        _CHUNK_ROWS rows, so that each has the bits ``block`` gives it."""
        self._require_dense()
        I = np.asarray(I, dtype=np.intp)
        out = np.empty(I.size)
        for lo in range(0, I.size, _CHUNK_ROWS):
            rows = I[lo:lo + _CHUNK_ROWS]
            out[lo:lo + _CHUNK_ROWS] = self.block(rows, rows).diagonal()
        return out


@dataclass
class CoocMatrix:
    """Estimated co-occurrence matrix with bookkeeping.

    ``E`` holds the W x W estimate as its factors (``CoocFactors``).  Rows
    and columns outside ``active`` are zero.  ``row_counts`` carries the
    combined observation count of each pair row (None for analytic
    matrices), letting downstream consumers judge how trustworthy each row
    of the estimate is.  ``split`` keeps the split corpus the estimate was
    built from; regression leaves it on B̂ as its ``counts``, where
    ``evaluate.refit_dispersions`` reads its records.  None for analytic
    matrices and for estimates built from count matrices.
    """

    E: CoocFactors
    active: np.ndarray
    Q: int
    row_counts: np.ndarray | None = None
    split: "SplitCounts | None" = None


def count_halves(split: SplitCounts) -> list[sp.csr_matrix]:
    """The W x M counts [X, X'] of the split's first and second halves,
    each read off the sorted distinct keys ``row * M + user`` of its
    records, which are in row-major order; the keys lie below W * M, which
    the corpus limits keep within int64."""
    corpus, first = split.corpus, split.first
    M, W = corpus.M, pairs.num_pairs(corpus.Q)
    key = corpus.pair_rows()
    key *= M
    key += corpus.user
    halves = [key[first]]
    np.logical_not(first, out=first)
    halves.append(key[first])
    np.logical_not(first, out=first)  # the split's own mask again
    del key
    # popped, so that each half's keys go once its distinct keys are read
    return [_half_counts(*pairs.distinct_counts(halves.pop(0)), W, M) for _ in range(2)]


def _half_counts(key: np.ndarray, data: np.ndarray, W: int, M: int) -> sp.csr_matrix:
    """The W x M counts of one half from its sorted distinct keys row * M + user."""
    index = np.int32 if max(W, M, key.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(key, np.arange(W + 1, dtype=np.int64) * M).astype(index)
    np.remainder(key, M, out=key)
    return sp.csr_matrix((data, key.astype(index), indptr), shape=(W, M))


def _normalize_rows(X: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    rs = np.asarray(X.sum(axis=1)).ravel()
    inv = np.where(rs > 0, 1.0 / np.maximum(rs, 1e-300), 0.0)
    return sp.diags(inv) @ X, rs


def cooccurrence(split: SplitCounts) -> CoocMatrix:
    """The co-occurrence estimate of the split's halves (``count_halves``),
    keeping the split for the dispersion refit."""
    return halves_cooccurrence(count_halves(split), split.corpus.M, split.corpus.Q, split)


def halves_cooccurrence(halves: list, M: int, Q: int, split=None) -> CoocMatrix:
    """E-hat = M * row-normalized(X') row-normalized(X)^T from the W x M
    counts ``halves`` = [X, X'], kept as those two sparse factors; each half
    is popped from the list as it is normalized, so only the copies stay."""
    Xn, counts = _normalize_rows(halves.pop(0))
    Xpn, second = _normalize_rows(halves.pop())
    counts += second  # each pair row's records
    return CoocMatrix(CoocFactors(Xpn, Xn, float(M)), counts > 0, Q, row_counts=counts,
                      split=split)


def analytic_cooccurrence(model: MixedMembershipModel) -> tuple[CoocMatrix, np.ndarray]:
    """Asymptotic co-occurrence matrix B̄R̄B̄ᵀ of a model, kept as its W x K
    factors, plus the asymptotic row scale (per-comparison observation mass
    of each pair row).

    The weight prior must have a full-rank second moment, otherwise the
    components are not identifiable from these statistics.
    """
    K = model.K
    if model.prior is None:
        raise ValueError("model carries no weight prior")
    a = model.prior.mean(K)
    R = model.prior.correlation(K)
    if np.linalg.matrix_rank(R) < K:
        raise ValueError("weight prior has a rank-deficient second moment")
    B = model.observation_matrix()
    Ba = B @ a
    active = Ba > 0
    Bbar = np.zeros_like(B)
    Bbar[active] = B[active] * a[None, :] / Ba[active, None]
    Rbar = R / np.outer(a, a)
    return CoocMatrix(CoocFactors(Bbar @ Rbar, Bbar, 1.0), active, model.Q), Ba
