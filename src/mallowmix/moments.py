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
from .generator import ComparisonCorpus, MixedMembershipModel
from .pairs import SplitCounts, SplitError, split_halves  # imported from here too


# Rows of the square blocks whose diagonals ``CoocFactors.diagonal`` reads.
_CHUNK_ROWS = 256
# Records, or entries of a sparse half, that the loops below read at once.
_SLICE = 1 << 13


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
    right = Xn, scale = M), each row's users in descending order; only
    ``estimator._rank_k`` reads them, whole, through products with dense
    W-row blocks.  Analytic moments keep the dense W x K
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
    of the estimate is.  ``corpus`` keeps the records the estimate was
    built from; regression leaves it on B̂, where
    ``evaluate.refit_dispersions`` reads them.  None for analytic matrices
    and for estimates built from count matrices.
    """

    E: CoocFactors
    active: np.ndarray
    Q: int
    row_counts: np.ndarray | None = None
    corpus: ComparisonCorpus | None = None


def _half_keys(split: SplitCounts, half: int) -> np.ndarray:
    """The keys row * M + (M - 1 - user) of the records of the split's
    first half (``half`` 0) or second (1), in record order, formed one
    slice at a time into one array of ``pairs.key_type(W * M)``."""
    corpus, first = split.corpus, split.first
    M, n = corpus.M, corpus.n_records
    size = int(np.count_nonzero(first))
    key = np.empty(n - size if half else size,
                   dtype=pairs.key_type(pairs.num_pairs(corpus.Q) * M))
    at = 0
    for lo in range(0, n, _SLICE):
        mine = ~first[lo:lo + _SLICE] if half else first[lo:lo + _SLICE]
        rows = corpus.pair_rows(lo, lo + _SLICE)[mine]
        rows *= M
        rows += M - 1
        rows -= corpus.user[lo:lo + _SLICE][mine]
        key[at:at + rows.size] = rows
        at += rows.size
    return key


def _half_counts(split: SplitCounts, half: int) -> sp.csr_matrix:
    """The W x M counts of the split's first half (``half`` 0) or second
    (1), read off the sorted distinct keys row * M + (M - 1 - user) of its
    records, so that each row lists its users in descending order: the
    order in which ``sp.diags(inv) @ X`` leaves them, since scipy's product
    lays out every row in reverse.  The detection products sum in that
    order."""
    corpus = split.corpus
    M, W = corpus.M, pairs.num_pairs(corpus.Q)
    key, count = pairs.distinct_counts(_half_keys(split, half))
    index = np.int32 if max(W, M, key.size) <= np.iinfo(np.int32).max else np.int64
    # the bounds in the key's own type, so that the key is not widened
    indptr = np.searchsorted(key, np.arange(W + 1, dtype=key.dtype) * M).astype(index)
    np.remainder(key, M, out=key)
    np.subtract(M - 1, key, out=key)  # each entry's user
    return sp.csr_matrix((count, key.astype(index, copy=False), indptr), shape=(W, M))


def _normalize_in_place(X: sp.csr_matrix) -> np.ndarray:
    """Scale every row of the counts X in place to sum to one, and return
    the row sums.  Each entry becomes count * inv[row], the product that
    ``sp.diags(inv) @ X`` forms; the entries are scaled one slice at a
    time, so no entry-long array is made beside them."""
    rs = np.asarray(X.sum(axis=1)).ravel()
    inv = np.where(rs > 0, 1.0 / np.maximum(rs, 1e-300), 0.0)
    for lo in range(0, X.nnz, _SLICE):
        hi = min(lo + _SLICE, X.nnz)
        row = np.searchsorted(X.indptr, np.arange(lo, hi), side="right") - 1
        X.data[lo:hi] *= inv.take(row)
    return rs


def _normalized_cooccurrence(Xn: sp.csr_matrix, Xpn: sp.csr_matrix, M: int, Q: int,
                             corpus=None) -> CoocMatrix:
    """E-hat = M * Xpn Xn^T from the counts of the halves [X, X'], each
    row-normalized in place (``_normalize_in_place``)."""
    counts = _normalize_in_place(Xn)
    counts += _normalize_in_place(Xpn)  # each pair row's records
    return CoocMatrix(CoocFactors(Xpn, Xn, float(M)), counts > 0, Q, row_counts=counts,
                      corpus=corpus)


def cooccurrence(split: SplitCounts) -> CoocMatrix:
    """The co-occurrence estimate of the split's halves, each built
    directly in the layout of its row-normalized copy (``_half_counts``)
    and normalized in place, keeping the corpus for the dispersion
    refit."""
    corpus = split.corpus
    return _normalized_cooccurrence(_half_counts(split, 0), _half_counts(split, 1),
                                    corpus.M, corpus.Q, corpus)


def halves_cooccurrence(halves: list, M: int, Q: int) -> CoocMatrix:
    """E-hat = M * row-normalized(X') row-normalized(X)^T from CSR copies
    of the given W x M counts ``halves`` = [X, X'], normalized as
    ``cooccurrence`` normalizes its own."""
    X, X_prime = (sp.csr_matrix(h, copy=True) for h in halves)
    return _normalized_cooccurrence(X, X_prime, M, Q)


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
