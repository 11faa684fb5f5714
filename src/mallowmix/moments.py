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


class SplitError(ValueError):
    """A user has too few comparisons to split."""


@dataclass
class SplitCounts:
    """Per-half pair-by-user count matrices (W x M, CSR)."""

    X: sp.csr_matrix
    X_prime: sp.csr_matrix
    M: int
    Q: int

    def row_totals(self) -> np.ndarray:
        """Combined count of each ordered pair across all users."""
        return np.asarray((self.X + self.X_prime).sum(axis=1)).ravel()

    def row_scale(self) -> np.ndarray:
        """Average per-user count of each ordered pair, (1/M) X 1 with X the
        combined counts; used to scale regression solutions."""
        return self.row_totals() / self.M

    def user_entries(self, records: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of every s-th user, s the least stride with all records
        / s at most ``records``: their combined counts and pair rows, user by
        user, and the first entry of each user who has one."""
        C = (self.X + self.X_prime).T.tocsr()  # one row of pair-row counts per user
        C = C[::max(1, -(-int(C.data.sum()) // records))]
        return C.data, C.indices, C.indptr[:-1][np.diff(C.indptr) > 0]


# Rows of the square blocks whose diagonals ``CoocFactors.diagonal`` reads.
_CHUNK_ROWS = 256
# Records whose half ``split_halves`` decides at once.
_SPLIT_SLICE = 1 << 16


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
    of the estimate is.  ``split`` keeps the per-user half counts the
    estimate was built from; regression leaves them on B̂ as its
    ``counts``, where ``evaluate.refit_dispersions`` reads them.  None for
    analytic matrices.
    """

    E: CoocFactors
    active: np.ndarray
    Q: int
    row_counts: np.ndarray | None = None
    split: "SplitCounts | None" = None


def split_halves(corpus: ComparisonCorpus) -> SplitCounts:
    """Split every user's records into first and second half by position.

    A user with n records contributes the first ceil(n/2) to X and the rest
    to X_prime.  Every user must have at least two records.

    A stable sort by user finds each user's cut, the record index of its
    first second-half record; a record is in the first half when its index
    is below its user's cut.  Each half's CSR is read off the sorted
    distinct keys ``row * M + user`` of its records: the run lengths are
    the counts, and the keys are already in row-major order.  The keys lie
    below W * M, which the corpus limits keep within int64.  The narrow
    user ids are counted a slice at a time and widened into the keys in
    place, so no int64 copy of them is made.
    """
    M, n = corpus.M, corpus.n_records
    W = pairs.num_pairs(corpus.Q)
    counts = np.zeros(M, dtype=np.int64)
    for lo in range(0, n, _SPLIT_SLICE):
        np.add.at(counts, corpus.user[lo:lo + _SPLIT_SLICE], 1)
    if counts.min() < 2:
        u = int(np.argmin(counts))
        raise SplitError(f"user {u} has {int(counts[u])} comparison(s); need at least 2")

    cut = np.cumsum(counts)
    cut -= counts // 2  # sorted position of each user's first second-half record
    cut = np.argsort(corpus.user, kind="stable").take(cut)
    first = np.empty(n, dtype=bool)
    for lo in range(0, n, _SPLIT_SLICE):
        hi = min(lo + _SPLIT_SLICE, n)
        np.less(np.arange(lo, hi), cut.take(corpus.user[lo:hi]), out=first[lo:hi])
    del cut

    key = corpus.pair_rows()
    key *= M
    key += corpus.user
    halves = [key[first]]
    np.logical_not(first, out=first)
    halves.append(key[first])
    del key, first
    # popped, so that each half's keys go once its distinct keys are read
    X = _half_counts(*pairs.distinct_counts(halves.pop(0)), W, M)
    return SplitCounts(X, _half_counts(*pairs.distinct_counts(halves.pop()), W, M), M, corpus.Q)


def _half_counts(key: np.ndarray, data: np.ndarray, W: int, M: int) -> sp.csr_matrix:
    """The W x M counts of one half from its sorted distinct keys row * M + user."""
    index = np.int32 if max(W, M, key.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(key, np.arange(W + 1, dtype=np.int64) * M).astype(index)
    np.remainder(key, M, out=key)
    return sp.csr_matrix((data, key.astype(index), indptr), shape=(W, M))


def normalized_halves(split: SplitCounts) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Row-normalized first and second halves."""
    return _normalize_rows(split.X), _normalize_rows(split.X_prime)


def _normalize_rows(X: sp.csr_matrix) -> sp.csr_matrix:
    rs = np.asarray(X.sum(axis=1)).ravel()
    inv = np.where(rs > 0, 1.0 / np.maximum(rs, 1e-300), 0.0)
    return sp.diags(inv) @ X


def cooccurrence(split: SplitCounts) -> CoocMatrix:
    """E-hat = M * row-normalized(X') row-normalized(X)^T, kept as those
    two sparse factors."""
    Xn, Xpn = normalized_halves(split)
    counts = split.row_totals()
    return CoocMatrix(CoocFactors(Xpn, Xn, float(split.M)), counts > 0, split.Q,
                      row_counts=counts, split=split)


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
    B = model.observation_matrix().entries
    Ba = B @ a
    active = Ba > 0
    Bbar = np.zeros_like(B)
    Bbar[active] = B[active] * a[None, :] / Ba[active, None]
    Rbar = R / np.outer(a, a)
    return CoocMatrix(CoocFactors(Bbar @ Rbar, Bbar, 1.0), active, model.Q), Ba
