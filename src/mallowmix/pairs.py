"""Row indexing for ordered item pairs, the runs of keys built on them, and
the records of a corpus split by position and grouped by user and pair row.

Items carry ids 1..Q.  Every matrix that is indexed by comparisons uses the
W = Q(Q-1) ordered pairs (i, j) with i != j, laid out lexicographically:
(1,2), (1,3), ..., (1,Q), (2,1), (2,3), ..., (Q,Q-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Records that the per-record loops below read at once.
_SLICE = 1 << 13


def num_pairs(Q: int) -> int:
    """Number of ordered pairs W = Q(Q-1)."""
    return Q * (Q - 1)


def num_unordered(Q: int) -> int:
    return Q * (Q - 1) // 2


def pair_row(i, j, Q: int):
    """Row index of ordered pair (i, j).  Accepts scalars or arrays; arrays
    of any integer type give one int64 array, built in place, into which
    the items are widened before any arithmetic."""
    i = np.asarray(i)
    j = np.asarray(j)
    if i.ndim == 0 and j.ndim == 0:
        i, j = int(i), int(j)  # so that no product wraps in a narrow type
        return int((i - 1) * (Q - 1) + (j - 1) - (j > i))
    row = np.empty(np.broadcast_shapes(i.shape, j.shape), np.int64)
    np.subtract(i, 1, out=row, dtype=np.int64)
    row *= Q - 1
    row += j
    row -= 1
    row -= j > i
    return row


def row_pair(row: int, Q: int) -> tuple[int, int]:
    """Ordered pair (i, j) stored at `row`."""
    i, rem = divmod(int(row), Q - 1)
    j = rem if rem < i else rem + 1
    return i + 1, j + 1


def pair_arrays(Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (I, J) with the items of every row, in row order."""
    idx = np.arange(num_pairs(Q))
    i, rem = np.divmod(idx, Q - 1)
    j = np.where(rem < i, rem, rem + 1)
    return (i + 1).astype(np.int64), (j + 1).astype(np.int64)


def reverse_rows(Q: int) -> np.ndarray:
    """Permutation of row indices mapping row(i, j) to row(j, i)."""
    I, J = pair_arrays(Q)
    return pair_row(J, I, Q)


def unordered_arrays(Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (I, J) with I < J listing the Q(Q-1)/2 unordered pairs."""
    I, J = pair_arrays(Q)
    keep = I < J
    return I[keep], J[keep]


def unordered_index(Q: int) -> np.ndarray:
    """Maps every ordered pair row to the index of its unordered pair."""
    I, J = pair_arrays(Q)
    forward = I < J
    out = np.empty(num_pairs(Q), dtype=np.int64)
    out[forward] = np.arange(num_unordered(Q))
    rev = reverse_rows(Q)
    out[~forward] = out[rev[~forward]]
    return out


def run_starts(a: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal values in ``a``."""
    new = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def distinct_counts(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the int64 array ``key``, which must own its
    data, and how many times each occurs, as floats.  ``key`` itself is
    sorted, compacted to its distinct values and shrunk in place, so beside
    it only one run-start mask and the counts are held; the j-th distinct
    value first occurs at index j or later, so a slice reads no value moved."""
    key.sort()
    starts = run_starts(key)
    n, m = key.size, starts.size
    count = starts.view(np.float64)  # each run's length, written over its start
    for lo in range(0, m, _SLICE):
        hi = min(lo + _SLICE, m)
        key[lo:hi] = key[starts[lo:hi]]
        count[lo:hi] = np.diff(starts[lo:hi + 1], append=n)[:hi - lo]
    key.resize(m, refcheck=False)  # realloc, with no copy beside it
    return key, count


def user_entries(corpus, users: np.ndarray | None = None):
    """The records of ``corpus``, or of the users that the boolean mask
    ``users`` over user ids selects, grouped into one entry per distinct
    (user, pair row), in order of user and then row: each entry's count of
    records (a float) and pair row, and each occupied user's first entry
    and id.  The int64 key user * W + row, W = Q(Q-1), lies below M * W,
    which the corpus limits keep within int64."""
    W, n = num_pairs(corpus.Q), corpus.n_records
    keep = None if users is None else users.take(corpus.user)
    key = np.multiply(corpus.user if keep is None else corpus.user[keep], W, dtype=np.int64)
    at = 0
    for lo in range(0, n, _SLICE):
        rows = corpus.pair_rows(lo, lo + _SLICE)
        rows = rows if keep is None else rows[keep[lo:lo + _SLICE]]
        key[at:at + rows.size] += rows
        at += rows.size
    del keep
    key, count = distinct_counts(key)
    # a selected user's entries run from its first key >= user * W to the next one's
    user = np.arange(corpus.M) if users is None else np.flatnonzero(users)
    starts = np.searchsorted(key, user * W)
    occupied = starts < np.append(starts[1:], key.size)
    np.remainder(key, W, out=key)  # each entry's pair row
    return count, key, starts[occupied], user[occupied]


class SplitError(ValueError):
    """A user has too few comparisons to split."""


@dataclass
class SplitCounts:
    """A corpus and ``first``, the mask of its users' first-half records."""

    corpus: "ComparisonCorpus"
    first: np.ndarray

    def row_scale(self) -> np.ndarray:
        """Average per-user count of each ordered pair, (1/M) X 1 with X the
        combined counts; used to scale regression solutions."""
        total = np.zeros(num_pairs(self.corpus.Q))
        for lo in range(0, self.corpus.n_records, _SLICE):
            total += np.bincount(self.corpus.pair_rows(lo, lo + _SLICE), minlength=total.size)
        return total / self.corpus.M


def split_halves(corpus) -> SplitCounts:
    """Split every user's records by position: a user with n records, at
    least two, has the first ceil(n/2) in its first half.  A stable sort by
    user finds each user's cut, the record index of its first second-half
    record; a record is in the first half when its index is below its
    user's cut.  The narrow user ids are counted a slice at a time."""
    M, n = corpus.M, corpus.n_records
    counts = np.zeros(M, dtype=np.int64)
    for lo in range(0, n, _SLICE):
        np.add.at(counts, corpus.user[lo:lo + _SLICE], 1)
    if counts.min() < 2:
        u = int(np.argmin(counts))
        raise SplitError(f"user {u} has {int(counts[u])} comparison(s); need at least 2")
    cut = np.cumsum(counts)
    cut -= counts // 2  # sorted position of each user's first second-half record
    cut = np.argsort(corpus.user, kind="stable").take(cut)
    first = np.empty(n, dtype=bool)
    for lo in range(0, n, _SLICE):
        hi = min(lo + _SLICE, n)
        np.less(np.arange(lo, hi), cut.take(corpus.user[lo:hi]), out=first[lo:hi])
    return SplitCounts(corpus, first)
