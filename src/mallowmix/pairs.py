"""Row indexing for ordered item pairs, and the runs of keys built on them.

Items carry ids 1..Q.  Every matrix that is indexed by comparisons uses the
W = Q(Q-1) ordered pairs (i, j) with i != j, laid out lexicographically:
(1,2), (1,3), ..., (1,Q), (2,1), (2,3), ..., (Q,Q-1).
"""

from __future__ import annotations

import numpy as np


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
    """The distinct values of ``key``, which is sorted in place and dropped
    before the counts are formed, and how many times each occurs, as floats."""
    key.sort()
    starts = run_starts(key)
    distinct, n = key.take(starts), key.size
    del key
    count = np.empty(starts.size)
    np.subtract(starts[1:], starts[:-1], out=count[:-1])
    count[-1:] = n - starts[-1:]
    return distinct, count
