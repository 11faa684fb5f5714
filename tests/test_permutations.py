"""Rankings, Kendall tau, pair-row indexing, Copeland aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mallowmix import pairs
from mallowmix.permutations import Permutation, copeland_rank, kendall_tau


def brute_kendall(a: Permutation, b: Permutation) -> int:
    """O(Q^2) pair scan in pure Python, the oracle for kendall_tau."""
    Q = len(a)
    count = 0
    for i in range(1, Q + 1):
        for j in range(i + 1, Q + 1):
            same_a = a.position_of(i) < a.position_of(j)
            same_b = b.position_of(i) < b.position_of(j)
            if same_a != same_b:
                count += 1
    return count


class TestPermutation:
    def test_from_ranking_round_trip(self):
        p = Permutation.from_ranking([3, 1, 2])
        assert p.ranking == (3, 1, 2)
        assert p.positions == (2, 3, 1)
        assert p.position_of(3) == 1
        assert p.item_at(1) == 3
        assert len(p) == 3

    def test_identity(self):
        p = Permutation.identity(4)
        assert p.ranking == (1, 2, 3, 4)
        assert all(p.position_of(i) == i for i in range(1, 5))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation.from_ranking([1, 1, 3])
        with pytest.raises(ValueError):
            Permutation((1, 2, 2))
        with pytest.raises(ValueError):
            Permutation.from_ranking([0, 1, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Permutation(())


class TestKendallTau:
    def test_known_values(self):
        a = Permutation.from_ranking([1, 2, 3])
        assert kendall_tau(a, Permutation.from_ranking([2, 1, 3])) == 1
        assert kendall_tau(a, Permutation.from_ranking([3, 2, 1])) == 3
        assert kendall_tau(a, a) == 0

    def test_reversal_is_max(self):
        for Q in (2, 5, 9):
            fwd = Permutation.identity(Q)
            rev = Permutation.from_ranking(range(Q, 0, -1))
            assert kendall_tau(fwd, rev) == Q * (Q - 1) // 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau(Permutation.identity(3), Permutation.identity(4))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_scan_and_is_symmetric(self, data):
        Q = data.draw(st.integers(min_value=1, max_value=30))
        perm = data.draw(st.permutations(list(range(1, Q + 1))))
        other = data.draw(st.permutations(list(range(1, Q + 1))))
        a = Permutation.from_ranking(perm)
        b = Permutation.from_ranking(other)
        d = kendall_tau(a, b)
        assert d == brute_kendall(a, b)
        assert d == kendall_tau(b, a)

    def test_large_ranking_against_pair_scan(self):
        rng = np.random.default_rng(5)
        a = Permutation.from_ranking((rng.permutation(200) + 1).tolist())
        b = Permutation.from_ranking((rng.permutation(200) + 1).tolist())
        assert kendall_tau(a, b) == brute_kendall(a, b)


class TestPairRows:
    def test_counts(self):
        assert pairs.num_pairs(5) == 20
        assert pairs.num_unordered(5) == 10

    def test_row_pair_round_trip(self):
        for Q in (2, 3, 7):
            seen = set()
            for w in range(pairs.num_pairs(Q)):
                i, j = pairs.row_pair(w, Q)
                assert i != j and 1 <= i <= Q and 1 <= j <= Q
                assert pairs.pair_row(i, j, Q) == w
                seen.add((i, j))
            assert len(seen) == pairs.num_pairs(Q)

    def test_array_path_matches_scalar_formula(self):
        # every ordered pair at Q <= 8, as int32 and int64 item arrays, in
        # one call: the in-place int64 path gives each the scalar row
        for Q in range(2, 9):
            I, J = np.array([(i, j) for i in range(1, Q + 1) for j in range(1, Q + 1)
                             if i != j]).T
            want = [(i - 1) * (Q - 1) + (j - 1) - (j > i) for i, j in zip(I.tolist(), J.tolist())]
            for dtype in (np.int32, np.int64):
                rows = pairs.pair_row(I.astype(dtype), J.astype(dtype), Q)
                assert rows.dtype == np.int64 and rows.tolist() == want
                assert rows.tolist() == [pairs.pair_row(i, j, Q)
                                         for i, j in zip(I.tolist(), J.tolist())]
            # a scalar item against an array broadcasts
            assert pairs.pair_row(1, J[I == 1], Q).tolist() == want[:Q - 1]

    def test_reverse_rows_is_involution(self):
        for Q in (2, 4, 8):
            rev = pairs.reverse_rows(Q)
            assert np.array_equal(rev[rev], np.arange(pairs.num_pairs(Q)))
            for w in range(pairs.num_pairs(Q)):
                i, j = pairs.row_pair(w, Q)
                assert pairs.row_pair(int(rev[w]), Q) == (j, i)

    def test_pair_arrays_match_row_pair(self):
        Q = 6
        I, J = pairs.pair_arrays(Q)
        for w in range(pairs.num_pairs(Q)):
            assert (int(I[w]), int(J[w])) == pairs.row_pair(w, Q)

    def test_unordered_indexing(self):
        Q = 5
        I, J = pairs.unordered_arrays(Q)
        assert len(I) == pairs.num_unordered(Q)
        assert np.all(I < J)
        u_of_row = pairs.unordered_index(Q)
        for w in range(pairs.num_pairs(Q)):
            i, j = pairs.row_pair(w, Q)
            u = u_of_row[w]
            assert {int(I[u]), int(J[u])} == {i, j}
            # both directions of a pair share the unordered index
            assert u == u_of_row[pairs.pair_row(j, i, Q)]


def relation(pairs_won, Q):
    """The boolean win vector over ordered pair rows that marks each
    ``(winner, loser)`` in ``pairs_won``."""
    wins = np.zeros(pairs.num_pairs(Q), dtype=bool)
    for winner, loser in pairs_won:
        wins[pairs.pair_row(winner, loser, Q)] = True
    return wins


class TestCopeland:
    def test_transitive_round_trip(self):
        # A win vector consistent with a total order must reproduce it.
        rng = np.random.default_rng(11)
        for Q in (2, 5, 10):
            ranking = Permutation.from_ranking((rng.permutation(Q) + 1).tolist())
            I, J = pairs.pair_arrays(Q)
            pos = np.asarray(ranking.positions)
            wins = pos[I - 1] < pos[J - 1]
            assert copeland_rank(wins, Q).ranking == ranking.ranking

    def test_two_items(self):
        assert copeland_rank(relation([(2, 1)], 2), 2).ranking == (2, 1)

    def test_cycle_breaks_toward_small_ids(self):
        # 1>2, 2>3, 3>1: every item wins once, so ids decide.
        out = copeland_rank(relation([(1, 2), (2, 3), (3, 1)], 3), 3)
        assert out.ranking == (1, 2, 3)

    def test_rejects_double_marked_pair(self):
        with pytest.raises(ValueError, match=r"both directions"):
            copeland_rank(relation([(1, 2), (2, 1)], 2), 2)

    def test_partial_skips_undecided(self):
        out = copeland_rank(relation([(3, 1)], 3), 3)
        assert out.ranking == (3, 1, 2)
