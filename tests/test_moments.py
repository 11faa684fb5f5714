"""Split-half counts and the co-occurrence estimate behind detection."""

import json
import re
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mallowmix import evaluate, generator, moments, pairs
from mallowmix.evaluate import infer_weights
from mallowmix.generator import (
    MAX_ITEMS,
    MAX_USERS,
    USER_LIMIT,
    ComparisonCorpus,
    DirichletPrior,
    FixedWeights,
    MixedMembershipModel,
    generate,
    read_corpus,
    write_corpus,
)
from mallowmix.mallows import MallowsComponent
from mallowmix.moments import (
    CoocFactors,
    CoocMatrix,
    SplitError,
    analytic_cooccurrence,
    cooccurrence,
    split_halves,
)
from mallowmix.permutations import Permutation


def dense_factors(E) -> CoocFactors:
    """Factors of a given dense matrix: E @ I.T has E's bits, since every
    entry adds one product by one to products by zero."""
    E = np.asarray(E, dtype=float)
    return CoocFactors(E, np.eye(E.shape[1]), 1.0)


def full(cooc: CoocMatrix) -> np.ndarray:
    """The whole W x W matrix: the sparse product for a sampled corpus,
    read through ``block`` for dense factors."""
    E = cooc.E
    if sp.issparse(E.left):
        return E.scale * (E.left @ E.right.T).toarray()
    everything = np.arange(E.shape[0])
    return E.block(everything, everything)


def counts_cooccurrence(halves: list, M: int, Q: int) -> CoocMatrix:
    """E-hat = M * X'n Xn^T from CSR copies of the given W x M counts
    ``halves`` = [X, X'], each row scaled in place by its inverse row sum:
    each entry becomes count * inv[row], as ``cooccurrence`` forms it."""
    normalized, counts = [], []
    for X in halves:
        X = sp.csr_matrix(X, copy=True)
        rs = np.asarray(X.sum(axis=1)).ravel()
        X.data *= np.repeat(np.where(rs > 0, 1.0 / np.maximum(rs, 1e-300), 0.0),
                            np.diff(X.indptr))
        normalized.append(X)
        counts.append(rs)
    total = counts[0] + counts[1]
    return CoocMatrix(CoocFactors(normalized[1], normalized[0], float(M)), total > 0, Q,
                      row_counts=total)


def reference_analytic_E(model: MixedMembershipModel) -> np.ndarray:
    """The dense asymptotic matrix, the way ``analytic_cooccurrence`` built
    it before it kept the factors."""
    K = model.K
    a = model.prior.mean(K)
    R = model.prior.correlation(K)
    B = model.observation_matrix()
    Ba = B @ a
    active = Ba > 0
    Bbar = np.zeros_like(B)
    Bbar[active] = B[active] * a[None, :] / Ba[active, None]
    Rbar = R / np.outer(a, a)
    return Bbar @ Rbar @ Bbar.T


def corpus_from_records(Q, M, records):
    """records: list of (user, winner, loser) in arrival order."""
    u, w, l = (np.array(col) for col in zip(*records))
    return ComparisonCorpus(Q=Q, M=M, user=u, winner=w, loser=l)


def mask_halves(corpus, first: np.ndarray) -> list[sp.csr_matrix]:
    """The W x M counts [X, X'] of the records that the mask ``first`` puts
    in the first half and of the others, each summed by
    ``coo_matrix.tocsr``."""
    rows = corpus.pair_rows()
    shape = (pairs.num_pairs(corpus.Q), corpus.M)
    return [sp.coo_matrix((np.ones(np.count_nonzero(m)), (rows[m], corpus.user[m])),
                          shape=shape).tocsr() for m in (first, ~first)]


def count_halves(split) -> list[sp.csr_matrix]:
    """The W x M counts [X, X'] of the split's halves."""
    return mask_halves(split.corpus, split.first)


class TestSplit:
    def test_even_count_splits_in_half_by_arrival(self):
        # four records a, b, c, d: a, b land in X and c, d in X_prime
        corpus = corpus_from_records(3, 1, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (0, 1, 3)])
        X, X_prime = count_halves(split_halves(corpus))
        r = lambda i, j: pairs.pair_row(i, j, 3)
        assert X[r(1, 2), 0] == 1 and X[r(2, 3), 0] == 1
        assert X.sum() == 2
        assert X_prime[r(3, 1), 0] == 1 and X_prime[r(1, 3), 0] == 1
        assert X_prime.sum() == 2

    def test_odd_count_puts_extra_record_in_first_half(self):
        corpus = corpus_from_records(3, 1, [(0, 1, 2), (0, 2, 3), (0, 3, 1)])
        X, X_prime = count_halves(split_halves(corpus))
        assert X.sum() == 2
        assert X_prime.sum() == 1
        assert X_prime[pairs.pair_row(3, 1, 3), 0] == 1

    def test_interleaved_users_split_independently(self):
        # records of two users interleaved; each user's own order decides
        records = [(0, 1, 2), (1, 2, 1), (0, 2, 3), (1, 1, 3), (0, 3, 1), (1, 3, 2)]
        corpus = corpus_from_records(3, 2, records)
        halves = count_halves(split_halves(corpus))
        grouped = corpus_from_records(3, 2, sorted(records, key=lambda t: t[0]))
        for half, grouped_half in zip(halves, count_halves(split_halves(grouped))):
            assert (half != grouped_half).nnz == 0

    def test_conservation(self):
        model = MixedMembershipModel(
            [MallowsComponent(Permutation.identity(5), 0.4),
             MallowsComponent(Permutation.from_ranking([5, 4, 3, 2, 1]), 0.4)],
            DirichletPrior(0.3))
        corpus, _ = generate(model, M=50, N=7, seed=8)
        split = split_halves(corpus)
        X, X_prime = count_halves(split)
        per_user = np.asarray((X + X_prime).sum(axis=0)).ravel()
        assert np.all(per_user == 7)
        got = cooccurrence(split).row_counts
        want = np.bincount(corpus.pair_rows(), minlength=pairs.num_pairs(5))
        assert np.array_equal(got, want)
        assert np.allclose(split.row_scale(), want / 50)

    def test_user_with_one_record_is_named(self):
        corpus = corpus_from_records(3, 2, [(0, 1, 2), (0, 2, 1), (1, 1, 2)])
        with pytest.raises(SplitError, match=r"user 1 has 1 comparison"):
            split_halves(corpus)

    def test_normalized_halves_rows_sum_to_one_or_zero(self):
        model = MixedMembershipModel(
            [MallowsComponent(Permutation.identity(4), 0.0)], FixedWeights((1.0,)))
        corpus, _ = generate(model, M=20, N=6, seed=3)
        E = cooccurrence(split_halves(corpus)).E
        for mat in (E.right, E.left):
            rs = np.asarray(mat.sum(axis=1)).ravel()
            assert np.all((np.abs(rs - 1.0) < 1e-12) | (rs == 0.0))


def reference_halves(corpus: ComparisonCorpus) -> list[sp.csr_matrix]:
    """The split's halves through COO matrices: each record's rank within
    its user, a first-half mask scattered back by the stable sort, and
    ``coo_matrix.tocsr`` summing each half's ones.  The split finds each
    record's rank a slice at a time instead, and ``cooccurrence`` reads the
    halves off sorted (pair, user) keys; this is the form they replaced,
    kept as the reference they must match bit for bit."""
    M = corpus.M
    counts = np.bincount(corpus.user, minlength=M)
    if counts.min() < 2:
        u = int(np.argmin(counts))
        raise SplitError(f"user {u} has {int(counts[u])} comparison(s); need at least 2")
    order = np.argsort(corpus.user, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank_within = np.arange(corpus.n_records) - np.repeat(offsets, counts)
    first_half_sorted = rank_within < np.repeat((counts + 1) // 2, counts)
    first = np.zeros(corpus.n_records, dtype=bool)
    first[order] = first_half_sorted
    return mask_halves(corpus, first)


@st.composite
def split_cases(draw):
    """A corpus with users in shuffled record order, repeated (user, pair)
    records, and now and then a user with fewer than two records."""
    Q = draw(st.integers(2, 6))
    M = draw(st.integers(1, 8))
    per_user = draw(st.lists(st.integers(1, 25), min_size=M, max_size=M))
    n = sum(per_user)
    W = pairs.num_pairs(Q)
    rows = np.array(draw(st.lists(st.integers(0, W - 1), min_size=n, max_size=n)))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(n)
    I, J = pairs.pair_arrays(Q)
    return ComparisonCorpus(Q=Q, M=M, user=np.repeat(np.arange(M), per_user)[order],
                            winner=I[rows], loser=J[rows])


def peak_beyond(fn, *args, **kwargs) -> int:
    """tracemalloc peak of ``fn(*args, **kwargs)`` beyond what was live
    before, in bytes; warnings are ignored."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def reversed_pair_model(Q: int) -> MixedMembershipModel:
    """Two components, the identity and its reverse, at phi = 0.1."""
    return MixedMembershipModel(
        [MallowsComponent(Permutation.identity(Q), 0.1),
         MallowsComponent(Permutation.from_ranking(list(range(Q, 0, -1))), 0.1)],
        DirichletPrior(0.1))


def wide_key_corpus() -> ComparisonCorpus:
    """Q = 1000 items (W = 999,000 pair rows) and M = 3000 users of two
    records each, in shuffled order: the keys row * M + user and
    user * W + row reach M * W = 3.0e9, past 2**31, so a key formed in the
    corpus's int32 or int16 wraps."""
    rng = np.random.default_rng(7)
    Q, M = 1000, 3000
    rows = rng.integers(0, pairs.num_pairs(Q), 2 * M)
    I, J = pairs.pair_arrays(Q)
    return ComparisonCorpus(Q=Q, M=M, user=rng.permutation(np.repeat(np.arange(M), 2)),
                            winner=I[rows], loser=J[rows])


def int64_rows(corpus: ComparisonCorpus) -> np.ndarray:
    """The pair row of every record, from its items widened to int64 here."""
    return pairs.pair_row(corpus.winner.astype(np.int64), corpus.loser.astype(np.int64),
                          corpus.Q)


def assert_same_halves(got: list, want: list):
    """In both halves, the same shape, data, indices and indptr, dtypes and
    index order."""
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        for field in ("data", "indices", "indptr"):
            a, b = getattr(g, field), getattr(w, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        assert g.has_sorted_indices == w.has_sorted_indices


def diags_normalized(halves: list) -> list[sp.csr_matrix]:
    """Each count matrix of ``halves`` with its rows scaled to sum to one by
    ``sp.diags(inv) @ X``, the product ``cooccurrence`` once formed."""
    out = []
    for X in halves:
        rs = np.asarray(X.sum(axis=1)).ravel()
        out.append(sp.diags(np.where(rs > 0, 1.0 / np.maximum(rs, 1e-300), 0.0)) @ X)
    return out


def assert_normalized_like_diags(corpus, want_corpus=None):
    """``cooccurrence``'s factors [right, left] hold, byte for byte, the
    ``sp.diags(inv) @ X`` products of ``reference_halves(want_corpus)``
    (``corpus`` itself by default), and its row counts their row sums."""
    reference = reference_halves(corpus if want_corpus is None else want_corpus)
    cooc = cooccurrence(split_halves(corpus))
    assert_same_halves([cooc.E.right, cooc.E.left], diags_normalized(reference))
    want = sum(np.asarray(X.sum(axis=1)).ravel() for X in reference)
    assert cooc.row_counts.tobytes() == want.tobytes()


class TestSplitMatchesCOOReference:
    """``split_halves`` and ``cooccurrence`` against ``reference_halves``:
    the same errors, the same halves and, in both row-normalized halves,
    the same data, indices and indptr, dtypes and index order as the
    ``sp.diags(inv) @ X`` product they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(corpus=split_cases(), slice_records=st.sampled_from([1, 2, 3, 1 << 16]))
    def test_same_bits(self, corpus, slice_records):
        try:
            want = reference_halves(corpus)
        except SplitError as exc:
            with pytest.raises(SplitError, match=f"^{re.escape(str(exc))}$"):
                split_halves(corpus)
            return
        with mock.patch.object(pairs, "_SLICE", slice_records):
            assert_same_halves(count_halves(split_halves(corpus)), want)
            assert_normalized_like_diags(corpus)

    @pytest.mark.parametrize("slice_records", [1, 2, 1 << 13])
    def test_empty_first_inner_and_last_rows(self, slice_records):
        # no record of (1, 2), (2, 1) or (3, 2), the first, an inner and the
        # last of the W = 6 pair rows, and none of (1, 3) in the second half
        records = [(0, 1, 3), (1, 3, 1), (0, 2, 3), (1, 3, 1), (1, 2, 3), (0, 2, 3), (1, 3, 1)]
        corpus = corpus_from_records(3, 2, records)
        halves = reference_halves(corpus)
        empty = [np.flatnonzero(np.diff(X.indptr) == 0).tolist() for X in halves]
        assert empty == [[0, 2, 5], [0, 1, 2, 5]]
        with mock.patch.object(pairs, "_SLICE", slice_records):
            assert_normalized_like_diags(corpus)

    def test_user_by_row_keys_cannot_wrap(self):
        # 2**61 + 1 users times W = 20 pair rows is past int64, so a key
        # could wrap; the corpus limits refuse such a corpus before the
        # split sees it, and under them every key fits int64
        M = 2**61 + 1
        with pytest.raises(ValueError, match=f"^{re.escape(USER_LIMIT)}$"):
            ComparisonCorpus(Q=5, M=M, user=np.array([0, M - 1]),
                             winner=np.array([1, 2]), loser=np.array([2, 1]))
        assert MAX_USERS * pairs.num_pairs(MAX_ITEMS) < 2**63

    def test_keys_past_int32(self):
        # the keys row * M + user reach 3.0e9; the reference splits the
        # same records with every id widened to int64 here
        corpus = wide_key_corpus()
        assert corpus.M * pairs.num_pairs(corpus.Q) > 2**31
        assert moments._half_keys(split_halves(corpus), 0).dtype == np.int64
        rows = int64_rows(corpus)
        wide = SimpleNamespace(Q=corpus.Q, M=corpus.M, n_records=corpus.n_records,
                               user=corpus.user.astype(np.int64), pair_rows=rows.copy)
        assert_normalized_like_diags(corpus, wide)

    @pytest.mark.parametrize("M, key", [(2149, np.int32), (2150, np.int64)])
    def test_int32_key_boundary(self, M, key):
        # W * M = 999,000 M is 2,146,851,000 at M = 2149, within int32,
        # and 2,147,850,000 at M = 2150, past it: the keys change type
        # there and the halves do not change at all
        rng = np.random.default_rng(M)
        Q = 1000
        rows = rng.integers(0, pairs.num_pairs(Q), 2 * M)
        I, J = pairs.pair_arrays(Q)
        corpus = ComparisonCorpus(Q=Q, M=M, user=rng.permutation(np.repeat(np.arange(M), 2)),
                                  winner=I[rows], loser=J[rows])
        split = split_halves(corpus)
        assert moments._half_keys(split, 0).dtype == moments._half_keys(split, 1).dtype == key
        assert pairs.user_entries(corpus)[1].dtype == key
        assert_normalized_like_diags(corpus)

    @pytest.mark.parametrize("Q, M, N", [(20, 1000, 300), (60, 2000, 50)])
    def test_peak_beyond_the_corpus(self, Q, M, N):
        # the split holds its first-half mask, 1 byte a record, and beside
        # it per-user counts and one slice's arrays: 363 and 372 KiB here
        # (sorting all the users at once took 8.1 and 8.5 bytes a record);
        # beyond the row-normalized halves it returns, the co-occurrence
        # holds one half's int32 keys, their run-start mask and their
        # counts: 1.1 and 3.5 bytes a record here (raw counts built from an
        # int64 key for the whole corpus and both halves' keys peaked at
        # 16.0 and 16.2 bytes a record, before their normalized copies)
        corpus, _ = generate(reversed_pair_model(Q), M=M, N=N, seed=2)
        n = corpus.n_records
        peak = peak_beyond(split_halves, corpus)
        assert peak < n + 2**19, (peak, n)
        split = split_halves(corpus)
        peak = peak_beyond(cooccurrence, split)
        stored = cooccurrence(split).E.nbytes
        assert peak < stored + 4 * n, (peak, stored, n)


@st.composite
def entry_cases(draw):
    """A corpus with users in shuffled record order, users without records
    and repeated (user, pair) records, and None or a mask over user ids."""
    Q = draw(st.integers(2, 6))
    M = draw(st.integers(1, 8))
    per_user = draw(st.lists(st.integers(0, 25), min_size=M, max_size=M).filter(any))
    n = sum(per_user)
    W = pairs.num_pairs(Q)
    rows = np.array(draw(st.lists(st.integers(0, W - 1), min_size=n, max_size=n)))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(n)
    I, J = pairs.pair_arrays(Q)
    corpus = ComparisonCorpus(Q=Q, M=M, user=np.repeat(np.arange(M), per_user)[order],
                              winner=I[rows], loser=J[rows])
    users = draw(st.none() | st.lists(st.booleans(), min_size=M, max_size=M).map(np.array))
    return corpus, users


class TestUserEntries:
    """``pairs.user_entries`` against a per-record reference, and its
    entries of every s-th user against the sparse transpose they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(case=entry_cases(), slice_records=st.sampled_from([1, 2, 3, 1 << 15]))
    def test_matches_unique_of_per_record_keys(self, case, slice_records):
        corpus, users = case
        W = pairs.num_pairs(corpus.Q)
        keep = np.ones(corpus.n_records, bool) if users is None else users[corpus.user]
        key, count = np.unique(corpus.user[keep].astype(np.int64) * W + int64_rows(corpus)[keep],
                               return_counts=True)
        user, row = np.divmod(key, W)
        starts = np.flatnonzero(np.diff(user, prepend=-1))
        with mock.patch.object(pairs, "_SLICE", slice_records):
            got = pairs.user_entries(corpus, users)
        # the rows are int32 when every key user * W + row fits it
        row = row.astype(pairs.key_type(corpus.M * W))
        for g, w in zip(got, (count.astype(float), row, starts, user[starts]), strict=True):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(corpus=split_cases(), records=st.integers(1, 200))
    def test_split_entries_match_the_transposed_halves(self, corpus, records):
        assume(np.bincount(corpus.user, minlength=corpus.M).min() >= 2)
        # the code that the entries of every s-th user replaced: one CSR
        # row of pair-row counts per user, every s-th row kept
        X, X_prime = count_halves(split_halves(corpus))
        C = (X + X_prime).T.tocsr()
        C = C[::max(1, -(-int(C.data.sum()) // records))]
        want = C.data, C.indices.astype(np.int64), C.indptr[:-1][np.diff(C.indptr) > 0]
        users = np.zeros(corpus.M, dtype=bool)
        users[::max(1, -(-corpus.n_records // records))] = True
        for g, w in zip(pairs.user_entries(corpus, users)[:3], want, strict=True):
            assert g.tobytes() == w.astype(g.dtype).tobytes()


class TestPeaksPerRecord:
    """tracemalloc peaks, in bytes per record, of the other stages that
    read a whole corpus."""

    def test_read_peak_per_record(self, tmp_path):
        # read_corpus holds its ids in the corpus's 8-byte form from the
        # start: buffers for one record per 28 bytes of file, 10.3 bytes a
        # record here, and one block's working set, about 2.7 MB (9 bytes a
        # record here); buffers of three int64 ids would take 30.9 alone
        corpus, _ = generate(reversed_pair_model(20), M=1000, N=300, seed=2)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        peak = peak_beyond(read_corpus, path)
        assert peak < 24 * corpus.n_records, (peak, corpus.n_records)

    def test_compact_json_reads_like_the_writer_form(self, tmp_path):
        # compact JSON, as ``jq -c`` writes it, goes through the JSON
        # decoder line by line; each block's decoded ids are stored with
        # the block, so the read keeps the writer form's bound (when every
        # decoded id waited in Python lists for the end of the file it
        # took about 97 bytes a record); blocks of 16 KiB keep a block's
        # working set small beside 60,000 records
        corpus, _ = generate(reversed_pair_model(20), M=300, N=200, seed=2)
        path, compact = tmp_path / "corpus.jsonl", tmp_path / "compact.jsonl"
        write_corpus(corpus, path)
        with open(path) as src, open(compact, "w") as out:
            out.writelines(json.dumps(json.loads(line), separators=(",", ":")) + "\n"
                           for line in src)
        assert compact.read_bytes() != path.read_bytes()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with mock.patch.object(generator, "_READ_BLOCK", 1 << 14):
                got = read_corpus(compact)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        want = read_corpus(path)
        assert (got.Q, got.M, got.N) == (want.Q, want.M, want.N)
        for g, w in zip((got.user, got.winner, got.loser), (want.user, want.winner, want.loser)):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert peak < 24 * corpus.n_records, (peak, corpus.n_records)

    def test_weight_em_peak_beyond_the_corpus(self):
        # 200 records per user over W = 20 pair rows repeat (user, pair)
        # entries often, so the EM's peak is its int64 key, 8 bytes a
        # record, and the key's run-start mask; an int64 column of
        # user * W beside the key would add 8 more
        corpus, _ = generate(reversed_pair_model(5), M=1000, N=200, seed=2)
        B = reversed_pair_model(5).observation_matrix()
        peak = peak_beyond(infer_weights, corpus, B, max_iter=3)
        assert peak < 12 * corpus.n_records, (peak, corpus.n_records)

    def test_weight_em_peak_per_distinct_entry(self):
        # every user compares 100 distinct ordered pairs of 20 items, so
        # each record is an entry of its own; at K = 5 the EM holds each
        # entry's count and int32 pair row, 12 bytes, and gathers one
        # block's outcome probabilities at a time: 17.0 bytes an entry
        # measured, where a (K, entries) table of them held beside the
        # entries took 53.5
        Q, M, N, K = 20, 3000, 100, 5
        rng = np.random.default_rng(4)
        W = pairs.num_pairs(Q)
        rows = np.concatenate([rng.permutation(W)[:N] for _ in range(M)])
        I, J = pairs.pair_arrays(Q)
        corpus = ComparisonCorpus(Q=Q, M=M, user=np.repeat(np.arange(M), N),
                                  winner=I[rows], loser=J[rows])
        assert pairs.user_entries(corpus)[0].size == corpus.n_records
        B = rng.uniform(0.1, 1.0, size=(W, K))
        with mock.patch.object(evaluate, "_EM_BLOCK", 2**12):
            peak = peak_beyond(infer_weights, corpus, B, max_iter=3)
        assert peak < 20 * corpus.n_records, (peak, corpus.n_records)


class TestCooccurrence:
    def test_single_repeated_pair(self):
        # every user compares the same ordered pair twice: the normalized
        # halves are flat over users, so the lone entry is exactly one
        for M in (1, 7):
            records = [(u, 1, 2) for u in range(M) for _ in range(2)]
            cooc = cooccurrence(split_halves(corpus_from_records(3, M, records)))
            w = pairs.pair_row(1, 2, 3)
            E = full(cooc)
            assert E[w, w] == pytest.approx(1.0)
            assert np.count_nonzero(E) == 1
            assert cooc.active[w] and cooc.active.sum() == 1
            assert cooc.corpus.M == M and cooc.row_counts[w] == 2 * M

    def test_matches_analytic_form_on_expected_counts(self):
        # Feeding the estimator expected counts instead of sampled ones
        # must reproduce the asymptotic matrix built from the matching
        # empirical weight moments; both sides are computed independently.
        rng = np.random.default_rng(44)
        Q = 4
        comps = [MallowsComponent(Permutation.from_ranking((rng.permutation(Q) + 1).tolist()), 0.3)
                 for _ in range(2)]
        model = MixedMembershipModel(comps, None)
        B = model.observation_matrix()
        thetas = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, 0.8]])
        M = thetas.shape[0]
        T = B @ thetas.T  # W x M expected per-comparison pair usage
        got = counts_cooccurrence([sp.csr_matrix(5 * T), sp.csr_matrix(5 * T)], M, Q)

        a_emp = thetas.mean(axis=0)
        R_emp = thetas.T @ thetas / M
        denom = B @ a_emp
        Bbar = B * a_emp[None, :] / denom[:, None]
        want = Bbar @ (R_emp / np.outer(a_emp, a_emp)) @ Bbar.T
        assert np.allclose(full(got), want, atol=1e-12)

    def test_matches_analytic_cooccurrence_for_fixed_weights(self):
        # all users share one weight vector: expected-count halves must
        # agree exactly with the analytic matrix of the same prior
        Q = 4
        comps = [MallowsComponent(Permutation.identity(Q), 0.2),
                 MallowsComponent(Permutation.from_ranking([4, 3, 2, 1]), 0.2)]
        # unequal weights keep the second moment full-rank only jointly
        # with distinct components; the analytic path checks the rank
        model = MixedMembershipModel(comps, FixedWeights((0.3, 0.7)))
        with pytest.raises(ValueError, match="rank-deficient"):
            analytic_cooccurrence(model)
        # a full-rank prior over the same components
        model = MixedMembershipModel(comps, DirichletPrior(1.0))
        cooc, row_scale = analytic_cooccurrence(model)
        B = model.observation_matrix()
        assert np.allclose(row_scale, B @ model.prior.mean(2))
        assert cooc.row_counts is None and cooc.corpus is None

    def test_single_component_analytic_is_all_ones_on_active(self):
        ref = Permutation.from_ranking([2, 1, 3, 4])
        model = MixedMembershipModel([MallowsComponent(ref, 0.0)], FixedWeights((1.0,)))
        cooc, row_scale = analytic_cooccurrence(model)
        act = cooc.active
        E = full(cooc)
        # dispersion zero: exactly one direction of each pair is possible
        assert act.sum() == pairs.num_unordered(4)
        assert np.allclose(E[np.ix_(act, act)], 1.0)
        assert np.all(E[~act] == 0) and np.all(E[:, ~act] == 0)
        assert np.allclose(row_scale[act], 1.0 / pairs.num_unordered(4))

    def test_estimate_converges_to_analytic(self):
        Q, phi = 3, 0.3
        comps = [MallowsComponent(Permutation.identity(Q), phi),
                 MallowsComponent(Permutation.from_ranking([3, 2, 1]), phi)]
        model = MixedMembershipModel(comps, DirichletPrior(0.5))
        exact, _ = analytic_cooccurrence(model)
        errs = []
        for M in (500, 5000, 50000):
            corpus, _ = generate(model, M=M, N=10, seed=14)
            est = cooccurrence(split_halves(corpus))
            errs.append(float(np.max(np.abs(full(est) - full(exact)))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.05

    def test_factors_at_many_pair_rows(self):
        Q = 46  # 2070 ordered pairs
        model = MixedMembershipModel(
            [MallowsComponent(Permutation.identity(Q), 0.3)], FixedWeights((1.0,)))
        corpus, _ = generate(model, M=60, N=30, seed=6)
        split = split_halves(corpus)
        cooc = cooccurrence(split)
        assert isinstance(cooc.E, CoocFactors)
        assert cooc.E.shape == (pairs.num_pairs(Q),) * 2
        assert (~cooc.active).any()
        E = full(cooc)
        assert np.all(E[~cooc.active] == 0)
        assert np.all(E[:, ~cooc.active] == 0)
        Xn, Xpn = cooc.E.right, cooc.E.left
        assert np.array_equal(E, (60 * (Xpn @ Xn.T)).toarray())
        # the factors store the two sparse halves, far less than W x W floats
        assert cooc.E.nbytes == sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                                    for m in (Xn, Xpn))
        assert cooc.E.nbytes < E.nbytes / 10

    def test_unobserved_rows_inactive(self):
        records = [(0, 1, 2), (0, 1, 2), (1, 1, 2), (1, 2, 3)]
        cooc = cooccurrence(split_halves(corpus_from_records(3, 2, records)))
        w12, w23 = pairs.pair_row(1, 2, 3), pairs.pair_row(2, 3, 3)
        assert cooc.active[w12] and cooc.active[w23]
        assert cooc.active.sum() == 2
        assert np.all(full(cooc)[~cooc.active] == 0)

    def test_dense_factors_keep_every_bit(self):
        rng = np.random.default_rng(3)
        E = rng.standard_normal((7, 7)) * 10.0 ** rng.integers(-300, 300, size=(7, 7))
        got = dense_factors(E)
        assert np.array_equal(got.block(np.arange(7), np.arange(7)), E)
        assert np.array_equal(got.diagonal([4, 0, 4]), E[[4, 0, 4], [4, 0, 4]])


def random_model(seed, Q, K) -> MixedMembershipModel:
    rng = np.random.default_rng(seed)
    comps = [MallowsComponent(Permutation.from_ranking((rng.permutation(Q) + 1).tolist()),
                              float(phi))
             for phi in rng.choice([0.0, 0.2, 0.7], size=K)]
    return MixedMembershipModel(comps, DirichletPrior(float(rng.uniform(0.1, 2.0))))


def index_subsets(rng, W, draws=4):
    """Random row and column index arrays: any order, repeats allowed,
    singletons and empty ones included."""
    for size in (0, 1, *rng.integers(1, 2 * W + 1, size=draws - 2)):
        yield rng.integers(0, W, size=int(size))


class TestFactorsMatchDenseReference:
    """Blocks and diagonals of the factors hold the bits of the dense Ê
    that ``analytic_cooccurrence`` used to build."""

    def check(self, factors, E, rng):
        for I, J in zip(index_subsets(rng, E.shape[0]), index_subsets(rng, E.shape[1])):
            assert np.array_equal(factors.block(I, J), E[np.ix_(I, J)])
            assert np.array_equal(factors.diagonal(I), E[I, I])

    @given(seed=st.integers(0, 2**32 - 1), Q=st.integers(2, 7), K=st.integers(1, 4),
           chunk=st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_analytic(self, seed, Q, K, chunk):
        model = random_model(seed, Q, K)
        try:
            cooc, _ = analytic_cooccurrence(model)
        except ValueError:  # a rank-deficient prior draw
            return
        with mock.patch.object(moments, "_CHUNK_ROWS", chunk):
            self.check(cooc.E, reference_analytic_E(model), np.random.default_rng(seed))

    def test_sparse_factors_are_refused(self):
        # the sampled halves are read only through products; asking them
        # for entries fails instead of answering
        cooc = cooccurrence(split_halves(corpus_from_records(3, 1, [(0, 1, 2), (0, 1, 2)])))
        for read in (lambda: cooc.E.block([0], [0]), lambda: cooc.E.diagonal([])):
            with pytest.raises(TypeError, match="read dense factors"):
                read()


class TestCooccurrenceMemory:
    def test_split_to_ranking_matrix_stays_near_the_candidate_slice(self):
        # With more pair rows than users the dense W x W E-hat alone would
        # exceed the n x n candidate slice that detection holds; from the
        # halves to B-hat nothing may hold much beside that slice.
        from mallowmix.estimator import DetectionConfig, detect_novel_pairs, estimate_ranking_matrix

        Q = 52  # 2652 pair rows, 800 users
        model = MixedMembershipModel(
            [MallowsComponent(Permutation.identity(Q), 0.1),
             MallowsComponent(Permutation.from_ranking(list(range(Q, 0, -1))), 0.1)],
            DirichletPrior(0.1))
        corpus, _ = generate(model, M=800, N=100, seed=1)
        tracemalloc.start()
        try:
            split = split_halves(corpus)
            cooc = cooccurrence(split)
            novel = detect_novel_pairs(cooc, DetectionConfig(n_components=1))
            estimate_ranking_matrix(cooc, split.row_scale(), novel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(novel.solid_angles)
        W = pairs.num_pairs(Q)
        assert W > 800 and 2000 <= n <= W
        assert peak < 1.3 * (8 * n * n)
