"""Corpus sampling: priors, determinism, label statistics, file round trips."""

import json
import math
import os
import re
import stat
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from mallowmix import generator, pairs
from mallowmix.generator import (
    ITEM_LIMIT,
    MAX_ITEMS,
    MAX_USERS,
    USER_LIMIT,
    ComparisonCorpus,
    CorpusError,
    DirichletPrior,
    FixedWeights,
    MixedMembershipModel,
    RecordError,
    VertexPrior,
    atomic_write,
    atomic_write_text,
    generate,
    generate_corpus_file,
    model_from_dict,
    model_to_dict,
    read_corpus,
    read_model,
    write_corpus,
)
from mallowmix.mallows import MallowsComponent, build_ranking_matrix
from mallowmix.permutations import Permutation
from test_mallows import validate_ranking_matrix


def write_model(model, path, seed=None):
    """Write a model file in the form of ``generate --truth``."""
    atomic_write_text(path, json.dumps(model_to_dict(model, seed=seed), indent=1) + "\n")


def small_model(Q=4, K=2, phi=0.3, prior=None):
    rng = np.random.default_rng(123)
    comps = [MallowsComponent(Permutation.from_ranking((rng.permutation(Q) + 1).tolist()), phi)
             for _ in range(K)]
    return MixedMembershipModel(components=comps, prior=prior or DirichletPrior(0.5))


def reference_generate(model, M, N, seed):
    """The per-user sampler that ``generate`` replaced, one user at a time,
    which also returns each record's generating component: the corpus,
    the (M, K) user weights and the labels."""
    K, Q = model.K, model.Q
    beta = model.ranking_matrix()
    cum_mu = np.cumsum(model.pair_distribution())
    uI, uJ = pairs.unordered_arrays(Q)
    thetas, wins, loses, labels = [], [], [], []
    for u in range(M):
        rng = generator._user_rng(seed, u)
        theta = model.prior.sample(rng, K)
        upair = np.minimum(np.searchsorted(cum_mu, rng.random(N), side="right"), cum_mu.size - 1)
        z = np.minimum(np.searchsorted(np.cumsum(theta), rng.random(N), side="right"), K - 1)
        i, j = uI[upair], uJ[upair]
        first = rng.random(N) < beta[pairs.pair_row(i, j, Q), z]
        thetas.append(theta)
        wins.append(np.where(first, i, j))
        loses.append(np.where(first, j, i))
        labels.append(z)
    user = np.repeat(np.arange(M, dtype=np.int64), N)
    corpus = ComparisonCorpus(Q, M, user, np.concatenate(wins), np.concatenate(loses), N=N)
    return corpus, np.stack(thetas), np.concatenate(labels)


def empirical_beta(corpus, labels, K):
    """Per-component win frequencies of a corpus whose records were drawn
    from the components ``labels``.

    Entry (row(i, j), k) is the fraction of label-k comparisons of {i, j}
    won by i; NaN where the pair was never compared under component k.
    """
    if labels is None:
        raise ValueError("corpus has no component labels")
    W = pairs.num_pairs(corpus.Q)
    wins = np.zeros((W, K))
    np.add.at(wins, (corpus.pair_rows(), labels), 1.0)
    losses = wins[pairs.reverse_rows(corpus.Q)]
    total = wins + losses
    with np.errstate(invalid="ignore"):
        return np.where(total > 0, wins / np.maximum(total, 1e-300), np.nan)


class TestPriors:
    def test_dirichlet_sample_mean(self):
        prior = DirichletPrior(0.2)
        rng = np.random.default_rng(0)
        draws = np.stack([prior.sample(rng, 3) for _ in range(20_000)])
        assert np.allclose(draws.sum(axis=1), 1.0)
        assert np.all(draws >= 0)
        # symmetric Dirichlet: mean 1/K, se = sqrt(var/n)
        var = (1 / 3) * (2 / 3) / (3 * 0.2 + 1)
        se = math.sqrt(var / draws.shape[0])
        assert np.max(np.abs(draws.mean(axis=0) - 1 / 3)) < 5 * se
        assert np.allclose(prior.mean(3), 1 / 3)

    def test_dirichlet_correlation_is_second_moment(self):
        # E[theta theta^T] for symmetric Dirichlet, checked by simulation.
        prior = DirichletPrior(0.5)
        rng = np.random.default_rng(1)
        draws = np.stack([prior.sample(rng, 2) for _ in range(40_000)])
        emp = draws.T @ draws / draws.shape[0]
        assert np.max(np.abs(emp - prior.correlation(2))) < 5e-3

    def test_vertex_prior_draws_one_hot(self):
        prior = VertexPrior(probs=(0.25, 0.25, 0.25, 0.25))
        rng = np.random.default_rng(2)
        for _ in range(50):
            theta = prior.sample(rng, 4)
            assert sorted(theta) == [0, 0, 0, 1]
        assert np.allclose(prior.mean(4), 0.25)
        assert np.allclose(prior.correlation(4), np.eye(4) / 4)

    def test_vertex_prior_class_probs(self):
        prior = VertexPrior(probs=[0.9, 0.1])
        rng = np.random.default_rng(3)
        first = np.mean([prior.sample(rng, 2)[0] for _ in range(5000)])
        assert abs(first - 0.9) < 0.02
        with pytest.raises(ValueError):
            prior.sample(rng, 3)

    def test_fixed_weights(self):
        prior = FixedWeights([0.25, 0.75])
        rng = np.random.default_rng(4)
        assert np.allclose(prior.sample(rng, 2), [0.25, 0.75])
        assert np.allclose(prior.correlation(2),
                           np.outer([0.25, 0.75], [0.25, 0.75]))
        with pytest.raises(ValueError):
            FixedWeights([0.5, 0.6])

    def test_dirichlet_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            DirichletPrior(0.0)

    def test_dirichlet_rejects_non_finite_alpha(self):
        # nan <= 0 is False, so a sign test alone let NaN through and
        # sampling then never left its redraw loop
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                DirichletPrior(alpha)

    def test_vertex_prior_rejects_non_finite(self):
        for probs in ((math.nan, math.nan), (math.inf, 0.0), (0.5, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                VertexPrior(probs)

    def test_fixed_weights_reject_non_finite(self):
        for weights in ((math.nan, math.nan), (math.inf, 0.0), (0.5, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                FixedWeights(weights)


class TestModel:
    def test_observation_matrix_columns(self):
        model = small_model()
        B = model.observation_matrix()
        validate_ranking_matrix(B, model.Q, "B")
        mu = model.pair_distribution()
        assert mu.sum() == pytest.approx(1.0)
        # B row = unordered pair probability times concordance probability
        beta = model.ranking_matrix()
        u_of = pairs.unordered_index(model.Q)
        assert np.allclose(B, mu[u_of][:, None] * beta)

    def test_component_shape_checks(self):
        comps = [MallowsComponent(Permutation.identity(3), 0.2),
                 MallowsComponent(Permutation.identity(4), 0.2)]
        with pytest.raises(ValueError):
            MixedMembershipModel(comps, DirichletPrior(1.0))
        with pytest.raises(ValueError):
            MixedMembershipModel([], DirichletPrior(1.0))

    def test_pair_probs_validated(self):
        comp = MallowsComponent(Permutation.identity(3), 0.2)
        with pytest.raises(ValueError):
            MixedMembershipModel([comp], None, pair_probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            MixedMembershipModel([comp], None,
                                 pair_probs=np.array([0.5, 0.4, 0.2]))

    def test_pair_probs_reject_non_finite(self):
        comp = MallowsComponent(Permutation.identity(3), 0.2)
        for probs in ([math.nan] * 3, [math.inf, 0.0, 0.0], [0.5, 0.5, math.nan]):
            with pytest.raises(ValueError, match="probability vector"):
                MixedMembershipModel([comp], None, pair_probs=np.array(probs))


class TestGenerate:
    def test_shapes_and_user_blocks(self):
        model = small_model()
        corpus, weights = generate(model, M=30, N=5, seed=9)
        assert corpus.n_records == 150
        assert weights.shape == (30, 2)
        assert np.allclose(weights.sum(axis=1), 1.0)
        # users appear as contiguous blocks 0..M-1
        assert np.array_equal(np.unique(corpus.user), np.arange(30))
        assert np.all(np.bincount(corpus.user) == 5)
        assert corpus.N == 5

    def test_deterministic_given_seed(self):
        model = small_model()
        a, wa = generate(model, M=40, N=6, seed=77)
        b, wb = generate(model, M=40, N=6, seed=77)
        assert np.array_equal(a.winner, b.winner)
        assert np.array_equal(a.loser, b.loser)
        assert np.array_equal(a.user, b.user)
        assert np.array_equal(wa, wb)
        c, _ = generate(model, M=40, N=6, seed=78)
        assert not np.array_equal(a.winner, c.winner)

    def test_user_streams_independent_of_m(self):
        # Adding users must not disturb earlier users' records.
        model = small_model()
        a, wa = generate(model, M=10, N=4, seed=5)
        b, wb = generate(model, M=25, N=4, seed=5)
        assert np.array_equal(a.winner, b.winner[:40])
        assert np.array_equal(a.loser, b.loser[:40])
        assert np.allclose(wa, wb[:10])

    def test_zero_dispersion_single_component_respects_reference(self):
        ref = Permutation.from_ranking([3, 1, 4, 2, 5])
        model = MixedMembershipModel(
            components=[MallowsComponent(ref, 0.0)], prior=FixedWeights([1.0]))
        corpus, _ = generate(model, M=20, N=30, seed=1)
        assert np.all(np.asarray([ref.position_of(int(w)) for w in corpus.winner])
                      < np.asarray([ref.position_of(int(l)) for l in corpus.loser]))

    def test_pair_usage_matches_distribution(self):
        # chi-square over unordered pair counts at 1e5 comparisons
        model = small_model(Q=5)
        corpus, _ = generate(model, M=1000, N=100, seed=21)
        u_of = pairs.unordered_index(model.Q)
        counts = np.bincount(u_of[corpus.pair_rows()],
                             minlength=pairs.num_unordered(model.Q))
        expected = model.pair_distribution() * corpus.n_records
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(0.999, df=counts.size - 1)

    def test_labeled_frequencies_match_beta(self):
        # per-(pair, component) concordance frequencies vs the closed form
        model = small_model(Q=5, K=2, phi=0.3)
        corpus, _, labels = reference_generate(model, M=1000, N=100, seed=33)
        beta = empirical_beta(corpus, labels, model.K)
        exact = build_ranking_matrix(model.components)
        rows = corpus.pair_rows()
        for k in range(model.K):
            for w in range(pairs.num_pairs(model.Q)):
                u_count = np.count_nonzero(
                    (labels == k)
                    & ((rows == w) | (rows == pairs.pair_row(*pairs.row_pair(w, model.Q)[::-1], model.Q))))
                if u_count < 50:
                    continue
                se = math.sqrt(exact[w, k] * (1 - exact[w, k]) / u_count) + 1e-9
                assert abs(beta[w, k] - exact[w, k]) < 4.5 * se

    def test_argument_validation(self):
        model = small_model()
        with pytest.raises(ValueError):
            generate(model, M=0, N=5, seed=0)
        with pytest.raises(ValueError):
            generate(model, M=5, N=0, seed=0)
        bare = MixedMembershipModel(model.components, None)
        with pytest.raises(ValueError):
            generate(bare, M=5, N=5, seed=0)

    def test_empirical_beta_requires_labels(self):
        model = small_model()
        corpus, _ = generate(model, M=10, N=5, seed=0)
        with pytest.raises(ValueError):
            empirical_beta(corpus, None, model.K)

    def test_corpus_rejects_bad_records(self):
        # record 2 of the good arrays below is the one made bad; each
        # rule's error names it, and a non-integer array fails at record 0
        good = {"user": [0, 1, 1, 2], "winner": [1, 2, 3, 4], "loser": [2, 3, 4, 1]}
        for field, value, record, rule in (
                ("winner", 0, 2, "item ids must lie in 1..4"),
                ("loser", 5, 2, "item ids must lie in 1..4"),
                ("winner", 4, 2, "winner and loser must differ"),
                ("user", 3, 2, "user ids must lie in 0..2"),
                ("user", -1, 2, "user ids must lie in 0..2"),
                ("loser", 1.7, 0, "user, winner and loser must be integer arrays")):
            arrays = {k: np.array(v) for k, v in good.items()}
            arrays[field] = np.array(good[field][:2] + [value] + good[field][3:])
            with pytest.raises(RecordError, match=re.escape(f"record {record}: {rule}")) as err:
                ComparisonCorpus(Q=4, M=3, **arrays)
            assert (err.value.record, err.value.rule) == (record, rule)
        # ids that would wrap into range when narrowed are checked first:
        # 2**32 is 0 as an int32, 65537 is 1 as an int16
        for field, value, rule in (("user", 2**32, "user ids must lie in 0..2"),
                                   ("winner", 65537, "item ids must lie in 1..4")):
            arrays = {k: np.array(v) for k, v in good.items()}
            arrays[field] = np.array(good[field][:2] + [value] + good[field][3:])
            with pytest.raises(RecordError, match=re.escape(f"record 2: {rule}")):
                ComparisonCorpus(Q=4, M=3, **arrays)
        # a record that breaks two rules reports the alphabetically first
        with pytest.raises(RecordError, match=re.escape("record 1: item ids")):
            ComparisonCorpus(Q=4, M=3, user=np.array([0, 9]), winner=np.array([1, 7]),
                             loser=np.array([2, 7]))
        ComparisonCorpus(Q=4, M=3, **{k: np.array(v) for k, v in good.items()})

    def test_corpus_stores_its_form_within_the_limits(self):
        # ids of any integer type are stored as int32 users and int16
        # items, exactly, up to the limits
        for dtype in (np.int8, np.uint16, np.int64):
            corpus = ComparisonCorpus(Q=4, M=3, user=np.array([0, 2], dtype),
                                      winner=np.array([1, 4], dtype),
                                      loser=np.array([4, 3], dtype))
            assert (corpus.user.dtype, corpus.winner.dtype, corpus.loser.dtype) == (
                np.int32, np.int16, np.int16)
            assert corpus.user.tolist() == [0, 2] and corpus.loser.tolist() == [4, 3]
        corpus = ComparisonCorpus(Q=MAX_ITEMS, M=MAX_USERS, user=np.array([0, MAX_USERS - 1]),
                                  winner=np.array([MAX_ITEMS, 1]),
                                  loser=np.array([1, MAX_ITEMS]))
        assert corpus.user.tolist() == [0, 2**31 - 2]
        assert corpus.winner.tolist() == [32767, 1] and corpus.loser.tolist() == [1, 32767]
        # a Q or M past the limits is refused before any id is looked at
        for Q, M, rule in ((MAX_ITEMS + 1, 3, ITEM_LIMIT), (4, MAX_USERS + 1, USER_LIMIT),
                           (4, 2**61, USER_LIMIT)):
            with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
                ComparisonCorpus(Q=Q, M=M, user=np.array([0]), winner=np.array([1]),
                                 loser=np.array([2]))
        # and generate refuses such an M before it allocates anything by M
        with pytest.raises(ValueError, match=f"^{re.escape(USER_LIMIT)}$"):
            generate(small_model(), M=MAX_USERS + 1, N=2, seed=0)

    def test_empirical_beta_nan_for_unseen(self):
        corpus = ComparisonCorpus(Q=3, M=1, user=np.array([0, 0]),
                                  winner=np.array([1, 2]), loser=np.array([2, 3]))
        beta = empirical_beta(corpus, np.array([0, 0]), 2)
        assert beta[pairs.pair_row(1, 2, 3), 0] == 1.0
        assert np.isnan(beta[pairs.pair_row(1, 3, 3), 0])
        assert np.all(np.isnan(beta[:, 1]))


CORPUS_META = json.dumps({"meta": {"Q": 5, "M": 3, "N": None}})


def record(user, win, lose):
    return json.dumps({"user": user, "win": win, "lose": lose})


def assert_rejected(tmp_path, bad, rule):
    """A corpus whose fourth record is ``bad`` (a (user, win, lose) tuple
    or a raw line) fails at that record's file line (meta and a blank line
    come first) with ``rule``."""
    good = [record(*r) for r in [(0, 1, 2), (1, 2, 3), (2, 4, 5)]]
    bad = bad if isinstance(bad, str) else record(*bad)
    lines = [CORPUS_META, ""] + good + [bad] + good
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:6: {rule}")):
        read_corpus(path)


class TestSerialization:
    def test_corpus_round_trip(self, tmp_path, monkeypatch):
        model = small_model()
        corpus, _, _ = reference_generate(model, M=12, N=4, seed=2)
        path = tmp_path / "corpus.jsonl"
        monkeypatch.setattr(generator, "_WRITE_CHUNK", 5)  # blocks end mid-corpus
        write_corpus(corpus, path, meta_extra={"note": "round trip"})
        meta = {"Q": corpus.Q, "M": corpus.M, "N": corpus.N, "note": "round trip"}
        want = [json.dumps({"meta": meta})] + [
            json.dumps({"user": int(u), "win": int(w), "lose": int(l)})
            for u, w, l in zip(corpus.user, corpus.winner, corpus.loser)]
        assert path.read_text() == "\n".join(want) + "\n"
        back = read_corpus(path)
        assert back.Q == corpus.Q and back.M == corpus.M and back.N == corpus.N
        assert np.array_equal(back.user, corpus.user)
        assert np.array_equal(back.winner, corpus.winner)
        assert np.array_equal(back.loser, corpus.loser)
        # the on-disk format carries only (user, win, lose) records
        assert not hasattr(back, "labels")

    def test_read_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            read_corpus(path)

    def test_read_rejects_self_comparison(self, tmp_path):
        assert_rejected(tmp_path, (1, 3, 3), "winner and loser must differ")
        # blank lines between the records, before the bad one on line 7
        path = tmp_path / "gaps.jsonl"
        lines = [CORPUS_META, record(0, 1, 2), "", "", record(1, 2, 3), "",
                 record(2, 3, 3), record(2, 4, 5)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusError, match=re.escape(f"{path}:7: winner and loser must differ")):
            read_corpus(path)

    def test_read_rejects_item_out_of_range(self, tmp_path):
        assert_rejected(tmp_path, (1, 0, 3), "item ids must lie in 1..5")
        assert_rejected(tmp_path, (1, 2, 6), "item ids must lie in 1..5")

    def test_read_rejects_user_out_of_range(self, tmp_path):
        assert_rejected(tmp_path, (3, 1, 2), "user ids must lie in 0..2")

    def test_read_rejects_non_integer_ids(self, tmp_path):
        rule = "user, win and lose must be JSON integers"
        for bad in ((1, 2.7, 3), (1, 2, 3.0), ("1", 2, 3), (True, 2, 3), (1, None, 3)):
            assert_rejected(tmp_path, bad, rule)

    def test_read_rejects_ids_beyond_64_bits(self, tmp_path):
        for bad in ((1, 2**63, 3), (-2**63 - 1, 2, 3)):
            assert_rejected(tmp_path, bad, "user, win and lose must fit in 64 bits")

    def test_read_rejects_ids_past_the_corpus_limits(self, tmp_path):
        # with a meta line, ids past the limits break them before the
        # corpus's own ranges
        for bad, rule in (((2**31 - 1, 1, 2), USER_LIMIT), ((3 * 10**9, 1, 2), USER_LIMIT),
                          ((1, 40000, 2), ITEM_LIMIT), ((1, 2, 32768), ITEM_LIMIT),
                          ((2**31 - 1, 40000, 3), USER_LIMIT),
                          ('{"win": 40000, "user": 1, "lose": 2}', ITEM_LIMIT)):
            assert_rejected(tmp_path, bad, rule)
        # without one, a 4-record corpus names the first record past a limit
        path = tmp_path / "bad.jsonl"
        for bad, line, rule in (((3 * 10**9, 1, 2), 3, USER_LIMIT),
                                ((1, 40000, 2), 2, ITEM_LIMIT)):
            records = [(0, 1, 2), bad if line == 2 else (0, 2, 1), bad, (1, 2, 1)]
            path.write_text("".join(record(*r) + "\n" for r in records))
            with pytest.raises(CorpusError, match=f"^{re.escape(f'{path}:{line}: {rule}')}$"):
                read_corpus(path)
        # a meta line past the limits is named
        for meta, rule in (({"Q": 40000, "M": 2}, ITEM_LIMIT),
                           ({"Q": 5, "M": 2**31}, USER_LIMIT)):
            path.write_text(json.dumps({"meta": meta}) + "\n" + record(0, 1, 2) + "\n")
            with pytest.raises(CorpusError, match=f"^{re.escape(f'{path}:1: {rule}')}$"):
                read_corpus(path)
        # ids at the limits read, and are stored exactly
        path.write_text(record(0, 1, MAX_ITEMS) + "\n" + record(MAX_USERS - 1, MAX_ITEMS, 1)
                        + "\n")
        back = read_corpus(path)
        assert (back.Q, back.M) == (MAX_ITEMS, MAX_USERS)
        assert back.user.tolist() == [0, 2**31 - 2] and back.loser.tolist() == [32767, 1]

    def test_read_rejects_a_record_that_is_not_an_object(self, tmp_path):
        for bad in ("[1, 2, 3]", '"user"', "null"):
            assert_rejected(tmp_path, bad, "record is not a JSON object")

    def test_read_rejects_bad_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for meta, rule in (({"M": 3}, "meta has no 'Q'"),
                           ({"Q": 5, "N": 1}, "meta has no 'M'"),
                           ([5, 3], "meta is not a JSON object"),
                           ({"Q": 5.0, "M": 3}, "meta Q must be a JSON integer"),
                           ({"Q": 5, "M": "3"}, "meta M must be a JSON integer"),
                           ({"Q": 5, "M": 3, "N": 1.5}, "meta N must be a JSON integer"),
                           ({"Q": 5, "M": 3, "N": 0}, "meta N must be at least 1")):
            lines = ["", json.dumps({"meta": meta})] + [record(u, 1, 2) for u in (0, 1, 2)]
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(CorpusError, match=re.escape(f"{path}:2: {rule}")):
                read_corpus(path)

    def test_read_rejects_meta_m_above_the_users(self, tmp_path):
        # users 0..2 only: user 3 and 4 would have no comparisons to split
        meta = json.dumps({"meta": {"Q": 5, "M": 5, "N": None}})
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(["", meta] + [record(u, 1, 2) for u in (0, 1, 2, 2)]) + "\n")
        with pytest.raises(CorpusError,
                           match=re.escape(f"{path}:2: meta M=5 but the largest user id is 2")):
            read_corpus(path)

    def test_read_rejects_meta_n_that_the_records_contradict(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for N, users, user, count in ((5, (0, 0, 1, 1), 0, 2),
                                      (2, (0, 0, 1, 1, 1), 1, 3),
                                      (1, (0, 2, 2), 1, 0)):
            meta = json.dumps({"meta": {"Q": 5, "M": max(users) + 1, "N": N}})
            path.write_text("\n".join(["", meta] + [record(u, 1, 2) for u in users]) + "\n")
            rule = f"{path}:2: meta N={N} but user {user} has {count} records"
            for reader in (read_corpus, reference_read_corpus):
                with pytest.raises(CorpusError, match=f"^{re.escape(rule)}$"):
                    reader(path)
        # the records agree with N
        meta = json.dumps({"meta": {"Q": 5, "M": 2, "N": 2}})
        path.write_text("\n".join([meta] + [record(u, 1, 2) for u in (1, 0, 0, 1)]) + "\n")
        assert read_corpus(path).N == 2

    def test_read_reports_malformed_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        for line, error in (('{"user": 0, "win": 2, "lose": }', "invalid JSON"),
                            ('{"user": 0, "win": 2}', "record has no 'lose' field")):
            path.write_text(CORPUS_META + "\n" + record(0, 1, 2) + "\n" + line + "\n")
            with pytest.raises(ValueError, match=re.escape(f"{path}:3: {error}")):
                read_corpus(path)

    def test_model_round_trip(self, tmp_path):
        for prior in (DirichletPrior(0.7), VertexPrior(probs=(0.3, 0.7)),
                      FixedWeights((0.2, 0.8))):
            model = small_model(prior=prior)
            path = tmp_path / "model.json"
            write_model(model, path, seed=11)
            back = read_model(path)
            assert back.Q == model.Q and back.K == model.K
            for a, b in zip(back.components, model.components):
                assert a.reference.ranking == b.reference.ranking
                assert a.dispersion == b.dispersion
            assert back.prior == model.prior

    def test_priorless_dict_round_trip(self):
        # estimated-model files carry "prior": null; such models load but
        # refuse to generate
        model = small_model()
        obj = model_to_dict(model)
        obj["prior"] = None
        back = model_from_dict(obj)
        assert back.prior is None
        with pytest.raises(ValueError):
            generate(back, M=2, N=4, seed=0)

    def test_bad_pair_dist_entry_is_named(self):
        comp = MallowsComponent(Permutation.identity(3), 0.2)
        obj = model_to_dict(MixedMembershipModel([comp], DirichletPrior(1.0),
                                                 pair_probs=np.array([0.5, 0.25, 0.25])))
        for entry in ([1, 1, 1.0], [0, 2, 1.0], [2, 4, 1.0], [1.5, 2, 1.0]):
            obj["pair_dist"] = [entry]
            with pytest.raises(ValueError, match=re.escape(
                    f"pair_dist entry {entry} must name two distinct items in 1..3")):
                model_from_dict(obj)

    def test_pair_named_twice_is_refused(self, tmp_path):
        # a later entry would overwrite the earlier one: these entries list
        # 1.3 of mass, yet would load as [0.5, 0.5, 0.0]
        comp = MallowsComponent(Permutation.identity(3), 0.2)
        obj = model_to_dict(MixedMembershipModel([comp], DirichletPrior(1.0)))
        path = tmp_path / "model.json"
        for repeat in ([1, 2, 0.5], [2, 1, 0.5]):
            obj["pair_dist"] = [[1, 2, 0.3], repeat, [1, 3, 0.5], [2, 3, 0.0]]
            path.write_text(json.dumps(obj))
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: pair_dist entry {repeat} repeats the pair (1, 2)")):
                read_model(path)
        obj["pair_dist"] = [[2, 1, 0.5], [1, 3, 0.5], [2, 3, 0.0]]
        path.write_text(json.dumps(obj))
        assert read_model(path).pair_probs.tolist() == [0.5, 0.5, 0.0]

    def test_model_values_are_checked_not_converted(self):
        obj = model_to_dict(small_model(prior=VertexPrior((0.4, 0.6))))
        for edit, message in (
                (lambda o: o["components"][1]["ranking"].__setitem__(0, 1.7),
                 "component 1 ranking entry must be a JSON integer, got 1.7"),
                (lambda o: o["components"][0]["ranking"].__setitem__(2, "3"),
                 "component 0 ranking entry must be a JSON integer, got '3'"),
                (lambda o: o["components"][0]["ranking"].__setitem__(0, True),
                 "component 0 ranking entry must be a JSON integer, got True"),
                (lambda o: o["components"][0].__setitem__("phi", "0.3"),
                 "component 0 phi must be a JSON number, got '0.3'"),
                (lambda o: o["components"][1].__setitem__("phi", False),
                 "component 1 phi must be a JSON number, got False"),
                (lambda o: o.__setitem__("Q", 4.0), "Q must be a JSON integer, got 4.0"),
                (lambda o: o.__setitem__("K", "2"), "K must be a JSON integer, got '2'"),
                (lambda o: o["prior"].__setitem__("probs", [0.4, "0.6"]),
                 "prior probs entry must be a JSON number, got '0.6'")):
            bad = json.loads(json.dumps(obj))
            edit(bad)
            with pytest.raises(ValueError, match=re.escape(message)):
                model_from_dict(bad)
        model_from_dict(obj)

    def test_prior_length_must_match_k(self):
        obj = model_to_dict(small_model(K=2))
        obj["prior"] = {"type": "vertex", "probs": [0.2, 0.3, 0.5]}
        with pytest.raises(ValueError, match="class probabilities do not match K"):
            model_from_dict(obj)
        with pytest.raises(ValueError, match="weights do not match K"):
            MixedMembershipModel(small_model(K=2).components, FixedWeights((1.0,)))

    def test_read_model_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        obj = model_to_dict(small_model())
        obj["components"][0]["phi"] = "0.3"
        for text, message in (("{bad", "Expecting property name enclosed in double quotes"),
                              (json.dumps(obj), "component 0 phi must be a JSON number")):
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
                read_model(path)

    def test_model_dict_round_trip_preserves_pair_probs(self):
        comp = MallowsComponent(Permutation.identity(3), 0.2)
        probs = np.array([0.5, 0.25, 0.25])
        model = MixedMembershipModel([comp], DirichletPrior(1.0), pair_probs=probs)
        back = model_from_dict(model_to_dict(model))
        assert np.allclose(back.pair_probs, probs)


def reference_read_corpus(path):
    """The per-line reader that ``read_corpus`` replaced: one JSON decode
    per line into three Python lists, the JSON-integer and 64-bit rules
    checked on each line as it is decoded, and the other rules over all
    records, on int64 ids: the corpus limits first, then
    ``ComparisonCorpus``'s."""
    users, wins, loses = [], [], []
    meta = None
    meta_line = 0
    skipped = []  # file lines that hold no record: blank and meta
    decode = json.JSONDecoder().decode
    with open(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    skipped.append(lineno)
                    continue
                if meta is None and users == [] and '"meta"' in line:
                    obj = decode(line)
                    if "meta" in obj:
                        meta = obj["meta"]
                        meta_line = lineno
                        skipped.append(lineno)
                        rule = generator._meta_rule(meta)
                        if rule:
                            raise CorpusError(f"{path}:{lineno}: {rule}")
                        continue
                obj = decode(line)
                ids = obj["user"], obj["win"], obj["lose"]
                if any(type(v) is not int for v in ids):
                    raise CorpusError(f"{path}:{lineno}: user, win and lose must be JSON integers")
                if not all(-2**63 <= v < 2**63 for v in ids):
                    raise CorpusError(f"{path}:{lineno}: user, win and lose must fit in 64 bits")
                users.append(ids[0])
                wins.append(ids[1])
                loses.append(ids[2])
        except json.JSONDecodeError as exc:
            raise CorpusError(
                f"{path}:{lineno}: invalid JSON: {exc.msg} (column {exc.colno})") from None
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: record has no {exc.args[0]!r} field") from None
        except TypeError:
            raise CorpusError(f"{path}:{lineno}: record is not a JSON object") from None
    if not users:
        raise ValueError(f"no comparison records in {path}")

    def broken_record(record, rule):
        line = record + 1
        for s in skipped:
            if s > line:
                break
            line += 1
        return CorpusError(f"{path}:{line}: {rule}")

    user, winner, loser = (np.asarray(ids, dtype=np.int64) for ids in (users, wins, loses))
    past = [(int(np.argmax(ids > largest)), rule)
            for ids, largest, rule in ((user, MAX_USERS - 1, USER_LIMIT),
                                       (winner, MAX_ITEMS, ITEM_LIMIT),
                                       (loser, MAX_ITEMS, ITEM_LIMIT))
            if (ids > largest).any()]
    if past:
        raise broken_record(*min(past))
    if meta is not None:
        Q, M, N = meta["Q"], meta["M"], meta.get("N")
    else:
        Q = int(max(winner.max(), loser.max()))
        M = int(user.max()) + 1
        N = None
    try:
        corpus = ComparisonCorpus(Q, M, user, winner, loser, N=N)
    except RecordError as exc:
        raise broken_record(exc.record, exc.rule) from None
    if meta is not None and M > user.max() + 1:
        raise CorpusError(
            f"{path}:{meta_line}: meta M={M} but the largest user id is {int(user.max())}")
    if N is not None:
        counts = np.bincount(user, minlength=M)
        off = np.flatnonzero(counts != N)
        if off.size:
            raise CorpusError(f"{path}:{meta_line}: meta N={N} but user {off[0]} has "
                              f"{counts[off[0]]} records")
    return corpus


def read_outcome(reader, path):
    """A reader's corpus fields, or the type and message of its error."""
    try:
        corpus = reader(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return corpus.Q, corpus.M, corpus.N, corpus.user, corpus.winner, corpus.loser


# the documented stored types of a corpus's user, winner and loser ids
CORPUS_DTYPES = (np.int32, np.int16, np.int16)


def assert_same_outcome(got, want):
    assert len(got) == len(want) and got[:-3] == want[:-3], (got, want)
    for a, b, dtype in zip(got[-3:], want[-3:], CORPUS_DTYPES):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype == dtype and np.array_equal(a, b), (got, want)
        else:
            assert a == b, (got, want)


FIELDS = ("user", "win", "lose")
WRITER_FORM = generator._RECORD.rstrip("\n").replace("%d", "%s")  # of id texts
PADS = st.sampled_from(["", "", "", " ", "\t", "\x0c", "\x85", "\u2028"])
ODD_IDS = st.sampled_from([
    "-0", "-1", "01", "00", "+1", "1.0", "1e2", "-", "1-2", "--1", "true", '"3"', "null",
    "1" * 18, "9" * 18, "1" * 19, "1" * 20,
    str(2**63 - 1), str(2**63), str(-2**63), str(-2**63 - 1),
    # at and past the corpus limits, and past the stored types' least values
    "32767", "32768", "65537", str(2**31 - 2), str(2**31 - 1), str(2**32), "-32769",
    str(-2**31 - 1)])


@st.composite
def record_lines(draw, ids):
    """A JSON object line holding the id texts ``ids``: in the writer's form,
    or in another form the JSON decoder reads the same way."""
    kind = draw(st.sampled_from(["writer"] * 4 + ["padded", "order", "spaces", "extra",
                                                  "duplicate", "escaped"]))
    if kind == "writer":
        return WRITER_FORM % tuple(ids)
    if kind == "padded":
        return draw(PADS) + WRITER_FORM % tuple(ids) + draw(PADS)
    keys = list(FIELDS)
    colon, comma = ": ", ", "
    if kind == "order":
        keys = draw(st.permutations(keys))
    elif kind == "spaces":
        colon = draw(st.sampled_from([":", " : ", ":\t", ":  "]))
        comma = draw(st.sampled_from([",", " , ", ",\t", ",  "]))
    fields = [f'"{k}"{colon}{ids[FIELDS.index(k)]}' for k in keys]
    if kind == "extra":
        fields.insert(draw(st.integers(0, 3)), '"note": "é€"')
    elif kind == "duplicate":  # the decoder keeps the last of duplicate keys
        k = draw(st.integers(0, 2))
        fields.insert(k, f'"{keys[k]}": 4')
    elif kind == "escaped":
        fields[keys.index("user")] = f'"\\u0075ser"{colon}{ids[0]}'
    return "{" + comma.join(fields) + "}"


# lines that break a rule, or are read another way than they look
ODD_LINES = st.one_of(
    st.tuples(st.integers(0, 2), ODD_IDS).map(
        lambda odd: WRITER_FORM % tuple(
            odd[1] if j == odd[0] else 2 + j for j in range(3))),
    st.sampled_from([  # meta lines, which count only before the first record
        json.dumps({"meta": {"Q": 6, "M": 1}}), json.dumps({"meta": {"Q": 6.0, "M": 1}}),
        json.dumps({"meta": [6, 1]}), '{"meta" : {"Q": 6, "M": 5}}']),
    st.sampled_from([
        '{"lose": 1, "win": 2, "user": 3}', '{"user": 1, "win": 2, "lost": 3}',
        '{"usex": 1, "win": 2, "lose": 3}', '{"user": 1; "win": 2, "lose": 3}',
        '{"user": 1, "win": 2, "lose": 3}}', '{"user": 1, "win": 2, "lose": 3} x',
        '{"user": 1, "win": 2}', '{"user": 1, "win": 2, "lose": 2}',
        '{"user": 0, "win": 2, "lose": }', "{", "é", "[1, 2, 3]", '"user"', "null", "3",
        '["meta"]', '"meta"']))
ENDINGS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
AFTER_RECORD = '%s\n{"meta": {"Q": 6, "M": 1}}\n{"user": 0, "win": 2, "lose": 3}\n'


@st.composite
def corpus_texts(draw):
    """File text of valid records in every form, blank lines and a meta
    line, with up to two odd lines, joined by any line ending, with or
    without a final one."""
    records = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6), st.integers(1, 5)),
                            min_size=1, max_size=12))
    records = [(u, w, l + (l >= w)) for u, w, l in records]  # any loser but the winner
    lines = [draw(record_lines(list(map(str, r)))) for r in records]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(PADS))
    if draw(st.booleans()):
        meta = {"Q": 6, "M": max(u for u, _, _ in records) + 1, "N": draw(st.sampled_from(
            [None, 3]))}
        lines.insert(draw(st.integers(0, 1)) if lines[0].strip() == "" else 0,
                     json.dumps({"meta": meta}))
    for _ in range(draw(st.integers(0, 2))):  # often near the start, where meta counts
        at = draw(st.one_of(st.integers(0, min(2, len(lines))), st.integers(0, len(lines))))
        lines.insert(at, draw(ODD_LINES))
    text = "".join(line + draw(ENDINGS) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestBulkReader:
    """``read_corpus`` against ``reference_read_corpus``, the per-line reader
    it replaced: the same corpus, or the same error type and message."""

    @settings(max_examples=400, deadline=None)
    @given(text=corpus_texts(), block=st.one_of(st.integers(1, 64), st.integers(65, 1000)))
    # a meta line after a record is a record without fields: after a record
    # in the writer's form, after a decoded one, and in a later block
    @example(text=AFTER_RECORD % WRITER_FORM % (1, 2, 3), block=1000)
    @example(text=AFTER_RECORD % '{"win": 2, "user": 1, "lose": 3}', block=1000)
    @example(text=AFTER_RECORD % WRITER_FORM % (1, 2, 3), block=40)
    def test_matches_the_per_line_reader(self, tmp_path_factory, text, block):
        path = tmp_path_factory.mktemp("reader") / "corpus.jsonl"
        with open(path, "w", newline="") as fh:  # line endings as drawn
            fh.write(text)
        want = read_outcome(reference_read_corpus, path)
        with mock.patch.object(generator, "_READ_BLOCK", block):  # blocks end mid-line
            got = read_outcome(read_corpus, path)
        assert_same_outcome(got, want)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), Q=st.integers(2, 60), n=st.integers(1, 300),
           block=st.sampled_from([7, 64, 1000, generator._READ_BLOCK]))
    def test_reads_written_corpora_without_the_decoder(self, tmp_path_factory, seed, Q, n,
                                                       block):
        rng = np.random.default_rng(seed)
        user = rng.integers(0, 10**6 + 1, n)
        winner = rng.integers(1, Q + 1, n)
        loser = (winner + rng.integers(0, Q - 1, n)) % Q + 1  # any item but the winner
        corpus = ComparisonCorpus(Q, int(user.max()) + 1, user, winner, loser)
        path = tmp_path_factory.mktemp("written") / "corpus.jsonl"
        with mock.patch.object(generator, "_WRITE_CHUNK", 7):  # blocks end mid-corpus
            write_corpus(corpus, path)
        calls = []
        decode = json.JSONDecoder.decode

        def spy(self, text):
            calls.append(text)
            return decode(self, text)

        with mock.patch.object(json.JSONDecoder, "decode", spy), \
                mock.patch.object(generator, "_READ_BLOCK", block):
            back = read_corpus(path)
        assert len(calls) == 1 and calls[0].startswith('{"meta"')
        assert (back.Q, back.M, back.N) == (Q, corpus.M, None)
        for a, b, dtype in zip((back.user, back.winner, back.loser), (user, winner, loser),
                               CORPUS_DTYPES):
            assert a.dtype == dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("block", [16, generator._READ_BLOCK])
    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_invalid_utf8_names_the_line(self, tmp_path, monkeypatch, block, ending):
        monkeypatch.setattr(generator, "_READ_BLOCK", block)  # the line in a later block
        lines = [b'{"meta": {"Q": 4, "M": 2}}', (WRITER_FORM % (0, 1, 2)).encode(),
                 '{"user": 1, "win": 3, "lose": 4, "note": "\u00e9"}'.encode(),
                 b'{"user": 1, "win": 2, "lose": 3, "note": "\xff"}',
                 (WRITER_FORM % (1, 4, 1)).encode()]
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(ending.join(lines) + ending)
        with pytest.raises(CorpusError) as info:
            read_corpus(path)
        assert str(info.value) == f"{path}:4: line is not valid UTF-8"
        del lines[3]  # the rest, "\u00e9" included, reads
        path.write_bytes(ending.join(lines) + ending)
        back = read_corpus(path)
        assert back.user.tolist() == [0, 1, 1] and back.winner.tolist() == [1, 3, 4]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe(self, tmp_path, monkeypatch):
        # a pipe has no size to bound the record count by, so the id
        # buffers grow as blocks arrive
        corpus, _ = generate(small_model(), M=50, N=40, seed=1)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()),
                                  daemon=True)
        writer.start()
        monkeypatch.setattr(generator, "_READ_BLOCK", 1000)
        back = read_corpus(pipe)
        writer.join(timeout=10)
        assert not writer.is_alive()
        for a, b in ((back.user, corpus.user), (back.winner, corpus.winner),
                     (back.loser, corpus.loser)):
            assert np.array_equal(a, b)

    def test_peak_memory_below_the_per_line_reader(self, tmp_path):
        model = small_model(Q=20, K=3)
        corpus, _ = generate(model, M=1000, N=200, seed=3)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        peaks = []
        for reader in (reference_read_corpus, read_corpus):
            tracemalloc.start()
            try:
                reader(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 0.8 * peaks[0], peaks


@st.composite
def sampler_models(draw):
    """A model with 1-4 components on 2-8 items, any of the three priors,
    and a uniform, non-uniform or partly zero pair distribution."""
    Q, K = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = [MallowsComponent(Permutation.from_ranking((rng.permutation(Q) + 1).tolist()),
                              draw(st.sampled_from([0.0, 0.3, 0.9]))) for _ in range(K)]
    probs = tuple(rng.dirichlet(np.ones(K)))
    prior = draw(st.sampled_from([DirichletPrior(0.1), DirichletPrior(2.0), VertexPrior(probs),
                                  FixedWeights(probs)]))
    pair_probs = None
    if draw(st.booleans()):
        pair_probs = rng.dirichlet(np.ones(pairs.num_unordered(Q)))
        if draw(st.booleans()):
            pair_probs[rng.random(pair_probs.size) < 0.5] = 0.0
            pair_probs = pair_probs / pair_probs.sum() if pair_probs.any() else None
    return MixedMembershipModel(comps, prior, pair_probs)


class TestBlockSampler:
    """``generate`` against ``reference_generate``, the per-user sampler it
    replaced: the same records and weights, bit for bit; and
    ``generate_corpus_file`` against ``generate`` and ``write_corpus``."""

    @settings(max_examples=200, deadline=None)
    @given(model=sampler_models(), M=st.integers(1, 40), N=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 64))
    def test_matches_the_per_user_sampler(self, model, M, N, seed, chunk):
        want, want_thetas, _ = reference_generate(model, M, N, seed)
        # a block holds one user, several, or fewer records than N
        with mock.patch.object(generator, "_WRITE_CHUNK", chunk):
            got, thetas = generate(model, M, N, seed)
        for a, b in ((got.user, want.user), (got.winner, want.winner),
                     (got.loser, want.loser), (thetas, want_thetas)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (got.N, got.M) == (want.N, want.M) == (N, M)

    @settings(max_examples=50, deadline=None)
    @given(model=sampler_models(), M=st.integers(1, 40), N=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 64))
    def test_file_is_that_of_generate_and_write_corpus(self, tmp_path_factory, model, M, N,
                                                       seed, chunk):
        d = tmp_path_factory.mktemp("stream")
        want = d / "want.jsonl"
        corpus, want_thetas = generate(model, M, N, seed)
        write_corpus(corpus, want, {"seed": seed})
        with mock.patch.object(generator, "_WRITE_CHUNK", chunk):
            thetas = generate_corpus_file(d / "got.jsonl", model, M, N, seed, {"seed": seed})
        assert (d / "got.jsonl").read_bytes() == want.read_bytes()
        assert thetas.dtype == want_thetas.dtype and np.array_equal(thetas, want_thetas)


def reference_write_corpus(corpus, path, meta_extra=None):
    """The writer that ``write_corpus`` replaced: ``_RECORD`` formatting of
    one Python record at a time, joined into one string for the file."""
    meta = {"Q": corpus.Q, "M": corpus.M, "N": corpus.N}
    if meta_extra:
        meta.update(meta_extra)
    parts = [json.dumps({"meta": meta}) + "\n"]
    for start in range(0, corpus.n_records, generator._WRITE_CHUNK):
        block = slice(start, start + generator._WRITE_CHUNK)
        parts.append("".join(
            generator._RECORD % record
            for record in zip(corpus.user[block].tolist(), corpus.winner[block].tolist(),
                              corpus.loser[block].tolist())
        ))
    generator.atomic_write_text(path, "".join(parts))


# every digit-count boundary of a nonnegative int64, and its largest value
DIGIT_EDGES = [0, 1, 2**63 - 1] + [10**k + d for k in range(1, 19) for d in (-1, 0)]
IDS = st.one_of(st.sampled_from(DIGIT_EDGES), st.integers(0, 2**63 - 1),
                st.integers(10**18, 2**63 - 1), st.integers(0, MAX_ITEMS))
ID_RECORDS = st.lists(st.tuples(IDS, IDS.filter(bool), IDS.filter(bool)).filter(
    lambda r: r[1] != r[2]), max_size=20)


class TestBlockWriter:
    @settings(max_examples=200, deadline=None)
    @given(records=ID_RECORDS, chunk=st.integers(1, 7))
    @example(records=[], chunk=3)  # the meta line only
    @example(records=[(e, max(e, 1), 2 if e <= 1 else 1) for e in DIGIT_EDGES]
             + [(0, 2 if e <= 1 else 1, max(e, 1)) for e in DIGIT_EDGES], chunk=5)
    # the same edges, as far as the corpus limits let a corpus hold them
    @example(records=[(e, max(e, 1), 2 if e <= 1 else 1) for e in DIGIT_EDGES if e <= MAX_ITEMS]
             + [(e, 1, 2) for e in DIGIT_EDGES if e < MAX_USERS], chunk=5)
    def test_matches_record_formatting(self, tmp_path_factory, records, chunk):
        # the formatter, on int64 columns a chunk of records at a time,
        # lays out ids of every size up to 2**63 - 1
        columns = [np.array([r[j] for r in records], dtype=np.int64) for j in range(3)]
        lines = b"".join(generator._record_bytes(*(ids[lo:lo + chunk] for ids in columns))
                         .tobytes() for lo in range(0, len(records), chunk))
        assert lines == "".join(generator._RECORD % r for r in records).encode()
        # write_corpus and read_corpus carry the records a corpus can hold
        records = [r for r in records if r[0] < MAX_USERS and max(r[1:]) <= MAX_ITEMS]
        Q = max((max(w, l) for _, w, l in records), default=2)
        M = max((u for u, _, _ in records), default=0) + 1
        columns = [np.array([r[j] for r in records], dtype=np.int64) for j in range(3)]
        corpus = ComparisonCorpus(Q, M, *columns)
        path = tmp_path_factory.mktemp("writer") / "corpus.jsonl"
        with mock.patch.object(generator, "_WRITE_CHUNK", chunk):  # blocks end mid-corpus
            write_corpus(corpus, path)
        meta = json.dumps({"meta": {"Q": Q, "M": M, "N": None}}) + "\n"
        assert path.read_bytes() == (meta + "".join(generator._RECORD % r for r in records)).encode()
        if records:
            back = read_corpus(path)
            assert (back.Q, back.M, back.N) == (Q, M, None)
            for a, b, dtype in zip((back.user, back.winner, back.loser), columns, CORPUS_DTYPES):
                assert a.dtype == dtype and np.array_equal(a, b)

    def test_peak_memory_below_the_single_string_writer(self, tmp_path):
        # the old writer's peak grows with the corpus, the new one's with a block
        corpus, _ = generate(small_model(Q=20, K=3), M=2000, N=200, seed=3)
        paths = [tmp_path / "reference.jsonl", tmp_path / "corpus.jsonl"]
        peaks = []
        for writer, path in zip((reference_write_corpus, write_corpus), paths):
            tracemalloc.start()
            try:
                writer(corpus, path, {"seed": 3})
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert peaks[1] <= 0.25 * peaks[0], peaks

    def test_atomic_write_errors_name_the_path(self, tmp_path):
        # mkstemp fails in a missing folder, os.replace onto a folder
        for path, error in ((tmp_path / "missing" / "out.json", FileNotFoundError),
                            (tmp_path / "folder", IsADirectoryError)):
            (tmp_path / "folder").mkdir(exist_ok=True)
            with pytest.raises(error) as info:
                atomic_write(path, [b"bytes\n"])
            assert info.value.filename == str(path) and info.value.filename2 is None
            assert str(info.value).endswith(f": {str(path)!r}")
            assert os.listdir(tmp_path) == ["folder"] and os.listdir(tmp_path / "folder") == []

    def test_atomic_write_keeps_the_target_when_a_block_fails(self, tmp_path):
        def blocks():
            yield b"new bytes\n"
            raise RuntimeError("block failed")

        path = tmp_path / "out.jsonl"
        for old in (None, b"old bytes\n"):
            if old is not None:
                path.write_bytes(old)
            with pytest.raises(RuntimeError, match="block failed"):
                atomic_write(path, blocks())
            assert (path.read_bytes() if path.exists() else None) == old
            # no temporary file is left beside the target
            assert os.listdir(tmp_path) == ([] if old is None else ["out.jsonl"])

    def test_atomic_write_gives_a_new_file_the_mode_of_open(self, tmp_path):
        # mkstemp makes its file 0600; open(path, "w") gives 0666 less the umask
        old = os.umask(0o022)
        try:
            atomic_write(tmp_path / "new.json", [b"bytes\n"])
            with open(tmp_path / "opened.json", "w") as fh:
                fh.write("bytes\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "new.json").st_mode) == 0o644
        assert os.stat(tmp_path / "opened.json").st_mode == os.stat(tmp_path / "new.json").st_mode

    def test_atomic_write_keeps_an_existing_file_mode(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"old bytes\n")
        os.chmod(path, 0o640)
        atomic_write(path, [b"new bytes\n"])
        assert path.read_bytes() == b"new bytes\n"
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_atomic_write_refuses_a_path_that_is_not_a_regular_file(self, tmp_path):
        # the rename would put a regular file in the FIFO's place; opening
        # the FIFO for writing would wait for a reader
        path = tmp_path / "fifo"
        os.mkfifo(path)
        with mock.patch.object(generator.tempfile, "mkstemp",
                               side_effect=AssertionError("a temporary file was made")):
            with pytest.raises(OSError) as info:
                atomic_write(path, [b"bytes\n"])
        assert info.value.filename == str(path)
        assert str(info.value) == f"[Errno 22] not a regular file: {str(path)!r}"
        assert stat.S_ISFIFO(os.stat(path).st_mode)
        assert os.listdir(tmp_path) == ["fifo"]
