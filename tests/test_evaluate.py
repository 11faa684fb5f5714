"""Recovery scoring, per-user weight inference, held-out prediction."""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mallowmix import evaluate, pairs
from mallowmix.evaluate import align_and_score, em_summary, infer_weights, predict_loglik
from mallowmix.generator import (
    USER_LIMIT,
    ComparisonCorpus,
    DirichletPrior,
    FixedWeights,
    MixedMembershipModel,
    generate,
)
from mallowmix.mallows import (
    MallowsComponent,
    gap_marginals,
    marginal_table,
    reverse_marginal_table,
)
from mallowmix.moments import split_halves
from mallowmix.permutations import Permutation
from mallowmix.post import postprocess
from test_generator import reference_generate
from test_post import exact_estimate
from test_moments import count_halves, int64_rows, wide_key_corpus


def model_of(rankings, phis, prior=None):
    comps = [MallowsComponent(Permutation.from_ranking(r), p)
             for r, p in zip(rankings, phis)]
    return MixedMembershipModel(comps, prior or DirichletPrior(0.5))


class TestAlignAndScore:
    def test_identical_models_score_zero(self):
        model = model_of([[1, 2, 3], [3, 2, 1]], [0.2, 0.4])
        report = align_and_score(model, model)
        assert report.normalized_error == 0.0
        assert report.per_component_kendall == [0, 0]
        assert report.dispersion_abs_errors == [0.0, 0.0]
        assert report.matching == [0, 1]

    def test_swapped_components_still_score_zero(self):
        truth = model_of([[1, 2, 3], [3, 2, 1]], [0.2, 0.4])
        swapped = model_of([[3, 2, 1], [1, 2, 3]], [0.4, 0.2])
        report = align_and_score(truth, swapped)
        assert report.normalized_error == 0.0
        assert report.matching == [1, 0]
        assert report.dispersion_abs_errors == [0.0, 0.0]

    def test_one_adjacent_swap(self):
        truth = model_of([[1, 2, 3]], [0.1])
        est = model_of([[2, 1, 3]], [0.1])
        report = align_and_score(truth, est)
        assert report.per_component_kendall == [1]
        # one of six ordered pairs is wrong
        assert report.normalized_error == pytest.approx(1 / 6)

    def test_reversal_scores_one_half(self):
        truth = model_of([[1, 2, 3, 4]], [0.0])
        est = model_of([[4, 3, 2, 1]], [0.3])
        report = align_and_score(truth, est)
        assert report.normalized_error == pytest.approx(0.5)
        assert report.dispersion_abs_errors == [pytest.approx(0.3)]

    def test_accepts_estimated_models(self):
        model = model_of([[2, 4, 1, 3], [4, 3, 2, 1]], [0.3, 0.3])
        est = postprocess(exact_estimate(model))
        report = align_and_score(model, est)
        assert report.normalized_error == 0.0
        assert max(report.dispersion_abs_errors) < 1e-9

    def test_shape_mismatches(self):
        with pytest.raises(ValueError, match="component count"):
            align_and_score(model_of([[1, 2]], [0.1]),
                            model_of([[1, 2], [2, 1]], [0.1, 0.1]))
        with pytest.raises(ValueError, match="item count"):
            align_and_score(model_of([[1, 2]], [0.1]),
                            model_of([[1, 2, 3]], [0.1]))

    def test_matching_minimizes_total_distance(self):
        # both truths are closest to the same estimate; the matching must
        # stay a bijection and minimize the total distance (here two
        # assignments tie at 2, so only the total is pinned down)
        truth = model_of([[1, 2, 3, 4], [2, 1, 3, 4]], [0.1, 0.1])
        est = model_of([[1, 2, 4, 3], [1, 2, 3, 4]], [0.1, 0.1])
        report = align_and_score(truth, est)
        assert sorted(report.matching) == [0, 1]
        assert sum(report.per_component_kendall) == 2
        assert report.normalized_error == pytest.approx(2 / 2 / 12)


class TestInferWeights:
    def test_single_component_is_degenerate(self):
        model = model_of([[1, 2, 3]], [0.4], prior=FixedWeights((1.0,)))
        corpus, _ = generate(model, M=8, N=6, seed=1)
        theta = infer_weights(corpus, model.observation_matrix())
        assert theta.shape == (8, 1)
        assert np.all(theta == 1.0)

    def test_disjoint_supports_recover_label_fractions(self):
        # opposed references at dispersion zero: every record identifies
        # its component, so the weights are the per-user label fractions
        model = model_of([[1, 2, 3], [3, 2, 1]], [0.0, 0.0])
        corpus, _, labels = reference_generate(model, M=50, N=20, seed=3)
        theta = infer_weights(corpus, model.observation_matrix())
        for u in range(50):
            frac = np.bincount(labels[corpus.user == u], minlength=2) / 20
            assert np.allclose(theta[u], frac, atol=1e-9)

    def test_matches_grid_search_on_two_outcomes(self):
        # two items, one user: the likelihood is a 1-d function of the
        # weight on the first component, maximized by direct search
        B = np.array([[0.8, 0.2], [0.2, 0.8]])
        records = [(0, 1, 2)] * 3 + [(0, 2, 1)]
        u, w, l = (np.array(c) for c in zip(*records))
        corpus = ComparisonCorpus(Q=2, M=1, user=u, winner=w, loser=l)
        theta = infer_weights(corpus, B, tol=1e-12)

        grid = np.linspace(0.0, 1.0, 100_001)
        ll = 3 * np.log(0.8 * grid + 0.2 * (1 - grid)) + \
            np.log(0.2 * grid + 0.8 * (1 - grid))
        best = grid[np.argmax(ll)]
        assert best == pytest.approx(11 / 12, abs=1e-4)
        assert theta[0, 0] == pytest.approx(best, abs=1e-3)

    def test_balanced_outcomes_stay_at_barycenter(self):
        B = np.array([[0.8, 0.2], [0.2, 0.8]])
        records = [(0, 1, 2), (0, 2, 1)]
        u, w, l = (np.array(c) for c in zip(*records))
        corpus = ComparisonCorpus(Q=2, M=1, user=u, winner=w, loser=l)
        theta = infer_weights(corpus, B)
        assert np.allclose(theta, 0.5)

    def test_loglik_trace_never_decreases(self):
        model = model_of([[4, 2, 3, 1], [1, 3, 2, 4]], [0.3, 0.2])
        corpus, _ = generate(model, M=30, N=10, seed=5)
        theta, history = infer_weights(corpus, model.observation_matrix(), trace=True)
        assert np.all(np.diff(history) >= -1e-9)
        assert np.allclose(theta.sum(axis=1), 1.0)
        assert np.all(theta >= 0)

    def test_likelihood_decrease_is_an_error(self, monkeypatch):
        # A cycle that ends at the swapped weights hands each component's
        # weight to the other, which lowers the (concave) likelihood; the
        # loop must stop with an error naming the iteration, not run on.
        B = np.array([[0.8, 0.2], [0.2, 0.8]])
        records = [(0, 1, 2)] * 3 + [(0, 2, 1)]
        u, w, l = (np.array(c) for c in zip(*records))
        corpus = ComparisonCorpus(Q=2, M=1, user=u, winner=w, loser=l)

        def swapped(theta0, theta1, theta2):
            return theta2[::-1].copy(), np.zeros(theta2.shape[1], dtype=bool)

        monkeypatch.setattr(evaluate, "_squarem_point", swapped)
        with pytest.raises(RuntimeError, match="decreased at iteration 2"):
            infer_weights(corpus, B)

    def test_bad_max_iter_and_tol(self):
        B = np.array([[0.8, 0.2], [0.2, 0.8]])
        corpus = ComparisonCorpus(Q=2, M=1, user=np.array([0, 0]),
                                  winner=np.array([1, 2]), loser=np.array([2, 1]))
        for max_iter in (0, -3):
            with pytest.raises(ValueError, match="max_iter must be at least 1"):
                infer_weights(corpus, B, max_iter=max_iter)
        for tol in (-1.0, math.nan):
            with pytest.raises(ValueError, match="tol must be a non-negative number"):
                infer_weights(corpus, B, tol=tol)

    def test_stopping_at_max_iter_warns(self):
        model = model_of([[4, 2, 3, 1], [1, 3, 2, 4]], [0.3, 0.2])
        corpus, _ = generate(model, M=30, N=10, seed=5)
        with pytest.warns(RuntimeWarning, match=r"max_iter=1 .*change inf"):
            theta = infer_weights(corpus, model.observation_matrix(), max_iter=1)
        with pytest.warns(RuntimeWarning, match=r"max_iter=2 .*change \d\.\d{3}e"):
            _, history = infer_weights(corpus, model.observation_matrix(), max_iter=2,
                                        trace=True)
        assert theta.shape == (30, 2) and len(history) == 2
        iterations, converged, change = em_summary(history)
        assert (iterations, converged) == (2, False)
        assert change == abs(history[1] - history[0]) / (1 + abs(history[1])) > 1e-8
        assert em_summary(history[:1]) == (1, False, math.inf)

    def test_converged_run_does_not_warn(self):
        model = model_of([[4, 2, 3, 1], [1, 3, 2, 4]], [0.3, 0.2])
        corpus, _ = generate(model, M=30, N=10, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, history = infer_weights(corpus, model.observation_matrix(), trace=True)
        iterations, converged, change = em_summary(history)
        assert iterations == len(history) > 2 and converged and change <= 1e-8

    def test_user_without_records_keeps_barycenter(self):
        B = np.array([[0.8, 0.2], [0.2, 0.8]])
        corpus = ComparisonCorpus(Q=2, M=3, user=np.array([0, 2]),
                                  winner=np.array([1, 1]), loser=np.array([2, 2]))
        theta = infer_weights(corpus, B)
        assert np.allclose(theta[1], 0.5)
        assert theta[0, 0] > 0.9

    def test_zero_probability_comparison_is_named(self):
        B = np.array([[1.0], [0.0]])
        corpus = ComparisonCorpus(Q=2, M=1, user=np.array([0, 0]),
                                  winner=np.array([1, 2]), loser=np.array([2, 1]))
        with pytest.raises(ValueError, match=r"comparison \(2, 1\)"):
            infer_weights(corpus, B)

    def test_first_dead_record_in_corpus_order_is_named(self):
        # rows 4 and 1 have probability zero in every component; row 4
        # first appears late, after 50 records of live rows, and before
        # row 1, so it is the one named
        Q = 3
        B = np.full((pairs.num_pairs(Q), 2), 0.25)
        B[[1, 4]] = 0.0
        rows = np.array([0, 2, 3, 5] * 12 + [0, 2, 4, 5, 1, 3, 4])
        I, J = pairs.pair_arrays(Q)
        corpus = ComparisonCorpus(Q=Q, M=4, user=np.arange(rows.size) % 4,
                                  winner=I[rows], loser=J[rows])
        i, j = pairs.row_pair(4, Q)
        with pytest.raises(ValueError, match=rf"comparison \({i}, {j}\) has zero probability"):
            infer_weights(corpus, B)

    def test_dead_row_is_named_before_an_underflowed_one(self):
        # row (2, 1) is not zero, but half its smallest subnormal entry
        # rounds to zero at the barycenter; the record of row (1, 2), zero
        # in every component, is named although it comes later
        B = np.array([[0.0, 0.0], [5e-324, 0.0]])
        corpus = ComparisonCorpus(Q=2, M=1, user=np.array([0, 0]),
                                  winner=np.array([2, 1]), loser=np.array([1, 2]))
        with pytest.raises(ValueError, match=r"^comparison \(1, 2\) has zero probability "
                                             r"in every component$"):
            infer_weights(corpus, B)
        # with no dead row left, the underflowed record is named as such
        with pytest.raises(ValueError, match=r"^comparison \(2, 1\): the record's mixture "
                                             r"probability underflowed to zero at the "
                                             r"current weights$"):
            infer_weights(corpus, B[[1, 1]])

    def test_user_by_row_keys_cannot_wrap(self):
        # user 2**61 times W = 20 pair rows is past int64, so its key would
        # wrap; the corpus limits refuse such a corpus before the EM sees it
        M = 2**61 + 1
        with pytest.raises(ValueError, match=f"^{re.escape(USER_LIMIT)}$"):
            ComparisonCorpus(Q=5, M=M, user=np.array([0, M - 1]),
                             winner=np.array([1, 2]), loser=np.array([2, 1]))

    def test_bad_user_ids(self):
        with pytest.raises(ValueError, match="user ids"):
            ComparisonCorpus(Q=2, M=1, user=np.array([1, 1]),
                             winner=np.array([1, 1]), loser=np.array([2, 2]))


class TestKeysPastInt32:
    """``infer_weights`` and ``predict_loglik`` on ``wide_key_corpus``,
    whose keys user * W + row reach 3.0e9, against references on ids
    widened to int64 here."""

    def test_infer_weights(self):
        corpus = wide_key_corpus()
        W = pairs.num_pairs(corpus.Q)
        B = np.random.default_rng(8).uniform(0.1, 1.0, size=(W, 2))
        # the grouping into (user, pair) entries, from int64 keys
        key, count = np.unique(corpus.user.astype(np.int64) * W + int64_rows(corpus),
                               return_counts=True)
        user, row = np.divmod(key, W)
        starts = np.flatnonzero(np.diff(user, prepend=-1))
        theta, _ = evaluate._weights_em(count.astype(float), row, starts, B.T,
                                        evaluate.EM_TOL, 500, None)
        want = np.full((corpus.M, 2), 0.5)
        want[user[starts]] = theta.T
        assert np.array_equal(infer_weights(corpus, B), want)

    def test_predict_loglik(self):
        corpus = wide_key_corpus()
        rng = np.random.default_rng(9)
        B = rng.uniform(0.1, 1.0, size=(pairs.num_pairs(corpus.Q), 2))
        theta = rng.dirichlet(np.ones(2), corpus.M)
        user, rows = corpus.user.astype(np.int64), int64_rows(corpus)
        p = np.zeros(corpus.n_records)
        for k in range(2):  # in predict_loglik's order, so with its bits
            p += theta[user, k] * B[rows, k]
        got = predict_loglik(corpus, theta, B)
        assert (got.avg_loglik, got.zero_events, got.n) == (
            float(np.mean(np.log(p))), 0, corpus.n_records)


def reference_infer_weights(corpus, B, *, tol=1e-8, max_iter=500, trace=False):
    """Plain EM with records laid out n x K, row sums by ``mix.sum(axis=1)``
    and the M-step by ``np.add.at``: the loop ``infer_weights`` accelerates,
    kept as the oracle it is checked against."""
    K = B.shape[1]
    rows = corpus.pair_rows()
    dead = B[rows].sum(axis=1) == 0
    if dead.any():
        i, j = pairs.row_pair(int(rows[np.argmax(dead)]), corpus.Q)
        raise ValueError(f"comparison ({i}, {j}) has zero probability in every component")
    users = corpus.user
    counts = np.bincount(users, minlength=corpus.M).astype(float)
    occupied = counts > 0
    Bw = B[rows]
    theta = np.full((corpus.M, K), 1.0 / K)
    history = []
    prev_ll = -math.inf
    change = math.inf
    for it in range(1, max_iter + 1):
        mix = theta[users] * Bw
        total = mix.sum(axis=1)
        if np.any(total == 0):
            i, j = pairs.row_pair(int(rows[np.argmax(total == 0)]), corpus.Q)
            raise ValueError(f"comparison ({i}, {j}): the record's mixture probability "
                             f"underflowed to zero at the current weights")
        ll = float(np.log(total).sum())
        if ll < prev_ll - 1e-9 * (1.0 + abs(prev_ll)):
            raise RuntimeError(
                f"EM log-likelihood decreased at iteration {it}: {prev_ll!r} -> {ll!r}")
        history.append(ll)
        resp = mix / total[:, None]
        new = np.zeros_like(theta)
        np.add.at(new, users, resp)
        new[occupied] /= counts[occupied, None]
        new[~occupied] = 1.0 / K
        theta = new
        if prev_ll > -math.inf and abs(ll - prev_ll) <= tol * (1.0 + abs(ll)):
            break
        change = abs(ll - prev_ll) / (1.0 + abs(ll))
        prev_ll = ll
    else:
        warnings.warn(
            f"EM stopped at max_iter={max_iter} without converging; last relative "
            f"log-likelihood change {change:.3e} (tol {tol:.1e})",
            RuntimeWarning, stacklevel=2)
    if trace:
        return theta, history
    return theta


def run_em(fn, corpus, B, **kwargs):
    """What a traced EM run produced: (theta, history) or its error, and
    its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(corpus, B, trace=True, **kwargs)
        except (ValueError, RuntimeError) as exc:
            out = exc
    return out, [str(w.message) for w in caught]


@st.composite
def em_cases(draw):
    """A corpus with unsorted users, possibly users without records, and an
    observation matrix B of 1 to 12 components with entries in [0, 1],
    zeros included."""
    K = draw(st.integers(1, 12))
    Q = draw(st.integers(2, 5))
    M = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    user = np.array(draw(st.lists(st.integers(0, M - 1), min_size=n, max_size=n)))
    winner = np.array(draw(st.lists(st.integers(1, Q), min_size=n, max_size=n)))
    step = np.array(draw(st.lists(st.integers(1, Q - 1), min_size=n, max_size=n)))
    loser = (winner - 1 + step) % Q + 1
    corpus = ComparisonCorpus(Q=Q, M=M, user=user, winner=winner, loser=loser)
    B = draw(arrays(np.float64, (pairs.num_pairs(Q), K), elements=st.floats(0.0, 1.0)))
    return corpus, B


def loglik(corpus, theta, B):
    """Total log-likelihood of the corpus under per-user weights."""
    with np.errstate(divide="ignore"):
        return float(np.log(np.einsum("nk,nk->n", theta[corpus.user],
                                      B[corpus.pair_rows()])).sum())


def check_weights(corpus, B, theta, history):
    """Invariants of every run that returns: a never-decreasing trace (to
    the tolerance the EM itself allows), weights on the simplex, and users
    without records exactly at the barycenter."""
    K = B.shape[1]
    for prev, ll in zip(history, history[1:]):
        assert ll >= prev - 1e-9 * (1.0 + abs(prev)), history
    assert theta.shape == (corpus.M, K)
    assert np.all(theta >= 0)
    np.testing.assert_allclose(theta.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    empty = np.bincount(corpus.user, minlength=corpus.M) == 0
    assert np.all(theta[empty] == 1.0 / K)


def squarem_spy(squarem_point, points):
    """``squarem_point`` that also appends (theta0, point, extrapolated) of
    every call to ``points``."""
    def spy(theta0, theta1, theta2):
        point, extrapolated = squarem_point(theta0, theta1, theta2)
        points.append((theta0.copy(), point.copy(), extrapolated.copy()))
        return point, extrapolated
    return spy


def squarem_outcomes(corpus, B, points):
    """What became of each user's extrapolated point among the spied
    ``points``: "extrapolated" when its likelihood is no lower than at the
    cycle's start, so the EM keeps it, else "fallback" to theta2."""
    seen = set()
    occupied = np.flatnonzero(np.bincount(corpus.user, minlength=corpus.M))
    Bw = B[corpus.pair_rows()]
    for theta0, point, extrapolated in points:
        for col in np.flatnonzero(extrapolated):
            mine = corpus.user == occupied[col]
            with np.errstate(divide="ignore"):
                ll0 = np.log(Bw[mine] @ theta0[:, col]).sum()
                ll = np.log(Bw[mine] @ point[:, col]).sum()
            seen.add("extrapolated" if ll >= ll0 else "fallback")
    return seen


class TestInferWeightsMatchesReference:
    """The SQUAREM EM against ``reference_infer_weights``, the plain EM it
    accelerates: the same errors, weights on the simplex, and a maximum at
    least as high."""

    @settings(max_examples=300, deadline=None)
    @given(case=em_cases(),
           tol=st.sampled_from([1e-8, 1e-12, 0.0]),
           max_iter=st.sampled_from([1, 2, 5, 500]))
    def test_same_errors_and_simplex_weights(self, case, tol, max_iter):
        corpus, B = case
        got, _ = run_em(infer_weights, corpus, B, tol=tol, max_iter=max_iter)
        want, _ = run_em(reference_infer_weights, corpus, B, tol=tol, max_iter=max_iter)
        if isinstance(want, Exception) or isinstance(got, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            return
        check_weights(corpus, B, *got)
        assert len(got[1]) <= max_iter

    @settings(max_examples=300, deadline=None)
    @given(case=em_cases())
    def test_likelihood_no_lower_than_the_reference(self, case):
        corpus, B = case
        got, _ = run_em(infer_weights, corpus, B, tol=1e-12)
        want, _ = run_em(reference_infer_weights, corpus, B, tol=1e-12)
        if isinstance(want, Exception) or isinstance(got, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            return
        check_weights(corpus, B, *got)
        ll, want_ll = loglik(corpus, got[0], B), loglik(corpus, want[0], B)
        assert ll >= want_ll - 1e-9 * (1.0 + abs(want_ll))

    def test_cases_reach_extrapolation_and_fallback(self, monkeypatch):
        points = []
        monkeypatch.setattr(evaluate, "_squarem_point",
                            squarem_spy(evaluate._squarem_point, points))
        seen = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(case=em_cases())
        def run(case):
            corpus, B = case
            points.clear()
            run_em(infer_weights, corpus, B)
            seen.update(squarem_outcomes(corpus, B, points))

        run()
        assert seen == {"extrapolated", "fallback"}

    @pytest.mark.parametrize("K, M, shuffle, max_iter", [
        (1, 30, True, 500),   # one component: the weights stay at one
        (3, 40, True, 500),   # unsorted users, ten of them without records
        (3, 30, False, 3),    # stops at max_iter with a warning
    ])
    def test_sampled_corpora(self, K, M, shuffle, max_iter):
        rankings = [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [2, 4, 1, 5, 3]][:K]
        model = model_of(rankings, [0.3] * K)
        corpus, _ = generate(model, M=30, N=12, seed=K + M)
        order = np.random.default_rng(0).permutation(corpus.n_records) if shuffle \
            else np.arange(corpus.n_records)
        corpus = ComparisonCorpus(Q=5, M=M, user=corpus.user[order],
                                  winner=corpus.winner[order], loser=corpus.loser[order])
        B = model.observation_matrix()
        got, got_warnings = run_em(infer_weights, corpus, B, max_iter=max_iter)
        want, _ = run_em(reference_infer_weights, corpus, B, max_iter=max_iter)
        assert bool(got_warnings) == (max_iter == 3)
        check_weights(corpus, B, *got)
        if K == 1:
            assert np.all(got[0] == 1.0)
        if max_iter == 500:
            ll, want_ll = loglik(corpus, got[0], B), loglik(corpus, want[0], B)
            assert ll >= want_ll - 1e-9 * (1.0 + abs(want_ll))

    def test_peak_memory_below_the_reference(self):
        model = model_of([[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [2, 4, 6, 1, 3, 5]],
                         [0.3, 0.3, 0.3])
        corpus, _ = generate(model, M=300, N=40, seed=1)
        B = model.observation_matrix()
        peaks = []
        for fn in (infer_weights, reference_infer_weights):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    fn(corpus, B, max_iter=3)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.8 * peaks[1], peaks


def per_record_infer_weights(corpus, B, *, tol=1e-8, max_iter=500, trace=False):
    """The SQUAREM EM with one term per record: records stable-sorted by
    user and held component-major as (K, n) arrays, with a (K, n) mixture
    array.  ``infer_weights`` runs the same cycles over distinct (user,
    pair) entries with counts; this is the loop it replaced, kept as the
    reference it is checked against."""
    K = B.shape[1]
    rows = corpus.pair_rows()
    dead = B[rows].sum(axis=1) == 0
    if dead.any():
        raise evaluate._unsupported(int(rows[np.argmax(dead)]), corpus.Q)
    users = corpus.user
    M = corpus.M
    counts = np.bincount(users, minlength=M)
    occupied = np.flatnonzero(counts)
    sizes = counts[occupied]
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(users, kind="stable")
    BwT = B.T.take(rows.take(order), axis=1)
    del order, rows
    mix = np.empty_like(BwT)
    total = np.empty(BwT.shape[1])

    def e_step(theta):
        for k in range(K):
            mix[k] = np.repeat(theta[k], sizes)
        np.multiply(mix, BwT, out=mix)
        np.copyto(total, mix[0])
        for k in range(1, K):
            np.add(total, mix[k], out=total)

    def user_loglik():
        with np.errstate(divide="ignore"):
            return np.add.reduceat(np.log(total), starts)

    def m_step():
        np.divide(mix, total, out=mix)
        return np.add.reduceat(mix, starts, axis=1) / sizes

    def check_support():
        if total.size and total.min() == 0:
            first = np.argsort(users, kind="stable")[total == 0].min()
            raise evaluate._unsupported(int(corpus.pair_rows()[first]), corpus.Q,
                                        underflow=True)

    theta = np.full((K, occupied.size), 1.0 / K)
    user_ll = None
    history = []
    prev_ll = -math.inf
    change = math.inf
    for it in range(1, max_iter + 1):
        if user_ll is None:
            e_step(theta)
            user_ll = user_loglik()
        check_support()
        ll = float(user_ll.sum())
        if ll < prev_ll - 1e-9 * (1.0 + abs(prev_ll)):
            raise RuntimeError(
                f"EM log-likelihood decreased at iteration {it}: {prev_ll!r} -> {ll!r}")
        history.append(ll)
        theta1 = m_step()
        if evaluate._converged(ll, prev_ll, tol):
            theta = theta1
            break
        change = abs(ll - prev_ll) / (1.0 + abs(ll))
        prev_ll = ll
        e_step(theta1)
        check_support()
        theta2 = m_step()
        point, extrapolated = evaluate._squarem_point(theta, theta1, theta2)
        next_ll = None
        if extrapolated.any():
            e_step(point)
            point_ll = user_loglik()
            fallback = extrapolated & ~(point_ll >= user_ll)
            if fallback.any():
                point[:, fallback] = theta2[:, fallback]
            else:
                next_ll = point_ll
        theta, user_ll = point, next_ll
    else:
        warnings.warn(
            f"EM stopped at max_iter={max_iter} without converging; last relative "
            f"log-likelihood change {change:.3e} (tol {tol:.1e})",
            RuntimeWarning, stacklevel=2)
    weights = np.full((M, K), 1.0 / K)
    weights[occupied] = theta.T
    if trace:
        return weights, history
    return weights


@st.composite
def repeat_cases(draw):
    """A corpus in which most records repeat a (user, pair) of another:
    Q <= 4, up to 60 records per user in shuffled order, and users without
    records.  B has drawn zero entries (whole zero rows among them) and
    otherwise continuous random entries.

    Its entries are not drawn by Hypothesis, as in ``em_cases``, because
    Hypothesis ties them: a row equal across components, or one component
    that is zero where the others tie, makes a user's EM map in one
    coordinate exactly geometric, and SQUAREM then extrapolates exactly
    onto the simplex boundary.  Whether that point is feasible, or halves
    its step, is decided by rounding, so two correct EMs that add in
    another order take different paths there; ``em_cases`` keeps testing
    such B against the plain EM."""
    K = draw(st.integers(1, 6))
    Q = draw(st.integers(2, 4))
    M = draw(st.integers(1, 6))
    per_user = draw(st.lists(st.integers(0, 60), min_size=M, max_size=M))
    n = sum(per_user)
    W = pairs.num_pairs(Q)
    rows = np.array(draw(st.lists(st.integers(0, W - 1), min_size=n, max_size=n)), dtype=int)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    I, J = pairs.pair_arrays(Q)
    corpus = ComparisonCorpus(Q=Q, M=M, user=np.repeat(np.arange(M), per_user)[order],
                              winner=I[rows], loser=J[rows])
    B = rng.uniform(size=(W, K))
    B[draw(arrays(np.bool_, (W, K)))] = 0.0
    return corpus, B


def stopped_near_a_boundary_maximum():
    """A case on which the two EMs, stopped by the 1e-8 rule after 15 and
    14 cycles, end 4.1e-7 apart at a log-likelihood of -191.976: more than
    1e-9 * (1 + |ll|), less than 1e-8 * (1 + |ll|).  Q = 2, four users,
    K = 6 with zeros in B; found by Hypothesis (seed 5)."""
    users = ("20331331112223312103132233332133222113211231033232223331121322121122"
             "123211323223213223313301133333323302122213333223323232223312213233")
    winners = ("11111111111111111111111111111111111111111111111111111111111112121111"
               "111221111222222222222211221111112221212221111112222222222222111222")
    winner = np.array([int(ch) for ch in winners])
    corpus = ComparisonCorpus(Q=2, M=4, user=np.array([int(ch) for ch in users]),
                              winner=winner, loser=3 - winner)
    B = np.array([[0.7518347988662641, 0.0, 0.0, 0.0, 0.0, 0.8505746526938961],
                  [0.0, 0.10482092524188713, 0.0, 0.0, 0.0, 0.0]])
    return corpus, B


def converged_apart():
    """A case on which both EMs converge after 16 cycles, 6.2e-7 apart at
    a log-likelihood of -35.513: more than 1e-8 * (1 + |ll|).  The tol = 0
    maximum is -35.51347811387, 3.1e-8 above the grouped EM and 6.5e-7
    above the per-record one.  Q = 2, six users (user 0 without records),
    K = 5 with zeros in B; found by Hypothesis (--hypothesis-seed 12)."""
    users = ("5232343231554345142534354325525233134435354552554345224243452452554431"
             "4342444344323325435242451323332244522324142533525445251415553142534244"
             "2224223242452255351533431454424435444242525442232422325554352222222345"
             "5325343315523443325245253")
    winner = np.ones(len(users), dtype=int)
    winner[-1] = 2
    corpus = ComparisonCorpus(Q=2, M=6, user=np.array([int(ch) for ch in users]),
                              winner=winner, loser=3 - winner)
    B = np.array([[0.0, 0.0, 0.8631202041893178, 0.8813071727376899, 0.0],
                  [0.34429573096232524, 0.0, 0.0, 0.0, 0.0]])
    return corpus, B


def one_converged_one_stopped():
    """A case on which, at tol 1e-12 and max_iter 500, the per-record EM
    converges and the grouped one stops at max_iter, its last relative
    change 1.304e-12: rounding parts their SQUAREM paths.  Q = 4, one user
    with 23 records, K = 5; found by Hypothesis (--hypothesis-seed 37)."""
    rows = np.array([0, 0, 2, 2, 3, 3, 3, 4, 4, 5, 6, 6, 7, 7, 7, 8, 9, 9, 10, 10, 11, 11, 11])
    I, J = pairs.pair_arrays(4)
    corpus = ComparisonCorpus(Q=4, M=1, user=np.zeros(rows.size, dtype=int),
                              winner=I[rows], loser=J[rows])
    B = np.array([[0.3651090736280631, 0.6594525720623644, 0.6280998759542215,
                   0.40933246789644473, 0.6220248234457563],
                  [0.5075613584481808, 0.07109860891353226, 0.32942795922693346,
                   0.3450382606560566, 0.695892220600257],
                  [0.8817054412788866, 0.8843825503919315, 0.7096142486748315,
                   0.10277081156661094, 0.6471845212349393],
                  [0.8705599550013046, 0.1807293551617115, 0.9400765468782452,
                   0.012963612506626365, 0.33274766089291596],
                  [0.5876466479115355, 0.4434707674943793, 0.04505068659335376,
                   0.5786155859300521, 0.20979940857024082],
                  [0.12214113526466375, 0.08579380211578036, 0.8423922707930556,
                   0.3756086592711525, 0.6886294901938308],
                  [0.11230012388321109, 0.5977801111452706, 0.22087098024268814,
                   0.88724889839589, 0.8491159925823474],
                  [0.6088744421185283, 0.7924282026783132, 0.6863869729731968,
                   0.48493045784086874, 0.9973101884062352],
                  [0.2952515905502525, 0.025651086922696464, 0.8414062145731559,
                   0.8535466088587604, 0.8644421638632901],
                  [0.6544790247104719, 0.29677774118169276, 0.8460747877434166,
                   0.3117332542816861, 0.7626706994909289],
                  [0.6156891473162663, 0.21243398871028307, 0.7653073374252348,
                   0.7586394416551299, 0.3513755069406581],
                  [0.1265569844062322, 0.6005503454408637, 0.7236077491241398,
                   0.6330456129820993, 0.10255970652258761]])
    return corpus, B


# Cases on which the two EMs, stopped at max_iter = 5, part on a SQUAREM
# step decided by rounding, as (Q, each record's user as a digit string,
# its pair row as another, B).  "tiny change" (tol 1e-12) was found by
# Hypothesis (--hypothesis-seed 37): the two print the last relative
# change as 3.319e-12 and 3.318e-12.  "change" and "likelihood" (tol 1e-8)
# were found by a random search of the same shapes: 2.853e-06 against
# 2.854e-06, and the same warning with final log-likelihoods
# -30.25183823870742 and -30.251839149800574, 9.1e-7 apart where
# 1e-8 * (1 + |ll|) is 3.1e-7.
PARTED_AT_MAX_ITER = {
    "tiny change": (
        3, "01111010011111011001111111011101011110110011110010001101001100011101011110111111111111",
        "00000000000000000030000000000000000000000000000010112215530000000000000000000000000122",
        [[0.8612834961776684, 0.0, 0.0],
         [0.0, 0.007091828603166261, 0.0],
         [0.719909383508693, 0.0, 0.0],
         [0.2152181671629736, 0.0, 0.8050548331450097],
         [0.0, 0.0, 0.0],
         [0.0, 0.0, 0.5895020620840481]]),
    "change": (
        2, "0011011111110000001001011001111111001011110111110",
        "1100110100000111101000110111010011010000010001001",
        [[0.938833247987742, 0.9326237734978077, 0.0],
         [0.0, 0.0, 0.04566453513292312]]),
    "likelihood": (
        2, "25211555002244035531213225503033555120311105225223130115215503320503521153102353522"
           "525555054255032001144525545002102302215502530515115231553133220025515202",
        "10011111011111011001110001010001000011010000100110110100111000010100101110011101110"
        "011111001001100001011100111010110010010011110100011000110111110011100111",
        [[0.4737742589044651, 0.7606700304831624, 0.45020697319852865],
         [0.0, 0.8818338220068159, 0.8818814110320179]]),
}


def parted_at_max_iter(name):
    """The corpus and B of the case ``name`` in ``PARTED_AT_MAX_ITER``."""
    Q, users, rows, B = PARTED_AT_MAX_ITER[name]
    I, J = pairs.pair_arrays(Q)
    rows = np.array([int(ch) for ch in rows])
    users = np.array([int(ch) for ch in users])
    corpus = ComparisonCorpus(Q=Q, M=int(users.max()) + 1, user=users,
                              winner=I[rows], loser=J[rows])
    return corpus, np.array(B)


def stop_warning(text):
    """A max_iter warning without the last relative change it prints."""
    return re.sub(r"change \S+ \(", "change * (", text)


def em_peak(fn, corpus, B):
    """tracemalloc peak of a three-cycle EM run, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fn(corpus, B, max_iter=3)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def distinct_fraction(corpus):
    keys = corpus.user * pairs.num_pairs(corpus.Q) + corpus.pair_rows()
    return np.unique(keys).size / keys.size


class TestGroupedEMMatchesPerRecord:
    """The EM over distinct (user, pair) entries against
    ``per_record_infer_weights``, the same SQUAREM cycles with one term per
    record."""

    @settings(max_examples=300, deadline=None)
    @given(case=repeat_cases(),
           tol=st.sampled_from([1e-8, 1e-12]),
           max_iter=st.sampled_from([1, 2, 5, 500]))
    @example(case=stopped_near_a_boundary_maximum(), tol=1e-8, max_iter=500)
    @example(case=converged_apart(), tol=1e-8, max_iter=500)
    @example(case=one_converged_one_stopped(), tol=1e-12, max_iter=500)
    @example(case=parted_at_max_iter("tiny change"), tol=1e-12, max_iter=5)
    @example(case=parted_at_max_iter("change"), tol=1e-8, max_iter=5)
    @example(case=parted_at_max_iter("likelihood"), tol=1e-8, max_iter=5)
    def test_same_errors_warnings_and_likelihood(self, case, tol, max_iter):
        corpus, B = case
        got, got_warnings = run_em(infer_weights, corpus, B, tol=tol, max_iter=max_iter)
        want, want_warnings = run_em(per_record_infer_weights, corpus, B,
                                     tol=tol, max_iter=max_iter)
        if isinstance(want, Exception) or isinstance(got, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            return
        # The two EMs sum in another order, and a SQUAREM step decided by
        # rounding can part their paths before either stops: at max_iter
        # (``parted_at_max_iter``), at different converged points
        # (``converged_apart``), or with one converged and the other not
        # (``one_converged_one_stopped``).  So each run is held to what it
        # guarantees on its own.  Every run has valid weights and a history
        # that does not decrease.  A run stopped at max_iter warns so, up to
        # the last relative change it prints.  A converged run is held
        # against the maximum, which the per-record EM reaches at tol = 0
        # (each user's log-likelihood is concave in its weights, so the
        # maximum has one value): it ends no higher, beyond the rounding
        # the EM itself allows, and no more than sqrt(tol) lower, relative
        # in the EM's own sense (1 + |ll|).  Near a maximum on the simplex
        # boundary EM converges sublinearly: the gap falls like 1/t while a
        # cycle's change falls like 1/t^2, so a run stopped at a change of
        # tol lies up to about sqrt(tol) below (see
        # ``stopped_near_a_boundary_maximum``).  Over 1304 converged runs
        # of these cases the largest gap was 200 tol (0.02 sqrt(tol)) at
        # tol = 1e-8 and 48 tol at tol = 1e-12.
        best = None
        for (theta, history), caught in ((got, got_warnings), (want, want_warnings)):
            check_weights(corpus, B, theta, history)
            if caught:
                assert [stop_warning(w) for w in caught] == [stop_warning(
                    f"EM stopped at max_iter={max_iter} without converging; "
                    f"last relative log-likelihood change 0 (tol {tol:.1e})")]
                continue
            if best is None:
                top, _ = run_em(per_record_infer_weights, corpus, B, tol=0.0, max_iter=5000)
                best = loglik(corpus, top[0], B)
                scale = 1.0 + abs(best)
            ll = loglik(corpus, theta, B)
            assert -1e-9 * scale <= best - ll <= math.sqrt(tol) * scale, (ll, best)

    def test_peak_memory_on_repeated_records(self):
        model = model_of([[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [2, 4, 6, 1, 3, 5]],
                         [0.3, 0.3, 0.3])
        corpus, _ = generate(model, M=300, N=40, seed=1)
        assert 0.4 < distinct_fraction(corpus) < 0.6
        B = model.observation_matrix()
        peak, want = em_peak(infer_weights, corpus, B), em_peak(per_record_infer_weights, corpus, B)
        assert peak <= 0.75 * want, (peak, want)

    def test_peak_memory_without_repeats(self):
        # every user compares 40 distinct ordered pairs of 20 items
        Q, M, N = 20, 300, 40
        rng = np.random.default_rng(3)
        rows = np.concatenate([rng.permutation(pairs.num_pairs(Q))[:N] for _ in range(M)])
        I, J = pairs.pair_arrays(Q)
        corpus = ComparisonCorpus(Q=Q, M=M, user=np.repeat(np.arange(M), N),
                                  winner=I[rows], loser=J[rows])
        assert distinct_fraction(corpus) == 1.0
        model = model_of([list(range(1, Q + 1)), list(range(Q, 0, -1)),
                          list(rng.permutation(Q) + 1)], [0.3, 0.3, 0.3])
        B = model.observation_matrix()
        peak, want = em_peak(infer_weights, corpus, B), em_peak(per_record_infer_weights, corpus, B)
        assert peak <= want, (peak, want)


def entry_weights_em(count, row, starts, table, tol, max_iter, unsupported):
    """The weight EM over whole entries arrays: it gathers every entry's
    outcome probabilities from the (K, W) ``table`` at once, every E-step
    fills an entries-long ``total`` and every M-step forms each
    theta_k B[w, k] term again.  ``evaluate._weights_em`` sweeps blocks of
    users, gathers each block's outcome probabilities and forms each term
    once; this is the loop it replaced, kept as the reference it must
    match bit for bit."""
    K = len(table)
    BwT = table.take(row, axis=1)
    entries = np.diff(starts, append=count.size)
    sizes = np.add.reduceat(count, starts)
    total = np.empty(count.size)

    def component(theta, k):
        part = np.repeat(theta[k], entries)
        part *= BwT[k]
        return part

    def e_step(theta):
        np.multiply(np.repeat(theta[0], entries), BwT[0], out=total)
        for k in range(1, K):
            np.add(total, component(theta, k), out=total)

    def user_loglik():
        with np.errstate(divide="ignore"):
            ll = np.log(total)
        ll *= count
        return np.add.reduceat(ll, starts)

    def responsibility(theta, k):
        part = component(theta, k)
        part /= total
        part *= count
        return part

    def m_step(theta):
        step = np.empty_like(theta)
        for k in range(K):
            step[k] = np.add.reduceat(responsibility(theta, k), starts)
        return step / sizes

    def check_support(theta):
        if total.size and total.min() == 0:
            raise unsupported(theta)

    theta = np.full((K, starts.size), 1.0 / K)
    user_ll = None
    history = []
    prev_ll = -math.inf
    change = math.inf
    for it in range(1, max_iter + 1):
        if user_ll is None:
            e_step(theta)
            user_ll = user_loglik()
        check_support(theta)
        ll = float(user_ll.sum())
        if ll < prev_ll - 1e-9 * (1.0 + abs(prev_ll)):
            raise RuntimeError(
                f"EM log-likelihood decreased at iteration {it}: {prev_ll!r} -> {ll!r}")
        history.append(ll)
        theta1 = m_step(theta)
        if evaluate._converged(ll, prev_ll, tol):
            theta = theta1
            break
        change = abs(ll - prev_ll) / (1.0 + abs(ll))
        prev_ll = ll
        e_step(theta1)
        check_support(theta1)
        theta2 = m_step(theta1)
        point, extrapolated = evaluate._squarem_point(theta, theta1, theta2)
        next_ll = None
        if extrapolated.any():
            e_step(point)
            point_ll = user_loglik()
            fallback = extrapolated & ~(point_ll >= user_ll)
            if fallback.any():
                point[:, fallback] = theta2[:, fallback]
            else:
                next_ll = point_ll
        theta, user_ll = point, next_ll
    else:
        warnings.warn(
            f"EM stopped at max_iter={max_iter} without converging; last relative "
            f"log-likelihood change {change:.3e} (tol {tol:.1e})",
            RuntimeWarning, stacklevel=3)
    return theta, history


def swapped_point(theta0, theta1, theta2):
    """A SQUAREM point that hands each component's weight to the next one
    (reversed order), so that the likelihood can fall."""
    return theta2[::-1].copy(), np.zeros(theta2.shape[1], dtype=bool)


def sweep_and_entry_runs(corpus, B, block, swap, **kwargs):
    """``run_em`` of ``infer_weights`` with blocks of ``block`` entries, and
    of the same with ``entry_weights_em`` in place of the sweep; with
    ``swap`` both take ``swapped_point`` as their SQUAREM point."""
    squarem = swapped_point if swap else evaluate._squarem_point
    with mock.patch.object(evaluate, "_squarem_point", squarem):
        with mock.patch.object(evaluate, "_EM_BLOCK", block):
            got = run_em(infer_weights, corpus, B, **kwargs)
        with mock.patch.object(evaluate, "_weights_em", entry_weights_em):
            want = run_em(infer_weights, corpus, B, **kwargs)
    return got, want


def largest_user(corpus):
    """The most distinct (user, pair) entries any one user has."""
    keys = np.unique(corpus.user * pairs.num_pairs(corpus.Q) + corpus.pair_rows())
    return int(np.bincount(keys // pairs.num_pairs(corpus.Q), minlength=1).max())


sweep_cases = dict(case=st.one_of(em_cases(), repeat_cases()), block=st.integers(1, 7),
                   swap=st.booleans(), tol=st.sampled_from([1e-8, 1e-12, 0.0]),
                   max_iter=st.sampled_from([1, 2, 5, 500]))


class TestSweepMatchesEntryEM:
    """The EM swept a block of users at a time against ``entry_weights_em``,
    the same cycles over whole entries arrays: the same bits."""

    @settings(max_examples=300, deadline=None)
    @given(**sweep_cases)
    def test_same_bits_warnings_and_errors(self, case, block, swap, tol, max_iter):
        corpus, B = case
        (got, got_warnings), (want, want_warnings) = sweep_and_entry_runs(
            corpus, B, block, swap, tol=tol, max_iter=max_iter)
        assert got_warnings == want_warnings
        if isinstance(want, Exception) or isinstance(got, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            return
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()

    def test_cases_reach_every_path(self):
        points = []
        seen = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(**sweep_cases)
        def run(case, block, swap, tol, max_iter):
            corpus, B = case
            points.clear()
            spy = squarem_spy(swapped_point if swap else evaluate._squarem_point, points)
            with mock.patch.object(evaluate, "_squarem_point", spy), \
                    mock.patch.object(evaluate, "_EM_BLOCK", block):
                out, caught = run_em(infer_weights, corpus, B, tol=tol, max_iter=max_iter)
            if largest_user(corpus) > block:
                seen.add("user past a block")
            if caught:
                seen.add("max_iter")
            if isinstance(out, ValueError) and "zero probability" in str(out):
                seen.add("zero probability")
            if isinstance(out, RuntimeError) and "decreased" in str(out):
                seen.add("decrease")
            if not swap:
                seen.update(squarem_outcomes(corpus, B, points))

        run()
        assert seen == {"user past a block", "max_iter", "zero probability", "decrease",
                        "extrapolated", "fallback"}


class TestRefitDispersions:
    def test_single_component_matches_grid_search(self):
        # one component: every weight is one, so the refit is the
        # one-dimensional maximum of the records' log-likelihood, which
        # depends on phi only through each record's gap in the ranking
        Q = 6
        model = model_of([[3, 1, 6, 2, 5, 4]], [0.35], prior=FixedWeights((1.0,)))
        corpus, _ = generate(model, M=300, N=20, seed=4)
        sigma = model.components[0].reference
        phis, info = evaluate.refit_dispersions(corpus, [sigma], [0.6])
        pos = np.empty(Q + 1, dtype=np.int64)
        pos[list(sigma.ranking)] = np.arange(Q)
        gap = pos[corpus.loser] - pos[corpus.winner]

        def loglik(phi):
            t, r = marginal_table(Q, phi), reverse_marginal_table(Q, phi)
            with np.errstate(divide="ignore"):  # -inf at phi = 0, where a record is reversed
                return float(np.sum(np.log(np.where(gap > 0, t[np.abs(gap)], r[np.abs(gap)]))))

        grid = np.linspace(0.0, 0.99, 991)
        best = grid[int(np.argmax([loglik(p) for p in grid]))]
        fine = np.linspace(best - 1e-3, best + 1e-3, 2001)
        best = fine[int(np.argmax([loglik(p) for p in fine]))]
        assert phis[0] == pytest.approx(best, abs=2e-6)
        assert info["loglik"] == pytest.approx(loglik(phis[0]), rel=1e-12)

    def test_moves_readout_errors_toward_the_truth(self):
        # the weights are fitted once, at the readout's dispersions, and
        # keep part of its error; the refit still lands nearer the truth
        model = model_of([[1, 2, 3, 4, 5, 6, 7, 8], [8, 6, 4, 2, 7, 5, 3, 1]], [0.2, 0.4],
                         prior=DirichletPrior(0.2))
        corpus, _ = generate(model, M=500, N=200, seed=9)
        refs = [c.reference for c in model.components]
        for start in ([0.25, 0.35], [0.15, 0.45]):
            phis, info = evaluate.refit_dispersions(corpus, refs, start)
            assert all(abs(p - t) < 0.6 * abs(s - t)
                       for p, s, t in zip(phis, start, [0.2, 0.4])), phis
            assert info["weight_cycles"] >= 1 and info["newton_steps"] >= 1
            # the same inputs give the same bits
            assert evaluate.refit_dispersions(corpus, refs, start) == (phis, info)

    def test_large_corpus_reads_every_sth_user(self, monkeypatch):
        model = model_of([[2, 4, 1, 3, 5], [5, 1, 4, 2, 3]], [0.3, 0.3])
        corpus, _ = generate(model, M=400, N=10, seed=3)
        refs = [c.reference for c in model.components]
        monkeypatch.setattr(evaluate, "_REFIT_RECORDS", 1500)  # 4000 records: stride 3
        strided = evaluate.refit_dispersions(corpus, refs, [0.3, 0.3])
        keep = corpus.user % 3 == 0
        sub = ComparisonCorpus(Q=5, M=134, user=corpus.user[keep] // 3,
                               winner=corpus.winner[keep], loser=corpus.loser[keep])
        assert evaluate.refit_dispersions(sub, refs, [0.3, 0.3]) == strided

    def test_record_reversed_across_120_items(self):
        # at phi = 1e-3 the order probability of a pair reversed at gap 119
        # underflows to zero; the refit's floor rises with Q, so one such
        # record no longer leaves every component at probability zero
        Q = 120
        ranking = list(range(1, Q + 1))
        corpus, _ = generate(model_of([ranking], [0.05], prior=FixedWeights((1.0,))),
                             M=50, N=20, seed=1)
        corpus = ComparisonCorpus(Q=Q, M=50, user=np.append(corpus.user, 49),
                                  winner=np.append(corpus.winner, Q),
                                  loser=np.append(corpus.loser, 1))
        assert reverse_marginal_table(Q, evaluate._REFIT_FLOOR)[Q - 1] == 0
        refs = [Permutation.from_ranking(ranking)]
        phis, info = evaluate.refit_dispersions(corpus, refs, [0.0])
        # Newton climbs from the floor, where that record's probability is
        # near the smallest normal float, to the maximum it finds from 0.05
        want, _ = evaluate.refit_dispersions(corpus, refs, [0.05])
        assert info["newton_steps"] >= 1 and phis[0] == pytest.approx(want[0], abs=1e-6)

    def test_floor_keeps_every_order_probability_normal(self):
        for Q in [2, 3, 20, 60, 103, 104, 105, 120, 1000, 2000, 32767]:
            floor = evaluate._refit_floor(Q)
            assert reverse_marginal_table(Q, floor)[1:].min() >= np.finfo(float).tiny, Q
            assert (floor == evaluate._REFIT_FLOOR) == (Q <= 103), Q

    def test_postprocess_refits_when_b_hat_keeps_counts(self):
        model = model_of([[1, 3, 2, 5, 4], [4, 5, 1, 2, 3]], [0.25, 0.25])
        corpus, _ = generate(model, M=500, N=20, seed=8)
        plain = postprocess(exact_estimate(model))
        assert plain.refit is None and plain.dispersions == pytest.approx([0.25, 0.25])
        refit = postprocess(exact_estimate(model, corpus))
        assert [r.ranking for r in refit.rankings] == [r.ranking for r in plain.rankings]
        want, info = evaluate.refit_dispersions(corpus, plain.rankings, plain.dispersions)
        assert refit.dispersions == want and refit.refit == info
        assert refit.diagnostics == plain.diagnostics


def user_blocks(starts, n_entries):
    """Blocks (lo, hi) of whole users' entries, each as long as
    ``evaluate._EM_BLOCK`` allows, found by a walk over the users."""
    blocks, lo = [], 0
    for start, end in zip(starts, np.append(starts[1:], n_entries)):
        if end - lo > evaluate._EM_BLOCK and start > lo:
            blocks.append((lo, int(start)))
            lo = int(start)
    return blocks + [(lo, n_entries)]


def exact_sums(parts):
    """Elementwise ``math.fsum`` of equally shaped partial sums."""
    parts = np.array(parts, dtype=float)
    return np.array([math.fsum(c) for c in parts.reshape(len(parts), -1).T]).reshape(
        parts.shape[1:])


def weight_array_refit_dispersions(corpus, rankings, dispersions, *, whole_sums=False):
    """The dispersion refit with its weights repeated over every entry as
    one (K, entries) array, and its weight EM over whole entries arrays
    (``entry_weights_em``): the code ``evaluate.refit_dispersions``
    replaced.  Each sum over the entries follows the refit's rule, one
    ``np.einsum`` partial over each block of whole users (``user_blocks``)
    added by ``math.fsum``, or, with ``whole_sums``, is one BLAS product
    over all entries, as before that rule.  Its info dict has no
    ``records``."""
    Q = corpus.Q
    X, X_prime = count_halves(split_halves(corpus))
    C = (X + X_prime).T.tocsr()
    C = C[::max(1, math.ceil(C.data.sum() / evaluate._REFIT_RECORDS))]
    count, row = C.data, C.indices
    starts = C.indptr[:-1][np.diff(C.indptr) > 0]
    entries = np.diff(starts, append=count.size)
    blocks = user_blocks(starts, count.size)
    I, J = pairs.pair_arrays(Q)
    gaps = []
    for sigma in rankings:
        pos = np.empty(Q + 1, dtype=np.int64)
        pos[list(sigma.ranking)] = np.arange(Q)
        gaps.append(pos[J] - pos[I])
    K = len(gaps)

    def order_probabilities(phis):
        return np.array([gap_marginals(g, marginal_table(Q, phi), reverse_marginal_table(Q, phi))
                         for g, phi in zip(gaps, phis)])

    def dot(x, y):
        """sum_e x[..., e] y[e]."""
        if whole_sums:
            return x @ y
        return exact_sums([np.einsum("...e,e->...", x[..., lo:hi], y[lo:hi])
                           for lo, hi in blocks])

    phis = np.maximum(np.asarray(dispersions, dtype=float), evaluate._refit_floor(Q))
    theta, history = entry_weights_em(
        count, row, starts, order_probabilities(phis), evaluate.REFIT_TOL, 500,
        lambda _: RuntimeError("a record has probability zero in every component"))
    weight = np.array([np.repeat(t, entries) for t in theta])

    def mixture(phis):
        beta = order_probabilities(phis)
        total = np.zeros(count.size)
        for k in range(K):
            total += weight[k] * beta[k].take(row)
        with np.errstate(divide="ignore"):
            return total, float(dot(count, np.log(total)))

    step = evaluate._REFIT_STEP
    total, ll = mixture(phis)
    hi = math.nextafter(1.0, 0.0)
    steps = 0
    for _ in range(evaluate._REFIT_MAX_STEPS):
        b0, b1, b2 = (order_probabilities(phis + j * step) for j in range(3))
        slope = ((4.0 * b1 - 3.0 * b0 - b2) / (2.0 * step)).take(row, axis=1)
        slope *= weight
        curve = (b0 - 2.0 * b1 + b2) / step**2
        if whole_sums:  # with count / total and count / total^2 as weights
            w = count / total
            grad = slope @ w
            hess = np.diag([(weight[k] * curve[k].take(row)) @ w for k in range(K)])
            w /= total
            for k in range(K):
                hess[k] -= slope @ (slope[k] * w)
        else:  # with each derivative divided by the entry's probability
            slope /= total
            grad = dot(slope, count)
            hess = np.diag([dot(weight[k] * curve[k].take(row) / total, count)
                            for k in range(K)])
            hess -= exact_sums([np.einsum("ke,je->kj", (slope * count)[:, lo:hi], slope[:, lo:hi])
                                for lo, hi in blocks])
        del slope
        try:
            np.linalg.cholesky(-hess)
            move = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            move = grad / np.maximum(np.abs(np.diag(hess)), np.finfo(float).tiny)
        if np.max(np.abs(np.clip(phis + move, 0.0, hi) - phis)) <= evaluate._REFIT_PHI_TOL:
            break
        for _ in range(evaluate._REFIT_HALVINGS):
            cand = np.clip(phis + move, 0.0, hi)
            cand_total, cand_ll = mixture(cand)
            if cand_ll >= ll:
                break
            move *= 0.5
        else:
            break
        phis, total, ll = cand, cand_total, cand_ll
        steps += 1
    return phis.tolist(), {"weight_cycles": len(history), "newton_steps": steps, "loglik": ll}


def refit_case(K, M, N, seed):
    """Split counts of a Q = 7 corpus from K components, the references,
    and read-off dispersions 0.05 off the true ones."""
    rng = np.random.default_rng(seed)
    rankings = [list(rng.permutation(7) + 1) for _ in range(K)]
    phis = list(rng.uniform(0.15, 0.5, K))
    corpus, _ = generate(model_of(rankings, phis, prior=DirichletPrior(0.3)), M=M, N=N, seed=seed)
    refs = [Permutation.from_ranking(r) for r in rankings]
    return corpus, refs, [p + 0.05 * (-1) ** k for k, p in enumerate(phis)]


def refit_peak(fn, corpus, refs, start):
    """tracemalloc peak of one refit, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(corpus, refs, start)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestRefitMatchesWeightArray:
    """``refit_dispersions`` against ``weight_array_refit_dispersions``."""

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_same_bits(self, K, stride, monkeypatch):
        corpus, refs, start = refit_case(K, M=300, N=30, seed=K)
        # 9000 records: a limit of 3000 reads every third user
        monkeypatch.setattr(evaluate, "_REFIT_RECORDS", 9000 // stride)
        monkeypatch.setattr(evaluate, "_EM_BLOCK", 500)
        phis, info = evaluate.refit_dispersions(corpus, refs, start)
        want, want_info = weight_array_refit_dispersions(corpus, refs, start)
        assert np.array(phis).tobytes() == np.array(want).tobytes()
        assert info == {**want_info, "records": int(np.count_nonzero(corpus.user % stride == 0))}
        assert info["newton_steps"] >= 1
        # the sums over all entries at once, in BLAS order, reach the same
        # dispersions to within Newton's own stop rule
        whole, _ = weight_array_refit_dispersions(corpus, refs, start, whole_sums=True)
        assert np.max(np.abs(np.subtract(phis, whole))) <= evaluate._REFIT_PHI_TOL

    def test_same_bits_at_eight_components_in_blocks_of_one_user(self, monkeypatch):
        # blocks of one user, some of one entry: summed with
        # terms.sum(axis=0), eight terms of one entry are added pairwise,
        # not in component order as in the reference, and at this seed the
        # dispersions and the log-likelihood then differ in their last bits
        corpus, refs, start = refit_case(8, M=60, N=2, seed=5)
        monkeypatch.setattr(evaluate, "_REFIT_RECORDS", 10**6)
        monkeypatch.setattr(evaluate, "_EM_BLOCK", 1)
        phis, info = evaluate.refit_dispersions(corpus, refs, start)
        want, want_info = weight_array_refit_dispersions(corpus, refs, start)
        assert np.array(phis).tobytes() == np.array(want).tobytes()
        assert info == {**want_info, "records": corpus.n_records}
        assert info["newton_steps"] >= 1

    def test_peak_memory_without_the_weight_array(self, monkeypatch):
        # with blocks far smaller than the entries, neither the weight
        # EM's outcome probabilities nor Newton's slopes exist for all
        # entries at once: the peak stays below one K x entries array
        monkeypatch.setattr(evaluate, "_EM_BLOCK", 2**12)
        K = 5
        corpus, refs, start = refit_case(K, M=2000, N=40, seed=6)
        entries = pairs.user_entries(corpus)[0].size
        assert entries > 10 * evaluate._EM_BLOCK
        peak = refit_peak(evaluate.refit_dispersions, corpus, refs, start)
        assert peak < K * entries * 8, (peak, K * entries * 8)


class TestPredictLoglik:
    def test_deterministic_corpus_scores_pair_probability(self):
        # dispersion zero, uniform pairs over three items: every record
        # has probability exactly one third
        model = model_of([[2, 1, 3]], [0.0], prior=FixedWeights((1.0,)))
        corpus, _ = generate(model, M=10, N=8, seed=2)
        report = predict_loglik(corpus, np.ones((10, 1)), model.observation_matrix())
        assert report.avg_loglik == pytest.approx(math.log(1 / 3))
        assert report.zero_events == 0
        assert report.n == 80

    def test_contradiction_is_flagged(self):
        model = model_of([[1, 2, 3]], [0.0], prior=FixedWeights((1.0,)))
        corpus = ComparisonCorpus(Q=3, M=1, user=np.array([0, 0]),
                                  winner=np.array([1, 2]), loser=np.array([2, 1]))
        report = predict_loglik(corpus, np.ones((1, 1)), model.observation_matrix())
        assert report.avg_loglik == -math.inf
        assert report.zero_events == 1

    def test_hand_computed_mixture(self):
        B = np.array([[0.8, 0.2], [0.2, 0.8]])
        corpus = ComparisonCorpus(Q=2, M=1, user=np.array([0, 0]),
                                  winner=np.array([1, 2]), loser=np.array([2, 1]))
        report = predict_loglik(corpus, np.array([[0.3, 0.7]]), B)
        want = (math.log(0.3 * 0.8 + 0.7 * 0.2) + math.log(0.3 * 0.2 + 0.7 * 0.8)) / 2
        assert report.avg_loglik == pytest.approx(want, abs=1e-12)

    def test_component_permutation_invariance(self):
        model = model_of([[3, 1, 2, 4], [1, 4, 2, 3]], [0.2, 0.5])
        corpus, _ = generate(model, M=40, N=12, seed=11)
        B = model.observation_matrix()
        theta = infer_weights(corpus, B)
        a = predict_loglik(corpus, theta, B)
        b = predict_loglik(corpus, theta[:, ::-1], B[:, ::-1])
        assert a.avg_loglik == pytest.approx(b.avg_loglik, abs=1e-12)

    def test_theta_shape_checked(self):
        model = model_of([[1, 2]], [0.3], prior=FixedWeights((1.0,)))
        corpus, _ = generate(model, M=4, N=4, seed=0)
        for theta in (np.ones((3, 1)), np.ones(1)):  # nor one vector for all users
            with pytest.raises(ValueError, match="theta must have shape"):
                predict_loglik(corpus, theta, model.observation_matrix())

    def test_corpus_without_records_is_refused(self):
        corpus = ComparisonCorpus(Q=3, M=2, user=np.array([], dtype=np.int64),
                                  winner=np.array([], dtype=np.int64),
                                  loser=np.array([], dtype=np.int64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the corpus has no records to score$"):
                predict_loglik(corpus, np.full((2, 1), 1.0), np.full((6, 1), 0.5))

    def test_true_components_beat_mismatched_ones(self):
        # weights fitted under the true B must predict better than
        # weights fitted under a B with shuffled reference rankings
        truth = model_of([[5, 3, 1, 4, 2], [2, 4, 5, 1, 3]], [0.2, 0.2])
        wrong = model_of([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], [0.2, 0.2])
        corpus, _ = generate(truth, M=200, N=40, seed=19)
        B_true, B_wrong = truth.observation_matrix(), wrong.observation_matrix()
        ll_true = predict_loglik(corpus, infer_weights(corpus, B_true), B_true)
        ll_wrong = predict_loglik(corpus, infer_weights(corpus, B_wrong), B_wrong)
        assert ll_true.avg_loglik > ll_wrong.avg_loglik


class TestObservationShape:
    """Both scoring entry points take B only as (Q(Q-1), K): ``take`` maps
    a row past the end onto the last one, so a short B would otherwise be
    read silently."""

    @staticmethod
    def corpus():
        model = model_of([[1, 2, 3, 4], [4, 3, 2, 1]], [0.3, 0.3])
        return generate(model, M=5, N=6, seed=2)[0]

    @pytest.mark.parametrize("shape", [(6, 2), (20, 2), (12, 0), (12,), (12, 2, 1)],
                             ids=["too few rows", "too many rows", "no components",
                                  "one axis", "three axes"])
    def test_wrong_shape_is_refused(self, shape):
        corpus = self.corpus()
        B = np.full(shape, 0.5)
        rule = re.escape("B must have shape (12, K), one row per ordered pair of the "
                         f"corpus's 4 items and K >= 1 components; got {shape}")
        with pytest.raises(ValueError, match=f"^{rule}$"):
            infer_weights(corpus, B)
        with pytest.raises(ValueError, match=f"^{rule}$"):
            predict_loglik(corpus, np.full((corpus.M, 2), 0.5), B)

    def test_weights_of_another_component_count_are_refused(self):
        corpus = self.corpus()
        B = np.full((12, 3), 0.5)
        assert infer_weights(corpus, B).shape == (corpus.M, 3)
        with pytest.raises(ValueError, match=re.escape("theta must have shape (5, 3)")):
            predict_loglik(corpus, np.full((corpus.M, 2), 0.5), B)


def per_record_predict_loglik(corpus, theta, B):
    """``predict_loglik`` with each component's terms gathered for all
    records at once: the form it replaced, kept as its reference."""
    B = np.asarray(B, dtype=float)
    theta = np.asarray(theta, dtype=float)
    rows = corpus.pair_rows()
    p = np.zeros(corpus.n_records)
    for k in range(B.shape[1]):
        term = theta[:, k].take(corpus.user)
        term *= B[:, k].take(rows)
        p += term
    zero = int(np.count_nonzero(p == 0))
    if zero:
        return evaluate.PredictionReport(-math.inf, zero, corpus.n_records)
    return evaluate.PredictionReport(float(np.mean(np.log(p, out=p))), 0, corpus.n_records)


class TestPredictLoglikInBlocks:
    @pytest.mark.parametrize("block", [1, 7, 100, 2**15])
    def test_same_bits_as_per_record(self, block, monkeypatch):
        model = model_of([[3, 1, 2, 4], [1, 4, 2, 3], [2, 3, 4, 1]], [0.2, 0.5, 0.0])
        corpus, _ = generate(model, M=40, N=12, seed=11)
        B = model.observation_matrix()
        theta = infer_weights(corpus, B)
        monkeypatch.setattr(evaluate, "_EM_BLOCK", block)
        for weights in (theta, np.tile(theta[0], (corpus.M, 1))):
            report = predict_loglik(corpus, weights, B)
            assert report == per_record_predict_loglik(corpus, weights, B)
        # dispersion zero in one component: records it cannot produce
        third = np.tile([0.0, 0.0, 1.0], (corpus.M, 1))
        zero = predict_loglik(corpus, third, B)
        assert zero.zero_events > 0
        assert zero == per_record_predict_loglik(corpus, third, B)

    def test_peak_memory_is_p_and_one_block(self, monkeypatch):
        block = 2**12
        monkeypatch.setattr(evaluate, "_EM_BLOCK", block)
        model = model_of([[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [2, 4, 6, 1, 3, 5]],
                         [0.3, 0.3, 0.3])
        corpus, _ = generate(model, M=500, N=100, seed=1)
        B = model.observation_matrix()
        theta = infer_weights(corpus, B)
        n = corpus.n_records
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            predict_loglik(corpus, theta, B)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # p, its n zero flags, and one block's pair rows and terms
        assert peak <= 9 * n + 64 * block, (peak, n)
