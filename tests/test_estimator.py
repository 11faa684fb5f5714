"""Extreme-row detection and simplex-constrained recovery of B."""

import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, minimize

from mallowmix import estimator, pairs
from mallowmix.estimator import (
    DetectionConfig,
    DetectionError,
    NovelPairSet,
    RegressionError,
    _distances,
    _project_rows,
    _projection_directions,
    _projections,
    _rank_k,
    _solid_angle_wins,
    detect_novel_pairs,
    estimate_ranking_matrix,
)
from mallowmix.generator import ComparisonCorpus, DirichletPrior, MixedMembershipModel, generate
from mallowmix.mallows import (
    MallowsComponent,
    RankingMatrix,
    brute_force_beta,
    build_ranking_matrix,
)
from mallowmix.moments import (
    CoocMatrix,
    analytic_cooccurrence,
    cooccurrence,
    halves_cooccurrence,
    split_halves,
)
from mallowmix.permutations import Permutation, copeland_rank
from mallowmix.post import postprocess
from mallowmix.separability import check_separability
from test_moments import dense_factors, full


def analytic_toy(E, Q=2):
    E = np.asarray(E, dtype=float)
    return CoocMatrix(dense_factors(E), np.ones(E.shape[0], dtype=bool), Q)


def brute_force_wins(Y, proj, half):
    """Directions each row wins, testing every row against every other in
    every direction: the O(n^2 P) form of the scoring rule; and directions
    each row tops."""
    near = _distances(Y, Y) < half
    wins = np.zeros(Y.shape[0], dtype=np.int64)
    tops = np.zeros(Y.shape[0], dtype=np.int64)
    for p in proj:
        above = p[None, :] >= p[:, None]
        np.fill_diagonal(above, False)
        wins += ~(above & ~near).any(axis=1)
        tops += p == p.max()
    return wins, tops


def reference_detect(cooc: CoocMatrix, config: DetectionConfig):
    """Detection with the brute-force scorer and dense distances on the
    rank-K rows that ``_rank_k`` finds.  Returns the selected rows and the
    solid angles."""
    K = config.n_components
    candidate = cooc.active.copy()
    if cooc.row_counts is not None and config.min_count_fraction > 0 and candidate.any():
        floor = config.min_count_fraction * float(np.median(cooc.row_counts[candidate]))
        candidate &= cooc.row_counts >= floor
    act = np.flatnonzero(candidate)
    if act.size < K:
        raise DetectionError(f"only {act.size} candidate rows, need at least {K}")
    Y = _rank_k(cooc.E, act, K, config.seed)[0]
    spread = Y - Y.mean(axis=0)
    half = max(config.zeta * float(np.sqrt(np.mean(np.einsum("ij,ij->i", spread, spread))))
               / 2.0, np.finfo(float).tiny)
    P = config.resolved_projections
    wins, tops = brute_force_wins(Y, _projection_directions(config.seed, P, K) @ Y.T, half)
    qhat = wins / P
    dist = _distances(Y, Y)
    selected: list[int] = []
    for cand in np.lexsort((act, -tops, -qhat)):
        if all(dist[s, cand] >= half for s in selected):
            selected.append(int(cand))
            if len(selected) == K:
                break
    if len(selected) < K:
        raise DetectionError(
            f"found only {len(selected)} mutually separated rows at zeta={config.zeta}, need {K}"
        )
    return [int(act[s]) for s in selected], {int(r): float(q) for r, q in zip(act, qhat)}


def clustered_rows(rng, base: np.ndarray, n_copies: int, jitter: float) -> np.ndarray:
    """``base`` with ``n_copies`` of its rows overwritten by copies of other
    rows, each moved by at most ``jitter`` per entry (0: exact duplicates)."""
    out = base.copy()
    for _ in range(n_copies):
        src, dst = rng.choice(out.shape[0], size=2, replace=False)
        out[dst] = out[src] + jitter * rng.random(out.shape[1])
    return out


def project_to_simplex(v):
    """Euclidean projection of one vector onto the probability simplex: the
    one-row case of ``_project_rows``, which regression runs on all rows."""
    return _project_rows(np.asarray(v, dtype=float)[None, :])[0]


class TestSimplexProjection:
    def test_known_values(self):
        assert np.allclose(project_to_simplex(np.array([0.9, 0.6])), [0.65, 0.35])
        assert np.allclose(project_to_simplex(np.array([-5.0, -5.0])), [0.5, 0.5])
        assert np.allclose(project_to_simplex(np.array([1e9, 0.0])), [1.0, 0.0])
        assert np.allclose(project_to_simplex(np.array([2.0])), [1.0])

    def test_already_on_simplex_is_fixed_point(self):
        v = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_to_simplex(v), v)

    def test_matches_constrained_solver(self):
        # Euclidean projection cross-checked against a generic QP solver.
        rng = np.random.default_rng(31)
        for _ in range(20):
            v = rng.normal(scale=3.0, size=rng.integers(2, 5))
            got = project_to_simplex(v)
            ref = minimize(
                lambda x: np.sum((x - v) ** 2), np.full(v.size, 1 / v.size),
                method="SLSQP", bounds=[(0, 1)] * v.size,
                constraints={"type": "eq", "fun": lambda x: x.sum() - 1.0},
            ).x
            assert np.sum((got - v) ** 2) <= np.sum((ref - v) ** 2) + 1e-9

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_output_is_simplex_point_and_idempotent(self, vals):
        v = np.array(vals)
        x = project_to_simplex(v)
        assert np.all(x >= 0)
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(project_to_simplex(x), x, atol=1e-9)
        # order preserved
        order = np.argsort(v, kind="stable")
        assert np.all(np.diff(x[order]) >= -1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.array([]))
        with pytest.raises(ValueError):
            project_to_simplex(np.array([1.0, np.nan]))


class TestDetection:
    def test_symmetric_vertices_split_the_angle(self):
        # two extreme rows and their midpoint: the midpoint never wins a
        # direction, the vertices split them evenly
        E = np.array([[1.0, 0.0, 0.5],
                      [0.0, 1.0, 0.5],
                      [0.5, 0.5, 0.5]])
        cooc = analytic_toy(E)
        novel = detect_novel_pairs(cooc, DetectionConfig(n_components=2,
                                                         n_projections=10_000))
        assert sorted(novel.rows) == [0, 1]
        q = novel.solid_angles
        assert q[2] == 0.0
        assert q[0] + q[1] == pytest.approx(1.0, abs=1e-12)
        assert abs(q[0] - 0.5) < 0.02

    def test_single_component_single_row(self):
        cooc = analytic_toy([[1.0]])
        novel = detect_novel_pairs(cooc, DetectionConfig(n_components=1))
        assert novel.rows == [0]
        assert novel.solid_angles[0] == 1.0
        assert novel.item_pairs == [pairs.row_pair(0, 2)]

    def test_selection_deterministic(self):
        E = np.array([[1.0, 0.1, 0.5],
                      [0.1, 1.0, 0.5],
                      [0.55, 0.55, 0.5]])
        cooc = analytic_toy(E)
        cfg = DetectionConfig(n_components=2, seed=5)
        a = detect_novel_pairs(cooc, cfg)
        b = detect_novel_pairs(cooc, cfg)
        assert a.rows == b.rows
        assert a.solid_angles == b.solid_angles

    def test_more_projections_extend_the_stream(self):
        # growing the direction count refines q-hat without reshuffling
        # the directions already used, so scores move only slightly
        E = np.array([[1.0, 0.0, 0.5],
                      [0.0, 1.0, 0.5],
                      [0.5, 0.5, 0.5]])
        small = detect_novel_pairs(analytic_toy(E),
                                   DetectionConfig(n_components=2, n_projections=4000, seed=9))
        large = detect_novel_pairs(analytic_toy(E),
                                   DetectionConfig(n_components=2, n_projections=8000, seed=9))
        assert sorted(small.rows) == sorted(large.rows) == [0, 1]
        assert abs(small.solid_angles[0] - large.solid_angles[0]) < 0.05

    def test_too_few_candidate_rows(self):
        cooc = analytic_toy([[1.0]])
        with pytest.raises(DetectionError, match="candidate rows"):
            detect_novel_pairs(cooc, DetectionConfig(n_components=2))

    def test_unseparated_rows_fail(self):
        # two vertices and their midpoint, all within zeta/2 of each other
        # at zeta = 10 spreads
        E = np.array([[1.0, 0.0, 0.5],
                      [0.0, 1.0, 0.5],
                      [0.5, 0.5, 0.5]])
        with pytest.raises(DetectionError,
                           match="found only 1 mutually separated rows at zeta=10"):
            detect_novel_pairs(analytic_toy(E), DetectionConfig(n_components=2, zeta=10.0))
        # rows that coincide have no rank-2 part to separate them in
        with pytest.raises(DetectionError, match="has rank 1, below the 2 components"):
            detect_novel_pairs(analytic_toy(np.full((3, 3), 0.5)),
                               DetectionConfig(n_components=2))

    def test_rarely_observed_rows_are_not_candidates(self):
        # row 2 is a wild outlier backed by a single observation; the
        # count floor must keep it out of the candidate set
        E = np.array([[1.0, 0.0, 3.0],
                      [0.0, 1.0, 3.0],
                      [3.0, 3.0, 9.0]])
        counts = np.array([100, 100, 1])
        cooc = CoocMatrix(dense_factors(E), np.ones(3, dtype=bool), 2, row_counts=counts)
        novel = detect_novel_pairs(cooc, DetectionConfig(n_components=2))
        assert sorted(novel.rows) == [0, 1]
        # disabling the floor lets the outlier through
        novel = detect_novel_pairs(
            cooc, DetectionConfig(n_components=2, min_count_fraction=0.0))
        assert 2 in novel.rows

    def test_counters_on_analytic_matrix(self):
        E = np.array([[1.0, 0.0, 0.5],
                      [0.0, 1.0, 0.5],
                      [0.5, 0.5, 0.5]])
        novel = detect_novel_pairs(analytic_toy(E), DetectionConfig(n_components=2))
        # the toy has rank 2
        assert novel.singular_values[:2] == pytest.approx([1.5, 1.0], rel=1e-12)
        assert novel.singular_values.size == 3 and novel.singular_values[2] < 1e-12
        assert 1 <= novel.iterations <= 5
        # every row lies 2 zeta/2 or more from every other, so each
        # direction's top two rows end its window
        assert novel.window == 2
        # at zeta/2 = 1 the midpoint (0.71 from each vertex) has no peers
        # and wins every direction; no pair lies 2 zeta/2 apart, so every
        # window holds all rows; each vertex keeps the other as its one peer
        Y = _rank_k(analytic_toy(E).E, np.arange(3), 2, 0)[0]
        wins, tops, deepest = _solid_angle_wins(Y, _projection_directions(0, 300, 2) @ Y.T, 1.0)
        assert deepest == 3 and wins[2] == 300 and wins[0] + wins[1] == 300
        assert np.array_equal(tops, [wins[0], wins[1], 0])

    def test_no_row_with_peers_scores_one(self):
        E = np.array([[1.0, 0.0], [0.9, 0.1]])
        # the rows' spread is half their distance, so zeta/2 = 1.25 times it
        novel = detect_novel_pairs(analytic_toy(E), DetectionConfig(n_components=1, zeta=5.0))
        assert novel.window == 2
        assert novel.solid_angles == {0: 1.0, 1: 1.0}
        # the tie goes to the row that tops more directions; in one
        # dimension row 1, the smaller, tops the negative ones
        negative = int((_projection_directions(0, 150, 1) < 0).sum())
        assert negative != 75 and novel.rows == ([1] if negative > 75 else [0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectionConfig(n_components=0)
        with pytest.raises(ValueError):
            DetectionConfig(n_components=1, zeta=0.0)
        with pytest.raises(ValueError):
            DetectionConfig(n_components=1, n_projections=0)
        with pytest.raises(ValueError):
            DetectionConfig(n_components=1, min_count_fraction=-0.1)
        # detection has one separation rule; the doubled one is refused
        with pytest.raises(ValueError, match="doubled distance rule"):
            DetectionConfig(n_components=2, doubled_distance_rule=True)
        assert DetectionConfig(n_components=3).resolved_projections == 450
        assert DetectionConfig(n_components=3, n_projections=7).resolved_projections == 7

    def test_config_rejects_non_finite(self):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="zeta"):
                DetectionConfig(n_components=1, zeta=value)
            with pytest.raises(ValueError, match="min_count_fraction"):
                DetectionConfig(n_components=1, min_count_fraction=value)


def analytic_random(seed, Q, n_active, n_copies, jitter):
    rng = np.random.default_rng(seed)
    W = Q * (Q - 1)
    E = clustered_rows(rng, rng.random((W, W)), n_copies, jitter)
    active = np.zeros(W, dtype=bool)
    active[rng.choice(W, size=n_active, replace=False)] = True
    return CoocMatrix(dense_factors(E), active, Q)


def sampled_random(seed, Q, M, n_copies, jitter):
    rng = np.random.default_rng(seed)
    W = Q * (Q - 1)
    X = rng.poisson(0.6, size=(W, M)).astype(float)
    Xp = rng.poisson(0.6, size=(W, M)).astype(float)
    # Copies of a second-half row give (near-)duplicate rows of E-hat.
    Xp = np.round(clustered_rows(rng, Xp, n_copies, jitter))
    return halves_cooccurrence([sp.csr_matrix(X), sp.csr_matrix(Xp)], M, Q)


def compare_to_reference(cooc, cfg):
    try:
        want = reference_detect(cooc, cfg)
    except DetectionError as exc:
        with pytest.raises(DetectionError, match=re.escape(str(exc))):
            detect_novel_pairs(cooc, cfg)
        return None
    got = detect_novel_pairs(cooc, cfg)
    assert got.rows == want[0]
    assert got.solid_angles == want[1]
    return got


class TestDetectionMatchesReference:
    """The windowed scorer and the selection walk give exactly the brute-force
    reference's rows and solid angles on the same rank-K rows."""

    @given(seed=st.integers(0, 2**32 - 1), Q=st.integers(2, 5), frac=st.floats(0.3, 1.0),
           n_copies=st.integers(0, 6), jitter=st.sampled_from([0.0, 1e-3, 0.05]),
           K=st.integers(1, 3), P=st.integers(1, 60), zeta=st.floats(0.01, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_analytic(self, seed, Q, frac, n_copies, jitter, K, P, zeta):
        W = Q * (Q - 1)
        cooc = analytic_random(seed, Q, max(1, int(frac * W)), min(n_copies, W - 1), jitter)
        compare_to_reference(cooc, DetectionConfig(n_components=K, n_projections=P, zeta=zeta,
                                                   seed=seed % 7))

    @given(seed=st.integers(0, 2**32 - 1), Q=st.integers(3, 5), M=st.integers(4, 30),
           n_copies=st.integers(0, 6), jitter=st.sampled_from([0.0, 1.0]),
           K=st.integers(1, 3), P=st.integers(1, 60), zeta=st.floats(0.01, 4.0),
           window=st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_sampled(self, seed, Q, M, n_copies, jitter, K, P, zeta, window):
        cooc = sampled_random(seed, Q, M, n_copies, jitter)
        cfg = DetectionConfig(n_components=K, n_projections=P, zeta=zeta, seed=seed % 7)
        with mock.patch.object(estimator, "_WINDOW", window):
            compare_to_reference(cooc, cfg)

    @given(seed=st.integers(0, 2**32 - 1), Q=st.integers(3, 5), M=st.integers(4, 30),
           n_copies=st.integers(0, 6), jitter=st.sampled_from([0.0, 1.0]),
           K=st.integers(1, 3), P=st.integers(1, 60), zeta=st.floats(0.01, 4.0),
           sampled=st.booleans(), block=st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_many_tiles(self, seed, Q, M, n_copies, jitter, K, P, zeta, sampled, block):
        # distance blocks smaller than the window: the scorer's far-pair
        # search and its wins both take distances _BLOCK_ROWS rows at a time
        if sampled:
            cooc = sampled_random(seed, Q, M, n_copies, jitter)
        else:
            cooc = analytic_random(seed, Q, Q * (Q - 1) // 2, min(n_copies, 5), jitter / 20)
        cfg = DetectionConfig(n_components=K, n_projections=P, zeta=zeta, seed=seed % 7)
        with mock.patch.object(estimator, "_BLOCK_ROWS", block):
            compare_to_reference(cooc, cfg)

    def test_cases_reach_deep_windows_and_peerless_rows(self):
        # the properties above are only as strong as the cases they see:
        # make sure their generators produce windows deeper than the first
        # one and rows without peers that still leave other rows scored
        deepest, peerless = 0, 0
        for seed in range(40):
            cooc = sampled_random(seed, 4, 20, 4, 1.0)
            cfg = DetectionConfig(n_components=1 + seed % 2, n_projections=40,
                                  zeta=0.2 + 0.1 * seed, seed=seed)
            with mock.patch.object(estimator, "_WINDOW", 2):
                got = compare_to_reference(cooc, cfg)
            if got is not None:
                deepest = max(deepest, got.window)
                angles = set(got.solid_angles.values())
                peerless += 1.0 in angles and len(angles) > 1
        assert deepest > 4
        assert peerless > 0


def scorer_case(seed, n, K, kind, P):
    """Rows, their projections on P directions, and a zeta/2.

    "random" rows have mixed scales; "duplicated" rows repeat a few base
    rows, so they tie in every direction; "grid" rows and directions have
    small integer entries, so rows that differ tie in some directions and
    windows end inside runs of ties.  Their zeta/2 is one of the computed
    distances, or half of one, so that some distances sit exactly at
    zeta/2 and some pairs exactly 2 zeta/2 apart.  "midpoint" rows are
    three: a pair 2 zeta/2 apart and the point at zeta/2 from both, up to
    rounding, projected level with them up to rounding: the one place
    where the scorer's rounding slack decides."""
    rng = np.random.default_rng(seed)
    if kind == "midpoint":
        a = rng.standard_normal(K) * 10.0 ** rng.uniform(-1, 1)
        u = rng.standard_normal(K)
        b = a + rng.uniform(0.1, 2.0) * u
        # the pair's computed distance is exactly 2 zeta/2
        half = float(_distances(a[None, :], b[None, :])[0, 0]) / 2.0
        Y = np.stack([a, b, (a + b) / 2.0])
        # the triangle inequality keeps the point from lying within zeta/2
        # of both, except by rounding: move it by an ulp or two per entry
        # until the computed distances say it does, if they can
        for _ in range(200):
            if (_distances(Y[2:], Y[:2]) < half).all():
                break
            Y[2] = (a + b) / 2.0 + rng.integers(-2, 3, size=K) * np.spacing(Y[2])
        # orthogonal to b - a, so the three rows tie up to rounding
        dirs = rng.standard_normal((P, K))
        dirs -= np.outer(dirs @ u, u) / (u @ u)
        return Y, dirs @ Y.T, half
    if kind == "random":
        Y = rng.standard_normal((n, K)) * 10.0 ** rng.uniform(-1, 1, size=(n, 1))
        dirs = rng.standard_normal((P, K))
    elif kind == "duplicated":
        base = rng.standard_normal((int(rng.integers(1, 4)), K))
        Y = base[rng.integers(0, base.shape[0], size=n)]
        dirs = rng.standard_normal((P, K))
    else:
        Y = rng.integers(-2, 3, size=(n, K)).astype(float)
        dirs = rng.integers(-2, 3, size=(P, K)).astype(float)
    d = np.unique(_distances(Y, Y))
    d = d[d > 0] if (d > 0).any() else np.ones(1)
    half = d[rng.integers(d.size)] * (0.5 if rng.random() < 0.5 else 1.0)
    return Y, dirs @ Y.T, half


def first_far_pair(Y, p, half):
    """Where the scorer's window stops in direction p: the first position,
    in descending order, whose prefix holds two rows 2 half apart (the
    last if none), and how many rows lie at or above that position's."""
    order = np.argsort(-p, kind="stable")
    far = np.tril(_distances(Y[order], Y[order]) >= 2.0 * half, -1).any(axis=1)
    t = int(np.argmax(far)) if far.any() else p.size - 1
    return t, int(np.count_nonzero(p >= p[order[t]]))


class TestScorerMatchesBruteForce:
    """The windowed scorer wins and tops exactly the directions the O(n^2 P)
    scorer does."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), K=st.integers(1, 4),
           kind=st.sampled_from(["random", "duplicated", "grid", "midpoint"]),
           P=st.integers(1, 20), window=st.integers(1, 8),
           block=st.sampled_from([1, 2, 3, 7, 256]))
    @settings(max_examples=300, deadline=None)
    def test_same_wins(self, seed, n, K, kind, P, window, block):
        Y, proj, half = scorer_case(seed, n, K, kind, P)
        with mock.patch.object(estimator, "_WINDOW", window), \
                mock.patch.object(estimator, "_BLOCK_ROWS", block):
            wins, tops, deepest = _solid_angle_wins(Y, proj, half)
        want_wins, want_tops = brute_force_wins(Y, proj, half)
        assert np.array_equal(wins, want_wins) and np.array_equal(tops, want_tops)
        assert 1 <= deepest <= Y.shape[0]

    def test_cases_reach_ties_deep_windows_and_the_slack(self):
        # the property above is only as strong as the cases it sees: its
        # grid rows must end windows inside runs of ties, and its cases
        # must need windows past the first; its midpoint rows must be
        # computed within zeta/2 of both rows of a pair whose computed
        # distance reaches 2 zeta/2, and lie at or below both
        tie_runs, deep, slack = 0, 0, 0
        for seed in range(60):
            Y, proj, half = scorer_case(seed, 30, 2, "grid", 10)
            for p in proj:
                t, m = first_far_pair(Y, p, half)
                tie_runs += m > t + 1
                deep += t + 1 > 4
            Y, proj, half = scorer_case(seed, 3, 4, "midpoint", 10)
            near = _distances(Y[2:], Y[:2])[0] < half
            below = (proj[:, 2] <= proj[:, :2].min(axis=1)).any()
            slack += bool(near.all() and below)
        assert tie_runs > 0 and deep > 0 and slack > 0


class TestProjectionsInBlocks:
    """``_projections`` forms one gemm per block of directions: every row has
    the bits of the whole product that detection formed at once, and the
    scorer fed the blocks wins and tops what the brute-force scorer does on
    that product."""

    @pytest.mark.parametrize("P", [1, 2, estimator._DIRECTION_BLOCK - 1,
                                   estimator._DIRECTION_BLOCK, estimator._DIRECTION_BLOCK + 1,
                                   750])
    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_blocks_have_the_whole_products_bits(self, P, K):
        # numpy hands the whole product to gemv at P = 1 and to gemm
        # otherwise; a trailing block of one direction (P = block + 1)
        # must still give gemm's bits
        rng = np.random.default_rng(P * 10 + K)
        Y = clustered_rows(rng, rng.standard_normal((6, K)), 20, 0.05)
        directions = _projection_directions(3, P, K)
        whole = directions @ Y.T
        rows = list(_projections(directions, Y))
        assert len(rows) == P
        assert np.array(rows).tobytes() == whole.tobytes()
        spread = Y - Y.mean(axis=0)
        half = 0.35 * float(np.sqrt(np.mean(np.einsum("ij,ij->i", spread, spread))))
        wins, tops, _ = _solid_angle_wins(Y, _projections(directions, Y), half)
        want_wins, want_tops = brute_force_wins(Y, whole, half)
        assert np.array_equal(wins, want_wins) and np.array_equal(tops, want_tops)
        assert wins.sum() > 0


class TestRankK:
    """The subspace iteration against numpy's SVD of the dense slice."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), K=st.integers(1, 4),
           noise=st.sampled_from([0.0, 1e-6, 1e-2]), active=st.floats(0.5, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_svd(self, seed, n, K, noise, active):
        # a rank-K matrix with singular values 1..K times 10, plus noise
        rng = np.random.default_rng(seed)
        K = min(K, n)
        Ul = np.linalg.qr(rng.standard_normal((n, K)))[0]
        Vl = np.linalg.qr(rng.standard_normal((n, K)))[0]
        A = (Ul * 10.0 * np.arange(K, 0, -1)) @ Vl.T + noise * rng.standard_normal((n, n))
        act = np.sort(rng.choice(n, size=max(K, int(active * n)), replace=False))
        E = dense_factors(A)
        Y, sv, factors, iterations = _rank_k(E, act, K, seed % 7)
        U_ref, s_ref, Vt_ref = np.linalg.svd(A[np.ix_(act, act)])
        np.testing.assert_allclose(sv[:K], s_ref[:K], rtol=1e-9)
        if act.size > K:
            # a Ritz value from below
            assert sv.size == K + 1 and sv[K] <= s_ref[K] * (1 + 1e-9) + 1e-12
        else:
            assert sv.size == K
        U = Y / sv[:K]
        # the cosines of the principal angles between the two subspaces
        cosines = np.linalg.svd(U.T @ U_ref[:, :K], compute_uv=False)
        assert cosines.min() > 1.0 - 1e-6
        assert np.all(U[np.argmax(np.abs(U), axis=0), np.arange(K)] > 0)
        # E_K agrees with the slice's top K part on the slice, and rows
        # and columns outside it come from the same factors
        top = (U_ref[:, :K] * s_ref[:K]) @ Vt_ref[:K]
        everything = np.arange(n)
        EK = factors.block(everything, everything)
        np.testing.assert_allclose(EK[np.ix_(act, act)], top, atol=1e-7 * s_ref[0])
        assert factors.left.shape == factors.right.shape == (n, K)
        assert 1 <= iterations <= 40

    def test_exact_rank_k_sampled_slice(self):
        # the sampled halves of a corpus: numpy's SVD of the dense slice
        cooc = sampled_model_cooc(Q=5, K=2, phi=0.1, alpha=0.2, M=400, N=20, model_seed=3)
        act = np.flatnonzero(cooc.active)
        Y, sv, _, _ = _rank_k(cooc.E, act, 2, 0)
        s_ref = np.linalg.svd(full(cooc)[np.ix_(act, act)], compute_uv=False)
        np.testing.assert_allclose(sv[:2], s_ref[:2], rtol=1e-9)
        assert Y.shape == (act.size, 2)

    def test_reruns_are_bit_identical_and_seeds_agree(self):
        cooc = sampled_model_cooc(Q=5, K=2, phi=0.1, alpha=0.2, M=400, N=20, model_seed=3)
        act = np.flatnonzero(cooc.active)
        a, b, other = (_rank_k(cooc.E, act, 2, seed)[0] for seed in (4, 4, 5))
        assert np.array_equal(a, b)
        # another start block finds the same rows, signs included
        np.testing.assert_allclose(other, a, atol=1e-5 * np.abs(a).max())

    def test_rank_deficient_slice_is_named(self):
        # every user follows one ranking and compares each of its three
        # pairs once in each half, so every active row has the same profile
        # over users: the slice has rank 1, and a second component has no
        # singular value to divide by
        Q, M = 3, 40
        forward = [(1, 2), (1, 3), (2, 3)] * 2
        corpus = ComparisonCorpus(Q=Q, M=M, user=np.repeat(np.arange(M), len(forward)),
                                  winner=np.array([i for i, _ in forward] * M),
                                  loser=np.array([j for _, j in forward] * M))
        cooc = cooccurrence(split_halves(corpus))
        assert np.count_nonzero(cooc.active) == 3
        with pytest.raises(DetectionError, match=r"^the 3 candidate rows' co-occurrence slice "
                                                 r"has rank 1, below the 2 components asked for$"):
            detect_novel_pairs(cooc, DetectionConfig(n_components=2))
        assert len(detect_novel_pairs(cooc, DetectionConfig(n_components=1)).rows) == 1

    def test_unsettled_iteration_fails(self):
        cooc = sampled_model_cooc(Q=5, K=2, phi=0.1, alpha=0.2, M=400, N=20, model_seed=3)
        with mock.patch.object(estimator, "_SVD_MAX_ITER", 1):
            with pytest.raises(DetectionError, match="did not settle in 1 iterations"):
                detect_novel_pairs(cooc, DetectionConfig(n_components=2))


class TestRegression:
    def test_interior_row_recovers_its_coefficients(self):
        # row 2 = 0.3 row0 + 0.7 row1 with a consistent diagonal; the
        # simplex regression must find those weights exactly
        E = np.zeros((6, 6))
        E[:3, :3] = [[1.0, 0.0, 0.3],
                     [0.0, 1.0, 0.7],
                     [0.3, 0.7, 0.58]]
        active = np.array([True, True, True, False, False, False])
        cooc = CoocMatrix(dense_factors(E), active, 3)
        novel = NovelPairSet(rows=[0, 1], item_pairs=[(1, 2), (1, 3)], solid_angles={},
                             factors=cooc.E)
        B = estimate_ranking_matrix(cooc, np.ones(6), novel)
        C = B.entries
        # columns were normalized; undo with the known column sums
        assert np.allclose(C[:3, 0] * 1.3, [1.0, 0.0, 0.3], atol=5e-4)
        assert np.allclose(C[:3, 1] * 1.7, [0.0, 1.0, 0.7], atol=5e-4)
        assert np.all(C[3:] == 0)
        assert B.Q == 3

    def test_row_scale_shape_checked(self):
        cooc = analytic_toy([[1.0, 0.0], [0.0, 1.0]])
        novel = NovelPairSet(rows=[0, 1], item_pairs=[], solid_angles={}, factors=cooc.E)
        with pytest.raises(ValueError, match="row_scale"):
            estimate_ranking_matrix(cooc, np.ones(3), novel)

    def test_zero_scale_column_is_an_error(self):
        cooc = analytic_toy([[1.0, 0.0], [0.0, 1.0]])
        novel = NovelPairSet(rows=[0, 1], item_pairs=[], solid_angles={}, factors=cooc.E)
        with pytest.raises(RegressionError, match="no mass"):
            estimate_ranking_matrix(cooc, np.zeros(2), novel)

    def test_threads_match_serial(self):
        rng = np.random.default_rng(2)
        model = MixedMembershipModel(
            [MallowsComponent(Permutation.from_ranking((rng.permutation(6) + 1).tolist()), 0.2)
             for _ in range(2)],
            DirichletPrior(0.4))
        cooc, row_scale = analytic_cooccurrence(model)
        novel = detect_novel_pairs(cooc, DetectionConfig(n_components=2))
        a = estimate_ranking_matrix(cooc, row_scale, novel, threads=1)
        b = estimate_ranking_matrix(cooc, row_scale, novel, threads=4)
        assert np.array_equal(a.entries, b.entries)

    def test_result_keeps_the_counts_of_a_sampled_corpus(self):
        # postprocess refits the dispersions on them; analytic moments have none
        rng = np.random.default_rng(2)
        model = MixedMembershipModel(
            [MallowsComponent(Permutation.from_ranking((rng.permutation(6) + 1).tolist()), 0.2)
             for _ in range(2)],
            DirichletPrior(0.4))
        cooc, row_scale = analytic_cooccurrence(model)
        novel = detect_novel_pairs(cooc, DetectionConfig(n_components=2))
        assert estimate_ranking_matrix(cooc, row_scale, novel).corpus is None
        corpus, _ = generate(model, M=300, N=20, seed=5)
        split = split_halves(corpus)
        cooc = cooccurrence(split)
        novel = detect_novel_pairs(cooc, DetectionConfig(n_components=2))
        assert estimate_ranking_matrix(cooc, split.row_scale(), novel).corpus is corpus


def reference_project_to_simplex(v: np.ndarray) -> np.ndarray:
    """The one-vector simplex projection the row-wise one replaced."""
    v = np.maximum(v - v.max(), -2.0)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    cond = u - css / ind > 0
    rho = ind[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(v - theta, 0.0)


def reference_minimize(H, c, const, lips, epsilon, max_iter, hits):
    """One row's accelerated projected gradient loop; ``hits`` counts its
    restarts, flat exits and runs that reach max_iter."""
    K = c.size
    b = np.full(K, 1.0 / K)
    f = float(b @ H @ b - 2.0 * c @ b + const)
    y = b
    t = 1.0
    delta = np.inf
    for it in range(1, max_iter + 1):
        b_new = reference_project_to_simplex(y - (H @ y - c) / lips)
        f_new = float(b_new @ H @ b_new - 2.0 * c @ b_new + const)
        if f_new > f:
            hits["restart"] += 1
            b_new = reference_project_to_simplex(b - (H @ b - c) / lips)
            f_new = float(b_new @ H @ b_new - 2.0 * c @ b_new + const)
            t = 1.0
            if f_new > f:
                hits["flat"] += 1
                return b, it, 0.0, True
        delta = abs(f - f_new)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = b_new + ((t - 1.0) / t_next) * (b_new - b)
        b, f, t = b_new, f_new, t_next
        if delta <= epsilon * (1.0 + abs(f)):
            return b, it, delta, True
    hits["max_iter"] += 1
    return b, max_iter, delta, False


def reference_estimate_ranking_matrix(cooc, row_scale, novel, epsilon=1e-4, max_iter=10000,
                                      hits=None):
    """The regression with one solver loop per active row, on the dense
    matrix of ``novel.factors``."""
    hits = Counter() if hits is None else hits
    W = novel.factors.shape[0]
    E = novel.factors.block(np.arange(W), np.arange(W))
    row_scale = np.asarray(row_scale, dtype=float)
    if row_scale.shape != (W,):
        raise ValueError(f"row_scale must have shape ({W},)")
    sel = np.asarray(novel.rows, dtype=np.int64)
    K = sel.size

    En = E[np.ix_(sel, sel)]
    H = 0.5 * (En + En.T)
    evals = np.linalg.eigvalsh(H)
    if evals[0] < 0:
        hits["shift"] += 1
        H = H + (abs(evals[0]) + 1e-10) * np.eye(K)
        evals = np.linalg.eigvalsh(H)
    lips = max(float(evals[-1]), 1e-12)

    C = np.zeros((W, K))
    failures = []
    steps, residual = 0, 0.0
    for w in np.flatnonzero(cooc.active):
        c = 0.5 * (E[sel, w] + E[w, sel])
        b, it, delta, ok = reference_minimize(H, c, float(E[w, w]), lips, epsilon, max_iter,
                                              hits)
        if not ok:
            failures.append((w, delta))
        C[w] = row_scale[w] * b
        steps, residual = max(steps, it), max(residual, delta)
    if failures:
        worst = max(failures, key=lambda t: t[1])
        raise RegressionError(
            f"{len(failures)} row(s) failed to converge within {max_iter} iterations; "
            f"worst residual {worst[1]:.3e} at row {worst[0]}"
        )
    colsum = C.sum(axis=0)
    if np.any(colsum <= 0):
        raise RegressionError("a recovered column has no mass")
    return RankingMatrix(C / colsum, cooc.Q, steps=steps, residual=residual)


def regression_case(seed, source, Q, K, scale):
    """A co-occurrence matrix, a row scale and K distinct selected active
    rows (fewer if fewer rows are active).  ``source`` is "model" (analytic
    moments of a random mixture), "random" (a random matrix, whose H is
    mostly indefinite) or "sampled" (a random corpus, read through the
    rank-K factors that detection hands regression); ``scale`` is
    "random", "ones", "sparse" (zero on about half the rows) or "zeros".
    None for a sampled slice of rank below the selected rows, which
    detection refuses."""
    rng = np.random.default_rng(seed)
    W = Q * (Q - 1)
    if source == "model":
        comps = [MallowsComponent(Permutation.from_ranking((rng.permutation(Q) + 1).tolist()),
                                  float(phi))
                 for phi in rng.choice([0.0, 0.1, 0.5], size=rng.integers(1, 4))]
        cooc, _ = analytic_cooccurrence(MixedMembershipModel(comps, DirichletPrior(0.3)))
    elif source == "random":
        cooc = analytic_random(seed, Q, int(rng.integers(1, W + 1)), 2, 0.05)
    else:
        cooc = sampled_random(seed, Q, int(rng.integers(4, 30)), 2, 1.0)
    row_scale = {"random": rng.random(W), "ones": np.ones(W),
                 "sparse": rng.random(W) * (rng.random(W) < 0.5), "zeros": np.zeros(W)}[scale]
    act = np.flatnonzero(cooc.active)
    rows = rng.choice(act, size=min(K, act.size), replace=False)
    factors = cooc.E
    if source == "sampled":
        try:
            factors = _rank_k(cooc.E, act, rows.size, seed)[2]
        except DetectionError:
            return None
    return cooc, row_scale, NovelPairSet(rows=rows.tolist(), item_pairs=[], solid_angles={},
                                         factors=factors)


def compare_regression(cooc, row_scale, novel, epsilon, max_iter, hits=None):
    """The batched regression returns exactly the per-row reference's B,
    largest step count and largest last change, or raises the same
    exception with the same message; returns the reference's exception, if
    any."""
    try:
        want = reference_estimate_ranking_matrix(cooc, row_scale, novel, epsilon, max_iter,
                                                 hits)
    except (RegressionError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            estimate_ranking_matrix(cooc, row_scale, novel, epsilon, max_iter)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return exc
    got = estimate_ranking_matrix(cooc, row_scale, novel, epsilon, max_iter)
    assert (got.Q, got.steps, got.residual) == (want.Q, want.steps, want.residual)
    assert np.array_equal(got.entries, want.entries)
    return None


class TestRegressionMatchesReference:
    """All rows solved in one batch give the per-row loop's bits."""

    @given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(["model", "random", "sampled"]),
           Q=st.integers(3, 5), K=st.integers(1, 10),
           scale=st.sampled_from(["random", "ones", "sparse", "zeros"]),
           epsilon=st.sampled_from([1e-4, 1e-8, 0.0]), max_iter=st.sampled_from([1, 2, 5, 10000]))
    @settings(max_examples=150, deadline=None)
    def test_batched_matches_per_row(self, seed, source, Q, K, scale, epsilon, max_iter):
        case = regression_case(seed, source, Q, K, scale)
        assume(case is not None)
        compare_regression(*case, epsilon, max_iter)

    def test_cases_reach_every_exit(self):
        # the property above is only as strong as the cases it sees: its
        # generators must shift an indefinite H, restart the momentum, stop
        # at a flat point, fail at max_iter and leave a column without mass
        hits, errors = Counter(), ""
        for seed in range(24):
            source = ["model", "random", "sampled"][seed % 3]
            epsilon, max_iter = [(1e-4, 10000), (0.0, 10000), (0.0, 2)][seed // 3 % 3]
            scale = ["random", "zeros"][seed // 9 % 2]
            cooc, row_scale, novel = regression_case(seed, source, 4, 1 + seed % 10, scale)
            errors += f"{compare_regression(cooc, row_scale, novel, epsilon, max_iter, hits)}\n"
        assert min(hits["shift"], hits["restart"], hits["flat"], hits["max_iter"]) > 0
        assert "failed to converge within 2 iterations" in errors
        assert "a recovered column has no mass" in errors

    def test_rejects_bad_epsilon_and_max_iter(self):
        cooc = analytic_toy([[1.0, 0.0], [0.0, 1.0]])
        novel = NovelPairSet(rows=[0, 1], item_pairs=[], solid_angles={}, factors=cooc.E)
        for epsilon in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon"):
                estimate_ranking_matrix(cooc, np.ones(2), novel, epsilon=epsilon)
        for max_iter in (0, -3):
            with pytest.raises(ValueError, match="max_iter"):
                estimate_ranking_matrix(cooc, np.ones(2), novel, max_iter=max_iter)


def match_columns(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    # cost[i, j] = L1 distance between want column i and got column j
    cost = np.array([[np.abs(want[:, i] - got[:, j]).sum() for j in range(got.shape[1])]
                     for i in range(want.shape[1])])
    _, cols = linear_sum_assignment(cost)
    return got[:, cols]


class TestAnalyticPipeline:
    def full_recovery_error(self, Q, K, phi, seed=0):
        rng = np.random.default_rng(seed)
        comps = [MallowsComponent(Permutation.from_ranking((rng.permutation(Q) + 1).tolist()), phi)
                 for _ in range(K)]
        model = MixedMembershipModel(comps, DirichletPrior(0.3))
        cooc, row_scale = analytic_cooccurrence(model)
        novel = detect_novel_pairs(cooc, DetectionConfig(n_components=K))
        B_hat = estimate_ranking_matrix(cooc, row_scale, novel)
        B_true = model.observation_matrix()
        return float(np.max(np.abs(match_columns(B_hat.entries, B_true) - B_true)))

    def test_zero_dispersion_is_exact(self):
        assert self.full_recovery_error(Q=8, K=3, phi=0.0) <= 1e-8

    def test_small_dispersion_is_near_exact(self):
        assert self.full_recovery_error(Q=8, K=2, phi=0.1) <= 1e-3

    @given(seed=st.integers(0, 2**32 - 1), Q=st.integers(3, 6), K=st.integers(1, 3),
           phi=st.sampled_from([0.0, 0.05, 0.1, 0.2]), alpha=st.sampled_from([0.1, 0.3, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_rankings_match_the_oracle(self, seed, Q, K, phi, alpha):
        # exact moments of a model whose every component owns a pair row
        # with ratio 0.1 or less: detection and regression on the rank-K
        # part recover the rankings that enumeration over all Q! gives
        rng = np.random.default_rng(seed)
        comps = [MallowsComponent(Permutation.from_ranking((rng.permutation(Q) + 1).tolist()),
                                  phi) for _ in range(K)]
        beta = brute_force_beta(comps)
        assume(check_separability(beta, 0.1).separable)
        cooc, row_scale = analytic_cooccurrence(MixedMembershipModel(comps, DirichletPrior(alpha)))
        novel = detect_novel_pairs(cooc, DetectionConfig(n_components=K))
        est = postprocess(estimate_ranking_matrix(cooc, row_scale, novel))
        want = sorted(list(copeland_rank(beta[:, k] > 0.5, Q).ranking) for k in range(K))
        assert sorted(list(r.ranking) for r in est.rankings) == want

    def test_zero_dispersion_selects_pure_rows(self):
        # when every component has a pair only it orders one way, each
        # selected row must be fully explained by a single component
        for seed in range(50):
            rng = np.random.default_rng(seed)
            comps = [MallowsComponent(
                Permutation.from_ranking((rng.permutation(7) + 1).tolist()), 0.0)
                for _ in range(3)]
            beta = build_ranking_matrix(comps)
            if check_separability(beta, 0.0).separable:
                break
        else:
            pytest.fail("no separable reference triple found")
        model = MixedMembershipModel(comps, DirichletPrior(0.3))
        cooc, row_scale = analytic_cooccurrence(model)
        novel = detect_novel_pairs(cooc, DetectionConfig(n_components=3))
        hit = set()
        for w in novel.rows:
            favored = np.flatnonzero(beta[w] > 0.5)
            assert favored.size == 1
            hit.add(int(favored[0]))
        assert hit == {0, 1, 2}


def sampled_model_cooc(Q, K, phi, alpha, M, N, model_seed, corpus_seed=15):
    rng = np.random.default_rng(model_seed)
    comps = [MallowsComponent(Permutation.from_ranking((rng.permutation(Q) + 1).tolist()), phi)
             for _ in range(K)]
    model = MixedMembershipModel(comps, DirichletPrior(alpha))
    corpus, _ = generate(model, M=M, N=N, seed=corpus_seed)
    return cooccurrence(split_halves(corpus))


class TestSampledPipeline:
    def test_detection_memory_stays_near_the_row_slice(self):
        # n x n temporaries (gram, distances, masks) would each add a
        # multiple of the row slice; projections add 2 P / n of it
        cooc = sampled_model_cooc(Q=44, K=2, phi=0.1, alpha=0.1, M=800, N=100,
                                  model_seed=0, corpus_seed=1)
        cfg = DetectionConfig(n_components=2)
        tracemalloc.start()
        try:
            novel = detect_novel_pairs(cooc, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(novel.solid_angles)
        assert 1400 <= n <= 1600
        assert peak < 1.5 * (8 * n * n)

    def test_detection_peak_does_not_grow_with_projections(self):
        # the projections are formed a block of directions at a time, so
        # ten times the default 150 K directions add only their K
        # coordinates each; the whole P x n product would add 8 P n bytes
        # (15.6 against 2.8 MB here)
        cooc = sampled_model_cooc(Q=30, K=2, phi=0.1, alpha=0.1, M=400, N=100,
                                  model_seed=0, corpus_seed=1)
        peaks = []
        for P in (300, 3000):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                detect_novel_pairs(cooc, DetectionConfig(n_components=2, n_projections=P))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks

    def test_duplicate_vertex_rows_not_selected_twice(self):
        # at dispersion zero many rows share one underlying extreme point;
        # the noise-aware dedupe must place one selection per component
        rng = np.random.default_rng(10)
        Q, K = 6, 2
        comps = [MallowsComponent(Permutation.from_ranking((rng.permutation(Q) + 1).tolist()), 0.0)
                 for _ in range(K)]
        model = MixedMembershipModel(comps, DirichletPrior(0.1))
        corpus, _ = generate(model, M=3000, N=40, seed=15)
        split = split_halves(corpus)
        cooc = cooccurrence(split)
        novel = detect_novel_pairs(cooc, DetectionConfig(n_components=K))
        beta = model.ranking_matrix()
        favored = [int(np.argmax(beta[w])) for w in novel.rows]
        assert sorted(favored) == [0, 1]
        B_hat = estimate_ranking_matrix(cooc, split.row_scale(), novel)
        B_true = model.observation_matrix()
        err = np.max(np.abs(match_columns(B_hat.entries, B_true) - B_true))
        assert err < 0.05
