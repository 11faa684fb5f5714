"""Extreme-row detection and simplex-constrained recovery of B."""

import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, minimize

from mallowmix import estimator, pairs
from mallowmix.estimator import (
    DetectionConfig,
    DetectionError,
    NovelPairSet,
    RegressionError,
    _project_rows,
    _projection_directions,
    _row_noise,
    detect_novel_pairs,
    estimate_ranking_matrix,
)
from mallowmix.generator import DirichletPrior, MixedMembershipModel, generate
from mallowmix.mallows import MallowsComponent, RankingMatrix, build_ranking_matrix
from mallowmix.moments import (
    CoocMatrix,
    SplitCounts,
    analytic_cooccurrence,
    cooccurrence,
    split_halves,
)
from mallowmix.permutations import Permutation
from mallowmix.separability import check_separability
from test_moments import dense_factors, full


def analytic_toy(E, Q=2):
    E = np.asarray(E, dtype=float)
    return CoocMatrix(dense_factors(E), np.ones(E.shape[0], dtype=bool), 0, Q)


def reference_detect(cooc: CoocMatrix, config: DetectionConfig):
    """Detection with dense n x n distances and a per-row max over each
    row's peers in every direction: the O(n^2 P) form of the scoring rule.
    Returns the selected rows and the solid angles."""
    K = config.n_components
    candidate = cooc.active.copy()
    if cooc.row_counts is not None and config.min_count_fraction > 0 and candidate.any():
        floor = config.min_count_fraction * float(np.median(cooc.row_counts[candidate]))
        candidate &= cooc.row_counts >= floor
    act = np.flatnonzero(candidate)
    if act.size < K:
        raise DetectionError(f"only {act.size} candidate rows, need at least {K}")
    sampled = cooc.split is not None
    E = full(cooc)
    rows = E[np.ix_(act, act)] if sampled else E[act]
    n = act.size

    sq = np.einsum("ij,ij->i", rows, rows)
    # The Gram product of the rows in ascending norm order, the order in
    # which detection tiles them: permuted operands can move an entry by
    # its last bit, and so decide a pair whose distance lies at zeta/2.
    order = np.argsort(sq, kind="stable")
    gram = np.empty((n, n))
    gram[np.ix_(order, order)] = rows[order] @ rows[order].T
    if config.doubled_distance_rule:
        d2 = sq[:, None] - 4.0 * gram + 4.0 * sq[None, :]
    else:
        d2 = sq[:, None] - 2.0 * gram + sq[None, :]
    dist = np.sqrt(np.maximum(d2, 0.0))
    J = dist >= config.zeta / 2.0
    np.fill_diagonal(J, False)

    P = config.resolved_projections
    W = cooc.E.shape[1]
    # Directions restricted to the row coordinates as one contiguous array,
    # as detection builds them: a strided operand takes other BLAS kernels,
    # which can give identical rows projections differing in the last bit.
    dirs = _projection_directions(config.seed, P, W, act if sampled else np.arange(W))
    proj = rows @ dirs.T
    qhat = np.empty(n)
    for i in range(n):
        peers = J[i]
        if not peers.any():
            qhat[i] = 1.0
            continue
        peak = proj[peers].max(axis=0)
        qhat[i] = float(np.mean(proj[i] > peak))

    if sampled:
        nu = _row_noise(cooc, act, sq)
        noise_floor = 3.0 * np.hypot(nu[:, None], nu[None, :])
        distinct = J & (dist >= noise_floor)
    else:
        distinct = J

    order = np.lexsort((act, -qhat))
    selected: list[int] = []
    for cand in order:
        if all(distinct[s, cand] for s in selected):
            selected.append(int(cand))
            if len(selected) == K:
                break
    if len(selected) < K and distinct is not J:
        for cand in order:
            if cand in selected:
                continue
            if all(J[s, cand] for s in selected):
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


def radius_of_isolation(cooc: CoocMatrix) -> float:
    """The smallest distance within which some active row has every other
    active row: a zeta/2 above it leaves that row without peers."""
    act = np.flatnonzero(cooc.active)
    E = full(cooc)
    rows = E[np.ix_(act, act)] if cooc.split is not None else E[act]
    dist = np.sqrt(((rows[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2))
    return float(dist.max(axis=1).min()) if act.size > 1 else 1.0


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
        E = np.full((3, 3), 0.5)
        with pytest.raises(DetectionError, match="mutually separated"):
            detect_novel_pairs(analytic_toy(E), DetectionConfig(n_components=2))

    def test_rarely_observed_rows_are_not_candidates(self):
        # row 2 is a wild outlier backed by a single observation; the
        # count floor must keep it out of the candidate set
        E = np.array([[1.0, 0.0, 3.0],
                      [0.0, 1.0, 3.0],
                      [3.0, 3.0, 9.0]])
        counts = np.array([100, 100, 1])
        cooc = CoocMatrix(dense_factors(E), np.ones(3, dtype=bool), 50, 2, row_counts=counts)
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
        assert novel.fallback_used is False
        assert novel.shortlist_depth == 1  # every row is a peer of every other
        # at zeta/2 = 0.75 the midpoint (0.71 from each vertex) has no
        # peers and scores 1; each vertex keeps the other as its one peer
        # and has one non-peer
        novel = detect_novel_pairs(analytic_toy(E), DetectionConfig(n_components=1, zeta=1.5))
        assert novel.shortlist_depth == 2
        assert novel.rows == [2] and novel.solid_angles[2] == 1.0
        assert novel.solid_angles[0] + novel.solid_angles[1] == pytest.approx(1.0, abs=1e-12)

    def test_no_row_with_peers_scores_one(self):
        E = np.array([[1.0, 0.0], [0.9, 0.1]])
        novel = detect_novel_pairs(analytic_toy(E), DetectionConfig(n_components=1, zeta=1.0))
        assert novel.shortlist_depth == 0
        assert novel.solid_angles == {0: 1.0, 1: 1.0}
        assert novel.rows == [0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectionConfig(n_components=0)
        with pytest.raises(ValueError):
            DetectionConfig(n_components=1, zeta=0.0)
        with pytest.raises(ValueError):
            DetectionConfig(n_components=1, n_projections=0)
        with pytest.raises(ValueError):
            DetectionConfig(n_components=1, min_count_fraction=-0.1)
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
    return CoocMatrix(dense_factors(E), active, 0, Q)


def sampled_random(seed, Q, M, n_copies, jitter):
    rng = np.random.default_rng(seed)
    W = Q * (Q - 1)
    X = rng.poisson(0.6, size=(W, M)).astype(float)
    Xp = rng.poisson(0.6, size=(W, M)).astype(float)
    # Copies of a second-half row give (near-)duplicate rows of E-hat.
    Xp = np.round(clustered_rows(rng, Xp, n_copies, jitter))
    return cooccurrence(SplitCounts(sp.csr_matrix(X), sp.csr_matrix(Xp), M, Q))


def half_between_distances(rows: np.ndarray, doubled: bool, gap: float) -> float:
    """A half-zeta midway between two neighbouring distances between rows
    (or above the largest), the pair picked by ``gap`` in [0, 1];
    neighbours closer than 1e-6 of the largest are skipped."""
    scale = 2.0 if doubled else 1.0
    dist = np.sqrt(((rows[:, None, :] - scale * rows[None, :, :]) ** 2).sum(axis=2))
    d = np.unique(np.concatenate([[0.0], dist[~np.eye(rows.shape[0], dtype=bool)]]))
    edges = np.append(d, 2.0 * d[-1] + 1.0)
    lo = np.flatnonzero(np.diff(edges) > 1e-6 * edges[-1])
    k = lo[min(int(gap * lo.size), lo.size - 1)]
    return (edges[k] + edges[k + 1]) / 2.0


def zeta_between_distances(cooc: CoocMatrix, doubled: bool, gap: float) -> float:
    """A zeta whose half lies midway between two neighbouring distances
    between active rows (see ``half_between_distances``)."""
    act = np.flatnonzero(cooc.active)
    E = full(cooc)
    rows = E[np.ix_(act, act)] if cooc.split is not None else E[act]
    return 2.0 * half_between_distances(rows, doubled, gap)


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


def detect_both(cooc, K, P, zeta_scale, doubled, seed):
    zeta = 2.0 * zeta_scale * radius_of_isolation(cooc)
    return compare_to_reference(cooc, DetectionConfig(
        n_components=K, n_projections=P, zeta=max(zeta, 1e-9), seed=seed,
        doubled_distance_rule=doubled))


class TestDetectionMatchesReference:
    """The shortlist scorer, blocked distances and on-demand selection
    distances give exactly the dense reference's rows and solid angles."""

    @given(seed=st.integers(0, 2**32 - 1), Q=st.integers(2, 5), frac=st.floats(0.3, 1.0),
           n_copies=st.integers(0, 6), jitter=st.sampled_from([0.0, 1e-3, 0.05]),
           K=st.integers(1, 3), P=st.integers(1, 60), zeta_scale=st.floats(0.0, 1.3),
           doubled=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_analytic(self, seed, Q, frac, n_copies, jitter, K, P, zeta_scale, doubled):
        W = Q * (Q - 1)
        cooc = analytic_random(seed, Q, max(1, int(frac * W)), min(n_copies, W - 1), jitter)
        detect_both(cooc, K, P, zeta_scale, doubled, seed % 7)

    @given(seed=st.integers(0, 2**32 - 1), Q=st.integers(3, 5), M=st.integers(4, 30),
           n_copies=st.integers(0, 6), jitter=st.sampled_from([0.0, 1.0]),
           K=st.integers(1, 3), P=st.integers(1, 60), zeta_scale=st.floats(0.0, 1.3),
           doubled=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sampled(self, seed, Q, M, n_copies, jitter, K, P, zeta_scale, doubled):
        cooc = sampled_random(seed, Q, M, n_copies, jitter)
        detect_both(cooc, K, P, zeta_scale, doubled, seed % 7)

    @given(seed=st.integers(0, 2**32 - 1), Q=st.integers(3, 5), M=st.integers(4, 30),
           n_copies=st.integers(0, 6), jitter=st.sampled_from([0.0, 1.0]),
           K=st.integers(1, 3), P=st.integers(1, 60), gap=st.floats(0.0, 1.0),
           doubled=st.booleans(), sampled=st.booleans(), block=st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_many_tiles(self, seed, Q, M, n_copies, jitter, K, P, gap, doubled, sampled,
                        block):
        # Tiles smaller than the matrix: Gram tiles read both ways, masks
        # waiting for their rows, directions scored in chunks.  Those Gram
        # entries come from other BLAS calls than the reference's single
        # product and may differ from it in the last bit, so zeta/2 is put
        # midway between two neighbouring distances, never on one.
        if sampled:
            cooc = sampled_random(seed, Q, M, n_copies, jitter)
        else:
            cooc = analytic_random(seed, Q, Q * (Q - 1) // 2, min(n_copies, 5), jitter / 20)
        cfg = DetectionConfig(n_components=K, n_projections=P, seed=seed % 7,
                              zeta=zeta_between_distances(cooc, doubled, gap),
                              doubled_distance_rule=doubled)
        with mock.patch.object(estimator, "_BLOCK_ROWS", block):
            compare_to_reference(cooc, cfg)

    def test_cases_reach_deep_shortlists_and_peerless_rows(self):
        # the property above is only as strong as the cases it sees: make
        # sure its generators produce shortlists deeper than one row and
        # rows without peers that still leave other rows scored
        depths, peerless = set(), 0
        for seed in range(40):
            cooc = sampled_random(seed, 4, 20, 4, 1.0)
            got = detect_both(cooc, 1, 40, 0.3 + 0.025 * seed, seed % 2 == 1, seed)
            if got is not None:
                depths.add(got.shortlist_depth)
                peerless += bool(got.shortlist_depth) and 1.0 in got.solid_angles.values()
        assert max(depths) > 2
        assert peerless > 0


def reference_near_sets(rows, sq, half, doubled):
    """Near sets from every tile of the upper triangle, rows in index
    order: ``_near_sets`` before it skipped tiles by their norm gap."""
    n = rows.shape[0]
    B = estimator._BLOCK_ROWS
    tiles = range(-(-n // B))
    masks = [[] for _ in tiles]
    counts = np.empty(n, dtype=np.int64)
    keys = []
    for a in tiles:
        A = slice(a * B, (a + 1) * B)
        for b in tiles[a:]:
            Bs = slice(b * B, (b + 1) * B)
            gram = rows[A] @ rows[Bs].T
            masks[a].append(~(estimator._from_gram(gram, sq[A], sq[Bs], doubled) >= half))
            if b != a:
                masks[b].append(~(estimator._from_gram(gram.T, sq[Bs], sq[A], doubled) >= half))
        near = np.hstack(masks[a])
        masks[a] = []
        lo = a * B
        hi = lo + near.shape[0]
        near[np.arange(hi - lo), np.arange(lo, hi)] = False
        counts[lo:hi] = near.sum(axis=1)
        near[counts[lo:hi] == n - 1] = False
        i, j = np.nonzero(near)
        keys.append((i + lo) * n + j)
    keys.append([n * n])
    return counts, np.concatenate(keys)


def slack_bound(d, sq_i, sq_j, doubled):
    """The rounding slack of ``_near_sets`` for rows of length d."""
    c = 2.0 if doubled else 1.0
    return np.sqrt(2.0 * (d + 2) * np.finfo(float).eps * c * c * (sq_i + sq_j))


def near_set_case(seed, n, d, kind, doubled, gap, offsets):
    """Rows and a half-zeta for ``_near_sets``.

    "random" rows of mixed scales and "tied" rows (a few base rows under
    random sign flips, so their squared norms tie exactly, and duplicates)
    get a half midway between two distances.  "parallel" rows are
    multiples t u of one vector, in pairs whose norm gap |t_i - c t_j| |u|
    is half plus a drawn multiple of the largest slack (``offsets``), so
    their distance equals the gap up to rounding."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        rows = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-1, 1, size=(n, 1))
    elif kind == "tied":
        base = rng.standard_normal((int(rng.integers(1, 4)), d))
        base *= 10.0 ** rng.uniform(-1, 1, size=(base.shape[0], 1))
        rows = base[rng.integers(0, base.shape[0], size=n)]
        rows = rows * rng.choice([-1.0, 1.0], size=(n, d))
    else:
        c = 2.0 if doubled else 1.0
        u = rng.standard_normal(d)
        nu = float(np.linalg.norm(u))
        hf = rng.uniform(0.05, 0.5)
        s0 = float(slack_bound(d, 16 * nu * nu, 16 * nu * nu, doubled))  # norms below 4 |u|
        t = []
        for _ in range(-(-n // 2)):
            anchor = rng.uniform(1.0, 3.0)
            m = offsets[int(rng.integers(len(offsets)))]
            t += [anchor, (anchor + hf + m * s0 / nu) / c]
        rows = np.array(t[:n])[:, None] * u[None, :]
        rows = rows[rng.permutation(n)]
        return rows, hf * nu
    return rows, half_between_distances(rows, doubled, gap)


class TestNearSetsMatchReference:
    """Tiles skipped by their norm gap change no near set."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 12),
           kind=st.sampled_from(["random", "tied", "parallel"]), doubled=st.booleans(),
           gap=st.floats(0.0, 1.0), block=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_counts_and_keys(self, seed, n, d, kind, doubled, gap, block):
        # Within one tile pair the Gram entries may come from other BLAS
        # calls than the reference's and differ in the last bit, so distances
        # at half within rounding are drawn only with one-row tiles, where
        # both sides compute every entry with the same dot product.
        offsets = [-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 2.5, 3.0]
        if block == 1:
            offsets += [-1e-9, 0.0, 1e-9, 1.9, 2.0 + 1e-9]
        rows, half = near_set_case(seed, n, d, kind, doubled, gap, offsets)
        sq = np.einsum("ij,ij->i", rows, rows)
        with mock.patch.object(estimator, "_BLOCK_ROWS", block):
            want_counts, want_keys = reference_near_sets(rows, sq, half, doubled)
            counts, keys, computed, total = estimator._near_sets(rows, sq, half, doubled)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(keys, want_keys)
        tiles = -(-n // block)
        assert total == tiles * (tiles + 1) // 2
        assert (0 if doubled else tiles) <= computed <= total

    def test_cases_skip_tiles(self):
        # the property above is only as strong as the cases it sees: its
        # parallel rows must leave tiles out under both rules
        for doubled in (False, True):
            skipped = 0
            for seed in range(20):
                rows, half = near_set_case(seed, 24, 5, "parallel", doubled, 0.0, [0.5, 3.0])
                sq = np.einsum("ij,ij->i", rows, rows)
                with mock.patch.object(estimator, "_BLOCK_ROWS", 2):
                    _, _, computed, total = estimator._near_sets(rows, sq, half, doubled)
                skipped += total - computed
            assert skipped > 0

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 400), doubled=st.booleans(),
           m=st.sampled_from([2.0, 2.0 + 1e-9, 2.01, 2.5]), spread=st.floats(0.0, 12.0))
    @settings(max_examples=200, deadline=None)
    def test_no_pair_beyond_the_slack_is_near(self, seed, d, doubled, m, spread):
        # a pair whose norms differ by half plus twice its slack is far
        # under the full Gram product, however the row's entries spread
        rng = np.random.default_rng(seed)
        c = 2.0 if doubled else 1.0
        u = rng.standard_normal(d) * 10.0 ** rng.uniform(-spread, spread, size=d)
        u += 1e-3 * rng.standard_normal(d) * np.abs(u)  # not quite parallel
        nu = float(np.linalg.norm(u))
        half = rng.uniform(1e-6, 0.5) * nu
        t_i = rng.uniform(1.0, 3.0)
        rows = np.stack([t_i * u, rng.uniform(0.1, 4.0) * u])
        sq = np.einsum("ij,ij->i", rows, rows)
        norms = np.sqrt(sq)
        slack = slack_bound(d, sq[0], sq[1], doubled)
        t_j = (norms[0] + half + m * slack) / (c * nu)
        rows[1] = t_j * u
        sq = np.einsum("ij,ij->i", rows, rows)
        norms = np.sqrt(sq)
        slack = slack_bound(d, sq[0], sq[1], doubled)
        if abs(norms[0] - c * norms[1]) < half + 2.0 * slack:
            return
        dist = estimator._from_gram(rows @ rows.T, sq, sq, doubled)
        assert dist[0, 1] >= half


class TestRegression:
    def test_interior_row_recovers_its_coefficients(self):
        # row 2 = 0.3 row0 + 0.7 row1 with a consistent diagonal; the
        # simplex regression must find those weights exactly
        E = np.zeros((6, 6))
        E[:3, :3] = [[1.0, 0.0, 0.3],
                     [0.0, 1.0, 0.7],
                     [0.3, 0.7, 0.58]]
        active = np.array([True, True, True, False, False, False])
        cooc = CoocMatrix(dense_factors(E), active, 0, 3)
        novel = NovelPairSet(rows=[0, 1], item_pairs=[(1, 2), (1, 3)], solid_angles={})
        B = estimate_ranking_matrix(cooc, np.ones(6), novel)
        C = B.entries
        # columns were normalized; undo with the known column sums
        assert np.allclose(C[:3, 0] * 1.3, [1.0, 0.0, 0.3], atol=5e-4)
        assert np.allclose(C[:3, 1] * 1.7, [0.0, 1.0, 0.7], atol=5e-4)
        assert np.all(C[3:] == 0)
        assert B.kind == "B" and B.Q == 3

    def test_row_scale_shape_checked(self):
        cooc = analytic_toy([[1.0, 0.0], [0.0, 1.0]])
        novel = NovelPairSet(rows=[0, 1], item_pairs=[], solid_angles={})
        with pytest.raises(ValueError, match="row_scale"):
            estimate_ranking_matrix(cooc, np.ones(3), novel)

    def test_zero_scale_column_is_an_error(self):
        cooc = analytic_toy([[1.0, 0.0], [0.0, 1.0]])
        novel = NovelPairSet(rows=[0, 1], item_pairs=[], solid_angles={})
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
    """The regression with one solver loop per active row."""
    hits = Counter() if hits is None else hits
    E = full(cooc)
    W = E.shape[0]
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
    for w in np.flatnonzero(cooc.active):
        c = 0.5 * (E[sel, w] + E[w, sel])
        b, _, delta, ok = reference_minimize(H, c, float(E[w, w]), lips, epsilon, max_iter,
                                             hits)
        if not ok:
            failures.append((w, delta))
        C[w] = row_scale[w] * b
    if failures:
        worst = max(failures, key=lambda t: t[1])
        raise RegressionError(
            f"{len(failures)} row(s) failed to converge within {max_iter} iterations; "
            f"worst residual {worst[1]:.3e} at row {worst[0]}"
        )
    colsum = C.sum(axis=0)
    if np.any(colsum <= 0):
        raise RegressionError("a recovered column has no mass")
    return RankingMatrix(C / colsum, cooc.Q, "B")


def regression_case(seed, source, Q, K, scale):
    """A co-occurrence matrix, a row scale and K distinct selected active
    rows (fewer if fewer rows are active).  ``source`` is "model" (analytic
    moments of a random mixture), "random" (a random matrix, whose H is
    mostly indefinite) or "sampled"; ``scale`` is "random", "ones",
    "sparse" (zero on about half the rows) or "zeros"."""
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
    return cooc, row_scale, NovelPairSet(rows=rows.tolist(), item_pairs=[], solid_angles={})


def compare_regression(cooc, row_scale, novel, epsilon, max_iter, hits=None):
    """The batched regression returns exactly the per-row reference's B, or
    raises the same exception with the same message; returns the
    reference's exception, if any."""
    try:
        want = reference_estimate_ranking_matrix(cooc, row_scale, novel, epsilon, max_iter,
                                                 hits)
    except (RegressionError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            estimate_ranking_matrix(cooc, row_scale, novel, epsilon, max_iter)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return exc
    got = estimate_ranking_matrix(cooc, row_scale, novel, epsilon, max_iter)
    assert got.kind == want.kind and got.Q == want.Q
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
        cooc, row_scale, novel = regression_case(seed, source, Q, K, scale)
        compare_regression(cooc, row_scale, novel, epsilon, max_iter)

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
        novel = NovelPairSet(rows=[0, 1], item_pairs=[], solid_angles={})
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
        B_true = model.observation_matrix().entries
        return float(np.max(np.abs(match_columns(B_hat.entries, B_true) - B_true)))

    def test_zero_dispersion_is_exact(self):
        assert self.full_recovery_error(Q=8, K=3, phi=0.0) <= 1e-8

    def test_small_dispersion_is_near_exact(self):
        assert self.full_recovery_error(Q=8, K=2, phi=0.1) <= 1e-3

    def test_zero_dispersion_selects_pure_rows(self):
        # when every component has a pair only it orders one way, each
        # selected row must be fully explained by a single component
        for seed in range(50):
            rng = np.random.default_rng(seed)
            comps = [MallowsComponent(
                Permutation.from_ranking((rng.permutation(7) + 1).tolist()), 0.0)
                for _ in range(3)]
            beta = build_ranking_matrix(comps).entries
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
    def test_noise_floor_fills_k_without_fallback(self):
        cooc = sampled_model_cooc(Q=6, K=2, phi=0.0, alpha=0.1, M=3000, N=40, model_seed=10)
        novel = detect_novel_pairs(cooc, DetectionConfig(n_components=2))
        assert novel.fallback_used is False
        assert novel.rows == reference_detect(cooc, DetectionConfig(n_components=2))[0]

    def test_fallback_tops_up_the_noise_floor_dedupe(self):
        cooc = sampled_model_cooc(Q=6, K=3, phi=0.2, alpha=0.3, M=500, N=30, model_seed=4)
        cfg = DetectionConfig(n_components=3)
        novel = detect_novel_pairs(cooc, cfg)
        assert novel.fallback_used is True
        assert len(novel.rows) == 3
        assert novel.rows == reference_detect(cooc, cfg)[0]

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
        beta = model.ranking_matrix().entries
        favored = [int(np.argmax(beta[w])) for w in novel.rows]
        assert sorted(favored) == [0, 1]
        B_hat = estimate_ranking_matrix(cooc, split.row_scale(), novel)
        B_true = model.observation_matrix().entries
        err = np.max(np.abs(match_columns(B_hat.entries, B_true) - B_true))
        assert err < 0.05
