"""From a recovered observation matrix to rankings and dispersions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mallowmix import pairs
from mallowmix.generator import DirichletPrior, MixedMembershipModel
from mallowmix.mallows import (
    MallowsComponent,
    RankingMatrix,
    build_ranking_matrix,
    pairwise_marginal,
)
from mallowmix.permutations import Permutation, kendall_tau
from mallowmix.post import (
    PostprocessError,
    estimate_dispersion,
    estimated_model_to_dict,
    postprocess,
    recover_beta,
    recover_rankings,
    round_relations,
)


def observation_from_beta(beta: np.ndarray, Q: int) -> RankingMatrix:
    """Uniform pair usage times beta, column-normalized: a valid B."""
    C = beta / pairs.num_unordered(Q)
    return RankingMatrix(C / C.sum(axis=0), Q)


def exact_estimate(model: MixedMembershipModel, corpus=None) -> RankingMatrix:
    """The model's own observation matrix as the estimate B-hat that
    ``postprocess`` reads, keeping ``corpus`` for the dispersion refit."""
    return RankingMatrix(model.observation_matrix(), model.Q, corpus)


class TestRecoverBeta:
    def test_ratio_of_directions(self):
        Q = 3
        B = np.zeros((pairs.num_pairs(Q), 1))
        B[pairs.pair_row(1, 2, Q), 0] = 0.08
        B[pairs.pair_row(2, 1, Q), 0] = 0.02
        B[pairs.pair_row(1, 3, Q), 0] = 0.45
        B[pairs.pair_row(3, 1, Q), 0] = 0.45
        with np.errstate(invalid="ignore"):
            beta, unresolved = recover_beta(RankingMatrix(B, Q))
        assert beta[pairs.pair_row(1, 2, Q), 0] == pytest.approx(0.8)
        assert beta[pairs.pair_row(2, 1, Q), 0] == pytest.approx(0.2)
        assert beta[pairs.pair_row(1, 3, Q), 0] == pytest.approx(0.5)
        # pair (2, 3) has no mass either way
        assert np.isnan(beta[pairs.pair_row(2, 3, Q), 0])
        assert unresolved == 1

    def test_scale_invariance(self):
        # beta depends only on the ratio within a pair, not the pair usage
        comps = [MallowsComponent(Permutation.from_ranking([3, 1, 2, 4]), 0.4)]
        beta_true = build_ranking_matrix(comps)
        for scale in (1.0, 0.01):
            C = scale * beta_true / beta_true.sum(axis=0)
            got, unresolved = recover_beta(RankingMatrix(C / C.sum(axis=0), 4))
            assert unresolved == 0
            assert np.allclose(got, beta_true, atol=1e-12)


class TestRounding:
    def test_majority_direction_wins(self):
        Q = 2
        beta = np.array([[0.7], [0.3]])
        wins, ties = round_relations(beta, Q)
        assert ties == 0
        assert wins[pairs.pair_row(1, 2, Q), 0]
        assert not wins[pairs.pair_row(2, 1, Q), 0]

    def test_exact_tie_goes_to_smaller_id(self):
        Q = 2
        wins, ties = round_relations(np.array([[0.5], [0.5]]), Q)
        assert ties == 1
        assert wins[pairs.pair_row(1, 2, Q), 0]

    def test_nan_pairs_left_undecided(self):
        Q = 2
        wins, ties = round_relations(np.array([[np.nan], [np.nan]]), Q)
        assert ties == 0
        assert not wins.any()

    def test_rankings_from_wins(self):
        comps = [MallowsComponent(Permutation.from_ranking([2, 3, 1]), 0.3),
                 MallowsComponent(Permutation.from_ranking([1, 3, 2]), 0.0)]
        beta = build_ranking_matrix(comps)
        wins, _ = round_relations(beta, 3)
        rankings = recover_rankings(wins, 3)
        assert rankings[0].ranking == (2, 3, 1)
        assert rankings[1].ranking == (1, 3, 2)


class TestDispersion:
    def test_adjacent_ratio_formula(self):
        # beta = 1/(1 + phi) on adjacent pairs, so 1/beta - 1 = phi
        ranking = Permutation.from_ranking([4, 2, 1, 3])
        beta = build_ranking_matrix([MallowsComponent(ranking, 0.3)])[:, 0]
        phi, clamped = estimate_dispersion(beta, ranking)
        assert phi == pytest.approx(0.3, abs=1e-12)
        assert not clamped

    def test_exact_recovery_to_high_precision(self):
        ranking = Permutation.from_ranking(list(range(10, 0, -1)))
        beta = build_ranking_matrix([MallowsComponent(ranking, 0.5)])[:, 0]
        phi, _ = estimate_dispersion(beta, ranking)
        assert abs(phi - 0.5) < 1e-10

    def test_zero_dispersion(self):
        ranking = Permutation.identity(5)
        beta = build_ranking_matrix([MallowsComponent(ranking, 0.0)])[:, 0]
        phi, clamped = estimate_dispersion(beta, ranking)
        assert phi == 0.0 and not clamped

    @settings(max_examples=80, deadline=None)
    @given(Q=st.integers(3, 12), phi=st.floats(0.0, 0.8), e=st.floats(0.0, 0.4),
           seed=st.integers(0, 2**16))
    def test_uniform_mixing_is_taken_out(self, Q, phi, e, seed):
        # an impure selected row pulls every order probability toward one
        # half by the same fraction e; the readout sees through it, where
        # the plain adjacent ratio would read (1 + phi) / (1 - e / 2 ...) - 1
        order = (np.random.default_rng(seed).permutation(Q) + 1).tolist()
        ranking = Permutation.from_ranking(order)
        beta = build_ranking_matrix([MallowsComponent(ranking, phi)])[:, 0]
        phi_hat, _ = estimate_dispersion((1.0 - e) * beta + e / 2, ranking)
        assert phi_hat == pytest.approx(phi, abs=1e-8)

    def test_negative_raw_estimate_clamps_to_zero(self):
        # adjacent probabilities above one imply a negative raw estimate
        ranking = Permutation.identity(3)
        beta = np.full(pairs.num_pairs(3), 1.2)
        phi, clamped = estimate_dispersion(beta, ranking)
        assert phi == 0.0 and clamped

    def test_degenerate_adjacent_probability_raises(self):
        ranking = Permutation.identity(3)
        beta = np.zeros(pairs.num_pairs(3))
        with pytest.raises(PostprocessError, match="adjacent pair"):
            estimate_dispersion(beta, ranking)
        beta = np.full(pairs.num_pairs(3), np.nan)
        with pytest.raises(PostprocessError):
            estimate_dispersion(beta, ranking)


class TestPostprocess:
    def test_noiseless_round_trip(self):
        # B built from the truth must reproduce rankings exactly and
        # dispersions to adjacent-pair precision
        rng = np.random.default_rng(7)
        for Q, K in ((5, 2), (9, 3), (12, 4)):
            for phi in (0.0, 0.1, 0.5, 0.9):
                comps = [MallowsComponent(
                    Permutation.from_ranking((rng.permutation(Q) + 1).tolist()), phi)
                    for _ in range(K)]
                model = MixedMembershipModel(comps, DirichletPrior(0.5))
                est = postprocess(exact_estimate(model))
                for k in range(K):
                    assert est.rankings[k].ranking == comps[k].reference.ranking
                    assert abs(est.dispersions[k] - phi) < 1e-9
                assert est.diagnostics["clamped_components"] == []
                assert est.diagnostics["degenerate_dispersions"] == []
                assert est.Q == Q and est.K == K

    def test_zero_dispersion_stays_resolved(self):
        # a pair counts as unresolved only when neither direction has
        # mass; dispersion zero still feeds every pair's forward direction
        comp = MallowsComponent(Permutation.identity(4), 0.0)
        model = MixedMembershipModel([comp], DirichletPrior(1.0))
        est = postprocess(exact_estimate(model))
        assert est.rankings[0].ranking == (1, 2, 3, 4)
        assert est.dispersions[0] == 0.0
        assert est.diagnostics["unresolved_pairs"] == 0
        assert not np.isnan(est.beta_hat).any()
        assert set(np.unique(est.beta_hat)) == {0.0, 1.0}

    def test_all_tie_column_clamps_to_top(self):
        # a uniform column rounds every pair toward the smaller id and
        # estimates the least-informative dispersion, flagged as clamped
        Q = 3
        good = build_ranking_matrix([MallowsComponent(Permutation.identity(Q), 0.2)])
        C = np.hstack([good / good.sum(axis=0), np.zeros_like(good)])
        C[:, 1] = 1.0 / pairs.num_pairs(Q)
        est = postprocess(RankingMatrix(C, Q))
        assert est.rankings[0].ranking == (1, 2, 3)
        assert est.dispersions[0] == pytest.approx(0.2, abs=1e-12)
        assert est.rankings[1].ranking == (1, 2, 3)
        assert est.diagnostics["rounding_ties"] == pairs.num_unordered(Q)
        assert est.dispersions[1] == pytest.approx(1.0)
        assert est.dispersions[1] < 1.0
        assert 1 in est.diagnostics["clamped_components"]
        assert est.diagnostics["degenerate_dispersions"] == []

    def test_starved_component_degrades_not_crashes(self):
        # a column whose only mass sits on one pair leaves its recovered
        # ranking without usable adjacent probabilities; that component
        # must degrade to the ceiling dispersion instead of failing
        Q = 3
        good = build_ranking_matrix([MallowsComponent(Permutation.identity(Q), 0.2)])
        C = np.hstack([good / good.sum(axis=0), np.zeros_like(good)])
        C[pairs.pair_row(1, 2, Q), 1] = 1.0
        with np.errstate(invalid="ignore"):
            est = postprocess(RankingMatrix(C, Q))
        assert est.rankings[0].ranking == (1, 2, 3)
        assert est.dispersions[0] == pytest.approx(0.2, abs=1e-12)
        assert est.rankings[1].ranking == (1, 2, 3)
        assert est.diagnostics["degenerate_dispersions"] == [1]
        assert 1 in est.diagnostics["clamped_components"]
        assert est.dispersions[1] == pytest.approx(1.0) and est.dispersions[1] < 1.0
        # the starved component accounts for two unresolved pairs
        assert est.diagnostics["unresolved_pairs"] == 2

    def test_serialization_shape(self):
        comp = MallowsComponent(Permutation.identity(3), 0.25)
        model = MixedMembershipModel([comp], DirichletPrior(1.0))
        est = postprocess(exact_estimate(model))
        obj = estimated_model_to_dict(est, seed=3, extra_diagnostics={"note": 1})
        assert obj["Q"] == 3 and obj["K"] == 1
        assert obj["prior"] is None
        assert obj["seed"] == 3
        assert obj["components"][0]["ranking"] == [1, 2, 3]
        assert obj["components"][0]["phi"] == pytest.approx(0.25, abs=1e-9)
        assert obj["diagnostics"]["note"] == 1


class TestDispersionTieBehavior:
    def test_all_half_column_estimates_phi_one_neighborhood(self):
        # adjacent probabilities of one half mean 1/beta - 1 = 1: clamped
        ranking = Permutation.identity(4)
        beta = np.full(pairs.num_pairs(4), 0.5)
        phi, clamped = estimate_dispersion(beta, ranking)
        assert phi == pytest.approx(1.0)
        assert phi < 1.0 and clamped
