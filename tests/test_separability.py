"""Witness-based component separation and its Monte Carlo probability."""

import math

import numpy as np
import pytest

from mallowmix import pairs
from mallowmix.mallows import MallowsComponent, build_ranking_matrix, pairwise_marginal
from mallowmix.permutations import Permutation
from mallowmix.separability import (
    check_separability,
    eq6_margin,
    separability_lower_bound,
    separability_probability,
)


def components(rankings, phi):
    return [MallowsComponent(Permutation.from_ranking(r), phi) for r in rankings]


class TestCheckSeparability:
    def test_opposed_references_at_zero(self):
        beta = build_ranking_matrix(components([[1, 2, 3], [3, 2, 1]], 0.0))
        report = check_separability(beta, 0.0)
        assert report.separable
        assert report.lam == 0.0
        assert report.per_component_best_lambda == [0.0, 0.0]
        for k, w in enumerate(report.witness_rows):
            assert beta[w, k] == 1.0
            assert beta[w, 1 - k] == 0.0

    def test_identical_references_never_separate(self):
        beta = build_ranking_matrix(components([[1, 2, 3], [1, 2, 3]], 0.3))
        report = check_separability(beta, 0.9)
        assert not report.separable
        assert all(b == 1.0 for b in report.per_component_best_lambda)

    def test_single_component_always_separable(self):
        beta = build_ranking_matrix(components([[2, 1, 3]], 0.5))
        report = check_separability(beta, 0.0)
        assert report.separable
        assert report.per_component_best_lambda == [0.0]
        assert beta[report.witness_rows[0], 0] > 0

    def test_engineered_instance_has_exact_thresholds(self):
        # Three rankings over nine items; each component moves one item of
        # a local block two positions against the other two components.
        # The planted gap-two pair for component k has ratio exactly
        # (1 - m2) / m2, but the strongest witnesses turn out to be deep
        # reversals: pairs every component ranks far apart in the same
        # direction, where k reverses them less deeply than the others,
        # giving the smaller ratio (1 - m_{g+2}) / (1 - m_g).
        phi = 0.1
        m = lambda g: pairwise_marginal(g, phi)
        rankings = [[1, 3, 2, 5, 6, 4, 8, 9, 7],
                    [2, 3, 1, 4, 6, 5, 8, 9, 7],
                    [2, 3, 1, 5, 6, 4, 7, 9, 8]]
        beta = build_ranking_matrix(components(rankings, phi))

        # the planted pairs sit exactly at the designed ratio
        lam_planted = (1.0 - m(2)) / m(2)
        planted = [pairs.pair_row(1, 2, 9), pairs.pair_row(4, 5, 9),
                   pairs.pair_row(7, 8, 9)]
        for k, w in enumerate(planted):
            others = np.delete(beta[w], k).max()
            assert others / beta[w, k] == pytest.approx(lam_planted, abs=1e-12)

        report = check_separability(beta, lam_planted)
        assert report.separable
        want_best = [(1 - m(7)) / (1 - m(5)),
                     (1 - m(6)) / (1 - m(4)),
                     (1 - m(7)) / (1 - m(5))]
        assert np.allclose(report.per_component_best_lambda, want_best, atol=1e-12)
        assert report.witness_rows == [pairs.pair_row(9, 2, 9),
                                       pairs.pair_row(8, 1, 9),
                                       pairs.pair_row(7, 3, 9)]
        # below the weakest component's best ratio the check must fail
        assert not check_separability(beta, max(want_best) * 0.999).separable

    def test_report_is_internally_consistent(self):
        # the witness row must achieve the reported ratio and no row may
        # beat it; recomputed here directly from the matrix
        rng = np.random.default_rng(9)
        for _ in range(5):
            rankings = [(rng.permutation(6) + 1).tolist() for _ in range(3)]
            beta = build_ranking_matrix(components(rankings, 0.2))
            report = check_separability(beta, 0.5)
            for k in range(3):
                others = np.delete(beta, k, axis=1).max(axis=1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratios = np.where(beta[:, k] > 0, others / beta[:, k], np.inf)
                w = report.witness_rows[k]
                assert ratios[w] == pytest.approx(report.per_component_best_lambda[k])
                assert np.min(ratios) == pytest.approx(report.per_component_best_lambda[k])
            assert report.separable == all(
                b <= 0.5 for b in report.per_component_best_lambda)

    def test_lambda_domain(self):
        beta = build_ranking_matrix(components([[1, 2, 3]], 0.2))
        with pytest.raises(ValueError):
            check_separability(beta, 1.0)
        with pytest.raises(ValueError):
            check_separability(beta, -0.1)


class TestMargin:
    def test_known_values(self):
        assert eq6_margin(0.1, 0.1) == 3
        assert eq6_margin(0.5, 0.1) == 5
        assert eq6_margin(0.0, 0.0) == 2
        assert eq6_margin(0.0, 0.5) == 2

    def test_zero_lambda_with_positive_phi(self):
        with pytest.raises(ValueError):
            eq6_margin(0.3, 0.0)
        assert separability_lower_bound(10, 2, 0.3, 0.0) == -math.inf

    def test_bound_formula(self):
        # 1 - K exp(-Q / L^(2K-1)) with L = 3
        want = 1.0 - 2.0 * math.exp(-60 / 27)
        assert separability_lower_bound(60, 2, 0.1, 0.1) == pytest.approx(want)


class TestProbability:
    def test_zero_dispersion_two_components(self):
        # distinct references disagree on some pair, and that pair
        # witnesses both components at threshold zero, so only identical
        # draws fail
        est = separability_probability(Q=5, K=2, phi=0.0, lam=0.0, runs=200, seed=4)
        assert est.runs == 200
        assert est.probability > 0.95
        assert est.std_error < 0.02
        assert est.lower_bound <= est.probability

    def test_single_component_certain(self):
        est = separability_probability(Q=4, K=1, phi=0.5, lam=0.0, runs=50, seed=0)
        assert est.probability == 1.0
        assert est.std_error == 0.0

    def test_deterministic_in_seed(self):
        a = separability_probability(Q=6, K=2, phi=0.3, lam=0.2, runs=150, seed=7)
        b = separability_probability(Q=6, K=2, phi=0.3, lam=0.2, runs=150, seed=7)
        assert a == b

    def test_monotone_in_threshold(self):
        # a larger threshold can only admit more instances
        ps = [separability_probability(Q=6, K=2, phi=0.3, lam=lam, runs=300, seed=2)
              for lam in (0.05, 0.15, 0.4)]
        for lo, hi in zip(ps, ps[1:]):
            slack = 3 * math.hypot(lo.std_error, hi.std_error)
            assert hi.probability >= lo.probability - slack

    def test_meets_nontrivial_lower_bound(self):
        est = separability_probability(Q=60, K=2, phi=0.1, lam=0.1, runs=100, seed=1)
        assert est.lower_bound > 0.7
        assert est.probability >= est.lower_bound

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            separability_probability(Q=5, K=2, phi=0.1, lam=0.1, runs=0)
        with pytest.raises(ValueError):
            separability_probability(Q=5, K=2, phi=0.1, lam=1.0, runs=10)
        with pytest.raises(ValueError, match="need at least one component"):
            separability_probability(Q=5, K=0, phi=0.1, lam=0.1, runs=10)
        # a dispersion outside [0, 1), as MallowsComponent refuses it
        for phi in (math.nan, -0.2, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"dispersion must lie in \[0, 1\), got "):
                separability_probability(Q=5, K=2, phi=phi, lam=0.1, runs=10)
        with pytest.raises(ValueError, match="need at least one component"):
            check_separability(np.zeros((20, 0)), 0.1)
