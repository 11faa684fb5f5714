"""Single-component distributions: normalizer, pmf, sampler, pair marginals.

Exact expectations are recomputed in-test by explicit enumeration over all
Q! rankings (own inversion count, own normalizer) so the closed forms in
the package are checked against an independent derivation.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mallowmix import pairs
from mallowmix.mallows import (
    MallowsComponent,
    RankingMatrix,
    brute_force_beta,
    build_ranking_matrix,
    geometric_sum,
    mallows_normalizer,
    mallows_pmf,
    marginal_ratio_bound,
    marginal_table,
    pair_gaps,
    pairwise_marginal,
    reverse_marginal_table,
    rim_sample,
)
from mallowmix.permutations import Permutation


def validate_ranking_matrix(e: np.ndarray, Q: int, kind: str, tol: float = 1e-9) -> None:
    """Raise unless the (W, K) entries over Q items are finite and
    nonnegative and, by kind, every beta row and its reverse sum to one or
    every column of B does."""
    if np.any(~np.isfinite(e)) or np.any(e < -tol):
        raise ValueError("entries must be finite and nonnegative")
    if kind == "beta":
        rev = pairs.reverse_rows(Q)
        if np.max(np.abs(e + e[rev] - 1.0)) > tol:
            raise ValueError("beta and its reverse rows must sum to one")
    elif np.max(np.abs(e.sum(axis=0) - 1.0)) > tol:
        raise ValueError("columns of B must sum to one")


def inversions_between(ref: tuple, other: tuple) -> int:
    """Pairs ordered differently by the two rankings, counted directly."""
    pos_r = {item: p for p, item in enumerate(ref)}
    pos_o = {item: p for p, item in enumerate(other)}
    items = list(ref)
    n = 0
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            i, j = items[a], items[b]
            if (pos_r[i] < pos_r[j]) != (pos_o[i] < pos_o[j]):
                n += 1
    return n


def enumerated_pmf(ref: tuple, phi: float) -> dict:
    """phi^distance over an explicitly computed normalizer, all rankings."""
    weights = {}
    for perm in itertools.permutations(sorted(ref)):
        weights[perm] = phi ** inversions_between(ref, perm)
    z = sum(weights.values())
    return {perm: w / z for perm, w in weights.items()}


def enumerated_above_prob(ref: tuple, phi: float, i: int, j: int) -> float:
    pmf = enumerated_pmf(ref, phi)
    total = 0.0
    for perm, p in pmf.items():
        if perm.index(i) < perm.index(j):
            total += p
    return total


class TestGeometricSum:
    def test_basic_values(self):
        assert geometric_sum(0.5, 3) == pytest.approx(1.75)
        assert geometric_sum(0.0, 4) == 1.0
        assert geometric_sum(0.3, 0) == 0.0
        assert geometric_sum(0.3, 1) == 1.0

    def test_limit_at_one(self):
        assert geometric_sum(1.0, 5) == 5.0
        assert geometric_sum(1.0 - 1e-13, 7) == pytest.approx(7.0, abs=1e-9)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            geometric_sum(0.5, -1)


class TestPmf:
    def test_normalizer_matches_enumeration(self):
        for Q in (2, 3, 4, 5):
            for phi in (0.0, 0.1, 0.5, 0.9):
                z = sum(phi ** inversions_between(tuple(range(1, Q + 1)), perm)
                        for perm in itertools.permutations(range(1, Q + 1)))
                assert mallows_normalizer(Q, phi) == pytest.approx(z, rel=1e-12)

    def test_known_values_q3(self):
        # Z(3, 0.5) = 1 * 1.5 * 1.75 = 2.625
        comp = MallowsComponent(Permutation.identity(3), 0.5)
        assert mallows_pmf(comp, Permutation.identity(3)) == pytest.approx(1 / 2.625)
        reversed_ranking = Permutation.from_ranking([3, 2, 1])
        assert mallows_pmf(comp, reversed_ranking) == pytest.approx(0.125 / 2.625)

    def test_point_mass_at_zero_dispersion(self):
        comp = MallowsComponent(Permutation.from_ranking([2, 3, 1]), 0.0)
        assert mallows_pmf(comp, comp.reference) == 1.0
        assert mallows_pmf(comp, Permutation.identity(3)) == 0.0

    def test_sums_to_one(self):
        comp = MallowsComponent(Permutation.from_ranking([4, 1, 3, 2]), 0.7)
        total = sum(mallows_pmf(comp, Permutation.from_ranking(perm))
                    for perm in itertools.permutations(range(1, 5)))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dispersion_domain(self):
        with pytest.raises(ValueError):
            MallowsComponent(Permutation.identity(3), 1.0)
        with pytest.raises(ValueError):
            MallowsComponent(Permutation.identity(3), -0.1)

    def test_length_mismatch(self):
        comp = MallowsComponent(Permutation.identity(3), 0.5)
        with pytest.raises(ValueError):
            mallows_pmf(comp, Permutation.identity(4))


class TestInsertionSampler:
    def test_matches_pmf_through_insertion_path(self):
        # Each ranking is reached by exactly one sequence of insertion
        # slots; the product of slot probabilities along that path must
        # reproduce the closed-form pmf for every ranking.
        ref = Permutation.from_ranking([2, 4, 1, 3])
        for phi in (0.2, 0.7):
            comp = MallowsComponent(ref, phi)
            for perm in itertools.permutations(range(1, 5)):
                sigma = Permutation.from_ranking(perm)
                prob = 1.0
                for level in range(1, 5):
                    prefix = [it for it in perm if ref.position_of(it) <= level]
                    slot = prefix.index(ref.item_at(level)) + 1
                    prob *= phi ** (level - slot) / geometric_sum(phi, level)
                assert prob == pytest.approx(mallows_pmf(comp, sigma), abs=1e-12)

    def test_zero_dispersion_reproduces_reference(self):
        rng = np.random.default_rng(3)
        comp = MallowsComponent(Permutation.from_ranking([5, 2, 4, 1, 3]), 0.0)
        for _ in range(20):
            assert rim_sample(comp, rng).ranking == comp.reference.ranking

    def test_golden_draws(self):
        # Draws fixed by the sampler's RNG use: one uniform per level, in
        # reference order.
        comp = MallowsComponent(Permutation.from_ranking([3, 6, 1, 7, 2, 5, 4]), 0.4)
        rng = np.random.default_rng(20151)
        assert [rim_sample(comp, rng).ranking for _ in range(3)] == [
            (6, 3, 1, 7, 2, 5, 4), (1, 6, 3, 5, 7, 4, 2), (3, 6, 7, 1, 5, 2, 4)]

    def test_empirical_frequencies(self):
        # 1e5 draws at Q=5: reference frequency and one pair concordance
        # must sit within four standard errors of the exact values.
        comp = MallowsComponent(Permutation.identity(5), 0.5)
        rng = np.random.default_rng(17)
        n = 100_000
        hit_ref = 0
        concordant_12 = 0
        for _ in range(n):
            s = rim_sample(comp, rng)
            hit_ref += s.ranking == (1, 2, 3, 4, 5)
            concordant_12 += s.position_of(1) < s.position_of(2)
        p_ref = mallows_pmf(comp, comp.reference)
        se_ref = math.sqrt(p_ref * (1 - p_ref) / n)
        assert abs(hit_ref / n - p_ref) < 4 * se_ref
        p_12 = pairwise_marginal(1, 0.5)
        se_12 = math.sqrt(p_12 * (1 - p_12) / n)
        assert abs(concordant_12 / n - p_12) < 4 * se_12


class TestPairMarginals:
    def test_pair_gaps_are_position_differences(self):
        rng = np.random.default_rng(4)
        for Q in (2, 3, 7):
            sigmas = [Permutation.from_ranking((rng.permutation(Q) + 1).tolist())
                      for _ in range(3)]
            want = [[sigma.position_of(j) - sigma.position_of(i)
                     for i, j in (pairs.row_pair(w, Q) for w in range(pairs.num_pairs(Q)))]
                    for sigma in sigmas]
            assert pair_gaps(sigmas[0].positions).tolist() == want[0]
            # several rankings along the last axis, one row of gaps each
            assert pair_gaps([sigma.positions for sigma in sigmas]).tolist() == want

    def test_adjacent_pair_closed_form(self):
        for phi in (0.0, 0.1, 0.5, 0.9):
            assert pairwise_marginal(1, phi) == pytest.approx(1 / (1 + phi), rel=1e-12)

    def test_gap_two_value(self):
        # (1 + 2*0.1) / (G_2 * G_3) = 1.2 / (1.1 * 1.11)
        assert pairwise_marginal(2, 0.1) == pytest.approx(1.2 / 1.221, rel=1e-12)

    def test_matches_enumeration_independent_of_q(self):
        # The concordance probability depends only on the reference gap,
        # checked here by summing the enumerated pmf at two different Q.
        for Q in (4, 5):
            ref = tuple(range(1, Q + 1))
            for phi in (0.1, 0.6):
                for gap in (1, 2, 3):
                    got = enumerated_above_prob(ref, phi, 1, 1 + gap)
                    assert pairwise_marginal(gap, phi) == pytest.approx(got, abs=1e-12)

    def test_table_matches_scalar_form(self):
        for phi in (0.0, 0.3, 0.95):
            t = marginal_table(8, phi)
            assert np.isnan(t[0])
            for g in range(1, 8):
                assert t[g] == pytest.approx(pairwise_marginal(g, phi), rel=1e-12)

    def test_reverse_table_keeps_relative_precision(self):
        # against exact rational arithmetic, down to values far below
        # 1 - t[g]'s rounding: 1.7e-18 at gap 19 and phi = 0.1
        for phi in (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(19, 20)):
            r = reverse_marginal_table(21, float(phi))
            assert np.isnan(r[0])
            for g in range(1, 21):
                G1 = sum((phi ** i for i in range(g)), Fraction(0))
                G2 = sum((phi ** i for i in range(g + 1)), Fraction(0))
                exact = 1 - sum(((l + 1) * phi ** l for l in range(g)), Fraction(0)) / (G1 * G2)
                assert r[g] == pytest.approx(float(exact), rel=1e-13, abs=0.0)
        assert reverse_marginal_table(21, 0.1)[19] == pytest.approx(1.7e-18, rel=1e-12)
        with pytest.raises(ValueError):
            reverse_marginal_table(1, 0.5)

    def test_monotone_in_gap_and_dispersion(self):
        for phi in (0.1, 0.5, 0.9):
            vals = [pairwise_marginal(g, phi) for g in range(1, 12)]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for gap in (1, 3, 7):
            vals = [pairwise_marginal(gap, phi) for phi in np.linspace(0.0, 0.95, 12)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pairwise_marginal(0, 0.5)
        with pytest.raises(ValueError):
            pairwise_marginal(2, 1.0)
        with pytest.raises(ValueError):
            marginal_table(1, 0.5)


class TestReverseBound:
    def test_known_values(self):
        assert marginal_ratio_bound(3, 0.1) == pytest.approx(0.03 / 1.03, rel=1e-12)
        assert marginal_ratio_bound(2, 0.1) == pytest.approx(0.2 / 1.2, rel=1e-12)

    def test_dominates_exact_reverse_probability(self):
        for L in range(2, 22):
            for phi in np.linspace(0.05, 0.95, 10):
                exact = 1.0 - pairwise_marginal(L - 1, phi)
                assert exact <= marginal_ratio_bound(L, float(phi)) + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            marginal_ratio_bound(1, 0.5)
        with pytest.raises(ValueError):
            marginal_ratio_bound(3, 1.0)


class TestBetaMatrices:
    def test_brute_force_matches_enumeration(self):
        comps = [MallowsComponent(Permutation.from_ranking([2, 4, 1, 3]), 0.3),
                 MallowsComponent(Permutation.identity(4), 0.8)]
        got = brute_force_beta(comps)
        for w in range(pairs.num_pairs(4)):
            i, j = pairs.row_pair(w, 4)
            for k, comp in enumerate(comps):
                want = enumerated_above_prob(comp.reference.ranking,
                                             comp.dispersion, i, j)
                assert got[w, k] == pytest.approx(want, abs=1e-12)

    def test_closed_form_matches_brute_force(self):
        rng = np.random.default_rng(29)
        for Q in (3, 4, 5, 6):
            refs = [Permutation.from_ranking((rng.permutation(Q) + 1).tolist())
                    for _ in range(3)]
            for phi in (0.1, 0.3, 0.5, 0.9):
                comps = [MallowsComponent(r, phi) for r in refs]
                built = build_ranking_matrix(comps)
                brute = brute_force_beta(comps)
                assert np.max(np.abs(built - brute)) <= 1e-10
                validate_ranking_matrix(built, Q, "beta")

    def test_reversed_entries_match_brute_force_relatively(self):
        # entries far below 1e-16, where 1 - t[g] kept no relative precision
        rng = np.random.default_rng(5)
        refs = [Permutation.from_ranking((rng.permutation(7) + 1).tolist()) for _ in range(2)]
        smallest = 1.0
        for phi in (0.01, 0.001):
            comps = [MallowsComponent(r, phi) for r in refs]
            built = build_ranking_matrix(comps)
            brute = brute_force_beta(comps)
            np.testing.assert_allclose(built, brute, rtol=1e-11, atol=0.0)
            smallest = min(smallest, built.min())
        assert smallest < 1e-16

    def test_two_items(self):
        comp = MallowsComponent(Permutation.identity(2), 0.5)
        beta = brute_force_beta([comp])
        w = pairs.pair_row(1, 2, 2)
        assert beta[w, 0] == pytest.approx(1 / 1.5)

    def test_brute_force_refuses_large_q(self):
        comp = MallowsComponent(Permutation.identity(8), 0.5)
        with pytest.raises(ValueError):
            brute_force_beta([comp])


class TestRankingMatrixValidation:
    def test_beta_reverse_rows_sum_to_one(self):
        m = build_ranking_matrix([MallowsComponent(Permutation.identity(4), 0.4)])
        validate_ranking_matrix(m, 4, "beta")
        m[0, 0] += 0.01
        with pytest.raises(ValueError):
            validate_ranking_matrix(m, 4, "beta")

    def test_column_stochastic_kind(self):
        Q = 3
        W = pairs.num_pairs(Q)
        validate_ranking_matrix(np.full((W, 2), 1.0 / W), Q, "B")
        with pytest.raises(ValueError):
            validate_ranking_matrix(np.full((W, 2), 0.5), Q, "B")

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            RankingMatrix(np.zeros((5, 2)), 3)
