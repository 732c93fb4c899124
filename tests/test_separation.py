import itertools
import math
import random
from fractions import Fraction

import pytest

from propb import (
    BudgetExceeded,
    NotSimple,
    Ordering,
    bound,
    complete_hypergraph,
    count_separated,
    enumerate_separation_probability,
    exact_separation_probability,
    exhaustive_separation_mean,
    m2,
    monte_carlo_separation,
    normalize,
    ordering_histogram,
    pad,
    separates,
)

from conftest import (
    brute_ordering_histogram,
    brute_separates,
    oracle_counter,
    oracle_monte_carlo,
    random_instances,
)


class TestSeparates:
    def test_definition_instances(self):
        pi = Ordering.from_vertex_sequence([0, 1, 2])
        assert separates(pi, [0, 1], [1, 2]) is True
        assert separates(Ordering.from_vertex_sequence([2, 1, 0]), [0, 1], [1, 2]) is False
        pi5 = Ordering.from_vertex_sequence([0, 1, 2, 3, 4])
        assert separates(pi5, [0, 1, 2], [2, 3, 4]) is True

    def test_not_simple(self):
        pi = Ordering.identity(4)
        with pytest.raises(NotSimple):
            separates(pi, [0, 1], [2, 3])
        with pytest.raises(NotSimple):
            separates(pi, [0, 1, 2], [1, 2, 3])

    def test_depends_only_on_relative_order(self):
        # permuting vertices outside X union Y never flips the predicate
        rng = random.Random(17)
        X, Y = [0, 1, 2], [2, 3, 4]
        for _ in range(200):
            seq = list(range(9))
            rng.shuffle(seq)
            base = separates(Ordering.from_vertex_sequence(seq), X, Y)
            others = [v for v in seq if v > 4]
            spots = [i for i, v in enumerate(seq) if v > 4]
            rng.shuffle(others)
            perturbed = list(seq)
            for i, v in zip(spots, others):
                perturbed[i] = v
            assert separates(Ordering.from_vertex_sequence(perturbed), X, Y) == base

    def test_never_both_directions(self):
        rng = random.Random(23)
        X, Y = [0, 1, 2], [2, 3, 4]
        for _ in range(200):
            seq = list(range(5))
            rng.shuffle(seq)
            pi = Ordering.from_vertex_sequence(seq)
            assert not (separates(pi, X, Y) and separates(pi, Y, X))

    def test_matches_brute_oracle(self):
        rng = random.Random(29)
        for _ in range(200):
            seq = list(range(7))
            rng.shuffle(seq)
            pi = Ordering.from_vertex_sequence(seq)
            X, Y = [0, 1, 2], [2, 5, 6]
            assert separates(pi, X, Y) == brute_separates(seq, X, Y)


class TestCountSeparated:
    def test_triangle_identity_order(self, triangle):
        assert count_separated(triangle, Ordering.identity(3)) == 1

    def test_disjoint(self, disjoint_edges):
        assert count_separated(disjoint_edges, Ordering.identity(6)) == 0

    def test_k35_every_ordering_exactly_one(self, k35):
        for perm in itertools.permutations(range(5)):
            assert count_separated(k35, Ordering.from_vertex_sequence(perm)) == 1

    def test_matches_pairwise_predicate(self):
        rng = random.Random(31)
        for H in random_instances(40, seed=31, p_max=8):
            seq = list(range(H.p))
            rng.shuffle(seq)
            pi = Ordering.from_vertex_sequence(seq)
            expected = 0
            for i, X in enumerate(H.edges):
                for j, Y in enumerate(H.edges):
                    if i != j and len(set(X) & set(Y)) == 1:
                        expected += brute_separates(seq, X, Y)
            assert count_separated(H, pi) == expected


class TestExactProbability:
    def test_paper_values(self):
        assert exact_separation_probability(2) == Fraction(1, 6)
        assert exact_separation_probability(3) == Fraction(1, 30)
        assert exact_separation_probability(1) == Fraction(1)

    def test_equals_reciprocal_bound(self):
        for n in range(1, 9):
            assert exact_separation_probability(n) == Fraction(1, bound(n))


class TestEnumeratedProbability:
    def test_n2_all_six_orders(self):
        assert enumerate_separation_probability([0, 1], [1, 2]) == Fraction(1, 6)

    def test_n3(self):
        assert enumerate_separation_probability([0, 1, 2], [2, 3, 4]) == Fraction(4, 120)

    def test_independent_of_pair_labels(self):
        p1 = enumerate_separation_probability([0, 1, 2], [2, 3, 4])
        p2 = enumerate_separation_probability([10, 20, 5], [5, 7, 42])
        assert p1 == p2

    def test_agrees_with_closed_form(self):
        for n in (2, 3, 4):
            X = list(range(n))
            Y = list(range(n - 1, 2 * n - 1))
            assert enumerate_separation_probability(X, Y) == exact_separation_probability(n)

    def test_budget(self):
        X = list(range(6))
        Y = list(range(5, 11))
        with pytest.raises(BudgetExceeded):
            enumerate_separation_probability(X, Y)

    def test_not_simple(self):
        with pytest.raises(NotSimple):
            enumerate_separation_probability([0, 1], [2, 3])


class TestExhaustiveMean:
    def test_triangle_exact(self, triangle):
        assert exhaustive_separation_mean(triangle) == Fraction(1)

    def test_k35_exact(self, k35):
        assert exhaustive_separation_mean(k35) == Fraction(1)

    def test_fano_exact(self, fano):
        assert exhaustive_separation_mean(fano) == Fraction(42, 30)

    def test_matches_m2_over_bound(self):
        for H in random_instances(12, seed=43, p_max=6, m_max=10):
            assert exhaustive_separation_mean(H) == Fraction(m2(H), bound(H.n))

    def test_matches_at_budget_boundary_p8(self):
        H = normalize([[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 0], [1, 3, 5]], n=3, p=8)
        assert exhaustive_separation_mean(H) == Fraction(m2(H), bound(3))

    def test_budget(self):
        H = normalize([], n=2, p=9)
        with pytest.raises(BudgetExceeded):
            exhaustive_separation_mean(H)


class TestMultiSeparation:
    def test_extremal_instances_never_two(self, triangle, k35):
        assert ordering_histogram(triangle) == {1: 6}
        assert ordering_histogram(k35) == {1: 120}

    def test_general_instance_can_exceed_one(self):
        # two simple pairs on disjoint vertex supports can separate together
        H = normalize([[0, 1], [1, 2], [3, 4], [4, 5]], n=2, p=6)
        hist = ordering_histogram(H)
        assert max(hist) == 2 and hist[2] > 0
        assert hist == brute_ordering_histogram(H)


class TestOrderingHistogram:
    def test_matches_brute_oracle(self):
        for H in random_instances(40, seed=61, n_choices=(1, 2, 3), p_max=7, m_max=12):
            assert ordering_histogram(H) == brute_ordering_histogram(H)

    def test_extremal_fixtures_exactly_one(self):
        for n in (2, 3, 4):
            K = complete_hypergraph(n)
            for H in (K, pad(K, n, 1)):
                if H.p <= 8:
                    assert ordering_histogram(H) == {1: math.factorial(H.p)}

    def test_past_the_default_budget(self):
        # padded K_5^3 on 12 vertices: every one of the 12! orderings separates one pair
        H = pad(complete_hypergraph(3), 7, 2)
        assert ordering_histogram(H, max_vertices=12) == {1: math.factorial(12)}
        with pytest.raises(BudgetExceeded):
            ordering_histogram(H)

    def test_empty_ground_set(self):
        assert ordering_histogram(normalize([], n=2, p=0)) == {0: 1}


class TestMonteCarlo:
    @pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 3000])
    def test_matches_per_trial_oracle(self, trials):
        for i, H in enumerate(random_instances(5, seed=trials, n_choices=(2, 3), p_max=9, m_max=10)):
            assert monte_carlo_separation(H, trials=trials, seed=i) == oracle_monte_carlo(H, trials, seed=i)

    def test_beyond_int64_masks(self):
        # p >= 63 leaves int64 bitsets; prefix masks fall back to Python ints
        H = normalize([[0, 1, 64], [1, 2, 3], [64, 65, 66], [2, 65, 70], [3, 4, 70]], n=3, p=71)
        assert monte_carlo_separation(H, trials=300, seed=4) == oracle_monte_carlo(H, 300, seed=4)
        count = oracle_counter(H)
        rng = random.Random(8)
        for _ in range(20):
            seq = list(range(H.p))
            rng.shuffle(seq)
            assert count_separated(H, Ordering.from_vertex_sequence(seq)) == count(seq)

    def test_k35_concentrated_at_one(self, k35):
        stats = monte_carlo_separation(k35, trials=10_000, seed=5)
        assert stats.mean_separated == Fraction(1)
        assert stats.histogram == {1: 10_000}
        assert stats.success_rate == 0

    def test_no_pairs_always_succeeds(self, disjoint_edges):
        stats = monte_carlo_separation(disjoint_edges, trials=50, seed=1)
        assert stats.success_rate == Fraction(1)
        assert stats.histogram == {0: 50}

    def test_histogram_sums_and_mean(self):
        for H in random_instances(10, seed=53, p_max=9):
            stats = monte_carlo_separation(H, trials=300, seed=2)
            assert sum(stats.histogram.values()) == 300
            total = sum(k * v for k, v in stats.histogram.items())
            assert stats.mean_separated == Fraction(total, 300)

    def test_deterministic(self, triangle):
        s1 = monte_carlo_separation(triangle, trials=500, seed=11)
        s2 = monte_carlo_separation(triangle, trials=500, seed=11)
        assert s1 == s2

    def test_triangle_mean_near_one(self, triangle):
        # every ordering of the triangle separates exactly one pair
        stats = monte_carlo_separation(triangle, trials=2000, seed=3)
        assert stats.mean_separated == Fraction(1)
