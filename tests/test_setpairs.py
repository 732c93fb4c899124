import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from propb.errors import BudgetExceeded, DegenerateBinomial, EqualityStructureViolated
from propb.hypergraph import (
    bound,
    complete_hypergraph,
    enumerate_simple_pairs,
    m2,
    normalize,
    pad,
    random_hypergraph,
    relabel,
)
from propb.setpairs import (
    SetPairFamily,
    bollobas_family,
    bollobas_sum,
    build_M,
    check_conditions,
    detect_equality_structure,
    evaluate_family,
    find_clique,
)

from conftest import brute_clique, planted_instance, random_instances, second_meet_collisions


class TestBuildM:
    def test_k35_one_per_second_edge(self, k35):
        M = build_M(k35)
        assert len(M) == 10
        seconds = [sp.second for sp in M]
        assert seconds == sorted(range(10))
        # each second edge picks its canonically smallest first edge
        for sp in M:
            firsts = [q.first for q in enumerate_simple_pairs(k35) if q.second == sp.second]
            assert sp.first == min(firsts)

    def test_disjoint_empty(self, disjoint_edges):
        assert build_M(disjoint_edges) == []

    def test_triangle_three(self, triangle):
        assert len(build_M(triangle)) == 3

    def test_extremal_selection_size(self, k35, triangle):
        for H in (triangle, k35):
            assert len(build_M(H)) >= math.ceil(m2(H) / H.n)


class TestBollobasFamily:
    def test_k35_member_shapes(self, k35):
        F = bollobas_family(k35, build_M(k35))
        assert F.ground_size == 5
        for a, b in F.members:
            assert len(a) == 2 and len(b) == 0

    def test_padded_common_b(self, k35):
        padded = pad(k35, 3, 1)
        F = bollobas_family(padded, build_M(padded))
        for a, b in F.members:
            assert b == frozenset({5, 6, 7})

    def test_triangle_member(self, triangle):
        M = build_M(triangle)
        F = bollobas_family(triangle, M)
        for (a, b), sp in zip(F.members, M):
            X = set(triangle.edges[sp.first])
            Y = set(triangle.edges[sp.second])
            assert a == X - Y and b == set()


class TestConditions:
    def test_k35_family_ok(self, k35):
        ok, violations = check_conditions(bollobas_family(k35, build_M(k35)))
        assert ok and violations == []

    def test_disjointness_violation(self):
        F = SetPairFamily(ground_size=1, members=((frozenset({0}), frozenset({0})),))
        ok, violations = check_conditions(F)
        assert not ok
        assert ("disjointness", (0,)) in violations

    def test_containment_violation(self):
        member = (frozenset({0}), frozenset())
        F = SetPairFamily(ground_size=2, members=(member, member))
        ok, violations = check_conditions(F)
        assert not ok
        assert ("containment", (0, 1)) in violations and ("containment", (1, 0)) in violations


class TestBollobasSum:
    def test_k35_exactly_one(self, k35):
        F = bollobas_family(k35, build_M(k35))
        assert bollobas_sum(F) == Fraction(1)

    def test_single_member(self):
        F = SetPairFamily(ground_size=3, members=((frozenset({0}), frozenset()),))
        assert bollobas_sum(F) == Fraction(1, 3)

    def test_degenerate(self):
        F = SetPairFamily(ground_size=2, members=((frozenset({0, 1}), frozenset({0})),))
        with pytest.raises(DegenerateBinomial):
            bollobas_sum(F)

    def test_relabel_invariant(self, k35):
        rng = random.Random(3)
        padded = pad(k35, 4, 1)
        base = bollobas_sum(bollobas_family(padded, build_M(padded)))
        for _ in range(5):
            mapping = list(range(padded.p))
            rng.shuffle(mapping)
            G = relabel(padded, mapping)
            assert bollobas_sum(bollobas_family(G, build_M(G))) == base

    def test_at_most_one_when_conditions_hold(self):
        # theorem-level sanity over random extremal-free selections
        for H in random_instances(30, seed=77, p_max=9):
            M = build_M(H)
            if not M:
                continue
            F = bollobas_family(H, M)
            ok, _ = check_conditions(F)
            if ok:
                assert bollobas_sum(F) <= 1


class TestEqualityStructure:
    def test_k35(self, k35):
        F = bollobas_family(k35, build_M(k35))
        common_b, ground_u = detect_equality_structure(F)
        assert common_b == frozenset()
        assert ground_u == frozenset(range(5))

    def test_padded(self, k35):
        padded = pad(k35, 3, 1)
        F = bollobas_family(padded, build_M(padded))
        common_b, ground_u = detect_equality_structure(F)
        assert common_b == frozenset({5, 6, 7})
        assert len(ground_u) == 5

    def test_violation_detected_on_bogus_family(self):
        member = (frozenset({0}), frozenset())
        F = SetPairFamily(ground_size=2, members=(member, member))
        with pytest.raises(EqualityStructureViolated):
            detect_equality_structure(F)

    def test_evaluate_family_full_verdict(self, k35):
        v = evaluate_family(bollobas_family(k35, build_M(k35)))
        assert v["conditions_ok"] and v["equality"]
        assert v["sum"] == 1
        assert v["common_B"] == []
        assert v["ground_U"] == list(range(5))

    def test_evaluate_family_non_extremal(self, fano):
        v = evaluate_family(bollobas_family(fano, build_M(fano)))
        assert not v["equality"] or not v["conditions_ok"]
        assert v["common_B"] is None and v["ground_U"] is None


class TestMeetCollisions:
    def test_extremal_fixtures_clean(self, triangle, k35, k47):
        for H in (triangle, k35, k47, pad(k35, 3, 1)):
            assert second_meet_collisions(H) == []
            from collections import Counter

            per_second = Counter(sp.second for sp in enumerate_simple_pairs(H))
            assert all(c <= H.n for c in per_second.values())

    def test_fano_collides(self, fano):
        # two lines through the same point both meet a third line there
        assert second_meet_collisions(fano) != []

    def test_synthetic_collision(self):
        H = normalize([[0, 1, 2], [0, 3, 4], [0, 5, 6]], n=3, p=7)
        collisions = second_meet_collisions(H)
        assert collisions
        for second, meet, firsts in collisions:
            assert meet == 0 and len(firsts) == 2


class TestFindClique:
    def test_complete_hypergraphs(self):
        for n in range(2, 6):
            K = complete_hypergraph(n)
            assert find_clique(K) == frozenset(range(2 * n - 1))

    def test_padded_k35(self, k35):
        assert find_clique(pad(k35, 3, 1)) == frozenset(range(5))

    def test_fano_none(self, fano):
        assert find_clique(fano) is None

    def test_triangle(self, triangle):
        assert find_clique(triangle) == frozenset({0, 1, 2})

    def test_canonically_smallest(self):
        # two vertex-disjoint triangles: the lexicographically first wins
        H = normalize([[3, 4], [3, 5], [4, 5], [0, 1], [0, 2], [1, 2]], n=2, p=6)
        assert find_clique(H) == frozenset({0, 1, 2})

    def test_default_budget_on_padded_k35(self, k35):
        assert find_clique(pad(k35, 6, 2)) == frozenset(range(5))

    def test_budget_exceeded(self):
        # long cycle: every vertex passes the degree filter, so the search must visit prefixes
        H = normalize([[i, (i + 1) % 41] for i in range(41)], n=2, p=41)
        with pytest.raises(BudgetExceeded):
            find_clique(H, node_budget=1)

    @pytest.mark.parametrize("n, p, m", [(3, 45, 3000), (4, 32, 3000)])
    def test_dense_random_within_node_budget(self, n, p, m):
        # a scan of every C(p, 2n-1) candidate subset against m edges each would take minutes here
        assert find_clique(random_hypergraph(n, p, m, seed=5), node_budget=10_000) is None

    def test_none_when_too_few_edges(self, disjoint_edges):
        assert find_clique(disjoint_edges) is None


class TestFindCliqueOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_instances(self, n):
        instances = random_instances(150, seed=n, n_choices=(n,), p_max=2 * n + 4)
        assert sum(brute_clique(H) is not None for H in instances) >= 10
        for H in instances:
            assert find_clique(H) == brute_clique(H)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_planted(self, n):
        for seed in range(10):
            H = planted_instance(n, 2 * n + 3, extra=3 * n, seed=seed)
            assert find_clique(H) == brute_clique(H) is not None

    @pytest.mark.parametrize(
        "first, second",
        [((1, 2, 3, 4, 5), (0, 2, 3, 6, 7)), ((2, 3, 4, 5, 6), (0, 1, 2, 3, 7)), ((0, 1, 2, 3, 4), (0, 1, 2, 3, 5))],
    )
    def test_two_overlapping_k35_lexmin(self, first, second):
        edges = [e for clique in (first, second) for e in combinations(clique, 3)]
        H = normalize(edges, n=3, p=8)
        assert find_clique(H) == brute_clique(H) == frozenset(min(first, second))

    def test_relabelled_copies(self, k35):
        rng = random.Random(3)
        bases = [pad(k35, 6, 2), normalize([*combinations((1, 2, 3, 4, 5), 3), *combinations((0, 2, 3, 6, 7), 3)], n=3, p=8)]
        bases += [planted_instance(3, 9, extra=8, seed=s) for s in range(4)]
        bases += random_instances(20, seed=11, n_choices=(3,), p_max=9)
        for H in bases:
            exists = brute_clique(H) is not None
            for _ in range(5):
                mapping = list(range(H.p))
                rng.shuffle(mapping)
                G = relabel(H, mapping)
                found = find_clique(G)
                assert found == brute_clique(G)
                assert (found is not None) == exists


class TestEndToEndExtremal:
    def test_full_pipeline(self):
        for n in (2, 3, 4):
            K = complete_hypergraph(n)
            for H in (K, pad(K, n, 1), pad(K, n + 2, 1)):
                assert m2(H) == bound(n)
                v = evaluate_family(bollobas_family(H, build_M(H)))
                assert v["conditions_ok"]
                assert v["sum"] == 1
                assert v["equality"]
                clique = find_clique(H)
                assert sorted(clique) == v["ground_U"] == list(range(2 * n - 1))

    def test_extremal_tail_need_not_be_disjoint(self):
        # extra edges overlapping each other in 2 vertices add no simple pair,
        # so the instance stays extremal without being clique-plus-matching
        edges = list(combinations(range(5), 3)) + [(5, 6, 7), (6, 7, 8)]
        H = normalize(edges, n=3, p=9)
        assert m2(H) == bound(3) == 30
        v = evaluate_family(bollobas_family(H, build_M(H)))
        assert v["conditions_ok"] and v["equality"]
        assert v["common_B"] == [5, 6, 7, 8]
        assert sorted(find_clique(H)) == v["ground_U"] == list(range(5))
