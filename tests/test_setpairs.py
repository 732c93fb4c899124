import math
import random
from fractions import Fraction

import pytest

from propb.errors import BudgetExceeded, DegenerateBinomial, EqualityStructureViolated
from propb.hypergraph import (
    bound,
    complete_hypergraph,
    enumerate_simple_pairs,
    m2,
    normalize,
    pad,
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

from conftest import random_instances, second_meet_collisions


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

    def test_budget_and_equality_shortcut(self, k35):
        padded = pad(k35, 6, 2)
        # tiny budget forces the equality-structure path, which still succeeds
        assert find_clique(padded, subset_budget=1) == frozenset(range(5))

    def test_budget_exceeded_without_shortcut(self):
        # long cycle: every vertex passes the degree filter, no equality structure
        H = normalize([[i, (i + 1) % 41] for i in range(41)], n=2, p=41)
        with pytest.raises(BudgetExceeded):
            find_clique(H, subset_budget=1)

    def test_none_when_too_few_edges(self, disjoint_edges):
        assert find_clique(disjoint_edges) is None


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
        from itertools import combinations

        edges = list(combinations(range(5), 3)) + [(5, 6, 7), (6, 7, 8)]
        H = normalize(edges, n=3, p=9)
        assert m2(H) == bound(3) == 30
        v = evaluate_family(bollobas_family(H, build_M(H)))
        assert v["conditions_ok"] and v["equality"]
        assert v["common_B"] == [5, 6, 7, 8]
        assert sorted(find_clique(H)) == v["ground_U"] == list(range(5))
