import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from propb import setpairs
from propb.errors import BudgetExceeded, EqualityStructureViolated
from propb.hypergraph import (
    bound,
    complete_hypergraph,
    enumerate_simple_pairs,
    fano_plane,
    m2,
    normalize,
    pad,
    random_hypergraph,
    relabel,
)
from propb.setpairs import _equality_structure, _members, _sum, _violations, evaluate_family, find_clique

from conftest import (
    brute_bollobas_section,
    brute_clique,
    planted_instance,
    random_instances,
    second_meet_collisions,
)


class TestBuildM:
    """One (A, B) bitset pair per distinct second edge, from its smallest first edge."""

    def test_k35_one_per_second_edge(self, k35):
        members = _members(k35)
        assert len(members) == 10
        pairs = enumerate_simple_pairs(k35)
        seconds = sorted({sp.second for sp in pairs})
        assert seconds == list(range(10))
        # each second edge picks its canonically smallest first edge
        for (a, b), y in zip(members, seconds):
            x = min(q.first for q in pairs if q.second == y)
            assert a == k35.masks[x] & ~k35.masks[y]
            assert b == ((1 << k35.p) - 1) & ~(k35.masks[x] | k35.masks[y])

    def test_disjoint_empty(self, disjoint_edges):
        assert _members(disjoint_edges) == []

    def test_triangle_three(self, triangle):
        assert len(_members(triangle)) == 3

    def test_extremal_selection_size(self, k35, triangle):
        for H in (triangle, k35):
            assert len(_members(H)) >= math.ceil(m2(H) / H.n)


class TestBollobasFamily:
    def test_k35_member_shapes(self, k35):
        for a, b in _members(k35):
            assert a.bit_count() == 2 and b == 0
            assert a >> k35.p == 0

    def test_padded_common_b(self, k35):
        padded = pad(k35, 3, 1)
        for a, b in _members(padded):
            assert b == 0b111 << 5

    def test_triangle_member(self, triangle):
        pairs = enumerate_simple_pairs(triangle)
        for (a, b), y in zip(_members(triangle), sorted({sp.second for sp in pairs})):
            x = min(q.first for q in pairs if q.second == y)
            X, Y = set(triangle.edges[x]), set(triangle.edges[y])
            assert a == sum(1 << v for v in X - Y) and b == 0


class TestConditions:
    def test_k35_family_ok(self, k35):
        assert _violations(_members(k35)) == []

    def test_disjointness_violation(self):
        violations = _violations([(0b1, 0b1)])
        assert violations
        assert ("disjointness", (0,)) in violations

    def test_containment_violation(self):
        member = (0b1, 0)
        violations = _violations([member, member])
        assert violations
        assert ("containment", (0, 1)) in violations and ("containment", (1, 0)) in violations

    def test_violations_sorted(self):
        # containment sorts before disjointness, each kind by its indices
        violations = _violations([(0b1, 0b1), (0b1, 0)])
        assert violations == [("containment", (0, 1)), ("containment", (1, 0)), ("disjointness", (0,))]


class TestBollobasSum:
    def test_k35_exactly_one(self, k35):
        assert _sum(k35.p, _members(k35)) == Fraction(1)
        assert evaluate_family(k35)["sum"] == Fraction(1)

    def test_single_member(self):
        assert _sum(3, [(0b1, 0)]) == Fraction(1, 3)

    def test_empty_family_sums_to_fraction_zero(self):
        total = _sum(4, [])
        assert total == 0 and isinstance(total, Fraction)

    def test_relabel_invariant(self, k35):
        rng = random.Random(3)
        padded = pad(k35, 4, 1)
        base = evaluate_family(padded)["sum"]
        for _ in range(5):
            mapping = list(range(padded.p))
            rng.shuffle(mapping)
            assert evaluate_family(relabel(padded, mapping))["sum"] == base

    def test_at_most_one_when_conditions_hold(self):
        # theorem-level sanity over random extremal-free selections
        for H in random_instances(30, seed=77, p_max=9):
            members = _members(H)
            if not members:
                continue
            if not _violations(members):
                assert _sum(H.p, members) <= 1


class TestEqualityStructure:
    def test_k35(self, k35):
        common_b, ground_u = _equality_structure(k35.p, _members(k35))
        assert common_b == 0
        assert ground_u == 0b11111

    def test_padded(self, k35):
        padded = pad(k35, 3, 1)
        common_b, ground_u = _equality_structure(padded.p, _members(padded))
        assert common_b == 0b111 << 5
        assert ground_u.bit_count() == 5

    def test_violation_detected_on_bogus_family(self):
        member = (0b1, 0)
        with pytest.raises(EqualityStructureViolated, match="A sets repeat"):
            _equality_structure(2, [member, member])

    @pytest.mark.parametrize(
        "p, members, message",
        [
            (2, [], "empty family"),
            (3, [(0b1, 0), (0b10, 0b100)], "not all identical"),
            (3, [(0b1, 0), (0b110, 0)], "mixed sizes"),
            (1, [(0b1, 0b1)], "leaves the ground"),
            (3, [(0b1, 0)], r"1 A sets but C\(3,1\) = 3"),
        ],
    )
    def test_each_missing_structure_raises(self, p, members, message):
        with pytest.raises(EqualityStructureViolated, match=message):
            _equality_structure(p, members)

    def test_evaluate_family_full_verdict(self, k35):
        v = evaluate_family(k35)
        assert v["conditions_ok"] and v["equality"]
        assert v["sum"] == 1
        assert v["common_B"] == []
        assert v["ground_U"] == list(range(5))

    def test_evaluate_family_non_extremal(self, fano):
        v = evaluate_family(fano)
        assert not v["equality"] or not v["conditions_ok"]
        assert v["common_B"] is None and v["ground_U"] is None


def oracle_inputs() -> list:
    """Random instances, the extremal fixtures, Fano and an overlapping tail, each extremal one also relabelled."""
    rng = random.Random(19)
    extremal = [
        H
        for n in (2, 3, 4)
        for H in (complete_hypergraph(n), pad(complete_hypergraph(n), n, 1), pad(complete_hypergraph(n), n + 2, 1))
    ]
    extremal.append(normalize([*combinations(range(5), 3), (5, 6, 7), (6, 7, 8)], n=3, p=9))
    inputs = random_instances(600, seed=19, n_choices=(2, 3, 4), p_max=9)
    for H in [*extremal, fano_plane()]:
        inputs.append(H)
        for _ in range(5):
            mapping = list(range(H.p))
            rng.shuffle(mapping)
            inputs.append(relabel(H, mapping))
    return inputs


class TestEvaluateFamilyOracle:
    def test_matches_frozenset_chain(self):
        inputs = oracle_inputs()
        assert len(inputs) >= 656
        sections = [evaluate_family(H) for H in inputs]
        assert sum(v["equality"] for v in sections) >= 60
        assert sum(bool(v["violations"]) for v in sections) >= 100
        for H, v in zip(inputs, sections):
            assert v == brute_bollobas_section(H), H


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

    def test_budget_exceeded(self, monkeypatch):
        # long cycle: every vertex passes the degree filter, so the search must visit prefixes
        H = normalize([[i, (i + 1) % 41] for i in range(41)], n=2, p=41)
        monkeypatch.setattr(setpairs, "NODE_BUDGET", 1)
        with pytest.raises(BudgetExceeded):
            find_clique(H)

    @pytest.mark.parametrize("n, p, m", [(3, 45, 3000), (4, 32, 3000)])
    def test_dense_random_within_node_budget(self, monkeypatch, n, p, m):
        # a scan of every C(p, 2n-1) candidate subset against m edges each would take minutes here
        monkeypatch.setattr(setpairs, "NODE_BUDGET", 10_000)
        assert find_clique(random_hypergraph(n, p, m, seed=5)) is None

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
                v = evaluate_family(H)
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
        v = evaluate_family(H)
        assert v["conditions_ok"] and v["equality"]
        assert v["common_B"] == [5, 6, 7, 8]
        assert sorted(find_clique(H)) == v["ground_U"] == list(range(5))
