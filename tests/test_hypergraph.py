import copy
import math
import pickle
import random

import pytest

from propb.coloring import Colorability, ColoringOutcome, exhaustive_decide
from propb.errors import InsufficientVertices, NonUniformEdge, TooManyEdges, VertexOutOfRange
from propb.hypergraph import (
    Hypergraph,
    SimplePair,
    bound,
    capped_comb,
    complete_hypergraph,
    covered_vertices,
    enumerate_simple_pairs,
    m2,
    normalize,
    pad,
    random_hypergraph,
    seymour_check,
)
from propb.separation import SeparationStats

from conftest import brute_simple_pairs, random_instances


class TestNormalize:
    def test_sort_and_dedup(self):
        H = normalize([[1, 0], [1, 2], [0, 2]], n=2, p=3)
        assert H.edges == ((0, 1), (0, 2), (1, 2))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(NonUniformEdge):
            normalize([[0, 1, 1]], n=3, p=3)

    def test_wrong_size_rejected(self):
        with pytest.raises(NonUniformEdge):
            normalize([[0, 1]], n=3, p=3)

    def test_duplicate_edge_as_set(self):
        H = normalize([[0, 1], [1, 0]], n=2, p=2)
        assert H.edges == ((0, 1),)

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            normalize([[0, 3]], n=2, p=3)
        with pytest.raises(VertexOutOfRange):
            normalize([[-1, 0]], n=2, p=3)

    def test_idempotent(self):
        for H in random_instances(30, seed=101):
            again = normalize(H.edges, n=H.n, p=H.p)
            assert again == H

    def test_direct_construction_validates(self):
        with pytest.raises(NonUniformEdge):
            Hypergraph(n=2, p=3, edges=((1, 0),))
        with pytest.raises(NonUniformEdge):
            Hypergraph(n=2, p=3, edges=((0, 1), (0, 1)))


class TestPickleAndCopy:
    """pickle and copy rebuild a Hypergraph through __init__, the one edge-list check."""

    def test_round_trip(self):
        for H in random_instances(60, seed=102):
            for clone in (pickle.loads(pickle.dumps(H)), copy.copy(H), copy.deepcopy(H)):
                assert clone == H and clone.masks == H.masks

    def test_unsorted_payload_rejected(self):
        class Forged:
            def __reduce__(self):
                return Hypergraph, (2, 3, ((1, 2), (0, 1)))

        payload = pickle.dumps(Forged())
        with pytest.raises(NonUniformEdge):
            pickle.loads(payload)


class TestRecords:
    """The record classes: immutable, keyword-built, Hypergraph equal by (n, p, edges)."""

    @staticmethod
    def records():
        pair = SimplePair(first=0, second=1, meet=2)
        outcome = ColoringOutcome(red=0b10, violating_edge=None, separated_witness=pair)
        return {
            "first": pair,
            "n": Hypergraph(n=2, p=3, edges=((0, 1), (1, 2))),
            "red": outcome,
            "separated_witness": outcome,
            "trials": SeparationStats(trials=2, histogram={0: 1, 1: 1}),
        }

    def test_built_by_keyword_and_immutable(self):
        for field, record in self.records().items():
            before = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, before)
            with pytest.raises(AttributeError):
                record.extra = 1
            assert getattr(record, field) is before

    def test_keyword_fields_read_back(self):
        r = self.records()
        assert (r["first"].first, r["first"].second, r["first"].meet) == (0, 1, 2)
        assert r["red"].red == 0b10 and r["red"].violating_edge is None
        assert r["trials"].trials == 2 and r["trials"].histogram == {0: 1, 1: 1}

    def test_hypergraph_equality_and_hash(self):
        a = Hypergraph(n=2, p=3, edges=((0, 1), (1, 2)))
        b = normalize([[2, 1], [1, 0]], n=2, p=3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Hypergraph(n=2, p=3, edges=((0, 1), (0, 2)))
        assert a != Hypergraph(n=2, p=4, edges=((0, 1), (1, 2)))
        assert a.masks == (0b011, 0b110)

    def test_hypergraph_repr(self):
        H = Hypergraph(n=2, p=3, edges=((0, 1), (1, 2)))
        assert repr(H) == "Hypergraph(n=2, p=3, edges=((0, 1), (1, 2)))"
        assert repr(Hypergraph(n=1, p=0, edges=())) == "Hypergraph(n=1, p=0, edges=())"

    @pytest.mark.parametrize(
        "n, p, edges, error, message",
        [
            (0, 3, (), NonUniformEdge, "uniformity must be positive, got 0"),
            (2, -1, (), VertexOutOfRange, "vertex count must be non-negative, got -1"),
            (2, 3, ((0, 1, 2),), NonUniformEdge, "edge (0, 1, 2) is not a sorted 2-set"),
            (2, 3, ((1, 0),), NonUniformEdge, "edge (1, 0) is not a sorted 2-set"),
            (2, 3, ((1, 3),), VertexOutOfRange, "edge (1, 3) leaves vertex range [0, 3)"),
            (2, 3, ((-1, 1),), VertexOutOfRange, "edge (-1, 1) leaves vertex range [0, 3)"),
            (2, 3, ((1, 2), (0, 1)), NonUniformEdge, "edge list not in canonical order at (0, 1)"),
            (2, 3, ((0, 1), (0, 1)), NonUniformEdge, "edge list not in canonical order at (0, 1)"),
        ],
    )
    def test_hypergraph_invalid_input(self, n, p, edges, error, message):
        with pytest.raises(error) as info:
            Hypergraph(n=n, p=p, edges=edges)
        assert str(info.value) == message


class TestSimplePairs:
    def test_triangle_six_ordered(self, triangle):
        # oracle: brute force over all 3*2 ordered edge pairs
        assert len(brute_simple_pairs(triangle)) == 6
        pairs = enumerate_simple_pairs(triangle)
        assert len(pairs) == 6
        assert [(sp.first, sp.second, sp.meet) for sp in pairs] == brute_simple_pairs(triangle)

    def test_disjoint_edges_empty(self, disjoint_edges):
        assert enumerate_simple_pairs(disjoint_edges) == []

    def test_k35_thirty(self, k35):
        assert len(enumerate_simple_pairs(k35)) == 30

    def test_pairs_satisfy_invariant(self):
        for H in random_instances(40, seed=7):
            for sp in enumerate_simple_pairs(H):
                X, Y = set(H.edges[sp.first]), set(H.edges[sp.second])
                assert sp.first != sp.second
                assert X & Y == {sp.meet}

    def test_matches_brute_force(self):
        for H in random_instances(40, seed=8):
            got = [(sp.first, sp.second, sp.meet) for sp in enumerate_simple_pairs(H)]
            assert got == brute_simple_pairs(H)

    def test_each_edge_pair_intersected_once(self):
        # a work count, not a wall time: m edges cost m(m-1)/2 mask intersections
        class CountingMask(int):
            ands = 0

            def __and__(self, other):
                CountingMask.ands += 1
                return int(self) & int(other)

        for H in random_instances(40, seed=10):
            expected = enumerate_simple_pairs(H)
            object.__setattr__(H, "masks", tuple(map(CountingMask, H.masks)))
            CountingMask.ands = 0
            assert enumerate_simple_pairs(H) == expected
            m = len(H.edges)
            assert CountingMask.ands == m * (m - 1) // 2


class TestM2:
    def test_fano_42(self, fano):
        # oracle: every two of the 7 lines meet in one point -> 7*6 ordered pairs
        assert len(brute_simple_pairs(fano)) == 42
        assert m2(fano) == 42

    def test_k47_closed_form(self, k47):
        assert m2(k47) == 4 * math.comb(7, 4) == 140

    def test_empty(self):
        assert m2(normalize([], n=3, p=5)) == 0

    def test_equals_enumeration_and_even(self):
        for H in random_instances(60, seed=9):
            val = m2(H)
            assert val == len(enumerate_simple_pairs(H))
            assert val % 2 == 0


class TestBound:
    def test_hand_values(self):
        assert bound(1) == 1
        assert bound(2) == 6  # 2 * C(3,2)
        assert bound(3) == 30  # 3 * C(5,3)

    def test_closed_form_larger(self):
        assert bound(4) == 140
        assert bound(5) == 630
        assert bound(6) == 2772

    def test_exact_big(self):
        # arbitrary precision: no overflow for large n
        assert bound(40) == 40 * math.comb(79, 40)


class TestCompleteHypergraph:
    def test_triangle(self):
        assert complete_hypergraph(2).edges == ((0, 1), (0, 2), (1, 2))

    def test_k35_shape(self, k35):
        assert k35.p == 5
        assert len(k35.edges) == 10
        assert m2(k35) == 30

    def test_m2_matches_bound(self):
        for n in range(2, 7):
            assert m2(complete_hypergraph(n)) == bound(n)


class TestPad:
    def test_k35_padded(self, k35):
        H = pad(k35, 3, 1)
        assert H.p == 8
        assert len(H.edges) == 11
        assert m2(H) == 30

    def test_identity(self, k35):
        assert pad(k35, 0, 0) == k35

    def test_triangle_padded(self, triangle):
        assert m2(pad(triangle, 2, 1)) == 6

    def test_insufficient(self, triangle):
        with pytest.raises(InsufficientVertices):
            pad(triangle, 1, 1)

    def test_m2_never_changes(self):
        rng = random.Random(11)
        for H in random_instances(25, seed=12, p_max=9):
            extra_e = rng.randint(0, 2)
            extra_v = H.n * extra_e + rng.randint(0, 2)
            assert m2(pad(H, extra_v, extra_e)) == m2(H)

    def test_colorability_preserved(self):
        # padding with disjoint edges never flips the verdict when n >= 2
        for H in random_instances(20, seed=13, p_max=8):
            before, _ = exhaustive_decide(H)
            after, _ = exhaustive_decide(pad(H, H.n, 1))
            assert before == after


class TestSeymour:
    def test_triangle(self, triangle):
        assert seymour_check(triangle) is True  # 3 >= 3

    def test_single_edge(self, single_edge):
        assert seymour_check(single_edge) is False  # 1 < 2

    def test_fano(self, fano):
        assert seymour_check(fano) is True  # 7 >= 7

    def test_ignores_isolated_vertices(self, triangle):
        padded = pad(triangle, 4, 0)
        assert covered_vertices(padded) == {0, 1, 2}
        assert seymour_check(padded) is True


class TestRandomHypergraph:
    def test_saturated(self):
        H = random_hypergraph(2, 5, 10, seed=3)
        assert len(H.edges) == 10

    def test_structure(self):
        H = random_hypergraph(3, 6, 4, seed=1)
        assert H.n == 3 and H.p == 6 and len(H.edges) == 4

    def test_deterministic(self):
        assert random_hypergraph(3, 8, 12, seed=42) == random_hypergraph(3, 8, 12, seed=42)

    def test_too_many(self):
        with pytest.raises(TooManyEdges, match=r"^requested 7 edges but only C\(4,2\)=6 exist$"):
            random_hypergraph(2, 4, 7, seed=0)


class TestCappedComb:
    @pytest.mark.parametrize("cap", [0, 1, 5, 100, 10**6])
    def test_exact_up_to_the_cap_and_past_it_beyond(self, cap):
        for p in range(40):
            for n in range(1, 45):
                exact, capped = math.comb(p, n), capped_comb(p, n, cap)
                assert capped == exact if exact <= cap else capped > cap, (p, n, cap)

    def test_stops_long_before_the_exact_count(self):
        # C(2 * 10^6, 10^6) has about 600,000 digits
        count = capped_comb(2 * 10**6, 10**6, 1 << 20)
        assert 1 << 20 < count < 1 << 80


class TestFano:
    def test_shape(self, fano):
        assert fano.p == 7 and len(fano.edges) == 7
        for i, X in enumerate(fano.edges):
            for Y in fano.edges[i + 1 :]:
                assert len(set(X) & set(Y)) == 1

    def test_not_colorable(self, fano):
        verdict, _ = exhaustive_decide(fano)
        assert verdict is Colorability.NO
