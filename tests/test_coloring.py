import itertools
import random

import pytest

from propb import (
    Color,
    Colorability,
    IncompleteColoring,
    InvalidOrdering,
    Ordering,
    bound,
    complete_hypergraph,
    exhaustive_decide,
    greedy_color,
    is_proper,
    m2,
    normalize,
    random_restart_color,
    separates,
)

from conftest import oracle_greedy, oracle_restart, random_instances

B, R = Color.BLUE, Color.RED


class TestOrdering:
    def test_bijection_enforced(self):
        with pytest.raises(InvalidOrdering):
            Ordering((1, 1, 2))
        with pytest.raises(InvalidOrdering):
            Ordering.from_vertex_sequence([0, 0, 1])

    def test_round_trip(self):
        pi = Ordering.from_vertex_sequence([2, 0, 1])
        assert pi.vertex_sequence() == (2, 0, 1)
        assert pi.rank(2) == 1 and pi.rank(0) == 2 and pi.rank(1) == 3


class TestGreedyColor:
    def test_single_edge_identity(self, single_edge):
        out = greedy_color(single_edge, Ordering.identity(2))
        assert out.coloring.colors == (B, R)
        assert out.coloring.proper

    def test_triangle_hand_trace(self, triangle):
        out = greedy_color(triangle, Ordering.identity(3))
        assert out.coloring.colors == (B, R, R)
        assert not out.coloring.proper
        assert triangle.edges[out.coloring.violating_edge] == (1, 2)
        w = out.separated_witness
        assert triangle.edges[w.first] == (0, 1)
        assert triangle.edges[w.second] == (1, 2)
        assert w.meet == 1

    def test_no_all_blue_edge_ever(self):
        rng = random.Random(99)
        for H in random_instances(1000, seed=99, p_max=12, m_max=20):
            pi = Ordering.random(H.p, rng)
            out = greedy_color(H, pi)
            for e in H.edges:
                assert any(out.coloring.colors[v] is R for v in e)

    def test_failure_yields_separated_simple_pair(self):
        rng = random.Random(5)
        checked = 0
        for H in random_instances(300, seed=5, p_max=10):
            pi = Ordering.random(H.p, rng)
            out = greedy_color(H, pi)
            if out.coloring.proper:
                continue
            checked += 1
            w = out.separated_witness
            X, Y = H.edges[w.first], H.edges[w.second]
            assert set(X) & set(Y) == {w.meet}
            assert separates(pi, X, Y)
            # the monochromatic edge is Y and it is all Red
            assert all(out.coloring.colors[v] is R for v in Y)
        assert checked > 20

    def test_deterministic(self, k35):
        pi = Ordering.from_vertex_sequence([3, 1, 4, 0, 2])
        assert greedy_color(k35, pi) == greedy_color(k35, pi)

    def test_ordering_size_mismatch(self, triangle):
        with pytest.raises(InvalidOrdering):
            greedy_color(triangle, Ordering.identity(4))

    def test_uncovered_vertices_blue(self):
        H = normalize([[0, 1]], n=2, p=4)
        out = greedy_color(H, Ordering.identity(4))
        assert out.coloring.colors[2] is B and out.coloring.colors[3] is B


class TestIsProper:
    def test_all_blue_triangle(self, triangle):
        assert is_proper(triangle, (B, B, B)) == 0

    def test_single_edge_mixed(self, single_edge):
        assert is_proper(single_edge, (B, R)) is None

    def test_k35_two_three_split(self, k35):
        colors = (R, R, B, B, B)
        # the all-Blue triple {2,3,4} is an edge; canonical index verified directly
        assert k35.edges[is_proper(k35, colors)] == (2, 3, 4)

    def test_incomplete(self, triangle):
        with pytest.raises(IncompleteColoring):
            is_proper(triangle, (B, R))
        with pytest.raises(IncompleteColoring):
            is_proper(triangle, (B, R, None))


class TestExhaustiveDecide:
    def test_triangle_no(self, triangle):
        assert exhaustive_decide(triangle)[0] is Colorability.NO

    def test_k35_no(self, k35):
        assert exhaustive_decide(k35)[0] is Colorability.NO

    def test_fano_no(self, fano):
        assert exhaustive_decide(fano)[0] is Colorability.NO

    def test_single_edge_yes_with_witness(self, single_edge):
        verdict, coloring = exhaustive_decide(single_edge)
        assert verdict is Colorability.YES
        assert is_proper(single_edge, coloring.colors) is None

    def test_empty_yes(self):
        verdict, coloring = exhaustive_decide(normalize([], n=2, p=4))
        assert verdict is Colorability.YES
        assert coloring.colors == (B, B, B, B)

    def test_budget_undetermined(self, fano):
        verdict, coloring = exhaustive_decide(fano, vertex_budget=5)
        assert verdict is Colorability.UNDETERMINED
        assert coloring is None

    def test_witness_always_proper(self):
        for H in random_instances(60, seed=21, p_max=9):
            verdict, coloring = exhaustive_decide(H)
            if verdict is Colorability.YES:
                assert is_proper(H, coloring.colors) is None

    def test_single_vertex_edges(self):
        H = normalize([[0]], n=1, p=2)
        assert exhaustive_decide(H)[0] is Colorability.NO


class TestOrderingExistence:
    def test_below_bound_some_ordering_colors_properly(self):
        # whenever m2 < bound(n), some ordering must produce a proper coloring;
        # exhausting orderings is budgeted at p <= 8
        found_cases = 0
        for H in random_instances(30, seed=31, p_max=8, m_max=12):
            if m2(H) >= bound(H.n):
                continue
            found_cases += 1
            hit = False
            for perm in itertools.permutations(range(H.p)):
                out = greedy_color(H, Ordering.from_vertex_sequence(perm))
                if out.coloring.proper:
                    hit = True
                    break
            assert hit, f"no ordering colors {H} despite m2 < bound"
        assert found_cases >= 10


class TestRandomRestart:
    def test_single_edge_first_trial(self, single_edge):
        result = random_restart_color(single_edge, max_trials=1, seed=7)
        assert result is not None
        pi, coloring = result
        assert coloring.proper

    def test_k35_never_succeeds(self, k35):
        assert random_restart_color(k35, max_trials=10_000, seed=1) is None

    def test_agrees_with_decider(self):
        for H in random_instances(30, seed=41, p_max=8, m_max=10):
            verdict, _ = exhaustive_decide(H)
            result = random_restart_color(H, max_trials=400, seed=3)
            if result is not None:
                assert verdict is Colorability.YES
                pi, coloring = result
                assert is_proper(H, coloring.colors) is None

    def test_deterministic(self, triangle):
        H = normalize([[0, 1], [1, 2], [2, 3]], n=2, p=4)
        r1 = random_restart_color(H, max_trials=5, seed=9)
        r2 = random_restart_color(H, max_trials=5, seed=9)
        assert r1 == r2


def _three_k47_minus_an_edge():
    """Three disjoint copies of the complete 4-graph on 7 vertices, each missing one edge.

    Colorable, but about one uniform ordering in 340 colors it greedily.
    """
    edges = []
    for c in range(3):
        edges += [[v + 7 * c for v in e] for e in complete_hypergraph(4).edges[1:]]
    return normalize(edges, n=4, p=21)


class TestBatchedKernelOracles:
    def test_greedy_matches_scalar_oracle(self):
        rng = random.Random(71)
        for H in random_instances(400, seed=71, n_choices=(1, 2, 3, 4), p_max=12, m_max=30):
            seq = list(range(H.p))
            rng.shuffle(seq)
            pi = Ordering.from_vertex_sequence(seq)
            assert greedy_color(H, pi) == oracle_greedy(H, pi)

    def test_greedy_beyond_int64_masks(self):
        # p >= 63 leaves int64 bitsets; the kernel falls back to Python ints
        H = normalize([[0, 1, 64], [1, 2, 3], [64, 65, 66], [2, 65, 70]], n=3, p=71)
        rng = random.Random(3)
        for _ in range(20):
            seq = list(range(H.p))
            rng.shuffle(seq)
            pi = Ordering.from_vertex_sequence(seq)
            assert greedy_color(H, pi) == oracle_greedy(H, pi)

    @pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 3000])
    def test_restart_matches_oracle(self, trials):
        hs = random_instances(6, seed=trials, p_max=9, m_max=14)
        hs += [complete_hypergraph(3), _three_k47_minus_an_edge()]
        for i, H in enumerate(hs):
            want = oracle_restart(H, trials, seed=i)
            got = random_restart_color(H, max_trials=trials, seed=i)
            assert got == (None if want is None else want[1:])

    def test_proper_trial_in_a_later_block(self):
        H = _three_k47_minus_an_edge()
        t, pi, coloring = oracle_restart(H, 3000, seed=5)
        assert t > 1024
        assert random_restart_color(H, max_trials=3000, seed=5) == (pi, coloring)
        assert random_restart_color(H, max_trials=t, seed=5) is None
        assert random_restart_color(H, max_trials=t + 1, seed=5) == (pi, coloring)
