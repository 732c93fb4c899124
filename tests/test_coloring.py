import itertools
import math
import random
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from propb.coloring import (
    Color,
    Colorability,
    check_order,
    exhaustive_decide,
    greedy_color,
    random_restart_color,
    TRIAL_BLOCK,
    _trial_keys,
    _trial_planes,
)
from propb.errors import InvalidOrdering
from propb.hypergraph import bound, complete_hypergraph, covered_vertices, m2, normalize, pad, random_hypergraph
from propb.separation import count_separated, monte_carlo_separation

from conftest import (
    brute_separates,
    is_proper,
    oracle_monte_carlo,
    oracle_decide,
    oracle_greedy,
    oracle_restart,
    oracle_trial_order,
    planted_instance,
    random_instances,
    random_ordering,
    splitmix64,
    tied_keys_graph,
)

B, R = Color.BLUE, Color.RED


class TestOrdering:
    def test_bijection_enforced(self, triangle):
        for bad in ([0, 0, 1], (1, 2, 3), np.array([[2, 2, 0]])[0]):
            with pytest.raises(InvalidOrdering, match="is not a permutation of 0..2"):
                greedy_color(triangle, bad)
            with pytest.raises(InvalidOrdering, match="is not a permutation of 0..2"):
                count_separated(triangle, bad)

    def test_messages(self):
        with pytest.raises(InvalidOrdering) as exc:
            check_order([0, 0, 1])
        assert str(exc.value) == "sequence [0, 0, 1] is not a permutation of 0..2"
        with pytest.raises(InvalidOrdering) as exc:
            check_order([0, 1, 2], 5)
        assert str(exc.value) == "ordering covers 3 vertices, hypergraph has 5"

    @pytest.mark.parametrize("order", [[0, 1], [0, 1, 2, 3]])
    def test_wrong_length_refused(self, triangle, order):
        with pytest.raises(InvalidOrdering, match=f"covers {len(order)} vertices, hypergraph has 3"):
            greedy_color(triangle, order)
        with pytest.raises(InvalidOrdering, match=f"covers {len(order)} vertices, hypergraph has 3"):
            count_separated(triangle, order)

    def test_list_tuple_and_numpy_row_alike(self, k35):
        seq = [3, 1, 4, 0, 2]
        forms = [seq, tuple(seq), np.array([seq], dtype=np.int64)[0]]
        assert check_order(forms[2]) == (3, 1, 4, 0, 2)
        assert all(type(v) is int for v in check_order(forms[2]))
        want = greedy_color(k35, seq)
        assert all(greedy_color(k35, o) == want for o in forms)
        assert [count_separated(k35, o) for o in forms] == [1, 1, 1]


class TestGreedyColor:
    def test_single_edge_identity(self, single_edge):
        out = greedy_color(single_edge, range(2))
        assert out.coloring.colors == (B, R)
        assert out.coloring.proper

    def test_triangle_hand_trace(self, triangle):
        out = greedy_color(triangle, range(3))
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
            pi = random_ordering(H.p, rng)
            out = greedy_color(H, pi)
            for e in H.edges:
                assert any(out.coloring.colors[v] is R for v in e)

    def test_failure_yields_separated_simple_pair(self):
        rng = random.Random(5)
        checked = 0
        for H in random_instances(300, seed=5, p_max=10):
            pi = random_ordering(H.p, rng)
            out = greedy_color(H, pi)
            if out.coloring.proper:
                continue
            checked += 1
            w = out.separated_witness
            X, Y = H.edges[w.first], H.edges[w.second]
            assert set(X) & set(Y) == {w.meet}
            assert brute_separates(pi, X, Y)
            # the monochromatic edge is Y and it is all Red
            assert all(out.coloring.colors[v] is R for v in Y)
        assert checked > 20

    def test_deterministic(self, k35):
        pi = [3, 1, 4, 0, 2]
        assert greedy_color(k35, pi) == greedy_color(k35, pi)

    def test_ordering_size_mismatch(self, triangle):
        with pytest.raises(InvalidOrdering):
            greedy_color(triangle, range(4))

    def test_uncovered_vertices_blue(self):
        H = normalize([[0, 1]], n=2, p=4)
        out = greedy_color(H, range(4))
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

    def test_budget_undetermined(self, fano, monkeypatch):
        monkeypatch.setattr("propb.coloring.NODE_BUDGET", 0)
        verdict, coloring = exhaustive_decide(fano)
        assert verdict is Colorability.UNDETERMINED
        assert coloring is None

    def test_budget_admits_exactly_budget_nodes(self, fano, monkeypatch):
        def verdict_within(nodes):
            monkeypatch.setattr("propb.coloring.NODE_BUDGET", nodes)
            return exhaustive_decide(fano)[0]

        k = next(k for k in range(1, 1 << 14) if verdict_within(k) is not Colorability.UNDETERMINED)
        assert verdict_within(k) is Colorability.NO
        assert verdict_within(k - 1) is Colorability.UNDETERMINED

    def test_witness_always_proper(self):
        for H in random_instances(60, seed=21, p_max=9):
            verdict, coloring = exhaustive_decide(H)
            if verdict is Colorability.YES:
                assert is_proper(H, coloring.colors) is None

    def test_single_vertex_edges(self):
        H = normalize([[0]], n=1, p=2)
        assert exhaustive_decide(H)[0] is Colorability.NO

    def test_matches_sweep_oracle(self):
        verdicts = Counter()
        for H in random_instances(1200, seed=51, n_choices=(1, 2, 3, 4), p_max=12):
            verdict, _ = exhaustive_decide(H)
            assert verdict is oracle_decide(H), H
            verdicts[verdict] += 1
        assert verdicts[Colorability.YES] > 300 and verdicts[Colorability.NO] > 300

    def test_yes_witness_proper_with_uncovered_blue(self):
        checked = 0
        for H in random_instances(400, seed=52, n_choices=(1, 2, 3, 4), p_max=12, m_max=15):
            verdict, coloring = exhaustive_decide(H)
            if verdict is not Colorability.YES:
                continue
            checked += 1
            assert is_proper(H, coloring.colors) is None
            cov = covered_vertices(H)
            assert all(coloring.colors[v] is B for v in range(H.p) if v not in cov)
        assert checked > 100

    @pytest.mark.parametrize("n, c", [(3, 23), (3, 24), (4, 23), (4, 24), (3, 30)])
    def test_planted_clique_no(self, n, c):
        # the analyze inputs of the benchmark's instances workload have this shape at c = 23 and 24;
        # the node budget alone bounds the search, so c = 30 is decided too
        for seed in range(3):
            H = _planted_clique(n, c, extra=40, seed=seed)
            assert len(covered_vertices(H)) == c
            assert exhaustive_decide(H)[0] is Colorability.NO

    def test_beyond_62_covered_vertices(self):
        K = complete_hypergraph(3)
        H = pad(K, 63, 21)
        assert len(covered_vertices(H)) == 68
        assert exhaustive_decide(H)[0] is Colorability.NO
        # K_5^3 minus one edge is 2-colorable, and so is its padding
        G = pad(normalize(K.edges[1:], n=3, p=5), 63, 21)
        verdict, coloring = exhaustive_decide(G)
        assert verdict is Colorability.YES
        assert is_proper(G, coloring.colors) is None

    def test_yes_past_24_covered_vertices(self):
        H = random_hypergraph(3, 30, 60, seed=2)
        assert len(covered_vertices(H)) > 24
        verdict, coloring = exhaustive_decide(H)
        assert verdict is Colorability.YES
        assert is_proper(H, coloring.colors) is None


def _planted_clique(n, c, extra, seed):
    """The complete n-graph on the top 2n-1 of c vertices plus `extra` random n-sets covering the rest."""
    rng = random.Random(seed)
    k = 2 * n - 1
    clique = {tuple(e) for e in itertools.combinations(range(c - k, c), n)}
    free = list(range(c - k))
    rng.shuffle(free)
    edges = set()
    for i in range(0, len(free), n):
        part = free[i : i + n]
        part += rng.sample([v for v in range(c) if v not in part], n - len(part))
        edges.add(tuple(sorted(part)))
    while len(edges) < extra:
        e = tuple(sorted(rng.sample(range(c), n)))
        if e not in clique:
            edges.add(e)
    return normalize(edges | clique, n=n, p=c)


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
                out = greedy_color(H, perm)
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

    def test_order_is_a_tuple_of_python_ints(self):
        H = normalize([[0, 1], [1, 2], [2, 3]], n=2, p=4)
        order, _ = random_restart_color(H, max_trials=50, seed=0)
        assert type(order) is tuple and all(type(v) is int for v in order)
        assert sorted(order) == [0, 1, 2, 3]

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
            pi = seq
            assert greedy_color(H, pi) == oracle_greedy(H, pi)

    def test_greedy_beyond_int64_masks(self):
        # vertex ids past 64 widen the vertex masks, not the lanes
        H = normalize([[0, 1, 64], [1, 2, 3], [64, 65, 66], [2, 65, 70]], n=3, p=71)
        rng = random.Random(3)
        for _ in range(20):
            seq = list(range(H.p))
            rng.shuffle(seq)
            pi = seq
            assert greedy_color(H, pi) == oracle_greedy(H, pi)

    @pytest.mark.parametrize("trials", [1, TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 1, 3000])
    def test_restart_matches_oracle(self, trials):
        hs = random_instances(6, seed=trials, p_max=9, m_max=14)
        hs += [complete_hypergraph(3), _three_k47_minus_an_edge()]
        for i, H in enumerate(hs):
            want = oracle_restart(H, trials, seed=i)
            got = random_restart_color(H, max_trials=trials, seed=i)
            assert got == (None if want is None else want[1:])

    def test_proper_trial_in_a_later_block(self):
        # under seed 12 the first proper trial is t = 1272, in the second block
        H = _three_k47_minus_an_edge()
        t, pi, coloring = oracle_restart(H, 3000, seed=12)
        assert t > TRIAL_BLOCK
        assert random_restart_color(H, max_trials=3000, seed=12) == (pi, coloring)
        assert random_restart_color(H, max_trials=t, seed=12) is None
        assert random_restart_color(H, max_trials=t + 1, seed=12) == (pi, coloring)


def _restart_agrees(H, trials, seed):
    want = oracle_restart(H, trials, seed)
    return random_restart_color(H, max_trials=trials, seed=seed) == (None if want is None else want[1:])


class TestLaneEdgeCases:
    @pytest.mark.parametrize(
        "edges, n, p",
        [([], 2, 0), ([], 2, 1), ([[0]], 1, 1), ([], 2, 2), ([[0, 1]], 2, 2), ([[0], [1]], 1, 2)],
        ids=["p0", "p1-empty", "p1-loop", "p2-empty", "p2-edge", "p2-loops"],
    )
    def test_zero_one_and_two_vertices(self, edges, n, p):
        H = normalize(edges, n=n, p=p)
        for order in itertools.permutations(range(p)):
            assert greedy_color(H, order) == oracle_greedy(H, order)
        for trials in (1, 5, TRIAL_BLOCK + 1):
            assert _restart_agrees(H, trials, seed=3)

    @pytest.mark.parametrize("p", [64, 70])
    def test_vertex_ids_past_64(self, p):
        rng = random.Random(p)
        H = normalize([rng.sample(range(p), 3) for _ in range(40)] + [[0, 1, p - 1]], n=3, p=p)
        for _ in range(30):
            order = random_ordering(p, rng)
            assert greedy_color(H, order) == oracle_greedy(H, order)
        for seed in range(5):
            assert _restart_agrees(H, 50, seed)

    @pytest.mark.parametrize("trials", [1, TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 1])
    def test_top_seed_wraps_around(self, trials):
        # seed + (k + 1) * gamma passes 2^64 from the first output on
        for H in (complete_hypergraph(3), _three_k47_minus_an_edge(), *random_instances(4, seed=5, p_max=9)):
            assert _restart_agrees(H, trials, seed=2**64 - 1)

    def test_keys_tied_in_their_top_bits(self):
        # one tied pair agrees in its top 32 bits and visits its higher vertex first
        H = tied_keys_graph()
        pos = {v: k for k, v in enumerate(oracle_trial_order(H.p, 0, 0))}
        before, _ = _trial_planes(H, 0, 0, 1)
        for u, v in H.edges:
            assert before[u][v] == (pos[u] < pos[v]) and before[v][u] == (pos[v] < pos[u])
        assert _restart_agrees(H, 1, seed=0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_planted_24_vertices(self, n):
        H = planted_instance(n, 24, 40, seed=n)
        rng = random.Random(n)
        for _ in range(50):
            order = random_ordering(24, rng)
            assert greedy_color(H, order) == oracle_greedy(H, order)
        # without the clique some trials are proper, at varying depths
        H = normalize(H.edges[math.comb(2 * n - 1, n) :], n=n, p=24)
        for seed in range(8):
            assert _restart_agrees(H, 300, seed)


class TestIsolatedVertices:
    @pytest.mark.parametrize("run", [monte_carlo_separation, random_restart_color], ids=["mc", "restart"])
    def test_keys_only_for_vertices_in_an_edge(self, run):
        # 16-byte keys for all 4000 vertices over a 1024-trial block would take 64 MB
        H = normalize([[0, 1, 2], [2, 3, 4]], n=3, p=4000)
        tracemalloc.start()
        try:
            run(H, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_padded_with_isolated_vertices_matches_oracles(self):
        rng = random.Random(200)
        support = rng.sample(range(200), 20)
        H = normalize([rng.sample(support, 3) for _ in range(15)], n=3, p=200)
        clique = pad(complete_hypergraph(3), 195, 1)
        for seed in range(3):
            for G in (H, clique):
                assert monte_carlo_separation(G, 300, seed) == oracle_monte_carlo(G, 300, seed)
                assert _restart_agrees(G, 300, seed)

    def test_colours_of_two_far_edges_at_200000_vertices(self):
        # each edge's last-visited vertex is Red and every other vertex Blue, read off the edges, not range(p)
        p = 200_000
        H = normalize([[0, 1, 2], [p - 3, p - 2, p - 1]], n=3, p=p)
        coloring = greedy_color(H, range(p)).coloring
        assert coloring.proper and [v for v, c in enumerate(coloring.colors) if c is R] == [2, p - 1]
        order, coloring = random_restart_color(H, 1)
        pos = {v: k for k, v in enumerate(order)}
        last = sorted(max(e, key=pos.__getitem__) for e in H.edges)
        assert coloring.proper and [v for v, c in enumerate(coloring.colors) if c is R] == last


def _lane_words(p, seed, start, stop):
    """Per vertex, the 64-bit key of each trial start..stop-1, read lane by lane in little-endian byte order."""
    T = stop - start
    return [
        list(struct.unpack(f"<{2 * T}Q", key.to_bytes(16 * T, "little"))[::2])
        for key in _trial_keys(p, seed, start, stop, range(p))
    ]


def _keyed_orders(p, seed, start, stop):
    """Visit order of each trial start..stop-1: its vertices by key, ties to the lower vertex."""
    words = _lane_words(p, seed, start, stop)
    return [tuple(sorted(range(p), key=lambda v: words[v][i])) for i in range(stop - start)]


class TestTrialStream:
    def test_published_splitmix64_vector(self):
        want = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        assert [splitmix64(1234567, k) for k in range(3)] == want
        # one trial's key is the plain output, and trial 0 at p = 3 visits the vertices in their order
        assert _trial_keys(3, 1234567, 0, 1, range(3)) == want
        order, _ = random_restart_color(normalize([], n=2, p=3), max_trials=1, seed=1234567)
        assert order == (1, 0, 2)

    def test_final_step_orders_keys_tied_in_their_top_bits(self):
        # z ^= z >> 31 keeps the top 31 bits, so the last SplitMix64 step
        # decides an order only between keys equal there; one row of 2^17
        # keys at seed 0 holds two such pairs
        p = 1 << 17
        keys = [splitmix64(0, i) for i in range(p)]
        assert sum(c > 1 for c in Counter(k >> 33 for k in keys).values()) == 2
        assert [w for (w,) in _lane_words(p, 0, 0, 1)] == keys
        assert _keyed_orders(p, 0, 0, 1)[0] == tuple(sorted(range(p), key=keys.__getitem__))

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_matches_scalar_oracle(self, seed):
        for p in (2, 5, 11, 71):
            words = _lane_words(p, seed, 40, 60)
            assert words == [[splitmix64(seed, t * p + v) for t in range(40, 60)] for v in range(p)]
            got = _keyed_orders(p, seed, 40, 60)
            assert got == [tuple(oracle_trial_order(p, seed, t)) for t in range(40, 60)]

    def test_block_layout_independent(self):
        p, seed = 11, 3
        whole = _lane_words(p, seed, 0, 3000)
        blocks = [_lane_words(p, seed, a, min(a + 1024, 3000)) for a in range(0, 3000, 1024)]
        assert [sum((block[v] for block in blocks), []) for v in range(p)] == whole
        for t in (0, 1023, 1024, 2999):
            assert _trial_keys(p, seed, t, t + 1, range(p)) == [words[t] for words in whole]

    def test_uniform_over_the_orders_of_four_vertices(self):
        trials = 240_000
        orders = _keyed_orders(4, 0, 0, trials)
        counts = Counter(orders)
        assert set(counts) == set(itertools.permutations(range(4)))
        sigma = math.sqrt(trials * (1 / 24) * (23 / 24))
        assert all(abs(c - trials / 24) <= 5 * sigma for c in counts.values())

    def test_shapes_at_zero_and_one_vertex(self):
        assert _trial_keys(0, 5, 0, 4, range(0)) == []
        assert _keyed_orders(0, 5, 0, 4) == [()] * 4
        assert _lane_words(1, 5, 3, 7) == [[splitmix64(5, t) for t in range(3, 7)]]
        assert _keyed_orders(1, 5, 3, 7) == [(0,)] * 4
        assert random_restart_color(normalize([], n=2, p=0), max_trials=4, seed=5)[0] == ()
        assert random_restart_color(normalize([], n=2, p=1), max_trials=4, seed=5)[0] == (0,)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(ValueError):
            _trial_keys(3, seed, 0, 1, range(3))
