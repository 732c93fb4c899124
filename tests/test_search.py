import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

import pytest

from propb import search
from propb.cli import main
from propb.coloring import Colorability, exhaustive_decide
from propb.errors import BudgetExceeded, CounterexampleFound, FixtureFailure
from propb.hypergraph import (
    Hypergraph,
    complete_hypergraph,
    covered_vertices,
    fano_plane,
    m2,
    normalize,
    pad,
    random_hypergraph,
    relabel,
)
from propb.search import (
    _canonical,
    _class_representatives,
    _edge_slots,
    _extension_tables,
    _scan_graphs,
    canonical_form,
    verify_bound_exhaustive,
    verify_fixture_suite,
)

from conftest import brute_automorphism_count, is_bipartite, oracle_scan, random_instances


def _labeled_graphs(p):
    E = list(combinations(range(p), 2))
    for mask in range(1 << len(E)):
        yield Hypergraph(n=2, p=p, edges=tuple(E[i] for i in range(len(E)) if mask >> i & 1))


def reference_scan(p: int) -> dict:
    """Slow no-shortcut census of every labeled graph on p vertices, as the scan reports it.

    Object path throughout: the decider, m2 and the covered-vertex set, per
    graph in mask order.  Asserts the theorem per graph: a non-bipartite
    graph has m2 >= 6, and one at m2 = 6 holds a triangle.
    """
    if p > 5:
        raise BudgetExceeded("reference enumeration is budgeted at p <= 5")
    graphs = list(_labeled_graphs(p))
    nc = [(mask, H, m2(H)) for mask, H in enumerate(graphs) if exhaustive_decide(H)[0] is Colorability.NO]
    for _, H, v in nc:
        triangle = any({(a, b), (a, c), (b, c)} <= set(H.edges) for a, b, c in combinations(range(p), 3))
        assert v > 6 or (v == 6 and triangle), H
    return {
        "graphs": len(graphs),
        "non_colorable": len(nc),
        "candidate_masks": [mask for mask, _, v in nc if v <= 6],
        "seymour_violations": sum(len(H.edges) < len(covered_vertices(H)) for _, H, _ in nc),
    }


def labeled_bipartite_counts(max_p: int) -> list[int]:
    """Labeled bipartite graphs on 0..max_p vertices (OEIS A047864).

    A 2-colored labeled graph is a vertex split plus any edge set across
    it, so the 2-colored graphs have EGF A(x) = sum_n sum_k C(n,k)
    2^(k(n-k)) x^n/n!.  Each bipartite graph has 2^(components) colorings,
    so its EGF B(x) satisfies B(x)^2 = A(x); solve for B term by term.
    """
    a = [
        Fraction(sum(math.comb(n, k) << (k * (n - k)) for k in range(n + 1)), math.factorial(n))
        for n in range(max_p + 1)
    ]
    b = [Fraction(1)]
    for n in range(1, max_p + 1):
        b.append((a[n] - sum(b[i] * b[n - i] for i in range(1, n))) / 2)
    return [int(b[n] * math.factorial(n)) for n in range(max_p + 1)]


class TestBipartite:
    def test_matches_exponential_decider_up_to_p5(self):
        # every labeled graph on <= 5 vertices, both deciders
        for p in range(1, 6):
            E = list(combinations(range(p), 2))
            for mask in range(1 << len(E)):
                H = normalize([E[i] for i in range(len(E)) if mask >> i & 1], n=2, p=p)
                verdict, _ = exhaustive_decide(H)
                assert is_bipartite(H) == (verdict is Colorability.YES)

    def test_rejects_non_graphs(self, fano):
        with pytest.raises(ValueError):
            is_bipartite(fano)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_scan_cut_test_matches_bfs(self, p):
        # the BFS is the independent oracle for the scan's coloring cut test
        expected = sum(not is_bipartite(H) for H in _labeled_graphs(p))
        assert _scan_graphs(p)["non_colorable"] == expected


def brute_canonical(H):
    """Lexicographically minimal edge list over all p! relabelings: the canonical-form oracle."""
    return min(
        tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in H.edges))
        for perm in permutations(range(H.p))
    )


def same_partition(keys_a, keys_b) -> bool:
    """Whether two keyings of one list of graphs split it into the same classes."""
    return len(set(keys_a)) == len(set(keys_b)) == len(set(zip(keys_a, keys_b)))


def random_shuffled(rng, H):
    mapping = list(range(H.p))
    rng.shuffle(mapping)
    return relabel(H, mapping)


def incidence_graph(H):
    """Vertex-edge incidence graph; isomorphic exactly when the hypergraphs are."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from((("v", v) for v in range(H.p)), kind="v")
    G.add_nodes_from((("e", i) for i in range(len(H.edges))), kind="e")
    G.add_edges_from((("v", v), ("e", i)) for i, e in enumerate(H.edges) for v in e)
    return G


class TestCanonicalForm:
    def test_relabel_invariant(self):
        import random

        rng = random.Random(4)
        for _ in range(20):
            H = random_hypergraph(2, 6, rng.randint(0, 10), seed=rng.getrandbits(16))
            assert canonical_form(H) == canonical_form(random_shuffled(rng, H))

    def test_relabel_invariant_3_graphs_at_p8(self):
        import random

        rng = random.Random(8)
        for _ in range(20):
            H = random_hypergraph(3, 8, rng.randint(1, 56), seed=rng.getrandbits(16))
            assert canonical_form(H) == canonical_form(random_shuffled(rng, H))

    def test_triangle_form(self, triangle):
        assert canonical_form(triangle) == "0,1;0,2;1,2"

    @pytest.mark.parametrize("p, classes", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
    def test_partition_of_all_graphs_matches_brute_force(self, p, classes):
        # classes: unlabeled graphs on p vertices, OEIS A000088
        graphs = list(_labeled_graphs(p))
        fast = [canonical_form(H) for H in graphs]
        assert same_partition(fast, [brute_canonical(H) for H in graphs])
        assert len(set(fast)) == classes

    def test_partition_of_random_3_graphs_matches_brute_force(self):
        import random

        rng = random.Random(7)
        graphs = []
        for _ in range(30):
            p = rng.randint(3, 7)
            H = random_hypergraph(3, p, rng.randint(0, min(8, math.comb(p, 3))), seed=rng.getrandbits(16))
            graphs += [H, random_shuffled(rng, H)]
        # isomorphism classes are per vertex count; neither encoding records p
        fast = [(H.p, canonical_form(H)) for H in graphs]
        assert same_partition(fast, [(H.p, brute_canonical(H)) for H in graphs])
        # the sparse draws repeat classes, so the partition is not all singletons and pairs
        assert len(set(fast)) < len(graphs) // 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_networkx(self, n):
        import random

        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        kind = lambda a, b: a["kind"] == b["kind"]
        agreed = Counter()
        for _ in range(60):
            p = rng.randint(n, 7)
            m = rng.randint(0, min(6, math.comb(p, n)))
            A = random_hypergraph(n, p, m, seed=rng.getrandbits(16))
            B = random_hypergraph(n, p, m, seed=rng.getrandbits(16))
            iso = nx.is_isomorphic(incidence_graph(A), incidence_graph(B), node_match=kind)
            assert (canonical_form(A) == canonical_form(B)) == iso
            agreed[iso] += 1
        assert agreed[True] and agreed[False]

    def test_isolated_vertices_stay_out_of_the_budget(self):
        import random

        # cells (9,) and (6, 3, 5) admit 9! and 6! 3! 5! relabelings, but the 9 and the 6 lie in no edge
        edgeless = Hypergraph(n=2, p=9, edges=())
        assert _canonical(edgeless) == ("", math.factorial(9))
        padded = pad(complete_hypergraph(3), 9, 1)
        form, aut = _canonical(padded)
        # Aut is every permutation of the 6 isolated vertices, of the extra edge and of the K_5^(3)
        assert aut == math.factorial(6) * math.factorial(3) * math.factorial(5)
        rng = random.Random(14)
        for _ in range(10):
            assert canonical_form(random_shuffled(rng, padded)) == form

    def test_vertex_transitive_p9_exceeds_budget(self):
        # one cell of 9 vertices admits 9! relabelings, past the 8! budget
        with pytest.raises(BudgetExceeded):
            canonical_form(complete_hypergraph(5))


_AUT_CASES = {
    "c5": (normalize([(i, (i + 1) % 5) for i in range(5)], n=2, p=5), 10),
    "k5-3": (complete_hypergraph(3), 120),
    "fano": (fano_plane(), 168),
    "padded-k5-3": (pad(complete_hypergraph(3), 3, 1), 720),
    "triangle-matching-p7": (normalize([(0, 1), (0, 2), (1, 2), (3, 4), (5, 6)], n=2, p=7), 48),
}


class TestAutomorphismCount:
    @pytest.mark.parametrize("name", _AUT_CASES)
    def test_named_graphs(self, name):
        H, aut = _AUT_CASES[name]
        assert _canonical(H) == (canonical_form(H), aut)
        assert brute_automorphism_count(H) == aut

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_instances(self, n):
        for H in random_instances(40, seed=n, n_choices=(n,), p_max=6):
            assert _canonical(H)[1] == brute_automorphism_count(H), H

    def test_isolated_vertices(self):
        # two more vertices in no edge: the search leaves their cell out, and its k! orders still count
        for H in random_instances(30, seed=5, p_max=5):
            H = pad(H, 2, 0)
            assert _canonical(H)[1] == brute_automorphism_count(H), H


def _mask(p, edges):
    slot = {e: i for i, e in enumerate(_edge_slots(p))}
    return sum(1 << slot[tuple(sorted(e))] for e in edges)


def _labelings(p, edges):
    """Masks of every labeling of a graph on p vertices, ascending."""
    return sorted({_mask(p, [(perm[u], perm[v]) for u, v in edges]) for perm in permutations(range(p))})


def _per_mask_classes(p, masks):
    reps = {}
    for mask in masks:
        reps.setdefault(canonical_form(search._graph_from_mask(p, mask)), mask)
    return reps


def _counting_canonical(monkeypatch):
    """Patch search._canonical to count its calls; returns the running count as a one-item list."""
    calls, real = [0], search._canonical

    def counted(H):
        calls[0] += 1
        return real(H)

    monkeypatch.setattr(search, "_canonical", counted)
    return calls


_C6 = [(i, (i + 1) % 6) for i in range(6)]
_2K3 = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]


class TestClassRepresentatives:
    def test_one_degree_sequence_two_classes_falls_back(self, monkeypatch):
        # 60 labeled C6 and 10 labeled 2K3, all 2-regular: no class fills the group's 6! / |Aut|
        masks = sorted(_labelings(6, _C6) + _labelings(6, _2K3))
        assert len(masks) == 70
        calls = _counting_canonical(monkeypatch)
        reps = _class_representatives(6, masks)
        assert calls[0] == 70
        assert reps == _per_mask_classes(6, masks) and len(reps) == 2

    def test_set_not_closed_under_relabeling(self):
        mask = _mask(6, _C6)
        assert _class_representatives(6, [mask]) == _per_mask_classes(6, [mask])

    @pytest.mark.parametrize("p", range(1, 8))
    def test_census_equality_masks(self, p):
        masks = _scan_graphs(p)["candidate_masks"]
        assert _class_representatives(p, masks) == _per_mask_classes(p, masks)

    def test_census_canonicalises_one_graph_per_class(self, monkeypatch):
        # a work count, not a wall time: one canonical form per equality class
        calls = _counting_canonical(monkeypatch)
        _, summary = verify_bound_exhaustive(2, 7)
        assert summary["equality_labeled"] == 455
        assert calls[0] == summary["equality_classes"] == 9


class TestOracleEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_fast_pass_matches_reference(self, p):
        fast = _scan_graphs(p)
        slow = reference_scan(p)
        # every field the census emits, counts and mask lists alike
        assert fast == slow


# every p <= 6 as one range, and p = 7 as eight ranges of 2^18 masks
_SCAN_RANGES = [(p, 0, 1 << math.comb(p, 2)) for p in range(1, 7)] + [
    (7, lo, lo + (1 << 18)) for lo in range(0, 1 << 21, 1 << 18)
]


@cache
def _whole_scan(p):
    return _scan_graphs(p)


@cache
def _oracle_range(p, lo, hi):
    return oracle_scan(p, lo, hi)


def _masks_in(scan, lo, hi):
    return {k: [m for m in v if lo <= m < hi] for k, v in scan.items() if k.endswith("_masks")}


@pytest.mark.parametrize("r", _SCAN_RANGES, ids=[f"p{p}-{lo >> 18}" for p, lo, _ in _SCAN_RANGES])
def test_scan_matches_per_mask_oracle(r):
    # the scan's mask lists, cut to the range, against the oracle over that range alone
    p, lo, hi = r
    scan, oracle = _whole_scan(p), _oracle_range(*r)
    assert _masks_in(scan, lo, hi) == _masks_in(oracle, lo, hi)
    if (lo, hi) == (0, scan["graphs"]):
        # whole dicts, counts and mask lists alike
        assert scan == oracle


def test_p7_scan_matches_its_eight_oracle_ranges():
    # the whole p = 7 dict against the eight ranges of test_scan_matches_per_mask_oracle put together
    parts = [_oracle_range(*r) for r in _SCAN_RANGES if r[0] == 7]
    assert _whole_scan(7) == {
        "graphs": sum(d["graphs"] for d in parts),
        "non_colorable": sum(d["non_colorable"] for d in parts),
        "candidate_masks": [m for d in parts for m in d["candidate_masks"]],
        "seymour_violations": sum(d["seymour_violations"] for d in parts),
    }


def _added(p):
    """(added vertices, row vertices, column bits) of the census tables at p."""
    k = min(p, 2)
    return k, p - k, math.comb(p, 2) - math.comb(p - k, 2)


def _column_edges(p, c):
    """Column c's edges as the tables lay them out: bit 0 is 0~1, then vertex 0's row neighbours, then vertex 1's."""
    k, q, _ = _added(p)
    slots = [(0, 1)] * (k == 2) + [(a, k + v) for a in range(k) for v in range(q)]
    return [e for i, e in enumerate(slots) if c >> i & 1]


def _row_edges(q, h):
    return [e for i, e in enumerate(_edge_slots(q)) if h >> i & 1]


@pytest.mark.parametrize("p", range(1, 7))
def test_extendable_bit_is_bipartiteness_of_the_row_plus_two_vertices(p):
    # bit c of ext[h]: the row h on vertices k..p-1 plus column c at the k added vertices is bipartite
    k, q, L = _added(p)
    ext = _extension_tables(p)[2]
    assert len(ext) == 1 << math.comb(q, 2)
    for h, bits in enumerate(ext):
        for c in range(1 << L):
            edges = [(u + k, v + k) for u, v in _row_edges(q, h)] + _column_edges(p, c)
            assert _mask(p, edges) == h << L | c
            assert bool(bits >> c & 1) == is_bipartite(normalize(edges, n=2, p=p)), (h, c)


@pytest.mark.parametrize("q", range(6))
def test_row_lanes_hold_each_rows_degrees_and_m2(q):
    # the rows on q vertices, and the column lanes, of the tables at p = q + 2
    p = q + 2
    deg, m2_h, _, _, base, meets = _extension_tables(p)
    assert len(deg) == q << math.comb(q, 2) and len(m2_h) == 1 << math.comb(q, 2)
    for h in range(len(m2_h)):
        H = normalize(_row_edges(q, h), n=2, p=q)
        degrees = Counter(v for e in H.edges for v in e)
        assert list(deg[q * h : q * h + q]) == [degrees[v] for v in range(q)], h
        assert m2_h[h] == m2(H), h
    # per column c, one byte at 256^c: the m2 of c alone, and how many edges of c meet each row vertex
    assert len(meets) == q
    for c in range(1 << _added(p)[2]):
        G = normalize(_column_edges(p, c), n=2, p=p)
        degrees = Counter(v for e in G.edges for v in e)
        assert base >> 8 * c & 255 == m2(G), c
        assert [lane >> 8 * c & 255 for lane in meets] == [degrees[2 + v] for v in range(q)], c


def test_tables_refuse_p8():
    # at p = 8 the rows reach 2^15 and a row's slack no longer fits its key lane
    with pytest.raises(ValueError):
        _extension_tables(8)


def test_cold_p7_scan_work(monkeypatch):
    # work counts, not a wall time: one increment lane (one _below table) per degree vector among the
    # 246 rows at m2 <= 6; the tables are built before _below is counted
    (deg, m2_h, *_), expected = _extension_tables(7), _whole_scan(7)
    below, lanes = search._below, [0]

    def counted(t):
        lanes[0] += 1
        return below(t)

    monkeypatch.setattr(search, "_below", counted)
    assert search._scan_graphs(7) == expected
    rows = [h for h in range(len(m2_h)) if m2_h[h] <= 6]
    assert len(rows) == 246
    assert lanes[0] == len({deg[5 * h : 5 * h + 5] for h in rows}) == 121


class TestVerifyGraphs:
    def test_p5_clean_run(self):
        records, summary = verify_bound_exhaustive(2, 5)
        assert summary["counterexamples"] == 0
        per_p = {s["p"]: s for s in summary["per_p"]}
        assert per_p[5]["graphs"] == 1 << 10
        # minimum m2 over non-bipartite graphs is 6 ...
        assert per_p[5]["min_m2_non_colorable"] == 6
        # ... attained only by triangle-containing graphs
        assert all(r["has_clique"] for r in records if r["meets_bound"])
        assert all(r["m2"] == 6 and r["meets_bound"] for r in records)

    def test_c5_strict_inequality(self):
        c5 = normalize([[i, (i + 1) % 5] for i in range(5)], n=2, p=5)
        from propb.hypergraph import m2 as m2_fn
        from propb.setpairs import find_clique

        assert m2_fn(c5) == 10
        assert find_clique(c5) is None
        verdict, _ = exhaustive_decide(c5)
        assert verdict is Colorability.NO

    def test_deterministic(self):
        r1, s1 = verify_bound_exhaustive(2, 4)
        r2, s2 = verify_bound_exhaustive(2, 4)
        assert r1 == r2 and s1 == s2

    def test_full_census_to_p7(self):
        ps = range(1, 8)
        bipartite = labeled_bipartite_counts(7)
        # equality: a triangle on any 3 vertices plus a matching on the rest
        matchings = [1, 1]
        for k in range(2, 5):
            matchings.append(matchings[k - 1] + (k - 1) * matchings[k - 2])
        records, summary = verify_bound_exhaustive(2, 7)
        assert summary["graphs"] == sum(1 << math.comb(p, 2) for p in ps) == 2_131_019
        assert summary["non_colorable"] == summary["graphs"] - sum(bipartite[1:]) == 2_022_178
        assert summary["equality_labeled"] == sum(
            math.comb(p, 3) * matchings[p - 3] for p in ps if p >= 3
        ) == 455
        # classes: a triangle plus j disjoint edges, 3 + 2j <= p
        assert summary["equality_classes"] == sum((p - 1) // 2 for p in ps if p >= 3) == 9
        assert summary["counterexamples"] == 0
        assert len(records) == 9
        # each p on its own, so errors at two values of p cannot cancel in the totals
        assert [s["p"] for s in summary["per_p"]] == list(ps)
        for s in summary["per_p"]:
            p = s["p"]
            assert s["graphs"] == 1 << math.comb(p, 2)
            assert s["non_colorable"] == (1 << math.comb(p, 2)) - bipartite[p]
            assert s["equality_labeled"] == (math.comb(p, 3) * matchings[p - 3] if p >= 3 else 0)
            assert s["equality_classes"] == ((p - 1) // 2 if p >= 3 else 0)
            assert s["min_m2_non_colorable"] == (6 if p >= 3 else None)

    def test_skip_p_resumes(self):
        full_records, full_summary = verify_bound_exhaustive(2, 4)
        part_records, part_summary = verify_bound_exhaustive(2, 4, skip_p=[1, 2, 3])
        assert [s["p"] for s in part_summary["per_p"]] == [4]
        assert part_summary["per_p"][0] == full_summary["per_p"][-1]

    def test_budget(self):
        # p <= 7 is the census's only guard; a budget is the sampler's sample count
        with pytest.raises(ValueError, match="census takes none"):
            verify_bound_exhaustive(2, 6, budget=100)
        with pytest.raises(BudgetExceeded):
            verify_bound_exhaustive(2, 8)

    def test_seymour_violations_appear_at_p5(self):
        # triangle + disjoint edge: non-2-colorable, 4 edges, 5 covered vertices
        _, summary = verify_bound_exhaustive(2, 5)
        per_p = {s["p"]: s for s in summary["per_p"]}
        assert per_p[4]["seymour_violations"] == 0
        assert per_p[5]["seymour_violations"] > 0

    def test_equality_records_sorted_and_typed(self):
        records, _ = verify_bound_exhaustive(2, 5)
        assert records == sorted(records, key=lambda r: (r["p"], r["canonical_form"]))
        for r in records:
            assert r["n"] == 2 and r["meets_bound"] and r["has_clique"]


class TestVerifySampled:
    def test_n3_smoke(self):
        records, summary = verify_bound_exhaustive(3, 7, budget=40, seed=2)
        assert summary["mode"] == "sampling"
        assert summary["counterexamples"] == 0
        assert summary["non_colorable"] > 0
        for r in records:
            assert r["m2"] >= 30

    def test_deterministic(self):
        a = verify_bound_exhaustive(3, 7, budget=15, seed=5)
        b = verify_bound_exhaustive(3, 7, budget=15, seed=5)
        assert a == b

    def test_past_p8_is_over_budget_before_any_draw(self, monkeypatch):
        # p <= 8 is the sampler's guard, as p <= 7 is the census's; it does not clip max_p
        def refuse(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(search, "random_hypergraph", refuse)
        with pytest.raises(BudgetExceeded, match="^sampling supports max_p <= 8$"):
            verify_bound_exhaustive(3, 9)

    def test_max_p_below_2n_minus_1_is_an_argument_error(self):
        # no guard runs out here: no non-colorable 3-graph has fewer than 5 vertices
        message = "^sampling reaches p = 4, below the 5 vertices a non-colorable 3-graph needs$"
        with pytest.raises(ValueError, match=message):
            verify_bound_exhaustive(3, 4)


class TestFixtureSuite:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_suite_passes(self, n):
        report = verify_fixture_suite(n)
        assert report["ok"]
        names = [e["name"] for e in report["fixtures"]]
        assert "complete" in names and "padded" in names
        by_name = {e["name"]: e for e in report["fixtures"]}
        complete = by_name["complete"]
        assert complete["meets_bound"] and complete["clique"] == list(range(2 * n - 1))
        assert by_name["padded"]["m2"] == complete["m2"]

    def test_extremal_sums_are_exact_fractions(self):
        report = verify_fixture_suite(3)
        sums = [e["bollobas_sum"] for e in report["fixtures"] if e["meets_bound"]]
        assert sums and all(type(s) is Fraction and s == Fraction(1) for s in sums)

    def test_fano_entry(self):
        report = verify_fixture_suite(3)
        fano_entry = next(e for e in report["fixtures"] if e["name"] == "fano")
        assert fano_entry["m2"] == 42 and not fano_entry["meets_bound"]
        assert fano_entry["clique"] is None

    def test_bad_n(self):
        with pytest.raises(ValueError):
            verify_fixture_suite(5)


# Each breaker patches one step of the verifier so that it reports a failure.


def _bound_above_the_triangle(monkeypatch):
    """The triangle, at m2 = 6, falls below a bound of 7."""
    monkeypatch.setattr(search, "bound", lambda n: 7)


def _no_clique_found(monkeypatch):
    """The triangle meets the bound, but the clique search finds no triangle in it."""
    monkeypatch.setattr(search, "find_clique", lambda H: None)


def _bound_above_every_sample(monkeypatch):
    monkeypatch.setattr(search, "bound", lambda n: 10**9)


def _decider_says_yes(monkeypatch):
    real = search.analyze

    def colorable(H, *args, **kwargs):
        analysis, bollobas = real(H, *args, **kwargs)
        return {**analysis, "colorable": Colorability.YES.value}, bollobas

    monkeypatch.setattr(search, "analyze", colorable)


def _histogram_off(monkeypatch):
    monkeypatch.setattr(search, "ordering_histogram", lambda H: {0: 1, 1: math.factorial(H.p) - 1})


def _no_sampling_attempts(monkeypatch):
    monkeypatch.setattr(search, "FIXTURE_ATTEMPTS", 0)


class TestVerifierFailures:
    def test_census_counterexample(self, monkeypatch):
        _bound_above_the_triangle(monkeypatch)
        with pytest.raises(CounterexampleFound) as exc:
            verify_bound_exhaustive(2, 5)
        assert exc.value.record == {
            "n": 2, "p": 3, "edge_count": 3, "m2": 6, "meets_bound": False, "has_clique": True,
            "canonical_form": "0,1;0,2;1,2",
        }
        assert str(exc.value).endswith(": 0,1;0,2;1,2")

    def test_census_equality_without_clique(self, monkeypatch):
        _no_clique_found(monkeypatch)
        with pytest.raises(CounterexampleFound) as exc:
            verify_bound_exhaustive(2, 5)
        assert exc.value.record == {
            "n": 2, "p": 3, "edge_count": 3, "m2": 6, "meets_bound": True, "has_clique": False,
            "canonical_form": "0,1;0,2;1,2",
        }
        assert str(exc.value).endswith(": 0,1;0,2;1,2")

    def test_sampled_counterexample(self, monkeypatch):
        _bound_above_every_sample(monkeypatch)
        with pytest.raises(CounterexampleFound) as exc:
            verify_bound_exhaustive(3, 8)
        record = exc.value.record
        assert record["n"] == 3 and record["m2"] < 10**9 and not record["meets_bound"]
        assert str(exc.value).endswith(f": {record['canonical_form']}")

    @pytest.mark.parametrize(
        "breaker, message",
        [
            (_decider_says_yes, "complete: expected non-2-colorable, decider said yes"),
            (_histogram_off, "complete: not every ordering separates exactly one simple pair"),
        ],
        ids=["decider", "histogram"],
    )
    def test_fixture_failure_names_the_fixture(self, monkeypatch, breaker, message):
        breaker(monkeypatch)
        with pytest.raises(FixtureFailure, match=f"^{message}$"):
            verify_fixture_suite(2)

    def test_random_fixture_without_attempts(self, monkeypatch):
        _no_sampling_attempts(monkeypatch)
        with pytest.raises(BudgetExceeded, match="^no non-2-colorable 3-graph found in 0 rejection samples$"):
            search._random_noncolorable(3, 0)

    @pytest.mark.parametrize(
        "breaker, argv, message",
        [
            (_bound_above_the_triangle, ["--n", "2", "--max-p", "5"], "non-colorable 2-graph on 3 vertices violates"),
            (_bound_above_every_sample, ["--n", "3", "--max-p", "8"], "non-colorable 3-graph on "),
            (_decider_says_yes, ["--n", "2", "--fixtures"], "complete: expected non-2-colorable"),
            (_histogram_off, ["--n", "2", "--fixtures"], "complete: not every ordering separates"),
            (_no_clique_found, ["--n", "2", "--max-p", "5"], "non-colorable 2-graph on 3 vertices violates"),
        ],
        ids=["census", "sampled", "decider", "histogram", "census-clique"],
    )
    def test_cli_exit_1_with_one_error_line(self, capsys, monkeypatch, breaker, argv, message):
        breaker(monkeypatch)
        assert main(["verify", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "Traceback" not in captured.err
