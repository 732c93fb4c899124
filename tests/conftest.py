import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from propb.coloring import Color, Colorability, Coloring, ColoringOutcome
from propb.errors import BudgetExceeded
from propb.hypergraph import (
    Hypergraph,
    SimplePair,
    complete_hypergraph,
    covered_vertices,
    fano_plane,
    normalize,
    random_hypergraph,
)
from propb.search import _edge_slots
from propb.separation import SeparationStats


@pytest.fixture
def triangle() -> Hypergraph:
    return complete_hypergraph(2)


@pytest.fixture
def k35() -> Hypergraph:
    return complete_hypergraph(3)


@pytest.fixture
def k47() -> Hypergraph:
    return complete_hypergraph(4)


@pytest.fixture
def fano() -> Hypergraph:
    return fano_plane()


@pytest.fixture
def single_edge() -> Hypergraph:
    return normalize([[0, 1]], n=2, p=2)


@pytest.fixture
def disjoint_edges() -> Hypergraph:
    return normalize([[0, 1, 2], [3, 4, 5]], n=3, p=6)


def random_instances(count, seed, n_choices=(2, 3), p_max=12, m_max=None):
    """Seeded stream of (H, rng) pairs for property-style tests."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(list(n_choices))
        p = rng.randint(n, p_max)
        cap = math.comb(p, n)
        m = rng.randint(0, min(cap, m_max if m_max is not None else cap))
        out.append(random_hypergraph(n, p, m, seed=rng.getrandbits(32)))
    return out


def planted_instance(n, p, extra, seed):
    """The complete n-graph on 0..2n-2 plus `extra` random n-edges over p vertices."""
    rng = random.Random(seed)
    edges = [list(e) for e in itertools.combinations(range(2 * n - 1), n)]
    edges += [rng.sample(range(p), n) for _ in range(extra)]
    return normalize(edges, n=n, p=p)


def tied_keys_graph():
    """A graph on 2^17 vertices around the two vertex pairs whose seed-0 trial-0 keys tie in their top 31 bits.

    Each tied pair u, v is an edge, and u and v each get one more edge, so
    whether u is visited before v decides simple pairs and Red vertices.
    """
    p = 1 << 17
    by_top = {}
    for i in range(p):
        by_top.setdefault(splitmix64(0, i) >> 33, []).append(i)
    ties = [vs for vs in by_top.values() if len(vs) > 1]
    assert len(ties) == 2 and all(len(vs) == 2 for vs in ties)
    edges = []
    for k, (u, v) in enumerate(ties):
        edges += [[u, v], [u, 2 * k], [v, 2 * k + 1]]
    return normalize(edges, n=2, p=p)


# independent set-based oracles, deliberately not sharing code with the package


def brute_simple_pairs(H) -> list[tuple[int, int, int]]:
    """All ordered (i, j, meet) by literal set intersection."""
    out = []
    for i, X in enumerate(H.edges):
        for j, Y in enumerate(H.edges):
            if i == j:
                continue
            inter = set(X) & set(Y)
            if len(inter) == 1:
                out.append((i, j, inter.pop()))
    return out


def second_meet_collisions(H) -> list[tuple[int, int, tuple[int, ...]]]:
    """Second edges whose simple pairs reuse a meet vertex.

    Each entry is (second edge index, meet vertex, first edge indices).
    Guaranteed empty for non-2-colorable hypergraphs meeting the
    simple-pair bound exactly; general hypergraphs (even non-colorable
    ones, e.g. the 7-point plane) may collide.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for first, second, meet in brute_simple_pairs(H):
        groups.setdefault((second, meet), []).append(first)
    return [
        (second, meet, tuple(firsts))
        for (second, meet), firsts in sorted(groups.items())
        if len(firsts) >= 2
    ]


def brute_bollobas_section(H) -> dict:
    """The report's bollobas section by frozensets: the evaluate_family oracle.

    Per distinct second edge Y, the least first edge X over literal set
    intersections gives A = X\\Y and B = V\\(X union Y); both conditions
    are subset tests, and at equality every |A|-subset of U = V\\B must be
    an A set, as the two-families theorem forces.
    """
    first: dict[int, int] = {}
    for i, j, _ in brute_simple_pairs(H):
        first[j] = min(i, first.get(j, i))
    ground = frozenset(range(H.p))
    members = []
    for y in sorted(first):
        X, Y = frozenset(H.edges[first[y]]), frozenset(H.edges[y])
        members.append((X - Y, ground - (X | Y)))
    violations = [("disjointness", (i,)) for i, (a, b) in enumerate(members) if a & b]
    violations += [
        ("containment", (i, j))
        for i, (ai, bi) in enumerate(members)
        for j, (aj, _) in enumerate(members)
        if i != j and aj <= ai | bi
    ]
    violations.sort()
    total = sum((Fraction(1, math.comb(H.p - len(b), len(a))) for a, b in members), Fraction(0))
    equality = not violations and total == 1
    common_b = ground_u = None
    if equality:
        (common_b,) = {b for _, b in members}
        ground_u = ground - common_b
        q = len(members[0][0])
        assert {a for a, _ in members} == set(map(frozenset, itertools.combinations(ground_u, q)))
        common_b, ground_u = sorted(common_b), sorted(ground_u)
    return {
        "conditions_ok": not violations,
        "violations": [{"kind": kind, "indices": list(idx)} for kind, idx in violations],
        "sum": total,
        "equality": equality,
        "common_B": common_b,
        "ground_U": ground_u,
    }


def brute_clique(H) -> frozenset[int] | None:
    """Lexicographically first (2n-1)-set of covered vertices whose n-subsets are all edges, by scanning every such set."""
    edges = set(H.edges)
    covered = sorted({v for e in H.edges for v in e})
    for combo in itertools.combinations(covered, 2 * H.n - 1):
        if all(sub in edges for sub in itertools.combinations(combo, H.n)):
            return frozenset(combo)
    return None


def brute_automorphism_count(H) -> int:
    """Relabelings among all p! that map the edge set onto itself: the |Aut(H)| oracle."""
    edges = set(map(frozenset, H.edges))
    return sum(
        {frozenset(perm[v] for v in e) for e in H.edges} == edges
        for perm in itertools.permutations(range(H.p))
    )


def brute_separates(order, X, Y) -> bool:
    """Separation by positional comparison on a visit order."""
    pos = {v: k for k, v in enumerate(order)}
    inter = set(X) & set(Y)
    assert len(inter) == 1
    (y,) = inter
    left = [pos[u] for u in set(X) - {y}]
    right = [pos[v] for v in set(Y) - {y}]
    return all(u < pos[y] for u in left) and all(v > pos[y] for v in right)


def is_proper(H, colors) -> int | None:
    """Index of the first monochromatic edge in canonical order, or None: the properness oracle."""
    for ei, e in enumerate(H.edges):
        if len({colors[v] for v in e}) == 1:
            return ei
    return None


def is_bipartite(H) -> bool:
    """BFS 2-coloring of a graph (n = 2) over adjacency bitsets: the scan's cut-test oracle."""
    if H.n != 2:
        raise ValueError("bipartiteness check applies to 2-graphs only")
    adj = [0] * H.p
    for u, v in H.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    seen = 0
    color = 0
    for s in range(H.p):
        if not adj[s] or seen >> s & 1:
            continue
        seen |= 1 << s
        stack = [s]
        while stack:
            x = stack.pop()
            cx = color >> x & 1
            nb = adj[x]
            while nb:
                y = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                if seen >> y & 1:
                    if (color >> y & 1) == cx:
                        return False
                else:
                    seen |= 1 << y
                    color |= (cx ^ 1) << y
                    stack.append(y)
    return True


def mono_slot_masks(p) -> np.ndarray:
    """Edge slots of K_p left monochromatic by each 2-coloring with vertex p-1 fixed.

    A graph mask G is bipartite iff G & mm == 0 for one of these 2^(p-1)
    masks mm; fixing one vertex's color halves the list without losing a
    coloring up to swapping the two colors.
    """
    E = _edge_slots(p)
    masks = []
    for c in range(1 << (p - 1)):
        mm = 0
        for i, (u, v) in enumerate(E):
            if (c >> u & 1) == (c >> v & 1):
                mm |= 1 << i
        masks.append(mm)
    return np.array(masks, dtype=np.int32)


def oracle_scan(p, lo=0, hi=None) -> dict:
    """The census scan of p over each mask in [lo, hi) on its own: int64 degree sums, triangle masks, cut test.

    Each mask's degrees come from its incidence masks, a triangle from the
    C(p, 3) triangle slot masks, and bipartiteness of a triangle-free mask
    from the 2^(p-1) monochromatic-slot masks of :func:`mono_slot_masks`.
    Asserts the theorem per mask: every non-bipartite mask has m2 >= 6, and
    one at m2 = 6 holds a triangle.  hi defaults to every mask of p; the
    defaults give the dict of the whole scan.
    """
    E = _edge_slots(p)
    slot = {e: 1 << i for i, e in enumerate(E)}
    inc = [sum(1 << i for i, e in enumerate(E) if v in e) for v in range(p)]
    # int32 holds the C(p, 2) <= 28 edge slots of every p <= 8
    G = np.arange(lo, (1 << len(E)) if hi is None else hi, dtype=np.int32)

    m2_arr = np.zeros(len(G), dtype=np.int64)
    covered = np.zeros(len(G), dtype=np.int64)
    pair_table = np.array([d * (d - 1) // 2 for d in range(p + 1)], dtype=np.int64)
    for v in range(p):
        dv = np.bitwise_count(G & inc[v])
        m2_arr += pair_table[dv]
        covered += dv > 0
    m2_arr *= 2
    edge_count = np.bitwise_count(G)

    tri_any = np.zeros(len(G), dtype=bool)
    for a, b, c in itertools.combinations(range(p), 3):
        tm = slot[a, b] | slot[a, c] | slot[b, c]
        tri_any |= (G & tm) == tm

    # a triangle is an odd cycle; the rest are bipartite iff some coloring cuts every edge
    tri_free = np.flatnonzero(~tri_any)
    G_free = G[tri_free]
    bip = np.zeros(len(G_free), dtype=bool)
    for mm in mono_slot_masks(p):
        bip |= (G_free & mm) == 0
    nonbip = tri_any.copy()
    nonbip[tri_free] = ~bip

    assert not (nonbip & (m2_arr < 6)).any(), "a non-bipartite mask below the bound"
    assert not (nonbip & (m2_arr == 6) & ~tri_any).any(), "a non-bipartite mask at the bound without a triangle"
    seymour_bad = nonbip & (edge_count < covered)
    return {
        "graphs": len(G),
        "non_colorable": int(nonbip.sum()),
        "candidate_masks": G[nonbip & (m2_arr <= 6)].tolist(),
        "seymour_violations": int(seymour_bad.sum()),
    }


def enumerate_separation_probability(X, Y, max_union=10) -> Fraction:
    """Separation probability of one simple pair over all orders of X union Y.

    Only the relative order of X union Y matters, so its (2n-1)!
    arrangements give the exact probability over permutations of any
    larger ground set: the closed form's oracle.
    """
    xs, ys = frozenset(X), frozenset(Y)
    meet = xs & ys
    if len(meet) != 1:
        raise ValueError(f"edges share {len(meet)} vertices, expected exactly 1")
    union = sorted(xs | ys)
    if len(union) > max_union:
        raise BudgetExceeded(f"|X union Y| = {len(union)} exceeds enumeration budget {max_union}")
    (y,) = meet
    hits = 0
    for perm in itertools.permutations(union):
        pos = {v: i for i, v in enumerate(perm)}
        py = pos[y]
        if all(pos[u] < py for u in xs - meet) and all(pos[v] > py for v in ys - meet):
            hits += 1
    return Fraction(hits, math.factorial(len(union)))


def oracle_decide(H, vertex_budget=24) -> Colorability:
    """Two-colorability by sweeping all 2^(c-1) colorings of the c covered vertices.

    The first covered vertex is fixed Blue; the colorings are tested in
    numpy chunks of 2^16, each edge as one bitset monochromaticity test.
    """
    cov = sorted(covered_vertices(H))
    c = len(cov)
    if c == 0:
        return Colorability.YES
    if c > vertex_budget:
        return Colorability.UNDETERMINED
    assert c <= 62, "the sweep packs a coloring into one int64"
    idx = {v: i for i, v in enumerate(cov)}
    comp_masks = [sum(1 << idx[v] for v in e) for e in H.edges]
    total = 1 << (c - 1)
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        blue = (np.arange(lo, min(lo + chunk, total), dtype=np.int64) << 1) | 1
        ok = np.ones(blue.size, dtype=bool)
        for em in comp_masks:
            x = blue & em
            ok &= (x != 0) & (x != em)
            if not ok.any():
                break
        if ok.any():
            return Colorability.YES
    return Colorability.NO


def random_ordering(p, rng) -> list[int]:
    """A uniform visit order of p vertices drawn from a random.Random."""
    seq = list(range(p))
    rng.shuffle(seq)
    return seq


# Scalar oracles for the batched ordering kernels: one ordering at a time,
# in plain Python, over the same counter-based trial stream (SplitMix64
# output t*p + i keys vertex i of trial t).

MASK64 = (1 << 64) - 1


def splitmix64(seed, k) -> int:
    """Output k (from 0) of the SplitMix64 generator started at state seed."""
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def oracle_trial_order(p, seed, t) -> list[int]:
    """Vertices of trial t sorted by their stream keys, ties to the lower vertex."""
    keys = [splitmix64(seed, t * p + i) for i in range(p)]
    return sorted(range(p), key=lambda i: (keys[i], i))


def oracle_greedy(H, order) -> ColoringOutcome:
    """Greedy coloring by per-edge Blue/colored counters, vertex by vertex."""
    n = H.n
    vert_edges = [[] for _ in range(H.p)]
    for ei, e in enumerate(H.edges):
        for v in e:
            vert_edges[v].append(ei)
    blue_cnt = [0] * len(H.edges)
    colored_cnt = [0] * len(H.edges)
    colors = [Color.BLUE] * H.p
    for v in order:
        forced = any(blue_cnt[ei] == n - 1 and colored_cnt[ei] == n - 1 for ei in vert_edges[v])
        c = Color.RED if forced else Color.BLUE
        colors[v] = c
        for ei in vert_edges[v]:
            colored_cnt[ei] += 1
            blue_cnt[ei] += c is Color.BLUE
    violating = next((ei for ei in range(len(H.edges)) if blue_cnt[ei] in (0, n)), None)
    witness = None
    if violating is not None and n >= 2:
        pos = {v: k for k, v in enumerate(order)}
        y = min(H.edges[violating], key=pos.__getitem__)
        for ei in vert_edges[y]:
            others = [u for u in H.edges[ei] if u != y]
            if all(colors[u] is Color.BLUE and pos[u] < pos[y] for u in others):
                witness = SimplePair(first=ei, second=violating, meet=y)
                break
    coloring = Coloring(colors=tuple(colors), proper=violating is None, violating_edge=violating)
    return ColoringOutcome(coloring=coloring, separated_witness=witness)


def oracle_restart(H, max_trials, seed):
    """(trial index, visit order as a tuple, coloring) of the first proper greedy trial, or None."""
    for t in range(max_trials):
        order = tuple(oracle_trial_order(H.p, seed, t))
        out = oracle_greedy(H, order)
        if out.coloring.proper:
            return t, order, out.coloring
    return None


def oracle_counter(H):
    """Separated simple pairs of a visit order, by positions; the pairs are found once."""
    pairs = [(H.edges[i], H.edges[j], y) for i, j, y in brute_simple_pairs(H)]

    def count(seq) -> int:
        pos = {v: k for k, v in enumerate(seq)}
        return sum(
            all(pos[u] < pos[y] for u in X if u != y) and all(pos[v] > pos[y] for v in Y if v != y)
            for X, Y, y in pairs
        )

    return count


def oracle_monte_carlo(H, trials, seed) -> SeparationStats:
    count = oracle_counter(H)
    hist = Counter(count(oracle_trial_order(H.p, seed, t)) for t in range(trials))
    return SeparationStats(trials=trials, histogram=dict(sorted(hist.items())))


def brute_ordering_histogram(H) -> dict[int, int]:
    """{separated count: orderings} over all p! visit orders."""
    count = oracle_counter(H)
    hist = Counter(count(perm) for perm in itertools.permutations(range(H.p)))
    return dict(sorted(hist.items()))
