"""Small-case verification of the simple-pair bound and the extremal structure.

For n = 2 every labeled graph on up to max_p vertices is enumerated as a
bitmask over the C(p, 2) edge slots of the complete graph.  Degree counts,
simple-pair counts, triangle containment and bipartiteness are evaluated
vectorized over whole chunks of masks: a graph without a triangle is
bipartite iff one of the 2^(p-1) two-colorings of K_p (one vertex fixed)
leaves none of its edges monochromatic, a cut test against precomputed
monochromatic-slot masks.  Every non-bipartite graph is then checked
against the bound (m2 >= 6) and the equality characterization (m2 = 6
forces a triangle).  For n >= 3 exhaustive enumeration is out of
reach, so the run degrades to seeded rejection sampling plus the curated
fixture suite.

Records name isomorphism classes by :func:`canonical_form`: refinement
into vertex cells, then a lexmin search over relabelings inside cells.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, permutations, product
from typing import Callable, Collection

import numpy as np

from .coloring import Colorability, exhaustive_decide
from .errors import BudgetExceeded, CounterexampleFound, FixtureFailure
from .hypergraph import (
    Hypergraph,
    bound,
    complete_hypergraph,
    enumerate_simple_pairs,
    fano_plane,
    m2,
    pad,
    random_hypergraph,
    relabel,
    seymour_check,
)
from .separation import ordering_histogram
from .setpairs import (
    bollobas_family,
    build_M,
    evaluate_family,
    find_clique,
    second_meet_collisions,
)

GRAPH_BUDGET_DEFAULT = 1 << 22
# sampling caps p at 8, so 8! relabelings bound every canonical form it asks for
CANONICAL_BUDGET = math.factorial(8)
SAMPLE_BUDGET_DEFAULT = 200


@dataclass(frozen=True)
class SearchRecord:
    n: int
    p: int
    edge_count: int
    m2: int
    meets_bound: bool
    has_clique: bool
    canonical_form: str


def canonical_form(H: Hypergraph) -> str:
    """Edge-list encoding of H that is the same for every relabeling of H.

    H is relabeled so the cells of :func:`_refine` occupy consecutive ids
    (id order inside a cell); the encoding is the lexicographically minimal
    edge list over relabelings that permute vertices only inside a cell.
    Refinement commutes with relabeling, so isomorphic inputs search the
    same edge lists.  More than CANONICAL_BUDGET = 8! such relabelings
    (never at p <= 8) raise BudgetExceeded.
    """
    colour = _refine(H)
    sizes = tuple(count for _, count in sorted(Counter(colour).items()))
    relabelings = math.prod(math.factorial(s) for s in sizes)
    if relabelings > CANONICAL_BUDGET:
        raise BudgetExceeded(
            f"canonical form of a {H.n}-graph on {H.p} vertices: cells {sizes} "
            f"admit {relabelings} relabelings, budget {CANONICAL_BUDGET}"
        )
    new_id = [0] * H.p
    for i, v in enumerate(sorted(range(H.p), key=lambda v: (colour[v], v))):
        new_id[v] = i
    return _encode_edges(_canonical_edges(sizes, relabel(H, new_id).edges))


def _refine(H: Hypergraph) -> list[int]:
    """Colours 0..k-1 by iterated refinement until the number of colours stops growing.

    A vertex's next colour ranks (its colour, the sorted multiset over its
    edges of its co-members' sorted colours).
    """
    colour = [0] * H.p
    cells = min(H.p, 1)
    while True:
        seen: list[list[tuple[int, ...]]] = [[] for _ in range(H.p)]
        for e in H.edges:
            for v in e:
                seen[v].append(tuple(sorted(colour[u] for u in e if u != v)))
        keys = [(colour[v], tuple(sorted(seen[v]))) for v in range(H.p)]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        if len(rank) == cells:
            return colour
        colour, cells = [rank[k] for k in keys], len(rank)


@lru_cache(maxsize=4096)
def _canonical_edges(sizes: tuple[int, ...], edges: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Lexmin edge list over relabelings that permute vertices only inside a cell.

    Cell i holds the consecutive ids sum(sizes[:i]) .. sum(sizes[:i+1]) - 1.
    """
    starts = [0, *accumulate(sizes)]
    cells = [permutations(range(lo, hi)) for lo, hi in zip(starts, starts[1:])]
    best = None
    for parts in product(*cells):
        perm = tuple(chain.from_iterable(parts))
        cand = tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edges))
        if best is None or cand < best:
            best = cand
    return best


def _encode_edges(edges) -> str:
    return ";".join(",".join(map(str, e)) for e in edges)


def is_bipartite(H: Hypergraph) -> bool:
    """BFS 2-coloring for graphs (n = 2); equivalent to two-colorability there."""
    if H.n != 2:
        raise ValueError("bipartiteness check applies to 2-graphs only")
    adj = [0] * H.p
    for u, v in H.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _mask_bipartite(adj, H.p)


def _mask_bipartite(adj: list[int], p: int) -> bool:
    seen = 0
    color = 0
    for s in range(p):
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


# ---------------------------------------------------------------------------
# vectorized labeled-graph scan (n = 2)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _edge_slots(p: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Edge slots of K_p in lexicographic order and per-vertex incidence masks."""
    E = tuple(combinations(range(p), 2))
    inc = [0] * p
    for i, (u, v) in enumerate(E):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    return E, tuple(inc)


@lru_cache(maxsize=16)
def _triangle_slot_masks(p: int) -> tuple[int, ...]:
    E, _ = _edge_slots(p)
    slot = {e: i for i, e in enumerate(E)}
    masks = []
    for a, b, c in combinations(range(p), 3):
        masks.append((1 << slot[(a, b)]) | (1 << slot[(a, c)]) | (1 << slot[(b, c)]))
    return tuple(masks)


@lru_cache(maxsize=16)
def _mono_masks(p: int) -> np.ndarray:
    """Edge slots of K_p left monochromatic by each 2-coloring with vertex p-1 fixed.

    A graph mask G is bipartite iff G & mm == 0 for one of these 2^(p-1)
    masks mm; fixing one vertex's color halves the list without losing a
    coloring up to swapping the two colors.
    """
    E, _ = _edge_slots(p)
    masks = []
    for c in range(1 << (p - 1)):
        mm = 0
        for i, (u, v) in enumerate(E):
            if (c >> u & 1) == (c >> v & 1):
                mm |= 1 << i
        masks.append(mm)
    out = np.array(masks, dtype=np.int32)
    out.flags.writeable = False
    return out


def _scan_graph_chunk(args: tuple[int, int, int]) -> dict:
    """Verify one contiguous mask range [lo, hi) of labeled graphs on p vertices.

    Returns chunk-level reductions only, so results merge deterministically
    regardless of which process handled which chunk.
    """
    p, lo, hi = args
    _, inc = _edge_slots(p)
    # int32 holds the C(p, 2) <= 28 edge slots of every p <= 8
    G = np.arange(lo, hi, dtype=np.int32)

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
    for tm in _triangle_slot_masks(p):
        tri_any |= (G & tm) == tm

    # a triangle is an odd cycle; the rest are bipartite iff some coloring cuts every edge
    tri_free = np.flatnonzero(~tri_any)
    G_free = G[tri_free]
    bip = np.zeros(len(G_free), dtype=bool)
    for mm in _mono_masks(p):
        bip |= (G_free & mm) == 0
    nonbip = tri_any.copy()
    nonbip[tri_free] = ~bip

    prop_violation = nonbip & (m2_arr < 6)
    thm_violation = nonbip & (m2_arr == 6) & ~tri_any
    equality = nonbip & (m2_arr == 6)
    seymour_bad = nonbip & (edge_count < covered)

    key = (m2_arr * 2 + nonbip) * 2 + tri_any
    counts = np.bincount(key)
    profiles = Counter(
        {(k >> 2, bool(k >> 1 & 1), bool(k & 1)): c for k, c in enumerate(counts.tolist()) if c}
    )
    return {
        "graphs": len(G),
        "non_colorable": int(nonbip.sum()),
        "min_m2_non_colorable": int(m2_arr[nonbip].min()) if nonbip.any() else None,
        "equality_masks": G[equality].tolist(),
        "counterexample_masks": G[prop_violation | thm_violation].tolist(),
        "seymour_violations": int(seymour_bad.sum()),
        "profiles": profiles,
    }


def _graph_from_mask(p: int, mask: int) -> Hypergraph:
    E, _ = _edge_slots(p)
    return Hypergraph(n=2, p=p, edges=tuple(E[i] for i in range(len(E)) if mask >> i & 1))


def verify_bound_exhaustive(
    n: int,
    max_p: int,
    budget: int | None = None,
    seed=0,
    workers: int = 1,
    skip_p: Collection[int] = (),
    on_record: Callable[[SearchRecord], None] | None = None,
    on_p_done: Callable[[dict], None] | None = None,
) -> tuple[list[SearchRecord], dict]:
    """Check the simple-pair bound and equality characterization at desk scale.

    n = 2: full enumeration of all labeled graphs on p <= max_p vertices
    (max_p <= 7).  Every non-bipartite graph must have m2 >= 6 and, at
    m2 = 6, contain a triangle; a violation raises CounterexampleFound.
    One record per isomorphism class of equality cases is emitted.

    n >= 3: seeded rejection sampling (budget = sample count, p <= min(max_p, 8));
    every sampled non-colorable instance must satisfy m2 >= bound(n), and
    equality cases must contain the complete n-graph on 2n-1 vertices.

    The summary counts instances failing |E| >= |covered V|; that check is
    only a theorem for edge-minimal instances, so nonzero counts are
    expected (e.g. a triangle plus a disjoint edge) and do not abort.
    """
    if n == 2:
        return _verify_graphs(max_p, budget, workers, skip_p, on_record, on_p_done)
    if n >= 3:
        return _verify_sampled(n, max_p, budget, seed, on_record)
    raise ValueError(f"n must be >= 2, got {n}")


def _verify_graphs(max_p, budget, workers, skip_p, on_record, on_p_done):
    if max_p > 7:
        raise BudgetExceeded("full graph enumeration supports max_p <= 7")
    budget = GRAPH_BUDGET_DEFAULT if budget is None else budget
    ps = [p for p in range(1, max_p + 1) if p not in set(skip_p)]
    total_graphs = sum(1 << math.comb(p, 2) for p in ps)
    if total_graphs > budget:
        raise BudgetExceeded(f"{total_graphs} graphs exceed budget {budget}")

    records: list[SearchRecord] = []
    summary = {
        "mode": "enumeration",
        "n": 2,
        "max_p": max_p,
        "graphs": 0,
        "non_colorable": 0,
        "equality_labeled": 0,
        "equality_classes": 0,
        "counterexamples": 0,
        "seymour_violations": 0,
        "per_p": [],
    }
    for p in ps:
        total = 1 << math.comb(p, 2)
        chunk = 1 << 18
        args = [(p, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        if workers > 1 and len(args) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_scan_graph_chunk, args))
        else:
            results = [_scan_graph_chunk(a) for a in args]

        eq_masks: list[int] = []
        cex_masks: list[int] = []
        nonbip = 0
        seymour_bad = 0
        min_m2 = None
        for r in results:
            nonbip += r["non_colorable"]
            seymour_bad += r["seymour_violations"]
            eq_masks.extend(r["equality_masks"])
            cex_masks.extend(r["counterexample_masks"])
            if r["min_m2_non_colorable"] is not None:
                if min_m2 is None or r["min_m2_non_colorable"] < min_m2:
                    min_m2 = r["min_m2_non_colorable"]

        if cex_masks:
            H = _graph_from_mask(p, cex_masks[0])
            rec = SearchRecord(
                n=2, p=p, edge_count=len(H.edges), m2=m2(H),
                meets_bound=m2(H) == 6, has_clique=find_clique(H) is not None,
                canonical_form=canonical_form(H),
            )
            raise CounterexampleFound(
                f"graph on {p} vertices violates the bound or the equality "
                f"characterization: {rec.canonical_form}",
                record=rec,
            )

        class_reps: dict[str, int] = {}
        for mask in eq_masks:
            class_reps.setdefault(canonical_form(_graph_from_mask(p, mask)), mask)
        p_records = []
        for form in sorted(class_reps):
            H = _graph_from_mask(p, class_reps[form])
            rec = SearchRecord(
                n=2, p=p, edge_count=len(H.edges), m2=6, meets_bound=True,
                has_clique=find_clique(H) is not None, canonical_form=form,
            )
            assert rec.has_clique, "equality case without a triangle must have aborted"
            p_records.append(rec)

        p_summary = {
            "p": p,
            "graphs": total,
            "non_colorable": nonbip,
            "min_m2_non_colorable": min_m2,
            "equality_labeled": len(eq_masks),
            "equality_classes": len(p_records),
            "counterexamples": 0,
            "seymour_violations": seymour_bad,
        }
        for rec in p_records:
            records.append(rec)
            if on_record:
                on_record(rec)
        if on_p_done:
            on_p_done(p_summary)
        summary["per_p"].append(p_summary)
        summary["graphs"] += total
        summary["non_colorable"] += nonbip
        summary["equality_labeled"] += len(eq_masks)
        summary["equality_classes"] += len(p_records)
        summary["seymour_violations"] += seymour_bad
    return records, summary


def _verify_sampled(n, max_p, budget, seed, on_record):
    samples = SAMPLE_BUDGET_DEFAULT if budget is None else budget
    p_hi = min(max_p, 8)
    p_lo = 2 * n - 1
    if p_hi < p_lo:
        raise BudgetExceeded(f"max_p = {max_p} below the {p_lo} vertices a non-colorable {n}-graph needs")
    rng = random.Random(f"sampling:{seed}")
    records: list[SearchRecord] = []
    summary = {
        "mode": "sampling",
        "n": n,
        "max_p": p_hi,
        "samples": samples,
        "non_colorable": 0,
        "undetermined": 0,
        "equality_cases": 0,
        "counterexamples": 0,
        "seymour_violations": 0,
    }
    b = bound(n)
    for s in range(samples):
        p = rng.randint(p_lo, p_hi)
        total_edges = math.comb(p, n)
        # dense draws: sparse n-graphs at this scale are almost always colorable
        m_edges = rng.randint(max(1, 3 * total_edges // 5), total_edges)
        H = random_hypergraph(n, p, m_edges, seed=f"{seed}:{s}")
        verdict, _ = exhaustive_decide(H)
        if verdict is Colorability.UNDETERMINED:
            summary["undetermined"] += 1
            continue
        if verdict is Colorability.YES:
            continue
        m2_val = m2(H)
        meets = m2_val == b
        clique = find_clique(H)
        rec = SearchRecord(
            n=n, p=p, edge_count=len(H.edges), m2=m2_val, meets_bound=meets,
            has_clique=clique is not None, canonical_form=canonical_form(H),
        )
        if m2_val < b or (meets and clique is None):
            raise CounterexampleFound(
                f"sampled non-colorable {n}-graph violates the bound or the "
                f"equality characterization: {rec.canonical_form}",
                record=rec,
            )
        summary["non_colorable"] += 1
        summary["equality_cases"] += meets
        summary["seymour_violations"] += not seymour_check(H)
        records.append(rec)
        if on_record:
            on_record(rec)
    return records, summary


# ---------------------------------------------------------------------------
# curated fixture suite
# ---------------------------------------------------------------------------

_RANDOM_FIXTURE_SHAPE = {2: (6, 8), 3: (7, 25), 4: (8, 60)}
FIXTURE_NS = tuple(_RANDOM_FIXTURE_SHAPE)


def _random_noncolorable(n: int, seed, attempts: int = 1000) -> Hypergraph:
    p, m_edges = _RANDOM_FIXTURE_SHAPE[n]
    for a in range(attempts):
        H = random_hypergraph(n, p, m_edges, seed=f"{seed}:{a}")
        verdict, _ = exhaustive_decide(H)
        if verdict is Colorability.NO:
            return H
    raise FixtureFailure(
        f"no non-2-colorable {n}-graph found in {attempts} rejection samples"
    )


def verify_fixture_suite(n: int, seed=0) -> dict:
    """Full pipeline on curated non-colorable fixtures for one uniformity.

    Asserts the simple-pair bound on every fixture and, on each fixture
    meeting it exactly, the whole extremal chain: distinct meet vertices
    per second edge, exactly one separated pair per ordering (p <= 8),
    both set-pair conditions, sum exactly 1, the equality structure, and
    clique recovery.  Raises FixtureFailure naming fixture and assertion.
    """
    if n not in FIXTURE_NS:
        raise ValueError(f"fixture suite covers n in {set(FIXTURE_NS)}")
    K = complete_hypergraph(n)
    clique_verts = frozenset(range(2 * n - 1))
    fixtures: list[tuple[str, Hypergraph, frozenset | None]] = [
        ("complete", K, clique_verts),
        ("padded", pad(K, n, 1), clique_verts),
        ("padded_isolated", pad(K, n + 2, 1), clique_verts),
    ]
    if n == 3:
        fixtures.append(("fano", fano_plane(), None))
    fixtures.append(("random_noncolorable", _random_noncolorable(n, seed), None))

    b = bound(n)
    entries = []
    for name, H, expect_clique in fixtures:
        verdict, _ = exhaustive_decide(H)
        if verdict is not Colorability.NO:
            raise FixtureFailure(f"{name}: expected non-2-colorable, decider said {verdict.value}")
        m2_val = m2(H)
        if m2_val < b:
            raise FixtureFailure(f"{name}: m2 = {m2_val} below bound {b}")
        entry = {
            "name": name,
            "p": H.p,
            "edge_count": len(H.edges),
            "m2": m2_val,
            "bound": b,
            "meets_bound": m2_val == b,
            "seymour_ok": seymour_check(H),
            "clique": None,
            "bollobas_sum": None,
        }
        if m2_val == b:
            if second_meet_collisions(H):
                raise FixtureFailure(f"{name}: repeated meet vertex for one second edge")
            per_second = Counter(sp.second for sp in enumerate_simple_pairs(H))
            if any(c > n for c in per_second.values()):
                raise FixtureFailure(f"{name}: an edge is second in more than n simple pairs")
            M = build_M(H)
            if len(M) < math.comb(2 * n - 1, n):
                raise FixtureFailure(f"{name}: selection smaller than C(2n-1, n)")
            v = evaluate_family(bollobas_family(H, M))
            if not v.conditions_ok:
                raise FixtureFailure(f"{name}: set-pair conditions violated: {v.violations[:3]}")
            if v.sum != 1:
                raise FixtureFailure(f"{name}: set-pair sum {v.sum} != 1")
            if not v.equality or v.ground_U is None:
                raise FixtureFailure(f"{name}: equality structure not detected")
            clique = find_clique(H)
            if clique != v.ground_U:
                raise FixtureFailure(f"{name}: clique {clique} != ground minus common B {v.ground_U}")
            if expect_clique is not None and clique != expect_clique:
                raise FixtureFailure(f"{name}: clique {clique} != expected {expect_clique}")
            if H.p <= 8 and ordering_histogram(H) != {1: math.factorial(H.p)}:
                raise FixtureFailure(f"{name}: not every ordering separates exactly one simple pair")
            entry["clique"] = sorted(clique)
            entry["bollobas_sum"] = v.sum
        entries.append(entry)
    return {"n": n, "bound": b, "fixtures": entries, "ok": True}
