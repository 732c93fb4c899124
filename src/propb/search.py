"""Small-case verification of the simple-pair bound and the extremal structure.

For n = 2 every labeled graph on up to max_p vertices is enumerated as a
bitmask over the C(p, 2) edge slots of the complete graph.  Vertex 0's
slots come first, so each mask is a graph h on the other p-1 vertices
plus vertex 0's neighbourhood N.  Byte lanes over every h (one byte per
row, built with bytes.translate and int.from_bytes sums) hold degrees and
m2(h); per h, a Python-int bitset over the columns N marks which N a
proper 2-coloring of h can put on one side, so which graphs are bipartite.
m2 never falls when N grows, so the graphs at or below the bound, and the
least m2 of a non-bipartite graph, come from a walk by ascending m2 that
stops early; only those graphs get the triangle test, which with the
bound (m2 >= 6) checks the equality characterization (m2 = 6 forces a
triangle).  For n >= 3 exhaustive enumeration is out of reach, so the run
degrades to seeded rejection sampling plus the curated fixture suite.

Records name isomorphism classes by :func:`canonical_form`: refinement
into vertex cells, then a lexmin search over relabelings inside cells,
which also counts |Aut(H)|.  The census names its equality classes by
groups of masks with one sorted degree sequence: the equality set is
closed under relabeling, so a group with |group| * |Aut| = p! for its
first graph is that graph's orbit and takes one canonical form; any
other group is canonicalised mask by mask.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Callable, Collection
from functools import lru_cache
from itertools import accumulate, chain, combinations, compress, permutations, product

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
from .report import analyze
from .separation import ordering_histogram
from .setpairs import find_clique

GRAPH_BUDGET_DEFAULT = 1 << 22
# sampling caps p at 8, so 8! relabelings bound every canonical form it asks for
CANONICAL_BUDGET = math.factorial(8)
SAMPLE_BUDGET_DEFAULT = 200


def canonical_form(H: Hypergraph) -> str:
    """Edge-list encoding of H that is the same for every relabeling of H.

    H is relabeled so the cells of :func:`_refine` occupy consecutive ids
    (id order inside a cell); the encoding is the lexicographically minimal
    edge list over relabelings that permute vertices only inside a cell.
    Refinement commutes with relabeling, so isomorphic inputs search the
    same edge lists.  More than CANONICAL_BUDGET = 8! such relabelings
    (never at p <= 8) raise BudgetExceeded.
    """
    return _canonical(H)[0]


def _canonical(H: Hypergraph) -> tuple[str, int]:
    """:func:`canonical_form` of H, and |Aut(H)|.

    Every automorphism preserves the refined colouring, so it permutes
    vertices only inside cells: the relabelings that reach the lexmin edge
    list are a coset of Aut(H), and :func:`_canonical_edges` counts them.
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
    edges, aut = _canonical_edges(sizes, relabel(H, new_id).edges)
    return _encode_edges(edges), aut


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
def _canonical_edges(
    sizes: tuple[int, ...], edges: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Lexmin edge list over relabelings that permute vertices only inside a cell, and how many reach it.

    Cell i holds the consecutive ids sum(sizes[:i]) .. sum(sizes[:i+1]) - 1.
    """
    starts = [0, *accumulate(sizes)]
    cells = [permutations(range(lo, hi)) for lo, hi in zip(starts, starts[1:])]
    best, ties = None, 0
    for parts in product(*cells):
        perm = tuple(chain.from_iterable(parts))
        cand = tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edges))
        # one comparison for the usual candidate above the minimum
        if best is None or cand <= best:
            if cand == best:
                ties += 1
            else:
                best, ties = cand, 1
    return best, ties


def _encode_edges(edges) -> str:
    return ";".join(",".join(map(str, e)) for e in edges)


# ---------------------------------------------------------------------------
# labeled-graph scan (n = 2)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _edge_slots(p: int) -> tuple[tuple[int, int], ...]:
    """Edge slots of K_p in lexicographic order."""
    return tuple(combinations(range(p), 2))


@lru_cache(maxsize=16)
def _triangle_slot_masks(p: int) -> tuple[int, ...]:
    slot = {e: 1 << i for i, e in enumerate(_edge_slots(p))}
    return tuple(slot[a, b] | slot[a, c] | slot[b, c] for a, b, c in combinations(range(p), 3))


def _below(t) -> bytes:
    """ASCII translate table: b"1" for a byte below t, b"0" for the rest."""
    t = min(t, 256)
    return b"1" * t + b"0" * (256 - t)


@lru_cache(maxsize=8)
def _extension_tables(q: int):
    """Per labeled graph h on q <= 6 vertices: degree and m2 byte lanes, bitmaps over N, the Seymour count.

    deg[q*h : q*h + q] is h's degree vector and m2_h[h] is m2(h); bit N of
    ext[h] is set iff h plus a vertex adjacent to N is bipartite, that is,
    iff a proper 2-coloring of h puts all of N on one side; seymour counts
    the non-bipartite (h, N) with fewer edges than covered vertices.  Lanes
    are doubled over the slots with bytes.translate and summed over
    vertices as ints; the q <= 6 guard bounds the rows at 2^15 and keeps
    every lane below 256 (deg <= 5, m2 <= 120), so no sum carries.
    """
    if q > 6:
        raise ValueError(f"the tables hold 2^C(q, 2) rows, at most 2^15 at q <= 6; got q = {q}")
    E = _edge_slots(q)
    rows = 1 << len(E)
    plus_one = bytes(range(1, 256)) + b"\0"
    # doubling over the slots: row h | 1 << i is row h plus edge E[i]
    lanes, edges = [b"\0"] * q, b"\0"
    for u, v in E:
        lanes = [lane + lane.translate(plus_one) if w in (u, v) else lane * 2 for w, lane in enumerate(lanes)]
        edges += edges.translate(plus_one)
    deg = bytearray(q * rows)
    for v, lane in enumerate(lanes):
        deg[v::q] = lane

    pairs = bytes(d * (d - 1) for d in range(6)).ljust(256, b"\0")
    m2_h = sum(int.from_bytes(lane.translate(pairs), "little") for lane in lanes).to_bytes(rows, "little")
    covers = [int.from_bytes(lane.translate(b"\0" + b"\1" * 255), "little") for lane in lanes]
    # 16 + |cov(h)| - e(h), in 1..22: at least 16 iff e(h) <= |cov(h)|, and then in 16..19, as e(h) >= |cov(h)| / 2
    ones = int.from_bytes(b"\1" * rows, "little")
    room = sum(covers) + 16 * ones - int.from_bytes(edges, "little")
    picked = room.to_bytes(rows, "little").translate(bytes(16) + b"\1" * 240)
    # the key c | slack << 6 of a picked row: c its cover mask, slack = |cov(h)| - e(h), the low bits of room
    keys = (sum(b << v for v, b in enumerate(covers)) | (room & 3 * ones) << 6).to_bytes(rows, "little")

    # down[S] has bit N set for every N inside S
    down = [1]
    for j in range(q):
        down += [d | d << (1 << j) for d in down]
    full = (1 << q) - 1
    # S and its complement are one 2-coloring, so S runs over the sets without vertex q-1;
    # it colors h properly iff h lies inside the slots S cuts
    ext = [0] * rows
    for S in range(1 << max(q - 1, 0)):
        cut = sum(1 << i for i, (u, v) in enumerate(E) if (S >> u ^ S >> v) & 1)
        sides = down[S] | down[full ^ S]
        sub = cut
        while True:
            ext[sub] |= sides
            if not sub:
                break
            sub = (sub - 1) & cut

    # (h, N) has e(h) + |N| edges and |cov(h) | N| + (N != 0) covered vertices, so it
    # falls short iff N != 0 and |N & cov(h)| <= |cov(h)| - e(h), or N = 0 and e(h) < |cov(h)|
    short_columns = {}
    for key in set(compress(keys, picked)):
        c, slack = key & 63, key >> 6
        meets = sum(m for v, m in enumerate(_column_lanes(q)[1]) if c >> v & 1).to_bytes(1 << q, "big")
        short_columns[key] = int(meets.translate(_below(slack + 1)), 2) & ~1 | (slack > 0)
    seymour = sum((short_columns[k] & ~x).bit_count() for k, x in zip(compress(keys, picked), compress(ext, picked)))
    return bytes(deg), m2_h, tuple(ext), seymour


def _rows_by_m2(m2_h: bytes):
    """Rows h by ascending m2(h), ties by ascending h: one bytes.find pass per m2 value."""
    for value in range(256):
        h = m2_h.find(value)
        while h >= 0:
            yield h
            h = m2_h.find(value, h + 1)


@lru_cache(maxsize=8)
def _column_lanes(q: int) -> tuple[int, list[int]]:
    """Over the columns N, one byte each at 256^N: |N| (|N| - 1), and per vertex v whether v is in N."""
    base = int.from_bytes(bytes(N.bit_count() * (N.bit_count() - 1) for N in range(1 << q)), "little")
    return base, [int.from_bytes(bytes(N >> v & 1 for N in range(1 << q)), "little") for v in range(q)]


@lru_cache(maxsize=4096)
def _column_increments(deg: bytes) -> bytes:
    """m2(h, N) - m2(h) per column N, one byte each, big-endian so int(..., 2) of a translate puts N at bit N.

    Vertex 0 adds |N| (|N| - 1) pairs and each neighbour v's d(d - 1) term
    grows by 2 deg_h(v): base + sum over v of 2 deg_h(v) [v in N], at most 90.
    """
    q = len(deg)
    base, members = _column_lanes(q)
    return (base + 2 * sum(d * m for d, m in zip(deg, members))).to_bytes(1 << q, "big")


def _scan_graphs(p: int) -> dict:
    """Verify every labeled graph on p vertices.

    Vertex 0's p-1 edge slots come first in lexicographic slot order, so
    mask = (h << (p-1)) | N, where h is a labeled graph on vertices 1..p-1
    and N is vertex 0's neighbourhood: every row h of
    :func:`_extension_tables` over all 2^(p-1) columns N.  m2(h, N) >=
    m2(h), so the masks at or below the bound m2 = 6 and the least m2 of a
    non-bipartite mask come from visiting rows by ascending m2(h), each
    row's columns under the limit as one bitmap, until neither can change;
    only those masks get the triangle test.  Returns the counts and masks.
    """
    q = p - 1
    deg, m2_h, ext, seymour = _extension_tables(q)
    every_column = (1 << (1 << q)) - 1

    # least m2 of a non-bipartite mask so far; past the bound only a lower one matters
    best = math.inf
    low = []  # (mask, m2) of every non-bipartite mask with m2 <= 6
    for h in _rows_by_m2(m2_h):
        if m2_h[h] >= max(best, 7):
            break
        nonbip = every_column & ~ext[h]
        if not nonbip:
            continue
        inc = _column_increments(deg[q * h : q * h + q])
        under = int(inc.translate(_below(max(best, 7) - m2_h[h])), 2) & nonbip
        while under:
            N = under.bit_length() - 1
            under ^= 1 << N
            m = m2_h[h] + inc[-1 - N]
            best = min(best, m)
            if m <= 6:
                low.append((h << q | N, m))
    low.sort()

    # a non-bipartite graph at or below the bound is a counterexample unless m2 = 6 and it has a triangle
    triangles = _triangle_slot_masks(p)
    graphs = len(ext) << q
    return {
        "graphs": graphs,
        "non_colorable": graphs - sum(map(int.bit_count, ext)),
        "min_m2_non_colorable": None if best == math.inf else best,
        "equality_masks": [mask for mask, m in low if m == 6],
        "counterexample_masks": [
            mask for mask, m in low if m < 6 or not any(mask & t == t for t in triangles)
        ],
        "seymour_violations": seymour,
    }


def _graph_from_mask(p: int, mask: int) -> Hypergraph:
    return Hypergraph(n=2, p=p, edges=tuple(e for i, e in enumerate(_edge_slots(p)) if mask >> i & 1))


def _class_representatives(p: int, masks: list[int]) -> dict[str, int]:
    """{canonical form: first mask} over labeled graphs on p vertices, for a set closed under relabeling.

    The masks are grouped by sorted degree sequence, an isomorphism
    invariant, so each group is a union of whole orbits.  The orbit of a
    graph with |Aut| automorphisms has p! / |Aut| labelings, so a group of
    that size is the orbit of its first graph and takes one canonical form;
    any other group is canonicalised mask by mask.
    """
    stars = [sum(1 << i for i, e in enumerate(_edge_slots(p)) if v in e) for v in range(p)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for mask in masks:
        groups.setdefault(tuple(sorted((mask & s).bit_count() for s in stars)), []).append(mask)
    reps: dict[str, int] = {}
    for first, *rest in groups.values():
        form, aut = _canonical(_graph_from_mask(p, first))
        reps.setdefault(form, first)
        if (1 + len(rest)) * aut != math.factorial(p):
            for mask in rest:
                reps.setdefault(_canonical(_graph_from_mask(p, mask))[0], mask)
    return reps


def _record(H: Hypergraph, m2_val: int, form: str | None = None) -> dict:
    """One verified non-colorable instance, keyed as the report and the --out stream print it."""
    return {
        "n": H.n,
        "p": H.p,
        "edge_count": len(H.edges),
        "m2": m2_val,
        "meets_bound": m2_val == bound(H.n),
        "has_clique": find_clique(H) is not None,
        "canonical_form": canonical_form(H) if form is None else form,
    }


def verify_bound_exhaustive(
    n: int,
    max_p: int,
    budget: int | None = None,
    seed=0,
    skip_p: Collection[int] = (),
    on_record: Callable[[dict], None] | None = None,
    on_p_done: Callable[[dict], None] | None = None,
) -> tuple[list[dict], dict]:
    """Check the simple-pair bound and equality characterization at desk scale.

    n = 2: full enumeration of all labeled graphs on p <= max_p vertices
    (max_p <= 7).  Every non-bipartite graph must have m2 >= 6 and, at
    m2 = 6, contain a triangle; a violation raises CounterexampleFound.
    One record (see :func:`_record`) per isomorphism class of equality
    cases is emitted.

    n >= 3: seeded rejection sampling (budget = sample count, p <= min(max_p, 8));
    every sampled non-colorable instance must satisfy m2 >= bound(n), and
    equality cases must contain the complete n-graph on 2n-1 vertices.

    The summary counts instances failing |E| >= |covered V|; that check is
    only a theorem for edge-minimal instances, so nonzero counts are
    expected (e.g. a triangle plus a disjoint edge) and do not abort.
    """
    if n == 2:
        return _verify_graphs(max_p, budget, skip_p, on_record, on_p_done)
    if n >= 3:
        return _verify_sampled(n, max_p, budget, seed, on_record)
    raise ValueError(f"n must be >= 2, got {n}")


def _verify_graphs(max_p, budget, skip_p, on_record, on_p_done):
    if max_p > 7:
        raise BudgetExceeded("full graph enumeration supports max_p <= 7")
    budget = GRAPH_BUDGET_DEFAULT if budget is None else budget
    ps = [p for p in range(1, max_p + 1) if p not in set(skip_p)]
    total_graphs = sum(1 << math.comb(p, 2) for p in ps)
    if total_graphs > budget:
        raise BudgetExceeded(f"{total_graphs} graphs exceed budget {budget}")

    records: list[dict] = []
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
        scan = _scan_graphs(p)
        eq_masks = scan["equality_masks"]
        if scan["counterexample_masks"]:
            H = _graph_from_mask(p, scan["counterexample_masks"][0])
            rec = _record(H, m2(H))
            raise CounterexampleFound(
                f"graph on {p} vertices violates the bound or the equality "
                f"characterization: {rec['canonical_form']}",
                record=rec,
            )

        class_reps = _class_representatives(p, eq_masks)
        p_records = []
        for form in sorted(class_reps):
            rec = _record(_graph_from_mask(p, class_reps[form]), 6, form)
            assert rec["has_clique"], "equality case without a triangle must have aborted"
            p_records.append(rec)

        p_summary = {
            "p": p,
            "graphs": scan["graphs"],
            "non_colorable": scan["non_colorable"],
            "min_m2_non_colorable": scan["min_m2_non_colorable"],
            "equality_labeled": len(eq_masks),
            "equality_classes": len(p_records),
            "counterexamples": 0,
            "seymour_violations": scan["seymour_violations"],
        }
        for rec in p_records:
            records.append(rec)
            if on_record:
                on_record(rec)
        if on_p_done:
            on_p_done(p_summary)
        summary["per_p"].append(p_summary)
        for k in summary.keys() & p_summary.keys():
            summary[k] += p_summary[k]
    return records, summary


def _verify_sampled(n, max_p, budget, seed, on_record):
    samples = SAMPLE_BUDGET_DEFAULT if budget is None else budget
    p_hi = min(max_p, 8)
    p_lo = 2 * n - 1
    if p_hi < p_lo:
        raise BudgetExceeded(f"max_p = {max_p} below the {p_lo} vertices a non-colorable {n}-graph needs")
    rng = random.Random(f"sampling:{seed}")
    records: list[dict] = []
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
        rec = _record(H, m2(H))
        if rec["m2"] < b or (rec["meets_bound"] and not rec["has_clique"]):
            raise CounterexampleFound(
                f"sampled non-colorable {n}-graph violates the bound or the "
                f"equality characterization: {rec['canonical_form']}",
                record=rec,
            )
        summary["non_colorable"] += 1
        summary["equality_cases"] += rec["meets_bound"]
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

    Each fixture runs through :func:`analyze` once.  Asserts the
    simple-pair bound on every fixture and, on each fixture meeting it
    exactly, the whole extremal chain: distinct meet vertices per second
    edge, exactly one separated pair per ordering (p <= 8), both set-pair
    conditions, sum exactly 1, the equality structure, and clique
    recovery.  Raises FixtureFailure naming fixture and assertion.
    Returns the report's fixture section: {"n", "bound", "ok", "fixtures"},
    one entry per fixture, with the set-pair sum as an exact Fraction.
    """
    if n not in FIXTURE_NS:
        raise ValueError(f"fixture suite covers n in {set(FIXTURE_NS)}")
    K = complete_hypergraph(n)
    clique_verts = list(range(2 * n - 1))
    fixtures: list[tuple[str, Hypergraph, list[int] | None]] = [
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
        analysis, bol = analyze(H)
        if analysis["colorable"] != Colorability.NO.value:
            raise FixtureFailure(f"{name}: expected non-2-colorable, decider said {analysis['colorable']}")
        m2_val = analysis["m2"]
        if m2_val < b:
            raise FixtureFailure(f"{name}: m2 = {m2_val} below bound {b}")
        entry = {
            "name": name,
            "p": H.p,
            "edge_count": len(H.edges),
            "m2": m2_val,
            "bound": b,
            "meets_bound": m2_val == b,
            "seymour_ok": analysis["seymour_ok"],
            "clique": None,
            "bollobas_sum": None,
        }
        if m2_val == b:
            pairs = enumerate_simple_pairs(H)
            if len({(sp.second, sp.meet) for sp in pairs}) < len(pairs):
                raise FixtureFailure(f"{name}: repeated meet vertex for one second edge")
            per_second = Counter(sp.second for sp in pairs)
            if any(c > n for c in per_second.values()):
                raise FixtureFailure(f"{name}: an edge is second in more than n simple pairs")
            # the set-pair family takes one simple pair per distinct second edge
            if len(per_second) < math.comb(2 * n - 1, n):
                raise FixtureFailure(f"{name}: selection smaller than C(2n-1, n)")
            if not bol["conditions_ok"]:
                raise FixtureFailure(f"{name}: set-pair conditions violated: {bol['violations'][:3]}")
            if bol["sum"] != 1:
                raise FixtureFailure(f"{name}: set-pair sum {bol['sum']} != 1")
            if not bol["equality"]:
                raise FixtureFailure(f"{name}: equality structure not detected")
            clique = analysis["clique_witness"]
            if clique != bol["ground_U"]:
                raise FixtureFailure(f"{name}: clique {clique} != ground minus common B {bol['ground_U']}")
            if expect_clique is not None and clique != expect_clique:
                raise FixtureFailure(f"{name}: clique {clique} != expected {expect_clique}")
            if H.p <= 8 and ordering_histogram(H) != {1: math.factorial(H.p)}:
                raise FixtureFailure(f"{name}: not every ordering separates exactly one simple pair")
            entry["clique"] = clique
            entry["bollobas_sum"] = bol["sum"]
        entries.append(entry)
    return {"n": n, "bound": b, "ok": True, "fixtures": entries}
