"""Small-case verification of the simple-pair bound and the extremal structure.

For n = 2 every labeled graph on up to max_p vertices is enumerated as a
bitmask over the C(p, 2) edge slots of the complete graph.  The slots of
vertices 0 and 1 come first, so each mask is a graph h on the other p-2
vertices (a row) plus the edges at 0 and 1 (a column).  Byte lanes over
the rows and over the columns (built with bytes.translate and
int.from_bytes sums) hold degrees and m2; per row, a Python-int bitset
over the columns marks the bipartite graphs.  m2 never falls when the
column grows, so the graphs at or below the bound come from a walk by
ascending m2(h) that stops past it; only those graphs get the triangle
test, which with the bound (m2 >= 6) checks the equality
characterization (m2 = 6 forces a triangle).  For n >= 3 exhaustive
enumeration is out of reach, so the run degrades to seeded rejection
sampling plus the curated fixture suite.

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
    same edge lists.  Vertices in no edge keep their order.  More than
    CANONICAL_BUDGET = 8! such relabelings (never at p <= 8) raise
    BudgetExceeded.
    """
    return _canonical(H)[0]


def _canonical(H: Hypergraph) -> tuple[str, int]:
    """:func:`canonical_form` of H, and |Aut(H)|.

    Every automorphism preserves the refined colouring, so it permutes
    vertices only inside cells: the relabelings that reach the lexmin edge
    list are a coset of Aut(H), and :func:`_canonical_edges` counts them.
    """
    colour = _refine(H)
    cells = sorted(Counter(colour).items())
    # refinement leaves the vertices in no edge one cell of their own, and permuting it never changes
    # the edge list: the search keeps its order, and its k! orders multiply the tie count
    free = set(colour) - {colour[v] for e in H.edges for v in e}
    sizes = tuple(chain.from_iterable([1] * n if c in free else [n] for c, n in cells))
    relabelings = math.prod(map(math.factorial, sizes))
    if relabelings > CANONICAL_BUDGET:
        raise BudgetExceeded(
            f"canonical form of a {H.n}-graph on {H.p} vertices: cells {sizes} "
            f"admit {relabelings} relabelings, budget {CANONICAL_BUDGET}"
        )
    new_id = [0] * H.p
    for i, v in enumerate(sorted(range(H.p), key=lambda v: (colour[v], v))):
        new_id[v] = i
    edges, ties = _canonical_edges(sizes, relabel(H, new_id).edges)
    return _encode_edges(edges), ties * math.prod(math.factorial(n) for c, n in cells if c in free)


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
    """ASCII translate table: b"1" for a byte below t <= 256, b"0" for the rest."""
    return b"1" * t + b"0" * (256 - t)


_NONZERO = b"\0" + b"\1" * 255
_PAIRS = bytes(d * (d - 1) for d in range(16)).ljust(256, b"\0")


def _degree_lanes(p: int, slots) -> list[bytes]:
    """Per vertex of K_p, one byte per subset r of the slots, at byte r: the vertex's degree in r.

    Built by doubling over the slots: subset r | 1 << i is subset r plus slots[i].
    """
    plus_one = bytes(range(1, 256)) + b"\0"
    lanes = [b"\0"] * p
    for u, v in slots:
        lanes = [lane + lane.translate(plus_one) if w in (u, v) else lane * 2 for w, lane in enumerate(lanes)]
    return lanes


@lru_cache(maxsize=8)
def _extension_tables(p: int):
    """Two-vertex extension tables over the labeled graphs on p <= 7 vertices.

    The added vertices 0 and 1 (only 0 at p = 1) own the first slots, so
    mask = h << L | c: the row h is a graph on the other q vertices and the
    column c a subset of the L slots at an added vertex (bit 0 is 0~1, then
    vertex 0's neighbours, then vertex 1's).  deg[q*h : q*h + q] is h's
    degree vector and m2_h[h] is m2(h); bit c of ext[h] is set iff h + c is
    bipartite; seymour counts the non-bipartite h + c with fewer edges than
    covered vertices.  base and meets are int lanes over the columns, byte
    c the m2 of c alone and, per row vertex v, how many edges of c meet v.
    p <= 7 keeps the rows at 2^10, the columns at 2^11, every lane below
    256 (m2(h + c) - m2(h) <= m2(K_7) - m2(K_5) = 110) and a row's slack in
    its key's two bits (a perfect matching on 6 vertices needs three).
    """
    if p > 7:
        raise ValueError(f"the tables hold 2^C(p-2, 2) rows of 2^(2p-3) columns, up to p = 7; got p = {p}")
    k = min(p, 2)
    q = p - k
    E = _edge_slots(p)
    L = len(E) - math.comb(q, 2)
    rows, columns = 1 << (len(E) - L), 1 << L

    lanes = _degree_lanes(q, _edge_slots(q))
    deg = bytearray(q * rows)
    for v, lane in enumerate(lanes):
        deg[v::q] = lane
    m2_h = sum(int.from_bytes(lane.translate(_PAIRS), "little") for lane in lanes).to_bytes(rows, "little")
    covers = [int.from_bytes(lane.translate(_NONZERO), "little") for lane in lanes]
    ones = int.from_bytes(b"\1" * rows, "little")
    # 17 + |cov(h)| - e(h), in 12..19: at least 16 iff slack = |cov(h)| - e(h) >= -1, and then slack + 1 <= 3
    room = 17 * ones + sum(covers) - sum(int.from_bytes(lane, "little") for lane in lanes) // 2
    picked = room.to_bytes(rows, "little").translate(bytes(16) + b"\1" * 240)
    # the key C | (slack + 1) << q of a picked row, below 128: C its cover mask, slack + 1 the low two bits of room
    keys = (sum(b << v for v, b in enumerate(covers)) | (room & 3 * ones) << q).to_bytes(rows, "little")

    column_lanes = _degree_lanes(p, E[:L])
    base = sum(int.from_bytes(lane.translate(_PAIRS), "little") for lane in column_lanes)
    meets = [int.from_bytes(lane, "little") for lane in column_lanes[k:]]

    # h + c is bipartite iff some 2-coloring x of K_p cuts all of h and all of c: x colors added vertex a
    # by bit a and row vertex v by bit k + v, and S and its complement are one coloring of h
    ext = [0] * rows
    for S in range(1 << max(q - 1, 0)):
        sides = 0
        for x in range(S << k, (S + 1) << k):
            cut = sum(1 << i for i, (u, v) in enumerate(E) if (x >> u ^ x >> v) & 1)
            # the columns inside the cut, by doubling over its slots at the added vertices
            down = 1
            for j in range(L):
                if cut >> j & 1:
                    down |= down << (1 << j)
            sides |= down
        cut = sub = cut >> L
        while True:
            ext[sub] |= sides
            if not sub:
                break
            sub = (sub - 1) & cut

    # h + c has e(h) + |c| edges and covers C, the added vertices c meets and the row vertices off C
    # that c meets, so it falls short iff 2 + |c| - (the last two counts) < slack + 2; the left side
    # is at least 0, as every component of c holds an added vertex
    column_covers = [int.from_bytes(lane.translate(_NONZERO), "little") for lane in column_lanes]
    sizes = sum(int.from_bytes(lane, "little") for lane in column_lanes) // 2
    short_base = 2 * int.from_bytes(b"\1" * columns, "little") + sizes - sum(column_covers[:k])
    short_columns = {}
    for key in set(compress(keys, picked)):
        C, slack = key & ((1 << q) - 1), (key >> q) - 1
        lane = short_base - sum(t for v, t in enumerate(column_covers[k:]) if not C >> v & 1)
        short_columns[key] = int(lane.to_bytes(columns, "big").translate(_below(slack + 2)), 2)
    seymour = sum((short_columns[y] & ~x).bit_count() for y, x in zip(compress(keys, picked), compress(ext, picked)))
    return bytes(deg), m2_h, tuple(ext), seymour, base, meets


def _rows_by_m2(m2_h: bytes):
    """Rows h by ascending m2(h), ties by ascending h: one bytes.find pass per m2 value."""
    for value in range(256):
        h = m2_h.find(value)
        while h >= 0:
            yield h
            h = m2_h.find(value, h + 1)


def _scan_graphs(p: int) -> dict:
    """Verify every labeled graph on p vertices: h << L | c over the rows and columns of :func:`_extension_tables`.

    Every p >= 3 has a triangle, a non-bipartite graph at m2 = 6, so the
    least m2 of a non-bipartite mask is the least at or below the bound.
    m2(h + c) >= m2(h), so those masks come from the rows by ascending m2(h)
    up to 6, each row's columns under the bound as one bitmap, where
    m2(h + c) - m2(h) = base(c) + 2 sum over v of deg_h(v) meets_v(c): one
    lane per degree vector.  Only those masks get the triangle test.
    """
    deg, m2_h, ext, seymour, base, meets = _extension_tables(p)
    q = len(meets)
    L = math.comb(p, 2) - math.comb(q, 2)
    every_column = (1 << (1 << L)) - 1

    low = []  # (mask, m2) of every non-bipartite mask with m2 <= 6
    steps = {}  # degree vector -> (increments, big-endian; bitmap of the columns c with m2(h + c) <= 6)
    for h in _rows_by_m2(m2_h):
        if m2_h[h] > 6:
            break
        nonbip = every_column & ~ext[h]
        if not nonbip:
            continue
        d = deg[q * h : q * h + q]
        if d not in steps:
            inc = (base + 2 * sum(x * m for x, m in zip(d, meets))).to_bytes(1 << L, "big")
            steps[d] = inc, int(inc.translate(_below(7 - m2_h[h])), 2)
        inc, under = steps[d]
        under &= nonbip
        while under:
            c = under.bit_length() - 1
            under ^= 1 << c
            low.append((h << L | c, m2_h[h] + inc[-1 - c]))
    low.sort()

    # a non-bipartite graph at or below the bound is a counterexample unless m2 = 6 and it has a triangle
    triangles = _triangle_slot_masks(p)
    graphs = len(ext) << L
    return {
        "graphs": graphs,
        "non_colorable": graphs - sum(map(int.bit_count, ext)),
        "min_m2_non_colorable": min((m for _, m in low), default=None),
        "equality_masks": [mask for mask, m in low if m == 6],
        "counterexample_masks": [mask for mask, m in low if m < 6 or not any(mask & t == t for t in triangles)],
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
        raise BudgetExceeded(f"sampling reaches p = {p_hi}, below the {p_lo} vertices a non-colorable {n}-graph needs")
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
