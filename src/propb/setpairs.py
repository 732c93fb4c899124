"""Cross-intersecting set-pair families and complete-subhypergraph detection.

For each distinct second edge Y the family takes the simple pair (X, Y)
with the smallest first edge, and from it A = X\\Y and B = V\\(X union Y),
both int bitsets like the edge masks.  For a non-2-colorable hypergraph
meeting the simple-pair bound exactly, the family satisfies Bollobas's
two-families conditions, its sum hits 1, and the forced equality
structure identifies the vertex set of a complete n-graph on 2n-1
vertices.  :func:`evaluate_family` returns that verdict as the report
document's bollobas section.  :func:`find_clique` finds that complete
n-graph in the hypergraph itself, by a pruned depth-first search whose
work is bounded by a budget on the prefixes it visits.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

from .errors import BudgetExceeded, EqualityStructureViolated
from .hypergraph import Hypergraph, enumerate_simple_pairs


def _members(H: Hypergraph) -> list[tuple[int, int]]:
    """(A, B) = (X\\Y, V\\(X union Y)) as bitsets, one per distinct second edge Y in index order.

    X is Y's smallest first edge by canonical index; the simple pairs come
    sorted by (first, second), so the first one seen per Y holds it.
    """
    first: dict[int, int] = {}
    for sp in enumerate_simple_pairs(H):
        first.setdefault(sp.second, sp.first)
    masks, full = H.masks, (1 << H.p) - 1
    return [(masks[x] & ~masks[y], full & ~(masks[x] | masks[y])) for y, x in sorted(first.items())]


def _violations(members: list[tuple[int, int]]) -> list[tuple[str, tuple[int, ...]]]:
    """Members i with A_i meet B_i nonempty, and pairs i != j with A_j within A_i union B_i, sorted."""
    violations = [("disjointness", (i,)) for i, (a, b) in enumerate(members) if a & b]
    for i, (ai, bi) in enumerate(members):
        violations += [("containment", (i, j)) for j, (aj, _) in enumerate(members) if i != j and not aj & ~(ai | bi)]
    return sorted(violations)


def _sum(p: int, members: list[tuple[int, int]]) -> Fraction:
    """Exact sum of 1/C(p-|B_i|, |A_i|); |A_i| <= |X union Y| = p-|B_i| for a family built from H."""
    return sum((Fraction(1, math.comb(p - b.bit_count(), a.bit_count())) for a, b in members), Fraction(0))


def _equality_structure(p: int, members: list[tuple[int, int]]) -> tuple[int, int]:
    """The structure forced at equality: common B, and the A_i are all q-subsets of U = V\\B.

    Callers must have established the two conditions and sum == 1; if the
    structure is nonetheless absent the conditions check was buggy, since
    the two-families theorem forbids this combination.
    """
    if not members:
        raise EqualityStructureViolated("empty family cannot sum to 1")
    b_sets = {b for _, b in members}
    if len(b_sets) != 1:
        raise EqualityStructureViolated(f"B sets are not all identical ({len(b_sets)} distinct)")
    (common_b,) = b_sets
    ground_u = ((1 << p) - 1) & ~common_b
    sizes = {a.bit_count() for a, _ in members}
    if len(sizes) != 1:
        raise EqualityStructureViolated(f"A sets have mixed sizes {sorted(sizes)}")
    (q,) = sizes
    a_sets = {a for a, _ in members}
    if len(a_sets) != len(members):
        raise EqualityStructureViolated("A sets repeat")
    if any(a & ~ground_u for a in a_sets):
        raise EqualityStructureViolated("some A set leaves the ground minus B")
    u = ground_u.bit_count()
    if len(a_sets) != math.comb(u, q):
        raise EqualityStructureViolated(f"{len(a_sets)} A sets but C({u},{q}) = {math.comb(u, q)} {q}-subsets exist")
    return common_b, ground_u


def _vertices(mask: int) -> list[int]:
    """The set bits of mask in increasing order, in time linear in its width."""
    return [v for v, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def evaluate_family(H: Hypergraph) -> dict:
    """H's set-pair family checked for the conditions, summed and tested for equality: the bollobas section.

    The sum stays an exact Fraction; common_B and ground_U are sorted
    vertex lists, or None unless the equality structure holds.
    """
    members = _members(H)
    violations = _violations(members)
    total = _sum(H.p, members)
    assert violations or total <= 1, "two-families sum exceeded 1 despite valid conditions"
    equality = not violations and total == 1
    common_b, ground_u = map(_vertices, _equality_structure(H.p, members)) if equality else (None, None)
    return {
        "conditions_ok": not violations,
        "violations": [{"kind": kind, "indices": list(idx)} for kind, idx in violations],
        "sum": total,
        "equality": equality,
        "common_B": common_b,
        "ground_U": ground_u,
    }


def find_clique(H: Hypergraph, node_budget: int = 10_000_000) -> frozenset[int] | None:
    """Lexicographically smallest (2n-1)-set whose n-subsets are all edges, or None.

    A depth-first search extends a sorted prefix of candidates, the
    vertices lying in at least C(2n-2, n-1) edges (a necessary degree for
    clique membership).  Vertex v joins the prefix only if v with every
    n-1 prefix vertices is an edge.  Being a clique is hereditary, so
    pruning loses no clique, and the first (2n-1)-prefix reached is the
    lexicographically smallest.  Each prefix visited tests at most every
    candidate against C(2n-2, n-1) edges; beyond node_budget prefixes,
    BudgetExceeded.
    """
    n, k = H.n, 2 * H.n - 1
    if len(H.edges) < math.comb(k, n):
        return None
    min_degree = math.comb(2 * n - 2, n - 1)
    degree = Counter(v for e in H.edges for v in e)
    candidates = sorted(v for v, d in degree.items() if d >= min_degree)
    edges = set(H.masks)
    nodes = 0

    def extend(prefix: list[int], start: int) -> frozenset[int] | None:
        nonlocal nodes
        if len(prefix) == k:
            return frozenset(prefix)
        for i in range(start, len(candidates) - (k - len(prefix)) + 1):
            bit = 1 << candidates[i]
            if all(sum(1 << u for u in sub) | bit in edges for sub in combinations(prefix, n - 1)):
                nodes += 1
                if nodes > node_budget:
                    raise BudgetExceeded(f"clique search visited more than {node_budget} prefixes")
                found = extend(prefix + [candidates[i]], i + 1)
                if found is not None:
                    return found
        return None

    return extend([], 0)
