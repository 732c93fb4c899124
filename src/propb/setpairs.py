"""Cross-intersecting set-pair families and complete-subhypergraph detection.

From each selected simple pair (X, Y) the family takes A = X\\Y and
B = V\\(X union Y).  For a non-2-colorable hypergraph meeting the
simple-pair bound exactly, the family satisfies Bollobas's two-families
conditions, its sum hits 1, and the forced equality structure identifies
the vertex set of a complete n-graph on 2n-1 vertices.
:func:`evaluate_family` returns that verdict as the report document's
bollobas section.  :func:`find_clique` finds that complete n-graph in the
hypergraph itself, by a pruned depth-first search whose work is bounded
by a budget on the prefixes it visits.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations

from .errors import BudgetExceeded, DegenerateBinomial, EqualityStructureViolated
from .hypergraph import Hypergraph, SimplePair, enumerate_simple_pairs


class SetPairFamily(namedtuple("SetPairFamily", "ground_size members")):
    """Indexed (A_i, B_i) pairs over ground set 0..ground_size-1."""

    __slots__ = ()


def build_M(H: Hypergraph) -> list[SimplePair]:
    """One simple pair per distinct second edge Y, choosing the smallest first edge.

    Ties broken by canonical edge index (lexicographic on sorted vertex
    lists), so the selection is deterministic.
    """
    best: dict[int, SimplePair] = {}
    for sp in enumerate_simple_pairs(H):
        cur = best.get(sp.second)
        if cur is None or sp.first < cur.first:
            best[sp.second] = sp
    return [best[k] for k in sorted(best)]


def bollobas_family(H: Hypergraph, M: list[SimplePair]) -> SetPairFamily:
    """A_s = X\\Y and B_s = V\\(X union Y) for each selected pair s = (X, Y)."""
    ground = frozenset(range(H.p))
    members = []
    for sp in M:
        X = frozenset(H.edges[sp.first])
        Y = frozenset(H.edges[sp.second])
        members.append((X - Y, ground - (X | Y)))
    return SetPairFamily(ground_size=H.p, members=tuple(members))


def check_conditions(
    F: SetPairFamily,
) -> tuple[bool, list[tuple[str, tuple[int, ...]]]]:
    """Pairwise disjointness (A_i, B_i) and non-containment A_j not within A_i union B_i.

    Returns (ok, violations); each violation names its kind and the
    indices involved, sorted for deterministic reporting.
    """
    violations: list[tuple[str, tuple[int, ...]]] = []
    for i, (a, b) in enumerate(F.members):
        if a & b:
            violations.append(("disjointness", (i,)))
    for i, (ai, bi) in enumerate(F.members):
        blocked = ai | bi
        for j, (aj, _) in enumerate(F.members):
            if i != j and aj <= blocked:
                violations.append(("containment", (i, j)))
    violations.sort()
    return not violations, violations


def bollobas_sum(F: SetPairFamily) -> Fraction:
    """Exact rational sum of 1/C(p-|B_i|, |A_i|) over the family."""
    total = Fraction(0)
    for i, (a, b) in enumerate(F.members):
        n_choose = F.ground_size - len(b)
        if len(a) > n_choose:
            raise DegenerateBinomial(
                f"member {i}: |A| = {len(a)} exceeds p - |B| = {n_choose}"
            )
        total += Fraction(1, math.comb(n_choose, len(a)))
    return total


def detect_equality_structure(F: SetPairFamily) -> tuple[frozenset[int], frozenset[int]]:
    """Extract the structure forced at equality: common B, and A_i = all q-subsets of U.

    Callers must have established the two conditions and sum == 1; if the
    structure is nonetheless absent the conditions check was buggy, since
    the two-families theorem forbids this combination.
    """
    if not F.members:
        raise EqualityStructureViolated("empty family cannot sum to 1")
    b_sets = {b for _, b in F.members}
    if len(b_sets) != 1:
        raise EqualityStructureViolated(f"B sets are not all identical ({len(b_sets)} distinct)")
    (common_b,) = b_sets
    ground_u = frozenset(range(F.ground_size)) - common_b
    sizes = {len(a) for a, _ in F.members}
    if len(sizes) != 1:
        raise EqualityStructureViolated(f"A sets have mixed sizes {sorted(sizes)}")
    (q,) = sizes
    a_sets = {a for a, _ in F.members}
    if len(a_sets) != len(F.members):
        raise EqualityStructureViolated("A sets repeat")
    if any(not a <= ground_u for a in a_sets):
        raise EqualityStructureViolated("some A set leaves the ground minus B")
    if len(a_sets) != math.comb(len(ground_u), q):
        raise EqualityStructureViolated(
            f"{len(a_sets)} A sets but C({len(ground_u)},{q}) = "
            f"{math.comb(len(ground_u), q)} {q}-subsets exist"
        )
    return common_b, ground_u


def evaluate_family(F: SetPairFamily) -> dict:
    """Conditions, sum and equality detection: the report document's bollobas section.

    The sum stays an exact Fraction; common_B and ground_U are sorted
    vertex lists, or None unless the equality structure holds.
    """
    ok, violations = check_conditions(F)
    total = bollobas_sum(F)
    if ok:
        assert total <= 1, "two-families sum exceeded 1 despite valid conditions"
    equality = ok and total == 1
    common_b = ground_u = None
    if equality:
        common_b, ground_u = map(sorted, detect_equality_structure(F))
    return {
        "conditions_ok": ok,
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
