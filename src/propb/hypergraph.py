"""Core n-uniform hypergraph representation and simple-pair counting.

Vertices are dense 0-based integer ids.  Every edge is kept both as a
sorted tuple (canonical order, I/O) and as an int bitset (hot loops);
Python ints are arbitrary-width, so the bitset path works at any p.

m2 counts ORDERED simple pairs, i.e. ordered pairs (X, Y) of distinct
edges with |X meet Y| = 1; the unordered count is exactly half of it.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from collections.abc import Iterable
from itertools import combinations

from .errors import (
    InsufficientVertices,
    NonUniformEdge,
    TooManyEdges,
    VertexOutOfRange,
)

# The most edges `propb gen` builds, and the largest population random_hypergraph lists whole.
EDGE_BUDGET = 1 << 20


class Hypergraph:
    """Immutable n-uniform hypergraph on vertex ids 0..p-1.

    Invariants enforced on construction: every edge is a strictly
    increasing n-tuple of ids in [0, p); the edge list is sorted
    lexicographically with no duplicates.  This is the one edge-list
    check: :func:`normalize` (unsorted/duplicated raw input), pickle and
    copy build through it.  Equality and hashing cover (n, p, edges);
    masks holds each edge as an int bitset.
    """

    __slots__ = ("n", "p", "edges", "masks")

    def __init__(self, n: int, p: int, edges: tuple[tuple[int, ...], ...]):
        if n < 1:
            raise NonUniformEdge(f"uniformity must be positive, got {n}")
        if p < 0:
            raise VertexOutOfRange(f"vertex count must be non-negative, got {p}")
        prev = None
        masks = []
        for e in edges:
            if len(e) != n or any(a >= b for a, b in zip(e, e[1:])):
                raise NonUniformEdge(f"edge {e} is not a sorted {n}-set")
            if e[0] < 0 or e[-1] >= p:
                raise VertexOutOfRange(f"edge {e} leaves vertex range [0, {p})")
            if prev is not None and e <= prev:
                raise NonUniformEdge(f"edge list not in canonical order at {e}")
            prev = e
            m = 0
            for v in e:
                m |= 1 << v
            masks.append(m)
        for name, value in (("n", n), ("p", p), ("edges", edges), ("masks", tuple(masks))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.p, self.edges) == (other.n, other.p, other.edges)

    def __hash__(self):
        return hash((self.n, self.p, self.edges))

    def __repr__(self):
        return f"Hypergraph(n={self.n!r}, p={self.p!r}, edges={self.edges!r})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, as slot state would go through __setattr__
        return Hypergraph, (self.n, self.p, self.edges)


class SimplePair(namedtuple("SimplePair", "first second meet")):
    """Ordered pair of edge indices whose edges share exactly one vertex."""

    __slots__ = ()


def normalize(raw_edges: Iterable[Iterable[int]], n: int, p: int) -> Hypergraph:
    """Sort each edge, drop repeated edges and build the Hypergraph, which checks them.

    NonUniformEdge for a wrong-size edge or a repeated vertex, VertexOutOfRange for an id outside [0, p).
    """
    return Hypergraph(n, p, tuple(sorted({tuple(sorted(raw)) for raw in raw_edges})))


def covered_vertices(H: Hypergraph) -> frozenset[int]:
    """Vertices that belong to at least one edge."""
    return frozenset(v for e in H.edges for v in e)


def enumerate_simple_pairs(H: Hypergraph) -> list[SimplePair]:
    """All ordered pairs (X, Y) of distinct edges with |X meet Y| = 1.

    Each edge pair is intersected once and yields (i, j) and (j, i) when
    simple; the result is sorted by (first, second), of length m2(H).
    """
    pairs = []
    masks = H.masks
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            inter = mi & masks[j]
            if inter.bit_count() == 1:
                meet = inter.bit_length() - 1
                pairs += (SimplePair(i, j, meet), SimplePair(j, i, meet))
    pairs.sort()
    return pairs


def m2(H: Hypergraph) -> int:
    """Number of ordered simple pairs, counted without materializing them.

    Mirror twins (i, j)/(j, i) are simple together, so the count scans
    unordered index pairs and doubles.
    """
    masks = H.masks
    count = 0
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            if (mi & masks[j]).bit_count() == 1:
                count += 2
    return count


def bound(n: int) -> int:
    """The simple-pair threshold n*C(2n-1, n) in exact integer arithmetic."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return n * math.comb(2 * n - 1, n)


def complete_hypergraph(n: int) -> Hypergraph:
    """Complete n-graph on 2n-1 vertices: all C(2n-1, n) edges."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    p = 2 * n - 1
    return Hypergraph(n=n, p=p, edges=tuple(combinations(range(p), n)))


def fano_plane() -> Hypergraph:
    """The 7-point projective plane as a 3-graph (7 lines, pairwise meeting in one point)."""
    lines = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)]
    return normalize(lines, n=3, p=7)


def pad(H: Hypergraph, extra_vertices: int, extra_disjoint_edges: int) -> Hypergraph:
    """Append fresh vertices and pairwise-disjoint edges on fresh vertices only.

    The new edges touch no old vertex and do not touch each other, so no
    new simple pair appears and m2 is unchanged.  Requires
    extra_vertices >= n * extra_disjoint_edges.
    """
    if extra_vertices < 0 or extra_disjoint_edges < 0:
        raise InsufficientVertices("padding counts must be non-negative")
    if extra_vertices < H.n * extra_disjoint_edges:
        raise InsufficientVertices(
            f"{extra_disjoint_edges} disjoint {H.n}-edges need "
            f"{H.n * extra_disjoint_edges} fresh vertices, got {extra_vertices}"
        )
    new_edges = list(H.edges)
    for k in range(extra_disjoint_edges):
        start = H.p + k * H.n
        new_edges.append(tuple(range(start, start + H.n)))
    return Hypergraph(n=H.n, p=H.p + extra_vertices, edges=tuple(new_edges))


def seymour_check(H: Hypergraph) -> bool:
    """Whether |edges| >= |covered vertices|.

    Necessary for non-2-colorability only of edge-MINIMAL hypergraphs
    (e.g. a triangle plus a disjoint edge is non-2-colorable with 4 edges
    on 5 covered vertices); isolated vertices are ignored.
    """
    return len(H.edges) >= len(covered_vertices(H))


def capped_comb(p: int, n: int, cap: int) -> int:
    """C(p, n) when it is at most cap, else some count above cap.

    The partial products C(p - k + i, i), i = 1..k with k = min(n, p - n),
    never fall, so the product stops at the first one past cap instead of
    reaching an exact count that may have hundreds of thousands of digits.
    """
    k = min(n, p - n)
    count = 1 if k >= 0 else 0  # C(p, n) = 0 for n > p
    for i in range(1, k + 1):
        count = count * (p - k + i) // i
        if count > cap:
            break
    return count


def random_hypergraph(n: int, p: int, m: int, seed) -> Hypergraph:
    """m distinct uniformly random n-subsets of [0, p), deterministic given seed."""
    # exact whenever it is at most m or at most EDGE_BUDGET, which is all either test below reads
    total = capped_comb(p, n, max(m, EDGE_BUDGET))
    if m > total:
        raise TooManyEdges(f"requested {m} edges but only C({p},{n})={total} exist")
    rng = random.Random(seed)
    if total <= EDGE_BUDGET:
        population = list(combinations(range(p), n))
        edges = rng.sample(population, m)
    else:
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < m:
            chosen.add(tuple(sorted(rng.sample(range(p), n))))
        edges = list(chosen)
    edges.sort()
    return Hypergraph(n=n, p=p, edges=tuple(edges))

