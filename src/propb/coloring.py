"""Order-driven greedy two-coloring and exact two-colorability decision.

The greedy rule scans vertices in a given visit order (a permutation of
the vertex ids, first-visited first, as checked by check_order) and
colors each Blue unless that would complete an all-Blue edge, in which
case it colors Red.  By construction the output never contains an
all-Blue edge, so a failed run always exposes an all-Red edge, and from
it a separated simple pair can be read off.

One numpy kernel runs the rule over a block of orders at once, as
bitsets: step k colors the k-th vertex of every order Red iff one of its
edges has all other vertices in the Blue mask.  A single given order is
the one-row case; random restarts draw TRIAL_BLOCK orders at a time in
one numpy pass over a counter-based SplitMix64 stream.  numpy is
imported inside these kernels only, so commands that never run one (the
decider among them) do not pay its import.

The exact decider is backtracking with forcing over Blue and Red vertex
masks.  Its forcing step is the greedy rule's, in both colors: an edge
whose other vertices all share one color forces its last vertex to the
other color.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import IncompleteColoring, InvalidOrdering
from .hypergraph import Hypergraph, SimplePair, covered_vertices

# Random orders are drawn and evaluated this many trials at a time, so
# memory stays flat however many trials are asked for.
TRIAL_BLOCK = 1024

# The stream of _trial_orders, as the Monte Carlo document names it.
TRIAL_STREAM = "splitmix64-1"
_GAMMA = 0x9E3779B97F4A7C15


class Color(str, Enum):
    BLUE = "Blue"
    RED = "Red"


class Colorability(str, Enum):
    YES = "yes"
    NO = "no"
    UNDETERMINED = "undetermined"


def check_order(order, p: int | None = None) -> tuple[int, ...]:
    """A visit order (first element visited first) as a tuple of ints.

    Raises InvalidOrdering unless it is a permutation of 0..len-1 and, when
    p is given, covers exactly p vertices.
    """
    seq = [operator.index(v) for v in order]
    if sorted(seq) != list(range(len(seq))):
        raise InvalidOrdering(f"sequence {seq} is not a permutation of 0..{len(seq) - 1}")
    if p is not None and len(seq) != p:
        raise InvalidOrdering(f"ordering covers {len(seq)} vertices, hypergraph has {p}")
    return tuple(seq)


@dataclass(frozen=True)
class Coloring:
    colors: tuple[Color, ...]
    proper: bool
    violating_edge: int | None


@dataclass(frozen=True)
class ColoringOutcome:
    """Greedy run result; on failure carries the separated simple pair."""

    coloring: Coloring
    separated_witness: SimplePair | None


def is_proper(H: Hypergraph, colors) -> int | None:
    """Index of the first monochromatic edge in canonical order, or None."""
    colors = tuple(colors)
    if len(colors) != H.p or any(c is None for c in colors):
        raise IncompleteColoring(f"coloring must assign all {H.p} vertices")
    for ei, e in enumerate(H.edges):
        first = colors[e[0]]
        if all(colors[v] == first for v in e[1:]):
            return ei
    return None


def greedy_color(H: Hypergraph, order) -> ColoringOutcome:
    """Sequential coloring in visit order: Blue unless that completes an all-Blue edge.

    If the result is improper, the violating edge Y is all-Red; taking its
    first-visited vertex y and the canonically first edge X containing y
    whose other vertices are Blue and visited before y gives a simple pair
    (X, Y) separated by the order.  For n = 1 no simple pair exists, so
    improper runs carry no witness.
    """
    import numpy as np

    order = check_order(order, H.p)
    blue, violating = _greedy_block(H, np.array([order], dtype=np.int64))
    blue, violating = int(blue[0]), int(violating[0])
    coloring = _coloring(H, blue, violating)

    witness = None
    if not coloring.proper:
        assert blue & H.masks[violating] == 0, "greedy rule never completes an all-Blue edge"
        if H.n >= 2:
            pos = {v: k for k, v in enumerate(order)}
            y = min(H.edges[violating], key=pos.__getitem__)
            for ei, e in enumerate(H.edges):
                if y in e and all(blue >> u & 1 and pos[u] < pos[y] for u in e if u != y):
                    witness = SimplePair(first=ei, second=violating, meet=y)
                    break
            assert witness is not None, "a Red vertex always has a completing edge"
    return ColoringOutcome(coloring=coloring, separated_witness=witness)


def _mask_dtype(p: int):
    """int64 while the vertex bits and the spare bit 1 << p fit, else Python ints."""
    import numpy as np

    return np.int64 if p < 63 else object


def _trial_orders(p: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Visit orders of trials start..stop-1, one row each.

    Trial t visits the vertices in the stable argsort of outputs t*p..t*p+p-1
    of SplitMix64 (Steele, Lea & Flood 2014; output k of seed s mixes
    s + (k + 1) * _GAMMA mod 2^64), so it is reproducible on its own and a
    block does not depend on the blocks before it.
    """
    import numpy as np

    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in 0..2^64-1, got {seed}")
    z = np.arange(start * p + 1, stop * p + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.argsort(z.reshape(stop - start, p), axis=1, kind="stable")


@lru_cache(maxsize=64)
def _greedy_tables(H: Hypergraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertex bits, "others" table and edge masks of H; read-only, as every call shares them.

    Row v lists m ^ (1 << v) per edge mask m holding v, padded with the never-Blue bit 1 << p;
    the edge masks end with an empty sentinel edge, monochromatic in every run.
    """
    import numpy as np

    p, masks, dtype = H.p, H.masks, _mask_dtype(H.p)
    bits = np.array([1 << v for v in range(p)], dtype=dtype)
    others = [[m ^ (1 << v) for m in masks if m >> v & 1] for v in range(p)]
    table = np.full((p, max(map(len, others), default=0) or 1), 1 << p, dtype=dtype)
    for v, row in enumerate(others):
        table[v, : len(row)] = row
    edge_masks = np.array(masks + (0,), dtype=dtype)
    bits.flags.writeable = table.flags.writeable = edge_masks.flags.writeable = False
    return bits, table, edge_masks


def _greedy_block(H: Hypergraph, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy runs over a block of visit orders, one per row.

    Returns each run's Blue vertex mask and the index of its first monochromatic
    edge (len(H.edges) if proper); v turns Red iff one of its edges is otherwise Blue.
    """
    import numpy as np

    bits, table, edge_masks = _greedy_tables(H)
    blue = np.zeros(orders.shape[0], dtype=bits.dtype)
    for k in range(H.p):
        v = orders[:, k]
        cand = table[v]
        red = ((cand & blue[:, None]) == cand).any(axis=1)
        blue |= np.where(red, 0, bits[v])
    x = blue[:, None] & edge_masks
    mono = (x == 0) | (x == edge_masks)
    return blue, mono.argmax(axis=1)


def _coloring(H: Hypergraph, blue: int, violating: int) -> Coloring:
    colors = tuple(Color.BLUE if blue >> v & 1 else Color.RED for v in range(H.p))
    proper = violating == len(H.edges)
    return Coloring(colors=colors, proper=proper, violating_edge=None if proper else violating)


def exhaustive_decide(
    H: Hypergraph, vertex_budget: int = 24
) -> tuple[Colorability, Coloring | None]:
    """Exact two-colorability by backtracking with forcing over bitsets.

    A complete search over partial colorings kept as Blue and Red vertex
    masks.  Forcing is the greedy rule's own step: an edge with no Red
    vertex and one vertex not yet Blue forces that vertex Red, and
    symmetrically; an edge left with no uncolored vertex and one color is
    a conflict.  When forcing stops, the search branches Blue-then-Red on
    the uncolored vertex in the most edges not yet holding both colors.
    The highest-degree covered vertex starts Blue (color-swap symmetry).
    Covered counts above vertex_budget return UNDETERMINED; uncolored and
    uncovered vertices are Blue in any returned witness.
    """
    c = len(covered_vertices(H))
    red = 0
    if c:
        if c > vertex_budget:
            return Colorability.UNDETERMINED, None
        first = max(range(H.p), key=lambda v: sum(m >> v & 1 for m in H.masks))
        red = _two_color(H.masks, 1 << first)
        if red is None:
            return Colorability.NO, None
    colors = tuple(Color.RED if red >> v & 1 else Color.BLUE for v in range(H.p))
    return Colorability.YES, Coloring(colors=colors, proper=True, violating_edge=None)


def _two_color(edges, blue: int) -> int | None:
    """Red mask of a proper coloring extending the Blue mask `blue`, or None."""
    stack = [(edges, blue, 0)]
    while stack:
        edges, blue, red = stack.pop()
        forced = _force(edges, blue, red)
        if forced is None:
            continue
        blue, red = forced
        colored = blue | red
        open_edges = [e for e in edges if not (e & blue and e & red)]
        hits: dict[int, int] = {}
        for e in open_edges:
            free = e & ~colored
            while free:
                bit = free & -free
                hits[bit] = hits.get(bit, 0) + 1
                free ^= bit
        if not hits:
            return red
        v = max(hits, key=hits.__getitem__)
        stack.append((open_edges, blue, red | v))
        stack.append((open_edges, blue | v, red))
    return None


def _force(edges, blue: int, red: int) -> tuple[int, int] | None:
    """Close (blue, red) under forcing; None on a monochromatic edge."""
    changed = True
    while changed:
        changed = False
        for e in edges:
            if e & red:
                if e & blue:
                    continue
                free = e & ~red
                if not free:
                    return None
                if not free & (free - 1):
                    blue |= free
                    changed = True
            else:
                free = e & ~blue
                if not free:
                    return None
                if not free & (free - 1):
                    red |= free
                    changed = True
    return blue, red


def random_restart_color(
    H: Hypergraph, max_trials: int, seed: int = 0
) -> tuple[tuple[int, ...], Coloring] | None:
    """Greedy coloring under fresh uniform random orders until one is proper.

    Trial t sorts SplitMix64 outputs t*p..t*p+p-1 of seed (0 <= seed <
    2^64), so results do not depend on evaluation order.  Trials run in
    blocks of TRIAL_BLOCK; returns the first successful (visit order,
    coloring) in trial order, or None after max_trials failures.
    """
    import numpy as np

    if max_trials < 1:
        raise ValueError("max_trials must be >= 1")
    for start in range(0, max_trials, TRIAL_BLOCK):
        orders = _trial_orders(H.p, seed, start, min(start + TRIAL_BLOCK, max_trials))
        blue, violating = _greedy_block(H, orders)
        hits = np.flatnonzero(violating == len(H.edges))
        if hits.size:
            i = hits[0]
            return tuple(orders[i].tolist()), _coloring(H, int(blue[i]), len(H.edges))
    return None
