"""Order-driven greedy two-coloring and exact two-colorability decision.

The greedy rule scans vertices in a given visit order (a permutation of
the vertex ids, first-visited first, as checked by check_order) and
colors each Blue unless that would complete an all-Blue edge, in which
case it colors Red.  By construction the output never contains an
all-Blue edge, so a failed run always exposes an all-Red edge, and from
it a separated simple pair can be read off.

One kernel runs the rule over a block of orders at once, on Python ints
that hold one byte lane per order.  The plane before[u][v] has lane i set
iff order i visits u before v; planes exist only for vertex pairs that
share an edge, as no rule reads the others.  A vertex is Red iff one of
its edges has every other vertex visited before it and Blue; sweeping
that rule from all Blue until nothing changes gives the sequential result
in every lane.  A single given order is the one-lane case, its planes
read off its positions.  Random restarts draw TRIAL_BLOCK orders at a
time from a counter-based SplitMix64 stream, itself computed lane-packed
(one int per vertex that shares an edge, one 128-bit lane per trial);
the winning trial's order is sorted from its own one-lane keys.

The exact decider is backtracking with forcing over Blue and Red vertex
masks.  Its forcing step is the greedy rule's, in both colors: an edge
whose other vertices all share one color forces its last vertex to the
other color.
"""

from __future__ import annotations

import operator
from collections import Counter, namedtuple
from collections.abc import Iterable
from enum import Enum
from functools import lru_cache
from itertools import combinations

from .errors import InvalidOrdering
from .hypergraph import Hypergraph, SimplePair, covered_vertices

# Random orders are drawn and evaluated this many trials at a time, so
# memory stays flat however many trials are asked for.
TRIAL_BLOCK = 1024

# The stream of _trial_keys, as the Monte Carlo document names it.
TRIAL_STREAM = "splitmix64-1"
_GAMMA = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


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


class Coloring(namedtuple("Coloring", "colors proper violating_edge")):
    """A Color per vertex, whether no edge is monochromatic, and the first such edge's index or None."""

    __slots__ = ()


class ColoringOutcome(namedtuple("ColoringOutcome", "coloring separated_witness")):
    """Greedy run result; on failure carries the separated simple pair."""

    __slots__ = ()


def greedy_color(H: Hypergraph, order) -> ColoringOutcome:
    """Sequential coloring in visit order: Blue unless that completes an all-Blue edge.

    If the result is improper, the violating edge Y is all-Red; taking its
    first-visited vertex y and the canonically first edge X containing y
    whose other vertices are Blue and visited before y gives a simple pair
    (X, Y) separated by the order.  For n = 1 no simple pair exists, so
    improper runs carry no witness.
    """
    order = check_order(order, H.p)
    red = _greedy_red(H, _order_planes(H, order), 1, order)
    violating = next((ei for ei, e in enumerate(H.edges) if all(red[v] for v in e)), len(H.edges))
    coloring = _coloring(H, red, 0, violating)

    witness = None
    if not coloring.proper:
        assert all(red[v] for v in H.edges[violating]), "greedy rule never completes an all-Blue edge"
        if H.n >= 2:
            pos = {v: k for k, v in enumerate(order)}
            y = min(H.edges[violating], key=pos.__getitem__)
            for ei, e in enumerate(H.edges):
                if y in e and all(not red[u] and pos[u] < pos[y] for u in e if u != y):
                    witness = SimplePair(first=ei, second=violating, meet=y)
                    break
            assert witness is not None, "a Red vertex always has a completing edge"
    return ColoringOutcome(coloring=coloring, separated_witness=witness)


@lru_cache(maxsize=4)
def _lanes(T: int) -> tuple[int, int, int]:
    """R, I and M over T 128-bit lanes: 1, the lane's index and 2^64-1 in every lane."""
    R = int.from_bytes(b"\x01".ljust(16, b"\x00") * T, "little")
    I = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(T)), "little")
    return R, I, R * _M64


def _trial_keys(p: int, seed: int, start: int, stop: int, vertices: Iterable[int]) -> list[int]:
    """SplitMix64 keys of trials start..stop-1: one int per listed vertex, one 128-bit lane per trial.

    Lane i of vertex v holds output (start + i) * p + v of SplitMix64
    (Steele, Lea & Flood 2014; output k of seed s mixes s + (k + 1) * _GAMMA
    mod 2^64).  Each step runs on the whole int; masking with M after every
    shift and multiply keeps each lane below 2^64, so a product stays below
    2^128 and no carry crosses a lane.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in 0..2^64-1, got {seed}")
    R, I, M = _lanes(stop - start)
    step = I * (p * _GAMMA & _M64)
    keys = []
    for v in vertices:
        z = ((seed + (start * p + v + 1) * _GAMMA & _M64) * R + step) & M
        z = ((z ^ z >> 30) & M) * 0xBF58476D1CE4E5B9 & M
        z = ((z ^ z >> 27) & M) * 0x94D049BB133111EB & M
        keys.append((z ^ z >> 31) & M)
    return keys


@lru_cache(maxsize=64)
def _adjacency(H: Hypergraph) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """Pairs u < v that share an edge, and per vertex v the others (e minus v) of each edge e holding v."""
    others: list[list[tuple[int, ...]]] = [[] for _ in range(H.p)]
    for e in H.edges:
        for k, v in enumerate(e):
            others[v].append(e[:k] + e[k + 1 :])
    return tuple(sorted({pair for e in H.edges for pair in combinations(e, 2)})), tuple(map(tuple, others))


def _planes(H: Hypergraph, firsts: list[int], ones: int) -> list[dict[int, int]]:
    """before[u][v] for vertices u != v sharing an edge: lane i is 1 iff trial i visits u first.

    firsts holds the plane of u before v for each pair u < v of _adjacency;
    the reverse plane is its complement.  No kernel reads a pair that
    shares no edge, so none is built.
    """
    before: list[dict[int, int]] = [{} for _ in range(H.p)]
    for (u, v), b in zip(_adjacency(H)[0], firsts):
        before[u][v], before[v][u] = b, b ^ ones
    return before


def _order_planes(H: Hypergraph, order: tuple[int, ...]) -> list[dict[int, int]]:
    """The one-lane planes of a single visit order."""
    pos = [0] * H.p
    for k, v in enumerate(order):
        pos[v] = k
    return _planes(H, [int(pos[u] < pos[v]) for u, v in _adjacency(H)[0]], 1)


def _trial_planes(H: Hypergraph, seed: int, start: int, stop: int) -> tuple[list[dict[int, int]], int]:
    """Planes of trials start..stop-1, one byte lane per trial, and the int with 1 in every lane.

    In lane i of (K_v + 2^64) - K_u bit 64 is set iff K_u <= K_v, the
    stable rule for u < v.  Eight pairs at a time shift that bit to bits
    56..63, so one to_bytes call and byte 7 of each 16-byte lane serve all
    eight.
    """
    T = stop - start
    pairs = _adjacency(H)[0]
    # only vertices that share an edge have planes, so only they need keys
    touched = {v for pair in pairs for v in pair}
    keys = dict(zip(touched, _trial_keys(H.p, seed, start, stop, touched)))
    high = _lanes(T)[0] << 64
    raised = {v: k | high for v, k in keys.items()}
    ones = int.from_bytes(b"\x01" * T, "little")
    firsts: list[int] = []
    for g in range(0, len(pairs), 8):
        group = pairs[g : g + 8]
        packed = 0
        for j, (u, v) in enumerate(group):
            packed |= (raised[v] - keys[u] & high) >> 8 - j
        byte7 = int.from_bytes(packed.to_bytes(16 * T, "little")[7::16], "little")
        firsts += [byte7 >> j & ones for j in range(len(group))]
    return _planes(H, firsts, ones), ones


def _greedy_red(H: Hypergraph, before: list[dict[int, int]], ones: int, sweep: Iterable[int]) -> list[int]:
    """Red lanes per vertex of the greedy runs whose visit orders `before` holds.

    v is Red iff an edge holding v has every other vertex visited before v
    and Blue.  Sweeping that rule from all Blue until nothing changes
    reaches its one fixpoint (by induction on visit position, a vertex
    settles once those visited before it have), which is the sequential
    greedy result.  Swept in its own visit order, a one-lane block settles
    in one pass and a second confirms it.
    """
    others = _adjacency(H)[1]
    early = [
        [_all_of([before[u][v] for u in rest], ones) for rest in others[v]] for v in range(H.p)
    ]
    red = [0] * H.p
    blue = [ones] * H.p
    changed = True
    while changed:
        changed = False
        for v in sweep:
            r = 0
            for lanes, rest in zip(early[v], others[v]):
                for u in rest:
                    if not lanes:
                        break
                    lanes &= blue[u]
                r |= lanes
            if r != red[v]:
                red[v], blue[v], changed = r, ones ^ r, True
    return red


def _all_of(planes: list[int], ones: int) -> int:
    """AND of the planes; `ones` (every lane set) when there are none."""
    for b in planes:
        ones &= b
    return ones


def _coloring(H: Hypergraph, red: list[int], lane: int, violating: int) -> Coloring:
    """The Coloring in one byte lane of the Red lanes, read off the covered vertices: linear in p."""
    colors = [Color.BLUE] * H.p
    for v in covered_vertices(H):
        if red[v] >> 8 * lane & 1:
            colors[v] = Color.RED
    proper = violating == len(H.edges)
    return Coloring(colors=tuple(colors), proper=proper, violating_edge=None if proper else violating)


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
    The highest-degree covered vertex (lowest id on a tie) starts Blue, by
    color-swap symmetry.  Covered counts above vertex_budget return
    UNDETERMINED; uncolored and uncovered vertices are Blue in any returned
    witness.
    """
    # read off the edges: a mask shift per vertex of range(p) would make this quadratic in p
    degree = Counter(v for e in H.edges for v in e)
    colors = [Color.BLUE] * H.p
    if degree:
        if len(degree) > vertex_budget:
            return Colorability.UNDETERMINED, None
        first = min(degree, key=lambda v: (-degree[v], v))
        red = _two_color(H.masks, 1 << first)
        if red is None:
            return Colorability.NO, None
        for v in degree:
            colors[v] = Color.RED if red >> v & 1 else Color.BLUE
    return Colorability.YES, Coloring(colors=tuple(colors), proper=True, violating_edge=None)


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
    coloring) in trial order, or None after max_trials failures.  A run
    never completes an all-Blue edge, so a trial is proper iff no edge is
    all Red.
    """
    if max_trials < 1:
        raise ValueError("max_trials must be >= 1")
    for start in range(0, max_trials, TRIAL_BLOCK):
        stop = min(start + TRIAL_BLOCK, max_trials)
        before, ones = _trial_planes(H, seed, start, stop)
        red = _greedy_red(H, before, ones, range(H.p))
        improper = 0
        for e in H.edges:
            improper |= _all_of([red[v] for v in e], ones)
            if improper == ones:
                break
        i = (ones ^ improper).to_bytes(stop - start, "little").find(1)
        if i >= 0:
            # a one-trial key is the plain SplitMix64 output; the stable sort visits tied keys lower vertex first
            keys = _trial_keys(H.p, seed, start + i, start + i + 1, range(H.p))
            return tuple(sorted(range(H.p), key=keys.__getitem__)), _coloring(H, red, i, len(H.edges))
    return None
