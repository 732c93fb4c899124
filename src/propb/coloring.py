"""Order-driven greedy two-coloring and exact two-colorability decision.

The greedy rule scans vertices in a given order and colors each Blue
unless that would complete an all-Blue edge, in which case it colors
Red.  By construction the output never contains an all-Blue edge, so a
failed run always exposes an all-Red edge, and from it a separated
simple pair can be read off.

One numpy kernel runs the rule over a block of orders at once, as
bitsets: step k colors the k-th vertex of every order Red iff one of its
edges has all other vertices in the Blue mask.  A single given order is
the one-row case; random restarts draw their orders from one seeded
per-trial stream, TRIAL_BLOCK trials at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IncompleteColoring, InvalidOrdering
from .hypergraph import Hypergraph, SimplePair, covered_vertices

# Random orders are drawn and evaluated this many trials at a time, so
# memory stays flat however many trials are asked for.
TRIAL_BLOCK = 1024


class Color(str, Enum):
    BLUE = "Blue"
    RED = "Red"


class Colorability(str, Enum):
    YES = "yes"
    NO = "no"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Ordering:
    """Bijection from vertex ids to ranks 1..p; ranks[v] is v's rank."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        p = len(self.ranks)
        if sorted(self.ranks) != list(range(1, p + 1)):
            raise InvalidOrdering(f"ranks {self.ranks} are not a bijection onto 1..{p}")

    @classmethod
    def from_vertex_sequence(cls, seq) -> "Ordering":
        """Build from the visit order (first element gets rank 1)."""
        seq = list(seq)
        if sorted(seq) != list(range(len(seq))):
            raise InvalidOrdering(f"sequence {seq} is not a permutation of 0..{len(seq) - 1}")
        ranks = [0] * len(seq)
        for i, v in enumerate(seq):
            ranks[v] = i + 1
        return cls(tuple(ranks))

    @classmethod
    def identity(cls, p: int) -> "Ordering":
        return cls(tuple(range(1, p + 1)))

    @classmethod
    def random(cls, p: int, rng: random.Random) -> "Ordering":
        seq = list(range(p))
        rng.shuffle(seq)
        return cls.from_vertex_sequence(seq)

    def rank(self, v: int) -> int:
        return self.ranks[v]

    def vertex_sequence(self) -> tuple[int, ...]:
        """Vertices sorted by rank (the visit order)."""
        return tuple(sorted(range(len(self.ranks)), key=self.ranks.__getitem__))


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


def greedy_color(H: Hypergraph, pi: Ordering) -> ColoringOutcome:
    """Sequential coloring in rank order: Blue unless that completes an all-Blue edge.

    If the result is improper, the violating edge Y is all-Red; taking its
    rank-minimal vertex y and the canonically first edge X containing y
    whose other vertices are Blue and precede y gives a simple pair (X, Y)
    separated by pi.  For n = 1 no simple pair exists, so improper runs
    carry no witness.
    """
    if len(pi.ranks) != H.p:
        raise InvalidOrdering(f"ordering covers {len(pi.ranks)} vertices, hypergraph has {H.p}")
    blue, violating = _greedy_block(H, np.array([pi.vertex_sequence()], dtype=np.int64))
    blue, violating = int(blue[0]), int(violating[0])
    coloring = _coloring(H, blue, violating)

    witness = None
    if not coloring.proper:
        assert blue & H.masks[violating] == 0, "greedy rule never completes an all-Blue edge"
        if H.n >= 2:
            y = min(H.edges[violating], key=pi.rank)
            ry = pi.rank(y)
            for ei, e in enumerate(H.edges):
                if y in e and all(blue >> u & 1 and pi.rank(u) < ry for u in e if u != y):
                    witness = SimplePair(first=ei, second=violating, meet=y)
                    break
            assert witness is not None, "a Red vertex always has a completing edge"
    return ColoringOutcome(coloring=coloring, separated_witness=witness)


def _mask_dtype(p: int):
    """int64 while the vertex bits and the spare bit 1 << p fit, else Python ints."""
    return np.int64 if p < 63 else object


def _trial_orders(p: int, seed, start: int, stop: int) -> np.ndarray:
    """Visit orders of trials start..stop-1, one row each.

    Trial t shuffles range(p) with a PRNG seeded from the string "seed:t"
    (reseeding one Random gives the stream of a fresh Random("seed:t")),
    so every trial is reproducible on its own and a block of trials does
    not depend on the blocks before it.
    """
    rng = random.Random()
    rows = []
    for t in range(start, stop):
        rng.seed(f"{seed}:{t}")
        seq = list(range(p))
        rng.shuffle(seq)
        rows.append(seq)
    return np.array(rows, dtype=np.int64)


def _greedy_block(H: Hypergraph, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy runs over a block of visit orders, one per row.

    Returns each run's Blue vertex mask and the index of its first
    monochromatic edge, len(H.edges) when the run is proper.  Vertex v
    turns Red iff one of its edges has all other vertices Blue already;
    the rows of the "others" table are padded with the bit 1 << p, which
    is never Blue.
    """
    p, masks = H.p, H.masks
    dtype = _mask_dtype(p)
    bits = np.array([1 << v for v in range(p)], dtype=dtype)
    others = [[m ^ (1 << v) for m in masks if m >> v & 1] for v in range(p)]
    table = np.full((p, max(map(len, others), default=0) or 1), 1 << p, dtype=dtype)
    for v, row in enumerate(others):
        table[v, : len(row)] = row
    T = orders.shape[0]
    blue = np.zeros(T, dtype=dtype)
    for k in range(p):
        v = orders[:, k]
        cand = table[v]
        red = ((cand & blue[:, None]) == cand).any(axis=1)
        blue |= np.where(red, 0, bits[v])
    # a sentinel empty edge after the last one is monochromatic in every run
    edge_masks = np.array(masks + (0,), dtype=dtype)
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
    """Exact two-colorability by iterating all colorings of covered vertices.

    The first covered vertex is fixed Blue (color-swap symmetry), leaving
    2^(c-1) candidates evaluated in chunks with bitset monochromaticity
    tests.  Covered counts above vertex_budget return UNDETERMINED;
    uncovered vertices are colored Blue in any returned witness.
    """
    cov = sorted(covered_vertices(H))
    c = len(cov)
    if c == 0:
        colors = tuple([Color.BLUE] * H.p)
        return Colorability.YES, Coloring(colors=colors, proper=True, violating_edge=None)
    if c > vertex_budget:
        return Colorability.UNDETERMINED, None
    if c > 62:
        raise ValueError("vertex budgets above 62 are not supported")

    idx = {v: i for i, v in enumerate(cov)}
    comp_masks = np.array(
        [sum(1 << idx[v] for v in e) for e in H.edges], dtype=np.int64
    )
    total = 1 << (c - 1)
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        blue = (np.arange(lo, hi, dtype=np.int64) << 1) | 1
        ok = np.ones(hi - lo, dtype=bool)
        for em in comp_masks:
            x = blue & em
            ok &= (x != 0) & (x != em)
            if not ok.any():
                break
        hits = np.flatnonzero(ok)
        if hits.size:
            b = int(blue[hits[0]])
            colors = [Color.BLUE] * H.p
            for v, i in idx.items():
                colors[v] = Color.BLUE if b >> i & 1 else Color.RED
            return Colorability.YES, Coloring(
                colors=tuple(colors), proper=True, violating_edge=None
            )
    return Colorability.NO, None


def random_restart_color(
    H: Hypergraph, max_trials: int, seed=0
) -> tuple[Ordering, Coloring] | None:
    """Greedy coloring under fresh uniform random orders until one is proper.

    Trial t uses its own PRNG stream seeded from (seed, t), so results do
    not depend on evaluation order.  Trials run in blocks of TRIAL_BLOCK;
    returns the first successful (ordering, coloring) in trial order, or
    None after max_trials failures.
    """
    if max_trials < 1:
        raise ValueError("max_trials must be >= 1")
    for start in range(0, max_trials, TRIAL_BLOCK):
        orders = _trial_orders(H.p, seed, start, min(start + TRIAL_BLOCK, max_trials))
        blue, violating = _greedy_block(H, orders)
        hits = np.flatnonzero(violating == len(H.edges))
        if hits.size:
            i = hits[0]
            pi = Ordering.from_vertex_sequence(orders[i].tolist())
            return pi, _coloring(H, int(blue[i]), len(H.edges))
    return None
