"""Permutation separation: predicate, exact probabilities, exact ordering statistics, Monte Carlo.

An ordering separates a simple pair (X, Y) with shared vertex y when all
of X minus y precedes y and y precedes all of Y minus y.  Exact paths use
Fraction throughout; only Monte Carlo summaries may be rendered as floats.

Whether placing y separates a pair with meet y depends only on the set S
of vertices placed before it, so the histogram of separated-pair counts
over all p! orderings comes from a dynamic program over prefix sets
(2^(p-1) pair tests per pair) instead of a loop over the orderings.
Monte Carlo trials are evaluated a block at a time from the prefix masks
of their random orders.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable

import numpy as np

from .coloring import TRIAL_BLOCK, Ordering, _mask_dtype, _trial_orders
from .errors import BudgetExceeded, InvalidOrdering, NotSimple
from .hypergraph import Hypergraph, enumerate_simple_pairs


@dataclass(frozen=True)
class SeparationStats:
    """Per-trial separated-pair counts aggregated over random orderings."""

    trials: int
    mean_separated: Fraction
    success_rate: Fraction
    histogram: dict[int, int]


def separates(pi: Ordering, X: Iterable[int], Y: Iterable[int]) -> bool:
    """Whether pi puts all of X\\{y} before the shared vertex y and all of Y\\{y} after."""
    xs, ys = frozenset(X), frozenset(Y)
    meet = xs & ys
    if len(meet) != 1:
        raise NotSimple(f"edges share {len(meet)} vertices, expected exactly 1")
    (y,) = meet
    ry = pi.rank(y)
    return all(pi.rank(u) < ry for u in xs - meet) and all(pi.rank(v) > ry for v in ys - meet)


def _pair_masks(H: Hypergraph) -> list[tuple[int, int, int]]:
    """(mask of X\\y, mask of Y\\y, y) per ordered simple pair."""
    out = []
    for sp in enumerate_simple_pairs(H):
        bit = 1 << sp.meet
        out.append((H.masks[sp.first] ^ bit, H.masks[sp.second] ^ bit, sp.meet))
    return out


def _separated_counts(pairs: list[tuple[int, int, int]], orders: np.ndarray) -> np.ndarray:
    """Separated-pair count per row of a block of visit orders.

    before[t, v] is the mask of the vertices trial t visits before v; a
    pair (xo, yo, y) is separated iff xo is inside before[t, y] and yo
    misses it.
    """
    T, p = orders.shape
    dtype = _mask_dtype(p)
    bits = np.array([1 << v for v in range(p)], dtype=dtype)[orders]
    before = np.empty_like(bits)
    np.put_along_axis(before, orders, np.cumsum(bits, axis=1) - bits, axis=1)
    counts = np.zeros(T, dtype=np.int64)
    for xo, yo, y in pairs:
        b = before[:, y]
        counts += ((b & xo) == xo) & ((b & yo) == 0)
    return counts


def count_separated(H: Hypergraph, pi: Ordering) -> int:
    """Number of ordered simple pairs of H separated by pi."""
    if len(pi.ranks) != H.p:
        raise InvalidOrdering(f"ordering covers {len(pi.ranks)} vertices, hypergraph has {H.p}")
    orders = np.array([pi.vertex_sequence()], dtype=np.int64)
    return int(_separated_counts(_pair_masks(H), orders)[0])


def exact_separation_probability(n: int) -> Fraction:
    """Closed form (n-1)!^2 / (2n-1)! for a random permutation separating a simple pair."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return Fraction(math.factorial(n - 1) ** 2, math.factorial(2 * n - 1))


def enumerate_separation_probability(
    X: Iterable[int], Y: Iterable[int], max_union: int = 10
) -> Fraction:
    """Separation probability of one simple pair by enumerating all orders of X union Y.

    Only the relative order of X union Y matters, so enumerating its
    (2n-1)! arrangements gives the exact probability over full
    permutations of any larger ground set.
    """
    xs, ys = frozenset(X), frozenset(Y)
    meet = xs & ys
    if len(meet) != 1:
        raise NotSimple(f"edges share {len(meet)} vertices, expected exactly 1")
    union = sorted(xs | ys)
    if len(union) > max_union:
        raise BudgetExceeded(f"|X union Y| = {len(union)} exceeds enumeration budget {max_union}")
    (y,) = meet
    x_others = xs - meet
    y_others = ys - meet
    hits = 0
    for perm in permutations(union):
        pos = {v: i for i, v in enumerate(perm)}
        py = pos[y]
        if all(pos[u] < py for u in x_others) and all(pos[v] > py for v in y_others):
            hits += 1
    return Fraction(hits, math.factorial(len(union)))


def ordering_histogram(H: Hypergraph, max_vertices: int = 8) -> dict[int, int]:
    """How many of the p! orderings separate exactly k simple pairs, as {k: orderings}.

    Layer j holds, for every j-set S of vertices, the histogram over the
    j! orders of S of the pairs they separate so far.  Placing y next adds
    the pairs with meet y whose X\\y lies inside S and whose Y\\y misses S.
    """
    if H.p > max_vertices:
        raise BudgetExceeded(f"p = {H.p} exceeds full-enumeration budget {max_vertices}")
    by_meet: list[list[tuple[int, int]]] = [[] for _ in range(H.p)]
    for xo, yo, y in _pair_masks(H):
        by_meet[y].append((xo, yo))
    layer: dict[int, Counter[int]] = {0: Counter({0: 1})}
    for _ in range(H.p):
        nxt: dict[int, Counter[int]] = {}
        for S, hist in layer.items():
            for y in range(H.p):
                if S >> y & 1:
                    continue
                gain = sum(1 for xo, yo in by_meet[y] if xo & S == xo and not yo & S)
                dest = nxt.setdefault(S | 1 << y, Counter())
                for c, k in hist.items():
                    dest[c + gain] += k
        layer = nxt
    (hist,) = layer.values()
    return dict(sorted(hist.items()))


def exhaustive_separation_mean(H: Hypergraph, max_vertices: int = 8) -> Fraction:
    """Exact mean of count_separated over all p! orderings, as a reduced rational."""
    hist = ordering_histogram(H, max_vertices)
    return Fraction(sum(c * k for c, k in hist.items()), math.factorial(H.p))


def monte_carlo_separation(H: Hypergraph, trials: int, seed=0) -> SeparationStats:
    """Sample uniform orderings and record separated-pair counts per trial.

    Trial t draws from its own PRNG stream seeded from (seed, t); identical
    arguments reproduce identical statistics.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pairs = _pair_masks(H)
    hist: Counter[int] = Counter()
    for start in range(0, trials, TRIAL_BLOCK):
        orders = _trial_orders(H.p, seed, start, min(start + TRIAL_BLOCK, trials))
        for c, k in enumerate(np.bincount(_separated_counts(pairs, orders)).tolist()):
            if k:
                hist[c] += k
    return SeparationStats(
        trials=trials,
        mean_separated=Fraction(sum(c * k for c, k in hist.items()), trials),
        success_rate=Fraction(hist.get(0, 0), trials),
        histogram=dict(sorted(hist.items())),
    )
