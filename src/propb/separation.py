"""Permutation separation: predicate, exact probabilities, exact ordering statistics, Monte Carlo.

An ordering is its visit sequence, a permutation of the vertex ids with
the first-visited vertex first.  It separates a simple pair (X, Y) with
shared vertex y when all of X minus y precedes y and y precedes all of
Y minus y.  Exact paths use
Fraction throughout; only Monte Carlo summaries may be rendered as floats.

Whether placing y separates a pair with meet y depends only on the set S
of vertices placed before it, so the histogram of separated-pair counts
over all p! orderings comes from a dynamic program over prefix sets
(2^(p-1) pair tests per pair) instead of a loop over the orderings.
Monte Carlo trials are evaluated a block at a time from the prefix masks
of their orders, drawn from the coloring module's SplitMix64 stream.
numpy is imported inside those kernels only; the exact paths never load it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .coloring import TRIAL_BLOCK, _mask_dtype, _trial_orders, check_order
from .errors import BudgetExceeded, NotSimple
from .hypergraph import Hypergraph, enumerate_simple_pairs


@dataclass(frozen=True)
class SeparationStats:
    """Per-trial separated-pair counts aggregated over random orderings."""

    trials: int
    mean_separated: Fraction
    success_rate: Fraction
    histogram: dict[int, int]


def separates(order, X: Iterable[int], Y: Iterable[int]) -> bool:
    """Whether the visit order puts all of X\\{y} before the shared vertex y and all of Y\\{y} after."""
    pos = {v: k for k, v in enumerate(check_order(order))}
    xs, ys = frozenset(X), frozenset(Y)
    meet = xs & ys
    if len(meet) != 1:
        raise NotSimple(f"edges share {len(meet)} vertices, expected exactly 1")
    (y,) = meet
    return all(pos[u] < pos[y] for u in xs - meet) and all(pos[v] > pos[y] for v in ys - meet)


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
    import numpy as np

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


def count_separated(H: Hypergraph, order) -> int:
    """Number of ordered simple pairs of H separated by the visit order."""
    import numpy as np

    orders = np.array([check_order(order, H.p)], dtype=np.int64)
    return int(_separated_counts(_pair_masks(H), orders)[0])


def exact_separation_probability(n: int) -> Fraction:
    """Closed form (n-1)!^2 / (2n-1)! for a random permutation separating a simple pair."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return Fraction(math.factorial(n - 1) ** 2, math.factorial(2 * n - 1))


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


def monte_carlo_separation(H: Hypergraph, trials: int, seed: int = 0) -> SeparationStats:
    """Sample uniform orderings and record separated-pair counts per trial.

    Trial t sorts SplitMix64 outputs t*p..t*p+p-1 of seed (0 <= seed <
    2^64); identical arguments reproduce identical statistics.
    """
    import numpy as np

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
