"""Permutation separation: separated-pair counts, exact ordering statistics, Monte Carlo.

An ordering is its visit sequence, a permutation of the vertex ids with
the first-visited vertex first.  It separates a simple pair (X, Y) with
shared vertex y when all of X minus y precedes y and y precedes all of
Y minus y; one random ordering does so with probability
(n-1)!^2 / (2n-1)! = 1 / bound(n).  Exact paths use Fraction throughout;
only Monte Carlo summaries may be rendered as floats.

Whether placing y separates a pair with meet y depends only on the set S
of vertices placed before it, so the histogram of separated-pair counts
over all p! orderings comes from a dynamic program over prefix sets
(2^(p-1) pair tests per pair) instead of a loop over the orderings.
Monte Carlo trials are evaluated a block at a time on the coloring
module's planes, one byte lane per order of its SplitMix64 stream: a pair
is separated in the lanes where its X\\y is all before y and its Y\\y all
after, and the pair bits add up lane by lane.  count_separated is the
one-lane case, with the planes of a single order.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from fractions import Fraction

from .coloring import TRIAL_BLOCK, _all_of, _order_planes, _trial_planes, check_order
from .errors import BudgetExceeded
from .hypergraph import Hypergraph, enumerate_simple_pairs


class SeparationStats(namedtuple("SeparationStats", "trials mean_separated success_rate histogram")):
    """Per-trial separated-pair counts aggregated over random orderings; mean and rate are exact Fractions."""

    __slots__ = ()


def _pair_slots(H: Hypergraph) -> list[tuple[int, int]]:
    """Incidence slots of (X, y) and (Y, y) per ordered simple pair (X, Y) with meet y.

    Slot e * n + k stands for edge e and its k-th vertex.
    """
    n, edges = H.n, H.edges
    return [
        (sp.first * n + edges[sp.first].index(sp.meet), sp.second * n + edges[sp.second].index(sp.meet))
        for sp in enumerate_simple_pairs(H)
    ]


def _separated_histogram(
    H: Hypergraph, slots: list[tuple[int, int]], before: list[dict[int, int]], ones: int, T: int
) -> Counter[int]:
    """How many of the T lanes of `before` separate exactly k of the pairs, as {k: lanes}.

    A pair (X, Y) with meet y is separated in a lane iff every vertex of
    X\\y comes before y there and y before every vertex of Y\\y.  The pair
    bits add up in byte lanes, which flush into 32-bit lanes every 255
    pairs, before a byte can overflow.
    """
    ahead, behind = [], []
    for e in H.edges:
        for y in e:
            ahead.append(_all_of([before[u][y] for u in e if u != y], ones))
            behind.append(_all_of([before[y][w] for w in e if w != y], ones))
    total = 0
    for lo in range(0, len(slots), 255):
        acc = 0
        for a, b in slots[lo : lo + 255]:
            acc += ahead[a] & behind[b]
        wide = bytearray(4 * T)
        wide[::4] = acc.to_bytes(T, "little")
        total += int.from_bytes(wide, "little")
    return Counter(memoryview(total.to_bytes(4 * T, sys.byteorder)).cast("I"))


def count_separated(H: Hypergraph, order) -> int:
    """Number of ordered simple pairs of H separated by the visit order."""
    before = _order_planes(H, check_order(order, H.p))
    (count,) = _separated_histogram(H, _pair_slots(H), before, 1, 1)
    return count


def ordering_histogram(H: Hypergraph, max_vertices: int = 8) -> dict[int, int]:
    """How many of the p! orderings separate exactly k simple pairs, as {k: orderings}.

    Layer j holds, for every j-set S of vertices, the histogram over the
    j! orders of S of the pairs they separate so far.  Placing y next adds
    the pairs with meet y whose X\\y lies inside S and whose Y\\y misses S.
    """
    if H.p > max_vertices:
        raise BudgetExceeded(f"p = {H.p} exceeds full-enumeration budget {max_vertices}")
    by_meet: list[list[tuple[int, int]]] = [[] for _ in range(H.p)]
    for sp in enumerate_simple_pairs(H):
        bit = 1 << sp.meet
        by_meet[sp.meet].append((H.masks[sp.first] ^ bit, H.masks[sp.second] ^ bit))
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


def exhaustive_separation_mean(H: Hypergraph) -> Fraction:
    """Exact mean of count_separated over all p! orderings, as a reduced rational (p <= 8)."""
    hist = ordering_histogram(H)
    return Fraction(sum(c * k for c, k in hist.items()), math.factorial(H.p))


def monte_carlo_separation(H: Hypergraph, trials: int, seed: int = 0) -> SeparationStats:
    """Sample uniform orderings and record separated-pair counts per trial.

    Trial t sorts SplitMix64 outputs t*p..t*p+p-1 of seed (0 <= seed <
    2^64); identical arguments reproduce identical statistics.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    slots = _pair_slots(H)
    hist: Counter[int] = Counter()
    for start in range(0, trials, TRIAL_BLOCK):
        stop = min(start + TRIAL_BLOCK, trials)
        before, ones = _trial_planes(H, seed, start, stop)
        hist += _separated_histogram(H, slots, before, ones, stop - start)
    return SeparationStats(
        trials=trials,
        mean_separated=Fraction(sum(c * k for c, k in hist.items()), trials),
        success_rate=Fraction(hist.get(0, 0), trials),
        histogram=dict(sorted(hist.items())),
    )
