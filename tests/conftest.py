import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from propb import (
    Color,
    Coloring,
    ColoringOutcome,
    Hypergraph,
    Ordering,
    SeparationStats,
    SimplePair,
    complete_hypergraph,
    fano_plane,
    normalize,
    random_hypergraph,
)


@pytest.fixture
def triangle() -> Hypergraph:
    return complete_hypergraph(2)


@pytest.fixture
def k35() -> Hypergraph:
    return complete_hypergraph(3)


@pytest.fixture
def k47() -> Hypergraph:
    return complete_hypergraph(4)


@pytest.fixture
def fano() -> Hypergraph:
    return fano_plane()


@pytest.fixture
def single_edge() -> Hypergraph:
    return normalize([[0, 1]], n=2, p=2)


@pytest.fixture
def disjoint_edges() -> Hypergraph:
    return normalize([[0, 1, 2], [3, 4, 5]], n=3, p=6)


def random_instances(count, seed, n_choices=(2, 3), p_max=12, m_max=None):
    """Seeded stream of (H, rng) pairs for property-style tests."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(list(n_choices))
        p = rng.randint(n, p_max)
        import math

        cap = math.comb(p, n)
        m = rng.randint(0, min(cap, m_max if m_max is not None else cap))
        out.append(random_hypergraph(n, p, m, seed=rng.getrandbits(32)))
    return out


# independent set-based oracles, deliberately not sharing code with the package


def brute_simple_pairs(H) -> list[tuple[int, int, int]]:
    """All ordered (i, j, meet) by literal set intersection."""
    out = []
    for i, X in enumerate(H.edges):
        for j, Y in enumerate(H.edges):
            if i == j:
                continue
            inter = set(X) & set(Y)
            if len(inter) == 1:
                out.append((i, j, inter.pop()))
    return out


def brute_separates(order, X, Y) -> bool:
    """Separation by positional comparison on a visit order."""
    pos = {v: k for k, v in enumerate(order)}
    inter = set(X) & set(Y)
    assert len(inter) == 1
    (y,) = inter
    left = [pos[u] for u in set(X) - {y}]
    right = [pos[v] for v in set(Y) - {y}]
    return all(u < pos[y] for u in left) and all(v > pos[y] for v in right)


# Scalar oracles for the batched ordering kernels: one ordering at a time,
# in plain Python, over the same per-trial PRNG stream ("seed:t").


def oracle_trial_order(p, seed, t) -> list[int]:
    seq = list(range(p))
    random.Random(f"{seed}:{t}").shuffle(seq)
    return seq


def oracle_greedy(H, pi) -> ColoringOutcome:
    """Greedy coloring by per-edge Blue/colored counters, vertex by vertex."""
    n = H.n
    vert_edges = [[] for _ in range(H.p)]
    for ei, e in enumerate(H.edges):
        for v in e:
            vert_edges[v].append(ei)
    blue_cnt = [0] * len(H.edges)
    colored_cnt = [0] * len(H.edges)
    colors = [Color.BLUE] * H.p
    for v in pi.vertex_sequence():
        forced = any(blue_cnt[ei] == n - 1 and colored_cnt[ei] == n - 1 for ei in vert_edges[v])
        c = Color.RED if forced else Color.BLUE
        colors[v] = c
        for ei in vert_edges[v]:
            colored_cnt[ei] += 1
            blue_cnt[ei] += c is Color.BLUE
    violating = next((ei for ei in range(len(H.edges)) if blue_cnt[ei] in (0, n)), None)
    witness = None
    if violating is not None and n >= 2:
        y = min(H.edges[violating], key=pi.rank)
        for ei in vert_edges[y]:
            others = [u for u in H.edges[ei] if u != y]
            if all(colors[u] is Color.BLUE and pi.rank(u) < pi.rank(y) for u in others):
                witness = SimplePair(first=ei, second=violating, meet=y)
                break
    coloring = Coloring(colors=tuple(colors), proper=violating is None, violating_edge=violating)
    return ColoringOutcome(coloring=coloring, separated_witness=witness)


def oracle_restart(H, max_trials, seed):
    """(trial index, ordering, coloring) of the first proper greedy trial, or None."""
    for t in range(max_trials):
        pi = Ordering.from_vertex_sequence(oracle_trial_order(H.p, seed, t))
        out = oracle_greedy(H, pi)
        if out.coloring.proper:
            return t, pi, out.coloring
    return None


def oracle_counter(H):
    """Separated simple pairs of a visit order, by positions; the pairs are found once."""
    pairs = [(H.edges[i], H.edges[j], y) for i, j, y in brute_simple_pairs(H)]

    def count(seq) -> int:
        pos = {v: k for k, v in enumerate(seq)}
        return sum(
            all(pos[u] < pos[y] for u in X if u != y) and all(pos[v] > pos[y] for v in Y if v != y)
            for X, Y, y in pairs
        )

    return count


def oracle_monte_carlo(H, trials, seed) -> SeparationStats:
    count = oracle_counter(H)
    hist = Counter(count(oracle_trial_order(H.p, seed, t)) for t in range(trials))
    return SeparationStats(
        trials=trials,
        mean_separated=Fraction(sum(c * k for c, k in hist.items()), trials),
        success_rate=Fraction(hist.get(0, 0), trials),
        histogram=dict(sorted(hist.items())),
    )


def brute_ordering_histogram(H) -> dict[int, int]:
    """{separated count: orderings} over all p! visit orders."""
    count = oracle_counter(H)
    hist = Counter(count(perm) for perm in itertools.permutations(range(H.p)))
    return dict(sorted(hist.items()))
