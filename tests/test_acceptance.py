"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criterion 8 is expected to fail and is marked xfail(strict): the check
|E| >= |covered V| for every non-2-colorable instance is not a theorem
without edge-minimality.  The padded complete 2-graph (a triangle plus a
disjoint edge), which criterion 5 itself prescribes, is non-2-colorable
with 4 edges on 5 covered vertices, and the criterion-7 enumeration hits
the same shape from p = 5 on.  Removing the disjoint edge restores the
inequality (3 edges, 3 vertices), which is exactly the minimality proviso.
On edge-critical instances the inequality is Seymour's theorem (1974), and
that part is asserted green.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from propb.cli import main
from propb.coloring import Colorability, exhaustive_decide, greedy_color
from propb.hgio import parse, render
from propb.hypergraph import (
    bound,
    complete_hypergraph,
    fano_plane,
    m2,
    normalize,
    pad,
    random_hypergraph,
    seymour_check,
)
from propb.report import to_json
from propb.search import verify_bound_exhaustive
from propb.separation import count_separated, monte_carlo_section, monte_carlo_separation
from propb.setpairs import evaluate_family, find_clique

from conftest import (
    brute_ordering_histogram,
    brute_separates,
    colors_of,
    enumerate_separation_probability,
    random_ordering,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS  {desc}")


def _random_suite(count, seed, p_max, m_max):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice((2, 3))
        p = rng.randint(n, p_max)
        cap = math.comb(p, n)
        out.append(random_hypergraph(n, p, rng.randint(0, min(cap, m_max)), seed=rng.getrandbits(32)))
    return out


def test_criterion_1_clique_m2_closed_form():
    with criterion(1, "m2 of complete n-graphs equals n*C(2n-1,n) for n=2..6"):
        start = time.monotonic()
        expected = {2: 6, 3: 30, 4: 140, 5: 630, 6: 2772}
        for n, value in expected.items():
            K = complete_hypergraph(n)
            assert m2(K) == value == bound(n)
        assert time.monotonic() - start < 5.0


def test_criterion_2_separation_probability_exact():
    with criterion(2, "enumerated separation probability equals (n-1)!^2/(2n-1)! for n=2,3,4"):
        start = time.monotonic()
        expected = {2: Fraction(1, 6), 3: Fraction(1, 30), 4: Fraction(1, 140)}
        for n, value in expected.items():
            X = list(range(n))
            Y = list(range(n - 1, 2 * n - 1))
            enumerated = enumerate_separation_probability(X, Y)
            assert enumerated == value
            assert enumerated == Fraction(math.factorial(n - 1) ** 2, math.factorial(2 * n - 1))
        assert time.monotonic() - start < 10.0


def test_criterion_3_greedy_failure_witnesses():
    with criterion(3, "10,000 random (H, pi): no all-Blue edge; every failure separates a simple pair"):
        rng = random.Random(2024)
        improper = 0
        for H in _random_suite(10_000, seed=2024, p_max=12, m_max=24):
            pi = random_ordering(H.p, rng)
            out = greedy_color(H, pi)
            blue = {v for v, c in enumerate(colors_of(out.red, H.p)) if c == "Blue"}
            for e in H.edges:
                assert not set(e) <= blue, "all-Blue edge produced"
            if out.violating_edge is not None:
                improper += 1
                w = out.separated_witness
                X, Y = H.edges[w.first], H.edges[w.second]
                assert set(X) & set(Y) == {w.meet}
                assert brute_separates(pi, X, Y)
        assert improper > 100  # the sample genuinely exercises the failure path


def test_criterion_4_expectation_identity_exact():
    with criterion(4, "mean separated count over all p! orderings equals m2/bound for 50 random H"):
        rng = random.Random(7)
        instances = []
        while len(instances) < 50:
            n = rng.choice((2, 3))
            p = rng.randint(n, 7)
            cap = math.comb(p, n)
            instances.append(random_hypergraph(n, p, rng.randint(0, min(cap, 10)), seed=rng.getrandbits(32)))
        for H in instances:
            total = sum(c * k for c, k in brute_ordering_histogram(H).items())
            mean = Fraction(total, math.factorial(H.p))
            assert mean == Fraction(m2(H), bound(H.n))


def test_criterion_5_extremal_pipeline():
    with criterion(5, "extremal pipeline end-to-end on complete n-graphs and padded variants, n=2,3,4"):
        for n in (2, 3, 4):
            K = complete_hypergraph(n)
            for H in (K, pad(K, n, 1), pad(K, n + 2, 1)):
                verdict, _ = exhaustive_decide(H)
                assert verdict is Colorability.NO
                assert m2(H) == bound(n)
                v = evaluate_family(H)
                assert v["conditions_ok"] and not v["violations"]
                assert v["sum"] == Fraction(1)
                assert v["equality"] and v["ground_U"] is not None
                assert sorted(find_clique(H)) == v["ground_U"] == list(range(2 * n - 1))


def test_criterion_6_at_most_one_separated_pair():
    with criterion(6, "all 120 orderings of K^3_5 and all 6 of K^2_3 separate exactly one pair"):
        k35 = complete_hypergraph(3)
        counts = [count_separated(k35, p) for p in itertools.permutations(range(5))]
        assert len(counts) == 120 and set(counts) == {1}
        tri = complete_hypergraph(2)
        counts = [count_separated(tri, p) for p in itertools.permutations(range(3))]
        assert len(counts) == 6 and set(counts) == {1}


def test_criterion_7_graph_enumeration():
    with criterion(7, "every non-bipartite graph on <=6 vertices has m2>=6; m2=6 forces a triangle"):
        _, summary = verify_bound_exhaustive(6)
        assert summary["counterexamples"] == 0
        assert summary["graphs"] == sum(1 << math.comb(p, 2) for p in range(1, 7))


def test_criterion_7_extended_p7():
    with criterion(7, "extended budget: full enumeration of all 2^21 graphs on 7 vertices"):
        start = time.monotonic()
        _, summary = verify_bound_exhaustive(7, skip_p=range(1, 7))
        per_p = {s["p"]: s for s in summary["per_p"]}
        assert per_p[7]["graphs"] == 1 << 21
        assert summary["counterexamples"] == 0
        assert per_p[7]["min_m2_non_colorable"] == 6
        assert time.monotonic() - start < 600.0


def test_criterion_7_fano_strict_inequality():
    with criterion(7, "Fano plane: non-2-colorable with m2 = 42 > 30, inequality strict"):
        F = fano_plane()
        verdict, _ = exhaustive_decide(F)
        assert verdict is Colorability.NO
        assert m2(F) == 42 > bound(3)
        assert find_clique(F) is None


def _criterion_5_6_instances():
    out = []
    for n in (2, 3, 4):
        K = complete_hypergraph(n)
        out += [K, pad(K, n, 1), pad(K, n + 2, 1)]
    out.append(fano_plane())
    return out


def test_criterion_8_seymour_on_curated_noncolorable_fixtures():
    # the sub-claim that is actually true: the named extremal fixtures of
    # criteria 5-6 other than the n=2 padding, plus the Fano plane
    with criterion(8, "|E| >= |covered V| on the dense curated non-colorable fixtures"):
        for H in _criterion_5_6_instances():
            if H.n == 2 and len(H.edges) > 3:
                continue  # the n=2 padded variants are the known violators
            verdict, _ = exhaustive_decide(H)
            assert verdict is Colorability.NO
            assert seymour_check(H)


def _edge_critical(H):
    """Delete edges one at a time while H stays non-2-colorable.

    One pass suffices: an edge is kept when deleting it leaves a 2-colorable
    hypergraph, and later deletions only shrink that one.
    """
    edges = list(H.edges)
    i = 0
    while i < len(edges):
        rest = edges[:i] + edges[i + 1 :]
        if exhaustive_decide(normalize(rest, n=H.n, p=H.p))[0] is Colorability.NO:
            edges = rest
        else:
            i += 1
    return normalize(edges, n=H.n, p=H.p)


def _dense_draws(count, seed):
    """Seeded random n-graphs, n = 2-4, with at most 60 edges.

    For n = 4, p stops at 9: 60 random 4-sets on more vertices are almost
    never non-2-colorable.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((2, 3, 4))
        p = rng.randint(2 * n - 1, 16 if n < 4 else 9)
        m = rng.randint(1, min(math.comb(p, n), 60))
        yield random_hypergraph(n, p, m, seed=rng.getrandbits(32))


def test_criterion_8_seymour_on_edge_critical_instances():
    # Seymour (1974): an edge-minimal non-2-colorable hypergraph has at
    # least as many edges as covered vertices
    with criterion(8, "|E| >= |covered V| on edge-critical non-colorable instances"):
        critical = []
        for H in _dense_draws(300, seed=8):
            if exhaustive_decide(H)[0] is Colorability.NO:
                critical.append(_edge_critical(H))
        assert len(critical) >= 100
        assert {C.n for C in critical} == {2, 3, 4}
        for C in critical:
            for i in range(len(C.edges)):
                rest = normalize(C.edges[:i] + C.edges[i + 1 :], n=C.n, p=C.p)
                assert exhaustive_decide(rest)[0] is Colorability.YES
            assert seymour_check(C), C


@pytest.mark.xfail(
    strict=True,
    reason="criterion as stated is unattainable: |E| >= |covered V| needs edge-minimal "
    "instances. Padded K^2_3 (criterion 5) is a triangle plus a disjoint edge: "
    "non-2-colorable, 4 edges, 5 covered vertices; the criterion-7 enumeration "
    "contains the same graph from p = 5 on.",
)
def test_criterion_8_seymour_every_noncolorable_instance():
    with criterion(8, "|E| >= |covered V| on every non-colorable instance of criteria 5-7"):
        violations = []
        for H in _criterion_5_6_instances():
            verdict, _ = exhaustive_decide(H)
            assert verdict is Colorability.NO
            if not seymour_check(H):
                violations.append(f"fixture n={H.n} p={H.p} edges={len(H.edges)}")
        _, summary = verify_bound_exhaustive(6)
        if summary["seymour_violations"]:
            violations.append(f"{summary['seymour_violations']} enumerated graphs on <=6 vertices")
        assert not violations, f"Seymour-style check violated by: {violations}"


def test_criterion_9_monte_carlo_sanity():
    with criterion(9, "triangle, 100,000 seeded trials: mean within 3 sigma of 1.0; rerun byte-identical"):
        tri = complete_hypergraph(2)
        stats = monte_carlo_separation(tri, trials=100_000, seed=31337)
        counts = stats.histogram
        mean = Fraction(sum(k * f for k, f in counts.items()), stats.trials)
        variance = sum(f * (k - mean) ** 2 for k, f in counts.items()) / stats.trials
        sigma_of_mean = math.sqrt(variance / stats.trials)
        assert abs(mean - 1.0) <= 3 * sigma_of_mean + 1e-12
        # every ordering of the triangle separates exactly one pair, so in fact:
        assert counts == {1: 100_000}
        rerun = monte_carlo_separation(tri, trials=100_000, seed=31337)
        assert to_json(monte_carlo_section(rerun)) == to_json(monte_carlo_section(stats))


def test_criterion_10_cli_round_trip_and_determinism(tmp_path, capsys):
    with criterion(10, "500 random parse/render round trips; analyze --deterministic byte-identical"):
        rng = random.Random(99)
        for _ in range(500):
            n = rng.choice((2, 3, 4))
            p = rng.randint(n, 10)
            cap = math.comb(p, n)
            H = random_hypergraph(n, p, rng.randint(0, cap), seed=rng.getrandbits(32))
            assert parse(render(H)) == H
        path = tmp_path / "k35.hg"
        path.write_text(render(complete_hypergraph(3)))
        argv = ["analyze", str(path), "--json", "--deterministic"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["analysis"]["clique_witness"] == [0, 1, 2, 3, 4]
