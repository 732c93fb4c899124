"""The three benchmark workloads: seeded inputs, CLI command lists, output oracles.

A workload is a list of ops; one op is one `propb` CLI invocation plus a
check of its output.  A check appends one message per failed expectation
to a list and never raises: the runner counts an op with any message as
failed and moves on.  The oracles are derived here, independently of the
program (closed forms, generating functions, brute-force counts over the
generated edge lists); the one pinned constant says so where it is set.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable

DEFAULT_SEED = 0

# Program seed for sampled-n3.  The cost of one `verify --n 3` run depends on
# how many of its 200 samples are non-colorable at p = 7 (p! relabellings
# each), which moves the pass time by about 20% (IQR/median) from one seed
# to the next.  The timed passes therefore always sample the same stream.
SAMPLED_PROGRAM_SEED = 0

# Trial counts sized so that the decider, separation and greedy each take a
# comparable share of an `instances` pass.
MC_TRIALS = 20_000
COLOR_TRIALS = 15_000
ENUM_P = 8
ENUM_M2_WINDOW = (296, 304)
# Planted instances: (n, covered vertices, random edges besides the clique).
PLANTED = ((3, 24, 40), (3, 23, 40), (4, 24, 40), (4, 23, 40))


@dataclass
class Op:
    """One CLI invocation: its arguments and the check of its stdout."""

    name: str
    args: list[str]
    check: Callable[[str, dict[str, str], list[str]], None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict[str, str] = field(default_factory=dict)  # file name -> sha256
    parallel_pair: tuple[str, str] | None = None  # (1-worker op, N-worker op)


def expect(fails: list[str], label: str, got, want) -> None:
    if got != want:
        fails.append(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def labeled_bipartite_counts(pmax: int) -> list[int]:
    """Labeled bipartite graphs on 0..pmax vertices (OEIS A047864).

    Two-coloured labeled graphs have EGF T(x) = sum_n sum_k C(n,k) 2^(k(n-k)) x^n/n!,
    and each bipartite graph with c components has 2^c two-colourings, so
    the bipartite EGF B satisfies B(x)^2 = T(x).
    """
    t = [
        Fraction(sum(math.comb(n, k) * 2 ** (k * (n - k)) for k in range(n + 1)), math.factorial(n))
        for n in range(pmax + 1)
    ]
    b = [Fraction(1)] + [Fraction(0)] * pmax
    for n in range(1, pmax + 1):
        b[n] = (t[n] - sum(b[i] * b[n - i] for i in range(1, n))) / 2
    return [int(b[n] * math.factorial(n)) for n in range(pmax + 1)]


def matchings(k: int) -> int:
    """Matchings (any size) on k labeled vertices: the telephone numbers."""
    a, b = 1, 1
    for i in range(1, k):
        a, b = b, b + i * a
    return b if k else 1


def census_expected(max_p: int) -> dict:
    """Exact n = 2 census over all labeled graphs on 1..max_p vertices.

    A non-bipartite graph has m2 = 6 exactly when it is a triangle plus a
    matching on the other vertices; its isomorphism class is fixed by the
    matching size.
    """
    bip = labeled_bipartite_counts(max_p)
    ps = range(1, max_p + 1)
    return {
        "graphs": sum(2 ** math.comb(p, 2) for p in ps),
        "non_colorable": sum(2 ** math.comb(p, 2) - bip[p] for p in ps),
        "equality_labeled": sum(math.comb(p, 3) * matchings(p - 3) for p in ps if p >= 3),
        "equality_classes": sum((p - 3) // 2 + 1 for p in ps if p >= 3),
        "counterexamples": 0,
        # Pinned from the program at the commit that added this benchmark;
        # the only census figure without an independent derivation here.
        "seymour_violations": 7527,
    }


def brute_m2(edges: list[tuple[int, ...]]) -> int:
    sets = [frozenset(e) for e in edges]
    return sum(1 for a in sets for b in sets if a is not b and len(a & b) == 1)


def bound(n: int) -> int:
    return n * math.comb(2 * n - 1, n)


def separation_mean(m2_val: int, n: int) -> Fraction:
    return Fraction(m2_val * math.factorial(n - 1) ** 2, math.factorial(2 * n - 1))


def rational(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def render(n: int, p: int, edges) -> str:
    edges = sorted(tuple(sorted(e)) for e in edges)
    return f"{n} {p} {len(edges)}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)


def clique_edges(vertices, n: int) -> list[tuple[int, ...]]:
    return [tuple(c) for c in combinations(sorted(vertices), n)]


def planted(rng: random.Random, n: int, c: int, extra: int) -> list[tuple[int, ...]]:
    """K_{2n-1}^(n) on the highest ids of [0, c) plus `extra` random n-sets covering the rest."""
    k = 2 * n - 1
    clique = set(clique_edges(range(c - k, c), n))
    free = list(range(c - k))
    rng.shuffle(free)
    edges: set[tuple[int, ...]] = set()
    for i in range(0, len(free), n):
        part = free[i:i + n]
        while len(part) < n:
            v = rng.randrange(c)
            if v not in part:
                part.append(v)
        edges.add(tuple(sorted(part)))
    while len(edges) < extra:
        e = tuple(sorted(rng.sample(range(c), n)))
        if e not in clique:
            edges.add(e)
    return sorted(edges | clique)


def padded_clique(rng: random.Random, n: int) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """K_{2n-1}^(n) plus one disjoint edge on n fresh vertices, randomly relabelled."""
    k = 2 * n - 1
    p = k + n
    perm = list(range(p))
    rng.shuffle(perm)
    edges = clique_edges(range(k), n) + [tuple(range(k, p))]
    return p, [tuple(perm[v] for v in e) for e in edges], sorted(perm[v] for v in range(k))


def dense_random(rng: random.Random, n: int, p: int, window: tuple[int, int]) -> list[tuple[int, ...]]:
    """A random n-graph on p vertices whose m2 lies in `window` (rejection sampling)."""
    pool = list(combinations(range(p), n))
    lo, hi = window
    while True:
        # m2 of a random m-edge 3-graph on 8 vertices is about 0.55 m(m-1)
        edges = rng.sample(pool, rng.randint(22, 26))
        if lo <= brute_m2(edges) <= hi:
            return sorted(edges)


def write_input(workdir: str, name: str, text: str, inputs: dict[str, str]) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    inputs[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return path


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _doc(out: str) -> dict:
    return json.loads(out)


def check_census(expected: dict, twin: str | None = None):
    def check(out: str, earlier: dict[str, str], fails: list[str]) -> None:
        s = _doc(out)["search"]["summary"]
        for key, want in expected.items():
            expect(fails, f"summary.{key}", s.get(key), want)
        for rec in _doc(out)["search"]["records"]:
            expect(fails, "record m2", rec["m2"], 6)
            expect(fails, "record has_clique", rec["has_clique"], True)
        if twin is not None:
            expect(fails, f"document identical to {twin}", out == earlier.get(twin), True)

    return check


def check_sampled(program_seed: int):
    def check(out: str, earlier: dict[str, str], fails: list[str]) -> None:
        search = _doc(out)["search"]
        s, recs = search["summary"], search["records"]
        b = bound(3)
        expect(fails, "summary.counterexamples", s["counterexamples"], 0)
        expect(fails, "summary.undetermined", s["undetermined"], 0)
        expect(fails, "summary.samples", s["samples"], 200)
        expect(fails, "records == non_colorable", len(recs), s["non_colorable"])
        expect(fails, "equality_cases", s["equality_cases"], sum(r["meets_bound"] for r in recs))
        for r in recs:
            expect(fails, "record m2 >= bound", r["m2"] >= b, True)
            expect(fails, "meets_bound == (m2 == bound)", r["meets_bound"], r["m2"] == b)
            if r["meets_bound"]:
                expect(fails, "equality implies clique", r["has_clique"], True)
            expect(fails, "record p in [5, 8]", 5 <= r["p"] <= 8, True)
        if program_seed == DEFAULT_SEED:
            expect(fails, "seed-0 non_colorable", s["non_colorable"], 134)
            expect(fails, "seed-0 equality_cases", s["equality_cases"], 8)

    return check


def check_analyze_no(edges, p: int):
    want_m2 = brute_m2(edges)

    def check(out: str, earlier: dict[str, str], fails: list[str]) -> None:
        a = _doc(out)["analysis"]
        expect(fails, "colorable", a["colorable"], "no")
        expect(fails, "m2 (brute count)", a["m2"], want_m2)
        expect(fails, "p", _doc(out)["input"]["p"], p)

    return check


def check_analyze_extremal(n: int, clique: list[int]):
    def check(out: str, earlier: dict[str, str], fails: list[str]) -> None:
        doc = _doc(out)
        a, bol = doc["analysis"], doc["bollobas"]
        expect(fails, "colorable", a["colorable"], "no")
        expect(fails, "m2", a["m2"], bound(n))
        expect(fails, "meets_bound_exactly", a["meets_bound_exactly"], True)
        expect(fails, "clique_witness", a["clique_witness"], clique)
        expect(fails, "bollobas.sum", (bol or {}).get("sum"), rational(Fraction(1)))
        expect(fails, "bollobas.ground_U", (bol or {}).get("ground_U"), clique)

    return check


def check_enum(n: int, m2_val: int, p: int):
    def check(out: str, earlier: dict[str, str], fails: list[str]) -> None:
        sep = _doc(out)["separation"]
        expect(fails, "mean_separated", sep["mean_separated"], rational(separation_mean(m2_val, n)))
        expect(fails, "orderings", sep["orderings"], math.factorial(p))

    return check


def check_mc(trials: int):
    def check(out: str, earlier: dict[str, str], fails: list[str]) -> None:
        sep = _doc(out)["separation"]
        expect(fails, "histogram", sep["histogram"], [[1, trials]])
        expect(fails, "trials", sep["trials"], trials)

    return check


def check_color_exhausted(trials: int, seed: int):
    want = f"exhausted: no proper coloring in {trials} trials (seed {seed})"

    def check(out: str, earlier: dict[str, str], fails: list[str]) -> None:
        expect(fails, "color verdict", out.strip(), want)

    return check


def check_fixtures(n: int):
    def check(out: str, earlier: dict[str, str], fails: list[str]) -> None:
        rep = _doc(out)["search"]["report"]
        expect(fails, "fixtures ok", rep["ok"], True)
        expect(fails, "fixtures n", rep["n"], n)
        extremal = [f for f in rep["fixtures"] if f["name"] in ("complete", "padded")]
        for f in extremal:
            expect(fails, f"{f['name']} bollobas_sum", f["bollobas_sum"], rational(Fraction(1)))
            expect(fails, f"{f['name']} clique", f["clique"], list(range(2 * n - 1)))

    return check


# ---------------------------------------------------------------------------
# workload builders
# ---------------------------------------------------------------------------


def census_n2(seed: int, workdir: str, nproc: int) -> Workload:
    """All 2,131,019 labeled graphs on <= 7 vertices, at 1 worker and at nproc workers.

    The only workload that runs the vectorized labeled-graph scan, the BFS
    fallback and the process-pool fan-out; it never calls the decider,
    separation or canonical_form.  The input is exhaustive, so the seed
    changes nothing.
    """
    base = ["verify", "--n", "2", "--max-p", "7", "--json", "--deterministic"]
    want = census_expected(7)
    serial = "verify-n2-threads1"
    parallel = f"verify-n2-threads{nproc}"
    return Workload(
        name="census-n2",
        ops=[
            Op(serial, base + ["--threads", "1"], check_census(want)),
            Op(parallel, base + ["--threads", str(nproc)], check_census(want, twin=serial)),
        ],
        parallel_pair=(serial, parallel),
    )


def sampled_n3(seed: int, workdir: str, nproc: int) -> Workload:
    """200 random dense 3-graphs on 5-8 vertices; nearly all time in canonical_form."""
    args = ["verify", "--n", "3", "--seed", str(SAMPLED_PROGRAM_SEED), "--json", "--deterministic"]
    return Workload(
        name="sampled-n3",
        ops=[Op("verify-n3-sampled", args, check_sampled(SAMPLED_PROGRAM_SEED))],
    )


def instances(seed: int, workdir: str, nproc: int) -> Workload:
    """The per-instance chain on inputs generated from the seed."""
    rng = random.Random(f"propb-bench:instances:{seed}")
    inputs: dict[str, str] = {}
    ops: list[Op] = []
    for n, c, extra in PLANTED:
        edges = planted(rng, n, c, extra)
        name = f"planted-k{2 * n - 1}-{n}-c{c}.hg"
        path = write_input(workdir, name, render(n, c, edges), inputs)
        ops.append(Op(f"analyze {name}", ["analyze", path, "--json", "--deterministic"],
                      check_analyze_no(edges, c)))
    padded_paths = {}
    for n in (3, 4):
        p, edges, clique = padded_clique(rng, n)
        name = f"padded-k{2 * n - 1}-{n}.hg"
        padded_paths[n] = path = write_input(workdir, name, render(n, p, edges), inputs)
        ops.append(Op(f"analyze {name}", ["analyze", path, "--json", "--deterministic"],
                      check_analyze_extremal(n, clique)))
    edges = dense_random(rng, 3, ENUM_P, ENUM_M2_WINDOW)
    path = write_input(workdir, "dense-n3-p8.hg", render(3, ENUM_P, edges), inputs)
    ops.append(Op("enum dense-n3-p8.hg", ["enum", path, "--json", "--deterministic"],
                  check_enum(3, brute_m2(edges), ENUM_P)))
    ops.append(Op("mc padded-k7-4.hg",
                  ["mc", padded_paths[4], "--trials", str(MC_TRIALS), "--seed", str(seed),
                   "--json", "--deterministic"],
                  check_mc(MC_TRIALS)))
    path = write_input(workdir, "k7-4.hg", render(4, 7, clique_edges(range(7), 4)), inputs)
    ops.append(Op("color k7-4.hg", ["color", path, "--trials", str(COLOR_TRIALS), "--seed", str(seed)],
                  check_color_exhausted(COLOR_TRIALS, seed)))
    for n in (3, 4):
        ops.append(Op(f"verify-fixtures-n{n}",
                      ["verify", "--n", str(n), "--fixtures", "--seed", str(seed), "--json", "--deterministic"],
                      check_fixtures(n)))
    return Workload(name="instances", ops=ops, inputs=inputs)


WORKLOADS = {"census-n2": census_n2, "sampled-n3": sampled_n3, "instances": instances}
