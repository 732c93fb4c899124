"""Per-layer metrics from the spans of traced passes and from `-X importtime`.

A layer is a propb module.  A span's self time is its duration minus the
durations of its child spans; a layer's self time is the sum over the
spans of functions it defines.  Counts marked "computed" below are
derived from sizes (orderings x pairs, edge pairs), not counted in the
program.  Every time is a median over the traced passes of one run.
"""

from __future__ import annotations

import statistics

MODULES = ("hypergraph", "coloring", "separation", "setpairs", "search", "hgio", "report", "cli")

PER_LAYER = (
    *((f"{m}.self_s", "s") for m in MODULES),
    *((f"{m}.calls", "count") for m in MODULES),
    ("search.graphs", "count"),
    ("search.graphs_per_s", "1/s"),
    ("search.parallel_speedup", "ratio"),
    ("search.canonical_calls", "count"),
    ("search.canonical_s", "s"),
    ("search.samples", "count"),
    ("search.samples_undetermined", "count"),
    ("coloring.decide_calls", "count"),
    ("coloring.decide_s", "s"),
    ("coloring.decide_no", "count"),
    ("coloring.decide_space", "count"),  # computed: sum of 2^(c-1) over "no" verdicts
    ("coloring.greedy_calls", "count"),
    ("coloring.greedy_s", "s"),
    ("coloring.greedy_proper_frac", "ratio"),
    ("separation.orderings_enumerated", "count"),  # computed: sum of p!
    ("separation.mc_trials", "count"),
    ("separation.enum_s", "s"),
    ("separation.mc_s", "s"),
    ("separation.pair_checks", "count"),  # computed: (orderings + trials) x pairs
    ("separation.pair_checks_per_s", "1/s"),
    ("setpairs.find_clique_calls", "count"),
    ("setpairs.find_clique_s", "s"),
    ("setpairs.family_members", "count"),
    ("setpairs.evaluate_s", "s"),
    ("hypergraph.m2_calls", "count"),
    ("hypergraph.simple_pairs", "count"),
    ("hypergraph.edge_pair_tests", "count"),  # computed: edge pairs examined by m2 and enumeration
    ("hgio.parse_s", "s"),
    ("hgio.bytes_parsed", "count"),
    ("report.to_json_s", "s"),
    ("cli.invocations", "count"),
    ("setup.import_s", "s"),
    ("setup.import_numpy_s", "s"),
    ("setup.import_propb_self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)

ENUM_FUNCS = ("exhaustive_separation_mean", "orderings_separating_multiple")


def pass_counters(invocations: list[dict]) -> dict[str, float]:
    """Sum one traced pass's spans into the per-layer counters."""
    c: dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    graph_scan_s = 0.0
    for inv in invocations:
        names, spans = inv["names"], inv["spans"]
        child = [0.0] * len(spans)
        for ni, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        c["trace.spans"] += len(spans)
        for i, (ni, start, end, parent, extra) in enumerate(spans):
            _, module, func = names[ni].split(".", 2)
            dur = end - start
            if module in MODULES:
                c[f"{module}.self_s"] += dur - child[i]
                c[f"{module}.calls"] += 1
            extra = extra or {}
            if func == "canonical_form":
                c["search.canonical_calls"] += 1
                c["search.canonical_s"] += dur
            elif func == "verify_bound_exhaustive":
                if "graphs" in extra:
                    c["search.graphs"] += extra["graphs"]
                    graph_scan_s += dur
                c["search.samples"] += extra.get("samples", 0)
                c["search.samples_undetermined"] += extra.get("undetermined", 0)
            elif func == "exhaustive_decide":
                c["coloring.decide_calls"] += 1
                c["coloring.decide_s"] += dur
                if extra.get("no"):
                    c["coloring.decide_no"] += 1
                    c["coloring.decide_space"] += 2 ** (extra["c"] - 1)
            elif func == "greedy_color":
                c["coloring.greedy_calls"] += 1
                c["coloring.greedy_s"] += dur
                c["coloring.greedy_proper_frac"] += bool(extra.get("proper"))
            elif func in ENUM_FUNCS:
                c["separation.orderings_enumerated"] += extra.get("orderings", 0)
                c["separation.enum_s"] += dur
                c["separation.pair_checks"] += extra.get("orderings", 0) * extra.get("pairs", 0)
            elif func == "monte_carlo_separation":
                c["separation.mc_trials"] += extra.get("trials", 0)
                c["separation.mc_s"] += dur
                c["separation.pair_checks"] += extra.get("trials", 0) * extra.get("pairs", 0)
            elif func == "find_clique":
                c["setpairs.find_clique_calls"] += 1
                c["setpairs.find_clique_s"] += dur
            elif func == "bollobas_family":
                c["setpairs.family_members"] += extra.get("members", 0)
            elif func == "evaluate_family":
                c["setpairs.evaluate_s"] += dur
            elif func in ("m2", "enumerate_simple_pairs"):
                c["hypergraph.m2_calls"] += func == "m2"
                c["hypergraph.simple_pairs"] += extra.get("pairs", 0)
                c["hypergraph.edge_pair_tests"] += extra.get("tests", 0)
            elif func == "parse" and module == "hgio":
                c["hgio.parse_s"] += dur
                c["hgio.bytes_parsed"] += extra.get("bytes", 0)
            elif func == "to_json":
                c["report.to_json_s"] += dur
            elif func == "main" and module == "cli":
                c["cli.invocations"] += 1
    c["search.graphs_per_s"] = c["search.graphs"] / graph_scan_s if graph_scan_s else 0.0
    greedy = c["coloring.greedy_calls"]
    c["coloring.greedy_proper_frac"] = c["coloring.greedy_proper_frac"] / greedy if greedy else 0.0
    sep_s = c["separation.enum_s"] + c["separation.mc_s"]
    c["separation.pair_checks_per_s"] = c["separation.pair_checks"] / sep_s if sep_s else 0.0
    return c


def parse_importtime(op) -> dict[str, float]:
    """Total, numpy and propb-self import seconds from one `-X importtime` stderr."""
    total = numpy = propb_self = 0.0
    for line in op.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the column header
        raw = fields[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        if depth == 0:
            total += cum_us
        if name == "numpy" and not numpy:
            numpy = cum_us
        if name == "propb" or name.startswith("propb."):
            propb_self += self_us
    return {"import_s": total / 1e6, "import_numpy_s": numpy / 1e6, "import_propb_self_s": propb_self / 1e6}


def per_layer_metrics(wl, untraced: list[dict], traced: list[dict], importtimes: list[dict]) -> dict:
    units = dict(PER_LAYER)
    per_pass = [pass_counters(p["spans"]) for p in traced]
    out = {name: statistics.median(c[name] for c in per_pass) for name in units}
    if wl.parallel_pair is not None:
        serial, parallel = wl.parallel_pair
        walls = {op["name"]: [] for op in untraced[0]["ops"]}
        for p in untraced:
            for op in p["ops"]:
                walls[op["name"]].append(op["wall_s"])
        out["search.parallel_speedup"] = statistics.median(walls[serial]) / statistics.median(walls[parallel])
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in untraced) - 1
    )
    for key in ("import_s", "import_numpy_s", "import_propb_self_s"):
        out[f"setup.{key}"] = statistics.median(t[key] for t in importtimes)
    return {name: {"value": value, "unit": units[name]} for name, value in out.items()}

