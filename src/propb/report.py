"""Analysis driver and schema-stable JSON report documents.

Every document carries the same top-level keys with null where a section
does not apply.  Exact rationals are emitted as {"num", "den"} objects;
only Monte Carlo sections contain floats, and those are flagged with
"estimate": true.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
from fractions import Fraction

from . import __version__
from .coloring import TRIAL_STREAM, Colorability, exhaustive_decide
from .hypergraph import Hypergraph, bound, m2, seymour_check
from .separation import SeparationStats
from .setpairs import BollobasVerdict, bollobas_family, build_M, evaluate_family, find_clique

TOOL_NAME = "propb"


def analyze(H: Hypergraph, vertex_budget: int = 24) -> tuple[dict, BollobasVerdict | None]:
    """The report's analysis section, and the set-pair verdict (extremal inputs only, else None)."""
    m2_val = m2(H)
    b = bound(H.n)
    verdict, _ = exhaustive_decide(H, vertex_budget)
    clique = None
    bollobas = None
    if m2_val == b and verdict is Colorability.NO:
        bollobas = evaluate_family(bollobas_family(H, build_M(H)))
        found = find_clique(H)
        if found is not None:
            clique = sorted(found)
    return (
        {
            "m2": m2_val,
            "bound": b,
            "meets_bound_exactly": m2_val == b,
            "seymour_ok": seymour_check(H),
            "colorable": verdict.value,
            "clique_witness": clique,
        },
        bollobas,
    )


def rational(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def input_section(path: str | None, text: str, H: Hypergraph) -> dict:
    return {
        "path": path,
        "sha256": sha256_text(text),
        "n": H.n,
        "p": H.p,
        "edge_count": len(H.edges),
    }


def bollobas_section(v: BollobasVerdict | None) -> dict | None:
    if v is None:
        return None
    return {
        "conditions_ok": v.conditions_ok,
        "violations": [{"kind": kind, "indices": list(idx)} for kind, idx in v.violations],
        "sum": rational(v.sum),
        "equality": v.equality,
        "common_B": sorted(v.common_B) if v.common_B is not None else None,
        "ground_U": sorted(v.ground_U) if v.ground_U is not None else None,
    }


def monte_carlo_section(stats: SeparationStats) -> dict:
    return {
        "kind": "monte_carlo",
        "estimate": True,
        "rng": TRIAL_STREAM,
        "trials": stats.trials,
        "mean_separated": float(stats.mean_separated),
        "success_rate": float(stats.success_rate),
        "histogram": [[k, v] for k, v in sorted(stats.histogram.items())],
    }


def exhaustive_section(mean: Fraction, p: int) -> dict:
    return {
        "kind": "exhaustive",
        "estimate": False,
        "orderings": math.factorial(p),
        "mean_separated": rational(mean),
    }


def make_document(
    *,
    input_info: dict | None = None,
    analysis: dict | None = None,
    bollobas: dict | None = None,
    separation: dict | None = None,
    search: dict | None = None,
    deterministic: bool = False,
) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "timestamp": None
        if deterministic
        else datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "input": input_info,
        "analysis": analysis,
        "bollobas": bollobas,
        "separation": separation,
        "search": search,
    }


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
