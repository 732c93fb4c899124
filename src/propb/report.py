"""Analysis driver and schema-stable JSON report documents.

Every document carries the same top-level keys with null where a section
does not apply.  Exact rationals stay Fractions in the document and are
converted only when rendered: :func:`to_json` emits them as {"num", "den"}
objects.  Only Monte Carlo sections contain floats, and those are flagged
with "estimate": true.
"""

from __future__ import annotations

import json

from . import __version__
from .coloring import Colorability, exhaustive_decide
from .hypergraph import Hypergraph, bound, m2, seymour_check
from .setpairs import evaluate_family, find_clique

TOOL_NAME = "propb"


def analyze(H: Hypergraph) -> tuple[dict, dict | None]:
    """The report's analysis section, and its bollobas section (extremal inputs only, else None)."""
    m2_val = m2(H)
    b = bound(H.n)
    verdict, _ = exhaustive_decide(H)
    clique = None
    bollobas = None
    if m2_val == b and verdict is Colorability.NO:
        bollobas = evaluate_family(H)
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


def sha256_text(text: str) -> str:
    """Hex SHA-256 of the UTF-8 text, from the interpreter's builtin module; hashlib loads OpenSSL, so it is the fallback."""
    # loaded here: only commands that read an input hash it
    try:
        from _sha256 import sha256  # CPython up to 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # CPython 3.12 on
        except ImportError:
            from hashlib import sha256

    return sha256(text.encode("utf-8")).hexdigest()


def input_section(path: str | None, text: str, H: Hypergraph) -> dict:
    return {
        "path": path,
        "sha256": sha256_text(text),
        "n": H.n,
        "p": H.p,
        "edge_count": len(H.edges),
    }


def _timestamp(deterministic: bool) -> str | None:
    """The current UTC time in ISO 8601, or None for a deterministic document."""
    if deterministic:
        return None
    import datetime  # loaded here: a deterministic run never reads the clock

    return datetime.datetime.now(datetime.timezone.utc).isoformat()


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
        "timestamp": _timestamp(deterministic),
        "input": input_info,
        "analysis": analysis,
        "bollobas": bollobas,
        "separation": separation,
        "search": search,
    }


def _encode(value) -> dict:
    from fractions import Fraction  # loaded here: json calls this only for a value it cannot write itself

    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=_encode) + "\n"
