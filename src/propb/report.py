"""Analysis driver and schema-stable JSON report documents.

Every document carries the same top-level keys with null where a section
does not apply.  Exact rationals stay Fractions in the document and are
converted only when rendered: :func:`to_json` emits them as {"num", "den"}
objects.  Every quantity in a document is an int or a Fraction; mc
reports the exact histogram of its trials.

:func:`to_json` is the one JSON writer, of the documents and of the
verify --out stream lines.  For the types a document holds (dicts with
str keys, lists, tuples, str, int, bool, None and Fraction) it writes
what json.dumps(value, sort_keys=True) writes, indented or on one line,
without loading json, whose import compiles the decoder's regexes; any
other value or key is a TypeError.  The decider and the set-pair code
load only when :func:`analyze` runs.
"""

from __future__ import annotations

from . import __version__
from .hypergraph import Hypergraph, bound, m2, seymour_check

try:
    from _json import encode_basestring_ascii as _string  # the C helper json.encoder itself uses
except ImportError:
    from json.encoder import py_encode_basestring_ascii as _string

TOOL_NAME = "propb"


def analyze(H: Hypergraph) -> tuple[dict, dict | None]:
    """The report's analysis section, and its bollobas section (extremal inputs only, else None)."""
    from .coloring import Colorability, exhaustive_decide  # loaded here: documents are written without the decider

    m2_val = m2(H)
    b = bound(H.n)
    verdict, _ = exhaustive_decide(H)
    clique = None
    bollobas = None
    if m2_val == b and verdict is Colorability.NO:
        from .setpairs import evaluate_family, find_clique  # loaded here: only an input at the bound has a family

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


def _text(value, nl: str | None) -> str:
    """JSON text of value: nl is the line break and indent of its level, or None for one line."""
    if isinstance(value, str):
        return _string(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (dict, list, tuple)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = nl and nl + "  "
        if isinstance(value, dict):
            pairs = sorted(value.items())
            for k, _ in pairs:
                if not isinstance(k, str):
                    # a key json.dumps refuses too gets json.dumps's own message
                    kinds = "str" if k is None or isinstance(k, (int, float)) else "str, int, float, bool or None"
                    raise TypeError(f"keys must be {kinds}, not {type(k).__name__}")
            ends, items = "{}", [f"{_string(k)}: {_text(v, inner)}" for k, v in pairs]
        else:
            ends, items = "[]", [_text(v, inner) for v in value]
        if nl is None:
            return ends[0] + ", ".join(items) + ends[1]
        return ends[0] + inner + ("," + inner).join(items) + nl + ends[1]
    from fractions import Fraction  # loaded here: only a document holding a rational gets this far

    if isinstance(value, Fraction):
        return _text({"num": value.numerator, "den": value.denominator}, nl)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def to_json(value, *, one_line: bool = False) -> str:
    """json.dumps(value, sort_keys=True) plus a newline, indented by 2 unless one_line; a Fraction is {"num", "den"}.

    Only the types a document holds are written: any other value or key is a TypeError.
    """
    return _text(value, None if one_line else "\n") + "\n"
