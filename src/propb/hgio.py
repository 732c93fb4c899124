"""Line-based hypergraph text format.

Header line "n p m" (uniformity, vertex count, edge count), then m lines
of n whitespace-separated 0-based vertex ids.  Lines starting with '#'
and blank lines are ignored.  An integer is ASCII decimal digits with
an optional leading '-'.  render(parse(...)) is canonical and
parse(render(H)) == H for every valid H.

parse checks outside input and names the line of each defect; the
Hypergraph it builds checks the sorted edges as it checks any edge list.
"""

from __future__ import annotations

import io

from .errors import ParseError
from .hypergraph import Hypergraph


def _int(token: str) -> int:
    """The integer of an ASCII decimal token, else ValueError; int() alone also takes '+', '_' and non-ASCII digits."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(token)
    return int(token)


def parse(text: str) -> Hypergraph:
    """Parse the text format, reporting 1-based line numbers on any defect; only \\n, \\r\\n and \\r end a line."""
    header = None
    seen: dict[tuple[int, ...], int] = {}
    last_line = 0
    # a text-mode read's lines: str.splitlines also breaks at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 3:
                raise ParseError(lineno, f"header must be 'n p m', got {len(tokens)} fields")
            try:
                n, p, m = (_int(t) for t in tokens)
            except ValueError:
                raise ParseError(lineno, f"header must be three integers, got {line!r}") from None
            if n < 1 or p < 0 or m < 0:
                raise ParseError(lineno, f"header values out of range: n={n} p={p} m={m}")
            header = (n, p, m)
            continue
        n, p, m = header
        if len(seen) == m:
            raise ParseError(lineno, f"more than the {m} edges announced in the header")
        try:
            ids = tuple(_int(t) for t in tokens)
        except ValueError:
            raise ParseError(lineno, f"edge must be integers, got {line!r}") from None
        if len(ids) != n:
            raise ParseError(lineno, f"edge has {len(ids)} vertices, expected {n}")
        if len(set(ids)) != n:
            raise ParseError(lineno, f"edge {ids} repeats a vertex")
        if min(ids) < 0 or max(ids) >= p:
            raise ParseError(lineno, f"edge {ids} leaves vertex range [0, {p})")
        key = tuple(sorted(ids))
        if key in seen:
            raise ParseError(lineno, f"duplicate edge {ids} (first on line {seen[key]})")
        seen[key] = lineno
    if header is None:
        raise ParseError(1, "empty input: missing 'n p m' header")
    n, p, m = header
    if len(seen) != m:
        raise ParseError(last_line, f"header announced {m} edges, found {len(seen)}")
    return Hypergraph(n, p, tuple(sorted(seen)))


def render(H: Hypergraph) -> str:
    """Serialize in canonical order; inverse of parse up to normalization."""
    lines = [f"{H.n} {H.p} {len(H.edges)}"]
    lines.extend(" ".join(map(str, e)) for e in H.edges)
    return "\n".join(lines) + "\n"
