"""Command-line interface: analyze, color, mc, enum, verify, gen.

Exit codes: 0 success, 2 malformed input (file or arguments) or a file
that cannot be read or written, 3 budget exceeded (enum on large p, or
analyze --strict left undetermined), 1 any other failure.  A failed
write to stdout is an exit-2 error like one to an --out file.  The
output of analyze, mc, enum and verify is the report document, as JSON
or as its human rendering; color prints lines of its own, and gen writes
a hypergraph file.  --deterministic suppresses the timestamp so
identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .coloring import Colorability, greedy_color, random_restart_color
from .errors import BudgetExceeded, FileAccessError, InvalidOrdering, ParseError, PropBError
from .hgio import parse, render
from .hypergraph import complete_hypergraph, fano_plane, pad, random_hypergraph
from .report import (
    analyze,
    exhaustive_section,
    input_section,
    make_document,
    monte_carlo_section,
    to_json,
)
from .search import FIXTURE_NS, verify_bound_exhaustive, verify_fixture_suite
from .separation import exhaustive_separation_mean, monte_carlo_separation


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileAccessError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise FileAccessError(f"cannot read {path}: not UTF-8 text") from None
    return text, parse(text)


def _human_lines(value, indent: int = 0):
    """Indented `key: value` lines; a leaf stays on its key's line, a Fraction reads num/den."""
    pad_ = "  " * indent
    if isinstance(value, (dict, list)) and value:
        pairs = [(f"{k}:", v) for k, v in value.items()] if isinstance(value, dict) else [("-", v) for v in value]
        for label, v in pairs:
            if isinstance(v, (dict, list)) and v:
                yield pad_ + label
                yield from _human_lines(v, indent + 1)
            else:
                yield f"{pad_}{label} {next(_human_lines(v))}"
    elif isinstance(value, Fraction):
        yield f"{pad_}{value.numerator}/{value.denominator}"
    elif value is None or isinstance(value, (dict, list)):
        yield pad_ + json.dumps(value)  # null, {} or []
    else:
        yield f"{pad_}{value}"


class _Writing:
    """Context for I/O on the --out file `path`, or on stdout when path is None.

    An OSError there is a one-line usage error (exit 2).  After a failed
    stdout write, stdout is pointed at the null device, so the bytes still
    buffered cannot fail again in the interpreter's shutdown flush.
    """

    def __init__(self, path: str | None):
        self.path = path

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, OSError):
            if self.path is None:
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, sys.stdout.fileno())
                os.close(null)
            raise FileAccessError(f"cannot write {self.path or '<stdout>'}: {exc.strerror}") from None


def _write(text: str, out: str | None) -> None:
    if out:
        with _Writing(out), open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        with _Writing(None):
            sys.stdout.write(text)


def _emit(doc: dict, as_json: bool, out: str | None) -> None:
    _write(to_json(doc) if as_json else "\n".join(_human_lines(doc)) + "\n", out)


def cmd_analyze(args) -> int:
    text, H = _load(args.input)
    analysis, bollobas = analyze(H, vertex_budget=args.budget)
    doc = make_document(
        input_info=input_section(args.input, text, H),
        analysis=analysis,
        bollobas=bollobas,
        deterministic=args.deterministic,
    )
    _emit(doc, args.json, args.out)
    if args.strict and analysis["colorable"] == Colorability.UNDETERMINED.value:
        print("error: colorability undetermined within vertex budget", file=sys.stderr)
        return 3
    return 0


def _coloring_lines(H, order, coloring, witness):
    yield "ordering: " + ",".join(map(str, order))
    for v in range(H.p):
        yield f"vertex {v}: {coloring.colors[v].value}"
    yield f"proper: {'yes' if coloring.proper else 'no'}"
    if not coloring.proper:
        e = H.edges[coloring.violating_edge]
        yield f"violating_edge: {coloring.violating_edge} {e}"
        if witness is not None:
            yield (
                f"separated_witness: X={H.edges[witness.first]} "
                f"Y={H.edges[witness.second]} meet={witness.meet}"
            )


def _usage_error(message: str) -> int:
    """One error line for arguments that do not fit the input or an existing file; exit 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_color(args) -> int:
    _, H = _load(args.input)
    if args.order is not None:
        try:
            outcome = greedy_color(H, args.order)
        except InvalidOrdering as exc:
            return _usage_error(str(exc))
        lines = _coloring_lines(H, args.order, outcome.coloring, outcome.separated_witness)
    else:
        result = random_restart_color(H, max_trials=args.trials, seed=args.seed)
        if result is None:
            lines = [f"exhausted: no proper coloring in {args.trials} trials (seed {args.seed})"]
        else:
            order, coloring = result
            lines = [f"proper coloring found (seed {args.seed})", *_coloring_lines(H, order, coloring, None)]
    _write("".join(line + "\n" for line in lines), None)
    return 0


def cmd_mc(args) -> int:
    text, H = _load(args.input)
    stats = monte_carlo_separation(H, trials=args.trials, seed=args.seed)
    doc = make_document(
        input_info=input_section(args.input, text, H),
        separation=monte_carlo_section(stats),
        deterministic=args.deterministic,
    )
    _emit(doc, args.json, args.out)
    return 0


def cmd_enum(args) -> int:
    text, H = _load(args.input)
    mean = exhaustive_separation_mean(H)
    doc = make_document(
        input_info=input_section(args.input, text, H),
        separation=exhaustive_section(mean, H.p),
        deterministic=args.deterministic,
    )
    _emit(doc, args.json, args.out)
    return 0


def _read_stream(path: str, header: dict) -> tuple[list[dict], int]:
    """The p_summary lines of a verify --out stream, and how many of its bytes to keep.

    The kept bytes end after the last complete p_summary line (the header
    when no p is complete), which drops the records of a p cut short and a
    cut-short last line.  A missing or empty stream keeps nothing.  A
    non-empty stream must start with `header`; otherwise it was written by a
    different run, and a ValueError says which parameters differ.
    """
    if not os.path.isfile(path) or os.path.getsize(path) == 0:
        return [], 0
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    objs = [_json_or_none(line) if line.endswith(b"\n") else None for line in lines]
    first = objs[0]
    if not isinstance(first, dict) or first.get("type") != "header":
        raise ValueError(f"{path} has no header line; refusing to append to it")
    if first != header:
        diff = ", ".join(f"{k}={first.get(k)!r} there, {v!r} here" for k, v in header.items() if first.get(k) != v)
        raise ValueError(f"{path} was written by a different run ({diff}); refusing to append to it")
    done, keep, end = [], len(lines[0]), 0
    for line, obj in zip(lines, objs):
        end += len(line)
        if isinstance(obj, dict) and obj.get("type") == "p_summary":
            done.append(obj)
            keep = end
    return done, keep


def _json_or_none(line: bytes):
    """The JSON value of a line, or None for one cut short by an interrupted run or not UTF-8 JSON at all."""
    try:
        return json.loads(line)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None


def cmd_verify(args) -> int:
    if args.fixtures:
        rep = verify_fixture_suite(args.n, seed=args.seed)
        doc = make_document(
            search={"mode": "fixtures", "report": rep},
            deterministic=args.deterministic,
        )
        _emit(doc, args.json, args.out)
        return 0

    max_p = args.max_p if args.max_p is not None else (6 if args.n == 2 else 8)
    header = {"type": "header", "n": args.n, "max_p": max_p, "seed": args.seed, "budget": args.budget}
    done: list[dict] = []
    sink = None

    def write_line(obj):
        if sink:
            with _Writing(args.out):
                sink.write(json.dumps(obj, sort_keys=True) + "\n")
                sink.flush()

    try:
        if args.out:
            try:
                done, keep = _read_stream(args.out, header)
            except ValueError as exc:
                return _usage_error(str(exc))
            with _Writing(args.out):
                sink = open(args.out, "a", encoding="utf-8")
                sink.truncate(keep)
            if not keep:
                write_line(header)
        skip = {s["p"] for s in done}
        records, summary = verify_bound_exhaustive(
            args.n,
            max_p,
            budget=args.budget,
            seed=args.seed,
            skip_p=skip,
            on_record=lambda r: write_line({"type": "record", **r}),
            on_p_done=lambda s: write_line({"type": "p_summary", **s}),
        )
        totals = {k: v for k, v in summary.items() if k != "per_p"}
        # the stream's summary also counts the p values completed by earlier runs
        for s in done:
            for k in totals.keys() & s.keys():
                totals[k] += s[k]
        write_line({"type": "summary", **totals})
    finally:
        if sink:
            with _Writing(args.out):
                sink.close()
    doc = make_document(
        search={
            "mode": summary["mode"],
            "records": records,
            "summary": summary,
            "skipped_p": sorted(skip),
        },
        deterministic=args.deterministic,
    )
    # verify --out is the record stream, so the document always goes to stdout
    _emit(doc, args.json, None)
    return 0


def _extra_vertices(args) -> int:
    return args.extra_vertices if args.extra_vertices is not None else args.n


def _check_gen(args) -> None:
    """Reject gen arguments that name no hypergraph, as usage errors of gen (exit 2)."""
    parser = args.parser
    if args.kind == "random":
        if args.p is None or args.m is None:
            parser.error("argument --kind: random requires --p and --m")
        total = math.comb(args.p, args.n)
        if args.m > total:
            parser.error(f"argument --m: only C({args.p}, {args.n}) = {total} edges exist, got {args.m}")
    if args.kind == "padded" and _extra_vertices(args) < args.n * args.extra_edges:
        parser.error(
            f"argument --extra-vertices: {args.extra_edges} disjoint {args.n}-edges need "
            f"{args.n * args.extra_edges} fresh vertices, got {_extra_vertices(args)}"
        )


def cmd_gen(args) -> int:
    if args.kind == "clique":
        H = complete_hypergraph(args.n)
    elif args.kind == "padded":
        H = pad(complete_hypergraph(args.n), _extra_vertices(args), args.extra_edges)
    elif args.kind == "fano":
        H = fano_plane()
    else:
        H = random_hypergraph(args.n, args.p, args.m, seed=args.seed)
    _write(render(H), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help text is written like any other output.

    argparse drops an OSError raised while printing help and exits 0; here
    a failed write to stdout is the usual one-line error with exit 2.
    """

    def print_help(self, file=None):
        if file is not None:
            return super().print_help(file)
        with _Writing(None):
            sys.stdout.write(self.format_help())
            sys.stdout.flush()


def _int_at_least(lo: int, at_most: int | None = None):
    """argparse type: an integer >= lo (and <= at_most if given), else a one-line usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be <= {at_most}, got {value}")
        return value

    return parse


def _int_list(text: str) -> list[int]:
    """argparse type: comma-separated integers such as 0,2,1 ('' is the empty list), else a usage error (exit 2)."""
    try:
        return [int(t) for t in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma-separated int list: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="propb",
        description="Property B analysis of n-uniform hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit the JSON report document")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="suppress the timestamp for byte-identical reruns",
        )

    p = sub.add_parser("analyze", help="m2, bound, colorability, clique witness")
    p.add_argument("input", help="hypergraph file")
    p.add_argument(
        "--budget", type=_int_at_least(0, at_most=62), default=24, help="covered-vertex budget for the exact decider (0..62)"
    )
    p.add_argument("--strict", action="store_true", help="exit 3 if the budget leaves colorability undetermined")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("color", help="greedy coloring under a given or random order")
    p.add_argument("input")
    p.add_argument("--order", type=_int_list, help="comma-separated visit order, e.g. 0,2,1")
    p.add_argument("--trials", type=_int_at_least(1), default=1, help="random orders to try when --order is absent")
    p.add_argument("--seed", type=_int_at_least(0, at_most=2**64 - 1), default=0, help="trial stream seed (0..2^64-1)")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("mc", help="Monte Carlo separated-pair statistics")
    p.add_argument("input")
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0, at_most=2**64 - 1), default=0, help="trial stream seed (0..2^64-1)")
    common(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("enum", help="exact mean separated count over all p! orderings (p <= 8)")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("verify", help="exhaustive/sampled verification of the bound")
    p.add_argument("--n", type=_int_at_least(2), required=True)
    p.add_argument("--max-p", type=_int_at_least(1), default=None, dest="max_p")
    p.add_argument("--budget", type=_int_at_least(0), default=None, help="graph budget (n=2) or sample count (n>=3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads",
        type=_int_at_least(1),
        default=1,
        help="accepted for older command lines; the census runs in one process and the value changes nothing",
    )
    p.add_argument("--fixtures", action="store_true", help="run the curated fixture pipeline instead")
    common(p)
    p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("gen", help="write a hypergraph file")
    p.add_argument("--kind", choices=["clique", "padded", "fano", "random"], required=True)
    p.add_argument("--n", type=_int_at_least(1), default=3)
    p.add_argument("--p", type=_int_at_least(0), default=None)
    p.add_argument("--m", type=_int_at_least(0), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extra-vertices", type=_int_at_least(0), default=None, dest="extra_vertices", help="default: n")
    p.add_argument("--extra-edges", type=_int_at_least(0), default=1, dest="extra_edges")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_gen, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and args.fixtures and args.n not in FIXTURE_NS:
            args.parser.error(f"argument --n: the fixture suite covers n in {set(FIXTURE_NS)}, got {args.n}")
        if args.command == "verify" and not args.fixtures and args.n >= 3 and args.max_p is not None:
            if args.max_p < 2 * args.n - 1:
                need = f"a non-colorable {args.n}-graph needs {2 * args.n - 1} vertices"
                args.parser.error(f"argument --max-p: {need}, got {args.max_p}")
        if args.command == "gen":
            _check_gen(args)
        code = args.func(args)
        with _Writing(None):
            sys.stdout.flush()
        return code
    except (ParseError, FileAccessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PropBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
