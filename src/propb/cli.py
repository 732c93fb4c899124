"""Command-line interface: analyze, color, mc, enum, verify, gen.

A command computes, writes its output and raises on failure; it returns
nothing.  Set off its default, an option that the command's mode does
not read is a usage error under the command's own usage line, as an
unknown option is (verify --threads aside).  :func:`main` alone flushes
stdout, prints the one `error:` line and picks the exit code: 0
success, 2 malformed input (file or arguments, including a color
--order that is no ordering of the input) or a file that cannot be read
or written, 3 budget exceeded (enum on large p, analyze --strict past
the decider's node budget, verify past p = 7, or 8 when sampling, gen
past its edge budget), 1 any other failure.
A failed stdout write is an exit-2 error like one to an --out file, and
it replaces any earlier error of the command.  The output of analyze,
mc, enum and verify is the report document, which :func:`_emit` alone
builds, as JSON or as its human rendering; color prints lines of its
own, and gen writes a hypergraph file.  --deterministic suppresses the
timestamp so identical invocations are byte-identical.

Every invocation is a fresh interpreter, so the module's top imports only
what parsing the arguments and reading an input need; each cmd_* imports
the modules it runs, and _emit imports report.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import BudgetExceeded, FileAccessError, InvalidOrdering, ParseError, PropBError
from .hgio import parse, render


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
    elif value is None or isinstance(value, (dict, list)):
        yield pad_ + ("null" if value is None else "{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, (str, int, float)):
        yield f"{pad_}{value}"
    else:
        from fractions import Fraction  # loaded here: only a document holding a rational gets this far

        yield f"{pad_}{value.numerator}/{value.denominator}" if isinstance(value, Fraction) else f"{pad_}{value}"


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


def _emit(args, out: str | None, **sections) -> None:
    """Write the report document of `sections` to `out` (stdout when None), as JSON or its human rendering."""
    from .report import make_document, to_json

    doc = make_document(**sections, deterministic=args.deterministic)
    _write(to_json(doc) if args.json else "\n".join(_human_lines(doc)) + "\n", out)


def _refuse_unread(args, mode: str, *dests: str) -> None:
    """A usage error (exit 2) for the first of `dests` set off its default: `mode` does not read it."""
    for dest in dests:
        if getattr(args, dest) != args.parser.get_default(dest):
            args.parser.error(f"argument --{dest.replace('_', '-')}: {mode} does not read it")


def cmd_analyze(args) -> None:
    from .coloring import NODE_BUDGET, Colorability
    from .report import analyze, input_section

    text, H = _load(args.input)
    analysis, bollobas = analyze(H)
    _emit(args, args.out, input_info=input_section(args.input, text, H), analysis=analysis, bollobas=bollobas)
    if args.strict and analysis["colorable"] == Colorability.UNDETERMINED.value:
        raise BudgetExceeded(f"colorability undetermined within the decider's budget of {NODE_BUDGET} nodes")


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


def cmd_color(args) -> None:
    from .coloring import greedy_color, random_restart_color

    if args.order is not None:
        _refuse_unread(args, "--order", "trials", "seed")
    _, H = _load(args.input)
    if args.order is not None:
        outcome = greedy_color(H, args.order)
        lines = _coloring_lines(H, args.order, outcome.coloring, outcome.separated_witness)
    else:
        result = random_restart_color(H, max_trials=args.trials, seed=args.seed)
        if result is None:
            lines = [f"exhausted: no proper coloring in {args.trials} trials (seed {args.seed})"]
        else:
            order, coloring = result
            lines = [f"proper coloring found (seed {args.seed})", *_coloring_lines(H, order, coloring, None)]
    _write("".join(line + "\n" for line in lines), None)


def cmd_mc(args) -> None:
    from .report import input_section
    from .separation import monte_carlo_section, monte_carlo_separation

    text, H = _load(args.input)
    stats = monte_carlo_separation(H, trials=args.trials, seed=args.seed)
    _emit(args, args.out, input_info=input_section(args.input, text, H), separation=monte_carlo_section(stats))


def cmd_enum(args) -> None:
    from .report import input_section
    from .separation import exhaustive_section

    text, H = _load(args.input)
    _emit(args, args.out, input_info=input_section(args.input, text, H), separation=exhaustive_section(H))


def _read_stream(path: str, header: dict) -> tuple[list[dict], int]:
    """The p_summary lines of a verify --out stream, and how many of its bytes to keep.

    The kept bytes end after the last complete p_summary line (the header
    when no p is complete), which drops the records of a p cut short and a
    cut-short last line.  A missing or empty stream keeps nothing.
    FileAccessError refuses a stream that cannot be read, or one that does
    not start with `header` and so was written by a different run; its
    message then says which parameters differ.
    """
    if not os.path.isfile(path) or os.path.getsize(path) == 0:
        return [], 0
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    except OSError as exc:
        raise FileAccessError(f"cannot read {path}: {exc.strerror}") from None
    objs = [_json_or_none(line) if line.endswith(b"\n") else None for line in lines]
    first = objs[0]
    if not isinstance(first, dict) or first.get("type") != "header":
        raise FileAccessError(f"{path} has no header line; refusing to append to it")
    if first != header:
        diff = ", ".join(f"{k}={first.get(k)!r} there, {v!r} here" for k, v in header.items() if first.get(k) != v)
        raise FileAccessError(f"{path} was written by a different run ({diff}); refusing to append to it")
    done, keep, end = [], len(lines[0]), 0
    for line, obj in zip(lines, objs):
        end += len(line)
        if isinstance(obj, dict) and obj.get("type") == "p_summary":
            done.append(obj)
            keep = end
    return done, keep


def _json_or_none(line: bytes):
    """The JSON value of a line, or None for one cut short by an interrupted run or not UTF-8 JSON at all."""
    import json  # loaded here, and in write_line: only a verify --out stream is read or written line by line

    try:
        return json.loads(line)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None


def cmd_verify(args) -> None:
    from .search import verify_bound_exhaustive, verify_fixture_suite

    if args.fixtures:
        _refuse_unread(args, "--fixtures", "max_p", "budget")
        _emit(args, args.out, search={"mode": "fixtures", "report": verify_fixture_suite(args.n, seed=args.seed)})
        return

    max_p = args.max_p if args.max_p is not None else (6 if args.n == 2 else 8)
    if args.n == 2:
        _refuse_unread(args, "the --n 2 census", "seed", "budget")
    elif max_p < 2 * args.n - 1:
        need = f"a non-colorable {args.n}-graph needs {2 * args.n - 1} vertices"
        args.parser.error(f"argument --max-p: {need}, got {max_p}")
    header = {"type": "header", "n": args.n, "max_p": max_p, "seed": args.seed, "budget": args.budget}
    done: list[dict] = []
    sink = None
    unwritten: list[dict] = []  # a fresh stream's header, written with its first line

    def write_line(obj):
        if sink:
            import json

            with _Writing(args.out):
                sink.write("".join(json.dumps(o, sort_keys=True) + "\n" for o in (*unwritten, obj)))
                sink.flush()
            unwritten.clear()

    try:
        if args.out:
            done, keep = _read_stream(args.out, header)
            with _Writing(args.out):
                sink = open(args.out, "a", encoding="utf-8")
                sink.truncate(keep)
            if not keep:
                unwritten.append(header)
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
    search = {"mode": summary["mode"], "records": records, "summary": summary, "skipped_p": sorted(skip)}
    # verify --out is the record stream, so the document always goes to stdout
    _emit(args, None, search=search)


def cmd_gen(args) -> None:
    """Arguments that name no hypergraph are usage errors of gen (exit 2); one past EDGE_BUDGET edges exits 3."""
    from .hypergraph import EDGE_BUDGET, capped_comb, complete_hypergraph, fano_plane, pad, random_hypergraph

    draw, padding = ("p", "m", "seed"), ("extra_vertices", "extra_edges")
    unread = {"clique": (*draw, *padding), "padded": draw, "fano": ("n", *draw, *padding), "random": padding}
    _refuse_unread(args, f"--kind {args.kind}", *unread[args.kind])
    extra_vertices = args.n if args.extra_vertices is None else args.extra_vertices
    if args.kind == "random":
        if args.p is None or args.m is None:
            args.parser.error("argument --kind: random requires --p and --m")
        # exact whenever it is at most m, so the message below always states the true count
        total = capped_comb(args.p, args.n, args.m)
        if args.m > total:
            args.parser.error(f"argument --m: only C({args.p}, {args.n}) = {total} edges exist, got {args.m}")
    if args.kind == "padded" and extra_vertices < args.n * args.extra_edges:
        args.parser.error(
            f"argument --extra-vertices: {args.extra_edges} disjoint {args.n}-edges need "
            f"{args.n * args.extra_edges} fresh vertices, got {extra_vertices}"
        )
    clique = capped_comb(2 * args.n - 1, args.n, EDGE_BUDGET)
    edges = {"clique": clique, "padded": clique + args.extra_edges, "fano": 7, "random": args.m}[args.kind]
    if edges > EDGE_BUDGET:
        raise BudgetExceeded(f"{args.kind} hypergraph has more than {EDGE_BUDGET} edges, the gen budget")
    if args.kind == "clique":
        H = complete_hypergraph(args.n)
    elif args.kind == "padded":
        H = pad(complete_hypergraph(args.n), extra_vertices, args.extra_edges)
    elif args.kind == "fano":
        H = fano_plane()
    else:
        H = random_hypergraph(args.n, args.p, args.m, seed=args.seed)
    _write(render(H), args.out)


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
    p.add_argument("--strict", action="store_true", help="exit 3 if the decider's node budget runs out")
    common(p)
    p.set_defaults(func=cmd_analyze, parser=p)

    p = sub.add_parser("color", help="greedy coloring under a given or random order")
    p.add_argument("input")
    p.add_argument("--order", type=_int_list, help="comma-separated visit order, e.g. 0,2,1")
    p.add_argument("--trials", type=_int_at_least(1), default=1, help="random orders to try when --order is absent")
    p.add_argument("--seed", type=_int_at_least(0, at_most=2**64 - 1), default=0, help="trial stream seed (0..2^64-1)")
    p.set_defaults(func=cmd_color, parser=p)

    p = sub.add_parser("mc", help="Monte Carlo separated-pair statistics")
    p.add_argument("input")
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0, at_most=2**64 - 1), default=0, help="trial stream seed (0..2^64-1)")
    common(p)
    p.set_defaults(func=cmd_mc, parser=p)

    p = sub.add_parser("enum", help="exact mean separated count over all p! orderings (p <= 8)")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_enum, parser=p)

    p = sub.add_parser("verify", help="exhaustive/sampled verification of the bound")
    p.add_argument("--n", type=_int_at_least(2, at_most=4), required=True, help="uniformity (2..4)")
    p.add_argument("--max-p", type=_int_at_least(1), default=None, dest="max_p")
    p.add_argument("--budget", type=_int_at_least(0), default=None, help="sample count at --n 3|4 (default 200)")
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
    """Run one command; the only place that writes an error line or picks the exit code."""
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        try:
            args.func(args)
        finally:
            # a failed flush replaces whatever the command raised: its output is lost, so that is the error
            with _Writing(None):
                sys.stdout.flush()
    except PropBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ParseError, FileAccessError, InvalidOrdering)):
            return 2
        return 3 if isinstance(exc, BudgetExceeded) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
