"""Command-line interface: analyze, color, mc, enum, verify, gen.

A command computes, writes its output and raises on failure; it returns
nothing.  Set off its default, an option that the command's mode does
not read is a usage error under the command's own usage line, as an
unknown option is (verify --threads aside).  :func:`main` alone flushes
stdout, prints the one `error:` line and picks the exit code: 0
success; 1 the mathematics or an internal check failed; 2 malformed or
unreadable input (file, arguments, or an --out file that cannot be
written); 3 a guard, a named module constant, ran out.
A failed stdout write is an exit-2 error like one to an --out file, and
it replaces any earlier error of the command.  The output of analyze,
mc, enum and verify is the report document, which :func:`_emit` alone
builds, as JSON or as its human rendering; color prints lines of its
own, and gen writes a hypergraph file.  --deterministic suppresses the
timestamp so identical invocations are byte-identical.

Every invocation is a fresh interpreter, so the command line is parsed
from COMMANDS, one table entry per command, without argparse; the top
imports only errors, each cmd_* the modules it runs, _emit report.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import BudgetExceeded, FileAccessError, InvalidOrdering, ParseError, PropBError, UsageError


def _load(path: str):
    from .hgio import parse

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
    """A usage error (exit 2) for the first of `dests` off its COMMANDS default: `mode` does not read it."""
    defaults = {_dest(flag): default for flag, _, default, _, _ in COMMANDS[args.command][3]}
    for dest in dests:
        if getattr(args, dest) != defaults[dest]:
            raise UsageError(args.command, f"argument --{dest.replace('_', '-')}: {mode} does not read it")


def cmd_analyze(args) -> None:
    from .coloring import NODE_BUDGET, Colorability
    from .report import analyze, input_section

    text, H = _load(args.input)
    analysis, bollobas = analyze(H)
    _emit(args, args.out, input_info=input_section(args.input, text, H), analysis=analysis, bollobas=bollobas)
    if analysis["colorable"] == Colorability.UNDETERMINED.value:
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
    from .search import SAMPLE_MAX_P, verify_bound_exhaustive, verify_fixture_suite

    if args.fixtures:
        _refuse_unread(args, "--fixtures", "max_p", "budget")
        _emit(args, args.out, search={"mode": "fixtures", "report": verify_fixture_suite(args.n, seed=args.seed)})
        return

    max_p = args.max_p if args.max_p is not None else (6 if args.n == 2 else SAMPLE_MAX_P)
    if args.n == 2:
        _refuse_unread(args, "the --n 2 census", "seed", "budget")
    elif max_p < 2 * args.n - 1:
        need = f"a non-colorable {args.n}-graph needs {2 * args.n - 1} vertices"
        raise UsageError("verify", f"argument --max-p: {need}, got {max_p}")
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
    from .hgio import render
    from .hypergraph import EDGE_BUDGET, capped_comb, complete_hypergraph, fano_plane, pad, random_hypergraph

    draw, padding = ("p", "m", "seed"), ("extra_vertices", "extra_edges")
    unread = {"clique": (*draw, *padding), "padded": draw, "fano": ("n", *draw, *padding), "random": padding}
    _refuse_unread(args, f"--kind {args.kind}", *unread[args.kind])
    extra_vertices = args.n if args.extra_vertices is None else args.extra_vertices
    if args.kind == "random":
        if args.p is None or args.m is None:
            raise UsageError("gen", "argument --kind: random requires --p and --m")
        # exact whenever it is at most m, so the message below always states the true count
        total = capped_comb(args.p, args.n, args.m)
        if args.m > total:
            raise UsageError("gen", f"argument --m: only C({args.p}, {args.n}) = {total} edges exist, got {args.m}")
    if args.kind == "padded" and extra_vertices < args.n * args.extra_edges:
        need = f"{args.extra_edges} disjoint {args.n}-edges need {args.n * args.extra_edges} fresh vertices"
        raise UsageError("gen", f"argument --extra-vertices: {need}, got {extra_vertices}")
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


def _int_range(lo: int | None = None, hi: int | None = None):
    """Option parser: an integer in lo..hi (either end open when None) as hgio's files write it, else ValueError."""

    def parse(text: str) -> int:
        from .hgio import _int  # loaded here: --help parses no integer

        try:
            value = _int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
        if lo is not None and value < lo:
            raise ValueError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise ValueError(f"must be <= {hi}, got {value}")
        return value

    return parse


def _int_list(text: str) -> list[int]:
    """Option parser: comma-separated integers such as 0,2,1 ('' is the empty list), else ValueError."""
    try:
        return [_int_range()(t) for t in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"invalid comma-separated int list: {text!r}") from None


# One entry per command: (help line, cmd_* function, positional names, options).
# An option is (flag, parser, default, required, help); parser None is a switch that takes
# no value, and a tuple lists the values the option accepts.  A required option's default is None.
_REPORT = (
    ("--json", None, False, False, "emit the JSON report document"),
    ("--out", str, None, False, "write output to this path instead of stdout"),
    ("--deterministic", None, False, False, "suppress the timestamp for byte-identical reruns"),
)
_INPUT = ("input",)
_SEED64 = ("--seed", _int_range(0, 2**64 - 1), 0, False, "trial stream seed (0..2^64-1)")
COMMANDS = {
    "analyze": ("m2, bound, colorability, clique witness", cmd_analyze, _INPUT, _REPORT),
    "color": ("greedy coloring under a given or random order", cmd_color, _INPUT, (
        ("--order", _int_list, None, False, "comma-separated visit order, e.g. 0,2,1"),
        ("--trials", _int_range(1), 1, False, "random orders to try when --order is absent"), _SEED64)),
    "mc": ("Monte Carlo separated-pair statistics", cmd_mc, _INPUT, (
        ("--trials", _int_range(1), None, True, "random orders to draw"), _SEED64, *_REPORT)),
    "enum": ("exact mean separated count over all p! orderings (p <= 8)", cmd_enum, _INPUT, _REPORT),
    "verify": ("exhaustive/sampled verification of the bound", cmd_verify, (), (
        ("--n", _int_range(2, 4), None, True, "uniformity (2..4)"),
        ("--max-p", _int_range(1), None, False, "largest vertex count (default 6 at --n 2, else 8)"),
        ("--budget", _int_range(0), None, False, "sample count at --n 3|4 (default 200)"),
        ("--seed", _int_range(), 0, False, "seed of the samples and of the fixture suite"),
        ("--threads", _int_range(1), 1, False, "accepted for older command lines; changes nothing"),
        ("--fixtures", None, False, False, "run the curated fixture pipeline instead"), *_REPORT)),
    "gen": ("write a hypergraph file", cmd_gen, (), (
        ("--kind", ("clique", "padded", "fano", "random"), None, True, "hypergraph to write"),
        ("--n", _int_range(1), 3, False, "uniformity"),
        ("--p", _int_range(0), None, False, "vertex count (random)"),
        ("--m", _int_range(0), None, False, "edge count (random)"),
        ("--seed", _int_range(), 0, False, "edge draw seed (random)"),
        ("--extra-vertices", _int_range(0), None, False, "fresh vertices (padded; default: n)"),
        ("--extra-edges", _int_range(0), 1, False, "fresh disjoint edges (padded)"),
        ("--out", str, None, False, "write to this path instead of stdout"))),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _parse(argv: list[str]) -> SimpleNamespace:
    """The parsed command line: command, func, and one attribute per positional and option of its table entry.

    Only exact option names match.  An option's value is the part after
    `=` or else the next token, whatever it looks like.  -h or --help
    before any error gives func _print_help.
    """
    command = next((a for a in argv if not a.startswith("-")), None)
    unknown = argv[: argv.index(command)] if command is not None else argv
    if {"-h", "--help"} & set(unknown):
        return SimpleNamespace(command=None, func=_print_help)
    if unknown:  # under the usage of the command named further on, like an unknown option after it
        raise UsageError(next((a for a in argv if a in COMMANDS), None), f"unrecognized arguments: {' '.join(unknown)}")
    if command not in COMMANDS:
        invalid = f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, COMMANDS))})"
        raise UsageError(None, "the following arguments are required: command" if command is None else invalid)
    _, func, positionals, options = COMMANDS[command]
    table = {option[0]: option[1] for option in options}
    values = {_dest(flag): default for flag, _, default, _, _ in options}
    found, extra, tokens = [], [], iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return SimpleNamespace(command=command, func=_print_help)
        flag, eq, text = token.partition("=") if token.startswith("--") else (token, "", "")
        if flag not in table:
            (extra if token.startswith("-") or len(found) == len(positionals) else found).append(token)
            continue
        parse = table[flag]
        if parse is None and eq:
            raise UsageError(command, f"argument {flag}: ignored explicit argument {text!r}")
        if parse is not None and not eq and (text := next(tokens, None)) is None:
            raise UsageError(command, f"argument {flag}: expected one argument")
        try:
            if isinstance(parse, tuple) and text not in parse:
                raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, parse))})")
            values[_dest(flag)] = True if parse is None else text if isinstance(parse, tuple) else parse(text)
        except ValueError as exc:
            raise UsageError(command, f"argument {flag}: {exc}") from None
    missing = list(positionals[len(found):])
    missing += [flag for flag, _, _, required, _ in options if required and values[_dest(flag)] is None]
    if missing:
        raise UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise UsageError(command, f"unrecognized arguments: {' '.join(extra)}")
    values.update(zip(positionals, found))
    return SimpleNamespace(command=command, func=func, **values)


def _invocation(flag: str, parse) -> str:
    metavar = "{" + ",".join(parse) + "}" if isinstance(parse, tuple) else _dest(flag).upper()
    return flag if parse is None else f"{flag} {metavar}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: propb [-h] {{{','.join(COMMANDS)}}} ..."
    _, _, positionals, options = COMMANDS[command]
    words = [_invocation(f, p) if required else f"[{_invocation(f, p)}]" for f, p, _, required, _ in options]
    return " ".join(["usage: propb", command, "[-h]", *words, *positionals])


def _print_help(args) -> None:
    """Write the --help text of args.command, or of propb itself when None, rendered from the command table."""
    about, _, _, options = COMMANDS.get(args.command, ("Property B analysis of n-uniform hypergraphs", None, (), ()))
    rows = [("-h, --help", "show this help message and exit")]
    sections = {"options": rows + [(_invocation(flag, parse), text) for flag, parse, _, _, text in options]}
    if args.command is None:
        sections = {"commands": [(name, entry[0]) for name, entry in COMMANDS.items()], **sections}
    width = 2 + max(len(left) for rows in sections.values() for left, _ in rows)
    lines = [_usage(args.command), "", about]
    for title, rows in sections.items():
        lines += ["", f"{title}:", *(f"  {left:<{width}}{text}" for left, text in rows)]
    _write("\n".join(lines) + "\n", None)


def main(argv=None) -> int:
    """Run one command; the only place that writes an error line or picks the exit code."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        try:
            args.func(args)
        finally:
            # a failed flush replaces whatever the command raised: its output is lost, so that is the error
            with _Writing(None):
                sys.stdout.flush()
    except PropBError as exc:
        prog = f"propb {exc.command or ''}".rstrip() if isinstance(exc, UsageError) else None
        print(f"{_usage(exc.command)}\n{prog}: " if prog else "", f"error: {exc}", sep="", file=sys.stderr)
        if prog or isinstance(exc, (ParseError, FileAccessError, InvalidOrdering)):
            return 2
        return 3 if isinstance(exc, BudgetExceeded) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
