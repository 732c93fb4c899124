"""Command-line interface: analyze, color, mc, enum, verify, gen.

Exit codes: 0 success, 2 malformed input (file or arguments), 3 budget
exceeded (enum on large p, or analyze --strict left undetermined), 1 any
other failure.  All machine output derives from the same report document
as the human rendering; --deterministic suppresses the timestamp so
identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .coloring import Colorability, Ordering, greedy_color, random_restart_color
from .errors import BudgetExceeded, ParseError, PropBError
from .hgio import parse, render
from .hypergraph import complete_hypergraph, fano_plane, pad, random_hypergraph
from .report import (
    analysis_section,
    analyze,
    bollobas_section,
    exhaustive_section,
    input_section,
    make_document,
    monte_carlo_section,
    record_section,
    to_json,
)
from .search import FIXTURE_NS, verify_bound_exhaustive, verify_fixture_suite
from .separation import exhaustive_separation_mean, monte_carlo_separation


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc.strerror}") from None
    return text, parse(text)


def _human_lines(value, indent: int = 0):
    pad_ = "  " * indent
    if isinstance(value, dict):
        if set(value) == {"num", "den"}:
            yield f"{value['num']}/{value['den']}"
            return
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                yield f"{pad_}{k}:"
                yield from _human_lines(v, indent + 1)
            else:
                flat = next(_human_lines(v, 0), "")
                yield f"{pad_}{k}: {flat}"
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                yield f"{pad_}-"
                yield from _human_lines(item, indent + 1)
            else:
                yield f"{pad_}- {item}"
    elif value is None:
        yield f"{pad_}null" if indent else "null"
    else:
        yield f"{pad_}{value}" if indent else f"{value}"


def _emit(doc: dict, as_json: bool, out: str | None) -> None:
    if as_json:
        text = to_json(doc)
    else:
        text = "\n".join(_human_lines(doc)) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    text, H = _load(args.input)
    report, bollobas = analyze(H, vertex_budget=args.budget)
    doc = make_document(
        input_info=input_section(args.input, text, H),
        analysis=analysis_section(report),
        bollobas=bollobas_section(bollobas),
        deterministic=args.deterministic,
    )
    _emit(doc, args.json, args.out)
    if args.strict and report.colorable is Colorability.UNDETERMINED:
        print("error: colorability undetermined within vertex budget", file=sys.stderr)
        return 3
    return 0


def _coloring_lines(H, pi, coloring, witness):
    yield "ordering: " + ",".join(map(str, pi.vertex_sequence()))
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


def cmd_color(args) -> int:
    _, H = _load(args.input)
    if args.order is not None:
        pi = Ordering.from_vertex_sequence(args.order)
        outcome = greedy_color(H, pi)
        for line in _coloring_lines(H, pi, outcome.coloring, outcome.separated_witness):
            print(line)
        return 0
    result = random_restart_color(H, max_trials=args.trials, seed=args.seed)
    if result is None:
        print(f"exhausted: no proper coloring in {args.trials} trials (seed {args.seed})")
        return 0
    pi, coloring = result
    print(f"proper coloring found (seed {args.seed})")
    for line in _coloring_lines(H, pi, coloring, None):
        print(line)
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


def _read_completed(path: str) -> set[int]:
    done: set[int] = set()
    if not os.path.exists(path):
        return done
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if obj.get("type") == "p_summary":
                done.add(obj["p"])
    return done


def cmd_verify(args) -> int:
    if args.fixtures:
        rep = verify_fixture_suite(args.n, seed=args.seed)
        doc = make_document(
            search={"mode": "fixtures", "report": _fixture_json(rep)},
            deterministic=args.deterministic,
        )
        _emit(doc, args.json, None)
        return 0

    max_p = args.max_p if args.max_p is not None else (6 if args.n == 2 else 8)
    skip = _read_completed(args.out) if args.out else set()
    sink = open(args.out, "a", encoding="utf-8") if args.out else None

    def write_line(obj):
        if sink:
            sink.write(json.dumps(obj, sort_keys=True) + "\n")
            sink.flush()

    try:
        records, summary = verify_bound_exhaustive(
            args.n,
            max_p,
            budget=args.budget,
            seed=args.seed,
            workers=args.threads,
            skip_p=skip,
            on_record=lambda r: write_line({"type": "record", **record_section(r)}),
            on_p_done=lambda s: write_line({"type": "p_summary", **s}),
        )
        write_line({"type": "summary", **{k: v for k, v in summary.items() if k != "per_p"}})
    finally:
        if sink:
            sink.close()
    doc = make_document(
        search={
            "mode": summary["mode"],
            "records": [record_section(r) for r in records],
            "summary": summary,
            "skipped_p": sorted(skip),
        },
        deterministic=args.deterministic,
    )
    # verify --out is the record stream, so the document always goes to stdout
    _emit(doc, args.json, None)
    return 0


def _fixture_json(rep: dict) -> dict:
    out = {"n": rep["n"], "bound": rep["bound"], "ok": rep["ok"], "fixtures": []}
    for e in rep["fixtures"]:
        e = dict(e)
        if e["bollobas_sum"] is not None:
            e["bollobas_sum"] = {"num": e["bollobas_sum"].numerator, "den": e["bollobas_sum"].denominator}
        out["fixtures"].append(e)
    return out


def _extra_vertices(args) -> int:
    return args.extra_vertices if args.extra_vertices is not None else args.n


def _check_gen(parser: argparse.ArgumentParser, args) -> None:
    """Reject gen arguments that name no hypergraph, as usage errors (exit 2)."""
    if args.kind == "random" and args.p is not None and args.m is not None:
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
        if args.p is None or args.m is None:
            raise ParseError(0, "gen --kind random requires --p and --m")
        H = random_hypergraph(args.n, args.p, args.m, seed=args.seed)
    text = render(H)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


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
    """argparse type: comma-separated integers such as 0,2,1, else a usage error (exit 2)."""
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma-separated int list: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propb",
        description="Property B analysis of n-uniform hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, deterministic=True):
        p.add_argument("--json", action="store_true", help="emit the JSON report document")
        p.add_argument("--out", help="write output to this path instead of stdout")
        if deterministic:
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
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("mc", help="Monte Carlo separated-pair statistics")
    p.add_argument("input")
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("enum", help="exact mean separated count over all p! orderings (p <= 8)")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("verify", help="exhaustive/sampled verification of the bound")
    p.add_argument("--n", type=_int_at_least(2), required=True)
    p.add_argument("--max-p", type=int, default=None, dest="max_p")
    p.add_argument("--budget", type=int, default=None, help="graph budget (n=2) or sample count (n>=3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads", type=_int_at_least(1), default=os.cpu_count() or 1, help="worker processes for the enumeration"
    )
    p.add_argument("--fixtures", action="store_true", help="run the curated fixture pipeline instead")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="write a hypergraph file")
    p.add_argument("--kind", choices=["clique", "padded", "fano", "random"], required=True)
    p.add_argument("--n", type=_int_at_least(1), default=3)
    p.add_argument("--p", type=_int_at_least(0), default=None)
    p.add_argument("--m", type=_int_at_least(0), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extra-vertices", type=_int_at_least(0), default=None, dest="extra_vertices", help="default: n")
    p.add_argument("--extra-edges", type=_int_at_least(0), default=1, dest="extra_edges")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.fixtures and args.n not in FIXTURE_NS:
        parser.error(f"argument --n: the fixture suite covers n in {set(FIXTURE_NS)}, got {args.n}")
    if args.command == "gen":
        _check_gen(parser, args)
    try:
        return args.func(args)
    except ParseError as exc:
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
