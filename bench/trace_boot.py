"""Run one `propb` CLI invocation with every public propb function wrapped in a span.

Usage: python trace_boot.py SPANS_OUT INVOCATION_ID -- CLI_ARGS...

Every module of the propb package is imported and each public function
bound in any propb namespace (including re-exports such as `search.m2`)
is replaced by one shared wrapper that records a span: function, start,
end, parent span and invocation id.  Spans stay in memory and are written
to SPANS_OUT as JSON when the CLI returns.  Functions are discovered at
run time, so functions that later versions add or remove are handled;
the work-count hooks below are looked up by name and skipped when absent.

A generator function's span covers only the creation of the generator;
its iteration is charged to the consumer, which in propb is always in
the same module.  Pool workers forked by the CLI inherit the wrappers but
never reach the write-out, so only the parent process is traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import sys
import time


def _popcount_cover(H) -> int:
    cov = 0
    for m in H.masks:
        cov |= m
    return cov.bit_count()


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _make_hooks(originals: dict):
    """Work counts per function, computed from arguments and result after the span ends."""
    m2 = originals.get("propb.hypergraph.m2")

    def decide(args, kwargs, res):
        verdict = res[0].value
        return {"no": verdict == "no", "c": _popcount_cover(_arg(args, kwargs, 0, "H"))}

    def enum(args, kwargs, res):
        H = _arg(args, kwargs, 0, "H")
        return {"orderings": math.factorial(H.p), "pairs": m2(H) if m2 else 0}

    def mc(args, kwargs, res):
        H = _arg(args, kwargs, 0, "H")
        return {"trials": res.trials, "pairs": m2(H) if m2 else 0}

    def verify(args, kwargs, res):
        s = res[1]
        return {k: s[k] for k in ("graphs", "samples", "undetermined") if k in s}

    def m2_hook(args, kwargs, res):
        e = len(_arg(args, kwargs, 0, "H").edges)
        return {"pairs": res, "tests": e * (e - 1) // 2}

    def simple_pairs_hook(args, kwargs, res):
        e = len(_arg(args, kwargs, 0, "H").edges)
        return {"pairs": len(res), "tests": e * (e - 1)}

    return {
        "propb.coloring.exhaustive_decide": decide,
        "propb.coloring.greedy_color": lambda a, k, r: {"proper": r.coloring.proper},
        "propb.separation.exhaustive_separation_mean": enum,
        "propb.separation.orderings_separating_multiple": enum,
        "propb.separation.monte_carlo_separation": mc,
        "propb.search.verify_bound_exhaustive": verify,
        "propb.setpairs.bollobas_family": lambda a, k, r: {"members": len(r.members)},
        "propb.hypergraph.m2": m2_hook,
        "propb.hypergraph.enumerate_simple_pairs": simple_pairs_hook,
        "propb.hgio.parse": lambda a, k, r: {"bytes": len(_arg(a, k, 0, "text").encode("utf-8"))},
    }


class Tracer:
    def __init__(self, invocation: str):
        self.invocation = invocation
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index, extra]
        self.stack: list[int] = []
        self.hook_errors = 0

    def wrap(self, fn, qualname: str, hook):
        name_idx = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    span[4] = hook(args, kwargs, res)
                except Exception as exc:  # a changed return type must not break the traced CLI
                    self.hook_errors += 1
                    print(f"trace hook {qualname}: {exc!r}", file=sys.stderr)
            return res

        return functools.wraps(fn)(wrapper)

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
            if m.name != "__main__"
        ]
        public = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__.startswith(package.__name__ + ".")
                ):
                    public[id(obj)] = obj
        originals = {f"{fn.__module__}.{fn.__name__}": fn for fn in public.values()}
        hooks = _make_hooks(originals)
        wrapped = {
            key: self.wrap(fn, f"{fn.__module__}.{fn.__name__}", hooks.get(f"{fn.__module__}.{fn.__name__}"))
            for key, fn in public.items()
        }
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not attr.startswith("_"):
                    setattr(mod, attr, wrapped[id(obj)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "invocation": self.invocation,
                    "names": self.names,
                    "spans": self.spans,
                    "hook_errors": self.hook_errors,
                },
                fh,
            )


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_out, invocation, cli_args = argv[0], argv[1], argv[3:]
    import propb

    tracer = Tracer(invocation)
    tracer.install(propb)
    from propb import cli

    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
