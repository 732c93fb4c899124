"""propb benchmark: drive the real CLI on fixed workloads and report metrics.

    python3 bench/run.py --workload census-n2 --seed 0 --seconds 58 --trace 0

Run from the repository root.  Every op is a fresh interpreter running
`python -m propb ...` against `src/`, timed from process start to exit,
with CPU time and peak RSS taken from wait4 (pool workers included).
A pass runs a workload's whole op list once; passes repeat until the
next one would end after --seconds, and the metrics are medians over
passes.  --trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced and traced passes and prints the per-layer metrics.

The end-to-end times are in reference seconds: each pass and the set-up
probe before it are scaled by REFERENCE_S over the mean wall time of the
two calibration ops (bench/calibrate.py, independent of propb) run just
before and just after the pass, which cancels part of the host's speed
swings.  The unscaled medians are printed beside them.

`--workload all` runs every workload in both modes and prints a table.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The line before it holds provenance and the unscaled medians;
every raw sample is written under .bench_work/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH_DIR)

import calibrate  # noqa: E402
import layers  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

IMPORTTIME_REPEATS = 5
# A calibration op that takes this many wall seconds defines one reference
# second; 0.4 s is at the fast end of its run medians on the 2-vCPU VM
# described in README.md.
REFERENCE_S = 0.4
OP_TIMEOUT_S = 90.0
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class OpResult:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    failures: list[str]
    stdout: str = field(repr=False, default="")
    stderr: str = field(repr=False, default="")

    @property
    def ok(self) -> bool:
        return not self.failures


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_op(name: str, cmd: list[str], check, earlier: dict[str, str], timeout: float) -> OpResult:
    """Run one process to completion and check its output; never raises on a failed check.

    The child leads its own process group, so a timeout kills its pool
    workers too; the function returns only after the whole group is gone.
    """
    os.makedirs(WORKDIR, exist_ok=True)
    out_path = os.path.join(WORKDIR, "op.stdout")
    err_path = os.path.join(WORKDIR, "op.stderr")
    timed_out = threading.Event()
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT, start_new_session=True)

        def kill():
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # reap any worker the CLI left behind
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    failures: list[str] = []
    if timed_out.is_set():
        failures.append(f"timed out after {timeout:.0f} s")
    elif proc.returncode != 0:
        failures.append(f"exit code {proc.returncode}: {stderr.strip()[-300:]}")
    elif check is not None:
        try:
            check(stdout, earlier, failures)
        except Exception as exc:  # a malformed output is a failed op, not a crashed benchmark
            failures.append(f"check raised {exc!r}")
    return OpResult(name, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, failures, stdout, stderr)


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until it is empty (killed zombies aside, at most 5 s)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.perf_counter() + 5.0
    while time.perf_counter() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def cli_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "propb", *args]


def traced_cmd(args: list[str], spans_path: str, invocation: str) -> list[str]:
    return [sys.executable, os.path.join(BENCH_DIR, "trace_boot.py"), spans_path, invocation, "--", *args]


class Runner:
    def __init__(self, t_start: float):
        self.t_start = t_start
        self.attempted = 0
        self.failed = 0
        self.failure_log: list[str] = []

    def op(self, name: str, cmd: list[str], check=None, earlier=None) -> OpResult:
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.t_start)
        r = run_op(name, cmd, check, earlier or {}, max(1.0, min(OP_TIMEOUT_S, remaining)))
        self.attempted += 1
        if not r.ok:
            self.failed += 1
            self.failure_log.extend(f"{name}: {f}" for f in r.failures)
            print(f"FAILED {name}: {r.failures[:3]}", file=sys.stderr)
        return r

    def run_pass(self, wl: Workload, trace_tag: str | None = None) -> dict:
        """One pass over the op list; with trace_tag, each op runs under the trace bootstrap."""
        earlier: dict[str, str] = {}
        ops = []
        spans = []
        for i, op in enumerate(wl.ops):
            if trace_tag is None:
                cmd = cli_cmd(op.args)
            else:
                spans_path = os.path.join(WORKDIR, f"spans-{i}.json")
                cmd = traced_cmd(op.args, spans_path, f"{trace_tag}:{i}")
            r = self.op(op.name, cmd, op.check, earlier)
            earlier[op.name] = r.stdout
            ops.append(r)
            if trace_tag is not None and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    spans.append(json.load(fh))
                os.remove(spans_path)
                if spans[-1]["hook_errors"]:
                    print(f"warning: {op.name}: {spans[-1]['hook_errors']} work-count hook errors", file=sys.stderr)
        return {
            "wall_s": sum(r.wall_s for r in ops),
            "cpu_s": sum(r.cpu_s for r in ops),
            "peak_rss_mb": max(r.rss_mb for r in ops),
            "ops": [{"name": r.name, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb, "ok": r.ok} for r in ops],
            "spans": spans,
        }


def noop_wall(runner: Runner) -> float:
    """Wall seconds of one no-op CLI invocation (interpreter, import propb.cli, parser build)."""
    return runner.op("setup --help", cli_cmd(["--help"])).wall_s


def check_calibration(out: str, earlier: dict[str, str], fails: list[str]) -> None:
    if out.strip() != calibrate.CHECKSUM:
        fails.append(f"calibration checksum: got {out.strip()!r}, expected {calibrate.CHECKSUM!r}")


def calibration_wall(runner: Runner) -> float:
    """Wall seconds of one calibration op, which does the same work whatever propb does."""
    # -I: the calibration sees neither PYTHONPATH=src nor the user's site-packages
    return runner.op("calibrate", [sys.executable, "-I", calibrate.__file__], check_calibration).wall_s


def reference_medians(passes: list[dict]) -> dict[str, float]:
    """End-to-end times in reference seconds: every pass, and the set-up probe
    before it, scaled by REFERENCE_S / (mean wall of the calibration ops around it)."""
    scales = [REFERENCE_S / statistics.fmean(p["calibration_s"]) for p in passes]
    return {
        "wall_s": statistics.median(p["wall_s"] * k for p, k in zip(passes, scales)),
        "cpu_s": statistics.median(p["cpu_s"] * k for p, k in zip(passes, scales)),
        "setup_s": statistics.median(p["setup_s"] * k for p, k in zip(passes, scales)),
    }


def raw_medians(passes: list[dict]) -> dict[str, float]:
    """The same medians in measured, unscaled seconds."""
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "calibration_s": statistics.median(t for p in passes for t in p["calibration_s"]),
    }


def loop_passes(seconds: float, one_pass) -> list:
    """Repeat one_pass until the next one is predicted to end after `seconds`; at least once."""
    t0 = time.perf_counter()
    samples, durations = [], []
    while True:
        ts = time.perf_counter()
        samples.append(one_pass())
        durations.append(time.perf_counter() - ts)
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return samples


def provenance() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "src_propb_lines": src_lines(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read directly; None when it is not a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def src_lines() -> int:
    pkg = os.path.join(SRC, "propb")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += sum(1 for _ in fh)
    return total


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    runner = Runner(t_start)
    os.makedirs(WORKDIR, exist_ok=True)
    nproc = os.cpu_count() or 1
    wl = WORKLOADS[name](seed, WORKDIR, nproc)
    runner.op("warm-up --help", cli_cmd(["--help"]))  # byte-compiles src/ on a fresh checkout
    raw: dict = {}
    if not trace:
        # The host's speed swings by up to 1.8x over seconds to minutes, so
        # the set-up probes are spread over the run, one before each pass,
        # and each pass is bracketed by calibration ops.
        calibrations = [calibration_wall(runner)]

        def one_pass():
            probe = noop_wall(runner)
            p = runner.run_pass(wl)
            del p["spans"]
            calibrations.append(calibration_wall(runner))
            p["setup_s"] = probe
            p["calibration_s"] = calibrations[-2:]
            return p

        passes = loop_passes(seconds, one_pass)
        raw["passes"] = passes
        raw["unscaled_medians"] = raw_medians(passes)
        values = reference_medians(passes)
        values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    else:
        importtimes = [
            layers.parse_importtime(runner.op("setup -X importtime", [sys.executable, "-X", "importtime", "-m", "propb", "--help"]))
            for _ in range(IMPORTTIME_REPEATS)
        ]
        pairs = loop_passes(seconds, lambda: (runner.run_pass(wl), runner.run_pass(wl, trace_tag=f"{name}:{seed}")))
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        metrics = layers.per_layer_metrics(wl, untraced, traced, importtimes)
        for p in untraced + traced:
            del p["spans"]
        raw["importtime"] = importtimes
        raw["untraced_passes"] = untraced
        raw["traced_passes"] = traced
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": wl.inputs,
        "provenance": provenance(),
        "failures": runner.failure_log,
        "samples": raw,
        "result": {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        },
    }


def write_record(rec: dict) -> None:
    path = os.path.join(WORKDIR, f"result-{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced; prints one table of every metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        for trace in (False, True):
            rec = run_workload(name, seed, seconds, trace)
            write_record(rec)
            res = rec["result"]
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for m, v in res["metrics"].items():
                total["metrics"][f"{name}/{m}"] = v
                rows.append((name, "per-layer" if trace else "end-to-end", m, v["value"], v["unit"]))
    for name, kind, m, value, unit in rows:
        print(f"{name:11} {kind:10} {m:36} {value:>14.6g} {unit}")
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=58.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "propb", "cli.py")):
        print(f"error: no propb sources under {SRC}; run from a propb checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        write_record(rec)
        detail = {k: rec[k] for k in ("workload", "seed", "inputs", "provenance", "failures")}
        detail["unscaled_medians"] = rec["samples"].get("unscaled_medians")
        print(json.dumps(detail))
        result = rec["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
