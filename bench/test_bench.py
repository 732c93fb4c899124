"""Tests of the benchmark itself: run with `python3 -m pytest bench/test_bench.py`."""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _printer(doc: dict) -> list[str]:
    return [sys.executable, "-c", f"print({json.dumps(json.dumps(doc))})"]


def _census_doc(**overrides) -> dict:
    summary = dict(workloads.census_expected(7), **overrides)
    return {"search": {"summary": summary, "records": []}}


def test_wrong_expected_value_is_counted_not_raised():
    runner = run.Runner(t_start=time.perf_counter())
    good = workloads.check_census(workloads.census_expected(7))
    wrong = workloads.check_census(dict(workloads.census_expected(7), graphs=1))

    ok = runner.op("census ok", _printer(_census_doc()), good)
    bad = runner.op("census wrong expectation", _printer(_census_doc()), wrong)

    assert ok.ok
    assert not bad.ok and "summary.graphs" in bad.failures[0]
    assert (runner.attempted, runner.failed) == (2, 1)


def test_malformed_output_and_bad_exit_are_failures():
    runner = run.Runner(t_start=time.perf_counter())
    check = workloads.check_census(workloads.census_expected(7))
    runner.op("not json", [sys.executable, "-c", "print('nonsense')"], check)
    runner.op("exit 3", [sys.executable, "-c", "raise SystemExit(3)"], check)
    assert (runner.attempted, runner.failed) == (2, 2)


def test_twin_documents_must_be_identical():
    check = workloads.check_census(workloads.census_expected(7), twin="serial")
    doc = json.dumps(_census_doc())
    fails: list[str] = []
    check(doc, {"serial": doc}, fails)
    assert fails == []
    check(doc, {"serial": doc + " "}, fails)
    assert len(fails) == 1


def test_census_oracle_matches_known_counts():
    # OEIS A047864: labeled bipartite graphs on n nodes
    assert workloads.labeled_bipartite_counts(7)[1:] == [1, 2, 7, 41, 376, 5177, 103237]
    want = workloads.census_expected(7)
    assert (want["graphs"], want["non_colorable"]) == (2_131_019, 2_022_178)
    assert (want["equality_labeled"], want["equality_classes"]) == (455, 9)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [w for w in workloads.WORKLOADS if w in gated] == ["census-n2", "instances"]


def test_self_time_subtracts_children():
    inv = {
        "names": ["propb.cli.main", "propb.coloring.exhaustive_decide"],
        "spans": [[0, 0.0, 1.0, -1, None], [1, 0.2, 0.6, 0, {"no": True, "c": 4}]],
    }
    c = layers.pass_counters([inv])
    assert abs(c["cli.self_s"] - 0.6) < 1e-12
    assert abs(c["coloring.self_s"] - 0.4) < 1e-12
    assert (c["coloring.decide_no"], c["coloring.decide_space"], c["cli.invocations"]) == (1, 8, 1)


def test_importtime_parsing():
    class Op:
        stderr = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        300 | site\n"
            "import time:      2000 |      90000 |     numpy\n"
            "import time:      1000 |       1000 |     propb.errors\n"
            "import time:       500 |      95000 | propb\n"
        )

    t = layers.parse_importtime(Op)
    assert t == {"import_s": 0.0953, "import_numpy_s": 0.09, "import_propb_self_s": 0.0015}


def test_times_are_scaled_by_the_calibration_around_each_pass():
    # A pass whose calibration ops took twice REFERENCE_S ran on a host at
    # half speed, so its times count half.
    slow = 2 * run.REFERENCE_S
    passes = [
        {"wall_s": 8.0, "cpu_s": 6.0, "setup_s": 0.5, "calibration_s": [slow, slow]},
        {"wall_s": 4.0, "cpu_s": 3.0, "setup_s": 0.25, "calibration_s": [run.REFERENCE_S, run.REFERENCE_S]},
        {"wall_s": 4.4, "cpu_s": 3.3, "setup_s": 0.3, "calibration_s": [run.REFERENCE_S, run.REFERENCE_S]},
    ]
    scaled = run.reference_medians(passes)
    assert scaled == {"wall_s": 4.0, "cpu_s": 3.0, "setup_s": 0.25}
    assert run.raw_medians(passes)["wall_s"] == 4.4


def test_calibration_op_is_checked():
    runner = run.Runner(t_start=time.perf_counter())
    run.calibration_wall(runner)
    runner.op("wrong calibration", [sys.executable, "-c", "print('1 2')"], run.check_calibration)
    assert (runner.attempted, runner.failed) == (2, 1)
