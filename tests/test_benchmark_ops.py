"""The gated benchmark workloads' ops, run in-process against their own checks.

bench/workloads.py is imported as it is: each op's argv goes through
cli.main, and its check gets the outputs of the ops before it, as the
benchmark runner passes them.  A change that would fail an op there (a
removed option, a changed output line) fails here first.
"""

import sys
from pathlib import Path

import pytest

from propb.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("name", ["census-n2", "instances"])
def test_every_op_passes_its_check(capsys, tmp_path, workloads, name):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, str(tmp_path), 2)
    earlier: dict[str, str] = {}
    for op in workload.ops:
        code = main(op.args)
        out, err = capsys.readouterr()
        fails: list[str] = []
        op.check(out, earlier, fails)
        earlier[op.name] = out
        assert (op.name, code, err, fails) == (op.name, 0, "", [])
