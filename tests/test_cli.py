import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import propb
from propb.cli import main
from propb.hgio import render
from propb.hypergraph import complete_hypergraph, fano_plane, pad
from propb.setpairs import evaluate_family


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def k35_file(tmp_path):
    return write(tmp_path, "k35.hg", render(complete_hypergraph(3)))


@pytest.fixture
def triangle_file(tmp_path):
    return write(tmp_path, "tri.hg", render(complete_hypergraph(2)))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalyze:
    def test_k35(self, capsys, k35_file):
        code, doc = run_json(capsys, ["analyze", k35_file, "--json", "--deterministic"])
        assert code == 0
        a = doc["analysis"]
        assert a["m2"] == 30 and a["bound"] == 30
        assert a["colorable"] == "no"
        assert a["clique_witness"] == [0, 1, 2, 3, 4]
        assert doc["bollobas"]["equality"] is True
        assert doc["bollobas"]["sum"] == {"num": 1, "den": 1}
        assert doc["timestamp"] is None

    def test_empty_hypergraph(self, capsys, tmp_path):
        path = write(tmp_path, "empty.hg", "3 4 0\n")
        code, doc = run_json(capsys, ["analyze", path, "--json"])
        assert code == 0
        assert doc["analysis"]["m2"] == 0
        assert doc["analysis"]["colorable"] == "yes"
        assert doc["bollobas"] is None

    def test_malformed_header_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, "bad.hg", "nope\n")
        code = main(["analyze", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code = main(["analyze", str(tmp_path / "absent.hg")])
        assert code == 2

    def test_strict_budget_exit_3(self, capsys, k35_file):
        code = main(["analyze", k35_file, "--budget", "2", "--strict", "--json"])
        assert code == 3

    def test_deterministic_byte_identical(self, capsys, k35_file):
        main(["analyze", k35_file, "--json", "--deterministic"])
        first = capsys.readouterr().out
        main(["analyze", k35_file, "--json", "--deterministic"])
        second = capsys.readouterr().out
        assert first == second

    def test_human_output(self, capsys, k35_file):
        code = main(["analyze", k35_file, "--deterministic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "m2: 30" in out and "colorable: no" in out

    def test_bollobas_section_is_evaluate_family(self, capsys, tmp_path):
        H = pad(complete_hypergraph(3), 3, 1)
        path = write(tmp_path, "padded.hg", render(H))
        code, doc = run_json(capsys, ["analyze", path, "--json", "--deterministic"])
        assert code == 0
        v = evaluate_family(H)
        assert isinstance(v["sum"], Fraction)
        encoded = {"num": v["sum"].numerator, "den": v["sum"].denominator}
        assert {**v, "sum": encoded} == doc["bollobas"]


class TestColor:
    def test_triangle_fixed_order(self, capsys, triangle_file):
        code = main(["color", triangle_file, "--order", "0,1,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "proper: no" in out
        assert "separated_witness: X=(0, 1) Y=(1, 2) meet=1" in out

    def test_empty_order_on_no_vertices(self, capsys, tmp_path):
        path = write(tmp_path, "empty.hg", "2 0 0\n")
        assert main(["color", path, "--order", ""]) == 0
        assert "proper: yes" in capsys.readouterr().out

    def test_single_edge_one_trial(self, capsys, tmp_path):
        path = write(tmp_path, "edge.hg", "2 2 1\n0 1\n")
        code = main(["color", path, "--trials", "1", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "proper coloring found" in out

    def test_k35_exhausts(self, capsys, k35_file):
        code = main(["color", k35_file, "--trials", "1000", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("exhausted")


class TestSeparationCommands:
    def test_enum_k35_mean_one(self, capsys, k35_file):
        code, doc = run_json(capsys, ["enum", k35_file, "--json"])
        assert code == 0
        sep = doc["separation"]
        assert sep["kind"] == "exhaustive" and sep["estimate"] is False
        assert sep["mean_separated"] == {"num": 1, "den": 1}
        assert sep["orderings"] == 120

    def test_enum_triangle(self, capsys, triangle_file):
        code, doc = run_json(capsys, ["enum", triangle_file, "--json"])
        assert doc["separation"]["mean_separated"] == {"num": 1, "den": 1}

    def test_enum_budget_exit_3(self, capsys, tmp_path):
        path = write(tmp_path, "big.hg", "2 9 1\n0 1\n")
        code = main(["enum", path, "--json"])
        assert code == 3

    def test_mc_disjoint_success_rate(self, capsys, tmp_path):
        path = write(tmp_path, "disj.hg", "3 6 2\n0 1 2\n3 4 5\n")
        code, doc = run_json(capsys, ["mc", path, "--trials", "50", "--json"])
        assert code == 0
        sep = doc["separation"]
        assert sep["estimate"] is True and sep["rng"] == "splitmix64-1"
        assert sep["success_rate"] == 1.0

    def test_mc_and_color_take_the_largest_seed(self, capsys, k35_file):
        seed = str(2**64 - 1)
        code, doc = run_json(capsys, ["mc", k35_file, "--trials", "30", "--seed", seed, "--json"])
        assert code == 0 and doc["separation"]["histogram"] == [[1, 30]]
        assert main(["color", k35_file, "--trials", "30", "--seed", seed]) == 0
        assert capsys.readouterr().out == f"exhausted: no proper coloring in 30 trials (seed {seed})\n"

    def test_mc_deterministic(self, capsys, triangle_file):
        args = ["mc", triangle_file, "--trials", "200", "--seed", "9", "--json", "--deterministic"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestVerify:
    def test_n2_maxp5(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "--n", "2", "--max-p", "5", "--threads", "1", "--json"]
        )
        assert code == 0
        summary = doc["search"]["summary"]
        assert summary["counterexamples"] == 0
        assert summary["equality_classes"] >= 1
        for rec in doc["search"]["records"]:
            assert rec["meets_bound"] and rec["has_clique"]

    def test_stream_and_resume(self, capsys, tmp_path):
        out_path = str(tmp_path / "records.jsonl")
        code = main(["verify", "--n", "2", "--max-p", "4", "--threads", "1", "--out", out_path, "--json"])
        assert code == 0
        capsys.readouterr()
        lines = [json.loads(l) for l in open(out_path) if l.strip()]
        p_done = [l["p"] for l in lines if l["type"] == "p_summary"]
        assert p_done == [1, 2, 3, 4]
        # rerun: completed p values are skipped
        code, doc = run_json(
            capsys,
            ["verify", "--n", "2", "--max-p", "4", "--threads", "1", "--out", out_path, "--json"],
        )
        assert code == 0
        assert doc["search"]["skipped_p"] == [1, 2, 3, 4]
        assert doc["search"]["summary"]["graphs"] == 0

    def test_stream_header(self, capsys, tmp_path):
        out_path = str(tmp_path / "records.jsonl")
        assert main(["verify", "--n", "2", "--max-p", "3", "--threads", "2", "--out", out_path]) == 0
        first = json.loads(open(out_path).readline())
        assert first == {"type": "header", "n": 2, "max_p": 3, "seed": 0, "budget": None}
        # --threads is not a parameter of the records, so a resume may change it
        assert main(["verify", "--n", "2", "--max-p", "3", "--threads", "1", "--out", out_path]) == 0
        lines = [json.loads(l) for l in open(out_path) if l.strip()]
        assert [l["type"] for l in lines].count("header") == 1

    def test_resume_with_other_parameters_exit_2(self, capsys, tmp_path):
        out_path = str(tmp_path / "records.jsonl")
        assert main(["verify", "--n", "2", "--max-p", "4", "--threads", "1", "--out", out_path]) == 0
        capsys.readouterr()
        before = open(out_path).read()
        code = main(["verify", "--n", "2", "--max-p", "5", "--threads", "1", "--out", out_path])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {out_path} was written by a different run (max_p=4 there, 5 here); "
            "refusing to append to it\n"
        )
        assert open(out_path).read() == before

    def test_resume_without_header_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        out_path.write_text('{"p": 1, "type": "p_summary"}\n')
        code = main(["verify", "--n", "2", "--max-p", "4", "--threads", "1", "--out", str(out_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {out_path} has no header line; refusing to append to it\n"
        assert out_path.read_text() == '{"p": 1, "type": "p_summary"}\n'

    def test_an_undecodable_line_is_dropped_like_a_cut_one(self, capsys, tmp_path):
        argv = ["verify", "--n", "2", "--max-p", "3", "--threads", "1"]
        whole, mixed = tmp_path / "whole.jsonl", tmp_path / "mixed.jsonl"
        assert main([*argv, "--out", str(whole)]) == 0
        header = whole.read_bytes().splitlines(keepends=True)[0]
        mixed.write_bytes(header + b"\xff\n")
        assert main([*argv, "--out", str(mixed)]) == 0
        assert mixed.read_bytes() == whole.read_bytes()

    def test_resume_of_a_utf16_stream_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        out_path.write_bytes(b'\xff\xfe{"type": "header"}\n')
        code = main(["verify", "--n", "2", "--max-p", "3", "--threads", "1", "--out", str(out_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {out_path} has no header line; refusing to append to it\n"
        assert out_path.read_bytes() == b'\xff\xfe{"type": "header"}\n'

    def test_resume_after_a_cut_inside_a_p_matches_an_uninterrupted_run(self, capsys, tmp_path):
        argv = ["verify", "--n", "2", "--max-p", "5", "--threads", "1", "--deterministic"]
        whole, cut = tmp_path / "whole.jsonl", tmp_path / "cut.jsonl"
        assert main([*argv, "--out", str(whole)]) == 0
        lines = whole.read_bytes().splitlines(keepends=True)
        objs = [json.loads(line) for line in lines]
        k = next(i for i, o in enumerate(objs) if o["type"] == "p_summary" and o["p"] == 5)
        assert [o["type"] for o in objs[k - 2 : k]] == ["record", "record"]
        # one record of p = 5 is complete, the next is cut mid-line
        cut.write_bytes(b"".join(lines[: k - 1]) + lines[k - 1][: len(lines[k - 1]) // 2])
        assert main([*argv, "--out", str(cut)]) == 0
        assert cut.read_bytes() == whole.read_bytes()

    def test_fixtures_out_writes_the_document(self, capsys, tmp_path):
        argv = ["verify", "--n", "3", "--fixtures", "--json", "--deterministic"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        out_path = tmp_path / "fx.json"
        assert main([*argv, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_text() == expected

    def test_fixtures_mode(self, capsys):
        code, doc = run_json(capsys, ["verify", "--n", "3", "--fixtures", "--json"])
        assert code == 0
        rep = doc["search"]["report"]
        assert rep["ok"] is True
        complete = next(f for f in rep["fixtures"] if f["name"] == "complete")
        assert complete["bollobas_sum"] == {"num": 1, "den": 1}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "1"], "argument --n: must be >= 2, got 1"),
            (["--n", "x"], "argument --n: invalid int value: 'x'"),
            (["--n", "2", "--threads", "0"], "argument --threads: must be >= 1, got 0"),
            (["--n", "2", "--threads", "-3"], "argument --threads: must be >= 1, got -3"),
        ],
    )
    def test_bad_arguments_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith("error: " + message)
        assert "Traceback" not in err

    def test_sampling_mode(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "--n", "3", "--budget", "10", "--seed", "4", "--json"]
        )
        assert code == 0
        assert doc["search"]["summary"]["mode"] == "sampling"
        assert doc["search"]["summary"]["counterexamples"] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--kind", "random", "--n", "3", "--p", "6", "--m", "-1"], "argument --m: must be >= 0, got -1"),
        (["gen", "--kind", "clique", "--n", "0"], "argument --n: must be >= 1, got 0"),
        (["color", "{k35}", "--order", "a,b"], "argument --order: invalid comma-separated int list: 'a,b'"),
        (["color", "{k35}", "--trials", "0"], "argument --trials: must be >= 1, got 0"),
        (["mc", "{k35}", "--trials", "0"], "argument --trials: must be >= 1, got 0"),
        (["verify", "--n", "5", "--fixtures"], "argument --n: the fixture suite covers n in {2, 3, 4}, got 5"),
        (["gen", "--kind", "padded", "--n", "3", "--extra-vertices", "-1"], "argument --extra-vertices: must be >= 0, got -1"),
        (["gen", "--kind", "padded", "--n", "3", "--extra-edges", "-2"], "argument --extra-edges: must be >= 0, got -2"),
        (["gen", "--kind", "random", "--p", "2", "--n", "3", "--m", "1"], "argument --m: only C(2, 3) = 0 edges exist, got 1"),
        (
            ["gen", "--kind", "padded", "--n", "3", "--extra-edges", "2"],
            "argument --extra-vertices: 2 disjoint 3-edges need 6 fresh vertices, got 3",
        ),
        (["analyze", "{k35}", "--budget", "70"], "argument --budget: must be <= 62, got 70"),
        (["analyze", "{k35}", "--budget", "-1"], "argument --budget: must be >= 0, got -1"),
        (["color", "{k35}", "--order", "0,0,1"], "sequence [0, 0, 1] is not a permutation of 0..2"),
        (["color", "{k35}", "--order", "0,1,2"], "ordering covers 3 vertices, hypergraph has 5"),
        (["mc", "{k35}", "--trials", "1", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        (
            ["color", "{k35}", "--seed", "18446744073709551616"],
            "argument --seed: must be <= 18446744073709551615, got 18446744073709551616",
        ),
        (["verify", "--n", "2", "--max-p", "-3"], "argument --max-p: must be >= 1, got -3"),
        (["verify", "--n", "3", "--budget", "-1"], "argument --budget: must be >= 0, got -1"),
        (["gen", "--kind", "random", "--n", "3"], "argument --kind: random requires --p and --m"),
        (["analyze", "{missing}"], "cannot read {missing}: No such file or directory"),
        (["gen", "--kind", "fano", "--out", "{nodir}/x.hg"], "cannot write {nodir}/x.hg: No such file or directory"),
        (
            ["verify", "--n", "2", "--max-p", "3", "--out", "{nodir}/x.jsonl"],
            "cannot write {nodir}/x.jsonl: No such file or directory",
        ),
        (["analyze", "{k35}", "--out", "{nodir}/x.txt"], "cannot write {nodir}/x.txt: No such file or directory"),
        (["verify", "--n", "2", "--max-p", "3", "--out", "{tmp}"], "cannot write {tmp}: Is a directory"),
        (["analyze", "{bom}"], "cannot read {bom}: not UTF-8 text"),
        (["color", "{bom}"], "cannot read {bom}: not UTF-8 text"),
        (["mc", "{bom}", "--trials", "1"], "cannot read {bom}: not UTF-8 text"),
        (["enum", "{bom}"], "cannot read {bom}: not UTF-8 text"),
        (["color", "{k35}", "--order", "0,,1"], "argument --order: invalid comma-separated int list: '0,,1'"),
        (["color", "{k35}", "--order", ",0,1"], "argument --order: invalid comma-separated int list: ',0,1'"),
        (["color", "{k35}", "--order", "0,1,"], "argument --order: invalid comma-separated int list: '0,1,'"),
        (["verify", "--n", "3", "--max-p", "4"], "argument --max-p: a non-colorable 3-graph needs 5 vertices, got 4"),
    ],
)
def test_bad_arguments_exit_2(capsys, k35_file, argv, message):
    # argparse rejects what it can check alone by raising SystemExit(2), under
    # the subcommand's usage line; an order that does not fit the input file,
    # an input that cannot be read or an --out path that cannot be written,
    # makes main return 2 with one line
    tmp = os.path.dirname(k35_file)
    missing, nodir, bom = (os.path.join(tmp, name) for name in ("missing.hg", "nodir", "bom.hg"))
    # a UTF-16 byte-order mark, which is not UTF-8
    with open(bom, "wb") as fh:
        fh.write(b"\xff\xfe")

    def fill(a):
        for key, value in (("k35", k35_file), ("missing", missing), ("nodir", nodir), ("bom", bom), ("tmp", tmp)):
            a = a.replace("{" + key + "}", value)
        return a

    try:
        code, usage = main([fill(a) for a in argv]), None
    except SystemExit as exc:
        code, usage = exc.code, f"usage: propb {argv[0]} "
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("error: " + fill(message))
    if usage is None:
        assert err == f"error: {fill(message)}\n"
    else:
        assert err.splitlines()[0].startswith(usage)
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, which fails every write")
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "fano", "--out", "/dev/full"],
        ["analyze", "{k35}", "--out", "/dev/full"],
        # the stream is cut to its kept length first, which /dev/full refuses
        ["verify", "--n", "2", "--max-p", "3", "--out", "/dev/full"],
    ],
    ids=["gen", "analyze", "verify"],
)
def test_out_write_failure_exit_2(capsys, k35_file, argv):
    assert main([a.format(k35=k35_file) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, which fails every write")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "fano"],
        ["verify", "--n", "2", "--max-p", "4", "--json"],
        ["analyze", "{k35}"],
        ["color", "{k35}", "--trials", "1"],
        # argparse itself drops an OSError while it prints help
        ["--help"],
        ["analyze", "--help"],
    ],
    ids=["gen", "verify-json", "analyze", "color", "help", "analyze-help"],
)
def test_stdout_write_failure_exit_2(k35_file, argv, unbuffered):
    # buffered, the bytes a failed flush keeps must not fail again at interpreter shutdown
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(propb.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "propb", *(a.format(k35=k35_file) for a in argv)],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write <stdout>: No space left on device\n"


class TestGen:
    def test_clique_header(self, capsys):
        code = main(["gen", "--kind", "clique", "--n", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "3 5 10"

    def test_fano(self, capsys):
        code = main(["gen", "--kind", "fano"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "3 7 7"
        assert out == render(fano_plane())

    def test_padded(self, capsys):
        code = main(["gen", "--kind", "padded", "--n", "3"])
        out = capsys.readouterr().out
        assert out == render(pad(complete_hypergraph(3), 3, 1))

    def test_random_deterministic(self, capsys, tmp_path):
        a = str(tmp_path / "a.hg")
        b = str(tmp_path / "b.hg")
        assert main(["gen", "--kind", "random", "--n", "2", "--p", "7", "--m", "9", "--seed", "5", "--out", a]) == 0
        assert main(["gen", "--kind", "random", "--n", "2", "--p", "7", "--m", "9", "--seed", "5", "--out", b]) == 0
        assert open(a).read() == open(b).read()

    def test_gen_analyze_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "fano.hg")
        main(["gen", "--kind", "fano", "--out", path])
        capsys.readouterr()
        code, doc = run_json(capsys, ["analyze", path, "--json"])
        assert code == 0
        assert doc["analysis"]["m2"] == 42
        assert doc["analysis"]["colorable"] == "no"


_LOADED_MODULES = """
import json
import sys
from propb.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps([m for m in ("numpy", "concurrent.futures") if m in sys.modules]), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["analyze", "{k35}", "--json"],
        ["enum", "{k35}", "--json"],
        ["gen", "--kind", "clique", "--n", "3"],
        ["verify", "--n", "3", "--fixtures", "--json"],
        ["verify", "--n", "4", "--fixtures", "--json"],
        ["verify", "--n", "3", "--seed", "0", "--json"],
        ["mc", "{k35}", "--trials", "10", "--json"],
        ["color", "{k35}", "--trials", "3"],
        ["color", "{k35}", "--order", "4,2,0,1,3"],
        ["color", "{k35}", "--trials", "1500"],
        ["verify", "--n", "2", "--max-p", "4", "--threads", "2", "--json"],
        ["verify", "--n", "2", "--max-p", "7"],
    ],
    ids=[
        "help", "analyze", "enum", "gen", "fixtures-n3", "fixtures-n4", "sampled-n3", "mc", "color",
        "color-order", "color-trials1500", "census-threads2", "census-p7",
    ],
)
def test_numpy_is_imported_only_by_commands_that_run_a_kernel(k35_file, argv):
    # no command runs a numpy kernel any more, so none may import it
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(propb.__file__))}
    argv = [a.format(k35=k35_file) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert "numpy" not in loaded
    # no command starts a process pool, the census at --threads 2 included
    assert "concurrent.futures" not in loaded


_NEWLY_LOADED = """
import json
import sys
before = set(sys.modules)
from propb.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["analyze", "{k35}", "--json"],
        ["analyze", "{k35}", "--deterministic"],
        ["enum", "{k35}", "--json", "--deterministic"],
        ["mc", "{k35}", "--trials", "10"],
        ["color", "{k35}", "--trials", "3"],
        ["gen", "--kind", "clique", "--n", "3"],
        ["verify", "--n", "2", "--max-p", "4"],
        ["verify", "--n", "3", "--fixtures", "--json"],
        ["verify", "--n", "3", "--fixtures", "--deterministic"],
        ["verify", "--n", "3", "--budget", "5", "--deterministic"],
    ],
    ids=[
        "help", "analyze", "analyze-deterministic", "enum-deterministic", "mc", "color", "gen",
        "census", "fixtures", "fixtures-deterministic", "sampled-deterministic",
    ],
)
def test_commands_load_only_the_stdlib_modules_they_use(k35_file, argv):
    # counting only modules loaded after start-up keeps this independent of what site preloads
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(propb.__file__))}
    argv = [a.format(k35=k35_file) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _NEWLY_LOADED, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert not loaded & {"dataclasses", "inspect", "typing"}
    # only a timestamped document reads the clock
    if "--deterministic" in argv or argv[0] == "color":
        assert "datetime" not in loaded
    # only the commands that read an input file hash it
    if argv[0] not in ("analyze", "enum", "mc"):
        assert "hashlib" not in loaded


def test_import_propb_loads_no_submodule():
    # each name has one import path, from the module that defines it
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(propb.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, propb; print(sorted(m for m in sys.modules if m.startswith('propb.')))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_import_report_does_not_load_search():
    # records and fixture entries are plain dicts built in search, so report needs no search types
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(propb.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, propb.report; print('propb.search' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "False"


_TOP_LEVEL_KEYS = {"tool", "timestamp", "input", "analysis", "bollobas", "separation", "search"}


@pytest.mark.parametrize(
    "argv, rational_line",
    [
        (["analyze", "{padded}"], "sum: 1/1"),
        (["enum", "{padded}"], "mean_separated: 1/1"),
        (["mc", "{padded}", "--trials", "20"], None),
        (["verify", "--n", "3", "--fixtures"], "bollobas_sum: 1/1"),
        (["verify", "--n", "2", "--max-p", "4"], None),
    ],
    ids=["analyze", "enum", "mc", "fixtures", "census"],
)
def test_human_output_keeps_each_value_on_its_key_line(capsys, tmp_path, argv, rational_line):
    padded = write(tmp_path, "padded.hg", render(pad(complete_hypergraph(3), 3, 1)))
    assert main([a.format(padded=padded) for a in argv] + ["--deterministic"]) == 0
    lines = capsys.readouterr().out.splitlines()
    if rational_line is not None:
        assert rational_line in [line.strip() for line in lines]
    assert not [line for line in lines if line.endswith(" ")]
    # indentation alone carries the nesting, so only the document's own keys start at column 0
    assert {line.split(":")[0] for line in lines if not line.startswith(" ")} <= _TOP_LEVEL_KEYS
