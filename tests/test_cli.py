import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import propb
from propb import hypergraph
from propb.cli import COMMANDS, main
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
def fano_file(tmp_path):
    return write(tmp_path, "fano.hg", render(fano_plane()))


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

    def test_input_sha256_is_the_digest_of_the_utf8_text(self, capsys, tmp_path):
        text = "# Fano-Ebene \u00b7 \u6cd5\u8bfa\u5e73\u9762 \U0001d53d\u2082\n" + render(fano_plane())
        path = tmp_path / "fano.hg"
        path.write_bytes(text.encode("utf-8"))
        code, doc = run_json(capsys, ["analyze", str(path), "--json", "--deterministic"])
        assert code == 0
        assert doc["input"]["sha256"] == hashlib.sha256(text.encode("utf-8")).hexdigest()

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

    def test_strict_budget_exit_3(self, capsys, monkeypatch, k35_file):
        monkeypatch.setattr("propb.coloring.NODE_BUDGET", 0)
        code = main(["analyze", k35_file, "--json"])
        assert code == 3
        assert capsys.readouterr().err == "error: colorability undetermined within the decider's budget of 0 nodes\n"

    def test_decides_past_24_covered_vertices(self, capsys, tmp_path):
        # a random 3-graph covering 40 vertices, refuted in a few nodes
        path = str(tmp_path / "r40.hg")
        assert main(["gen", "--kind", "random", "--n", "3", "--p", "40", "--m", "150", "--seed", "2", "--out", path]) == 0
        code, doc = run_json(capsys, ["analyze", path, "--json"])
        assert code == 0
        assert doc["analysis"]["colorable"] == "no"

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
        assert sep["histogram"] == [[0, 50]]

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


def _run_limited(argv, limit=1 << 30):
    """`python -m propb argv` with its address space capped at `limit` bytes: a regression fails, not the host."""
    import resource

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(propb.__file__))}
    return subprocess.run(
        [sys.executable, "-m", "propb", *argv], capture_output=True, text=True, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_a_trillion_vertex_header_costs_only_its_edges(tmp_path):
    # a list entry per vertex of range(p) needs terabytes here; the work must follow the edges
    far = write(tmp_path, "far.hg", "3 1000000000000 2\n0 1 2\n2 3 4\n")
    near = write(tmp_path, "near.hg", "3 5 2\n0 1 2\n2 3 4\n")
    proc = _run_limited(["analyze", far, "--json"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["analysis"] == json.loads(_run_limited(["analyze", near, "--json"]).stdout)["analysis"]
    proc = _run_limited(["mc", far, "--trials", "10"])
    assert (proc.returncode, proc.stderr) == (0, "")


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

    def test_unreadable_stream_exit_2(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "records.jsonl"
        out_path.write_text('{"type": "header"}\n')
        real_open = open

        def unreadable(file, *args, **kwargs):
            if file == str(out_path):
                raise PermissionError(13, "Permission denied", file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", unreadable)
        code = main(["verify", "--n", "2", "--max-p", "3", "--out", str(out_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {out_path}: Permission denied\n"
        assert out_path.read_text() == '{"type": "header"}\n'

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

    @pytest.mark.parametrize("failing", [["--max-p", "8"]], ids=["max-p"])
    def test_a_run_that_writes_no_line_leaves_an_empty_stream(self, capsys, tmp_path, failing):
        # so its corrected rerun starts fresh, instead of being refused as another run's stream
        argv = ["verify", "--n", "2", "--deterministic"]
        whole, s = tmp_path / "whole.jsonl", tmp_path / "s.jsonl"
        assert main([*argv, *failing, "--out", str(s)]) == 3
        assert s.read_bytes() == b""
        assert main([*argv, "--max-p", "5", "--out", str(s)]) == 0
        assert main([*argv, "--max-p", "5", "--out", str(whole)]) == 0
        assert s.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize(
        "argv", [["--n", "2", "--max-p", "5"], ["--n", "3", "--budget", "20"]], ids=["census", "sampler"]
    )
    def test_stream_lines_are_what_json_dumps_writes(self, capsys, tmp_path, argv):
        out_path = tmp_path / "s.jsonl"
        assert main(["verify", *argv, "--deterministic", "--out", str(out_path)]) == 0
        lines = out_path.read_bytes().splitlines(keepends=True)
        assert len(lines) > 3
        for line in lines:
            assert line == (json.dumps(json.loads(line), sort_keys=True) + "\n").encode()

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
        assert main(["verify", *argv]) == 2
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: propb verify ") and error == f"propb verify: error: {message}"

    def test_sampling_mode(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "--n", "3", "--budget", "10", "--seed", "4", "--json"]
        )
        assert code == 0
        assert doc["search"]["summary"]["mode"] == "sampling"
        assert doc["search"]["summary"]["counterexamples"] == 0

    def test_sampling_past_p8_exit_3(self, capsys, tmp_path):
        out_path = tmp_path / "s.jsonl"
        assert main(["verify", "--n", "3", "--max-p", "9", "--out", str(out_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sampling supports max_p <= 8\n"
        assert out_path.read_bytes() == b""


# every option of every subcommand, bar -h: adding or removing a knob is a visible change to this table
OPTIONS = {
    "analyze": {"--json", "--out", "--deterministic"},
    "color": {"--order", "--trials", "--seed"},
    "mc": {"--trials", "--seed", "--json", "--out", "--deterministic"},
    "enum": {"--json", "--out", "--deterministic"},
    "verify": {"--n", "--max-p", "--budget", "--seed", "--threads", "--fixtures", "--json", "--out", "--deterministic"},
    "gen": {"--kind", "--n", "--p", "--m", "--seed", "--extra-vertices", "--extra-edges", "--out"},
}


def test_option_inventory():
    found = {name: {option[0] for option in options} for name, (_, _, _, options) in COMMANDS.items()}
    assert found == OPTIONS


def _help_rows(text, section):
    """The first word of each row of one `section:` block of a --help text."""
    block = text.split(f"\n{section}:\n")[1].split("\n\n")[0]
    return {line.split()[0].rstrip(",") for line in block.splitlines() if line[2:3] != " "}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_help_lists_exactly_the_command_options(capsys, command):
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    usage = text.split("\n\n")[0]
    assert usage.startswith(f"usage: propb {command} [-h] ")
    assert {word.strip("[]") for word in usage.split() if word.startswith(("--", "[--"))} == OPTIONS[command]
    assert _help_rows(text, "options") == OPTIONS[command] | {"-h"}


def test_help_states_the_current_guard_constants(capsys):
    # cli loads neither module to print help, so its help text repeats their caps; changing one fails here
    from propb.search import SAMPLE_BUDGET_DEFAULT, SAMPLE_MAX_P
    from propb.separation import ENUM_MAX_VERTICES

    assert main(["--help"]) == 0
    assert f"over all p! orderings (p <= {ENUM_MAX_VERTICES})\n" in capsys.readouterr().out
    assert main(["verify", "--help"]) == 0
    text = capsys.readouterr().out
    assert f"largest vertex count (default 6 at --n 2, else {SAMPLE_MAX_P})\n" in text
    assert f"sample count at --n 3|4 (default {SAMPLE_BUDGET_DEFAULT})\n" in text


def test_top_level_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: propb [-h] {analyze,color,mc,enum,verify,gen} ...\n")
    assert _help_rows(text, "commands") == set(OPTIONS)
    assert _help_rows(text, "options") == {"-h"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--kind", "random", "--n", "3", "--p", "6", "--m", "-1"], "argument --m: must be >= 0, got -1"),
        (["gen", "--kind", "clique", "--n", "0"], "argument --n: must be >= 1, got 0"),
        (["color", "{k35}", "--order", "a,b"], "argument --order: invalid comma-separated int list: 'a,b'"),
        (["color", "{k35}", "--trials", "0"], "argument --trials: must be >= 1, got 0"),
        (["mc", "{k35}", "--trials", "0"], "argument --trials: must be >= 1, got 0"),
        (["verify", "--n", "5", "--fixtures"], "argument --n: must be <= 4, got 5"),
        (["gen", "--kind", "padded", "--n", "3", "--extra-vertices", "-1"], "argument --extra-vertices: must be >= 0, got -1"),
        (["gen", "--kind", "padded", "--n", "3", "--extra-edges", "-2"], "argument --extra-edges: must be >= 0, got -2"),
        (["gen", "--kind", "random", "--p", "2", "--n", "3", "--m", "1"], "argument --m: only C(2, 3) = 0 edges exist, got 1"),
        (
            ["gen", "--kind", "padded", "--n", "3", "--extra-edges", "2"],
            "argument --extra-vertices: 2 disjoint 3-edges need 6 fresh vertices, got 3",
        ),
        (["analyze", "{k35}", "--budget", "24"], "unrecognized arguments: --budget 24"),
        (["verify", "--n", "2", "--budget", "5"], "argument --budget: the --n 2 census does not read it"),
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
        (["verify", "--n", "5"], "argument --n: must be <= 4, got 5"),
        (["verify", "--n", "3", "--fixtures", "--budget", "5"], "argument --budget: --fixtures does not read it"),
        (["color", "{k35}", "--order", "0,1,2,3,4", "--seed", "5"], "argument --seed: --order does not read it"),
        (["gen", "--kind", "clique", "--n", "3", "--seed", "5"], "argument --seed: --kind clique does not read it"),
        (["gen", "--kind", "padded", "--p", "9"], "argument --p: --kind padded does not read it"),
        (["gen", "--kind", "fano", "--n", "5"], "argument --n: --kind fano does not read it"),
        (
            ["gen", "--kind", "random", "--p", "6", "--m", "3", "--extra-edges", "2"],
            "argument --extra-edges: --kind random does not read it",
        ),
        (["verify", "--n", "3", "--fixtures", "--max-p", "3"], "argument --max-p: --fixtures does not read it"),
        (["verify", "--n", "2", "--seed", "5"], "argument --seed: the --n 2 census does not read it"),
        (["analyze", "{k35}", "--bogus"], "unrecognized arguments: --bogus"),
        (["color", "{k35}", "--bogus"], "unrecognized arguments: --bogus"),
        (["mc", "{k35}", "--trials", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["enum", "{k35}", "--bogus"], "unrecognized arguments: --bogus"),
        (["verify", "--n", "2", "--bogus"], "unrecognized arguments: --bogus"),
        (["gen", "--kind", "fano", "--bogus"], "unrecognized arguments: --bogus"),
        (["--bogus", "analyze", "{k35}"], "unrecognized arguments: --bogus"),
        (["color", "{k35}", "--order", "0,1,2,3,4", "--trials", "2"], "argument --trials: --order does not read it"),
        (["gen", "--kind", "clique", "--p", "9"], "argument --p: --kind clique does not read it"),
        (["gen", "--kind", "clique", "--m", "3"], "argument --m: --kind clique does not read it"),
        (
            ["gen", "--kind", "clique", "--extra-vertices", "4"],
            "argument --extra-vertices: --kind clique does not read it",
        ),
        (["gen", "--kind", "clique", "--extra-edges", "2"], "argument --extra-edges: --kind clique does not read it"),
        (["gen", "--kind", "padded", "--m", "3"], "argument --m: --kind padded does not read it"),
        (["gen", "--kind", "padded", "--seed", "5"], "argument --seed: --kind padded does not read it"),
        (["gen", "--kind", "fano", "--p", "9"], "argument --p: --kind fano does not read it"),
        (["gen", "--kind", "fano", "--m", "3"], "argument --m: --kind fano does not read it"),
        (["gen", "--kind", "fano", "--seed", "5"], "argument --seed: --kind fano does not read it"),
        (["gen", "--kind", "fano", "--extra-vertices", "4"], "argument --extra-vertices: --kind fano does not read it"),
        (["gen", "--kind", "fano", "--extra-edges", "2"], "argument --extra-edges: --kind fano does not read it"),
        (
            ["gen", "--kind", "random", "--p", "6", "--m", "3", "--extra-vertices", "4"],
            "argument --extra-vertices: --kind random does not read it",
        ),
        # an unknown option before the command takes no value, so the next token is no command name
        (["--bogus", "3", "analyze", "{k35}"], "unrecognized arguments: --bogus"),
        # only exact option names match
        (["analyze", "{k35}", "--det"], "unrecognized arguments: --det"),
        (["mc", "{k35}", "--trials"], "argument --trials: expected one argument"),
        (["mc", "{k35}"], "the following arguments are required: --trials"),
        (["verify"], "the following arguments are required: --n"),
        (["gen", "--n", "3"], "the following arguments are required: --kind"),
        (["analyze"], "the following arguments are required: input"),
        (["analyze", "{k35}", "--json=1"], "argument --json: ignored explicit argument '1'"),
        (
            ["gen", "--kind", "ring"],
            "argument --kind: invalid choice: 'ring' (choose from 'clique', 'padded', 'fano', 'random')",
        ),
        (["analyze", "{k35}", "{k35}"], "unrecognized arguments: {k35}"),
        ([], "the following arguments are required: command"),
        (
            ["anal", "{k35}"],
            "argument command: invalid choice: 'anal' (choose from 'analyze', 'color', 'mc', 'enum', 'verify', 'gen')",
        ),
        # an option's integer has the grammar of a file's: ASCII digits with an optional leading '-'
        (["mc", "{k35}", "--trials", "1_0"], "argument --trials: invalid int value: '1_0'"),
        (["mc", "{k35}", "--trials", "+5"], "argument --trials: invalid int value: '+5'"),
        (["mc", "{k35}", "--trials", "\u0663"], "argument --trials: invalid int value: '\u0663'"),
        (["color", "{k35}", "--order", "+0,1,2"], "argument --order: invalid comma-separated int list: '+0,1,2'"),
        (["color", "{k35}", "--order", "0,1_0,2"], "argument --order: invalid comma-separated int list: '0,1_0,2'"),
        (["color", "{k35}", "--order", "\u0663,1"], "argument --order: invalid comma-separated int list: '\u0663,1'"),
        # a guard is a constant, not an option: analyze exits 3 past the decider's budget without one
        (["analyze", "{k35}", "--strict"], "unrecognized arguments: --strict"),
    ],
)
def test_bad_arguments_exit_2(capsys, k35_file, argv, message):
    # two kinds of exit 2, both returned by main: a usage error (an argument the
    # command table rejects, or an option the command's mode does not read) is
    # reported under the usage line of the command, or of propb when there is
    # none; an order that does not fit the input file, an input that cannot be
    # read or an --out path that cannot be written, is the one `error:` line
    tmp = os.path.dirname(k35_file)
    missing, nodir, bom = (os.path.join(tmp, name) for name in ("missing.hg", "nodir", "bom.hg"))
    # a UTF-16 byte-order mark, which is not UTF-8
    with open(bom, "wb") as fh:
        fh.write(b"\xff\xfe")

    def fill(a):
        for key, value in (("k35", k35_file), ("missing", missing), ("nodir", nodir), ("bom", bom), ("tmp", tmp)):
            a = a.replace("{" + key + "}", value)
        return a

    assert main([fill(a) for a in argv]) == 2
    err = capsys.readouterr().err
    if message.startswith(("argument ", "unrecognized arguments: ", "the following arguments are required: ")):
        prog = " ".join(["propb", *(a for a in argv if a in COMMANDS)][:2])
        usage, error = err.splitlines()
        assert usage.startswith(f"usage: {prog} ") and error == f"{prog}: error: {fill(message)}"
    else:
        assert err == f"error: {fill(message)}\n"


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["color", "{k35}", "--order", "0,1,2,3,4"], ["--trials", "1", "--seed", "0"]),
        (["gen", "--kind", "fano"], ["--n", "3", "--seed", "0", "--extra-edges", "1"]),
        (["gen", "--kind", "clique", "--n", "2"], ["--seed", "0", "--extra-edges", "1"]),
        (["verify", "--n", "2", "--max-p", "3", "--deterministic"], ["--seed", "0", "--threads", "2"]),
    ],
    ids=["color", "gen-fano", "gen-clique", "verify-census"],
)
def test_an_option_at_its_default_is_no_setting(capsys, k35_file, argv, defaults):
    argv = [a.replace("{k35}", k35_file) for a in argv]
    assert main(argv) == 0
    expected = capsys.readouterr()
    assert main([*argv, *defaults]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["mc", "{k35}", "--json", "--deterministic"], "--trials", "20"),
        (["color", "{k35}"], "--order", "4,2,0,1,3"),
        (["gen"], "--kind", "fano"),
        (["analyze", "{k35}", "--deterministic"], "--out", "{out}"),
    ],
    ids=["int", "int-list", "choice", "path"],
)
def test_option_equals_value_is_option_then_value(capsys, tmp_path, k35_file, argv, option, value):
    outputs = []
    for n, pair in enumerate(([option, value], [f"{option}={value}"])):
        out = tmp_path / f"out{n}"
        assert main([a.format(k35=k35_file, out=out) for a in [*argv, *pair]]) == 0
        outputs.append((capsys.readouterr(), out.read_bytes() if out.exists() else None))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].err == "" and (outputs[0][0].out or outputs[0][1])


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["mc", "-h"], "usage: propb mc [-h] "),
        (["gen", "--help"], "usage: propb gen [-h] "),
        (["verify", "--fixtures", "-h", "--bogus"], "usage: propb verify [-h] "),
        (["--help", "analyze"], "usage: propb [-h] {"),
    ],
    ids=["mc", "gen", "verify", "top-level"],
)
def test_help_checks_no_required_option(capsys, argv, usage):
    # help is written where -h is met, before the required options and the leftovers are checked
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(usage) and captured.err == ""


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


@pytest.mark.parametrize(
    "constant, value, argv, message",
    [
        (
            "propb.coloring.NODE_BUDGET", 0, ["analyze", "{k35}"],
            "colorability undetermined within the decider's budget of 0 nodes",
        ),
        ("propb.setpairs.NODE_BUDGET", 0, ["analyze", "{k35}"], "clique search visited more than 0 prefixes"),
        (
            "propb.search.CANONICAL_BUDGET", 1, ["verify", "--n", "2", "--max-p", "3"],
            "canonical form of a 2-graph on 3 vertices: cells (3,) admit 6 relabelings, budget 1",
        ),
        (
            "propb.search.FIXTURE_ATTEMPTS", 0, ["verify", "--n", "3", "--fixtures"],
            "no non-2-colorable 3-graph found in 0 rejection samples",
        ),
        (
            "propb.coloring.NODE_BUDGET", 0, ["verify", "--n", "3", "--fixtures"],
            "colorability undetermined within the decider's budget of 0 nodes",
        ),
        (
            "propb.coloring.NODE_BUDGET", 0, ["verify", "--n", "3", "--budget", "5"],
            "colorability undetermined within the decider's budget of 0 nodes",
        ),
    ],
    ids=["decider", "clique-search", "canonical-form", "fixture-draws", "fixture-decider", "sampler-decider"],
)
def test_guard_exit_3(capsys, monkeypatch, k35_file, constant, value, argv, message):
    # exit 3 is a guard constant running out, with no option to ask for it; only analyze's decider
    # leaves a complete answer to write first, the document with colorability undetermined
    monkeypatch.setattr(constant, value)
    assert main([a.format(k35=k35_file) for a in argv] + ["--json", "--deterministic"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    if argv[0] == "analyze" and constant == "propb.coloring.NODE_BUDGET":
        assert json.loads(captured.out)["analysis"]["colorable"] == "undetermined"
    else:
        assert captured.out == ""


# the CLI with a decider that may visit no node, so any analyze of an edge exits 3
_NO_DECIDER_NODES = "import sys, propb.cli, propb.coloring; propb.coloring.NODE_BUDGET = 0; sys.exit(propb.cli.main())"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, which fails every write")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "propb", "gen", "--kind", "fano"],
        ["-m", "propb", "verify", "--n", "2", "--max-p", "4", "--json"],
        ["-m", "propb", "analyze", "{k35}"],
        ["-m", "propb", "color", "{k35}", "--trials", "1"],
        # help goes through the same guarded write as every other output
        ["-m", "propb", "--help"],
        ["-m", "propb", "analyze", "--help"],
        # the decider's exit-3 error is lost with the output: one line, for the write
        ["-c", _NO_DECIDER_NODES, "analyze", "{k35}"],
    ],
    ids=["gen", "verify-json", "analyze", "color", "help", "analyze-help", "analyze-strict"],
)
def test_stdout_write_failure_exit_2(k35_file, argv, unbuffered):
    # buffered, the bytes a failed flush keeps must not fail again at interpreter shutdown
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(propb.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, *(a.format(k35=k35_file) for a in argv)],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write <stdout>: No space left on device\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["gen", "--kind", "clique", "--n", "8"], 0),
        (["analyze", "{k35}", "--json", "--deterministic"], 0),
        (["verify", "--n", "2", "--max-p", "5", "--json", "--deterministic", "--out", "s.jsonl"], 0),
        (["color", "{k35}", "--trials", "3"], 0),
        (["--help"], 0),
        (["analyze", "{k35}", "--bogus"], 2),
        (["verify", "--n", "3", "--max-p", "9"], 3),
    ],
    ids=["gen-120kb", "analyze", "verify-out", "color", "help", "unknown-option", "guard"],
)
def test_program_exit_loses_no_output(capsys, monkeypatch, tmp_path, k35_file, argv, code):
    # python -m propb ends in os._exit, so any output main left unflushed or unclosed would be lost;
    # stdout stays buffered, and the 120 KB gen output is more than a pipe buffer holds
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(propb.__file__))
    argv = [a.format(k35=k35_file) for a in argv]
    program, in_process = tmp_path / "program", tmp_path / "in-process"
    program.mkdir(), in_process.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "propb", *argv], cwd=program, capture_output=True, text=True, env=env,
    )
    monkeypatch.chdir(in_process)
    assert main(argv) == proc.returncode == code
    captured = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
    written = {path.name: path.read_bytes() for path in program.iterdir()}
    assert written == {path.name: path.read_bytes() for path in in_process.iterdir()}
    assert sorted(written) == (["s.jsonl"] if "--out" in argv else [])


_ATEXIT_THEN_PROGRAM = """
import atexit, runpy, sys
atexit.register(print, "atexit handler ran", file=sys.stderr)
runpy.run_module("propb", run_name="__main__")
"""


def test_program_exit_runs_no_atexit_handler(capsys):
    # the process ends without the interpreter's shutdown, yet with every byte of its buffered output
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(propb.__file__))
    argv = ["gen", "--kind", "fano"]
    proc = subprocess.run([sys.executable, "-c", _ATEXIT_THEN_PROGRAM, *argv], capture_output=True, text=True, env=env)
    assert main(argv) == proc.returncode == 0
    assert (proc.stdout, proc.stderr) == (capsys.readouterr().out, "")


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "clique", "--n", "12"],
            ["--kind", "clique", "--n", "1000000"],
            ["--kind", "padded", "--n", "12"],
            ["--kind", "padded", "--n", "3", "--extra-vertices", str(3 * 2**20), "--extra-edges", str(2**20)],
            ["--kind", "random", "--n", "3", "--p", "200", "--m", str(2**20 + 1)],
        ],
        ids=["clique", "clique-huge-n", "padded", "padded-extra-edges", "random"],
    )
    def test_over_the_edge_budget_exit_3_before_building(self, capsys, monkeypatch, argv):
        # C(23, 12) = 1,352,078 edges for the clique at n = 12; the budget is 2^20
        def refuse(*args, **kwargs):
            raise AssertionError("a hypergraph past the edge budget was built")

        for name in ("complete_hypergraph", "pad", "random_hypergraph"):
            monkeypatch.setattr(hypergraph, name, refuse)
        assert main(["gen", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {argv[1]} hypergraph has more than 1048576 edges, the gen budget\n"

    def test_random_counts_edges_without_the_exact_binomial(self, capsys, monkeypatch):
        # C(300, 150) has 89 digits; the count that --m and the edge budget read stops just past them
        comb = math.comb

        def small_comb(p, k):
            if k > 64:
                raise AssertionError(f"math.comb({p}, {k}) was computed")
            return comb(p, k)

        monkeypatch.setattr(math, "comb", small_comb)
        assert main(["gen", "--kind", "random", "--p", "300", "--n", "150", "--m", "1"]) == 0
        header, edge = capsys.readouterr().out.splitlines()
        assert header == "150 300 1"
        assert len(edge.split()) == 150

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
main(sys.argv[1:])
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


# prints without json, so that a command loading it shows
_NEWLY_LOADED = """
import sys
before = set(sys.modules)
from propb.cli import main
main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["analyze", "{k35}", "--json"],
        ["analyze", "{k35}", "--deterministic"],
        ["analyze", "{fano}", "--json"],
        ["enum", "{k35}", "--json", "--deterministic"],
        ["mc", "{k35}", "--trials", "10"],
        ["color", "{k35}", "--trials", "3"],
        ["gen", "--kind", "clique", "--n", "3"],
        ["verify", "--n", "2", "--max-p", "4"],
        ["verify", "--n", "2", "--max-p", "5", "--json", "--deterministic", "--out", "{out}"],
        ["verify", "--n", "3", "--fixtures", "--json"],
        ["verify", "--n", "3", "--fixtures", "--deterministic"],
        ["verify", "--n", "3", "--budget", "5", "--deterministic"],
        ["verify", "--n", "3", "--budget", "5", "--json", "--out", "{out}"],
    ],
    ids=[
        "help", "analyze", "analyze-deterministic", "analyze-fano", "enum-deterministic", "mc", "color", "gen",
        "census", "census-json-out", "fixtures", "fixtures-deterministic", "sampled-deterministic", "sampled-out",
    ],
)
def test_commands_load_only_the_stdlib_modules_they_use(k35_file, fano_file, tmp_path, argv):
    # counting only modules loaded after start-up keeps this independent of what site preloads
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(propb.__file__))}
    argv = [a.format(k35=k35_file, fano=fano_file, out=tmp_path / "s.jsonl") for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _NEWLY_LOADED, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert not loaded & {"dataclasses", "inspect", "typing"}
    # the command line is parsed from propb's own command table
    assert not loaded & {"argparse", "gettext", "locale", "textwrap"}
    # help reads the table alone: no input format, no hypergraph, no JSON writer
    if argv == ["--help"]:
        assert {m for m in loaded if m.startswith("propb")} == {"propb", "propb.cli", "propb.errors"}
        assert "_json" not in loaded
    # report writes every document and stream line itself; only a resumed verify --out reads JSON back
    assert "json" not in loaded
    # only a timestamped document reads the clock
    if "--deterministic" in argv or argv[0] == "color":
        assert "datetime" not in loaded
    # only the commands that read an input file hash it
    if argv[0] not in ("analyze", "enum", "mc"):
        assert "hashlib" not in loaded
    # input hashing uses the interpreter's builtin SHA-256, so no command loads OpenSSL
    assert "_hashlib" not in loaded
    # each command imports only the modules it runs; these three write no report document
    if argv[0] in ("--help", "color", "gen"):
        document = {"json", "fractions", "decimal", "propb.report", "propb.search", "propb.separation", "propb.setpairs"}
        assert not loaded & document
    # only a document holding a rational loads fractions: the census has none, nor the Fano plane's
    # analysis (m2 = 42 > 30, so no bollobas section)
    if argv[:3] == ["verify", "--n", "2"] or argv[:2] == ["analyze", fano_file]:
        assert not loaded & {"fractions", "decimal"}
    # the census decides by its own tables and runs none of the fixture pipeline
    if argv[:3] == ["verify", "--n", "2"]:
        assert not loaded & {"propb.coloring", "propb.separation"}
    # analyze off the bound builds no set-pair family
    if argv[:2] == ["analyze", fano_file]:
        assert not loaded & {"propb.separation", "propb.setpairs"}
    # mc reports its histogram's integers and divides nothing
    if argv[0] == "mc":
        assert not loaded & {"fractions", "decimal"}
    # enum divides m2 by bound(n) and separates no ordering, so it loads no coloring code
    if argv[0] == "enum":
        assert "propb.coloring" not in loaded
    # the separation sections are built in propb.separation, so report does not import it
    if argv[0] == "analyze":
        assert "propb.separation" not in loaded


def test_only_a_resumed_stream_loads_json(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(propb.__file__))}
    argv = ["verify", "--n", "2", "--max-p", "3", "--out", str(tmp_path / "s.jsonl")]
    first, resumed = (
        set(subprocess.run(
            [sys.executable, "-c", _NEWLY_LOADED, *argv], capture_output=True, text=True, env=env, check=True,
        ).stderr.split())
        for _ in range(2)
    )
    assert "json" not in first
    assert "json" in resumed


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
