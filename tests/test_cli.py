import json

import pytest

from propb import complete_hypergraph, fano_plane, pad, render
from propb.cli import main


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


class TestColor:
    def test_triangle_fixed_order(self, capsys, triangle_file):
        code = main(["color", triangle_file, "--order", "0,1,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "proper: no" in out
        assert "separated_witness: X=(0, 1) Y=(1, 2) meet=1" in out

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

    def test_bad_order_exit_1(self, capsys, triangle_file):
        code = main(["color", triangle_file, "--order", "0,0,1"])
        assert code == 1


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
        assert sep["estimate"] is True
        assert sep["success_rate"] == 1.0

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
    ],
)
def test_bad_arguments_exit_2(capsys, k35_file, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{k35}", k35_file) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("error: " + message)
    assert "Traceback" not in err


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

    def test_random_requires_p_m(self, capsys):
        code = main(["gen", "--kind", "random", "--n", "2"])
        assert code == 2

    def test_gen_analyze_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "fano.hg")
        main(["gen", "--kind", "fano", "--out", path])
        capsys.readouterr()
        code, doc = run_json(capsys, ["analyze", path, "--json"])
        assert code == 0
        assert doc["analysis"]["m2"] == 42
        assert doc["analysis"]["colorable"] == "no"
