import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

import propb
from propb import report
from propb.cli import main
from propb.coloring import Colorability, exhaustive_decide
from propb.hgio import render
from propb.hypergraph import complete_hypergraph, fano_plane, normalize
from propb.report import analyze, to_json

from conftest import BLUE, RED, colors_of


def test_to_json_encodes_fractions_inside_lists_and_dicts():
    doc = {"a": [Fraction(1, 3)], "b": {"c": Fraction(4, 2)}}
    assert json.loads(to_json(doc)) == {"a": [{"den": 3, "num": 1}], "b": {"c": {"den": 1, "num": 2}}}


def test_to_json_rejects_other_types():
    with pytest.raises(TypeError):
        to_json({"a": {1, 2}})


# json.dumps is the slow oracle of the writer: to_json is json.dumps(value, sort_keys=True), indented by 2 or
# on one line, with a Fraction written as {"num", "den"} and any other type refused with the same TypeError;
# json.dumps also writes floats and non-str keys, which no document holds and to_json refuses


def _fraction(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _oracle(value, one_line=False):
    return json.dumps(value, indent=None if one_line else 2, sort_keys=True, default=_fraction) + "\n"


def _walk(value):
    """value and everything inside it, keys included."""
    yield value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _walk(k)
            yield from _walk(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _walk(v)


def _off_document(value) -> bool:
    """Whether value holds a float or a dict with a non-str key."""
    return any(
        isinstance(v, float) or isinstance(v, dict) and not all(isinstance(k, str) for k in v) for v in _walk(value)
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{k35}", "--json"],
        ["analyze", "{fano}", "--json", "--deterministic"],
        ["mc", "{k35}", "--trials", "50", "--seed", "3", "--json"],
        ["enum", "{k35}", "--json"],
        ["verify", "--n", "2", "--max-p", "5", "--json"],
        ["verify", "--n", "2", "--fixtures", "--json"],
        ["verify", "--n", "3", "--fixtures", "--json", "--deterministic"],
        ["verify", "--n", "3", "--budget", "20", "--json", "--deterministic"],
    ],
    ids=["analyze-extremal", "analyze-off-bound", "mc", "enum", "census", "fixtures-n2", "fixtures-n3", "sampler"],
)
def test_every_command_document_is_what_json_dumps_writes(capsys, monkeypatch, tmp_path, argv):
    paths = {}
    for name, H in (("k35", complete_hypergraph(3)), ("fano", fano_plane())):
        paths[name] = tmp_path / f"{name}.hg"
        paths[name].write_text(render(H))
    docs, real = [], report.to_json

    def spy(value, **layout):
        docs.append(value)
        return real(value, **layout)

    monkeypatch.setattr(report, "to_json", spy)
    assert main([a.format(**paths) for a in argv]) == 0
    (doc,) = docs
    assert capsys.readouterr().out == _oracle(doc)
    assert not any(isinstance(v, float) for v in _walk(doc))


_VALUES = [
    "plain",
    "\u00fc\u20ac \u2028 \U0001f600 \ud800",
    "\x00\x1f\x7f\"\\/\n\t\r\b\f",
    {},
    [],
    (),
    {"a": {}, "b": [[], {}], "c": ((),), "d": [[[1]]]},
    [True, 1, False, 0, None],
    {"true": True, "one": 1, "false": False, "zero": 0},
    2**100,
    -(2**70),
    0.1,
    1e16,
    -0.0,
    1e-7,
    123456789.0,
    2.5e-300,
    float("nan"),
    float("inf"),
    [float("-inf"), {"x": float("nan")}],
    [Fraction(1, 3), Fraction(-4, 6), Fraction(5)],
    {"x": (Fraction(7, 2),), "y": [[Fraction(0)]]},
    {1: "int", 10: "keys", -3: "sort numerically"},
    {2.5: 0, -1.0: 1},
    {True: 0, False: 1},
    {None: 0},
    Colorability.NO,
    {"b": 1, "a": {"d": [1, {"c": None}], "c": "z"}, "": "empty key"},
]


@pytest.mark.parametrize("value", _VALUES)
@pytest.mark.parametrize("one_line", [False, True], ids=["indented", "one-line"])
def test_to_json_writes_what_json_dumps_writes(value, one_line):
    if _off_document(value):
        with pytest.raises(TypeError):
            to_json(value, one_line=one_line)
    else:
        assert to_json(value, one_line=one_line) == _oracle(value, one_line)


def test_to_json_refuses_a_float_or_a_non_str_key_with_either_string_helper():
    # the keys are checked before any string helper sees them, so _json's absence changes no message
    script = (
        "import sys\n"
        "if sys.argv[1] == 'python': sys.modules['_json'] = None\n"
        "from propb import report\n"
        "for value in (1.5, [0, {'x': float('nan')}], {1: 'a'}, {'a': {True: 0}}, {None: 0}, {2.5: 0}, {(1,): 0}):\n"
        "    try:\n"
        "        report.to_json(value)\n"
        "    except TypeError as exc:\n"
        "        print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(propb.__file__))}
    c, python = (
        subprocess.run(
            [sys.executable, "-c", script, helper], capture_output=True, text=True, env=env, check=True
        ).stdout
        for helper in ("c", "python")
    )
    assert c == python == (
        "float is not JSON serializable\n"
        "float is not JSON serializable\n"
        "keys must be str, not int\n"
        "keys must be str, not bool\n"
        "keys must be str, not NoneType\n"
        "keys must be str, not float\n"
        "keys must be str, int, float, bool or None, not tuple\n"
    )


@pytest.mark.parametrize(
    "value",
    [{1, 2}, {"a": [object()]}, complex(1, 2), {"k": Decimal("1.5")}, b"bytes", {(1, 2): 0}, {1: 0, "a": 1}],
    ids=["set", "object", "complex", "decimal", "bytes", "tuple-key", "mixed-keys"],
)
def test_to_json_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as want:
        _oracle(value)
    with pytest.raises(TypeError) as got:
        to_json(value)
    assert str(got.value) == str(want.value)


def test_to_json_without_the_c_string_helper():
    # an interpreter without _json writes strings with json.encoder's Python version
    script = (
        "import json, sys\n"
        "sys.modules['_json'] = None\n"
        "from propb import report\n"
        "value = {'s': '\\u00fc\\x00\"', 'n': [15, None]}\n"
        "oracle = json.dumps(value, indent=2, sort_keys=True) + '\\n'\n"
        "print(report._string.__module__, report.to_json(value) == oracle)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(propb.__file__))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "json.encoder True\n"


def test_analyze_at_a_million_vertices_matches_its_six_vertex_relabelling():
    # two 3-edges at either end of p = 10^6: the work must follow the edges, not range(p)
    p = 10**6
    far = normalize([[0, 1, 2], [p - 3, p - 2, p - 1]], n=3, p=p)
    near = normalize([[0, 1, 2], [3, 4, 5]], n=3, p=6)
    start = time.perf_counter()
    analysis, bollobas = analyze(far)
    assert time.perf_counter() - start < 5
    assert (analysis, bollobas) == analyze(near)
    assert analysis["colorable"] == "yes" and analysis["m2"] == 0 and analysis["seymour_ok"] is False
    far_colors = colors_of(exhaustive_decide(far)[1], p)
    near_colors = colors_of(exhaustive_decide(near)[1], 6)
    covered = [0, 1, 2, p - 3, p - 2, p - 1]
    assert [far_colors[v] for v in covered] == list(near_colors)
    assert far_colors.count(BLUE) == p - list(near_colors).count(RED)
