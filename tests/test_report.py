import json
import time
from fractions import Fraction

import pytest

from propb.coloring import Color, exhaustive_decide
from propb.hypergraph import normalize
from propb.report import analyze, to_json


def test_to_json_encodes_fractions_inside_lists_and_dicts():
    doc = {"a": [Fraction(1, 3)], "b": {"c": Fraction(4, 2)}}
    assert json.loads(to_json(doc)) == {"a": [{"den": 3, "num": 1}], "b": {"c": {"den": 1, "num": 2}}}


def test_to_json_rejects_other_types():
    with pytest.raises(TypeError):
        to_json({"a": {1, 2}})


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
    far_colors = exhaustive_decide(far)[1].colors
    near_colors = exhaustive_decide(near)[1].colors
    covered = [0, 1, 2, p - 3, p - 2, p - 1]
    assert [far_colors[v] for v in covered] == list(near_colors)
    assert far_colors.count(Color.BLUE) == p - list(near_colors).count(Color.RED)
