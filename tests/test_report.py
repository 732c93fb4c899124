import json
from fractions import Fraction

import pytest

from propb.report import to_json


def test_to_json_encodes_fractions_inside_lists_and_dicts():
    doc = {"a": [Fraction(1, 3)], "b": {"c": Fraction(4, 2)}}
    assert json.loads(to_json(doc)) == {"a": [{"den": 3, "num": 1}], "b": {"c": {"den": 1, "num": 2}}}


def test_to_json_rejects_other_types():
    with pytest.raises(TypeError):
        to_json({"a": {1, 2}})
