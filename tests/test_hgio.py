import random

import pytest

from propb.errors import ParseError
from propb.hgio import parse, render
from propb.hypergraph import complete_hypergraph, fano_plane, normalize, pad

from conftest import random_instances


class TestRoundTrip:
    def test_k35(self, k35):
        text = render(k35)
        assert text.splitlines()[0] == "3 5 10"
        assert parse(text) == k35

    def test_random_instances(self):
        for H in random_instances(200, seed=71):
            assert parse(render(H)) == H

    def test_comments_and_blanks_ignored(self):
        text = "# a triangle\n\n2 3 3\n0 1\n# middle comment\n0 2\n\n1 2\n"
        assert parse(text) == complete_hypergraph(2)

    @pytest.mark.parametrize(
        "char",
        ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["vt", "ff", "fs", "gs", "rs", "nel", "line-sep", "para-sep"],
    )
    def test_only_newlines_end_a_line(self, char):
        # str.splitlines also breaks at these; a text-mode read of the file does not
        assert parse(f"# note{char}more\n2 3 1\n0 1\n") == normalize([[0, 1]], n=2, p=3)

    def test_unsorted_input_normalized(self):
        assert parse("2 3 3\n1 0\n2 0\n2 1\n") == complete_hypergraph(2)


class TestParseMatchesNormalize:
    """parse and normalize each build a Hypergraph from raw edges; they must agree."""

    @staticmethod
    def inputs():
        yield from random_instances(200, seed=72)
        for n in (2, 3, 4):
            K = complete_hypergraph(n)
            yield from (K, pad(K, n, 1), pad(K, n + 2, 1))
        yield fano_plane()

    def test_shuffled_renderings(self):
        rng = random.Random(73)
        for H in self.inputs():
            raw = [rng.sample(e, len(e)) for e in H.edges]
            rng.shuffle(raw)
            lines = ["# shuffled", "", f"{H.n} {H.p} {len(raw)}"]
            for e in raw:
                lines += rng.choice([[], [""], ["# comment"], ["  "]]) + [" ".join(map(str, e))]
            text = "\n".join(lines) + "\n"
            assert parse(text) == normalize(raw, n=H.n, p=H.p) == H


class TestParseErrors:
    def test_malformed_header(self):
        with pytest.raises(ParseError) as exc:
            parse("2 3\n0 1\n")
        assert exc.value.line == 1

    def test_header_not_integers(self):
        with pytest.raises(ParseError) as exc:
            parse("two 3 1\n0 1\n")
        assert exc.value.line == 1

    def test_wrong_arity(self):
        with pytest.raises(ParseError) as exc:
            parse("2 3 1\n0 1 2\n")
        assert exc.value.line == 2

    def test_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse("2 3 1\n0 7\n")
        assert exc.value.line == 2

    def test_repeated_vertex(self):
        with pytest.raises(ParseError) as exc:
            parse("2 3 1\n1 1\n")
        assert exc.value.line == 2

    def test_duplicate_edge(self):
        with pytest.raises(ParseError) as exc:
            parse("2 3 2\n0 1\n1 0\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            ("2 1_1 1\n0 1\n", 1),  # int() reads 1_1 as 11
            ("2 +3 1\n0 1\n", 1),
            ("2 \u0663 1\n0 1\n", 1),  # ARABIC-INDIC DIGIT THREE
            ("2 -3 1\n0 1\n", 1),  # a '-' still parses, so the range check names it
            ("2 11 1\n0 1_0\n", 2),
            ("2 3 1\n+0 1\n", 2),
            ("2 4 1\n0 \u0663\n", 2),
            ("2 3 1\n0 -1\n", 2),
        ],
        ids=["underscore-header", "plus-header", "arabic-indic-header", "negative-header",
             "underscore-edge", "plus-edge", "arabic-indic-edge", "negative-edge"],
    )
    def test_only_ascii_decimal_integers(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == line
        if "-" in text:
            assert "range" in str(exc.value)
        else:
            assert "integers" in str(exc.value)

    def test_too_few_edges(self):
        with pytest.raises(ParseError) as exc:
            parse("2 3 2\n0 1\n")
        assert "found 1" in str(exc.value)

    def test_too_many_edges(self):
        with pytest.raises(ParseError) as exc:
            parse("2 3 1\n0 1\n0 2\n")
        assert exc.value.line == 3

    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse("# only a comment\n")
        assert exc.value.line == 1

    def test_line_numbers_count_newlines_only(self):
        with pytest.raises(ParseError) as exc:
            parse("# a\x0cb\u2028c\r\n2 3 1\r0 7\n")
        assert exc.value.line == 3
        assert "range" in str(exc.value)

    def test_comment_lines_not_counted_as_edges(self):
        H = parse("3 7 2\n0 1 2\n# not an edge\n3 4 5\n")
        assert len(H.edges) == 2
