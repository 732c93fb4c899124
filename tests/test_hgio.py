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

    def test_comment_lines_not_counted_as_edges(self):
        H = parse("3 7 2\n0 1 2\n# not an edge\n3 4 5\n")
        assert len(H.edges) == 2
