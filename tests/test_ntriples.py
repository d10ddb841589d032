import random

import pytest
from hypothesis import given, settings, strategies as st

from scopekit import ntriples
from scopekit.errors import BlankNodePresentError, DocumentTooLargeError, ParseError
from scopekit.ntriples import (
    MAX_DOCUMENT_BYTES,
    parse_ntriples,
    serialize_ntriples_canonical,
)
from scopekit.terms import (
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    skolemize,
)
from scopekit.turtle import parse_turtle, serialize_turtle_canonical

from helpers import assert_one_object_per_term, iris_built, random_graph, term_objects


def t(s, p, o):
    return Triple(s, p, o)


class TestParse:
    def test_basic_line(self):
        g = parse_ntriples('<http://ex/s> <http://ex/p> "o" .\n')
        assert g.triples == {t(Iri("http://ex/s"), Iri("http://ex/p"), Literal("o"))}

    def test_typed_and_lang_literals(self):
        g = parse_ntriples(
            '<http://ex/s> <http://ex/p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            '<http://ex/s> <http://ex/p> "x"@en-GB .\n')
        objs = {tr.object for tr in g}
        assert Literal("1", XSD_INTEGER) in objs
        assert Literal("x", lang="en-gb") in objs

    def test_blank_nodes(self):
        g = parse_ntriples("_:a <http://ex/p> _:b .")
        assert g.has_blank_nodes()

    def test_comments_blank_lines_trailing_comment(self):
        g = parse_ntriples(
            "# header\n"
            "\n"
            '<http://ex/s> <http://ex/p> "o" . # trailing\n')
        assert len(g) == 1

    @pytest.mark.parametrize("doc", [
        '<http://ex/s> <http://ex/p> "o"',          # no terminal dot
        '<http://ex/s> <http://ex/p> .',            # missing object
        '<http://ex/s> "lit" <http://ex/o> .',      # literal predicate
        'ex:s <http://ex/p> <http://ex/o> .',       # prefixed names not in format
        '<http://ex/s> <http://ex/p> "a" "b" .',    # trailing term
        '<relative> <http://ex/p> <http://ex/o> .', # schemeless IRI
    ])
    def test_malformed_lines(self, doc):
        with pytest.raises(ParseError):
            parse_ntriples(doc)

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_ntriples('<http://ex/s> <http://ex/p> "ok" .\nbroken\n')
        assert exc.value.line == 2

    @pytest.mark.parametrize("suffix", ["^^<relative>", "@toolongtag1"])
    def test_a_fault_in_the_string_comes_before_one_in_its_suffix(self, suffix):
        with pytest.raises(ParseError) as exc:
            parse_ntriples(f'<http://ex/s> <http://ex/p> "a\\uD800"{suffix} .')
        assert "escape \\uD800 is not a Unicode scalar value" in str(exc.value)
        assert (exc.value.line, exc.value.column) == (1, 31)

    def test_size_limit(self):
        with pytest.raises(DocumentTooLargeError):
            parse_ntriples(b" " * (MAX_DOCUMENT_BYTES + 1))

    @pytest.mark.parametrize("parse", [parse_ntriples, parse_turtle])
    @pytest.mark.parametrize("doc", ["# xxxxxxx", "# \u00e9\u00e9\u00e9\u00e9"])
    def test_size_limit_of_text_counts_utf8_bytes(self, monkeypatch, parse, doc):
        # 9 characters, or 6 characters in 10 bytes, against a limit of 8 bytes
        monkeypatch.setattr(ntriples, "MAX_DOCUMENT_BYTES", 8)
        with pytest.raises(DocumentTooLargeError) as exc:
            parse(doc)
        assert str(exc.value) == "document exceeds 8 bytes"
        assert len(parse(doc[:-1])) == 0  # 8 bytes or fewer


class TestSerialize:
    def test_lines_sorted_bytewise(self):
        g = Graph([
            t(Iri("http://ex/b"), Iri("http://ex/p"), Literal("1")),
            t(Iri("http://ex/a"), Iri("http://ex/p"), Literal("2")),
        ])
        out = serialize_ntriples_canonical(g)
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert out.endswith(".\n")

    def test_xsd_string_datatype_omitted(self):
        g = Graph([t(Iri("http://ex/s"), Iri("http://ex/p"), Literal("o", XSD_STRING))])
        assert serialize_ntriples_canonical(g) == '<http://ex/s> <http://ex/p> "o" .\n'

    def test_empty_graph(self):
        assert serialize_ntriples_canonical(Graph()) == ""
        assert parse_ntriples("") == Graph()

    def test_blank_nodes_refused(self):
        g = Graph([t(BlankNode("b"), Iri("http://ex/p"), Literal("x"))])
        with pytest.raises(BlankNodePresentError):
            serialize_ntriples_canonical(g)

    def test_prefix_map_does_not_leak_into_output(self):
        g = Graph([t(Iri("http://ex/s"), Iri("http://ex/p"), Iri("http://ex/o"))],
                  {"ex": Iri("http://ex/")})
        assert "@prefix" not in serialize_ntriples_canonical(g)
        assert "ex:" not in serialize_ntriples_canonical(g)


class TestRoundTripAndCrossFormat:
    def test_seeded_random_graphs(self):
        rng = random.Random(404)
        for _ in range(150):
            g = random_graph(rng, 60)
            text = serialize_ntriples_canonical(g)
            assert parse_ntriples(text) == g
            assert serialize_ntriples_canonical(parse_ntriples(text)) == text

    def test_cross_format_equality(self):
        rng = random.Random(405)
        for _ in range(50):
            g = random_graph(rng, 40)
            via_nt = parse_ntriples(serialize_ntriples_canonical(g))
            via_ttl = parse_turtle(serialize_turtle_canonical(g))
            assert via_nt == via_ttl == g

    def test_skolemized_blank_graphs_round_trip(self):
        rng = random.Random(406)
        for _ in range(30):
            g = skolemize(random_graph(rng, 40, blanks=True))
            assert parse_ntriples(serialize_ntriples_canonical(g)) == g

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_parser_totality(self, doc):
        try:
            parse_ntriples(doc)
        except ParseError:
            pass


class TestTermInterning:
    """A parse builds one object per distinct term and keeps no table."""

    EX = "http://example.org/"
    XSD = "http://www.w3.org/2001/XMLSchema#"
    DOC = (
        f'<{EX}a> <{EX}p> <{EX}b> .\n'
        f'<{EX}b> <{EX}p> <{EX}a> .\n'
        f'<{EX}a> <{EX}q> _:n .\n'
        f'_:n <{EX}p> _:n .\n'
        f'<{EX}a> <{EX}r> "x" .\n'
        f'<{EX}b> <{EX}r> "x"^^<{XSD}string> .\n'
        f'<{EX}a> <{EX}s> "1"^^<{XSD}integer> .\n'
        f'<{EX}b> <{EX}s> "1"^^<{XSD}integer> .\n'
        f'<{EX}a> <{EX}t> "t"@en .\n'
        f'<{EX}b> <{EX}t> "t"@EN .\n'
        f'_:n <{EX}t> "t"@en .\n'
        f'<{EX}a> <{EX}u> <{XSD}string> .\n'
        f'<{EX}b> <{EX}u> <{XSD}integer> .\n'
    )

    def test_equal_terms_are_one_object(self):
        g = parse_ntriples(self.DOC)
        assert_one_object_per_term(g)
        ex, xsd = self.EX, self.XSD
        assert set(term_objects(g)) == {
            Iri(ex + "a"), Iri(ex + "b"), BlankNode("n"), Iri(xsd + "string"),
            Iri(xsd + "integer"), *(Iri(ex + p) for p in "pqrstu"),
            Literal("x"), Literal("1", XSD_INTEGER), Literal("t", lang="en")}

    def test_each_distinct_iri_is_built_once(self, monkeypatch):
        k = 7
        doc = "".join(f"<{self.EX}n{i % k}> <{self.EX}n{i // k % k}> <{self.EX}n{i // k // k}> .\n"
                      for i in range(140))
        g, built = iris_built(monkeypatch, parse_ntriples, doc)
        assert len(g) == 140
        assert sorted(built) == sorted(f"{self.EX}n{i}" for i in range(k))

    def test_parses_share_only_module_constants(self):
        first, second = parse_ntriples(self.DOC), parse_ntriples(self.DOC)
        assert first == second
        shared = {id(x) for x in term_objects(first)} & {id(x) for x in term_objects(second)}
        # only the shared constants the document uses: two of its datatypes
        assert shared == {id(XSD_STRING), id(XSD_INTEGER)}
