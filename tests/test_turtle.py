import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scopekit import terms, turtle
from scopekit.errors import (
    BlankNodePresentError,
    DocumentTooLargeError,
    ParseError,
    UndefinedPrefixError,
)
from scopekit.namespaces import RDF_NS
from scopekit.ntriples import serialize_ntriples_canonical
from scopekit.terms import (
    RDF_TYPE,
    SKOLEM_PREFIX,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    skolemize,
)
from scopekit.turtle import (
    MAX_DOCUMENT_BYTES,
    parse_turtle,
    serialize_turtle_canonical,
)

from helpers import (
    MIXED_NS,
    assert_one_object_per_term,
    iris_built,
    load_casegen,
    prefix_probe_iris,
    random_graph,
    random_mixed_graph,
    random_prefix_map,
    reference_abbreviate,
    term_objects,
)


EX = Iri("http://example.org/")


def t(s, p, o):
    return Triple(s, p, o)


class TestParser:
    def test_basic_statement(self):
        g = parse_turtle('<http://ex/s> <http://ex/p> "o" .')
        assert g.triples == {t(Iri("http://ex/s"), Iri("http://ex/p"), Literal("o"))}

    def test_prefixed_names_and_a(self):
        g = parse_turtle(
            "@prefix ex: <http://ex/> .\n"
            "ex:s a ex:Klass .\n")
        assert t(Iri("http://ex/s"), RDF_TYPE, Iri("http://ex/Klass")) in g
        assert g.prefixes == {"ex": Iri("http://ex/")}

    def test_empty_prefix_rejected(self):
        # prefix short-names need at least one character
        with pytest.raises(ParseError):
            parse_turtle("@prefix : <http://ex/> .\n:s :p :o .")

    def test_semicolon_and_comma_lists(self):
        g = parse_turtle(
            "@prefix ex: <http://ex/> .\n"
            'ex:s ex:p1 "a", "b" ;\n'
            "     ex:p2 ex:o .\n")
        assert len(g) == 3
        assert t(Iri("http://ex/s"), Iri("http://ex/p1"), Literal("b")) in g

    def test_trailing_semicolon_tolerated(self):
        g = parse_turtle('@prefix ex: <http://ex/> .\nex:s ex:p "a" ; .')
        assert len(g) == 1

    def test_datatype_and_lang(self):
        g = parse_turtle(
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            "@prefix ex: <http://ex/> .\n"
            'ex:s ex:p "2100-01-01T00:00:00Z"^^xsd:dateTime, "hallo"@de .\n')
        objs = {tr.object for tr in g}
        assert Literal("2100-01-01T00:00:00Z", XSD_DATETIME) in objs
        assert Literal("hallo", lang="de") in objs

    def test_schema_datatypes_are_the_terms_constants(self):
        g = parse_turtle(
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            '<http://ex/s> <http://ex/p> "2100-01-01T00:00:00Z"^^xsd:dateTime, "1.5"^^xsd:decimal,\n'
            '    "http://ex/"^^<http://www.w3.org/2001/XMLSchema#anyURI> .\n')
        datatypes = {tr.object.lexical: tr.object.datatype for tr in g}
        assert datatypes["2100-01-01T00:00:00Z"] is XSD_DATETIME
        assert datatypes["1.5"] is terms.XSD_DECIMAL
        assert datatypes["http://ex/"] is terms.XSD_ANYURI

    def test_bare_integer_and_boolean(self):
        g = parse_turtle("@prefix ex: <http://ex/> .\nex:s ex:n -42 ; ex:b true .")
        objs = {tr.object for tr in g}
        assert Literal("-42", XSD_INTEGER) in objs
        assert Literal("true", XSD_BOOLEAN) in objs

    def test_string_escapes(self):
        g = parse_turtle(r'<http://ex/s> <http://ex/p> "a\"b\\c\nd\teé\U0001F600" .')
        lit = next(iter(g)).object
        assert lit.lexical == 'a"b\\c\nd\teé\U0001F600'

    def test_comments_and_blank_lines(self):
        g = parse_turtle(
            "# leading comment\n\n"
            "@prefix ex: <http://ex/> . # trailing\n"
            'ex:s ex:p "o" . # done\n')
        assert len(g) == 1

    def test_labeled_blank_nodes(self):
        g = parse_turtle("_:a <http://ex/p> _:b .")
        tr = next(iter(g))
        assert tr.subject == BlankNode("a") and tr.object == BlankNode("b")

    def test_digit_leading_local_name(self):
        g = parse_turtle("@prefix ex: <http://ex/> .\nex:s ex:p ex:8camera .")
        assert t(Iri("http://ex/s"), Iri("http://ex/p"), Iri("http://ex/8camera")) in g

    def test_local_name_trailing_dot_backoff(self):
        # the statement dot must not be swallowed into the local name
        g = parse_turtle("@prefix ex: <http://ex/> .\nex:s ex:p ex:o.")
        assert t(Iri("http://ex/s"), Iri("http://ex/p"), Iri("http://ex/o")) in g

    def test_bytes_input(self):
        g = parse_turtle('<http://ex/s> <http://ex/p> "café" .'.encode("utf-8"))
        assert next(iter(g)).object.lexical == "café"


class TestParserErrors:
    def test_undefined_prefix_with_location(self):
        with pytest.raises(UndefinedPrefixError) as exc:
            parse_turtle('nope:s <http://ex/p> "o" .')
        assert exc.value.line == 1
        assert "nope" in str(exc.value)

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            parse_turtle("@prefix ex: <http://ex/> .\nex:s ex:p @ .\n")
        assert exc.value.line == 2
        assert exc.value.column > 0

    @pytest.mark.parametrize("doc", [
        "<http://ex/s> <http://ex/p> [ <http://ex/q> 1 ] .",
        "<http://ex/s> <http://ex/p> ( 1 2 ) .",
        "@base <http://ex/> .",
        '<http://ex/s> <http://ex/p> """multi""" .',
        '<http://ex/s> <http://ex/p> 1.5 .',
        '<http://ex/s> <http://ex/p> "open .',
        "<http://ex/s> <http://ex/p> .",
        "<http://ex/s> <http://ex/p> <http://ex/o>",
        '"lit" <http://ex/p> <http://ex/o> .',
        "@prefix 9x: <http://ex/> .",
    ])
    def test_rejected_constructs(self, doc):
        with pytest.raises(ParseError):
            parse_turtle(doc)

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ParseError):
            parse_turtle(b"\xff\xfe<http://ex/s>")

    def test_document_size_limit(self):
        with pytest.raises(DocumentTooLargeError):
            parse_turtle(b" " * (MAX_DOCUMENT_BYTES + 1))

    def test_control_char_in_iri(self):
        with pytest.raises(ParseError):
            parse_turtle("<http://ex/b\tad> <http://ex/p> <http://ex/o> .")


class TestSerializer:
    def test_canonical_layout(self):
        ex = Iri("http://ex/")
        g = Graph([
            t(Iri("http://ex/s"), RDF_TYPE, Iri("http://ex/K")),
            t(Iri("http://ex/s"), Iri("http://ex/p"), Literal("b")),
            t(Iri("http://ex/s"), Iri("http://ex/p"), Literal("a")),
            t(Iri("http://ex/r"), Iri("http://ex/p"), Literal("7", XSD_INTEGER)),
        ], {"ex": ex})
        # predicates sort by expanded IRI, so rdf:type (rendered 'a') follows ex:p
        assert serialize_turtle_canonical(g) == (
            "@prefix ex: <http://ex/> .\n"
            "\n"
            "ex:r ex:p 7 .\n"
            "\n"
            'ex:s ex:p "a", "b" ;\n'
            "    a ex:K .\n"
        )

    def test_empty_graph(self):
        assert serialize_turtle_canonical(Graph()) == ""
        assert serialize_turtle_canonical(Graph(prefixes={"ex": EX})) == (
            "@prefix ex: <http://example.org/> .\n")

    def test_insertion_order_independence(self):
        triples = [
            t(Iri("http://ex/s"), Iri("http://ex/p"), Literal(str(i)))
            for i in range(20)
        ]
        a = Graph(triples, {"ex": Iri("http://ex/")})
        b = Graph(list(reversed(triples)), {"ex": Iri("http://ex/")})
        assert serialize_turtle_canonical(a) == serialize_turtle_canonical(b)

    def test_blank_nodes_refused(self):
        g = Graph([t(BlankNode("b"), Iri("http://ex/p"), Literal("x"))])
        with pytest.raises(BlankNodePresentError):
            serialize_turtle_canonical(g)
        assert parse_turtle(serialize_turtle_canonical(skolemize(g))) == skolemize(g)

    def test_unabbreviatable_local_name_falls_back_to_full_iri(self):
        # ':' inside the local part cannot appear in a prefixed name
        weird = Iri("http://ex/a:b")
        g = Graph([t(weird, Iri("http://ex/p"), Literal("x"))], {"ex": Iri("http://ex/")})
        out = serialize_turtle_canonical(g)
        assert "<http://ex/a:b>" in out
        assert parse_turtle(out) == g

    def test_longest_namespace_wins(self):
        g = Graph(
            [t(Iri("http://ex/sub/name"), Iri("http://ex/p"), Literal("x"))],
            {"ex": Iri("http://ex/"), "sub": Iri("http://ex/sub/")})
        assert "sub:name" in serialize_turtle_canonical(g)

    def test_unsafe_boolean_lexical_not_bare(self):
        g = Graph([t(Iri("http://ex/s"), Iri("http://ex/p"), Literal("TRUE", XSD_BOOLEAN))])
        out = serialize_turtle_canonical(g)
        assert '"TRUE"' in out
        assert parse_turtle(out) == g


class TestPrefixTable:
    """The writer looks a prefix up by the IRI's stem and renders every IRI
    as the linear rule in helpers does: the longest namespace that leaves a
    safe local name, then the short-name that sorts first."""

    def test_each_iri_renders_as_the_linear_rule(self):
        rng = random.Random(2417)
        for _ in range(300):
            prefixes = random_prefix_map(rng)
            abbreviate = turtle._abbreviator(prefixes)
            for iri in prefix_probe_iris(rng):
                assert abbreviate(iri) == reference_abbreviate(iri, prefixes), (iri, prefixes)

    def test_written_text_is_the_linear_rules(self, monkeypatch):
        rng = random.Random(2418)
        cases = []
        for _ in range(40):
            iris = prefix_probe_iris(rng, 20)
            triples = [t(rng.choice(iris), rng.choice(iris), rng.choice(iris + [Literal("v")]))
                       for _ in range(30)]
            g = Graph(triples, random_prefix_map(rng))
            cases.append((g, serialize_turtle_canonical(g)))
        monkeypatch.setattr(turtle, "_abbreviator", lambda prefixes: (
            lambda iri: reference_abbreviate(iri, prefixes)))
        for g, text in cases:
            assert serialize_turtle_canonical(Graph(g.triples, g.prefixes)) == text
            assert parse_turtle(text) == g


WRITER_DIGESTS = Path(__file__).parent / "data" / "writer_digests.txt"
SPO = ("subject", "predicate", "object")


def writer_cases():
    """(name, graph) pairs for the pinned writer outputs: skolemized mixed
    graphs, whose equal terms are distinct objects and whose blocks mix
    literal kinds, every other one with prefixes that abbreviate them, and
    one 3.7k-triple generated case built term by term, without a parser."""
    rng = random.Random(20261019)
    for i in range(200):
        g = skolemize(random_mixed_graph(rng))
        prefixes = {"m": Iri(MIXED_NS), "sk": Iri(SKOLEM_PREFIX)} if i % 2 else {}
        yield f"mixed-{i}", Graph(g.triples, prefixes)
    casegen = load_casegen()
    yield "casegen-1", casegen.to_graph(casegen.generate_case(random.Random(1), 95).triples)


def writer_digests() -> str:
    """One line per writer case: its name and the SHA-256 of its canonical
    Turtle and of its canonical N-Triples."""
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return "".join(f"{name} {digest(serialize_turtle_canonical(g))} "
                   f"{digest(serialize_ntriples_canonical(g))}\n" for name, g in writer_cases())


class TestWriterPinned:
    """Both canonical writers' bytes on graphs where a writer that groups
    blocks on term identity, not equality, would split them."""

    def test_canonical_outputs_match_pinned_digests(self):
        assert writer_digests().splitlines() == WRITER_DIGESTS.read_text().splitlines()


class TestWriterReadsKeptOrder:
    """Canonical Turtle is one pass over the (s, p, o) order the graph keeps."""

    def test_one_pass_over_the_kept_order(self, scenario1, monkeypatch):
        rng = random.Random(7)
        graphs = [Graph(scenario1.triples, scenario1.prefixes)]
        graphs += [skolemize(random_mixed_graph(rng)) for _ in range(40)]

        def refuse(*args):
            raise AssertionError("the writer looked the graph up or sorted it again")

        ranking, keyed, rendered = [False], [], []
        term_ranks, sort_key, render = Graph.term_ranks, terms.term_sort_key, turtle._render_term

        def counted_ranks(self):
            ranking[0] = True
            try:
                return term_ranks(self)
            finally:
                ranking[0] = False

        def counted_key(term):
            assert ranking[0], "term_sort_key ran outside term_ranks"
            keyed.append(term)
            return sort_key(term)

        def counted_render(term, *args):
            rendered.append(term)
            return render(term, *args)

        monkeypatch.setattr(Graph, "scan", refuse)
        monkeypatch.setattr(Graph, "subjects", refuse)
        monkeypatch.setattr(Graph, "term_ranks", counted_ranks)
        monkeypatch.setattr(terms, "term_sort_key", counted_key)
        monkeypatch.setattr(turtle, "_render_term", counted_render)
        for g in graphs:
            keyed.clear()
            rendered.clear()
            serialize_turtle_canonical(g)
            objects = {id(x) for t in g for x in (t.subject, t.predicate, t.object)}
            assert len({id(term) for term in keyed}) == len(keyed) <= len(objects)
            assert len(set(rendered)) == len(rendered)
        # the writer left its order in the graph: reading it sorts nothing
        monkeypatch.setattr(Graph, "sorted_on_ranks", refuse)
        for g in graphs:
            assert len(g.sorted_rows(SPO)) == len(g)

    def test_rdf_type_is_a_only_as_a_predicate(self):
        # equal type IRIs as distinct objects: the predicate reads `a`, the
        # subject and the object the prefixed name
        kind = Iri(RDF_NS + "type")
        g = Graph([t(Iri(RDF_NS + "type"), Iri(RDF_NS + "type"), Iri(RDF_NS + "type")),
                   t(kind, Iri("http://ex/p"), kind), t(Iri("http://ex/s"), kind, RDF_TYPE)],
                  {"rdf": Iri(RDF_NS), "ex": Iri("http://ex/")})
        assert serialize_turtle_canonical(g) == (
            "@prefix ex: <http://ex/> .\n"
            "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
            "\n"
            "ex:s a rdf:type .\n"
            "\n"
            "rdf:type ex:p rdf:type ;\n"
            "    a rdf:type .\n")


class TestRoundTrip:
    def test_seeded_random_graphs(self):
        rng = random.Random(20260818)
        for _ in range(150):
            g = random_graph(rng, 60)
            text = serialize_turtle_canonical(g)
            assert parse_turtle(text) == g
            assert serialize_turtle_canonical(parse_turtle(text)) == text

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_parser_totality_text(self, doc):
        # arbitrary text never crashes the parser with anything unstructured
        try:
            parse_turtle(doc)
        except ParseError:
            pass

    @given(st.binary(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_parser_totality_bytes(self, doc):
        try:
            parse_turtle(doc)
        except ParseError:
            pass

    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_string_literal_round_trip(self, lexical):
        g = Graph([t(Iri("http://ex/s"), Iri("http://ex/p"), Literal(lexical))])
        assert parse_turtle(serialize_turtle_canonical(g)) == g


class TestTermInterning:
    """A parse builds one object per distinct term and keeps no table."""

    DOC = (
        "@prefix ex: <http://example.org/> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        'ex:a a ex:C ; ex:p <http://example.org/b>, _:n ; ex:q "x", 1, true, "t"@en .\n'
        "<http://example.org/b> rdf:type ex:C ; ex:p ex:a ;\n"
        '    ex:r "x"^^xsd:string, "1"^^xsd:integer, "true"^^xsd:boolean, "t"@EN ;\n'
        "    ex:s xsd:string, xsd:integer, <http://www.w3.org/2001/XMLSchema#boolean> .\n"
        '_:n ex:p ex:a, _:n ; ex:q "x", "t"@en .\n'
    )

    def test_equal_terms_are_one_object(self):
        g = parse_turtle(self.DOC)
        assert_one_object_per_term(g)
        ex = "http://example.org/"
        assert set(term_objects(g)) == {
            Iri(ex + "a"), Iri(ex + "b"), Iri(ex + "C"), Iri(ex + "p"), Iri(ex + "q"),
            Iri(ex + "r"), Iri(ex + "s"), RDF_TYPE, XSD_STRING, XSD_INTEGER, XSD_BOOLEAN,
            BlankNode("n"), Literal("x"), Literal("1", XSD_INTEGER),
            Literal("true", XSD_BOOLEAN), Literal("t", lang="en")}

    def test_each_distinct_iri_is_built_once(self, monkeypatch):
        k = 7
        lines = ["@prefix ex: <http://example.org/> ."]
        for i in range(140):
            s, p, o = i % k, i // k % k, i // k // k
            lines.append(f"ex:n{s} <http://example.org/n{p}> ex:n{o} .")
        g, built = iris_built(monkeypatch, parse_turtle, "\n".join(lines) + "\n")
        assert len(g) == 140
        # k node IRIs and the prefix IRI
        assert sorted(built) == ["http://example.org/"] + sorted(
            f"http://example.org/n{i}" for i in range(k))

    def test_redefined_prefix_gives_a_new_iri(self):
        g = parse_turtle(
            "@prefix ex: <http://one.example/> .\n"
            'ex:s ex:p ex:x, "v"^^ex:d .\n'
            "@prefix ex: <http://two.example/> .\n"
            'ex:s ex:p ex:x, "v"^^ex:d, <http://one.example/x> .\n')
        one, two = "http://one.example/", "http://two.example/"
        assert g == Graph([t(Iri(one + "s"), Iri(one + "p"), Iri(one + "x")),
                           t(Iri(one + "s"), Iri(one + "p"), Literal("v", Iri(one + "d"))),
                           t(Iri(two + "s"), Iri(two + "p"), Iri(two + "x")),
                           t(Iri(two + "s"), Iri(two + "p"), Literal("v", Iri(two + "d"))),
                           t(Iri(two + "s"), Iri(two + "p"), Iri(one + "x"))])
        assert g.prefixes == {"ex": Iri(two)}
        assert_one_object_per_term(g)

    @pytest.mark.parametrize("position,spellings,expected", [
        ("verb", ["a", "rdf:type", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"],
         RDF_TYPE),
        ("object", ["1", '"1"^^xsd:integer', '"1"^^<http://www.w3.org/2001/XMLSchema#integer>'],
         Literal("1", XSD_INTEGER)),
        ("object", ['"x"@EN', '"x"@en', '"x"@En'], Literal("x", lang="en")),
    ])
    @pytest.mark.parametrize("between", ["", "@prefix ex: <http://example.org/> .\n"])
    def test_spellings_of_a_term_are_one_object(self, position, spellings, expected, between):
        # each spelling is a text of its own; a @prefix between them empties
        # the parser's text memo, and the term is still the first object
        lines = ["@prefix ex: <http://example.org/> .",
                 "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .",
                 "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> ."]
        for i, spelling in enumerate(spellings * 2):
            statement = (f"ex:s{i} {spelling} ex:C ." if position == "verb"
                         else f"ex:s{i} ex:p {spelling} .")
            lines.append(between + statement)
        g = parse_turtle("\n".join(lines))
        assert len(g) == 2 * len(spellings)
        terms = [tr.predicate if position == "verb" else tr.object for tr in g]
        assert len({id(term) for term in terms}) == 1
        assert terms[0] == expected
        assert position == "object" or terms[0] is RDF_TYPE

    def test_parses_share_only_module_constants(self):
        first, second = parse_turtle(self.DOC), parse_turtle(self.DOC)
        assert first == second
        shared = {id(x) for x in term_objects(first)} & {id(x) for x in term_objects(second)}
        # only the terms.py constants that `a` and bare literals stand for
        constants = (RDF_TYPE, XSD_STRING, XSD_INTEGER, XSD_BOOLEAN)
        assert shared == {id(c) for c in constants}
