"""Pattern joins, filters, the text syntax, and oracle equivalence."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
import warnings
from itertools import permutations, product
from pathlib import Path

import pytest

from conftest import fixture_text
from helpers import (
    naive_run_query,
    random_filtered_patterns,
    random_mixed_graph,
    random_patterns,
    random_query_graph,
)
from scopekit.errors import (
    MalformedVariableError,
    QueryTextError,
    QueryTooLargeError,
    UnboundFilterVariableError,
    UnsupportedRegexError,
)
from scopekit.query import (
    BindingTable,
    Pattern,
    Variable,
    check_regex,
    count,
    parse_query,
    run_query,
    run_text_query,
)
from scopekit import query, terms
from scopekit.namespaces import PROP_PERFORMED_BY
from scopekit.ntriples import render_triple
from scopekit.terms import RDF_TYPE, BlankNode, Graph, Iri, Literal, Triple, term_sort_key
from scopekit.turtle import parse_turtle

EX = "http://example.org/q/"


def iri(s):
    return Iri(EX + s)


def v(name):
    return Variable(name)


def graph_term_objects(g):
    """The term objects in g's triples, by id."""
    return {id(x): x for t in g for x in (t.subject, t.predicate, t.object)}


@pytest.fixture()
def people():
    t = [
        Triple(iri("ann"), iri("knows"), iri("bob")),
        Triple(iri("bob"), iri("knows"), iri("cey")),
        Triple(iri("ann"), iri("age"), Literal("41", Iri("http://www.w3.org/2001/XMLSchema#integer"))),
        Triple(iri("bob"), iri("age"), Literal("29", Iri("http://www.w3.org/2001/XMLSchema#integer"))),
        Triple(iri("ann"), RDF_TYPE, iri("Person")),
        Triple(iri("bob"), RDF_TYPE, iri("Person")),
        Triple(iri("cey"), RDF_TYPE, iri("Robot")),
    ]
    return Graph(t)


class TestRunQuery:
    def test_single_wildcard_pattern_returns_graph(self, people):
        table = run_query(people, [Pattern(v("s"), v("p"), v("o"))])
        assert table.columns == ("o", "p", "s")
        assert len(table) == len(people)

    def test_bound_terms_select(self, people):
        table = run_query(people, [Pattern(v("who"), RDF_TYPE, iri("Person"))])
        assert [r[0] for r in table.rows] == [iri("ann"), iri("bob")]

    def test_join_on_shared_variable(self, people):
        table = run_query(people, [
            Pattern(v("x"), iri("knows"), v("y")),
            Pattern(v("y"), RDF_TYPE, iri("Robot")),
        ])
        assert table.columns == ("x", "y")
        assert table.rows == ((iri("bob"), iri("cey")),)

    def test_join_order_does_not_matter(self, people):
        a = [Pattern(v("x"), iri("knows"), v("y")),
             Pattern(v("y"), RDF_TYPE, iri("Robot"))]
        assert run_query(people, a) == run_query(people, list(reversed(a)))

    def test_repeated_variable_within_pattern(self):
        g = Graph([
            Triple(iri("n1"), iri("self"), iri("n1")),
            Triple(iri("n1"), iri("self"), iri("n2")),
        ])
        table = run_query(g, [Pattern(v("x"), iri("self"), v("x"))])
        assert table.rows == ((iri("n1"),),)

    def test_rows_unique(self, people):
        table = run_query(people, [Pattern(v("x"), v("p"), v("o")),
                                   Pattern(v("x"), RDF_TYPE, iri("Person"))])
        assert len(table.rows) == len(set(table.rows))
        assert len(table) > 0

    def test_rows_canonically_sorted(self, people):
        from scopekit.terms import term_sort_key
        table = run_query(people, [Pattern(v("s"), v("p"), v("o"))])
        keys = [tuple(term_sort_key(t) for t in row) for row in table.rows]
        assert keys == sorted(keys)

    def test_unmatched_pattern_gives_empty_table(self, people):
        table = run_query(people, [Pattern(v("s"), iri("absent"), v("o"))])
        assert table.rows == ()
        assert table.columns == ("o", "s")

    def test_count_matches_len(self, people):
        patterns = [Pattern(v("s"), v("p"), v("o"))]
        assert count(people, patterns) == len(run_query(people, patterns))

    def test_blank_nodes_can_bind(self):
        g = Graph([Triple(BlankNode("b0"), iri("p"), Literal("x"))])
        table = run_query(g, [Pattern(v("s"), iri("p"), Literal("x"))])
        assert table.rows == ((BlankNode("b0"),),)


class TestFilters:
    def test_filter_on_literal_lexical(self, people):
        table = run_query(people, [Pattern(v("s"), iri("age"), v("n"))],
                          [("n", "^4")])
        # columns come back alphabetically: n before s
        assert table.rows == ((
            Literal("41", Iri("http://www.w3.org/2001/XMLSchema#integer")),
            iri("ann")),)

    def test_filter_on_iri_value(self, people):
        table = run_query(people, [Pattern(v("s"), iri("knows"), v("o"))],
                          [("o", "cey$")])
        assert table.rows == ((iri("cey"), iri("bob")),)

    def test_filter_accepts_question_mark_prefix(self, people):
        plain = run_query(people, [Pattern(v("s"), iri("knows"), v("o"))], [("o", "cey")])
        marked = run_query(people, [Pattern(v("s"), iri("knows"), v("o"))], [("?o", "cey")])
        assert plain == marked

    def test_filter_on_blank_label(self):
        g = Graph([Triple(BlankNode("fin"), iri("p"), Literal("x")),
                   Triple(BlankNode("raw"), iri("p"), Literal("x"))])
        table = run_query(g, [Pattern(v("s"), iri("p"), v("o"))], [("s", "^fin$")])
        assert table.rows == ((Literal("x"), BlankNode("fin")),)

    def test_filters_are_a_final_pass(self, people):
        # filtering afterwards by hand gives the same rows
        patterns = [Pattern(v("s"), v("p"), v("o"))]
        table = run_query(people, patterns, [("s", "ann")])
        unfiltered = run_query(people, patterns)
        col = unfiltered.columns.index("s")
        kept = tuple(r for r in unfiltered.rows if "ann" in r[col].value)
        assert table.rows == kept

    def test_unbound_filter_variable_rejected(self, people):
        with pytest.raises(UnboundFilterVariableError):
            run_query(people, [Pattern(v("s"), v("p"), v("o"))], [("zzz", "x")])


class TestVariableAndRegexValidation:
    @pytest.mark.parametrize("bad", ["", "1x", "-x", "x y", "?x", "så"])
    def test_bad_variable_names(self, bad):
        with pytest.raises(MalformedVariableError):
            Variable(bad)

    def test_variable_name_with_trailing_newline_rejected(self):
        with pytest.raises(MalformedVariableError):
            Variable("x\n")

    def test_literal_predicate_rejected(self):
        with pytest.raises(MalformedVariableError):
            Pattern(v("s"), Literal("p"), v("o"))

    def test_empty_pattern_list_rejected(self, people):
        with pytest.raises(MalformedVariableError):
            run_query(people, [])

    @pytest.mark.parametrize("good", [
        "abc", "^http", r"\d+", "a|b", "(ab)+c?", "[a-z0-9]*$", r"\.", r"\\",
        "colou?r", "[^x]",
    ])
    def test_supported_regexes(self, good):
        assert check_regex(good) is not None

    @pytest.mark.parametrize("bad", [
        "a{2,3}",        # counted repetition
        "(?i)x",         # extension group
        "(?:x)",         # extension group
        r"(a)\1",        # backreference
        "[abc",          # unterminated class
        "a\\",           # trailing backslash
        "(a",            # unbalanced group (re.error)
    ])
    def test_rejected_regexes(self, bad):
        with pytest.raises(UnsupportedRegexError):
            check_regex(bad)

    def test_curly_inside_class_is_fine(self):
        assert check_regex("[{}]") is not None

    @pytest.mark.parametrize("text,member", [
        ("[]{}]", "]"),
        ("[]{}]", "{"),
        ("[^]{}]", "x"),
        ("[](?x)]", "("),
        ("[](?x)]", "]"),
    ])
    def test_bracket_first_in_class_is_a_member(self, text, member):
        # re reads a ']' right after '[' or '[^' as a literal member, so what
        # follows it is still inside the class
        assert check_regex(text).fullmatch(member)

    @pytest.mark.parametrize("bad", ["[]", "[^]", "[]a", "[]]{2}", "[^]](?i)"])
    def test_bracket_first_in_class_does_not_close_it(self, bad):
        with pytest.raises(UnsupportedRegexError):
            check_regex(bad)

    @pytest.mark.parametrize("action", ["ignore", "default", "error"])
    @pytest.mark.parametrize("ambiguous", ["[[a]", "x[a--b]", "x[a&&b]", "x[a||b]", "x[a~~b]"])
    def test_regexes_re_warns_about_are_rejected(self, ambiguous, action):
        # re reads these today but warns that a later Python may not; the
        # verdict does not depend on the caller's warning filters
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(UnsupportedRegexError, match="ambiguous filter regex: Possible"):
                check_regex(ambiguous)

    def test_verdict_does_not_depend_on_re_s_cache(self):
        # re compiles a cached pattern without parsing it, so without warning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            re.compile("[[b]")
            re.compile("x[a&&c]")
        for ambiguous in ("[[b]", "x[a&&c]"):
            with pytest.raises(UnsupportedRegexError, match="ambiguous filter regex: Possible"):
                check_regex(ambiguous)

    def test_rejects_exactly_what_re_warns_about_or_cannot_compile(self):
        # every class text of up to five members over the characters that
        # open, close, negate, range or double up in a class, against re's own
        # parse, its pattern cache cleared
        alphabet = ["[", "]", "^", "-", "&", "|", "a", r"\-"]
        for text in ("[" + "".join(p) for n in range(6) for p in product(alphabet, repeat=n)):
            re.purge()
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                try:
                    re.compile(text)
                    fails = False
                except re.error:
                    fails = True
            ambiguous = any(w.category is FutureWarning for w in warned)
            try:
                check_regex(text)
                verdict = None
            except UnsupportedRegexError as exc:
                verdict = str(exc)
            assert (verdict is not None) == (ambiguous or fails), text
            if ambiguous and not fails:
                assert verdict.startswith("ambiguous filter regex: Possible"), text


class TestTextSyntax:
    def test_basic_text_query(self, people):
        text = """
        # who knows whom
        ?x <http://example.org/q/knows> ?y
        """
        table = run_text_query(people, text)
        assert table.columns == ("x", "y")
        assert len(table) == 2

    def test_prefixed_names_and_a(self, people):
        text = "?who a q:Person"
        table = run_text_query(people, text, prefixes={"q": Iri(EX)})
        assert [r[0] for r in table.rows] == [iri("ann"), iri("bob")]

    def test_standard_prefixes_available(self, scenario1):
        table = run_text_query(scenario1, "?c a case-investigation:Incident")
        assert len(table) == 1

    def test_filter_line(self, people):
        text = ("?s <http://example.org/q/age> ?n\n"
                "FILTER ?n /^4/\n")
        table = run_text_query(people, text)
        assert len(table) == 1

    def test_filter_regex_with_escaped_slash(self, people):
        g = Graph([Triple(iri("s"), iri("p"), Literal("a/b"))])
        table = run_text_query(g, "?s <http://example.org/q/p> ?o\nFILTER ?o /a\\/b/")
        assert len(table) == 1

    def test_literal_terms(self, people):
        table = run_text_query(people, '?s <http://example.org/q/age> "29"^^xsd:integer')
        assert [r[0] for r in table.rows] == [iri("bob")]

    def test_integer_shorthand(self, people):
        table = run_text_query(people, "?s <http://example.org/q/age> 29")
        assert [r[0] for r in table.rows] == [iri("bob")]

    def test_parse_query_returns_patterns_and_filters(self):
        patterns, filters = parse_query("?s ?p ?o\nFILTER ?s /x/\n")
        assert patterns == [Pattern(v("s"), v("p"), v("o"))]
        assert filters == [("s", "x")]

    @pytest.mark.parametrize("bad,lineno", [
        ("?s ?p", 1),                       # two terms
        ("?s ?p ?o ?extra", 1),             # four terms
        ("?s ?p ?o\nzz: ?p ?o", 2),         # unknown prefix
        ('?s ?p "unterminated', 1),         # bad string
        ("?s 'single' ?o", 1),              # unsupported quoting
        ("FILTER ?v /x", 1),                # unclosed regex
        ("", 0),                            # no patterns at all
        ("# only a comment\n", 0),          # no patterns at all
        ('?s ?p "a\u2028b"\n?s ?p', 2),    # lines end only at LF
    ])
    def test_text_errors_carry_line(self, bad, lineno):
        with pytest.raises(QueryTextError) as err:
            parse_query(bad)
        if lineno:
            assert err.value.line == lineno

    def test_filter_before_any_pattern_still_checked(self, people):
        with pytest.raises(UnboundFilterVariableError):
            run_text_query(people, "?s ?p ?o\nFILTER ?nope /x/")


class TestTsv:
    def test_tsv_shape(self, people):
        table = run_query(people, [Pattern(v("s"), iri("age"), v("n"))])
        lines = table.to_tsv().splitlines()
        assert lines[0] == "?n\t?s"
        assert lines[1] == ('"29"^^<http://www.w3.org/2001/XMLSchema#integer>'
                            "\t<http://example.org/q/bob>")
        assert len(lines) == 3

    def test_empty_table_is_header_only(self, people):
        table = run_query(people, [Pattern(v("s"), iri("absent"), v("o"))])
        assert table.to_tsv() == "?o\t?s\n"


class TestOracleEquivalence:
    def test_seeded_cases_match_naive_evaluator(self):
        rng = random.Random(4242)
        for _ in range(300):
            g = random_query_graph(rng)
            patterns, filters = random_patterns(rng)
            try:
                table = run_query(g, patterns, filters)
            except UnboundFilterVariableError:
                pytest.fail("random_patterns only filters bound variables")
            columns, rows = naive_run_query(g, patterns, filters)
            assert tuple(columns) == table.columns
            assert tuple(rows) == table.rows

    def test_pattern_order_invariance_random(self):
        rng = random.Random(77)
        for _ in range(100):
            g = random_query_graph(rng)
            patterns, filters = random_patterns(rng, max_patterns=3)
            shuffled = patterns[:]
            rng.shuffle(shuffled)
            assert run_query(g, patterns, filters) == run_query(g, shuffled, filters)


class TestMixedTermDifferential:
    """Columns mix every kind of term with shared lexical forms, equal terms
    are distinct objects, and up to three filters stack on a query."""

    def test_matches_naive_evaluator_and_count(self):
        rng = random.Random(2718)
        filtered_rows = 0
        for _ in range(500):
            g = random_mixed_graph(rng)
            patterns, filters = random_filtered_patterns(rng)
            table = run_query(g, patterns, filters)
            columns, rows = naive_run_query(g, patterns, filters)
            assert (table.columns, table.rows) == (columns, rows)
            assert count(g, patterns, filters) == len(table)
            filtered_rows += bool(filters) and len(table) > 0
        assert filtered_rows >= 60


class TestFullScanDifferential:
    """A full scan (one pattern, three distinct variables) reads the graph's
    kept order of its columns. It equals the join path, which sorts its rows
    (the same pattern twice), and the naive evaluator, for every order of the
    names and a filter on each position."""

    FIXTURE_REGEXES = ("[0-4]$", "(name|Time)$", "^[A-Z]")  # s, p, o

    @staticmethod
    def queries(regexes):
        for names in permutations("abc"):
            p = Pattern(*map(Variable, names))
            yield p, []
            for name, regex in zip(names, regexes):
                yield p, [("?" + name, regex)]

    @staticmethod
    def check(g, p, filters):
        table = run_query(g, [p], filters)
        assert table == run_query(g, [p, p], filters)
        assert (table.columns, table.rows) == naive_run_query(g, [p], filters)
        assert count(g, [p], filters) == len(table)
        return table

    def test_fixtures(self, scenario1, scenario2, scenario3):
        for g in (scenario1, scenario2, scenario3):
            sizes = [len(self.check(g, p, f)) for p, f in self.queries(self.FIXTURE_REGEXES)]
            assert sizes.count(len(g)) == 6 and all(0 < n < len(g) for n in sizes if n != len(g))

    def test_random_mixed_graphs(self):
        from helpers import MIXED_REGEXES

        rng = random.Random(31)
        for _ in range(60):
            g = random_mixed_graph(rng)
            regexes = [rng.choice(MIXED_REGEXES) for _ in range(3)]
            for p, f in self.queries(regexes):
                self.check(g, p, f)

    def test_copies_of_a_graph_with_kept_orders(self, monkeypatch):
        g = parse_turtle(fixture_text("scenario1"))
        queries = list(self.queries(self.FIXTURE_REGEXES))
        want = [run_query(g, [p], f) for p, f in queries]
        orders = list(permutations(("subject", "predicate", "object")))
        tables = [g.sorted_rows(order) for order in orders]
        for other in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert [run_query(other, [p], f) for p, f in queries] == want
            terms_of_other = {id(x) for t in other for x in (t.subject, t.predicate, t.object)}
            for order, table in zip(orders, tables):
                rows = other.sorted_rows(order)
                assert rows == table and rows is not table
                assert not {id(row) for row in rows} & {id(row) for row in table}
                assert {id(x) for row in rows for x in row} == terms_of_other
        # g reads its kept orders: no rank table, no sort key
        monkeypatch.setattr(Graph, "term_ranks", None)
        monkeypatch.setattr(terms, "term_sort_key", None)
        assert [run_query(g, [p], f) for p, f in queries] == want


class TestKeptRowTable:
    """A full scan returns the row table the graph keeps for the order of its
    columns, or rows picked from it: after the first scan it builds no row."""

    ORDER = ("object", "predicate", "subject")  # ?s ?p ?o: columns o, p, s

    def test_a_plain_scan_returns_the_kept_table(self):
        g = parse_turtle(fixture_text("scenario1"))
        first = run_text_query(g, "?s ?p ?o")
        assert first.rows is run_text_query(g, "?s ?p ?o").rows is g.sorted_rows(self.ORDER)
        rows = ((t.object, t.predicate, t.subject) for t in g)
        assert first.rows == tuple(sorted(rows, key=lambda row: tuple(map(term_sort_key, row))))

    def test_filtered_rows_are_rows_of_the_table(self, monkeypatch):
        g = parse_turtle(fixture_text("scenario1"))
        table = {id(row) for row in g.sorted_rows(self.ORDER)}
        want = {text: run_text_query(g, text) for text in (
            "?s ?p ?o\nFILTER ?p /name$/", "?s ?p ?o\nFILTER ?o /^[A-Z]/\nFILTER ?s /[0-4]$/")}
        for got in want.values():
            assert 0 < len(got) < len(g)
            assert {id(row) for row in got.rows} <= table
        # the kept table serves every later scan: no rank, no sorted order
        monkeypatch.setattr(Graph, "term_ranks", None)
        monkeypatch.setattr(Graph, "sorted_on_ranks", None)
        assert {text: run_text_query(g, text) for text in want} == want

    @pytest.mark.parametrize("column", range(3))
    def test_the_regex_runs_once_per_distinct_term_of_its_column(self, monkeypatch, column):
        calls = []
        original = query._filter_text
        monkeypatch.setattr(query, "_filter_text", lambda t: calls.append(t) or original(t))
        rng = random.Random(40 + column)
        for g in (parse_turtle(fixture_text("scenario1")), random_mixed_graph(rng, 80)):
            var = "ops"[column]
            calls.clear()
            table = run_text_query(g, f"?s ?p ?o\nFILTER ?{var} /./")
            assert table.rows == g.sorted_rows(self.ORDER)
            assert sorted(calls, key=term_sort_key) == sorted(
                {row[column] for row in table.rows}, key=term_sort_key)


class TestLookupsPerKey:
    """A join plans its patterns by selectivity without a lookup, and looks
    each distinct binding of a pattern's bound cells up once."""

    PERFORMED = "?a case-investigation:performedBy ?p"
    NAMED = "?p uco-core:name ?n"

    @staticmethod
    def scans_of(monkeypatch, g, text):
        scans = []
        original = Graph.scan
        monkeypatch.setattr(Graph, "scan", lambda g, *a: scans.append(a) or original(g, *a))
        table = run_text_query(g, text)
        monkeypatch.undo()
        return table, scans

    @pytest.mark.parametrize("written", [(PERFORMED, NAMED), (NAMED, PERFORMED)])
    def test_one_lookup_per_distinct_bound_term(self, monkeypatch, scenario1, scenario3, written):
        text = "\n".join(written)
        for g in (scenario1, scenario3):
            actions = g.scan(None, PROP_PERFORMED_BY, None)
            performers = {t.object for t in actions}
            assert len(actions) > len(performers) > 0
            table, scans = self.scans_of(monkeypatch, g, text)
            assert len(table) == len(actions)
            assert len(scans) <= 1 + len(performers)
            assert scans[0][1].value.endswith("performedBy")  # the shorter list first

    def test_filter_and_projection_run_once_per_key(self, monkeypatch, scenario1):
        calls = []
        original = query._filter_text
        monkeypatch.setattr(query, "_filter_text", lambda t: calls.append(t) or original(t))
        table = run_text_query(scenario1, f"{self.PERFORMED}\n{self.NAMED}\nFILTER ?n /./")
        assert len(table) == 5
        assert len(calls) == len(set(calls)) == 2  # one name per performer

    def test_plan_reads_no_triples(self, monkeypatch, scenario1):
        performed, named = (parse_query(t)[0][0] for t in (self.PERFORMED, self.NAMED))
        crime = parse_query('?c scope-crime:crimeType "Illegal Access"')[0][0]
        evidence = parse_query("?e scope-evidence:evidenceOf ?c")[0][0]
        any_triple = Pattern(v("x"), v("y"), v("z"))
        monkeypatch.setattr(Graph, "scan", None)
        plan = lambda *ps: query._plan(scenario1, ps)
        assert plan(named, performed) == [performed, named]
        assert plan(evidence, crime) == [crime, evidence]
        # ties keep the written order; a linked pattern comes before a shorter unlinked one
        assert plan(any_triple, Pattern(v("a"), v("b"), v("c"))) == [
            any_triple, Pattern(v("a"), v("b"), v("c"))]
        assert plan(performed, any_triple, named) == [performed, named, any_triple]
        assert plan(any_triple, crime, named) == [crime, named, any_triple]  # none linked


class TestJoinDoesNotSort:
    """Joins read the graph's unsorted lookup; the table is sorted once."""

    def count_sorting(self, monkeypatch, g, text):
        calls = {"match": 0, "triple_sort_key": 0}
        for owner, name in ((Graph, "match"), (terms, "triple_sort_key")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        table = run_text_query(g, text)
        monkeypatch.undo()
        return table, calls

    def test_join_and_full_scan_never_sort_lookups(self, monkeypatch, scenario1):
        join = ("?e scope-evidence:evidenceOf ?c\n"
                "?c a ?type\n"
                "?e a ?kind\n")
        table, calls = self.count_sorting(monkeypatch, scenario1, join)
        assert len(table) > 0
        assert calls == {"match": 0, "triple_sort_key": 0}

        table, calls = self.count_sorting(monkeypatch, scenario1, "?s ?p ?o")
        assert calls == {"match": 0, "triple_sort_key": 0}
        assert table.columns == ("o", "p", "s")
        expected = sorted(((t.object, t.predicate, t.subject) for t in scenario1.match()),
                          key=lambda row: tuple(map(term_sort_key, row)))
        assert table.rows == tuple(expected)


class TestCountDoesNotSort:
    """count only needs the number of rows: no projection, no sort."""

    QUERIES = ("?e scope-evidence:evidenceOf ?c\n?c a ?type\n?e a ?kind\n", "?s ?p ?o")

    @pytest.mark.parametrize("text", QUERIES)
    def test_count_never_sorts(self, monkeypatch, text):
        scenario1 = parse_turtle(fixture_text("scenario1"))  # its rank table is not built yet
        patterns, filters = parse_query(text)
        calls = []
        original = terms.term_sort_key

        def counted(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(terms, "term_sort_key", counted)
        n = count(scenario1, patterns, filters)
        assert calls == []
        table = run_query(scenario1, patterns, filters)
        assert calls  # the patched key is the one run_query sorts with
        assert n == len(table) > 0


class TestFilterWorkPerDistinctTerm:
    """A full scan runs each filter once per distinct term of the filtered
    position; the graph computes each sort key once per term object, for
    its first sorted query only."""

    def test_full_scan_with_predicate_filter(self, monkeypatch):
        scenario1 = parse_turtle(fixture_text("scenario1"))
        patterns, filters = parse_query("?s ?p ?o\nFILTER ?p /custody|name$/")
        calls = {"_filter_text": 0, "term_sort_key": 0}
        for owner, name in ((query, "_filter_text"), (terms, "term_sort_key")):
            original = getattr(owner, name)

            def counted(t, _name=name, _original=original):
                calls[_name] += 1
                return _original(t)

            monkeypatch.setattr(owner, name, counted)
        table = run_query(scenario1, patterns, filters)
        monkeypatch.undo()
        assert table == run_query(scenario1, patterns, filters)
        assert 0 < len(table) < len(scenario1)
        assert calls["_filter_text"] <= len({t.predicate for t in scenario1})
        assert calls["term_sort_key"] <= len(graph_term_objects(scenario1))
        monkeypatch.setattr(terms, "term_sort_key", None)  # the graph keeps its ranks
        assert run_query(scenario1, patterns, filters) == table
        # one pattern binds its variables in column order: no projection
        assert tuple(query._join(scenario1, patterns, filters)[0]) == table.columns


class TestRowCap:
    """A join gives up as soon as a pattern's table passes query.MAX_ROWS."""

    CROSS = [Pattern(v("x"), v("p"), v("o")), Pattern(v("y"), v("q"), v("z"))]  # 7 x 7 rows

    @pytest.mark.parametrize("evaluate", [run_query, count])
    def test_tables_past_the_cap_raise(self, monkeypatch, people, evaluate):
        monkeypatch.setattr(query, "MAX_ROWS", 6)
        with pytest.raises(QueryTooLargeError, match="passes 6 rows"):
            evaluate(people, [Pattern(v("s"), v("p"), v("o"))])
        with pytest.raises(QueryTooLargeError):
            evaluate(people, [Pattern(v("s"), RDF_TYPE, v("t")), Pattern(v("s"), v("p"), v("o"))])
        assert len(run_query(people, [Pattern(v("s"), RDF_TYPE, v("t"))])) == 3
        assert count(people, [Pattern(v("s"), RDF_TYPE, v("t"))]) == 3

    @pytest.mark.parametrize("evaluate", [run_query, count])
    def test_join_stops_at_the_row_that_passes_it(self, monkeypatch, people, evaluate):
        monkeypatch.setattr(query, "MAX_ROWS", 10)
        scans = []
        original = Graph.scan
        monkeypatch.setattr(Graph, "scan", lambda g, *a: scans.append(a) or original(g, *a))
        with pytest.raises(QueryTooLargeError):
            evaluate(people, self.CROSS)
        # the first pattern, then the second once: it binds no cell of a row,
        # so all 7 rows share its lookup, and the second row passes the cap
        assert len(scans) == 2

    def test_query_errors_come_before_any_lookup(self, monkeypatch, people):
        monkeypatch.setattr(query, "MAX_ROWS", 0)
        with pytest.raises(UnboundFilterVariableError):
            count(people, self.CROSS, [("?nope", "x")])
        with pytest.raises(UnsupportedRegexError):
            run_query(people, self.CROSS, [("?x", "a{2}")])


class TestRankTable:
    """run_query sorts on ranks the graph computes once, for its first
    sorted query; copies of a graph compute their own."""

    @staticmethod
    def counting_keys(monkeypatch):
        calls = []
        original = terms.term_sort_key

        def counted(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(terms, "term_sort_key", counted)
        return calls

    def test_keys_computed_once_per_term_object(self, monkeypatch):
        g = parse_turtle(fixture_text("scenario1"))
        calls = self.counting_keys(monkeypatch)
        first = None
        for text in PINNED_QUERIES[:20]:
            table = run_text_query(g, text)
            if first is None and len(table) > 1:
                first = len(calls)
        assert 0 < first == len(calls)
        assert len(set(map(id, calls))) == len(calls) <= len(graph_term_objects(g))

    def test_count_and_small_results_build_no_table(self, monkeypatch):
        g = parse_turtle(fixture_text("scenario1"))
        calls = self.counting_keys(monkeypatch)
        for text in PINNED_QUERIES:
            count(g, *parse_query(text))
        assert len(run_text_query(g, "?s ?p \"no such literal\"")) == 0
        assert len(run_text_query(g, "?c a case-investigation:Incident")) == 1
        assert calls == []
        assert len(run_text_query(g, "?s ?p ?o")) > 1
        assert calls

    def test_derived_and_copied_graphs_rank_their_own_terms(self, tmp_path):
        text = fixture_text("scenario1")
        g = parse_turtle(text)
        assert len(run_text_query(g, "?s ?p ?o")) > 1  # g's table is built
        tables = lambda graph: "".join(run_text_query(graph, q).to_tsv() for q in PINNED_QUERIES)
        want = tables(parse_turtle(text))
        derived = (g.with_prefixes({"zz": Iri(EX)}), copy.copy(g), copy.deepcopy(g),
                   pickle.loads(pickle.dumps(g)))
        for other in derived:
            assert tables(other) == want

        # equal terms held as new objects share the ranks of g's objects
        t = min(g, key=terms.triple_sort_key)
        added = Triple(copy.deepcopy(t.subject), copy.deepcopy(t.predicate), Literal("added"))
        assert tables(g.insert(added)) == tables(parse_turtle(f"{text}\n{render_triple(added)}\n"))

        dumped = tmp_path / "graph.pickle"
        dumped.write_bytes(pickle.dumps((g, PINNED_QUERIES)))
        child = ("import pickle, sys\n"
                 "from scopekit.query import run_text_query\n"
                 "g, queries = pickle.loads(open(sys.argv[1], 'rb').read())\n"
                 "sys.stdout.write(''.join(run_text_query(g, q).to_tsv() for q in queries))\n")
        src = str(Path(query.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", child, str(dumped)], capture_output=True,
                              text=True, encoding="utf-8", env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == want


PINNED_QUERY_TABLES = Path(__file__).resolve().parent / "data" / "query_pinned.tsv"

# Full scans, filters on each position, several filters on one variable, a
# filter on a repeated variable, and joins whose filtered variable a later
# pattern binds.
PINNED_QUERIES = (
    "?s ?p ?o",
    "?s ?p ?o\nFILTER ?p /(name|Time)$/",
    "?s ?p ?o\nFILTER ?o /^(T1|CAPEC-)[0-9]/",
    "?s ?p ?o\nFILTER ?s /custody|action-[0-9a-f]/",
    "?s ?p ?o\nFILTER ?o /^https:.*(Adversary|System|Technique)$/",
    "?s ?p ?o\nFILTER ?o /\\.(com|org|info|link)$/",
    "?s ?p ?o\nFILTER ?o /^[0-9a-f]+$/",
    "?s ?p ?o\nFILTER ?o /^2100-01-0/\nFILTER ?o /:00Z$/",
    "?s ?p ?o\nFILTER ?p /./\nFILTER ?p /custodyAction|tactic|domainName/",
    "?s ?p ?o\nFILTER ?p /evidence/\nFILTER ?s /image|capture|log/\nFILTER ?o /[A-Z]/",
    "?z ?b ?m\nFILTER ?m /^[A-Z][a-z]+ /",
    "?x ?p ?x",
    "?x ?p ?x\nFILTER ?x /kb/",
    "?s a ?t\nFILTER ?t /Capture|Image|File$/",
    "?s a ?t\n?s ?p ?o\nFILTER ?t /Adversary|Responder|Analyst/\nFILTER ?o /^[A-Z]/",
    "?s uco-core:name ?n\nFILTER ?n /[Pp]unggol|lab/",
    "?s uco-core:description ?d\nFILTER ?d /^[A-Z]/\nFILTER ?d /s$/",
    "?r scope-evidence:custodySequence ?n\nFILTER ?n /^[12]$/",
    "?s ?p \"Imaged\"",
    "?e scope-evidence:evidenceOf ?c\n?c scope-crime:crimeType ?ct\nFILTER ?ct /Interference|Access/",
    "?r scope-evidence:custodyRecordOf ?e\n?r scope-evidence:custodyAction ?act\n?e a ?k\n"
    "FILTER ?act /^(Imaged|Analyzed|Transferred)$/\nFILTER ?k /Image$|Capture$/",
    "?a case-investigation:performedBy ?p\n?p uco-core:name ?n\nFILTER ?n /lab|field/",
    "?x case-investigation:relatedIncident ?i\n?i ?p ?o\nFILTER ?x /investigative|image/\nFILTER ?p /type|name/",
    "?x ?p ?o\n?y ?p ?o\nFILTER ?p /custodyAction|crimeType/",
    "?c ?p ?x\n?x a ?t\nFILTER ?p /affects|targets/\nFILTER ?t /System$|Layer$/",
    "?s ?p ?s2\n?s2 ?p2 ?o\nFILTER ?p2 /name$/\nFILTER ?p /performedBy|custodyActor|adversary/",
    "?e a ?k\n?e ?p ?v\nFILTER ?v /^0/",
    "?r scope-evidence:custodyTimestamp ?ts\n?r scope-evidence:custodyRecordOf ?e\n"
    "FILTER ?ts /T1[0-9]:/\nFILTER ?e /./",
    "?s ?p ?o\nFILTER ?o /^no such text$/",
    "?t ?p ?id\nFILTER ?p /techniqueId|capecId/\nFILTER ?id /^(T1[0-4]|CAPEC-1)/",
    "?c ?u ?t\n?t ?q ?ta\nFILTER ?u /usesTechnique/\nFILTER ?ta /^(InitialAccess|Exfiltration)$/",
)


def pinned_query_text(graphs) -> str:
    """Each pinned query's table on each named graph, as TSV."""
    out = []
    for name, g in graphs:
        for i, text in enumerate(PINNED_QUERIES):
            out.append(f"## {name} q{i:02d}\n{run_text_query(g, text).to_tsv()}")
    return "".join(out)


class TestQueryPinned:
    """Tables written before filters moved into the join stay byte-identical."""

    def test_tables_match_pinned_text(self, scenario1, scenario2, scenario3):
        graphs = (("scenario1", scenario1), ("scenario2", scenario2), ("scenario3", scenario3))
        want = PINNED_QUERY_TABLES.read_text(encoding="utf-8")
        got = pinned_query_text(graphs)
        for w, g in zip(re.split(r"(?m)^## ", want), re.split(r"(?m)^## ", got)):
            assert g == w
        assert got == want
        for _, g in graphs:
            for text in PINNED_QUERIES:
                patterns, filters = parse_query(text)
                assert count(g, patterns, filters) == len(run_query(g, patterns, filters))

    def test_pinned_tables_are_not_all_empty(self):
        tables = re.split(r"(?m)^## ", PINNED_QUERY_TABLES.read_text(encoding="utf-8"))[1:]
        assert len(tables) == 3 * len(PINNED_QUERIES)
        assert sum(t.count("\n") > 2 for t in tables) >= 3 * len(PINNED_QUERIES) // 2


if __name__ == "__main__":
    # writes the pinned tables for the query engine as it stands
    from conftest import fixture_text
    from scopekit.turtle import parse_turtle

    PINNED_QUERY_TABLES.parent.mkdir(exist_ok=True)
    PINNED_QUERY_TABLES.write_text(pinned_query_text(
        [(name, parse_turtle(fixture_text(name)))
         for name in ("scenario1", "scenario2", "scenario3")]), encoding="utf-8")
