import inspect
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from scopekit.casekit import CustodyEvent, Ioc, MergeOutcome
from scopekit.catalog import CapecEntry, CrimeType, IndicatorEntry, TechniqueEntry
from scopekit.errors import InvalidIriError
from scopekit.query import BindingTable, Pattern, Variable
from scopekit.report import ActionEntry, CaseSummary, CustodyEntry
from scopekit.schema import ClassDef, PropertyDef
from scopekit.terms import (
    RDF_TYPE,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    first_literal,
    skolemize,
    term_sort_key,
    triple_sort_key,
)

from scopekit.turtle import parse_turtle, serialize_turtle_canonical
from scopekit.validation import Finding, ValidationReport

from helpers import random_graph, random_mixed_graph


EX = "http://example.org/"


def iri(local):
    return Iri(EX + local)


class TestIri:
    def test_accepts_absolute_iris(self):
        for v in ("http://example.org/a", "urn:uuid:1234", "tag:x,2020:y",
                  "file:///tmp/x", "a+b-c.d:rest"):
            assert Iri(v).value == v

    @pytest.mark.parametrize("bad", [
        "", "no-scheme", "/relative/path", "http://ex.org/with space",
        "http://ex.org/<angle>", "http://ex.org/br{ace}", 'http://ex.org/"q"',
        "http://ex.org/back\\slash", "http://ex.org/tab\there", "1http://x",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidIriError):
            Iri(bad)

    @pytest.mark.parametrize("value,message", [
        ('http://ex.org/a\x00b',
         "IRI contains forbidden character '\\x00': 'http://ex.org/a\\x00b'"),
        ('http://ex.org/a b',
         "IRI contains forbidden character ' ': 'http://ex.org/a b'"),
        ('http://ex.org/a<b',
         "IRI contains forbidden character '<': 'http://ex.org/a<b'"),
        ('http://ex.org/a>b',
         "IRI contains forbidden character '>': 'http://ex.org/a>b'"),
        ('http://ex.org/a"b',
         'IRI contains forbidden character \'"\': \'http://ex.org/a"b\''),
        ('http://ex.org/a{b',
         "IRI contains forbidden character '{': 'http://ex.org/a{b'"),
        ('http://ex.org/a}b',
         "IRI contains forbidden character '}': 'http://ex.org/a}b'"),
        ('http://ex.org/a|b',
         "IRI contains forbidden character '|': 'http://ex.org/a|b'"),
        ('http://ex.org/a^b',
         "IRI contains forbidden character '^': 'http://ex.org/a^b'"),
        ('http://ex.org/a`b',
         "IRI contains forbidden character '`': 'http://ex.org/a`b'"),
        ('http://ex.org/a\\b',
         "IRI contains forbidden character '\\\\': 'http://ex.org/a\\\\b'"),
        ('http://ex.org/a{b c}d',
         "IRI contains forbidden character '{': 'http://ex.org/a{b c}d'"),
        ('http://ex.org/a\tb<c',
         "IRI contains forbidden character '\\t': 'http://ex.org/a\\tb<c'"),
    ])
    def test_forbidden_character_message_names_the_first(self, value, message):
        with pytest.raises(InvalidIriError) as exc:
            Iri(value)
        assert str(exc.value) == message

    def test_accepts_the_first_character_above_space(self):
        assert Iri("http://ex.org/a!b").value == "http://ex.org/a!b"

    def test_local_name(self):
        assert iri("path/Leaf").local_name() == "Leaf"
        assert Iri("http://example.org/ns#Frag").local_name() == "Frag"
        assert Iri("urn:skolem:b1").local_name() == "b1"

    def test_equality_is_structural(self):
        assert iri("a") == iri("a")
        assert iri("a") != iri("b")
        assert len({iri("a"), iri("a")}) == 1


class TestLiteral:
    def test_bare_literal_is_string_typed(self):
        assert Literal("x").datatype == XSD_STRING
        assert Literal("x") == Literal("x", XSD_STRING)

    def test_lang_excludes_datatype(self):
        with pytest.raises(ValueError):
            Literal("x", XSD_STRING, "en")

    def test_lang_is_lowercased(self):
        assert Literal("x", lang="EN-GB").lang == "en-gb"
        assert Literal("x", lang="EN") == Literal("x", lang="en")

    @pytest.mark.parametrize("tag", ["", "-en", "en-", "toolongpart9", "en_US", "a b"])
    def test_malformed_lang_tags(self, tag):
        with pytest.raises(ValueError):
            Literal("x", lang=tag)

    def test_lang_tag_with_trailing_newline_rejected(self):
        # accepted, its N-Triples line `"x"@en\n .` would not parse back
        with pytest.raises(ValueError):
            Literal("x", lang="en\n")

    def test_structural_comparison_not_value_space(self):
        # bit-exact exchange semantics: no numeric normalization
        assert Literal("1", XSD_INTEGER) != Literal("01", XSD_INTEGER)
        assert Literal("x") != Literal("x", lang="en")


class TestBlankNodeAndTriple:
    def test_blank_label_shape(self):
        assert BlankNode("b1").label == "b1"
        for bad in ("", "1b", "-x", "a b", "a-b"):
            with pytest.raises(ValueError):
                BlankNode(bad)

    def test_blank_label_with_trailing_newline_rejected(self):
        with pytest.raises(ValueError):
            BlankNode("b\n")

    def test_blank_node_prints_as_its_label(self):
        assert str(BlankNode("b1")) == "_:b1"

    def test_triple_position_types(self):
        t = Triple(iri("s"), iri("p"), Literal("o"))
        assert t.subject == iri("s")
        with pytest.raises(TypeError):
            Triple(Literal("s"), iri("p"), iri("o"))
        with pytest.raises(TypeError):
            Triple(iri("s"), BlankNode("b"), iri("o"))
        with pytest.raises(TypeError):
            Triple(iri("s"), iri("p"), "bare string")


# each term class's value fields, in constructor order
VALUE_FIELDS = {Iri: ("value",), Literal: ("lexical", "datatype", "lang"), BlankNode: ("label",),
                Triple: ("subject", "predicate", "object")}


def sample_terms():
    return [
        iri("a"),
        Literal("x"),
        Literal("x", lang="EN-gb"),
        Literal("1", XSD_INTEGER),
        BlankNode("b1"),
        Triple(iri("s"), iri("p"), Literal("o", lang="en")),
    ]


class TestTermContract:
    """Terms are slotted, frozen and hash once; none of that shows in repr,
    == or the hash of equal terms."""

    @pytest.mark.parametrize("a,b", [
        (Literal("x"), Literal("x", XSD_STRING)),
        (Literal("x", lang="EN"), Literal("x", lang="en")),
        (Literal("x", lang="EN-GB"), Literal("x", None, "en-gb")),
        (Triple(iri("s"), iri("p"), Literal("x")),
         Triple(iri("s"), iri("p"), Literal("x", XSD_STRING))),
        (Triple(iri("s"), iri("p"), Literal("x", lang="EN")),
         Triple(iri("s"), iri("p"), Literal("x", lang="en"))),
    ])
    def test_equal_terms_hash_equal_across_construction_forms(self, a, b):
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("a,b", [
        (iri("a"), iri("b")),
        (Literal("x", lang="en"), Literal("y", lang="en")),
        (Literal("1", XSD_INTEGER), Literal("1")),
        (Literal("x", lang="en"), Literal("x", lang="de")),
        (BlankNode("b1"), BlankNode("b2")),
        (Triple(iri("s"), iri("p"), iri("o")), Triple(iri("t"), iri("p"), iri("o"))),
        (Triple(iri("s"), iri("p"), iri("o")), Triple(iri("s"), iri("q"), iri("o"))),
        (Triple(iri("s"), iri("p"), iri("o")), Triple(iri("s"), iri("p"), iri("x"))),
    ])
    def test_terms_that_differ_in_one_field_are_unequal(self, a, b):
        assert a != b and not a == b
        assert a == type(a)(*(getattr(a, name) for name in VALUE_FIELDS[type(a)]))

    @pytest.mark.parametrize("term", sample_terms(), ids=lambda t: type(t).__name__)
    def test_attributes_cannot_be_set(self, term):
        before = repr(term), hash(term)
        for name in VALUE_FIELDS[type(term)]:
            with pytest.raises(AttributeError):
                setattr(term, name, None)
        with pytest.raises((AttributeError, TypeError)):
            term.extra = None
        assert (repr(term), hash(term)) == before

    @pytest.mark.parametrize("term,expected", zip(sample_terms(), [
        "Iri(value='http://example.org/a')",
        "Literal(lexical='x', datatype=Iri(value='http://www.w3.org/2001/XMLSchema#string'),"
        " lang=None)",
        "Literal(lexical='x', datatype=None, lang='en-gb')",
        "Literal(lexical='1', datatype=Iri(value='http://www.w3.org/2001/XMLSchema#integer'),"
        " lang=None)",
        "BlankNode(label='b1')",
        "Triple(subject=Iri(value='http://example.org/s'), "
        "predicate=Iri(value='http://example.org/p'), "
        "object=Literal(lexical='o', datatype=None, lang='en'))",
    ]))
    def test_repr_shows_only_the_value_fields(self, term, expected):
        assert repr(term) == expected

    @pytest.mark.parametrize("term,changes,fresh", [
        (iri("a"), {"value": EX + "b"}, iri("b")),
        (Literal("x", lang="en"), {"lexical": "y"}, Literal("y", lang="en")),
        (Literal("x", lang="en"), {"lang": "DE"}, Literal("x", lang="de")),
        (Literal("1", XSD_INTEGER), {"lexical": "2"}, Literal("2", XSD_INTEGER)),
        (BlankNode("b1"), {"label": "b2"}, BlankNode("b2")),
        (Triple(iri("s"), iri("p"), iri("o")), {"object": Literal("o")},
         Triple(iri("s"), iri("p"), Literal("o"))),
    ])
    def test_replace_rehashes(self, term, changes, fresh):
        fields = {name: getattr(term, name) for name in VALUE_FIELDS[type(term)]}
        changed = type(term)(**{**fields, **changes})
        assert changed == fresh
        assert hash(changed) == hash(fresh)
        assert changed in {fresh}

    def test_pickled_terms_hash_right_in_another_process(self):
        # str hashes are salted per process, so a copied hash would go stale
        data = pickle.dumps(sample_terms())
        script = (
            "import pickle, sys\n"
            "from scopekit.terms import BlankNode, Iri, Literal, Triple, XSD_INTEGER\n"
            "EX = 'http://example.org/'\n"
            "fresh = [Iri(EX + 'a'), Literal('x'), Literal('x', lang='en-gb'),\n"
            "         Literal('1', XSD_INTEGER), BlankNode('b1'),\n"
            "         Triple(Iri(EX + 's'), Iri(EX + 'p'), Literal('o', lang='en'))]\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "assert loaded == fresh, loaded\n"
            "assert [hash(t) for t in loaded] == [hash(t) for t in fresh]\n"
            "assert all(t in set(fresh) for t in loaded)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], input=data, env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()


def sample_records():
    finding = Finding("Error", "R01", iri("s"), "node has no type")
    return [
        ClassDef(iri("C"), frozenset({iri("B")}), "C", "a class"),
        PropertyDef(iri("p"), frozenset({iri("C")}), XSD_INTEGER, 1, 2, False, "p", "a property"),
        finding,
        ValidationReport((finding,), 3, "1.0"),
        TechniqueEntry("T1059", "Command and Scripting Interpreter", "execution"),
        CapecEntry("CAPEC-66", "SQL Injection", frozenset({"T1190"})),
        IndicatorEntry("ISO 37120", "5.1", "an indicator", iri("Energy")),
        CrimeType("IllegalAccess", "Access without right."),
        Variable("x"),
        Pattern(Variable("s"), iri("p"), Literal("o", lang="en")),
        BindingTable(("s",), ((iri("a"),), (BlankNode("b1"),))),
        CustodyEvent(iri("e"), None, "seized", "2024-01-01T00:00:00Z"),
        Ioc("Domain", "a.example", "lab"),
        CustodyEntry("2024-01-01T00:00:00Z", "seized", "disk", "", 1),
        ActionEntry("2024-01-01T00:00:00Z", "imaged", "lab", "officer"),
        CaseSummary("urn:case", "case", "", (("Spoofing", 1),), (), (), (), ()),
    ]


def record_fields(record) -> dict:
    """The record's fields by name, read through its constructor's parameters."""
    names = inspect.signature(type(record)).parameters
    return {name: getattr(record, name) for name in names}


class TestRecordContract:
    """The records are frozen values: equal and hashed on their fields, printed
    as `Class(field=value, ...)`, pickled through their constructor; only
    MergeOutcome may be changed."""

    @pytest.mark.parametrize("record", sample_records(), ids=lambda r: type(r).__name__)
    def test_rebuilt_record_is_equal_and_hashes_equal(self, record):
        rebuilt = type(record)(**record_fields(record))
        assert rebuilt == record and hash(rebuilt) == hash(record) and rebuilt in {record}
        assert pickle.loads(pickle.dumps(record)) == record

    @pytest.mark.parametrize("record", sample_records(), ids=lambda r: type(r).__name__)
    def test_repr_lists_the_fields(self, record):
        fields = ", ".join(f"{name}={value!r}" for name, value in record_fields(record).items())
        assert repr(record) == f"{type(record).__name__}({fields})"

    @pytest.mark.parametrize("record", sample_records(), ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_set_or_deleted(self, record):
        before = repr(record), hash(record)
        for name in record_fields(record):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None
        assert (repr(record), hash(record)) == before

    def test_records_differing_in_the_last_field_are_unequal(self):
        assert Finding("Error", "R01", iri("s"), "a") != Finding("Error", "R01", iri("s"), "b")
        assert Ioc("Domain", "a.example", "x") != Ioc("Domain", "a.example", "y")

    def test_iocs_order_on_kind_value_and_source(self):
        rows = [Ioc("Md5Hash", "0" * 32, ""), Ioc("Domain", "b.example", "a"),
                Ioc("Domain", "a.example", "z"), Ioc("Domain", "a.example", "b")]
        assert sorted(rows) == [rows[3], rows[2], rows[1], rows[0]]
        assert rows[3] < rows[2] <= rows[2] <= rows[1] and rows[0] > rows[1] >= rows[1]
        with pytest.raises(TypeError):
            rows[0] < ("Domain", "a", "b")

    def test_merge_outcome_stays_mutable(self):
        outcome = MergeOutcome(None, [])
        outcome.conflicts = [(iri("s"), iri("p"), "a", "b")]
        assert outcome.conflicts_text() == (
            "M01\tError\thttp://example.org/s\tp: kept 'a', dropped 'b'\n")


class TestHashInputs:
    """A hash seed fixes every hash: none is built from an object's address."""

    def test_one_seed_gives_one_hash_and_one_order_in_every_interpreter(self):
        # before Python 3.12, hash(None) follows None's address, which moves
        # between processes
        script = (
            "import sys\n"
            "from scopekit.terms import Iri, Literal, Triple\n"
            "from scopekit.turtle import parse_turtle\n"
            "t = Triple(Iri('http://example.org/s'), Iri('http://example.org/p'), Literal('1'))\n"
            "print(hash(Literal('1')), hash(Literal('x', lang='en')), hash(t))\n"
            "print(*parse_turtle(sys.stdin.buffer.read()), sep='\\n')\n"
        )
        data = (Path(__file__).resolve().parents[1] / "src" / "scopekit" / "fixtures"
                / "scenario1.ttl").read_bytes()
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONHASHSEED="0",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        outputs = set()
        for _ in range(3):
            done = subprocess.run([sys.executable, "-c", script], input=data, env=env,
                                  capture_output=True, timeout=60)
            assert done.returncode == 0, done.stderr.decode()
            outputs.add(done.stdout)
        assert len(outputs) == 1

    def test_building_a_triple_calls_no_term_hash(self, monkeypatch):
        calls = []
        for cls in (Iri, BlankNode, Literal):
            def counted(self, inner=cls.__hash__):
                calls.append(self)
                return inner(self)
            monkeypatch.setattr(cls, "__hash__", counted)
        s, p, o, b = iri("s"), iri("p"), Literal("o", lang="en"), BlankNode("b1")
        hash(s)
        assert calls == [s]  # the counter is in place
        calls.clear()
        Triple(s, p, o), Triple(b, p, s), Triple(s, p, b)
        assert calls == []


class TestTermOrder:
    def test_kind_rank(self):
        ordered = sorted(
            [Literal("a"), BlankNode("a"), iri("a")], key=term_sort_key)
        assert [type(t) for t in ordered] == [Iri, BlankNode, Literal]

    def test_literal_tiebreaks(self):
        a = Literal("x")
        b = Literal("x", XSD_INTEGER)
        c = Literal("x", lang="en")
        # lexical equal, then datatype IRI (lang-tagged carry none), then tag
        assert sorted([b, c, a], key=term_sort_key) == [c, b, a]
        assert sorted([a, b, c], key=term_sort_key) == sorted([c, b, a], key=term_sort_key)


class TestGraph:
    def test_equality_ignores_prefixes(self):
        t = Triple(iri("s"), iri("p"), iri("o"))
        g1 = Graph([t], {"ex": Iri(EX)})
        g2 = Graph([t], {})
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1.prefixes != g2.prefixes

    def test_a_graph_is_not_equal_to_its_triple_set(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        assert g.__eq__(g.triples) is NotImplemented
        assert g != g.triples

    def test_repr_counts_triples_and_prefixes(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o"))], {"ex": Iri(EX), "kb": Iri(EX + "kb/")})
        assert repr(g) == "<Graph 1 triples, 2 prefixes>"

    def test_a_str_namespace_is_read_as_an_iri(self):
        assert Graph(prefixes={"ex": EX}).prefixes == {"ex": Iri(EX)}
        assert Graph().with_prefixes({"ex": EX}).prefixes == {"ex": Iri(EX)}

    def test_a_non_triple_is_refused(self):
        with pytest.raises(TypeError) as exc:
            Graph([(iri("s"), iri("p"), iri("o"))])
        assert str(exc.value).startswith("not a triple: ")

    def test_insert_remove_are_persistent(self):
        t1 = Triple(iri("s"), iri("p"), Literal("1"))
        t2 = Triple(iri("s"), iri("p"), Literal("2"))
        g0 = Graph()
        g1 = g0.insert(t1)
        g2 = g1.insert(t2)
        assert len(g0) == 0 and len(g1) == 1 and len(g2) == 2
        assert t1 in g2 and t2 not in g1
        assert g2.remove(t2) == g1

    def test_insert_existing_is_identity(self):
        t = Triple(iri("s"), iri("p"), iri("o"))
        g = Graph([t])
        assert g.insert(t) is g
        assert g.remove(Triple(iri("s"), iri("p"), Literal("absent"))) is g

    def test_match_wildcards(self):
        triples = [
            Triple(iri("s1"), iri("p1"), iri("o1")),
            Triple(iri("s1"), iri("p2"), Literal("x")),
            Triple(iri("s2"), iri("p1"), iri("o1")),
        ]
        g = Graph(triples)
        assert len(g.match(None, None, None)) == 3
        assert len(g.match(iri("s1"), None, None)) == 2
        assert len(g.match(None, iri("p1"), None)) == 2
        assert len(g.match(None, None, iri("o1"))) == 2
        assert g.match(iri("s1"), iri("p1"), iri("o1")) == [triples[0]]
        assert g.match(iri("nope"), None, None) == []

    def test_match_output_is_sorted(self):
        rng = random.Random(5)
        g = random_graph(rng, 80)
        out = g.match(None, None, None)
        assert out == sorted(out, key=triple_sort_key)

    def test_match_all_returns_every_triple(self):
        rng = random.Random(6)
        for _ in range(20):
            g = random_graph(rng, 50)
            assert len(g.match(None, None, None)) == len(g)

    def test_scan_is_match_without_the_sort(self):
        rng = random.Random(7)
        g = random_graph(rng, 80)
        probes = rng.sample(sorted(g, key=triple_sort_key), 10)
        absent = iri("absent")
        for t in probes:
            for s in (None, t.subject, absent):
                for p in (None, t.predicate, absent):
                    for o in (None, t.object, absent):
                        found = g.scan(s, p, o)
                        assert sorted(found, key=triple_sort_key) == g.match(s, p, o)

    def test_scan_with_stored_terms_compares_on_identity(self, monkeypatch):
        # a parsed graph holds one object per term, so lookups with those
        # objects find their candidates without calling any term __eq__
        g = parse_turtle(serialize_turtle_canonical(random_graph(random.Random(11), 120)))
        probes = random.Random(12).sample(sorted(g, key=triple_sort_key), 15)
        lookups = [(s, p, o) for t in probes for s in (None, t.subject)
                   for p in (None, t.predicate) for o in (None, t.object)]
        compared = []
        for cls in (Iri, Literal, BlankNode):
            monkeypatch.setattr(cls, "__eq__",
                                lambda a, b, eq=cls.__eq__: compared.append(a) or eq(a, b))
        found = [g.scan(*args) for args in lookups]
        monkeypatch.undo()
        assert compared == []
        for args, got in zip(lookups, found):
            assert sorted(got, key=triple_sort_key) == g.match(*args)

    def test_estimate_is_the_length_of_the_list_scan_reads(self):
        # scan reads one list, picked by subject, then object, then
        # predicate: what it returns is that list cut by the other positions
        rng = random.Random(8)
        g = random_graph(rng, 80)
        absent = iri("absent")
        for t in rng.sample(sorted(g, key=triple_sort_key), 10):
            for s in (None, t.subject, absent):
                for p in (None, t.predicate, absent):
                    for o in (None, t.object, absent):
                        picked = (s, None, None) if s else (None, None, o) if o else (None, p, None)
                        assert g.estimate(s, p, o) == len(g.scan(*picked)) >= len(g.scan(s, p, o))

    def test_sorted_rows_are_kept_per_order(self):
        from itertools import permutations

        # the mixed graph ties on the first two positions in every order
        for g in (random_graph(random.Random(9), 80), random_mixed_graph(random.Random(9))):
            for order in permutations(("subject", "predicate", "object")):
                kept = g.sorted_rows(order)
                assert g.sorted_rows(order) is kept
                rows = (tuple(getattr(t, at) for at in order) for t in g)
                assert kept == tuple(sorted(rows, key=lambda row: tuple(map(term_sort_key, row))))

    def test_scan_and_match_return_fresh_lists(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        for lookup in (g.scan, g.match):
            for args in ((None, None, None), (iri("s"), None, None), (None, iri("p"), None),
                         (None, None, iri("o"))):
                lookup(*args).clear()
                assert len(lookup(*args)) == 1

    def test_prefix_map_validated(self):
        with pytest.raises(ValueError):
            Graph(prefixes={"9bad": Iri(EX)})

    def test_prefix_name_with_trailing_newline_rejected(self):
        with pytest.raises(ValueError):
            Graph(prefixes={"ex\n": Iri(EX)})

    def test_objects_of(self):
        g = Graph([Triple(iri("s"), iri("p"), Literal("a")),
                   Triple(iri("s"), iri("p"), Literal("b"))])
        assert [o.lexical for o in g.objects_of(iri("s"), iri("p"))] == ["a", "b"]


def column_values(column) -> dict:
    """A column in an order-free form: subject -> its values, sorted."""
    return {s: sorted(values, key=term_sort_key) for s, values in column.items()}


class TestColumns:
    def test_a_column_lists_each_subjects_values_of_its_predicate(self):
        g = random_mixed_graph(random.Random(12), 80)
        for p in {t.predicate for t in g} | {iri("absent")}:
            want = {}
            for t in g.scan(None, p, None):
                want.setdefault(t.subject, []).append(t.object)
            assert column_values(g.column(p)) == column_values(want)
            for s in {t.subject for t in g}:
                assert g.objects_of(s, p) == [t.object for t in g.match(s, p, None)]

    def test_index_add_keeps_a_built_column_current(self):
        g = Graph()._grown()
        column = g.column(iri("p"))
        assert column == {}
        g._add_all([Triple(iri("s"), iri("p"), Literal("a"))])
        assert len(g) == 1
        g._add_all([Triple(iri("s"), iri("p"), Literal("a"))])
        assert len(g) == 1
        g._add_all([Triple(iri("s"), iri("q"), Literal("b"))] * 2)
        assert len(g) == 2 and g.estimate(iri("s")) == 2
        assert g.column(iri("p")) is column and column == {iri("s"): [Literal("a")]}
        assert first_literal(g, iri("s"), iri("p")) == "a"

    def test_an_index_copy_builds_its_own_columns(self):
        g = Graph([Triple(iri("s"), iri("p"), Literal("a"))])
        column = g.column(iri("p"))
        grown = g._grown()
        grown._add_all([Triple(iri("s"), iri("p"), Literal("b"))])
        assert column == {iri("s"): [Literal("a")]}
        assert column_values(grown.column(iri("p"))) == {iri("s"): [Literal("a"), Literal("b")]}

    def test_copies_rebuild_columns_and_with_prefixes_shares_them(self):
        g = random_graph(random.Random(14), 60)
        p = next(iter(g)).predicate
        column = g.column(p)
        assert column and g.column(p) is column
        assert g.with_prefixes({"ex": Iri(EX)}).column(p) is column
        for other in (Graph(*g.__reduce__()[1]), pickle.loads(pickle.dumps(g))):
            assert other == g and other.column(p) is not column
            assert column_values(other.column(p)) == column_values(column)

    def test_with_prefixes_of_an_unbuilt_graph_answers_as_a_fresh_graph(self):
        g = random_mixed_graph(random.Random(16), 80)
        other = g.with_prefixes({"ex": Iri(EX)})
        probes = [(None, None, None)]
        for t in g:
            probes += [(t.subject, None, None), (None, t.predicate, None), (None, None, t.object),
                       (t.subject, t.predicate, None), (None, t.predicate, t.object)]

        def answers(h):  # subjects first: it is the first lookup of each graph
            return (h.subjects(),
                    [(sorted(h.scan(*probe), key=triple_sort_key), h.estimate(*probe))
                     for probe in probes],
                    {p: column_values(h.column(p)) for p in {t.predicate for t in g}})

        want = answers(Graph(g.triples))
        # the copy reads first, so the graph it came from reads the columns it built
        assert answers(other) == want and answers(g) == want


class TestSkolemize:
    def test_replaces_blanks_deterministically(self):
        b = BlankNode("node1")
        g = Graph([Triple(b, iri("p"), b), Triple(iri("s"), iri("p"), b)])
        s = skolemize(g)
        assert not s.has_blank_nodes()
        sk = Iri("urn:skolem:node1")
        assert Triple(sk, iri("p"), sk) in s
        assert skolemize(g) == s

    def test_noop_without_blanks(self):
        g = Graph([Triple(iri("s"), iri("p"), iri("o"))])
        assert skolemize(g) is g
