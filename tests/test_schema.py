"""Schema loading: hierarchy, cardinalities, and the embedded documents."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scopekit
from scopekit.errors import (
    DanglingReferenceError,
    DuplicateDefinitionError,
    InvalidCardinalityError,
    SchemaCycleError,
    UnknownClassError,
    UnknownPropertyError,
)
from scopekit.namespaces import (
    CLS_ACQUIRED_EVIDENCE,
    CLS_IDENTITY,
    CLS_INCIDENT,
    CLS_OBSERVABLE,
    CLS_SCI,
    CLS_UCO_OBJECT,
    PROP_CRIME_TYPE,
    PROP_CUSTODY_TS,
    PROP_MD5,
    PROP_NAME,
    PROP_TARGETS,
    evidence,
    infrastructure,
    role,
    threats,
)
from scopekit.schema import ClassDef, Schema, load_schema, load_default_schema
from scopekit.terms import Iri, XSD_DATETIME


HEADER = """
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix scm: <https://ontology.scopeontology.org/scope/meta/> .
@prefix ex: <http://schema.example/> .
"""


def load(body, version="test"):
    return load_schema([HEADER + body], version)


# (document, error): six classes or properties with the same fault, of which
# the one reported is the first in IRI order
SAME_FAULT_DOCS = [
    ("".join(f'ex:C{n} a rdfs:Class ; rdfs:subClassOf "x{n}" .\n' for n in range(6)),
     "DanglingReferenceError: subclass target of http://schema.example/C0 must be an IRI"),
    ("".join(f"ex:C{n} a rdfs:Class ; rdfs:subClassOf ex:P{n}a , ex:P{n}b .\n"
             for n in range(6)),
     "DanglingReferenceError: http://schema.example/C0 declares undeclared parent "
     "http://schema.example/P0a"),
    ("ex:A a rdfs:Class .\n" + "".join(
        f"ex:p{n} a rdf:Property ; rdfs:domain ex:D{n}a , ex:D{n}b .\n" for n in range(6)),
     "DanglingReferenceError: http://schema.example/p0 has undeclared domain "
     "http://schema.example/D0a"),
]

FIRST_FAULT_SCRIPT = """
import json, sys
from scopekit.schema import load_schema
messages = []
for doc in json.loads(sys.argv[1]):
    try:
        load_schema([doc])
        messages.append("loaded")
    except Exception as exc:
        messages.append(f"{type(exc).__name__}: {exc}")
print(json.dumps(messages))
"""


class TestLoadSchema:
    def test_minimal_class_and_property(self):
        s = load("""
        ex:Thing a rdfs:Class ; rdfs:label "Thing" ; rdfs:comment "Root." .
        ex:name a rdf:Property ; rdfs:domain ex:Thing ; rdfs:range xsd:string ;
            scm:functional true .
        """)
        thing = Iri("http://schema.example/Thing")
        name = Iri("http://schema.example/name")
        assert s.classes[thing].label == "Thing"
        prop = s.property(name)
        assert prop.functional and prop.max_card == 1
        assert prop.range == Iri("http://www.w3.org/2001/XMLSchema#string")

    def test_functional_with_explicit_count_one(self):
        s = load("""
        ex:T a rdfs:Class .
        ex:p a rdf:Property ; rdfs:domain ex:T ; scm:functional true ; scm:maxCount 1 .
        """)
        assert s.property(Iri("http://schema.example/p")).max_card == 1

    def test_functional_conflicting_max_count(self):
        with pytest.raises(InvalidCardinalityError):
            load("""
            ex:T a rdfs:Class .
            ex:p a rdf:Property ; rdfs:domain ex:T ; scm:functional true ; scm:maxCount 2 .
            """)

    def test_min_above_max(self):
        with pytest.raises(InvalidCardinalityError):
            load("""
            ex:T a rdfs:Class .
            ex:p a rdf:Property ; rdfs:domain ex:T ; scm:minCount 3 ; scm:maxCount 2 .
            """)

    def test_cycle_detection(self):
        with pytest.raises(SchemaCycleError) as exc:
            load("""
            ex:A a rdfs:Class ; rdfs:subClassOf ex:B .
            ex:B a rdfs:Class ; rdfs:subClassOf ex:C .
            ex:C a rdfs:Class ; rdfs:subClassOf ex:A .
            """)
        assert len(exc.value.cycle) >= 3

    def test_self_cycle(self):
        with pytest.raises(SchemaCycleError):
            load("ex:A a rdfs:Class ; rdfs:subClassOf ex:A .")

    def test_schema_built_directly_rejects_a_cycle(self):
        a, b = Iri("http://schema.example/A"), Iri("http://schema.example/B")
        with pytest.raises(SchemaCycleError) as exc:
            Schema({a: ClassDef(a, frozenset({b})), b: ClassDef(b, frozenset({a}))}, {}, {})
        assert exc.value.cycle == [a.value, b.value, a.value]

    @pytest.mark.parametrize("body", [
        "ex:A a rdfs:Class ; rdfs:subClassOf ex:Missing .",
        "ex:A a rdfs:Class . ex:p a rdf:Property ; rdfs:domain ex:Missing .",
        "ex:A a rdfs:Class . ex:p a rdf:Property ; rdfs:domain ex:A ; rdfs:range ex:Missing .",
    ])
    def test_dangling_references(self, body):
        with pytest.raises(DanglingReferenceError):
            load(body)

    def test_duplicate_class_and_property_name(self):
        with pytest.raises(DuplicateDefinitionError):
            load("ex:X a rdfs:Class . ex:X a rdf:Property ; rdfs:domain ex:X .")

    def test_double_range(self):
        with pytest.raises(DuplicateDefinitionError):
            load("""
            ex:A a rdfs:Class . ex:B a rdfs:Class .
            ex:p a rdf:Property ; rdfs:domain ex:A ; rdfs:range ex:A ; rdfs:range ex:B .
            """)

    def test_conflicting_prefix_binding_across_documents(self):
        doc2 = """
        @prefix ex: <http://other.example/> .
        ex:Y a <http://www.w3.org/2000/01/rdf-schema#Class> .
        """
        with pytest.raises(DuplicateDefinitionError):
            load_schema([HEADER + "ex:A a rdfs:Class .", doc2])

    def test_first_fault_does_not_depend_on_hash_seed(self):
        docs = [HEADER + body for body, _ in SAME_FAULT_DOCS]
        expected = [message for _, message in SAME_FAULT_DOCS]
        src = str(Path(scopekit.__file__).resolve().parents[1])
        for seed in ("0", "1", "2", "3", "4", "5", "6"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = subprocess.run([sys.executable, "-c", FIRST_FAULT_SCRIPT, json.dumps(docs)],
                                 env=env, capture_output=True, text=True, check=True).stdout
            assert json.loads(out) == expected, f"PYTHONHASHSEED={seed}"

    def test_equality_and_repr(self):
        body = "ex:T a rdfs:Class .\nex:p a rdf:Property ; rdfs:domain ex:T ."
        s = load(body)
        assert s == load(body)
        assert s != load(body, version="other")
        assert s != load(body + "\nex:U a rdfs:Class .")
        assert s.__eq__(body) is NotImplemented
        assert repr(s) == "<Schema vtest: 1 classes, 1 properties>"

    def test_repeatable_domain(self):
        s = load("""
        ex:A a rdfs:Class . ex:B a rdfs:Class .
        ex:p a rdf:Property ; rdfs:domain ex:A ; rdfs:domain ex:B .
        """)
        prop = s.property(Iri("http://schema.example/p"))
        assert prop.domain == {Iri("http://schema.example/A"), Iri("http://schema.example/B")}


class TestHierarchyQueries:
    def test_ancestors_reflexive_transitive(self):
        s = load("""
        ex:A a rdfs:Class .
        ex:B a rdfs:Class ; rdfs:subClassOf ex:A .
        ex:C a rdfs:Class ; rdfs:subClassOf ex:B .
        """)
        a, b, c = (Iri(f"http://schema.example/{x}") for x in "ABC")
        assert s.ancestors(c) == {a, b, c}
        assert s.is_subclass_of(c, a) and s.is_subclass_of(a, a)
        assert not s.is_subclass_of(a, c)
        assert s.subclasses_of(a) == {a, b, c}

    def test_unknown_class_raises(self):
        s = load("ex:A a rdfs:Class .")
        with pytest.raises(UnknownClassError):
            s.ancestors(Iri("http://schema.example/Nope"))

    def test_applicable_properties_include_inherited(self):
        s = load("""
        ex:A a rdfs:Class .
        ex:B a rdfs:Class ; rdfs:subClassOf ex:A .
        ex:pa a rdf:Property ; rdfs:domain ex:A .
        ex:pb a rdf:Property ; rdfs:domain ex:B .
        """)
        b = Iri("http://schema.example/B")
        names = [p.iri.local_name() for p in s.applicable_properties(b)]
        assert names == ["pa", "pb"]
        a = Iri("http://schema.example/A")
        assert [p.iri.local_name() for p in s.applicable_properties(a)] == ["pa"]

    def test_unknown_property_raises(self):
        s = load("ex:A a rdfs:Class .")
        with pytest.raises(UnknownPropertyError):
            s.property(Iri("http://schema.example/nope"))


class TestEmbeddedSchema:
    def test_loads_and_is_memoized(self, schema):
        assert load_default_schema() is schema
        assert schema.version == "1.0.0"

    def test_expected_shape(self, schema):
        assert len(schema.classes) >= 50
        assert len(schema.properties) >= 30

    def test_core_hierarchy(self, schema):
        assert schema.is_subclass_of(infrastructure("EnergySystem"),
                                     infrastructure("ResourceSystem"))
        assert schema.is_subclass_of(infrastructure("EnergySystem"), CLS_SCI)
        assert schema.is_subclass_of(CLS_SCI, CLS_OBSERVABLE)
        assert schema.is_subclass_of(evidence("DeviceImage"), CLS_ACQUIRED_EVIDENCE)
        assert schema.is_subclass_of(role("Adversary"), CLS_IDENTITY)
        assert schema.is_subclass_of(threats("Spoofing"), threats("Threat"))
        assert schema.is_subclass_of(CLS_INCIDENT, CLS_UCO_OBJECT)

    def test_every_domain_class_is_described(self, schema):
        # class families all carry human descriptions
        undescribed = [
            c.iri.value for c in schema.classes.values()
            if "scopeontology.org" in c.iri.value and not c.description
        ]
        assert undescribed == []

    def test_key_property_shapes(self, schema):
        md5 = schema.property(PROP_MD5)
        assert md5.functional and md5.max_card == 1
        custody_ts = schema.property(PROP_CUSTODY_TS)
        assert custody_ts.range == XSD_DATETIME
        targets = schema.property(PROP_TARGETS)
        assert not targets.functional
        assert targets.range == CLS_SCI
        crime_type = schema.property(PROP_CRIME_TYPE)
        assert crime_type.functional
        name = schema.property(PROP_NAME)
        assert name.functional

    def test_names_classes_and_properties_with_the_namespace_constants(self, schema):
        # lookups keyed on a PROP_*/CLS_* constant then hit on identity
        assert load_default_schema().properties[PROP_CUSTODY_TS].iri is PROP_CUSTODY_TS
        assert schema.classes[CLS_INCIDENT].iri is CLS_INCIDENT
        assert schema.property(PROP_TARGETS).range is CLS_SCI
        assert [c for c in schema.classes[CLS_SCI].parents if c is CLS_OBSERVABLE]

    def test_declared_namespaces_cover_families(self, schema):
        short = set(schema.namespaces)
        for expected in ("uco-core", "uco-observable", "case-investigation",
                         "scope-infrastructure", "scope-threats", "scope-crime",
                         "scope-role", "scope-evidence", "scope-indicators",
                         "scope-vocabulary", "scope-attackpatterns"):
            assert expected in short
