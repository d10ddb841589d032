"""Pinned error behaviour of the three text grammars and of the schema and
catalog loaders.

Each row is a malformed input and the exact error it raises: exception class,
message, line and column. At least one row per error branch of the Turtle, N-Triples
and query-text parsers, so a rewrite of a tokenizer cannot move or reword a
diagnostic unnoticed; and one row per raise of the schema and catalog loaders.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import scopekit
from scopekit.catalog import load_catalog
from scopekit.cli import main
from scopekit.errors import (
    CatalogFormatError,
    DanglingReferenceError,
    DuplicateDefinitionError,
    InvalidCardinalityError,
    ParseError,
    QueryTextError,
    UndefinedPrefixError,
    UnknownClassError,
)
from scopekit.ntriples import parse_ntriples
from scopekit.query import parse_query
from scopekit.schema import load_schema, load_schema_dir
from scopekit.terms import Iri
from scopekit.turtle import _Parser, parse_turtle

S, P, O = "<http://ex/s>", "<http://ex/p>", "<http://ex/o>"
PFX = "@prefix ex: <http://ex/> .\n"

TURTLE_ERRORS = [
    (f"{S} {P} [ <http://ex/q> 1 ] .", ParseError,
     "anonymous blank node property lists '[ ]' are not supported", 1, 29),
    (f"{S} {P} ( 1 2 ) .", ParseError, "collections '( )' are not supported", 1, 29),
    ("@base <http://ex/> .", ParseError, "@base is not supported", 1, 1),
    (f'{S} {P} """multi""" .', ParseError, "triple-quoted strings are not supported", 1, 29),
    (f"{S} {P} 1.5 .", ParseError,
     "decimal literals are not supported (quote them with a datatype)", 1, 29),
    (f"{S} {P} 12.5 .", ParseError,
     "decimal literals are not supported (quote them with a datatype)", 1, 29),
    (f"{S} {P} 1e3 .", ParseError, "exponent literals are not supported", 1, 29),
    (f"{S} {P} -25e1 .", ParseError, "exponent literals are not supported", 1, 29),
    (f"{S} {P} -x .", ParseError, "expected digits after sign", 1, 29),
    (f"{S} {P} +.5 .", ParseError, "expected digits after sign", 1, 29),
    (f"{S} {P} 12abc .", ParseError, "unexpected token 'abc'", 1, 31),
    (f'{S} {P} "open .', ParseError, "unterminated string literal", 1, 29),
    (f'{S} {P} "a\nb" .', ParseError, "newline inside string literal (use \\n)", 1, 31),
    (f'{S} {P} "\\u12G4" .', ParseError, "malformed \\u escape", 1, 30),
    (f'{S} {P} "\\U0000FFF" .', ParseError, "malformed \\U escape", 1, 30),
    (f'{S} {P} "\\U00110000" .', ParseError, "escape is not a valid code point", 1, 30),
    (f'{S} {P} "\\q" .', ParseError, "unknown escape \\q", 1, 30),
    (f'{S} {P} "a\\', ParseError, "unknown escape \\", 1, 31),
    (f"<http://ex/a b> {P} {O} .", ParseError, "whitespace inside IRI", 1, 13),
    (f"<http://ex/b\tad> {P} {O} .", ParseError, "whitespace inside IRI", 1, 13),
    (f"<http://ex/a\x01b> {P} {O} .", ParseError, "control character inside IRI", 1, 13),
    (f"<http://ex/s {P} {O} .", ParseError, "whitespace inside IRI", 1, 13),
    (f"{S} {P} <http://ex/o", ParseError, "unterminated IRI (missing '>')", 1, 29),
    (f"_a {P} {O} .", ParseError, "expected ':' after '_' in blank node label", 1, 1),
    (f"_:1a {P} {O} .", ParseError, "malformed blank node label: '1a'", 1, 1),
    (f"_: {P} {O} .", ParseError, "malformed blank node label: ''", 1, 1),
    (f"{S} {P} @ .", ParseError, "bare '@' is not a token", 1, 29),
    (f'{S} {P} "x"^<http://ex/d> .', ParseError, "expected '^^'", 1, 32),
    (f"{S} {P} % .", ParseError, "unexpected character '%'", 1, 29),
    (f"{S} {P} foo .", ParseError, "unexpected token 'foo'", 1, 29),
    (PFX + "ex:s ex:p ex:-a .", ParseError, "malformed local name '-a'", 2, 16),
    (PFX + "ex:s ex:p ex:.a .", ParseError, "malformed local name '.a'", 2, 16),
    ("@prefix 9x: <http://ex/> .", ParseError,
     "expected prefix name (like 'ex:') after @prefix", 1, 9),
    ("@prefix ex:a <http://ex/> .", ParseError,
     "expected prefix name (like 'ex:') after @prefix", 1, 9),
    ('@prefix ex: "x" .', ParseError, "expected <IRI> in @prefix directive", 1, 13),
    ("@prefix ex: <http://ex/>", ParseError, "expected '.' to close @prefix directive", 1, 25),
    ("@prefix é: <http://ex/> .", ParseError, "malformed prefix short-name 'é'", 1, 9),
    ("@foo <http://ex/> .", ParseError, "unknown directive @foo", 1, 1),
    ("@prefix ex: <relative> .", ParseError, "IRI has no scheme: 'relative'", 1, 13),
    ('nope:s <http://ex/p> "o" .', UndefinedPrefixError, "undefined prefix 'nope:'", 1, 1),
    (f"{S} {P} .", ParseError, "expected object, found '.'", 1, 29),
    (f"{S} {P} {O}", ParseError, "expected '.' at end of statement", 1, 42),
    (f'"lit" {P} {O} .', ParseError, "a literal cannot be the subject of a triple", 1, 1),
    (f"{S}", ParseError, "unexpected end of input (expected predicate)", 1, 14),
    (f"{S} {P}", ParseError, "unexpected end of input (expected object)", 1, 28),
    (f"{S} {P} {O} ;", ParseError, "unexpected end of input (expected predicate)", 1, 44),
    (f". {P} {O} .", ParseError, "expected subject, found '.'", 1, 1),
    (f'{S} "x" {O} .', ParseError, "expected predicate, found 'x'", 1, 15),
    (f'{S} {P} "x"^^"y" .', ParseError, "expected datatype IRI after '^^'", 1, 34),
    (f'{S} {P} "x"@toolongtag .', ParseError, "malformed language tag: 'toolongtag'", 1, 32),
    (f"{S} {P} a .", ParseError, "expected object, found 'a'", 1, 29),
    (f"{S} a {O} , .", ParseError, "expected object, found '.'", 1, 33),
    (f"{S} {P} {O} . foo", ParseError, "unexpected token 'foo'", 1, 45),
    (f"<relative> {P} {O} .", ParseError, "IRI has no scheme: 'relative'", 1, 1),
    (f'{S} {P} "x"^^<relative> .', ParseError, "IRI has no scheme: 'relative'", 1, 34),
    # a fault inside a term that was read comes before a part missing after it
    (f'<relative> "lit" {O} .', ParseError, "IRI has no scheme: 'relative'", 1, 1),
    # after a ',' or ';', and the terms a step reads but cannot build
    (PFX + "ex:s ex:p ex:o , %", ParseError, "unexpected character '%'", 2, 18),
    (PFX + 'ex:s ex:p ex:o ; "x" ex:o .', ParseError, "expected predicate, found 'x'", 2, 18),
    (PFX + "ex:s ex:p nope:o .", UndefinedPrefixError, "undefined prefix 'nope:'", 2, 11),
    (PFX + 'ex:s ex:p "v" # gap\n ^^ nope:d .', UndefinedPrefixError,
     "undefined prefix 'nope:'", 3, 5),
    (PFX + "ex:s ex:-p ex:o .", ParseError, "malformed local name '-p'", 2, 11),
    ("é:s <http://ex/p> <http://ex/o> .", UndefinedPrefixError, "undefined prefix 'é:'", 1, 1),
    ("@prefix ex: # c\n .", ParseError, "expected <IRI> in @prefix directive", 2, 2),
    (PFX + "ex:s ex:p ex:o ; ex:q <rel> .", ParseError, "IRI has no scheme: 'rel'", 2, 23),
    (PFX + 'ex:s ex:p "x", 12abc .', ParseError, "unexpected token 'abc'", 2, 18),
    # positions across lines, comments and CRLF line ends
    (PFX + "ex:s ex:p ex:o ;\n    ex:q %", ParseError, "unexpected character '%'", 3, 10),
    ('# comment\r\n@prefix ex: <http://ex/> .\r\nex:s ex:p\r\n  "a\\z" .', ParseError,
     "unknown escape \\z", 4, 5),
    (PFX + "\n\n  ex:s ex:p <http://ex/x y> .", ParseError, "whitespace inside IRI", 4, 25),
    # the first fault in document order: no token after a faulty one is read
    (f'{S} <rel> "\\uD800" .', ParseError, "IRI has no scheme: 'rel'", 1, 15),
    (PFX + f"{S} <rel> ex:é .", ParseError, "IRI has no scheme: 'rel'", 2, 15),
    ("<relative> %", ParseError, "IRI has no scheme: 'relative'", 1, 1),
    ("@prefix ex: <rel> . %", ParseError, "IRI has no scheme: 'rel'", 1, 13),
    (f'"\\uD800" {P} {O} .', ParseError, "a literal cannot be the subject of a triple", 1, 1),
    # a string is named by its text between the quotes, as written
    (f'{S} "a\\tb" {O} .', ParseError, "expected predicate, found 'a\\\\tb'", 1, 15),
]

NTRIPLES_ERRORS = [
    (f'"lit" {P} {O} .', "a literal cannot be the subject of a triple", 1, 1),
    (f"ex:s {P} {O} .", "expected subject, found 'e'", 1, 1),
    (f'{S} "lit" {O} .', "expected predicate IRI", 1, 15),
    (f"{S} {P} .", "expected object, found '.'", 1, 29),
    (f"{S} {P} ", "expected object, found ''", 1, 29),
    (f'{S} {P} "o"', "expected '.' at end of triple", 1, 32),
    (f'{S} {P} "a" "b" .', "expected '.' at end of triple", 1, 33),
    (f'{S} {P} "x"^<http://ex/d> .', "expected '.' at end of triple", 1, 32),
    (f"{S} {P} {O} . x", "unexpected trailing content after '.'", 1, 45),
    (f"<relative> {P} {O} .", "IRI has no scheme: 'relative'", 1, 1),
    (f'{S} {P} "x"^^<relative> .', "IRI has no scheme: 'relative'", 1, 34),
    (f"<http://ex/s {P} {O} .", "whitespace or control character inside IRI", 1, 13),
    (f"<http://ex/a b> {P} {O} .", "whitespace or control character inside IRI", 1, 13),
    (f"<http://ex/a\x01b> {P} {O} .", "whitespace or control character inside IRI", 1, 13),
    (f"{S} {P} <http://ex/o", "unterminated IRI (missing '>')", 1, 29),
    (f"_a {P} {O} .", "expected ':' after '_' in blank node label", 1, 1),
    (f"_:1 {P} {O} .", "malformed blank node label: '1'", 1, 1),
    (f'{S} {P} "open .', "unterminated string literal", 1, 29),
    (f'{S} {P} "\\u12G4" .', "malformed \\u escape", 1, 30),
    (f'{S} {P} "\\U0000FFF" .', "malformed \\U escape", 1, 30),
    (f'{S} {P} "\\U00110000" .', "escape is not a valid code point", 1, 30),
    (f'{S} {P} "\\q" .', "unknown escape \\q", 1, 30),
    (f'{S} {P} "abc\\', "unknown escape \\", 1, 33),
    (f'{S} {P} "x"^^foo .', "expected <IRI> after '^^'", 1, 34),
    (f'{S} {P} "x"@en- .', "malformed language tag 'en-'", 1, 32),
    (f'{S} {P} "x"@ .', "malformed language tag ''", 1, 32),
    (f'{S} {P} "x"@toolongtag .', "malformed language tag: 'toolongtag'", 1, 32),
    (f'{S} {P} "x" .\r\n{S} {P} {O} .\r\n{S} {P} "\\q" .\r\n', "unknown escape \\q", 3, 30),
    (f"# header\n\n{S} {P} {O} . # ok\n  {S} %", "expected predicate IRI", 4, 17),
    # a fault inside a term that was read comes before a missing part after it
    (f'<relative> "lit" {O} .', "IRI has no scheme: 'relative'", 1, 1),
    (f"<relative> {P} {O} . x", "IRI has no scheme: 'relative'", 1, 1),
    (f'{S} <relative> "x"@en-', "IRI has no scheme: 'relative'", 1, 15),
    (f'{S} {P} "\\q" . x', "unknown escape \\q", 1, 30),
    (f"_:1 <relative> {O} .", "malformed blank node label: '1'", 1, 1),
    (f'{S} {P} "x"@toolongtag x', "malformed language tag: 'toolongtag'", 1, 32),
    # a literal's '^^' or '@' is read where the literal ends, not after a gap
    (f'{S} {P} "x" @en .', "expected '.' at end of triple", 1, 33),
    (f'{S} {P} "x"^^<http://ex/a b> .', "whitespace or control character inside IRI", 1, 46),
]

QUERY_ERRORS = [
    ('?s ?p "open', "unterminated string literal", 1),
    ('?s ?p "a\\', "unknown escape \\", 1),
    ('?s ?p "\\u12G4"', "malformed \\u escape", 1),
    ('?s ?p "\\U0000FFF"', "malformed \\U escape", 1),
    ('?s ?p "\\U00110000"', "escape is not a valid code point", 1),
    ('?s ?p "\\q"', "unknown escape \\q", 1),
    ("?s ?p <http://a", "unterminated IRI (missing '>')", 1),
    ("?s <http://a ?o", "whitespace or control character inside IRI", 1),
    ("?s ?p <rel>", "bad IRI: IRI has no scheme: 'rel'", 1),
    ("?s ?p <http://a b>", "whitespace or control character inside IRI", 1),
    ("kb:a{b ?p ?o", "malformed local name 'a{b'", 1),
    ('?s ?p "x"^^kb:a|b', "malformed local name 'a|b'", 1),
    ('?s ?p "x"^^', "^^ needs a datatype", 1),
    ('?s ?p "x"^^?v', "datatype must be an IRI", 1),
    # the term after '^^' is read, and its fault named, as any other term
    ('?s ?p "x"^^<http://a', "unterminated IRI (missing '>')", 1),
    ('?s ?p "x"^^"\\q"', "unknown escape \\q", 1),
    ('?s ?p "x"^^"y"@en', "datatype must be an IRI", 1),
    ('?s ?p "x"@toolongtag', "malformed language tag: 'toolongtag'", 1),
    ("?s ?p", "expected a term", 1),
    ("?1 ?p ?o", "variable names match ?[A-Za-z][A-Za-z0-9_]*, got ?1", 1),
    ("?s ?p _:1", "malformed blank node label: '1'", 1),
    # a label runs to the next blank, and is named whole
    ("_:b?r ?s ?o", "malformed blank node label: 'b?r'", 1),
    ("?s ?p _:\ufffdb", "malformed blank node label: '\ufffdb'", 1),
    ("?s ?p nope:x", "undefined prefix 'nope'", 1),
    ("?s ?p %%", "cannot read term starting at '%%'", 1),
    ("?s ?p ?o ?x", "a pattern line holds exactly three terms", 1),
    ('?s "x" ?o', "pattern predicate must be an IRI or a variable", 1),
    ("FILTER ?s regex", "FILTER lines look like: FILTER ?v /regex/", 1),
    ("", "query has no patterns", 1),
    ("# only\n\n", "query has no patterns", 1),
    ("?s ?p ?o\n# comment\n\n  ?a ?b", "expected a term", 4),
]


@pytest.mark.parametrize("doc,cls,message,line,column", TURTLE_ERRORS)
def test_turtle_errors(doc, cls, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_turtle(doc)
    assert type(exc.value) is cls
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"{message} (line {line}, column {column})"


@pytest.mark.parametrize("doc,message,line,column", NTRIPLES_ERRORS)
def test_ntriples_errors(doc, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_ntriples(doc)
    assert type(exc.value) is ParseError
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"{message} (line {line}, column {column})"


@pytest.mark.parametrize("parse", [parse_turtle, parse_ntriples])
def test_invalid_utf8_has_no_position(parse):
    with pytest.raises(ParseError) as exc:
        parse(b"\xff\xfe<http://ex/s>")
    assert type(exc.value) is ParseError
    assert (exc.value.line, exc.value.column) == (0, 0)
    assert str(exc.value) == "document is not valid UTF-8: invalid start byte"


@pytest.mark.parametrize("text,message,line", QUERY_ERRORS)
def test_query_errors(text, message, line):
    with pytest.raises(QueryTextError) as exc:
        parse_query(text)
    assert type(exc.value) is QueryTextError
    assert exc.value.line == line
    assert str(exc.value) == f"{message} (query line {line})"


# the faults of an IRI, a blank node label or a string literal that does not
# close, holds a bad character or a bad escape
TERM_FAULTS = ("unterminated IRI (missing '>')", "whitespace or control character inside IRI",
               "expected ':' after '_' in blank node label", "malformed blank node label: '1'",
               "unterminated string literal", "malformed \\u escape", "malformed \\U escape",
               "escape is not a valid code point", "unknown escape \\q", "unknown escape \\")


@pytest.mark.parametrize("doc,message,line,column",
                         [row for row in NTRIPLES_ERRORS if row[1] in TERM_FAULTS])
def test_query_words_a_term_fault_as_ntriples_does(doc, message, line, column):
    # the faulty N-Triples line as a query line, the fault in its subject or its object
    text = doc.split("\n")[line - 1].rstrip("\r")
    with pytest.raises(QueryTextError) as exc:
        parse_query(text)
    assert str(exc.value) == f"{message} (query line 1)"


SURROGATE_ESCAPES = ["\\uD800", "\\uDFFF", "\\U0000D800"]


@pytest.mark.parametrize("escape", SURROGATE_ESCAPES)
@pytest.mark.parametrize("parse", [parse_turtle, parse_ntriples])
def test_surrogate_escapes_rejected(parse, escape):
    # RDF 1.1: a UCHAR must name a Unicode scalar value
    with pytest.raises(ParseError) as exc:
        parse(f'{S} {P} "ok" .\n{S} {P} "a{escape}" .\n')
    assert type(exc.value) is ParseError
    assert (exc.value.line, exc.value.column) == (2, 31)
    assert f"escape {escape} is not a Unicode scalar value" in str(exc.value)


@pytest.mark.parametrize("escape", SURROGATE_ESCAPES)
def test_surrogate_escapes_rejected_in_query(escape):
    with pytest.raises(QueryTextError) as exc:
        parse_query(f'?s ?p ?o\n?s ?p "{escape}"@en')
    assert exc.value.line == 2
    assert f"escape {escape} is not a Unicode scalar value" in str(exc.value)


@pytest.mark.parametrize("parse", [parse_turtle, parse_ntriples])
def test_raw_surrogate_in_text_rejected(parse):
    with pytest.raises(ParseError, match="surrogates not allowed"):
        parse(f'{S} {P} "\ud800" .')


# one-line statements that both grammars match, with one term that does not build
TERM_BUILD_FAULTS = [
    f"<rel> {P} {O} .",
    f"{S} <rel> {O} .",
    f"{S} {P} <rel> .",
    f"_:b {P} <> .",
    f"{S} <http://ex/a{{b}}> {O} .",
    f"{S} {P} <http://ex/a|b> .",
    f'{S} {P} "ok\\uDABC" .',
    f'{S} {P} "\\U0000DFFF" .',
    f'{S} {P} "x"@toolongtag .',
    f'{S} {P} "x"^^<rel> .',
]


@pytest.mark.parametrize("doc", TERM_BUILD_FAULTS)
def test_both_readers_place_a_term_fault_alike(doc):
    errors = []
    for parse in (parse_ntriples, parse_turtle):
        with pytest.raises(ParseError) as exc:
            parse(doc)
        errors.append((type(exc.value), str(exc.value), exc.value.line, exc.value.column))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("doc", [*TERM_BUILD_FAULTS, PFX + "ex:s ex:p nope:o .",
                                 PFX + "ex:s ex:-p ex:o .", "@prefix ex: <rel> ."])
def test_turtle_raises_a_term_fault_where_the_step_built_it(monkeypatch, doc):
    # the walk diagnoses only a step that does not match
    def diagnose(self, pos):
        raise AssertionError(f"walked from {pos} after a step that matched")
    monkeypatch.setattr(_Parser, "_diagnose", diagnose)
    with pytest.raises(ParseError):
        parse_turtle(doc)


SCHEMA_PFX = ("@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
              "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
              "@prefix scm: <https://ontology.scopeontology.org/scope/meta/> .\n" + PFX)
CLASS_A = SCHEMA_PFX + "ex:A a rdfs:Class .\n"

# A schema document, or the files of a schema directory, and its error.
SCHEMA_ERRORS = [
    (SCHEMA_PFX + 'ex:A a rdfs:Class ; rdfs:label "a", "b" .', DuplicateDefinitionError,
     "http://ex/A has 2 distinct label values"),
    (SCHEMA_PFX + "ex:p a rdf:Property ; scm:minCount ex:p .", InvalidCardinalityError,
     "minCount on http://ex/p must be an integer literal"),
    (SCHEMA_PFX + 'ex:p a rdf:Property ; scm:maxCount "many" .', InvalidCardinalityError,
     "maxCount on http://ex/p is not an integer: 'many'"),
    (SCHEMA_PFX + "ex:p a rdf:Property ; scm:maxCount 1, 2 .", DuplicateDefinitionError,
     "http://ex/p has conflicting maxCount values"),
    (SCHEMA_PFX + "_:c a rdfs:Class .", DanglingReferenceError,
     "class declarations must use IRIs"),
    (SCHEMA_PFX + "_:p a rdf:Property .", DanglingReferenceError,
     "property declarations must use IRIs"),
    (CLASS_A + "ex:B rdfs:subClassOf ex:A .", DanglingReferenceError,
     "subClassOf asserted on undeclared class http://ex/B"),
    (SCHEMA_PFX + 'ex:A a rdfs:Class ; rdfs:subClassOf "x" .', DanglingReferenceError,
     "subclass target of http://ex/A must be an IRI"),
    (CLASS_A + 'ex:p a rdf:Property ; rdfs:domain "x" .', DanglingReferenceError,
     "domain of http://ex/p must be an IRI"),
    (SCHEMA_PFX + 'ex:p a rdf:Property ; rdfs:range "x" .', DanglingReferenceError,
     "range of http://ex/p must be an IRI"),
    # a directory's manifest names the namespaces and classes its documents hold
    ({"a.ttl": CLASS_A, "manifest.txt": "version 1\nex\n"}, DanglingReferenceError,
     "malformed manifest line: 'ex'"),
    ({"a.ttl": CLASS_A, "manifest.txt": "nope http://ex/A\n"}, DanglingReferenceError,
     "manifest expects namespace 'nope', absent from loaded documents"),
    ({"a.ttl": CLASS_A, "manifest.txt": "ex http://ex/B\n"}, DanglingReferenceError,
     "manifest expects class http://ex/B, absent from loaded documents"),
]


def write_files(directory, files: dict):
    directory.mkdir(exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@pytest.mark.parametrize("source,cls,message", SCHEMA_ERRORS)
def test_schema_errors(source, cls, message, tmp_path):
    with pytest.raises(cls) as exc:
        if isinstance(source, dict):
            load_schema_dir(write_files(tmp_path / "schema", source))
        else:
            load_schema([source])
    assert type(exc.value) is cls
    assert str(exc.value) == message


def test_schema_dir_reads_a_dot_file(tmp_path):
    schema = load_schema_dir(write_files(tmp_path / "schema", {".a.ttl": CLASS_A}))
    assert list(schema.classes) == [Iri("http://ex/A")]


@pytest.mark.parametrize("files", [None, {}, {"a.ttl.txt": CLASS_A, "manifest.txt": ""}],
                         ids=["missing", "empty", "no-ttl"])
def test_schema_dir_without_documents(tmp_path, capsys, files):
    directory = tmp_path / "schema"
    if files is not None:
        write_files(directory, files)
    message = f"no .ttl schema documents in {directory}"
    with pytest.raises(DanglingReferenceError) as exc:
        load_schema_dir(directory)
    assert str(exc.value) == message
    case = tmp_path / "case.ttl"
    case.write_text(f"{S} {P} {O} .\n", encoding="utf-8")
    assert main(["validate", str(case), "--schema", str(directory)]) == 2
    assert capsys.readouterr().err == f"scopekit: {message}\n"


@pytest.mark.parametrize("lookup,args", [("is_subclass_of", ("http://ex/A", "http://ex/B")),
                                         ("subclasses_of", ("http://ex/B",))])
def test_schema_lookup_of_an_undeclared_class(lookup, args):
    schema = load_schema([CLASS_A])
    with pytest.raises(UnknownClassError) as exc:
        getattr(schema, lookup)(*map(Iri, args))
    assert str(exc.value) == "class not declared: http://ex/B"


def test_cli_names_a_schema_fault_on_one_line(tmp_path, capsys):
    files, _, message = SCHEMA_ERRORS[-1]
    case = tmp_path / "case.ttl"
    case.write_text(f"{S} {P} {O} .\n", encoding="utf-8")
    schema = write_files(tmp_path / "schema", files)
    assert main(["validate", str(case), "--schema", str(schema)]) == 2
    assert capsys.readouterr().err == f"scopekit: {message}\n"


# a fault in a case file or in a query, as the CLI names it: N-Triples (a term's
# fault before trailing content), Turtle (after a ';') and a query term
CLI_FAULTS = [
    ("case.nt", f"<relative> {P} {O} . x\n", ["convert", "CASE", "--to", "ttl"],
     "IRI has no scheme: 'relative' (line 1, column 1)"),
    ("case.ttl", PFX + "ex:s ex:p ex:o ;\n    ex:q %\n", ["convert", "CASE", "--to", "nt"],
     "unexpected character '%' (line 3, column 10)"),
    ("case.ttl", f"{S} {P} {O} .\n", ["query", "CASE", "-q", '?s ?p "\\q"'],
     "unknown escape \\q (query line 1)"),
]


@pytest.mark.parametrize("name,doc,argv,message", CLI_FAULTS, ids=["nt", "ttl", "query"])
def test_cli_names_a_parse_fault_on_one_line(tmp_path, capsys, name, doc, argv, message):
    case = tmp_path / name
    case.write_text(doc, encoding="utf-8")
    assert main([str(case) if arg == "CASE" else arg for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"scopekit: {message}\n")


TECHNIQUES = "id,name,tactic\n"
CAPEC = "id,name,technique_ids\n"
INDICATORS = "standard,clause,description,system_iri\n"
# A well-formed catalog, and, per row, the one file that replaces its own.
CATALOG_FILES = {"techniques.csv": TECHNIQUES + "T1190,Exploit,InitialAccess\n",
                 "capec.csv": CAPEC + "CAPEC-1,Pattern,T1190\n",
                 "indicators.csv": INDICATORS + "ISO37120,1.1,Uptime,http://ex/S\n"}

# of several bad references, the first the row writes, whatever the hash seed
SEVERAL_BAD_REFERENCES = ("capec.csv", CAPEC + "CAPEC-1,P,T1;T2;T3\n", CatalogFormatError,
                          "capec.csv: row 2: bad technique reference 'T1'")
CATALOG_ERRORS = [
    ("techniques.csv", "# commentary only\n\n", CatalogFormatError,
     "techniques.csv: no header row"),
    ("techniques.csv", TECHNIQUES + "T12,Exploit,Impact\n", CatalogFormatError,
     "techniques.csv: row 2: bad id 'T12'"),
    ("techniques.csv", TECHNIQUES + "T1190,Exploit,Nope\n", CatalogFormatError,
     "techniques.csv: row 2: unknown tactic 'Nope'"),
    ("techniques.csv", TECHNIQUES + "T1190,Exploit,Impact\nT1190,Again,Impact\n",
     CatalogFormatError, "techniques.csv: row 3: duplicate id T1190"),
    # a blank row is skipped, and counted
    ("techniques.csv", TECHNIQUES + ",,\nT1190,,Impact\n", CatalogFormatError,
     "techniques.csv: row 3: empty name"),
    ("capec.csv", CAPEC + "CAPEC1,Pattern,\n", CatalogFormatError,
     "capec.csv: row 2: bad id 'CAPEC1'"),
    ("capec.csv", CAPEC + "CAPEC-1,Pattern,\nCAPEC-1,Again,\n", CatalogFormatError,
     "capec.csv: row 3: duplicate id CAPEC-1"),
    ("capec.csv", CAPEC + "CAPEC-1,Pattern,T1190; T99\n", CatalogFormatError,
     "capec.csv: row 2: bad technique reference 'T99'"),
    SEVERAL_BAD_REFERENCES,
    ("indicators.csv", INDICATORS + "ISO9001,1,Uptime,http://ex/S\n", CatalogFormatError,
     "indicators.csv: row 2: unknown standard 'ISO9001'"),
    ("indicators.csv", INDICATORS + "ISO37120,,Uptime,http://ex/S\n", CatalogFormatError,
     "indicators.csv: row 2: empty clause"),
    ("indicators.csv", INDICATORS + "ISO37120,1.1,Uptime,http://ex/S\nISO37120,1.1,Again,"
     "http://ex/S\n", CatalogFormatError, "indicators.csv: row 3: duplicate clause ISO37120 1.1"),
]


@pytest.mark.parametrize("name,text,cls,message", CATALOG_ERRORS)
def test_catalog_errors(name, text, cls, message):
    with pytest.raises(cls) as exc:
        load_catalog(*({**CATALOG_FILES, name: text}.values()))
    assert type(exc.value) is cls
    assert str(exc.value) == message


# characters that str.splitlines() breaks a line at, though a CSV or manifest
# line does not end there
LINE_SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", LINE_SEPARATORS)
def test_catalog_cell_keeps_a_line_separator(separator):
    description = f"line one{separator}line two"
    indicators = f'# {separator} commentary\n{INDICATORS}ISO37120,1.1,"{description}",http://ex/S\n'
    catalog = load_catalog(*({**CATALOG_FILES, "indicators.csv": indicators}.values()))
    assert [i.description for i in catalog.indicators] == [description]


@pytest.mark.parametrize("separator", LINE_SEPARATORS)
def test_manifest_version_keeps_a_line_separator(tmp_path, separator):
    manifest = f"# {separator} commentary\nversion 1.0{separator}rc\n"
    files = {"a.ttl": CLASS_A, "manifest.txt": manifest}
    assert load_schema_dir(write_files(tmp_path / "schema", files)).version == f"1.0{separator}rc"


CATALOG_FIRST_FAULT = """
import sys
from scopekit.catalog import load_catalog
try:
    load_catalog(*sys.argv[1:])
except Exception as exc:
    print(exc)
"""


def test_catalog_names_the_first_bad_reference_under_every_hash_seed():
    _, text, _, message = SEVERAL_BAD_REFERENCES
    files = {**CATALOG_FILES, "capec.csv": text}
    src = str(Path(scopekit.__file__).resolve().parents[1])
    for seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", CATALOG_FIRST_FAULT, *files.values()],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert out == message + "\n", f"PYTHONHASHSEED={seed}"
