"""Contracts the parsers keep on every input, checked on generated ones.

Hypothesis runs these under the derandomized `contracts` profile, so every run
draws the same examples and a failure reproduces without a database.

- A graph written in any Turtle layout parses to the graph its N-Triples
  lines parse to, and the parser's step pattern reads the whole document:
  the walk that diagnoses a failed step is never reached.
- On mutated documents (the fixtures', and small graphs' in random layouts)
  the parse gives the graph or the error pinned in
  data/turtle_mutant_outcomes.txt, every error lies inside the document, the
  CLI exits 0 or 2 without a traceback, and what `convert`, `validate` and
  `query` write to stdout encodes as UTF-8.
- On mutated N-Triples documents the parser raises only a ParseError, whose
  line and column lie inside the document, and `convert --to ttl` exits 0
  or 2 without a traceback.
- On mutated query texts, parsing the query and compiling its filters raise
  only the query text's own errors, and the parse gives the patterns and
  filters or the error pinned in data/query_mutant_outcomes.txt, as it does
  on seeded lines of terms and near-terms.
- Each canonical writer's output parses back to the graph it wrote, and
  Turtle -> N-Triples -> Turtle gives back the same bytes.
"""

import contextlib
import functools
import hashlib
import random
import re
import subprocess
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from scopekit import cli, turtle
from scopekit.errors import (
    MalformedVariableError,
    ParseError,
    QueryTextError,
    ScopeKitError,
    UnsupportedRegexError,
)
from scopekit.namespaces import RDF_NS, STANDARD_PREFIXES, XSD
from scopekit.ntriples import (
    decode_document,
    parse_ntriples,
    render_term,
    render_triple,
    serialize_ntriples_canonical,
)
from scopekit.query import Variable, check_regex, parse_query
from scopekit.terms import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
)
from scopekit.turtle import parse_turtle, serialize_turtle_canonical

from conftest import FIXTURE_DIR
from helpers import assert_one_object_per_term, load_casegen, run_python

# no explain phase: it re-runs each falsifying example many times over, which
# turns a failing property's report from seconds into minutes
settings.register_profile("contracts", derandomize=True, database=None, deadline=None,
                          max_examples=150, phases=[p for p in Phase if p is not Phase.explain])
CONTRACTS = settings.get_profile("contracts")

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_FILES = sorted((ROOT / "src" / "scopekit" / "schemas").glob("*.ttl"))
FIXTURE_FILES = sorted(FIXTURE_DIR.glob("*.ttl"))

PREFIXES = {"kb": "http://example.org/kb/", "v": "http://example.org/vocab#",
            "xsd": XSD, "rdf": RDF_NS}
# locals a prefixed name can carry, and some it cannot
LOCALS = ("s", "o1", "a.b", "x-y", "_u", "9lives", "type", "", "with/slash", "tail.", "é")
SAFE_LOCAL = re.compile(r"(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?")
LANGS = ("en", "EN", "en-GB", "zh-Hans", "de")

lexicals = st.one_of(
    st.text(alphabet=st.characters(codec="utf-8"), max_size=10),
    st.sampled_from(("😀", "𝔘𝔫𝔦", 'q"uo\\te', "tab\tnl\ncr\r", "\x01\x7f", "")))
iris = st.builds(lambda ns, local: Iri(ns + local),
                 st.sampled_from(sorted(PREFIXES.values())), st.sampled_from(LOCALS))
blanks = st.sampled_from(("b0", "b1", "node_2")).map(BlankNode)
literals = st.one_of(
    lexicals.map(Literal),
    st.builds(lambda lexical, tag: Literal(lexical, lang=tag), lexicals, st.sampled_from(LANGS)),
    st.integers(-10**6, 10**6).map(lambda i: Literal(str(i), XSD_INTEGER)),
    st.sampled_from(("+7", "007", "-0", "1.5")).map(lambda lexical: Literal(lexical, XSD_INTEGER)),
    st.sampled_from(("true", "false", "TRUE")).map(lambda lexical: Literal(lexical, XSD_BOOLEAN)),
    lexicals.map(lambda lexical: Literal(lexical, XSD_DATETIME)))
triple_lists = st.lists(st.builds(Triple, st.one_of(iris, blanks),
                                  st.one_of(iris, st.just(RDF_TYPE)),
                                  st.one_of(iris, blanks, literals)), max_size=25)


def write_turtle(triples, rng: random.Random) -> str:
    """Turtle for `triples` in a layout drawn from rng.

    The layout mixes ';' and ',' groupings with repeated predicates and
    subjects, a trailing ';', comments, CRLF or LF, tabs, prefixed names and
    full IRIs, `a`, `rdf:type` and the full type IRI, bare and typed
    integers and booleans, escaped and raw characters in strings, and
    whitespace and comments around a literal's '^^' or '@' and inside
    @prefix directives.
    """
    nl = rng.choice(("\n", "\r\n"))

    def gap(empty: str = "") -> str:
        # only punctuation may follow a term without a gap
        return rng.choice((" ", " ", "  ", "\t", nl + "    ", nl + "\t", " # note" + nl + "  ",
                           "#" + nl, empty))

    def iri(term: Iri) -> str:
        for name, ns in PREFIXES.items():
            local = term.value[len(ns):]
            if (term.value.startswith(ns) and SAFE_LOCAL.fullmatch(local)
                    and rng.random() < 0.7):
                return f"{name}:{local}"
        return f"<{term.value}>"

    def string(lexical: str) -> str:
        out = []
        for ch in lexical:
            code = ord(ch)
            if ch in '"\\\n\r' or rng.random() < 0.15:
                if ch in '"\\\n\r' and rng.random() < 0.5:
                    out.append("\\" + {'"': '"', "\\": "\\", "\n": "n", "\r": "r"}[ch])
                elif code > 0xFFFF:
                    out.append(f"\\U{code:08X}")
                else:
                    out.append(f"\\u{code:04x}" if rng.random() < 0.5 else f"\\u{code:04X}")
            else:
                out.append(ch)
        return '"' + "".join(out) + '"'

    def term(t, as_verb: bool = False) -> str:
        if isinstance(t, BlankNode):
            return f"_:{t.label}"
        if isinstance(t, Iri):
            if as_verb and t == RDF_TYPE:
                return rng.choice(("a", "rdf:type", f"<{RDF_TYPE.value}>"))
            return iri(t)
        bare = rng.random() < 0.6
        if t.datatype == XSD_INTEGER and re.fullmatch(r"[+-]?[0-9]+", t.lexical) and bare:
            return t.lexical
        if t.datatype == XSD_BOOLEAN and t.lexical in ("true", "false") and bare:
            return t.lexical
        if t.lang is not None:
            tag = t.lang.upper() if rng.random() < 0.5 else t.lang
            return f"{string(t.lexical)}{gap()}@{tag}"
        if t.datatype == XSD_STRING and bare:
            return string(t.lexical)
        return f"{string(t.lexical)}{gap()}^^{gap()}{iri(t.datatype)}"

    def prefix(name: str) -> str:
        return f"@prefix{gap(' ')}{name}:{gap()}<{PREFIXES[name]}>{gap()}."

    lines = [prefix(name) for name in PREFIXES]
    by_subject: dict = {}
    for t in triples:
        by_subject.setdefault(t.subject, {}).setdefault(t.predicate, []).append(t.object)
    subjects = list(by_subject)
    rng.shuffle(subjects)
    for subject in subjects:
        groups = [(p, objs) for p, objs in by_subject[subject].items()]
        while groups:
            # one statement takes the next few predicates
            k = rng.randint(1, 3)
            take, groups = groups[:k], groups[k:]
            verbs = []
            for predicate, objs in take:
                # a predicate's objects as one ',' list, or repeated under ';'
                chunks = [objs] if rng.random() < 0.7 else [[o] for o in objs]
                for chunk in chunks:
                    objects = (gap() + "," + gap()).join(term(o) for o in chunk)
                    verbs.append(term(predicate, as_verb=True) + gap(" ") + objects)
            trailing = gap() + ";" if rng.random() < 0.2 else ""
            lines.append(term(subject) + gap(" ")
                         + (gap() + ";" + gap()).join(verbs) + trailing + gap() + ".")
        if rng.random() < 0.2:
            lines.append(rng.choice(("# a comment line", prefix("kb"))))
    return nl.join(lines) + rng.choice(("", nl, nl + "# the end"))


@contextlib.contextmanager
def steps_only():
    """Fails a parse that diagnoses a step: on a valid document, that is a
    valid form the step pattern misses."""
    def refuse(self, pos):
        pytest.fail(f"the step at offset {pos} was diagnosed:\n" + self.text[pos:pos + 300])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(turtle._Parser, "_diagnose", refuse)
        yield


def casegen_text() -> str:
    casegen = load_casegen()
    return casegen.to_turtle(casegen.generate_case(random.Random(7), 6).triples)


# whitespace and comments around a literal's '^^' or '@' and inside @prefix
GAPS_TEXT = ('@prefix # the vocabulary\n v: # its name\n <http://example.org/vocab#> # . \n .\n'
             '@prefix xsd:<http://www.w3.org/2001/XMLSchema#>.\n'
             'v:s v:p "x" ^^ xsd:string , "1"\n# typed\n^^# here\n<http://ex/dt> ;\n'
             '  v:q "y" @en , "z"\t# tagged\n@EN-gb .\n')


class TestLayouts:
    @CONTRACTS
    @given(triples=triple_lists, layout=st.randoms(use_true_random=False))
    def test_any_layout_parses_like_ntriples(self, triples, layout):
        text = write_turtle(triples, layout)
        nt = "".join(render_triple(t) + "\n" for t in triples)
        with steps_only():
            g = parse_turtle(text)
        assert g == parse_ntriples(nt)
        assert_one_object_per_term(g)

    @pytest.mark.parametrize("path", FIXTURE_FILES + SCHEMA_FILES, ids=lambda p: p.name)
    def test_shipped_files_need_no_fallback(self, path):
        with steps_only():
            assert len(parse_turtle(path.read_bytes())) > 0

    def test_generated_case_needs_no_fallback(self):
        text = casegen_text()
        with steps_only():
            assert len(parse_turtle(text)) > 0

    def test_gaps_around_literal_suffixes_and_in_prefix_need_no_fallback(self):
        with steps_only():
            g = parse_turtle(GAPS_TEXT)
        assert outcome_line((g.triples, g.prefixes)) == pinned_outcomes()["gaps-0"]
        assert {str(t.object) for t in g} == {
            '"x"', '"1"^^http://ex/dt', '"y"@en', '"z"@en-gb'}

    def test_shipped_file_count(self):
        assert (len(FIXTURE_FILES), len(SCHEMA_FILES)) == (3, 11)


# bytes a mutation inserts or writes: the grammar's own, and some others
MUTATION_BYTES = b'<>"\\:;,.@^_#\n\r\t -+0123456789aeEtf[](){}%\xc3\xa9\xff'


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        op = rng.randrange(5)
        byte = bytes([rng.choice(MUTATION_BYTES)])
        if op == 0:
            data = data[:i] + byte + data[i + 1:]
        elif op == 1:
            data = data[:i] + byte + data[i:]
        elif op == 2:
            data = data[:i] + data[i + 1:]
        elif op == 3:
            j = rng.randrange(len(data) + 1)
            data = data[:i] + data[min(i, j):max(i, j)] + data[i:]
        else:
            data = data[:i]
    return data


def mutants(name: str, count: int) -> list[bytes]:
    rng = random.Random(f"mutants-{name}")
    data = (FIXTURE_DIR / name).read_bytes()
    return [mutate(data, rng) for _ in range(count)]


def ntriples_mutants(name: str, count: int) -> list[bytes]:
    """Mutants of a fixture's triples written as N-Triples lines, after a
    comment and a blank line."""
    rng = random.Random(f"nt-mutants-{name}")
    lines = sorted(render_triple(t) + "\n" for t in parse_turtle((FIXTURE_DIR / name).read_bytes()))
    data = ("# " + name + "\n\n" + "".join(lines)).encode()
    return [mutate(data, rng) for _ in range(count)]


def layout_triples(rng: random.Random) -> list[Triple]:
    """One to eight triples over three subjects and three predicates, so that
    their Turtle groups objects under ';' and ','; the objects take every
    literal form."""
    ns = sorted(PREFIXES.values())
    subjects = [Iri(rng.choice(ns) + rng.choice(LOCALS)) for _ in range(2)] + [BlankNode("b0")]
    predicates = [Iri(rng.choice(ns) + rng.choice(LOCALS)) for _ in range(2)] + [RDF_TYPE]
    lexical = ("x", "a b", 'q"t', "é", "", "2024-01-01T00:00:00Z")
    objects = (
        lambda: rng.choice(subjects),
        lambda: Literal(rng.choice(lexical)),
        lambda: Literal(rng.choice(lexical), lang=rng.choice(LANGS)),
        lambda: Literal(rng.choice(lexical), XSD_DATETIME),
        lambda: Literal(str(rng.randint(-99, 99)), XSD_INTEGER),
        lambda: Literal(rng.choice(("true", "false")), XSD_BOOLEAN))
    return [Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects)())
            for _ in range(rng.randint(1, 8))]


# Pinned parse outcomes: each fixture's 150 mutants, 300 mutants of small
# graphs in random layouts (which reach the ',', ';' and literal-gap branches
# that the fixtures rarely do), and GAPS_TEXT. A change that moves one on
# purpose rewrites the file from `turtle_mutant_outcomes()` and says which.
PINNED_OUTCOMES = Path(__file__).parent / "data" / "turtle_mutant_outcomes.txt"
PINNED_SOURCES = [p.name for p in FIXTURE_FILES] + ["layouts", "gaps"]


def pinned_documents(source: str) -> list[bytes]:
    if source == "gaps":
        return [GAPS_TEXT.encode()]
    if source != "layouts":
        return mutants(source, 150)
    rng = random.Random("layout-mutants")
    return [mutate(write_turtle(layout_triples(rng), rng).encode(), rng) for _ in range(300)]


def outcome(parse, doc):
    try:
        g = parse(doc)
    except ParseError as e:
        return type(e), str(e), e.line, e.column
    return g.triples, g.prefixes


def outcome_line(result) -> str:
    """An outcome as one line: class|message|line|column, or the SHA-256 of
    the graph's sorted @prefix lines and sorted N-Triples lines."""
    if len(result) == 4:
        cls, message, line, column = result
        message = message.removesuffix(f" (line {line}, column {column})")
        return f"{cls.__name__}|{message}|{line}|{column}"
    triples, prefixes = result
    lines = sorted(f"@prefix {name}: <{ns.value}> ." for name, ns in prefixes.items())
    lines += sorted(map(render_triple, triples))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def turtle_mutant_outcomes() -> str:
    """The pinned file's text: one line per document, its source and index,
    then its parse outcome."""
    return "".join(f"{source}-{i} {outcome_line(outcome(parse_turtle, data))}\n"
                   for source in PINNED_SOURCES for i, data in enumerate(pinned_documents(source)))


@functools.cache
def pinned_outcomes() -> dict[str, str]:
    return dict(line.split(" ", 1)
                for line in PINNED_OUTCOMES.read_text(encoding="utf-8").splitlines())


class TestMutatedFixtures:
    @pytest.mark.parametrize("name", [p.name for p in FIXTURE_FILES] + ["layouts"])
    def test_errors_stay_inside_the_document(self, name):
        pinned = pinned_outcomes()
        for i, data in enumerate(pinned_documents(name)):
            result = outcome(parse_turtle, data)
            assert outcome_line(result) == pinned[f"{name}-{i}"], data
            try:
                text = decode_document(data)
            except ParseError as e:
                assert result == outcome(decode_document, data)
                assert (e.line, e.column) == (0, 0)
                continue
            if len(result) == 4:
                line, column = result[2:]
                lines = text.split("\n")
                assert 1 <= line <= len(lines)
                assert 1 <= column <= len(lines[line - 1]) + 1

    @pytest.mark.parametrize("name", [p.name for p in FIXTURE_FILES])
    def test_convert_exits_cleanly(self, name, tmp_path, capsys):
        path = tmp_path / name
        codes = set()
        for data in mutants(name, 25):
            path.write_bytes(data)
            codes.add(cli.main(["convert", str(path), "--to", "nt"]))
            err = capsys.readouterr().err
            assert "Traceback" not in err
        assert codes <= {0, 2}

    @pytest.mark.parametrize("name", [p.name for p in FIXTURE_FILES])
    def test_stdout_encodes_as_utf8(self, name, tmp_path, capsys):
        path = tmp_path / name
        commands = (["convert", str(path), "--to", "nt"], ["convert", str(path), "--to", "ttl"],
                    ["validate", str(path)], ["query", str(path), "-q", "?s ?p ?o"])
        # and the fixture with a literal that escapes half a surrogate pair
        fixture = (FIXTURE_DIR / name).read_bytes()
        escaped = fixture.replace(b' "', b' "\\uD83D', 1)
        for data in [*mutants(name, 25), escaped]:
            path.write_bytes(data)
            for argv in commands:
                cli.main(argv)
                out = capsys.readouterr().out
                try:
                    out.encode("utf-8")
                except UnicodeEncodeError as e:
                    command = " ".join(arg for arg in argv if arg != str(path))
                    pytest.fail(f"{command} wrote {out[e.start:e.end]!r}, which UTF-8 cannot encode")


class TestMutatedNTriples:
    @pytest.mark.parametrize("name", [p.name for p in FIXTURE_FILES])
    def test_errors_stay_inside_the_document(self, name):
        for data in ntriples_mutants(name, 150):
            result = outcome(parse_ntriples, data)
            try:
                text = decode_document(data)
            except ParseError as e:
                assert (e.line, e.column) == (0, 0)
                continue
            if len(result) == 4:
                line, column = result[2:]
                lines = text.split("\n")
                assert 1 <= line <= len(lines)
                assert 1 <= column <= len(lines[line - 1]) + 1

    @pytest.mark.parametrize("name", [p.name for p in FIXTURE_FILES])
    def test_convert_exits_cleanly(self, name, tmp_path, capsys):
        path = tmp_path / "case.nt"
        codes = set()
        for data in ntriples_mutants(name, 25):
            path.write_bytes(data)
            codes.add(cli.main(["convert", str(path), "--to", "ttl"]))
            err = capsys.readouterr().err
            assert "Traceback" not in err
        assert codes <= {0, 2}


# query texts to mutate: prefixed names, full IRIs, variables, literals with
# escapes, tags and datatypes, integers, booleans, blank nodes, comments and
# FILTER lines
QUERY_TEXTS = (
    "?e scope-evidence:evidenceOf ?c\n?c a ?type\n?e a ?kind\n",
    '# names\n?s uco-core:name ?n\nFILTER ?n /^[A-Z](ab|c)*d?$/\n\n?s a ?t\n',
    '?s <http://example.org/p> "x\\t\\u00e9"@en-GB\n?s ?p "7"^^xsd:integer\n',
    "?s ?p 42\n?s ?q true\n_:b ?r ?s\nFILTER ?p /custody|name$/\n",
)


# terms and near-terms for seeded query lines, faulty ones included: a
# datatype IRI that does not close, a variable or a literal as a datatype,
# escapes that end or name nothing, and words that no term rule reads
QUERY_TOKENS = (
    "?s", "?o", "?1", "?", "a", "true", "42", "-7", "kb:a", ":x", "nope:x", "kb:a{b",
    "xsd:integer", "<http://ex/a>", "<rel>", "<http://a", "<http://a b>", "<>", '"x"',
    '"x"@en', '"x"@toolongtag', '"x"@', '"x"^^xsd:integer', '"x"^^<http://ex/d>',
    '"x"^^<http://a', '"x"^^?v', '"x"^^', '"x"^^"y"', '"x"^^"\\q"', '"x"^^a', '"a\\',
    '"\\q"', '"\\u12G4"', '"\\U0000FFF"', '"\\U00110000"', '"\\uD800"', '"open',
    '"\u00e9\\t"', "_:b", "_:1", "_a", "%%", "^^", "@en", "FILTER", "/x/", "#")


def query_mutants() -> list[str]:
    """500 mutants of each of QUERY_TEXTS."""
    rng = random.Random("query-mutants")
    return [mutate(text.encode(), rng).decode("utf-8", "replace")
            for text in QUERY_TEXTS for _ in range(500)]


def query_token_texts() -> list[str]:
    """1,000 texts of one to three lines, each one to four of QUERY_TOKENS
    apart by a space, a tab or nothing."""
    rng = random.Random("query-tokens")
    return ["\n".join("".join(rng.choice(QUERY_TOKENS) + rng.choice(("", " ", " ", "\t"))
                               for _ in range(rng.randint(1, 4)))
                       for _ in range(rng.randint(1, 3)))
            for _ in range(1000)]


# Pinned query parse outcomes. A change that moves one on purpose rewrites
# the file from `query_mutant_outcomes()` and says which.
PINNED_QUERY_OUTCOMES = Path(__file__).parent / "data" / "query_mutant_outcomes.txt"
QUERY_SOURCES = {"mutant": query_mutants, "tokens": query_token_texts}


def query_outcome(text: str) -> str:
    """parse_query's outcome as one ASCII line: its patterns, ' | ' and its
    filters, or the error's class|line|message; with backslash escapes for
    non-ASCII and control characters."""
    try:
        patterns, filters = parse_query(text)
    except ScopeKitError as e:
        message = str(e).removesuffix(f" (query line {e.line})")
        result = f"{type(e).__name__}|{e.line}|{message}"
    else:
        result = " ; ".join(" ".join(str(t) if isinstance(t, Variable) else render_term(t)
                                     for t in (p.subject, p.predicate, p.object))
                            for p in patterns)
        result += " | " + " ; ".join(f"?{var} /{regex}/" for var, regex in filters)
    return result.encode("unicode_escape").decode("ascii")


def query_mutant_outcomes() -> str:
    """The pinned file's text: one line per query text, its source and index,
    then its parse outcome."""
    return "".join(f"{source}-{i} {query_outcome(text)}\n"
                   for source, texts in QUERY_SOURCES.items() for i, text in enumerate(texts()))


class TestMutatedQueries:
    def test_only_query_errors(self):
        for mutant in query_mutants():
            try:
                for _, regex in parse_query(mutant)[1]:
                    check_regex(regex)
            except (QueryTextError, MalformedVariableError, UnsupportedRegexError):
                pass

    def test_outcomes_are_pinned(self):
        pinned = dict(line.split(" ", 1) for line in
                      PINNED_QUERY_OUTCOMES.read_text(encoding="ascii").splitlines())
        for source, texts in QUERY_SOURCES.items():
            for i, text in enumerate(texts()):
                assert query_outcome(text) == pinned[f"{source}-{i}"], text


# skolemized graphs for the round trips: IRIs in a bound namespace (the
# longest one wins) or in none, under safe and unsafe locals
ROUND_TRIP_PREFIXES = {**PREFIXES, "ex": "http://example.org/"}
rt_iris = st.builds(lambda ns, local: Iri(ns + local),
                    st.sampled_from((*sorted(ROUND_TRIP_PREFIXES.values()), "urn:x:",
                                     "http://other.example/")),
                    st.one_of(st.sampled_from(LOCALS), st.text(alphabet="ab9._-/#%é", max_size=6)))
rt_literals = st.one_of(
    lexicals.map(Literal),
    st.builds(lambda lexical, tag: Literal(lexical, lang=tag), lexicals, st.sampled_from(LANGS)),
    st.builds(Literal, lexicals, st.one_of(rt_iris, st.sampled_from(
        (XSD_STRING, XSD_INTEGER, XSD_BOOLEAN, XSD_DATETIME)))),
    st.integers(-10**20, 10**20).map(lambda i: Literal(str(i), XSD_INTEGER)),
    st.sampled_from(("true", "false", "+7", "007")).map(
        lambda lexical: Literal(lexical, XSD_BOOLEAN if lexical[0] in "tf" else XSD_INTEGER)))
skolem_graphs = st.builds(
    lambda triples, names: Graph(triples, {n: Iri(ROUND_TRIP_PREFIXES[n]) for n in names}),
    st.lists(st.builds(Triple, rt_iris, st.one_of(rt_iris, st.just(RDF_TYPE)),
                       st.one_of(rt_iris, rt_literals)), max_size=25),
    st.sets(st.sampled_from(sorted(ROUND_TRIP_PREFIXES))))


class TestRoundTrips:
    @CONTRACTS
    @given(g=skolem_graphs)
    def test_turtle_reads_back_what_it_writes(self, g):
        back = parse_turtle(serialize_turtle_canonical(g))
        assert back == g and back.prefixes == g.prefixes

    @CONTRACTS
    @given(g=skolem_graphs)
    def test_ntriples_reads_back_what_it_writes(self, g):
        assert parse_ntriples(serialize_ntriples_canonical(g)) == g

    @CONTRACTS
    @given(g=skolem_graphs)
    def test_turtle_to_ntriples_to_turtle_is_byte_stable(self, g):
        ttl = serialize_turtle_canonical(g)
        nt = serialize_ntriples_canonical(parse_turtle(ttl))
        again = Graph(parse_ntriples(nt), g.prefixes)
        assert serialize_turtle_canonical(again) == ttl
        assert serialize_ntriples_canonical(again) == nt


# Turtle's short forms and near-forms: a bound prefix, an unbound one or none,
# then characters a local name may and may not hold. `a` is left out, as
# Turtle reads it only as a verb.
SHORT_FORM_PREFIXES = {**STANDARD_PREFIXES, "ex": Iri("http://ex/")}
EX_P = Iri("http://ex/p")
short_forms = st.one_of(
    st.sampled_from(("true", "false", "TRUE", "+7", "-0", "007", "1.5", "1e3", "-", "_:b", "_:9")),
    st.builds(lambda prefix, rest: prefix + rest,
              st.sampled_from(("", "ex:", "kb:", "nope:", ":", "é:")),
              st.text(alphabet="bx9_/#{|:.-é", max_size=6)))


class TestShortForms:
    """The query text and Turtle build a short form through one builder."""

    @CONTRACTS
    @given(form=short_forms)
    @example(form="ex:a/b")
    @example(form="kb::x")
    def test_query_and_turtle_build_the_same_term(self, form):
        # the statement goes on after the form, so Turtle reads the form as one
        # token or fails: a '#' in it would end the line, a '.' the statement
        doc = "".join(f"@prefix {name}: <{ns.value}> .\n"
                      for name, ns in SHORT_FORM_PREFIXES.items())
        doc += f"<http://ex/s> <http://ex/p> {form} ;\n    <http://ex/q> <http://ex/o> ."
        try:
            in_turtle = next(t.object for t in parse_turtle(doc) if t.predicate == EX_P)
        except ParseError:
            in_turtle = None
        try:
            in_query = parse_query(f"?s ?p {form}", SHORT_FORM_PREFIXES)[0][0].object
        except QueryTextError:
            in_query = None
        assert in_query == in_turtle

    @CONTRACTS
    @given(g=skolem_graphs)
    def test_query_reads_back_the_names_the_turtle_writer_writes(self, g):
        for iri in {term for t in g for term in (t.subject, t.predicate, t.object)
                    if isinstance(term, Iri)}:
            text = serialize_turtle_canonical(Graph([Triple(iri, iri, iri)], g.prefixes))
            pattern = parse_query(text.splitlines()[-1].removesuffix(" ."), g.prefixes)[0][0]
            assert (pattern.subject, pattern.predicate, pattern.object) == (iri, iri, iri)


# times the refusal of the document in argv[1], around the parse only
REFUSAL_TIMER = """
import sys, time
from scopekit.errors import ParseError
from scopekit.turtle import parse_turtle
began = time.perf_counter()
try:
    parse_turtle(sys.argv[1])
except ParseError as e:
    print(time.perf_counter() - began, e)
"""


def refusal(doc: str) -> tuple[float, str]:
    """(seconds, message) of parse_turtle's ParseError on doc, timed in a
    child interpreter that is stopped after 10 s, so an exponential
    backtrack fails the test instead of hanging it."""
    try:
        done = run_python("-c", REFUSAL_TIMER, doc, timeout=10)
    except subprocess.TimeoutExpired:
        pytest.fail("the parse did not end within 10 s")
    assert done.returncode == 0, done.stderr
    seconds, _, message = done.stdout.partition(" ")
    return float(seconds), message


def test_failed_step_backtracks_in_linear_time():
    # whitespace and comments can be matched one way only, so a statement that
    # fails after long runs of them is diagnosed without exponential backtracking
    doc = "<http://ex/s> <http://ex/p>" + " \t\r\n" * 3000 + "# c\n" * 1000 + "%"
    seconds, message = refusal(doc)
    assert "unexpected character '%'" in message
    assert seconds < 2.0


def test_failed_literal_suffix_backtracks_in_linear_time():
    # the gap a literal's '^^' or '@' may follow is matched one way only too
    doc = '<http://ex/s> <http://ex/p> "x"' + " \t\r\n" * 3000 + "# c\n" * 1000 + "^^%"
    seconds, message = refusal(doc)
    assert "unexpected character '%'" in message
    assert seconds < 2.0
