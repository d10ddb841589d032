"""Shared generators and oracles for the test suite.

The random-graph builders stay deliberately independent of the library's
serializers (plain string assembly only), and naive_run_query re-implements
join semantics without indexes so it can act as an oracle.
"""

from __future__ import annotations

import importlib.util
import os
import random
import re
import string
import subprocess
import sys
from pathlib import Path

import scopekit
from scopekit.query import Pattern, Variable
from scopekit.terms import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_INTEGER,
    XSD_STRING,
    term_sort_key,
)

SAFE_LOCAL = string.ascii_lowercase + string.digits
LEXICAL_POOL = (
    "", "plain", "two words", 'with "quotes"', "back\\slash", "tab\there",
    "new\nline", "carriage\rreturn", "unicode: é世界", "trailing space ",
    "\x01control", "percent % and <angle>", "dot.", "123", "true",
)
LANGS = ("en", "en-gb", "de", "zh-hans")
CASEGEN = Path(__file__).resolve().parents[1] / "perfbench" / "casegen.py"
SCENARIO1 = Path(__file__).resolve().parents[1] / "src" / "scopekit" / "fixtures" / "scenario1.ttl"


def run_python(*args, timeout=120, **kwargs):
    """`python ARGS` in a fresh interpreter on this source tree, its output
    captured, stopped after timeout seconds; keyword arguments go to
    subprocess.run."""
    src = str(Path(scopekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=timeout, **kwargs)


def load_casegen():
    """The benchmark's seeded case generator, perfbench/casegen.py, loaded
    once as the module `casegen`."""
    module = sys.modules.get("casegen")
    if module is None:
        spec = importlib.util.spec_from_file_location("casegen", CASEGEN)
        module = sys.modules["casegen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def random_iri(rng: random.Random, ns: str = "http://example.org/t/") -> Iri:
    return Iri(ns + "".join(rng.choice(SAFE_LOCAL) for _ in range(rng.randint(1, 8))))


def random_literal(rng: random.Random) -> Literal:
    lex = rng.choice(LEXICAL_POOL)
    kind = rng.randrange(6)
    if kind == 0:
        return Literal(lex)
    if kind == 1:
        return Literal(lex, XSD_STRING)
    if kind == 2:
        return Literal(lex, lang=rng.choice(LANGS))
    if kind == 3:
        return Literal(str(rng.randint(-5000, 5000)), XSD_INTEGER)
    if kind == 4:
        return Literal(rng.choice(("true", "false", "TRUE", "1")), XSD_BOOLEAN)
    return Literal(lex, XSD_DATETIME)


def random_term(rng: random.Random, blanks: bool = False):
    roll = rng.randrange(10)
    if blanks and roll == 0:
        return BlankNode("b" + str(rng.randint(0, 5)))
    if roll <= 5:
        return random_iri(rng)
    return random_literal(rng)


def random_triple(rng: random.Random, blanks: bool = False) -> Triple:
    subject = random_term(rng, blanks)
    while isinstance(subject, Literal):
        subject = random_term(rng, blanks)
    obj = random_term(rng, blanks)
    return Triple(subject, random_iri(rng), obj)


def random_graph(rng: random.Random, max_triples: int = 200,
                 blanks: bool = False) -> Graph:
    n = rng.randint(0, max_triples)
    triples = [random_triple(rng, blanks) for _ in range(n)]
    prefixes = {"t": Iri("http://example.org/t/")}
    if rng.random() < 0.5:
        prefixes["x"] = Iri("http://example.org/x#")
    return Graph(triples, prefixes)


# -- prefixed names: the canonical writer's rule, by a linear search --

LOCAL_SAFE_RE = re.compile(r"^$|^[A-Za-z0-9_]([A-Za-z0-9_.-]*[A-Za-z0-9_-])?$")
# nested (ex:, ex/a/), mid-segment (ex/ab, ex/a), with no '/' or '#' (urn:x),
# and namespaces that differ only past their last '/' or '#'
PREFIX_NS_POOL = ("http://ex/", "http://ex/a/", "http://ex/ab", "http://ex/a", "http://ex/a/b#",
                  "http://ex/a/b#c", "http://ex", "urn:x", "urn:x:y", "http://other.example/")
PREFIX_NAME_POOL = ("ex", "a", "ab", "b-2", "c", "x", "Y9", "z", "q", "ns")
LOCAL_POOL = ("", "a", "b", "ab", "abc", "a.b", "a.", "-x", "_", "1", "x/y", "x#y", "a:b", "#", "/")


def reference_abbreviate(iri: Iri, prefixes: dict[str, Iri]) -> str | None:
    """Prefixed-name rendering, or None when no prefix yields a safe local;
    the longest namespace wins, then the short-name that sorts first."""
    value = iri.value
    fits = [(-len(ns.value), name) for name, ns in prefixes.items()
            if value.startswith(ns.value) and LOCAL_SAFE_RE.match(value[len(ns.value):])]
    if not fits:
        return None
    size, name = min(fits)
    return f"{name}:{value[-size:]}"


def random_prefix_map(rng: random.Random) -> dict[str, Iri]:
    """Some namespaces of the pool under random short-names, one of them
    often under a second name too."""
    names = rng.sample(PREFIX_NAME_POOL, rng.randint(1, len(PREFIX_NAME_POOL)))
    spaces = rng.sample(PREFIX_NS_POOL, min(len(names), len(PREFIX_NS_POOL)))
    prefixes = {name: Iri(ns) for name, ns in zip(names, spaces)}
    if len(names) > 1 and rng.random() < 0.7:
        prefixes[names[-1]] = prefixes[names[0]]
    return prefixes


def prefix_probe_iris(rng: random.Random, count: int = 40) -> list[Iri]:
    """IRIs under the pool's namespaces: each namespace itself, and namespaces
    followed by one or two locals of the pool, safe and not."""
    iris = [Iri(ns) for ns in PREFIX_NS_POOL]
    for _ in range(count):
        iri = rng.choice(PREFIX_NS_POOL) + rng.choice(LOCAL_POOL)
        if rng.random() < 0.3:
            iri += rng.choice(LOCAL_POOL)
        iris.append(Iri(iri))
    return iris


# -- query oracle: same semantics, no indexes, no early exits --

def term_objects(g: Graph) -> list:
    """Every term object in g, in triple positions and as literal datatypes."""
    out = []
    for t in g:
        out += [t.subject, t.predicate, t.object]
        if isinstance(t.object, Literal) and t.object.datatype is not None:
            out.append(t.object.datatype)
    return out


def assert_one_object_per_term(g: Graph) -> None:
    """Equal terms anywhere in g are the same object."""
    first: dict = {}
    for term in term_objects(g):
        assert first.setdefault(term, term) is term, f"{term!r} is two objects"


def iris_built(monkeypatch, parse, doc) -> tuple[Graph, list[str]]:
    """parse(doc), and the value of every Iri constructed while it ran."""
    built = []
    init = Iri.__init__

    def counted(self, value):
        built.append(value)
        init(self, value)

    monkeypatch.setattr(Iri, "__init__", counted)
    try:
        return parse(doc), built
    finally:
        monkeypatch.undo()


def _naive_bind(row: dict, pattern: Pattern, triple: Triple):
    ext = dict(row)
    for want, got in ((pattern.subject, triple.subject),
                      (pattern.predicate, triple.predicate),
                      (pattern.object, triple.object)):
        if isinstance(want, Variable):
            if want.name in ext and ext[want.name] != got:
                return None
            ext[want.name] = got
        elif want != got:
            return None
    return ext


def naive_run_query(g: Graph, patterns, filters=()):
    """Brute-force evaluator returning (columns, sorted row tuples)."""
    rows = [{}]
    for pattern in patterns:
        rows = [b for row in rows for t in g
                if (b := _naive_bind(row, pattern, t)) is not None]
    for var, regex in filters:
        var = var.lstrip("?")
        rx = re.compile(regex)
        kept = []
        for row in rows:
            term = row[var]
            text = term.value if isinstance(term, Iri) else (
                term.label if isinstance(term, BlankNode) else term.lexical)
            if rx.search(text):
                kept.append(row)
        rows = kept
    columns = tuple(sorted({v for p in patterns for v in p.variables()}))
    uniq = {tuple(r[c] for c in columns) for r in rows}
    return columns, tuple(sorted(uniq, key=lambda row: tuple(term_sort_key(t) for t in row)))


# -- random query cases over a small vocabulary so joins actually join --

def random_query_graph(rng: random.Random, max_triples: int = 60) -> Graph:
    subjects = [Iri(f"http://example.org/q/s{i}") for i in range(6)]
    predicates = [Iri(f"http://example.org/q/p{i}") for i in range(4)]
    objects = subjects + [Literal(w) for w in ("alpha", "beta", "gamma", "42")]
    triples = [
        Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        for _ in range(rng.randint(0, max_triples))
    ]
    return Graph(triples)


def random_patterns(rng: random.Random, max_patterns: int = 4):
    names = ["a", "b", "c", "d"]
    predicates = [Iri(f"http://example.org/q/p{i}") for i in range(4)]
    subjects = [Iri(f"http://example.org/q/s{i}") for i in range(6)]
    patterns = []
    for _ in range(rng.randint(1, max_patterns)):
        s = Variable(rng.choice(names)) if rng.random() < 0.8 else rng.choice(subjects)
        p = rng.choice(predicates) if rng.random() < 0.8 else Variable(rng.choice(names))
        o = Variable(rng.choice(names)) if rng.random() < 0.6 else rng.choice(
            subjects + [Literal("alpha"), Literal("42")])
        patterns.append(Pattern(s, p, o))
    filters = []
    if rng.random() < 0.3:
        bound = sorted({v for p in patterns for v in p.variables()})
        if bound:
            filters.append((rng.choice(bound), rng.choice((r"alpha|beta", r"^http", r"\d+", r"a"))))
    return patterns, filters


# -- random query cases whose columns mix every kind of term --

MIXED_NS = "http://example.org/m/"
MIXED_WORDS = ("a1", "b2", "c3")
MIXED_REGEXES = ("a", "^a", "1$", "^(a1|b2)$", "m/b", "^[ab]", "c3|p1", ".", "^http", "2")


def _mixed_term(rng: random.Random, literals: bool = True):
    """A fresh object on every call: an IRI, a blank node, or a plain, tagged
    or typed literal, all with the same few lexical forms."""
    w = rng.choice(MIXED_WORDS)
    kind = rng.randrange(7 if literals else 2)
    if kind == 0:
        return Iri(MIXED_NS + w)
    if kind == 1:
        return BlankNode(w)
    if kind == 2:
        return Literal(w)
    if kind == 3:
        return Literal(w, XSD_STRING)  # equal to the plain literal
    if kind == 4:
        return Literal(w, lang=rng.choice(("en", "EN", "de")))
    if kind == 5:
        return Literal(w, Iri(MIXED_NS + "dt"))
    return Literal(w, XSD_INTEGER)


def _mixed_predicate(rng: random.Random) -> Iri:
    return Iri(MIXED_NS + rng.choice(("p1", "p2") + MIXED_WORDS))


def random_mixed_graph(rng: random.Random, max_triples: int = 60) -> Graph:
    """Triples over a tiny vocabulary in which equal terms are never one
    object, so that no code path may rely on identity."""
    return Graph(Triple(_mixed_term(rng, literals=False), _mixed_predicate(rng), _mixed_term(rng))
                 for _ in range(rng.randint(1, max_triples)))


def random_filtered_patterns(rng: random.Random, max_patterns: int = 3):
    """One to three patterns over the mixed vocabulary and up to three
    filters in shuffled order; when there are two or more, two share a variable."""
    names = ["x", "y", "z", "w"]
    patterns = []
    for _ in range(rng.randint(1, max_patterns)):
        s = Variable(rng.choice(names)) if rng.random() < 0.9 else _mixed_term(rng, literals=False)
        p = Variable(rng.choice(names + ["p"])) if rng.random() < 0.7 else _mixed_predicate(rng)
        o = Variable(rng.choice(names)) if rng.random() < 0.8 else _mixed_term(rng)
        patterns.append(Pattern(s, p, o))
    bound = sorted({v for p in patterns for v in p.variables()})
    filters = []
    if bound:
        first = rng.choice(bound)
        for var in [first, first, rng.choice(bound)][:rng.randint(0, 3)]:
            filters.append((rng.choice((var, "?" + var)), rng.choice(MIXED_REGEXES)))
        rng.shuffle(filters)
    return patterns, filters


# -- randomized investigation scripts for builder / merge properties --

STRIDE_POOL = ("Spoofing", "Tampering", "Repudiation", "InformationDisclosure",
               "DenialOfService", "ElevationOfPrivilege")
COMPONENT_POOL = ("EnergySystem", "WaterSystem", "TelecommunicationSystem",
                  "TransportationSystem", "ResourceSystem",
                  "DigitalOperationalTechnologyLayer")
ACQUIRED_POOL = ("DeviceImage", "MemoryCapture", "NetworkPacketCapture", "LogFile")
CRIME_POOL = ("DataInterference", "SystemInterference", "IllegalAccess",
              "IllegalInterception")
TECHNIQUE_POOL = ("T1190", "T1566.002", "T1059", "T1078", "T1021", "T1486",
                  "T1499", "T1041", "T1071.004")


class _Clock:
    """Strictly increasing case timestamps, minute granularity."""

    def __init__(self):
        self.n = 0

    def tick(self) -> str:
        self.n += 1
        return f"2100-01-{1 + self.n // 1440:02d}T{(self.n // 60) % 24:02d}:{self.n % 60:02d}:00Z"


def random_case_script(rng: random.Random, name: str = "random-script"):
    """Drive the public builder API with random but well-formed steps."""
    from scopekit import casekit

    clock = _Clock()
    c = casekit.new_case(name, at=clock.tick(), rng=rng)
    apply_random_steps(c, rng, clock)
    return c


def apply_random_steps(c, rng: random.Random, clock: _Clock) -> None:
    """Random but well-formed builder steps against an open case."""
    from scopekit.namespaces import evidence, infrastructure, role, threats

    components = [
        c.add_component(infrastructure(rng.choice(COMPONENT_POOL)),
                        f"component {i}")
        for i in range(rng.randint(1, 3))
    ]
    actors = [c.add_role(role(rng.choice(("FirstResponder", "ForensicAnalyst"))),
                         f"actor {i}")
              for i in range(rng.randint(0, 2))]
    adversary = c.add_role(role("Adversary"), "adversary") if rng.random() < 0.4 else None

    attachable = []
    for _ in range(rng.randint(0, 2)):
        attachable.append(c.add_threat(threats(rng.choice(STRIDE_POOL)),
                                       rng.choice(components)))
    if rng.random() < 0.7:
        attachable.append(c.add_crime(rng.choice(CRIME_POOL),
                                      rng.choice(components),
                                      adversary=adversary))

    for _ in range(rng.randint(0, 3)):
        item = c.add_evidence(
            evidence(rng.choice(ACQUIRED_POOL)),
            attrs={"md5": "".join(rng.choice("0123456789abcdef") for _ in range(32))}
            if rng.random() < 0.5 else None,
            seized_at=clock.tick(),
            seized_by=rng.choice(actors) if actors else None)
        for action in ("Imaged", "Transferred", "Analyzed")[: rng.randint(0, 3)]:
            c.add_custody_event(item, action, clock.tick(),
                                actor=rng.choice(actors) if actors else None)

    for _ in range(rng.randint(0, 4)):
        if attachable:
            c.attach_technique(rng.choice(attachable), rng.choice(TECHNIQUE_POOL),
                               capec=rng.random() < 0.5,
                               cve="CVE-2022-2884" if rng.random() < 0.2 else None)

    if rng.random() < 0.3:
        c.import_iocs("kind,value,source\n"
                      "Domain,ageofwuxia[.]com,feed\n"
                      f"Md5Hash,{''.join(rng.choice('0123456789abcdef') for _ in range(32))},feed\n")

    for i in range(rng.randint(0, 2)):
        c.add_action(f"step {i}", clock.tick(),
                     by=rng.choice(actors) if actors else None)


def doubled_sequence_case():
    """A LogFile seized at 01:00 and imaged at 02:00, whose first custody
    record (sequence 1) holds a second sequence number, "3"."""
    from scopekit import casekit
    from scopekit.namespaces import PROP_CUSTODY_SEQ, evidence

    c = casekit.new_case("doubled-sequence", at="2100-01-01T00:00:00Z", rng=random.Random(1))
    item = c.add_evidence(evidence("LogFile"), seized_at="2100-01-01T01:00:00Z")
    c.add_custody_event(item, "Imaged", "2100-01-01T02:00:00Z")
    first = c.graph.scan(None, PROP_CUSTODY_SEQ, Literal("1", XSD_INTEGER))[0].subject
    c.add(Triple(first, PROP_CUSTODY_SEQ, Literal("3", XSD_INTEGER)))
    return c


def malformed_sequence_graph(lexical: str) -> Graph:
    """`doubled_sequence_case`'s graph with the first record's two sequence
    numbers replaced by one plain literal, lexical."""
    from scopekit.namespaces import PROP_CUSTODY_SEQ

    g = doubled_sequence_case().graph
    first = g.scan(None, PROP_CUSTODY_SEQ, Literal("1", XSD_INTEGER))[0].subject
    for t in g.scan(first, PROP_CUSTODY_SEQ):
        g = g.remove(t)
    return g.insert(Triple(first, PROP_CUSTODY_SEQ, Literal(lexical)))


def schemas_without_sequence_range(source: Path, target: Path) -> Path:
    """A copy of the schema directory source at target, whose custodySequence
    has no rdfs:range, so no rule checks a sequence's lexical form."""
    import shutil

    shutil.copytree(source, target)
    evidence_ttl = target / "scope-evidence.ttl"
    text = evidence_ttl.read_text(encoding="utf-8")
    block = text.index("scope-evidence:custodySequence a rdf:Property")
    evidence_ttl.write_text(
        text[:block] + text[block:].replace("    rdfs:range xsd:integer ;\n", "", 1),
        encoding="utf-8")
    return target


def stored_iocs_case():
    """A case that stores IoC values in other than stored form: a defanged
    domain and an uppercase MD5 digest."""
    from scopekit import casekit
    from scopekit.namespaces import evidence

    c = casekit.new_case("stored-iocs", at="2100-01-01T00:00:00Z", rng=random.Random(2))
    c.add_evidence(evidence("DomainIndicator"),
                   attrs={"domainName": "evil[.]example", "iocSource": "feed"})
    c.add_evidence(evidence("HashValue"),
                   attrs={"md5": "D41D8CD98F00B204E9800998ECF8427E", "iocSource": "feed"})
    return c


def column_branch_graphs() -> dict[str, Graph]:
    """Graphs that reach each branch of the validator's column reads, by name:

    - "column-branches", valid: a component with two rdf:type objects, an
      evidence item with one custody record and one with three;
    - "first-timestamp-malformed": that graph, whose third record holds two
      timestamps: a malformed one, its canonical first, and a well-formed one
      earlier than the record before it, which R10 must not read;
    - "untyped-domain": that graph plus an untyped subject with a targets
      value, and a crimeType on the two-typed component."""
    from scopekit import casekit
    from scopekit.namespaces import (
        PROP_CRIME_TYPE, PROP_CUSTODY_SEQ, PROP_CUSTODY_TS, PROP_TARGETS, evidence,
        infrastructure,
    )
    from scopekit.terms import RDF_TYPE

    c = casekit.new_case("column-branches", at="2100-01-01T00:00:00Z", rng=random.Random(3))
    grid = c.add_component(infrastructure("EnergySystem"), "grid")
    c.add(Triple(grid, RDF_TYPE, infrastructure("WaterSystem")))
    c.add_evidence(evidence("LogFile"), seized_at="2100-01-01T01:00:00Z")
    image = c.add_evidence(evidence("DeviceImage"), seized_at="2100-01-01T01:00:00Z")
    c.add_custody_event(image, "Imaged", "2100-01-01T02:00:00Z")
    c.add_custody_event(image, "Analyzed", "2100-01-01T03:00:00Z")
    g = c.graph
    third = g.scan(None, PROP_CUSTODY_SEQ, Literal("3", XSD_INTEGER))[0].subject
    # " " sorts before "T": the malformed form is the record's first literal
    stamps = [Triple(third, PROP_CUSTODY_TS, Literal(at, XSD_DATETIME))
              for at in ("2100-01-01 00:30:00Z", "2100-01-01T01:30:00Z")]
    return {
        "column-branches": g,
        "first-timestamp-malformed": Graph(
            [t for t in g if t.subject != third or t.predicate != PROP_CUSTODY_TS] + stamps,
            g.prefixes),
        "untyped-domain": g.insert_all([
            Triple(Iri("http://example.org/untyped"), PROP_TARGETS, grid),
            Triple(grid, PROP_CRIME_TYPE, Literal("IllegalAccess"))]),
    }


def non_functional_pair():
    """(a, b, threat): two versions of one case, each adding its own component
    to the targets of the shared threat and its own CVE to the shared
    technique node, values of non-functional properties only."""
    from scopekit import casekit
    from scopekit.namespaces import PROP_TARGETS, infrastructure, threats

    base = casekit.new_case("non-functional", at="2100-01-01T00:00:00Z", rng=random.Random(4))
    grid = base.add_component(infrastructure("EnergySystem"), "grid")
    threat = base.add_threat(threats("Tampering"), grid)
    base.attach_technique(threat, "T1190", cve="CVE-2021-44228")
    sides = []
    for seed, cve in ((5, "CVE-2023-4966"), (6, "CVE-2024-3400")):
        side = casekit.from_graph(base.graph, rng=random.Random(seed))
        plant = side.add_component(infrastructure("WaterSystem"), "plant")
        side.add(Triple(threat, PROP_TARGETS, plant))
        side.attach_technique(threat, "T1190", cve=cve)
        sides.append(side)
    return (*sides, threat)


def blank_incident_text() -> str:
    """N-Triples (and so Turtle) text of a graph whose only Incident is the
    blank node _:x."""
    from scopekit.namespaces import CLS_INCIDENT, PROP_NAME
    from scopekit.ntriples import render_triple
    from scopekit.terms import RDF_TYPE

    x = BlankNode("x")
    return "".join(f"{render_triple(t)}\n" for t in (
        Triple(x, RDF_TYPE, CLS_INCIDENT), Triple(x, PROP_NAME, Literal("blank incident"))))


def blank_object_text(name: str) -> str:
    """Turtle text of the scenario1 fixture plus a blank node named name,
    which every writer skolemizes: cases built on one fixture, so two names
    give two versions of one case."""
    return (SCENARIO1.read_text(encoding="utf-8")
            + f'<http://ex/s> <http://ex/p> _:b0 .\n_:b0 <http://ex/name> "{name}" .\n')
