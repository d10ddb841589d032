"""Seeded case generator and reference query evaluator, independent of the
scopekit case builder.

A case is assembled directly as triples whose terms are N-Triples strings
(`<iri>`, `"text"`, `"text"^^<datatype>`), then written out by plain string
assembly as Turtle and as canonical N-Triples. Every reference value the
benchmark checks scopekit's output against (triple counts, IoC and technique
counts, the exact diff between two agencies' versions, the number of merge
conflicts, query row counts) comes from here, never from scopekit.

Only scopekit's vocabulary is used: the namespace IRIs, the prefix profile and
the technique/CAPEC catalog rows.
"""

from __future__ import annotations

import random
import re
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from scopekit import namespaces as ns
from scopekit.catalog import load_default_catalog
from scopekit.terms import Graph, Iri, Literal, Triple

RDF_TYPE = f"<{ns.RDF_NS}type>"
XSD_DATETIME = f"{ns.XSD}dateTime"
XSD_INTEGER = f"{ns.XSD}integer"

INFRA_CLASSES = ("EnergySystem", "WaterSystem", "TransportationSystem",
                 "TelecommunicationSystem", "DigitalOperationalTechnologyLayer",
                 "ResourceSystem")
STRIDE_CLASSES = ("Spoofing", "Tampering", "Repudiation", "InformationDisclosure",
                  "DenialOfService", "ElevationOfPrivilege")
CRIME_TYPES = ("DataInterference", "SystemInterference", "IllegalAccess",
               "IllegalInterception")
EVIDENCE_CLASSES = ("DeviceImage", "LogFile", "MemoryCapture", "NetworkPacketCapture",
                    "FirmwareComponent")
FOLLOW_UP_ACTIONS = ("Imaged", "Transferred", "Analyzed")
DISTRICTS = ("Punggol", "Jurong", "Tampines", "Woodlands", "Bishan", "Changi",
             "Sengkang", "Queenstown")
WORDS = ("north", "south", "east", "west", "gateway", "substation", "pump", "relay",
         "controller", "backbone", "meter", "sensor", "depot", "signal")
TLDS = ("com", "net", "org", "info", "io")
ROLE_POOL = (("FirstResponder", "field responder"), ("FirstResponder", "night responder"),
             ("ForensicAnalyst", "lab analyst"), ("ForensicAnalyst", "malware analyst"),
             ("ThreatModeller", "threat modeller"))

_CAMEL_SPLIT_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_EPOCH = datetime(2100, 1, 1, tzinfo=timezone.utc)


def iri(value: str) -> str:
    return f"<{value}>"


def lit(text: str) -> str:
    # generated text never needs escaping, so N-Triples and Turtle agree
    assert '"' not in text and "\\" not in text and text.isprintable()
    return f'"{text}"'


def typed(text: str, datatype: str) -> str:
    return f'"{text}"^^<{datatype}>'


def timestamp(minutes: int) -> str:
    return (_EPOCH + timedelta(minutes=minutes)).strftime("%Y-%m-%dT%H:%M:%SZ")


def term_text(term: str) -> str:
    """What a query FILTER regex sees: an IRI's value, a literal's lexical form."""
    if term.startswith("<"):
        return term[1:-1]
    return term[1:term.index('"', 1)]


class _Minter:
    """`kb:<kebab-name>-<uuid4>` node names drawn from the case's own RNG."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def __call__(self, class_name: str) -> str:
        slug = _CAMEL_SPLIT_RE.sub("-", class_name).lower()
        u = uuid.UUID(int=self.rng.getrandbits(128), version=4)
        return iri(f"{ns.KB}{slug}-{u}")


@dataclass
class Case:
    """One generated case: triples in generation order plus what the
    generator knows about them."""

    triples: list
    incident: str
    ioc_count: int
    technique_count: int
    actions: list = field(default_factory=list)  # (node, location term)
    components: list = field(default_factory=list)  # (node, name term)
    evidence: list = field(default_factory=list)  # (node, description triple)


@dataclass
class Variant:
    """Agency B's version of a case and its known difference from A."""

    triples: list
    added: set
    removed: set
    conflicts: set  # (subject IRI value, predicate local name)


def generate_case(rng: random.Random, blocks: int) -> Case:
    """A valid case of `blocks` incident blocks (38 triples each) around one
    Incident node, shared roles, adversaries, techniques and CAPEC patterns."""
    mint = _Minter(rng)
    out: list = []
    add = out.append
    incident = mint("Incident")
    add((incident, RDF_TYPE, iri(ns.CLS_INCIDENT.value)))
    add((incident, iri(ns.PROP_NAME.value), lit(f"{rng.choice(DISTRICTS).lower()}-exchange-case")))
    add((incident, iri(ns.PROP_CREATED_TIME.value), typed(timestamp(0), XSD_DATETIME)))

    people = []
    for cls, label in ROLE_POOL:
        node = mint(cls)
        add((node, RDF_TYPE, iri(ns.role(cls).value)))
        add((node, iri(ns.PROP_NAME.value), lit(f"{rng.choice(DISTRICTS)} {label}")))
        people.append(node)
    adversaries = []
    for k in range(4):
        node = mint("Adversary")
        add((node, RDF_TYPE, iri(ns.CLS_ADVERSARY.value)))
        add((node, iri(ns.PROP_NAME.value), lit(f"APT{rng.randint(10, 99)}-{k}")))
        adversaries.append(node)

    catalog = load_default_catalog()
    chosen = rng.sample(sorted(catalog.techniques), 12)
    techniques, patterns = [], {}
    for tid in chosen:
        entry = catalog.techniques[tid]
        node = mint("AttackTechnique")
        add((node, RDF_TYPE, iri(ns.CLS_ATTACK_TECHNIQUE.value)))
        add((node, iri(ns.PROP_NAME.value), lit(entry.name)))
        add((node, iri(ns.PROP_TECHNIQUE_ID.value), lit(entry.id)))
        add((node, iri(ns.PROP_TACTIC.value), lit(entry.tactic)))
        for pattern in catalog.capec_for_technique(tid):
            pnode = patterns.get(pattern.id)
            if pnode is None:
                pnode = patterns[pattern.id] = mint("AttackPattern")
                add((pnode, RDF_TYPE, iri(ns.CLS_ATTACK_PATTERN.value)))
                add((pnode, iri(ns.PROP_NAME.value), lit(pattern.name)))
                add((pnode, iri(ns.PROP_CAPEC_ID.value), lit(pattern.id)))
            add((node, iri(ns.PROP_RELATED_PATTERN.value), pnode))
        techniques.append(node)

    case = Case(out, incident, ioc_count=blocks, technique_count=len(techniques))
    related = iri(ns.PROP_RELATED_INCIDENT.value)
    for i in range(blocks):
        t0 = 60 + i * 7
        district = rng.choice(DISTRICTS)

        comp_cls = rng.choice(INFRA_CLASSES)
        comp = mint(comp_cls)
        comp_name = lit(f"{district} {rng.choice(WORDS)} component {i}")
        add((comp, RDF_TYPE, iri(ns.infrastructure(comp_cls).value)))
        add((comp, iri(ns.PROP_NAME.value), comp_name))
        case.components.append((comp, comp_name))

        threat_cls = rng.choice(STRIDE_CLASSES)
        threat = mint(threat_cls)
        add((threat, RDF_TYPE, iri(ns.threats(threat_cls).value)))
        add((threat, iri(ns.PROP_TARGETS.value), comp))
        add((threat, related, incident))

        crime_type = rng.choice(CRIME_TYPES)
        crime = mint(crime_type)
        add((crime, RDF_TYPE, iri(ns.crime(crime_type).value)))
        add((crime, iri(ns.PROP_CRIME_TYPE.value), lit(crime_type)))
        add((crime, iri(ns.PROP_AFFECTS.value), comp))
        add((crime, related, incident))
        add((crime, iri(ns.PROP_ADVERSARY.value), rng.choice(adversaries)))
        add((crime, iri(ns.PROP_USES_TECHNIQUE.value), rng.choice(techniques)))

        ev_cls = rng.choice(EVIDENCE_CLASSES)
        ev = mint(ev_cls)
        description = (ev, iri(ns.PROP_DESCRIPTION.value),
                       lit(f"{ev_cls} from {district} {rng.choice(WORDS)} site {i}"))
        add((ev, RDF_TYPE, iri(ns.evidence(ev_cls).value)))
        add((ev, related, incident))
        add((ev, iri(ns.PROP_EVIDENCE_OF.value), crime))
        add(description)
        add((ev, iri(ns.PROP_MD5.value), lit(f"{rng.getrandbits(128):032x}")))
        case.evidence.append((ev, description))

        for seq, (action, at) in enumerate(
                (("Seized", t0), (rng.choice(FOLLOW_UP_ACTIONS), t0 + rng.randint(1, 5))), 1):
            rec = mint("ProvenanceRecord")
            add((rec, RDF_TYPE, iri(ns.CLS_PROVENANCE_RECORD.value)))
            add((rec, iri(ns.PROP_CUSTODY_OF.value), ev))
            add((rec, iri(ns.PROP_CUSTODY_ACTION.value), lit(action)))
            add((rec, iri(ns.PROP_CUSTODY_TS.value), typed(timestamp(at), XSD_DATETIME)))
            add((rec, iri(ns.PROP_CUSTODY_SEQ.value), typed(str(seq), XSD_INTEGER)))
            add((rec, iri(ns.PROP_CUSTODY_ACTOR.value), rng.choice(people)))

        out.extend(_ioc_triples(mint, rng, incident, i))

        act = mint("InvestigativeAction")
        location = lit(f"{district} site {i}")
        out.extend(_action_triples(act, rng, incident, people, location, t0))
        case.actions.append((act, location))
    return case


def _ioc_triples(mint, rng: random.Random, incident: str, i: int) -> list:
    related = iri(ns.PROP_RELATED_INCIDENT.value)
    source = iri(ns.PROP_IOC_SOURCE.value)
    if rng.random() < 0.5:
        node = mint("HashValue")
        return [(node, RDF_TYPE, iri(ns.CLS_HASH_VALUE.value)),
                (node, iri(ns.PROP_MD5.value), lit(f"{rng.getrandbits(128):032x}")),
                (node, related, incident),
                (node, source, lit("Malware reverse engineering"))]
    node = mint("DomainIndicator")
    domain = f"{rng.choice(WORDS)}{i}-{rng.randint(0, 999)}.{rng.choice(TLDS)}"
    return [(node, RDF_TYPE, iri(ns.CLS_DOMAIN_INDICATOR.value)),
            (node, iri(ns.PROP_DOMAIN_NAME.value), lit(domain)),
            (node, related, incident),
            (node, source, lit("Passive DNS"))]


def _action_triples(act: str, rng: random.Random, incident: str, people: list,
                    location: str, minutes: int) -> list:
    return [(act, RDF_TYPE, iri(ns.CLS_INVESTIGATIVE_ACTION.value)),
            (act, iri(ns.PROP_DESCRIPTION.value), lit(f"Step {minutes}: {rng.choice(WORDS)} sweep")),
            (act, iri(ns.PROP_START_TIME.value), typed(timestamp(minutes), XSD_DATETIME)),
            (act, iri(ns.PROP_RELATED_INCIDENT.value), incident),
            (act, iri(ns.PROP_LOCATION_NOTE.value), location),
            (act, iri(ns.PROP_PERFORMED_BY.value), rng.choice(people))]


def agency_b(case: Case, rng: random.Random) -> Variant:
    """Agency B's version of `case`: 20 actions and 30 evidence descriptions
    removed, 25 actions and 15 IoCs added, and 12 action locations and 8
    component names changed. Those are functional properties, so each change
    is one merge conflict."""
    mint = _Minter(rng)
    base = set(case.triples)
    removed: set = set()
    added: set = set()
    conflicts: set = set()

    actions = rng.sample(case.actions, 20 + 12)
    for act, _ in actions[:20]:
        removed.update(t for t in case.triples if t[0] == act)
    location_p = iri(ns.PROP_LOCATION_NOTE.value)
    for act, old in actions[20:]:
        removed.add((act, location_p, old))
        added.add((act, location_p, lit(f"{term_text(old)} annex")))
        conflicts.add((term_text(act), "locationNote"))
    name_p = iri(ns.PROP_NAME.value)
    for comp, old in rng.sample(case.components, 8):
        removed.add((comp, name_p, old))
        added.add((comp, name_p, lit(f"{term_text(old)} (agency B)")))
        conflicts.add((term_text(comp), "name"))
    for _, description in rng.sample(case.evidence, 30):
        removed.add(description)

    people = sorted({t[2] for t in case.triples
                     if t[1] == iri(ns.PROP_PERFORMED_BY.value)})
    for k in range(25):
        act = mint("InvestigativeAction")
        added.update(_action_triples(act, rng, case.incident, people,
                                     lit(f"Agency B office {k}"), 100000 + k))
    for k in range(15):
        added.update(_ioc_triples(mint, rng, case.incident, 100000 + k))

    assert not added & base and removed <= base
    triples = [t for t in case.triples if t not in removed] + sorted(added)
    return Variant(triples, added, removed, conflicts)


# -- writers --

def nt_line(t) -> str:
    return f"{t[0]} {t[1]} {t[2]} ."


def to_ntriples(triples) -> str:
    """Canonical N-Triples: lines sorted bytewise, LF endings."""
    return "".join(line + "\n" for line in sorted(nt_line(t) for t in triples))


class Abbreviator:
    """Prefixed-name rendering over the standard prefix profile."""

    def __init__(self):
        self.prefixes = sorted(((p, v.value) for p, v in ns.STANDARD_PREFIXES.items()),
                               key=lambda pv: -len(pv[1]))
        self.cache: dict = {}

    def __call__(self, term: str) -> str:
        short = self.cache.get(term)
        if short is None:
            short = self.cache[term] = self._render(term)
        return short

    def _render(self, term: str) -> str:
        if term.startswith("<"):
            value = term[1:-1]
            for name, base in self.prefixes:
                local = value[len(base):]
                if value.startswith(base) and re.fullmatch(r"[A-Za-z0-9_-]+", local):
                    return f"{name}:{local}"
            return term
        if term.endswith(f"^^<{XSD_INTEGER}>"):
            return term_text(term)
        if "^^<" in term:
            lexical, datatype = term.split("^^", 1)
            return f"{lexical}^^{self(datatype)}"
        return term


def to_turtle(triples) -> str:
    """Turtle with one block per subject, in generation order, as another
    agency's tool might write it (not scopekit's canonical layout)."""
    short = Abbreviator()
    by_subject: dict = {}
    for s, p, o in triples:
        by_subject.setdefault(s, {}).setdefault(p, []).append(o)
    lines = [f"@prefix {name}: <{base}> ." for name, base in sorted(short.prefixes)]
    lines.append("")
    for s, props in by_subject.items():
        parts = []
        for p, objs in props.items():
            pred = "a" if p == RDF_TYPE else short(p)
            parts.append(f"{pred} {', '.join(short(o) for o in objs)}")
        lines.append(f"{short(s)} " + " ;\n    ".join(parts) + " .\n")
    return "\n".join(lines)


def to_graph(triples):
    """The same triples as a scopekit Graph, built term by term without
    parsing, for set-up checks."""
    cache: dict = {}

    def term(text: str):
        made = cache.get(text)
        if made is None:
            if text.startswith("<"):
                made = Iri(text[1:-1])
            elif "^^<" in text:
                made = Literal(term_text(text), Iri(text[text.index("^^<") + 3:-1]))
            else:
                made = Literal(term_text(text))
            cache[text] = made
        return made

    return Graph((Triple(term(s), term(p), term(o)) for s, p, o in triples),
                 {k: v for k, v in ns.STANDARD_PREFIXES.items()})


# -- reference query evaluation --

@dataclass(frozen=True)
class Query:
    """Triple patterns (N-Triples terms or `?name` variables) and
    `(variable, regex)` filters."""

    patterns: tuple
    filters: tuple = ()

    def text(self, short: Abbreviator) -> str:
        """The query in scopekit's line syntax."""
        def render(term: str) -> str:
            if term.startswith("?"):
                return term
            return "a" if term == RDF_TYPE else short(term)
        lines = [" ".join(render(t) for t in p) for p in self.patterns]
        lines += [f"FILTER {var} /{regex}/" for var, regex in self.filters]
        return "\n".join(lines) + "\n"


class Reference:
    """Row counts by straightforward hash joins over the generator's triples."""

    def __init__(self, triples):
        self.triples = list(set(triples))
        self.by_p: dict = {}
        self.by_ps: dict = {}
        for t in self.triples:
            self.by_p.setdefault(t[1], []).append(t)
            self.by_ps.setdefault((t[1], t[0]), []).append(t)

    def count(self, q: Query) -> int:
        rows = [{}]
        for pattern in q.patterns:
            s, p = pattern[0], pattern[1]
            grown = []
            for row in rows:
                subject = row.get(s) if s.startswith("?") else s
                if p.startswith("?"):
                    candidates = self.triples
                elif subject is not None:
                    candidates = self.by_ps.get((p, subject), [])
                else:
                    candidates = self.by_p.get(p, [])
                for t in candidates:
                    ext = dict(row)
                    for want, got in zip(pattern, t):
                        if want.startswith("?"):
                            if ext.setdefault(want, got) != got:
                                break
                        elif want != got:
                            break
                    else:
                        grown.append(ext)
            rows = grown
        for var, regex in q.filters:
            rx = re.compile(regex)
            rows = [r for r in rows if rx.search(term_text(r[var]))]
        names = sorted({t for p in q.patterns for t in p if t.startswith("?")})
        return len({tuple(r[n] for n in names) for r in rows})
