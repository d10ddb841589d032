"""Case construction, diff, and merge.

CaseGraph is the one mutable façade in the package. Builder calls add triples
in place to a Graph that only the case holds, and `CaseGraph.graph` freezes
that graph before it hands it to readers. Everything a builder mints is named
kb:<kebab-name>-<uuid4>, typed, and linked back to the incident, so a case
built purely through this module validates with zero errors.
"""

from __future__ import annotations

import csv
import functools
import io
import random
import re
from collections.abc import Iterable
from itertools import groupby

from .catalog import (
    CRIME_TYPES,
    CUSTODY_ACTIONS,
    CVE_ID_RE,
    Catalog,
    MD5_RE,
    load_default_catalog,
)
from .errors import (
    CaseMismatchError,
    CsvFormatError,
    DanglingTargetError,
    InvalidNameError,
    InvalidTimestampError,
    MalformedIdError,
    UnknownClassError,
    UnknownPropertyError,
)
from .namespaces import (
    CLS_ACQUIRED_EVIDENCE,
    CLS_ATTACK_PATTERN,
    CLS_ATTACK_TECHNIQUE,
    CLS_DOMAIN_INDICATOR,
    CLS_HASH_VALUE,
    CLS_INCIDENT,
    CLS_INDICATOR_VALUE,
    CLS_INVESTIGATIVE_ACTION,
    CLS_PROVENANCE_RECORD,
    CLS_SCI,
    CLS_THREAT,
    KB,
    PROP_ADVERSARY,
    PROP_AFFECTS,
    PROP_CAPEC_ID,
    PROP_CREATED_TIME,
    PROP_CRIME_TYPE,
    PROP_CUSTODY_ACTION,
    PROP_CUSTODY_ACTOR,
    PROP_CUSTODY_OF,
    PROP_CUSTODY_SEQ,
    PROP_CUSTODY_TS,
    PROP_CVE_ID,
    PROP_DESCRIPTION,
    PROP_DOMAIN_NAME,
    PROP_EVIDENCE_OF,
    PROP_IOC_SOURCE,
    PROP_LOCATION_NOTE,
    PROP_MAC,
    PROP_MANUFACTURER,
    PROP_MD5,
    PROP_NAME,
    PROP_PERFORMED_BY,
    PROP_RELATED_INCIDENT,
    PROP_RELATED_PATTERN,
    PROP_START_TIME,
    PROP_TACTIC,
    PROP_TARGETS,
    PROP_TECHNIQUE_ID,
    PROP_USES_TECHNIQUE,
    STANDARD_PREFIXES,
    crime as crime_iri,
    role,
)
from .schema import Schema, load_default_schema
from .terms import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_INTEGER,
    Graph,
    Iri,
    Literal,
    Record,
    Term,
    Triple,
    first_literal,
    skolemize_term,
    term_sort_key,
)
from .turtle import serialize_turtle_canonical
from .validation import ERROR, is_valid_utc_timestamp, validate_graph

_CAMEL_SPLIT_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
# a UUID's version (4) and variant (RFC 4122) bits: those to clear, those to set
_UUID4_CLEAR, _UUID4_SET = ~(0xF000 << 64 | 0xC000 << 48), 4 << 76 | 0x8000 << 48

# add_evidence's attribute shorthands
_ATTR_SHORTHAND = {
    "name": PROP_NAME, "description": PROP_DESCRIPTION, "manufacturer": PROP_MANUFACTURER,
    "mac": PROP_MAC, "macAddress": PROP_MAC, "md5": PROP_MD5, "md5Hash": PROP_MD5,
    "domainName": PROP_DOMAIN_NAME, "iocSource": PROP_IOC_SOURCE, "cveId": PROP_CVE_ID,
}


@functools.lru_cache(maxsize=1024)  # mint's: class names recur
def kebab(text: str) -> str:
    """Lowercase-kebab a label or CamelCase class name; e.g. ResourceSystem
    becomes resource-system."""
    return re.sub(r"[^A-Za-z0-9]+", "-", _CAMEL_SPLIT_RE.sub("-", text)).strip("-").lower()


class CustodyEvent(Record):
    __slots__ = ("evidence", "actor", "action", "at")

    def __init__(self, evidence: Iri, actor: Iri | None, action: str, at: str):
        self._set(evidence, actor, action, at)


# kind -> (class, value property, the form a value is stored in, the check a
# stored value must pass, what a value that fails it is not)
_IOC_KINDS = {
    "Md5Hash": (CLS_HASH_VALUE, PROP_MD5, str.lower, MD5_RE.fullmatch, "an MD5 digest"),
    "Domain": (CLS_DOMAIN_INDICATOR, PROP_DOMAIN_NAME, lambda v: v.replace("[.]", "."),
               lambda v: "." in v and " " not in v and v.isprintable(), "a domain name"),
}


@functools.total_ordering
class Ioc(Record):
    """One IoC row, its value in stored form: a domain without `[.]`, a digest
    in lowercase. Rows order on (kind, value, source)."""

    __slots__ = ("kind", "value", "source")

    def __init__(self, kind: str, value: str, source: str):  # kind: Md5Hash | Domain
        self._set(kind, value, source)

    def __lt__(self, other) -> bool:
        return self._key(self) < other._key(other) if type(other) is Ioc else NotImplemented

    def defanged(self) -> str:
        return self.value.replace(".", "[.]") if self.kind == "Domain" else self.value


class MergeOutcome:
    def __init__(self, merged: CaseGraph, conflicts: list[tuple[Iri, Iri, str, str]]):
        self.merged, self.conflicts = merged, conflicts

    def conflicts_text(self) -> str:
        """Conflict lines in the validator's line-oriented report format."""
        return "".join(
            f"M01\t{ERROR}\t{s.value}\t{p.local_name()}: kept {a!r}, dropped {b!r}\n"
            for s, p, a, b in self.conflicts)


def _check_timestamp(at: str) -> str:
    if not is_valid_utc_timestamp(at):
        raise InvalidTimestampError(
            f"timestamps must be UTC ISO-8601 with a Z suffix, got {at!r}")
    return at


class CaseGraph:
    """A single investigation's graph plus the handles builders need.

    A case holds one graph, and its lookups scan it. While readers may hold
    that graph, the first add of a new triple grows a copy of it (its index
    lists too, if built), so building n triples takes O(n); later adds write
    to the copy in place. `graph` freezes the graph it hands out, and the
    next add of a new triple grows a copy again. A builder call checks all of
    its arguments before it mints, then writes all of its triples with one
    `add_all`: a call that raises leaves the case as it was.
    """

    def __init__(self, graph: Graph, case_iri: Iri, schema: Schema, catalog: Catalog,
                 rng: random.Random | None = None):
        self._graph = graph
        self._frozen = True  # readers may hold _graph, so an add grows a copy
        self.case_iri = case_iri
        self.schema = schema
        self.catalog = catalog
        self._rng = rng or random.SystemRandom()  # mint's source of UUIDs
        self.ioc_import_errors: list[str] = []

    # -- plumbing --

    @property
    def graph(self) -> Graph:
        if not self._frozen:
            self._graph._freeze()
            self._frozen = True
        return self._graph

    @property
    def created(self) -> str:
        return first_literal(self._graph, self.case_iri, PROP_CREATED_TIME) or ""

    @property
    def name(self) -> str:
        return first_literal(self._graph, self.case_iri, PROP_NAME) or ""

    def add(self, triple: Triple) -> None:
        self.add_all((triple,))

    def add_all(self, triples: Iterable[Triple]) -> None:
        """Write triples, all or none: a non-triple raises before any is
        written. A batch a frozen graph holds whole grows no copy."""
        triples = tuple(triples)
        for t in triples:
            if not isinstance(t, Triple):
                raise TypeError(f"not a triple: {t!r}")
        if self._frozen:
            if all(map(self._graph.__contains__, triples)):
                return
            self._graph, self._frozen = self._graph._grown(), False
        self._graph._add_all(triples)

    def mint(self, base: str) -> Iri:
        """kb:<kebab of base>-<a version 4 UUID drawn from the case's rng>."""
        slug = kebab(base)
        if not slug:
            raise InvalidNameError(f"cannot derive a name from {base!r}")
        h = f"{self._rng.getrandbits(128) & _UUID4_CLEAR | _UUID4_SET:032x}"
        return Iri(f"{KB}{slug}-{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}")

    def has_node(self, iri: Iri) -> bool:
        return self._graph.estimate(iri) > 0

    def _require_node(self, iri: Iri, what: str) -> None:
        if not self.has_node(iri):
            raise DanglingTargetError(f"{what} {iri.value} is not in this case")

    def _require_class(self, class_iri: Iri, under: Iri, what: str) -> None:
        if under not in self.schema.ancestors(class_iri):
            raise UnknownClassError(
                f"{class_iri.local_name()} is not a {what} class (not under {under.local_name()})")

    def add_node(self, class_iri: Iri, label: str | None = None) -> Iri:
        """Mint a typed node of any declared class; building block for the
        add_* helpers."""
        return self._write(self._new_node(class_iri, label))

    def _new_node(self, class_iri: Iri, label: str | None = None,
                  values: Iterable[tuple[Iri, Term | None]] = ()) -> list[Triple]:
        """A new node's triples, unwritten: its type, its label, each value not None."""
        if class_iri not in self.schema.classes:
            raise UnknownClassError(f"class not declared: {class_iri}")
        node = self.mint(class_iri.local_name())
        return [Triple(node, p, o) for p, o in (
            (RDF_TYPE, class_iri), (PROP_NAME, Literal(label) if label else None), *values)
            if o is not None]

    def _write(self, batch: list[Triple]) -> Iri:
        """Write a builder call's triples; the node its first one types."""
        self.add_all(batch)
        return batch[0].subject

    # -- builders --

    def add_component(self, class_iri: Iri, label: str) -> Iri:
        self._require_class(class_iri, CLS_SCI, "infrastructure")
        return self.add_node(class_iri, label)

    def add_threat(self, stride_class: Iri, target: Iri) -> Iri:
        self._require_class(stride_class, CLS_THREAT, "threat")
        self._require_node(target, "target component")
        return self._write(self._new_node(stride_class, None, (
            (PROP_TARGETS, target), (PROP_RELATED_INCIDENT, self.case_iri))))

    def add_crime(self, crime_type: str, target: Iri,
                  adversary: Iri | None = None) -> Iri:
        if crime_type not in CRIME_TYPES:
            raise UnknownClassError(
                f"crime type {crime_type!r} is not one of: {', '.join(sorted(CRIME_TYPES))}")
        self._require_node(target, "target component")
        if adversary is not None:
            self._require_node(adversary, "adversary")
        return self._write(self._new_node(crime_iri(crime_type), None, (
            (PROP_CRIME_TYPE, Literal(crime_type)), (PROP_AFFECTS, target),
            (PROP_RELATED_INCIDENT, self.case_iri), (PROP_ADVERSARY, adversary))))

    def add_role(self, role_class: Iri, name: str) -> Iri:
        self._require_class(role_class, role("Role"), "role")
        return self.add_node(role_class, name)

    def add_evidence(self, evidence_class: Iri, attrs: dict | None = None,
                     crime: Iri | None = None, seized_at: str | None = None,
                     seized_by: Iri | None = None) -> Iri:
        """Create an evidence node. Acquired items get their first custody
        record (Seized) automatically so the chain always exists."""
        ancestors = self.schema.ancestors(evidence_class)
        acquired = CLS_ACQUIRED_EVIDENCE in ancestors
        if not acquired and CLS_INDICATOR_VALUE not in ancestors:
            raise UnknownClassError(
                f"{evidence_class.local_name()} is not an evidence class")
        values = [(PROP_RELATED_INCIDENT, self.case_iri), *(
            (self._resolve_attr(key), self._literal_for(value))
            for key, value in (attrs or {}).items())]
        if crime is not None:
            self._require_node(crime, "crime")
        if acquired:
            at = _check_timestamp(seized_at or self.created or "1970-01-01T00:00:00Z")
            if seized_by is not None:
                self._require_node(seized_by, "custody actor")
        batch = self._new_node(evidence_class, None, (*values, (PROP_EVIDENCE_OF, crime)))
        if acquired:  # a new node's first record
            batch += self._custody_record(batch[0].subject, "Seized", at, seized_by, 1)
        return self._write(batch)

    def _resolve_attr(self, key) -> Iri:
        if isinstance(key, Iri):
            if key not in self.schema.properties:
                raise UnknownPropertyError(f"property not declared: {key}")
            return key
        if key in _ATTR_SHORTHAND:
            return _ATTR_SHORTHAND[key]
        raise UnknownPropertyError(f"unknown evidence attribute {key!r}")

    def _literal_for(self, value) -> Literal:
        if isinstance(value, Literal):
            return value
        if isinstance(value, bool):
            return Literal("true" if value else "false", XSD_BOOLEAN)
        if isinstance(value, int):
            return Literal(str(value), XSD_INTEGER)
        return Literal(str(value))

    def add_custody_event(self, evidence_or_event, action: str | None = None,
                          at: str | None = None, actor: Iri | None = None) -> Iri:
        if isinstance(evidence_or_event, CustodyEvent):
            ev = evidence_or_event
            evidence, action, at, actor = ev.evidence, ev.action, ev.at, ev.actor
        else:
            evidence = evidence_or_event
        self._require_node(evidence, "evidence item")
        if action not in CUSTODY_ACTIONS:
            raise InvalidNameError(
                f"custody action must be one of {', '.join(CUSTODY_ACTIONS)}, got {action!r}")
        _check_timestamp(at)
        if actor is not None:
            self._require_node(actor, "custody actor")
        seq = len(self._graph.scan(None, PROP_CUSTODY_OF, evidence)) + 1
        return self._write(self._custody_record(evidence, action, at, actor, seq))

    def _custody_record(self, evidence, action, at, actor, seq: int) -> list[Triple]:
        return self._new_node(CLS_PROVENANCE_RECORD, None, (
            (PROP_CUSTODY_OF, evidence), (PROP_CUSTODY_ACTION, Literal(action)),
            (PROP_CUSTODY_TS, Literal(at, XSD_DATETIME)),
            (PROP_CUSTODY_SEQ, Literal(str(seq), XSD_INTEGER)), (PROP_CUSTODY_ACTOR, actor)))

    def _shared_node(self, batch: list[Triple], predicate: Iri, key: str, class_iri: Iri,
                     name: str, *values: tuple[Iri, Term]) -> Iri:
        """The node whose `predicate` value is `key`: the case's first, in
        canonical order, or the one batch holds, else one minted into batch."""
        value = Literal(key)
        found = [t.subject for t in self._graph.scan(None, predicate, value) + batch
                 if isinstance(t.subject, Iri) and t.predicate == predicate and t.object == value]
        if found:
            return min(found, key=term_sort_key)
        batch += (new := self._new_node(class_iri, name, ((predicate, value), *values)))
        return new[0].subject

    def attach_technique(self, subject: Iri, technique_id: str, capec: bool = False,
                         cve: str | list[str] | None = None) -> Iri:
        """Annotate subject with a catalog technique. Technique and pattern
        nodes are shared within a case, keyed by their id."""
        entry = self.catalog.lookup_technique(technique_id)
        self._require_node(subject, "annotation subject")
        cves = [cve] if isinstance(cve, str) else list(cve or ())
        for cve_id in cves:
            if not CVE_ID_RE.fullmatch(cve_id):
                raise MalformedIdError(f"not a CVE id: {cve_id!r}")
        batch = []
        node = self._shared_node(batch, PROP_TECHNIQUE_ID, entry.id, CLS_ATTACK_TECHNIQUE,
                                 entry.name, (PROP_TACTIC, Literal(entry.tactic)))
        batch.append(Triple(subject, PROP_USES_TECHNIQUE, node))
        for pattern in self.catalog.capec_for_technique(technique_id) if capec else ():
            pnode = self._shared_node(batch, PROP_CAPEC_ID, pattern.id, CLS_ATTACK_PATTERN,
                                      pattern.name)
            batch.append(Triple(node, PROP_RELATED_PATTERN, pnode))
        self.add_all(batch + [Triple(node, PROP_CVE_ID, Literal(cve_id)) for cve_id in cves])
        return node

    def add_action(self, description: str, at: str, location: str | None = None,
                   by: Iri | None = None) -> Iri:
        if not description:
            raise InvalidNameError("action description must be non-empty")
        _check_timestamp(at)
        if by is not None:
            self._require_node(by, "performer")
        return self._write(self._new_node(CLS_INVESTIGATIVE_ACTION, None, (
            (PROP_DESCRIPTION, Literal(description)), (PROP_START_TIME, Literal(at, XSD_DATETIME)),
            (PROP_RELATED_INCIDENT, self.case_iri),
            (PROP_LOCATION_NOTE, Literal(location) if location else None),
            (PROP_PERFORMED_BY, by))))

    # -- IoC ingest / export --

    def iocs(self) -> list[Ioc]:
        """All IoC nodes in the case, values in stored form, sorted on the
        whole row (kind, value, source)."""
        out = []
        g = self.graph
        for kind, (cls, prop, stored, _, _) in _IOC_KINDS.items():
            for t in g.scan(None, RDF_TYPE, cls):
                value = first_literal(g, t.subject, prop)
                if value is not None:
                    out.append(Ioc(kind, stored(value),
                                   first_literal(g, t.subject, PROP_IOC_SOURCE) or ""))
        return sorted(out, key=Ioc._key)

    def import_iocs(self, rows: str) -> int:
        """Ingest kind,value,source CSV. Values are put in stored form; rows
        already present (same kind and stored value) are counted but not
        re-minted. Per-row validation failures land in ioc_import_errors. A
        malformed row raises CsvFormatError before any row is written, and
        leaves ioc_import_errors as it was."""
        errors: list[str] = []
        reader = csv.reader(io.StringIO(rows))
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("missing header row", 1) from None
        if [h.strip() for h in header] != ["kind", "value", "source"]:
            raise CsvFormatError("expected header kind,value,source", 1)
        existing = {(i.kind, i.value) for i in self.iocs()}
        batch: list[Triple] = []
        count = 0
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise CsvFormatError(f"expected 3 columns, found {len(row)}", rownum)
            kind, value, source = (c.strip() for c in row)
            if kind not in _IOC_KINDS:
                errors.append(f"row {rownum}: unknown IoC kind {kind!r}")
                continue
            cls, prop, stored, check, what = _IOC_KINDS[kind]
            value = stored(value)
            if not check(value):
                errors.append(f"row {rownum}: not {what}: {value!r}")
                continue
            count += 1
            if (kind, value) in existing:
                continue
            existing.add((kind, value))
            batch += self._new_node(cls, None, (
                (prop, Literal(value)), (PROP_RELATED_INCIDENT, self.case_iri),
                (PROP_IOC_SOURCE, Literal(source) if source else None)))
        self.add_all(batch)
        self.ioc_import_errors = errors
        return count

    def export_iocs(self) -> str:
        """kind,value,source CSV with domains re-defanged for safe exchange."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "value", "source"])
        for ioc in self.iocs():
            writer.writerow([ioc.kind, ioc.defanged(), ioc.source])
        return buf.getvalue()

    # -- serialization --

    def to_turtle(self) -> str:
        return serialize_turtle_canonical(self.graph)

    def validate(self):
        return validate_graph(self.graph, self.schema, self.catalog)


def new_case(name: str, at: str, schema: Schema | None = None,
             catalog: Catalog | None = None,
             rng: random.Random | None = None) -> CaseGraph:
    """Open a case: one Incident node carrying the name and opening time."""
    if not name or not kebab(name):
        raise InvalidNameError(f"case name must be non-empty, got {name!r}")
    _check_timestamp(at)
    schema = schema or load_default_schema()
    catalog = catalog or load_default_catalog()
    c = CaseGraph(Graph(prefixes=STANDARD_PREFIXES), CLS_INCIDENT, schema, catalog, rng)
    c.case_iri = case_iri = c.mint(name)
    c.add_all((Triple(case_iri, RDF_TYPE, CLS_INCIDENT), Triple(case_iri, PROP_NAME, Literal(name)),
               Triple(case_iri, PROP_CREATED_TIME, Literal(at, XSD_DATETIME))))
    return c


def from_graph(g: Graph, schema: Schema | None = None,
               catalog: Catalog | None = None,
               case_iri: Iri | None = None,
               rng: random.Random | None = None) -> CaseGraph:
    """Wrap an existing graph, locating its single Incident node."""
    schema = schema or load_default_schema()
    catalog = catalog or load_default_catalog()
    if case_iri is None:
        # one pass over the triples: an index built here would be thrown away
        incidents = sorted(
            (t.subject for t in g if t.predicate == RDF_TYPE and t.object == CLS_INCIDENT
             and isinstance(t.subject, Iri)),
            key=lambda i: i.value)
        if not incidents:
            raise CaseMismatchError("graph contains no Incident node")
        if len(incidents) > 1:
            raise CaseMismatchError(
                f"graph contains {len(incidents)} Incident nodes; pass case_iri to pick one")
        case_iri = incidents[0]
    prefixes = dict(STANDARD_PREFIXES)
    prefixes.update(g.prefixes)
    return CaseGraph(g.with_prefixes(prefixes), case_iri, schema, catalog, rng=rng)


def diff(a: CaseGraph, b: CaseGraph) -> tuple[frozenset[Triple], frozenset[Triple]]:
    """(added, removed): what to add to / remove from a to obtain b."""
    return a.graph.diff(b.graph)


def apply_diff(a: CaseGraph, added: Iterable[Triple], removed: Iterable[Triple]) -> CaseGraph:
    triples = (a.graph.triples - frozenset(removed)) | frozenset(added)
    return CaseGraph(Graph(triples, a.graph.prefixes), a.case_iri, a.schema, a.catalog)


def merge(a: CaseGraph, b: CaseGraph, allow_mismatch: bool = False) -> MergeOutcome:
    """Union of both graphs. Where a functional property would end up with two
    distinct values for one subject, a's value wins and the conflict is
    reported; b's competing triples stay out of the merged graph."""
    if a.case_iri != b.case_iri and not allow_mismatch:
        raise CaseMismatchError(
            f"cases differ: {a.case_iri.value} vs {b.case_iri.value} "
            "(pass allow_mismatch to merge anyway)")

    functional = {p.iri for p in a.schema.properties.values() if p.functional}
    a_values: dict[tuple, set] = {}
    for t in a.graph:
        if t.predicate in functional:
            a_values.setdefault((t.subject, t.predicate), set()).add(t.object)

    dropped = sorted(
        (t for t in b.graph if t.predicate in functional
         and (mine := a_values.get((t.subject, t.predicate))) and t.object not in mine),
        key=lambda t: (str(t.subject), t.predicate.value, str(t.object)))
    # one conflict per (subject, property), naming the first value dropped
    conflicts = [(skolemize_term(s), p, str(min(a_values[s, p], key=str)), str(next(ts).object))
                 for (s, p), ts in groupby(dropped, key=lambda t: (t.subject, t.predicate))]
    merged_triples = a.graph.triples | b.graph.triples.difference(dropped)
    prefixes = dict(b.graph.prefixes)
    prefixes.update(a.graph.prefixes)
    merged = CaseGraph(Graph(merged_triples, prefixes), a.case_iri, a.schema, a.catalog)
    return MergeOutcome(merged, conflicts)
