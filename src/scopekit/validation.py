"""Rule-based conformance checking for case graphs.

Twelve registered rules, R01 through R12. A rule yields (node, message) pairs,
and the registry alone gives it its code and severity. Reports are
deterministic: findings are sorted by (code, subject, message), so equal
graphs always produce byte-identical reports. Validation never mutates the
graph and never infers anything: an untyped node is a finding, not a
candidate for inference.

Every rule reads the graph through its own index; nothing copies it. The
property rules (R02-R04) check one schema property at a time over the
index's kept column of it (`Graph.column`) or, for R03, its triples, as a
SHACL property shape checks one path over its value nodes. The class rules
(R09-R11) read a class's members through `Schema.instances_under` and look
each up in a column. No rule scans on a bound (subject, predicate). The only
per-call view is each subject's shape, which serves R01-R05: one per
distinct set of rdf:type objects, in the manner of SHACL node shapes,
holding its undeclared classes and its declared classes' ancestors.
"""

from __future__ import annotations

import re
from datetime import datetime

from .catalog import (
    CAPEC_ID_RE,
    CRIME_TYPES,
    CVE_ID_RE,
    Catalog,
    MD5_RE,
    TECHNIQUE_ID_RE,
)
from .errors import UnknownRuleError
from .namespaces import (
    CLS_ACQUIRED_EVIDENCE,
    CLS_CYBERCRIME,
    CLS_THREAT,
    PROP_CAPEC_ID,
    PROP_CRIME_TYPE,
    PROP_CUSTODY_OF,
    PROP_CUSTODY_SEQ,
    PROP_CUSTODY_TS,
    PROP_CVE_ID,
    PROP_MD5,
    PROP_TARGETS,
    PROP_TECHNIQUE_ID,
)
from .schema import KNOWN_DATATYPES, Schema
from .terms import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_INTEGER,
    Graph,
    Iri,
    Literal,
    Record,
    SKOLEM_PREFIX,
    first_literal,
    skolemize_term,
)

ERROR = "Error"
WARNING = "Warning"

KEBAB_NAME_RE = re.compile(r"[a-z0-9]+(-[a-z0-9]+)*")
UUID_TAIL_RE = re.compile(  # "-" and a version-4 UUID: 37 characters
    r"-[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-4[0-9a-fA-F]{3}-[89abAB][0-9a-fA-F]{3}-[0-9a-fA-F]{12}")

DATETIME_Z_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d+)?Z", re.ASCII)
INTEGER_LEX_RE = re.compile(r"[+-]?\d+", re.ASCII)
DECIMAL_LEX_RE = re.compile(r"[+-]?\d+(\.\d+)?", re.ASCII)


def is_valid_utc_timestamp(lexical: str) -> bool:
    if not DATETIME_Z_RE.fullmatch(lexical):
        return False
    try:
        # the date and time fields only: fromisoformat (3.10) takes neither a
        # trailing Z nor a fraction of other than 3 or 6 digits
        datetime.fromisoformat(lexical[:19])
        return True
    except ValueError:
        return False


def custody_sequence(g: Graph, record) -> int | None:
    """A custody record's sequence number: its first literal in canonical
    order, if that is an xsd:integer lexical form; else None. R10 orders a
    chain by it and the report prints it."""
    text = first_literal(g, record, PROP_CUSTODY_SEQ)
    return int(text) if text is not None and INTEGER_LEX_RE.fullmatch(text) else None


class Finding(Record):
    __slots__ = ("severity", "code", "subject", "message")

    def __init__(self, severity: str, code: str, subject: Iri, message: str):
        self._set(severity, code, subject, message)


class ValidationReport(Record):
    __slots__ = ("findings", "checked_triples", "schema_version")

    def __init__(self, findings: tuple[Finding, ...], checked_triples: int, schema_version: str):
        self._set(findings, checked_triples, schema_version)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_text(self) -> str:
        return "".join(
            f"{f.code}\t{f.severity}\t{f.subject.value}\t{f.message}\n"
            for f in self.findings)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "checked_triples": self.checked_triples,
            "error_count": len(self.errors),
            "warning_count": len(self.warnings),
            "findings": [{"code": f.code, "severity": f.severity, "subject": f.subject.value,
                          "message": f.message} for f in self.findings],
        }


class _Shape:
    """What one distinct set of rdf:type objects means under the schema."""

    def __init__(self, types: frozenset, ctx: "_Ctx"):
        declared = [ctx.schema.classes[c].iri for c in types if c in ctx.schema.classes]
        self.typed = bool(types)
        self.undeclared = [c for c in types if c not in ctx.schema.classes]
        self.class_names = ", ".join(sorted(c.local_name() for c in declared))
        self.ancestors = frozenset().union(*map(ctx.ancestors, declared))
        self.min_props = [p for p in ctx.schema.properties.values()
                          if p.min_card > 0 and p.domain & self.ancestors]


class _Ctx:
    """One graph against one schema: the graph, and each subject's shape."""

    def __init__(self, g: Graph, schema: Schema):
        self.g, self.schema = g, schema
        types = g.column(RDF_TYPE)
        self._ancestors: dict = {}
        self._shapes: dict = {}
        self.shape = {s: self._shape(types.get(s, ())) for s in g.subjects()}
        self.untyped = self._shape(())

    def _shape(self, types) -> _Shape:
        # most subjects have one type: that object is the key, with no set to build
        key = types[0] if len(types) == 1 else frozenset(types)
        return self._shapes.get(key) or self._shapes.setdefault(
            key, _Shape(frozenset(c for c in types if isinstance(c, Iri)), self))

    def ancestors(self, c: Iri) -> frozenset[Iri]:
        return self._ancestors.get(c) or self._ancestors.setdefault(c, self.schema.ancestors(c))


def _rule_r01(ctx: _Ctx):
    """Typed-node discipline: every subject is typed, with declared classes."""
    for s, shape in ctx.shape.items():
        if not shape.typed:
            yield s, "node has no type"
        for c in shape.undeclared:
            yield s, f"typed with undeclared class {c.value}"


def _rule_r02(ctx: _Ctx):
    """Domain conformance for declared properties; untyped subjects are R01's.
    One verdict per (property, shape)."""
    for p in ctx.schema.properties.values():
        if not p.domain:
            continue
        outside: dict = {}
        for s in ctx.g.column(p.iri):
            shape = ctx.shape[s]
            wrong = outside.get(shape)
            if wrong is None:
                wrong = outside[shape] = bool(shape.ancestors) and not p.domain & shape.ancestors
            if wrong:
                yield s, (f"{p.iri.local_name()} is not applicable to a node of class "
                          f"{shape.class_names}")


_LEXICAL_CHECKS = {
    XSD_DATETIME: (is_valid_utc_timestamp, "not a UTC Z-form timestamp"),
    XSD_INTEGER: (INTEGER_LEX_RE.fullmatch, "not an integer"),
    XSD_DECIMAL: (DECIMAL_LEX_RE.fullmatch, "not a decimal"),
    XSD_BOOLEAN: (("true", "false").__contains__, "not a boolean"),
}


def _check_datatype_value(lit: Literal, expected: Iri) -> str | None:
    if lit.datatype is not expected and lit.datatype != expected:
        found = lit.datatype.value if lit.datatype else f"@{lit.lang}"
        return f"expected {expected.local_name()} literal, found {found}"
    check, what = _LEXICAL_CHECKS.get(expected, (None, ""))
    if check and not check(lit.lexical):
        return f"{what}: {lit.lexical!r}"
    return None


def _rule_r03(ctx: _Ctx):
    """Range conformance: datatype shape for literals, typing for objects."""
    for p in ctx.schema.properties.values():
        rng = p.range
        if rng is None:
            continue
        datatype = rng in KNOWN_DATATYPES
        for t in ctx.g.scan(None, p.iri, None):
            o = t.object
            if datatype and isinstance(o, Literal):
                problem = _check_datatype_value(o, rng)
                message = problem and f": {problem}"
            elif datatype:
                message = f" expects a {rng.local_name()} literal"
            elif isinstance(o, Literal):
                message = f" expects a node of class {rng.local_name()}, found a literal"
            elif rng not in ctx.shape.get(o, ctx.untyped).ancestors:
                message = (f" expects a node of class {rng.local_name()}: "
                           f"{skolemize_term(o).value} is not one")
            else:
                continue
            if message:
                yield t.subject, p.iri.local_name() + message


def _rule_r04(ctx: _Ctx):
    """Cardinality: occurrence counts against minCount/maxCount/functional."""
    for p in ctx.schema.properties.values():
        if p.max_card is None:
            continue
        kind = "functional property" if p.functional else "property"
        # a subject's values of one property are distinct: the graph is a set
        for s, values in ctx.g.column(p.iri).items():
            if len(values) > p.max_card:
                yield s, (f"{kind} {p.iri.local_name()} has {len(values)} distinct values, "
                          f"at most {p.max_card} allowed")
    # min side: every instance of a domain class must reach the floor
    for s, shape in ctx.shape.items():
        for p in shape.min_props:
            n = len(ctx.g.column(p.iri).get(s, ()))
            if n < p.min_card:
                yield s, (f"property {p.iri.local_name()} has {n} values, "
                          f"at least {p.min_card} required")


def _rule_r05(ctx: _Ctx):
    """Identifier shape: typed instance IRIs end in <kebab-name>-<uuid-v4>."""
    for s, shape in ctx.shape.items():
        # blanks and skolem IRIs carry no minted name; untyped nodes are R01's
        if not isinstance(s, Iri) or s.value.startswith(SKOLEM_PREFIX) or not shape.typed:
            continue
        local = s.local_name()
        if not (UUID_TAIL_RE.fullmatch(local[-37:]) and KEBAB_NAME_RE.fullmatch(local[:-37])):
            yield s, f"local name {local!r} does not follow <kebab-name>-<uuid-v4>"


def _literal_shape_rule(prop: Iri, regex, what: str):
    def rule(ctx: _Ctx):
        for t in ctx.g.scan(None, prop, None):
            if isinstance(t.object, Literal) and not regex.fullmatch(t.object.lexical):
                yield t.subject, f"{t.object.lexical!r} is not a well-formed {what}"
    return rule


_rule_r06 = _literal_shape_rule(PROP_TECHNIQUE_ID, TECHNIQUE_ID_RE,
                                "technique id (T#### or T####.###)")
_rule_r07 = _literal_shape_rule(PROP_CAPEC_ID, CAPEC_ID_RE, "CAPEC id (CAPEC-N)")
_rule_r08 = _literal_shape_rule(PROP_MD5, MD5_RE, "MD5 digest (32 lowercase hex digits)")
_rule_r12 = _literal_shape_rule(PROP_CVE_ID, CVE_ID_RE, "CVE id (CVE-YYYY-N)")


def _rule_r09(ctx: _Ctx):
    """Threat nodes should point at the infrastructure they apply to."""
    targets = ctx.g.column(PROP_TARGETS)
    for s in ctx.schema.instances_under(ctx.g, CLS_THREAT):
        if s not in targets:
            yield s, "threat is not linked to any infrastructure component"


def _rule_r10(ctx: _Ctx):
    """Chain of custody: every acquired item has one, and it moves forward in time."""
    for e in ctx.schema.instances_under(ctx.g, CLS_ACQUIRED_EVIDENCE):
        records = [t.subject for t in ctx.g.scan(None, PROP_CUSTODY_OF, e)]
        if not records:
            yield e, "no custody chain recorded"
        if len(records) < 2:
            continue

        entries = []
        for rec in records:
            ts = first_literal(ctx.g, rec, PROP_CUSTODY_TS)
            if ts is None or not is_valid_utc_timestamp(ts):
                continue  # malformed timestamps are R03's finding
            entries.append((custody_sequence(ctx.g, rec), ts, skolemize_term(rec).value))

        if len(entries) < 2:
            continue
        # order by sequence number when the chain carries distinct ones,
        # otherwise by timestamp (which can still expose duplicates)
        seqs = [seq for seq, _, _ in entries]
        if None not in seqs and len(set(seqs)) == len(seqs):
            entries.sort(key=lambda x: x[0])
        else:
            entries.sort(key=lambda x: (x[1], x[2]))
        for (_, ts_a, _), (_, ts_b, rec_b) in zip(entries, entries[1:]):
            if ts_b <= ts_a:
                yield e, f"custody timestamps do not strictly increase: {ts_b} follows {ts_a}"
                break


def _rule_r11(ctx: _Ctx):
    """Crime nodes carry a crimeType from the closed set."""
    allowed = ", ".join(sorted(CRIME_TYPES))
    crime_types = ctx.g.column(PROP_CRIME_TYPE)
    for s in ctx.schema.instances_under(ctx.g, CLS_CYBERCRIME):
        values = crime_types.get(s)
        if not values:
            yield s, f"crime node lacks a crimeType (one of: {allowed})"
            continue
        for v in values:
            if isinstance(v, Literal) and v.lexical not in CRIME_TYPES:
                yield s, f"crimeType {v.lexical!r} is not one of: {allowed}"


_RULES = {
    "R01": (ERROR, _rule_r01,
            "Every node in a case graph must carry an rdf:type whose class the schema declares. "
            "Evidence must be explicit: nothing is inferred for untyped or unknown-class nodes."),
    "R02": (ERROR, _rule_r02,
            "A property may only be asserted on nodes whose class (or an ancestor) appears in the "
            "property's declared domain. Untyped subjects are reported by R01 instead."),
    "R03": (ERROR, _rule_r03,
            "Property values must match the declared range: datatype properties need a literal of "
            "the right datatype (timestamps must be UTC ISO-8601 with a Z suffix), object "
            "properties need a node typed with the range class."),
    "R04": (ERROR, _rule_r04,
            "Occurrence counts must respect the declared cardinality window; functional properties "
            "admit at most one distinct value per node."),
    "R05": (ERROR, _rule_r05,
            "Instance identifiers follow the <kebab-name>-<uuid-v4> naming convention, e.g. "
            "resource-system-9f1b2c3d-....  The UUID part is any RFC 4122 version-4 value, "
            "case-insensitive. Keeps minted names self-describing and collision-free."),
    "R06": (ERROR, _rule_r06,
            "Technique annotations must be well-formed ids: T followed by four digits, with an "
            "optional .NNN sub-technique suffix (T1190, T1566.002)."),
    "R07": (ERROR, _rule_r07,
            "Attack-pattern annotations must be well-formed CAPEC ids: CAPEC- followed by digits."),
    "R08": (ERROR, _rule_r08,
            "MD5 values must be exactly 32 lowercase hexadecimal digits."),
    "R09": (WARNING, _rule_r09,
            "Each threat node should target at least one infrastructure component; an untargeted "
            "threat carries no modelling value. Advisory only."),
    "R10": (ERROR, _rule_r10,
            "Every acquired evidence item needs a chain of custody: at least one custody record, "
            "with timestamps strictly increasing along the chain."),
    "R11": (ERROR, _rule_r11,
            "Every crime node carries a crimeType drawn from the closed set: DataInterference, "
            "SystemInterference, IllegalAccess, IllegalInterception."),
    "R12": (ERROR, _rule_r12,
            "CVE annotations must be well-formed ids: CVE-, a four-digit year, a dash, and at "
            "least four digits."),
    "M01": (ERROR, None,
            "Merge conflict: a functional property holds two distinct values for the same node "
            "across the merged inputs. The merge keeps the first input's value; the conflict "
            "line records both."),
}

RULE_CODES = tuple(code for code in sorted(_RULES) if code.startswith("R"))


def validate_graph(g: Graph, schema: Schema, catalog: Catalog) -> ValidationReport:
    """Apply every registered rule; malformed content becomes findings, never
    exceptions."""
    ctx = _Ctx(g, schema)
    findings: list[Finding] = []
    for code in RULE_CODES:
        severity, rule, _ = _RULES[code]
        findings.extend(Finding(severity, code, skolemize_term(node), message)
                        for node, message in rule(ctx))
    findings.sort(key=lambda f: (f.code, f.subject.value, f.message))
    return ValidationReport(tuple(findings), checked_triples=len(g),
                            schema_version=schema.version)


def explain_rule(code: str) -> str:
    try:
        severity, _, text = _RULES[code]
    except KeyError:
        raise UnknownRuleError(f"no such rule: {code!r}") from None
    return f"{code} ({severity}): {text}"
