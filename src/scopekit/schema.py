"""Schema model and loader.

Schema documents are Turtle-subset files using a deliberately small
vocabulary: rdfs:Class / rdf:Property declarations, rdfs:subClassOf,
rdfs:domain (repeatable), rdfs:range (single), rdfs:label, rdfs:comment, and
three cardinality annotations in the scm: namespace (minCount, maxCount,
functional). Anything else in a schema document is ignored.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

from .errors import (
    DanglingReferenceError,
    DuplicateDefinitionError,
    InvalidCardinalityError,
    SchemaCycleError,
    UnknownClassError,
    UnknownPropertyError,
)
from . import namespaces
from .namespaces import SCOPE_META
from .ntriples import read_text_file
from .terms import (
    KNOWN_DATATYPES,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_CLASS,
    RDFS_COMMENT,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    Graph,
    Iri,
    Literal,
    Record,
)
from .turtle import parse_turtle

SCM_MIN_COUNT = Iri(SCOPE_META + "minCount")
SCM_MAX_COUNT = Iri(SCOPE_META + "maxCount")
SCM_FUNCTIONAL = Iri(SCOPE_META + "functional")
# the class and property constants code looks up: a schema names them with
# these objects, so lookups keyed on either side hit on identity
_CONSTANTS = {v: v for k, v in vars(namespaces).items() if k.startswith(("CLS_", "PROP_"))}


class ClassDef(Record):
    __slots__ = ("iri", "parents", "label", "description")

    def __init__(self, iri: Iri, parents: frozenset[Iri], label: str = "", description: str = ""):
        self._set(iri, parents, label, description)


class PropertyDef(Record):
    __slots__ = ("iri", "domain", "range", "min_card", "max_card", "functional", "label",
                 "description")

    def __init__(self, iri: Iri, domain: frozenset[Iri], range: Iri | None, min_card: int = 0,
                 max_card: int | None = None, functional: bool = False, label: str = "",
                 description: str = ""):  # max_card None = unbounded
        self._set(iri, domain, range, min_card, max_card, functional, label, description)


class Schema:
    """Immutable class/property index with subclass reachability.

    Every class's ancestors are worked out once, on construction, by the walk
    that also rejects a subClassOf cycle with SchemaCycleError.
    """

    def __init__(self, classes: dict[Iri, ClassDef], properties: dict[Iri, PropertyDef],
                 namespaces: dict[str, Iri], version: str = "custom"):
        self.classes = dict(classes)
        self.properties = dict(properties)
        self.namespaces = dict(namespaces)
        self.version = version
        self._ancestors = _ancestor_sets(self.classes)

    def __eq__(self, other):
        if not isinstance(other, Schema):
            return NotImplemented
        return (self.classes == other.classes
                and self.properties == other.properties
                and self.namespaces == other.namespaces
                and self.version == other.version)

    def __repr__(self):
        return f"<Schema v{self.version}: {len(self.classes)} classes, {len(self.properties)} properties>"

    def ancestors(self, c: Iri) -> frozenset[Iri]:
        """Reflexive-transitive closure of the parent relation."""
        try:
            return self._ancestors[c]
        except KeyError:
            raise UnknownClassError(f"class not declared: {c}") from None

    def is_subclass_of(self, c: Iri, ancestor: Iri) -> bool:
        if ancestor not in self.classes:
            raise UnknownClassError(f"class not declared: {ancestor}")
        return ancestor in self.ancestors(c)

    def subclasses_of(self, ancestor: Iri) -> frozenset[Iri]:
        """All declared classes that reach ancestor, including itself."""
        if ancestor not in self.classes:
            raise UnknownClassError(f"class not declared: {ancestor}")
        return frozenset(c for c, anc in self._ancestors.items() if ancestor in anc)

    def instances_under(self, g: Graph, root: Iri) -> dict:
        """Each node of g typed with a declared class under root (root included)
        -> those classes, read by one `g.scan(None, rdf:type, c)` per class in
        `subclasses_of(root)`; {} when root is not declared."""
        if root not in self.classes:
            return {}
        out: dict = {}
        for c in self.subclasses_of(root):
            for t in g.scan(None, RDF_TYPE, c):
                out.setdefault(t.subject, set()).add(c)
        return out

    def applicable_properties(self, c: Iri) -> list[PropertyDef]:
        """Properties usable on instances of c, via domain-or-ancestor match."""
        anc = self.ancestors(c)
        hits = [p for p in self.properties.values() if p.domain & anc]
        hits.sort(key=lambda p: p.iri.value)
        return hits

    def property(self, iri: Iri) -> PropertyDef:
        try:
            return self.properties[iri]
        except KeyError:
            raise UnknownPropertyError(f"property not declared: {iri}") from None


def _single_string(g: Graph, subject: Iri, predicate: Iri, what: str) -> str:
    values = {o.lexical for o in g.objects_of(subject, predicate) if isinstance(o, Literal)}
    if len(values) > 1:
        raise DuplicateDefinitionError(
            f"{subject} has {len(values)} distinct {what} values")
    return values.pop() if values else ""


def _single_int(g: Graph, subject: Iri, predicate: Iri, what: str) -> int | None:
    objs = g.objects_of(subject, predicate)
    values = set()
    for o in objs:
        if not isinstance(o, Literal):
            raise InvalidCardinalityError(f"{what} on {subject} must be an integer literal")
        try:
            values.add(int(o.lexical))
        except ValueError:
            raise InvalidCardinalityError(
                f"{what} on {subject} is not an integer: {o.lexical!r}") from None
    if len(values) > 1:
        raise DuplicateDefinitionError(f"{subject} has conflicting {what} values")
    return values.pop() if values else None


def _by_iri(iris: Iterable[Iri]) -> list[Iri]:
    """IRI order, so the first fault reported does not depend on set hashing."""
    return sorted(iris, key=lambda i: i.value)


def _ancestor_sets(classes: dict[Iri, ClassDef]) -> dict[Iri, frozenset[Iri]]:
    """Each class with its ancestors, itself included, from one depth-first
    walk in IRI order. Raises SchemaCycleError on the first cycle the walk
    meets; parents that are not declared classes are left out."""
    done: dict[Iri, frozenset[Iri]] = {}
    path: list[Iri] = []

    def visit(c: Iri) -> frozenset[Iri]:
        path.append(c)
        found = {c}
        for parent in _by_iri(classes[c].parents):
            if parent in path:
                raise SchemaCycleError([x.value for x in path[path.index(parent):]] + [parent.value])
            if parent in classes:
                found |= done.get(parent) or visit(parent)
        path.pop()
        done[c] = frozenset(found)
        return done[c]

    for c in _by_iri(classes):
        if c not in done:
            visit(c)
    return done


def load_schema(docs: Iterable[str | bytes], version: str = "custom") -> Schema:
    """Build a Schema from Turtle documents.

    Raises SchemaCycleError on a subClassOf cycle, DanglingReferenceError
    when a parent/domain/range names nothing declared, and
    DuplicateDefinitionError on conflicting redefinitions.
    """
    triples: list = []
    namespaces: dict[str, Iri] = {}
    for doc in docs:
        g = parse_turtle(doc)
        for name, ns in g.prefixes.items():
            if name in namespaces and namespaces[name] != ns:
                raise DuplicateDefinitionError(
                    f"prefix {name!r} bound to both {namespaces[name]} and {ns}")
            namespaces[name] = ns
        triples += g.triples
    union = Graph._of(frozenset(triples), {})

    class_iris: set[Iri] = set()
    property_iris: set[Iri] = set()
    for t in union.scan(None, RDF_TYPE, RDFS_CLASS):
        if not isinstance(t.subject, Iri):
            raise DanglingReferenceError("class declarations must use IRIs")
        class_iris.add(_CONSTANTS.get(t.subject, t.subject))
    for t in union.scan(None, RDF_TYPE, RDF_PROPERTY):
        if not isinstance(t.subject, Iri):
            raise DanglingReferenceError("property declarations must use IRIs")
        property_iris.add(_CONSTANTS.get(t.subject, t.subject))

    both = class_iris & property_iris
    if both:
        worst = _by_iri(both)[0]
        raise DuplicateDefinitionError(f"{worst} is declared as both a class and a property")

    # subClassOf on an undeclared subject is a typo worth failing loudly on
    for t in union.match(None, RDFS_SUBCLASSOF, None):
        if t.subject not in class_iris:
            raise DanglingReferenceError(
                f"subClassOf asserted on undeclared class {t.subject}")

    # one object per class or datatype IRI across documents: sets of them compare on identity
    own = {c: c for c in (*class_iris, *KNOWN_DATATYPES)}
    classes: dict[Iri, ClassDef] = {}
    for c in _by_iri(class_iris):
        parents = set()
        for o in union.objects_of(c, RDFS_SUBCLASSOF):
            if not isinstance(o, Iri):
                raise DanglingReferenceError(f"subclass target of {c} must be an IRI")
            parents.add(own.get(o, o))
        classes[c] = ClassDef(c, frozenset(parents), _single_string(union, c, RDFS_LABEL, "label"),
                              _single_string(union, c, RDFS_COMMENT, "comment"))

    properties: dict[Iri, PropertyDef] = {}
    for p in _by_iri(property_iris):
        domain = set()
        for o in union.objects_of(p, RDFS_DOMAIN):
            if not isinstance(o, Iri):
                raise DanglingReferenceError(f"domain of {p} must be an IRI")
            domain.add(own.get(o, o))
        ranges = {own.get(o, o) for o in union.objects_of(p, RDFS_RANGE)}
        if len(ranges) > 1:
            raise DuplicateDefinitionError(f"{p} declares {len(ranges)} ranges")
        rng = None
        if ranges:
            rng = ranges.pop()
            if not isinstance(rng, Iri):
                raise DanglingReferenceError(f"range of {p} must be an IRI")
        min_card = _single_int(union, p, SCM_MIN_COUNT, "minCount") or 0
        max_card = _single_int(union, p, SCM_MAX_COUNT, "maxCount")
        functional = _single_string(union, p, SCM_FUNCTIONAL, "functional") == "true"
        if functional and max_card is None:
            max_card = 1
        if functional and max_card != 1:
            raise InvalidCardinalityError(
                f"{p} is functional but declares maxCount {max_card}")
        if min_card < 0 or (max_card is not None and max_card < min_card):
            raise InvalidCardinalityError(
                f"{p} has an impossible cardinality window [{min_card}, {max_card}]")
        properties[p] = PropertyDef(p, frozenset(domain), rng, min_card, max_card, functional,
                                    _single_string(union, p, RDFS_LABEL, "label"),
                                    _single_string(union, p, RDFS_COMMENT, "comment"))

    # referential integrity over the merged documents
    for c in classes.values():
        for parent in _by_iri(c.parents):
            if parent not in classes:
                raise DanglingReferenceError(
                    f"{c.iri} declares undeclared parent {parent}")
    for p in properties.values():
        for d in _by_iri(p.domain):
            if d not in classes:
                raise DanglingReferenceError(f"{p.iri} has undeclared domain {d}")
        if p.range is not None and p.range not in classes and p.range not in KNOWN_DATATYPES:
            raise DanglingReferenceError(
                f"{p.iri} has a range that is neither a declared class nor a known datatype: {p.range}")

    return Schema(classes, properties, namespaces, version)


_EMBEDDED_SCHEMA_DIR = os.path.join(os.path.dirname(os.path.realpath(__file__)), "schemas")


def read_manifest(path: str | os.PathLike) -> tuple[str, list[tuple[str, Iri]]]:
    version = "unversioned"
    entries: list[tuple[str, Iri]] = []
    # line ends as open() reads them: a line keeps every other line separator
    for raw in read_text_file(path).split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("version "):
            version = line.split(None, 1)[1]
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DanglingReferenceError(f"malformed manifest line: {raw!r}")
        entries.append((parts[0], Iri(parts[1])))
    return version, entries


def load_schema_dir(directory: str | os.PathLike) -> Schema:
    """Load every .ttl in a directory, dot-files included, checking it against
    the directory's manifest.txt when present."""
    try:
        names = sorted(name for name in os.listdir(directory) if name.endswith(".ttl"))
    except OSError:  # not a directory we can list: as an empty one
        names = []
    if not names:
        raise DanglingReferenceError(f"no .ttl schema documents in {os.fspath(directory)}")
    docs = [read_text_file(os.path.join(directory, name)) for name in names]

    manifest_path = os.path.join(directory, "manifest.txt")
    version = "unversioned"
    entries: list[tuple[str, Iri]] = []
    if os.path.exists(manifest_path):
        version, entries = read_manifest(manifest_path)

    schema = load_schema(docs, version=version)
    for prefix, class_iri in entries:
        if prefix not in schema.namespaces:
            raise DanglingReferenceError(
                f"manifest expects namespace {prefix!r}, absent from loaded documents")
        if class_iri not in schema.classes:
            raise DanglingReferenceError(
                f"manifest expects class {class_iri}, absent from loaded documents")
    return schema


_DEFAULT_SCHEMA: Schema | None = None


def load_default_schema() -> Schema:
    """The embedded schema set, loaded once per process."""
    global _DEFAULT_SCHEMA
    if _DEFAULT_SCHEMA is None:
        _DEFAULT_SCHEMA = load_schema_dir(_EMBEDDED_SCHEMA_DIR)
    return _DEFAULT_SCHEMA

