"""RDF term model and immutable triple-set graph.

Terms are frozen values with structural equality: two literals are equal iff
their lexical form, datatype, and language tag are equal ("1"^^xsd:int and
"01"^^xsd:int are different terms). Terms and triples are `Record`s on one
base, `_Hashed`: each term's own `__init__` checks and normalises its fields,
then writes them and the hash it computes once through the slots' setters, so
set and dict lookups do not rebuild the hash; a term pickles by rebuilding
through its constructor, as str hashes differ between processes. A hash
is computed from strs, ints and other terms' cached hashes only, never from
None or another object hashed by its address, so one PYTHONHASHSEED fixes
every hash, and a graph's iteration order, in every interpreter. The Turtle
and N-Triples parsers build one object per distinct term in a document, so
equal terms in a parsed graph are the same object and container lookups on
them succeed on identity, before any `==`. Each parse keeps its own memo, so
nothing is shared across parses but the constants defined here. Graphs are
immutable; insert/remove return new graphs, so a graph value can be shared
freely across readers. `Graph(...)` checks its triples and prefix map; the
private `Graph._of` holds a checked frozenset and map as they are, for the
parsers, set algebra on graphs and `skolemize`. A graph is its own index: on
its first lookup it lists its triples by subject, predicate and object;
`estimate` gives, in O(1), the length of the list a lookup would read, and per
predicate it keeps a `column` of values by subject, which `first_literal` (a
property that should hold one value) and `Graph.objects_of` read. A
`casekit.CaseGraph` grows its own graph in place, lists included, and freezes
it before any reader sees it; nothing adds to a graph after. A graph's table
of canonical term ranks (keyed by the `id` of its term objects) and, per order
of the three positions, one table of (term, term, term) rows sorted on those
ranks, which canonical Turtle reads and query full scans return, are built on
first use and kept too; a copied or unpickled graph builds its own, not
another's ids. The `has_blank_nodes` answer is kept too, or handed in by `_of`.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from operator import attrgetter, itemgetter

from .errors import InvalidIriError

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
_FORBIDDEN_IRI_CHAR_RE = re.compile(r'[\x00-\x20<>"{}|^`\\]')
# A blank node label and a prefix short-name; the grammars in ntriples.py build
# their sub-patterns from these.
BLANK_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
PREFIX_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9-]*")
_LANG_TAG_RE = re.compile(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*")

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
SKOLEM_PREFIX = "urn:skolem:"


class Record:
    """Base of the frozen records and, through `_Hashed`, of the terms. A
    class lists its fields as its `__slots__`, and its own `__init__` writes
    each once through the slot's setter (`_setters`). Records of one class are
    equal when their fields are; a record hashes on its fields, prints as
    `Class(field=value, ...)`, pickles by rebuilding through its constructor,
    and refuses any assignment after."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._key = attrgetter(*cls.__slots__)  # one field's value, or a tuple of the fields

    def _set(self, *values) -> None:
        for put, value in zip(self._setters, values):
            put(self, value)

    def __eq__(self, other) -> bool:
        key = self._key
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


class _Hashed(Record):
    """Base of the terms and `Triple`: a `Record` that hashes on the hash its
    `__init__` computes once, from its fields, and writes to `_hash`."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash


class Iri(_Hashed):
    """Absolute IRI. Rejects whitespace, control characters and <>"{}|^`\\."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        if not value:
            raise InvalidIriError("IRI must be non-empty")
        if not _SCHEME_RE.match(value):
            raise InvalidIriError(f"IRI has no scheme: {value!r}")
        if bad := _FORBIDDEN_IRI_CHAR_RE.search(value):
            raise InvalidIriError(f"IRI contains forbidden character {bad.group()!r}: {value!r}")
        _set_value(self, value)
        _set_hash(self, hash(value))

    def local_name(self) -> str:
        """Substring after the last '/', '#', or ':' separator."""
        idx = max(self.value.rfind("/"), self.value.rfind("#"), self.value.rfind(":"))
        return self.value[idx + 1:]

    def __str__(self) -> str:
        return self.value


# the slots' own setters, which the frozen __setattr__ does not guard
(_set_hash,), (_set_value,) = _Hashed._setters, Iri._setters

# Fixed datatype IRIs used throughout.
XSD_STRING = Iri(XSD + "string")
XSD_INTEGER = Iri(XSD + "integer")
XSD_BOOLEAN = Iri(XSD + "boolean")
XSD_DECIMAL = Iri(XSD + "decimal")
XSD_DATETIME = Iri(XSD + "dateTime")
XSD_ANYURI = Iri(XSD + "anyURI")
RDF_TYPE = Iri(RDF_NS + "type")
RDFS_LABEL = Iri(RDFS_NS + "label")
RDFS_COMMENT = Iri(RDFS_NS + "comment")
RDFS_SUBCLASSOF = Iri(RDFS_NS + "subClassOf")
RDFS_DOMAIN = Iri(RDFS_NS + "domain")
RDFS_RANGE = Iri(RDFS_NS + "range")
RDFS_CLASS = Iri(RDFS_NS + "Class")
RDF_PROPERTY = Iri(RDF_NS + "Property")
# the datatypes a schema range may name
KNOWN_DATATYPES = frozenset(
    (XSD_STRING, XSD_INTEGER, XSD_BOOLEAN, XSD_DECIMAL, XSD_DATETIME, XSD_ANYURI))


class Literal(_Hashed):
    """RDF literal. A bare literal (no datatype, no lang) is an xsd:string."""

    __slots__ = ("lexical", "datatype", "lang")

    def __init__(self, lexical: str, datatype: Iri | None = None, lang: str | None = None):
        if lang is not None:
            if datatype is not None:
                raise ValueError("literal cannot carry both a language tag and a datatype")
            if not _LANG_TAG_RE.fullmatch(lang):
                raise ValueError(f"malformed language tag: {lang!r}")
            lang = lang.lower()
        elif datatype is None:
            datatype = XSD_STRING  # implied datatype
        _set_lexical(self, lexical)
        _set_datatype(self, datatype)
        _set_lang(self, lang)
        # after normalization exactly one of lang and datatype is set
        _set_hash(self, hash((lexical, lang or datatype._hash)))

    def __str__(self) -> str:
        if self.lang:
            return f'"{self.lexical}"@{self.lang}'
        if self.datatype and self.datatype != XSD_STRING:
            return f'"{self.lexical}"^^{self.datatype}'
        return f'"{self.lexical}"'


class BlankNode(_Hashed):
    __slots__ = ("label",)

    def __init__(self, label: str):
        if not BLANK_LABEL_RE.fullmatch(label):
            raise ValueError(f"malformed blank node label: {label!r}")
        _set_label(self, label)
        _set_hash(self, hash(label))

    def __str__(self) -> str:
        return f"_:{self.label}"


(_set_lexical, _set_datatype, _set_lang), (_set_label,) = Literal._setters, BlankNode._setters


Term = Iri | BlankNode | Literal


def term_sort_key(t: Term):
    """Total order over terms: IRIs, then blank nodes, then literals."""
    if isinstance(t, Iri):
        return (0, t.value, "", "")
    if isinstance(t, BlankNode):
        return (1, t.label, "", "")
    return (2, t.lexical, t.datatype.value if t.datatype else "", t.lang or "")


class Triple(_Hashed):
    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Iri | BlankNode, predicate: Iri, object: Term):
        if not isinstance(subject, (Iri, BlankNode)):
            raise TypeError(f"triple subject must be an IRI or blank node: {subject!r}")
        if not isinstance(predicate, Iri):
            raise TypeError(f"triple predicate must be an IRI: {predicate!r}")
        if not isinstance(object, (Iri, BlankNode, Literal)):
            raise TypeError(f"triple object must be a term: {object!r}")
        _set_subject(self, subject)
        _set_predicate(self, predicate)
        _set_object(self, object)
        _set_hash(self, hash((subject._hash, predicate._hash, object._hash)))

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object} ."


_set_subject, _set_predicate, _set_object = Triple._setters


def triple_sort_key(t: Triple):
    return (term_sort_key(t.subject), term_sort_key(t.predicate), term_sort_key(t.object))


def _check_triples(triples: Iterable[Triple]) -> frozenset[Triple]:
    triples = frozenset(triples)
    for t in triples:
        if not isinstance(t, Triple):
            raise TypeError(f"not a triple: {t!r}")
    return triples


def _check_prefix_map(prefixes: Mapping[str, Iri]) -> dict[str, Iri]:
    out: dict[str, Iri] = {}
    for name, ns in prefixes.items():
        if not PREFIX_NAME_RE.fullmatch(name):
            raise ValueError(f"malformed prefix short-name: {name!r}")
        if not isinstance(ns, Iri):
            ns = Iri(str(ns))
        out[name] = ns
    return out


class Graph:
    """Immutable set of triples plus a prefix map, and its own index.

    Equality and hashing consider the triple set only; the prefix map is
    presentation metadata (N-Triples, for one, cannot carry it). On the first
    lookup a graph lists its triples by subject, predicate and object; per
    predicate it keeps a `column` (Hexastore's PSO order); `term_ranks` and
    one `sorted_rows` table per order are built on first use too. All are
    kept; copies rebuild them (`__reduce__`). Canonical Turtle reads the kept
    (s, p, o) table, query full scans return a kept table; a read of one
    subject's values of one predicate reads that predicate's column, and
    `has_blank_nodes` keeps its answer. `Graph(...)` checks its input; the
    private `_of` takes checked triples, prefixes and any known answer as is.

    `_grown`, `_add_all` and `_freeze` are `casekit.CaseGraph`'s write path:
    it grows a private graph in place, and freezes it before a reader sees it.
    """

    __slots__ = ("_triples", "_prefixes", "_blanks", "_by_s", "_by_p", "_by_o", "_columns",
                 "_ranks", "_rows")

    def __init__(self, triples: Iterable[Triple] = (), prefixes: Mapping[str, Iri] | None = None):
        self._start(_check_triples(triples), _check_prefix_map(prefixes or {}), None)

    @staticmethod
    def _of(triples: frozenset[Triple], prefixes: dict[str, Iri], blanks=None) -> Graph:
        """Checked triples and prefix map as they are; blanks: a known blank-node answer."""
        return Graph.__new__(Graph)._start(triples, prefixes, blanks)

    def _start(self, triples, prefixes, blanks) -> Graph:
        self._triples, self._prefixes, self._blanks = triples, prefixes, blanks
        # built lazily; the graph is immutable, so they never go stale
        self._by_s = self._by_p = self._by_o = self._ranks = None
        self._columns, self._rows = {}, {}  # per predicate; per order of the three positions
        return self

    # -- basic accessors --
    @property
    def triples(self) -> frozenset[Triple]:
        return self._triples

    @property
    def prefixes(self) -> dict[str, Iri]:
        return dict(self._prefixes)

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self) -> int:
        return hash(self._triples)

    def __reduce__(self):
        return Graph, (self._triples, self._prefixes)

    def __repr__(self) -> str:
        return f"<Graph {len(self._triples)} triples, {len(self._prefixes)} prefixes>"

    # -- functional updates --
    def insert(self, t: Triple) -> Graph:
        """New graph with t added; no-op (same content) if already present."""
        return self.insert_all((t,))

    def remove(self, t: Triple) -> Graph:
        """New graph with t removed; no-op if absent."""
        return Graph._of(self._triples - {t}, self._prefixes) if t in self._triples else self

    def insert_all(self, triples: Iterable[Triple]) -> Graph:
        new = _check_triples(triples) - self._triples
        return Graph._of(self._triples | new, self._prefixes) if new else self

    def with_prefixes(self, prefixes: Mapping[str, Iri]) -> Graph:
        g = Graph._of(self._triples, {**self._prefixes, **_check_prefix_map(prefixes)}, self._blanks)
        # the same checked triples: the set, built lists and columns serve both
        g._by_s, g._by_p, g._by_o, g._columns = self._by_s, self._by_p, self._by_o, self._columns
        return g

    # -- growth, for casekit.CaseGraph only --
    def _grown(self) -> Graph:
        """A graph of the same triples that `_add_all` may grow: a copy of
        the set and of any built lists, made without re-reading the triples;
        no columns, no blank-node answer. Unbuilt lists are built on first use."""
        g = Graph._of(set(self._triples), self._prefixes)
        if self._by_s is not None:
            g._by_s, g._by_p, g._by_o = ({k: v.copy() for k, v in lists.items()}
                                         for lists in (self._by_s, self._by_p, self._by_o))
        return g

    def _add_all(self, triples: Iterable[Triple]) -> None:
        """Add each of triples not yet in a `_grown` graph to its set, its
        built lists and its predicate's built column."""
        if self._by_s is None:  # built from the set on the first lookup
            self._triples.update(triples)
            return
        have, put, columns = self._triples.__contains__, self._triples.add, self._columns
        by_s, by_p, by_o = self._by_s.setdefault, self._by_p.setdefault, self._by_o.setdefault
        for t in triples:
            if have(t):
                continue
            put(t)
            by_s(t.subject, []).append(t)
            by_p(t.predicate, []).append(t)
            by_o(t.object, []).append(t)
            if columns and (column := columns.get(t.predicate)) is not None:
                column.setdefault(t.subject, []).append(t.object)

    def _freeze(self) -> None:
        """End a `_grown` graph's growth: its set becomes a frozenset, and
        its lists and columns are kept."""
        self._triples = frozenset(self._triples)

    # -- matching --
    def _build_index(self):
        self._by_s, self._by_p, self._by_o = by_s, by_p, by_o = {}, {}, {}
        for t in self._triples:
            by_s.setdefault(t.subject, []).append(t)
            by_p.setdefault(t.predicate, []).append(t)
            by_o.setdefault(t.object, []).append(t)

    def _candidates(self, subject: Term | None, predicate: Iri | None, object: Term | None):
        """The narrowest list for the bound positions (by subject, object,
        then predicate), and the predicate and object its triples still need
        comparing on: None where the list fixes the position."""
        if self._by_s is None:
            self._build_index()
        if subject is not None:
            return self._by_s.get(subject, ()), predicate, object
        if object is not None:
            return self._by_o.get(object, ()), predicate, None
        if predicate is not None:
            return self._by_p.get(predicate, ()), None, None
        return self._triples, None, None

    def estimate(self, subject: Term | None = None, predicate: Iri | None = None,
                 object: Term | None = None) -> int:
        """The length of the list `scan` reads for the bound positions, in
        O(1): an upper bound on the number of matches."""
        return len(self._candidates(subject, predicate, object)[0])

    def scan(self, subject: Term | None = None, predicate: Iri | None = None,
             object: Term | None = None) -> list[Triple]:
        """All triples matching the bound positions, in no particular order.

        None is a wildcard. The result is a fresh list.
        """
        candidates, predicate, object = self._candidates(subject, predicate, object)
        if predicate is None and object is None:
            return list(candidates)
        # identity, then the cached hash, so few candidates reach the fields' __eq__
        ph, oh = getattr(predicate, "_hash", None), getattr(object, "_hash", None)
        return [
            t for t in candidates
            if (predicate is None or t.predicate is predicate
                or t.predicate._hash == ph and t.predicate == predicate)
            and (object is None or t.object is object
                 or t.object._hash == oh and t.object == object)
        ]

    def column(self, predicate: Iri) -> dict[Iri | BlankNode, list[Term]]:
        """predicate's values by subject: each subject that has one -> its
        objects, in no particular order. Built from predicate's list on first
        use and kept, shared: do not modify it."""
        column = self._columns.get(predicate)
        if column is None:
            column = {}  # published whole, as a graph may be shared across readers
            for t in self._candidates(None, predicate, None)[0]:
                column.setdefault(t.subject, []).append(t.object)
            self._columns[predicate] = column
        return column

    def match(self, subject: Term | None = None, predicate: Iri | None = None,
              object: Term | None = None) -> list[Triple]:
        """All triples matching the bound positions, in canonical sort order.

        None is a wildcard. The result is a fresh list: `scan` sorted by
        `triple_sort_key`. Use `scan` where the order does not matter.
        """
        out = self.scan(subject, predicate, object)
        if len(out) > 1:
            out.sort(key=triple_sort_key)
        return out

    def term_ranks(self) -> dict[int, int]:
        """Canonical rank of every term object in the graph, keyed by its `id`.

        A rank is the position of the term's `term_sort_key` among the graph's
        distinct keys, so equal terms held as distinct objects share a rank.
        Built in one pass on the first call and kept, shared: do not modify it.
        """
        if self._ranks is None:
            objects = {id(x): x for t in self._triples for x in (t.subject, t.predicate, t.object)}
            keys = list(map(term_sort_key, objects.values()))
            rank_of = dict(zip(sorted(set(keys)), range(len(keys))))
            self._ranks = dict(zip(objects, map(rank_of.__getitem__, keys)))
        return self._ranks

    def sorted_rows(self, order: tuple[str, str, str]) -> tuple[tuple[Term, Term, Term], ...]:
        """The triples as a table of rows in canonical order, each row a
        triple's terms in `order`, a permutation of ("subject", "predicate",
        "object"), the most significant position first. Built on the first
        call for each order (at most six) and kept, shared."""
        rows = self._rows.get(order)
        if rows is None:
            rows = self._rows[order] = tuple(
                self.sorted_on_ranks(list(map(attrgetter(*order), self._triples))))
        return rows

    def sorted_on_ranks(self, rows: list[tuple]) -> list[tuple]:
        """rows in canonical order: compared cell by cell on the `term_ranks`
        of their terms, the first cell most significant. Every cell must be an
        object of this graph's triples; equal terms tie."""
        # a stable sort per cell, the least significant first
        rank, at = self.term_ranks().__getitem__, list(range(len(rows)))
        for cell in reversed(range(len(rows[0]) if rows else 0)):
            at.sort(key=list(map(rank, map(id, map(itemgetter(cell), rows)))).__getitem__)
        return list(map(rows.__getitem__, at))

    def diff(self, other: "Graph") -> tuple[frozenset[Triple], frozenset[Triple]]:
        """(added, removed): the triples to add to / remove from this graph to obtain other."""
        return other._triples - self._triples, self._triples - other._triples

    def subjects(self) -> set[Iri | BlankNode]:
        """The distinct subjects, as a fresh set of the subject list's keys."""
        if self._by_s is None:
            self._build_index()
        return set(self._by_s)

    def objects_of(self, subject: Term, predicate: Iri) -> list[Term]:
        """subject's values of predicate, in canonical order: a fresh list."""
        return sorted(self.column(predicate).get(subject, ()), key=term_sort_key)

    def has_blank_nodes(self) -> bool:
        if self._blanks is None:  # worked out on the first ask and kept
            self._blanks = any(isinstance(t.subject, BlankNode) or isinstance(t.object, BlankNode)
                               for t in self)
        return self._blanks


def first_literal(g: Graph, subject, predicate) -> str | None:
    """Lexical form of the first literal value, in canonical order, or None:
    a property that should hold one value reads alike in every module."""
    found = [o for o in g.column(predicate).get(subject, ()) if isinstance(o, Literal)]
    if len(found) > 1:  # most properties hold one value: no key to compute
        return min(found, key=term_sort_key).lexical
    return found[0].lexical if found else None


def skolemize_term(term: Term) -> Term:
    """A blank node's IRI under the urn:skolem: scheme, derived from its
    label; any other term unchanged."""
    return Iri(SKOLEM_PREFIX + term.label) if isinstance(term, BlankNode) else term


def skolemize(g: Graph) -> Graph:
    """Replace every blank node with its `skolemize_term` IRI. Deterministic."""
    if not g.has_blank_nodes():
        return g
    sk = skolemize_term
    triples = frozenset(Triple(sk(t.subject), t.predicate, sk(t.object)) for t in g)
    return Graph._of(triples, g._prefixes, False)
