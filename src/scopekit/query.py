"""Conjunctive triple-pattern queries with variable joins and regex filters.

Small on purpose: patterns join on shared variables, filters run as soon as
their variable is bound, and results come back as a deduplicated, canonically
sorted table. No OPTIONAL, no UNION, no property paths.

The join plans its order greedily by selectivity, as RDF-3X does: first the
pattern whose constants pick the shortest index list (`Graph.estimate`, which
reads no triples), then each time a pattern that shares a variable bound so
far, again by the shortest list; ties keep the written order. Rows that bind a
pattern's bound cells to the same term objects share one lookup, filtered and
cut to the pattern's new cells once per call. The table is sorted on the ranks
a graph computes once for its terms (`Graph.term_ranks`). A full scan, one
pattern of three distinct variables, sorts nothing and builds no row: it
returns the row table that the graph builds once and keeps for the order of
its columns (`Graph.sorted_rows`), or the rows of that table that pass its
filters, each regex run once per distinct term of its column. A table that
passes MAX_ROWS rows raises QueryTooLargeError.

The text syntax puts one pattern per line. Lines end at LF only; whitespace
around a line, a trailing CR included, is ignored. A pattern line is read
with one compiled pattern, as N-Triples reads a line: the subject, predicate
and object are each tried only once the terms before them have matched, so
the first term the match leaves unset is the fault: "expected a term" at the
end of the line, the fault of an IRI, blank node label or string literal as
`ntriples.term_error` words it in a case file, else "cannot read term". The
terms are Turtle's, built by Turtle's builders, so a prefixed name's local
name follows Turtle's rule and every name the Turtle writer abbreviates reads
back; a \\uXXXX or \\UXXXXXXXX escape must name a Unicode scalar value.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from itertools import compress
from operator import attrgetter, itemgetter

from .errors import (
    InvalidIriError,
    MalformedVariableError,
    QueryTextError,
    QueryTooLargeError,
    UnboundFilterVariableError,
    UnsupportedRegexError,
)
from .namespaces import STANDARD_PREFIXES
from .ntriples import (
    BLANK_NODE_LABEL,
    BOOLEAN,
    INTEGER,
    IRIREF,
    PREFIX_NAME,
    SHARED_TERMS,
    STRING_LITERAL_QUOTE,
    build_short_form,
    build_term,
    render_term,
    term_error,
)
from .terms import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Record,
    Term,
)

_VAR_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
MAX_ROWS = 1_000_000  # rows a pattern's table may hold before the join gives up


class Variable(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _VAR_NAME_RE.fullmatch(name):
            raise MalformedVariableError(
                f"variable names match ?[A-Za-z][A-Za-z0-9_]*, got ?{name}")
        self._set(name)

    def __str__(self) -> str:
        return "?" + self.name


PatternTerm = Variable | Iri | Literal | BlankNode


class Pattern(Record):
    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: PatternTerm, predicate: PatternTerm, object: PatternTerm):
        if not isinstance(predicate, (Variable, Iri)):
            raise MalformedVariableError("pattern predicate must be an IRI or a variable")
        self._set(subject, predicate, object)

    def variables(self) -> set[str]:
        return {t.name for t in (self.subject, self.predicate, self.object)
                if isinstance(t, Variable)}


class BindingTable(Record):
    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...], rows: tuple[tuple[Term, ...], ...]):
        self._set(columns, rows)

    def __len__(self) -> int:
        return len(self.rows)

    def to_tsv(self) -> str:
        """Header of ?names, then one row per binding, N-Triples term syntax."""
        out = ["\t".join("?" + c for c in self.columns)]
        for row in self.rows:
            out.append("\t".join(render_term(t) for t in row))
        return "\n".join(out) + "\n"


def check_regex(text: str) -> "re.Pattern[str]":
    """Compile the conservative filter dialect: literals, classes, ., * + ?,
    anchors, alternation, plain groups. Counted repetition, (?...) extensions,
    backreferences and the class forms a later Python may read as nested sets
    or set operations (`_class_end`) are rejected so filters behave the same
    everywhere."""
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            i = _escape_end(text, i)
            continue
        if ch == "[":
            i = _class_end(text, i)
            continue
        if ch in "{}":
            raise UnsupportedRegexError("counted repetition {m,n} is not supported in filters")
        if ch == "(" and text[i + 1:i + 2] == "?":
            raise UnsupportedRegexError("(?...) group extensions are not supported in filters")
        i += 1
    try:
        return re.compile(text)
    except re.error as exc:
        raise UnsupportedRegexError(f"bad filter regex: {exc}") from None


def _escape_end(text: str, i: int) -> int:
    """The offset just past the escape at text[i], a backslash."""
    if i + 1 >= len(text):
        raise UnsupportedRegexError("trailing backslash in filter regex")
    if text[i + 1].isdigit():
        raise UnsupportedRegexError("backreferences are not supported in filters")
    return i + 2


_SET_OPERATIONS = {"-": "difference", "&": "intersection", "~": "symmetric difference",
                   "|": "union"}


def _class_end(text: str, i: int) -> int:
    """The offset just past the character class that opens at text[i], read
    member by member as re reads it: a ']' first (after '[' or '[^') is a
    member, and a '-' between two members makes a range.

    re warns (a FutureWarning) where a later Python may read a class as a
    nested set or a set operation; those forms are rejected here, from the
    text alone: a '[' right after the opening '[', a doubled '-', '&', '~' or
    '|' after the first member, and a range that ends at '-'."""
    if text[i + 1:i + 2] == "[":
        raise UnsupportedRegexError(
            f"ambiguous filter regex: Possible nested set at position {i + 1}")
    i += 2 if text[i + 1:i + 2] == "^" else 1
    members = 0
    while i < len(text):
        ch = text[i]
        if ch == "]" and members:
            return i + 1
        if ch == "\\":
            i = _escape_end(text, i)
        else:
            if members and ch in _SET_OPERATIONS and text[i + 1:i + 2] == ch:
                raise UnsupportedRegexError(
                    f"ambiguous filter regex: Possible set {_SET_OPERATIONS[ch]} at position {i}")
            i += 1
        members += 1
        if text[i:i + 1] != "-" or i + 1 == len(text):
            continue
        # a range, or a last member '-' when ']' follows
        ch = text[i + 1]
        if ch == "]":
            return i + 2
        if ch == "-":
            raise UnsupportedRegexError(
                f"ambiguous filter regex: Possible set difference at position {i}")
        i = _escape_end(text, i + 1) if ch == "\\" else i + 2
    raise UnsupportedRegexError("unterminated character class in filter regex")


def _filter_text(term: Term) -> str:
    """The text a filter regex sees."""
    if isinstance(term, Iri):
        return term.value
    if isinstance(term, BlankNode):
        return term.label
    return term.lexical


_POSITIONS = ("subject", "predicate", "object")


def _compile(p: Pattern, slot_of: dict[str, int]):
    """Compile pattern p against the variables that earlier patterns bound.

    slot_of maps each bound variable to its slot in a row. p's new variables
    are added to it only after all three positions are read, so a variable
    that p repeats is not mistaken for one an earlier pattern bound. They
    take their slots in name order, so one pattern builds rows in column order.
    Returns:
      lookup  per position, (slot, None) for a bound variable, (None, term)
              for a constant and (None, None) for a new variable;
      new     each new variable, in name order, and the position that binds it;
      same    pairs of positions that repeat one new variable (?x p ?x).
    """
    lookup: list[tuple[int | None, Term | None]] = []
    same: list[tuple[str, str]] = []
    first: dict[str, str] = {}  # new variable -> the position that binds it
    for position, t in zip(_POSITIONS, (p.subject, p.predicate, p.object)):
        if not isinstance(t, Variable):
            lookup.append((None, t))
            continue
        lookup.append((slot_of.get(t.name), None))
        if t.name in first:
            same.append((first[t.name], position))
        elif t.name not in slot_of:
            first[t.name] = position
    new = dict(sorted(first.items()))
    for name in new:
        slot_of[name] = len(slot_of)
    return lookup, new, same


def _checked_filters(patterns: Sequence[Pattern], filters: Iterable[tuple[str, str]]
                     ) -> list[tuple[str, "re.Pattern[str]"]]:
    """Each filter's variable, without its '?', and its compiled regex."""
    if not patterns:
        raise MalformedVariableError("a query needs at least one pattern")
    known_vars = {v for p in patterns for v in p.variables()}
    compiled = []
    for var, regex in filters:
        var = var[1:] if var.startswith("?") else var
        if var not in known_vars:
            raise UnboundFilterVariableError(
                f"filter variable ?{var} does not appear in any pattern")
        compiled.append((var, check_regex(regex)))
    return compiled


def _plan(g: Graph, patterns: Sequence[Pattern]) -> list[Pattern]:
    """The patterns in the order the join evaluates them, greedily by
    selectivity: first the one whose constants pick the shortest index list,
    then each time one that shares a variable bound so far, again by the
    shortest list. Ties keep the written order. No pattern is looked up."""
    size = [g.estimate(*[None if isinstance(t, Variable) else t
                         for t in (p.subject, p.predicate, p.object)]) for p in patterns]
    names = [p.variables() for p in patterns]
    left, bound, plan = list(range(len(patterns))), set(), []
    while left:
        i = min([i for i in left if names[i] & bound] or left, key=size.__getitem__)
        left.remove(i)
        plan.append(patterns[i])
        bound |= names[i]
    return plan


def _join(g: Graph, patterns: Sequence[Pattern], filters: Iterable[tuple[str, str]]
          ) -> tuple[dict[str, int], list[tuple[Term, ...]]]:
    """The filtered rows of a query, unprojected and unsorted, and the slot
    of each of the query's variables in a row. A filter runs on the matches
    of the pattern that first binds its variable."""
    compiled = _checked_filters(patterns, filters)

    # index nested loop join, one pattern at a time, in the planned order. A
    # row is a tuple of terms, one slot per variable in the order the patterns
    # bind them. The lookup already matches constants and bound variables, and
    # each lookup returns distinct triples, so the rows stay distinct without
    # a dedup. Rows that bind p's bound cells to the same term objects share
    # one lookup, filtered and cut to p's new cells once.
    slot_of: dict[str, int] = {}
    rows: list[tuple[Term, ...]] = [()]
    for p in _plan(g, patterns):
        lookup, new, same = _compile(p, slot_of)
        checks = [(attrgetter(new[var]), rx) for var, rx in compiled if var in new]
        take = attrgetter(*new.values()) if new else None
        cells = [i for i, _ in lookup if i is not None]
        parts_of: dict[tuple[int, ...], list[tuple[Term, ...]]] = {}
        grown: list[tuple[Term, ...]] = []
        for row in rows:
            key = tuple([id(row[i]) for i in cells])
            parts = parts_of.get(key)
            if parts is None:
                matches = g.scan(*[c if i is None else row[i] for i, c in lookup])
                if same:
                    matches = [t for t in matches
                               if all(getattr(t, a) == getattr(t, b) for a, b in same)]
                for get, rx in checks:
                    matches = [t for t in matches if rx.search(_filter_text(get(t)))]
                if take is None:
                    parts = [()] * len(matches)
                else:
                    parts = list(map(take, matches) if len(new) > 1 else zip(map(take, matches)))
                parts_of[key] = parts
            grown += [row + part for part in parts] if row else parts
            if len(grown) > MAX_ROWS:
                raise QueryTooLargeError(f"query table passes {MAX_ROWS:,} rows")
        rows = grown
    return slot_of, rows


def _full_scan(g: Graph, p: Pattern, filters: Iterable[tuple[str, str]]) -> BindingTable:
    """The table of one pattern of three distinct variables: the row table
    the graph keeps for the order of its columns, or the rows of it that
    every filter passes, with no sort and no new row."""
    position_of = {getattr(p, at).name: at for at in _POSITIONS}
    columns = tuple(sorted(position_of))
    rows = g.sorted_rows(tuple(map(position_of.__getitem__, columns)))
    # a column repeats its terms across the graph: rx searches each distinct one once
    for var, rx in _checked_filters([p], filters):
        cells = list(map(itemgetter(columns.index(var)), rows))
        passed = {t for t in set(cells) if rx.search(_filter_text(t))}
        rows = tuple(compress(rows, map(passed.__contains__, cells)))
    if len(rows) > MAX_ROWS:
        raise QueryTooLargeError(f"query table passes {MAX_ROWS:,} rows")
    return BindingTable(columns, rows)


def run_query(g: Graph, patterns: Sequence[Pattern],
              filters: Iterable[tuple[str, str]] = ()) -> BindingTable:
    if len(patterns) == 1 and len(patterns[0].variables()) == 3:
        return _full_scan(g, patterns[0], filters)
    slot_of, rows = _join(g, patterns, filters)
    columns = tuple(sorted(slot_of))
    if list(slot_of) != list(columns):
        rows = list(map(itemgetter(*[slot_of[c] for c in columns]), rows))
    if len(rows) > 1:  # every cell is a term object of g
        rows = g.sorted_on_ranks(rows)
    return BindingTable(columns, tuple(rows))


def count(g: Graph, patterns: Sequence[Pattern],
          filters: Iterable[tuple[str, str]] = ()) -> int:
    """len(run_query(g, patterns, filters)): the same filtered join, unprojected, unsorted."""
    return len(_join(g, patterns, filters)[1])


# -- textual query syntax (one pattern per line, FILTER lines) --

_FILTER_LINE_RE = re.compile(r"^FILTER\s+\?([A-Za-z][A-Za-z0-9_]*)\s+/((?:[^/\\]|\\.)*)/\s*$")

# A variable, an IRI, or a blank node label or short form (`a`, a boolean, an
# integer or a prefixed name) that runs on to a blank; a literal's datatype is
# one of those or a literal without a suffix.
_WORD = rf"(?:{BLANK_NODE_LABEL}|a|{BOOLEAN}|{INTEGER}|(?:{PREFIX_NAME})?:[^ \t]*)(?![^ \t])"
_NOT_LITERAL = rf"\?[^ \t]*|{IRIREF}|{_WORD}"


def _term_pattern(role: str) -> str:
    """A term in group `role`; a literal's parts in groups role + "q", "dt" and "lang"."""
    return (rf'(?P<{role}>{_NOT_LITERAL}|(?P<{role}q>{STRING_LITERAL_QUOTE})(?:\^\^'
            rf'(?P<{role}dt>{_NOT_LITERAL}|{STRING_LITERAL_QUOTE})?|(?P<{role}lang>@[^ \t]*))?)')


# One pattern line: a subject, a predicate and an object, each tried only once
# the terms before it have matched, with the blanks after each.
_LINE_RE = re.compile("(?:{}[ \t]*(?:{}[ \t]*(?:{}[ \t]*)?)?)?".format(*map(_term_pattern, "spo")))


def _missing(line: str, pos: int, expected: str) -> str:
    """Why no term matches at line[pos]: the fault of the IRI or literal
    there, a blank node label named by its whole run up to the next blank,
    else the word there, else `expected`."""
    word = re.match(r"[^ \t]*", line[pos:]).group()
    if word.startswith("_:"):
        return f"malformed blank node label: {word[2:]!r}"
    if word[:1] in ("<", "_", '"'):
        return term_error(line, pos)[0]
    return f"cannot read term starting at {word!r}" if word else expected


def _build(text: str, lineno: int, prefixes: dict[str, Iri], interned: dict,
           m: re.Match | None = None, role: str = "") -> PatternTerm:
    """The term `text` names: the one in group `role` of the line match `m`, or a datatype."""
    if text[0] == "?":
        return Variable(text[1:])
    if text[0] != '"':
        return build_term(text, interned) if text[0] in "<_" else build_short_form(
            text, interned, prefixes)
    q, dt, lang = m.group(role + "q", role + "dt", role + "lang") if m else (text, None, None)

    def datatype() -> Iri:
        if dt is None:
            raise QueryTextError(_missing(m.string, m.end(role), "^^ needs a datatype"), lineno)
        if isinstance(built := _build(dt, lineno, prefixes, interned), Iri):
            return built
        raise QueryTextError("datatype must be an IRI", lineno)
    return build_term(text, interned, q, lang, datatype if text.startswith("^", len(q)) else None)


def parse_query(text: str, prefixes: dict[str, Iri] | None = None
                ) -> tuple[list[Pattern], list[tuple[str, str]]]:
    """One s p o pattern per line; `FILTER ?v /regex/` lines; `#` comments
    and blank lines ignored. A variable, a blank node label or a short form
    ends at a blank, while an IRI or a literal may be followed directly by
    the next term. Prefixed names resolve against the standard profile
    unless a map is supplied."""
    resolved = dict(STANDARD_PREFIXES)
    if prefixes:
        resolved.update(prefixes)
    patterns: list[Pattern] = []
    filters: list[tuple[str, str]] = []
    interned: dict = dict(SHARED_TERMS)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("FILTER"):
            m = _FILTER_LINE_RE.match(line)
            if not m:
                raise QueryTextError("FILTER lines look like: FILTER ?v /regex/", lineno)
            filters.append((m.group(1), m.group(2).replace("\\/", "/")))
            continue
        m = _LINE_RE.match(line)
        try:
            terms = [_build(t, lineno, resolved, interned, m, role)
                     for role, t in zip("spo", m.group("s", "p", "o")) if t is not None]
            if len(terms) < 3:
                raise QueryTextError(_missing(line, m.end(), "expected a term"), lineno)
            if m.end() < len(line):
                raise QueryTextError("a pattern line holds exactly three terms", lineno)
            patterns.append(Pattern(*terms))
        except KeyError as exc:
            raise QueryTextError(f"undefined prefix {exc.args[0]!r}", lineno) from None
        except InvalidIriError as exc:
            raise QueryTextError(f"bad IRI: {exc}", lineno) from None
        except (MalformedVariableError, ValueError) as exc:  # a name, an escape, a tag, a local
            raise QueryTextError(exc.args[0], lineno) from None
    if not patterns:
        raise QueryTextError("query has no patterns", 1)
    return patterns, filters


def run_text_query(g: Graph, text: str,
                   prefixes: dict[str, Iri] | None = None) -> BindingTable:
    patterns, filters = parse_query(text, prefixes)
    return run_query(g, patterns, filters)
