"""Turtle subset: parser and canonical serializer.

Supported syntax: @prefix directives, full IRIs in angle brackets, prefixed
names, the `a` keyword, `;` and `,` groupings, string literals with `^^`
datatype or `@lang`, bare integers and booleans, `#` comments, and labeled
blank nodes `_:x`. Anonymous property lists `[ ]`, collections `( )`,
`@base`, and triple-quoted strings are rejected with a parse error.

The grammar extends N-Triples and shares its term sub-patterns and string
escapes: a \\uXXXX or \\UXXXXXXXX escape must name a Unicode scalar value, so
escaped surrogates are parse errors.

The grammar has no nesting, so the parser reads a whole triple per match of
one step pattern built from those sub-patterns; the terminator before a step
picks what it holds. A term is built and checked the first time its source
text (`uco-core:name`, `a`, `"x"^^xsd:dateTime`) appears, and a memo keyed on
the text returns that object after; each @prefix empties that memo. Terms are
read by `ntriples.read_term`, the reader N-Triples uses, which builds them with
`build_term` and short forms with `build_short_form` (the query text's builder
too), and places a term's fault by one rule; their table keeps each distinct
term one object for the whole parse. A term that does not build raises where
the step built it. A step that fails to match is diagnosed by a walk over the
step's own parts from where the step began: the first part that does not
match, or the first term that does not build, is the fault, named by the token
found there. The walk reads no token past the fault it names, so, as in
N-Triples and the query text, the error is the first fault in document order.

The canonical serializer writes the prefix lines sorted by short-name, then
one block per subject in a single pass over the graph's kept (s, p, o)
order, rendering each distinct term once; LF line endings.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable

from .errors import BlankNodePresentError, ParseError
from .ntriples import (
    BLANK_NODE_LABEL,
    BOOLEAN,
    INTEGER,
    IRIREF,
    LOCAL_NAME_RE,
    MAX_DOCUMENT_BYTES,
    PREFIX_NAME,
    SHARED_TERMS,
    STRING_LITERAL_QUOTE,
    decode_document,
    escape_string_literal,
    read_term,
    render_term,
    term_error,
)
from .terms import (
    PREFIX_NAME_RE,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Term,
    Triple,
)

_INTEGER_RE = re.compile(INTEGER)

# A word starts with a letter and runs on over letters, digits and '-'.
_WORD = r"[^\W\d_](?:[^\W_]|-)*"
_WORD_END = r"(?![^\W_]|-)"
# A language tag or a directive, with its '@'.
_AT_WORD = r"@(?:[^\W_]|-)+"

# Whitespace and comments, in a form that matches them one way only, so a
# step that fails backtracks over them in linear time.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
# A prefixed name's prefix is a word. It tries an ASCII prefix, the only kind
# @prefix defines, first, so valid input pays nothing for other words. A local
# name stops before trailing dots, which end the statement; the lookahead
# keeps a step from matching less of it.
_PNAME = rf"(?:{PREFIX_NAME}|{_WORD}):(?:[\w.-]*[\w-])?(?![\w.-]*[\w-])"
_SUBJECT = rf"(?P<s>{IRIREF}|{BLANK_NODE_LABEL}|{_PNAME})"
_VERB = rf"(?P<p>{IRIREF}|{_PNAME}|a{_WORD_END})"
# An object. `q`, `dt` and `lang` are the parts of a literal, whose '^^' or
# '@' may follow a gap; the lookahead tries that gap only before a '^^', '@'
# or comment, so a plain literal pays nothing for it. The walk reads single
# tokens with it too, so a string never starts '"""' and a boolean is a word.
_OBJECT = rf"""(?P<o>{IRIREF}
  | (?!\"\"\")(?P<q>{STRING_LITERAL_QUOTE})(?:(?=[ \t\r\n]*[\^@\#]){_SKIP}
        (?:\^\^{_SKIP}(?P<dt>{IRIREF}|{_PNAME})|(?P<lang>{_AT_WORD})))?
  | {BLANK_NODE_LABEL} | {INTEGER}(?![0-9eE]|[.][0-9]) | {_PNAME} | (?:{BOOLEAN}){_WORD_END}
)"""
_ROLES = ("subject", "predicate", "object")


@functools.cache
def _step():
    """Matches one triple and its terminator, or a directive, the '.' of a
    trailing ';', or the end, with whitespace and comments wherever Turtle
    allows them. The parser matches only where its last match ended, so the
    lookbehinds see that match's terminator, which picks the branch. Compiled
    on first use: commands that read no Turtle never need it."""
    return re.compile(rf"""(?:
    (?:(?:\A|(?<=\.)){_SKIP}{_SUBJECT}|(?<=;)){_SKIP}{_VERB}
  | (?<=,)
){_SKIP}{_OBJECT}{_SKIP}[.;,]
| (?:\A|(?<=\.)){_SKIP}(?:
    @prefix{_WORD_END}{_SKIP}(?P<name>{PREFIX_NAME}):(?![\w.-]*[\w-])
        {_SKIP}(?P<ns>{IRIREF}){_SKIP}\.
  | \Z)
| (?<=;){_SKIP}\.""", re.X).match


@functools.cache
def _parts() -> dict[str, Callable]:
    """The patterns of the walk that diagnoses a failed step, compiled on
    first use. By the terminator before the step ('@' for a directive), the
    parts of the branch it tried, each tried once the parts before it have
    matched; then the gaps, the objects and the other tokens the step reads."""
    return {name: re.compile(pattern, re.X).match for name, pattern in (
        (".", rf"(?:{_SUBJECT}(?:{_SKIP}{_VERB}(?:{_SKIP}{_OBJECT})?)?)?"),
        (";", rf"(?:{_VERB}(?:{_SKIP}{_OBJECT})?)?"), (",", rf"(?:{_OBJECT})?"),
        ("@", rf"""(?P<word>{_AT_WORD})(?:{_SKIP}(?P<name>{_WORD}:(?![\w.-]*[\w-]))
            (?:{_SKIP}(?P<ns>{IRIREF}))?)?"""),
        ("skip", _SKIP), ("object", _OBJECT), ("word", _WORD),
        ("other", rf"a{_WORD_END}|\^\^|[.;,]|\Z|{_AT_WORD}"))}


def _token_error(text: str, pos: int) -> tuple[str, int]:
    """Message and offset for text[pos:], where no token starts."""
    ch = text[pos]
    if text.startswith('"""', pos):
        return "triple-quoted strings are not supported", pos
    if ch in '<_"':
        message, at = term_error(text, pos)
        if ch == "<" and at != pos:
            message = ("whitespace inside IRI" if text[at] in " \t\r\n"
                       else "control character inside IRI")
        return message, at
    if ch == "@":
        return "bare '@' is not a token", pos
    if ch == "^":
        return "expected '^^'", pos
    if ch in "+-0123456789":
        m = _INTEGER_RE.match(text, pos)
        if m is None:
            return "expected digits after sign", pos
        if text[m.end()] == ".":
            return "decimal literals are not supported (quote them with a datatype)", pos
        return "exponent literals are not supported", pos
    if ch in "[]":
        return "anonymous blank node property lists '[ ]' are not supported", pos
    if ch in "()":
        return "collections '( )' are not supported", pos
    m = _parts()["word"](text, pos)
    if m is not None:
        return f"unexpected token {m.group()!r}", pos
    return f"unexpected character {ch!r}", pos


class _Parser:
    """The step pattern's loop, and the walk over the step's parts that
    diagnoses a step that fails to match."""

    def __init__(self, text: str):
        self.text = text
        self.prefixes: dict[str, Iri] = {}
        self.triples: set[Triple] = set()
        # Step term text -> term, cleared by each @prefix, since a prefixed
        # name can change meaning.
        self.memo: dict[str, Term] = {}
        # The parse's terms, one object each, keyed as `build_term` keys them;
        # the shared constants are the terms.py objects.
        self.interned: dict = dict(SHARED_TERMS)

    def parse(self) -> Graph:
        text, memo, add, term, step = (
            self.text, self.memo, self.triples.add, self._term, _step())
        pos = 0
        while True:
            m = step(text, pos)
            if m is None:
                self._diagnose(pos)
            s, p, o, _, _, _, name, ns = m.groups()
            if o is not None:
                if s:
                    subject = memo.get(s) or term(m, "s")
                if p:
                    predicate = memo.get(p) or term(m, "p")
                add(Triple(subject, predicate, memo.get(o) or term(m, "o")))
            elif ns is not None:
                self._bind(name, term(m, "ns"))
            elif m.end() == len(text):
                return Graph._of(frozenset(self.triples), self.prefixes)
            pos = m.end()

    def _term(self, m: re.Match, group: str) -> Term:
        """The term in `group` of a step or part match `m`, read by
        `ntriples.read_term` the first time its text appears since the last
        @prefix; a term that does not build raises there."""
        return read_term(m, group, self.memo, self.interned, self.prefixes, self._fail)

    def _bind(self, name: str, iri: Iri):
        self.prefixes[name] = iri
        self.memo.clear()

    def _fail(self, message: str, offset: int, error=ParseError) -> ParseError:
        line = self.text.count("\n", 0, offset) + 1
        return error(message, line, offset - self.text.rfind("\n", 0, offset))

    # -- the walk that diagnoses a failed step

    def _skip(self, at: int) -> int:
        return _parts()["skip"](self.text, at).end()

    def _diagnose(self, pos: int):
        """Raise the error of the step at `pos`, which fails to match. The
        terminator before `pos` picks the branch the step tried (the start
        counts as a '.'); each term that branch's parts match is built in
        turn, and the first part they leave unset is the fault."""
        text = self.text
        after = text[pos - 1] if pos else "."
        at = self._skip(pos)
        if after == "." and text.startswith("@", at):
            self._directive(at)
        m = _parts()[after](text, at)
        for role in _ROLES[".;,".index(after):]:
            if m.group(role[0]) is None:
                self._unexpected(self._skip(m.end()), role)
            self._term(m, role[0])
        at = self._skip(m.end())
        if m.end("q") == m.end() and text.startswith("^^", at):  # a plain literal's '^^'
            self._unexpected(self._skip(at + 2), "expected datatype IRI after '^^'")
        self._unexpected(at, "expected '.' at end of statement")

    def _directive(self, at: int):
        """Raise the error of the directive at `at`, read as a statement is:
        its IRI is built once it is read, before the '.' is looked for."""
        self._token(at)
        m = _parts()["@"](self.text, at)
        word, name, ns = m.group("word", "name", "ns")
        if word != "@prefix":
            self._unexpected(at, "@base is not supported" if word == "@base"
                             else f"unknown directive {word}")
        if name is None:
            self._unexpected(self._skip(m.end()), "expected prefix name (like 'ex:') after @prefix")
        if not PREFIX_NAME_RE.fullmatch(name[:-1]):
            self._unexpected(m.start("name"), f"malformed prefix short-name {name[:-1]!r}")
        if ns is None:
            self._unexpected(self._skip(m.end()), "expected <IRI> in @prefix directive")
        self._term(m, "ns")
        self._unexpected(self._skip(m.end()), "expected '.' to close @prefix directive")

    def _token(self, at: int) -> str:
        """The text of the token at `at` as written ('' at the end), a string
        without its quotes. Raises where no token starts."""
        text, parts = self.text, _parts()
        m = parts["object"](text, at)
        if m is not None:
            q = m.group("q")
            return q[1:-1] if q else m.group("o").removeprefix("_:")
        m = parts["other"](text, at)
        if m is None:
            raise self._fail(*_token_error(text, at))
        return m.group().lstrip("@")

    def _unexpected(self, at: int, expected: str):
        """Raise the error for the token at `at`: the fault that keeps it
        from starting, else `expected`, the message or the role it does not fill."""
        found = self._token(at)
        if expected == "subject" and _parts()["object"](self.text, at):
            expected = "a literal cannot be the subject of a triple"
        elif expected in _ROLES:
            expected = (f"expected {expected}, found {found!r}" if at < len(self.text)
                        else f"unexpected end of input (expected {expected})")
        raise self._fail(expected, at)


def parse_turtle(doc: str | bytes) -> Graph:
    """Parse a Turtle-subset document into a Graph.

    Accepts str or UTF-8 bytes; documents over 64 MiB are refused. All
    failures raise ParseError (or a subclass) with 1-based line/column,
    UndefinedPrefixError, or InvalidIriError; never anything unstructured.

    The graph holds one object per distinct term: equal terms are the same
    object, however they were spelled (`<...>` or a prefixed name, `a` or
    `rdf:type`, `1` or `"1"^^xsd:integer`). Each term is built and checked
    the first time it appears. The memo lives for this call only, so two
    parses share no term object beyond the terms.py constants it starts
    from (`ntriples.SHARED_TERMS`): `rdf:type` and the six datatypes a schema
    range may name, so a parsed `xsd:dateTime` is `terms.XSD_DATETIME`.
    """
    return _Parser(decode_document(doc)).parse()


# ---------------------------------------------------------------------------
# canonical serialization


def _stem(value: str) -> str:
    """value up to and including its last '/' or '#'; '' if it holds neither."""
    return value[:max(value.rfind("/"), value.rfind("#")) + 1]


def _abbreviator(prefixes: dict[str, Iri]) -> Callable[[Iri], str | None]:
    """An IRI's prefixed-name rendering, or None when no prefix yields a safe
    local; the longest namespace wins, then the short-name that sorts first.
    A safe local holds no '/' or '#', so a namespace that fits an IRI has the
    IRI's stem: each IRI tries only the namespaces of its stem, in that order."""
    table: dict[str, list[tuple[str, str]]] = {}
    for name, ns in sorted(prefixes.items(), key=lambda item: (-len(item[1].value), item[0])):
        table.setdefault(_stem(ns.value), []).append((ns.value, name))

    @functools.cache
    def abbreviate(iri: Iri) -> str | None:
        value = iri.value
        for ns, name in table.get(_stem(value), ()):
            if value.startswith(ns) and LOCAL_NAME_RE.match(value[len(ns):]):
                return f"{name}:{value[len(ns):]}"
        return None
    return abbreviate


def _render_term(term: Term, abbreviate: Callable) -> str:
    """Prefixed names, and bare integers and booleans where they read back
    the same; otherwise the N-Triples form."""
    if isinstance(term, Iri):
        return abbreviate(term) or render_term(term)
    if isinstance(term, BlankNode) or term.lang is not None or term.datatype == XSD_STRING:
        return render_term(term)
    if (term.datatype == XSD_INTEGER and _INTEGER_RE.fullmatch(term.lexical)
            or term.datatype == XSD_BOOLEAN and term.lexical in ("true", "false")):
        return term.lexical
    datatype = abbreviate(term.datatype) or render_term(term.datatype)
    return f'"{escape_string_literal(term.lexical)}"^^{datatype}'


def _prefix_lines(prefixes: dict[str, Iri]) -> str:
    """The @prefix lines, sorted by short-name."""
    return "\n".join(f"@prefix {name}: <{prefixes[name].value}> ." for name in sorted(prefixes))


def serialize_turtle_canonical(g: Graph) -> str:
    """Deterministic Turtle text for a skolemized graph: prefix lines sorted
    by short-name, then one block per subject in the (s, p, o) row table that
    the graph keeps (`Graph.sorted_rows`), LF endings. One pass over that table
    starts a block or a predicate where the subject's or predicate's rank
    changes. Raises BlankNodePresentError if the graph holds blank nodes.
    """
    if g.has_blank_nodes():
        raise BlankNodePresentError(
            "canonical Turtle is defined for skolemized graphs; call skolemize() first")
    prefixes, ranks = g.prefixes, g.term_ranks()
    abbreviate = _abbreviator(prefixes)
    # rank -> text, so each distinct term renders once; a predicate's text
    # has a memo of its own, as rdf:type is `a` only there
    forms, verbs, chunks, last_s, last_p = {}, {}, [], None, None
    for subject, predicate, value in g.sorted_rows(("subject", "predicate", "object")):
        s, p, o = ranks[id(subject)], ranks[id(predicate)], ranks[id(value)]
        obj = forms.get(o) or forms.setdefault(o, _render_term(value, abbreviate))
        if s == last_s and p == last_p:
            chunks.append(f", {obj}")
            continue
        verb = verbs.get(p) or verbs.setdefault(p, "a" if predicate == RDF_TYPE else (
            forms.get(p) or forms.setdefault(p, _render_term(predicate, abbreviate))))
        if s == last_s:
            chunks.append(f" ;\n    {verb} {obj}")
        else:
            head = forms.get(s) or forms.setdefault(s, _render_term(subject, abbreviate))
            chunks.append(f" .\n\n{head} {verb} {obj}")
        last_s, last_p = s, p
    # the first block has no block before it to close
    body = "".join(chunks)[4:] + " ." if chunks else ""
    text = "\n\n".join(piece for piece in (_prefix_lines(prefixes), body) if piece)
    return text + "\n" if text else ""
