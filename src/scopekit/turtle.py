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
the text returns that object after; each @prefix empties that memo. IRIREFs,
blank node labels and string literals are built by `ntriples.build_term`, the
builder N-Triples uses, whose table keeps each distinct term one object for
the whole parse. The step takes every valid statement; one that the step or
a term check rejects goes to the token parser, a loop over one token pattern
compiled on first use. It re-reads the statement from its subject and raises
the diagnostic, with line and column worked out from the offset only then,
or, should the step have missed a valid form, adds its triples.

The canonical serializer writes the prefix lines sorted by short-name, then
one block per subject in a single pass over the graph's kept (s, p, o)
order, rendering each distinct term once; LF line endings.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Union

from .errors import BlankNodePresentError, InvalidIriError, ParseError, UndefinedPrefixError
from .ntriples import (
    BLANK_NODE_LABEL,
    BOOLEAN,
    INTEGER,
    IRIREF,
    MAX_DOCUMENT_BYTES,
    STRING_LITERAL_QUOTE,
    build_term,
    decode_document,
    escape_string_literal,
    render_term,
    term_error,
    unescape,
)
from .terms import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
)

_INTEGER_RE = re.compile(INTEGER)
_LOCAL_SAFE_RE = re.compile(r"^$|^[A-Za-z0-9_]([A-Za-z0-9_.-]*[A-Za-z0-9_-])?$")
_PREFIX_NAME = r"[A-Za-z][A-Za-z0-9-]*"
_PREFIX_RE = re.compile(rf"^{_PREFIX_NAME}$")

# A word starts with a letter and runs on over letters, digits and '-'.
_WORD = r"[^\W\d_](?:[^\W_]|-)*"
_WORD_END = r"(?![^\W_]|-)"

# Whitespace and comments, in a form that matches them one way only, so a
# step that fails backtracks over them in linear time.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
# Only an ASCII prefix can be defined, so a step leaves any other prefixed
# name to the token parser. A local name stops before trailing dots, which end
# the statement; the lookahead keeps it as long as the tokenizer reads it.
_PNAME = rf"{_PREFIX_NAME}:(?:[\w.-]*[\w-])?(?![\w.-]*[\w-])"
_SUBJECT = rf"(?P<s>{IRIREF}|{BLANK_NODE_LABEL}|{_PNAME})"
_VERB = rf"(?P<p>{IRIREF}|{_PNAME}|a{_WORD_END})"
# An object and the terminator after it. `q`, `dt` and `lang` are the parts
# of a literal, whose '^^' or '@' may follow a gap; the lookahead tries that
# gap only before a '^^', '@' or comment, so a plain literal pays nothing for it.
_OBJECT = rf"""(?P<o>{IRIREF}
  | (?P<q>{STRING_LITERAL_QUOTE})(?:(?=[ \t\r\n]*[\^@\#]){_SKIP}
        (?:\^\^{_SKIP}(?P<dt>{IRIREF}|{_PNAME})|(?P<lang>@(?:[^\W_]|-)+)))?
  | {BLANK_NODE_LABEL} | {INTEGER}(?![0-9eE]|[.][0-9]) | {_PNAME} | {BOOLEAN}
){_SKIP}(?P<end>[.;,])"""


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
){_SKIP}{_OBJECT}
| (?:\A|(?<=\.)){_SKIP}(?:
    @prefix{_WORD_END}{_SKIP}(?P<name>{_PREFIX_NAME}):(?![\w.-]*[\w-])
        {_SKIP}(?P<ns>{IRIREF}){_SKIP}\.
  | \Z)
| (?<=;){_SKIP}\.""", re.X).match


@functools.cache
def _token_re() -> re.Pattern:
    """One token after any whitespace and comments. A local name stops before
    trailing dots, which end the statement. ERROR matches, empty, where no
    token starts. Compiled on first use: only a diagnosis reads tokens."""
    return re.compile(rf"""(?:[ \t\r\n]+|\#[^\n]*)*(?:
    (?P<IRIREF>{IRIREF})
  | (?!\"\"\")(?P<STRING>{STRING_LITERAL_QUOTE})
  | (?P<ATWORD>@(?:[^\W_]|-)+)
  | (?P<BLANK>{BLANK_NODE_LABEL})
  | (?P<INTEGER>{INTEGER})(?![0-9eE]|[.][0-9])
  | (?P<PNAME>{_WORD}):(?P<LOCAL>(?:[\w.-]*[\w-])?)
  | (?P<BOOLEAN>{BOOLEAN}){_WORD_END}
  | (?P<A>a){_WORD_END}
  | (?P<WORD>{_WORD})
  | (?P<PUNCT>[.;,]|\^\^)
  | (?P<EOF>\Z)
  | (?P<ERROR>)
)""", re.X)


def _token_error(text: str, pos: int) -> tuple[str, int]:
    """Message and offset for text[pos:], where no token matches."""
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
    return f"unexpected character {ch!r}", pos


class _Reread(Exception):
    """A statement that the step pattern or a term check does not take."""


class _Parser:
    """The step pattern's loop, and the token parser for the statements the
    step rejects, which diagnoses them.

    The token parser reads a statement in one loop over tokens (kind, value,
    local, offset), where `local` is the local part of a PNAME, whose value
    is the prefix. Its tokenizer runs one token ahead of it.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.prefixes: dict[str, Iri] = {}
        self.triples: set[Triple] = set()
        # Step term text -> term, cleared by each @prefix, since a prefixed
        # name can change meaning.
        self.memo: dict[str, Term] = {}
        # The parse's terms, one object each, keyed as `build_term` keys them
        # (the IRIs the grammar implies are the terms.py constants).
        self.interned: dict = {
            f"<{iri.value}>": iri for iri in (RDF_TYPE, XSD_STRING, XSD_INTEGER, XSD_BOOLEAN)}

    def parse(self) -> Graph:
        text, memo, add, term, step = (
            self.text, self.memo, self.triples.add, self._term, _step())
        # `start` is where the current statement starts, for a re-read
        pos = start = 0
        while True:
            try:
                m = step(text, pos)
                if m is None:
                    raise _Reread
                s, p, o, _, _, _, end, name, ns = m.groups()
                if o is not None:
                    if s:
                        subject = memo.get(s) or term(s, m)
                    if p:
                        predicate = memo.get(p) or term(p, m)
                    add(Triple(subject, predicate, memo.get(o) or term(o, m)))
                elif ns is not None:
                    self._bind(name, term(ns, m))
                elif m.end() == len(text):
                    return Graph(self.triples, self.prefixes)
                pos = m.end()
                if end != ";" and end != ",":
                    start = pos
            except _Reread:
                pos = start = self._reread(start)

    def _term(self, text: str, m: re.Match) -> Term:
        """The term a step reads as `text`, built and checked the first time
        the text appears since the last @prefix; `m` holds a literal's parts.
        IRIREFs, blank nodes and string literals go to `build_term`."""
        first = text[0]
        try:
            if first in '<"_':
                q, dt, lang = m.group("q", "dt", "lang")
                datatype = (self.memo.get(dt) or self._term(dt, m)) if first == '"' and dt else None
                term = build_term(text, self.interned, q, lang, datatype)
            elif first in "+-0123456789":
                term = self._intern(Literal(text, XSD_INTEGER))
            elif text in ("true", "false"):
                term = self._intern(Literal(text, XSD_BOOLEAN))
            elif text == "a":
                term = RDF_TYPE
            else:
                name, _, local = text.partition(":")
                ns = self.prefixes.get(name)
                if ns is None or not _LOCAL_SAFE_RE.match(local):
                    raise _Reread
                term = build_term(f"<{ns.value}{local}>", self.interned)
        except (InvalidIriError, ValueError):
            raise _Reread from None
        self.memo[text] = term
        return term

    def _intern(self, term: Term) -> Term:
        return self.interned.setdefault(term, term)

    def _bind(self, name: str, iri: Iri):
        self.prefixes[name] = iri
        self.memo.clear()

    def _reread(self, start: int) -> int:
        """Read the statement or directive at `start` with the token parser,
        which raises the error that a failed step leaves unplaced, or adds the
        statement's triples. Returns the offset after its closing '.'."""
        self.pos = start
        self.tok = self._scan()
        if self.tok[0] == "ATWORD":
            return self._directive()
        return self._statement()

    # -- the token parser

    def _where(self, offset: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, offset) + 1
        return line, offset - self.text.rfind("\n", 0, offset)

    def _fail(self, message: str, offset: int) -> ParseError:
        return ParseError(message, *self._where(offset))

    def _scan(self) -> tuple:
        m = _token_re().match(self.text, self.pos)
        kind = m.lastgroup
        start, self.pos = m.start(kind), m.end()
        value = m.group(kind)
        if kind == "IRIREF":
            value = value[1:-1]
        elif kind == "STRING":
            try:
                value = unescape(value[1:-1])
            except ValueError as e:
                message, offset = e.args
                raise self._fail(message, start + 1 + offset) from None
        elif kind == "BLANK":
            value = value[2:]
        elif kind == "ATWORD":
            value = value[1:]
        elif kind == "LOCAL":
            if not _LOCAL_SAFE_RE.match(value):
                raise self._fail(f"malformed local name {value!r}", self.pos)
            return "PNAME", m.group("PNAME"), value, m.start("PNAME")
        elif kind == "PUNCT":
            kind = value
        elif kind == "WORD":
            raise self._fail(f"unexpected token {value!r}", start)
        elif kind == "ERROR":
            raise self._fail(*_token_error(self.text, start))
        return kind, value, None, start

    def _next(self) -> tuple:
        tok = self.tok
        if tok[0] != "EOF":
            self.tok = self._scan()
        return tok

    def _directive(self) -> int:
        _, word, _, offset = self._next()
        if word == "base":
            raise self._fail("@base is not supported", offset)
        if word != "prefix":
            raise self._fail(f"unknown directive @{word}", offset)
        kind, name, local, offset = self._next()
        if kind != "PNAME" or local != "":
            raise self._fail("expected prefix name (like 'ex:') after @prefix", offset)
        if not _PREFIX_RE.match(name):
            raise self._fail(f"malformed prefix short-name {name!r}", offset)
        iri_tok = self._next()
        if iri_tok[0] != "IRIREF":
            raise self._fail("expected <IRI> in @prefix directive", iri_tok[3])
        dot = self._next()
        if dot[0] != ".":
            raise self._fail("expected '.' to close @prefix directive", dot[3])
        self._bind(name, self._iri(iri_tok))
        return dot[3] + 1

    def _iri(self, tok: tuple) -> Iri:
        """The IRI an IRIREF or PNAME token names."""
        kind, value, local, offset = tok
        if kind == "PNAME":
            if value not in self.prefixes:
                raise UndefinedPrefixError(value, *self._where(offset))
            value = self.prefixes[value].value + local
        try:
            return build_term(f"<{value}>", self.interned)
        except InvalidIriError as e:
            raise self._fail(str(e), offset) from None

    def _statement(self) -> int:
        subject, predicate = self._read("subject"), self._read("predicate")
        while True:
            self.triples.add(Triple(subject, predicate, self._read("object")))
            punct = self.tok[0]
            if punct != "," and punct != ";":
                break
            self._next()
            if punct == ";":
                if self.tok[0] == ".":  # a trailing ';' before the closing '.'
                    break
                predicate = self._read("predicate")
        dot = self._next()
        if dot[0] != ".":
            raise self._fail("expected '.' at end of statement", dot[3])
        return dot[3] + 1

    def _read(self, role: str) -> Term:
        """The next token as the statement's subject, predicate or object,
        or that role's diagnostic."""
        tok = self._next()
        kind, value, _, offset = tok
        if kind == "IRIREF" or kind == "PNAME":
            return self._iri(tok)
        if role == "predicate":
            if kind == "A":
                return RDF_TYPE
        elif kind == "BLANK":
            return self._intern(BlankNode(value))
        elif kind in ("STRING", "INTEGER", "BOOLEAN"):
            if role == "subject":
                raise self._fail("a literal cannot be the subject of a triple", offset)
            if kind == "STRING":
                return self._literal_tail(value)
            return self._intern(Literal(value, XSD_INTEGER if kind == "INTEGER" else XSD_BOOLEAN))
        if kind == "EOF" and role != "subject":
            raise self._fail(f"unexpected end of input (expected {role})", offset)
        raise self._fail(f"expected {role}, found {value!r}", offset)

    def _literal_tail(self, lexical: str) -> Literal:
        kind, value, _, offset = self.tok
        if kind == "^^":
            self._next()
            dt_tok = self._next()
            if dt_tok[0] not in ("IRIREF", "PNAME"):
                raise self._fail("expected datatype IRI after '^^'", dt_tok[3])
            return self._intern(Literal(lexical, self._iri(dt_tok)))
        if kind == "ATWORD":
            self._next()
            try:
                lit = Literal(lexical, lang=value)
            except ValueError as e:
                raise self._fail(str(e), offset) from None
            return self._intern(lit)
        return self._intern(Literal(lexical))


def parse_turtle(doc: Union[str, bytes]) -> Graph:
    """Parse a Turtle-subset document into a Graph.

    Accepts str or UTF-8 bytes; documents over 64 MiB are refused. All
    failures raise ParseError (or a subclass) with 1-based line/column,
    UndefinedPrefixError, or InvalidIriError; never anything unstructured.

    The graph holds one object per distinct term: equal terms are the same
    object, however they were spelled (`<...>` or a prefixed name, `a` or
    `rdf:type`, `1` or `"1"^^xsd:integer`). Each term is built and checked
    the first time it appears. The memo lives for this call only, so two
    parses share no term object beyond the terms.py constants the grammar
    implies (`rdf:type` and the datatypes of bare literals).
    """
    return _Parser(decode_document(doc)).parse()


# ---------------------------------------------------------------------------
# canonical serialization


def _abbreviate(iri: Iri, prefixes: dict[str, Iri]) -> str | None:
    """Prefixed-name rendering, or None when no prefix yields a safe local;
    the longest namespace wins, then the short-name that sorts first."""
    value = iri.value
    fits = [(-len(ns.value), name) for name, ns in prefixes.items()
            if value.startswith(ns.value) and _LOCAL_SAFE_RE.match(value[len(ns.value):])]
    if not fits:
        return None
    size, name = min(fits)
    return f"{name}:{value[-size:]}"


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
    by short-name, then one block per subject in the (s, p, o) order that the
    graph keeps (`Graph.sorted_triples`), LF endings. One pass over that order
    starts a block or a predicate where the subject's or predicate's rank
    changes. Raises BlankNodePresentError if the graph holds blank nodes.
    """
    if g.has_blank_nodes():
        raise BlankNodePresentError(
            "canonical Turtle is defined for skolemized graphs; call skolemize() first")
    prefixes, ranks = g.prefixes, g.term_ranks()
    abbreviate = functools.cache(lambda iri: _abbreviate(iri, prefixes))
    # rank -> text, so each distinct term renders once; a predicate's text
    # has a memo of its own, as rdf:type is `a` only there
    forms, verbs, chunks, last_s, last_p = {}, {}, [], None, None
    for t in g.sorted_triples(("subject", "predicate", "object")):
        s, p, o = ranks[id(t.subject)], ranks[id(t.predicate)], ranks[id(t.object)]
        obj = forms.get(o) or forms.setdefault(o, _render_term(t.object, abbreviate))
        if s == last_s and p == last_p:
            chunks.append(f", {obj}")
            continue
        verb = verbs.get(p) or verbs.setdefault(p, "a" if t.predicate == RDF_TYPE else (
            forms.get(p) or forms.setdefault(p, _render_term(t.predicate, abbreviate))))
        if s == last_s:
            chunks.append(f" ;\n    {verb} {obj}")
        else:
            subject = forms.get(s) or forms.setdefault(s, _render_term(t.subject, abbreviate))
            chunks.append(f" .\n\n{subject} {verb} {obj}")
        last_s, last_p = s, p
    # the first block has no block before it to close
    body = "".join(chunks)[4:] + " ." if chunks else ""
    text = "\n\n".join(piece for piece in (_prefix_lines(prefixes), body) if piece)
    return text + "\n" if text else ""
