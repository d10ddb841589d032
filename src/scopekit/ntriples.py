"""N-Triples parser and canonical serializer, and the term syntax it shares.

Line-oriented grammar: one triple per non-blank, non-comment line, full IRIs
only, no prefix machinery. Each line is read with one compiled pattern, whose
subject, predicate, object and closing '.' are each optional only once the
parts before them have matched. So every line matches, and the first part the
match leaves unset is where a faulty line goes wrong; a term that does not
match is diagnosed where it starts, by a few checks.

Turtle and the query text build on this grammar. They take from here the term
sub-patterns, `unescape`, `escape_string_literal`, `decode_document`,
`term_error` and the N-Triples rendering of terms, and build every term but a
variable with `build_term` or, for `a`, booleans, integers and prefixed names,
`build_short_form`: so both read a local name by one rule, LOCAL_NAME_RE,
which the Turtle writer abbreviates under, and a parse gets one object per
term. N-Triples and Turtle read a statement's terms with one function,
`read_term`, which places a term's fault by one rule, so both readers name a
faulty term alike. String literals accept the escapes \\t \\b \\n \\r \\f
\\" \\' \\\\ (ECHAR), \\uXXXX and \\UXXXXXXXX (UCHAR). A UCHAR must name a
Unicode scalar value: an escaped surrogate (U+D800 to U+DFFF) or a number
above U+10FFFF is a parse error, so every parsed literal is valid UTF-8 text.
`read_text_file` reads the other UTF-8 inputs (schema, catalog, query and IoC
files) and reports undecodable bytes as a ParseError too.

The canonical serializer writes one triple per line with lines sorted
bytewise, so output is stable across runs and insertion orders. It sorts its
lines, not the graph's kept order, which ranks terms rather than bytes.
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable

from .errors import (BlankNodePresentError, DocumentTooLargeError, InvalidIriError, ParseError,
                     UndefinedPrefixError)
from .terms import (
    BLANK_LABEL_RE,
    KNOWN_DATATYPES,
    PREFIX_NAME_RE,
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

MAX_DOCUMENT_BYTES = 64 * 1024 * 1024

# Term sub-patterns. None holds a capturing group, so each grammar names the
# groups it needs. STRING_CHARS is the inside of STRING_LITERAL_QUOTE; its
# \U form stops at 0010FFFF.
IRIREF = r"<[^>\x00-\x20]*>"
STRING_CHARS = (r'[^"\\\n]*(?:\\(?:[tbnrf"\'\\]|u[0-9A-Fa-f]{4}'
                r'|U(?:000[0-9A-Fa-f]|0010)[0-9A-Fa-f]{4})[^"\\\n]*)*')
STRING_LITERAL_QUOTE = f'"{STRING_CHARS}"'
BLANK_NODE_LABEL = rf"_:{BLANK_LABEL_RE.pattern}(?!\w)"
LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
INTEGER = r"[+-]?[0-9]+"
BOOLEAN = r"true|false"
# Turtle's short forms: a prefix name that @prefix may define, and the one rule
# for a local name, which the Turtle writer also abbreviates under.
PREFIX_NAME = PREFIX_NAME_RE.pattern
LOCAL_NAME_RE = re.compile(r"^$|^[A-Za-z0-9_]([A-Za-z0-9_.-]*[A-Za-z0-9_-])?$")

# The terms.py constants every parse starts from, keyed as `build_term` keys an
# IRI: rdf:type and the datatypes a schema range may name. Each reader starts
# from a copy, so a parsed xsd:dateTime is `terms.XSD_DATETIME`.
SHARED_TERMS = {f"<{iri.value}>": iri for iri in (RDF_TYPE, *KNOWN_DATATYPES)}

_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")
_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\r"): "\\r",
            ord("\t"): "\\t"}
_ESCAPES.update({c: f"\\u{c:04X}" for c in range(0x20) if c not in _ESCAPES})

# One line: blanks, then a subject, a predicate, an object and the '.' that
# ends the triple, each tried only once the parts before it have matched, with
# the blanks after each. An object literal's suffix is in group "o".
_LINE_RE = re.compile(rf"""[ \t]*(?:
  (?P<s>{IRIREF}|{BLANK_NODE_LABEL})[ \t]*(?:
  (?P<p>{IRIREF})[ \t]*(?:
  (?P<o>{IRIREF}|{BLANK_NODE_LABEL}
     |(?P<q>{STRING_LITERAL_QUOTE})
      (?:\^\^(?P<dt>{IRIREF})|(?P<lang>@{LANGTAG})(?![^\W_]|-))?)[ \t]*
  (?P<dot>\.[ \t]*)?)?)?)?""", re.X)
# Where an IRI, a blank node label or a string literal stops matching.
_TERM_PREFIX_RE = re.compile(rf'<[^>\x00-\x20]*|"{STRING_CHARS}|_:?\w*')


def unescape(chars: str) -> str:
    """Decode the ECHAR and UCHAR escapes in text that matches STRING_CHARS.

    Raises ValueError for a UCHAR that names a surrogate; its args are the
    message and the offset of the escape in `chars`.
    """
    if "\\" not in chars:
        return chars

    def decode(m: re.Match) -> str:
        digits = m.group(1) or m.group(2)
        if digits is None:
            return _ECHARS[m.group(3)]
        code = int(digits, 16)
        if 0xD800 <= code <= 0xDFFF:
            raise ValueError(f"escape {m.group()} is not a Unicode scalar value", m.start())
        return chr(code)

    return _ESCAPE_RE.sub(decode, chars)


def escape_string_literal(s: str) -> str:
    """The inside of a quoted literal: backslash, quote, CR, LF and TAB as
    ECHARs, other C0 controls as \\uXXXX."""
    return s.translate(_ESCAPES)


def read_text_file(path: str | os.PathLike) -> str:
    """Text of a UTF-8 file, newlines translated as by open(); undecodable
    bytes raise a ParseError that names the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not valid UTF-8: {e.reason}") from None


def decode_document(doc: str | bytes) -> str:
    """Document text from str or UTF-8 bytes; over 64 MiB is refused."""
    if isinstance(doc, bytes):
        if len(doc) > MAX_DOCUMENT_BYTES:
            raise DocumentTooLargeError(
                f"document is {len(doc)} bytes; limit is {MAX_DOCUMENT_BYTES}")
        try:
            return doc.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"document is not valid UTF-8: {e.reason}") from None
    try:  # a str longer than the limit is refused before it is encoded
        too_large = len(doc) > MAX_DOCUMENT_BYTES or len(doc.encode("utf-8")) > MAX_DOCUMENT_BYTES
    except UnicodeEncodeError as e:
        raise ParseError(f"document is not valid Unicode text: {e.reason}") from None
    if too_large:
        raise DocumentTooLargeError(f"document exceeds {MAX_DOCUMENT_BYTES} bytes")
    return doc


def term_error(text: str, pos: int) -> tuple[str, int]:
    """Message and offset of the first fault in the IRI, blank node label or
    string literal that starts at text[pos] but does not match its pattern."""
    end = _TERM_PREFIX_RE.match(text, pos).end()
    start = text[pos]
    if start == "_":
        if not text.startswith("_:", pos):
            return "expected ':' after '_' in blank node label", pos
        return f"malformed blank node label: {text[pos + 2:end]!r}", pos
    if end == len(text):
        return ("unterminated IRI (missing '>')" if start == "<"
                else "unterminated string literal"), pos
    if start == "<":
        return "whitespace or control character inside IRI", end
    if text[end] == "\n":
        return "newline inside string literal (use \\n)", end
    esc = text[end + 1:end + 2]
    if esc not in ("u", "U"):
        return f"unknown escape \\{esc}", end
    if esc == "U" and re.fullmatch("[0-9A-Fa-f]{8}", text[end + 2:end + 10]):
        return "escape is not a valid code point", end
    return f"malformed \\{esc} escape", end


def build_term(text: str, interned: dict, q: str | None = None, lang: str | None = None,
               datatype: Callable[[], Iri] | None = None) -> Term:
    """The parse's one object for the IRIREF, blank node label or string
    literal `text`; a literal comes as its groups `q` and `lang` (with quotes
    and '@') and, after a '^^', a function that builds its datatype once the
    string has decoded, so a fault in the string comes first. `interned` holds
    IRIs under their IRIREF text, other terms under themselves, so "x" and
    "x"^^<...#string>, or @EN and @en, give one object. Raises what `datatype`
    raises, InvalidIriError, or ValueError, which for an escape also holds its
    offset inside the quotes (see `unescape`)."""
    if text[0] == "<":
        return interned.get(text) or interned.setdefault(text, Iri(text[1:-1]))
    term = (BlankNode(text[2:]) if text[0] == "_"
            else Literal(unescape(q[1:-1]), datatype and datatype(), lang and lang[1:]))
    return interned.setdefault(term, term)


def build_short_form(text: str, interned: dict, prefixes: dict[str, Iri]) -> Term:
    """The parse's one object for the Turtle short form `text` (`a`, a boolean,
    an integer or a prefixed name under `prefixes`), interned as `build_term`
    interns. Raises ValueError for a local name that LOCAL_NAME_RE does not
    match, then KeyError(prefix) for an undefined prefix; the caller places both."""
    if text == "a":
        return RDF_TYPE
    if text in ("true", "false") or text[0] in "+-0123456789":
        term = Literal(text, XSD_BOOLEAN if text[0] in "tf" else XSD_INTEGER)
        return interned.setdefault(term, term)
    name, _, local = text.partition(":")
    if not LOCAL_NAME_RE.match(local):
        raise ValueError(f"malformed local name {local!r}")
    return build_term(f"<{prefixes[name].value}{local}>", interned)


def read_term(m: re.Match, group: str, memo: dict, interned: dict,
              prefixes: dict[str, Iri] | None, fail: Callable) -> Term:
    """The term in `group` of the statement match `m`, built the first time
    its text appears by `build_term`, or by `build_short_form` under
    `prefixes`; `memo` then hands out the same object under that text. A
    literal takes its parts from groups q, dt and lang, and reads its datatype
    by this function. A term that does not build raises the error that
    fail(message, offset, error) builds: an IRI's fault or an undefined prefix
    where the term starts, an escape at its offset inside the quotes, a local
    name after the name, a language tag at its '@'."""
    text, start = m.group(group), m.start(group)
    try:
        if text[0] == '"':
            q, dt, lang = m.group("q", "dt", "lang")
            term = build_term(text, interned, q, lang, dt and (
                lambda: memo.get(dt) or read_term(m, "dt", memo, interned, prefixes, fail)))
        elif text[0] in "<_":
            term = build_term(text, interned)
        else:
            term = build_short_form(text, interned, prefixes)
    except (KeyError, InvalidIriError) as e:
        error = UndefinedPrefixError if isinstance(e, KeyError) else ParseError
        raise fail(e.args[0], start, error) from None
    except ValueError as e:
        if len(e.args) == 2:
            raise fail(e.args[0], start + 1 + e.args[1]) from None
        raise fail(str(e), m.start("lang") if text[0] == '"' else m.end(group)) from None
    memo[text] = term
    return term


def _term(m: re.Match, role: str, lineno: int, memo: dict) -> Term:
    """The term in group `role` of the line match `m`; memo is both its memo
    and build_term's table."""
    return read_term(m, role, memo, memo, None, lambda message, offset, error=ParseError:
                     error(message, lineno, offset + 1))


def _line_error(line: str, lineno: int, m: re.Match, memo: dict) -> ParseError:
    """The error for a line that the line match `m` reads only in part: a
    fault in a term it read comes first, then the first part it left unset."""
    s, p, o = m.group("s", "p", "o")
    for role, text in (("s", s), ("p", p), ("o", o)):
        if text is not None and text not in memo:
            _term(m, role, lineno, memo)
    pos = m.end()
    found = line[pos:pos + 1]
    if o is not None:
        end = m.end("o")
        if m.end("q") == end and line.startswith(("^^", "@"), end):
            return _suffix_error(line, lineno, end)
        message = "expected '.' at end of triple"
    elif s is None and found == '"':
        message = "a literal cannot be the subject of a triple"
    elif s is not None and p is None and found != "<":
        message = "expected predicate IRI"
    elif found in ("<", "_", '"'):
        message, pos = term_error(line, pos)
    else:
        message = f"expected {'subject' if s is None else 'object'}, found {found!r}"
    return ParseError(message, lineno, pos + 1)


def _suffix_error(line: str, lineno: int, pos: int) -> ParseError:
    """The error for the malformed '^^' or '@' suffix at line[pos]."""
    if line.startswith("^^", pos):
        pos += 2
        if not line.startswith("<", pos):
            return ParseError("expected <IRI> after '^^'", lineno, pos + 1)
        message, pos = term_error(line, pos)
    else:
        tag = re.match(r"(?:[^\W_]|-)*", line[pos + 1:]).group()
        message = f"malformed language tag {tag!r}"
    return ParseError(message, lineno, pos + 1)


def parse_ntriples(doc: str | bytes) -> Graph:
    """Parse an N-Triples document. Blank lines and `#` comment lines skip.

    The graph holds one object per distinct term: equal terms are the same
    object, however they were spelled (`"x"` or `"x"^^<...#string>`, `@EN`
    or `@en`). Each term is built and checked the first time its text
    appears. The memo lives for this call only and starts from a copy of
    SHARED_TERMS, so two parses share no term object beyond those constants:
    `rdf:type` and the six datatypes a schema range may name.
    """
    text = decode_document(doc)
    triples: set[Triple] = set()
    # term text -> term, and build_term's table (literals and blank nodes
    # keyed by themselves); text keys start with '<', '_' or '"'.
    memo: dict = dict(SHARED_TERMS)
    match, add = _LINE_RE.match, triples.add
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        m = match(line)
        s, p, o, _, _, _, dot = m.groups()
        if dot is not None:
            add(Triple(memo.get(s) or _term(m, "s", lineno, memo),
                       memo.get(p) or _term(m, "p", lineno, memo),
                       memo.get(o) or _term(m, "o", lineno, memo)))
            end = m.end()
            if end < len(line) and line[end] != "#":
                raise ParseError("unexpected trailing content after '.'", lineno, end + 1)
        elif s is not None or line[m.end():m.end() + 1] not in ("", "#"):
            raise _line_error(line, lineno, m, memo)
    return Graph._of(frozenset(triples), {})


def render_term(term: Term) -> str:
    """A term in N-Triples syntax."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    lit: Literal = term
    body = f'"{escape_string_literal(lit.lexical)}"'
    if lit.lang is not None:
        return f"{body}@{lit.lang}"
    if lit.datatype == XSD_STRING:
        return body
    return f"{body}^^<{lit.datatype.value}>"


def render_triple(t: Triple) -> str:
    """A triple as one N-Triples line, without the line end."""
    return f"{render_term(t.subject)} {render_term(t.predicate)} {render_term(t.object)} ."


def serialize_ntriples_canonical(g: Graph) -> str:
    """One triple per line, full IRIs, lines sorted bytewise, LF endings."""
    if g.has_blank_nodes():
        raise BlankNodePresentError(
            "canonical N-Triples is defined for skolemized graphs; call skolemize() first")
    lines = sorted(render_triple(t) for t in g)
    return "\n".join(lines) + "\n" if lines else ""

