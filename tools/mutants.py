#!/usr/bin/env python3
"""Check that the tests kill every mutant of a fixed table.

    python tools/mutants.py

Each entry of MUTANTS names a module of src/scopekit, a text that occurs in
it exactly once, the text to put in its place, and the pytest selection that
must fail on the result. For each entry, src/ is copied into a temporary
directory (removed on exit), the change is made in the copy, and the
selection runs against the copy with a fixed hash seed, so a verdict can be
reproduced; the checkout is not touched. A mutant is killed when pytest
reports failing tests (exit 1). The exit status is 1 when a mutant survives,
when pytest ends any other way, or when an entry's old text no longer occurs
once in its module, and 0 when every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# add_action's check of its performer, and its write
_BY_CHECK = '        if by is not None:\n            self._require_node(by, "performer")\n'
_ACTION_WRITE = (
    "self._write(self._new_node(CLS_INVESTIGATIVE_ACTION, None, (\n"
    "            (PROP_DESCRIPTION, Literal(description)),"
    " (PROP_START_TIME, Literal(at, XSD_DATETIME)),\n"
    "            (PROP_RELATED_INCIDENT, self.case_iri),\n"
    "            (PROP_LOCATION_NOTE, Literal(location) if location else None),\n"
    "            (PROP_PERFORMED_BY, by))))\n")

# the test that compares the filter regexes refused with those re warns about
_REGEX_TEST = ("tests/test_query.py::TestVariableAndRegexValidation::"
               "test_rejects_exactly_what_re_warns_about_or_cannot_compile")

# (module, old text, new text, pytest selection)
MUTANTS = [
    # a UCHAR that names a surrogate decodes
    ("ntriples.py",
     "        if 0xD800 <= code <= 0xDFFF:\n"
     '            raise ValueError(f"escape {m.group()} is not a Unicode scalar value", m.start())\n',
     "", ["tests/test_parse_errors.py", "-k", "surrogate"]),
    # the Markdown report writes &, < and > as they are
    ("report.py", r'_UNSAFE_RE = re.compile("[\x00-\x1f\x7f&<>',
     r'_UNSAFE_RE = re.compile("[\x00-\x1f\x7f', ["tests/test_report.py::TestInertValues"]),
    # a custody sequence that is not an xsd:integer lexical form reaches int()
    ("validation.py", "if text is not None and INTEGER_LEX_RE.fullmatch(text) else None",
     "if text is not None else None", ["tests/test_cli.py::TestCustodySequence"]),
    # a defanged domain is stored defanged
    ("casekit.py", 'lambda v: v.replace("[.]", ".")', "lambda v: v",
     ["tests/test_casekit.py::TestIocs"]),
    # a filter regex with counted repetition compiles
    ("query.py",
     '        if ch in "{}":\n'
     '            raise UnsupportedRegexError("counted repetition {m,n} is not supported in filters")\n',
     "", ["tests/test_query.py::TestVariableAndRegexValidation"]),
    # building a triple calls each term's __hash__
    ("terms.py", "hash((subject._hash, predicate._hash, object._hash))",
     "hash((subject, predicate, object))", ["tests/test_terms.py::TestHashInputs"]),
    # diff lists its lines in set order
    ("cli.py", "sorted(map(render_triple, ts))", "list(map(render_triple, ts))",
     ["tests/test_cli.py::TestDiff"]),
    # a domain with a tab, a NUL or a line break imports
    ("casekit.py", 'lambda v: "." in v and " " not in v and v.isprintable()',
     'lambda v: "." in v and " " not in v', ["tests/test_casekit.py::TestIocs"]),
    # an add leaves a built column as it was
    ("terms.py",
     "            if columns and (column := columns.get(t.predicate)) is not None:\n"
     "                column.setdefault(t.subject, []).append(t.object)\n",
     "", ["tests/test_casekit.py::TestOneIndex"]),
    # R02 keeps one domain verdict per property, whatever the subject's shape
    ("validation.py",
     "            wrong = outside.get(shape)\n"
     "            if wrong is None:\n"
     "                wrong = outside[shape] =",
     "            wrong = outside.get(p.iri)\n"
     "            if wrong is None:\n"
     "                wrong = outside[p.iri] =", ["tests/test_validation.py"]),
    # first_literal reads whichever value its column lists first
    ("terms.py", "return min(found, key=term_sort_key).lexical", "return found[0].lexical",
     ["tests/test_casekit.py::TestOneIndex::test_first_literal_is_the_canonical_first"]),
    # a redefined prefix leaves the names built under the old one in the memo
    ("turtle.py", "        self.prefixes[name] = iri\n        self.memo.clear()\n",
     "        self.prefixes[name] = iri\n",
     ["tests/test_turtle.py::TestTermInterning::test_redefined_prefix_gives_a_new_iri"]),
    # a literal where a subject should be is named as any other token
    ("turtle.py",
     '        if expected == "subject" and _parts()["object"](self.text, at):\n'
     '            expected = "a literal cannot be the subject of a triple"\n'
     "        elif expected in _ROLES:\n",
     "        if expected in _ROLES:\n", ["tests/test_parse_errors.py"]),
    # the walk looks for a missing part before it builds the terms it has matched
    ("turtle.py",
     "                self._unexpected(self._skip(m.end()), role)\n"
     "            self._term(m, role[0])\n",
     "                self._unexpected(self._skip(m.end()), role)\n"
     '        for role in _ROLES[".;,".index(after):]:\n'
     "            self._term(m, role[0])\n", ["tests/test_parse_errors.py"]),
    # a filter keeps the rows whose term is the one object it searched, not an equal one
    ("query.py",
     "        passed = {t for t in set(cells) if rx.search(_filter_text(t))}\n"
     "        rows = tuple(compress(rows, map(passed.__contains__, cells)))\n",
     "        passed = {id(t) for t in set(cells) if rx.search(_filter_text(t))}\n"
     "        rows = tuple(compress(rows, map(passed.__contains__, map(id, cells))))\n",
     ["tests/test_query.py::TestFullScanDifferential::test_random_mixed_graphs"]),
    # add_action writes its triples before it checks its performer
    ("casekit.py", _BY_CHECK + "        return " + _ACTION_WRITE,
     "        node = " + _ACTION_WRITE + _BY_CHECK + "        return node\n",
     ["tests/test_casekit.py::TestAtomicBuilders"]),
    # the prefix table tries a stem's shortest namespace first
    ("turtle.py", "key=lambda item: (-len(item[1].value), item[0])",
     "key=lambda item: (len(item[1].value), item[0])", ["tests/test_turtle.py::TestPrefixTable"]),
    # mint leaves the UUID's variant bits as drawn
    ("casekit.py", "~(0xF000 << 64 | 0xC000 << 48), 4 << 76 | 0x8000 << 48",
     "~(0xF000 << 64), 4 << 76", ["tests/test_casekit.py::TestAtomicBuilders"]),
    # a copy of a graph shares its row tables instead of building its own
    ("terms.py", "        return Graph, (self._triples, self._prefixes)\n",
     '        return Graph, (self._triples, self._prefixes), (None, {"_rows": self._rows})\n',
     ["tests/test_query.py::TestFullScanDifferential::test_copies_of_a_graph_with_kept_orders"]),
    # an N-Triples literal's '^^' or '@' is looked for after the blanks that follow it
    ("ntriples.py", 'line.startswith(("^^", "@"), end)', 'line.startswith(("^^", "@"), pos)',
     ["tests/test_parse_errors.py::test_ntriples_errors"]),
    # an N-Triples line that stops short names the missing part before a fault in a term it read
    ("ntriples.py",
     '    for role, text in (("s", s), ("p", p), ("o", o)):\n'
     "        if text is not None and text not in memo:\n"
     "            _term(m, role, lineno, memo)\n",
     "", ["tests/test_parse_errors.py::test_ntriples_errors"]),
    # content after an N-Triples '.' is refused before the line's terms are built
    ("ntriples.py",
     "        if dot is not None:\n"
     "            add(Triple(",
     "        if dot is not None:\n"
     '            if m.end() < len(line) and line[m.end()] != "#":\n'
     "                raise ParseError(\"unexpected trailing content after '.'\","
     " lineno, m.end() + 1)\n"
     "            add(Triple(", ["tests/test_parse_errors.py::test_ntriples_errors"]),
    # no blanks may follow an N-Triples '.'
    ("ntriples.py", r"(?P<dot>\.[ \t]*)?", r"(?P<dot>\.)?",
     ["tests/test_parse_errors.py::test_ntriples_errors"]),
    # a query line says "expected a term" for every term it could not read
    ("query.py", '_missing(line, m.end(), "expected a term")', '"expected a term"',
     ["tests/test_parse_errors.py::test_query_words_a_term_fault_as_ntriples_does"]),
    # import_iocs writes each row as it reads it
    ("casekit.py",
     "            batch += self._new_node(cls, None, (\n"
     "                (prop, Literal(value)), (PROP_RELATED_INCIDENT, self.case_iri),\n"
     "                (PROP_IOC_SOURCE, Literal(source) if source else None)))\n",
     "            self.add_all(self._new_node(cls, None, (\n"
     "                (prop, Literal(value)), (PROP_RELATED_INCIDENT, self.case_iri),\n"
     "                (PROP_IOC_SOURCE, Literal(source) if source else None))))\n",
     ["tests/test_casekit.py::TestIocs::test_a_malformed_row_writes_no_row"]),
    # import_iocs sets its row errors as it reads the rows, before a malformed row raises
    ("casekit.py", "                errors.append(f\"row {rownum}: unknown IoC kind {kind!r}\")",
     "                self.ioc_import_errors = errors\n"
     "                errors.append(f\"row {rownum}: unknown IoC kind {kind!r}\")",
     ["tests/test_casekit.py::TestIocs"]),
    # term equality ignores a field after the second (Literal.lang, Triple.object)
    ("terms.py", "cls._key = attrgetter(*cls.__slots__)",
     "cls._key = attrgetter(*cls.__slots__[:2])", ["tests/test_terms.py::TestTermContract"]),
    # a short form's local name is not checked, so `ex:a/b` names an IRI
    ("ntriples.py",
     "    if not LOCAL_NAME_RE.match(local):\n"
     '        raise ValueError(f"malformed local name {local!r}")\n',
     "", ["tests/test_parse_errors.py"]),
    # the query text reads an IRI as any text up to '>', blanks included
    ("query.py", r'_NOT_LITERAL = rf"\?[^ \t]*|{IRIREF}|{_WORD}"',
     r'_NOT_LITERAL = rf"\?[^ \t]*|<[^>]*>|{_WORD}"',
     ["tests/test_parse_errors.py::test_query_words_a_term_fault_as_ntriples_does"]),
    # a record takes assignments to its fields
    ("validation.py", '    __slots__ = ("severity", "code", "subject", "message")\n',
     '    __slots__ = ("severity", "code", "subject", "message")\n'
     "    __setattr__ = object.__setattr__\n", ["tests/test_terms.py::TestRecordContract"]),
    # the Turtle walk reads the token after a term that does not build, and names a fault there
    ("turtle.py",
     "        return read_term(m, group, self.memo, self.interned, self.prefixes, self._fail)\n",
     "        try:\n"
     "            return read_term(m, group, self.memo, self.interned, self.prefixes, self._fail)\n"
     "        except ParseError:\n"
     "            self._token(self._skip(m.end(group)))\n"
     "            raise\n",
     ["tests/test_parse_errors.py::test_turtle_errors"]),
    # the term reader places a local name's fault where the term starts
    ("ntriples.py", """m.start("lang") if text[0] == '"' else m.end(group)""",
     """m.start("lang") if text[0] == '"' else start""", ["tests/test_parse_errors.py"]),
    # the term reader places an escape's fault without counting the opening quote
    ("ntriples.py", "fail(e.args[0], start + 1 + e.args[1])", "fail(e.args[0], start + e.args[1])",
     ["tests/test_parse_errors.py"]),
    # the schema loader takes subClassOf on an undeclared class
    ("schema.py",
     "        if t.subject not in class_iris:\n"
     "            raise DanglingReferenceError(\n"
     '                f"subClassOf asserted on undeclared class {t.subject}")\n',
     "        pass\n", ["tests/test_parse_errors.py::test_schema_errors"]),
    # the catalog loader takes a second row for one indicator clause
    ("catalog.py",
     "        if key in seen_clauses:\n"
     "            raise CatalogFormatError(\n"
     '                f"indicators.csv: row {lineno}: duplicate clause {standard} {clause}")\n',
     "", ["tests/test_parse_errors.py::test_catalog_errors"]),
    # a sort on ranks leaves its least significant cell unsorted
    ("terms.py", "reversed(range(len(rows[0]) if rows else 0))",
     "reversed(range(len(rows[0]) - 1 if rows else 0))",
     ["tests/test_terms.py::TestGraph::test_sorted_rows_are_kept_per_order"]),
    # the catalog loader checks a row's technique references in set order
    ("catalog.py", '        related = [t for t in (p.strip() for p in tids.split(";")) if t]\n',
     '        related = frozenset(t for t in (p.strip() for p in tids.split(";")) if t)\n',
     ["tests/test_parse_errors.py::"
      "test_catalog_names_the_first_bad_reference_under_every_hash_seed"]),
    # the query text names a glued blank node label by its word characters only
    ("query.py",
     '    if word.startswith("_:"):\n'
     '        return f"malformed blank node label: {word[2:]!r}"\n',
     "", ["tests/test_parse_errors.py::test_query_errors"]),
    # an N-Triples parse starts from xsd:string alone, not the shared constants
    ("ntriples.py", "    memo: dict = dict(SHARED_TERMS)\n",
     '    memo: dict = {f"<{XSD_STRING.value}>": XSD_STRING}\n',
     ["tests/test_ntriples.py::TestTermInterning::test_parses_share_only_module_constants"]),
    # an -o target is written in place, so a failed write does not leave it as it was
    ("cli.py", '    part = f"{target}.{os.getpid()}.part"\n', "    part = target\n",
     ["tests/test_cli.py::TestFailedWrite"]),
    # a schema directory's dot-files are skipped
    ("schema.py", 'if name.endswith(".ttl"))',
     'if name.endswith(".ttl") and not name.startswith("."))',
     ["tests/test_parse_errors.py::test_schema_dir_reads_a_dot_file"]),
    # a manifest line ends at every character str.splitlines() breaks at
    ("schema.py", 'read_text_file(path).split("\\n")', "read_text_file(path).splitlines()",
     ["tests/test_parse_errors.py::test_manifest_version_keeps_a_line_separator"]),
    # every finding is an error, whatever its rule's registered severity
    ("validation.py", "Finding(severity, code, skolemize_term(node), message)",
     "Finding(ERROR, code, skolemize_term(node), message)", ["tests/test_validation.py"]),
    # a case's grown copy shares the lists of the graph it grew from
    ("terms.py", "({k: v.copy() for k, v in lists.items()}", "(dict(lists)",
     ["tests/test_casekit.py::TestOneIndex"]),
    # a case hands out the graph it grows without freezing it
    ("casekit.py", "            self._graph._freeze()\n", "",
     ["tests/test_casekit.py::TestSnapshot::test_each_read_is_a_frozen_value"]),
    # instances_under reads an undeclared root's subclasses
    ("schema.py", "        if root not in self.classes:\n            return {}\n", "",
     ["tests/test_report.py::TestUndeclaredRoot"]),
    # a ']' right after a class's opening '[' closes it
    ("query.py", '        if ch == "]" and members:\n', '        if ch == "]":\n', [_REGEX_TEST]),
    # a doubled '-', '&', '~' or '|' in a class is taken
    ("query.py",
     "            if members and ch in _SET_OPERATIONS and text[i + 1:i + 2] == ch:\n"
     "                raise UnsupportedRegexError(\n"
     '                    f"ambiguous filter regex: Possible set {_SET_OPERATIONS[ch]}'
     ' at position {i}")\n',
     "", [_REGEX_TEST]),
    # a range that ends at '-' is taken
    ("query.py",
     '        if ch == "-":\n'
     "            raise UnsupportedRegexError(\n"
     '                f"ambiguous filter regex: Possible set difference at position {i}")\n',
     "", [_REGEX_TEST]),
    # a '[' right after a class's opening '[' is taken
    ("query.py",
     '    if text[i + 1:i + 2] == "[":\n'
     "        raise UnsupportedRegexError(\n"
     '            f"ambiguous filter regex: Possible nested set at position {i + 1}")\n',
     "", [_REGEX_TEST]),
    # a '-' before a class's closing ']' starts a range
    ("query.py", '        if ch == "]":\n            return i + 2\n', "", [_REGEX_TEST]),
]


def run_mutant(work: Path, module: str, old: str, new: str, selection: list[str]) -> str:
    """The verdict on one mutant: "killed", "SURVIVED", or what went wrong."""
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "scopekit" / module
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"STALE: the old text occurs {text.count(old)} times"
    path.write_text(text.replace(old, new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0",
           "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          *selection], cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=600)
    if run.returncode == 1:
        return "killed"
    if run.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}"


def main() -> int:
    began = time.perf_counter()
    faults = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for module, old, new, selection in MUTANTS:
            started = time.perf_counter()
            verdict = run_mutant(Path(tmp), module, old, new, selection)
            faults += verdict != "killed"
            first = old.strip().splitlines()[0]
            print(f"{verdict}: {module}: {first[:70]!r} ({time.perf_counter() - started:.1f} s)")
    print(f"mutants: {len(MUTANTS) - faults} of {len(MUTANTS)} killed, "
          f"{time.perf_counter() - began:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
