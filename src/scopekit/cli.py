"""Command-line surface.

Exit code contract, honored by every subcommand:
  0  success
  1  domain failure (validation errors, merge conflicts, diff differences)
  2  usage, parse, or I/O failure

Everything on standard output is deterministic for identical inputs and
flags; diagnostics go to standard error. A command that fails leaves its -o
target as it was. The only environment variable consulted is SCOPE_SCHEMA_DIR
(overridden by --schema where offered).

Only errors, terms, namespaces, ntriples and turtle load with this module; each
subcommand imports the rest on first use, so a cold command pays for what it
runs: convert, diff and init nothing more; query adds query; validate adds
schema, catalog and validation; merge and iocs add casekit (which loads those
three); report adds casekit and report. Terms and records are plain slotted
classes, so no command loads the standard class factory module or the inspect,
ast and dis it imports. Annotations take their abstract types from
collections.abc, and files are read with open and os.path, so no command loads
typing or pathlib either; json loads only for --format json.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InvalidCaseError, ScopeKitError
from .namespaces import STANDARD_PREFIXES
from .ntriples import parse_ntriples, read_text_file, render_triple, serialize_ntriples_canonical
from .terms import Graph, skolemize
from .turtle import parse_turtle, serialize_turtle_canonical

_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _err(message: str) -> None:
    print(f"scopekit: {message}", file=sys.stderr)


def _load_schema(args):
    from .schema import load_default_schema, load_schema_dir

    override = getattr(args, "schema", None) or os.environ.get("SCOPE_SCHEMA_DIR")
    if override:
        return load_schema_dir(override)
    return load_default_schema()


def _read_graph(path: str, data: bytes | None = None) -> Graph:
    if data is None:
        with open(path, "rb") as f:
            data = f.read()
    return (parse_ntriples if path.endswith(".nt") else parse_turtle)(data)


def _write_graph(g: Graph, fmt: str) -> str:
    g = skolemize(g)
    if fmt == "nt":
        return serialize_ntriples_canonical(g)
    # fixed prefix profile, so conversion depends only on triple content and
    # ttl -> nt -> ttl comes back byte-identical
    return serialize_turtle_canonical(Graph._of(g.triples, STANDARD_PREFIXES, g.has_blank_nodes()))


def _emit(text: str, output: str | None) -> None:
    if not output:
        sys.stdout.write(text)
        return
    target = os.path.realpath(output)
    # a new or writable file in a writable folder is written whole beside itself,
    # then renamed onto its place; a pipe, a device or a read-only file in place
    if not (os.access(os.path.dirname(target), os.W_OK) and (not os.path.exists(output) or (
            os.path.isfile(target) and os.access(target, os.W_OK)))):
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
        return
    part = f"{target}.{os.getpid()}.part"
    try:
        with open(part, "w", encoding="utf-8") as f:
            f.write(text)
        if os.path.exists(target):
            os.chmod(part, os.stat(target).st_mode & 0o7777)
        os.replace(part, target)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        raise


# -- subcommands --

def cmd_validate(args) -> int:
    from .catalog import load_default_catalog
    from .validation import validate_graph

    g = _read_graph(args.path)
    report = validate_graph(g, _load_schema(args), load_default_catalog())
    if args.format == "json":
        import json
        _emit(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n", args.output)
    else:
        _emit(report.to_text(), args.output)
    return 0 if not report.errors else 1


def cmd_convert(args) -> int:
    g = _read_graph(args.path)
    _emit(_write_graph(g, args.to), args.output)
    return 0


def cmd_query(args) -> int:
    from . import query

    g = _read_graph(args.path)
    if args.query is not None:
        text = args.query
    elif args.query_file is not None:
        text = read_text_file(args.query_file)
    else:
        text = sys.stdin.read()
    patterns, filters = query.parse_query(text, g.prefixes)
    if args.count:
        _emit(f"{query.count(g, patterns, filters)}\n", args.output)
    else:
        _emit(query.run_query(g, patterns, filters).to_tsv(), args.output)
    return 0


def cmd_diff(args) -> int:
    # lines sorted as canonical N-Triples sorts them
    added, removed = (sorted(map(render_triple, ts))
                      for ts in _read_graph(args.a).diff(_read_graph(args.b)))
    _emit("\n".join(["# added", *added, "# removed", *removed]) + "\n", args.output)
    return 1 if (added or removed) else 0


def cmd_merge(args) -> int:
    from . import casekit

    schema = _load_schema(args)
    a = casekit.from_graph(_read_graph(args.a), schema)
    b = casekit.from_graph(_read_graph(args.b), schema)
    outcome = casekit.merge(a, b, allow_mismatch=args.allow_mismatch)
    _emit(outcome.merged.to_turtle(), args.output)
    # with -o, the conflicts take the merged graph's place on standard output
    (sys.stdout if args.output else sys.stderr).write(outcome.conflicts_text())
    return 1 if outcome.conflicts else 0


def cmd_report(args) -> int:
    from . import casekit
    from .report import render_markdown, summarize

    c = casekit.from_graph(_read_graph(args.path), _load_schema(args))
    summary = summarize(c)
    if args.format == "json":
        import json
        _emit(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True) + "\n", args.output)
    else:
        _emit(render_markdown(summary), args.output)
    return 0


def cmd_init(args) -> int:
    _emit(read_text_file(os.path.join(_FIXTURES, f"scenario{args.scenario}.ttl")), args.output)
    return 0


def cmd_iocs(args) -> int:
    import hashlib
    import random

    from . import casekit

    schema = _load_schema(args)
    with open(args.path, "rb") as f:
        data = f.read()
    g = _read_graph(args.path, data)
    if args.ioc_command == "export":
        _emit(casekit.from_graph(g, schema).export_iocs(), args.output)
        return 0
    rows = read_text_file(args.csv)
    # new nodes' IRIs derive from the inputs, so equal inputs give equal output
    seed = hashlib.sha256(hashlib.sha256(data).digest() + rows.encode("utf-8")).digest()
    c = casekit.from_graph(g, schema, rng=random.Random(seed))
    n = c.import_iocs(rows)
    for problem in c.ioc_import_errors:
        _err(problem)
    _emit(c.to_turtle(), args.output)
    print(f"imported {n} IoC rows", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scopekit",
        description="Build, validate, query, and report on smart-city incident case graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", metavar="PATH",
                       help="write to PATH instead of standard output")

    def add_schema(p):
        p.add_argument("--schema", metavar="DIR",
                       help="load the schema from DIR instead of the embedded one")

    p = sub.add_parser("validate", help="check a case graph against the schema rules")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_schema(p)
    add_output(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="re-serialize a graph canonically")
    p.add_argument("path")
    p.add_argument("--to", choices=("ttl", "nt"), required=True)
    add_output(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("query", help="run a triple-pattern query, results as TSV")
    p.add_argument("path")
    p.add_argument("-q", "--query", help="inline query text")
    p.add_argument("-f", "--query-file", help="read the query from a file")
    p.add_argument("--count", action="store_true", help="print only the row count")
    add_output(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("diff", help="triple-level difference of two graphs")
    p.add_argument("a")
    p.add_argument("b")
    add_output(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("merge", help="merge two case files; conflicts keep the first file's value")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--allow-mismatch", action="store_true",
                   help="merge even when the two files describe different cases")
    add_schema(p)
    add_output(p)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("report", help="render an investigation summary")
    p.add_argument("path")
    p.add_argument("--format", choices=("md", "json"), default="md")
    add_schema(p)
    add_output(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("init", help="write one of the bundled scenario fixtures")
    p.add_argument("--scenario", type=int, choices=(1, 2, 3), required=True)
    add_output(p)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("iocs", help="import or export indicator-of-compromise CSV")
    iocs_sub = p.add_subparsers(dest="ioc_command", required=True)
    pe = iocs_sub.add_parser("export", help="case file to kind,value,source CSV")
    pe.add_argument("path")
    add_schema(pe)
    add_output(pe)
    pe.set_defaults(func=cmd_iocs)
    pi = iocs_sub.add_parser("import", help="add CSV rows to a case file")
    pi.add_argument("path")
    pi.add_argument("csv")
    add_schema(pi)
    add_output(pi)
    pi.set_defaults(func=cmd_iocs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidCaseError as exc:
        _err("case does not validate; report follows")
        sys.stderr.write(exc.report.to_text())
        return 1
    except (ScopeKitError, OSError) as exc:
        _err(str(exc))
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
