"""Lazy loading: `import scopekit` loads no submodule, each CLI subcommand
loads only the modules it runs, and the package still exports the same names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scopekit

from conftest import FIXTURE_DIR

SRC = str(Path(scopekit.__file__).resolve().parents[1])

# loaded by every subcommand: cli and what it imports at module level
LIGHT = {"cli", "errors", "namespaces", "ntriples", "terms", "turtle"}
VALIDATE = {"schema", "catalog", "validation"}
CASEKIT = VALIDATE | {"casekit"}

EXPORTS = [
    "BindingTable", "BlankNode", "BlankNodePresentError", "CRIME_TYPES", "CUSTODY_ACTIONS",
    "CapecEntry", "CaseGraph", "CaseMismatchError", "CaseSummary", "Catalog",
    "CatalogFormatError", "ClassDef", "CrimeType", "CsvFormatError", "CustodyEvent",
    "DanglingReferenceError", "DanglingTargetError", "DocumentTooLargeError",
    "DuplicateDefinitionError", "Finding", "Graph", "IndicatorEntry", "InvalidCardinalityError",
    "InvalidCaseError", "InvalidIriError", "InvalidNameError", "InvalidTimestampError", "Ioc",
    "Iri", "Literal", "MalformedIdError", "MalformedVariableError", "MergeOutcome", "ParseError",
    "Pattern", "PropertyDef", "QueryTextError", "QueryTooLargeError", "RULE_CODES",
    "STRIDE_CATEGORIES", "Schema", "SchemaCycleError", "SchemaError", "ScopeKitError", "TACTICS",
    "TechniqueEntry", "Triple", "UnboundFilterVariableError", "UndefinedPrefixError",
    "UnknownClassError", "UnknownIdError", "UnknownPropertyError", "UnknownRuleError",
    "UnsupportedRegexError", "ValidationReport", "Variable", "apply_diff", "casekit", "catalog",
    "count", "diff", "errors", "explain_rule", "from_graph", "load_catalog_dir",
    "load_default_catalog", "load_default_schema", "load_schema", "load_schema_dir", "merge",
    "namespaces", "new_case", "ntriples", "parse_ntriples", "parse_query", "parse_turtle",
    "query", "render_markdown", "report", "run_query", "run_text_query", "schema",
    "serialize_ntriples_canonical", "serialize_turtle_canonical", "skolemize", "summarize",
    "term_sort_key", "terms", "triple_sort_key", "turtle", "validate_graph", "validation",
]
SUBMODULES = {"casekit", "catalog", "errors", "namespaces", "ntriples", "query", "report",
              "schema", "terms", "turtle", "validation"}
# exported values that carry no __module__ of their own
CONSTANTS = {"CRIME_TYPES": "catalog", "CUSTODY_ACTIONS": "catalog",
             "STRIDE_CATEGORIES": "catalog", "TACTICS": "catalog", "RULE_CODES": "validation"}

LOADED = ("import json, sys; print(json.dumps(sorted(m.split('.', 1)[1] "
          "for m in sys.modules if m.startswith('scopekit.'))))")
# standard modules no command needs: the class factory and the module it imports
# that costs the most, annotation and path helpers, and temporary files
UNLOADED = ("dataclasses", "inspect", "typing", "pathlib", "tempfile")
UNLOADED_FOUND = f"; print(json.dumps([m for m in {UNLOADED!r} if m in sys.modules]))"


def child(code, *args):
    """Run `code` in a fresh interpreter on this source tree, without the site
    module, so no start-up hook loads anything first; its stdout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(statement):
    return set(json.loads(child(f"{statement}; {LOADED}")))


def test_import_scopekit_loads_no_submodule():
    assert loaded_after("import scopekit") == set()


def test_a_name_loads_only_its_module_and_dependencies():
    assert loaded_after("from scopekit import parse_turtle") == {"errors", "ntriples", "terms",
                                                                 "turtle"}


def test_a_submodule_name_loads_that_submodule():
    assert loaded_after("import scopekit; scopekit.query") == {"errors", "namespaces", "ntriples",
                                                               "query", "terms"}


def test_import_cli_loads_no_class_factory():
    assert json.loads(child("import json, sys, scopekit.cli" + UNLOADED_FOUND)) == []


CASE = str(FIXTURE_DIR / "scenario3.ttl")


@pytest.mark.parametrize("argv, heavy", [
    (["convert", CASE, "--to", "nt"], set()),
    (["convert", CASE, "--to", "ttl"], set()),
    (["diff", CASE, CASE], set()),
    (["init", "--scenario", "1"], set()),
    (["query", CASE, "--count", "-q", "?s ?p ?o"], {"query"}),
    (["validate", CASE], VALIDATE),
    (["merge", CASE, CASE], CASEKIT),
    (["iocs", "export", CASE], CASEKIT),
    (["iocs", "import", CASE, "FEED"], CASEKIT),
    (["report", CASE, "--format", "json"], CASEKIT | {"report"}),
], ids=["convert-nt", "convert-ttl", "diff", "init", "query", "validate", "merge", "iocs-export",
        "iocs-import", "report"])
def test_subcommand_loads_only_what_it_runs(argv, heavy, tmp_path):
    feed = tmp_path / "feed.csv"
    feed.write_text("kind,value,source\nDomain,example[.]test,lab\n", encoding="utf-8")
    argv = [str(feed) if arg == "FEED" else arg for arg in argv]
    code = ("import contextlib, io, sys\n"
            "from scopekit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n" + LOADED + UNLOADED_FOUND)
    modules, unloaded = map(json.loads, child(code, *argv).splitlines())
    assert set(modules) == LIGHT | heavy
    assert unloaded == []


def test_turtle_pattern_compiles_on_first_parse(tmp_path):
    from scopekit.cli import main

    nt = tmp_path / "case.nt"
    assert main(["convert", CASE, "--to", "nt", "-o", str(nt)]) == 0
    code = ("import contextlib, io, sys\n"
            "from scopekit import turtle\n"
            "from scopekit.cli import main\n"
            "compiled = []\n"
            "for argv in (['init', '--scenario', '1'], ['convert', sys.argv[1], '--to', 'nt']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "    compiled.append(turtle._step.cache_info().currsize)\n"
            "turtle.parse_turtle('<urn:a> <urn:b> <urn:c> .')\n"
            "compiled.append(turtle._step.cache_info().currsize)\n"
            "print(compiled)")
    assert json.loads(child(code, str(nt))) == [0, 0, 1]


def test_exports_unchanged():
    assert scopekit.__all__ == EXPORTS
    assert scopekit.__version__ == "1.0.0"


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_its_defining_modules_object(name):
    value = getattr(scopekit, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"scopekit.{name}")
    else:
        module = CONSTANTS.get(name) or value.__module__.rpartition(".")[2]
        assert value is getattr(importlib.import_module(f"scopekit.{module}"), name)


def test_dir_lists_every_export():
    listed = dir(scopekit)
    assert "__all__" in listed
    assert set(EXPORTS) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        scopekit.no_such_name
    with pytest.raises(ImportError):
        from scopekit import no_such_name  # noqa: F401


def test_star_import_binds_every_name():
    namespace = {}
    exec("from scopekit import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert all(namespace[name] is getattr(scopekit, name) for name in EXPORTS)
