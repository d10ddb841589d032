"""scopekit: build, validate, query, and report on smart-city incident cases
exchanged as RDF graphs.

The pieces compose bottom-up: terms/turtle/ntriples hold the triple store and
formats, schema and catalog load the embedded reference data, validation
checks conformance, casekit builds and merges cases, query and report answer
questions about them. cli binds everything for the command line.

`import scopekit` loads no submodule. Each exported name (and each submodule
name) loads its module on first use (PEP 562), so `from scopekit import
parse_turtle` loads errors, terms, ntriples and turtle, and nothing else.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "errors": """BlankNodePresentError CaseMismatchError CatalogFormatError CsvFormatError
        DanglingReferenceError DanglingTargetError DocumentTooLargeError DuplicateDefinitionError
        InvalidCardinalityError InvalidCaseError InvalidIriError InvalidNameError
        InvalidTimestampError MalformedIdError MalformedVariableError ParseError QueryTextError
        QueryTooLargeError SchemaCycleError SchemaError ScopeKitError UnboundFilterVariableError
        UndefinedPrefixError UnknownClassError UnknownIdError UnknownPropertyError UnknownRuleError
        UnsupportedRegexError""",
    "terms": "BlankNode Graph Iri Literal Triple skolemize term_sort_key triple_sort_key",
    "turtle": "parse_turtle serialize_turtle_canonical",
    "ntriples": "parse_ntriples serialize_ntriples_canonical",
    "schema": "ClassDef PropertyDef Schema load_default_schema load_schema load_schema_dir",
    "catalog": """CRIME_TYPES CUSTODY_ACTIONS Catalog CapecEntry CrimeType IndicatorEntry
        STRIDE_CATEGORIES TACTICS TechniqueEntry load_catalog_dir load_default_catalog""",
    "validation": "Finding RULE_CODES ValidationReport explain_rule validate_graph",
    "casekit": "CaseGraph CustodyEvent Ioc MergeOutcome apply_diff diff from_graph merge new_case",
    "query": "BindingTable Pattern Variable count parse_query run_query run_text_query",
    "report": "CaseSummary render_markdown summarize",
}
_SUBMODULES = frozenset([*_EXPORTS, "namespaces"])
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "1.0.0"

__all__ = sorted([*_SOURCE, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
