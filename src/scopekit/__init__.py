"""scopekit: build, validate, query, and report on smart-city incident cases
exchanged as RDF graphs.

The pieces compose bottom-up: terms/turtle/ntriples hold the triple store and
formats, schema and catalog load the embedded reference data, validation
checks conformance, casekit builds and merges cases, query and report answer
questions about them. cli binds everything for the command line.
"""

from .errors import (
    BlankNodePresentError,
    CaseMismatchError,
    CatalogFormatError,
    CsvFormatError,
    DanglingReferenceError,
    DanglingTargetError,
    DocumentTooLargeError,
    DuplicateDefinitionError,
    InvalidCardinalityError,
    InvalidCaseError,
    InvalidIriError,
    InvalidNameError,
    InvalidTimestampError,
    MalformedIdError,
    MalformedVariableError,
    ParseError,
    QueryTextError,
    QueryTooLargeError,
    SchemaCycleError,
    SchemaError,
    ScopeKitError,
    UnboundFilterVariableError,
    UndefinedPrefixError,
    UnknownClassError,
    UnknownIdError,
    UnknownPropertyError,
    UnknownRuleError,
    UnsupportedRegexError,
)
from .terms import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    skolemize,
    term_sort_key,
    triple_sort_key,
)
from .turtle import parse_turtle, serialize_turtle_canonical
from .ntriples import parse_ntriples, serialize_ntriples_canonical
from .schema import (
    ClassDef,
    PropertyDef,
    Schema,
    load_default_schema,
    load_schema,
    load_schema_dir,
)
from .catalog import (
    CRIME_TYPES,
    CUSTODY_ACTIONS,
    Catalog,
    CapecEntry,
    CrimeType,
    IndicatorEntry,
    STRIDE_CATEGORIES,
    TACTICS,
    TechniqueEntry,
    load_catalog_dir,
    load_default_catalog,
)
from .validation import (
    Finding,
    RULE_CODES,
    ValidationReport,
    explain_rule,
    validate_graph,
)
from .casekit import (
    CaseGraph,
    CustodyEvent,
    Ioc,
    MergeOutcome,
    apply_diff,
    diff,
    from_graph,
    merge,
    new_case,
)
from .query import (
    BindingTable,
    Pattern,
    Variable,
    count,
    parse_query,
    run_query,
    run_text_query,
)
from .report import CaseSummary, render_markdown, summarize

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
