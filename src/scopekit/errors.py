"""Exception hierarchy shared by all scopekit modules."""


class ScopeKitError(Exception):
    """Base class for every error raised by scopekit."""


# --- RDF core ---------------------------------------------------------------

class InvalidIriError(ScopeKitError):
    """String does not satisfy the absolute-IRI shape accepted by Iri."""


class ParseError(ScopeKitError):
    """Syntax error in a Turtle or N-Triples document.

    Carries the 1-based line and column of the first offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UndefinedPrefixError(ParseError):
    """A prefixed name uses a prefix no @prefix directive declared."""

    def __init__(self, prefix: str, line: int = 0, column: int = 0):
        self.prefix = prefix
        super().__init__(f"undefined prefix '{prefix}:'", line, column)


class DocumentTooLargeError(ParseError):
    """Input document exceeds the accepted size limit."""


class BlankNodePresentError(ScopeKitError):
    """Canonical serialization requested for a graph that still has blank nodes."""


# --- schema -----------------------------------------------------------------

class SchemaError(ScopeKitError):
    """Base class for schema-loading failures."""


class SchemaCycleError(SchemaError):
    """Subclass hierarchy contains a cycle; message names the cycle members."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("subclass cycle: " + " -> ".join(str(c) for c in self.cycle))


class DanglingReferenceError(SchemaError):
    """A schema statement references an undeclared class or unknown datatype."""


class DuplicateDefinitionError(SchemaError):
    """The same class or property is defined twice with conflicting content."""


class InvalidCardinalityError(SchemaError):
    """Property cardinality bounds are inconsistent (min > max, functional > 1)."""


class UnknownClassError(ScopeKitError):
    """Class IRI is not declared in the schema."""


class UnknownPropertyError(ScopeKitError):
    """Property key cannot be resolved to a declared property definition."""


# --- catalog ----------------------------------------------------------------

class MalformedIdError(ScopeKitError):
    """Identifier does not match the required shape (ATT&CK / CAPEC / CVE)."""


class UnknownIdError(ScopeKitError):
    """Well-formed identifier with no entry in the loaded catalog."""


class CatalogFormatError(ScopeKitError):
    """A catalog CSV file is structurally invalid."""


# --- validator --------------------------------------------------------------

class UnknownRuleError(ScopeKitError):
    """Rule code is not present in the validation rule registry."""


# --- casekit ----------------------------------------------------------------

class InvalidNameError(ScopeKitError):
    """Case name is empty or contains no usable characters."""


class InvalidTimestampError(ScopeKitError):
    """Timestamp is not ISO-8601 UTC with a 'Z' suffix."""


class DanglingTargetError(ScopeKitError):
    """Referenced node does not exist in the case graph."""


class CsvFormatError(ScopeKitError):
    """IoC CSV input is structurally invalid; carries the offending row number."""

    def __init__(self, message: str, row: int):
        self.row = row
        super().__init__(f"{message} (row {row})")


class CaseMismatchError(ScopeKitError):
    """Merge inputs describe different cases and no override was given."""


# --- query ------------------------------------------------------------------

class MalformedVariableError(ScopeKitError):
    """Variable name does not match ?[A-Za-z][A-Za-z0-9_]*."""


class UnboundFilterVariableError(ScopeKitError):
    """A filter references a variable that appears in no pattern."""


class UnsupportedRegexError(ScopeKitError):
    """Filter regex uses a construct outside the supported conservative subset."""


class QueryTooLargeError(ScopeKitError):
    """A join's intermediate table passed query.MAX_ROWS rows."""


class QueryTextError(ScopeKitError):
    """Textual query cannot be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"{message} (query line {line})"
        super().__init__(message)


# --- report -----------------------------------------------------------------

class InvalidCaseError(ScopeKitError):
    """Summarize refused a case graph that fails validation; wraps the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"case graph has {len(report.errors)} validation error(s); report refused"
        )
