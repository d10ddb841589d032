"""Reference catalogs: techniques, attack patterns, city-service indicators,
and the closed crime-type set.

Catalogs are CSV data, not code. Loaders accept any file with the documented
columns, so the embedded set can be replaced or extended without touching the
package.
"""

from __future__ import annotations

import csv
import io
import os
import re

from .errors import CatalogFormatError, MalformedIdError, UnknownClassError, UnknownIdError
from .namespaces import (
    CLS_DENIAL_OF_SERVICE,
    CLS_ELEVATION_OF_PRIVILEGE,
    CLS_INFORMATION_DISCLOSURE,
    CLS_REPUDIATION,
    CLS_SPOOFING,
    CLS_TAMPERING,
    CLS_THREAT,
)
from .ntriples import read_text_file
from .schema import Schema
from .terms import Iri, Record

TECHNIQUE_ID_RE = re.compile(r"T\d{4}(\.\d{3})?", re.ASCII)
CAPEC_ID_RE = re.compile(r"CAPEC-\d+", re.ASCII)
CVE_ID_RE = re.compile(r"CVE-\d{4}-\d{4,}", re.ASCII)
MD5_RE = re.compile(r"[0-9a-f]{32}")

TACTICS = (
    "InitialAccess",
    "Discovery",
    "Execution",
    "PersistencePrivilegeEscalation",
    "LateralMovement",
    "DefenceEvasion",
    "Collection",
    "CommandAndControl",
    "Exfiltration",
    "Impact",
)

ISO_STANDARDS = ("ISO37101", "ISO37120", "ISO37122", "ISO37123")

CUSTODY_ACTIONS = ("Seized", "Imaged", "Transferred", "Analyzed")

STRIDE_CATEGORIES = (
    "Spoofing",
    "Tampering",
    "Repudiation",
    "InformationDisclosure",
    "DenialOfService",
    "ElevationOfPrivilege",
)
# each category's class: the namespaces constant, which the schema's classes are
_STRIDE_IRIS = tuple(zip(STRIDE_CATEGORIES, (
    CLS_SPOOFING, CLS_TAMPERING, CLS_REPUDIATION, CLS_INFORMATION_DISCLOSURE,
    CLS_DENIAL_OF_SERVICE, CLS_ELEVATION_OF_PRIVILEGE)))


class TechniqueEntry(Record):
    __slots__ = ("id", "name", "tactic")

    def __init__(self, id: str, name: str, tactic: str):
        self._set(id, name, tactic)


class CapecEntry(Record):
    __slots__ = ("id", "name", "related_techniques")

    def __init__(self, id: str, name: str, related_techniques: frozenset[str]):
        self._set(id, name, related_techniques)


class IndicatorEntry(Record):
    __slots__ = ("iso_standard", "clause", "description", "system")

    def __init__(self, iso_standard: str, clause: str, description: str, system: Iri):
        self._set(iso_standard, clause, description, system)


class CrimeType(Record):
    __slots__ = ("name", "description")

    def __init__(self, name: str, description: str):
        self._set(name, description)


CRIME_TYPES: dict[str, CrimeType] = {
    "DataInterference": CrimeType(
        "DataInterference",
        "Damaging, deleting, altering, or suppressing data without right."),
    "SystemInterference": CrimeType(
        "SystemInterference",
        "Hindering the functioning of a system without right."),
    "IllegalAccess": CrimeType(
        "IllegalAccess",
        "Access to the whole or part of a system without right."),
    "IllegalInterception": CrimeType(
        "IllegalInterception",
        "Interception without right of non-public data transmissions."),
}


def _read_rows(text: str, expected_header: list[str], filename: str) -> list[tuple[int, list[str]]]:
    # leading '#' lines are file commentary, not data; line ends are read as
    # open() reads them, so a cell keeps every other line separator
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    start = 0
    while start < len(lines) and (not lines[start].strip() or lines[start].lstrip().startswith("#")):
        start += 1
    if start >= len(lines):
        raise CatalogFormatError(f"{filename}: no header row")
    reader = csv.reader(io.StringIO("\n".join(lines[start:])))
    rows = list(reader)
    header = [h.strip() for h in rows[0]]
    if header != expected_header:
        raise CatalogFormatError(
            f"{filename}: expected header {','.join(expected_header)!r}, found {','.join(header)!r}")
    out = []
    for i, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(expected_header):
            raise CatalogFormatError(
                f"{filename}: row {i} has {len(row)} columns, expected {len(expected_header)}")
        out.append((i, [cell.strip() for cell in row]))
    return out


class Catalog:
    """Immutable lookup tables loaded from the CSV catalogs."""

    def __init__(self, techniques: dict[str, TechniqueEntry],
                 capec: dict[str, CapecEntry],
                 indicators: list[IndicatorEntry]):
        self.techniques = dict(techniques)
        self.capec = dict(capec)
        self.indicators = list(indicators)
        self.crime_types = dict(CRIME_TYPES)
        # technique id -> capec entries, precomputed
        self._capec_by_technique: dict[str, list[CapecEntry]] = {}
        for entry in self.capec.values():
            for tid in entry.related_techniques:
                self._capec_by_technique.setdefault(tid, []).append(entry)
        for lst in self._capec_by_technique.values():
            lst.sort(key=lambda e: int(e.id.split("-")[1]))

    def lookup_technique(self, technique_id: str) -> TechniqueEntry:
        if not TECHNIQUE_ID_RE.fullmatch(technique_id):
            raise MalformedIdError(f"not a technique id: {technique_id!r}")
        try:
            return self.techniques[technique_id]
        except KeyError:
            raise UnknownIdError(f"technique not in catalog: {technique_id}") from None

    def techniques_for_tactic(self, tactic: str) -> list[TechniqueEntry]:
        return sorted(
            (t for t in self.techniques.values() if t.tactic == tactic),
            key=lambda t: t.id)

    def capec_for_technique(self, technique_id: str) -> list[CapecEntry]:
        if not TECHNIQUE_ID_RE.fullmatch(technique_id):
            raise MalformedIdError(f"not a technique id: {technique_id!r}")
        return list(self._capec_by_technique.get(technique_id, []))

    def indicators_for_system(self, system: Iri, schema: Schema) -> list[IndicatorEntry]:
        """Indicators attached to system or any of its declared subclasses."""
        family = schema.subclasses_of(system)
        hits = [e for e in self.indicators if e.system in family]
        hits.sort(key=lambda e: (e.iso_standard, _clause_key(e.clause)))
        return hits

    def stride_category_of(self, threat_class: Iri, schema: Schema) -> str:
        ancestors = schema.ancestors(threat_class)
        if CLS_THREAT not in ancestors:
            raise UnknownClassError(f"not a threat class: {threat_class}")
        for category, iri in _STRIDE_IRIS:
            if iri in ancestors:
                return category
        raise UnknownClassError(f"threat class carries no category: {threat_class}")


def _clause_key(clause: str):
    parts = []
    for piece in clause.split("."):
        parts.append(int(piece) if piece.isdigit() else piece)
    return parts


def load_catalog(techniques_csv: str, capec_csv: str, indicators_csv: str) -> Catalog:
    techniques: dict[str, TechniqueEntry] = {}
    for lineno, (tid, name, tactic) in _read_rows(
            techniques_csv, ["id", "name", "tactic"], "techniques.csv"):
        if not TECHNIQUE_ID_RE.fullmatch(tid):
            raise CatalogFormatError(f"techniques.csv: row {lineno}: bad id {tid!r}")
        if tactic not in TACTICS:
            raise CatalogFormatError(f"techniques.csv: row {lineno}: unknown tactic {tactic!r}")
        if tid in techniques:
            raise CatalogFormatError(f"techniques.csv: row {lineno}: duplicate id {tid}")
        if not name:
            raise CatalogFormatError(f"techniques.csv: row {lineno}: empty name")
        techniques[tid] = TechniqueEntry(tid, name, tactic)

    capec: dict[str, CapecEntry] = {}
    for lineno, (cid, name, tids) in _read_rows(
            capec_csv, ["id", "name", "technique_ids"], "capec.csv"):
        if not CAPEC_ID_RE.fullmatch(cid):
            raise CatalogFormatError(f"capec.csv: row {lineno}: bad id {cid!r}")
        if cid in capec:
            raise CatalogFormatError(f"capec.csv: row {lineno}: duplicate id {cid}")
        related = [t for t in (p.strip() for p in tids.split(";")) if t]
        for t in related:  # in the row's order, so the first bad one is named
            if not TECHNIQUE_ID_RE.fullmatch(t):
                raise CatalogFormatError(
                    f"capec.csv: row {lineno}: bad technique reference {t!r}")
        capec[cid] = CapecEntry(cid, name, frozenset(related))

    indicators: list[IndicatorEntry] = []
    seen_clauses = set()
    for lineno, (standard, clause, description, system_iri) in _read_rows(
            indicators_csv, ["standard", "clause", "description", "system_iri"], "indicators.csv"):
        if standard not in ISO_STANDARDS:
            raise CatalogFormatError(f"indicators.csv: row {lineno}: unknown standard {standard!r}")
        if not clause:
            raise CatalogFormatError(f"indicators.csv: row {lineno}: empty clause")
        key = (standard, clause)
        if key in seen_clauses:
            raise CatalogFormatError(
                f"indicators.csv: row {lineno}: duplicate clause {standard} {clause}")
        seen_clauses.add(key)
        indicators.append(IndicatorEntry(standard, clause, description, Iri(system_iri)))

    return Catalog(techniques, capec, indicators)


_EMBEDDED_CATALOG_DIR = os.path.join(os.path.dirname(os.path.realpath(__file__)), "catalogs")


def load_catalog_dir(directory: str | os.PathLike) -> Catalog:
    return load_catalog(*(read_text_file(os.path.join(directory, name))
                          for name in ("techniques.csv", "capec.csv", "indicators.csv")))


_DEFAULT_CATALOG: Catalog | None = None


def load_default_catalog() -> Catalog:
    global _DEFAULT_CATALOG
    if _DEFAULT_CATALOG is None:
        _DEFAULT_CATALOG = load_catalog_dir(_EMBEDDED_CATALOG_DIR)
    return _DEFAULT_CATALOG
