"""Investigation summaries: a typed CaseSummary plus Markdown and JSON views.

Reports are fail-closed: a case that does not validate cleanly cannot be
summarized, because a forensic digest built on a broken graph misleads the
reader downstream.
"""

from __future__ import annotations

import re

from .casekit import CaseGraph
from .errors import InvalidCaseError, UnknownClassError
from .namespaces import (
    CLS_ATTACK_TECHNIQUE,
    CLS_INVESTIGATIVE_ACTION,
    CLS_THREAT,
    PROP_CUSTODY_ACTION,
    PROP_CUSTODY_ACTOR,
    PROP_CUSTODY_OF,
    PROP_CUSTODY_TS,
    PROP_DESCRIPTION,
    PROP_LOCATION_NOTE,
    PROP_NAME,
    PROP_PERFORMED_BY,
    PROP_START_TIME,
    PROP_TACTIC,
    PROP_TECHNIQUE_ID,
)
from .terms import Graph, Iri, Record, first_literal, term_sort_key
from .validation import custody_sequence

# A case value reaches the Markdown as text: a line break as <br>, so it cannot
# split its line; '&', '<' and '>' as entities, so <br> is the only markup;
# other C0 controls, DEL and the bidi controls as \uXXXX, inert in a terminal.
_UNSAFE_RE = re.compile("[\x00-\x1f\x7f&<>\u202a-\u202e\u2066-\u2069]")
_MARKUP = {"\n": "<br>", "\r": "<br>", "&": "&amp;", "<": "&lt;", ">": "&gt;"}


class CustodyEntry(Record):
    """evidence and actor are display labels, actor "" when unrecorded."""

    __slots__ = ("at", "action", "evidence", "actor", "sequence")

    def __init__(self, at: str, action: str, evidence: str, actor: str, sequence: int):
        self._set(at, action, evidence, actor, sequence)


class ActionEntry(Record):
    __slots__ = ("at", "description", "location", "performer")

    def __init__(self, at: str, description: str, location: str, performer: str):
        self._set(at, description, location, performer)


class CaseSummary(Record):
    """threat_counts: (category, count), sorted; tactic_map: tactic -> ((id,
    name), ...); iocs: (kind, defanged value, source); custody: the ascending
    timeline; actions: the ascending log."""

    __slots__ = ("case_id", "name", "created", "threat_counts", "tactic_map", "iocs", "custody",
                 "actions")

    def __init__(self, case_id: str, name: str, created: str,
                 threat_counts: tuple[tuple[str, int], ...],
                 tactic_map: tuple[tuple[str, tuple[tuple[str, str], ...]], ...],
                 iocs: tuple[tuple[str, str, str], ...], custody: tuple[CustodyEntry, ...],
                 actions: tuple[ActionEntry, ...]):
        self._set(case_id, name, created, threat_counts, tactic_map, iocs, custody, actions)

    def to_json_dict(self) -> dict:
        return {
            "case": {"id": self.case_id, "name": self.name, "created": self.created},
            "threats": {category: n for category, n in self.threat_counts},
            "ttps": {tactic: [{"id": tid, "name": tname} for tid, tname in techs]
                     for tactic, techs in self.tactic_map},
            "iocs": [{"kind": k, "value": v, "source": s} for k, v, s in self.iocs],
            "custody": [{"at": e.at, "action": e.action, "evidence": e.evidence,
                         "actor": e.actor, "sequence": e.sequence} for e in self.custody],
            "actions": [{"at": a.at, "description": a.description,
                         "location": a.location, "performer": a.performer}
                        for a in self.actions],
        }


def _label(g: Graph, node) -> str:
    """Display label: the node's name if set, else its IRI local name."""
    name = first_literal(g, node, PROP_NAME)
    if name:
        return name
    if isinstance(node, Iri):
        return node.local_name()
    return str(node)


def summarize(c: CaseGraph) -> CaseSummary:
    """The case's summary. Rows follow what they print, never hash order:
    IoC, custody and action rows sort on their whole row, and where technique
    nodes share an id, the node first in canonical term order names it."""
    report = c.validate()
    if report.errors:
        raise InvalidCaseError(report)

    g = c.graph
    schema, catalog = c.schema, c.catalog

    counts: dict[str, int] = {}
    for subject, classes in schema.instances_under(g, CLS_THREAT).items():
        category = None
        for cls in sorted(classes, key=lambda x: x.value):
            try:
                category = catalog.stride_category_of(cls, schema)
            except UnknownClassError:
                continue  # typed with the bare root; counted as Uncategorized
            if category:
                break
        counts[category or "Uncategorized"] = counts.get(category or "Uncategorized", 0) + 1
    threat_counts = tuple(sorted(counts.items()))

    by_tactic: dict[str, dict[str, str]] = {}
    for subject in sorted(schema.instances_under(g, CLS_ATTACK_TECHNIQUE), key=term_sort_key):
        tid = first_literal(g, subject, PROP_TECHNIQUE_ID)
        if not tid:
            continue
        tactic = first_literal(g, subject, PROP_TACTIC) or "Unspecified"
        by_tactic.setdefault(tactic, {}).setdefault(tid, first_literal(g, subject, PROP_NAME) or "")
    tactic_map = tuple(
        (tactic, tuple(sorted(techs.items())))
        for tactic, techs in sorted(by_tactic.items()))

    iocs = tuple((i.kind, i.defanged(), i.source) for i in c.iocs())

    custody = []
    for t in g.scan(None, PROP_CUSTODY_OF, None):
        rec, ev = t.subject, t.object
        actor_nodes = g.objects_of(rec, PROP_CUSTODY_ACTOR)
        custody.append(CustodyEntry(
            at=first_literal(g, rec, PROP_CUSTODY_TS) or "",
            action=first_literal(g, rec, PROP_CUSTODY_ACTION) or "", evidence=_label(g, ev),
            actor=_label(g, actor_nodes[0]) if actor_nodes else "",
            sequence=custody_sequence(g, rec) or 0))
    custody.sort(key=lambda e: (e.at, e.evidence, e.sequence, e.action, e.actor))

    actions = []
    for subject in schema.instances_under(g, CLS_INVESTIGATIVE_ACTION):
        performers = g.objects_of(subject, PROP_PERFORMED_BY)
        actions.append(ActionEntry(
            at=first_literal(g, subject, PROP_START_TIME) or "",
            description=first_literal(g, subject, PROP_DESCRIPTION) or "",
            location=first_literal(g, subject, PROP_LOCATION_NOTE) or "",
            performer=_label(g, performers[0]) if performers else ""))
    actions.sort(key=lambda a: (a.at, a.description, a.location, a.performer))

    return CaseSummary(c.case_iri.value, c.name, c.created, threat_counts, tactic_map, iocs,
                       tuple(custody), tuple(actions))


def _section(lines: list[str], title: str, items, header: tuple[str, ...] = ()) -> None:
    """A "## title" section: a table under header, else bullets; "None recorded." if empty."""
    if header and items:
        # an unescaped | inside a cell would start a new column
        body = ["| " + " | ".join(cell.replace("|", r"\|") for cell in row) + " |"
                for row in (header, ("---",) * len(header), *items)]
    else:
        body = [f"- {item}" for item in items] or ["None recorded."]
    lines += [f"## {title}", "", *body, ""]


def render_markdown(s: CaseSummary) -> str:
    title = s.name or s.case_id or "(unnamed case)"
    lines = [f"# Case report: {title}", "", "## Overview", "", f"- Case id: {s.case_id}"]
    if s.name:
        lines.append(f"- Name: {s.name}")
    if s.created:
        lines.append(f"- Opened: {s.created}")
    total_techniques = sum(len(techs) for _, techs in s.tactic_map)
    lines += [f"- Threats: {sum(n for _, n in s.threat_counts)}, techniques: {total_techniques}"
              f", IoCs: {len(s.iocs)}, custody events: {len(s.custody)}"
              f", actions: {len(s.actions)}", ""]

    _section(lines, "Threats", [f"{category}: {n}" for category, n in s.threat_counts])
    _section(lines, "TTPs", [
        f"{tactic}: " + "; ".join(f"{tid} {tname}".rstrip() for tid, tname in techs)
        for tactic, techs in s.tactic_map])
    _section(lines, "IoCs", s.iocs, ("Kind", "Value", "Source"))
    _section(lines, "Custody", [(e.at, e.action, e.evidence, e.actor) for e in s.custody],
             ("When", "Action", "Evidence", "Actor"))
    _section(lines, "Actions",
             [(a.at, a.description, a.location, a.performer) for a in s.actions],
             ("When", "Description", "Location", "By"))
    return "\n".join(_UNSAFE_RE.sub(lambda m: _MARKUP.get(m[0]) or f"\\u{ord(m[0]):04X}",
                                    line.replace("\r\n", "\n")) for line in lines)
