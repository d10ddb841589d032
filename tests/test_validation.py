"""Rule-by-rule validator behaviour, report shape, and rule explanations."""

import random
import re
from pathlib import Path

import pytest

from conftest import FIXTURE_DIR, fixture_text
from helpers import doubled_sequence_case, random_case_script
from scopekit import casekit
from scopekit.errors import UnknownRuleError
from scopekit.namespaces import (
    CLS_ATTACK_TECHNIQUE,
    PROP_CAPEC_ID,
    PROP_CRIME_TYPE,
    PROP_CUSTODY_SEQ,
    PROP_CUSTODY_TS,
    PROP_CVE_ID,
    PROP_MD5,
    PROP_TARGETS,
    PROP_TECHNIQUE_ID,
    SCOPE_META,
    evidence,
    infrastructure,
    role,
    threats,
)
from scopekit.schema import Schema, load_schema
from scopekit.terms import (
    RDF_NS,
    RDF_TYPE,
    RDFS_NS,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_INTEGER,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    term_sort_key,
    triple_sort_key,
)
from scopekit.turtle import parse_turtle
from scopekit.validation import (
    RULE_CODES,
    Finding,
    custody_sequence,
    explain_rule,
    is_valid_utc_timestamp,
    validate_graph,
)


def build_case():
    """One small case touching every rule's subject matter."""
    c = casekit.new_case("unit-case", at="2100-01-01T00:00:00Z",
                         rng=random.Random(7))
    comp = c.add_component(infrastructure("EnergySystem"), "Test grid")
    analyst = c.add_role(role("ForensicAnalyst"), "Analyst")
    threat = c.add_threat(threats("Tampering"), comp)
    crime = c.add_crime("SystemInterference", comp)
    item = c.add_evidence(evidence("DeviceImage"),
                          attrs={"name": "disk image", "md5": "0" * 32},
                          crime=crime, seized_at="2100-01-01T01:00:00Z",
                          seized_by=analyst)
    c.add_custody_event(item, "Imaged", "2100-01-01T02:00:00Z", actor=analyst)
    tech = c.attach_technique(crime, "T1190", capec=True, cve="CVE-2022-2884")
    action = c.add_action("imaged the controller", "2100-01-01T03:00:00Z",
                          by=analyst)
    nodes = {"comp": comp, "analyst": analyst, "threat": threat, "crime": crime,
             "item": item, "tech": tech, "action": action}
    return c, nodes


@pytest.fixture()
def case():
    return build_case()


def codes(g, schema, catalog):
    return sorted({f.code for f in validate_graph(g, schema, catalog).findings})


class TestCleanInputs:
    def test_builder_case_is_clean(self, case, schema, catalog):
        c, _ = case
        report = validate_graph(c.graph, schema, catalog)
        assert report.ok
        assert report.findings == ()
        assert report.checked_triples == len(c.graph)
        assert report.schema_version == schema.version

    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    def test_fixtures_are_clean(self, request, name, schema, catalog):
        g = request.getfixturevalue(name)
        report = validate_graph(g, schema, catalog)
        assert report.ok
        assert not report.warnings

    def test_empty_graph_is_clean(self, schema, catalog):
        assert validate_graph(Graph(), schema, catalog).ok


class TestR01Typing:
    def test_untyped_node_fires(self, case, schema, catalog):
        c, n = case
        g = c.graph
        for t in g.match(n["action"], RDF_TYPE, None):
            g = g.remove(t)
        assert codes(g, schema, catalog) == ["R01"]

    def test_undeclared_class_fires(self, case, schema, catalog):
        c, n = case
        g = c.graph.insert(Triple(n["comp"], RDF_TYPE, infrastructure("HologramGrid")))
        report = validate_graph(g, schema, catalog)
        assert [f.code for f in report.findings] == ["R01"]
        assert "HologramGrid" in report.findings[0].message


class TestR02Domain:
    def test_property_outside_domain_fires(self, case, schema, catalog):
        c, n = case
        g = c.graph.insert(Triple(n["comp"], PROP_CRIME_TYPE,
                                  Literal("IllegalAccess")))
        assert codes(g, schema, catalog) == ["R02"]

    def test_a_property_without_a_domain_fits_any_node(self, case, catalog):
        c, n = case
        weight = Iri("http://example.org/vocab/weight")
        open_schema = load_schema([
            *(p.read_text(encoding="utf-8") for p in sorted(SCHEMA_DIR.glob("*.ttl"))),
            f"<{weight.value}> a <{RDF_NS}Property> ."])
        assert open_schema.property(weight).domain == frozenset()
        g = c.graph.insert_all(Triple(n[node], weight, Literal("1")) for node in ("comp", "item"))
        assert codes(g, open_schema, catalog) == []

    def test_untyped_subject_is_not_a_domain_finding(self, case, schema, catalog):
        c, n = case
        g = c.graph
        for t in g.match(n["action"], RDF_TYPE, None):
            g = g.remove(t)
        fired = {f.code for f in validate_graph(g, schema, catalog).findings}
        assert "R02" not in fired


class TestR03Range:
    def test_corrupt_timestamp_fires(self, case, schema, catalog):
        c, n = case
        g = c.graph
        rec = g.match(None, PROP_CUSTODY_TS, None)[0]
        g = g.remove(rec).insert(
            Triple(rec.subject, PROP_CUSTODY_TS, Literal("yesterday", XSD_DATETIME)))
        assert "R03" in codes(g, schema, catalog)

    def test_offset_timestamp_rejected(self, case, schema, catalog):
        c, n = case
        g = c.graph
        rec = g.match(None, PROP_CUSTODY_TS, None)[0]
        g = g.remove(rec).insert(
            Triple(rec.subject, PROP_CUSTODY_TS,
                   Literal("2100-01-01T01:00:00+00:00", XSD_DATETIME)))
        assert "R03" in codes(g, schema, catalog)

    def test_literal_where_node_expected_fires(self, case, schema, catalog):
        c, n = case
        g = c.graph.insert(Triple(n["threat"], PROP_TARGETS, Literal("the grid")))
        assert codes(g, schema, catalog) == ["R03"]

    def test_node_of_wrong_class_fires(self, case, schema, catalog):
        c, n = case
        g = c.graph.insert(Triple(n["threat"], PROP_TARGETS, n["analyst"]))
        assert codes(g, schema, catalog) == ["R03"]

    @pytest.mark.parametrize("lexical", ["5\n", "\u0665"])
    def test_integer_takes_ascii_digits_only(self, case, schema, catalog, lexical):
        c, n = case
        rec = c.graph.match(None, PROP_CUSTODY_SEQ, None)[0]
        g = c.graph.remove(rec).insert(
            Triple(rec.subject, PROP_CUSTODY_SEQ, Literal(lexical, XSD_INTEGER)))
        assert "R03" in codes(g, schema, catalog)

    @pytest.mark.parametrize("lexical, fires", [
        ("1.5", False), ("-2", False), ("1.\u0665", True), ("1.5\n", True)])
    def test_decimal_takes_ascii_digits_only(self, case, catalog, lexical, fires):
        c, n = case
        weight, analyst = Iri("http://example.org/vocab/weight"), role("ForensicAnalyst")
        decimal_schema = load_schema([
            *(p.read_text(encoding="utf-8") for p in sorted(SCHEMA_DIR.glob("*.ttl"))),
            f"<{weight.value}> a <{RDF_NS}Property> ; <{RDFS_NS}domain> <{analyst.value}> ;"
            f" <{RDFS_NS}range> <{XSD_DECIMAL.value}> ."])
        g = c.graph.insert(Triple(n["analyst"], weight, Literal(lexical, XSD_DECIMAL)))
        assert codes(g, decimal_schema, catalog) == (["R03"] if fires else [])


class TestR04Cardinality:
    def test_second_md5_on_one_item_fires(self, case, schema, catalog):
        c, n = case
        g = c.graph.insert(Triple(n["item"], PROP_MD5, Literal("f" * 32)))
        assert codes(g, schema, catalog) == ["R04"]
        finding = validate_graph(g, schema, catalog).findings[0]
        assert "md5Hash" in finding.message
        assert "functional" in finding.message

    def test_duplicate_value_does_not_fire(self, case, schema, catalog):
        # distinct values are counted, not assertions
        c, n = case
        g = c.graph.insert(Triple(n["item"], PROP_MD5, Literal("0" * 32)))
        assert validate_graph(g, schema, catalog).ok


class TestR05Naming:
    def test_minted_names_pass(self, case, schema, catalog):
        c, _ = case
        assert validate_graph(c.graph, schema, catalog).ok

    @pytest.mark.parametrize("bad_local", [
        "grid",                                          # no uuid
        "grid-1234",                                     # not a uuid
        "grid-9f1b2c3d-0000-1000-8000-000000000000",     # version 1, not 4
        "Grid-9f1b2c3d-0000-4000-8000-000000000000",     # upper-case name part
    ])
    def test_bad_local_names_fire(self, case, schema, catalog, bad_local):
        c, n = case
        old = n["comp"]
        new = Iri(old.value.rsplit("/", 1)[0] + "/" + bad_local)
        g = c.graph
        for t in list(g):
            changed = t
            if t.subject == old:
                changed = Triple(new, changed.predicate, changed.object)
            if t.object == old:
                changed = Triple(changed.subject, changed.predicate, new)
            if changed is not t:
                g = g.remove(t).insert(changed)
        assert codes(g, schema, catalog) == ["R05"]

    def test_uuid_case_insensitive(self, case, schema, catalog):
        c, n = case
        old = n["comp"]
        local = old.local_name()
        new = Iri(old.value.rsplit("/", 1)[0] + "/" + local[:-36] + local[-36:].upper())
        g = c.graph
        for t in list(g):
            changed = t
            if t.subject == old:
                changed = Triple(new, changed.predicate, changed.object)
            if t.object == old:
                changed = Triple(changed.subject, changed.predicate, new)
            if changed is not t:
                g = g.remove(t).insert(changed)
        assert validate_graph(g, schema, catalog).ok


class TestR05NameSplit:
    """The kebab head and the 37-character -<uuid-v4> tail are checked apart;
    the verdict is that of one anchored regex over the whole local name."""

    ONE_REGEX = re.compile(
        r"^[a-z0-9]+(-[a-z0-9]+)*-"
        r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-4[0-9a-fA-F]{3}-[89abAB][0-9a-fA-F]{3}-[0-9a-fA-F]{12}$")
    UUID = "9f1b2c3d-0a0b-4c0d-8e0f-00112233aabb"

    @pytest.mark.parametrize("local", [
        f"grid-{UUID}", f"a-{UUID}", f"9-grid-x1-{UUID}", f"grid-{UUID.upper()}",
        f"grid-{UUID[:19]}b{UUID[20:]}", UUID, f"-{UUID}", f"--{UUID}", f"-grid-{UUID}",
        f"grid--x-{UUID}", f"grid-{UUID}-", f"grid_{UUID}", f"grid{UUID}", f"grid-{UUID[:-1]}",
        f"grid-{UUID}0", f"grid-x{UUID}", f"grid-{UUID[:19]}c{UUID[20:]}", f"grid-{UUID[1:]}",
        f"gr.id-{UUID}", f"grid-{UUID[:14]}3{UUID[15:]}",
    ])
    def test_verdict_matches_one_regex(self, case, schema, catalog, local):
        c, n = case
        old = n["comp"]
        new = Iri(old.value.rsplit("/", 1)[0] + "/" + local)
        g = Graph(Triple(new if t.subject == old else t.subject, t.predicate,
                         new if t.object == old else t.object) for t in c.graph)
        assert ("R05" in codes(g, schema, catalog)) is (self.ONE_REGEX.match(local) is None)


class TestLiteralShapeRules:
    def test_r06_bad_technique_id(self, case, schema, catalog):
        c, n = case
        g = c.graph
        old = g.match(n["tech"], PROP_TECHNIQUE_ID, None)[0]
        g = g.remove(old).insert(
            Triple(n["tech"], PROP_TECHNIQUE_ID, Literal("T1566.2")))
        assert codes(g, schema, catalog) == ["R06"]

    def test_r07_bad_capec_id(self, case, schema, catalog):
        c, n = case
        pat = c.graph.match(None, PROP_CAPEC_ID, None)[0]
        g = c.graph.remove(pat).insert(
            Triple(pat.subject, PROP_CAPEC_ID, Literal("CAPEC650")))
        assert codes(g, schema, catalog) == ["R07"]

    def test_r08_short_md5(self, case, schema, catalog):
        c, n = case
        old = c.graph.match(n["item"], PROP_MD5, None)[0]
        g = c.graph.remove(old).insert(
            Triple(n["item"], PROP_MD5, Literal("0" * 31)))
        assert codes(g, schema, catalog) == ["R08"]

    def test_r08_uppercase_md5(self, case, schema, catalog):
        c, n = case
        old = c.graph.match(n["item"], PROP_MD5, None)[0]
        g = c.graph.remove(old).insert(
            Triple(n["item"], PROP_MD5, Literal("A" * 32)))
        assert codes(g, schema, catalog) == ["R08"]

    @pytest.mark.parametrize("prop, lexical, code", [
        (PROP_TECHNIQUE_ID, "T1190\n", "R06"),
        (PROP_TECHNIQUE_ID, "T\u0661\u0661\u0669\u0660", "R06"),
        (PROP_CAPEC_ID, "CAPEC-1\n", "R07"),
        (PROP_MD5, "0" * 32 + "\n", "R08"),
        (PROP_CVE_ID, "CVE-2021-\u0661\u0662\u0663\u0664", "R12"),
    ])
    def test_other_digits_and_trailing_newline_fire(self, case, schema, catalog,
                                                    prop, lexical, code):
        c, n = case
        old = c.graph.match(None, prop, None)[0]
        g = c.graph.remove(old).insert(Triple(old.subject, prop, Literal(lexical)))
        assert codes(g, schema, catalog) == [code]

    def test_r12_two_digit_year(self, case, schema, catalog):
        c, n = case
        old = [t for t in c.graph.match(n["tech"], None, None)
               if t.predicate.local_name() == "cveId"][0]
        g = c.graph.remove(old).insert(
            Triple(n["tech"], old.predicate, Literal("CVE-22-2884")))
        assert codes(g, schema, catalog) == ["R12"]


class TestR09Targets:
    def test_untargeted_threat_warns(self, case, schema, catalog):
        c, n = case
        g = c.graph
        for t in g.match(n["threat"], PROP_TARGETS, None):
            g = g.remove(t)
        report = validate_graph(g, schema, catalog)
        assert report.ok  # warning only
        assert [f.code for f in report.warnings] == ["R09"]
        assert report.warnings[0].severity == "Warning"


class TestR10Custody:
    def test_missing_chain_fires(self, case, schema, catalog):
        c, n = case
        g = c.graph
        # drop both custody records entirely
        for rec in {t.subject for t in g.match(None, PROP_CUSTODY_TS, None)}:
            for t in g.match(rec, None, None):
                g = g.remove(t)
        report = validate_graph(g, schema, catalog)
        assert [f.code for f in report.findings] == ["R10"]
        assert "no custody chain" in report.findings[0].message

    def test_non_increasing_timestamps_fire(self, case, schema, catalog):
        c, n = case
        g = c.graph
        ts = sorted(g.match(None, PROP_CUSTODY_TS, None),
                    key=lambda t: t.object.lexical)
        first, second = ts[0], ts[1]
        g = (g.remove(first).remove(second)
              .insert(Triple(first.subject, PROP_CUSTODY_TS, second.object))
              .insert(Triple(second.subject, PROP_CUSTODY_TS, first.object)))
        assert codes(g, schema, catalog) == ["R10"]

    def test_equal_timestamps_fire(self, case, schema, catalog):
        c, n = case
        g = c.graph
        ts = sorted(g.match(None, PROP_CUSTODY_TS, None),
                    key=lambda t: t.object.lexical)
        first, second = ts[0], ts[1]
        g = g.remove(second).insert(
            Triple(second.subject, PROP_CUSTODY_TS, first.object))
        assert codes(g, schema, catalog) == ["R10"]

    def test_doubled_sequence_reads_the_canonical_first(self, schema, catalog):
        # the record keeps "1" of "1" and "3", so seized (01:00) comes before
        # imaged (02:00); only the second value itself is a finding
        findings = validate_graph(doubled_sequence_case().graph, schema, catalog).findings
        assert [(f.code, f.message.split(" has ")[0]) for f in findings] == [
            ("R04", "functional property custodySequence")]

    def test_indicator_evidence_needs_no_chain(self, schema, catalog):
        c, _ = build_case()
        c.add_evidence(evidence("DomainIndicator"),
                       attrs={"domainName": "agegamepay.com",
                              "iocSource": "reversing"})
        assert validate_graph(c.graph, schema, catalog).ok


class TestCustodySequence:
    """R10 and the report read a record's sequence through one reader."""

    REC = Iri("http://example.org/kb/record")

    def sequence(self, *values):
        return custody_sequence(Graph([Triple(self.REC, PROP_CUSTODY_SEQ, v) for v in values]),
                                self.REC)

    def test_reads_the_canonical_first_literal(self):
        assert self.sequence(Literal("3", XSD_INTEGER), Literal("1", XSD_INTEGER)) == 1
        assert self.sequence(Literal("007", XSD_INTEGER)) == 7
        assert self.sequence(Literal("-2")) == -2
        assert self.sequence(Iri("http://example.org/kb/x"), Literal("4", XSD_INTEGER)) == 4

    @pytest.mark.parametrize("lexical", ["+-5", "\u00b2", "\u0665", "5\n", "1.0", ""])
    def test_a_malformed_value_is_none(self, lexical):
        assert self.sequence(Literal(lexical)) is None

    def test_the_first_value_decides(self):
        # "+-5" sorts before "9", so the well-formed later value is not read
        assert self.sequence(Literal("+-5"), Literal("9", XSD_INTEGER)) is None

    def test_none_without_a_value(self):
        assert self.sequence() is None
        assert self.sequence(Iri("http://example.org/kb/x")) is None


class TestR11CrimeType:
    def test_missing_crime_type_fires(self, case, schema, catalog):
        c, n = case
        g = c.graph
        for t in g.match(n["crime"], PROP_CRIME_TYPE, None):
            g = g.remove(t)
        assert codes(g, schema, catalog) == ["R11"]

    def test_unknown_crime_type_fires(self, case, schema, catalog):
        c, n = case
        g = c.graph
        for t in g.match(n["crime"], PROP_CRIME_TYPE, None):
            g = g.remove(t)
        g = g.insert(Triple(n["crime"], PROP_CRIME_TYPE, Literal("Jaywalking")))
        report = validate_graph(g, schema, catalog)
        assert [f.code for f in report.findings] == ["R11"]
        assert "Jaywalking" in report.findings[0].message


class TestReportShape:
    def test_findings_sorted_by_code_subject_message(self, case, schema, catalog):
        c, n = case
        g = c.graph
        for t in g.match(n["action"], RDF_TYPE, None):
            g = g.remove(t)
        g = g.insert(Triple(n["item"], PROP_MD5, Literal("f" * 32)))
        g = g.insert(Triple(n["item"], PROP_MD5, Literal("e" * 32)))
        report = validate_graph(g, schema, catalog)
        keys = [(f.code, f.subject.value, f.message) for f in report.findings]
        assert keys == sorted(keys)

    def test_to_text_tab_separated(self, case, schema, catalog):
        c, n = case
        g = c.graph.insert(Triple(n["item"], PROP_MD5, Literal("f" * 32)))
        report = validate_graph(g, schema, catalog)
        line = report.to_text().splitlines()[0]
        code, severity, subject, message = line.split("\t")
        assert code == "R04"
        assert severity == "Error"
        assert subject == n["item"].value
        assert "md5Hash" in message

    def test_to_json_dict_counts(self, case, schema, catalog):
        c, n = case
        g = c.graph
        for t in g.match(n["threat"], PROP_TARGETS, None):
            g = g.remove(t)
        g = g.insert(Triple(n["item"], PROP_MD5, Literal("f" * 32)))
        d = validate_graph(g, schema, catalog).to_json_dict()
        assert d["error_count"] == 1
        assert d["warning_count"] == 1
        assert d["schema_version"] == schema.version
        assert {f["code"] for f in d["findings"]} == {"R04", "R09"}

    def test_validation_is_deterministic(self, case, schema, catalog):
        c, n = case
        g = c.graph
        for t in g.match(n["action"], RDF_TYPE, None):
            g = g.remove(t)
        a = validate_graph(g, schema, catalog)
        b = validate_graph(g, schema, catalog)
        assert a == b
        assert a.to_text() == b.to_text()


class TestExplainRule:
    def test_twelve_rule_codes(self):
        assert RULE_CODES == tuple(f"R{i:02d}" for i in range(1, 13))

    @pytest.mark.parametrize("code", [f"R{i:02d}" for i in range(1, 13)] + ["M01"])
    def test_every_code_explained(self, code):
        text = explain_rule(code)
        assert text.startswith(code)
        assert len(text) > 40

    def test_severity_in_explanation(self):
        assert "(Warning)" in explain_rule("R09")
        assert "(Error)" in explain_rule("R10")
        assert "(Error)" in explain_rule("M01")

    def test_unknown_rule(self):
        with pytest.raises(UnknownRuleError):
            explain_rule("R99")


class TestTimestampHelper:
    @pytest.mark.parametrize("good", [
        "2100-01-01T06:00:00Z",
        "1970-01-01T00:00:00Z",
        "2023-06-30T23:59:59.125Z",
        "2023-06-30T23:59:59.5Z",
        "2023-06-30T23:59:59.1234567Z",
    ])
    def test_accepts(self, good):
        assert is_valid_utc_timestamp(good)

    @pytest.mark.parametrize("bad", [
        "2100-01-01T06:00:00",            # no zone
        "2100-01-01T06:00:00+08:00",      # offset form
        "2100-01-01 06:00:00Z",           # space separator
        "2100-02-30T06:00:00Z",           # no such day
        "2100-13-01T06:00:00Z",           # no such month
        "yesterday",
        "",
    ])
    def test_rejects(self, bad):
        assert not is_valid_utc_timestamp(bad)

    @pytest.mark.parametrize("bad", [
        "2023-06-30T23:59:59.\u0665Z",       # fraction in Arabic-Indic digits
        "2023-06-30T23:59:59Z\n",           # trailing newline
    ])
    def test_rejects_other_digits_and_trailing_newline(self, bad):
        assert not is_valid_utc_timestamp(bad)


class TestCompiledView:
    def test_ancestors_once_per_class(self, monkeypatch, schema, catalog):
        g = parse_turtle(random_case_script(random.Random(21)).to_turtle())
        # a node typed with two classes, each also a type of other nodes
        typed = g.match(None, RDF_TYPE, None)
        other = next(t.object for t in typed if t.object != typed[0].object)
        g = g.insert(Triple(typed[0].subject, RDF_TYPE, other))
        classes = {t.object for t in g.scan(None, RDF_TYPE, None)}
        calls = []
        monkeypatch.setattr(Schema, "ancestors",
                            lambda self, cls, f=Schema.ancestors: calls.append(cls) or f(self, cls))
        report = validate_graph(g, schema, catalog)
        monkeypatch.undo()
        assert report.checked_triples == len(g)
        assert len(calls) == len(set(calls)) <= len(classes)

    def test_reads_only_the_graph_index(self, monkeypatch, schema, catalog):
        windowed = load_schema([*(p.read_text(encoding="utf-8") for p in
                                  sorted(SCHEMA_DIR.glob("*.ttl"))), _WINDOWED_SCHEMA_DOC])
        cases = [(parse_turtle(fixture_text(name)), schema)
                 for name in ("scenario1", "scenario2", "scenario3")]
        g = cases[0][0]
        targets = g.match(None, PROP_TARGETS, None)[0]
        threat, component = targets.subject, targets.object
        broken = g.insert_all([
            Triple(BlankNode("loose"), PROP_MD5, Literal("0" * 32)),  # R01: untyped
            Triple(component, PROP_TARGETS, threat),  # R02: outside the domain
            Triple(threat, PROP_TARGETS, Literal("a node")),  # R03: literal object
            Triple(threat, PROP_TARGETS, BlankNode("loose")),  # R04: a third value
        ])
        cases += [(broken, schema), (broken, windowed)]
        # fresh copies, so each run builds its own index
        want = [validate_graph(Graph(case.triples), sch, catalog).to_text()
                for case, sch in cases]
        assert {"R01", "R02", "R03", "R04"} <= {line[:3] for line in want[4].splitlines()}

        def no_iteration(self):
            raise AssertionError("validation iterated the graph")

        monkeypatch.setattr(Graph, "__iter__", no_iteration)
        assert [validate_graph(Graph(case.triples), sch, catalog).to_text()
                for case, sch in cases] == want


# -- findings pinned on seeded broken fixtures --

PINNED_FINDINGS = Path(__file__).resolve().parent / "data" / "validation_findings_pinned.txt"
SCHEMA_DIR = FIXTURE_DIR.parent / "schemas"
_UNDECLARED = Iri("http://example.org/undeclared/Hologram")

# a schema variant with a floor and a non-functional ceiling, so R04's
# min side fires too (the embedded schema declares no minCount)
_WINDOWED_SCHEMA_DOC = f"""
@prefix scm: <{SCOPE_META}> .
@prefix scope-threats: <https://ontology.scopeontology.org/scope/threats/> .
@prefix case-investigation: <https://ontology.caseontology.org/case/investigation/> .
scope-threats:targets scm:minCount 1 ; scm:maxCount 2 .
case-investigation:performedBy scm:minCount 1 .
"""

_BAD_LITERALS = (
    Literal("yesterday", XSD_DATETIME),
    Literal("2100-01-01T06:00:00+08:00", XSD_DATETIME),
    Literal("12x", XSD_INTEGER),
    Literal("yes", XSD_BOOLEAN),
    Literal("1.2.3", XSD_DECIMAL),
    Literal("label", lang="en"),
    Literal("plain"),
)
_BAD_SHAPES = {
    PROP_TECHNIQUE_ID: Literal("T99"),
    PROP_CAPEC_ID: Literal("CAPEC-x"),
    PROP_MD5: Literal("ABC"),
    PROP_CVE_ID: Literal("CVE-22-1"),
    PROP_CRIME_TYPE: Literal("Jaywalking"),
}


def _broken_fixture(g: Graph, schema, rng: random.Random) -> Graph:
    """g with one to four seeded breaks: dropped or foreign types, wrong-range
    objects, bad literals, extra values, dropped properties, blank subjects."""
    triples = set(g)
    for _ in range(rng.randint(1, 4)):
        ordered = sorted(triples, key=triple_sort_key)
        subjects = sorted({t.subject for t in ordered}, key=term_sort_key)
        t = rng.choice(ordered)
        s = rng.choice(subjects)
        kind = rng.randrange(12)
        if kind == 0:  # drop a type
            typed = [u for u in ordered if u.predicate == RDF_TYPE]
            triples.discard(rng.choice(typed))
        elif kind == 1:  # undeclared class, beside or instead of the old type
            if rng.random() < 0.5:
                triples -= {u for u in ordered if u.subject == s and u.predicate == RDF_TYPE}
            triples.add(Triple(s, RDF_TYPE, _UNDECLARED))
        elif kind == 2:  # retype or add a second declared class
            cls = rng.choice(sorted(schema.classes, key=term_sort_key))
            if rng.random() < 0.5:
                triples -= {u for u in ordered if u.subject == s and u.predicate == RDF_TYPE}
            triples.add(Triple(s, RDF_TYPE, cls))
        elif kind == 3:  # an object swapped for another node or a literal
            triples.discard(t)
            obj = rng.choice(subjects) if rng.random() < 0.7 else Literal("a node")
            triples.add(Triple(t.subject, t.predicate, obj))
        elif kind == 4:  # a literal swapped for a malformed one
            lits = [u for u in ordered if isinstance(u.object, Literal)]
            u = rng.choice(lits)
            triples.discard(u)
            bad = _BAD_SHAPES.get(u.predicate) if rng.random() < 0.7 else None
            triples.add(Triple(u.subject, u.predicate, bad or rng.choice(_BAD_LITERALS)))
        elif kind == 5:  # an extra distinct value on any property
            obj = (Literal(t.object.lexical + "0", t.object.datatype, t.object.lang)
                   if isinstance(t.object, Literal) else rng.choice(subjects))
            triples.add(Triple(t.subject, t.predicate, obj))
        elif kind == 6:  # drop a property value (targets, custody, crimeType, ...)
            triples.discard(t)
        elif kind == 7:  # a declared property asserted on an arbitrary node
            p = rng.choice(sorted(schema.properties, key=term_sort_key))
            triples.add(Triple(s, p, t.object))
        elif kind == 8:  # a node renamed to a blank node or a bad name everywhere
            b = (BlankNode(f"b{rng.randrange(100)}") if rng.random() < 0.5
                 else Iri(f"http://example.org/kb/Node_{rng.randrange(100)}"))
            triples = {Triple(b if u.subject == s else u.subject, u.predicate,
                              b if u.object == s else u.object) for u in triples}
        elif kind == 9:  # a literal or blank rdf:type object
            triples.add(Triple(s, RDF_TYPE, rng.choice((Literal("Threat"), BlankNode("cls")))))
        elif kind == 10:  # a malformed identifier, digest or crime type
            p = rng.choice(sorted(_BAD_SHAPES, key=term_sort_key))
            triples.add(Triple(s, p, _BAD_SHAPES[p]))
        else:  # a custody timestamp moved to the epoch
            ts = [u for u in ordered if u.predicate == PROP_CUSTODY_TS]
            if ts:
                u = rng.choice(ts)
                triples.discard(u)
                triples.add(Triple(u.subject, u.predicate,
                                   Literal("1970-01-01T00:00:00Z", XSD_DATETIME)))
    return Graph(triples)


def pinned_findings_text(schema, catalog) -> str:
    """Reports for 90 seeded broken fixtures, 30 per scenario, every third one
    against the windowed schema variant."""
    windowed = load_schema([*(p.read_text(encoding="utf-8") for p in
                              sorted(SCHEMA_DIR.glob("*.ttl"))), _WINDOWED_SCHEMA_DOC])
    out = []
    for name in ("scenario1", "scenario2", "scenario3"):
        g = parse_turtle(fixture_text(name))
        for i in range(30):
            rng = random.Random(f"{name}-{i}")
            report = validate_graph(_broken_fixture(g, schema, rng),
                                    windowed if i % 3 == 2 else schema, catalog)
            out.append(f"## {name} {i}\n{report.to_text()}")
    return "".join(out)


def _pinned_cases(text: str) -> list[str]:
    return re.split(r"(?m)^## ", text)[1:]


class TestFindingsPinned:
    def test_reports_match_pinned_text(self, schema, catalog):
        want = PINNED_FINDINGS.read_text(encoding="utf-8")
        got = pinned_findings_text(schema, catalog)
        for w, g in zip(_pinned_cases(want), _pinned_cases(got)):
            assert g == w
        assert got == want

    def test_pinned_cases_break_something(self):
        text = PINNED_FINDINGS.read_text(encoding="utf-8")
        cases = _pinned_cases(text)
        assert len(cases) == 90
        assert sum(case.count("\n") > 1 for case in cases) >= 70
        fired = {line.split("\t")[0] for line in text.splitlines() if "\t" in line}
        assert fired == set(RULE_CODES)


if __name__ == "__main__":
    # writes the pinned reports for the validator as it stands
    from scopekit.catalog import load_default_catalog
    from scopekit.schema import load_default_schema

    PINNED_FINDINGS.parent.mkdir(exist_ok=True)
    PINNED_FINDINGS.write_text(
        pinned_findings_text(load_default_schema(), load_default_catalog()), encoding="utf-8")
