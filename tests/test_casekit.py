"""Case building, IoC exchange, diff/apply, and merge semantics."""

import random
import uuid

import pytest

from scopekit import casekit, cli, terms
from scopekit.casekit import CustodyEvent, Ioc, first_literal, kebab
from scopekit.catalog import load_default_catalog
from scopekit.errors import (
    CaseMismatchError,
    CsvFormatError,
    DanglingTargetError,
    InvalidNameError,
    InvalidTimestampError,
    MalformedIdError,
    UnknownClassError,
    UnknownIdError,
    UnknownPropertyError,
)
from scopekit.namespaces import (
    KB,
    PROP_CAPEC_ID,
    PROP_CUSTODY_ACTION,
    PROP_CUSTODY_OF,
    PROP_CUSTODY_SEQ,
    PROP_CVE_ID,
    PROP_DESCRIPTION,
    PROP_MD5,
    PROP_NAME,
    PROP_TARGETS,
    PROP_TECHNIQUE_ID,
    attackpatterns,
    evidence,
    infrastructure,
    role,
    threats,
)
from scopekit.ntriples import parse_ntriples, serialize_ntriples_canonical
from scopekit.schema import load_default_schema
from scopekit.terms import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_INTEGER,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    skolemize,
)
from scopekit.turtle import parse_turtle, serialize_turtle_canonical
from scopekit.validation import validate_graph

from conftest import FIXTURE_DIR, fixture_text
from helpers import (
    blank_incident_text,
    blank_object_text,
    column_branch_graphs,
    non_functional_pair,
    stored_iocs_case,
)


T0 = "2100-01-01T00:00:00Z"


def make_case(seed=11, name="merge-lab"):
    return casekit.new_case(name, at=T0, rng=random.Random(seed))


class TestKebab:
    @pytest.mark.parametrize("given,expected", [
        ("ResourceSystem", "resource-system"),
        ("DigitalOperationalTechnologyLayer", "digital-operational-technology-layer"),
        ("Meter head-end OT layer", "meter-head-end-ot-layer"),
        ("APT41", "apt41"),
        ("already-kebab", "already-kebab"),
        ("  padded  ", "padded"),
    ])
    def test_examples(self, given, expected):
        assert kebab(given) == expected

    def test_symbols_collapse(self):
        assert kebab("a//b__c") == "a-b-c"


class TestNewCase:
    def test_case_node_shape(self):
        c = make_case(name="punggol 2100 triage")
        assert c.name == "punggol 2100 triage"
        assert c.created == T0
        assert c.case_iri.value.startswith("http://example.org/kb/punggol-2100-triage-")

    def test_seeded_minting_is_deterministic(self):
        a, b = make_case(5), make_case(5)
        assert a.case_iri == b.case_iri
        assert a.graph == b.graph

    def test_different_seeds_differ(self):
        assert make_case(5).case_iri != make_case(6).case_iri

    @pytest.mark.parametrize("bad", ["", "   ", "!!!"])
    def test_unusable_names(self, bad):
        with pytest.raises(InvalidNameError):
            casekit.new_case(bad, at=T0)

    @pytest.mark.parametrize("bad", ["2100-01-01", "2100-01-01T00:00:00",
                                     "2100-01-01T00:00:00+08:00", "soon"])
    def test_bad_timestamps(self, bad):
        with pytest.raises(InvalidTimestampError):
            casekit.new_case("x", at=bad)


class TestBuilders:
    def test_component_must_be_infrastructure(self):
        c = make_case()
        with pytest.raises(UnknownClassError):
            c.add_component(role("Adversary"), "not infrastructure")
        with pytest.raises(UnknownClassError):
            c.add_component(infrastructure("Nonexistent"), "undeclared")

    def test_threat_requires_existing_target(self):
        c = make_case()
        ghost = Iri("http://example.org/kb/ghost-0bd1a6d2-33aa-4f2e-9842-9ab2c3d4e5f6")
        with pytest.raises(DanglingTargetError):
            c.add_threat(threats("Spoofing"), ghost)

    def test_threat_class_must_be_stride(self):
        c = make_case()
        comp = c.add_component(infrastructure("WaterSystem"), "plant")
        with pytest.raises(UnknownClassError):
            c.add_threat(infrastructure("WaterSystem"), comp)

    def test_crime_type_closed_set(self):
        c = make_case()
        comp = c.add_component(infrastructure("WaterSystem"), "plant")
        with pytest.raises(UnknownClassError):
            c.add_crime("Mischief", comp)

    def test_a_base_with_no_kebab_mints_nothing(self):
        with pytest.raises(InvalidNameError) as err:
            make_case().mint("-- --")
        assert str(err.value) == "cannot derive a name from '-- --'"

    def test_add_node_of_an_undeclared_class(self):
        c = make_case()
        before, undeclared = c.graph, infrastructure("Nonexistent")
        with pytest.raises(UnknownClassError) as err:
            c.add_node(undeclared, "x")
        assert str(err.value) == f"class not declared: {undeclared}"
        assert c.graph is before

    def test_evidence_attrs_by_declared_iri_and_by_value_type(self):
        # a Literal is kept as it is, a bool is an xsd:boolean before an int an xsd:integer
        c = make_case()
        values = {PROP_MD5: Literal("a" * 32), PROP_DESCRIPTION: True, PROP_CUSTODY_SEQ: 3}
        item = c.add_evidence(evidence("DeviceImage"), attrs=values)
        assert {p: c.graph.objects_of(item, p) for p in values} == {
            PROP_MD5: [Literal("a" * 32)], PROP_DESCRIPTION: [Literal("true", XSD_BOOLEAN)],
            PROP_CUSTODY_SEQ: [Literal("3", XSD_INTEGER)]}

    def test_evidence_class_checked(self):
        c = make_case()
        with pytest.raises(UnknownClassError):
            c.add_evidence(infrastructure("WaterSystem"))

    def test_evidence_attr_shorthand_rejects_unknown(self):
        c = make_case()
        with pytest.raises(UnknownPropertyError):
            c.add_evidence(evidence("DeviceImage"), attrs={"serialNo": "X1"})
        with pytest.raises(UnknownPropertyError):
            c.add_evidence(evidence("DeviceImage"),
                           attrs={Iri("http://schema.example/undeclared"): "v"})

    def test_acquired_evidence_is_auto_seized(self):
        c = make_case()
        item = c.add_evidence(evidence("DeviceImage"), attrs={"md5": "a" * 32},
                              seized_at="2100-01-02T00:00:00Z")
        records = c.graph.match(None, PROP_CUSTODY_OF, item)
        assert len(records) == 1
        rec = records[0].subject
        actions = [o.lexical for o in c.graph.objects_of(rec, PROP_CUSTODY_ACTION)]
        assert actions == ["Seized"]

    def test_seizure_defaults_to_case_opening(self):
        c = make_case()
        item = c.add_evidence(evidence("MemoryCapture"))
        rec = c.graph.match(None, PROP_CUSTODY_OF, item)[0].subject
        from scopekit.namespaces import PROP_CUSTODY_TS
        stamps = [o.lexical for o in c.graph.objects_of(rec, PROP_CUSTODY_TS)]
        assert stamps == [T0]

    def test_indicator_evidence_has_no_custody(self):
        c = make_case()
        item = c.add_evidence(evidence("DomainIndicator"),
                              attrs={"domainName": "ageofwuxia.com"})
        assert c.graph.match(None, PROP_CUSTODY_OF, item) == []

    def test_custody_sequence_numbers_increase(self):
        c = make_case()
        analyst = c.add_role(role("ForensicAnalyst"), "Analyst")
        item = c.add_evidence(evidence("DeviceImage"))
        c.add_custody_event(item, "Imaged", "2100-01-01T01:00:00Z", actor=analyst)
        c.add_custody_event(CustodyEvent(item, analyst, "Analyzed",
                                         "2100-01-01T02:00:00Z"))
        seqs = sorted(
            int(c.graph.objects_of(t.subject, PROP_CUSTODY_SEQ)[0].lexical)
            for t in c.graph.match(None, PROP_CUSTODY_OF, item))
        assert seqs == [1, 2, 3]

    def test_custody_action_closed_set(self):
        c = make_case()
        item = c.add_evidence(evidence("DeviceImage"))
        with pytest.raises(InvalidNameError):
            c.add_custody_event(item, "Borrowed", "2100-01-01T01:00:00Z")

    def test_custody_timestamp_checked(self):
        c = make_case()
        item = c.add_evidence(evidence("DeviceImage"))
        with pytest.raises(InvalidTimestampError):
            c.add_custody_event(item, "Imaged", "tomorrow")

    def test_action_requires_description(self):
        c = make_case()
        with pytest.raises(InvalidNameError):
            c.add_action("", T0)


class TestAttachTechnique:
    def test_technique_node_reused_within_case(self):
        c = make_case()
        comp = c.add_component(infrastructure("EnergySystem"), "grid")
        crime = c.add_crime("IllegalAccess", comp)
        threat = c.add_threat(threats("Tampering"), comp)
        t1 = c.attach_technique(crime, "T1190")
        t2 = c.attach_technique(threat, "T1190")
        assert t1 == t2
        assert len(c.graph.match(None, PROP_TECHNIQUE_ID, Literal("T1190"))) == 1

    def test_capec_patterns_minted_once(self):
        c = make_case()
        comp = c.add_component(infrastructure("EnergySystem"), "grid")
        threat = c.add_threat(threats("Tampering"), comp)
        c.attach_technique(threat, "T1190", capec=True)
        c.attach_technique(threat, "T1190", capec=True)
        assert len(c.graph.match(None, PROP_CAPEC_ID, Literal("CAPEC-650"))) == 1

    def test_unknown_and_malformed_ids(self):
        c = make_case()
        comp = c.add_component(infrastructure("EnergySystem"), "grid")
        threat = c.add_threat(threats("Tampering"), comp)
        with pytest.raises(UnknownIdError):
            c.attach_technique(threat, "T9999")
        with pytest.raises(MalformedIdError):
            c.attach_technique(threat, "1190")
        with pytest.raises(MalformedIdError):
            c.attach_technique(threat, "T1190", cve="CVE-22-1")

    def test_attached_case_stays_valid(self, schema, catalog):
        c = make_case()
        comp = c.add_component(infrastructure("EnergySystem"), "grid")
        threat = c.add_threat(threats("Tampering"), comp)
        c.attach_technique(threat, "T1486", capec=True, cve="CVE-2022-2884")
        assert c.validate().ok


class TestAtomicBuilders:
    """A builder call checks every argument before it writes: one that
    raises leaves the case as it was."""

    GHOST = Iri("http://example.org/kb/ghost-0bd1a6d2-33aa-4f2e-9842-9ab2c3d4e5f6")

    @pytest.mark.parametrize("call,error", [
        (lambda c, comp, item, ghost: c.add_crime("IllegalAccess", comp, adversary=ghost),
         DanglingTargetError),
        (lambda c, comp, item, ghost: c.add_action("imaged", T0, by=ghost),
         DanglingTargetError),
        (lambda c, comp, item, ghost: c.add_evidence(evidence("DeviceImage"), {"nosuch": "x"}),
         UnknownPropertyError),
        (lambda c, comp, item, ghost: c.add_evidence(evidence("DeviceImage"), crime=ghost),
         DanglingTargetError),
        (lambda c, comp, item, ghost: c.add_evidence(evidence("DeviceImage"), seized_by=ghost),
         DanglingTargetError),
        (lambda c, comp, item, ghost: c.add_custody_event(item, "Imaged", T0, actor=ghost),
         DanglingTargetError),
        (lambda c, comp, item, ghost: c.attach_technique(comp, "T1190", capec=True,
                                                         cve="CVE-bad"),
         MalformedIdError),
    ], ids=["crime-adversary", "action-by", "evidence-attrs", "evidence-crime",
            "evidence-seized-by", "custody-actor", "technique-cve"])
    def test_a_call_that_raises_writes_nothing(self, call, error):
        c = make_case()
        comp = c.add_component(infrastructure("EnergySystem"), "grid")
        item = c.add_evidence(evidence("DeviceImage"))
        before = c.graph
        with pytest.raises(error):
            call(c, comp, item, self.GHOST)
        assert c.graph == before

    def test_a_call_shares_the_pattern_nodes_it_mints(self, monkeypatch):
        c = make_case()
        threat = c.add_threat(threats("Tampering"),
                              c.add_component(infrastructure("EnergySystem"), "grid"))
        patterns = c.catalog.capec_for_technique("T1190")
        assert patterns
        monkeypatch.setattr(c.catalog, "capec_for_technique", lambda _: patterns * 2)
        technique = c.attach_technique(threat, "T1190", capec=True)
        for pattern in patterns:
            assert len(c.graph.scan(None, PROP_CAPEC_ID, Literal(pattern.id))) == 1
        assert {t.object for t in c.graph.scan(technique, attackpatterns("relatedPattern"))} == {
            t.subject for t in c.graph.scan(None, PROP_CAPEC_ID, None)}
        assert c.validate().ok

    def test_mint_writes_the_uuid4_of_the_rngs_draw(self):
        c = make_case(seed=24)
        twin = random.Random(24)
        twin.getrandbits(128)  # the case IRI's draw
        for _ in range(1000):
            want = uuid.UUID(int=twin.getrandbits(128), version=4)
            assert c.mint("DeviceImage") == Iri(f"{KB}device-image-{want}")


class TestIocs:
    CSV = (
        "kind,value,source\n"
        "Md5Hash,00C4C3946EC03C915CFE4CBDDFFE93DA,reversing\n"
        "Domain,agegamepay[.]com,reversing\n"
        "Domain,ageofwuxia[.]org,reversing\n"
    )

    def test_import_normalizes(self):
        c = make_case()
        assert c.import_iocs(self.CSV) == 3
        assert c.ioc_import_errors == []
        got = c.iocs()
        assert [i.value for i in got] == [
            "agegamepay.com", "ageofwuxia.org",
            "00c4c3946ec03c915cfe4cbddffe93da"]
        assert [i.kind for i in got] == ["Domain", "Domain", "Md5Hash"]

    def test_reimport_does_not_duplicate(self):
        c = make_case()
        c.import_iocs(self.CSV)
        before = len(c.graph)
        assert c.import_iocs(self.CSV) == 3  # counted, not re-minted
        assert len(c.graph) == before

    def test_export_defangs_and_round_trips(self):
        c = make_case()
        c.import_iocs(self.CSV)
        out = c.export_iocs()
        assert "agegamepay[.]com" in out
        assert "agegamepay.com," not in out
        d = make_case(seed=99)
        d.import_iocs(out)
        assert d.iocs() == c.iocs()

    def test_bad_rows_are_collected_not_fatal(self):
        c = make_case()
        rows = ("kind,value,source\n"
                "Md5Hash,zz,lab\n"
                "Domain,has space.com,lab\n"
                "Beacon,10.0.0.1,lab\n"
                "Domain,ageofwuxia[.]net,lab\n"
                "Domain,has\ttab.com,lab\n"
                "Domain,has\x00nul.com,lab\n"
                'Domain,"has\nnewline.com",lab\n')
        assert c.import_iocs(rows) == 1
        assert len(c.ioc_import_errors) == 6
        assert [e.split(":")[0] for e in c.ioc_import_errors[3:]] == ["row 6", "row 7", "row 8"]
        assert [i.value for i in c.iocs()] == ["ageofwuxia.net"]

    def test_blank_rows_are_skipped_and_counted(self):
        c = make_case()
        rows = "kind,value,source\n\n , , \nMd5Hash,zz,lab\nDomain,ageofwuxia[.]net,lab\n"
        assert c.import_iocs(rows) == 1
        assert [e.split(":")[0] for e in c.ioc_import_errors] == ["row 4"]
        assert [i.value for i in c.iocs()] == ["ageofwuxia.net"]

    def test_structural_problems_raise(self):
        c = make_case()
        with pytest.raises(CsvFormatError):
            c.import_iocs("wrong,header\nMd5Hash,aa,bb\n")
        with pytest.raises(CsvFormatError) as err:
            c.import_iocs("kind,value,source\nMd5Hash,onlytwo\n")
        assert err.value.row == 2
        with pytest.raises(CsvFormatError):
            c.import_iocs("")

    def test_a_malformed_row_writes_no_row(self):
        c = make_case()
        before = c.graph
        with pytest.raises(CsvFormatError) as err:
            c.import_iocs("kind,value,source\nDomain,a[.]example,feed\nDomain,b.example\n")
        assert err.value.row == 3
        assert c.graph == before and c.iocs() == []

    def test_a_raising_call_leaves_the_row_errors_as_they_were(self):
        c = make_case()
        assert c.import_iocs("kind,value,source\nMd5Hash,zz,lab\n") == 0
        before = list(c.ioc_import_errors)
        with pytest.raises(CsvFormatError) as err:
            c.import_iocs("kind,value,source\nBeacon,x,lab\nDomain,a[.]example,feed\n"
                          "Domain,b.example\n")
        assert err.value.row == 4
        assert c.ioc_import_errors == before == ["row 2: not an MD5 digest: 'zz'"]
        assert c.iocs() == []

    def test_stored_defanged_domain_exports_once(self):
        out = stored_iocs_case().export_iocs()
        assert out.splitlines() == ["kind,value,source", "Domain,evil[.]example,feed",
                                    "Md5Hash,d41d8cd98f00b204e9800998ecf8427e,feed"]

    @pytest.mark.parametrize("row", ["Domain,evil[.]example,other", "Domain,evil.example,feed",
                                     "Md5Hash,D41D8CD98F00B204E9800998ECF8427E,feed",
                                     "Md5Hash,d41d8cd98f00b204e9800998ecf8427e,other"])
    def test_import_of_a_stored_value_is_counted_not_minted(self, row):
        c = stored_iocs_case()
        before = len(c.graph)
        assert c.import_iocs(f"kind,value,source\n{row}\n") == 1
        assert c.ioc_import_errors == [] and len(c.graph) == before

    def test_rows_sort_on_what_they_print(self):
        # equal kind and value, so only the source orders these rows,
        # whatever IRIs the nodes got
        rows = set()
        for seed in range(6):
            c = make_case(seed)
            for source in ("lab b", "lab c", "lab a"):
                c.add_evidence(evidence("DomainIndicator"),
                               attrs={"domainName": "a.example", "iocSource": source})
            rows.add(tuple(c.iocs()))
        assert rows == {tuple(Ioc("Domain", "a.example", f"lab {x}") for x in "abc")}

    def test_defanged_helper(self):
        assert Ioc("Domain", "a.b.c", "").defanged() == "a[.]b[.]c"
        assert Ioc("Md5Hash", "0" * 32, "").defanged() == "0" * 32


class TestFromGraph:
    def test_turtle_round_trip(self):
        c = make_case()
        comp = c.add_component(infrastructure("EnergySystem"), "grid")
        c.add_threat(threats("Tampering"), comp)
        g = parse_turtle(c.to_turtle())
        d = casekit.from_graph(g)
        assert d.case_iri == c.case_iri
        assert d.name == c.name
        assert d.graph.triples == c.graph.triples

    def test_no_incident_rejected(self):
        with pytest.raises(CaseMismatchError):
            casekit.from_graph(Graph())

    def test_two_incidents_need_explicit_pick(self):
        a, b = make_case(1, "one"), make_case(2, "two")
        g = Graph(a.graph.triples | b.graph.triples, a.graph.prefixes)
        with pytest.raises(CaseMismatchError):
            casekit.from_graph(g)
        d = casekit.from_graph(g, case_iri=b.case_iri)
        assert d.case_iri == b.case_iri

    def test_a_blank_node_incident_is_not_a_case_node(self):
        blank = parse_turtle(blank_incident_text())
        with pytest.raises(CaseMismatchError, match="^graph contains no Incident node$"):
            casekit.from_graph(blank)
        c = make_case()
        assert casekit.from_graph(c.graph.insert_all(blank)).case_iri == c.case_iri

    def test_to_turtle_skolemizes_a_case_read_with_a_blank_node(self, tmp_path):
        path = tmp_path / "case.ttl"
        path.write_text(make_case().to_turtle()
                        + '_:b0 <http://example.org/name> "alice" .\n', encoding="utf-8")
        c = casekit.from_graph(parse_turtle(path.read_bytes()))
        assert c.graph.has_blank_nodes()
        text = c.to_turtle()
        assert text == serialize_turtle_canonical(skolemize(c.graph))
        assert parse_turtle(text) == skolemize(c.graph)


class TestDiffApply:
    def test_apply_diff_reaches_target(self):
        a = make_case(3, "shared")
        b = casekit.from_graph(a.graph, case_iri=a.case_iri)
        comp = b.add_component(infrastructure("WaterSystem"), "plant")
        b.add_threat(threats("DenialOfService"), comp)

        added, removed = casekit.diff(a, b)
        assert removed == frozenset()
        patched = casekit.apply_diff(a, added, removed)
        assert patched.graph.triples == b.graph.triples

    def test_diff_of_equal_cases_is_empty(self):
        a = make_case(3)
        b = casekit.from_graph(a.graph, case_iri=a.case_iri)
        assert casekit.diff(a, b) == (frozenset(), frozenset())

    def test_reverse_diff_undoes(self):
        a = make_case(3, "shared")
        b = casekit.from_graph(a.graph, case_iri=a.case_iri)
        b.add_component(infrastructure("WaterSystem"), "plant")
        added, removed = casekit.diff(a, b)
        back = casekit.apply_diff(b, added=removed, removed=added)
        assert back.graph.triples == a.graph.triples


class TestMerge:
    def test_merge_with_self_is_identity(self):
        a = make_case()
        out = casekit.merge(a, a)
        assert out.conflicts == []
        assert out.merged.graph.triples == a.graph.triples

    def test_disjoint_edits_union_and_commute(self):
        base = make_case(4, "shared")
        a = casekit.from_graph(base.graph, case_iri=base.case_iri)
        a.add_component(infrastructure("EnergySystem"), "grid")
        b = casekit.from_graph(base.graph, case_iri=base.case_iri)
        b.add_component(infrastructure("WaterSystem"), "plant")

        ab = casekit.merge(a, b)
        ba = casekit.merge(b, a)
        assert ab.conflicts == [] and ba.conflicts == []
        assert ab.merged.graph.triples == a.graph.triples | b.graph.triples
        assert ab.merged.graph.triples == ba.merged.graph.triples

    def _conflicting_pair(self):
        a = make_case(8, "shared")
        item = a.add_evidence(evidence("DeviceImage"), attrs={"md5": "0" * 32})
        g = a.graph
        old = g.match(item, PROP_MD5, None)[0]
        g = g.remove(old).insert(Triple(item, PROP_MD5, Literal("f" * 32)))
        b = casekit.from_graph(g, case_iri=a.case_iri)
        return a, b, item

    def test_functional_conflict_keeps_first_argument(self):
        a, b, item = self._conflicting_pair()
        out = casekit.merge(a, b)
        values = {o.lexical for o in out.merged.graph.objects_of(item, PROP_MD5)}
        assert values == {"0" * 32}
        assert len(out.conflicts) == 1
        subject, pred, kept, dropped = out.conflicts[0]
        assert subject == item
        assert pred == PROP_MD5
        assert "0" * 32 in kept and "f" * 32 in dropped

    def test_conflict_lines_use_report_format(self):
        a, b, item = self._conflicting_pair()
        line = casekit.merge(a, b).conflicts_text()
        assert line.startswith(f"M01\tError\t{item.value}\tmd5Hash: kept ")
        assert line.endswith("\n")

    def test_merged_graph_still_validates(self, schema, catalog):
        a, b, _ = self._conflicting_pair()
        out = casekit.merge(a, b)
        assert out.merged.validate().ok

    def test_one_conflict_per_key_in_text_order(self):
        a = make_case(8, "shared")
        items = [a.add_evidence(evidence("DeviceImage"), attrs={"md5": "0" * 32}) for _ in range(3)]
        g = a.graph
        for item, values in zip(items, ("f", "ed", "")):
            g = g.insert_all(Triple(item, PROP_MD5, Literal(x * 32)) for x in values)
        out = casekit.merge(a, casekit.from_graph(g, case_iri=a.case_iri))
        # the conflicting subjects in text order, each naming its first dropped value
        assert out.conflicts == sorted(
            [(items[0], PROP_MD5, f'"{"0" * 32}"', f'"{"f" * 32}"'),
             (items[1], PROP_MD5, f'"{"0" * 32}"', f'"{"d" * 32}"')],
            key=lambda c: c[0].value)
        assert out.merged.graph.triples == a.graph.triples

    def test_non_functional_values_of_both_are_kept(self):
        a, b, threat = non_functional_pair()
        out = casekit.merge(a, b)
        assert out.conflicts == [] and out.conflicts_text() == ""
        assert out.merged.graph.triples == a.graph.triples | b.graph.triples
        assert len(out.merged.graph.scan(threat, PROP_TARGETS)) == 3
        assert len(out.merged.graph.scan(None, PROP_CVE_ID)) == 3

    def test_mismatched_cases_rejected(self):
        a, b = make_case(1, "one"), make_case(2, "two")
        with pytest.raises(CaseMismatchError):
            casekit.merge(a, b)
        out = casekit.merge(a, b, allow_mismatch=True)
        assert out.merged.graph.triples == a.graph.triples | b.graph.triples


def build_components(n):
    """A case grown through every builder call, n components deep."""
    c = make_case()
    analyst = c.add_role(role("ForensicAnalyst"), "Analyst")
    for i in range(n):
        comp = c.add_component(infrastructure("EnergySystem"), f"grid {i}")
        threat = c.add_threat(threats("Tampering"), comp)
        crime = c.add_crime("IllegalAccess", comp)
        item = c.add_evidence(evidence("DeviceImage"), crime=crime)
        c.add_custody_event(item, "Imaged", "2100-01-01T01:00:00Z", actor=analyst)
        c.attach_technique(threat, "T1190", capec=True)
        c.add_action(f"imaged grid {i}", "2100-01-01T02:00:00Z", by=analyst)
    return c


class TestBuilderScaling:
    def count_graph_work(self, monkeypatch, n):
        calls = {"_build_index": 0, "_grown": 0, "__init__": 0}
        for name in calls:
            original = getattr(Graph, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(Graph, name, counted)
        c = build_components(n)
        assert len(c.graph.match(c.case_iri, None, None)) == 3
        monkeypatch.undo()
        return calls

    def test_graph_work_does_not_grow_with_case_size(self, monkeypatch):
        small = self.count_graph_work(monkeypatch, 50)
        large = self.count_graph_work(monkeypatch, 200)
        assert small == large


class TestSnapshot:
    def test_earlier_snapshot_is_unchanged_by_add(self):
        c = make_case()
        before = c.graph
        triples = before.triples
        c.add_component(infrastructure("EnergySystem"), "grid")
        assert before.triples == triples
        assert len(c.graph) == len(before) + 2

    def test_reads_without_add_return_the_same_object(self):
        c = make_case()
        c.add_component(infrastructure("EnergySystem"), "grid")
        assert c.graph is c.graph

    def test_re_adding_a_triple_keeps_the_snapshot(self):
        c = make_case()
        snapshot = c.graph
        c.add(next(iter(snapshot)))
        assert c.graph is snapshot

    def test_add_rejects_a_non_triple(self):
        c = make_case()
        with pytest.raises(TypeError):
            c.add("x")
        with pytest.raises(TypeError):
            c.add_all([Triple(c.case_iri, PROP_DESCRIPTION, Literal("d")), "x"])
        assert len(c.graph) == 3

    def test_forks_do_not_share_adds(self):
        g = make_case().graph
        a, b = casekit.from_graph(g), casekit.from_graph(g)
        comp = a.add_component(infrastructure("EnergySystem"), "grid")
        b.add_component(infrastructure("WaterSystem"), "plant")
        assert a.has_node(comp) and not b.has_node(comp)
        assert len(a.graph) == len(b.graph) == len(g) + 2
        assert a.graph != b.graph

    def test_reading_a_case_keeps_the_wrapped_graph(self, scenario1):
        from scopekit.report import summarize
        c = casekit.from_graph(scenario1)
        wrapped = c.graph
        summarize(c)
        c.iocs()
        assert c.graph is wrapped

    def test_each_read_is_a_frozen_value(self, monkeypatch):
        """After every builder call, the case hands out a frozen graph, and
        no later add changes a graph it handed out."""
        seen = []  # (a graph handed out, its length, hash and scans then)

        def state(g, case_iri):
            scans = (g.scan(case_iri), g.scan(None, RDF_TYPE, None), g.scan(None, None, case_iri))
            return len(g), hash(g), [sorted(map(str, found)) for found in scans]

        def checked(builder):
            def call(c, *args, **kwargs):
                node = builder(c, *args, **kwargs)
                for g, then in seen:
                    assert state(g, c.case_iri) == then
                g = c.graph
                assert type(g.triples) is frozenset
                assert hash(g) == hash(Graph(g.triples))
                seen.append((g, state(g, c.case_iri)))
                return node
            return call

        for name in ("add_role", "add_component", "add_threat", "add_crime", "add_evidence",
                     "add_custody_event", "attach_technique", "add_action"):
            monkeypatch.setattr(casekit.CaseGraph, name, checked(getattr(casekit.CaseGraph, name)))
        c = build_components(3)
        assert len(seen) == 1 + 3 * 7 and seen[-1][0] is c.graph


def lookups(g, case_iri, component):
    """The lookups a snapshot answers, in an order-free form."""
    return (
        sorted(map(str, g.scan(case_iri))),
        sorted(map(str, g.scan(None, None, component))),
        sorted(map(str, g.scan(None, RDF_TYPE, None))),
        g.match(),
        g.match(None, RDF_TYPE, None),
        g.subjects(),
    )


class TestOneIndex:
    def grow(self, c, component):
        """Adds that reach every index list of an existing snapshot: the
        case as subject, the component as object, and rdf:type."""
        c.add(Triple(c.case_iri, PROP_DESCRIPTION, Literal("widened")))
        c.add_threat(threats("Tampering"), component)
        return c.add_component(infrastructure("WaterSystem"), "plant")

    def test_earlier_snapshot_lookups_are_unchanged_by_add(self):
        c = make_case()
        component = c.add_component(infrastructure("EnergySystem"), "grid")
        before = c.graph
        seen = lookups(before, c.case_iri, component)
        plant = self.grow(c, component)
        assert lookups(before, c.case_iri, component) == seen
        assert not before.scan(plant) and plant in c.graph.subjects()
        assert len(c.graph) == len(before) + 6

    def test_fork_adds_stay_out_of_the_wrapped_graph(self):
        c = make_case()
        component = c.add_component(infrastructure("EnergySystem"), "grid")
        g = c.graph
        seen = lookups(g, c.case_iri, component)
        fork = casekit.from_graph(g)
        plant = self.grow(fork, component)
        assert lookups(g, c.case_iri, component) == seen
        assert fork.has_node(plant) and not c.has_node(plant)
        # and the case that made g grows without reaching the fork
        mine = self.grow(c, component)
        assert lookups(g, c.case_iri, component) == seen
        assert not fork.has_node(mine)
        assert len(fork.graph) == len(c.graph) == len(g) + 6

    def test_first_literal_is_the_canonical_first(self):
        s, p = Iri("http://example.org/s"), Iri("http://example.org/p")
        iris = [Triple(s, p, Iri(f"http://example.org/{x}")) for x in "az"]

        def first(*literals):
            return first_literal(Graph(iris + [Triple(s, p, o) for o in literals]), s, p)

        # canonical order compares lexical forms as text, so "10" < "7" < "alpha"
        assert first(Literal("beta"), Literal("alpha", lang="en"), Literal("gamma", lang="de"),
                     Literal("delta")) == "alpha"
        assert first(Literal("beta"), Literal("alpha", lang="en"), Literal("7", XSD_INTEGER),
                     Literal("10", XSD_INTEGER)) == "10"
        assert first(Literal("beta")) == "beta"
        assert first() is None

    def count_index_builds(self, monkeypatch, run):
        built = []
        original = Graph._build_index
        monkeypatch.setattr(Graph, "_build_index",
                            lambda self: built.append(len(self)) or original(self))
        result = run()
        monkeypatch.undo()
        return built, result

    def test_report_builds_the_index_once(self, monkeypatch, capsys):
        # loaded once and cached: their own graphs are not the case's
        load_default_schema(), load_default_catalog()
        path = str(FIXTURE_DIR / "scenario1.ttl")
        built, code = self.count_index_builds(monkeypatch, lambda: cli.main(["report", path]))
        assert code == 0 and capsys.readouterr().out.startswith("#")
        assert len(built) == 1

    @staticmethod
    def indexed_pair():
        """Two indexed versions of a built case: b adds a component, and a
        second md5 value to an evidence item of a."""
        a = build_components(2)
        item = a.add_evidence(evidence("DeviceImage"), attrs={"md5": "0" * 32})
        b = casekit.from_graph(a.graph, rng=random.Random(5))
        b.add(Triple(item, PROP_MD5, Literal("f" * 32)))
        b.add_component(infrastructure("WaterSystem"), "plant")
        for c in (a, b):
            c.graph.scan(c.case_iri)
        return a, b

    def test_cases_open_and_merge_through_the_index(self, monkeypatch):
        want = casekit.merge(*self.indexed_pair())
        a, b = self.indexed_pair()
        load_default_schema(), load_default_catalog()

        def no_iteration(self):
            raise AssertionError("a graph was iterated")

        monkeypatch.setattr(Graph, "__iter__", no_iteration)
        opened = casekit.from_graph(a.graph)
        out = casekit.merge(a, b)
        monkeypatch.undo()
        assert opened.case_iri == a.case_iri and opened.graph.triples is a.graph.triples
        assert len(out.conflicts) == 1 and out.conflicts == want.conflicts
        assert out.merged.graph.triples == want.merged.graph.triples

    def test_first_literal_is_the_terms_reader(self):
        assert casekit.first_literal is terms.first_literal

    def count_index_builds_and_copies(self, monkeypatch, run):
        """(index builds, grown copies) while run() runs, and its result."""
        counts = [0, 0]
        build, grown = Graph._build_index, Graph._grown

        def counted_build(self):
            counts[0] += 1
            build(self)

        def counted_grown(self):
            counts[1] += 1
            return grown(self)

        monkeypatch.setattr(Graph, "_build_index", counted_build)
        monkeypatch.setattr(Graph, "_grown", counted_grown)
        result = run()
        monkeypatch.undo()
        return tuple(counts), result

    def test_add_read_cycles_copy_the_index(self, monkeypatch):
        c = make_case()
        component = c.add_component(infrastructure("EnergySystem"), "grid")
        c.graph.scan(component)

        def cycles():
            for i in range(5):
                c.add_action(f"step {i}", "2100-01-01T01:00:00Z")
                c.graph.scan(component)
            return c.graph

        counts, g = self.count_index_builds_and_copies(monkeypatch, cycles)
        assert counts == (0, 5)
        assert len(g.scan(None, PROP_DESCRIPTION, None)) == 5

    def test_ioc_import_builds_one_index(self, monkeypatch, capsys, tmp_path):
        load_default_schema(), load_default_catalog()
        feed = tmp_path / "feed.csv"
        feed.write_text("kind,value,source\nDomain,example[.]test,unit\n", encoding="utf-8")
        argv = ["iocs", "import", str(FIXTURE_DIR / "scenario1.ttl"), str(feed)]
        counts, code = self.count_index_builds_and_copies(monkeypatch, lambda: cli.main(argv))
        assert code == 0 and "imported 1 IoC rows" in capsys.readouterr().err
        assert counts == (1, 1)

    def test_forks_of_a_built_case_build_no_index(self, monkeypatch):
        c = build_components(3)
        g = c.graph
        g.scan(c.case_iri)

        def fork_twice():
            forks = [casekit.from_graph(g) for _ in range(2)]
            for fork, cls in zip(forks, ("WaterSystem", "EnergySystem")):
                fork.add_component(infrastructure(cls), "plant")
            return [fork.graph for fork in forks]

        counts, graphs = self.count_index_builds_and_copies(monkeypatch, fork_twice)
        assert counts == (0, 2)
        assert [len(fg) - len(g) for fg in graphs] == [2, 2] and graphs[0] != graphs[1]
        assert not g.scan(None, PROP_NAME, Literal("plant"))

    def test_built_case_validates_without_an_index_build(self, monkeypatch):
        # the case builds its index on its first lookup, and its graph keeps it
        built, c = self.count_index_builds(monkeypatch, lambda: build_components(5))
        assert len(built) == 1
        built, report = self.count_index_builds(monkeypatch, c.validate)
        assert report.findings == () and report.checked_triples == len(c.graph)
        assert built == []

    def test_validation_builds_each_column_once(self, monkeypatch):
        g = parse_turtle((FIXTURE_DIR / "scenario1.ttl").read_bytes())
        schema, catalog = load_default_schema(), load_default_catalog()
        returned = {}  # predicate -> each column object handed out for it
        column = Graph.column

        def recorded(graph, predicate):
            found = column(graph, predicate)
            returned.setdefault(predicate, []).append(found)
            return found

        def columns_built():
            return {p: len({id(c) for c in cs}) for p, cs in returned.items()}

        monkeypatch.setattr(Graph, "column", recorded)
        first = validate_graph(g, schema, catalog)
        built, reads = columns_built(), sum(map(len, returned.values()))
        assert set(built.values()) == {1} and reads > len(built)
        second = validate_graph(g, schema, catalog)
        assert columns_built() == built and sum(map(len, returned.values())) == 2 * reads
        assert first == second

    def test_add_keeps_a_read_column_current(self):
        c = make_case()
        assert c.name == "merge-lab"  # builds the name column of the index the case grows
        plant = c.add_component(infrastructure("WaterSystem"), "plant")
        assert first_literal(c.graph, plant, PROP_NAME) == "plant"

    def test_validation_makes_no_subject_predicate_scan(self, monkeypatch):
        graphs = [parse_turtle((FIXTURE_DIR / f"scenario{i}.ttl").read_bytes()) for i in (1, 2, 3)]
        graphs += [*column_branch_graphs().values(), build_components(3).graph]
        schema, catalog = load_default_schema(), load_default_catalog()
        scans = []
        scan = Graph.scan

        def recorded(g, subject=None, predicate=None, object=None):
            scans.append((subject, predicate))
            return scan(g, subject, predicate, object)

        monkeypatch.setattr(Graph, "scan", recorded)
        for g in graphs:
            validate_graph(g, schema, catalog)
        assert scans and [(s, p) for s, p in scans if s is not None and p is not None] == []


class TestCheckedDoor:
    """Triples that are already checked reach a graph through `Graph._of`,
    not through `Graph.__init__`'s check, and a graph works out whether it
    holds a blank node once."""

    FIXTURES = [str(FIXTURE_DIR / f"scenario{n}.ttl") for n in (1, 2, 3)]

    def test_checked_triples_do_not_pass_the_public_door(self, monkeypatch, tmp_path, capsys):
        feed = tmp_path / "feed.csv"
        feed.write_text("kind,value,source\nDomain,example[.]test,unit\n", encoding="utf-8")
        refused, init = [], Graph.__init__

        def checked_door(self, triples=(), prefixes=None):
            triples = tuple(triples)
            if triples:
                refused.append(len(triples))
            init(self, triples, prefixes)

        monkeypatch.setattr(Graph, "__init__", checked_door)
        monkeypatch.setattr("scopekit.schema._DEFAULT_SCHEMA", None)
        assert load_default_schema().classes
        g = parse_turtle(blank_object_text("alice"))
        assert parse_ntriples(serialize_ntriples_canonical(skolemize(g))) == skolemize(g)
        a = make_case(3, "shared")
        b = casekit.from_graph(a.graph, rng=random.Random(5))
        b.add_component(infrastructure("WaterSystem"), "plant")
        assert casekit.merge(a, b).merged.graph == b.graph
        assert casekit.apply_diff(a, *casekit.diff(a, b)).graph == b.graph
        codes = {}
        for n, path in enumerate(self.FIXTURES, start=1):
            nt, other = str(tmp_path / f"scenario{n}.nt"), self.FIXTURES[n % 3]
            for argv in (["validate", path], ["validate", path, "--format", "json"],
                         ["convert", path, "--to", "nt", "-o", nt], ["convert", nt, "--to", "ttl"],
                         ["convert", path, "--to", "ttl"], ["convert", nt, "--to", "nt"],
                         ["query", path, "-q", "?s ?p ?o"],
                         ["query", nt, "--count", "-q", "?s a ?c"],
                         ["diff", path, other], ["merge", path, path],
                         ["merge", path, other, "--allow-mismatch"],
                         ["report", path], ["report", path, "--format", "json"],
                         ["iocs", "export", path], ["iocs", "import", path, str(feed)],
                         ["init", "--scenario", str(n)]):
                codes[" ".join(argv)] = cli.main(argv)
        capsys.readouterr()
        monkeypatch.undo()
        assert refused == []
        assert {argv for argv, code in codes.items() if code} == {
            f"diff {path} {self.FIXTURES[n % 3]}" for n, path in enumerate(self.FIXTURES, start=1)}

    @staticmethod
    def count_walks(monkeypatch, run):
        """The lengths of the graphs that `has_blank_nodes` walks while run()
        runs, and its result: a walk iterates the graph asked."""
        walks, asking, asked, iterate = [], [], Graph.has_blank_nodes, Graph.__iter__

        def counted_ask(self):
            asking.append(self)
            try:
                return asked(self)
            finally:
                asking.pop()

        def counted_iter(self):
            if asking and asking[-1] is self:
                walks.append(len(self))
            return iterate(self)

        monkeypatch.setattr(Graph, "has_blank_nodes", counted_ask)
        monkeypatch.setattr(Graph, "__iter__", counted_iter)
        result = run()
        monkeypatch.undo()
        return walks, result

    @pytest.mark.parametrize("blank", [False, True], ids=["scenario1", "blank-object"])
    @pytest.mark.parametrize("command", ["convert-nt", "convert-ttl", "merge", "iocs-import"])
    def test_a_command_walks_for_blank_nodes_once(self, command, blank, monkeypatch, tmp_path,
                                                 capsys):
        load_default_schema(), load_default_catalog()
        a, b = tmp_path / "a.ttl", tmp_path / "b.ttl"
        for path, name in ((a, "alice"), (b, "bob")):
            path.write_text(blank_object_text(name) if blank else fixture_text("scenario1"),
                            encoding="utf-8")
        feed = tmp_path / "feed.csv"
        feed.write_text("kind,value,source\nDomain,example[.]test,unit\n", encoding="utf-8")
        argv = {"convert-nt": ["convert", a, "--to", "nt"],
                "convert-ttl": ["convert", a, "--to", "ttl"],
                "merge": ["merge", a, b], "iocs-import": ["iocs", "import", a, feed]}[command]
        walks, code = self.count_walks(monkeypatch, lambda: cli.main(list(map(str, argv))))
        assert code == 0
        assert ("urn:skolem:b0" in capsys.readouterr().out) is blank
        assert len(walks) == 1  # at most one, and this count sees it

    def test_a_graph_of_the_same_triples_is_handed_the_answer(self, monkeypatch):
        g = parse_turtle(blank_object_text("alice"))

        def ask():
            first = [g.has_blank_nodes(), g.has_blank_nodes()]
            return first + [h.has_blank_nodes() for h in (g.with_prefixes({}), skolemize(g))]

        walks, answers = self.count_walks(monkeypatch, ask)
        assert walks == [len(g)] and answers == [True, True, True, False]

    def test_an_add_after_a_read_asks_again(self):
        c = make_case()
        assert not c.graph.has_blank_nodes()
        c.add(Triple(c.case_iri, PROP_DESCRIPTION, BlankNode("b0")))
        assert c.graph.has_blank_nodes()
        assert "urn:skolem:b0" in c.to_turtle()

    def test_a_merge_asks_again(self):
        a = make_case()
        assert not a.graph.has_blank_nodes()
        b = casekit.from_graph(a.graph)
        b.add(Triple(b.case_iri, PROP_DESCRIPTION, BlankNode("b0")))
        merged = casekit.merge(a, b).merged
        assert merged.graph.has_blank_nodes()
        assert "urn:skolem:b0" in merged.to_turtle()
