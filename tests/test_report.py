"""Case summaries and their Markdown / JSON renderings."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scopekit
from scopekit import casekit
from scopekit.errors import InvalidCaseError
from scopekit.namespaces import (
    CLS_ATTACK_TECHNIQUE,
    CLS_INCIDENT,
    PROP_NAME,
    PROP_TACTIC,
    PROP_TECHNIQUE_ID,
    evidence,
    infrastructure,
    role,
    threats,
)
from scopekit.report import (
    ActionEntry,
    CaseSummary,
    CustodyEntry,
    _label,
    render_markdown,
    summarize,
)
from scopekit.schema import load_schema
from scopekit.terms import RDF_TYPE, BlankNode, Graph, Literal, Triple
from scopekit.validation import validate_graph


T0 = "2100-01-01T00:00:00Z"
GOLDEN_DIR = Path(__file__).resolve().parent / "data"


def scenario_case(request, name):
    g = request.getfixturevalue(name)
    return casekit.from_graph(g)


class TestSummarize:
    def test_overview_fields(self, request):
        c = scenario_case(request, "scenario1")
        s = summarize(c)
        assert s.case_id == c.case_iri.value
        assert s.name == "punggol-ransomware-triage"
        assert s.created == "2100-01-01T06:00:00Z"

    def test_threat_counts_by_category(self, request):
        s = summarize(scenario_case(request, "scenario1"))
        assert s.threat_counts == (("DenialOfService", 1), ("Tampering", 1))

    def test_tactic_map_covers_all_ten_tactics(self, request):
        s = summarize(scenario_case(request, "scenario2"))
        tactics = [tactic for tactic, _ in s.tactic_map]
        assert len(tactics) == 10
        assert tactics == sorted(tactics)
        by_tactic = dict(s.tactic_map)
        assert {tid for tid, _ in by_tactic["Impact"]} == {"T1486", "T1499"}
        assert {tid for tid, _ in by_tactic["Exfiltration"]} == {"T1029", "T1041"}
        total = sum(len(techs) for _, techs in s.tactic_map)
        assert total == 19

    def test_a_technique_without_an_id_is_left_out(self):
        c = casekit.new_case("unnumbered", at=T0, rng=random.Random(5))
        crime = c.add_crime("SystemInterference",
                            c.add_component(infrastructure("EnergySystem"), "grid"))
        c.attach_technique(crime, "T1190")
        c.add_node(CLS_ATTACK_TECHNIQUE, "no id")
        exploit = ("T1190", "Exploit Public Facing Application")
        assert summarize(c).tactic_map == (("InitialAccess", (exploit,)),)

    def test_an_unnamed_blank_node_is_labelled_by_its_label(self):
        node = BlankNode("b1")
        assert _label(Graph([Triple(node, RDF_TYPE, CLS_INCIDENT)]), node) == "_:b1"

    def test_technique_ids_sorted_within_tactic(self, request):
        s = summarize(scenario_case(request, "scenario2"))
        for _, techs in s.tactic_map:
            ids = [tid for tid, _ in techs]
            assert ids == sorted(ids)

    def test_iocs_are_defanged(self, request):
        s = summarize(scenario_case(request, "scenario3"))
        domains = [value for kind, value, _ in s.iocs if kind == "Domain"]
        assert domains
        for value in domains:
            assert "[.]" in value
            assert "." not in value.replace("[.]", "")

    def test_published_ioc_values_reproduced(self, request):
        s = summarize(scenario_case(request, "scenario3"))
        hashes = sorted(v for k, v, _ in s.iocs if k == "Md5Hash")
        assert hashes == [
            "00c4c3946ec03c915cfe4cbddffe93da",
            "762a96d79e747457e086e6812816b0aa",
            "f84d54b351b7926106ef377b06423734",
        ]
        domains = sorted(v for k, v, _ in s.iocs if k == "Domain")
        assert domains == [
            "5jua3omslrbkks4c[.]onion[.]link",
            "agegamepay[.]com",
            "ageofwuxia[.]com",
            "ageofwuxia[.]info",
            "ageofwuxia[.]net",
            "ageofwuxia[.]org",
        ]

    def test_custody_is_a_timeline(self, request):
        s = summarize(scenario_case(request, "scenario1"))
        assert len(s.custody) >= 4
        stamps = [e.at for e in s.custody]
        assert stamps == sorted(stamps)
        first = s.custody[0]
        assert first.action == "Seized"
        assert first.sequence == 1

    def test_actions_sorted_by_time(self, request):
        s = summarize(scenario_case(request, "scenario1"))
        assert s.actions
        keys = [(a.at, a.description) for a in s.actions]
        assert keys == sorted(keys)

    def test_invalid_case_refused(self, request):
        c = scenario_case(request, "scenario1")
        from scopekit.namespaces import PROP_MD5
        hash_triples = c.graph.match(None, PROP_MD5, None)
        broken = casekit.from_graph(
            c.graph.insert(Triple(hash_triples[0].subject, PROP_MD5,
                                  Literal("not-a-hash"))),
            case_iri=c.case_iri)
        with pytest.raises(InvalidCaseError) as err:
            summarize(broken)
        assert err.value.report.errors

    def test_warnings_do_not_block(self, schema, catalog):
        c = casekit.new_case("warn-only", at=T0, rng=random.Random(3))
        comp = c.add_component(infrastructure("EnergySystem"), "grid")
        threat = c.add_threat(threats("Spoofing"), comp)
        g = c.graph
        from scopekit.namespaces import PROP_TARGETS
        for t in g.match(threat, PROP_TARGETS, None):
            g = g.remove(t)
        lax = casekit.from_graph(g, case_iri=c.case_iri)
        assert lax.validate().warnings
        s = summarize(lax)
        assert s.threat_counts == (("Spoofing", 1),)

    def test_uncategorized_threat_counted(self, schema, catalog):
        c = casekit.new_case("bare-threat", at=T0, rng=random.Random(4))
        comp = c.add_component(infrastructure("EnergySystem"), "grid")
        c.add_threat(threats("Threat"), comp)
        s = summarize(c)
        assert s.threat_counts == (("Uncategorized", 1),)


class TestMarkdown:
    def test_section_order_fixed(self, request):
        md = render_markdown(summarize(scenario_case(request, "scenario1")))
        headers = [l for l in md.splitlines() if l.startswith("#")]
        assert headers == [
            "# Case report: punggol-ransomware-triage",
            "## Overview", "## Threats", "## TTPs", "## IoCs",
            "## Custody", "## Actions",
        ]

    def test_empty_sections_say_so(self, schema, catalog):
        c = casekit.new_case("empty-case", at=T0, rng=random.Random(5))
        md = render_markdown(summarize(c))
        assert md.count("None recorded.") == 5  # all but Overview

    def test_ttp_lines(self, request):
        md = render_markdown(summarize(scenario_case(request, "scenario2")))
        line = next(l for l in md.splitlines() if l.startswith("- Impact:"))
        assert line == "- Impact: T1486 Data Encrypted for Impact; T1499 Endpoint Denial of Service"

    def test_ioc_table_defanged(self, request):
        md = render_markdown(summarize(scenario_case(request, "scenario3")))
        assert "| Domain | agegamepay[.]com |" in md
        assert "agegamepay.com" not in md

    def test_custody_table_columns(self, request):
        md = render_markdown(summarize(scenario_case(request, "scenario1")))
        assert "| When | Action | Evidence | Actor |" in md

    def test_render_is_deterministic(self, request):
        a = summarize(scenario_case(request, "scenario1"))
        b = summarize(scenario_case(request, "scenario1"))
        assert a == b
        assert render_markdown(a) == render_markdown(b)

    def test_counts_line(self, request):
        md = render_markdown(summarize(scenario_case(request, "scenario2")))
        line = next(l for l in md.splitlines() if l.startswith("- Threats:"))
        assert "techniques: 19" in line

    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    def test_matches_golden_file(self, request, name):
        md = render_markdown(summarize(scenario_case(request, name)))
        assert md.encode("utf-8") == (GOLDEN_DIR / f"report_{name}.md").read_bytes()

    def test_pipe_in_cell_is_escaped(self, schema, catalog):
        c = casekit.new_case("pipe-case", at=T0, rng=random.Random(6))
        c.add_action("imaged disk | hashed image", "2100-01-01T01:00:00Z",
                     location="lab | bay 2")
        md = render_markdown(summarize(c))
        row = next(l for l in md.splitlines() if l.startswith("| 2100-01-01T01:00:00Z"))
        cells = re.split(r"(?<!\\)\|", row)[1:-1]
        assert [cell.strip() for cell in cells] == [
            "2100-01-01T01:00:00Z", r"imaged disk \| hashed image", r"lab \| bay 2", ""]

    def test_line_break_in_cell_stays_in_its_row(self, schema, catalog):
        c = casekit.new_case("break-case", at=T0, rng=random.Random(6))
        c.add_action("imaged disk\nhashed image", "2100-01-01T01:00:00Z",
                     location="lab\r\nbay 2\rshelf 4")
        md = render_markdown(summarize(c))
        actions = md.split("## Actions\n\n")[1].split("\n\n")[0].splitlines()
        assert len(actions) == 3  # header, delimiter, one row
        cells = actions[2].split("|")[1:-1]
        assert [cell.strip() for cell in cells] == [
            "2100-01-01T01:00:00Z", "imaged disk<br>hashed image", "lab<br>bay 2<br>shelf 4", ""]


class TestJson:
    def test_round_trips_through_json(self, request):
        s = summarize(scenario_case(request, "scenario1"))
        d = json.loads(json.dumps(s.to_json_dict()))
        assert d["case"]["name"] == "punggol-ransomware-triage"
        assert d["threats"] == {"DenialOfService": 1, "Tampering": 1}
        assert all(e["sequence"] >= 1 for e in d["custody"])

    def test_json_mirrors_markdown_content(self, request):
        s = summarize(scenario_case(request, "scenario2"))
        d = s.to_json_dict()
        assert sum(len(v) for v in d["ttps"].values()) == 19
        assert {t["id"] for t in d["ttps"]["Impact"]} == {"T1486", "T1499"}


REPORT_BOTH_FORMATS = """
import sys
from scopekit.cli import main
for path in sys.argv[1:]:
    for fmt in ("md", "json"):
        main(["report", path, "--format", fmt])
"""


class TestRowOrder:
    """Tied rows follow what they print, whatever the hash seed."""

    def tied_cases(self):
        actions = casekit.new_case("tied-actions", at=T0, rng=random.Random(1))
        analyst = actions.add_role(role("ForensicAnalyst"), "analyst")
        for i in range(5):
            actions.add_action("imaged disk", "2100-01-01T01:00:00Z",
                               location=f"bay {i % 3}", by=analyst if i % 2 else None)
        techniques = casekit.new_case("shared-technique", at=T0, rng=random.Random(2))
        for i in range(5):
            node = techniques.add_node(CLS_ATTACK_TECHNIQUE, f"name {i}")
            techniques.add(Triple(node, PROP_TECHNIQUE_ID, Literal("T1190")))
            techniques.add(Triple(node, PROP_TACTIC, Literal("Initial Access")))
        return actions, techniques

    def test_actions_sort_on_the_whole_row(self):
        rows = [(a.at, a.description, a.location, a.performer)
                for a in summarize(self.tied_cases()[0]).actions]
        assert len(set(rows)) == 5
        assert rows == sorted(rows)

    def test_custody_and_ioc_rows_sort_on_the_whole_row(self):
        # rows that tie on time, evidence and sequence, or on kind and value,
        # come out in printed order, whatever IRIs their nodes got
        seen = set()
        for seed in range(6):
            c = casekit.new_case("tied-records", at=T0, rng=random.Random(seed))
            for name in ("carol", "alice", "bob"):
                actor = c.add_role(role("ForensicAnalyst"), name)
                c.add_evidence(evidence("DeviceImage"), attrs={"name": "disk"},
                               seized_at="2100-01-01T01:00:00Z", seized_by=actor)
                c.add_evidence(evidence("DomainIndicator"),
                               attrs={"domainName": "a.example", "iocSource": f"from {name}"})
            s = summarize(c)
            seen.add((s.iocs, tuple((e.at, e.evidence, e.sequence, e.action, e.actor)
                                    for e in s.custody)))
        assert seen == {(
            tuple(("Domain", "a[.]example", f"from {name}") for name in ("alice", "bob", "carol")),
            tuple(("2100-01-01T01:00:00Z", "disk", 1, "Seized", name)
                  for name in ("alice", "bob", "carol")))}

    def test_shared_technique_id_named_by_canonical_first_node(self):
        c = self.tied_cases()[1]
        node = c.graph.match(None, PROP_TECHNIQUE_ID, None)[0].subject  # canonical order
        first = casekit.first_literal(c.graph, node, PROP_NAME)
        assert summarize(c).tactic_map == (("Initial Access", (("T1190", first),)),)

    def test_report_does_not_depend_on_hash_seed(self, tmp_path):
        paths = []
        for c in self.tied_cases():
            path = tmp_path / f"{c.name}.ttl"
            path.write_text(c.to_turtle(), encoding="utf-8")
            paths.append(str(path))
        src = str(Path(scopekit.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("0", "1", "2", "3", "4", "5", "6"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            outputs.add(subprocess.run([sys.executable, "-c", REPORT_BOTH_FORMATS, *paths],
                                       env=env, capture_output=True, text=True, check=True,
                                       timeout=120).stdout)
        assert len(outputs) == 1


class TestLineBreaks:
    def test_no_value_splits_a_line(self):
        def summary(text):
            return CaseSummary(
                case_id=text, name=text, created=text,
                threat_counts=((text, 1),),
                tactic_map=((text, ((text, text),)),),
                iocs=((text, text, text),),
                custody=(CustodyEntry(text, text, text, text, 1),),
                actions=(ActionEntry(text, text, text, text),))

        flat = render_markdown(summary("a b")).split("\n")
        for brk in ("\n", "\r\n", "\r"):
            lines = render_markdown(summary(f"a{brk}b")).split("\n")
            assert lines[0] == "# Case report: a<br>b"
            assert [l.replace("<br>", " ") for l in lines] == flat


# what a received case may hold that the Markdown must not pass on as markup,
# a line break or a terminal control
UNSAFE_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from("<>&|\\\n\r\t\x1b\x07\x00\x7f\u202a\u202e\u2066\u2069 ab"),
    st.characters(codec="utf-8")), max_size=20)


def summary_of(text: str) -> CaseSummary:
    """A summary that holds `text` in every string field."""
    return CaseSummary(
        case_id=text, name=text, created=text,
        threat_counts=((text, 1),),
        tactic_map=((text, ((text, text),)),),
        iocs=((text, text, text),),
        custody=(CustodyEntry(text, text, text, text, 1),),
        actions=(ActionEntry(text, text, text, text),))


class TestInertValues:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(UNSAFE_TEXT)
    def test_values_cannot_inject(self, text):
        md = render_markdown(summary_of(text))
        plain = render_markdown(summary_of("a" * len(text)))
        assert "<" not in md.replace("<br>", "")
        assert not re.search("[\x00-\x09\x0b-\x1f\x7f\u202a-\u202e\u2066-\u2069]", md)
        assert md.count("\n") == plain.count("\n")

    def test_injected_name_and_description(self, schema, catalog):
        c = casekit.new_case("x <img src=x onerror=alert(1)>\x1b[2J\x07", at=T0,
                             rng=random.Random(6))
        c.add_action("<script>alert(2)</script> & \u202egnp.exe", "2100-01-01T01:00:00Z")
        md = render_markdown(summarize(c))
        assert md.splitlines()[0] == (
            "# Case report: x &lt;img src=x onerror=alert(1)&gt;\\u001B[2J\\u0007")
        assert "- Name: x &lt;img src=x onerror=alert(1)&gt;\\u001B[2J\\u0007" in md
        assert ("| &lt;script&gt;alert(2)&lt;/script&gt; &amp; \\u202Egnp.exe |") in md


INCIDENT_ONLY_SCHEMA = f"""
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
<{CLS_INCIDENT.value}> a rdfs:Class .
"""


class TestUndeclaredRoot:
    """A custom schema may lack the threat, technique and action roots."""

    def test_incident_only_schema(self, catalog):
        schema = load_schema([INCIDENT_ONLY_SCHEMA])
        assert list(schema.classes) == [CLS_INCIDENT]
        c = casekit.new_case("incident-only", at=T0, schema=schema, catalog=catalog,
                             rng=random.Random(8))
        assert schema.instances_under(c.graph, threats("Threat")) == {}
        assert not validate_graph(c.graph, schema, catalog).findings
        s = summarize(c)
        assert (s.threat_counts, s.tactic_map, s.actions) == ((), (), ())
