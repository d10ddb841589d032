"""Technique / CAPEC / ISO-indicator catalog lookups."""

import re
import shutil

import pytest

from scopekit.catalog import (
    CRIME_TYPES,
    CUSTODY_ACTIONS,
    STRIDE_CATEGORIES,
    TACTICS,
    load_catalog_dir,
    load_default_catalog,
)
from scopekit.errors import CatalogFormatError, MalformedIdError, ParseError, UnknownIdError
from scopekit import namespaces
from scopekit.namespaces import infrastructure, threats

from conftest import FIXTURE_DIR
from helpers import iris_built


class TestTechniqueLookup:
    def test_t1190(self, catalog):
        entry = catalog.lookup_technique("T1190")
        assert entry.name == "Exploit Public Facing Application"
        assert entry.tactic == "InitialAccess"

    def test_subtechnique_id(self, catalog):
        entry = catalog.lookup_technique("T1566.002")
        assert entry.tactic == "InitialAccess"
        assert entry.name == "Spearphishing Attachment"

    @pytest.mark.parametrize("bad", ["1190", "T119", "T11900", "t1190", "T1566.2",
                                     "T1566.0021", "CAPEC-1", ""])
    def test_malformed_ids(self, catalog, bad):
        with pytest.raises(MalformedIdError):
            catalog.lookup_technique(bad)

    def test_unknown_but_well_formed(self, catalog):
        with pytest.raises(UnknownIdError):
            catalog.lookup_technique("T9999")

    def test_nineteen_techniques_across_ten_tactics(self, catalog):
        seen = []
        for tactic in TACTICS:
            entries = catalog.techniques_for_tactic(tactic)
            assert entries, f"no techniques under {tactic}"
            assert entries == sorted(entries, key=lambda e: e.id)
            seen.extend(e.id for e in entries)
        assert len(seen) == 19
        assert len(set(seen)) == 19

    def test_tactic_groupings(self, catalog):
        impact = {e.id for e in catalog.techniques_for_tactic("Impact")}
        assert impact == {"T1486", "T1499"}
        exfil = {e.id for e in catalog.techniques_for_tactic("Exfiltration")}
        assert exfil == {"T1029", "T1041"}

    def test_unknown_tactic_is_empty(self, catalog):
        assert catalog.techniques_for_tactic("Bogus") == []


class TestCapec:
    def test_t1190_maps_to_capec_650(self, catalog):
        entries = catalog.capec_for_technique("T1190")
        assert [e.id for e in entries] == ["CAPEC-650"]

    def test_every_technique_resolves(self, catalog):
        for tactic in TACTICS:
            for entry in catalog.techniques_for_tactic(tactic):
                for pattern in catalog.capec_for_technique(entry.id):
                    assert pattern.id.startswith("CAPEC-")

    def test_numeric_sort_of_pattern_ids(self, catalog):
        for tactic in TACTICS:
            for entry in catalog.techniques_for_tactic(tactic):
                ids = [int(p.id.split("-")[1]) for p in catalog.capec_for_technique(entry.id)]
                assert ids == sorted(ids)

    def test_malformed_technique_id(self, catalog):
        with pytest.raises(MalformedIdError):
            catalog.capec_for_technique("T1")


class TestIndicators:
    def test_energy_system_has_indicators(self, catalog, schema):
        rows = catalog.indicators_for_system(infrastructure("EnergySystem"), schema)
        assert rows
        assert all(r.system == infrastructure("EnergySystem") for r in rows)

    def test_subclass_monotonicity(self, catalog, schema):
        energy = catalog.indicators_for_system(infrastructure("EnergySystem"), schema)
        resource = catalog.indicators_for_system(infrastructure("ResourceSystem"), schema)
        assert {(r.iso_standard, r.clause) for r in energy} <= {
            (r.iso_standard, r.clause) for r in resource}
        water = catalog.indicators_for_system(infrastructure("WaterSystem"), schema)
        assert {(r.iso_standard, r.clause) for r in water} <= {
            (r.iso_standard, r.clause) for r in resource}

    def test_sorted_by_standard_then_clause(self, catalog, schema):
        rows = catalog.indicators_for_system(infrastructure("ResourceSystem"), schema)
        keys = [(r.iso_standard, tuple(int(p) for p in r.clause.split("."))) for r in rows]
        assert keys == sorted(keys)


class TestStride:
    def test_categories(self, catalog, schema):
        assert catalog.stride_category_of(threats("Tampering"), schema) == "Tampering"
        assert catalog.stride_category_of(threats("DenialOfService"), schema) == "DenialOfService"

    def test_builds_no_iri(self, monkeypatch, catalog, schema):
        category, built = iris_built(
            monkeypatch, lambda c: catalog.stride_category_of(c, schema), threats("Spoofing"))
        assert category == "Spoofing" and built == []

    @pytest.mark.parametrize("category,constant", [
        ("Spoofing", "CLS_SPOOFING"), ("Tampering", "CLS_TAMPERING"),
        ("Repudiation", "CLS_REPUDIATION"),
        ("InformationDisclosure", "CLS_INFORMATION_DISCLOSURE"),
        ("DenialOfService", "CLS_DENIAL_OF_SERVICE"),
        ("ElevationOfPrivilege", "CLS_ELEVATION_OF_PRIVILEGE")])
    def test_schema_classes_are_the_namespaces_constants(self, schema, category, constant):
        # so the category search finds each class on identity, before any ==
        constant = getattr(namespaces, constant)
        assert constant == threats(category)
        declared = {c: c for c in schema.classes}[constant]
        assert declared is constant
        assert any(c is constant for c in schema.ancestors(constant))

    def test_root_threat_has_no_category(self, catalog, schema):
        from scopekit.errors import UnknownClassError
        with pytest.raises(UnknownClassError):
            catalog.stride_category_of(threats("Threat"), schema)

    def test_non_threat_class_rejected(self, catalog, schema):
        from scopekit.errors import UnknownClassError
        with pytest.raises(UnknownClassError):
            catalog.stride_category_of(infrastructure("EnergySystem"), schema)

    def test_six_categories(self):
        assert len(STRIDE_CATEGORIES) == 6
        assert set(STRIDE_CATEGORIES) == {
            "Spoofing", "Tampering", "Repudiation", "InformationDisclosure",
            "DenialOfService", "ElevationOfPrivilege"}


class TestVocabularies:
    def test_custody_actions(self):
        assert CUSTODY_ACTIONS == ("Seized", "Imaged", "Transferred", "Analyzed")

    def test_crime_types(self):
        assert set(CRIME_TYPES) == {"DataInterference", "SystemInterference",
                                    "IllegalAccess", "IllegalInterception"}


class TestCatalogFiles:
    def test_default_catalog_memoized(self, catalog):
        assert load_default_catalog() is catalog

    def test_bad_header_rejected(self, tmp_path):
        d = tmp_path / "cat"
        d.mkdir()
        (d / "techniques.csv").write_text("wrong,header,row\n", encoding="utf-8")
        (d / "capec.csv").write_text("id,name,technique_ids\n", encoding="utf-8")
        (d / "indicators.csv").write_text("standard,clause,description,system_iri\n",
                                          encoding="utf-8")
        with pytest.raises(CatalogFormatError):
            load_catalog_dir(d)

    def test_undecodable_csv_names_the_file(self, tmp_path):
        d = tmp_path / "cat"
        shutil.copytree(FIXTURE_DIR.parent / "catalogs", d)
        (d / "capec.csv").write_bytes(b"id,name,technique_ids\n\xff\n")
        with pytest.raises(ParseError, match=re.escape(f"{d / 'capec.csv'} is not valid UTF-8")):
            load_catalog_dir(d)

    def test_bad_column_count_names_offender(self, tmp_path):
        d = tmp_path / "cat"
        d.mkdir()
        (d / "techniques.csv").write_text("id,name,tactic\nT1190,only-two\n",
                                          encoding="utf-8")
        (d / "capec.csv").write_text("id,name,technique_ids\n", encoding="utf-8")
        (d / "indicators.csv").write_text("standard,clause,description,system_iri\n",
                                          encoding="utf-8")
        with pytest.raises(CatalogFormatError):
            load_catalog_dir(d)
