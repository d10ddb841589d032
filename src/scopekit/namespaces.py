"""Namespace IRIs and the standard prefix profile used across the package."""

from __future__ import annotations

from .terms import Iri, RDF_NS, RDFS_NS, XSD

SCOPE_BASE = "https://ontology.scopeontology.org/scope/"
UCO_BASE = "https://ontology.unifiedcyberontology.org/uco/"
CASE_BASE = "https://ontology.caseontology.org/case/"

SCOPE_CRIME = SCOPE_BASE + "crime/"
SCOPE_EVIDENCE = SCOPE_BASE + "evidence/"
SCOPE_INDICATORS = SCOPE_BASE + "indicators/"
SCOPE_INFRASTRUCTURE = SCOPE_BASE + "infrastructure/"
SCOPE_ROLE = SCOPE_BASE + "role/"
SCOPE_THREATS = SCOPE_BASE + "threats/"
SCOPE_VOCABULARY = SCOPE_BASE + "vocabulary/"
SCOPE_ATTACKPATTERNS = SCOPE_BASE + "attackpatterns/"
SCOPE_META = SCOPE_BASE + "meta/"

UCO_CORE = UCO_BASE + "core/"
UCO_OBSERVABLE = UCO_BASE + "observable/"
CASE_INVESTIGATION = CASE_BASE + "investigation/"

KB = "http://example.org/kb/"

# prefix profile stamped on case graphs and schema documents
STANDARD_PREFIXES: dict[str, Iri] = {
    "rdf": Iri(RDF_NS),
    "rdfs": Iri(RDFS_NS),
    "xsd": Iri(XSD),
    "kb": Iri(KB),
    "scope-crime": Iri(SCOPE_CRIME),
    "scope-evidence": Iri(SCOPE_EVIDENCE),
    "scope-indicators": Iri(SCOPE_INDICATORS),
    "scope-infrastructure": Iri(SCOPE_INFRASTRUCTURE),
    "scope-role": Iri(SCOPE_ROLE),
    "scope-threats": Iri(SCOPE_THREATS),
    "scope-vocabulary": Iri(SCOPE_VOCABULARY),
    "scope-attackpatterns": Iri(SCOPE_ATTACKPATTERNS),
    "uco-core": Iri(UCO_CORE),
    "uco-observable": Iri(UCO_OBSERVABLE),
    "case-investigation": Iri(CASE_INVESTIGATION),
}

def _ns(base: str):
    def make(local: str) -> Iri:
        return Iri(base + local)
    return make

crime = _ns(SCOPE_CRIME)
evidence = _ns(SCOPE_EVIDENCE)
indicators = _ns(SCOPE_INDICATORS)
infrastructure = _ns(SCOPE_INFRASTRUCTURE)
role = _ns(SCOPE_ROLE)
threats = _ns(SCOPE_THREATS)
vocabulary = _ns(SCOPE_VOCABULARY)
attackpatterns = _ns(SCOPE_ATTACKPATTERNS)
uco_core = _ns(UCO_CORE)
uco_observable = _ns(UCO_OBSERVABLE)
case_investigation = _ns(CASE_INVESTIGATION)
kb = _ns(KB)

# class IRIs referenced from code
CLS_UCO_OBJECT = uco_core("UcoObject")
CLS_IDENTITY = uco_core("Identity")
CLS_OBSERVABLE = uco_observable("ObservableObject")
CLS_INCIDENT = case_investigation("Incident")
CLS_INVESTIGATIVE_ACTION = case_investigation("InvestigativeAction")
CLS_PROVENANCE_RECORD = case_investigation("ProvenanceRecord")

CLS_SCI = infrastructure("SmartCityInfrastructure")
CLS_THREAT = threats("Threat")
CLS_SPOOFING = threats("Spoofing")
CLS_TAMPERING = threats("Tampering")
CLS_REPUDIATION = threats("Repudiation")
CLS_INFORMATION_DISCLOSURE = threats("InformationDisclosure")
CLS_DENIAL_OF_SERVICE = threats("DenialOfService")
CLS_ELEVATION_OF_PRIVILEGE = threats("ElevationOfPrivilege")
CLS_CYBERCRIME = crime("Cybercrime")
CLS_ACQUIRED_EVIDENCE = evidence("AcquiredEvidence")
CLS_INDICATOR_VALUE = evidence("IndicatorValue")
CLS_HASH_VALUE = evidence("HashValue")
CLS_DOMAIN_INDICATOR = evidence("DomainIndicator")
CLS_ADVERSARY = role("Adversary")
CLS_ATTACK_TECHNIQUE = attackpatterns("AttackTechnique")
CLS_ATTACK_PATTERN = attackpatterns("AttackPattern")

# property IRIs referenced from code
PROP_NAME = uco_core("name")
PROP_DESCRIPTION = uco_core("description")
PROP_CREATED_TIME = uco_core("objectCreatedTime")
PROP_CRIME_TYPE = crime("crimeType")
PROP_AFFECTS = crime("affects")
PROP_ADVERSARY = crime("adversary")
PROP_TARGETS = threats("targets")
PROP_EVIDENCE_OF = evidence("evidenceOf")
PROP_MD5 = evidence("md5Hash")
PROP_DOMAIN_NAME = evidence("domainName")
PROP_MAC = evidence("macAddress")
PROP_MANUFACTURER = evidence("manufacturer")
PROP_IOC_SOURCE = evidence("iocSource")
PROP_CUSTODY_OF = evidence("custodyRecordOf")
PROP_CUSTODY_ACTION = evidence("custodyAction")
PROP_CUSTODY_TS = evidence("custodyTimestamp")
PROP_CUSTODY_SEQ = evidence("custodySequence")
PROP_CUSTODY_ACTOR = evidence("custodyActor")
PROP_COMPONENT_OF = infrastructure("componentOf")
PROP_TECHNIQUE_ID = attackpatterns("techniqueId")
PROP_TACTIC = attackpatterns("tactic")
PROP_CAPEC_ID = attackpatterns("capecId")
PROP_CVE_ID = attackpatterns("cveId")
PROP_USES_TECHNIQUE = attackpatterns("usesTechnique")
PROP_RELATED_PATTERN = attackpatterns("relatedPattern")
PROP_RELATED_INCIDENT = case_investigation("relatedIncident")
PROP_START_TIME = case_investigation("startTime")
PROP_PERFORMED_BY = case_investigation("performedBy")
PROP_LOCATION_NOTE = case_investigation("locationNote")
