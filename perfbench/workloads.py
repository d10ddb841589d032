"""The three benchmark workloads: exchange, author and analyst.

Each workload is one closed-loop client running one operation at a time. It
sets up several times and reports the median set-up time, then repeats a
fixed list of operations (a pass) until the run's seconds are used up, never
starting a pass it expects to overrun. Every timed operation has a
correctness check whose reference comes from `casegen`, never from scopekit.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import casegen as cg
from casegen import RDF_TYPE, iri, lit, term_text
from tracing import LAYER_METRICS, Tracer

from scopekit import casekit, catalog as sk_catalog, cli, namespaces as ns, query as sk_query
from scopekit import report as sk_report, schema as sk_schema, terms, turtle, validation

EXCHANGE_BLOCKS = 92  # ~3.6k triples, ~0.28 MiB of Turtle
ANALYST_BLOCKS = 376
AUTHOR_BLOCKS = 100  # ~2.9k triples through the builder
SETUP_REPEATS = {"exchange": 5, "author": 9, "analyst": 5}
ANALYST_MIX = {"type": 24, "join": 24, "regex": 24, "unselective": 8}
MIN_QUERY_SAMPLES = 200  # p95 needs ten samples beyond it
REFERENCE_S = 0.0065  # calibration_sample() at the reference speed, about its median on the README's VM
FORK_ACTIONS, FORK_CUSTODY, FORK_CONFLICTS = 10, 5, 5
# The child reports its own peak RSS (VmHWM of its post-exec address space)
# on a last stderr line: RUSAGE_CHILDREN would count this process's RSS too,
# because a child's peak includes the memory it was forked with.
CLI_SNIPPET = ("import sys; sys.path.insert(0, {src!r}); "
               "from scopekit.cli import main; code = main(sys.argv[1:]); "
               "sys.stderr.write([line for line in open('/proc/self/status') "
               "if line.startswith('VmHWM:')][0]); sys.exit(code)")


@dataclass
class Outcome:
    """What a run hands back: metric name -> (value, unit) for the JSON
    line, the workload's full end-to-end table for people, and the checks."""

    metrics: dict
    table: dict
    checks: "Checks"
    notes: list = field(default_factory=list)


class Checks:
    """One check per timed operation; failures are kept for stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


_CALIBRATION_KEYS = [f"k{i}" for i in range(2000)]


def calibration_sample() -> float:
    """Wall time of a fixed dict-and-string loop, run with the cyclic GC off
    so that the size of the heap does not change its cost."""
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(12):
            table = {}
            for key in _CALIBRATION_KEYS:
                table[key + "x"] = (key, len(key))
            sorted(table)
        return perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Times each step of a pass at the reference speed.

    The machine's speed drifts by tens of percent within seconds (see
    README.md), so every step is bracketed by calibration samples and its wall
    time is scaled by REFERENCE_S over their mean. `total` accumulates the
    scaled time of the steps since it was last taken.
    """

    def __init__(self):
        self.before = calibration_sample()
        self.total = 0.0
        self.wall = 0.0

    def step(self, fn, *args, **kwargs):
        """Run one step; return its result and its scaled seconds."""
        out, raw = timed(fn, *args, **kwargs)
        after = calibration_sample()
        self.scale = 2 * REFERENCE_S / (self.before + after)
        self.before = after
        self.total += raw * self.scale
        self.wall += raw
        return out, raw * self.scale

    def take(self) -> tuple:
        """(scaled, wall) seconds of the steps since the last take."""
        out = (self.total, self.wall)
        self.total = self.wall = 0.0
        return out


def run_passes(seconds: float, clock: Clock, one_pass, between, min_passes: int = 1) -> tuple:
    """Call one_pass(index) until the run time is used, at least min_passes
    times, and between() before every pass but the first. Return each
    pass's scaled and wall seconds: the sum of its steps."""
    start = perf_counter()
    scaled, wall = [], []
    while True:
        if scaled:
            between()
        clock.take()
        t0 = perf_counter()
        one_pass(len(scaled))
        elapsed = perf_counter() - t0
        s, w = clock.take()
        scaled.append(s)
        wall.append(w)
        if len(scaled) >= min_passes and perf_counter() - start + elapsed > seconds:
            return scaled, wall


class SetUps:
    """A workload's set-up, run SETUP_REPEATS times: once before the first
    pass, then between passes, so its samples spread over the run as the
    passes do. Each starts from a collected heap and is timed as a step."""

    def __init__(self, name: str, clock: Clock, set_up):
        self.clock, self.set_up = clock, set_up
        self.left, self.times = SETUP_REPEATS[name], []

    def again(self):
        if not self.left:
            return None
        self.left -= 1
        gc.collect()
        result, dt = self.clock.step(self.set_up)
        self.times.append(dt)
        return result

    def median(self) -> float:
        while self.left:
            self.again()
        return statistics.median(self.times)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def count_type(triples, class_iri: str) -> int:
    return sum(1 for s, p, o in triples if p == RDF_TYPE and o == class_iri)


def layer_metrics(snapshots: list, extra: dict) -> dict:
    """Per-layer metrics: median over traced passes for times, the first
    traced pass for counts (which repeat exactly for a given seed)."""
    out = {}
    for metric, (_, what, unit) in LAYER_METRICS.items():
        values = [snap[metric] for snap in snapshots]
        value = values[0] if unit == "count" else statistics.median(values)
        out[metric] = (value, unit)
    out.update(extra)
    return out


def traced_pass_metrics(traced: list, untraced: list, startup: float = 0.0) -> dict:
    t, u = statistics.median(traced), statistics.median(untraced)
    return {"cli.startup_s": (startup, "s"),
            "trace.pass_s": (t, "s"),
            "trace.untraced_pass_s": (u, "s"),
            "trace.overhead_ratio": (t / u - 1, "ratio")}


def paired_trace(seconds: float, clock: Clock, one_pass, between) -> tuple:
    """Run each pass untraced, then the same pass traced, so the two scaled
    times compare; return the per-layer metrics and the number of traced
    passes. Layer self times are wall seconds."""
    tracer = Tracer()
    snapshots, traced, untraced = [], [], []

    def pair(i):
        one_pass(i)
        untraced.append(clock.take()[0])
        tracer.reset()
        tracer.install()
        try:
            one_pass(i)
        finally:
            tracer.uninstall()
        traced.append(clock.take()[0])
        snapshots.append(tracer.snapshot())

    run_passes(seconds, clock, pair, between)
    return layer_metrics(snapshots, traced_pass_metrics(traced, untraced)), len(traced)


# -- exchange ---------------------------------------------------------------

class Exchange:
    """Agency A receives agency B's case file and runs each CLI command on it
    in a fresh interpreter, as a user at a shell would."""

    def __init__(self, seed: int, work: Path, src: Path):
        self.seed, self.work, self.src = seed, work, src
        self.checks = Checks()
        self.clock = Clock()
        self.peak_kib = 0  # largest VmHWM of any cold command

    def set_up(self):
        rng = random.Random(self.seed)
        case = cg.generate_case(random.Random(rng.getrandbits(64)), EXCHANGE_BLOCKS)
        variant = cg.agency_b(case, random.Random(rng.getrandbits(64)))
        a_nt = cg.to_ntriples(case.triples)
        files = {"A.ttl": cg.to_turtle(case.triples), "A.nt": a_nt,
                 "B.ttl": cg.to_turtle(variant.triples)}
        for name, text in files.items():
            (self.work / name).write_text(text, encoding="utf-8")
        schema, catalog = sk_schema.load_default_schema(), sk_catalog.load_default_catalog()
        for label, triples in (("A", case.triples), ("B", variant.triples)):
            report = validation.validate_graph(cg.to_graph(triples), schema, catalog)
            incidents = count_type(triples, iri(ns.CLS_INCIDENT.value))
            if report.findings or incidents != 1:
                raise RuntimeError(f"generated case {label} is not a valid single-incident case")
        self.case, self.variant, self.a_nt = case, variant, a_nt
        self.sizes = {name: len(text.encode("utf-8")) for name, text in files.items()}
        self.query = self._pick_query(random.Random(rng.getrandbits(64)))
        self.expected_rows = cg.Reference(case.triples).count(self.query)

    @staticmethod
    def _pick_query(rng: random.Random) -> cg.Query:
        crime_type = rng.choice(cg.CRIME_TYPES)
        return cg.Query((
            ("?c", RDF_TYPE, iri(ns.crime(crime_type).value)),
            ("?c", iri(ns.PROP_AFFECTS.value), "?x"),
            ("?x", iri(ns.PROP_NAME.value), "?n"),
        ), (("?n", f"component [0-9]*[{rng.randint(0, 4)}-9]$"),))

    def commands(self) -> list:
        """(metric, argv, check) for one pass, in order."""
        w = self.work
        case, variant = self.case, self.variant
        n = len(case.triples)

        def check_validate(rc, out, err):
            report = json.loads(out)
            return (rc == 0 and report["error_count"] == 0 and report["warning_count"] == 0
                    and report["findings"] == [] and report["checked_triples"] == n)

        def check_report(rc, out, err):
            summary = json.loads(out)
            techniques = sum(len(v) for v in summary["ttps"].values())
            return (rc == 0 and len(summary["iocs"]) == case.ioc_count
                    and techniques == case.technique_count
                    and summary["case"]["id"] == term_text(case.incident))

        def check_query(rc, out, err):
            return rc == 0 and out == f"{self.expected_rows}\n"

        def check_to_ttl(rc, out, err):
            path = w / "rt.ttl"
            return rc == 0 and path.exists() and path.read_text(encoding="utf-8").startswith("@prefix")

        def check_to_nt(rc, out, err):
            return rc == 0 and out == self.a_nt  # N-Triples -> Turtle -> N-Triples is exact

        def check_diff(rc, out, err):
            lines = out.splitlines()
            if rc != 1 or "# removed" not in lines or lines[0] != "# added":
                return False
            cut = lines.index("# removed")
            return (lines[1:cut] == sorted(map(cg.nt_line, variant.added))
                    and lines[cut + 1:] == sorted(map(cg.nt_line, variant.removed)))

        def check_merge(rc, out, err):
            rows = [line.split("\t") for line in out.splitlines()]
            found = {(r[2], r[3].split(":")[0]) for r in rows if r[0] == "M01"}
            merged = (w / "merged.ttl").read_text(encoding="utf-8")
            return (rc == 1 and len(rows) == len(variant.conflicts)
                    and found == variant.conflicts and merged.startswith("@prefix"))

        query_text = self.query.text(cg.Abbreviator())
        return [
            ("validate_s", ["validate", str(w / "A.ttl"), "--format", "json"], check_validate),
            ("report_s", ["report", str(w / "A.ttl"), "--format", "json"], check_report),
            ("query_s", ["query", str(w / "A.ttl"), "--count", "-q", query_text], check_query),
            ("convert_to_ttl_s", ["convert", str(w / "A.nt"), "--to", "ttl", "-o", str(w / "rt.ttl")],
             check_to_ttl),
            ("convert_s", ["convert", str(w / "rt.ttl"), "--to", "nt"], check_to_nt),
            ("diff_s", ["diff", str(w / "A.ttl"), str(w / "B.ttl")], check_diff),
            ("merge_s", ["merge", str(w / "A.ttl"), str(w / "B.ttl"), "-o", str(w / "merged.ttl")],
             check_merge),
        ]

    def cold(self, argv):
        """Run one command in a fresh interpreter; (rc, stdout, stderr)."""
        proc = subprocess.run(
            [sys.executable, "-c", CLI_SNIPPET.format(src=str(self.src)), *argv],
            cwd=self.work, capture_output=True, text=True, encoding="utf-8", timeout=170)
        err, _, hwm = proc.stderr.rpartition("VmHWM:")
        if hwm:
            self.peak_kib = max(self.peak_kib, int(hwm.split()[0]))
        return proc.returncode, proc.stdout, err

    @staticmethod
    def in_process(argv):
        """Run one command through cli.main in this process, starting from
        the same empty schema and catalog caches a fresh interpreter has."""
        sk_schema._DEFAULT_SCHEMA = None
        sk_catalog._DEFAULT_CATALOG = None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def execute(self, argv, check, runner):
        if "-o" in argv:  # a file left by an earlier run must not pass the check
            Path(argv[argv.index("-o") + 1]).unlink(missing_ok=True)
        (rc, out, err), dt = self.clock.step(runner, argv)
        try:
            ok = bool(check(rc, out, err))
        except (ValueError, KeyError, IndexError, OSError):
            ok = False
        self.checks.expect(ok, f"{argv[0]} exited {rc}: {err.strip()[:300]}")
        return dt

    def run(self, seconds: float, trace: bool) -> Outcome:
        setups = SetUps("exchange", self.clock, self.set_up)
        setups.again()
        self.cold(["init", "--scenario", "1", "-o", str(self.work / "warm.ttl")])  # fills __pycache__
        commands = self.commands()
        if trace:
            return self._traced(seconds, commands, setups)
        samples = {metric: [] for metric, _, _ in commands}

        def one_pass(_):
            for metric, argv, check in commands:
                samples[metric].append(self.execute(argv, check, self.cold))

        durations, wall = run_passes(seconds, self.clock, one_pass, setups.again)
        pass_s = statistics.median(durations)
        n_a, n_b = len(self.case.triples), len(self.variant.triples)
        # triples parsed per pass: A by validate, report, query and both
        # convert legs; A and B by diff and by merge
        per_pass = 5 * n_a + 2 * (n_a + n_b)
        metrics = {
            "setup_s": (setups.median(), "s"),
            "pass_s": (pass_s, "s"),
            "triples_per_s": (per_pass / pass_s, "1/s"),
            "peak_rss_mib": (self.peak_kib / 1024, "MiB"),
            "validate_s": (statistics.median(samples["validate_s"]), "s"),
        }
        table = dict(metrics)
        table["pass_wall_s"] = (statistics.median(wall), "s")
        for metric in ("report_s", "query_s", "convert_to_ttl_s", "convert_s", "diff_s", "merge_s"):
            table[metric] = (statistics.median(samples[metric]), "s")
        table["fail_ratio"] = (self.checks.fail_ratio, "ratio")
        notes = [f"passes: {len(durations)}, cold commands per pass: {len(commands)}",
                 f"inputs: A {n_a} triples, A.ttl {self.sizes['A.ttl']} B, A.nt {self.sizes['A.nt']} B, "
                 f"B {n_b} triples, B.ttl {self.sizes['B.ttl']} B"]
        return Outcome(metrics, table, self.checks, notes)

    def _traced(self, seconds, commands, setups) -> Outcome:
        tracer = Tracer()
        snapshots, traced, untraced, startup = [], [], [], []

        def one_pass(_):
            tracer.reset()
            t_sum = u_sum = 0.0
            for metric, argv, check in commands:
                cold = self.execute(argv, check, self.cold)
                plain = self.execute(argv, check, self.in_process)
                tracer.install()
                try:
                    t_sum += self.execute(argv, check, self.in_process)
                finally:
                    tracer.uninstall()
                u_sum += plain
                startup.append(cold - plain)
            snapshots.append(tracer.snapshot())
            traced.append(t_sum)
            untraced.append(u_sum)

        run_passes(seconds, self.clock, one_pass, setups.again)
        extra = traced_pass_metrics(traced, untraced, statistics.median(startup))
        metrics = layer_metrics(snapshots, extra)
        table = {"setup_s": (setups.median(), "s"), "fail_ratio": (self.checks.fail_ratio, "ratio")}
        return Outcome(metrics, table, self.checks,
                       [f"traced passes: {len(traced)}; each command ran cold, in-process, "
                        "and in-process traced"])


# -- author -----------------------------------------------------------------

@dataclass
class Script:
    """One investigator's case, decided before any builder call."""

    seed: int
    blocks: list  # per block: component, stride, crime, evidence classes and choices
    techniques: set
    patterns: set
    triples: int  # what the builder must produce


def make_script(rng: random.Random, catalog) -> Script:
    tids = sorted(catalog.techniques)
    blocks, used = [], set()
    for i in range(AUTHOR_BLOCKS):
        tid = rng.choice(tids)
        used.add(tid)
        blocks.append({
            "component": rng.choice(cg.INFRA_CLASSES), "label": f"{rng.choice(cg.DISTRICTS)} asset {i}",
            "stride": rng.choice(cg.STRIDE_CLASSES), "crime": rng.choice(cg.CRIME_TYPES),
            "evidence": rng.choice(cg.EVIDENCE_CLASSES), "md5": f"{rng.getrandbits(128):032x}",
            "technique": tid, "ioc_hash": f"{rng.getrandbits(128):032x}", "minute": 60 + 5 * i,
            "action": f"Step {i}: {rng.choice(cg.WORDS)} sweep",
        })
    patterns = {p.id for tid in used for p in catalog.capec_for_technique(tid)}
    related = sum(len(catalog.capec_for_technique(tid)) for tid in used)
    # incident 3, four roles 2 each; per block: component 2, threat 3,
    # crime 5, evidence 4 + seizure record 6, usesTechnique 1, IoC 3, action 4;
    # technique nodes 4 + one relatedPattern per pattern; pattern nodes 3
    triples = 3 + 4 * 2 + 28 * AUTHOR_BLOCKS + 4 * len(used) + related + 3 * len(patterns)
    return Script(rng.getrandbits(64), blocks, used, patterns, triples)


def build(script: Script, schema, catalog) -> casekit.CaseGraph:
    c = casekit.new_case("author-benchmark-case", cg.timestamp(0), schema, catalog,
                         rng=random.Random(script.seed))
    responder = c.add_role(ns.role("FirstResponder"), "Field responder")
    c.add_role(ns.role("ForensicAnalyst"), "Lab analyst")
    adversaries = [c.add_role(ns.CLS_ADVERSARY, f"APT{k}") for k in (10, 41)]
    for i, b in enumerate(script.blocks):
        comp = c.add_component(ns.infrastructure(b["component"]), b["label"])
        c.add_threat(ns.threats(b["stride"]), comp)
        crime = c.add_crime(b["crime"], comp, adversary=adversaries[i % 2])
        c.add_evidence(ns.evidence(b["evidence"]), {"md5": b["md5"]}, crime=crime,
                       seized_at=cg.timestamp(b["minute"]), seized_by=responder)
        c.attach_technique(crime, b["technique"], capec=True)
        c.add_evidence(ns.CLS_HASH_VALUE, {"md5": b["ioc_hash"]})
        c.add_action(b["action"], cg.timestamp(b["minute"] + 1))
    return c


FORK_GROWTH = 6 * FORK_ACTIONS + 6 * FORK_CUSTODY + FORK_CONFLICTS  # triples each fork adds


def fork_targets(g) -> tuple:
    """Acquired evidence, components (sorted IRIs) and the forensic analyst
    of a built case: what the fork steps attach to."""
    def typed(keep):
        return sorted(t.subject.value for t in g if t.predicate == terms.RDF_TYPE and keep(t.object))
    evidence = typed(lambda o: o.value.startswith(ns.SCOPE_EVIDENCE) and o != ns.CLS_HASH_VALUE)
    components = typed(lambda o: o.value.startswith(ns.SCOPE_INFRASTRUCTURE))
    analyst = typed(lambda o: o == ns.role("ForensicAnalyst"))[0]
    return evidence, components, terms.Iri(analyst)


def fork_steps(c: casekit.CaseGraph, rng: random.Random, tag: str, base_minute: int,
               targets: tuple) -> None:
    """Add actions, custody events and conflicting componentOf links to one
    fork: FORK_GROWTH triples."""
    evidence, components, analyst = targets
    for k in range(FORK_ACTIONS):
        c.add_action(f"{tag} follow-up {k}", cg.timestamp(base_minute + k),
                     location=f"{tag} lab", by=analyst)
    for k, ev in enumerate(rng.sample(evidence, FORK_CUSTODY)):
        c.add_custody_event(terms.Iri(ev), "Analyzed", cg.timestamp(base_minute + 100 + k),
                            actor=analyst)
    # the first FORK_CONFLICTS components get a parent in both forks, a
    # different one in each, so each is one merge conflict
    for k in range(FORK_CONFLICTS):
        parent = components[FORK_CONFLICTS + (k if tag == "A" else FORK_CONFLICTS + k)]
        c.add(terms.Triple(terms.Iri(components[k]), ns.PROP_COMPONENT_OF, terms.Iri(parent)))


def fork(c: casekit.CaseGraph, rng: random.Random, targets: tuple) -> tuple:
    """Two from_graph copies of c, each grown by its own fork steps."""
    a = casekit.from_graph(c.graph, c.schema, c.catalog, rng=random.Random(rng.getrandbits(64)))
    b = casekit.from_graph(c.graph, c.schema, c.catalog, rng=random.Random(rng.getrandbits(64)))
    fork_steps(a, rng, "A", 20000, targets)
    fork_steps(b, rng, "B", 30000, targets)
    return a, b


def serialize(g) -> str:
    return turtle.serialize_turtle_canonical(terms.skolemize(g))


class Author:
    """Investigators build fresh cases through the casekit builder, validate
    them, fork and reconcile them, and write them out."""

    def __init__(self, seed: int):
        self.seed = seed
        self.checks = Checks()
        self.clock = Clock()

    def set_up(self):
        here = Path(sk_schema.__file__).parent
        return (sk_schema.load_schema_dir(here / "schemas"),
                sk_catalog.load_catalog_dir(here / "catalogs"))

    def one_pass(self, index: int, samples: dict) -> None:
        schema, catalog, step = self.schema, self.catalog, self.clock.step
        rng = random.Random(f"author:{self.seed}:{index}")
        script = make_script(rng, catalog)
        check = self.checks.expect

        c, dt = step(build, script, schema, catalog)
        samples["build_case_s"].append(dt)
        triples = c.graph.triples
        kinds = [count_type_terms(triples, cls) for cls in (
            ns.CLS_INCIDENT, ns.CLS_PROVENANCE_RECORD, ns.CLS_HASH_VALUE,
            ns.CLS_INVESTIGATIVE_ACTION, ns.CLS_ATTACK_TECHNIQUE, ns.CLS_ATTACK_PATTERN)]
        check(len(triples) == script.triples
              and kinds == [1, AUTHOR_BLOCKS, AUTHOR_BLOCKS, AUTHOR_BLOCKS,
                            len(script.techniques), len(script.patterns)],
              f"built case has {len(triples)} triples, expected {script.triples}; node counts {kinds}")

        report, dt = step(c.validate)
        samples["validate_s"].append(dt)
        check(report.findings == () and report.checked_triples == script.triples,
              f"built case has {len(report.findings)} findings")

        (a, b), _ = step(fork, c, rng, fork_targets(c.graph))
        grown = script.triples + FORK_GROWTH
        check(len(a.graph) == grown and len(b.graph) == grown,
              "a fork did not grow by the expected number of triples")

        (added, removed), _ = step(casekit.diff, a, b)
        check(len(added) == FORK_GROWTH and len(removed) == FORK_GROWTH
              and added == b.graph.triples - a.graph.triples,
              f"diff gave +{len(added)} -{len(removed)}, expected {FORK_GROWTH} each way")
        replayed, _ = step(casekit.apply_diff, a, added, removed)
        check(replayed.graph.triples == b.graph.triples, "apply_diff(a, diff(a, b)) != b")

        outcome, dt = step(casekit.merge, a, b)
        samples["merge_s"].append(dt)
        union = a.graph.triples | b.graph.triples
        check(len(outcome.conflicts) == FORK_CONFLICTS
              and len(outcome.merged.graph) == len(union) - FORK_CONFLICTS,
              f"merge reported {len(outcome.conflicts)} conflicts, expected {FORK_CONFLICTS}")

        text, _ = step(serialize, outcome.merged.graph)
        subjects = {t.subject for t in outcome.merged.graph.triples}
        blocks = sum(1 for line in text.splitlines() if line.startswith("kb:"))
        check(text.startswith("@prefix") and blocks == len(subjects),
              f"serialized {blocks} subject blocks for {len(subjects)} subjects")
        samples["built"].append(script.triples + 2 * FORK_GROWTH)

    def run(self, seconds: float, trace: bool) -> Outcome:
        setups = SetUps("author", self.clock, self.set_up)
        self.schema, self.catalog = setups.again()
        samples = {k: [] for k in ("build_case_s", "validate_s", "merge_s", "built")}
        one_pass = lambda i: self.one_pass(i, samples)  # noqa: E731
        if trace:
            metrics, passes = paired_trace(seconds, self.clock, one_pass, setups.again)
            table = {"setup_s": (setups.median(), "s"), "fail_ratio": (self.checks.fail_ratio, "ratio")}
            return Outcome(metrics, table, self.checks,
                           [f"traced passes: {passes}, each after the same pass untraced"])
        durations, wall = run_passes(seconds, self.clock, one_pass, setups.again)
        pass_s = statistics.median(durations)
        metrics = {
            "setup_s": (setups.median(), "s"),
            "pass_s": (pass_s, "s"),
            "triples_per_s": (sum(samples["built"]) / sum(durations), "1/s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "validate_s": (statistics.median(samples["validate_s"]), "s"),
        }
        table = dict(metrics)
        table["pass_wall_s"] = (statistics.median(wall), "s")
        table["build_case_s"] = (statistics.median(samples["build_case_s"]), "s")
        table["merge_s"] = (statistics.median(samples["merge_s"]), "s")
        table["fail_ratio"] = (self.checks.fail_ratio, "ratio")
        notes = [f"passes: {len(durations)}; triples built per pass: {samples['built'][0]}"]
        return Outcome(metrics, table, self.checks, notes)


def count_type_terms(triples, class_iri) -> int:
    return sum(1 for t in triples if t.predicate == terms.RDF_TYPE and t.object == class_iri)


# -- analyst ----------------------------------------------------------------

def make_queries(rng: random.Random, case: cg.Case) -> list:
    """The session's query mix: type scans, 2-4 pattern joins, regex
    filters and full scans, in the fixed proportions of ANALYST_MIX. Within
    each kind the templates take turns and the seed picks only their
    parameters, so a pass costs about the same for every seed."""
    P = lambda prop: iri(prop.value)  # noqa: E731
    classes = sorted({o for s, p, o in case.triples if p == RDF_TYPE})
    tactics = sorted({o for s, p, o in case.triples if p == P(ns.PROP_TACTIC)})
    infra = [iri(ns.infrastructure(c).value) for c in cg.INFRA_CLASSES]
    stride = [iri(ns.threats(c).value) for c in cg.STRIDE_CLASSES]
    evidence = [iri(ns.evidence(c).value) for c in cg.EVIDENCE_CLASSES]

    scanned = iter(classes * 2)  # the same classes in the same order for every seed

    def type_scan():
        return cg.Query((("?x", RDF_TYPE, next(scanned)),))

    joins = [
        lambda: cg.Query((("?e", P(ns.PROP_EVIDENCE_OF), "?c"),
                          ("?c", P(ns.PROP_CRIME_TYPE), lit(rng.choice(cg.CRIME_TYPES))))),
        lambda: cg.Query((("?r", P(ns.PROP_CUSTODY_OF), "?e"),
                          ("?r", P(ns.PROP_CUSTODY_ACTION), lit(rng.choice(cg.FOLLOW_UP_ACTIONS))),
                          ("?e", RDF_TYPE, rng.choice(evidence)))),
        lambda: cg.Query((("?c", P(ns.PROP_AFFECTS), "?x"), ("?x", RDF_TYPE, rng.choice(infra)),
                          ("?t", P(ns.PROP_TARGETS), "?x"), ("?t", RDF_TYPE, rng.choice(stride)))),
        lambda: cg.Query((("?c", P(ns.PROP_USES_TECHNIQUE), "?t"),
                          ("?t", P(ns.PROP_TACTIC), rng.choice(tactics)),
                          ("?c", P(ns.PROP_ADVERSARY), "?a"))),
        lambda: cg.Query((("?a", P(ns.PROP_PERFORMED_BY), "?p"), ("?p", P(ns.PROP_NAME), "?n"))),
    ]
    regexes = [
        lambda: cg.Query((("?x", P(ns.PROP_NAME), "?n"),),
                         (("?n", f"^{rng.choice(cg.DISTRICTS)} .* component [0-9]*{rng.randint(0, 9)}$"),)),
        lambda: cg.Query((("?i", P(ns.PROP_DOMAIN_NAME), "?d"),),
                         (("?d", rf"^({rng.choice(cg.WORDS)}|{rng.choice(cg.WORDS)})[0-9]+-.*\.(com|net)$"),)),
        lambda: cg.Query((("?r", P(ns.PROP_CUSTODY_TS), "?ts"),),
                         (("?ts", f"^2100-01-0[1-2]T{rng.randint(0, 1)}[0-9]:[0-5]5"),)),
        lambda: cg.Query((("?e", P(ns.PROP_DESCRIPTION), "?d"),),
                         (("?d", f"^({rng.choice(cg.EVIDENCE_CLASSES)}|Step [0-9]+:) .*{rng.choice(cg.WORDS)}"),)),
        lambda: cg.Query((("?h", P(ns.PROP_MD5), "?m"),), (("?m", f"^{rng.randint(0, 9)}[a-f]+[0-9]"),)),
    ]
    unselective = [
        lambda: cg.Query((("?s", "?p", "?o"),)),
        lambda: cg.Query((("?s", "?p", "?o"),), (("?p", "(name|Time)$"),)),
        lambda: cg.Query((("?s", "?p", "?o"),), (("?o", "^Step [0-9]*7"),)),
    ]
    templates = {"type": [type_scan], "join": joins, "regex": regexes, "unselective": unselective}
    return [templates[kind][k % len(templates[kind])]()
            for kind, n in ANALYST_MIX.items() for k in range(n)]


class Analyst:
    """A read-only session on one parsed case: queries, reports, IoC export
    and validation against a warm graph."""

    def __init__(self, seed: int):
        self.seed = seed
        self.checks = Checks()
        self.clock = Clock()

    def set_up(self):
        rng = random.Random(self.seed)
        case = cg.generate_case(random.Random(rng.getrandbits(64)), ANALYST_BLOCKS)
        text = cg.to_turtle(case.triples)
        g = turtle.parse_turtle(text)
        c = casekit.from_graph(g, sk_schema.load_default_schema(), sk_catalog.load_default_catalog())
        c.graph.match(c.case_iri, None, None)  # the first lookup builds the index
        if len(c.graph) != len(case.triples) or c.case_iri.value != term_text(case.incident):
            raise RuntimeError("parsed case does not match the generated one")
        return case, c, len(text.encode("utf-8")), rng

    def run(self, seconds: float, trace: bool) -> Outcome:
        setups = SetUps("analyst", self.clock, self.set_up)
        case, c, ttl_bytes, rng = setups.again()
        queries = make_queries(random.Random(rng.getrandbits(64)), case)
        reference = cg.Reference(case.triples)
        short = cg.Abbreviator()
        expected = {q: reference.count(q) for q in set(queries)}
        texts = {q: q.text(short) for q in expected}
        g, schema, catalog = c.graph, c.schema, c.catalog
        check = self.checks.expect
        samples = {k: [] for k in ("query_ms", "report_s", "validate_s")}

        step = self.clock.step

        def run_queries(order):
            return [timed(sk_query.run_text_query, g, texts[q]) for q in order]

        def one_pass(index):
            order = random.Random(f"analyst:{self.seed}:{index}").sample(queries, len(queries))
            results, _ = step(run_queries, order)
            for q, (table, dt) in zip(order, results):
                samples["query_ms"].append(dt * self.clock.scale * 1000)
                check(len(table) == expected[q], f"query returned {len(table)} rows, "
                      f"expected {expected[q]}:\n{texts[q]}")
            md, dt = step(lambda: sk_report.render_markdown(sk_report.summarize(c)))
            samples["report_s"].append(dt)
            check(f"IoCs: {case.ioc_count}," in md and f"techniques: {case.technique_count}," in md
                  and md.startswith("# Case report"), "report counts differ from the generator's")
            csv_text, _ = step(c.export_iocs)
            check(csv_text.count("\n") == case.ioc_count + 1, "IoC export row count")
            report, dt = step(validation.validate_graph, g, schema, catalog)
            samples["validate_s"].append(dt)
            check(report.findings == () and report.checked_triples == len(case.triples),
                  "validation of the parsed case found problems")

        if trace:
            metrics, passes = paired_trace(seconds, self.clock, one_pass, setups.again)
            table = {"setup_s": (setups.median(), "s"), "fail_ratio": (self.checks.fail_ratio, "ratio")}
            return Outcome(metrics, table, self.checks,
                           [f"traced passes: {passes}, each after the same pass untraced"])
        durations, wall = run_passes(seconds, self.clock, one_pass, setups.again,
                                     math.ceil(MIN_QUERY_SAMPLES / len(queries)))
        pass_s = statistics.median(durations)
        ops = len(queries) + 3  # each reads the one case
        q = statistics.quantiles(samples["query_ms"], n=100)
        metrics = {
            "setup_s": (setups.median(), "s"),
            "pass_s": (pass_s, "s"),
            "triples_per_s": (ops * len(case.triples) / pass_s, "1/s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "validate_s": (statistics.median(samples["validate_s"]), "s"),
        }
        table = dict(metrics)
        table["pass_wall_s"] = (statistics.median(wall), "s")
        table["query_p50_ms"] = (statistics.median(samples["query_ms"]), "ms")
        table["query_p95_ms"] = (q[94], "ms")
        table["report_s"] = (statistics.median(samples["report_s"]), "s")
        table["fail_ratio"] = (self.checks.fail_ratio, "ratio")
        notes = [f"passes: {len(durations)}, query samples: {len(samples['query_ms'])}, "
                 f"case: {len(case.triples)} triples, {ttl_bytes} B of Turtle"]
        return Outcome(metrics, table, self.checks, notes)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, src: Path) -> Outcome:
    if name == "exchange":
        return Exchange(seed, work, src).run(seconds, trace)
    if name == "author":
        return Author(seed).run(seconds, trace)
    return Analyst(seed).run(seconds, trace)
