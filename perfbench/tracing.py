"""Per-layer tracing from outside the program.

The tracer replaces scopekit's public functions and a few methods with
wrappers that time each call as a span. A layer's self time is its spans'
duration minus the time of the traced spans nested inside them, so nothing is
counted twice. Counts (calls, rows, findings, conflicts) are recorded at the
same boundaries. Everything stays in memory; `snapshot()` hands it out.

scopekit binds some functions into other modules at import (`cli` imports
`parse_turtle` by name, for example), so each wrapper is installed at every
place the name is looked up at call time. The schema loader's own use of
`parse_turtle` is left unwrapped on purpose: that time belongs to
`schema.load_s`, and `turtle.parse_s` measures case documents only.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

MIB = 1024 * 1024


def _doc_bytes(doc) -> int:
    return len(doc) if isinstance(doc, bytes) else len(doc.encode("utf-8"))


def _findings(report) -> int:
    return len(report.findings)


def _conflicts(outcome) -> int:
    return len(outcome.conflicts)


# (layer, [binding sites], measure of the result or None, measure of the
# first argument or None). A binding site is "module:attribute" or
# "module:Class.method".
SPANS = (
    ("turtle.parse", ["turtle:parse_turtle", "cli:parse_turtle"], None, _doc_bytes),
    ("turtle.serialize", ["turtle:serialize_turtle_canonical", "cli:serialize_turtle_canonical",
                          "casekit:serialize_turtle_canonical"], None, None),
    ("ntriples.parse", ["ntriples:parse_ntriples", "cli:parse_ntriples"], None, _doc_bytes),
    ("ntriples.serialize", ["ntriples:serialize_ntriples_canonical",
                            "cli:serialize_ntriples_canonical"], None, None),
    ("terms.skolemize", ["terms:skolemize", "cli:skolemize"], None, None),
    ("terms.match", ["terms:Graph.match"], None, None),
    ("terms.insert", ["terms:Graph.insert"], None, None),
    ("schema.load", ["schema:load_default_schema", "cli:load_default_schema",
                     "casekit:load_default_schema"], None, None),
    ("catalog.load", ["catalog:load_default_catalog", "cli:load_default_catalog",
                      "casekit:load_default_catalog"], None, None),
    ("validation.validate", ["validation:validate_graph", "cli:validate_graph"], _findings, None),
    ("casekit.build", [f"casekit:CaseGraph.{m}" for m in (
        "add_node", "add_component", "add_threat", "add_crime", "add_role", "add_evidence",
        "add_custody_event", "attach_technique", "add_action")] + ["casekit:new_case"],
     None, None),
    ("casekit.from_graph", ["casekit:from_graph"], None, None),
    ("casekit.diff", ["casekit:diff"], None, None),
    ("casekit.apply_diff", ["casekit:apply_diff"], None, None),
    ("casekit.merge", ["casekit:merge"], _conflicts, None),
    ("casekit.export_iocs", ["casekit:CaseGraph.export_iocs"], None, None),
    ("query.parse_query", ["query:parse_query"], None, None),
    ("query.run_query", ["query:run_query"], len, None),
    ("report.summarize", ["report:summarize", "cli:summarize"], None, None),
    ("report.render_markdown", ["report:render_markdown", "cli:render_markdown"], None, None),
)

# per-layer metric -> (layer, what, unit); what is "self" (seconds of self
# time), "calls", "result" (sum of the result measure), or "mib_per_s"
# (argument bytes over self time)
LAYER_METRICS = {
    "turtle.parse_s": ("turtle.parse", "self", "s"),
    "turtle.parse_mib_per_s": ("turtle.parse", "mib_per_s", "MiB/s"),
    "turtle.serialize_s": ("turtle.serialize", "self", "s"),
    "ntriples.parse_s": ("ntriples.parse", "self", "s"),
    "ntriples.parse_mib_per_s": ("ntriples.parse", "mib_per_s", "MiB/s"),
    "ntriples.serialize_s": ("ntriples.serialize", "self", "s"),
    "terms.skolemize_s": ("terms.skolemize", "self", "s"),
    "terms.match_s": ("terms.match", "self", "s"),
    "terms.match_calls": ("terms.match", "calls", "count"),
    "terms.insert_s": ("terms.insert", "self", "s"),
    "terms.insert_calls": ("terms.insert", "calls", "count"),
    "schema.load_s": ("schema.load", "self", "s"),
    "catalog.load_s": ("catalog.load", "self", "s"),
    "validation.validate_s": ("validation.validate", "self", "s"),
    "validation.findings": ("validation.validate", "result", "count"),
    "casekit.build_s": ("casekit.build", "self", "s"),
    "casekit.builder_calls": ("casekit.build", "calls", "count"),
    "casekit.from_graph_s": ("casekit.from_graph", "self", "s"),
    "casekit.diff_s": ("casekit.diff", "self", "s"),
    "casekit.apply_diff_s": ("casekit.apply_diff", "self", "s"),
    "casekit.merge_s": ("casekit.merge", "self", "s"),
    "casekit.merge_conflicts": ("casekit.merge", "result", "count"),
    "casekit.export_iocs_s": ("casekit.export_iocs", "self", "s"),
    "query.parse_query_s": ("query.parse_query", "self", "s"),
    "query.run_query_s": ("query.run_query", "self", "s"),
    "query.rows": ("query.run_query", "result", "count"),
    "report.summarize_s": ("report.summarize", "self", "s"),
    "report.render_markdown_s": ("report.render_markdown", "self", "s"),
}


class Tracer:
    """Install with `install()`, read per-pass figures with `snapshot()`
    after `reset()`, and put the program back with `uninstall()`."""

    def __init__(self):
        self._stack: list = []  # time covered by child spans, one slot per open span
        self._saved: list = []  # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.result = defaultdict(int)
        self.arg_bytes = defaultdict(int)

    def _wrap(self, layer, fn, measure_result, measure_arg):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self.self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[layer] += 1
            if measure_result is not None:
                self.result[layer] += measure_result(out)
            if measure_arg is not None:
                self.arg_bytes[layer] += measure_arg(args[0])
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers: dict = {}  # one wrapper per original function
        for layer, sites, measure_result, measure_arg in SPANS:
            for site in sites:
                module_name, _, path = site.partition(":")
                owner = importlib.import_module(f"scopekit.{module_name}")
                *outer, attribute = path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                original = owner.__dict__.get(attribute)
                if original is None:
                    continue  # moved or renamed: the layer reads 0
                if original not in wrappers:
                    wrappers[original] = self._wrap(layer, original, measure_result, measure_arg)
                self._saved.append((owner, attribute, original))
                setattr(owner, attribute, wrappers[original])

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def snapshot(self) -> dict:
        """Every per-layer metric for the work since the last reset."""
        out = {}
        for metric, (layer, what, _) in LAYER_METRICS.items():
            if what == "self":
                out[metric] = self.self_s[layer]
            elif what == "calls":
                out[metric] = self.calls[layer]
            elif what == "result":
                out[metric] = self.result[layer]
            else:
                seconds = self.self_s[layer]
                out[metric] = self.arg_bytes[layer] / MIB / seconds if seconds else 0.0
        return out
