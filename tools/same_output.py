#!/usr/bin/env python3
"""Check that this checkout writes what a git revision writes, on one fixed corpus.

    python tools/same_output.py REV [--expect FILE]

REV is checked out with `git worktree add --detach` into a temporary
directory, which is removed on exit, also on failure. One child interpreter
per tree (this checkout's `src/` and REV's) runs the same list of commands
in process and reports each one's stdout, stderr and exit code:

- every CLI subcommand (`validate` as text and JSON, `convert` to N-Triples
  and to Turtle, `query` with and without `--count`, `diff`, `merge`,
  `report` as Markdown and JSON, `iocs export` and `iocs import`) on the
  three bundled fixtures, on the `exchange` benchmark's seed-1 files A.ttl,
  A.nt and B.ttl (built as perfbench/workloads.py builds them), on the
  cases perfbench/casegen.py generates from seeds 1-20, on an empty graph
  and a graph whose diff from it sorts one way on terms and another
  bytewise, and on malformed records from tests/helpers.py: a custody
  record with two sequence numbers, and IoCs stored defanged or in
  uppercase (also imported again from a feed that repeats them); on
  the graphs of helpers.column_branch_graphs: a node with two types,
  custody chains of one and three records, a record whose canonical first
  timestamp is malformed, and an untyped subject with a domain property;
  on a graph whose only Incident is a blank node; on two versions of
  one case whose shared subjects hold a different non-functional value on
  each side (helpers.non_functional_pair), which `diff` and `merge` read;
  and on scenario1 plus a blank node named "alice" or "bob"
  (helpers.blank_object_text), whose writes skolemize it, also as a pair;
- `validate` and `report` of a custody sequence of "+-5" or "\u00b2" under a
  schema copy that gives custodySequence no range;
- the TSV of each of the 80 queries of the `analyst` benchmark (seed 1) on
  its case, built as perfbench/workloads.py builds them;
- from the library, the canonical Turtle and N-Triples of those graphs;
- the parse outcome (class, message, line, column) of every Turtle and
  N-Triples mutant that tests/test_contracts.py draws.

Both trees read the same inputs, built once by this checkout. Each command
whose outputs differ is printed with a short diff. The exit status is 1 when
a command differs that the --expect file (one command name per line, `#`
comments) does not list, 2 when git or a runner fails, and 0 otherwise.

Without --expect, the list is tools/same_output.expect when that file differs
from REV's copy (or REV has none): a change lists there the commands whose
output it changes on purpose. Once REV holds the file as it is here, the
list is empty, so any difference fails.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import difflib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECT = Path(__file__).resolve().with_name("same_output.expect")
EXCHANGE_BLOCKS = 92  # perfbench/workloads.py
CASEGEN_SEEDS = range(1, 21)
CASEGEN_BLOCKS = 32  # about 1.3k triples, the fewest that casegen.agency_b takes
QUERIES = ("?s ?p ?o", "?x a ?kind\n?x ?p ?v\nFILTER ?p /name|Time$/")
IOC_CSV = ("kind,value,source\nDomain,example[.]test,same-output\n"
           "Md5Hash,00C4C3946EC03C915CFE4CBDDFFE93DA,same-output\nMd5Hash,not-a-digest,same-output\n")
# the values helpers.stored_iocs_case stores, as a feed would send them again
REPEAT_CSV = ("kind,value,source\nDomain,evil[.]example,same-output\n"
              "Md5Hash,d41d8cd98f00b204e9800998ecf8427e,same-output\n")
# "<http://ex/a>" sorts after "<http://ex/a-b>" bytewise, and an IRI object
# after a literal one, the reverse of the term order
ORDER_NT = ("<http://ex/a> <http://ex/p> <http://ex/o> .\n<http://ex/a> <http://ex/p> \"lit\" .\n"
            "<http://ex/a-b> <http://ex/p> <http://ex/o> .\n")
ODD_SEQUENCES = ("+-5", "\u00b2")
ANALYST_SEED = 1

# Each child puts its tree's src/ and this directory first on its path, so
# both trees run the same run_jobs.
CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import same_output; "
         "same_output.run_jobs(*sys.argv[3:])")


def run_jobs(jobs_file: str, results_file: str) -> None:
    """Run each job of jobs_file in this process and write its [stdout,
    stderr, exit code] to results_file; a job that raises reports
    "exception" and the exception on its stderr."""
    results, parsed = [], {}
    for job in json.loads(Path(jobs_file).read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run_job(job, parsed)
            except Exception as e:
                print(f"{type(e).__name__}: {e}", file=sys.stderr)
                code = "exception"
        results.append([out.getvalue(), err.getvalue(), code])
    Path(results_file).write_text(json.dumps(results))


def run_job(job: dict, parsed: dict):
    """One job's exit code; its output goes to sys.stdout and sys.stderr.
    parsed maps a path to its graph, so the "tsv" jobs on one case parse it once."""
    from scopekit import cli
    from scopekit.errors import ParseError
    from scopekit.ntriples import parse_ntriples, render_triple, serialize_ntriples_canonical
    from scopekit.query import run_text_query
    from scopekit.terms import skolemize
    from scopekit.turtle import parse_turtle, serialize_turtle_canonical

    kind = job["kind"]
    if kind == "cli":
        return cli.main(job["argv"])
    if kind == "tsv":
        if job["path"] not in parsed:
            parsed[job["path"]] = parse_turtle(Path(job["path"]).read_bytes())
        sys.stdout.write(run_text_query(parsed[job["path"]], job["query"]).to_tsv())
        return 0
    if kind == "write":
        path = Path(job["path"])
        g = skolemize((parse_ntriples if path.suffix == ".nt" else parse_turtle)(path.read_bytes()))
        sys.stdout.write(serialize_turtle_canonical(g) + serialize_ntriples_canonical(g))
        return 0
    try:
        g = (parse_ntriples if kind == "parse-nt" else parse_turtle)(base64.b64decode(job["data"]))
    except ParseError as e:
        print(type(e).__name__, str(e), e.line, e.column, sep="\n")
        return 2
    print(*sorted(g.prefixes.items()), *sorted(map(render_triple, g)), sep="\n")
    return 0


def build_inputs(work: Path) -> tuple[list[Path], list[tuple[Path, Path]]]:
    """Write the corpus files into work: every case file, and the pairs that
    diff and merge read."""
    import casegen as cg
    import helpers
    from scopekit.turtle import serialize_turtle_canonical

    files, pairs = [], []

    def write(name: str, text: str) -> Path:
        path = work / name
        path.write_text(text, encoding="utf-8")
        files.append(path)
        return path

    fixtures = [write(p.name, p.read_text(encoding="utf-8"))
                for p in sorted((ROOT / "src" / "scopekit" / "fixtures").glob("*.ttl"))]
    pairs += zip(fixtures, fixtures[1:] + fixtures[:1])
    # as perfbench/workloads.py Exchange.set_up builds them
    rng = random.Random(1)
    case = cg.generate_case(random.Random(rng.getrandbits(64)), EXCHANGE_BLOCKS)
    variant = cg.agency_b(case, random.Random(rng.getrandbits(64)))
    a_ttl = write("A.ttl", cg.to_turtle(case.triples))
    a_nt = write("A.nt", cg.to_ntriples(case.triples))
    b_ttl = write("B.ttl", cg.to_turtle(variant.triples))
    pairs += [(a_ttl, b_ttl), (a_nt, b_ttl)]
    # each seed's case, and another agency's version of it to diff and merge
    for seed in CASEGEN_SEEDS:
        case = cg.generate_case(random.Random(seed), CASEGEN_BLOCKS)
        variant = cg.agency_b(case, random.Random(1000 + seed))
        pairs.append((write(f"case{seed}.ttl", cg.to_turtle(case.triples)),
                      write(f"case{seed}-b.ttl", cg.to_turtle(variant.triples))))
    # a diff whose lines sort one way on terms and another bytewise
    empty, order = write("empty.nt", ""), write("order.nt", ORDER_NT)
    pairs += [(empty, order), (order, empty)]
    # one subject with a different non-functional value on each side
    a, b, _ = helpers.non_functional_pair()
    pairs.append((write("non-functional-a.ttl", a.to_turtle()),
                  write("non-functional-b.ttl", b.to_turtle())))
    write("blank-incident.ttl", helpers.blank_incident_text())
    # a case with a blank node, which convert, merge and iocs import write
    pairs.append(tuple(write(f"blank-object-{name}.ttl", helpers.blank_object_text(name))
                       for name in ("alice", "bob")))
    write("doubled-sequence.ttl", helpers.doubled_sequence_case().to_turtle())
    write("stored-iocs.ttl", helpers.stored_iocs_case().to_turtle())
    for name, g in helpers.column_branch_graphs().items():
        write(f"{name}.ttl", serialize_turtle_canonical(g))
    return files, pairs


def build_special_jobs(work: Path, cli) -> list[dict]:
    """The commands that need their own inputs: an import feed that repeats
    stored IoCs, malformed sequences under a schema that does not check them,
    and the `analyst` queries on their case."""
    import casegen as cg
    import helpers
    import workloads as wl
    from scopekit.turtle import serialize_turtle_canonical

    repeat = work / "repeat.csv"
    repeat.write_text(REPEAT_CSV, encoding="utf-8")
    cli("iocs", "import", work / "stored-iocs.ttl", repeat)
    schemas = helpers.schemas_without_sequence_range(
        ROOT / "src" / "scopekit" / "schemas", work / "schemas-no-sequence-range")
    for i, lexical in enumerate(ODD_SEQUENCES):
        path = work / f"odd-sequence{i}.ttl"
        path.write_text(serialize_turtle_canonical(helpers.malformed_sequence_graph(lexical)),
                        encoding="utf-8")
        cli("validate", path, "--schema", schemas)
        cli("report", path, "--schema", schemas)
        cli("report", path, "--schema", schemas, "--format", "json")
    # as perfbench/workloads.py Analyst builds them
    rng = random.Random(ANALYST_SEED)
    case = cg.generate_case(random.Random(rng.getrandbits(64)), wl.ANALYST_BLOCKS)
    queries = wl.make_queries(random.Random(rng.getrandbits(64)), case)
    path = work / "analyst.ttl"
    path.write_text(cg.to_turtle(case.triples), encoding="utf-8")
    short = cg.Abbreviator()
    return [{"kind": "tsv", "path": str(path), "query": q.text(short),
             "name": f"analyst query {i}: " + q.text(short).replace("\n", "\\n")}
            for i, q in enumerate(queries)]


def build_jobs(work: Path) -> list[dict]:
    """The corpus: one job per command, each with the name it is reported by."""
    for sub in ("src", "tests", "perfbench"):
        sys.path.insert(0, str(ROOT / sub))
    files, pairs = build_inputs(work)
    csv = work / "feed.csv"
    csv.write_text(IOC_CSV, encoding="utf-8")
    jobs = []

    def cli(*argv) -> None:
        jobs.append({"kind": "cli", "argv": [str(a) for a in argv],
                     "name": "scopekit " + " ".join(a.name if isinstance(a, Path) else a
                                                    for a in argv).replace("\n", "\\n")})

    for path in files:
        cli("validate", path)
        cli("validate", path, "--format", "json")
        cli("convert", path, "--to", "nt" if path.suffix == ".ttl" else "ttl")
        cli("convert", path, "--to", "ttl" if path.suffix == ".ttl" else "nt")
        for query in QUERIES:
            cli("query", path, "-q", query)
            cli("query", path, "--count", "-q", query)
        cli("report", path)
        cli("report", path, "--format", "json")
        cli("iocs", "export", path)
        cli("iocs", "import", path, csv)
        jobs.append({"kind": "write", "path": str(path), "name": f"canonical {path.name}"})
    for a, b in pairs:
        cli("diff", a, b)
        cli("merge", a, b)
    jobs += build_special_jobs(work, cli)
    import test_contracts as tc

    for fixture in tc.FIXTURE_FILES:
        for kind, draw in (("parse-ttl", tc.mutants), ("parse-nt", tc.ntriples_mutants)):
            for i, data in enumerate(draw(fixture.name, 150)):
                jobs.append({"kind": kind, "data": base64.b64encode(data).decode(),
                             "name": f"{kind} mutant {i} of {fixture.name}"})
    return jobs


def run_trees(trees: dict[str, Path], jobs: list[dict], work: Path) -> dict[str, list]:
    """Each tree's [stdout, stderr, exit code] per job, from one child each,
    run side by side with a fixed hash seed and no PYTHONPATH."""
    (work / "jobs.json").write_text(json.dumps(jobs))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    children = {
        label: subprocess.Popen(
            [sys.executable, "-c", CHILD, str(src), str(Path(__file__).resolve().parent),
             str(work / "jobs.json"), str(work / f"{label}.json")], cwd=work, env=env)
        for label, src in trees.items()}
    try:
        for label, child in children.items():
            if child.wait(timeout=900) != 0:
                raise RuntimeError(f"the runner of {label} exited {child.returncode}")
    finally:
        for child in children.values():
            child.kill()
    return {label: json.loads((work / f"{label}.json").read_text()) for label in trees}


def short_diff(what: str, old: str, new: str, limit: int = 12) -> list[str]:
    lines = list(difflib.unified_diff(old.splitlines(), new.splitlines(), f"{what} at REV",
                                      f"{what} here", lineterm="", n=1))
    return lines[:limit] + ([f"... {len(lines) - limit} more diff lines"] if len(lines) > limit else [])


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          capture_output=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("--expect", type=Path, metavar="FILE",
                        help="commands, one name per line, whose output may differ")
    args = parser.parse_args(argv)
    began = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix="same-output-"))
    tree = tmp / "rev"
    try:
        commit = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
        git("worktree", "add", "--detach", str(tree), commit)
        expect, at_rev = args.expect, tree / EXPECT.relative_to(ROOT)
        if expect is None and EXPECT.exists() and (
                not at_rev.exists() or at_rev.read_bytes() != EXPECT.read_bytes()):
            expect = EXPECT
            print(f"same_output: expecting the commands that {EXPECT.relative_to(ROOT)} lists")
        expected = {line.strip() for line in expect.read_text(encoding="utf-8").splitlines()
                    if line.strip() and not line.lstrip().startswith("#")} if expect else set()
        work = tmp / "work"
        work.mkdir()
        jobs = build_jobs(work)
        results = run_trees({"rev": tree / "src", "here": ROOT / "src"}, jobs, work)
    except subprocess.CalledProcessError as e:
        print(f"same_output: git {e.cmd[3]}: {e.stderr.strip()}", file=sys.stderr)
        return 2
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"same_output: {e}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    unexpected = differing = 0
    for job, old, new in zip(jobs, results["rev"], results["here"]):
        if old == new:
            continue
        differing += 1
        name = job["name"]
        listed = name in expected
        unexpected += not listed
        print(f"{'expected' if listed else 'DIFFERS'}: {name}")
        if old[2] != new[2]:
            print(f"  exit code: {old[2]} at REV, {new[2]} here")
        for what, i in (("stdout", 0), ("stderr", 1)):
            if old[i] != new[i]:
                print("\n".join("  " + line for line in short_diff(what, old[i], new[i])))
    print(f"same_output: {len(jobs)} commands against {commit[:12]}, {differing} differ, "
          f"{unexpected} not expected, {time.perf_counter() - began:.1f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
