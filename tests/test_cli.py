"""End-to-end CLI behaviour through main(argv): outputs and exit codes; and
the shipped fixtures and demos, which the CLI and the README point to."""

import errno
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scopekit
from scopekit.cli import main
from scopekit.turtle import parse_turtle, serialize_turtle_canonical

from conftest import FIXTURE_DIR
from helpers import (
    blank_incident_text,
    doubled_sequence_case,
    malformed_sequence_graph,
    run_python,
    schemas_without_sequence_range,
)

ROOT = Path(__file__).resolve().parents[1]


def run_module(*args, module="scopekit.cli", python=(), **kwargs):
    """`python PYTHON -m MODULE ARGS` in a fresh interpreter on this source
    tree; keyword arguments go to subprocess.run."""
    return run_python(*python, "-m", module, *args, **kwargs)


@pytest.fixture()
def case_file(tmp_path):
    """scenario1 written out via the init subcommand."""
    path = tmp_path / "case.ttl"
    assert main(["init", "--scenario", "1", "-o", str(path)]) == 0
    return path


@pytest.fixture()
def broken_file(tmp_path, case_file):
    text = case_file.read_text(encoding="utf-8")
    bad = text.replace("00c4c3946ec03c915cfe4cbddffe93da", "not-a-digest")
    path = tmp_path / "broken.ttl"
    path.write_text(bad, encoding="utf-8")
    return path


class TestValidate:
    def test_clean_case(self, capsys, case_file):
        assert main(["validate", str(case_file)]) == 0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ""

    def test_broken_case_exits_one(self, capsys, broken_file):
        assert main(["validate", str(broken_file)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines
        code, severity, subject, message = lines[0].split("\t")
        assert code == "R08"
        assert severity == "Error"

    def test_json_format(self, capsys, broken_file):
        assert main(["validate", str(broken_file), "--format", "json"]) == 1
        d = json.loads(capsys.readouterr().out)
        assert d["error_count"] >= 1
        assert d["findings"][0]["code"].startswith("R")

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["validate", str(tmp_path / "absent.ttl")]) == 2
        assert "scopekit:" in capsys.readouterr().err

    def test_malformed_turtle_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.ttl"
        bad.write_text("this is not turtle", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "scopekit:" in capsys.readouterr().err

    def test_output_flag_writes_file(self, capsys, tmp_path, broken_file):
        out = tmp_path / "report.txt"
        assert main(["validate", str(broken_file), "-o", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert "R08\tError\t" in out.read_text(encoding="utf-8")


class TestConvert:
    def test_round_trip_is_byte_stable(self, capsys, tmp_path, case_file):
        nt = tmp_path / "case.nt"
        ttl_a = tmp_path / "a.ttl"
        ttl_b = tmp_path / "b.ttl"
        assert main(["convert", str(case_file), "--to", "ttl", "-o", str(ttl_a)]) == 0
        assert main(["convert", str(case_file), "--to", "nt", "-o", str(nt)]) == 0
        assert main(["convert", str(nt), "--to", "ttl", "-o", str(ttl_b)]) == 0
        assert ttl_a.read_bytes() == ttl_b.read_bytes()
        assert main(["convert", str(ttl_b), "--to", "nt"]) == 0
        assert capsys.readouterr().out == nt.read_text(encoding="utf-8")

    def test_round_trip_diffs_empty_and_merges_valid(self, capsys, tmp_path, case_file):
        nt, back = tmp_path / "case.nt", tmp_path / "back.ttl"
        merged = tmp_path / "merged.ttl"
        assert main(["convert", str(case_file), "--to", "nt", "-o", str(nt)]) == 0
        assert main(["convert", str(nt), "--to", "ttl", "-o", str(back)]) == 0
        assert main(["diff", str(case_file), str(back)]) == 0
        assert capsys.readouterr().out == "# added\n# removed\n"
        assert main(["merge", str(case_file), str(back), "-o", str(merged)]) == 0
        assert main(["validate", str(merged)]) == 0
        assert capsys.readouterr() == ("", "")

    def test_convert_is_idempotent(self, capsys, tmp_path, case_file):
        once = tmp_path / "once.ttl"
        twice = tmp_path / "twice.ttl"
        assert main(["convert", str(case_file), "--to", "ttl", "-o", str(once)]) == 0
        assert main(["convert", str(once), "--to", "ttl", "-o", str(twice)]) == 0
        assert once.read_bytes() == twice.read_bytes()

    def test_nt_output_sorted(self, capsys, case_file):
        assert main(["convert", str(case_file), "--to", "nt"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert lines == sorted(lines)

    @pytest.mark.parametrize("escape", ["\\uD800", "\\uDFFF", "\\U0000D800"])
    def test_surrogate_escape_exits_two(self, tmp_path, escape):
        doc = tmp_path / "bad.nt"
        doc.write_text(f'<urn:x:s> <urn:x:p> "{escape}" .\n', encoding="utf-8")
        done = run_module("convert", str(doc), "--to", "ttl")
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert "not a Unicode scalar value (line 1, column 22)" in done.stderr


class TestQuery:
    QUERY = "?c a case-investigation:Incident"

    def test_inline_query(self, capsys, case_file):
        assert main(["query", str(case_file), "-q", self.QUERY]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "?c"
        assert len(lines) == 2

    def test_count_flag(self, capsys, case_file):
        assert main(["query", str(case_file), "-q", self.QUERY, "--count"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_query_from_file(self, capsys, tmp_path, case_file):
        qf = tmp_path / "q.txt"
        qf.write_text(self.QUERY + "\n", encoding="utf-8")
        assert main(["query", str(case_file), "-f", str(qf), "--count"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_query_from_stdin(self, capsys, monkeypatch, case_file):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.QUERY))
        assert main(["query", str(case_file), "--count"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_bad_query_exits_two(self, capsys, case_file):
        assert main(["query", str(case_file), "-q", "?s ?p"]) == 2
        assert "scopekit:" in capsys.readouterr().err

    def test_bad_filter_regex_exits_two(self, capsys, case_file):
        assert main(["query", str(case_file),
                     "-q", "?s ?p ?o\nFILTER ?o /a{2}/"]) == 2
        assert "scopekit:" in capsys.readouterr().err

    def test_ambiguous_filter_regex_exits_two_with_warnings_as_errors(self, case_file):
        # re warns about "[[" (a possible nested set); the filter is rejected
        # before the warning could become a traceback
        done = run_module("query", str(case_file), "--count", "-q", "?s ?p ?o\nFILTER ?o /[[a]/",
                          module="scopekit", python=("-W", "error"))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("scopekit: ambiguous filter regex: Possible nested set")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("flags", [[], ["--count"]])
    def test_query_past_the_row_cap_exits_two(self, tmp_path, flags):
        # 1,100 subjects share one predicate and one object, so the self-join
        # has 1.21M rows; the child's address space is limited, so a join
        # that overshot the cap could not take the machine's memory
        import resource

        doc = tmp_path / "wide.nt"
        doc.write_text("".join(f"<urn:x:s{i}> <urn:x:p> <urn:x:o> .\n" for i in range(1100)),
                       encoding="utf-8")
        limit = 512 * 1024 * 1024

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        done = run_module("query", str(doc), "-q", "?x ?p ?o\n?y ?p ?o", *flags,
                          preexec_fn=limit_memory)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "scopekit: query table passes 1,000,000 rows\n"


class TestDiff:
    def test_identical_files_exit_zero(self, capsys, case_file):
        assert main(["diff", str(case_file), str(case_file)]) == 0
        assert capsys.readouterr().out == "# added\n# removed\n"

    def test_different_files_exit_one(self, capsys, tmp_path, case_file):
        other = tmp_path / "other.ttl"
        assert main(["init", "--scenario", "2", "-o", str(other)]) == 0
        capsys.readouterr()
        assert main(["diff", str(case_file), str(other)]) == 1
        out = capsys.readouterr().out
        added = out.index("# added")
        removed = out.index("# removed")
        assert added < removed
        assert out.count(" .\n") > 0

    def test_lines_come_in_the_n_triples_writer_order(self, capsys, tmp_path):
        # "<http://ex/a>" sorts after "<http://ex/a-b>" bytewise, and an IRI
        # object after a literal one, the reverse of the term order; six
        # lines, so that an unsorted diff is seldom sorted by chance
        empty, case = tmp_path / "empty.nt", tmp_path / "case.nt"
        empty.write_text("", encoding="utf-8")
        case.write_text("<http://ex/a> <http://ex/p> <http://ex/o> .\n"
                        '<http://ex/a> <http://ex/p> "lit" .\n'
                        '<http://ex/a> <http://ex/p> "lit"@en .\n'
                        "<http://ex/a-b> <http://ex/p> <http://ex/o> .\n"
                        "<http://ex/a.b> <http://ex/p> <http://ex/o> .\n"
                        "<http://ex/a/b> <http://ex/p> <http://ex/o> .\n", encoding="utf-8")
        assert main(["convert", str(case), "--to", "nt"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == sorted(lines)
        assert main(["diff", str(empty), str(case)]) == 1
        assert capsys.readouterr().out.splitlines() == ["# added", *lines, "# removed"]
        assert main(["diff", str(case), str(empty)]) == 1
        assert capsys.readouterr().out.splitlines() == ["# added", "# removed", *lines]


class TestMerge:
    def test_self_merge_exits_zero(self, capsys, case_file):
        assert main(["merge", str(case_file), str(case_file)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        parse_turtle(out.out)  # merged graph on stdout is valid turtle

    def test_conflicts_exit_one(self, capsys, tmp_path, case_file, broken_file):
        # broken_file swaps one md5 value, so the functional property conflicts
        assert main(["merge", str(case_file), str(broken_file)]) == 1
        out = capsys.readouterr()
        assert "M01\tError\t" in out.err
        assert "md5Hash" in out.err

    def test_output_flag_moves_conflicts_to_stdout(self, capsys, tmp_path,
                                                   case_file, broken_file):
        merged = tmp_path / "merged.ttl"
        assert main(["merge", str(case_file), str(broken_file),
                     "-o", str(merged)]) == 1
        out = capsys.readouterr()
        assert "M01\tError\t" in out.out
        assert merged.exists()
        # first file's digest survives in the merged graph
        assert "00c4c3946ec03c915cfe4cbddffe93da" in merged.read_text(encoding="utf-8")
        assert "not-a-digest" not in merged.read_text(encoding="utf-8")

    def test_mismatched_cases_exit_two(self, capsys, tmp_path, case_file):
        other = tmp_path / "other.ttl"
        main(["init", "--scenario", "2", "-o", str(other)])
        capsys.readouterr()
        assert main(["merge", str(case_file), str(other)]) == 2
        assert "scopekit:" in capsys.readouterr().err

    def test_allow_mismatch(self, capsys, tmp_path, case_file):
        other = tmp_path / "other.ttl"
        main(["init", "--scenario", "2", "-o", str(other)])
        capsys.readouterr()
        assert main(["merge", str(case_file), str(other), "--allow-mismatch"]) == 0


class TestReport:
    def test_markdown_report(self, capsys, case_file):
        assert main(["report", str(case_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Case report: punggol-ransomware-triage")
        for section in ("## Overview", "## Threats", "## TTPs", "## IoCs",
                        "## Custody", "## Actions"):
            assert section in out

    def test_json_report(self, capsys, case_file):
        assert main(["report", str(case_file), "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["case"]["name"] == "punggol-ransomware-triage"

    def test_a_blank_node_incident_exits_two(self, capsys, tmp_path):
        path = tmp_path / "blank.ttl"
        path.write_text(blank_incident_text(), encoding="utf-8")
        assert main(["report", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "scopekit: graph contains no Incident node\n"

    def test_invalid_case_exits_one_with_findings(self, capsys, broken_file):
        assert main(["report", str(broken_file)]) == 1
        err = capsys.readouterr().err
        assert "does not validate" in err
        assert "R08\tError\t" in err


class TestInit:
    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_fixtures_ship_clean(self, capsys, tmp_path, scenario):
        path = tmp_path / f"s{scenario}.ttl"
        assert main(["init", "--scenario", str(scenario), "-o", str(path)]) == 0
        assert main(["validate", str(path)]) == 0

    def test_init_matches_packaged_fixture(self, capsys):
        assert main(["init", "--scenario", "3"]) == 0
        out = capsys.readouterr().out
        packaged = (FIXTURE_DIR / "scenario3.ttl").read_text(encoding="utf-8")
        assert out == packaged

    def test_generator_writes_the_packaged_fixtures(self, monkeypatch):
        # tools/generate_fixtures.py's builders, byte for byte; its check
        # that each builds a clean case is test_fixtures_ship_clean. The
        # generator puts its src/ on sys.path, which the test restores.
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("generate_fixtures",
                                                      ROOT / "tools" / "generate_fixtures.py")
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        for n, build in enumerate((generator.scenario1, generator.scenario2,
                                   generator.scenario3), start=1):
            assert build().encode("utf-8") == (FIXTURE_DIR / f"scenario{n}.ttl").read_bytes()


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(tmp_path, demo):
    done = run_python(str(ROOT / "demos" / demo), cwd=tmp_path)
    assert done.returncode == 0, done.stderr


class TestIocs:
    def test_export(self, capsys, tmp_path):
        path = tmp_path / "s3.ttl"
        main(["init", "--scenario", "3", "-o", str(path)])
        capsys.readouterr()
        assert main(["iocs", "export", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "kind,value,source"
        assert len(lines) == 10  # header + 3 hashes + 6 domains
        assert "agegamepay[.]com" in out

    def test_import_round_trip(self, capsys, tmp_path, case_file):
        csv_path = tmp_path / "iocs.csv"
        csv_path.write_text(
            "kind,value,source\n"
            "Domain,example[.]test,unit\n"
            "Md5Hash," + "9" * 32 + ",unit\n",
            encoding="utf-8")
        merged = tmp_path / "with-iocs.ttl"
        assert main(["iocs", "import", str(case_file), str(csv_path),
                     "-o", str(merged)]) == 0
        err = capsys.readouterr().err
        assert "imported 2 IoC rows" in err

        assert main(["iocs", "export", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "example[.]test" in out
        assert "9" * 32 in out
        # a builder-written graph validates and reports
        assert main(["validate", str(merged)]) == 0
        assert main(["report", str(merged)]) == 0
        assert capsys.readouterr().err == ""

    def test_import_is_deterministic(self, tmp_path, case_file):
        # each run is a fresh interpreter, so nothing but the inputs can fix
        # the IRIs minted for new IoC nodes
        feeds = []
        for source in ("unit", "other-unit"):
            feed = tmp_path / f"{source}.csv"
            feed.write_text(f"kind,value,source\nDomain,example[.]test,{source}\n",
                            encoding="utf-8")
            feeds.append(feed)
        runs = [run_module("iocs", "import", str(case_file), str(feed))
                for feed in (feeds[0], feeds[0], feeds[1])]
        assert [r.returncode for r in runs] == [0, 0, 0]
        assert runs[0].stdout == runs[1].stdout

        case_nodes = {t.subject for t in parse_turtle(case_file.read_bytes())}

        def new_nodes(run):
            return {t.subject for t in parse_turtle(run.stdout)} - case_nodes

        assert len(new_nodes(runs[0])) == 1
        assert new_nodes(runs[0]).isdisjoint(new_nodes(runs[2]))

    def test_import_skolemizes_blank_nodes(self, capsys, tmp_path, case_file):
        with case_file.open("a", encoding="utf-8") as f:
            f.write('_:b1 uco-core:name "blank" .\n')
        csv_path = tmp_path / "iocs.csv"
        csv_path.write_text("kind,value,source\nDomain,example[.]test,unit\n", encoding="utf-8")
        assert main(["iocs", "import", str(case_file), str(csv_path)]) == 0
        g = parse_turtle(capsys.readouterr().out)
        assert "urn:skolem:b1" in {t.subject.value for t in g}

    def test_import_reports_bad_rows(self, capsys, tmp_path, case_file):
        csv_path = tmp_path / "iocs.csv"
        csv_path.write_text("kind,value,source\nBeacon,10.0.0.1,unit\n",
                            encoding="utf-8")
        assert main(["iocs", "import", str(case_file), str(csv_path),
                     "-o", str(tmp_path / "out.ttl")]) == 0
        err = capsys.readouterr().err
        assert "unknown IoC kind" in err
        assert "imported 0 IoC rows" in err


class TestCustodySequence:
    """R10 and the report read a custody record's sequence one way."""

    def test_validate_does_not_depend_on_hash_seed(self, monkeypatch, tmp_path):
        path = tmp_path / "doubled.ttl"
        path.write_text(doubled_sequence_case().to_turtle(), encoding="utf-8")
        outputs = set()
        for seed in range(8):
            monkeypatch.setenv("PYTHONHASHSEED", str(seed))
            run = run_module("validate", str(path), module="scopekit")
            assert run.returncode == 1
            outputs.add(run.stdout)
        assert len(outputs) == 1
        assert "R10" not in outputs.pop()

    @pytest.mark.parametrize("lexical", ["+-5", "\u00b2"])
    def test_report_reads_a_malformed_sequence_as_zero(self, capsys, tmp_path, lexical):
        # without the integer range, no rule rejects the value: the report
        # prints the record, as sequence 0
        schemas = schemas_without_sequence_range(FIXTURE_DIR.parent / "schemas",
                                                 tmp_path / "schemas")
        case = tmp_path / "odd.ttl"
        case.write_text(serialize_turtle_canonical(malformed_sequence_graph(lexical)),
                        encoding="utf-8")
        argv = ["report", str(case), "--schema", str(schemas), "--format", "json"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [(e["action"], e["sequence"]) for e in json.loads(out)["custody"]] == [
            ("Seized", 0), ("Imaged", 2)]


# runs each argv of the JSON list in argv[1] through main(), in process, and
# prints a JSON list of [stdout, exit code]
SEED_RUNNER = """
import contextlib, io, json, sys
from scopekit.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results.append([out.getvalue(), code])
print(json.dumps(results))
"""


class TestHashSeeds:
    """A hash seed fixes every order the program reads, so a command whose
    output depends on it fails here under the seed that reproduces it."""

    def test_every_subcommand_writes_one_stdout_under_seeds_0_to_3(self, tmp_path, case_file):
        blank = tmp_path / "blank.ttl"
        blank.write_text(case_file.read_text(encoding="utf-8") + '_:b1 uco-core:name "blank" .\n',
                         encoding="utf-8")
        feed = tmp_path / "feed.csv"
        feed.write_text("kind,value,source\nDomain,example[.]test,unit\n"
                        "Md5Hash,00C4C3946EC03C915CFE4CBDDFFE93DA,unit\n", encoding="utf-8")
        a, b = str(case_file), str(blank)
        commands = [["diff", a, b], ["diff", b, a], ["merge", a, b], ["merge", b, a]]
        for path in (a, b):
            commands += [
                ["validate", path], ["validate", path, "--format", "json"],
                ["report", path], ["report", path, "--format", "json"],
                ["query", path, "-q", "?x a ?kind\n?x ?p ?v\nFILTER ?p /name|Time$/"],
                ["query", path, "-q", "?s ?p ?o"], ["query", path, "--count", "-q", "?s ?p ?o"],
                ["convert", path, "--to", "nt"], ["convert", path, "--to", "ttl"],
                ["iocs", "export", path], ["iocs", "import", path, str(feed)],
            ]
        src = str(Path(scopekit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        children = {
            seed: subprocess.Popen(
                [sys.executable, "-c", SEED_RUNNER, json.dumps(commands)], stdout=subprocess.PIPE,
                text=True, env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)))
            for seed in range(4)}
        results = {}
        for seed, child in children.items():
            results[seed] = json.loads(child.communicate(timeout=120)[0])
            assert child.returncode == 0
        for seed in (1, 2, 3):
            for argv, first, this in zip(commands, results[0], results[seed]):
                assert this == first, (f"`scopekit {' '.join(argv)}` under PYTHONHASHSEED={seed} "
                                       "differs from PYTHONHASHSEED=0")


class DiskFull:
    """A file open to write that takes 100 characters, then fails as a full disk does."""

    ERROR = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __init__(self, file):
        self.file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, text):
        self.file.write(text[:100])
        self.file.flush()
        raise self.ERROR


class TestFailedWrite:
    """A command whose -o write fails leaves the target as it was, and no
    other file, even where the target is its input."""

    @pytest.mark.parametrize("argv", [
        ["validate", "CASE"], ["convert", "CASE", "--to", "ttl"], ["query", "CASE", "-q", "?s ?p ?o"],
        ["diff", "CASE", "OTHER"], ["merge", "CASE", "CASE"], ["report", "CASE"],
        ["init", "--scenario", "2"], ["iocs", "export", "CASE"], ["iocs", "import", "CASE", "FEED"],
    ], ids=lambda argv: "-".join(argv[:2]) if argv[0] == "iocs" else argv[0])
    def test_target_is_unchanged(self, capsys, monkeypatch, tmp_path, case_file, argv):
        other = tmp_path / "other.ttl"
        assert main(["init", "--scenario", "2", "-o", str(other)]) == 0
        feed = tmp_path / "feed.csv"
        feed.write_text("kind,value,source\nDomain,example[.]test,unit\n", encoding="utf-8")
        files = {"CASE": case_file, "OTHER": other, "FEED": feed}
        argv = [str(files.get(arg, arg)) for arg in argv] + ["-o", str(case_file)]
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()

        real_open = io.open

        def full_disk_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return DiskFull(f) if "w" in mode else f

        # the builtin, and io's name for it, which pathlib calls
        monkeypatch.setattr("builtins.open", full_disk_open)
        monkeypatch.setattr(io, "open", full_disk_open)
        code = main(argv)
        monkeypatch.undo()
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert capsys.readouterr() == ("", f"scopekit: {DiskFull.ERROR}\n")
        assert code == 2

    def test_device_link_and_mode(self, capsys, tmp_path, case_file):
        # a device is written in place; a link's file is written, keeping the
        # link and the file's mode
        assert main(["convert", str(case_file), "--to", "nt", "-o", os.devnull]) == 0
        link = tmp_path / "link.ttl"
        link.symlink_to(case_file)
        case_file.chmod(0o640)
        assert main(["convert", str(link), "--to", "nt", "-o", str(link)]) == 0
        assert link.is_symlink()
        assert case_file.read_text(encoding="utf-8").startswith("<")
        assert case_file.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["case.ttl", "link.ttl"]


class TestUndecodableInput:
    """An input file that is not UTF-8 exits 2 with one stderr line that
    names it, and no traceback."""

    @pytest.fixture()
    def schema_copy(self, tmp_path):
        return shutil.copytree(FIXTURE_DIR.parent / "schemas", tmp_path / "schemas")

    @staticmethod
    def expect_refused(capsys, argv, bad):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"scopekit: {bad} is not valid UTF-8: ")
        assert out.err.count("\n") == 1

    def test_query_file(self, capsys, tmp_path, case_file):
        bad = tmp_path / "q.txt"
        bad.write_bytes(b"?s ?p \xff\n")
        self.expect_refused(capsys, ["query", str(case_file), "-f", str(bad)], bad)

    def test_ioc_csv(self, capsys, tmp_path, case_file):
        bad = tmp_path / "feed.csv"
        bad.write_bytes("kind,value,source\nDomain,caf\xe9[.]test,unit\n".encode("latin-1"))
        self.expect_refused(capsys, ["iocs", "import", str(case_file), str(bad)], bad)

    def test_schema_manifest(self, capsys, schema_copy, case_file):
        bad = schema_copy / "manifest.txt"
        bad.write_bytes(bad.read_bytes() + b"# \xfe\n")
        self.expect_refused(capsys, ["validate", str(case_file), "--schema", str(schema_copy)], bad)

    def test_schema_document(self, capsys, schema_copy, case_file):
        bad = schema_copy / "scope-crime.ttl"
        bad.write_bytes(bad.read_bytes() + b"# \xc3\n")
        self.expect_refused(capsys, ["validate", str(case_file), "--schema", str(schema_copy)], bad)


class TestSchemaSelection:
    def test_env_var_respected(self, capsys, monkeypatch, case_file):
        packaged = str((FIXTURE_DIR / ".." / "schemas").resolve())
        monkeypatch.setenv("SCOPE_SCHEMA_DIR", packaged)
        assert main(["validate", str(case_file)]) == 0

    def test_bogus_env_dir_exits_two(self, capsys, monkeypatch, tmp_path, case_file):
        monkeypatch.setenv("SCOPE_SCHEMA_DIR", str(tmp_path / "nowhere"))
        assert main(["validate", str(case_file)]) == 2

    def test_flag_overrides_env(self, capsys, monkeypatch, tmp_path, case_file):
        monkeypatch.setenv("SCOPE_SCHEMA_DIR", str(tmp_path / "nowhere"))
        packaged = str((FIXTURE_DIR / ".." / "schemas").resolve())
        assert main(["validate", str(case_file), "--schema", packaged]) == 0


class TestUsage:
    def test_no_arguments_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_module_entry_point_runs(self):
        done = run_module()
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("usage: ")

    def test_package_entry_point_runs(self):
        done = run_module(module="scopekit")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("usage: ")
        assert "Traceback" not in done.stderr

    def test_entrypoint_raises_system_exit(self, capsys, case_file):
        import sys
        from scopekit.cli import entrypoint
        old = sys.argv
        sys.argv = ["scopekit", "validate", str(case_file)]
        try:
            with pytest.raises(SystemExit) as exc:
                entrypoint()
            assert exc.value.code == 0
        finally:
            sys.argv = old
