#!/usr/bin/env python3
"""scopekit benchmark: one seeded workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):
  exchange  CLI commands on a received ~14.4k-triple case, each in a fresh
            interpreter
  author    ~2.9k-triple cases built through the casekit builder, then
            validated, forked, diffed, merged and serialized
  analyst   a query/report/validate session on one parsed ~14.4k-triple case

Output: human-readable lines, then as the last line one JSON object
  {"correct": bool, "attempted": int, "failed": int,
   "metrics": {name: {"value": number, "unit": str}, ...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are the per-layer metrics, from a separate traced run.

Exit status: 0 when the run completed (check "correct"), 2 when it could not
run, for instance because the scopekit sources are not beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("exchange", "author", "analyst")


def import_scopekit() -> bool:
    """Put this checkout's src/ first on the path and make sure scopekit
    comes from there, not from some installed copy."""
    if not (SRC / "scopekit" / "__init__.py").is_file():
        print(f"perfbench: no scopekit sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import scopekit
    if Path(scopekit.__file__).resolve().parent != SRC / "scopekit":
        print(f"perfbench: scopekit imported from {scopekit.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not import_scopekit():
        return 2

    from workloads import run_workload

    # one CPU for this process and the interpreters it starts, so that the
    # calibration samples run where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # on SIGTERM, unwind normally: subprocess.run kills and reaps its child,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work, SRC)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = outcome.checks
    for message in checks.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    kind = "per-layer (traced run)" if args.trace else "end-to-end"
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g}: "
          f"{checks.attempted} checked operations, {checks.failed} failed")
    for note in outcome.notes:
        print(f"  {note}")
    print(f"  end-to-end, {args.workload}:")
    for name, (value, unit) in outcome.table.items():
        print(f"    {name:<24} {value:>14.6g} {unit}")
    if args.trace:
        print(f"  {kind}:")
        for name, (value, unit) in outcome.metrics.items():
            print(f"    {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
