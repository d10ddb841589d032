#!/usr/bin/env python3
"""List the lines of src/scopekit that no tier-1 test runs.

    python tools/unrun.py

Runs tier-1 (pytest over tests/, in this process) under a sys.settrace line
tracer that records the lines run in frames of src/scopekit, then prints each
executable line of a function body (a function, a method, a lambda or a
comprehension; not module or class level, which runs on import) that no test
ran, as `path:line: text`. A line that only a child interpreter runs cannot be
seen here; ALLOWED lists such lines, each with its reason.

The exit status is 1 when a line outside ALLOWED is unrun, when an entry of
ALLOWED matches no line or only lines that did run, or when tier-1 does not
pass; 0 otherwise. Tracing makes tier-1 two to three times slower.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scopekit"
CO_OPTIMIZED = 0x1  # set on the code of functions, lambdas and comprehensions

# (module, the line's text without its indentation, why only a child runs it)
ALLOWED: list[tuple[str, str, str]] = []


def body_lines(path: Path) -> set[int]:
    """The line numbers of the instructions of each function body in path."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        if code.co_flags & CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def traced_tier1() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines run per file of the package."""
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = os.path.join(PACKAGE, "")
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        # only frames of the package are traced line by line
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    began = time.perf_counter()
    code, ran = traced_tier1()
    faults = int(code != 0)
    if code != 0:
        print(f"unrun: tier-1 exited {code}; its lines are not a verdict")
    allowed = {(module, text): [] for module, text, _ in ALLOWED}
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").split("\n")
        run = ran.get(str(path), set())
        for line in sorted(body_lines(path) - run):
            text = source[line - 1].strip()
            if (path.name, text) in allowed:
                allowed[path.name, text].append(line)
                continue
            unrun += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    for (module, text), lines in allowed.items():
        if not lines:
            faults += 1
            print(f"unrun: stale allow-list entry, no unrun line reads it: {module}: {text!r}")
    faults += unrun
    print(f"unrun: {unrun} function-body lines no test runs outside the allow list, "
          f"{sum(map(len, allowed.values()))} allowed; {time.perf_counter() - began:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
