"""Module boundaries: no scopekit module reaches into a sibling's private names."""

import ast
from pathlib import Path

import scopekit

SRC = Path(scopekit.__file__).resolve().parent


def test_no_private_names_imported_from_siblings():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("scopekit")):
                offenders += [f"{path.name}: {alias.name} from {node.module}"
                              for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders
