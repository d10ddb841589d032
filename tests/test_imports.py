"""Module boundaries: no scopekit module reaches into a sibling's private names,
and every annotation resolves to the object it names."""

import ast
import importlib
import inspect
import typing
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


def annotated_objects():
    """(qualified name, object) of every function and method defined in a
    scopekit module; a property's getter stands for the property."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("scopekit" if path.stem == "__init__"
                                         else f"scopekit.{path.stem}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            value = inspect.unwrap(value)  # a cached function: the function it caches
            if inspect.isfunction(value):
                yield f"{module.__name__}.{name}", value
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    member = getattr(member, "fget", getattr(member, "__func__", member))
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_every_annotation_resolves():
    checked, failures = set(), []
    for qualname, function in annotated_objects():
        checked.add(qualname)
        try:
            typing.get_type_hints(function)
        except Exception as exc:
            failures.append(f"{qualname}: {type(exc).__name__}: {exc}")
    # a function, a method, a property and a cached function are all reached
    assert {"scopekit.cli._load_schema", "scopekit.turtle._Parser._diagnose",
            "scopekit.validation.ValidationReport.errors", "scopekit.turtle._parts"} <= checked
    assert not failures, failures
