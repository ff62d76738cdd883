"""Every error class of the package is raised somewhere and exported.

Each ``DeltaIneqError`` subclass in ``errors.py`` names a way the engine
can refuse an input.  A class that no module raises any more is dead
taxonomy: callers may still catch it, and nothing will ever reach them.
This test parses each module of ``src/delta_ineq`` for ``raise`` statements
and checks the package's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import delta_ineq

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "delta_ineq"
ERRORS = PACKAGE / "errors.py"


def _error_classes(source: str, base: str = "DeltaIneqError") -> list[str]:
    """The classes in source that derive from base, directly or through
    another class defined there, in order of definition."""
    found = [base]
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in found for b in node.bases):
            found.append(node.name)
    return found[1:]


def _raised(source: str) -> set[str]:
    """The names that source raises: ``raise X(...)``, ``raise X`` and
    ``raise module.X(...)``, with or without ``from``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            names.add(exc.id)
        elif isinstance(exc, ast.Attribute):
            names.add(exc.attr)
    return names


def test_the_check_sees_each_form():
    errors = "\n".join([
        "class DeltaIneqError(Exception): pass",
        "class A(DeltaIneqError): pass",
        "class B(A): pass",
        "class Other(Exception): pass",
    ])
    assert _error_classes(errors) == ["A", "B"]
    raising = "\n".join([
        "raise A('x')",
        "raise errors.B from None",
        "try:\n    pass\nexcept Exception:\n    raise",
        "'''raise C in a docstring is not a raise'''",
    ])
    assert _raised(raising) == {"A", "B"}


def _package_raises() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path != ERRORS:
            names |= _raised(path.read_text(encoding="utf-8"))
    return names


CLASSES = _error_classes(ERRORS.read_text(encoding="utf-8"))


def test_errors_module_defines_the_taxonomy():
    assert {"ConfigError", "NotInScale"} <= set(CLASSES)


@pytest.mark.parametrize("name", CLASSES)
def test_error_class_is_raised_and_exported(name):
    assert name in _package_raises(), f"nothing in the package raises {name}"
    assert name in delta_ineq.__all__
    assert issubclass(getattr(delta_ineq, name), delta_ineq.DeltaIneqError)
