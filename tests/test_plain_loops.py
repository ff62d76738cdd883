"""Every sum in the package is a plain left-to-right loop.

From Python 3.12 on, the builtin ``sum()`` compensates over floats, so a
report built with it would depend on the Python version; ``math.fsum`` and
the ``statistics`` module round differently again.  This test parses each
module of ``src/delta_ineq`` and rejects any call of them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "delta_ineq"
MODULES = sorted(PACKAGE.glob("*.py"))


def _offences(source: str) -> list[str]:
    """'line: what' for every call of sum, fsum or statistics.* in source,
    and every import that brings fsum or statistics in."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("sum", "fsum"):
                what = f"{fn.id}()"
            elif (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                  and (fn.value.id == "statistics" or (fn.value.id, fn.attr) == ("math", "fsum"))):
                what = f"{fn.value.id}.{fn.attr}()"
        elif isinstance(node, ast.Import):
            if any(alias.name == "statistics" for alias in node.names):
                what = "import statistics"
        elif isinstance(node, ast.ImportFrom):
            if node.module == "statistics" or (
                    node.module == "math" and any(alias.name == "fsum" for alias in node.names)):
                what = f"from {node.module} import"
        if what is not None:
            found.append((node.lineno, what))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_check_sees_every_forbidden_form():
    source = "\n".join([
        "import math, statistics",
        "from math import fsum",
        "from statistics import fmean",
        "a = sum(xs)",
        "b = math.fsum(xs)",
        "c = fsum(xs)",
        "d = statistics.mean(xs)",
        "e = max(xs) + len(xs)        # sum( in a comment is fine",
        "'''sum(xs) in a docstring is fine too'''",
    ])
    assert _offences(source) == [
        "1: import statistics", "2: from math import", "3: from statistics import",
        "4: sum()", "5: math.fsum()", "6: fsum()", "7: statistics.mean()"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_sums_are_plain_loops(path):
    assert _offences(path.read_text(encoding="utf-8")) == []


def test_every_module_is_checked():
    assert {"calculus.py", "ostrowski.py", "harness.py"} <= {p.name for p in MODULES}
