"""Report text has one maker: ``reporting.json_pieces``.

The report layout (which levels go one item per line, and that the C
encoder writes the rest) is decided in ``reporting.py`` alone.  This test
parses every other module of ``src/delta_ineq`` and rejects any call of
``json.dumps``, ``json.dump`` or ``json.JSONEncoder``, and any import that
brings them in; reading JSON (``json.load``, ``json.loads``) is fine.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "delta_ineq"
WRITER = "reporting.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != WRITER)
ENCODERS = frozenset({"dumps", "dump", "JSONEncoder"})


def _offences(source: str) -> list[str]:
    """'line: what' for every json encoder call or import in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                    and fn.value.id == "json" and fn.attr in ENCODERS):
                what = f"json.{fn.attr}()"
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("json", "json.encoder") and any(
                    alias.name in ENCODERS for alias in node.names):
                what = f"from {node.module} import"
        if what is not None:
            found.append((node.lineno, what))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_check_sees_every_forbidden_form():
    source = "\n".join([
        "import json",
        "from json import dumps",
        "from json.encoder import JSONEncoder",
        "a = json.dumps(report, indent=2)",
        "json.dump(report, fh)",
        "b = json.JSONEncoder().encode(report)",
        "c = json.loads(text) or json.load(fh)   # reading is fine",
        "'''json.dumps(x) in a docstring is fine'''",
    ])
    assert _offences(source) == [
        "2: from json import", "3: from json.encoder import",
        "4: json.dumps()", "5: json.dump()", "6: json.JSONEncoder()"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_reporting_writes_json(path):
    assert _offences(path.read_text(encoding="utf-8")) == []


def test_every_module_is_checked():
    assert {"cli.py", "harness.py", "ostrowski.py"} <= {p.name for p in MODULES}
    assert (PACKAGE / WRITER).exists()
