"""One window: only the scale turns [a, b) into its steps and dense pieces.

``_ScaleBase.window`` builds the Window of (scale, a, b) from ``pieces``
once and keeps it on the scale; every integral, step table, draw and search
reads that Window.  A second caller of ``pieces`` would be a second route to
the steps, mu and dense pieces, and a second caller of ``grid_points`` a
second enumeration of the scale.  This test parses every module of
``src/delta_ineq`` and rejects a use of ``.pieces`` outside
``_ScaleBase.window``, and a use of ``.grid_points`` outside
``_ScaleBase.pieces`` and ``h_monomial`` (the monomials' own route): a call,
a name bound to the method, or a getattr that names it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "delta_ineq"
ALLOWED = {
    "pieces": {"timescale._ScaleBase.window"},
    "grid_points": {"timescale._ScaleBase.pieces", "calculus.h_monomial"},
}


def _named(node) -> str | None:
    """The guarded method node names: an attribute, or getattr's constant."""
    if isinstance(node, ast.Attribute) and node.attr in ALLOWED:
        return node.attr
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant) and node.args[1].value in ALLOWED):
        return node.args[1].value
    return None


def _uses(source: str, module: str) -> list[tuple[int, str, str]]:
    """(line, method, scope) of every use of a guarded method, scope the
    dotted name of the enclosing classes and functions."""
    found = []

    def visit(node, scope: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        name = _named(node)
        if name is not None:
            found.append((node.lineno, name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return sorted(found)


def _offences(source: str, module: str) -> list[str]:
    return [f"{line}: .{name} in {scope}" for line, name, scope in _uses(source, module)
            if scope not in ALLOWED[name]]


def test_the_check_allows_the_window_the_pieces_and_the_monomials():
    source = "\n".join([
        "class _ScaleBase:",
        "    def window(self, a, b):",
        "        steps, dense = self.pieces(a, b)",
        "    def pieces(self, a, b):",
        "        return self.grid_points(a, b), ()",
        "class RealInterval(_ScaleBase):",
        "    def pieces(self, a, b):",
        "        return [], ((a, b),)",
        "    def window(self, a, b):",
        "        return self.pieces(a, b)",
    ])
    assert _offences(source, "timescale") == ["10: .pieces in timescale.RealInterval.window"]
    monomial = "def h_monomial(ts, k, t, s):\n    pts = ts.grid_points(s, t)"
    assert _offences(monomial, "calculus") == []
    assert _offences(monomial, "ostrowski") == [
        "2: .grid_points in ostrowski.h_monomial"]


def test_a_harness_that_splits_its_own_window_fails_the_check():
    # the sharpness search reading the steps from ts.pieces, as it once did
    source = "\n".join([
        "def sharpness_search(theorem, spec, config):",
        "    steps, dense = spec.ts.pieces(spec.a, spec.b)",
        "    pts = steps + [spec.b]",
        "def _draw_t(rng, spec):",
        "    enumerate_window = spec.ts.grid_points",
        "    steps, _ = getattr(spec.ts, 'pieces')(spec.a, spec.b)",
        "    return rng.choice(enumerate_window(spec.a, spec.b))",
        "'''spec.ts.pieces(a, b) in a docstring is fine'''",
    ])
    assert _offences(source, "harness") == [
        "2: .pieces in harness.sharpness_search",
        "5: .grid_points in harness._draw_t",
        "6: .pieces in harness._draw_t"]


def test_only_the_window_splits_a_window_in_the_package():
    uses = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert _offences(source, path.stem) == [], path.name
        uses += [(name, scope) for _, name, scope in _uses(source, path.stem)]
    # each allowed use is there
    assert sorted(set(uses)) == sorted((name, scope) for name, scopes in ALLOWED.items()
                                       for scope in scopes)
