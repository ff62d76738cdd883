"""No constructor converts or type-tests a number past the one number rule.

``timescale._json_number`` is the rule for every number a constructor
keeps: an int or a float, not a bool, finite unless the field takes an
integer.  ``float()`` on its own parses strings, takes bools and passes NaN
through, and ``isinstance(x, int)`` admits True and False.  This test parses
each module of ``src/delta_ineq`` and, in every ``__post_init__``, rejects
any use of ``float`` other than ``float(_json_number(...))`` and any
``isinstance`` test against ``int``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "delta_ineq"
MODULES = sorted(PACKAGE.glob("*.py"))


def _checked_float(node) -> bool:
    """node is float(_json_number(...))."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float" and len(node.args) == 1 and not node.keywords
            and isinstance(node.args[0], ast.Call) and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == "_json_number")


def _names_int(node) -> bool:
    """node is int, or a tuple holding it, as isinstance's second argument."""
    if isinstance(node, ast.Tuple):
        return any(map(_names_int, node.elts))
    return isinstance(node, ast.Name) and node.id == "int"


def _offences(source: str) -> list[str]:
    """'Class: line: what' for each unchecked float and each isinstance(..., int)
    in the __post_init__ of a class in source."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
                continue
            nodes = list(ast.walk(fn))
            checked = {id(node.func) for node in nodes if _checked_float(node)}
            for node in nodes:
                if isinstance(node, ast.Name) and node.id == "float" and id(node) not in checked:
                    found.append((cls.name, node.lineno, "float without _json_number"))
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "isinstance" and len(node.args) == 2
                      and _names_int(node.args[1])):
                    found.append((cls.name, node.lineno, "isinstance(..., int)"))
    return [f"{name}: {line}: {what}" for name, line, what in sorted(found)]


def test_the_check_sees_every_unchecked_number():
    source = "\n".join([
        "class Good:",
        "    def __post_init__(self):",
        "        self.x = float(_json_number(self.x, 'x'))",
        "        _json_number(self.k, 'k', integer=True)",
        "        if isinstance(self.h, Polynomial): pass",
        "    def helper(self):",
        "        return float(self.x), isinstance(self.k, int)     # not a constructor",
        "class Bad:",
        "    def __post_init__(self):",
        "        self.lo = float(self.lo)",
        "        self.pts = tuple(float(p) for p in self.pts)",
        "        self.cs = tuple(map(float, self.cs))",
        "        self.y = float(_json_number(self.y, 'y') + 1.0)",
        "        if not isinstance(self.k, int): pass",
        "        if isinstance(self.v, (int, float)): pass",
    ])
    assert _offences(source) == [
        "Bad: 10: float without _json_number", "Bad: 11: float without _json_number",
        "Bad: 12: float without _json_number", "Bad: 13: float without _json_number",
        "Bad: 14: isinstance(..., int)", "Bad: 15: float without _json_number",
        "Bad: 15: isinstance(..., int)"]


def test_the_check_flags_the_constructors_that_coerced():
    # the forms KernelSpec, FiniteGrid, RealInterval, IntegerInterval and
    # QLattice used before each kept number went through _json_number
    source = "\n".join([
        "class KernelSpec:",
        "    def __post_init__(self):",
        "        object.__setattr__(self, 'alpha', float(self.alpha))",
        "class FiniteGrid:",
        "    def __post_init__(self):",
        "        pts = tuple(float(p) for p in self.points)",
        "class RealInterval:",
        "    def __post_init__(self):",
        "        object.__setattr__(self, 'lo', float(self.lo))",
        "class IntegerInterval:",
        "    def __post_init__(self):",
        "        if not (isinstance(self.lo, int) and isinstance(self.hi, int)): pass",
        "class QLattice:",
        "    def __post_init__(self):",
        "        if not (isinstance(self.kmin, int) and isinstance(self.kmax, int)): pass",
    ])
    assert sorted({line.split(":")[0] for line in _offences(source)}) == [
        "FiniteGrid", "IntegerInterval", "KernelSpec", "QLattice", "RealInterval"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_constructors_keep_only_checked_numbers(path):
    assert _offences(path.read_text(encoding="utf-8")) == []


def test_every_constructor_module_is_checked():
    assert {"timescale.py", "calculus.py", "ostrowski.py", "harness.py"} <= {
        p.name for p in MODULES}
