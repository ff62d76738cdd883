"""Every sequence of random draws in the package is one ``uniforms`` call.

``SplitMix64.uniforms(n, lo, hi)`` returns the n values of n ``uniform(lo,
hi)`` calls, bit for bit, several times faster.  A sequence drawn by calling
``uniform`` in a loop gives the same numbers more slowly.  This test parses
each module of ``src/delta_ineq`` and rejects any ``.uniform(`` call inside
a comprehension, a generator expression or a ``for`` loop.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "delta_ineq"
MODULES = sorted(PACKAGE.glob("*.py"))
LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _offences(source: str) -> list[int]:
    """The lines of every .uniform( call that a loop or comprehension holds."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, LOOPS):
            found.update(node.lineno for node in ast.walk(loop)
                         if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                         and node.func.attr == "uniform")
    return sorted(found)


def test_the_check_sees_every_loop_form():
    source = "\n".join([
        "a = [rng.uniform(0, 1) for _ in range(n)]",
        "b = {rng.uniform(0, 1) for _ in range(n)}",
        "c = {t: rng.uniform(-r, r) for t in pts}",
        "d = sorted(rng.uniform(-1, 1) for _ in range(n))",
        "for t in pts:",
        "    table[t] = rng.uniform(-r, r)",
        "async def f():",
        "    async for t in pts:",
        "        yield rng.uniform(0, 1)",
        "for i in range(k):",
        "    for j in range(m):",
        "        z = rng.uniform(0, 1)",
        "e = rng.uniform(0, 1)                  # a scalar draw is fine",
        "g = rng.uniforms(n, 0, 1)",
        "h = [rng.uniforms(n, 0, 1) for _ in range(2)]",
        "while x < 1:",
        "    x = rng.uniform(0, 2)              # so is a rejection loop",
        "'''for t in pts: rng.uniform(0, 1) in a docstring is fine too'''",
    ])
    assert _offences(source) == [1, 2, 3, 4, 6, 9, 12]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_draws_sequences_in_one_call(path):
    assert _offences(path.read_text(encoding="utf-8")) == []


def test_every_module_is_checked():
    assert "harness.py" in {p.name for p in MODULES}
