"""Every function that a per-layer metric of BENCHMARK.json names still exists.

The layer tracer wraps the public module-level functions of each package
module, and the scale classes' ``grid_points`` method, by name; a metric
whose function is gone marks a traced bench run not correct.  This test
reads the names only and changes nothing under ``bench/``.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# aggregates of several functions or of the tracer itself, not one function
NOT_A_FUNCTION = {"harness.suite", "trace.overhead"}


def _traced_names() -> list[str]:
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    names = {".".join(m["name"].split(".")[:2]) for m in metrics}
    return sorted(names - NOT_A_FUNCTION)


def test_benchmark_names_per_layer_metrics():
    assert len(_traced_names()) >= 20


@pytest.mark.parametrize("name", _traced_names())
def test_per_layer_name_is_a_public_function(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"delta_ineq.{module_name}")
    assert not attr.startswith("_")
    if name == "timescale.grid_points":
        # a method: the tracer wraps it on the classes that define it
        assert any(inspect.isfunction(vars(cls).get(attr))
                   for cls in vars(module).values() if inspect.isclass(cls))
        return
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
