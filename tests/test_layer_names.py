"""Every name the benchmark reads from the package still exists.

The layer tracer wraps the public module-level functions of each package
module, and the scale classes' ``grid_points`` method, by name; a metric
whose function is gone marks a traced bench run not correct.  The bench
checker rebuilds each identity check by its label, and refuses a report with
a label it does not rebuild.  These tests read the names only and change
nothing under ``bench/``.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

from delta_ineq import TrialConfig, run_identity_suite

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
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


def _keys_stored(path: Path, function: str, target: str) -> set[str]:
    """The constant keys that function in path stores into the dict named
    target, by a dict display assigned to it or by target["key"] = ..."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == function)
    keys = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for tgt in node.targets:
            if isinstance(tgt, ast.Name) and tgt.id == target and isinstance(node.value, ast.Dict):
                keys |= {k.value for k in node.value.keys if isinstance(k, ast.Constant)}
            if (isinstance(tgt, ast.Subscript) and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == target and isinstance(tgt.slice, ast.Constant)):
                keys.add(tgt.slice.value)
    return keys


def test_identity_labels_are_rebuilt_by_the_bench_checker():
    # bench/check.py takes the residuals of bench/exact.identity_residuals
    # and adds the closed-form crosscheck itself
    rebuilt = (_keys_stored(ROOT / "bench" / "exact.py", "identity_residuals", "out")
               | _keys_stored(ROOT / "bench" / "check.py", "check_identity_report", "res"))
    assert {"korkine", "kernel-variance", "crosscheck"} <= rebuilt
    labels = set(run_identity_suite(TrialConfig(seed=1, n_trials=1)).checks)
    assert labels <= rebuilt, sorted(labels - rebuilt)
