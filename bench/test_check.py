"""Tests of the benchmark's exact-rational checker.

    python3 -m pytest bench/test_check.py
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402
import delta_ineq as di  # noqa: E402
from delta_ineq import harness  # noqa: E402

WORKED_SPEC = {
    "scale": {"kind": "integer", "lo": 0, "hi": 4},
    "a": 0, "b": 4, "x": 2, "alpha": 1.0, "beta": 1.0,
    "h": {"repr": "poly", "coeffs": [0.0, 1.0]},
}
SQUARE = {"repr": "poly", "coeffs": [0.0, 0.0, 1.0]}


def test_worked_instance():
    inst = exact.Instance(WORKED_SPEC)
    assert inst.lhs(SQUARE).v == Fraction(-7, 2)
    assert inst.rhs(SQUARE).v == Fraction(-7, 2)
    assert inst.int_abs_p().v == 1
    t5 = exact.bounds(inst, SQUARE)["T5"]
    assert t5.lhs.v == Fraction(7, 2)
    assert t5.corrected.v == 7
    assert t5.literal.v == Fraction(7, 2)


@pytest.fixture(scope="module")
def bounds_report():
    config = di.config_from_json({"seed": 5, "trials": 40})
    return json.loads(json.dumps(di.run_bound_suite(config).to_json()))


@pytest.fixture(scope="module")
def real_report():
    config = di.config_from_json({"seed": 3, "trials": 20, "scales": ["real"],
                                  "func": {"kind": "poly"}, "weight": {"kind": "poly"}})
    return json.loads(json.dumps(di.run_bound_suite(config).to_json()))


def test_bounds_report_passes(bounds_report):
    n = len(bounds_report["findings"])
    assert n > 0
    ck = check.check_bounds_report(bounds_report, 40, list(range(n)))
    assert ck.problems == []
    assert ck.worst_ratio <= exact.SLACK


def test_real_report_keeps_only_the_t7_chain_fault(real_report):
    assert {w["check"] for w in real_report["failures"]} == {"t7-chain"}
    n = len(real_report["findings"])
    ck = check.check_bounds_report(real_report, 20, list(range(n)), ("t7-chain",))
    assert ck.problems == []
    ck = check.check_bounds_report(real_report, 20, [])
    assert any("t7-chain" in p for p in ck.problems)


@pytest.mark.parametrize("field", ["lhs", "rhs", "slack", "gamma"])
@pytest.mark.parametrize("factor", [1.0 + 1e-9, float("nan")])
def test_one_perturbed_number_is_rejected(bounds_report, field, factor):
    bad = copy.deepcopy(bounds_report)
    bad["findings"][0][field] *= factor
    ck = check.check_bounds_report(bad, 40, [0])
    assert any(field in p for p in ck.problems)


def test_perturbed_sample_value_is_rejected(bounds_report):
    bad = copy.deepcopy(bounds_report)
    table = bad["findings"][0]["f"].get("table")
    if table is None:
        pytest.skip("first finding has a polynomial f")
    table[0][1] += 1e-6
    ck = check.check_bounds_report(bad, 40, [0])
    assert ck.problems


def test_sharpness_report():
    spec = di.kernel_spec_from_json(run.SHARPNESS_SPEC)
    config = di.config_from_json({"seed": 2, "trials": 600})
    report = json.loads(json.dumps(di.sharpness_search("T6b", spec, config).to_json()))
    assert check.check_sharpness(report, 600).problems == []
    bad = copy.deepcopy(report)
    bad["best_ratio"] *= 1.0 + 1e-9
    assert check.check_sharpness(bad, 600).problems


def test_identity_report_rebuilt_from_seed():
    config = di.config_from_json({"seed": 9, "trials": 12, "size_range": [20, 40]})
    report = json.loads(json.dumps(di.run_identity_suite(config).to_json()))
    ck = check.check_identity_report(report, 9, 12, (20, 40), [0, 5])
    assert ck.problems == []
    bad = copy.deepcopy(report)
    bad["checks"]["montgomery-identity"]["max_abs_residual"] = 1e-6
    assert check.check_identity_report(bad, 9, 12, (20, 40), []).problems


def test_rebuild_matches_the_suite_draw():
    config = di.config_from_json({"seed": 4, "size_range": [5, 9]})
    for i in range(30):
        spec, f, _ = harness._draw_trial(di.trial_rng(4, i), config, with_g=False)
        want = json.loads(json.dumps(
            {"spec": di.kernel_spec_to_json(spec), "f": di.func_to_json(f)}))
        got_spec, got_f, _ = check.rebuild_identity_trial(4, i, (5, 9))
        assert json.loads(json.dumps({"spec": got_spec, "f": got_f})) == want


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(run.per_layer({})[0]) | {"trace.overhead"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for m in spec["per_layer"]:
        if m["name"] != "trace.overhead":
            assert run._unit(m["name"]) == m["unit"], m["name"]
