"""The JSON parsers take any JSON value: each returns a value or raises a
DeltaIneqError, never another exception.

The fuzz property feeds JSON-shaped values (objects keyed mostly by the
package's own field names, NaN, the infinities and integers past the float
range among the leaves) into ``scale_from_json``, ``func_from_json``,
``kernel_spec_from_json`` and ``config_from_json`` for every suite, and as
gamma and Gamma into ``_check_bracket``.  It parses only and runs no suite,
so the overflow of a suite run on an accepted but extreme ``value_range``
(ROADMAP.md, "every input ends as a result, a ConfigError or a recorded
failure") stays a known, separate defect that this test does not reach.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delta_ineq import (
    ConfigError,
    DeltaIneqError,
    InvalidBounds,
    config_from_json,
    func_from_json,
    kernel_spec_from_json,
    scale_from_json,
)
from delta_ineq.harness import SUITE_CONFIG_KEYS
from delta_ineq.ostrowski import _check_bracket
from test_cli import WORKED_EVAL

FIELDS = ("kind", "points", "lo", "hi", "q", "kmin", "kmax", "repr", "coeffs", "table",
          "scale", "a", "b", "x", "alpha", "beta", "h", "seed", "trials", "tolerance",
          "scales", "size_range", "func", "weight", "variants", "value_range",
          "max_degree", "coeff_range")
WORDS = ("grid", "integer", "qlattice", "real", "poly", "sampled", "literal", "corrected")
LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
          | st.sampled_from((10 ** 400, -10 ** 400, 1e308)) | st.sampled_from(WORDS)
          | st.text(max_size=4))
JSON = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3),
                                     inner, max_size=6)),
    max_leaves=16)

PARSERS = [scale_from_json, func_from_json, kernel_spec_from_json] + [
    lambda obj, suite=suite: config_from_json(obj, suite) for suite in SUITE_CONFIG_KEYS]
SPEC = kernel_spec_from_json(WORKED_EVAL["spec"])
F = func_from_json(WORKED_EVAL["f"])

# list-valued fields given a string, an object or the wrong number of entries
MISREAD = [
    (scale_from_json, {"kind": "grid", "points": "159"}),
    (func_from_json, {"repr": "poly", "coeffs": "12"}),
    (func_from_json, {"repr": "sampled", "table": ["12", "34"]}),
    (func_from_json, {"repr": "sampled", "table": {"12": 0}}),
    (config_from_json, {"size_range": "35"}),
    (config_from_json, {"size_range": [3, 5, 9]}),
    (config_from_json, {"size_range": [5]}),
]


@settings(max_examples=300, deadline=None)
@given(JSON)
@example({"kind": "grid", "points": "159"})
@example({"repr": "poly", "coeffs": "12"})
@example({"size_range": "35"})
@example({"size_range": [3, 5, 9]})
@example({"size_range": [5]})
@example("abc")
@example(math.nan)
@example({"repr": "poly", "coeffs": [10 ** 400]})
def test_parsers_return_or_raise_a_package_error(obj):
    for parse in PARSERS:
        try:
            parse(obj)
        except DeltaIneqError:
            pass
    for gamma, big_gamma in ((obj, None), (None, obj)):
        try:
            _check_bracket(SPEC.ts, F, SPEC.a, SPEC.b, gamma, big_gamma)
        except DeltaIneqError:
            pass


@pytest.mark.parametrize("parse, obj", MISREAD)
def test_list_fields_take_only_json_arrays(parse, obj):
    with pytest.raises(ConfigError):
        parse(obj)


@pytest.mark.parametrize("end", ["abc", math.nan, math.inf, -math.inf, 10 ** 400, [1.0]])
def test_bracket_ends_must_be_finite_numbers(end):
    for gamma, big_gamma in ((end, None), (None, end)):
        with pytest.raises(InvalidBounds):
            _check_bracket(SPEC.ts, F, SPEC.a, SPEC.b, gamma, big_gamma)
    # the worked f = t^2 on 0..4 has f^Delta 1, 3, 5, 7: a numeric bracket still holds
    assert _check_bracket(SPEC.ts, F, SPEC.a, SPEC.b, 0, 7.5) == (0, 7.5)
