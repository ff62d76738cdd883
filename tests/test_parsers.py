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

A second property takes every config that ``config_from_json`` accepts on
to the first draw of a suite (``harness._draw_trial``), which must return
or raise a DeltaIneqError too.
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
from delta_ineq.harness import SUITE_CONFIG_KEYS, _draw_trial, trial_rng
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
    (config_from_json, {"scales": "grid"}),
    (config_from_json, {"variants": "literal"}),
]

# numbers that were rounded, parsed or taken for an integer, and scales a
# trial cannot draw x from: each is a ConfigError
COERCED = [
    {"trials": 2.7},
    {"trials": "5"},
    {"seed": True},
    {"seed": 1.0},
    {"size_range": [3.9, 5.2]},
    {"size_range": [3, True]},
    {"func": {"kind": "poly", "max_degree": 2.5}},
    {"func": {"max_degree": True}},
    {"weight": {"max_degree": "2"}},
    {"func": {"value_range": 10 ** 400}},
    {"weight": {"coeff_range": 10 ** 400}},
    {"tolerance": math.inf},
    {"tolerance": 1e400},
    {"scale": {"kind": "grid", "points": [0, 1]}},
    {"scale": {"kind": "integer", "lo": 0, "hi": 1}},
    {"scale": {"kind": "qlattice", "q": 2, "kmin": 0, "kmax": 1}},
    {"tolerance": "1e-3"},
    {"tolerance": True},
    {"func": {"value_range": True}},
    {"weight": {"kind": "poly", "coeff_range": True}},
    {"scale": {"kind": "integer", "lo": 0.5, "hi": 4.9}},
    {"scale": {"kind": "integer", "lo": "0", "hi": 4}},
    {"scale": {"kind": "integer", "lo": True, "hi": 4}},
    {"scale": {"kind": "integer", "lo": 0, "hi": 4.0}},
    {"scale": {"kind": "qlattice", "q": 2, "kmin": 0, "kmax": 3.7}},
    {"scale": {"kind": "qlattice", "q": "2", "kmin": 0, "kmax": 3}},
    {"scale": {"kind": "qlattice", "q": 2, "kmin": False, "kmax": 3}},
    {"scale": {"kind": "grid", "points": [0, 1, "2"]}},
    {"scale": {"kind": "grid", "points": [0, True, 2]}},
    {"scale": {"kind": "real", "lo": "0", "hi": 1},
     "func": {"kind": "poly"}, "weight": {"kind": "poly"}},
    {"scale": {"kind": "integer", "lo": 2 ** 60, "hi": 2 ** 60 + 5}},
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
@example({"scales": "grid"})
@example({"variants": "literal"})
@example({"trials": 2.7})
@example({"trials": "5"})
@example({"seed": True})
@example({"size_range": [3.9, 5.2]})
@example({"func": {"kind": "poly", "max_degree": 2.5}})
@example({"func": {"max_degree": True}})
@example({"tolerance": 1e400})
@example({"scale": {"kind": "grid", "points": [0, 1]}})
@example({"scale": {"kind": "integer", "lo": 0, "hi": 1}})
@example({"scale": {"kind": "qlattice", "q": 2, "kmin": 0, "kmax": 1}})
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


@pytest.mark.parametrize("obj", COERCED)
def test_config_numbers_are_not_coerced(obj):
    for suite in SUITE_CONFIG_KEYS:
        if set(obj) <= SUITE_CONFIG_KEYS[suite][0]:
            with pytest.raises(ConfigError):
                config_from_json(obj, suite)


# function JSON: each coefficient, point and value a finite JSON number,
# each point once; the error names the field
UNCOERCED_FUNCS = [
    ({"repr": "poly", "coeffs": ["1.5", 2.0]}, r"coeffs\[0\] must be a JSON number"),
    ({"repr": "poly", "coeffs": [1.5, True]}, r"coeffs\[1\] must be a JSON number"),
    ({"repr": "poly", "coeffs": [0.0, math.nan]}, r"coeffs\[1\] must be finite"),
    ({"repr": "poly", "coeffs": [-math.inf]}, r"coeffs\[0\] must be finite"),
    ({"repr": "poly", "coeffs": [1, 10 ** 400]}, r"coeffs\[1\] must be finite"),
    ({"repr": "sampled", "table": [[0, 1], [0.0, 2]]}, r"table\[1\] repeats the sample point"),
    ({"repr": "sampled", "table": [[-0.0, 1], [0, 2]]}, r"table\[1\] repeats the sample point"),
    ({"repr": "sampled", "table": [[0, 1], ["1", 2]]}, r"table\[1\] point must be a JSON number"),
    ({"repr": "sampled", "table": [[0, False]]}, r"table\[0\] value must be a JSON number"),
    ({"repr": "sampled", "table": [[math.nan, 1]]}, r"table\[0\] point must be finite"),
    ({"repr": "sampled", "table": [[0, 1], [1, math.inf]]}, r"table\[1\] value must be finite"),
]


@pytest.mark.parametrize("obj, field", UNCOERCED_FUNCS)
def test_function_numbers_are_not_coerced(obj, field):
    with pytest.raises(ConfigError, match=field):
        func_from_json(obj)


# ------------------------------------------------------- the first draw

# values a config key should not take, the coerced ones among them
ODD = st.sampled_from((None, True, False, 2.5, 3.9, "5", "grid", [3], {}, -1, 0,
                       math.inf, math.nan, 10 ** 400))


def mostly(valid):
    """valid nine draws in ten, else an odd value."""
    return st.integers(0, 9).flatmap(lambda k: valid if k else ODD)


SMALL = st.integers(-2, 64)           # sizes and degrees: each draw stays small
RANGE = st.floats(1e-6, 1e300)
FAMILY_VALUES = {
    "kind": mostly(st.sampled_from(("poly", "sampled"))),
    "value_range": mostly(RANGE),
    "max_degree": mostly(SMALL),
    "coeff_range": mostly(RANGE),
}
SCALE = st.one_of(
    st.fixed_dictionaries({"kind": st.just("grid"),
                           "points": st.lists(st.floats() | st.integers(), max_size=64)}),
    st.tuples(st.integers(-2 ** 60, 2 ** 60), SMALL).map(
        lambda lo_n: {"kind": "integer", "lo": lo_n[0], "hi": lo_n[0] + lo_n[1]}),
    st.tuples(st.floats(1.0, 1e300), st.integers(-1100, 1100), SMALL).map(
        lambda q_k_n: {"kind": "qlattice", "q": q_k_n[0], "kmin": q_k_n[1],
                       "kmax": q_k_n[1] + q_k_n[2]}),
    st.fixed_dictionaries({"kind": st.just("real"), "lo": st.floats(), "hi": st.floats()}),
)
CONFIG_VALUES = {
    "seed": mostly(st.integers()),
    "trials": mostly(st.integers(0, 3)),
    "tolerance": mostly(st.floats(0.0, 1e300)),
    "scales": mostly(st.lists(st.sampled_from(("grid", "integer", "qlattice", "real")),
                              min_size=1, max_size=4)),
    "size_range": mostly(st.lists(SMALL, min_size=2, max_size=2).map(sorted)),
    "variants": mostly(st.lists(st.sampled_from(("literal", "corrected")), min_size=1,
                                max_size=2, unique=True)),
    "scale": mostly(SCALE),
}


def suite_configs(suite):
    """(config object, suite), the object holding only keys the suite reads."""
    keys, func_keys = SUITE_CONFIG_KEYS[suite]
    family = {key: FAMILY_VALUES[key] for key in func_keys}
    values = CONFIG_VALUES | {"func": mostly(st.fixed_dictionaries({}, optional=family)),
                              "weight": mostly(st.fixed_dictionaries({}, optional=FAMILY_VALUES))}
    return st.tuples(st.fixed_dictionaries({}, optional={key: values[key] for key in keys}),
                     st.just(suite))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SUITE_CONFIG_KEYS)).flatmap(suite_configs))
@example(({"func": {"kind": "poly", "max_degree": 2.5}}, "bounds"))
@example(({"func": {"max_degree": True}}, "bounds"))
@example(({"size_range": [3.9, 5.2]}, "identity"))
@example(({"scale": {"kind": "grid", "points": [0, 1]}}, "bounds"))
@example(({"scale": {"kind": "integer", "lo": 0, "hi": 1}}, "identity"))
@example(({"scale": {"kind": "qlattice", "q": 2, "kmin": 0, "kmax": 1}}, "bounds"))
@example(({"scale": {"kind": "integer", "lo": 2 ** 60, "hi": 2 ** 60 + 5}}, "bounds"))
@example(({"func": {"value_range": 10 ** 400}}, "crosscheck"))
@example(({"weight": {"kind": "poly", "coeff_range": 10 ** 400}}, "bounds"))
def test_accepted_configs_draw_their_first_trial(case):
    """The first draw of an accepted config returns or raises a package
    error.  It runs no bound, so the overflow of a suite run on an extreme
    value_range or coeff_range (ROADMAP.md, "every input ends as a result,
    a ConfigError or a recorded failure") stays a separate, known defect."""
    obj, suite = case
    try:
        config = config_from_json(obj, suite)
    except DeltaIneqError:
        return
    for with_g in (False, True):
        try:
            _draw_trial(trial_rng(config.seed, 0), config, with_g)
        except DeltaIneqError:
            pass


def test_integer_scale_ends_stop_at_two_to_the_53():
    # every integer up to 2**53 is a float, so the points stay distinct
    for lo, hi in ((2 ** 53 - 3, 2 ** 53), (-2 ** 53, -2 ** 53 + 3)):
        ts = scale_from_json({"kind": "integer", "lo": lo, "hi": hi})
        assert len(set(ts.all_points())) == 4
    for lo, hi in ((2 ** 53 - 3, 2 ** 53 + 1), (-2 ** 53 - 1, 0), (2 ** 60, 2 ** 60 + 5)):
        with pytest.raises(ConfigError, match=r"2\*\*53"):
            scale_from_json({"kind": "integer", "lo": lo, "hi": hi})


@pytest.mark.parametrize("end", ["abc", math.nan, math.inf, -math.inf, 10 ** 400, [1.0]])
def test_bracket_ends_must_be_finite_numbers(end):
    for gamma, big_gamma in ((end, None), (None, end)):
        with pytest.raises(InvalidBounds):
            _check_bracket(SPEC.ts, F, SPEC.a, SPEC.b, gamma, big_gamma)
    # the worked f = t^2 on 0..4 has f^Delta 1, 3, 5, 7: a numeric bracket still holds
    assert _check_bracket(SPEC.ts, F, SPEC.a, SPEC.b, 0, 7.5) == (0, 7.5)
