"""Every constructor checks the numbers it keeps with the one number rule.

``timescale._json_number`` is the rule: an int or a float, not a bool, and
finite unless the field takes an integer.  Each slot below is one numeric
field of a constructor (or one entry of an array field), with the call that
builds the object from a value and the JSON parser call that builds it from
the same value.  An odd value in any slot is a ConfigError, never a
TypeError, ValueError or OverflowError; any int or float builds the same
object both ways, or fails the same way both ways.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delta_ineq import (
    ConfigError,
    DeltaIneqError,
    FiniteGrid,
    FuncFamily,
    IntegerInterval,
    KernelSpec,
    Polynomial,
    QLattice,
    RealInterval,
    Sampled,
    TrialConfig,
    config_from_json,
    func_from_json,
    kernel_spec_from_json,
    scale_from_json,
)

TOP = 1.5e308                           # the other end of a grid or real interval
LINE = Polynomial((0.0, 1.0))
REAL = RealInterval(-8.0, 8.0)
SPEC = {"a": -4.0, "b": 4.0, "x": 0.0, "alpha": 1.0, "beta": 1.0}


def _spec(name, v):
    return KernelSpec(ts=REAL, h=LINE, **SPEC | {name: v})


def _spec_json(name, v):
    return kernel_spec_from_json({"scale": {"kind": "real", "lo": -8, "hi": 8},
                                  "h": {"repr": "poly", "coeffs": [0.0, 1.0]},
                                  **SPEC | {name: v}})


# slot: (builds from v, parses from v)
SLOTS = {
    "FiniteGrid.points": (lambda v: FiniteGrid(v),
                          lambda v: scale_from_json({"kind": "grid", "points": v})),
    "FiniteGrid.points[0]": (lambda v: FiniteGrid([v, TOP]),
                             lambda v: scale_from_json({"kind": "grid", "points": [v, TOP]})),
    "IntegerInterval.lo": (lambda v: IntegerInterval(v, 2 ** 53),
                           lambda v: scale_from_json({"kind": "integer", "lo": v, "hi": 2 ** 53})),
    "IntegerInterval.hi": (lambda v: IntegerInterval(-2 ** 53, v),
                           lambda v: scale_from_json({"kind": "integer", "lo": -2 ** 53, "hi": v})),
    "QLattice.q": (lambda v: QLattice(v, 0, 3),
                   lambda v: scale_from_json({"kind": "qlattice", "q": v, "kmin": 0, "kmax": 3})),
    "QLattice.kmin": (lambda v: QLattice(2.0, v, 3),
                      lambda v: scale_from_json({"kind": "qlattice", "q": 2.0, "kmin": v,
                                                 "kmax": 3})),
    "QLattice.kmax": (lambda v: QLattice(2.0, 0, v),
                      lambda v: scale_from_json({"kind": "qlattice", "q": 2.0, "kmin": 0,
                                                 "kmax": v})),
    "RealInterval.lo": (lambda v: RealInterval(v, TOP),
                        lambda v: scale_from_json({"kind": "real", "lo": v, "hi": TOP})),
    "RealInterval.hi": (lambda v: RealInterval(-TOP, v),
                        lambda v: scale_from_json({"kind": "real", "lo": -TOP, "hi": v})),
    **{f"KernelSpec.{name}": (lambda v, name=name: _spec(name, v),
                              lambda v, name=name: _spec_json(name, v))
       for name in SPEC},
    "Polynomial.coeffs": (lambda v: Polynomial(v),
                          lambda v: func_from_json({"repr": "poly", "coeffs": v})),
    "Polynomial.coeffs[1]": (lambda v: Polynomial([1.0, v]),
                             lambda v: func_from_json({"repr": "poly", "coeffs": [1.0, v]})),
    "Sampled.table": (lambda v: Sampled(v),
                      lambda v: func_from_json({"repr": "sampled", "table": v})),
    "Sampled point": (lambda v: Sampled({v: 1.0}),
                      lambda v: func_from_json({"repr": "sampled", "table": [[v, 1.0]]})),
    "Sampled value": (lambda v: Sampled({0.0: v}),
                      lambda v: func_from_json({"repr": "sampled", "table": [[0.0, v]]})),
    **{f"FuncFamily.{name}": (lambda v, name=name: FuncFamily(**{name: v}),
                              lambda v, name=name:
                                  config_from_json({"func": {name: v}}).func_family)
       for name in ("value_range", "max_degree", "coeff_range")},
    "TrialConfig.tolerance": (lambda v: TrialConfig(tolerance=v),
                              lambda v: config_from_json({"tolerance": v})),
    "TrialConfig.seed": (lambda v: TrialConfig(seed=v),
                         lambda v: config_from_json({"seed": v})),
    "TrialConfig.n_trials": (lambda v: TrialConfig(n_trials=v),
                             lambda v: config_from_json({"trials": v})),
    "TrialConfig.size_range[1]": (lambda v: TrialConfig(size_range=(3, v)),
                                  lambda v: config_from_json({"size_range": [3, v]})),
}
# A seed and a trial count take any integer: 10**400 is odd for them only as
# a number that is not an integer, never as one past the float range.
ANY_INT = ("TrialConfig.seed", "TrialConfig.n_trials")
ODD = (None, True, False, "5", math.nan, math.inf, -math.inf, 10 ** 400, [3], {})


def _odd_values(slot):
    for v in ODD:
        if slot in ANY_INT and v == 10 ** 400:
            continue
        if slot in ("FiniteGrid.points", "Polynomial.coeffs") and v == [3]:
            continue                    # an array of one number: a valid coefficient list
        if slot == "Sampled point" and isinstance(v, (list, dict)):
            continue                    # not a dict key; the JSON table is checked below
        yield v


def _outcome(make, v):
    """The object make(v) builds, or the type of the package error it raises."""
    try:
        return make(v)
    except DeltaIneqError as exc:
        return type(exc)


@pytest.mark.parametrize("slot", sorted(SLOTS))
def test_an_odd_value_in_any_numeric_slot_is_a_config_error(slot):
    build, parse = SLOTS[slot]
    for v in _odd_values(slot):
        for make in (build, parse):
            with pytest.raises(ConfigError):
                make(v)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SLOTS)),
       st.integers() | st.floats() | st.sampled_from((2 ** 53, 2 ** 53 + 1, 10 ** 400, 2 ** 16)))
@example("QLattice.q", 2)
@example("RealInterval.lo", 5)
@example("KernelSpec.a", 0)
@example("FiniteGrid.points[0]", -(2 ** 1030))
@example("TrialConfig.tolerance", 1)
def test_numbers_build_what_the_parser_builds(slot, v):
    build, parse = SLOTS[slot]
    got, want = _outcome(build, v), _outcome(parse, v)
    assert got == want
    if isinstance(got, type):
        assert issubclass(got, DeltaIneqError)


# the constructor calls that were accepted, coerced or crashed before, each
# now a ConfigError that names its field
HEAD_CASES = [
    (lambda: KernelSpec(ts=IntegerInterval(0, 4), a=0, b=4, x=2, alpha=True, beta="1.5", h=LINE),
     "KernelSpec alpha must be a JSON number"),
    (lambda: KernelSpec(ts=IntegerInterval(0, 4), a="0", b=4, x=2, alpha=1.0, beta=1.0, h=LINE),
     "KernelSpec a must be a JSON number"),
    (lambda: IntegerInterval(True, 5), "IntegerInterval lo must be a JSON integer"),
    (lambda: FiniteGrid("159"), "FiniteGrid points must be a JSON array"),
    (lambda: RealInterval("0", "1"), "RealInterval lo must be a JSON number, got '0'"),
    (lambda: RealInterval("5", "10"), "RealInterval lo must be a JSON number, got '5'"),
    (lambda: QLattice("2", 0, 3), "QLattice q must be a JSON number"),
    (lambda: TrialConfig(tolerance="1e-3"), "tolerance must be a JSON number"),
    (lambda: FiniteGrid([0, True, 2]), r"FiniteGrid points\[1\] must be a JSON number"),
    (lambda: QLattice(2.0, False, 3), "QLattice kmin must be a JSON integer"),
    (lambda: FuncFamily(max_degree=10 ** 400), "max_degree must be an integer from 0"),
    (lambda: TrialConfig(variants=("bogus",)), "unknown variant 'bogus'"),
    (lambda: TrialConfig(variants=5), "variants must be a JSON array"),
    (lambda: TrialConfig(scale_families=5), "scale_families must be a JSON array"),
    (lambda: TrialConfig(func_family="x"), "func_family must be a FuncFamily, got 'x'"),
    (lambda: TrialConfig(weight_family={"kind": "poly"}), "weight_family must be a FuncFamily"),
    (lambda: TrialConfig(fixed_scale=5), "fixed_scale must be a time scale or None"),
]


@pytest.mark.parametrize("build, message", HEAD_CASES)
def test_head_cases_are_config_errors_naming_the_field(build, message):
    with pytest.raises(ConfigError, match=message):
        build()
