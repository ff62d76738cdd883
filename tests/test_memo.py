"""Memoized derived data: the kernel data a KernelSpec keeps and the f^Delta
candidate lists a function keeps.

A warm object must answer bit for bit as a fresh copy rebuilt from JSON,
and the memo must stay invisible: not in ==, hash, repr or JSON, not
carried over by dataclasses.replace, and never answering for another
window.
"""

import dataclasses

import pytest

from delta_ineq import (
    FiniteGrid,
    IntegerInterval,
    KernelSpec,
    Polynomial,
    QLattice,
    RealInterval,
    Sampled,
    Variant,
    bound_t5,
    bound_t6a,
    bound_t6b,
    bound_t7,
    bound_t8,
    delta_derivative_range,
    func_from_json,
    func_to_json,
    kernel_moments,
    kernel_spec_from_json,
    kernel_spec_to_json,
    sup_abs_delta_derivative,
)

CUBIC = Polynomial((0.5, -1.25, 0.75, 0.3))
QUADRATIC = Polynomial((1.0, 0.5, -2.0))
LINEAR = Polynomial((-0.5, 1.5))


def _table(ts, scale=1.0):
    """Deterministic, sign-changing samples on every point of a discrete scale."""
    return Sampled({t: scale * ((7 * i) % 11 - 5) for i, t in enumerate(ts.all_points())})


def _grid():
    ts = FiniteGrid((-1.5, -0.25, 0.5, 1.0, 2.75, 3.0))
    spec = KernelSpec(ts=ts, a=-1.5, b=3.0, x=1.0, alpha=1.3, beta=0.7, h=_table(ts, 0.5))
    return spec, _table(ts), _table(ts, -0.25)


def _grid_beta_zero():
    ts = FiniteGrid((-1.5, -0.25, 0.5, 1.0, 2.75, 3.0))
    spec = KernelSpec(ts=ts, a=-1.5, b=3.0, x=3.0, alpha=2.0, beta=0.0, h=_table(ts))
    return spec, _table(ts, 0.5), QUADRATIC


def _integer():
    ts = IntegerInterval(-2, 6)
    spec = KernelSpec(ts=ts, a=-2, b=6, x=1, alpha=0.4, beta=3.0, h=CUBIC)
    return spec, QUADRATIC, _table(ts)


def _integer_alpha_zero():
    ts = IntegerInterval(0, 7)
    spec = KernelSpec(ts=ts, a=0, b=7, x=0, alpha=0.0, beta=1.5, h=_table(ts))
    return spec, _table(ts, 2.0), CUBIC


def _integer_constant_h():
    ts = IntegerInterval(0, 5)
    spec = KernelSpec(ts=ts, a=0, b=5, x=2, alpha=1.0, beta=1.0, h=Polynomial((3.0,)))
    return spec, CUBIC, QUADRATIC


def _qlattice():
    ts = QLattice(1.5, -2, 5)
    spec = KernelSpec(ts=ts, a=1.5 ** -2, b=1.5 ** 5, x=1.5, alpha=2.5, beta=0.5,
                      h=_table(ts, 0.3))
    return spec, QUADRATIC, _table(ts)


def _real():
    ts = RealInterval(-0.5, 1.75)
    spec = KernelSpec(ts=ts, a=-0.5, b=1.75, x=0.6, alpha=1.1, beta=2.2, h=CUBIC)
    return spec, QUADRATIC, CUBIC


def _real_alpha_zero():
    ts = RealInterval(-1.0, 1.0)
    spec = KernelSpec(ts=ts, a=-1.0, b=1.0, x=0.25, alpha=0.0, beta=1.0, h=QUADRATIC)
    return spec, CUBIC, LINEAR


def _real_beta_zero():
    ts = RealInterval(0.0, 2.0)
    spec = KernelSpec(ts=ts, a=0.0, b=2.0, x=2.0, alpha=3.0, beta=0.0, h=CUBIC)
    return spec, LINEAR, QUADRATIC


def _real_constant_h():
    ts = RealInterval(-2.0, 0.5)
    spec = KernelSpec(ts=ts, a=-2.0, b=0.5, x=-1.0, alpha=1.0, beta=4.0,
                      h=Polynomial((2.0, 0.0, -0.0)))
    return spec, CUBIC, QUADRATIC


CASES = {
    "grid": _grid, "grid-beta0": _grid_beta_zero,
    "integer": _integer, "integer-alpha0": _integer_alpha_zero,
    "integer-constant-h": _integer_constant_h,
    "qlattice": _qlattice,
    "real": _real, "real-alpha0": _real_alpha_zero, "real-beta0": _real_beta_zero,
    "real-constant-h": _real_constant_h,
}


def _bits(value):
    """The value with every float replaced by its hex form, so == is bitwise
    (it tells -0.0 from 0.0)."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return value.hex()
    return value


def _results(spec, f, g):
    out = {"moments": kernel_moments(spec)}
    for name, fn in (("f", f), ("g", g)):
        out[f"sup {name}"] = sup_abs_delta_derivative(spec.ts, fn, spec.a, spec.b)
        out[f"range {name}"] = delta_derivative_range(spec.ts, fn, spec.a, spec.b)
    for v in Variant:
        out[f"T5 {v.value}"] = bound_t5(spec, f, v)
        out[f"T6a {v.value}"] = bound_t6a(spec, f, g, v)
        out[f"T6b {v.value}"] = bound_t6b(spec, f, g, v)
    out["T7-L2"] = bound_t7(spec, f, "l2")
    out["T7-Gruss"] = bound_t7(spec, f, "gruss")
    out["T8"] = bound_t8(spec, f)
    return {k: _bits(v) for k, v in out.items()}


def _fresh(spec, f, g):
    return (kernel_spec_from_json(kernel_spec_to_json(spec)),
            func_from_json(func_to_json(f)), func_from_json(func_to_json(g)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_warm_objects_answer_bit_equal_to_fresh_copies(case):
    spec, f, g = CASES[case]()
    _results(spec, f, g)
    assert "_moments" in vars(spec) and f._delta_memo and g._delta_memo
    warm = _results(spec, f, g)
    assert warm == _results(*_fresh(spec, f, g))


@pytest.mark.parametrize("case", ["grid", "real"])
def test_replace_builds_objects_without_the_old_memo(case):
    spec, f, g = CASES[case]()
    _results(spec, f, g)
    scaled = dataclasses.replace(spec, alpha=2.0 * spec.alpha + 1.0)
    assert not {"_moments", "_grid", "_branch_polys", "_bracket_terms"} & set(vars(scaled))
    rebuilt = KernelSpec(ts=spec.ts, a=spec.a, b=spec.b, x=spec.x,
                         alpha=2.0 * spec.alpha + 1.0, beta=spec.beta, h=spec.h)
    assert _bits(kernel_moments(scaled)) == _bits(kernel_moments(rebuilt))
    assert _bits(kernel_moments(scaled)) != _bits(kernel_moments(spec))
    assert dataclasses.replace(f)._delta_memo == {}


@pytest.mark.parametrize("case", sorted(CASES))
def test_memo_is_invisible_to_eq_hash_repr_and_json(case):
    spec, f, g = CASES[case]()
    objects = (spec, spec.h, f, g)

    def identity(obj):
        try:
            h = hash(obj)
        except TypeError:            # Sampled holds a dict: unhashable
            h = None
        js = kernel_spec_to_json(obj) if obj is spec else func_to_json(obj)
        return h, repr(obj), js, dataclasses.asdict(obj)

    before = [identity(obj) for obj in objects]
    fresh = _fresh(spec, f, g)
    _results(spec, f, g)
    assert [identity(obj) for obj in objects] == before
    assert (spec, f, g) == fresh
    assert [fl.name for fl in dataclasses.fields(KernelSpec)] == [
        "ts", "a", "b", "x", "alpha", "beta", "h"]
    assert [fl.name for fl in dataclasses.fields(Polynomial)] == ["coeffs"]
    assert [fl.name for fl in dataclasses.fields(Sampled)] == ["table"]


def test_function_memo_never_answers_for_another_window():
    ints = IntegerInterval(0, 6)
    evens = FiniteGrid((0.0, 2.0, 4.0, 6.0))
    f = Sampled({0: 0, 1: 1, 2: 3, 3: 6, 4: 10, 5: 0, 6: -20})
    poly = Polynomial((0.0, 1.0, -1.5, 0.5))
    queries = [
        (sup_abs_delta_derivative, f, ints, 0.0, 6.0, 20.0),
        (sup_abs_delta_derivative, f, ints, 0.0, 3.0, 3.0),
        (sup_abs_delta_derivative, f, ints, 2.0, 6.0, 20.0),
        (delta_derivative_range, f, ints, 0.0, 6.0, (-20.0, 4.0)),
        (delta_derivative_range, f, ints, 0.0, 3.0, (1.0, 3.0)),
        (sup_abs_delta_derivative, f, evens, 0.0, 6.0, 15.0),
        (delta_derivative_range, f, evens, 0.0, 6.0, (-15.0, 3.5)),
        (delta_derivative_range, poly, RealInterval(0.0, 1.0), 0.0, 1.0, None),
        (delta_derivative_range, poly, RealInterval(0.0, 3.0), 0.0, 3.0, None),
        (delta_derivative_range, poly, RealInterval(0.0, 3.0), 0.0, 1.0, None),
        (sup_abs_delta_derivative, poly, RealInterval(0.0, 3.0), 0.0, 3.0, None),
    ]
    answers = []
    for fn, func, ts, a, b, expected in queries:
        got = fn(ts, func, a, b)
        cold = fn(ts, func_from_json(func_to_json(func)), a, b)
        assert _bits(got) == _bits(cold)
        if expected is not None:
            assert got == expected
        answers.append(got)
    # The polynomial's windows differ too, so a shared memo entry would show.
    assert answers[7] != answers[8] and answers[8] != answers[9]
    assert len(f._delta_memo) == 7 and len(poly._delta_memo) == 4
