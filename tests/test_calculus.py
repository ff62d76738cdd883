"""Delta derivative, delta integral, monomials, product/parts rules."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delta_ineq import (
    ConfigError,
    DensePointSampledFunc,
    FiniteGrid,
    IntegerInterval,
    KernelSpec,
    MissingSample,
    NotDifferentiable,
    Polynomial,
    QLattice,
    RealInterval,
    Sampled,
    bound_t5,
    delta_derivative,
    delta_integral,
    feval,
    func_from_json,
    func_to_json,
    h_monomial,
    parts_residual,
    product_rule_residual,
)
from delta_ineq.calculus import _step_table

Z04 = IntegerInterval(0, 4)
T_SQUARED = Polynomial((0.0, 0.0, 1.0))
IDENT = Polynomial((0.0, 1.0))


# ------------------------------------------------------------------ evaluate

def test_feval_polynomial_horner():
    p = Polynomial((1.0, -2.0, 3.0))       # 1 - 2t + 3t^2
    assert feval(p, 2.0) == 1.0 - 4.0 + 12.0


def test_feval_sampled_and_missing():
    s = Sampled({0.0: 1.0, 1.0: -1.0})
    assert feval(s, 1.0) == -1.0
    with pytest.raises(MissingSample):
        feval(s, 0.5)


def test_a_cold_step_table_missing_a_window_point_raises_what_feval_raises():
    # the table reads a sampled f's values straight from its samples, and a
    # missing point of [a, b], a and b included, names that point as feval does
    ts = FiniteGrid((0.0, 0.5, 1.25, 2.0, 3.0))
    for missing in (0.0, 1.25, 3.0):
        f = Sampled({t: 1.0 for t in ts.all_points() if t != missing})
        with pytest.raises(MissingSample) as want:
            feval(f, missing)
        with pytest.raises(MissingSample) as got:
            _step_table(ts, f, 0.0, 3.0)
        assert str(got.value) == str(want.value) == f"no sample at t={missing!r}"
        assert got.value.__suppress_context__ and want.value.__suppress_context__
        assert not f._delta_memo
    # a point outside the window is not read
    f = Sampled({t: 1.0 for t in ts.all_points() if t != 3.0})
    assert _step_table(ts, f, 0.0, 2.0)[1] == [1.0, 1.0, 1.0, 1.0]
    spec = KernelSpec(ts=ts, a=0.0, b=3.0, x=1.25, alpha=1.0, beta=1.0,
                      h=Sampled({t: t for t in ts.all_points()}))
    with pytest.raises(MissingSample, match=r"no sample at t=3\.0$"):
        bound_t5(spec, f)


def test_func_json_round_trip():
    p = Polynomial((0.5, 0.0, 2.0))
    s = Sampled({0.0: 1.0, 2.0: -3.5})
    assert func_from_json(func_to_json(p)) == p
    assert func_from_json(func_to_json(s)) == s


# each argument is a finite int or float, not a bool; the error names the entry
BAD_FUNCS = [
    (lambda: Polynomial(("1.5", 2.0)), r"Polynomial coeffs\[0\] must be a JSON number"),
    (lambda: Polynomial((1.5, True)), r"Polynomial coeffs\[1\] must be a JSON number"),
    (lambda: Polynomial((math.nan, 1.0)), r"Polynomial coeffs\[0\] must be finite"),
    (lambda: Polynomial((0.0, -math.inf)), r"Polynomial coeffs\[1\] must be finite"),
    (lambda: Polynomial((1, 10 ** 400)), r"Polynomial coeffs\[1\] must be finite"),
    (lambda: Sampled({"0": 1.0}), r"Sampled point '0' must be a JSON number"),
    (lambda: Sampled({math.inf: 1.0}), r"Sampled point inf must be finite"),
    (lambda: Sampled({0.0: 1.0, 1.0: False}), r"Sampled value at 1.0 must be a JSON number"),
    (lambda: Sampled({0: math.nan}), r"Sampled value at 0 must be finite"),
    (lambda: Sampled({2 ** 53: 1.0, 2 ** 53 + 1: 2.0}),
     r"Sampled point 9007199254740993 repeats the point 9007199254740992\.0"),
]


@pytest.mark.parametrize("build, message", BAD_FUNCS)
def test_constructors_reject_bad_numbers(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_constructors_keep_numbers_as_floats():
    p = Polynomial([1, -0.0, 2])
    assert [c.hex() for c in p.coeffs] == ["0x1.0000000000000p+0", "-0x0.0p+0",
                                          "0x1.0000000000000p+1"]
    s = Sampled({0: 1, 1: -2.5})
    assert [(type(t), type(v)) for t, v in s.table.items()] == [(float, float)] * 2
    assert Sampled._of(s.table).table is s.table


def test_a_nan_coefficient_reaches_no_bound():
    # once a NaN coefficient gave a T5 report of NaN lhs, rhs and slack
    with pytest.raises(ConfigError, match="finite"):
        bound_t5(KernelSpec(ts=Z04, a=0.0, b=4.0, x=2.0, alpha=1.0, beta=1.0, h=IDENT),
                 Polynomial((math.nan, 1.0)))


# ---------------------------------------------------------------- derivative

def test_delta_derivative_integer_forward_difference():
    # on Z: (t^2)^Delta = 2t + 1
    for t in [0.0, 1.0, 2.0, 3.0]:
        assert delta_derivative(Z04, T_SQUARED, t) == 2 * t + 1


def test_delta_derivative_q_scale():
    ts = QLattice(2.0, 0, 4)
    # (f(qt) - f(t)) / ((q-1) t) at t=4: (64 - 16) / 4 = 12
    assert delta_derivative(ts, T_SQUARED, 4.0) == pytest.approx(12.0)


def test_delta_derivative_real_classical():
    ts = RealInterval(0.0, 2.0)
    assert delta_derivative(ts, T_SQUARED, 1.5) == pytest.approx(3.0)


def test_delta_derivative_at_scattered_max_raises():
    with pytest.raises(NotDifferentiable):
        delta_derivative(Z04, T_SQUARED, 4.0)


def test_delta_derivative_sampled_at_dense_point_raises():
    ts = RealInterval(0.0, 2.0)
    s = Sampled({0.0: 0.0, 1.0: 1.0})
    with pytest.raises(DensePointSampledFunc):
        delta_derivative(ts, s, 1.0)


def test_delta_derivative_sampled_scattered():
    ts = FiniteGrid((0.0, 0.5, 2.0))
    s = Sampled({0.0: 1.0, 0.5: 3.0, 2.0: 0.0})
    assert delta_derivative(ts, s, 0.0) == pytest.approx(4.0)
    assert delta_derivative(ts, s, 0.5) == pytest.approx(-2.0)


# ------------------------------------------------------------------ integral

def test_delta_integral_integer_is_left_sum():
    # int_0^4 t^2 Delta t on Z = 0 + 1 + 4 + 9 = 14
    assert delta_integral(Z04, T_SQUARED, 0.0, 4.0) == 14.0


def test_delta_integral_orientation():
    assert delta_integral(Z04, T_SQUARED, 2.0, 2.0) == 0.0
    fwd = delta_integral(Z04, T_SQUARED, 0.0, 3.0)
    assert delta_integral(Z04, T_SQUARED, 3.0, 0.0) == -fwd


def test_delta_integral_real_polynomial():
    ts = RealInterval(0.0, 3.0)
    assert delta_integral(ts, T_SQUARED, 0.0, 3.0) == pytest.approx(9.0)


def test_delta_integral_qlattice():
    ts = QLattice(2.0, 0, 3)           # points 1, 2, 4, 8
    # sum over {1,2,4} of mu(t) * t^2 = 1*1 + 2*4 + 4*16 = 73
    assert delta_integral(ts, T_SQUARED, 1.0, 8.0) == 73.0


def test_delta_integral_additivity():
    ts = FiniteGrid((0.0, 0.3, 1.1, 2.0, 5.0))
    s = Sampled({0.0: 2.0, 0.3: -1.0, 1.1: 4.0, 2.0: 0.5, 5.0: 3.0})
    whole = delta_integral(ts, s, 0.0, 5.0)
    split = delta_integral(ts, s, 0.0, 1.1) + delta_integral(ts, s, 1.1, 5.0)
    assert whole == pytest.approx(split, rel=1e-14)


def test_delta_integral_reads_f_only_on_the_half_open_window():
    # no sample at b = 4: the integral over [0, 4) never reads f(b)
    s = Sampled({0.0: 1.0, 1.0: 2.0, 2.0: -3.0, 3.0: 0.5})
    assert delta_integral(Z04, s, 0.0, 4.0) == 0.5
    assert delta_integral(Z04, s, 4.0, 0.0) == -0.5
    assert delta_integral(QLattice(2.0, 0, 2), Sampled({1.0: 3.0, 2.0: -1.0}), 1.0, 4.0) == 1.0


# ----------------------------------------------------------------- monomials

def test_h_monomial_low_orders_integer():
    # h_0 = 1, h_1(t, s) = t - s, h_2 on Z = (t-s)(t-s-1)/2
    ts = IntegerInterval(0, 6)
    assert h_monomial(ts, 0, 5.0, 1.0) == 1.0
    assert h_monomial(ts, 1, 5.0, 1.0) == 4.0
    assert h_monomial(ts, 2, 3.0, 1.0) == 1.0
    assert h_monomial(ts, 2, 6.0, 1.0) == 10.0   # 5*4/2


def test_h_monomial_integer_below_start():
    # h_2(t, s) with t < s on Z: (t-s)(t-s-1)/2 stays nonnegative
    ts = IntegerInterval(0, 6)
    assert h_monomial(ts, 2, 2.0, 4.0) == 3.0    # (-2)(-3)/2


def test_h_monomial_real_closed_form():
    ts = RealInterval(0.0, 5.0)
    assert h_monomial(ts, 3, 4.0, 1.0) == pytest.approx(4.5)   # 27/6


@given(st.integers(0, 6), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=200)
def test_h_monomial_real_matches_power_formula(k, t, s):
    ts = RealInterval(-4.0, 4.0)
    want = (t - s) ** k / math.factorial(k)
    got = h_monomial(ts, k, t, s)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_h_monomial_delta_recursion_on_grid():
    # h_{k+1}^Delta(., s) = h_k(., s): check the defining recursion numerically
    ts = FiniteGrid((0.0, 0.7, 1.3, 2.9, 4.0))
    s = 0.7
    for k in range(0, 4):
        for t in [0.0, 0.7, 1.3, 2.9]:
            nxt = ts.sigma(t)
            lhs = (h_monomial(ts, k + 1, nxt, s) - h_monomial(ts, k + 1, t, s)) / (nxt - t)
            assert lhs == pytest.approx(h_monomial(ts, k, t, s), rel=1e-12, abs=1e-12)


# ------------------------------------------------------- product/parts rules

@st.composite
def grid_and_samples(draw, n_funcs=2):
    n = draw(st.integers(3, 10))
    pts = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=n,
                        max_size=n, unique=True))
    pts = tuple(sorted(pts))
    # difference quotients over denormal-width gaps overflow; such grids are
    # outside what any float method can represent, so skip them
    assume(min(q - p for p, q in zip(pts, pts[1:])) >= 1e-9)
    funcs = []
    for _ in range(n_funcs):
        vals = draw(st.lists(st.floats(-8, 8, allow_nan=False),
                             min_size=n, max_size=n))
        funcs.append(Sampled(dict(zip(pts, vals))))
    return FiniteGrid(pts), funcs


@given(grid_and_samples())
@settings(max_examples=120)
def test_product_rule_residual_near_zero_on_grids(arg):
    ts, (f, g) = arg
    for t in ts.all_points()[:-1]:
        res = product_rule_residual(ts, f, g, t)
        fd = delta_derivative(ts, f, t)
        gd = delta_derivative(ts, g, t)
        scale = max(1.0, abs(fd * feval(g, t)), abs(feval(f, ts.sigma(t)) * gd))
        assert abs(res) <= 1e-9 * scale


@given(grid_and_samples())
@settings(max_examples=120)
def test_parts_residual_near_zero_on_grids(arg):
    ts, (f, g) = arg
    pts = ts.all_points()
    scale = 1.0
    for t in pts[:-1]:
        scale = max(scale, abs(feval(f, t) * delta_derivative(ts, g, t)) * (ts.sigma(t) - t))
    res = parts_residual(ts, f, g, pts[0], pts[-1])
    assert abs(res) <= 1e-9 * scale


def test_product_rule_matches_hand_expansion():
    # (fg)^Delta(t) = f^Delta(t) g(t) + f(sigma(t)) g^Delta(t), checked at 1
    f = Sampled({0.0: 1.0, 1.0: 2.0, 2.0: 5.0, 3.0: 1.0})
    g = Sampled({0.0: -1.0, 1.0: 4.0, 2.0: 2.0, 3.0: 0.0})
    ts = IntegerInterval(0, 3)
    fd = 5.0 - 2.0
    gd = 2.0 - 4.0
    lhs = (5.0 * 2.0) - (2.0 * 4.0)
    assert lhs == fd * 4.0 + 5.0 * gd
    assert product_rule_residual(ts, f, g, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_parts_matches_hand_sum():
    ts = IntegerInterval(0, 2)
    f = Sampled({0.0: 1.0, 1.0: 3.0, 2.0: -1.0})
    g = Sampled({0.0: 2.0, 1.0: 0.0, 2.0: 4.0})
    assert parts_residual(ts, f, g, 0.0, 2.0) == pytest.approx(0.0, abs=1e-14)


def test_parts_real_polynomials():
    ts = RealInterval(0.0, 2.0)
    f = Polynomial((1.0, 1.0))
    g = T_SQUARED
    assert parts_residual(ts, f, g, 0.0, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_delta_integral_rejects_outside_points():
    from delta_ineq import NotInScale
    with pytest.raises(NotInScale):
        delta_integral(Z04, T_SQUARED, 0.5, 3.0)
