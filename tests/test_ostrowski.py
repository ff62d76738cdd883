"""Kernel, identity, bounds, proof machinery, closed forms, reduction.

The expected numbers for the worked instance (integers 0..4, x = 2,
alpha = beta = 1, h(t) = t, f(t) = t^2) are recomputed here from scratch
with plain loops, independent of the package's own integrators.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delta_ineq import (
    ConfigError,
    ConsistencyError,
    ContinuousScale,
    FamilyMismatch,
    FiniteGrid,
    IntegerInterval,
    InvalidBounds,
    KernelSpec,
    OutOfRange,
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
    closed_form_rhs,
    delta_derivative_range,
    feval,
    gruss_variance_check,
    h_monomial,
    identity_residual,
    kernel_P,
    kernel_moments,
    kernel_spec_from_json,
    kernel_spec_to_json,
    kernel_variance_residual,
    korkine_residual,
    montgomery_lhs,
    montgomery_rhs,
    reduction_weighted_ostrowski,
    sup_abs_delta_derivative,
)
from delta_ineq.calculus import poly_definite
from delta_ineq.ostrowski import ROOT_SCAN_CELLS, _abs_definite, _roots_in

T_SQUARED = Polynomial((0.0, 0.0, 1.0))
IDENT = Polynomial((0.0, 1.0))


@pytest.fixture
def worked():
    """The desk instance: Z[0,4], x=2, alpha=beta=1, h=t, f=t^2."""
    ts = IntegerInterval(0, 4)
    spec = KernelSpec(ts=ts, a=0.0, b=4.0, x=2.0, alpha=1.0, beta=1.0, h=IDENT)
    return ts, spec


def desk_kernel_values():
    # alpha/(alpha+beta) * (h(t)-h(a))/(x-a) on [0,2); the beta branch on [2,4)
    out = {}
    for t in (0.0, 1.0):
        out[t] = 0.5 * (t - 0.0) / 2.0
    for t in (2.0, 3.0):
        out[t] = -0.5 * (4.0 - t) / 2.0
    return out            # {0: 0, 1: 0.25, 2: -0.5, 3: -0.25}


# --------------------------------------------------------------- KernelSpec

def test_kernel_spec_validation():
    ts = IntegerInterval(0, 4)
    with pytest.raises(ConfigError):
        KernelSpec(ts=ts, a=3.0, b=3.0, x=3.0, alpha=1.0, beta=1.0, h=IDENT)
    with pytest.raises(ConfigError):
        KernelSpec(ts=ts, a=0.0, b=4.0, x=2.0, alpha=-1.0, beta=1.0, h=IDENT)
    with pytest.raises(ConfigError):
        KernelSpec(ts=ts, a=0.0, b=4.0, x=2.0, alpha=0.0, beta=0.0, h=IDENT)
    with pytest.raises(ConfigError):
        KernelSpec(ts=ts, a=0.0, b=4.0, x=0.0, alpha=1.0, beta=1.0, h=IDENT)
    with pytest.raises(ConfigError):
        KernelSpec(ts=ts, a=0.0, b=4.0, x=4.0, alpha=1.0, beta=1.0, h=IDENT)


@pytest.mark.parametrize("alpha, beta", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
])
def test_kernel_spec_rejects_non_finite_weights(alpha, beta):
    with pytest.raises(ConfigError):
        KernelSpec(ts=IntegerInterval(0, 4), a=0.0, b=4.0, x=2.0,
                   alpha=alpha, beta=beta, h=IDENT)


def test_kernel_spec_edge_x_with_zero_weight():
    ts = IntegerInterval(0, 4)
    # a weightless branch may collapse: x = a needs alpha = 0, x = b beta = 0
    KernelSpec(ts=ts, a=0.0, b=4.0, x=0.0, alpha=0.0, beta=1.0, h=IDENT)
    KernelSpec(ts=ts, a=0.0, b=4.0, x=4.0, alpha=1.0, beta=0.0, h=IDENT)


def test_kernel_spec_json_round_trip(worked):
    _, spec = worked
    assert kernel_spec_from_json(kernel_spec_to_json(spec)) == spec


# ------------------------------------------------------------------- kernel

def test_kernel_values_match_desk(worked):
    _, spec = worked
    for t, want in desk_kernel_values().items():
        assert kernel_P(spec, t) == pytest.approx(want, abs=1e-15)


def test_kernel_out_of_range(worked):
    from delta_ineq import NotInScale
    _, spec = worked
    with pytest.raises(OutOfRange):
        kernel_P(spec, 4.0)          # half-open: b excluded
    with pytest.raises(NotInScale):
        kernel_P(spec, -1.0)         # not even on the scale
    wide = KernelSpec(ts=IntegerInterval(0, 6), a=0.0, b=4.0, x=2.0,
                      alpha=1.0, beta=1.0, h=IDENT)
    with pytest.raises(OutOfRange):
        kernel_P(wide, 5.0)          # on the scale, past b


def test_kernel_zero_weight_branch_is_zero():
    ts = IntegerInterval(0, 4)
    spec = KernelSpec(ts=ts, a=0.0, b=4.0, x=2.0, alpha=0.0, beta=1.0, h=IDENT)
    assert kernel_P(spec, 0.0) == 0.0
    assert kernel_P(spec, 1.0) == 0.0
    assert kernel_P(spec, 2.0) != 0.0


def test_kernel_moments_match_desk(worked):
    _, spec = worked
    vals = desk_kernel_values()
    int_p = sum(vals.values())               # mu = 1 throughout
    int_abs = sum(abs(v) for v in vals.values())
    int_p2 = sum(v * v for v in vals.values())
    mom = kernel_moments(spec)
    assert mom.int_p == pytest.approx(int_p, abs=1e-15)          # -0.5
    assert mom.int_abs_p == pytest.approx(int_abs, abs=1e-15)    # 1.0
    assert mom.int_p2 == pytest.approx(int_p2, abs=1e-15)        # 0.375
    assert int_p == -0.5 and int_abs == 1.0 and int_p2 == 0.375


# ----------------------------------------------------------------- identity

def test_montgomery_sides_match_desk(worked):
    _, spec = worked
    vals = desk_kernel_values()
    fd = {t: 2 * t + 1 for t in vals}        # (t^2)^Delta on Z
    want = sum(vals[t] * fd[t] for t in vals)
    assert want == -3.5
    assert montgomery_lhs(spec, T_SQUARED) == pytest.approx(want, abs=1e-14)
    assert montgomery_rhs(spec, T_SQUARED) == pytest.approx(want, abs=1e-14)
    assert identity_residual(spec, T_SQUARED) == pytest.approx(0.0, abs=1e-14)


@st.composite
def random_spec_and_funcs(draw):
    n = draw(st.integers(4, 12))
    pts = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=n,
                        max_size=n, unique=True))
    pts = tuple(sorted(pts))
    assume(min(q - p for p, q in zip(pts, pts[1:])) >= 1e-6)
    ts = FiniteGrid(pts)

    def sampled():
        vals = draw(st.lists(st.floats(-8, 8, allow_nan=False),
                             min_size=n, max_size=n))
        return Sampled(dict(zip(pts, vals)))

    h, f = sampled(), sampled()
    x = pts[draw(st.integers(1, n - 2))]
    alpha = draw(st.floats(0.0, 5.0))
    beta = draw(st.floats(0.0, 5.0))
    # tiny denormal weights underflow when scaled; stay in a realistic range
    assume(alpha + beta >= 1e-6)
    spec = KernelSpec(ts=ts, a=pts[0], b=pts[-1], x=x,
                      alpha=alpha, beta=beta, h=h)
    return spec, f


@given(random_spec_and_funcs())
@settings(max_examples=150, deadline=None)
def test_identity_residual_property(arg):
    spec, f = arg
    lhs = montgomery_lhs(spec, f)
    res = identity_residual(spec, f)
    assert abs(res) <= 1e-10 * max(1.0, abs(lhs))


# ------------------------------------------------------ derivative envelope

def test_sup_and_range_on_worked(worked):
    ts, _ = worked
    assert sup_abs_delta_derivative(ts, T_SQUARED, 0.0, 4.0) == 7.0
    lo, hi = delta_derivative_range(ts, T_SQUARED, 0.0, 4.0)
    assert (lo, hi) == (1.0, 7.0)


def test_bracket_validation(worked):
    ts, spec = worked
    with pytest.raises(InvalidBounds):
        bound_t8(spec, T_SQUARED, gamma=2.0, big_gamma=7.0)
    with pytest.raises(InvalidBounds):
        bound_t8(spec, T_SQUARED, gamma=1.0, big_gamma=6.0)
    with pytest.raises(InvalidBounds):
        gruss_variance_check(ts, T_SQUARED, 0.0, 4.0, gamma=7.0, big_gamma=1.0)


# ------------------------------------------------------------------- bounds

def test_t5_worked(worked):
    _, spec = worked
    lit = bound_t5(spec, T_SQUARED, Variant.PAPER_LITERAL)
    cor = bound_t5(spec, T_SQUARED, Variant.CORRECTED)
    assert lit.lhs == pytest.approx(3.5, abs=1e-14)
    assert lit.rhs == pytest.approx(3.5, abs=1e-14)      # M |P|-mass / (a+b weight)
    assert cor.rhs == pytest.approx(7.0, abs=1e-14)
    assert cor.slack == pytest.approx(3.5, abs=1e-14)
    assert cor.passes(1e-10) and lit.passes(1e-10)
    assert cor.variant is Variant.CORRECTED and lit.variant is Variant.PAPER_LITERAL


def test_t6a_worked(worked):
    # f = t^2, g = t: B = 2, S(f) = 15, S(g) = 5
    _, spec = worked
    lhs_want = abs(4.0 * 2.0 * 2.0 / 2.0 - (2.0 * 15.0 + 4.0 * 5.0) / 4.0)
    assert lhs_want == 4.5
    cor = bound_t6a(spec, T_SQUARED, IDENT, Variant.CORRECTED)
    lit = bound_t6a(spec, T_SQUARED, IDENT, Variant.PAPER_LITERAL)
    assert cor.lhs == pytest.approx(4.5, abs=1e-14)
    assert cor.rhs == pytest.approx(9.0, abs=1e-14)      # (7*2 + 1*4)/2 * 1.0
    assert lit.rhs == pytest.approx(4.5, abs=1e-14)      # the printed /w survives
    assert cor.passes(1e-10)


def test_t6b_worked(worked):
    _, spec = worked
    lit = bound_t6b(spec, T_SQUARED, T_SQUARED, Variant.PAPER_LITERAL)
    cor = bound_t6b(spec, T_SQUARED, T_SQUARED, Variant.CORRECTED)
    # w^2 * (int P f^Delta)^2 = 4 * 12.25
    assert lit.lhs == pytest.approx(49.0, abs=1e-12)
    assert lit.rhs == pytest.approx(4.0, abs=1e-12)      # printed form drops M1 M2
    assert not lit.passes(1e-10)                         # the printed bound fails
    assert cor.rhs == pytest.approx(196.0, abs=1e-12)
    assert cor.passes(1e-10)


def test_t6b_vanishing_kernel_is_exact():
    # beta = 0 and x right after a: every kernel value is 0, so both sides
    # collapse; the factored left side must be exactly zero, not noise
    ts = FiniteGrid((0.0, 1e-4, 5.0, 9.0))
    h = Sampled({0.0: 2.0, 1e-4: -7.0, 5.0: 3.0, 9.0: 1.0})
    f = Sampled({0.0: 4.0, 1e-4: -6.0, 5.0: 2.0, 9.0: 0.0})
    g = Sampled({0.0: -3.0, 1e-4: 5.0, 5.0: 1.0, 9.0: 2.0})
    spec = KernelSpec(ts=ts, a=0.0, b=9.0, x=1e-4, alpha=3.0, beta=0.0, h=h)
    rep = bound_t6b(spec, f, g, Variant.CORRECTED)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.passes(1e-10)


def test_t7_worked(worked):
    _, spec = worked
    l2 = bound_t7(spec, T_SQUARED, "l2")
    gr = bound_t7(spec, T_SQUARED, "gruss")
    # drift = (16-0)/4 = 4; lhs = |-3.5 - 4*(-0.5)| = 1.5
    assert l2.lhs == pytest.approx(1.5, abs=1e-14)
    # var P = 0.375/4 - (0.5/4)^2 = 0.078125; var f^Delta = 5
    assert l2.rhs == pytest.approx(4.0 * math.sqrt(0.078125 * 5.0), abs=1e-13)
    assert l2.rhs == pytest.approx(2.5, abs=1e-13)
    assert gr.rhs == pytest.approx(4.0 * math.sqrt(0.078125) * 3.0, abs=1e-13)
    assert l2.rhs <= gr.rhs + 1e-12
    with pytest.raises(ConfigError):
        bound_t7(spec, T_SQUARED, "medium")


def test_t8_worked(worked):
    _, spec = worked
    rep = bound_t8(spec, T_SQUARED)
    # midpoint (1+7)/2 = 4: lhs = |-3.5 + 2.0| = 1.5; rhs = 3 * 1.0
    assert rep.lhs == pytest.approx(1.5, abs=1e-14)
    assert rep.rhs == pytest.approx(3.0, abs=1e-14)
    assert rep.passes(1e-10)


# --------------------------------------------------- weight-scale behaviour

POW2 = st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0])


@given(random_spec_and_funcs(), POW2)
@settings(max_examples=60, deadline=None)
def test_kernel_weight_scaling_exact_for_pow2(arg, c):
    spec, _ = arg
    scaled = KernelSpec(ts=spec.ts, a=spec.a, b=spec.b, x=spec.x,
                        alpha=c * spec.alpha, beta=c * spec.beta, h=spec.h)
    for t in spec.ts.grid_points(spec.a, spec.b):
        assert kernel_P(scaled, t) == kernel_P(spec, t)


@given(random_spec_and_funcs(), POW2)
@settings(max_examples=60, deadline=None)
def test_t5_sides_invariant_under_pow2_weight_scaling(arg, c):
    spec, f = arg
    scaled = KernelSpec(ts=spec.ts, a=spec.a, b=spec.b, x=spec.x,
                        alpha=c * spec.alpha, beta=c * spec.beta, h=spec.h)
    r1 = bound_t5(spec, f, Variant.CORRECTED)
    r2 = bound_t5(scaled, f, Variant.CORRECTED)
    assert r1.lhs == r2.lhs
    assert r1.rhs == r2.rhs


@given(random_spec_and_funcs(), POW2)
@settings(max_examples=60, deadline=None)
def test_t6b_sides_covariant_c_squared(arg, c):
    # both sides pick up exactly c^2 under (alpha, beta) -> (c alpha, c beta)
    spec, f = arg
    scaled = KernelSpec(ts=spec.ts, a=spec.a, b=spec.b, x=spec.x,
                        alpha=c * spec.alpha, beta=c * spec.beta, h=spec.h)
    r1 = bound_t6b(spec, f, f, Variant.CORRECTED)
    r2 = bound_t6b(scaled, f, f, Variant.CORRECTED)
    assert r2.lhs == pytest.approx(c * c * r1.lhs, rel=1e-12, abs=1e-300)
    assert r2.rhs == pytest.approx(c * c * r1.rhs, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------- proof machinery

def test_korkine_and_variance_worked(worked):
    _, spec = worked
    assert abs(korkine_residual(spec, T_SQUARED)) <= 1e-12
    assert abs(kernel_variance_residual(spec)) <= 1e-12


def test_gruss_variance_worked(worked):
    ts, _ = worked
    var, bound = gruss_variance_check(ts, T_SQUARED, 0.0, 4.0)
    assert var == pytest.approx(5.0, abs=1e-13)    # values 1,3,5,7 about mean 4
    assert bound == pytest.approx(9.0, abs=1e-13)  # ((7-1)/2)^2
    assert var <= bound


@given(random_spec_and_funcs())
@settings(max_examples=100, deadline=None)
def test_korkine_residual_property(arg):
    spec, f = arg
    mom = kernel_moments(spec)
    scale = max(1.0, mom.int_abs_p)
    assert abs(korkine_residual(spec, f)) <= 1e-9 * scale * 8.0


# ------------------------------------------------------------- closed forms

def test_closed_form_z_matches(worked):
    _, spec = worked
    want = montgomery_rhs(spec, T_SQUARED)
    got = closed_form_rhs(spec, T_SQUARED, "Z")
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(-3.5, abs=1e-14)


def test_closed_form_q_matches():
    ts = QLattice(2.0, 0, 4)        # 1, 2, 4, 8, 16
    spec = KernelSpec(ts=ts, a=1.0, b=16.0, x=4.0, alpha=2.0, beta=1.0,
                      h=Polynomial((1.0, 0.5)))
    want = montgomery_rhs(spec, T_SQUARED)
    got = closed_form_rhs(spec, T_SQUARED, "Q")
    assert got == pytest.approx(want, rel=1e-12)


def test_closed_form_r_matches():
    ts = RealInterval(0.0, 3.0)
    spec = KernelSpec(ts=ts, a=0.0, b=3.0, x=1.0, alpha=1.0, beta=3.0,
                      h=Polynomial((0.0, 1.0, 0.25)))
    want = montgomery_rhs(spec, T_SQUARED)
    got = closed_form_rhs(spec, T_SQUARED, "R")
    assert got == pytest.approx(want, rel=1e-12)


def test_closed_form_family_mismatch(worked):
    _, spec = worked
    with pytest.raises(FamilyMismatch):
        closed_form_rhs(spec, T_SQUARED, "Q")
    with pytest.raises(ConfigError):
        closed_form_rhs(spec, T_SQUARED, "W")


def test_real_scale_needs_polynomials():
    ts = RealInterval(0.0, 2.0)
    spec = KernelSpec(ts=ts, a=0.0, b=2.0, x=1.0, alpha=1.0, beta=1.0, h=IDENT)
    with pytest.raises(ContinuousScale):
        montgomery_lhs(spec, Sampled({0.0: 1.0, 2.0: 2.0}))


# ---------------------------------------------------------------- reduction

def test_reduction_worked(worked):
    ts, _ = worked
    rep = reduction_weighted_ostrowski(ts, T_SQUARED, IDENT, 0.0, 4.0, 2.0)
    assert rep.lhs == pytest.approx(3.5, abs=1e-14)
    # M/(b-a) * [h_2(x,a) + h_2(x,b)] = 7/4 * (1 + 3)
    assert rep.rhs == pytest.approx(7.0, abs=1e-14)
    assert rep.passes(1e-10)


def test_reduction_bracket_equals_monomials_on_integers():
    ts = IntegerInterval(0, 10)
    f = T_SQUARED
    m = sup_abs_delta_derivative(ts, f, 0.0, 10.0)
    for x in range(1, 10):
        rep = reduction_weighted_ostrowski(ts, f, IDENT, 0.0, 10.0, float(x))
        bracket = rep.rhs * 10.0 / m
        want = h_monomial(ts, 2, float(x), 0.0) + h_monomial(ts, 2, float(x), 10.0)
        assert bracket == pytest.approx(want, rel=1e-12)


def test_reduction_rejects_non_interior():
    ts = IntegerInterval(0, 4)
    with pytest.raises(ConfigError):
        reduction_weighted_ostrowski(ts, T_SQUARED, IDENT, 0.0, 4.0, 0.0)


# ------------------------------------------------------------- root scans

@pytest.mark.parametrize("coeffs", [(0.0,), (0.0, -0.0), (3.0,)])
def test_constant_polynomial_has_no_scan_roots(coeffs):
    lo, hi = -0.75, 1.5
    assert _roots_in(coeffs, lo, hi) == []
    # Without the shortcut, the scan reported every interior scan point of
    # the zero polynomial as a root; |p| summed piece by piece over those
    # cuts is the value _abs_definite returned then.
    step = (hi - lo) / ROOT_SCAN_CELLS
    inner = [lo + i * step for i in range(1, ROOT_SCAN_CELLS)] if not any(coeffs) else []
    cuts = [lo] + inner + [hi]
    expected = 0.0
    for u, v in zip(cuts, cuts[1:]):
        expected += abs(poly_definite(coeffs, u, v))
    assert _abs_definite(coeffs, lo, hi).hex() == expected.hex()
