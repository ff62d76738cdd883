"""Kernel, identity, bounds, proof machinery, closed forms, reduction.

The expected numbers for the worked instance (integers 0..4, x = 2,
alpha = beta = 1, h(t) = t, f(t) = t^2) are recomputed here from scratch
with plain loops, independent of the package's own integrators.
"""

import math
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delta_ineq import (
    ConfigError,
    ContinuousScale,
    DeltaIneqError,
    EmptyRange,
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
    func_from_json,
    func_to_json,
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
from delta_ineq import ostrowski
from delta_ineq.calculus import _step_table, poly_add, poly_definite, poly_eval, poly_scale
from delta_ineq.harness import config_from_json, run_bound_suite
from delta_ineq.ostrowski import (
    BOUNDS,
    ROOT_REFINE_TOL,
    ROOT_SCAN_CELLS,
    THEOREMS,
    _abs_definite,
    _kernel_sums,
    _roots_in,
    evaluate_bounds,
)
from test_golden import POLY_ALL_SCALES, REAL_POLY
from test_memo import _residual_bounds

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


@pytest.mark.parametrize("ts, x, alpha", [
    # (alpha + beta)(x - a) = 0.5 * 5e-324 rounds to 0: alpha divides by zero
    (RealInterval(0.0, 0.75), 5e-324, 0.5),
    # alpha / ((alpha + beta)(x - a)) = 1e300 / 1e-10 overflows to inf
    (RealInterval(0.0, 1.0), 1e-310, 1e300),
], ids=["underflow", "overflow"])
def test_kernel_spec_rejects_non_finite_branch_coefficients(ts, x, alpha):
    with pytest.raises(ConfigError, match="branch coefficients"):
        KernelSpec(ts=ts, a=0.0, b=ts.max_point, x=x, alpha=alpha, beta=0.0, h=IDENT)


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
    res = identity_residual(spec, f)
    assert abs(res) <= 1e-10 * _identity_scale(spec, f)


def _identity_scale(spec, f):
    """The largest of 1, |lhs| and the two terms of montgomery_rhs,
    f(x) B / w and S(f) / w: they cancel when the kernel is steep, and the
    residual's round-off scales with them, not with lhs."""
    w = spec.alpha + spec.beta
    return max(1.0, abs(montgomery_lhs(spec, f)),
               abs(feval(f, spec.x) * spec._bracket) / w, abs(_kernel_sums(spec, f)[1]) / w)


def test_identity_residual_of_a_steep_kernel_is_round_off_of_its_terms():
    # an example hypothesis found: h rises by 2 over the step of 1e-05 at a,
    # so f(x) B / w and S(f) / w are each about 6e5 and cancel, while lhs is
    # exactly 0; the residual is one ulp of the cancelling terms
    pts = (0.0, 1e-05, 1.0, 2.0)
    h = Sampled({t: 2.0 if t == 1e-05 else 0.0 for t in pts})
    f = Sampled({t: 3.0 if t == 1e-05 else 0.0 for t in pts})
    spec = KernelSpec(ts=FiniteGrid(pts), a=0.0, b=2.0, x=1e-05, alpha=1.0, beta=0.0, h=h)
    terms = max(abs(feval(f, spec.x) * spec._bracket), abs(_kernel_sums(spec, f)[1]))
    assert montgomery_lhs(spec, f) == 0.0 and 5e5 < terms < 7e5
    assert abs(identity_residual(spec, f)) <= math.ulp(terms)


# ------------------------------------------------------ derivative envelope

def test_sup_and_range_on_worked(worked):
    ts, _ = worked
    assert sup_abs_delta_derivative(ts, T_SQUARED, 0.0, 4.0) == 7.0
    lo, hi = delta_derivative_range(ts, T_SQUARED, 0.0, 4.0)
    assert (lo, hi) == (1.0, 7.0)


@pytest.mark.parametrize("ts, lo, hi", [
    (FiniteGrid((0.0, 1.0, 2.5, 4.0)), 1.0, 2.5),
    (IntegerInterval(0, 4), 1.0, 3.0),
    (QLattice(2.0, 0, 4), 2.0, 8.0),
    (RealInterval(0.0, 4.0), 1.0, 3.0),
], ids=["grid", "integer", "qlattice", "real"])
@pytest.mark.parametrize("a_is", ["equal", "after"])
@pytest.mark.parametrize("fn", [sup_abs_delta_derivative, delta_derivative_range,
                                gruss_variance_check])
def test_derivative_envelopes_reject_an_empty_range(fn, a_is, ts, lo, hi):
    a, b = (hi, hi) if a_is == "equal" else (hi, lo)
    with pytest.raises(EmptyRange):
        fn(ts, Polynomial((0.0, 0.0, 1.0)), a, b)


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


def test_endpoint_anchor_takes_the_step_at_a_into_m():
    # x = a with alpha = 0: P(a) = -beta/w (h(b) - h(a))/(b - a) = -1, so the
    # step of f at a enters the integral of P f^Delta, and M, M1 and M2 must
    # take f^Delta(a) in although sup |f^Delta| over (a, b) is 0
    ts = IntegerInterval(0, 4)
    spec = KernelSpec(ts=ts, a=0.0, b=4.0, x=0.0, alpha=0.0, beta=1.0, h=IDENT)
    f = Sampled({0: 0, 1: 100, 2: 100, 3: 100, 4: 100})
    assert kernel_P(spec, 0.0) == -1.0
    assert sup_abs_delta_derivative(ts, f, 0.0, 4.0) == 0.0
    t5 = bound_t5(spec, f, Variant.CORRECTED)
    t6a = bound_t6a(spec, f, f, Variant.CORRECTED)
    t6b = bound_t6b(spec, f, f, Variant.CORRECTED)
    assert (t5.lhs, t5.rhs) == (100.0, 250.0)
    assert (t6b.lhs, t6b.rhs) == (10000.0, 62500.0)
    assert t5.passes(1e-10) and t6a.passes(1e-10) and t6b.passes(1e-10)


def _draw_discrete_scale(draw, n):
    """A grid, integer or q-lattice scale of n points."""
    kind = draw(st.sampled_from(("grid", "integer", "qlattice")))
    if kind == "grid":
        pts = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=n,
                            max_size=n, unique=True))
        pts = tuple(sorted(pts))
        assume(min(q - p for p, q in zip(pts, pts[1:])) >= 1e-6)
        return FiniteGrid(pts)
    if kind == "integer":
        lo = draw(st.integers(-20, 20))
        return IntegerInterval(lo, lo + n - 1)
    kmin = draw(st.integers(-4, 4))
    return QLattice(draw(st.floats(1.01, 3.0)), kmin, kmin + n - 1)


@st.composite
def anchored_spec_and_funcs(draw, wide=False):
    """x = a with alpha = 0 on a grid, integer or q-lattice scale, with
    sampled h, f and g.  Drawn here, not by the suites' _draw_x, which keeps
    x interior, so that the suite reports stay as they are.  wide draws from
    all four scale kinds instead (see _wide_spec_and_funcs)."""
    if wide:
        return _wide_spec_and_funcs(draw)
    n = draw(st.integers(3, 10))
    ts = _draw_discrete_scale(draw, n)
    pts = ts.all_points()

    def sampled():
        return Sampled(dict(zip(pts, draw(st.lists(st.floats(-8, 8, allow_nan=False),
                                                   min_size=n, max_size=n)))))

    spec = KernelSpec(ts=ts, a=pts[0], b=pts[-1], x=pts[0], alpha=0.0,
                      beta=draw(st.floats(1e-3, 5.0)), h=sampled())
    return spec, sampled(), sampled()


def _wide_spec_and_funcs(draw):
    """Any of the four scale kinds; the window [a, b] any part of the scale
    with x at a (alpha = 0), at b (beta = 0) or inside; h, f and g sampled
    or polynomial, polynomial only on a real interval."""
    where = draw(st.sampled_from(("a", "b", "inside")))
    if draw(st.booleans()):
        lo = draw(st.floats(-4.0, 3.0))
        ts = RealInterval(lo, lo + draw(st.floats(0.5, 4.0)))
        u, v = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        assume(v - u >= 0.05)
        a, b = ts.lo + u * (ts.hi - ts.lo), ts.lo + v * (ts.hi - ts.lo)
        inside = a + draw(st.floats(0.05, 0.95)) * (b - a)
    else:
        n = draw(st.integers(3, 10))
        ts = _draw_discrete_scale(draw, n)
        pts = ts.all_points()
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        a, b = pts[i], pts[j]
        if j - i < 2:
            where = draw(st.sampled_from(("a", "b")))
        inside = pts[draw(st.integers(i + 1, max(i + 1, j - 1)))]
    x = {"a": a, "b": b, "inside": inside}[where]
    alpha = 0.0 if where == "a" else draw(st.floats(1e-3, 5.0))
    beta = 0.0 if where == "b" else draw(st.floats(1e-3, 5.0))

    def func():
        if isinstance(ts, RealInterval) or draw(st.booleans()):
            return Polynomial(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)))
        pts = ts.all_points()
        return Sampled(dict(zip(pts, draw(st.lists(st.floats(-8, 8, allow_nan=False),
                                                   min_size=len(pts), max_size=len(pts))))))

    spec = KernelSpec(ts=ts, a=a, b=b, x=x, alpha=alpha, beta=beta, h=func())
    return spec, func(), func()


def _cold(spec, *funcs):
    """Fresh copies of spec and funcs, rebuilt from their JSON: no memo."""
    return (kernel_spec_from_json(kernel_spec_to_json(spec)),
            *(func_from_json(func_to_json(fn)) for fn in funcs))


def _outcome(call):
    """What call returns, or the type of the package error it raises."""
    try:
        return call()
    except DeltaIneqError as exc:
        return type(exc)


@given(anchored_spec_and_funcs(wide=True),
       st.sampled_from([(Variant.PAPER_LITERAL, Variant.CORRECTED),
                        (Variant.CORRECTED, Variant.PAPER_LITERAL),
                        (Variant.PAPER_LITERAL,), (Variant.CORRECTED,)]),
       st.none() | st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
@settings(max_examples=200, deadline=None)
def test_evaluate_bounds_is_bit_equal_to_each_public_bound(arg, variants, widen):
    # every report equals its bound_* call on a cold copy, bit for bit, with
    # the bracket omitted (None) or supplied around the range of f^Delta
    spec, f, g = arg
    gammas = (None, None)
    if widen is not None:
        cold_spec, cold_f = _cold(spec, f)
        lo, hi = delta_derivative_range(cold_spec.ts, cold_f, cold_spec.a, cold_spec.b)
        gammas = (lo - widen[0], hi + widen[1])
    got = _outcome(lambda: evaluate_bounds(spec, f, g, variants, *gammas))
    want = {}
    for variant in variants:
        for name in THEOREMS:
            cold_spec, cold_f, cold_g = _cold(spec, f, g)
            want[name, variant] = _outcome(lambda: BOUNDS[name](cold_spec, cold_f, cold_g,
                                                               variant, *gammas))
    raised = {w for w in want.values() if isinstance(w, type)}
    if raised:
        assert got in raised
        return
    once, reports = got
    assert [(r.theorem, r.variant) for r in reports] == list(want)
    for rep in reports:
        ref = want[rep.theorem, rep.variant]
        if rep.theorem in once:         # evaluated once, tagged CORRECTED as bound_t7/t8 tag it
            assert once[rep.theorem] == ref and ref.variant is Variant.CORRECTED
        assert rep.theorem == ref.theorem
        assert [v.hex() for v in (rep.lhs, rep.rhs, rep.slack)] == \
            [v.hex() for v in (ref.lhs, ref.rhs, ref.slack)]
    assert set(once) == {"T7-L2", "T7-Gruss", "T8"}


def test_evaluate_bounds_rejects_a_bracket_that_misses_f_delta(worked):
    # f^Delta = 2t + 1 ranges over [1, 7] on Z[0, 4)
    _, spec = worked
    g = Polynomial((1.0, -1.0))
    for gamma, big_gamma in ((1.5, 7.0), (1.0, 6.5), (2.0, 3.0), (7.0, 1.0)):
        with pytest.raises(InvalidBounds):
            evaluate_bounds(spec, T_SQUARED, g, (Variant.CORRECTED,), gamma, big_gamma)
    once, _ = evaluate_bounds(spec, T_SQUARED, g, (Variant.CORRECTED,), 1.0, 7.0)
    assert once["T8"] == bound_t8(spec, T_SQUARED)


@given(anchored_spec_and_funcs())
@settings(max_examples=100, deadline=None)
def test_corrected_bounds_hold_with_x_at_a(arg):
    # P(a) = -beta/w (h(b) - h(a))/(b - a) need not vanish, so M is the
    # sup of |f^Delta| over [a, b), the step at a included
    spec, f, g = arg
    for rep in (bound_t5(spec, f), bound_t6a(spec, f, g), bound_t6b(spec, f, g)):
        assert rep.passes(1e-10), rep
    pts = spec.ts.all_points()
    for fn in (f, g):
        steps = [abs((feval(fn, s) - feval(fn, t)) / (s - t)) for t, s in zip(pts, pts[1:])]
        assert _kernel_sums(spec, fn)[2] == max(steps)


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


def test_every_bound_evaluates_where_the_printed_t6b_form_reads_round_off():
    # int P g^Delta reads 1.1e-13 where the Montgomery identity's other side
    # is exactly 0.  The printed four-term T6b form then reads 0.0 against
    # the factored -1.344e-10, which the check that compared them took for
    # an inconsistency; only the factored form is computed now.
    ts = QLattice(1.01, 0, 3)
    pts = ts.grid_points(ts.min_point, ts.max_point) + [ts.max_point]
    h, f, g = (Sampled(dict(zip(pts, vals)))
               for vals in ((0, 0, 0, 2), (0, 0, 0, 3), (0, 0, 4, 0)))
    spec = KernelSpec(ts=ts, a=pts[0], b=pts[-1], x=1.01, alpha=0.0, beta=2.0, h=h)
    assert montgomery_rhs(spec, g) == 0.0 and 0.0 < montgomery_lhs(spec, g) < 1e-12
    _, reports = evaluate_bounds(spec, f, g, (Variant.PAPER_LITERAL, Variant.CORRECTED))
    assert len(reports) == 2 * len(THEOREMS)
    assert all(math.isfinite(r.lhs) and math.isfinite(r.rhs) for r in reports)
    t6b = {r.variant: r for r in reports if r.theorem == "T6b"}
    assert t6b[Variant.CORRECTED].lhs == pytest.approx(1.344e-10, rel=1e-3)
    assert t6b[Variant.CORRECTED].slack > 1e6


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
    # power-of-two scaling is exact only while every nonzero weight scales to
    # a normal float: below sys.float_info.min it loses bits or becomes 0
    assume(all(w == 0.0 or c * w >= sys.float_info.min
               for w in (spec.alpha, spec.beta)))
    scaled = KernelSpec(ts=spec.ts, a=spec.a, b=spec.b, x=spec.x,
                        alpha=c * spec.alpha, beta=c * spec.beta, h=spec.h)
    for t in spec.ts.grid_points(spec.a, spec.b):
        assert kernel_P(scaled, t) == kernel_P(spec, t)


def test_kernel_weight_scaling_to_a_subnormal_weight_loses_its_bits():
    # an example hypothesis found: c * beta falls below the normal range and
    # keeps fewer than 53 significant bits, so the scaled kernel drifts
    pts = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    h = Sampled({t: 1.0 if t == 4.0 else 0.0 for t in pts})
    beta, c = 2.225073858507203e-309, 0.25
    spec = KernelSpec(ts=FiniteGrid(pts), a=0.0, b=4.0, x=0.5, alpha=1.0, beta=beta, h=h)
    scaled = KernelSpec(ts=FiniteGrid(pts), a=0.0, b=4.0, x=0.5,
                        alpha=c, beta=c * beta, h=h)
    assert 0.0 < c * beta < sys.float_info.min and c * beta / c != beta
    lost_bits = math.ceil(math.log2(sys.float_info.min / (c * beta)))
    want, got = kernel_P(spec, 0.5), kernel_P(scaled, 0.5)
    assert got != want
    assert abs(got - want) <= abs(want) * 2.0 ** (lost_bits - 52)


def _weighted_rhs_values(spec, f):
    """The values montgomery_rhs forms that carry a factor of the weights,
    each as the package forms it: the terms of B and B, the terms of S(f)
    and S(f), and f(x) B.  Scaling the weights by a power of two scales each
    exactly unless it is subnormal.  Steps only: spec's window has no dense
    piece."""
    h, a, b, x = spec.h, spec.a, spec.b, spec.x
    mus, _, hds, k, _ = spec._grid
    fv = _step_table(spec.ts, f, a, b)[2]
    left = right = 0.0
    for i, (mu, hd, fs) in enumerate(zip(mus, hds, fv[1:])):
        if i < k:
            left += mu * hd * fs
        else:
            right += mu * hd * fs
    out = []
    if spec.alpha > 0.0:
        out += [spec.alpha * (feval(h, x) - feval(h, a)), spec.alpha / (x - a)]
        out += [out[-2] / (x - a), out[-1] * left]
    if spec.beta > 0.0:
        out += [spec.beta * (feval(h, b) - feval(h, x)), spec.beta / (b - x)]
        out += [out[-2] / (b - x), out[-1] * right]
    out += [spec._bracket, _kernel_sums(spec, f)[1], feval(f, x) * spec._bracket]
    return out


def _subnormal(v):
    return 0.0 < abs(v) < sys.float_info.min


@given(random_spec_and_funcs(), POW2)
@settings(max_examples=60, deadline=None)
def test_t5_sides_invariant_under_pow2_weight_scaling(arg, c):
    spec, f = arg
    # exact only while every nonzero weight scales to a normal float, as in
    # test_kernel_weight_scaling_exact_for_pow2, and so does every value of
    # montgomery_rhs that carries the weights (see the test below)
    assume(all(w == 0.0 or c * w >= sys.float_info.min
               for w in (spec.alpha, spec.beta)))
    scaled = KernelSpec(ts=spec.ts, a=spec.a, b=spec.b, x=spec.x,
                        alpha=c * spec.alpha, beta=c * spec.beta, h=spec.h)
    assume(not any(map(_subnormal, _weighted_rhs_values(spec, f)
                       + _weighted_rhs_values(scaled, f))))
    r1 = bound_t5(spec, f, Variant.CORRECTED)
    r2 = bound_t5(scaled, f, Variant.CORRECTED)
    assert r1.lhs == r2.lhs
    assert r1.rhs == r2.rhs


def test_t5_sides_under_scaling_to_a_subnormal_weight_lose_its_bits():
    # an example hypothesis found: c * beta falls below the normal range, so
    # the corrected T5 lhs of the scaled spec drifts by the bits it lost
    pts = (-2.0, -1.0, 0.0, 2.0)
    h = f = Sampled({t: 1.0 if t == 2.0 else 0.0 for t in pts})
    beta, c = 1.1125369292536007e-308, 0.25
    spec = KernelSpec(ts=FiniteGrid(pts), a=-2.0, b=2.0, x=-1.0, alpha=1.0, beta=beta, h=h)
    scaled = KernelSpec(ts=FiniteGrid(pts), a=-2.0, b=2.0, x=-1.0,
                        alpha=c, beta=c * beta, h=h)
    assert 0.0 < c * beta < sys.float_info.min
    lost_bits = math.ceil(math.log2(sys.float_info.min / (c * beta)))
    want = bound_t5(spec, f, Variant.CORRECTED)
    got = bound_t5(scaled, f, Variant.CORRECTED)
    assert got.lhs != want.lhs
    assert abs(got.lhs - want.lhs) <= abs(want.lhs) * 2.0 ** (lost_bits - 52)
    assert got.rhs == want.rhs


def test_t5_sides_under_scaling_to_a_subnormal_rhs_value_lose_its_bits():
    # an example hypothesis found: the weights stay normal, but f(x) B and
    # S(f) of the scaled spec fall below the normal range, so the corrected
    # T5 lhs drifts by the bits they lost
    pts = (-1.75, -1.0, 0.0, 1.0)
    h = Sampled({t: 1.75 if t == -1.0 else 0.0 for t in pts})
    f = Sampled({t: 1.1125369292536007e-308 if t == -1.0 else 0.0 for t in pts})
    c = 0.25
    spec = KernelSpec(ts=FiniteGrid(pts), a=-1.75, b=1.0, x=-1.0, alpha=1.0, beta=0.0, h=h)
    scaled = KernelSpec(ts=FiniteGrid(pts), a=-1.75, b=1.0, x=-1.0, alpha=c, beta=0.0, h=h)
    assert not any(map(_subnormal, _weighted_rhs_values(spec, f)))
    assert [_subnormal(v) for v in _weighted_rhs_values(scaled, f)] == [
        False, False, False, True, False, True, True]      # S's term, S(f), f(x) B
    want = bound_t5(spec, f, Variant.CORRECTED)
    got = bound_t5(scaled, f, Variant.CORRECTED)
    assert (want.lhs, got.lhs) == (5e-324, 0.0)
    # two values lose at most half a subnormal spacing each, then / w = c
    assert abs(got.lhs - want.lhs) <= 2.0 ** -1074 / c
    assert got.rhs == want.rhs


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
    # n * u times the summed |terms| of both routes (first-order round-off)
    spec, f = arg
    e_korkine, e_variance = _residual_bounds(spec, f)
    assert abs(korkine_residual(spec, f)) <= e_korkine
    assert abs(kernel_variance_residual(spec)) <= e_variance


# ------------------------------------------------------------- closed forms

def test_closed_form_z_matches(worked):
    _, spec = worked
    want = montgomery_rhs(spec, T_SQUARED)
    got = closed_form_rhs(spec, T_SQUARED, "Z")
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(-3.5, abs=1e-14)
    assert got.hex() == "-0x1.c000000000000p+1"


def test_closed_form_q_matches():
    ts = QLattice(2.0, 0, 4)        # 1, 2, 4, 8, 16
    spec = KernelSpec(ts=ts, a=1.0, b=16.0, x=4.0, alpha=2.0, beta=1.0,
                      h=Polynomial((1.0, 0.5)))
    want = montgomery_rhs(spec, T_SQUARED)
    got = closed_form_rhs(spec, T_SQUARED, "Q")
    assert got == pytest.approx(want, rel=1e-12)
    assert got.hex() == "-0x1.c000000000000p+4"


def test_closed_form_r_matches():
    ts = RealInterval(0.0, 3.0)
    spec = KernelSpec(ts=ts, a=0.0, b=3.0, x=1.0, alpha=1.0, beta=3.0,
                      h=Polynomial((0.0, 1.0, 0.25)))
    want = montgomery_rhs(spec, T_SQUARED)
    got = closed_form_rhs(spec, T_SQUARED, "R")
    assert got == pytest.approx(want, rel=1e-12)
    assert got.hex() == "-0x1.5355555555555p+2"


def test_closed_form_family_mismatch(worked):
    _, z_spec = worked
    specs = {
        "Z": z_spec,
        "Q": KernelSpec(ts=QLattice(2.0, 0, 4), a=1.0, b=16.0, x=4.0,
                        alpha=2.0, beta=1.0, h=IDENT),
        "R": KernelSpec(ts=RealInterval(0.0, 3.0), a=0.0, b=3.0, x=1.0,
                        alpha=1.0, beta=3.0, h=IDENT),
        "grid": KernelSpec(ts=FiniteGrid((0.0, 1.0, 2.5, 4.0)), a=0.0, b=4.0, x=1.0,
                           alpha=1.0, beta=1.0, h=IDENT),
    }
    for family in ("Z", "Q", "R"):
        for kind, spec in specs.items():
            if kind != family:
                with pytest.raises(FamilyMismatch):
                    closed_form_rhs(spec, T_SQUARED, family)
    for spec in specs.values():
        with pytest.raises(ConfigError):
            closed_form_rhs(spec, T_SQUARED, "W")
    r_spec = specs["R"]
    sampled = Sampled({0.0: 0.0, 1.0: 1.0, 3.0: 9.0})
    with pytest.raises(FamilyMismatch):
        closed_form_rhs(r_spec, sampled, "R")
    with pytest.raises(FamilyMismatch):
        closed_form_rhs(KernelSpec(ts=r_spec.ts, a=0.0, b=3.0, x=1.0, alpha=1.0,
                                   beta=3.0, h=sampled), T_SQUARED, "R")


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


@st.composite
def reduction_instances(draw):
    """(ts, f, h, a, b, x) with a < x < b, [a, b] an inner window too, on a
    grid, integer, q-lattice or real scale: sampled or polynomial f and h on
    a discrete scale, polynomials on a real interval."""
    poly = st.lists(st.floats(-8, 8, allow_nan=False), min_size=1, max_size=4).map(
        lambda coeffs: Polynomial(tuple(coeffs)))
    if draw(st.integers(0, 3)) == 0:                # a real interval in one draw of four
        a, x, b = sorted(draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=3,
                                       max_size=3, unique=True)))
        assume(min(x - a, b - x) >= 1e-3)
        margin = st.sampled_from((0.0, 0.5, 2.0))    # the whole interval or an inner window
        ts = RealInterval(a - draw(margin), b + draw(margin))
        return ts, draw(poly), draw(poly), a, b, x
    n = draw(st.integers(3, 10))
    ts = _draw_discrete_scale(draw, n)
    pts = ts.all_points()
    i = draw(st.integers(0, n - 3))
    j = draw(st.integers(i + 2, n - 1))
    x = pts[draw(st.integers(i + 1, j - 1))]

    def func():
        if draw(st.booleans()):
            return draw(poly)
        return Sampled(dict(zip(pts, draw(st.lists(st.floats(-8, 8, allow_nan=False),
                                                   min_size=n, max_size=n)))))

    return ts, func(), func(), pts[i], pts[j], x


@given(reduction_instances())
@settings(max_examples=200, deadline=None)
def test_reduction_is_corrected_t5_of_its_kernel(case):
    # alpha = x - a, beta = b - x; the T5 side runs on cold copies of f and
    # h, so no memo entry of the reduction's own kernel answers for it
    ts, f, h, a, b, x = case
    got = reduction_weighted_ostrowski(ts, f, h, a, b, x)
    cold_f, cold_h = func_from_json(func_to_json(f)), func_from_json(func_to_json(h))
    want = bound_t5(KernelSpec(ts=ts, a=a, b=b, x=x, alpha=x - a, beta=b - x, h=cold_h),
                    cold_f)
    assert (got.theorem, got.variant) == ("T5", Variant.CORRECTED)
    assert ([v.hex() for v in (got.lhs, got.rhs, got.slack)]
            == [v.hex() for v in (want.lhs, want.rhs, want.slack)])


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


def _scan_roots_point_by_point(coeffs, lo, hi):
    """_roots_in as it was with one poly_eval call per scan point: the
    reference the one-coefficient-at-a-time scan must match bit for bit."""
    if lo >= hi or not any(coeffs[1:]):
        return []
    n = ROOT_SCAN_CELLS
    step = (hi - lo) / n
    xs = [lo + i * step for i in range(n + 1)]
    vals = [poly_eval(coeffs, x) for x in xs]
    tol = ROOT_REFINE_TOL * max(1.0, abs(lo), abs(hi))
    roots = []
    for i in range(n):
        u, v = vals[i], vals[i + 1]
        if u == 0.0:
            if lo < xs[i] < hi:
                roots.append(xs[i])
            continue
        if u * v < 0.0:
            left, right = xs[i], xs[i + 1]
            fl = u
            while right - left > tol:
                mid = 0.5 * (left + right)
                fm = poly_eval(coeffs, mid)
                if fm == 0.0:
                    left = right = mid
                    break
                if fl * fm < 0.0:
                    right = mid
                else:
                    left, fl = mid, fm
            roots.append(0.5 * (left + right))
    return roots


def _random_root_scan_cases(n_cases, seed=15):
    """(coeffs, lo, hi) of degree <= 4, in turn: random coefficients on a
    random interval; roots on scan points of a dyadic interval, so that
    the scan meets exact zeros; roots on scan points of a random interval,
    so that round-off alone sets the sign there."""
    rng = random.Random(seed)
    cases = []
    for k in range(n_cases):
        degree = rng.randint(1, 4)
        if k % 3 == 0:
            lo = rng.uniform(-5.0, 5.0)
            hi = lo + rng.uniform(1e-3, 10.0)
            coeffs = tuple(rng.uniform(-3.0, 3.0) for _ in range(degree + 1))
        else:
            if k % 3 == 1:
                lo, hi = float(rng.randint(-4, 0)), float(rng.randint(1, 4))
            else:
                lo = rng.uniform(-5.0, 0.0)
                hi = rng.uniform(0.5, 5.0)
            step = (hi - lo) / ROOT_SCAN_CELLS
            coeffs = _poly_from_roots(rng.choice((-2.0, 0.5, 1.0, 3.0)), [
                lo + rng.randint(0, ROOT_SCAN_CELLS) * step for _ in range(degree)])
        cases.append((coeffs, lo, hi))
    return cases


def _poly_from_roots(lead, roots):
    """lead * prod(t - r), coefficients from the constant term up."""
    coeffs = (lead,)
    for r in roots:
        coeffs = tuple(a - r * b for a, b in zip((0.0,) + coeffs, coeffs + (0.0,)))
    return coeffs


def _scan_point(rng, lo, hi):
    return lo + rng.randint(0, ROOT_SCAN_CELLS) * ((hi - lo) / ROOT_SCAN_CELLS)


def _clustered_roots(rng):
    """Double roots and clusters of roots 1e-12 to 1e-4 apart, on scan
    points or not, with a few roots elsewhere; degree up to 12."""
    lo = rng.uniform(-5.0, 5.0)
    hi = lo + rng.uniform(1e-2, 10.0)
    roots = []
    while len(roots) < 8:
        c = _scan_point(rng, lo, hi) if rng.random() < 0.5 else rng.uniform(lo, hi)
        gap = 10.0 ** rng.uniform(-12.0, -4.0)
        roots += [c] * 2 if rng.random() < 0.5 else [c + k * gap for k in range(rng.randint(2, 4))]
        if rng.random() < 0.5:
            break
    roots += [rng.uniform(lo - 1.0, hi + 1.0) for _ in range(rng.randint(0, 12 - len(roots)))]
    return _poly_from_roots(rng.choice((-1.0, 0.25, 3.0)), roots), lo, hi


def _root_at_an_end(rng):
    """The shapes of the kernel's branches: c1*(h(t) - h(lo)) vanishes at
    lo and -c2*(h(hi) - h(t)) at hi, up to round-off; or an exact factor
    (t - lo) or (t - hi).  Dyadic ends make some of these zeros exact."""
    if rng.random() < 0.5:
        lo, hi = rng.randint(-20, 10) / 4, rng.randint(11, 30) / 4
    else:
        lo = rng.uniform(-5.0, 5.0)
        hi = lo + rng.uniform(1e-3, 10.0)
    end = rng.choice((lo, hi))
    if rng.random() < 0.5:
        h = tuple(rng.uniform(-3.0, 3.0) for _ in range(rng.randint(2, 6)))
        c = rng.uniform(0.1, 2.0) * (1.0 if end == lo else -1.0)
        return poly_scale(poly_add(h, (-poly_eval(h, end),)), c), lo, hi
    roots = [end] + [rng.uniform(lo - 1.0, hi + 1.0) for _ in range(rng.randint(0, 5))]
    return _poly_from_roots(rng.uniform(-3.0, 3.0), roots), lo, hi


def _tiny_coefficients(rng):
    """Coefficients near 1e-160: products of two values underflow, so the
    scan's u * v < 0.0 misses some sign changes."""
    lo = rng.uniform(-3.0, 1.0)
    hi = lo + rng.uniform(0.5, 4.0)
    scale = 10.0 ** rng.uniform(-170.0, -150.0)
    if rng.random() < 0.5:
        coeffs = tuple(scale * rng.uniform(-3.0, 3.0) for _ in range(rng.randint(2, 13)))
        return coeffs, lo, hi
    roots = [rng.uniform(lo, hi) for _ in range(rng.randint(1, 6))]
    return _poly_from_roots(scale, roots), lo, hi


def _huge_coefficients(rng):
    """Coefficients near 1e300 on wide windows: Horner overflows to inf,
    and inf - inf gives NaN, at some scan points."""
    lo = -rng.uniform(1.0, 100.0)
    hi = rng.uniform(1.0, 100.0)
    scale = 10.0 ** rng.uniform(295.0, 307.0)
    coeffs = tuple(scale * rng.uniform(-1.0, 1.0) for _ in range(rng.randint(2, 13)))
    return coeffs, lo, hi


def _far_window(rng):
    """Windows far from 0, such as lo = 1e8 with width 1e-3, with roots
    inside: the expanded coefficients cancel, and round-off sets the sign.
    The narrowest windows repeat grid points."""
    lo = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(4.0, 9.0)
    hi = lo + abs(lo) * 10.0 ** rng.uniform(-16.0, -9.0)
    roots = [_scan_point(rng, lo, hi) if rng.random() < 0.3 else rng.uniform(lo, hi)
             for _ in range(rng.randint(1, 4))]
    return _poly_from_roots(rng.uniform(-2.0, 2.0), roots), lo, hi


def _high_degree(rng):
    """Random coefficients or spread roots, degree 6 to 12."""
    lo = rng.uniform(-2.0, 1.0)
    hi = lo + rng.uniform(0.1, 3.0)
    degree = rng.randint(6, 12)
    if rng.random() < 0.5:
        return tuple(rng.uniform(-3.0, 3.0) for _ in range(degree + 1)), lo, hi
    roots = [rng.uniform(lo - 0.5, hi + 0.5) for _ in range(degree)]
    return _poly_from_roots(rng.uniform(-3.0, 3.0), roots), lo, hi


ADVERSARIAL_ROOT_SCANS = {
    "clustered": _clustered_roots,
    "root-at-end": _root_at_an_end,
    "tiny": _tiny_coefficients,
    "huge": _huge_coefficients,
    "far-window": _far_window,
    "high-degree": _high_degree,
}


def _assert_scan_matches_oracle(coeffs, lo, hi):
    """_roots_in's roots, after checking them against the oracle."""
    got = _roots_in(coeffs, lo, hi)
    want = _scan_roots_point_by_point(coeffs, lo, hi)
    assert [r.hex() for r in got] == [r.hex() for r in want], (coeffs, lo, hi)
    return got


def test_root_scan_is_bit_equal_to_the_point_by_point_scan():
    cases = _random_root_scan_cases(600)
    exact_zeros = 0
    for coeffs, lo, hi in cases:
        roots = _assert_scan_matches_oracle(coeffs, lo, hi)
        exact_zeros += any(poly_eval(coeffs, r) == 0.0 for r in roots)
    # the dyadic third must reach the scan's exact-zero branch
    assert exact_zeros >= 100


def _grid_values(coeffs, lo, hi):
    step = (hi - lo) / ROOT_SCAN_CELLS
    return [poly_eval(coeffs, lo + i * step) for i in range(ROOT_SCAN_CELLS + 1)]


@pytest.mark.parametrize("family", sorted(ADVERSARIAL_ROOT_SCANS))
def test_root_scan_is_bit_equal_to_the_point_by_point_scan_on_adversarial_families(family):
    rng = random.Random(f"root-scan-{family}")
    hits = 0
    for _ in range(40):
        coeffs, lo, hi = ADVERSARIAL_ROOT_SCANS[family](rng)
        roots = _assert_scan_matches_oracle(coeffs, lo, hi)
        vals = _grid_values(coeffs, lo, hi)
        # each family must reach the regime it is there for
        if family == "tiny":
            hits += any(u * v == 0.0 and u != 0.0 != v for u, v in zip(vals, vals[1:]))
        elif family == "huge":
            hits += not all(math.isfinite(v) for v in vals)
        elif family == "root-at-end":
            hits += vals[0] == 0.0 or vals[-1] == 0.0
        else:
            hits += len(roots) >= 2
    assert hits >= 10


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(sorted(ADVERSARIAL_ROOT_SCANS)),
       rng=st.randoms(use_true_random=False))
def test_root_scan_matches_the_point_by_point_scan_property(family, rng):
    _assert_scan_matches_oracle(*ADVERSARIAL_ROOT_SCANS[family](rng))


def test_root_scan_on_the_suite_traffic_is_bit_equal(monkeypatch):
    """Every root scan of real bound suites, through the engine's own
    callers: the kernel moments and the f'' roots of the f' envelopes."""
    calls = []

    def checked(coeffs, lo, hi):
        calls.append(coeffs)
        return _assert_scan_matches_oracle(coeffs, lo, hi)

    monkeypatch.setattr(ostrowski, "_roots_in", checked)
    for config in ({**REAL_POLY, "seed": 3}, {**POLY_ALL_SCALES, "seed": 7}):
        run_bound_suite(config_from_json({**config, "trials": 40}))
    assert len(calls) >= 100


def _count_scan_evaluations(monkeypatch, coeffs, lo, hi):
    """(roots, poly_eval calls) of one _roots_in call."""
    count = [0]

    def counted(c, t):
        count[0] += 1
        return poly_eval(c, t)

    monkeypatch.setattr(ostrowski, "poly_eval", counted)
    roots = _roots_in(coeffs, lo, hi)
    monkeypatch.undo()
    return roots, count[0]


@pytest.mark.parametrize("coeffs, lo, hi, n_roots, most", [
    ((1.0, 0.5, 2.0), -3.0, 2.0, 0, 20),                              # no real root
    (_poly_from_roots(1.5, (-1.3, 0.2, 2.1)), -2.0, 3.0, 3, 300),   # simple roots
])
def test_root_scan_evaluates_far_fewer_points_than_the_grid(monkeypatch, coeffs, lo, hi,
                                                           n_roots, most):
    roots, evaluations = _count_scan_evaluations(monkeypatch, coeffs, lo, hi)
    assert len(roots) == n_roots
    # the grid has ROOT_SCAN_CELLS + 1 = 1025 points; bisection adds about
    # 30 evaluations per root
    assert evaluations <= most
    assert roots == _assert_scan_matches_oracle(coeffs, lo, hi)


def test_root_scan_of_an_overflowing_polynomial_matches_the_oracle():
    # the partial Horner sum c2 + c3 t + c4 t**2 passes the largest float
    # near t = -0.05 only: there the scan reads -inf between two positive
    # values, and flags two cells the true polynomial does not have
    coeffs, lo, hi = (1e307, 0.0, -1.7975e308, 1e307, 1e308), -0.1, 0.1
    assert poly_eval(coeffs, -0.05) == -math.inf
    assert len(_assert_scan_matches_oracle(coeffs, lo, hi)) == 2
