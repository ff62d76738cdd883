"""Memoized derived data: the kernel data a KernelSpec keeps and the step
tables and f^Delta candidate lists a function keeps.

A warm object must answer bit for bit as a fresh copy rebuilt from JSON,
and as reference loops that enumerate the grid on every call; the memo must
stay invisible: not in ==, hash, repr or JSON, not carried over by
dataclasses.replace, and never answering for another window or another spec.
"""

import dataclasses
import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    feval,
    func_from_json,
    func_to_json,
    gruss_variance_check,
    kernel_moments,
    kernel_spec_from_json,
    kernel_spec_to_json,
    kernel_variance_residual,
    korkine_residual,
    montgomery_lhs,
    montgomery_rhs,
    parts_residual,
    reduction_weighted_ostrowski,
    sup_abs_delta_derivative,
)
from delta_ineq.calculus import (
    _step_table,
    _with_sample,
    poly_definite,
    poly_derive,
    poly_eval,
    poly_mul,
)
from delta_ineq.harness import _int_f_gdelta
from delta_ineq.ostrowski import _branch_coeffs, _kernel_sums, _roots_in

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


def _real_x_at_a():
    ts = RealInterval(-1.5, 1.0)
    spec = KernelSpec(ts=ts, a=-1.5, b=1.0, x=-1.5, alpha=0.0, beta=2.5, h=CUBIC)
    return spec, QUADRATIC, LINEAR


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
    "real-x-at-a": _real_x_at_a, "real-constant-h": _real_constant_h,
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
    assert not {"_moments", "_grid", "_bracket"} & set(vars(scaled))
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
    # poly: a step table and one f' list per real window, which the open
    # and closed envelopes share
    assert len(f._delta_memo) == 4 and len(poly._delta_memo) == 6


# ---------------------------------------------------------------------------
# discrete step tables against per-call reference loops


def _grid_x_after_a():
    ts = FiniteGrid((-2.0, -1.75, 0.5, 1.25, 4.0, 4.5, 6.0))
    spec = KernelSpec(ts=ts, a=-2.0, b=6.0, x=-1.75, alpha=0.9, beta=2.1, h=CUBIC)
    return spec, _table(ts), _table(ts, 0.75)


def _integer_x_before_b():
    ts = IntegerInterval(-3, 5)
    spec = KernelSpec(ts=ts, a=-3, b=5, x=4, alpha=1.7, beta=0.3, h=_table(ts, 0.2))
    return spec, CUBIC, _table(ts, -0.5)


def _qlattice_x_before_b():
    ts = QLattice(1.25, -3, 6)
    spec = KernelSpec(ts=ts, a=1.25 ** -3, b=1.25 ** 6, x=1.25 ** 5, alpha=0.6, beta=1.9,
                      h=QUADRATIC)
    return spec, _table(ts), LINEAR


def _qlattice_alpha_zero():
    ts = QLattice(2.0, -1, 6)
    spec = KernelSpec(ts=ts, a=0.5, b=64.0, x=0.5, alpha=0.0, beta=1.0, h=_table(ts, 0.1))
    return spec, CUBIC, _table(ts)


def _qlattice_constant_h():
    ts = QLattice(1.5, 0, 7)
    spec = KernelSpec(ts=ts, a=1.0, b=1.5 ** 7, x=1.5 ** 3, alpha=2.0, beta=1.0,
                      h=Polynomial((-1.5,)))
    return spec, QUADRATIC, _table(ts, 0.5)


DISCRETE_CASES = {
    "grid": _grid, "grid-beta0": _grid_beta_zero, "grid-x-after-a": _grid_x_after_a,
    "integer": _integer, "integer-alpha0": _integer_alpha_zero,
    "integer-constant-h": _integer_constant_h, "integer-x-before-b": _integer_x_before_b,
    "qlattice": _qlattice, "qlattice-x-before-b": _qlattice_x_before_b,
    "qlattice-alpha0": _qlattice_alpha_zero, "qlattice-constant-h": _qlattice_constant_h,
}


def _ref_steps(ts, a, b):
    if isinstance(ts, RealInterval):        # no right-scattered point
        return []
    pts = ts.grid_points(a, b)
    return list(zip(pts, pts[1:] + [b]))


def _ref_fds(ts, f, a, b, open_interval=False):
    """f^Delta per step, then on a real window f' at its ends and at the
    roots of f''."""
    fds = [(feval(f, nxt) - feval(f, t)) / (nxt - t) for t, nxt in _ref_steps(ts, a, b)
           if not (open_interval and t == a)]
    if isinstance(ts, RealInterval):
        d = poly_derive(f.coeffs)
        fds += [poly_eval(d, t) for t in [a, b] + _roots_in(poly_derive(d), a, b)]
    return fds


def _ref_kernel(spec):
    """(mu, P) per step, P from the two branches evaluated point by point."""
    w = spec.alpha + spec.beta
    c1 = spec.alpha / (w * (spec.x - spec.a)) if spec.alpha > 0.0 else 0.0
    c2 = spec.beta / (w * (spec.b - spec.x)) if spec.beta > 0.0 else 0.0
    h = spec.h
    out = []
    for t, nxt in _ref_steps(spec.ts, spec.a, spec.b):
        if t < spec.x:
            p = c1 * (feval(h, t) - feval(h, spec.a))
        else:
            p = -c2 * (feval(h, spec.b) - feval(h, t))
        out.append((nxt - t, p))
    return out


def _ref_lhs(spec, f):
    total = 0.0
    for (t, nxt), (mu, p) in zip(_ref_steps(spec.ts, spec.a, spec.b), _ref_kernel(spec)):
        fd = (feval(f, nxt) - feval(f, t)) / mu
        total += mu * p * fd
    for lo, hi, p in spec._grid[4]:         # the dense pieces, P as a polynomial
        total += poly_definite(poly_mul(p, poly_derive(f.coeffs)), lo, hi)
    return total


def _ref_sigma_mean(spec, f, lo, hi):
    if lo == hi:
        return 0.0
    total = 0.0
    for t, nxt in _ref_steps(spec.ts, lo, hi):
        mu = nxt - t
        hd = (feval(spec.h, nxt) - feval(spec.h, t)) / mu
        total += mu * hd * feval(f, nxt)
    for plo, phi, _ in spec._grid[4]:
        if lo <= plo and phi <= hi:
            total += poly_definite(poly_mul(poly_derive(spec.h.coeffs), f.coeffs), plo, phi)
    return total


def _ref_mean_side(spec, f):
    s = 0.0
    if spec.alpha > 0.0:
        s += spec.alpha / (spec.x - spec.a) * _ref_sigma_mean(spec, f, spec.a, spec.x)
    if spec.beta > 0.0:
        s += spec.beta / (spec.b - spec.x) * _ref_sigma_mean(spec, f, spec.x, spec.b)
    return s


def _ref_bracket(spec):
    h = spec.h
    ba = bb = 0.0
    if spec.alpha > 0.0:
        ba = spec.alpha * (feval(h, spec.x) - feval(h, spec.a)) / (spec.x - spec.a)
    if spec.beta > 0.0:
        bb = spec.beta * (feval(h, spec.b) - feval(h, spec.x)) / (spec.b - spec.x)
    return ba + bb


def _ref_rhs(spec, f):
    w = spec.alpha + spec.beta
    return feval(f, spec.x) * _ref_bracket(spec) / w - _ref_mean_side(spec, f) / w


def _ref_moments(spec):
    i1 = ia = i2 = 0.0
    for mu, p in _ref_kernel(spec):
        i1 += mu * p
        ia += mu * abs(p)
        i2 += mu * p * p
    return i1, ia, i2


def _ref_sup(spec, f):
    """M over (a, b), and over [a, b) when x == a, where P(a) need not be 0."""
    open_interval = spec.x != spec.a
    return max((abs(v) for v in _ref_fds(spec.ts, f, spec.a, spec.b, open_interval)),
               default=0.0)


def _ref_clamp(v):
    return 0.0 if -1e-12 <= v < 0.0 else v


def _ref_int_fd2(ts, f, a, b):
    total = 0.0
    for t, nxt in _ref_steps(ts, a, b):
        mu = nxt - t
        fd = (feval(f, nxt) - feval(f, t)) / mu
        total += mu * fd * fd
    return total


def _ref_t6(spec, f, g, variant):
    w = spec.alpha + spec.beta
    fx, gx = feval(f, spec.x), feval(g, spec.x)
    m1, m2 = _ref_sup(spec, f), _ref_sup(spec, g)
    iabs = _ref_moments(spec)[1]
    lhs_a = abs(fx * gx * _ref_bracket(spec) / w
                - (gx * _ref_mean_side(spec, f) + fx * _ref_mean_side(spec, g)) / (2.0 * w))
    rhs_a = (m1 * abs(gx) + m2 * abs(fx)) / 2.0 * iabs
    lhs_b = abs(w * w * _ref_lhs(spec, f) * _ref_lhs(spec, g))
    rhs_b = w * w * iabs * iabs
    if variant is Variant.PAPER_LITERAL:
        rhs_a /= w
    else:
        rhs_b *= m1 * m2
    return (lhs_a, rhs_a, rhs_a - lhs_a), (lhs_b, rhs_b, rhs_b - lhs_b)


def _ref_t7(spec, f):
    i1, _, i2 = _ref_moments(spec)
    width = spec.b - spec.a
    drift = (feval(f, spec.b) - feval(f, spec.a)) / width
    lhs = abs(_ref_lhs(spec, f) - drift * i1)
    sd_p = math.sqrt(_ref_clamp(i2 / width - (i1 / width) ** 2))
    var_f = _ref_clamp(_ref_int_fd2(spec.ts, f, spec.a, spec.b) / width - drift * drift)
    fds = _ref_fds(spec.ts, f, spec.a, spec.b)
    l2 = width * sd_p * math.sqrt(var_f)
    gruss = width * sd_p * (max(fds) - min(fds)) / 2.0
    return (lhs, l2, l2 - lhs), (lhs, gruss, gruss - lhs)


def _ref_gruss_variance(spec, f):
    width = spec.b - spec.a
    drift = (feval(f, spec.b) - feval(f, spec.a)) / width
    fds = _ref_fds(spec.ts, f, spec.a, spec.b)
    variance = _ref_clamp(_ref_int_fd2(spec.ts, f, spec.a, spec.b) / width - drift * drift)
    return variance, (0.5 * (max(fds) - min(fds))) ** 2


def _ref_mu_p(spec):
    kernel = _ref_kernel(spec)
    return [mu for mu, _ in kernel], [p for _, p in kernel]


def _ref_walk(spec, f):
    """(mu, P, f^Delta) per step, each evaluated point by point."""
    return [(mu, p, (feval(f, nxt) - feval(f, t)) / mu)
            for (t, nxt), (mu, p) in zip(_ref_steps(spec.ts, spec.a, spec.b), _ref_kernel(spec))]


def _ref_korkine(spec, f):
    """cov(P, f^Delta) point by point, less the cov formed from the
    Montgomery lhs, int P and f(b) - f(a)."""
    width = spec.b - spec.a
    m_pf = m_p = m_f = 0.0
    for mu, p, fd in _ref_walk(spec, f):
        m_pf += mu * p * fd
        m_p += mu * p
        m_f += mu * fd
    drift = (feval(f, spec.b) - feval(f, spec.a)) / width
    table = _ref_lhs(spec, f) / width - (_ref_moments(spec)[0] / width) * drift
    return m_pf / width - (m_p / width) * (m_f / width) - table


def _ref_kernel_variance(spec):
    """var P point by point, less the var formed from int P and int P**2."""
    width = spec.b - spec.a
    m_p = m_pp = 0.0
    for mu, p in _ref_kernel(spec):
        m_p += mu * p
        m_pp += mu * p * p
    i1, _, i2 = _ref_moments(spec)
    return (m_pp / width - (m_p / width) ** 2) - (i2 / width - (i1 / width) ** 2)


def _ref_parts(spec, f, g):
    a, b = spec.a, spec.b
    boundary = feval(f, b) * feval(g, b) - feval(f, a) * feval(g, a)
    left = right = 0.0
    for t, nxt in _ref_steps(spec.ts, a, b):
        mu = nxt - t
        fd = (feval(f, nxt) - feval(f, t)) / mu
        gd = (feval(g, nxt) - feval(g, t)) / mu
        left += mu * feval(f, t) * gd
        right += mu * fd * feval(g, nxt)
    return left - (boundary - right)


def _ref_int_f_gdelta(spec, f, g):
    total = 0.0
    for t, nxt in _ref_steps(spec.ts, spec.a, spec.b):
        total += feval(f, t) * (feval(g, nxt) - feval(g, t))
    return total


def _ref_t5(spec, f):
    """Corrected T5 from the reference loops."""
    lhs = abs(_ref_rhs(spec, f))
    rhs = _ref_sup(spec, f) * _ref_moments(spec)[1]
    return lhs, rhs, rhs - lhs


def _slack_bits(rep):
    return _bits((rep.lhs, rep.rhs, rep.slack))


@pytest.mark.parametrize("case", sorted(DISCRETE_CASES))
def test_step_tables_answer_bit_equal_to_per_call_enumeration(case):
    spec, f, g = DISCRETE_CASES[case]()
    for _ in range(2):                  # cold tables, then warm ones
        for fn in (f, g):
            assert _bits(montgomery_lhs(spec, fn)) == _bits(_ref_lhs(spec, fn))
            assert _bits(montgomery_rhs(spec, fn)) == _bits(_ref_rhs(spec, fn))
            assert _bits(korkine_residual(spec, fn)) == _bits(_ref_korkine(spec, fn))
            for other in (spec.h, f, g):
                assert (_bits(parts_residual(spec.ts, fn, other, spec.a, spec.b))
                        == _bits(_ref_parts(spec, fn, other)))
                assert (_bits(_int_f_gdelta(spec, fn, other))
                        == _bits(_ref_int_f_gdelta(spec, fn, other)))
            assert (_bits(gruss_variance_check(spec.ts, fn, spec.a, spec.b))
                    == _bits(_ref_gruss_variance(spec, fn)))
            l2, gruss = _ref_t7(spec, fn)
            assert _slack_bits(bound_t7(spec, fn, "l2")) == _bits(l2)
            assert _slack_bits(bound_t7(spec, fn, "gruss")) == _bits(gruss)
            if spec.a < spec.x < spec.b:      # corrected T5 of the unweighted kernel
                got = reduction_weighted_ostrowski(spec.ts, fn, spec.h, spec.a, spec.b, spec.x)
                unweighted = dataclasses.replace(spec, alpha=spec.x - spec.a,
                                                 beta=spec.b - spec.x)
                assert (_slack_bits(got) == _slack_bits(bound_t5(unweighted, fn))
                        == _bits(_ref_t5(unweighted, fn)))
        for v in Variant:
            t6a, t6b = _ref_t6(spec, f, g, v)
            assert _slack_bits(bound_t6a(spec, f, g, v)) == _bits(t6a)
            assert _slack_bits(bound_t6b(spec, f, g, v)) == _bits(t6b)
        assert _bits(kernel_variance_residual(spec)) == _bits(_ref_kernel_variance(spec))
    assert _bits(kernel_moments(spec)) == _bits(_ref_moments(spec))


def test_function_keeps_one_step_table_per_scale_and_window():
    ints = IntegerInterval(0, 6)
    evens = FiniteGrid((0.0, 2.0, 4.0, 6.0))
    f = Sampled({0: 0, 1: 1, 2: 3, 3: 6, 4: 10, 5: 0, 6: -20})
    h = Polynomial((0.0, 1.0))
    on_ints = KernelSpec(ts=ints, a=0, b=6, x=2, alpha=1.0, beta=1.0, h=h)
    on_evens = KernelSpec(ts=evens, a=0, b=6, x=2, alpha=1.0, beta=1.0, h=h)
    narrow = KernelSpec(ts=ints, a=1, b=4, x=2, alpha=1.0, beta=1.0, h=h)
    for spec in (on_ints, on_evens, narrow, on_ints, on_evens, narrow):
        assert _bits(montgomery_lhs(spec, f)) == _bits(_ref_lhs(spec, f))
        assert _bits(montgomery_rhs(spec, f)) == _bits(_ref_rhs(spec, f))
        assert _bits(korkine_residual(spec, f)) == _bits(_ref_korkine(spec, f))
    # step tables are keyed (scale, a, b), the per-spec kernel sums (id(spec), name)
    step_tables = {key for key in f._delta_memo if len(key) == 3}
    assert step_tables == {(ints, 0.0, 6.0), (evens, 0.0, 6.0), (ints, 1.0, 4.0)}
    assert f._delta_memo[(evens, 0.0, 6.0)][1] == [1.5, 3.5, -15.0]
    assert f._delta_memo[(ints, 1.0, 4.0)][1] == [2.0, 3.0, 4.0]
    assert montgomery_lhs(on_ints, f) != montgomery_lhs(on_evens, f)


# ---------------------------------------------------------------------------
# Korkine's identity: the per-point cov equals the double sum over the pairs


def _integer_large():
    ts = IntegerInterval(-20, 220)
    f = Sampled({t: ((37 * i) % 101 - 50) * 0.125 for i, t in enumerate(ts.all_points())})
    h = Sampled({t: 0.5 * i + ((13 * i) % 7) * 0.25 for i, t in enumerate(ts.all_points())})
    spec = KernelSpec(ts=ts, a=-20, b=220, x=77, alpha=1.2, beta=0.8, h=h)
    return spec, f, QUADRATIC


KORKINE_CASES = {**DISCRETE_CASES, "integer-large": _integer_large}
U = 2.0 ** -53


def _pair_term(mus, us, vs, i, j):
    return mus[i] * mus[j] * (us[i] - us[j]) * (vs[i] - vs[j])


def _ref_triangle(mus, us, vs):
    """The Korkine double sum over the pairs i < j, row by row."""
    total = 0.0
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            total += _pair_term(mus, us, vs, i, j)
    return total


def _table_cov(spec, f):
    """cov(P, f^Delta) as T7 forms it, from the lhs, int P and f(b) - f(a)."""
    width = spec.b - spec.a
    drift = (feval(f, spec.b) - feval(f, spec.a)) / width
    return montgomery_lhs(spec, f) / width - (kernel_moments(spec).int_p / width) * drift


def _table_var(spec):
    width = spec.b - spec.a
    mom = kernel_moments(spec)
    return mom.int_p2 / width - (mom.int_p / width) ** 2


def _cov_magnitude(mus, us, vs, width):
    """The sum of |term| of mean(uv) - mean(u) mean(v), means over width."""
    s_uv = s_u = s_v = 0.0
    for m, u, v in zip(mus, us, vs):
        s_uv += abs(m * u * v)
        s_u += abs(m * u)
        s_v += abs(m * v)
    return s_uv / width + s_u * s_v / (width * width)


@pytest.mark.parametrize("case", sorted(KORKINE_CASES))
def test_korkine_triangle_is_half_the_full_square(case):
    """Korkine's identity, with the double sum over the pairs as the test's
    own route: the cov and var each check's walk forms (the table's plus
    the residual) equal it within n * n * u of the summed |terms|."""
    spec, f, g = KORKINE_CASES[case]()
    mus, ps = _ref_mu_p(spec)
    n, width = len(mus), spec.b - spec.a
    walked = [(_ref_fds(spec.ts, fn, spec.a, spec.b),
               _table_cov(spec, fn) + korkine_residual(spec, fn)) for fn in (f, g)]
    walked.append((ps, _table_var(spec) + kernel_variance_residual(spec)))
    for vs, walk in walked:
        full = magnitude = 0.0
        for i in range(n):
            assert _pair_term(mus, ps, vs, i, i) == 0.0
            for j in range(n):
                term = _pair_term(mus, ps, vs, i, j)
                # Bit-equal when nonzero; a zero term may differ from its
                # mirror in sign only, which no sum started at 0.0 can show.
                assert term == _pair_term(mus, ps, vs, j, i)
                full += term
                magnitude += abs(term)
        triangle = _ref_triangle(mus, ps, vs)
        assert abs(2.0 * triangle - full) <= n * n * U * magnitude
        e = n * n * U * (magnitude / (width * width) + _cov_magnitude(mus, ps, vs, width))
        assert abs(walk - triangle / (width * width)) <= e


# ---------------------------------------------------------------------------
# one sigma walk per spec serves (P, f^Delta) and (P, P)


@pytest.mark.parametrize("case", sorted(KORKINE_CASES))
def test_fused_korkine_pass_matches_both_references(case):
    spec, f, g = KORKINE_CASES[case]()
    want_var = _bits(_ref_kernel_variance(spec))
    for _ in range(2):                  # cold walk and tables, then warm ones
        for fn in (f, g, spec.h):
            assert _bits(korkine_residual(spec, fn)) == _bits(_ref_korkine(spec, fn))
            assert _bits(kernel_variance_residual(spec)) == want_var
    pts, mus, ps = vars(spec)["_sigma_walk"]
    assert pts == [t for t, _ in _ref_steps(spec.ts, spec.a, spec.b)] + [spec.b]
    assert _bits((tuple(mus), tuple(ps))) == _bits(tuple(map(tuple, _ref_mu_p(spec))))


# ---------------------------------------------------------------------------
# the walk catches a step table that is wrong


def _corrupt(spec, mus, k):
    """Give spec the step data _grid would hold with these mu and this
    split k at x, before anything reads it; P by its branch at each step."""
    c1, c2 = _branch_coeffs(spec)
    _, _, hds, _, dense = spec._grid
    hv = _step_table(spec.ts, spec.h, spec.a, spec.b)[2]
    ps = [c1 * (hv[i] - hv[0]) if i < k else -c2 * (hv[-1] - hv[i]) for i in range(len(mus))]
    vars(spec)["_grid"] = (mus, ps, hds, k, dense)


def _shift_mu(spec):
    """mu of the first two steps moved by +-delta, their total width kept."""
    mus, _, _, k, _ = spec._grid
    delta = 0.25 * min(mus[0], mus[1])
    return [mus[0] + delta, mus[1] - delta] + mus[2:], k


def _shift_k(spec):
    """The split at x one step off, to the right unless x is b."""
    mus, _, _, k, _ = spec._grid
    return list(mus), k + 1 if k < len(mus) else k - 1


# A constant h makes P vanish at every step, so no table of it can be wrong.
CORRUPTIBLE = sorted(name for name in DISCRETE_CASES if not name.endswith("constant-h"))


def _residual_bounds(spec, f):
    """n * u times the summed |terms| of both routes of each check."""
    mus, ps = _ref_mu_p(spec)
    n, width = len(mus), spec.b - spec.a
    fds = _ref_fds(spec.ts, f, spec.a, spec.b)
    drift_terms = (sum(abs(mu * p) for mu, p in zip(mus, ps))
                   * (abs(feval(f, spec.b)) + abs(feval(f, spec.a))) / (width * width))
    korkine = 2.0 * _cov_magnitude(mus, ps, fds, width) + drift_terms
    variance = 2.0 * _cov_magnitude(mus, ps, ps, width)
    return n * U * korkine, n * U * variance


@pytest.mark.parametrize("shift", [_shift_mu, _shift_k], ids=["mu", "k"])
@pytest.mark.parametrize("case", CORRUPTIBLE)
def test_walk_flags_a_wrong_step_table(case, shift):
    spec, f, _ = _fresh(*DISCRETE_CASES[case]())
    e_korkine, e_variance = _residual_bounds(spec, f)
    assert abs(korkine_residual(spec, f)) <= e_korkine
    assert abs(kernel_variance_residual(spec)) <= e_variance
    bad, f, _ = _fresh(*DISCRETE_CASES[case]())
    _corrupt(bad, *shift(bad))
    assert abs(korkine_residual(bad, f)) > max(e_korkine, 1e-10)
    assert abs(kernel_variance_residual(bad)) > max(e_variance, 1e-10)


@pytest.mark.parametrize("case", sorted(DISCRETE_CASES))
def test_kernel_grid_leaves_the_step_table_of_h(case):
    spec, _, _ = _fresh(*DISCRETE_CASES[case]())
    mus, _, hds, _, dense = spec._grid
    table = _step_table(spec.ts, spec.h, spec.a, spec.b)
    assert table[0] is mus and table[1] is hds and dense == table[3] == ()
    assert list(spec.h._delta_memo) == [(spec.ts, spec.a, spec.b)]
    points = [t for t, _ in _ref_steps(spec.ts, spec.a, spec.b)] + [spec.b]
    assert _bits(tuple(table[2])) == _bits(tuple(feval(spec.h, t) for t in points))


# ---------------------------------------------------------------------------
# a function keeps its kernel sums once per spec


def test_per_spec_sums_never_answer_for_another_spec():
    ts = IntegerInterval(0, 7)
    f = Sampled(dict(zip(ts.all_points(), (9.0, -1.0, 2.5, 0.5, -3.0, 4.0, 1.0, -2.0))))
    line, table = Polynomial((0.0, 1.0)), _table(ts, 0.5)

    def make(x, h, alpha=1.0):
        return KernelSpec(ts=ts, a=0, b=7, x=x, alpha=alpha, beta=1.5, h=h)

    def answers(spec):
        got = (montgomery_lhs(spec, f), montgomery_rhs(spec, f), _kernel_sums(spec, f)[2])
        assert _bits(got) == _bits((_ref_lhs(spec, f), _ref_rhs(spec, f), _ref_sup(spec, f)))
        return got

    # pairs on one window that differ only in x, or only in h; the last
    # pair differs in x = a, where M takes f^Delta(a) in
    specs = [make(2, line), make(5, line), make(2, table),
             make(0, line, alpha=0.0), make(3, line, alpha=0.0)]
    cold = [answers(spec) for spec in specs]
    for spec in reversed(specs):         # interleaved, warm
        answers(spec)
    # each pair differs in the sums its specs can tell apart, so a shared
    # entry would show: M depends on the spec only through x == a
    for u, v in ((0, 1), (0, 2), (3, 4)):
        assert cold[u][0] != cold[v][0] and cold[u][1] != cold[v][1]
    assert cold[3][2] != cold[4][2]
    assert sum(len(key) == 2 for key in f._delta_memo) == len(specs)

    # a spec dropped and then recreated, equal or with another x
    dropped = make(4, table)
    first = answers(dropped)
    del dropped
    gc.collect()
    assert _bits(answers(make(4, table))) == _bits(first)
    answers(make(6, table))

    # an entry under another spec's id is not read for this one
    stale, fresh = make(1, line), make(1, table)
    answers(stale)
    f._delta_memo[(id(fresh), "kernel sums")] = (stale, (1e300, 1e300, 1e300))
    assert montgomery_lhs(fresh, f) == _ref_lhs(fresh, f) != 1e300


FLOATS = st.floats(-8.0, 8.0, allow_nan=False)


@st.composite
def kernel_sums_cases(draw):
    """(spec, f) on one of the four scale kinds, over the whole scale or an
    inner window: x interior, at a with alpha = 0 or at b with beta = 0; h
    and f polynomials or, on a discrete scale, tables, and f perhaps a
    sharpness candidate, a table with one sample moved by _with_sample."""
    kind = draw(st.sampled_from(("grid", "integer", "qlattice", "real")))
    n = draw(st.integers(3, 9))
    if kind == "grid":
        ts = FiniteGrid(tuple(0.25 * k for k in sorted(
            draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True)))))
    elif kind == "integer":
        lo = draw(st.integers(-10, 10))
        ts = IntegerInterval(lo, lo + n - 1)
    elif kind == "qlattice":
        kmin = draw(st.integers(-4, 4))
        ts = QLattice(draw(st.sampled_from((1.25, 1.5, 2.0, 3.0))), kmin, kmin + n - 1)
    else:
        lo = 0.25 * draw(st.integers(-16, 8))
        ts = RealInterval(lo, lo + 0.25 * n)
    if kind == "real":
        a, b = ts.lo, ts.hi
        inner = a + (b - a) * draw(st.integers(1, 63)) / 64
    else:
        pts = ts.all_points()
        i = draw(st.integers(0, n - 3))
        j = draw(st.integers(i + 2, n - 1))
        a, b = pts[i], pts[j]
        inner = pts[draw(st.integers(i + 1, j - 1))]
    where = draw(st.sampled_from(("interior", "a", "b")))
    alpha = 0.0 if where == "a" else draw(st.floats(0.25, 4.0))
    beta = 0.0 if where == "b" else draw(st.floats(0.0 if where == "interior" else 0.25, 4.0))
    x = {"interior": inner, "a": a, "b": b}[where]

    def func():
        if kind == "real" or draw(st.booleans()):
            return Polynomial(tuple(draw(st.lists(FLOATS, min_size=1, max_size=4))))
        return Sampled({t: draw(FLOATS) for t in ts.all_points()})

    spec = KernelSpec(ts=ts, a=a, b=b, x=x, alpha=alpha, beta=beta, h=func())
    f = func()
    if isinstance(f, Sampled) and draw(st.booleans()):
        window = ts.grid_points(a, b) + [b]
        k = draw(st.integers(0, len(window) - 1))
        f = _with_sample(ts, f, a, b, k, window[k], draw(FLOATS))
    return spec, f


@given(kernel_sums_cases())
@settings(max_examples=300, deadline=None)
def test_kernel_sums_equal_the_reference_sums_bit_for_bit(case):
    spec, f = case
    want = (_ref_lhs(spec, f), _ref_mean_side(spec, f), _ref_sup(spec, f))
    for _ in range(2):                  # computed, then read from f's memo
        assert _bits(_kernel_sums(spec, f)) == _bits(want)
    assert _bits(montgomery_lhs(spec, f)) == _bits(want[0])
    assert _bits(montgomery_rhs(spec, f)) == _bits(_ref_rhs(spec, f))


# ---------------------------------------------------------------------------
# a moved sample's step table, derived from its parent's


WINDOWS = {
    "integer": (IntegerInterval(-3, 5), -3.0, 5.0),
    "integer-inner": (IntegerInterval(-3, 5), -1.0, 3.0),
    "grid": (FiniteGrid((-2.0, -1.75, 0.5, 1.25, 4.0, 4.5, 6.0)), -2.0, 6.0),
    "grid-inner": (FiniteGrid((-2.0, -1.75, 0.5, 1.25, 4.0, 4.5, 6.0)), -1.75, 4.5),
    "qlattice": (QLattice(1.25, -3, 6), 1.25 ** -3, 1.25 ** 6),
    "qlattice-inner": (QLattice(1.25, -3, 6), 1.25 ** -1, 1.25 ** 4),
}


def _columns(table):
    """(mu, f^Delta, f, dense) with the lists as tuples, for _bits."""
    return tuple(tuple(col) for col in table)


@pytest.mark.parametrize("case", sorted(WINDOWS))
def test_moved_sample_table_is_bit_equal_to_a_fresh_one(case):
    ts, a, b = WINDOWS[case]
    f = _table(ts, 0.75)
    parent = _columns(_step_table(ts, f, a, b))
    points = [t for t, _ in _ref_steps(ts, a, b)] + [b]
    n = len(points) - 1                 # steps
    for i, t in enumerate(points):
        for delta in (0.375, -1.5):
            value = f.table[t] + delta
            moved = _with_sample(ts, f, a, b, i, t, value)
            rebuilt = Sampled(f.table | {t: value})
            assert moved == rebuilt and list(moved._delta_memo) == [(ts, a, b)]
            derived = _columns(moved._delta_memo[(ts, a, b)])
            assert _bits(derived) == _bits(_columns(_step_table(ts, rebuilt, a, b)))
            # f^Delta moves only on the steps either side of point i: at a
            # the first, at b the last
            changed = [j for j in range(n) if derived[1][j] != parent[1][j]]
            assert changed == [j for j in (i - 1, i) if 0 <= j < n]
    assert _bits(_columns(_step_table(ts, f, a, b))) == _bits(parent)
