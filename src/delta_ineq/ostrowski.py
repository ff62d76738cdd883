"""Weighted Montgomery identity and Ostrowski-type bounds on time scales.

The two-branch weighted Peano kernel for a <= t < b, interior x, and
nonnegative weights (alpha, beta) with alpha + beta > 0 is

    P(x, t) = alpha/(alpha+beta) * (h(t) - h(a)) / (x - a)   for a <= t < x,
            = -beta/(alpha+beta) * (h(b) - h(t)) / (b - x)   for x <= t < b,

where h is the weight accumulator.  The Montgomery identity equates the
delta integral of P * f^Delta with a two-term expression in f(x) and the
sigma-shifted means of f against h^Delta; every bound here controls some
deviation of that integral.

Each bound carries two published variants.  ``PAPER_LITERAL`` evaluates the
right-hand side exactly as printed, including normalizations that make the
bound tighten as the weights are scaled up; ``CORRECTED`` removes the
spurious weight normalization so both sides are invariant (or covariant,
for the product form) under (alpha, beta) -> (c*alpha, c*beta).  Literal
violations are expected on admissible inputs and are reported as findings,
never as engine failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .calculus import (
    Func,
    Polynomial,
    feval,
    func_from_json,
    func_to_json,
    h_monomial,
    poly_add,
    poly_definite,
    poly_derive,
    poly_eval,
    poly_mul,
    poly_scale,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    ContinuousScale,
    EmptyRange,
    FamilyMismatch,
    InvalidBounds,
    NegativeVariance,
    OutOfRange,
)
from .timescale import (
    IntegerInterval,
    QLattice,
    RealInterval,
    TimeScale,
    scale_from_json,
    scale_to_json,
)

THEOREMS = ("T5", "T6a", "T6b", "T7-L2", "T7-Gruss", "T8")

# Dual-route internal checks (expanded vs factored forms) use this.
CONSISTENCY_RTOL = 1e-10

# Negative variances inside this band are round-off and clamp to zero.
VARIANCE_CLAMP = 1e-12

# Interior sign changes of polynomial kernels are refined to this width.
ROOT_REFINE_TOL = 1e-12
ROOT_SCAN_CELLS = 1024


class Variant(str, Enum):
    """Which published right-hand side a bound report used."""

    PAPER_LITERAL = "literal"
    CORRECTED = "corrected"


@dataclass(frozen=True)
class KernelSpec:
    """Frozen description of one kernel instance.

    Requires a < b on the scale, finite alpha, beta >= 0 with positive sum,
    and x strictly interior unless its branch has weight zero (x == a needs
    alpha == 0, x == b needs beta == 0).

    The kernel data every bound reads (the branch polynomials or the steps
    and P values, the moments, the bracket terms) is computed on first use
    and kept by ``cached_property`` in the instance ``__dict__``.  None of it
    is a dataclass field: ==, hash, repr and the JSON form ignore it,
    ``dataclasses.replace`` builds a spec with none, and it lives and dies
    with the spec.
    """

    ts: TimeScale
    a: float
    b: float
    x: float
    alpha: float
    beta: float
    h: Func

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", self.ts.canon(self.a))
        object.__setattr__(self, "b", self.ts.canon(self.b))
        object.__setattr__(self, "x", self.ts.canon(self.x))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ConfigError("weights must be finite")
        if not self.a < self.b:
            raise ConfigError("kernel needs a < b")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ConfigError("weights must be nonnegative")
        if self.alpha + self.beta <= 0.0:
            raise ConfigError("weights must not both vanish")
        interior = self.a < self.x < self.b
        if not (interior or (self.x == self.a and self.alpha == 0.0)
                or (self.x == self.b and self.beta == 0.0)):
            raise ConfigError("x must be interior unless its branch weight is zero")

    @cached_property
    def _branch_polys(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The two kernel branches as polynomials in t (real-interval path)."""
        if not isinstance(self.h, Polynomial):
            raise ContinuousScale("kernel on a real interval needs a polynomial weight")
        c1, c2 = _branch_coeffs(self)
        hc = self.h.coeffs
        left = poly_scale(poly_add(hc, (-poly_eval(hc, self.a),)), c1)
        right = poly_scale(poly_add((poly_eval(hc, self.b),), poly_scale(hc, -1.0)), -c2)
        return left, right

    @cached_property
    def _grid(self) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...],
                             tuple[float, ...]]:
        """(t, sigma(t)) steps covering [a, b), their mu, and P(t) (discrete)."""
        c1, c2 = _branch_coeffs(self)
        steps = tuple(_steps(self.ts, self.a, self.b))
        mus = tuple(nxt - t for t, nxt in steps)
        ps = tuple(_kernel_value_raw(self, c1, c2, t) for t, _ in steps)
        return steps, mus, ps

    @cached_property
    def _moments(self) -> Moments:
        """Delta integrals of P, |P|, P**2 over [a, b)."""
        if isinstance(self.ts, RealInterval):
            left, right = self._branch_polys
            i1 = poly_definite(left, self.a, self.x) + poly_definite(right, self.x, self.b)
            ia = _abs_definite(left, self.a, self.x) + _abs_definite(right, self.x, self.b)
            i2 = (poly_definite(poly_mul(left, left), self.a, self.x)
                  + poly_definite(poly_mul(right, right), self.x, self.b))
            return Moments(i1, ia, i2)
        _, mus, ps = self._grid
        i1 = ia = i2 = 0.0
        for mu, p in zip(mus, ps):
            i1 += mu * p
            ia += mu * abs(p)
            i2 += mu * p * p
        return Moments(i1, ia, i2)

    @cached_property
    def _bracket_terms(self) -> tuple[float, float]:
        """(alpha-side, beta-side) pieces of the weight bracket
        alpha*(h(x)-h(a))/(x-a) and beta*(h(b)-h(x))/(b-x), zero when unweighted."""
        h = self.h
        ba = 0.0
        if self.alpha > 0.0:
            ba = self.alpha * (feval(h, self.x) - feval(h, self.a)) / (self.x - self.a)
        bb = 0.0
        if self.beta > 0.0:
            bb = self.beta * (feval(h, self.b) - feval(h, self.x)) / (self.b - self.x)
        return ba, bb


@dataclass(frozen=True)
class SpecSummary:
    """Compact echo of the kernel parameters for reports."""

    scale_kind: str
    a: float
    b: float
    x: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality: lhs <= rhs expected, slack = rhs - lhs."""

    theorem: str
    variant: Variant
    lhs: float
    rhs: float
    slack: float
    summary: SpecSummary

    def passes(self, tol: float) -> bool:
        """Relative slack test: slack >= -tol * max(1, rhs)."""
        return self.slack >= -tol * max(1.0, self.rhs)


def summarize(spec: KernelSpec) -> SpecSummary:
    return SpecSummary(
        scale_kind=spec.ts.kind,
        a=spec.a, b=spec.b, x=spec.x, alpha=spec.alpha, beta=spec.beta,
    )


def kernel_spec_to_json(spec: KernelSpec) -> dict:
    return {
        "scale": scale_to_json(spec.ts),
        "a": spec.a, "b": spec.b, "x": spec.x,
        "alpha": spec.alpha, "beta": spec.beta,
        "h": func_to_json(spec.h),
    }


def kernel_spec_from_json(obj: dict) -> KernelSpec:
    if not isinstance(obj, dict):
        raise ConfigError("kernel spec JSON must be an object")
    try:
        return KernelSpec(
            ts=scale_from_json(obj["scale"]),
            a=float(obj["a"]), b=float(obj["b"]), x=float(obj["x"]),
            alpha=float(obj["alpha"]), beta=float(obj["beta"]),
            h=func_from_json(obj["h"]),
        )
    except KeyError as exc:
        raise ConfigError(f"kernel spec JSON missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad kernel spec JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# kernel evaluation


def _branch_coeffs(spec: KernelSpec) -> tuple[float, float]:
    """Per-branch multipliers (c1, c2): P = c1*(h(t)-h(a)) left of x,
    P = -c2*(h(b)-h(t)) from x on.  Zero-weight branches get coefficient 0."""
    w = spec.alpha + spec.beta
    c1 = spec.alpha / (w * (spec.x - spec.a)) if spec.alpha > 0.0 else 0.0
    c2 = spec.beta / (w * (spec.b - spec.x)) if spec.beta > 0.0 else 0.0
    return c1, c2


def kernel_P(spec: KernelSpec, t: float) -> float:
    """Kernel value at a scale point t with a <= t < b."""
    t = spec.ts.canon(t)
    if not spec.a <= t < spec.b:
        raise OutOfRange(f"kernel argument t={t!r} outside [{spec.a}, {spec.b})")
    c1, c2 = _branch_coeffs(spec)
    h = spec.h
    if t < spec.x:
        return c1 * (feval(h, t) - feval(h, spec.a))
    return -c2 * (feval(h, spec.b) - feval(h, t))


def _kernel_value_raw(spec: KernelSpec, c1: float, c2: float, t: float) -> float:
    """kernel_P without re-canonicalization, for enumerated grid points."""
    if t < spec.x:
        return c1 * (feval(spec.h, t) - feval(spec.h, spec.a))
    return -c2 * (feval(spec.h, spec.b) - feval(spec.h, t))


def _steps(ts: TimeScale, a: float, b: float) -> list[tuple[float, float]]:
    """(t, sigma(t)) pairs covering [a, b) on a discrete scale."""
    pts = ts.grid_points(a, b)
    return list(zip(pts, pts[1:] + [b]))


def _roots_in(coeffs: tuple[float, ...], lo: float, hi: float) -> list[float]:
    """Sign-change roots of a polynomial inside (lo, hi), by scan + bisection."""
    if lo >= hi or not any(coeffs[1:]):
        # A constant changes no sign; the scan below would report every
        # interior scan point of the zero polynomial as a root.
        return []
    n = ROOT_SCAN_CELLS
    step = (hi - lo) / n
    xs = [lo + i * step for i in range(n + 1)]
    vals = [poly_eval(coeffs, x) for x in xs]
    tol = ROOT_REFINE_TOL * max(1.0, abs(lo), abs(hi))
    roots: list[float] = []
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


def _abs_definite(coeffs: tuple[float, ...], lo: float, hi: float) -> float:
    """Integral of |polynomial| over [lo, hi] via sign-constant pieces."""
    if lo >= hi:
        return 0.0
    cuts = [lo] + _roots_in(coeffs, lo, hi) + [hi]
    total = 0.0
    for u, v in zip(cuts, cuts[1:]):
        total += abs(poly_definite(coeffs, u, v))
    return total


@dataclass(frozen=True)
class Moments:
    """First moment, absolute moment, and second moment of the kernel."""

    int_p: float
    int_abs_p: float
    int_p2: float


def kernel_moments(spec: KernelSpec) -> Moments:
    """Delta integrals of P, |P|, P**2 over [a, b)."""
    return spec._moments


# ---------------------------------------------------------------------------
# Montgomery identity


def montgomery_lhs(spec: KernelSpec, f: Func) -> float:
    """Delta integral of P(x, t) * f^Delta(t) over [a, b)."""
    if isinstance(spec.ts, RealInterval):
        if not isinstance(f, Polynomial):
            raise ContinuousScale("montgomery_lhs on a real interval needs a polynomial f")
        left, right = spec._branch_polys
        fd = poly_derive(f.coeffs)
        return (poly_definite(poly_mul(left, fd), spec.a, spec.x)
                + poly_definite(poly_mul(right, fd), spec.x, spec.b))
    steps, mus, ps = spec._grid
    total = 0.0
    for (t, nxt), mu, p in zip(steps, mus, ps):
        fd = (feval(f, nxt) - feval(f, t)) / mu
        total += mu * p * fd
    return total


def _sigma_mean_integral(spec: KernelSpec, f: Func, lo: float, hi: float) -> float:
    """Delta integral of h^Delta(t) * f(sigma(t)) over [lo, hi)."""
    if lo == hi:
        return 0.0
    if isinstance(spec.ts, RealInterval):
        if not (isinstance(f, Polynomial) and isinstance(spec.h, Polynomial)):
            raise ContinuousScale("sigma-mean on a real interval needs polynomials")
        return poly_definite(poly_mul(poly_derive(spec.h.coeffs), f.coeffs), lo, hi)
    total = 0.0
    for t, nxt in _steps(spec.ts, lo, hi):
        mu = nxt - t
        hd = (feval(spec.h, nxt) - feval(spec.h, t)) / mu
        total += mu * hd * feval(f, nxt)
    return total


def _mean_side(spec: KernelSpec, f: Func) -> float:
    """S(f) = alpha/(x-a) * int_a^x h^Delta f(sigma)
            + beta/(b-x) * int_x^b h^Delta f(sigma)."""
    s = 0.0
    if spec.alpha > 0.0:
        s += spec.alpha / (spec.x - spec.a) * _sigma_mean_integral(spec, f, spec.a, spec.x)
    if spec.beta > 0.0:
        s += spec.beta / (spec.b - spec.x) * _sigma_mean_integral(spec, f, spec.x, spec.b)
    return s


def montgomery_rhs(spec: KernelSpec, f: Func) -> float:
    """Closed side of the identity:
    f(x)/(alpha+beta) * bracket - S(f)/(alpha+beta)."""
    w = spec.alpha + spec.beta
    ba, bb = spec._bracket_terms
    return feval(f, spec.x) * (ba + bb) / w - _mean_side(spec, f) / w


def identity_residual(spec: KernelSpec, f: Func) -> float:
    """montgomery_lhs - montgomery_rhs; vanishes up to round-off."""
    return montgomery_lhs(spec, f) - montgomery_rhs(spec, f)


# ---------------------------------------------------------------------------
# derivative envelopes


def _derivative_candidates(ts: TimeScale, f: Func, a: float, b: float,
                           open_interval: bool) -> list[float]:
    """f^Delta values over [a, b) (discrete) or critical values of f' on
    [a, b] (real interval).  open_interval drops the left endpoint.  The
    list is kept in f's memo under its window; callers must not mutate it."""
    a = ts.canon(a)
    b = ts.canon(b)
    if not a < b:
        raise EmptyRange(f"empty derivative range [{a}, {b})")
    key = (ts, a, b, open_interval)
    out = f._delta_memo.get(key)
    if out is not None:
        return out
    if isinstance(ts, RealInterval):
        if not isinstance(f, Polynomial):
            raise ContinuousScale("derivative envelope on a real interval needs a polynomial")
        fd = poly_derive(f.coeffs)
        where = [a, b] + _roots_in(poly_derive(fd), a, b)
        out = [poly_eval(fd, t) for t in where]
    else:
        out = []
        for t, nxt in _steps(ts, a, b):
            if open_interval and t == a:
                continue
            out.append((feval(f, nxt) - feval(f, t)) / (nxt - t))
    f._delta_memo[key] = out
    return out


def sup_abs_delta_derivative(ts: TimeScale, f: Func, a: float, b: float) -> float:
    """M = sup |f^Delta| over the open interval (a, b).

    Discrete scales: max over grid points of [a, b) excluding a itself
    (0.0 if that set is empty).  Real interval: max of |f'| over [a, b],
    locating interior extrema through the roots of f''.
    """
    vals = _derivative_candidates(ts, f, a, b, open_interval=True)
    return max((abs(v) for v in vals), default=0.0)


def delta_derivative_range(ts: TimeScale, f: Func, a: float, b: float) -> tuple[float, float]:
    """Exact (min, max) of f^Delta over [a, b) (closure on a real interval)."""
    vals = _derivative_candidates(ts, f, a, b, open_interval=False)
    return min(vals), max(vals)


def _check_bracket(ts: TimeScale, f: Func, a: float, b: float,
                   gamma: float | None, big_gamma: float | None) -> tuple[float, float]:
    lo, hi = delta_derivative_range(ts, f, a, b)
    if gamma is None:
        gamma = lo
    if big_gamma is None:
        big_gamma = hi
    if big_gamma < gamma:
        raise InvalidBounds(f"need gamma <= Gamma, got ({gamma}, {big_gamma})")
    if gamma > lo or big_gamma < hi:
        raise InvalidBounds(
            f"f^Delta ranges over [{lo}, {hi}], outside [{gamma}, {big_gamma}]")
    return gamma, big_gamma


def _clamped_variance(v: float) -> float:
    if v < 0.0:
        if v >= -VARIANCE_CLAMP:
            return 0.0
        raise NegativeVariance(f"variance {v} is negative beyond round-off")
    return v


# ---------------------------------------------------------------------------
# bounds


def bound_t5(spec: KernelSpec, f: Func, variant: Variant = Variant.CORRECTED) -> BoundReport:
    """First-derivative bound: |montgomery_rhs| <= M * int |P|.

    The literal variant divides the right side by (alpha + beta), as
    printed; that normalization is not scale invariant and can be violated.
    """
    lhs = abs(montgomery_rhs(spec, f))
    m = sup_abs_delta_derivative(spec.ts, f, spec.a, spec.b)
    rhs = m * kernel_moments(spec).int_abs_p
    if variant is Variant.PAPER_LITERAL:
        rhs /= spec.alpha + spec.beta
    return BoundReport("T5", variant, lhs, rhs, rhs - lhs, summarize(spec))


def bound_t6a(spec: KernelSpec, f: Func, g: Func,
              variant: Variant = Variant.CORRECTED) -> BoundReport:
    """Symmetrized product bound, first form.

    lhs = | f(x)g(x)*B/w - (g(x)S(f) + f(x)S(g)) / (2w) |  with w = alpha+beta
        = (1/2) | g(x) int P f^Delta + f(x) int P g^Delta |.
    rhs (corrected) = (M1|g(x)| + M2|f(x)|)/2 * int |P|; the literal form
    divides once more by w.
    """
    w = spec.alpha + spec.beta
    ba, bb = spec._bracket_terms
    fx = feval(f, spec.x)
    gx = feval(g, spec.x)
    lhs = abs(fx * gx * (ba + bb) / w
              - (gx * _mean_side(spec, f) + fx * _mean_side(spec, g)) / (2.0 * w))
    m1 = sup_abs_delta_derivative(spec.ts, f, spec.a, spec.b)
    m2 = sup_abs_delta_derivative(spec.ts, g, spec.a, spec.b)
    rhs = (m1 * abs(gx) + m2 * abs(fx)) / 2.0 * kernel_moments(spec).int_abs_p
    if variant is Variant.PAPER_LITERAL:
        rhs /= w
    return BoundReport("T6a", variant, lhs, rhs, rhs - lhs, summarize(spec))


def bound_t6b(spec: KernelSpec, f: Func, g: Func,
              variant: Variant = Variant.CORRECTED) -> BoundReport:
    """Product bound, second form.  The printed left side

        f(x)g(x)B**2 - B(f(x)S(g) + g(x)S(f)) + S(f)S(g)

    factors exactly as w**2 * (int P f^Delta)(int P g^Delta).  Both routes
    are computed and must agree; the factored one is reported, because the
    expanded sum cancels catastrophically near sharp or degenerate kernels
    (e.g. a kernel that vanishes identically leaves ~1e-9 of float noise in
    the four-term route while the factored product is exactly zero).
    rhs (corrected) = w**2 M1 M2 (int |P|)**2; the literal printing omits
    the M1 M2 factor.
    """
    w = spec.alpha + spec.beta
    ba, bb = spec._bracket_terms
    bsum = ba + bb
    fx = feval(f, spec.x)
    gx = feval(g, spec.x)
    sf = _mean_side(spec, f)
    sg = _mean_side(spec, g)
    t1 = fx * gx * bsum * bsum
    t2 = bsum * (fx * sg + gx * sf)
    t3 = sf * sg
    expanded = t1 - t2 + t3
    factored = w * w * montgomery_lhs(spec, f) * montgomery_lhs(spec, g)
    scale = max(1.0, abs(t1), abs(t2), abs(t3))
    if abs(expanded - factored) > CONSISTENCY_RTOL * scale:
        raise ConsistencyError(
            f"expanded product form {expanded} disagrees with factored {factored}")
    lhs = abs(factored)
    iabs = kernel_moments(spec).int_abs_p
    rhs = w * w * iabs * iabs
    if variant is Variant.CORRECTED:
        m1 = sup_abs_delta_derivative(spec.ts, f, spec.a, spec.b)
        m2 = sup_abs_delta_derivative(spec.ts, g, spec.a, spec.b)
        rhs *= m1 * m2
    return BoundReport("T6b", variant, lhs, rhs, rhs - lhs, summarize(spec))


def _int_fd_squared(ts: TimeScale, f: Func, a: float, b: float) -> float:
    if isinstance(ts, RealInterval):
        if not isinstance(f, Polynomial):
            raise ContinuousScale("needs a polynomial f on a real interval")
        fd = poly_derive(f.coeffs)
        return poly_definite(poly_mul(fd, fd), a, b)
    total = 0.0
    for t, nxt in _steps(ts, a, b):
        mu = nxt - t
        fd = (feval(f, nxt) - feval(f, t)) / mu
        total += mu * fd * fd
    return total


def bound_t7(spec: KernelSpec, f: Func, mode: str = "l2",
             gamma: float | None = None, big_gamma: float | None = None) -> BoundReport:
    """Drift-corrected (Gruss/Cebysev style) bound.

    lhs = | int P f^Delta - (f(b)-f(a))/(b-a) * int P |.
    mode "l2":    rhs = (b-a) * sqrt(var P) * sqrt(var f^Delta);
    mode "gruss": rhs = (b-a) * sqrt(var P) * (Gamma - gamma)/2, where
    [gamma, Gamma] must bracket f^Delta (defaults: its exact range).
    Both printed forms are weight-scale invariant, so the two variants
    coincide; reports are tagged CORRECTED.
    """
    if mode not in ("l2", "gruss"):
        raise ConfigError(f"unknown T7 mode {mode!r}")
    mom = kernel_moments(spec)
    width = spec.b - spec.a
    drift = (feval(f, spec.b) - feval(f, spec.a)) / width
    lhs = abs(montgomery_lhs(spec, f) - drift * mom.int_p)
    var_p = _clamped_variance(mom.int_p2 / width - (mom.int_p / width) ** 2)
    if mode == "l2":
        var_f = _clamped_variance(
            _int_fd_squared(spec.ts, f, spec.a, spec.b) / width - drift * drift)
        rhs = width * math.sqrt(var_p) * math.sqrt(var_f)
        name = "T7-L2"
    else:
        gamma, big_gamma = _check_bracket(spec.ts, f, spec.a, spec.b, gamma, big_gamma)
        rhs = width * math.sqrt(var_p) * (big_gamma - gamma) / 2.0
        name = "T7-Gruss"
    return BoundReport(name, Variant.CORRECTED, lhs, rhs, rhs - lhs, summarize(spec))


def bound_t8(spec: KernelSpec, f: Func, gamma: float | None = None,
             big_gamma: float | None = None) -> BoundReport:
    """Midpoint-of-range bound.

    lhs = | int P f^Delta - (gamma+Gamma)/2 * int P |,
    rhs = (Gamma - gamma)/2 * int |P|.  Weight-scale invariant as printed;
    reports are tagged CORRECTED.
    """
    gamma, big_gamma = _check_bracket(spec.ts, f, spec.a, spec.b, gamma, big_gamma)
    mom = kernel_moments(spec)
    mid = 0.5 * (gamma + big_gamma)
    lhs = abs(montgomery_lhs(spec, f) - mid * mom.int_p)
    rhs = 0.5 * (big_gamma - gamma) * mom.int_abs_p
    return BoundReport("T8", Variant.CORRECTED, lhs, rhs, rhs - lhs, summarize(spec))


# ---------------------------------------------------------------------------
# proof-step identities


def _mu_and_kernel(spec: KernelSpec) -> tuple[tuple[tuple[float, float], ...],
                                              tuple[float, ...], tuple[float, ...]]:
    if isinstance(spec.ts, RealInterval):
        raise ContinuousScale("Korkine cross-check runs on discrete scales only")
    return spec._grid


def _korkine_defect(mus: list[float], us: list[float], vs: list[float], width: float) -> float:
    """mean(uv) - mean(u)mean(v) minus the symmetrized double-sum route."""
    m_uv = sum(m * u * v for m, u, v in zip(mus, us, vs)) / width
    m_u = sum(m * u for m, u in zip(mus, us)) / width
    m_v = sum(m * v for m, v in zip(mus, vs)) / width
    double = 0.0
    for mi, ui, vi in zip(mus, us, vs):
        for mj, uj, vj in zip(mus, us, vs):
            double += mi * mj * (ui - uj) * (vi - vj)
    double /= 2.0 * width * width
    return m_uv - m_u * m_v - double


def korkine_residual(spec: KernelSpec, f: Func) -> float:
    """Korkine rearrangement defect for the pair (P, f^Delta); ~0 always.

    single-route: mean(P f^Delta) - mean(P) mean(f^Delta), means weighted
    by mu/(b-a); double-route: the symmetrized double sum
    (1/2W^2) sum_ij mu_i mu_j (P_i - P_j)(F_i - F_j).
    """
    steps, mus, ps = _mu_and_kernel(spec)
    fds = [(feval(f, nxt) - feval(f, t)) / (nxt - t) for t, nxt in steps]
    return _korkine_defect(mus, ps, fds, spec.b - spec.a)


def kernel_variance_residual(spec: KernelSpec) -> float:
    """Same two-route check for the pair (P, P): variance of the kernel."""
    _, mus, ps = _mu_and_kernel(spec)
    return _korkine_defect(mus, ps, ps, spec.b - spec.a)


def gruss_variance_check(ts: TimeScale, f: Func, a: float, b: float,
                         gamma: float | None = None,
                         big_gamma: float | None = None) -> tuple[float, float]:
    """Variance envelope behind the Gruss step.

    Returns (variance, bound) where variance = mean((f^Delta)^2) - mean^2
    and bound = ((Gamma - gamma)/2)**2; the first never exceeds the second.
    """
    a = ts.canon(a)
    b = ts.canon(b)
    if not a < b:
        raise EmptyRange(f"empty range [{a}, {b})")
    gamma, big_gamma = _check_bracket(ts, f, a, b, gamma, big_gamma)
    width = b - a
    drift = (feval(f, b) - feval(f, a)) / width
    variance = _clamped_variance(_int_fd_squared(ts, f, a, b) / width - drift * drift)
    bound = (0.5 * (big_gamma - gamma)) ** 2
    if variance > bound + CONSISTENCY_RTOL * max(1.0, bound):
        raise ConsistencyError(f"variance {variance} exceeds range bound {bound}")
    return variance, bound


# ---------------------------------------------------------------------------
# family closed forms and the unweighted reduction


def closed_form_rhs(spec: KernelSpec, f: Func, family: str) -> float:
    """montgomery_rhs recomputed through the family's own calculus.

    family "Z": forward differences on an integer interval; "Q": Jackson
    q-integrals on a q-lattice; "R": ordinary integrals of h' f for
    polynomials on a real interval.  Independent of the generic delta
    engine, for cross-checking.
    """
    if family == "Z":
        return _closed_form_z(spec, f)
    if family == "Q":
        return _closed_form_q(spec, f)
    if family == "R":
        return _closed_form_r(spec, f)
    raise ConfigError(f"unknown family {family!r} (expected 'Z', 'Q', or 'R')")


def _closed_form_z(spec: KernelSpec, f: Func) -> float:
    if not isinstance(spec.ts, IntegerInterval):
        raise FamilyMismatch("family 'Z' needs an integer interval scale")
    a, b, x = int(spec.a), int(spec.b), int(spec.x)
    w = spec.alpha + spec.beta

    def h(t: int) -> float:
        return feval(spec.h, float(t))

    def fv(t: int) -> float:
        return feval(f, float(t))

    bracket = 0.0
    mean = 0.0
    if spec.alpha > 0.0:
        bracket += spec.alpha * (h(x) - h(a)) / (x - a)
        mean += spec.alpha / (x - a) * sum(fv(t + 1) * (h(t + 1) - h(t)) for t in range(a, x))
    if spec.beta > 0.0:
        bracket += spec.beta * (h(b) - h(x)) / (b - x)
        mean += spec.beta / (b - x) * sum(fv(t + 1) * (h(t + 1) - h(t)) for t in range(x, b))
    return fv(x) * bracket / w - mean / w


def _closed_form_q(spec: KernelSpec, f: Func) -> float:
    ts = spec.ts
    if not isinstance(ts, QLattice):
        raise FamilyMismatch("family 'Q' needs a q-lattice scale")
    q = ts.q

    def jackson_mean(lo: float, hi: float) -> float:
        """(q-1) sum over exponents of D_q h(q^l) f(q^(l+1)) q^l."""
        klo, khi = ts.exponent_of(lo), ts.exponent_of(hi)
        total = 0.0
        for k in range(klo, khi):
            t = q ** k
            t_next = q ** (k + 1)
            dqh = (feval(spec.h, t_next) - feval(spec.h, t)) / ((q - 1.0) * t)
            total += dqh * feval(f, t_next) * t
        return (q - 1.0) * total

    w = spec.alpha + spec.beta
    bracket = 0.0
    mean = 0.0
    if spec.alpha > 0.0:
        bracket += spec.alpha * (feval(spec.h, spec.x) - feval(spec.h, spec.a)) / (spec.x - spec.a)
        mean += spec.alpha / (spec.x - spec.a) * jackson_mean(spec.a, spec.x)
    if spec.beta > 0.0:
        bracket += spec.beta * (feval(spec.h, spec.b) - feval(spec.h, spec.x)) / (spec.b - spec.x)
        mean += spec.beta / (spec.b - spec.x) * jackson_mean(spec.x, spec.b)
    return feval(f, spec.x) * bracket / w - mean / w


def _closed_form_r(spec: KernelSpec, f: Func) -> float:
    if not isinstance(spec.ts, RealInterval):
        raise FamilyMismatch("family 'R' needs a real interval scale")
    if not (isinstance(f, Polynomial) and isinstance(spec.h, Polynomial)):
        raise FamilyMismatch("family 'R' needs polynomial f and h")
    w = spec.alpha + spec.beta
    hd_f = poly_mul(poly_derive(spec.h.coeffs), f.coeffs)
    bracket = 0.0
    mean = 0.0
    if spec.alpha > 0.0:
        bracket += spec.alpha * (poly_eval(spec.h.coeffs, spec.x)
                                 - poly_eval(spec.h.coeffs, spec.a)) / (spec.x - spec.a)
        mean += spec.alpha / (spec.x - spec.a) * poly_definite(hd_f, spec.a, spec.x)
    if spec.beta > 0.0:
        bracket += spec.beta * (poly_eval(spec.h.coeffs, spec.b)
                                - poly_eval(spec.h.coeffs, spec.x)) / (spec.b - spec.x)
        mean += spec.beta / (spec.b - spec.x) * poly_definite(hd_f, spec.x, spec.b)
    return poly_eval(f.coeffs, spec.x) * bracket / w - mean / w


def reduction_weighted_ostrowski(ts: TimeScale, f: Func, h: Func,
                                 a: float, b: float, x: float) -> BoundReport:
    """Unweighted specialization alpha = x - a, beta = b - x.

    lhs = | (h(b)-h(a))/(b-a) f(x) - (1/(b-a)) int_a^b h^Delta f(sigma) |,
    rhs = M/(b-a) * [ int_a^x |h(t)-h(a)| + int_x^b |h(b)-h(t)| ].
    Cross-checked against M * int |P| for the induced kernel; for h(t) = t
    the bracket is also checked against h_2(x, a) + h_2(x, b).
    """
    a = ts.canon(a)
    b = ts.canon(b)
    x = ts.canon(x)
    if not a < x < b:
        raise ConfigError("the reduction needs a < x < b")
    spec = KernelSpec(ts=ts, a=a, b=b, x=x, alpha=x - a, beta=b - x, h=h)
    width = b - a
    lhs = abs(feval(f, x) * (feval(h, b) - feval(h, a)) / width
              - _sigma_mean_integral(spec, f, a, b) / width)
    if isinstance(ts, RealInterval):
        if not isinstance(h, Polynomial):
            raise ContinuousScale("the reduction on a real interval needs a polynomial h")
        left = poly_add(h.coeffs, (-poly_eval(h.coeffs, a),))
        right = poly_add((poly_eval(h.coeffs, b),), poly_scale(h.coeffs, -1.0))
        bracket = _abs_definite(left, a, x) + _abs_definite(right, x, b)
    else:
        bracket = 0.0
        for t, nxt in _steps(ts, a, x):
            bracket += (nxt - t) * abs(feval(h, t) - feval(h, a))
        for t, nxt in _steps(ts, x, b):
            bracket += (nxt - t) * abs(feval(h, b) - feval(h, t))
    m = sup_abs_delta_derivative(ts, f, a, b)
    rhs = m / width * bracket
    other = m * kernel_moments(spec).int_abs_p
    if abs(rhs - other) > CONSISTENCY_RTOL * max(1.0, abs(rhs)):
        raise ConsistencyError(f"reduction rhs {rhs} disagrees with kernel route {other}")
    if isinstance(h, Polynomial) and h.coeffs == (0.0, 1.0):
        via_h2 = h_monomial(ts, 2, x, a) + h_monomial(ts, 2, x, b)
        if abs(bracket - via_h2) > CONSISTENCY_RTOL * max(1.0, abs(bracket)):
            raise ConsistencyError(
                f"identity-weight bracket {bracket} disagrees with monomials {via_h2}")
    return BoundReport("T5", Variant.CORRECTED, lhs, rhs, rhs - lhs, summarize(spec))
