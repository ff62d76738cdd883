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
import sys
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice

from .calculus import (
    Func,
    Polynomial,
    _step_table,
    feval,
    func_from_json,
    func_to_json,
    poly_add,
    poly_definite,
    poly_derive,
    poly_eval,
    poly_mul,
    poly_scale,
)
from .errors import (
    ConfigError,
    ContinuousScale,
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
    _json_number,
    scale_from_json,
    scale_to_json,
)

# Negative variances inside this band are round-off and clamp to zero.
VARIANCE_CLAMP = 1e-12

# Interior sign changes of polynomial kernels are refined to this width.
ROOT_REFINE_TOL = 1e-12
ROOT_SCAN_CELLS = 1024
# The root scan skips a block of scan points only when the sign its ends
# share holds by this many times the Horner error bound (see _roots_in).
ROOT_CERT_FACTOR = 8.0
_UNIT_ROUNDOFF = sys.float_info.epsilon / 2
_FLOAT_MIN = sys.float_info.min
_HORNER_LIMIT = sys.float_info.max / 4


class Variant(str, Enum):
    """Which published right-hand side a bound report used."""

    PAPER_LITERAL = "literal"
    CORRECTED = "corrected"


@dataclass(frozen=True)
class KernelSpec:
    """Frozen description of one kernel instance.

    Requires a, b, x, alpha and beta to be finite ints or floats (not
    bools), a < b on the scale, alpha, beta >= 0 with positive sum, and x
    strictly interior unless its branch has weight zero (x == a needs
    alpha == 0, x == b needs beta == 0).

    The kernel data every bound reads (the steps of mu, P and h^Delta and
    the dense pieces of P, the moments, the weight bracket), and the sigma
    walk that the identity checks compare it with, is computed on first
    use and kept by ``cached_property`` in the instance
    ``__dict__``.  None of it is a dataclass field: ==, hash, repr and the
    JSON form ignore it, ``dataclasses.replace`` builds a spec with none,
    and it lives and dies with the spec.
    """

    ts: TimeScale
    a: float
    b: float
    x: float
    alpha: float
    beta: float
    h: Func

    def __post_init__(self) -> None:
        canon = self.ts.canon
        object.__setattr__(self, "a", canon(_json_number(self.a, "KernelSpec a")))
        object.__setattr__(self, "b", canon(_json_number(self.b, "KernelSpec b")))
        object.__setattr__(self, "x", canon(_json_number(self.x, "KernelSpec x")))
        object.__setattr__(self, "alpha", float(_json_number(self.alpha, "KernelSpec alpha")))
        object.__setattr__(self, "beta", float(_json_number(self.beta, "KernelSpec beta")))
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
        try:
            finite = all(math.isfinite(c) for c in _branch_coeffs(self))
        except ZeroDivisionError:       # (alpha + beta)(x - a) or (b - x) underflows to 0
            finite = False
        if not finite:
            raise ConfigError("kernel branch coefficients alpha/((alpha+beta)(x-a)) and "
                              "beta/((alpha+beta)(b-x)) must be finite")

    @cached_property
    def _grid(self) -> tuple[tuple[float, ...], list[float], list[float], int, tuple]:
        """The window [a, b): per right-scattered step, mu, P(t) and
        h^Delta(t); k, the number of steps with t < x, so [0, k) covers
        [a, x) and [k, n) [x, b); and the dense pieces split at x, as
        (lo, hi, P as a polynomial in t).  Read from the scale's window for
        [a, b) and h's step table on it, k by bisecting the window's steps."""
        c1, c2 = _branch_coeffs(self)
        steps, mus, dense = self.ts.window(self.a, self.b)
        hds, hv = _step_table(self.ts, self.h, self.a, self.b)
        k = bisect_left(steps, self.x)
        ps = [c1 * (hv[i] - hv[0]) if i < k else -c2 * (hv[-1] - hv[i])
              for i in range(len(mus))]
        pieces = []
        for lo, hi in dense:
            hc = self.h.coeffs          # a dense piece needs a polynomial h
            if lo < self.x:
                left = poly_scale(poly_add(hc, (-hv[0],)), c1)
                pieces.append((lo, min(hi, self.x), left))
            if self.x < hi:
                right = poly_scale(poly_add((hv[-1],), poly_scale(hc, -1.0)), -c2)
                pieces.append((max(lo, self.x), hi, right))
        return mus, ps, hds, k, tuple(pieces)

    @cached_property
    def _sigma_walk(self) -> tuple[list[float], list[float], list[float]]:
        """The window [a, b) walked from a by ts.sigma, apart from any step
        table: the points reached, a first and b last; mu = sigma(t) - t and
        P(t) per step, P by the branch of t against x with h read through
        feval.  The second route of the identity checks to the kernel data
        of _grid; a right-dense point raises ContinuousScale."""
        ts, h, x, b = self.ts, self.h, self.x, self.b
        c1, c2 = _branch_coeffs(self)
        ha, hb = feval(h, self.a), feval(h, b)
        pts, mus, ps = [self.a], [], []
        t = self.a
        while t < b:
            s = ts.sigma(t)
            if s == t:
                raise ContinuousScale(f"t={t!r} is right-dense: the sigma walk needs steps")
            mus.append(s - t)
            ps.append(c1 * (feval(h, t) - ha) if t < x else -c2 * (hb - feval(h, t)))
            pts.append(s)
            t = s
        return pts, mus, ps

    @cached_property
    def _moments(self) -> Moments:
        """Delta integrals of P, |P|, P**2 over [a, b)."""
        mus, ps, _, _, dense = self._grid
        i1 = ia = i2 = 0.0
        for mu, p in zip(mus, ps):
            i1 += mu * p
            ia += mu * abs(p)
            i2 += mu * p * p
        for lo, hi, p in dense:
            i1 += poly_definite(p, lo, hi)
            ia += _abs_definite(p, lo, hi)
            i2 += poly_definite(poly_mul(p, p), lo, hi)
        return Moments(i1, ia, i2)

    @cached_property
    def _bracket(self) -> float:
        """The weight bracket B = alpha*(h(x)-h(a))/(x-a) + beta*(h(b)-h(x))/(b-x),
        each term zero when its weight is."""
        h = self.h
        ba = 0.0
        if self.alpha > 0.0:
            ba = self.alpha * (feval(h, self.x) - feval(h, self.a)) / (self.x - self.a)
        bb = 0.0
        if self.beta > 0.0:
            bb = self.beta * (feval(h, self.b) - feval(h, self.x)) / (self.b - self.x)
        return ba + bb


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality: lhs <= rhs expected, slack = rhs - lhs."""

    theorem: str
    variant: Variant
    lhs: float
    rhs: float
    slack: float

    def passes(self, tol: float) -> bool:
        """Relative slack test: slack >= -tol * max(1, rhs)."""
        return self.slack >= -tol * max(1.0, self.rhs)


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
        ts, h = scale_from_json(obj["scale"]), func_from_json(obj["h"])
        numbers = {name: obj[name] for name in ("a", "b", "x", "alpha", "beta")}
    except KeyError as exc:
        raise ConfigError(f"kernel spec JSON missing field {exc}") from exc
    return KernelSpec(ts=ts, h=h, **numbers)


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


def _roots_in(coeffs: tuple[float, ...], lo: float, hi: float) -> list[float]:
    """Sign-change roots of a polynomial p = sum c_k t**k inside (lo, hi),
    by scan + bisection.

    The scan's grid is x_i = lo + i*step for i = 0..ROOT_SCAN_CELLS, with
    v_i = poly_eval(p, x_i).  Cell i is flagged when v_i is an exact zero
    (a root at x_i) or v_i * v_{i+1} < 0.0 (a root bisected to
    ROOT_REFINE_TOL).  Only the points the flagged cells need are evaluated.
    A block [i, j] of the grid is certified to hold no flagged cell when
    v_i and v_j share a strict sign and

        |v_i + v_j| - L*(x_j - x_i) > 2*ROOT_CERT_FACTOR*E,

    where r = max(|x_0|, |x_n|) bounds |x| on the grid, L = sum k|c_k|r**(k-1)
    bounds |p'| there, d = len(coeffs) - 1, and E = gamma_2d * sum |c_k|r**k
    bounds the error of every Horner value on the grid (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, eq. 5.3).  On [x_i, x_j], p
    then keeps v_i's sign with |p| >= (|v_i + v_j| - L*(x_j - x_i))/2 - E,
    so every v_k keeps it too once that exceeds E.  That needs a factor of
    2; ROOT_CERT_FACTOR = 8 leaves the rest for the rounding of the
    certificate itself.  Each |c_k| carries the smallest normal float, which
    covers gradual underflow, and a polynomial whose Horner sums could
    overflow certifies nothing.  Every other block is split at its
    midpoint, down to single cells, so the roots and every value they are
    refined from are those of evaluating every grid point, bit for bit.
    """
    if lo >= hi or not any(coeffs[1:]):
        # A constant changes no sign; the scan below would report every
        # interior scan point of the zero polynomial as a root.
        return []
    n = ROOT_SCAN_CELLS
    step = (hi - lo) / n
    xi, xj = lo + 0 * step, lo + n * step      # x_0 as the grid gives it: 0.0 for lo = -0.0
    r = max(abs(xi), abs(xj))
    # Horner on |c_k| at r: s = sum |c_k| r**k and lip = sum k |c_k| r**(k-1).
    # Every partial Horner sum of p on the grid is at most s + size.
    s = lip = size = 0.0
    for c in reversed(coeffs):
        a = abs(c) + _FLOAT_MIN
        lip = lip * r + s
        s = s * r + a
        size += a
    d2 = 2 * (len(coeffs) - 1)
    gamma = d2 * _UNIT_ROUNDOFF / (1.0 - d2 * _UNIT_ROUNDOFF)
    slack = 2.0 * ROOT_CERT_FACTOR * gamma * s if s + size < _HORNER_LIMIT else math.inf
    tol = ROOT_REFINE_TOL * max(1.0, abs(lo), abs(hi))
    roots: list[float] = []
    i, j = 0, n
    vi, vj = poly_eval(coeffs, xi), poly_eval(coeffs, xj)
    pending: list[tuple[int, float, float]] = []
    while True:
        if j - i > 1:
            if not (vi * vj > 0.0 and abs(vi + vj) - lip * (xj - xi) > slack):   # uncertified
                pending.append((j, xj, vj))
                j = (i + j) // 2
                xj = lo + j * step
                vj = poly_eval(coeffs, xj)
                continue
        elif vi == 0.0:                 # a single cell, tested as the full scan tests it
            if lo < xi < hi:
                roots.append(xi)
        elif vi * vj < 0.0:
            left, right = xi, xj
            fl = vi
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
        if not pending:
            return roots
        i, xi, vi = j, xj, vj
        j, xj, vj = pending.pop()


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


def _kernel_sums(spec: KernelSpec, f: Func) -> tuple[float, float, float]:
    """(int P f^Delta, S(f), M) of f, in one pass over the spec's steps, then
    its dense pieces.  S(f) = alpha/(x-a) * int_a^x h^Delta f(sigma) +
    beta/(b-x) * int_x^b h^Delta f(sigma), a term only when its weight is
    positive.  M, of T5, T6a and T6b, is sup |f^Delta| over (a, b), and over
    [a, b) when x == a, where P(a) = -beta/w (h(b) - h(a))/(b - a) need not
    vanish, so f^Delta(a) enters the integral of P f^Delta.

    Kept in f's ``_delta_memo``, so a spec shared by many functions (the
    fixed kernel of a sharpness search) keeps none of them alive.  The entry
    is keyed by id(spec) and holds the spec, which it tests with ``is``: it
    answers for that spec object only, and while it holds the spec no other
    object can take its id."""
    key = (id(spec), "kernel sums")
    entry = f._delta_memo.get(key)
    if entry is not None and entry[0] is spec:
        return entry[1]
    mus, ps, hds, k, dense = spec._grid
    fds, fv = _step_table(spec.ts, f, spec.a, spec.b)
    lhs = left = right = 0.0
    steps = zip(mus, ps, hds, fds, fv[1:])
    for mu, p, hd, fd, fs in islice(steps, k):      # [a, x)
        lhs += mu * p * fd
        left += mu * hd * fs
    for mu, p, hd, fd, fs in steps:                 # [x, b)
        lhs += mu * p * fd
        right += mu * hd * fs
    if dense:
        fd_coeffs = poly_derive(f.coeffs)
        hd_f = poly_mul(poly_derive(spec.h.coeffs), f.coeffs)
        for lo, hi, p in dense:      # split at x, so each lies on one side of it
            lhs += poly_definite(poly_mul(p, fd_coeffs), lo, hi)
            if hi <= spec.x:
                left += poly_definite(hd_f, lo, hi)
            else:
                right += poly_definite(hd_f, lo, hi)
        fds = _derivative_candidates(spec.ts, f, spec.a, spec.b, spec.x != spec.a)
    elif spec.x != spec.a:
        fds = fds[1:]
    s = 0.0
    if spec.alpha > 0.0:
        s += spec.alpha / (spec.x - spec.a) * left
    if spec.beta > 0.0:
        s += spec.beta / (spec.b - spec.x) * right
    sums = (lhs, s, max(map(abs, fds), default=0.0))
    f._delta_memo[key] = (spec, sums)
    return sums


def montgomery_lhs(spec: KernelSpec, f: Func) -> float:
    """Delta integral of P(x, t) * f^Delta(t) over [a, b)."""
    return _kernel_sums(spec, f)[0]


def _rhs(fx: float, bracket: float, w: float, s: float) -> float:
    """The closed side over values read: f(x)/w * B - S(f)/w, w = alpha+beta."""
    return fx * bracket / w - s / w


def montgomery_rhs(spec: KernelSpec, f: Func) -> float:
    """Closed side of the identity:
    f(x)/(alpha+beta) * bracket - S(f)/(alpha+beta)."""
    return _rhs(feval(f, spec.x), spec._bracket, spec.alpha + spec.beta, _kernel_sums(spec, f)[1])


def identity_residual(spec: KernelSpec, f: Func) -> float:
    """montgomery_lhs - montgomery_rhs; vanishes up to round-off."""
    return montgomery_lhs(spec, f) - montgomery_rhs(spec, f)


# ---------------------------------------------------------------------------
# derivative envelopes


def _derivative_candidates(ts: TimeScale, f: Func, a: float, b: float,
                           open_interval: bool) -> list[float]:
    """f^Delta at each step of [a, b), then the critical values of f' on
    each dense piece [lo, hi]: at lo, hi and the roots of f''.
    open_interval drops the step at a.  The f' values are kept in f's memo,
    one list per window; callers must not mutate what they get."""
    a = ts.canon(a)
    b = ts.canon(b)
    dense = ts.window(a, b).dense
    fds = _step_table(ts, f, a, b)[0]
    steps = fds[1:] if open_interval else fds
    if not dense:
        return steps
    crit = f._delta_memo.get((ts, a, b, "f'"))
    if crit is None:
        fd = poly_derive(f.coeffs)
        crit = f._delta_memo[(ts, a, b, "f'")] = [
            poly_eval(fd, t) for lo, hi in dense
            for t in [lo, hi] + _roots_in(poly_derive(fd), lo, hi)]
    return steps + crit


def sup_abs_delta_derivative(ts: TimeScale, f: Func, a: float, b: float) -> float:
    """M = sup |f^Delta| over the open interval (a, b).

    Discrete scales: max over grid points of [a, b) excluding a itself
    (0.0 if that set is empty).  Real interval: max of |f'| over [a, b],
    locating interior extrema through the roots of f''.
    """
    vals = _derivative_candidates(ts, f, a, b, open_interval=True)
    return max(map(abs, vals), default=0.0)


def delta_derivative_range(ts: TimeScale, f: Func, a: float, b: float) -> tuple[float, float]:
    """Exact (min, max) of f^Delta over [a, b) (closure on a real interval)."""
    vals = _derivative_candidates(ts, f, a, b, open_interval=False)
    return min(vals), max(vals)


def _check_bracket(ts: TimeScale, f: Func, a: float, b: float,
                   gamma: float | None, big_gamma: float | None) -> tuple[float, float]:
    """(gamma, Gamma), an end given as None taken from the range of f^Delta."""
    for end in (gamma, big_gamma):
        if end is not None:
            try:
                _json_number(end, "gamma")
            except ConfigError:
                raise InvalidBounds(f"gamma and Gamma must be finite numbers, "
                                    f"got {end!r}") from None
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
#
# Each theorem's formula is written once, over values already read: the
# kernel sums (int P f^Delta, S(f), M) of f and of g, f(x) and g(x), the
# bracket B, the kernel moments, w = alpha + beta, and for T7-Gruss and T8 a
# checked (gamma, Gamma).  A public bound_* reads its inputs and calls its
# formula; evaluate_bounds reads them once for every theorem.


def _t5(variant: Variant, w: float, bracket: float, iabs: float,
        fx: float, sf: float, m1: float) -> BoundReport:
    lhs = abs(_rhs(fx, bracket, w, sf))
    rhs = m1 * iabs
    if variant is Variant.PAPER_LITERAL:
        rhs /= w
    return BoundReport("T5", variant, lhs, rhs, rhs - lhs)


def _t6a(variant: Variant, w: float, bracket: float, iabs: float,
         fx: float, sf: float, m1: float, gx: float, sg: float, m2: float) -> BoundReport:
    lhs = abs(fx * gx * bracket / w - (gx * sf + fx * sg) / (2.0 * w))
    rhs = (m1 * abs(gx) + m2 * abs(fx)) / 2.0 * iabs
    if variant is Variant.PAPER_LITERAL:
        rhs /= w
    return BoundReport("T6a", variant, lhs, rhs, rhs - lhs)


def _t6b(variant: Variant, w: float, iabs: float,
         lf: float, m1: float, lg: float, m2: float) -> BoundReport:
    lhs = abs(w * w * lf * lg)
    rhs = w * w * iabs * iabs
    if variant is Variant.CORRECTED:
        rhs *= m1 * m2
    return BoundReport("T6b", variant, lhs, rhs, rhs - lhs)


def _t7_sides(mom: Moments, width: float, lf: float, drift: float) -> tuple[float, float]:
    """(lhs, (b-a) sqrt(var P)), shared by both T7 modes."""
    lhs = abs(lf - drift * mom.int_p)
    var_p = _clamped_variance(mom.int_p2 / width - (mom.int_p / width) ** 2)
    return lhs, width * math.sqrt(var_p)


def _t7_l2(lhs: float, root: float, var_f: float) -> BoundReport:
    rhs = root * math.sqrt(var_f)
    return BoundReport("T7-L2", Variant.CORRECTED, lhs, rhs, rhs - lhs)


def _t7_gruss(lhs: float, root: float, gamma: float, big_gamma: float) -> BoundReport:
    rhs = root * (big_gamma - gamma) / 2.0
    return BoundReport("T7-Gruss", Variant.CORRECTED, lhs, rhs, rhs - lhs)


def _t8(mom: Moments, lf: float, gamma: float, big_gamma: float) -> BoundReport:
    mid = 0.5 * (gamma + big_gamma)
    lhs = abs(lf - mid * mom.int_p)
    rhs = 0.5 * (big_gamma - gamma) * mom.int_abs_p
    return BoundReport("T8", Variant.CORRECTED, lhs, rhs, rhs - lhs)


def bound_t5(spec: KernelSpec, f: Func, variant: Variant = Variant.CORRECTED) -> BoundReport:
    """First-derivative bound: |montgomery_rhs| <= M * int |P|, with M the
    sup of |f^Delta| of _kernel_sums.

    The literal variant divides the right side by (alpha + beta), as
    printed; that normalization is not scale invariant and can be violated.
    """
    fx = feval(f, spec.x)
    bracket = spec._bracket
    _, sf, m1 = _kernel_sums(spec, f)
    return _t5(variant, spec.alpha + spec.beta, bracket, spec._moments.int_abs_p, fx, sf, m1)


def bound_t6a(spec: KernelSpec, f: Func, g: Func,
              variant: Variant = Variant.CORRECTED) -> BoundReport:
    """Symmetrized product bound, first form.

    lhs = | f(x)g(x)*B/w - (g(x)S(f) + f(x)S(g)) / (2w) |  with w = alpha+beta
        = (1/2) | g(x) int P f^Delta + f(x) int P g^Delta |.
    rhs (corrected) = (M1|g(x)| + M2|f(x)|)/2 * int |P|; the literal form
    divides once more by w.
    """
    fx = feval(f, spec.x)
    gx = feval(g, spec.x)
    _, sf, m1 = _kernel_sums(spec, f)
    _, sg, m2 = _kernel_sums(spec, g)
    return _t6a(variant, spec.alpha + spec.beta, spec._bracket, spec._moments.int_abs_p,
                fx, sf, m1, gx, sg, m2)


def bound_t6b(spec: KernelSpec, f: Func, g: Func,
              variant: Variant = Variant.CORRECTED) -> BoundReport:
    """Product bound, second form.  The printed left side

        f(x)g(x)B**2 - B(f(x)S(g) + g(x)S(f)) + S(f)S(g)

    factors exactly as w**2 * (int P f^Delta)(int P g^Delta), and only the
    factored form is computed.  The four-term sum cancels catastrophically
    near sharp or degenerate kernels (a kernel that vanishes identically
    leaves ~1e-9 of float noise in it while the factored product is exactly
    zero), and the two forms differ only by the Montgomery identity for f
    times the one for g, which the identity suite's montgomery-identity row
    already records.
    rhs (corrected) = w**2 M1 M2 (int |P|)**2; the literal printing omits
    the M1 M2 factor.
    """
    lf, _, m1 = _kernel_sums(spec, f)
    lg, _, m2 = _kernel_sums(spec, g)
    return _t6b(variant, spec.alpha + spec.beta, spec._moments.int_abs_p, lf, m1, lg, m2)


def _fd_variance(ts: TimeScale, f: Func, a: float, b: float, drift: float) -> float:
    """Variance of f^Delta over [a, b): the mean of (f^Delta)**2 less
    drift**2, where drift = (f(b) - f(a))/(b - a) is the mean of f^Delta."""
    _, mus, dense = ts.window(a, b)
    total = 0.0
    for mu, fd in zip(mus, _step_table(ts, f, a, b)[0]):
        total += mu * fd * fd
    for lo, hi in dense:
        d = poly_derive(f.coeffs)
        total += poly_definite(poly_mul(d, d), lo, hi)
    return _clamped_variance(total / (b - a) - drift * drift)


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
    mom = spec._moments
    width = spec.b - spec.a
    drift = (feval(f, spec.b) - feval(f, spec.a)) / width
    lhs, root = _t7_sides(mom, width, _kernel_sums(spec, f)[0], drift)
    if mode == "l2":
        return _t7_l2(lhs, root, _fd_variance(spec.ts, f, spec.a, spec.b, drift))
    return _t7_gruss(lhs, root, *_check_bracket(spec.ts, f, spec.a, spec.b, gamma, big_gamma))


def bound_t8(spec: KernelSpec, f: Func, gamma: float | None = None,
             big_gamma: float | None = None) -> BoundReport:
    """Midpoint-of-range bound.

    lhs = | int P f^Delta - (gamma+Gamma)/2 * int P |,
    rhs = (Gamma - gamma)/2 * int |P|.  Weight-scale invariant as printed;
    reports are tagged CORRECTED.
    """
    gamma, big_gamma = _check_bracket(spec.ts, f, spec.a, spec.b, gamma, big_gamma)
    return _t8(spec._moments, _kernel_sums(spec, f)[0], gamma, big_gamma)


# Evaluator per theorem id, called as (spec, f, g, variant, gamma, big_gamma).
# Only the product bounds (READS_G) read g, only T7-Gruss and T8 read the
# bracket [gamma, Gamma] (None: the exact range of f^Delta).  T7 and T8 are
# printed weight-scale invariant: they ignore the variant and tag reports
# CORRECTED.
BOUNDS = {
    "T5": lambda spec, f, g, variant, gamma, big_gamma: bound_t5(spec, f, variant),
    "T6a": lambda spec, f, g, variant, gamma, big_gamma: bound_t6a(spec, f, g, variant),
    "T6b": lambda spec, f, g, variant, gamma, big_gamma: bound_t6b(spec, f, g, variant),
    "T7-L2": lambda spec, f, g, variant, gamma, big_gamma: bound_t7(spec, f, "l2"),
    "T7-Gruss": lambda spec, f, g, variant, gamma, big_gamma:
        bound_t7(spec, f, "gruss", gamma, big_gamma),
    "T8": lambda spec, f, g, variant, gamma, big_gamma: bound_t8(spec, f, gamma, big_gamma),
}
THEOREMS = tuple(BOUNDS)
READS_G = ("T6a", "T6b")


def evaluate_bounds(spec: KernelSpec, f: Func, g: Func, variants: tuple[Variant, ...],
                    gamma: float | None = None, big_gamma: float | None = None
                    ) -> tuple[dict[str, BoundReport], list[BoundReport], tuple[float, float]]:
    """Every theorem under each variant, in THEOREMS order within a variant,
    each equal to its bound_* call, and the (gamma, Gamma) they read.

    Each input is read once: the bracket, checked first and once for T7-Gruss
    and T8, the kernel sums of f and of g, f(x), g(x), f(a) and f(b), B and
    the moments.  The variant-free theorems (T7-L2, T7-Gruss, T8) are
    evaluated once, before the others, and come back by id as evaluated
    (tagged CORRECTED), and in the list tagged with each variant.
    """
    gamma, big_gamma = _check_bracket(spec.ts, f, spec.a, spec.b, gamma, big_gamma)
    mom = spec._moments
    width = spec.b - spec.a
    drift = (feval(f, spec.b) - feval(f, spec.a)) / width
    lf, sf, m1 = _kernel_sums(spec, f)
    lhs, root = _t7_sides(mom, width, lf, drift)
    l2 = _t7_l2(lhs, root, _fd_variance(spec.ts, f, spec.a, spec.b, drift))
    once = {"T7-L2": l2, "T7-Gruss": _t7_gruss(lhs, root, gamma, big_gamma),
            "T8": _t8(mom, lf, gamma, big_gamma)}
    w, iabs = spec.alpha + spec.beta, mom.int_abs_p
    fx = feval(f, spec.x)
    bracket = spec._bracket
    gx = feval(g, spec.x)
    lg, sg, m2 = _kernel_sums(spec, g)
    reports = []
    for variant in variants:
        reports.append(_t5(variant, w, bracket, iabs, fx, sf, m1))
        reports.append(_t6a(variant, w, bracket, iabs, fx, sf, m1, gx, sg, m2))
        reports.append(_t6b(variant, w, iabs, lf, m1, lg, m2))
        for rep in once.values():
            reports.append(rep if rep.variant is variant
                           else BoundReport(rep.theorem, variant, rep.lhs, rep.rhs, rep.slack))
    return once, reports, (gamma, big_gamma)


# ---------------------------------------------------------------------------
# proof-step identities


def korkine_residual(spec: KernelSpec, f: Func) -> float:
    """cov(P, f^Delta) over [a, b) from the sigma walk, less the one T7
    reads from the step tables; ~0 always.

    The walk's cov is mean(P f^Delta) - mean(P) mean(f^Delta), means
    weighted by mu/(b-a), with f^Delta = (f(sigma(t)) - f(t))/mu at each
    walked point t.  The tables' is montgomery_lhs/(b-a) less
    int P/(b-a) * (f(b) - f(a))/(b-a).  By Korkine's identity both equal
    the symmetrized double sum (1/2W^2) sum_ij mu_i mu_j (P_i - P_j)
    (F_i - F_j), so only the routes to mu, P and f^Delta can differ: a mu,
    sigma or split of the window at x that the tables hold wrong shows here.
    Windows with a dense piece have no walk (ContinuousScale).
    """
    pts, mus, ps = spec._sigma_walk
    width = spec.b - spec.a
    fv = [feval(f, t) for t in pts]
    m_pf = m_p = m_f = 0.0
    for mu, p, ft, fs in zip(mus, ps, fv, fv[1:]):
        fd = (fs - ft) / mu
        m_pf += mu * p * fd
        m_p += mu * p
        m_f += mu * fd
    walk = m_pf / width - (m_p / width) * (m_f / width)
    drift = (feval(f, spec.b) - feval(f, spec.a)) / width
    table = montgomery_lhs(spec, f) / width - (spec._moments.int_p / width) * drift
    return walk - table


def kernel_variance_residual(spec: KernelSpec) -> float:
    """var P over [a, b) from the sigma walk, mean(P**2) - mean(P)**2 with
    means weighted by mu/(b-a), less int_p2/W - (int_p/W)**2 from the
    kernel moments that T7 reads; ~0 always.  Like korkine_residual it
    shows a wrong mu or a wrong split at x in the kernel's step data."""
    _, mus, ps = spec._sigma_walk
    width = spec.b - spec.a
    m_p = m_pp = 0.0
    for mu, p in zip(mus, ps):
        m_p += mu * p
        m_pp += mu * p * p
    mom = spec._moments
    return (m_pp / width - (m_p / width) ** 2) - (mom.int_p2 / width - (mom.int_p / width) ** 2)


def gruss_variance_check(ts: TimeScale, f: Func, a: float, b: float,
                         gamma: float | None = None,
                         big_gamma: float | None = None) -> tuple[float, float]:
    """Variance envelope behind the Gruss step.

    Returns (variance, bound) where variance = mean((f^Delta)^2) - mean^2
    and bound = ((Gamma - gamma)/2)**2; the first never exceeds the second
    in exact arithmetic.  The identity suite's variance-envelope row judges
    the pair.
    """
    a = ts.canon(a)
    b = ts.canon(b)
    gamma, big_gamma = _check_bracket(ts, f, a, b, gamma, big_gamma)
    width = b - a
    drift = (feval(f, b) - feval(f, a)) / width
    variance = _fd_variance(ts, f, a, b, drift)
    bound = (0.5 * (big_gamma - gamma)) ** 2
    return variance, bound


# ---------------------------------------------------------------------------
# family closed forms and the unweighted reduction


def closed_form_rhs(spec: KernelSpec, f: Func, family: str) -> float:
    """montgomery_rhs recomputed through the family's own calculus.

    family "Z": forward differences on an integer interval; "Q": Jackson
    q-integrals on a q-lattice; "R": ordinary integrals of h' f for
    polynomials on a real interval.  A family supplies only its integral of
    h^Delta f(sigma) over [lo, hi); the bracket B (from h, not the spec's
    cached one), S(f) and f(x) B/w - S(f)/w are formed here once.
    Independent of the generic delta engine, for cross-checking.
    """
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r} (expected 'Z', 'Q', or 'R')")
    scale_class, integral_of = FAMILIES[family]
    if not isinstance(spec.ts, scale_class):
        raise FamilyMismatch(f"family {family!r} needs a scale of kind {scale_class.kind!r}")
    integral = integral_of(spec, f)
    h, a, b, x = spec.h, spec.a, spec.b, spec.x
    w = spec.alpha + spec.beta
    bracket = 0.0
    mean = 0.0
    if spec.alpha > 0.0:
        bracket += spec.alpha * (feval(h, x) - feval(h, a)) / (x - a)
        mean += spec.alpha / (x - a) * integral(a, x)
    if spec.beta > 0.0:
        bracket += spec.beta * (feval(h, b) - feval(h, x)) / (b - x)
        mean += spec.beta / (b - x) * integral(x, b)
    return feval(f, x) * bracket / w - mean / w


def _z_integral(spec: KernelSpec, f: Func):
    h = spec.h

    def sigma_sum(lo: float, hi: float) -> float:
        # a plain loop, not sum(): see tests/test_plain_loops.py
        total = 0.0
        for t in range(int(lo), int(hi)):
            total += feval(f, t + 1.0) * (feval(h, t + 1.0) - feval(h, float(t)))
        return total

    return sigma_sum


def _q_integral(spec: KernelSpec, f: Func):
    ts = spec.ts
    q = ts.q

    def jackson_mean(lo: float, hi: float) -> float:
        """(q-1) sum over exponents of D_q h(q^l) f(q^(l+1)) q^l."""
        total = 0.0
        for k in range(ts.exponent_of(lo), ts.exponent_of(hi)):
            t = q ** k
            t_next = q ** (k + 1)
            dqh = (feval(spec.h, t_next) - feval(spec.h, t)) / ((q - 1.0) * t)
            total += dqh * feval(f, t_next) * t
        return (q - 1.0) * total

    return jackson_mean


def _r_integral(spec: KernelSpec, f: Func):
    if not (isinstance(f, Polynomial) and isinstance(spec.h, Polynomial)):
        raise FamilyMismatch("family 'R' needs polynomial f and h")
    hd_f = poly_mul(poly_derive(spec.h.coeffs), f.coeffs)
    return lambda lo, hi: poly_definite(hd_f, lo, hi)


# Per family: its scale class, and (spec, f) -> its integral of h^Delta
# f(sigma) over [lo, hi) on a scale of that class.
FAMILIES = {"Z": (IntegerInterval, _z_integral), "Q": (QLattice, _q_integral),
            "R": (RealInterval, _r_integral)}


def reduction_weighted_ostrowski(ts: TimeScale, f: Func, h: Func,
                                 a: float, b: float, x: float) -> BoundReport:
    """Unweighted specialization alpha = x - a, beta = b - x: corrected T5
    of that kernel.

    lhs = | (h(b)-h(a))/(b-a) f(x) - (1/(b-a)) int_a^b h^Delta f(sigma) |,
    rhs = M * int |P| = M/(b-a) * [ int_a^x |h(t)-h(a)| + int_x^b |h(b)-h(t)| ];
    for h(t) = t the bracket is h_2(x, a) + h_2(x, b) (Bohner & Matthews,
    JIPAM 9(1), 2008).
    """
    a = ts.canon(a)
    b = ts.canon(b)
    x = ts.canon(x)
    if not a < x < b:
        raise ConfigError("the reduction needs a < x < b")
    return bound_t5(KernelSpec(ts=ts, a=a, b=b, x=x, alpha=x - a, beta=b - x, h=h), f)
