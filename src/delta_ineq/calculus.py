"""Delta calculus on a time scale: derivatives, integrals, and monomials.

Functions come in two representations:

* ``Polynomial(coeffs)`` -- ascending coefficients, usable on every scale;
* ``Sampled(table)``     -- explicit point -> value pairs, discrete scales only.

The delta derivative at a right-scattered point is the forward difference
``(f(sigma(t)) - f(t)) / mu(t)``; at a right-dense point it is the classical
derivative (available only for polynomials).  The delta integral over [a, b)
on a discrete scale is the finite sum of ``mu(t) * f(t)``; on a real interval
it is the ordinary integral, evaluated through the antiderivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import (
    ConfigError,
    ContinuousScale,
    DensePointSampledFunc,
    MissingSample,
    NotDifferentiable,
)
from .timescale import RealInterval, TimeScale

# ---------------------------------------------------------------------------
# plain polynomial coefficient arithmetic (ascending order)


def poly_eval(coeffs: tuple[float, ...], t: float) -> float:
    """Horner evaluation of sum(c[i] * t**i)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_derive(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(i * c for i, c in enumerate(coeffs) if i > 0) or (0.0,)


def poly_antiderive(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """Antiderivative with zero constant term."""
    return (0.0,) + tuple(c / (i + 1) for i, c in enumerate(coeffs))


def poly_mul(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def poly_add(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0.0) + (b[i] if i < len(b) else 0.0) for i in range(n)
    )


def poly_scale(a: tuple[float, ...], s: float) -> tuple[float, ...]:
    return tuple(s * c for c in a)


def poly_definite(coeffs: tuple[float, ...], lo: float, hi: float) -> float:
    """Exact ordinary integral of the polynomial over [lo, hi]."""
    anti = poly_antiderive(coeffs)
    return poly_eval(anti, hi) - poly_eval(anti, lo)


# ---------------------------------------------------------------------------
# function representations


# Each function object also carries ``_delta_memo``: the f^Delta candidate
# lists that ostrowski's derivative envelopes computed for it, keyed by the
# window (scale, a, b, open) they were asked about.  It is not a dataclass
# field, so ==, hash, repr and the JSON form ignore it, dataclasses.replace
# starts an empty one, and it lives and dies with its function.


@dataclass(frozen=True)
class Polynomial:
    """sum(coeffs[i] * t**i); defined on every scale."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ConfigError("Polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "_delta_memo", {})


@dataclass(frozen=True)
class Sampled:
    """Explicit samples on the points of a discrete scale.

    The table maps points to values and must cover every point the caller
    will touch (for kernel work: all of [a, b] including sigma images).
    Treat instances as immutable.
    """

    table: dict

    def __post_init__(self) -> None:
        if not self.table:
            raise ConfigError("Sampled needs a nonempty table")
        object.__setattr__(
            self, "table", {float(t): float(v) for t, v in self.table.items()}
        )
        object.__setattr__(self, "_delta_memo", {})


Func = Union[Polynomial, Sampled]


def func_to_json(f: Func) -> dict:
    if isinstance(f, Polynomial):
        return {"repr": "poly", "coeffs": list(f.coeffs)}
    if isinstance(f, Sampled):
        return {"repr": "sampled", "table": [[t, v] for t, v in sorted(f.table.items())]}
    raise ConfigError(f"unknown function object {f!r}")


def func_from_json(obj: dict) -> Func:
    if not isinstance(obj, dict) or "repr" not in obj:
        raise ConfigError("function JSON must be an object with a 'repr' field")
    rep = obj["repr"]
    try:
        if rep == "poly":
            return Polynomial(coeffs=tuple(obj["coeffs"]))
        if rep == "sampled":
            return Sampled(table={t: v for t, v in obj["table"]})
    except KeyError as exc:
        raise ConfigError(f"function JSON missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad function JSON: {exc}") from exc
    raise ConfigError(f"unknown function repr {rep!r}")


# ---------------------------------------------------------------------------
# evaluation and delta operators


def feval(f: Func, t: float) -> float:
    """Value of f at a scale point t."""
    if isinstance(f, Polynomial):
        return poly_eval(f.coeffs, t)
    try:
        return f.table[t]
    except KeyError:
        raise MissingSample(f"no sample at t={t!r}") from None


def delta_derivative(ts: TimeScale, f: Func, t: float) -> float:
    """Delta derivative of f at t.

    Forward difference quotient when t is right-scattered; the classical
    derivative when t is right-dense on a real interval.  The left-scattered
    maximum of a discrete scale lies outside T^kappa and is rejected.
    """
    t = ts.canon(t)
    st = ts.sigma(t)
    mu = st - t
    if mu > 0.0:
        return (feval(f, st) - feval(f, t)) / mu
    if isinstance(ts, RealInterval):
        if isinstance(f, Polynomial):
            return poly_eval(poly_derive(f.coeffs), t)
        raise DensePointSampledFunc("sampled functions have no derivative at a dense point")
    raise NotDifferentiable(f"t={t!r} is the left-scattered maximum of its scale")


def delta_integral(ts: TimeScale, f: Func, a: float, b: float) -> float:
    """Delta integral of f over [a, b), with orientation.

    Discrete scales: the finite sum of mu(t) * f(t) over the grid points of
    [a, b).  Real interval with a polynomial: antiderivative difference.
    """
    a = ts.canon(a)
    b = ts.canon(b)
    if a == b:
        return 0.0
    if a > b:
        return -delta_integral(ts, f, b, a)
    if isinstance(ts, RealInterval):
        if isinstance(f, Polynomial):
            return poly_definite(f.coeffs, a, b)
        raise ContinuousScale("sampled functions cannot be integrated on a real interval")
    pts = ts.grid_points(a, b)
    total = 0.0
    for t, nxt in zip(pts, pts[1:] + [b]):
        total += (nxt - t) * feval(f, t)
    return total


def h_monomial(ts: TimeScale, k: int, t: float, s: float) -> float:
    """Generalized monomial h_k(t, s).

    h_0 = 1 and h_{k+1}(t, s) = integral from s to t of h_k(tau, s).  On the
    real line this reproduces (t - s)**k / k!.  On discrete scales the
    recursion is evaluated as nested cumulative sums over the enclosing
    point range, exact in finite arithmetic.
    """
    if k < 0:
        raise ConfigError("h_monomial needs k >= 0")
    t = ts.canon(t)
    s = ts.canon(s)
    if k == 0:
        return 1.0
    if isinstance(ts, RealInterval):
        # H_{j+1} is the antiderivative of H_j vanishing at s.
        coeffs: tuple[float, ...] = (1.0,)
        for _ in range(k):
            anti = poly_antiderive(coeffs)
            coeffs = poly_add(anti, (-poly_eval(anti, s),))
        return poly_eval(coeffs, t)
    lo, hi = (s, t) if s <= t else (t, s)
    pts = ts.grid_points(lo, hi) + [hi] if lo < hi else [lo]
    values = [1.0] * len(pts)
    for _ in range(k):
        # prefix[i] = integral over [lo, pts[i]) of the current level.
        prefix = [0.0] * len(pts)
        for i in range(1, len(pts)):
            prefix[i] = prefix[i - 1] + (pts[i] - pts[i - 1]) * values[i - 1]
        at_s = prefix[pts.index(s)]
        values = [p - at_s for p in prefix]
    return values[pts.index(t)]


def product_rule_residual(ts: TimeScale, f: Func, g: Func, t: float) -> float:
    """(fg)^Delta(t) minus f^Delta(t) g(t) + f(sigma(t)) g^Delta(t); ~0 always."""
    t = ts.canon(t)
    st = ts.sigma(t)
    mu = st - t
    fd = delta_derivative(ts, f, t)
    gd = delta_derivative(ts, g, t)
    if mu > 0.0:
        lhs = (feval(f, st) * feval(g, st) - feval(f, t) * feval(g, t)) / mu
    else:
        # both derivative calls above succeeded, so f and g are polynomials
        lhs = poly_eval(poly_derive(poly_mul(f.coeffs, g.coeffs)), t)
    rhs = fd * feval(g, t) + feval(f, st) * gd
    return lhs - rhs


def parts_residual(ts: TimeScale, f: Func, g: Func, a: float, b: float) -> float:
    """Integration-by-parts defect over [a, b); ~0 always.

    residual = integral of f g^Delta - [ (fg)(b) - (fg)(a)
               - integral of f^Delta (g o sigma) ].
    """
    a = ts.canon(a)
    b = ts.canon(b)
    boundary = feval(f, b) * feval(g, b) - feval(f, a) * feval(g, a)
    if isinstance(ts, RealInterval):
        if not (isinstance(f, Polynomial) and isinstance(g, Polynomial)):
            raise ContinuousScale("integration by parts needs polynomials on a real interval")
        left = poly_definite(poly_mul(f.coeffs, poly_derive(g.coeffs)), a, b)
        right = poly_definite(poly_mul(poly_derive(f.coeffs), g.coeffs), a, b)
        return left - (boundary - right)
    pts = ts.grid_points(a, b)
    left = 0.0
    right = 0.0
    for t, nxt in zip(pts, pts[1:] + [b]):
        mu = nxt - t
        fd = (feval(f, nxt) - feval(f, t)) / mu
        gd = (feval(g, nxt) - feval(g, t)) / mu
        left += mu * feval(f, t) * gd
        right += mu * fd * feval(g, nxt)
    return left - (boundary - right)
