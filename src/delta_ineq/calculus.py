"""Delta calculus on a time scale: derivatives, integrals, and monomials.

Functions come in two representations:

* ``Polynomial(coeffs)`` -- ascending coefficients, usable on every scale;
* ``Sampled(table)``     -- explicit point -> value pairs, discrete scales only.

The delta derivative at a right-scattered point is the forward difference
``(f(sigma(t)) - f(t)) / mu(t)``; at a right-dense point it is the classical
derivative (available only for polynomials).  A delta integral over [a, b)
is one fold over the scale's ``window``: the sum of ``mu(t) * f(t)`` over
its right-scattered steps, then the ordinary integral over each dense piece,
evaluated through the antiderivative (so f must be a polynomial there).  A
discrete scale has no dense piece and a real interval no scattered point.
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
from .timescale import RealInterval, TimeScale, Window, _json_array, _json_floats, _json_number

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


# Each function object also carries ``_delta_memo``: per window (scale, a, b)
# the step table (f^Delta, f) of ``_step_table``, which every delta integral
# and f^Delta envelope reads with the scale's ``window`` (steps, mu, dense
# pieces), per window with a dense piece the f' candidate list of the
# derivative envelopes in ostrowski, and per KernelSpec the kernel sums of f
# that ostrowski keeps there.  It is not a dataclass field, so ==, hash, repr
# and the JSON form ignore it, dataclasses.replace starts an empty one, and
# it lives and dies with its function.


@dataclass(frozen=True)
class Polynomial:
    """sum(coeffs[i] * t**i); defined on every scale."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = _json_floats(self.coeffs, "Polynomial coeffs")
        if not coeffs:
            raise ConfigError("Polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_delta_memo", {})

    @classmethod
    def _of(cls, coeffs: tuple[float, ...]) -> Polynomial:
        """A Polynomial holding coeffs as they are, unchecked: a nonempty
        tuple of floats, as a draw makes it."""
        f = object.__new__(cls)
        object.__setattr__(f, "coeffs", coeffs)
        object.__setattr__(f, "_delta_memo", {})
        return f


@dataclass(frozen=True)
class Sampled:
    """Explicit samples on the points of a discrete scale.

    The table maps points to values and must cover every point the caller
    will touch (for kernel work: all of [a, b] including sigma images).
    Points and values are finite ints or floats, kept as floats; two points
    with the same float are a ConfigError.  Treat instances as immutable.
    """

    table: dict

    def __post_init__(self) -> None:
        if not isinstance(self.table, dict) or not self.table:
            raise ConfigError("Sampled needs a nonempty dict as its table")
        table = {}
        for t, v in self.table.items():
            point = float(_json_number(t, "Sampled point {!r}", t))
            if point in table:
                raise ConfigError(f"Sampled point {t!r} repeats the point {point!r}")
            table[point] = float(_json_number(v, "Sampled value at {!r}", t))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_delta_memo", {})

    @classmethod
    def _of(cls, table: dict) -> Sampled:
        """A Sampled holding table as it is, unchecked: float points and
        values, as a draw or a checked parse makes them."""
        f = object.__new__(cls)
        object.__setattr__(f, "table", table)
        object.__setattr__(f, "_delta_memo", {})
        return f


Func = Union[Polynomial, Sampled]


def func_to_json(f: Func) -> dict:
    if isinstance(f, Polynomial):
        return {"repr": "poly", "coeffs": list(f.coeffs)}
    if isinstance(f, Sampled):
        return {"repr": "sampled", "table": [[t, v] for t, v in sorted(f.table.items())]}
    raise ConfigError(f"unknown function object {f!r}")


def func_from_json(obj: dict) -> Func:
    """Parse a function from {"repr": "poly", "coeffs": [...]} or
    {"repr": "sampled", "table": [[t, f(t)], ...]}: finite JSON numbers
    only, and each sample point once."""
    if not isinstance(obj, dict) or "repr" not in obj:
        raise ConfigError("function JSON must be an object with a 'repr' field")
    rep = obj["repr"]
    try:
        if rep == "poly":
            return Polynomial(coeffs=obj["coeffs"])
        if rep == "sampled":
            table = {}
            for i, pair in enumerate(_json_array(obj["table"], "table")):
                t, v = _json_array(pair, "table entry", 2)
                t = float(_json_number(t, "function table[{}] point", i))
                if t in table:
                    raise ConfigError(f"function table[{i}] repeats the sample point {t!r}")
                table[t] = float(_json_number(v, "function table[{}] value", i))
            return Sampled._of(table)
    except KeyError as exc:
        raise ConfigError(f"function JSON missing field {exc}") from exc
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


def _step_table(ts: TimeScale, f: Func, a: float, b: float
                ) -> tuple[list[float], list[float]]:
    """(f^Delta, f) of f on the window [a, b), a and b canonical: f^Delta
    per step of ``ts.window(a, b)``, whose mu it divides by; f at each step
    and at b (at a and b when there is no step), so f[0] is f(a), f[-1] is
    f(b), and f(t) and f(sigma(t)) of step i are f[i] and f[i + 1].  A
    window with a dense piece needs a polynomial f.  A sampled f's values
    are read straight from its table, a missing point raising feval's
    MissingSample.  Kept in f's memo under (ts, a, b) and shared by every
    caller: treat it as read-only."""
    table = f._delta_memo.get((ts, a, b))
    if table is None:
        pts, mus, dense = ts.window(a, b)
        if isinstance(f, Polynomial):
            coeffs = f.coeffs
            vals = [poly_eval(coeffs, t) for t in pts or [a]]
            vals.append(poly_eval(coeffs, b))
        elif dense:
            raise ContinuousScale("a sampled function has no integral over a dense piece")
        else:
            samples = f.table
            try:
                vals = [samples[t] for t in pts or [a]]
                vals.append(samples[b])
            except KeyError as exc:
                feval(f, exc.args[0])       # raises feval's MissingSample for that point
        fds = [(fnxt - ft) / mu for ft, fnxt, mu in zip(vals, vals[1:], mus)]
        table = f._delta_memo[(ts, a, b)] = (fds, vals)
    return table


def _with_sample(ts: TimeScale, f: Sampled, a: float, b: float, win: Window, i: int,
                 t: float, value: float) -> Sampled:
    """f with its sample at t, point i of the window [a, b] (step i, or b
    when i is the number of steps), set to value; win is ``ts.window(a, b)``,
    which the caller holds, so a candidate looks nothing up.  The new step
    table is f's with f entry i replaced and f^Delta of steps i - 1 and i
    recomputed by the expression of _step_table, bit-equal to a fresh one.
    So a search that moves one sample at a time tabulates its window once.
    f's table is float already, so the new one is set as is
    (``Sampled._of``); the constructor would check every entry again."""
    fds, vals = _step_table(ts, f, a, b)
    value = float(value)
    moved = Sampled._of(f.table | {t: value})
    vals = vals.copy()
    vals[i] = value
    fds = fds.copy()
    for j in (i - 1, i):
        if 0 <= j < len(fds):
            fds[j] = (vals[j + 1] - vals[j]) / win.mus[j]
    moved._delta_memo[(ts, a, b)] = (fds, vals)
    return moved


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

    The sum of mu(t) * f(t) over the steps of the window [a, b), then the
    antiderivative difference of a polynomial f over each dense piece.
    Reads f only on [a, b).
    """
    a = ts.canon(a)
    b = ts.canon(b)
    if a == b:
        return 0.0
    if a > b:
        return -delta_integral(ts, f, b, a)
    pts, mus, dense = ts.window(a, b)
    if dense and not isinstance(f, Polynomial):
        raise ContinuousScale("sampled functions cannot be integrated on a dense piece")
    total = 0.0
    for t, mu in zip(pts, mus):
        total += mu * feval(f, t)
    for lo, hi in dense:
        total += poly_definite(f.coeffs, lo, hi)
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


def _product_delta(ts: TimeScale, f: Func, g: Func, t: float) -> float:
    """(fg)^Delta(t): the forward difference of f g at a right-scattered t,
    else the classical derivative of the product polynomial."""
    t = ts.canon(t)
    st = ts.sigma(t)
    if st > t:
        return (feval(f, st) * feval(g, st) - feval(f, t) * feval(g, t)) / (st - t)
    return poly_eval(poly_derive(poly_mul(f.coeffs, g.coeffs)), t)


def product_rule_residual(ts: TimeScale, f: Func, g: Func, t: float) -> float:
    """(fg)^Delta(t) minus f^Delta(t) g(t) + f(sigma(t)) g^Delta(t); ~0 always."""
    t = ts.canon(t)
    # the derivative calls reject a dense t unless f and g are polynomials
    fd = delta_derivative(ts, f, t)
    gd = delta_derivative(ts, g, t)
    rhs = fd * feval(g, t) + feval(f, ts.sigma(t)) * gd
    return _product_delta(ts, f, g, t) - rhs


def parts_residual(ts: TimeScale, f: Func, g: Func, a: float, b: float) -> float:
    """Integration-by-parts defect over [a, b); ~0 always.

    residual = integral of f g^Delta - [ (fg)(b) - (fg)(a)
               - integral of f^Delta (g o sigma) ].
    """
    a = ts.canon(a)
    b = ts.canon(b)
    _, mus, dense = ts.window(a, b)
    fds, fv = _step_table(ts, f, a, b)
    gds, gv = _step_table(ts, g, a, b)
    boundary = fv[-1] * gv[-1] - fv[0] * gv[0]
    left = 0.0
    right = 0.0
    for mu, ft, fd, gd, gs in zip(mus, fv, fds, gds, gv[1:]):
        left += mu * ft * gd
        right += mu * fd * gs
    for lo, hi in dense:
        left += poly_definite(poly_mul(f.coeffs, poly_derive(g.coeffs)), lo, hi)
        right += poly_definite(poly_mul(poly_derive(f.coeffs), g.coeffs), lo, hi)
    return left - (boundary - right)
