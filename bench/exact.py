"""Independent exact-rational recomputation of delta-ineq results.

Every quantity is recomputed from the instance a report carries, with
``fractions.Fraction`` arithmetic, by formulas written here from the paper's
definitions rather than taken from the engine.  Each recomputed value ``v``
travels with ``e``, a first-order bound on how far a binary64 evaluation of
the same formula can drift from ``v``: every rounding contributes
``U * |result|``, every sum of n terms ``(n - 1) * U * sum(|term|)``, and
input errors propagate through products, quotients and square roots.  The
engine's floats are held to ``v`` within ``SLACK * e``.

Binary64 inputs convert to fractions exactly.  Points of a q-lattice are the
binary64 powers ``q ** k`` that the engine defines as its members.  On real
intervals the integrals of polynomials are exact; only the cut points of
``int |P|`` and the critical points of ``f'`` are irrational, and they are
refined by bisection to a width far below binary64 resolution.

The same formulas run on floats (``exact=False``) where only the error
bounds are wanted, e.g. over every large instance of an identity suite.
"""

from __future__ import annotations

import math
from fractions import Fraction

U = 2.0 ** -53
# A recomputed float may miss its exact value by this multiple of the bound.
SLACK = 4.0
# Cut points found by bisection are narrowed to this relative width.
ROOT_BITS = 80
# The engine refines its own polynomial roots to this relative width.
ENGINE_ROOT_TOL = 1e-12


def _mag(v) -> float:
    try:
        return abs(float(v))
    except OverflowError:
        return math.inf


class A:
    """A recomputed value ``v`` with a bound ``e`` on its binary64 drift."""

    __slots__ = ("v", "e")

    def __init__(self, v, e: float = 0.0) -> None:
        self.v = v
        self.e = e

    def __repr__(self) -> str:
        return f"A({float(self.v)!r} +- {self.e:.3g})"

    def __add__(self, o):
        o = _lift(o, self)
        v = self.v + o.v
        return A(v, self.e + o.e + U * _mag(v))

    __radd__ = __add__

    def __sub__(self, o):
        o = _lift(o, self)
        v = self.v - o.v
        return A(v, self.e + o.e + U * _mag(v))

    def __mul__(self, o):
        o = _lift(o, self)
        v = self.v * o.v
        return A(v, _mag(self.v) * o.e + _mag(o.v) * self.e + self.e * o.e + U * _mag(v))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _lift(o, self)
        v = self.v / o.v
        room = _mag(o.v) - o.e
        e = (self.e + _mag(v) * o.e) / room if room > 0.0 else math.inf
        return A(v, e + U * _mag(v))

    def __neg__(self):
        return A(-self.v, self.e)

    def __abs__(self):
        return A(abs(self.v), self.e)


def _lift(o, like: A) -> A:
    if isinstance(o, A):
        return o
    return A(type(like.v)(o) if isinstance(like.v, Fraction) else o)


def asum(terms) -> A:
    """Sum in any order: drift <= sum of input drifts + (n-1) U sum |t|."""
    terms = list(terms)
    if not terms:
        return A(0)
    total = terms[0].v
    for t in terms[1:]:
        total = total + t.v
    mag = sum(_mag(t.v) for t in terms)
    return A(total, sum(t.e for t in terms) + (len(terms) - 1) * U * mag)


def _fsqrt(v):
    if isinstance(v, Fraction):
        # sqrt(p/q) = sqrt(p q) / q, to ~2**-100 relative
        p, q = v.numerator, v.denominator
        k = 100
        return Fraction(math.isqrt(p * q << (2 * k)), q << k)
    return math.sqrt(v)


def asqrt(x: A) -> A:
    """sqrt of a variance; negative round-off clamps to zero as in the engine."""
    v = x.v if x.v > 0 else type(x.v)(0)
    s = _fsqrt(v)
    fs = _mag(s)
    drift = math.sqrt(x.e)
    if fs > 0.0:
        drift = min(drift, x.e / fs)
    return A(s, drift + 2.0 * U * fs)


def amax_abs(vals: list[A]) -> A:
    """max |v| over vals (0 if empty): perturbed max moves by at most max e."""
    if not vals:
        return A(0)
    best = max(vals, key=lambda a: abs(a.v))
    return A(abs(best.v), max(a.e for a in vals))


def amin(vals: list[A]) -> A:
    best = min(vals, key=lambda a: a.v)
    return A(best.v, max(a.e for a in vals))


def amax(vals: list[A]) -> A:
    best = max(vals, key=lambda a: a.v)
    return A(best.v, max(a.e for a in vals))


def close(program: float, ref: A) -> float:
    """|program - ref.v| as a multiple of ref's drift bound (0 when equal)."""
    diff = _mag(Fraction(program) - ref.v) if isinstance(ref.v, Fraction) \
        else abs(program - ref.v)
    if diff == 0.0:
        return 0.0
    return diff / ref.e if ref.e > 0.0 else math.inf


# ---------------------------------------------------------------------------
# polynomials as lists of A, lowest degree first


def peval(cs: list[A], t: A) -> A:
    acc = A(cs[0].v * 0)
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def pderive(cs: list[A]) -> list[A]:
    return [c * i for i, c in enumerate(cs) if i > 0] or [A(cs[0].v * 0)]


def pmul(p: list[A], q: list[A]) -> list[A]:
    out: list[A | None] = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = a * b if out[i + j] is None else out[i + j] + a * b
    return out  # type: ignore[return-value]


def pdefinite(cs: list[A], lo: A, hi: A) -> A:
    anti = [A(cs[0].v * 0)] + [c / (i + 1) for i, c in enumerate(cs)]
    return peval(anti, hi) - peval(anti, lo)


def _pvalue(cs: list, t):
    acc = 0
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def sign_change_roots(cs: list[Fraction], lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Points in (lo, hi) where the polynomial changes sign, each within
    2**-ROOT_BITS relative.  Critical points (roots of the derivative) split
    [lo, hi] into monotone pieces, each holding at most one sign change."""
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    if len(cs) <= 1 or lo >= hi:
        return []
    deriv = [c * i for i, c in enumerate(cs) if i > 0]
    knots = [lo] + sign_change_roots(deriv, lo, hi) + [hi]
    width = Fraction(1, 1 << ROOT_BITS) * max(1, abs(lo), abs(hi))
    roots = []
    for u, v in zip(knots, knots[1:]):
        pu, pv = _pvalue(cs, u), _pvalue(cs, v)
        if pu == 0 or pv == 0 or (pu > 0) == (pv > 0):
            continue
        while v - u > width:
            mid = (u + v) / 2
            pm = _pvalue(cs, mid)
            if pm == 0:
                u = v = mid
                break
            if (pm > 0) == (pu > 0):
                u, pu = mid, pm
            else:
                v = mid
        roots.append((u + v) / 2)
    return roots


# ---------------------------------------------------------------------------
# one kernel instance


def scale_points(scale: dict) -> list[float]:
    kind = scale["kind"]
    if kind == "grid":
        return [float(p) for p in scale["points"]]
    if kind == "integer":
        return [float(k) for k in range(int(scale["lo"]), int(scale["hi"]) + 1)]
    if kind == "qlattice":
        q = float(scale["q"])
        return [q ** k for k in range(int(scale["kmin"]), int(scale["kmax"]) + 1)]
    raise ValueError(f"scale kind {kind!r} has no point list")


class Instance:
    """The kernel P(x, t) of one spec, with the quantities every bound reads.

    ``exact=True`` computes in fractions; ``exact=False`` in floats, which
    keeps the drift bounds but not exact values.
    """

    def __init__(self, spec: dict, exact: bool = True) -> None:
        self.num = Fraction if exact else float
        self.real = spec["scale"]["kind"] == "real"
        self.a, self.b, self.x = (self.lit(spec[k]) for k in ("a", "b", "x"))
        self.alpha, self.beta = self.lit(spec["alpha"]), self.lit(spec["beta"])
        self.w = self.alpha + self.beta
        self.width = self.b - self.a
        self.h = spec["h"]
        self.c1 = self.alpha / (self.w * (self.x - self.a)) if self.alpha.v > 0 else A(self.num(0))
        self.c2 = self.beta / (self.w * (self.b - self.x)) if self.beta.v > 0 else A(self.num(0))
        self._cache: dict = {}
        if self.real:
            hc = self.coeffs(self.h)
            ha, hb = peval(hc, self.a), peval(hc, self.b)
            self.left = [c * self.c1 for c in _padd(hc, [-ha])]
            self.right = [c * -self.c2 for c in _padd([hb], [-c for c in hc])]
        else:
            lo, hi = float(spec["a"]), float(spec["b"])
            self.pts = [t for t in scale_points(spec["scale"]) if lo <= t <= hi]
            self.steps = list(zip(self.pts, self.pts[1:]))
            self.mus = [self.lit(n) - self.lit(t) for t, n in self.steps]
            hv = self.values(self.h)
            ha, hb = hv[0], hv[-1]
            xv = float(spec["x"])
            self.ps = [self.c1 * (hv[i] - ha) if t < xv else -(self.c2 * (hb - hv[i]))
                       for i, (t, _) in enumerate(self.steps)]

    def lit(self, value) -> A:
        """A binary64 input: exact, no drift."""
        return A(self.num(float(value)))

    def coeffs(self, fj: dict) -> list[A]:
        if fj["repr"] != "poly":
            raise ValueError("a real interval needs polynomial functions")
        return [self.lit(c) for c in fj["coeffs"]]

    def at(self, fj: dict, t: float) -> A:
        if fj["repr"] == "poly":
            return peval(self.coeffs(fj), self.lit(t))
        key = ("table", id(fj))
        if key not in self._cache:
            self._cache[key] = {float(p): v for p, v in fj["table"]}
        return self.lit(self._cache[key][float(t)])

    def values(self, fj: dict) -> list[A]:
        return [self.at(fj, t) for t in self.pts]

    def deltas(self, fj: dict) -> list[A]:
        """f^Delta at each step."""
        key = ("fd", id(fj))
        if key not in self._cache:
            v = self.values(fj)
            self._cache[key] = [(v[i + 1] - v[i]) / mu for i, mu in enumerate(self.mus)]
        return self._cache[key]

    # -- kernel moments --------------------------------------------------

    def int_p(self) -> A:
        if self.real:
            return pdefinite(self.left, self.a, self.x) + pdefinite(self.right, self.x, self.b)
        return asum(mu * p for mu, p in zip(self.mus, self.ps))

    def int_abs_p(self) -> A:
        if self.real:
            return _abs_definite(self.left, self.a, self.x) + _abs_definite(self.right, self.x, self.b)
        return asum(mu * abs(p) for mu, p in zip(self.mus, self.ps))

    def int_p2(self) -> A:
        if self.real:
            return (pdefinite(pmul(self.left, self.left), self.a, self.x)
                    + pdefinite(pmul(self.right, self.right), self.x, self.b))
        return asum(mu * p * p for mu, p in zip(self.mus, self.ps))

    # -- the Montgomery identity ------------------------------------------

    def lhs(self, fj: dict) -> A:
        """Delta integral of P f^Delta over [a, b)."""
        if self.real:
            fd = pderive(self.coeffs(fj))
            return (pdefinite(pmul(self.left, fd), self.a, self.x)
                    + pdefinite(pmul(self.right, fd), self.x, self.b))
        return asum(mu * p * d for mu, p, d in zip(self.mus, self.ps, self.deltas(fj)))

    def bracket(self) -> tuple[A, A]:
        zero = A(self.num(0))
        ha, hx, hb = (self.at(self.h, float(t.v)) for t in (self.a, self.x, self.b))
        ba = self.alpha * (hx - ha) / (self.x - self.a) if self.alpha.v > 0 else zero
        bb = self.beta * (hb - hx) / (self.b - self.x) if self.beta.v > 0 else zero
        return ba, bb

    def _sigma_mean(self, fj: dict, lo: A, hi: A) -> A:
        """Delta integral of h^Delta f(sigma) over [lo, hi)."""
        if self.real:
            return pdefinite(pmul(pderive(self.coeffs(self.h)), self.coeffs(fj)), lo, hi)
        hd = self.deltas(self.h)
        fv = self.values(fj)
        return asum(self.mus[i] * hd[i] * fv[i + 1]
                    for i, (t, _) in enumerate(self.steps) if lo.v <= t < hi.v)

    def mean_side(self, fj: dict) -> A:
        s = A(self.num(0))
        if self.alpha.v > 0:
            s = s + self.alpha / (self.x - self.a) * self._sigma_mean(fj, self.a, self.x)
        if self.beta.v > 0:
            s = s + self.beta / (self.b - self.x) * self._sigma_mean(fj, self.x, self.b)
        return s

    def rhs(self, fj: dict) -> A:
        ba, bb = self.bracket()
        return self.at(fj, float(self.x.v)) * (ba + bb) / self.w - self.mean_side(fj) / self.w

    # -- derivative envelopes ---------------------------------------------

    def _candidates(self, fj: dict, open_interval: bool) -> list[A]:
        if not self.real:
            ds = self.deltas(fj)
            return ds[1:] if open_interval else ds
        fd = pderive(self.coeffs(fj))
        where = [self.a, self.b]
        crit = sign_change_roots([c.v for c in pderive(fd)], self.a.v, self.b.v)
        out = [peval(fd, t) for t in where]
        for r in crit:
            # f' is stationary at r: a cut off by d moves f'(r) by O(d**2)
            val = peval(fd, A(r))
            d = ENGINE_ROOT_TOL * max(1.0, _mag(self.a.v), _mag(self.b.v))
            curv = _mag(_pvalue([c.v for c in pderive(pderive(fd))], r)) if len(fd) > 2 else 0.0
            out.append(A(val.v, val.e + curv * d * d))
        return out

    def sup_abs_delta(self, fj: dict) -> A:
        return amax_abs(self._candidates(fj, open_interval=True))

    def delta_range(self, fj: dict) -> tuple[A, A]:
        vals = self._candidates(fj, open_interval=False)
        return amin(vals), amax(vals)

    def int_fd_squared(self, fj: dict) -> A:
        if self.real:
            fd = pderive(self.coeffs(fj))
            return pdefinite(pmul(fd, fd), self.a, self.b)
        return asum(mu * d * d for mu, d in zip(self.mus, self.deltas(fj)))


def _padd(p: list[A], q: list[A]) -> list[A]:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        if i < len(p) and i < len(q):
            out.append(p[i] + q[i])
        else:
            out.append(p[i] if i < len(p) else q[i])
    return out


def _abs_definite(cs: list[A], lo: A, hi: A) -> A:
    """Integral of |polynomial| over [lo, hi], cut at its sign changes."""
    if not lo.v < hi.v:
        return A(lo.v * 0)
    roots = sign_change_roots([c.v for c in cs], lo.v, hi.v)
    cuts = [lo] + [A(r) for r in roots] + [hi]
    pieces = [abs(pdefinite(cs, u, v)) for u, v in zip(cuts, cuts[1:])]
    total = asum(pieces)
    # the engine places each cut within its root tolerance; a cut off by d
    # changes the integral by at most |P'| d**2
    d = ENGINE_ROOT_TOL * max(1.0, _mag(lo.v), _mag(hi.v))
    dp = [c.v for c in pderive(cs)]
    total.e += sum(_mag(_pvalue(dp, r)) * d * d for r in roots)
    return total


# ---------------------------------------------------------------------------
# the bounds


class Bound:
    """lhs and both right-hand sides of one theorem on one instance."""

    __slots__ = ("lhs", "corrected", "literal", "sq_check")

    def __init__(self, lhs: A, corrected: A, literal: A, sq_check=None) -> None:
        self.lhs = lhs
        self.corrected = corrected
        self.literal = literal
        # exact (lhs**2, rhs**2) for the bounds whose rhs has square roots
        self.sq_check = sq_check


def bounds(inst: Instance, fj: dict, gj: dict | None = None) -> dict[str, Bound]:
    """Every theorem the instance supports (T6a/T6b need g)."""
    out: dict[str, Bound] = {}
    iabs = inst.int_abs_p()
    ip = inst.int_p()
    w = inst.w
    m1 = inst.sup_abs_delta(fj)
    lf = inst.lhs(fj)

    rhs_t5 = m1 * iabs
    out["T5"] = Bound(abs(inst.rhs(fj)), rhs_t5, rhs_t5 / w)

    if gj is not None:
        ba, bb = inst.bracket()
        fx, gx = inst.at(fj, float(inst.x.v)), inst.at(gj, float(inst.x.v))
        sf, sg = inst.mean_side(fj), inst.mean_side(gj)
        m2 = inst.sup_abs_delta(gj)
        lhs = abs(fx * gx * (ba + bb) / w - (gx * sf + fx * sg) / (w * 2))
        rhs = (m1 * abs(gx) + m2 * abs(fx)) / 2 * iabs
        out["T6a"] = Bound(lhs, rhs, rhs / w)
        base = w * w * iabs * iabs
        out["T6b"] = Bound(abs(w * w * lf * inst.lhs(gj)), base * (m1 * m2), base)

    width = inst.width
    fa, fb = (inst.at(fj, float(t.v)) for t in (inst.a, inst.b))
    drift = (fb - fa) / width
    lhs7 = abs(lf - drift * ip)
    mean_p = ip / width
    var_p = inst.int_p2() / width - mean_p * mean_p
    var_f = inst.int_fd_squared(fj) / width - drift * drift
    sd_p = asqrt(var_p)
    rhs = width * sd_p * asqrt(var_f)
    vp, vf = max(var_p.v, 0), max(var_f.v, 0)
    out["T7-L2"] = Bound(lhs7, rhs, rhs, (lhs7.v ** 2, width.v ** 2 * vp * vf))
    gamma, big_gamma = inst.delta_range(fj)
    half = (big_gamma - gamma) / 2
    rhs = width * sd_p * half
    out["T7-Gruss"] = Bound(lhs7, rhs, rhs, (lhs7.v ** 2, width.v ** 2 * vp * half.v ** 2))
    mid = (gamma + big_gamma) * 0.5
    lhs8 = abs(lf - mid * ip)
    rhs = half * iabs
    out["T8"] = Bound(lhs8, rhs, rhs)
    return out


# ---------------------------------------------------------------------------
# identity residuals: each is exactly 0 in rationals; e bounds its drift


def _korkine_residual(mus: list[A], us: list[A], vs: list[A], width: A) -> A:
    """Single route mean(uv) - mean(u)mean(v) against the symmetrized double
    sum.  The two routes agree by algebra, so the residual is exactly 0; the
    double sum's n**2 terms are bounded through the single-route sums."""
    m_uv = asum(m * u * v for m, u, v in zip(mus, us, vs)) / width
    m_u = asum(m * u for m, u in zip(mus, us)) / width
    m_v = asum(m * v for m, v in zip(mus, vs)) / width
    single = m_uv - m_u * m_v
    n = len(mus)
    wv = _mag(width.v)
    s_muv = sum(_mag(m.v) * _mag(u.v) * _mag(v.v) for m, u, v in zip(mus, us, vs))
    s_mu = sum(_mag(m.v) * _mag(u.v) for m, u in zip(mus, us))
    s_mv = sum(_mag(m.v) * _mag(v.v) for m, v in zip(mus, vs))
    s_meu = sum(_mag(m.v) * u.e for m, u in zip(mus, us))
    s_mev = sum(_mag(m.v) * v.e for m, v in zip(mus, vs))
    s_meuv = sum(_mag(m.v) * (u.e * _mag(v.v) + v.e * _mag(u.v)) for m, u, v in zip(mus, us, vs))
    terms = 2.0 * wv * s_muv + 2.0 * s_mu * s_mv
    inputs = 2.0 * wv * s_meuv + 2.0 * (s_meu * s_mv + s_mev * s_mu)
    double_e = ((n * n + 6) * U * terms + inputs) / (2.0 * wv * wv)
    return A(single.v * 0, single.e + double_e + U * _mag(single.v))


def identity_residuals(inst: Instance, fj: dict, t_probe: float) -> dict[str, A]:
    """The identity suite's residuals on a discrete instance, with g = h."""
    if inst.real:
        raise ValueError("identity residuals are recomputed on discrete scales only")
    gj = inst.h
    out = {"montgomery-identity": inst.lhs(fj) - inst.rhs(fj)}

    fv, gv = inst.values(fj), inst.values(gj)
    fd, gd = inst.deltas(fj), inst.deltas(gj)
    left = asum(inst.mus[i] * fv[i] * gd[i] for i in range(len(inst.mus)))
    right = asum(inst.mus[i] * fd[i] * gv[i + 1] for i in range(len(inst.mus)))
    boundary = fv[-1] * gv[-1] - fv[0] * gv[0]
    out["integration-by-parts"] = left - (boundary - right)

    i = inst.pts.index(t_probe)
    mu = inst.mus[i]
    lhs = (fv[i + 1] * gv[i + 1] - fv[i] * gv[i]) / mu
    out["product-rule"] = lhs - (fd[i] * gv[i] + fv[i + 1] * gd[i])

    out["korkine"] = _korkine_residual(inst.mus, inst.ps, fd, inst.width)
    out["kernel-variance"] = _korkine_residual(inst.mus, inst.ps, inst.ps, inst.width)

    fa, fb = fv[0], fv[-1]
    drift = (fb - fa) / inst.width
    variance = inst.int_fd_squared(fj) / inst.width - drift * drift
    gamma, big_gamma = inst.delta_range(fj)
    half = (big_gamma - gamma) * 0.5
    envelope = half * half
    excess = variance.v - envelope.v
    out["variance-envelope"] = A(excess if excess > 0 else excess * 0, variance.e + envelope.e)
    return out


def closed_form_residual(inst: Instance, fj: dict, scale: dict) -> A:
    """montgomery_rhs minus the family's closed form: forward differences on
    the integers ("Z"), Jackson q-integrals on a q-lattice ("Q")."""
    h = inst.h
    fv, hv = inst.values(fj), inst.values(h)
    q = inst.lit(scale["q"]) if scale["kind"] == "qlattice" else None

    def mean(lo: A, hi: A) -> A:
        idx = [i for i, (t, _) in enumerate(inst.steps) if lo.v <= t < hi.v]
        if q is None:
            return asum(fv[i + 1] * (hv[i + 1] - hv[i]) for i in idx)
        terms = []
        for i in idx:
            t = inst.lit(inst.steps[i][0])
            dqh = (hv[i + 1] - hv[i]) / ((q - 1) * t)
            terms.append(dqh * fv[i + 1] * t)
        return (q - 1) * asum(terms)

    ba, bb = inst.bracket()
    m = A(inst.num(0))
    if inst.alpha.v > 0:
        m = m + inst.alpha / (inst.x - inst.a) * mean(inst.a, inst.x)
    if inst.beta.v > 0:
        m = m + inst.beta / (inst.b - inst.x) * mean(inst.x, inst.b)
    closed = inst.at(fj, float(inst.x.v)) * (ba + bb) / inst.w - m / inst.w
    return inst.rhs(fj) - closed
