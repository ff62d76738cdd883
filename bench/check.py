"""Checks of delta-ineq reports against the exact recomputation in exact.py.

Each ``check_*`` function takes a parsed report and returns a Checker with
the problems found (none when the report is correct) and figures about the
check itself.  The properties held:

* every program float (lhs, rhs, slack, gamma, Gamma, ratios, residuals)
  lies within ``SLACK`` drift bounds of its exact value;
* corrected bounds hold on the exact values;
* every literal finding is genuine: the exact lhs exceeds the literal rhs;
* the Montgomery identity holds exactly in rationals;
* a sharpness ``best_ratio`` matches its witness and is <= 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import exact
from exact import SLACK, Instance, bounds

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# On real intervals int |P| rests on bisected cut points; compare with this
# relative allowance instead of exactly.
REAL_REL = Fraction(1, 1 << 60)


class Checker:
    """Collects problems and the largest drift ratio seen."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.worst_ratio = 0.0
        self.values_checked = 0

    def near(self, what: str, program: float, ref: exact.A) -> None:
        ratio = exact.close(program, ref) if math.isfinite(program) else math.inf
        self.values_checked += 1
        self.worst_ratio = max(self.worst_ratio, ratio)
        if ratio > SLACK:
            self.problems.append(
                f"{what}: program {program!r} vs exact {float(ref.v)!r} "
                f"(drift bound {ref.e:.3g}, {ratio:.3g}x)")

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self.problems.append(what)


def _at_most(lhs, rhs, real: bool) -> bool:
    return lhs <= rhs * (1 + REAL_REL) if real else lhs <= rhs


def check_bound_witness(ck: Checker, w: dict) -> None:
    """One witness of the bound suite: a literal finding, a corrected
    failure, or a t7-chain failure."""
    where = f"trial {w['trial']} {w['theorem']}/{w['variant']}"
    inst = Instance(w["spec"])
    real = inst.real
    gj = w.get("g")
    bs = bounds(inst, w["f"], gj)
    b = bs[w["theorem"]]
    literal = w["variant"] == "literal"
    rhs = b.literal if literal else b.corrected
    ck.near(f"{where} lhs", w["lhs"], b.lhs)
    ck.near(f"{where} rhs", w["rhs"], rhs)
    ck.near(f"{where} slack", w["slack"], rhs - b.lhs)
    gamma, big_gamma = inst.delta_range(w["f"])
    ck.near(f"{where} gamma", w["gamma"], gamma)
    ck.near(f"{where} big_gamma", w["big_gamma"], big_gamma)
    ck.require(f"{where}: Montgomery identity is not exact",
               inst.lhs(w["f"]).v == inst.rhs(w["f"]).v)
    for name, other in bs.items():
        if other.sq_check is not None:
            ok = _at_most(other.sq_check[0], other.sq_check[1], real)
        else:
            ok = _at_most(other.lhs.v, other.corrected.v, real)
        ck.require(f"{where}: corrected {name} fails on exact values", ok)
    if w.get("check") == "t7-chain":
        # the L2 right side must not exceed the Gruss one in exact arithmetic
        l2, gruss = bs["T7-L2"].sq_check[1], bs["T7-Gruss"].sq_check[1]
        ck.require(f"{where}: exact T7-L2 rhs exceeds T7-Gruss rhs", l2 <= gruss)
    elif literal:
        ck.require(f"{where}: literal finding is not genuine",
                   not _at_most(b.lhs.v, b.literal.v, real))
    else:
        ck.problems.append(f"{where}: corrected-bound failure reported")


def check_bounds_report(report: dict, trials: int, sample: list[int],
                        allowed_failures: tuple[str, ...] = ()) -> Checker:
    """A verify-bounds report.  ``sample`` indexes the findings to recompute
    (all failures are recomputed); failures other than ``allowed_failures``
    checks are problems."""
    ck = Checker()
    ck.require(f"report has {report.get('trials')} trials, expected {trials}",
               report.get("trials") == trials)
    for fw in report["failures"]:
        ck.require(f"failure of kind {fw.get('check', fw.get('theorem'))!r} in trial "
                   f"{fw.get('trial')}", fw.get("check") in allowed_failures)
    for key, agg in report["checks"].items():
        if key.endswith("/literal"):
            n = sum(1 for fw in report["findings"] if f"{fw['theorem']}/literal" == key)
            ck.require(f"{key}: {agg['violations']} violations but {n} findings",
                       agg["violations"] == n)
    for fw in report["failures"]:
        check_bound_witness(ck, fw)
    for i in sample:
        fw = report["findings"][i]
        ck.require(f"finding {i} is not a literal violation", fw["variant"] == "literal")
        check_bound_witness(ck, fw)
    return ck


def check_sharpness(report: dict, budget: int) -> Checker:
    """A sharpness report for T6b: the witness pair reproduces best_ratio."""
    ck = Checker()
    ck.require(f"theorem {report['theorem']!r}, expected T6b", report["theorem"] == "T6b")
    ck.require(f"search used {report['iterations']} of its {budget} evaluations",
               report["iterations"] == budget)
    ck.require("violation reported", report["violation"] is False)
    inst = Instance(report["spec"])
    b = bounds(inst, report["witness_f"], report["witness_g"])["T6b"]
    ratio = b.lhs / b.corrected
    ck.near("best_ratio", report["best_ratio"], ratio)
    ck.require("witness ratio exceeds 1", ratio.v <= 1)
    ck.require("max_ratio_seen below best_ratio", report["max_ratio_seen"] >= report["best_ratio"])
    trace = report["trace"]
    ck.require("trace does not end at best_ratio", trace[-1] == report["best_ratio"])
    ck.require("trace is not increasing", all(u < v for u, v in zip(trace, trace[1:])))
    return ck


# ---------------------------------------------------------------------------
# rebuilding identity-suite instances from the seed


def _mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The generator the README documents, written out again."""

    def __init__(self, seed: int, index: int) -> None:
        self.state = _mix64((seed + (index + 1) * GOLDEN) & MASK64)

    def u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return _mix64(self.state)

    def unit(self) -> float:
        return (self.u64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.unit()

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


def rebuild_identity_trial(seed: int, index: int,
                           size_range: tuple[int, int]) -> tuple[dict, dict, float]:
    """(spec, f, t_probe) of one identity-suite trial with the default scale
    families and sampled h and f (values uniform on [-8, 8]), drawn in the
    suite's order."""
    rng = SplitMix64(seed, index)
    family = rng.choice(("grid", "integer", "qlattice"))
    size = rng.randint(*size_range)
    if family == "grid":
        while True:
            pts = sorted(rng.uniform(-10.0, 10.0) for _ in range(size))
            if all(u < v for u, v in zip(pts, pts[1:])):
                break
        scale = {"kind": "grid", "points": pts}
    elif family == "integer":
        lo = rng.randint(-20, 20)
        scale = {"kind": "integer", "lo": lo, "hi": lo + size - 1}
        pts = [float(k) for k in range(lo, lo + size)]
    else:
        q = 1.0 + 1e-6 + (2.0 - 1e-6) * (1.0 - rng.unit())
        kmin = rng.randint(-4, 4)
        scale = {"kind": "qlattice", "q": q, "kmin": kmin, "kmax": kmin + size - 1}
        pts = [q ** k for k in range(kmin, kmin + size)]
    x = rng.choice(pts[1:-1])
    if rng.unit() < 0.1:
        wgt = rng.uniform(0.0, 5.0) or 2.5
        alpha, beta = (0.0, wgt) if rng.unit() < 0.5 else (wgt, 0.0)
    else:
        alpha, beta = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
        if alpha == 0.0 and beta == 0.0:
            alpha = 2.5
    h = {"repr": "sampled", "table": [[t, rng.uniform(-8.0, 8.0)] for t in pts]}
    f = {"repr": "sampled", "table": [[t, rng.uniform(-8.0, 8.0)] for t in pts]}
    t_probe = rng.choice(pts[:-1])
    spec = {"scale": scale, "a": pts[0], "b": pts[-1], "x": x,
            "alpha": alpha, "beta": beta, "h": h}
    return spec, f, t_probe


def check_identity_report(report: dict, seed: int, trials: int,
                          size_range: tuple[int, int], sample: list[int]) -> Checker:
    """A verify-identity report on discrete scales: every trial is rebuilt
    from the seed; each check's largest residual must lie within the largest
    drift bound over the trials, and on the sampled trials the Montgomery
    identity, integration by parts, the product rule, the closed forms and
    the variance envelope are recomputed exactly."""
    ck = Checker()
    ck.require(f"report has {report.get('trials')} trials, expected {trials}",
               report.get("trials") == trials)
    ck.require(f"{len(report['failures'])} identity failures", not report["failures"])
    worst: dict[str, float] = {}
    counts: dict[str, int] = {}
    for i in range(trials):
        spec, f, t_probe = rebuild_identity_trial(seed, i, size_range)
        inst = Instance(spec, exact=False)
        res = exact.identity_residuals(inst, f, t_probe)
        if spec["scale"]["kind"] in ("integer", "qlattice"):
            res["crosscheck"] = exact.closed_form_residual(inst, f, spec["scale"])
        for name, r in res.items():
            worst[name] = max(worst.get(name, 0.0), r.e)
            counts[name] = counts.get(name, 0) + 1
        if i in sample:
            inst = Instance(spec)
            ex = exact.identity_residuals(inst, f, t_probe)
            if "crosscheck" in res:
                ex["crosscheck"] = exact.closed_form_residual(inst, f, spec["scale"])
            for name in ("montgomery-identity", "integration-by-parts", "product-rule",
                         "variance-envelope", "crosscheck"):
                if name in ex:
                    ck.require(f"trial {i}: {name} is not exact in rationals", ex[name].v == 0)
    for name, agg in report["checks"].items():
        ck.require(f"{name}: {agg['trials']} trials, rebuilt {counts.get(name, 0)}",
                   agg["trials"] == counts.get(name, 0))
        if counts.get(name):
            ck.near(f"{name} max_abs_residual", agg["max_abs_residual"],
                    exact.A(0.0, worst[name]))
    return ck
