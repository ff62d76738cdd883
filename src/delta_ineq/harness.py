"""Seeded randomized verification suites and the bound-sharpness search.

Reproducibility contract: all randomness flows from a 64-bit SplitMix64
generator (state transition documented on the class).  Each trial derives
its own stream from (seed, trial index), so trials are order-independent
and any recorded witness can be replayed standalone.  Reports are a pure
function of the configuration except for the wall-time field.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from .calculus import (
    Func,
    Polynomial,
    Sampled,
    feval,
    func_from_json,
    func_to_json,
    parts_residual,
    poly_definite,
    poly_derive,
    poly_eval,
    poly_mul,
    product_rule_residual,
)
from .errors import ConfigError, UnsupportedTheorem
from .ostrowski import (
    THEOREMS,
    BoundReport,
    KernelSpec,
    Variant,
    bound_t5,
    bound_t6a,
    bound_t6b,
    bound_t7,
    bound_t8,
    closed_form_rhs,
    delta_derivative_range,
    gruss_variance_check,
    kernel_moments,
    kernel_spec_from_json,
    kernel_spec_to_json,
    kernel_variance_residual,
    korkine_residual,
    montgomery_lhs,
    montgomery_rhs,
)
from .timescale import (
    FiniteGrid,
    IntegerInterval,
    QLattice,
    RealInterval,
    TimeScale,
    scale_from_json,
    scale_to_json,
)

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
STEP_FLOOR = 1e-6


def _mix64(z: int) -> int:
    """SplitMix64 output stage: xor-shift-multiply finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator.

    State transition per draw: state <- (state + 0x9E3779B97F4A7C15) mod 2^64,
    output = mix(state) where mix is xor-shift by 30, multiply by
    0xBF58476D1CE4E5B9, xor-shift by 27, multiply by 0x94D049BB133111EB,
    xor-shift by 31.  uniform() maps the top 53 bits onto [0, 1).
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return _mix64(self._state)

    def uniform01(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform01()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]; modulo bias is negligible here."""
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


def trial_rng(seed: int, index: int) -> SplitMix64:
    """Per-trial stream: state seeded with mix(seed + (index+1)*GOLDEN)."""
    return SplitMix64(_mix64((seed + (index + 1) * GOLDEN) & MASK64))


# ---------------------------------------------------------------------------
# configuration


SCALE_FAMILIES = ("grid", "integer", "qlattice", "real")
FUNC_KINDS = ("sampled", "poly")


@dataclass(frozen=True)
class FuncFamily:
    """Distribution of random test functions."""

    kind: str = "sampled"
    value_range: float = 8.0
    max_degree: int = 3
    coeff_range: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in FUNC_KINDS:
            raise ConfigError(f"unknown function kind {self.kind!r}")
        if not self.value_range > 0.0:
            raise ConfigError("value_range must be positive")
        if self.max_degree < 0:
            raise ConfigError("max_degree must be >= 0")
        if not self.coeff_range > 0.0:
            raise ConfigError("coeff_range must be positive")


@dataclass(frozen=True)
class TrialConfig:
    """Configuration shared by all suites.

    ``n_trials`` doubles as the evaluation budget of the sharpness search
    (where 0 means "score the initial draw only"); the suite runners
    themselves require at least one trial.
    """

    seed: int = 0
    n_trials: int = 100
    scale_families: tuple[str, ...] = ("grid", "integer", "qlattice")
    size_range: tuple[int, int] = (3, 32)
    func_family: FuncFamily = field(default_factory=FuncFamily)
    weight_family: FuncFamily = field(default_factory=FuncFamily)
    variants: tuple[Variant, ...] = (Variant.PAPER_LITERAL, Variant.CORRECTED)
    tolerance: float = 1e-10
    fixed_scale: TimeScale | None = None

    def __post_init__(self) -> None:
        if self.n_trials < 0:
            raise ConfigError("n_trials must be >= 0")
        object.__setattr__(self, "scale_families", tuple(self.scale_families))
        object.__setattr__(self, "variants", tuple(Variant(v) for v in self.variants))
        object.__setattr__(self, "size_range", (int(self.size_range[0]), int(self.size_range[1])))
        lo, hi = self.size_range
        if not 3 <= lo <= hi:
            raise ConfigError("size_range needs 3 <= min <= max")
        if not self.tolerance > 0.0:
            raise ConfigError("tolerance must be positive")
        if not self.variants:
            raise ConfigError("variants must not be empty")
        if self.fixed_scale is None:
            if not self.scale_families:
                raise ConfigError("scale_families must not be empty")
            for fam in self.scale_families:
                if fam not in SCALE_FAMILIES:
                    raise ConfigError(f"unknown scale family {fam!r}")
        continuous = (isinstance(self.fixed_scale, RealInterval)
                      or (self.fixed_scale is None and "real" in self.scale_families))
        if continuous and (self.func_family.kind != "poly" or self.weight_family.kind != "poly"):
            raise ConfigError("real-interval trials need polynomial function families")


def _family_from_json(obj: dict, base: FuncFamily) -> FuncFamily:
    if not isinstance(obj, dict):
        raise ConfigError("function family config must be an object")
    known = {"kind", "value_range", "max_degree", "coeff_range"}
    extra = set(obj) - known
    if extra:
        raise ConfigError(f"unknown function family fields {sorted(extra)}")
    merged = dataclasses.asdict(base) | obj
    return FuncFamily(**merged)


def config_from_json(obj: dict) -> TrialConfig:
    """Build a TrialConfig from its JSON form; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    known = {"seed", "trials", "tolerance", "scales", "size_range",
             "func", "weight", "variants", "scale"}
    extra = set(obj) - known
    if extra:
        raise ConfigError(f"unknown config fields {sorted(extra)}")
    base = TrialConfig()
    try:
        return TrialConfig(
            seed=int(obj.get("seed", base.seed)),
            n_trials=int(obj.get("trials", base.n_trials)),
            tolerance=float(obj.get("tolerance", base.tolerance)),
            scale_families=tuple(obj.get("scales", base.scale_families)),
            size_range=tuple(obj.get("size_range", base.size_range)),
            func_family=_family_from_json(obj.get("func", {}), base.func_family),
            weight_family=_family_from_json(obj.get("weight", {}), base.weight_family),
            variants=tuple(obj.get("variants", [v.value for v in base.variants])),
            fixed_scale=scale_from_json(obj["scale"]) if "scale" in obj else None,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def config_to_json(config: TrialConfig) -> dict:
    out = {
        "seed": config.seed,
        "trials": config.n_trials,
        "tolerance": config.tolerance,
        "scales": list(config.scale_families),
        "size_range": list(config.size_range),
        "func": dataclasses.asdict(config.func_family),
        "weight": dataclasses.asdict(config.weight_family),
        "variants": [v.value for v in config.variants],
    }
    if config.fixed_scale is not None:
        out["scale"] = scale_to_json(config.fixed_scale)
    return out


# ---------------------------------------------------------------------------
# random draws


def gen_random_scale(rng: SplitMix64, config: TrialConfig) -> TimeScale:
    """Draw one scale.  Grid points are i.i.d. uniform on [-10, 10] (redrawn
    on collision); integer intervals start anywhere in [-20, 20]; q-lattices
    use q in (1, 3] bounded away from 1 by 1e-6 and exponents from -4."""
    if config.fixed_scale is not None:
        return config.fixed_scale
    family = rng.choice(config.scale_families)
    size = rng.randint(config.size_range[0], config.size_range[1])
    if family == "grid":
        while True:
            pts = sorted(rng.uniform(-10.0, 10.0) for _ in range(size))
            if all(u < v for u, v in zip(pts, pts[1:])):
                return FiniteGrid(points=tuple(pts))
    if family == "integer":
        lo = rng.randint(-20, 20)
        return IntegerInterval(lo=lo, hi=lo + size - 1)
    if family == "qlattice":
        q = 1.0 + 1e-6 + (2.0 - 1e-6) * (1.0 - rng.uniform01())
        kmin = rng.randint(-4, 4)
        return QLattice(q=q, kmin=kmin, kmax=kmin + size - 1)
    if family == "real":
        lo = rng.uniform(-2.0, 1.5)
        return RealInterval(lo=lo, hi=lo + rng.uniform(0.5, 2.5))
    raise ConfigError(f"unknown scale family {family!r}")


def gen_random_func(rng: SplitMix64, ts: TimeScale, family: FuncFamily) -> Func:
    """Draw one function: i.i.d. uniform samples over every scale point, or
    a polynomial with uniform coefficients and degree up to max_degree."""
    if family.kind == "poly" or isinstance(ts, RealInterval):
        degree = rng.randint(0, family.max_degree)
        coeffs = tuple(rng.uniform(-family.coeff_range, family.coeff_range)
                       for _ in range(degree + 1))
        return Polynomial(coeffs=coeffs)
    r = family.value_range
    return Sampled(table={t: rng.uniform(-r, r) for t in ts.all_points()})


def _draw_weights(rng: SplitMix64) -> tuple[float, float]:
    """(alpha, beta) uniform on [0,5]^2 minus the origin; one side is forced
    to zero 10% of the time to exercise the degenerate branches."""
    if rng.uniform01() < 0.1:
        w = rng.uniform(0.0, 5.0)
        if w == 0.0:
            w = 2.5
        return (0.0, w) if rng.uniform01() < 0.5 else (w, 0.0)
    alpha = rng.uniform(0.0, 5.0)
    beta = rng.uniform(0.0, 5.0)
    if alpha == 0.0 and beta == 0.0:
        alpha = 2.5
    return alpha, beta


def _draw_x(rng: SplitMix64, ts: TimeScale) -> float:
    if isinstance(ts, RealInterval):
        return ts.lo + rng.uniform(0.2, 0.8) * (ts.hi - ts.lo)
    interior = ts.all_points()[1:-1]
    return rng.choice(interior)


def _draw_trial(rng: SplitMix64, config: TrialConfig, with_g: bool):
    """Common per-trial draw: scale, x, weights, h, f (and optionally g)."""
    ts = gen_random_scale(rng, config)
    x = _draw_x(rng, ts)
    alpha, beta = _draw_weights(rng)
    h = gen_random_func(rng, ts, config.weight_family)
    f = gen_random_func(rng, ts, config.func_family)
    g = gen_random_func(rng, ts, config.func_family) if with_g else None
    spec = KernelSpec(ts=ts, a=ts.min_point, b=ts.max_point, x=x, alpha=alpha, beta=beta, h=h)
    return spec, f, g


# ---------------------------------------------------------------------------
# reports


@dataclass
class SuiteReport:
    """Aggregated outcome of one suite run.

    ``checks`` maps a check label to its aggregate; ``findings`` hold
    paper-literal violations (expected), ``failures`` everything that
    breaks the engine's guarantees.  ``rows`` carry the per-evaluation
    bound records used for CSV output (bound suites only).
    """

    suite: str
    seed: int
    n_trials: int
    tolerance: float
    checks: dict
    findings: list
    failures: list
    rows: list
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self, include_wall_time: bool = True, include_rows: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.n_trials,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "checks": self.checks,
            "findings": self.findings,
            "failures": self.failures,
        }
        if include_rows:
            out["rows"] = self.rows
        if include_wall_time:
            out["wall_time_s"] = self.wall_time_s
        return out


class _IdentityAgg:
    __slots__ = ("trials", "violations", "max_abs", "max_rel")

    def __init__(self) -> None:
        self.trials = 0
        self.violations = 0
        self.max_abs = 0.0
        self.max_rel = 0.0

    def add(self, residual: float, denom: float, tol: float) -> bool:
        self.trials += 1
        rel = abs(residual) / denom
        self.max_abs = max(self.max_abs, abs(residual))
        self.max_rel = max(self.max_rel, rel)
        ok = rel <= tol
        if not ok:
            self.violations += 1
        return ok

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "passes": self.trials - self.violations,
            "violations": self.violations,
            "max_abs_residual": self.max_abs,
            "max_rel_residual": self.max_rel,
        }


class _BoundAgg:
    __slots__ = ("trials", "violations", "min_slack")

    def __init__(self) -> None:
        self.trials = 0
        self.violations = 0
        self.min_slack = None

    def add(self, rep: BoundReport, tol: float) -> bool:
        self.trials += 1
        if self.min_slack is None or rep.slack < self.min_slack:
            self.min_slack = rep.slack
        ok = rep.passes(tol)
        if not ok:
            self.violations += 1
        return ok

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "passes": self.trials - self.violations,
            "violations": self.violations,
            "min_slack": self.min_slack,
        }


def _require_trials(config: TrialConfig) -> None:
    if config.n_trials < 1:
        raise ConfigError("suite runs need n_trials >= 1")


def _int_f_gdelta(spec: KernelSpec, f: Func, g: Func) -> float:
    """Reference magnitude for the integration-by-parts check."""
    ts = spec.ts
    if isinstance(ts, RealInterval):
        return poly_definite(poly_mul(f.coeffs, poly_derive(g.coeffs)), spec.a, spec.b)
    total = 0.0
    pts = ts.grid_points(spec.a, spec.b)
    for t, nxt in zip(pts, pts[1:] + [spec.b]):
        total += feval(f, t) * (feval(g, nxt) - feval(g, t))
    return total


def _identity_witness(seed: int, trial: int, check: str, spec: KernelSpec,
                      funcs: dict, residual: float, denom: float, **extra) -> dict:
    w = {
        "kind": "identity",
        "seed": seed,
        "trial": trial,
        "check": check,
        "spec": kernel_spec_to_json(spec),
        "residual": residual,
        "denom": denom,
    }
    w.update({k: func_to_json(v) for k, v in funcs.items()})
    w.update(extra)
    return w


def run_identity_suite(config: TrialConfig) -> SuiteReport:
    """Exactness checks: Montgomery identity, integration by parts, the
    product rule, the Korkine rearrangement, the kernel-variance identity,
    the variance envelope, and family closed-form cross-checks."""
    _require_trials(config)
    t0 = time.perf_counter()
    tol = config.tolerance
    labels = ("montgomery-identity", "integration-by-parts", "product-rule",
              "korkine", "kernel-variance", "variance-envelope", "crosscheck")
    aggs = {name: _IdentityAgg() for name in labels}
    failures: list[dict] = []

    for i in range(config.n_trials):
        rng = trial_rng(config.seed, i)
        spec, f, _ = _draw_trial(rng, config, with_g=False)
        ts = spec.ts
        discrete = not isinstance(ts, RealInterval)

        lhs = montgomery_lhs(spec, f)
        rhs = montgomery_rhs(spec, f)
        denom = max(1.0, abs(lhs))
        if not aggs["montgomery-identity"].add(lhs - rhs, denom, tol):
            failures.append(_identity_witness(config.seed, i, "montgomery-identity",
                                              spec, {"f": f}, lhs - rhs, denom))

        r = parts_residual(ts, f, spec.h, spec.a, spec.b)
        denom = max(1.0, abs(_int_f_gdelta(spec, f, spec.h)))
        if not aggs["integration-by-parts"].add(r, denom, tol):
            failures.append(_identity_witness(config.seed, i, "integration-by-parts",
                                              spec, {"f": f}, r, denom))

        if discrete:
            t_probe = rng.choice(ts.grid_points(spec.a, spec.b))
        else:
            t_probe = spec.a + rng.uniform(0.1, 0.9) * (spec.b - spec.a)
        r = product_rule_residual(ts, f, spec.h, t_probe)
        denom = max(1.0, abs(_product_delta(ts, f, spec.h, t_probe)))
        if not aggs["product-rule"].add(r, denom, tol):
            failures.append(_identity_witness(config.seed, i, "product-rule",
                                              spec, {"f": f}, r, denom, t=t_probe))

        if discrete:
            mom = kernel_moments(spec)
            width = spec.b - spec.a
            r = korkine_residual(spec, f)
            denom = max(1.0, abs(lhs) / width)
            if not aggs["korkine"].add(r, denom, tol):
                failures.append(_identity_witness(config.seed, i, "korkine",
                                                  spec, {"f": f}, r, denom))
            r = kernel_variance_residual(spec)
            denom = max(1.0, mom.int_p2 / width)
            if not aggs["kernel-variance"].add(r, denom, tol):
                failures.append(_identity_witness(config.seed, i, "kernel-variance",
                                                  spec, {"f": f}, r, denom))

        variance, bound = gruss_variance_check(ts, f, spec.a, spec.b)
        r = max(0.0, variance - bound)
        denom = max(1.0, bound)
        if not aggs["variance-envelope"].add(r, denom, tol):
            failures.append(_identity_witness(config.seed, i, "variance-envelope",
                                              spec, {"f": f}, r, denom))

        family = _family_of(ts, f, spec.h)
        if family is not None:
            closed = closed_form_rhs(spec, f, family)
            denom = max(1.0, abs(closed))
            if not aggs["crosscheck"].add(rhs - closed, denom, tol):
                failures.append(_identity_witness(config.seed, i, "crosscheck",
                                                  spec, {"f": f}, rhs - closed, denom,
                                                  family=family))

    return SuiteReport(
        suite="identity",
        seed=config.seed,
        n_trials=config.n_trials,
        tolerance=tol,
        checks={name: agg.to_json() for name, agg in aggs.items()},
        findings=[],
        failures=failures,
        rows=[],
        wall_time_s=time.perf_counter() - t0,
    )


def _family_of(ts: TimeScale, f: Func, h: Func) -> str | None:
    if isinstance(ts, IntegerInterval):
        return "Z"
    if isinstance(ts, QLattice):
        return "Q"
    if isinstance(ts, RealInterval) and isinstance(f, Polynomial) and isinstance(h, Polynomial):
        return "R"
    return None


def _product_delta(ts: TimeScale, f: Func, g: Func, t: float) -> float:
    """(fg)^Delta at t, for residual scaling."""
    t = ts.canon(t)
    st = ts.sigma(t)
    if st > t:
        return (feval(f, st) * feval(g, st) - feval(f, t) * feval(g, t)) / (st - t)
    return poly_eval(poly_derive(poly_mul(f.coeffs, g.coeffs)), t)


def _bound_row(trial: int, rep: BoundReport, tol: float) -> dict:
    s = rep.summary
    return {
        "trial_id": trial,
        "theorem": rep.theorem,
        "variant": rep.variant.value,
        "scale_kind": s.scale_kind,
        "a": s.a, "b": s.b, "x": s.x, "alpha": s.alpha, "beta": s.beta,
        "lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack,
        "pass": rep.passes(tol),
    }


def _bound_witness(seed: int, trial: int, rep: BoundReport, spec: KernelSpec,
                   f: Func, g: Func | None, gamma: float, big_gamma: float) -> dict:
    w = {
        "kind": "bound",
        "seed": seed,
        "trial": trial,
        "theorem": rep.theorem,
        "variant": rep.variant.value,
        "spec": kernel_spec_to_json(spec),
        "f": func_to_json(f),
        "gamma": gamma,
        "big_gamma": big_gamma,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "slack": rep.slack,
    }
    if g is not None:
        w["g"] = func_to_json(g)
    return w


def run_bound_suite(config: TrialConfig) -> SuiteReport:
    """Evaluate every theorem under the configured variants per trial.

    Corrected-variant violations are failures; paper-literal violations are
    findings.  T7/T8 are printed weight-scale invariant, so their rows are
    identical across variants.  gamma, Gamma are the exact range of f^Delta.
    The L2-vs-Gruss ordering of the T7 right sides is asserted per trial.
    """
    _require_trials(config)
    t0 = time.perf_counter()
    tol = config.tolerance
    aggs: dict[str, _BoundAgg] = {}
    chain = _IdentityAgg()
    findings: list[dict] = []
    failures: list[dict] = []
    rows: list[dict] = []

    for i in range(config.n_trials):
        rng = trial_rng(config.seed, i)
        spec, f, g = _draw_trial(rng, config, with_g=True)
        gamma, big_gamma = delta_derivative_range(spec.ts, f, spec.a, spec.b)
        t7_l2 = bound_t7(spec, f, "l2")
        t7_gruss = bound_t7(spec, f, "gruss", gamma, big_gamma)
        t8 = bound_t8(spec, f, gamma, big_gamma)
        chain_res = max(0.0, t7_l2.rhs - t7_gruss.rhs)
        if not chain.add(chain_res, max(1.0, t7_gruss.rhs), tol):
            failures.append(_bound_witness(config.seed, i, t7_l2, spec, f, None,
                                           gamma, big_gamma) | {"check": "t7-chain"})

        for variant in config.variants:
            reports = [
                bound_t5(spec, f, variant),
                bound_t6a(spec, f, g, variant),
                bound_t6b(spec, f, g, variant),
                dataclasses.replace(t7_l2, variant=variant),
                dataclasses.replace(t7_gruss, variant=variant),
                dataclasses.replace(t8, variant=variant),
            ]
            for rep in reports:
                key = f"{rep.theorem}/{variant.value}"
                agg = aggs.setdefault(key, _BoundAgg())
                ok = agg.add(rep, tol)
                rows.append(_bound_row(i, rep, tol))
                if not ok:
                    witness = _bound_witness(config.seed, i, rep, spec, f,
                                             g if rep.theorem in ("T6a", "T6b") else None,
                                             gamma, big_gamma)
                    if variant is Variant.CORRECTED:
                        failures.append(witness)
                    else:
                        findings.append(witness)

    checks = {key: agg.to_json() for key, agg in sorted(aggs.items())}
    checks["t7-chain"] = chain.to_json()
    return SuiteReport(
        suite="bounds",
        seed=config.seed,
        n_trials=config.n_trials,
        tolerance=tol,
        checks=checks,
        findings=findings,
        failures=failures,
        rows=rows,
        wall_time_s=time.perf_counter() - t0,
    )


def run_crosscheck_suite(config: TrialConfig, families: tuple[str, ...] = ("Z", "Q", "R")) -> SuiteReport:
    """montgomery_rhs vs the family closed forms on family-matched draws."""
    _require_trials(config)
    t0 = time.perf_counter()
    tol = config.tolerance
    aggs = {fam: _IdentityAgg() for fam in families}
    failures: list[dict] = []
    family_scale = {"Z": ("integer",), "Q": ("qlattice",), "R": ("real",)}

    for fam in families:
        if fam not in family_scale:
            raise ConfigError(f"unknown crosscheck family {fam!r}")
        fam_config = dataclasses.replace(
            config,
            scale_families=family_scale[fam],
            func_family=dataclasses.replace(
                config.func_family, kind="poly" if fam == "R" else config.func_family.kind),
            weight_family=dataclasses.replace(
                config.weight_family, kind="poly" if fam == "R" else config.weight_family.kind),
        )
        for i in range(config.n_trials):
            rng = trial_rng(config.seed, i)
            spec, f, _ = _draw_trial(rng, fam_config, with_g=False)
            generic = montgomery_rhs(spec, f)
            closed = closed_form_rhs(spec, f, fam)
            denom = max(1.0, abs(closed))
            if not aggs[fam].add(generic - closed, denom, tol):
                failures.append({
                    "kind": "crosscheck",
                    "seed": config.seed,
                    "trial": i,
                    "family": fam,
                    "spec": kernel_spec_to_json(spec),
                    "f": func_to_json(f),
                    "generic": generic,
                    "closed": closed,
                    "diff": generic - closed,
                })

    return SuiteReport(
        suite="crosscheck",
        seed=config.seed,
        n_trials=config.n_trials,
        tolerance=tol,
        checks={fam: agg.to_json() for fam, agg in aggs.items()},
        findings=[],
        failures=failures,
        rows=[],
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# sharpness search


@dataclass(frozen=True)
class SharpnessResult:
    """Outcome of the coordinate-ascent tightness probe."""

    theorem: str
    best_ratio: float
    max_ratio_seen: float
    iterations: int
    final_step: float
    violation: bool
    witness_f: dict
    witness_g: dict | None
    spec: dict
    trace: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "best_ratio": self.best_ratio,
            "max_ratio_seen": self.max_ratio_seen,
            "iterations": self.iterations,
            "final_step": self.final_step,
            "violation": self.violation,
            "witness_f": self.witness_f,
            "witness_g": self.witness_g,
            "spec": self.spec,
            "trace": list(self.trace),
        }


def _needs_g(theorem: str) -> bool:
    return theorem in ("T6a", "T6b")


def _sharpness_ratio(theorem: str, spec: KernelSpec, f: Func, g: Func | None,
                     tol: float) -> float:
    if theorem == "T5":
        rep = bound_t5(spec, f, Variant.CORRECTED)
    elif theorem == "T6a":
        rep = bound_t6a(spec, f, g, Variant.CORRECTED)
    elif theorem == "T6b":
        rep = bound_t6b(spec, f, g, Variant.CORRECTED)
    elif theorem == "T7-L2":
        rep = bound_t7(spec, f, "l2")
    elif theorem == "T7-Gruss":
        rep = bound_t7(spec, f, "gruss")
    elif theorem == "T8":
        rep = bound_t8(spec, f)
    else:
        raise UnsupportedTheorem(f"unknown theorem id {theorem!r}")
    if rep.rhs > 0.0:
        return rep.lhs / rep.rhs
    return 0.0 if rep.lhs <= tol else float("inf")


def sharpness_search(theorem: str, spec: KernelSpec, config: TrialConfig) -> SharpnessResult:
    """Maximize lhs/rhs of a Corrected bound over sampled function values.

    Coordinate ascent: starting from a uniform random draw, perturb one
    sample at a time by +/-step (both signs scored), halving the step after
    any full sweep without improvement, down to a floor of 1e-6.  The
    evaluation budget is config.n_trials; the initial draw is free.
    Deterministic given config.seed.
    """
    if theorem not in THEOREMS:
        raise UnsupportedTheorem(f"unknown theorem id {theorem!r}")
    if isinstance(spec.ts, RealInterval):
        raise UnsupportedTheorem("sharpness search runs on discrete scales only")
    rng = trial_rng(config.seed, 0)
    ts = spec.ts
    pts = ts.grid_points(spec.a, spec.b) + [spec.b]
    r = config.func_family.value_range
    f = Sampled(table={t: rng.uniform(-r, r) for t in pts})
    g = Sampled(table={t: rng.uniform(-r, r) for t in pts}) if _needs_g(theorem) else None
    tol = config.tolerance

    def score(ff: Func, gg: Func | None) -> float:
        return _sharpness_ratio(theorem, spec, ff, gg, tol)

    best = score(f, g)
    max_seen = best
    trace = [best]
    coords = [("f", t) for t in pts] + ([("g", t) for t in pts] if g is not None else [])
    budget = config.n_trials
    evals = 0
    step = 0.25 * r
    while evals < budget and step >= STEP_FLOOR:
        improved = False
        for which, t in coords:
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                if which == "f":
                    cand_f = Sampled(table=f.table | {t: f.table[t] + sign * step})
                    cand_g = g
                else:
                    cand_f = f
                    cand_g = Sampled(table=g.table | {t: g.table[t] + sign * step})
                ratio = score(cand_f, cand_g)
                evals += 1
                if ratio > max_seen:
                    max_seen = ratio
                if ratio > best:
                    best, f, g = ratio, cand_f, cand_g
                    trace.append(ratio)
                    improved = True
            if evals >= budget:
                break
        if not improved:
            step *= 0.5

    return SharpnessResult(
        theorem=theorem,
        best_ratio=best,
        max_ratio_seen=max_seen,
        iterations=evals,
        final_step=step,
        violation=max_seen > 1.0 + tol,
        witness_f=func_to_json(f),
        witness_g=func_to_json(g) if g is not None else None,
        spec=kernel_spec_to_json(spec),
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# witness replay


def replay_witness(witness: dict) -> dict:
    """Recompute a recorded witness standalone; returns the fresh numbers."""
    if not isinstance(witness, dict) or "kind" not in witness:
        raise ConfigError("witness must be an object with a 'kind' field")
    kind = witness["kind"]
    spec = kernel_spec_from_json(witness["spec"])
    f = func_from_json(witness["f"])
    if kind == "bound":
        theorem = witness["theorem"]
        variant = Variant(witness["variant"])
        g = func_from_json(witness["g"]) if "g" in witness else None
        if theorem == "T5":
            rep = bound_t5(spec, f, variant)
        elif theorem == "T6a":
            rep = bound_t6a(spec, f, g, variant)
        elif theorem == "T6b":
            rep = bound_t6b(spec, f, g, variant)
        elif theorem == "T7-L2":
            rep = bound_t7(spec, f, "l2")
        elif theorem == "T7-Gruss":
            rep = bound_t7(spec, f, "gruss", witness.get("gamma"), witness.get("big_gamma"))
        elif theorem == "T8":
            rep = bound_t8(spec, f, witness.get("gamma"), witness.get("big_gamma"))
        else:
            raise ConfigError(f"unknown theorem id {theorem!r}")
        return {"lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack}
    if kind == "identity":
        check = witness["check"]
        if check == "montgomery-identity":
            residual = montgomery_lhs(spec, f) - montgomery_rhs(spec, f)
        elif check == "integration-by-parts":
            residual = parts_residual(spec.ts, f, spec.h, spec.a, spec.b)
        elif check == "product-rule":
            residual = product_rule_residual(spec.ts, f, spec.h, witness["t"])
        elif check == "korkine":
            residual = korkine_residual(spec, f)
        elif check == "kernel-variance":
            residual = kernel_variance_residual(spec)
        elif check == "variance-envelope":
            variance, bound = gruss_variance_check(spec.ts, f, spec.a, spec.b)
            residual = max(0.0, variance - bound)
        elif check == "crosscheck":
            residual = montgomery_rhs(spec, f) - closed_form_rhs(spec, f, witness["family"])
        else:
            raise ConfigError(f"unknown identity check {check!r}")
        return {"residual": residual}
    if kind == "crosscheck":
        generic = montgomery_rhs(spec, f)
        closed = closed_form_rhs(spec, f, witness["family"])
        return {"generic": generic, "closed": closed, "diff": generic - closed}
    raise ConfigError(f"unknown witness kind {kind!r}")
