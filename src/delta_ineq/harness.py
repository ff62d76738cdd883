"""Seeded randomized verification suites and the bound-sharpness search.

Reproducibility contract: all randomness flows from a 64-bit SplitMix64
generator (state transition documented on the class).  Each trial derives
its own stream from (seed, trial index), so trials are order-independent
and any recorded witness can be replayed standalone.  Reports are a pure
function of the configuration except for the wall-time field.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field

from .calculus import (
    Func,
    Polynomial,
    Sampled,
    _product_delta,
    _step_table,
    _with_sample,
    func_from_json,
    func_to_json,
    parts_residual,
    poly_definite,
    poly_derive,
    poly_mul,
    product_rule_residual,
)
from .errors import ConfigError, UnsupportedTheorem
from .ostrowski import (
    BOUNDS,
    FAMILIES,
    READS_G,
    THEOREMS,
    BoundReport,
    KernelSpec,
    Variant,
    closed_form_rhs,
    delta_derivative_range,
    evaluate_bounds,
    gruss_variance_check,
    identity_residual,
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
    SCALE_KINDS,
    TimeScale,
    _json_array,
    _json_number,
    scale_from_json,
    scale_to_json,
)

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
STEP_FLOOR = 1e-6
# The longest sequence one draw makes: the points of a scale (size_range) and
# the coefficients of a polynomial (max_degree + 1) number at most this.
MAX_DRAW = 2 ** 16


def _mix64(z: int) -> int:
    """SplitMix64 output stage: xor-shift-multiply finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


# The lane constants of SplitMix64.uniforms for `cap` 128-bit lanes: a 1,
# (k+1)*GOLDEN mod 2^64 and 2^64-1 in lane k.  One set, grown to the next
# power of two past the largest n drawn; a call cuts it to its n lanes.
# It only caches constants, so no draw depends on what was drawn before.
_lanes = (0, 0, 0, 0)
# The lanes are written out in the host's byte order and read back as native
# 64-bit words: lane k's low word is word 2k on a little-endian host and
# word 2n-1-2k, the same step counted from the end, on a big-endian one.
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _lane_constants(n: int) -> tuple[int, int, int]:
    """(ones, ramp, low) for n lanes; low keeps the cached width, since every
    value it masks already has n lanes or fewer."""
    global _lanes
    cap, ones, ramp, low = _lanes
    if cap < n:
        cap = 1 << (n - 1).bit_length()
        ones = int.from_bytes((b"\x01" + bytes(15)) * cap, "little")
        ramp = int.from_bytes(b"".join(((k + 1) * GOLDEN & MASK64).to_bytes(16, "little")
                                       for k in range(cap)), "little")
        low = ones * MASK64
        _lanes = (cap, ones, ramp, low)
    cut = (1 << 128 * n) - 1
    return ones & cut, ramp & cut, low


class SplitMix64:
    """Deterministic 64-bit generator.

    State transition per draw: state <- (state + 0x9E3779B97F4A7C15) mod 2^64,
    output = mix(state) where mix is xor-shift by 30, multiply by
    0xBF58476D1CE4E5B9, xor-shift by 27, multiply by 0x94D049BB133111EB,
    xor-shift by 31.  uniform() maps the top 53 bits onto [0, 1).

    uniforms(n, lo, hi) is n uniform(lo, hi) draws at once, bit for bit and
    leaving the same state: the n states are 128-bit lanes of one int, so
    each step of mix is one big-int operation over all of them, and each
    output is the low 64-bit word of its lane.  Every sequence draw uses it.
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
        # next_u64 and uniform01 inlined: one Python call per scalar draw
        self._state = s = (self._state + GOLDEN) & MASK64
        return lo + (hi - lo) * ((_mix64(s) >> 11) * 2.0 ** -53)

    def uniforms(self, n: int, lo: float, hi: float) -> list[float]:
        """[self.uniform(lo, hi) for _ in range(n)], bit for bit.  The masks
        after the shifts by 30 and 27 keep lane k+1's bits out of lane k's
        product; after the shift by 31 they stay above lane k's low word."""
        s = self._state
        self._state = (s + n * GOLDEN) & MASK64
        ones, ramp, low = _lane_constants(n)
        z = (s * ones + ramp) & low
        z = ((z ^ ((z >> 30) & low)) * MIX1) & low
        z = ((z ^ ((z >> 27) & low)) * MIX2) & low
        z = (z ^ (z >> 31)) >> 11
        span = hi - lo
        return [lo + span * (m * 2.0 ** -53)
                for m in memoryview(z.to_bytes(16 * n, sys.byteorder)).cast("Q")[_LOW_WORDS]]

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
        for name in ("value_range", "coeff_range"):
            if not _json_number(getattr(self, name), name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        if not 0 <= _json_number(self.max_degree, "max_degree", integer=True) < MAX_DRAW:
            raise ConfigError(f"max_degree must be an integer from 0 to {MAX_DRAW - 1}")


_VARIANTS = {v.value: v for v in Variant}


def _row(table: dict, key, what: str):
    """table[key] for a config entry or a witness field; a key that is not a
    known string, such as a list, is a ConfigError."""
    if not isinstance(key, str) or key not in table:
        raise ConfigError(f"unknown {what} {key!r}")
    return table[key]


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
        _json_number(self.seed, "seed", integer=True)
        if _json_number(self.n_trials, "trials", integer=True) < 0:
            raise ConfigError("n_trials must be >= 0")
        object.__setattr__(self, "scale_families",
                           tuple(_json_array(self.scale_families, "scale_families")))
        object.__setattr__(self, "variants", tuple(_row(_VARIANTS, v, "variant")
                                                   for v in _json_array(self.variants, "variants")))
        for name in ("func_family", "weight_family"):
            if not isinstance(getattr(self, name), FuncFamily):
                raise ConfigError(f"{name} must be a FuncFamily, got {getattr(self, name)!r}")
        if not isinstance(self.fixed_scale, (type(None), *SCALE_KINDS.values())):
            raise ConfigError(f"fixed_scale must be a time scale or None, got {self.fixed_scale!r}")
        lo, hi = (_json_number(n, "size_range", integer=True)
                  for n in _json_array(self.size_range, "size_range", 2))
        object.__setattr__(self, "size_range", (lo, hi))
        if not 3 <= lo <= hi <= MAX_DRAW:
            raise ConfigError(f"size_range needs 3 <= min <= max <= {MAX_DRAW}")
        object.__setattr__(self, "tolerance", float(_json_number(self.tolerance, "tolerance")))
        if not self.tolerance > 0.0:
            raise ConfigError("tolerance must be positive")
        if not self.variants:
            raise ConfigError("variants must not be empty")
        if len(set(self.variants)) < len(self.variants):
            raise ConfigError("variants must be distinct")
        if self.fixed_scale is None:
            if not self.scale_families:
                raise ConfigError("scale_families must not be empty")
            for fam in self.scale_families:
                if not isinstance(fam, str) or fam not in SCALE_KINDS:
                    raise ConfigError(f"unknown scale family {fam!r}")
        elif self.fixed_scale.sigma(self.fixed_scale.min_point) == self.fixed_scale.max_point:
            raise ConfigError("a fixed discrete scale needs three points or more")
        continuous = (isinstance(self.fixed_scale, RealInterval)
                      or (self.fixed_scale is None and "real" in self.scale_families))
        if continuous and (self.func_family.kind != "poly" or self.weight_family.kind != "poly"):
            raise ConfigError("real-interval trials need polynomial function families")


def _reject_unknown(obj: dict, known: set[str], what: str) -> None:
    """Raise ConfigError naming every field of obj outside known."""
    extra = set(obj) - known
    if extra:
        raise ConfigError(f"unknown {what} fields {sorted(extra)}")


_FUNC_KEYS = frozenset({"kind", "value_range", "max_degree", "coeff_range"})
_CONFIG_KEYS = frozenset({"seed", "trials", "tolerance", "scales", "size_range",
                          "func", "weight", "variants", "scale"})
# suite: (the config keys it reads, the keys of "func" it reads).  The
# crosscheck suite draws each family's scales itself; sharpness probes one
# fixed spec with one sampled draw per function.
SUITE_CONFIG_KEYS = {
    "identity": (_CONFIG_KEYS - {"variants"}, _FUNC_KEYS),
    "bounds": (_CONFIG_KEYS, _FUNC_KEYS),
    "crosscheck": (_CONFIG_KEYS - {"scales", "variants", "scale"}, _FUNC_KEYS),
    "sharpness": (frozenset({"seed", "trials", "tolerance", "func"}), frozenset({"value_range"})),
}


def _family_from_json(obj: dict, base: FuncFamily, known=_FUNC_KEYS) -> FuncFamily:
    if not isinstance(obj, dict):
        raise ConfigError("function family config must be an object")
    _reject_unknown(obj, known, "function family")
    merged = dataclasses.asdict(base) | obj
    return FuncFamily(**merged)


def config_from_json(obj: dict, suite: str = "bounds") -> TrialConfig:
    """Build a TrialConfig from its JSON form; keys suite does not read are rejected."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    keys, func_keys = SUITE_CONFIG_KEYS[suite]
    _reject_unknown(obj, keys, "config")
    base = TrialConfig()
    return TrialConfig(
        seed=obj.get("seed", base.seed),
        n_trials=obj.get("trials", base.n_trials),
        tolerance=obj.get("tolerance", base.tolerance),
        scale_families=_json_array(obj.get("scales", base.scale_families), "scales"),
        size_range=obj.get("size_range", base.size_range),
        func_family=_family_from_json(obj.get("func", {}), base.func_family, func_keys),
        weight_family=_family_from_json(obj.get("weight", {}), base.weight_family),
        variants=_json_array(obj.get("variants", [v.value for v in base.variants]), "variants"),
        fixed_scale=scale_from_json(obj["scale"]) if "scale" in obj else None,
    )


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
            try:
                return FiniteGrid(points=sorted(rng.uniforms(size, -10.0, 10.0)))
            except ConfigError:         # two points collided: FiniteGrid needs them increasing
                pass
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
        c = family.coeff_range
        return Polynomial._of(tuple(rng.uniforms(degree + 1, -c, c)))
    r = family.value_range
    pts = ts.all_points()
    return Sampled._of(dict(zip(pts, rng.uniforms(len(pts), -r, r))))


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


def _draw_t(rng: SplitMix64, spec: KernelSpec) -> float:
    """The identity suite's t: uniform on the middle 80 % of a window with a
    dense piece, else one of the window's steps, read from h's step table."""
    _, _, _, dense, steps = _step_table(spec.ts, spec.h, spec.a, spec.b)
    if dense:
        return spec.a + rng.uniform(0.1, 0.9) * (spec.b - spec.a)
    return rng.choice(steps)


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
    bound records used for CSV output (bound suites asked to keep them);
    the JSON form leaves them out.
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

    def to_json(self, include_wall_time: bool = True) -> dict:
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
        if include_wall_time:
            out["wall_time_s"] = self.wall_time_s
        return out


def _denom(reference: float) -> float:
    """The denominator of every identity-type check: max(1, |reference|)."""
    return max(1.0, abs(reference))


class _IdentityAgg:
    __slots__ = ("trials", "violations", "max_abs", "max_rel")

    def __init__(self) -> None:
        self.trials = 0
        self.violations = 0
        self.max_abs = 0.0
        self.max_rel = 0.0

    def add(self, residual: float, reference: float, tol: float) -> bool:
        self.trials += 1
        rel = abs(residual) / _denom(reference)
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


class _Recorder:
    """What every suite run shares: the n_trials >= 1 check, the clock, the
    check aggregates in report order, the findings and failures, the CSV
    rows, and the one SuiteReport built from them.  A suite keeps only its
    per-trial work."""

    def __init__(self, suite: str, config: TrialConfig, aggs: dict) -> None:
        if config.n_trials < 1:
            raise ConfigError("suite runs need n_trials >= 1")
        self.suite = suite
        self.config = config
        self.aggs = aggs
        self.findings: list[dict] = []
        self.failures: list[dict] = []
        self.rows: list[dict] = []
        self.t0 = time.perf_counter()

    def check(self, label: str, witness, *measure, finding: bool = False) -> None:
        """Add measure to label's aggregate.  If the check fails, record
        witness() among the findings (finding) or the failures; the witness
        is built only then."""
        if not self.aggs[label].add(*measure, self.config.tolerance):
            (self.findings if finding else self.failures).append(witness())

    def bound_trial(self, labels: dict, trial: int, spec: KernelSpec, f: Func, g: Func,
                    gamma: float, big_gamma: float, once: dict, reports: list,
                    keep_rows: bool) -> None:
        """Record one trial of evaluate_bounds: the t7-chain check of once,
        then per report its CSV row (keep_rows) and its check, under
        labels[theorem, variant] = (its aggregate, whether a failure is a
        finding).  A failing check records its _bound_witness; the trial's
        spec, f and g JSON are built on first need, once per trial, and
        every witness of the trial holds those objects."""
        seed, tol = self.config.seed, self.config.tolerance
        jsons: dict = {}
        if not self.aggs["t7-chain"].add(*_t7_chain(once), tol):
            self.failures.append(
                _bound_witness(seed, trial, once["T7-L2"], *_trial_json(jsons, spec, f),
                               gamma, big_gamma) | {"check": "t7-chain"})
        for rep in reports:
            if keep_rows:
                self.rows.append(bound_row(trial, rep, spec, tol))
            agg, finding = labels[rep.theorem, rep.variant]
            if not agg.add(rep, tol):
                (self.findings if finding else self.failures).append(_bound_witness(
                    seed, trial, rep,
                    *_trial_json(jsons, spec, f, g if rep.theorem in READS_G else None),
                    gamma, big_gamma))

    def report(self) -> SuiteReport:
        return SuiteReport(
            suite=self.suite,
            seed=self.config.seed,
            n_trials=self.config.n_trials,
            tolerance=self.config.tolerance,
            checks={label: agg.to_json() for label, agg in self.aggs.items()},
            findings=self.findings,
            failures=self.failures,
            rows=self.rows,
            wall_time_s=time.perf_counter() - self.t0,
        )


def _int_f_gdelta(spec: KernelSpec, f: Func, g: Func) -> float:
    """Reference magnitude for the integration-by-parts check."""
    mus, _, fv, dense, _ = _step_table(spec.ts, f, spec.a, spec.b)
    gv = _step_table(spec.ts, g, spec.a, spec.b)[2]
    total = 0.0
    for _, ft, gt, gs in zip(mus, fv, gv, gv[1:]):     # one term per step
        total += ft * (gs - gt)
    for lo, hi in dense:
        total += poly_definite(poly_mul(f.coeffs, poly_derive(g.coeffs)), lo, hi)
    return total


def _identity_witness(seed: int, trial: int, check: str, spec: KernelSpec,
                      f: Func, residual: float, reference: float, **extra) -> dict:
    return {
        "kind": "identity",
        "seed": seed,
        "trial": trial,
        "check": check,
        "spec": kernel_spec_to_json(spec),
        "residual": residual,
        "denom": _denom(reference),
        "f": func_to_json(f),
        **extra,
    }


def _variance_envelope(spec: KernelSpec, f: Func, w: dict) -> tuple[float, float]:
    variance, bound = gruss_variance_check(spec.ts, f, spec.a, spec.b)
    return max(0.0, variance - bound), bound


def _crosscheck(spec: KernelSpec, f: Func, w: dict) -> tuple[float, float] | None:
    if w["family"] is None:
        return None
    closed = closed_form_rhs(spec, f, w["family"])
    return montgomery_rhs(spec, f) - closed, closed


# label: (the witness fields the check reads, (spec, f, fields) -> (residual,
# reference) or None where it does not apply), in report order; _IdentityAgg
# forms the denominator.  The sigma walk needs no dense piece (spec._grid[4]).
# The identity suite runs every row, the crosscheck suite its crosscheck row,
# and replay_witness the row a witness names.
IDENTITY_CHECKS = {
    "montgomery-identity": ((), lambda spec, f, w: (
        identity_residual(spec, f), montgomery_lhs(spec, f))),
    "integration-by-parts": ((), lambda spec, f, w: (
        parts_residual(spec.ts, f, spec.h, spec.a, spec.b), _int_f_gdelta(spec, f, spec.h))),
    "product-rule": (("t",), lambda spec, f, w: (
        product_rule_residual(spec.ts, f, spec.h, w["t"]),
        _product_delta(spec.ts, f, spec.h, w["t"]))),
    "korkine": ((), lambda spec, f, w: None if spec._grid[4] else (
        korkine_residual(spec, f), montgomery_lhs(spec, f) / (spec.b - spec.a))),
    "kernel-variance": ((), lambda spec, f, w: None if spec._grid[4] else (
        kernel_variance_residual(spec), kernel_moments(spec).int_p2 / (spec.b - spec.a))),
    "variance-envelope": ((), _variance_envelope),
    "crosscheck": (("family",), _crosscheck),
}


def run_identity_suite(config: TrialConfig) -> SuiteReport:
    """Every row of IDENTITY_CHECKS on each trial; t is drawn per trial."""
    rec = _Recorder("identity", config, {label: _IdentityAgg() for label in IDENTITY_CHECKS})

    for i in range(config.n_trials):
        rng = trial_rng(config.seed, i)
        spec, f, _ = _draw_trial(rng, config, with_g=False)
        trial = {
            "t": _draw_t(rng, spec),
            "family": next((fam for fam, (scale_class, _) in FAMILIES.items()
                            if isinstance(spec.ts, scale_class)), None),
        }
        for label, (keys, measure) in IDENTITY_CHECKS.items():
            w = {key: trial[key] for key in keys}
            measured = measure(spec, f, w)
            if measured is not None:
                rec.check(label, lambda: _identity_witness(config.seed, i, label, spec, f,
                                                           *measured, **w), *measured)
        # let this trial's tables and sigma walk go before the next is drawn
        spec = f = None

    return rec.report()


def bound_row(trial: int, rep: BoundReport, spec: KernelSpec, tol: float) -> dict:
    """One bound evaluation of spec as a CSV row (see reporting.CSV_COLUMNS)."""
    return {
        "trial_id": trial,
        "theorem": rep.theorem,
        "variant": rep.variant.value,
        "scale_kind": spec.ts.kind,
        "a": spec.a, "b": spec.b, "x": spec.x, "alpha": spec.alpha, "beta": spec.beta,
        "lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack,
        "pass": rep.passes(tol),
    }


def _bound_witness(seed: int, trial: int, rep: BoundReport, spec_json: dict,
                   f_json: dict, g_json: dict | None, gamma: float, big_gamma: float) -> dict:
    w = {
        "kind": "bound",
        "seed": seed,
        "trial": trial,
        "theorem": rep.theorem,
        "variant": rep.variant.value,
        "spec": spec_json,
        "f": f_json,
        "gamma": gamma,
        "big_gamma": big_gamma,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "slack": rep.slack,
    }
    if g_json is not None:
        w["g"] = g_json
    return w


def _trial_json(jsons: dict, spec: KernelSpec, f: Func, g: Func | None = None) -> tuple:
    """(spec, f, g) JSON of one trial, g's None when g is.  jsons is the
    trial's dict: each JSON is built on first need and kept there."""
    if not jsons:
        jsons["spec"], jsons["f"] = kernel_spec_to_json(spec), func_to_json(f)
    if g is None:
        return jsons["spec"], jsons["f"], None
    if "g" not in jsons:
        jsons["g"] = func_to_json(g)
    return jsons["spec"], jsons["f"], jsons["g"]


def _t7_chain(reports: dict) -> tuple[float, float]:
    """(residual, reference) of the T7 ordering rhs(T7-L2) <= rhs(T7-Gruss)."""
    l2, gruss = reports["T7-L2"].rhs, reports["T7-Gruss"].rhs
    return max(0.0, l2 - gruss), gruss


def run_bound_suite(config: TrialConfig, keep_rows: bool = False) -> SuiteReport:
    """Evaluate every theorem under the configured variants per trial.

    Corrected-variant violations are failures; paper-literal violations are
    findings.  T7/T8 are printed weight-scale invariant, so their rows are
    identical across variants.  gamma, Gamma are the exact range of f^Delta.
    The L2-vs-Gruss ordering of the T7 right sides is asserted per trial.
    The per-evaluation rows, which only CSV output writes, are kept only
    with keep_rows.  One _Recorder.bound_trial call records each trial.
    """
    keys = {(name, v): f"{name}/{v.value}" for v in config.variants for name in THEOREMS}
    aggs: dict = {key: _BoundAgg() for key in sorted(keys.values())}
    aggs["t7-chain"] = _IdentityAgg()
    rec = _Recorder("bounds", config, aggs)
    labels = {(name, v): (aggs[key], v is not Variant.CORRECTED) for (name, v), key in keys.items()}

    for i in range(config.n_trials):
        rng = trial_rng(config.seed, i)
        spec, f, g = _draw_trial(rng, config, with_g=True)
        gamma, big_gamma = delta_derivative_range(spec.ts, f, spec.a, spec.b)
        once, reports = evaluate_bounds(spec, f, g, config.variants, gamma, big_gamma)
        rec.bound_trial(labels, i, spec, f, g, gamma, big_gamma, once, reports, keep_rows)

    return rec.report()


def run_crosscheck_suite(config: TrialConfig) -> SuiteReport:
    """The crosscheck row of IDENTITY_CHECKS, montgomery_rhs vs each family's
    closed form, on draws of the family's scale class; a failure is that
    row's identity witness."""
    rec = _Recorder("crosscheck", config, {fam: _IdentityAgg() for fam in FAMILIES})
    measure = IDENTITY_CHECKS["crosscheck"][1]

    for fam, (scale_class, _) in FAMILIES.items():
        w = {"family": fam}
        poly = {"kind": "poly"} if fam == "R" else {}
        fam_config = dataclasses.replace(
            config, scale_families=(scale_class.kind,),
            func_family=dataclasses.replace(config.func_family, **poly),
            weight_family=dataclasses.replace(config.weight_family, **poly))
        for i in range(config.n_trials):
            rng = trial_rng(config.seed, i)
            spec, f, _ = _draw_trial(rng, fam_config, with_g=False)
            measured = measure(spec, f, w)
            rec.check(fam, lambda: _identity_witness(config.seed, i, "crosscheck", spec, f,
                                                     *measured, **w), *measured)

    return rec.report()


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
        return dataclasses.asdict(self)


def sharpness_search(theorem: str, spec: KernelSpec, config: TrialConfig) -> SharpnessResult:
    """Maximize lhs/rhs of a Corrected bound over sampled function values.

    Coordinate ascent: starting from a uniform random draw, perturb one
    sample at a time by +/-step (both signs scored), halving the step after
    any full sweep without improvement, down to a floor of 1e-6, over f's
    samples, then g's for the theorems that read g.  The evaluation budget is
    config.n_trials; the initial draw is free.  Deterministic given
    config.seed.  Each candidate takes its step table from the function it
    perturbs (``_with_sample``), so the window is tabulated once per search,
    and the sums of the function it leaves alone are kept per spec in that
    function's memo.
    """
    if theorem not in THEOREMS:
        raise UnsupportedTheorem(f"unknown theorem id {theorem!r}")
    steps, dense = spec.ts.pieces(spec.a, spec.b)
    if dense:
        raise UnsupportedTheorem("sharpness search runs on discrete scales only")
    rng = trial_rng(config.seed, 0)
    pts = steps + [spec.b]
    r = config.func_family.value_range
    funcs = [Sampled._of(dict(zip(pts, rng.uniforms(len(pts), -r, r))))
             for _ in range(2 if theorem in READS_G else 1)]
    tol = config.tolerance

    def score(f: Func, g: Func | None = None) -> float:
        rep = BOUNDS[theorem](spec, f, g, Variant.CORRECTED, None, None)
        if rep.rhs > 0.0:
            return rep.lhs / rep.rhs
        return 0.0 if rep.lhs <= tol else float("inf")

    best = score(*funcs)
    max_seen = best
    trace = [best]
    coords = [(k, i, t) for k in range(len(funcs)) for i, t in enumerate(pts)]
    budget = config.n_trials
    evals = 0
    step = 0.25 * r
    while evals < budget and step >= STEP_FLOOR:
        improved = False
        for k, i, t in coords:
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                cand = funcs.copy()
                cand[k] = _with_sample(spec.ts, funcs[k], spec.a, spec.b, i, t,
                                       funcs[k].table[t] + sign * step)
                ratio = score(*cand)
                evals += 1
                if ratio > max_seen:
                    max_seen = ratio
                if ratio > best:
                    best, funcs = ratio, cand
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
        witness_f=func_to_json(funcs[0]),
        witness_g=func_to_json(funcs[1]) if len(funcs) > 1 else None,
        spec=kernel_spec_to_json(spec),
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# witness replay


class _Witness(dict):
    """A witness whose missing field is a ConfigError naming it."""

    def __missing__(self, name: str):
        raise ConfigError(f"witness missing field {name!r}")


def replay_witness(witness: dict) -> dict:
    """Recompute a recorded witness standalone; returns the fresh numbers.
    An identity witness is replayed through its row of IDENTITY_CHECKS; a
    t7-chain witness also gives the chain's residual and denominator."""
    if not isinstance(witness, dict) or "kind" not in witness:
        raise ConfigError("witness must be an object with a 'kind' field")
    witness = _Witness(witness)
    kind = witness["kind"]
    spec = kernel_spec_from_json(witness["spec"])
    f = func_from_json(witness["f"])
    if kind == "bound":
        bound = _row(BOUNDS, witness["theorem"], "theorem id")
        variant = _row(_VARIANTS, witness["variant"], "variant")
        g = func_from_json(witness["g"]) if "g" in witness else None
        gammas = witness.get("gamma"), witness.get("big_gamma")
        rep = bound(spec, f, g, variant, *gammas)
        out = {"lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack}
        if witness.get("check") == "t7-chain":
            residual, reference = _t7_chain({name: BOUNDS[name](spec, f, None, variant, *gammas)
                                             for name in ("T7-L2", "T7-Gruss")})
            out |= {"residual": residual, "denom": _denom(reference)}
        return out
    if kind == "identity":
        check = witness["check"]
        measured = _row(IDENTITY_CHECKS, check, "identity check")[1](spec, f, witness)
        if measured is None:
            raise ConfigError(f"identity check {check!r} does not apply to this witness")
        return {"residual": measured[0]}
    raise ConfigError(f"unknown witness kind {kind!r}")
