"""Deterministic RNG, trial draws, suite runners, sharpness, replay."""

import json
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_ineq import (
    ConfigError,
    FiniteGrid,
    FuncFamily,
    IntegerInterval,
    InvalidBounds,
    KernelSpec,
    Polynomial,
    QLattice,
    RealInterval,
    Sampled,
    SharpnessResult,
    SplitMix64,
    TrialConfig,
    UnsupportedTheorem,
    Variant,
    config_from_json,
    config_to_json,
    func_to_json,
    gen_random_func,
    gen_random_scale,
    json_dumps,
    kernel_spec_from_json,
    kernel_spec_to_json,
    replay_witness,
    run_bound_suite,
    run_crosscheck_suite,
    run_identity_suite,
    sharpness_search,
    trial_rng,
)
from delta_ineq import harness, ostrowski
from delta_ineq.harness import STEP_FLOOR
from delta_ineq.ostrowski import BOUNDS
from delta_ineq.timescale import _ScaleBase
from test_golden import POLY_ALL_SCALES, REAL_POLY

IDENT = Polynomial((0.0, 1.0))
Z08_SPEC = KernelSpec(ts=IntegerInterval(0, 8), a=0.0, b=8.0, x=4.0,
                      alpha=1.0, beta=1.0, h=IDENT)


# ---------------------------------------------------------------------- rng

def reference_splitmix64(seed, n):
    """Straight transcription of the published algorithm, kept separate
    from the class under test."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_known_vector():
    # first outputs for seed 0, as published with the reference C code
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@given(st.integers(0, 2 ** 64 - 1))
@settings(max_examples=50)
def test_splitmix64_matches_reference(seed):
    r = SplitMix64(seed)
    assert [r.next_u64() for _ in range(8)] == reference_splitmix64(seed, 8)


def test_uniform01_range_and_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    xs = [a.uniform01() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert xs == [b.uniform01() for _ in range(1000)]


def test_uniform_draws_are_pinned():
    # the draws of the next_u64 path: uniform() and uniforms() must keep
    # them bit for bit
    pinned = ["-0x1.449fb3185a022p+0", "-0x1.bf3c821e62246p-1", "-0x1.57af1d733b0cap+0"]
    r = SplitMix64(12345)
    assert [r.uniform(-2.0, 3.5).hex() for _ in range(3)] == pinned
    assert [r.uniform01().hex() for _ in range(3)] == [
        "0x1.68b073f2e1fa0p-3", "0x1.0385cdb9301afp-1", "0x1.591f956b64cfcp-2"]
    assert [x.hex() for x in SplitMix64(12345).uniforms(3, -2.0, 3.5)] == pinned


ENDS = st.one_of(st.floats(-1e300, 1e300),
                 st.sampled_from((-1e300, 1e300, -0.0, 0.0, -8, 8)))


@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 600), ENDS, ENDS, st.booleans())
@settings(max_examples=150)
def test_uniforms_are_bit_equal_to_scalar_draws(seed, n, lo, hi, same):
    if same:
        hi = lo
    batch, scalar = SplitMix64(seed), SplitMix64(seed)
    assert ([x.hex() for x in batch.uniforms(n, lo, hi)]
            == [scalar.uniform(lo, hi).hex() for _ in range(n)])
    assert batch.next_u64() == scalar.next_u64()


def test_uniforms_cross_every_growth_of_the_lane_cache(monkeypatch):
    monkeypatch.setattr(harness, "_lanes", (0, 0, 0, 0))
    batch, scalar = SplitMix64(99), SplitMix64(99)
    caps = set()
    for n in range(601):
        assert ([x.hex() for x in batch.uniforms(n, -8.0, 8.0)]
                == [scalar.uniform(-8.0, 8.0).hex() for _ in range(n)]), n
        caps.add(harness._lanes[0])
    assert sorted(caps) == [0] + [2 ** k for k in range(11)]
    assert batch.next_u64() == scalar.next_u64()
    # a set grown past n serves a smaller n too
    assert batch.uniforms(5, 0.0, 1.0) == [scalar.uniform(0.0, 1.0) for _ in range(5)]


def test_each_byte_order_reads_the_low_word_of_every_lane():
    # a big-endian host reads the lanes' words from the other end
    n = 5
    words = [trial_rng(8, k).next_u64() for k in range(2 * n)]
    z = 0
    for k, w in enumerate(words):
        z |= w << 64 * k
    for order, code, step in (("little", "<", 2), ("big", ">", -2)):
        raw = struct.unpack(f"{code}{2 * n}Q", z.to_bytes(16 * n, order))
        assert list(raw[::step]) == words[::2]
    assert harness._LOW_WORDS.step == (2 if sys.byteorder == "little" else -2)


def test_randint_and_choice_bounds():
    r = SplitMix64(7)
    vals = [r.randint(3, 5) for _ in range(200)]
    assert set(vals) == {3, 4, 5}
    seq = ["a", "b", "c"]
    assert all(r.choice(seq) in seq for _ in range(50))


def test_trial_rng_streams_are_stable_and_distinct():
    assert trial_rng(1, 0).next_u64() == trial_rng(1, 0).next_u64()
    outs = {trial_rng(1, i).next_u64() for i in range(100)}
    assert len(outs) == 100


# ------------------------------------------------------------ configuration

def test_config_defaults_and_validation():
    cfg = TrialConfig()
    assert cfg.seed == 0 and cfg.n_trials == 100
    with pytest.raises(ConfigError):
        TrialConfig(n_trials=-1)
    with pytest.raises(ConfigError):
        TrialConfig(size_range=(2, 5))
    with pytest.raises(ConfigError):
        TrialConfig(tolerance=0.0)
    for bad in ({"tolerance": float("inf")}, {"seed": 1.0}, {"n_trials": True},
                {"size_range": (3.0, 8)}, {"fixed_scale": IntegerInterval(0, 1)}):
        with pytest.raises(ConfigError):
            TrialConfig(**bad)
    for bad in ({"max_degree": 2.0}, {"value_range": float("inf")}, {"coeff_range": 10 ** 400}):
        with pytest.raises(ConfigError):
            FuncFamily(**bad)
    with pytest.raises(ConfigError):
        TrialConfig(scale_families=("moebius",))
    with pytest.raises(ConfigError):
        TrialConfig(scale_families=())


def test_config_variants_must_be_distinct():
    # a repeated variant would count every evaluation of its keys twice
    with pytest.raises(ConfigError, match="distinct"):
        TrialConfig(variants=("corrected", "corrected"))
    with pytest.raises(ConfigError, match="distinct"):
        config_from_json({"variants": ["literal", "corrected", "literal"]})


# one valid value per config key, and per key of "func"
CONFIG_PROBES = {
    "seed": 1, "trials": 2, "tolerance": 1e-9, "scales": ["integer"],
    "size_range": [3, 8], "func": {}, "weight": {}, "variants": ["corrected"],
    "scale": {"kind": "integer", "lo": 0, "hi": 8},
}
FUNC_PROBES = {"kind": "sampled", "value_range": 4.0, "max_degree": 2, "coeff_range": 1.0}


def _accepted(suite, objs):
    keys = set()
    for key, obj in objs.items():
        try:
            config_from_json(obj, suite)
        except ConfigError:
            continue
        keys.add(key)
    return keys


def test_config_keys_per_suite_are_pinned():
    """The config keys each suite reads, found by trying each one alone; a
    new key is a deliberate edit here."""
    every = set(CONFIG_PROBES)
    want = {
        "identity": (every - {"variants"}, set(FUNC_PROBES)),
        "bounds": (every, set(FUNC_PROBES)),
        "crosscheck": (every - {"scales", "variants", "scale"}, set(FUNC_PROBES)),
        "sharpness": ({"seed", "trials", "tolerance", "func"}, {"value_range"}),
    }
    got = {suite: (_accepted(suite, {k: {k: v} for k, v in CONFIG_PROBES.items()}),
                   _accepted(suite, {k: {"func": {k: v}} for k, v in FUNC_PROBES.items()}))
           for suite in want}
    assert got == want
    assert config_from_json(CONFIG_PROBES) == config_from_json(CONFIG_PROBES, "bounds")


def test_config_real_scale_needs_polynomials():
    with pytest.raises(ConfigError):
        TrialConfig(scale_families=("real",))
    TrialConfig(scale_families=("real",),
                func_family=FuncFamily(kind="poly"),
                weight_family=FuncFamily(kind="poly"))


def test_config_json_round_trip():
    cfg = TrialConfig(seed=9, n_trials=17, tolerance=1e-9,
                      scale_families=("integer", "qlattice"),
                      size_range=(4, 12))
    assert config_from_json(config_to_json(cfg)) == cfg


def test_config_json_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_json({"trials": 5, "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_json({"trials": "many"})
    with pytest.raises(ConfigError):
        config_from_json({"trials": float("inf")})


def test_config_fixed_scale_round_trip():
    cfg = config_from_json({"scale": {"kind": "integer", "lo": 0, "hi": 9}})
    assert cfg.fixed_scale == IntegerInterval(0, 9)
    assert config_from_json(config_to_json(cfg)) == cfg


# -------------------------------------------------------------------- draws

def test_gen_random_scale_respects_families_and_sizes():
    cfg = TrialConfig(size_range=(3, 8))
    kinds = set()
    for i in range(300):
        ts = gen_random_scale(trial_rng(5, i), cfg)
        kinds.add(type(ts).__name__)
        pts = ts.all_points()
        assert 3 <= len(pts) <= 8
        if isinstance(ts, QLattice):
            assert 1.0 < ts.q <= 3.0
    assert kinds == {"FiniteGrid", "IntegerInterval", "QLattice"}


def test_gen_random_scale_fixed_short_circuit():
    fixed = IntegerInterval(0, 6)
    cfg = TrialConfig(fixed_scale=fixed)
    assert gen_random_scale(trial_rng(0, 0), cfg) is fixed


def test_gen_random_func_kinds():
    rng = trial_rng(3, 1)
    ts = IntegerInterval(0, 5)
    s = gen_random_func(rng, ts, FuncFamily())
    assert isinstance(s, Sampled)
    assert set(s.table) == set(ts.all_points())
    assert all(abs(v) <= 8.0 for v in s.table.values())
    p = gen_random_func(rng, ts, FuncFamily(kind="poly", max_degree=3))
    assert isinstance(p, Polynomial)
    assert len(p.coeffs) <= 4
    # real scales force polynomials no matter the family kind
    r = gen_random_func(rng, RealInterval(0.0, 1.0), FuncFamily())
    assert isinstance(r, Polynomial)


def _ref_scale(rng, config):
    """gen_random_scale as a scalar loop, one uniform() per grid point."""
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
    lo = rng.uniform(-2.0, 1.5)
    return RealInterval(lo=lo, hi=lo + rng.uniform(0.5, 2.5))


def _ref_func(rng, ts, family):
    """gen_random_func as scalar loops, one uniform() per value."""
    if family.kind == "poly" or isinstance(ts, RealInterval):
        degree = rng.randint(0, family.max_degree)
        coeffs = []
        for _ in range(degree + 1):
            coeffs.append(rng.uniform(-family.coeff_range, family.coeff_range))
        return Polynomial(coeffs=tuple(coeffs))
    r = family.value_range
    return Sampled(table={t: rng.uniform(-r, r) for t in ts.all_points()})


def _ref_trial(rng, config):
    ts = _ref_scale(rng, config)
    x = harness._draw_x(rng, ts)
    alpha, beta = harness._draw_weights(rng)
    h = _ref_func(rng, ts, config.weight_family)
    f = _ref_func(rng, ts, config.func_family)
    g = _ref_func(rng, ts, config.func_family)
    return KernelSpec(ts=ts, a=ts.min_point, b=ts.max_point, x=x, alpha=alpha, beta=beta, h=h), f, g


POLY = FuncFamily(kind="poly", max_degree=5, coeff_range=3.5)
DRAW_CONFIGS = {
    "grid": TrialConfig(scale_families=("grid",)),
    "integer": TrialConfig(scale_families=("integer",), size_range=(3, 40)),
    "qlattice": TrialConfig(scale_families=("qlattice",), func_family=FuncFamily(value_range=3)),
    "real": TrialConfig(scale_families=("real",), func_family=POLY, weight_family=POLY),
    "large-poly-f": TrialConfig(size_range=(200, 256), func_family=POLY),
}


@pytest.mark.parametrize("name", DRAW_CONFIGS)
def test_trial_draw_matches_the_scalar_loops(name):
    config = DRAW_CONFIGS[name]
    for i in range(200):
        rng, ref_rng = trial_rng(7, i), trial_rng(7, i)
        got = harness._draw_trial(rng, config, with_g=True)
        want = _ref_trial(ref_rng, config)
        # the JSON text tells a float from an int and keeps every bit
        assert json.dumps([kernel_spec_to_json(got[0]), func_to_json(got[1]), func_to_json(got[2])]) \
            == json.dumps([kernel_spec_to_json(want[0]), func_to_json(want[1]), func_to_json(want[2])])
        assert rng.next_u64() == ref_rng.next_u64()


@pytest.mark.parametrize("theorem", ["T5", "T6b"])
@pytest.mark.parametrize("spec", [Z08_SPEC, KernelSpec(
    ts=FiniteGrid((-3.0, -1.25, 0.5, 2.0, 2.5, 4.0)), a=-1.25, b=2.5, x=0.5,
    alpha=2.0, beta=0.5, h=IDENT)], ids=["integer", "inner-grid-window"])
def test_sharpness_initial_draw_matches_the_scalar_loop(theorem, spec):
    for seed in range(20):
        config = TrialConfig(seed=seed, n_trials=0, func_family=FuncFamily(value_range=5.5))
        res = sharpness_search(theorem, spec, config)
        rng = trial_rng(seed, 0)
        pts = spec.ts.grid_points(spec.a, spec.b) + [spec.b]
        ref = [func_to_json(Sampled({t: rng.uniform(-5.5, 5.5) for t in pts}))
               for _ in range(2 if theorem == "T6b" else 1)]
        assert json.dumps([res.witness_f, res.witness_g]) == json.dumps(ref + [None] * (2 - len(ref)))


# ------------------------------------------------------------------- suites

def test_identity_suite_passes_and_is_deterministic():
    cfg = TrialConfig(seed=21, n_trials=150)
    a = run_identity_suite(cfg)
    b = run_identity_suite(cfg)
    assert a.passed
    assert a.to_json(include_wall_time=False) == b.to_json(include_wall_time=False)
    for name in ("montgomery-identity", "integration-by-parts", "product-rule",
                 "korkine", "kernel-variance", "variance-envelope"):
        assert a.checks[name]["violations"] == 0, name


def test_identity_suite_requires_trials():
    with pytest.raises(ConfigError):
        run_identity_suite(TrialConfig(n_trials=0))


def test_bound_suite_shape_and_verdicts():
    cfg = TrialConfig(seed=13, n_trials=120)
    rep = run_bound_suite(cfg, keep_rows=True)
    assert rep.passed                       # corrected bounds never fail
    assert rep.findings                     # literal printings do fail
    assert not rep.failures
    assert len(rep.rows) == 120 * 6 * 2     # trials x theorems x variants
    for row in rep.rows:
        assert row["slack"] == row["rhs"] - row["lhs"]
    for key in ("T5/corrected", "T6b/literal", "t7-chain"):
        assert key in rep.checks


def test_bound_suite_keeps_rows_only_when_asked():
    cfg = TrialConfig(seed=13, n_trials=30)
    lean = run_bound_suite(cfg)
    full = run_bound_suite(cfg, keep_rows=True)
    assert lean.rows == [] and len(full.rows) == 30 * 6 * 2
    assert lean.to_json(include_wall_time=False) == full.to_json(include_wall_time=False)


def test_bound_suite_findings_replay_bit_exact():
    rep = run_bound_suite(TrialConfig(seed=13, n_trials=60))
    assert rep.findings
    for witness in rep.findings[:10]:
        fresh = replay_witness(witness)
        assert fresh["lhs"] == witness["lhs"]
        assert fresh["rhs"] == witness["rhs"]


def test_crosscheck_suite_all_families():
    rep = run_crosscheck_suite(TrialConfig(seed=2, n_trials=80))
    assert rep.passed
    assert set(rep.checks) == {"Z", "Q", "R"}
    for agg in rep.checks.values():
        assert agg["trials"] == 80
        assert agg["violations"] == 0
        assert agg["max_rel_residual"] <= 1e-12


def test_suites_build_witnesses_only_for_failing_checks(monkeypatch):
    calls = {"_identity_witness": 0, "_bound_witness": 0}
    for name in calls:
        real = getattr(harness, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    assert run_identity_suite(TrialConfig(seed=1, n_trials=30)).passed
    assert run_bound_suite(TrialConfig(seed=1, n_trials=30,
                                       variants=(Variant.CORRECTED,))).passed
    assert calls == {"_identity_witness": 0, "_bound_witness": 0}
    # the counters do count: each recorded failure or finding built one witness
    failing = run_identity_suite(TrialConfig(seed=1, n_trials=30, tolerance=1e-300))
    literal = run_bound_suite(TrialConfig(seed=1, n_trials=30,
                                          variants=(Variant.PAPER_LITERAL,)))
    assert calls["_identity_witness"] == len(failing.failures) > 0
    assert calls["_bound_witness"] == len(literal.findings) + len(literal.failures) > 0


def test_one_bound_trial_reads_the_range_of_f_delta_once(monkeypatch):
    # evaluate_bounds checks the bracket once for T7-Gruss and T8 and hands
    # the (gamma, Gamma) it read back to the suite
    calls = {"delta_derivative_range": 0, "_check_bracket": 0}
    for name in calls:
        def counted(*args, _real=getattr(ostrowski, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(ostrowski, name, counted)
    for seed in range(8):
        for name in calls:
            calls[name] = 0
        config = TrialConfig(seed=seed, n_trials=1, variants=(Variant.PAPER_LITERAL,
                                                              Variant.CORRECTED))
        assert run_bound_suite(config).checks["T8/corrected"]["trials"] == 1
        assert calls == {"delta_derivative_range": 1, "_check_bracket": 1}


def test_witnesses_of_one_bound_trial_share_its_spec_and_functions():
    config = TrialConfig(seed=1, n_trials=60,
                         variants=(Variant.PAPER_LITERAL, Variant.CORRECTED))
    rep = run_bound_suite(config)
    by_trial = {}
    for w in rep.findings + rep.failures:
        by_trial.setdefault(w["trial"], []).append(w)
    shared = [ws for ws in by_trial.values() if len(ws) > 1]
    assert shared
    for ws in shared:
        assert all(w["spec"] is ws[0]["spec"] and w["f"] is ws[0]["f"] for w in ws)
        gs = [w["g"] for w in ws if "g" in w]
        assert all(g is gs[0] for g in gs)
        # each is still the JSON of the trial's own draw
        spec, f, g = harness._draw_trial(trial_rng(1, ws[0]["trial"]), config, with_g=True)
        assert ws[0]["spec"] == kernel_spec_to_json(spec) and ws[0]["f"] == func_to_json(f)
        assert all(w_g == func_to_json(g) for w_g in gs)


def test_korkine_witnesses_replay_bit_exact(monkeypatch):
    """Every identity witness of a suite run, written and read back as JSON,
    replays to its recorded residual bit for bit: all seven checks, on the
    default discrete draws and on polynomials over all four scale kinds,
    so the product rule at a dense t and all three crosscheck families too."""
    real_add = harness._IdentityAgg.add

    def failing(self, residual, reference, tol):  # record every check's witness
        real_add(self, residual, reference, tol)
        return False

    monkeypatch.setattr(harness._IdentityAgg, "add", failing)
    for config in (TrialConfig(seed=3, n_trials=40),
                   config_from_json(POLY_ALL_SCALES | {"seed": 3, "trials": 40}, "identity")):
        rep = run_identity_suite(config)
        witnesses = json.loads(json_dumps(rep.to_json()))["failures"]
        assert {w["check"] for w in witnesses} == set(harness.IDENTITY_CHECKS)
        assert any(w["residual"] != 0.0 for w in witnesses)
        for w in witnesses:
            assert replay_witness(w)["residual"].hex() == float(w["residual"]).hex()
    assert {w["family"] for w in witnesses if w["check"] == "crosscheck"} == {"Z", "Q", "R"}
    assert any(w["spec"]["scale"]["kind"] == "real"
               for w in witnesses if w["check"] == "product-rule")


def test_crosscheck_failures_replay_through_their_row():
    """A crosscheck-suite failure is the identity witness of the crosscheck
    row, written and read back as JSON, and replays to its residual bit for
    bit."""
    rep = run_crosscheck_suite(TrialConfig(seed=5, n_trials=60, tolerance=1e-300))
    witnesses = json.loads(json_dumps(rep.to_json()))["failures"]
    assert len(witnesses) >= 30         # Z and R read 0.0 on these draws; Q does not
    for w in witnesses:
        assert (w["kind"], w["check"]) == ("identity", "crosscheck")
        assert replay_witness(w)["residual"].hex() == float(w["residual"]).hex()


def test_suite_report_json_shape():
    rep = run_identity_suite(TrialConfig(seed=1, n_trials=5))
    d = rep.to_json()
    assert d["suite"] == "identity" and d["trials"] == 5
    assert "wall_time_s" in d and "rows" not in d
    d2 = rep.to_json(include_wall_time=False)
    assert "wall_time_s" not in d2 and "rows" not in d2


# ---------------------------------------------------------------- sharpness

def test_sharpness_t5_reaches_near_one():
    res = sharpness_search("T5", Z08_SPEC, TrialConfig(seed=0, n_trials=5000))
    assert res.best_ratio >= 0.99
    assert res.max_ratio_seen <= 1.0 + 1e-10
    assert not res.violation
    assert res.iterations <= 5000


def test_sharpness_trace_monotone_and_budget_zero():
    res = sharpness_search("T5", Z08_SPEC, TrialConfig(seed=4, n_trials=300))
    assert all(u <= v for u, v in zip(res.trace, res.trace[1:]))
    assert res.iterations <= 300
    base = sharpness_search("T5", Z08_SPEC, TrialConfig(seed=4, n_trials=0))
    assert base.iterations == 0
    assert len(base.trace) == 1


def test_sharpness_needs_discrete_scale():
    spec = KernelSpec(ts=RealInterval(0.0, 2.0), a=0.0, b=2.0, x=1.0,
                      alpha=1.0, beta=1.0, h=IDENT)
    cfg = TrialConfig(n_trials=10, scale_families=("real",),
                      func_family=FuncFamily(kind="poly"),
                      weight_family=FuncFamily(kind="poly"))
    with pytest.raises(UnsupportedTheorem):
        sharpness_search("T5", spec, cfg)


def test_sharpness_unknown_theorem():
    with pytest.raises(UnsupportedTheorem):
        sharpness_search("T9", Z08_SPEC, TrialConfig(n_trials=5))


def test_sharpness_result_round_trips_witness():
    res = sharpness_search("T5", Z08_SPEC, TrialConfig(seed=0, n_trials=200))
    d = res.to_json()
    assert d["theorem"] == "T5"
    assert d["best_ratio"] == res.best_ratio
    assert len(d["trace"]) == len(res.trace)


def _reference_search(theorem, spec, config):
    """The coordinate ascent of sharpness_search, with every candidate a
    fresh Sampled and every evaluation on fresh copies of the spec, f and g,
    so no step table or kernel sum carries over between evaluations."""
    rng = trial_rng(config.seed, 0)
    pts = spec.ts.grid_points(spec.a, spec.b) + [spec.b]
    r = config.func_family.value_range
    f = Sampled({t: rng.uniform(-r, r) for t in pts})
    g = Sampled({t: rng.uniform(-r, r) for t in pts}) if theorem in ("T6a", "T6b") else None

    def score(ff, gg):
        rep = BOUNDS[theorem](kernel_spec_from_json(kernel_spec_to_json(spec)),
                              Sampled(dict(ff.table)),
                              None if gg is None else Sampled(dict(gg.table)),
                              Variant.CORRECTED, None, None)
        if rep.rhs > 0.0:
            return rep.lhs / rep.rhs
        return 0.0 if rep.lhs <= config.tolerance else float("inf")

    best = max_seen = score(f, g)
    trace = [best]
    coords = [("f", t) for t in pts] + ([("g", t) for t in pts] if g is not None else [])
    evals, step = 0, 0.25 * r
    while evals < config.n_trials and step >= STEP_FLOOR:
        improved = False
        for which, t in coords:
            for sign in (1.0, -1.0):
                if evals >= config.n_trials:
                    break
                cand_f, cand_g = f, g
                if which == "f":
                    cand_f = Sampled(f.table | {t: f.table[t] + sign * step})
                else:
                    cand_g = Sampled(g.table | {t: g.table[t] + sign * step})
                ratio = score(cand_f, cand_g)
                evals += 1
                max_seen = max(max_seen, ratio)
                if ratio > best:
                    best, f, g = ratio, cand_f, cand_g
                    trace.append(ratio)
                    improved = True
            if evals >= config.n_trials:
                break
        if not improved:
            step *= 0.5
    return SharpnessResult(
        theorem=theorem, best_ratio=best, max_ratio_seen=max_seen, iterations=evals,
        final_step=step, violation=max_seen > 1.0 + config.tolerance,
        witness_f=func_to_json(f), witness_g=func_to_json(g) if g is not None else None,
        spec=kernel_spec_to_json(spec), trace=tuple(trace))


SEARCH_SPECS = {
    "integer": KernelSpec(ts=IntegerInterval(0, 20), a=0.0, b=20.0, x=9.0,
                          alpha=1.0, beta=2.0, h=IDENT),
    "grid-inner": KernelSpec(ts=FiniteGrid((-3.0, -2.5, -1.0, 0.25, 0.5, 2.0, 3.5, 4.0)),
                             a=-2.5, b=3.5, x=0.25, alpha=0.5, beta=1.5,
                             h=Sampled({t: 0.5 * t * t for t in (-3.0, -2.5, -1.0, 0.25,
                                                                  0.5, 2.0, 3.5, 4.0)})),
}


@pytest.mark.parametrize("theorem", ["T5", "T6a", "T6b", "T8"])
@pytest.mark.parametrize("case", sorted(SEARCH_SPECS))
def test_sharpness_search_is_bit_equal_to_fresh_candidates(theorem, case):
    spec = SEARCH_SPECS[case]
    config = TrialConfig(seed=3, n_trials=300)
    got = sharpness_search(theorem, spec, config)
    want = _reference_search(theorem, spec, config)
    assert got.iterations == 300
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_sharpness_search_enumerates_its_window_a_fixed_number_of_times(monkeypatch):
    calls = []
    enumerate_points = _ScaleBase.grid_points

    def counted(self, a, b):
        calls.append((a, b))
        return enumerate_points(self, a, b)

    monkeypatch.setattr(_ScaleBase, "grid_points", counted)
    counts = []
    for budget in (100, 1000):
        calls.clear()
        spec = kernel_spec_from_json(kernel_spec_to_json(Z08_SPEC))    # a cold kernel
        res = sharpness_search("T6b", spec, TrialConfig(seed=0, n_trials=budget))
        assert res.iterations == budget
        counts.append(len(calls))
    # the scale's window, which h's table, the tables of the initial f and g
    # and every candidate read
    assert counts == [1, 1]


def test_each_suite_trial_enumerates_its_scale_once(monkeypatch):
    calls = []
    enumerate_points = _ScaleBase.grid_points

    def counted(self, a, b):
        calls.append(self)
        return enumerate_points(self, a, b)

    monkeypatch.setattr(_ScaleBase, "grid_points", counted)
    # the draw (h, f, g and x), the kernel, the step tables and every check
    # of a trial read one window: the whole drawn scale
    for suite in (run_bound_suite, run_identity_suite):
        for seed in range(6):
            calls.clear()
            suite(TrialConfig(seed=seed, n_trials=1))
            assert len(calls) == 1
    # a fixed scale is one object for the whole run, and so is its window
    for suite in (run_bound_suite, run_identity_suite):
        fixed = FiniteGrid((-2.0, -0.5, 0.25, 1.0, 3.5, 4.0))
        calls.clear()
        suite(TrialConfig(seed=2, n_trials=40, fixed_scale=fixed))
        assert calls == [fixed]


# ------------------------------------------------------------------- replay

def test_replay_witness_rejects_garbage():
    with pytest.raises(ConfigError):
        replay_witness({"no": "kind"})
    with pytest.raises(ConfigError):
        replay_witness({"kind": "astrology", "spec": {}, "f": {}})
    spec, f = kernel_spec_to_json(Z08_SPEC), func_to_json(Polynomial((1.0, 0.0, 1.0)))
    whole = [
        {"kind": "identity", "check": "product-rule", "spec": spec, "f": f, "t": 3.0},
        {"kind": "identity", "check": "crosscheck", "spec": spec, "f": f, "family": "Z"},
        {"kind": "bound", "theorem": "T5", "variant": "corrected", "spec": spec, "f": f},
    ]
    for witness in whole:
        replay_witness(witness)
        for field in set(witness) - {"kind"}:       # each missing field is named
            with pytest.raises(ConfigError, match=f"missing field '{field}'"):
                replay_witness({k: v for k, v in witness.items() if k != field})
    # every field present, one value bad: an unknown string or a list
    bad_values = [
        (whole[2], "variant", "nope"),
        (whole[2], "variant", ["corrected"]),
        (whole[2], "theorem", ["T5"]),
        (whole[0], "check", ["product-rule"]),
        (whole[1], "family", ["Z"]),
    ]
    for witness, field, value in bad_values:
        with pytest.raises(ConfigError, match="unknown"):
            replay_witness({**witness, field: value})
    # crosscheck-suite failures are identity witnesses; the retired kind is unknown
    with pytest.raises(ConfigError, match="unknown witness kind 'crosscheck'"):
        replay_witness({"kind": "crosscheck", "spec": spec, "f": f, "family": "Z"})
    real =kernel_spec_to_json(KernelSpec(ts=RealInterval(0.0, 2.0), a=0.0, b=2.0, x=1.0,
                                          alpha=1.0, beta=1.0, h=IDENT))
    with pytest.raises(ConfigError, match="does not apply"):     # no sigma walk on R
        replay_witness({"kind": "identity", "check": "korkine", "spec": real, "f": f})


def test_t7_chain_witness_replays_its_failure(monkeypatch):
    """A t7-chain witness replays to the chain residual and denominator the
    suite measured, bit for bit, from the witness's own gamma and Gamma; a
    bound witness without the check gives neither."""
    measured = []                               # (residual, reference) per trial
    real_chain = harness._t7_chain

    def recording(reports):
        measured.append(real_chain(reports))
        return measured[-1]

    monkeypatch.setattr(harness, "_t7_chain", recording)
    config = config_from_json(REAL_POLY | {"seed": 3, "trials": 40})
    rep = run_bound_suite(config)
    monkeypatch.undo()
    assert len(measured) == 40
    failures = json.loads(json_dumps(rep.to_json()))["failures"]
    assert [(w["trial"], w["check"]) for w in failures] == [(7, "t7-chain"), (19, "t7-chain")]
    for w in failures:
        residual, reference = measured[w["trial"]]
        fresh = replay_witness(w)
        assert fresh["residual"].hex() == residual.hex()
        assert fresh["denom"].hex() == max(1.0, abs(reference)).hex()
        assert fresh["residual"] > config.tolerance * fresh["denom"]      # the failure shows
        assert (fresh["lhs"], fresh["rhs"], fresh["slack"]) == (w["lhs"], w["rhs"], w["slack"])
        plain = replay_witness({k: v for k, v in w.items() if k != "check"})
        assert set(plain) == {"lhs", "rhs", "slack"}


def test_replay_of_a_bound_witness_with_a_bool_bracket_end_is_invalid_bounds():
    spec, f = kernel_spec_to_json(Z08_SPEC), func_to_json(Polynomial((1.0, 0.0, 1.0)))
    witness = {"kind": "bound", "theorem": "T8", "variant": "corrected", "spec": spec,
               "f": f, "gamma": False, "big_gamma": None}
    with pytest.raises(InvalidBounds):
        replay_witness(witness)
    assert replay_witness(witness | {"gamma": None})["slack"] >= 0.0


def test_replay_identity_witness_round_trip():
    grid = FiniteGrid((0.0, 1.0, 2.5, 4.0))
    spec = KernelSpec(ts=grid, a=0.0, b=4.0, x=1.0, alpha=1.0, beta=2.0,
                      h=Sampled({0.0: 0.0, 1.0: 2.0, 2.5: 1.0, 4.0: 3.0}))
    from delta_ineq import func_to_json, kernel_spec_to_json
    witness = {
        "kind": "identity",
        "check": "montgomery-identity",
        "spec": kernel_spec_to_json(spec),
        "f": func_to_json(Sampled({0.0: 1.0, 1.0: 0.0, 2.5: 2.0, 4.0: -1.0})),
    }
    out = replay_witness(witness)
    assert abs(out["residual"]) <= 1e-12
