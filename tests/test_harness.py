"""Deterministic RNG, trial draws, suite runners, sharpness, replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_ineq import (
    ConfigError,
    FiniteGrid,
    FuncFamily,
    IntegerInterval,
    KernelSpec,
    Polynomial,
    QLattice,
    RealInterval,
    Sampled,
    SplitMix64,
    TrialConfig,
    UnsupportedTheorem,
    config_from_json,
    config_to_json,
    gen_random_func,
    gen_random_scale,
    replay_witness,
    run_bound_suite,
    run_crosscheck_suite,
    run_identity_suite,
    sharpness_search,
    trial_rng,
)

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
    with pytest.raises(ConfigError):
        TrialConfig(scale_families=("moebius",))
    with pytest.raises(ConfigError):
        TrialConfig(scale_families=())


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
    rep = run_bound_suite(cfg)
    assert rep.passed                       # corrected bounds never fail
    assert rep.findings                     # literal printings do fail
    assert not rep.failures
    assert len(rep.rows) == 120 * 6 * 2     # trials x theorems x variants
    for row in rep.rows:
        assert row["slack"] == row["rhs"] - row["lhs"]
    for key in ("T5/corrected", "T6b/literal", "t7-chain"):
        assert key in rep.checks


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


def test_suite_report_json_shape():
    rep = run_identity_suite(TrialConfig(seed=1, n_trials=5))
    d = rep.to_json()
    assert d["suite"] == "identity" and d["trials"] == 5
    assert "wall_time_s" in d and "rows" not in d
    d2 = rep.to_json(include_wall_time=False, include_rows=True)
    assert "wall_time_s" not in d2 and d2["rows"] == []


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


# ------------------------------------------------------------------- replay

def test_replay_witness_rejects_garbage():
    with pytest.raises(ConfigError):
        replay_witness({"no": "kind"})
    with pytest.raises(ConfigError):
        replay_witness({"kind": "astrology", "spec": {}, "f": {}})


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
