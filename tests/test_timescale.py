"""Scale domains: jump operators, graininess, membership, serialization."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_ineq import (
    ConfigError,
    ContinuousScale,
    EmptyRange,
    FiniteGrid,
    IntegerInterval,
    NotInScale,
    QLattice,
    RealInterval,
    scale_from_json,
    scale_to_json,
)


# ---------------------------------------------------------------- FiniteGrid

def test_grid_requires_two_increasing_points():
    with pytest.raises(ConfigError):
        FiniteGrid((1.0,))
    with pytest.raises(ConfigError):
        FiniteGrid((1.0, 1.0))
    with pytest.raises(ConfigError):
        FiniteGrid((2.0, 1.0))


def test_grid_sigma_rho_mu():
    ts = FiniteGrid((0.0, 0.5, 2.0))
    assert ts.sigma(0.0) == 0.5
    assert ts.sigma(0.5) == 2.0
    assert ts.sigma(2.0) == 2.0          # saturates at the max
    assert ts.rho(0.0) == 0.0            # saturates at the min
    assert ts.rho(2.0) == 0.5
    assert ts.mu(0.0) == 0.5
    assert ts.mu(0.5) == 1.5
    assert ts.mu(2.0) == 0.0


def test_grid_membership_and_errors():
    ts = FiniteGrid((0.0, 1.0, 3.0))
    assert ts.contains(1.0)
    assert not ts.contains(2.0)
    with pytest.raises(NotInScale):
        ts.sigma(2.0)


def test_grid_classify():
    ts = FiniteGrid((0.0, 1.0, 3.0))
    lo = ts.classify(0.0)
    mid = ts.classify(1.0)
    hi = ts.classify(3.0)
    assert lo.is_min and lo.right_scattered and not lo.left_scattered
    assert mid.isolated
    assert hi.is_max and hi.left_scattered and not hi.right_scattered


def test_grid_points_half_open():
    ts = FiniteGrid((0.0, 1.0, 2.0, 3.0))
    assert ts.grid_points(0.0, 3.0) == [0.0, 1.0, 2.0]
    assert ts.grid_points(1.0, 2.0) == [1.0]
    with pytest.raises(EmptyRange):
        ts.grid_points(2.0, 2.0)
    with pytest.raises(EmptyRange):
        ts.grid_points(3.0, 0.0)


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2,
                max_size=20, unique=True))
def test_grid_sigma_rho_inverse_on_interior(vals):
    pts = tuple(sorted(vals))
    ts = FiniteGrid(pts)
    for t in pts[1:-1]:
        assert ts.rho(ts.sigma(t)) == t
        assert ts.sigma(ts.rho(t)) == t


# ----------------------------------------------------------- IntegerInterval

def test_integer_interval_basics():
    ts = IntegerInterval(-2, 3)
    assert ts.sigma(0.0) == 1.0
    assert ts.rho(0.0) == -1.0
    assert ts.sigma(3.0) == 3.0
    assert ts.rho(-2.0) == -2.0
    assert ts.mu(1.0) == 1.0
    assert ts.mu(3.0) == 0.0
    assert ts.contains(2.0)
    assert not ts.contains(2.5)
    assert not ts.contains(4.0)
    assert ts.grid_points(-2.0, 2.0) == [-2.0, -1.0, 0.0, 1.0]


def test_integer_interval_validation():
    with pytest.raises(ConfigError):
        IntegerInterval(3, 3)


# ------------------------------------------------------------------ QLattice

def test_qlattice_points_and_jumps():
    ts = QLattice(2.0, 0, 3)           # {1, 2, 4, 8}
    assert ts.contains(4.0)
    assert not ts.contains(3.0)
    assert ts.sigma(2.0) == 4.0
    assert ts.rho(4.0) == 2.0
    assert ts.sigma(8.0) == 8.0
    assert ts.rho(1.0) == 1.0
    assert ts.mu(4.0) == 4.0            # (q-1)*t
    assert ts.grid_points(1.0, 8.0) == [1.0, 2.0, 4.0]


def test_qlattice_membership_is_tolerant_of_rounding():
    ts = QLattice(1.1, 0, 40)
    t = 1.1 ** 23
    # a value that went through extra arithmetic still resolves
    noisy = (t * 3.0) / 3.0
    assert ts.contains(noisy)
    assert ts.sigma(noisy) == pytest.approx(1.1 ** 24, rel=1e-12)


def test_qlattice_validation():
    with pytest.raises(ConfigError):
        QLattice(1.0, 0, 3)
    with pytest.raises(ConfigError):
        QLattice(0.5, 0, 3)
    with pytest.raises(ConfigError):
        QLattice(2.0, 3, 3)


@given(st.floats(1.01, 3.0), st.integers(-8, 0), st.integers(1, 8))
def test_qlattice_mu_matches_q_minus_one_times_t(q, kmin, koff):
    ts = QLattice(q, kmin, kmin + koff)
    for k in range(kmin, kmin + koff):
        t = q ** k
        assert ts.mu(t) == pytest.approx((q - 1.0) * t, rel=1e-12)


# -------------------------------------------------------------- RealInterval

def test_real_interval_dense():
    ts = RealInterval(0.0, 2.0)
    assert ts.sigma(1.0) == 1.0
    assert ts.rho(1.0) == 1.0
    assert ts.mu(1.0) == 0.0
    assert ts.contains(1.234)
    assert not ts.contains(2.5)
    cls = ts.classify(1.0)
    assert cls.dense and not cls.is_min and not cls.is_max
    with pytest.raises(ContinuousScale):
        ts.grid_points(0.0, 1.0)
    with pytest.raises(ContinuousScale):
        ts.all_points()


def test_real_interval_validation():
    with pytest.raises(ConfigError):
        RealInterval(1.0, 1.0)


# ---------------------------------------------------------------- finiteness

@pytest.mark.parametrize("make", [
    lambda: FiniteGrid((0.0, math.nan, 1.0)),
    lambda: FiniteGrid((0.0, 1.0, math.inf)),
    lambda: RealInterval(0.0, math.inf),
    lambda: RealInterval(-math.inf, 0.0),
    lambda: QLattice(3, 0, 700),        # q**kmax overflows
    lambda: QLattice(3.0, -700, 0),     # q**kmin underflows to 0
    lambda: QLattice(math.inf, 0, 2),
], ids=["grid-nan", "grid-inf", "real-inf-hi", "real-inf-lo", "qlattice-overflow",
        "qlattice-underflow", "qlattice-inf-q"])
def test_non_finite_scales_are_rejected(make):
    with pytest.raises(ConfigError):
        make()


# ------------------------------------------------------------- serialization

@pytest.mark.parametrize("ts", [
    FiniteGrid((0.0, 0.25, 1.5)),
    IntegerInterval(-3, 5),
    QLattice(1.5, -2, 4),
    RealInterval(-1.0, 2.0),
])
def test_scale_json_round_trip(ts):
    assert scale_from_json(scale_to_json(ts)) == ts


def test_scale_from_json_rejects_garbage():
    with pytest.raises(ConfigError):
        scale_from_json({"kind": "moebius"})
    with pytest.raises(ConfigError):
        scale_from_json({"kind": "integer", "lo": 5, "hi": 1})
    with pytest.raises(ConfigError):
        scale_from_json("not a dict")
    with pytest.raises(ConfigError):
        scale_from_json({"kind": "integer", "lo": 0, "hi": math.inf})


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=2,
                max_size=12, unique=True))
@settings(max_examples=50)
def test_grid_points_sorted_and_in_range(vals):
    pts = tuple(sorted(vals))
    ts = FiniteGrid(pts)
    a, b = pts[0], pts[-1]
    got = ts.grid_points(a, b)
    assert got == sorted(got)
    assert all(a <= t < b for t in got)
    assert got[0] == a
    assert math.isclose(ts.sigma(got[-1]), b)
