"""Time scales: closed nonempty subsets of the reals, in four concrete families.

A time scale here is one of

* ``FiniteGrid``     -- explicit strictly increasing points,
* ``IntegerInterval``-- the integers ``lo..hi``,
* ``QLattice``       -- geometric points ``q**k`` for ``kmin <= k <= kmax``,
* ``RealInterval``   -- the continuum ``[lo, hi]``.

Each family implements the jump operators sigma (forward) and rho (backward),
the graininess ``mu(t) = sigma(t) - t``, point classification, and enumeration
of the half-open range ``[a, b)`` for the discrete families.  Jump operators
saturate at the extremes: ``sigma(max) = max`` and ``rho(min) = min``.

The q-lattice is a finite truncation; it never includes the accumulation
point 0, so every member is isolated and the discrete enumeration is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Union

from .errors import ConfigError, ContinuousScale, EmptyRange, NotInScale

# Relative slack accepted when matching a float against a lattice member.
MEMBERSHIP_RTOL = 1e-12


@dataclass(frozen=True)
class PointClass:
    """Classification of a point inside its scale.

    ``right_scattered`` holds iff mu(t) > 0, ``left_scattered`` iff
    t - rho(t) > 0.  The dense/isolated views are derived properties.
    """

    right_scattered: bool
    left_scattered: bool
    is_min: bool
    is_max: bool

    @property
    def right_dense(self) -> bool:
        return not self.right_scattered

    @property
    def left_dense(self) -> bool:
        return not self.left_scattered

    @property
    def isolated(self) -> bool:
        return self.right_scattered and self.left_scattered

    @property
    def dense(self) -> bool:
        return self.right_dense and self.left_dense


class _ScaleBase:
    """Shared operations; concrete families fill in the primitive hooks."""

    # -- primitives supplied by each family -------------------------------

    def canon(self, t: float) -> float:
        """Return the canonical member equal to ``t``, or raise NotInScale."""
        raise NotImplementedError

    def sigma(self, t: float) -> float:
        """Forward jump: least member > t, or t itself at the maximum."""
        raise NotImplementedError

    def rho(self, t: float) -> float:
        """Backward jump: greatest member < t, or t itself at the minimum."""
        raise NotImplementedError

    @property
    def min_point(self) -> float:
        raise NotImplementedError

    @property
    def max_point(self) -> float:
        raise NotImplementedError

    @property
    def is_discrete(self) -> bool:
        raise NotImplementedError

    def all_points(self) -> list[float]:
        raise NotImplementedError

    # -- derived operations ----------------------------------------------

    def contains(self, t: float) -> bool:
        try:
            self.canon(t)
        except NotInScale:
            return False
        return True

    def mu(self, t: float) -> float:
        t = self.canon(t)
        return self.sigma(t) - t

    def classify(self, t: float) -> PointClass:
        t = self.canon(t)
        return PointClass(
            right_scattered=self.sigma(t) > t,
            left_scattered=self.rho(t) < t,
            is_min=t == self.min_point,
            is_max=t == self.max_point,
        )

    def grid_points(self, a: float, b: float) -> list[float]:
        """Members t with a <= t < b, ascending.  Discrete families only."""
        if not self.is_discrete:
            raise ContinuousScale("grid_points is undefined on a real interval")
        a = self.canon(a)
        b = self.canon(b)
        if a >= b:
            raise EmptyRange(f"empty enumeration range [{a}, {b})")
        return self._slice(a, b)

    def _slice(self, a: float, b: float) -> list[float]:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteGrid(_ScaleBase):
    """Explicit strictly increasing grid of at least two finite points."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 2:
            raise ConfigError("FiniteGrid needs at least two points")
        if not all(math.isfinite(p) for p in pts):
            raise ConfigError("FiniteGrid points must be finite")
        if any(u >= v for u, v in zip(pts, pts[1:])):
            raise ConfigError("FiniteGrid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def kind(self) -> str:
        return "grid"

    @property
    def is_discrete(self) -> bool:
        return True

    @property
    def min_point(self) -> float:
        return self.points[0]

    @property
    def max_point(self) -> float:
        return self.points[-1]

    def canon(self, t: float) -> float:
        i = bisect_left(self.points, t)
        if i < len(self.points) and self.points[i] == t:
            return self.points[i]
        raise NotInScale(f"{t!r} is not a grid point")

    def sigma(self, t: float) -> float:
        t = self.canon(t)
        i = bisect_right(self.points, t)
        return self.points[i] if i < len(self.points) else t

    def rho(self, t: float) -> float:
        t = self.canon(t)
        i = bisect_left(self.points, t)
        return self.points[i - 1] if i > 0 else t

    def all_points(self) -> list[float]:
        return list(self.points)

    def _slice(self, a: float, b: float) -> list[float]:
        return list(self.points[bisect_left(self.points, a):bisect_left(self.points, b)])


@dataclass(frozen=True)
class IntegerInterval(_ScaleBase):
    """The integers lo, lo+1, ..., hi."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise ConfigError("IntegerInterval bounds must be integers")
        if self.lo >= self.hi:
            raise ConfigError("IntegerInterval needs lo < hi")

    @property
    def kind(self) -> str:
        return "integer"

    @property
    def is_discrete(self) -> bool:
        return True

    @property
    def min_point(self) -> float:
        return float(self.lo)

    @property
    def max_point(self) -> float:
        return float(self.hi)

    def canon(self, t: float) -> float:
        k = round(t)
        if t != k or not self.lo <= k <= self.hi:
            raise NotInScale(f"{t!r} is not in the integer interval [{self.lo}, {self.hi}]")
        return float(k)

    def sigma(self, t: float) -> float:
        t = self.canon(t)
        return t + 1.0 if t < self.hi else t

    def rho(self, t: float) -> float:
        t = self.canon(t)
        return t - 1.0 if t > self.lo else t

    def all_points(self) -> list[float]:
        return [float(k) for k in range(self.lo, self.hi + 1)]

    def _slice(self, a: float, b: float) -> list[float]:
        return [float(k) for k in range(int(a), int(b))]


@dataclass(frozen=True)
class QLattice(_ScaleBase):
    """Geometric lattice q**kmin, ..., q**kmax with ratio q > 1.

    Members are the canonical powers ``q**k``, which must be finite nonzero
    floats.  Membership testing recovers the exponent from log(t)/log(q)
    and accepts a relative drift up to MEMBERSHIP_RTOL, returning the
    canonical power.
    """

    q: float
    kmin: int
    kmax: int

    def __post_init__(self) -> None:
        if not self.q > 1.0:
            raise ConfigError("QLattice needs q > 1")
        if not (isinstance(self.kmin, int) and isinstance(self.kmax, int)):
            raise ConfigError("QLattice exponents must be integers")
        if self.kmin >= self.kmax:
            raise ConfigError("QLattice needs kmin < kmax")
        try:
            representable = self.q ** self.kmin > 0.0 and math.isfinite(self.q ** self.kmax)
        except OverflowError:
            representable = False
        if not representable:
            raise ConfigError(f"QLattice points q**{self.kmin} .. q**{self.kmax} "
                              "must be finite nonzero floats")

    @property
    def kind(self) -> str:
        return "qlattice"

    @property
    def is_discrete(self) -> bool:
        return True

    @property
    def min_point(self) -> float:
        return self.q ** self.kmin

    @property
    def max_point(self) -> float:
        return self.q ** self.kmax

    def exponent_of(self, t: float) -> int:
        """Exponent k with q**k == t (within tolerance), else NotInScale."""
        if not t > 0.0:
            raise NotInScale(f"{t!r} is not a positive lattice point")
        k = round(math.log(t) / math.log(self.q))
        if not self.kmin <= k <= self.kmax:
            raise NotInScale(f"{t!r} lies outside the lattice range")
        if abs(self.q ** k - t) > MEMBERSHIP_RTOL * abs(t):
            raise NotInScale(f"{t!r} is not a power of q={self.q}")
        return k

    def canon(self, t: float) -> float:
        return self.q ** self.exponent_of(t)

    def sigma(self, t: float) -> float:
        k = self.exponent_of(t)
        return self.q ** min(k + 1, self.kmax)

    def rho(self, t: float) -> float:
        k = self.exponent_of(t)
        return self.q ** max(k - 1, self.kmin)

    def all_points(self) -> list[float]:
        return [self.q ** k for k in range(self.kmin, self.kmax + 1)]

    def _slice(self, a: float, b: float) -> list[float]:
        ka = self.exponent_of(a)
        kb = self.exponent_of(b)
        return [self.q ** k for k in range(ka, kb)]


@dataclass(frozen=True)
class RealInterval(_ScaleBase):
    """The continuum [lo, hi] with finite ends; every interior point is dense."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ConfigError("RealInterval needs lo < hi")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError("RealInterval ends must be finite")

    @property
    def kind(self) -> str:
        return "real"

    @property
    def is_discrete(self) -> bool:
        return False

    @property
    def min_point(self) -> float:
        return self.lo

    @property
    def max_point(self) -> float:
        return self.hi

    def canon(self, t: float) -> float:
        if not self.lo <= t <= self.hi:
            raise NotInScale(f"{t!r} is outside [{self.lo}, {self.hi}]")
        return float(t)

    def sigma(self, t: float) -> float:
        return self.canon(t)

    def rho(self, t: float) -> float:
        return self.canon(t)

    def all_points(self) -> list[float]:
        raise ContinuousScale("a real interval cannot be enumerated")


TimeScale = Union[FiniteGrid, IntegerInterval, QLattice, RealInterval]


def scale_to_json(ts: TimeScale) -> dict:
    """Serialize a scale to its wire form (see scale_from_json)."""
    if isinstance(ts, FiniteGrid):
        return {"kind": "grid", "points": list(ts.points)}
    if isinstance(ts, IntegerInterval):
        return {"kind": "integer", "lo": ts.lo, "hi": ts.hi}
    if isinstance(ts, QLattice):
        return {"kind": "qlattice", "q": ts.q, "kmin": ts.kmin, "kmax": ts.kmax}
    if isinstance(ts, RealInterval):
        return {"kind": "real", "lo": ts.lo, "hi": ts.hi}
    raise ConfigError(f"unknown scale object {ts!r}")


def scale_from_json(obj: dict) -> TimeScale:
    """Parse a scale from a dict like {"kind": "integer", "lo": 0, "hi": 4}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("scale JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "grid":
            return FiniteGrid(points=tuple(obj["points"]))
        if kind == "integer":
            return IntegerInterval(lo=int(obj["lo"]), hi=int(obj["hi"]))
        if kind == "qlattice":
            return QLattice(q=float(obj["q"]), kmin=int(obj["kmin"]), kmax=int(obj["kmax"]))
        if kind == "real":
            return RealInterval(lo=float(obj["lo"]), hi=float(obj["hi"]))
    except KeyError as exc:
        raise ConfigError(f"scale JSON missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad scale JSON: {exc}") from exc
    raise ConfigError(f"unknown scale kind {kind!r}")
