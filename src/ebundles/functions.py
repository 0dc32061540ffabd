"""Continuous strictly decreasing rank-frequency functions on [0, T].

A rank-frequency function Z maps a continuous source rank x in [0, T] to a
nonnegative item density Z(x), strictly decreasing in x.  This module provides
the concrete representations (piecewise linear from knots, plus three
parametric families), pointwise evaluation, exact or closed-form
inversion, cumulative integration I_Z(x) = int_0^x Z, running averages, and
the order comparisons used by the axiom checkers:

* ``compare``              pointwise dominance on a grid (>=, strict >, =)
* ``cumulative_dominates`` the partial order I_Z(x) <= I_Y(x) for all x

All types are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import bisect as _bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "InputError",
    "SingularityError",
    "ThetaRangeError",
    "Knot",
    "ThetaRange",
    "RankFunction",
    "PiecewiseLinearFn",
    "LinearFamily",
    "ZipfFamily",
    "PowerComplement",
    "DominanceVerdict",
    "CumulativeOrder",
    "CumulativeVerdict",
    "compare",
    "cumulative_dominates",
    "from_citations",
    "parse_citations",
    "function_from_spec",
    "function_to_spec",
]

EQUALITY_TOL = 1e-12


class InputError(ValueError):
    """Arguments violate an operation's contract (domain, shape, ordering)."""


class SingularityError(InputError):
    """Evaluation requested at a pole, e.g. a Zipf function at x = 0."""


class ThetaRangeError(InputError):
    """A theta value outside the admissible range of the given function."""


@dataclass(frozen=True)
class ThetaRange:
    """Admissible theta interval [lo, hi]; hi may be ``math.inf``.

    An unbounded range is open above: ``contains`` never admits theta = inf,
    so nothing is ever evaluated at the point at infinity.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise InputError(f"invalid theta range [{self.lo}, {self.hi}]")

    @property
    def unbounded_above(self) -> bool:
        return math.isinf(self.hi)

    def contains(self, theta: float, slack: float = EQUALITY_TOL) -> bool:
        if math.isinf(theta) or math.isnan(theta):
            return False
        if theta < self.lo - slack:
            return False
        if self.unbounded_above:
            return True
        return theta <= self.hi + slack

    def clamp(self, theta: float) -> float:
        """Snap a theta accepted by ``contains`` onto the closed interval."""
        hi = self.hi if not self.unbounded_above else theta
        return min(max(theta, self.lo), hi)

    def contains_each(self, thetas: np.ndarray) -> np.ndarray:
        """``contains`` for every element of an array."""
        slack = EQUALITY_TOL
        return np.isfinite(thetas) & (thetas >= self.lo - slack) & (thetas <= self.hi + slack)

    def clamp_each(self, thetas: np.ndarray) -> np.ndarray:
        """``clamp`` for every element, picking the same operand on ties."""
        hi = self.hi if not self.unbounded_above else thetas
        clamped = np.where(self.lo > thetas, self.lo, thetas)
        return np.where(hi < clamped, hi, clamped)


@dataclass(frozen=True)
class Knot:
    """A sample point (rank x, density y) of a piecewise linear function."""

    x: float
    y: float

    def __post_init__(self) -> None:
        for name, v in (("x", self.x), ("y", self.y)):
            if not math.isfinite(v):
                raise InputError(f"knot {name} must be finite, got {v!r}")
            if v < 0:
                raise InputError(f"knot {name} must be >= 0, got {v!r}")


class RankFunction:
    """Base class: continuous, strictly decreasing, nonnegative on [0, T].

    Subclasses must provide ``T`` and exact or closed-form scalar and vector
    routines: ``value``/``values``, ``inverse``/``inverses`` and
    ``cumulative``/``cumulatives``.  ``ray_crossing`` has a generic fallback,
    bisection to a bracket of 1e-13 * max(1, T), which only
    ``PowerComplement`` uses; ``ray_crossings`` loops over the scalar form
    unless a subclass overrides it.
    """

    T: float
    unbounded_at_origin: bool = False

    def value(self, x: float) -> float:
        raise NotImplementedError

    def values(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: float) -> float:
        return self.value(x)

    def _check_domain(self, x: float) -> None:
        if math.isnan(x) or not (0.0 <= x <= self.T):
            raise InputError(f"x={x!r} outside domain [0, {self.T}]")

    def value_at_origin(self) -> float:
        """Z(0), or ``math.inf`` for functions unbounded at the origin."""
        if self.unbounded_at_origin:
            return math.inf
        return self.value(0.0)

    def admissible_range(self) -> ThetaRange:
        """Theta values theta = Z(x) attained on the domain: [Z(T), Z(0)]."""
        return ThetaRange(self.value(self.T), self.value_at_origin())

    def admit_level(self, theta: float) -> float:
        """``theta`` snapped onto the admissible range; raises if outside it."""
        rng = self.admissible_range()
        if not rng.contains(theta):
            raise ThetaRangeError(
                f"theta={theta!r} outside admissible range [{rng.lo}, {rng.hi}]"
            )
        return rng.clamp(theta)

    def admit_levels(self, thetas: np.ndarray) -> np.ndarray:
        """``admit_level`` for every element; raises on the first bad one."""
        rng = self.admissible_range()
        thetas = np.asarray(thetas, dtype=float)
        bad = ~rng.contains_each(thetas)
        if bad.any():
            raise ThetaRangeError(
                f"theta={float(thetas[bad][0])!r} outside admissible range [{rng.lo}, {rng.hi}]"
            )
        return rng.clamp_each(thetas)

    def ray_crossing(self, theta: float) -> float:
        """The x in [0, T] with Z(x) = theta * x, for theta > Z(T)/T.

        Z(x) - theta * x strictly decreases from Z(0) > 0 and is negative at
        T, so bisection of [0, T] keeps the root bracketed.
        """
        lo, hi = 0.0, self.T
        xtol = 1e-13 * max(1.0, self.T)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if self.value(mid) - theta * mid > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= xtol:
                break
        return 0.5 * (lo + hi)

    def ray_crossings(self, thetas: np.ndarray) -> np.ndarray:
        return np.array([self.ray_crossing(t) for t in np.asarray(thetas, dtype=float).tolist()],
                        dtype=float)

    def average(self, x: float) -> float:
        """Running average (1/x) int_0^x Z; equals Z(0) at x = 0."""
        self._check_domain(x)
        if x == 0.0:
            if self.unbounded_at_origin:
                raise SingularityError("average undefined at x=0 for unbounded origin")
            return self.value(0.0)
        return self.cumulative(x) / x


class _KnotView(Sequence[Knot]):
    """Read-only ``Knot`` sequence over a function's knot arrays."""

    __slots__ = ("_xs", "_ys")

    def __init__(self, xs: np.ndarray, ys: np.ndarray) -> None:
        self._xs, self._ys = xs, ys

    def __len__(self) -> int:
        return len(self._xs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(Knot, self._xs[i].tolist(), self._ys[i].tolist()))
        return Knot(float(self._xs[i]), float(self._ys[i]))

    def __iter__(self):
        return map(Knot, self._xs.tolist(), self._ys.tolist())


class PiecewiseLinearFn(RankFunction):
    """Strictly decreasing piecewise linear function given by its knots.

    Knots must start at x = 0, end at x = T > 0, be strictly increasing in x
    and strictly decreasing in y (exact comparison on the stored values).
    They are stored as two read-only float arrays ``xs`` and ``ys``;
    ``knots`` views them as ``Knot`` values.  Evaluation interpolates
    linearly, inversion solves the containing segment exactly, and
    integration accumulates trapezoids, so these operations are exact up to
    float rounding.  Equality and hashing compare the knot values.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray) -> None:
        xs = np.array(xs, dtype=float)
        ys = np.array(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise InputError("knot xs and ys must be 1-d and of equal length")
        for name, v in (("x", xs), ("y", ys)):
            bad = ~np.isfinite(v) | (v < 0.0)
            if bad.any():
                raise InputError(f"knot {name} must be finite and >= 0, got {float(v[bad][0])!r}")
        if len(xs) < 2:
            raise InputError("need at least two knots")
        if xs[0] != 0.0:
            raise InputError(f"first knot must sit at x=0, got x={float(xs[0])!r}")
        for name, v, bad in (("x", xs, np.diff(xs) <= 0.0), ("y", ys, np.diff(ys) >= 0.0)):
            if bad.any():
                i = int(np.argmax(bad))
                direction = "increase" if name == "x" else "decrease"
                raise InputError(
                    f"knot {name} values must strictly {direction} ({v[i]} -> {v[i + 1]})"
                )
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "PiecewiseLinearFn":
        arr = np.array(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InputError("knots must be a list of (x, y) pairs")
        return cls(arr[:, 0], arr[:, 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseLinearFn):
            return NotImplemented
        return bool(np.array_equal(self.xs, other.xs) and np.array_equal(self.ys, other.ys))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # + 0.0 maps -0.0 to 0.0, so equal knots give equal bytes
        return hash(((self.xs + 0.0).tobytes(), (self.ys + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"PiecewiseLinearFn.from_pairs({list(zip(self.xs.tolist(), self.ys.tolist()))})"

    @property
    def knots(self) -> _KnotView:
        return _KnotView(self.xs, self.ys)

    @property
    def T(self) -> float:
        return float(self.xs[-1])

    def value_at_origin(self) -> float:
        return float(self.ys[0])

    def admissible_range(self) -> ThetaRange:
        return self._range

    @cached_property
    def _range(self) -> ThetaRange:
        return ThetaRange(float(self.ys[-1]), float(self.ys[0]))

    # The scalar methods read Python tuples: indexing them is several times
    # cheaper than indexing arrays, and the axiom suites make ~10^4 calls.
    @cached_property
    def _xs(self) -> tuple[float, ...]:
        return tuple(self.xs.tolist())

    @cached_property
    def _ys(self) -> tuple[float, ...]:
        return tuple(self.ys.tolist())

    @cached_property
    def _neg_ys(self) -> tuple[float, ...]:
        return tuple((-self.ys).tolist())

    # The vector methods read segment j = [x_j, x_{j+1}] through its left
    # knot and these per-segment steps, which equal x_{j+1} - x_j and
    # y_{j+1} - y_j bit for bit.
    @cached_property
    def _dxs(self) -> np.ndarray:
        return self.xs[1:] - self.xs[:-1]

    @cached_property
    def _dys(self) -> np.ndarray:
        return self.ys[1:] - self.ys[:-1]

    @cached_property
    def _area_prefix(self) -> np.ndarray:
        """Trapezoid area accumulated up to each knot."""
        ys = self.ys
        seg = self._dxs * (ys[:-1] + ys[1:]) * 0.5
        return np.concatenate(([0.0], np.cumsum(seg)))

    def _segment(self, x: float) -> int:
        i = _bisect.bisect_right(self._xs, x)
        return min(max(i, 1), len(self._xs) - 1)

    def value(self, x: float) -> float:
        self._check_domain(x)
        i = self._segment(x)
        x0, x1 = self._xs[i - 1], self._xs[i]
        if x == x1:  # knot hits stay exact
            return self._ys[i]
        y0, y1 = self._ys[i - 1], self._ys[i]
        t = (x - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)

    def _segments(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The points as floats, the index j of the segment [x_j, x_{j+1}]
        holding each, and their offsets x - x_j, after checking they lie in
        the domain.

        j counts the interior knots at or left of x: the same segment as
        ``value``'s clamped bisection, with T on the last segment.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.size and (xs.min() < 0.0 or xs.max() > self.T):
            raise InputError("grid points outside domain")
        j = np.searchsorted(self.xs[1:-1], xs, side="right")
        return xs, j, xs - self.xs[j]

    def _interpolate(self, xs: np.ndarray, j: np.ndarray, dx: np.ndarray) -> np.ndarray:
        y = self.ys[j] + dx / self._dxs[j] * self._dys[j]
        # knot hits stay exact; T is the only point on a segment's right end
        return np.where(xs == self.T, self.ys[-1], y)

    def values(self, xs: np.ndarray) -> np.ndarray:
        return self._interpolate(*self._segments(xs))

    def inverse(self, theta: float) -> float:
        theta = self.admit_level(theta)
        i = _bisect.bisect_left(self._neg_ys, -theta)
        i = min(max(i, 1), len(self._ys) - 1)
        y0, y1 = self._ys[i - 1], self._ys[i]
        x0, x1 = self._xs[i - 1], self._xs[i]
        return x0 + (y0 - theta) / (y0 - y1) * (x1 - x0)

    def inverses(self, thetas: np.ndarray) -> np.ndarray:
        """``inverse`` at every level, with the same arithmetic."""
        thetas = self.admit_levels(thetas)
        # j counts the interior knots above theta: the scalar form's clamped
        # bisection.  (theta - y_j) / (y_{j+1} - y_j) negates both sides of
        # its quotient, which leaves the quotient unchanged.
        j = np.searchsorted(-self.ys[1:-1], -thetas, side="left")
        return self.xs[j] + (thetas - self.ys[j]) / self._dys[j] * self._dxs[j]

    def ray_crossing(self, theta: float) -> float:
        """The x in [0, T] with Z(x) = theta * x, for theta > Z(T)/T.

        The knot residuals y_i - theta * x_i strictly decrease from y_0 > 0,
        so a binary search finds the segment where they change sign, and the
        residual is linear along it.
        """
        xs, ys = self._xs, self._ys
        lo, hi = 0, len(xs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ys[mid] - theta * xs[mid] > 0.0:
                lo = mid
            else:
                hi = mid
        r0 = ys[lo] - theta * xs[lo]
        r1 = ys[hi] - theta * xs[hi]
        return xs[lo] + r0 * (xs[hi] - xs[lo]) / (r0 - r1)

    def ray_crossings(self, thetas: np.ndarray) -> np.ndarray:
        """``ray_crossing`` at every level, with the same arithmetic."""
        thetas = np.asarray(thetas, dtype=float)
        xs, ys = self.xs, self.ys
        lo = np.zeros(thetas.shape, dtype=np.intp)
        hi = np.full(thetas.shape, len(xs) - 1, dtype=np.intp)
        while True:
            open_ = hi - lo > 1
            if not open_.any():
                break
            mid = (lo + hi) // 2
            pos = ys[mid] - thetas * xs[mid] > 0.0
            lo = np.where(open_ & pos, mid, lo)
            hi = np.where(open_ & ~pos, mid, hi)
        r0 = ys[lo] - thetas * xs[lo]
        r1 = ys[hi] - thetas * xs[hi]
        return xs[lo] + r0 * (xs[hi] - xs[lo]) / (r0 - r1)

    def cumulative(self, x: float) -> float:
        self._check_domain(x)
        i = self._segment(x)
        x0 = self._xs[i - 1]
        y0 = self._ys[i - 1]
        yx = self.value(x)
        return float(self._area_prefix[i - 1]) + (x - x0) * (y0 + yx) * 0.5

    def cumulatives(self, xs: np.ndarray) -> np.ndarray:
        xs, j, dx = self._segments(xs)
        yx = self._interpolate(xs, j, dx)
        return self._area_prefix[j] + dx * (self.ys[j] + yx) * 0.5


@dataclass(frozen=True)
class LinearFamily(RankFunction):
    """Z(x) = S * (1 - x / T): a straight line from (0, S) down to (T, 0).

    Z(x) = theta * x at x = S*T / (theta*T + S).  Every form here uses only
    + - * /, so the scalar and vector forms agree bit for bit.
    """

    S: float
    T: float

    def __post_init__(self) -> None:
        if not (self.S > 0 and math.isfinite(self.S)):
            raise InputError(f"S must be positive and finite, got {self.S!r}")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise InputError(f"T must be positive and finite, got {self.T!r}")

    def value(self, x: float) -> float:
        self._check_domain(x)
        return self.S * (1.0 - x / self.T)

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return self.S * (1.0 - xs / self.T)

    def inverse(self, theta: float) -> float:
        return self.T * (1.0 - self.admit_level(theta) / self.S)

    def inverses(self, thetas: np.ndarray) -> np.ndarray:
        return self.T * (1.0 - self.admit_levels(thetas) / self.S)

    def ray_crossing(self, theta: float) -> float:
        return self.S * self.T / (theta * self.T + self.S)

    def ray_crossings(self, thetas: np.ndarray) -> np.ndarray:
        return self.S * self.T / (np.asarray(thetas, dtype=float) * self.T + self.S)

    def cumulative(self, x: float) -> float:
        self._check_domain(x)
        return self.S * (x - x * x / (2.0 * self.T))

    def cumulatives(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return self.S * (xs - xs * xs / (2.0 * self.T))


@dataclass(frozen=True)
class ZipfFamily(RankFunction):
    """Z(x) = (T / x) ** beta with 0 < beta < 1, unbounded at the origin.

    Pointwise evaluation at x = 0 raises ``SingularityError``; the cumulative
    integral is still finite and handled analytically:
    int_0^x (T/s)**beta ds = T**beta * x**(1-beta) / (1-beta).
    The admissible range is [Z(T), inf) = [1, inf), open above.
    Z(x) = theta * x at x = (T**beta / theta) ** (1 / (1 + beta)).

    The vector ``inverses`` and ``cumulatives`` use numpy's power, which can
    differ from the scalar pow by an ulp or two; ``ray_crossings`` keeps the
    generic loop over the scalar root, so h agrees bit for bit.
    """

    beta: float
    T: float
    unbounded_at_origin = True

    def __post_init__(self) -> None:
        if not (0.0 < self.beta < 1.0):
            raise InputError(f"beta must lie in (0, 1), got {self.beta!r}")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise InputError(f"T must be positive and finite, got {self.T!r}")

    def value(self, x: float) -> float:
        self._check_domain(x)
        if x == 0.0:
            raise SingularityError("Zipf function diverges at x=0")
        return (self.T / x) ** self.beta

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.size and xs.min() <= 0.0:
            raise SingularityError("Zipf grid must stay strictly positive")
        return (self.T / xs) ** self.beta

    def admissible_range(self) -> ThetaRange:
        return ThetaRange(1.0, math.inf)

    def inverse(self, theta: float) -> float:
        return self.T * self.admit_level(theta) ** (-1.0 / self.beta)

    def inverses(self, thetas: np.ndarray) -> np.ndarray:
        return self.T * self.admit_levels(thetas) ** (-1.0 / self.beta)

    def ray_crossing(self, theta: float) -> float:
        return (self.T**self.beta / theta) ** (1.0 / (1.0 + self.beta))

    def cumulative(self, x: float) -> float:
        self._check_domain(x)
        return self.T**self.beta * x ** (1.0 - self.beta) / (1.0 - self.beta)

    def cumulatives(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return self.T**self.beta * xs ** (1.0 - self.beta) / (1.0 - self.beta)


@dataclass(frozen=True)
class PowerComplement(RankFunction):
    """Z(x) = 1 - x**n on [0, 1] for a positive integer n."""

    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise InputError(f"n must be an integer >= 1, got {self.n!r}")

    @property
    def T(self) -> float:
        return 1.0

    def value(self, x: float) -> float:
        self._check_domain(x)
        return 1.0 - x**self.n

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return 1.0 - xs**self.n

    def inverse(self, theta: float) -> float:
        return (1.0 - self.admit_level(theta)) ** (1.0 / self.n)

    def inverses(self, thetas: np.ndarray) -> np.ndarray:
        return (1.0 - self.admit_levels(thetas)) ** (1.0 / self.n)

    def cumulative(self, x: float) -> float:
        self._check_domain(x)
        return x - x ** (self.n + 1) / (self.n + 1)

    def cumulatives(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return xs - xs ** (self.n + 1) / (self.n + 1)


# ---------------------------------------------------------------------------
# Order comparisons


def _common_T(f: RankFunction, g: RankFunction) -> float:
    if not math.isclose(f.T, g.T, rel_tol=1e-12, abs_tol=0.0):
        raise InputError(f"domain mismatch: T={f.T} vs T={g.T}")
    return f.T


def _grid(fns: Sequence[RankFunction], lo: float, hi: float, n: int) -> np.ndarray:
    """n >= 2 uniform points on [lo, hi], pole-free for every function in fns."""
    if n < 2:
        raise InputError(f"grid_n must be >= 2, got {n}")
    xs = np.linspace(lo, hi, n)
    if xs[0] == 0.0 and any(f.unbounded_at_origin for f in fns):
        # cannot sample the pole itself; start half a step in
        xs[0] = 0.5 * xs[1]
    return xs


@dataclass(frozen=True)
class DominanceVerdict:
    """Grid-sampled dominance report for a pair (f, g) and prefix [0, a].

    ``geq_everywhere`` covers the full domain [0, T]; the strictness and
    equality verdicts cover [0, a] only.  Grid verdicts are sound for
    refutation (a witness is a real counterexample up to float noise) and
    heuristic for confirmation.
    """

    a: float
    grid_n: int
    geq_everywhere: bool
    geq_witness: float | None
    strict_on_prefix: bool
    min_gap: float
    strict_witness: float | None
    equal_on_prefix: bool
    max_deviation: float
    equal_witness: float | None


def _gaps(
    f: RankFunction, g: RankFunction, a: float | None, grid_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The grid of ``grid_n`` points on [0, a] (a = None: [0, T]) and f - g
    at each point."""
    T = _common_T(f, g)
    if a is None:
        a = T
    if not (0.0 < a <= T):
        raise InputError(f"prefix endpoint a={a!r} must lie in (0, T]")
    xs = _grid((f, g), 0.0, a, grid_n)
    return xs, f.values(xs) - g.values(xs)


# The three grid verdicts on (xs, f - g): whether the relation holds, the
# extreme gap where one is reported, and a witness point when it fails.


def _geq_verdict(xs: np.ndarray, diff: np.ndarray) -> tuple[bool, float | None]:
    i = int(np.argmin(diff))
    geq = bool(diff[i] >= -EQUALITY_TOL)
    return geq, None if geq else float(xs[i])


def _strict_verdict(xs: np.ndarray, diff: np.ndarray) -> tuple[bool, float, float | None]:
    j = int(np.argmin(diff))
    min_gap = float(diff[j])
    strict = bool(min_gap > 0.0)
    return strict, min_gap, None if strict else float(xs[j])


def _equal_verdict(xs: np.ndarray, diff: np.ndarray) -> tuple[bool, float, float | None]:
    j = int(np.argmax(np.abs(diff)))
    max_dev = float(abs(diff[j]))
    equal = bool(max_dev <= EQUALITY_TOL)
    return equal, max_dev, None if equal else float(xs[j])


def compare(
    f: RankFunction,
    g: RankFunction,
    a: float | None = None,
    grid_n: int = 10_000,
) -> DominanceVerdict:
    """Check f >= g on [0, T], f > g on [0, a], and f = g on [0, a]."""
    T = _common_T(f, g)
    a = T if a is None else a
    prefix = _gaps(f, g, a, grid_n)
    full = prefix if a == T else _gaps(f, g, None, grid_n)
    geq, geq_witness = _geq_verdict(*full)
    strict, min_gap, strict_witness = _strict_verdict(*prefix)
    equal, max_dev, equal_witness = _equal_verdict(*prefix)
    return DominanceVerdict(
        a=a,
        grid_n=grid_n,
        geq_everywhere=geq,
        geq_witness=geq_witness,
        strict_on_prefix=strict,
        min_gap=min_gap,
        strict_witness=strict_witness,
        equal_on_prefix=equal,
        max_deviation=max_dev,
        equal_witness=equal_witness,
    )


class CumulativeOrder(Enum):
    PRECEDES = "precedes"  # I_f <= I_g everywhere
    FOLLOWS = "follows"  # I_f >= I_g everywhere
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class CumulativeVerdict:
    order: CumulativeOrder
    min_diff: float  # extreme values of I_f - I_g over [0, T]
    max_diff: float
    witness_min: float
    witness_max: float


def _pwl_cumulative_extrema(
    f: PiecewiseLinearFn, g: PiecewiseLinearFn
) -> tuple[float, float, float, float]:
    """Exact extrema of d(x) = I_f(x) - I_g(x) for piecewise linear inputs.

    On each merged segment both functions are linear, so d is quadratic with
    d' = f - g; extrema can only occur at segment ends or at the interior
    zero of f - g (vertex analysis).
    """
    xs = np.unique(np.concatenate([f.xs, g.xs]))
    fe = f.values(xs)
    ge = g.values(xs)
    e = fe - ge
    d = np.empty_like(xs)
    d[0] = 0.0
    d[1:] = np.cumsum((xs[1:] - xs[:-1]) * (e[:-1] + e[1:]) * 0.5)

    cand_x = list(xs)
    cand_d = list(d)
    for i in range(len(xs) - 1):
        eu, ev = e[i], e[i + 1]
        if eu * ev < 0.0:
            u, v = xs[i], xs[i + 1]
            x_star = u + eu * (v - u) / (eu - ev)
            cand_x.append(float(x_star))
            cand_d.append(float(d[i] + (x_star - u) * eu * 0.5))
    cand_d_arr = np.asarray(cand_d)
    i_min = int(np.argmin(cand_d_arr))
    i_max = int(np.argmax(cand_d_arr))
    return cand_d[i_min], cand_d[i_max], cand_x[i_min], cand_x[i_max]


def cumulative_dominates(
    f: RankFunction,
    g: RankFunction,
    grid_n: int = 10_000,
    tol: float = EQUALITY_TOL,
) -> CumulativeVerdict:
    """Order f and g by their cumulative integrals over the shared domain.

    Piecewise linear pairs get an exact verdict via quadratic vertex analysis
    on the merged knot grid; anything parametric falls back to a grid of
    ``grid_n`` closed-form cumulative evaluations.
    """
    T = _common_T(f, g)
    if isinstance(f, PiecewiseLinearFn) and isinstance(g, PiecewiseLinearFn):
        dmin, dmax, wmin, wmax = _pwl_cumulative_extrema(f, g)
    else:
        xs = np.linspace(0.0, T, grid_n)
        d = f.cumulatives(xs) - g.cumulatives(xs)
        i_min, i_max = int(np.argmin(d)), int(np.argmax(d))
        dmin, dmax = float(d[i_min]), float(d[i_max])
        wmin, wmax = float(xs[i_min]), float(xs[i_max])

    scale = max(1.0, abs(dmin), abs(dmax))
    below = dmin >= -tol * scale
    above = dmax <= tol * scale
    if below and above:
        order = CumulativeOrder.EQUAL
    elif above:
        order = CumulativeOrder.PRECEDES
    elif below:
        order = CumulativeOrder.FOLLOWS
    else:
        order = CumulativeOrder.INCOMPARABLE
    return CumulativeVerdict(order, dmin, dmax, wmin, wmax)


# ---------------------------------------------------------------------------
# Discrete citation data


def from_citations(counts: Sequence[float]) -> PiecewiseLinearFn:
    """Continuize a citation vector into a strictly decreasing knot list.

    Counts are sorted weakly decreasing (sorting is applied if needed),
    trailing zeros are dropped, and the k positive values become knots
    (i, c_{i+1}) for i = 0..k-1 with a terminal knot (k, 0), so T = k.  Tied
    runs are broken by subtracting j*eps from the j-th member of each run,
    eps = 1e-9 * max(counts), which keeps the knots strictly decreasing
    while preserving the total citation count to within rounding.  When the
    nominal eps would overshoot the gap to the next distinct value (extreme
    dynamic range in the counts), it is shrunk to half that gap spread over
    the run, so the output is always a valid rank function.  A tie that no
    float can split (subnormal counts) keeps only its first member as a knot.
    """
    try:
        vals = np.array(counts, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError("citation counts must be numbers") from None
    if vals.ndim != 1:
        raise InputError("citation counts must be a flat list")
    if not vals.size:
        raise InputError("empty citation list")
    bad = ~np.isfinite(vals) | (vals < 0)
    if bad.any():
        raise InputError(f"citation counts must be finite and >= 0, got {float(vals[bad][0])!r}")
    positive = np.sort(vals)[::-1]
    positive = positive[positive > 0.0]
    if not positive.size:
        raise InputError("all-zero citation vector has no rank function")

    eps = 1e-9 * positive[0]
    starts = np.flatnonzero(np.r_[True, positive[1:] != positive[:-1]])
    run_len = np.diff(np.r_[starts, len(positive)])
    v = positive[starts]
    nxt = np.r_[v[1:], 0.0]
    run_eps = np.minimum(eps, (v - nxt) / (2.0 * run_len))
    k = np.arange(len(positive)) - np.repeat(starts, run_len)
    adjusted = positive - k * np.repeat(run_eps, run_len)
    # a tie closer than float resolution (subnormal counts) cannot be split:
    # of the members left equal, only the first stays a knot
    keep = np.r_[True, adjusted[1:] < adjusted[:-1]]
    xs = np.r_[np.flatnonzero(keep), len(positive)].astype(float)
    return PiecewiseLinearFn(xs, np.r_[adjusted[keep], 0.0])


def parse_citations(text: str) -> list[float]:
    """Parse one nonnegative count per line; blank lines are skipped."""
    out: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            v = float(stripped)
        except ValueError:
            raise InputError(f"line {lineno}: not a number: {stripped!r}") from None
        if math.isnan(v) or v < 0:
            raise InputError(f"line {lineno}: citation count must be >= 0, got {v}")
        out.append(v)
    if not out:
        raise InputError("no citation values found")
    return out


# ---------------------------------------------------------------------------
# Function spec (JSON-structured) round trip


def function_from_spec(spec: dict) -> RankFunction:
    """Build a rank function from its JSON-style mapping."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("function spec must be a mapping with a 'type' key")
    kind = spec["type"]
    try:
        if kind == "piecewise_linear":
            fn = PiecewiseLinearFn.from_pairs(spec["knots"])
            if "T" in spec and not math.isclose(float(spec["T"]), fn.T, rel_tol=1e-12):
                raise InputError(f"spec T={spec['T']} disagrees with last knot x={fn.T}")
            return fn
        if kind == "linear":
            return LinearFamily(S=float(spec["S"]), T=float(spec["T"]))
        if kind == "zipf":
            return ZipfFamily(beta=float(spec["beta"]), T=float(spec["T"]))
        if kind == "power_complement":
            return PowerComplement(n=int(spec["n"]))
    except KeyError as exc:
        raise InputError(f"function spec missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed function spec: {exc}") from None
    raise InputError(f"unknown function type {kind!r}")


def function_to_spec(f: RankFunction) -> dict:
    if isinstance(f, PiecewiseLinearFn):
        return {
            "type": "piecewise_linear",
            "T": f.T,
            "knots": np.column_stack((f.xs, f.ys)).tolist(),
        }
    if isinstance(f, LinearFamily):
        return {"type": "linear", "S": f.S, "T": f.T}
    if isinstance(f, ZipfFamily):
        return {"type": "zipf", "beta": f.beta, "T": f.T}
    if isinstance(f, PowerComplement):
        return {"type": "power_complement", "n": f.n}
    raise InputError(f"no spec form for {type(f).__name__}")
