"""Continuous strictly decreasing rank-frequency functions on [0, T].

A rank-frequency function Z maps a continuous source rank x in [0, T] to a
nonnegative item density Z(x), strictly decreasing in x.  This module provides
the concrete representations (piecewise linear from knots, held as the
read-only arrays ``xs`` and ``ys``, plus three parametric families),
pointwise evaluation, exact or closed-form inversion, cumulative
integration I_Z(x) = int_0^x Z, and the exact order comparisons of
piecewise linear functions used by the axiom checkers: the gaps f - g at
merged knots (``_merged_gaps``), from which the checkers read pointwise
dominance (>=, strict >, =), and ``cumulative_dominates``, the partial
order I_Z(x) <= I_Y(x) for all x.  They take piecewise linear functions
only and raise ``InputError`` naming any other type.

Every operation has one code path, a vector routine (``values``,
``inverses``, ``cumulatives``, ``ray_crossings``); each scalar form reads
it at one argument.  ``_PwlStack`` is the one piecewise linear engine: it
runs the routines on many rows at once, each a function read at its own
argument, and a ``PiecewiseLinearFn`` reads through its knots as a one-row
stack.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.

Number text is read and written here alone, and only here is orjson
imported, inside the functions that call it.  One block loop,
``_read_blocks``, reads every number list into a float array, a
``_TEXT_BLOCK`` at a time: a citation file's lines (``parse_citations``)
and an input file's knot or count array (``_flat_read``).
``_number_texts`` and ``_layout`` write floats as a spec's
(``_spec_text``) or a table's text (``_csv``, ``bundles``' JSON).
"""

from __future__ import annotations

import copy
import json
import math
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "InputError",
    "SingularityError",
    "ThetaRangeError",
    "ThetaRange",
    "RankFunction",
    "PiecewiseLinearFn",
    "LinearFamily",
    "ZipfFamily",
    "PowerComplement",
    "CumulativeOrder",
    "CumulativeVerdict",
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
    so nothing is ever evaluated at the point at infinity.  The range of a
    stack of functions (``_PwlStack``) holds per-row bound arrays, which
    ``contains_each`` and ``clamp_each`` compare row by row.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if np.ndim(self.lo) or np.ndim(self.hi):
            return  # a stack's rows, valid by construction
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise InputError(f"invalid theta range [{self.lo}, {self.hi}]")

    @property
    def unbounded_above(self) -> bool:
        return math.isinf(self.hi)

    def contains(self, theta: float) -> bool:
        """Whether theta is finite and in the range, to within ``EQUALITY_TOL``."""
        return bool(self.contains_each(np.float64(theta)))

    def contains_each(self, thetas: np.ndarray) -> np.ndarray:
        """``contains`` for every element of an array."""
        slack = EQUALITY_TOL
        return np.isfinite(thetas) & (thetas >= self.lo - slack) & (thetas <= self.hi + slack)

    def clamp_each(self, thetas: np.ndarray) -> np.ndarray:
        """Every theta accepted by ``contains_each`` snapped onto the closed
        interval (an infinite hi leaves it as it is)."""
        clamped = np.where(self.lo > thetas, self.lo, thetas)
        return np.where(self.hi < clamped, self.hi, clamped)


def _at(vector: Callable[[np.ndarray], np.ndarray], arg: float) -> float:
    """A vector form read at one argument, as a Python float."""
    return float(vector(np.array([arg], dtype=float))[0])


def _on_domain(f: "RankFunction", xs: np.ndarray) -> np.ndarray:
    """Ranks inside [0, T], NaN not among them: the one domain rule, for a
    function or a stack of them (``_PwlStack``, ``_columns``), T per row."""
    return (xs >= 0.0) & (xs <= f.T)


def _positive_finite(name: str, v: float) -> None:
    """Raise ``InputError`` unless v is a number, not a bool, > 0 and finite."""
    if isinstance(v, (bool, np.bool_)) or not (v > 0 and math.isfinite(v)):
        raise InputError(f"{name} must be positive and finite, got {v!r}")


class RankFunction:
    """Base class: continuous, strictly decreasing, nonnegative on [0, T].

    Subclasses provide ``T`` and exact or closed-form vector routines:
    ``values`` and ``cumulatives``, which read their ranks through
    ``_in_domain`` (it raises on a rank off [0, T]), and ``_inverses`` (the
    inverse at levels already admitted).  Every operation has one code
    path: ``inverses`` admits its levels before ``_inverses``, and each
    scalar form (``value``, ``inverse``, ``cumulative``) checks its argument
    and reads its vector form there, so the two give the same floats.
    ``ray_crossings`` defaults to one binary search over the floats of
    [0, T], which ``PowerComplement`` and custom subclasses use.
    """

    T: float
    unbounded_at_origin: bool = False

    def values(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cumulatives(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _inverses(self, thetas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _select(self, keep: np.ndarray) -> "RankFunction":
        """What a vector call reads at the kept arguments: this function.
        (A ``_PwlStack``, one function per argument, keeps the kept rows.)"""
        return self

    @classmethod
    def _columns(cls, fns: Sequence["RankFunction"]) -> "RankFunction":
        """Members fns of this family as one unchecked instance, each field an
        (m, 1) column, so that fns[i] reads row i of an (m, c) argument."""
        f = cls.__new__(cls)
        vars(f).update({v.name: np.array([getattr(g, v.name) for g in fns])[:, None]
                        for v in fields(cls)})
        return f

    def value(self, x: float) -> float:
        self._check_domain(x)
        return _at(self.values, x)

    def _check_domain(self, x: float) -> None:
        if not _on_domain(self, x):
            raise InputError(f"x={x!r} outside domain [0, {self.T}]")

    def _in_domain(self, xs: np.ndarray) -> np.ndarray:
        """The ranks as floats, after checking they lie in [0, T]."""
        xs = np.asarray(xs, dtype=float)
        if not _on_domain(self, xs).all():
            raise InputError("grid points outside domain")
        return xs

    def value_at_origin(self) -> float:
        """Z(0), or ``math.inf`` for functions unbounded at the origin."""
        if self.unbounded_at_origin:
            return math.inf
        return self.value(0.0)

    def admissible_range(self) -> ThetaRange:
        """Theta values theta = Z(x) attained on the domain: [Z(T), Z(0)]."""
        return ThetaRange(self.value(self.T), self.value_at_origin())

    def admit_levels(self, thetas: np.ndarray) -> np.ndarray:
        """The levels snapped onto the admissible range; raises on the first
        one outside it."""
        rng = self.admissible_range()
        thetas = np.asarray(thetas, dtype=float)
        bad = ~rng.contains_each(thetas)
        if bad.any():
            raise ThetaRangeError(
                f"theta={float(thetas[bad][0])!r} outside admissible range [{rng.lo}, {rng.hi}]"
            )
        return rng.clamp_each(thetas)

    def inverses(self, thetas: np.ndarray) -> np.ndarray:
        """The rank x with Z(x) = theta at every level; all must be admissible."""
        return self._inverses(self.admit_levels(thetas))

    def inverse(self, theta: float) -> float:
        return _at(self.inverses, theta)

    def cumulative(self, x: float) -> float:
        self._check_domain(x)
        return _at(self.cumulatives, x)

    def ray_crossings(self, thetas: np.ndarray) -> np.ndarray:
        """The x in [0, T] with Z(x) = theta * x at every level theta > Z(T)/T,
        as the last float at which Z(x) - theta * x > 0: it falls from
        Z(0) > 0 to below 0 at T, and nonnegative floats sort as their bits
        do, which one ``_bisect`` searches for all levels."""
        thetas = np.asarray(thetas, dtype=float)

        def positive(bits: np.ndarray) -> np.ndarray:
            return self.values(bits.view(float)) - thetas * bits.view(float) > 0.0
        return _bisect(np.zeros(thetas.shape, np.int64), np.float64(self.T).view(np.int64),
                       positive).view(float)


class PiecewiseLinearFn(RankFunction):
    """Strictly decreasing piecewise linear function given by its knots.

    Knots must start at x = 0, end at x = T > 0, be strictly increasing in x
    and strictly decreasing in y (exact comparison on the stored values).
    They are stored as two read-only float arrays ``xs`` and ``ys``;
    ``knots`` is a read-only (K, 2) copy of them, one (x, y) row per knot,
    which ``from_pairs`` reads back.  Every read goes through
    ``_stack``, the knots as a one-row ``_PwlStack``: evaluation interpolates
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
        """The function on knots given as (x, y) pairs: the pairs and their
        container each a list, tuple or numpy array.  ``_pair_values`` reads
        them in one flat pass, into one float array (a float (n, 2) array as
        it is), and names a None among them:
        ``knot coordinates must be numbers, got None``."""
        flat = _pair_values(pairs, "knot coordinates")[1]
        return cls(flat[0::2], flat[1::2])

    @classmethod
    def _view(cls, xs: np.ndarray, ys: np.ndarray) -> "PiecewiseLinearFn":
        """The function on read-only knot arrays that a batch check has
        already found valid, without checking them again."""
        f = cls.__new__(cls)
        object.__setattr__(f, "xs", xs)
        object.__setattr__(f, "ys", ys)
        return f

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
    def knots(self) -> np.ndarray:
        knots = np.column_stack((self.xs, self.ys))
        knots.flags.writeable = False
        return knots

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

    @cached_property
    def _stack(self) -> "_PwlStack":
        """The knots as a one-row stack, picked by a 0-d row that broadcasts."""
        return _PwlStack(self.xs[None], self.ys[None], np.array([len(self.xs)]))._select(0)

    def values(self, xs: np.ndarray) -> np.ndarray:
        return self._stack.values(self._in_domain(xs))

    def cumulatives(self, xs: np.ndarray) -> np.ndarray:
        return self._stack.cumulatives(self._in_domain(xs))

    def _inverses(self, thetas: np.ndarray) -> np.ndarray:
        return self._stack._inverses(thetas)

    def ray_crossings(self, thetas: np.ndarray) -> np.ndarray:
        return self._stack.ray_crossings(thetas)


def _valid_knots(xs: np.ndarray, ys: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Per row of padded knot arrays, whether its first size[i] knots pass
    ``PiecewiseLinearFn``'s checks: finite and >= 0, at least two, the first
    at x = 0, xs strictly increasing and ys strictly decreasing."""
    step = np.arange(xs.shape[1] - 1) < (size - 1)[:, None]
    bad = step & ((xs[:, 1:] <= xs[:, :-1]) | (ys[:, 1:] >= ys[:, :-1]))
    finite = np.isfinite(xs) & (xs >= 0.0) & np.isfinite(ys) & (ys >= 0.0)
    return (size >= 2) & (xs[:, 0] == 0.0) & finite.all(axis=1) & ~bad.any(axis=1)


def _bisect(lo: np.ndarray, hi: np.ndarray, holds: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Per argument, the last index in [lo, hi) (hi > lo) at which ``holds``
    does, lo counting as holding: a binary search by lifting, one numpy
    pass per step.  Step s tries lo + s, clamped to hi - 1, and moves lo
    there where ``holds`` does; s runs over the powers of two from the
    largest not above the widest hi - 1 - lo down to 1.  ``holds`` maps
    indices (one per argument) to flags and must hold on a leading run of
    each range: knot indices, as the segment predicates do on increasing xs
    and decreasing ys, or the bits of nonnegative floats, which sort as the
    floats do; scalar bounds broadcast."""
    last = hi - 1
    step = 1 << int(np.max(last - lo, initial=0)).bit_length() >> 1
    while step:
        mid = np.minimum(lo + step, last)
        lo = np.where(holds(mid), mid, lo)
        step >>= 1
    return lo


# Rows per stacked pass: a bound on the memory of every pass.
_BLOCK = 4096


class _PwlStack:
    """Piecewise linear functions stacked one per row, row i read at
    argument i: the one piecewise linear engine.  The bundle rules read it
    as a vector API, with a per-row array wherever a function answers a
    scalar (``T``, the range bounds, Z(0)), and each ``PiecewiseLinearFn``
    reads through its own one-row stack.  The knots sit once in two
    (functions, width) arrays, each row padded by repeating its last knot,
    and are read flat; a row names the function it reads (a function may
    fill many rows), and ``_select`` only picks rows (a 0-d pick reads one
    row at arguments of any shape).  Each search finds the segment
    [x_j, x_{j+1}] of every argument by binary search among its row's own
    knots, so a pass costs O(log K) numpy steps and no Python per row.
    """

    unbounded_at_origin = False

    def __init__(self, xs: np.ndarray, ys: np.ndarray, size: np.ndarray) -> None:
        """The stack of padded knot arrays xs and ys, row i holding a function
        of size[i] knots."""
        first = np.arange(len(xs)) * xs.shape[1]
        self._pool = {"first": first, "last": first + size - 1, "width": xs.shape[1]}
        self.xs, self.ys = xs.ravel(), ys.ravel()
        # the steps that straddle two rows are never read
        self._dxs = self.xs[1:] - self.xs[:-1]
        self._dys = self.ys[1:] - self.ys[:-1]
        self._pick(np.arange(len(xs)))

    @classmethod
    def of(cls, fns: Sequence[PiecewiseLinearFn]) -> "_PwlStack":
        """The functions stacked in order (none: a stack of no rows)."""
        size = np.array([len(f.xs) for f in fns], dtype=int)
        at = (np.cumsum(size) - size)[:, None] + np.minimum(np.arange(size.max(initial=1)),
                                                            size[:, None] - 1)
        return cls(*(np.concatenate([[], *(getattr(f, v) for f in fns)])[at]
                     for v in ("xs", "ys")), size)

    def _pick(self, rows: np.ndarray) -> None:
        self._rows = rows
        self._first, self._last = self._pool["first"][rows], self._pool["last"][rows]
        self.T = self.xs[self._last]

    def _knots(self, rows: np.ndarray) -> np.ndarray:
        """The picked rows' padded knot ranks, one row each."""
        return self.xs.reshape(-1, self._pool["width"])[self._rows[rows]]

    @property
    def _area_prefix(self) -> np.ndarray:
        """Trapezoid area accumulated up to each knot, for all rows in one
        pass, the cumulative sum running along each row."""
        if "area" not in self._pool:  # only the passes that integrate need it
            xs, ys = (v.reshape(-1, self._pool["width"]) for v in (self.xs, self.ys))
            area = np.zeros(xs.shape)
            np.cumsum((xs[:, 1:] - xs[:, :-1]) * (ys[:, :-1] + ys[:, 1:]) * 0.5, axis=1,
                      out=area[:, 1:])
            self._pool["area"] = area.ravel()
        return self._pool["area"]

    def _keys(self) -> np.ndarray:
        """Per picked row, its knots' bytes as one value, equal to another
        row's exactly when the two functions' knots are equal."""
        width = self._pool["width"]
        knots = np.hstack([v.reshape(-1, width)[self._rows] for v in (self.xs, self.ys)]) + 0.0
        return knots.view(np.dtype((np.void, knots.itemsize * 2 * width))).ravel()

    def _row(self, row: int) -> PiecewiseLinearFn:
        """The function of one row of the pool, on views of the stack's knot
        arrays (read-only where they are) that a batch check has already
        found valid."""
        at = slice(self._pool["first"][row], self._pool["last"][row] + 1)
        return PiecewiseLinearFn._view(self.xs[at], self.ys[at])

    def _select(self, keep: np.ndarray) -> "_PwlStack":
        """The rows that a mask or an index array picks."""
        stack = copy.copy(self)
        stack._pick(self._rows[keep])
        return stack

    def _read(self, vector: Callable[["_PwlStack", np.ndarray], np.ndarray], rows: np.ndarray,
              args: np.ndarray) -> np.ndarray:
        """vector(stack of the given rows, args), ``_BLOCK`` rows at a time."""
        out = np.empty(len(rows))
        for i in range(0, len(rows), _BLOCK):
            out[i : i + _BLOCK] = vector(self._select(rows[i : i + _BLOCK]), args[i : i + _BLOCK])
        return out

    def value_at_origin(self) -> np.ndarray:
        return self.ys[self._first]

    def admissible_range(self) -> ThetaRange:
        return ThetaRange(self.ys[self._last], self.ys[self._first])

    def _segments(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The points as floats, the segment j holding each (T is on the last
        one) and their offsets x - x_j."""
        xs = np.asarray(xs, dtype=float)
        j = _bisect(self._first, self._last, lambda k: self.xs[k] <= xs)
        return xs, j, xs - self.xs[j]

    def _interpolate(self, xs: np.ndarray, j: np.ndarray, dx: np.ndarray) -> np.ndarray:
        y = self.ys[j] + dx / self._dxs[j] * self._dys[j]
        # knot hits stay exact; T is the only point on a segment's right end
        return np.where(xs == self.T, self.ys[self._last], y)

    def values(self, xs: np.ndarray) -> np.ndarray:
        return self._interpolate(*self._segments(xs))

    def cumulatives(self, xs: np.ndarray) -> np.ndarray:
        xs, j, dx = self._segments(xs)
        return self._area_prefix[j] + dx * (self.ys[j] + self._interpolate(xs, j, dx)) * 0.5

    def _inverses(self, thetas: np.ndarray) -> np.ndarray:
        j = _bisect(self._first, self._last, lambda k: self.ys[k] > thetas)
        x = self.xs[j] + (thetas - self.ys[j]) / self._dys[j] * self._dxs[j]
        # at the level Z(T), x_j + (x_{j+1} - x_j) can round past T
        return np.minimum(x, self.T)

    def ray_crossings(self, thetas: np.ndarray) -> np.ndarray:
        """The root of Z(x) = theta * x for theta > Z(T)/T: the knot residuals
        y_i - theta * x_i strictly decrease from y_0 > 0, so a binary search
        finds the segment j where they change sign, linearly along it."""
        thetas = np.asarray(thetas, dtype=float)
        j = _bisect(self._first, self._last, lambda k: self.ys[k] - thetas * self.xs[k] > 0.0)
        r0 = self.ys[j] - thetas * self.xs[j]
        r1 = self.ys[j + 1] - thetas * self.xs[j + 1]
        return self.xs[j] + r0 * self._dxs[j] / (r0 - r1)


@dataclass(frozen=True)
class LinearFamily(RankFunction):
    """Z(x) = S * (1 - x / T): a straight line from (0, S) down to (T, 0).

    Z(x) = theta * x at x = S*T / (theta*T + S).
    """

    S: float
    T: float

    def __post_init__(self) -> None:
        _positive_finite("S", self.S)
        _positive_finite("T", self.T)

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = self._in_domain(xs)
        return self.S * (1.0 - xs / self.T)

    def _inverses(self, thetas: np.ndarray) -> np.ndarray:
        return self.T * (1.0 - thetas / self.S)

    def ray_crossings(self, thetas: np.ndarray) -> np.ndarray:
        return self.S * self.T / (np.asarray(thetas, dtype=float) * self.T + self.S)

    def cumulatives(self, xs: np.ndarray) -> np.ndarray:
        xs = self._in_domain(xs)
        return self.S * (xs - xs * xs / (2.0 * self.T))


@dataclass(frozen=True)
class ZipfFamily(RankFunction):
    """Z(x) = (T / x) ** beta with 0 < beta < 1, unbounded at the origin.

    Pointwise evaluation at x = 0 raises ``SingularityError``; the cumulative
    integral is still finite and handled analytically:
    int_0^x (T/s)**beta ds = T**beta * x**(1-beta) / (1-beta).
    The admissible range is [Z(T), inf) = [1, inf), open above.
    Z(x) = theta * x at x = (T**beta / theta) ** (1 / (1 + beta)).

    ``ray_crossings`` loops over that root in Python's pow: numpy's vector
    power differs from the C library's pow by an ulp on some levels, and the
    loop keeps h on the C library's floats.
    """

    beta: float
    T: float
    unbounded_at_origin = True

    def __post_init__(self) -> None:
        if not (0.0 < self.beta < 1.0):
            raise InputError(f"beta must lie in (0, 1), got {self.beta!r}")
        _positive_finite("T", self.T)

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.size and xs.min() <= 0.0:
            raise SingularityError("Zipf function has a pole at x=0; points must be > 0")
        return (self.T / self._in_domain(xs)) ** self.beta

    def admissible_range(self) -> ThetaRange:
        return ThetaRange(1.0, math.inf)

    def _inverses(self, thetas: np.ndarray) -> np.ndarray:
        return self.T * thetas ** (-1.0 / self.beta)

    def ray_crossings(self, thetas: np.ndarray) -> np.ndarray:
        scale, power = self.T**self.beta, 1.0 / (1.0 + self.beta)
        return np.array([(scale / t) ** power for t in np.asarray(thetas, dtype=float).tolist()],
                        dtype=float)

    def cumulatives(self, xs: np.ndarray) -> np.ndarray:
        xs = self._in_domain(xs)
        return self.T**self.beta * xs ** (1.0 - self.beta) / (1.0 - self.beta)


@dataclass(frozen=True)
class PowerComplement(RankFunction):
    """Z(x) = 1 - x**n on [0, 1] for a positive integer n that a float can
    hold: the routines read n as a float."""

    n: int

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise InputError(f"n must be an integer >= 1, got {self.n!r}")
        if self.n > sys.float_info.max:
            raise _beyond_float("n")

    @property
    def T(self) -> float:
        return 1.0

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = self._in_domain(xs)
        return 1.0 - xs**self.n

    def _inverses(self, thetas: np.ndarray) -> np.ndarray:
        return (1.0 - thetas) ** (1.0 / self.n)

    def _log_inverses(self, log_s: np.ndarray) -> np.ndarray:
        """The inverse at the levels 1 - exp(log_s), which can be closer to 1
        than any float theta below it."""
        return np.exp(log_s / self.n)

    def cumulatives(self, xs: np.ndarray) -> np.ndarray:
        xs = self._in_domain(xs)
        return xs - xs ** (self.n + 1) / (self.n + 1)


# ---------------------------------------------------------------------------
# Order comparisons


def _piecewise_linear(fns: Sequence[RankFunction]) -> None:
    """Raise ``InputError``, naming the type, unless every function is
    piecewise linear: pair checks are exact on knots only."""
    for f in fns:
        if not isinstance(f, PiecewiseLinearFn):
            raise InputError(f"exact pair checks need piecewise linear functions, got "
                             f"{type(f).__name__}")


def _common_T(f: RankFunction, g: RankFunction) -> float:
    """The shared domain end: the smaller T, so that a read of both stays
    inside both domains; raises unless the two agree to 1e-12 relative."""
    if not math.isclose(f.T, g.T, rel_tol=1e-12, abs_tol=0.0):
        raise InputError(f"domain mismatch: T={f.T} vs T={g.T}")
    return min(f.T, g.T)


def _merged_gaps(stack: _PwlStack, up: np.ndarray, lo: np.ndarray,
                 ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f - g for the piecewise linear pairs (f, g) = (rows up[i], lo[i]) of a
    stack at their merged knots inside [0, ends[i]] and at ends[i], in one
    stacked pass: one row per pair of points (sorted, padded by repeats) and
    of gaps.  f - g is linear between merged knots, so its extremes on
    [0, ends[i]] are among these points."""
    # a knot past the end is moved onto it, and the last knot of each is past
    points = np.sort(np.minimum(np.hstack((stack._knots(up), stack._knots(lo))), ends[:, None]),
                     axis=1)
    width, flat = points.shape[1], points.ravel()
    f, g = (stack._read(_PwlStack.values, np.repeat(rows, width), flat) for rows in (up, lo))
    return points, (f - g).reshape(points.shape)


def _extremes(xs: np.ndarray, diff: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row of the points xs and the gaps diff there: the least gap and
    the first point where it falls, the largest |gap| and the first point
    where it falls."""
    rows = np.arange(len(diff))
    i, j = np.argmin(diff, axis=1), np.argmax(np.abs(diff), axis=1)
    return diff[rows, i], xs[rows, i], np.abs(diff[rows, j]), xs[rows, j]


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


def _cumulative_candidates(xs: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every point where d(x) = I_f(x) - I_g(x) can take an extreme, for
    piecewise linear pairs, one row per row of the merged knots xs (a
    repeated knot adds nothing) and of e = f - g there: d and x at the
    candidates, and whether each candidate exists.

    On each merged segment both functions are linear, so d is quadratic with
    d' = f - g; extrema can only occur at segment ends or at the interior
    zero of f - g (vertex analysis).  Candidates are the knots, then the
    crossings by segment, which exist where f - g changes sign.
    """
    u, eu, ev = xs[:, :-1], e[:, :-1], e[:, 1:]
    dx = xs[:, 1:] - u
    d = np.zeros_like(xs)
    d[:, 1:] = np.cumsum(dx * (eu + ev) * 0.5, axis=1)
    crossing = eu * ev < 0.0
    x_star = u + eu * dx / np.where(crossing, eu - ev, 1.0)
    d_star = d[:, :-1] + (x_star - u) * eu * 0.5
    return (np.hstack((d, d_star)), np.hstack((xs, x_star)),
            np.hstack((np.ones(xs.shape, dtype=bool), crossing)))


def _cumulative_extrema(xs: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exact extrema of d(x) = I_f(x) - I_g(x) over the candidates of
    ``_cumulative_candidates``: the least and largest d and where each
    first falls."""
    cand_d, cand_x, real = _cumulative_candidates(xs, e)
    rows = np.arange(len(xs))
    i_min = np.argmin(np.where(real, cand_d, math.inf), axis=1)
    i_max = np.argmax(np.where(real, cand_d, -math.inf), axis=1)
    return cand_d[rows, i_min], cand_d[rows, i_max], cand_x[rows, i_min], cand_x[rows, i_max]


def _cumulative_order(dmin: float, dmax: float) -> CumulativeOrder:
    """The order that the extremes of I_f - I_g give, to ``EQUALITY_TOL``
    scaled by the larger of 1 and their size."""
    tol = EQUALITY_TOL * max(1.0, abs(dmin), abs(dmax))
    above = dmax <= tol
    if dmin >= -tol:
        return CumulativeOrder.EQUAL if above else CumulativeOrder.FOLLOWS
    return CumulativeOrder.PRECEDES if above else CumulativeOrder.INCOMPARABLE


def cumulative_dominates(f: RankFunction, g: RankFunction) -> CumulativeVerdict:
    """Order the piecewise linear f and g by their cumulative integrals over
    the shared domain, exactly: quadratic vertex analysis on the merged knot
    grid, the pass that pair verification reads (``_merged_gaps``,
    ``_cumulative_extrema``) on the two as a two-row stack."""
    _piecewise_linear((f, g))
    ends = np.array([_common_T(f, g)])
    gaps = _merged_gaps(_PwlStack.of([f, g]), np.array([0]), np.array([1]), ends)
    dmin, dmax, wmin, wmax = (float(v[0]) for v in _cumulative_extrema(*gaps))
    return CumulativeVerdict(_cumulative_order(dmin, dmax), dmin, dmax, wmin, wmax)


# ---------------------------------------------------------------------------
# Discrete citation data


def from_citations(counts: Sequence[float]) -> PiecewiseLinearFn:
    """Continuize a citation vector into a strictly decreasing knot list.

    Counts are sorted weakly decreasing (sorting is applied if needed),
    trailing zeros are dropped, and the k positive values become knots
    (i, c_{i+1}) for i = 0..k-1 with a terminal knot (k, 0), so T = k.  Tied
    runs are broken by subtracting j*eps from the j-th member of each run,
    eps = 1e-9 * max(counts), which keeps the knots strictly decreasing.
    When the nominal eps would overshoot the gap to the next distinct value
    (extreme dynamic range in the counts), it is shrunk to half that gap
    spread over the run, so the output is always a valid rank function.  A
    tie that no float can split (subnormal counts) keeps only its first
    member as a knot.

    What the curve keeps of the counts: its integral over [0, T] is the
    trapezoid sum, sum(c) - c_1/2 for tie-free counts (c_1 the largest;
    ``[3, 2, 1]`` integrates to 4.5, not 6), and the tie-breaking lowers it
    further.  For integer counts its classical h (``bundles.classical_h``)
    satisfies h_d - 1 < h <= h_d, h_d the discrete h-index: Z(h_d - 1) =
    c_{h_d} >= h_d and Z(h_d) = c_{h_d+1} <= h_d.  Neither the order of the
    counts nor zeros among them change the result.
    """
    try:
        vals = np.asarray(counts, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError("citation counts must be numbers") from None
    if vals.ndim != 1:
        raise InputError("citation counts must be a flat list")
    if not vals.size:
        raise InputError("empty citation list")
    bad = ~np.isfinite(vals) | (vals < 0)
    if bad.any():
        raise InputError(f"citation counts must be finite and >= 0, got {float(vals[bad][0])!r}")
    # the distinct positive counts, descending, and the length of each run
    v, run_len = (a[::-1] for a in np.unique(vals[vals > 0.0], return_counts=True))
    if not v.size:
        raise InputError("all-zero citation vector has no rank function")

    run_eps = np.minimum(1e-9 * v[0], (v - np.r_[v[1:], 0.0]) / (2.0 * run_len))
    adjusted = np.repeat(v, run_len)
    k = np.arange(len(adjusted)) - np.repeat(run_len.cumsum() - run_len, run_len)
    adjusted -= k * np.repeat(run_eps, run_len)
    # a tie closer than float resolution (subnormal counts) cannot be split:
    # of the members left equal, only the first stays a knot
    keep = np.r_[True, adjusted[1:] < adjusted[:-1]]
    xs = np.r_[np.flatnonzero(keep), len(adjusted)].astype(float)
    return PiecewiseLinearFn(xs, np.r_[adjusted[keep], 0.0])


# ---------------------------------------------------------------------------
# Number text: float arrays read from an input file's text and written as text


# bytes of an input text read at a time, run on to a cut
_TEXT_BLOCK = 1 << 16
# JSON whitespace, and what a JSON number is written with
_WHITESPACE = b" \t\n\r"
_NUMBER_BYTES = b"0123456789.eE+-"


def _only(allowed: bytes) -> Callable[[bytearray], bool]:
    """The test that a block holds only the allowed bytes in its brackets."""
    return lambda block: block.translate(None, allowed) == b"[]"


def _pairs_only(block: bytearray) -> bool:
    """Whether a block of knot pairs reads ``[[,],[,]...[,]]`` once its
    numbers and whitespace are deleted, and no number sits outside a pair:
    the whitespace alone deleted, it starts with ``[[`` and ends with
    ``]]``, and each ``]`` but the last two has a ``[`` two bytes on, so
    that the one byte between is the comma."""
    shape = block.translate(None, _WHITESPACE)
    skeleton = shape.translate(None, _NUMBER_BYTES)
    octets = np.frombuffer(shape, np.uint8)
    return (skeleton == b"[" + (b"[,]," * ((len(skeleton) - 1) // 4))[:-1] + b"]"
            and shape[:2] == b"[[" and shape[-2:] == b"]]"
            and bool(((octets[:-2] == 93) <= (octets[2:] == 91)).all()))


# The rows of number lists read a block at a time: the byte that blocks are
# cut at, the byte that ends a unit in a block, the shape of a unit's
# values, the test of a block's bytes and the table that makes a block's
# units one list of numbers.  A spec's knot pairs are cut before a pair's
# "[", their brackets blanked; a citations object's counts after a count's
# comma; and the lines of a line file after a "\n", the line ends made
# commas.  Line bytes are JSON numbers without a sign (so "-0" is never read
# as the int 0), spaces and tabs, "\n" and "\r"
_KNOTS = (b"[", b",", (2,), _pairs_only, bytes.maketrans(b"[]", b"  "))
_COUNTS = (b",", b",", (), _only(_NUMBER_BYTES + _WHITESPACE + b","), None)
_LINES = (b"\n", b"\n", (), _only(_NUMBER_BYTES.replace(b"-", b"") + _WHITESPACE),
          bytes.maketrans(b"\n", b","))
# the number arrays read from an input file's bytes, by key
_FLAT_ARRAYS = (("knots", _KNOTS), ("citations", _COUNTS))


def _floats(block: bytes | bytearray) -> np.ndarray:
    """The values of a JSON list of numbers as a float array: orjson
    decodes them to the doubles that ``json.loads`` gives, and raises
    ``ValueError`` on what it rejects (NaN, an infinity, an int beyond 64
    bits, a value beyond the float range, an empty slot)."""
    import orjson

    values = orjson.loads(block)
    return np.fromiter(values, float, len(values))


def _read_blocks(data: bytes, start: int, end: int, row: tuple) -> np.ndarray | None:
    """The values of the units of one row's kind in data[start:end], which
    the bytes data[start - 1] and data[end] enclose, as one float array, a
    unit's values a row of it; or None where a block declines.  The units
    are counted first, a unit per cut byte (and one more where the cut
    byte ends a unit, which the last unit lacks).  Then a block of whole
    units at least ``_TEXT_BLOCK`` long is cut at a time, up to its last
    separator, which only whitespace may follow (``[0, 3,] [1, 0]`` holds
    a pair's).  It is copied once with the byte before it and that
    separator, which are made a list's brackets; it must pass the row's
    check, and translated by the row's table, it is one JSON list that
    ``_floats`` decodes.  A block that fails either declines, and so does
    a read whose blocks fill fewer slots than there are units (an empty
    slot at a block's edge)."""
    cut_byte, sep, tail, check, table = row
    closes = cut_byte == sep
    # counted a block at a time by numpy, which bytes.count is slower than
    octets = np.frombuffer(data, np.uint8, end - start, start)
    units = sum(int(np.count_nonzero(octets[a:a + _TEXT_BLOCK] == cut_byte[0]))
                for a in range(0, len(octets), _TEXT_BLOCK))
    array = np.empty((units + closes, *tail))
    flat, view, at, i, last = array.reshape(-1), memoryview(data), start, 0, False
    while not last:
        # past the block's first separator, so that it holds one; none
        # left, and the block runs to the end
        cut = data.find(cut_byte, max(at + _TEXT_BLOCK, data.find(sep, at, end) + 1 or end), end)
        last = cut < 0
        stop = end if last else data.rfind(sep, at, cut + closes)
        if not last and data[stop + 1:cut].strip(_WHITESPACE):
            return None
        block = bytearray(view[at - 1:stop + 1])
        block[0], block[-1] = b"[]"
        if not check(block):
            return None
        if table:  # which blanks a knot block's brackets too
            block = block.translate(table)
            block[0], block[-1] = b"[]"
        try:
            values = _floats(block)
        except ValueError:
            return None
        flat[i:i + len(values)] = values
        at, i = cut + closes, i + len(values)
    return array if i == len(flat) else None


def parse_citations(text: str) -> np.ndarray:
    """Parse one nonnegative count per line, blank lines skipped, into a
    float array.  A text longer than one ``_TEXT_BLOCK`` (a shorter one
    never imports orjson) is read as ``_read_blocks``' ``_LINES`` row.
    Where a block declines (a sign, a blank line between counts,
    ``1_000``, two numbers on a line that a lone ``"\\r"`` splits, a byte
    beyond ASCII), the whole text is read again, and a short text at once,
    each line by ``float`` (``_split_lines``), which names a bad line."""
    values = None
    if len(text) > _TEXT_BLOCK and text.isascii():
        # in brackets, as a JSON array is; trailing blank lines would end
        # the last block in an empty slot
        data = b"[%b]" % text.rstrip().encode()
        values = _read_blocks(data, 1, len(data) - 1, _LINES)
    if values is None:
        values = _split_lines(text)
    if not len(values):
        raise InputError("no citation values found")
    return values


def _split_lines(text: str) -> np.ndarray:
    """The counts of a text, each line read by ``float``; a bad line is
    named by its number."""
    lines = text.splitlines()
    try:
        vals = np.fromiter(map(float, filter(None, map(str.strip, lines))), float)
    except ValueError:
        vals = None
    if vals is None or not (vals >= 0).all():  # NaN fails >= 0 too
        # the vector pass failed: name the first bad line
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                v = float(stripped)
            except ValueError:
                raise InputError(f"line {lineno}: not a number: {stripped!r}") from None
            if not v >= 0:
                raise InputError(f"line {lineno}: citation count must be >= 0, got {v}")
    return vals


def _flat_read(data: bytes) -> dict | None:
    """The JSON object that the bytes of a file hold, its ``"knots"`` array
    (in a file without that key, its ``"citations"`` array) read by
    ``_read_blocks`` into a float array, (n, 2) for knots; None, and the
    caller decodes the whole file, unless that read gives what
    ``json.loads`` gives of the file's UTF-8 text and every value fits a
    float.  Never raises.

    It takes the bytes only where the key occurs once, and the text around
    the array, with ``[]`` in its place, is UTF-8, holds no backslash and
    decodes to an object whose key holds that ``[]``.  The rows' checks
    (number bytes, whitespace and commas in a count block, which orjson's
    list grammar reads as one number a slot or rejects; only pairs of
    numbers in a knot block) leave the array no quote, so no key or
    backslash hides in it, and only ints and floats: no bool, string,
    null, NaN or infinity, which the array would hide once read as floats.
    What orjson rejects (NaN, an infinity, a value beyond the float range,
    an empty slot) is read by the general path, which names it."""
    for name, row in _FLAT_ARRAYS:
        key = f'"{name}"'
        at = data.find(key.encode())
        if at >= 0:
            break
    else:
        return None
    # the array runs from the first "[" after the key to the last "]" before
    # the next quote or "}"; the checks below hold only if it really does
    start = data.find(b"[", at)
    close = data.find(b"}", start)
    if min(start, close) < 0:
        return None
    quote = data.find(b'"', start, close)
    end = data.rfind(b"]", start, close if quote < 0 else quote)
    if end < 0:
        return None
    try:
        outside = (data[:start] + b"[]" + data[end + 1:]).decode("utf-8")
        if outside.count(key) != 1 or "\\" in outside:
            return None
        obj = json.loads(outside)
    except (ValueError, RecursionError):
        return None
    if type(obj) is not dict or obj.get(name) != []:
        return None
    obj[name] = _read_blocks(data, start + 1, end, row)
    return None if obj[name] is None else obj


# The text that a cell whose ``repr`` is a key has in each output: json
# writes NaN (None) as null and the infinities in JavaScript's words
_CSV_CELLS = {"nan": "NA"}
_JSON_CELLS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _number_texts(values: np.ndarray, cells: dict[str, str] = _JSON_CELLS) -> list[str]:
    """Each float of values, in C order, as its ``repr`` or the text that
    cells give that ``repr``.  orjson writes them in one call, as ``repr``
    does in [1e-4, 1e16) and at zero; outside, where its exponent notation
    differs (``1e16``, ``2.5e-8``), at NaN and the infinities, which it
    writes as null, and at negative floats (none in a table or spec),
    ``repr`` does."""
    import orjson

    flat = values.ravel()
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    for k in np.flatnonzero(~((flat >= 1e-4) & (flat < 1e16) | (flat == 0.0))).tolist():
        t = repr(flat[k].item())
        texts[k] = cells.get(t, t)
    return texts if flat.size else []


def _layout(texts: list[str], row: list[str], slots: Sequence[int]) -> list[str]:
    """row's parts once per row of a table, the cells' texts in its slots:
    texts holds the columns one after another, and column j fills slot
    ``slots[j]`` of every row."""
    n = len(texts) // len(slots)
    parts = row * n
    for j, slot in enumerate(slots):
        parts[slot::len(row)] = texts[j * n:(j + 1) * n]
    return parts


def _csv(names: Sequence[str], texts: list[str]) -> str:
    """A header of the column names, then a line per row of the cells'
    texts, which hold the columns one after another."""
    parts = _layout(texts, ["", ","] * (len(names) - 1) + ["", "\n"], range(0, 2 * len(names), 2))
    return "".join([",".join(names) + "\n", *parts])


_SPEC_BLOCK = 4096  # knots written in one block of text
# a knot's text in a spec: its x and y slots, then the separator to the next
_SPEC_KNOT = ["", ",\n      ", "", "\n    ],\n    [\n      "]


def _spec_text(f: PiecewiseLinearFn) -> Iterator[str]:
    """``json.dumps(function_to_spec(f), indent=2, sort_keys=True) + "\\n"``
    byte for byte, in blocks of ``_SPEC_BLOCK`` knots, without the
    pure-Python encoder that ``indent`` selects: json writes a finite float
    as its ``repr``, and so does ``_number_texts``, which writes a block's
    xs, then its ys, in one orjson call, and ``_layout`` sets them in the
    slots of each knot's text, as it sets a table's cells.  The spec's
    opening text is the first block, and its closing text takes the place
    of the last knot's separator."""
    yield f'{{\n  "T": {f.T!r},\n  "knots": [\n    [\n      '
    for at in range(0, len(f.xs), _SPEC_BLOCK):
        columns = np.stack((f.xs[at:at + _SPEC_BLOCK], f.ys[at:at + _SPEC_BLOCK]))
        parts = _layout(_number_texts(columns), _SPEC_KNOT, (0, 2))
        if at + _SPEC_BLOCK >= len(f.xs):
            parts[-1] = '\n    ]\n  ],\n  "type": "piecewise_linear"\n}\n'
        yield "".join(parts)


# ---------------------------------------------------------------------------
# Function spec (JSON-structured) round trip


# the types of a knot list and of its pairs, subclasses included; the set
# test settles the usual exact types without a per-type issubclass
_PAIR_TYPES = frozenset((list, tuple, np.ndarray))


def _pair_values(pairs: Sequence[tuple[float, float]] | np.ndarray,
                 what: str) -> tuple[list, np.ndarray]:
    """The values of knots given as (x, y) pairs, x0, y0, x1, y1, ..., as
    one flat list and as the float array read from it; a float (n, 2)
    array of n >= 1 pairs is read as it is, beside an empty list.  Raises
    ``InputError`` unless there is a pair, the pairs and their container are
    each a list, tuple or numpy array, every pair holds two values, and
    every value reads as a float, an int beyond the float range named as
    such; a None, which the float conversion reads as NaN, is named as
    ``{what} must be numbers, got None``."""
    if type(pairs) is np.ndarray and pairs.dtype == float and pairs.shape[1:] == (2,) and len(pairs):
        return [], pairs.ravel()
    try:
        values = _flatten(pairs)
        flat = np.fromiter(values, float, len(values))
    except OverflowError:
        raise _beyond_float("knot coordinates") from None
    except (TypeError, ValueError):
        raise InputError("knots must be a list of (x, y) pairs") from None
    if np.isnan(flat).any() and any(v is None for v in values):
        raise InputError(f"{what} must be numbers, got None")
    return values, flat


def _flatten(pairs: Sequence[tuple[float, float]]) -> list:
    """The pairs' values in one list, or TypeError unless there is a pair,
    every pair holds two values, and the pairs and their container are each
    a list, tuple or numpy array."""
    if not (len(pairs) > 0 and set(map(len, pairs)) == {2}):
        raise TypeError
    types = {type(pairs), *map(type, pairs)}
    if not (types <= _PAIR_TYPES or all(issubclass(t, tuple(_PAIR_TYPES)) for t in types)):
        raise TypeError
    return [*chain.from_iterable(pairs)]


def _numbers(what: str, values: list) -> np.ndarray:
    """The values of a field of an input file as a float array.  Raises
    ``InputError``, naming what, unless every value is a JSON number
    (``_json_numbers``) that a float holds: an int beyond the float range
    is named by the bound."""
    _json_numbers(what, values)
    try:
        return np.fromiter(values, float, len(values))
    except OverflowError:
        raise _beyond_float(what) from None


def _json_numbers(what: str, values: list) -> None:
    """Raise ``InputError``, naming what and the first bad value, unless
    every value is a JSON number: an int or a float, not a bool or a
    string, which ``float`` would read too."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise InputError(f"{what} must be numbers, got {bad!r}")


def _beyond_float(what: str) -> InputError:
    """The error for an int too large for a float: it names the bound, not
    the int's digits."""
    return InputError(f"{what} must be at most {sys.float_info.max!r} in magnitude, "
                      "the largest float")


def function_from_spec(spec: dict) -> RankFunction:
    """Build a rank function from its JSON-style mapping, each field's
    numbers read by ``_numbers``.  A piecewise linear spec's knots are read
    as ``from_pairs`` reads them, by ``_pair_values``, which takes a float
    array (``_flat_read``'s) as it is: their shape, their floats (a
    null named there) and the function are checked first, then ``T``, then
    that each value of a nested list is a JSON number, then ``T`` against
    the last knot."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("function spec must be a mapping with a 'type' key")
    kind = spec["type"]
    try:
        if kind == "piecewise_linear":
            what = "knot coordinates and T"
            values, flat = _pair_values(spec["knots"], what)
            fn = PiecewiseLinearFn(flat[0::2], flat[1::2])
            T = spec.get("T", fn.T)
            # T's type is named first; the float conversion of the values
            # also read bools and numeric strings
            (t,) = _numbers(what, [T])
            _json_numbers(what, values)
            if not math.isclose(t, fn.T, rel_tol=1e-12):
                raise InputError(f"spec T={T} disagrees with last knot x={fn.T}")
            return fn
        if kind == "linear":
            S, T = _numbers("S and T", [spec["S"], spec["T"]]).tolist()
            return LinearFamily(S=S, T=T)
        if kind == "zipf":
            beta, T = _numbers("beta and T", [spec["beta"], spec["T"]]).tolist()
            return ZipfFamily(beta=beta, T=T)
        if kind == "power_complement":
            n = spec["n"]
            if isinstance(n, bool) or (isinstance(n, float) and not n.is_integer()):
                raise InputError(f"n must be an integer >= 1, got {n!r}")
            _numbers("n", [n])
            return PowerComplement(n=int(n))
    except KeyError as exc:
        raise InputError(f"function spec missing field {exc}") from None
    raise InputError(f"unknown function type {kind!r}")


def function_to_spec(f: RankFunction) -> dict:
    if isinstance(f, PiecewiseLinearFn):
        return {
            "type": "piecewise_linear",
            "T": f.T,
            "knots": f.knots.tolist(),
        }
    # Python numbers, which json writes, whatever numpy scalars built f
    if isinstance(f, LinearFamily):
        return {"type": "linear", "S": float(f.S), "T": float(f.T)}
    if isinstance(f, ZipfFamily):
        return {"type": "zipf", "beta": float(f.beta), "T": float(f.T)}
    if isinstance(f, PowerComplement):
        return {"type": "power_complement", "n": int(f.n)}
    raise InputError(f"no spec form for {type(f).__name__}")
