"""Impact bundles over rank functions.

A bundle assigns to every rank function Z a one-parameter family of scores
m_Z(theta), together with a map from ranks x to parameter values theta.  Four
bundles are provided:

* ``e_theta``   excess area above the density level theta,
                e_theta(Z) = int_0^{Z^-1(theta)} (Z(s) - theta) ds,
                defined for theta in [Z(T), Z(0)]
* ``h_theta``   generalized h-index: the unique root of Z(h) = theta * h,
                defined for theta >= Z(T)/T
* ``mu_bundle`` running average (1/theta) int_0^theta Z, theta in [0, T]
* ``i_bundle``  cumulative total int_0^theta Z, theta in [0, T]

At theta = 1 the h bundle reduces to the classical h-index, and the excess
area at that h equals the squared e-index sqrt(R^2 - h^2) of the h-core
(both the area and its square root are exposed, see ``e_index``).

``e_thetas`` and ``h_thetas`` score many levels at once through the
functions' vector forms (``inverses``, ``cumulatives``, ``ray_crossings``),
one code path for every family; ``sweep`` uses them.  They repeat the scalar
forms' arithmetic, so both give the same floats, except that numpy's power
can move a Zipf or power-complement inverse by an ulp or two.
"""

from __future__ import annotations

import inspect
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .functions import (
    InputError,
    RankFunction,
    ThetaRange,
    ThetaRangeError,
)

__all__ = [
    "ConsistencyError",
    "e_theta",
    "e_thetas",
    "h_theta",
    "h_thetas",
    "mu_bundle",
    "i_bundle",
    "classical_h",
    "r_index_squared",
    "e_index",
    "excess_at_h",
    "BundleDef",
    "E_BUNDLE",
    "H_BUNDLE",
    "MU_BUNDLE",
    "I_BUNDLE",
    "BUNDLES",
    "SweepRow",
    "SweepTable",
    "sweep",
]


class ConsistencyError(RuntimeError):
    """An internal cross-check failed beyond numerical tolerance."""


def e_theta(f: RankFunction, theta: float) -> float:
    """Excess area of f above the level theta, left of the inverse rank.

    Computed as I(x) - theta * x with x = f^-1(theta), which is exact for
    piecewise linear functions and closed form for the parametric families.
    Nonnegative because f >= theta left of x; tiny negative rounding is
    clamped to zero.
    """
    theta = f.admit_level(theta)
    x = f.inverse(theta)
    return max(0.0, f.cumulative(x) - theta * x)


def e_thetas(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    """``e_theta`` at every level; all must be admissible."""
    thetas = f.admit_levels(thetas)
    x = f.inverses(thetas)
    excess = f.cumulatives(x) - thetas * x
    return np.where(excess > 0.0, excess, 0.0)


def _h_range(f: RankFunction) -> ThetaRange:
    return ThetaRange(f.admissible_range().lo / f.T, math.inf)


def _h_defined(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    """Levels at which ``h_theta`` returns rather than raises."""
    z_T = f.admissible_range().lo
    lo_theta = z_T / f.T
    below = (z_T - thetas * f.T > 0.0) & (thetas < lo_theta - 1e-12 * max(1.0, lo_theta))
    return np.isfinite(thetas) & (thetas >= 0.0) & ~below


def h_theta(f: RankFunction, theta: float) -> float:
    """Generalized h-index: the unique h in [0, T] with Z(h) = theta * h.

    The map h -> Z(h) - theta*h is strictly decreasing, so the root is unique
    and exists for theta >= Z(T)/T.  Inside the range it is the function's
    ``ray_crossing``: exact inside its segment for piecewise linear
    functions, closed form for the linear and Zipf families, and bisection
    to below 1e-13 * max(1, T) otherwise.
    """
    if math.isnan(theta) or theta < 0 or math.isinf(theta):
        raise ThetaRangeError(f"theta={theta!r} must be finite and >= 0")
    T = f.T
    z_T = f.admissible_range().lo
    g_at_T = z_T - theta * T
    if g_at_T > 0.0:
        lo_theta = z_T / T
        if theta >= lo_theta - 1e-12 * max(1.0, lo_theta):
            return T  # within tolerance of the lower boundary
        raise ThetaRangeError(f"theta={theta!r} below Z(T)/T = {lo_theta}")
    if g_at_T == 0.0:
        return T
    return f.ray_crossing(theta)


def h_thetas(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    """``h_theta`` at every level; all must be admissible."""
    thetas = np.asarray(thetas, dtype=float)
    bad = ~_h_defined(f, thetas)
    if bad.any():
        raise ThetaRangeError(f"theta={float(thetas[bad][0])!r} outside [Z(T)/T, inf)")
    inner = f.admissible_range().lo - thetas * f.T < 0.0
    out = np.full(thetas.shape, f.T, dtype=float)  # T may be an int
    out[inner] = f.ray_crossings(thetas[inner])
    return out


def mu_bundle(f: RankFunction, theta: float) -> float:
    """Running average of f over [0, theta]; theta is a rank here."""
    return f.average(theta)


def i_bundle(f: RankFunction, theta: float) -> float:
    """Cumulative total of f over [0, theta]; theta is a rank here."""
    return f.cumulative(theta)


def classical_h(f: RankFunction) -> float:
    """The h with Z(h) = h, i.e. the generalized h at theta = 1."""
    return h_theta(f, 1.0)


def r_index_squared(f: RankFunction) -> float:
    """Squared R-index: total citations of the h-core, int_0^h Z."""
    return f.cumulative(classical_h(f))


def e_index(f: RankFunction) -> float:
    """Classical e-index sqrt(R^2 - h^2): root of the h-core excess area."""
    h = classical_h(f)
    radicand = f.cumulative(h) - h * h
    if radicand < -1e-12:
        raise ConsistencyError(f"negative excess area {radicand} at h={h}")
    return math.sqrt(max(0.0, radicand))


def excess_at_h(f: RankFunction) -> float:
    """The excess area e_theta at theta = classical h; equals e_index**2."""
    return e_theta(f, classical_h(f))


# ---------------------------------------------------------------------------
# Bundle definitions (shared shape for the axiom checkers)


@dataclass(frozen=True)
class BundleDef:
    """A bundle as data: its score, rank-to-level map, and admissibility.

    ``level_of``(f, x) sends a rank x to the parameter value the bundle
    associates with it (the identity for mu/i, Z(x) for e, Z(x)/x for h).
    Fixed at one level theta, a bundle is a single score, which the measure
    axiom checkers take with two more facts: ``positive_for``(f, theta)
    states where the score is provably strictly positive, and
    ``rank_of``(f, theta) is the rank up to which the score reads f (theta
    itself for mu/i, the root for h).  ``rank_of`` is None when the level is
    a density (e): then the checkers compare theta with f's values instead.

    ``levels`` and ``scores`` are the vector forms of ``level_of`` and
    ``measure``: levels at many ranks and scores at many levels, NaN where
    the scalar form raises ``InputError``.  The vector form follows from the
    scalar callable: the built-in callables map to the functions' vector
    routines (same floats as the scalar forms), and any other callable is
    looped over.  Custom instances, including ones made with
    ``dataclasses.replace`` from a built-in bundle, can be passed to the
    axiom checkers to probe candidate scores that are not part of the
    built-in registry.
    """

    name: str
    measure: Callable[[RankFunction, float], float]
    level_of: Callable[[RankFunction, float], float]
    admissible: Callable[[RankFunction], ThetaRange]
    positive_for: Callable[[RankFunction, float], bool] = lambda f, theta: True
    rank_of: Callable[[RankFunction, float], float] | None = None

    def scores(self, f: RankFunction, thetas: np.ndarray) -> np.ndarray:
        """``measure`` at every level, NaN where it is undefined."""
        return _vectorized(_SCORES, self.measure, f, np.asarray(thetas, dtype=float))

    def levels(self, f: RankFunction, xs: np.ndarray) -> np.ndarray:
        """``level_of`` at every rank, NaN where it is undefined."""
        return _vectorized(_LEVELS, self.level_of, f, np.asarray(xs, dtype=float))


VectorForm = Callable[[RankFunction, np.ndarray], np.ndarray]


def _vectorized(known: dict[Callable, VectorForm], scalar: Callable, f: RankFunction,
                args: np.ndarray) -> np.ndarray:
    """scalar at every arg: through its known vector form, else in a loop.

    A wrapper that names what it wraps (``__wrapped__``, as ``functools.wraps``
    sets) is taken to give the same values, so it keeps the vector form.
    """
    vector = known.get(inspect.unwrap(scalar))
    return _each(scalar, f, args) if vector is None else vector(f, args)


def _each(scalar: Callable[[RankFunction, float], float], f: RankFunction,
          args: np.ndarray) -> np.ndarray:
    """scalar(f, a) for every a, NaN where it raises ``InputError``."""
    def one(a: float) -> float:
        try:
            return scalar(f, a)
        except InputError:
            return math.nan
    return np.array([one(a) for a in args.tolist()], dtype=float)


def _defined(ok: np.ndarray, values_at: Callable[[np.ndarray], np.ndarray],
             args: np.ndarray) -> np.ndarray:
    """values_at(args[ok]) where ok holds, NaN elsewhere."""
    if ok.all():
        return values_at(args)
    out = np.full(args.shape, math.nan)
    out[ok] = values_at(args[ok])
    return out


def _on_domain(f: RankFunction, xs: np.ndarray) -> np.ndarray:
    """Ranks inside [0, T]."""
    return (xs >= 0.0) & (xs <= f.T)


def _off_pole(f: RankFunction, xs: np.ndarray) -> np.ndarray:
    """Ranks inside [0, T], except a pole at the origin."""
    return _on_domain(f, xs) & ~((xs == 0.0) & f.unbounded_at_origin)


def _level_identity(f: RankFunction, x: float) -> float:
    return x

def _levels_identity(f: RankFunction, xs: np.ndarray) -> np.ndarray:
    return xs

def _level_value(f: RankFunction, x: float) -> float:
    return f.value(x)

def _levels_value(f: RankFunction, xs: np.ndarray) -> np.ndarray:
    return _defined(_off_pole(f, xs), f.values, xs)

def _level_value_over_rank(f: RankFunction, x: float) -> float:
    if x == 0.0:
        return math.inf
    return f.value(x) / x

def _levels_value_over_rank(f: RankFunction, xs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(xs == 0.0, math.inf, _levels_value(f, xs) / xs)


def _e_scores(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    return _defined(f.admissible_range().contains_each(thetas), lambda t: e_thetas(f, t), thetas)

def _h_scores(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    return _defined(_h_defined(f, thetas), lambda t: h_thetas(f, t), thetas)

def _averages(f: RankFunction, ranks: np.ndarray) -> np.ndarray:
    def average(r: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(r > 0.0, f.cumulatives(r) / r, f.value_at_origin())

    return _defined(_off_pole(f, ranks), average, ranks)

def _cumulatives(f: RankFunction, ranks: np.ndarray) -> np.ndarray:
    return _defined(_on_domain(f, ranks), f.cumulatives, ranks)


# The vector forms of the built-in scalar callables, keyed by the callable,
# so a bundle that replaces its scalar callable drops the vector form too.
_SCORES: dict[Callable, VectorForm] = {
    e_theta: _e_scores,
    h_theta: _h_scores,
    mu_bundle: _averages,
    i_bundle: _cumulatives,
}
_LEVELS: dict[Callable, VectorForm] = {
    _level_identity: _levels_identity,
    _level_value: _levels_value,
    _level_value_over_rank: _levels_value_over_rank,
}


E_BUNDLE = BundleDef(
    name="e",
    measure=e_theta,
    level_of=_level_value,
    admissible=lambda f: f.admissible_range(),
    positive_for=lambda f, theta: theta < f.value_at_origin(),
)

H_BUNDLE = BundleDef(
    name="h",
    measure=h_theta,
    level_of=_level_value_over_rank,
    admissible=_h_range,
    rank_of=h_theta,
)

MU_BUNDLE = BundleDef(
    name="mu",
    measure=mu_bundle,
    level_of=_level_identity,
    admissible=lambda f: ThetaRange(0.0, f.T),
    rank_of=_level_identity,
)

I_BUNDLE = BundleDef(
    name="i",
    measure=i_bundle,
    level_of=_level_identity,
    admissible=lambda f: ThetaRange(0.0, f.T),
    positive_for=lambda f, x: x > 0.0,
    rank_of=_level_identity,
)

BUNDLES: dict[str, BundleDef] = {
    b.name: b for b in (E_BUNDLE, H_BUNDLE, MU_BUNDLE, I_BUNDLE)
}


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepRow:
    theta: float
    e: float | None
    h: float | None
    mu: float | None
    i: float | None

    def cell(self, name: str) -> float | None:
        return getattr(self, name)


@dataclass(frozen=True)
class SweepTable:
    """Per-theta values of all four bundles; None marks inadmissible cells."""

    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("theta,e,h,mu,i\n")
        for r in self.rows:
            cells = [repr(r.theta)]
            for name in ("e", "h", "mu", "i"):
                v = r.cell(name)
                cells.append("NA" if v is None else repr(v))
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SweepTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "theta,e,h,mu,i":
            raise InputError("sweep CSV must start with header theta,e,h,mu,i")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 5:
                raise InputError(f"sweep CSV row has {len(parts)} cells: {ln!r}")
            vals = [None if p == "NA" else float(p) for p in parts]
            rows.append(SweepRow(float(parts[0]), *vals[1:]))
        return cls(tuple(rows))

    def to_json_obj(self) -> dict:
        return {
            "rows": [
                {"theta": r.theta, "e": r.e, "h": r.h, "mu": r.mu, "i": r.i}
                for r in self.rows
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)


def sweep(f: RankFunction, thetas: Sequence[float]) -> SweepTable:
    """Evaluate every bundle at each theta; inadmissible cells become None.

    Inadmissibility is data rather than failure here, so out-of-range thetas
    produce missing markers instead of raising.  The theta list must be
    finite, strictly increasing and nonnegative.  Each bundle scores every
    level in one vector call (``BundleDef.scores``); a cell is None unless
    its level is admissible and the score defined there.
    """
    ts = np.array([float(t) for t in thetas], dtype=float)
    if not np.isfinite(ts).all():
        raise InputError("theta values must be finite")
    if (np.diff(ts) <= 0.0).any():
        raise InputError("theta list must be strictly increasing")
    if ts.size and ts[0] < 0.0:
        raise InputError("theta values must be >= 0")

    columns = [
        np.where(b.admissible(f).contains_each(ts), b.scores(f, ts), math.nan)
        for b in (E_BUNDLE, H_BUNDLE, MU_BUNDLE, I_BUNDLE)
    ]
    return SweepTable(tuple(map(SweepRow, ts.tolist(), *map(_column, columns))))


def _column(scores: np.ndarray) -> list[float | None]:
    """Python floats, None for NaN."""
    return [None if math.isnan(v) else v for v in scores.tolist()]
