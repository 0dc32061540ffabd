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
    out = np.full(thetas.shape, f.T)
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
    Custom instances can be passed to the axiom checkers to probe candidate
    scores that are not part of the built-in registry.
    """

    name: str
    measure: Callable[[RankFunction, float], float]
    level_of: Callable[[RankFunction, float], float]
    admissible: Callable[[RankFunction], ThetaRange]
    positive_for: Callable[[RankFunction, float], bool] = lambda f, theta: True
    rank_of: Callable[[RankFunction, float], float] | None = None


def _level_identity(f: RankFunction, x: float) -> float:
    return x

def _level_value(f: RankFunction, x: float) -> float:
    return f.value(x)

def _level_value_over_rank(f: RankFunction, x: float) -> float:
    if x == 0.0:
        return math.inf
    return f.value(x) / x


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
    finite, strictly increasing and nonnegative.  Each bundle's admissible
    levels are found first and then scored in one vector call.
    """
    ts = np.array([float(t) for t in thetas], dtype=float)
    if not np.isfinite(ts).all():
        raise InputError("theta values must be finite")
    if (np.diff(ts) <= 0.0).any():
        raise InputError("theta list must be strictly increasing")
    if ts.size and ts[0] < 0.0:
        raise InputError("theta values must be >= 0")

    e_ok = f.admissible_range().contains_each(ts)
    h_ok = _h_range(f).contains_each(ts) & _h_defined(f, ts)
    # mu and i read the rank theta itself, defined on [0, T] exactly; the
    # running average has no value at a pole at the origin
    i_ok = ts <= f.T
    mu_ok = i_ok & ~((ts == 0.0) & f.unbounded_at_origin)
    ranks = ts[mu_ok]
    with np.errstate(divide="ignore", invalid="ignore"):
        averages = np.where(ranks > 0.0, f.cumulatives(ranks) / ranks, f.value_at_origin())
    return SweepTable(tuple(map(
        SweepRow,
        ts.tolist(),
        _column(e_ok, e_thetas(f, ts[e_ok])),
        _column(h_ok, h_thetas(f, ts[h_ok])),
        _column(mu_ok, averages),
        _column(i_ok, f.cumulatives(ts[i_ok])),
    )))


def _column(admitted: np.ndarray, values: np.ndarray) -> list[float | None]:
    """Python floats at the admitted levels, None elsewhere."""
    col: list[float | None] = [None] * len(admitted)
    for idx, v in zip(np.flatnonzero(admitted).tolist(), values.tolist()):
        col[idx] = v
    return col
