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
(both the area and its square root are exposed, see ``e_index``).  h, R^2
and the e-index come from one root; R^2 >= h^2 holds by monotonicity, so a
rounding below it reads as an e-index of 0, never as a failure.

``e_thetas`` and ``h_thetas`` score many levels at once through the
functions' vector forms (``inverses``, ``cumulatives``, ``ray_crossings``),
one code path for every family, and ``e_theta`` and ``h_theta`` read them
at one level.  A bundle (``BundleDef``) is its vector rules.  Each rule
(admissibility slack, clamping, NaN where the score is undefined, h's
boundary tolerance) is written once here, and runs on a single function at
many levels (``sweep``) or on a stack of piecewise linear functions at one
level per row (the axiom suites read whole pair sets so, through
``axioms._Pairs``); ``BundleDef.measure`` and ``level_of`` read a rule at
one argument.  A ``SweepTable`` writes its CSV and JSON through the
number-text writers of ``functions`` (``_number_texts``, ``_layout``,
``_csv``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .functions import (_CSV_CELLS, InputError, RankFunction, ThetaRangeError, _at, _csv, _layout,
                        _number_texts, _on_domain)

__all__ = [
    "e_theta",
    "e_thetas",
    "h_theta",
    "h_thetas",
    "mu_bundle",
    "i_bundle",
    "classical_h",
    "r_index_squared",
    "e_index",
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


# The score rules below take f as a rank function, or as a ``_PwlStack`` of
# piecewise linear functions with one level each.

VectorRule = Callable[[RankFunction, np.ndarray], np.ndarray]


def _defined(ok: np.ndarray, f: RankFunction, score: VectorRule, args: np.ndarray) -> np.ndarray:
    """score(f, args) where ok holds, NaN elsewhere (a stack keeps the rows
    that ok holds for)."""
    if ok.all():
        return score(f, args)
    out = np.full(args.shape, math.nan)
    if ok.any():
        out[ok] = score(f._select(ok), args[ok])
    return out


def _excess(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    """The excess area at admitted levels: I(x) - theta * x at x = f^-1(theta),
    with tiny negative rounding clamped to zero."""
    x = f._inverses(thetas)
    excess = f.cumulatives(x) - thetas * x
    return np.where(excess > 0.0, excess, 0.0)


def e_theta(f: RankFunction, theta: float) -> float:
    """Excess area of f above the level theta, left of the inverse rank.

    Computed as I(x) - theta * x with x = f^-1(theta), which is exact for
    piecewise linear functions and closed form for the parametric families.
    Nonnegative because f >= theta left of x.
    """
    return float(e_thetas(f, [theta])[0])


def e_thetas(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    """``e_theta`` at every level; all must be admissible."""
    return _excess(f, f.admit_levels(thetas))


def _h_lo(f: RankFunction) -> float:
    """Z(T)/T, the least level at which h is defined."""
    return f.admissible_range().lo / f.T


def _h_defined(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    """Levels at which ``h_thetas`` returns rather than raises: finite, >= 0
    and not below Z(T)/T by more than a tolerance of 1e-12 * max(1, Z(T)/T)."""
    lo = _h_lo(f)
    return np.isfinite(thetas) & (thetas >= 0.0) & (thetas >= lo - 1e-12 * np.maximum(1.0, lo))


def _h_roots(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    """h at defined levels: T where Z(T) >= theta * T (the boundary and its
    tolerance), the function's ray crossing elsewhere."""
    inner = f.admissible_range().lo - thetas * f.T < 0.0
    return np.where(inner, _defined(inner, f, lambda g, t: g.ray_crossings(t), thetas), f.T)


def h_theta(f: RankFunction, theta: float) -> float:
    """Generalized h-index: the unique h in [0, T] with Z(h) = theta * h.

    The map h -> Z(h) - theta*h is strictly decreasing, so the root is unique
    and exists for theta >= Z(T)/T.  Inside the range it is the function's
    ray crossing: exact inside its segment for piecewise linear functions,
    closed form for the linear and Zipf families, and otherwise the last
    float at which Z(h) - theta*h is positive, found by a binary search over
    the floats of [0, T] (within 2 ulps of the root for ``PowerComplement``).
    """
    return float(h_thetas(f, [theta])[0])


def h_thetas(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    """``h_theta`` at every level; all must be admissible."""
    thetas = np.asarray(thetas, dtype=float)
    ok = _h_defined(f, thetas)
    if not ok.all():
        theta = float(thetas[~ok][0])
        if not (math.isfinite(theta) and theta >= 0.0):
            raise ThetaRangeError(f"theta={theta!r} must be finite and >= 0")
        raise ThetaRangeError(f"theta={theta!r} below Z(T)/T = {_h_lo(f)}")
    return _h_roots(f, thetas)


def mu_bundle(f: RankFunction, theta: float) -> float:
    """Running average of f over [0, theta], Z(0) at theta = 0; theta is a
    rank here.  Raises ``InputError`` off [0, T] and at a pole at 0."""
    return MU_BUNDLE.measure(f, theta)


def i_bundle(f: RankFunction, theta: float) -> float:
    """Cumulative total of f over [0, theta]; theta is a rank here.  Raises
    ``InputError`` off [0, T]."""
    return I_BUNDLE.measure(f, theta)


def classical_h(f: RankFunction) -> float:
    """The h with Z(h) = h, i.e. the generalized h at theta = 1."""
    return h_theta(f, 1.0)


def r_index_squared(f: RankFunction) -> float:
    """Squared R-index: total citations of the h-core, int_0^h Z."""
    return f.cumulative(classical_h(f))


def e_index(f: RankFunction) -> float:
    """Classical e-index sqrt(R^2 - h^2): root of the h-core excess area.

    On a curve continuized from citation counts (``from_citations``) h and
    R^2 are the curve's: for integer counts h lies in (h_d - 1, h_d], h_d
    the discrete h-index, and R^2 is a trapezoid integral (the whole curve
    integrates to sum(c) - c_1/2 for tie-free counts), so the result
    approximates Zhang's discrete e-index rather than equals it.
    """
    return _h_core(f)[2]


def _h_core(f: RankFunction) -> tuple[float, float, float]:
    """The classical h, R^2 and the e-index, from one root; R^2 >= h^2 as
    Z >= Z(h) = h on [0, h], so R^2 - h^2 below 0 is rounding and reads 0."""
    h = classical_h(f)
    r2 = f.cumulative(h)
    return h, r2, math.sqrt(max(0.0, r2 - h * h))


# ---------------------------------------------------------------------------
# Bundle definitions (shared shape for the axiom checkers)


@dataclass(frozen=True)
class BundleDef:
    """A bundle as data: its vector rules.

    Each rule takes a rank function, or a ``_PwlStack`` of piecewise linear
    functions with one argument per row, and an array of arguments, and
    returns NaN where it is undefined: a score is defined where its rule
    gives a number, in ``sweep`` and the axiom checkers alike.
    ``scores``(f, thetas) is the score at every level, and ``levels``(f, xs)
    sends every rank x to the level the bundle associates with it (the
    identity for mu/i, Z(x) for e, Z(x)/x for h).  ``measure`` and
    ``level_of`` read them at one argument and raise ``InputError`` where
    they give NaN.  A level map is monotone, so its levels at the ranks 0
    and T span every level of f; AX.2 samples that span.

    Fixed at one level theta, a bundle is a single score, which the measure
    axiom checkers take with two more facts: ``positive_for``(f, theta)
    states where the score is provably strictly positive (per row, or for
    all rows at once, on a stack), and
    ``rank_of``(f, thetas), a rule too, is the rank up to which the score
    reads f (theta itself for mu/i, the root for h).  ``rank_of`` is None
    when the level is a density (e): then the checkers compare theta with
    f's values instead.  Custom instances, including ones made with
    ``dataclasses.replace`` from a built-in bundle, can be passed to the
    axiom checkers to probe candidate scores.
    """

    name: str
    scores: VectorRule
    levels: VectorRule
    positive_for: Callable[[RankFunction, float], bool] = lambda f, theta: True
    rank_of: VectorRule | None = None

    def measure(self, f: RankFunction, theta: float) -> float:
        """``scores`` at one level."""
        return _read(self.scores, f, theta, f"{self.name} score")

    def level_of(self, f: RankFunction, x: float) -> float:
        """``levels`` at one rank."""
        return _read(self.levels, f, x, f"{self.name} level")


def _read(rule: VectorRule, f: RankFunction, arg: float, what: str) -> float:
    """rule at one argument; raises ``InputError`` where it gives NaN."""
    value = _at(lambda args: rule(f, args), arg)
    if math.isnan(value):
        raise InputError(f"{what} undefined at {arg!r}")
    return value


def _off_pole(f: RankFunction, xs: np.ndarray) -> np.ndarray:
    """Ranks inside [0, T], except a pole at the origin."""
    return _on_domain(f, xs) & ~((xs == 0.0) & f.unbounded_at_origin)


def _levels_identity(f: RankFunction, xs: np.ndarray) -> np.ndarray:
    return xs

def _levels_value(f: RankFunction, xs: np.ndarray) -> np.ndarray:
    return _defined(_off_pole(f, xs), f, lambda g, x: g.values(x), xs)

def _levels_value_over_rank(f: RankFunction, xs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(xs == 0.0, math.inf, _levels_value(f, xs) / xs)


def _e_scores(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    rng = f.admissible_range()
    return _defined(rng.contains_each(thetas), f, _excess, rng.clamp_each(thetas))

def _h_scores(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    return _defined(_h_defined(f, thetas), f, _h_roots, thetas)

def _average(f: RankFunction, ranks: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ranks > 0.0, f.cumulatives(ranks) / ranks, f.value_at_origin())

def _averages(f: RankFunction, ranks: np.ndarray) -> np.ndarray:
    return _defined(_off_pole(f, ranks), f, _average, ranks)

def _cumulatives(f: RankFunction, ranks: np.ndarray) -> np.ndarray:
    return _defined(_on_domain(f, ranks), f, lambda g, r: g.cumulatives(r), ranks)


E_BUNDLE = BundleDef(
    name="e",
    scores=_e_scores,
    levels=_levels_value,
    positive_for=lambda f, theta: theta < f.value_at_origin(),
)

H_BUNDLE = BundleDef(
    name="h",
    scores=_h_scores,
    levels=_levels_value_over_rank,
    rank_of=_h_scores,
)

MU_BUNDLE = BundleDef(
    name="mu",
    scores=_averages,
    levels=_levels_identity,
    rank_of=_levels_identity,
)

I_BUNDLE = BundleDef(
    name="i",
    scores=_cumulatives,
    levels=_levels_identity,
    positive_for=lambda f, x: x > 0.0,
    rank_of=_levels_identity,
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


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Per-theta values of all four bundles: ``columns`` holds the levels
    and the e, h, mu and i scores, a row each, as one read-only (5, L)
    float array, NaN where a score is undefined.  ``rows`` reads them as
    ``SweepRow``s, None for NaN, each time it is read; no writer does, but
    it stays as documented API, which the benchmark's tracer reads."""

    columns: np.ndarray

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        return tuple(SweepRow(*[None if math.isnan(v) else v for v in row])
                     for row in self.columns.T.tolist())

    def to_csv(self) -> str:
        return _csv([f.name for f in fields(SweepRow)], _number_texts(self.columns, _CSV_CELLS))

    def to_json(self) -> str:
        """``json.dumps({"rows": [...]}, indent=2, sort_keys=True)`` of a
        dict per row, None for NaN, byte for byte: that layout, its keys
        sorted, filled with the cells' ``_number_texts``."""
        names = [f.name for f in fields(SweepRow)]
        if not self.columns.shape[1]:
            return '{\n  "rows": []\n}'
        keys = sorted(names)
        first = f'\n      "{keys[0]}": '
        row = [s for key in keys for s in (f',\n      "{key}": ', "")]
        row[0] = "\n    },\n    {" + first
        parts = _layout(_number_texts(self.columns), row, [2 * keys.index(n) + 1 for n in names])
        parts[0] = '{\n  "rows": [\n    {' + first
        return "".join([*parts, "\n    }\n  ]\n}"])


def sweep(f: RankFunction, thetas: Sequence[float]) -> SweepTable:
    """Evaluate every bundle at each theta; inadmissible cells are NaN.

    Inadmissibility is data rather than failure here, so out-of-range thetas
    produce missing markers instead of raising.  The theta list must be
    finite, strictly increasing and nonnegative; -0.0 reads as 0.0.  Each
    bundle scores every level in one vector call (``BundleDef.scores``),
    whose rules give NaN wherever the score is undefined.
    """
    ts = np.array([float(t) for t in thetas], dtype=float) + 0.0  # -0.0 + 0.0 is 0.0
    if not np.isfinite(ts).all():
        raise InputError("theta values must be finite")
    if (np.diff(ts) <= 0.0).any():
        raise InputError("theta list must be strictly increasing")
    if ts.size and ts[0] < 0.0:
        raise InputError("theta values must be >= 0")

    columns = np.array([ts, *(b.scores(f, ts) for b in (E_BUNDLE, H_BUNDLE, MU_BUNDLE, I_BUNDLE))])
    columns.flags.writeable = False
    return SweepTable(columns)
