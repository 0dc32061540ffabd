"""Numerical checks of the bundle and measure axiom systems.

Four checker families, each consuming verified dominance pairs and producing
per-axiom reports with explicit violation witnesses:

* ``check_impact_bundle``   the four bundle axioms: zero on the empty
  function (vacuous here, the function space excludes it), monotone under
  pointwise >=, strictly monotone under strict prefix dominance, and local
  (prefix-equal functions score equally on the prefix image).
* ``check_impact_measure``  the three-axiom system for a single-score
  functional: positivity, monotone under >=, strict under strict prefix
  dominance with per-function thresholds.
* ``check_strong_impact``   the four-axiom strengthening whose third axiom
  demands strict growth whenever the running averages are strictly ordered
  on [0, T).
* ``check_global_impact``   strict growth under the cumulative-integral
  partial order.

The module also ships the two rejected alternative scores (``n_theta``,
``eta_theta``), three exactly constructed counterexample fixtures that
demonstrate which axioms each score breaks, and a seeded pair generator.

Violations are only recorded when the gap clears the reporting slack, so
float ties never masquerade as axiom failures.  Pairs failing a checked
hypothesis are skipped and counted, never flagged: the axioms are
implications and an unmet premise proves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .bundles import BundleDef, e_theta
from .functions import (
    CumulativeOrder,
    InputError,
    PiecewiseLinearFn,
    RankFunction,
    compare,
    cumulative_dominates,
)

__all__ = [
    "MONOTONE_SLACK",
    "STRICT_SLACK",
    "EQUALITY_ASSERT_TOL",
    "GenerationError",
    "VerificationError",
    "RelationKind",
    "DominancePair",
    "verify_pair",
    "Violation",
    "AxiomReport",
    "Measure",
    "e_measure",
    "n_measure",
    "eta_measure",
    "i_measure",
    "mu_measure",
    "n_theta",
    "eta_theta",
    "check_impact_bundle",
    "check_impact_measure",
    "check_strong_impact",
    "check_global_impact",
    "Fixture",
    "fixture_global",
    "fixture_alt1",
    "fixture_alt2",
    "pseudo_bundle_n",
    "GeneratorConfig",
    "generate_pairs",
]

# A reported violation must clear this gap; smaller discrepancies are noise.
MONOTONE_SLACK = 1e-9
# Strict inequalities must clear this margin to count as satisfied.
STRICT_SLACK = 1e-12
# Equality assertions are checked to this tolerance.
EQUALITY_ASSERT_TOL = 1e-10


class GenerationError(RuntimeError):
    """The pair generator failed to build a valid pair within its retries."""


class VerificationError(InputError):
    """A dominance pair failed re-verification of its declared relation."""


class RelationKind(Enum):
    GEQ_ALL = "geq_all"
    STRICT_ON_PREFIX = "strict_on_prefix"
    EQUAL_ON_PREFIX = "equal_on_prefix"
    CUMULATIVE_PREC = "cumulative_prec"


@dataclass(frozen=True)
class DominancePair:
    """Two rank functions with a declared ordering relation.

    ``upper`` dominates ``lower`` in the sense of ``relation``; for the
    prefix relations ``prefix_end`` is the endpoint a of [0, a].  All axiom
    checkers demand ``verified=True``, which only ``verify_pair`` sets after
    re-checking the relation numerically.
    """

    upper: RankFunction
    lower: RankFunction
    relation: RelationKind
    prefix_end: float | None = None
    verified: bool = False


def verify_pair(pair: DominancePair, grid_n: int = 10_000) -> DominancePair:
    """Re-check the declared relation and return a verified copy."""
    up, lo, rel = pair.upper, pair.lower, pair.relation
    if rel in (RelationKind.STRICT_ON_PREFIX, RelationKind.EQUAL_ON_PREFIX):
        if pair.prefix_end is None:
            raise InputError(f"{rel.value} pair needs prefix_end")

    if rel is RelationKind.GEQ_ALL:
        v = compare(up, lo, a=up.T, grid_n=grid_n)
        if not v.geq_everywhere:
            raise VerificationError(f"upper < lower at x={v.geq_witness}")
    elif rel is RelationKind.STRICT_ON_PREFIX:
        v = compare(up, lo, a=pair.prefix_end, grid_n=grid_n)
        if not v.strict_on_prefix:
            raise VerificationError(
                f"not strict on prefix: gap {v.min_gap} at x={v.strict_witness}"
            )
    elif rel is RelationKind.EQUAL_ON_PREFIX:
        v = compare(up, lo, a=pair.prefix_end, grid_n=grid_n)
        if not v.equal_on_prefix:
            raise VerificationError(
                f"not equal on prefix: deviation {v.max_deviation} at x={v.equal_witness}"
            )
    elif rel is RelationKind.CUMULATIVE_PREC:
        cv = cumulative_dominates(lo, up, grid_n=grid_n)
        if cv.order is not CumulativeOrder.PRECEDES:
            raise VerificationError(f"cumulative order is {cv.order.value}")
        if compare(up, lo, a=up.T, grid_n=grid_n).equal_on_prefix:
            raise VerificationError("functions coincide; relation requires lower != upper")
    else:  # pragma: no cover
        raise InputError(f"unknown relation {rel!r}")
    return replace(pair, verified=True)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class Violation:
    pair_index: int
    theta: float
    lhs: float  # score of the dominating function
    rhs: float  # score of the dominated function
    gap: float
    note: str = ""

    def to_json_obj(self) -> dict:
        return {
            "pair": self.pair_index,
            "theta": self.theta,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "note": self.note,
        }


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    pairs_tested: int
    violations: tuple[Violation, ...] = ()
    skipped: int = 0
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "axiom": self.axiom,
            "tested": self.pairs_tested,
            "violations": [v.to_json_obj() for v in self.violations],
            "skipped": self.skipped,
            "passed": self.passed,
            "vacuous": self.pairs_tested == 0,
            "note": self.note,
        }


def _require_verified(pairs: Iterable[DominancePair]) -> list[DominancePair]:
    out = list(pairs)
    for p in out:
        if not p.verified:
            raise InputError("axiom checks require verified pairs; run verify_pair first")
    return out


def _by_relation(pairs: Sequence[DominancePair], kind: RelationKind) -> list[tuple[int, DominancePair]]:
    return [(i, p) for i, p in enumerate(pairs) if p.relation is kind]


# ---------------------------------------------------------------------------
# Impact bundle axioms


def _intersection_thetas(
    bundle: BundleDef, up: RankFunction, lo: RankFunction, n: int
) -> list[float]:
    """Theta samples covering the joint admissible range of a pair.

    Bounded intersections get a uniform grid.  Unbounded ones (the h bundle,
    Zipf ranges) are sampled through the rank-to-level maps over (0, T],
    which walks the far tail without picking an arbitrary cap.
    """
    ru, rl = bundle.admissible(up), bundle.admissible(lo)
    lo_t = max(ru.lo, rl.lo)
    hi_t = min(ru.hi, rl.hi)
    if lo_t > hi_t:
        return []
    if math.isinf(hi_t):
        xs = np.linspace(0.0, up.T, n + 1)[1:]
        cand = set()
        for g in (up, lo):
            for x in xs:
                t = bundle.level_of(g, float(x))
                if math.isfinite(t):
                    cand.add(t)
        return sorted(t for t in cand if ru.contains(t) and rl.contains(t))
    return [float(t) for t in np.linspace(lo_t, hi_t, n)]


def _image_thetas(
    bundle: BundleDef,
    fns: Sequence[RankFunction],
    a: float,
    n: int,
    up: RankFunction,
    lo: RankFunction,
) -> list[float]:
    """Level-map images over (0, a], filtered to the joint admissible set.

    x = 0 is excluded: the h-bundle level map diverges there and the
    cumulative bundle is identically zero at level 0, where strictness is
    meaningless.
    """
    ru, rl = bundle.admissible(up), bundle.admissible(lo)
    xs = np.linspace(0.0, a, n + 1)[1:]
    cand = set()
    for g in fns:
        for x in xs:
            t = bundle.level_of(g, float(x))
            if math.isfinite(t):
                cand.add(t)
    return sorted(t for t in cand if ru.contains(t) and rl.contains(t))


def _try_measure(bundle: BundleDef, f: RankFunction, t: float) -> float | None:
    """Evaluate a bundle score, treating domain errors as inadmissibility.

    Custom bundles may be undefined at isolated points of their nominal
    range (the per-rank excess score has no value at theta = Z(0)); such
    thetas are simply not compared.
    """
    try:
        return bundle.measure(f, t)
    except InputError:
        return None


def check_impact_bundle(
    bundle: BundleDef,
    pairs: Sequence[DominancePair],
    theta_grid: int = 24,
    slack: float = MONOTONE_SLACK,
    strict_slack: float = STRICT_SLACK,
    eq_tol: float = EQUALITY_ASSERT_TOL,
) -> dict[str, AxiomReport]:
    """Run the four bundle axioms, routing pairs by their relation kind.

    Only the first violation per pair and axiom is reported; pairs whose
    members fall outside the bundle's domain are skipped and counted.
    """
    pairs = _require_verified(pairs)

    reports: dict[str, AxiomReport] = {}
    reports["AX.1"] = AxiomReport(
        axiom="AX.1",
        pairs_tested=0,
        note="vacuous: the zero function is not a strictly decreasing rank function",
    )

    # AX.2: upper >= lower pointwise implies scores ordered the same way.
    tested = skipped = 0
    viols: list[Violation] = []
    for idx, p in _by_relation(pairs, RelationKind.GEQ_ALL):
        thetas = _intersection_thetas(bundle, p.upper, p.lower, theta_grid)
        if not thetas:
            skipped += 1
            continue
        tested += 1
        for t in thetas:
            m_up = _try_measure(bundle, p.upper, t)
            m_lo = _try_measure(bundle, p.lower, t)
            if m_up is None or m_lo is None:
                continue
            if m_lo - m_up > slack:
                viols.append(Violation(idx, t, m_up, m_lo, m_lo - m_up))
                break
    reports["AX.2"] = AxiomReport("AX.2", tested, tuple(viols), skipped)

    # AX.3: strict dominance on [0, a] forces strictly larger scores on the
    # level image of the prefix.
    tested = skipped = 0
    viols = []
    for idx, p in _by_relation(pairs, RelationKind.STRICT_ON_PREFIX):
        thetas = _image_thetas(
            bundle, (p.upper, p.lower), p.prefix_end, theta_grid, p.upper, p.lower
        )
        if not thetas:
            skipped += 1
            continue
        tested += 1
        for t in thetas:
            m_up = _try_measure(bundle, p.upper, t)
            m_lo = _try_measure(bundle, p.lower, t)
            if m_up is None or m_lo is None:
                continue
            if m_up - m_lo <= strict_slack:
                viols.append(
                    Violation(idx, t, m_up, m_lo, m_lo - m_up, note="not strictly larger")
                )
                break
    reports["AX.3"] = AxiomReport("AX.3", tested, tuple(viols), skipped)

    # AX.4: equal prefixes force equal level maps and equal scores there.
    tested = skipped = 0
    viols = []
    for idx, p in _by_relation(pairs, RelationKind.EQUAL_ON_PREFIX):
        a = p.prefix_end
        xs = np.linspace(0.0, a, theta_grid + 1)[1:]
        tested += 1
        bad = False
        for x in xs:
            lu = bundle.level_of(p.upper, float(x))
            ll = bundle.level_of(p.lower, float(x))
            if math.isfinite(lu) and math.isfinite(ll) and abs(lu - ll) > eq_tol:
                viols.append(
                    Violation(idx, float(x), lu, ll, abs(lu - ll), note="level maps differ")
                )
                bad = True
                break
        if bad:
            continue
        for t in _image_thetas(bundle, (p.lower,), a, theta_grid, p.upper, p.lower):
            m_up = _try_measure(bundle, p.upper, t)
            m_lo = _try_measure(bundle, p.lower, t)
            if m_up is None or m_lo is None:
                continue
            if abs(m_up - m_lo) > eq_tol:
                viols.append(
                    Violation(idx, t, m_up, m_lo, abs(m_up - m_lo), note="scores differ")
                )
                break
    reports["AX.4"] = AxiomReport("AX.4", tested, tuple(viols), skipped)
    return reports


# ---------------------------------------------------------------------------
# Single-score measures


@dataclass(frozen=True)
class Measure:
    """A single-score functional on rank functions, with domain predicates.

    ``theta`` records the level the score was fixed at, when there is one;
    the strong-impact checker uses it to exclude the boundary level Z(T).
    ``positive_for`` states where strict positivity is provable, so the
    positivity axiom can be hypothesis-filtered honestly.  ``determined_by``
    maps a function to the rank below which the score is fully determined
    (the inverse rank for the excess area, the root itself for a generalized
    h, the fixed rank for averages and totals); the prefix-local axioms use
    it to decide whether an equal or strict prefix actually covers what the
    score reads.
    """

    name: str
    apply: Callable[[RankFunction], float]
    theta: float | None = None
    admissible: Callable[[RankFunction], bool] = field(default=lambda f: True)
    positive_for: Callable[[RankFunction], bool] = field(default=lambda f: True)
    determined_by: Callable[[RankFunction], float] | None = None


def n_theta(f: RankFunction, theta: float) -> float:
    """Excess area per unit rank: e_theta divided by the inverse rank."""
    x = f.inverse(theta)
    if x == 0.0:
        raise InputError("n undefined at theta = Z(0): inverse rank is zero")
    return e_theta(f, theta) / x


def eta_theta(f: RankFunction, t: float) -> float:
    """Area between f and its own level f(t) over [0, t]; t is a rank."""
    if math.isnan(t) or not (0.0 <= t <= f.T):
        raise InputError(f"t={t!r} outside domain [0, {f.T}]")
    if t == 0.0:
        return 0.0
    return f.cumulative(t) - t * f.value(t)


def e_measure(theta: float) -> Measure:
    return Measure(
        name=f"e@{theta:g}",
        apply=lambda f: e_theta(f, theta),
        theta=theta,
        admissible=lambda f: f.admissible_range().contains(theta),
        positive_for=lambda f: theta < f.value_at_origin(),
    )


def n_measure(theta: float) -> Measure:
    def adm(f: RankFunction) -> bool:
        return f.admissible_range().contains(theta) and theta < f.value_at_origin()

    return Measure(
        name=f"n@{theta:g}",
        apply=lambda f: n_theta(f, theta),
        theta=theta,
        admissible=adm,
        positive_for=adm,
    )


def eta_measure(t: float) -> Measure:
    return Measure(
        name=f"eta@{t:g}",
        apply=lambda f: eta_theta(f, t),
        admissible=lambda f: 0.0 <= t <= f.T,
        positive_for=lambda f: 0.0 < t <= f.T,
        determined_by=lambda f: t,
    )


def mu_measure(x: float) -> Measure:
    return Measure(
        name=f"mu@{x:g}",
        apply=lambda f: f.average(x),
        admissible=lambda f: 0.0 <= x <= f.T and not (x == 0.0 and f.unbounded_at_origin),
        determined_by=lambda f: x,
    )


def i_measure(x: float) -> Measure:
    return Measure(
        name=f"i@{x:g}",
        apply=lambda f: f.cumulative(x),
        admissible=lambda f: 0.0 <= x <= f.T,
        positive_for=lambda f: x > 0.0,
        determined_by=lambda f: x,
    )


def _members(pairs: Sequence[DominancePair]) -> list[RankFunction]:
    """Distinct functions of the pairs, in order of first appearance."""
    return list(dict.fromkeys(f for p in pairs for f in (p.upper, p.lower)))


def _positivity_report(
    axiom: str, measure: Measure, pairs: Sequence[DominancePair], strict_slack: float
) -> AxiomReport:
    tested = skipped = 0
    viols: list[Violation] = []
    for i, f in enumerate(_members(pairs)):
        if not (measure.admissible(f) and measure.positive_for(f)):
            skipped += 1
            continue
        tested += 1
        v = measure.apply(f)
        if v <= strict_slack:
            viols.append(Violation(i, math.nan, v, 0.0, -v, note="score not positive"))
    return AxiomReport(
        axiom,
        tested,
        tuple(viols),
        skipped,
        note="zero-function clause vacuous: rank functions are strictly decreasing",
    )


def check_impact_measure(
    measure: Measure,
    pairs: Sequence[DominancePair],
    slack: float = MONOTONE_SLACK,
    strict_slack: float = STRICT_SLACK,
) -> dict[str, AxiomReport]:
    """Three-axiom check for a single-score functional.

    IM.1 positivity (the zero-function clause is vacuous on this function
    space), IM.2 monotone under pointwise >= plus equal scores on equal
    inputs, IM.3 strict growth under strict prefix dominance, with the
    generated prefix endpoint playing the per-function threshold.
    """
    pairs = _require_verified(pairs)
    reports = {"IM.1": _positivity_report("IM.1", measure, pairs, strict_slack)}

    tested = skipped = 0
    viols: list[Violation] = []
    for idx, p in _by_relation(pairs, RelationKind.GEQ_ALL):
        if not (measure.admissible(p.upper) and measure.admissible(p.lower)):
            skipped += 1
            continue
        tested += 1
        m_up = measure.apply(p.upper)
        m_lo = measure.apply(p.lower)
        if m_lo - m_up > slack:
            viols.append(Violation(idx, math.nan, m_up, m_lo, m_lo - m_up))
            continue
        # determinism half of the axiom: equal inputs give equal scores
        if measure.apply(p.upper) != m_up:
            viols.append(Violation(idx, math.nan, m_up, m_up, 0.0, note="not deterministic"))
    reports["IM.2"] = AxiomReport("IM.2", tested, tuple(viols), skipped)

    tested = skipped = 0
    viols = []
    for idx, p in _by_relation(pairs, RelationKind.STRICT_ON_PREFIX):
        if not (measure.admissible(p.upper) and measure.admissible(p.lower)):
            skipped += 1
            continue
        # root-local scores (generalized h, fixed-rank totals) are only
        # constrained when the strict prefix covers everything they read
        if measure.determined_by is not None and (
            measure.determined_by(p.lower) > p.prefix_end + EQUALITY_ASSERT_TOL
        ):
            skipped += 1
            continue
        tested += 1
        m_up = measure.apply(p.upper)
        m_lo = measure.apply(p.lower)
        if m_up - m_lo <= strict_slack:
            viols.append(Violation(idx, math.nan, m_up, m_lo, m_lo - m_up, note="not strict"))
    reports["IM.3"] = AxiomReport("IM.3", tested, tuple(viols), skipped)
    return reports


def _averages_strictly_ordered(
    lower: RankFunction, upper: RankFunction, grid_n: int
) -> bool:
    """Whether the running average of upper exceeds lower's on all of [0, T)."""
    T = lower.T
    xs = np.linspace(0.0, T, grid_n, endpoint=False)
    xs = xs[1:]  # x = 0 handled separately
    with np.errstate(divide="ignore"):
        mu_lo = lower.cumulatives(xs) / xs
        mu_up = upper.cumulatives(xs) / xs
    if not bool(np.all(mu_up > mu_lo)):
        return False
    if lower.unbounded_at_origin or upper.unbounded_at_origin:
        return True  # averages diverge at 0; the interior grid decides
    return upper.value(0.0) > lower.value(0.0)


def check_strong_impact(
    measure: Measure,
    pairs: Sequence[DominancePair],
    mu_grid: int = 512,
    slack: float = MONOTONE_SLACK,
    strict_slack: float = STRICT_SLACK,
    eq_tol: float = EQUALITY_ASSERT_TOL,
    boundary_tol: float = 1e-9,
) -> dict[str, AxiomReport]:
    """Four-axiom strong-impact check for a single-score functional.

    SM.3 is hypothesis-filtered: a pair enters only after its running
    averages verify as strictly ordered on a grid over [0, T), and pairs
    whose lower member satisfies Z(T) = theta are excluded and flagged (the
    strictness claim does not cover that boundary level).  SM.4 realizes the
    per-function threshold as the inverse rank of the measure's level, so it
    applies to prefix-equal pairs whose prefix reaches that rank.
    """
    pairs = _require_verified(pairs)
    reports = {"SM.1": _positivity_report("SM.1", measure, pairs, strict_slack)}

    tested = skipped = 0
    viols: list[Violation] = []
    for idx, p in _by_relation(pairs, RelationKind.GEQ_ALL):
        if not (measure.admissible(p.upper) and measure.admissible(p.lower)):
            skipped += 1
            continue
        tested += 1
        m_up = measure.apply(p.upper)
        m_lo = measure.apply(p.lower)
        if m_lo - m_up > slack:
            viols.append(Violation(idx, math.nan, m_up, m_lo, m_lo - m_up))
    reports["SM.2"] = AxiomReport("SM.2", tested, tuple(viols), skipped)

    tested = skipped = boundary = 0
    viols = []
    for idx, p in _by_relation(pairs, RelationKind.GEQ_ALL):
        if not (measure.admissible(p.upper) and measure.admissible(p.lower)):
            skipped += 1
            continue
        # strictness is not claimed at the boundary where the score reads
        # up to the domain end: level = Z(T), or determining rank = T
        at_boundary = measure.theta is not None and (
            abs(measure.theta - p.lower.value(p.lower.T)) <= boundary_tol
        )
        if not at_boundary and measure.determined_by is not None:
            rank = measure.determined_by(p.lower)
            at_boundary = rank >= p.lower.T - boundary_tol * max(1.0, p.lower.T)
        if at_boundary:
            boundary += 1
            continue
        if not _averages_strictly_ordered(p.lower, p.upper, mu_grid):
            skipped += 1
            continue
        tested += 1
        m_up = measure.apply(p.upper)
        m_lo = measure.apply(p.lower)
        if m_up - m_lo <= strict_slack:
            viols.append(Violation(idx, math.nan, m_up, m_lo, m_lo - m_up, note="not strict"))
    note = f"boundary-level pairs excluded: {boundary}" if boundary else ""
    reports["SM.3"] = AxiomReport("SM.3", tested, tuple(viols), skipped + boundary, note)

    tested = skipped = 0
    viols = []
    if measure.determined_by is None and measure.theta is None:
        reports["SM.4"] = AxiomReport(
            "SM.4", 0, note="measure declares no determining rank or level; threshold not realizable"
        )
        return reports
    for idx, p in _by_relation(pairs, RelationKind.EQUAL_ON_PREFIX):
        if not (measure.admissible(p.upper) and measure.admissible(p.lower)):
            skipped += 1
            continue
        # the equal prefix must cover everything the score reads: the
        # declared determining rank, or the inverse rank of the level
        if measure.determined_by is not None:
            covered = measure.determined_by(p.lower) <= p.prefix_end + EQUALITY_ASSERT_TOL
        else:
            covered = measure.theta >= p.lower.value(p.prefix_end) - EQUALITY_ASSERT_TOL
        if not covered:
            skipped += 1
            continue
        tested += 1
        m_up = measure.apply(p.upper)
        m_lo = measure.apply(p.lower)
        if abs(m_up - m_lo) > eq_tol:
            viols.append(Violation(idx, math.nan, m_up, m_lo, abs(m_up - m_lo)))
    reports["SM.4"] = AxiomReport("SM.4", tested, tuple(viols), skipped)
    return reports


def check_global_impact(
    measure: Measure,
    pairs: Sequence[DominancePair],
    strict_slack: float = STRICT_SLACK,
) -> AxiomReport:
    """Strict growth under the cumulative-integral partial order.

    Expected to fail for the excess-area score: ``fixture_global`` produces
    a pair with lower strictly preceding upper yet equal scores, and the
    report records that equality witness honestly.
    """
    pairs = _require_verified(pairs)
    tested = skipped = 0
    viols: list[Violation] = []
    for idx, p in _by_relation(pairs, RelationKind.CUMULATIVE_PREC):
        if not (measure.admissible(p.upper) and measure.admissible(p.lower)):
            skipped += 1
            continue
        tested += 1
        m_up = measure.apply(p.upper)
        m_lo = measure.apply(p.lower)
        if m_up - m_lo <= strict_slack:
            viols.append(Violation(idx, math.nan, m_up, m_lo, m_lo - m_up, note="not strict"))
    return AxiomReport("GM", tested, tuple(viols), skipped)


# ---------------------------------------------------------------------------
# Counterexample fixtures (exact knot constructions)


@dataclass(frozen=True)
class Fixture:
    pair: DominancePair
    theta: float
    description: str


def fixture_global() -> Fixture:
    """Cumulative-order pair on which the excess area fails to grow.

    lower crosses upper twice and coincides with it beyond the second
    crossing at level 1, so both inverse ranks equal 1 and both cumulative
    integrals reach 2 there: the excess areas agree exactly (both 1) even
    though lower strictly precedes upper in cumulative order.
    """
    upper = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
    lower = PiecewiseLinearFn.from_pairs([(0, 2.6), (0.5, 2.2), (1, 1), (2, 0.2)])
    pair = verify_pair(
        DominancePair(upper=upper, lower=lower, relation=RelationKind.CUMULATIVE_PREC)
    )
    return Fixture(pair, 1.0, "equal excess areas despite strict cumulative dominance")


def fixture_alt1() -> Fixture:
    """Dominating pair on which the per-rank excess score decreases.

    upper exceeds lower everywhere, and its inverse rank at level 1 (0.9) is
    far right of lower's (0.5), but the extra excess area is tiny (0.257 vs
    0.25): dividing by the inverse rank inverts the order, 0.257/0.9 < 0.5.
    """
    lower = PiecewiseLinearFn.from_pairs([(0, 2), (1, 0)])
    upper = PiecewiseLinearFn.from_pairs([(0, 2.01), (0.5, 1.01), (0.9, 1.0), (1, 0.01)])
    pair = verify_pair(
        DominancePair(upper=upper, lower=lower, relation=RelationKind.GEQ_ALL)
    )
    return Fixture(pair, 1.0, "per-rank excess score drops under pointwise dominance")


def fixture_alt2() -> Fixture:
    """Dominating pair on which the own-level area score decreases.

    upper is the straight line 1 - x; lower bends below it through
    (1/2, 1/4) yet scores 3/16 > 1/8 at rank 1/2, because subtracting the
    function's own (smaller) level more than compensates the smaller area.
    """
    upper = PiecewiseLinearFn.from_pairs([(0, 1), (1, 0)])
    lower = PiecewiseLinearFn.from_pairs([(0, 1), (0.5, 0.25), (1, 0)])
    pair = verify_pair(
        DominancePair(upper=upper, lower=lower, relation=RelationKind.GEQ_ALL)
    )
    return Fixture(pair, 0.5, "own-level area score drops under pointwise dominance")


def pseudo_bundle_n() -> BundleDef:
    """The per-rank excess score packaged as a bundle for violation demos."""
    return BundleDef(
        name="n",
        measure=n_theta,
        level_of=lambda f, x: f.value(x),
        admissible=lambda f: f.admissible_range(),
    )


# ---------------------------------------------------------------------------
# Seeded pair generation


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic recipe for random dominance pairs.

    ``count`` pairs are produced per requested relation kind.  ``shift_scale``
    bounds the vertical shifts used for dominating pairs; keeping it below
    1 - (largest tail value) guarantees level 1 stays admissible for both
    members, which the measure suites rely on.
    """

    seed: int = 0
    count: int = 20
    knot_range: tuple[int, int] = (3, 8)
    T: float = 1.0
    value_scale: float = 10.0
    theta_grid: int = 24
    verify_grid: int = 2_000
    shift_scale: float = 0.4

    def __post_init__(self) -> None:
        if self.count < 1:
            raise InputError("count must be >= 1")
        lo, hi = self.knot_range
        if lo < 3 or hi < lo:
            raise InputError("knot_range must satisfy 3 <= lo <= hi")
        if not (self.T > 0):
            raise InputError("T must be positive")
        if not (self.value_scale > 1.5):
            raise InputError("value_scale must exceed 1.5")
        if not (0.0 < self.shift_scale <= 1.0):
            raise InputError("shift_scale must lie in (0, 1]")


def _random_pwl(rng: np.random.Generator, cfg: GeneratorConfig) -> PiecewiseLinearFn:
    k = int(rng.integers(cfg.knot_range[0], cfg.knot_range[1] + 1))
    for _ in range(100):
        interior = np.sort(rng.uniform(0.0, cfg.T, size=k - 2))
        xs = np.concatenate(([0.0], interior, [cfg.T]))
        if np.min(np.diff(xs)) > 1e-6 * cfg.T:
            break
    else:
        raise GenerationError("could not draw well-separated knot ranks")
    tail = float(rng.uniform(0.0, 0.4))
    drops = rng.uniform(0.3, 1.0, size=k - 1)
    total = float(rng.uniform(max(1.5, 0.3 * cfg.value_scale), cfg.value_scale))
    drops *= total / drops.sum()
    ys = tail + np.concatenate((np.cumsum(drops[::-1])[::-1], [0.0]))
    return PiecewiseLinearFn(xs, ys)


def _shifted(z: PiecewiseLinearFn, c: float, taper: bool) -> PiecewiseLinearFn:
    """z plus a positive shift: constant, or linearly decaying to c/2 at T."""
    if not (c > 0.0):
        raise InputError("shift must be strictly positive")
    bump = c * (1.0 - 0.5 * z.xs / z.T) if taper else c
    return PiecewiseLinearFn(z.xs, z.ys + bump)


def _prefix_gap(z: PiecewiseLinearFn, g: float, b: float) -> PiecewiseLinearFn:
    """z plus the wedge g * max(0, 1 - x/b): strictly above z on [0, b)."""
    if not (g > 0.0):
        raise InputError("gap height must be strictly positive")
    xs = np.union1d(z.xs, [b])
    return PiecewiseLinearFn(xs, z.values(xs) + g * np.maximum(0.0, 1.0 - xs / b))


def _equal_prefix_variant(
    z: PiecewiseLinearFn, split: int, lam: float
) -> PiecewiseLinearFn:
    """Copy z up to knot ``split``, then shrink the remaining drop by lam."""
    za = z.ys[split]
    ys = z.ys.copy()
    ys[split + 1 :] = za + lam * (ys[split + 1 :] - za)
    return PiecewiseLinearFn(z.xs, ys)


def _build_pair(
    rng: np.random.Generator, cfg: GeneratorConfig, kind: RelationKind
) -> DominancePair:
    z = _random_pwl(rng, cfg)
    if kind is RelationKind.GEQ_ALL or kind is RelationKind.CUMULATIVE_PREC:
        c = float(rng.uniform(0.05, cfg.shift_scale))
        y = _shifted(z, c, taper=bool(rng.random() < 0.5))
        return DominancePair(upper=y, lower=z, relation=kind)
    if kind is RelationKind.STRICT_ON_PREFIX:
        a = float(rng.uniform(0.25, 0.75)) * cfg.T
        b = float(rng.uniform(a + 0.05 * cfg.T, cfg.T))
        g = float(rng.uniform(0.05, cfg.shift_scale))
        y = _prefix_gap(z, g, b)
        return DominancePair(upper=y, lower=z, relation=kind, prefix_end=a)
    if kind is RelationKind.EQUAL_ON_PREFIX:
        # bias toward deep prefixes so level-threshold checks get coverage
        if rng.random() < 0.5:
            split = len(z.xs) - 2
        else:
            split = int(rng.integers(1, len(z.xs) - 1))
        lam = float(rng.uniform(0.2, 0.8))
        y = _equal_prefix_variant(z, split, lam)
        return DominancePair(
            upper=y, lower=z, relation=kind, prefix_end=float(z.xs[split])
        )
    raise InputError(f"unknown relation {kind!r}")  # pragma: no cover


def generate_pairs(
    config: GeneratorConfig,
    relation: RelationKind | None = None,
) -> list[DominancePair]:
    """Generate ``config.count`` verified pairs per relation kind.

    Deterministic for a fixed config: the same seed reproduces the same
    pairs.  Every pair is re-verified before being returned; a construction
    that fails verification is retried up to 100 times.
    """
    kinds = [relation] if relation is not None else list(RelationKind)
    rng = np.random.default_rng(config.seed)
    out: list[DominancePair] = []
    for kind in kinds:
        for _ in range(config.count):
            for _attempt in range(100):
                try:
                    pair = _build_pair(rng, config, kind)
                    out.append(verify_pair(pair, grid_n=config.verify_grid))
                    break
                except (InputError, VerificationError):
                    continue
            else:
                raise GenerationError(f"gave up generating a {kind.value} pair")
    return out
