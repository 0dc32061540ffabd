"""Numerical checks of the bundle and measure axiom systems.

Four checker families, each consuming verified dominance pairs and producing
per-axiom reports with explicit violation witnesses:

* ``check_impact_bundle``   the four bundle axioms: zero on the empty
  function (vacuous here, the function space excludes it), monotone under
  pointwise >=, strictly monotone under strict prefix dominance, and local
  (prefix-equal functions score equally on the prefix image).
* ``check_impact_measure``  the three-axiom system for a single score:
  positivity, monotone under >=, strict under strict prefix dominance with
  per-function thresholds.
* ``check_strong_impact``   the four-axiom strengthening whose third axiom
  demands strict growth whenever the running averages are strictly ordered
  on [0, T).
* ``check_global_impact``   strict growth under the cumulative-integral
  partial order.

``check_impact_bundle`` samples each pair's levels through the vector level
map ``BundleDef.levels`` and scores both members at all of them in one
``BundleDef.scores`` call each; a score or level map other than the
built-in ones falls back to one scalar call per level, with the same report.  The last three
take the single score as a ``BundleDef`` and a level theta; the bundle's
``positive_for`` and ``rank_of`` say where that score is provably positive
and which rank it reads up to.  Every report comes from one driver,
``_run_axiom``, that runs a per-pair (or per-function) check.  The
positivity report (IM.1, SM.1) is the same check in both suites; a run of
both computes it once and hands IM.1 to ``_strong_impact``.

The module also ships the two rejected alternative scores (``n_theta``,
``eta_theta``, and as bundles ``pseudo_bundle_n``, ``pseudo_bundle_eta``),
three exactly constructed counterexample fixtures that demonstrate which
axioms each score breaks, and a seeded pair generator whose ``verify_pair``
evaluates only the one grid each relation needs.

Violations are only recorded when the gap clears the reporting slack, so
float ties never masquerade as axiom failures.  Pairs failing a checked
hypothesis are skipped and counted, never flagged: the axioms are
implications and an unmet premise proves nothing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .bundles import E_BUNDLE, I_BUNDLE, BundleDef, e_theta
from .functions import (
    CumulativeOrder,
    InputError,
    PiecewiseLinearFn,
    RankFunction,
    _equal_verdict,
    _gaps,
    _geq_verdict,
    _strict_verdict,
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
    "pseudo_bundle_eta",
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
    """Re-check the declared relation and return a verified copy.

    Each relation evaluates one grid: the full domain for GEQ_ALL and
    CUMULATIVE_PREC, the prefix [0, a] for the prefix relations.
    """
    up, lo, rel = pair.upper, pair.lower, pair.relation
    if rel in (RelationKind.STRICT_ON_PREFIX, RelationKind.EQUAL_ON_PREFIX):
        if pair.prefix_end is None:
            raise InputError(f"{rel.value} pair needs prefix_end")

    if rel is RelationKind.GEQ_ALL:
        geq, witness = _geq_verdict(*_gaps(up, lo, None, grid_n))
        if not geq:
            raise VerificationError(f"upper < lower at x={witness}")
    elif rel is RelationKind.STRICT_ON_PREFIX:
        strict, min_gap, witness = _strict_verdict(*_gaps(up, lo, pair.prefix_end, grid_n))
        if not strict:
            raise VerificationError(f"not strict on prefix: gap {min_gap} at x={witness}")
    elif rel is RelationKind.EQUAL_ON_PREFIX:
        equal, max_dev, witness = _equal_verdict(*_gaps(up, lo, pair.prefix_end, grid_n))
        if not equal:
            raise VerificationError(f"not equal on prefix: deviation {max_dev} at x={witness}")
    elif rel is RelationKind.CUMULATIVE_PREC:
        cv = cumulative_dominates(lo, up, grid_n=grid_n)
        if cv.order is not CumulativeOrder.PRECEDES:
            raise VerificationError(f"cumulative order is {cv.order.value}")
        if _equal_verdict(*_gaps(up, lo, None, grid_n))[0]:
            raise VerificationError("functions coincide; relation requires lower != upper")
    else:  # pragma: no cover
        raise InputError(f"unknown relation {rel!r}")
    return replace(pair, verified=True)


# ---------------------------------------------------------------------------
# Reports and the one axiom driver


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


# What a check returns for an item it does not test: the axiom's premise
# fails there, or the score is not defined.
_SKIP = "skipped"
# A skip that the report's note counts: strong impact claims no strictness
# at the level where the score reads up to the end of the domain.
_BOUNDARY = "boundary-level pairs excluded"


def _run_axiom(
    axiom: str,
    items: Iterable[tuple[int, Any]],
    check: Callable[[int, Any], Violation | str | None],
    note: str = "",
) -> AxiomReport:
    """Run one axiom's ``check`` over indexed pairs or functions.

    ``check(index, item)`` returns None when the item satisfies the axiom, a
    ``Violation`` when it breaks it, or a skip reason when the axiom does not
    apply.  The report's note counts every skip reason other than ``_SKIP``.
    """
    tested = 0
    violations: list[Violation] = []
    skips: Counter[str] = Counter()
    for idx, item in items:
        outcome = check(idx, item)
        if isinstance(outcome, str):
            skips[outcome] += 1
            continue
        tested += 1
        if outcome is not None:
            violations.append(outcome)
    counted = [f"{reason}: {n}" for reason, n in skips.items() if reason != _SKIP]
    note = "; ".join(filter(None, [note, *counted]))
    return AxiomReport(axiom, tested, tuple(violations), sum(skips.values()), note)


def _require_verified(pairs: Iterable[DominancePair]) -> list[DominancePair]:
    out = list(pairs)
    for p in out:
        if not p.verified:
            raise InputError("axiom checks require verified pairs; run verify_pair first")
    return out


def _by_relation(pairs: Sequence[DominancePair], kind: RelationKind) -> list[tuple[int, DominancePair]]:
    return [(i, p) for i, p in enumerate(pairs) if p.relation is kind]


def _members(pairs: Sequence[DominancePair]) -> list[RankFunction]:
    """Distinct functions of the pairs, in order of first appearance."""
    return list(dict.fromkeys(f for p in pairs for f in (p.upper, p.lower)))


# Verdicts on the scores (m_up, m_lo) of a pair's dominating and dominated
# member, floats or arrays over levels: whether they break the axiom, and
# the gap a violation reports.


def _below(m_up, m_lo, slack):
    gap = m_lo - m_up
    return gap > slack, gap


def _not_above(m_up, m_lo, strict_slack):
    return m_up - m_lo <= strict_slack, m_lo - m_up


def _unequal(m_up, m_lo, eq_tol):
    gap = abs(m_up - m_lo)
    return gap > eq_tol, gap


# The note of a single-level strictness violation.
_NOT_STRICT = "not strict"


def _violation(
    idx: int, t: float, m_up: float, m_lo: float, verdict, tol: float, note: str = ""
) -> Violation | None:
    """The verdict on one pair of scores as a ``Violation``, or None."""
    flagged, gap = verdict(m_up, m_lo, tol)
    return Violation(idx, t, m_up, m_lo, gap, note=note) if flagged else None


def _first_violation(
    idx: int, ts: np.ndarray, m_up: np.ndarray, m_lo: np.ndarray, verdict, tol: float, note: str
) -> Violation | None:
    """The verdict at the first level of ``ts`` that it flags, or None.

    A NaN score (undefined at that level) never flags: every comparison
    with NaN is false.
    """
    flagged, gap = verdict(m_up, m_lo, tol)
    hit = np.flatnonzero(flagged)
    if not hit.size:
        return None
    i = int(hit[0])
    return Violation(idx, float(ts[i]), float(m_up[i]), float(m_lo[i]), float(gap[i]), note=note)


def _try_measure(bundle: BundleDef, f: RankFunction, t: float) -> float | None:
    """Evaluate a bundle score, treating domain errors as inadmissibility.

    Scores may be undefined at isolated points of their nominal range (the
    per-rank excess score has no value at theta = Z(0), the running average
    none at a pole at the origin, and mu and i none past the rank T); such
    thetas are simply not compared.
    """
    try:
        return bundle.measure(f, t)
    except InputError:
        return None


# ---------------------------------------------------------------------------
# Impact bundle axioms


def _prefix_ranks(a: float, n: int) -> np.ndarray:
    """n uniform ranks on (0, a]."""
    return np.linspace(0.0, a, n + 1)[1:]


def _pair_levels(bundle: BundleDef, p: DominancePair, xs: np.ndarray) -> np.ndarray:
    """Both members' levels at the ranks xs, in one array."""
    return np.concatenate((bundle.levels(p.upper, xs), bundle.levels(p.lower, xs)))


def _level_samples(
    bundle: BundleDef, p: DominancePair, n: int, levels: np.ndarray | None = None
) -> np.ndarray:
    """Sorted levels at which to compare a pair's scores, admissible for both.

    ``levels`` are candidate levels, the images of a prefix (0, a] under
    level maps.  Without them, the pair's joint admissible range: n uniform
    levels when it is bounded, and when it is not (the h bundle, Zipf
    ranges) the images of (0, T] under both members' level maps, which walk
    the far tail without picking an arbitrary cap.  x = 0 is excluded: the
    h-bundle level map diverges there and the cumulative bundle is
    identically zero at level 0, where strictness is meaningless.
    """
    ru, rl = bundle.admissible(p.upper), bundle.admissible(p.lower)
    if levels is None:
        lo_t, hi_t = max(ru.lo, rl.lo), min(ru.hi, rl.hi)
        if lo_t > hi_t:
            return np.empty(0)
        if not math.isinf(hi_t):
            return np.linspace(lo_t, hi_t, n)
        levels = _pair_levels(bundle, p, _prefix_ranks(p.upper.T, n))
    levels = np.unique(levels[np.isfinite(levels)])
    return levels[ru.contains_each(levels) & rl.contains_each(levels)]


def check_impact_bundle(
    bundle: BundleDef,
    pairs: Sequence[DominancePair],
    theta_grid: int = 24,
    slack: float = MONOTONE_SLACK,
    strict_slack: float = STRICT_SLACK,
    eq_tol: float = EQUALITY_ASSERT_TOL,
) -> dict[str, AxiomReport]:
    """Run the four bundle axioms, routing pairs by their relation kind.

    Each pair's members are scored at all of its sampled levels in one
    ``BundleDef.scores`` call each.  Only the first violation per pair and
    axiom, at the lowest flagged level, is reported; pairs whose members
    fall outside the bundle's domain are skipped and counted.
    """
    pairs = _require_verified(pairs)

    def at_levels(idx, p, thetas, verdict, tol, note):
        m_up, m_lo = bundle.scores(p.upper, thetas), bundle.scores(p.lower, thetas)
        return _first_violation(idx, thetas, m_up, m_lo, verdict, tol, note)

    # AX.2: upper >= lower pointwise implies scores ordered the same way.
    def monotone(idx: int, p: DominancePair):
        thetas = _level_samples(bundle, p, theta_grid)
        if not thetas.size:
            return _SKIP
        return at_levels(idx, p, thetas, _below, slack, "")

    # AX.3: strict dominance on [0, a] forces strictly larger scores on the
    # level image of the prefix.
    def strict(idx: int, p: DominancePair):
        levels = _pair_levels(bundle, p, _prefix_ranks(p.prefix_end, theta_grid))
        thetas = _level_samples(bundle, p, theta_grid, levels)
        if not thetas.size:
            return _SKIP
        return at_levels(idx, p, thetas, _not_above, strict_slack, "not strictly larger")

    # AX.4: equal prefixes force equal level maps and equal scores there.
    def local(idx: int, p: DominancePair):
        xs = _prefix_ranks(p.prefix_end, theta_grid)
        lu, ll = bundle.levels(p.upper, xs), bundle.levels(p.lower, xs)
        # an undefined or infinite level is not compared
        finite = np.isfinite(lu) & np.isfinite(ll)
        if v := _first_violation(idx, xs[finite], lu[finite], ll[finite], _unequal, eq_tol,
                                 "level maps differ"):
            return v
        thetas = _level_samples(bundle, p, theta_grid, ll)
        return at_levels(idx, p, thetas, _unequal, eq_tol, "scores differ")

    return {
        "AX.1": AxiomReport(
            "AX.1", 0, note="vacuous: the zero function is not a strictly decreasing rank function"
        ),
        "AX.2": _run_axiom("AX.2", _by_relation(pairs, RelationKind.GEQ_ALL), monotone),
        "AX.3": _run_axiom("AX.3", _by_relation(pairs, RelationKind.STRICT_ON_PREFIX), strict),
        "AX.4": _run_axiom("AX.4", _by_relation(pairs, RelationKind.EQUAL_ON_PREFIX), local),
    }


# ---------------------------------------------------------------------------
# Single-score axioms: a bundle fixed at one level theta


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


def _admits(bundle: BundleDef, f: RankFunction, theta: float) -> bool:
    """Whether the level theta lies in f's admissible range for the bundle.

    A density level (no ``rank_of``) is admitted within the range's slack,
    because the density scores snap it onto the range.  A level that fixes a
    rank (mu, i, eta, h) is admitted only inside the exact range.
    """
    rng = bundle.admissible(f)
    return rng.contains(theta) if bundle.rank_of is None else rng.contains(theta, slack=0.0)


def _scores_at(bundle: BundleDef, theta: float, p: DominancePair) -> tuple[float, float] | None:
    """Both members' scores at theta, or None unless both admit and score it."""
    if not (_admits(bundle, p.upper, theta) and _admits(bundle, p.lower, theta)):
        return None
    m_up = _try_measure(bundle, p.upper, theta)
    m_lo = _try_measure(bundle, p.lower, theta)
    if m_up is None or m_lo is None:
        return None
    return m_up, m_lo


def _reads_past(bundle: BundleDef, theta: float, f: RankFunction, a: float) -> bool:
    """Whether the score at theta reads f beyond the rank a."""
    return bundle.rank_of is not None and bundle.rank_of(f, theta) > a + EQUALITY_ASSERT_TOL


def _positivity_report(
    axiom: str, bundle: BundleDef, theta: float, pairs: Sequence[DominancePair], strict_slack: float
) -> AxiomReport:
    def positive(idx: int, f: RankFunction):
        if not (_admits(bundle, f, theta) and bundle.positive_for(f, theta)):
            return _SKIP
        v = _try_measure(bundle, f, theta)
        if v is None:
            return _SKIP
        if v <= strict_slack:
            return Violation(idx, math.nan, v, 0.0, -v, note="score not positive")
        return None

    return _run_axiom(
        axiom,
        enumerate(_members(pairs)),
        positive,
        note="zero-function clause vacuous: rank functions are strictly decreasing",
    )


def check_impact_measure(
    bundle: BundleDef,
    theta: float,
    pairs: Sequence[DominancePair],
    slack: float = MONOTONE_SLACK,
    strict_slack: float = STRICT_SLACK,
) -> dict[str, AxiomReport]:
    """Three-axiom check for the single score of a bundle at the level theta.

    IM.1 positivity (the zero-function clause is vacuous on this function
    space), IM.2 monotone under pointwise >= plus equal scores on equal
    inputs, IM.3 strict growth under strict prefix dominance, with the
    generated prefix endpoint playing the per-function threshold.
    """
    pairs = _require_verified(pairs)

    def monotone(idx: int, p: DominancePair):
        scores = _scores_at(bundle, theta, p)
        if scores is None:
            return _SKIP
        m_up, m_lo = scores
        if v := _violation(idx, math.nan, m_up, m_lo, _below, slack):
            return v
        # determinism half of the axiom: equal inputs give equal scores
        if bundle.measure(p.upper, theta) != m_up:
            return Violation(idx, math.nan, m_up, m_up, 0.0, note="not deterministic")
        return None

    def strict(idx: int, p: DominancePair):
        scores = _scores_at(bundle, theta, p)
        # a score that reads up to a rank (mu, i, h) is only constrained when
        # the strict prefix covers everything it reads
        if scores is None or _reads_past(bundle, theta, p.lower, p.prefix_end):
            return _SKIP
        return _violation(idx, math.nan, *scores, _not_above, strict_slack, _NOT_STRICT)

    return {
        "IM.1": _positivity_report("IM.1", bundle, theta, pairs, strict_slack),
        "IM.2": _run_axiom("IM.2", _by_relation(pairs, RelationKind.GEQ_ALL), monotone),
        "IM.3": _run_axiom("IM.3", _by_relation(pairs, RelationKind.STRICT_ON_PREFIX), strict),
    }


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
    bundle: BundleDef,
    theta: float,
    pairs: Sequence[DominancePair],
    mu_grid: int = 512,
    slack: float = MONOTONE_SLACK,
    strict_slack: float = STRICT_SLACK,
    eq_tol: float = EQUALITY_ASSERT_TOL,
    boundary_tol: float = 1e-9,
) -> dict[str, AxiomReport]:
    """Four-axiom strong-impact check for the score of a bundle at theta.

    SM.1 is the same positivity check as ``check_impact_measure``'s IM.1.
    SM.3 is hypothesis-filtered: a pair enters only after its running
    averages verify as strictly ordered on a grid over [0, T), and pairs
    whose lower member is read up to the domain end at theta (a density
    level equal to Z(T), or a rank equal to T) are excluded and flagged (the
    strictness claim does not cover that boundary).  SM.4 realizes the
    per-function threshold as the rank the score reads up to, or for a
    density level its inverse rank, so it applies to prefix-equal pairs
    whose prefix reaches that rank.
    """
    pairs = _require_verified(pairs)
    positivity = _positivity_report("SM.1", bundle, theta, pairs, strict_slack)
    return _strong_impact(
        bundle, theta, pairs, positivity, mu_grid, slack, strict_slack, eq_tol, boundary_tol
    )


def _strong_impact(
    bundle: BundleDef,
    theta: float,
    pairs: Sequence[DominancePair],
    positivity: AxiomReport,
    mu_grid: int = 512,
    slack: float = MONOTONE_SLACK,
    strict_slack: float = STRICT_SLACK,
    eq_tol: float = EQUALITY_ASSERT_TOL,
    boundary_tol: float = 1e-9,
) -> dict[str, AxiomReport]:
    """``check_strong_impact`` on verified pairs, with SM.1 given.

    ``positivity`` must be the positivity report for the same bundle, level,
    pairs and ``strict_slack``: IM.1's report of a run of both suites.
    """

    def monotone(idx: int, p: DominancePair):
        scores = _scores_at(bundle, theta, p)
        return _SKIP if scores is None else _violation(idx, math.nan, *scores, _below, slack)

    def strict(idx: int, p: DominancePair):
        scores = _scores_at(bundle, theta, p)
        if scores is None:
            return _SKIP
        lower = p.lower
        if bundle.rank_of is None:
            at_boundary = abs(theta - lower.value(lower.T)) <= boundary_tol
        else:
            rank = bundle.rank_of(lower, theta)
            at_boundary = rank >= lower.T - boundary_tol * max(1.0, lower.T)
        if at_boundary:
            return _BOUNDARY
        if not _averages_strictly_ordered(lower, p.upper, mu_grid):
            return _SKIP
        return _violation(idx, math.nan, *scores, _not_above, strict_slack, _NOT_STRICT)

    def local(idx: int, p: DominancePair):
        scores = _scores_at(bundle, theta, p)
        if scores is None:
            return _SKIP
        # the equal prefix must cover everything the score reads
        if bundle.rank_of is None:
            covered = theta >= p.lower.value(p.prefix_end) - EQUALITY_ASSERT_TOL
        else:
            covered = not _reads_past(bundle, theta, p.lower, p.prefix_end)
        return _violation(idx, math.nan, *scores, _unequal, eq_tol) if covered else _SKIP

    geq = _by_relation(pairs, RelationKind.GEQ_ALL)
    return {
        "SM.1": replace(positivity, axiom="SM.1"),
        "SM.2": _run_axiom("SM.2", geq, monotone),
        "SM.3": _run_axiom("SM.3", geq, strict),
        "SM.4": _run_axiom("SM.4", _by_relation(pairs, RelationKind.EQUAL_ON_PREFIX), local),
    }


def check_global_impact(
    bundle: BundleDef,
    theta: float,
    pairs: Sequence[DominancePair],
    strict_slack: float = STRICT_SLACK,
) -> AxiomReport:
    """Strict growth under the cumulative-integral partial order.

    Expected to fail for the excess-area score: ``fixture_global`` produces
    a pair with lower strictly preceding upper yet equal scores, and the
    report records that equality witness honestly.
    """
    pairs = _require_verified(pairs)

    def strict(idx: int, p: DominancePair):
        scores = _scores_at(bundle, theta, p)
        if scores is None:
            return _SKIP
        return _violation(idx, math.nan, *scores, _not_above, strict_slack, _NOT_STRICT)

    return _run_axiom("GM", _by_relation(pairs, RelationKind.CUMULATIVE_PREC), strict)


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
    """The per-rank excess score packaged as a bundle for violation demos.

    Its level is a density, as for the e bundle it is built from.
    """
    return replace(E_BUNDLE, name="n", measure=n_theta)


def pseudo_bundle_eta() -> BundleDef:
    """The own-level area score packaged as a bundle for violation demos.

    Its level is a rank, as for the i bundle it is built from.
    """
    return replace(I_BUNDLE, name="eta", measure=eta_theta)


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
        if (xs[1:] - xs[:-1]).min() > 1e-6 * cfg.T:
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
