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

The pair set, not the pair, is the unit of work.  Each
``check_impact_bundle`` axiom reads all its pairs at once (``_PairSet``):
the members' level maps at the sampled ranks in one stacked pass, then both
members' scores at every sampled level of every pair in another, with the
first flagged level per pair found by ``argmax``.  The last three take the
single score as a ``BundleDef`` and a level theta; the bundle's
``positive_for`` and ``rank_of`` say where that score is provably positive
and which rank it reads up to.  Each admits and scores every distinct
function of its pairs once, in stacked passes (``_level_table``), and reads
every pair's verdict from that table.  A pair set or a table stacks its
piecewise linear members once (``bundles._pool``), every pass reads rows of
that stack through the bundle's vector rules, built-in or custom alike, in
blocks of ``functions._BLOCK`` rows, and a set with another member is read
one function at a time.  Every report comes from one driver, ``_run_axiom``.

The module also ships the two rejected alternative scores (``n_theta``,
``eta_theta``, and as bundles ``pseudo_bundle_n``, ``pseudo_bundle_eta``,
whose vector rules the stacked passes read as they read the built-in ones),
three exactly constructed counterexample fixtures that demonstrate which
axioms each score breaks, and a seeded pair generator.  Its verification
(``verify_pair``, ``_rejections``) is exact for piecewise linear pairs, at
their merged knots, and verifies a whole batch in one stacked pass; a
rejected pair rewinds the generator to just after its draws.

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

from .bundles import (E_BUNDLE, I_BUNDLE, BundleDef, _at_levels, _defined, _excess, _on_domain,
                      _pool, _ranges, _read)
from .functions import (
    EQUALITY_TOL,
    CumulativeOrder,
    InputError,
    PiecewiseLinearFn,
    RankFunction,
    ThetaRange,
    _common_T,
    _cumulative_extrema,
    _cumulative_order,
    _extremes,
    _gaps,
    _merged_gaps,
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
# SM.3 excludes a pair whose lower member the score reads up to this close
# to the domain end.
_BOUNDARY_TOL = 1e-9
# Points on [0, T) at which SM.3 checks that the running averages are
# strictly ordered.
_AVERAGES_GRID = 512


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


def _end(pair: DominancePair) -> float:
    """The end a of the range [0, a] that the pair's relation covers."""
    T = _common_T(pair.upper, pair.lower)
    if pair.relation in (RelationKind.GEQ_ALL, RelationKind.CUMULATIVE_PREC):
        return T
    if pair.prefix_end is None or not (0.0 < pair.prefix_end <= T):
        raise InputError(
            f"{pair.relation.value} pair needs prefix_end in (0, T], got {pair.prefix_end!r}")
    return pair.prefix_end


def _reason(rel: RelationKind, order: CumulativeOrder | None, min_gap: float, min_at: float,
            max_dev: float, dev_at: float) -> str | None:
    """Why a pair fails its relation, None when it holds, from the cumulative
    order of lower against upper (read for CUMULATIVE_PREC only) and the
    extremes of upper - lower on the relation's range (``_extremes``)."""
    if rel is RelationKind.GEQ_ALL:
        return None if min_gap >= -EQUALITY_TOL else f"upper < lower at x={min_at}"
    if rel is RelationKind.STRICT_ON_PREFIX:
        return None if min_gap > 0.0 else f"not strict on prefix: gap {min_gap} at x={min_at}"
    if rel is RelationKind.EQUAL_ON_PREFIX:
        return (None if max_dev <= EQUALITY_TOL
                else f"not equal on prefix: deviation {max_dev} at x={dev_at}")
    if order is not CumulativeOrder.PRECEDES:
        return f"cumulative order is {order.value}"
    return (None if max_dev > EQUALITY_TOL
            else "functions coincide; relation requires lower != upper")


def _rejections(pairs: Sequence[DominancePair], grid_n: int = 10_000) -> list[str | None]:
    """``_reason`` for every pair.

    A set of piecewise linear pairs is decided exactly, in one stacked pass:
    upper - lower is linear between the merged knots of the two, so >=, >
    and = hold on [0, a] exactly when they hold at the merged knots inside
    [0, a] and at a (``_merged_gaps``), and vertex analysis gives the
    cumulative order.  Any other set is sampled on one grid of ``grid_n``
    points per pair, over the relation's range [0, a].
    """
    ends = np.array([_end(p) for p in pairs])
    if all(isinstance(f, PiecewiseLinearFn) for p in pairs for f in (p.upper, p.lower)):
        xs, gaps = _merged_gaps([p.upper for p in pairs], [p.lower for p in pairs], ends)
        extrema = (v.tolist() for v in _cumulative_extrema(xs, -gaps)[:2])
        orders = [_cumulative_order(dmin, dmax) for dmin, dmax in zip(*extrema)]
    else:
        xs, gaps = map(np.array, zip(*(_gaps(p.upper, p.lower, a, grid_n)
                                       for p, a in zip(pairs, ends.tolist()))))
        orders = [cumulative_dominates(p.lower, p.upper, grid_n=grid_n).order
                  if p.relation is RelationKind.CUMULATIVE_PREC else None for p in pairs]
    facts = zip(*(v.tolist() for v in _extremes(xs, gaps)))
    return [_reason(p.relation, order, *fact) for p, order, fact in zip(pairs, orders, facts)]


def verify_pair(pair: DominancePair, grid_n: int = 10_000) -> DominancePair:
    """Re-check the declared relation and return a verified copy: exactly
    for two piecewise linear members, else on a grid of ``grid_n`` points
    (``_rejections``)."""
    reason = _rejections([pair], grid_n)[0]
    if reason:
        raise VerificationError(reason)
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


def _first_violations(
    idx: Sequence[int], ts: np.ndarray, m_up: np.ndarray, m_lo: np.ndarray, verdict, tol: float,
    note: str
) -> list[Violation | None]:
    """Per row of the levels (or ranks) ts and the scores there, the verdict
    at the first column that it flags, or None.  A NaN score (undefined, or
    no level there) never flags: every comparison with NaN is false."""
    flagged, gap = verdict(m_up, m_lo, tol)
    first = np.argmax(flagged, axis=1).tolist()
    return [Violation(i, float(ts[r, j]), float(m_up[r, j]), float(m_lo[r, j]), float(gap[r, j]),
                      note=note) if flagged[r, j] else None
            for r, (i, j) in enumerate(zip(idx, first))]


# ---------------------------------------------------------------------------
# Impact bundle axioms


def _linspaces(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """``np.linspace(lo[i], hi[i], n)`` as row i."""
    rows = [np.linspace(a, b, n) for a, b in zip(lo.tolist(), hi.tolist())]
    return np.array(rows).reshape(len(lo), n)


class _PairSet:
    """One relation kind's pairs, read together for a bundle: the members
    (uppers, then lowers, as one ``_pool``) with each pair's rows ``up`` and
    ``lo``, their admissible ranges, and n ranks per pair on (0, a], a the
    prefix end or else T."""

    def __init__(self, bundle: BundleDef, pairs: Sequence[DominancePair], kind: RelationKind,
                 n: int) -> None:
        items = _by_relation(pairs, kind)
        self.bundle, self.idx, ps = bundle, [i for i, _ in items], [p for _, p in items]
        self.fns = _pool([p.upper for p in ps] + [p.lower for p in ps])
        self.up, self.lo = np.arange(len(ps)), np.arange(len(ps), 2 * len(ps))
        self.ranges = _ranges(bundle.admissible, self.fns)
        ends = np.array([p.upper.T if p.prefix_end is None else p.prefix_end for p in ps])
        self.ranks = _linspaces(np.zeros(len(ps)), ends, n + 1)[:, 1:]

    def levels(self, pick=slice(None)) -> np.ndarray:
        """The picked pairs' level maps at their ranks (uppers', then
        lowers'), in one stacked pass."""
        ranks = self.ranks[pick]
        rows = np.repeat(np.concatenate((self.up[pick], self.lo[pick])), ranks.shape[1])
        flat = _at_levels(self.bundle.levels, self.fns, rows, np.tile(ranks.ravel(), 2))
        return np.hstack(flat.reshape(2, *ranks.shape))

    def violations(self, levels: np.ndarray, verdict, tol: float, note: str) -> list:
        """Per pair, the verdict on its members' scores at the lowest of its
        distinct candidate levels that are finite and admissible for both
        (``_SKIP`` if none is), all scored in one stacked pass."""
        levels = np.sort(levels, axis=1)
        keep = np.ones(levels.shape, dtype=bool)
        keep[:, 1:] = levels[:, 1:] != levels[:, :-1]
        for rows in (self.up, self.lo):
            keep &= ThetaRange(*(end[rows, None] for end in self.ranges)).contains_each(levels)
        rows, cols = np.nonzero(keep)
        m = np.full((2, *levels.shape), math.nan)
        m[:, rows, cols] = _at_levels(self.bundle.scores, self.fns,
                                      np.concatenate((self.up[rows], self.lo[rows])),
                                      np.tile(levels[rows, cols], 2)).reshape(2, -1)
        found = _first_violations(self.idx, levels, m[0], m[1], verdict, tol, note)
        return [v if kept else _SKIP for v, kept in zip(found, keep.any(axis=1).tolist())]


def check_impact_bundle(
    bundle: BundleDef,
    pairs: Sequence[DominancePair],
    theta_grid: int = 24,
    slack: float = MONOTONE_SLACK,
    strict_slack: float = STRICT_SLACK,
    eq_tol: float = EQUALITY_ASSERT_TOL,
) -> dict[str, AxiomReport]:
    """Run the four bundle axioms, routing pairs by their relation kind.

    Each axiom reads all its pairs at once (``_PairSet``).  Only the first
    violation per pair and axiom, at the lowest flagged level, is reported;
    pairs whose members fall outside the bundle's domain are skipped and
    counted.  The rank x = 0 is never sampled: the h-bundle level map
    diverges there and the cumulative bundle is identically zero at level
    0, where strictness is meaningless.
    """
    pairs = _require_verified(pairs)
    n = theta_grid
    geq, strict, local = (_PairSet(bundle, pairs, kind, n) for kind in (
        RelationKind.GEQ_ALL, RelationKind.STRICT_ON_PREFIX, RelationKind.EQUAL_ON_PREFIX))

    def report(axiom: str, pair_set: _PairSet, outcomes: list) -> AxiomReport:
        return _run_axiom(axiom, zip(pair_set.idx, outcomes), lambda idx, outcome: outcome)

    # AX.2: upper >= lower pointwise implies scores ordered the same way, at
    # n levels across the pair's joint admissible range or, where it is
    # unbounded (h, Zipf), at the images of (0, T] under both level maps.
    lo_t = np.maximum(*(geq.ranges[0][rows] for rows in (geq.up, geq.lo)))
    hi_t = np.minimum(*(geq.ranges[1][rows] for rows in (geq.up, geq.lo)))
    bounded = np.isfinite(hi_t)
    levels = np.full((len(geq.idx), 2 * n), math.nan)
    levels[bounded, :n] = _linspaces(lo_t[bounded], hi_t[bounded], n)
    if not bounded.all():
        levels[~bounded] = geq.levels(~bounded)
    levels[lo_t > hi_t] = math.nan

    # AX.4: equal prefixes force equal level maps (an undefined or infinite
    # level is not compared), then equal scores at the lower's levels.
    lu, ll = np.hsplit(local.levels(), 2)
    finite = np.isfinite(lu) & np.isfinite(ll)
    maps = _first_violations(local.idx, local.ranks, np.where(finite, lu, math.nan),
                             np.where(finite, ll, math.nan), _unequal, eq_tol, "level maps differ")
    scores = local.violations(ll, _unequal, eq_tol, "scores differ")

    return {
        "AX.1": AxiomReport(
            "AX.1", 0, note="vacuous: the zero function is not a strictly decreasing rank function"
        ),
        "AX.2": report("AX.2", geq, geq.violations(levels, _below, slack, "")),
        # AX.3: strict dominance on [0, a] forces strictly larger scores on
        # the level image of the prefix.
        "AX.3": report("AX.3", strict, strict.violations(strict.levels(), _not_above, strict_slack,
                                                         "not strictly larger")),
        # AX.4 tests a pair even when no level is left to score
        "AX.4": report("AX.4", local, [m or (None if v is _SKIP else v)
                                       for m, v in zip(maps, scores)]),
    }


# ---------------------------------------------------------------------------
# Single-score axioms: a bundle fixed at one level theta


def _n_scores(f: RankFunction, thetas: np.ndarray) -> np.ndarray:
    """The excess area per unit rank, e / x at x = f^-1(theta), at admitted
    levels; undefined at theta = Z(0), where x = 0."""
    rng = f.admissible_range()

    def per_rank(g: RankFunction, t: np.ndarray) -> np.ndarray:
        x = g._inverses(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0.0, _excess(g, t) / x, math.nan)
    return _defined(rng.contains_each(thetas), f, per_rank, rng.clamp_each(thetas))


def _eta_scores(f: RankFunction, ts: np.ndarray) -> np.ndarray:
    """The area between f and its own level f(t) over [0, t], I(t) - t f(t),
    for ranks t on the domain; exactly 0 at t = 0, where f is not read."""
    inner = _on_domain(f, ts) & (ts > 0.0)
    area = _defined(inner, f, lambda g, t: g.cumulatives(t) - t * g.values(t), ts)
    return np.where(ts == 0.0, 0.0, area)


def n_theta(f: RankFunction, theta: float) -> float:
    """Excess area per unit rank: e_theta divided by the inverse rank."""
    return _read(_n_scores, f, theta, "n")


def eta_theta(f: RankFunction, t: float) -> float:
    """Area between f and its own level f(t) over [0, t]; t is a rank."""
    return _read(_eta_scores, f, t, "eta")


_Table = dict[RankFunction, float]


def _level_table(bundle: BundleDef, theta: float, fns: Iterable[RankFunction]) -> tuple[_Table, _Table]:
    """Each distinct function's score at theta and, for a bundle with
    ``rank_of``, the rank up to which the score reads it, each in one
    stacked pass over one ``_pool``.  Only functions that admit theta get
    entries (a density level within the range's slack, as the density
    scores snap it onto the range, one that fixes a rank exactly); an
    undefined score is NaN."""
    fns = list(dict.fromkeys(fns))
    pool = _pool(fns)
    lo, hi = _ranges(bundle.admissible, pool)
    slack = EQUALITY_TOL if bundle.rank_of is None else 0.0
    rows = np.flatnonzero(math.isfinite(theta) & (theta >= lo - slack) & (theta <= hi + slack))
    admitted, thetas = [fns[r] for r in rows.tolist()], np.full(len(rows), float(theta))
    scores = dict(zip(admitted, _at_levels(bundle.scores, pool, rows, thetas).tolist()))
    if bundle.rank_of is None:
        return scores, {}
    if bundle.rank_of is bundle.scores:  # h reads up to its own root
        return scores, scores
    return scores, dict(zip(admitted, _at_levels(bundle.rank_of, pool, rows, thetas).tolist()))


def _pair_check(
    scores: _Table, verdict, tol: float, note: str = "",
    skip: Callable[[DominancePair], str | None] = lambda p: None,
) -> Callable[[int, DominancePair], Violation | str | None]:
    """A single-level axiom's check: the verdict on a pair's scores in the
    table.  A pair is skipped when a member has no score, or for the reason
    ``skip`` gives."""
    def check(idx: int, p: DominancePair):
        m_up, m_lo = scores.get(p.upper, math.nan), scores.get(p.lower, math.nan)
        if math.isnan(m_up) or math.isnan(m_lo):
            return _SKIP
        flagged, gap = verdict(m_up, m_lo, tol)
        violation = Violation(idx, math.nan, m_up, m_lo, gap, note=note) if flagged else None
        return skip(p) or violation
    return check


def _reads_past(bundle: BundleDef, ranks: _Table, f: RankFunction, a: float) -> bool:
    """Whether the score reads f beyond the rank a."""
    return bundle.rank_of is not None and ranks[f] > a + EQUALITY_ASSERT_TOL


def _positivity_report(
    axiom: str, bundle: BundleDef, theta: float, members: Sequence[RankFunction], scores: _Table,
    strict_slack: float,
) -> AxiomReport:
    def positive(idx: int, f: RankFunction):
        v = scores.get(f, math.nan)
        if math.isnan(v) or not bundle.positive_for(f, theta):
            return _SKIP
        if v <= strict_slack:
            return Violation(idx, math.nan, v, 0.0, -v, note="score not positive")
        return None

    return _run_axiom(
        axiom,
        enumerate(members),
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
    space), IM.2 monotone under pointwise >= (equal inputs score equally by
    construction: a score is a rule on f), IM.3 strict growth under strict
    prefix dominance, with the generated prefix endpoint playing the
    per-function threshold.
    """
    pairs = _require_verified(pairs)
    members = _members(pairs)
    scores, ranks = _level_table(bundle, theta, members)
    # a score that reads up to a rank (mu, i, h) is only constrained when the
    # strict prefix covers everything it reads
    strict = _pair_check(scores, _not_above, strict_slack, _NOT_STRICT,
                         lambda p: _SKIP if _reads_past(bundle, ranks, p.lower, p.prefix_end) else None)
    return {
        "IM.1": _positivity_report("IM.1", bundle, theta, members, scores, strict_slack),
        "IM.2": _run_axiom("IM.2", _by_relation(pairs, RelationKind.GEQ_ALL),
                           _pair_check(scores, _below, slack)),
        "IM.3": _run_axiom("IM.3", _by_relation(pairs, RelationKind.STRICT_ON_PREFIX), strict),
    }


def _averages_strictly_ordered(lower: RankFunction, upper: RankFunction) -> bool:
    """Whether the running average of upper exceeds lower's on all of [0, T)."""
    xs = np.linspace(0.0, lower.T, _AVERAGES_GRID, endpoint=False)
    xs = xs[1:]  # x = 0 handled separately
    with np.errstate(divide="ignore"):
        mu_lo = lower.cumulatives(xs) / xs
        mu_up = upper.cumulatives(xs) / xs
    if not bool(np.all(mu_up > mu_lo)):
        return False
    if lower.unbounded_at_origin or upper.unbounded_at_origin:
        return True  # averages diverge at 0; the interior grid decides
    return upper.value_at_origin() > lower.value_at_origin()


def check_strong_impact(
    bundle: BundleDef,
    theta: float,
    pairs: Sequence[DominancePair],
    slack: float = MONOTONE_SLACK,
    strict_slack: float = STRICT_SLACK,
    eq_tol: float = EQUALITY_ASSERT_TOL,
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
    members = _members(pairs)
    scores, ranks = _level_table(bundle, theta, members)

    def unclaimed(p: DominancePair) -> str | None:
        lower = p.lower
        if bundle.rank_of is None:
            at_boundary = abs(theta - lower.value(lower.T)) <= _BOUNDARY_TOL
        else:
            at_boundary = ranks[lower] >= lower.T - _BOUNDARY_TOL * max(1.0, lower.T)
        if at_boundary:
            return _BOUNDARY
        return None if _averages_strictly_ordered(lower, p.upper) else _SKIP

    def uncovered(p: DominancePair) -> str | None:
        # the equal prefix must cover everything the score reads
        if bundle.rank_of is None:
            covered = theta >= p.lower.value(p.prefix_end) - EQUALITY_ASSERT_TOL
        else:
            covered = not _reads_past(bundle, ranks, p.lower, p.prefix_end)
        return None if covered else _SKIP

    geq = _by_relation(pairs, RelationKind.GEQ_ALL)
    return {
        "SM.1": _positivity_report("SM.1", bundle, theta, members, scores, strict_slack),
        "SM.2": _run_axiom("SM.2", geq, _pair_check(scores, _below, slack)),
        "SM.3": _run_axiom("SM.3", geq, _pair_check(scores, _not_above, strict_slack, _NOT_STRICT,
                                                    unclaimed)),
        "SM.4": _run_axiom("SM.4", _by_relation(pairs, RelationKind.EQUAL_ON_PREFIX),
                           _pair_check(scores, _unequal, eq_tol, skip=uncovered)),
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
    prec = _by_relation(pairs, RelationKind.CUMULATIVE_PREC)
    scores, _ = _level_table(bundle, theta, (f for _, p in prec for f in (p.upper, p.lower)))
    return _run_axiom("GM", prec, _pair_check(scores, _not_above, strict_slack, _NOT_STRICT))


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
    return replace(E_BUNDLE, name="n", scores=_n_scores)


def pseudo_bundle_eta() -> BundleDef:
    """The own-level area score packaged as a bundle for violation demos.

    Its level is a rank, as for the i bundle it is built from.
    """
    return replace(I_BUNDLE, name="eta", scores=_eta_scores)


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
    bump = c * (1.0 - 0.5 * z.xs / z.T) if taper else c
    return PiecewiseLinearFn(z.xs, z.ys + bump)


def _prefix_gap(z: PiecewiseLinearFn, g: float, b: float) -> PiecewiseLinearFn:
    """z plus the wedge g * max(0, 1 - x/b): strictly above z on [0, b)."""
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
    pairs.  Each kind's pairs are built in draw order and then verified
    together, exactly, in one stacked pass (``_rejections``).  A pair that
    fails to build or to verify is retried, up to 100 attempts per pair:
    when the pass rejects a pair, the generator is rewound to its state just
    after that pair's draws and building resumes there, dropping the pairs
    built after it.  So the pairs are those that building and verifying one
    pair at a time would give.
    """
    kinds = [relation] if relation is not None else list(RelationKind)
    rng = np.random.default_rng(config.seed)
    out: list[DominancePair] = []
    for kind in kinds:
        todo, used = config.count, 0  # used: the attempts spent on the first open slot
        while todo:
            batch = []  # (pair, generator state after its draws, attempts spent)
            while len(batch) < todo:
                if used == 100:
                    raise GenerationError(f"gave up generating a {kind.value} pair")
                used += 1
                try:
                    batch.append((_build_pair(rng, config, kind), rng.bit_generator.state, used))
                    used = 0
                except InputError:
                    continue
            reasons = _rejections([pair for pair, _, _ in batch])
            k = next((i for i, reason in enumerate(reasons) if reason), todo)
            out += [replace(pair, verified=True) for pair, _, _ in batch[:k]]
            todo -= k
            if todo:
                _, rng.bit_generator.state, used = batch[k]
    return out
