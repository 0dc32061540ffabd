"""Numerical checks of the bundle and measure axiom systems.

Four checker families, each consuming verified dominance pairs and returning
its reports by axiom name (``dict[str, AxiomReport]``), with explicit
violation witnesses:

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
  partial order (GM).

The pair set, not the pair, is the unit of work: an immutable tuple of
verified pairs (``_Pairs``) that carries one stack of knot arrays, row i
pair i's upper and row n + i its lower.  ``generate_pairs`` writes its
pairs' knots into that stack and returns the set; any other sequence of
pairs is stacked once (``_Pairs.of``).  Each ``check_impact_bundle`` axiom
reads its kind's rows at once (``_PairSet``), at ``_LEVELS`` (24) sampled
levels or ranks per pair: the members' level maps at the ranks in one
stacked pass, then both members' scores at every sampled level of every
pair in another, with the first flagged level per pair found by
``argmax``.  The last three take the single score as a
``BundleDef`` and a level theta; the bundle's ``positive_for`` and
``rank_of`` say where that score is provably positive and which rank it
reads up to.  Each scores every row at theta in stacked passes
(``_level_table``) and reads every pair's verdict from that table by row;
SM.3's premise on the running averages is exact, in one pass over the
pairs' merged knots (``_averages_ordered``).  Every pass reads rows of the
stack through the bundle's vector rules, built-in or custom alike, in
blocks of ``functions._BLOCK`` rows.  Every report is built by
``_run_axiom``.

Pairs are of piecewise linear functions only, the functions that the
generator and the fixtures build: a pair with any other member raises
``InputError`` naming its type, in ``verify_pair`` and in every checker.

The module also ships the two rejected alternative scores (``n_theta``,
``eta_theta``, and as bundles ``pseudo_bundle_n``, ``pseudo_bundle_eta``,
whose vector rules the stacked passes read as they read the built-in ones),
three exactly constructed counterexample fixtures that demonstrate which
axioms each score breaks, and a seeded pair generator of one fixed shape
(``generate_pairs`` takes only the seed and the count).  Its verification
(``verify_pair``, ``_rejections``) is exact, at the pairs' merged knots,
and verifies a whole batch in one stacked pass; a rejected attempt is
dropped, and the generator draws on.

Violations are only recorded when the gap clears the reporting slack, so
float ties never masquerade as axiom failures.  Every slack and tolerance
is a module constant, the same for every run and caller.  Pairs failing a
checked hypothesis are skipped and counted, never flagged: the axioms are
implications and an unmet premise proves nothing.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .bundles import E_BUNDLE, I_BUNDLE, BundleDef, _defined, _excess, _on_domain, _read
from .functions import (
    EQUALITY_TOL,
    CumulativeOrder,
    InputError,
    PiecewiseLinearFn,
    RankFunction,
    ThetaRange,
    _common_T,
    _cumulative_candidates,
    _cumulative_extrema,
    _cumulative_order,
    _extremes,
    _merged_gaps,
    _piecewise_linear,
    _PwlStack,
    _valid_knots,
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
# AX.2 to AX.4 sample this many levels (or ranks) per pair.
_LEVELS = 24


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


def _ends(kinds: list[RelationKind], prefix: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The end a of the range [0, a] that each pair's relation covers: T for
    GEQ_ALL and CUMULATIVE_PREC, whatever their prefix end, else the prefix
    end, which must lie in (0, T]."""
    whole = np.array([k in (RelationKind.GEQ_ALL, RelationKind.CUMULATIVE_PREC)
                      for k in kinds], dtype=bool)
    ok = whole | ((prefix > 0.0) & (prefix <= T))
    if not ok.all():
        i = int(np.argmin(ok))
        a = None if math.isnan(prefix[i]) else float(prefix[i])
        raise InputError(f"{kinds[i].value} pair needs prefix_end in (0, T], got {a!r}")
    return np.where(whole, T, prefix)


class _Pairs(tuple):
    """Verified pairs, an immutable tuple, with their rows as one stack.

    Row i of the ``_PwlStack`` ``fns`` is pair i's upper and row n + i its
    lower.  The set also holds each pair's relation (``kinds``), prefix
    end (``prefix``, NaN for none), domain end ``T`` and the end of the
    range its relation covers (``ends``, checked when the set is built).
    ``generate_pairs`` builds one on its own knot arrays, and ``of`` stacks
    any other sequence of pairs; a slice or a sum of sets is a plain tuple.
    """

    def __new__(cls, pairs: Iterable[DominancePair], fns: _PwlStack, T: np.ndarray) -> "_Pairs":
        ps = super().__new__(cls, pairs)
        kinds, n = [p.relation for p in ps], len(ps)
        prefix = np.array([p.prefix_end for p in ps], dtype=float)
        vars(ps).update(fns=fns, kinds=kinds, prefix=prefix, T=T, ends=_ends(kinds, prefix, T),
                        up=np.arange(n), lo=np.arange(n, 2 * n))
        return ps

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("_Pairs is immutable")

    def __reduce__(self):
        # copies and pickles rebuild the set on its stack
        return _Pairs, (tuple(self), self.fns, self.T)

    @classmethod
    def of(cls, pairs: Sequence[DominancePair]) -> "_Pairs":
        """The pairs as a set: a set as it is, any other sequence stacked
        (raises ``InputError`` on a member that is not piecewise linear)."""
        if isinstance(pairs, _Pairs):
            return pairs
        pairs = list(pairs)
        if not all(p.verified for p in pairs):
            raise InputError("axiom checks require verified pairs; run verify_pair first")
        fns = [p.upper for p in pairs] + [p.lower for p in pairs]
        _piecewise_linear(fns)
        T = np.array([_common_T(p.upper, p.lower) for p in pairs], dtype=float)
        return cls(pairs, _PwlStack.of(fns), T)

    def where(self, kind: RelationKind) -> np.ndarray:
        """The indices of the pairs of one relation kind."""
        return np.flatnonzero(np.array([k is kind for k in self.kinds], dtype=bool))

    def per_row(self, rule: Callable[[_PwlStack], object]) -> np.ndarray:
        """rule(stack) for every row, as an array, in one call."""
        return np.broadcast_to(rule(self.fns), self.fns.T.shape)

    def ranges(self, admissible: Callable[[_PwlStack], ThetaRange]) -> tuple[np.ndarray, ...]:
        """Each row's admissible range, as arrays of its ends."""
        return tuple(self.per_row(lambda f: getattr(admissible(f), end)) for end in ("lo", "hi"))

    @cached_property
    def members(self) -> np.ndarray:
        """The rows of the pairs' distinct functions, in order of first
        appearance (each pair's upper, then its lower)."""
        order = np.column_stack((self.up, self.lo)).ravel().tolist()
        keys, first = self.fns._keys(), {}
        for row in order:
            first.setdefault(keys[row], row)
        return np.array(list(first.values()), dtype=int)


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


def _rejections(fns: _PwlStack, kinds: list[RelationKind], ends: np.ndarray) -> list[str | None]:
    """``_reason`` for every pair of the rows fns (pair i's upper in row i,
    its lower in row n + i), each of relation kinds[i] on [0, ends[i]].

    The rows are decided exactly, in one stacked pass: the gap upper - lower
    is linear between the merged knots of the two, so >=, > and = hold on
    [0, a] exactly when they hold at the merged knots inside [0, a] and at a
    (``_merged_gaps``), and vertex analysis gives the cumulative order.
    """
    n = len(kinds)
    xs, gaps = _merged_gaps(fns, np.arange(n), np.arange(n, 2 * n), ends)
    extrema = (v.tolist() for v in _cumulative_extrema(xs, -gaps)[:2])
    orders = [_cumulative_order(dmin, dmax) if kind is RelationKind.CUMULATIVE_PREC else None
              for kind, dmin, dmax in zip(kinds, *extrema)]
    facts = zip(*(v.tolist() for v in _extremes(xs, gaps)))
    return [_reason(kind, order, *fact) for kind, order, fact in zip(kinds, orders, facts)]


def verify_pair(pair: DominancePair) -> DominancePair:
    """Re-check the declared relation, exactly (``_rejections``), and return
    a verified copy."""
    verified = replace(pair, verified=True)
    ps = _Pairs.of([verified])  # the rows of the copy, which only escapes if it holds
    reason = _rejections(ps.fns, ps.kinds, ps.ends)[0]
    if reason:
        raise VerificationError(reason)
    return verified


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


def _run_axiom(axiom: str, outcomes: Iterable[Violation | str | None],
               note: str = "") -> AxiomReport:
    """The report on one axiom's outcomes, one per pair or function: None
    when the item satisfies the axiom, a ``Violation`` when it breaks it, or
    a skip reason when the axiom does not apply.  The report's note counts
    every skip reason other than ``_SKIP``.
    """
    tested = 0
    violations: list[Violation] = []
    skips: Counter[str] = Counter()
    for outcome in outcomes:
        if isinstance(outcome, str):
            skips[outcome] += 1
            continue
        tested += 1
        if outcome is not None:
            violations.append(outcome)
    counted = [f"{reason}: {n}" for reason, n in skips.items() if reason != _SKIP]
    note = "; ".join(filter(None, [note, *counted]))
    return AxiomReport(axiom, tested, tuple(violations), sum(skips.values()), note)


# Verdicts on the scores (m_up, m_lo) of a pair's dominating and dominated
# member, floats or arrays over levels: whether they break the axiom, and
# the gap a violation reports.


def _below(m_up, m_lo, slack):
    gap = m_lo - m_up
    return gap > slack, gap


def _not_above(m_up, m_lo, slack):
    return m_up - m_lo <= slack, m_lo - m_up


def _unequal(m_up, m_lo, tol):
    gap = abs(m_up - m_lo)
    return gap > tol, gap


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
    """``np.linspace(lo[i], hi[i], n)`` as row i, to the same floats, in one
    pass."""
    delta = (hi - lo)[:, None]
    step = delta / max(n - 1, 1)
    k = np.arange(n, dtype=float)
    # numpy scales by the unrounded fraction where a step rounds to zero
    rows = np.where(step == 0.0, k / max(n - 1, 1) * delta, k * step) + lo[:, None]
    if n > 1:
        rows[:, -1] = hi
    return rows


class _PairSet:
    """One relation kind's pairs of a ``_Pairs``, read together for a
    bundle: their rows ``up`` and ``lo`` in the stack, the admissible ranges
    of all its rows, and n ranks per pair on (0, a], a the end of the range
    its relation covers (``_Pairs.ends``)."""

    def __init__(self, bundle: BundleDef, ps: _Pairs, ranges: tuple[np.ndarray, np.ndarray],
                 kind: RelationKind, n: int) -> None:
        idx = ps.where(kind)
        self.bundle, self.ps, self.ranges = bundle, ps, ranges
        self.idx, self.up, self.lo = idx.tolist(), ps.up[idx], ps.lo[idx]
        self.ranks = _linspaces(np.zeros(len(idx)), ps.ends[idx], n + 1)[:, 1:]

    def levels(self, pick=slice(None)) -> np.ndarray:
        """The picked pairs' level maps at their ranks (uppers', then
        lowers'), in one stacked pass."""
        ranks = self.ranks[pick]
        rows = np.repeat(np.concatenate((self.up[pick], self.lo[pick])), ranks.shape[1])
        flat = self.ps.fns._read(self.bundle.levels, rows, np.tile(ranks.ravel(), 2))
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
        m[:, rows, cols] = self.ps.fns._read(self.bundle.scores,
                                             np.concatenate((self.up[rows], self.lo[rows])),
                                             np.tile(levels[rows, cols], 2)).reshape(2, -1)
        found = _first_violations(self.idx, levels, m[0], m[1], verdict, tol, note)
        return [v if kept else _SKIP for v, kept in zip(found, keep.any(axis=1).tolist())]


def check_impact_bundle(bundle: BundleDef,
                        pairs: Sequence[DominancePair]) -> dict[str, AxiomReport]:
    """Run the four bundle axioms, routing pairs by their relation kind.

    Each axiom reads all its pairs at once (``_PairSet``).  Only the first
    violation per pair and axiom, at the lowest flagged level, is reported;
    pairs whose members fall outside the bundle's domain are skipped and
    counted.  The rank x = 0 is never sampled: the h-bundle level map
    diverges there and the cumulative bundle is identically zero at level
    0, where strictness is meaningless.
    """
    ps = _Pairs.of(pairs)
    n, ranges = _LEVELS, ps.ranges(bundle.admissible)
    geq, strict, local = (_PairSet(bundle, ps, ranges, kind, n) for kind in (
        RelationKind.GEQ_ALL, RelationKind.STRICT_ON_PREFIX, RelationKind.EQUAL_ON_PREFIX))

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
                             np.where(finite, ll, math.nan), _unequal, EQUALITY_ASSERT_TOL,
                             "level maps differ")
    scores = local.violations(ll, _unequal, EQUALITY_ASSERT_TOL, "scores differ")

    return {
        "AX.1": AxiomReport(
            "AX.1", 0, note="vacuous: the zero function is not a strictly decreasing rank function"
        ),
        "AX.2": _run_axiom("AX.2", geq.violations(levels, _below, MONOTONE_SLACK, "")),
        # AX.3: strict dominance on [0, a] forces strictly larger scores on
        # the level image of the prefix.
        "AX.3": _run_axiom("AX.3", strict.violations(strict.levels(), _not_above, STRICT_SLACK,
                                                     "not strictly larger")),
        # AX.4 tests a pair even when no level is left to score
        "AX.4": _run_axiom("AX.4", [m or (None if v is _SKIP else v)
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


def _level_table(bundle: BundleDef, theta: float,
                 ps: _Pairs) -> tuple[np.ndarray, np.ndarray | None]:
    """Every row's score at theta and, for a bundle with ``rank_of``, the
    rank up to which the score reads it, each in one stacked pass over the
    rows of the set.  A row gets NaN unless it admits theta (a density
    level within the range's slack, as the density scores snap it onto the
    range, one that fixes a rank exactly) and its score is defined there."""
    lo, hi = ps.ranges(bundle.admissible)
    slack = EQUALITY_TOL if bundle.rank_of is None else 0.0
    rows = np.flatnonzero(math.isfinite(theta) & (theta >= lo - slack) & (theta <= hi + slack))
    thetas = np.full(len(rows), float(theta))

    def table(rule) -> np.ndarray:
        out = np.full(len(lo), math.nan)
        out[rows] = ps.fns._read(rule, rows, thetas)
        return out
    scores = table(bundle.scores)
    if bundle.rank_of is None:
        return scores, None
    if bundle.rank_of is bundle.scores:  # h reads up to its own root
        return scores, scores
    return scores, table(bundle.rank_of)


def _pair_report(axiom: str, ps: _Pairs, idx: np.ndarray, theta: float, scores: np.ndarray,
                 verdict, tol: float, note: str = "", skips: list | None = None) -> AxiomReport:
    """A single-level axiom's report on the pairs of idx.  A pair's outcome
    is ``_SKIP`` when a member has no score at theta, else its skip reason
    in skips, if any, else the verdict on its members' scores in the table."""
    m_up, m_lo = scores[ps.up[idx], None], scores[ps.lo[idx], None]
    found = _first_violations(idx.tolist(), np.full(m_up.shape, float(theta)), m_up, m_lo,
                              verdict, tol, note)
    missing = (np.isnan(m_up) | np.isnan(m_lo))[:, 0].tolist()
    skips = [None] * len(idx) if skips is None else skips
    return _run_axiom(axiom, [_SKIP if miss else skip or v
                              for miss, skip, v in zip(missing, skips, found)])


def _reads_past(ranks: np.ndarray | None, rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Whether the score reads each row beyond its rank a (never, for a
    density level)."""
    if ranks is None:
        return np.zeros(len(rows), dtype=bool)
    return ranks[rows] > a + EQUALITY_ASSERT_TOL


def _positivity_report(
    axiom: str, bundle: BundleDef, theta: float, ps: _Pairs, scores: np.ndarray
) -> AxiomReport:
    """IM.1 or SM.1 on the distinct members; a violation names the first
    pair that holds the member: row r is pair r's upper, row n + r its lower."""
    rows, n = ps.members, len(ps)
    positive = ps.per_row(lambda f: bundle.positive_for(f, theta))[rows].tolist()
    outcomes = [_SKIP if math.isnan(v) or not pos
                else Violation(r % n, float(theta), v, 0.0, -v,
                               note=f"score not positive ({'upper' if r < n else 'lower'})")
                if v <= STRICT_SLACK else None
                for r, v, pos in zip(rows.tolist(), scores[rows].tolist(), positive)]
    return _run_axiom(axiom, outcomes,
                      note="zero-function clause vacuous: rank functions are strictly decreasing")


def check_impact_measure(bundle: BundleDef, theta: float,
                         pairs: Sequence[DominancePair]) -> dict[str, AxiomReport]:
    """Three-axiom check for the single score of a bundle at the level theta.

    IM.1 positivity (the zero-function clause is vacuous on this function
    space), IM.2 monotone under pointwise >= (equal inputs score equally by
    construction: a score is a rule on f), IM.3 strict growth under strict
    prefix dominance, with the generated prefix endpoint playing the
    per-function threshold.
    """
    ps = _Pairs.of(pairs)
    scores, ranks = _level_table(bundle, theta, ps)
    geq, strict = ps.where(RelationKind.GEQ_ALL), ps.where(RelationKind.STRICT_ON_PREFIX)
    # a score that reads up to a rank (mu, i, h) is only constrained when the
    # strict prefix covers everything it reads
    past = [_SKIP if p else None for p in _reads_past(ranks, ps.lo[strict], ps.prefix[strict])]
    return {
        "IM.1": _positivity_report("IM.1", bundle, theta, ps, scores),
        "IM.2": _pair_report("IM.2", ps, geq, theta, scores, _below, MONOTONE_SLACK),
        "IM.3": _pair_report("IM.3", ps, strict, theta, scores, _not_above, STRICT_SLACK,
                             _NOT_STRICT, past),
    }


def _averages_ordered(ps: _Pairs, idx: np.ndarray) -> np.ndarray:
    """Whether each pair of idx has the running average of its upper above
    its lower's on all of [0, T): at x -> 0, where Z_up(0) > Z_lo(0) decides,
    and wherever x > 0, where d = I_up - I_lo > 0 decides.

    It is decided exactly, in one pass over the pairs' merged knots: d's
    least value among the candidates of ``_cumulative_candidates`` with
    x > 0.  These include T, where d is largest for a pair with upper >=
    lower.
    """
    up, lo = ps.up[idx], ps.lo[idx]
    z0 = ps.fns.value_at_origin()
    d, x, real = _cumulative_candidates(*_merged_gaps(ps.fns, up, lo, ps.T[idx]))
    return (z0[up] > z0[lo]) & (np.where(real & (x > 0.0), d, math.inf).min(axis=1) > 0.0)


def check_strong_impact(bundle: BundleDef, theta: float,
                        pairs: Sequence[DominancePair]) -> dict[str, AxiomReport]:
    """Four-axiom strong-impact check for the score of a bundle at theta.

    SM.1 is the same positivity check as ``check_impact_measure``'s IM.1.
    SM.3 is hypothesis-filtered: a pair enters only if its running averages
    are strictly ordered on [0, T) (``_averages_ordered``, exact), and
    pairs whose lower member is read up to the domain end at theta (a
    density level equal to Z(T), or a rank equal to T) are excluded and
    flagged (the strictness claim does not cover that boundary).  SM.4
    realizes the per-function threshold as the rank the score reads up to,
    or for a density level its inverse rank, so it applies to prefix-equal
    pairs whose prefix reaches that rank.
    """
    ps = _Pairs.of(pairs)
    scores, ranks = _level_table(bundle, theta, ps)
    geq, local = ps.where(RelationKind.GEQ_ALL), ps.where(RelationKind.EQUAL_ON_PREFIX)

    lower = ps.lo[geq]
    if ranks is None:
        z_T = ps.per_row(lambda f: f.admissible_range().lo)[lower]
        at_boundary = np.abs(theta - z_T) <= _BOUNDARY_TOL
    else:
        T = ps.per_row(lambda f: f.T)[lower]
        at_boundary = ranks[lower] >= T - _BOUNDARY_TOL * np.maximum(1.0, T)
    unclaimed = [_BOUNDARY if edge else None if ordered else _SKIP for edge, ordered in
                 zip(at_boundary.tolist(), _averages_ordered(ps, geq).tolist())]

    # the equal prefix must cover everything the score reads
    lower, a = ps.lo[local], ps.prefix[local]
    if ranks is None:
        at_a = ps.fns._read(lambda f, x: f.values(x), lower, a)
        covered = theta >= at_a - EQUALITY_ASSERT_TOL
    else:
        covered = ~_reads_past(ranks, lower, a)
    uncovered = [None if c else _SKIP for c in covered.tolist()]

    return {
        "SM.1": _positivity_report("SM.1", bundle, theta, ps, scores),
        "SM.2": _pair_report("SM.2", ps, geq, theta, scores, _below, MONOTONE_SLACK),
        "SM.3": _pair_report("SM.3", ps, geq, theta, scores, _not_above, STRICT_SLACK,
                             _NOT_STRICT, unclaimed),
        "SM.4": _pair_report("SM.4", ps, local, theta, scores, _unequal, EQUALITY_ASSERT_TOL,
                             skips=uncovered),
    }


def check_global_impact(bundle: BundleDef, theta: float,
                        pairs: Sequence[DominancePair]) -> dict[str, AxiomReport]:
    """Strict growth under the cumulative-integral partial order, GM.

    Expected to fail for the excess-area score: ``fixture_global`` produces
    a pair with lower strictly preceding upper yet equal scores, and the
    report records that equality witness honestly.
    """
    ps = _Pairs.of(pairs)
    scores, _ = _level_table(bundle, theta, ps)
    return {"GM": _pair_report("GM", ps, ps.where(RelationKind.CUMULATIVE_PREC), theta, scores,
                               _not_above, STRICT_SLACK, _NOT_STRICT)}


# ---------------------------------------------------------------------------
# Counterexample fixtures (exact knot constructions)


@dataclass(frozen=True)
class Fixture:
    pair: DominancePair
    theta: float


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
    return Fixture(pair, 1.0)


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
    return Fixture(pair, 1.0)


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
    return Fixture(pair, 0.5)


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


# The generator's fixed shape (``generate_pairs``): knots and shift bound.
_KNOT_RANGE = (3, 8)
_SHIFT_SCALE = 0.4


def _build_pair(rng: np.random.Generator, kind: RelationKind) -> tuple:
    """One attempt's draws, in the generator's order: the lower member's
    knot count and ranks, then uniforms u in [0, 1) for its tail, its drops
    from knot to knot and their total, then the kind's three draws.  A u is
    the draw behind ``rng.uniform(lo, hi)``, which is lo + (hi - lo) * u, and
    ``_pair_knots`` scales it so.  Ranks and drops are padded to the width
    of the batch."""
    width = _KNOT_RANGE[1] + 1
    k = int(rng.integers(_KNOT_RANGE[0], width))
    for _ in range(100):
        # rng.uniform(0, 1) draws u
        xs = [0.0, *sorted(rng.random(k - 2).tolist()), 1.0]
        if min(map(operator.sub, xs[1:], xs)) > 1e-6:
            break
    else:
        raise GenerationError("could not draw well-separated knot ranks")
    pad = width - k
    head = (k, xs + [1.0] * pad, rng.random(), rng.random(k - 1).tolist() + [0.0] * pad, rng.random())
    if kind is RelationKind.GEQ_ALL or kind is RelationKind.CUMULATIVE_PREC:
        return (*head, rng.random(), rng.random(), 0.0)  # shift, taper
    if kind is RelationKind.STRICT_ON_PREFIX:
        return (*head, rng.random(), rng.random(), rng.random())  # prefix end, wedge end, height
    if kind is RelationKind.EQUAL_ON_PREFIX:
        # bias toward deep prefixes so level-threshold checks get coverage
        split = k - 2 if rng.random() < 0.5 else int(rng.integers(1, k - 1))
        return (*head, split, rng.random(), 0.0)  # split knot, shrink
    raise InputError(f"unknown relation {kind!r}")  # pragma: no cover


def _uniform(lo, hi, u: np.ndarray) -> np.ndarray:
    """What ``rng.uniform(lo, hi)`` returns for the draw u of ``rng.random``:
    numpy rounds (hi - lo) * u before adding lo, as here (the pinned
    digests in the tests check every draw)."""
    return lo + (hi - lo) * u


def _pair_knots(kind: RelationKind, draws: list[tuple]) -> tuple:
    """A batch of attempts' pairs, from their draws (``_build_pair``), in one
    vector pass: the uppers' and the lowers' padded knot arrays and knot
    counts, and the prefix ends (NaN for none).

    A lower z has the knots (x_i, tail + the drops right of x_i).  Its upper
    is z plus a shift c, constant or decaying linearly to c/2 at 1
    (``GEQ_ALL``, ``CUMULATIVE_PREC``); z plus the wedge g max(0, 1 - x/b),
    with a knot added at b, strictly above z on [0, a] (``STRICT_ON_PREFIX``);
    or z with its drop right of the split knot shrunk by lam, equal to z up
    to that knot (``EQUAL_ON_PREFIX``).
    """
    size, x, tail, drops, total, p, q, r = (np.array(v) for v in zip(*draws))
    tail, total, p, q, r = (v[:, None] for v in (tail, total, p, q, r))
    cols = np.arange(x.shape[1])
    drops = np.where(cols[:-1] < size[:, None] - 1, _uniform(0.3, 1.0, drops), 0.0)
    # each row's drops scaled to its total: numpy sums a row of one length as
    # it sums that row alone
    sums = np.empty_like(total)
    for k in np.unique(size).tolist():
        sums[size == k] = drops[size == k, : k - 1].sum(axis=1, keepdims=True)
    drops *= _uniform(3.0, 10.0, total) / sums
    # the drops right of each knot, summed from 1 leftwards; the padding adds 0
    right = np.cumsum(drops[:, ::-1], axis=1)[:, ::-1]
    y = _uniform(0.0, 0.4, tail) + np.hstack((right, np.zeros_like(tail)))
    prefix, x_up, size_up = np.full(len(size), math.nan), x, size
    if kind is RelationKind.GEQ_ALL or kind is RelationKind.CUMULATIVE_PREC:
        c = _uniform(0.05, _SHIFT_SCALE, p)
        y_up = y + np.where(q < 0.5, c * (1.0 - 0.5 * x), c)
    elif kind is RelationKind.STRICT_ON_PREFIX:
        a = _uniform(0.25, 0.75, p)
        b, g = _uniform(a + 0.05, 1.0, q), _uniform(0.05, _SHIFT_SCALE, r)
        m = (x < b).sum(axis=1, keepdims=True)  # knots left of b; z(b) interpolates m-1 to m
        new = np.take_along_axis(x, m, 1) != b
        x0, x1, y0, y1 = (np.take_along_axis(v, m + s, 1) for v in (x, y) for s in (-1, 0))
        x_up, y_up = (np.take_along_axis(v, cols - ((cols > m) & new), 1) for v in (x, y))
        at_b = (cols == m) & new
        x_up = np.where(at_b, b, x_up)
        y_up = np.where(at_b, y0 + (b - x0) / (x1 - x0) * (y1 - y0), y_up)
        y_up = y_up + g * np.maximum(0.0, 1.0 - x_up / b)
        prefix, size_up = a[:, 0], size + new[:, 0]
    else:
        split, lam = p.astype(int), _uniform(0.2, 0.8, q)
        za = np.take_along_axis(y, split, 1)
        y_up = np.where(cols > split, za + lam * (y - za), y)
        prefix = np.take_along_axis(x, split, 1)[:, 0]
    return (x_up, y_up, size_up), (x, y, size), prefix


def generate_pairs(seed: int = 0, count: int = 20,
                   relation: RelationKind | None = None) -> tuple[DominancePair, ...]:
    """Generate ``count`` (>= 1) verified pairs per requested relation kind.

    The pairs are all of one shape: a lower member has 3 to 8 knots on
    [0, 1], a tail below 0.4 and drops that total 3 to 10; its upper adds
    0.05 to 0.4.  Shifts stay below 0.4, under 1 - (largest tail value), so
    level 1 stays admissible for both members, which the measure suites
    rely on; a setting for them could quietly break that.

    Deterministic for a fixed seed and count: the same seed reproduces the
    same pairs.  Each attempt draws its numbers (``_build_pair``) in one stream,
    in order; a batch of attempts, one per open slot, becomes knot arrays in
    one vector pass (``_pair_knots``), and the batch is validated and
    verified together, exactly, in one stacked pass (``_rejections``).  A
    rejected attempt is dropped and the next batch fills the slots left, up
    to 100 attempts per slot.  So the pairs are those that building and
    verifying one pair at a time would give.  The pairs come back as an
    immutable tuple (a ``_Pairs``) that holds their one stack of knot
    arrays, which the checkers read as it is; each member is a read-only
    view of its row.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    rng, batches = np.random.default_rng(seed), []
    for kind in [relation] if relation is not None else list(RelationKind):
        todo, failed = count, 0  # failed: attempts dropped in a row
        while todo:
            up, lo, prefix = _pair_knots(kind, [_build_pair(rng, kind) for _ in range(todo)])
            ok = _valid_knots(*up) & _valid_knots(*lo)
            kinds = [kind] * int(ok.sum())
            stack = _PwlStack(*(np.concatenate((u[ok], v[ok])) for u, v in zip(up, lo)))
            ends = _ends(kinds, prefix[ok], np.ones(len(kinds)))
            ok[ok] = [r is None for r in _rejections(stack, kinds, ends)]
            for good in ok.tolist():
                failed = 0 if good else failed + 1
                if failed == 100:
                    raise GenerationError(f"gave up generating a {kind.value} pair")
            batches.append((kind, [v[ok] for v in (*up, *lo)], prefix[ok]))
            todo -= int(ok.sum())
    kinds = [kind for kind, _, prefix in batches for _ in prefix]
    knots = [np.concatenate(v) for v in zip(*(k for _, k, _ in batches))]
    xs, ys, size = (np.concatenate((knots[i], knots[i + 3])) for i in range(3))
    xs.flags.writeable = ys.flags.writeable = False
    fns = [PiecewiseLinearFn._view(x[:k], y[:k]) for x, y, k in zip(xs, ys, size.tolist())]
    prefix, n = np.concatenate([prefix for *_, prefix in batches]).tolist(), len(kinds)
    pairs = (DominancePair(up, lo, kind, None if math.isnan(a) else a, verified=True)
             for up, lo, kind, a in zip(fns[:n], fns[n:], kinds, prefix))
    return _Pairs(pairs, _PwlStack(xs, ys, size), np.ones(n))
