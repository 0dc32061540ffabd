"""Numerical checks of the bundle and measure axiom systems.

Four checker families, each verifying the dominance pairs it is given and
returning its reports by axiom name (``dict[str, AxiomReport]``), with
explicit violation witnesses:

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

The pair set, not the pair, is the unit of work: an immutable sequence of
verified pairs (``_Pairs``) that carries one stack of knot arrays, row i
pair i's upper and row n + i its lower.  ``generate_pairs`` writes its
pairs' knots into that stack, verifies them and returns the set, with no
pair object in it: a pair, its members read-only views of its rows, is
built the first time something reads it.  Any other sequence of pairs is
stacked and verified once (``_Pairs.of``), and a pair whose relation fails
raises ``VerificationError`` naming it: the checkers decide each premise as
they decide each conclusion.
``check_impact_bundle`` reads the rows of its three relation kinds
together, at ``_LEVELS`` (24) sampled levels or ranks per pair: the
members' level maps at the ends of their domains and at the ranks in two
stacked passes, then both members' scores at every sampled level of every
pair in another, with the first flagged level per pair found by ``argmax``
and each kind judged by its own verdict.  The last three take the single
score as a ``BundleDef`` and a level theta; the bundle's ``positive_for``
and ``rank_of`` say where that score is provably positive and which rank
it reads up to.  Each reads
every pair's verdict by row from one table of every row's score at theta
(``_level_table``), which a set builds once per bundle and level, as it
does IM.1's report, which SM.1 renames (``_Pairs.at_level``);
SM.3's premise on the running averages is exact, in one pass over the
pairs' merged knots (``_averages_ordered``).  Every pass reads rows of the
stack through the bundle's vector rules, built-in or custom alike, in
blocks of ``functions._BLOCK`` rows.  A score is defined where its rule
gives a number, as in ``bundles.sweep``: no checker filters rows or levels
by a range, and AX.2 samples the span of the members' level maps, their
levels at the ranks 0 and T.  Every report is built by one driver,
``_run_axiom``, from its checker's outcomes as arrays (why each item goes
untested, its levels and its members' scores there): it counts them with
numpy and builds a ``Violation`` only for a flagged item.

Pairs are of piecewise linear functions only, the functions that the
generator and the fixtures build: a pair with any other member raises
``InputError`` naming its type, in ``verify_pair`` and in every checker.

The module also ships the two rejected alternative scores (``n_theta``,
``eta_theta``, and as bundles ``pseudo_bundle_n``, ``pseudo_bundle_eta``,
whose vector rules the stacked passes read as they read the built-in ones),
three exactly constructed counterexample fixtures that demonstrate which
axioms each score breaks, and a seeded pair generator of one fixed shape
(``generate_pairs`` takes only the seed and the count).  A round of it
works on arrays: it draws every open slot of all four kinds in three
``rng`` calls (``_draws``), builds their knots in one pass
(``_pair_knots``) and verifies them, exactly, at the pairs' merged knots,
in one stacked pass (``_rejections``, as ``verify_pair`` does); a
rejected slot is drawn again in the next round.

Violations are only recorded when the gap clears the reporting slack, so
float ties never masquerade as axiom failures.  Every slack and tolerance
is a module constant, the same for every run and caller.  Pairs failing a
checked hypothesis are skipped and counted, never flagged: the axioms are
implications and an unmet premise proves nothing.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .bundles import E_BUNDLE, I_BUNDLE, BundleDef, _defined, _excess, _read
from .functions import (
    EQUALITY_TOL,
    CumulativeOrder,
    InputError,
    PiecewiseLinearFn,
    RankFunction,
    _common_T,
    _cumulative_candidates,
    _cumulative_extrema,
    _cumulative_order,
    _extremes,
    _merged_gaps,
    _on_domain,
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
    """A pair fails its declared relation; the message names its index in a set."""

    def __init__(self, reason: str, index: int | None = None) -> None:
        super().__init__(reason if index is None else f"pair {index}: {reason}")
        self.reason = reason


class RelationKind(Enum):
    GEQ_ALL = "geq_all"
    STRICT_ON_PREFIX = "strict_on_prefix"
    EQUAL_ON_PREFIX = "equal_on_prefix"
    CUMULATIVE_PREC = "cumulative_prec"


@dataclass(frozen=True)
class DominancePair:
    """Two rank functions with a declared ordering relation.

    ``upper`` dominates ``lower`` in the sense of ``relation``; for the
    prefix relations ``prefix_end`` is the endpoint a of [0, a].  The pair
    only declares the relation: ``verify_pair`` and every axiom checker
    decide it exactly, and raise ``VerificationError`` where it fails.
    """

    upper: RankFunction
    lower: RankFunction
    relation: RelationKind
    prefix_end: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.relation, RelationKind):
            raise InputError(f"relation must be a RelationKind, got {self.relation!r}")


# The relation kinds in enum order: a set holds each pair's as its index here.
_KINDS = tuple(RelationKind)
# Whether each kind covers [0, T] whatever the pair's prefix end.
_WHOLE = np.array([k in (RelationKind.GEQ_ALL, RelationKind.CUMULATIVE_PREC) for k in _KINDS])


def _ends(kinds: np.ndarray, prefix: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The end a of the range [0, a] that each pair's relation covers: T for
    GEQ_ALL and CUMULATIVE_PREC, whatever their prefix end, else the prefix
    end, which must lie in (0, T].  kinds holds indices into ``_KINDS``."""
    whole = _WHOLE[kinds]
    ok = whole | ((prefix > 0.0) & (prefix <= T))
    if not ok.all():
        i = int(np.argmin(ok))
        a = None if math.isnan(prefix[i]) else float(prefix[i])
        raise InputError(f"{_KINDS[kinds[i]].value} pair needs prefix_end in (0, T], got {a!r}")
    return np.where(whole, T, prefix)


class _Pairs(Sequence):
    """Verified pairs, an immutable sequence, with their rows as one stack.

    Row i of the ``_PwlStack`` ``fns`` is pair i's upper and row n + i its
    lower.  The set also holds each pair's relation (``kinds``, its index in
    ``_KINDS``), prefix end (``prefix``, NaN for none), domain end ``T`` and
    the end of the range its relation covers (``ends``, checked when the set
    is built).  ``of`` stacks and verifies any other sequence of pairs and
    keeps them; ``generate_pairs`` builds a set on its own knot arrays with
    no pair in it (pairs None), and a pair of such a set is built from its
    rows (``_build_pair``) the first time it is read, then kept.  A slice
    is a plain tuple (so is ``tuple(a) + tuple(b)``, which joins two sets),
    and a set equals the tuple of its pairs.
    What the checkers read of the set at a bundle and level is built once
    per set (``at_level``).
    """

    def __init__(self, pairs: Iterable[DominancePair | None] | None, fns: _PwlStack,
                 T: np.ndarray, kinds: np.ndarray, prefix: np.ndarray) -> None:
        n = len(kinds)
        vars(self).update(_pairs=[None] * n if pairs is None else list(pairs), fns=fns,
                          kinds=kinds, prefix=prefix, T=T, ends=_ends(kinds, prefix, T),
                          up=np.arange(n), lo=np.arange(n, 2 * n), _memo={})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("_Pairs is immutable")

    def __reduce__(self):
        # copies and pickles rebuild the set on its stack, with the pairs built so far
        return _Pairs, (self._pairs, self.fns, self.T, self.kinds, self.prefix)

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        pair = self._pairs[i]
        if pair is None:
            pair = self._pairs[i] = _build_pair(self, i % len(self))
        return pair

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _Pairs)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    @classmethod
    def of(cls, pairs: Sequence[DominancePair]) -> "_Pairs":
        """The pairs as a set: a set as it is, any other sequence stacked and
        verified in one pass (``_rejections``).  Raises ``InputError`` on a
        member that is not piecewise linear, then ``VerificationError``
        naming the first pair whose relation fails."""
        if isinstance(pairs, _Pairs):
            return pairs
        pairs = list(pairs)
        fns = [p.upper for p in pairs] + [p.lower for p in pairs]
        _piecewise_linear(fns)
        T = np.array([_common_T(p.upper, p.lower) for p in pairs], dtype=float)
        kinds = np.array([_KINDS.index(p.relation) for p in pairs], dtype=int)
        ps = cls(pairs, _PwlStack.of(fns), T, kinds,
                 np.array([p.prefix_end for p in pairs], dtype=float))
        for i, reason in enumerate(_rejections(ps.fns, ps.kinds, ps.ends)):
            if reason:
                raise VerificationError(reason, i)
        return ps

    def where(self, kind: RelationKind) -> np.ndarray:
        """The indices of the pairs of one relation kind."""
        return np.flatnonzero(self.kinds == _KINDS.index(kind))

    def at_level(self, build: Callable, bundle: BundleDef, theta: float) -> object:
        """build(bundle, theta, self), built on the first call with the
        bundle and the level (keyed by its bits, so -0.0 is not 0.0) and
        kept with the set: copies, pickles and sets stacked again build
        their own."""
        key = build, id(bundle), float(theta).hex()
        if key not in self._memo:
            # the entry holds the bundle, so no other bundle can take its id
            self._memo[key] = bundle, build(bundle, theta, self)
        return self._memo[key][1]

    @cached_property
    def members(self) -> np.ndarray:
        """The rows of the pairs' distinct functions, in order of first
        appearance (each pair's upper, then its lower), in one sort of the
        rows' knots."""
        order = np.column_stack((self.up, self.lo)).ravel()
        return order[np.sort(np.unique(self.fns._keys()[order], return_index=True)[1])]


def _build_pair(ps: _Pairs, i: int) -> DominancePair:
    """Pair i of a set, built on its rows: its members are read-only views of
    the stack's knot arrays, which the generator has already checked.
    ``perfbench/tracer.py`` looks this name up and counts its calls."""
    upper, lower = (ps.fns._row(r) for r in (i, len(ps) + i))
    a = float(ps.prefix[i])
    return DominancePair(upper, lower, _KINDS[ps.kinds[i]], None if math.isnan(a) else a)


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


def _rejections(fns: _PwlStack, kinds: np.ndarray, ends: np.ndarray) -> list[str | None]:
    """``_reason`` for every pair of the rows fns (pair i's upper in row i,
    its lower in row n + i), each of relation ``_KINDS[kinds[i]]`` on
    [0, ends[i]].

    The rows are decided exactly, in one stacked pass: the gap upper - lower
    is linear between the merged knots of the two, so >=, > and = hold on
    [0, a] exactly when they hold at the merged knots inside [0, a] and at a
    (``_merged_gaps``), and vertex analysis gives the cumulative order of
    the CUMULATIVE_PREC pairs.
    """
    n = len(kinds)
    xs, gaps = _merged_gaps(fns, np.arange(n), np.arange(n, 2 * n), ends)
    cum = kinds == _KINDS.index(RelationKind.CUMULATIVE_PREC)
    # the vertex pass reads the CUMULATIVE_PREC rows only, and runs only if there is one
    orders = iter([_cumulative_order(dmin, dmax) for dmin, dmax in zip(*(
        v.tolist() for v in _cumulative_extrema(xs[cum], -gaps[cum])[:2]))] if cum.any() else ())
    facts = zip(*(v.tolist() for v in _extremes(xs, gaps)))
    return [_reason(_KINDS[k], next(orders) if c else None, *fact)
            for k, c, fact in zip(kinds.tolist(), cum.tolist(), facts)]


def verify_pair(pair: DominancePair) -> DominancePair:
    """Check the declared relation, exactly, as a set of one pair
    (``_Pairs.of``), and return the pair."""
    try:
        return _Pairs.of([pair])[0]
    except VerificationError as exc:
        raise VerificationError(exc.reason) from None


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
        return {"pair" if f.name == "pair_index" else f.name: getattr(self, f.name)
                for f in fields(self)}


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


# Why an item goes untested, a code into ``_UNTESTED`` (0: it is tested).
# ``_SKIP``: the axiom's premise fails there, or the score is not defined.
# ``_BOUNDARY``: strong impact claims no strictness at the level where the
# score reads up to the end of the domain; a report's note counts these.
_SKIP, _BOUNDARY = 1, 2
_UNTESTED = (None, None, "boundary-level pairs excluded")


def _run_axiom(axiom: str, idx: np.ndarray, untested: np.ndarray, ts, m_up, m_lo, verdict,
               tol: float, note="", remark: str = "") -> AxiomReport:
    """The report on one axiom's outcomes, arrays with a row per item (a
    pair or a function) that broadcast to two axes: the pair each names, why
    it goes untested (0: it is tested), and its levels (or ranks) ts, its
    members' scores there and the violation notes, a column per level.  A
    ``Violation`` is built only for a tested item whose verdict flags a
    level (a NaN score never does), at its first, in item order.  The note
    is the remark, then the count of each reason that ``_UNTESTED`` names,
    in order of first appearance."""
    flagged, gap = verdict(m_up, m_lo, tol)
    rows = (flagged.any(axis=1) & (untested == 0)).nonzero()[0]
    # the flagged rows' cells at their first flagged levels, one read per
    # cell: a scalar repeated, an array broadcast to the rows' shape unless
    # it has that shape already
    at, shape = (rows, flagged[rows].argmax(axis=1)), flagged.shape
    cells = ([v] * len(rows) if type(v) is not np.ndarray
             else (v if v.shape == shape else np.broadcast_to(v, shape))[at].tolist()
             for v in (ts, m_up, m_lo, gap, note))
    violations = tuple(map(Violation, idx[rows].tolist(), *cells)) if len(rows) else ()
    counts = np.bincount(untested, minlength=len(_UNTESTED)).tolist()
    named = sorted((c for c, reason in enumerate(_UNTESTED) if reason and counts[c]),
                   key=lambda c: np.argmax(untested == c))
    remark = "; ".join(filter(None, [remark, *(f"{_UNTESTED[c]}: {counts[c]}" for c in named)]))
    return AxiomReport(axiom, counts[0], violations, len(untested) - counts[0], remark)


# Verdicts on the scores (m_up, m_lo) of a pair's dominating and dominated
# member, arrays over items and levels: whether they break the axiom, and
# the gap a violation reports.


def _below(m_up, m_lo, slack):
    gap = m_lo - m_up
    return gap > slack, gap


def _not_above(m_up, m_lo, slack):
    return m_up - m_lo <= slack, m_lo - m_up


def _unequal(m_up, m_lo, tol):
    gap = abs(m_up - m_lo)
    return gap > tol, gap


def _not_positive(m, zero, slack):
    """The verdict on a single score m, read against zero."""
    return m <= slack, -m


# The note of a single-level strictness violation.
_NOT_STRICT = "not strict"
# The notes of a positivity violation, on an upper and on a lower member.
_NOT_POSITIVE = np.array(["score not positive (upper)", "score not positive (lower)"])


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


def _candidates(bundle: BundleDef, ps: _Pairs, geq: np.ndarray, strict: np.ndarray,
                local: np.ndarray) -> tuple[np.ndarray, ...]:
    """The candidate levels of AX.2, AX.3 and AX.4, a row for each pair of
    geq, strict and local in turn, padded with NaN to one width, then the
    ranks of the local pairs and their members' level maps there (NaN where
    either is undefined or infinite), all from two stacked passes of level
    maps, at the ends of the AX.2 pairs' domains and at the sampled ranks."""
    n = _LEVELS
    # AX.2: upper >= lower pointwise implies scores ordered the same way, at
    # n levels across the joint span of the pair's level maps or, where an
    # end of it is infinite or undefined (h at rank 0), at the images of
    # (0, T] under both maps.  A level map is monotone, so its levels at the
    # ranks 0 and T bound its span: one read of both members at both ends.
    members = np.concatenate((ps.up[geq], ps.lo[geq]))
    ends = ps.fns._read(bundle.levels, np.tile(members, 2),
                        np.concatenate((np.zeros(len(members)), ps.fns.T[members])))
    ends = ends.reshape(2, 2, len(geq))
    # the spans' ends, then the pair's joint ones (NaN where either is undefined)
    lo_t, hi_t = ends.min(axis=0).max(axis=0), ends.max(axis=0).min(axis=0)
    bounded = np.isfinite(lo_t) & np.isfinite(hi_t)
    # the level maps at n ranks on (0, a], a the end of the range the pair's
    # relation covers, a row per pair (its upper's, then its lower's): of
    # the unbounded AX.2 pairs, then every AX.3 and AX.4 pair
    mapped = np.concatenate((geq[~bounded], strict, local))
    ranks = _linspaces(np.zeros(len(mapped)), ps.ends[mapped], n + 1)[:, 1:]
    rows = np.repeat(np.concatenate((ps.up[mapped], ps.lo[mapped])), n)
    maps = np.hstack(ps.fns._read(bundle.levels, rows, np.tile(ranks.ravel(), 2))
                     .reshape(2, *ranks.shape))
    cut = len(mapped) - len(local)
    levels = np.full((len(geq), 2 * n), math.nan)
    levels[bounded, :n] = _linspaces(lo_t[bounded], hi_t[bounded], n)
    levels[~bounded] = maps[: cut - len(strict)]
    levels[lo_t > hi_t] = math.nan

    # AX.4: equal prefixes force equal level maps (an undefined or infinite
    # level is not compared), then equal scores at the lower's levels.
    lu, ll = np.hsplit(maps[cut:], 2)
    finite = np.isfinite(lu) & np.isfinite(ll)
    return (np.vstack((levels, maps[cut - len(strict) : cut],
                       np.hstack((ll, np.full(ll.shape, math.nan))))),
            ranks[cut:], np.where(finite, lu, math.nan), np.where(finite, ll, math.nan))


def _candidate_scores(bundle: BundleDef, ps: _Pairs, idx: np.ndarray,
                      levels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per pair of idx and row of candidate levels (NaN for none), which it
    sorts in place: its distinct candidates, sorted, its members' scores at
    the finite ones (NaN at the others), and whether both members score at
    any, all scored in one stacked pass."""
    levels.sort(axis=1)
    keep = np.isfinite(levels)
    keep[:, 1:] &= levels[:, 1:] != levels[:, :-1]
    # the kept cells' pairs, then their members' rows: one name, so that
    # the read holds one index array
    rows = idx[np.flatnonzero(keep) // levels.shape[1]]
    rows = np.concatenate((ps.up[rows], ps.lo[rows]))
    scores = ps.fns._read(bundle.scores, rows, np.tile(levels[keep], 2))
    m = np.full((2, *levels.shape), math.nan)
    m[:, keep] = scores.reshape(2, -1)
    return levels, m[0], m[1], (~np.isnan(m)).all(axis=0).any(axis=1)


def check_impact_bundle(bundle: BundleDef,
                        pairs: Sequence[DominancePair]) -> dict[str, AxiomReport]:
    """Run the four bundle axioms, routing pairs by their relation kind.

    The three kinds read their members' level maps in two stacked passes
    (``_candidates``) and their scores at the candidate levels in one more,
    each kind then judged by its own verdict.  Only the first violation per
    pair and axiom, at the lowest flagged level, is reported; a pair with no
    candidate level at which both members score is skipped and counted.  The
    rank x = 0 is never sampled: the h-bundle level map diverges there and
    the cumulative bundle is identically zero at level 0, where strictness
    is meaningless.
    """
    ps = _Pairs.of(pairs)
    geq, strict, local = (ps.where(kind) for kind in (
        RelationKind.GEQ_ALL, RelationKind.STRICT_ON_PREFIX, RelationKind.EQUAL_ON_PREFIX))
    levels, ranks, lu, ll = _candidates(bundle, ps, geq, strict, local)
    ts, m_up, m_lo, kept = _candidate_scores(bundle, ps, np.concatenate((geq, strict, local)),
                                             levels)
    at = np.cumsum([0, len(geq), len(strict), len(local)]).tolist()
    part = [slice(a, b) for a, b in zip(at, at[1:])]

    def report(axiom: str, k: int, idx: np.ndarray, verdict, tol: float, note: str) -> AxiomReport:
        s = part[k]
        return _run_axiom(axiom, idx, np.where(kept[s], 0, _SKIP), ts[s], m_up[s], m_lo[s],
                          verdict, tol, note)

    s = part[2]
    return {
        "AX.1": AxiomReport(
            "AX.1", 0, note="vacuous: the zero function is not a strictly decreasing rank function"
        ),
        "AX.2": report("AX.2", 0, geq, _below, MONOTONE_SLACK, ""),
        # AX.3: strict dominance on [0, a] forces strictly larger scores on
        # the level image of the prefix.
        "AX.3": report("AX.3", 1, strict, _not_above, STRICT_SLACK, "not strictly larger"),
        # AX.4 tests every pair, even one with no level left to score: its
        # level maps at the ranks come first, then its scores at the levels
        "AX.4": _run_axiom("AX.4", local, np.zeros(len(local), dtype=int),
                           np.hstack((ranks, ts[s])), np.hstack((lu, m_up[s])),
                           np.hstack((ll, m_lo[s])), _unequal, EQUALITY_ASSERT_TOL,
                           np.repeat(["level maps differ", "scores differ"],
                                     [ranks.shape[1], ts.shape[1]])),
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
    rows of the set.  A row gets NaN where the rule does: a score is
    defined where its rule gives a number.  The tables are read-only: a
    set keeps them for every checker."""
    rows = np.arange(len(ps.fns.T))
    thetas = np.full(len(rows), float(theta))

    def table(rule) -> np.ndarray:
        out = ps.fns._read(rule, rows, thetas)
        out.flags.writeable = False
        return out
    scores = table(bundle.scores)
    if bundle.rank_of is None:
        return scores, None
    if bundle.rank_of is bundle.scores:  # h reads up to its own root
        return scores, scores
    return scores, table(bundle.rank_of)


def _pair_report(axiom: str, ps: _Pairs, idx: np.ndarray, theta: float, scores: np.ndarray,
                 verdict, tol: float, note: str = "", untested=0) -> AxiomReport:
    """A single-level axiom's report on the pairs of idx.  A pair goes
    untested (``_SKIP``) when a member has no score at theta, else for its
    code in untested, if any; else the verdict on its members' scores in the
    table decides it."""
    m_up, m_lo = scores[ps.up[idx], None], scores[ps.lo[idx], None]
    missing = (np.isnan(m_up) | np.isnan(m_lo))[:, 0]
    return _run_axiom(axiom, idx, np.where(missing, _SKIP, untested), float(theta), m_up, m_lo,
                      verdict, tol, note)


def _reads_past(ranks: np.ndarray | None, rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Whether the score reads each row beyond its rank a (never, for a
    density level)."""
    if ranks is None:
        return np.zeros(len(rows), dtype=bool)
    return ranks[rows] > a + EQUALITY_ASSERT_TOL


def _positivity(bundle: BundleDef, theta: float, ps: _Pairs) -> AxiomReport:
    """IM.1's report on the distinct members; a violation names the first
    pair that holds the member: row r is pair r's upper, row n + r its
    lower."""
    rows, n = ps.members, len(ps)
    scores = ps.at_level(_level_table, bundle, theta)[0][rows, None]
    positive = np.broadcast_to(bundle.positive_for(ps.fns, theta), len(ps.fns.T))
    untested = np.where(np.isnan(scores[:, 0]) | ~positive[rows].astype(bool), _SKIP, 0)
    return _run_axiom("IM.1", rows % n, untested, float(theta), scores, 0.0, _not_positive,
                      STRICT_SLACK, _NOT_POSITIVE[rows // n, None],
                      remark="zero-function clause vacuous: rank functions are strictly decreasing")


def _positivity_report(axiom: str, bundle: BundleDef, theta: float, ps: _Pairs) -> AxiomReport:
    """IM.1's report, which the set builds once per bundle and level, under
    the name axiom: SM.1 is the same check."""
    return replace(ps.at_level(_positivity, bundle, theta), axiom=axiom)


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
    scores, ranks = ps.at_level(_level_table, bundle, theta)
    geq, strict = ps.where(RelationKind.GEQ_ALL), ps.where(RelationKind.STRICT_ON_PREFIX)
    # a score that reads up to a rank (mu, i, h) is only constrained when the
    # strict prefix covers everything it reads
    past = np.where(_reads_past(ranks, ps.lo[strict], ps.prefix[strict]), _SKIP, 0)
    return {
        "IM.1": _positivity_report("IM.1", bundle, theta, ps),
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
    scores, ranks = ps.at_level(_level_table, bundle, theta)
    geq, local = ps.where(RelationKind.GEQ_ALL), ps.where(RelationKind.EQUAL_ON_PREFIX)

    lower = ps.lo[geq]
    if ranks is None:
        z_T = ps.fns.admissible_range().lo[lower]
        at_boundary = np.abs(theta - z_T) <= _BOUNDARY_TOL
    else:
        T = ps.fns.T[lower]
        at_boundary = ranks[lower] >= T - _BOUNDARY_TOL * np.maximum(1.0, T)
    unclaimed = np.where(at_boundary, _BOUNDARY, np.where(_averages_ordered(ps, geq), 0, _SKIP))

    # the equal prefix must cover everything the score reads
    lower, a = ps.lo[local], ps.prefix[local]
    if ranks is None:
        at_a = ps.fns._read(lambda f, x: f.values(x), lower, a)
        covered = theta >= at_a - EQUALITY_ASSERT_TOL
    else:
        covered = ~_reads_past(ranks, lower, a)
    uncovered = np.where(covered, 0, _SKIP)

    return {
        "SM.1": _positivity_report("SM.1", bundle, theta, ps),
        "SM.2": _pair_report("SM.2", ps, geq, theta, scores, _below, MONOTONE_SLACK),
        "SM.3": _pair_report("SM.3", ps, geq, theta, scores, _not_above, STRICT_SLACK,
                             _NOT_STRICT, unclaimed),
        "SM.4": _pair_report("SM.4", ps, local, theta, scores, _unequal, EQUALITY_ASSERT_TOL,
                             untested=uncovered),
    }


def check_global_impact(bundle: BundleDef, theta: float,
                        pairs: Sequence[DominancePair]) -> dict[str, AxiomReport]:
    """Strict growth under the cumulative-integral partial order, GM.

    Expected to fail for the excess-area score: ``fixture_global`` produces
    a pair with lower strictly preceding upper yet equal scores, and the
    report records that equality witness honestly.
    """
    ps = _Pairs.of(pairs)
    scores, _ = ps.at_level(_level_table, bundle, theta)
    return {"GM": _pair_report("GM", ps, ps.where(RelationKind.CUMULATIVE_PREC), theta, scores,
                               _not_above, STRICT_SLACK, _NOT_STRICT)}


# ---------------------------------------------------------------------------
# Counterexample fixtures (exact knot constructions)


@dataclass(frozen=True)
class Fixture:
    pair: DominancePair
    theta: float

    def __post_init__(self) -> None:
        # verified once, as the one-pair set that a checker takes as it is
        vars(self)["pairs"] = _Pairs.of([self.pair])


def fixture_global() -> Fixture:
    """Cumulative-order pair on which the excess area fails to grow.

    lower crosses upper twice and coincides with it beyond the second
    crossing at level 1, so both inverse ranks equal 1 and both cumulative
    integrals reach 2 there: the excess areas agree exactly (both 1) even
    though lower strictly precedes upper in cumulative order.
    """
    upper = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
    lower = PiecewiseLinearFn.from_pairs([(0, 2.6), (0.5, 2.2), (1, 1), (2, 0.2)])
    return Fixture(DominancePair(upper, lower, RelationKind.CUMULATIVE_PREC), 1.0)


def fixture_alt1() -> Fixture:
    """Dominating pair on which the per-rank excess score decreases.

    upper exceeds lower everywhere, and its inverse rank at level 1 (0.9) is
    far right of lower's (0.5), but the extra excess area is tiny (0.257 vs
    0.25): dividing by the inverse rank inverts the order, 0.257/0.9 < 0.5.
    """
    lower = PiecewiseLinearFn.from_pairs([(0, 2), (1, 0)])
    upper = PiecewiseLinearFn.from_pairs([(0, 2.01), (0.5, 1.01), (0.9, 1.0), (1, 0.01)])
    return Fixture(DominancePair(upper, lower, RelationKind.GEQ_ALL), 1.0)


def fixture_alt2() -> Fixture:
    """Dominating pair on which the own-level area score decreases.

    upper is the straight line 1 - x; lower bends below it through
    (1/2, 1/4) yet scores 3/16 > 1/8 at rank 1/2, because subtracting the
    function's own (smaller) level more than compensates the smaller area.
    """
    upper = PiecewiseLinearFn.from_pairs([(0, 1), (1, 0)])
    lower = PiecewiseLinearFn.from_pairs([(0, 1), (0.5, 0.25), (1, 0)])
    return Fixture(DominancePair(upper, lower, RelationKind.GEQ_ALL), 0.5)


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
# The columns of a round's uniforms, a row per attempt: the lower member's
# ranks, tail, drops and drop total, then its kind's three draws.  A row of
# k knots reads the first k - 2 rank and k - 1 drop columns.
_RANKS = slice(0, _KNOT_RANGE[1] - 2)
_TAIL = _RANKS.stop
_DROPS = slice(_TAIL + 1, _TAIL + _KNOT_RANGE[1])
_TOTAL = _DROPS.stop
_DRAWS = slice(_TOTAL + 1, _TOTAL + 4)


def _uniform(lo, hi, u: np.ndarray) -> np.ndarray:
    """What ``rng.uniform(lo, hi)`` returns for the draw u of ``rng.random``:
    numpy rounds (hi - lo) * u before adding lo, as here."""
    return lo + (hi - lo) * u


def _draws(rng: np.random.Generator, kinds: np.ndarray) -> tuple[np.ndarray, ...]:
    """A round's draws, a row per attempt of ``_KINDS[kinds[i]]``, in three
    calls whatever their number: the knot counts k, the uniforms and the
    EQUAL_ON_PREFIX rows' split knots in [1, k - 2].  Then, row by row,
    ranks less than 1e-6 apart are drawn again, up to 100 times.  Returns
    k, the lower members' padded knot ranks (0, the sorted ranks, then 1),
    the uniforms and the split knots (0 in the other rows)."""
    n, equal = len(kinds), kinds == _KINDS.index(RelationKind.EQUAL_ON_PREFIX)
    size = rng.integers(_KNOT_RANGE[0], _KNOT_RANGE[1] + 1, size=n)
    u = rng.random((n, _DRAWS.stop))
    split = np.zeros(n, dtype=int)
    split[equal] = rng.integers(1, size[equal] - 1)
    ranks = np.where(np.arange(_RANKS.stop) < (size - 2)[:, None], u[:, _RANKS], 1.0)
    x = np.hstack((np.zeros((n, 1)), np.sort(ranks, axis=1), np.ones((n, 2))))
    cols = np.arange(x.shape[1] - 1)

    def apart(r):  # whether the rows' first k knots lie more than 1e-6 apart
        return np.where(cols < size[r, None] - 1, np.diff(x[r]), math.inf).min(axis=-1) > 1e-6

    for i in np.flatnonzero(~apart(slice(None))).tolist():
        for _ in range(100):
            x[i, 1 : size[i] - 1] = np.sort(rng.random(size[i] - 2))
            if apart(i):
                break
        else:
            raise GenerationError("could not draw well-separated knot ranks")
    return size, x, u, split


def _pair_knots(kinds: np.ndarray, size: np.ndarray, x: np.ndarray, u: np.ndarray,
                split: np.ndarray) -> tuple[np.ndarray, ...]:
    """A round's pairs from its draws (``_draws``), in one vector pass: the
    uppers' padded knot arrays (xs, ys) and knot counts, the lowers' the
    same, and the prefix ends (NaN for none).

    A lower z has the knots (x_i, tail + the drops right of x_i).  Its upper,
    built on the rows of its kind, is z plus a shift c, constant or decaying
    linearly to c/2 at 1 (``GEQ_ALL``, ``CUMULATIVE_PREC``); z plus the wedge
    g max(0, 1 - x/b), with a knot added at b, strictly above z on [0, a]
    (``STRICT_ON_PREFIX``); or z with its drop right of the split knot
    shrunk by lam, equal to z up to that knot (``EQUAL_ON_PREFIX``), the
    split knot k - 2 for a first draw below 0.5, so biased toward deep
    prefixes for the level-threshold checks.
    """
    n, cols = len(size), np.arange(x.shape[1])
    drops = _uniform(0.3, 1.0, u[:, _DROPS])
    drops[np.arange(drops.shape[1]) >= (size - 1)[:, None]] = 0.0
    drops *= _uniform(3.0, 10.0, u[:, _TOTAL, None]) / drops.sum(axis=1, keepdims=True)
    # the drops right of each knot, summed from 1 leftwards; the padding adds 0
    right = np.cumsum(drops[:, ::-1], axis=1)[:, ::-1]
    y = _uniform(0.0, 0.4, u[:, _TAIL, None]) + np.hstack((right, np.zeros((n, 2))))
    x_up, y_up, size_up, prefix = x.copy(), y.copy(), size.copy(), np.full(n, math.nan)

    def rows(*which: RelationKind) -> tuple:
        r = np.flatnonzero(np.logical_or.reduce([kinds == _KINDS.index(kind) for kind in which]))
        return (r, x[r], y[r], *(u[r, j, None] for j in range(_DRAWS.start, _DRAWS.stop)))

    r, xs, ys, p, q, _ = rows(RelationKind.GEQ_ALL, RelationKind.CUMULATIVE_PREC)
    c = _uniform(0.05, _SHIFT_SCALE, p)
    y_up[r] = ys + np.where(q < 0.5, c * (1.0 - 0.5 * xs), c)

    r, xs, ys, p, q, g = rows(RelationKind.STRICT_ON_PREFIX)
    a = _uniform(0.25, 0.75, p)
    b, g = _uniform(a + 0.05, 1.0, q), _uniform(0.05, _SHIFT_SCALE, g)
    m = (xs < b).sum(axis=1, keepdims=True)  # knots left of b; z(b) interpolates m-1 to m
    new = np.take_along_axis(xs, m, 1) != b
    x0, x1, y0, y1 = (np.take_along_axis(v, m + s, 1) for v in (xs, ys) for s in (-1, 0))
    xb, yb = (np.take_along_axis(v, cols - ((cols > m) & new), 1) for v in (xs, ys))
    at_b = (cols == m) & new
    x_up[r] = xb = np.where(at_b, b, xb)
    yb = np.where(at_b, y0 + (b - x0) / (x1 - x0) * (y1 - y0), yb)
    y_up[r] = yb + g * np.maximum(0.0, 1.0 - xb / b)
    prefix[r], size_up[r] = a[:, 0], size[r] + new[:, 0]

    r, xs, ys, p, lam, _ = rows(RelationKind.EQUAL_ON_PREFIX)
    at = np.where(p < 0.5, size[r, None] - 2, split[r, None])
    za = np.take_along_axis(ys, at, 1)
    y_up[r] = np.where(cols > at, za + _uniform(0.2, 0.8, lam) * (ys - za), ys)
    prefix[r] = np.take_along_axis(xs, at, 1)[:, 0]
    return x_up, y_up, size_up, x, y, size, prefix


def _round(rng: np.random.Generator, kinds: np.ndarray) -> tuple:
    """One round, an attempt per entry of kinds (indices into ``_KINDS``),
    drawn and built in one pass each: the attempts' knot arrays and counts
    (row i attempt i's upper, row n + i its lower), their prefix ends, and
    whether each has valid members (``_valid_knots``) and holds its relation
    (``_rejections``), decided in one pass of each."""
    x_up, y_up, size_up, x, y, size, prefix = _pair_knots(kinds, *_draws(rng, kinds))
    knots = np.vstack((x_up, x)), np.vstack((y_up, y)), np.append(size_up, size)
    ok = _valid_knots(*knots).reshape(2, len(kinds)).all(axis=0)
    both, kept = np.append(ok, ok), kinds[ok]
    ends = _ends(kept, prefix[ok], np.ones(len(kept)))
    ok[ok] = [r is None for r in _rejections(_PwlStack(*(v[both] for v in knots)), kept, ends)]
    return knots, prefix, ok


def generate_pairs(seed: int = 0, count: int = 20) -> _Pairs:
    """Generate ``count`` (>= 1) verified pairs per relation kind, in enum
    order, from the seed, an integer >= 0.  A count whose arrays would
    pass ``sys.maxsize`` bytes is rejected before anything is drawn.

    The pairs are all of one shape: a lower member has 3 to 8 knots on
    [0, 1], a tail below 0.4 and drops that total 3 to 10; its upper adds
    0.05 to 0.4.  Shifts stay below 0.4, under 1 - (largest tail value), so
    level 1 stays admissible for both members, which the measure suites
    rely on; a setting for them could quietly break that.

    Deterministic for a fixed seed and count.  Each round (``_round``) draws
    an attempt for every open slot of all four kinds, in enum order; a
    rejected attempt leaves its slot open for the next round, up to 100
    rounds, and each kind keeps its pairs in the order drawn.  The pairs
    come back as an immutable sequence (a ``_Pairs``) on one read-only
    stack of knot arrays, which the checkers read as it is; a pair object,
    its members read-only views of its rows, is built only when it is read.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError(f"seed must be an integer >= 0, got {seed!r}")
    # a round's uniforms, the widest of its arrays, must fit an array's bytes
    most = sys.maxsize // (len(_KINDS) * _DRAWS.stop * np.dtype(float).itemsize)
    if not 1 <= count <= most:
        raise InputError(f"count must be >= 1 and at most {most}, got {count}")
    rng, todo = np.random.default_rng(seed), np.full(len(_KINDS), count)
    kinds, knots, prefix = [], [], []  # the accepted attempts, round by round
    for _ in range(100):
        drawn = np.repeat(np.arange(len(_KINDS)), todo)
        arrays, a, ok = _round(rng, drawn)
        kinds.append(drawn[ok])
        prefix.append(a[ok])
        knots.append([v.reshape(2, len(drawn), *v.shape[1:])[:, ok] for v in arrays])
        todo -= np.bincount(drawn[ok], minlength=len(_KINDS))
        if not todo.any():
            break
    else:
        raise GenerationError(f"gave up generating a {_KINDS[np.argmax(todo > 0)].value} pair")
    order = np.argsort(np.concatenate(kinds), kind="stable")
    xs, ys, size = (np.concatenate(np.concatenate(v, axis=1)[:, order]) for v in zip(*knots))
    xs.flags.writeable = ys.flags.writeable = False
    return _Pairs(None, _PwlStack(xs, ys, size), np.ones(len(order)),
                  np.concatenate(kinds)[order], np.concatenate(prefix)[order])
