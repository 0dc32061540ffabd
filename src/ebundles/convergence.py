"""Desk-scale convergence studies for sequences of rank functions.

Given a family rule n -> Z_n and an optional limit Z, a study tabulates three
sup distances per n: the functions themselves, their inverses over the
shared admissible levels, and their excess-area scores, each read through
the functions' vector forms (``values``, ``inverses`` and
``bundles.e_thetas``).  Each distance is exact for a pair of one built-in
family: it is read at the few points where the gap can be extreme, the
merged knots of two piecewise linear functions (a line counts as one) and
the ends and closed-form critical point for two Zipf members or two power
complements, so no grid is built.  The one approximation is the Zipf pole:
ranks start half a step of a ``grid_n``-point uniform grid in, and levels
stop at the level reached at rank T/``theta_grid_n`` (``run_study`` and the
CLI default to 10^4 and 10^3).  A pair that mixes families raises
``InputError``.

Verdict flags are heuristics over the supplied n values only (final value
under threshold and weak decrease over the last half); no limit claim is
made.  When no limit is supplied the study instead reads the Cauchy gaps of
consecutive members and flags an apparent jump discontinuity of the
pointwise limit, the signature of families whose pointwise limit leaves the
space of continuous decreasing functions; with fewer than three members it
makes no claim.  Either way ``run_study`` builds one ``ConvergenceReport``:
the rows, the members' largest value at the origin and the verdict flags.
The named families (``SEQUENCE_FAMILIES``) take only their n values; the
Zipf one moves its exponent 0.5 + 0.1/n onto 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bundles import e_thetas
from .functions import (
    InputError,
    LinearFamily,
    PiecewiseLinearFn,
    PowerComplement,
    RankFunction,
    ZipfFamily,
    _common_T,
)

__all__ = [
    "sup_distance",
    "inverse_sup_distance",
    "e_sup_distance",
    "FunctionSequence",
    "ConvergenceRow",
    "ConvergenceReport",
    "run_study",
    "scaled_linear_sequence",
    "shifted_linear_sequence",
    "zipf_sequence",
    "power_complement_sequence",
    "SEQUENCE_FAMILIES",
]

VERDICT_THRESHOLD = 1e-3


def _check_points(name: str, n: int) -> None:
    if n < 2:
        raise InputError(f"{name} must be >= 2, got {n}")


def _family(f: RankFunction, g: RankFunction) -> type:
    """The pair's family: ``PiecewiseLinearFn`` for two piecewise linear
    functions (a line counts as one), ``ZipfFamily`` or ``PowerComplement``;
    raises ``InputError``, naming both types, for any other pair."""
    kinds = [PiecewiseLinearFn if isinstance(h, LinearFamily) else type(h) for h in (f, g)]
    if kinds[0] is not kinds[1] or kinds[0] not in (PiecewiseLinearFn, ZipfFamily, PowerComplement):
        raise InputError(f"exact distances need two functions of one family, got "
                         f"{type(f).__name__} and {type(g).__name__}")
    return kinds[0]


def _knots(h: PiecewiseLinearFn | LinearFamily) -> tuple[np.ndarray, np.ndarray]:
    """The knot ranks and levels of h, a line read as (0, S) and (T, 0)."""
    if isinstance(h, LinearFamily):
        return np.array([0.0, h.T]), np.array([h.S, 0.0])
    return h.xs, h.ys


def _rank_candidates(f: RankFunction, g: RankFunction, grid_n: int) -> np.ndarray:
    """The ranks in [0, T], T the shared domain end, at which |f - g| can peak.

    Piecewise linear: f - g is linear between the merged knots (a knot past T
    moves onto it).  Zipf: with u = T/x, |u^beta_f - u^beta_g| grows on
    u >= 1, so it peaks at x0, half a step of a grid_n-point uniform grid in
    from the pole, where the truncated domain starts.  Power complement:
    x^m - x^n vanishes at both ends and peaks at x* = (m/n)^(1/(n-m)).
    """
    _check_points("grid_n", grid_n)
    kind, T = _family(f, g), _common_T(f, g)
    if kind is ZipfFamily:
        return np.array([0.5 * (T / (grid_n - 1)), T])
    if kind is PowerComplement:
        m, n = f.n, g.n
        # equal members have no critical point: 0.0 stands in for it
        return np.array([0.0, (m / n) ** (1.0 / (n - m)) if m != n else 0.0, 1.0])
    return np.minimum(np.concatenate((_knots(f)[0], _knots(g)[0])), T)


def _level_candidates(f: RankFunction, g: RankFunction, theta_grid_n: int) -> np.ndarray:
    """The levels, sorted, at which |f^-1 - g^-1| can peak on the shared
    admissible range: the range's two ends and the critical points inside.

    An unbounded range (the Zipf pole) stops at the lower of the two levels
    reached at rank T/theta_grid_n.  Piecewise linear: both inverses are
    linear between the merged knot levels.  Zipf: T(theta^-a - theta^-b),
    with a = 1/beta_f and b = 1/beta_g, has one critical point,
    theta* = (b/a)^(1/(b-a)).  Power complement: s^a - s^b, with s = 1 - theta,
    a = 1/m and b = 1/n, has one, s* = (b/a)^(1/(a-b)); below 2^-53 it is
    read at the largest level under 1, the closest one a float names.
    """
    _check_points("theta_grid_n", theta_grid_n)
    kind, T = _family(f, g), _common_T(f, g)
    rf, rg = f.admissible_range(), g.admissible_range()
    lo, hi = max(rf.lo, rg.lo), min(rf.hi, rg.hi)
    if math.isinf(hi):
        hi = min(f.value(T / theta_grid_n), g.value(T / theta_grid_n))
    if not lo < hi:
        raise InputError(f"admissible ranges do not overlap: [{rf.lo},{rf.hi}] vs [{rg.lo},{rg.hi}]")
    # equal members have no critical point: the range's foot stands in for it
    if kind is PiecewiseLinearFn:
        inner = np.concatenate((_knots(f)[1], _knots(g)[1]))
    elif kind is ZipfFamily:
        a, b = 1.0 / f.beta, 1.0 / g.beta
        inner = np.array([(b / a) ** (1.0 / (b - a)) if a != b else 1.0])
    else:
        a, b = 1.0 / f.n, 1.0 / g.n
        s = (b / a) ** (1.0 / (a - b)) if a != b else 1.0
        inner = np.array([min(1.0 - s, np.nextafter(1.0, 0.0))])
    return np.sort(np.concatenate(((lo, hi), inner[(lo < inner) & (inner < hi)])))


def sup_distance(f: RankFunction, g: RankFunction, grid_n: int = 10_000) -> float:
    """max |f - g| over the shared domain, read at ``_rank_candidates``: exact
    for a pair of one family, and for a Zipf pair over the domain truncated
    half a step of a grid_n-point uniform grid in from the pole."""
    xs = _rank_candidates(f, g, grid_n)
    return float(np.max(np.abs(f.values(xs) - g.values(xs))))


def inverse_sup_distance(f: RankFunction, g: RankFunction, grid_n: int = 10_000) -> float:
    """max |f^-1 - g^-1| over the shared admissible range, read at
    ``_level_candidates``: exact for a pair of one family (a Zipf pair's range
    stops at rank T/grid_n)."""
    thetas = _level_candidates(f, g, grid_n)
    return float(np.max(np.abs(f.inverses(thetas) - g.inverses(thetas))))


def e_sup_distance(f: RankFunction, g: RankFunction, theta_grid_n: int = 10_000) -> float:
    """max |e_theta(f) - e_theta(g)| over the shared admissible range.

    e_f - e_g has derivative -(f^-1 - g^-1), so its extremes lie at the
    ``_level_candidates`` or where that gap changes sign: for a piecewise
    linear pair, at the root of the gap, linear between two candidates; a
    Zipf or power-complement gap keeps one sign inside the range.
    """
    thetas = _level_candidates(f, g, theta_grid_n)
    d = f.inverses(thetas) - g.inverses(thetas)
    flip = d[:-1] * d[1:] < 0.0
    t0, t1, d0, d1 = thetas[:-1][flip], thetas[1:][flip], d[:-1][flip], d[1:][flip]
    thetas = np.concatenate((thetas, t0 + d0 * (t1 - t0) / (d0 - d1)))
    return float(np.max(np.abs(e_thetas(f, thetas) - e_thetas(g, thetas))))


@dataclass(frozen=True)
class FunctionSequence:
    """A family rule n -> Z_n with an optional limit function."""

    family: Callable[[int], RankFunction]
    n_values: tuple[int, ...]
    limit: RankFunction | None = None

    def __post_init__(self) -> None:
        ns = tuple(int(n) for n in self.n_values)
        object.__setattr__(self, "n_values", ns)
        if not ns:
            raise InputError("need at least one n value")
        if min(ns) < 1:
            raise InputError(f"n values must be >= 1, got {min(ns)}")
        for a, b in zip(ns, ns[1:]):
            if b <= a:
                raise InputError("n_values must be strictly increasing")


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    sup_fn: float | None
    sup_inv: float | None
    sup_e: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    # largest member value at the origin over the studied n (inf if unbounded)
    member_peak: float
    fn_converges: bool | None
    inv_converges: bool | None
    e_converges: bool | None
    # None with a limit, or with fewer than three members
    limit_discontinuous: bool | None

    def to_csv(self) -> str:
        lines = ["n,sup_fn,sup_inv,sup_e"]
        for r in self.rows:
            cells = [str(r.n)] + [
                "NA" if v is None else repr(v) for v in (r.sup_fn, r.sup_inv, r.sup_e)
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _column_verdict(values: Sequence[float], threshold: float) -> bool:
    """Final value below threshold and weakly decreasing over the last half."""
    half = values[len(values) // 2 :]
    decreasing = all(b <= a + 1e-15 for a, b in zip(half, half[1:]))
    return decreasing and values[-1] < threshold


def _discontinuity_flag(members: Sequence[RankFunction], grid_n: int) -> bool | None:
    """Detect that the pointwise limit cannot be continuous (heuristic).

    Uniform convergence of continuous functions forces a continuous limit,
    so a uniform Cauchy gap sup|Z_next - Z_n| that refuses to shrink along
    the n list is the desk-scale signature of a discontinuous pointwise
    limit.  Needs a reasonably geometric spread of n values to be sharp, and
    two gaps at least: with fewer than three members it makes no claim
    (None).  The gaps are ``sup_distance``'s, so the members must share a
    domain and a family.
    """
    gaps = [sup_distance(a, b, grid_n) for a, b in zip(members, members[1:])]
    if len(gaps) < 2:
        return None
    return gaps[-1] > 0.5 * gaps[0] and gaps[-1] > 1e-6


def run_study(
    seq: FunctionSequence,
    grid_n: int = 10_000,
    theta_grid_n: int = 1_000,
) -> ConvergenceReport:
    """Tabulate sup distances per n against the sequence's limit.

    Without a limit the distance columns stay empty and the report instead
    carries the discontinuity flag for the empirical pointwise limit.  Both
    grid sizes need at least 2 points, with or without a limit, for every
    family.
    """
    _check_points("grid_n", grid_n)
    _check_points("theta_grid_n", theta_grid_n)
    members = [seq.family(n) for n in seq.n_values]
    limit = seq.limit
    rows = tuple(
        ConvergenceRow(n, None, None, None) if limit is None
        else ConvergenceRow(n, sup_distance(m, limit, grid_n),
                            inverse_sup_distance(m, limit, theta_grid_n),
                            e_sup_distance(m, limit, theta_grid_n))
        for n, m in zip(seq.n_values, members))
    # each distance column's verdict, none without a limit
    verdicts = [None if limit is None else _column_verdict(column, VERDICT_THRESHOLD)
                for column in zip(*((r.sup_fn, r.sup_inv, r.sup_e) for r in rows))]
    return ConvergenceReport(
        rows, max(m.value_at_origin() for m in members), *verdicts,
        limit_discontinuous=_discontinuity_flag(members, grid_n) if limit is None else None)


def scaled_linear_sequence(n_values: Sequence[int]) -> FunctionSequence:
    """Z_n = (1 + 1/n)(1 - x) on [0, 1], shrinking onto 1 - x."""
    return FunctionSequence(
        family=lambda n: LinearFamily(S=1.0 + 1.0 / n, T=1.0),
        n_values=tuple(n_values),
        limit=LinearFamily(S=1.0, T=1.0),
    )


def shifted_linear_sequence(n_values: Sequence[int]) -> FunctionSequence:
    """Z_n = (1 - x) + 1/n on [0, 1]: a vertical shift fading out."""
    return FunctionSequence(
        family=lambda n: PiecewiseLinearFn.from_pairs(
            [(0.0, 1.0 + 1.0 / n), (1.0, 1.0 / n)]
        ),
        n_values=tuple(n_values),
        limit=LinearFamily(S=1.0, T=1.0),
    )


def zipf_sequence(n_values: Sequence[int]) -> FunctionSequence:
    """Zipf members with exponent 0.5 + 0.1/n approaching exponent 0.5."""
    return FunctionSequence(
        family=lambda n: ZipfFamily(beta=0.5 + 0.1 / n, T=1.0),
        n_values=tuple(n_values),
        limit=ZipfFamily(beta=0.5, T=1.0),
    )


def power_complement_sequence(n_values: Sequence[int]) -> FunctionSequence:
    """The 1 - x**n family on [0, 1]: strictly decreasing for every n, but its
    pointwise limit jumps from 1 to 0 at x = 1, so no continuous strictly
    decreasing limit exists."""
    return FunctionSequence(
        family=PowerComplement,
        n_values=tuple(n_values),
        limit=None,
    )


SEQUENCE_FAMILIES: dict[str, Callable[[Sequence[int]], FunctionSequence]] = {
    "linear": scaled_linear_sequence,
    "shifted": shifted_linear_sequence,
    "zipf": zipf_sequence,
    "power": power_complement_sequence,
}
