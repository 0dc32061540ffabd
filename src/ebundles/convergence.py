"""Desk-scale convergence studies for sequences of rank functions.

Given a family rule n -> Z_n and an optional limit Z, a study tabulates three
sup distances per n: the functions themselves, their inverses over the
shared admissible levels, and their excess-area scores, each column read for
all members in one stacked pass, against the limit read once (the public
distances are the one-member case).  Each distance is exact for a pair of
one built-in family: it is read at the few points where the gap can be
extreme, the merged knots of two piecewise linear functions (a line counts
as one) and the ends and closed-form critical point for two Zipf members or
two power complements, so no grid is built.  The one approximation is the
Zipf pole: ranks start half a step of a ``grid_n``-point uniform grid in,
and levels stop at the level reached at rank T/``theta_grid_n``
(``run_study`` and the CLI default to 10^4 and 10^3).  A pair that mixes
families raises ``InputError``.

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
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .bundles import _CSV_CELLS, _csv, _excess, _number_texts
from .functions import (
    InputError,
    LinearFamily,
    PiecewiseLinearFn,
    PowerComplement,
    RankFunction,
    ZipfFamily,
    _common_T,
    _PwlStack,
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


def _as_pwl(fns: Sequence[RankFunction]) -> list[PiecewiseLinearFn]:
    """The piecewise linear functions, a line as its knots (0, S), (T, 0)."""
    return [PiecewiseLinearFn._view(np.array([0.0, h.T]), np.array([h.S, 0.0]))
            if isinstance(h, LinearFamily) else h for h in fns]


def _rows(fns: Sequence[RankFunction]) -> RankFunction:
    """The functions as one reader, row i of an (m, c) argument read by fns[i]:
    one function itself, a family's members as one instance (``_columns``),
    piecewise linear ones as a stack's rows, any lines among them at knots."""
    if len(fns) == 1:
        return fns[0]
    if len(set(map(type, fns))) > 1 or isinstance(fns[0], PiecewiseLinearFn):
        return _PwlStack.of(_as_pwl(fns))._select(np.arange(len(fns))[:, None])
    return type(fns[0])._columns(fns)


def _pairs(fs: Sequence[RankFunction], gs: Sequence[RankFunction]) -> tuple:
    """The pairs (fs[i], gs[i]) of one family, gs one per pair or a limit for
    all: their family, domain ends T as an (m, 1) column, knot rows (piecewise
    linear pairs), and f and g read a pair per row (``_rows``)."""
    pairs = list(zip(fs, gs if len(gs) > 1 else gs * len(fs)))
    # a limit, or the next member, shares its family with every pair
    (kind,) = {_family(f, g) for f, g in pairs}
    T = np.array([_common_T(f, g) for f, g in pairs])[:, None]
    knots = [[v.reshape(len(pairs), -1) for v in (s.xs, s.ys)] for s in
             map(_PwlStack.of, map(_as_pwl, zip(*pairs)))] if kind is PiecewiseLinearFn else None
    return kind, T, knots, _rows(fs), _rows(gs)


def _fn_gaps(pairs: tuple, grid_n: int) -> np.ndarray:
    """Per pair of ``_pairs``, max |f - g| over the shared domain [0, T],
    read at a row of ranks where it can peak.

    Piecewise linear: f - g is linear between the merged knots (a knot past
    T moves onto it).  Zipf: with u = T/x, |u^beta_f - u^beta_g| grows on
    u >= 1, so it peaks at x0, half a step of a grid_n-point uniform grid in
    from the pole, where the truncated domain starts.  Power complement:
    x^m - x^n vanishes at both ends and peaks at log x* = log(m/n)/(n-m),
    read through log x as ``_level_gaps`` reads levels: for large n, x* lies
    within a few ulps of 1.
    """
    _check_points("grid_n", grid_n)
    kind, T, knots, f, g = pairs
    if kind is ZipfFamily:
        xs = np.hstack((0.5 * (T / (grid_n - 1)), T))
    elif kind is PowerComplement:
        log_x = 0.0 * T + np.log(f.n / g.n) / np.where(f.n != g.n, g.n - f.n, 1)
        return np.abs(np.exp(f.n * log_x) - np.exp(g.n * log_x)).max(axis=1)
    else:
        xs = np.minimum(np.hstack([x for x, _ in knots]), T)
    return np.abs(f.values(xs) - g.values(xs)).max(axis=1)


def _level_gaps(pairs: tuple, theta_grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per pair of ``_pairs``, max |f^-1 - g^-1| and max |e_theta(f) -
    e_theta(g)| over the shared admissible range, read at a sorted row of
    levels: the range's two ends and the critical points inside (equal
    members have none: a range end stands in).

    An unbounded range (the Zipf pole) stops at the lower of the two levels
    reached at rank T/theta_grid_n.  Piecewise linear: both inverses are
    linear between the merged knot levels.  Zipf: T(theta^-a - theta^-b),
    a = 1/beta_f and b = 1/beta_g, peaks at theta* = (b/a)^(1/(b-a)).  Power
    complement: s^a - s^b, s = 1 - theta, a = 1/m and b = 1/n, peaks at
    log s* = log(b/a)/(a-b), read through log s: s* may be too close to 0 for
    1 - theta.  e_f - e_g has derivative -(f^-1 - g^-1), so its extremes lie
    at these levels or where the inverse gap changes sign: linear between two
    levels for a PWL pair; a Zipf or power gap keeps one sign.
    """
    _check_points("theta_grid_n", theta_grid_n)
    kind, T, knots, f, g = pairs
    if kind is PowerComplement:
        a, b = 1.0 / f.n, 1.0 / g.n
        log_s = np.column_stack((0.0 * T, np.log(b / a) / np.where(a != b, a - b, 1.0), T - np.inf))
        thetas, d = 1.0 - np.exp(log_s), f._log_inverses(log_s) - g._log_inverses(log_s)
    else:
        if kind is PiecewiseLinearFn:
            (_, fy), (_, gy) = knots
            lo, hi = np.maximum(fy[:, -1:], gy[:, -1:]), np.minimum(fy[:, :1], gy[:, :1])
            inner = np.hstack((fy, gy))
            if not (lo < hi).all():
                i = int(np.argmin(lo < hi))
                raise InputError(f"admissible ranges do not overlap: [{fy[i, -1]},{fy[i, 0]}] "
                                 f"vs [{gy[i, -1]},{gy[i, 0]}]")
        else:
            a, b = 1.0 / f.beta, 1.0 / g.beta
            lo, hi = 1.0 + 0.0 * T, np.minimum(*(h.values(T / theta_grid_n) for h in (f, g)))
            inner = (b / a) ** (1.0 / np.where(a != b, b - a, 1.0))
        # a critical point outside the range stands as its foot
        thetas = np.sort(np.hstack((lo, hi, np.where((lo < inner) & (inner < hi), inner, lo))),
                         axis=1)
        d = f._inverses(thetas) - g._inverses(thetas)
    t0, t1, d0, d1 = thetas[:, :-1], thetas[:, 1:], d[:, :-1], d[:, 1:]
    flip = d0 * d1 < 0.0
    # a root rounds at most onto the level above it
    roots = np.minimum(t0 + d0 * (t1 - t0) / np.where(flip, d0 - d1, 1.0), t1)
    levels = np.hstack((thetas, np.where(flip, roots, t0)))
    return np.abs(d).max(axis=1), np.abs(_excess(f, levels) - _excess(g, levels)).max(axis=1)


def sup_distance(f: RankFunction, g: RankFunction, grid_n: int = 10_000) -> float:
    """max |f - g| over the shared domain: ``_fn_gaps`` of the pair."""
    return float(_fn_gaps(_pairs([f], [g]), grid_n)[0])


def inverse_sup_distance(f: RankFunction, g: RankFunction, grid_n: int = 10_000) -> float:
    """max |f^-1 - g^-1| over the shared admissible range: ``_level_gaps`` of
    the pair.  grid_n sets the level-side Zipf truncation, as
    ``e_sup_distance``'s theta_grid_n does: levels stop at rank T/grid_n."""
    return float(_level_gaps(_pairs([f], [g]), grid_n)[0][0])


def e_sup_distance(f: RankFunction, g: RankFunction, theta_grid_n: int = 10_000) -> float:
    """max |e_theta(f) - e_theta(g)| over the shared range: ``_level_gaps`` of the pair."""
    return float(_level_gaps(_pairs([f], [g]), theta_grid_n)[1][0])


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
        ns, *sups = ([getattr(r, f.name) for r in self.rows] for f in fields(ConvergenceRow))
        # orjson writes no int beyond 64 bits, which an n may be
        texts = [*map(repr, ns), *_number_texts(np.array(sups, dtype=float), _CSV_CELLS)]
        return _csv(ConvergenceRow, texts)


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
    gaps = _fn_gaps(_pairs(members[:-1], members[1:]), grid_n) if len(members) > 1 else ()
    return None if len(gaps) < 2 else bool(gaps[-1] > 0.5 * gaps[0] and gaps[-1] > 1e-6)


def run_study(
    seq: FunctionSequence,
    grid_n: int = 10_000,
    theta_grid_n: int = 1_000,
) -> ConvergenceReport:
    """Tabulate sup distances per n against the sequence's limit.

    Each column reads all members in one pass (``_pairs``).  Without a limit
    the distance columns stay empty and the report instead carries the
    discontinuity flag for the empirical pointwise limit.  Both grid sizes
    need at least 2 points, with or without a limit, for every family.
    """
    _check_points("grid_n", grid_n)
    _check_points("theta_grid_n", theta_grid_n)
    members = [seq.family(n) for n in seq.n_values]
    limit = seq.limit
    if limit is None:  # the flag reads, and so checks, the pairs first
        flag = _discontinuity_flag(members, grid_n)
        columns, rows = [[None] * len(members)] * 3, _rows(members)
    else:
        pairs = _pairs(members, [limit])
        columns = [c.tolist() for c in (_fn_gaps(pairs, grid_n), *_level_gaps(pairs, theta_grid_n))]
        flag, rows = None, pairs[3]
    # each distance column's verdict, none without a limit
    verdicts = [None if limit is None else _column_verdict(c, VERDICT_THRESHOLD) for c in columns]
    peak = math.inf if any(m.unbounded_at_origin for m in members) else float(
        rows.values(np.zeros((len(members), 1))).max())
    return ConvergenceReport(tuple(map(ConvergenceRow, seq.n_values, *columns)), peak, *verdicts,
                             limit_discontinuous=flag)


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
    decreasing limit exists.  Each n is at most 2**53: the members read n as
    a float, which holds every integer up to there, and the gaps take n in
    64-bit integers."""
    for n in n_values:
        if n > 2**53:
            raise InputError(f"power family n must be at most 2**53 = {2**53}, got {n}")
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
