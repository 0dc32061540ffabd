"""Desk-scale convergence studies for sequences of rank functions.

Given a family rule n -> Z_n and an optional limit Z, a study tabulates three
sup distances per n: the functions themselves, their inverses over the
shared admissible levels, and their excess-area scores, each read through
the functions' vector forms (``values``, ``inverses`` and
``bundles.e_thetas``).  For a piecewise linear pair (a line counts as one)
each distance is exact: it is read at the few points where the gap can be
extreme, the merged knots and, for the excess areas, the levels where the
inverses cross, so no grid is built.  Other pairs (Zipf, power complement)
are read on grids, one numpy expression per block: their maxima are lower
bounds of the true sup.  The function grid defaults to 10^4 points and the
level grid to 10^3 (``run_study`` and the CLI); members that share the
limit's function grid are read in one pass over it, the limit once per
block.  A doubling check in the test suite confirms refinement changes grid
results by less than 10 percent.

Verdict flags are heuristics over the supplied n values only (final value
under threshold and weak decrease over the last half); no limit claim is
made.  When no limit is supplied the study instead estimates the pointwise
limit from the largest members and flags an apparent jump discontinuity,
the signature of families whose pointwise limit leaves the space of
continuous decreasing functions.  Either way ``run_study`` builds one
``ConvergenceReport``: the rows, the members' largest value at the origin
and the verdict flags.  The named families (``SEQUENCE_FAMILIES``) take
only their n values; the Zipf one moves its exponent 0.5 + 0.1/n onto
0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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

# Grid points per numpy pass in the sup distances.  A block's temporaries
# (64 KiB each) stay below glibc's 128 KiB mmap threshold, so they are reused
# from the heap.  Temporaries over a whole 10^5-point grid would be mapped,
# faulted in page by page and unmapped on every call: about a third of a
# converge job's time, and a cost that varies with the load on the host.
_BLOCK = 8192


def _grid(fns: Sequence[RankFunction], lo: float, hi: float, n: int) -> np.ndarray:
    """n >= 2 uniform points on [lo, hi], pole-free for every function in fns."""
    if n < 2:
        raise InputError(f"grid_n must be >= 2, got {n}")
    xs = np.linspace(lo, hi, n)
    if xs[0] == 0.0 and any(f.unbounded_at_origin for f in fns):
        # cannot sample the pole itself; start half a step in
        xs[0] = 0.5 * xs[1]
    return xs


def _merged_knots(f: RankFunction, g: RankFunction) -> tuple[np.ndarray, np.ndarray] | None:
    """The knot ranks and the knot levels of f and g, each merged into one
    array, a line read as its two knots (0, S) and (T, 0); None unless both
    are piecewise linear."""
    if not all(isinstance(h, (PiecewiseLinearFn, LinearFamily)) for h in (f, g)):
        return None
    knots = [(h.xs, h.ys) if isinstance(h, PiecewiseLinearFn) else ((0.0, h.T), (h.S, 0.0))
             for h in (f, g)]
    return tuple(np.concatenate(v) for v in zip(*knots))


def _max_abs_gaps(
    f_vecs: Sequence[Callable[[np.ndarray], np.ndarray]],
    g_vec: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
) -> np.ndarray:
    """max |f_vec(grid) - g_vec(grid)| for each f_vec, one block of the grid
    at a time, g_vec read once per block."""
    per_block = []
    for block in (grid[i : i + _BLOCK] for i in range(0, len(grid), _BLOCK)):
        g = g_vec(block)
        per_block.append([np.max(np.abs(f_vec(block) - g)) for f_vec in f_vecs])
    return np.max(per_block, axis=0)


def _sup_distances(fns: Sequence[RankFunction], g: RankFunction, grid_n: int) -> list[float]:
    """``sup_distance(f, g, grid_n)`` for every f in fns: a piecewise linear
    pair at its own merged knots, and the other functions grouped by the grid
    they share with g, each group in one pass that reads g once per block."""
    if grid_n < 2:
        raise InputError(f"grid_n must be >= 2, got {grid_n}")
    gaps = np.empty(len(fns))
    shared: dict[tuple[float, bool], list[int]] = {}
    for i, f in enumerate(fns):
        T = _common_T(f, g)
        knots = _merged_knots(f, g)
        if knots is None:
            shared.setdefault((T, f.unbounded_at_origin), []).append(i)
        else:
            # f - g is linear between merged knots; a knot past T moves onto it
            gaps[i] = _max_abs_gaps([f.values], g.values, np.minimum(knots[0], T))[0]
    for (T, _), rows in shared.items():
        xs = _grid((fns[rows[0]], g), 0.0, T, grid_n)
        gaps[rows] = _max_abs_gaps([fns[i].values for i in rows], g.values, xs)
    return gaps.tolist()


def sup_distance(f: RankFunction, g: RankFunction, grid_n: int = 10_000) -> float:
    """max |f - g| over the shared domain.

    Exact for a piecewise linear pair (a line counts as one): f - g is linear
    between their merged knots, so it is read there.  Otherwise the max over
    a uniform grid of grid_n points, a lower bound of the sup; for functions
    unbounded at the origin the grid starts half a step in, so the reported
    value bounds the sup over that truncated domain.
    """
    return _sup_distances([f], g, grid_n)[0]


def _shared_levels(f: RankFunction, g: RankFunction, grid_n: int) -> np.ndarray:
    """The levels at which the inverse and excess distances read f and g, on
    the shared admissible range: for a piecewise linear pair its merged knot
    levels inside the range and the range's two ends, sorted (both inverses
    are linear between them); otherwise grid_n uniform levels."""
    T = _common_T(f, g)
    if grid_n < 2:
        raise InputError(f"theta_grid_n must be >= 2, got {grid_n}")
    rf, rg = f.admissible_range(), g.admissible_range()
    lo = max(rf.lo, rg.lo)
    hi = min(rf.hi, rg.hi)
    if math.isinf(hi):
        # cap an unbounded intersection at the level reached one grid step
        # from the origin, the same truncation sup_distance applies
        x_min = T / grid_n
        hi = min(f.value(x_min), g.value(x_min))
    if not lo < hi:
        raise InputError(f"admissible ranges do not overlap: [{rf.lo},{rf.hi}] vs [{rg.lo},{rg.hi}]")
    knots = _merged_knots(f, g)
    if knots is None:
        return np.linspace(lo, hi, grid_n)
    ys = knots[1]
    return np.sort(np.concatenate(((lo, hi), ys[(lo < ys) & (ys < hi)])))


def inverse_sup_distance(f: RankFunction, g: RankFunction, grid_n: int = 10_000) -> float:
    """max |f^-1 - g^-1| over the shared admissible range: exact for a
    piecewise linear pair, read at ``_shared_levels``; otherwise the max over
    a level grid, a lower bound of the sup."""
    thetas = _shared_levels(f, g, grid_n)
    return float(_max_abs_gaps([f.inverses], g.inverses, thetas)[0])


def e_sup_distance(f: RankFunction, g: RankFunction, theta_grid_n: int = 10_000) -> float:
    """max |e_theta(f) - e_theta(g)| over the shared admissible range.

    Exact for a piecewise linear pair: e_f - e_g has derivative
    -(f^-1 - g^-1), linear between the ``_shared_levels``, so its extremes
    lie at those levels or where that gap changes sign between two of them.
    Otherwise the max over a level grid, a lower bound of the sup.
    """
    thetas = _shared_levels(f, g, theta_grid_n)
    if _merged_knots(f, g) is not None:
        d = f.inverses(thetas) - g.inverses(thetas)
        flip = d[:-1] * d[1:] < 0.0
        t0, t1, d0, d1 = thetas[:-1][flip], thetas[1:][flip], d[:-1][flip], d[1:][flip]
        thetas = np.concatenate((thetas, t0 + d0 * (t1 - t0) / (d0 - d1)))
    return float(_max_abs_gaps([partial(e_thetas, f)], partial(e_thetas, g), thetas)[0])


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


def _discontinuity_flag(members: Sequence[RankFunction], grid_n: int) -> bool:
    """Detect that the pointwise limit cannot be continuous (heuristic).

    Uniform convergence of continuous functions forces a continuous limit,
    so a uniform Cauchy gap sup|Z_next - Z_n| that refuses to shrink along
    the n list is the desk-scale signature of a discontinuous pointwise
    limit.  With a single consecutive pair the fallback looks for a jump in
    the largest member exceeding a tenth of its value range over one grid
    step.  Needs a reasonably geometric spread of n values to be sharp.
    The gaps are ``sup_distance``'s, so the members must share a domain.
    """
    n = min(grid_n, 2_000)
    gaps = [sup_distance(a, b, n) for a, b in zip(members, members[1:])]
    if len(gaps) >= 2:
        return gaps[-1] > 0.5 * gaps[0] and gaps[-1] > 1e-6
    est = members[-1].values(_grid(members, 0.0, members[-1].T, n))
    return float(np.max(np.abs(np.diff(est)))) > 0.1 * float(np.max(est) - np.min(est))


def run_study(
    seq: FunctionSequence,
    grid_n: int = 10_000,
    theta_grid_n: int = 1_000,
) -> ConvergenceReport:
    """Tabulate sup distances per n against the sequence's limit.

    Without a limit the distance columns stay empty and the report instead
    carries the discontinuity flag for the empirical pointwise limit.  Both
    grids need at least 2 points, with or without a limit.
    """
    if theta_grid_n < 2:
        raise InputError(f"theta_grid_n must be >= 2, got {theta_grid_n}")
    members = [seq.family(n) for n in seq.n_values]
    limit = seq.limit
    sup_fn = [None] * len(members) if limit is None else _sup_distances(members, limit, grid_n)
    rows = tuple(
        ConvergenceRow(n, None, None, None) if limit is None
        else ConvergenceRow(n, sup, inverse_sup_distance(m, limit, theta_grid_n),
                            e_sup_distance(m, limit, theta_grid_n))
        for n, m, sup in zip(seq.n_values, members, sup_fn))
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
