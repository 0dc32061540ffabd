"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the library's own evaluation paths:
piecewise linear functions are evaluated with ``np.interp``, parametric
families with their raw formulas, inverses with Brent root finding, and all
integrals with a dense midpoint Riemann sum (graded toward the origin for
integrands with an integrable pole there).

``scalar_impact_bundle`` is the reference for ``check_impact_bundle``: the
scalar loop over levels, one ``measure`` call per member and level, that
the vector level path replaced.

``exact_order_facts`` and ``exact_relation_holds`` decide the dominance
relations of a piecewise linear pair in rational arithmetic
(``fractions.Fraction``), at the merged knots.

``continuize_by_run_split`` is the reference for ``from_citations``' knots:
the run split by hand (sort, the starts of the tied runs, their lengths by
``np.diff``) that ``np.unique``'s runs replaced, with the same tie-break
arithmetic.

``parse_citations_by_line`` is the reference for ``parse_citations``: the
per-line loop that the vector parse replaced, which reads each line with
``float`` and stops at the first bad one.

``knots_by_nested_array`` is the reference for
``PiecewiseLinearFn.from_pairs``'s conversion: one ``np.array`` over the
nested pair list, and its shape check, which the flat ``np.fromiter`` read
replaced.

``SearchsortedPwl`` is the reference for a ``PiecewiseLinearFn``'s reads:
the arithmetic the function ran on its own before it read through a
one-row ``_PwlStack``, with ``np.searchsorted`` segment finders and a 1-d
trapezoid prefix.

``run_axiom_per_item`` is the reference for ``axioms._run_axiom``: the
loop over one outcome object per item (None, a ``Violation`` or a skip
reason) that the array driver replaced.

``csv_by_rows`` and ``json_by_dumps`` are the references for the table
writers (``SweepTable.to_csv``/``to_json``, ``ConvergenceReport.to_csv``):
a line per row of each value's ``repr`` (``NA`` for None), and
``json.dumps``'s indented, key-sorted encoding of the rows, which the
column writers through orjson replaced.  ``eval_by_rows`` is the reference
for ``eval``'s report and JSON: the same row dicts, a line of f-strings
per level and ``json.dumps`` of the whole report, which the level lines
laid out in one ``%`` and the sweep's JSON rows replaced.

``pairs_one_at_a_time`` is the reference for ``generate_pairs``: it makes
the generator's rng calls, in its order, round by round (``draw_round``),
then builds each pair from its row with the scalar builders and verifies it
with ``verify_pair``, one pair at a time; a failed pair's slot is drawn
again in the next round.  The array generator must match it pair for pair,
at its fixed shape.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from ebundles.axioms import (_KNOT_RANGE, _SHIFT_SCALE, AxiomReport, DominancePair,
                             GenerationError, RelationKind, VerificationError, Violation,
                             verify_pair)
from ebundles.bundles import _h_core
from ebundles.functions import (
    InputError,
    LinearFamily,
    PiecewiseLinearFn,
    PowerComplement,
    RankFunction,
    ZipfFamily,
)

RIEMANN_PANELS = 1_000_000


def oracle_value_fn(f: RankFunction):
    """A vectorized evaluator independent of the library's interpolation."""
    if isinstance(f, PiecewiseLinearFn):
        xs, ys = f.knots.T
        return lambda s: np.interp(s, xs, ys)
    if isinstance(f, LinearFamily):
        return lambda s: f.S * (1.0 - np.asarray(s) / f.T)
    if isinstance(f, ZipfFamily):
        return lambda s: (f.T / np.asarray(s)) ** f.beta
    if isinstance(f, PowerComplement):
        return lambda s: 1.0 - np.asarray(s) ** f.n
    raise TypeError(f"no oracle evaluator for {type(f).__name__}")


def riemann_integral(value_fn, x: float, panels: int = RIEMANN_PANELS, grade: float = 1.0) -> float:
    """Midpoint Riemann sum of value_fn over [0, x].

    ``grade`` > 1 packs panels toward 0 (edges at x * u**grade), which keeps
    the sum accurate for integrands with an integrable singularity there.
    """
    if x == 0.0:
        return 0.0
    u = np.linspace(0.0, 1.0, panels + 1)
    edges = x * u**grade
    mids = 0.5 * (edges[1:] + edges[:-1])
    return float(np.sum(value_fn(mids) * np.diff(edges)))


def oracle_cumulative(f: RankFunction, x: float, panels: int = RIEMANN_PANELS) -> float:
    grade = 6.0 if f.unbounded_at_origin else 1.0
    return riemann_integral(oracle_value_fn(f), x, panels, grade)


def oracle_inverse(f: RankFunction, theta: float) -> float:
    """Invert f by Brent's method, independent of the per-segment solver."""
    fn = oracle_value_fn(f)
    lo = 1e-12 * f.T if f.unbounded_at_origin else 0.0
    return float(brentq(lambda s: float(fn(s)) - theta, lo, f.T, xtol=1e-14))


def oracle_excess_area(f: RankFunction, theta: float, panels: int = RIEMANN_PANELS) -> float:
    """Excess area above level theta via oracle inversion and integration."""
    x = oracle_inverse(f, theta)
    grade = 6.0 if f.unbounded_at_origin else 1.0
    fn = oracle_value_fn(f)
    return riemann_integral(lambda s: fn(s) - theta, x, panels, grade)


def _level_span(bundle, f):
    """The span of f's level map, which is monotone: its levels at the ranks
    0 and T, in order.  The map must be defined at both."""
    ends = bundle.level_of(f, 0.0), bundle.level_of(f, f.T)
    return min(ends), max(ends)


def _scalar_levels(bundle, p, n, fns=None):
    """A pair's candidate levels, sorted: n levels across the joint span of
    its members' level maps where both ends are finite, else the finite
    levels of fns (both members by default) at n ranks on (0, a]."""
    a = p.prefix_end
    if fns is None:
        (lo_u, hi_u), (lo_l, hi_l) = (_level_span(bundle, g) for g in (p.upper, p.lower))
        lo_t, hi_t = max(lo_u, lo_l), min(hi_u, hi_l)
        if lo_t > hi_t:
            return []
        if math.isfinite(lo_t) and math.isfinite(hi_t):
            return [float(t) for t in np.linspace(lo_t, hi_t, n)]
        fns, a = (p.upper, p.lower), p.upper.T
    xs = np.linspace(0.0, a, n + 1)[1:].tolist()
    return sorted({t for g in fns for x in xs if math.isfinite(t := bundle.level_of(g, x))})


def scalar_impact_bundle(bundle, pairs, theta_grid=24, slack=1e-9, strict_slack=1e-12,
                         eq_tol=1e-10) -> dict[str, AxiomReport]:
    """AX.1-AX.4 with one scalar ``measure`` and ``level_of`` call per level."""

    def score(f, t):
        try:
            return bundle.measure(f, t)
        except InputError:
            return None

    def first_violation(idx, p, thetas, flags, gap, tol, note):
        for t in thetas:
            m_up, m_lo = score(p.upper, t), score(p.lower, t)
            if m_up is not None and m_lo is not None and flags(m_up, m_lo, tol):
                return Violation(idx, t, m_up, m_lo, gap(m_up, m_lo), note=note)
        return None

    def scored(p, thetas):
        """The levels at which both members score."""
        return [t for t in thetas
                if score(p.upper, t) is not None and score(p.lower, t) is not None]

    def below(m_up, m_lo, tol):
        return m_lo - m_up > tol

    def not_above(m_up, m_lo, tol):
        return m_up - m_lo <= tol

    def unequal(m_up, m_lo, tol):
        return abs(m_up - m_lo) > tol

    def drop(m_up, m_lo):
        return m_lo - m_up

    def distance(m_up, m_lo):
        return abs(m_up - m_lo)

    def monotone(idx, p):
        thetas = scored(p, _scalar_levels(bundle, p, theta_grid))
        if not thetas:
            return None, True
        return first_violation(idx, p, thetas, below, drop, slack, ""), False

    def strict(idx, p):
        thetas = scored(p, _scalar_levels(bundle, p, theta_grid, (p.upper, p.lower)))
        if not thetas:
            return None, True
        return first_violation(idx, p, thetas, not_above, drop, strict_slack,
                               "not strictly larger"), False

    def local(idx, p):
        for x in np.linspace(0.0, p.prefix_end, theta_grid + 1)[1:].tolist():
            lu, ll = bundle.level_of(p.upper, x), bundle.level_of(p.lower, x)
            if math.isfinite(lu) and math.isfinite(ll) and abs(lu - ll) > eq_tol:
                return Violation(idx, x, lu, ll, abs(lu - ll), note="level maps differ"), False
        thetas = _scalar_levels(bundle, p, theta_grid, (p.lower,))
        return first_violation(idx, p, thetas, unequal, distance, eq_tol, "scores differ"), False

    def report(axiom, relation, check):
        tested, skipped, violations = 0, 0, []
        for idx, p in enumerate(pairs):
            if p.relation.value != relation:
                continue
            v, skip = check(idx, p)
            skipped += skip
            tested += not skip
            if v is not None:
                violations.append(v)
        return AxiomReport(axiom, tested, tuple(violations), skipped)

    return {
        "AX.2": report("AX.2", "geq_all", monotone),
        "AX.3": report("AX.3", "strict_on_prefix", strict),
        "AX.4": report("AX.4", "equal_on_prefix", local),
    }


def _exact_value(f: PiecewiseLinearFn, x: Fraction) -> Fraction:
    """f(x) by exact linear interpolation between its knots."""
    xs = [Fraction(v) for v in f.xs.tolist()]
    ys = [Fraction(v) for v in f.ys.tolist()]
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if x <= x1:
            return y0 + (x - x0) / (x1 - x0) * (y1 - y0)
    raise ValueError(f"x={x} outside [0, {xs[-1]}]")


def exact_order_facts(upper: PiecewiseLinearFn, lower: PiecewiseLinearFn, a: float | None = None):
    """Exact extremes of upper - lower on [0, a] (a = None: [0, T]) and of
    I_lower - I_upper on [0, T], as Fractions.

    upper - lower is linear between the merged knots, so its extremes on
    [0, a] lie at the merged knots inside [0, a] or at a; I_lower - I_upper
    is quadratic there, with extremes at the knots or where lower - upper
    changes sign.
    """
    T = Fraction(upper.T)
    end = T if a is None else Fraction(a)
    merged = sorted({Fraction(x) for f in (upper, lower) for x in f.xs.tolist()})
    points = sorted({x for x in merged if x <= end} | {end})
    gaps = [_exact_value(upper, x) - _exact_value(lower, x) for x in points]
    e = [_exact_value(lower, x) - _exact_value(upper, x) for x in merged]
    d, cands = Fraction(0), [Fraction(0)]
    for u, v, eu, ev in zip(merged, merged[1:], e, e[1:]):
        if eu * ev < 0:
            x_star = u + eu * (v - u) / (eu - ev)
            cands.append(d + (x_star - u) * eu / 2)
        d += (v - u) * (eu + ev) / 2
        cands.append(d)
    return {"min_gap": min(gaps), "max_dev": max(abs(g) for g in gaps),
            "dmin": min(cands), "dmax": max(cands)}


def exact_relation_holds(relation: RelationKind, facts: dict, tol: float = 1e-12) -> bool:
    """The relation's verdict on ``exact_order_facts``, with the library's
    tolerances: >= within tol, > strictly, = within tol, and the cumulative
    order to tol * max(1, |extremes|) with upper != lower beyond tol."""
    tol = Fraction(tol)
    if relation is RelationKind.GEQ_ALL:
        return facts["min_gap"] >= -tol
    if relation is RelationKind.STRICT_ON_PREFIX:
        return facts["min_gap"] > 0
    if relation is RelationKind.EQUAL_ON_PREFIX:
        return facts["max_dev"] <= tol
    scale = max(Fraction(1), abs(facts["dmin"]), abs(facts["dmax"]))
    precedes = facts["dmax"] <= tol * scale and not facts["dmin"] >= -tol * scale
    return precedes and facts["max_dev"] > tol


def exact_averages_min(upper: PiecewiseLinearFn, lower: PiecewiseLinearFn) -> Fraction:
    """The least value of d = I_upper - I_lower over x in (0, T], exactly:
    d is quadratic between merged knots, so its least value there lies at a
    knot or where upper - lower changes sign."""
    merged = sorted({Fraction(x) for f in (upper, lower) for x in f.xs.tolist()})
    e = [_exact_value(upper, x) - _exact_value(lower, x) for x in merged]
    d, cands = Fraction(0), []
    for u, v, eu, ev in zip(merged, merged[1:], e, e[1:]):
        if eu * ev < 0:
            cands.append(d + eu * eu * (v - u) / (2 * (eu - ev)))
        d += (v - u) * (eu + ev) / 2
        cands.append(d)
    return min(cands)


def exact_averages_ordered(upper: PiecewiseLinearFn, lower: PiecewiseLinearFn) -> bool:
    """Whether upper's running average exceeds lower's at every x in
    [0, T], decided in rational arithmetic: Z_up(0) > Z_lo(0) at x = 0, and
    I_up - I_lo > 0 for x > 0."""
    return upper.ys[0] > lower.ys[0] and exact_averages_min(upper, lower) > 0


def sampled_averages_ordered(upper: RankFunction, lower: RankFunction, n: int = 512) -> bool:
    """The premise sampled at the n - 1 interior points of an n-point grid
    on [0, T) (a pole at the origin leaves x = 0 to them)."""
    xs = np.linspace(0.0, lower.T, n, endpoint=False)[1:]
    if not bool(np.all(upper.cumulatives(xs) / xs > lower.cumulatives(xs) / xs)):
        return False
    if lower.unbounded_at_origin or upper.unbounded_at_origin:
        return True
    return upper.value_at_origin() > lower.value_at_origin()


def discrete_h(counts) -> int:
    """The h-index of a citation vector: the most h papers with at least h
    citations each."""
    ranked = sorted(counts, reverse=True)
    return sum(1 for i, c in enumerate(ranked, start=1) if c >= i)


def continuized_integral(counts) -> Fraction:
    """The trapezoid integral of the knots (i, c_{i+1}), i = 0..k-1, and
    (k, 0) of the positive counts sorted decreasing, summed exactly."""
    ys = [Fraction(c) for c in sorted(counts, reverse=True) if c > 0] + [Fraction(0)]
    return sum((a + b) / 2 for a, b in zip(ys, ys[1:]))


def continuize_by_run_split(counts) -> tuple[np.ndarray, np.ndarray]:
    """The knot xs and ys of a valid citation vector with a positive count,
    its tied runs split by hand."""
    positive = np.sort(np.asarray(counts, dtype=float))[::-1]
    positive = positive[positive > 0.0]

    eps = 1e-9 * positive[0]
    starts = np.flatnonzero(np.r_[True, positive[1:] != positive[:-1]])
    run_len = np.diff(np.r_[starts, len(positive)])
    v = positive[starts]
    nxt = np.r_[v[1:], 0.0]
    run_eps = np.minimum(eps, (v - nxt) / (2.0 * run_len))
    k = np.arange(len(positive)) - np.repeat(starts, run_len)
    adjusted = positive - k * np.repeat(run_eps, run_len)
    keep = np.r_[True, adjusted[1:] < adjusted[:-1]]
    xs = np.r_[np.flatnonzero(keep), len(positive)].astype(float)
    return xs, np.r_[adjusted[keep], 0.0]


def parse_citations_by_line(text: str) -> list[float]:
    """One nonnegative count per line, blank lines skipped, read one line at
    a time."""
    out: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            v = float(stripped)
        except ValueError:
            raise InputError(f"line {lineno}: not a number: {stripped!r}") from None
        if math.isnan(v) or v < 0:
            raise InputError(f"line {lineno}: citation count must be >= 0, got {v}")
        out.append(v)
    if not out:
        raise InputError("no citation values found")
    return out


def knots_by_nested_array(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The knot xs and ys of a list of (x, y) pairs, read as one 2-d array."""
    arr = np.array(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError("knots must be a list of (x, y) pairs")
    return arr[:, 0], arr[:, 1]


class SearchsortedPwl:
    """A piecewise linear function's values, cumulatives, inverses and ray
    crossings, each segment found by ``np.searchsorted`` among the interior
    knots (ray crossings by counting the interior knots whose residual
    y - theta * x is positive), then the same interpolation and trapezoid
    expressions, so the floats must match the library's bit for bit."""

    def __init__(self, f: PiecewiseLinearFn) -> None:
        self.xs, self.ys, self.T = f.xs, f.ys, f.T
        self.dxs = f.xs[1:] - f.xs[:-1]
        self.dys = f.ys[1:] - f.ys[:-1]
        seg = self.dxs * (f.ys[:-1] + f.ys[1:]) * 0.5
        self.area_prefix = np.concatenate(([0.0], np.cumsum(seg)))

    def _segments(self, xs):
        # j counts the interior knots at or left of x, so T is on the last segment
        xs = np.asarray(xs, dtype=float)
        j = np.searchsorted(self.xs[1:-1], xs, side="right")
        return xs, j, xs - self.xs[j]

    def _interpolate(self, xs, j, dx):
        y = self.ys[j] + dx / self.dxs[j] * self.dys[j]
        return np.where(xs == self.T, self.ys[-1], y)

    def values(self, xs):
        return self._interpolate(*self._segments(xs))

    def cumulatives(self, xs):
        xs, j, dx = self._segments(xs)
        return self.area_prefix[j] + dx * (self.ys[j] + self._interpolate(xs, j, dx)) * 0.5

    def inverses(self, thetas):
        """At levels snapped onto [Z(T), Z(0)]; j counts the interior knots
        above each."""
        thetas = np.clip(np.asarray(thetas, dtype=float), self.ys[-1], self.ys[0])
        j = np.searchsorted(-self.ys[1:-1], -thetas, side="left")
        x = self.xs[j] + (thetas - self.ys[j]) / self.dys[j] * self.dxs[j]
        return np.minimum(x, self.T)

    def ray_crossings(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        residual = self.ys[1:-1] - thetas[..., None] * self.xs[1:-1]
        j = (residual > 0.0).sum(axis=-1)
        r0 = self.ys[j] - thetas * self.xs[j]
        r1 = self.ys[j + 1] - thetas * self.xs[j + 1]
        return self.xs[j] + r0 * self.dxs[j] / (r0 - r1)


# ---------------------------------------------------------------------------
# The pair generator, one pair at a time


def draw_round(rng: np.random.Generator, kinds: list[RelationKind]) -> list[tuple]:
    """A generator round's draws, in its order: every knot count, every
    row's uniforms, the EQUAL_ON_PREFIX rows' alternative split knots, then,
    row by row, ranks drawn again until they lie 1e-6 apart.  One (k, ranks,
    tail, drops, total, draws, split) per row, the drops and draws still
    uniforms on [0, 1)."""
    top = _KNOT_RANGE[1]
    sizes = rng.integers(_KNOT_RANGE[0], top + 1, size=len(kinds)).tolist()
    u = rng.random((len(kinds), 2 * top + 2)).tolist()
    equal = [i for i, kind in enumerate(kinds) if kind is RelationKind.EQUAL_ON_PREFIX]
    alts = dict(zip(equal, rng.integers(1, np.array([sizes[i] - 1 for i in equal], dtype=int))
                    .tolist()))
    rows = []
    for i, (k, row) in enumerate(zip(sizes, u)):
        ranks = sorted(row[: k - 2])
        for _ in range(100):
            xs = [0.0, *ranks, 1.0]
            if min(b - a for a, b in zip(xs, xs[1:])) > 1e-6:
                break
            ranks = sorted(rng.random(k - 2).tolist())
        else:
            raise GenerationError("could not draw well-separated knot ranks")
        rows.append((k, ranks, row[top - 2], row[top - 1 : top - 1 + k - 1], row[2 * top - 2],
                     row[2 * top - 1 :], alts.get(i)))
    return rows


def _scaled(lo: float, hi: float, u: float) -> float:
    """``rng.uniform(lo, hi)`` of the draw u of ``rng.random``."""
    return lo + (hi - lo) * u


def _random_pwl(k, ranks, tail, drops, total) -> PiecewiseLinearFn:
    xs = np.array([0.0, *ranks, 1.0])
    drops = np.array([_scaled(0.3, 1.0, d) for d in drops])
    drops *= _scaled(3.0, 10.0, total) / drops.sum()
    ys = _scaled(0.0, 0.4, tail) + np.concatenate((np.cumsum(drops[::-1])[::-1], [0.0]))
    return PiecewiseLinearFn(xs, ys)


def _shifted(z: PiecewiseLinearFn, c: float, taper: bool) -> PiecewiseLinearFn:
    """z plus a positive shift: constant, or linearly decaying to c/2 at T."""
    bump = c * (1.0 - 0.5 * z.xs / z.T) if taper else c
    return PiecewiseLinearFn(z.xs, z.ys + bump)


def _prefix_gap(z: PiecewiseLinearFn, g: float, b: float) -> PiecewiseLinearFn:
    """z plus the wedge g * max(0, 1 - x/b): strictly above z on [0, b)."""
    xs = np.union1d(z.xs, [b])
    return PiecewiseLinearFn(xs, z.values(xs) + g * np.maximum(0.0, 1.0 - xs / b))


def _equal_prefix_variant(z: PiecewiseLinearFn, split: int, lam: float) -> PiecewiseLinearFn:
    """Copy z up to knot ``split``, then shrink the remaining drop by lam."""
    za = z.ys[split]
    ys = z.ys.copy()
    ys[split + 1:] = za + lam * (ys[split + 1:] - za)
    return PiecewiseLinearFn(z.xs, ys)


def build_pair(kind: RelationKind, row: tuple) -> DominancePair:
    """The pair of one row of ``draw_round``, built on [0, 1]; raises
    ``InputError`` when a member fails its checks."""
    k, ranks, tail, drops, total, (p, q, r), alt = row
    z = _random_pwl(k, ranks, tail, drops, total)
    if kind is RelationKind.GEQ_ALL or kind is RelationKind.CUMULATIVE_PREC:
        y = _shifted(z, _scaled(0.05, _SHIFT_SCALE, p), taper=q < 0.5)
        return DominancePair(upper=y, lower=z, relation=kind)
    if kind is RelationKind.STRICT_ON_PREFIX:
        a = _scaled(0.25, 0.75, p)
        b = _scaled(a + 0.05, 1.0, q)
        g = _scaled(0.05, _SHIFT_SCALE, r)
        return DominancePair(upper=_prefix_gap(z, g, b), lower=z, relation=kind, prefix_end=a)
    # bias toward deep prefixes so level-threshold checks get coverage
    split = k - 2 if p < 0.5 else alt
    y = _equal_prefix_variant(z, split, _scaled(0.2, 0.8, q))
    return DominancePair(upper=y, lower=z, relation=kind, prefix_end=float(z.xs[split]))


def pairs_one_at_a_time(seed, count, drop=lambda round, row: False):
    """``generate_pairs``'s pairs, each built and verified on its own: a
    round draws a row for every open slot of every kind, in enum order
    (``draw_round``), and builds and verifies (``verify_pair``) one pair a
    row; a slot whose pair fails stays open for the next round, up to 100
    rounds.  ``drop(round, row)`` rejects a row's pair that would otherwise
    pass."""
    rng, done = np.random.default_rng(seed), {kind: [] for kind in RelationKind}
    for round in range(100):
        kinds = [kind for kind in RelationKind for _ in range(count - len(done[kind]))]
        for row, (kind, drawn) in enumerate(zip(kinds, draw_round(rng, kinds))):
            try:
                pair = build_pair(kind, drawn)
                if not drop(round, row):
                    done[kind].append(verify_pair(pair))
            except (InputError, VerificationError):
                pass
        if all(len(v) == count for v in done.values()):
            return [p for kind in RelationKind for p in done[kind]]
    kind = next(kind for kind in RelationKind if len(done[kind]) < count)
    raise GenerationError(f"gave up generating a {kind.value} pair")


def run_axiom_per_item(axiom: str, outcomes, note: str = "", uncounted: str = "skipped"):
    """The report on one axiom's outcomes, one per item: None when the item
    satisfies the axiom, a ``Violation`` when it breaks it, or a skip reason
    when the axiom does not apply.  The report's note counts every skip
    reason other than ``uncounted``, in order of first appearance."""
    tested = 0
    violations = []
    skips = Counter()
    for outcome in outcomes:
        if isinstance(outcome, str):
            skips[outcome] += 1
            continue
        tested += 1
        if outcome is not None:
            violations.append(outcome)
    counted = [f"{reason}: {n}" for reason, n in skips.items() if reason != uncounted]
    note = "; ".join(filter(None, [note, *counted]))
    return AxiomReport(axiom, tested, tuple(violations), sum(skips.values()), note)


def csv_by_rows(names, rows) -> str:
    """A header of the column names, then a line per row: each value's
    ``repr``, ``NA`` for None."""
    lines = [",".join(names)]
    lines += [",".join("NA" if v is None else repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def sweep_row_dicts(table) -> list[dict]:
    """A sweep table's rows as the JSON writers took them: a dict per
    ``SweepRow``, None for NaN."""
    return [dict(vars(r)) for r in table.rows]


def json_by_dumps(table) -> str:
    """A sweep table's rows as json writes them, indented and key-sorted."""
    return json.dumps({"rows": sweep_row_dicts(table)}, indent=2, sort_keys=True)


def _fmt_val(v: float | None) -> str:
    return "NA" if v is None else f"{v:.6f}"


def eval_by_rows(f, table) -> tuple[str, str]:
    """``eval``'s report and ``--output`` JSON on f, with the levels of a
    sweep table (None for none), a row at a time: each level's line one
    f-string over its ``sweep_row_dicts`` dict, and ``per_theta`` those
    dicts, which json encodes with the rest of the report."""
    rng = f.admissible_range()
    hi_txt = "inf" if rng.unbounded_above else f"{rng.hi:g}"
    lines = [f"domain: [0, {f.T:g}]", f"admissible levels: [{rng.lo:g}, {hi_txt}]"]
    result = {"T": f.T, "theta_lo": rng.lo, "theta_hi": None if rng.unbounded_above else rng.hi}
    try:
        h, r2, e = _h_core(f)
        lines.append(f"classical h:   {h:.6f}")
        lines.append(f"R^2 (h-core):  {r2:.6f}")
        lines.append(f"e-index:       {e:.6f}  (excess area at h: {e * e:.6f})")
        result.update({"h": h, "r_squared": r2, "e_index": e})
    except InputError as exc:
        lines.append(f"classical h:   NA ({exc})")
        result.update({"h": None, "r_squared": None, "e_index": None})
    if table is not None:
        result["per_theta"] = sweep_row_dicts(table)
        lines.append("theta        e            h            mu           i")
        for r in result["per_theta"]:
            lines.append(
                f"{r['theta']:<12.6g} {_fmt_val(r['e']):<12} {_fmt_val(r['h']):<12} "
                f"{_fmt_val(r['mu']):<12} {_fmt_val(r['i']):<12}"
            )
    return "\n".join(lines) + "\n", json.dumps(result, indent=2, sort_keys=True) + "\n"
