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
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from ebundles.axioms import AxiomReport, RelationKind, Violation
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
        xs = np.array([k.x for k in f.knots])
        ys = np.array([k.y for k in f.knots])
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


def _scalar_levels(bundle, p, n, fns=None):
    ru, rl = bundle.admissible(p.upper), bundle.admissible(p.lower)
    a = p.prefix_end
    if fns is None:
        lo_t, hi_t = max(ru.lo, rl.lo), min(ru.hi, rl.hi)
        if lo_t > hi_t:
            return []
        if not math.isinf(hi_t):
            return [float(t) for t in np.linspace(lo_t, hi_t, n)]
        fns, a = (p.upper, p.lower), p.upper.T
    xs = np.linspace(0.0, a, n + 1)[1:].tolist()
    levels = {t for g in fns for x in xs if math.isfinite(t := bundle.level_of(g, x))}
    return sorted(t for t in levels if ru.contains(t) and rl.contains(t))


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
        thetas = _scalar_levels(bundle, p, theta_grid)
        if not thetas:
            return None, True
        return first_violation(idx, p, thetas, below, drop, slack, ""), False

    def strict(idx, p):
        thetas = _scalar_levels(bundle, p, theta_grid, (p.upper, p.lower))
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
