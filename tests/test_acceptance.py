"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Tolerances are fixed here and in the library, nothing is calibrated at
runtime; the independent expected values come from closed forms derived by
hand and from the dense Riemann oracles in ``oracles.py``.
"""

import time

import numpy as np

import oracles
from conftest import seeded_pwl
from ebundles.axioms import (
    DominancePair,
    RelationKind,
    check_impact_bundle,
    check_strong_impact,
    eta_theta,
    fixture_alt1,
    fixture_alt2,
    fixture_global,
    generate_pairs,
    n_theta,
    verify_pair,
)
from ebundles.bundles import E_BUNDLE, classical_h, e_index, e_theta, r_index_squared
from ebundles.convergence import run_study, scaled_linear_sequence
from ebundles.functions import (
    CumulativeOrder,
    LinearFamily,
    PiecewiseLinearFn,
    PowerComplement,
    ZipfFamily,
    cumulative_dominates,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_linear_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for S in (1.0, 10.0, 100.0):
        for T in (1.0, 20.0):
            f = LinearFamily(S=S, T=T)
            for theta in np.linspace(0.0, S, 1000):
                want = T * (S - theta) ** 2 / (2 * S)
                worst = max(worst, abs(e_theta(f, float(theta)) - want))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-9 and elapsed < 1.0,
        f"max |e - closed form| = {worst:.3e} over 6 families x 1000 levels, {elapsed:.2f}s",
    )


def test_criterion_2_zipf_closed_form():
    t0 = time.perf_counter()
    worst_main = worst_pair = 0.0
    for beta in (0.3, 0.5, 0.7):
        f = ZipfFamily(beta=beta, T=1.0)
        alpha = (beta + 1.0) / beta
        for theta in np.linspace(1.1, 10.0, 1000):
            got = e_theta(f, float(theta))
            form_beta = 1.0 * (beta / (1.0 - beta)) * theta ** (1.0 - 1.0 / beta)
            form_alpha = 1.0 / ((alpha - 2.0) * theta ** (alpha - 2.0))
            worst_main = max(worst_main, abs(got - form_beta))
            worst_pair = max(worst_pair, abs(form_beta - form_alpha))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        worst_main <= 1e-6 and worst_pair <= 1e-9 and elapsed < 2.0,
        f"|e - exponent form| = {worst_main:.3e}, two forms differ {worst_pair:.3e}, {elapsed:.2f}s",
    )


def test_criterion_3_excess_root_consistency():
    rng = np.random.default_rng(2024)
    worst_vs_e = worst_vs_r = 0.0
    for _ in range(50):
        f = seeded_pwl(rng)
        h = classical_h(f)
        e = e_index(f)
        worst_vs_e = max(worst_vs_e, abs(e * e - e_theta(f, h)))
        worst_vs_r = max(worst_vs_r, abs(e * e - (r_index_squared(f) - h * h)))
    # hand check: Z = 10 - x gives h = 5, R^2 = 37.5, e^2 = 12.5
    line = PiecewiseLinearFn.from_pairs([(0, 10), (10, 0)])
    hand = (
        abs(classical_h(line) - 5.0) <= 1e-10
        and abs(r_index_squared(line) - 37.5) <= 1e-9
        and abs(e_index(line) ** 2 - 12.5) <= 1e-9
    )
    _report(
        3,
        worst_vs_e <= 1e-9 and worst_vs_r <= 1e-9 and hand,
        f"50 seeded functions: |e^2 - excess@h| = {worst_vs_e:.3e}, "
        f"|e^2 - (R^2 - h^2)| = {worst_vs_r:.3e}, hand case ok = {hand}",
    )


def test_criterion_4_impact_bundle_property_suite():
    t0 = time.perf_counter()
    pairs = generate_pairs(seed=1, count=200)
    assert len(pairs) == 800  # 200 per relation kind
    reports = check_impact_bundle(E_BUNDLE, pairs)
    elapsed = time.perf_counter() - t0
    counts = {k: (r.pairs_tested, len(r.violations)) for k, r in reports.items()}
    ok = (
        all(r.passed for r in reports.values())
        and reports["AX.2"].pairs_tested == 200
        and reports["AX.3"].pairs_tested == 200
        and reports["AX.4"].pairs_tested == 200
        and elapsed < 30.0
    )
    _report(4, ok, f"tested/violations per axiom: {counts}, {elapsed:.1f}s")


def test_criterion_5_strong_impact_property_suite():
    t0 = time.perf_counter()
    pairs = generate_pairs(seed=2, count=200)[:200]  # the GEQ_ALL pairs
    pairs += tuple(p for p in generate_pairs(seed=3, count=200)
                   if p.relation is RelationKind.EQUAL_ON_PREFIX)
    reports = check_strong_impact(E_BUNDLE, 1.0, pairs)

    # the boundary level Z(T) = theta must be excluded and flagged
    lo = PiecewiseLinearFn.from_pairs([(0, 4), (1, 1)])
    up = PiecewiseLinearFn.from_pairs([(0, 5), (1, 1)])
    boundary_pair = verify_pair(DominancePair(up, lo, RelationKind.GEQ_ALL))
    boundary_rep = check_strong_impact(E_BUNDLE, 1.0, [boundary_pair])["SM.3"]
    elapsed = time.perf_counter() - t0

    ok = (
        all(r.passed for r in reports.values())
        and reports["SM.3"].pairs_tested == 200  # every pair passed the
        # average-ordering hypothesis at the interior level 1
        and reports["SM.2"].pairs_tested == 200
        and reports["SM.4"].pairs_tested >= 10
        and boundary_rep.pairs_tested == 0
        and "boundary" in boundary_rep.note
        and elapsed < 30.0
    )
    _report(
        5,
        ok,
        f"SM.3 tested {reports['SM.3'].pairs_tested}/200 hypothesis-passing pairs, "
        f"SM.4 tested {reports['SM.4'].pairs_tested}, boundary flagged = "
        f"{'boundary' in boundary_rep.note}, {elapsed:.1f}s",
    )


def test_criterion_6_global_counterexample():
    fx = fixture_global()
    e_lo = e_theta(fx.pair.lower, fx.theta)
    e_up = e_theta(fx.pair.upper, fx.theta)
    order = cumulative_dominates(fx.pair.lower, fx.pair.upper).order
    facts = oracles.exact_order_facts(fx.pair.upper, fx.pair.lower)
    distinct = not oracles.exact_relation_holds(RelationKind.EQUAL_ON_PREFIX, facts)
    ok = (
        abs(e_lo - 1.0) <= 1e-12
        and abs(e_up - 1.0) <= 1e-12
        and order is CumulativeOrder.PRECEDES
        and distinct
    )
    _report(
        6,
        ok,
        f"e_1(lower) = {e_lo!r}, e_1(upper) = {e_up!r}, lower strictly precedes "
        f"and differs: {order is CumulativeOrder.PRECEDES and distinct}",
    )


def test_criterion_7_per_rank_alternative():
    fx = fixture_alt1()
    n_lo = n_theta(fx.pair.lower, 1.0)
    n_up = n_theta(fx.pair.upper, 1.0)
    facts = oracles.exact_order_facts(fx.pair.upper, fx.pair.lower, a=1.0)
    ok = (
        abs(n_lo - 0.5) <= 1e-12
        and abs(n_up - 0.257 / 0.9) <= 1e-12
        and oracles.exact_relation_holds(RelationKind.STRICT_ON_PREFIX, facts)
        and oracles.exact_relation_holds(RelationKind.GEQ_ALL, facts)
        and n_up < n_lo
    )
    _report(
        7,
        ok,
        f"upper > lower on [0, 1) yet n_1(upper) = {n_up:.9f} < n_1(lower) = {n_lo:.9f}",
    )


def test_criterion_8_own_level_alternative():
    fx = fixture_alt2()
    eta_lo = eta_theta(fx.pair.lower, fx.theta)
    eta_up = eta_theta(fx.pair.upper, fx.theta)
    facts = oracles.exact_order_facts(fx.pair.upper, fx.pair.lower)
    # 3 T^2/16 > T^2/8 at T = 1, both exactly representable
    ok = (eta_lo == 0.1875 and eta_up == 0.125
          and oracles.exact_relation_holds(RelationKind.GEQ_ALL, facts))
    _report(8, ok, f"eta(lower) = {eta_lo!r} > eta(upper) = {eta_up!r} despite dominance")


def test_criterion_9_convergence_study():
    t0 = time.perf_counter()
    seq = scaled_linear_sequence([10, 100, 1000, 10_000])
    report = run_study(seq, grid_n=10_000, theta_grid_n=1_000)
    by_n = {r.n: r for r in report.rows}
    e_1k = by_n[1000].sup_e
    e_10k = by_n[10_000].sup_e
    inv_ok = all(
        by_n[n].sup_inv <= 1.0 / (n + 1) + 1e-9 for n in (10, 100, 1000, 10_000)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        abs(e_1k - 5e-4) <= 0.2 * 5e-4
        and e_10k < 1e-4
        and inv_ok
        and elapsed < 10.0
    )
    _report(
        9,
        ok,
        f"sup_e(n=1e3) = {e_1k:.3e} (target 5e-4 +-20%), sup_e(n=1e4) = {e_10k:.3e}, "
        f"inverse column under 1/(n+1): {inv_ok}, {elapsed:.1f}s",
    )


def test_criterion_10_riemann_oracle_equivalence():
    checks: list[tuple[str, float, float]] = []

    lin = LinearFamily(S=10, T=20)
    for x in (5.0, 12.5, 20.0):
        checks.append((f"linear I({x})", lin.cumulative(x), oracles.oracle_cumulative(lin, x)))

    for beta in (0.3, 0.5, 0.7):
        z = ZipfFamily(beta=beta, T=1.0)
        for x in (0.3, 1.0):
            checks.append(
                (f"zipf b={beta} I({x})", z.cumulative(x), oracles.oracle_cumulative(z, x))
            )

    p = PowerComplement(n=3)
    for x in (0.5, 1.0):
        checks.append((f"power I({x})", p.cumulative(x), oracles.oracle_cumulative(p, x)))

    for name, fx in (("global", fixture_global()), ("alt1", fixture_alt1()), ("alt2", fixture_alt2())):
        for which, f in (("upper", fx.pair.upper), ("lower", fx.pair.lower)):
            x = f.T / 2
            checks.append(
                (f"{name}.{which} I({x})", f.cumulative(x), oracles.oracle_cumulative(f, x))
            )

    # excess areas through the oracle's own inversion and integration
    checks.append(("linear e@4", e_theta(lin, 4.0), oracles.oracle_excess_area(lin, 4.0)))
    fx = fixture_global()
    for which, f in (("upper", fx.pair.upper), ("lower", fx.pair.lower)):
        checks.append((f"global.{which} e@1", e_theta(f, 1.0), oracles.oracle_excess_area(f, 1.0)))

    worst_name, worst_rel = "", 0.0
    for name, got, want in checks:
        rel = abs(got - want) / max(1e-12, abs(want))
        if rel > worst_rel:
            worst_name, worst_rel = name, rel
    _report(
        10,
        worst_rel <= 1e-6,
        f"{len(checks)} integrals vs 1e6-panel Riemann oracle, worst {worst_name}: {worst_rel:.2e}",
    )
