import dataclasses
import hashlib
import math

import numpy as np
import pytest

import oracles
from ebundles.axioms import (
    AxiomReport,
    DominancePair,
    GeneratorConfig,
    RelationKind,
    VerificationError,
    check_global_impact,
    check_impact_bundle,
    check_impact_measure,
    check_strong_impact,
    eta_theta,
    fixture_alt1,
    fixture_alt2,
    fixture_global,
    generate_pairs,
    n_theta,
    pseudo_bundle_eta,
    pseudo_bundle_n,
    verify_pair,
    _strong_impact,
)
from ebundles.bundles import (
    E_BUNDLE,
    H_BUNDLE,
    I_BUNDLE,
    MU_BUNDLE,
    BundleDef,
    e_theta,
    i_bundle,
)
from ebundles.functions import (
    CumulativeOrder,
    InputError,
    PiecewiseLinearFn,
    ThetaRange,
    compare,
    cumulative_dominates,
)


@pytest.fixture(scope="module")
def small_pairs():
    return generate_pairs(GeneratorConfig(seed=5, count=15))


class TestFixtureGlobal:
    def test_equal_excess_areas(self):
        fx = fixture_global()
        e_lo = e_theta(fx.pair.lower, fx.theta)
        e_up = e_theta(fx.pair.upper, fx.theta)
        assert abs(e_lo - 1.0) <= 1e-12
        assert abs(e_up - 1.0) <= 1e-12
        assert abs(e_lo - e_up) <= 1e-12

    def test_cumulative_strictly_precedes(self):
        fx = fixture_global()
        v = cumulative_dominates(fx.pair.lower, fx.pair.upper)
        assert v.order is CumulativeOrder.PRECEDES
        # functions differ although cumulative totals meet at x = 1 and stay
        # together (identical suffix knots give bitwise equal values there)
        assert not compare(fx.pair.upper, fx.pair.lower).equal_on_prefix
        for x in (1.0, 1.3, 1.7, 2.0):
            assert fx.pair.upper.value(x) == fx.pair.lower.value(x)

    def test_crossing_totals_equal_at_level_rank(self):
        fx = fixture_global()
        assert i_bundle(fx.pair.upper, 1.0) == pytest.approx(2.0, abs=1e-12)
        assert i_bundle(fx.pair.lower, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_values_against_oracle(self):
        fx = fixture_global()
        for f in (fx.pair.upper, fx.pair.lower):
            assert e_theta(f, 1.0) == pytest.approx(
                oracles.oracle_excess_area(f, 1.0, panels=10**5), rel=1e-6
            )


class TestFixtureAlt1:
    def test_frozen_values(self):
        fx = fixture_alt1()
        up, lo = fx.pair.upper, fx.pair.lower
        assert up.inverse(1.0) == 0.9
        assert lo.inverse(1.0) == 0.5
        assert n_theta(lo, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert n_theta(up, 1.0) == pytest.approx(0.257 / 0.9, abs=1e-12)
        # the excess area itself still grows: 0.257 > 0.25
        assert e_theta(up, 1.0) == pytest.approx(0.257, abs=1e-12)
        assert e_theta(lo, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_dominance_shape(self):
        fx = fixture_alt1()
        v = compare(fx.pair.upper, fx.pair.lower, a=1.0, grid_n=10_000)
        assert v.geq_everywhere and v.strict_on_prefix
        assert v.min_gap == pytest.approx(0.01, abs=1e-12)

    def test_ordering_inverts(self):
        fx = fixture_alt1()
        assert n_theta(fx.pair.upper, 1.0) < n_theta(fx.pair.lower, 1.0)


class TestFixtureAlt2:
    def test_frozen_values(self):
        fx = fixture_alt2()
        assert eta_theta(fx.pair.lower, 0.5) == 0.1875  # 3 T^2 / 16 at T = 1
        assert eta_theta(fx.pair.upper, 0.5) == 0.125  # T^2 / 8

    def test_dominance_shape(self):
        fx = fixture_alt2()
        v = compare(fx.pair.upper, fx.pair.lower, grid_n=10_000)
        assert v.geq_everywhere
        assert eta_theta(fx.pair.lower, fx.theta) > eta_theta(fx.pair.upper, fx.theta)

    def test_riemann_oracle_agreement(self):
        fx = fixture_alt2()
        for f in (fx.pair.upper, fx.pair.lower):
            got = f.cumulative(0.5)
            assert got == pytest.approx(oracles.oracle_cumulative(f, 0.5, 10**5), rel=1e-6)


class TestAlternativeScores:
    def test_n_by_hand(self):
        z = PiecewiseLinearFn.from_pairs([(0, 2), (1, 0)])
        assert n_theta(z, 1.0) == pytest.approx(0.5, abs=1e-12)  # 0.25 / 0.5

    def test_n_at_bottom_level(self):
        z = PiecewiseLinearFn.from_pairs([(0, 2), (1, 0)])
        # full-domain average of the excess: e_0 / T = 1 / 1
        assert n_theta(z, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_n_at_peak_guard(self):
        z = PiecewiseLinearFn.from_pairs([(0, 2), (1, 0)])
        with pytest.raises(InputError):
            n_theta(z, 2.0)

    def test_eta_by_hand(self):
        y = PiecewiseLinearFn.from_pairs([(0, 1), (1, 0)])
        assert eta_theta(y, 0.5) == 0.125  # T^2 / 8

    def test_eta_at_zero(self):
        y = PiecewiseLinearFn.from_pairs([(0, 1), (1, 0)])
        assert eta_theta(y, 0.0) == 0.0

    def test_eta_domain(self):
        y = PiecewiseLinearFn.from_pairs([(0, 1), (1, 0)])
        with pytest.raises(InputError):
            eta_theta(y, 1.5)


class TestVerifyPair:
    def test_bad_geq_claim(self):
        up = PiecewiseLinearFn.from_pairs([(0, 1), (1, 0.5)])
        lo = PiecewiseLinearFn.from_pairs([(0, 2), (1, 0)])
        with pytest.raises(VerificationError):
            verify_pair(DominancePair(up, lo, RelationKind.GEQ_ALL))

    def test_missing_prefix_end(self):
        up = PiecewiseLinearFn.from_pairs([(0, 2), (1, 1)])
        lo = PiecewiseLinearFn.from_pairs([(0, 1), (1, 0)])
        with pytest.raises(InputError):
            verify_pair(DominancePair(up, lo, RelationKind.STRICT_ON_PREFIX))

    def test_unverified_pairs_rejected_by_checks(self):
        up = PiecewiseLinearFn.from_pairs([(0, 2), (1, 1)])
        lo = PiecewiseLinearFn.from_pairs([(0, 1), (1, 0)])
        pair = DominancePair(up, lo, RelationKind.GEQ_ALL)
        with pytest.raises(InputError):
            check_impact_bundle(E_BUNDLE, [pair])

    def test_cumulative_relation_rejects_equal_functions(self):
        f = PiecewiseLinearFn.from_pairs([(0, 2), (1, 1)])
        with pytest.raises(VerificationError):
            verify_pair(DominancePair(f, f, RelationKind.CUMULATIVE_PREC))


class TestImpactBundleChecks:
    @pytest.mark.parametrize("bundle", [E_BUNDLE, H_BUNDLE, MU_BUNDLE, I_BUNDLE],
                             ids=["e", "h", "mu", "i"])
    def test_built_in_bundles_pass(self, bundle, small_pairs):
        reports = check_impact_bundle(bundle, small_pairs)
        for key in ("AX.1", "AX.2", "AX.3", "AX.4"):
            assert reports[key].passed, reports[key]
        assert reports["AX.2"].pairs_tested == 15
        assert reports["AX.3"].pairs_tested == 15
        assert reports["AX.4"].pairs_tested == 15

    def test_identical_pair_has_zero_gap(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        twin = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        pair = verify_pair(
            DominancePair(f, twin, RelationKind.EQUAL_ON_PREFIX, prefix_end=f.T)
        )
        rep = check_impact_bundle(E_BUNDLE, [pair])["AX.4"]
        assert rep.passed and rep.pairs_tested == 1

    def test_pseudo_bundle_n_breaks_monotonicity(self):
        rep = check_impact_bundle(pseudo_bundle_n(), [fixture_alt1().pair], theta_grid=200)
        ax2 = rep["AX.2"]
        assert not ax2.passed
        v = ax2.violations[0]
        assert v.lhs < v.rhs  # dominating function scored lower
        assert v.gap > 1e-9


# A custom bundle with scalar callables only: its vector forms loop over them.
E_SCALAR_ONLY = BundleDef(
    name="e-scalar",
    measure=e_theta,
    level_of=lambda f, x: f.value(x),
    admissible=lambda f: f.admissible_range(),
)

AX_BUNDLES = {
    "e": E_BUNDLE, "h": H_BUNDLE, "mu": MU_BUNDLE, "i": I_BUNDLE,
    "n": pseudo_bundle_n(), "eta": pseudo_bundle_eta(), "e-scalar": E_SCALAR_ONLY,
}


def _ax_json(reports):
    return {k: reports[k].to_json_obj() for k in ("AX.2", "AX.3", "AX.4")}


class TestImpactBundleAgainstScalarLoop:
    """``check_impact_bundle`` scores every level of a pair in one vector call
    per member; the reports, violation floats included, must equal those of
    the scalar loop in ``oracles.scalar_impact_bundle``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(AX_BUNDLES))
    def test_generated_pairs(self, name, seed):
        pairs = generate_pairs(GeneratorConfig(seed=seed, count=6))
        bundle = AX_BUNDLES[name]
        want = oracles.scalar_impact_bundle(bundle, pairs)
        assert _ax_json(check_impact_bundle(bundle, pairs)) == _ax_json(want)

    @pytest.mark.parametrize("name", sorted(AX_BUNDLES))
    def test_fixtures(self, name):
        pairs = [fixture_alt1().pair, fixture_alt2().pair]
        bundle = AX_BUNDLES[name]
        want = oracles.scalar_impact_bundle(bundle, pairs, theta_grid=200)
        got = check_impact_bundle(bundle, pairs, theta_grid=200)
        assert _ax_json(got) == _ax_json(want)
        if name == "n":  # the per-rank excess score must not borrow e's vector scores
            assert not got["AX.2"].passed

    def test_replaced_measure_is_scored(self):
        # a bundle that swaps e's score for n must be scored with n, not e
        bundle = dataclasses.replace(E_BUNDLE, measure=n_theta)
        reports = check_impact_bundle(bundle, [fixture_alt1().pair], theta_grid=200)
        assert not reports["AX.2"].passed
        assert check_impact_bundle(E_BUNDLE, [fixture_alt1().pair], theta_grid=200)["AX.2"].passed

    def test_replaced_level_map_is_used(self):
        # a bundle that swaps e's level map must sample levels with it
        ranks = []

        def level(f, x):
            ranks.append(x)
            return f.value(x)

        bundle = dataclasses.replace(E_BUNDLE, level_of=level)
        pairs = generate_pairs(GeneratorConfig(seed=0, count=4))  # prefix pairs read levels
        got = check_impact_bundle(bundle, pairs)
        assert ranks
        assert _ax_json(got) == _ax_json(oracles.scalar_impact_bundle(E_BUNDLE, pairs))


class TestImpactMeasureChecks:
    def test_e_measure_passes(self, small_pairs):
        reports = check_impact_measure(E_BUNDLE, 1.0, small_pairs)
        assert all(r.passed for r in reports.values())
        assert reports["IM.2"].pairs_tested == 15
        assert reports["IM.3"].pairs_tested == 15
        assert reports["IM.1"].pairs_tested > 0

    def test_zero_measure_fails_positivity(self, small_pairs):
        zero = BundleDef(
            name="zero",
            measure=lambda f, theta: 0.0,
            level_of=lambda f, x: x,
            admissible=lambda f: ThetaRange(0.0, math.inf),
        )
        rep = check_impact_measure(zero, 1.0, small_pairs)["IM.1"]
        assert not rep.passed
        assert rep.violations[0].note == "score not positive"

    def test_n_fails_monotonicity_on_fixture(self):
        rep = check_impact_measure(pseudo_bundle_n(), 1.0, [fixture_alt1().pair])["IM.2"]
        assert not rep.passed
        assert rep.violations[0].gap == pytest.approx(0.5 - 0.257 / 0.9, abs=1e-12)

    def test_positivity_counts_equal_functions_once(self):
        knots = [(0, 3), (1, 1), (2, 0.2)]
        lower = [PiecewiseLinearFn.from_pairs(knots) for _ in range(2)]
        assert lower[0] is not lower[1] and lower[0] == lower[1]
        pairs = [
            verify_pair(DominancePair(
                PiecewiseLinearFn.from_pairs([(x, y + c) for x, y in knots]),
                low,
                RelationKind.GEQ_ALL,
            ))
            for c, low in ((0.5, lower[0]), (0.25, lower[1]))
        ]
        rep = check_impact_measure(E_BUNDLE, 1.0, pairs)["IM.1"]
        assert rep.pairs_tested + rep.skipped == 3

    def test_eta_fails_monotonicity_on_fixture(self):
        rep = check_impact_measure(pseudo_bundle_eta(), 0.5, [fixture_alt2().pair])["IM.2"]
        assert not rep.passed
        assert rep.violations[0].gap == pytest.approx(0.0625, abs=1e-12)


class TestStrongImpactChecks:
    def test_shifted_pairs_pass(self):
        pairs = generate_pairs(GeneratorConfig(seed=29, count=40), RelationKind.GEQ_ALL)
        reports = check_strong_impact(E_BUNDLE, 1.0, pairs)
        assert all(r.passed for r in reports.values())
        # constant and tapered shifts keep the averages strictly ordered, so
        # nothing should be dropped by the hypothesis filter
        assert reports["SM.3"].pairs_tested == 40

    def test_boundary_level_excluded(self):
        lo = PiecewiseLinearFn.from_pairs([(0, 4), (1, 1)])  # Z(T) = theta = 1
        up = PiecewiseLinearFn.from_pairs([(0, 5), (1, 1)])
        pair = verify_pair(DominancePair(up, lo, RelationKind.GEQ_ALL))
        rep = check_strong_impact(E_BUNDLE, 1.0, [pair])["SM.3"]
        assert rep.pairs_tested == 0
        assert rep.skipped == 1
        assert "boundary" in rep.note

    def test_prefix_equality_is_exact(self):
        # equal prefix reaches the rank of level 1 (Z(0.5) = 0.8 < 1)
        lo = PiecewiseLinearFn.from_pairs([(0, 3), (0.5, 0.8), (1, 0.2)])
        up = PiecewiseLinearFn.from_pairs([(0, 3), (0.5, 0.8), (1, 0.5)])
        pair = verify_pair(
            DominancePair(up, lo, RelationKind.EQUAL_ON_PREFIX, prefix_end=0.5)
        )
        rep = check_strong_impact(E_BUNDLE, 1.0, [pair])["SM.4"]
        assert rep.pairs_tested == 1 and rep.passed
        assert e_theta(up, 1.0) == e_theta(lo, 1.0)

    def test_hypothesis_filter_skips_unordered(self):
        # crossing averages: neither strictly above the other
        a = PiecewiseLinearFn.from_pairs([(0, 4), (1, 0.1)])
        b = PiecewiseLinearFn.from_pairs([(0, 3), (1, 2)])
        pair = DominancePair(b, a, RelationKind.GEQ_ALL, verified=True)
        rep = check_strong_impact(E_BUNDLE, 1.0, [pair])["SM.3"]
        assert rep.pairs_tested == 0 and rep.skipped == 1 and rep.passed

    def test_positivity_report_reused(self, small_pairs):
        im1 = check_impact_measure(E_BUNDLE, 1.0, small_pairs)["IM.1"]
        fresh = check_strong_impact(E_BUNDLE, 1.0, small_pairs)
        reused = _strong_impact(E_BUNDLE, 1.0, small_pairs, im1)
        assert reused == fresh and reused["SM.1"].axiom == "SM.1"


class TestGlobalImpactChecks:
    def test_fixture_reproduces_equality_violation(self):
        rep = check_global_impact(E_BUNDLE, 1.0, [fixture_global().pair])
        assert not rep.passed
        assert len(rep.violations) == 1  # exactly one equality witness
        v = rep.violations[0]
        assert v.lhs == v.rhs == 1.0
        assert v.gap == 0.0

    def test_cumulative_total_also_stalls(self):
        # the totals at T are equal too: honest violation for the i score
        fx = fixture_global()
        T = fx.pair.upper.T
        rep = check_global_impact(I_BUNDLE, T, [fx.pair])
        assert not rep.passed
        assert rep.violations[0].lhs == pytest.approx(rep.violations[0].rhs, abs=1e-12)
        # a rank level is admitted exactly: one ulp past T the pair is
        # skipped, not scored past the domain
        past = check_global_impact(I_BUNDLE, math.nextafter(T, math.inf), [fx.pair])
        assert (past.pairs_tested, past.skipped, past.passed) == (0, 1, True)

    def test_generated_pairs_recorded_observationally(self, small_pairs):
        rep = check_global_impact(E_BUNDLE, 1.0, small_pairs)
        assert isinstance(rep, AxiomReport)
        assert rep.pairs_tested == 15  # one per CUMULATIVE_PREC pair


class TestGenerator:
    def test_deterministic(self):
        a = generate_pairs(GeneratorConfig(seed=42, count=1))
        b = generate_pairs(GeneratorConfig(seed=42, count=1))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_pairs(GeneratorConfig(seed=1, count=1))
        b = generate_pairs(GeneratorConfig(seed=2, count=1))
        assert a != b

    def test_every_pair_verifies(self):
        for p in generate_pairs(GeneratorConfig(seed=3, count=5)):
            assert p.verified
            assert verify_pair(dataclasses.replace(p, verified=False)).verified

    def test_relation_counts(self):
        pairs = generate_pairs(GeneratorConfig(seed=4, count=3))
        by_kind = {k: 0 for k in RelationKind}
        for p in pairs:
            by_kind[p.relation] += 1
        assert all(v == 3 for v in by_kind.values())

    @pytest.mark.parametrize("seed, digest", [
        (0, "bc5d3de5c287751a22cc5a6ed0f7b2877653bee8c0c33aaedc5a07d1208be9db"),
        (1, "f6255046ea3abc6f87caa2ef69c9a1fafe361df6b986ac0b22515f53749a88b9"),
        (2, "c6eeaa336296d226b357a6f8c51f94875648d53bb159587c995ce5e2e23bcd13"),
    ])
    def test_pairs_pinned(self, seed, digest):
        # SHA-256 of the pairs written by the generator that verified every
        # pair through compare(); a cheaper verification must accept the same
        h = hashlib.sha256()
        for p in generate_pairs(GeneratorConfig(seed=seed, count=10)):
            h.update(f"{p.relation.value}:{p.prefix_end!r}".encode())
            for f in (p.upper, p.lower):
                h.update(np.concatenate((f.xs, f.ys)).tobytes())
        assert h.hexdigest() == digest

    def test_verification_evaluates_one_grid(self, monkeypatch):
        pairs = [dataclasses.replace(p, verified=False)
                 for p in generate_pairs(GeneratorConfig(seed=3, count=4))]
        calls = []
        values = PiecewiseLinearFn.values

        def spy(self, xs):
            calls.append(len(xs))
            return values(self, xs)

        monkeypatch.setattr(PiecewiseLinearFn, "values", spy)
        for p in pairs:
            calls.clear()
            assert verify_pair(p, grid_n=2_000).verified
            if p.relation is not RelationKind.CUMULATIVE_PREC:
                assert calls == [2_000, 2_000], p.relation

    def test_config_validation(self):
        with pytest.raises(InputError):
            GeneratorConfig(count=0)
        with pytest.raises(InputError):
            GeneratorConfig(shift_scale=0.0)  # degenerate shifts rejected
        with pytest.raises(InputError):
            GeneratorConfig(knot_range=(2, 1))
