import copy
import dataclasses
import hashlib
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ebundles import axioms as ax
from ebundles import functions as fn
from ebundles.axioms import (
    AxiomReport,
    DominancePair,
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
)
from ebundles.bundles import (
    BUNDLES,
    E_BUNDLE,
    H_BUNDLE,
    I_BUNDLE,
    MU_BUNDLE,
    BundleDef,
    e_theta,
    i_bundle,
    sweep,
)
from ebundles.functions import (
    CumulativeOrder,
    InputError,
    LinearFamily,
    PiecewiseLinearFn,
    PowerComplement,
    ZipfFamily,
    _PwlStack,
    cumulative_dominates,
    from_citations,
)


@pytest.fixture(scope="module")
def small_pairs():
    return generate_pairs(seed=5, count=15)


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
        facts = oracles.exact_order_facts(fx.pair.upper, fx.pair.lower)
        assert not oracles.exact_relation_holds(RelationKind.EQUAL_ON_PREFIX, facts)
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
        facts = oracles.exact_order_facts(fx.pair.upper, fx.pair.lower, a=1.0)
        assert oracles.exact_relation_holds(RelationKind.GEQ_ALL, facts)
        assert oracles.exact_relation_holds(RelationKind.STRICT_ON_PREFIX, facts)
        assert facts["min_gap"] == pytest.approx(0.01, abs=1e-12)

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
        facts = oracles.exact_order_facts(fx.pair.upper, fx.pair.lower)
        assert oracles.exact_relation_holds(RelationKind.GEQ_ALL, facts)
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

    def test_cumulative_relation_rejects_equal_functions(self):
        f = PiecewiseLinearFn.from_pairs([(0, 2), (1, 1)])
        with pytest.raises(VerificationError):
            verify_pair(DominancePair(f, f, RelationKind.CUMULATIVE_PREC))

    def test_cumulative_relation_rejects_functions_within_tolerance(self):
        # a gap of 5e-13 on [0, 10]: lower strictly precedes upper in
        # cumulative order (I_up - I_lo reaches 5e-12), yet the two agree
        # to EQUALITY_TOL everywhere, so they count as one function
        up = PiecewiseLinearFn.from_pairs([(0, 2 + 5e-13), (10, 1 + 5e-13)])
        lo = PiecewiseLinearFn.from_pairs([(0, 2), (10, 1)])
        with pytest.raises(VerificationError, match="functions coincide"):
            verify_pair(DominancePair(up, lo, RelationKind.CUMULATIVE_PREC))

    @pytest.mark.parametrize("read", [verify_pair, lambda pair: ax._Pairs.of([pair])])
    @pytest.mark.parametrize("relation", ["geq_all", None, 0])
    def test_relation_must_be_a_kind(self, read, relation):
        # a relation that is not a RelationKind is an input error naming the
        # value, raised where the pair is made, before either read sees it
        up = PiecewiseLinearFn.from_pairs([(0, 2), (1, 1)])
        lo = PiecewiseLinearFn.from_pairs([(0, 1), (1, 0)])
        with pytest.raises(InputError, match=f"got {relation!r}"):
            read(DominancePair(up, lo, relation))


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

    def test_three_field_bundle_runs_every_checker(self):
        # a candidate bundle is its name, score and level map: AX.2 reads its
        # levels from the map, and e's positive_for holds at level 1 for
        # every generated member, so the defaults change no report
        bundle = BundleDef(name="e-rules", scores=E_BUNDLE.scores, levels=E_BUNDLE.levels)
        pairs = generate_pairs(seed=0, count=5)
        assert _all_reports(bundle, 1.0, pairs) == _all_reports(E_BUNDLE, 1.0, pairs)

    def test_identical_pair_has_zero_gap(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        twin = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        pair = verify_pair(
            DominancePair(f, twin, RelationKind.EQUAL_ON_PREFIX, prefix_end=f.T)
        )
        rep = check_impact_bundle(E_BUNDLE, [pair])["AX.4"]
        assert rep.passed and rep.pairs_tested == 1

    def test_pseudo_bundle_n_breaks_monotonicity(self, monkeypatch):
        monkeypatch.setattr(ax, "_LEVELS", 200)
        rep = check_impact_bundle(pseudo_bundle_n(), [fixture_alt1().pair])
        ax2 = rep["AX.2"]
        assert not ax2.passed
        v = ax2.violations[0]
        assert v.lhs < v.rhs  # dominating function scored lower
        assert v.gap > 1e-9


def _values_on_domain(f, xs):
    """Z(x) at ranks on the domain, NaN elsewhere and at a pole at 0."""
    inside = (xs >= 0.0) & (xs <= f.T) & ~((xs == 0.0) & f.unbounded_at_origin)
    return np.where(inside, f.values(np.where(inside, xs, f.T)), math.nan)


# A custom bundle of vector rules that are not the built-in ones: e's score
# through a new callable and e's level map written out here.
E_SCALAR_ONLY = BundleDef(
    name="e-scalar",
    scores=lambda f, thetas: E_BUNDLE.scores(f, thetas),
    levels=_values_on_domain,
)

AX_BUNDLES = {
    "e": E_BUNDLE, "h": H_BUNDLE, "mu": MU_BUNDLE, "i": I_BUNDLE,
    "n": pseudo_bundle_n(), "eta": pseudo_bundle_eta(), "e-scalar": E_SCALAR_ONLY,
}

# e's score on mu's level map: AX.2 samples the span of the ranks, [0, T],
# not e's levels [Z(T), Z(0)].
E_ON_RANKS = dataclasses.replace(E_BUNDLE, name="e-on-ranks", levels=MU_BUNDLE.levels)


def _pwl(*knots):
    return PiecewiseLinearFn.from_pairs(knots)


# Pairs with a parametric member, whose relations hold: every pass over a
# pair set takes piecewise linear functions, and checks the members' types
# before their relation.
PARAMETRIC_PAIRS = [
    DominancePair(LinearFamily(S=12, T=1), LinearFamily(S=10, T=1), RelationKind.GEQ_ALL),
    DominancePair(ZipfFamily(beta=0.6, T=1), _pwl((0, 10), (1, 0.5)), RelationKind.GEQ_ALL),
    DominancePair(_pwl((0, 10), (0.5, 5), (1, 0.5)), PowerComplement(n=2),
                  RelationKind.EQUAL_ON_PREFIX, 0.5),
]


# The axiom checkers on a set of pairs, each at the level 1 where one applies.
CHECKERS = {
    "check_impact_bundle": lambda ps: check_impact_bundle(E_BUNDLE, ps),
    "check_impact_measure": lambda ps: check_impact_measure(E_BUNDLE, 1.0, ps),
    "check_strong_impact": lambda ps: check_strong_impact(E_BUNDLE, 1.0, ps),
    "check_global_impact": lambda ps: check_global_impact(E_BUNDLE, 1.0, ps),
}

# Every entry point that reads a pair set or orders two functions.
PAIR_READERS = {
    "verify_pair": verify_pair,
    **{name: lambda p, check=check: check([p]) for name, check in CHECKERS.items()},
    "cumulative_dominates": lambda p: cumulative_dominates(p.upper, p.lower),
}


class TestPiecewiseLinearOnly:
    """Pair sets and order checks are exact on knots, so they take piecewise
    linear functions only: a parametric member is bad input, named."""

    @pytest.mark.parametrize("pair", PARAMETRIC_PAIRS, ids=["linear", "zipf", "power"])
    @pytest.mark.parametrize("reader", sorted(PAIR_READERS))
    def test_parametric_member_rejected(self, reader, pair):
        kind = next(type(f).__name__ for f in (pair.upper, pair.lower)
                    if not isinstance(f, PiecewiseLinearFn))
        with pytest.raises(InputError, match=f"piecewise linear functions, got {kind}$"):
            PAIR_READERS[reader](pair)

    @pytest.mark.parametrize("name", sorted(AX_BUNDLES))
    def test_no_pairs_are_vacuous(self, name):
        bundle = AX_BUNDLES[name]
        level = SUITE_LEVELS.get(name, 2.5)
        for pairs in ([], ()):
            reports = _all_reports(bundle, level, pairs)
            assert reports and all(r["vacuous"] and r["passed"] and r["skipped"] == 0
                                   for r in reports.values()), reports


class TestCheckersVerify:
    """Every checker decides each pair's declared relation itself: a false
    relation is refused, naming its pair, and a true one needs no
    ``verify_pair`` first."""

    LINE = PiecewiseLinearFn.from_pairs([(0, 1), (1, 0)])  # 1 - x
    DOUBLE = PiecewiseLinearFn.from_pairs([(0, 2), (1, 0)])  # 2(1 - x)

    @pytest.mark.parametrize("check", sorted(CHECKERS))
    def test_false_relation_raises_naming_the_pair(self, check):
        # 1 - x declared over 2(1 - x): taken on trust, it would read as an
        # IM.2 violation of the e score (0.125 against 0.5625 at level 0.5)
        pairs = [DominancePair(self.DOUBLE, self.LINE, RelationKind.GEQ_ALL),
                 DominancePair(self.LINE, self.DOUBLE, RelationKind.GEQ_ALL)]
        with pytest.raises(VerificationError, match=r"^pair 1: upper < lower at x=0\.0$"):
            CHECKERS[check](pairs)

    @pytest.mark.parametrize("check", sorted(CHECKERS))
    def test_true_pairs_need_no_verify_pair(self, check):
        pairs = [DominancePair(self.DOUBLE, self.LINE, RelationKind.GEQ_ALL),
                 DominancePair(self.DOUBLE, self.LINE, RelationKind.STRICT_ON_PREFIX, 0.5),
                 DominancePair(self.DOUBLE, self.LINE, RelationKind.CUMULATIVE_PREC)]
        reports = CHECKERS[check](pairs)
        assert reports == CHECKERS[check]([verify_pair(p) for p in pairs])
        assert all(r.passed for r in reports.values())
        assert any(r.pairs_tested for r in reports.values())


def _ax_json(reports):
    return {k: reports[k].to_json_obj() for k in ("AX.2", "AX.3", "AX.4")}


# Each score with the level its benchmark runs use.
SUITE_LEVELS = {"e": 2.5, "h": 8.0, "mu": 0.5, "i": 0.5, "n": 2.5, "eta": 0.5}


def _all_reports(bundle, level, pairs):
    reports = dict(check_impact_bundle(bundle, pairs))
    for check in (check_impact_measure, check_strong_impact, check_global_impact):
        reports.update(check(bundle, level, pairs))
    return {k: r.to_json_obj() for k, r in reports.items()}


class TestGeneratedStackEqualsPlainList:
    """The checkers read the generator's own stack of knot arrays; the same
    pairs rebuilt one function at a time, as a plain list, must give the
    same reports, to the last digit."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", sorted(SUITE_LEVELS))
    def test_reports(self, name, seed):
        pairs = generate_pairs(seed=seed, count=12)
        rebuilt = [dataclasses.replace(p, upper=PiecewiseLinearFn.from_pairs(_knots(p.upper)),
                                       lower=PiecewiseLinearFn.from_pairs(_knots(p.lower)))
                   for p in pairs]
        # the generator's set is read as it is; the plain list is stacked
        assert ax._Pairs.of(pairs) is pairs and isinstance(ax._Pairs.of(rebuilt), ax._Pairs)
        bundle, level = AX_BUNDLES[name], SUITE_LEVELS[name]
        got, want = _all_reports(bundle, level, pairs), _all_reports(bundle, level, rebuilt)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def _knots(f):
    return list(zip(f.xs.tolist(), f.ys.tolist()))


def _as_set(pairs):
    """Any pairs, whether their relations hold or not, as a ``_Pairs`` on
    their rows, built directly: ``_Pairs.of`` would verify them."""
    fns = [p.upper for p in pairs] + [p.lower for p in pairs]
    T = np.array([fn._common_T(p.upper, p.lower) for p in pairs], dtype=float)
    kinds = np.array([ax._KINDS.index(p.relation) for p in pairs], dtype=int)
    prefix = np.array([p.prefix_end for p in pairs], dtype=float)
    return ax._Pairs(pairs, _PwlStack.of(fns), T, kinds, prefix)


def _rejections(pairs):
    """``_rejections`` on the rows of any pairs."""
    ps = _as_set(pairs)
    return ax._rejections(ps.fns, ps.kinds, ps.ends)


class TestLinspaces:
    @pytest.mark.parametrize("n", [1, 2, 3, 25])
    def test_rows_equal_numpy(self, n):
        rng = np.random.default_rng(n)
        lo = np.r_[rng.uniform(-3, 3, 40), 0.0, 1.5, 5e-324, 0.0]
        hi = np.r_[lo[:40] + rng.uniform(0, 1e3, 40), 0.0, 1.5, 1e-323, 1e-310]
        want = np.array([np.linspace(a, b, n) for a, b in zip(lo.tolist(), hi.tolist())])
        assert ax._linspaces(lo, hi, n).tolist() == want.tolist()


class TestImpactBundleAgainstScalarLoop:
    """``check_impact_bundle`` scores every level of a pair in one vector call
    per member; the reports, violation floats included, must equal those of
    the scalar loop in ``oracles.scalar_impact_bundle``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(AX_BUNDLES) + [E_ON_RANKS.name])
    def test_generated_pairs(self, name, seed):
        pairs = generate_pairs(seed=seed, count=6)
        bundle = AX_BUNDLES.get(name, E_ON_RANKS)
        want = oracles.scalar_impact_bundle(bundle, pairs)
        assert _ax_json(check_impact_bundle(bundle, pairs)) == _ax_json(want)

    @pytest.mark.parametrize("name", sorted(AX_BUNDLES))
    def test_fixtures(self, name, monkeypatch):
        monkeypatch.setattr(ax, "_LEVELS", 200)
        pairs = [fixture_alt1().pair, fixture_alt2().pair]
        bundle = AX_BUNDLES[name]
        want = oracles.scalar_impact_bundle(bundle, pairs, theta_grid=200)
        got = check_impact_bundle(bundle, pairs)
        assert _ax_json(got) == _ax_json(want)
        if name == "n":  # the per-rank excess score must not borrow e's vector scores
            assert not got["AX.2"].passed

    @pytest.mark.parametrize("name", sorted(BUNDLES))
    def test_no_score_or_level_call_per_pair(self, name):
        # every axiom reads its pairs' levels and scores in stacked passes:
        # at most one rule call per block and pass, never one per pair
        rows = []

        def spy(rule):
            def counted(f, args):
                rows.append(len(args))
                return rule(f, args)
            return counted

        b = BUNDLES[name]
        bundle = dataclasses.replace(b, scores=spy(b.scores), levels=spy(b.levels))
        pairs = generate_pairs(seed=2, count=10)
        assert check_impact_bundle(bundle, pairs)["AX.2"].pairs_tested == 10
        passes = 6  # a level pass and a score pass per axiom, AX.2 to AX.4
        assert 0 < len(rows) <= passes + sum(rows) // fn._BLOCK
        assert len(rows) < 10  # the pairs of one relation kind

    def test_joint_range_empty_within_slack(self):
        # the members' e ranges miss each other by less than the admission
        # slack: the pair has no joint range and is skipped, as in the loop
        pair = verify_pair(DominancePair(_pwl((0, 3.5), (1, 2 + 5e-13)), _pwl((0, 2), (1, 1)),
                                         RelationKind.GEQ_ALL))
        got = check_impact_bundle(E_BUNDLE, [pair])
        assert (got["AX.2"].pairs_tested, got["AX.2"].skipped) == (0, 1)
        assert _ax_json(got) == _ax_json(oracles.scalar_impact_bundle(E_BUNDLE, [pair]))

    def test_level_map_places_ax2_levels(self):
        # e's score on ranks: AX.2 samples the ranks' span [0, 1], below
        # both members' e levels, so no sampled level scores and the pair
        # is skipped; e's own levels [3, 4] would have tested it
        pair = verify_pair(DominancePair(_pwl((0, 5), (1, 3)), _pwl((0, 4), (1, 2)),
                                         RelationKind.GEQ_ALL))
        got = check_impact_bundle(E_ON_RANKS, [pair])
        assert (got["AX.2"].pairs_tested, got["AX.2"].skipped) == (0, 1)
        assert check_impact_bundle(E_BUNDLE, [pair])["AX.2"].pairs_tested == 1
        assert _ax_json(got) == _ax_json(oracles.scalar_impact_bundle(E_ON_RANKS, [pair]))

    def test_replaced_measure_is_scored(self, monkeypatch):
        # a bundle that swaps e's score for n must be scored with n, not e
        monkeypatch.setattr(ax, "_LEVELS", 200)
        bundle = dataclasses.replace(E_BUNDLE, scores=pseudo_bundle_n().scores)
        reports = check_impact_bundle(bundle, [fixture_alt1().pair])
        assert not reports["AX.2"].passed
        assert check_impact_bundle(E_BUNDLE, [fixture_alt1().pair])["AX.2"].passed

    def test_replaced_level_map_is_used(self):
        # a bundle that swaps e's level map must sample levels with it
        ranks = []

        def level(f, xs):
            ranks.append(xs)
            return E_BUNDLE.levels(f, xs)

        bundle = dataclasses.replace(E_BUNDLE, levels=level)
        pairs = generate_pairs(seed=0, count=4)  # prefix pairs read levels
        got = check_impact_bundle(bundle, pairs)
        assert ranks
        assert _ax_json(got) == _ax_json(oracles.scalar_impact_bundle(E_BUNDLE, pairs))


@st.composite
def _pwl_on(draw, T):
    """A random piecewise linear function on [0, T]."""
    inner = sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=5))))
    xs = np.array([0.0, *(T * u for u in inner), T])
    drops = np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=len(xs) - 1,
                                   max_size=len(xs) - 1)))
    tail = draw(st.floats(0.0, 2.0))
    return PiecewiseLinearFn(xs, tail + np.concatenate((np.cumsum(drops[::-1])[::-1], [0.0])))


@st.composite
def _pwl_pairs(draw):
    """A pair of piecewise linear functions on a shared domain, often close
    (shifted, or equal up to a knot), with a relation and a prefix end."""
    T = draw(st.sampled_from([1.0, 2.5, 40.0]))
    upper = draw(_pwl_on(T))
    mode = draw(st.sampled_from(["independent", "shifted", "equal prefix"]))
    if mode == "independent":
        lower = draw(_pwl_on(T))
    elif mode == "shifted":
        lower = PiecewiseLinearFn(upper.xs, upper.ys - draw(st.floats(-0.5, float(upper.ys[-1]))))
    else:
        split = draw(st.integers(1, len(upper.xs) - 1))
        ys = upper.ys.copy()
        ys[split:] = ys[split - 1] + draw(st.floats(0.2, 0.9)) * (ys[split:] - ys[split - 1])
        lower = PiecewiseLinearFn(upper.xs, ys)
    relation = draw(st.sampled_from(list(RelationKind)))
    a = T * draw(st.floats(0.05, 1.0)) if relation in (
        RelationKind.STRICT_ON_PREFIX, RelationKind.EQUAL_ON_PREFIX) else None
    return DominancePair(upper, lower, relation, prefix_end=a)


class TestLevelMapSpans:
    """A level map is monotone, so its levels at the ranks 0 and T span its
    levels, which AX.2 samples: for each built-in bundle that span is, bit
    for bit, the range of levels its score is defined on."""

    @settings(max_examples=100, deadline=None)
    @given(f=st.sampled_from([1.0, 2.5, 40.0]).flatmap(_pwl_on))
    def test_built_in_spans(self, f):
        def span(bundle):
            return bits(*sorted(bundle.levels(f, np.array([0.0, f.T])).tolist()))

        def bits(*vs):
            return [v.hex() for v in vs]

        z0, zT, T = f.value_at_origin(), float(f.ys[-1]), f.T
        assert span(E_BUNDLE) == bits(zT, z0)
        assert span(H_BUNDLE) == bits(zT / T, math.inf)
        assert span(MU_BUNDLE) == span(I_BUNDLE) == bits(0.0, T)


def _decided(pair, facts, margin=1e-10):
    """Whether floats must reach the exact verdict: each deciding quantity
    clears its threshold by more than rounding, or is exactly 0 against a
    nonzero tolerance."""
    tol = 1e-12
    scale = max(1, abs(facts["dmin"]), abs(facts["dmax"]))
    checks = {
        RelationKind.GEQ_ALL: [(facts["min_gap"], -tol)],
        RelationKind.STRICT_ON_PREFIX: [(facts["min_gap"], 0)],
        RelationKind.EQUAL_ON_PREFIX: [(facts["max_dev"], tol)],
        RelationKind.CUMULATIVE_PREC: [(facts["dmax"], tol * scale), (facts["dmin"], -tol * scale),
                                       (facts["max_dev"], tol)],
    }[pair.relation]
    return all((q == 0 and t != 0) or abs(q - t) > margin for q, t in checks)


class TestExactVerification:
    """Piecewise linear pairs are verified exactly at their merged knots, in
    one stacked pass; the verdicts must equal the rational-arithmetic oracle."""

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(_pwl_pairs(), min_size=1, max_size=6))
    def test_stacked_verdicts_equal_exact_oracle(self, pairs):
        reasons = _rejections(pairs)
        for pair, reason in zip(pairs, reasons):
            facts = oracles.exact_order_facts(pair.upper, pair.lower, pair.prefix_end)
            if _decided(pair, facts):
                assert (reason is None) == oracles.exact_relation_holds(pair.relation, facts), pair

    # upper touches lower at the shared knot x = 0.5
    TOUCH = (_pwl((0, 3), (0.5, 1), (1, 0.5)), _pwl((0, 2), (0.5, 1), (1, 0)))
    # upper dips below lower between two points of a 2,000-point grid, at a
    # knot of upper's (DIP) or at a knot of lower's (BUMP)
    DIP = (_pwl((0, 2), (0.0002, 1.5), (1, 0)), _pwl((0, 1.99), (0.00045, 1.0), (1, 0)))
    BUMP = (_pwl((0, 2), (1, 0.1)), _pwl((0, 1.99), (0.5, 1.05 + 1e-6), (1, 0)))

    @pytest.mark.parametrize("relation, a, holds", [
        (RelationKind.GEQ_ALL, None, True),
        (RelationKind.STRICT_ON_PREFIX, 0.4, True),
        (RelationKind.STRICT_ON_PREFIX, 0.75, False),
        (RelationKind.EQUAL_ON_PREFIX, 0.5, False),
        (RelationKind.CUMULATIVE_PREC, None, True),
    ])
    def test_touch_at_a_knot(self, relation, a, holds):
        pair = DominancePair(*self.TOUCH, relation, prefix_end=a)
        facts = oracles.exact_order_facts(pair.upper, pair.lower, a)
        assert oracles.exact_relation_holds(relation, facts) is holds
        assert (_rejections([pair])[0] is None) is holds

    @pytest.mark.parametrize("case, at", [("DIP", "0.0002"), ("BUMP", "0.5")])
    def test_dip_between_grid_points(self, case, at):
        upper, lower = getattr(self, case)
        grid = np.linspace(0.0, 1.0, 2_000)
        assert (upper.values(grid) - lower.values(grid)).min() >= -1e-12  # the grid misses it
        facts = oracles.exact_order_facts(upper, lower)
        assert not oracles.exact_relation_holds(RelationKind.GEQ_ALL, facts)
        with pytest.raises(VerificationError, match=f"upper < lower at x={at}$"):
            verify_pair(DominancePair(upper, lower, RelationKind.GEQ_ALL))

    def test_large_pair_reads_in_linear_memory(self):
        # each stacked row searches its own function's knots, so reading a
        # K-knot pair at its 2K merged knots costs O(K log K), not O(K^2)
        counts = np.floor(np.random.default_rng(4).pareto(1.2, 1_500) * 5) + 1
        lower = from_citations(counts)
        upper = PiecewiseLinearFn(lower.xs, lower.ys + 0.5)
        tracemalloc.start()
        try:
            pair = DominancePair(upper, lower, RelationKind.GEQ_ALL)
            assert verify_pair(pair) is pair
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lower.xs) > 1_000 and peak < 4 * 2**20

    def test_batch_equals_one_pair_at_a_time(self):
        pairs = list(generate_pairs(seed=8, count=5))
        pairs += [DominancePair(*self.DIP, RelationKind.GEQ_ALL),
                  DominancePair(*self.TOUCH, RelationKind.STRICT_ON_PREFIX, prefix_end=0.75)]
        assert _rejections(pairs) == [_rejections([p])[0] for p in pairs]
        assert _rejections(pairs)[-2:] == [
            "upper < lower at x=0.0002", "not strict on prefix: gap 0.0 at x=0.5"]


class TestExactAveragesPremise:
    """SM.3 enters a GEQ pair only when the running average of its upper
    stays above its lower's; for piecewise linear pairs this is decided
    exactly, and must agree with the rational-arithmetic oracle."""

    # lower runs along 2 - x but for a zigzag between the grid points 2/512
    # and 3/512: 3e-4 above the line at g1 + 4e-4, 3e-4 below it at
    # g1 + 8e-4; upper is 2 - x plus 2e-5 at the origin, tapering to 0 by
    # x = 0.002.  I_up - I_lo is 2e-8 at g1, dips to -7e-8 inside the zigzag
    # and is 1.3e-7 again from g2 on
    G1, G2 = 2 / 512, 3 / 512
    LOWER = _pwl((0, 2), (G1, 2 - G1), (G1 + 4e-4, 2 - G1 - 4e-4 + 3e-4),
                 (G1 + 8e-4, 2 - G1 - 8e-4 - 3e-4), (G2, 2 - G2), (1, 1))
    UPPER = _pwl((0, 2.00002), (0.002, 1.998), (1, 1))

    def test_crossing_between_grid_points(self):
        pair = DominancePair(self.UPPER, self.LOWER, RelationKind.GEQ_ALL)
        assert oracles.sampled_averages_ordered(pair.upper, pair.lower)  # the grid admits it
        assert not oracles.exact_averages_ordered(pair.upper, pair.lower)
        assert ax._averages_ordered(_as_set([pair]), np.array([0])).tolist() == [False]
        # averages can only cross where lower rises above upper, so the pair
        # is no GEQ_ALL pair, and the checker refuses it
        with pytest.raises(VerificationError, match="^pair 0: upper < lower at x="):
            check_strong_impact(E_BUNDLE, 1.5, [pair])

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(_pwl_pairs(), min_size=1, max_size=6))
    def test_agrees_with_exact_oracle(self, pairs):
        got = ax._averages_ordered(_as_set(pairs), np.arange(len(pairs))).tolist()
        for pair, ordered in zip(pairs, got):
            d_min = oracles.exact_averages_min(pair.upper, pair.lower)
            if abs(d_min) > 1e-10:  # rounding cannot move the verdict
                assert ordered == oracles.exact_averages_ordered(pair.upper, pair.lower), pair

    def test_generated_pairs_all_ordered(self):
        pairs = generate_pairs(seed=7, count=50)[:50]  # the GEQ_ALL pairs
        assert ax._averages_ordered(ax._Pairs.of(pairs), np.arange(50)).all()
        assert all(oracles.exact_averages_ordered(p.upper, p.lower) for p in pairs[:10])


class TestPairSetEnds:
    def test_ax2_ignores_prefix_end_on_geq_pairs(self):
        # a GEQ_ALL pair covers [0, T] whatever its prefix end, so AX.2 reads
        # the level maps' images of (0, T] for an unbounded range
        pairs = generate_pairs(seed=3, count=20)[:20]  # the GEQ_ALL pairs
        halved = [dataclasses.replace(p, prefix_end=0.5 * p.upper.T) for p in pairs]
        negated = dataclasses.replace(H_BUNDLE, name="-h",
                                      scores=lambda f, t: -H_BUNDLE.scores(f, t))
        want = check_impact_bundle(negated, pairs)["AX.2"]
        assert not want.passed
        assert check_impact_bundle(negated, halved)["AX.2"] == want


class TestImpactMeasureChecks:
    def test_admission_slack(self):
        # the table takes "defined" from each bundle's rule: the e score
        # snaps a density level within the range's slack onto the range, h
        # admits a level down to its tolerance 1e-12 below Z(T)/T = 0.1 (and
        # reads T there) but not one below it, and i has no score past T
        f = _pwl((0, 3), (1, 1), (2, 0.2))
        ps = ax._Pairs.of([DominancePair(f, f, RelationKind.GEQ_ALL)])
        for bundle, level, want in ((E_BUNDLE, 0.2 - 5e-13, e_theta(f, 0.2)),
                                    (H_BUNDLE, 0.1 - 5e-13, 2.0),
                                    (H_BUNDLE, 0.1 - 1e-12, 2.0),
                                    (H_BUNDLE, 0.1 - 5e-12, math.nan),
                                    (I_BUNDLE, math.nextafter(2.0, 3.0), math.nan)):
            got = ax._level_table(bundle, level, ps)[0][ps.up]
            rule = bundle.scores(f, np.array([level]))
            assert np.array_equal(got, [want], equal_nan=True), (bundle.name, level)
            assert np.array_equal(got, rule, equal_nan=True), (bundle.name, level)

    @pytest.mark.parametrize("theta, h, im1, im2", [
        (4 - 1e-12, [None, 1.0], (1, 1), (0, 1)),  # only the lower's h is defined
        (5 - 3e-12, [1.0, 0.90000000000027], (2, 0), (1, 0)),  # the upper's at its tolerance
    ])
    def test_h_members_scored_wherever_h_theta_is_defined(self, theta, h, im1, im2):
        # (tested, skipped) of IM.1 over the two members and of IM.2 over the
        # pair follow h's own rule, as the sweep's h cells do
        upper, lower = _pwl((0, 10), (1, 5)), _pwl((0, 9), (1, 4))
        assert [sweep(f, [theta]).rows[0].h for f in (upper, lower)] == h
        reports = check_impact_measure(H_BUNDLE, theta,
                                       [DominancePair(upper, lower, RelationKind.GEQ_ALL)])
        assert (reports["IM.1"].pairs_tested, reports["IM.1"].skipped) == im1
        assert (reports["IM.2"].pairs_tested, reports["IM.2"].skipped) == im2
        assert all(r.passed for r in reports.values())

    def test_e_measure_passes(self, small_pairs):
        reports = check_impact_measure(E_BUNDLE, 1.0, small_pairs)
        assert all(r.passed for r in reports.values())
        assert reports["IM.2"].pairs_tested == 15
        assert reports["IM.3"].pairs_tested == 15
        assert reports["IM.1"].pairs_tested > 0

    def test_cumulative_total_at_rank_0_tests_no_member(self):
        # i at rank 0 is 0 for every member, so positivity is claimed for
        # none of the 40 (two a pair) and none is tested
        rep = check_impact_measure(I_BUNDLE, 0.0, generate_pairs(seed=0, count=5))["IM.1"]
        assert (rep.pairs_tested, rep.skipped, rep.violations) == (0, 40, ())

    def test_zero_measure_fails_positivity(self, small_pairs):
        zero = BundleDef(
            name="zero",
            scores=lambda f, thetas: np.zeros(len(thetas)),
            levels=lambda f, xs: xs,
        )
        rep = check_impact_measure(zero, 1.0, small_pairs)["IM.1"]
        assert not rep.passed
        assert rep.violations[0].note == "score not positive (upper)"

    def test_positivity_names_the_members_pair(self):
        # four distinct members; only the lower of pair 1 scores below 0
        pairs = [verify_pair(DominancePair(_pwl((0, up), (1, 0)), _pwl((0, lo), (1, 0)),
                                           RelationKind.GEQ_ALL))
                 for up, lo in ((5, 4), (3, 1.5))]
        offset = BundleDef(
            name="offset",
            scores=lambda f, thetas: f.value_at_origin() - 2.0 + 0.0 * thetas,
            levels=lambda f, xs: xs,
        )
        rep = check_impact_measure(offset, 1.0, pairs)["IM.1"]
        assert rep.pairs_tested == 4
        (v,) = rep.violations
        assert (v.pair_index, v.theta, v.lhs) == (1, 1.0, -0.5)
        assert v.note == "score not positive (lower)"

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
        pairs = generate_pairs(seed=29, count=40)[:40]  # the GEQ_ALL pairs
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
        # upper >= lower, but equal at x = 0: the running averages are not
        # strictly ordered as x -> 0
        a = PiecewiseLinearFn.from_pairs([(0, 4), (1, 0.1)])
        b = PiecewiseLinearFn.from_pairs([(0, 4), (1, 0.5)])
        pair = DominancePair(b, a, RelationKind.GEQ_ALL)
        rep = check_strong_impact(E_BUNDLE, 1.0, [pair])["SM.3"]
        assert rep.pairs_tested == 0 and rep.skipped == 1 and rep.passed

    def test_positivity_report_reused(self, small_pairs):
        # SM.1 is IM.1's positivity report under its own name
        im1 = check_impact_measure(E_BUNDLE, 1.0, small_pairs)["IM.1"]
        sm1 = check_strong_impact(E_BUNDLE, 1.0, small_pairs)["SM.1"]
        assert im1.pairs_tested > 0
        assert sm1 == dataclasses.replace(im1, axiom="SM.1")

    def test_positivity_violations_built_once(self):
        # h at 1e13 flags members that the generator draws (ROADMAP item 3):
        # SM.1 holds IM.1's tuple of violations itself, not a rebuilt copy
        pairs = generate_pairs(seed=0, count=3)
        im1 = check_impact_measure(H_BUNDLE, 1e13, pairs)["IM.1"]
        sm1 = check_strong_impact(H_BUNDLE, 1e13, pairs)["SM.1"]
        assert len(im1.violations) == 24
        assert sm1.violations is im1.violations and sm1.axiom == "SM.1"


class TestGlobalImpactChecks:
    def test_fixture_reproduces_equality_violation(self):
        rep = check_global_impact(E_BUNDLE, 1.0, [fixture_global().pair])["GM"]
        assert not rep.passed
        assert len(rep.violations) == 1  # exactly one equality witness
        v = rep.violations[0]
        assert v.lhs == v.rhs == 1.0
        assert v.gap == 0.0

    def test_cumulative_total_also_stalls(self):
        # the totals at T are equal too: honest violation for the i score
        fx = fixture_global()
        T = fx.pair.upper.T
        rep = check_global_impact(I_BUNDLE, T, [fx.pair])["GM"]
        assert not rep.passed
        assert rep.violations[0].lhs == pytest.approx(rep.violations[0].rhs, abs=1e-12)
        # a rank level is admitted exactly: one ulp past T the pair is
        # skipped, not scored past the domain
        past = check_global_impact(I_BUNDLE, math.nextafter(T, math.inf), [fx.pair])["GM"]
        assert (past.pairs_tested, past.skipped, past.passed) == (0, 1, True)

    def test_reports_by_axiom_name(self):
        reports = check_global_impact(E_BUNDLE, 1.0, [fixture_global().pair])
        assert isinstance(reports, dict) and list(reports) == ["GM"]
        assert reports["GM"].axiom == "GM"

    def test_generated_pairs_recorded_observationally(self, small_pairs):
        rep = check_global_impact(E_BUNDLE, 1.0, small_pairs)["GM"]
        assert isinstance(rep, AxiomReport)
        assert rep.pairs_tested == 15  # one per CUMULATIVE_PREC pair


def _first_rows(ps):
    """The rows of a set's distinct members found one row at a time: a dict
    keyed by each row's knots, in order of first appearance."""
    first = {}
    for row in np.column_stack((ps.up, ps.lo)).ravel().tolist():
        fx = ps.fns._row(row)
        first.setdefault(((fx.xs + 0.0).tobytes(), (fx.ys + 0.0).tobytes()), row)
    return list(first.values())


class TestMembers:
    def test_first_appearance(self):
        # equal functions, -0.0 and 0.0 included, are one member, at the row
        # of their first appearance (each pair's upper, then its lower)
        f = [_pwl((0, 3 + i), (1, 1), (2, 0.0)) for i in range(3)]
        g = _pwl((0, 3), (1, 1), (2, -0.0))
        pairs = [DominancePair(up, lo, RelationKind.GEQ_ALL) for up, lo in
                 ((f[2], f[1]), (f[1], g), (f[2], f[0]), (f[0], f[0]), (f[1], f[1]))]
        ps = ax._Pairs.of(pairs)
        assert ps.members.tolist() == _first_rows(ps) == [0, 5, 6]

    @pytest.mark.parametrize("seed", range(3))
    def test_generated(self, seed):
        ps = generate_pairs(seed=seed, count=30)
        in_order = np.column_stack((ps.up, ps.lo)).ravel().tolist()
        assert ps.members.tolist() == _first_rows(ps) == in_order
        twice = ax._Pairs.of(list(ps) + list(ps))
        assert twice.members.tolist() == _first_rows(twice)


class TestDriverEqualsOutcomeLoop:
    """``_run_axiom`` takes each checker's outcomes as arrays; the loop that
    it replaced, one outcome object per item (``oracles.run_axiom_per_item``),
    must give the same report from the same outcomes: counts, note text and
    order, violations and their order and fields."""

    # more named reasons than the checkers have, so that their order shows
    REASONS = (None, None, "boundary-level pairs excluded", "reason b", "reason c")
    VERDICTS = [(ax._below, ax.MONOTONE_SLACK), (ax._not_above, ax.STRICT_SLACK),
                (ax._unequal, ax.EQUALITY_ASSERT_TOL), (ax._not_positive, ax.STRICT_SLACK)]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reports_equal(self, data):
        m, c = data.draw(st.integers(0, 9)), data.draw(st.integers(1, 4))

        def grid(values, shape):
            flat = data.draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
            return np.array(flat, dtype=float).reshape(shape)
        scores = st.sampled_from([0.0, -0.0, 1e-13, 1.0, 1.0 + 1e-9, 1.5, -2.0, math.nan])
        verdict, tol = data.draw(st.sampled_from(self.VERDICTS))
        m_up = grid(scores, (m, c))
        m_lo = data.draw(st.sampled_from([0.0, None]))
        m_lo = grid(scores, (m, c)) if m_lo is None else m_lo
        ts = data.draw(st.sampled_from([2.5, None]))
        ts = grid(st.floats(-10, 10), (m, c)) if ts is None else ts
        note = data.draw(st.sampled_from(["per pair", "per item", "per column", "none"]))
        note = {"per pair": "not strict", "none": "",
                "per item": np.array([f"item {r}" for r in range(m)]).reshape(m, 1),
                "per column": np.array([f"column {j}" for j in range(c)])}[note]
        untested = np.array(data.draw(st.lists(st.integers(0, len(self.REASONS) - 1),
                                               min_size=m, max_size=m)), dtype=int)
        idx = np.array(data.draw(st.lists(st.integers(0, 99), min_size=m, max_size=m)), dtype=int)
        remark = data.draw(st.sampled_from(["", "a remark"]))

        original = ax._UNTESTED
        ax._UNTESTED = self.REASONS
        try:
            got = ax._run_axiom("AX", idx, untested, ts, m_up, m_lo, verdict, tol, note, remark)
        finally:
            ax._UNTESTED = original

        # one outcome per item: its skip reason, its violation at the first
        # flagged column, or None
        flagged, gap = verdict(m_up, m_lo, tol)
        cells = [np.broadcast_to(v, flagged.shape) for v in (ts, m_up, m_lo, gap, note)]
        outcomes = []
        for r in range(m):
            if untested[r]:
                outcomes.append(self.REASONS[untested[r]] or "skipped")
            elif flagged[r].any():
                j = int(np.argmax(flagged[r]))
                outcomes.append(ax.Violation(int(idx[r]), *(v[r, j].item() for v in cells)))
            else:
                outcomes.append(None)
        want = oracles.run_axiom_per_item("AX", outcomes, remark, uncounted="skipped")
        # repr, not ==: it tells -0.0 from 0.0 and a float from a numpy
        # scalar, and a NaN score equals itself
        assert repr(got) == repr(want)


class TestBuiltOncePerSet:
    def test_level_table_and_positivity_built_once(self, monkeypatch):
        # the three single-level suites on one set build one level table and
        # one positivity result per (bundle, level); a set stacked again
        # builds its own
        built = []
        for name in ("_level_table", "_positivity"):
            def spy(bundle, theta, ps, real=getattr(ax, name), name=name):
                built.append((name, bundle.name, theta, id(ps)))
                return real(bundle, theta, ps)
            monkeypatch.setattr(ax, name, spy)
        pairs = generate_pairs(seed=5, count=6)
        levels = (("e", 2.5), ("h", 8.0), ("e", 1.0))

        def run(ps):
            for name, level in levels:
                for check in (check_impact_measure, check_strong_impact, check_global_impact):
                    check(BUNDLES[name], level, ps)
        run(pairs)
        want = [(builder, name, level, id(pairs)) for name, level in levels
                for builder in ("_level_table", "_positivity")]
        assert sorted(built) == sorted(want)
        again = ax._Pairs.of(tuple(pairs))
        run(again)
        assert sorted(built[len(want):]) == sorted(
            (builder, name, level, id(again)) for builder, name, level, _ in want)

    def test_set_hashes_and_compares_as_its_tuple(self):
        pairs = generate_pairs(seed=1, count=2)
        assert hash(pairs) == hash(tuple(pairs)) and pairs == tuple(pairs)
        # a list is not a tuple of pairs: __eq__ declines it
        assert pairs.__eq__(list(pairs)) is NotImplemented and not pairs == list(pairs)

    def test_kinds_are_one_array(self):
        pairs = generate_pairs(seed=5, count=3)
        assert pairs.kinds.tolist() == [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3
        for i, kind in enumerate(RelationKind):
            assert pairs.where(kind).tolist() == list(range(3 * i, 3 * i + 3))


class _Scripted:
    """A stand-in for ``numpy.random.Generator`` that serves scripted
    uniforms and integers in order and logs every call: ("u", n) for n
    uniforms, ("int", low, high, n) for n integers (high as a list where it
    is an array, one integer per entry)."""

    def __init__(self, uniforms, integers):
        self.uniforms, self.integers_left, self.log = list(uniforms), list(integers), []

    @staticmethod
    def _take(script, shape):
        n = int(np.prod(shape))
        assert len(script) >= n, "script ran out"
        return np.array(script[:n]).reshape(shape), script[n:]

    def random(self, size=None):
        out, self.uniforms = self._take(self.uniforms, () if size is None else size)
        self.log.append(("u", out.size))
        return out[()] if size is None else out

    def integers(self, low, high, size=None):
        shape = np.shape(high) if size is None else (size,)
        out, self.integers_left = self._take(self.integers_left, shape)
        self.log.append(("int", low, np.asarray(high).tolist(), out.size))
        return out.astype(int)


def _refill(monkeypatch, rejected, sizes):
    """Reject each (round, attempt) of rejected once: every rejected slot
    must be drawn anew in the next round, each round's size must be its
    open slots (sizes), and the pairs must be those of the
    one-pair-at-a-time reference that drops the same rows."""
    real, calls = ax._rejections, []

    def reject(fns, kinds, *args):
        reasons = real(fns, kinds, *args)
        for i in range(len(reasons)):
            if (len(calls), i) in rejected:
                reasons[i] = "rejected once"
        calls.append(len(kinds))
        return reasons

    monkeypatch.setattr(ax, "_rejections", reject)
    got = generate_pairs(seed=13, count=6)
    assert calls == sizes
    want = oracles.pairs_one_at_a_time(13, 6, drop=lambda round, row: (round, row) in rejected)
    assert list(got) == want
    assert [p.prefix_end for p in got] == [p.prefix_end for p in want]
    assert got.kinds.tolist() == [k for k in range(4) for _ in range(6)]


def _digest(configs):
    """SHA-256 over the generated pairs of every (seed, count): relation,
    prefix end and both members' knots."""
    h = hashlib.sha256()
    for seed, count in configs:
        for p in generate_pairs(seed=seed, count=count):
            h.update(f"{p.relation.value}:{p.prefix_end!r}".encode())
            for f in (p.upper, p.lower):
                h.update(np.concatenate((f.xs, f.ys)).tobytes())
    return h.hexdigest()


class TestGenerator:
    def test_deterministic(self):
        a = generate_pairs(seed=42, count=1)
        b = generate_pairs(seed=42, count=1)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_pairs(seed=1, count=1)
        b = generate_pairs(seed=2, count=1)
        assert a != b

    def test_every_pair_verifies(self):
        pairs = generate_pairs(seed=3, count=5)
        for p in pairs:
            assert verify_pair(p) is p
        assert ax._Pairs.of(list(pairs)) == pairs  # stacked and verified again

    def test_relation_counts(self):
        pairs = generate_pairs(seed=4, count=3)
        by_kind = {k: 0 for k in RelationKind}
        for p in pairs:
            by_kind[p.relation] += 1
        assert all(v == 3 for v in by_kind.values())

    # The generator's stream changed once, when a round came to draw all its
    # attempts in three rng calls (knot counts, a matrix of uniforms, split
    # knots) and to redraw a rejected attempt in the next round with no
    # rewind; these digests were pinned then, by that generator and by
    # ``oracles.pairs_one_at_a_time``, which agreed on every pair.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pairs_pinned(self, seed):
        # SHA-256 of the pairs, relation, prefix end and knots, at 10 per kind
        assert _digest([(seed, 10)]) == {
            0: "5ba1799648a38b89332fe21df4ad88131900c53bed7e326c95032d57dcc7a30c",
            1: "ae26173031ea67b6bad12ce402e44a2a6e70d6c8c5ff02587ad9ea06fa80f1b0",
            2: "e753cd0307d770f811d8f27aa742a0151468a4435e465c6ad759a6eeff459df8",
        }[seed]

    def test_hundred_seeds_pinned(self):
        # one SHA-256 over seeds 0-99 at 50 pairs per kind
        digest = _digest((s, 50) for s in range(100))
        assert digest == "0dd8f146a5288f3c6d15b8f0db574f32ad26489b65227dca61ea60bd81746b1a"

    def test_verification_reads_merged_knots(self, monkeypatch):
        # pairs are read at their merged knots in one stacked pass, never on
        # a grid
        pairs = list(generate_pairs(seed=3, count=4))
        calls, stacked = [], []

        def spy(values, log):
            def wrapper(self, xs):
                log.append(len(xs))
                return values(self, xs)
            return wrapper

        monkeypatch.setattr(PiecewiseLinearFn, "values", spy(PiecewiseLinearFn.values, calls))
        monkeypatch.setattr(_PwlStack, "values", spy(_PwlStack.values, stacked))
        for p in pairs:
            calls.clear(), stacked.clear()
            assert verify_pair(p) is p
            assert calls == []
            merged = len(np.union1d(p.upper.xs, p.lower.xs))
            assert len(stacked) == 2 and stacked[0] == stacked[1] <= 2 * merged + 1

    def test_generation_reads_no_grid(self, monkeypatch):
        # members are views of the batch's knot arrays, checked and verified
        # in stacked passes: no function is built or read one at a time, and
        # each pass reads a pair at no more than its merged knots
        sizes, built = [], []
        values, init = _PwlStack.values, PiecewiseLinearFn.__init__

        def spy(self, xs):
            sizes.append(len(xs))
            return values(self, xs)

        monkeypatch.setattr(_PwlStack, "values", spy)
        monkeypatch.setattr(PiecewiseLinearFn, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        monkeypatch.setattr(PiecewiseLinearFn, "values", None)
        assert not hasattr(ax, "_VERIFY_GRID")
        pairs = generate_pairs(seed=1, count=10)
        width = ax._KNOT_RANGE[1] + 1
        # both members of each pair at the 2 * width merged knots
        assert sum(sizes) == 2 * 2 * width * len(pairs) and built == []

    @pytest.mark.parametrize("cfg", [(0, 30), (9, 40)])  # (seed, count)
    def test_pairs_equal_the_one_at_a_time_reference(self, cfg):
        got = generate_pairs(*cfg)
        want = oracles.pairs_one_at_a_time(*cfg)
        assert list(got) == want
        assert [p.prefix_end for p in got] == [p.prefix_end for p in want]
        for p in got:
            for f in (p.upper, p.lower):
                assert not f.xs.flags.writeable and not f.ys.flags.writeable

    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_rejected_pair_is_drawn_again(self, k, monkeypatch):
        # the first round's GEQ_ALL attempt k is rejected: the next round
        # draws one GEQ_ALL attempt
        _refill(monkeypatch, {(0, k)}, [24, 1])

    @pytest.mark.parametrize("rejected, sizes", [
        # a later kind, alone or after another: only the open slots are drawn
        ({(0, 6 + 2)}, [24, 1]),
        ({(0, 3), (0, 18 + 4)}, [24, 2]),
        # a rejection in the refill round itself
        ({(0, 3), (1, 0)}, [24, 1, 1]),
        ({(0, 3), (0, 18 + 2), (1, 1)}, [24, 2, 1]),
    ], ids=["strict", "cumulative", "retry-geq", "retry-cumulative"])
    def test_later_rejections_are_drawn_again(self, rejected, sizes, monkeypatch):
        _refill(monkeypatch, rejected, sizes)

    @pytest.mark.parametrize("kind", list(RelationKind))
    def test_rank_redraw_draws_as_one_at_a_time(self, kind, monkeypatch):
        # one attempt per kind, four knots each; the ranks of the kind's row
        # lie 1e-7 apart and are drawn again, after the round's three
        # calls.  Generator and reference make the same calls and build the
        # same pairs
        width, row = 2 * ax._KNOT_RANGE[1] + 2, ax._KINDS.index(kind)
        rows = np.full((4, width), 0.5)
        rows[:, :2] = [[0.3, 0.6], [0.45, 0.8], [0.2, 0.9], [0.4, 0.7]]
        rows[row, :2] = [0.5, 0.5 + 1e-7]
        rows[:, ax._DRAWS] = [[0.1, 0.2, 0.3], [0.5, 0.3, 0.6], [0.7, 0.4, 0.2], [0.3, 0.8, 0.9]]
        uniforms = [*rows.ravel().tolist(), 0.25, 0.65]
        stubs = []

        def scripted(seed):
            stubs.append(_Scripted(uniforms, [4, 4, 4, 4, 1]))
            return stubs[-1]

        monkeypatch.setattr(np.random, "default_rng", scripted)
        got = generate_pairs(seed=0, count=1)
        want = oracles.pairs_one_at_a_time(0, 1)
        assert list(got) == want
        assert [p.prefix_end for p in got] == [p.prefix_end for p in want]
        assert got[row].lower.xs.tolist() == [0.0, 0.25, 0.65, 1.0]  # the second ranks
        assert stubs[0].log == stubs[1].log == [
            ("int", 3, 9, 4), ("u", 4 * width), ("int", 1, [3], 1), ("u", 2)]
        assert stubs[0].uniforms == stubs[1].uniforms == []

    def test_rank_redraw_gives_up_after_100_draws(self):
        # every uniform is 0.5, so a four-knot row's two ranks coincide on
        # the first draw and on each of its 100 redraws
        class Stuck:
            draws = 0

            def integers(self, low, high, size=None):
                return np.full(np.shape(high) if size is None else size, 4)

            def random(self, size=None):
                self.draws += 1
                return np.full(size, 0.5)

        rng = Stuck()
        with pytest.raises(ax.GenerationError,
                           match="^could not draw well-separated knot ranks$"):
            ax._draws(rng, np.array([ax._KINDS.index(RelationKind.GEQ_ALL)]))
        assert rng.draws == 1 + 100

    def test_a_round_draws_in_three_calls(self, monkeypatch):
        # no draw per attempt: a round calls the generator three times
        # whatever the count
        real, log = np.random.default_rng, []

        class Logged:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                log.append(name)
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Logged(real(seed)))
        for count in (1, 10, 200):
            log.clear()
            generate_pairs(seed=3, count=count)
            assert log == ["integers", "random", "integers"]

    def test_shape(self):
        # seeds 0-19 at 50 per kind: the ranges that generate_pairs documents
        pairs = [p for seed in range(20) for p in generate_pairs(seed=seed, count=50)]
        assert {len(p.lower.xs) for p in pairs} == set(range(3, 9))
        tails = np.array([p.lower.ys[-1] for p in pairs])
        totals = np.array([p.lower.ys[0] - p.lower.ys[-1] for p in pairs])
        assert tails.min() >= 0.0 and tails.max() < 0.4
        assert totals.min() >= 3.0 - 1e-12 and totals.max() < 10.0 + 1e-12
        for p in pairs:
            # the shift or wedge height is the gap at 0
            if p.relation is not RelationKind.EQUAL_ON_PREFIX:
                assert 0.05 - 1e-12 <= p.upper.ys[0] - p.lower.ys[0] < 0.4 + 1e-12, p
            if p.relation is RelationKind.STRICT_ON_PREFIX:
                assert 0.25 <= p.prefix_end < 0.75
            elif p.relation is RelationKind.EQUAL_ON_PREFIX:
                assert p.prefix_end in p.lower.xs[1:-1].tolist()
            else:
                assert p.prefix_end is None

    def test_pairs_hold_exactly(self):
        # every generated pair's relation holds in rational arithmetic
        for seed in range(5):
            for p in generate_pairs(seed=seed, count=20):
                facts = oracles.exact_order_facts(p.upper, p.lower, p.prefix_end)
                assert oracles.exact_relation_holds(p.relation, facts), (seed, p)

    def test_hundred_rejections_give_up(self, monkeypatch):
        monkeypatch.setattr(ax, "_rejections", lambda fns, kinds, *args: ["rejected"] * len(kinds))
        with pytest.raises(ax.GenerationError, match="gave up generating a geq_all pair"):
            generate_pairs(seed=1, count=3)

    def test_slices_and_sums_are_stacked_again(self):
        # the generator's set is immutable and read as it is; a slice, or a
        # sum of two sets' tuples, is a plain tuple, which the checkers
        # stack once
        pairs = generate_pairs(seed=4, count=5)
        assert isinstance(pairs, ax._Pairs) and ax._Pairs.of(pairs) is pairs
        with pytest.raises(AttributeError):
            pairs.fns = None
        for part in (pairs[:-1], tuple(pairs) + tuple(generate_pairs(seed=5, count=5))):
            assert type(part) is tuple
            rebuilt = ax._Pairs.of(part)
            assert rebuilt is not part and rebuilt.fns is not pairs.fns and rebuilt == part
            assert isinstance(rebuilt.fns, _PwlStack) and len(rebuilt.fns.T) == 2 * len(part)
        assert len(ax._Pairs.of(part)) == 40

    def test_copies_and_pickles_keep_the_set(self):
        pairs = generate_pairs(seed=4, count=5)
        want = json.dumps(_all_reports(E_BUNDLE, 2.5, pairs), sort_keys=True)
        for twin in (copy.copy(pairs), copy.deepcopy(pairs), pickle.loads(pickle.dumps(pairs))):
            assert isinstance(twin, ax._Pairs) and twin == pairs
            assert json.dumps(_all_reports(E_BUNDLE, 2.5, twin), sort_keys=True) == want

    def test_blocks_change_nothing(self, monkeypatch, tmp_path):
        # a run in blocks of a few rows equals one unblocked pass, pairs and
        # reports alike
        def run(block):
            monkeypatch.setattr(fn, "_BLOCK", block)
            pairs = generate_pairs(seed=17, count=200)
            reports = {}
            for name, level in (("e", 2.5), ("h", 8.0), ("mu", 0.5), ("i", 0.5)):
                bundle = BUNDLES[name]
                for suite in (check_impact_bundle(bundle, pairs),
                              check_impact_measure(bundle, level, pairs),
                              check_strong_impact(bundle, level, pairs),
                              check_global_impact(bundle, level, pairs)):
                    reports.update({f"{name}:{k}": r.to_json_obj() for k, r in suite.items()})
            return pairs, reports

        blocked, unblocked = run(37), run(10**9)
        assert blocked[0] == unblocked[0]
        assert blocked[1] == unblocked[1]

    def test_config_validation(self):
        with pytest.raises(InputError):
            generate_pairs(count=0)

    @pytest.mark.parametrize("seed", [-1, -(2**70), True, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # numpy would raise its own ValueError on a negative seed (or take
        # None as "fresh entropy"); the generator names the seed instead
        with pytest.raises(InputError, match=f"seed must be an integer >= 0, got {seed!r}"):
            generate_pairs(seed=seed, count=1)

    def test_numpy_integer_seed(self):
        assert generate_pairs(seed=np.int64(3), count=2) == generate_pairs(seed=3, count=2)

    def test_a_pair_is_built_once_when_read(self):
        # the set holds knot arrays; a pair is built on the first read, by
        # index or by iteration, and the same object is read after that
        pairs = generate_pairs(seed=4, count=5)
        assert all(p is None for p in pairs._pairs)
        first = pairs[3]
        assert pairs[3] is first and pairs[3 - len(pairs)] is first
        assert [p is not None for p in pairs._pairs].count(True) == 1
        assert all(a is b for a, b in zip(pairs, list(pairs)))
        assert pairs[-1] is pairs[len(pairs) - 1] and pairs[2:4] == (pairs[2], pairs[3])
        with pytest.raises(IndexError):
            pairs[len(pairs)]
        # its members are read-only views of the set's stack
        upper = first.upper
        assert not upper.xs.flags.writeable and not upper.ys.flags.writeable
        assert np.shares_memory(upper.xs, pairs.fns.xs)
        assert first.relation is RelationKind.GEQ_ALL and first.prefix_end is None
        assert pairs[12].prefix_end == pairs.prefix[12]
