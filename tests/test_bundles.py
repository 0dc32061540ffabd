import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import seeded_pwl, table_cells
from ebundles.axioms import (
    DominancePair,
    RelationKind,
    _Pairs,
    generate_pairs,
    pseudo_bundle_eta,
    pseudo_bundle_n,
)
from ebundles.bundles import (
    BUNDLES,
    SweepRow,
    SweepTable,
    classical_h,
    e_index,
    e_theta,
    e_thetas,
    h_theta,
    h_thetas,
    i_bundle,
    mu_bundle,
    r_index_squared,
    sweep,
)
from ebundles.functions import (
    InputError,
    LinearFamily,
    PiecewiseLinearFn,
    PowerComplement,
    RankFunction,
    ThetaRangeError,
    ZipfFamily,
    _PwlStack,
    from_citations,
)

LINE = PiecewiseLinearFn.from_pairs([(0, 10), (10, 0)])


class _Cubic(RankFunction):
    """s * (1 - (x / s)^3) on [0, s]: a custom subclass, whose h is the
    default ray crossing."""

    def __init__(self, s):
        self.T = s

    def values(self, xs):
        return self.T * (1.0 - (np.asarray(xs, dtype=float) / self.T) ** 3)


def _decimal_root(z, theta):
    """The root of z(x) = theta * x on [0, 1], to 60 digits, by bisection."""
    with localcontext() as ctx:
        ctx.prec = 60
        lo, hi, theta = Decimal(0), Decimal(1), Decimal(theta)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if z(mid) - theta * mid > 0 else (lo, mid)
        return lo


def linear_e_closed_form(S, T, theta):
    return T * (S - theta) ** 2 / (2 * S)


def zipf_e_closed_form(beta, T, theta):
    return T * (beta / (1 - beta)) * theta ** (1 - 1 / beta)


class TestETheta:
    def test_linear_closed_form_value(self):
        assert e_theta(LinearFamily(S=10, T=20), 4.0) == pytest.approx(36.0, abs=1e-12)

    def test_zero_at_peak(self):
        for f in (LINE, LinearFamily(S=3, T=7)):
            assert e_theta(f, f.value(0.0)) == 0.0

    def test_zipf_closed_form_value(self):
        # T / ((alpha - 2) theta**(alpha - 2)) with alpha = 3: 1 / (1 * 2)
        assert e_theta(ZipfFamily(beta=0.5, T=1), 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_at_bottom_level(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        want = f.cumulative(f.T) - f.value(f.T) * f.T
        assert e_theta(f, f.value(f.T)) == pytest.approx(want, abs=1e-12)

    def test_bottom_level_inverse_stays_in_domain(self):
        # x_j + (x_{j+1} - x_j) rounds past T on the last segment of this
        # function, which once made e undefined at the level Z(T)
        f = PiecewiseLinearFn.from_pairs([
            (0.0, 5.307620261316964), (0.561400767550223, 5.282003801209707),
            (0.9102557662160548, 2.0218847516188565), (1.9458397873156816, 0.008004207622164479),
        ])
        z_T = f.value(f.T)
        assert f.inverse(z_T) == f.T
        assert e_theta(f, z_T) == pytest.approx(f.cumulative(f.T) - z_T * f.T, rel=1e-12)

    def test_inadmissible(self):
        with pytest.raises(ThetaRangeError):
            e_theta(LINE, 10.5)
        with pytest.raises(ThetaRangeError):
            e_theta(ZipfFamily(beta=0.5, T=1), 0.5)

    def test_linear_grid_against_closed_form(self):
        f = LinearFamily(S=10, T=20)
        for theta in np.linspace(0.0, 10.0, 1000):
            assert abs(e_theta(f, float(theta)) - linear_e_closed_form(10, 20, theta)) <= 1e-9

    def test_zipf_two_closed_forms_agree(self):
        for beta in (0.3, 0.5, 0.7):
            f = ZipfFamily(beta=beta, T=1)
            alpha = (beta + 1) / beta
            for theta in np.linspace(1.1, 10.0, 200):
                got = e_theta(f, float(theta))
                assert abs(got - zipf_e_closed_form(beta, 1, theta)) <= 1e-6
                assert abs(got - 1.0 / ((alpha - 2) * theta ** (alpha - 2))) <= 1e-9

    def test_non_increasing_and_continuous(self):
        rng = np.random.default_rng(17)
        for f in (seeded_pwl(rng), LinearFamily(S=6, T=4)):
            r = f.admissible_range()
            thetas = np.linspace(r.lo, r.hi, 1000)
            vals = np.array([e_theta(f, float(t)) for t in thetas])
            steps = np.diff(vals)
            assert np.all(steps <= 1e-9)  # no upward step
            # continuity: steps bounded by the local slope of e, which is
            # the inverse rank, itself at most T
            assert np.max(np.abs(steps)) <= f.T * (thetas[1] - thetas[0]) + 1e-9

    def test_against_oracle(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        for theta in (0.5, 1.0, 2.0):
            assert e_theta(f, theta) == pytest.approx(
                oracles.oracle_excess_area(f, theta, panels=10**5), rel=1e-6
            )


class TestHTheta:
    def test_linear_by_hand(self):
        # S(1 - h/T) = theta h  ->  h = ST / (S + theta T)
        assert h_theta(LinearFamily(S=10, T=20), 1.0) == pytest.approx(20 / 3, abs=1e-10)

    def test_pwl_by_hand(self):
        # 10 - h = h
        assert h_theta(LINE, 1.0) == pytest.approx(5.0, abs=1e-10)

    def test_monotone_decreasing_in_theta(self):
        prev = math.inf
        for theta in (0.1, 0.5, 1.0, 5.0, 25.0, 1000.0):
            h = h_theta(LINE, theta)
            assert h < prev
            prev = h
        assert h_theta(LINE, 1e6) < 1e-4  # h -> 0 as theta grows

    def test_residual_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            f = seeded_pwl(rng)
            lo = f.value(f.T) / f.T
            for theta in np.linspace(lo + 1e-6, lo + 50, 20):
                h = h_theta(f, float(theta))
                assert abs(f.value(h) - theta * h) <= 1e-10 * max(1.0, f.value(0.0))

    def test_below_range(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        with pytest.raises(ThetaRangeError):
            h_theta(f, 0.05)  # Z(T)/T = 0.1

    def test_boundary_hits_T(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        assert h_theta(f, 0.1) == 2.0

    @pytest.mark.parametrize("scale", [0.1, 5.0])
    def test_tolerance_edge(self, scale):
        # exactly 1e-12 * max(1, Z(T)/T) below Z(T)/T, h is T; five times as
        # far below, the level raises
        f = PiecewiseLinearFn.from_pairs([(0, 2 * scale), (1, scale)])
        assert h_thetas(f, [scale - 1e-12 * max(1.0, scale)]).tolist() == [1.0]
        with pytest.raises(ThetaRangeError):
            h_thetas(f, [scale - 5e-12 * max(1.0, scale)])

    def test_subnormal_domain_below_the_tolerance(self):
        # at a subnormal T, theta * T rounds onto Z(T) a whole 1e-6 below
        # Z(T)/T; the level is still below h's range, and raises
        f = PiecewiseLinearFn.from_pairs([(0, 1e-300), (1e-320, 1e-321)])
        with pytest.raises(ThetaRangeError):
            h_theta(f, f.value(f.T) / f.T - 1e-6)

    def test_power_complement_within_two_ulps(self):
        # the default ray crossing returns the last float at which
        # Z(h) - theta * h is positive: within 2 ulps of the 60-digit root
        rng = np.random.default_rng(11)
        for n, theta in zip(rng.integers(1, 61, 400).tolist(),
                            (10.0 ** rng.uniform(-3, 3, 400)).tolist()):
            root = _decimal_root(lambda x: 1 - x**n, theta)
            h = h_theta(PowerComplement(n), theta)
            assert abs(Decimal(h) - root) <= 2 * Decimal(math.ulp(float(root))), (n, theta)

    def test_custom_subclass_at_any_scale(self):
        # s * (1 - (x / s)^3) at level 1 has the root h = 0.6823278038280193...
        # times s: over the floats, h / s is the same at every power of two
        # and within 2 ulps of the root at s = 1e-20
        root = _decimal_root(lambda u: 1 - u**3, 1.0)
        unit = h_theta(_Cubic(1.0), 1.0)
        assert abs(Decimal(unit) - root) <= 2 * Decimal(math.ulp(unit))
        for k in range(-70, 71):
            assert h_theta(_Cubic(2.0**k), 1.0) / 2.0**k == unit, k
        tiny = h_theta(_Cubic(1e-20), 1.0) / 1e-20
        assert abs(Decimal(tiny) - root) <= 2 * Decimal(math.ulp(unit))

    @pytest.mark.parametrize("theta, said", [
        (-1.0, "theta=-1.0 must be finite and >= 0"),
        (math.nan, "theta=nan must be finite and >= 0"),
        (0.05, "theta=0.05 below Z(T)/T = 0.1"),
        (0.0, "theta=0.0 below Z(T)/T = 0.1"),
    ], ids=["negative", "nan", "below", "zero"])
    def test_undefined_level_is_named(self, theta, said):
        # the first undefined level is the one named
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        with pytest.raises(ThetaRangeError) as info:
            h_thetas(f, [1.0, theta, 0.01])
        assert str(info.value) == said


class TestClassicalIndices:
    def test_classical_h_pwl(self):
        assert classical_h(LINE) == pytest.approx(5.0, abs=1e-10)

    def test_classical_h_linear(self):
        assert classical_h(LinearFamily(S=10, T=10)) == pytest.approx(5.0, abs=1e-10)

    def test_classical_h_zipf(self):
        # (1/h)**0.5 = h  ->  h**1.5 = 1  ->  h = 1
        assert classical_h(ZipfFamily(beta=0.5, T=1)) == pytest.approx(1.0, abs=1e-10)

    def test_hand_case(self):
        # Z = 10 - x: h = 5, R^2 = int_0^5 Z = 37.5, e = sqrt(12.5)
        assert r_index_squared(LINE) == pytest.approx(37.5, abs=1e-9)
        assert e_index(LINE) == pytest.approx(math.sqrt(12.5), abs=1e-9)

    def test_e_index_squared_is_excess_area(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            f = seeded_pwl(rng)
            h = classical_h(f)
            assert e_index(f) ** 2 == pytest.approx(e_theta(f, h), abs=1e-9)
            assert e_index(f) ** 2 == pytest.approx(
                r_index_squared(f) - h * h, abs=1e-9
            )

    def test_symmetric_triangle(self):
        # S = T: the excess at theta = S/2 is the triangle of height S/2,
        # area T**2 / 8, matching the squared e-index
        f = LinearFamily(S=6, T=6)
        assert e_index(f) ** 2 == pytest.approx(36 / 8, abs=1e-9)
        assert e_theta(f, 3.0) == pytest.approx(36 / 8, abs=1e-12)


class TestMuAndI:
    def test_i_total(self):
        assert i_bundle(LinearFamily(S=10, T=20), 20.0) == 100.0

    def test_mu_at_zero(self):
        for f in (LINE, LinearFamily(S=2, T=3)):
            assert mu_bundle(f, 0.0) == f.value(0.0)

    def test_i_at_zero(self):
        assert i_bundle(LINE, 0.0) == 0.0

    def test_domain_checked(self):
        with pytest.raises(InputError):
            mu_bundle(LINE, 11.0)


class TestOperationLevelMonotonicity:
    def test_e_respects_pointwise_order(self):
        pairs = generate_pairs(seed=13, count=200)[:200]  # the GEQ_ALL pairs
        for p in pairs:
            lo_t = max(p.upper.value(p.upper.T), p.lower.value(p.lower.T))
            hi_t = min(p.upper.value(0.0), p.lower.value(0.0))
            for theta in np.linspace(lo_t, hi_t, 16):
                assert e_theta(p.upper, float(theta)) >= e_theta(p.lower, float(theta)) - 1e-12


class TestSweep:
    def test_linear_e_column(self):
        table = sweep(LinearFamily(S=10, T=20), [0.0, 4.0, 10.0])
        assert [r.e for r in table.rows] == pytest.approx([100.0, 36.0, 0.0], abs=1e-12)

    def test_empty(self):
        # no rows: the CSV is its header alone
        table = sweep(LINE, [])
        assert table.rows == ()
        assert table.to_csv() == "theta,e,h,mu,i\n"
        assert table.to_json_obj() == {"rows": []}

    def test_missing_markers(self):
        # theta = 12 exceeds Z(0) = 5: no e score, but h / mu / i still fill
        table = sweep(LinearFamily(S=5, T=20), [12.0])
        row = table.rows[0]
        assert row.e is None
        assert row.h is not None and row.mu is not None and row.i is not None

    def test_rejects_unsorted(self):
        with pytest.raises(InputError):
            sweep(LINE, [3.0, 1.0])

    def test_csv_round_trip(self):
        table = sweep(LINE, [0.0, 2.0, 12.0])
        text = table.to_csv()
        assert text.splitlines()[0] == "theta,e,h,mu,i"
        assert "NA" in text

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.just(5), st.integers(0, 8)),
                  elements=table_cells | st.just(math.nan)))
    @example(np.empty((5, 0)))
    @example(np.array([[0.0], [math.inf], [math.nan], [-0.0], [5e-324]]))
    def test_writers_are_the_row_encodings_byte_for_byte(self, columns):
        # the column writers against a line of reprs per row and json.dumps
        # of the rows, on every kind of cell, an empty and a one-row table
        table = SweepTable(columns)
        assert table.to_csv() == oracles.csv_by_rows(SweepRow, table.rows)
        assert table.to_json() == oracles.json_by_dumps(table)

    def test_json_mirror_uses_null(self):
        import json

        table = sweep(LINE, [12.0])
        obj = json.loads(table.to_json())
        assert obj["rows"][0]["e"] is None

    def test_h_cell_wherever_h_theta_is_defined(self):
        # 5 - 3e-12 is below Z(T)/T = 5 by more than an absolute 1e-12 but
        # within h's tolerance, 1e-12 * max(1, Z(T)/T): h_theta gives T there,
        # and so does the sweep's cell
        f = PiecewiseLinearFn.from_pairs([(0, 10), (1, 5)])
        theta = 5 - 3e-12
        assert h_theta(f, theta) == 1.0
        assert sweep(f, [theta]).rows[0].h == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_levels(self, bad):
        with pytest.raises(InputError):
            sweep(LINE, [0.0, bad])


def _scalar_sweep_cells(f, t):
    """The per-cell sweep rule: NA unless the score returns."""
    cells = {}
    for b in BUNDLES.values():
        try:
            cells[b.name] = b.measure(f, t)
        except InputError:
            cells[b.name] = None
    return cells


PARAMETRIC = st.one_of(
    st.builds(LinearFamily, S=st.floats(1e-3, 1e3), T=st.floats(1e-3, 1e3)),
    st.builds(ZipfFamily, beta=st.floats(0.05, 0.95), T=st.floats(1e-3, 1e3)),
    st.builds(PowerComplement, n=st.integers(1, 60)),
)


class TestVectorForms:
    @settings(max_examples=200, deadline=None)
    @given(f=PARAMETRIC, fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_parametric_vector_forms_match_scalar(self, f, fracs):
        rng = f.admissible_range()
        # Zipf levels run up to the value one millionth of the domain in
        hi = f.value(1e-6 * f.T) if rng.unbounded_above else rng.hi
        levels = rng.lo + np.array(fracs) * (hi - rng.lo)
        inv = np.array([f.inverse(t) for t in levels.tolist()])
        assert np.all(np.abs(f.inverses(levels) - inv) <= 2 * np.spacing(np.abs(inv)))
        e = np.array([e_theta(f, t) for t in levels.tolist()])
        assert np.all(np.abs(e_thetas(f, levels) - e) <= 1e-12 * max(1.0, hi - rng.lo))
        if isinstance(f, LinearFamily):  # + - * / only: bit for bit
            assert f.inverses(levels).tolist() == inv.tolist()

    @pytest.mark.parametrize(
        "f",
        [
            LinearFamily(S=2.0, T=3.0),
            LinearFamily(S=0.5, T=40.0),
            LinearFamily(S=10, T=20),
            ZipfFamily(beta=0.5, T=1.0),
            ZipfFamily(beta=0.2, T=40.0),
            ZipfFamily(beta=0.9, T=0.05),
        ],
        ids=["linear", "linear-long", "linear-int-T", "zipf", "zipf-flat", "zipf-steep"],
    )
    def test_closed_form_h(self, f):
        lo = f.value(f.T) / f.T
        thetas = np.unique(np.concatenate(
            ([lo, 123.0, 1e6], np.geomspace(max(lo, 1e-9), 1e6, 2_000))
        ))
        h = h_thetas(f, thetas)
        assert h[0] == f.T  # the boundary level Z(T)/T
        resid = np.abs(f.values(h) - thetas * h)
        assert np.all(resid <= 1e-14 * np.maximum(1.0, thetas * h))

    @pytest.mark.parametrize("name", sorted(BUNDLES))
    @pytest.mark.parametrize(
        "f",
        [
            from_citations([5, 3, 3, 1]),
            LinearFamily(S=10, T=20),
            ZipfFamily(beta=0.5, T=2.0),
            PowerComplement(n=3),
        ],
        ids=["citations", "linear", "zipf", "power"],
    )
    def test_bundle_vector_forms_match_scalar_loop(self, f, name):
        # measure and level_of read the rules at one argument: they raise
        # exactly where the rule gives NaN and return its value elsewhere
        bundle = BUNDLES[name]
        T, z_T = f.T, f.value(f.T)
        args = np.array([-1.0, 0.0, 0.3 * T, z_T, z_T / T, z_T / T - 5e-13, T, T + 1e-13,
                         2.0 * T, 7.0, math.inf, math.nan])
        exact = isinstance(f, (PiecewiseLinearFn, LinearFamily))
        for rule, scalar in ((bundle.scores, bundle.measure), (bundle.levels, bundle.level_of)):
            want = rule(f, args)
            for a, w in zip(args.tolist(), want.tolist()):
                if math.isnan(w):
                    with pytest.raises(InputError):
                        scalar(f, a)
                elif exact:  # numpy's power may move a parametric value by an ulp
                    assert scalar(f, a) == w
                else:
                    assert scalar(f, a) == pytest.approx(w, rel=4 * np.finfo(float).eps)
            assert not np.isnan(want).all()

    def test_out_of_range_levels_raise(self):
        with pytest.raises(ThetaRangeError):
            e_thetas(LINE, [5.0, 11.0])
        with pytest.raises(ThetaRangeError):
            LINE.inverses([-1.0])
        with pytest.raises(ThetaRangeError):
            h_thetas(PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)]), [0.05])

    def test_h_residual_on_80k_knots(self):
        counts = np.floor(np.random.default_rng(2).pareto(1.2, 100_000) * 5)
        f = from_citations(counts)
        assert len(f.knots) > 80_000
        thetas = np.linspace(0.0, 1.1 * f.value(0.0), 1001)
        table = sweep(f, thetas)
        theta = np.array([r.theta for r in table.rows if r.h is not None])
        h = np.array([r.h for r in table.rows if r.h is not None])
        assert len(h) == len(thetas)
        resid = np.abs(np.interp(h, f.xs, f.ys) - theta * h)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, theta * h))

    @pytest.mark.parametrize(
        "f",
        [
            from_citations([5, 3, 3, 1]),
            PiecewiseLinearFn.from_pairs([(0, 300), (1, 100), (2, 20)]),
            LinearFamily(S=10, T=20),
            ZipfFamily(beta=0.5, T=2.0),
            PowerComplement(n=3),
        ],
        ids=["citations", "steep", "linear", "zipf", "power"],
    )
    def test_na_pattern_at_range_ends(self, f):
        T, z_T, z_0 = f.T, f.value(f.T), f.value_at_origin()
        edges = {0.0, z_T, z_T / T, T, T + 1e-13, z_T / T - 5e-13}
        if math.isfinite(z_0):
            edges |= {z_0, z_0 + 1e-13}
        thetas = sorted(t for t in edges if t >= 0.0)
        for row in sweep(f, thetas).rows:
            want = _scalar_sweep_cells(f, row.theta)
            for name in ("e", "h", "mu", "i"):
                assert (getattr(row, name) is None) == (want[name] is None), (name, row.theta)
            for name in ("e", "mu", "i"):
                assert getattr(row, name) == want[name], (name, row.theta)


def _same_rows(got, want):
    assert np.isnan(got).tolist() == np.isnan(want).tolist()
    ok = ~np.isnan(want)
    assert got[ok].tolist() == want[ok].tolist()


def _stack_members(seed):
    pairs = generate_pairs(seed=seed, count=5)
    fns = list(dict.fromkeys(f for p in pairs for f in (p.upper, p.lower)))
    # a row without interior knots, and one with tie-broken knots
    return fns + [PiecewiseLinearFn.from_pairs([(0, 4), (2, 1)]), from_citations([5, 3, 3, 1])]


# The built-in bundles and the two rejected scores, all read in stacked passes.
STACKED = {**BUNDLES, "n": pseudo_bundle_n(), "eta": pseudo_bundle_eta()}


class TestStackedPass:
    """A ``_PwlStack`` of many functions reads row i on its own function at
    argument i; every row must equal that function's ``BundleDef.scores``,
    which read through the function's own one-row stack, bit for bit and NaN
    for NaN, at the ends of every range, at a knot, and one ulp off each.
    This checks the padding, the flat offsets and the row picks."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", sorted(STACKED))
    def test_rows_at_range_edges(self, name, seed):
        fns = _stack_members(seed)
        bundle = STACKED[name]
        stack = _PwlStack.of(fns)
        T = np.array([f.T for f in fns])
        z_T = np.array([f.admissible_range().lo for f in fns])
        z_0 = np.array([f.value_at_origin() for f in fns])
        # each row's second knot: a level, a ray slope and a rank that hit it
        x_1, y_1 = np.array([f.xs[1] for f in fns]), np.array([f.ys[1] for f in fns])
        for edge in (z_T, z_0, z_T / T, np.zeros(len(fns)), T, y_1, y_1 / x_1, x_1):
            for thetas in (np.nextafter(edge, -math.inf), edge, np.nextafter(edge, math.inf)):
                want = np.array([bundle.scores(f, np.array([t]))[0]
                                 for f, t in zip(fns, thetas.tolist())])
                _same_rows(bundle.scores(stack, thetas), want)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name, level", [("e", 2.5), ("h", 8.0), ("mu", 0.5), ("i", 0.5),
                                             ("n", 2.5), ("eta", 0.5)])
    def test_at_level(self, name, level, seed):
        # the benchmark's levels
        fns = _stack_members(seed)
        bundle = STACKED[name]
        want = np.array([bundle.scores(f, np.array([level]))[0] for f in fns])
        # each function as the upper of a pair with itself
        ps = _Pairs.of([DominancePair(f, f, RelationKind.GEQ_ALL) for f in fns])
        _same_rows(ps.fns._read(bundle.scores, ps.up, np.full(len(fns), level)), want)
        assert not np.isnan(want).all()
