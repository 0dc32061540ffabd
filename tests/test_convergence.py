import numpy as np
import pytest

from ebundles import convergence
from ebundles.bundles import e_thetas
from ebundles.convergence import (
    FunctionSequence,
    e_sup_distance,
    inverse_sup_distance,
    power_complement_sequence,
    run_study,
    scaled_linear_sequence,
    shifted_linear_sequence,
    sup_distance,
    zipf_sequence,
)
from ebundles.functions import (
    CumulativeOrder,
    InputError,
    LinearFamily,
    PiecewiseLinearFn,
    PowerComplement,
    ZipfFamily,
    cumulative_dominates,
)

UNIT_LINE = LinearFamily(S=1.0, T=1.0)


def scaled(n):
    return LinearFamily(S=1.0 + 1.0 / n, T=1.0)


class TestSupDistance:
    def test_identical(self):
        assert sup_distance(UNIT_LINE, UNIT_LINE) == 0.0

    def test_scaled_line(self):
        # sup |(1 + 1/n)(1-x) - (1-x)| = 1/n at x = 0
        assert sup_distance(scaled(10), UNIT_LINE) == pytest.approx(0.1, abs=1e-12)

    def test_grid_refinement_bound(self):
        f = PiecewiseLinearFn.from_pairs([(0, 2), (0.3, 1), (1, 0.1)])
        g = UNIT_LINE
        d1 = sup_distance(f, g, grid_n=1_000)
        d2 = sup_distance(f, g, grid_n=10_000)
        # interpolation error of the grid max is at most Lipschitz * spacing
        lipschitz = 10.0 / 3.0 + 1.0
        assert abs(d2 - d1) <= lipschitz * (1.0 / 999)

    def test_doubling_default_grid_changes_little(self):
        # the default 1e4 grid is converged: doubling moves results < 10%
        # (bounded pair for the function sup; near a pole the truncated-domain
        # sup is a diverging lower bound by design)
        f = PiecewiseLinearFn.from_pairs([(0, 2), (0.3, 1), (1, 0.1)])
        base = sup_distance(f, UNIT_LINE, 10_000)
        assert abs(sup_distance(f, UNIT_LINE, 20_000) - base) <= 0.1 * base
        zf = ZipfFamily(beta=0.55, T=1.0)
        zg = ZipfFamily(beta=0.5, T=1.0)
        for dist in (inverse_sup_distance, e_sup_distance):
            base = dist(zf, zg, 10_000)
            assert abs(dist(zf, zg, 20_000) - base) <= 0.1 * base

    def test_domain_mismatch(self):
        with pytest.raises(InputError):
            sup_distance(UNIT_LINE, LinearFamily(S=1, T=2))

    def test_near_equal_domains_read_the_shorter(self):
        # domain ends within 1e-12 relative pass as one domain; every
        # two-function read stays inside both, in either order
        f = PiecewiseLinearFn.from_pairs([(0.0, 3.0), (1.0, 0.0)])
        g = PiecewiseLinearFn.from_pairs([(0.0, 2.0), (1.0 + 1e-13, 0.0)])
        assert sup_distance(f, g) == sup_distance(g, f) == 1.0
        assert cumulative_dominates(f, g).order is CumulativeOrder.FOLLOWS
        assert cumulative_dominates(g, f).order is CumulativeOrder.PRECEDES


class TestInverseSupDistance:
    def test_identical(self):
        assert inverse_sup_distance(UNIT_LINE, UNIT_LINE) == 0.0

    def test_scaled_line_closed_form(self):
        # Z_n^-1(t) = 1 - t n/(n+1), Z^-1(t) = 1 - t: gap t/(n+1), max 1/(n+1)
        n = 10
        got = inverse_sup_distance(scaled(n), UNIT_LINE, grid_n=2_000)
        assert got == pytest.approx(1.0 / (n + 1), abs=1e-6)
        assert got <= 1.0 / (n + 1) + 1e-9

    def test_disjoint_ranges(self):
        high = PiecewiseLinearFn.from_pairs([(0, 10), (1, 5)])
        low = PiecewiseLinearFn.from_pairs([(0, 1), (1, 0.5)])
        with pytest.raises(InputError):
            inverse_sup_distance(high, low)


class TestESupDistance:
    def test_identical(self):
        assert e_sup_distance(UNIT_LINE, UNIT_LINE) == 0.0

    def test_scaled_line_rate(self):
        # excess-area gap (S_n - t)^2/(2 S_n) - (1-t)^2/2 peaks at t = 0
        # with value exactly 1/(2n)
        got = e_sup_distance(scaled(1000), UNIT_LINE, theta_grid_n=2_000)
        assert got == pytest.approx(5e-4, rel=0.2)
        smaller = e_sup_distance(scaled(10_000), UNIT_LINE, theta_grid_n=2_000)
        assert smaller < got
        assert smaller == pytest.approx(5e-5, rel=0.2)


class TestVectorDistances:
    def test_no_scalar_inverse_calls(self, monkeypatch):
        # a scalar inverse per level would cost a one-element vector call each
        def scalar(*args):
            raise AssertionError("scalar inverse called")

        monkeypatch.setattr(ZipfFamily, "inverse", scalar)
        seq = zipf_sequence([10, 100])
        report = run_study(seq, grid_n=1_000, theta_grid_n=500)
        assert all(r.sup_inv > 0.0 and r.sup_e > 0.0 for r in report.rows)

    @pytest.mark.parametrize("fns", [
        (ZipfFamily(beta=0.5 + 0.1 / 7, T=1.0), ZipfFamily(beta=0.5, T=1.0)),
        (PiecewiseLinearFn.from_pairs([(0.0, 1.25), (1.0, 0.25)]), UNIT_LINE),
    ])
    def test_blocks_match_one_pass(self, fns):
        f, g = fns
        n = 3 * convergence._BLOCK + 5
        xs = convergence._grid((f, g), 0.0, 1.0, n)
        thetas = convergence._shared_theta_grid(f, g, n)
        assert sup_distance(f, g, n) == float(np.max(np.abs(f.values(xs) - g.values(xs))))
        assert inverse_sup_distance(f, g, n) == float(
            np.max(np.abs(f.inverses(thetas) - g.inverses(thetas))))
        assert e_sup_distance(f, g, n) == float(
            np.max(np.abs(e_thetas(f, thetas) - e_thetas(g, thetas))))

    def test_vector_forms_see_one_block_at_a_time(self, monkeypatch):
        # temporaries over a whole grid would be mapped and unmapped per call
        sizes = []
        for name in ("values", "inverses", "cumulatives"):
            method = getattr(ZipfFamily, name)

            def spy(self, xs, method=method):
                sizes.append(np.size(xs))
                return method(self, xs)

            monkeypatch.setattr(ZipfFamily, name, spy)
        run_study(zipf_sequence([3, 30]), grid_n=100_000, theta_grid_n=20_000)
        assert sizes and max(sizes) <= convergence._BLOCK

    @pytest.mark.parametrize("grid_n", [-3, 0, 1])
    def test_level_grid_needs_two_points(self, grid_n):
        with pytest.raises(InputError):
            inverse_sup_distance(scaled(3), UNIT_LINE, grid_n)
        with pytest.raises(InputError):
            run_study(zipf_sequence([3]), theta_grid_n=grid_n)


class TestRunStudy:
    @pytest.mark.parametrize("limit", [UNIT_LINE, None])
    def test_builds_each_member_once(self, limit):
        built = []

        def family(n):
            built.append(n)
            return scaled(n)

        run_study(FunctionSequence(family, (2, 5, 9), limit), grid_n=200, theta_grid_n=50)
        assert built == [2, 5, 9]

    def test_scaled_linear_study(self):
        report = run_study(scaled_linear_sequence([10, 100, 1000]), grid_n=4_000, theta_grid_n=800)
        sup_fn = [r.sup_fn for r in report.rows]
        assert sup_fn == pytest.approx([0.1, 0.01, 0.001], rel=1e-6)
        assert report.fn_converges and report.inv_converges and report.e_converges
        assert report.member_peak == pytest.approx(1.1, abs=1e-12)

    def test_constant_sequence_all_zero(self):
        seq = FunctionSequence(
            family=lambda n: UNIT_LINE, n_values=(1, 2, 4), limit=UNIT_LINE
        )
        report = run_study(seq, grid_n=500, theta_grid_n=100)
        for row in report.rows:
            assert row.sup_fn == 0.0 and row.sup_inv == 0.0 and row.sup_e == 0.0

    def test_power_family_flags_discontinuous_limit(self):
        report = run_study(power_complement_sequence([1, 2, 4, 8, 16, 32]), grid_n=2_000)
        assert report.limit_discontinuous is True
        assert all(r.sup_fn is None for r in report.rows)
        assert report.fn_converges is None

    def test_uniformly_convergent_family_not_flagged(self):
        seq = FunctionSequence(
            family=lambda n: LinearFamily(S=1.0 + 1.0 / n, T=1.0),
            n_values=(2, 4, 8, 16, 32),
            limit=None,
        )
        report = run_study(seq, grid_n=2_000)
        assert report.limit_discontinuous is False

    def test_e_column_bounded_by_function_column(self):
        # per-level excess gap <= T * sup|Z_n - Z| once inverses settle
        for seq in (
            scaled_linear_sequence([8, 64, 512]),
            shifted_linear_sequence([8, 64, 512]),
        ):
            report = run_study(seq, grid_n=2_000, theta_grid_n=500)
            last = report.rows[-1]
            assert last.sup_e <= max(last.sup_fn * seq.limit.T, 1e-12) + 1e-9

    def test_csv_round_trip(self):
        report = run_study(scaled_linear_sequence([2, 4]), grid_n=200, theta_grid_n=50)
        # repr writes each float so that it reads back exactly
        cells = np.loadtxt(report.to_csv().splitlines(), delimiter=",", skiprows=1, ndmin=2)
        assert cells.tolist() == [[r.n, r.sup_fn, r.sup_inv, r.sup_e] for r in report.rows]


class TestInverseConvergenceAcrossFamilies:
    # inverse uniform convergence follows whenever the functions converge
    # to a strictly decreasing continuous limit; three distinct families
    @pytest.mark.parametrize(
        "seq",
        [
            scaled_linear_sequence([4, 16, 64, 256]),
            shifted_linear_sequence([4, 16, 64, 256]),
            zipf_sequence([4, 16, 64, 256]),
        ],
        ids=["scaled", "shifted", "zipf"],
    )
    def test_inverse_column_decreases_to_small(self, seq):
        report = run_study(seq, grid_n=2_000, theta_grid_n=400)
        inv = [r.sup_inv for r in report.rows]
        fn = [r.sup_fn for r in report.rows]
        assert all(b < a for a, b in zip(inv, inv[1:]))
        assert all(b < a for a, b in zip(fn, fn[1:]))
        assert inv[-1] < 0.01
        # quarter the rate for quadrupled n, up to a factor-of-two cushion
        assert inv[-1] <= inv[0] / 8


class TestExample3Fixture:
    def test_base_cases(self):
        family = power_complement_sequence([1, 2]).family
        assert family(1) == PowerComplement(n=1)
        assert family(2).value(0.5) == 0.75

    def test_rejects_bad_n(self):
        with pytest.raises(InputError):
            PowerComplement(n=0)

    def test_pointwise_limit_is_discontinuous(self):
        f = PowerComplement(n=64)
        assert f.value(1.0) == 0.0  # limit 0 at the right endpoint
        assert f.value(0.9) > 0.99  # limit 1 strictly inside
        # monotone decreasing for each fixed n (float plateaus near 1.0 are
        # representation artifacts: x**64 underflows below eps)
        xs = np.linspace(0.0, 1.0, 200)
        vals = f.values(xs)
        assert np.all(np.diff(vals) <= 0)
        assert vals[0] > vals[-1]


class TestFunctionSequenceValidation:
    def test_needs_increasing_n(self):
        with pytest.raises(InputError):
            FunctionSequence(family=scaled, n_values=(4, 2))

    def test_needs_positive_n(self):
        with pytest.raises(InputError):
            FunctionSequence(family=scaled, n_values=(0, 1))

    def test_needs_some_n(self):
        with pytest.raises(InputError):
            FunctionSequence(family=scaled, n_values=())

    def test_no_limit_members_need_one_domain(self):
        # the discontinuity flag compares consecutive members on a shared
        # domain, as the distances to a limit do
        seq = FunctionSequence(lambda n: LinearFamily(S=1, T=n), (1, 2, 3), None)
        with pytest.raises(InputError, match="domain mismatch"):
            run_study(seq)
