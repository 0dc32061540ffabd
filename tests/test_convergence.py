import decimal
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import pwl_functions, table_cells
from ebundles.bundles import e_thetas
from ebundles.convergence import (
    SEQUENCE_FAMILIES,
    ConvergenceReport,
    FunctionSequence,
    _fn_gaps,
    _pairs,
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
    _PwlStack,
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
        # doubling the default sizes moves results < 10%: a piecewise linear
        # pair not at all, a Zipf pair's level distances through the level cap
        # (near the pole the truncated-domain function sup diverges by design)
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

    def test_sign_change_root_rounds_onto_the_level_above(self):
        # the inverse gap changes sign between the two highest levels, and
        # the interpolated root rounds above the upper one, g's Z(0) 2 ulps
        # over f's: read there, g's excess would ask for a rank below 0.
        # The value is the one a 200,001-level grid reads.
        f = PiecewiseLinearFn([0.0, 1.0], [7.540464480421653, 0.0])
        g = PiecewiseLinearFn([0.0, 0.13281046114354178, 1.0],
                              [7.5404644804216545, 1.3137049092128295, 0.0])
        assert e_sup_distance(f, g) == pytest.approx(2.612653503163763, rel=1e-12)


EPS = float(np.finfo(float).eps)


@st.composite
def pwl_pairs(draw):
    """A piecewise linear f and, on its domain, a line, a second piecewise
    linear function, or f scaled (its knot ranks shared), in either order."""
    f = draw(pwl_functions())
    kind = draw(st.sampled_from(["line", "pwl", "scaled"]))
    if kind == "line":
        g = LinearFamily(S=draw(st.floats(min_value=0.1, max_value=40.0)), T=f.T)
    elif kind == "pwl":
        h = draw(pwl_functions())
        xs = h.xs * (f.T / h.T)
        xs[-1] = f.T
        g = PiecewiseLinearFn(xs, h.ys)
    else:
        g = PiecewiseLinearFn(f.xs, f.ys * draw(st.floats(min_value=0.2, max_value=5.0)))
    return (g, f) if draw(st.booleans()) else (f, g)


def _knots(h):
    if isinstance(h, LinearFamily):
        return np.array([0.0, h.T]), np.array([h.S, 0.0])
    return h.xs, h.ys


def _vector_sizes(monkeypatch, classes):
    """A list that records the size of every vector-form call on classes."""
    sizes = []
    for cls in classes:
        for name in ("values", "inverses", "_inverses", "_log_inverses", "cumulatives"):
            method = getattr(cls, name, None)
            if method is None:
                continue

            def spy(self, xs, method=method):
                sizes.append(np.size(xs))
                return method(self, xs)

            monkeypatch.setattr(cls, name, spy)
    return sizes


def _reads_per_study(monkeypatch, family, classes, per_member):
    """A study makes the same vector-form calls for 2 and 20 members, each
    call reading at most per_member points per member, and the same calls
    at grid sizes 2 and 10^5."""
    sizes = _vector_sizes(monkeypatch, classes)
    calls = {}
    for count in (2, 20):
        ns = sorted({int(round(10.0**e)) for e in np.linspace(1.0, 5.0, count)})
        for grids in ((2, 2), (100_000, 20_000)):
            sizes.clear()
            run_study(family(ns), *grids)
            assert sizes and max(sizes) <= per_member * count
            calls[count, grids] = list(sizes)
    assert len(calls[2, (2, 2)]) == len(calls[20, (2, 2)])
    for count in (2, 20):
        assert calls[count, (2, 2)] == calls[count, (100_000, 20_000)]


class TestExactPiecewiseLinear:
    """Piecewise linear pairs (a line counts as one) are read at their knots,
    with no grid."""

    def test_scaled_line_columns_are_the_closed_forms(self):
        # 1/n, 1/(n+1) and 1/(2n) for n from 1 to 10^6, within a few ulps of
        # the values' scale 1; the grid sizes change no float
        ns = sorted({int(round(10.0**e)) for e in np.linspace(0.0, 6.0, 61)})
        seq = scaled_linear_sequence(ns)
        coarse = run_study(seq, grid_n=2, theta_grid_n=2).distances
        fine = run_study(seq, grid_n=100_000, theta_grid_n=100_000).distances
        assert fine.tolist() == coarse.tolist()
        for n, (sup_fn, sup_inv, sup_e) in zip(ns, coarse.T.tolist()):
            assert abs(sup_fn - 1.0 / n) <= 4 * EPS
            assert abs(sup_inv - 1.0 / (n + 1)) <= 4 * EPS
            assert abs(sup_e - 1.0 / (2 * n)) <= 4 * EPS

    @settings(max_examples=150, deadline=None)
    @given(pair=pwl_pairs())
    def test_exact_is_a_candidate_and_bounds_a_dense_grid(self, pair):
        f, g = pair
        T = min(f.T, g.T)
        (fx, fy), (gx, gy) = _knots(f), _knots(g)
        peak = max(f.value_at_origin(), g.value_at_origin())
        # a dense grid's max exceeds the exact sup by rounding at most
        xs = np.linspace(0.0, T, 20_001)
        got = sup_distance(f, g)
        assert got >= float(np.max(np.abs(f.values(xs) - g.values(xs)))) - 8 * EPS * peak
        ranks = np.minimum(np.concatenate((fx, gx)), T)
        assert got in np.abs(f.values(ranks) - g.values(ranks)).tolist()

        lo = max(f.admissible_range().lo, g.admissible_range().lo)
        hi = min(f.value_at_origin(), g.value_at_origin())
        assume(lo < hi)
        thetas = np.linspace(lo, hi, 20_001)
        levels = np.concatenate(((lo, hi), fy, gy))
        levels = np.sort(levels[(lo <= levels) & (levels <= hi)])
        got = inverse_sup_distance(f, g)
        assert got >= float(np.max(np.abs(f.inverses(thetas) - g.inverses(thetas)))) - 8 * EPS * T
        gaps = f.inverses(levels) - g.inverses(levels)
        assert got in np.abs(gaps).tolist()

        # e_f - e_g is extreme at a level above, or where the inverse gap,
        # linear between two of them, crosses zero
        flip = np.flatnonzero(gaps[:-1] * gaps[1:] < 0.0)
        roots = levels[flip] - gaps[flip] / (gaps[flip + 1] - gaps[flip]) * (
            levels[flip + 1] - levels[flip])
        cands = np.abs(e_thetas(f, np.concatenate((levels, roots)))
                       - e_thetas(g, np.concatenate((levels, roots))))
        got = e_sup_distance(f, g)
        tol = 64 * EPS * T * peak
        assert got >= float(np.max(np.abs(e_thetas(f, thetas) - e_thetas(g, thetas)))) - tol
        assert float(np.min(np.abs(cands - got))) <= tol

    @pytest.mark.parametrize("grid_n", [2, 24_581])
    def test_constant_gap_pair(self, grid_n):
        # f - g and f^-1 - g^-1 are 0.25 throughout, and e_f - e_g peaks at
        # the range's foot, 0.25 - 0.25^2 / 2; the grid size changes no float
        f = PiecewiseLinearFn.from_pairs([(0.0, 1.25), (1.0, 0.25)])
        got = (sup_distance(f, UNIT_LINE, grid_n), inverse_sup_distance(f, UNIT_LINE, grid_n),
               e_sup_distance(f, UNIT_LINE, grid_n))
        assert got == (0.25, 0.25, 0.21875)

    @pytest.mark.parametrize("family", [scaled_linear_sequence, shifted_linear_sequence],
                             ids=["linear", "shifted"])
    def test_studies_read_knots_not_grids(self, family, monkeypatch):
        # O(K) points per member and a fixed number of stacked reads per
        # study: no vector form sees the 10^5-point grids
        _reads_per_study(monkeypatch, family, (LinearFamily, PiecewiseLinearFn, _PwlStack), 32)


@st.composite
def family_pairs(draw):
    """Two Zipf members on one domain or two power complements, in either
    order."""
    if draw(st.booleans()):
        T = draw(st.floats(min_value=1e-3, max_value=1e3))
        betas = st.floats(min_value=0.05, max_value=0.95)
        return ZipfFamily(beta=draw(betas), T=T), ZipfFamily(beta=draw(betas), T=T)
    m, n = draw(st.lists(st.integers(min_value=1, max_value=10**5), min_size=2, max_size=2,
                         unique=True))
    return PowerComplement(n=m), PowerComplement(n=n)


class TestExactFamilies:
    """Zipf and power-complement pairs are read at their ends and closed-form
    critical points, with no grid; the Zipf pole truncation is the one
    approximation left."""

    @settings(max_examples=60, deadline=None)
    @given(pair=family_pairs())
    def test_exact_bounds_a_dense_grid(self, pair):
        f, g = pair
        T, grid_n, zipf = f.T, 10_000, isinstance(f, ZipfFamily)
        # the truncated domain and level range that the distances read
        x0 = 0.5 * (T / (grid_n - 1)) if zipf else 0.0
        hi = min(f.value(T / grid_n), g.value(T / grid_n)) if zipf else 1.0
        xs = np.linspace(x0, T, 10**6)
        thetas = np.linspace(f.admissible_range().lo, hi, 10**6)
        peak = max(f.value(x0), g.value(x0))
        got = sup_distance(f, g, grid_n)
        assert got >= float(np.max(np.abs(f.values(xs) - g.values(xs)))) - 8 * EPS * peak
        got = inverse_sup_distance(f, g, grid_n)
        assert got >= float(np.max(np.abs(f.inverses(thetas) - g.inverses(thetas)))) - 8 * EPS * T
        got = e_sup_distance(f, g, grid_n)
        gaps = np.abs(e_thetas(f, thetas) - e_thetas(g, thetas))
        assert got >= float(np.max(gaps)) - 64 * EPS * T * peak
        if not zipf:
            # x^m - x^n peaks at x* = r^(1/(n-m)), r = m/n
            m, n = sorted((f.n, g.n))
            r = m / n
            want = r ** (m / (n - m)) - r ** (n / (n - m))
            assert abs(sup_distance(f, g) - want) <= 8 * EPS

    @staticmethod
    def _power_gap(m: int, n: int) -> float:
        """max (x^m - x^n) on [0, 1] for m < n, r^(-1/(r-1)) - r^(-r/(r-1))
        with r = n/m, to 60 digits."""
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            r = decimal.Decimal(n) / m
            log_r = r.ln()
            return float((-log_r / (r - 1)).exp() - (-r * log_r / (r - 1)).exp())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=2**53), min_size=2, max_size=2,
                    unique=True))
    @example([10**15, 2**53]).via("discontinuity flag of the study 10, 10^15, 2^53")
    @example([2**53 - 1, 2**53]).via("the closest pair")
    def test_power_gap_is_the_closed_form_up_to_2_53(self, ns):
        # x* = (m/n)^(1/(n-m)) lies within a few ulps of 1 for large n; read
        # through log x* the gap keeps 12 digits wherever n/m >= 1.001, and
        # an absolute ulp below that, where the gap itself is tiny
        m, n = sorted(ns)
        got, want = sup_distance(PowerComplement(n=m), PowerComplement(n=n)), self._power_gap(m, n)
        assert abs(got - want) <= (1e-12 * want if n >= 1.001 * m else EPS)

    def test_power_study_gaps_near_2_53(self):
        # the study reads its Cauchy gaps as columns, not pair by pair
        ns = [10, 10**15, 2**53]
        members = [PowerComplement(n=n) for n in ns]
        got = _fn_gaps(_pairs(members[:-1], members[1:]), 2)
        want = [self._power_gap(m, n) for m, n in zip(ns, ns[1:])]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert want[-1] == pytest.approx(0.67558, abs=1e-5)

    @pytest.mark.parametrize("family", [zipf_sequence, power_complement_sequence],
                             ids=["zipf", "power"])
    def test_studies_read_few_points(self, family, monkeypatch):
        # O(1) points per member and a fixed number of stacked reads per
        # study: no vector form sees the 10^5-point grids
        _reads_per_study(monkeypatch, family, (ZipfFamily, PowerComplement), 8)

    @pytest.mark.parametrize("pair", [
        (PiecewiseLinearFn.from_pairs([(0.0, 2.0), (1.0, 1.0)]), ZipfFamily(beta=0.5, T=1.0)),
        (UNIT_LINE, PowerComplement(n=3)),
    ], ids=["pwl-zipf", "line-power"])
    @pytest.mark.parametrize("dist", [sup_distance, inverse_sup_distance, e_sup_distance])
    def test_mixed_families_are_rejected(self, pair, dist):
        f, g = pair
        for a, b in ((f, g), (g, f)):
            with pytest.raises(InputError) as exc:
                dist(a, b)
            assert type(a).__name__ in str(exc.value) and type(b).__name__ in str(exc.value)


@st.composite
def studies(draw):
    """A study of one family, 1 to 8 increasing n, random grid sizes, and a
    limit (a power-complement study takes one too, or none)."""
    family = draw(st.sampled_from(["linear", "shifted", "zipf", "power"]))
    # a shifted member at n = 1 leaves the limit's level range
    ns = sorted(draw(st.sets(st.integers(min_value=2 if family == "shifted" else 1,
                                         max_value=10**5), min_size=1, max_size=8)))
    grids = draw(st.tuples(*[st.integers(min_value=2, max_value=10**5)] * 2))
    seq = SEQUENCE_FAMILIES[family](ns)
    if family == "power":
        limit = draw(st.none() | st.builds(PowerComplement, st.integers(1, 10**5)))
        seq = FunctionSequence(seq.family, seq.n_values, limit)
    return family, seq, grids


class TestStackedStudies:
    """A study reads all its members in one stacked pass per column; each row
    is the one-member public distance."""

    @settings(max_examples=120, deadline=None)
    @given(study=studies())
    def test_rows_equal_the_one_member_distances(self, study):
        family, seq, (grid_n, theta_grid_n) = study
        report = run_study(seq, grid_n, theta_grid_n)
        members = [seq.family(n) for n in seq.n_values]
        assert report.member_peak == max(m.value_at_origin() for m in members)
        if seq.limit is None:
            gaps = [sup_distance(a, b, grid_n) for a, b in zip(members, members[1:])]
            want = None if len(gaps) < 2 else gaps[-1] > 0.5 * gaps[0] and gaps[-1] > 1e-6
            assert report.limit_discontinuous is want
            return
        limit, T = seq.limit, seq.limit.T
        # numpy's vector power may move an ulp with the array's shape: the
        # families read through it agree to a few ulps of the values read
        x0 = 0.5 * (T / (grid_n - 1)) if family == "zipf" else 0.0
        scales = [max(read(h) for h in (*members, limit))
                  for read in (lambda h: h.value(x0), lambda h: h.T, lambda h: h.cumulative(h.T))]
        exact = family in ("linear", "shifted")
        for got, m in zip(report.distances.T.tolist(), members):
            want = [sup_distance(m, limit, grid_n), inverse_sup_distance(m, limit, theta_grid_n),
                    e_sup_distance(m, limit, theta_grid_n)]
            if exact:
                assert got == want
            else:
                assert all(abs(a - b) <= 8 * EPS * c for a, b, c in zip(got, want, scales))

    def test_lines_among_piecewise_linear_members(self):
        # members of two classes are read as one stack, the lines at their
        # knots: exact up to rounding
        def member(n):
            if n % 2:
                return LinearFamily(S=1.0 + 1.0 / n, T=1.0)
            return PiecewiseLinearFn.from_pairs([(0.0, 1.0 + 1.0 / n), (0.5, 0.5), (1.0, 0.0)])

        seq = FunctionSequence(member, (2, 3, 8, 9, 40), UNIT_LINE)
        report = run_study(seq, grid_n=100, theta_grid_n=100)
        for n, got in zip(report.n_values, report.distances.T.tolist()):
            m = member(n)
            want = (sup_distance(m, UNIT_LINE), inverse_sup_distance(m, UNIT_LINE),
                    e_sup_distance(m, UNIT_LINE))
            assert got == pytest.approx(want, abs=8 * EPS)
        assert report.member_peak == 1.5


class TestPowerInverseGap:
    """s^(1/m) - s^(1/n), s = 1 - theta, peaks at a level s* that can lie
    below 2^-53: the gap is read through log s, not at a float theta."""

    @staticmethod
    def want(m, n):
        # the gap at s*, in logs: r^(m/(n-m)) - r^(n/(n-m)), r = m/n
        m, n = sorted((m, n))
        log_r = math.log(m / n)
        return math.exp(m / (n - m) * log_r) - math.exp(n / (n - m) * log_r)

    @pytest.mark.parametrize("m, n", [(100, 1000), (1000, 10_000), (99_999, 100_000),
                                      (30, 10_000)])
    def test_critical_level_below_float_resolution(self, m, n):
        # log s* = log(m/n) mn/(n-m): 1e-111 for (100, 1000), and below the
        # smallest float for the others
        assert math.log(m / n) * m * n / (n - m) < math.log(2.0**-53)
        for f, g in ((PowerComplement(m), PowerComplement(n)),
                     (PowerComplement(n), PowerComplement(m))):
            assert abs(inverse_sup_distance(f, g) - self.want(m, n)) <= 8 * EPS

    @pytest.mark.parametrize("m, n, before", [
        (1, 2, 0.25), (2, 3, 0.14814814814814814), (3, 10, 0.4178372448574655),
        (10, 30, 0.38490017945975047), (1, 100_000, 0.9998748773725349)])
    def test_values_read_before_stay(self, m, n, before):
        # s* well above 2^-53: the value read at the float theta* = 1 - s*
        got = inverse_sup_distance(PowerComplement(m), PowerComplement(n))
        assert abs(got - before) <= 4 * EPS
        assert abs(got - self.want(m, n)) <= 8 * EPS

    @settings(max_examples=100, deadline=None)
    @given(mn=st.lists(st.integers(min_value=1, max_value=10**5), min_size=2, max_size=2,
                       unique=True))
    def test_equals_the_gap_in_logs(self, mn):
        m, n = mn
        got = inverse_sup_distance(PowerComplement(m), PowerComplement(n))
        assert abs(got - self.want(m, n)) <= 8 * EPS


class TestVectorDistances:
    def test_no_scalar_inverse_calls(self, monkeypatch):
        # a scalar inverse per level would cost a one-element vector call each
        def scalar(*args):
            raise AssertionError("scalar inverse called")

        monkeypatch.setattr(ZipfFamily, "inverse", scalar)
        seq = zipf_sequence([10, 100])
        report = run_study(seq, grid_n=1_000, theta_grid_n=500)
        assert (report.distances[1:] > 0.0).all()

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
        sup_fn = report.distances[0].tolist()
        assert sup_fn == pytest.approx([0.1, 0.01, 0.001], rel=1e-6)
        assert report.n_values == (10, 100, 1000) and not report.distances.flags.writeable
        assert report.fn_converges and report.inv_converges and report.e_converges
        assert report.member_peak == pytest.approx(1.1, abs=1e-12)

    def test_constant_sequence_all_zero(self):
        seq = FunctionSequence(
            family=lambda n: UNIT_LINE, n_values=(1, 2, 4), limit=UNIT_LINE
        )
        report = run_study(seq, grid_n=500, theta_grid_n=100)
        assert report.distances.tolist() == [[0.0] * 3] * 3

    def test_power_family_flags_discontinuous_limit(self):
        report = run_study(power_complement_sequence([1, 2, 4, 8, 16, 32]), grid_n=2_000)
        assert report.limit_discontinuous is True
        assert report.distances.shape == (3, 6) and np.isnan(report.distances).all()
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
            sup_fn, _, sup_e = report.distances[:, -1]
            assert sup_e <= max(sup_fn * seq.limit.T, 1e-12) + 1e-9

    def test_csv_round_trip(self):
        report = run_study(scaled_linear_sequence([2, 4]), grid_n=200, theta_grid_n=50)
        # repr writes each float so that it reads back exactly
        cells = np.loadtxt(report.to_csv().splitlines(), delimiter=",", skiprows=1, ndmin=2)
        assert cells.tolist() == np.vstack((report.n_values, report.distances)).T.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 2**63 - 1) | st.integers(2**63, 10**30),
                              *[table_cells | st.none()] * 3), max_size=8))
    def test_csv_is_the_row_encoding_byte_for_byte(self, rows):
        # int n columns, those beyond 64 bits among them, and distances of
        # every magnitude or None, against a line of reprs per row (a study
        # gives no NaN distance; one would read NA, as None does)
        distances = np.array([[math.nan if v is None else v for v in r[1:]] for r in rows])
        report = ConvergenceReport(tuple(r[0] for r in rows), distances.reshape(-1, 3).T, 1.0,
                                   None, None, None, None)
        assert report.to_csv() == oracles.csv_by_rows(("n", "sup_fn", "sup_inv", "sup_e"), rows)

    def test_csv_of_no_rows_is_its_header_alone(self):
        report = ConvergenceReport((), np.empty((3, 0)), 1.0, None, None, None, None)
        assert report.to_csv() == "n,sup_fn,sup_inv,sup_e\n"


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
        fn, inv, _ = report.distances.tolist()
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

    @pytest.mark.parametrize("family", ["linear", "shifted", "zipf"])
    def test_n_beyond_the_largest_float(self, family):
        # the members read 1/n, which would overflow: the bound is named
        # before any member is built, and the largest float itself is an n
        with pytest.raises(InputError, match="the largest float"):
            SEQUENCE_FAMILIES[family]([10, 10**400])
        assert FunctionSequence(scaled, (10, int(sys.float_info.max))).n_values[-1] > 2**1000

    def test_no_limit_members_need_one_family(self):
        # the Cauchy gaps check every consecutive pair before anything is read
        seq = FunctionSequence(lambda n: ZipfFamily(beta=0.5, T=1.0) if n == 1 else
                               PowerComplement(n), (1, 2, 3), None)
        with pytest.raises(InputError, match="one family"):
            run_study(seq)

    def test_no_limit_members_need_one_domain(self):
        # the discontinuity flag compares consecutive members on a shared
        # domain, as the distances to a limit do
        seq = FunctionSequence(lambda n: LinearFamily(S=1, T=n), (1, 2, 3), None)
        with pytest.raises(InputError, match="domain mismatch"):
            run_study(seq)
