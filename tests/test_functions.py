import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import pwl_functions, seeded_pwl
from ebundles.axioms import DominancePair, RelationKind, VerificationError, verify_pair
from ebundles.bundles import classical_h, mu_bundle
from ebundles.functions import (
    CumulativeOrder,
    InputError,
    LinearFamily,
    PiecewiseLinearFn,
    PowerComplement,
    SingularityError,
    ThetaRangeError,
    ZipfFamily,
    _extremes,
    _merged_gaps,
    _PwlStack,
    cumulative_dominates,
    from_citations,
    function_from_spec,
    function_to_spec,
    parse_citations,
)

LINE = PiecewiseLinearFn.from_pairs([(0, 10), (10, 0)])  # 10 - x


class TestEvaluate:
    def test_linear_at_origin(self):
        assert LinearFamily(S=10, T=20).value(0.0) == 10.0

    def test_pwl_interpolation(self):
        assert LINE.value(3.0) == 7.0

    def test_zipf_by_hand(self):
        # (1/0.25)**0.5 = 2
        assert ZipfFamily(beta=0.5, T=1).value(0.25) == pytest.approx(2.0, abs=1e-14)

    def test_domain_violations(self):
        with pytest.raises(InputError):
            LINE.value(-0.5)
        with pytest.raises(InputError):
            LINE.value(10.5)

    def test_zipf_pole(self):
        with pytest.raises(SingularityError):
            ZipfFamily(beta=0.5, T=1).value(0.0)

    def test_knot_hits_are_exact(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        assert f.value(1.0) == 1.0
        assert f.value(2.0) == 0.2
        assert f.values(np.array([0.0, 1.0, 2.0])).tolist() == [3.0, 1.0, 0.2]


class TestConstruction:
    def test_rejects_non_decreasing(self):
        with pytest.raises(InputError):
            PiecewiseLinearFn.from_pairs([(0, 5), (1, 5), (2, 0)])

    def test_rejects_unsorted_x(self):
        with pytest.raises(InputError):
            PiecewiseLinearFn.from_pairs([(0, 5), (2, 3), (1, 1)])

    def test_rejects_offset_start(self):
        with pytest.raises(InputError):
            PiecewiseLinearFn.from_pairs([(1, 5), (2, 3)])

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0, 5)],
            [(0, 5), (1, -1)],
            [(0, 5), (1, math.nan)],
            [(0, 5), (math.inf, 1)],
            [(0, 5, 1), (1, 1, 1)],
        ],
        ids=["one_knot", "negative", "nan", "inf", "triples"],
    )
    def test_rejects_invalid_knots(self, pairs):
        with pytest.raises(InputError):
            PiecewiseLinearFn.from_pairs(pairs)

    def test_value_equality_and_hash(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        g = PiecewiseLinearFn.from_pairs([(0.0, 3.0), (1.0, 1.0), (2.0, 0.2)])
        assert f is not g and f == g and hash(f) == hash(g)
        assert f != PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.3)])
        assert len(f.knots) == 3 and f.knots[1].tolist() == [1.0, 1.0]

    def test_knots_are_the_pairs_read_back(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        assert f.knots.shape == (3, 2)
        assert PiecewiseLinearFn.from_pairs(f.knots) == f
        with pytest.raises(ValueError):
            f.knots[0, 1] = 4.0

    def test_immutable(self):
        with pytest.raises(AttributeError):
            LINE.xs = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            LINE.ys[0] = 1.0

    def test_rejects_negative_values(self):
        with pytest.raises(InputError):
            PiecewiseLinearFn([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(InputError):
            ZipfFamily(beta=1.5, T=1)
        with pytest.raises(InputError):
            LinearFamily(S=0, T=1)
        with pytest.raises(InputError):
            PowerComplement(n=0)


class TestInverse:
    def test_pwl(self):
        assert LINE.inverse(3.0) == 7.0

    def test_linear_closed_form(self):
        # T * (1 - theta/S) = 20 * 0.6
        assert LinearFamily(S=10, T=20).inverse(4.0) == pytest.approx(12.0, abs=1e-12)

    def test_zipf_closed_form(self):
        # T * theta**(-1/beta) = 2**-2
        assert ZipfFamily(beta=0.5, T=1).inverse(2.0) == pytest.approx(0.25, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ThetaRangeError):
            LINE.inverse(11.0)
        with pytest.raises(ThetaRangeError):
            ZipfFamily(beta=0.5, T=1).inverse(0.5)

    @settings(max_examples=60, deadline=None)
    @given(f=pwl_functions(), frac=st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip(self, f, frac):
        rng = f.admissible_range()
        theta = rng.lo + frac * (rng.hi - rng.lo)
        x = f.inverse(theta)
        assert abs(f.value(x) - theta) <= 1e-12 * max(1.0, f.value(0.0))

    def test_round_trip_parametric(self):
        for f in (LinearFamily(S=7, T=3), ZipfFamily(beta=0.3, T=2), PowerComplement(n=4)):
            rng = f.admissible_range()
            hi = rng.hi if not rng.unbounded_above else 50.0
            for theta in np.linspace(rng.lo, hi, 41):
                assert abs(f.value(f.inverse(float(theta))) - theta) <= 1e-12 * max(
                    1.0, 50.0
                )

    def test_monotone_in_theta(self):
        # strictly smaller rank for strictly larger level, 100 random pairs
        rng = np.random.default_rng(3)
        for f in (LINE, LinearFamily(S=4, T=2), seeded_pwl(rng)):
            r = f.admissible_range()
            for _ in range(100):
                t1, t2 = sorted(rng.uniform(r.lo, r.hi, size=2))
                if t1 == t2:
                    continue
                assert f.inverse(t1) > f.inverse(t2)


class TestCumulative:
    def test_linear_total_area(self):
        assert LinearFamily(S=10, T=20).cumulative(20.0) == 100.0

    def test_pwl_trapezoid(self):
        # int_0^5 (10 - s) ds = 50 - 12.5
        assert LINE.cumulative(5.0) == 37.5

    def test_zipf_improper_integral(self):
        # T**b * x**(1-b) / (1-b) at b=0.5, x=T=1
        assert ZipfFamily(beta=0.5, T=1).cumulative(1.0) == pytest.approx(2.0, abs=1e-14)

    def test_zero_and_increasing(self):
        for f in (LINE, ZipfFamily(beta=0.4, T=2), PowerComplement(n=3)):
            assert f.cumulative(0.0) == 0.0
            xs = np.linspace(0.0, f.T, 100)
            vals = f.cumulatives(xs)
            assert np.all(np.diff(vals) > 0)

    def test_pwl_against_dense_riemann(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = seeded_pwl(rng)
            for frac in (0.25, 0.7, 1.0):
                x = frac * f.T
                got = f.cumulative(x)
                want = oracles.oracle_cumulative(f, x, panels=10**6)
                assert got == pytest.approx(want, rel=1e-6)


class TestAverage:
    """The running average, read through the mu bundle's rule."""

    def test_pwl(self):
        # (40 - 8) / 4
        assert mu_bundle(LINE, 4.0) == 8.0

    def test_at_zero_is_peak(self):
        for f in (LINE, LinearFamily(S=3, T=5), PowerComplement(n=2)):
            assert mu_bundle(f, 0.0) == f.value(0.0)

    def test_linear_total(self):
        assert mu_bundle(LinearFamily(S=10, T=20), 20.0) == 5.0

    def test_zipf_at_zero_raises(self):
        # undefined at the pole: the rule gives NaN, read as InputError
        with pytest.raises(InputError, match="mu score undefined at 0.0"):
            mu_bundle(ZipfFamily(beta=0.5, T=1), 0.0)

    def test_non_increasing(self):
        rng = np.random.default_rng(5)
        for f in (LINE, seeded_pwl(rng), ZipfFamily(beta=0.6, T=3)):
            xs = np.linspace(0.0, f.T, 200)[1:]
            avgs = f.cumulatives(xs) / xs
            assert np.all(np.diff(avgs) <= 1e-12)


class TestAdmissibleRange:
    def test_linear(self):
        r = LinearFamily(S=10, T=20).admissible_range()
        assert (r.lo, r.hi) == (0.0, 10.0)

    def test_pwl_endpoint_reads(self):
        r = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)]).admissible_range()
        assert (r.lo, r.hi) == (0.2, 3.0)

    def test_zipf_unbounded(self):
        r = ZipfFamily(beta=0.5, T=1).admissible_range()
        assert r.lo == 1.0
        assert r.unbounded_above
        assert not r.contains(math.inf)


class TestCompare:
    """Pointwise comparison of two functions, decided exactly at their merged
    knots by ``verify_pair``."""

    @staticmethod
    def _gap_extremes(f, g, a):
        """The least gap f - g on [0, a] and the largest |f - g| there."""
        xs, gaps = _merged_gaps(_PwlStack.of([f, g]), np.array([0]), np.array([1]), np.array([a]))
        min_gap, _, max_dev, _ = (v.item() for v in _extremes(xs, gaps))
        return min_gap, max_dev

    def test_identical(self):
        for relation in (RelationKind.EQUAL_ON_PREFIX, RelationKind.GEQ_ALL):
            assert verify_pair(DominancePair(LINE, LINE, relation, prefix_end=10.0)).verified
        assert self._gap_extremes(LINE, LINE, 10.0)[1] == 0.0

    def test_strict_dominance_unit_gap(self):
        # 10 - x over 9 - x: constant gap 1 (domain [0, 9] keeps both >= 0)
        f = PiecewiseLinearFn.from_pairs([(0, 10), (9, 1)])
        g = PiecewiseLinearFn.from_pairs([(0, 9), (9, 0)])
        for relation in (RelationKind.GEQ_ALL, RelationKind.STRICT_ON_PREFIX):
            assert verify_pair(DominancePair(f, g, relation, prefix_end=9.0)).verified
        assert self._gap_extremes(f, g, 9.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_witness_reported(self):
        f = PiecewiseLinearFn.from_pairs([(0, 5), (10, 1)])
        g = PiecewiseLinearFn.from_pairs([(0, 6), (10, 0)])  # crosses f
        with pytest.raises(VerificationError, match="upper < lower at x=") as err:
            verify_pair(DominancePair(f, g, RelationKind.GEQ_ALL))
        assert float(str(err.value).rpartition("x=")[2]) < 2.0

    def test_domain_mismatch(self):
        with pytest.raises(InputError, match="domain mismatch"):
            verify_pair(DominancePair(LINE, PiecewiseLinearFn.from_pairs([(0, 10), (5, 0)]),
                                      RelationKind.GEQ_ALL))


class TestCumulativeDominates:
    def test_identical(self):
        assert cumulative_dominates(LINE, LINE).order is CumulativeOrder.EQUAL

    def test_shifted_line(self):
        f9 = PiecewiseLinearFn.from_pairs([(0, 9), (9, 0)])
        f10 = PiecewiseLinearFn.from_pairs([(0, 10), (9, 1)])
        v = cumulative_dominates(f9, f10)
        assert v.order is CumulativeOrder.PRECEDES
        # gap x grows strictly except at x = 0
        assert v.min_diff == pytest.approx(-9.0, abs=1e-12)

    def test_crossing_pair_incomparable(self):
        # g front-loads its area (I_g(1) = 10.05 > I_f(1) = 9.5) then stalls
        f = PiecewiseLinearFn.from_pairs([(0, 10), (10, 0)])
        g = PiecewiseLinearFn.from_pairs([(0, 20), (1, 0.1), (10, 0.05)])
        v = cumulative_dominates(g, f)
        assert v.order is CumulativeOrder.INCOMPARABLE

    def test_vertex_analysis_catches_interior_dip(self):
        # d' changes sign inside a segment; endpoints alone would miss the dip
        f = PiecewiseLinearFn.from_pairs([(0, 1.0), (4, 0.2)])
        g = PiecewiseLinearFn.from_pairs([(0, 1.4), (1, 0.5), (4, 0.4)])
        v = cumulative_dominates(f, g)
        ref_xs = np.linspace(0, 4, 50_001)
        d = f.cumulatives(ref_xs) - g.cumulatives(ref_xs)
        assert v.min_diff <= d.min() + 1e-9
        assert v.max_diff >= d.max() - 1e-9


class TestFromCitations:
    def test_direct_mapping(self):
        f = from_citations([5, 3, 1])
        assert f.knots.tolist() == [[0, 5], [1, 3], [2, 1], [3, 0]]
        assert f.T == 3.0

    def test_tie_break(self):
        f = from_citations([4, 4])
        ys = f.ys.tolist()
        assert ys[0] == 4.0
        assert ys[1] == pytest.approx(4.0 - 4e-9, abs=1e-15)
        assert ys[2] == 0.0

    def test_subnormal_tie_kept_once(self):
        # no float lies strictly between 5e-324 and 0, so the tie cannot split
        f = from_citations([5e-324, 5e-324])
        assert f.knots.tolist() == [[0.0, 5e-324], [2.0, 0.0]]

    def test_non_numeric_rejected(self):
        with pytest.raises(InputError):
            from_citations([5, "x"])

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            from_citations([0, 0])

    def test_unsorted_gets_sorted(self):
        assert from_citations([1, 5, 3]) == from_citations([5, 3, 1])

    def test_trailing_zeros_dropped(self):
        f = from_citations([5, 3, 0, 0])
        assert f.T == 2.0
        assert f.knots.tolist() == [[0, 5], [1, 3], [2, 0]]

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=500).map(float),
                st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ).filter(lambda cs: any(c > 0 for c in cs))
    )
    def test_invariants(self, counts):
        f = from_citations(counts)
        ys = f.ys.tolist()
        assert all(b < a for a, b in zip(ys, ys[1:]))
        assert ys[-1] == 0.0
        # total citations survive continuization as the staircase trapezoid
        staircase = sum(
            (ya + yb) * (xb - xa) * 0.5 for (xa, ya), (xb, yb) in zip(f.knots, f.knots[1:])
        )
        assert f.cumulative(f.T) == pytest.approx(staircase, rel=1e-12)


_COUNTS = st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60).filter(any)


class TestContinuizationContract:
    """What ``from_citations`` keeps of a citation vector, against discrete
    oracles: the trapezoid integral is the total minus half the largest
    count on tie-free input, the continuous h lies within one below the
    discrete h-index, and neither order nor trailing zeros matter."""

    @settings(max_examples=200, deadline=None)
    @given(counts=_COUNTS)
    def test_h_within_one_below_discrete_h(self, counts):
        h_d, h_c = oracles.discrete_h(counts), classical_h(from_citations(counts))
        assert h_d - 1 < h_c <= h_d

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=60,
                           unique=True))
    def test_integral_without_ties(self, counts):
        f = from_citations(counts)
        want = oracles.continuized_integral(counts)
        assert f.cumulative(f.T) == pytest.approx(want, rel=1e-12)
        assert want == sum(counts) - max(counts) / 2

    def test_integral_by_hand(self):
        assert from_citations([3, 2, 1]).cumulative(3.0) == 4.5

    @settings(max_examples=100, deadline=None)
    @given(counts=_COUNTS, order=st.randoms(use_true_random=False),
           zeros=st.integers(min_value=0, max_value=5))
    def test_order_and_zeros_do_not_matter(self, counts, order, zeros):
        shuffled = list(counts)
        order.shuffle(shuffled)
        assert from_citations(shuffled + [0] * zeros) == from_citations(counts)


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "f",
        [
            PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)]),
            LinearFamily(S=10, T=20),
            ZipfFamily(beta=0.5, T=1),
            PowerComplement(n=3),
        ],
        ids=["pwl", "linear", "zipf", "power"],
    )
    def test_round_trip(self, f):
        assert function_from_spec(function_to_spec(f)) == f

    def test_unknown_type(self):
        with pytest.raises(InputError):
            function_from_spec({"type": "cubic"})

    def test_inconsistent_T(self):
        with pytest.raises(InputError):
            function_from_spec(
                {"type": "piecewise_linear", "T": 5, "knots": [[0, 2], [3, 0]]}
            )

    def test_missing_field(self):
        with pytest.raises(InputError):
            function_from_spec({"type": "linear", "S": 2})


class TestParseCitations:
    def test_line_numbers_in_errors(self):
        with pytest.raises(InputError, match="line 2"):
            parse_citations("5\nbogus\n1\n")

    def test_empty(self):
        with pytest.raises(InputError):
            parse_citations("\n\n")

    def test_blank_lines_skipped(self):
        vals = parse_citations("5\n\n3\n")
        assert isinstance(vals, np.ndarray) and vals.dtype == float
        assert vals.tolist() == [5.0, 3.0]

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(
            st.sampled_from(["1e3", "1_000", "inf", "-inf", "-0", "0", "nan", "-nan", "-3",
                             "-1e-300", "abc", "1__0", "0x10", "", "5", "3.5", "1e400",
                             "1 2", "+7"]),
            st.integers(min_value=-3, max_value=10**6).map(str),
            st.floats(allow_nan=False).map(repr),
        ),
        st.sampled_from(["", " ", "\t", "  "]),
        st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\n\n", " \n"]),
    ), max_size=12))
    def test_matches_the_line_loop(self, lines):
        text = "".join(pad + token + pad + end for token, pad, end in lines)

        def outcome(parse):
            try:
                return repr(parse(text))  # repr tells -0.0 from 0.0
            except InputError as exc:
                return f"InputError: {exc}"

        assert (outcome(lambda t: parse_citations(t).tolist())
                == outcome(oracles.parse_citations_by_line))


# knot magnitudes from 1e-300 to 1e300, ranks and values scaled apart
_SCALE = st.integers(min_value=-300, max_value=299).map(lambda e: 10.0**e)
_STEPS = st.floats(min_value=0.05, max_value=5.0)


@st.composite
def _knot_sets(draw):
    """Two-knot sets, tie-broken ``from_citations`` output, and knots of up
    to eight at any magnitude."""
    kind = draw(st.sampled_from(["two", "citations", "many"]))
    if kind == "citations":
        base = draw(st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=12))
        ties = draw(st.lists(st.sampled_from(base), min_size=1, max_size=12))
        scale = draw(_SCALE)
        return from_citations([c * scale for c in base + ties])
    k = 2 if kind == "two" else draw(st.integers(min_value=3, max_value=8))
    gaps = draw(st.lists(_STEPS, min_size=k - 1, max_size=k - 1))
    drops = draw(st.lists(_STEPS, min_size=k - 1, max_size=k - 1))
    tail = draw(st.floats(min_value=0.0, max_value=2.0))
    sx, sy = draw(_SCALE), draw(_SCALE)
    xs = np.concatenate(([0.0], np.cumsum(gaps))) * sx
    ys = (tail + np.concatenate((np.cumsum(drops[::-1])[::-1], [0.0]))) * sy
    assume(np.all(np.diff(xs) > 0.0) and np.all(np.diff(ys) < 0.0))
    return PiecewiseLinearFn(xs, ys)


def _arguments(f, fracs):
    """0, T, Z(T), Z(0), every knot's rank, value and ray slope y/x, one ulp
    either side of each, and the fractions of T and of Z(0)."""
    slopes = f.ys[1:] / f.xs[1:]
    edges = np.concatenate(([0.0, f.T, f.ys[-1], f.ys[0]], f.xs, f.ys, slopes))
    near = np.concatenate((np.nextafter(edges, -math.inf), edges, np.nextafter(edges, math.inf)))
    fracs = np.array(fracs)
    return np.concatenate((near, fracs * f.T, fracs * f.ys[0]))


class TestOneRowStack:
    """A ``PiecewiseLinearFn`` reads through its knots as a one-row
    ``_PwlStack``: every read must equal the searchsorted arithmetic it ran
    before (``oracles.SearchsortedPwl``) bit for bit, and keep the shape of
    its argument."""

    @settings(max_examples=300, deadline=None)
    @given(f=_knot_sets(), fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8))
    # products of 1e300 ranks and 1e300 values overflow, to the same inf and
    # NaN on both sides
    @np.errstate(over="ignore", invalid="ignore")
    def test_reads_equal_the_searchsorted_oracle(self, f, fracs):
        ref = oracles.SearchsortedPwl(f)
        args = _arguments(f, fracs)
        ranks = args[(args >= 0.0) & (args <= f.T)]
        for name, points in (("values", ranks), ("cumulatives", ranks),
                             ("inverses", args[f.admissible_range().contains_each(args)]),
                             ("ray_crossings", args[args > f.ys[-1] / f.T])):
            for arg in (points, np.stack((points, points[::-1])), *points[:3].tolist()):
                got, want = getattr(f, name)(arg), getattr(ref, name)(arg)
                assert np.shape(got) == np.shape(arg), name
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, arg)


_MALFORMED = ("ragged", "triple", "scalar", "deeper_one", "deeper_all", "dict", "set",
              "digit_strings", "text", "no_pairs", "empty_pair", "null_pair")


@st.composite
def _pair_lists(draw):
    """A ``_knot_sets`` function's knots as a caller writes them (integral
    values at times as ints, a first x or last y of -0.0 at times, each pair
    a list, tuple or numpy row), then at times one malformation."""
    f = draw(_knot_sets())
    xs, ys = f.xs.tolist(), f.ys.tolist()
    if draw(st.booleans()):
        xs, ys = ([int(v) if v.is_integer() else v for v in vs] for vs in (xs, ys))
    if draw(st.booleans()):
        xs[0] = -0.0
    if draw(st.booleans()) and ys[-1] == 0.0:
        ys[-1] = -0.0
    containers = st.sampled_from([list, tuple, lambda p: np.array(p, dtype=float)])
    pairs = [draw(containers)(p) for p in zip(xs, ys)]
    bad = draw(st.sampled_from((None, *_MALFORMED)))
    i = draw(st.integers(min_value=0, max_value=len(pairs) - 1))
    if bad in ("ragged", "triple", "scalar", "deeper_one", "empty_pair", "null_pair"):
        pairs[i] = {"ragged": [xs[i]], "triple": [xs[i], ys[i], ys[i]], "scalar": xs[i],
                    "deeper_one": [[xs[i]], ys[i]], "empty_pair": [], "null_pair": None}[bad]
    elif bad == "deeper_all":
        pairs = [[[x], [y]] for x, y in zip(xs, ys)]
    elif bad in ("dict", "set"):
        pairs = dict.fromkeys(zip(xs, ys)) if bad == "dict" else set(zip(xs, ys))
    elif bad == "digit_strings":  # two characters that each read as a float
        pairs = [f"{k % 10}{(k + 3) % 10}" for k in range(len(pairs))]
    elif bad == "text":
        pairs = repr(list(zip(xs, ys)))
    elif bad == "no_pairs":
        pairs = []
    if bad not in ("dict", "set", "text"):
        pairs = draw(st.sampled_from([list, tuple]))(pairs)
    return pairs, bad


def _by_nested_array(pairs):
    try:
        xs, ys = oracles.knots_by_nested_array(pairs)
    except (ValueError, TypeError, OverflowError):
        raise InputError("knots must be a list of (x, y) pairs") from None
    return PiecewiseLinearFn(xs, ys)


class TestKnotConversion:
    """``from_pairs`` reads knots in one flat pass: every list the nested
    ``np.array`` read gives the same bytes, and every list it could not read
    as pairs raises ``InputError``."""

    @settings(max_examples=400, deadline=None)
    @given(_pair_lists())
    def test_matches_the_nested_array(self, case):
        pairs, bad = case

        def outcome(read):
            try:
                f = read(pairs)
            except InputError as exc:
                return str(exc)
            return f.xs.tobytes(), f.ys.tobytes()

        got = outcome(PiecewiseLinearFn.from_pairs)
        assert got == outcome(_by_nested_array)
        assert (got == "knots must be a list of (x, y) pairs") == (bad is not None)
