import collections
import json
import math

import numpy as np
import orjson
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import pwl_functions, seeded_pwl
from ebundles import functions
from ebundles.axioms import DominancePair, RelationKind, VerificationError, verify_pair
from ebundles.bundles import classical_h, mu_bundle
from ebundles.functions import (
    CumulativeOrder,
    InputError,
    LinearFamily,
    PiecewiseLinearFn,
    PowerComplement,
    RankFunction,
    SingularityError,
    ThetaRange,
    ThetaRangeError,
    ZipfFamily,
    _bisect,
    _extremes,
    _merged_gaps,
    _PwlStack,
    _valid_knots,
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
        # the vector forms check their points themselves
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 0)])
        with pytest.raises(InputError, match="^grid points outside domain$"):
            f.values([1.5])
        with pytest.raises(InputError, match="^grid points outside domain$"):
            f.cumulatives([-0.5])

    def test_zipf_pole(self):
        with pytest.raises(SingularityError):
            ZipfFamily(beta=0.5, T=1).value(0.0)

    def test_knot_hits_are_exact(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        assert f.value(1.0) == 1.0
        assert f.value(2.0) == 0.2
        assert f.values(np.array([0.0, 1.0, 2.0])).tolist() == [3.0, 1.0, 0.2]


# a function of each kind: piecewise linear, linear, Zipf, power complement
_KINDS = [PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0)]), LinearFamily(S=2, T=1),
          ZipfFamily(beta=0.5, T=1), PowerComplement(n=3)]
_KIND_IDS = ["pwl", "linear", "zipf", "power"]


class TestDomainRule:
    """``functions._on_domain`` is the one [0, T] rule: the scalar forms
    raise from it naming x, and every kind's vector forms read their ranks
    through ``RankFunction._in_domain``, which raises from it."""

    @pytest.mark.parametrize("where", ["below", "above", "nan"])
    @pytest.mark.parametrize("form", ["values", "cumulatives"])
    @pytest.mark.parametrize("f", _KINDS, ids=_KIND_IDS)
    def test_off_domain_raises(self, f, form, where):
        x = {"below": -1.0, "above": f.T + 1.0, "nan": math.nan}[where]
        if (isinstance(f, ZipfFamily), form, where) == (True, "values", "below"):
            # a rank at or below the pole keeps the pole's message
            error, said = SingularityError, "^Zipf function has a pole at x=0; points must be > 0$"
        else:
            error, said = InputError, "^grid points outside domain$"
        with pytest.raises(error, match=said):
            getattr(f, form)(np.array([0.5 * f.T, x]))
        scalar = {"values": f.value, "cumulatives": f.cumulative}[form]
        with pytest.raises(InputError, match=rf"^x={x!r} outside domain \[0, {f.T}\]$"):
            scalar(x)

    @pytest.mark.parametrize("f", _KINDS, ids=_KIND_IDS)
    def test_in_domain_reads_are_the_formulas(self, f):
        # ranks across [0, T], both ends among them (but the Zipf pole):
        # the check passes the floats on, and every read is the kind's own
        # expression bit for bit
        xs = np.r_[0.0, np.random.default_rng(3).uniform(0.0, f.T, 200), f.T]
        if isinstance(f, PiecewiseLinearFn):
            stack = _PwlStack.of([f])
            want = stack.values(xs[None])[0], stack.cumulatives(xs[None])[0]
        elif isinstance(f, LinearFamily):
            want = f.S * (1.0 - xs / f.T), f.S * (xs - xs * xs / (2.0 * f.T))
        elif isinstance(f, ZipfFamily):
            xs = xs[1:]
            want = ((f.T / xs) ** f.beta,
                    f.T**f.beta * xs ** (1.0 - f.beta) / (1.0 - f.beta))
        else:
            want = 1.0 - xs**f.n, xs - xs ** (f.n + 1) / (f.n + 1)
        got = f.values(xs), f.cumulatives(xs)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_one_rule(self):
        from ebundles import axioms, bundles
        assert bundles._on_domain is axioms._on_domain is functions._on_domain
        assert "_in_domain" not in vars(PiecewiseLinearFn)

    @pytest.mark.parametrize("form", ["values", "cumulatives", "_inverses"])
    def test_a_subclass_without_a_form_gets_not_implemented(self, form):
        class Bare(RankFunction):
            T = 1.0

        with pytest.raises(NotImplementedError):
            getattr(Bare(), form)(np.array([0.5]))


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

    def test_padded_batch_mask(self):
        # one row per fault, then a valid row whose padding repeats its last knot
        rows = [
            ([0.5, 1, 2], [3, 1, 0]),  # first x is not 0
            ([0, 1, 2], [3, math.nan, 0]),  # a value is not finite
            ([0, 1, 2], [3, 1, -1]),  # a value is negative
            ([0], [3]),  # fewer than two knots
            ([0, 1, 1], [3, 1, 0]),  # x does not increase
            ([0, 1, 2], [3, 3, 0]),  # y does not decrease
            ([0, 1, 2], [3, 1, 0]),
        ]
        size = np.array([len(x) for x, _ in rows])
        xs, ys = (np.array([v + v[-1:] * (4 - len(v)) for v in col], dtype=float)
                  for col in zip(*rows))
        assert _valid_knots(xs, ys, size).tolist() == [False] * 6 + [True]

    @pytest.mark.parametrize("bool_", [True, np.True_], ids=["bool", "numpy-bool"])
    @pytest.mark.parametrize(
        "family, fields, name",
        [(PowerComplement, {}, "n"), (LinearFamily, {"S": np.float64(2.0)}, "T"),
         (LinearFamily, {"T": 1.0}, "S"), (ZipfFamily, {"beta": 0.5}, "T")],
        ids=["power-n", "linear-T", "linear-S", "zipf-T"],
    )
    def test_family_fields_reject_bools(self, family, fields, name, bool_):
        # a bool is not a number, as in a spec file
        with pytest.raises(InputError) as info:
            family(**fields, **{name: bool_})
        want = "an integer >= 1" if name == "n" else "positive and finite"
        assert str(info.value) == f"{name} must be {want}, got {bool_!r}"

    def test_value_equality_and_hash(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        g = PiecewiseLinearFn.from_pairs([(0.0, 3.0), (1.0, 1.0), (2.0, 0.2)])
        assert f is not g and f == g and hash(f) == hash(g)
        assert f != PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.3)])
        assert len(f.knots) == 3 and f.knots[1].tolist() == [1.0, 1.0]

    def test_pairs_of_subclasses(self):
        Knot = collections.namedtuple("Knot", "x y")
        f = PiecewiseLinearFn.from_pairs([Knot(0, 3), Knot(1, 1), Knot(2, 0.2)])
        assert f == PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)])
        assert PiecewiseLinearFn.from_pairs(np.ma.masked_array(f.knots)) == f

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

    def test_power_complement_n_is_float_sized(self):
        # the routines read n as a float: one beyond the largest float
        # would raise OverflowError there
        assert PowerComplement(n=10**300).value(0.5) == 1.0
        with pytest.raises(InputError) as info:
            PowerComplement(n=10**400)
        assert str(info.value) == ("n must be at most 1.7976931348623157e+308 in magnitude, "
                                   "the largest float")


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
            pair = DominancePair(LINE, LINE, relation, prefix_end=10.0)
            assert verify_pair(pair) is pair
        assert self._gap_extremes(LINE, LINE, 10.0)[1] == 0.0

    def test_strict_dominance_unit_gap(self):
        # 10 - x over 9 - x: constant gap 1 (domain [0, 9] keeps both >= 0)
        f = PiecewiseLinearFn.from_pairs([(0, 10), (9, 1)])
        g = PiecewiseLinearFn.from_pairs([(0, 9), (9, 0)])
        for relation in (RelationKind.GEQ_ALL, RelationKind.STRICT_ON_PREFIX):
            pair = DominancePair(f, g, relation, prefix_end=9.0)
            assert verify_pair(pair) is pair
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


# citation vectors, unsorted, with zeros and heavy ties: counts among few
# small integers, subnormals, counts near the largest float, or one
# repeated value
_TIED_COUNTS = st.one_of(
    st.lists(st.one_of(st.integers(min_value=0, max_value=6).map(float),
                       st.floats(min_value=0.0, max_value=1e3),
                       st.sampled_from([0.0, 5e-324, 1e-323, 1.5e-323, 2.5e-323]),
                       st.floats(min_value=1.7e308, max_value=1.7976931348623157e308)),
             min_size=1, max_size=80),
    st.builds(lambda c, n, zeros: [c] * n + [0.0] * zeros,
              st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
              st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=3)),
).filter(lambda cs: any(c > 0 for c in cs))


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

    @settings(max_examples=300, deadline=None)
    @given(counts=_TIED_COUNTS)
    def test_runs_match_the_split_by_hand(self, counts):
        # np.unique's runs give the knots of the run split by hand, bit for bit
        xs, ys = oracles.continuize_by_run_split(counts)
        f = from_citations(counts)
        assert (f.xs.tobytes(), f.ys.tobytes()) == (xs.tobytes(), ys.tobytes())

    @pytest.mark.parametrize("counts, message", [
        ([[1, 2]], "citation counts must be a flat list"),
        ([], "empty citation list"),
        ([3, -1], "citation counts must be finite and >= 0, got -1.0"),
        ([3, math.nan], "citation counts must be finite and >= 0, got nan"),
    ])
    def test_bad_counts(self, counts, message):
        # the CLI's readers reject these before they get here
        with pytest.raises(InputError) as exc:
            from_citations(counts)
        assert str(exc.value) == message


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


class TestLibraryChecks:
    """Checks of the library's own entry points, which the CLI's readers
    never reach: they reject such input first."""

    def test_spec_that_is_not_a_mapping(self):
        with pytest.raises(InputError, match="^function spec must be a mapping with a 'type' key$"):
            function_from_spec([1])

    def test_custom_function_has_no_spec(self):
        class C(RankFunction):
            pass
        with pytest.raises(InputError, match="^no spec form for C$"):
            function_to_spec(C())

    def test_knots_of_unequal_length(self):
        with pytest.raises(InputError, match="^knot xs and ys must be 1-d and of equal length$"):
            PiecewiseLinearFn([0, 1], [3, 2, 1])

    def test_inverted_theta_range(self):
        with pytest.raises(InputError, match=r"^invalid theta range \[2\.0, 1\.0\]$"):
            ThetaRange(2.0, 1.0)

    def test_pwl_equality_and_repr(self):
        f = PiecewiseLinearFn.from_pairs([(0, 3), (1.5, 1), (4, 0)])
        assert f != "x" and not f == "x"
        assert eval(repr(f)) == f  # repr names from_pairs, as the namespace reads it


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "f",
        [
            PiecewiseLinearFn.from_pairs([(0, 3), (1, 1), (2, 0.2)]),
            LinearFamily(S=10, T=20),
            ZipfFamily(beta=0.5, T=1),
            PowerComplement(n=3),
            LinearFamily(S=np.float64(2.0), T=1.0),
            ZipfFamily(beta=np.float64(0.5), T=np.float32(2.0)),
            PowerComplement(n=np.int64(3)),
        ],
        ids=["pwl", "linear", "zipf", "power", "linear-numpy", "zipf-numpy", "power-numpy"],
    )
    def test_round_trip(self, f):
        # as it is and through the JSON text of a spec file: a family built
        # from numpy scalars writes Python numbers
        spec = function_to_spec(f)
        assert function_from_spec(spec) == f
        assert function_from_spec(json.loads(json.dumps(spec))) == f

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
    ), max_size=12), st.integers(1, 64))
    def test_matches_the_line_loop(self, lines, block):
        # blocks of a few characters: a file is cut at nearly every "\n",
        # and a bad line is still named by its number in the whole file
        text = "".join(pad + token + pad + end for token, pad, end in lines)

        def outcome(parse):
            try:
                return repr(parse(text))  # repr tells -0.0 from 0.0
            except InputError as exc:
                return f"InputError: {exc}"

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(functions, "_LINE_BLOCK", block)
            got = outcome(lambda t: parse_citations(t).tolist())
        assert got == outcome(oracles.parse_citations_by_line)

    @pytest.mark.parametrize("block", range(1, 16))
    def test_cut_at_every_character(self, block, monkeypatch):
        # a block's nominal end falls on every character of the first
        # lines, inside 123456789 and the CRLF too; it runs on to a "\n"
        monkeypatch.setattr(functions, "_LINE_BLOCK", block)
        assert parse_citations("5\n123456789\r\n\n 7\r3\n").tolist() == [5, 123456789, 7, 3]
        with pytest.raises(InputError, match="^line 6: not a number: 'x'$"):
            parse_citations("5\n123456789\r\n\n 7\r3\nx\n")

    @staticmethod
    def _spy_orjson(monkeypatch) -> list:
        """The texts that orjson decodes from here on, in order."""
        decoded, loads = [], orjson.loads
        monkeypatch.setattr(orjson, "loads", lambda data: decoded.append(data) or loads(data))
        return decoded

    def test_orjson_decodes_every_block_of_plain_lines(self, monkeypatch):
        # LF and CRLF ends, spaces and tabs, exponents and trailing blank
        # lines, cut into blocks of 40 characters run on to a "\n": each
        # block is one orjson call and none is split into lines
        decoded = self._spy_orjson(monkeypatch)
        monkeypatch.setattr(functions, "_split_lines", lambda *args: pytest.fail(repr(args)))
        monkeypatch.setattr(functions, "_LINE_BLOCK", 40)
        text = "5\n12\r\n 7\t\n1e3\n2.5E+1 \n0\n0.0\n123456789\r\n" * 30 + "\n \n"
        blocks, start = 0, 0
        while start < len(text):
            start, blocks = text.find("\n", start + 40) + 1 or len(text), blocks + 1
        assert blocks > 20
        got = parse_citations(text)
        assert len(decoded) == blocks
        assert repr(got.tolist()) == repr(oracles.parse_citations_by_line(text))

    @pytest.mark.parametrize("tail", ["", "x\n"])
    @pytest.mark.parametrize("line", ["", "-0", "+5", "1_000", "1,2", "true", "4\x0c5", "4\r5"])
    def test_declined_blocks_match_the_line_loop(self, line, tail, monkeypatch):
        # a line that orjson must not read between plain ones, and a bad
        # line after it, whose number counts the lines that "\x0c" and a
        # lone "\r" end: at every block size, what the line loop gives
        def outcome(parse):
            try:
                return repr(parse(text))  # repr tells -0.0 from 0.0
            except InputError as exc:
                return f"InputError: {exc}"

        text = "3\n12\r\n 7\t\n" * 4 + line + "\n" + "5\n2.5\n" * 8 + tail
        split, split_lines = [], functions._split_lines
        monkeypatch.setattr(functions, "_split_lines",
                            lambda *args: split.append(args) or split_lines(*args))
        want = outcome(oracles.parse_citations_by_line)
        for block in range(1, 65):
            monkeypatch.setattr(functions, "_LINE_BLOCK", block)
            assert outcome(lambda t: parse_citations(t).tolist()) == want, block
        assert split

    def test_a_bad_line_after_plain_blocks_is_named_by_its_line_in_the_file(self, monkeypatch):
        # two blocks of 64 Ki characters, CRLF and LF lines, go through
        # orjson; the third, which holds the bad line, is split into lines
        decoded = self._spy_orjson(monkeypatch)
        text = "5\r\n" * 30_000 + "12\n" * 30_000 + "x\n" + "7\n" * 10
        with pytest.raises(InputError, match="^line 60001: not a number: 'x'$"):
            parse_citations(text)
        assert len(decoded) == 2


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


def _last_holding(lo, hi, holds):
    """The linear-scan reference for ``_bisect`` at one argument: from lo,
    step right while the next index in [lo, hi) holds."""
    i = lo
    while i + 1 < hi and holds(i + 1):
        i += 1
    return i


class TestBisect:
    """``_bisect`` gives every argument the index a linear scan gives: the
    last of the leading run of [lo, hi) on which the predicate holds, lo
    counting as holding whatever the predicate says there."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), scalar=st.sampled_from(["none", "lo", "both"]))
    def test_agrees_with_a_linear_scan(self, data, scalar):
        n = data.draw(st.integers(min_value=1, max_value=12))
        ints = lambda lo, hi: st.lists(st.integers(min_value=lo, max_value=hi),  # noqa: E731
                                       min_size=n, max_size=n)
        lo, span = np.array(data.draw(ints(0, 40))), np.array(data.draw(ints(1, 70)))
        if scalar != "none":
            lo = np.full(n, lo[0])
        if scalar == "both":
            span = np.full(n, span[0])
        hi = lo + span
        # per argument, the predicate holds up to lo + run and beyond it never;
        # at lo it may hold or not
        run = np.array([data.draw(st.integers(min_value=0, max_value=int(h - l - 1)))
                        for l, h in zip(lo, hi)])
        at_lo = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        holds = lambda k: (k <= lo + run) & ((k != lo) | at_lo)  # noqa: E731
        want = [_last_holding(int(l), int(h), lambda k, i=i: bool(holds(np.full(n, k))[i]))
                for i, (l, h) in enumerate(zip(lo, hi))]
        bounds = {"none": (lo, hi), "lo": (int(lo[0]), hi), "both": (int(lo[0]), int(hi[0]))}
        got = _bisect(*bounds[scalar], holds)
        assert np.broadcast_to(got, (n,)).tolist() == want

    def test_one_wide_ranges_read_nothing(self):
        calls = []
        got = _bisect(np.arange(3), np.arange(1, 4), lambda k: calls.append(k) or k >= 0)
        assert got.tolist() == [0, 1, 2] and calls == []


_MALFORMED =("ragged", "triple", "scalar", "deeper_one", "deeper_all", "dict", "set",
              "digit_strings", "text", "no_pairs", "empty_pair", "null_pair")


@st.composite
def _pair_lists(draw):
    """A ``_knot_sets`` function's knots as a caller writes them (integral
    values at times as ints, a first x or last y of -0.0 at times, each pair
    a list, tuple or numpy row, and the pairs a list, a tuple or, where no
    pair is malformed, a float (n, 2) array), then at times one
    malformation."""
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
        outer = [list, tuple]
        if bad is None:  # a float (n, 2) array, read as it is
            outer.append(lambda p: np.array(p, dtype=float).reshape(-1, 2))
        pairs = draw(st.sampled_from(outer))(pairs)
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

    def test_empty_float_array_holds_no_pair(self):
        with pytest.raises(InputError) as info:
            PiecewiseLinearFn.from_pairs(np.empty((0, 2)))
        assert str(info.value) == "knots must be a list of (x, y) pairs"

    @pytest.mark.parametrize("pairs", [[(0, None), (1, 0)], [(0, None), (0, 1)],
                                       [(0, None), (1, -1)]],
                             ids=["alone", "x_not_increasing", "negative_y"])
    def test_null_value_is_named(self, pairs):
        # the float conversion reads None as NaN; the None is named where the
        # values are read, before the knot check sees that NaN or a second
        # fault
        with pytest.raises(InputError) as info:
            PiecewiseLinearFn.from_pairs(pairs)
        assert str(info.value) == "knot coordinates must be numbers, got None"

    @pytest.mark.parametrize("big", [10**400, -10**400], ids=["positive", "negative"])
    def test_int_beyond_float_is_named_by_the_bound(self, big):
        with pytest.raises(InputError) as info:
            PiecewiseLinearFn.from_pairs([(0, 3), (1, big)])
        assert str(info.value) == ("knot coordinates must be at most 1.7976931348623157e+308 "
                                   "in magnitude, the largest float")
