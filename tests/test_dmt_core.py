import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dmt_rayleigh, dmt_symmetric, rp_costs

from relaydmt.dmt_core import (
    _af_d_max,
    DecodeSet,
    Dimension,
    DmtCurve,
    as_dimension,
    cutset_bound,
    dmt_ff_lower_bound,
    dmt_parallel_af,
    dmt_rp,
    dmt_serial_partition,
    where_to_decode,
)


def canonical(v):
    """The stored form of an exact value: an int when integral, else a Fraction, never a float."""
    return type(v) in (int, Fraction) and type(v) is (int if v.denominator == 1 else Fraction)


def _segment_intersections(ca, cb, right):
    """Abscissas where two piecewise-linear curves cross, within (0, right)."""
    out = []
    for (ax0, ay0), (ax1, ay1) in zip(ca.vertices, ca.vertices[1:]):
        for (bx0, by0), (bx1, by1) in zip(cb.vertices, cb.vertices[1:]):
            lo, hi = max(ax0, bx0), min(ax1, bx1)
            if lo >= hi or lo >= right:
                continue
            # Fraction divisions: with int vertices a plain / would give a float.
            sa = Fraction(ay1 - ay0, ax1 - ax0)
            sb = Fraction(by1 - by0, bx1 - bx0)
            if sa == sb:
                continue
            x = (by0 - sb * bx0 - ay0 + sa * ax0) / (sa - sb)
            if lo < x < hi and 0 < x < right:
                out.append(x)
    return out


def all_pairs_envelope(curves):
    """Reference lower envelope: every input breakpoint and every pairwise
    segment crossing, with the minimum of the inputs evaluated at each."""
    right = min(c.r_max for c in curves)
    xs = {Fraction(0), right}
    for c in curves:
        xs.update(x for x, _ in c.vertices if x < right)
    for ca, cb in itertools.combinations(curves, 2):
        xs.update(_segment_intersections(ca, cb, right))
    return DmtCurve([(x, min(c.evaluate(x) for c in curves)) for x in sorted(xs)])


@st.composite
def integer_curves(draw):
    """A curve with integer vertices, flat stretches allowed."""
    xs = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True)))
    ds = sorted(draw(st.lists(st.integers(0, 12), min_size=len(xs), max_size=len(xs))))
    return DmtCurve(zip([0] + xs, ds[::-1] + [0]))


@st.composite
def rational_curves(draw):
    """A curve whose vertices have denominators 1 to 3, so its slopes are fractions."""
    def rationals(lo, hi):
        return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 3))

    xs = sorted(set(draw(st.lists(rationals(1, 18), min_size=1, max_size=4))))
    ds = sorted(draw(st.lists(rationals(0, 36), min_size=len(xs), max_size=len(xs))))
    return DmtCurve(zip([0] + xs, ds[::-1] + [0]))


class TestDimension:
    def test_basic(self):
        d = as_dimension((3, 1, 4, 2))
        assert d.hops == 3
        assert d.ordered == (1, 2, 3, 4)
        assert d.n_min == 1 and max(d.counts) == 4

    @pytest.mark.parametrize("bad", [(), (3,), (2, 0, 2), (2, -1), (1.5, 2), (True, 2)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            Dimension(tuple(bad))

    @pytest.mark.parametrize("bad", [(True, 2, 2), (2, False), (2.5, 2), (2.0, 2), (np.bool_(1), 2)])
    def test_coercion_refuses_bools_and_floats(self, bad):
        with pytest.raises(ValueError, match="positive integers"):
            as_dimension(bad)

    def test_coercion_takes_integer_types(self):
        assert as_dimension([np.int64(2), 1, np.uint8(3)]) == Dimension((2, 1, 3))

    @pytest.mark.parametrize("bad", [("2", 2), "22", (2, "3", 2)])
    def test_coercion_refuses_strings(self, bad):
        with pytest.raises(ValueError, match="positive integers"):
            as_dimension(bad)


class TestCurveArithmetic:
    def test_evaluation_clamps(self):
        c = dmt_rayleigh(2, 2)
        assert c.evaluate(-1) == 4
        assert c.evaluate(0) == 4
        assert c.evaluate(Fraction(1, 2)) == Fraction(5, 2)
        assert c.evaluate(2) == 0
        assert c.evaluate(7) == 0

    def test_pointwise_min_creates_rational_breakpoints(self):
        # 5 - 5r crosses 4 - 3r at r = 1/2 inside a segment.
        a = dmt_rayleigh(1, 5)
        b = dmt_rayleigh(2, 2)
        env = DmtCurve.pointwise_min([a, b])
        assert (Fraction(1, 2), Fraction(5, 2)) in env.vertices
        for num in range(0, 13):
            x = Fraction(num, 12)
            assert env.evaluate(x) == min(a.evaluate(x), b.evaluate(x))

    def test_pointwise_min_of_one_curve_is_that_curve(self):
        c = dmt_rayleigh(2, 3)
        assert DmtCurve.pointwise_min([c]) is c

    def test_envelope_that_is_one_input_returns_it(self):
        # (1,4) lies below (2,3) everywhere; a curve at d = 0 from r = 0 is
        # the envelope, its flat zero stretch cut off.
        low, high = dmt_rayleigh(1, 4), dmt_rayleigh(2, 3)
        assert DmtCurve.pointwise_min([high, low]) is low
        zero_tail = DmtCurve([(0, 0), (2, 0)])
        env = DmtCurve.pointwise_min([zero_tail, DmtCurve([(0, 1), (1, 0)])])
        assert env == DmtCurve([(0, 0), (1, 0)])

    def test_flat_zero_tail_is_cut(self):
        # r_max is the smallest r with d(r) = 0, so only the first vertex at d = 0 stays.
        c = DmtCurve([(0, 0), (2, 0)])
        assert c == DmtCurve([(0, 0)]) and c.r_max == 0 and not c.partial
        tail = DmtCurve([(0, 3), (1, 0), (Fraction(5, 2), 0), (4, 0)])
        assert tail == DmtCurve([(0, 3), (1, 0)]) and tail.r_max == 1

    def test_collinear_vertices_merge(self):
        c = DmtCurve([(0, 4), (1, 2), (2, 0)])
        assert c == DmtCurve([(0, 4), (2, 0)])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(integer_curves() | rational_curves(), min_size=2, max_size=4))
    def test_pointwise_min_is_the_lower_envelope(self, curves):
        env = DmtCurve.pointwise_min(curves)
        assert all(canonical(v) for vertex in env.vertices for v in vertex)
        for x, y in env.vertices:
            assert y == min(c.evaluate(x) for c in curves), x
        xs = sorted({x for c in [env, *curves] for x, _ in c.vertices})
        probes = xs + [Fraction(a + b, 2) for a, b in zip(xs, xs[1:])]
        for x in probes:
            assert canonical(env.evaluate(x)), x
            assert all(env.evaluate(x) <= c.evaluate(x) for c in curves), x
        assert env == all_pairs_envelope(curves)

    def test_crossing_at_a_non_dyadic_rational(self):
        # 3 - 3r meets 1 - r/2 at r = 4/5, which no binary float holds.
        env = DmtCurve.pointwise_min([DmtCurve([(0, 3), (1, 0)]), DmtCurve([(0, 1), (2, 0)])])
        assert env.vertices == ((0, 1), (Fraction(4, 5), Fraction(3, 5)), (1, 0))
        assert all(canonical(v) for vertex in env.vertices for v in vertex)

    def test_partial_curve(self):
        # A curve that stops above d = 0 knows only d(0).
        c = DmtCurve([(0, 8)])
        assert c.partial and c.d_max == 8
        with pytest.raises(ValueError):
            c.evaluate(1)
        with pytest.raises(ValueError):
            c.r_max
        assert c == DmtCurve([(0, Fraction(8))]) and hash(c) == hash(DmtCurve([(0, 8)]))
        assert c != DmtCurve([(0, 8), (1, 0)])
        assert repr(c) == "DmtCurve([(0,8)])"
        assert not DmtCurve([(0, 8), (1, 0)]).partial

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, 6), min_size=0, max_size=4, unique=True),
        st.data(),
    )
    def test_vertex_types_build_equal_curves(self, xs, data):
        # Integer vertices given as int, Fraction, exact float or numpy int
        # (mixed per coordinate) build one curve, stored as int; so is every
        # value it gives at those gains, whatever their type.
        xs = [0] + sorted(xs)
        ds = sorted(data.draw(st.lists(st.integers(0, 12), min_size=len(xs), max_size=len(xs))))[::-1]
        kinds = iter(data.draw(st.lists(
            st.sampled_from((int, Fraction, float, np.int64)), min_size=2 * len(xs), max_size=2 * len(xs)
        )))
        curve = DmtCurve([(next(kinds)(x), next(kinds)(d)) for x, d in zip(xs, ds)])
        expect = DmtCurve([(Fraction(x), Fraction(d)) for x, d in zip(xs, ds)])
        assert curve == expect and hash(curve) == hash(expect)
        assert all(canonical(v) for vertex in curve.vertices for v in vertex)
        gains = [0] if curve.partial else xs + [xs[-1] + 1]  # a partial curve knows only d(0)
        for kind in (int, Fraction, float, np.int64):
            assert all(canonical(curve.evaluate(kind(x))) for x in gains)

    @pytest.mark.parametrize(
        "verts,message",
        [
            ([], "at least one vertex"),
            ([(0, 1), (0, 0)], "abscissas must be strictly increasing"),
            ([(1, 1), (2, 0)], "curves start at r = 0"),
            ([(0, 1), (1, 2), (2, 0)], "diversity must be non-increasing"),
            ([(0, 1), (1, -1)], "diversity must be non-negative"),
        ],
    )
    @pytest.mark.parametrize("kind", [int, Fraction, float, np.int64])
    def test_every_refusal_fires_for_every_vertex_type(self, verts, message, kind):
        with pytest.raises(ValueError, match=message):
            DmtCurve([(kind(x), kind(d)) for x, d in verts])

    def test_evaluation_at_integer_and_rational_gains(self):
        # Between vertices and on them, left of 0 and past r_max, int, Fraction,
        # float and numpy r agree and give an int when integral, else a Fraction.
        c = DmtCurve([(0, 5), (2, 1), (3, 0)])
        cases = [(1, 3), (2, 1), (Fraction(5, 2), Fraction(1, 2)), (0.5, 4), (2.75, Fraction(1, 4))]
        cases += [(np.int64(2), 1), (np.float64(1.5), 2), (-1, 5), (3, 0), (7.0, 0), (Fraction(1, 3), Fraction(13, 3))]
        for r, expect in cases:
            value = c.evaluate(r)
            assert value == expect and canonical(value), r

    def test_monotone_validation(self):
        with pytest.raises(ValueError):
            DmtCurve([(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="non-negative"):
            DmtCurve([(0, 1), (1, -1)])

    @pytest.mark.parametrize(
        "verts,message",
        [
            ([], "at least one vertex"),
            ([(0, 1), (0, 0)], "abscissas must be strictly increasing"),
            ([(0, 2), (1, 1), (1, 0)], "abscissas must be strictly increasing"),
            ([(1, 1), (2, 0)], "curves start at r = 0"),
        ],
    )
    def test_malformed_vertices_rejected(self, verts, message):
        with pytest.raises(ValueError, match=message):
            DmtCurve(verts)


class TestCanonicalForm:
    def test_every_analytic_vertex_is_int_or_fraction(self, dims_to_3_3):
        # Integral coordinates are ints and the rest Fractions, on every
        # family's curves; FF's 1/k breakpoints supply the Fractions.
        kinds = set()
        for counts in dims_to_3_3:
            hops = len(counts) - 1
            curves = [dmt_rp(counts), cutset_bound(counts)]
            curves += [dmt_ff_lower_bound(counts, k) for k in (1, 2, 3)]
            for size in range(hops):
                for inner in itertools.combinations(range(1, hops), size):
                    curves.append(dmt_serial_partition(counts, DecodeSet(inner + (hops,))))
            for curve in curves:
                assert all(canonical(v) for vertex in curve.vertices for v in vertex), (counts, curve)
                kinds.update(type(v) for vertex in curve.vertices for v in vertex)
        assert kinds == {int, Fraction}


class TestDomainGuards:
    """Each public constructor and curve refuses arguments outside its domain."""

    @pytest.mark.parametrize(
        "func,args,message",
        [
            (DecodeSet, ((),), "decode set cannot be empty"),
            (DecodeSet, ((3, 2),), "decode indices must be strictly increasing"),
            (DecodeSet, ((0, 3),), "decode indices start at layer 1"),
            (DmtCurve.pointwise_min, ([],), "need at least one curve"),
            (DmtCurve.pointwise_min, ([dmt_rp((2, 2)), DmtCurve([(0, 8)])],), "partial curves"),
            (where_to_decode, ((2, 2, 2), True), "diversity must be an integer"),
            (where_to_decode, ((2, 2, 2), 2.5), "diversity must be an integer"),
            (cutset_bound, ((0, 2),), "antenna counts must be positive"),
            (cutset_bound, ((2, 0),), "antenna counts must be positive"),
            (dmt_rp, (5,), "antenna counts must be positive integers: 5"),
            (cutset_bound, (None,), "antenna counts must be positive integers: None"),
            (dmt_ff_lower_bound, ((2, 2, 2), 0), "mode count must be positive"),
            (dmt_parallel_af, ((2, 2, 2), []), "need at least one path"),
            (cutset_bound, ((2.5, 2),), "antenna counts must be positive"),
            (cutset_bound, ((True, 2),), "antenna counts must be positive"),
            (DecodeSet, ((True, 2),), "decode indices must be integers"),
            (DecodeSet, ((1.5, 2),), "decode indices must be integers"),
            (dmt_ff_lower_bound, ((2, 2, 2), 1.5), "mode count must be positive"),
            (dmt_ff_lower_bound, ((2, 2, 2), True), "mode count must be positive"),
        ],
    )
    def test_rejected(self, func, args, message):
        with pytest.raises(ValueError, match=message):
            func(*args)


class TestCoeffs:
    def test_222(self):
        assert rp_costs((2, 2, 2)) == (2, 1)

    def test_243(self):
        assert rp_costs((2, 4, 3)) == (4, 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_single_relay_stream(self, m):
        assert rp_costs((1, m)) == (m,)

    def test_strictly_decreasing(self, dims_to_5_4):
        for counts in dims_to_5_4:
            c = rp_costs(counts)
            assert all(a > b for a, b in zip(c, c[1:])), counts


class TestRpCurve:
    def test_222(self):
        assert dmt_rp((2, 2, 2)).vertices == ((0, 3), (1, 1), (2, 0))

    def test_243(self):
        assert dmt_rp((2, 4, 3)).vertices == ((0, 6), (1, 2), (2, 0))

    @pytest.mark.parametrize("nt,nr", [(1, 1), (2, 2), (2, 4), (3, 2)])
    def test_single_hop_is_rayleigh(self, nt, nr):
        assert dmt_rp((nt, nr)) == dmt_rayleigh(nt, nr)

    def test_permutation_invariance(self, dims_to_4_3):
        for counts in dims_to_4_3:
            base = dmt_rp(counts)
            for perm in itertools.permutations(counts):
                assert dmt_rp(perm) == base

    def test_entrywise_monotonicity(self, dims_to_4_3):
        # Raising any single layer count never lowers the curve.
        for counts in dims_to_4_3:
            base = dmt_rp(counts)
            for j in range(len(counts)):
                bumped = list(counts)
                bumped[j] += 1
                higher = dmt_rp(bumped)
                for k in range(int(base.r_max) + 1):
                    assert higher.evaluate(k) >= base.evaluate(k), (counts, j)

    def test_supersequence_monotonicity(self, dims_to_4_3):
        # Inserting an extra fading layer never raises the curve.
        for counts in dims_to_4_3:
            base = dmt_rp(counts)
            for j in range(1, len(counts)):
                for extra in (1, 2, 5):
                    longer = list(counts)
                    longer.insert(j, extra)
                    lower = dmt_rp(longer)
                    for k in range(int(lower.r_max) + 1):
                        assert lower.evaluate(k) <= base.evaluate(k), (counts, j, extra)

    def test_diversity_sandwich(self, dims_to_5_4):
        for counts in dims_to_5_4:
            o = as_dimension(counts).ordered
            d0 = dmt_rp(counts).d_max
            assert Fraction(o[0] * (o[1] + 1), 2) <= d0 <= o[0] * o[1], counts


class TestRayleigh:
    @pytest.mark.parametrize(
        "nt,nr,expect",
        [
            (2, 2, [(0, 4), (1, 1), (2, 0)]),
            (1, 1, [(0, 1), (1, 0)]),
            (2, 4, [(0, 8), (1, 3), (2, 0)]),
        ],
    )
    def test_values(self, nt, nr, expect):
        assert list(dmt_rayleigh(nt, nr).vertices) == expect


class TestCutset:
    def test_222(self):
        c = cutset_bound((2, 2, 2))
        assert c.d_max == 4 and c.r_max == 2
        assert c == dmt_rayleigh(2, 2)

    def test_243(self):
        c = cutset_bound((2, 4, 3))
        assert c.d_max == 8 and c.r_max == 2

    def test_all_ones(self):
        c = cutset_bound((1, 1, 1, 1))
        assert c.d_max == 1 and c.r_max == 1

    def test_dominates_af(self, dims_to_4_3):
        for counts in dims_to_4_3:
            bound = cutset_bound(counts)
            af = dmt_rp(counts)
            assert af.d_max <= bound.d_max

    def test_af_reaches_bound_iff_reducible_to_bottleneck(self, dims_to_4_3):
        # Equality at r=0 holds exactly when some bottleneck hop consists
        # of the two smallest layers and the rest are large enough.
        for counts in dims_to_4_3:
            o = as_dimension(counts).ordered
            products = [counts[i] * counts[i + 1] for i in range(len(counts) - 1)]
            m = min(products)
            predicted = False
            for i, prod in enumerate(products):
                if prod != m:
                    continue
                lo, hi = sorted((counts[i], counts[i + 1]))
                tail_ok = len(o) < 3 or o[2] + 1 >= o[0] + o[1]
                if lo == o[0] and hi == o[1] and tail_ok:
                    predicted = True
            actual = dmt_rp(counts).d_max == cutset_bound(counts).d_max
            assert actual == predicted, counts


class TestCutsetPruning:
    def test_matches_envelope_of_every_hop(self, dims_to_5_4):
        # cutset_bound keeps only the Pareto-minimal hops; the envelope of
        # all of them must be the same curve.
        front_sizes = {"single": 0, "multi": 0}
        for counts in dims_to_5_4:
            hops = list(zip(counts, counts[1:]))
            every_hop = [dmt_rayleigh(a, b) for a, b in hops]
            assert cutset_bound(counts) == DmtCurve.pointwise_min(every_hop), counts
            pairs = {tuple(sorted(h)) for h in hops}
            front = [
                a for a in pairs
                if not any(b != a and b[0] <= a[0] and b[1] <= a[1] for b in pairs)
            ]
            front_sizes["single" if len(front) == 1 else "multi"] += 1
        assert front_sizes == {"single": 3592, "multi": 308}, front_sizes


class TestEnvelopeOracle:
    def test_cutset_and_serial_match_all_pairs(self, dims_to_5_3):
        # Up to (4,3) no two inputs cross inside an interval; the 5-antenna
        # layers supply the crossings the sweep has to find.
        crossings = {"cutset": 0, "serial": 0}
        for counts in dims_to_5_3:
            hops = len(counts) - 1
            per_hop = [dmt_rayleigh(counts[i], counts[i + 1]) for i in range(hops)]
            cases = [("cutset", cutset_bound(counts), per_hop)]
            for size in range(hops):
                for inner in itertools.combinations(range(1, hops), size):
                    decode = DecodeSet(inner + (hops,))
                    segments = [dmt_rp(seg) for seg in decode.segments(as_dimension(counts))]
                    cases.append(("serial", dmt_serial_partition(counts, decode), segments))
            for kind, curve, inputs in cases:
                assert curve.vertices == all_pairs_envelope(inputs).vertices, (kind, counts)
                crossings[kind] += any(x.denominator != 1 for x, _ in curve.vertices)
        assert crossings["cutset"] and crossings["serial"], crossings


class TestClosedForms:
    def test_cutset_extremes(self, dims_to_5_4):
        for counts in dims_to_5_4:
            bound = cutset_bound(counts)
            assert bound.d_max == min(a * b for a, b in zip(counts, counts[1:])), counts
            assert bound.r_max == min(counts), counts

    def test_segment_diversity_is_coefficient_sum(self, dims_to_5_4):
        segments = {
            counts[a : b + 1]
            for counts in dims_to_5_4
            for a in range(len(counts))
            for b in range(a + 1, len(counts))
        }
        for seg in segments:
            assert sum(rp_costs(seg)) == dmt_rp(seg).d_max, seg
            assert _af_d_max(seg) == dmt_rp(seg).d_max, seg

    def test_beyond_cutset_raises(self, dims_to_5_4):
        for counts in dims_to_5_4:
            d_max = min(a * b for a, b in zip(counts, counts[1:]))
            message = f"unachievable diversity: {d_max + 1} > d_max = {d_max}"
            with pytest.raises(ValueError) as info:
                where_to_decode(counts, d_max + 1)
            assert str(info.value) == message


class TestSymmetric:
    @pytest.mark.parametrize("n,hops,k,expect", [(2, 2, 0, 3), (2, 3, 0, 3), (5, 5, 0, 15)])
    def test_values(self, n, hops, k, expect):
        assert dmt_symmetric(n, hops).evaluate(k) == expect

    def test_matches_direct_formula(self):
        for n in range(1, 9):
            for hops in range(1, 9):
                assert dmt_symmetric(n, hops) == dmt_rp((n,) * (hops + 1)), (n, hops)

    def test_long_chain_floor(self):
        # Past n hops, the curve freezes at (n-k)(n+1-k)/2.
        for n in range(1, 9):
            for hops in range(n, 9):
                curve = dmt_symmetric(n, hops)
                for k in range(n + 1):
                    assert curve.evaluate(k) == Fraction((n - k) * (n + 1 - k), 2)


class TestSerialPartition:
    def test_all_df_3142(self):
        curve = dmt_serial_partition((3, 1, 4, 2), DecodeSet((1, 2, 3)))
        assert curve.d_max == 3

    def test_all_af_3142(self):
        curve = dmt_serial_partition((3, 1, 4, 2), DecodeSet((3,)))
        assert curve.d_max == 2

    def test_single_segment_is_af(self, dims_to_4_3):
        for counts in dims_to_4_3:
            hops = len(counts) - 1
            assert dmt_serial_partition(counts, DecodeSet((hops,))) == dmt_rp(counts)

    def test_full_decode_set_is_cutset(self, dims_to_4_3):
        for counts in dims_to_4_3:
            hops = len(counts) - 1
            full = DecodeSet(tuple(range(1, hops + 1)))
            assert dmt_serial_partition(counts, full) == cutset_bound(counts)


def exhaustive_min_decode_set(counts, d):
    """Smallest decode set reaching diversity d, by trying all of them."""
    hops = len(counts) - 1
    best = None
    for size in range(1, hops + 1):
        for inner in itertools.combinations(range(1, hops), size - 1):
            decode = DecodeSet(tuple(inner) + (hops,))
            if dmt_serial_partition(counts, decode).d_max >= d:
                if best is None:
                    best = decode
        if best is not None:
            return best
    return None


class TestWhereToDecode:
    def test_3142_target_3(self):
        assert where_to_decode((3, 1, 4, 2), 3).indices == (2, 3)

    def test_222_target_3(self):
        assert where_to_decode((2, 2, 2), 3).indices == (2,)

    def test_target_one_never_decodes(self, dims_to_4_3):
        for counts in dims_to_4_3:
            assert where_to_decode(counts, 1).indices == (len(counts) - 1,)

    def test_unachievable_raises(self):
        with pytest.raises(ValueError, match="unachievable"):
            where_to_decode((2, 2, 2), 5)

    def test_matches_exhaustive_minimum_size(self, dims_to_3_3):
        for counts in dims_to_3_3:
            d_max = int(cutset_bound(counts).d_max)
            for d in range(1, d_max + 1):
                greedy = where_to_decode(counts, d)
                assert dmt_serial_partition(counts, greedy).d_max >= d
                reference = exhaustive_min_decode_set(counts, d)
                assert len(greedy.indices) == len(reference.indices), (counts, d)


class TestFfLowerBound:
    def test_222_two_modes(self):
        curve = dmt_ff_lower_bound((2, 2, 2), 2)
        assert curve.evaluate(0) == 4
        assert curve.evaluate(Fraction(1, 2)) == 2
        assert curve.evaluate(2) == 0

    def test_2222_four_modes(self):
        assert dmt_ff_lower_bound((2, 2, 2, 2), 4).d_max == 4

    def test_dominates_af_and_merges_beyond_cutover(self, dims_to_3_3):
        for counts in dims_to_3_3:
            af = dmt_rp(counts)
            for k_modes in (1, 2, 3, 5):
                bound = dmt_ff_lower_bound(counts, k_modes)
                for num in range(0, int(af.r_max) * 6 + 1):
                    x = Fraction(num, 6)
                    assert bound.evaluate(x) >= af.evaluate(x)
                    if x >= Fraction(1, k_modes):
                        assert bound.evaluate(x) == af.evaluate(x)


class TestParallelAf:
    def test_single_antenna_paths(self):
        curve = dmt_parallel_af((2, 2, 2), [(1, 1, 1)] * 4)
        assert curve.vertices == ((0, 4), (1, 0))

    def test_243_split(self):
        curve = dmt_parallel_af((2, 4, 3), [(2, 2, 3), (2, 2, 3)])
        assert curve.d_max == 8
        assert not curve.partial

    def test_trivial_partition(self):
        assert dmt_parallel_af((2, 4, 3), [(2, 4, 3)]) == dmt_rp((2, 4, 3))

    def test_heterogeneous_paths_are_partial(self):
        curve = dmt_parallel_af((2, 4, 3), [(2, 2, 3), (2, 1, 3)])
        assert curve.partial
        assert curve.d_max == dmt_rp((2, 2, 3)).d_max + dmt_rp((2, 1, 3)).d_max

    @pytest.mark.parametrize("paths", [[(3, 2, 2)], [(5, 5, 5), (5, 5, 5)], [(1, 3, 1)]])
    def test_path_wider_than_a_layer_rejected(self, paths):
        with pytest.raises(ValueError, match="wider than the channel"):
            dmt_parallel_af((2, 2, 2), paths)

    @pytest.mark.parametrize("paths", [[(2, 2, 2)] * 2, [(1, 1, 1)] * 5, [(2, 1, 2)] * 3])
    def test_diversity_above_cutset_rejected(self, paths):
        with pytest.raises(ValueError, match="above the cut-set d_max 4"):
            dmt_parallel_af((2, 2, 2), paths)

    def test_paths_may_share_antennas_up_to_the_cutset(self):
        # Widths per layer sum past the counts, yet the diversity reaches d_max.
        curve = dmt_parallel_af((2, 2, 2), [(2, 1, 2)] * 2)
        assert curve.d_max == cutset_bound((2, 2, 2)).d_max == 4

    def test_same_curve_different_dims_still_scales(self):
        # (2,2,3) and (3,2,2) share the curve (0,4)-(1,1)-(2,0); the parallel result is 2x it.
        assert dmt_rp((2, 2, 3)) == dmt_rp((3, 2, 2)) == DmtCurve([(0, 4), (1, 1), (2, 0)])
        curve = dmt_parallel_af((3, 4, 3), [(2, 2, 3), (3, 2, 2)])
        assert curve == DmtCurve([(0, 8), (1, 2), (2, 0)])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_identical_paths_scale_the_path_curve(self, k, dims_to_3_3):
        # Widening every layer k-fold leaves room for k copies under the cut-set bound.
        for counts in dims_to_3_3:
            channel = tuple(k * n for n in counts)
            expected = tuple((r, k * d) for r, d in dmt_rp(counts).vertices)
            assert dmt_parallel_af(channel, [counts] * k).vertices == expected, (counts, k)
