import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaydmt.dmt_core import (
    _af_d_max,
    DecodeSet,
    Dimension,
    DmtCurve,
    as_dimension,
    coeffs,
    cutset_bound,
    dmt_ff_lower_bound,
    dmt_parallel_af,
    dmt_rayleigh,
    dmt_rp,
    dmt_serial_partition,
    dmt_symmetric,
    where_to_decode,
)


def vertices(curve):
    return [(int(x) if x.denominator == 1 else x, y) for x, y in curve.vertices]


def _segment_intersections(ca, cb, right):
    """Abscissas where two piecewise-linear curves cross, within (0, right)."""
    out = []
    for (ax0, ay0), (ax1, ay1) in zip(ca.vertices, ca.vertices[1:]):
        for (bx0, by0), (bx1, by1) in zip(cb.vertices, cb.vertices[1:]):
            lo, hi = max(ax0, bx0), min(ax1, bx1)
            if lo >= hi or lo >= right:
                continue
            sa = (ay1 - ay0) / (ax1 - ax0)
            sb = (by1 - by0) / (bx1 - bx0)
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


class TestDimension:
    def test_basic(self):
        d = as_dimension((3, 1, 4, 2))
        assert d.hops == 3
        assert d.ordered == (1, 2, 3, 4)
        assert d.n_min == 1 and d.n_max == 4

    @pytest.mark.parametrize("bad", [(), (3,), (2, 0, 2), (2, -1), (1.5, 2)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            Dimension(tuple(bad))


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

    def test_collinear_vertices_merge(self):
        c = DmtCurve([(0, 4), (1, 2), (2, 0)])
        assert c == DmtCurve([(0, 4), (2, 0)])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(integer_curves(), min_size=2, max_size=4))
    def test_pointwise_min_is_the_lower_envelope(self, curves):
        env = DmtCurve.pointwise_min(curves)
        assert all(isinstance(x, Fraction) and isinstance(y, Fraction) for x, y in env.vertices)
        for x, y in env.vertices:
            assert y == min(c.evaluate(x) for c in curves), x
        xs = sorted({x for c in [env, *curves] for x, _ in c.vertices})
        probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        for x in probes:
            assert all(env.evaluate(x) <= c.evaluate(x) for c in curves), x
        assert env == all_pairs_envelope(curves)

    def test_partial_curve(self):
        c = DmtCurve([(0, 8)], partial=True)
        assert c.d_max == 8
        with pytest.raises(ValueError):
            c.evaluate(1)

    def test_monotone_validation(self):
        with pytest.raises(ValueError):
            DmtCurve([(0, 1), (1, 2), (2, 0)])


class TestCoeffs:
    def test_222(self):
        assert coeffs((2, 2, 2)).values == (2, 1)

    def test_243(self):
        assert coeffs((2, 4, 3)).values == (4, 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_single_relay_stream(self, m):
        assert coeffs((1, m)).values == (m,)

    def test_strictly_decreasing(self, dims_to_5_4):
        for counts in dims_to_5_4:
            c = coeffs(counts).values
            assert all(a > b for a, b in zip(c, c[1:])), counts


class TestRpCurve:
    def test_222(self):
        assert vertices(dmt_rp((2, 2, 2))) == [(0, 3), (1, 1), (2, 0)]

    def test_243(self):
        assert vertices(dmt_rp((2, 4, 3))) == [(0, 6), (1, 2), (2, 0)]

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
        assert vertices(dmt_rayleigh(nt, nr)) == expect


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
            assert sum(coeffs(seg).values) == dmt_rp(seg).d_max, seg
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
                assert len(greedy) == len(reference), (counts, d)


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
        assert vertices(curve) == [(0, 4), (1, 0)]

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

    def test_same_curve_different_dims_still_scales(self):
        # (2,2,3) and (3,2,2) share a curve; the parallel result is 2x it.
        curve = dmt_parallel_af((3, 4, 3), [(2, 2, 3), (3, 2, 2)])
        assert not curve.partial
        assert curve == dmt_rp((2, 2, 3)).scale(2)
