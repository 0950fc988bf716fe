import pytest
from oracles import interval_boundaries, practical_vertical_reduction, reduces_to, rp_costs

from relaydmt.dmt_core import as_dimension, dmt_rp
from relaydmt.reduction import analyze


class TestCanReduce:
    """A channel reduces to ``k`` hops iff ``k`` is at least its order."""

    def test_141_reduces_to_rayleigh(self):
        assert analyze((1, 4, 1)).order == 1

    def test_222_does_not(self):
        assert analyze((2, 2, 2)).order == 2

    def test_self_reduction_always_true(self, dims_to_4_3):
        for counts in dims_to_4_3:
            assert analyze(counts).order <= len(counts) - 1, counts

    def test_order_is_first_k_the_criterion_accepts(self, dims_to_5_4):
        for counts in dims_to_5_4:
            hops, order = len(counts) - 1, analyze(counts).order
            assert not any(reduces_to(counts, k) for k in range(1, order)), counts
            assert all(reduces_to(counts, k) for k in range(order, hops + 1)), counts


class TestAnalyze:
    def test_141(self):
        rep = analyze((1, 4, 1))
        assert rep.order == 1
        assert rep.minimal_form.counts == (1, 1)
        assert rep.n_bar == 1
        assert rep.minimal_vertical_form.counts == (1, 1, 1)

    def test_3142(self):
        rep = analyze((3, 1, 4, 2))
        assert rep.order == 1
        assert rep.minimal_form.counts == (1, 2)
        assert rep.n_bar == 2

    @pytest.mark.parametrize("nt,nr", [(1, 1), (2, 3), (4, 2)])
    def test_single_hop(self, nt, nr):
        rep = analyze((nt, nr))
        assert rep.order == 1
        assert rep.minimal_form.counts == tuple(sorted((nt, nr)))
        assert rep.n_bar == nt + nr - 1

    def test_symmetric_order_saturates_at_n(self):
        # Extra hops beyond n leave the tradeoff unchanged.
        for n in range(1, 6):
            for hops in range(1, 7):
                assert analyze((n,) * (hops + 1)).order == min(n, hops)

    def test_minimal_forms_preserve_curve(self, dims_to_5_4):
        for counts in dims_to_5_4:
            rep = analyze(counts)
            assert dmt_rp(rep.minimal_form) == dmt_rp(counts), counts
            assert dmt_rp(rep.minimal_vertical_form) == dmt_rp(counts), counts

    def test_rayleigh_order_iff_third_layer_large(self, dims_to_5_4):
        for counts in dims_to_5_4:
            o = as_dimension(counts).ordered
            expected = len(o) == 2 or o[2] + 1 >= o[0] + o[1]
            assert (analyze(counts).order == 1) == expected, counts


def same_form(a, b):
    return analyze(a).minimal_form == analyze(b).minimal_form


class TestEquivalence:
    """Two channels are equivalent when ``analyze`` gives them the same minimal form."""

    def test_3142_vs_3122(self):
        assert same_form((3, 1, 4, 2), (3, 1, 2, 2))

    def test_different_orders(self):
        assert not same_form((2, 2, 2), (2, 2))

    def test_permutations_equivalent(self, dims_to_4_3):
        for counts in dims_to_4_3:
            assert same_form(counts, tuple(reversed(counts)))

    def test_relation_properties(self, dims_to_3_3):
        # Equal minimal forms group the dimensions exactly as equal curves do,
        # so equivalence by form coincides with curve equality on every pair.
        by_form, by_curve = {}, {}
        for counts in dims_to_3_3:
            by_form.setdefault(analyze(counts).minimal_form, set()).add(counts)
            by_curve.setdefault(dmt_rp(counts), set()).add(counts)
        assert sorted(map(sorted, by_form.values())) == sorted(map(sorted, by_curve.values()))


class TestPracticalReduction:
    def test_3142(self):
        assert analyze((3, 1, 4, 2)).practical_vertical_form.counts == (3, 1, 2, 2)

    def test_141(self):
        assert analyze((1, 4, 1)).practical_vertical_form.counts == (1, 1, 1)

    def test_already_minimal(self):
        assert analyze((2, 2, 2)).practical_vertical_form.counts == (2, 2, 2)

    def test_matches_reference(self, dims_to_5_4):
        for counts in dims_to_5_4:
            assert analyze(counts).practical_vertical_form == practical_vertical_reduction(counts), counts

    def test_always_equivalent_and_layerwise_bounded(self, dims_to_5_4):
        for counts in dims_to_5_4:
            reduced = analyze(counts).practical_vertical_form
            assert same_form(counts, reduced), counts
            assert reduced[0] == counts[0] and reduced[-1] == counts[-1]
            assert all(r <= c for r, c in zip(reduced, counts))


class TestIntervalBoundaries:
    def test_cost_formula_matches_interval_lookup(self, dims_to_5_4):
        # Within [p_k, p_{k-1}] the k-th sorted prefix attains the
        # minimum in the per-stream cost.
        for counts in dims_to_5_4:
            dim = as_dimension(counts)
            o = dim.ordered
            p = list(interval_boundaries(dim)) + [-(10**9)]
            expect = []
            for i in range(1, dim.n_min + 1):
                k = next(kk for kk in range(1, dim.hops + 1) if p[kk] <= i <= p[kk - 1])
                expect.append(1 - i + (sum(o[: k + 1]) - i) // k)
            assert tuple(expect) == rp_costs(dim), counts

    def test_first_boundary_is_n_min(self, dims_to_4_3):
        for counts in dims_to_4_3:
            assert interval_boundaries(counts)[0] == min(counts)
