import pytest
from oracles import cross_check, split_values

from relaydmt.dmt_core import as_dimension, dmt_rp
from relaydmt.recursion import dmt_recursive


class TestRecursiveValues:
    @pytest.mark.parametrize(
        "counts,k,expect",
        [
            ((2, 2, 2, 2), 0, 3),
            ((2, 4, 3), 0, 6),
            ((2, 2, 2), 0, 3),
            ((2, 2, 2), 1, 1),
            ((3, 1, 4, 2), 0, 2),
        ],
    )
    def test_known_points(self, counts, k, expect):
        assert dmt_recursive(counts, k) == expect

    def test_max_flow_costs_nothing(self, dims_to_4_3):
        for counts in dims_to_4_3:
            assert dmt_recursive(counts, min(counts)) == 0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            dmt_recursive((2, 2, 2), 3)


class TestAgreementWithClosedForm:
    def test_single_hop_is_rayleigh(self):
        for nt in range(1, 6):
            for nr in range(1, 6):
                for k in range(min(nt, nr) + 1):
                    assert dmt_recursive((nt, nr), k) == (nt - k) * (nr - k)

    def test_exhaustive_small(self, dims_to_5_4):
        for counts in dims_to_5_4:
            curve = dmt_rp(counts)
            for k in range(min(counts) + 1):
                assert dmt_recursive(counts, k) == curve.evaluate(k), (counts, k)


class TestStructuralIdentities:
    def test_cut_invariance(self, dims_to_4_3):
        for counts in dims_to_4_3:
            dim = as_dimension(counts)
            if dim.hops < 2:
                continue
            for k in range(dim.n_min + 1):
                reference = dmt_recursive(counts, k)
                for layer in range(1, dim.hops):
                    assert split_values(counts, k, layer) == reference, (counts, k, layer)

    def test_shift_identity(self, dims_to_4_3):
        for counts in dims_to_4_3:
            for k in range(min(counts)):
                shifted = tuple(n - k for n in counts)
                assert dmt_recursive(counts, k) == dmt_recursive(shifted, 0), (counts, k)

    def test_cross_check_sweep(self, dims_to_4_3):
        for counts in dims_to_4_3:
            assert cross_check(counts), counts
