import itertools
import json
import math
import warnings
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import bottleneck_full_diversity, search_min_full_diversity_partition

from relaydmt.channel_sim import BLOCK_SIZE, FfScheme, outage_curve
from relaydmt.dmt_core import DecodeSet, as_dimension, cutset_bound, dmt_rp, dmt_serial_partition
from relaydmt.partition import (
    FlipSchedule,
    Partition,
    is_full_diversity,
    is_independent,
    max_partition,
    min_full_div_partition_2hop,
    partition_from_json,
    partition_to_json,
)


def full_node(n):
    return frozenset(range(n))


def singleton_path(antennas):
    """Path through one named antenna per layer."""
    return tuple(frozenset({a}) for a in antennas)


def trivial_partition(counts):
    return Partition((tuple(full_node(n) for n in counts),))


@st.composite
def independent_partitions(draw):
    """A dimension of up to 4 antennas over 1-2 hops or 3 over 3 hops, and
    an independent partition of it on a random supernode structure."""
    hops = draw(st.integers(1, 3))
    counts = tuple(draw(st.integers(1, 4 if hops < 3 else 3)) for _ in range(hops + 1))
    layers = []
    for n in counts:
        # Antenna a joins one of the groups 0..a: every set partition is reachable.
        groups = {}
        for a in range(n):
            groups.setdefault(draw(st.integers(0, a)), set()).add(a)
        layers.append([frozenset(g) for g in groups.values()])
    chains = list(itertools.product(*layers))
    order = draw(st.permutations(range(len(chains))))
    wanted = draw(st.integers(1, len(chains)))
    paths, used = [], set()
    for j in order[:wanted]:
        ends = {(h, chains[j][h], chains[j][h + 1]) for h in range(hops)}
        if not ends & used:
            used |= ends
            paths.append(chains[j])
    return counts, Partition(tuple(paths))


class TestPartitionRules:
    # The rules a Partition holds on construction, whoever builds it.
    @pytest.mark.parametrize(
        "paths,message",
        [
            ((), "partition needs at least one path"),
            (((frozenset({0}),),), "a path spans at least two layers"),
            (((frozenset({0}), frozenset()),), "supernode cannot be empty"),
            (((frozenset({0}), frozenset({-1})),), "antenna indices are non-negative integers"),
            (((frozenset({0}), frozenset({True})),), "antenna indices are non-negative integers"),
            (((frozenset({0}), frozenset({1.0})),), "antenna indices are non-negative integers"),
            ((([0, 1], [0], [0, 1]),), "a supernode is a frozenset of antenna indices, not a list"),
            (((frozenset({0}), {0, 1}),), "a supernode is a frozenset of antenna indices, not a set"),
        ],
    )
    def test_malformed_partition_rejected(self, paths, message):
        with pytest.raises(ValueError, match=message):
            Partition(paths)

    def test_supernodes_are_the_given_frozensets(self):
        _, p = min_full_div_partition_2hop(2, 4, 3)
        assert p.paths == (
            (frozenset({0, 1}), frozenset({0, 1}), frozenset({0, 1, 2})),
            (frozenset({0, 1}), frozenset({2, 3}), frozenset({0, 1, 2})),
        )
        assert p.layer_supernodes(1) == (frozenset({0, 1}), frozenset({2, 3}))


class TestIndependence:
    def test_relay_split_222(self):
        src, dst = full_node(2), full_node(2)
        p = Partition(((src, frozenset({0}), dst), (src, frozenset({1}), dst)))
        assert is_independent((2, 2, 2), p)

    def test_duplicated_path_shares_edges(self):
        path = trivial_partition((2, 2, 2)).paths[0]
        assert not is_independent((2, 2, 2), Partition((path, path)))

    def test_four_singleton_paths_222(self):
        p = Partition(
            (
                singleton_path((0, 0, 0)),
                singleton_path((0, 1, 1)),
                singleton_path((1, 0, 1)),
                singleton_path((1, 1, 0)),
            )
        )
        assert is_independent((2, 2, 2), p)

    def test_overlapping_supernodes_malformed(self):
        p = Partition(
            (
                (full_node(2), frozenset({0, 1}), full_node(2)),
                (full_node(2), frozenset({1}), full_node(2)),
            )
        )
        with pytest.raises(ValueError, match="overlapping"):
            is_independent((2, 2, 2), p)

    def test_out_of_range_antenna(self):
        p = Partition(((full_node(3), full_node(2), full_node(2)),))
        with pytest.raises(ValueError):
            is_independent((2, 2, 2), p)


class TestFullDiversity:
    def test_243_two_wide_paths(self):
        _, p = min_full_div_partition_2hop(2, 4, 3)
        assert is_full_diversity((2, 4, 3), p)

    def test_trivial_222_is_not(self):
        assert not is_full_diversity((2, 2, 2), trivial_partition((2, 2, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symmetric_singleton_relays(self, n):
        src, dst = full_node(n), full_node(n)
        p = Partition(tuple((src, frozenset({j}), dst) for j in range(n)))
        assert is_full_diversity((n, n, n), p)

    def test_requires_independence(self):
        path = trivial_partition((2, 2, 2)).paths[0]
        with pytest.raises(ValueError, match="independent"):
            is_full_diversity((2, 2, 2), Partition((path, path)))

    def test_agrees_with_diversity_sum(self, dims_to_3_3):
        # The per-path diversity sum and the paper's bottleneck criterion
        # must be the same predicate on independent partitions.
        for counts in dims_to_3_3:
            p = max_partition(counts)
            assert is_full_diversity(counts, p) == bottleneck_full_diversity(counts, p), counts

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=independent_partitions())
    @example(case=((2, 4, 3), min_full_div_partition_2hop(2, 4, 3)[1]))
    @example(case=((1, 2, 2, 1), Partition((singleton_path((0, 0, 0, 0)),))))
    def test_agrees_with_bottleneck_oracle_on_random_partitions(self, case):
        counts, p = case
        assert is_independent(counts, p)
        assert is_full_diversity(counts, p) == bottleneck_full_diversity(counts, p)

    def test_uncovered_bottleneck_layer_is_not_full_diversity(self):
        # A single narrow path leaves relay antennas unused: the count
        # conditions alone would pass, the coverage requirement must not.
        p = Partition((singleton_path((0, 0, 0, 0)),))
        counts = (1, 2, 2, 1)
        assert is_independent(counts, p)
        assert not is_full_diversity(counts, p)


def layered_flow_value(counts):
    """Independent oracle: max edge-disjoint paths = integral max flow."""
    g = nx.DiGraph()
    for i in range(len(counts) - 1):
        for a in range(counts[i]):
            for b in range(counts[i + 1]):
                g.add_edge(("L", i, a), ("L", i + 1, b), capacity=1)
    for a in range(counts[0]):
        g.add_edge("s", ("L", 0, a))
    for b in range(counts[-1]):
        g.add_edge(("L", len(counts) - 1, b), "t")
    return nx.maximum_flow_value(g, "s", "t")


def brute_force_max_disjoint(counts):
    """Truly exhaustive max edge-disjoint single-antenna family (tiny dims)."""
    paths = list(itertools.product(*[range(n) for n in counts]))
    edges = [
        [((i, p[i], p[i + 1])) for i in range(len(counts) - 1)] for p in paths
    ]
    best = 0

    def rec(start, used, size):
        nonlocal best
        best = max(best, size)
        for j in range(start, len(paths)):
            ej = edges[j]
            if any(e in used for e in ej):
                continue
            rec(j + 1, used | set(ej), size + 1)

    rec(0, frozenset(), 0)
    return best


class TestMaxPartition:
    def test_222(self):
        p = max_partition((2, 2, 2))
        assert p.size == 4
        assert is_independent((2, 2, 2), p)

    def test_all_ones(self):
        p = max_partition((1, 1, 1, 1))
        assert p.size == 1

    def test_243_has_eight(self):
        p = max_partition((2, 4, 3))
        assert p.size == 8
        assert is_independent((2, 4, 3), p)

    def test_size_matches_flow_oracle(self, dims_to_3_3):
        for counts in dims_to_3_3:
            d_max = int(cutset_bound(counts).d_max)
            p = max_partition(counts)
            assert p.size == d_max
            assert is_independent(counts, p), counts
            assert layered_flow_value(counts) == d_max, counts

    def test_flow_oracle_matches_brute_force_on_tiny(self):
        for n_hops in (1, 2):
            for counts in itertools.product((1, 2), repeat=n_hops + 1):
                assert layered_flow_value(counts) == brute_force_max_disjoint(counts)

    def test_per_antenna_load_bounds(self, dims_to_3_3):
        for counts in dims_to_3_3:
            p = max_partition(counts)
            d_max = p.size
            for layer, n in enumerate(counts):
                load = [0] * n
                for path in p.paths:
                    (antenna,) = path[layer]
                    load[antenna] += 1
                assert all(la in (d_max // n, -(-d_max // n)) for la in load), counts


class TestMinFullDiversity2Hop:
    @pytest.mark.parametrize(
        "counts,expect",
        [((2, 4, 3), 2), ((1, 5, 1), 5), ((3, 4, 3), 4), ((2, 2, 2), 2)],
    )
    def test_sizes(self, counts, expect):
        k, p = min_full_div_partition_2hop(*counts)
        assert k == expect
        assert is_full_diversity(counts, p)

    @pytest.mark.parametrize(
        "counts", [(0, 2, 2), (2, 0, 2), (2, 2, -1), (True, 2, 2), (2, 4.0, 3)]
    )
    def test_non_positive_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="antenna counts must be positive"):
            min_full_div_partition_2hop(*counts)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_symmetric(self, n):
        k, p = min_full_div_partition_2hop(n, n, n)
        assert k == n
        assert is_full_diversity((n, n, n), p)

    def test_full_diversity_on_all_small_dims(self):
        for counts in itertools.product(range(1, 5), repeat=3):
            _, p = min_full_div_partition_2hop(*counts)
            assert is_full_diversity(counts, p), counts
            total = sum(int(dmt_rp(w).d_max) for w in p.path_dims())
            assert total == int(cutset_bound(counts).d_max), counts

    def test_each_path_is_bottleneck_reducible(self, dims_to_3_3):
        # Every path of the constructed partition satisfies the
        # reduce-to-bottleneck condition on its own widths.
        for counts in dims_to_3_3:
            if len(counts) != 3:
                continue
            _, p = min_full_div_partition_2hop(*counts)
            for widths in p.path_dims():
                o = sorted(widths)
                assert o[2] + 1 >= o[0] + o[1], counts

    def test_matches_exhaustive_search(self):
        for counts in [(2, 2, 2), (2, 4, 3), (1, 4, 1), (3, 3, 2), (2, 3, 2)]:
            k, _ = min_full_div_partition_2hop(*counts)
            k_search, p_search = search_min_full_diversity_partition(counts)
            assert k_search == k, counts
            assert is_full_diversity(counts, p_search)

    def test_exhaustive_search_guards_size(self):
        with pytest.raises(ValueError, match="exhaustive"):
            search_min_full_diversity_partition((5, 5, 5))
        with pytest.raises(ValueError, match="exhaustive"):
            search_min_full_diversity_partition((2, 2, 2, 2, 2))


class TestFlipSchedule:
    def test_222_matches_reference_modes(self):
        _, p = min_full_div_partition_2hop(2, 2, 2)
        sched = FlipSchedule((2, 2, 2), p)
        assert sched.mode_count == 2
        assert sched.mode_flips(1) == [(1, 1)]
        assert sched.mode_flips(2) == [(1, -1)]

    def test_2222_enumerates_all_pairs(self):
        p = max_partition((2, 2, 2, 2))
        sched = FlipSchedule((2, 2, 2, 2), p)
        assert sched.layer_counts == (2, 2)
        assert sched.mode_count == 4
        assert sorted(sched.mode_map) == sorted(itertools.product((1, 2), (1, 2)))

    def test_single_supernode_layers(self):
        p = trivial_partition((2, 3, 2))
        with pytest.warns(UserWarning):
            sched = FlipSchedule((2, 3, 2), p)
        assert sched.mode_count == 1
        assert sched.mode_flips(1) == [(1, 1, 1)]

    @pytest.mark.parametrize(
        "dim,paths,message",
        [
            # Relay layer 2 missing: such a schedule used to drop the third hop without a word.
            ((2, 2, 2, 2), [(0, 0, 0), (1, 1, 1)], "path spans 3 layers, channel has 4"),
            ((2, 2, 2), [(0, 5, 0)], "antenna index out of range in layer 1"),
            ((2, 2, 2), [(0, 0, 0), (1, (0, 1), 1)], "overlapping supernodes in layer 1"),
        ],
    )
    def test_misfit_partition_rejected(self, dim, paths, message):
        nodes = [tuple(frozenset(a if isinstance(a, tuple) else {a}) for a in path) for path in paths]
        with pytest.raises(ValueError, match=message):
            FlipSchedule(as_dimension(dim), Partition(tuple(nodes)))

    @pytest.mark.parametrize("dim", [(2, 2, 2, 2), (2, 1, 2)])
    def test_misfit_partition_raises_before_any_warning(self, dim):
        # The one-path (2,2,2) partition below would warn; on a channel it does not fit it only raises.
        a = frozenset({0, 1})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError):
                FlipSchedule(dim, Partition(((a, a, a),)))
        assert caught == []

    def test_direct_schedule_warns_on_a_partition_short_of_full_diversity(self):
        # One path through whole layers of (2,2,2): independent, AF diversity 2 < cut-set 4.
        # Built directly, the schedule used to skip this warning.
        a = frozenset({0, 1})
        p = Partition(((a, a, a),))
        assert is_independent((2, 2, 2), p) and not is_full_diversity((2, 2, 2), p)
        with pytest.warns(UserWarning, match="not an independent full-diversity partition") as caught:
            sched = FlipSchedule((2, 2, 2), p)
        assert [w.filename for w in caught] == [__file__]  # the warning names this caller
        assert sched.mode_count == 1

    def test_supernodes_are_the_partition_relay_layers(self, dims_to_3_3):
        for counts in dims_to_3_3:
            parts = [max_partition(counts)]
            if len(counts) == 3:
                parts.append(min_full_div_partition_2hop(*counts)[1])
            for p in parts:
                sched = FlipSchedule(as_dimension(counts), p)
                relays = tuple(p.layer_supernodes(layer) for layer in range(1, len(counts) - 1))
                assert sched.supernodes == relays, (counts, p)

    def test_tuple_dimension_coerced(self):
        # A plain tuple builds the schedule a Dimension builds, and runs the same FF counts.
        _, p = min_full_div_partition_2hop(2, 2, 2)
        sched, reference = FlipSchedule((2, 2, 2), p), FlipSchedule(as_dimension((2, 2, 2)), p)
        assert sched == reference and sched.mode_map == reference.mode_map
        counts = [
            outage_curve((2, 2, 2), FfScheme(s), 2.0, [10.0], BLOCK_SIZE, seed=1)[0].outage_count
            for s in (sched, reference)
        ]
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("counts", [(2, True, 2), (2, 2.0, 2), (2, 0, 2)])
    def test_bad_dimension_rejected(self, counts):
        _, p = min_full_div_partition_2hop(2, 2, 2)
        with pytest.raises(ValueError, match="antenna counts must be positive integers"):
            FlipSchedule(counts, p)

    @pytest.mark.parametrize("mode", [0, -1, 5, True, 1.5])
    def test_mode_outside_the_schedule_rejected(self, mode):
        sched = FlipSchedule((2, 2, 2, 2), max_partition((2, 2, 2, 2)))
        assert sched.mode_count == 4
        with pytest.raises(ValueError, match=r"mode must be an integer in 1\.\.4"):
            sched.mode_flips(mode)

    def test_mode_map_is_bijection(self):
        # For one to three relay layers, the mode indexing lists every
        # tuple of the product of per-layer choices exactly once, and
        # FlipSchedule warns exactly when the partition is not an
        # independent full-diversity one.
        shapes = [ks for n in (1, 2, 3) for ks in itertools.product((1, 2, 3, 4), repeat=n)]
        warned_shapes = set()
        for layer_counts in shapes:
            counts = (4,) + tuple(max(2, k) for k in layer_counts) + (4,)
            paths = []
            src = full_node(counts[0])
            dst = full_node(counts[-1])
            for combo in itertools.product(*[range(k) for k in layer_counts]):
                paths.append((src, *(frozenset({j}) for j in combo), dst))
            p = Partition(tuple(paths))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sched = FlipSchedule(counts, p)
            warned = any(issubclass(w.category, UserWarning) for w in caught)
            assert warned == (not (is_independent(counts, p) and is_full_diversity(counts, p))), (
                layer_counts
            )
            if warned:
                warned_shapes.add(layer_counts)
            assert sched.layer_counts == layer_counts
            assert len(sched.mode_map) == math.prod(layer_counts), layer_counts
            assert sorted(sched.mode_map) == sorted(
                itertools.product(*[range(1, k + 1) for k in layer_counts])
            ), layer_counts
            # The order is the docstring's: f_1(k) = (k-1) mod K_1 + 1 and
            # f_i(k) = ceil((k-1) / (K_1 ... K_{i-1})) mod K_i + 1.  FF averages
            # its modes and coded FF gives mode k sub-channel k, so order counts.
            for k, choices in enumerate(sched.mode_map, start=1):
                f = [(k - 1) % layer_counts[0] + 1]
                for i in range(1, len(layer_counts)):
                    prefix = math.prod(layer_counts[:i])
                    f.append(math.ceil(Fraction(k - 1, prefix)) % layer_counts[i] + 1)
                assert choices == tuple(f), (layer_counts, k)
        # Both branches are exercised: every three-layer shape warns, and
        # some shallower shape does not.
        assert {ks for ks in shapes if len(ks) == 3} <= warned_shapes
        assert warned_shapes != set(shapes)


def pivot_diversity(counts, layer):
    """Diversity of cycling the single-antenna selections of relay ``layer``: DF there."""
    return dmt_serial_partition(counts, DecodeSet((layer, len(counts) - 1))).d_max


class TestNonIndependentPartition:
    def test_32223_pivot_2(self):
        assert pivot_diversity((3, 2, 2, 2, 3), 2) == 4

    def test_222_pivot_1(self):
        assert pivot_diversity((2, 2, 2), 1) == 4

    def test_matches_segment_minimum(self, dims_to_3_3):
        # The paper's value: the smaller AF diversity of the two sides, the pivot in both.
        for counts in dims_to_3_3:
            hops = len(counts) - 1
            for layer in range(1, hops):
                left = dmt_rp(counts[: layer + 1]).d_max
                right = dmt_rp(counts[layer:]).d_max
                assert pivot_diversity(counts, layer) == min(left, right), (counts, layer)

    def test_pivot_out_of_range(self):
        # The source and the destination are not relay layers.
        for layer in (0, 2):
            with pytest.raises(ValueError, match="decode indices"):
                pivot_diversity((2, 2, 2), layer)


class TestDiversitySumBound:
    def test_independent_partitions_never_exceed_cutset(self, dims_to_3_3):
        for counts in dims_to_3_3:
            d_max = int(cutset_bound(counts).d_max)
            p = max_partition(counts)
            total = sum(int(dmt_rp(w).d_max) for w in p.path_dims())
            assert total <= d_max


class TestJsonRoundTrip:
    def test_round_trip(self):
        for counts in [(2, 2, 2), (2, 4, 3), (3, 1, 4, 2)]:
            p = max_partition(counts)
            text = partition_to_json(counts, p)
            dim2, p2 = partition_from_json(text)
            assert dim2.counts == counts
            assert partition_to_json(dim2, p2) == text
            assert is_independent(counts, p2)

    def test_wide_paths(self):
        _, p = min_full_div_partition_2hop(2, 4, 3)
        dim2, p2 = partition_from_json(partition_to_json((2, 4, 3), p))
        assert p2.path_dims() == ((2, 2, 3), (2, 2, 3))

    def test_missing_keys_rejected(self):
        for text in ["{}", '{"dim": [2, 2, 2], "layers": []}', "[]"]:
            with pytest.raises(ValueError, match="'dim', 'layers' and 'paths'"):
                partition_from_json(text)

    @pytest.mark.parametrize("ref", [5, 2, -1, "0"])
    def test_unknown_supernode_rejected(self, ref):
        doc = json.loads(partition_to_json((2, 2, 2), max_partition((2, 2, 2))))
        doc["paths"][0][1] = ref
        with pytest.raises(ValueError, match="refers to supernode .* of layer 1, which has 2"):
            partition_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field,value",
        [("dim", 5), ("layers", [[["a"]], [[0], [1]], [[0, 1]]]), ("paths", 3), ("paths", [7])],
    )
    def test_wrong_json_types_rejected(self, field, value):
        doc = json.loads(partition_to_json((2, 2, 2), max_partition((2, 2, 2))))
        doc[field] = value
        with pytest.raises(ValueError, match="malformed partition document"):
            partition_from_json(json.dumps(doc))

    def test_path_longer_than_the_layers_rejected(self):
        doc = json.loads(partition_to_json((2, 2, 2), max_partition((2, 2, 2))))
        doc["paths"][0].append(0)
        with pytest.raises(ValueError, match="of layer 3, which has 0"):
            partition_from_json(json.dumps(doc))
