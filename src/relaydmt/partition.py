"""
Parallel partitions of a multihop channel: supernodes, AF paths,
independence and full-diversity checks, and flip-mode schedules.

A *supernode* is a subset of the antennas in one layer acting together.
An *AF path* chains one supernode per layer from source to destination;
a *parallel partition* is a set of such paths, time-multiplexed into a
parallel channel.  Two paths are edge-disjoint when they never use the
same antenna pair on any hop; a partition of pairwise edge-disjoint
paths is *independent*, and it has full diversity when the per-path
diversities add up to the cut-set maximum.

The flip-and-forward schedule turns an independent partition into
``K' = prod K_i`` relaying modes (``K_i`` = supernodes in relay layer
``i``): in mode k, relay layer i negates the antennas of its
``f_i(k)``-th supernode, which de-correlates the alignment of adjacent
hops across modes and restores the cut-set diversity.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dmt_core import Dimension, DimensionLike, _af_d_max, _cutset_d_max, as_dimension

__all__ = [
    "Supernode",
    "AfPath",
    "Partition",
    "FlipSchedule",
    "is_independent",
    "is_full_diversity",
    "max_partition",
    "min_full_div_partition_2hop",
    "ff_schedule",
    "nonind_partition_diversity",
    "search_min_full_diversity_partition",
    "partition_to_json",
    "partition_from_json",
]


@dataclass(frozen=True)
class Supernode:
    """A non-empty set of antenna indices within one layer."""

    layer: int
    antennas: frozenset[int]

    def __post_init__(self) -> None:
        if not self.antennas:
            raise ValueError("supernode cannot be empty")
        if any(a < 0 for a in self.antennas):
            raise ValueError("antenna indices are non-negative")

    @property
    def size(self) -> int:
        return len(self.antennas)

    def sorted_antennas(self) -> tuple[int, ...]:
        return tuple(sorted(self.antennas))


@dataclass(frozen=True)
class AfPath:
    """One supernode per layer, source to destination."""

    supernodes: tuple[Supernode, ...]

    def __post_init__(self) -> None:
        if len(self.supernodes) < 2:
            raise ValueError("a path spans at least two layers")
        for pos, node in enumerate(self.supernodes):
            if node.layer != pos:
                raise ValueError(f"supernode at position {pos} claims layer {node.layer}")

    @property
    def widths(self) -> tuple[int, ...]:
        """Per-layer antenna counts of the path, its own sub-dimension."""
        return tuple(node.size for node in self.supernodes)

    def hop_edges(self, hop: int) -> set[tuple[int, int]]:
        """All antenna pairs the path uses on hop ``hop`` (1-based)."""
        left = self.supernodes[hop - 1].antennas
        right = self.supernodes[hop].antennas
        return {(a, b) for a in left for b in right}


@dataclass(frozen=True)
class Partition:
    """A set of AF paths over a common supernode structure."""

    paths: tuple[AfPath, ...]

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("partition needs at least one path")

    @property
    def size(self) -> int:
        return len(self.paths)

    def layer_supernodes(self, layer: int) -> tuple[Supernode, ...]:
        """Distinct supernodes at a layer, ordered by smallest antenna index."""
        seen = {p.supernodes[layer] for p in self.paths}
        return tuple(sorted(seen, key=lambda s: s.sorted_antennas()))

    def path_dims(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.widths for p in self.paths)


def singleton_path(antennas: Sequence[int]) -> AfPath:
    """Path through one named antenna per layer."""
    return AfPath(tuple(Supernode(i, frozenset({a})) for i, a in enumerate(antennas)))


def _validate(dim: Dimension, p: Partition) -> None:
    for path in p.paths:
        if len(path.supernodes) != len(dim):
            raise ValueError(f"path spans {len(path.supernodes)} layers, channel has {len(dim)}")
        for node in path.supernodes:
            if max(node.antennas) >= dim[node.layer]:
                raise ValueError(f"antenna index out of range in layer {node.layer}")
    for layer in range(len(dim)):
        nodes = {path.supernodes[layer] for path in p.paths}
        for a, b in itertools.combinations(nodes, 2):
            if a.antennas & b.antennas:
                raise ValueError(f"overlapping supernodes in layer {layer}")


def is_independent(dim: DimensionLike, p: Partition) -> bool:
    """Whether no two paths share an antenna-pair edge on any hop.

    A path occupies the complete bipartite edge set between its
    consecutive supernodes, so with a valid supernode structure two
    paths collide on a hop iff they use the same supernode on both ends.
    """
    dim = as_dimension(dim)
    _validate(dim, p)
    for hop in range(1, len(dim)):
        seen: set[tuple[Supernode, Supernode]] = set()
        for path in p.paths:
            ends = (path.supernodes[hop - 1], path.supernodes[hop])
            if ends in seen:
                return False
            seen.add(ends)
    return True


def _bottleneck_layers(dim: Dimension) -> list[int]:
    d_max = _cutset_d_max(dim)
    return [i for i in range(dim.hops) if dim[i] * dim[i + 1] == d_max]


def is_full_diversity(dim: DimensionLike, p: Partition) -> bool:
    """Whether an independent partition reaches the cut-set diversity.

    True iff, for some bottleneck hop (i*, i*+1): the partition's
    supernodes cover both bottleneck layers, the partition size equals
    the supernode-count product ``K_{i*} * K_{i*+1}``, and every path
    is narrow enough elsewhere::

        min over other layers of n_{k,i}  +  1  >=  n_{k,i*} + n_{k,i*+1}

    Equivalent to the per-path diversities summing to ``d_max``.
    """
    dim = as_dimension(dim)
    if not is_independent(dim, p):
        raise ValueError("partition is not independent")
    for istar in _bottleneck_layers(dim):
        left_nodes = p.layer_supernodes(istar)
        right_nodes = p.layer_supernodes(istar + 1)
        if sum(n.size for n in left_nodes) != dim[istar]:
            continue
        if sum(n.size for n in right_nodes) != dim[istar + 1]:
            continue
        if p.size != len(left_nodes) * len(right_nodes):
            continue
        others = [i for i in range(len(dim)) if i not in (istar, istar + 1)]
        narrow = (min(w[i] for i in others) + 1 >= w[istar] + w[istar + 1] for w in p.path_dims())
        if not others or all(narrow):
            return True
    return False


def max_partition(dim: DimensionLike) -> Partition:
    """The ``d_max`` edge-disjoint single-antenna paths.

    Round-robin construction: paths are grouped by their previous-layer
    antenna and dealt out cyclically over the next layer's antennas, so
    each antenna in layer i carries ``floor`` or ``ceil`` of
    ``d_max / n_i`` paths, groups stay small enough that no pair
    repeats, and every hop's edges are distinct.
    """
    dim = as_dimension(dim)
    d_max = _cutset_d_max(dim)
    assign = [[k % dim[0] for k in range(d_max)]]
    for layer in range(1, len(dim)):
        prev = assign[-1]
        order = sorted(range(d_max), key=lambda k: (prev[k], k))
        nxt = [0] * d_max
        for pos, k in enumerate(order):
            nxt[k] = pos % dim[layer]
        assign.append(nxt)
    paths = tuple(
        singleton_path([assign[layer][k] for layer in range(len(dim))]) for k in range(d_max)
    )
    return Partition(paths)


def min_full_div_partition_2hop(n0: int, n1: int, n2: int) -> tuple[int, Partition]:
    """Smallest full-diversity partition of a two-hop channel.

    ``K = ceil(n1 / (|n0 - n2| + 1))``: the relay layer is split into K
    nearly equal supernodes and the source/destination stay whole.
    """
    if min(n0, n1, n2) < 1:
        raise ValueError("antenna counts must be positive")
    k = math.ceil(n1 / (abs(n0 - n2) + 1))
    source = Supernode(0, frozenset(range(n0)))
    dest = Supernode(2, frozenset(range(n2)))
    base, extra = divmod(n1, k)
    chunks = []
    start = 0
    for idx in range(k):
        size = base + (1 if idx < extra else 0)
        chunks.append(frozenset(range(start, start + size)))
        start += size
    paths = tuple(AfPath((source, Supernode(1, c), dest)) for c in chunks)
    return k, Partition(paths)


@dataclass(frozen=True)
class FlipSchedule:
    """Relaying modes of the flip-and-forward scheme.

    ``layer_counts`` holds ``(K_1, ..., K_{N-1})``; there are
    ``mode_count = prod K_i`` modes.  ``mode_map[k-1]`` is the tuple
    ``(f_1(k), ..., f_{N-1}(k))`` of 1-based supernode choices, and the
    k-th flip pattern of layer i negates the antennas of supernode
    ``f_i(k)`` unless ``f_i(k) == 1`` (mode 1 of every layer is the
    identity).  The mode tuples enumerate the full product set exactly
    once.
    """

    dim: Dimension
    layer_counts: tuple[int, ...]
    mode_map: tuple[tuple[int, ...], ...]
    supernodes: tuple[tuple[Supernode, ...], ...]  # per relay layer, ordered

    @property
    def mode_count(self) -> int:
        return len(self.mode_map)

    def flip_vector(self, layer: int, choice: int) -> tuple[int, ...]:
        """Diagonal +-1 pattern of relay ``layer`` for supernode ``choice`` (1-based)."""
        pattern = [1] * self.dim[layer]
        if choice != 1:
            for a in self.supernodes[layer - 1][choice - 1].antennas:
                pattern[a] = -1
        return tuple(pattern)

    def mode_flips(self, mode: int) -> list[tuple[int, ...]]:
        """Flip patterns of relay layers 1..N-1 for 1-based ``mode``."""
        choices = self.mode_map[mode - 1]
        return [self.flip_vector(layer, c) for layer, c in enumerate(choices, start=1)]


def ff_schedule(dim: DimensionLike, p: Partition) -> FlipSchedule:
    """Flip-mode schedule derived from a partition's relay supernodes.

    Mode indices follow ``f_1(k) = ((k-1) mod K_1) + 1`` and, for
    deeper layers, ``f_i(k) = ceil((k-1) / (K_1 ... K_{i-1})) mod K_i + 1``.
    """
    dim = as_dimension(dim)
    if not (is_independent(dim, p) and is_full_diversity(dim, p)):
        warnings.warn(
            "partition is not an independent full-diversity partition; the "
            "flip schedule is still constructible but the cut-set diversity "
            "is not guaranteed",
            stacklevel=2,
        )
    relay_nodes = tuple(p.layer_supernodes(layer) for layer in range(1, dim.hops))
    counts = tuple(len(nodes) for nodes in relay_nodes)
    total = math.prod(counts)
    mode_map = []
    for k in range(1, total + 1):
        choices = [(k - 1) % counts[0] + 1] if counts else []
        prefix = counts[0] if counts else 1
        for i in range(1, len(counts)):
            choices.append((-((1 - k) // prefix)) % counts[i] + 1)
            prefix *= counts[i]
        mode_map.append(tuple(choices))
    return FlipSchedule(
        dim=dim, layer_counts=counts, mode_map=tuple(mode_map), supernodes=relay_nodes
    )


def nonind_partition_diversity(dim: DimensionLike, layer: int) -> int:
    """Diversity of the antenna-selection parallel scheme pivoted at ``layer``.

    Cycling through the single-antenna selections of one relay layer
    achieves the minimum of the AF diversities of the two sides (the
    pivot layer counted in both), as if that layer decoded.
    """
    dim = as_dimension(dim)
    if not 1 <= layer <= dim.hops - 1:
        raise ValueError("pivot layer must be a relay layer")
    left = _af_d_max(dim.counts[: layer + 1])
    right = _af_d_max(dim.counts[layer:])
    return min(left, right)


# ---------------------------------------------------------------------------
# Exhaustive search (exponential; small channels only)
# ---------------------------------------------------------------------------


def _set_partitions(items: tuple[int, ...]) -> Iterable[list[frozenset[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] | {first}] + sub[i + 1 :]
        yield sub + [frozenset({first})]


def search_min_full_diversity_partition(
    dim: DimensionLike, node_budget: int = 2_000_000
) -> tuple[int, Partition]:
    """Exhaustive minimum-size full-diversity partition.

    Exponential in the channel size; refuses dims with more than 4
    antennas per layer or more than 3 hops.  Enumerates supernode
    structures per layer (set partitions), then backtracks over
    edge-disjoint path families, pruning on the achievable diversity
    budget.  Returns the first (smallest) full-diversity partition.
    """
    dim = as_dimension(dim)
    if dim.n_max > 4 or dim.hops > 3:
        raise ValueError("exhaustive search is limited to <= 4 antennas per layer, <= 3 hops")
    d_max = _cutset_d_max(dim)
    structures = [list(_set_partitions(tuple(range(n)))) for n in dim.counts]
    budget = [node_budget]

    best: tuple[int, Partition] | None = None
    for combo in itertools.product(*structures):
        layer_nodes = [
            [Supernode(layer, s) for s in sorted(nodes, key=lambda s: min(s))]
            for layer, nodes in enumerate(combo)
        ]
        all_paths = [AfPath(chain) for chain in itertools.product(*layer_nodes)]
        path_div = [_af_d_max(path.widths) for path in all_paths]
        order = sorted(range(len(all_paths)), key=lambda j: -path_div[j])
        found = _backtrack_full_div(
            [all_paths[j] for j in order], [path_div[j] for j in order], d_max, budget
        )
        if found is not None and (best is None or len(found) < best[0]):
            best = (len(found), Partition(tuple(found)))
            if best[0] == 1:
                break
    if best is None:
        raise RuntimeError("no full-diversity partition found (budget exhausted?)")
    return best


def _backtrack_full_div(
    paths: list[AfPath], divs: list[int], target: int, budget: list[int]
) -> list[AfPath] | None:
    hops = len(paths[0].supernodes) - 1 if paths else 0

    # Iterative deepening on the partition size keeps the first hit minimal.
    for size_cap in range(1, target + 1):
        cap_best: list[AfPath] | None = None

        def bounded(start: int, chosen: list[AfPath], used: list[set], total: int) -> None:
            nonlocal cap_best
            if cap_best is not None or budget[0] <= 0:
                return
            budget[0] -= 1
            if total >= target:
                cap_best = list(chosen)
                return
            if len(chosen) == size_cap:
                return
            slots = size_cap - len(chosen)
            for j in range(start, len(paths)):
                if total + divs[j] * slots < target:
                    break
                edges = [paths[j].hop_edges(h + 1) for h in range(hops)]
                if any(e & used[h] for h, e in enumerate(edges)):
                    continue
                for h, e in enumerate(edges):
                    used[h] |= e
                chosen.append(paths[j])
                bounded(j + 1, chosen, used, total + divs[j])
                chosen.pop()
                for h, e in enumerate(edges):
                    used[h] -= e
                if cap_best is not None:
                    return

        bounded(0, [], [set() for _ in range(hops)], 0)
        if cap_best is not None:
            return cap_best
    return None


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def partition_to_json(dim: DimensionLike, p: Partition) -> str:
    """Serialize as layers -> supernodes -> antenna arrays, paths by reference."""
    dim = as_dimension(dim)
    _validate(dim, p)
    layer_nodes = [p.layer_supernodes(layer) for layer in range(len(dim))]
    index = {
        (layer, node): i for layer, nodes in enumerate(layer_nodes) for i, node in enumerate(nodes)
    }
    doc = {
        "dim": list(dim.counts),
        "layers": [[list(node.sorted_antennas()) for node in nodes] for nodes in layer_nodes],
        "paths": [
            [index[(layer, node)] for layer, node in enumerate(path.supernodes)]
            for path in p.paths
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def partition_from_json(text: str) -> tuple[Dimension, Partition]:
    doc = json.loads(text)
    dim = as_dimension(doc["dim"])
    layer_nodes = [
        [Supernode(layer, frozenset(ants)) for ants in nodes]
        for layer, nodes in enumerate(doc["layers"])
    ]
    paths = tuple(
        AfPath(tuple(layer_nodes[layer][ref] for layer, ref in enumerate(refs)))
        for refs in doc["paths"]
    )
    p = Partition(paths)
    _validate(dim, p)
    return dim, p
