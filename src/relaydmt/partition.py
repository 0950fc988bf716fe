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

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

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


def is_full_diversity(dim: DimensionLike, p: Partition) -> bool:
    """Whether an independent partition reaches the cut-set diversity.

    True iff its per-path AF diversities sum to the cut-set ``d_max``.
    """
    dim = as_dimension(dim)
    if not is_independent(dim, p):
        raise ValueError("partition is not independent")
    return sum(_af_d_max(w) for w in p.path_dims()) == _cutset_d_max(dim)


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

    ``supernodes[i-1]`` holds relay layer i's ``K_i`` ordered supernodes;
    there are ``mode_count = prod K_i`` modes.  ``mode_map[k-1]`` is the
    tuple ``(f_1(k), ..., f_{N-1}(k))`` of 1-based supernode choices, with
    ``f_1(k) = ((k-1) mod K_1) + 1`` and, for deeper layers,
    ``f_i(k) = ceil((k-1) / (K_1 ... K_{i-1})) mod K_i + 1``.  The k-th
    flip pattern of layer i negates the antennas of supernode ``f_i(k)``
    unless ``f_i(k) == 1`` (mode 1 of every layer is the identity).  The
    mode tuples enumerate the full product set exactly once.
    """

    dim: Dimension
    supernodes: tuple[tuple[Supernode, ...], ...]  # per relay layer, ordered

    @property
    def layer_counts(self) -> tuple[int, ...]:
        return tuple(len(nodes) for nodes in self.supernodes)

    @functools.cached_property
    def mode_map(self) -> tuple[tuple[int, ...], ...]:
        counts, mode_map = self.layer_counts, []
        for k in range(1, math.prod(counts) + 1):
            choices = [(k - 1) % counts[0] + 1] if counts else []
            prefix = counts[0] if counts else 1
            for i in range(1, len(counts)):
                choices.append((-((1 - k) // prefix)) % counts[i] + 1)
                prefix *= counts[i]
            mode_map.append(tuple(choices))
        return tuple(mode_map)

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
    """The :class:`FlipSchedule` of a partition's relay supernodes; warns unless full-diversity."""
    dim = as_dimension(dim)
    if not (is_independent(dim, p) and is_full_diversity(dim, p)):
        warnings.warn(
            "partition is not an independent full-diversity partition; the "
            "flip schedule is still constructible but the cut-set diversity "
            "is not guaranteed",
            stacklevel=2,
        )
    return FlipSchedule(dim, tuple(p.layer_supernodes(layer) for layer in range(1, dim.hops)))


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
    """Inverse of :func:`partition_to_json`; raises ``ValueError`` on a malformed document."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not {"dim", "layers", "paths"} <= doc.keys():
        raise ValueError("a partition document is an object with 'dim', 'layers' and 'paths'")

    def node(layer: int, ref) -> Supernode:
        count = len(layer_nodes[layer]) if layer < len(layer_nodes) else 0
        if not (isinstance(ref, int) and 0 <= ref < count):
            raise ValueError(f"a path refers to supernode {ref!r} of layer {layer}, which has {count}")
        return layer_nodes[layer][ref]

    try:
        dim = as_dimension(doc["dim"])
        layer_nodes = [
            [Supernode(layer, frozenset(ants)) for ants in nodes]
            for layer, nodes in enumerate(doc["layers"])
        ]
        paths = tuple(
            AfPath(tuple(node(layer, ref) for layer, ref in enumerate(refs)))
            for refs in doc["paths"]
        )
    except TypeError as exc:  # a field of the wrong JSON type
        raise ValueError(f"malformed partition document: {exc}") from None
    p = Partition(paths)
    _validate(dim, p)
    return dim, p
