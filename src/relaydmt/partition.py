"""
Parallel partitions of a multihop channel: supernodes, AF paths,
independence and full-diversity checks, and flip-mode schedules.

A *supernode* is a frozenset of antenna indices in one layer: antennas
acting together.  An *AF path* is a tuple of supernodes, one per layer
from source to destination; a *parallel partition* is a set of such
paths, time-multiplexed into a parallel channel.  Two paths are
edge-disjoint when they never use the same antenna pair on any hop; a
partition of pairwise edge-disjoint paths is *independent*, and it has
full diversity when the per-path diversities add up to the cut-set
maximum.

The flip-and-forward schedule turns an independent partition into
``K' = prod K_i`` relaying modes (``K_i`` = supernodes in relay layer
``i``): in mode k, relay layer i negates the antennas of its
``f_i(k)``-th supernode, which de-correlates the alignment of adjacent
hops across modes and restores the cut-set diversity.

Cycling through one relay layer's single-antenna selections (a partition
that is not independent) has the diversity of decode-and-forward there.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterable

from .dmt_core import Dimension, DimensionLike, _af_d_max, _cutset_d_max, as_dimension

__all__ = [
    "Partition",
    "FlipSchedule",
    "is_independent",
    "is_full_diversity",
    "max_partition",
    "min_full_div_partition_2hop",
    "partition_to_json",
    "partition_from_json",
]


def _check_nodes(nodes: Iterable[frozenset[int]]) -> None:
    for node in nodes:
        if type(node) is not frozenset:  # paths are hashed, and a list or set is not hashable
            raise ValueError(f"a supernode is a frozenset of antenna indices, not a {type(node).__name__}")
        if not node:
            raise ValueError("supernode cannot be empty")
        # type(a) is int: a JSON true is a bool, and names no antenna.
        if any(a < 0 or type(a) is not int for a in node):
            raise ValueError("antenna indices are non-negative integers")


@dataclass(frozen=True)
class Partition:
    """A set of AF paths over a common supernode structure.

    Each path is a tuple of supernodes, one per layer from source to
    destination, and each supernode a non-empty frozenset of antenna
    indices in its layer.
    """

    paths: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("partition needs at least one path")
        if any(len(path) < 2 for path in self.paths):
            raise ValueError("a path spans at least two layers")
        _check_nodes(node for path in self.paths for node in path)

    @property
    def size(self) -> int:
        return len(self.paths)

    def layer_supernodes(self, layer: int) -> tuple[frozenset[int], ...]:
        """Distinct supernodes at a layer, ordered by smallest antenna index."""
        return tuple(sorted({path[layer] for path in self.paths}, key=sorted))

    def path_dims(self) -> tuple[tuple[int, ...], ...]:
        """Per-layer antenna counts of each path, its own sub-dimension."""
        return tuple(tuple(map(len, path)) for path in self.paths)


def _validate(dim: Dimension, p: Partition) -> None:
    for path in p.paths:
        if len(path) != len(dim):
            raise ValueError(f"path spans {len(path)} layers, channel has {len(dim)}")
        for layer, node in enumerate(path):
            if max(node) >= dim[layer]:
                raise ValueError(f"antenna index out of range in layer {layer}")
    for layer in range(len(dim)):
        nodes = {path[layer] for path in p.paths}
        for a, b in itertools.combinations(nodes, 2):
            if a & b:
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
        seen: set[tuple[frozenset[int], ...]] = set()
        for path in p.paths:
            ends = path[hop - 1 : hop + 1]
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
    return Partition(tuple(tuple(frozenset({a}) for a in chain) for chain in zip(*assign)))


def min_full_div_partition_2hop(n0: int, n1: int, n2: int) -> tuple[int, Partition]:
    """Smallest full-diversity partition of a two-hop channel.

    ``K = ceil(n1 / (|n0 - n2| + 1))``: the relay layer is split into K
    nearly equal supernodes and the source/destination stay whole.
    """
    n0, n1, n2 = as_dimension((n0, n1, n2)).counts
    k = math.ceil(n1 / (abs(n0 - n2) + 1))
    source, dest = frozenset(range(n0)), frozenset(range(n2))
    base, extra = divmod(n1, k)
    # Relay supernode idx holds base antennas, one more if idx < extra.
    starts = [idx * base + min(idx, extra) for idx in range(k + 1)]
    relays = [frozenset(range(a, b)) for a, b in itertools.pairwise(starts)]
    return k, Partition(tuple((source, relay, dest) for relay in relays))


@dataclass(frozen=True)
class FlipSchedule:
    """Flip-and-forward modes on a partition that fits the channel (else ``ValueError``).

    ``supernodes[i-1]`` is relay layer i's ``K_i`` supernodes, ``partition.layer_supernodes(i)``;
    there are ``mode_count = prod K_i`` modes.  ``mode_map[k-1]`` is the
    tuple ``(f_1(k), ..., f_{N-1}(k))`` of 1-based supernode choices, with
    ``f_i(k) = ceil((k-1) / (K_1 ... K_{i-1})) mod K_i + 1`` for every relay
    layer (the empty product of layer 1 is 1).  The k-th flip pattern of
    layer i negates the antennas of supernode ``f_i(k)`` unless
    ``f_i(k) == 1`` (mode 1 of every layer is the identity).  The mode
    tuples enumerate the full product set exactly once.

    A partition that fits but is not independent and full-diversity builds a
    schedule with a ``UserWarning``: its modes need not reach the cut-set diversity.
    """

    dim: Dimension
    partition: Partition

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", as_dimension(self.dim))
        _validate(self.dim, self.partition)
        if not (is_independent(self.dim, self.partition) and is_full_diversity(self.dim, self.partition)):
            # stacklevel 3 skips the dataclass __init__: the warning names the caller of FlipSchedule(...).
            warnings.warn(
                "partition is not an independent full-diversity partition; the flip schedule is "
                "still constructible but the cut-set diversity is not guaranteed", stacklevel=3)

    @functools.cached_property
    def supernodes(self) -> tuple[tuple[frozenset[int], ...], ...]:
        return tuple(self.partition.layer_supernodes(layer) for layer in range(1, self.dim.hops))

    @property
    def layer_counts(self) -> tuple[int, ...]:
        return tuple(len(nodes) for nodes in self.supernodes)

    @functools.cached_property
    def mode_map(self) -> tuple[tuple[int, ...], ...]:
        counts = self.layer_counts
        prefixes = [math.prod(counts[:i]) for i in range(len(counts))]
        # -((1 - k) // p) is ceil((k - 1) / p) in integers.
        return tuple(
            tuple(-((1 - k) // p) % n + 1 for p, n in zip(prefixes, counts))
            for k in range(1, math.prod(counts) + 1)
        )

    @property
    def mode_count(self) -> int:
        return len(self.mode_map)

    def mode_flips(self, mode: int) -> list[tuple[int, ...]]:
        """Diagonal +-1 patterns of relay layers 1..N-1 for 1-based ``mode``."""
        # A bool is an int to isinstance, but not a mode.
        if type(mode) is not int or not 1 <= mode <= self.mode_count:
            raise ValueError(f"mode must be an integer in 1..{self.mode_count}: {mode!r}")
        choices = zip(self.supernodes, self.mode_map[mode - 1])
        return [
            tuple(-1 if c != 1 and a in nodes[c - 1] else 1 for a in range(n))
            for n, (nodes, c) in zip(self.dim.counts[1:], choices)
        ]


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
        "layers": [[sorted(node) for node in nodes] for nodes in layer_nodes],
        "paths": [[index[(layer, node)] for layer, node in enumerate(path)] for path in p.paths],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def partition_from_json(text: str) -> tuple[Dimension, Partition]:
    """Inverse of :func:`partition_to_json`; raises ``ValueError`` on a malformed document."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not {"dim", "layers", "paths"} <= doc.keys():
        raise ValueError("a partition document is an object with 'dim', 'layers' and 'paths'")

    def node(layer: int, ref) -> frozenset[int]:
        count = len(layer_nodes[layer]) if layer < len(layer_nodes) else 0
        if not (type(ref) is int and 0 <= ref < count):
            raise ValueError(f"a path refers to supernode {ref!r} of layer {layer}, which has {count}")
        return layer_nodes[layer][ref]

    def supernode(ants) -> frozenset[int]:
        # frozenset would merge a repeat silently, and a JSON true equals 1.
        repeats = [a for a, n in collections.Counter(ants).items() if n > 1]
        if repeats:
            raise ValueError(f"supernode {json.dumps(ants)} names antenna {repeats[0]} twice")
        antennas = frozenset(ants)
        _check_nodes([antennas])  # also a supernode that no path refers to
        return antennas

    try:
        dim = as_dimension(tuple(doc["dim"]))  # a dim that is not an array is a wrong JSON type
        layer_nodes = [[supernode(ants) for ants in nodes] for nodes in doc["layers"]]
        paths = tuple(
            tuple(node(layer, ref) for layer, ref in enumerate(refs)) for refs in doc["paths"]
        )
    except TypeError as exc:  # a field of the wrong JSON type
        raise ValueError(f"malformed partition document: {exc}") from None
    p = Partition(paths)
    _validate(dim, p)
    return dim, p
