"""
Independent oracles for the fast paths of ``relaydmt``.

Each function here is a second, slower derivation of a result the
package computes one way; the tests compare the two.  None of them is
part of the package:

* ``search_min_full_diversity_partition`` -- exhaustive search for the
  minimum full-diversity partition (checks
  ``partition.min_full_div_partition_2hop``);
* ``bottleneck_full_diversity`` -- the paper's bottleneck criterion for
  full diversity (checks ``partition.is_full_diversity``);
* ``split_values`` and ``cross_check`` -- the flow recursion cut at
  every interior layer (checks ``dmt_core.dmt_rp``);
* ``interval_boundaries`` -- the cost-interval edges (a second
  derivation of ``dmt_core.coeffs``);
* ``ml_decode`` -- exhaustive ML decoding of one reception with
  ``np.linalg`` (checks ``stbc._ml_decisions``);
* ``sample_channel`` -- the single realization a trial of a run sees.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from relaydmt.channel_sim import BLOCK_SIZE, ChannelRealization, EffectiveChannel, sample_block
from relaydmt.dmt_core import (
    Dimension,
    DimensionLike,
    _af_d_max,
    _cutset_d_max,
    as_dimension,
    dmt_rp,
)
from relaydmt.partition import AfPath, Partition, Supernode, is_independent
from relaydmt.recursion import _d, dmt_recursive
from relaydmt.stbc import Codebook

# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def _bottleneck_layers(dim: Dimension) -> list[int]:
    d_max = _cutset_d_max(dim)
    return [i for i in range(dim.hops) if dim[i] * dim[i + 1] == d_max]


def bottleneck_full_diversity(dim: DimensionLike, p: Partition) -> bool:
    """The paper's full-diversity criterion for an independent partition.

    True iff, for some bottleneck hop (i*, i*+1): the partition's
    supernodes cover both bottleneck layers, the partition size equals
    the supernode-count product ``K_{i*} * K_{i*+1}``, and every path
    is narrow enough elsewhere::

        min over other layers of n_{k,i}  +  1  >=  n_{k,i*} + n_{k,i*+1}
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


def hop_edges(path: AfPath, hop: int) -> set[tuple[int, int]]:
    """All antenna pairs ``path`` uses on hop ``hop`` (1-based)."""
    left = path.supernodes[hop - 1].antennas
    right = path.supernodes[hop].antennas
    return {(a, b) for a in left for b in right}


def _set_partitions(items: tuple[int, ...]) -> Iterable[list[frozenset[int]]]:
    """Every partition of ``items`` into non-empty blocks."""
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
                edges = [hop_edges(paths[j], h + 1) for h in range(hops)]
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
# Recursion and reduction
# ---------------------------------------------------------------------------


def split_values(dim: DimensionLike, k: int, layer: int) -> int:
    """Recursion value when the chain is cut at ``layer`` (1..N-1).

    Every interior cut must give the same minimum; disagreement at any
    layer falsifies the recursion.
    """
    dim = as_dimension(dim)
    if not 1 <= layer <= dim.hops - 1:
        raise ValueError("cut layer must be interior")
    left = dim.counts[: layer + 1]
    right = dim.counts[layer + 1 :]
    j_hi = min(left)
    best = None
    for j in range(k, j_hi + 1):
        tail_dim = (j,) + right
        cost = _d(tuple(sorted(left)), j) + _d(tuple(sorted(tail_dim)), k)
        best = cost if best is None else min(best, cost)
    assert best is not None
    return best


def cross_check(dim: DimensionLike) -> bool:
    """Full agreement between the recursion and the closed-form curve.

    Checks, for every integer ``k``:

    * recursion == closed-form vertex value;
    * cut invariance: every interior cut layer yields the same minimum;
    * shift identity, whenever all counts stay positive after shifting.
    """
    dim = as_dimension(dim)
    curve = dmt_rp(dim)
    for k in range(dim.n_min + 1):
        expected = curve.evaluate(k)
        if dmt_recursive(dim, k) != expected:
            return False
        for layer in range(1, dim.hops):
            if split_values(dim, k, layer) != expected:
                return False
        if all(n > k for n in dim.counts):
            shifted = tuple(n - k for n in dim.counts)
            if dmt_recursive(shifted, 0) != expected:
                return False
    return True


def interval_boundaries(dim: DimensionLike) -> tuple[int, ...]:
    """Cost-interval edges ``(p_0, ..., p_{N-1})``.

    ``p_0`` is the smallest count; ``p_k = m_0 + ... + m_k - k*m_{k+1}``
    on the sorted counts.  Within ``[p_k, p_{k-1}]`` the k-th sorted
    prefix attains the minimum in the disconnection-cost formula, which
    is what makes prefix-only reduction tests sound.
    """
    dim = as_dimension(dim)
    ordered = dim.ordered
    out = [ordered[0]]
    for k in range(1, dim.hops):
        out.append(sum(ordered[: k + 1]) - k * ordered[k + 1])
    return tuple(out)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def sample_channel(dim: DimensionLike, seed: int, index: int = 0) -> ChannelRealization:
    """The single realization that trial ``index`` of a run with this seed sees."""
    block, offset = divmod(index, BLOCK_SIZE)
    stacked = sample_block(dim, seed, block)
    return ChannelRealization(tuple(h[offset] for h in stacked.hops))


def ml_decode(
    received: Sequence[np.ndarray],
    effs: Sequence[EffectiveChannel],
    cb: Codebook,
    snr: float,
) -> int:
    """Exhaustive maximum-likelihood codeword index for one reception.

    Whitens each sub-channel by the Cholesky factor of its noise
    covariance and minimizes the summed squared distance; ties resolve
    to the lowest index.
    """
    words, _ = cb.codewords()
    n0 = effs[0].gain.shape[-1]
    amp = math.sqrt(snr / n0) * cb.energy_norm
    total = np.zeros(words.shape[0])
    for k in range(cb.k_sub):
        chol = np.linalg.cholesky(effs[k].noise_cov)
        y_w = np.linalg.solve(chol, received[k])
        g_w = np.linalg.solve(chol, effs[k].gain)
        cand = amp * (g_w @ words[:, k])  # (M, n_r, T)
        total += np.sum(np.abs(y_w[None] - cand) ** 2, axis=(-2, -1))
    return int(np.argmin(total))
