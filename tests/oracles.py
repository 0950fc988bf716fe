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
* ``dmt_rayleigh`` and ``dmt_symmetric`` -- the point-to-point Rayleigh
  curve and the paper's symmetric-chain closed form (check
  ``dmt_core.dmt_rp`` on one hop and on all-``n`` chains, and the per-hop
  curves of ``dmt_core.cutset_bound``);
* ``split_values`` and ``cross_check`` -- the flow recursion cut at
  every interior layer (checks ``dmt_core.dmt_rp``);
* ``reduces_to`` -- the paper's reduction criterion (checks the channel
  order of ``reduction.analyze``);
* ``practical_vertical_reduction`` -- each relay layer capped at a second
  ``analyze`` call's ``n_bar``, one layer at a time (checks
  ``analyze``'s ``practical_vertical_form``);
* ``interval_boundaries`` -- the cost-interval edges (a second derivation
  of ``rp_costs``, the disconnection costs ``c_i = d(i - 1) - d(i)`` read
  off ``dmt_core.dmt_rp``);
* ``ml_decode`` -- exhaustive ML decoding of one reception with
  ``np.linalg`` (checks ``stbc._ml_decisions``);
* ``word_table_concat`` -- the ML metric's codeword table assembled from
  concatenated complex pieces (checks the in-place ``stbc._word_table``);
* ``symbol_tuples_dense``, ``codewords_dense`` and ``nvd_minimum_dense``
  -- the whole enumeration built at once as a raveled ``ij`` meshgrid
  (checks the streamed ``stbc._symbol_tuples``, ``Codebook.codewords``
  and ``stbc.verify_nvd``);
* ``det_products`` and ``nvd_products_dense`` -- product determinants
  taken in float from the encoded codewords (checks the closed forms in
  ``stbc._CODES``, each applied to a whole tuple's two halves);
* ``sample_channel`` -- the single realization a trial of a run sees;
* ``draw_block`` -- a stack of ``count`` trials drawn from a block's
  stream the way ``sample_block`` draws a whole block;
* ``one_hop_outage``, ``af_1n1_outage`` and ``df_111_outage`` -- exact
  outage probabilities of one hop, of AF over ``(1,1,1)`` (PF over
  ``(1,n,1)`` is AF with a Gamma(n, 1) first hop) and of DF at both
  layers of ``(1,1,1)`` (check the Monte-Carlo counts of
  ``channel_sim.outage_curve``);
* ``binomial_acceptance`` -- the exact two-sided acceptance region of a
  binomial count.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from relaydmt.channel_sim import (
    BLOCK_SIZE,
    ChannelRealization,
    EffectiveChannel,
    _block_rng,
    _draw_hops,
    _hermitian_square,
    sample_block,
)
from relaydmt.dmt_core import (
    Dimension,
    DimensionLike,
    DmtCurve,
    _af_d_max,
    _cutset_d_max,
    as_dimension,
    dmt_rp,
)
from relaydmt.partition import Partition, is_independent
from relaydmt.recursion import _d, dmt_recursive
from relaydmt.reduction import analyze
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
        if sum(map(len, left_nodes)) != dim[istar]:
            continue
        if sum(map(len, right_nodes)) != dim[istar + 1]:
            continue
        if p.size != len(left_nodes) * len(right_nodes):
            continue
        others = [i for i in range(len(dim)) if i not in (istar, istar + 1)]
        narrow = (min(w[i] for i in others) + 1 >= w[istar] + w[istar + 1] for w in p.path_dims())
        if not others or all(narrow):
            return True
    return False


def hop_edges(path: tuple[frozenset[int], ...], hop: int) -> set[tuple[int, int]]:
    """All antenna pairs ``path`` uses on hop ``hop`` (1-based)."""
    return {(a, b) for a in path[hop - 1] for b in path[hop]}


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
    if max(dim.counts) > 4 or dim.hops > 3:
        raise ValueError("exhaustive search is limited to <= 4 antennas per layer, <= 3 hops")
    d_max = _cutset_d_max(dim)
    structures = [list(_set_partitions(tuple(range(n)))) for n in dim.counts]
    budget = [node_budget]

    best: tuple[int, Partition] | None = None
    for combo in itertools.product(*structures):
        layer_nodes = [sorted(nodes, key=min) for nodes in combo]
        all_paths = list(itertools.product(*layer_nodes))
        path_div = [_af_d_max(tuple(map(len, path))) for path in all_paths]
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
    paths: list[tuple[frozenset[int], ...]], divs: list[int], target: int, budget: list[int]
) -> list[tuple[frozenset[int], ...]] | None:
    hops = len(paths[0]) - 1 if paths else 0

    # Iterative deepening on the partition size keeps the first hit minimal.
    for size_cap in range(1, target + 1):
        cap_best: list[tuple[frozenset[int], ...]] | None = None

        def bounded(start: int, chosen: list, used: list[set], total: int) -> None:
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
# Closed forms, recursion and reduction
# ---------------------------------------------------------------------------


def dmt_rayleigh(nt: int, nr: int) -> DmtCurve:
    """Point-to-point Rayleigh MIMO tradeoff (Zheng and Tse): ``d(k) = (nt - k)(nr - k)``."""
    return DmtCurve([(k, (nt - k) * (nr - k)) for k in range(min(nt, nr) + 1)])


def dmt_symmetric(n: int, n_hops: int) -> DmtCurve:
    """The paper's closed form for the AF tradeoff of the all-``n`` chain of ``n_hops`` hops.

    With ``a = floor((n - k) / N)`` and ``b = (n - k) mod N``::

        d(k) = (n-k)(n+1-k)/2 + a((a-1)N + 2b)/2

    For ``N >= n`` this collapses to ``(n-k)(n+1-k)/2``: past that point
    extra hops no longer degrade the diversity.
    """
    points = []
    for k in range(n + 1):
        a, b = divmod(n - k, n_hops)
        d = Fraction((n - k) * (n + 1 - k), 2) + Fraction(a * ((a - 1) * n_hops + 2 * b), 2)
        points.append((k, d))
    return DmtCurve(points)


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


def reduces_to(dim: DimensionLike, k: int) -> bool:
    """The paper's criterion: the channel reduces to its first ``k`` sorted layers.

    ``k (m_{k+1} + 1) >= m_0 + ... + m_k`` on the sorted counts, with
    ``m_{N+1}`` infinite, so ``k = N`` always holds.
    """
    o = as_dimension(dim).ordered
    return k == len(o) - 1 or k * (o[k + 1] + 1) >= sum(o[: k + 1])


def practical_vertical_reduction(dim: DimensionLike) -> Dimension:
    """Cap each relay layer at ``n_bar`` antennas, keeping layer positions.

    Source and destination are untouched.
    """
    dim = as_dimension(dim)
    n_bar = analyze(dim).n_bar
    counts = list(dim.counts)
    for i in range(1, dim.hops):
        counts[i] = min(counts[i], n_bar)
    return Dimension(tuple(counts))


def rp_costs(dim: DimensionLike) -> tuple[Fraction, ...]:
    """The disconnection costs ``c_i = d(i - 1) - d(i)`` of ``dmt_rp``, ``i = 1 .. n_min``."""
    curve = dmt_rp(dim)
    return tuple(curve.evaluate(i - 1) - curve.evaluate(i) for i in range(1, min(dim) + 1))


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


def draw_block(dim: DimensionLike, seed: int, block_index: int, count: int) -> ChannelRealization:
    """``count`` stacked realizations from stream ``(seed, block_index)``, each hop drawn whole.

    Below ``BLOCK_SIZE`` only hop 0 is a prefix of the block ``sample_block`` draws.
    """
    return _draw_hops(as_dimension(dim), _block_rng(seed, block_index), count)


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


def word_table_concat(words: np.ndarray) -> np.ndarray:
    """``stbc._word_table`` built as complex ``[P^T | -2 X^*]`` rows, then split.

    Per sub-channel the codewords' features are concatenated, the
    sub-channels side by side, then real and negated imaginary parts,
    and the result transposed to ``(2 D, M)``.
    """
    cols = []
    for k in range(words.shape[1]):
        x = words[:, k]  # (M, n_t, T)
        gram_t = _hermitian_square(x).swapaxes(-1, -2)
        cols.append(np.concatenate([gram_t, -2.0 * x.conj()], axis=-1))
    c = np.concatenate([col.reshape(col.shape[0], -1) for col in cols], axis=-1)
    return np.concatenate([c.real, -c.imag], axis=-1).T.copy()


def symbol_tuples_dense(points: Sequence[complex], k: int) -> np.ndarray:
    """Every tuple of ``points^k`` at once, ``(len(points)**k, k)``, in raveled meshgrid order."""
    grids = np.meshgrid(*([np.asarray(points, dtype=complex)] * k), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def codewords_dense(cb: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """All codewords and symbol tuples of ``cb`` from the whole meshgrid."""
    symbols = symbol_tuples_dense(cb.alphabet.points, cb.num_symbols)
    return cb.encode(symbols), symbols


def det_products(words: np.ndarray) -> np.ndarray:
    """``prod_k det(D_k D_k^H) = prod_k |ad - bc|^2`` over ``(..., K, 2, 2)`` words."""
    if words.shape[-2:] != (2, 2):
        raise ValueError(f"closed-form determinants need 2x2 codewords, got {words.shape[-2:]}")
    det = words[..., 0, 0] * words[..., 1, 1] - words[..., 0, 1] * words[..., 1, 0]
    return np.prod(det.real**2 + det.imag**2, axis=-1)


def nvd_products_dense(
    cb: Codebook, difference_points: Sequence[complex]
) -> tuple[np.ndarray, np.ndarray]:
    """Every difference tuple, zero included, and its float product determinant.

    Encodes the tuples 65,536 at a time (at least once, so an empty
    alphabet gives empty arrays), which bounds the codeword memory, and
    takes :func:`det_products` of the codewords, so the products carry the
    encoder's rounding.
    """
    tuples = symbol_tuples_dense(difference_points, cb.num_symbols)
    starts = range(0, max(len(tuples), 1), 65536)
    prods = [det_products(cb.encode(tuples[a : a + 65536])) for a in starts]
    return tuples, np.concatenate(prods)


def nvd_minimum_dense(
    cb: Codebook, difference_points: Sequence[complex]
) -> tuple[float, tuple[complex, ...]]:
    """Minimum product determinant and its first attaining nonzero tuple.

    Scores every tuple by :func:`nvd_products_dense` rounded to the
    nearest integer, which is exact for Gaussian-integer differences,
    and returns the first nonzero tuple in enumeration order that
    attains the minimum, or ``(inf, ())`` if no tuple is nonzero.
    """
    tuples, prods = nvd_products_dense(cb, difference_points)
    nonzero = np.any(tuples != 0, axis=-1)
    if not nonzero.any():
        return math.inf, ()
    exact = np.where(nonzero, np.rint(prods), np.inf)
    i = int(np.argmin(exact))
    return float(exact[i]), tuple(tuples[i])


# ---------------------------------------------------------------------------
# Exact outage probabilities
# ---------------------------------------------------------------------------
#
# Every hop entry is CN(0, 1), so |h|^2 is Exp(1) and a sum of n of them
# Gamma(n, 1).  A rate R is in outage when the received SNR is below
# t = 2^R - 1.


def one_hop_outage(n_t: int, n_r: int, snr: float, rate: float) -> float:
    """Outage of one ``n_t x n_r`` hop with a single antenna on one side.

    The mutual information is ``log2(1 + (snr / n_t) |h|^2)`` with
    ``|h|^2`` Gamma(n_t n_r, 1), so the outage is the Erlang CDF at
    ``x = n_t t / snr``: ``1 - e^-x sum_{j < n_t n_r} x^j / j!``.
    """
    if min(n_t, n_r) != 1:
        raise ValueError("the Erlang form needs one antenna on one side")
    x = n_t * (2.0**rate - 1.0) / snr
    return -math.expm1(-x) - math.exp(-x) * sum(x**j / math.factorial(j) for j in range(1, n_t * n_r))


def af_1n1_outage(n: int, snr: float, rate: float) -> float:
    """Outage of AF over ``(1,1,1)`` whose first-hop gain ``a`` is Gamma(n, 1).

    With ``b`` the Exp(1) second-hop gain, the received SNR is
    ``snr^2 a b / (snr a + snr b + 1)``.  It is below ``t`` for every ``b``
    when ``snr a <= t``, and otherwise for ``b < t (snr a + 1) / (snr u)``
    with ``u = snr a - t``.  So the outage is
    ``1 - E[exp(-t (snr a + 1) / (snr u)); a > t / snr]``, one integral over
    ``a = t / snr + e^s``, taken by the trapezoid rule in ``s``.  The
    integrand decays double-exponentially at both ends, so the rule
    converges geometrically in the step.  ``n = 1`` is AF (1,1,1); PF over
    ``(1,n,1)`` projects the first hop onto its norm, so it is AF with
    ``a = |h_1|^2``, Gamma(n, 1).
    """
    t = 2.0**rate - 1.0
    s, step = np.linspace(-60.0, 5.0, 6501, retstep=True)
    u = np.exp(s)  # a - t / snr
    a = t / snr + u
    density = a ** (n - 1) * np.exp(-a) / math.factorial(n - 1)
    kept = np.exp(-t * (snr * a + 1.0) / (snr * snr * u))
    return 1.0 - float(np.sum(density * kept * u) * step)


def df_111_outage(snr: float, rate: float) -> float:
    """Outage of DF at both layers of ``(1,1,1)``: either Exp(1) hop below ``t / snr``."""
    return -math.expm1(-2.0 * (2.0**rate - 1.0) / snr)


def binomial_acceptance(trials: int, p: float, tail: float) -> tuple[int, int]:
    """Exact two-sided acceptance region ``[lo, hi]`` of a Binomial(trials, p) count.

    ``lo`` is the largest count with ``P(X < lo) <= tail / 2`` and ``hi`` the
    smallest with ``P(X > hi) <= tail / 2``, from the pmf evaluated with
    ``math.lgamma`` over a window of 12 standard deviations and 12 more
    counts on each side of the mean (the mass outside it is far below any
    tail used here, and the window's mass is checked to be 1).
    """
    mean = trials * p
    width = math.ceil(12.0 * math.sqrt(mean * (1.0 - p)) + 12.0)
    ks = range(max(0, math.floor(mean) - width), min(trials, math.ceil(mean) + width) + 1)
    log_norm = math.lgamma(trials + 1)
    pmf = [
        math.exp(log_norm - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                 + k * math.log(p) + (trials - k) * math.log1p(-p))
        for k in ks
    ]
    if abs(math.fsum(pmf) - 1.0) > 1e-9:
        raise ValueError("the window misses binomial mass")
    # Both running sums only grow, so each bisection finds how many counts at that
    # edge of the window keep their tail mass within tail / 2.
    lo = ks[0] + bisect.bisect_right(list(itertools.accumulate(pmf)), tail / 2)
    hi = ks[-1] - bisect.bisect_right(list(itertools.accumulate(reversed(pmf))), tail / 2)
    return lo, hi
