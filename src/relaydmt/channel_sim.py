"""
Monte-Carlo outage engine for multihop relaying schemes.

Each relaying scheme is reduced, per channel draw, to an effective
end-to-end linear channel ``y = G x + z`` with exactly accumulated
noise covariance ``K_z`` (the destination's own noise contributes an
identity, so ``K_z`` always has eigenvalues >= 1).  Outage compares the
Gaussian mutual information of that channel against the target rate.

Only :func:`af_effective` forms a gain and a noise covariance.  Every
other builder states only its hops: it transforms them without the SNR
(PF projects them, FF negates the columns after each flipping relay,
svd-align rotates them, parallel AF selects each path's sub-hops) and
runs the AF chain over the result.

Every scheme subclasses :class:`Scheme`: ``kind`` names it,
``describe()`` gives its manifest entry, ``effectives(real, snr)`` its
effective channel(s) (one per path or flip mode where there are
several), and ``outage(real, snr, rate)`` compares their average mutual
information with the rate.  DF overrides ``outage`` with the minimum
over its serial AF segments and has no effective channel.

Reproducibility: trials are drawn in fixed-size blocks from a
counter-based generator keyed by ``(seed, block_index)``, and outcomes
are accumulated as integer counts.  Results are therefore bit-identical
for a given seed regardless of how many workers process the blocks, and
trial ``t`` sees the same channel realization no matter how many trials
the run requests.  The outage runner here (one map per SNR point) and
the coded runner in ``stbc`` (one map per grid) share :func:`_map_blocks`.
"""

from __future__ import annotations

import functools
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import IO, Callable, Sequence

import numpy as np

from .dmt_core import DecodeSet, Dimension, DimensionLike, as_dimension
from .partition import FlipSchedule, Partition, _validate, min_full_div_partition_2hop

__all__ = [
    "BLOCK_SIZE",
    "ChannelRealization",
    "EffectiveChannel",
    "OutageEstimate",
    "AfScheme",
    "PfScheme",
    "DfScheme",
    "ParallelAfScheme",
    "FfScheme",
    "SvdAlignScheme",
    "Scheme",
    "sample_block",
    "af_effective",
    "pf_effective",
    "ff_effective",
    "df_outage",
    "mutual_info",
    "estimate_outage",
    "outage_curve",
    "estimate_slope",
    "write_outage_csv",
    "default_ff_scheme",
]

# Trials per RNG block.  Part of the algorithm, not a tuning knob: the
# per-block key (seed, block_index) is what makes counts independent of
# the worker count.
BLOCK_SIZE = 8192

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw (or a stacked batch of draws) of the hop matrices.

    ``hops[i]`` has shape ``(..., n_{i+1}, n_i)``; entries are i.i.d.
    circularly-symmetric complex Gaussian with unit variance; ``dim`` is
    read off these shapes.  Sampled hops keep the trial axis innermost in
    memory; C-ordered ones work, more slowly.
    """

    hops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("a channel needs at least one hop")
        for i, (prev, hop) in enumerate(zip(self.hops, self.hops[1:]), start=1):
            if hop.shape[-1] != prev.shape[-2]:
                raise ValueError(
                    f"hop {i + 1} takes {hop.shape[-1]} inputs; hop {i} gives {prev.shape[-2]}")

    @property
    def dim(self) -> Dimension:
        return Dimension((self.hops[0].shape[-1], *(h.shape[-2] for h in self.hops)))


@dataclass(frozen=True)
class EffectiveChannel:
    """End-to-end gain and exact noise covariance, trials innermost as in the hops."""

    gain: np.ndarray  # (..., n_out, n_in)
    noise_cov: np.ndarray  # (..., n_out, n_out), Hermitian, eigenvalues >= 1


@dataclass(frozen=True)
class OutageEstimate:
    """One Monte-Carlo point: outage (or error) count at an SNR.

    The estimate ``p_hat`` and its 95% interval ``ci95`` derive from the count.
    """

    snr_db: float
    rate_bpcu: float
    trials: int
    outage_count: int

    @property
    def p_hat(self) -> float:
        return self.outage_count / self.trials

    @property
    def ci95(self) -> tuple[float, float]:
        return _binomial_ci(self.outage_count, self.trials)


# --------------------------------------------------------------------------
# Scheme configurations
# --------------------------------------------------------------------------


class Scheme:
    """A relaying strategy; the module docstring describes the interface."""

    kind = ""

    def describe(self) -> dict:
        return {"kind": self.kind}

    def effectives(self, real: ChannelRealization, snr: float) -> list[EffectiveChannel]:
        raise TypeError(f"the {self.kind} scheme has no effective channel")

    def outage(self, real: ChannelRealization, snr: float, rate: float):
        """Boolean outage indicator(s) for one (stacked) realization."""
        effs = self.effectives(real, snr)
        return sum(mutual_info(e, snr, e.gain.shape[-1]) for e in effs) / len(effs) < rate


@dataclass(frozen=True)
class AfScheme(Scheme):
    kind = "af"

    def effectives(self, real, snr):
        return [af_effective(real, snr)]


@dataclass(frozen=True)
class PfScheme(Scheme):
    kind = "pf"

    def effectives(self, real, snr):
        return [pf_effective(real, snr)]


@dataclass(frozen=True)
class DfScheme(Scheme):
    decode: DecodeSet
    kind = "df"

    def describe(self) -> dict:
        return {"kind": self.kind, "decode": list(self.decode.indices)}

    def outage(self, real, snr, rate):
        return df_outage(real, self.decode, snr, rate)


@dataclass(frozen=True)
class ParallelAfScheme(Scheme):
    """AF on each path of ``partition``; one built for another channel raises ``ValueError``."""

    partition: Partition
    kind = "parallel-af"

    def describe(self) -> dict:
        return {"kind": self.kind, "path_dims": [list(w) for w in self.partition.path_dims()]}

    def effectives(self, real, snr):
        # Each path runs AF on its own antennas: a supernode of m antennas
        # transmits snr/m per antenna while its path is active.
        _validate(real.dim, self.partition)
        out = []
        for path in self.partition.paths:
            idx = [sorted(node) for node in path]
            hops = tuple(h[..., idx[i + 1], :][..., :, idx[i]] for i, h in enumerate(real.hops))
            out.append(af_effective(ChannelRealization(hops), snr))
        return out


@dataclass(frozen=True)
class FfScheme(Scheme):
    schedule: FlipSchedule
    kind = "ff"

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "layer_counts": list(self.schedule.layer_counts),
            "modes": self.schedule.mode_count,
        }

    def effectives(self, real, snr):
        return ff_effective(real, self.schedule, snr)


@dataclass(frozen=True)
class SvdAlignScheme(Scheme):
    kind = "svd-align"

    def effectives(self, real, snr):
        # CSI-aided alignment for symmetric channels: each relay rotates,
        # then amplifies as in AF; a unitary rotation keeps its noise white.
        rotated = [_matmul(r, h) for r, h in zip(_alignment_rotations(real), real.hops)]
        return [af_effective(ChannelRealization((*rotated, real.hops[-1])), snr)]


def default_ff_scheme(dim: DimensionLike) -> FfScheme:
    """Flip-and-forward over the minimum full-diversity two-hop partition."""
    dim = as_dimension(dim)
    if dim.hops != 2:
        raise ValueError("a default partition exists only for two-hop channels; supply one explicitly")
    _, part = min_full_div_partition_2hop(*dim.counts)
    return FfScheme(FlipSchedule(dim, part))


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------


def _check_key_word(name: str, word: int) -> None:
    # The one rule for the seed and the block index, the two words of a Philox
    # key: TypeError for a non-integer, ValueError for a bool or outside
    # 0..2**64-1.  A word outside them would alias one inside, and True would run as 1.
    if isinstance(word, bool) or not 0 <= operator.index(word) < 2**64:
        raise ValueError(f"{name} must be an integer in 0..2**64-1, got {word}")


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    _check_key_word("seed", seed)
    _check_key_word("block index", block_index)
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_hops(dim: Dimension, rng: np.random.Generator, count: int) -> ChannelRealization:
    """The hop matrices of ``count`` stacked trials, drawn first from ``rng``."""
    hops = tuple(_complex_normal(rng, (count, dim[i + 1], dim[i])) for i in range(dim.hops))
    return ChannelRealization(hops)


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Unit-variance complex Gaussians of ``shape``, first (trial) axis innermost."""
    # Drawn in C order of shape + (2,), real and imaginary parts adjacent,
    # so the stream is the same whatever the layout of the result.
    raw = rng.standard_normal(shape + (2,)).view(complex)[..., 0]
    return np.divide(raw, np.sqrt(2.0), out=np.empty(shape[::-1], dtype=complex).T)


def sample_block(dim: DimensionLike, seed: int, block_index: int) -> ChannelRealization:
    """Draw the ``BLOCK_SIZE`` stacked realizations of stream ``(seed, block_index)``."""
    return _draw_hops(as_dimension(dim), _block_rng(seed, block_index), BLOCK_SIZE)


def _zero_trial(dim: Dimension) -> ChannelRealization:
    """One all-zero trial of ``dim``, from no stream: a run tries its scheme on it first."""
    return ChannelRealization(tuple(np.zeros((1, b, a), complex) for a, b in zip(dim, dim[1:])))


# --------------------------------------------------------------------------
# Batched small-matrix kernels
# --------------------------------------------------------------------------
#
# Relay chains multiply and factor thousands of matrices of size 1 to 5
# per block.  numpy's batched ``@`` and ``np.linalg`` dispatch one
# BLAS/LAPACK call per matrix, which costs far more than the arithmetic
# at these sizes; looping over the short matrix axes with broadcast
# arithmetic over the whole batch does not.


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag if np.iscomplexobj(z) else z * z


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched ``a @ b`` as broadcast multiply-adds over the inner axis."""
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a batch of Hermitian positive-definite matrices.

    Only the lower triangle is read.  Raises ``np.linalg.LinAlgError``
    if any matrix has a non-finite entry or is not positive definite, so
    a failed factorization can never pass on NaN as a result.
    """
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    n = a.shape[-1]
    low = np.zeros_like(a, dtype=np.result_type(a, float))
    for j in range(n):
        pivot = a[..., j, j].real
        for k in range(j):
            pivot = pivot - _abs2(low[..., j, k])
        if not np.all(pivot > 0):
            raise np.linalg.LinAlgError("matrix is not positive definite")
        root = np.sqrt(pivot)
        low[..., j, j] = root
        if j + 1 < n:
            col = a[..., j + 1 :, j]
            for k in range(j):
                col = col - low[..., j + 1 :, k] * low[..., j, k, None].conj()
            low[..., j + 1 :, j] = col / root[..., None]
    return low


def _forward_sub(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched solution ``x`` of ``low @ x = b`` for lower-triangular ``low``."""
    shape = np.broadcast_shapes(low.shape[:-2], b.shape[:-2]) + b.shape[-2:]
    x = np.empty_like(b, dtype=np.result_type(low, b), shape=shape)
    for i in range(low.shape[-1]):
        acc = b[..., i, :]
        for k in range(i):
            acc = acc - low[..., i, k, None] * x[..., k, :]
        x[..., i, :] = acc / low[..., i, i, None]
    return x


def _logdet(a: np.ndarray) -> np.ndarray:
    """Natural log-determinants of Hermitian positive-definite matrices."""
    diag = np.diagonal(_cholesky(a), axis1=-2, axis2=-1).real
    return 2.0 * np.sum(np.log(diag), axis=-1)


# --------------------------------------------------------------------------
# Effective channels
# --------------------------------------------------------------------------


def _hermitian_square(m: np.ndarray) -> np.ndarray:
    """``m @ m^H`` for a batch of matrices."""
    return _matmul(m, m.conj().swapaxes(-1, -2))


def af_effective(real: ChannelRealization, snr: float) -> EffectiveChannel:
    """Amplify-and-forward: gain and noise covariance of ``H_N R_{N-1} ... R_1 H_1``.

    Relay ``i`` is ``R_i = diag(s_i)``: it scales each received component
    to unit average power (signal power ``snr/n_{i-1}`` per transmit
    antenna plus unit noise) and retransmits at ``snr/n_i`` per antenna.
    Noise terms are ``M_j = H_N R_{N-1} ... H_{j+1} R_j`` plus the
    identity for the destination's own noise.
    """
    d, hops = real.dim, real.hops
    scales = []
    for i in range(1, d.hops):
        power = (snr / d[i - 1]) * np.sum(np.abs(hops[i - 1]) ** 2, axis=-1) + 1.0
        scales.append(np.sqrt((snr / d[i]) / power))
    gain = hops[0]
    for hop, scale in zip(hops[1:], scales):
        gain = _matmul(hop, scale[..., :, None] * gain)
    n_out = hops[-1].shape[-2]
    noise_cov = np.zeros_like(gain, dtype=complex, shape=gain.shape[:-2] + (n_out, n_out))
    noise_cov += np.eye(n_out)
    m = None
    for j in range(d.hops - 1, 0, -1):
        applied = hops[j] if m is None else _matmul(m, hops[j])
        m = applied * scales[j - 1][..., None, :]
        noise_cov += _hermitian_square(m)
    return EffectiveChannel(gain=gain, noise_cov=noise_cov)


def ff_effective(
    real: ChannelRealization, sched: FlipSchedule, snr: float
) -> list[EffectiveChannel]:
    """Per-mode effective channels of the flip-and-forward scheme.

    Mode k is AF over the hops with the columns of the hop after each
    relay negated where that relay flips; a +-1 flip has unit modulus,
    so every AF gain is unchanged.  The scheme's mutual information is
    the average over modes.
    """
    if sched.dim != real.dim:
        raise ValueError("schedule was built for a different dimension")
    out = []
    for mode in range(1, sched.mode_count + 1):
        flips = sched.mode_flips(mode)
        hops = [h * np.asarray(f, dtype=float) for h, f in zip(real.hops[1:], flips)]
        out.append(af_effective(ChannelRealization((real.hops[0], *hops)), snr))
    return out


def pf_effective(real: ChannelRealization, snr: float) -> EffectiveChannel:
    """Project-and-forward: AF over the chain of projected hops.

    A relay with more antennas than the incoming rank projects onto the
    incoming column space; its projected hop is the ``R`` of a QR
    factorization, whose orthonormal ``Q`` keeps the noise white.
    Square or thin relays keep the hop.  The projected chain has
    dimension ``(n_0, rank_1, ..., rank_{N-1}, n_N)``: each relay
    forwards on its first ``rank_i`` antennas.
    """
    rank, hops = real.hops[0].shape[-1], []
    for hop in real.hops[:-1]:
        hop = hop[..., :, :rank]
        if rank == 1 < hop.shape[-2]:
            # LAPACK's R of one column, -copysign(|h|, Re h_0), with no QR per matrix.
            # For a zero tail LAPACK keeps a real h_0 as it is: a sign the rate does not see.
            hop = -np.copysign(np.linalg.norm(hop, axis=-2, keepdims=True), hop[..., :1, :].real)
        hops.append(np.linalg.qr(hop, mode="r") if hop.shape[-2] > rank else hop)
        rank = hops[-1].shape[-2]
    hops.append(real.hops[-1][..., :, :rank])
    return af_effective(ChannelRealization(tuple(hops)), snr)


def _alignment_rotations(real: ChannelRealization) -> list[np.ndarray]:
    """Per-relay unitary rotations matching adjacent hops' singular directions.

    Relay ``i`` maps the incoming hop's left singular basis onto the
    outgoing hop's right singular basis, pairing singular values in
    magnitude order, so the rotated chain is unitarily equivalent to
    the elementwise product of the hops' singular-value profiles.
    Requires a symmetric ``(n, ..., n)`` dimension (square hops).
    """
    dim = real.dim
    n = dim[0]
    if any(c != n for c in dim.counts):
        raise ValueError("alignment requires a symmetric (n,...,n) dimension")
    svds = [np.linalg.svd(h) for h in real.hops]
    rotations = []
    for i in range(1, dim.hops):
        u_in = svds[i - 1][0]
        vh_out = svds[i][2]
        rotation = _matmul(vh_out.conj().swapaxes(-1, -2), u_in.conj().swapaxes(-1, -2))
        # np.linalg.svd returns C order; put the trial axis back innermost.
        rotations.append(np.ascontiguousarray(rotation.T).T)
    return rotations


def mutual_info(eff: EffectiveChannel, snr: float, n0: int):
    """Gaussian mutual information, bits per channel use.

    ``log2 det(I + (snr/n0) K_z^{-1} G G^H)`` with isotropic input,
    evaluated as ``logdet(K_z + (snr/n0) G G^H) - logdet(K_z)``, with
    both log-determinants read off batched Cholesky factors.  Raises
    ``np.linalg.LinAlgError`` on a covariance that is not positive
    definite or not finite.
    """
    signal = _hermitian_square(eff.gain)
    nats = _logdet(eff.noise_cov + (snr / n0) * signal) - _logdet(eff.noise_cov)
    return nats / _LN2


def df_outage(real: ChannelRealization, decode: DecodeSet, snr: float, rate: float):
    """Outage of a serial partition: any AF segment below the rate fails.

    Raises ``ValueError`` if ``decode`` does not end at the destination layer.
    """
    out, start = None, 0
    for counts in decode.segments(real.dim):
        seg = ChannelRealization(real.hops[start : start + len(counts) - 1])
        start += len(counts) - 1
        bad = mutual_info(af_effective(seg, snr), snr, counts[0]) < rate
        out = bad if out is None else (out | bad)
    return out


# --------------------------------------------------------------------------
# Estimation
# --------------------------------------------------------------------------


# Trials per kernel tile of an outage block: a rule of the shape, not a
# knob.  Every kernel step is elementwise along the trial axis, so no count
# depends on it.  2048-trial tiles keep each temporary in cache for channels
# with two or more outputs; single-output channels spend their time in
# per-step Python overhead, and stay whole.
def _tile_trials(dim: Dimension) -> int:
    return 2048 if dim[-1] >= 2 else BLOCK_SIZE


def _trial_slice(real: ChannelRealization, start: int, stop: int) -> ChannelRealization:
    return ChannelRealization(tuple(h[start:stop] for h in real.hops))


def _outage_block(dim, scheme, rate, snr, seed, block, live) -> int:
    """Outages among the first ``live`` trials of one block (drawn in full), a tile at a time."""
    real, tile = sample_block(dim, seed, block), _tile_trials(dim)
    tiles = (_trial_slice(real, a, min(a + tile, live)) for a in range(0, live, tile))
    return sum(int(np.count_nonzero(scheme.outage(t, snr, rate))) for t in tiles)


# The pool of the run in progress in this context, if it has one.  A run's
# points all map their blocks over it; it closes when the run's scope exits.
_open_pool: ContextVar[ProcessPoolExecutor | None] = ContextVar("_open_pool", default=None)


@contextmanager
def _block_pool(workers: int, trials: int, block_size: int, seed: int):
    """Scope of a run's pool: yields its block count, its width (``workers`` capped there) and pool.

    Before any pool opens, refuses a ``trials`` or ``workers`` that is not a positive
    integer (a bool included) with ``ValueError``, and a bad ``seed`` as :func:`_check_key_word`
    does.  Opens no pool at width 1 (the pool is then ``None``) or inside an open scope.
    """
    _check_key_word("seed", seed)
    for what, count in (("trial", trials), ("worker", workers)):
        if isinstance(count, bool) or not hasattr(count, "__index__") or operator.index(count) < 1:
            raise ValueError(f"need at least one {what}, as an integer; got {count!r}")
    n_blocks = math.ceil(trials / block_size)
    width, pool = min(workers, n_blocks), _open_pool.get()
    if width == 1 or pool is not None:
        yield n_blocks, width, pool
        return
    with ProcessPoolExecutor(max_workers=width) as pool:
        token = _open_pool.set(pool)
        try:
            yield n_blocks, width, pool
        finally:
            _open_pool.reset(token)


def _map_blocks(
    count_block: Callable, params: tuple, trials: int, block_size: int, workers: int, seed: int
) -> int | np.ndarray:
    """Sum of ``count_block(*params, seed, block, live)`` over the blocks of a run.

    ``live`` is the number of the block's trials that the run counts (all but
    the last block count in full); a block's count is an int, or a NumPy integer
    vector of one count per point.  The blocks go to the pool of the run's
    :func:`_block_pool` scope (opened here if there is none; it checks ``trials``,
    ``workers`` and ``seed`` before any block) in contiguous chunks of
    ceil(blocks / width): one task, and one pickle of ``params``, per worker.  A
    block's count depends only on its own draw, and an integer sum not on its
    order, so no count depends on the chunks.  ``count_block`` must be module-level.
    """
    with _block_pool(workers, trials, block_size, seed) as (n_blocks, width, pool):
        task = functools.partial(count_block, *params, seed)
        lives = [min(trials - b * block_size, block_size) for b in range(n_blocks)]
        if pool is None:
            return sum(map(task, range(n_blocks), lives))
        return sum(pool.map(task, range(n_blocks), lives, chunksize=math.ceil(n_blocks / width)))


def _binomial_ci(count: int, trials: int) -> tuple[float, float]:
    p = count / trials
    # Continuity floor keeps the normal approximation usable at the edges.
    p_var = p if 0 < count < trials else (count + 0.5) / (trials + 1.0)
    se = math.sqrt(p_var * (1.0 - p_var) / trials)
    return (max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se))


def estimate_outage(
    dim: DimensionLike,
    scheme: Scheme,
    rate: float,
    snr_db: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> OutageEstimate:
    """Monte-Carlo outage probability at one SNR point.

    Deterministic for a given seed, independent of ``workers``; refuses a rate that is not finite.
    """
    if not math.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate}")
    dim = as_dimension(dim)
    snr = 10.0 ** (snr_db / 10.0)
    count = _map_blocks(_outage_block, (dim, scheme, rate, snr), trials, BLOCK_SIZE, workers, seed)
    return OutageEstimate(float(snr_db), float(rate), trials, count)


def outage_curve(
    dim: DimensionLike,
    scheme: Scheme,
    rate: float,
    snr_grid_db: Sequence[float],
    trials: int,
    seed: int,
    workers: int = 1,
    rate_policy: str = "fixed",
) -> list[OutageEstimate]:
    """One outage point per grid SNR; every point reuses the same trial streams and pool.

    With ``rate_policy="fixed"`` the target rate is constant (the slope
    then estimates the maximum diversity).  With ``"multiplexing"`` the
    per-point rate is ``rate * log2(SNR)``, tracing the tradeoff at
    multiplexing gain ``rate``; far more trials are needed there for
    comparable accuracy.  An empty grid gives ``[]`` at once.  Otherwise, before any
    pool opens, every point's rate, the seed and the counts are checked, and the scheme
    runs on one all-zero trial of ``dim``, where a misfit raises its own error.
    """
    if rate_policy == "fixed":
        rates = [rate] * len(snr_grid_db)
    elif rate_policy == "multiplexing":
        rates = [rate * (s / 10.0) * math.log2(10.0) for s in snr_grid_db]
    else:
        raise ValueError(f"unknown rate policy {rate_policy!r}")
    if not rates:
        return []
    if not all(map(math.isfinite, rates)):
        raise ValueError(f"rate must be finite at every point; {rate_policy} rate {rate} is not")
    scheme.outage(_zero_trial(as_dimension(dim)), 1.0, 0.0)
    with _block_pool(workers, trials, BLOCK_SIZE, seed):
        return [
            estimate_outage(dim, scheme, rr, s, trials, seed, workers=workers)
            for rr, s in zip(rates, snr_grid_db)
        ]


MIN_EVENTS_FOR_SLOPE = 20


def estimate_slope(points: Sequence[OutageEstimate]) -> float:
    """Diversity estimate: decay rate of outage with SNR on a log-log scale.

    Weighted least squares of ``log10 p`` against ``log10 SNR``; the
    weight of a point is the inverse variance of its log-probability
    estimate; points with fewer than ``MIN_EVENTS_FOR_SLOPE`` events (or
    empty/full counts) are dropped, and 3 must remain, at two or more SNRs.
    """
    usable = [
        p
        for p in points
        if 0 < p.outage_count < p.trials and p.outage_count >= MIN_EVENTS_FOR_SLOPE
    ]
    if len(usable) < 3 or len({p.snr_db for p in usable}) < 2:
        raise ValueError("need at least 3 points with usable outage counts, at two or more SNRs")
    x = np.array([p.snr_db / 10.0 for p in usable])
    y = np.array([math.log10(p.p_hat) for p in usable])
    w = np.array([p.trials * p.p_hat / (1.0 - p.p_hat) for p in usable])
    xm = np.sum(w * x) / np.sum(w)
    ym = np.sum(w * y) / np.sum(w)
    slope = np.sum(w * (x - xm) * (y - ym)) / np.sum(w * (x - xm) ** 2)
    return float(-slope)


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------

CSV_HEADER = "snr_db,rate,trials,outages,p_hat,ci_lo,ci_hi"


def write_outage_csv(points: Sequence[OutageEstimate], out: IO[str]) -> None:
    """Fixed-format CSV; identical counts give identical bytes."""
    out.write(CSV_HEADER + "\n")
    for p in points:
        out.write(
            f"{p.snr_db:.6g},{p.rate_bpcu:.6g},{p.trials},{p.outage_count},"
            f"{p.p_hat:.10g},{p.ci95[0]:.10g},{p.ci95[1]:.10g}\n"
        )
