"""
Small algebraic space-time block codes and coded error-rate simulation.

Two constructions over QAM symbol alphabets:

* the 2x2 orthogonal design (one information symbol per channel use);
* the 2x2 golden-ratio lattice code and its two-sub-channel parallel
  sibling, built on ``Q(i, sqrt 5)`` with the conjugate mode obtained by
  negating the eighth root of unity that plays the non-norm role.

Both are symbol-linear: the difference of two codewords is the codeword
of the difference symbols, so the non-vanishing-determinant (NVD) check
enumerates difference-symbol tuples rather than codeword pairs.  The
defining property is that the minimum product determinant stays at the
same positive value as the constellation grows.

Maximum-likelihood decoding whitens each sub-channel by a Cholesky
factor of its noise covariance and minimizes the summed Frobenius
distance exhaustively over the codebook.  The coded simulation decides
a whole block at once: it expands the distance, drops the part that
does not depend on the codeword, and scores every codeword of every
trial with one real matrix product against a precomputed codeword table.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .channel_sim import (
    EffectiveChannel,
    OutageEstimate,
    Scheme,
    _block_pool,
    _block_rng,
    _cholesky,
    _complex_normal,
    _draw_hops,
    _estimate,
    _first_trials,
    _forward_sub,
    _hermitian_square,
    _map_blocks,
    _matmul,
)

# Unused here: the benchmark's traced run wraps these names in this module.
from .channel_sim import ProcessPoolExecutor, af_effective, ff_effective  # noqa: F401
from .dmt_core import DimensionLike, as_dimension

__all__ = [
    "QamAlphabet",
    "Codebook",
    "alamouti",
    "golden",
    "verify_nvd",
    "simulate_ser",
    "codebook_to_json",
    "NVD_EVALUATION_CAP",
    "CODED_BLOCK_SIZE",
]

NVD_EVALUATION_CAP = 10**6
CODED_BLOCK_SIZE = 2048

_GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
_GOLDEN_CONJ = (1.0 - math.sqrt(5.0)) / 2.0
_ALPHA = 1.0 + 1j - 1j * _GOLDEN_RATIO
_ALPHA_CONJ = 1.0 + 1j - 1j * _GOLDEN_CONJ
_ZETA8 = np.exp(1j * np.pi / 4.0)


@dataclass(frozen=True)
class QamAlphabet:
    """Square QAM constellation on unnormalized Gaussian integers.

    ``points`` are the raw lattice points ({+-1 +-1j} for order 4,
    {+-1, +-3}^2 for order 16); a codebook rescales its own codewords to
    the transmit power (:attr:`Codebook.energy_norm`).
    """

    order: int
    points: tuple[complex, ...]

    @classmethod
    def qam(cls, order: int) -> "QamAlphabet":
        reals = {4: (-1, 1), 16: (-3, -1, 1, 3)}.get(order)
        if reals is None:
            raise ValueError("only 4-QAM and 16-QAM are supported")
        return cls(order=order, points=tuple(complex(a, b) for a in reals for b in reals))

    def difference_points(self, max_coord: int | None = None) -> tuple[complex, ...]:
        """Pairwise differences of the constellation, optionally boxed.

        ``max_coord`` keeps only differences whose real and imaginary
        parts are at most that large in magnitude (used to fit large
        constellations under the exhaustive-search evaluation cap).
        """
        reals = sorted({int(p.real) for p in self.points})
        diffs = sorted({a - b for a in reals for b in reals})
        if max_coord is not None:
            diffs = [d for d in diffs if abs(d) <= max_coord]
        return tuple(complex(a, b) for a in diffs for b in diffs)


@dataclass(frozen=True)
class Codebook:
    """A finite symbol-linear 2x2 space-time code over a QAM alphabet.

    ``name`` (a key of ``_CODES``) fixes the encoder, ``k_sub`` and ``num_symbols``.
    ``encode`` maps symbol tuples to codeword matrix tuples of shape
    ``(..., k_sub, n_t, time_span)``.  ``energy_norm`` scales codewords
    so the average transmitted power per antenna per channel use is
    ``1/n_t`` of the total (matching the isotropic-input convention of
    the outage engine).
    """

    name: str
    alphabet: QamAlphabet
    n_t: ClassVar[int] = 2
    time_span: ClassVar[int] = 2

    @property
    def k_sub(self) -> int:
        return _CODES[self.name][1]

    @property
    def num_symbols(self) -> int:
        return _CODES[self.name][2]

    # Information symbols per end-to-end channel use (all k_sub * time_span uses).
    @property
    def rate_syms_per_use(self) -> float:
        return self.num_symbols / (self.k_sub * self.time_span)

    @functools.cached_property
    def energy_norm(self) -> float:
        words, _ = self.codewords()
        mean_power = float(np.mean(np.sum(np.abs(words) ** 2, axis=(-2, -1))))
        return math.sqrt(self.n_t * self.time_span / mean_power)

    def encode(self, symbols: np.ndarray) -> np.ndarray:
        """Unnormalized codewords from raw symbols ``(..., num_symbols)``."""
        return _CODES[self.name][0](symbols)

    def codewords(self) -> tuple[np.ndarray, np.ndarray]:
        """All codewords and their symbol tuples, enumerated in a fixed order."""
        grids = np.meshgrid(*([np.array(self.alphabet.points)] * self.num_symbols), indexing="ij")
        symbols = np.stack([g.ravel() for g in grids], axis=-1)
        return self.encode(symbols), symbols

    def describe(self) -> dict:
        return {
            "code": self.name,
            "k_sub": self.k_sub,
            "n_t": self.n_t,
            "time_span": self.time_span,
            "qam": self.alphabet.order,
        }


def _encode_alamouti(s: np.ndarray) -> np.ndarray:
    s1, s2 = s[..., 0], s[..., 1]
    x = np.empty(s.shape[:-1] + (1, 2, 2), dtype=complex)
    x[..., 0, 0, 0] = s1
    x[..., 0, 0, 1] = -np.conj(s2)
    x[..., 0, 1, 0] = s2
    x[..., 0, 1, 1] = np.conj(s1)
    return x


def _encode_golden_modes(s: np.ndarray, gammas: Sequence[complex]) -> np.ndarray:
    a, b, c, d = (s[..., i] for i in range(4))
    x = np.empty(s.shape[:-1] + (len(gammas), 2, 2), dtype=complex)
    for k, gamma in enumerate(gammas):
        x[..., k, 0, 0] = _ALPHA * (a + b * _GOLDEN_RATIO)
        x[..., k, 0, 1] = _ALPHA * (c + d * _GOLDEN_RATIO)
        x[..., k, 1, 0] = gamma * _ALPHA_CONJ * (c + d * _GOLDEN_CONJ)
        x[..., k, 1, 1] = _ALPHA_CONJ * (a + b * _GOLDEN_CONJ)
    return x


# Each construction: its encoder, sub-channel count and symbols per codeword.
_CODES = {
    "alamouti": (_encode_alamouti, 1, 2),
    "golden": (functools.partial(_encode_golden_modes, gammas=(1j,)), 1, 4),
    "parallel-golden": (functools.partial(_encode_golden_modes, gammas=(_ZETA8, -_ZETA8)), 2, 4),
}


def alamouti(q: QamAlphabet) -> Codebook:
    """2x2 orthogonal design: one symbol per channel use, K = 1."""
    return Codebook("alamouti", q)


def golden(q: QamAlphabet, m: int = 0) -> Codebook:
    """Golden-ratio lattice code: full-rate 2x2 (m=0) or its K=2 parallel form (m=1).

    Codewords follow::

        [ alpha (a + b th)          alpha (c + d th)      ]
        [ gamma alpha' (c + d th')  alpha' (a + b th')    ]

    with ``th`` the golden ratio, ``th'`` its conjugate, and
    ``alpha = 1 + i - i*th``.  For ``m = 0`` the twist is ``gamma = i``;
    for ``m = 1`` the two sub-channel codewords use the eighth root of
    unity and its negation, which keeps the product of the two
    determinants a Gaussian integer and hence bounded away from zero.
    """
    if m not in (0, 1):
        raise ValueError("only m = 0 and m = 1 are supported")
    return Codebook("golden" if m == 0 else "parallel-golden", q)


# --------------------------------------------------------------------------
# Non-vanishing determinant search
# --------------------------------------------------------------------------


def verify_nvd(
    cb: Codebook, difference_points: Sequence[complex]
) -> tuple[float, tuple[complex, ...]]:
    """Exhaustive minimum of the product determinant over difference tuples.

    Evaluates ``prod_k |det(D_k D_k^H)|`` for every nonzero tuple of
    difference symbols (codewords are symbol-linear, so these are
    exactly the codeword differences), in closed form for 2x2 ``D_k``.
    Returns the minimum and an attaining tuple.  Raises if the
    enumeration would exceed ``NVD_EVALUATION_CAP`` tuples (checked
    before any work) rather than silently sampling, or if the codewords
    are not 2x2.  Raw lattice symbols are used; no energy normalization
    is applied.
    """
    n_tuples = len(difference_points) ** cb.num_symbols
    if n_tuples > NVD_EVALUATION_CAP:
        raise ValueError(
            f"{n_tuples} difference tuples exceed the exhaustive cap of "
            f"{NVD_EVALUATION_CAP}; restrict the difference alphabet"
        )
    pts = np.asarray(difference_points, dtype=complex)
    grids = np.meshgrid(*([pts] * cb.num_symbols), indexing="ij")
    tuples = np.stack([g.ravel() for g in grids], axis=-1)
    tuples = tuples[np.any(tuples != 0, axis=-1)]
    best = math.inf
    best_tuple: tuple[complex, ...] = ()
    for start in range(0, tuples.shape[0], 65536):
        chunk = tuples[start : start + 65536]
        prod = _det_products(cb.encode(chunk))
        i = int(np.argmin(prod))
        if prod[i] < best:
            best = float(prod[i])
            best_tuple = tuple(chunk[i])
    return best, best_tuple


def _det_products(words: np.ndarray) -> np.ndarray:
    """``prod_k det(D_k D_k^H) = prod_k |ad - bc|^2`` over ``(..., K, 2, 2)`` words."""
    if words.shape[-2:] != (2, 2):
        raise ValueError(f"closed-form determinants need 2x2 codewords, got {words.shape[-2:]}")
    det = words[..., 0, 0] * words[..., 1, 1] - words[..., 0, 1] * words[..., 1, 0]
    return np.prod(det.real**2 + det.imag**2, axis=-1)


# --------------------------------------------------------------------------
# Decoding and coded simulation
# --------------------------------------------------------------------------


def _word_table(words: np.ndarray, amp: float) -> np.ndarray:
    """Real codeword table of the expanded ML metric, ``(2 D, M)``.

    Per sub-channel ``k`` the whitened distance to codeword ``X`` is,
    up to a term that does not depend on ``X``,
    ``amp^2 tr(Q X X^H) - 2 amp Re<C, X>`` with ``Q = G^H G`` and
    ``C = G^H Y`` (whitened ``G`` and ``Y``).  Laying ``[Q | C]`` of
    every sub-channel out as one complex feature row ``f`` of length
    ``D`` makes the metric ``Re(f . c)`` for a complex column ``c`` per
    codeword, which is the real product ``[Re f, Im f] @ [Re c; -Im c]``.
    """
    cols = []
    for k in range(words.shape[1]):
        x = words[:, k]  # (M, n_t, T)
        # tr(Q P) = sum_ij Q_ij P_ji, so Q_ij pairs with P^T.
        gram_t = _hermitian_square(x).swapaxes(-1, -2)
        cols.append(np.concatenate([amp * amp * gram_t, -2.0 * amp * x.conj()], axis=-1))
    c = np.concatenate([col.reshape(col.shape[0], -1) for col in cols], axis=-1)
    return np.concatenate([c.real, -c.imag], axis=-1).T.copy()


def _ml_decisions(
    received: Sequence[np.ndarray],
    effs: Sequence[EffectiveChannel],
    chols: Sequence[np.ndarray],
    table: np.ndarray,
) -> np.ndarray:
    """Maximum-likelihood codeword index of every trial in a batch.

    ``received[k]`` is the ``(B, n_r, T)`` reception of sub-channel
    ``k`` through ``effs[k]``, and ``chols[k]`` the Cholesky factor of
    its noise covariance; ``table`` comes from :func:`_word_table` at
    the run's signal amplitude.  Ties resolve to the lowest index.
    Raises ``np.linalg.LinAlgError`` if any score is not finite, even a loser's.
    """
    features = []
    for y, eff, chol in zip(received, effs, chols):
        n_t = eff.gain.shape[-1]
        white = _forward_sub(chol, np.concatenate([eff.gain, y], axis=-1))
        # [Q | C] = G_w^H [G_w | Y_w]
        prods = _matmul(white[..., :n_t].conj().swapaxes(-1, -2), white)
        # The reshape copies trials-innermost products into C order, so the
        # GEMM operand below is C-contiguous and BLAS scores stay bit-identical.
        features.append(prods.reshape(prods.shape[0], -1))
    f = np.concatenate(features, axis=-1)
    scores = np.concatenate([f.real, f.imag], axis=-1) @ table
    # min and max propagate NaN and need no temporary as large as the scores.
    if not (np.isfinite(scores.min()) and np.isfinite(scores.max())):
        raise np.linalg.LinAlgError("codeword scores are not finite")
    return np.argmin(scores, axis=1)


def _ser_block(dim, scheme, cb, snr, amp, seed, words, table, block, live) -> int:
    """Codeword errors among the first ``live`` trials of one block.

    Draw order inside the block stream is fixed: hop variates (through
    the shared hop sampler), then the transmitted codeword indices,
    then per-sub-channel noise.  Every draw covers the whole block, so
    the stream does not depend on ``live``; only the live trials are
    decoded, by :func:`_ml_decisions` with the factors that colour the noise.
    """
    rng = _block_rng(seed, block)
    real = _first_trials(_draw_hops(dim, rng, CODED_BLOCK_SIZE), live)
    sent = rng.integers(0, words.shape[0], size=CODED_BLOCK_SIZE)[:live]
    effs = scheme.effectives(real, snr)
    if len(effs) != cb.k_sub:
        raise ValueError(f"code has {cb.k_sub} sub-channels but the scheme offers {len(effs)}")
    received, chols = [], []
    for k, eff in enumerate(effs):
        n_r = eff.gain.shape[-2]
        white = _complex_normal(rng, (CODED_BLOCK_SIZE, n_r, cb.time_span))[:live]
        # Taken along the last axis of the transpose, so trials stay innermost.
        signal = amp * _matmul(eff.gain, np.take(words[:, k].T, sent, axis=-1).T)
        chols.append(_cholesky(eff.noise_cov))
        received.append(signal + _matmul(chols[-1], white))
    decided = _ml_decisions(received, effs, chols, table)
    return int(np.count_nonzero(decided != sent))


def simulate_ser(
    dim: DimensionLike,
    scheme: Scheme,
    cb: Codebook,
    snr_grid_db: Sequence[float],
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[OutageEstimate]:
    """Codeword error rate per SNR point under exhaustive ML decoding.

    The code's transmit antennas must match the channel input and its
    sub-channel count the scheme's effective channels (one for AF, one
    per flip mode for FF); DF has no effective channel and raises
    ``TypeError``.  Deterministic for a given seed, independent of the
    worker count; every point shares the run's one worker pool.
    """
    dim = as_dimension(dim)
    if cb.n_t != dim[0]:
        raise ValueError(
            f"code {cb.name!r} sends from {cb.n_t} antennas but the channel input has {dim[0]}"
        )
    words, _ = cb.codewords()
    bits_per_use = cb.rate_syms_per_use * math.log2(cb.alphabet.order)
    points = []
    with _block_pool(workers, math.ceil(trials / CODED_BLOCK_SIZE)):
        for snr_db in snr_grid_db:
            snr = 10.0 ** (snr_db / 10.0)
            amp = math.sqrt(snr / dim[0]) * cb.energy_norm
            params = (dim, scheme, cb, snr, amp, seed, words, _word_table(words, amp))
            errors = _map_blocks(_ser_block, params, trials, CODED_BLOCK_SIZE, workers)
            points.append(_estimate(snr_db, bits_per_use, trials, errors))
    return points


def codebook_to_json(cb: Codebook) -> str:
    """Reproducibility export: construction name, alphabet, and basis data."""
    doc = {
        "code": cb.name,
        "k_sub": cb.k_sub,
        "n_t": cb.n_t,
        "time_span": cb.time_span,
        "num_symbols": cb.num_symbols,
        "qam_order": cb.alphabet.order,
        "qam_points": [[int(p.real), int(p.imag)] for p in cb.alphabet.points],
        "energy_norm": cb.energy_norm,
        "rate_syms_per_use": cb.rate_syms_per_use,
        "basis": "codeword = encoder(name) applied to integer QAM symbols; "
        "lattice constants: golden ratio, alpha = 1 + i - i*theta, "
        "twist gamma in {i} or {zeta8, -zeta8}",
    }
    return json.dumps(doc, indent=2, sort_keys=True)
