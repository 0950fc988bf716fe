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
distance exhaustively over the codebook.  The coded simulation draws each
block once and decides it at every SNR point through the scaled whitened
channel: it expands the distance, drops the part that does not depend on
the codeword, and scores every codeword with real matrix products against
the run's one codeword table, in row batches of at most 4 MB of scores.
The exact NVD search (closed-form product determinants) evaluates each
half of a difference tuple once and combines the halves in fixed
row blocks that do not change it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .channel_sim import (
    OutageEstimate,
    Scheme,
    _abs2,
    _block_rng,
    _cholesky,
    _complex_normal,
    _draw_hops,
    _forward_sub,
    _hermitian_square,
    _map_blocks,
    _matmul,
    _trial_slice,
    _zero_trial,
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
    "CODED_BLOCK_SIZE",
]

CODED_BLOCK_SIZE = 2048
_SCORE_ENTRIES = 2**19  # float64 scores per ML row batch: 4 MB
_NVD_CHUNK = 4096  # difference tuples per NVD search block: whole rows, at least one
_NVD_EVALUATION_CAP = 10**6  # difference tuples one NVD search may enumerate

_GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
_GOLDEN_CONJ = (1.0 - math.sqrt(5.0)) / 2.0
_ALPHA = 1.0 + 1j - 1j * _GOLDEN_RATIO
_ALPHA_CONJ = 1.0 + 1j - 1j * _GOLDEN_CONJ
_ZETA8 = np.exp(1j * np.pi / 4.0)


@dataclass(frozen=True)
class QamAlphabet:
    """Square QAM constellation on unnormalized Gaussian integers, given by its order, 4 or 16.

    ``points`` are the raw lattice points of that order ({+-1 +-1j} for 4,
    {+-1, +-3}^2 for 16); a codebook rescales its own codewords to the
    transmit power (:attr:`Codebook.energy_norm`).
    """

    order: int

    def __post_init__(self) -> None:
        # A bool or a float is not an order, though True == 1 and 4.0 == 4.
        if type(self.order) is not int or self.order not in (4, 16):
            raise ValueError("only 4-QAM and 16-QAM are supported")

    @property
    def points(self) -> tuple[complex, ...]:
        m = math.isqrt(self.order)
        return tuple(complex(a, b) for a in range(1 - m, m, 2) for b in range(1 - m, m, 2))

    @classmethod
    def qam(cls, order: int) -> "QamAlphabet":
        return cls(order)

    def difference_points(self, max_coord: int | None = None) -> tuple[complex, ...]:
        """Pairwise differences of the constellation, optionally boxed.

        ``max_coord`` keeps only differences whose real and imaginary
        parts are at most that large in magnitude (used to fit large
        constellations under the exhaustive-search evaluation cap).
        """
        m = math.isqrt(self.order)
        diffs = [d for d in range(2 - 2 * m, 2 * m - 1, 2) if max_coord is None or abs(d) <= max_coord]
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

    def __post_init__(self) -> None:
        if self.name not in _CODES:
            raise ValueError(f"unknown code {self.name!r}; known codes: {', '.join(_CODES)}")

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
        k = self.num_symbols
        symbols = _symbol_tuples(self.alphabet.points, k, 0, self.alphabet.order**k)
        return self.encode(symbols), symbols

    def describe(self) -> dict:
        return {
            "code": self.name,
            "k_sub": self.k_sub,
            "n_t": self.n_t,
            "time_span": self.time_span,
            "qam": self.alphabet.order,
        }


def _symbol_tuples(points: Sequence[complex], k: int, start: int, stop: int) -> np.ndarray:
    """Tuples ``start..stop-1`` of ``points^k``, mixed-radix, the first symbol most significant."""
    digits = np.arange(start, stop)[:, None] // len(points) ** np.arange(k - 1, -1, -1)
    return np.asarray(points, dtype=complex)[digits % len(points)]


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


def _golden_norm(h: np.ndarray) -> np.ndarray:
    """``N(x, y) = (x + y th)(x + y th') = x^2 + xy - y^2`` of the half-tuple ``x, y = h``."""
    x, y = h[..., 0], h[..., 1]
    return x * x + x * y - y * y


# Each construction: its encoder, sub-channel count, symbols per codeword and the
# product determinant prod_k |det D_k|^2 of a difference tuple in closed form, split as
# combine(half(s[..., :h]), half(s[..., h:])) over its two half-tuples (h = symbols / 2).
# The golden determinant is alpha alpha' (N(a, b) - gamma N(c, d)), since th + th' = 1
# and th th' = -1, with alpha alpha' = 2 + i; the parallel modes +-zeta8 multiply to
# N(a, b)^2 - i N(c, d)^2, since zeta8^2 = i.
_CODES = {
    "alamouti": (_encode_alamouti, 1, 2, lambda h: _abs2(h[..., 0]), lambda u, v: (u + v) ** 2),
    "golden": (
        functools.partial(_encode_golden_modes, gammas=(1j,)), 1, 4,
        _golden_norm, lambda u, v: 5.0 * _abs2(u - 1j * v),
    ),
    "parallel-golden": (
        functools.partial(_encode_golden_modes, gammas=(_ZETA8, -_ZETA8)), 2, 4,
        lambda h: _golden_norm(h) ** 2, lambda u, v: 25.0 * _abs2(u - 1j * v),
    ),
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
    if type(m) is not int or m not in (0, 1):  # a bool is not an m
        raise ValueError(f"only m = 0 and m = 1 are supported: {m!r}")
    return Codebook("golden" if m == 0 else "parallel-golden", q)


# --------------------------------------------------------------------------
# Non-vanishing determinant search
# --------------------------------------------------------------------------


def verify_nvd(
    cb: Codebook, difference_points: Sequence[complex]
) -> tuple[float, tuple[complex, ...]]:
    """Exhaustive minimum of the product determinant over difference tuples.

    Evaluates ``prod_k det(D_k D_k^H)`` by the code's closed form in the symbols over every
    nonzero tuple of difference symbols (codewords are symbol-linear, so these are exactly the
    codeword differences).  The form reads one value per half-tuple, so each of the
    ``n**(k/2)`` half-tuples is evaluated once, and the search combines
    ``max(1, _NVD_CHUNK // n**(k/2))`` first halves with every second half at a time, in
    enumeration order; only a pair of two all-zero halves is skipped.  On Gaussian-integer
    differences every product is an integer below 2**53, so the search is exact and does not
    depend on the block size.  Returns the minimum and the first tuple, in enumeration order,
    that attains it.  Raises if the enumeration would exceed ``_NVD_EVALUATION_CAP`` (10**6)
    tuples (checked before any work) rather than silently sampling.  Raw lattice symbols are
    used; no energy normalization is applied.
    """
    k = cb.num_symbols
    n_tuples = len(difference_points) ** k
    if n_tuples > _NVD_EVALUATION_CAP:
        raise ValueError(
            f"{n_tuples} difference tuples exceed the exhaustive cap of "
            f"{_NVD_EVALUATION_CAP}; restrict the difference alphabet"
        )
    *_, half, combine = _CODES[cb.name]
    halves = _symbol_tuples(difference_points, k // 2, 0, len(difference_points) ** (k // 2))
    values, zero = half(halves), np.all(halves == 0, axis=-1)
    rows = max(1, _NVD_CHUNK // max(1, len(values)))
    best, best_index = math.inf, 0
    for start in range(0, len(values), rows):
        prod = combine(values[start : start + rows, None], values)
        # A pair of all-zero halves is the zero tuple: it scores inf and never attains the minimum.
        prod[np.ix_(zero[start : start + rows], zero)] = np.inf
        i = int(np.argmin(prod))
        if prod.flat[i] < best:
            best, best_index = float(prod.flat[i]), start * len(values) + i
    if best == math.inf:
        return best, ()
    return best, tuple(_symbol_tuples(difference_points, k, best_index, best_index + 1)[0])


# --------------------------------------------------------------------------
# Decoding and coded simulation
# --------------------------------------------------------------------------


def _word_table(words: np.ndarray) -> np.ndarray:
    """Real codeword table of the expanded ML metric, ``(2 D, M)``.

    Per sub-channel ``k`` the whitened distance to codeword ``X`` is,
    up to a term that does not depend on ``X``, ``tr(Q X X^H) - 2 Re<C, X>``
    with ``Q = G^H G`` and ``C = G^H Y`` (``G`` the scaled whitened gain,
    which carries the signal amplitude, so the table does not).  Laying
    ``[Q | C]`` of every sub-channel out as one complex feature row ``f``
    of length ``D`` makes the metric ``Re(f . c)`` for a complex column
    ``c`` per codeword, which is the real product ``[Re f, Im f] @ [Re c; -Im c]``.
    """
    m, k_sub, n_t, span = words.shape
    # Row (part, k, i, j), filled one complex piece at a time.
    table = np.empty((2, k_sub, n_t, n_t + span, m))
    for k in range(k_sub):
        x = words[:, k]  # (M, n_t, T)
        # tr(Q P) = sum_ij Q_ij P_ji, so Q_ij pairs with P^T.
        _put_parts(table[:, k, :, :n_t], _hermitian_square(x).swapaxes(-1, -2))
        _put_parts(table[:, k, :, n_t:], -2.0 * x.conj())
    return table.reshape(-1, m)


def _put_parts(out: np.ndarray, piece: np.ndarray) -> None:
    """Real and negated imaginary parts of ``piece`` into ``out[0]``, ``out[1]``, codewords last."""
    out[0] = np.moveaxis(piece.real, 0, -1)
    out[1] = np.moveaxis(-piece.imag, 0, -1)


def _ml_decisions(
    gains: Sequence[np.ndarray], received: Sequence[np.ndarray], table: np.ndarray
) -> np.ndarray:
    """Maximum-likelihood codeword index of every trial in a block.

    ``gains[k]`` is the ``(B, n_r, n_t)`` scaled whitened gain ``amp L^-1 G`` of sub-channel
    ``k``, ``received[k]`` its ``(B, n_r, T)`` reception ``gains[k] X + W`` in white noise,
    and ``table`` the :func:`_word_table` of the ``M`` codewords.  Rows are scored
    ``max(1, _SCORE_ENTRIES // M)`` at a time; ties resolve to the lowest index.
    Raises ``np.linalg.LinAlgError`` if any score is not finite, even a loser's.
    """
    features = []
    for g, y in zip(gains, received):
        # [Q | C] = G^H [G | Y]
        prods = _matmul(g.conj().swapaxes(-1, -2), np.concatenate([g, y], axis=-1))
        # The reshape copies trials-innermost products into C order, so the
        # GEMM operand below is C-contiguous and BLAS scores stay bit-identical.
        features.append(prods.reshape(prods.shape[0], -1))
    f = np.concatenate(features, axis=-1)
    f = np.concatenate([f.real, f.imag], axis=-1)
    rows = max(1, _SCORE_ENTRIES // table.shape[1])
    decided = np.empty(len(f), dtype=np.intp)
    for start in range(0, len(f), rows):
        scores = f[start : start + rows] @ table
        # min and max propagate NaN and need no temporary as large as the scores.
        if not (np.isfinite(scores.min()) and np.isfinite(scores.max())):
            raise np.linalg.LinAlgError("codeword scores are not finite")
        decided[start : start + rows] = np.argmin(scores, axis=1)
    return decided


def _ser_block(dim, scheme, cb, snrs, widths, words, table, seed, block, live) -> np.ndarray:
    """Codeword errors among the first ``live`` trials of one block, one count per SNR.

    The block stream draws the hops (through the shared hop sampler), the sent
    codeword indices, then white noise ``W`` shaped by each of the run's ``widths``
    (effective-channel outputs), in that order and each for the whole block, so it
    depends on neither ``live`` nor the SNRs.  At each SNR the live trials receive
    ``G X + W`` through ``G = amp L^-1 G_eff`` (``L L^H`` the noise covariance).
    """
    rng = _block_rng(seed, block)
    real = _trial_slice(_draw_hops(dim, rng, CODED_BLOCK_SIZE), 0, live)
    sent = rng.integers(0, words.shape[0], size=CODED_BLOCK_SIZE)[:live]
    noise = [_complex_normal(rng, (CODED_BLOCK_SIZE, w, cb.time_span))[:live] for w in widths]
    # Taken along the last axis of the transpose, so trials stay innermost.
    sent_words = [np.take(words[:, k].T, sent, axis=-1).T for k in range(cb.k_sub)]
    errors = np.zeros(len(snrs), dtype=np.int64)
    for i, snr in enumerate(snrs):
        effs = scheme.effectives(real, snr)
        amp = math.sqrt(snr / dim[0]) * cb.energy_norm
        gains = [amp * _forward_sub(_cholesky(e.noise_cov), e.gain) for e in effs]
        received = [_matmul(g, x) + w for g, x, w in zip(gains, sent_words, noise)]
        errors[i] = np.count_nonzero(_ml_decisions(gains, received, table) != sent)
    return errors


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

    The code's transmit antennas must match the channel input and its sub-channel
    count the scheme's effective channels (one for AF, one per flip mode for FF),
    built once on an all-zero trial of ``dim`` before any pool opens: a misfit
    raises its own error there, and DF (no effective channel) ``TypeError``.
    Deterministic for a given seed, independent of the worker count and of the
    grid: each block is drawn once and decided at every point, in one map over
    the run's blocks (none for an empty grid).
    """
    dim = as_dimension(dim)
    if cb.n_t != dim[0]:
        raise ValueError(
            f"code {cb.name!r} sends from {cb.n_t} antennas but the channel input has {dim[0]}"
        )
    if not snr_grid_db:
        return []
    widths = [e.gain.shape[-2] for e in scheme.effectives(_zero_trial(dim), 1.0)]
    if len(widths) != cb.k_sub:
        raise ValueError(f"code has {cb.k_sub} sub-channels but the scheme offers {len(widths)}")
    words, _ = cb.codewords()
    snrs = [10.0 ** (snr_db / 10.0) for snr_db in snr_grid_db]
    params = (dim, scheme, cb, snrs, widths, words, _word_table(words))
    errors = _map_blocks(_ser_block, params, trials, CODED_BLOCK_SIZE, workers, seed)
    bits = cb.rate_syms_per_use * math.log2(cb.alphabet.order)
    return [OutageEstimate(float(db), bits, trials, int(e)) for db, e in zip(snr_grid_db, errors)]


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
