import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    codewords_dense,
    det_products,
    draw_block,
    ml_decode,
    nvd_minimum_dense,
    nvd_products_dense,
    sample_channel,
    symbol_tuples_dense,
    word_table_concat,
)

from relaydmt import stbc
from relaydmt.channel_sim import (
    AfScheme,
    DfScheme,
    EffectiveChannel,
    ParallelAfScheme,
    af_effective,
    default_ff_scheme,
    ff_effective,
)
from relaydmt.dmt_core import DecodeSet
from relaydmt.partition import Partition
from relaydmt.stbc import (
    CODED_BLOCK_SIZE,
    Codebook,
    QamAlphabet,
    alamouti,
    codebook_to_json,
    golden,
    simulate_ser,
    verify_nvd,
)


@pytest.fixture(scope="module")
def q4():
    return QamAlphabet.qam(4)


@pytest.fixture(scope="module")
def q16():
    return QamAlphabet.qam(16)


def traced_peak_mb(fn, *args):
    """``fn(*args)`` and the peak of its traced allocations, in MB."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestAlphabet:
    def test_points(self, q4, q16):
        assert len(q4.points) == 4 and len(q16.points) == 16
        assert (q4.order, q16.order) == (4, 16)
        assert sum(q4.points) == 0 and sum(q16.points) == 0
        assert len(set(q4.points)) == 4

    def test_energy_norms(self, q4, q16):
        assert math.isclose(alamouti(q4).energy_norm, 1 / math.sqrt(2))
        assert math.isclose(alamouti(q16).energy_norm, 1 / math.sqrt(10))

    def test_points_literal(self, q4, q16):
        # The enumeration order of the points fixes every codeword index and coded digest.
        assert q4.points == ((-1 - 1j), (-1 + 1j), (1 - 1j), (1 + 1j))
        assert q16.points == (
            (-3 - 3j), (-3 - 1j), (-3 + 1j), (-3 + 3j), (-1 - 3j), (-1 - 1j), (-1 + 1j), (-1 + 3j),
            (1 - 3j), (1 - 1j), (1 + 1j), (1 + 3j), (3 - 3j), (3 - 1j), (3 + 1j), (3 + 3j),
        )

    def test_difference_sets(self, q4, q16):
        assert len(q4.difference_points()) == 9
        assert len(q16.difference_points()) == 49
        assert len(q16.difference_points(max_coord=4)) == 25
        assert set(q4.difference_points()) <= set(q16.difference_points(max_coord=4))

    # The kept coordinates of each difference box, per order and max_coord (None: unboxed).
    _DIFFERENCE_COORDS = {
        4: {None: (-2, 0, 2), 0: (0,), 1: (0,), 2: (-2, 0, 2), 3: (-2, 0, 2), 4: (-2, 0, 2),
            5: (-2, 0, 2), 6: (-2, 0, 2)},
        16: {None: (-6, -4, -2, 0, 2, 4, 6), 0: (0,), 1: (0,), 2: (-2, 0, 2), 3: (-2, 0, 2),
             4: (-4, -2, 0, 2, 4), 5: (-4, -2, 0, 2, 4), 6: (-6, -4, -2, 0, 2, 4, 6)},
    }

    @pytest.mark.parametrize("order", [4, 16])
    def test_difference_points_literal(self, order):
        # Real parts outer, imaginary inner: the order verify_nvd's first tuple depends on.
        for max_coord, coords in self._DIFFERENCE_COORDS[order].items():
            expected = tuple(complex(a, b) for a in coords for b in coords)
            assert QamAlphabet.qam(order).difference_points(max_coord) == expected, max_coord

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            QamAlphabet.qam(8)

    @pytest.mark.parametrize("order", [2, 8, True, 4.0])
    def test_order_outside_4_and_16_rejected(self, order):
        # 4.0 == 4, yet a float is not an order, and True is not one either.
        with pytest.raises(ValueError, match="only 4-QAM and 16-QAM are supported"):
            QamAlphabet.qam(order)
        with pytest.raises(ValueError, match="only 4-QAM and 16-QAM are supported"):
            QamAlphabet(order)


class TestAlamouti:
    def test_sixteen_codewords(self, q4):
        words, _ = alamouti(q4).codewords()
        assert words.shape == (16, 1, 2, 2)

    def test_orthogonal_design(self, q4):
        words, symbols = alamouti(q4).codewords()
        for x, s in zip(words[:, 0], symbols):
            energy = abs(s[0]) ** 2 + abs(s[1]) ** 2
            assert np.allclose(x.conj().T @ x, energy * np.eye(2))

    def test_min_determinant_positive(self, q4):
        mn, _ = verify_nvd(alamouti(q4), q4.difference_points())
        assert np.isclose(mn, 16.0)


class TestGolden:
    def test_codebook_size(self, q4):
        words, _ = golden(q4, m=0).codewords()
        assert words.shape == (256, 1, 2, 2)

    def test_m0_min_determinant_constant_across_alphabets(self, q4, q16):
        cb = golden(q4, m=0)
        mn4, _ = verify_nvd(cb, q4.difference_points())
        mn16, _ = verify_nvd(cb, q16.difference_points(max_coord=4))
        assert mn4 > 0
        assert np.isclose(mn4, mn16, rtol=1e-9)
        # Scaled lattice determinant: |2+i|^2 * |2 Z[i]|-minimum.
        assert np.isclose(mn4, 80.0)

    def test_m1_min_product_constant_across_alphabets(self, q4, q16):
        cb = golden(q4, m=1)
        assert cb.k_sub == 2
        mn4, _ = verify_nvd(cb, q4.difference_points())
        mn16, _ = verify_nvd(cb, q16.difference_points(max_coord=4))
        assert mn4 > 0
        assert np.isclose(mn4, mn16, rtol=1e-9)
        assert np.isclose(mn4, 6400.0)

    def test_difference_closure(self, q4):
        # Symbol linearity: the difference of codewords is the codeword of
        # the symbol difference.
        cb = golden(q4, m=1)
        words, symbols = cb.codewords()
        i, j = 17, 200
        direct = words[i] - words[j]
        via_symbols = cb.encode((symbols[i] - symbols[j])[None])[0]
        assert np.allclose(direct, via_symbols)

    def test_equal_energy_shaping(self, q4):
        # The generator is unitary up to scale: codeword energy is a fixed
        # multiple of the symbol energy for every codeword.
        for m in (0, 1):
            cb = golden(q4, m=m)
            words, symbols = cb.codewords()
            ratio = np.sum(np.abs(words) ** 2, axis=(1, 2, 3)) / np.sum(
                np.abs(symbols) ** 2, axis=1
            )
            assert np.allclose(ratio, ratio[0], rtol=1e-9)

    def test_unsupported_m(self, q4):
        with pytest.raises(ValueError):
            golden(q4, m=2)

    @pytest.mark.parametrize("m", [True, 1.0])
    def test_non_int_m_rejected(self, q4, m):
        # Both used to give the parallel code.
        with pytest.raises(ValueError, match="only m = 0 and m = 1 are supported"):
            golden(q4, m=m)


class TestCodebook:
    def test_unknown_name_rejected_at_construction(self, q4):
        with pytest.raises(ValueError, match="'foo'.*alamouti, golden, parallel-golden"):
            Codebook("foo", q4)

    @pytest.mark.parametrize("order", [4, 16])
    @pytest.mark.parametrize("name", ["alamouti", "golden", "parallel-golden"])
    def test_enumeration_order_is_the_meshgrid(self, name, order):
        # The sent indices, and so every coded digest, depend on this order.
        cb = Codebook(name, QamAlphabet.qam(order))
        words, symbols = cb.codewords()
        dense_words, dense_symbols = codewords_dense(cb)
        assert words.dtype == dense_words.dtype and symbols.dtype == dense_symbols.dtype
        assert np.array_equal(words, dense_words) and np.array_equal(symbols, dense_symbols)

    @pytest.mark.parametrize("start,stop", [(0, 0), (0, 1), (5, 6), (7, 130), (0, 625)])
    def test_symbol_tuples_slice_the_enumeration(self, start, stop, q4):
        pts = q4.difference_points(max_coord=2)[:5]
        dense = symbol_tuples_dense(pts, 4)
        assert np.array_equal(stbc._symbol_tuples(pts, 4, start, stop), dense[start:stop])


# The benchmark's five NVD cases, each a code over 4-QAM searched on the
# differences of a 4-QAM or a 16-QAM alphabet boxed to |coordinate| <= 4.
_NVD_CASES = [
    ("alamouti", 4), ("golden", 4), ("parallel-golden", 4), ("golden", 16), ("parallel-golden", 16)
]
NVD_CASES = pytest.mark.parametrize("code,qam", _NVD_CASES)
NVD_MINIMA = {"alamouti": 16.0, "golden": 80.0, "parallel-golden": 6400.0}


def nvd_case(code: str, qam: int) -> tuple[Codebook, tuple[complex, ...]]:
    return Codebook(code, QamAlphabet.qam(4)), QamAlphabet.qam(qam).difference_points(max_coord=4)


class TestVerifyNvd:
    def test_cap_enforced(self, q4, q16):
        with pytest.raises(ValueError, match="cap"):
            verify_nvd(golden(q4, m=0), q16.difference_points())

    @pytest.mark.parametrize("golden_m", [None, 0, 1], ids=["alamouti", "golden0", "golden1"])
    def test_closed_form_matches_gram_determinant(self, golden_m, q4):
        cb = alamouti(q4) if golden_m is None else golden(q4, m=golden_m)
        pts = np.asarray(q4.difference_points())
        tuples = symbol_tuples_dense(pts, cb.num_symbols)
        words = cb.encode(tuples[np.any(tuples != 0, axis=-1)])
        gram = words @ words.conj().swapaxes(-1, -2)
        expect = np.prod(np.abs(np.linalg.det(gram)), axis=-1)
        assert len(expect) == len(pts) ** cb.num_symbols - 1
        np.testing.assert_allclose(det_products(words), expect, rtol=1e-9, atol=0)

    def test_closed_form_rejects_other_shapes(self):
        with pytest.raises(ValueError, match="2x2"):
            det_products(np.ones((4, 1, 3, 3), dtype=complex))

    def test_enumeration_excludes_zero(self, q4):
        cb = alamouti(q4)
        mn, arg = verify_nvd(cb, q4.difference_points())
        assert any(a != 0 for a in arg)
        assert mn > 0

    @NVD_CASES
    def test_closed_form_is_the_rounded_oracle(self, code, qam):
        # Every tuple, zero included: the code's closed form in the symbols is
        # the exact integer that the float encode-and-determinant path rounds to.
        cb, diffs = nvd_case(code, qam)
        tuples, oracle = nvd_products_dense(cb, diffs)
        rounded = np.rint(oracle)
        assert np.max(np.abs(oracle - rounded)) < 0.01
        *_, half, combine = stbc._CODES[code]
        h = cb.num_symbols // 2
        assert np.array_equal(combine(half(tuples[:, :h]), half(tuples[:, h:])), rounded)

    @NVD_CASES
    def test_streamed_search_matches_dense(self, code, qam):
        # Every case but alamouti spans more than one block of first halves:
        # 2 at 4-QAM (81 halves, 50 a block), 105 boxed 16-QAM (625 halves, 6 a block).
        cb, diffs = nvd_case(code, qam)
        halves = len(diffs) ** (cb.num_symbols // 2)
        blocks = math.ceil(halves / max(1, stbc._NVD_CHUNK // halves))
        assert blocks == (1 if code == "alamouti" else 2 if qam == 4 else 105)
        mn, arg = verify_nvd(cb, diffs)
        assert mn == NVD_MINIMA[code]
        dense_mn, dense_arg = nvd_minimum_dense(cb, diffs)
        assert mn == dense_mn and arg == dense_arg

    # One-tuple chunks only at 4-QAM: a boxed 16-QAM case would take 390,625 steps.
    @pytest.mark.parametrize(
        "code,qam,chunk",
        [(c, q, n) for n in (1, 1000, 65536) for c, q in _NVD_CASES if n > 1 or q == 4],
    )
    def test_result_does_not_depend_on_the_chunk(self, code, qam, chunk, monkeypatch):
        cb, diffs = nvd_case(code, qam)
        expect = verify_nvd(cb, diffs)
        monkeypatch.setattr(stbc, "_NVD_CHUNK", chunk)
        assert verify_nvd(cb, diffs) == expect

    def test_chunks_cover_the_enumeration_once(self, q4, q16, monkeypatch):
        # The minimum sits in the first block, so the case above alone would
        # miss a skipped or repeated later block: the blocks together must score
        # every (first half, second half) pair once, in enumeration order.
        seen = []
        encode, k_sub, num_symbols, half, combine = stbc._CODES["golden"]

        def spy(u, v):
            seen.append(np.broadcast_arrays(u, v))
            return combine(u, v)

        monkeypatch.setitem(stbc._CODES, "golden", (encode, k_sub, num_symbols, half, spy))
        cb, diffs = golden(q4), q16.difference_points(max_coord=4)
        verify_nvd(cb, diffs)
        # 625 half-tuples; 4096 // 625 = 6 first halves per block.
        assert [u.shape for u, _ in seen] == [(6, 625)] * 104 + [(1, 625)]
        tuples = symbol_tuples_dense(diffs, 4)
        assert np.array_equal(np.concatenate([u.ravel() for u, _ in seen]), half(tuples[:, :2]))
        assert np.array_equal(np.concatenate([v.ravel() for _, v in seen]), half(tuples[:, 2:]))

    @pytest.mark.parametrize("code", ["alamouti", "golden", "parallel-golden"])
    @pytest.mark.parametrize(
        "points",
        [(0j, 0j, 2, 2j), QamAlphabet.qam(4).points, (0j,), ()],
        ids=["zero-twice", "qam4-no-zero", "zero-only", "empty"],
    )
    def test_zero_mask_excludes_exactly_the_zero_tuples(self, code, points):
        # Only a pair of two all-zero halves is masked: with 0 listed twice every
        # all-zero tuple is out, with no 0 none is, and with only 0 or nothing
        # there is no tuple left.
        cb = Codebook(code, QamAlphabet.qam(4))
        assert verify_nvd(cb, points) == nvd_minimum_dense(cb, points)

    def test_degenerate_alphabets_find_nothing(self, q4):
        assert verify_nvd(alamouti(q4), [0j]) == (math.inf, ())
        assert verify_nvd(alamouti(q4), []) == (math.inf, ())

    def test_streamed_search_memory_is_bounded(self, q4, q16, monkeypatch):
        # Traced peaks with numpy 2.4: 0.25 MB at 6-row blocks (_NVD_CHUNK 4096),
        # 2.63 MB at 104-row blocks (65,536).
        cb, diffs = golden(q4, m=1), q16.difference_points(max_coord=4)
        _, peak = traced_peak_mb(verify_nvd, cb, diffs)
        assert peak < 1.2
        monkeypatch.setattr(stbc, "_NVD_CHUNK", 65536)
        _, peak = traced_peak_mb(verify_nvd, cb, diffs)
        assert peak > 1.2


class TestMlDecode:
    def test_noiseless_recovery(self, q4):
        cb = golden(q4, m=1)
        words, _ = cb.codewords()
        dim = (2, 2, 2)
        sched = default_ff_scheme(dim).schedule
        real = sample_channel(dim, seed=4, index=3)
        snr = 200.0
        effs = ff_effective(real, sched, snr)
        amp = math.sqrt(snr / 2) * cb.energy_norm
        sent = 123
        ys = [amp * (effs[k].gain @ words[sent, k]) for k in range(2)]
        assert ml_decode(ys, effs, cb, snr) == sent

    def test_low_snr_decisions_near_uniform(self, q4):
        cb = alamouti(q4)
        words, _ = cb.codewords()
        rng = np.random.default_rng(0)
        snr = 1e-6
        amp = math.sqrt(snr / 2) * cb.energy_norm
        counts = np.zeros(16)
        real = sample_channel((2, 2), seed=5)
        eff = af_effective(real, snr)
        for _ in range(3200):
            noise = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
            y = amp * (eff.gain @ words[0, 0]) + noise
            counts[ml_decode([y], [eff], cb, snr)] += 1
        expected = 3200 / 16
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 44.3  # 0.9999 quantile at 15 degrees of freedom

    def test_whitening_absorbs_common_transform(self, q4):
        cb = alamouti(q4)
        words, _ = cb.codewords()
        rng = np.random.default_rng(7)
        real = sample_channel((2, 1, 2), seed=6)
        snr = 30.0
        eff = af_effective(real, snr)
        amp = math.sqrt(snr / 2) * cb.energy_norm
        transform = np.array([[1.5, 0.3 - 0.2j], [0.0, 0.8]], dtype=complex)
        for _ in range(50):
            noise_w = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
            chol = np.linalg.cholesky(eff.noise_cov)
            y = amp * (eff.gain @ words[rng.integers(16), 0]) + chol @ noise_w
            moved = EffectiveChannel(
                transform @ eff.gain,
                transform @ eff.noise_cov @ transform.conj().T,
            )
            assert ml_decode([y], [eff], cb, snr) == ml_decode(
                [transform @ y], [moved], cb, snr
            )

    def test_near_isotropic_whitening_rarely_changes_decisions(self, q4):
        cb = alamouti(q4)
        words, _ = cb.codewords()
        rng = np.random.default_rng(11)
        agree = 0
        trials = 400
        snr = 60.0
        amp = math.sqrt(snr / 2) * cb.energy_norm
        for t in range(trials):
            real = sample_channel((2, 2, 2), seed=8, index=t)
            eff = af_effective(real, snr)
            near = EffectiveChannel(
                eff.gain, np.eye(2) + 0.02 * (eff.noise_cov - np.eye(2))
            )
            chol = np.linalg.cholesky(near.noise_cov)
            noise = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
            y = amp * (near.gain @ words[rng.integers(16), 0]) + chol @ noise
            whitened = ml_decode([y], [near], cb, snr)
            plain = int(
                np.argmin(
                    np.sum(np.abs(y[None] - amp * (near.gain @ words[:, 0])) ** 2, axis=(1, 2))
                )
            )
            agree += whitened == plain
        assert agree / trials >= 0.99


class TestVectorisedDecisionOracle:
    """The batched decision of the coded simulation against ``ml_decode``."""

    ROWS = 200

    @staticmethod
    def reference_distances(ys, effs, words, amp):
        # The full whitened distance of every codeword, through np.linalg.
        total = 0.0
        for k, (y, eff) in enumerate(zip(ys, effs)):
            chol = np.linalg.cholesky(eff.noise_cov)
            y_w = np.linalg.solve(chol, y)
            g_w = np.linalg.solve(chol, eff.gain)
            cand = amp * (g_w[:, None] @ words[None, :, k])  # (B, M, n_r, T)
            total = total + np.sum(np.abs(y_w[:, None] - cand) ** 2, axis=(-2, -1))
        return total

    @classmethod
    def clear_rows(cls, ys, effs, words, amp):
        """Rows whose two best reference distances are not a near-tie (1e-9 relative)."""
        clear = []
        for r in range(0, len(ys[0]), 8):  # 8 rows keep the distances near 30 MB at 16-QAM
            rows = slice(r, r + 8)
            effs_r = [EffectiveChannel(e.gain[rows], e.noise_cov[rows]) for e in effs]
            dist = cls.reference_distances([y[rows] for y in ys], effs_r, words, amp)
            two = np.partition(dist, 1, axis=1)[:, :2]
            clear.append(two[:, 1] - two[:, 0] > 1e-9 * (1.0 + two[:, 0]))
        return np.concatenate(clear)

    @staticmethod
    def decision_inputs(dim, cb, effs_of, snr_db, rows):
        """Sent indices, coloured and whitened receptions, channels and table for ``rows`` trials.

        ``ml_decode`` reads the coloured reception ``amp G X + L n``; ``_ml_decisions`` reads
        the scaled whitened gain ``amp L^-1 G`` and ``amp L^-1 G X + n``, from the same ``n``.
        """
        snr = 10.0 ** (snr_db / 10.0)
        amp = math.sqrt(snr / dim[0]) * cb.energy_norm
        words, _ = cb.codewords()
        rng = np.random.default_rng(int(snr_db))
        effs = effs_of(draw_block(dim, seed=19, block_index=0, count=rows), snr)
        sent = rng.integers(0, words.shape[0], size=rows)
        ys, gains, whitened = [], [], []
        for k, eff in enumerate(effs):
            noise = (
                rng.standard_normal((rows, 2, 2)) + 1j * rng.standard_normal((rows, 2, 2))
            ) / np.sqrt(2)
            chol = np.linalg.cholesky(eff.noise_cov)
            ys.append(amp * (eff.gain @ words[sent, k]) + chol @ noise)
            gains.append(amp * np.linalg.solve(chol, eff.gain))
            whitened.append(gains[-1] @ words[sent, k] + noise)
        return sent, ys, effs, gains, whitened, stbc._word_table(words)

    @staticmethod
    def reference_decisions(ys, effs, cb, snr_db):
        return np.asarray(
            [
                ml_decode(
                    [y[r] for y in ys],
                    [EffectiveChannel(e.gain[r], e.noise_cov[r]) for e in effs],
                    cb,
                    10.0 ** (snr_db / 10.0),
                )
                for r in range(len(ys[0]))
            ]
        )

    @pytest.mark.parametrize("snr_db", [6.0, 24.0])
    @pytest.mark.parametrize("case", ["golden1-ff(2,2,2)", "orthogonal-af(2,1,2,2)"])
    def test_matches_ml_decode(self, case, snr_db, q4):
        if case == "golden1-ff(2,2,2)":
            dim, cb = (2, 2, 2), golden(q4, m=1)
            effs_of = lambda real, snr: ff_effective(real, default_ff_scheme(dim).schedule, snr)
        else:
            dim, cb = (2, 1, 2, 2), alamouti(q4)
            effs_of = lambda real, snr: [af_effective(real, snr)]
        sent, ys, effs, gains, whitened, table = self.decision_inputs(
            dim, cb, effs_of, snr_db, self.ROWS
        )
        fast = stbc._ml_decisions(gains, whitened, table)
        ref = self.reference_decisions(ys, effs, cb, snr_db)
        amp = math.sqrt(10.0 ** (snr_db / 10.0) / dim[0]) * cb.energy_norm
        clear = self.clear_rows(ys, effs, cb.codewords()[0], amp)
        assert np.count_nonzero(clear) >= 0.9 * self.ROWS
        assert np.array_equal(fast[clear], ref[clear])
        # Low SNR must actually exercise wrong decisions, high SNR right ones.
        errors = np.count_nonzero(fast != sent)
        assert errors > 0 if snr_db < 10 else errors < self.ROWS // 10


class TestRowBatches:
    """Golden 16-QAM: 65,536 codewords, so ``_ml_decisions`` scores 8 rows per product."""

    ROWS = 40  # five batches
    SNR_DB = 14.0

    @pytest.fixture(scope="class")
    def golden16(self, q16):
        cb = golden(q16)
        assert stbc._SCORE_ENTRIES // len(cb.codewords()[0]) == 8
        return cb

    def inputs(self, cb, rows):
        effs_of = lambda real, snr: [af_effective(real, snr)]
        return TestVectorisedDecisionOracle.decision_inputs((2, 2), cb, effs_of, self.SNR_DB, rows)

    def test_batches_match_ml_decode(self, golden16):
        oracle = TestVectorisedDecisionOracle
        sent, ys, effs, gains, whitened, table = self.inputs(golden16, self.ROWS)
        fast = stbc._ml_decisions(gains, whitened, table)
        ref = oracle.reference_decisions(ys, effs, golden16, self.SNR_DB)
        amp = math.sqrt(10.0 ** (self.SNR_DB / 10.0) / 2) * golden16.energy_norm
        clear = oracle.clear_rows(ys, effs, golden16.codewords()[0], amp)
        assert np.count_nonzero(clear) >= 0.9 * self.ROWS
        assert np.array_equal(fast[clear], ref[clear])
        # Wrong decisions occur too, so they are checked as well as right ones.
        assert 0 < np.count_nonzero(fast != sent) < self.ROWS // 2

    def test_non_finite_last_batch_raises(self, golden16):
        _, _, _, gains, whitened, table = self.inputs(golden16, self.ROWS)
        whitened[0][-8:, 1, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            stbc._ml_decisions(gains, whitened, table)

    def test_block_memory_is_bounded(self, golden16):
        # One (2048, 65536) score matrix took 1.07 GB.
        _, _, _, gains, whitened, table = self.inputs(golden16, CODED_BLOCK_SIZE)
        decided, peak = traced_peak_mb(stbc._ml_decisions, gains, whitened, table)
        assert decided.shape == (CODED_BLOCK_SIZE,)
        assert peak < 64.0


class TestWordTable:
    @pytest.mark.parametrize("name", ["alamouti", "golden", "parallel-golden"])
    def test_matches_concatenated_pieces(self, name, q4):
        cb = {"alamouti": alamouti(q4), "golden": golden(q4), "parallel-golden": golden(q4, m=1)}[name]
        words = cb.codewords()[0]
        table = stbc._word_table(words)
        assert table.flags.c_contiguous
        assert np.array_equal(table, word_table_concat(words))

    def test_build_memory_is_bounded(self, q16):
        # The 16.8 MB parallel-golden 16-QAM table was built through 71 MB of pieces.
        words = golden(q16, m=1).codewords()[0]
        table, peak = traced_peak_mb(stbc._word_table, words)
        assert table.shape == (32, 65536)
        assert peak <= 2 * table.nbytes / 1e6


class TestSimulateSer:
    def test_zero_noise_limit(self, q4):
        # At extreme SNR the error rate collapses to zero.
        cb = alamouti(q4)
        pts = simulate_ser((2, 2), AfScheme(), cb, [60.0], 4096, seed=5)
        assert pts[0].outage_count == 0

    def test_deterministic_across_workers(self, q4):
        cb = golden(q4, m=1)
        ff = default_ff_scheme((2, 2, 2))
        a = simulate_ser((2, 2, 2), ff, cb, [14.0], 3 * CODED_BLOCK_SIZE, seed=9)
        b = simulate_ser((2, 2, 2), ff, cb, [14.0], 3 * CODED_BLOCK_SIZE, seed=9, workers=2)
        assert a[0].outage_count == b[0].outage_count

    def test_workers_clamped_to_block_count(self, q4, pool_sizes):
        args = ((2, 2), AfScheme(), alamouti(q4), [6.0, 9.0], 2 * CODED_BLOCK_SIZE)
        serial = simulate_ser(*args, seed=4)
        wide = simulate_ser(*args, seed=4, workers=8)
        assert pool_sizes == [2]
        assert [p.outage_count for p in wide] == [p.outage_count for p in serial]

    def test_subchannel_mismatch_rejected(self, q4):
        cb = golden(q4, m=1)
        with pytest.raises(ValueError, match="sub-channels"):
            simulate_ser((2, 2), AfScheme(), cb, [10.0], 256, seed=1)

    def test_df_has_no_effective_channel(self, q4):
        with pytest.raises(TypeError, match="no effective channel"):
            simulate_ser((2, 2, 2), DfScheme(DecodeSet((2,))), alamouti(q4), [10.0], 256, seed=1)

    def test_code_width_mismatch_rejected_before_drawing(self, q4, no_draw):
        with pytest.raises(ValueError, match="2 antennas but the channel input has 3"):
            simulate_ser((3, 3), AfScheme(), alamouti(q4), [10.0], 256, seed=1)

    # Three codes, each on a channel whose sub-channel count it matches.
    GRID_CASES = {
        "golden1-ff(2,2,2)": ((2, 2, 2), "golden1", default_ff_scheme((2, 2, 2))),
        "alamouti-af(2,1,2,2)": ((2, 1, 2, 2), "alamouti", AfScheme()),
        "golden0-af(2,2)": ((2, 2), "golden0", AfScheme()),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", list(GRID_CASES))
    def test_grid_equals_points_run_one_at_a_time(self, case, workers, q4, pool_sizes):
        dim, code, scheme = self.GRID_CASES[case]
        cb = {"golden1": golden(q4, m=1), "alamouti": alamouti(q4), "golden0": golden(q4)}[code]
        grid, trials = [2.0, 8.0, 14.0, 20.0], 2 * CODED_BLOCK_SIZE + 300  # a partial last block
        run = simulate_ser(dim, scheme, cb, grid, trials, seed=23, workers=workers)
        # One pool for the whole grid when there is one at all.
        assert pool_sizes == ([2] if workers == 2 else [])
        alone = [simulate_ser(dim, scheme, cb, [s], trials, 23, workers)[0] for s in grid]
        assert [p.outage_count for p in run] == [p.outage_count for p in alone]
        assert [p.snr_db for p in run] == grid and all(p.trials == trials for p in run)
        counts = [p.outage_count for p in run]
        assert counts[0] > counts[-1] and counts[0] > 0

    def test_each_block_is_drawn_once_for_the_grid(self, q4, monkeypatch):
        draws = []

        def counting_draw(dim, rng, count):
            draws.append(count)
            return draw(dim, rng, count)

        draw = stbc._draw_hops
        monkeypatch.setattr(stbc, "_draw_hops", counting_draw)
        trials = 2 * CODED_BLOCK_SIZE + 1
        grid = [0.0, 5.0, 10.0, 15.0, 20.0]
        pts = simulate_ser((2, 2), AfScheme(), alamouti(q4), grid, trials, seed=6)
        assert len(pts) == len(grid)
        assert draws == [CODED_BLOCK_SIZE] * math.ceil(trials / CODED_BLOCK_SIZE)

    def test_empty_grid_returns_at_once(self, q4, pool_sizes, no_draw):
        assert simulate_ser((2, 2), AfScheme(), alamouti(q4), [], 2 * CODED_BLOCK_SIZE, 3, 2) == []
        assert pool_sizes == []

    def test_narrow_destination_supernode_draws_its_own_noise_shape(self, q4):
        # A (2,2,1) path through (2,2,2): its effective channel has one output, not dim[-1].
        part = Partition(((frozenset({0, 1}), frozenset({0, 1}), frozenset({0})),))
        scheme = ParallelAfScheme(part)
        pts = simulate_ser((2, 2, 2), scheme, alamouti(q4), [0.0, 30.0], 300, seed=2)
        assert pts[0].outage_count > pts[1].outage_count

    def test_error_rate_decreases_with_snr(self, q4):
        cb = alamouti(q4)
        pts = simulate_ser((2, 1, 2, 2), AfScheme(), cb, [6.0, 12.0, 18.0], 20000, seed=3)
        sers = [p.p_hat for p in pts]
        assert sers[0] > sers[1] > sers[2]


class TestJsonExport:
    # Recorded when every codebook field was stored; the derived fields
    # must still export the same bytes.
    _DIGESTS = {
        ("alamouti", 4): "7c8fd74557d3ad409a9ff49606dda304338574eb1be7d35edc99c3a7d10dfcba",
        ("golden", 4): "2376c3d795859c7491c5b25cecad97b51d92f1c58532ba7999f2673c24e51218",
        ("parallel-golden", 4): "12946f488d862941ee5dffcdd53888d2c7aee21c2fd2fca033b8bfb8e8b8af94",
        ("alamouti", 16): "4c72580c03fba4b779c9fb16421f1089851dcf55caceb88c4b7241a5aa921b62",
        ("golden", 16): "857f469484f74c676ff7dfb6688a40dca9082dccbe3cc1b1c2e88b001f23d6f5",
        ("parallel-golden", 16): "4ec2a0a978449e0701253e8619e9bc961d91979c0facccf5372fa531e4dcb547",
    }

    @pytest.mark.parametrize("name,order", list(_DIGESTS))
    def test_pinned_digest(self, name, order):
        q = QamAlphabet.qam(order)
        cb = {"alamouti": alamouti(q), "golden": golden(q), "parallel-golden": golden(q, m=1)}[name]
        digest = hashlib.sha256(codebook_to_json(cb).encode()).hexdigest()
        assert digest == self._DIGESTS[(name, order)]

    def test_round_trip_fields(self, q4):
        doc = json.loads(codebook_to_json(golden(q4, m=1)))
        assert doc["code"] == "parallel-golden"
        assert doc["k_sub"] == 2
        assert doc["qam_order"] == 4
        assert len(doc["qam_points"]) == 4
