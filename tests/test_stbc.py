import hashlib
import json
import math

import numpy as np
import pytest
from oracles import ml_decode, sample_channel

from relaydmt import stbc
from relaydmt.channel_sim import (
    AfScheme,
    DfScheme,
    EffectiveChannel,
    af_effective,
    default_ff_scheme,
    ff_effective,
    sample_block,
)
from relaydmt.dmt_core import DecodeSet
from relaydmt.stbc import (
    CODED_BLOCK_SIZE,
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


class TestAlphabet:
    def test_points(self, q4, q16):
        assert len(q4.points) == 4 and len(q16.points) == 16
        assert sum(q4.points) == 0 and sum(q16.points) == 0
        assert len(set(q4.points)) == 4

    def test_energy_norms(self, q4, q16):
        assert math.isclose(alamouti(q4).energy_norm, 1 / math.sqrt(2))
        assert math.isclose(alamouti(q16).energy_norm, 1 / math.sqrt(10))

    def test_difference_sets(self, q4, q16):
        assert len(q4.difference_points()) == 9
        assert len(q16.difference_points()) == 49
        assert len(q16.difference_points(max_coord=4)) == 25
        assert set(q4.difference_points()) <= set(q16.difference_points(max_coord=4))

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            QamAlphabet.qam(8)


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


class TestVerifyNvd:
    def test_cap_enforced(self, q4, q16):
        with pytest.raises(ValueError, match="cap"):
            verify_nvd(golden(q4, m=0), q16.difference_points())

    @pytest.mark.parametrize("golden_m", [None, 0, 1], ids=["alamouti", "golden0", "golden1"])
    def test_closed_form_matches_gram_determinant(self, golden_m, q4):
        cb = alamouti(q4) if golden_m is None else golden(q4, m=golden_m)
        pts = np.asarray(q4.difference_points())
        grids = np.meshgrid(*([pts] * cb.num_symbols), indexing="ij")
        tuples = np.stack([g.ravel() for g in grids], axis=-1)
        words = cb.encode(tuples[np.any(tuples != 0, axis=-1)])
        gram = words @ words.conj().swapaxes(-1, -2)
        expect = np.prod(np.abs(np.linalg.det(gram)), axis=-1)
        assert len(expect) == len(pts) ** cb.num_symbols - 1
        np.testing.assert_allclose(stbc._det_products(words), expect, rtol=1e-9, atol=0)

    def test_closed_form_rejects_other_shapes(self):
        with pytest.raises(ValueError, match="2x2"):
            stbc._det_products(np.ones((4, 1, 3, 3), dtype=complex))

    def test_enumeration_excludes_zero(self, q4):
        cb = alamouti(q4)
        mn, arg = verify_nvd(cb, q4.difference_points())
        assert any(a != 0 for a in arg)
        assert mn > 0


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

    @pytest.mark.parametrize("snr_db", [6.0, 24.0])
    @pytest.mark.parametrize("case", ["golden1-ff(2,2,2)", "orthogonal-af(2,1,2,2)"])
    def test_matches_ml_decode(self, case, snr_db, q4):
        if case == "golden1-ff(2,2,2)":
            dim, cb = (2, 2, 2), golden(q4, m=1)
            effs_of = lambda real, snr: ff_effective(real, default_ff_scheme(dim).schedule, snr)
        else:
            dim, cb = (2, 1, 2, 2), alamouti(q4)
            effs_of = lambda real, snr: [af_effective(real, snr)]
        snr = 10.0 ** (snr_db / 10.0)
        amp = math.sqrt(snr / dim[0]) * cb.energy_norm
        words, _ = cb.codewords()
        rng = np.random.default_rng(int(snr_db))
        effs = effs_of(sample_block(dim, seed=19, block_index=0, count=self.ROWS), snr)
        sent = rng.integers(0, words.shape[0], size=self.ROWS)
        ys = []
        for k, eff in enumerate(effs):
            noise = (
                rng.standard_normal((self.ROWS, 2, 2)) + 1j * rng.standard_normal((self.ROWS, 2, 2))
            ) / np.sqrt(2)
            ys.append(amp * (eff.gain @ words[sent, k]) + np.linalg.cholesky(eff.noise_cov) @ noise)

        chols = [stbc._cholesky(eff.noise_cov) for eff in effs]
        fast = stbc._ml_decisions(ys, effs, chols, stbc._word_table(words, amp))
        ref = [
            ml_decode(
                [y[r] for y in ys],
                [EffectiveChannel(e.gain[r], e.noise_cov[r]) for e in effs],
                cb,
                snr,
            )
            for r in range(self.ROWS)
        ]
        dist = np.sort(self.reference_distances(ys, effs, words, amp), axis=1)
        clear = dist[:, 1] - dist[:, 0] > 1e-9 * (1.0 + dist[:, 0])
        assert np.count_nonzero(clear) >= 0.9 * self.ROWS
        assert np.array_equal(fast[clear], np.asarray(ref)[clear])
        # Low SNR must actually exercise wrong decisions, high SNR right ones.
        errors = np.count_nonzero(fast != sent)
        assert errors > 0 if snr_db < 10 else errors < self.ROWS // 10


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

    def test_code_width_mismatch_rejected_before_drawing(self, q4, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(stbc, "_draw_hops", no_draw)
        with pytest.raises(ValueError, match="2 antennas but the channel input has 3"):
            simulate_ser((3, 3), AfScheme(), alamouti(q4), [10.0], 256, seed=1)

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
