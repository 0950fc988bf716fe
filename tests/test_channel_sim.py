import functools
import hashlib
import io
import json
import math
import multiprocessing
import platform
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    af_1n1_outage,
    binomial_acceptance,
    df_111_outage,
    draw_block,
    one_hop_outage,
    sample_channel,
)

import relaydmt
from relaydmt import channel_sim, stbc
from relaydmt.channel_sim import (
    BLOCK_SIZE,
    AfScheme,
    ChannelRealization,
    DfScheme,
    EffectiveChannel,
    FfScheme,
    OutageEstimate,
    ParallelAfScheme,
    PfScheme,
    SvdAlignScheme,
    af_effective,
    default_ff_scheme,
    df_outage,
    estimate_outage,
    estimate_slope,
    ff_effective,
    mutual_info,
    outage_curve,
    pf_effective,
    run_manifest,
    sample_block,
    write_outage_csv,
)
from relaydmt.dmt_core import DecodeSet, as_dimension
from relaydmt.partition import (
    Partition,
    ff_schedule,
    max_partition,
    min_full_div_partition_2hop,
)


# Dimensions of the explicit-matrix-chain oracles of AF and FF.
ORACLE_DIMS = [(2, 2, 2), (2, 4, 3), (3, 1, 4, 2), (3, 3, 3, 3)]


@dataclass(frozen=True)
class FailsAbove(AfScheme):
    """AF whose outage fails above a linear SNR of 5, as a point can fail inside a run."""

    def outage(self, real, snr, rate):
        if snr > 5:
            raise RuntimeError("point failed")
        return super().outage(real, snr, rate)


def scalar_real(*hops):
    return ChannelRealization(tuple(np.asarray(h, dtype=complex) for h in hops))


class TestSampling:
    def test_shapes(self):
        real = sample_channel((3, 1, 4, 2), seed=1)
        assert [h.shape for h in real.hops] == [(1, 3), (4, 1), (2, 4)]

    def test_same_seed_identical(self):
        a = sample_channel((2, 2, 2), seed=9, index=123)
        b = sample_channel((2, 2, 2), seed=9, index=123)
        assert all(np.array_equal(x, y) for x, y in zip(a.hops, b.hops))
        c = sample_channel((2, 2, 2), seed=10, index=123)
        assert not np.array_equal(a.hops[0], c.hops[0])

    def test_unit_entry_variance(self):
        total = 0.0
        n = 0
        for block in range(125):  # about 10^6 scalar entries
            h = sample_block((2, 2), seed=3, block_index=block).hops[0]
            total += float(np.sum(np.abs(h) ** 2))
            n += h.size
        assert abs(total / n - 1.0) < 0.01

    def test_streams_uncorrelated(self):
        a_parts, b_parts = [], []
        for block in range(0, 125):
            a_parts.append(sample_block((1, 1), seed=5, block_index=block).hops[0].ravel())
            b_parts.append(sample_block((1, 1), seed=6, block_index=block).hops[0].ravel())
        a, b = np.concatenate(a_parts), np.concatenate(b_parts)
        corr = np.corrcoef(a.real, b.real)[0, 1]
        assert abs(corr) < 0.01

    def test_trial_alignment_with_blocks(self):
        stacked = sample_block((2, 3, 2), seed=4, block_index=0)
        single = sample_channel((2, 3, 2), seed=4, index=17)
        assert all(np.array_equal(s[17], h) for s, h in zip(stacked.hops, single.hops))

    @pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
    def test_seed_is_the_philox_key(self, seed):
        """Block ``b`` of a seed in 0..2**64-1 is the Philox stream keyed ``(seed, b)``."""
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))
        expected = rng.standard_normal((16, 1, 1, 2)).view(complex)[..., 0] / np.sqrt(2.0)
        assert np.array_equal(sample_block((1, 1), seed, 5).hops[0][:16], expected)

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2**65 + 7])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer in 0..2\\*\\*64-1"):
            sample_block((1, 1), seed, 0)
        with pytest.raises(ValueError, match="seed must be"):
            estimate_outage((1, 1), AfScheme(), 1.0, 10.0, 4, seed=seed)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            sample_block((1, 1), 1.5, 0)


class TestChannelRealization:
    def test_dim_read_off_hop_shapes(self):
        real = draw_block((3, 1, 4, 2), seed=1, block_index=0, count=4)
        assert real.dim == as_dimension((3, 1, 4, 2))

    def test_no_hops_rejected(self):
        with pytest.raises(ValueError, match="at least one hop"):
            ChannelRealization(())

    def test_hops_that_do_not_chain_rejected(self):
        with pytest.raises(ValueError, match="hop 2 takes 3 inputs; hop 1 gives 2"):
            ChannelRealization((np.ones((2, 2)), np.ones((1, 3))))


class TestAfEffective:
    def test_scalar_chain_hand_values(self):
        real = scalar_real([[1.0]], [[1.0]])
        eff = af_effective(real, snr=1.0)
        assert np.allclose(eff.gain, math.sqrt(0.5))
        assert np.allclose(eff.noise_cov, 1.5)
        assert np.isclose(mutual_info(eff, 1.0, 1), math.log2(4.0 / 3.0))

    def test_single_hop_passthrough(self):
        real = sample_channel((2, 3), seed=0)
        eff = af_effective(real, snr=7.0)
        assert np.array_equal(eff.gain, real.hops[0])
        assert np.allclose(eff.noise_cov, np.eye(3))

    def test_zero_relay_row_stays_finite(self):
        real = scalar_real([[1.0], [0.0]], [[1.0, 1.0]])
        eff = af_effective(real, snr=10.0)
        assert np.all(np.isfinite(eff.gain)) and np.all(np.isfinite(eff.noise_cov))

    def test_noise_floor(self):
        real = draw_block((2, 3, 2), seed=2, block_index=0, count=256)
        for snr in (1.0, 100.0, 10000.0):
            cov = af_effective(real, snr).noise_cov
            eig = np.linalg.eigvalsh(cov)
            assert np.all(eig >= 1.0 - 1e-9)

    @pytest.mark.parametrize("dim", ORACLE_DIMS)
    @pytest.mark.parametrize("snr", [3.0, 100.0, 1e4])
    def test_matches_explicit_matrix_chain(self, dim, snr):
        real = draw_block(dim, seed=24, block_index=0, count=256)
        gain, noise_cov = explicit_matrix_chain(real.hops, explicit_af_relays(real, snr))
        eff = af_effective(real, snr)
        np.testing.assert_allclose(eff.gain, gain, rtol=1e-12)
        np.testing.assert_allclose(eff.noise_cov, noise_cov, rtol=1e-12)


class TestNoiseFloorEverywhere:
    def test_all_schemes_keep_unit_floor(self):
        # The destination's own noise contributes an identity, so every
        # scheme's covariance is Hermitian with eigenvalues >= 1.
        dim = (2, 2, 2)
        real = draw_block(dim, seed=23, block_index=0, count=128)
        sched = ff_schedule(as_dimension(dim), min_full_div_partition_2hop(*dim)[1])
        part = min_full_div_partition_2hop(*dim)[1]
        covs = [af_effective(real, 30.0).noise_cov, pf_effective(real, 30.0).noise_cov]
        covs += [e.noise_cov for e in ff_effective(real, sched, 30.0)]
        covs += [e.noise_cov for e in ParallelAfScheme(part).effectives(real, 30.0)]
        covs.append(SvdAlignScheme().effectives(real, 30.0)[0].noise_cov)
        for cov in covs:
            assert np.allclose(cov, cov.conj().swapaxes(-1, -2))
            assert np.all(np.linalg.eigvalsh(cov) >= 1.0 - 1e-9)


class TestMutualInfo:
    def test_zero_gain(self):
        eff = EffectiveChannel(np.zeros((2, 2), complex), np.eye(2, dtype=complex))
        assert mutual_info(eff, 100.0, 2) == 0.0

    def test_scalar_awgn(self):
        eff = EffectiveChannel(np.ones((1, 1), complex), np.eye(1, dtype=complex))
        assert np.isclose(mutual_info(eff, 3.0, 1), 2.0)

    def test_non_finite_covariance_raises(self):
        # A NaN covariance must fail loudly, never read as "no outage".
        cov = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
        cov[1, 1, 0] = np.nan
        eff = EffectiveChannel(np.ones((3, 2, 2), complex), cov)
        with pytest.raises(np.linalg.LinAlgError):
            mutual_info(eff, 10.0, 2)

    def test_whitening_neutrality(self):
        # Ignoring the accumulated covariance shifts the rate by at most
        # log2 det(K_z), uniformly in SNR.
        real = draw_block((2, 2, 2), seed=8, block_index=0, count=512)
        for snr_db in (10.0, 25.0, 40.0):
            snr = 10 ** (snr_db / 10)
            eff = af_effective(real, snr)
            ident = EffectiveChannel(eff.gain, np.broadcast_to(np.eye(2), eff.noise_cov.shape))
            gap = mutual_info(ident, snr, 2) - mutual_info(eff, snr, 2)
            _, logdet = np.linalg.slogdet(eff.noise_cov)
            assert np.all(gap >= -1e-9)
            assert np.all(gap <= logdet.real / math.log(2) + 1e-9)


def explicit_matrix_chain(hops, relays):
    """``G = H_N R_{N-1} ... R_1 H_1`` and ``K_z = I + sum_j M_j M_j^H``,
    ``M_j = H_N R_{N-1} ... H_{j+1} R_j``, with every relay a full matrix."""
    gain = hops[0]
    for hop, relay in zip(hops[1:], relays):
        gain = hop @ relay @ gain
    n_out = hops[-1].shape[-2]
    noise_cov = np.zeros(gain.shape[:-2] + (n_out, n_out), dtype=complex) + np.eye(n_out)
    for j in range(len(relays)):
        m = relays[j]
        for hop, relay in zip(hops[j + 1 : -1], relays[j + 1 :]):
            m = relay @ hop @ m
        m = hops[-1] @ m
        noise_cov += m @ m.conj().swapaxes(-1, -2)
    return gain, noise_cov


def explicit_af_relays(real, snr, flips=None):
    """AF relays as full matrices ``diag(s_i) diag(f_i)`` on the unflipped hops.

    ``s_i`` scales each antenna of layer ``i`` from its received power,
    ``(snr/n_{i-1}) sum_k |H_i[r, k]|^2 + 1``, to ``snr/n_i``; ``f_i`` is
    the relay's +-1 flip pattern (all ones for AF).
    """
    dim = real.dim
    relays = []
    for i in range(1, dim.hops):
        power = (snr / dim[i - 1]) * np.sum(np.abs(real.hops[i - 1]) ** 2, axis=-1) + 1.0
        s = np.sqrt((snr / dim[i]) / power)
        f = np.ones(dim[i]) if flips is None else np.asarray(flips[i - 1], dtype=float)
        relays.append(s[..., :, None] * np.diag(f))
    return relays


class TestPf:
    def test_square_hops_equal_af(self):
        real = draw_block((2, 2, 2), seed=6, block_index=0, count=64)
        a, p = af_effective(real, 8.0), pf_effective(real, 8.0)
        assert np.allclose(a.gain, p.gain)
        assert np.allclose(a.noise_cov, p.noise_cov)

    def test_single_hop_equal_af(self):
        real = sample_channel((2, 4), seed=6)
        a, p = af_effective(real, 8.0), pf_effective(real, 8.0)
        assert np.allclose(a.gain, p.gain)

    def test_wide_relay_mostly_improves(self):
        # Projection concentrates power; the paired gain is positive on
        # a clear majority of draws and strongly positive on average.
        real = sample_block((1, 4, 1), seed=11, block_index=0)
        snr = 10 ** 2.0
        gain = mutual_info(pf_effective(real, snr), snr, 1) - mutual_info(
            af_effective(real, snr), snr, 1
        )
        assert float(np.mean(gain >= -1e-12)) >= 0.70
        assert float(np.mean(gain)) > 0.5

    def test_noise_floor(self):
        real = draw_block((1, 4, 2, 1), seed=12, block_index=0, count=128)
        eig = np.linalg.eigvalsh(pf_effective(real, 50.0).noise_cov)
        assert np.all(eig >= 1.0 - 1e-9)

    @staticmethod
    def _explicit_pf(real, snr):
        """PF with every relay as a full matrix on the full hops.

        Relay ``i`` is ``E diag(s) Q^H``: project onto the incoming
        column space, normalize, and forward on the first ``rank``
        antennas (``E`` embeds them).  A relay with ``n_i <= rank`` is
        ``diag(s)``.
        """
        dim = real.dim
        rank = dim[0]
        relays = []
        for i in range(1, dim.hops):
            n_i = dim[i]
            incoming = real.hops[i - 1][..., :, :rank]
            if n_i <= rank:
                reduced, basis_h, new_rank = incoming, np.eye(n_i), n_i
            else:
                q = np.linalg.qr(incoming)[0]
                basis_h = q.conj().swapaxes(-1, -2)
                reduced, new_rank = basis_h @ incoming, rank
            power = (snr / rank) * np.sum(np.abs(reduced) ** 2, axis=-1) + 1.0
            s = np.sqrt((snr / new_rank) / power)
            embed = np.eye(n_i, new_rank)
            relays.append(embed @ (s[..., :, None] * basis_h))
            rank = new_rank
        return explicit_matrix_chain(real.hops, relays)

    @pytest.mark.parametrize("dim", [(1, 4, 2, 1), (2, 4, 3, 2), (3, 1, 4, 2), (1, 3, 3, 1)])
    @pytest.mark.parametrize("snr", [3.0, 100.0, 1e4])
    def test_matches_explicit_matrix_chain(self, dim, snr):
        real = draw_block(dim, seed=21, block_index=0, count=256)
        gain, noise_cov = self._explicit_pf(real, snr)
        eff = pf_effective(real, snr)
        np.testing.assert_allclose(eff.gain, gain, rtol=1e-12)
        np.testing.assert_allclose(eff.noise_cov, noise_cov, rtol=1e-12)


class TestFf:
    def test_mode_one_is_af(self):
        dim = (2, 2, 2)
        sched = ff_schedule(as_dimension(dim), min_full_div_partition_2hop(*dim)[1])
        real = draw_block(dim, seed=13, block_index=0, count=32)
        effs = ff_effective(real, sched, 15.0)
        base = af_effective(real, 15.0)
        assert np.allclose(effs[0].gain, base.gain)
        assert np.allclose(effs[0].noise_cov, base.noise_cov)

    def test_no_default_schedule_beyond_two_hops(self):
        with pytest.raises(ValueError, match="a default partition exists only for two-hop channels"):
            default_ff_scheme((2, 2, 2, 2))

    def test_no_default_schedule_on_one_hop(self):
        # A one-hop channel was told there is no default "beyond two hops".
        with pytest.raises(ValueError, match="a default partition exists only for two-hop channels"):
            default_ff_scheme((2, 2))

    def test_energy_identity_of_flip_transform(self):
        # Flip pair carries exactly twice the energy of the selection pair.
        real = draw_block((2, 2, 2), seed=14, block_index=0, count=256)
        h1, h2 = real.hops
        sel = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        flip = [np.diag([1.0, 1.0]), np.diag([1.0, -1.0])]
        lhs = sum(np.sum(np.abs(h2 @ f @ h1) ** 2, axis=(-2, -1)) for f in flip)
        rhs = 2 * sum(np.sum(np.abs(h2 @ j @ h1) ** 2, axis=(-2, -1)) for j in sel)
        assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_noise_floor_per_mode(self):
        dim = (2, 2, 2)
        sched = ff_schedule(as_dimension(dim), min_full_div_partition_2hop(*dim)[1])
        real = draw_block(dim, seed=15, block_index=0, count=128)
        for eff in ff_effective(real, sched, 30.0):
            assert np.all(np.linalg.eigvalsh(eff.noise_cov) >= 1.0 - 1e-9)

    def test_dimension_mismatch(self):
        sched = ff_schedule(as_dimension((2, 2, 2)), min_full_div_partition_2hop(2, 2, 2)[1])
        real = sample_channel((2, 3, 2), seed=1)
        with pytest.raises(ValueError, match="different dimension"):
            ff_effective(real, sched, 10.0)

    @pytest.mark.parametrize("dim", ORACLE_DIMS)
    @pytest.mark.parametrize("snr", [3.0, 100.0, 1e4])
    def test_matches_explicit_matrix_chain(self, dim, snr):
        # Mode k is AF whose relay i also applies its +-1 pattern f_i(k).
        d = as_dimension(dim)
        part = min_full_div_partition_2hop(*dim)[1] if d.hops == 2 else max_partition(dim)
        sched = ff_schedule(d, part)
        assert sched.mode_count > 1
        real = draw_block(dim, seed=25, block_index=0, count=256)
        effs = ff_effective(real, sched, snr)
        assert len(effs) == sched.mode_count
        for mode, eff in enumerate(effs, start=1):
            relays = explicit_af_relays(real, snr, sched.mode_flips(mode))
            gain, noise_cov = explicit_matrix_chain(real.hops, relays)
            np.testing.assert_allclose(eff.gain, gain, rtol=1e-12)
            np.testing.assert_allclose(eff.noise_cov, noise_cov, rtol=1e-12)


class TestParallelAf:
    def test_trivial_partition_is_af(self):
        counts = (2, 2, 2)
        p = Partition((tuple(frozenset(range(n)) for n in counts),))
        real = draw_block(counts, seed=16, block_index=0, count=32)
        eff = ParallelAfScheme(p).effectives(real, 12.0)[0]
        base = af_effective(real, 12.0)
        assert np.allclose(eff.gain, base.gain)
        assert np.allclose(eff.noise_cov, base.noise_cov)

    def test_scalar_paths_match_hand_formula(self):
        real = scalar_real([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        p = max_partition((2, 2, 2))
        snr = 1.0
        for path, eff in zip(p.paths, ParallelAfScheme(p).effectives(real, snr)):
            chain = [next(iter(node)) for node in path]
            h1 = complex(real.hops[0][chain[1], chain[0]])
            h2 = complex(real.hops[1][chain[2], chain[1]])
            d = math.sqrt((snr / 1) / ((snr / 1) * abs(h1) ** 2 + 1))
            assert np.allclose(eff.gain, h2 * d * h1)
            assert np.allclose(eff.noise_cov, 1 + abs(h2 * d) ** 2)

    @pytest.mark.parametrize(
        "dim,built_for,message",
        [
            # Counted 5738 of 8192 outages on the first three layers' antennas.
            ((2, 2, 2), (2, 2, 2, 2), "path spans 4 layers, channel has 3"),
            # Failed in the block with an IndexError.
            ((2, 2, 2, 2), (2, 2, 2), "path spans 3 layers, channel has 4"),
            ((2, 2, 2), (3, 3, 3), "antenna index out of range in layer 0"),
        ],
    )
    def test_partition_of_another_channel_rejected(self, dim, built_for, message):
        scheme = ParallelAfScheme(max_partition(built_for))
        with pytest.raises(ValueError, match=message):
            outage_curve(dim, scheme, 2.0, [10.0], BLOCK_SIZE, 1)


class TestDf:
    def test_last_layer_decode_equals_af(self):
        real = draw_block((2, 3, 2), seed=17, block_index=0, count=512)
        snr, rate = 10.0, 2.0
        af_mask = mutual_info(af_effective(real, snr), snr, 2) < rate
        df_mask = df_outage(real, DecodeSet((2,)), snr, rate)
        assert np.array_equal(af_mask, df_mask)

    def test_not_outage_when_all_segments_clear(self):
        real = scalar_real([[10.0]], [[10.0]])
        assert not df_outage(real, DecodeSet((1, 2)), snr=100.0, rate=1.0)

    @pytest.mark.parametrize("indices", [(1,), (2, 5)])
    def test_decode_set_must_end_at_destination(self, indices):
        # (1,) would count the first hop's outages alone; (2, 5) would
        # silently stop at the channel's last hop.
        real = draw_block((3, 1, 4, 2), seed=0, block_index=0, count=64)
        with pytest.raises(ValueError, match="destination layer 3"):
            df_outage(real, DecodeSet(indices), 10.0, 2.0)
        with pytest.raises(ValueError, match="destination layer 3"):
            estimate_outage((3, 1, 4, 2), DfScheme(DecodeSet(indices)), 2.0, 10.0, 4096, seed=0)

    def test_decode_helps_weak_middle(self):
        real = draw_block((3, 1, 4, 2), seed=18, block_index=0, count=2048)
        snr, rate = 10 ** 1.8, 2.0
        all_af = np.mean(AfScheme().outage(real, snr, rate))
        decoded = np.mean(DfScheme(DecodeSet((2, 3))).outage(real, snr, rate))
        assert decoded < all_af


class TestSvdAlign:
    def test_rotations_are_unitary(self):
        real = draw_block((2, 2, 2), seed=19, block_index=0, count=64)
        for t in channel_sim._alignment_rotations(real):
            prod = t @ t.conj().swapaxes(-1, -2)
            assert np.allclose(prod, np.eye(2), atol=1e-10)

    def test_aligned_chain_has_product_singular_values(self):
        real = draw_block((3, 3, 3, 3), seed=20, block_index=0, count=32)
        rots = channel_sim._alignment_rotations(real)
        chain = real.hops[0]
        for rot, hop in zip(rots, real.hops[1:]):
            chain = hop @ rot @ chain
        sv = np.sort(np.linalg.svd(chain, compute_uv=False), axis=-1)
        prod = np.ones_like(sv)
        for h in real.hops:
            prod = prod * np.sort(np.linalg.svd(h, compute_uv=False), axis=-1)
        assert np.allclose(sv, np.sort(prod, axis=-1), rtol=1e-8)

    def test_single_hop_same_singular_values(self):
        real = sample_channel((2, 2), seed=21)
        eff = SvdAlignScheme().effectives(real, 10.0)[0]
        # Normalization is diagonal scaling only; with one hop there is
        # no relay, so the gain is the hop itself.
        assert np.allclose(eff.gain, real.hops[0])

    def test_non_square_rejected(self):
        real = sample_channel((2, 3, 2), seed=22)
        with pytest.raises(ValueError):
            SvdAlignScheme().effectives(real, 10.0)[0]

    @pytest.mark.parametrize("dim", [(2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (2, 2, 2, 2, 2)])
    @pytest.mark.parametrize("snr", [3.0, 100.0, 1e4])
    def test_matches_explicit_matrix_chain(self, dim, snr):
        # Relay i is the full matrix diag(s) T_i: rotate, then normalize
        # the rotated hop's rows as in AF.
        real = draw_block(dim, seed=23, block_index=0, count=256)
        n = dim[0]
        relays = []
        for hop, rot in zip(real.hops, channel_sim._alignment_rotations(real)):
            power = (snr / n) * np.sum(np.abs(rot @ hop) ** 2, axis=-1) + 1.0
            relays.append(np.sqrt((snr / n) / power)[..., :, None] * rot)
        gain, noise_cov = explicit_matrix_chain(real.hops, relays)
        eff = SvdAlignScheme().effectives(real, snr)[0]
        np.testing.assert_allclose(eff.gain, gain, rtol=1e-12)
        np.testing.assert_allclose(eff.noise_cov, noise_cov, rtol=1e-12)

    def test_steeper_outage_decay_than_af(self):
        # Aligned relaying restores the per-hop diversity; its decay rate
        # clearly beats the plain AF chain at matched rate.
        svd = outage_curve((2, 2, 2), SvdAlignScheme(), 2.0, [6.0, 9.0, 12.0], 120000, seed=55)
        af = outage_curve((2, 2, 2), AfScheme(), 2.0, [12.0, 15.0, 18.0], 120000, seed=55)
        assert estimate_slope(svd) > estimate_slope(af) + 0.3


RUNS = ["outage", "curve", "ser"]


def run_counts(run, trials, workers, seed=1):
    """The counts of a (2, 2) AF run of ``trials`` through one public runner."""
    if run == "outage":
        return [estimate_outage((2, 2), AfScheme(), 2.0, 10.0, trials, seed, workers).outage_count]
    if run == "curve":
        pts = outage_curve((2, 2), AfScheme(), 2.0, [4.0, 10.0], trials, seed, workers)
    else:
        cb = stbc.alamouti(stbc.QamAlphabet.qam(4))
        pts = stbc.simulate_ser((2, 2), AfScheme(), cb, [4.0, 10.0], trials, seed, workers)
    return [p.outage_count for p in pts]


# Schemes that do not fit their channel, each with the error its own builder raises:
# runner, channel, scheme, exception type and message.
MISFITS = {
    "df-decode-set": ("curve", (2, 2, 2), DfScheme(DecodeSet((1,))), ValueError,
                      "last decode index must be the destination layer 2"),
    "svd-align-asymmetric": ("curve", (2, 1, 2), SvdAlignScheme(), ValueError,
                             "alignment requires a symmetric (n,...,n) dimension"),
    "ff-schedule": ("curve", (2, 2, 2, 2), default_ff_scheme((2, 2, 2)), ValueError,
                    "schedule was built for a different dimension"),
    "parallel-af-partition": ("curve", (2, 2, 2), ParallelAfScheme(max_partition((2, 2, 2, 2))),
                              ValueError, "path spans 4 layers, channel has 3"),
    "alamouti-over-ff": ("ser", (2, 2, 2), default_ff_scheme((2, 2, 2)), ValueError,
                         "code has 1 sub-channels but the scheme offers 2"),
    "df-coded": ("ser", (2, 2, 2), DfScheme(DecodeSet((2,))), TypeError,
                 "the df scheme has no effective channel"),
}


class TestEstimateOutage:
    def test_zero_rate_never_in_outage(self):
        est = estimate_outage((2, 2, 2), AfScheme(), 0.0, 10.0, 5000, seed=1)
        assert est.outage_count == 0 and est.p_hat == 0.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="at least one trial"):
            estimate_outage((2, 2, 2), AfScheme(), 2.0, 10.0, trials=0, seed=1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, rate):
        # MI < nan is always false, so a NaN rate used to count no outage at all.
        with pytest.raises(ValueError, match="rate must be finite"):
            estimate_outage((2, 2), AfScheme(), rate, 0.0, 1000, seed=0)
        with pytest.raises(ValueError, match="rate must be finite"):
            outage_curve((2, 2), AfScheme(), rate, [0.0, 3.0], 1000, seed=0)

    @pytest.mark.parametrize("trials", [1e4, 2048.0, True, "100"])
    @pytest.mark.parametrize("run", RUNS)
    def test_non_integer_trials_rejected_before_any_block(self, run, trials, pool_sizes, no_draw):
        # 1e4 used to fail with a bare TypeError after a whole block; True ran
        # one trial; "100" failed with a bare TypeError from the curve's scope.
        with pytest.raises(ValueError, match=f"at least one trial, as an integer; got {trials!r}"):
            run_counts(run, trials, workers=2)
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", [0, -3, 2.0, True])
    @pytest.mark.parametrize("run", RUNS)
    def test_bad_workers_rejected_before_any_pool(self, run, workers, pool_sizes, no_draw):
        # 0, -3 and True used to run serially; 2.0 opened a pool, then failed with a TypeError.
        with pytest.raises(ValueError, match=f"at least one worker, as an integer; got {workers!r}"):
            run_counts(run, 2 * BLOCK_SIZE, workers)
        assert pool_sizes == []

    @pytest.mark.parametrize(
        "seed,error,message",
        [
            (-1, ValueError, "seed must be an integer in 0..2"),
            (2**64, ValueError, "seed must be an integer in 0..2"),
            (1.5, TypeError, "cannot be interpreted as an integer"),
            (True, ValueError, "seed must be an integer in 0..2"),  # ran as seed 1
        ],
    )
    @pytest.mark.parametrize("run", RUNS)
    def test_bad_seed_rejected_before_any_pool(self, run, seed, error, message, pool_sizes, no_draw):
        # Each used to open a 2-process pool and fail only in its first block.
        with pytest.raises(error, match=message):
            run_counts(run, 2 * BLOCK_SIZE, 2, seed)
        assert pool_sizes == []

    @pytest.mark.parametrize(
        "rate,policy",
        [(math.nan, "fixed"), (math.inf, "fixed"), (math.nan, "multiplexing"),
         (-math.inf, "multiplexing"), (1e308, "multiplexing")],
    )
    def test_non_finite_rate_rejected_before_any_pool(self, rate, policy, pool_sizes, no_draw):
        # A nan rate used to open the pool and fail at the first point.  Under
        # multiplexing, 1e308 is finite at 0 dB but overflows at 30 dB.
        with pytest.raises(ValueError, match="rate must be finite at every point"):
            outage_curve((2, 2), AfScheme(), rate, [0.0, 30.0], 2 * BLOCK_SIZE, 1, workers=2,
                         rate_policy=policy)
        assert pool_sizes == []

    @pytest.mark.parametrize("case", list(MISFITS))
    def test_misfit_scheme_rejected_before_any_pool(self, case, pool_sizes, no_draw):
        # Each used to open a 2-process pool and fail only in its first block.
        run, dim, scheme, error, message = MISFITS[case]
        with pytest.raises(error) as info:
            if run == "curve":
                outage_curve(dim, scheme, 2.0, [4.0, 10.0], 2 * BLOCK_SIZE, 1, workers=2)
            else:
                cb = stbc.alamouti(stbc.QamAlphabet.qam(4))
                stbc.simulate_ser(dim, scheme, cb, [4.0, 10.0], 2 * stbc.CODED_BLOCK_SIZE, 1, 2)
        assert str(info.value) == message
        assert pool_sizes == []

    def test_integer_like_trials_accepted(self):
        a = estimate_outage((2, 2), AfScheme(), 2.0, 10.0, np.int64(300), seed=1)
        b = estimate_outage((2, 2), AfScheme(), 2.0, 10.0, 300, seed=1)
        assert a.outage_count == b.outage_count and a.trials == 300

    @pytest.mark.parametrize("run", RUNS)
    def test_partial_last_chunk_counts_equal_serial(self, run, pool_sizes):
        # Five blocks at width 3 go out as chunks of 2, 2 and 1; the last block is partial.
        block = stbc.CODED_BLOCK_SIZE if run == "ser" else BLOCK_SIZE
        wide = run_counts(run, 4 * block + 5, 3)
        assert pool_sizes == [3]
        assert wide == run_counts(run, 4 * block + 5, 1)

    @pytest.mark.parametrize("run", RUNS)
    def test_integer_like_workers_accepted(self, run, pool_sizes):
        wide = run_counts(run, 2 * BLOCK_SIZE, np.int64(2))
        assert pool_sizes == [2]
        assert wide == run_counts(run, 2 * BLOCK_SIZE, 1)

    def test_deterministic_and_worker_invariant(self):
        kwargs = dict(rate=2.0, snr_db=8.0, trials=30000, seed=77)
        a = estimate_outage((2, 2, 2), AfScheme(), **kwargs)
        b = estimate_outage((2, 2, 2), AfScheme(), **kwargs)
        c = estimate_outage((2, 2, 2), AfScheme(), workers=3, **kwargs)
        assert a.outage_count == b.outage_count == c.outage_count

    def test_workers_clamped_to_block_count(self, pool_sizes):
        kwargs = dict(rate=2.0, snr_db=8.0, trials=2 * BLOCK_SIZE, seed=77)
        serial = estimate_outage((2, 2, 2), AfScheme(), **kwargs)
        wide = estimate_outage((2, 2, 2), AfScheme(), workers=8, **kwargs)
        assert pool_sizes == [2]
        assert wide.outage_count == serial.outage_count

    def test_curve_opens_one_pool_for_all_points(self, pool_sizes):
        args = ((2, 2, 2), AfScheme(), 2.0, [4.0, 8.0, 12.0], 2 * BLOCK_SIZE)
        serial = outage_curve(*args, seed=3)
        wide = outage_curve(*args, seed=3, workers=2)
        assert pool_sizes == [2]
        assert [p.outage_count for p in wide] == [p.outage_count for p in serial]

    def test_failed_point_closes_the_pool(self, pool_sizes):
        # The second point fails inside the workers; the run's pool still closes.
        run = (2.0, [4.0, 8.0], 2 * BLOCK_SIZE, 3)
        with pytest.raises(RuntimeError, match="point failed"):
            outage_curve((2, 2, 2), FailsAbove(), *run, workers=2)
        assert pool_sizes == [2]
        assert channel_sim._open_pool.get() is None
        outage_curve((2, 2, 2), AfScheme(), *run, workers=2)
        assert pool_sizes == [2, 2]
        assert multiprocessing.active_children() == []

    def test_empty_grid_returns_at_once(self, pool_sizes, no_draw):
        assert outage_curve((2, 2), AfScheme(), 2.0, [], 2 * BLOCK_SIZE, 3, workers=2) == []
        assert pool_sizes == []

    def test_monotone_decreasing_in_snr(self):
        pts = outage_curve((2, 2, 2), AfScheme(), 2.0, [4.0, 8.0, 12.0, 16.0], 40000, seed=5)
        probs = [p.p_hat for p in pts]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_multiplexing_rate_policy(self):
        # Rates grow with SNR; outage still decays, now at the tradeoff
        # slope for the chosen multiplexing gain.
        pts = outage_curve(
            (2, 2), AfScheme(), 0.5, [10.0, 16.0, 22.0], 40000, seed=21,
            rate_policy="multiplexing",
        )
        rates = [p.rate_bpcu for p in pts]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert pts[0].p_hat > pts[-1].p_hat

    def test_unknown_rate_policy(self):
        with pytest.raises(ValueError):
            outage_curve((2, 2), AfScheme(), 1.0, [10.0], 100, seed=1, rate_policy="warp")

    def test_all_schemes_run(self):
        dim = (2, 2, 2)
        schemes = [
            AfScheme(),
            PfScheme(),
            SvdAlignScheme(),
            DfScheme(DecodeSet((1, 2))),
            default_ff_scheme(dim),
            ParallelAfScheme(min_full_div_partition_2hop(*dim)[1]),
        ]
        for scheme in schemes:
            est = estimate_outage(dim, scheme, 2.0, 12.0, 4096, seed=3)
            assert 0.0 <= est.p_hat <= 1.0, scheme


class TestExactOutage:
    """Monte-Carlo counts against outage probabilities known in closed form.

    The level is fixed in advance: each count must lie in the exact
    two-sided binomial acceptance region of its point at tail 1e-6.
    """

    SEED, TRIALS, RATE, GRID_DB, TAIL = 7, 10**5, 2.0, [10.0, 15.0, 20.0, 25.0], 1e-6
    CASES = [
        ((1, 3), AfScheme(), lambda snr, rate: one_hop_outage(1, 3, snr, rate)),
        ((2, 1), AfScheme(), lambda snr, rate: one_hop_outage(2, 1, snr, rate)),
        ((1, 1, 1), AfScheme(), lambda snr, rate: af_1n1_outage(1, snr, rate)),
        ((1, 4, 1), PfScheme(), lambda snr, rate: af_1n1_outage(4, snr, rate)),
        ((1, 1, 1), DfScheme(DecodeSet((1, 2))), df_111_outage),
    ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_inside_the_binomial_acceptance_region(self, workers):
        for dim, scheme, exact in self.CASES:
            points = outage_curve(dim, scheme, self.RATE, self.GRID_DB, self.TRIALS, self.SEED, workers)
            for point in points:
                p = exact(10.0 ** (point.snr_db / 10.0), self.RATE)
                lo, hi = binomial_acceptance(self.TRIALS, p, self.TAIL)
                assert lo <= point.outage_count <= hi, (dim, scheme.kind, point.snr_db, p, lo, hi)


class TestBlockRunner:
    def test_counts_independent_of_trials_and_workers(self):
        # Trial t is the same draw for any trial or worker count: outage
        # counts equal a replay of the public per-block stages, cut to
        # the trial count, and coded error counts agree across workers.
        dim, scheme, rate, snr_db, seed = (2, 2), AfScheme(), 2.0, 6.0, 31
        snr = 10.0 ** (snr_db / 10.0)
        replay = np.concatenate(
            [scheme.outage(sample_block(dim, seed, b), snr, rate) for b in range(2)]
        )
        for trials in (1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1):
            want = int(np.count_nonzero(replay[:trials]))
            for workers in (1, 2, 3):
                got = estimate_outage(dim, scheme, rate, snr_db, trials, seed, workers=workers)
                assert got.outage_count == want, (trials, workers)
        assert np.count_nonzero(replay[:BLOCK_SIZE]) > 0

        cb = stbc.alamouti(stbc.QamAlphabet.qam(4))
        args = (dim, scheme, cb, [4.0, 8.0], stbc.CODED_BLOCK_SIZE + 1, seed)
        serial = [p.outage_count for p in stbc.simulate_ser(*args, workers=1)]
        assert serial[0] > 0
        assert [p.outage_count for p in stbc.simulate_ser(*args, workers=2)] == serial


@functools.cache
def _af_block_replay(dim, rate, snr_db, seed, blocks):
    snr = 10.0 ** (snr_db / 10.0)
    return np.concatenate(
        [AfScheme().outage(sample_block(dim, seed, b), snr, rate) for b in range(blocks)]
    )


class TestBlockRunnerProperty:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(trials=st.integers(1, 3 * BLOCK_SIZE), workers=st.sampled_from([1, 2]))
    @example(trials=BLOCK_SIZE + 1, workers=2)
    @example(trials=3 * BLOCK_SIZE, workers=2)
    def test_counts_equal_block_replay(self, trials, workers):
        # Any trial count, whole blocks or not, counts the replay's first trials.
        dim, rate, snr_db, seed = (2, 2), 2.0, 6.0, 31
        replay = _af_block_replay(dim, rate, snr_db, seed, blocks=3)
        got = estimate_outage(dim, AfScheme(), rate, snr_db, trials, seed, workers=workers)
        assert got.outage_count == int(np.count_nonzero(replay[:trials]))


# Tiled and untiled shapes of every scheme kind that has an outage.
TILE_CASES = {
    "af(2,2,2)": ((2, 2, 2), AfScheme()),
    "ff(2,2,2)": ((2, 2, 2), default_ff_scheme((2, 2, 2))),
    "df23(3,1,4,2)": ((3, 1, 4, 2), DfScheme(DecodeSet((2, 3)))),
    "pf(1,4,2,1)": ((1, 4, 2, 1), PfScheme()),
    "parallel-af(2,2,2)": ((2, 2, 2), ParallelAfScheme(min_full_div_partition_2hop(2, 2, 2)[1])),
    "svd-align(2,2,2)": ((2, 2, 2), SvdAlignScheme()),
}


@functools.cache
def _whole_block_replay(case, rate, snr_db, seed, blocks):
    """Outage masks of whole blocks, each through one ``scheme.outage`` call."""
    dim, scheme = TILE_CASES[case]
    snr = 10.0 ** (snr_db / 10.0)
    return np.concatenate(
        [scheme.outage(sample_block(dim, seed, b), snr, rate) for b in range(blocks)]
    )


class TestTiles:
    """Outage blocks run in tiles of ``_tile_trials(dim)`` trials; no count depends on it."""

    def test_rule_tiles_multi_output_channels_only(self):
        tiles = {dim: channel_sim._tile_trials(as_dimension(dim)) for dim in
                 [(2, 2, 2), (3, 1, 4, 2), (1, 4, 2), (1, 4, 1), (4, 1), (1, 4, 2, 1)]}
        assert tiles == {(2, 2, 2): 2048, (3, 1, 4, 2): 2048, (1, 4, 2): 2048,
                         (1, 4, 1): BLOCK_SIZE, (4, 1): BLOCK_SIZE, (1, 4, 2, 1): BLOCK_SIZE}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", list(TILE_CASES))
    def test_counts_equal_whole_block_replay(self, case, workers, pool_sizes):
        dim, scheme = TILE_CASES[case]
        rate, snr_db, seed = 2.0, 10.0, 17
        tile = channel_sim._tile_trials(as_dimension(dim))
        counts = (1, tile - 1, tile + 1, BLOCK_SIZE - 1, BLOCK_SIZE + tile + 3)
        replay = _whole_block_replay(case, rate, snr_db, seed, math.ceil(max(counts) / BLOCK_SIZE))
        assert 0 < np.count_nonzero(replay[:BLOCK_SIZE]) < BLOCK_SIZE
        with channel_sim._block_pool(workers, 2 * BLOCK_SIZE, BLOCK_SIZE, seed):
            for trials in counts:
                got = estimate_outage(dim, scheme, rate, snr_db, trials, seed, workers=workers)
                assert got.outage_count == np.count_nonzero(replay[:trials]), trials
                # At an unreachable rate every trial is an outage: each counts once.
                every = estimate_outage(dim, scheme, 1e9, snr_db, trials, seed, workers=workers)
                assert every.outage_count == trials
        assert pool_sizes == ([2] if workers == 2 else [])

    @pytest.mark.parametrize(
        "dim,scheme", [((2, 2, 2), default_ff_scheme((2, 2, 2))), ((1, 4, 1), PfScheme())]
    )
    def test_tile_mutual_info_equals_whole_block_slice(self, dim, scheme):
        # Bit for bit, for the rule's tile and for tiles the rule does not pick.
        snr = 10.0 ** 1.5
        real = sample_block(dim, seed=8, block_index=0)
        whole = [mutual_info(e, snr, dim[0]) for e in scheme.effectives(real, snr)]
        for tile in {channel_sim._tile_trials(as_dimension(dim)), 2048, 1000}:
            for a in range(0, BLOCK_SIZE, tile):
                part = channel_sim._trial_slice(real, a, a + tile)
                for w, eff in zip(whole, scheme.effectives(part, snr), strict=True):
                    assert np.array_equal(mutual_info(eff, snr, dim[0]), w[a : a + tile])

    def test_df_block_memory_is_bounded(self):
        # The whole-block DF{2,3} (3,1,4,2) kernels peaked at 12.7 MB of
        # traced memory; 2048-trial tiles at 4.8 MB.
        dim, scheme = TILE_CASES["df23(3,1,4,2)"]
        tracemalloc.start()
        try:
            estimate_outage(dim, scheme, 2.0, 10.0, BLOCK_SIZE, seed=1)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak < 7.0


def trials_innermost(a):
    """Whether the leading (trial) axis has the smallest stride of the axes longer than one."""
    longer = [s for s, n in zip(a.strides, a.shape) if n > 1]
    return a.strides[0] == min(longer)


class TestMemoryLayout:
    @pytest.mark.parametrize(
        "dim,scheme",
        [
            ((2, 2, 2), AfScheme()),
            ((3, 1, 4, 2), AfScheme()),
            ((2, 2, 2), default_ff_scheme((2, 2, 2))),
            ((1, 4, 1), PfScheme()),
            ((2, 3, 4, 2), PfScheme()),
            ((3, 1, 4, 2), DfScheme(DecodeSet((2, 3)))),
            ((2, 4, 3), ParallelAfScheme(min_full_div_partition_2hop(2, 4, 3)[1])),
            ((2, 2, 2), SvdAlignScheme()),
        ],
    )
    def test_effective_channels_keep_trials_innermost(self, dim, scheme, monkeypatch):
        # Every effective channel reaches mutual_info (DF through its
        # segments), so recording its arguments covers every builder.
        seen = []

        def recording_mutual_info(eff, snr, n0):
            seen.append(eff)
            return mutual_info(eff, snr, n0)

        monkeypatch.setattr(channel_sim, "mutual_info", recording_mutual_info)
        real = channel_sim._trial_slice(sample_block(dim, seed=4, block_index=0), 0, 1000)
        assert all(trials_innermost(h) for h in real.hops)
        scheme.outage(real, 100.0, 2.0)
        assert seen
        for eff in seen:
            assert eff.gain.shape[0] == eff.noise_cov.shape[0] == 1000
            assert trials_innermost(eff.gain) and trials_innermost(eff.noise_cov)

    @pytest.mark.parametrize("case", ["ff(2,2,2)", "df23(3,1,4,2)", "pf(1,4,2,1)"])
    def test_tiles_keep_trials_innermost(self, case, monkeypatch):
        dim, scheme = TILE_CASES[case]
        tiles, effs = [], []

        def recording_slice(real, start, stop):
            tiles.append(trial_slice(real, start, stop))
            return tiles[-1]

        def recording_mutual_info(eff, snr, n0):
            effs.append(eff)
            return mutual_info(eff, snr, n0)

        trial_slice = channel_sim._trial_slice
        monkeypatch.setattr(channel_sim, "_trial_slice", recording_slice)
        monkeypatch.setattr(channel_sim, "mutual_info", recording_mutual_info)
        estimate_outage(dim, scheme, 2.0, 20.0, BLOCK_SIZE + 5, seed=3)
        tile = channel_sim._tile_trials(as_dimension(dim))
        assert [t.hops[0].shape[0] for t in tiles] == [tile] * (BLOCK_SIZE // tile) + [5]
        assert all(trials_innermost(h) for t in tiles for h in t.hops)
        assert effs and all(e.gain.shape[0] <= tile for e in effs)
        assert all(trials_innermost(e.gain) and trials_innermost(e.noise_cov) for e in effs)

    @pytest.mark.parametrize(
        "dim,scheme,cb",
        [
            ((2, 2, 2), default_ff_scheme((2, 2, 2)), stbc.golden(stbc.QamAlphabet.qam(4), m=1)),
            ((2, 1, 2, 2), AfScheme(), stbc.alamouti(stbc.QamAlphabet.qam(4))),
        ],
    )
    def test_coded_whitened_arrays_keep_trials_innermost(self, dim, scheme, cb, monkeypatch):
        seen = []

        def recording(kernel):
            def run(*args):
                out = kernel(*args)
                seen.append(out)
                return out

            return run

        # The noise draw, the Cholesky factors and the whitened gains.
        for name in ("_complex_normal", "_cholesky", "_forward_sub"):
            monkeypatch.setattr(stbc, name, recording(getattr(stbc, name)))
        stbc.simulate_ser(dim, scheme, cb, [10.0, 20.0], 1000, seed=2)
        # The noise of every sub-channel, drawn once for the whole block; then at
        # each point, per sub-channel, the one factor of K_z and the whitened G
        # of the 1000 live trials.
        want = [stbc.CODED_BLOCK_SIZE] * cb.k_sub + [1000, 1000] * cb.k_sub * 2
        assert [a.shape[0] for a in seen] == want
        assert all(trials_innermost(a) for a in seen)


class TestSchemeOrderings:
    def test_three_hop_flip_modes_beat_af(self):
        # (2,2,2,2) with four flip modes: the extra diversity order shows
        # up as a widening outage gap over plain AF.
        dim = (2, 2, 2, 2)
        sched = ff_schedule(as_dimension(dim), max_partition(dim))
        af = estimate_outage(dim, AfScheme(), 2.0, 18.0, 200000, seed=63)
        ff = estimate_outage(dim, FfScheme(sched), 2.0, 18.0, 200000, seed=63)
        assert ff.p_hat < 0.5 * af.p_hat

    def test_parallel_af_beats_af_at_high_snr(self):
        # Two (2,2,3) paths in (2,4,3) double the diversity order; the
        # rate cost of time sharing is paid back beyond moderate SNR.
        dim = (2, 4, 3)
        par = ParallelAfScheme(min_full_div_partition_2hop(*dim)[1])
        af = estimate_outage(dim, AfScheme(), 2.0, 12.0, 200000, seed=63)
        split = estimate_outage(dim, par, 2.0, 12.0, 200000, seed=63)
        assert split.p_hat < 0.6 * af.p_hat


class TestEstimateSlope:
    def test_exact_power_law(self):
        # Counts 10^12, 10^9, 10^6, 10^3 of 10^15: three decades per 10 dB.
        pts = [
            OutageEstimate(snr_db=db, rate_bpcu=2.0, trials=10**15,
                           outage_count=10 ** (15 - 3 * db // 10))
            for db in (10, 20, 30, 40)
        ]
        assert abs(estimate_slope(pts) - 3.0) < 1e-9

    def test_requires_three_usable_points(self):
        pts = [
            OutageEstimate(10.0, 2.0, 1000, 100),
            OutageEstimate(12.0, 2.0, 1000, 50),
        ]
        with pytest.raises(ValueError):
            estimate_slope(pts)

    def test_requires_two_snrs(self):
        # Three usable points at one SNR used to give nan with a RuntimeWarning.
        with pytest.raises(ValueError, match="at two or more SNRs"):
            estimate_slope([OutageEstimate(10.0, 1.0, 1000, 100)] * 3)

    def test_sparse_counts_filtered(self):
        good = [OutageEstimate(db, 2.0, 10**5, 10 ** (5 - db // 10)) for db in (10, 20, 30)]
        noisy = [OutageEstimate(40.0, 2.0, 10**5, 3)]
        assert abs(estimate_slope(good + noisy) - 1.0) < 1e-9

    def test_all_and_no_outage_points_ignored(self):
        good = [OutageEstimate(db, 2.0, 10**5, 10 ** (5 - db // 10)) for db in (10, 20, 30)]
        edges = [OutageEstimate(0.0, 2.0, 10**5, 10**5), OutageEstimate(40.0, 2.0, 10**5, 0)]
        assert abs(estimate_slope(edges[:1] + good + edges[1:]) - 1.0) < 1e-9

    def test_point_at_event_threshold_used(self):
        # Without its third point, at exactly MIN_EVENTS_FOR_SLOPE events, no slope exists.
        n = channel_sim.MIN_EVENTS_FOR_SLOPE
        pts = [OutageEstimate(db, 2.0, 1000 * n, 10 ** (2 - db // 10) * n) for db in (0, 10, 20)]
        assert pts[-1].outage_count == n
        assert abs(estimate_slope(pts) - 1.0) < 1e-9


class TestOutageEstimate:
    def test_interval_at_the_edges(self):
        # The interval stays inside [0, 1] and keeps some width at 0 and all events.
        lo, hi = OutageEstimate(10.0, 2.0, 1000, 0).ci95
        assert lo == 0 < hi < 1
        lo, hi = OutageEstimate(10.0, 2.0, 1000, 1000).ci95
        assert 0 < lo < 1 == hi


class TestFrobeniusSurrogate:
    def test_gain_collapse_matches_low_rate_outage_slope(self):
        # The near-zero-gain event and outage at a small fixed rate decay
        # with the same SNR exponent.
        dim = as_dimension((1, 2, 1))
        grid = [14.0, 18.0, 22.0, 26.0]
        trials, seed = 120000, 31
        frob_pts, rate_pts = [], []
        for snr_db in grid:
            snr = 10 ** (snr_db / 10)
            frob = 0
            outage = 0
            n_blocks = -(-trials // BLOCK_SIZE)
            for b in range(n_blocks):
                real = sample_block(dim, seed, b)
                eff = af_effective(real, snr)
                live = min(trials - b * BLOCK_SIZE, BLOCK_SIZE)
                fmask = snr * np.sum(np.abs(eff.gain) ** 2, axis=(-2, -1)) < 1.0
                omask = mutual_info(eff, snr, 1) < 0.1
                frob += int(np.count_nonzero(fmask[:live]))
                outage += int(np.count_nonzero(omask[:live]))
            frob_pts.append(OutageEstimate(snr_db, 0.0, trials, frob))
            rate_pts.append(OutageEstimate(snr_db, 0.1, trials, outage))
        assert abs(estimate_slope(frob_pts) - estimate_slope(rate_pts)) < 0.5


MANIFEST_RECORD = {"command": "simulate", "dim": [2, 2], "scheme": {"kind": "af"},
                   "rate_bpcu": 1.0, "snr_grid_db": [10.0], "trials": 100, "seed": 3}


class TestOutputFormats:
    def test_csv_layout(self):
        pts = [OutageEstimate(10.0, 2.0, 1000, 123)]
        buf = io.StringIO()
        write_outage_csv(pts, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "snr_db,rate,trials,outages,p_hat,ci_lo,ci_hi"
        # p_hat +- 1.96 sqrt(p_hat (1 - p_hat) / trials)
        assert lines[1] == "10,2,1000,123,0.123,0.1026432509,0.1433567491"

    def test_manifest_hash_stable_and_sensitive(self):
        base = dict(
            command="simulate",
            dim=[2, 2, 2],
            scheme={"kind": "af"},
            rate_bpcu=2.0,
            snr_grid_db=[10.0, 12.0],
            trials=1000,
            seed=7,
        )
        a = run_manifest(base)
        b = run_manifest(base)
        assert a["config_hash"] == b["config_hash"]
        c = run_manifest({**base, "seed": 8})
        assert c["config_hash"] != a["config_hash"]

    def test_manifest_hash_leaves_out_versions(self):
        doc = run_manifest(MANIFEST_RECORD)
        rest = {k: v for k, v in doc.items() if k not in ("versions", "config_hash")}
        canon = json.dumps(rest, sort_keys=True, separators=(",", ":"))
        assert doc["config_hash"] == hashlib.sha1(canon.encode()).hexdigest()

    def test_manifest_records_versions(self):
        doc = run_manifest(MANIFEST_RECORD)
        assert doc["versions"]["relaydmt"] == relaydmt.__version__
        assert doc["versions"]["numpy"] == np.__version__
        assert doc["versions"]["python"] == platform.python_version()
        assert isinstance(doc["versions"]["blas"], str) and doc["versions"]["blas"]
