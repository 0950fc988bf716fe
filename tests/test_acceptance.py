"""
Acceptance gate: every release criterion, each printing one PASS line.

The Monte-Carlo criteria use fixed seeds and grids and at least one
million trials per point; slope checks restrict the fit to points with
estimated probability inside [1e-4, 1e-1].  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from exact_digest import FAMILIES, digest
from oracles import dmt_symmetric

from relaydmt.channel_sim import (
    AfScheme,
    DfScheme,
    PfScheme,
    default_ff_scheme,
    estimate_slope,
    outage_curve,
)
from relaydmt.dmt_core import DecodeSet, cutset_bound, dmt_rp
from relaydmt.partition import (
    is_full_diversity,
    is_independent,
    max_partition,
    min_full_div_partition_2hop,
)
from relaydmt.recursion import dmt_recursive
from relaydmt.reduction import analyze
from relaydmt.stbc import QamAlphabet, alamouti, golden, simulate_ser, verify_nvd

# Every test here is a release criterion; `-m "not acceptance"` skips the gate.
pytestmark = pytest.mark.acceptance

TRIALS = 10**6
SEED = 20260809
BAND = (1e-4, 1e-1)
# Line count and SHA-256 of each tests/exact_digest.py family.  A change that
# must move an exact result re-pins its family here and says which lines moved.
EXACT_DIGESTS = {
    "dmt_rp": (3900, "b74dbbefa883fde0f78561eeb2b39a715cc149597806a6121ef5d7db8b7cd9d0"),
    "cutset_bound": (3900, "0004d111c892ce5f35800db01cfa7c4d94c55c9d5ca65e43767f2c7ab190a1c5"),
    "where_to_decode": (17773, "a800d9c9fbf74068817f5c3cd773ce5f3dbd5224d1d719bdc9d2bf8dacdc606f"),
    "dmt_serial_partition": (
        27775, "fd3bb11ce73805c00c8b2a068f00e4314b4e989a84f46439c334854b3f016ebd"
    ),
    "dmt_ff_lower_bound": (
        15600, "6199bbe677cb0dae91a4e0ef7b84c396d942317e65a7686f986a5f7e48b8ea10"
    ),
    "max_partition": (3900, "2e50e9ae4faa1e6900f4984da192730be46f1a77120f5cf4393a22cad733733a"),
    "min_full_div_partition_2hop": (
        125, "f6323fbb10f8ccbe7ff33d8b63c2e101f6358367e72dd34ecf53bc6946d4212d"
    ),
    "analyze": (3900, "dce41b19c857d42250531071a486311daf3be21074e598b5e67e018ffaf40afe"),
    "ff_schedule": (80775, "e4c0c5cb4175e8a81aff4fdd99a1cf70df87c4d0b63585f6adda270b603ea583"),
}


def band_points(points):
    return [p for p in points if BAND[0] <= p.p_hat <= BAND[1]]


def not_significantly_above(lo_points, hi_points):
    """Every lo point's CI lower edge sits at or below the hi point's CI upper edge."""
    return all(lo.ci95[0] <= hi.ci95[1] for lo, hi in zip(lo_points, hi_points))


def interpolate_db_at(points, target_p):
    """SNR (dB) where the log-probability curve crosses target_p."""
    xs = np.array([p.snr_db for p in points])
    ys = np.array([math.log10(max(p.p_hat, 1e-300)) for p in points])
    t = math.log10(target_p)
    for i in range(len(xs) - 1):
        y0, y1 = ys[i], ys[i + 1]
        if (y0 - t) * (y1 - t) <= 0 and y0 != y1:
            return float(xs[i] + (xs[i + 1] - xs[i]) * (t - y0) / (y1 - y0))
    raise AssertionError(f"grid does not bracket p = {target_p}")


def all_dims(max_count, max_hops):
    for n_hops in range(1, max_hops + 1):
        yield from itertools.product(range(1, max_count + 1), repeat=n_hops + 1)


def test_criterion_1_exact_analytic_values():
    t0 = time.perf_counter()
    checks = {
        "d_af(2,2,2)(0)": (dmt_rp((2, 2, 2)).d_max, 3),
        "d_af(2,2,2,2)(0)": (dmt_rp((2, 2, 2, 2)).d_max, 3),
        "d_af(2,4,3)(0)": (dmt_rp((2, 4, 3)).d_max, 6),
        "d_max(2,2,2)": (cutset_bound((2, 2, 2)).d_max, 4),
        "d_max(2,4,3)": (cutset_bound((2, 4, 3)).d_max, 8),
    }
    for name, (got, want) in checks.items():
        assert got == want, f"{name}: got {got}, want {want}"
    per_call = (time.perf_counter() - t0) / len(checks)
    assert per_call < 1e-3, f"per-value time {per_call * 1e3:.2f} ms exceeds 1 ms"
    print(f"PASS criterion 1: exact analytic values ({per_call * 1e6:.0f} us per value)")


def test_criterion_2_recursion_oracle_equivalence():
    t0 = time.perf_counter()
    n_dims = 0
    for counts in all_dims(5, 4):
        curve = dmt_rp(counts)
        for k in range(min(counts) + 1):
            assert dmt_recursive(counts, k) == curve.evaluate(k), (counts, k)
        n_dims += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f} s"
    print(f"PASS criterion 2: recursion oracle matches on {n_dims} dims ({elapsed:.2f} s)")


def test_criterion_3_symmetric_closed_form():
    from fractions import Fraction

    for n in range(1, 9):
        for hops in range(1, 9):
            assert dmt_symmetric(n, hops) == dmt_rp((n,) * (hops + 1)), (n, hops)
            if hops >= n:
                for k in range(n + 1):
                    want = Fraction((n - k) * (n + 1 - k), 2)
                    assert dmt_symmetric(n, hops).evaluate(k) == want
    print("PASS criterion 3: symmetric closed form consistent for n, N <= 8")


def test_criterion_4_reduction():
    assert analyze((1, 4, 1)).minimal_vertical_form.counts == (1, 1, 1)
    report = analyze((3, 1, 4, 2))
    assert report.n_bar == 2
    assert report.practical_vertical_form.counts == (3, 1, 2, 2)
    assert report.minimal_form == analyze(report.practical_vertical_form).minimal_form
    print("PASS criterion 4: reduction identities")


def test_criterion_5_partitions():
    import networkx as nx

    t0 = time.perf_counter()
    k, p = min_full_div_partition_2hop(2, 4, 3)
    assert k == 2 and is_full_diversity((2, 4, 3), p)
    for n in range(1, 6):
        k, p = min_full_div_partition_2hop(n, n, n)
        assert k == n and is_full_diversity((n, n, n), p)

    def flow_value(counts):
        g = nx.DiGraph()
        for i in range(len(counts) - 1):
            for a in range(counts[i]):
                for b in range(counts[i + 1]):
                    g.add_edge(("L", i, a), ("L", i + 1, b), capacity=1)
        for a in range(counts[0]):
            g.add_edge("s", ("L", 0, a))
        for b in range(counts[-1]):
            g.add_edge(("L", len(counts) - 1, b), "t")
        return nx.maximum_flow_value(g, "s", "t")

    n_dims = 0
    for counts in all_dims(3, 3):
        d_max = int(cutset_bound(counts).d_max)
        p = max_partition(counts)
        assert p.size == d_max and is_independent(counts, p), counts
        assert all(w == (1,) * len(counts) for w in p.path_dims())
        assert flow_value(counts) == d_max, counts
        n_dims += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 5: partitions exact on {n_dims} dims ({elapsed:.2f} s)")


def test_criterion_6_outage_diversity_bands():
    t0 = time.perf_counter()
    grid = [14.0, 16.0, 18.0, 20.0, 22.0]
    af = outage_curve((2, 2, 2), AfScheme(), 2.0, grid, TRIALS, SEED, workers=2)
    ff = outage_curve(
        (2, 2, 2), default_ff_scheme((2, 2, 2)), 2.0, grid, TRIALS, SEED, workers=2
    )
    af_slope = estimate_slope(band_points(af))
    ff_slope = estimate_slope(band_points(ff))
    assert 2.2 <= af_slope <= 3.5, f"(2,2,2) af slope {af_slope:.2f}"
    assert 3.0 <= ff_slope <= 4.5, f"(2,2,2) ff slope {ff_slope:.2f}"
    high = [(f, a) for f, a in zip(ff, af) if f.snr_db >= 20.0]
    assert not_significantly_above([f for f, _ in high], [a for _, a in high]), (
        "ff outage above af outage beyond 20 dB"
    )

    af_grid = [14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0, 28.0]
    df_grid = [10.0, 12.0, 14.0, 16.0, 18.0, 20.0]
    all_af = outage_curve((3, 1, 4, 2), AfScheme(), 2.0, af_grid, TRIALS, SEED, workers=2)
    decoded = outage_curve(
        (3, 1, 4, 2), DfScheme(DecodeSet((2, 3))), 2.0, df_grid, TRIALS, SEED, workers=2
    )
    all_af_slope = estimate_slope(band_points(all_af))
    decoded_slope = estimate_slope(band_points(decoded))
    assert 1.5 <= all_af_slope <= 2.6, f"(3,1,4,2) all-af slope {all_af_slope:.2f}"
    assert 2.4 <= decoded_slope <= 3.6, f"(3,1,4,2) decoded slope {decoded_slope:.2f}"
    elapsed = time.perf_counter() - t0
    print(
        "PASS criterion 6: outage slopes "
        f"af(2,2,2)={af_slope:.2f}, ff(2,2,2)={ff_slope:.2f}, "
        f"all-af(3,1,4,2)={all_af_slope:.2f}, decode@4ant={decoded_slope:.2f} "
        f"({elapsed:.0f} s)"
    )


def test_criterion_7_pf_vs_af():
    t0 = time.perf_counter()
    grid = [20.0, 23.0, 26.0, 29.0, 32.0, 35.0, 38.0, 41.0, 44.0, 47.0]
    af = outage_curve((1, 4, 1), AfScheme(), 2.0, grid, TRIALS, seed=31415, workers=2)
    pf = outage_curve((1, 4, 1), PfScheme(), 2.0, grid, TRIALS, seed=31415, workers=2)
    af_slope = estimate_slope(band_points(af))
    pf_slope = estimate_slope(band_points(pf))
    assert abs(af_slope - pf_slope) <= 0.5, f"slopes {af_slope:.2f} vs {pf_slope:.2f}"
    assert not_significantly_above(pf, af), "pf outage above af outage"
    gain_db = interpolate_db_at(af, 1e-3) - interpolate_db_at(pf, 1e-3)
    assert 4.0 <= gain_db <= 10.0, f"pf power gain {gain_db:.2f} dB"
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 7: pf/af slopes {pf_slope:.2f}/{af_slope:.2f}, "
        f"gain {gain_db:.1f} dB at p=1e-3 ({elapsed:.0f} s)"
    )


def test_criterion_8_nvd():
    t0 = time.perf_counter()
    q4 = QamAlphabet.qam(4)
    q16 = QamAlphabet.qam(16)
    diff4 = q4.difference_points()
    diff16 = q16.difference_points(max_coord=4)
    assert len(diff16) ** 4 <= 10**6
    mn_a, _ = verify_nvd(alamouti(q4), diff4)
    assert mn_a > 0
    results = {}
    for m in (0, 1):
        cb = golden(q4, m=m)
        mn4, _ = verify_nvd(cb, diff4)
        mn16, _ = verify_nvd(cb, diff16)
        assert mn4 > 0, f"m={m} minimum not positive"
        assert np.isclose(mn4, mn16, rtol=1e-9), f"m={m}: {mn4} vs {mn16}"
        results[m] = mn4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"PASS criterion 8: non-vanishing determinants alamouti={mn_a:.6g}, "
        f"golden m=0 {results[0]:.6g}, m=1 {results[1]:.6g} ({elapsed:.1f} s)"
    )


def test_criterion_9_coded_error_rates():
    t0 = time.perf_counter()
    q4 = QamAlphabet.qam(4)
    ff = default_ff_scheme((2, 2, 2))
    coded_ff = simulate_ser(
        (2, 2, 2), ff, golden(q4, m=1), [16.0, 17.5, 19.0, 20.5, 22.0], TRIALS, seed=271828
    )
    ff_slope = estimate_slope(band_points(coded_ff))
    assert 3.0 <= ff_slope <= 4.5, f"golden/ff ser slope {ff_slope:.2f}"
    coded_af = simulate_ser(
        (2, 1, 2, 2),
        AfScheme(),
        alamouti(q4),
        [14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0],
        TRIALS,
        seed=271828,
    )
    af_slope = estimate_slope(band_points(coded_af))
    assert 1.5 <= af_slope <= 2.5, f"alamouti/af ser slope {af_slope:.2f}"
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 9: coded slopes golden-ff={ff_slope:.2f}, "
        f"alamouti-af={af_slope:.2f} ({elapsed:.0f} s)"
    )


def test_criterion_10_deterministic_csv(tmp_path):
    base = [
        sys.executable,
        "-m",
        "relaydmt.cli",
        "simulate",
        "--dim",
        "2,2,2",
        "--scheme",
        "ff",
        "--rate",
        "2",
        "--snr",
        "10:4:18",
        "--trials",
        "3e4",
        "--seed",
        "97",
    ]
    outputs = []
    for name, workers in [("a.csv", None), ("b.csv", None), ("c.csv", "4")]:
        path = tmp_path / name
        cmd = base + ["--output", str(path)]
        if workers:
            cmd += ["--workers", workers]
        proc = subprocess.run(cmd, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    print("PASS criterion 10: byte-identical CSV across reruns and worker counts")


def test_criterion_11_exact_digests():
    t0 = time.perf_counter()
    got = {name: digest(family) for name, family in FAMILIES.items()}
    assert got == EXACT_DIGESTS
    elapsed = time.perf_counter() - t0
    lines = sum(n for n, _ in got.values())
    print(
        f"PASS criterion 11: {len(got)} exact digests unchanged over {lines} lines "
        f"({elapsed:.1f} s)"
    )
