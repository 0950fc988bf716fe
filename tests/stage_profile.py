"""Per-block cost of the benchmark's outage curves, whole block against tiles,
and per-search cost of its NVD cases at two chunk sizes.

Run by hand; the suite does not collect it::

    PYTHONPATH=src python tests/stage_profile.py

For each outage curve of the benchmark's ``outage-grid`` part (rate 2
bits per channel use, at the first SNR of its grid) it evaluates one
drawn ``BLOCK_SIZE``-trial block through ``scheme.outage`` twice: as one
whole block, and in ``TILE``-trial tiles.  It prints the tile that
``channel_sim._tile_trials(dim)`` picks for ``estimate_outage`` (the
rule), the median milliseconds per block over ``REPEATS`` alternating
runs (the draw excluded) and the tracemalloc peak of one block, draw
included, so the rule can be re-checked against both.  Both ways give
the same outage count; the script checks that too.

For each of the benchmark's five ``verify_nvd`` cases it then prints the
median milliseconds per search over ``REPEATS`` alternating runs and the
tracemalloc peak of one search, at ``stbc._NVD_CHUNK`` tuples per chunk
and at 65,536, and checks that both return the same minimum and tuple.

Last, the coded block: for each curve of the benchmark's ``coded-ser``
part, at its first SNR and at its whole grid, and for golden 16-QAM over
AF (2,2) at one SNR, it prints the median milliseconds per
``CODED_BLOCK_SIZE``-trial block of ``stbc._ser_block`` (the codeword
table is built once per run, outside the block) and the tracemalloc
peak of one block, and checks that the grid's counts equal those of its
points run one at a time.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from relaydmt import channel_sim, stbc
from relaydmt.channel_sim import BLOCK_SIZE, AfScheme, DfScheme, PfScheme, default_ff_scheme
from relaydmt.dmt_core import DecodeSet, as_dimension

RATE = 2.0
REPEATS = 15
TILE = 2048
CURVES = (
    ("af(2,2,2)", (2, 2, 2), AfScheme(), 14.0),
    ("ff(2,2,2)", (2, 2, 2), default_ff_scheme((2, 2, 2)), 14.0),
    ("af(3,1,4,2)", (3, 1, 4, 2), AfScheme(), 14.0),
    ("df23(3,1,4,2)", (3, 1, 4, 2), DfScheme(DecodeSet((2, 3))), 10.0),
    ("af(1,4,1)", (1, 4, 1), AfScheme(), 20.0),
    ("pf(1,4,1)", (1, 4, 1), PfScheme(), 20.0),
)


NVD_CHUNKS = (stbc._NVD_CHUNK, 65536)
NVD_CASES = (
    ("alamouti/qam4", "alamouti", 4),
    ("golden0/qam4", "golden", 4),
    ("golden0/qam16box4", "golden", 16),
    ("golden1/qam4", "parallel-golden", 4),
    ("golden1/qam16box4", "parallel-golden", 16),
)


CODED = (
    ("golden1-ff(2,2,2)", (2, 2, 2), ("parallel-golden", 4), default_ff_scheme((2, 2, 2)),
     [16.0 + 1.5 * i for i in range(5)]),
    ("alamouti-af(2,1,2,2)", (2, 1, 2, 2), ("alamouti", 4), AfScheme(),
     [14.0 + 2.0 * i for i in range(7)]),
    ("golden0/qam16-af(2,2)", (2, 2), ("golden", 16), AfScheme(), [20.0]),
)


def count_in_tiles(real, scheme, snr, tile) -> int:
    return sum(
        int(np.count_nonzero(scheme.outage(channel_sim._trial_slice(real, a, a + tile), snr, RATE)))
        for a in range(0, BLOCK_SIZE, tile)
    )


def peak_mb(fn, *args) -> float:
    """Traced peak of ``fn(*args)`` in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def block_peak_mb(dim, scheme, snr, tile) -> float:
    return peak_mb(lambda: count_in_tiles(channel_sim.sample_block(dim, 1, 0), scheme, snr, tile))


def nvd_search(cb, diffs, chunk):
    """``verify_nvd(cb, diffs)`` with ``chunk`` tuples per step."""
    saved, stbc._NVD_CHUNK = stbc._NVD_CHUNK, chunk
    try:
        return stbc.verify_nvd(cb, diffs)
    finally:
        stbc._NVD_CHUNK = saved


def nvd_main() -> None:
    a, b = NVD_CHUNKS
    print(f"{'nvd case':18s} {'minimum':>8s} {f'{a} ms':>9s} {f'{b} ms':>9s} {f'{a} MB':>9s} {f'{b} MB':>9s}")
    for label, code, qam in NVD_CASES:
        cb = stbc.Codebook(code, stbc.QamAlphabet.qam(4))
        diffs = stbc.QamAlphabet.qam(qam).difference_points(max_coord=4)
        results = {chunk: nvd_search(cb, diffs, chunk) for chunk in NVD_CHUNKS}
        assert results[a] == results[b], results
        times = {chunk: [] for chunk in NVD_CHUNKS}
        for _ in range(REPEATS):
            for chunk in NVD_CHUNKS:
                start = time.perf_counter()
                nvd_search(cb, diffs, chunk)
                times[chunk].append(1e3 * (time.perf_counter() - start))
        ms = [statistics.median(times[chunk]) for chunk in NVD_CHUNKS]
        mb = [peak_mb(nvd_search, cb, diffs, chunk) for chunk in NVD_CHUNKS]
        print(f"{label:18s} {results[a][0]:8g} {ms[0]:9.2f} {ms[1]:9.2f} {mb[0]:9.2f} {mb[1]:9.2f}")


def main() -> None:
    print(f"{'curve':15s} {'rule T':>6s} {'whole ms':>9s} {'tiled ms':>9s} {'whole MB':>9s} {'tiled MB':>9s}")
    for label, dim, scheme, snr_db in CURVES:
        dim, snr = as_dimension(dim), 10.0 ** (snr_db / 10.0)
        tiles = (BLOCK_SIZE, TILE)
        real = channel_sim.sample_block(dim, 1, 0)
        counts = {tile: count_in_tiles(real, scheme, snr, tile) for tile in tiles}
        assert len(set(counts.values())) == 1, counts
        times = {tile: [] for tile in tiles}
        for _ in range(REPEATS):
            for tile in tiles:
                start = time.perf_counter()
                count_in_tiles(real, scheme, snr, tile)
                times[tile].append(1e3 * (time.perf_counter() - start))
        ms = [statistics.median(times[tile]) for tile in tiles]
        mb = [block_peak_mb(dim, scheme, snr, tile) for tile in tiles]
        print(f"{label:15s} {channel_sim._tile_trials(dim):6d} {ms[0]:9.2f} {ms[1]:9.2f} {mb[0]:9.2f} {mb[1]:9.2f}")


def coded_main() -> None:
    print(f"{'coded curve':22s} {'points':>6s} {'ms/block':>9s} {'MB peak':>8s} {'counts':s}")
    for label, dim, (code, qam), scheme, grid in CODED:
        dim, cb = as_dimension(dim), stbc.Codebook(code, stbc.QamAlphabet.qam(qam))
        words = cb.codewords()[0]
        table = stbc._word_table(words)
        for snrs in {len(g): g for g in (grid[:1], grid)}.values():
            snrs = [10.0 ** (s / 10.0) for s in snrs]
            args = (dim, scheme, cb, snrs, words, table, 1, 0, stbc.CODED_BLOCK_SIZE)
            counts = [int(c) for c in stbc._ser_block(*args)]
            alone = [stbc._ser_block(*args[:3], [s], *args[4:])[0] for s in snrs]
            assert counts == alone, (counts, alone)
            times = []
            for _ in range(REPEATS if qam == 4 else 3):
                start = time.perf_counter()
                stbc._ser_block(*args)
                times.append(1e3 * (time.perf_counter() - start))
            mb = peak_mb(stbc._ser_block, *args)
            ms = statistics.median(times)
            print(f"{label:22s} {len(snrs):6d} {ms:9.2f} {mb:8.2f} {counts}")


if __name__ == "__main__":
    main()
    nvd_main()
    coded_main()
