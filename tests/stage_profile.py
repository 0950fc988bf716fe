"""Per-block cost of the benchmark's outage curves, whole block against tiles.

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
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from relaydmt import channel_sim
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


def count_in_tiles(real, scheme, snr, tile) -> int:
    return sum(
        int(np.count_nonzero(scheme.outage(channel_sim._trial_slice(real, a, a + tile), snr, RATE)))
        for a in range(0, BLOCK_SIZE, tile)
    )


def peak_mb(dim, scheme, snr, tile) -> float:
    tracemalloc.start()
    try:
        count_in_tiles(channel_sim.sample_block(dim, 1, 0), scheme, snr, tile)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


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
        mb = [peak_mb(dim, scheme, snr, tile) for tile in tiles]
        print(f"{label:15s} {channel_sim._tile_trials(dim):6d} {ms[0]:9.2f} {ms[1]:9.2f} {mb[0]:9.2f} {mb[1]:9.2f}")


if __name__ == "__main__":
    main()
